//! Ratio-objective solving: maximize `E[N] / E[D]` over stationary policies.
//!
//! The paper's relative-revenue objective (Eq. 1) and orphan-rate objective
//! (Eq. 3) are ratios of long-run accumulation rates, which plain dynamic
//! programming cannot maximize directly. Following Sapirshtein et al.
//! ("Optimal Selfish Mining Strategies in Bitcoin"), consider the
//! standard average-reward MDPs with the transformed scalar reward
//! `w_rho = N - rho * D`.
//!
//! Let `g(rho)` be the optimal gain under `w_rho`. Each policy contributes a
//! line `avg(N) - rho * avg(D)`, so `g` is convex, piecewise linear and
//! nonincreasing (given `avg(D) >= 0` for every policy). If every policy with
//! `avg(N) > 0` also has `avg(D) > 0` (true for all models in this crate's
//! dependents: an attacker block must end up either locked or orphaned), then
//!
//! * for `rho < rho*`, `g(rho) > 0`;
//! * for `rho >= rho*`, `g(rho) <= 0` — exactly `0` when null policies
//!   (with `avg(N) = avg(D) = 0`) exist, e.g. a strategy that never mines.
//!
//! `rho*` — the optimal ratio — is therefore the left edge of the set
//! `{rho : g(rho) <= eps}`. The solver reports the crossing of `g = eps`,
//! with `eps` = `crossing_level` (a tenth of [`RatioOptions::tolerance`]):
//! the value is `max_π (N − eps·L) / D` over per-step rates, `L` counting
//! steps, since `g(rho) > eps` holds iff some policy has
//! `avg(N) − eps − rho·avg(D) > 0`. It lies below `rho*` by about
//! `eps / avg(D)`.
//!
//! ## One Dinkelbach loop
//!
//! The ratio is maximized by Dinkelbach's method, in one loop
//! (`dinkelbach_from_zero`). A step at `rho` replaces the policy by one
//! optimal for `N − eps − rho·D` and returns that policy's own `A` (its
//! `N − eps·L`) and `B` (its `D`); `A / B` is the next `rho`. The first
//! step is at `rho = 0`: the value is 0 when `A ≤ 0` there, and a policy
//! with `A > 0` and `B ≤ 0` makes the ratio unbounded
//! ([`MdpError::UnboundedRatio`]). The loop stops once a step leaves the
//! policy unchanged or does not raise the ratio, and returns the last
//! policy's `A / B`: the value is the returned policy's own
//! `(N − eps·L) / D`, so that policy's `N / D` is at least the value.
//!
//! Each step is exact ([`renewal`](crate::solve::renewal)). On the BU
//! models, where state 0 alone is a regeneration set, a step is one
//! backward pass over the cycle from state 0, `A` and `B` summed over the
//! cycle. On the others (the Bitcoin models, random test models) a step
//! is one exact gain solve of `N − eps − rho·D` by policy iteration,
//! warm-started from the previous step's policy, and `A` and `B` are that
//! policy's per-step rates from its exact stationary law. Only
//! [`RatioOptions::tolerance`] (through `eps`) and the budget of
//! [`RatioOptions::rvi`] (checked once per pass) apply.
//!
//! Both functionals are scalarized **once** per solve: the passes read each
//! arm's two rewards as they go, and a gain step re-scalarizes `N − eps −
//! rho·D` in one O(arms) loop; neither re-reads the per-transition reward
//! buffer.

use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::{Objective, Policy};
use crate::solve::renewal::{CycleWeights, Passes};
use crate::solve::rvi::{check_warm_start, RviOptions};

/// Options for [`maximize_ratio`].
#[derive(Debug, Clone)]
pub struct RatioOptions {
    /// The precision of the value. The solver reports the crossing of the
    /// optimal gain of `N − rho·D` with a tenth of this (see the module
    /// docs). The paper's stated precision is `1e-4`; we default one decade
    /// tighter.
    pub tolerance: f64,
    /// Inner average-reward solver options: the solves read only the
    /// budget (and check a warm start's length).
    pub rvi: RviOptions,
    /// Retired: the Dinkelbach loop starts at `rho = 0` and needs no
    /// bracket. Kept until bvcbench's builders drop it (ROADMAP item 3).
    pub initial_hi: f64,
}

impl Default for RatioOptions {
    fn default() -> Self {
        RatioOptions { tolerance: 1e-5, rvi: RviOptions::default(), initial_hi: 1.0 }
    }
}

/// Result of [`maximize_ratio`].
#[derive(Debug, Clone)]
pub struct RatioSolution {
    /// The maximal ratio `E[N]/E[D]` (see the module docs for the exact
    /// contract).
    pub value: f64,
    /// The last policy of the Dinkelbach loop, whose own
    /// `(N − eps·L) / D` is the value, so its `N / D` is at least the value.
    pub policy: Policy,
    /// Number of inner solves: `1` (the one loop of passes) when state 0
    /// alone is a regeneration set, else one gain solve per Dinkelbach step.
    pub inner_solves: usize,
    /// Work summed over all inner solves: backward passes and LU
    /// evaluations.
    pub inner_iterations: usize,
}

/// The gain level `eps` whose crossing a ratio solve reports. The inner
/// gain must be resolved finer than the outer tolerance times the
/// denominator scale; one decade finer works for the unit-rate denominators
/// used throughout this project.
pub(crate) fn crossing_level(opts: &RatioOptions) -> f64 {
    opts.tolerance * 0.1
}

/// The Dinkelbach loop of a ratio solve (see the module docs) over its
/// steps: `pass(rho)` leaves a policy optimal for `N − eps − rho·D` in the
/// caller's policy buffer and returns that policy's `(A, B)` and
/// whether the pass changed the policy. A first pass at `rho = 0`, then
/// [`dinkelbach`] from that policy's ratio; 0 when the first pass has
/// `A ≤ 0`.
pub(crate) fn dinkelbach_from_zero(
    mut pass: impl FnMut(f64) -> Result<(f64, f64, bool), MdpError>,
) -> Result<f64, MdpError> {
    let (a0, b0, _) = pass(0.0)?;
    if a0 <= 0.0 {
        return Ok(0.0);
    }
    if b0 <= 0.0 {
        return Err(MdpError::UnboundedRatio { reached: 0.0 });
    }
    dinkelbach(a0 / b0, pass)
}

/// Dinkelbach steps from `rho`, the ratio of the policy the passes hold,
/// until a greedy pass leaves the policy unchanged or does not raise the
/// ratio (a tie). Returns the last greedy policy's ratio `A / B`.
pub(crate) fn dinkelbach(
    mut rho: f64,
    mut pass: impl FnMut(f64) -> Result<(f64, f64, bool), MdpError>,
) -> Result<f64, MdpError> {
    loop {
        let (a, b, changed) = pass(rho)?;
        if b <= 0.0 {
            // Only a ratio's denominator can vanish (a gain's counts steps).
            // With `A ≤ 0` the greedy policy merely ties `rho`.
            return if a > 0.0 { Err(MdpError::UnboundedRatio { reached: rho }) } else { Ok(rho) };
        }
        let next = a / b;
        if !changed || next <= rho {
            return Ok(next);
        }
        rho = next;
    }
}

/// Maximizes `E[N]/E[D]` where `N` and `D` are linear functionals of the
/// reward components (`numerator` and `denominator` weights).
///
/// Requirements (asserted only in documentation; violations surface as
/// nonsensical results): both functionals must be nonnegative along every
/// transition actually taken, and every policy with positive `N`-rate must
/// have positive `D`-rate.
pub fn maximize_ratio(
    mdp: &CompiledMdp,
    numerator: &Objective,
    denominator: &Objective,
    opts: &RatioOptions,
) -> Result<RatioSolution, MdpError> {
    mdp.validate_objective(numerator)?;
    mdp.validate_objective(denominator)?;
    maximize_ratio_compiled(mdp, numerator, denominator, opts)
}

/// [`maximize_ratio`] without the objective arity checks.
pub fn maximize_ratio_compiled(
    compiled: &CompiledMdp,
    numerator: &Objective,
    denominator: &Objective,
    opts: &RatioOptions,
) -> Result<RatioSolution, MdpError> {
    check_warm_start(compiled, &opts.rvi)?;
    // Scalarize both functionals once (see the module docs).
    let mut exp_num = Vec::new();
    let mut exp_den = Vec::new();
    compiled.scalarize_into(numerator, &mut exp_num);
    compiled.scalarize_into(denominator, &mut exp_den);

    let mut policy = Policy::zeros(compiled.num_states());
    let mut inner_solves = 0;
    let mut passes = Passes::new(compiled, &opts.rvi.budget);
    let weights = CycleWeights { num: &exp_num, shift: crossing_level(opts), den: Some(&exp_den) };
    let value = passes.optimal_ratio(weights, &mut policy, &mut inner_solves)?;
    Ok(RatioSolution { value, policy, inner_solves, inner_iterations: passes.count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mdp, Transition};

    /// Two self-loop actions with (N, D) rates (1, 2) and (3, 10): ratios
    /// 0.5 and 0.3 — the solver must prefer the smaller-N, larger-ratio arm.
    #[test]
    fn picks_larger_ratio_not_larger_numerator() {
        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0, 2.0])]);
        m.add_action(s, 1, vec![Transition::new(s, 1.0, vec![3.0, 10.0])]);
        let n = Objective::component(0, 2);
        let d = Objective::component(1, 2);
        let sol = maximize_ratio(&CompiledMdp::of(&m), &n, &d, &RatioOptions::default()).unwrap();
        assert!((sol.value - 0.5).abs() < 1e-4, "value {}", sol.value);
        assert_eq!(sol.policy.choices[s], 0);
    }

    /// With a null action (N = D = 0) present, g(rho) plateaus at zero; the
    /// loop must still find the active arm's ratio.
    #[test]
    fn null_policy_plateau_is_handled() {
        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![0.0, 0.0])]);
        m.add_action(s, 1, vec![Transition::new(s, 1.0, vec![0.7, 1.0])]);
        let n = Objective::component(0, 2);
        let d = Objective::component(1, 2);
        let sol = maximize_ratio(&CompiledMdp::of(&m), &n, &d, &RatioOptions::default()).unwrap();
        assert!((sol.value - 0.7).abs() < 1e-4, "value {}", sol.value);
        assert_eq!(sol.policy.choices[s], 1);
    }

    /// All-zero numerator: ratio is zero, and the solver exits early.
    #[test]
    fn zero_numerator_returns_zero() {
        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![0.0, 1.0])]);
        let n = Objective::component(0, 2);
        let d = Objective::component(1, 2);
        let sol = maximize_ratio(&CompiledMdp::of(&m), &n, &d, &RatioOptions::default()).unwrap();
        assert_eq!(sol.value, 0.0);
        assert_eq!(sol.inner_solves, 1);
        assert!(sol.inner_iterations >= 1);
    }

    /// State 0 steps to state 1 for free; state 1's self-loop pays
    /// `loop_reward`: a cycle avoiding state 0, so the ratio solve's steps
    /// are exact gain solves on `S = {0, 1}`.
    fn cyclic_loop(loop_reward: [f64; 2]) -> CompiledMdp {
        let mut m = Mdp::new(2);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![0.0, 0.0])]);
        m.add_action(b, 0, vec![Transition::new(b, 1.0, loop_reward.to_vec())]);
        CompiledMdp::of(&m)
    }

    /// A ratio above 1 (the loop has no bracket to outgrow) with a set
    /// larger than `{0}`, and the same ratio on `S = {0}`; both are the
    /// crossing exactly.
    #[test]
    fn ratio_above_one_on_both_kinds_of_set() {
        let n = Objective::component(0, 2);
        let d = Objective::component(1, 2);
        let opts = RatioOptions::default();
        let sol = maximize_ratio(&cyclic_loop([5.0, 1.0]), &n, &d, &opts).unwrap();
        assert_eq!(sol.value, 5.0 - crossing_level(&opts));

        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![5.0, 1.0])]);
        let sol = maximize_ratio(&CompiledMdp::of(&m), &n, &d, &opts).unwrap();
        assert_eq!(sol.value, 5.0 - crossing_level(&opts));
    }

    /// A policy with a positive numerator and a zero denominator makes the
    /// ratio unbounded, on either kind of set: both see it in the first
    /// step.
    #[test]
    fn zero_denominator_is_an_unbounded_ratio() {
        let n = Objective::component(0, 2);
        let d = Objective::component(1, 2);
        let opts = RatioOptions::default();
        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0, 0.0])]);
        for model in [CompiledMdp::of(&m), cyclic_loop([1.0, 0.0])] {
            let err = maximize_ratio(&model, &n, &d, &opts).unwrap_err();
            assert_eq!(err, MdpError::UnboundedRatio { reached: 0.0 });
        }
    }

    /// A stochastic example: action loops through a two-step cycle earning
    /// N on one leg and D on both; ratio = 1/2.
    #[test]
    fn cycle_ratio() {
        let mut m = Mdp::new(2);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![1.0, 1.0])]);
        m.add_action(b, 0, vec![Transition::new(a, 1.0, vec![0.0, 1.0])]);
        let n = Objective::component(0, 2);
        let d = Objective::component(1, 2);
        let sol = maximize_ratio(&CompiledMdp::of(&m), &n, &d, &RatioOptions::default()).unwrap();
        assert!((sol.value - 0.5).abs() < 1e-4, "value {}", sol.value);
    }

    #[test]
    fn wrong_length_warm_start_is_a_shape_error() {
        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0, 2.0])]);
        let mut opts = RatioOptions::default();
        opts.rvi.warm_start = Some(vec![0.0; 3]);
        let err = maximize_ratio(
            &CompiledMdp::of(&m),
            &Objective::component(0, 2),
            &Objective::component(1, 2),
            &opts,
        )
        .unwrap_err();
        assert_eq!(err, MdpError::Shape { what: "warm start", found: 3, expected: 1 });
    }

    /// The budget threads through `RatioOptions::rvi` into every inner
    /// solve, so a raised cancel flag aborts the whole loop.
    #[test]
    fn cancel_flag_aborts_ratio_solve() {
        use crate::budget::SolveBudget;
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0, 2.0])]);
        let mut opts = RatioOptions::default();
        opts.rvi.budget = SolveBudget::unlimited().with_cancel(Arc::new(AtomicBool::new(true)));
        let err = maximize_ratio(
            &CompiledMdp::of(&m),
            &Objective::component(0, 2),
            &Objective::component(1, 2),
            &opts,
        )
        .unwrap_err();
        assert!(err.is_cancellation(), "{err:?}");
    }

    /// A ratio solve takes one loop of passes when every cycle runs through
    /// state 0, and one exact gain solve per Dinkelbach step when one
    /// avoids it; the values agree.
    #[test]
    fn inner_solves_follow_the_model_structure() {
        let n = Objective::component(0, 2);
        let d = Objective::component(1, 2);
        let mut m = Mdp::new(2);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![1.0, 1.0])]);
        m.add_action(b, 0, vec![Transition::new(a, 1.0, vec![0.0, 1.0])]);
        let regenerative =
            maximize_ratio(&CompiledMdp::of(&m), &n, &d, &RatioOptions::default()).unwrap();
        assert_eq!(regenerative.inner_solves, 1);
        m.add_action(b, 1, vec![Transition::new(b, 1.0, vec![0.2, 1.0])]);
        let cyclic =
            maximize_ratio(&CompiledMdp::of(&m), &n, &d, &RatioOptions::default()).unwrap();
        assert!(cyclic.inner_solves >= 2, "{} inner solves", cyclic.inner_solves);
        assert!((regenerative.value - 0.5).abs() < 1e-4, "value {}", regenerative.value);
        assert_eq!(cyclic.value, regenerative.value);
    }

    /// The compiled entry point reuses one compilation across two different
    /// ratio objectives and matches the front door.
    #[test]
    fn compiled_entry_point_matches_front_door() {
        let mut m = Mdp::new(3);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![1.0, 1.0, 0.5])]);
        m.add_action(b, 0, vec![Transition::new(a, 1.0, vec![0.0, 1.0, 1.0])]);
        m.add_action(b, 1, vec![Transition::new(b, 1.0, vec![0.2, 0.5, 0.1])]);
        let compiled = CompiledMdp::compile(&m).unwrap();
        let opts = RatioOptions::default();
        for (ni, di) in [(0usize, 1usize), (0, 2)] {
            let n = Objective::component(ni, 3);
            let d = Objective::component(di, 3);
            let fast = maximize_ratio_compiled(&compiled, &n, &d, &opts).unwrap();
            let front = maximize_ratio(&CompiledMdp::of(&m), &n, &d, &opts).unwrap();
            assert!((fast.value - front.value).abs() < 1e-12);
            assert_eq!(fast.policy, front.policy);
        }
    }
}
