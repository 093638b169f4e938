//! Ratio-objective solving: maximize `E[N] / E[D]` over stationary policies.
//!
//! The paper's relative-revenue objective (Eq. 1) and orphan-rate objective
//! (Eq. 3) are ratios of long-run accumulation rates, which plain dynamic
//! programming cannot maximize directly. Following Sapirshtein et al.
//! ("Optimal Selfish Mining Strategies in Bitcoin"), we solve a family of
//! standard average-reward MDPs with the transformed scalar reward
//! `w_rho = N - rho * D` and search for the critical `rho*`.
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
//! `{rho : g(rho) <= eps}`.
//!
//! ## The search on rho
//!
//! A doubling phase brackets the crossing: `g(lo) > eps >= g(hi)`. A
//! safeguarded secant search (`next_probe`) then shrinks the bracket until it
//! is narrower than [`RatioOptions::tolerance`]. Because `g` is convex, a
//! secant through two probes on the *same* side of the crossing lies below
//! `g` outside the segment between them, so its root is a lower estimate of
//! the crossing; once both probes sit on the optimal policy's line the
//! estimate is exact. Each probe aims a quarter tolerance short of its
//! estimate, so an exact one lands just above the crossing, and the clamped
//! step after it closes the bracket. Without a same-side pair the step is
//! the chord root between `lo` and `hi`, capped at the midpoint (the cap
//! keeps Table 4's null-policy plateau, where `g(hi) ≈ 0`, from stalling the
//! chord at `hi`). The midpoint is also the safeguard: it is taken whenever
//! an estimate is not finite or the last three probes shrank the bracket
//! less than 4×, so the search never needs more than about twice
//! bisection's probes, and on the paper's tables it needs about a third of
//! them.
//!
//! ## Exact probes on regenerative models
//!
//! Each probe needs the optimal gain `g(rho)` of `w_rho`. When state 0 is a
//! regeneration state — with the edges into it removed, the state graph of
//! every arm is acyclic, which every BU attack model satisfies with state 0
//! = `BASE` — the probe computes `g(rho)` **exactly** instead of by RVI:
//! [`renewal`](crate::solve::renewal) finds the best cycle ratio by
//! Dinkelbach steps, one backward DP pass over a topological order each,
//! warm-started from the previous probe's policy. The check
//! ([`regeneration_order`](crate::solve::renewal::regeneration_order))
//! runs once per solve, in the same place that picks the engine of a plain
//! gain solve
//! ([`relative_value_iteration_compiled`](crate::solve::rvi::relative_value_iteration_compiled))
//! and validates `aperiodicity_tau` and the warm start's length for both
//! engines. Beyond those, only [`RatioOptions::tolerance`] and the budget
//! of [`RatioOptions::rvi`] (checked once per pass) apply on this path; the
//! other RVI options are unused. Models with a cycle that avoids state 0
//! (the Bitcoin models, for one) keep the RVI probe. Either way the search
//! on rho, its bracket and its result contract are the same;
//! [`RatioSolution::engine`] names
//! the probe that ran.
//!
//! ## The fast path
//!
//! Both functionals are scalarized **once** per solve. Scalarization is linear
//! in the objective, so the per-arm expected rewards of `w_rho` are
//! `exp_num[a] − rho · exp_den[a]`: an RVI probe re-scalarizes *in place*
//! with one O(arms) vector combine ([`CompiledMdp::combine_scalarized_into`]),
//! and the renewal passes combine each arm's reward as they read it; neither
//! re-reads the per-transition reward buffer. Every inner solve runs in one
//! persistent set of buffers (the RVI probe warm-starts the RVI kernel from
//! the previous probe's bias vector; the renewal probe keeps its cycle
//! values there) — after setup, the whole search performs no heap
//! allocation except recording a new incumbent policy.

use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::{Objective, Policy};
use crate::solve::renewal::ArmRewards;
use crate::solve::rvi::{GainEngine, RviOptions};

/// Options for [`maximize_ratio`].
#[derive(Debug, Clone)]
pub struct RatioOptions {
    /// The search on rho stops when the bracketing interval is narrower than
    /// this. The paper's stated precision is `1e-4`; we default one decade
    /// tighter.
    pub tolerance: f64,
    /// Inner average-reward solver options. Warm starts are managed
    /// internally across probes; any user-provided warm start seeds only the
    /// first RVI probe. The renewal probe uses only the budget.
    pub rvi: RviOptions,
    /// Initial upper bound for the ratio. Doubled until `g(hi) <= 0` holds,
    /// so this is a hint, not a hard cap.
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
    /// The maximal ratio `E[N]/E[D]` (within tolerance).
    pub value: f64,
    /// A policy attaining the ratio: the optimal policy of the transformed
    /// MDP at the lower bracket (where the gain is still positive), i.e. a
    /// policy whose own ratio is within tolerance of optimal.
    pub policy: Policy,
    /// Number of inner average-reward solves performed (probes on rho).
    pub inner_solves: usize,
    /// Work summed over all inner solves: relative value iterations on the
    /// RVI engine, backward DP passes on the renewal engine.
    pub inner_iterations: usize,
    /// Which solver computed each probe's gain.
    pub engine: ProbeEngine,
}

/// The engine behind an optimal gain: each probe of the search on rho (see
/// the module docs), or a plain gain solve
/// ([`relative_value_iteration_compiled`](crate::solve::rvi::relative_value_iteration_compiled)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeEngine {
    /// Exact renewal-cycle DP passes: state 0 is a regeneration state.
    Renewal,
    /// Warm-started relative value iteration.
    Rvi,
}

/// The gain level whose crossing the search locates. The inner gain must be
/// resolved finer than the outer tolerance times the denominator scale; one
/// decade finer works for the unit-rate denominators used throughout this
/// project.
pub(crate) fn crossing_level(opts: &RatioOptions) -> f64 {
    opts.tolerance * 0.1
}

/// Up to two probes `(rho, g(rho))` on one side of the crossing, most recent
/// first.
#[derive(Debug, Clone, Copy, Default)]
struct Side {
    probes: [(f64, f64); 2],
    len: usize,
}

impl Side {
    fn push(&mut self, probe: (f64, f64)) {
        self.probes[1] = self.probes[0];
        self.probes[0] = probe;
        self.len = (self.len + 1).min(2);
    }

    /// The root of the secant through this side's two probes, if it has two.
    fn secant_root(&self, level: f64) -> Option<f64> {
        (self.len == 2).then(|| line_root(self.probes[1], self.probes[0], level))
    }
}

/// Where the line through `a` and `b` reaches gain `level` (not finite when
/// the line is flat).
fn line_root((r1, g1): (f64, f64), (r2, g2): (f64, f64), level: f64) -> f64 {
    r2 + (level - g2) * (r2 - r1) / (g2 - g1)
}

/// The search state on rho: the last two probes on each side of the crossing
/// of `g = eps`, and the bracket widths after the last three probes. All of
/// it lives in fixed-size arrays, so recording a probe never allocates.
///
/// Because every probe lies strictly inside the bracket, the most recent
/// probe above the crossing is the lower bracket end and the most recent one
/// below it is the upper end.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Bracket {
    eps: f64,
    /// Probes with `g > eps`.
    above: Side,
    /// Probes with `g <= eps`.
    below: Side,
    /// Bracket widths, current first, back to the width three probes ago.
    widths: [f64; 4],
    /// How many entries of `widths` are filled.
    n_widths: usize,
}

impl Bracket {
    pub(crate) fn new(eps: f64) -> Self {
        Bracket { eps, ..Bracket::default() }
    }

    /// Records `g(rho) = gain`; returns whether the probe lies above the
    /// crossing (and so became the lower bracket end).
    pub(crate) fn record(&mut self, rho: f64, gain: f64) -> bool {
        let above = gain > self.eps;
        if above {
            self.above.push((rho, gain));
        } else {
            self.below.push((rho, gain));
        }
        if self.above.len > 0 && self.below.len > 0 {
            self.widths.copy_within(0..3, 1);
            self.widths[0] = self.hi() - self.lo();
            self.n_widths = (self.n_widths + 1).min(4);
        }
        above
    }

    /// The lower bracket end (`g > eps`); meaningful once a probe above the
    /// crossing is recorded.
    pub(crate) fn lo(&self) -> f64 {
        self.above.probes[0].0
    }

    /// The upper bracket end (`g <= eps`); meaningful once a probe below the
    /// crossing is recorded.
    pub(crate) fn hi(&self) -> f64 {
        self.below.probes[0].0
    }
}

/// The next rho to probe, a pure function of the bracket. Requires a
/// bracket (a probe on each side) wider than `tolerance`; the result lies in
/// `[lo + tolerance / 2, hi - tolerance / 2]`.
///
/// The estimate is the larger same-side secant root inside the bracket, or
/// else the chord root between the bracket ends capped at the midpoint; the
/// probe aims a quarter tolerance short of it. The midpoint replaces the
/// probe when the estimate is not finite or when the last three probes
/// shrank the bracket less than 4×.
pub(crate) fn next_probe(b: &Bracket, tolerance: f64) -> f64 {
    let (lo, hi) = (b.lo(), b.hi());
    let mid = 0.5 * (lo + hi);
    if b.n_widths == 4 && b.widths[3] < 4.0 * b.widths[0] {
        return mid;
    }
    let estimate = [b.above.secant_root(b.eps), b.below.secant_root(b.eps)]
        .into_iter()
        .flatten()
        .filter(|&r| lo <= r && r <= hi)
        .reduce(f64::max)
        .unwrap_or_else(|| line_root(b.above.probes[0], b.below.probes[0], b.eps).min(mid));
    if !estimate.is_finite() {
        return mid;
    }
    // Aim a quarter tolerance short of the estimate. An exact estimate then
    // lands clearly above the crossing instead of on it, where last-bit
    // differences in the gain would pick the side, and the clamped step after
    // it closes the bracket.
    (estimate - 0.25 * tolerance).max(lo + 0.5 * tolerance).min(hi - 0.5 * tolerance)
}

/// Locates the crossing of `g = eps`, calling `probe(rho)` for each `g(rho)`:
/// `g(0)`, then doubling `hi` from [`RatioOptions::initial_hi`] until
/// `g(hi) <= eps`, then [`next_probe`] until the bracket is narrower than the
/// tolerance. Returns `None` when `g(0) <= eps` (the ratio is zero), else the
/// final bracket's midpoint. A probe with `g > eps` became the lower bracket
/// end, whose policy the caller keeps.
pub(crate) fn search_crossing(
    opts: &RatioOptions,
    mut probe: impl FnMut(f64) -> Result<f64, MdpError>,
) -> Result<Option<f64>, MdpError> {
    let mut bracket = Bracket::new(crossing_level(opts));
    if !bracket.record(0.0, probe(0.0)?) {
        // Even at rho = 0 the best achievable N-rate is ~0: the ratio is 0.
        return Ok(None);
    }
    let mut hi = opts.initial_hi.max(opts.tolerance);
    while bracket.record(hi, probe(hi)?) {
        hi *= 2.0;
        if hi >= 1e12 {
            return Err(MdpError::UnboundedRatio { reached: hi });
        }
    }
    while bracket.hi() - bracket.lo() > opts.tolerance {
        let rho = next_probe(&bracket, opts.tolerance);
        bracket.record(rho, probe(rho)?);
    }
    Ok(Some(0.5 * (bracket.lo() + bracket.hi())))
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

/// [`maximize_ratio`] without the objective arity checks. The probe engine
/// is chosen here, once per solve (see the module docs).
pub fn maximize_ratio_compiled(
    compiled: &CompiledMdp,
    numerator: &Objective,
    denominator: &Objective,
    opts: &RatioOptions,
) -> Result<RatioSolution, MdpError> {
    let eps = crossing_level(opts);
    let n = compiled.num_states();
    let engine = GainEngine::select(compiled, &opts.rvi)?;

    // Scalarize both functionals once; every rho after this is a vector
    // combine over these two arrays (the renewal passes combine each arm's
    // as they read it). Both passes shard across the inner solver's thread
    // budget on large models (bit-identical either way).
    let solve_threads = opts.rvi.solve_threads;
    let mut exp_num = Vec::new();
    let mut exp_den = Vec::new();
    compiled.scalarize_into_threaded(numerator, &mut exp_num, solve_threads);
    compiled.scalarize_into_threaded(denominator, &mut exp_den, solve_threads);
    let mut exp_w = Vec::new();

    // Persistent solver state. For RVI, `h` carries the bias across probes
    // (warm start); nearby rho values have nearby bias vectors, so each
    // inner solve converges in a fraction of a cold start's iterations. The
    // renewal probe reuses `h` and `h_next` for its cycle rewards and
    // lengths, and warm-starts from `policy` instead.
    let mut h: Vec<f64> = opts.rvi.warm_start.clone().unwrap_or_else(|| vec![0.0; n]);
    let mut h_next = vec![0.0f64; n];
    let mut policy = Policy::zeros(n);
    let mut lo_policy = Policy::zeros(n);
    let mut inner_solves = 0usize;
    let mut inner_iterations = 0usize;

    let found = search_crossing(opts, |rho| {
        let gain = engine.solve(
            compiled,
            ArmRewards { num: &exp_num, den: &exp_den, rho },
            &mut exp_w,
            &mut h,
            &mut h_next,
            &mut policy,
            &opts.rvi,
            &mut inner_iterations,
        )?;
        inner_solves += 1;
        if gain > eps {
            lo_policy.clone_from(&policy);
        }
        Ok(gain)
    })?;

    let (value, policy) = match found {
        Some(value) => (value, lo_policy),
        None => (0.0, policy),
    };
    Ok(RatioSolution { value, policy, inner_solves, inner_iterations, engine: engine.kind() })
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
    /// search must still locate the active arm's ratio.
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

    /// Ratio larger than the default initial bracket: the doubling phase
    /// must extend the bracket.
    #[test]
    fn bracket_expands_beyond_initial_hi() {
        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![5.0, 1.0])]);
        let n = Objective::component(0, 2);
        let d = Objective::component(1, 2);
        let sol = maximize_ratio(&CompiledMdp::of(&m), &n, &d, &RatioOptions::default()).unwrap();
        assert!((sol.value - 5.0).abs() < 1e-4, "value {}", sol.value);
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

    /// A bad `aperiodicity_tau` is rejected on the renewal engine too, which
    /// never reads it: both engines share one input contract.
    #[test]
    fn bad_tau_is_a_structured_error() {
        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0, 2.0])]);
        let mut opts = RatioOptions::default();
        opts.rvi.aperiodicity_tau = 1.0;
        let err = maximize_ratio(
            &CompiledMdp::of(&m),
            &Objective::component(0, 2),
            &Objective::component(1, 2),
            &opts,
        )
        .unwrap_err();
        assert_eq!(err, MdpError::BadOption { what: "aperiodicity_tau", value: 1.0 });
    }

    /// The budget threads through `RatioOptions::rvi` into every inner
    /// solve, so a raised cancel flag aborts the whole search.
    #[test]
    fn cancel_flag_aborts_ratio_search() {
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

    /// The probe engine follows the model's structure: renewal passes when
    /// every cycle runs through state 0, RVI when one avoids it.
    #[test]
    fn engine_follows_the_model_structure() {
        let n = Objective::component(0, 2);
        let d = Objective::component(1, 2);
        let mut m = Mdp::new(2);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![1.0, 1.0])]);
        m.add_action(b, 0, vec![Transition::new(a, 1.0, vec![0.0, 1.0])]);
        let regenerative =
            maximize_ratio(&CompiledMdp::of(&m), &n, &d, &RatioOptions::default()).unwrap();
        assert_eq!(regenerative.engine, ProbeEngine::Renewal);
        m.add_action(b, 1, vec![Transition::new(b, 1.0, vec![0.2, 1.0])]);
        let cyclic =
            maximize_ratio(&CompiledMdp::of(&m), &n, &d, &RatioOptions::default()).unwrap();
        assert_eq!(cyclic.engine, ProbeEngine::Rvi);
        assert!((regenerative.value - 0.5).abs() < 1e-4, "value {}", regenerative.value);
        assert!((cyclic.value - 0.5).abs() < 1e-4, "value {}", cyclic.value);
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

    // -----------------------------------------------------------------
    // The probe rule on synthetic gain curves, with bisection as oracle.
    // -----------------------------------------------------------------

    /// Deterministic noise in `[-amp, amp]` keyed by `rho`, standing in for
    /// the inner solver's gain error.
    fn noise(rho: f64, amp: f64) -> f64 {
        let mut x = rho.to_bits() ^ 0x9e37_79b9_7f4a_7c15;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        amp * (2.0 * (x >> 11) as f64 / (1u64 << 53) as f64 - 1.0)
    }

    /// The convex piecewise-linear `max` of lines `(intercept, slope)`.
    fn hull(lines: &[(f64, f64)], rho: f64) -> f64 {
        lines.iter().map(|&(a, b)| a - b * rho).fold(f64::NEG_INFINITY, f64::max)
    }

    /// Plain bisection from the same bracket: the oracle's probe count.
    fn bisection_probes(g: &dyn Fn(f64) -> f64, opts: &RatioOptions) -> usize {
        let eps = crossing_level(opts);
        let (mut lo, mut hi, mut probes) = (0.0, opts.initial_hi, 2);
        assert!(g(lo) > eps);
        while g(hi) > eps {
            lo = hi;
            hi *= 2.0;
            probes += 1;
        }
        while hi - lo > opts.tolerance {
            let mid = 0.5 * (lo + hi);
            if g(mid) > eps {
                lo = mid;
            } else {
                hi = mid;
            }
            probes += 1;
        }
        probes
    }

    /// Drives [`next_probe`] over `g` by hand, checking before every probe
    /// that the bracket invariant holds and the probe lies strictly inside
    /// it; then checks termination, the probe-count bound against
    /// bisection, and that [`search_crossing`] takes the same path. Returns
    /// the value and the probe count.
    fn check_search(g: &dyn Fn(f64) -> f64) -> (f64, usize) {
        let opts = RatioOptions::default();
        let (eps, tol) = (crossing_level(&opts), opts.tolerance);
        let mut b = Bracket::new(eps);
        assert!(b.record(0.0, g(0.0)));
        let mut probes = 1;
        let mut hi = opts.initial_hi;
        while b.record(hi, g(hi)) {
            hi *= 2.0;
            probes += 1;
        }
        probes += 1;
        while b.hi() - b.lo() > tol {
            assert!(g(b.lo()) > eps && g(b.hi()) <= eps, "bracket [{}, {}]", b.lo(), b.hi());
            let rho = next_probe(&b, tol);
            assert!(
                b.lo() + 0.5 * tol <= rho && rho <= b.hi() - 0.5 * tol,
                "probe {rho} outside [{}, {}]",
                b.lo(),
                b.hi()
            );
            b.record(rho, g(rho));
            probes += 1;
            assert!(probes < 200, "search does not terminate");
        }
        assert!(g(b.lo()) > eps && g(b.hi()) <= eps);
        let bisection = bisection_probes(g, &opts);
        assert!(probes <= 3 * bisection, "{probes} probes vs bisection's {bisection}");

        let mut calls = 0;
        let value = search_crossing(&opts, |rho| {
            calls += 1;
            Ok(g(rho))
        })
        .unwrap()
        .unwrap();
        assert_eq!(calls, probes);
        assert_eq!(value.to_bits(), (0.5 * (b.lo() + b.hi())).to_bits());
        (value, probes)
    }

    #[test]
    fn secant_on_a_single_line_is_exact() {
        let opts = RatioOptions::default();
        let root = 0.3 - crossing_level(&opts);
        let (value, probes) = check_search(&|rho| 0.3 - rho);
        assert!((value - root).abs() <= 0.5 * opts.tolerance, "value {value}");
        // g(0) and g(1) bracket; the chord root lies on the line, and a
        // half-tolerance step past it closes the bracket.
        assert!(probes <= 4, "{probes} probes");
    }

    #[test]
    fn secant_handles_a_kink_next_to_the_root() {
        // Two lines meet at rho = 0.25 where g = 1e-4; the shallow one
        // crosses zero just right of the kink, at 0.2502.
        let lines = [(0.25 * 3.0 + 1e-4, 3.0), (0.25 * 0.5 + 1e-4, 0.5)];
        let (value, probes) = check_search(&|rho| hull(&lines, rho));
        let root = 0.2502 - crossing_level(&RatioOptions::default()) / 0.5;
        assert!((value - root).abs() <= 0.5e-5, "value {value} vs {root}");
        assert!(probes <= 10, "{probes} probes");
    }

    #[test]
    fn secant_handles_a_zero_plateau_right_of_the_root() {
        // Table 4's shape: a null policy holds g at exactly 0 past rho*.
        let lines = [(0.0, 0.0), (0.2, 0.5), (0.26, 0.8)];
        let (value, probes) = check_search(&|rho| hull(&lines, rho));
        let root = 0.4 - crossing_level(&RatioOptions::default()) / 0.5;
        assert!((value - root).abs() <= 0.5e-5, "value {value} vs {root}");
        assert!(probes <= 10, "{probes} probes");
    }

    #[test]
    fn secant_tolerates_gain_noise() {
        let curves: [&[(f64, f64)]; 3] =
            [&[(0.3, 1.0)], &[(0.0, 0.0), (0.2, 0.5)], &[(0.25 * 3.0 + 1e-4, 3.0), (0.1251, 0.5)]];
        for lines in curves {
            let eps = crossing_level(&RatioOptions::default());
            let (value, _) = check_search(&|rho| hull(lines, rho) + noise(rho, 5e-8));
            // The noisy crossing is within 5e-8 / slope of the exact one.
            let slope =
                lines.iter().map(|l| l.1).filter(|&b| b > 0.0).fold(f64::INFINITY, f64::min);
            let root = lines
                .iter()
                .filter(|l| l.1 > 0.0)
                .map(|&(a, b)| (a - eps) / b)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((value - root).abs() <= 0.5e-5 + 5e-8 / slope, "value {value} vs {root}");
        }
    }

    #[test]
    fn flat_pair_falls_back_to_the_capped_chord() {
        let mut b = Bracket::new(1e-6);
        b.record(0.0, 1.0);
        b.record(1.0, 0.0);
        // A flat pair below the crossing has no root; the chord root is
        // capped at the midpoint, and the probe aims a quarter tolerance
        // short of it.
        b.record(0.5, 0.0);
        assert_eq!(next_probe(&b, 1e-5), 0.25 - 0.25 * 1e-5);
    }

    #[test]
    fn slow_shrinking_forces_the_midpoint() {
        let mut b = Bracket::new(1e-6);
        b.record(0.0, 1.0);
        b.record(1.0, -1.0);
        // Three probes that each shrink the bracket by 1%.
        for rho in [0.01, 0.02, 0.03] {
            b.record(rho, 1.0 - rho);
        }
        assert_eq!(next_probe(&b, 1e-5), 0.5 * (0.03 + 1.0));
    }
}
