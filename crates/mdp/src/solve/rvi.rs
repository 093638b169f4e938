//! Average-reward (gain-optimal) solving of undiscounted MDPs: exact
//! renewal passes on regenerative models, relative value iteration
//! otherwise.
//!
//! The paper's mining models are unichain average-reward MDPs
//! ("undiscounted average reward MDP" per Sapirshtein et al.), where the
//! quantity of interest is the long-run expected reward per step (the
//! *gain*).
//!
//! ## Engine dispatch
//!
//! One place, `GainEngine`, chooses the engine, once per solve, for both
//! [`relative_value_iteration_compiled`] (and so
//! [`relative_value_iteration`]) and the ratio solver: it validates the
//! shared options and reads whether state 0 is a regeneration state
//! ([`regeneration_order`], memoized per graph). Every BU attack model
//! is, with state 0 = `BASE`; their gain solves (Table 3's `u2`) then run
//! one [`renewal`](crate::solve::renewal) Dinkelbach loop, each step one
//! backward DP pass, and return the **exact** gain, its policy and that
//! policy's bias. Models with a cycle that avoids state 0 (the Bitcoin
//! baselines, for one) run the RVI kernel below, for a gain solve and for
//! each step of the ratio solver's Dinkelbach loop. [`RviSolution::engine`]
//! names the engine that ran. Both engines share the error contract (bad
//! `aperiodicity_tau`, wrong-length rewards or warm start, budget and
//! cancellation once per iteration or pass); a renewal solve ignores a
//! correctly sized warm start and never reports `NoConvergence`.
//!
//! ## The RVI kernel
//!
//! To guarantee convergence on periodic chains (common in mining models,
//! where deterministic reset cycles occur), the kernel applies the standard
//! aperiodicity transform: each action is mixed with a probability-`tau`
//! self-loop of zero reward. The transform scales the gain by `(1 - tau)`
//! and leaves optimal policies unchanged; the reported gain is rescaled back.
//!
//! The Bellman sweeps run on a [`CompiledMdp`]: rewards are collapsed to one
//! expected scalar per arm up front ([`CompiledMdp::scalarize`]) and the
//! inner loop walks flat probability/destination arrays. The low-level
//! `rvi_kernel` works entirely in caller-owned buffers — zero heap
//! allocation per iteration *and* per solve — which is what lets the ratio
//! solver warm-start the RVI solve of every Dinkelbach step in place.
//!
//! The kernel is single-threaded Jacobi: one pass per iteration,
//! restructured for auto-vectorization — streaming cursors over the CSR
//! arrays, a hoisted aperiodicity blend, branch-free max selection, and the
//! reference-state normalization fused into the sweep.

use crate::budget::SolveBudget;
use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::{Objective, Policy};
use crate::solve::ratio::ProbeEngine;
use crate::solve::renewal::{optimal_gain, regeneration_order};

/// Options for [`relative_value_iteration`].
#[derive(Debug, Clone)]
pub struct RviOptions {
    /// Stop when the span seminorm of successive bias differences falls
    /// below this; the reported gain is then within `tolerance` of optimal.
    pub tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Aperiodicity mixing weight in `[0, 1)`. `0` disables the transform.
    pub aperiodicity_tau: f64,
    /// Optional initial bias vector (warm start), e.g. from a previous solve
    /// of a nearby model. Must have one entry per state if present.
    pub warm_start: Option<Vec<f64>>,
    /// Wall-clock deadline and cooperative cancellation, checked at each
    /// iteration boundary. Unlimited by default.
    pub budget: SolveBudget,
    /// Retired: solves are serial. Kept until bvcbench's builders drop it (ROADMAP item 3).
    pub solve_threads: (),
    /// Retired: solves are serial. Kept until bvcbench's builders drop it (ROADMAP item 3).
    pub shard_min_states: (),
}

impl Default for RviOptions {
    fn default() -> Self {
        RviOptions {
            tolerance: 1e-7,
            max_iterations: 2_000_000,
            aperiodicity_tau: 0.05,
            warm_start: None,
            budget: SolveBudget::unlimited(),
            solve_threads: (),
            shard_min_states: (),
        }
    }
}

/// Result of [`relative_value_iteration`].
#[derive(Debug, Clone)]
pub struct RviSolution {
    /// Optimal long-run average reward per step (identical for every start
    /// state under the unichain assumption).
    pub gain: f64,
    /// Relative (bias) values, normalized so `bias[0] == 0`. On the renewal
    /// engine, the returned policy's `R(s) − gain·L(s)`: its cycle reward
    /// minus the gain times its cycle length, from `s` back to state 0.
    pub bias: Vec<f64>,
    /// A gain-optimal policy.
    pub policy: Policy,
    /// Work performed: Bellman sweeps on the RVI engine, backward DP passes
    /// on the renewal engine.
    pub iterations: usize,
    /// Which engine solved the model (see the module docs).
    pub engine: ProbeEngine,
}

/// Computes the optimal gain of a unichain average-reward MDP.
pub fn relative_value_iteration(
    mdp: &CompiledMdp,
    objective: &Objective,
    opts: &RviOptions,
) -> Result<RviSolution, MdpError> {
    mdp.validate_objective(objective)?;
    let exp_reward = mdp.scalarize(objective);
    relative_value_iteration_compiled(mdp, &exp_reward, opts)
}

/// [`relative_value_iteration`] on pre-scalarized per-arm expected rewards
/// (one entry per global arm, from [`CompiledMdp::scalarize`]). Use this
/// form when solving the same model under many objectives.
pub fn relative_value_iteration_compiled(
    compiled: &CompiledMdp,
    exp_reward: &[f64],
    opts: &RviOptions,
) -> Result<RviSolution, MdpError> {
    let arms = compiled.num_arms();
    if exp_reward.len() != arms {
        return Err(MdpError::Shape {
            what: "exp_reward",
            found: exp_reward.len(),
            expected: arms,
        });
    }
    let engine = GainEngine::select(compiled, opts)?;
    let n = compiled.num_states();
    let mut h = opts.warm_start.clone().unwrap_or_else(|| vec![0.0; n]);
    let mut h_next = vec![0.0f64; n];
    let mut policy = Policy::zeros(n);
    let mut iterations = 0;
    let gain = match engine {
        GainEngine::Renewal(order) => {
            let gain = optimal_gain(
                compiled,
                order,
                exp_reward,
                &mut h,
                &mut h_next,
                &mut policy,
                &opts.budget,
                &mut iterations,
            )?;
            // The passes left the policy's cycle rewards R in `h` and
            // lengths L in `h_next`. Its bias is R − g·L; state 0's entries
            // of R and L are zero, so h[0] = 0.
            for (r, l) in h.iter_mut().zip(&h_next) {
                *r -= gain * l;
            }
            gain
        }
        GainEngine::Rvi => rvi_probe(
            compiled,
            ArmRewards::plain(exp_reward),
            &mut Vec::new(),
            &mut h,
            &mut h_next,
            &mut policy,
            opts,
            &mut iterations,
        )?,
    };
    Ok(RviSolution { gain, bias: h, policy, iterations, engine: engine.kind() })
}

/// Name the budget and error paths report for this solver.
const SOLVER: &str = "relative_value_iteration";

/// The engine of a model's average-reward solves, chosen once per solve
/// from the model's structure (see the module docs). Plain gain solves and
/// the ratio solver both dispatch on it.
pub(crate) enum GainEngine<'m> {
    /// State 0 is a regeneration state: exact DP passes in this order, the
    /// model's memoized one.
    Renewal(&'m [u32]),
    /// Some cycle avoids state 0: the RVI kernel.
    Rvi,
}

impl<'m> GainEngine<'m> {
    /// Validates the options both engines share — `aperiodicity_tau` in
    /// `[0, 1)`, a warm start of one entry per state — and picks the engine.
    pub(crate) fn select(compiled: &'m CompiledMdp, opts: &RviOptions) -> Result<Self, MdpError> {
        let tau = opts.aperiodicity_tau;
        if !(0.0..1.0).contains(&tau) {
            return Err(MdpError::BadOption { what: "aperiodicity_tau", value: tau });
        }
        let n = compiled.num_states();
        if let Some(w) = &opts.warm_start {
            if w.len() != n {
                return Err(MdpError::Shape { what: "warm start", found: w.len(), expected: n });
            }
        }
        Ok(match regeneration_order(compiled) {
            Ok(order) => GainEngine::Renewal(order),
            Err(_) => GainEngine::Rvi,
        })
    }

    /// The engine's name in solutions and reports.
    pub(crate) fn kind(&self) -> ProbeEngine {
        match self {
            GainEngine::Renewal(_) => ProbeEngine::Renewal,
            GainEngine::Rvi => ProbeEngine::Rvi,
        }
    }
}

/// Per-arm expected rewards `num[a] − rho · den[a]` of one RVI solve: a
/// Dinkelbach step's, or a gain solve's with [`ArmRewards::plain`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArmRewards<'a> {
    /// Expected numerator reward per arm.
    pub num: &'a [f64],
    /// Expected denominator reward per arm.
    pub den: &'a [f64],
    /// The step's ρ; 0 for a gain solve.
    pub rho: f64,
}

impl<'a> ArmRewards<'a> {
    /// The plain per-arm rewards of a gain solve: `r − 0·r` is exactly `r`
    /// for every finite `r`.
    fn plain(exp_reward: &'a [f64]) -> Self {
        ArmRewards { num: exp_reward, den: exp_reward, rho: 0.0 }
    }
}

/// The optimal gain of `rewards` by the RVI kernel, in the caller's
/// buffers: combines the rewards into `exp_w` (resized to one entry per
/// arm), warm-starts from the bias in `h` and leaves the final bias there,
/// and a gain-optimal policy in `policy`; `h_next` is scratch. `h`,
/// `h_next` and `policy` hold one entry per state. Adds the sweeps run to
/// `work`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rvi_probe(
    compiled: &CompiledMdp,
    rewards: ArmRewards<'_>,
    exp_w: &mut Vec<f64>,
    h: &mut Vec<f64>,
    h_next: &mut Vec<f64>,
    policy: &mut Policy,
    opts: &RviOptions,
    work: &mut usize,
) -> Result<f64, MdpError> {
    exp_w.resize(compiled.num_arms(), 0.0);
    CompiledMdp::combine_scalarized_into(rewards.num, rewards.den, rewards.rho, exp_w);
    let (gain, sweeps) = rvi_kernel(compiled, exp_w, h, h_next, policy, opts)?;
    *work += sweeps;
    Ok(gain)
}

/// The allocation-light RVI core: runs single-threaded Jacobi Bellman
/// sweeps inside the caller-owned buffers `h` (bias in/out — pre-fill for a
/// warm start), `h_next` (scratch) and `policy` (out). All three must have
/// one entry per state; `exp_reward` one entry per global arm, and `opts`
/// is already validated ([`GainEngine::select`]). On success `h` holds the
/// final bias normalized to `h[0] == 0`.
///
/// `opts.warm_start` is ignored here — the warm start *is* the incoming
/// content of `h`.
fn rvi_kernel(
    compiled: &CompiledMdp,
    exp_reward: &[f64],
    h: &mut Vec<f64>,
    h_next: &mut Vec<f64>,
    policy: &mut Policy,
    opts: &RviOptions,
) -> Result<(f64, usize), MdpError> {
    let n = compiled.num_states();
    for (what, found, expected) in [
        ("bias buffer", h.len(), n),
        ("scratch buffer", h_next.len(), n),
        ("policy buffer", policy.choices.len(), n),
    ] {
        if found != expected {
            return Err(MdpError::Shape { what, found, expected });
        }
    }

    let tau = opts.aperiodicity_tau;
    let one_minus_tau = 1.0 - tau;
    let (arm_offsets, tr_offsets) = compiled.raw_offsets();
    let (next, prob) = (compiled.raw_next(), compiled.raw_prob());

    // Span seminorm of the last completed sweep, rescaled to the caller's
    // (untransformed) reward units so it compares directly to `tolerance`.
    let mut last_residual = f64::INFINITY;
    for iter in 0..opts.max_iterations {
        opts.budget.check(SOLVER, iter)?;
        // State 0 first: its raw value is the normalization offset, which
        // lets the offset subtraction fuse into the sweep instead of
        // costing a second pass over `h_next`.
        let (best0, arm0, d0) = bellman_state(
            0,
            h,
            arm_offsets,
            tr_offsets,
            next,
            prob,
            exp_reward,
            tau,
            one_minus_tau,
        );
        // `best0` is finite (validated model), so subtracting it from
        // itself is exactly +0.0.
        h_next[0] = 0.0;
        policy.choices[0] = arm0;
        let mut span_lo = d0;
        let mut span_hi = d0;
        for (s, h_out) in h_next.iter_mut().enumerate().skip(1) {
            let (best, arm, d) = bellman_state(
                s,
                h,
                arm_offsets,
                tr_offsets,
                next,
                prob,
                exp_reward,
                tau,
                one_minus_tau,
            );
            *h_out = best - best0;
            policy.choices[s] = arm;
            span_lo = span_lo.min(d);
            span_hi = span_hi.max(d);
        }
        std::mem::swap(h, h_next);

        last_residual = (span_hi - span_lo) / one_minus_tau;
        if span_hi - span_lo < opts.tolerance * one_minus_tau {
            // The per-step gain of the *transformed* chain lies in
            // [span_lo, span_hi]; undo the (1 - tau) reward scaling.
            let gain = 0.5 * (span_lo + span_hi) / one_minus_tau;
            return Ok((gain, iter + 1));
        }
    }
    Err(MdpError::NoConvergence {
        solver: SOLVER,
        iterations: opts.max_iterations,
        residual: last_residual,
    })
}

/// One Bellman backup of state `s` against the bias iterate `src`: returns
/// `(best, best_arm, diff)` — the blended optimal value, the local index of
/// an arm attaining it (first wins ties), and `best - src[s]` (the span
/// contribution).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn bellman_state(
    s: usize,
    src: &[f64],
    arm_offsets: &[u32],
    tr_offsets: &[u32],
    next: &[u32],
    prob: &[f64],
    exp_reward: &[f64],
    tau: f64,
    one_minus_tau: f64,
) -> (f64, usize, f64) {
    let hs = src[s];
    // Aperiodicity transform, hoisted: `tau * h[s]` is shared by every arm.
    let blend = tau * hs;
    let a0 = arm_offsets[s] as usize;
    let a1 = arm_offsets[s + 1] as usize;
    let mut best = f64::NEG_INFINITY;
    let mut best_arm = 0usize;
    let mut t0 = tr_offsets[a0] as usize;
    for arm in a0..a1 {
        let t1 = tr_offsets[arm + 1] as usize;
        let mut acc = exp_reward[arm];
        // Transition-major streaming over the flat prob/next arrays, in CSR
        // order — the same serial accumulation the reference solver
        // performs, so near-tie argmax decisions cannot drift between the
        // compiled and reference paths.
        for (p, &to) in prob[t0..t1].iter().zip(&next[t0..t1]) {
            acc += p * src[to as usize];
        }
        t0 = t1;
        let q = one_minus_tau * acc + blend;
        // Strict `>` keeps first-wins ties, matching the reference solver.
        if q > best {
            best = q;
            best_arm = arm - a0;
        }
    }
    (best, best_arm, best - hs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Mdp, Transition};

    fn solve(m: &Mdp, w: Vec<f64>) -> RviSolution {
        relative_value_iteration(&CompiledMdp::of(m), &Objective::new(w), &RviOptions::default())
            .unwrap()
    }

    /// State 0 steps to state 1 (reward 1), which loops on itself or returns
    /// (reward 3 either way): the self-loop is a cycle avoiding state 0, so
    /// solves of this model run the RVI kernel. Gain 1/3 · 1 + 2/3 · 3 = 7/3.
    fn cyclic_pair() -> Mdp {
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![1.0])]);
        m.add_action(
            b,
            0,
            vec![Transition::new(b, 0.5, vec![3.0]), Transition::new(a, 0.5, vec![3.0])],
        );
        m
    }

    #[test]
    fn self_loop_gain_is_reward() {
        let mut m = Mdp::new(1);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![3.5])]);
        let sol = solve(&m, vec![1.0]);
        assert!((sol.gain - 3.5).abs() < 1e-6, "gain {}", sol.gain);
    }

    /// State 0 steps into the deterministic 2-cycle 1 → 2 → 1 with rewards
    /// 1 and 3 (gain 2). The cycle avoids state 0, so the solve runs the RVI
    /// kernel.
    fn periodic_chain() -> Mdp {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..3).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[2], 1.0, vec![1.0])]);
        m.add_action(s[2], 0, vec![Transition::new(s[1], 1.0, vec![3.0])]);
        m
    }

    /// Without the aperiodicity transform plain RVI oscillates on the
    /// period-2 cycle of [`periodic_chain`] (its span stays 2); with it the
    /// kernel converges to the gain.
    #[test]
    fn periodic_two_cycle_converges() {
        let m = periodic_chain();
        let sol = solve(&m, vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Rvi);
        assert!((sol.gain - 2.0).abs() < 1e-6, "gain {}", sol.gain);

        let plain =
            RviOptions { aperiodicity_tau: 0.0, max_iterations: 1000, ..Default::default() };
        match relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &plain) {
            Err(MdpError::NoConvergence { residual, .. }) => assert_eq!(residual, 2.0),
            other => panic!("expected NoConvergence, got {other:?}"),
        }

        // The same cycle through state 0 (0 → 1 → 0) is regenerative: the
        // renewal engine solves it exactly, transform or not.
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![1.0])]);
        m.add_action(b, 0, vec![Transition::new(a, 1.0, vec![3.0])]);
        let sol = solve(&m, vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Renewal);
        assert_eq!(sol.gain, 2.0);
    }

    /// From state 1, a choice between a 1-reward self-loop and entering a
    /// 2-cycle with average 2.5: the optimal policy takes the cycle. Both
    /// cycles avoid state 0, so the solve runs the RVI kernel.
    #[test]
    fn prefers_higher_average_cycle() {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..3).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[1], 1.0, vec![1.0])]);
        m.add_action(s[1], 1, vec![Transition::new(s[2], 1.0, vec![2.0])]);
        m.add_action(s[2], 0, vec![Transition::new(s[1], 1.0, vec![3.0])]);
        let sol = solve(&m, vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Rvi);
        assert_eq!(sol.policy.choices[s[1]], 1);
        assert!((sol.gain - 2.5).abs() < 1e-6, "gain {}", sol.gain);
    }

    /// On a regenerative model the solve runs the renewal engine: the exact
    /// gain, and the bias `R − g·L` of the policy (here the 2-cycle through
    /// state 0, `R(c) = 3`, `L(c) = 1`), which solves the average-reward
    /// equations `g + h(s) = r + h(next)`.
    #[test]
    fn regenerative_model_solves_exactly_by_renewal() {
        let mut m = Mdp::new(1);
        let s = m.add_state();
        let c = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0])]);
        m.add_action(s, 1, vec![Transition::new(c, 1.0, vec![2.0])]);
        m.add_action(c, 0, vec![Transition::new(s, 1.0, vec![3.0])]);
        let sol = solve(&m, vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Renewal);
        assert_eq!(sol.gain, 2.5);
        assert_eq!(sol.policy.choices, vec![1, 0]);
        assert_eq!(sol.bias, vec![0.0, 0.5]);
        // Evaluate the self-loop, step to the cycle, confirm it.
        assert_eq!(sol.iterations, 3);

        // A cycle avoiding state 0 keeps the RVI kernel.
        let sol = solve(&cyclic_pair(), vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Rvi);
        assert!((sol.gain - 7.0 / 3.0).abs() < 1e-6, "gain {}", sol.gain);
    }

    /// Two-state chain with symmetric switching: stationary distribution is
    /// (2/3, 1/3) for leave-probabilities (0.1, 0.2); gain = 2/3*r_a + 1/3*r_b
    /// with per-state rewards attached to outgoing transitions.
    #[test]
    fn stochastic_chain_gain_matches_stationary_average() {
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(
            a,
            0,
            vec![Transition::new(a, 0.9, vec![6.0]), Transition::new(b, 0.1, vec![6.0])],
        );
        m.add_action(
            b,
            0,
            vec![Transition::new(b, 0.8, vec![0.0]), Transition::new(a, 0.2, vec![0.0])],
        );
        let sol = solve(&m, vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Rvi);
        assert!((sol.gain - 4.0).abs() < 1e-5, "gain {}", sol.gain);
    }

    #[test]
    fn vector_rewards_scalarized_by_objective() {
        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0, 10.0])]);
        let sol = solve(&m, vec![0.0, 1.0]);
        assert!((sol.gain - 10.0).abs() < 1e-6);
        let sol = solve(&m, vec![1.0, -0.5]);
        assert!((sol.gain + 4.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_accepted_and_converges() {
        let m = cyclic_pair();
        let cold = solve(&m, vec![1.0]);
        let opts = RviOptions { warm_start: Some(cold.bias.clone()), ..Default::default() };
        let warm =
            relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &opts)
                .unwrap();
        assert_eq!(warm.engine, ProbeEngine::Rvi);
        assert!((warm.gain - 7.0 / 3.0).abs() < 1e-6);
        assert!(warm.iterations <= cold.iterations);
    }

    /// The kernel's bias is normalized to `h[0] = 0` and, the transform
    /// leaving it unscaled, solves `g + h(s) = r + h(next)` on
    /// [`periodic_chain`]: `h = [0, 2, 3]`.
    #[test]
    fn bias_is_normalized_to_reference_state() {
        let sol = solve(&periodic_chain(), vec![1.0]);
        assert_eq!(sol.engine, ProbeEngine::Rvi);
        assert_eq!(sol.bias[0], 0.0);
        for (h, want) in sol.bias.iter().zip([0.0, 2.0, 3.0]) {
            assert!((h - want).abs() < 1e-5, "bias {:?}", sol.bias);
        }
    }

    /// A one-state self-loop (renewal engine) and [`cyclic_pair`] (RVI).
    fn one_model_per_engine() -> [Mdp; 2] {
        let mut m = Mdp::new(1);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0])]);
        [m, cyclic_pair()]
    }

    /// Wrong-length warm starts and per-arm rewards are shape errors on both
    /// engines.
    #[test]
    fn wrong_length_warm_start_is_a_shape_error() {
        for m in one_model_per_engine() {
            let n = m.num_states();
            let opts = RviOptions { warm_start: Some(vec![0.0; 5]), ..Default::default() };
            let err =
                relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &opts)
                    .unwrap_err();
            assert_eq!(err, MdpError::Shape { what: "warm start", found: 5, expected: n });

            let compiled = CompiledMdp::compile(&m).unwrap();
            let err =
                relative_value_iteration_compiled(&compiled, &[0.0; 7], &RviOptions::default())
                    .unwrap_err();
            assert_eq!(err, MdpError::Shape { what: "exp_reward", found: 7, expected: n });
        }
    }

    #[test]
    fn bad_tau_is_a_structured_error() {
        for m in one_model_per_engine() {
            for tau in [-0.1, 1.0, 1.5, f64::NAN] {
                let opts = RviOptions { aperiodicity_tau: tau, ..Default::default() };
                let err = relative_value_iteration(
                    &CompiledMdp::of(&m),
                    &Objective::new(vec![1.0]),
                    &opts,
                )
                .unwrap_err();
                assert!(
                    matches!(err, MdpError::BadOption { what: "aperiodicity_tau", .. }),
                    "tau={tau}: {err:?}"
                );
            }
        }
    }

    /// Exhausting the iteration budget reports the actual span-seminorm
    /// residual, not NaN (the failure message reports it).
    #[test]
    fn no_convergence_carries_finite_residual() {
        let m = cyclic_pair();
        let opts = RviOptions { max_iterations: 3, ..Default::default() };
        let err = relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &opts)
            .unwrap_err();
        match err {
            MdpError::NoConvergence { iterations, residual, .. } => {
                assert_eq!(iterations, 3);
                assert!(residual.is_finite() && residual > 0.0, "residual {residual}");
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn pre_expired_deadline_stops_the_solve() {
        for m in one_model_per_engine() {
            let opts = RviOptions {
                budget: SolveBudget::with_timeout(std::time::Duration::ZERO),
                ..Default::default()
            };
            std::thread::sleep(std::time::Duration::from_millis(2));
            let err =
                relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &opts)
                    .unwrap_err();
            assert!(matches!(err, MdpError::DeadlineExceeded { .. }), "{err:?}");
        }
    }

    #[test]
    fn raised_cancel_flag_stops_the_solve() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        for m in one_model_per_engine() {
            let flag = Arc::new(AtomicBool::new(true));
            let opts = RviOptions {
                budget: SolveBudget::unlimited().with_cancel(flag),
                ..Default::default()
            };
            let err =
                relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &opts)
                    .unwrap_err();
            assert!(err.is_cancellation(), "{err:?}");
        }
    }

    /// The compiled entry point solves the same model under two objectives
    /// without recompiling, and agrees with the front-door call.
    #[test]
    fn compiled_entry_point_reuses_model() {
        let mut m = Mdp::new(2);
        let s = m.add_state();
        let c = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0, 0.0])]);
        m.add_action(s, 1, vec![Transition::new(c, 1.0, vec![2.0, 1.0])]);
        m.add_action(c, 0, vec![Transition::new(s, 1.0, vec![3.0, 0.5])]);
        let compiled = CompiledMdp::compile(&m).unwrap();
        let opts = RviOptions::default();
        for weights in [vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, -2.0]] {
            let obj = Objective::new(weights);
            let exp = compiled.scalarize(&obj);
            let fast = relative_value_iteration_compiled(&compiled, &exp, &opts).unwrap();
            let front = relative_value_iteration(&CompiledMdp::of(&m), &obj, &opts).unwrap();
            assert!((fast.gain - front.gain).abs() < 1e-12);
            assert_eq!(fast.policy, front.policy);
        }
    }
}
