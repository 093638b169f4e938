//! Average-reward (gain-optimal) solving of undiscounted MDPs, exactly.
//!
//! The paper's mining models are unichain average-reward MDPs
//! ("undiscounted average reward MDP" per Sapirshtein et al.), where the
//! quantity of interest is the long-run expected reward per step (the
//! *gain*).
//!
//! [`relative_value_iteration_compiled`] (and so
//! [`relative_value_iteration`]) solves every model by the
//! [`renewal`](crate::solve::renewal) passes over its regeneration set:
//! Dinkelbach's loop over one cycle from state 0 on the BU models, where
//! state 0 (`BASE`) alone is that set, and Howard's policy iteration with
//! an LU evaluation per step on the others (the Bitcoin baselines, random
//! test models). Either way it returns the exact gain, an optimal policy
//! and that policy's bias. The names are historical: no relative value
//! iteration runs here; the plain RVI of
//! [`reference`](crate::solve::reference) is kept as the test oracle.
//!
//! Wrong-length rewards or warm starts are [`MdpError::Shape`] errors; the
//! budget and cancellation are checked once per pass.

use crate::budget::SolveBudget;
use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::{Objective, Policy};
use crate::solve::renewal::Passes;

/// Options for [`relative_value_iteration`].
#[derive(Debug, Clone)]
pub struct RviOptions {
    /// Retired: every solve is exact. Read by the reference RVI
    /// ([`crate::solve::reference`]) only.
    pub tolerance: f64,
    /// Retired: every solve ends in finitely many passes. Read by the
    /// reference RVI only.
    pub max_iterations: usize,
    /// Retired: no solve runs the aperiodicity transform. Read by the
    /// reference RVI only.
    pub aperiodicity_tau: f64,
    /// An initial bias vector for the reference RVI; production solves only
    /// check that it has one entry per state.
    pub warm_start: Option<Vec<f64>>,
    /// Wall-clock deadline and cooperative cancellation, checked at each
    /// pass. Unlimited by default.
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
    /// The returned policy's relative (bias) values, normalized so
    /// `bias[0] == 0`: they solve `g + h(s) = r(s, π(s)) + Σ p·h`.
    pub bias: Vec<f64>,
    /// A gain-optimal policy.
    pub policy: Policy,
    /// Work performed: backward passes and LU evaluations.
    pub iterations: usize,
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
    check_warm_start(compiled, opts)?;
    let mut policy = Policy::zeros(compiled.num_states());
    let mut passes = Passes::new(compiled, &opts.budget);
    let (gain, bias) = passes.optimal_gain(exp_reward, &mut policy)?;
    Ok(RviSolution { gain, bias, policy, iterations: passes.count })
}

/// A warm start, when given, must have one entry per state.
pub(crate) fn check_warm_start(compiled: &CompiledMdp, opts: &RviOptions) -> Result<(), MdpError> {
    let n = compiled.num_states();
    match &opts.warm_start {
        Some(w) if w.len() != n => {
            Err(MdpError::Shape { what: "warm start", found: w.len(), expected: n })
        }
        _ => Ok(()),
    }
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
    /// the regeneration set is {0, 1}. Gain 1/3 · 1 + 2/3 · 3 = 7/3.
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
        assert_eq!(sol.gain, 3.5);
    }

    /// State 0 steps into the deterministic 2-cycle 1 → 2 → 1 with rewards
    /// 1 and 3 (gain 2). The cycle avoids state 0, so the regeneration set
    /// is {0, 1}.
    fn periodic_chain() -> Mdp {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..3).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[2], 1.0, vec![1.0])]);
        m.add_action(s[2], 0, vec![Transition::new(s[1], 1.0, vec![3.0])]);
        m
    }

    /// The period-2 cycle of [`periodic_chain`], on which plain RVI
    /// oscillates, needs no aperiodicity transform: the gain is exact.
    #[test]
    fn periodic_two_cycle_is_exact() {
        let sol = solve(&periodic_chain(), vec![1.0]);
        assert_eq!(sol.gain, 2.0);

        // The same cycle through state 0 (0 → 1 → 0): `S = {0}`.
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![1.0])]);
        m.add_action(b, 0, vec![Transition::new(a, 1.0, vec![3.0])]);
        let sol = solve(&m, vec![1.0]);
        assert_eq!(sol.gain, 2.0);
    }

    /// From state 1, a choice between a 1-reward self-loop and entering a
    /// 2-cycle with average 2.5: the optimal policy takes the cycle. Both
    /// cycles avoid state 0.
    #[test]
    fn prefers_higher_average_cycle() {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..3).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[1], 1.0, vec![1.0])]);
        m.add_action(s[1], 1, vec![Transition::new(s[2], 1.0, vec![2.0])]);
        m.add_action(s[2], 0, vec![Transition::new(s[1], 1.0, vec![3.0])]);
        let sol = solve(&m, vec![1.0]);
        assert_eq!(sol.policy.choices[s[1]], 1);
        assert_eq!(sol.gain, 2.5);
    }

    /// On a model with `S = {0}` the solve is renewal passes over one cycle:
    /// the exact gain, and the bias `R − g·L` of the policy (here the 2-cycle through
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
        assert_eq!(sol.gain, 2.5);
        assert_eq!(sol.policy.choices, vec![1, 0]);
        assert_eq!(sol.bias, vec![0.0, 0.5]);
        // Evaluate the self-loop, step to the cycle, confirm it.
        assert_eq!(sol.iterations, 3);

        // A cycle avoiding state 0: policy iteration on {0, 1}.
        let sol = solve(&cyclic_pair(), vec![1.0]);
        assert!((sol.gain - 7.0 / 3.0).abs() < 1e-15, "gain {}", sol.gain);
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
        assert!((sol.gain - 4.0).abs() < 1e-14, "gain {}", sol.gain);
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

    /// A correctly sized warm start is accepted and changes nothing.
    #[test]
    fn warm_start_is_accepted() {
        let m = cyclic_pair();
        let cold = solve(&m, vec![1.0]);
        let opts = RviOptions { warm_start: Some(cold.bias.clone()), ..Default::default() };
        let warm =
            relative_value_iteration(&CompiledMdp::of(&m), &Objective::new(vec![1.0]), &opts)
                .unwrap();
        assert_eq!(warm.gain, cold.gain);
        assert_eq!(warm.iterations, cold.iterations);
    }

    /// The bias is normalized to `h[0] = 0` and solves
    /// `g + h(s) = r + h(next)` on [`periodic_chain`]: `h = [0, 2, 3]`.
    #[test]
    fn bias_is_normalized_to_reference_state() {
        let sol = solve(&periodic_chain(), vec![1.0]);
        assert_eq!(sol.bias, vec![0.0, 2.0, 3.0]);
    }

    /// A one-state self-loop (`S = {0}`) and [`cyclic_pair`] (`S = {0, 1}`).
    fn one_model_per_set_kind() -> [Mdp; 2] {
        let mut m = Mdp::new(1);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0])]);
        [m, cyclic_pair()]
    }

    /// Wrong-length warm starts and per-arm rewards are shape errors on
    /// both kinds of set.
    #[test]
    fn wrong_length_warm_start_is_a_shape_error() {
        for m in one_model_per_set_kind() {
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
    fn pre_expired_deadline_stops_the_solve() {
        for m in one_model_per_set_kind() {
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
        for m in one_model_per_set_kind() {
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
