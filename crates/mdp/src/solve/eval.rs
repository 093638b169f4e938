//! Evaluation of a *fixed* policy: stationary distribution and long-run
//! accumulation rate of every reward component.
//!
//! Used to report all of the paper's utility functions (`u1`, `u2`, `u3`)
//! for a single optimal policy, and to cross-check optimizing solvers: the
//! gain reported by [`crate::solve::rvi`] must equal the scalarized
//! component rates of the policy it returns.
//!
//! The stationary distribution comes from a damped power method run until
//! the L1 change of the iterate falls below `TOLERANCE` (1e-12), so the
//! rates are accurate to about that tolerance, not exact.
//!
//! Not sharded across threads (unlike the RVI kernel): the power-method
//! step `pi <- pi P` is a *scatter* — each state writes probability mass
//! to data-dependent successor indices — so per-thread output slices
//! would overlap. A gather formulation would need the transposed chain,
//! which [`CompiledMdp`] does not store. Policy evaluation runs once per
//! reported cell, so its cost is immaterial next to the solve.

use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::{Mdp, Policy};

/// The power method stops when the L1 change of the stationary iterate
/// falls below this.
pub(crate) const TOLERANCE: f64 = 1e-12;
/// Iteration budget of the power method.
pub(crate) const MAX_ITERATIONS: usize = 5_000_000;
/// Damping weight: each step applies `pi <- (1-d) * pi P + d * pi`, the
/// aperiodicity transform for Markov chains.
pub(crate) const DAMPING: f64 = 0.05;

/// Result of [`evaluate_policy`].
#[derive(Debug, Clone)]
pub struct PolicyEvaluation {
    /// Stationary distribution of the policy-induced Markov chain
    /// (unichain assumed; this is the chain's unique stationary law).
    pub stationary: Vec<f64>,
    /// Long-run average accumulation per step of every reward component.
    pub component_rates: Vec<f64>,
    /// Iterations performed by the power method.
    pub iterations: usize,
}

impl PolicyEvaluation {
    /// Scalarizes the component rates with arbitrary weights — the gain of
    /// the policy under that objective.
    pub fn rate(&self, weights: &[f64]) -> f64 {
        self.component_rates.iter().zip(weights).map(|(r, w)| r * w).sum()
    }

    /// Convenience: the ratio of two linear functionals of the rates, with
    /// `0/0` defined as `0` (the convention for "never attacks" policies).
    /// Denominator rates below `1e-9` — far under anything meaningful for
    /// per-step rates but comfortably above the transient residue the
    /// damped power iteration can leave on unreachable states — count as
    /// zero.
    pub fn ratio(&self, num_weights: &[f64], den_weights: &[f64]) -> f64 {
        let n = self.rate(num_weights);
        let d = self.rate(den_weights);
        if d.abs() < 1e-9 {
            0.0
        } else {
            n / d
        }
    }
}

/// Computes the stationary distribution and per-component accumulation rates
/// of the Markov chain induced by `policy`, by the damped power method (see
/// the module docs for its accuracy).
///
/// The chain is assumed unichain (single recurrent class); the paper's
/// models satisfy this because every strategy returns to the base state in a
/// bounded number of steps.
pub fn evaluate_policy(mdp: &Mdp, policy: &Policy) -> Result<PolicyEvaluation, MdpError> {
    let compiled = CompiledMdp::compile(mdp)?;
    evaluate_policy_compiled(&compiled, policy)
}

/// [`evaluate_policy`] on an already-compiled model. The power-method sweep
/// scatters mass along the chosen arm's flat transition slices; component
/// rates come from the per-arm expected component rewards
/// ([`CompiledMdp::expected_component_rewards`]) instead of re-walking
/// per-transition reward vectors.
pub fn evaluate_policy_compiled(
    compiled: &CompiledMdp,
    policy: &Policy,
) -> Result<PolicyEvaluation, MdpError> {
    compiled.validate_policy(policy)?;

    let n = compiled.num_states();
    let mut pi = vec![1.0 / n as f64; n];
    let mut pi_next = vec![0.0f64; n];
    let d = DAMPING;

    // Resolve the policy to one global arm per state, once.
    let chosen: Vec<usize> = (0..n).map(|s| compiled.policy_arm(policy, s)).collect();

    let mut iterations = 0;
    for iter in 0..MAX_ITERATIONS {
        iterations = iter + 1;
        for x in pi_next.iter_mut() {
            *x = 0.0;
        }
        for s in 0..n {
            let mass = pi[s];
            if mass <= 0.0 {
                continue;
            }
            let (probs, nexts) = compiled.arm_transitions(chosen[s]);
            let spread = (1.0 - d) * mass;
            for (p, &to) in probs.iter().zip(nexts) {
                pi_next[to as usize] += spread * p;
            }
            pi_next[s] += d * mass;
        }
        let delta: f64 = pi.iter().zip(&pi_next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut pi_next);
        if delta < TOLERANCE {
            break;
        }
        if iter + 1 == MAX_ITERATIONS {
            return Err(MdpError::NoConvergence {
                solver: "evaluate_policy",
                iterations: MAX_ITERATIONS,
                residual: delta,
            });
        }
    }

    // Renormalize against accumulated floating-point drift.
    let total: f64 = pi.iter().sum();
    for x in pi.iter_mut() {
        *x /= total;
    }

    let k = compiled.reward_components();
    let exp_comp = compiled.expected_component_rewards();
    let mut rates = vec![0.0f64; k];
    for s in 0..n {
        let arm = chosen[s];
        let mass = pi[s];
        for (rate, e) in rates.iter_mut().zip(&exp_comp[arm * k..(arm + 1) * k]) {
            *rate += mass * e;
        }
    }

    Ok(PolicyEvaluation { stationary: pi, component_rates: rates, iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Objective, Transition};
    use crate::solve::rvi::{relative_value_iteration, RviOptions};

    #[test]
    fn two_state_stationary_distribution() {
        // Leave probabilities 0.1 from a, 0.2 from b => pi = (2/3, 1/3).
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(
            a,
            0,
            vec![Transition::new(a, 0.9, vec![1.0]), Transition::new(b, 0.1, vec![1.0])],
        );
        m.add_action(
            b,
            0,
            vec![Transition::new(b, 0.8, vec![0.0]), Transition::new(a, 0.2, vec![0.0])],
        );
        let ev = evaluate_policy(&m, &Policy::zeros(2)).unwrap();
        assert!((ev.stationary[a] - 2.0 / 3.0).abs() < 1e-9);
        assert!((ev.stationary[b] - 1.0 / 3.0).abs() < 1e-9);
        assert!((ev.component_rates[0] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn periodic_chain_converges_with_damping() {
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![1.0])]);
        m.add_action(b, 0, vec![Transition::new(a, 1.0, vec![3.0])]);
        let ev = evaluate_policy(&m, &Policy::zeros(2)).unwrap();
        assert!((ev.component_rates[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![0.0, 0.0])]);
        let ev = evaluate_policy(&m, &Policy::zeros(1)).unwrap();
        assert_eq!(ev.ratio(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
    }

    /// The rate of the RVI-optimal policy must equal the RVI gain.
    #[test]
    fn agrees_with_rvi_gain() {
        let mut m = Mdp::new(1);
        let s = m.add_state();
        let c = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0])]);
        m.add_action(s, 1, vec![Transition::new(c, 1.0, vec![2.0])]);
        m.add_action(c, 0, vec![Transition::new(s, 1.0, vec![3.0])]);
        let obj = Objective::new(vec![1.0]);
        let sol = relative_value_iteration(&m, &obj, &RviOptions::default()).unwrap();
        let ev = evaluate_policy(&m, &sol.policy).unwrap();
        assert!((ev.rate(&obj.weights) - sol.gain).abs() < 1e-6);
    }
}
