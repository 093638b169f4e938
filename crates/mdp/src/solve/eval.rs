//! Evaluation of a *fixed* policy: stationary distribution and long-run
//! accumulation rate of every reward component.
//!
//! Used to report all of the paper's utility functions (`u1`, `u2`, `u3`)
//! for a single optimal policy, and to cross-check optimizing solvers: the
//! gain reported by [`crate::solve::rvi`] must equal the scalarized
//! component rates of the policy it returns.
//!
//! [`evaluate_policy`] is exact on every model, by the
//! [`renewal`](crate::solve::renewal) passes over its regeneration set `S`:
//! the stationary law is the expected visits of every state per excursion
//! between entries into `S`, from one forward pass seeded with the embedded
//! chain's law on `S`, over their sum.
//!
//! * When state 0 alone is that set (every BU model), the seed is state 0
//!   itself and the pass is one cycle from state 0 back to it: the
//!   renewal-reward theorem.
//! * Otherwise (the Bitcoin models, random test models) one forward pass
//!   from each state of `S` gives the embedded chain, whose law an LU solve
//!   finds; a policy whose chain has more than one recurrent class is
//!   [`MdpError::MultichainPolicy`].
//!
//! The rates are one loop over the law and the per-arm expected component
//! rewards ([`CompiledMdp::expected_component_rewards`]).

use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::Policy;
use crate::solve::renewal::{chosen_arms, regeneration_set, stationary_law};

/// Result of [`evaluate_policy`].
#[derive(Debug, Clone)]
pub struct PolicyEvaluation {
    /// Stationary distribution of the policy-induced Markov chain
    /// (unichain; this is the chain's unique stationary law).
    pub stationary: Vec<f64>,
    /// Long-run average accumulation per step of every reward component.
    pub component_rates: Vec<f64>,
    /// Passes over the states: 1 when state 0 alone is a regeneration set,
    /// else one per state of the set and one for the law.
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
    /// per-step rates — count as zero. A zero rate need not come out as an
    /// exact zero: the law on a set larger than `{0}` is an LU solve's,
    /// which leaves rounding-level mass on states the chain never returns
    /// to, and the cut-off keeps such a residue from reading as a ratio.
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
/// of the Markov chain induced by `policy`, exactly (see the module docs).
///
/// The chain must be unichain (single recurrent class); the paper's models
/// satisfy this because every strategy returns to the base state in a
/// bounded number of steps. A multichain policy is
/// [`MdpError::MultichainPolicy`].
pub fn evaluate_policy(
    compiled: &CompiledMdp,
    policy: &Policy,
) -> Result<PolicyEvaluation, MdpError> {
    compiled.validate_policy(policy)?;
    let n = compiled.num_states();
    // Resolve the policy to one global arm per state, once.
    let chosen = chosen_arms(compiled, policy);
    let reg = regeneration_set(compiled);
    let pi = stationary_law(compiled, reg, &chosen)?;
    let iterations = match reg.set.len() {
        1 => 1,
        k => k + 1,
    };

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
    use crate::model::{Mdp, Objective, Transition};
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
        let ev = evaluate_policy(&CompiledMdp::of(&m), &Policy::zeros(2)).unwrap();
        assert!((ev.stationary[a] - 2.0 / 3.0).abs() < 1e-9);
        assert!((ev.stationary[b] - 1.0 / 3.0).abs() < 1e-9);
        assert!((ev.component_rates[0] - 2.0 / 3.0).abs() < 1e-9);
    }

    /// A two-state cycle through state 0 is regenerative: one exact pass.
    #[test]
    fn periodic_regenerative_chain_is_evaluated_exactly() {
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(b, 1.0, vec![1.0])]);
        m.add_action(b, 0, vec![Transition::new(a, 1.0, vec![3.0])]);
        let ev = evaluate_policy(&CompiledMdp::of(&m), &Policy::zeros(2)).unwrap();
        assert_eq!(ev.iterations, 1);
        assert_eq!(ev.stationary, vec![0.5, 0.5]);
        assert_eq!(ev.component_rates, vec![2.0]);
    }

    /// The cycle 1 → 2 → 1 avoids state 0, so the law comes from the
    /// 2 × 2 system on `S = {0, 1}`: exact on the periodic chain, state 0
    /// transient.
    #[test]
    fn periodic_chain_is_evaluated_exactly() {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..3).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[2], 1.0, vec![1.0])]);
        m.add_action(s[2], 0, vec![Transition::new(s[1], 1.0, vec![3.0])]);
        let ev = evaluate_policy(&CompiledMdp::of(&m), &Policy::zeros(3)).unwrap();
        assert_eq!(ev.iterations, 3);
        assert_eq!(ev.stationary, vec![0.0, 0.5, 0.5]);
        assert_eq!(ev.component_rates, vec![2.0]);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![0.0, 0.0])]);
        let ev = evaluate_policy(&CompiledMdp::of(&m), &Policy::zeros(1)).unwrap();
        assert_eq!(ev.ratio(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
    }

    /// The rate of the gain-optimal policy equals the gain.
    #[test]
    fn agrees_with_rvi_gain() {
        let mut m = Mdp::new(1);
        let s = m.add_state();
        let c = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![1.0])]);
        m.add_action(s, 1, vec![Transition::new(c, 1.0, vec![2.0])]);
        m.add_action(c, 0, vec![Transition::new(s, 1.0, vec![3.0])]);
        let obj = Objective::new(vec![1.0]);
        let sol =
            relative_value_iteration(&CompiledMdp::of(&m), &obj, &RviOptions::default()).unwrap();
        let ev = evaluate_policy(&CompiledMdp::of(&m), &sol.policy).unwrap();
        assert!((ev.rate(&obj.weights) - sol.gain).abs() < 1e-15);
    }
}
