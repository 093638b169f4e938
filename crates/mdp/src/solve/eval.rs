//! Evaluation of a *fixed* policy: stationary distribution and long-run
//! accumulation rate of every reward component.
//!
//! Used to report all of the paper's utility functions (`u1`, `u2`, `u3`)
//! for a single optimal policy, and to cross-check optimizing solvers: the
//! gain reported by [`crate::solve::rvi`] must equal the scalarized
//! component rates of the policy it returns.
//!
//! [`evaluate_policy`] dispatches once on
//! [`regeneration_order`], like the gain and ratio solves:
//!
//! * On a regenerative model (every BU model) one forward pass in that
//!   order gives each state's expected visits per cycle from state 0, and
//!   by the renewal-reward theorem the stationary law is those visits over
//!   their sum, the expected cycle length. The law and the rates are exact
//!   up to rounding.
//! * Otherwise (the Bitcoin models, the random test models) the law comes
//!   from a damped power method run until the L1 change of the iterate
//!   falls below `TOLERANCE` (1e-12). That bounds the step, not the error,
//!   so these rates are only accurate to about the tolerance over the
//!   chain's spectral gap.
//!
//! Both paths share one rate loop over the per-arm expected component
//! rewards ([`CompiledMdp::expected_component_rewards`]).

use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::Policy;
use crate::solve::renewal::regeneration_order;

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
    /// Passes over the states: 1 for the exact pass, else the power
    /// method's iterations.
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
    /// damped power method can leave on unreachable states — count as
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
/// of the Markov chain induced by `policy`: exactly on a regenerative model,
/// else by the damped power method (see the module docs).
///
/// The chain is assumed unichain (single recurrent class); the paper's
/// models satisfy this because every strategy returns to the base state in a
/// bounded number of steps.
pub fn evaluate_policy(
    compiled: &CompiledMdp,
    policy: &Policy,
) -> Result<PolicyEvaluation, MdpError> {
    compiled.validate_policy(policy)?;
    let n = compiled.num_states();
    // Resolve the policy to one global arm per state, once.
    let chosen: Vec<usize> = (0..n).map(|s| compiled.policy_arm(policy, s)).collect();

    let (mut pi, iterations) = match regeneration_order(compiled) {
        Ok(order) => (cycle_visits(compiled, order, &chosen), 1),
        Err(_) => power_method(compiled, &chosen)?,
    };
    // Visits per cycle to a law, or renormalize the power method's iterate
    // against accumulated floating-point drift.
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

/// The expected visits to every state in one cycle from state 0 back to it
/// (state 0's own is 1), on a model with regeneration order `order`: one
/// forward pass, since each state's visits only come from states before it
/// and a return to state 0 ends the cycle.
fn cycle_visits(compiled: &CompiledMdp, order: &[u32], chosen: &[usize]) -> Vec<f64> {
    let mut visits = vec![0.0f64; compiled.num_states()];
    visits[0] = 1.0;
    for &s in order {
        let mass = visits[s as usize];
        if mass <= 0.0 {
            continue;
        }
        let (probs, nexts) = compiled.arm_transitions(chosen[s as usize]);
        for (p, &to) in probs.iter().zip(nexts) {
            if to != 0 {
                visits[to as usize] += mass * p;
            }
        }
    }
    visits
}

/// The damped power method from the uniform law, scattering mass along the
/// chosen arms' flat transition slices; returns the last iterate and the
/// iterations it took.
fn power_method(compiled: &CompiledMdp, chosen: &[usize]) -> Result<(Vec<f64>, usize), MdpError> {
    let n = compiled.num_states();
    let mut pi = vec![1.0 / n as f64; n];
    let mut pi_next = vec![0.0f64; n];
    let d = DAMPING;
    let mut delta = f64::INFINITY;
    for iter in 1..=MAX_ITERATIONS {
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
        delta = pi.iter().zip(&pi_next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut pi, &mut pi_next);
        if delta < TOLERANCE {
            return Ok((pi, iter));
        }
    }
    Err(MdpError::NoConvergence {
        solver: "evaluate_policy",
        iterations: MAX_ITERATIONS,
        residual: delta,
    })
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

    /// The cycle 1 → 2 → 1 avoids state 0, so the power method runs; the
    /// damping makes it converge on the periodic chain.
    #[test]
    fn periodic_chain_converges_with_damping() {
        let mut m = Mdp::new(1);
        let s: Vec<_> = (0..3).map(|_| m.add_state()).collect();
        m.add_action(s[0], 0, vec![Transition::new(s[1], 1.0, vec![0.0])]);
        m.add_action(s[1], 0, vec![Transition::new(s[2], 1.0, vec![1.0])]);
        m.add_action(s[2], 0, vec![Transition::new(s[1], 1.0, vec![3.0])]);
        let ev = evaluate_policy(&CompiledMdp::of(&m), &Policy::zeros(3)).unwrap();
        assert!(ev.iterations > 1);
        assert!((ev.component_rates[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let mut m = Mdp::new(2);
        let s = m.add_state();
        m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![0.0, 0.0])]);
        let ev = evaluate_policy(&CompiledMdp::of(&m), &Policy::zeros(1)).unwrap();
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
        let sol =
            relative_value_iteration(&CompiledMdp::of(&m), &obj, &RviOptions::default()).unwrap();
        let ev = evaluate_policy(&CompiledMdp::of(&m), &sol.policy).unwrap();
        assert!((ev.rate(&obj.weights) - sol.gain).abs() < 1e-6);
    }
}
