//! Hitting analysis of the Markov chain induced by a fixed policy:
//! absorption probabilities and expected hitting times.
//!
//! Used by the attack analyses for questions the long-run averages do not
//! answer — e.g. *"with what probability does a fork reach length k before
//! resolving?"* or *"how many blocks pass, on average, before the attacker
//! opens a victim's sticky gate?"*.

use std::collections::HashSet;

use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::{Mdp, Policy, StateId};

/// Gauss–Seidel sweeps stop when the max-norm update falls below this.
const TOLERANCE: f64 = 1e-12;
/// Sweep budget of both hitting solvers.
const MAX_SWEEPS: usize = 1_000_000;

/// A membership mask over the `n` states for a caller-supplied id set;
/// an id outside the model is a [`MdpError::Shape`] error naming `what`.
fn state_mask(ids: &HashSet<StateId>, n: usize, what: &'static str) -> Result<Vec<bool>, MdpError> {
    let mut mask = vec![false; n];
    for &s in ids {
        *mask.get_mut(s).ok_or(MdpError::Shape { what, found: s, expected: n })? = true;
    }
    Ok(mask)
}

/// For every state, the probability that the chain induced by `policy`
/// reaches a state in `targets` before reaching one in `avoid`.
///
/// States in `targets` get probability 1, states in `avoid` get 0; from
/// anywhere else the standard first-step equations are solved by
/// Gauss–Seidel sweeps. States that can reach neither set keep value 0
/// (they never hit the target).
///
/// An id in either set that is not a state of the model is an
/// [`MdpError::Shape`] error.
pub fn hitting_probability(
    mdp: &Mdp,
    policy: &Policy,
    targets: &HashSet<StateId>,
    avoid: &HashSet<StateId>,
) -> Result<Vec<f64>, MdpError> {
    let compiled = CompiledMdp::compile(mdp)?;
    compiled.validate_policy(policy)?;
    let n = compiled.num_states();
    // Absorbing-state membership as flat masks: sweeps test a bool per state
    // instead of hashing into the sets.
    let is_target = state_mask(targets, n, "hitting target state")?;
    let is_avoid = state_mask(avoid, n, "hitting avoid state")?;
    let frozen: Vec<bool> = is_target.iter().zip(&is_avoid).map(|(&t, &a)| t || a).collect();
    let mut p: Vec<f64> = is_target.iter().map(|&t| if t { 1.0 } else { 0.0 }).collect();
    let chosen: Vec<usize> = (0..n).map(|s| compiled.policy_arm(policy, s)).collect();
    let mut last_delta = f64::INFINITY;
    for sweep in 0..MAX_SWEEPS {
        let mut delta = 0.0f64;
        for s in 0..n {
            if frozen[s] {
                continue;
            }
            let (probs, nexts) = compiled.arm_transitions(chosen[s]);
            let mut x = 0.0;
            for (pr, &to) in probs.iter().zip(nexts) {
                x += pr * p[to as usize];
            }
            delta = delta.max((x - p[s]).abs());
            p[s] = x;
        }
        last_delta = delta;
        if delta < TOLERANCE {
            return Ok(p);
        }
        if sweep + 1 == MAX_SWEEPS {
            break;
        }
    }
    Err(MdpError::NoConvergence {
        solver: "hitting_probability",
        iterations: MAX_SWEEPS,
        residual: last_delta,
    })
}

/// For every state, the expected number of steps until the chain induced
/// by `policy` first reaches a state in `targets`.
///
/// Returns [`MdpError::UnreachableTarget`] if some state cannot reach
/// `targets` at all (its expected time is infinite); callers should restrict
/// to models where the target set is reachable from everywhere, which holds
/// for the recurrent base states of the mining models.
///
/// A target id that is not a state of the model is an [`MdpError::Shape`]
/// error.
pub fn expected_hitting_time(
    mdp: &Mdp,
    policy: &Policy,
    targets: &HashSet<StateId>,
) -> Result<Vec<f64>, MdpError> {
    let compiled = CompiledMdp::compile(mdp)?;
    compiled.validate_policy(policy)?;
    let n = compiled.num_states();
    let is_target = state_mask(targets, n, "hitting target state")?;
    let chosen: Vec<usize> = (0..n).map(|s| compiled.policy_arm(policy, s)).collect();

    // Reachability pre-check: every state must reach the target set.
    let mut reaches = is_target.clone();
    loop {
        let mut changed = false;
        for s in 0..n {
            if reaches[s] {
                continue;
            }
            let (probs, nexts) = compiled.arm_transitions(chosen[s]);
            if probs.iter().zip(nexts).any(|(&p, &to)| reaches[to as usize] && p > 0.0) {
                reaches[s] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    if let Some(state) = reaches.iter().position(|&r| !r) {
        return Err(MdpError::UnreachableTarget { state });
    }

    let mut h = vec![0.0f64; n];
    let mut last_delta = f64::INFINITY;
    for sweep in 0..MAX_SWEEPS {
        let mut delta = 0.0f64;
        for s in 0..n {
            if is_target[s] {
                continue;
            }
            let (probs, nexts) = compiled.arm_transitions(chosen[s]);
            let mut x = 1.0;
            for (p, &to) in probs.iter().zip(nexts) {
                x += p * h[to as usize];
            }
            delta = delta.max((x - h[s]).abs());
            h[s] = x;
        }
        last_delta = delta;
        if delta < TOLERANCE {
            return Ok(h);
        }
        if sweep + 1 == MAX_SWEEPS {
            break;
        }
    }
    Err(MdpError::NoConvergence {
        solver: "expected_hitting_time",
        iterations: MAX_SWEEPS,
        residual: last_delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Transition;

    /// Gambler's ruin on {0..=N} with fair coin: P(hit N before 0 | start
    /// i) = i/N; expected absorption time = i (N − i).
    fn gamblers_ruin(n: usize, p_up: f64) -> Mdp {
        let mut m = Mdp::new(1);
        for _ in 0..=n {
            m.add_state();
        }
        for s in 0..=n {
            if s == 0 || s == n {
                m.add_action(s, 0, vec![Transition::new(s, 1.0, vec![0.0])]);
            } else {
                m.add_action(
                    s,
                    0,
                    vec![
                        Transition::new(s + 1, p_up, vec![0.0]),
                        Transition::new(s - 1, 1.0 - p_up, vec![0.0]),
                    ],
                );
            }
        }
        m
    }

    #[test]
    fn fair_gamblers_ruin_probabilities() {
        let n = 10;
        let m = gamblers_ruin(n, 0.5);
        let policy = Policy::zeros(n + 1);
        let targets: HashSet<_> = [n].into_iter().collect();
        let avoid: HashSet<_> = [0].into_iter().collect();
        let p = hitting_probability(&m, &policy, &targets, &avoid).unwrap();
        for (i, &pi) in p.iter().enumerate() {
            let expected = i as f64 / n as f64;
            assert!((pi - expected).abs() < 1e-9, "i={i}: {pi} vs {expected}");
        }
    }

    #[test]
    fn biased_gamblers_ruin_matches_closed_form() {
        let n = 8;
        let p_up = 0.6;
        let m = gamblers_ruin(n, p_up);
        let policy = Policy::zeros(n + 1);
        let targets: HashSet<_> = [n].into_iter().collect();
        let avoid: HashSet<_> = [0].into_iter().collect();
        let p = hitting_probability(&m, &policy, &targets, &avoid).unwrap();
        let r = (1.0 - p_up) / p_up;
        for (i, &pi) in p.iter().enumerate().take(n).skip(1) {
            let expected = (1.0 - r.powi(i as i32)) / (1.0 - r.powi(n as i32));
            assert!((pi - expected).abs() < 1e-9, "i={i}");
        }
    }

    #[test]
    fn fair_absorption_times() {
        let n = 10;
        let m = gamblers_ruin(n, 0.5);
        let policy = Policy::zeros(n + 1);
        // Expected time to hit {0, N} from i is i (N - i).
        let targets: HashSet<_> = [0, n].into_iter().collect();
        let h = expected_hitting_time(&m, &policy, &targets).unwrap();
        for (i, &hi) in h.iter().enumerate() {
            let expected = (i * (n - i)) as f64;
            assert!((hi - expected).abs() < 1e-6, "i={i}: {hi} vs {expected}");
        }
    }

    #[test]
    fn unreachable_target_is_a_structured_error() {
        // Two disconnected self-loops.
        let mut m = Mdp::new(1);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(a, 0, vec![Transition::new(a, 1.0, vec![0.0])]);
        m.add_action(b, 0, vec![Transition::new(b, 1.0, vec![0.0])]);
        let targets: HashSet<_> = [b].into_iter().collect();
        let err = expected_hitting_time(&m, &Policy::zeros(2), &targets).unwrap_err();
        assert_eq!(err, MdpError::UnreachableTarget { state: a });
    }

    #[test]
    fn out_of_range_ids_are_shape_errors() {
        let m = gamblers_ruin(4, 0.5);
        let policy = Policy::zeros(5);
        let inside: HashSet<_> = [4].into_iter().collect();
        let outside: HashSet<_> = [4, 9].into_iter().collect();
        let shape = |what| MdpError::Shape { what, found: 9, expected: 5 };
        assert_eq!(
            hitting_probability(&m, &policy, &outside, &inside).unwrap_err(),
            shape("hitting target state")
        );
        assert_eq!(
            hitting_probability(&m, &policy, &inside, &outside).unwrap_err(),
            shape("hitting avoid state")
        );
        assert_eq!(
            expected_hitting_time(&m, &policy, &outside).unwrap_err(),
            shape("hitting target state")
        );
    }
}
