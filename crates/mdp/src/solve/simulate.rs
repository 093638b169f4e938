//! Monte Carlo simulation of a fixed policy — an independent check on the
//! exact evaluators, and the bridge used by `bvc-sim` to cross-validate
//! analytic results.
//!
//! The sampler uses no external RNG dependency: a small xorshift64* keeps
//! `bvc-mdp` dependency-free while remaining deterministic per seed.

use crate::error::MdpError;
use crate::model::{Mdp, Policy, StateId};

/// A tiny deterministic PRNG (xorshift64*), adequate for path sampling.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator (0 is remapped to a fixed odd constant).
    pub fn new(seed: u64) -> Self {
        XorShift64 { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let v = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        // Take the top 53 bits for a uniform double in [0, 1).
        (v >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Accumulated results of a sampled path.
#[derive(Debug, Clone)]
pub struct PathSample {
    /// Number of steps taken.
    pub steps: usize,
    /// Sum of each reward component along the path.
    pub component_totals: Vec<f64>,
    /// The final state.
    pub final_state: StateId,
}

impl PathSample {
    /// Per-step average of each component.
    pub fn component_rates(&self) -> Vec<f64> {
        self.component_totals.iter().map(|&x| x / self.steps as f64).collect()
    }
}

/// Samples `steps` transitions of `policy` from `start`, summing reward
/// components.
pub fn sample_path(
    mdp: &Mdp,
    policy: &Policy,
    start: StateId,
    steps: usize,
    rng: &mut XorShift64,
) -> Result<PathSample, MdpError> {
    mdp.validate_policy(policy)?;
    let mut totals = vec![0.0f64; mdp.reward_components()];
    let mut state = start;
    for _ in 0..steps {
        let arm = &mdp.actions(state)[policy.choices[state]];
        let mut x = rng.next_f64();
        // `validate_policy` guarantees nonempty arms; stay panic-free anyway.
        let Some(mut chosen) = arm.transitions.last() else {
            return Err(MdpError::NoActions { state });
        };
        for t in &arm.transitions {
            if x < t.prob {
                chosen = t;
                break;
            }
            x -= t.prob;
        }
        for (acc, r) in totals.iter_mut().zip(&chosen.reward) {
            *acc += r;
        }
        state = chosen.to;
    }
    Ok(PathSample { steps, component_totals: totals, final_state: state })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Transition;
    use crate::solve::eval::evaluate_policy;

    #[test]
    fn rng_is_uniformish() {
        let mut rng = XorShift64::new(123);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn sample_matches_exact_evaluation() {
        // Two-state chain with stochastic switching and component rewards.
        let mut m = Mdp::new(2);
        let a = m.add_state();
        let b = m.add_state();
        m.add_action(
            a,
            0,
            vec![Transition::new(a, 0.7, vec![1.0, 0.0]), Transition::new(b, 0.3, vec![1.0, 0.0])],
        );
        m.add_action(
            b,
            0,
            vec![Transition::new(b, 0.5, vec![0.0, 2.0]), Transition::new(a, 0.5, vec![0.0, 2.0])],
        );
        let policy = Policy::zeros(2);
        let exact = evaluate_policy(&m, &policy).unwrap();
        let mut rng = XorShift64::new(7);
        let sample = sample_path(&m, &policy, a, 400_000, &mut rng).unwrap();
        let rates = sample.component_rates();
        for (mc, ex) in rates.iter().zip(&exact.component_rates) {
            assert!((mc - ex).abs() < 0.01, "MC {mc} vs exact {ex}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut r1 = XorShift64::new(5);
        let mut r2 = XorShift64::new(5);
        for _ in 0..100 {
            assert_eq!(r1.next_f64(), r2.next_f64());
        }
    }
}
