//! Nested-layout reference solvers.
//!
//! These are the original implementations of RVI, the ratio search and
//! fixed-policy evaluation, operating directly on the builder-facing [`Mdp`]
//! representation (`Vec<Vec<ActionArm>>` with per-transition reward vectors).
//! The production solvers in [`rvi`](crate::solve::rvi),
//! [`ratio`](crate::solve::ratio) and [`eval`](crate::solve::eval) run on the
//! CSR-flattened [`CompiledMdp`](crate::compiled::CompiledMdp); the nested
//! versions are kept for two jobs:
//!
//! 1. **Differential testing** — the property tests assert that compiled and
//!    nested solvers agree on gains, biases, rates and ratios to tight
//!    tolerances on randomly generated models.
//! 2. **Baseline timing** — `bvc-bench`'s `sweep_timing` binary measures the
//!    compiled path's speedup against these as the before/after comparison.
//!
//! The algorithms are identical to their compiled counterparts; only the
//! memory layout of the model differs. Do not "optimize" these — their value
//! is precisely that they stay naive about layout.

use crate::error::MdpError;
use crate::model::{Mdp, Objective, Policy};
use crate::solve::eval::{PolicyEvaluation, DAMPING, MAX_ITERATIONS, TOLERANCE};
use crate::solve::ratio::{
    crossing_level, search_crossing, ProbeEngine, RatioOptions, RatioSolution,
};
use crate::solve::rvi::{RviOptions, RviSolution};

/// Nested-layout relative value iteration (see
/// [`relative_value_iteration`](crate::solve::rvi::relative_value_iteration)).
pub fn relative_value_iteration_nested(
    mdp: &Mdp,
    objective: &Objective,
    opts: &RviOptions,
) -> Result<RviSolution, MdpError> {
    mdp.validate()?;
    objective.validate(mdp)?;
    let tau = opts.aperiodicity_tau;
    assert!((0.0..1.0).contains(&tau), "aperiodicity_tau must be in [0,1), got {tau}");

    let n = mdp.num_states();
    let mut h: Vec<f64> = match &opts.warm_start {
        Some(w) => {
            assert_eq!(w.len(), n, "warm start has wrong length");
            w.clone()
        }
        None => vec![0.0; n],
    };
    let mut h_next = vec![0.0f64; n];
    let mut policy = Policy::zeros(n);

    // Pre-scalarize rewards: expected immediate reward per (state, action).
    let expected_reward: Vec<Vec<f64>> = (0..n)
        .map(|s| {
            mdp.actions(s)
                .iter()
                .map(|arm| {
                    arm.transitions.iter().map(|t| t.prob * objective.scalarize(&t.reward)).sum()
                })
                .collect()
        })
        .collect();

    for iter in 0..opts.max_iterations {
        let mut span_lo = f64::INFINITY;
        let mut span_hi = f64::NEG_INFINITY;
        for s in 0..n {
            let mut best = f64::NEG_INFINITY;
            let mut best_a = 0;
            for (a, arm) in mdp.actions(s).iter().enumerate() {
                let mut q = expected_reward[s][a];
                for t in &arm.transitions {
                    q += t.prob * h[t.to];
                }
                let q = (1.0 - tau) * q + tau * h[s];
                if q > best {
                    best = q;
                    best_a = a;
                }
            }
            h_next[s] = best;
            policy.choices[s] = best_a;
            let d = best - h[s];
            span_lo = span_lo.min(d);
            span_hi = span_hi.max(d);
        }
        let offset = h_next[0];
        for x in h_next.iter_mut() {
            *x -= offset;
        }
        std::mem::swap(&mut h, &mut h_next);

        if span_hi - span_lo < opts.tolerance * (1.0 - tau) {
            let gain = 0.5 * (span_lo + span_hi) / (1.0 - tau);
            return Ok(RviSolution {
                gain,
                bias: h,
                policy,
                iterations: iter + 1,
                engine: ProbeEngine::Rvi,
            });
        }
    }
    Err(MdpError::NoConvergence {
        solver: "relative_value_iteration_nested",
        iterations: opts.max_iterations,
        residual: f64::NAN,
    })
}

/// Nested-layout fixed-policy evaluation (see
/// [`evaluate_policy`](crate::solve::eval::evaluate_policy)).
pub fn evaluate_policy_nested(mdp: &Mdp, policy: &Policy) -> Result<PolicyEvaluation, MdpError> {
    mdp.validate()?;
    mdp.validate_policy(policy)?;

    let n = mdp.num_states();
    let mut pi = vec![1.0 / n as f64; n];
    let mut pi_next = vec![0.0f64; n];
    let d = DAMPING;

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
            let arm = &mdp.actions(s)[policy.choices[s]];
            for t in &arm.transitions {
                pi_next[t.to] += (1.0 - d) * mass * t.prob;
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
                solver: "evaluate_policy_nested",
                iterations: MAX_ITERATIONS,
                residual: delta,
            });
        }
    }

    let total: f64 = pi.iter().sum();
    for x in pi.iter_mut() {
        *x /= total;
    }

    let k = mdp.reward_components();
    let mut rates = vec![0.0f64; k];
    for (s, &weight) in pi.iter().enumerate() {
        let arm = &mdp.actions(s)[policy.choices[s]];
        for t in &arm.transitions {
            for (c, r) in t.reward.iter().enumerate() {
                rates[c] += weight * t.prob * r;
            }
        }
    }

    Ok(PolicyEvaluation { stationary: pi, component_rates: rates, iterations })
}

/// Nested-layout ratio maximization (see
/// [`maximize_ratio`](crate::solve::ratio::maximize_ratio)): the same search
/// on rho, but every probe rebuilds the transformed objective and
/// re-scalarizes all rewards inside the inner solver.
pub fn maximize_ratio_nested(
    mdp: &Mdp,
    numerator: &Objective,
    denominator: &Objective,
    opts: &RatioOptions,
) -> Result<RatioSolution, MdpError> {
    mdp.validate()?;
    numerator.validate(mdp)?;
    denominator.validate(mdp)?;

    let eps = crossing_level(opts);
    let mut inner_opts = opts.rvi.clone();
    let mut inner_solves = 0usize;
    let mut inner_iterations = 0usize;
    let mut last_policy = Policy::zeros(mdp.num_states());
    let mut lo_policy = Policy::zeros(mdp.num_states());

    let found = search_crossing(opts, |rho| {
        let w = numerator.minus_scaled(denominator, rho);
        let sol = relative_value_iteration_nested(mdp, &w, &inner_opts)?;
        inner_opts.warm_start = Some(sol.bias);
        inner_solves += 1;
        inner_iterations += sol.iterations;
        if sol.gain > eps {
            lo_policy.clone_from(&sol.policy);
        }
        last_policy = sol.policy;
        Ok(sol.gain)
    })?;

    let (value, policy) = match found {
        Some(value) => (value, lo_policy),
        None => (0.0, last_policy),
    };
    Ok(RatioSolution { value, policy, inner_solves, inner_iterations, engine: ProbeEngine::Rvi })
}
