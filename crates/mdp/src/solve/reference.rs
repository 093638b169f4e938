//! Reference solvers: plain, unoptimized implementations of relative value
//! iteration (RVI), a ratio solve by bisection on rho and a power-method
//! fixed-policy evaluation, kept as oracles for the exact production solvers
//! in [`rvi`](crate::solve::rvi), [`ratio`](crate::solve::ratio) and
//! [`eval`](crate::solve::eval). They are the only iterative solvers left,
//! and their one job is differential testing:
//! the property tests assert that production and reference solvers agree
//! on gains, biases, rates and ratios to tight tolerances on randomly
//! generated models, and `bvc-bu`'s `table2_pins` holds the α = 10% Table 2
//! column to [`maximize_ratio_reference`] within the ratio tolerance.
//!
//! They read the same [`CompiledMdp`] as the production solvers, but
//! naively and by other methods: plain RVI to a tolerance (never the
//! renewal passes), a transition-by-transition walk per Bellman backup, and a full re-scalarization of every transition's reward
//! vector for each probe of the bisection, which shares no search code
//! with the production Dinkelbach loop. Do not "optimize" these —
//! their value is precisely that they stay simple.

use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::{Objective, Policy};
use crate::solve::eval::PolicyEvaluation;
use crate::solve::ratio::{crossing_level, RatioOptions, RatioSolution};
use crate::solve::rvi::{RviOptions, RviSolution};

/// The reference power method stops when the L1 change of the stationary
/// iterate falls below this.
const TOLERANCE: f64 = 1e-12;
/// Iteration budget of the reference power method.
const MAX_ITERATIONS: usize = 5_000_000;
/// Damping weight: each step applies `pi <- (1-d) * pi P + d * pi`, the
/// aperiodicity transform for Markov chains.
const DAMPING: f64 = 0.05;

/// Reference relative value iteration (see
/// [`relative_value_iteration`](crate::solve::rvi::relative_value_iteration)).
pub fn relative_value_iteration_reference(
    mdp: &CompiledMdp,
    objective: &Objective,
    opts: &RviOptions,
) -> Result<RviSolution, MdpError> {
    mdp.validate_objective(objective)?;
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
    let expected_reward: Vec<f64> = (0..mdp.num_arms())
        .map(|arm| mdp.transitions(arm).map(|(_, p, r)| p * objective.scalarize(r)).sum())
        .collect();

    for iter in 0..opts.max_iterations {
        let mut span_lo = f64::INFINITY;
        let mut span_hi = f64::NEG_INFINITY;
        for s in 0..n {
            let mut best = f64::NEG_INFINITY;
            let mut best_a = 0;
            for (a, arm) in mdp.arm_range(s).enumerate() {
                let mut q = expected_reward[arm];
                for (to, p, _) in mdp.transitions(arm) {
                    q += p * h[to];
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
            return Ok(RviSolution { gain, bias: h, policy, iterations: iter + 1 });
        }
    }
    Err(MdpError::NoConvergence {
        solver: "relative_value_iteration_reference",
        iterations: opts.max_iterations,
        residual: f64::NAN,
    })
}

/// Reference fixed-policy evaluation (see
/// [`evaluate_policy`](crate::solve::eval::evaluate_policy)).
pub fn evaluate_policy_reference(
    mdp: &CompiledMdp,
    policy: &Policy,
) -> Result<PolicyEvaluation, MdpError> {
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
            for (to, p, _) in mdp.transitions(mdp.policy_arm(policy, s)) {
                pi_next[to] += (1.0 - d) * mass * p;
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
                solver: "evaluate_policy_reference",
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
        for (_, p, reward) in mdp.transitions(mdp.policy_arm(policy, s)) {
            for (c, r) in reward.iter().enumerate() {
                rates[c] += weight * p * r;
            }
        }
    }

    Ok(PolicyEvaluation { stationary: pi, component_rates: rates, iterations })
}

/// Reference ratio maximization (see
/// [`maximize_ratio`](crate::solve::ratio::maximize_ratio)): plain bisection
/// on rho for the crossing of `g(rho) = eps`, `eps` a tenth of the
/// tolerance, where each probe rebuilds the objective `N − rho·D` and runs
/// [`relative_value_iteration_reference`], warm-started from the previous
/// probe's bias. `hi` doubles from 1 until `g(hi) <= eps`; then the bracket
/// halves until it is narrower than the tolerance. The value is its
/// midpoint, within half a tolerance of the crossing, and the policy that of
/// the last probe above it (of the first probe when the value is 0).
pub fn maximize_ratio_reference(
    mdp: &CompiledMdp,
    numerator: &Objective,
    denominator: &Objective,
    opts: &RatioOptions,
) -> Result<RatioSolution, MdpError> {
    mdp.validate_objective(numerator)?;
    mdp.validate_objective(denominator)?;

    let eps = crossing_level(opts);
    let mut inner_opts = opts.rvi.clone();
    let mut inner_solves = 0usize;
    let mut inner_iterations = 0usize;
    let mut policy = Policy::zeros(mdp.num_states());
    // Whether g(rho) > eps, keeping the policy of every such probe.
    let mut above = |rho: f64| -> Result<bool, MdpError> {
        let w = numerator.minus_scaled(denominator, rho);
        let sol = relative_value_iteration_reference(mdp, &w, &inner_opts)?;
        inner_opts.warm_start = Some(sol.bias);
        inner_solves += 1;
        inner_iterations += sol.iterations;
        let above = sol.gain > eps;
        if above || inner_solves == 1 {
            policy = sol.policy;
        }
        Ok(above)
    };

    let value = if above(0.0)? {
        let (mut lo, mut hi) = (0.0, 1.0);
        while above(hi)? {
            lo = hi;
            hi *= 2.0;
            if hi >= 1e12 {
                return Err(MdpError::UnboundedRatio { reached: hi });
            }
        }
        while hi - lo > opts.tolerance {
            let mid = 0.5 * (lo + hi);
            if above(mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    } else {
        0.0
    };
    Ok(RatioSolution { value, policy, inner_solves, inner_iterations })
}
