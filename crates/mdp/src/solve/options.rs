//! The solve contract every attack model shares: one precision and budget
//! options type, its mapping onto the RVI and ratio solvers, the opt-in
//! pre-solve audit gate, and the optimal-value result.
//!
//! The BU and Bitcoin model crates re-export [`SolveOptions`] and
//! [`OptimalStrategy`], so every published cell — BU or Bitcoin baseline —
//! is solved under the same defaults and hashes the same config token.

use crate::audit::{audit_compiled, AuditOptions};
use crate::budget::SolveBudget;
use crate::compiled::CompiledMdp;
use crate::error::MdpError;
use crate::model::Policy;
use crate::shard::DEFAULT_SHARD_MIN_STATES;

use super::{ProbeEngine, RatioOptions, RatioSolution, RviOptions, RviSolution};

/// Numeric precision options for the model-level `optimal_*` solves.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Outer tolerance for ratio objectives (`u1`, `u3`). The paper states a
    /// maximum error of `1e-4`.
    pub ratio_tolerance: f64,
    /// Inner average-reward tolerance of the RVI engine (also used directly
    /// for `u2` on models it solves; renewal solves are exact).
    pub gain_tolerance: f64,
    /// Iteration budget of the inner RVI solver. Sweep runners escalate
    /// this on [`MdpError::NoConvergence`] retries.
    pub max_iterations: usize,
    /// Aperiodicity mixing weight of the inner RVI solver, in `[0, 1)`.
    /// Sweep runners nudge this upward on retries to break periodic stalls.
    pub aperiodicity_tau: f64,
    /// Wall-clock deadline / cooperative cancellation, threaded through to
    /// every inner solver iteration. Unlimited by default.
    pub budget: SolveBudget,
    /// When set, run the static precondition audit ([`crate::audit`])
    /// before solving and refuse to solve a model that fails any check
    /// (the solve returns [`MdpError::AuditFailed`] instead of converging
    /// to an untrustworthy number). Off by default; sweep runners enable
    /// it with `--audit`.
    pub audit: bool,
    /// Worker threads *inside* each Bellman sweep (sharded Jacobi kernel).
    /// `0` and `1` both mean single-threaded. Results are bit-identical for
    /// every value, so this is a pure throughput knob and is deliberately
    /// excluded from [`SolveOptions::fingerprint_token`]. Sweep runners that
    /// already parallelize across cells should leave this at 1 (see
    /// DESIGN.md on thread-budget arbitration).
    pub solve_threads: usize,
    /// Minimum states per intra-solve shard; solves smaller than
    /// `solve_threads * shard_min_states` engage fewer threads (possibly
    /// one) so tiny models never pay sharding overhead. Also excluded from
    /// the fingerprint token.
    pub shard_min_states: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        let rvi = RviOptions::default();
        SolveOptions {
            ratio_tolerance: 1e-5,
            gain_tolerance: 1e-7,
            max_iterations: rvi.max_iterations,
            aperiodicity_tau: rvi.aperiodicity_tau,
            budget: SolveBudget::unlimited(),
            audit: false,
            solve_threads: 1,
            shard_min_states: DEFAULT_SHARD_MIN_STATES,
        }
    }
}

impl SolveOptions {
    /// The inner average-reward solver options these map to (used directly
    /// for gain objectives such as `u2`).
    pub fn rvi_options(&self) -> RviOptions {
        RviOptions {
            tolerance: self.gain_tolerance,
            max_iterations: self.max_iterations,
            aperiodicity_tau: self.aperiodicity_tau,
            budget: self.budget.clone(),
            solve_threads: self.solve_threads,
            shard_min_states: self.shard_min_states,
            ..Default::default()
        }
    }

    /// The ratio-solver options these map to (ratio objectives `u1`, `u3`).
    pub fn ratio_options(&self) -> RatioOptions {
        RatioOptions { tolerance: self.ratio_tolerance, rvi: self.rvi_options(), initial_hi: 1.0 }
    }

    /// The opt-in pre-solve audit gate: a no-op unless [`SolveOptions::audit`]
    /// is set, otherwise [`MdpError::AuditFailed`] naming the first failed
    /// check of the default audit.
    pub fn audit_gate(&self, mdp: &CompiledMdp) -> Result<(), MdpError> {
        if self.audit {
            audit_compiled(mdp, &AuditOptions::default()).gate()?;
        }
        Ok(())
    }

    /// A stable token identifying every numeric knob that can change a
    /// solver's *result* (budgets and deadlines are excluded: they change
    /// whether a cell solves, never its value). Checkpoint journals key
    /// cell fingerprints off this so stale results are re-solved.
    pub fn fingerprint_token(&self) -> String {
        format!(
            "rt={:016x};gt={:016x};mi={};tau={:016x}",
            self.ratio_tolerance.to_bits(),
            self.gain_tolerance.to_bits(),
            self.max_iterations,
            self.aperiodicity_tau.to_bits(),
        )
    }
}

/// An optimal-value result: the utility achieved, a policy achieving it,
/// and the solver work behind it. The work fields are observability only;
/// they never feed into a value, fingerprint or cache key.
#[derive(Debug, Clone)]
pub struct OptimalStrategy {
    /// The optimal utility value.
    pub value: f64,
    /// A policy attaining it (action indices per MDP state; the model
    /// crates map them back to their domain actions).
    pub policy: Policy,
    /// The inner solver: a ratio objective's probe engine, or the engine of
    /// a gain objective's solve. Either way [`ProbeEngine::Renewal`] on
    /// regenerative models (every BU model) and [`ProbeEngine::Rvi`]
    /// otherwise.
    pub engine: ProbeEngine,
    /// Inner solves: probes on ρ for a ratio objective, 1 for a gain
    /// objective.
    pub inner_solves: usize,
    /// Inner work summed over them: RVI iterations, or DP passes on the
    /// renewal engine.
    pub inner_iterations: usize,
}

impl From<RatioSolution> for OptimalStrategy {
    fn from(sol: RatioSolution) -> Self {
        OptimalStrategy {
            value: sol.value,
            policy: sol.policy,
            engine: sol.engine,
            inner_solves: sol.inner_solves,
            inner_iterations: sol.inner_iterations,
        }
    }
}

impl From<RviSolution> for OptimalStrategy {
    fn from(sol: RviSolution) -> Self {
        OptimalStrategy {
            value: sol.gain,
            policy: sol.policy,
            engine: sol.engine,
            inner_solves: 1,
            inner_iterations: sol.iterations,
        }
    }
}
