//! The solve contract every attack model shares: one precision and budget
//! options type, its mapping onto the gain and ratio solvers, the opt-in
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

use super::{RatioOptions, RatioSolution, RviOptions, RviSolution};

/// Numeric precision options for the model-level `optimal_*` solves.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Outer tolerance for ratio objectives (`u1`, `u3`): their values are
    /// the crossing of a tenth of it (see [`crate::solve::ratio`]). The
    /// paper states a maximum error of `1e-4`.
    pub ratio_tolerance: f64,
    /// Retired: every gain solve is exact. Kept because bvcbench's builders
    /// copy it and [`SolveOptions::fingerprint_token`] prints it.
    pub gain_tolerance: f64,
    /// Retired: every solve ends in finitely many passes. Kept like
    /// `gain_tolerance`.
    pub max_iterations: usize,
    /// Retired: no solve runs an aperiodicity transform. Kept like
    /// `gain_tolerance`.
    pub aperiodicity_tau: f64,
    /// Wall-clock deadline / cooperative cancellation, threaded through to
    /// every pass of the solvers. Unlimited by default.
    pub budget: SolveBudget,
    /// When set, run the static precondition audit ([`crate::audit`])
    /// before solving and refuse to solve a model that fails any check
    /// (the solve returns [`MdpError::AuditFailed`] instead of converging
    /// to an untrustworthy number). Off by default; sweep runners enable
    /// it with `--audit`.
    pub audit: bool,
    /// Retired: solves are serial. Kept until bvcbench's builders drop it (ROADMAP item 3).
    pub solve_threads: (),
    /// Retired: solves are serial. Kept until bvcbench's builders drop it (ROADMAP item 3).
    pub shard_min_states: (),
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
            solve_threads: (),
            shard_min_states: (),
        }
    }
}

impl SolveOptions {
    /// The average-reward solver options these map to (used directly for
    /// gain objectives such as `u2`).
    pub fn rvi_options(&self) -> RviOptions {
        RviOptions {
            tolerance: self.gain_tolerance,
            max_iterations: self.max_iterations,
            aperiodicity_tau: self.aperiodicity_tau,
            budget: self.budget.clone(),
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

    /// A stable token identifying every numeric knob that could change a
    /// solver's *result* (budgets and deadlines are excluded: they change
    /// whether a cell solves, never its value). Checkpoint journals key
    /// cell fingerprints off this so stale results are re-solved. It still
    /// prints the retired knobs, so existing journals and cache keys keep
    /// matching.
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
    /// Inner solves: 1, except for a ratio objective on a model whose
    /// regeneration set is larger than state 0, where it counts the exact
    /// gain solves, one per Dinkelbach step.
    pub inner_solves: usize,
    /// Inner work summed over them: backward passes and LU evaluations.
    pub inner_iterations: usize,
}

impl From<RatioSolution> for OptimalStrategy {
    fn from(sol: RatioSolution) -> Self {
        OptimalStrategy {
            value: sol.value,
            policy: sol.policy,
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
            inner_solves: 1,
            inner_iterations: sol.iterations,
        }
    }
}
