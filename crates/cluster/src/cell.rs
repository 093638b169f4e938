//! The per-cell solve machinery shared by the local sweep runner
//! (`bvc_repro::sweep::run_sweep`) and the cluster workers: budget wiring,
//! fault injection, panic isolation and failure classification.
//!
//! This module is the reason a distributed run journals the same bytes as
//! a local one: both execute cells through [`run_cell`], so failure
//! messages cannot drift between the two execution paths. A cell is
//! solved once: the solves are deterministic, so a second attempt with
//! the same options could only fail the same way.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bvc_mdp::solve::SolveOptions;
use bvc_mdp::{MdpError, SolveBudget};

/// Why a cell has no value.
#[derive(Debug, Clone)]
pub enum CellFailure {
    /// The worker panicked; the payload is rendered to a string.
    Panicked(String),
    /// The solver returned a structured error.
    Solver(MdpError),
    /// A remote worker reported the failure over the cluster protocol.
    /// `code` and `message` are the worker-side [`reason_code`] and
    /// [`message`], so the coordinator journals the same bytes a local
    /// run would have.
    ///
    /// [`reason_code`]: CellFailure::reason_code
    /// [`message`]: CellFailure::message
    Remote {
        /// Short failure code (`panic`, `no-conv`, `deadline`, ...).
        code: String,
        /// Full human-readable reason.
        message: String,
    },
    /// The coordinator dispatched the cell its maximum number of times and
    /// every lease expired or disconnected without a result.
    Lost {
        /// How many times the cell was handed to a worker.
        dispatches: u32,
    },
    /// The cell was never (fully) attempted: a fail-fast sweep was cancelled
    /// by an earlier failure before this cell could run to completion.
    Skipped,
}

impl CellFailure {
    /// Short code rendered inside grid cells (`FAIL(code)`).
    pub fn reason_code(&self) -> String {
        match self {
            CellFailure::Panicked(_) => "panic".into(),
            CellFailure::Solver(MdpError::NoConvergence { .. }) => "no-conv".into(),
            CellFailure::Solver(MdpError::DeadlineExceeded { .. }) => "deadline".into(),
            CellFailure::Solver(MdpError::Cancelled { .. }) => "cancelled".into(),
            CellFailure::Solver(MdpError::AuditFailed { check, .. }) => format!("audit: {check}"),
            CellFailure::Solver(_) => "error".into(),
            CellFailure::Remote { code, .. } => code.clone(),
            CellFailure::Lost { .. } => "lost".into(),
            CellFailure::Skipped => "skipped".into(),
        }
    }

    /// Full human-readable reason, used in journals and failure legends.
    pub fn message(&self) -> String {
        match self {
            CellFailure::Panicked(p) => format!("panic: {p}"),
            CellFailure::Solver(e) => e.to_string(),
            CellFailure::Remote { message, .. } => message.clone(),
            CellFailure::Lost { dispatches } => {
                format!("lost: no result after {dispatches} dispatch(es) (worker death or stall)")
            }
            CellFailure::Skipped => "skipped (sweep cancelled before this cell ran)".into(),
        }
    }
}

/// Outcome of one sweep cell, local or distributed, in input order.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The human-readable cell key (also the journal key).
    pub key: String,
    /// The value, or why there is none.
    pub outcome: Result<Vec<f64>, CellFailure>,
    /// Solves run for this cell in this run (journaled as `attempts`): 1
    /// when it ran, its dispatch count when a cluster lost it, 0 when
    /// replayed or never run.
    pub attempts: u32,
    /// True when the value came from the checkpoint journal instead of a
    /// fresh solve.
    pub replayed: bool,
    /// Wall-clock time spent solving this cell in this run (worker-side
    /// for a distributed cell).
    pub elapsed: Duration,
}

/// What the runner hands a cell's solve function: the budget to thread
/// into solver options plus the sweep's audit and thread settings.
#[derive(Debug, Clone)]
pub struct CellContext {
    /// Budget carrying the per-cell deadline and the sweep's shared cancel
    /// flag. Solve functions must thread this into their solver options or
    /// watchdogs cannot interrupt them.
    pub budget: SolveBudget,
    /// Whether the sweep requested a pre-solve model audit; forwarded into
    /// [`CellContext::solve_options`].
    pub audit: bool,
    /// Worker threads inside each Bellman sweep (`0`/`1` = single-threaded).
    /// A pure throughput knob: results are bit-identical for every value,
    /// so it is never part of cell fingerprints and never ships over the
    /// cluster wire (each worker applies its own local setting).
    pub solve_threads: usize,
    /// Minimum states per intra-solve shard; `0` keeps the solver default
    /// ([`bvc_mdp::DEFAULT_SHARD_MIN_STATES`]).
    pub shard_min_states: usize,
}

impl CellContext {
    /// The default [`SolveOptions`] with this cell's budget, audit flag and
    /// thread settings applied: the one options rule for every cell kind.
    pub fn solve_options(&self) -> SolveOptions {
        let base = SolveOptions::default();
        SolveOptions {
            budget: self.budget.clone(),
            audit: self.audit,
            solve_threads: self.solve_threads.max(1),
            shard_min_states: match self.shard_min_states {
                0 => base.shard_min_states,
                n => n,
            },
            ..base
        }
    }
}

/// Per-cell execution configuration: everything [`run_cell`] needs,
/// independent of where the cell runs (local sweep thread or cluster
/// worker). The coordinator ships these fields to workers in its config
/// frame so both sides solve and fail identically.
#[derive(Debug, Clone, Default)]
pub struct CellRunConfig {
    /// Wall-clock deadline for each cell's solve.
    pub cell_deadline: Option<Duration>,
    /// Run the static model audit before each cell's solve.
    pub audit: bool,
    /// Worker threads inside each Bellman sweep, forwarded into every
    /// [`CellContext`]. Deliberately NOT part of the coordinator's config
    /// frame: it changes throughput, never results, so each worker applies
    /// its own local `--solve-threads` instead of inheriting the
    /// coordinator's.
    pub solve_threads: usize,
    /// Minimum states per intra-solve shard (`0` = solver default); also
    /// worker-local, like `solve_threads`.
    pub shard_min_states: usize,
    /// Fault injection: cells whose key contains any of these substrings
    /// panic instead of solving. Testing/smoke only.
    pub inject_panic: Vec<String>,
    /// Fault injection: cells whose key contains any of these substrings
    /// report `NoConvergence` instead of solving. Testing/smoke only.
    pub inject_noconv: Vec<String>,
}

/// Runs one cell — fault injection, panic isolation and budget wiring —
/// and returns its terminal outcome. A solver error reporting
/// cancellation maps to [`CellFailure::Skipped`].
///
/// This is the single implementation both execution paths share, so a
/// cell's journaled outcome cannot differ between a local and a
/// distributed run of the same cell under the same config.
pub fn run_cell<T>(
    key: &str,
    cfg: &CellRunConfig,
    cancel: &Arc<AtomicBool>,
    solve: impl Fn(&CellContext) -> Result<T, MdpError>,
) -> Result<T, CellFailure> {
    let mut budget = SolveBudget::unlimited().with_cancel(cancel.clone());
    if let Some(deadline) = cfg.cell_deadline {
        budget = budget.deadline_at(Instant::now() + deadline);
    }
    let ctx = CellContext {
        budget,
        audit: cfg.audit,
        solve_threads: cfg.solve_threads,
        shard_min_states: cfg.shard_min_states,
    };
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if cfg.inject_panic.iter().any(|s| key.contains(s)) {
            panic!("injected panic for cell '{key}'");
        }
        if cfg.inject_noconv.iter().any(|s| key.contains(s)) {
            return Err(MdpError::NoConvergence {
                solver: "injected",
                iterations: 0,
                residual: f64::INFINITY,
            });
        }
        solve(&ctx)
    }));
    match result {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(e)) if e.is_cancellation() => Err(CellFailure::Skipped),
        Ok(Err(e)) => Err(CellFailure::Solver(e)),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(CellFailure::Panicked(msg))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn never_cancel() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }

    #[test]
    fn success_on_first_attempt() {
        let cfg = CellRunConfig::default();
        let outcome = run_cell("k", &cfg, &never_cancel(), |_ctx| Ok(0.25f64));
        assert_eq!(outcome.unwrap(), 0.25);
    }

    #[test]
    fn solver_errors_are_reported_after_one_solve() {
        let solves = std::sync::atomic::AtomicU32::new(0);
        let outcome = run_cell("k", &CellRunConfig::default(), &never_cancel(), |_ctx| {
            solves.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Err::<f64, _>(MdpError::NoConvergence { solver: "t", iterations: 1, residual: 1.0 })
        });
        assert!(matches!(outcome, Err(CellFailure::Solver(MdpError::NoConvergence { .. }))));
        assert_eq!(solves.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn panics_are_isolated() {
        let cfg = CellRunConfig::default();
        match run_cell::<f64>("k", &cfg, &never_cancel(), |_ctx| panic!("boom")) {
            Err(CellFailure::Panicked(msg)) => assert!(msg.contains("boom")),
            other => panic!("expected panic failure, got {other:?}"),
        }
    }

    #[test]
    fn injected_faults_match_by_key_substring() {
        let cfg = CellRunConfig { inject_panic: vec!["a=10%".into()], ..Default::default() };
        let outcome = run_cell::<f64>("s1 a=10%", &cfg, &never_cancel(), |_| Ok(1.0));
        assert!(matches!(outcome, Err(CellFailure::Panicked(_))));
        let outcome = run_cell::<f64>("s1 a=15%", &cfg, &never_cancel(), |_| Ok(1.0));
        assert!(outcome.is_ok());
    }

    #[test]
    fn remote_and_lost_failures_render_codes() {
        let remote = CellFailure::Remote { code: "no-conv".into(), message: "rvi gave up".into() };
        assert_eq!(remote.reason_code(), "no-conv");
        assert_eq!(remote.message(), "rvi gave up");
        let lost = CellFailure::Lost { dispatches: 3 };
        assert_eq!(lost.reason_code(), "lost");
        assert!(lost.message().contains("3 dispatch(es)"));
    }
}
