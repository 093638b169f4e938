//! The per-cell solve machinery shared by the local sweep runner
//! (`bvc_repro::sweep::run_sweep`) and the cluster workers: retry
//! escalation, budget wiring, fault classification, and the attempt loop
//! itself.
//!
//! This module is the reason a distributed run journals the same bytes as
//! a local one: both execute cells through [`run_cell_attempts`], so
//! attempt counts, failure messages, and escalation behaviour cannot
//! drift between the two execution paths.

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
    /// The solver returned a structured error after exhausting retries.
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

/// Escalation schedule for retryable solver failures
/// ([`MdpError::is_retryable`], i.e. `NoConvergence`). Panics and
/// non-retryable errors are never retried.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per cell (first try included).
    pub max_attempts: u32,
    /// Multiplier applied to the solver's iteration budget per retry
    /// (`scale = growth^attempt`).
    pub iteration_growth: f64,
    /// Additive bump to the aperiodicity mixing weight per retry, to break
    /// periodic oscillation stalls.
    pub tau_step: f64,
    /// Base backoff slept before each retry; doubles per attempt up to
    /// [`RetryPolicy::max_backoff`].
    pub backoff: Duration,
    /// Ceiling for the exponential backoff sleep. Without it the doubled
    /// sleep reaches ~55 minutes by attempt 16 (or overflows `Duration`
    /// for large bases) — a hung-looking worker, not a retry schedule.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// The policy `--retries N` asks for: `N` extra attempts after the
    /// first, default escalation otherwise. The sweep binaries and `bvc
    /// cluster coordinate` both read the flag through this; the default
    /// policy's 3 attempts are `--retries 2`.
    pub fn with_retries(retries: u32) -> Self {
        RetryPolicy { max_attempts: retries.saturating_add(1), ..RetryPolicy::default() }
    }

    /// The backoff sleep before retry number `attempt` (1-based like the
    /// attempt loop): `backoff * 2^attempt`, saturating, capped at
    /// `max_backoff`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let mult = 2u32.saturating_pow(attempt.min(16));
        self.backoff.saturating_mul(mult).min(self.max_backoff)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            iteration_growth: 4.0,
            tau_step: 0.05,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(5),
        }
    }
}

/// What the runner hands a cell's solve function on each attempt: the
/// budget to thread into solver options plus the escalation state.
#[derive(Debug, Clone)]
pub struct CellContext {
    /// Attempt index, 0-based (0 = first try).
    pub attempt: u32,
    /// Budget carrying the per-cell deadline and the sweep's shared cancel
    /// flag. Solve functions must thread this into their solver options or
    /// watchdogs cannot interrupt them.
    pub budget: SolveBudget,
    /// Iteration-budget multiplier for this attempt
    /// (`iteration_growth^attempt`).
    pub iteration_scale: f64,
    /// Additive aperiodicity bump for this attempt (`attempt * tau_step`).
    pub tau_offset: f64,
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
    /// The default [`SolveOptions`] with this attempt's budget and
    /// escalation applied: the iteration cap scaled by `iteration_scale`,
    /// the aperiodicity weight bumped by `tau_offset` (clamped at 0.9 so
    /// the transform stays meaningful), plus the audit flag and thread
    /// settings. The one escalation rule for every cell kind.
    pub fn solve_options(&self) -> SolveOptions {
        let base = SolveOptions::default();
        SolveOptions {
            max_iterations: ((base.max_iterations as f64) * self.iteration_scale).min(1e15)
                as usize,
            aperiodicity_tau: (base.aperiodicity_tau + self.tau_offset).min(0.9),
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

/// Per-cell execution configuration: everything [`run_cell_attempts`]
/// needs, independent of where the cell runs (local sweep thread or
/// cluster worker). The coordinator ships these fields to workers in its
/// config frame so both sides escalate identically.
#[derive(Debug, Clone, Default)]
pub struct CellRunConfig {
    /// Retry escalation schedule.
    pub retry: RetryPolicy,
    /// Per-attempt wall-clock deadline for each cell.
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
    /// report `NoConvergence` instead of solving (on every attempt, so
    /// retries are exercised and then exhausted). Testing/smoke only.
    pub inject_noconv: Vec<String>,
}

/// Runs one cell's full attempt loop — fault injection, panic isolation,
/// budget wiring, and retry escalation — and returns the terminal outcome
/// plus the number of attempts made.
///
/// This is the single implementation both execution paths share; the
/// journaled `attempts` field of a cell therefore cannot differ between a
/// local and a distributed run of the same cell under the same config.
pub fn run_cell_attempts<T>(
    key: &str,
    cfg: &CellRunConfig,
    cancel: &Arc<AtomicBool>,
    solve: impl Fn(&CellContext) -> Result<T, MdpError>,
) -> (Result<T, CellFailure>, u32) {
    let inject_panic = cfg.inject_panic.iter().any(|s| key.contains(s));
    let inject_noconv = cfg.inject_noconv.iter().any(|s| key.contains(s));
    let mut attempts = 0u32;
    let outcome = loop {
        let attempt = attempts;
        attempts += 1;
        let mut budget = SolveBudget::unlimited().with_cancel(cancel.clone());
        if let Some(deadline) = cfg.cell_deadline {
            budget = budget.deadline_at(Instant::now() + deadline);
        }
        let ctx = CellContext {
            attempt,
            budget,
            iteration_scale: cfg.retry.iteration_growth.powi(attempt as i32),
            tau_offset: f64::from(attempt) * cfg.retry.tau_step,
            audit: cfg.audit,
            solve_threads: cfg.solve_threads,
            shard_min_states: cfg.shard_min_states,
        };
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected panic for cell '{key}'");
            }
            if inject_noconv {
                return Err(MdpError::NoConvergence {
                    solver: "injected",
                    iterations: 0,
                    residual: f64::INFINITY,
                });
            }
            solve(&ctx)
        }));
        match result {
            Ok(Ok(value)) => break Ok(value),
            Ok(Err(e)) if e.is_cancellation() => break Err(CellFailure::Skipped),
            Ok(Err(e)) if e.is_retryable() && attempts < cfg.retry.max_attempts => {
                if !cfg.retry.backoff.is_zero() {
                    std::thread::sleep(cfg.retry.backoff_for(attempt));
                }
            }
            Ok(Err(e)) => break Err(CellFailure::Solver(e)),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "non-string panic payload".into());
                break Err(CellFailure::Panicked(msg));
            }
        }
    };
    (outcome, attempts)
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
        let (outcome, attempts) = run_cell_attempts("k", &cfg, &never_cancel(), |_ctx| Ok(0.25f64));
        assert_eq!(outcome.unwrap(), 0.25);
        assert_eq!(attempts, 1);
    }

    #[test]
    fn retryable_failures_escalate_then_exhaust() {
        let mut cfg = CellRunConfig::default();
        cfg.retry.backoff = Duration::ZERO;
        let (outcome, attempts) = run_cell_attempts("k", &cfg, &never_cancel(), |ctx| {
            assert!(ctx.iteration_scale >= 1.0);
            Err::<f64, _>(MdpError::NoConvergence { solver: "t", iterations: 1, residual: 1.0 })
        });
        assert!(matches!(outcome, Err(CellFailure::Solver(MdpError::NoConvergence { .. }))));
        assert_eq!(attempts, cfg.retry.max_attempts);
    }

    #[test]
    fn panics_are_isolated_and_never_retried() {
        let mut cfg = CellRunConfig::default();
        cfg.retry.backoff = Duration::ZERO;
        let (outcome, attempts) =
            run_cell_attempts::<f64>("k", &cfg, &never_cancel(), |_ctx| panic!("boom"));
        match outcome {
            Err(CellFailure::Panicked(msg)) => assert!(msg.contains("boom")),
            other => panic!("expected panic failure, got {other:?}"),
        }
        assert_eq!(attempts, 1);
    }

    #[test]
    fn injected_faults_match_by_key_substring() {
        let cfg = CellRunConfig { inject_panic: vec!["a=10%".into()], ..Default::default() };
        let (outcome, _) = run_cell_attempts::<f64>("s1 a=10%", &cfg, &never_cancel(), |_| Ok(1.0));
        assert!(matches!(outcome, Err(CellFailure::Panicked(_))));
        let (outcome, _) = run_cell_attempts::<f64>("s1 a=15%", &cfg, &never_cancel(), |_| Ok(1.0));
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

    #[test]
    fn backoff_doubles_then_caps_at_max_backoff() {
        let policy = RetryPolicy {
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(400),
            ..RetryPolicy::default()
        };
        assert_eq!(policy.backoff_for(0), Duration::from_millis(50));
        assert_eq!(policy.backoff_for(1), Duration::from_millis(100));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(400), "cap engages");
        assert_eq!(policy.backoff_for(16), Duration::from_millis(400));
        assert_eq!(policy.backoff_for(u32::MAX), Duration::from_millis(400));

        // Large bases used to overflow `Duration * u32` and panic; now the
        // multiply saturates and the cap still wins.
        let huge = RetryPolicy {
            backoff: Duration::from_secs(u64::MAX / 4),
            max_backoff: Duration::from_secs(30),
            ..RetryPolicy::default()
        };
        assert_eq!(huge.backoff_for(16), Duration::from_secs(30));
    }
}
