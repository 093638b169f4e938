//! Cooperative solve budgets: wall-clock deadlines and cancellation flags
//! checked from *inside* solver iteration loops.
//!
//! Parameter sweeps solve hundreds of models whose cost varies by orders of
//! magnitude across the grid; a single pathological cell must not be able to
//! wedge a whole sweep. Every iterative solver in this crate threads a
//! [`SolveBudget`] through its options and calls [`SolveBudget::check`] once
//! per sweep/iteration. The check is cheap by construction:
//!
//! * the **cancel flag** is one relaxed atomic load — a sweep runner flips
//!   it when the caller asks for fail-fast, and every in-flight solve winds
//!   down with [`MdpError::Cancelled`] at its next iteration boundary;
//! * the **deadline** is consulted only every [`SolveBudget::check_interval`]
//!   iterations (reading the clock is ~20 ns, a Bellman sweep over a real
//!   model is micro- to milliseconds, but tiny test models iterate fast
//!   enough for `Instant::now()` per iteration to show up).
//!
//! A default-constructed budget is unlimited and adds two branch
//! predictions per iteration to the hot loops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::MdpError;

/// A wall-clock deadline and/or cooperative cancel flag for one solve.
///
/// Cloning is cheap (the cancel flag is shared through an [`Arc`]), so one
/// budget can be handed to several solver calls that should live and die
/// together — e.g. all inner solves of a ratio solve, or every solve
/// belonging to one sweep cell.
#[derive(Debug, Clone, Default)]
pub struct SolveBudget {
    /// Absolute deadline; the solve fails with [`MdpError::DeadlineExceeded`]
    /// at the first check past this instant.
    pub deadline: Option<Instant>,
    /// Shared cancel flag; the solve fails with [`MdpError::Cancelled`] at
    /// the first check after it becomes `true`.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Deadline checks happen every this-many iterations (`0` is treated as
    /// every iteration). The cancel flag is checked every iteration.
    pub check_interval: usize,
}

/// How often [`SolveBudget::check`] consults the clock by default.
pub const DEFAULT_CHECK_INTERVAL: usize = 32;

impl SolveBudget {
    /// An unlimited budget: never cancels, never times out.
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// A budget expiring `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        SolveBudget { deadline: Some(Instant::now() + timeout), ..Default::default() }
    }

    /// Attaches an absolute deadline.
    pub fn deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Attaches a shared cancel flag.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// True once the shared cancel flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        // ordering: Relaxed — best-effort cancellation; a stale read costs one extra iteration.
        self.cancel.as_ref().is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// True if there is nothing to enforce (the default state).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// The per-iteration budget check solvers call at the top of each sweep.
    ///
    /// `iterations` is the solver's current iteration count; it gates how
    /// often the deadline consults the clock. Returns
    /// [`MdpError::Cancelled`] / [`MdpError::DeadlineExceeded`] tagged with
    /// `solver` so failures name the loop that hit the limit.
    #[inline]
    pub fn check(&self, solver: &'static str, iterations: usize) -> Result<(), MdpError> {
        if self.is_cancelled() {
            return Err(MdpError::Cancelled { solver, iterations });
        }
        if let Some(deadline) = self.deadline {
            let every =
                if self.check_interval == 0 { DEFAULT_CHECK_INTERVAL } else { self.check_interval };
            if iterations.is_multiple_of(every) {
                let now = Instant::now();
                if now >= deadline {
                    let over = now.saturating_duration_since(deadline);
                    return Err(MdpError::DeadlineExceeded {
                        solver,
                        iterations,
                        over_by_ms: over.as_millis() as u64,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_always_passes() {
        let b = SolveBudget::unlimited();
        assert!(b.is_unlimited());
        for i in 0..1000 {
            b.check("t", i).unwrap();
        }
    }

    #[test]
    fn expired_deadline_fails_at_interval_boundary() {
        let b = SolveBudget::default().deadline_at(Instant::now() - Duration::from_millis(1));
        // Iteration 0 is always a check point.
        let err = b.check("rvi", 0).unwrap_err();
        assert!(matches!(err, MdpError::DeadlineExceeded { solver: "rvi", .. }), "{err:?}");
        // Off-boundary iterations skip the clock entirely.
        b.check("rvi", 1).unwrap();
        assert!(b.check("rvi", DEFAULT_CHECK_INTERVAL).is_err());
    }

    #[test]
    fn cancel_flag_fails_every_iteration() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = SolveBudget::default().with_cancel(flag.clone());
        b.check("x", 7).unwrap();
        flag.store(true, Ordering::Relaxed);
        let err = b.check("x", 7).unwrap_err();
        assert!(matches!(err, MdpError::Cancelled { solver: "x", iterations: 7 }));
        assert!(b.is_cancelled());
    }

    #[test]
    fn with_timeout_expires() {
        let b = SolveBudget::with_timeout(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.check("t", 0).is_err());
    }
}
