//! # bvc-repro — regenerating every table and figure of the paper
//!
//! One binary per experiment (see `src/bin/`), each printing the paper's
//! published numbers next to the values this workspace computes:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — the state transition & reward specification |
//! | `table2` | Table 2 — max relative revenue (compliant Alice) |
//! | `table3` | Table 3 top/middle — max absolute revenue in BU |
//! | `table3_bitcoin` | Table 3 bottom — selfish mining + double spending |
//! | `table4` | Table 4 — orphans per attacker block |
//! | `figure1` | Figure 1 — BU parent-block choice and the sticky gate |
//! | `figure2` | Figure 2 — the phase-1 / phase-2 fork construction |
//! | `figure3` | Figure 3 — two blocks orphaned by one attacker block |
//! | `figure4` | Figure 4 — the block size increasing game |
//! | `eb_game` | §5.1 — EB-choosing-game equilibria (Analytical Result 4) |
//! | `stone_sim` | §2.3 — Stone-style fork-frequency simulations |
//! | `crossval` | MDP ↔ chain-simulator cross-validation |
//!
//! This library holds the shared plumbing: aligned table rendering and the
//! fault-tolerant sweep runner ([`sweep`]) with per-cell isolation and
//! checkpoint/resume journals. The runner spreads cells over one claim
//! loop that runs on the calling thread plus scoped helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod sweep;

use std::fmt::Write as _;
use std::ops::ControlFlow;

/// A rendered comparison cell: the paper's value (if printed) and ours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The value published in the paper, if the cell exists there.
    pub paper: Option<f64>,
    /// The value this workspace computes.
    pub ours: f64,
}

impl Cell {
    /// Relative deviation |ours − paper| / |paper| (None when no paper
    /// value or the paper value is zero).
    pub fn rel_dev(&self) -> Option<f64> {
        match self.paper {
            Some(p) if p != 0.0 => Some(((self.ours - p) / p).abs()),
            _ => None,
        }
    }
}

/// One position of a rendered comparison grid, including the degraded case
/// where the solve for the cell failed.
#[derive(Debug, Clone, PartialEq)]
pub enum GridEntry {
    /// The paper leaves this position blank; so do we.
    Absent,
    /// A computed comparison cell.
    Value(Cell),
    /// The solve failed; the short reason code is rendered in place as
    /// `FAIL(reason)` so the rest of the grid still lines up.
    Failed(String),
}

impl GridEntry {
    /// Lifts the pre-runner convention (`None` = blank position).
    pub fn from_option(cell: Option<Cell>) -> Self {
        match cell {
            Some(c) => GridEntry::Value(c),
            None => GridEntry::Absent,
        }
    }
}

/// Renders a labelled grid of [`GridEntry`]s as `ours (paper)` pairs with a
/// deviation summary line. Failed cells render as `FAIL(reason)` and are
/// counted separately so one bad solve degrades a single position instead of
/// the whole table.
pub fn render_grid(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    cells: &[Vec<GridEntry>],
    precision: usize,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let width = precision + 6;
    let _ = write!(out, "{:<12}", "");
    for c in col_labels {
        let _ = write!(out, "{c:>width$} {:>width$}", "(paper)");
    }
    let _ = writeln!(out);
    let mut max_dev: f64 = 0.0;
    let mut n_compared = 0usize;
    let mut n_failed = 0usize;
    for (r, label) in row_labels.iter().enumerate() {
        let _ = write!(out, "{label:<12}");
        for cell in &cells[r] {
            match cell {
                GridEntry::Value(c) => {
                    let _ = write!(out, "{:>width$.precision$}", c.ours);
                    match c.paper {
                        Some(p) => {
                            let _ = write!(out, " {:>width$.precision$}", p);
                        }
                        None => {
                            let _ = write!(out, " {:>width$}", "-");
                        }
                    }
                    if let Some(d) = c.rel_dev() {
                        max_dev = max_dev.max(d);
                        n_compared += 1;
                    }
                }
                GridEntry::Failed(reason) => {
                    n_failed += 1;
                    let tag = format!("FAIL({reason})");
                    if tag.len() >= width {
                        // Wider than the column: keep one separating space
                        // so the tag never fuses with its left neighbour.
                        let _ = write!(out, " {tag} {:>width$}", "-");
                    } else {
                        let _ = write!(out, "{tag:>width$} {:>width$}", "-");
                    }
                }
                GridEntry::Absent => {
                    let _ = write!(out, "{:>width$} {:>width$}", "-", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    let _ = write!(
        out,
        "cells compared: {n_compared}, max relative deviation: {:.2}%",
        max_dev * 100.0
    );
    if n_failed > 0 {
        let _ = write!(out, ", FAILED cells: {n_failed}");
    }
    let _ = writeln!(out);
    out
}

/// The claim loop behind [`sweep::run_sweep`]:
/// `threads` workers (clamped to `1..=n`) claim the indices `0..n` through
/// a shared atomic cursor and run `work` on each. The calling thread is one
/// of the workers, so only `threads − 1` scoped helpers are spawned and
/// `threads == 1` runs every index in order on the caller.
///
/// Returning [`ControlFlow::Break`] (its value is kept) or panicking raises
/// the stop flag: no index is claimed after it. Slot `i` of the result is
/// `None` exactly when index `i` was never claimed. The first panic payload
/// is re-raised in the caller once every worker has stopped.
pub(crate) fn claim_loop<O, F>(n: usize, threads: usize, work: F) -> Vec<Option<O>>
where
    O: Send,
    F: Fn(usize) -> ControlFlow<O, O> + Sync,
{
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::Ordering;

    use bvc_check::facade::{scope, AtomicBool, AtomicUsize, Mutex};

    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let out: Mutex<Vec<Option<O>>> = Mutex::new((0..n).map(|_| None).collect());
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let worker = || loop {
        // ordering: Relaxed — a shutdown hint; a stale read claims one extra index at most.
        if stop.load(Ordering::Relaxed) {
            return;
        }
        // ordering: Relaxed — the RMW itself is the claim; slot data flows via the out mutex.
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        match std::panic::catch_unwind(AssertUnwindSafe(|| work(i))) {
            Ok(ControlFlow::Continue(o)) => {
                out.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(o);
                continue;
            }
            Ok(ControlFlow::Break(o)) => out.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(o),
            Err(payload) => {
                // A model-checker abort is scheduler teardown, not a user
                // panic; re-raise it untouched.
                #[cfg(bvc_check)]
                let payload = bvc_check::reraise_if_abort(payload);
                panic_payload.lock().unwrap_or_else(|e| e.into_inner()).get_or_insert(payload);
            }
        }
        // ordering: Relaxed — hint only; values and payloads are published under their mutexes.
        stop.store(true, Ordering::Relaxed);
        return;
    };
    scope(|scope| {
        for _ in 1..threads.clamp(1, n.max(1)) {
            scope.spawn(worker);
        }
        worker();
    });
    if let Some(payload) = panic_payload.into_inner().unwrap_or_else(|e| e.into_inner()) {
        std::panic::resume_unwind(payload);
    }
    out.into_inner().unwrap_or_else(|e| e.into_inner())
}

/// Exits 2 with a message when the binary was given any argument, so the
/// binaries that take none refuse a stray flag instead of ignoring it.
pub fn refuse_arguments() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument {arg:?} (this binary takes no arguments)");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` on every index of `0..n` through [`claim_loop`] with
    /// `threads` workers and returns the results in index order.
    fn claim_all<O: Send>(n: usize, threads: usize, f: impl Fn(usize) -> O + Sync) -> Vec<O> {
        claim_loop(n, threads, |i| ControlFlow::Continue(f(i)))
            .into_iter()
            .map(|o| o.expect("every index is claimed"))
            .collect()
    }

    #[test]
    fn claim_loop_preserves_order() {
        let out = claim_all(100, 4, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn claim_loop_handles_empty_input() {
        assert!(claim_all(0, 4, |i| i).is_empty());
    }

    #[test]
    fn one_worker_claims_every_index_on_the_caller() {
        let caller = std::thread::current().id();
        let out = claim_all(8, 1, |i| (i, std::thread::current().id() == caller));
        assert_eq!(out, (0..8).map(|i| (i, true)).collect::<Vec<_>>());
    }

    #[test]
    fn claim_loop_balances_uneven_work() {
        // One expensive index among many cheap ones: dynamic claiming must
        // still return every result in index order.
        let out = claim_all(64, 4, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cell 13 exploded")]
    fn claim_loop_reraises_worker_panic_payload() {
        claim_all(32, 4, |i| {
            if i == 13 {
                panic!("cell {i} exploded");
            }
            i
        });
    }

    #[test]
    fn claim_loop_stops_promptly_after_panic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // The first claimed index panics; with the stop flag checked at
        // claim time, the other workers must stop long before the range is
        // exhausted (each surviving index is slow enough that the flag is
        // visible before the workers could drain all 256).
        let executed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            claim_all(256, 4, |i| {
                executed.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    panic!("injected");
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
                i
            })
        }));
        assert!(result.is_err(), "panic must propagate");
        let ran = executed.load(Ordering::SeqCst);
        assert!(ran < 256, "workers kept claiming after the panic: {ran} indices ran");
    }

    #[test]
    fn render_grid_reports_deviation() {
        let cells = vec![vec![
            GridEntry::Value(Cell { paper: Some(0.10), ours: 0.11 }),
            GridEntry::Value(Cell { paper: None, ours: 0.5 }),
            GridEntry::Absent,
        ]];
        let text =
            render_grid("t", &["r".into()], &["a".into(), "b".into(), "c".into()], &cells, 3);
        assert!(text.contains("max relative deviation: 10.00%"), "{text}");
        assert!(text.contains('-'));
    }

    #[test]
    fn render_grid_marks_failed_cells() {
        let cells = vec![vec![
            GridEntry::Value(Cell { paper: Some(0.10), ours: 0.10 }),
            GridEntry::Failed("panic".into()),
        ]];
        let text = render_grid("t", &["r".into()], &["a".into(), "b".into()], &cells, 3);
        // The tag is wider than the column; it must keep a separating
        // space instead of fusing with the neighbouring value.
        assert!(text.contains(" FAIL(panic)"), "{text}");
        assert!(text.contains("FAILED cells: 1"), "{text}");
        // The healthy cell still renders and is still compared.
        assert!(text.contains("cells compared: 1"), "{text}");
    }

    #[test]
    fn cell_rel_dev() {
        assert!(Cell { paper: Some(2.0), ours: 2.2 }.rel_dev().unwrap() - 0.1 < 1e-12);
        assert!(Cell { paper: None, ours: 1.0 }.rel_dev().is_none());
        assert!(Cell { paper: Some(0.0), ours: 1.0 }.rel_dev().is_none());
    }
}

/// Exhaustive model checks of [`claim_loop`], built only under
/// `RUSTFLAGS="--cfg bvc_check"`. Two workers, the calling thread and one
/// spawned helper, race on the shared claim cursor and stop flag; the
/// checker explores every interleaving up to the preemption bound.
/// `tests/model.rs` checks the sweep runner's fail-fast stop on top of it.
#[cfg(all(test, bvc_check))]
mod model {
    use std::ops::ControlFlow;
    use std::sync::atomic::Ordering;

    use bvc_check::sync::AtomicUsize;
    use bvc_check::{explore, Config, Report};

    use super::claim_loop;

    fn model_config() -> Config {
        Config { max_preemptions: 2, ..Config::default() }
    }

    fn assert_exhaustive_pass(report: &Report, what: &str) {
        assert!(
            report.violation.is_none(),
            "{what}: unexpected violation:\n{}",
            report.violation.as_ref().unwrap()
        );
        assert!(report.exhaustive_pass(), "{what}: exploration was capped (not exhaustive)");
    }

    /// Three indices, two workers: each index is claimed exactly once and
    /// its result lands in its own slot regardless of interleaving.
    #[test]
    fn claim_cursor_maps_each_input_exactly_once() {
        let report = explore(&model_config(), || {
            let calls: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
            let out = claim_loop(3, 2, |i| {
                calls[i].fetch_add(1, Ordering::SeqCst);
                ControlFlow::Continue(i * 10)
            });
            assert_eq!(out, vec![Some(0), Some(10), Some(20)], "output order broken");
            for (i, n) in calls.iter().enumerate() {
                assert_eq!(
                    n.load(Ordering::SeqCst),
                    1,
                    "index {i} claimed a wrong number of times"
                );
            }
        });
        assert_exhaustive_pass(&report, "exactly-once");
    }

    /// A panicking index must re-raise its payload in the caller in every
    /// interleaving: the stop flag may or may not save the other worker
    /// work, but the scope join must never deadlock and the payload must
    /// never be lost.
    #[test]
    fn worker_panic_always_propagates() {
        let report = explore(&model_config(), || {
            let result = std::panic::catch_unwind(|| {
                claim_loop(2, 2, |i| {
                    if i == 0 {
                        panic!("cell zero exploded");
                    }
                    ControlFlow::Continue(i)
                })
            });
            let payload = result.expect_err("panic must propagate to the caller");
            let payload = bvc_check::reraise_if_abort(payload);
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(msg.contains("cell zero exploded"), "payload lost: {msg:?}");
        });
        assert_exhaustive_pass(&report, "panic propagation");
    }
}
