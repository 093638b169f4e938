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
//! This library holds the shared plumbing: aligned table rendering, a
//! parallel map over parameter cells ([`parallel_map`]), and the
//! fault-tolerant sweep runner ([`sweep`]) with per-cell isolation and
//! checkpoint/resume journals. Both spread cells over one claim loop that
//! runs on the calling thread plus scoped helpers.

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

/// Evaluates `f` over `inputs` in parallel, preserving input order in the
/// output. Used by the table binaries to sweep parameter cells across
/// cores.
///
/// Runs `available_parallelism` workers (at most one per input), the
/// calling thread among them, so a single worker spawns no thread. Workers
/// claim inputs one at a time through a shared atomic cursor, so cells
/// whose cost varies by orders of magnitude across the parameter grid
/// balance across cores; results are slotted back by index.
///
/// # Panics
/// If `f` panics on any input, the *original* panic payload is re-raised in
/// the caller once all workers have stopped; no input is claimed after the
/// panic.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
    parallel_map_with_threads(inputs, threads, f)
}

/// [`parallel_map`] with an explicit worker count (the caller included)
/// instead of `available_parallelism`. Exposed so model-checking runs (and
/// tests on single-core machines) can force real claim-cursor contention.
///
/// # Panics
/// Same contract as [`parallel_map`].
pub fn parallel_map_with_threads<I, O, F>(inputs: Vec<I>, threads: usize, f: F) -> Vec<O>
where
    I: Send + Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    claim_loop(inputs.len(), threads, |i| ControlFlow::Continue(f(&inputs[i])))
        .into_iter()
        .map(|o| o.expect("all cells computed"))
        .collect()
}

/// The one claim loop behind [`parallel_map`] and [`sweep::run_sweep`]:
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = parallel_map(inputs.clone(), |&x| x * 2);
        assert_eq!(out, inputs.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let out = parallel_map(Vec::<u64>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn one_worker_maps_every_input_on_the_caller() {
        let caller = std::thread::current().id();
        let out = parallel_map_with_threads((0..8).collect(), 1, |&x: &u64| {
            (x, std::thread::current().id() == caller)
        });
        assert_eq!(out, (0..8).map(|x| (x, true)).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_balances_uneven_work() {
        // One expensive cell among many cheap ones: dynamic claiming must
        // still return every result in input order.
        let inputs: Vec<u64> = (0..64).collect();
        let out = parallel_map(inputs, |&x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cell 13 exploded")]
    fn parallel_map_propagates_worker_panic_payload() {
        let inputs: Vec<u64> = (0..32).collect();
        let _ = parallel_map(inputs, |&x| {
            if x == 13 {
                panic!("cell {x} exploded");
            }
            x
        });
    }

    #[test]
    fn parallel_map_aborts_promptly_after_panic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // The first claimed cell panics; with the abort flag checked at
        // claim time, the other workers must stop long before the grid is
        // exhausted (each surviving cell is slow enough that the flag is
        // visible before the pool could drain all 256).
        let executed = AtomicUsize::new(0);
        let inputs: Vec<u64> = (0..256).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(inputs, |&x| {
                executed.fetch_add(1, Ordering::SeqCst);
                if x == 0 {
                    panic!("injected");
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
                x
            })
        }));
        assert!(result.is_err(), "panic must propagate");
        let ran = executed.load(Ordering::SeqCst);
        assert!(ran < 256, "workers kept claiming after the panic: {ran} cells ran");
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
