//! Exhaustive model checks of the claim loop shared by `parallel_map` and
//! `run_sweep`.
//!
//! Runs only under `RUSTFLAGS="--cfg bvc_check"`. Two workers, the calling
//! thread and one spawned helper, race on the shared claim cursor and stop
//! flag; the checker explores every interleaving up to the preemption bound
//! and verifies:
//!
//! * **exactly once**: every input is mapped exactly one time and its
//!   result lands in its own slot (no duplicate or skipped claims);
//! * **panic propagation**: a worker panic re-raises the original
//!   payload in the caller and the stop flag halts the other worker
//!   without deadlocking the scope join;
//! * **fail-fast stop**: a failing sweep cell raises the stop flag; every
//!   cell is solved at most once, and a cell is reported unclaimed
//!   (`Skipped`, 0 attempts) exactly when it was never solved.
#![cfg(bvc_check)]

use std::sync::atomic::Ordering;

use bvc_check::sync::{Arc, AtomicUsize};
use bvc_check::{explore, Config, Report};
use bvc_mdp::MdpError;
use bvc_repro::parallel_map_with_threads;
use bvc_repro::sweep::{run_sweep, CellFailure, SweepOptions};

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

/// Three inputs, two workers: each input is claimed exactly once and the
/// output preserves input order regardless of interleaving.
#[test]
fn claim_cursor_maps_each_input_exactly_once() {
    let report = explore(&model_config(), || {
        let calls: Arc<Vec<AtomicUsize>> = Arc::new((0..3).map(|_| AtomicUsize::new(0)).collect());
        let c = Arc::clone(&calls);
        let out = parallel_map_with_threads(vec![0usize, 1, 2], 2, move |&i| {
            c[i].fetch_add(1, Ordering::SeqCst);
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20], "output order broken");
        for (i, n) in calls.iter().enumerate() {
            assert_eq!(n.load(Ordering::SeqCst), 1, "input {i} mapped a wrong number of times");
        }
    });
    assert_exhaustive_pass(&report, "exactly-once");
}

/// A panicking cell must re-raise its payload in the caller in every
/// interleaving — the abort flag may or may not save the other worker
/// work, but the scope join must never deadlock and the payload must
/// never be lost.
#[test]
fn worker_panic_always_propagates() {
    let report = explore(&model_config(), || {
        let result = std::panic::catch_unwind(|| {
            parallel_map_with_threads(vec![0u64, 1], 2, |&x| {
                if x == 0 {
                    panic!("cell zero exploded");
                }
                x
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

/// Fail-fast sweep over three cells on two workers; the middle cell fails
/// and raises the stop flag mid-run. In every interleaving each cell is
/// solved at most once, its reported attempts equal its solve count, and a
/// never-solved cell is `Skipped`. Across the exploration the last cell is
/// seen both solved (claimed before the flag) and unclaimed (after it).
#[test]
fn fail_fast_stop_flag_never_loses_or_repeats_a_cell() {
    use std::sync::atomic::{AtomicBool, AtomicUsize as StdCount};
    static LAST_SOLVED: AtomicBool = AtomicBool::new(false);
    static LAST_UNCLAIMED: AtomicBool = AtomicBool::new(false);

    let report = explore(&model_config(), || {
        // Plain std counters: they are read only after the claim loop has
        // joined, so they need not be scheduling points.
        let calls: Vec<StdCount> = (0..3).map(|_| StdCount::new(0)).collect();
        let opts = SweepOptions { fail_fast: true, threads: Some(2), ..Default::default() };
        let sweep = run_sweep(
            "model",
            &[0usize, 1, 2],
            &opts,
            |i| format!("c{i}"),
            |&i, _| {
                calls[i].fetch_add(1, Ordering::SeqCst);
                if i == 1 {
                    return Err(MdpError::Shape { what: "injected", found: 0, expected: 1 });
                }
                Ok(i as f64)
            },
        );
        for (i, cell) in sweep.cells.iter().enumerate() {
            let solved = calls[i].load(Ordering::SeqCst);
            assert!(solved <= 1, "cell {i} solved {solved} times");
            assert_eq!(cell.attempts as usize, solved, "cell {i}: attempts disagree with solves");
            if solved == 0 {
                assert!(matches!(cell.outcome, Err(CellFailure::Skipped)), "cell {i} lost");
            }
        }
        assert!(matches!(sweep.cells[1].outcome, Err(CellFailure::Solver(_))));
        match calls[2].load(Ordering::SeqCst) {
            0 => LAST_UNCLAIMED.store(true, Ordering::SeqCst),
            _ => LAST_SOLVED.store(true, Ordering::SeqCst),
        }
    });
    assert_exhaustive_pass(&report, "fail-fast stop");
    assert!(LAST_UNCLAIMED.load(Ordering::SeqCst), "no interleaving stopped before the last cell");
    assert!(LAST_SOLVED.load(Ordering::SeqCst), "no interleaving claimed the last cell");
}
