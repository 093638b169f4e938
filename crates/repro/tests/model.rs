//! Exhaustive model check of `run_sweep`'s fail-fast stop on the claim
//! loop (the claim loop's own exactly-once and panic-propagation models
//! are unit tests in `src/lib.rs`).
//!
//! Runs only under `RUSTFLAGS="--cfg bvc_check"`. Two workers, the calling
//! thread and one spawned helper, race on the shared claim cursor and stop
//! flag; the checker explores every interleaving up to the preemption bound
//! and verifies that a failing sweep cell raises the stop flag, every cell
//! is solved at most once, and a cell is reported unclaimed (`Skipped`, 0
//! attempts) exactly when it was never solved.
#![cfg(bvc_check)]

use std::sync::atomic::Ordering;

use bvc_check::{explore, Config, Report};
use bvc_mdp::MdpError;
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
                Ok(vec![i as f64])
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
