//! Property tests for the sweep runner's checkpoint/resume machinery.
//!
//! The invariants under test:
//!
//! 1. interrupting a sweep after any prefix of cells and resuming from the
//!    journal yields *bit-identical* values to an uninterrupted run, and the
//!    resumed run re-executes only the missing cells;
//! 2. stale journal entries (lines dropped or re-fingerprinted) invalidate
//!    exactly the affected cells — everything else still replays;
//! 3. journal corruption (garbage lines, a torn final write) degrades to
//!    re-solving, never to a crash or a wrong value.
//!
//! Cell values are derived from the key's hash through raw bit patterns, so
//! NaNs, infinities and subnormals routinely flow through the journal codec;
//! all comparisons are on bit patterns, not float equality.

use bvc_repro::sweep::{fnv1a64, run_sweep, SweepOptions};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Unique scratch path per invocation (tests in one binary share a process).
fn tmp_journal(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("bvc-sweep-prop-{tag}-{}-{n}.jsonl", std::process::id()))
}

/// The deterministic "solver": value depends only on the key, with bit
/// patterns chosen to exercise the codec's full f64 range (NaNs included).
fn val_of(key: &str) -> Vec<f64> {
    let h = fnv1a64(key.as_bytes());
    let len = (h % 3 + 1) as usize;
    (0..len as u32)
        .map(|i| f64::from_bits(h.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(i * 17 + 1)))
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs the deterministic sweep over `keys`, counting actually-executed
/// (non-replayed) cells into `executed`.
fn sweep(keys: &[String], opts: &SweepOptions, executed: &AtomicUsize) -> Vec<Vec<u64>> {
    let report = run_sweep(
        "prop",
        keys,
        opts,
        |k| k.clone(),
        |k, _ctx| {
            executed.fetch_add(1, Ordering::Relaxed);
            Ok(val_of(k))
        },
    );
    assert_eq!(report.solved(), keys.len(), "{}", report.failure_legend());
    (0..keys.len()).map(|i| bits(report.value(i).expect("solved above"))).collect()
}

fn opts_with(journal: Option<PathBuf>) -> SweepOptions {
    SweepOptions {
        journal,
        // Journal lines land in input order at any thread count; the
        // stale-line property below relies on that order.
        threads: Some(1),
        config_token: "prop-token".to_string(),
        ..Default::default()
    }
}

/// Lines land in input order whatever order the cells finish in: the
/// solve time of each cell falls with its index, so on four workers later
/// cells finish first, and the journal must still equal a one-worker
/// run's byte for byte.
#[test]
fn journal_bytes_do_not_depend_on_thread_count() {
    let keys: Vec<String> = (0..12).map(|i| format!("cell-{i}")).collect();
    let run = |threads| {
        let journal = tmp_journal("order");
        let opts = SweepOptions { threads: Some(threads), ..opts_with(Some(journal.clone())) };
        let report = run_sweep(
            "order",
            &keys,
            &opts,
            |k| k.clone(),
            |k, _ctx| {
                let i: u64 = k["cell-".len()..].parse().expect("numbered key");
                std::thread::sleep(Duration::from_millis(3 * (12 - i)));
                Ok(val_of(k))
            },
        );
        assert_eq!(report.solved(), keys.len(), "{}", report.failure_legend());
        let bytes = std::fs::read(&journal).expect("journal written");
        let _ = std::fs::remove_file(&journal);
        bytes
    };
    assert_eq!(run(4), run(1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1: prefix run + resume ≡ clean run, re-solving only the
    /// missing suffix.
    #[test]
    fn interrupted_then_resumed_equals_clean(
        n in 2usize..12,
        cut in 0usize..12,
        salt in 0u64..1_000_000,
    ) {
        let cut = cut.min(n);
        let keys: Vec<String> = (0..n).map(|i| format!("cell-{i}-{salt}")).collect();
        let clean = sweep(&keys, &opts_with(None), &AtomicUsize::new(0));

        // "Interrupted" run: only the first `cut` cells reached the journal.
        let journal = tmp_journal("resume");
        sweep(&keys[..cut], &opts_with(Some(journal.clone())), &AtomicUsize::new(0));

        let executed = AtomicUsize::new(0);
        let resumed = sweep(&keys, &opts_with(Some(journal.clone())), &executed);
        prop_assert_eq!(executed.load(Ordering::Relaxed), n - cut);
        prop_assert_eq!(&resumed, &clean);
        let _ = std::fs::remove_file(&journal);
    }

    /// Invariant 2: dropping an arbitrary subset of journal lines (stale or
    /// lost checkpoints) re-solves exactly those cells; the rest replay, and
    /// the final values are unchanged either way.
    #[test]
    fn stale_lines_invalidate_only_their_cells(
        n in 1usize..12,
        mask in 0u32..4096,
        salt in 0u64..1_000_000,
    ) {
        let keys: Vec<String> = (0..n).map(|i| format!("cell-{i}-{salt}")).collect();
        let journal = tmp_journal("stale");
        let full = sweep(&keys, &opts_with(Some(journal.clone())), &AtomicUsize::new(0));

        // With one worker each cell appended exactly one line, in order.
        let text = std::fs::read_to_string(&journal).expect("journal written");
        let kept: Vec<&str> = text
            .lines()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) == 0)
            .map(|(_, l)| l)
            .collect();
        let dropped = n - kept.len();
        std::fs::write(&journal, kept.join("\n") + "\n").expect("journal rewritten");

        let executed = AtomicUsize::new(0);
        let resumed = sweep(&keys, &opts_with(Some(journal.clone())), &executed);
        prop_assert_eq!(executed.load(Ordering::Relaxed), dropped);
        prop_assert_eq!(&resumed, &full);
        let _ = std::fs::remove_file(&journal);
    }

    /// Invariant 2b: a config-token change invalidates the whole journal —
    /// no cell may replay a value computed under different solver settings.
    #[test]
    fn changed_token_invalidates_everything(n in 1usize..8, salt in 0u64..1_000_000) {
        let keys: Vec<String> = (0..n).map(|i| format!("cell-{i}-{salt}")).collect();
        let journal = tmp_journal("token");
        let full = sweep(&keys, &opts_with(Some(journal.clone())), &AtomicUsize::new(0));

        let mut opts = opts_with(Some(journal.clone()));
        opts.config_token = "prop-token-v2".to_string();
        let executed = AtomicUsize::new(0);
        let resolved = sweep(&keys, &opts, &executed);
        prop_assert_eq!(executed.load(Ordering::Relaxed), n);
        // The toy solver ignores options, so values agree; what matters is
        // that every cell was re-executed rather than replayed.
        prop_assert_eq!(&resolved, &full);
        let _ = std::fs::remove_file(&journal);
    }

    /// Invariant 3: garbage lines are skipped and a torn final write only
    /// costs that one cell a re-solve; values stay bit-identical throughout.
    #[test]
    fn corruption_degrades_to_resolving(
        n in 1usize..10,
        salt in 0u64..1_000_000,
        garbage in proptest::collection::vec(0u8..128, 0..40),
        torn in 2usize..24,
    ) {
        let keys: Vec<String> = (0..n).map(|i| format!("cell-{i}-{salt}")).collect();
        let journal = tmp_journal("corrupt");
        let full = sweep(&keys, &opts_with(Some(journal.clone())), &AtomicUsize::new(0));

        // Whole garbage lines between valid entries: ignored on replay.
        let text = std::fs::read_to_string(&journal).expect("journal written");
        let noise: String = garbage.iter().map(|&b| (b.max(32)) as char).collect();
        std::fs::write(&journal, format!("{noise}\n{text}{{\"fp\":\n")).expect("rewrite");
        let executed = AtomicUsize::new(0);
        prop_assert_eq!(&sweep(&keys, &opts_with(Some(journal.clone())), &executed), &full);
        prop_assert_eq!(executed.load(Ordering::Relaxed), 0);

        // A torn final write (crash mid-append): that cell re-solves, the
        // journal heals on the next run.
        let text = std::fs::read_to_string(&journal).expect("journal intact");
        // The file is pure ASCII, so a byte cut never splits a char. At most
        // the final line can be damaged, so at most one cell re-solves.
        let cut = text.len().saturating_sub(torn);
        std::fs::write(&journal, &text[..cut]).expect("truncate");
        let executed = AtomicUsize::new(0);
        prop_assert_eq!(&sweep(&keys, &opts_with(Some(journal.clone())), &executed), &full);
        prop_assert!(executed.load(Ordering::Relaxed) <= 1);
        let _ = std::fs::remove_file(&journal);
    }
}
