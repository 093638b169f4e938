//! Crash-recovery and chaos-injection end-to-end tests:
//!
//! 1. a coordinator restarted over a crash-torn journal (complete prefix +
//!    torn tail) truncates the tail, replays the prefix, re-solves the
//!    rest, and finishes with a journal **byte-identical** to an
//!    uninterrupted run;
//! 2. a worker whose connection is killed mid-batch by a targeted chaos
//!    fault reconnects with seeded backoff, redelivers its unacked
//!    results (deduped by fingerprint), and the journal identity still
//!    holds;
//! 3. a torn journal append inside a run is rolled back to the previous
//!    line boundary and retried by the reorder cursor, preserving
//!    identity without restarting anything;
//! 4. a local sweep whose every journal append tears counts the lines it
//!    gives up on;
//! 5. the same chaos seed reproduces the same injected-fault schedule.
//!
//! The chaos controller is process-global, so every test serializes on
//! one lock and resets the plan on entry and exit.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use bvc_cluster::jobs::workload;
use bvc_cluster::{
    ClusterConfig, ClusterError, ClusterReport, Coordinator, ReconnectPolicy, WorkerOptions,
    WorkerSummary, Workload,
};
use bvc_repro::sweep::{run_jobs, SweepOptions};

/// Serializes tests: the chaos plan and its per-site hit counters are
/// process-global state.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    bvc_chaos::reset();
    guard
}

/// Unique scratch path per invocation (tests in one binary share a process).
fn tmp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("bvc-chaos-rec-{tag}-{}-{n}.jsonl", std::process::id()))
}

fn stone() -> Workload {
    workload("stone-sim").expect("stone-sim is registered")
}

/// The reference journal: the exact bytes a local single-threaded sweep
/// writes for this workload. Computed with no chaos plan installed.
fn local_journal(wl: &Workload, tag: &str) -> Vec<u8> {
    let path = tmp_path(tag);
    let opts = SweepOptions {
        journal: Some(path.clone()),
        threads: Some(1),
        config_token: wl.config_token.clone(),
        ..SweepOptions::default()
    };
    let report = run_jobs(wl.name, &wl.jobs, &opts);
    assert_eq!(report.solved(), wl.jobs.len(), "{}", report.failure_legend());
    let bytes = std::fs::read(&path).expect("local journal written");
    std::fs::remove_file(&path).ok();
    bytes
}

/// What one cluster run yields: the coordinator's report, the journal
/// bytes, and each worker's summary.
type RunResult = (Result<ClusterReport, ClusterError>, Vec<u8>, Vec<Result<WorkerSummary, String>>);

/// Runs a coordinator over `wl` against `path` (pre-seeded or fresh) with
/// the given workers; returns the report, the journal bytes (file left in
/// place for the caller to delete) and each worker's summary.
fn cluster_run_at(wl: &Workload, path: &PathBuf, workers: Vec<WorkerOptions>) -> RunResult {
    let cfg = ClusterConfig {
        config_token: wl.config_token.clone(),
        journal: Some(path.clone()),
        lease: Duration::from_secs(30),
        quiet: true,
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind ephemeral");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let (result, summaries) = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|opts| {
                let addr = addr.clone();
                scope.spawn(move || bvc_cluster::run_worker(&addr, &opts))
            })
            .collect();
        let result = coordinator.run(wl.name, &wl.jobs);
        (result, handles.into_iter().map(|h| h.join().expect("worker thread")).collect())
    });
    let bytes = std::fs::read(path).unwrap_or_default();
    (result, bytes, summaries)
}

/// Extracts one `name value` counter from the coordinator's stats text.
fn stat(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("stats missing {name}:\n{stats}"))
        .trim()
        .parse()
        .expect("counter is integral")
}

#[test]
fn coordinator_restart_over_torn_journal_is_byte_identical() {
    let _guard = lock();
    let wl = stone();
    let reference = local_journal(&wl, "restart-ref");
    let lines: Vec<&[u8]> = reference.split_inclusive(|&b| b == b'\n').collect();
    assert!(lines.len() >= 2, "stone-sim writes one line per cell");

    // Simulate a coordinator crashed mid-append: one complete line, then a
    // torn fragment of the next (no terminating newline).
    let path = tmp_path("restart");
    let mut seeded = lines[0].to_vec();
    seeded.extend_from_slice(&lines[1][..lines[1].len() / 2]);
    std::fs::write(&path, &seeded).expect("seed crashed journal");

    let (result, bytes, summaries) = cluster_run_at(&wl, &path, vec![WorkerOptions::default()]);
    std::fs::remove_file(&path).ok();
    let report = result.expect("restarted run completes");
    assert_eq!(
        bytes, reference,
        "journal after crash-restart must be byte-identical to an uninterrupted run"
    );
    let replayed = report.cells.iter().filter(|c| c.replayed).count();
    assert_eq!(replayed, 1, "exactly the intact prefix line is replayed");
    assert_eq!(stat(&report.stats, "cluster_cells_lost"), 0);
    let summary = summaries[0].as_ref().expect("worker finishes");
    assert_eq!(summary.solved as usize, wl.jobs.len() - 1, "torn + missing cells re-solve");
}

#[test]
fn worker_reconnects_and_redelivers_unacked_results() {
    let _guard = lock();
    let wl = stone();
    let reference = local_journal(&wl, "reconnect-ref");

    // Worker session 1 frames: hello(1), claim(2), done(3), done(4). No
    // heartbeat interleaves: the first is due a third of the 30 s lease
    // after the session starts. Killing tx op 4 loses the second result
    // mid-batch: the worker must reconnect, redeliver both pending results
    // (the first is a dedupe on the coordinator), and finish the rest on
    // session 2.
    bvc_chaos::install_spec("seed=42,conn_drop_at=w1.s1.tx:4").expect("valid plan");
    let worker = WorkerOptions {
        site: "w1".into(),
        reconnect: ReconnectPolicy {
            attempts: 10,
            base: Duration::from_millis(10),
            max: Duration::from_millis(40),
            seed: 42,
        },
        ..WorkerOptions::default()
    };
    let path = tmp_path("reconnect");
    let (result, bytes, summaries) = cluster_run_at(&wl, &path, vec![worker]);
    std::fs::remove_file(&path).ok();
    let events = bvc_chaos::drain_events();
    bvc_chaos::reset();

    let report = result.expect("run completes despite the injected drop");
    assert_eq!(bytes, reference, "journal identity survives worker reconnect + redelivery");
    let summary = summaries[0].as_ref().expect("worker survives via reconnect");
    assert!(summary.sessions >= 2, "worker must have reconnected: {summary:?}");
    assert!(
        stat(&report.stats, "cluster_duplicate_results_total") >= 1,
        "redelivered first result dedupes:\n{}",
        report.stats
    );
    assert_eq!(stat(&report.stats, "cluster_cells_lost"), 0);
    assert!(
        events.iter().any(|e| e.starts_with("w1.s1.tx#4:")),
        "the injected drop fired at the planned site/op: {events:?}"
    );
}

#[test]
fn torn_journal_append_self_heals_within_the_run() {
    let _guard = lock();
    let wl = stone();
    let reference = local_journal(&wl, "torn-ref");

    // The coordinator's second journal append is torn mid-line. The
    // writer rolls the file back to the previous line boundary and the
    // reorder cursor parks until a later event retries the identical
    // bytes — no restart needed for identity.
    bvc_chaos::install_spec("seed=7,torn_write_at=journal.append:2").expect("valid plan");
    let path = tmp_path("torn-append");
    let (result, bytes, _) = cluster_run_at(&wl, &path, vec![WorkerOptions::default()]);
    std::fs::remove_file(&path).ok();
    bvc_chaos::reset();

    let report = result.expect("run completes despite the torn append");
    assert_eq!(bytes, reference, "rolled-back append must retry byte-identically");
    assert!(
        stat(&report.stats, "cluster_journal_retries_total") >= 1,
        "the torn append was detected and retried:\n{}",
        report.stats
    );
}

#[test]
fn local_sweep_counts_the_journal_lines_it_gives_up() {
    let _guard = lock();
    let wl = stone();

    // Every append tears: each line is tried three times, rolled back
    // each time, then dropped and counted.
    bvc_chaos::install_spec("seed=1,torn_write=1").expect("valid plan");
    let path = tmp_path("torn-every-append");
    let opts = SweepOptions {
        journal: Some(path.clone()),
        threads: Some(1),
        config_token: wl.config_token.clone(),
        ..SweepOptions::default()
    };
    let report = run_jobs(wl.name, &wl.jobs, &opts);
    bvc_chaos::reset();
    let bytes = std::fs::read(&path).expect("journal created");
    std::fs::remove_file(&path).ok();

    assert_eq!(report.solved(), wl.jobs.len(), "{}", report.failure_legend());
    assert!(bytes.is_empty(), "every torn append was rolled back: {bytes:?}");
    assert_eq!(report.journal_dropped, wl.jobs.len());
    let summary = report.summary();
    assert!(summary.ends_with(&format!(" | journal lines dropped {}", wl.jobs.len())), "{summary}");
}

#[test]
fn same_seed_reproduces_the_same_fault_schedule() {
    let _guard = lock();
    let wl = stone();

    let mut schedules = Vec::new();
    let mut journals = Vec::new();
    for round in 0..2 {
        bvc_chaos::install_spec("seed=99,conn_drop_at=w1.s1.tx:4").expect("valid plan");
        let worker = WorkerOptions {
            site: "w1".into(),
            reconnect: ReconnectPolicy {
                attempts: 10,
                base: Duration::from_millis(10),
                max: Duration::from_millis(40),
                seed: 99,
            },
            ..WorkerOptions::default()
        };
        let path = tmp_path(&format!("sched-{round}"));
        let (result, bytes, _) = cluster_run_at(&wl, &path, vec![worker]);
        std::fs::remove_file(&path).ok();
        result.expect("run completes");
        let mut events = bvc_chaos::drain_events();
        bvc_chaos::reset();
        // Only injected faults are recorded; order across sites can vary
        // with thread interleaving, so compare the sorted schedule.
        events.sort();
        schedules.push(events);
        journals.push(bytes);
    }
    assert_eq!(schedules[0], schedules[1], "same seed, same failure schedule");
    assert_eq!(journals[0], journals[1], "same seed, same journal bytes");
    assert!(!schedules[0].is_empty(), "the plan injected at least one fault");
}
