//! End-to-end tests for the distributed sweep subsystem (`bvc-cluster`):
//!
//! 1. a cluster run writes a journal **byte-identical** to a local
//!    single-threaded `run_sweep` over the same cells;
//! 2. killing a worker mid-batch (heartbeats stop, socket open) expires
//!    its lease, the cells are reassigned, and the final journal is still
//!    byte-identical to a clean local run;
//! 3. a worker that drops its socket triggers immediate EOF requeue with
//!    the same guarantee;
//! 4. duplicate completion frames are deduped by fingerprint (first result
//!    wins) and results for unknown fingerprints are counted and ignored;
//! 5. two *successful* results with different value bits for the same cell
//!    are a hard error (the journal must never silently pick one);
//! 6. a torn frame (length prefix promising more bytes than arrive) drops
//!    the connection and requeues its cells without corrupting the journal;
//! 7. a coordinator and a worker on different protocol versions part at
//!    `hello` with the version error, in either direction.
//!
//! The stone-sim workload drives the identity tests: three deterministic
//! Monte Carlo cells, no solver options involved, each cheap enough for a
//! debug-profile test run.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bvc_cluster::jobs::workload;
use bvc_cluster::protocol::{DoneFrame, Frame, PROTO_VERSION};
use bvc_cluster::{
    CellFailure, ClusterConfig, ClusterError, ClusterReport, Coordinator, DieMode, WorkerOptions,
    Workload,
};
use bvc_repro::sweep::{run_jobs, SweepOptions};

/// Unique scratch path per invocation (tests in one binary share a process).
fn tmp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("bvc-cluster-e2e-{tag}-{}-{n}.jsonl", std::process::id()))
}

fn stone() -> Workload {
    workload("stone-sim").expect("stone-sim is registered")
}

/// The reference journal: the exact bytes a local single-threaded sweep
/// writes for this workload.
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

/// Runs a coordinator over `wl` with the given workers, each started after
/// its configured delay. Returns the report and the journal bytes.
fn cluster_run(
    wl: &Workload,
    tag: &str,
    lease: Duration,
    batch: u32,
    workers: &[(WorkerOptions, Duration)],
) -> (Result<ClusterReport, ClusterError>, Vec<u8>) {
    let path = tmp_path(tag);
    let cfg = ClusterConfig {
        config_token: wl.config_token.clone(),
        journal: Some(path.clone()),
        lease,
        batch,
        quiet: true,
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind ephemeral");
    let addr = coordinator.local_addr().expect("local addr").to_string();
    let result = std::thread::scope(|scope| {
        for (opts, delay) in workers {
            let addr = addr.clone();
            let delay = *delay;
            scope.spawn(move || {
                std::thread::sleep(delay);
                bvc_cluster::run_worker(&addr, opts)
            });
        }
        coordinator.run(wl.name, &wl.jobs)
    });
    let bytes = std::fs::read(&path).unwrap_or_default();
    std::fs::remove_file(&path).ok();
    (result, bytes)
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

fn healthy(threads: u32) -> WorkerOptions {
    WorkerOptions { threads, ..WorkerOptions::default() }
}

#[test]
fn cluster_journal_byte_identical_to_local() {
    let wl = stone();
    let reference = local_journal(&wl, "ident-local");
    let (result, bytes) = cluster_run(
        &wl,
        "ident-cluster",
        Duration::from_secs(30),
        2,
        &[(healthy(1), Duration::ZERO)],
    );
    let report = result.expect("cluster run succeeds");
    assert_eq!(report.cells.iter().filter(|c| c.outcome.is_ok()).count(), wl.jobs.len());
    assert_eq!(
        bytes,
        reference,
        "cluster journal differs from local journal:\n--- cluster ---\n{}\n--- local ---\n{}",
        String::from_utf8_lossy(&bytes),
        String::from_utf8_lossy(&reference)
    );
}

#[test]
fn killed_worker_lease_expires_and_journal_is_byte_identical() {
    let wl = stone();
    let reference = local_journal(&wl, "kill-local");
    // Worker A claims two cells, solves one, then goes silent with the
    // socket open — only lease expiry can recover its second cell. Worker
    // B starts shortly after and carries the rest of the sweep.
    let dying =
        WorkerOptions { die_after: Some(1), die_mode: DieMode::Hang, ..WorkerOptions::default() };
    let (result, bytes) = cluster_run(
        &wl,
        "kill-cluster",
        Duration::from_millis(300),
        2,
        &[(dying, Duration::ZERO), (healthy(1), Duration::from_millis(150))],
    );
    let report = result.expect("cluster run survives the killed worker");
    assert_eq!(report.cells.iter().filter(|c| c.outcome.is_ok()).count(), wl.jobs.len());
    assert!(
        stat(&report.stats, "cluster_lease_expiries_total") >= 1,
        "expected at least one lease expiry:\n{}",
        report.stats
    );
    assert_eq!(bytes, reference, "journal diverged after lease-expiry reassignment");
}

#[test]
fn disconnected_worker_requeues_and_journal_is_byte_identical() {
    let wl = stone();
    let reference = local_journal(&wl, "eof-local");
    let dying = WorkerOptions {
        die_after: Some(1),
        die_mode: DieMode::Disconnect,
        ..WorkerOptions::default()
    };
    let (result, bytes) = cluster_run(
        &wl,
        "eof-cluster",
        Duration::from_secs(30),
        2,
        &[(dying, Duration::ZERO), (healthy(1), Duration::from_millis(150))],
    );
    let report = result.expect("cluster run survives the disconnect");
    assert_eq!(report.cells.iter().filter(|c| c.outcome.is_ok()).count(), wl.jobs.len());
    assert!(
        stat(&report.stats, "cluster_requeues_total") >= 1,
        "expected at least one EOF requeue:\n{}",
        report.stats
    );
    assert_eq!(bytes, reference, "journal diverged after EOF requeue");
}

// --- Raw protocol clients (misbehaving workers) ---------------------------

fn send_raw(stream: &mut TcpStream, payload: &str) {
    stream.write_all(&(payload.len() as u32).to_be_bytes()).expect("frame len");
    stream.write_all(payload.as_bytes()).expect("frame body");
}

fn recv_raw(stream: &mut TcpStream) -> Frame {
    use std::io::Read;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("frame len");
    let mut buf = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut buf).expect("frame body");
    Frame::decode(std::str::from_utf8(&buf).expect("utf8 frame")).expect("valid frame")
}

/// Connects, handshakes, and claims up to `max` cells. Returns the stream
/// and the granted tasks (fp, lease).
fn claim_cells(addr: &str, max: u32) -> (TcpStream, Vec<u64>, u64) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    send_raw(&mut stream, &Frame::Hello { proto: PROTO_VERSION, threads: 1 }.encode());
    let Frame::Config(_) = recv_raw(&mut stream) else { panic!("expected config") };
    send_raw(&mut stream, &Frame::Claim { max }.encode());
    let mut fps = Vec::new();
    let lease = loop {
        match recv_raw(&mut stream) {
            Frame::Task(t) => fps.push(t.fp),
            Frame::Grant { lease, count, .. } => {
                assert_eq!(count as usize, fps.len());
                break lease;
            }
            other => panic!("unexpected frame during claim: {other:?}"),
        }
    };
    (stream, fps, lease)
}

fn fabricated_done(lease: u64, fp: u64, bits: Vec<u64>) -> Frame {
    Frame::Done(DoneFrame {
        lease,
        fp,
        key: String::new(),
        ok: true,
        attempts: 1,
        bits,
        code: String::new(),
        reason: String::new(),
        elapsed_us: 1,
    })
}

#[test]
fn duplicate_and_unknown_results_are_counted_not_applied() {
    let wl = stone();
    let path = tmp_path("dup-journal");
    let cfg = ClusterConfig {
        config_token: wl.config_token.clone(),
        journal: Some(path.clone()),
        quiet: true,
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let result = std::thread::scope(|scope| {
        scope.spawn(move || {
            let (mut stream, fps, lease) = claim_cells(&addr, 8);
            assert_eq!(fps.len(), 3, "stone-sim has three cells");
            // The first two results sent twice (identical bits) plus one
            // result for a fingerprint that is not part of the sweep, all
            // before the final first-time result: once every cell is
            // terminal the coordinator sends Fin and stops reading, so
            // trailing frames would be legitimately dropped.
            for &fp in &fps[..2] {
                let frame = fabricated_done(lease, fp, vec![1.5f64.to_bits()]);
                send_raw(&mut stream, &frame.encode());
                send_raw(&mut stream, &frame.encode());
            }
            send_raw(
                &mut stream,
                &fabricated_done(lease, 0xdead_beef, vec![2.5f64.to_bits()]).encode(),
            );
            send_raw(&mut stream, &fabricated_done(lease, fps[2], vec![1.5f64.to_bits()]).encode());
            // Drain until the coordinator says fin.
            send_raw(&mut stream, &Frame::Claim { max: 1 }.encode());
            loop {
                match recv_raw(&mut stream) {
                    Frame::Fin => break,
                    Frame::Wait { ms } => {
                        std::thread::sleep(Duration::from_millis(ms.min(100)));
                        send_raw(&mut stream, &Frame::Claim { max: 1 }.encode());
                    }
                    other => panic!("unexpected frame while draining: {other:?}"),
                }
            }
        });
        coordinator.run(wl.name, &wl.jobs)
    });
    let report = result.expect("fabricated results complete the sweep");
    assert_eq!(stat(&report.stats, "cluster_duplicate_results_total"), 2);
    assert_eq!(stat(&report.stats, "cluster_unknown_results_total"), 1);
    // First result won: every journaled cell carries the fabricated bits.
    let body = std::fs::read_to_string(&path).expect("journal written");
    std::fs::remove_file(&path).ok();
    assert_eq!(body.lines().count(), 3);
    for line in body.lines() {
        assert!(line.contains("3ff8000000000000"), "expected fabricated bits in {line}");
    }
}

#[test]
fn conflicting_successful_results_are_a_hard_error() {
    let wl = stone();
    let cfg = ClusterConfig {
        config_token: wl.config_token.clone(),
        quiet: true,
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let result = std::thread::scope(|scope| {
        scope.spawn(move || {
            let (mut stream, fps, lease) = claim_cells(&addr, 1);
            let fp = fps[0];
            send_raw(&mut stream, &fabricated_done(lease, fp, vec![1.5f64.to_bits()]).encode());
            send_raw(&mut stream, &fabricated_done(lease, fp, vec![2.5f64.to_bits()]).encode());
            // The coordinator goes fatal; drop the socket.
        });
        coordinator.run(wl.name, &wl.jobs)
    });
    match result {
        Err(ClusterError::Conflict { .. }) => {}
        other => panic!("expected ClusterError::Conflict, got {other:?}"),
    }
}

#[test]
fn late_done_after_lease_expiry_is_accepted_once_not_redispatched() {
    let wl = stone();
    let path = tmp_path("late-done-journal");
    let cfg = ClusterConfig {
        config_token: wl.config_token.clone(),
        journal: Some(path.clone()),
        lease: Duration::from_millis(300),
        quiet: true,
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let addr_raw = addr.clone();
    let result = std::thread::scope(|scope| {
        scope.spawn(move || {
            // Claim one cell, stall past lease expiry (the cell is
            // requeued), then deliver the result late. The late result must
            // be accepted exactly once and the stale queue index must never
            // be re-leased: a re-dispatch would hand the healthy worker a
            // Done cell, whose second (real-bits) result conflicts with the
            // fabricated one and aborts the sweep.
            let (mut stream, fps, lease) = claim_cells(&addr_raw, 1);
            assert_eq!(fps.len(), 1);
            std::thread::sleep(Duration::from_millis(600));
            send_raw(&mut stream, &fabricated_done(lease, fps[0], vec![1.5f64.to_bits()]).encode());
            // Keep the socket open long enough for the frame to be read.
            std::thread::sleep(Duration::from_millis(500));
        });
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(700));
            bvc_cluster::run_worker(&addr, &WorkerOptions::default())
        });
        coordinator.run(wl.name, &wl.jobs)
    });
    let report = result.expect("late result must not be re-dispatched into a conflict");
    assert_eq!(report.cells.iter().filter(|c| c.outcome.is_ok()).count(), wl.jobs.len());
    assert!(
        stat(&report.stats, "cluster_lease_expiries_total") >= 1,
        "expected the stalled lease to expire:\n{}",
        report.stats
    );
    let body = std::fs::read_to_string(&path).expect("journal written");
    std::fs::remove_file(&path).ok();
    assert_eq!(body.lines().count(), 3, "each cell journaled exactly once:\n{body}");
}

#[test]
fn fail_fast_skips_cells_requeued_after_the_failure() {
    let wl = stone();
    let cfg = ClusterConfig {
        config_token: wl.config_token.clone(),
        fail_fast: true,
        quiet: true,
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let addr_worker = addr.clone();
    let result = std::thread::scope(|scope| {
        scope.spawn(move || {
            // Claim every cell, fail one, then disconnect: the EOF releases
            // the two unfinished cells *after* the failure was recorded.
            // Under fail-fast they must be skipped, not requeued and handed
            // to the healthy worker.
            let (mut stream, fps, lease) = claim_cells(&addr, 8);
            assert_eq!(fps.len(), 3, "stone-sim has three cells");
            let fail = Frame::Done(DoneFrame {
                lease,
                fp: fps[0],
                key: String::new(),
                ok: false,
                attempts: 1,
                bits: vec![],
                code: "injected".into(),
                reason: "injected failure".into(),
                elapsed_us: 1,
            });
            send_raw(&mut stream, &fail.encode());
            std::thread::sleep(Duration::from_millis(200));
            drop(stream);
        });
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            bvc_cluster::run_worker(&addr_worker, &WorkerOptions::default())
        });
        coordinator.run(wl.name, &wl.jobs)
    });
    let report = result.expect("fail-fast sweep still reports");
    let failed = report
        .cells
        .iter()
        .filter(|c| matches!(&c.outcome, Err(CellFailure::Remote { .. })))
        .count();
    let skipped =
        report.cells.iter().filter(|c| matches!(&c.outcome, Err(CellFailure::Skipped))).count();
    assert_eq!(failed, 1, "the injected failure is reported");
    assert_eq!(skipped, 2, "cells released after the failure are skipped, not re-dispatched");
}

#[test]
fn foreign_heartbeat_cannot_keep_another_workers_lease_alive() {
    let wl = stone();
    let cfg = ClusterConfig {
        config_token: wl.config_token.clone(),
        lease: Duration::from_millis(300),
        quiet: true,
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let addr_a = addr.clone();
    let addr_b = addr.clone();
    let (lease_tx, lease_rx) = std::sync::mpsc::channel();
    let result = std::thread::scope(|scope| {
        scope.spawn(move || {
            // Worker A claims a cell and goes silent with the socket open.
            let (_stream, fps, lease) = claim_cells(&addr_a, 1);
            assert_eq!(fps.len(), 1);
            lease_tx.send(lease).expect("hand lease id to client B");
            std::thread::sleep(Duration::from_millis(1500));
        });
        scope.spawn(move || {
            // Client B heartbeats A's lease id from a different connection.
            // Those renewals must be ignored: A's lease still expires and
            // its cell is requeued for the healthy worker.
            let lease = lease_rx.recv().expect("lease id from worker A");
            let mut stream = TcpStream::connect(&addr_b).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(5))).expect("read timeout");
            send_raw(&mut stream, &Frame::Hello { proto: PROTO_VERSION, threads: 1 }.encode());
            let Frame::Config(_) = recv_raw(&mut stream) else { panic!("expected config") };
            for _ in 0..40 {
                let payload = Frame::Heartbeat { lease }.encode();
                if stream.write_all(&(payload.len() as u32).to_be_bytes()).is_err()
                    || stream.write_all(payload.as_bytes()).is_err()
                {
                    break; // Coordinator finished and closed the socket.
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(800));
            bvc_cluster::run_worker(&addr, &WorkerOptions::default())
        });
        coordinator.run(wl.name, &wl.jobs)
    });
    let report = result.expect("sweep completes despite foreign heartbeats");
    assert_eq!(report.cells.iter().filter(|c| c.outcome.is_ok()).count(), wl.jobs.len());
    assert!(
        stat(&report.stats, "cluster_lease_expiries_total") >= 1,
        "foreign heartbeats must not stop the lease from expiring:\n{}",
        report.stats
    );
}

#[test]
fn torn_frame_drops_connection_and_journal_stays_identical() {
    let wl = stone();
    let reference = local_journal(&wl, "torn-local");
    let path = tmp_path("torn-journal");
    let cfg = ClusterConfig {
        config_token: wl.config_token.clone(),
        journal: Some(path.clone()),
        lease: Duration::from_millis(400),
        quiet: true,
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let addr_worker = addr.clone();
    let result = std::thread::scope(|scope| {
        scope.spawn(move || {
            // Claim a cell, then send a frame whose length prefix promises
            // far more bytes than ever arrive, and go silent. The read tick
            // sees a partial frame and must drop the connection, requeueing
            // the claimed cell.
            let (mut stream, fps, _lease) = claim_cells(&addr, 1);
            assert_eq!(fps.len(), 1);
            stream.write_all(&100u32.to_be_bytes()).expect("torn len");
            stream.write_all(b"only-ten-b").expect("torn body");
            std::thread::sleep(Duration::from_secs(3));
        });
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            bvc_cluster::run_worker(&addr_worker, &WorkerOptions::default())
        });
        coordinator.run(wl.name, &wl.jobs)
    });
    let report = result.expect("sweep completes despite the torn frame");
    assert_eq!(report.cells.iter().filter(|c| c.outcome.is_ok()).count(), wl.jobs.len());
    assert!(
        stat(&report.stats, "cluster_requeues_total") >= 1,
        "expected the torn connection's cell to requeue:\n{}",
        report.stats
    );
    let bytes = std::fs::read(&path).expect("journal written");
    std::fs::remove_file(&path).ok();
    assert_eq!(bytes, reference, "journal diverged after torn-frame recovery");
}

#[test]
fn protocol_version_mismatch_fails_at_hello() {
    let older = PROTO_VERSION - 1;

    // An older worker is refused by the coordinator at hello; a current
    // worker then completes the sweep.
    let wl = stone();
    let cfg = ClusterConfig {
        config_token: wl.config_token.clone(),
        quiet: true,
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = coordinator.local_addr().expect("addr").to_string();
    let result = std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
            send_raw(&mut stream, &Frame::Hello { proto: older, threads: 1 }.encode());
            match recv_raw(&mut stream) {
                Frame::Err { msg } => {
                    assert_eq!(msg, format!("protocol version {older} != {PROTO_VERSION}"))
                }
                other => panic!("expected the version error, got {other:?}"),
            }
            bvc_cluster::run_worker(&addr, &WorkerOptions { quiet: true, ..Default::default() })
        });
        coordinator.run(wl.name, &wl.jobs)
    });
    let report = result.expect("the current worker completes the sweep");
    assert_eq!(report.cells.iter().filter(|c| c.outcome.is_ok()).count(), wl.jobs.len());

    // A current worker is refused by an older coordinator, and gives up
    // at once: a version error is fatal, never retried.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let outcome = std::thread::scope(|scope| {
        scope.spawn(move || {
            let (mut stream, _) = listener.accept().expect("worker connects");
            let Frame::Hello { proto, .. } = recv_raw(&mut stream) else {
                panic!("expected hello")
            };
            let msg = format!("protocol version {proto} != {older}");
            send_raw(&mut stream, &Frame::Err { msg }.encode());
        });
        bvc_cluster::run_worker(&addr, &WorkerOptions { quiet: true, ..Default::default() })
    });
    let err = outcome.expect_err("a version error ends the worker");
    assert!(err.contains(&format!("protocol version {PROTO_VERSION} != {older}")), "{err}");
}
