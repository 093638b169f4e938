//! The cluster worker: a stateless loop around the budget-governed
//! solver. Connect, say hello, receive the coordinator's solve
//! configuration, then claim → solve → report until the coordinator says
//! `fin`.
//!
//! The worker runs each cell through the **same** per-cell runner a
//! local `run_sweep` uses ([`crate::cell::run_cell`] with the
//! coordinator-shipped deadline, audit flag and injection lists), so the
//! failure text that lands in the journal is bit-for-bit what a local run
//! would have written.
//!
//! A heartbeat thread shares the connection's [`FrameSender`] and renews
//! the active lease at a third of the lease period while the solve loop
//! is busy. For fault-path testing, [`WorkerOptions::die_after`] makes
//! the worker die mid-batch: [`DieMode::Hang`] stops heartbeating but
//! keeps the socket open (exercising lease expiry), [`DieMode::Disconnect`]
//! drops the socket (exercising EOF requeue).
//!
//! # Reconnect and redelivery
//!
//! A dropped connection is a *session* boundary, not the end of the
//! worker. [`run_worker`] wraps the per-connection protocol in an outer
//! loop governed by [`ReconnectPolicy`]: transport failures trigger a
//! seeded-jitter exponential-backoff reconnect, capped at
//! `attempts` consecutive sessions that made no progress. `done` frames
//! are kept in a pending buffer until a claim response proves the
//! coordinator read past them (TCP delivers our frames in order, and the
//! coordinator handles them in order, so answering a later `claim` acks
//! every frame sent before it); unacked results are redelivered after the
//! next handshake and deduped by fingerprint on the coordinator.
//! Protocol-level rejections (an `err` frame, a version mismatch) are
//! fatal and never retried.

use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bvc_chaos::{ChaosStream, SplitMix64};
use bvc_journal::net::{
    apply_deadlines, frame_pair, frame_pair_from, FrameReader, FrameSender, ReadError,
    MAX_FRAME_BYTES,
};

use crate::cell::{run_cell, CellRunConfig};
use crate::jobs::JobSpec;
use crate::protocol::{DoneFrame, Frame, TaskFrame, PROTO_VERSION};

/// How a fault-injected worker dies (see [`WorkerOptions::die_after`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DieMode {
    /// Stop heartbeating and go silent with the socket still open — the
    /// coordinator only recovers via lease expiry.
    Hang,
    /// Drop the socket — the coordinator recovers immediately via EOF.
    Disconnect,
}

/// Reconnect behaviour after a dropped coordinator connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Consecutive no-progress sessions tolerated before giving up.
    /// `0` disables reconnection: the first drop ends the worker.
    pub attempts: u32,
    /// Backoff before the first reconnect attempt; doubles per
    /// consecutive failure.
    pub base: Duration,
    /// Backoff ceiling.
    pub max: Duration,
    /// Seed for backoff jitter. The drawn delay is uniform in
    /// `[cap / 2, cap]` from a [`SplitMix64`] stream, so a given seed
    /// reproduces the exact reconnect schedule.
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            attempts: 5,
            base: Duration::from_millis(200),
            max: Duration::from_secs(5),
            seed: 0x5eed,
        }
    }
}

/// Worker-side knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Threads used to solve cells of one claimed batch concurrently
    /// (also advertised in the hello frame).
    pub threads: u32,
    /// Cells to claim per batch; 0 means "use the coordinator's default".
    pub batch: u32,
    /// Fault injection: die after completing this many cells, leaving the
    /// rest of the claimed batch unfinished.
    pub die_after: Option<usize>,
    /// How to die when `die_after` trips.
    pub die_mode: DieMode,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
    /// Worker threads *inside* each Bellman sweep. Worker-local (never
    /// shipped by the coordinator: it changes throughput, not results).
    /// Thread-budget arbitration: only engaged when `threads` is 1 —
    /// otherwise the batch-level parallelism already owns the cores.
    pub solve_threads: usize,
    /// Minimum states per intra-solve shard (`0` = solver default).
    pub shard_min_states: usize,
    /// Reconnect policy for dropped coordinator connections.
    pub reconnect: ReconnectPolicy,
    /// Chaos site prefix for this worker's fault-injected streams; session
    /// `n` draws from sites `{site}.s{n}.tx` / `{site}.s{n}.rx`.
    pub site: String,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            threads: 1,
            batch: 0,
            die_after: None,
            die_mode: DieMode::Hang,
            quiet: true,
            solve_threads: 1,
            shard_min_states: 0,
            reconnect: ReconnectPolicy::default(),
            site: "worker".into(),
        }
    }
}

/// What one worker did before the coordinator finished it (or it died).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Cells solved successfully.
    pub solved: u64,
    /// Cells reported as failures.
    pub failed: u64,
    /// Batches claimed.
    pub batches: u64,
    /// True when the worker died via `die_after` fault injection.
    pub died: bool,
    /// Coordinator sessions used (1 = never reconnected).
    pub sessions: u64,
}

/// Read timeout for the worker's side of the connection: the coordinator
/// answers every claim promptly (with `wait` at worst), so consecutive
/// silent windows mean it is gone.
const READ_WINDOW: Duration = Duration::from_secs(5);
const MAX_IDLE_WINDOWS: u32 = 24;

/// Why a `recv` failed, split by whether a fresh connection could help.
enum RecvErr {
    /// The transport died or went silent — reconnectable.
    Transport(String),
    /// The peer is speaking the protocol wrong — never retried.
    Protocol(String),
}

fn recv_frame(rx: &mut FrameReader) -> Result<Frame, RecvErr> {
    let mut idle = 0u32;
    loop {
        match rx.recv() {
            Ok(payload) => return Frame::decode(&payload).map_err(RecvErr::Protocol),
            Err(ReadError::TimedOut) if !rx.has_partial() => {
                idle += 1;
                if idle >= MAX_IDLE_WINDOWS {
                    return Err(RecvErr::Transport("coordinator unresponsive".into()));
                }
            }
            Err(ReadError::Closed) => {
                return Err(RecvErr::Transport("coordinator closed the connection".into()))
            }
            Err(ReadError::TimedOut) => {
                return Err(RecvErr::Transport("torn frame from coordinator".into()))
            }
            Err(ReadError::TooLarge(what)) => {
                return Err(RecvErr::Protocol(format!("oversized {what} from coordinator")))
            }
            Err(ReadError::Malformed(msg)) => {
                return Err(RecvErr::Protocol(format!("malformed frame: {msg}")))
            }
            Err(ReadError::Io) => return Err(RecvErr::Transport("transport error".into())),
        }
    }
}

fn connect_retry(addr: &str) -> Result<TcpStream, String> {
    let mut last = String::new();
    for _ in 0..25 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(200));
            }
        }
    }
    Err(format!("cannot connect to coordinator {addr}: {last}"))
}

/// Splits `stream` into framing halves, wrapping both in [`ChaosStream`]s
/// when a chaos plan is installed so the session's transport faults come
/// from the per-site deterministic streams `{site}.s{n}.tx` / `.rx`.
fn make_frames(
    stream: TcpStream,
    site: &str,
    session: u64,
) -> io::Result<(FrameSender, FrameReader)> {
    if bvc_chaos::is_active() {
        let write_half = stream.try_clone()?;
        Ok(frame_pair_from(
            Box::new(ChaosStream::new(write_half, &format!("{site}.s{session}.tx"))),
            Box::new(ChaosStream::new(stream, &format!("{site}.s{session}.rx"))),
            MAX_FRAME_BYTES,
        ))
    } else {
        frame_pair(stream, MAX_FRAME_BYTES)
    }
}

/// Counters and the unacked-result buffer that outlive a single session.
struct WorkerState {
    solved: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    /// Results sent but not yet proven received. Ordered oldest-first;
    /// claim responses ack a prefix, reconnects redeliver the remainder.
    pending: Mutex<Vec<DoneFrame>>,
}

/// How one coordinator session ended.
enum SessionEnd {
    /// Coordinator sent `fin`: the sweep is complete.
    Finished,
    /// Fault injection (`die_after`) tripped.
    Died,
    /// The transport dropped; `progressed` says whether this session got
    /// work done (resets the consecutive-failure count).
    Dropped { progressed: bool, why: String },
    /// Protocol-level rejection — reconnecting cannot help.
    Fatal(String),
}

/// Runs one worker against the coordinator at `addr` until the sweep
/// finishes, fault injection kills it, or the coordinator stays gone
/// through the whole [`ReconnectPolicy`] budget.
pub fn run_worker(addr: &str, opts: &WorkerOptions) -> Result<WorkerSummary, String> {
    let ws = WorkerState {
        solved: AtomicU64::new(0),
        failed: AtomicU64::new(0),
        batches: AtomicU64::new(0),
        pending: Mutex::new(Vec::new()),
    };
    let mut jitter = SplitMix64::new(opts.reconnect.seed);
    let mut failures = 0u32;
    let mut sessions = 0u64;
    let died = loop {
        sessions += 1;
        match run_session(addr, opts, sessions, &ws) {
            SessionEnd::Finished => break false,
            SessionEnd::Died => break true,
            SessionEnd::Fatal(msg) => return Err(msg),
            SessionEnd::Dropped { progressed, why } => {
                // Progress resets the budget: a coordinator that restarts
                // every few batches should never exhaust it.
                failures = if progressed { 1 } else { failures + 1 };
                if failures > opts.reconnect.attempts {
                    return Err(format!("giving up after {sessions} session(s): {why}"));
                }
                let shift = failures.saturating_sub(1).min(16);
                let cap = opts
                    .reconnect
                    .base
                    .saturating_mul(2u32.saturating_pow(shift))
                    .min(opts.reconnect.max);
                let cap_ms = (cap.as_millis() as u64).max(2);
                let delay_ms = cap_ms / 2 + jitter.next_range(cap_ms / 2 + 1);
                if !opts.quiet {
                    eprintln!(
                        "cluster: worker lost coordinator ({why}); reconnecting \
                         (attempt {failures}/{}) in {delay_ms}ms",
                        opts.reconnect.attempts
                    );
                }
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
        }
    };
    Ok(WorkerSummary {
        solved: ws.solved.load(Ordering::SeqCst), // ordering: read-back after join
        failed: ws.failed.load(Ordering::SeqCst), // ordering: read-back after join
        batches: ws.batches.load(Ordering::SeqCst), // ordering: read-back after join
        died,
        sessions,
    })
}

/// One connection's worth of the protocol: connect, handshake, redeliver
/// unacked results, then claim → solve → report until `fin` or a drop.
fn run_session(addr: &str, opts: &WorkerOptions, session: u64, ws: &WorkerState) -> SessionEnd {
    let dropped = |progressed: bool, why: String| SessionEnd::Dropped { progressed, why };
    let stream = if session == 1 {
        // First contact keeps the legacy patient dial loop so a worker may
        // be launched before its coordinator.
        match connect_retry(addr) {
            Ok(s) => s,
            Err(e) => return SessionEnd::Fatal(e),
        }
    } else {
        match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => return dropped(false, format!("reconnect to {addr}: {e}")),
        }
    };
    if let Err(e) = apply_deadlines(&stream, READ_WINDOW) {
        return dropped(false, format!("socket setup: {e}"));
    }
    let (tx, mut rx) = match make_frames(stream, &opts.site, session) {
        Ok(pair) => pair,
        Err(e) => return dropped(false, format!("socket split: {e}")),
    };
    let threads = opts.threads.max(1);
    if let Err(e) = tx.send(&Frame::Hello { proto: PROTO_VERSION, threads }.encode()) {
        return dropped(false, format!("hello: {e}"));
    }
    let wire = match recv_frame(&mut rx) {
        Ok(Frame::Config(c)) => c,
        Ok(Frame::Err { msg }) => {
            return SessionEnd::Fatal(format!("coordinator rejected us: {msg}"))
        }
        Ok(other) => return SessionEnd::Fatal(format!("expected config frame, got {other:?}")),
        Err(RecvErr::Transport(why)) => return dropped(false, why),
        Err(RecvErr::Protocol(why)) => return SessionEnd::Fatal(why),
    };
    if !opts.quiet {
        eprintln!(
            "cluster: worker connected to {addr} ({threads} thread(s), sweep '{}', session {session})",
            wire.label
        );
    }
    // Redeliver results the previous session could not prove delivered.
    // The coordinator dedupes by fingerprint, so double delivery is safe.
    {
        let pending = ws.pending.lock().unwrap_or_else(|e| e.into_inner());
        if !pending.is_empty() && !opts.quiet {
            eprintln!("cluster: worker redelivering {} unacked result(s)", pending.len());
        }
        for done in pending.iter() {
            if let Err(e) = tx.send(&Frame::Done(done.clone()).encode()) {
                return dropped(false, format!("redeliver: {e}"));
            }
        }
    }
    let cell_cfg = CellRunConfig {
        cell_deadline: wire.cell_deadline_ms.map(Duration::from_millis),
        audit: wire.audit,
        // Arbitration: cell-level threads win. Intra-solve sharding only
        // engages when this worker solves its batch serially.
        solve_threads: if threads > 1 { 1 } else { opts.solve_threads.max(1) },
        shard_min_states: opts.shard_min_states,
        inject_panic: wire.inject_panic.clone(),
        inject_noconv: wire.inject_noconv.clone(),
    };
    let batch = if opts.batch > 0 { opts.batch } else { wire.batch.max(1) };
    let hb_interval = Duration::from_millis((wire.lease_ms / 3).max(50));
    let lease_ms = wire.lease_ms.max(1);

    let current_lease: Mutex<Option<u64>> = Mutex::new(None);
    // Condvar-paired stop flag: the heartbeat thread waits on it with the
    // interval as timeout, so stopping wakes it immediately instead of
    // stalling worker shutdown for up to a third of a (possibly long) lease.
    let hb_stop = Mutex::new(false);
    let hb_cv = Condvar::new();
    let stop_heartbeat = || {
        *hb_stop.lock().unwrap_or_else(|e| e.into_inner()) = true;
        hb_cv.notify_all();
    };
    let progressed = AtomicBool::new(false);

    let end = std::thread::scope(|scope| {
        // The first heartbeat goes out one full interval after the session
        // starts, never at once: a thread scheduled late would otherwise find
        // the first lease already granted and slip a heartbeat between the
        // claim and the first `done`, so the frames a session sends would
        // depend on thread timing.
        scope.spawn(|| {
            let mut stopped = hb_stop.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                stopped = hb_cv
                    .wait_timeout_while(stopped, hb_interval, |stopped| !*stopped)
                    .unwrap_or_else(|e| e.into_inner())
                    .0;
                if *stopped {
                    break;
                }
                let lease = *current_lease.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(lease) = lease {
                    let _ = tx.send(&Frame::Heartbeat { lease }.encode());
                }
            }
        });
        let run = (|| -> SessionEnd {
            let never_cancel = Arc::new(AtomicBool::new(false));
            let mut completed_total = 0usize;
            loop {
                // Any claim response proves the coordinator consumed every
                // frame we sent before the claim — ack that prefix.
                let watermark = ws.pending.lock().unwrap_or_else(|e| e.into_inner()).len();
                if let Err(e) = tx.send(&Frame::Claim { max: batch }.encode()) {
                    // ordering: SeqCst — cold error path; strongest order costs nothing here.
                    return dropped(progressed.load(Ordering::SeqCst), format!("claim: {e}"));
                }
                let mut tasks: Vec<TaskFrame> = Vec::new();
                let lease = loop {
                    let frame = match recv_frame(&mut rx) {
                        Ok(f) => f,
                        Err(RecvErr::Transport(why)) => {
                            // ordering: SeqCst — cold error path; strongest order costs nothing here.
                            return dropped(progressed.load(Ordering::SeqCst), why);
                        }
                        Err(RecvErr::Protocol(why)) => return SessionEnd::Fatal(why),
                    };
                    match frame {
                        Frame::Task(t) => tasks.push(t),
                        Frame::Grant { lease, count, .. } => {
                            if tasks.len() as u32 != count {
                                return SessionEnd::Fatal(format!(
                                    "grant count {count} != {} tasks received",
                                    tasks.len()
                                ));
                            }
                            break Some(lease);
                        }
                        Frame::Wait { ms } => {
                            std::thread::sleep(Duration::from_millis(ms.min(2_000)));
                            break None;
                        }
                        Frame::Fin => {
                            ws.pending.lock().unwrap_or_else(|e| e.into_inner()).clear();
                            return SessionEnd::Finished;
                        }
                        Frame::Err { msg } => {
                            return SessionEnd::Fatal(format!("coordinator error: {msg}"))
                        }
                        other => {
                            return SessionEnd::Fatal(format!(
                                "unexpected frame in claim: {other:?}"
                            ))
                        }
                    }
                };
                {
                    let mut pending = ws.pending.lock().unwrap_or_else(|e| e.into_inner());
                    let acked = watermark.min(pending.len());
                    pending.drain(..acked);
                }
                // ordering: SeqCst — records that this batch made progress before any later drop is reported.
                progressed.store(true, Ordering::SeqCst);
                let Some(lease) = lease else { continue };
                // ordering: SeqCst stats counter — once per batch, never hot.
                ws.batches.fetch_add(1, Ordering::SeqCst);
                *current_lease.lock().unwrap_or_else(|e| e.into_inner()) = Some(lease);

                let die_at = opts.die_after.map(|n| n.saturating_sub(completed_total));
                let outcome =
                    solve_batch(&tx, lease, &tasks, &cell_cfg, threads, die_at, &never_cancel, ws);
                completed_total += outcome.completed;
                *current_lease.lock().unwrap_or_else(|e| e.into_inner()) = None;
                if outcome.die {
                    // Stop renewing the (still-held) lease before playing dead.
                    stop_heartbeat();
                    match opts.die_mode {
                        DieMode::Disconnect => {}
                        DieMode::Hang => {
                            // Go silent long enough for the lease to expire
                            // and the cells to be reassigned, then leave.
                            std::thread::sleep(Duration::from_millis(lease_ms * 2 + 200));
                        }
                    }
                    return SessionEnd::Died;
                }
                if let Err(e) = outcome.send {
                    return dropped(true, e);
                }
            }
        })();
        stop_heartbeat();
        run
    });
    end
}

struct BatchOutcome {
    completed: usize,
    die: bool,
    send: Result<(), String>,
}

/// Solves the cells of one claimed batch (possibly with several threads)
/// and streams a `done` frame per cell. `die_at` caps how many cells this
/// batch may complete before fault injection trips. Every frame is parked
/// in the pending buffer *before* the send so a dropped connection can
/// redeliver it.
#[allow(clippy::too_many_arguments)]
fn solve_batch(
    tx: &FrameSender,
    lease: u64,
    tasks: &[TaskFrame],
    cell_cfg: &CellRunConfig,
    threads: u32,
    die_at: Option<usize>,
    never_cancel: &Arc<AtomicBool>,
    ws: &WorkerState,
) -> BatchOutcome {
    let completed = AtomicUsize::new(0);
    let send_err: Mutex<Option<String>> = Mutex::new(None);
    let die = AtomicBool::new(false);

    let solve_one = |task: &TaskFrame| {
        if let Some(cap) = die_at {
            // Claim a completion slot; past the cap, die instead.
            // ordering: SeqCst — the returned slot index decides die-vs-solve exactly once across workers.
            if completed.fetch_add(1, Ordering::SeqCst) >= cap {
                completed.fetch_sub(1, Ordering::SeqCst); // ordering: undo of the SeqCst claim above
                                                          // ordering: SeqCst — die must be visible no later than the completion count it reflects.
                die.store(true, Ordering::SeqCst);
                return;
            }
        } else {
            // ordering: SeqCst completion counter — read back only after the batch loop ends.
            completed.fetch_add(1, Ordering::SeqCst);
        }
        let started = Instant::now();
        let done = match JobSpec::decode(&task.spec) {
            None => {
                // ordering: SeqCst stats counter — once per failed cell, never hot.
                ws.failed.fetch_add(1, Ordering::SeqCst);
                DoneFrame {
                    lease,
                    fp: task.fp,
                    key: task.key.clone(),
                    ok: false,
                    attempts: 1,
                    bits: Vec::new(),
                    code: "error".into(),
                    reason: format!("worker could not decode job spec '{}'", task.spec),
                    elapsed_us: started.elapsed().as_micros() as u64,
                }
            }
            Some(spec) => {
                match run_cell(&task.key, cell_cfg, never_cancel, |ctx| spec.solve(ctx)) {
                    Ok(vals) => {
                        // ordering: SeqCst stats counter — once per solved cell, never hot.
                        ws.solved.fetch_add(1, Ordering::SeqCst);
                        DoneFrame {
                            lease,
                            fp: task.fp,
                            key: task.key.clone(),
                            ok: true,
                            attempts: 1,
                            bits: vals.iter().map(|v| v.to_bits()).collect(),
                            code: String::new(),
                            reason: String::new(),
                            elapsed_us: started.elapsed().as_micros() as u64,
                        }
                    }
                    Err(f) => {
                        // ordering: SeqCst stats counter — once per failed cell, never hot.
                        ws.failed.fetch_add(1, Ordering::SeqCst);
                        DoneFrame {
                            lease,
                            fp: task.fp,
                            key: task.key.clone(),
                            ok: false,
                            attempts: 1,
                            bits: Vec::new(),
                            code: f.reason_code(),
                            reason: f.message(),
                            elapsed_us: started.elapsed().as_micros() as u64,
                        }
                    }
                }
            }
        };
        ws.pending.lock().unwrap_or_else(|e| e.into_inner()).push(done.clone());
        if let Err(e) = tx.send(&Frame::Done(done).encode()) {
            let mut slot = send_err.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(format!("done: {e}"));
            }
        }
    };

    let workers = (threads as usize).min(tasks.len()).max(1);
    if workers <= 1 || die_at.is_some() {
        // Sequential path — also forced under fault injection so "die
        // after N cells" is deterministic.
        for task in tasks {
            // ordering: SeqCst — die/claim protocol kept trivially sequential; the batch loop is not hot.
            if die.load(Ordering::SeqCst)
                || send_err.lock().unwrap_or_else(|e| e.into_inner()).is_some()
            {
                break;
            }
            solve_one(task);
        }
    } else {
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    // ordering: SeqCst — claim cursor; keeps the die/claim protocol trivially sequential.
                    let i = cursor.fetch_add(1, Ordering::SeqCst);
                    // ordering: see the cursor claim above
                    if i >= tasks.len() || die.load(Ordering::SeqCst) {
                        return;
                    }
                    solve_one(&tasks[i]);
                });
            }
        });
    }

    BatchOutcome {
        completed: completed.load(Ordering::SeqCst), // ordering: read-back after join
        die: die.load(Ordering::SeqCst),             // ordering: read-back after join
        send: match send_err.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(e) => Err(e),
            None => Ok(()),
        },
    }
}
