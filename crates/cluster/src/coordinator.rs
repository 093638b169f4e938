//! The cluster coordinator: owns the cell queue and the append-only
//! checkpoint journal, hands out work under time-bounded leases, and
//! guarantees exactly-once-by-fingerprint journaling.
//!
//! Fault model and the mechanisms that answer it:
//!
//! * **Worker death (EOF)** — the connection handler notices the closed
//!   socket and immediately releases the worker's leases; unfinished
//!   cells go back on the queue.
//! * **Worker stall (hang, partition)** — every lease carries a deadline;
//!   a worker must out-heartbeat it. The sweeper thread expires overdue
//!   leases and requeues their cells.
//! * **Poison cells** — each requeue increments the cell's dispatch
//!   count; at `max_dispatch` the cell is marked `FAIL(lost)` instead of
//!   being handed out forever.
//! * **Stragglers** — once the queue is empty, an idle worker may be
//!   granted a *duplicate* dispatch of a cell whose only lease is at
//!   least half-expired, capping tail latency on a stalled worker.
//! * **Duplicates** — results are deduped by cell fingerprint: the first
//!   result wins and later ones are counted; two *successful* results
//!   with different value bits are a hard error ([`ClusterError::Conflict`])
//!   because the solve is deterministic and divergence means the cluster
//!   is not computing the function it claims to.
//!
//! The journal is written by the coordinator alone, in **input order**
//! via a reorder buffer (results arrive out of order from many workers),
//! through the same [`bvc_journal::encode_line`] codec the local runner
//! uses — so a distributed journal is byte-identical to a single-process
//! `run_sweep` journal over the same cells, which a local reorder buffer
//! also writes in input order at any thread count.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use bvc_check::facade::{AtomicBool, Condvar, Mutex, MutexGuard};
use bvc_journal::{
    cell_fingerprint, encode_line, recover_journal, Durability, JournalEntry, JournalWriter,
};
use bvc_serve::net::{apply_deadlines, frame_pair, FrameSender, ReadError, MAX_FRAME_BYTES};

use crate::cell::{CellFailure, CellRunConfig};
use crate::jobs::JobSpec;
use crate::protocol::{DoneFrame, Frame, TaskFrame, WireConfig, PROTO_VERSION};

// ---------------------------------------------------------------------------
// Public configuration / results
// ---------------------------------------------------------------------------

/// Coordinator-side configuration of one distributed sweep.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Solver configuration token mixed into cell fingerprints (must match
    /// what a local run of the same sweep would use).
    pub config_token: String,
    /// Checkpoint journal path. `None` disables checkpointing (and
    /// resume).
    pub journal: Option<PathBuf>,
    /// Per-cell execution config shipped to every worker (deadline,
    /// audit, fault injection).
    pub cell: CellRunConfig,
    /// Lease duration: a worker must report or heartbeat within this
    /// window or its cells are requeued.
    pub lease: Duration,
    /// Default claim batch size suggested to workers.
    pub batch: u32,
    /// Maximum times a cell is handed out before it is marked
    /// `FAIL(lost)`.
    pub max_dispatch: u32,
    /// Stop handing out new cells after the first cell failure (leased
    /// cells still finish; queued cells are reported skipped).
    pub fail_fast: bool,
    /// Suppress progress lines on stderr.
    pub quiet: bool,
    /// Fsync policy for journal appends (`--durability`).
    pub durability: Durability,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            config_token: String::new(),
            journal: None,
            cell: CellRunConfig::default(),
            lease: Duration::from_secs(30),
            batch: 4,
            max_dispatch: 3,
            fail_fast: false,
            quiet: false,
            durability: Durability::default(),
        }
    }
}

/// Why a distributed sweep could not produce a report.
#[derive(Debug)]
pub enum ClusterError {
    /// Binding the listen address failed.
    Bind(String),
    /// The job list itself is unusable (e.g. two cells share a
    /// fingerprint).
    Setup(String),
    /// The journal file could not be opened for appending.
    Journal(String),
    /// Two workers returned *different* value bits for the same cell — a
    /// determinism violation, never papered over.
    Conflict {
        /// The conflicting cell's key.
        key: String,
        /// The conflicting cell's fingerprint.
        fp: u64,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Bind(e) => write!(f, "cluster bind failed: {e}"),
            ClusterError::Setup(e) => write!(f, "cluster setup failed: {e}"),
            ClusterError::Journal(e) => write!(f, "cluster journal failed: {e}"),
            ClusterError::Conflict { key, fp } => write!(
                f,
                "conflicting value bits for cell '{key}' (fp {fp:016x}): \
                 two workers disagree on a deterministic solve"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Outcome of one cell of a distributed sweep, in input order. Mirrors
/// the local runner's per-cell result so the report layer can treat both
/// identically.
#[derive(Debug, Clone)]
pub struct ClusterCell {
    /// The human-readable cell key (also the journal key).
    pub key: String,
    /// The value, or why there is none.
    pub outcome: Result<Vec<f64>, CellFailure>,
    /// The attempts journaled for the cell: 1 when a worker reported it,
    /// its dispatch count when it was lost, 0 when replayed or skipped.
    pub attempts: u32,
    /// True when the value came from the checkpoint journal instead of a
    /// fresh solve.
    pub replayed: bool,
    /// Worker-side wall-clock time for the cell.
    pub elapsed: Duration,
}

/// Everything a coordinator run produced, cells in input order.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Sweep label.
    pub label: String,
    /// Per-cell outcomes, parallel to the input job list.
    pub cells: Vec<ClusterCell>,
    /// Wall-clock time of the whole distributed sweep.
    pub wall: Duration,
    /// Final metrics-style stats text (see the module docs).
    pub stats: String,
}

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CellStatus {
    Queued,
    Leased,
    Done,
}

#[derive(Debug, Clone)]
pub(crate) struct DoneRec {
    ok: bool,
    attempts: u32,
    bits: Vec<u64>,
    code: String,
    reason: String,
    elapsed: Duration,
}

#[derive(Debug)]
pub(crate) struct CellState {
    pub(crate) key: String,
    pub(crate) fp: u64,
    spec: String,
    pub(crate) status: CellStatus,
    /// Times this cell has been handed to a worker.
    dispatches: u32,
    /// Live leases currently covering this cell (0 or 1 normally; 2 during
    /// a straggler double-dispatch).
    outstanding: u32,
    replayed: bool,
    /// Terminal without a result: drained by fail-fast (never journaled).
    pub(crate) skipped: bool,
    pub(crate) result: Option<DoneRec>,
}

impl CellState {
    pub(crate) fn terminal(&self) -> bool {
        self.status == CellStatus::Done
    }

    /// Whether the terminal result reports success. (Used by model-run
    /// invariants; production code inspects `result` directly.)
    #[cfg_attr(not(bvc_check), allow(dead_code))]
    pub(crate) fn succeeded(&self) -> bool {
        self.result.as_ref().is_some_and(|r| r.ok)
    }
}

#[derive(Debug)]
pub(crate) struct Lease {
    pub(crate) worker: u64,
    cells: Vec<usize>,
    granted: Instant,
    pub(crate) deadline: Instant,
}

#[derive(Debug)]
pub(crate) struct WorkerInfo {
    threads: u32,
    last_seen: Instant,
    done_cells: u64,
}

#[derive(Debug, Default)]
struct Stats {
    dispatches: u64,
    requeues: u64,
    lease_expiries: u64,
    duplicates: u64,
    unknown: u64,
    straggler_dispatches: u64,
    journal_retries: u64,
}

pub(crate) struct State {
    pub(crate) cells: Vec<CellState>,
    pub(crate) by_fp: HashMap<u64, usize>,
    pub(crate) queue: VecDeque<usize>,
    pub(crate) leases: HashMap<u64, Lease>,
    next_lease: u64,
    pub(crate) workers: HashMap<u64, WorkerInfo>,
    next_worker: u64,
    pub(crate) done_count: usize,
    /// True once any cell has failed (remote failure or lost at the
    /// dispatch cap). Under fail-fast, gates every later hand-out path —
    /// including requeues — not just the queue drain at first failure.
    failed: bool,
    /// Reorder-buffer cursor: journal lines are written strictly in input
    /// order; the cursor advances over terminal cells.
    pub(crate) journal_cursor: usize,
    stats: Stats,
    pub(crate) fatal: Option<ClusterError>,
}

/// Deliberate re-introductions of historical races, togglable only under
/// the model checker so the regression tests can demonstrate that
/// exploration (not luck) finds each one. Every flag is `false` in
/// production — the accessors below compile to constants there.
#[cfg(bvc_check)]
#[derive(Debug, Default, Clone)]
pub struct ModelFaults {
    /// Undo the late-Done fix at both of its sites: leave a requeued
    /// index in the queue when its result lands, and skip the
    /// status-recheck when popping the queue — so a completed cell can be
    /// re-leased and double-counted.
    pub keep_stale_queue_index: bool,
    /// Undo the fail-fast requeue gate: cells released after the sweep
    /// already failed go back on the queue instead of being skipped.
    pub skip_fail_fast_gate: bool,
    /// Undo the heartbeat ownership check: any connection can renew any
    /// lease id, keeping a dead worker's lease alive forever.
    pub heartbeat_any_lease: bool,
}

pub(crate) struct Shared {
    pub(crate) cfg: ClusterConfig,
    label: String,
    pub(crate) state: Mutex<State>,
    pub(crate) cv: Condvar,
    pub(crate) done: AtomicBool,
    journal: Option<Mutex<JournalWriter>>,
    /// Model-only observation channel: the fingerprint of every journal
    /// line the reorder buffer commits, in commit order. A plain std
    /// mutex so recording adds no scheduler decision points.
    #[cfg(bvc_check)]
    pub(crate) appended: std::sync::Mutex<Vec<u64>>,
    #[cfg(bvc_check)]
    pub(crate) faults: ModelFaults,
}

impl Shared {
    fn fault_keep_stale_queue_index(&self) -> bool {
        #[cfg(bvc_check)]
        return self.faults.keep_stale_queue_index;
        #[cfg(not(bvc_check))]
        false
    }

    fn fault_skip_fail_fast_gate(&self) -> bool {
        #[cfg(bvc_check)]
        return self.faults.skip_fail_fast_gate;
        #[cfg(not(bvc_check))]
        false
    }

    fn fault_heartbeat_any_lease(&self) -> bool {
        #[cfg(bvc_check)]
        return self.faults.heartbeat_any_lease;
        #[cfg(not(bvc_check))]
        false
    }

    /// Builds a `Shared` over `n` synthetic queued cells with no journal
    /// writer (the `appended` trace observes the reorder buffer instead)
    /// and no listener — model runs drive the state transitions directly.
    #[cfg(bvc_check)]
    pub(crate) fn for_model(n: usize, cfg: ClusterConfig, faults: ModelFaults) -> Shared {
        let cells: Vec<CellState> = (0..n)
            .map(|i| CellState {
                key: format!("cell{i}"),
                fp: 0x1000 + i as u64,
                spec: String::new(),
                status: CellStatus::Queued,
                dispatches: 0,
                outstanding: 0,
                replayed: false,
                skipped: false,
                result: None,
            })
            .collect();
        let by_fp = cells.iter().enumerate().map(|(i, c)| (c.fp, i)).collect();
        let queue: VecDeque<usize> = (0..n).collect();
        Shared {
            cfg,
            label: "model".into(),
            state: Mutex::new(State {
                cells,
                by_fp,
                queue,
                leases: HashMap::new(),
                next_lease: 0,
                workers: HashMap::new(),
                next_worker: 0,
                done_count: 0,
                failed: false,
                journal_cursor: 0,
                stats: Stats::default(),
                fatal: None,
            }),
            cv: Condvar::new(),
            done: AtomicBool::new(false),
            journal: None,
            appended: std::sync::Mutex::new(Vec::new()),
            faults,
        }
    }
}

pub(crate) fn lock_state<'a>(shared: &'a Shared) -> MutexGuard<'a, State> {
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// A bound-but-not-yet-running coordinator. Binding first (separate from
/// [`Coordinator::run`]) lets callers bind port 0 and learn the ephemeral
/// address before starting workers.
pub struct Coordinator {
    listener: TcpListener,
    cfg: ClusterConfig,
}

impl Coordinator {
    /// Binds the listen address.
    pub fn bind(addr: &str, cfg: ClusterConfig) -> Result<Coordinator, ClusterError> {
        let listener = TcpListener::bind(addr).map_err(|e| ClusterError::Bind(e.to_string()))?;
        Ok(Coordinator { listener, cfg })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, ClusterError> {
        self.listener.local_addr().map_err(|e| ClusterError::Bind(e.to_string()))
    }

    /// Runs the distributed sweep over `jobs` to completion: serves
    /// workers until every cell is terminal (done, lost, or skipped),
    /// then returns the report. The journal (when configured) is resumed
    /// from and appended to exactly like a local `run_sweep`.
    pub fn run(self, label: &str, jobs: &[JobSpec]) -> Result<ClusterReport, ClusterError> {
        let started = Instant::now();
        let cfg = self.cfg;
        let addr = self.listener.local_addr().map_err(|e| ClusterError::Bind(e.to_string()))?;
        if !cfg.quiet {
            eprintln!("cluster: coordinator listening on {addr}");
        }

        // --- Build cell states. ---
        let mut cells: Vec<CellState> = Vec::with_capacity(jobs.len());
        let mut by_fp = HashMap::new();
        for job in jobs {
            let key = job.key();
            let fp = cell_fingerprint(&key, &cfg.config_token);
            if let Some(&other) = by_fp.get(&fp) {
                let clash: &CellState = &cells[other];
                return Err(ClusterError::Setup(format!(
                    "cells '{}' and '{}' share fingerprint {fp:016x}",
                    clash.key, key
                )));
            }
            by_fp.insert(fp, cells.len());
            cells.push(CellState {
                key,
                fp,
                spec: job.encode(),
                status: CellStatus::Queued,
                dispatches: 0,
                outstanding: 0,
                replayed: false,
                skipped: false,
                result: None,
            });
        }

        // --- Resume: replay finished cells out of the journal. ---
        // Crash recovery: a coordinator killed mid-append leaves a torn
        // tail; recover_journal truncates it back to the last complete
        // line so the re-solved cell's line lands at exactly that offset
        // and the final journal stays byte-identical to an uninterrupted
        // run. In-flight leases need no recovery — they were in-memory
        // promises; their cells simply have no journal line and requeue.
        let mut done_count = 0usize;
        if let Some(path) = &cfg.journal {
            let recovered = recover_journal(path)
                .map_err(|e| ClusterError::Journal(format!("{}: {e}", path.display())))?;
            if recovered.truncated_bytes > 0 && !cfg.quiet {
                eprintln!(
                    "cluster: journal {}: truncated {} byte(s) of torn tail",
                    path.display(),
                    recovered.truncated_bytes
                );
            }
            for cell in &mut cells {
                if let Some(entry) = recovered.entries.get(&cell.fp) {
                    if entry.ok {
                        cell.status = CellStatus::Done;
                        cell.replayed = true;
                        cell.result = Some(DoneRec {
                            ok: true,
                            attempts: 0,
                            bits: entry.bits.clone(),
                            code: String::new(),
                            reason: String::new(),
                            elapsed: Duration::ZERO,
                        });
                        done_count += 1;
                    }
                }
            }
        }
        let journal = match &cfg.journal {
            Some(path) => Some(Mutex::new(
                JournalWriter::append_to(path, cfg.durability)
                    .map_err(|e| ClusterError::Journal(format!("{}: {e}", path.display())))?,
            )),
            None => None,
        };

        let queue: VecDeque<usize> = (0..cells.len()).filter(|&i| !cells[i].terminal()).collect();
        let n = cells.len();
        let shared = Shared {
            label: label.to_string(),
            state: Mutex::new(State {
                cells,
                by_fp,
                queue,
                leases: HashMap::new(),
                next_lease: 1,
                workers: HashMap::new(),
                next_worker: 1,
                done_count,
                failed: false,
                journal_cursor: 0,
                stats: Stats::default(),
                fatal: None,
            }),
            cv: Condvar::new(),
            done: AtomicBool::new(false),
            journal,
            cfg,
            #[cfg(bvc_check)]
            appended: std::sync::Mutex::new(Vec::new()),
            #[cfg(bvc_check)]
            faults: ModelFaults::default(),
        };
        {
            // Replayed prefix: move the journal cursor over it now.
            let mut st = lock_state(&shared);
            advance_journal(&mut st, &shared);
            if st.done_count == n {
                // ordering: SeqCst shutdown flag — cross-thread data flows through the state mutex; the flag only gates loops.
                shared.done.store(true, Ordering::SeqCst);
            }
        }

        let listener = self.listener;
        listener
            .set_nonblocking(true)
            .map_err(|e| ClusterError::Bind(format!("set_nonblocking: {e}")))?;

        std::thread::scope(|scope| {
            // Lease sweeper.
            scope.spawn(|| {
                let tick = (shared.cfg.lease / 4)
                    .clamp(Duration::from_millis(20), Duration::from_millis(500));
                // ordering: SeqCst shutdown flag — cross-thread data flows through the state mutex; the flag only gates loops.
                while !shared.done.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    let mut st = lock_state(&shared);
                    expire_leases(&mut st, &shared, Instant::now());
                }
            });

            // Acceptor: spawns one handler per connection.
            scope.spawn(|| loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        scope.spawn(|| handle_conn(&shared, stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        // ordering: SeqCst shutdown flag — cross-thread data flows through the state mutex; the flag only gates loops.
                        if shared.done.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => {
                        // ordering: SeqCst shutdown flag — cross-thread data flows through the state mutex; the flag only gates loops.
                        if shared.done.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            });

            // Main: wait for completion, narrate progress.
            let mut st = lock_state(&shared);
            let mut last_note = Instant::now();
            while st.fatal.is_none() && st.done_count < n {
                let (guard, _) = shared
                    .cv
                    .wait_timeout(st, Duration::from_millis(200))
                    .unwrap_or_else(|e| e.into_inner());
                st = guard;
                if !shared.cfg.quiet && last_note.elapsed() >= Duration::from_secs(2) {
                    last_note = Instant::now();
                    eprintln!(
                        "cluster: {}/{} cells done, {} queued, {} leased, {} worker(s)",
                        st.done_count,
                        n,
                        st.queue.len(),
                        st.cells.iter().filter(|c| c.status == CellStatus::Leased).count(),
                        st.workers.len(),
                    );
                }
            }
            drop(st);
            // ordering: SeqCst shutdown flag — cross-thread data flows through the state mutex; the flag only gates loops.
            shared.done.store(true, Ordering::SeqCst);
        });

        // Final journal drain + durability barrier: a transient append
        // error parks the reorder cursor (advance_journal retries on later
        // events); give it one last chance, then fsync per the policy.
        {
            let mut st = lock_state(&shared);
            advance_journal(&mut st, &shared);
        }
        if let Some(journal) = &shared.journal {
            let _ = journal.lock().unwrap_or_else(|e| e.into_inner()).sync();
        }

        // --- Build the report. ---
        let st = shared.state.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(fatal) = st.fatal {
            return Err(fatal);
        }
        let stats_text = render_stats(&st, &shared.cfg);
        let cells = st
            .cells
            .into_iter()
            .map(|c| {
                let outcome = match (&c.result, c.skipped) {
                    (_, true) | (None, _) => Err(CellFailure::Skipped),
                    (Some(rec), _) if rec.ok => {
                        Ok(rec.bits.iter().map(|&b| f64::from_bits(b)).collect())
                    }
                    (Some(rec), _) if rec.code == "lost" => {
                        Err(CellFailure::Lost { dispatches: c.dispatches })
                    }
                    (Some(rec), _) => Err(CellFailure::Remote {
                        code: rec.code.clone(),
                        message: rec.reason.clone(),
                    }),
                };
                ClusterCell {
                    key: c.key,
                    outcome,
                    attempts: c.result.as_ref().map_or(0, |r| r.attempts),
                    replayed: c.replayed,
                    elapsed: c.result.as_ref().map_or(Duration::ZERO, |r| r.elapsed),
                }
            })
            .collect();
        Ok(ClusterReport { label: shared.label, cells, wall: started.elapsed(), stats: stats_text })
    }
}

/// One-call convenience: bind `addr`, then [`Coordinator::run`].
pub fn run_coordinator(
    addr: &str,
    label: &str,
    jobs: &[JobSpec],
    cfg: ClusterConfig,
) -> Result<ClusterReport, ClusterError> {
    Coordinator::bind(addr, cfg)?.run(label, jobs)
}

// ---------------------------------------------------------------------------
// Connection handling
// ---------------------------------------------------------------------------

fn handle_conn(shared: &Shared, stream: TcpStream) {
    // Short read timeout = the poll tick at which a handler notices
    // shutdown and mid-frame stalls.
    let tick = (shared.cfg.lease / 4).clamp(Duration::from_millis(50), Duration::from_secs(1));
    if apply_deadlines(&stream, tick).is_err() {
        return;
    }
    let Ok((tx, mut rx)) = frame_pair(stream, MAX_FRAME_BYTES) else { return };
    let mut worker_id: Option<u64> = None;

    loop {
        // ordering: SeqCst shutdown flag — cross-thread data flows through the state mutex; the flag only gates loops.
        if shared.done.load(Ordering::SeqCst) {
            let _ = tx.send(&Frame::Fin.encode());
            break;
        }
        match rx.recv() {
            Ok(payload) => match Frame::decode(&payload) {
                Ok(frame) => {
                    if !handle_frame(shared, &tx, &mut worker_id, frame) {
                        break;
                    }
                }
                Err(msg) => {
                    let _ = tx.send(&Frame::Err { msg }.encode());
                    break;
                }
            },
            // Idle poll tick: no frame in flight, keep listening.
            Err(ReadError::TimedOut) if !rx.has_partial() => continue,
            // Torn frame (stalled mid-send), clean close, or transport
            // error: drop the peer. Its leases are released below.
            Err(_) => break,
        }
    }
    if let Some(id) = worker_id {
        let mut st = lock_state(shared);
        disconnect_worker(&mut st, shared, id);
    }
}

/// Drops a worker: deregisters it and releases every lease it holds (in
/// lease-id order, so replays are deterministic — `leases` is a HashMap
/// and its iteration order is not).
pub(crate) fn disconnect_worker(st: &mut State, shared: &Shared, id: u64) {
    st.workers.remove(&id);
    let mut held: Vec<u64> =
        st.leases.iter().filter(|(_, l)| l.worker == id).map(|(&lid, _)| lid).collect();
    held.sort_unstable();
    for lid in held {
        release_lease(st, shared, lid);
    }
}

/// Handles one decoded frame; returns false to drop the connection.
fn handle_frame(
    shared: &Shared,
    tx: &FrameSender,
    worker_id: &mut Option<u64>,
    frame: Frame,
) -> bool {
    match frame {
        Frame::Hello { proto, threads } => {
            if proto != PROTO_VERSION {
                let _ = tx.send(
                    &Frame::Err { msg: format!("protocol version {proto} != {PROTO_VERSION}") }
                        .encode(),
                );
                return false;
            }
            let mut st = lock_state(shared);
            let id = register_worker(&mut st, threads, Instant::now());
            drop(st);
            *worker_id = Some(id);
            let cell = &shared.cfg.cell;
            let cfgf = Frame::Config(WireConfig {
                label: shared.label.clone(),
                token: shared.cfg.config_token.clone(),
                audit: cell.audit,
                cell_deadline_ms: cell.cell_deadline.map(|d| d.as_millis() as u64),
                inject_panic: cell.inject_panic.clone(),
                inject_noconv: cell.inject_noconv.clone(),
                batch: shared.cfg.batch,
                lease_ms: shared.cfg.lease.as_millis() as u64,
            });
            tx.send(&cfgf.encode()).is_ok()
        }
        Frame::Stats => {
            let st = lock_state(shared);
            let text = render_stats(&st, &shared.cfg);
            drop(st);
            tx.send(&Frame::StatsText { text }.encode()).is_ok()
        }
        Frame::Claim { max } => {
            let Some(id) = *worker_id else {
                let _ = tx.send(&Frame::Err { msg: "claim before hello".into() }.encode());
                return false;
            };
            grant_batch(shared, tx, id, max)
        }
        Frame::Done(done) => {
            if worker_id.is_none() {
                let _ = tx.send(&Frame::Err { msg: "done before hello".into() }.encode());
                return false;
            }
            let mut st = lock_state(shared);
            if let Some(info) = worker_id.and_then(|id| st.workers.get_mut(&id)) {
                info.last_seen = Instant::now();
                info.done_cells += 1;
            }
            handle_done(&mut st, shared, done);
            true
        }
        Frame::Heartbeat { lease } => {
            let mut st = lock_state(shared);
            if let Some(info) = worker_id.and_then(|id| st.workers.get_mut(&id)) {
                info.last_seen = Instant::now();
            }
            renew_lease(&mut st, shared, *worker_id, lease, Instant::now() + shared.cfg.lease);
            true
        }
        // Coordinator-to-worker frames arriving here are protocol abuse.
        Frame::Config(_)
        | Frame::Task(_)
        | Frame::Grant { .. }
        | Frame::Wait { .. }
        | Frame::Fin
        | Frame::StatsText { .. }
        | Frame::Err { .. } => {
            let _ = tx.send(&Frame::Err { msg: "unexpected frame direction".into() }.encode());
            false
        }
    }
}

/// What [`claim_cells`] decided for one claim, before any frame I/O.
pub(crate) enum ClaimOutcome {
    /// The sweep hit a fatal error; the connection should be dropped.
    Fatal,
    /// Every cell is terminal; send `Fin` and drop the connection.
    Fin,
    /// Nothing to hand out right now; send a wait hint.
    Wait,
    /// A fresh lease over `tasks`.
    Grant {
        /// Lease id the worker must heartbeat and report against.
        lease_id: u64,
        /// The granted cells, in grant order.
        tasks: Vec<TaskFrame>,
    },
}

/// The claim state transition: pops queued cells (skipping indices made
/// stale by a late Done or fail-fast drain), falls back to a straggler
/// duplicate-dispatch, and records the new lease. Pure with respect to
/// `now` so the model checker can drive it with injected clocks; the
/// serving path passes `Instant::now()`.
pub(crate) fn claim_cells(
    st: &mut State,
    shared: &Shared,
    worker: u64,
    max: u32,
    now: Instant,
) -> ClaimOutcome {
    let n_cells = st.cells.len();
    if st.fatal.is_some() {
        return ClaimOutcome::Fatal;
    }
    if st.done_count == n_cells {
        return ClaimOutcome::Fin;
    }
    let take = max.clamp(1, 64) as usize;
    let mut picked: Vec<usize> = Vec::with_capacity(take);
    let mut straggler = false;
    while picked.len() < take {
        let Some(idx) = st.queue.pop_front() else { break };
        // A late Done (or fail-fast skip) can land while the index is
        // still queued; never re-lease a cell that is no longer Queued.
        if !shared.fault_keep_stale_queue_index() && st.cells[idx].status != CellStatus::Queued {
            continue;
        }
        picked.push(idx);
    }
    if picked.is_empty() && !(shared.cfg.fail_fast && st.failed) {
        // Straggler path: duplicate-dispatch a cell whose only lease
        // is at least half-expired, under the dispatch cap, and not
        // already held by this worker.
        let half = shared.cfg.lease / 2;
        let held_by_me: Vec<usize> = st
            .leases
            .values()
            .filter(|l| l.worker == worker)
            .flat_map(|l| l.cells.iter().copied())
            .collect();
        let mut cands: Vec<usize> = (0..n_cells)
            .filter(|&i| {
                let c = &st.cells[i];
                c.status == CellStatus::Leased
                    && c.outstanding == 1
                    && c.dispatches < shared.cfg.max_dispatch
                    && !held_by_me.contains(&i)
            })
            .filter(|&i| {
                st.leases.values().any(|l| l.cells.contains(&i) && now >= l.granted + half)
            })
            .collect();
        cands.sort_by_key(|&i| st.cells[i].dispatches);
        cands.truncate(1);
        if !cands.is_empty() {
            straggler = true;
            picked = cands;
        }
    }
    if picked.is_empty() {
        return ClaimOutcome::Wait;
    }
    let lease_id = st.next_lease;
    st.next_lease += 1;
    let mut tasks = Vec::with_capacity(picked.len());
    for &idx in &picked {
        let c = &mut st.cells[idx];
        c.status = CellStatus::Leased;
        c.outstanding += 1;
        c.dispatches += 1;
        tasks.push(TaskFrame { fp: c.fp, key: c.key.clone(), spec: c.spec.clone() });
    }
    st.stats.dispatches += picked.len() as u64;
    if straggler {
        st.stats.straggler_dispatches += picked.len() as u64;
    }
    st.leases.insert(
        lease_id,
        Lease { worker, cells: picked, granted: now, deadline: now + shared.cfg.lease },
    );
    ClaimOutcome::Grant { lease_id, tasks }
}

/// Answers a claim: a batch of queued cells, a straggler duplicate, a
/// wait hint, or fin. Returns false to drop the connection.
fn grant_batch(shared: &Shared, tx: &FrameSender, worker: u64, max: u32) -> bool {
    let outcome = {
        let mut st = lock_state(shared);
        claim_cells(&mut st, shared, worker, max, Instant::now())
    };
    match outcome {
        ClaimOutcome::Fatal => {
            let _ = tx.send(&Frame::Err { msg: "sweep aborted (fatal error)".into() }.encode());
            false
        }
        ClaimOutcome::Fin => {
            let _ = tx.send(&Frame::Fin.encode());
            false
        }
        ClaimOutcome::Wait => {
            let ms = (shared.cfg.lease.as_millis() as u64 / 4).clamp(50, 500);
            tx.send(&Frame::Wait { ms }.encode()).is_ok()
        }
        ClaimOutcome::Grant { lease_id, tasks } => {
            let count = tasks.len() as u32;
            for task in tasks {
                if tx.send(&Frame::Task(task).encode()).is_err() {
                    return false;
                }
            }
            let grant = Frame::Grant {
                lease: lease_id,
                count,
                lease_ms: shared.cfg.lease.as_millis() as u64,
            };
            tx.send(&grant.encode()).is_ok()
        }
    }
}

// ---------------------------------------------------------------------------
// State transitions (all called with the state lock held)
// ---------------------------------------------------------------------------

/// Registers a connection as a worker and returns its id.
pub(crate) fn register_worker(st: &mut State, threads: u32, now: Instant) -> u64 {
    let id = st.next_worker;
    st.next_worker += 1;
    st.workers.insert(id, WorkerInfo { threads, last_seen: now, done_cells: 0 });
    id
}

/// Renews one lease to `deadline`. Only the lease's own worker may renew
/// it: a stale or guessed lease id from another connection must not keep
/// a dead worker's lease alive past the expiry watchdog.
pub(crate) fn renew_lease(
    st: &mut State,
    shared: &Shared,
    worker_id: Option<u64>,
    lease: u64,
    deadline: Instant,
) {
    if let Some(l) = st.leases.get_mut(&lease) {
        if shared.fault_heartbeat_any_lease() || Some(l.worker) == worker_id {
            l.deadline = deadline;
        }
    }
}

/// Accepts or dedupes one result frame.
pub(crate) fn handle_done(st: &mut State, shared: &Shared, d: DoneFrame) {
    let Some(&idx) = st.by_fp.get(&d.fp) else {
        st.stats.unknown += 1;
        return;
    };
    if st.cells[idx].terminal() {
        // First result won. Identical duplicates (requeue races,
        // straggler double-dispatch) are counted and dropped; two
        // *successful* results with different bits are fatal.
        let conflicting = match &st.cells[idx].result {
            Some(prev) => prev.ok && d.ok && prev.bits != d.bits,
            None => false,
        };
        if conflicting {
            let key = st.cells[idx].key.clone();
            fail_fatal(st, shared, ClusterError::Conflict { key, fp: d.fp });
        } else {
            st.stats.duplicates += 1;
        }
        return;
    }
    let cell = &mut st.cells[idx];
    cell.result = Some(DoneRec {
        ok: d.ok,
        attempts: d.attempts,
        bits: d.bits,
        code: d.code,
        reason: d.reason,
        elapsed: Duration::from_micros(d.elapsed_us),
    });
    cell.status = CellStatus::Done;
    cell.outstanding = 0;
    let failed = !cell.result.as_ref().is_some_and(|r| r.ok);
    st.done_count += 1;
    // A lease expiry may have requeued this cell before its late Done
    // arrived; drop the stale index so it is never re-leased.
    if !shared.fault_keep_stale_queue_index() {
        st.queue.retain(|&q| q != idx);
    }
    // Release the cell from every lease still covering it.
    for lease in st.leases.values_mut() {
        lease.cells.retain(|&c| c != idx);
    }
    if failed {
        record_failure(st, shared);
    }
    advance_journal(st, shared);
    finish_if_done(st, shared);
}

/// Records that a cell failed. Under fail-fast this drains the queue
/// (queued cells are reported skipped) so no further cells are handed
/// out; [`release_lease`] and [`grant_batch`] consult `st.failed` so
/// cells requeued *after* the first failure are skipped too.
fn record_failure(st: &mut State, shared: &Shared) {
    st.failed = true;
    if shared.cfg.fail_fast {
        while let Some(q) = st.queue.pop_front() {
            let c = &mut st.cells[q];
            if c.status != CellStatus::Queued {
                continue;
            }
            c.status = CellStatus::Done;
            c.skipped = true;
            st.done_count += 1;
        }
    }
}

/// Releases one lease: unfinished cells are requeued, or marked lost at
/// the dispatch cap.
fn release_lease(st: &mut State, shared: &Shared, lease_id: u64) {
    let Some(lease) = st.leases.remove(&lease_id) else { return };
    for idx in lease.cells {
        let max_dispatch = shared.cfg.max_dispatch;
        let fail_fast_tripped =
            shared.cfg.fail_fast && st.failed && !shared.fault_skip_fail_fast_gate();
        let cell = &mut st.cells[idx];
        if cell.status != CellStatus::Leased {
            continue;
        }
        cell.outstanding = cell.outstanding.saturating_sub(1);
        if cell.outstanding > 0 {
            continue; // A duplicate dispatch is still live.
        }
        if cell.dispatches >= max_dispatch {
            let failure = CellFailure::Lost { dispatches: cell.dispatches };
            cell.result = Some(DoneRec {
                ok: false,
                attempts: cell.dispatches,
                bits: Vec::new(),
                code: failure.reason_code(),
                reason: failure.message(),
                elapsed: Duration::ZERO,
            });
            cell.status = CellStatus::Done;
            st.done_count += 1;
            record_failure(st, shared);
        } else if fail_fast_tripped {
            // The sweep already failed; do not re-dispatch this cell.
            cell.status = CellStatus::Done;
            cell.skipped = true;
            st.done_count += 1;
        } else {
            cell.status = CellStatus::Queued;
            st.queue.push_back(idx);
            st.stats.requeues += 1;
        }
    }
    advance_journal(st, shared);
    finish_if_done(st, shared);
}

/// Expires every lease whose deadline is at or before `now`, in lease-id
/// order (the `leases` map iterates in hash order, which would make the
/// requeue order — and hence grant order — nondeterministic).
pub(crate) fn expire_leases(st: &mut State, shared: &Shared, now: Instant) {
    let mut expired: Vec<u64> =
        st.leases.iter().filter(|(_, l)| l.deadline <= now).map(|(&id, _)| id).collect();
    expired.sort_unstable();
    for id in expired {
        st.stats.lease_expiries += 1;
        release_lease(st, shared, id);
    }
}

fn fail_fatal(st: &mut State, shared: &Shared, err: ClusterError) {
    if st.fatal.is_none() {
        st.fatal = Some(err);
    }
    // ordering: SeqCst shutdown flag — cross-thread data flows through the state mutex; the flag only gates loops.
    shared.done.store(true, Ordering::SeqCst);
    shared.cv.notify_all();
}

fn finish_if_done(st: &mut State, shared: &Shared) {
    if st.done_count == st.cells.len() {
        // ordering: SeqCst shutdown flag — cross-thread data flows through the state mutex; the flag only gates loops.
        shared.done.store(true, Ordering::SeqCst);
    }
    shared.cv.notify_all();
}

/// Writes journal lines for every terminal cell at the reorder-buffer
/// cursor, in input order, through the shared [`encode_line`] codec.
/// Replayed and skipped cells advance the cursor without a line — exactly
/// the lines a local `run_sweep` would append.
fn advance_journal(st: &mut State, shared: &Shared) {
    if st.fatal.is_some() {
        return;
    }
    while st.journal_cursor < st.cells.len() && st.cells[st.journal_cursor].terminal() {
        let cell = &st.cells[st.journal_cursor];
        if !(cell.replayed || cell.skipped || cell.result.is_none()) {
            // `result` is Some here by the check above.
            let Some(rec) = &cell.result else { break };
            if let Some(journal) = &shared.journal {
                let entry = JournalEntry {
                    fp: cell.fp,
                    key: cell.key.clone(),
                    ok: rec.ok,
                    attempts: rec.attempts,
                    bits: rec.bits.clone(),
                    reason: rec.reason.clone(),
                };
                let vals: Vec<f64> = rec.bits.iter().map(|&b| f64::from_bits(b)).collect();
                let line = encode_line(&entry, &vals);
                let mut writer = journal.lock().unwrap_or_else(|e| e.into_inner());
                if writer.append_line(&line).is_err() {
                    // The writer rolled the file back to the previous
                    // line boundary; park the cursor so the next advance
                    // retries this exact line — appending later cells
                    // first would break input order (and byte-identity).
                    st.stats.journal_retries += 1;
                    return;
                }
            }
            // The line is committed (or would be, absent a writer) —
            // record its fingerprint so model tests can assert each cell
            // is journaled exactly once, in input order.
            #[cfg(bvc_check)]
            shared.appended.lock().unwrap_or_else(|e| e.into_inner()).push(cell.fp);
        }
        st.journal_cursor += 1;
    }
}

fn render_stats(st: &State, cfg: &ClusterConfig) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let leased = st.cells.iter().filter(|c| c.status == CellStatus::Leased).count();
    let lost =
        st.cells.iter().filter(|c| c.result.as_ref().is_some_and(|r| r.code == "lost")).count();
    let replayed = st.cells.iter().filter(|c| c.replayed).count();
    let skipped = st.cells.iter().filter(|c| c.skipped).count();
    let _ = writeln!(out, "cluster_cells_total {}", st.cells.len());
    let _ = writeln!(out, "cluster_cells_done {}", st.done_count);
    let _ = writeln!(out, "cluster_cells_replayed {replayed}");
    let _ = writeln!(out, "cluster_cells_queued {}", st.queue.len());
    let _ = writeln!(out, "cluster_cells_leased {leased}");
    let _ = writeln!(out, "cluster_cells_lost {lost}");
    let _ = writeln!(out, "cluster_cells_skipped {skipped}");
    let _ = writeln!(out, "cluster_dispatches_total {}", st.stats.dispatches);
    let _ = writeln!(out, "cluster_straggler_dispatches_total {}", st.stats.straggler_dispatches);
    let _ = writeln!(out, "cluster_requeues_total {}", st.stats.requeues);
    let _ = writeln!(out, "cluster_lease_expiries_total {}", st.stats.lease_expiries);
    let _ = writeln!(out, "cluster_duplicate_results_total {}", st.stats.duplicates);
    let _ = writeln!(out, "cluster_unknown_results_total {}", st.stats.unknown);
    let _ = writeln!(out, "cluster_journal_retries_total {}", st.stats.journal_retries);
    let _ = writeln!(out, "cluster_workers_connected {}", st.workers.len());
    let _ = writeln!(out, "cluster_leases_active {}", st.leases.len());
    let _ = writeln!(out, "cluster_lease_ms {}", cfg.lease.as_millis());
    let _ = writeln!(out, "cluster_max_dispatch {}", cfg.max_dispatch);
    for (id, w) in &st.workers {
        let _ = writeln!(
            out,
            "cluster_worker{{id={id},threads={}}} last_seen_ms={} done_cells={}",
            w.threads,
            w.last_seen.elapsed().as_millis(),
            w.done_cells,
        );
    }
    out
}
