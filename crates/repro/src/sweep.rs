//! Fault-tolerant sweep runner: per-cell isolation, watchdogs with retry
//! escalation, and a checkpoint/resume journal.
//!
//! The table binaries sweep dozens of parameter cells, each an MDP solve
//! whose cost varies by orders of magnitude across the grid. Before this
//! module they ran through [`crate::parallel_map`], where one panicking or
//! non-converging cell aborted the whole binary and threw away every other
//! result. [`run_sweep`] instead treats each cell as an isolated unit of
//! work:
//!
//! * **Isolation** — a panic or structured [`MdpError`] marks that one cell
//!   failed; the rest of the grid still completes and renders (degraded)
//!   through [`crate::GridEntry::Failed`].
//! * **Watchdog + retry** — every attempt carries a [`SolveBudget`] with an
//!   optional per-cell wall-clock deadline, and
//!   [retryable](MdpError::is_retryable) failures are re-attempted with an
//!   escalated iteration budget and aperiodicity mixing (see
//!   [`RetryPolicy`] and [`CellContext`]).
//! * **Checkpoint/resume** — finished cells are appended to a JSONL journal
//!   keyed by a fingerprint of the cell key *and* the solver configuration;
//!   a rerun pointed at the same journal replays finished cells bit-for-bit
//!   and solves only missing or previously failed ones.
//!
//! Values cross the journal as `f64` bit patterns (hex), so a resumed grid
//! is *bit-identical* to an uninterrupted run — including `NaN` payloads,
//! signed zeros, and infinities that ordinary decimal round-tripping
//! mangles.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bvc_mdp::MdpError;

use crate::{Cell, GridEntry};

// ---------------------------------------------------------------------------
// Shared machinery (re-exported under its historical paths)
// ---------------------------------------------------------------------------

// The FNV-1a fingerprint and hex-f64 helpers live in `bvc-journal` so the
// `bvc-serve` result cache and the `bvc-cluster` wire protocol can key
// cells exactly the way this journal does.
pub use crate::fingerprint::{cell_fingerprint, fnv1a64};

// The journal line codec also lives in `bvc-journal`: the cluster
// coordinator writes journals through literally these functions, which is
// what makes a distributed journal byte-identical to a local one.
pub use bvc_journal::{
    encode_line, json_escape, load_journal, parse_journal_line, recover_journal, Durability,
    JournalEntry, JournalWriter,
};

// The per-cell attempt loop (watchdog budget, retry escalation, fault
// injection, panic isolation) lives in `bvc-cluster`'s [`bvc_cluster::cell`]
// so cluster workers run cells through literally the same code path as
// this local runner.
pub use bvc_cluster::cell::{
    run_cell_attempts, CellContext, CellFailure, CellRunConfig, RetryPolicy,
};

// The job registry: every table binary's cell grid as data, so the same
// grid can run locally or be shipped to cluster workers.
pub use bvc_cluster::jobs::{workload, JobSpec, Workload, WORKLOAD_NAMES};

use bvc_cluster::{run_coordinator, ClusterConfig};

// ---------------------------------------------------------------------------
// Journal values
// ---------------------------------------------------------------------------

/// A value that can cross the checkpoint journal as a flat list of `f64`s.
///
/// Encoding must be lossless: the journal stores the raw bit patterns, so
/// `decode(encode(v))` must reproduce `v` exactly for resume runs to be
/// bit-identical to clean runs.
pub trait SweepValue: Sized {
    /// Flattens the value for journaling.
    fn encode(&self) -> Vec<f64>;
    /// Rebuilds the value from a journal entry; `None` when the stored
    /// shape does not match (the entry is then treated as missing and the
    /// cell re-solved).
    fn decode(vals: &[f64]) -> Option<Self>;
}

impl SweepValue for f64 {
    fn encode(&self) -> Vec<f64> {
        vec![*self]
    }
    fn decode(vals: &[f64]) -> Option<Self> {
        match vals {
            [x] => Some(*x),
            _ => None,
        }
    }
}

impl SweepValue for Vec<f64> {
    fn encode(&self) -> Vec<f64> {
        self.clone()
    }
    fn decode(vals: &[f64]) -> Option<Self> {
        Some(vals.to_vec())
    }
}

// ---------------------------------------------------------------------------
// Per-cell results
// ---------------------------------------------------------------------------

/// Outcome of one sweep cell, in input order.
#[derive(Debug, Clone)]
pub struct CellResult<T> {
    /// The human-readable cell key (also the journal key).
    pub key: String,
    /// The value, or why there is none.
    pub outcome: Result<T, CellFailure>,
    /// Solve attempts made for this cell in this run (0 when replayed or
    /// skipped before the first attempt).
    pub attempts: u32,
    /// True when the value came from the checkpoint journal instead of a
    /// fresh solve.
    pub replayed: bool,
    /// Wall-clock time spent solving this cell in this run (all attempts).
    pub elapsed: Duration,
}

/// Everything [`run_sweep`] produced, cells in input order.
#[derive(Debug, Clone)]
pub struct SweepReport<T> {
    /// Sweep label (for the summary line).
    pub label: String,
    /// Per-cell outcomes, parallel to the input slice.
    pub cells: Vec<CellResult<T>>,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
}

impl<T> SweepReport<T> {
    /// Number of cells with a value (fresh or replayed).
    pub fn solved(&self) -> usize {
        self.cells.iter().filter(|c| c.outcome.is_ok()).count()
    }

    /// Number of cells whose value was replayed from the journal.
    pub fn replayed(&self) -> usize {
        self.cells.iter().filter(|c| c.replayed).count()
    }

    /// Number of cells that failed (panic, solver error, remote failure,
    /// or a cell lost to repeated worker deaths) — everything except
    /// fail-fast skips.
    pub fn failed(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(&c.outcome, Err(f) if !matches!(f, CellFailure::Skipped)))
            .count()
    }

    /// Number of cells skipped by fail-fast cancellation.
    pub fn skipped(&self) -> usize {
        self.cells.iter().filter(|c| matches!(&c.outcome, Err(CellFailure::Skipped))).count()
    }

    /// Total retry attempts beyond each cell's first (escalations).
    pub fn retries(&self) -> u32 {
        self.cells.iter().map(|c| c.attempts.saturating_sub(1)).sum()
    }

    /// True when any cell is without a value (failed or skipped).
    pub fn has_failures(&self) -> bool {
        self.solved() < self.cells.len()
    }

    /// The value of cell `i`, if it has one.
    pub fn value(&self, i: usize) -> Option<&T> {
        self.cells[i].outcome.as_ref().ok()
    }

    /// One-line machine-greppable summary. The `# sweep` prefix lets smoke
    /// scripts filter these lines out before diffing table output across
    /// runs (replay counts legitimately differ between a clean run and a
    /// resumed one).
    pub fn summary(&self) -> String {
        format!(
            "# sweep {}: {} cells | solved {} ({} replayed) | failed {} | skipped {} | retries {} | wall {:.2}s",
            self.label,
            self.cells.len(),
            self.solved(),
            self.replayed(),
            self.failed(),
            self.skipped(),
            self.retries(),
            self.wall.as_secs_f64(),
        )
    }

    /// Multi-line legend describing every failed/skipped cell, empty when
    /// the sweep is clean.
    pub fn failure_legend(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            if let Err(failure) = &c.outcome {
                let _ = writeln!(
                    out,
                    "# sweep {}: cell '{}' {} after {} attempt(s): {}",
                    self.label,
                    c.key,
                    failure.reason_code(),
                    c.attempts,
                    failure.message(),
                );
            }
        }
        out
    }

    /// Process exit code convention: `1` when any cell is missing a value.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.has_failures())
    }
}

impl<T: SweepValue> SweepReport<T> {
    /// One-line machine-readable summary of the whole sweep: every cell
    /// with its status, bit-exact value (`bits` hex patterns, decimal
    /// `vals` mirror) or failure reason, plus the aggregate counters.
    /// Printed by the sweep binaries under `--json` so the serve preloader
    /// and CI can consume results without scraping the rendered grid.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"sweep\":\"{}\",\"cells\":[", json_escape(&self.label));
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"key\":\"{}\"", json_escape(&c.key));
            match &c.outcome {
                Ok(value) => {
                    let vals = value.encode();
                    let _ = write!(out, ",\"status\":\"ok\",\"bits\":[");
                    for (j, v) in vals.iter().enumerate() {
                        let sep = if j > 0 { "," } else { "" };
                        let _ = write!(out, "{sep}\"{}\"", crate::fingerprint::f64_to_hex(*v));
                    }
                    let _ = write!(out, "],\"vals\":[");
                    for (j, v) in vals.iter().enumerate() {
                        let sep = if j > 0 { "," } else { "" };
                        if v.is_finite() {
                            let _ = write!(out, "{sep}{v}");
                        } else {
                            let _ = write!(out, "{sep}\"{v}\"");
                        }
                    }
                    out.push(']');
                }
                Err(CellFailure::Skipped) => {
                    let _ = write!(out, ",\"status\":\"skipped\"");
                }
                Err(failure) => {
                    let _ = write!(
                        out,
                        ",\"status\":\"fail\",\"code\":\"{}\",\"reason\":\"{}\"",
                        json_escape(&failure.reason_code()),
                        json_escape(&failure.message()),
                    );
                }
            }
            let _ = write!(
                out,
                ",\"attempts\":{},\"replayed\":{},\"elapsed_s\":{:.6}}}",
                c.attempts,
                c.replayed,
                c.elapsed.as_secs_f64(),
            );
        }
        let _ = write!(
            out,
            "],\"solved\":{},\"replayed\":{},\"failed\":{},\"skipped\":{},\"retries\":{},\"wall_s\":{:.3}}}",
            self.solved(),
            self.replayed(),
            self.failed(),
            self.skipped(),
            self.retries(),
            self.wall.as_secs_f64(),
        );
        out
    }
}

impl SweepReport<f64> {
    /// Builds the grid entry for cell `i`: a comparison [`Cell`] against the
    /// paper value on success, a `FAIL(reason)` marker otherwise.
    pub fn grid_entry(&self, i: usize, paper: Option<f64>) -> GridEntry {
        match &self.cells[i].outcome {
            Ok(v) => GridEntry::Value(Cell { paper, ours: *v }),
            Err(failure) => GridEntry::Failed(failure.reason_code()),
        }
    }
}

impl SweepReport<Vec<f64>> {
    /// Builds the grid entry comparing element `j` of cell `i`'s value
    /// vector against the paper value. A solved cell whose vector is too
    /// short renders as `FAIL(shape)` rather than panicking.
    pub fn grid_entry_at(&self, i: usize, j: usize, paper: Option<f64>) -> GridEntry {
        match &self.cells[i].outcome {
            Ok(v) => match v.get(j) {
                Some(x) => GridEntry::Value(Cell { paper, ours: *x }),
                None => GridEntry::Failed("shape".into()),
            },
            Err(failure) => GridEntry::Failed(failure.reason_code()),
        }
    }

    /// Builds the grid entry for cell `i` from the first element of its
    /// value vector (the scalar-sweep convention for job-registry sweeps).
    pub fn grid_entry(&self, i: usize, paper: Option<f64>) -> GridEntry {
        self.grid_entry_at(i, 0, paper)
    }

    /// The value vector of cell `i` as a fixed-size array, if the cell
    /// solved and the shape matches.
    pub fn value_array<const N: usize>(&self, i: usize) -> Option<[f64; N]> {
        let v = self.value(i)?;
        <[f64; N]>::try_from(v.as_slice()).ok()
    }
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Configuration of one [`run_sweep`] call.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Checkpoint journal path. `None` disables checkpointing.
    pub journal: Option<PathBuf>,
    /// Cancel the whole sweep at the first cell failure (remaining cells
    /// are reported as skipped).
    pub fail_fast: bool,
    /// Per-attempt wall-clock deadline for each cell.
    pub cell_deadline: Option<Duration>,
    /// Retry escalation schedule.
    pub retry: RetryPolicy,
    /// Worker thread override (defaults to available parallelism).
    pub threads: Option<usize>,
    /// Worker threads *inside* each cell's Bellman sweeps (sharded Jacobi
    /// kernel; results are bit-identical for every value). Thread-budget
    /// arbitration: ignored (forced to 1) whenever the sweep itself runs
    /// with more than one cell-level thread — cell-level parallelism has
    /// no synchronization cost, so it always wins the core budget.
    pub solve_threads: usize,
    /// Minimum states per intra-solve shard (`0` = solver default); small
    /// models stay single-threaded regardless of `solve_threads`.
    pub shard_min_states: usize,
    /// Fault injection: cells whose key contains any of these substrings
    /// panic instead of solving. Testing/smoke only.
    pub inject_panic: Vec<String>,
    /// Fault injection: cells whose key contains any of these substrings
    /// report `NoConvergence` instead of solving (on every attempt, so
    /// retries are exercised and then exhausted). Testing/smoke only.
    pub inject_noconv: Vec<String>,
    /// Run the static model audit before each cell's solve; cells whose
    /// model fails a check render as `FAIL(audit: <check>)` instead of
    /// producing an untrustworthy number.
    pub audit: bool,
    /// Solver configuration token mixed into cell fingerprints; see
    /// [`cell_fingerprint`]. Use `SolveOptions::fingerprint_token()`.
    pub config_token: String,
    /// Ask binaries to also print the machine-readable summary
    /// ([`SweepReport::to_json`]) after the human-readable grid, so the
    /// serve preloader and CI can consume sweep results without scraping
    /// text.
    pub json: bool,
    /// Distribute the sweep: bind a cluster coordinator on this address
    /// (`host:port`, port 0 for ephemeral) and shard cells across
    /// connecting `bvc cluster work` processes instead of solving
    /// in-process. Only job-registry sweeps ([`run_jobs`]) support this.
    pub cluster: Option<String>,
    /// Cluster lease duration override (default 30s).
    pub lease: Option<Duration>,
    /// Cluster claim-batch-size override (default 4 cells per claim).
    pub cluster_batch: Option<u32>,
    /// Fsync policy for journal appends (`--durability none|batch|always`).
    pub durability: Durability,
    /// Validated chaos fault-plan spec (`--chaos`); installed process-wide
    /// by [`SweepOptions::from_cli_or_exit`] (binaries) — library callers
    /// install it themselves via [`bvc_chaos::install_spec`].
    pub chaos: Option<String>,
}

impl SweepOptions {
    /// Parses the sweep-related flags out of a CLI argument list, returning
    /// the options and every argument it did not consume (the binary's own
    /// flags, e.g. `--quick`).
    ///
    /// Recognized flags:
    /// `--journal PATH`, `--fail-fast`, `--cell-deadline SECONDS`,
    /// `--retries N` (extra attempts after the first), `--threads N`,
    /// `--solve-threads N`, `--shard-min-states N`, `--audit`, `--json`,
    /// `--inject-panic SUBSTR`, `--inject-noconv SUBSTR` (the last two
    /// repeatable), `--cluster HOST:PORT`, `--lease SECONDS`,
    /// `--cluster-batch N`.
    ///
    /// Returns `Err` with a usage message on a malformed flag (missing or
    /// unparseable value) instead of panicking; binaries print it and exit
    /// nonzero.
    pub fn from_cli<I: IntoIterator<Item = String>>(
        args: I,
    ) -> Result<(SweepOptions, Vec<String>), String> {
        let mut opts = SweepOptions::default();
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        }
        fn parse<T: std::str::FromStr>(raw: String, what: &str) -> Result<T, String> {
            raw.parse().map_err(|_| format!("{what}, got {raw:?}"))
        }
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--journal" => opts.journal = Some(PathBuf::from(value(&mut it, "--journal")?)),
                "--fail-fast" => opts.fail_fast = true,
                "--audit" => opts.audit = true,
                "--json" => opts.json = true,
                "--cell-deadline" => {
                    let secs: f64 =
                        parse(value(&mut it, "--cell-deadline")?, "--cell-deadline takes seconds")?;
                    opts.cell_deadline = Some(Duration::from_secs_f64(secs));
                }
                "--retries" => {
                    let n: u32 = parse(value(&mut it, "--retries")?, "--retries takes a count")?;
                    opts.retry = RetryPolicy::with_retries(n);
                }
                "--threads" => {
                    let n: usize = parse(value(&mut it, "--threads")?, "--threads takes a count")?;
                    opts.threads = Some(n.max(1));
                }
                "--solve-threads" => {
                    let n: usize =
                        parse(value(&mut it, "--solve-threads")?, "--solve-threads takes a count")?;
                    opts.solve_threads = n.max(1);
                }
                "--shard-min-states" => {
                    let n: usize = parse(
                        value(&mut it, "--shard-min-states")?,
                        "--shard-min-states takes a count",
                    )?;
                    opts.shard_min_states = n;
                }
                "--inject-panic" => opts.inject_panic.push(value(&mut it, "--inject-panic")?),
                "--inject-noconv" => opts.inject_noconv.push(value(&mut it, "--inject-noconv")?),
                "--cluster" => opts.cluster = Some(value(&mut it, "--cluster")?),
                "--lease" => {
                    let secs: f64 = parse(value(&mut it, "--lease")?, "--lease takes seconds")?;
                    opts.lease = Some(Duration::from_secs_f64(secs));
                }
                "--cluster-batch" => {
                    let n: u32 =
                        parse(value(&mut it, "--cluster-batch")?, "--cluster-batch takes a count")?;
                    opts.cluster_batch = Some(n.max(1));
                }
                "--durability" => {
                    let raw = value(&mut it, "--durability")?;
                    opts.durability = Durability::parse(&raw).ok_or_else(|| {
                        format!("--durability takes none|batch|always, got {raw:?}")
                    })?;
                }
                "--chaos" => {
                    let spec = value(&mut it, "--chaos")?;
                    bvc_chaos::FaultPlan::parse(&spec).map_err(|e| format!("--chaos: {e}"))?;
                    opts.chaos = Some(spec);
                }
                _ => rest.push(arg),
            }
        }
        Ok((opts, rest))
    }

    /// [`SweepOptions::from_cli`] for binary `main`s: prints the error and
    /// exits with status 2 on a malformed flag instead of returning (no
    /// panic backtrace on bad arguments).
    pub fn from_cli_or_exit<I: IntoIterator<Item = String>>(
        args: I,
    ) -> (SweepOptions, Vec<String>) {
        let parsed = match Self::from_cli(args) {
            Ok(parsed) => parsed,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        };
        // Install the chaos plan process-wide: the `--chaos` flag wins,
        // otherwise `BVC_CHAOS` from the environment applies (so whole
        // pipelines can be fault-injected without threading a flag).
        let install = match &parsed.0.chaos {
            Some(spec) => bvc_chaos::install_spec(spec),
            None => bvc_chaos::install_from_env().map(|_| ()),
        };
        if let Err(msg) = install {
            eprintln!("error: chaos plan: {msg}");
            std::process::exit(2);
        }
        parsed
    }
}

// ---------------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------------

/// Runs `solve` over every input with per-cell fault isolation, watchdog
/// budgets, retry escalation, and (optionally) a checkpoint journal.
///
/// * `key_of` must produce a unique, stable, human-readable key per cell —
///   it names the cell in failure legends and identifies it across runs in
///   the journal.
/// * `solve` receives the input and a [`CellContext`]; it must thread
///   `ctx.budget` into its solver options (e.g. via
///   [`CellContext::solve_options`]) for deadlines and fail-fast
///   cancellation to be able to interrupt it.
///
/// The returned report has one entry per input, in input order, regardless
/// of how many cells failed. `run_sweep` itself never panics on cell
/// failures.
pub fn run_sweep<Inp, T, K, F>(
    label: &str,
    inputs: &[Inp],
    opts: &SweepOptions,
    key_of: K,
    solve: F,
) -> SweepReport<T>
where
    Inp: Sync,
    T: SweepValue + Send,
    K: Fn(&Inp) -> String,
    F: Fn(&Inp, &CellContext) -> Result<T, MdpError> + Sync,
{
    let started = Instant::now();
    let n = inputs.len();
    let keys: Vec<String> = inputs.iter().map(&key_of).collect();
    let fps: Vec<u64> = keys.iter().map(|k| cell_fingerprint(k, &opts.config_token)).collect();

    let mut slots: Vec<Option<CellResult<T>>> = (0..n).map(|_| None).collect();

    // Resume: replay finished cells out of the journal; failed or missing
    // entries are re-solved.
    if let Some(path) = &opts.journal {
        // Crash recovery: truncate any torn tail (a crash mid-append) back
        // to the last complete line before replaying, so the re-appended
        // line lands at the same byte offset an uninterrupted run used.
        let journal = recover_journal(path)
            .unwrap_or_else(|e| panic!("cannot recover journal {}: {e}", path.display()));
        if journal.truncated_bytes > 0 {
            eprintln!(
                "sweep {label}: journal {}: truncated {} byte(s) of torn tail",
                path.display(),
                journal.truncated_bytes
            );
        }
        for i in 0..n {
            if let Some(entry) = journal.entries.get(&fps[i]) {
                if entry.ok {
                    let vals: Vec<f64> = entry.bits.iter().map(|&b| f64::from_bits(b)).collect();
                    if let Some(value) = T::decode(&vals) {
                        slots[i] = Some(CellResult {
                            key: keys[i].clone(),
                            outcome: Ok(value),
                            attempts: 0,
                            replayed: true,
                            elapsed: Duration::ZERO,
                        });
                    }
                }
            }
        }
    }

    let pending: Vec<usize> = (0..n).filter(|&i| slots[i].is_none()).collect();
    let writer = opts.journal.as_ref().map(|path| {
        Mutex::new(
            JournalWriter::append_to(path, opts.durability)
                .unwrap_or_else(|e| panic!("cannot open journal {}: {e}", path.display())),
        )
    });

    let cancel = Arc::new(AtomicBool::new(false));
    let cursor = AtomicUsize::new(0);
    let slots_mx = Mutex::new(slots);
    let threads = opts
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4))
        .min(pending.len().max(1));

    // The shared per-cell attempt loop — literally the code a cluster
    // worker runs, which is what keeps local and distributed journals
    // byte-identical.
    let cell_cfg = CellRunConfig {
        retry: opts.retry.clone(),
        cell_deadline: opts.cell_deadline,
        audit: opts.audit,
        // Thread-budget arbitration: cell-level parallelism wins. Sharded
        // solves only engage when cells run one at a time.
        solve_threads: if threads > 1 { 1 } else { opts.solve_threads.max(1) },
        shard_min_states: opts.shard_min_states,
        inject_panic: opts.inject_panic.clone(),
        inject_noconv: opts.inject_noconv.clone(),
    };

    let solve_cell = |i: usize| -> CellResult<T> {
        let key = &keys[i];
        let cell_started = Instant::now();
        let (outcome, attempts) =
            run_cell_attempts(key, &cell_cfg, &cancel, |ctx| solve(&inputs[i], ctx));

        // Journal terminal outcomes. Skips are deliberately not journaled:
        // the cell was never really attempted and must re-solve on resume.
        let journaled = match &outcome {
            Ok(value) => Some((true, value.encode(), String::new())),
            Err(CellFailure::Skipped) => None,
            Err(f) => Some((false, Vec::new(), f.message())),
        };
        if let (Some(writer), Some((ok, vals, reason))) = (&writer, journaled) {
            let entry = JournalEntry {
                fp: fps[i],
                key: key.clone(),
                ok,
                attempts,
                bits: vals.iter().map(|v| v.to_bits()).collect(),
                reason,
            };
            let line = encode_line(&entry, &vals);
            // A worker panicking while holding the lock poisons it; the
            // journal file itself is still usable, so recover the guard.
            let mut file = writer.lock().unwrap_or_else(|e| e.into_inner());
            // A failed append rolled the file back to the previous line
            // boundary, so a retry re-appends the identical bytes. Give a
            // transiently faulted disk a few chances; a line lost past
            // that degrades to re-solving this cell on resume.
            for _ in 0..3 {
                if file.append_line(&line).is_ok() {
                    break;
                }
            }
        }

        if opts.fail_fast && matches!(&outcome, Err(f) if !matches!(f, CellFailure::Skipped)) {
            // ordering: Relaxed — best-effort cancel hint; results are joined through the scope barrier.
            cancel.store(true, Ordering::Relaxed);
        }
        CellResult {
            key: key.clone(),
            outcome,
            attempts,
            replayed: false,
            elapsed: cell_started.elapsed(),
        }
    };

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // ordering: Relaxed — a stale read solves at most one extra cell.
                if cancel.load(Ordering::Relaxed) {
                    return;
                }
                // ordering: Relaxed — the RMW itself is the claim; cell results flow through their own slots.
                let p = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = pending.get(p) else { return };
                let result = solve_cell(i);
                slots_mx.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(result);
            });
        }
    });

    // Durability barrier: under `batch`, appends since the last sync-every-N
    // boundary are only flushed, not fsynced — close the window here.
    if let Some(writer) = &writer {
        let _ = writer.lock().unwrap_or_else(|e| e.into_inner()).sync();
    }

    let cells = slots_mx
        .into_inner()
        .unwrap_or_else(|e| e.into_inner())
        .into_iter()
        .zip(keys)
        .map(|(slot, key)| {
            slot.unwrap_or(CellResult {
                key,
                outcome: Err(CellFailure::Skipped),
                attempts: 0,
                replayed: false,
                elapsed: Duration::ZERO,
            })
        })
        .collect();

    SweepReport { label: label.to_string(), cells, wall: started.elapsed() }
}

// ---------------------------------------------------------------------------
// Execution: local threads or a cluster coordinator
// ---------------------------------------------------------------------------

/// Runs a job-registry sweep in-process via [`run_sweep`], or, when
/// `--cluster` was given, through a `bvc-cluster` coordinator that shards
/// the cells across connecting workers. Infrastructure failures (bind
/// error, journal error, determinism conflict) print and exit 2 (matching
/// the malformed-flag convention); cell failures are reported in the
/// report.
pub fn run_jobs(label: &str, jobs: &[JobSpec], opts: &SweepOptions) -> SweepReport<Vec<f64>> {
    match &opts.cluster {
        None => run_sweep(label, jobs, opts, JobSpec::key, |job, ctx| job.solve(ctx)),
        Some(addr) => run_coordinated(addr, label, jobs, opts).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
    }
}

/// The `--cluster` branch of [`run_jobs`]. The journal, fingerprints,
/// retry schedule and fail-fast semantics all come from the same
/// [`SweepOptions`] a local run uses, so the resulting journal is
/// byte-identical to a local `--threads 1` run over the same cells.
fn run_coordinated(
    addr: &str,
    label: &str,
    jobs: &[JobSpec],
    opts: &SweepOptions,
) -> Result<SweepReport<Vec<f64>>, String> {
    let cfg = ClusterConfig {
        config_token: opts.config_token.clone(),
        journal: opts.journal.clone(),
        cell: CellRunConfig {
            retry: opts.retry.clone(),
            cell_deadline: opts.cell_deadline,
            audit: opts.audit,
            // Never shipped over the wire: each worker applies its own
            // local --solve-threads (see CellRunConfig docs).
            solve_threads: 1,
            shard_min_states: 0,
            inject_panic: opts.inject_panic.clone(),
            inject_noconv: opts.inject_noconv.clone(),
        },
        lease: opts.lease.unwrap_or(Duration::from_secs(30)),
        batch: opts.cluster_batch.unwrap_or(4),
        fail_fast: opts.fail_fast,
        durability: opts.durability,
        ..ClusterConfig::default()
    };
    let report = run_coordinator(addr, label, jobs, cfg).map_err(|e| e.to_string())?;
    for line in report.stats.lines() {
        eprintln!("# {line}");
    }
    Ok(SweepReport {
        label: report.label,
        cells: report
            .cells
            .into_iter()
            .map(|c| CellResult {
                key: c.key,
                outcome: c.outcome,
                attempts: c.attempts,
                replayed: c.replayed,
                elapsed: c.elapsed,
            })
            .collect(),
        wall: report.wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_mdp::solve::SolveOptions;
    use bvc_mdp::SolveBudget;
    use std::sync::atomic::AtomicU32;

    fn tmp_journal(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("bvc_sweep_{tag}_{}_{n}.jsonl", std::process::id()))
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy { backoff: Duration::ZERO, ..Default::default() }
    }

    #[test]
    fn fingerprint_depends_on_config_token() {
        assert_ne!(cell_fingerprint("k", "a"), cell_fingerprint("k", "b"));
        assert_ne!(cell_fingerprint("k1", "a"), cell_fingerprint("k2", "a"));
        assert_eq!(cell_fingerprint("k", "a"), cell_fingerprint("k", "a"));
    }

    #[test]
    fn clean_sweep_preserves_input_order() {
        let inputs: Vec<f64> = (0..20).map(f64::from).collect();
        let report = run_sweep(
            "t",
            &inputs,
            &SweepOptions::default(),
            |x| format!("x={x}"),
            |x, _ctx| Ok(x * 2.0),
        );
        assert!(!report.has_failures());
        assert_eq!(report.solved(), 20);
        for (i, x) in inputs.iter().enumerate() {
            assert_eq!(*report.value(i).unwrap(), x * 2.0);
        }
    }

    #[test]
    fn panicking_cell_is_isolated() {
        let inputs: Vec<u32> = (0..8).collect();
        let report = run_sweep(
            "t",
            &inputs,
            &SweepOptions::default(),
            |x| format!("x={x}"),
            |x, _ctx| {
                if *x == 3 {
                    panic!("boom {x}");
                }
                Ok(f64::from(*x))
            },
        );
        assert_eq!(report.failed(), 1);
        assert_eq!(report.solved(), 7);
        let failed = &report.cells[3];
        assert!(matches!(&failed.outcome, Err(CellFailure::Panicked(m)) if m.contains("boom 3")));
        // Panics are never retried.
        assert_eq!(failed.attempts, 1);
        assert!(report.summary().contains("failed 1"));
        assert!(report.failure_legend().contains("x=3"));
    }

    #[test]
    fn injected_faults_match_by_key_substring() {
        let inputs: Vec<u32> = (0..4).collect();
        let opts = SweepOptions {
            inject_panic: vec!["x=1".into()],
            inject_noconv: vec!["x=2".into()],
            retry: fast_retry(),
            ..Default::default()
        };
        let report = run_sweep("t", &inputs, &opts, |x| format!("x={x}"), |x, _| Ok(f64::from(*x)));
        assert_eq!(report.solved(), 2);
        assert_eq!(report.failed(), 2);
        assert!(matches!(&report.cells[1].outcome, Err(CellFailure::Panicked(_))));
        assert!(matches!(
            &report.cells[2].outcome,
            Err(CellFailure::Solver(MdpError::NoConvergence { .. }))
        ));
        // The injected NoConvergence exhausted the full retry schedule.
        assert_eq!(report.cells[2].attempts, opts.retry.max_attempts);
        assert_eq!(report.grid_entry(1, None), GridEntry::Failed("panic".into()));
    }

    #[test]
    fn retry_escalation_reaches_success() {
        let inputs = [0u32];
        let report = run_sweep(
            "t",
            &inputs,
            &SweepOptions { retry: fast_retry(), ..Default::default() },
            |_| "cell".into(),
            |_, ctx| {
                if ctx.attempt == 0 {
                    assert_eq!(ctx.iteration_scale, 1.0);
                    assert_eq!(ctx.tau_offset, 0.0);
                    Err(MdpError::NoConvergence { solver: "x", iterations: 1, residual: 1.0 })
                } else {
                    assert!(ctx.iteration_scale > 1.0, "budget must escalate");
                    assert!(ctx.tau_offset > 0.0, "tau must escalate");
                    Ok(1.0)
                }
            },
        );
        assert_eq!(report.solved(), 1);
        assert_eq!(report.cells[0].attempts, 2);
        assert_eq!(report.retries(), 1);
    }

    #[test]
    fn non_retryable_errors_fail_immediately() {
        let inputs = [0u32];
        let report = run_sweep(
            "t",
            &inputs,
            &SweepOptions { retry: fast_retry(), ..Default::default() },
            |_| "cell".into(),
            |_, _| -> Result<f64, MdpError> {
                Err(MdpError::Shape { what: "warm start", found: 1, expected: 2 })
            },
        );
        assert_eq!(report.cells[0].attempts, 1);
        assert!(matches!(
            &report.cells[0].outcome,
            Err(CellFailure::Solver(MdpError::Shape { .. }))
        ));
    }

    #[test]
    fn fail_fast_skips_remaining_cells_serially() {
        let inputs: Vec<u32> = (0..10).collect();
        let executed = AtomicU32::new(0);
        let opts = SweepOptions {
            fail_fast: true,
            threads: Some(1),
            retry: fast_retry(),
            ..Default::default()
        };
        let report = run_sweep(
            "t",
            &inputs,
            &opts,
            |x| format!("x={x}"),
            |x, _| {
                executed.fetch_add(1, Ordering::SeqCst);
                if *x == 2 {
                    panic!("boom");
                }
                Ok(f64::from(*x))
            },
        );
        assert_eq!(executed.load(Ordering::SeqCst), 3, "must stop claiming after the failure");
        assert_eq!(report.solved(), 2);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.skipped(), 7);
        assert!(report.has_failures());
        assert_eq!(report.exit_code(), 1);
    }

    #[test]
    fn cancelled_solver_error_counts_as_skipped() {
        let inputs = [0u32];
        let report = run_sweep(
            "t",
            &inputs,
            &SweepOptions::default(),
            |_| "cell".into(),
            |_, _| -> Result<f64, MdpError> {
                Err(MdpError::Cancelled { solver: "x", iterations: 5 })
            },
        );
        assert_eq!(report.skipped(), 1);
        assert_eq!(report.failed(), 0);
    }

    #[test]
    fn deadline_is_threaded_into_the_cell_budget() {
        let inputs = [0u32];
        let opts = SweepOptions {
            cell_deadline: Some(Duration::ZERO),
            retry: RetryPolicy { max_attempts: 1, ..fast_retry() },
            ..Default::default()
        };
        let report = run_sweep(
            "t",
            &inputs,
            &opts,
            |_| "cell".into(),
            |_, ctx| -> Result<f64, MdpError> {
                // A compliant solve function checks its budget; with a zero
                // deadline the check fires on the first interval boundary.
                ctx.budget.check("test_solver", 0)?;
                Ok(1.0)
            },
        );
        assert!(matches!(
            &report.cells[0].outcome,
            Err(CellFailure::Solver(MdpError::DeadlineExceeded { .. }))
        ));
    }

    #[test]
    fn journal_resume_replays_without_resolving() {
        let path = tmp_journal("resume");
        let inputs: Vec<u32> = (0..6).collect();
        let solves = AtomicU32::new(0);
        let opts = SweepOptions {
            journal: Some(path.clone()),
            config_token: "cfg-a".into(),
            ..Default::default()
        };
        let solve = |x: &u32, _ctx: &CellContext| {
            solves.fetch_add(1, Ordering::SeqCst);
            Ok(f64::from(*x) * 3.0)
        };
        let first = run_sweep("t", &inputs, &opts, |x| format!("x={x}"), solve);
        assert_eq!(first.solved(), 6);
        assert_eq!(solves.load(Ordering::SeqCst), 6);

        let second = run_sweep("t", &inputs, &opts, |x| format!("x={x}"), solve);
        assert_eq!(second.solved(), 6);
        assert_eq!(second.replayed(), 6);
        assert_eq!(solves.load(Ordering::SeqCst), 6, "no cell may re-solve");
        for i in 0..6 {
            assert_eq!(
                second.value(i).unwrap().to_bits(),
                first.value(i).unwrap().to_bits(),
                "replayed values must be bit-identical"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_cells_resolve_on_resume() {
        let path = tmp_journal("refail");
        let inputs: Vec<u32> = (0..3).collect();
        let base =
            SweepOptions { journal: Some(path.clone()), retry: fast_retry(), ..Default::default() };
        let broken = SweepOptions { inject_panic: vec!["x=1".into()], ..base.clone() };
        let first =
            run_sweep("t", &inputs, &broken, |x| format!("x={x}"), |x, _| Ok(f64::from(*x)));
        assert_eq!(first.failed(), 1);

        // Injection removed: only the failed cell re-solves.
        let solves = AtomicU32::new(0);
        let second = run_sweep(
            "t",
            &inputs,
            &base,
            |x| format!("x={x}"),
            |x, _| {
                solves.fetch_add(1, Ordering::SeqCst);
                Ok(f64::from(*x))
            },
        );
        assert_eq!(second.solved(), 3);
        assert_eq!(second.replayed(), 2);
        assert_eq!(solves.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn changed_config_token_invalidates_the_journal() {
        let path = tmp_journal("stale");
        let inputs: Vec<u32> = (0..4).collect();
        let mk = |token: &str| SweepOptions {
            journal: Some(path.clone()),
            config_token: token.into(),
            ..Default::default()
        };
        let solves = AtomicU32::new(0);
        let solve = |x: &u32, _: &CellContext| {
            solves.fetch_add(1, Ordering::SeqCst);
            Ok(f64::from(*x))
        };
        run_sweep("t", &inputs, &mk("tol=1e-5"), |x| format!("x={x}"), solve);
        assert_eq!(solves.load(Ordering::SeqCst), 4);
        // Tighter tolerances: every fingerprint changes, nothing replays.
        let report = run_sweep("t", &inputs, &mk("tol=1e-9"), |x| format!("x={x}"), solve);
        assert_eq!(report.replayed(), 0);
        assert_eq!(solves.load(Ordering::SeqCst), 8);
        // Back to the original config: those entries are still valid.
        let report = run_sweep("t", &inputs, &mk("tol=1e-5"), |x| format!("x={x}"), solve);
        assert_eq!(report.replayed(), 4);
        assert_eq!(solves.load(Ordering::SeqCst), 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn vec_values_roundtrip_through_the_journal() {
        let path = tmp_journal("vec");
        let inputs = [2u32];
        let opts = SweepOptions { journal: Some(path.clone()), ..Default::default() };
        let value = vec![1.5, f64::NAN, -0.0];
        let first = run_sweep("t", &inputs, &opts, |_| "cell".into(), |_, _| Ok(value.clone()));
        let second = run_sweep(
            "t",
            &inputs,
            &opts,
            |_| "cell".into(),
            |_, _| Err::<Vec<f64>, _>(MdpError::Empty),
        );
        assert_eq!(second.replayed(), 1);
        let (a, b) = (first.value(0).unwrap(), second.value(0).unwrap());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn to_json_reports_every_cell_bit_exactly() {
        let inputs: Vec<u32> = (0..3).collect();
        let opts = SweepOptions {
            inject_panic: vec!["x=1".into()],
            retry: fast_retry(),
            json: true,
            ..Default::default()
        };
        let report = run_sweep(
            "t \"json\"",
            &inputs,
            &opts,
            |x| format!("x={x}"),
            |x, _| if *x == 2 { Ok(f64::NAN) } else { Ok(f64::from(*x)) },
        );
        let json = report.to_json();
        assert!(json.starts_with("{\"sweep\":\"t \\\"json\\\"\""), "{json}");
        assert!(json.contains("\"status\":\"fail\""), "{json}");
        assert!(json.contains("\"code\":\"panic\""), "{json}");
        // NaN crosses as its bit pattern plus a quoted decimal mirror.
        assert!(
            json.contains(&format!("\"{}\"", crate::fingerprint::f64_to_hex(f64::NAN))),
            "{json}"
        );
        assert!(json.contains("\"vals\":[\"NaN\"]"), "{json}");
        assert!(json.contains("\"solved\":2,"), "{json}");
        // The whole line must survive the journal-grade parser's string
        // escaping rules: parse the key back out via a journal line.
        assert!(json.contains("\"key\":\"x=1\""), "{json}");
    }

    #[test]
    fn from_cli_parses_sweep_flags_and_passes_the_rest() {
        let args = [
            "--quick",
            "--journal",
            "/tmp/j.jsonl",
            "--fail-fast",
            "--cell-deadline",
            "2.5",
            "--retries",
            "4",
            "--threads",
            "2",
            "--solve-threads",
            "4",
            "--shard-min-states",
            "512",
            "--inject-panic",
            "a=15%",
            "--inject-noconv",
            "a=20%",
            "--audit",
            "--json",
            "--cluster",
            "127.0.0.1:0",
            "--lease",
            "1.5",
            "--cluster-batch",
            "8",
            "--setting1-only",
        ]
        .map(String::from);
        let (opts, rest) = SweepOptions::from_cli(args).unwrap();
        assert_eq!(opts.journal.as_deref(), Some(std::path::Path::new("/tmp/j.jsonl")));
        assert!(opts.fail_fast);
        assert_eq!(opts.cell_deadline, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(opts.retry.max_attempts, 5);
        assert_eq!(opts.threads, Some(2));
        assert_eq!(opts.solve_threads, 4);
        assert_eq!(opts.shard_min_states, 512);
        assert_eq!(opts.inject_panic, vec!["a=15%".to_string()]);
        assert_eq!(opts.inject_noconv, vec!["a=20%".to_string()]);
        assert!(opts.audit);
        assert!(opts.json);
        assert_eq!(opts.cluster.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(opts.lease, Some(Duration::from_secs_f64(1.5)));
        assert_eq!(opts.cluster_batch, Some(8));
        assert_eq!(rest, vec!["--quick".to_string(), "--setting1-only".to_string()]);
    }

    #[test]
    fn from_cli_rejects_malformed_flags() {
        let missing = SweepOptions::from_cli(["--journal".to_string()]);
        assert!(missing.is_err(), "{missing:?}");
        let bad = SweepOptions::from_cli(["--retries".to_string(), "many".to_string()]);
        let msg = bad.unwrap_err();
        assert!(msg.contains("--retries"), "{msg}");
        assert!(msg.contains("many"), "{msg}");
    }

    #[test]
    fn solve_options_apply_escalation() {
        let ctx = CellContext {
            attempt: 1,
            budget: SolveBudget::with_timeout(Duration::from_secs(5)),
            iteration_scale: 4.0,
            tau_offset: 0.05,
            audit: true,
            solve_threads: 4,
            shard_min_states: 256,
        };
        let opts = ctx.solve_options();
        let base = SolveOptions::default();
        assert_eq!(opts.max_iterations, base.max_iterations * 4);
        assert!((opts.aperiodicity_tau - (base.aperiodicity_tau + 0.05)).abs() < 1e-12);
        assert!(!opts.budget.is_unlimited());
        assert!(opts.audit, "audit flag must thread through to solve options");
        assert_eq!(opts.solve_threads, 4);
        assert_eq!(opts.shard_min_states, 256);

        // A context with no shard override keeps the solver default.
        let plain = CellContext { solve_threads: 0, shard_min_states: 0, ..ctx.clone() };
        let opts = plain.solve_options();
        assert_eq!(opts.solve_threads, 1);
        assert_eq!(opts.shard_min_states, base.shard_min_states);

        // The escalation reaches the inner solver through the conversion.
        let rvi = ctx.solve_options().ratio_options().rvi;
        assert_eq!(rvi.max_iterations, base.max_iterations * 4);
        assert!((rvi.aperiodicity_tau - (base.aperiodicity_tau + 0.05)).abs() < 1e-12);
        assert!(!rvi.budget.is_unlimited());
        assert_eq!(rvi.solve_threads, 4);
        assert_eq!(rvi.shard_min_states, 256);

        // Tau stays clamped away from 1 however hard escalation pushes.
        let extreme = CellContext { tau_offset: 5.0, ..ctx };
        assert!(extreme.solve_options().aperiodicity_tau <= 0.9);
    }
}
