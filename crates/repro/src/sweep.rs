//! Fault-tolerant sweep runner: per-cell isolation, watchdogs, and a
//! checkpoint/resume journal.
//!
//! The table binaries sweep dozens of parameter cells, each an MDP solve
//! whose cost varies by orders of magnitude across the grid. [`run_sweep`]
//! spreads them over one claim loop, and each cell is an isolated unit of
//! work:
//!
//! * **Isolation** — a panic or structured [`MdpError`] marks that one cell
//!   failed; the rest of the grid still completes and renders (degraded)
//!   through [`crate::GridEntry::Failed`].
//! * **Watchdog** — every cell's solve carries a
//!   [`SolveBudget`](bvc_mdp::SolveBudget) with an optional per-cell
//!   wall-clock deadline and the sweep's cancel flag (see
//!   [`CellContext`]). A cell is solved once: the solves are
//!   deterministic, so a second attempt could only fail the same way.
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
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bvc_journal::json::JsonObject;
use bvc_journal::param_seconds;
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
    encode_line, load_journal, parse_journal_line, recover_journal, Durability, JournalEntry,
    JournalWriter,
};

// The per-cell runner (watchdog budget, fault injection, panic isolation)
// lives in `bvc-cluster`'s [`bvc_cluster::cell`] so cluster workers run
// cells through literally the same code path as this local runner.
pub use bvc_cluster::cell::{run_cell, CellContext, CellFailure, CellResult, CellRunConfig};

// The job registry: every table binary's cell grid as data, so the same
// grid can run locally or be shipped to cluster workers.
pub use bvc_cluster::jobs::{workload, JobSpec, Workload, WORKLOAD_NAMES};

use bvc_cluster::{run_coordinator, ClusterConfig};

// ---------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------

/// Everything [`run_sweep`] produced, cells in input order.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Sweep label (for the summary line).
    pub label: String,
    /// Per-cell outcomes, parallel to the input slice.
    pub cells: Vec<CellResult>,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
}

impl SweepReport {
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

    /// True when any cell is without a value (failed or skipped).
    pub fn has_failures(&self) -> bool {
        self.solved() < self.cells.len()
    }

    /// The value of cell `i`, if it has one.
    pub fn value(&self, i: usize) -> Option<&Vec<f64>> {
        self.cells[i].outcome.as_ref().ok()
    }

    /// One-line machine-greppable summary. The `# sweep` prefix lets smoke
    /// scripts filter these lines out before diffing table output across
    /// runs (replay counts legitimately differ between a clean run and a
    /// resumed one).
    pub fn summary(&self) -> String {
        format!(
            "# sweep {}: {} cells | solved {} ({} replayed) | failed {} | skipped {} | wall {:.2}s",
            self.label,
            self.cells.len(),
            self.solved(),
            self.replayed(),
            self.failed(),
            self.skipped(),
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
                    "# sweep {}: cell '{}' FAIL({}): {}",
                    self.label,
                    c.key,
                    failure.reason_code(),
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

    /// One-line machine-readable summary of the whole sweep: every cell
    /// with its status, bit-exact value (`bits` hex patterns, decimal
    /// `vals` mirror) or failure reason, plus the aggregate counters.
    /// Printed by the sweep binaries under `--json` so the serve preloader
    /// and CI can consume results without scraping the rendered grid.
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(cell_json).collect();
        JsonObject::new()
            .str("sweep", &self.label)
            .raw("cells", &format!("[{}]", cells.join(",")))
            .int("solved", self.solved() as u64)
            .int("replayed", self.replayed() as u64)
            .int("failed", self.failed() as u64)
            .int("skipped", self.skipped() as u64)
            .raw("wall_s", &format!("{:.3}", self.wall.as_secs_f64()))
            .finish()
    }

    /// Builds the grid entry comparing the first element of cell `i`'s
    /// value vector against the paper value: a comparison [`Cell`] on
    /// success, a `FAIL(reason)` marker otherwise. A solved cell with an
    /// empty vector renders as `FAIL(shape)` rather than panicking.
    pub fn grid_entry(&self, i: usize, paper: Option<f64>) -> GridEntry {
        match &self.cells[i].outcome {
            Ok(v) => match v.first() {
                Some(x) => GridEntry::Value(Cell { paper, ours: *x }),
                None => GridEntry::Failed("shape".into()),
            },
            Err(failure) => GridEntry::Failed(failure.reason_code()),
        }
    }
}

/// One cell of [`SweepReport::to_json`].
fn cell_json(c: &CellResult) -> String {
    let obj = JsonObject::new().str("key", &c.key);
    let obj = match &c.outcome {
        Ok(vals) => {
            let bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
            obj.str("status", "ok").bits_vals(&bits, vals)
        }
        Err(CellFailure::Skipped) => obj.str("status", "skipped"),
        Err(failure) => obj
            .str("status", "fail")
            .str("code", &failure.reason_code())
            .str("reason", &failure.message()),
    };
    obj.int("attempts", u64::from(c.attempts))
        .bool("replayed", c.replayed)
        .raw("elapsed_s", &format!("{:.6}", c.elapsed.as_secs_f64()))
        .finish()
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
    /// Wall-clock deadline for each cell's solve.
    pub cell_deadline: Option<Duration>,
    /// Worker count override (defaults to available parallelism). The
    /// calling thread is one of the workers, so `Some(1)` spawns none.
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
    /// report `NoConvergence` instead of solving. Testing/smoke only.
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
    /// the options and the arguments that matched `own` (with their
    /// values), in order.
    ///
    /// Recognized flags:
    /// `--journal PATH`, `--fail-fast`, `--cell-deadline SECONDS`,
    /// `--threads N`, `--solve-threads N`, `--shard-min-states N`,
    /// `--audit`, `--json`, `--inject-panic SUBSTR`, `--inject-noconv
    /// SUBSTR` (the last two repeatable), `--cluster HOST:PORT`, `--lease
    /// SECONDS`, `--cluster-batch N`, `--durability none|batch|always`,
    /// `--chaos SPEC`.
    ///
    /// `own` lists the binary's own flags (e.g. `&["--setting1-only"]`);
    /// an entry written with a value placeholder (`"--reps N"`) takes the
    /// next argument as its value, which is passed through after the flag.
    ///
    /// Returns `Err` with a usage message on a malformed flag (missing or
    /// unparseable value) or an argument that is neither a sweep flag nor
    /// in `own`, instead of panicking or ignoring it; binaries print it and
    /// exit nonzero.
    pub fn from_cli<I: IntoIterator<Item = String>>(
        args: I,
        own: &[&str],
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
                    let raw = value(&mut it, "--cell-deadline")?;
                    opts.cell_deadline = Some(param_seconds(&raw, "--cell-deadline")?);
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
                    let raw = value(&mut it, "--lease")?;
                    opts.lease = Some(param_seconds(&raw, "--lease")?);
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
                _ => {
                    let Some(spec) = own.iter().find(|spec| spec.split(' ').next() == Some(&arg))
                    else {
                        let adds = if own.is_empty() {
                            "no flags of its own".to_string()
                        } else {
                            own.join(", ")
                        };
                        return Err(format!(
                            "unknown argument {arg:?} (this binary takes the sweep flags and {adds})"
                        ));
                    };
                    let takes_value = spec.contains(' ');
                    rest.push(arg);
                    if takes_value {
                        rest.push(value(&mut it, spec)?);
                    }
                }
            }
        }
        Ok((opts, rest))
    }

    /// [`SweepOptions::from_cli`] for binary `main`s: prints the error and
    /// exits with status 2 on a malformed or unknown flag instead of
    /// returning (no panic backtrace on bad arguments).
    pub fn from_cli_or_exit<I: IntoIterator<Item = String>>(
        args: I,
        own: &[&str],
    ) -> (SweepOptions, Vec<String>) {
        let parsed = match Self::from_cli(args, own) {
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

/// Runs `solve` once over every input with per-cell fault isolation,
/// watchdog budgets, and (optionally) a checkpoint journal.
///
/// * `key_of` must produce a unique, stable, human-readable key per cell —
///   it names the cell in failure legends and identifies it across runs in
///   the journal.
/// * `solve` receives the input and a [`CellContext`]; it must thread
///   `ctx.budget` into its solver options (e.g. via
///   [`CellContext::solve_options`]) for deadlines and fail-fast
///   cancellation to be able to interrupt it.
///
/// Cells run on one claim loop with `opts.threads` workers, the calling
/// thread among them: `threads == 1` solves every cell in input order on
/// the caller, spawning no thread. Under `fail_fast` no
/// cell is claimed after the first failure; unclaimed cells are `Skipped`
/// with 0 attempts and are not journaled.
///
/// The returned report has one entry per input, in input order, regardless
/// of how many cells failed. `run_sweep` itself never panics on cell
/// failures.
pub fn run_sweep<Inp, K, F>(
    label: &str,
    inputs: &[Inp],
    opts: &SweepOptions,
    key_of: K,
    solve: F,
) -> SweepReport
where
    Inp: Sync,
    K: Fn(&Inp) -> String,
    F: Fn(&Inp, &CellContext) -> Result<Vec<f64>, MdpError> + Sync,
{
    let started = Instant::now();
    let n = inputs.len();
    let keys: Vec<String> = inputs.iter().map(&key_of).collect();
    let fps: Vec<u64> = keys.iter().map(|k| cell_fingerprint(k, &opts.config_token)).collect();

    let mut slots: Vec<Option<CellResult>> = (0..n).map(|_| None).collect();

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
                    slots[i] = Some(CellResult {
                        key: keys[i].clone(),
                        outcome: Ok(entry.values()),
                        attempts: 0,
                        replayed: true,
                        elapsed: Duration::ZERO,
                    });
                }
            }
        }
    }

    let pending: Vec<usize> = (0..n).filter(|&i| slots[i].is_none()).collect();
    let journal = opts.journal.as_ref().map(|path| {
        Mutex::new(JournalOrder {
            writer: JournalWriter::append_to(path, opts.durability)
                .unwrap_or_else(|e| panic!("cannot open journal {}: {e}", path.display())),
            cursor: 0,
            lines: (0..pending.len()).map(|_| None).collect(),
        })
    });

    let cancel = Arc::new(AtomicBool::new(false));
    let threads = opts
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4))
        .min(pending.len().max(1));

    // The shared per-cell runner — literally the code a cluster worker
    // runs, which is what keeps local and distributed journals
    // byte-identical.
    let cell_cfg = CellRunConfig {
        cell_deadline: opts.cell_deadline,
        audit: opts.audit,
        // Thread-budget arbitration: cell-level parallelism wins. Sharded
        // solves only engage when cells run one at a time.
        solve_threads: if threads > 1 { 1 } else { opts.solve_threads.max(1) },
        shard_min_states: opts.shard_min_states,
        inject_panic: opts.inject_panic.clone(),
        inject_noconv: opts.inject_noconv.clone(),
    };

    let claimed = crate::claim_loop(pending.len(), threads, |p| {
        let i = pending[p];
        let key = &keys[i];
        let cell_started = Instant::now();
        let outcome = run_cell(key, &cell_cfg, &cancel, |ctx| solve(&inputs[i], ctx));

        if let Some(journal) = &journal {
            // Journal terminal outcomes. Skips are deliberately not
            // journaled: the cell was never really attempted and must
            // re-solve on resume.
            let journaled = match &outcome {
                Ok(vals) => Some((true, vals.as_slice(), String::new())),
                Err(CellFailure::Skipped) => None,
                Err(f) => Some((false, &[][..], f.message())),
            };
            let line = journaled.map(|(ok, vals, reason)| {
                let bits = vals.iter().map(|v| v.to_bits()).collect();
                let entry =
                    JournalEntry { fp: fps[i], key: key.clone(), ok, attempts: 1, bits, reason };
                encode_line(&entry, vals)
            });
            // A worker panicking while holding the lock poisons it; the
            // journal file itself is still usable, so recover the guard.
            journal.lock().unwrap_or_else(|e| e.into_inner()).finish(p, line);
        }

        let failed = matches!(&outcome, Err(f) if !matches!(f, CellFailure::Skipped));
        let result = CellResult {
            key: key.clone(),
            outcome,
            attempts: 1,
            replayed: false,
            elapsed: cell_started.elapsed(),
        };
        if opts.fail_fast && failed {
            // ordering: Relaxed — best-effort hint to the budgets of cells in flight; Break stops claims.
            cancel.store(true, Ordering::Relaxed);
            return ControlFlow::Break(result);
        }
        ControlFlow::Continue(result)
    });
    for (&i, result) in pending.iter().zip(claimed) {
        slots[i] = result;
    }

    // Durability barrier: under `batch`, appends since the last sync-every-N
    // boundary are only flushed, not fsynced — close the window here. Every
    // line is written by now: claims are made in order, so the cells never
    // claimed (fail-fast) are a suffix of `pending` with nothing after them.
    if let Some(journal) = journal {
        let _ = journal.into_inner().unwrap_or_else(|e| e.into_inner()).writer.sync();
    }

    let cells = slots
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

/// The journal of one [`run_sweep`] and its reorder buffer: lines are
/// appended in input order, whatever order the workers finish cells in, so
/// a journal's bytes do not depend on the thread count (the cluster
/// coordinator's `advance_journal` does the same).
struct JournalOrder {
    writer: JournalWriter,
    /// Position in the pending cells of the next line to append.
    cursor: usize,
    /// Per pending cell: `None` until it finishes, then its line, or
    /// `Some(None)` when it has none (a skip).
    lines: Vec<Option<Option<String>>>,
}

impl JournalOrder {
    /// Records the line of pending cell `p`, then appends every finished
    /// line at the cursor.
    fn finish(&mut self, p: usize, line: Option<String>) {
        self.lines[p] = Some(line);
        while let Some(done) = self.lines.get_mut(self.cursor).and_then(Option::take) {
            self.cursor += 1;
            let Some(line) = done else { continue };
            // A failed append rolled the file back to the previous line
            // boundary, so a retry re-appends the identical bytes. Give a
            // transiently faulted disk a few chances; a line lost past
            // that degrades to re-solving this cell on resume.
            for _ in 0..3 {
                if self.writer.append_line(&line).is_ok() {
                    break;
                }
            }
        }
    }
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
pub fn run_jobs(label: &str, jobs: &[JobSpec], opts: &SweepOptions) -> SweepReport {
    match &opts.cluster {
        None => run_sweep(label, jobs, opts, JobSpec::key, |job, ctx| job.solve(ctx)),
        Some(addr) => run_coordinated(addr, label, jobs, opts).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        }),
    }
}

/// Runs the registry workload `name` ([`workload`]) through [`run_jobs`]
/// under the workload's config token, labelled with its name, so a table
/// binary's journal is the one `bvc cluster coordinate --workload <name>`
/// writes. Returns the cells with the report; an unknown name prints and
/// exits 2.
pub fn run_workload(name: &str, opts: &SweepOptions) -> (Vec<JobSpec>, SweepReport) {
    let Some(wl) = workload(name) else {
        eprintln!("error: unknown workload {name:?}");
        std::process::exit(2);
    };
    let opts = SweepOptions { config_token: wl.config_token, ..opts.clone() };
    let report = run_jobs(wl.name, &wl.jobs, &opts);
    (wl.jobs, report)
}

/// The `--cluster` branch of [`run_jobs`]. The journal, fingerprints,
/// deadline, injection and fail-fast semantics all come from the same
/// [`SweepOptions`] a local run uses, so the resulting journal is
/// byte-identical to a local run's over the same cells, at any
/// `--threads`.
fn run_coordinated(
    addr: &str,
    label: &str,
    jobs: &[JobSpec],
    opts: &SweepOptions,
) -> Result<SweepReport, String> {
    let cfg = ClusterConfig {
        config_token: opts.config_token.clone(),
        journal: opts.journal.clone(),
        cell: CellRunConfig {
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
    Ok(SweepReport { label: report.label, cells: report.cells, wall: report.wall })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_journal::json::escape;
    use bvc_mdp::solve::SolveOptions;
    use bvc_mdp::SolveBudget;
    use std::sync::atomic::AtomicU32;
    use std::sync::atomic::AtomicUsize;

    fn tmp_journal(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("bvc_sweep_{tag}_{}_{n}.jsonl", std::process::id()))
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
            |x, _ctx| Ok(vec![x * 2.0]),
        );
        assert!(!report.has_failures());
        assert_eq!(report.solved(), 20);
        for (i, x) in inputs.iter().enumerate() {
            assert_eq!(*report.value(i).unwrap(), [x * 2.0]);
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
                Ok(vec![f64::from(*x)])
            },
        );
        assert_eq!(report.failed(), 1);
        assert_eq!(report.solved(), 7);
        let failed = &report.cells[3];
        assert!(matches!(&failed.outcome, Err(CellFailure::Panicked(m)) if m.contains("boom 3")));
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
            ..Default::default()
        };
        let report =
            run_sweep("t", &inputs, &opts, |x| format!("x={x}"), |x, _| Ok(vec![f64::from(*x)]));
        assert_eq!(report.solved(), 2);
        assert_eq!(report.failed(), 2);
        assert!(matches!(&report.cells[1].outcome, Err(CellFailure::Panicked(_))));
        assert!(matches!(
            &report.cells[2].outcome,
            Err(CellFailure::Solver(MdpError::NoConvergence { .. }))
        ));
        // A cell is solved once, so the injected NoConvergence ends it.
        assert_eq!(report.cells[2].attempts, 1);
        assert_eq!(report.grid_entry(1, None), GridEntry::Failed("panic".into()));
    }

    #[test]
    fn solver_errors_fail_immediately() {
        let inputs = [0u32];
        let report = run_sweep(
            "t",
            &inputs,
            &SweepOptions::default(),
            |_| "cell".into(),
            |_, _| -> Result<Vec<f64>, MdpError> {
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
        let path = tmp_journal("failfast");
        let inputs: Vec<u32> = (0..10).collect();
        let executed = AtomicU32::new(0);
        let opts = SweepOptions {
            journal: Some(path.clone()),
            fail_fast: true,
            threads: Some(1),
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
                Ok(vec![f64::from(*x)])
            },
        );
        assert_eq!(executed.load(Ordering::SeqCst), 3, "must stop claiming after the failure");
        assert_eq!(report.solved(), 2);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.skipped(), 7);
        assert!(report.has_failures());
        assert_eq!(report.exit_code(), 1);
        assert!(report.cells[3..].iter().all(|c| c.attempts == 0), "unclaimed cells ran");
        let mut journaled: Vec<String> = load_journal(&path).into_values().map(|e| e.key).collect();
        journaled.sort_unstable();
        assert_eq!(journaled, ["x=0", "x=1", "x=2"], "only claimed cells are journaled");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn one_thread_runs_every_cell_on_the_caller() {
        let caller = std::thread::current().id();
        let inputs: Vec<u32> = (0..6).collect();
        let opts = SweepOptions { threads: Some(1), ..Default::default() };
        let report = run_sweep(
            "t",
            &inputs,
            &opts,
            |x| format!("x={x}"),
            |x, _| {
                Ok(vec![if std::thread::current().id() == caller {
                    f64::from(*x)
                } else {
                    f64::NAN
                }])
            },
        );
        for (i, x) in inputs.iter().enumerate() {
            assert_eq!(*report.value(i).unwrap(), [f64::from(*x)], "cell {i} left the caller");
        }
    }

    #[test]
    fn two_threads_match_one_thread_bit_for_bit() {
        let inputs: Vec<u32> = (0..24).collect();
        let run = |threads: usize| {
            let path = tmp_journal(&format!("threads{threads}"));
            let opts = SweepOptions {
                journal: Some(path.clone()),
                threads: Some(threads),
                ..Default::default()
            };
            let report = run_sweep(
                "t",
                &inputs,
                &opts,
                |x| format!("x={x}"),
                |x, _| Ok(vec![f64::from(*x).sqrt(), -0.0, f64::from(*x) / 7.0]),
            );
            let values: Vec<Vec<u64>> = (0..inputs.len())
                .map(|i| report.value(i).unwrap().iter().map(|v| v.to_bits()).collect())
                .collect();
            let attempts: Vec<u32> = report.cells.iter().map(|c| c.attempts).collect();
            let journal = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            (values, attempts, journal)
        };
        assert_eq!(run(2), run(1));
    }

    #[test]
    fn cancelled_solver_error_counts_as_skipped() {
        let inputs = [0u32];
        let report = run_sweep(
            "t",
            &inputs,
            &SweepOptions::default(),
            |_| "cell".into(),
            |_, _| -> Result<Vec<f64>, MdpError> {
                Err(MdpError::Cancelled { solver: "x", iterations: 5 })
            },
        );
        assert_eq!(report.skipped(), 1);
        assert_eq!(report.failed(), 0);
    }

    #[test]
    fn deadline_is_threaded_into_the_cell_budget() {
        let inputs = [0u32];
        let opts = SweepOptions { cell_deadline: Some(Duration::ZERO), ..Default::default() };
        let report = run_sweep(
            "t",
            &inputs,
            &opts,
            |_| "cell".into(),
            |_, ctx| -> Result<Vec<f64>, MdpError> {
                // A compliant solve function checks its budget; with a zero
                // deadline the check fires on the first interval boundary.
                ctx.budget.check("test_solver", 0)?;
                Ok(vec![1.0])
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
            Ok(vec![f64::from(*x) * 3.0])
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
                second.value(i).unwrap()[0].to_bits(),
                first.value(i).unwrap()[0].to_bits(),
                "replayed values must be bit-identical"
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_cells_resolve_on_resume() {
        let path = tmp_journal("refail");
        let inputs: Vec<u32> = (0..3).collect();
        let base = SweepOptions { journal: Some(path.clone()), ..Default::default() };
        let broken = SweepOptions { inject_panic: vec!["x=1".into()], ..base.clone() };
        let first =
            run_sweep("t", &inputs, &broken, |x| format!("x={x}"), |x, _| Ok(vec![f64::from(*x)]));
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
                Ok(vec![f64::from(*x)])
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
            Ok(vec![f64::from(*x)])
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
        let second = run_sweep("t", &inputs, &opts, |_| "cell".into(), |_, _| Err(MdpError::Empty));
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
        let opts =
            SweepOptions { inject_panic: vec!["x=1".into()], json: true, ..Default::default() };
        let mut report = run_sweep(
            "t \"json\"",
            &inputs,
            &opts,
            |x| format!("x={x}"),
            |x, _| Ok(vec![if *x == 2 { f64::NAN } else { f64::from(*x) }]),
        );
        // Fix the timings and add a fail-fast skip, so the whole line pins.
        report.wall = Duration::from_micros(2_345_678);
        for (i, c) in report.cells.iter_mut().enumerate() {
            c.elapsed = Duration::from_nanos(1_000_500 * (i as u64 + 1));
        }
        report.cells.push(CellResult {
            key: "x=\\3\n".into(),
            outcome: Err(CellFailure::Skipped),
            attempts: 0,
            replayed: false,
            elapsed: Duration::ZERO,
        });
        let nan = crate::fingerprint::f64_to_hex(f64::NAN);
        let expected = format!(
            "{{\"sweep\":\"t \\\"json\\\"\",\"cells\":[\
             {{\"key\":\"x=0\",\"status\":\"ok\",\"bits\":[\"0000000000000000\"],\"vals\":[0],\
             \"attempts\":1,\"replayed\":false,\"elapsed_s\":0.001001}},\
             {{\"key\":\"x=1\",\"status\":\"fail\",\"code\":\"panic\",\
             \"reason\":\"{}\",\"attempts\":1,\"replayed\":false,\"elapsed_s\":0.002001}},\
             {{\"key\":\"x=2\",\"status\":\"ok\",\"bits\":[\"{nan}\"],\"vals\":[\"NaN\"],\
             \"attempts\":1,\"replayed\":false,\"elapsed_s\":0.003001}},\
             {{\"key\":\"x=\\\\3\\n\",\"status\":\"skipped\",\"attempts\":0,\"replayed\":false,\
             \"elapsed_s\":0.000000}}],\
             \"solved\":2,\"replayed\":0,\"failed\":1,\"skipped\":1,\"wall_s\":2.346}}",
            escape(&report.cells[1].outcome.as_ref().unwrap_err().message()),
        );
        assert_eq!(report.to_json(), expected);
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
            "--reps",
            "3",
        ]
        .map(String::from);
        let (opts, rest) =
            SweepOptions::from_cli(args, &["--quick", "--setting1-only", "--reps N"]).unwrap();
        assert_eq!(opts.journal.as_deref(), Some(std::path::Path::new("/tmp/j.jsonl")));
        assert!(opts.fail_fast);
        assert_eq!(opts.cell_deadline, Some(Duration::from_secs_f64(2.5)));
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
        assert_eq!(rest, ["--quick", "--setting1-only", "--reps", "3"].map(String::from));
    }

    #[test]
    fn from_cli_rejects_malformed_flags() {
        let from_cli = |raw: &[&str]| {
            SweepOptions::from_cli(raw.iter().map(|s| s.to_string()), &["--setting1-only"])
        };
        assert!(from_cli(&["--journal"]).is_err());
        let msg = from_cli(&["--threads", "many"]).unwrap_err();
        assert!(msg.contains("--threads") && msg.contains("many"), "{msg}");
        // Seconds that no `Duration` holds are usage errors, not panics.
        for flag in ["--cell-deadline", "--lease"] {
            for raw in ["-1", "nan", "inf", "1e300"] {
                let msg = from_cli(&[flag, raw]).unwrap_err();
                assert!(msg.contains(flag) && msg.contains(raw), "{flag} {raw}: {msg}");
            }
        }
    }

    /// An argument that is neither a sweep flag nor one of the binary's own
    /// used to be ignored, so a stale flag ran with its default in place.
    #[test]
    fn from_cli_rejects_unknown_arguments() {
        for raw in [&["--retries", "2"][..], &["--setting1-only", "--bogus"], &["stray"]] {
            let args = raw.iter().map(|s| s.to_string());
            let msg = SweepOptions::from_cli(args, &["--setting1-only"]).unwrap_err();
            assert!(msg.starts_with("unknown argument"), "{raw:?}: {msg}");
            assert!(msg.contains("--setting1-only"), "{raw:?}: {msg}");
        }
        let msg = SweepOptions::from_cli(["--frontier".to_string()], &[]).unwrap_err();
        assert!(msg.contains("no flags of its own"), "{msg}");
        let msg = SweepOptions::from_cli(["--reps".to_string()], &["--reps N"]).unwrap_err();
        assert!(msg.contains("--reps N requires a value"), "{msg}");
    }

    #[test]
    fn solve_options_carry_budget_audit_and_threads() {
        let ctx = CellContext {
            budget: SolveBudget::with_timeout(Duration::from_secs(5)),
            audit: true,
            solve_threads: 4,
            shard_min_states: 256,
        };
        let opts = ctx.solve_options();
        let base = SolveOptions::default();
        assert_eq!(opts.max_iterations, base.max_iterations);
        assert_eq!(opts.aperiodicity_tau.to_bits(), base.aperiodicity_tau.to_bits());
        assert!(!opts.budget.is_unlimited());
        assert!(opts.audit, "audit flag must thread through to solve options");
        assert_eq!(opts.solve_threads, 4);
        assert_eq!(opts.shard_min_states, 256);

        // A context with no shard override keeps the solver default.
        let plain = CellContext { solve_threads: 0, shard_min_states: 0, ..ctx.clone() };
        let opts = plain.solve_options();
        assert_eq!(opts.solve_threads, 1);
        assert_eq!(opts.shard_min_states, base.shard_min_states);

        // The budget and thread settings reach the inner solver through the
        // conversion.
        let rvi = ctx.solve_options().ratio_options().rvi;
        assert!(!rvi.budget.is_unlimited());
        assert_eq!(rvi.solve_threads, 4);
        assert_eq!(rvi.shard_min_states, 256);
    }
}
