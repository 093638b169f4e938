//! `bvc-benchmark`: the end-to-end and per-layer benchmark of the BU
//! solver stack (`core` → `mdp` → `sweep`) and of `bvc-serve`.
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path bvcbench/Cargo.toml -- \
//!     --workload <small-ratio|large-rvi|large-ratio|serve-hot> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path bvcbench/Cargo.toml -- --record-golden bvcbench/golden.tsv
//! cargo run --release --manifest-path bvcbench/Cargo.toml -- --write-manifest BENCHMARK.json
//! ```
//!
//! A run prints a host-interference line, notes, every metric by name
//! with its unit, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` is a separate traced run that reports
//! the per-layer metrics and writes its spans to
//! `.bench_out/spans-<workload>.csv`. See README.md.

mod alloc;
mod host;
mod manifest;
mod report;
mod serve;
mod solver;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bvc_repro::sweep::run_jobs;

use report::Stop;
use workload::{golden_cells, render_golden, Workload};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Where traced runs write their spans, relative to the working directory.
const SPANS_DIR: &str = ".bench_out";

enum Command {
    Run { workload: Workload, seed: u64, seconds: f64, trace: bool },
    RecordGolden(PathBuf),
    WriteManifest(PathBuf),
}

const USAGE: &str =
    "usage: bvc-benchmark --workload NAME --seed N --seconds S --trace 0|1\n       \
                     bvc-benchmark --record-golden PATH | --write-manifest PATH";

fn parse(args: &[String]) -> Result<Command, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    match args.first().map(String::as_str) {
        Some("--record-golden") => {
            return Ok(Command::RecordGolden(value("--record-golden")?.into()))
        }
        Some("--write-manifest") => {
            return Ok(Command::WriteManifest(value("--write-manifest")?.into()))
        }
        _ => {}
    }
    for flag in args.iter().step_by(2) {
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
    }
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Command::Run { workload, seed, seconds, trace })
}

/// Solves every golden cell through `run_jobs` and writes the table.
fn record_golden(path: &Path) -> Result<(), String> {
    let cells = golden_cells();
    let jobs: Vec<_> = cells.iter().map(|c| c.job.clone()).collect();
    let report = run_jobs("golden", &jobs, &Default::default());
    let values = report
        .cells
        .iter()
        .map(|c| match &c.outcome {
            Ok(v) if v.len() == 1 => Ok(v[0]),
            other => Err(format!("{}: {other:?}", c.key)),
        })
        .collect::<Result<Vec<f64>, String>>()?;
    std::fs::write(path, render_golden(&cells, &values)).map_err(|e| format!("{path:?}: {e}"))
}

fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    println!("{}", host::probe());
    let stop = Stop::Seconds(seconds);
    let outcome = match workload {
        Workload::ServeHot => serve::run(seed, stop, trace)?,
        _ => solver::run(workload, seed, stop, trace)?,
    };
    if outcome.attempted == 0 {
        return Err("no op was attempted".to_string());
    }
    if let Some(tracer) = &outcome.tracer {
        let path = Path::new(SPANS_DIR).join(format!("spans-{}.csv", workload.name()));
        tracer.write_csv(&path).map_err(|e| format!("{path:?}: {e}"))?;
        println!("wrote {} spans to {}", tracer.spans().len(), path.display());
    }
    outcome.print(if trace { &manifest::PER_LAYER } else { &manifest::END_TO_END });
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|command| match command {
        Command::Run { workload, seed, seconds, trace } => run(workload, seed, seconds, trace),
        Command::RecordGolden(path) => record_golden(&path),
        Command::WriteManifest(path) => {
            std::fs::write(&path, manifest::render()).map_err(|e| format!("{path:?}: {e}"))
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
