//! `scenario_scaling` — measures the scenario engine's headroom along its
//! two scaling axes:
//!
//! 1. **Node scaling** — one honest ring-topology cell per node count
//!    (default 100, 400, 1000), fixed block count, timed end to end. The
//!    headline unit is node-blocks/s: how fast the discrete-event engine
//!    advances one node by one block. Near-flat node-blocks/s across the
//!    sweep means per-step cost stays O(nodes) with no superlinear blowup.
//! 2. **Thread scaling** — a batch of independent scenario cells sharded
//!    through the sweep runner (`bvc_repro::sweep::run_jobs`) at each
//!    thread count (default 1, 2). Cells are embarrassingly parallel, so
//!    the speedup should track the physical core count — on a 1-core box
//!    expect ~1.0x, which is a property of the box, not a regression.
//!
//! ```text
//! scenario_scaling [--nodes 100,400,1000] [--blocks 400]
//!                  [--threads 1,2] [--quick] [--json]
//! ```
//!
//! With `--json`, the final line is one machine-readable record
//! (`{"bench":"scenario_scaling",...}`) for `scripts/bench_record.sh`.

use std::time::Instant;

use bvc_bu::SolveOptions;
use bvc_journal::Cell;
use bvc_repro::sweep::{run_jobs, JobSpec, SweepOptions};
use bvc_scenario::{AttackerSpec, DelaySpec, HashDist, RuleKind, ScenarioSpec, GRID_SEED};

struct Flags {
    nodes: Vec<u32>,
    blocks: u32,
    threads: Vec<usize>,
    json: bool,
}

fn parse_list<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    raw.split(',').map(|p| p.trim().parse::<T>().map_err(|e| format!("{flag}: {e}"))).collect()
}

fn parse_flags() -> Result<Flags, String> {
    let mut flags =
        Flags { nodes: vec![100, 400, 1_000], blocks: 400, threads: vec![1, 2], json: false };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--nodes" => flags.nodes = parse_list(&value(&mut i)?, "--nodes")?,
            "--blocks" => {
                flags.blocks = value(&mut i)?.parse().map_err(|e| format!("--blocks: {e}"))?;
            }
            "--threads" => flags.threads = parse_list(&value(&mut i)?, "--threads")?,
            "--quick" => {
                flags.nodes = vec![50, 200];
                flags.blocks = 120;
            }
            "--json" => flags.json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if flags.nodes.is_empty() || flags.blocks == 0 {
        return Err("--nodes and --blocks must be nonempty/positive".to_string());
    }
    if flags.threads.is_empty() || flags.threads.contains(&0) {
        return Err("--threads needs a comma-separated list of positive counts".to_string());
    }
    Ok(flags)
}

/// The node-scaling cell: honest miners, Zipf hash rates, ring topology —
/// the same shape as the grid's thousand-node headroom cell.
fn node_cell(nodes: u32, blocks: u32) -> ScenarioSpec {
    ScenarioSpec {
        nodes,
        hash: HashDist::Zipf { s: 1.0 },
        eb_small_mb: 1,
        eb_large_mb: 16,
        ad: 6,
        large_frac: 0.4,
        delay: DelaySpec::Ring { per_hop: 0.002 },
        rule: RuleKind::Rizun { sticky: true },
        attacker: AttackerSpec::Honest,
        blocks,
        seed: GRID_SEED,
    }
}

/// The thread-scaling batch: independent moderate cells (distinct seeds,
/// so every cell really runs).
fn thread_batch(blocks: u32) -> Vec<JobSpec> {
    (0..8)
        .map(|rep| JobSpec::Scenario {
            spec: ScenarioSpec { seed: GRID_SEED + rep, ..node_cell(60, blocks) },
        })
        .collect()
}

fn main() {
    let flags = match parse_flags() {
        Ok(flags) => flags,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    println!(
        "scenario_scaling: {} blocks per cell, {cores} core(s){}",
        flags.blocks,
        if cores == 1 { " — thread speedups near 1.0x are expected here" } else { "" }
    );

    println!("node scaling (honest ring cells):");
    let mut node_runs: Vec<(u32, f64, f64)> = Vec::new();
    for &nodes in &flags.nodes {
        let spec = node_cell(nodes, flags.blocks);
        let started = Instant::now();
        let metrics = match spec.solve(&SolveOptions::default()) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("error: {} failed: {e}", spec.key());
                std::process::exit(1);
            }
        };
        let wall = started.elapsed().as_secs_f64();
        let node_blocks = f64::from(nodes) * f64::from(flags.blocks);
        let rate = node_blocks / wall;
        println!(
            "  {nodes:>5} nodes: {wall:>8.3}s  ({rate:>12.0} node-blocks/s, {} blocks mined)",
            metrics[0]
        );
        node_runs.push((nodes, wall, rate));
    }

    println!("thread scaling ({}-cell sweep batch):", thread_batch(flags.blocks).len());
    let jobs = thread_batch(flags.blocks);
    let mut thread_runs: Vec<(usize, f64)> = Vec::new();
    for &threads in &flags.threads {
        let opts = SweepOptions {
            threads: Some(threads),
            config_token: "scenario-scaling-bench".to_string(),
            ..SweepOptions::default()
        };
        let started = Instant::now();
        let report = run_jobs("scenario-scaling", &jobs, &opts);
        let wall = started.elapsed().as_secs_f64();
        if report.has_failures() {
            eprintln!("error: thread-scaling sweep failed:\n{}", report.failure_legend());
            std::process::exit(1);
        }
        let base = thread_runs.first().map(|&(_, b)| b);
        println!(
            "  {threads} thread(s): {wall:>8.3}s{}",
            match base {
                Some(b) => format!("  speedup {:.2}x", b / wall),
                None => String::new(),
            }
        );
        thread_runs.push((threads, wall));
    }

    if flags.json {
        let nodes_json: Vec<String> = node_runs
            .iter()
            .map(|(n, wall, rate)| {
                format!("{{\"nodes\":{n},\"wall_s\":{wall:.6},\"node_blocks_per_s\":{rate:.0}}}")
            })
            .collect();
        let base = thread_runs[0].1;
        let threads_json: Vec<String> = thread_runs
            .iter()
            .map(|(t, wall)| {
                format!("{{\"threads\":{t},\"wall_s\":{wall:.6},\"speedup\":{:.4}}}", base / wall)
            })
            .collect();
        println!(
            "{{\"bench\":\"scenario_scaling\",\"blocks\":{},\"cores\":{cores},\
             \"node_runs\":[{}],\"thread_runs\":[{}]}}",
            flags.blocks,
            nodes_json.join(","),
            threads_json.join(",")
        );
    }
}
