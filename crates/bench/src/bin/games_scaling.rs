//! `games_scaling` — measures the coalition-frontier engine's headroom
//! along its two scaling axes:
//!
//! 1. **Frontier scaling** — one unsharded frontier layer per miner
//!    count (default 20, 22, 24) at a fixed coalition size, timed end to
//!    end. The headline unit is frontier-nodes/s: how fast the engine
//!    examines one committed coalition (one `O(n)` backward induction
//!    each). Near-flat frontier-nodes/s across the sweep means per-node
//!    cost stays `O(n)` with no superlinear blowup.
//! 2. **Thread scaling** — a sharded frontier layer run through the sweep
//!    runner (`bvc_repro::sweep::run_jobs`) at each thread count (default
//!    1, 2). Shards are embarrassingly parallel, so the speedup should
//!    track the physical core count — on a 1-core box expect ~1.0x,
//!    which is a property of the box, not a regression.
//!
//! ```text
//! games_scaling [--miners 20,22,24] [--size 8] [--threads 1,2]
//!               [--quick] [--json]
//! ```
//!
//! With `--json`, the final line is one machine-readable record
//! (`{"bench":"games_scaling",...}`) for `scripts/bench_record.sh`.

use std::time::Instant;

use bvc_gamesweep::{
    binomial, figure4_spec, solve_frontier_cell, FrontierSpec, GameSpec, PowerDist,
};
use bvc_journal::Cell;
use bvc_repro::sweep::{run_jobs, JobSpec, SweepOptions};

struct Flags {
    miners: Vec<u32>,
    size: u32,
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
    let mut flags = Flags { miners: vec![20, 22, 24], size: 8, threads: vec![1, 2], json: false };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--miners" => flags.miners = parse_list(&value(&mut i)?, "--miners")?,
            "--size" => {
                flags.size = value(&mut i)?.parse().map_err(|e| format!("--size: {e}"))?;
            }
            "--threads" => flags.threads = parse_list(&value(&mut i)?, "--threads")?,
            "--quick" => {
                flags.miners = vec![12, 16];
                flags.size = 4;
            }
            "--json" => flags.json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if flags.miners.is_empty() || flags.size == 0 {
        return Err("--miners and --size must be nonempty/positive".to_string());
    }
    if flags.threads.is_empty() || flags.threads.contains(&0) {
        return Err("--threads needs a comma-separated list of positive counts".to_string());
    }
    Ok(flags)
}

/// The benchmark game: an n-miner Zipf ladder network, the same shape as
/// the canonical frontier workload's widest layers.
fn bench_game(miners: u32) -> GameSpec {
    GameSpec { miners, power: PowerDist::Zipf { s: 1.0 }, ..figure4_spec() }
}

/// One unsharded frontier layer.
fn layer(miners: u32, size: u32) -> FrontierSpec {
    FrontierSpec { spec: bench_game(miners), size, shard: 0, shards: 1 }
}

/// The thread-scaling batch: the widest benchmark layer split into many
/// independent shards.
fn thread_batch(miners: u32, size: u32, shards: u32) -> Vec<JobSpec> {
    (0..shards)
        .map(|shard| JobSpec::GameFrontier {
            spec: FrontierSpec { spec: bench_game(miners), size, shard, shards },
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
        "games_scaling: coalition size {}, {cores} core(s){}",
        flags.size,
        if cores == 1 { " — thread speedups near 1.0x are expected here" } else { "" }
    );

    println!("frontier scaling (unsharded C(n, k) layers):");
    let mut layer_runs: Vec<(u32, u64, f64, f64)> = Vec::new();
    for &miners in &flags.miners {
        let cell = layer(miners, flags.size);
        if let Err(e) = cell.validate() {
            eprintln!("error: {}: {e}", cell.key());
            std::process::exit(1);
        }
        let combos = binomial(u64::from(miners), u64::from(flags.size));
        let started = Instant::now();
        if let Err(e) = solve_frontier_cell(&cell) {
            eprintln!("error: {} failed: {e}", cell.key());
            std::process::exit(1);
        }
        let wall = started.elapsed().as_secs_f64();
        let rate = combos as f64 / wall;
        println!(
            "  {miners:>3} miners: C({miners},{}) = {combos:>8} coalitions  {wall:>8.3}s  \
             ({rate:>12.0} frontier-nodes/s)",
            flags.size
        );
        layer_runs.push((miners, combos, wall, rate));
    }

    let widest = *flags.miners.iter().max().unwrap_or(&16);
    let shards = 16;
    let jobs = thread_batch(widest, flags.size, shards);
    println!("thread scaling ({widest}-miner layer, {shards} shards):");
    let mut thread_runs: Vec<(usize, f64)> = Vec::new();
    for &threads in &flags.threads {
        let opts = SweepOptions {
            threads: Some(threads),
            config_token: FrontierSpec::config_token(),
            ..SweepOptions::default()
        };
        let started = Instant::now();
        let report = run_jobs("games-scaling", &jobs, &opts);
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
        let layers_json: Vec<String> = layer_runs
            .iter()
            .map(|(m, combos, wall, rate)| {
                format!(
                    "{{\"miners\":{m},\"coalitions\":{combos},\"wall_s\":{wall:.6},\
                     \"frontier_nodes_per_s\":{rate:.0}}}"
                )
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
            "{{\"bench\":\"games_scaling\",\"size\":{},\"cores\":{cores},\
             \"layer_runs\":[{}],\"thread_runs\":[{}]}}",
            flags.size,
            layers_json.join(","),
            threads_json.join(",")
        );
    }
}
