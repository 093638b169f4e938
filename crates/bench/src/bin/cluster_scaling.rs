//! `cluster_scaling` — measures distributed-sweep speedup over local
//! worker processes-worth of threads.
//!
//! For each worker count (default 1, 2, 4) the bench binds an in-process
//! coordinator on an ephemeral port, spawns that many in-process workers
//! (one solver thread each, batch size 1 for load balance), and times the
//! whole Table 2 setting-1 sweep end to end — framing, leases and journal
//! ordering included. The headline is the speedup over the 1-worker run;
//! on a multi-core box 2 workers should clear 1.6x.
//!
//! ```text
//! cluster_scaling [--workload table2-setting1] [--workers 1,2,4]
//!                 [--quick] [--json]
//! ```
//!
//! `--quick` swaps in the 3-cell stone-sim workload as a smoke test. With
//! `--json`, the final line is one machine-readable record per bench run
//! (`{"bench":"cluster_scaling",...}`).

use std::thread;
use std::time::{Duration, Instant};

use bvc_cluster::{workload, ClusterConfig, Coordinator, WorkerOptions, Workload};

struct Flags {
    workload: String,
    workers: Vec<usize>,
    json: bool,
}

fn parse_flags() -> Result<Flags, String> {
    let mut flags =
        Flags { workload: "table2-setting1".to_string(), workers: vec![1, 2, 4], json: false };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--workload" => flags.workload = value(&mut i)?,
            "--quick" => flags.workload = "stone-sim".to_string(),
            "--workers" => {
                flags.workers = value(&mut i)?
                    .split(',')
                    .map(|p| p.trim().parse::<usize>().map_err(|e| format!("--workers: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--json" => flags.json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if flags.workers.is_empty() || flags.workers.contains(&0) {
        return Err("--workers needs a comma-separated list of positive counts".to_string());
    }
    Ok(flags)
}

/// One timed distributed sweep: coordinator plus `workers` single-threaded
/// in-process workers. Returns the wall time and the solved-cell count.
fn run_once(wl: &Workload, workers: usize) -> Result<(Duration, usize), String> {
    let cfg = ClusterConfig {
        config_token: wl.config_token.clone(),
        // Batch 1: with a handful of heavyweight cells, larger grants
        // serialize the tail onto one worker and hide the scaling.
        batch: 1,
        lease: Duration::from_secs(120),
        quiet: true,
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = coordinator.local_addr().map_err(|e| format!("local_addr: {e}"))?.to_string();

    let started = Instant::now();
    let report = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let opts = WorkerOptions { threads: 1, batch: 1, ..WorkerOptions::default() };
                    bvc_cluster::run_worker(&addr, &opts)
                })
            })
            .collect();
        let report = coordinator.run(wl.name, &wl.jobs);
        for handle in handles {
            handle.join().map_err(|_| "worker panicked".to_string())?.map_err(|e| e.to_string())?;
        }
        report.map_err(|e| format!("coordinator: {e}"))
    })?;
    let wall = started.elapsed();

    let solved = report.cells.iter().filter(|c| c.outcome.is_ok()).count();
    if solved != wl.jobs.len() {
        return Err(format!("only {solved}/{} cells solved", wl.jobs.len()));
    }
    Ok((wall, solved))
}

fn main() {
    let flags = match parse_flags() {
        Ok(flags) => flags,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    let Some(wl) = workload(&flags.workload) else {
        eprintln!("error: unknown workload {:?}", flags.workload);
        std::process::exit(2);
    };
    println!(
        "cluster_scaling: workload {} ({} cells), {} core(s)",
        wl.name,
        wl.jobs.len(),
        thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    );

    let mut results: Vec<(usize, Duration)> = Vec::new();
    for &workers in &flags.workers {
        match run_once(&wl, workers) {
            Ok((wall, solved)) => {
                let base = results.first().map(|(_, t)| t.as_secs_f64());
                let speedup = base.map(|b| b / wall.as_secs_f64());
                println!(
                    "{workers} worker(s): {:.3}s for {solved} cells ({:.2} cells/s){}",
                    wall.as_secs_f64(),
                    solved as f64 / wall.as_secs_f64(),
                    match speedup {
                        Some(s) => format!("  speedup {s:.2}x"),
                        None => String::new(),
                    }
                );
                results.push((workers, wall));
            }
            Err(e) => {
                eprintln!("error: {workers}-worker run failed: {e}");
                std::process::exit(1);
            }
        }
    }

    if flags.json {
        let base = results[0].1.as_secs_f64();
        let runs: Vec<String> = results
            .iter()
            .map(|(w, t)| {
                format!(
                    "{{\"workers\":{w},\"wall_s\":{:.6},\"speedup\":{:.4}}}",
                    t.as_secs_f64(),
                    base / t.as_secs_f64()
                )
            })
            .collect();
        println!(
            "{{\"bench\":\"cluster_scaling\",\"workload\":\"{}\",\"cells\":{},\"runs\":[{}]}}",
            wl.name,
            wl.jobs.len(),
            runs.join(",")
        );
    }
}
