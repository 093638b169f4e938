//! `chaos_soak` — the deterministic chaos scenario matrix for the
//! distributed sweep subsystem.
//!
//! Each scenario runs an in-process coordinator + workers over a
//! workload with a seeded fault plan (worker churn, targeted connection
//! drops, torn journal appends, probabilistic network noise, crash-torn
//! journal prefixes, fsync-per-append durability) and asserts the two
//! invariants the chaos layer exists to protect:
//!
//! * the final journal is **byte-identical** to an uninterrupted local
//!   `--threads 1` run of the same cells;
//! * no cell is lost and no cell appears twice in the journal.
//!
//! The reconnect scenario runs twice with the same seed and additionally
//! asserts the injected fault schedule and journal bytes are identical
//! across runs — the replayability guarantee.
//!
//! ```text
//! chaos_soak [--workload stone-sim] [--seed 42] [--json]
//! ```
//!
//! Exits nonzero if any scenario fails. Real process kills (crash points
//! and `kill -9`) are exercised by `scripts/chaos_smoke.sh`, which drives
//! the installed `bvc` binary; this harness covers everything that can be
//! injected in-process.

use std::path::{Path, PathBuf};
use std::time::Duration;

use bvc_cluster::{
    workload, ClusterConfig, Coordinator, DieMode, ReconnectPolicy, WorkerOptions, WorkerSummary,
    Workload,
};
use bvc_journal::{load_journal, Durability};
use bvc_repro::sweep::{run_jobs, SweepOptions};

struct Flags {
    workload: String,
    seed: u64,
    json: bool,
}

fn parse_flags() -> Result<Flags, String> {
    let mut flags = Flags { workload: "stone-sim".to_string(), seed: 42, json: false };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--workload" => flags.workload = value(&mut i)?,
            "--seed" => flags.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--json" => flags.json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    Ok(flags)
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bvc-chaos-soak-{tag}-{}.jsonl", std::process::id()))
}

/// The reference journal bytes: a local single-threaded sweep with no
/// chaos plan installed.
fn reference_journal(wl: &Workload) -> Result<Vec<u8>, String> {
    let path = tmp_path("reference");
    std::fs::remove_file(&path).ok();
    let opts = SweepOptions {
        journal: Some(path.clone()),
        threads: Some(1),
        config_token: wl.config_token.clone(),
        ..SweepOptions::default()
    };
    let report = run_jobs(wl.name, &wl.jobs, &opts);
    if report.solved() != wl.jobs.len() {
        return Err(format!("reference sweep incomplete: {}", report.failure_legend()));
    }
    let bytes = std::fs::read(&path).map_err(|e| format!("read reference journal: {e}"))?;
    std::fs::remove_file(&path).ok();
    Ok(bytes)
}

struct RunOutcome {
    journal: Vec<u8>,
    summaries: Vec<Result<WorkerSummary, String>>,
    events: Vec<String>,
}

/// One in-process cluster run over `path` (pre-seeded or fresh); the
/// caller installs/clears the chaos plan around it.
fn cluster_run(
    wl: &Workload,
    path: &PathBuf,
    workers: Vec<(WorkerOptions, Duration)>,
    durability: Durability,
) -> Result<RunOutcome, String> {
    let cfg = ClusterConfig {
        config_token: wl.config_token.clone(),
        journal: Some(path.clone()),
        lease: Duration::from_secs(30),
        quiet: true,
        durability,
        ..ClusterConfig::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = coordinator.local_addr().map_err(|e| format!("addr: {e}"))?.to_string();
    let (result, summaries) = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|(opts, delay)| {
                let addr = addr.clone();
                scope.spawn(move || {
                    std::thread::sleep(delay);
                    bvc_cluster::run_worker(&addr, &opts)
                })
            })
            .collect();
        let result = coordinator.run(wl.name, &wl.jobs);
        let summaries = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("worker thread panicked".to_string())))
            .collect();
        (result, summaries)
    });
    result.map_err(|e| format!("coordinator: {e}"))?;
    let journal = std::fs::read(path).map_err(|e| format!("read journal: {e}"))?;
    Ok(RunOutcome { journal, summaries, events: bvc_chaos::drain_events() })
}

/// The two invariants every scenario must uphold: byte-identity against
/// the reference and exactly-once presence of every cell fingerprint.
fn check_invariants(
    wl: &Workload,
    journal: &[u8],
    reference: &[u8],
    path: &Path,
) -> Result<(), String> {
    if journal != reference {
        return Err(format!(
            "journal diverged from reference ({} vs {} bytes)",
            journal.len(),
            reference.len()
        ));
    }
    // Exactly-once: one journal line per cell, each fp present.
    let lines = journal.iter().filter(|&&b| b == b'\n').count();
    if lines != wl.jobs.len() {
        return Err(format!("{} journal lines for {} cells", lines, wl.jobs.len()));
    }
    let entries = load_journal(path);
    if entries.len() != wl.jobs.len() {
        return Err(format!("{} distinct fps for {} cells", entries.len(), wl.jobs.len()));
    }
    Ok(())
}

fn reconnecting(site: &str, seed: u64) -> WorkerOptions {
    WorkerOptions {
        site: site.to_string(),
        reconnect: ReconnectPolicy {
            attempts: 10,
            base: Duration::from_millis(10),
            max: Duration::from_millis(80),
            seed,
        },
        ..WorkerOptions::default()
    }
}

type Scenario = (&'static str, Box<dyn Fn(&Workload, &[u8], u64) -> Result<String, String>>);

fn scenarios() -> Vec<Scenario> {
    let run_checked = |wl: &Workload,
                       reference: &[u8],
                       tag: &str,
                       plan: Option<String>,
                       workers: Vec<(WorkerOptions, Duration)>,
                       durability: Durability|
     -> Result<RunOutcome, String> {
        let path = tmp_path(tag);
        std::fs::remove_file(&path).ok();
        bvc_chaos::reset();
        if let Some(plan) = &plan {
            bvc_chaos::install_spec(plan)?;
        }
        let outcome = cluster_run(wl, &path, workers, durability);
        bvc_chaos::reset();
        let outcome = outcome?;
        check_invariants(wl, &outcome.journal, reference, &path)?;
        std::fs::remove_file(&path).ok();
        Ok(outcome)
    };

    vec![
        (
            "baseline",
            Box::new(move |wl, reference, _seed| {
                run_checked(
                    wl,
                    reference,
                    "baseline",
                    None,
                    vec![(WorkerOptions::default(), Duration::ZERO)],
                    Durability::Batch,
                )?;
                Ok("clean run, identity holds".into())
            }),
        ),
        (
            "worker-churn",
            Box::new(move |wl, reference, _seed| {
                // The first worker claims the whole batch, dies after one cell
                // (socket drop); a late-starting healthy worker picks up the
                // requeued cells.
                let dying = WorkerOptions {
                    die_after: Some(1),
                    die_mode: DieMode::Disconnect,
                    ..WorkerOptions::default()
                };
                let out = run_checked(
                    wl,
                    reference,
                    "churn",
                    None,
                    vec![
                        (dying, Duration::ZERO),
                        (WorkerOptions::default(), Duration::from_millis(300)),
                    ],
                    Durability::Batch,
                )?;
                let died = out
                    .summaries
                    .iter()
                    .filter(|s| s.as_ref().map(|w| w.died).unwrap_or(false))
                    .count();
                if died != 1 {
                    return Err(format!("expected exactly one injected death, saw {died}"));
                }
                Ok("1 worker died mid-batch, cells requeued".into())
            }),
        ),
        (
            "reconnect-replay",
            Box::new(move |wl, reference, seed| {
                // Targeted drop of the worker's 4th frame (its second `done`),
                // run twice: identity + an identical fault schedule per seed.
                let plan = format!("seed={seed},conn_drop_at=w1.s1.tx:4");
                let mut schedules = Vec::new();
                for _ in 0..2 {
                    let out = run_checked(
                        wl,
                        reference,
                        "reconnect",
                        Some(plan.clone()),
                        vec![(reconnecting("w1", seed), Duration::ZERO)],
                        Durability::Batch,
                    )?;
                    let sessions =
                        out.summaries[0].as_ref().map(|w| w.sessions).map_err(|e| e.clone())?;
                    if sessions < 2 {
                        return Err(format!("worker never reconnected (sessions={sessions})"));
                    }
                    let mut events = out.events;
                    events.sort();
                    schedules.push(events);
                }
                if schedules[0] != schedules[1] {
                    return Err(format!(
                        "fault schedule not reproducible: {:?} vs {:?}",
                        schedules[0], schedules[1]
                    ));
                }
                if schedules[0].is_empty() {
                    return Err("plan injected no faults".into());
                }
                Ok(format!("2 identical runs, schedule {:?}", schedules[0]))
            }),
        ),
        (
            "prefix-resume",
            Box::new(move |wl, reference, _seed| {
                // A crash-torn journal (full first line + half of the second)
                // resumes to byte-identity.
                let path = tmp_path("prefix");
                let lines: Vec<&[u8]> = reference.split_inclusive(|&b| b == b'\n').collect();
                let mut seeded = lines[0].to_vec();
                seeded.extend_from_slice(&lines[1][..lines[1].len() / 2]);
                std::fs::write(&path, &seeded).map_err(|e| format!("seed journal: {e}"))?;
                bvc_chaos::reset();
                let out = cluster_run(
                    wl,
                    &path,
                    vec![(WorkerOptions::default(), Duration::ZERO)],
                    Durability::Batch,
                )?;
                check_invariants(wl, &out.journal, reference, &path)?;
                std::fs::remove_file(&path).ok();
                Ok("torn tail truncated, prefix replayed, identity holds".into())
            }),
        ),
        (
            "torn-append",
            Box::new(move |wl, reference, seed| {
                // The coordinator's second journal append is torn mid-line and
                // must self-heal in-run via rollback + retry.
                let plan = format!("seed={seed},torn_write_at=journal.append:2");
                run_checked(
                    wl,
                    reference,
                    "torn",
                    Some(plan),
                    vec![(WorkerOptions::default(), Duration::ZERO)],
                    Durability::Batch,
                )?;
                Ok("torn append rolled back and retried".into())
            }),
        ),
        (
            "net-noise",
            Box::new(move |wl, reference, seed| {
                // Probabilistic noise on every chaos-wrapped stream: small
                // stalls, latency, and a drop rate high enough to force
                // reconnects over a longer run but low enough to finish.
                let plan = format!("seed={seed},conn_drop=0.05,read_stall_ms=3,latency_ms=1");
                let out = run_checked(
                    wl,
                    reference,
                    "noise",
                    Some(plan),
                    vec![
                        (reconnecting("w1", seed), Duration::ZERO),
                        (reconnecting("w2", seed.wrapping_add(1)), Duration::ZERO),
                    ],
                    Durability::Batch,
                )?;
                Ok(format!("{} fault(s) injected, identity holds", out.events.len()))
            }),
        ),
        (
            "durability-always",
            Box::new(move |wl, reference, _seed| {
                // fsync-per-append must not change a single byte.
                run_checked(
                    wl,
                    reference,
                    "always",
                    None,
                    vec![(WorkerOptions::default(), Duration::ZERO)],
                    Durability::Always,
                )?;
                Ok("fsync-per-append run byte-identical".into())
            }),
        ),
    ]
}

fn main() {
    let flags = match parse_flags() {
        Ok(f) => f,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: chaos_soak [--workload NAME] [--seed N] [--json]");
            std::process::exit(2);
        }
    };
    let Some(wl) = workload(&flags.workload) else {
        eprintln!("error: unknown workload {:?}", flags.workload);
        std::process::exit(2);
    };
    println!(
        "chaos_soak: workload {} ({} cells), seed {}",
        flags.workload,
        wl.jobs.len(),
        flags.seed
    );
    let reference = match reference_journal(&wl) {
        Ok(bytes) => bytes,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(1);
        }
    };

    let mut failed = 0usize;
    let mut rows = Vec::new();
    for (name, scenario) in scenarios() {
        let started = std::time::Instant::now();
        let result = scenario(&wl, &reference, flags.seed);
        let elapsed = started.elapsed();
        match &result {
            Ok(note) => println!("  PASS {name:<18} {:>6.2}s  {note}", elapsed.as_secs_f64()),
            Err(msg) => {
                failed += 1;
                println!("  FAIL {name:<18} {:>6.2}s  {msg}", elapsed.as_secs_f64());
            }
        }
        rows.push((name, result.is_ok(), elapsed));
    }
    if flags.json {
        for (name, ok, elapsed) in &rows {
            println!(
                "{{\"bench\":\"chaos_soak\",\"scenario\":\"{name}\",\"ok\":{ok},\
                 \"seed\":{},\"elapsed_s\":{:.3}}}",
                flags.seed,
                elapsed.as_secs_f64()
            );
        }
    }
    if failed > 0 {
        eprintln!("chaos_soak: {failed} scenario(s) FAILED");
        std::process::exit(1);
    }
    println!("chaos_soak: all {} scenarios passed", rows.len());
}
