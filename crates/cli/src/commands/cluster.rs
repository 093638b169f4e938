//! `bvc cluster` — distributed sweep execution (`bvc-cluster`): a
//! coordinator that shards a named workload's cells over TCP workers with
//! lease-based fault tolerance, and the stateless worker loop.
//!
//! `coordinate` writes the same journal a local sweep would (bit for bit),
//! `work` connects to a coordinator and solves claimed batches, and
//! `workloads` lists the named cell lists the registry can build.

use std::path::PathBuf;
use std::time::Duration;

use bvc_cluster::{
    run_coordinator, run_worker, workload, ClusterConfig, DieMode, ReconnectPolicy, WorkerOptions,
    WORKLOAD_NAMES,
};
use bvc_journal::Durability;

use crate::args::{ArgError, Args};

/// Parsed configuration of one `bvc cluster <verb>` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterCmd {
    /// `bvc cluster coordinate`: own the queue, leases and journal.
    Coordinate {
        /// Workload name (`--workload`, see [`WORKLOAD_NAMES`]).
        workload: String,
        /// Bind address (`--addr`).
        addr: String,
        /// Journal path (`--journal`, also enables `--resume` semantics:
        /// existing ok-entries are replayed, the rest appended).
        journal: Option<PathBuf>,
        /// Lease duration (`--lease` seconds, positive).
        lease: Duration,
        /// Default cells granted per claim (`--batch`).
        batch: u32,
        /// Dispatch cap per cell before `FAIL(lost)` (`--max-dispatch`).
        max_dispatch: u32,
        /// Per-cell solve deadline (`--cell-deadline` seconds; 0 = none,
        /// stored as `None`).
        cell_deadline: Option<Duration>,
        /// Run the static model audit before each solve (`--audit`).
        audit: bool,
        /// Stop dispatching after the first failed cell (`--fail-fast`).
        fail_fast: bool,
        /// Suppress progress lines (`--quiet`).
        quiet: bool,
        /// Journal fsync policy (`--durability none|batch|always`).
        durability: Durability,
        /// Chaos fault-plan spec (`--chaos`; `BVC_CHAOS` env otherwise).
        chaos: Option<String>,
    },
    /// `bvc cluster work`: claim and solve batches until `Fin`.
    Work {
        /// Coordinator address (`--connect`).
        connect: String,
        /// Solver threads advertised and used (`--threads`).
        threads: u32,
        /// Worker threads inside each Bellman sweep (`--solve-threads`;
        /// only engaged when `--threads` is 1, see thread-budget
        /// arbitration in DESIGN.md).
        solve_threads: usize,
        /// Minimum states per intra-solve shard (`--shard-min-states`,
        /// 0 = solver default).
        shard_min_states: usize,
        /// Claim size override (`--batch`, 0 = coordinator default).
        batch: u32,
        /// Fault injection: die after N cells (`--die-after`).
        die_after: Option<usize>,
        /// How to die (`--die-mode hang|disconnect`).
        die_mode: DieMode,
        /// Suppress per-batch progress (`--quiet`).
        quiet: bool,
        /// Consecutive no-progress reconnect attempts tolerated before
        /// giving up (`--reconnect`, 0 disables reconnection).
        reconnect: u32,
        /// Chaos fault-plan spec (`--chaos`; `BVC_CHAOS` env otherwise).
        chaos: Option<String>,
        /// Chaos site prefix for this worker's streams (`--chaos-site`).
        chaos_site: String,
    },
    /// `bvc cluster workloads`: list the registry.
    Workloads,
}

fn parse_durability(args: &Args) -> Result<Durability, ArgError> {
    let raw = args.get_or("durability", "batch".to_string())?;
    Durability::parse(&raw)
        .ok_or_else(|| ArgError(format!("--durability must be none, batch or always, got {raw:?}")))
}

fn parse_chaos(args: &Args) -> Result<Option<String>, ArgError> {
    if !args.has("chaos") {
        return Ok(None);
    }
    let spec: String = args.get("chaos")?;
    bvc_chaos::FaultPlan::parse(&spec).map_err(|e| ArgError(format!("--chaos: {e}")))?;
    Ok(Some(spec))
}

/// Installs the process-wide chaos plan: an explicit `--chaos` spec wins,
/// otherwise `BVC_CHAOS` from the environment applies.
fn install_chaos(spec: &Option<String>) -> Result<(), String> {
    match spec {
        Some(spec) => bvc_chaos::install_spec(spec).map_err(|e| format!("chaos plan: {e}")),
        None => bvc_chaos::install_from_env().map(|_| ()).map_err(|e| format!("chaos plan: {e}")),
    }
}

/// Parses the subcommand's verb and flags.
pub fn parse(args: &Args) -> Result<ClusterCmd, ArgError> {
    let verb = args
        .positional()
        .get(1)
        .ok_or_else(|| ArgError("cluster needs a verb: coordinate, work or workloads".into()))?;
    match verb.as_str() {
        "coordinate" => {
            args.check_names(&[
                &["workload", "addr", "journal", "lease", "batch", "max-dispatch", "cell-deadline"],
                &["audit", "fail-fast", "quiet", "durability", "chaos"],
            ])?;
            let name: String = args.get("workload")?;
            if workload(&name).is_none() {
                return Err(ArgError(format!(
                    "unknown workload {name:?}; `bvc cluster workloads` lists the registry"
                )));
            }
            let lease = args.seconds_or("lease", Duration::from_secs(30))?;
            if lease.is_zero() {
                let raw = args.value("lease").unwrap_or_default();
                return Err(ArgError(format!("--lease must be positive seconds, got {raw:?}")));
            }
            Ok(ClusterCmd::Coordinate {
                workload: name,
                addr: args.get_or("addr", "127.0.0.1:9090".to_string())?,
                journal: if args.has("journal") {
                    Some(PathBuf::from(args.get::<String>("journal")?))
                } else {
                    None
                },
                lease,
                batch: args.get_or("batch", 4u32)?.max(1),
                max_dispatch: args.get_or("max-dispatch", 3u32)?.max(1),
                cell_deadline: Some(args.seconds_or("cell-deadline", Duration::ZERO)?)
                    .filter(|d| !d.is_zero()),
                audit: args.has("audit"),
                fail_fast: args.has("fail-fast"),
                quiet: args.has("quiet"),
                durability: parse_durability(args)?,
                chaos: parse_chaos(args)?,
            })
        }
        "work" => {
            args.check_names(&[
                &["connect", "threads", "solve-threads", "shard-min-states", "batch", "die-after"],
                &["die-mode", "quiet", "reconnect", "chaos", "chaos-site"],
            ])?;
            let die_mode = match args.get_or("die-mode", "hang".to_string())?.as_str() {
                "hang" => DieMode::Hang,
                "disconnect" => DieMode::Disconnect,
                other => {
                    return Err(ArgError(format!(
                        "--die-mode must be hang or disconnect, got {other:?}"
                    )))
                }
            };
            Ok(ClusterCmd::Work {
                connect: args.get("connect")?,
                threads: args.get_or("threads", 1u32)?.max(1),
                solve_threads: args.get_or("solve-threads", 1usize)?.max(1),
                shard_min_states: args.get_or("shard-min-states", 0usize)?,
                batch: args.get_or("batch", 0u32)?,
                die_after: if args.has("die-after") {
                    Some(args.get::<usize>("die-after")?)
                } else {
                    None
                },
                die_mode,
                quiet: args.has("quiet"),
                reconnect: args.get_or("reconnect", ReconnectPolicy::default().attempts)?,
                chaos: parse_chaos(args)?,
                chaos_site: args.get_or("chaos-site", "worker".to_string())?,
            })
        }
        "workloads" => {
            args.check_names(&[])?;
            Ok(ClusterCmd::Workloads)
        }
        other => Err(ArgError(format!(
            "unknown cluster verb {other:?}; expected coordinate, work or workloads"
        ))),
    }
}

/// Runs the parsed subcommand.
pub fn run(cmd: &ClusterCmd) -> Result<(), String> {
    match cmd {
        ClusterCmd::Coordinate {
            workload: name,
            addr,
            journal,
            lease,
            batch,
            max_dispatch,
            cell_deadline,
            audit,
            fail_fast,
            quiet,
            durability,
            chaos,
        } => {
            install_chaos(chaos)?;
            let wl = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            let mut cfg = ClusterConfig {
                config_token: wl.config_token.clone(),
                journal: journal.clone(),
                lease: *lease,
                batch: *batch,
                max_dispatch: *max_dispatch,
                fail_fast: *fail_fast,
                quiet: *quiet,
                durability: *durability,
                ..ClusterConfig::default()
            };
            cfg.cell.cell_deadline = *cell_deadline;
            cfg.cell.audit = *audit;
            let report = run_coordinator(addr, wl.name, &wl.jobs, cfg)
                .map_err(|e| format!("cluster run failed: {e}"))?;
            let failed = report.cells.iter().filter(|c| c.outcome.is_err()).count();
            let replayed = report.cells.iter().filter(|c| c.replayed).count();
            for cell in &report.cells {
                match &cell.outcome {
                    Ok(vals) => {
                        let rendered: Vec<String> =
                            vals.iter().map(|v| format!("{v:.6}")).collect();
                        println!(
                            "{}  ok{}  [{}]",
                            cell.key,
                            if cell.replayed { "  (replayed)" } else { "" },
                            rendered.join(", ")
                        );
                    }
                    Err(f) => println!("{}  FAIL({})  {}", cell.key, f.reason_code(), f.message()),
                }
            }
            println!();
            print!("{}", report.stats);
            println!(
                "{}: {}/{} cells ok ({} replayed, {} failed) in {:.1}s",
                report.label,
                report.cells.len() - failed,
                report.cells.len(),
                replayed,
                failed,
                report.wall.as_secs_f64()
            );
            if failed > 0 {
                std::process::exit(1);
            }
            Ok(())
        }
        ClusterCmd::Work {
            connect,
            threads,
            solve_threads,
            shard_min_states,
            batch,
            die_after,
            die_mode,
            quiet,
            reconnect,
            chaos,
            chaos_site,
        } => {
            install_chaos(chaos)?;
            // Tie the reconnect jitter stream to the chaos seed when a plan
            // is installed, so one seed reproduces the whole schedule.
            let reconnect_policy = ReconnectPolicy {
                attempts: *reconnect,
                seed: bvc_chaos::active_plan()
                    .map(|p| p.seed)
                    .unwrap_or(ReconnectPolicy::default().seed),
                ..ReconnectPolicy::default()
            };
            let opts = WorkerOptions {
                threads: *threads,
                batch: *batch,
                die_after: *die_after,
                die_mode: *die_mode,
                quiet: *quiet,
                solve_threads: *solve_threads,
                shard_min_states: *shard_min_states,
                reconnect: reconnect_policy,
                site: chaos_site.clone(),
            };
            let summary = run_worker(connect, &opts).map_err(|e| format!("worker failed: {e}"))?;
            println!(
                "worker done: {} solved, {} failed over {} batch(es), {} session(s){}",
                summary.solved,
                summary.failed,
                summary.batches,
                summary.sessions,
                if summary.died { " (died by injection)" } else { "" }
            );
            Ok(())
        }
        ClusterCmd::Workloads => {
            println!("{:<18} {:>6}", "name", "cells");
            for name in WORKLOAD_NAMES {
                if let Some(wl) = workload(name) {
                    println!("{:<18} {:>6}", name, wl.jobs.len());
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_cmd(raw: &[&str]) -> Result<ClusterCmd, ArgError> {
        parse(&Args::parse(raw.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn coordinate_defaults_and_overrides() {
        let cmd = parse_cmd(&["cluster", "coordinate", "--workload", "table2-setting1"]).unwrap();
        let ClusterCmd::Coordinate {
            workload,
            addr,
            lease,
            batch,
            max_dispatch,
            cell_deadline,
            ..
        } = cmd
        else {
            panic!("expected coordinate");
        };
        assert_eq!(workload, "table2-setting1");
        assert_eq!(addr, "127.0.0.1:9090");
        assert_eq!(lease, Duration::from_secs(30));
        assert_eq!(cell_deadline, None);
        assert_eq!(batch, 4);
        assert_eq!(max_dispatch, 3);

        let cmd = parse_cmd(&[
            "cluster",
            "coordinate",
            "--workload",
            "stone-sim",
            "--addr",
            "127.0.0.1:0",
            "--journal",
            "j.jsonl",
            "--lease",
            "2.5",
            "--batch",
            "8",
            "--max-dispatch",
            "5",
            "--cell-deadline",
            "0.25",
            "--fail-fast",
            "--quiet",
        ])
        .unwrap();
        let ClusterCmd::Coordinate {
            journal,
            lease,
            batch,
            max_dispatch,
            cell_deadline,
            fail_fast,
            quiet,
            ..
        } = cmd
        else {
            panic!("expected coordinate");
        };
        assert_eq!(journal, Some(PathBuf::from("j.jsonl")));
        assert_eq!(lease, Duration::from_millis(2500));
        assert_eq!(cell_deadline, Some(Duration::from_millis(250)));
        assert_eq!(batch, 8);
        assert_eq!(max_dispatch, 5);
        assert!(fail_fast);
        assert!(quiet);
    }

    #[test]
    fn work_parses_die_modes() {
        let cmd = parse_cmd(&["cluster", "work", "--connect", "127.0.0.1:9090"]).unwrap();
        let ClusterCmd::Work {
            threads,
            solve_threads,
            shard_min_states,
            batch,
            die_after,
            die_mode,
            ..
        } = cmd
        else {
            panic!("expected work");
        };
        assert_eq!(threads, 1);
        assert_eq!(solve_threads, 1);
        assert_eq!(shard_min_states, 0);
        assert_eq!(batch, 0);
        assert_eq!(die_after, None);
        assert_eq!(die_mode, DieMode::Hang);

        let cmd = parse_cmd(&[
            "cluster",
            "work",
            "--connect",
            "h:1",
            "--die-after",
            "2",
            "--die-mode",
            "disconnect",
            "--solve-threads",
            "2",
            "--shard-min-states",
            "64",
        ])
        .unwrap();
        let ClusterCmd::Work { die_after, die_mode, solve_threads, shard_min_states, .. } = cmd
        else {
            panic!("expected work");
        };
        assert_eq!(die_after, Some(2));
        assert_eq!(die_mode, DieMode::Disconnect);
        assert_eq!(solve_threads, 2);
        assert_eq!(shard_min_states, 64);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_cmd(&["cluster"]).is_err());
        assert!(parse_cmd(&["cluster", "frobnicate"]).is_err());
        assert!(parse_cmd(&["cluster", "coordinate", "--workload", "nope"]).is_err());
        assert!(
            parse_cmd(&["cluster", "coordinate", "--workload", "table4", "--lease", "0"]).is_err()
        );
        // Seconds that no `Duration` holds are usage errors, not panics.
        for flag in ["--lease", "--cell-deadline"] {
            for bad in ["-1", "nan", "inf", "1e300"] {
                let raw = ["cluster", "coordinate", "--workload", "table4", flag, bad];
                let ArgError(message) = parse_cmd(&raw).unwrap_err();
                assert!(message.contains(flag) && message.contains(bad), "{raw:?}: {message}");
            }
        }
        assert!(parse_cmd(&["cluster", "work"]).is_err());
        assert!(
            parse_cmd(&["cluster", "work", "--connect", "h:1", "--die-mode", "explode"]).is_err()
        );
    }

    /// A misspelled flag used to be ignored, leaving its default in place.
    #[test]
    fn unknown_flags_are_rejected() {
        for raw in [
            &["cluster", "coordinate", "--workload", "table4", "--retry", "5"][..],
            &["cluster", "coordinate", "--workload", "table4", "--retries", "2"],
            &["cluster", "work", "--connect", "h:1", "--thread", "4"],
            &["cluster", "workloads", "--json"],
        ] {
            let ArgError(message) = parse_cmd(raw).unwrap_err();
            assert!(message.starts_with("unknown parameter"), "{raw:?}: {message}");
        }
    }

    #[test]
    fn workloads_lists() {
        assert_eq!(parse_cmd(&["cluster", "workloads"]).unwrap(), ClusterCmd::Workloads);
        run(&ClusterCmd::Workloads).unwrap();
    }
}
