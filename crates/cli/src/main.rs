//! `bvc` — the command-line interface to the BVC analysis toolkit. The
//! subcommands and their flags are listed once, in [`USAGE`] (`bvc help`).

mod args;
mod commands;

use args::Args;

const USAGE: &str = "\
bvc — Block Validity Consensus analysis toolkit
(reproduction of Zhang & Preneel, CoNEXT 2017)

USAGE:
  bvc solve    --alpha A [--ratio B:C | --eb N] [--incentive compliant|double-spend|vandal]
               [--setting 1|2] [--ad N] [--ad-carol N] [--gate N] [--show-policy]
               [--rds R] [--confirmations N]   (double-spend only)
               solve the BU attack MDP for one table cell, named as serve's
               table routes name it; alpha defaults to 0.01 for vandal
  bvc bitcoin  --alpha A [--gamma G] [--cap N] [--double-spend] [--threshold]
               the Bitcoin baselines: SM1, optimal selfish mining, SM+DS
  bvc simulate [--attacker-power P] [--honest-powers P1,P2,..] [--large-eb-miners K]
               [--eb-small MB] [--eb-large MB] [--ad N] [--delay D] [--blocks N] [--seed S]
               run the network simulator with a splitter attacker
  bvc scenario [--nodes N] [--hash uniform|zipf|measured] [--zipf-s S]
               [--eb-small MB] [--eb-large MB] [--ad N] [--large-frac F]
               [--delay zero|constant|uniform|ring] [--delay-d D] [--delay-min D]
               [--delay-max D] [--per-hop D] [--rule rizun|rizun-nogate|srccode]
               [--attacker honest|lead-k|mdp] [--alpha A] [--k K] [--ratio B:C]
               [--blocks N] [--seed S] [--json] | --list
               run one BU network scenario cell (up to thousands of nodes)
               or list the canonical scenario-grid / scenario-crossval
               cells; attacker=mdp replays the cell's optimal MDP policy
               and reports simulated vs exact relative revenue
  bvc games eb   --powers P1,P2,..          EB choosing game equilibria & fragility
  bvc games bsig --groups MPB:P,.. [--threshold T]
                                            block size increasing game playout
  bvc games map  [--miners N] [--power uniform|zipf|measured|adversarial]
               [--zipf-s S] [--adv-top P] [--econ ladder|fee] [--fee F]
               [--bw-lo B] [--bw-hi B] [--latency Z] [--cost C]
               [--threshold T] [--perturb none|random] [--trials N] [--kmax K]
               [--seed S] [--json]
               solve one bvc-gamesweep equilibrium-map cell (defaults are
               the paper's Figure 4 game: terminal=1 after two rounds)
  bvc games frontier --size K [--shard I --shards N] [map flags] [--json]
               solve one committed-coalition frontier shard of the block
               size increasing game (ladder economics only)
  bvc games --list                          list the canonical games-grid /
                                            games-frontier workload cells
  bvc audit    --alpha A [model flags as in solve] [--json]
               statically certify solver preconditions (stochastic rows,
               reachability, unichain) without solving; exits nonzero on a
               failed check. --demo multichain|unreachable audits a
               hand-built broken model instead.
  bvc serve    [--addr HOST:PORT] [--workers N] [--cache-cells N] [--queue-cap N]
               [--deadline-s S] [--retry-after-ms MS] [--preload table2=journal.jsonl,..]
               serve table cells and ad-hoc solves over HTTP/JSON with a
               fingerprint-keyed cache, single-flight dedup and load
               shedding; POST /admin/shutdown drains and exits
  bvc cluster coordinate --workload NAME [--addr HOST:PORT] [--journal PATH]
               [--lease S] [--batch N] [--max-dispatch N] [--cell-deadline S]
               [--audit] [--fail-fast] [--quiet] [--durability none|batch|always]
               [--chaos SPEC]
               shard a named sweep workload over TCP workers with
               lease-based fault tolerance; the journal written is
               bit-identical to a local sweep's, a torn tail from a crash
               is truncated and re-solved on restart
  bvc cluster work --connect HOST:PORT [--threads N] [--batch N]
               [--die-after N] [--die-mode hang|disconnect] [--quiet]
               [--reconnect N] [--chaos SPEC] [--chaos-site NAME]
               stateless worker: claim, solve and report cell batches;
               survives coordinator restarts by reconnecting with seeded
               backoff and redelivering unacked results
  bvc cluster workloads                     list the named workloads
  bvc journal stat    --path J [--json]     summarize a sweep journal
  bvc journal compact --path J [--out PATH | --in-place]
               rewrite a journal keeping the newest entry per cell
  bvc help                                  this text

Every subcommand rejects a flag it does not take.

The tables and figures of the paper are regenerated by the binaries in the
bvc-repro crate (see README.md).";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match dispatch(raw) {
        Ok(()) => 0,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            2
        }
    });
}

fn dispatch(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse(raw).map_err(|e| e.to_string())?;
    let Some(cmd) = args.positional().first() else {
        println!("{USAGE}");
        return Ok(());
    };
    match cmd.as_str() {
        "solve" => {
            let cmd = commands::solve::parse(&args).map_err(|e| e.to_string())?;
            commands::solve::run(&cmd)
        }
        "audit" => {
            let cmd = commands::audit::parse(&args).map_err(|e| e.to_string())?;
            commands::audit::run(&cmd)
        }
        "bitcoin" => {
            let cmd = commands::bitcoin::parse(&args).map_err(|e| e.to_string())?;
            commands::bitcoin::run(&cmd)
        }
        "simulate" => {
            let cmd = commands::simulate::parse(&args).map_err(|e| e.to_string())?;
            commands::simulate::run(&cmd)
        }
        "serve" => {
            let cmd = commands::serve::parse(&args).map_err(|e| e.to_string())?;
            commands::serve::run(&cmd)
        }
        "scenario" => commands::cell::command::<bvc_scenario::ScenarioSpec>(
            &args,
            commands::cell::SCENARIO_WORKLOADS,
        ),
        "games" => commands::games::dispatch(&args),
        "cluster" => {
            let cmd = commands::cluster::parse(&args).map_err(|e| e.to_string())?;
            commands::cluster::run(&cmd)
        }
        "journal" => {
            let cmd = commands::journal::parse(&args).map_err(|e| e.to_string())?;
            commands::journal::run(&cmd)
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_empty_succeed() {
        dispatch(vec![]).unwrap();
        dispatch(vec!["help".into()]).unwrap();
    }

    #[test]
    fn unknown_command_errors() {
        assert!(dispatch(vec!["frobnicate".into()]).is_err());
    }

    #[test]
    fn solve_smoke() {
        dispatch(vec!["solve".into(), "--alpha".into(), "0.25".into(), "--ad".into(), "3".into()])
            .unwrap();
    }
}
