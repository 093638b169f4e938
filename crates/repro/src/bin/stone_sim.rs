//! Regenerates the §2.3 comparison with Andrew Stone's "Emergent Consensus
//! Simulations": forks are rare when every miner's block size is *static*,
//! but frequent when an attacker sizes blocks adaptively — the paper's
//! rebuttal of Stone's conclusion.
//!
//! Three Monte Carlo scenarios on the full network simulator (real BU
//! views, sticky gates enabled):
//!
//! 1. all miners honest with `MG = EB` — no forks at zero delay;
//! 2. all miners honest with heterogeneous EBs but static 1 MB blocks
//!    (Stone's setting) — still no forks;
//! 3. a 10% attacker adaptively injecting `EB_C`-sized blocks
//!    (the Cryptoconomy splitter) — persistent forking.
//!
//! The scenarios are the `stone-sim` rows of the job registry
//! (`bvc_cluster::jobs`), which holds their miner line-ups and seeds.
//!
//! Run: `cargo run --release -p bvc-repro --bin stone_sim`
//!
//! Each scenario runs as an isolated sweep cell (the summary statistics are
//! journaled, so an interrupted run resumes without re-simulating).
//! Accepts the standard sweep-runner flags (see `bvc_repro::sweep`).

use bvc_cluster::jobs::STONE_BLOCKS;
use bvc_repro::sweep::{run_workload, SweepOptions};

fn render(label: &str, row: &[f64]) {
    let [mined, on_chain, reorgs, max_depth, share] = row[..] else {
        unreachable!("simulate always packs five values")
    };
    println!("{label}");
    println!(
        "  blocks mined {}, on final chain {}, orphan rate {:.2}%",
        mined,
        on_chain,
        100.0 * (mined - on_chain) / mined
    );
    println!(
        "  reorg events {reorgs} ({:.2} per 1000 blocks), deepest reorg {max_depth}",
        1000.0 * reorgs / mined
    );
    println!("  miner 0's share of the final chain: {:.3}", share);
    println!();
}

fn main() {
    let (opts, _) = SweepOptions::from_cli_or_exit(std::env::args().skip(1), &[]);

    println!("Stone-style fork-frequency simulations ({STONE_BLOCKS} blocks each, zero delay)");
    println!();

    let scenarios = [
        "scenario 1: homogeneous EB = 1 MB, static 1 MB blocks",
        "scenario 2 (Stone): heterogeneous EBs (1 MB / 16 MB), static 1 MB blocks",
        "scenario 3 (paper): 10% attacker with adaptive block sizes",
    ];
    let (_, report) = run_workload("stone-sim", &opts);

    for (i, label) in scenarios.iter().enumerate() {
        match report.value(i) {
            Some(row) => render(label, row),
            None => {
                println!("{label}");
                println!("  FAIL({})", report.reason_code(i));
                println!();
            }
        }
    }

    println!("conclusion: static block sizes (Stone's model) produce no forks even with");
    println!("heterogeneous EBs; an adaptive attacker forks the network persistently —");
    println!("matching the paper's critique (§2.3) of the emergent-consensus simulations.");
    println!("{}", report.summary());
    print!("{}", report.failure_legend());
    if opts.json {
        println!("{}", report.to_json());
    }
    std::process::exit(report.exit_code());
}
