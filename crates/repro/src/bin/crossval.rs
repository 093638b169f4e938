//! Cross-validation: replays MDP-optimal policies on the **real chain
//! substrate** (block tree + BU node views) and on the MDP itself via Monte
//! Carlo, comparing three estimates of each utility:
//!
//! 1. exact — stationary-distribution evaluation of the policy;
//! 2. MDP-MC — sampled path through the MDP transitions;
//! 3. chain-MC — the `bvc-sim` replay on real chains (setting 1).
//!
//! All three must agree within sampling error; this closes the loop between
//! the analytic model and the chain semantics.
//!
//! Run: `cargo run --release -p bvc-repro --bin crossval`
//!
//! Each cell runs isolated in the sweep runner: a disagreement panics that
//! cell only, the remaining cells still report, and the binary exits
//! nonzero. Accepts the standard sweep-runner flags (see
//! `bvc_repro::sweep`).

use bvc_bu::SolveOptions;
use bvc_cluster::jobs::{crossval_specs, CROSSVAL_STEPS};
use bvc_repro::sweep::{run_jobs, JobSpec, SweepOptions};

fn main() {
    let (mut opts, _rest) = SweepOptions::from_cli_or_exit(std::env::args().skip(1));
    opts.config_token =
        format!("{};steps={CROSSVAL_STEPS}", SolveOptions::default().fingerprint_token());

    println!("MDP <-> chain-substrate cross-validation ({CROSSVAL_STEPS} sampled blocks per run)");
    println!();
    // The cell bodies (and the index-keyed MC seeds) live in the job
    // registry, so a cluster worker replays exactly this binary's solves.
    let specs = crossval_specs();
    let jobs: Vec<JobSpec> = (0..specs.len()).map(|index| JobSpec::Crossval { index }).collect();
    let report = run_jobs("crossval", &jobs, &opts);

    println!("{:<42} {:>9} {:>9} {:>9}", "cell", "exact", "MDP-MC", "chain-MC");
    for (i, (alpha, ratio, incentive)) in specs.iter().enumerate() {
        let which = incentive.utility().name();
        let label = format!("{which} alpha={}%, beta:gamma={}:{}", alpha * 100.0, ratio.0, ratio.1);
        match report.value(i) {
            Some(row) => println!("{label:<42} {:>9.4} {:>9.4} {:>9.4}", row[0], row[1], row[2]),
            None => {
                let reason = report.cells[i]
                    .outcome
                    .as_ref()
                    .err()
                    .map(|f| f.reason_code())
                    .unwrap_or_else(|| "?".to_string());
                println!("{label:<42} FAIL({reason})");
            }
        }
    }
    println!();
    if report.has_failures() {
        println!("cross-validation INCOMPLETE: see the failure legend below.");
    } else {
        println!("all three estimators agree: the MDP's transition semantics match the");
        println!("behaviour of real BU node views over a shared block tree.");
    }
    println!("{}", report.summary());
    print!("{}", report.failure_legend());
    if opts.json {
        println!("{}", report.to_json());
    }
    std::process::exit(report.exit_code());
}
