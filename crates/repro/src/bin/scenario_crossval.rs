//! Scenario-grid cross-validation: replays the **optimal MDP policy** of
//! selected Table 2 setting-1 cells on N-node BU networks (heterogeneous
//! hash rates, two `EB` groups) and checks that the simulated relative
//! revenue converges to the exact MDP `u1`.
//!
//! Each setting runs `CROSSVAL_REPS` independently-seeded replications of
//! a `CROSSVAL_NODES`-node network for `CROSSVAL_BLOCKS` blocks; the
//! replication mean must lie within `crossval_tolerance` (the 95% CI
//! half-width of the mean, floored at 0.02 absolute) of the exact value.
//! Under setting-1 semantics the aggregation of many nodes into the
//! model's three miners is exact, so a miss beyond sampling error means a
//! bug in the network engine, the policy export, or the MDP itself.
//!
//! The replications are the `scenario-crossval` rows of the job registry
//! (`bvc_cluster::jobs`), in `bvc_scenario::crossval_cells()` order.
//!
//! Run: `cargo run --release -p bvc-repro --bin scenario_crossval`
//!
//! Accepts the standard sweep-runner flags (see `bvc_repro::sweep`), so
//! replications shard across threads, journal, resume, and run
//! distributed (`--cluster`) with bit-identical journals.

use bvc_repro::sweep::{run_workload, SweepOptions};
use bvc_scenario::{
    crossval_tolerance, CROSSVAL_BLOCKS, CROSSVAL_NODES, CROSSVAL_REPS, CROSSVAL_SETTINGS,
};

fn main() {
    let (opts, _) = SweepOptions::from_cli_or_exit(std::env::args().skip(1), &[]);

    println!(
        "MDP policy <-> {CROSSVAL_NODES}-node network cross-validation \
         ({CROSSVAL_REPS} x {CROSSVAL_BLOCKS} blocks per setting)"
    );
    println!();
    let (_, report) = run_workload("scenario-crossval", &opts);

    let mut converged = true;
    println!(
        "{:<28} {:>9} {:>9} {:>9} {:>9}  verdict",
        "setting", "exact u1", "mean sim", "|diff|", "tol"
    );
    for (s, (alpha, ratio)) in CROSSVAL_SETTINGS.iter().enumerate() {
        let label = format!("alpha={}% beta:gamma={}:{}", alpha * 100.0, ratio.0, ratio.1);
        let mut sims = Vec::new();
        let mut exact = None;
        for rep in 0..CROSSVAL_REPS {
            if let Some(row) = report.value(s * CROSSVAL_REPS + rep) {
                sims.push(row[0]);
                exact = Some(row[1]);
            }
        }
        let Some(exact_u1) = exact else {
            println!("{label:<28} FAIL(no replication solved)");
            converged = false;
            continue;
        };
        let n = sims.len() as f64;
        let mean = sims.iter().sum::<f64>() / n;
        // Sample variance of the replications -> standard error of the
        // mean (0 when only one replication survived; the tolerance
        // floor still applies).
        let var = if sims.len() > 1 {
            sims.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        let stderr = (var / n).sqrt();
        let tol = crossval_tolerance(stderr);
        let diff = (mean - exact_u1).abs();
        let ok = diff <= tol && sims.len() == CROSSVAL_REPS;
        converged &= ok;
        println!(
            "{label:<28} {exact_u1:>9.4} {mean:>9.4} {diff:>9.4} {tol:>9.4}  {}",
            if ok { "ok" } else { "MISS" }
        );
    }
    println!();
    if converged && !report.has_failures() {
        println!("every setting converged: thousands-of-node aggregate dynamics reproduce");
        println!("the three-miner MDP's optimal relative revenue within sampling error.");
    } else {
        println!("cross-validation INCOMPLETE: see the verdicts and failure legend above.");
    }
    println!("{}", report.summary());
    print!("{}", report.failure_legend());
    if opts.json {
        println!("{}", report.to_json());
    }
    std::process::exit(if converged { report.exit_code() } else { 1 });
}
