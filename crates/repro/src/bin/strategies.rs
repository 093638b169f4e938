//! Prints the optimal attack strategies the tables are built from — the
//! qualitative picture behind §4.2–§4.4 and the §5.1.2 justification
//! ("Alice mines with the stronger miner group unless the other group has
//! a large lead").
//!
//! For each incentive model: the base-state decision, the phase-1 action
//! map over `(l1, l2, a1, a2)` states, and side-preference statistics.
//!
//! The solves are the `strategies` rows of the job registry
//! (`bvc_cluster::jobs`); the binary keeps only the rendering.
//!
//! Run: `cargo run --release -p bvc-repro --bin strategies`
//!
//! The three solves run through the sweep runner (isolation + optional
//! checkpointing; a journaled cell stores the optimal value *and* policy,
//! so resumed runs re-render without re-solving). Accepts the standard
//! sweep-runner flags (see `bvc_repro::sweep`).

use bvc_bu::{render_phase1_map, summarize, AttackConfig, AttackModel, IncentiveModel, Setting};
use bvc_cluster::jobs::{StrategySpec, STRATEGY_SPECS};
use bvc_mdp::Policy;
use bvc_repro::sweep::{run_workload, SweepOptions};

fn build(alpha: f64, ratio: (u32, u32), incentive: &IncentiveModel) -> AttackModel {
    let cfg = AttackConfig::with_ratio(alpha, ratio, Setting::One, *incentive);
    AttackModel::build(cfg).expect("model builds")
}

fn render(spec: &StrategySpec, packed: &[f64]) {
    let (title, alpha, ratio, incentive) = spec;
    // Journal packing: [optimal value, policy choice per state...]. The
    // model rebuild here is cheap (no solving) and deterministic, so the
    // choices line up with state ids.
    let model = build(*alpha, *ratio, incentive);
    let value = packed[0];
    let mut policy = Policy::zeros(model.num_states());
    for (slot, &c) in policy.choices.iter_mut().zip(&packed[1..]) {
        *slot = c as usize;
    }
    let summary = summarize(&model, &policy);

    println!("== {title} (alpha={alpha}, beta:gamma={}:{}) ==", ratio.0, ratio.1);
    println!("optimal value: {value:.4}");
    println!("base-state action: {}", summary.base_action);
    println!(
        "fork states: {} on Chain 1, {} on Chain 2, {} waiting",
        summary.on_chain1, summary.on_chain2, summary.waits
    );
    if summary.phase1_fork_states > 0 {
        println!(
            "sides with the stronger compliant group in {:.0}% of phase-1 fork states",
            100.0 * summary.with_stronger_group as f64 / summary.phase1_fork_states as f64
        );
    }
    println!("phase-1 action map (per (l1,l2); entries enumerate (a1,a2); 1=OnChain1, 2=OnChain2, w=Wait):");
    print!("{}", render_phase1_map(&model, &policy));
    println!();
}

fn main() {
    let (opts, _) = SweepOptions::from_cli_or_exit(std::env::args().skip(1), &[]);

    let (_, report) = run_workload("strategies", &opts);

    for (i, spec) in STRATEGY_SPECS.iter().enumerate() {
        match report.value(i) {
            Some(packed) => render(spec, packed),
            None => {
                println!("== {} ==", spec.0);
                println!(
                    "FAILED: {}",
                    report.cells[i].outcome.as_ref().err().map(|f| f.message()).unwrap_or_default()
                );
                println!();
            }
        }
    }
    println!("reading: all three optima initiate forks at the base state; during a fork");
    println!("the compliant-Alice optimum follows §5.1.2 (mine with the stronger group");
    println!("unless the other side has a decisive lead); the non-profit optimum waits");
    println!("in balanced races, letting Bob and Carol orphan each other.");
    println!("{}", report.summary());
    print!("{}", report.failure_legend());
    if opts.json {
        println!("{}", report.to_json());
    }
    std::process::exit(report.exit_code());
}
