//! Parameter ablation for §6.2's claim that "adjusting the parameters only
//! trades one risk for another":
//!
//! * sweeping `AD` — a large `AD` lets the attacker keep the chain forked
//!   longer (higher orphan damage `u3` and more double-spend depth), while
//!   a small `AD` lets the attacker trigger sticky gates (and phase-3 giant
//!   blocks) with less effort — measured here as the rate of gate-opening
//!   events under the optimal `u2` policy;
//! * sweeping the sticky-gate length in setting 2 — a longer gate period
//!   gives more phase-2/phase-3 exposure per trigger, a shorter one lets
//!   the attacker split the network more often.
//!
//! The cells are the `ablation-ad` and `ablation-gate` rows of the job
//! registry (`bvc_cluster::jobs`).
//!
//! Run: `cargo run --release -p bvc-repro --bin ablation`
//!
//! Accepts the standard sweep-runner flags (see `bvc_repro::sweep`); exits
//! nonzero when any cell failed.

use bvc_cluster::jobs::{ABLATION_ADS, ABLATION_GATES};
use bvc_repro::sweep::{run_workload, SweepOptions};

fn main() {
    let (opts, _) = SweepOptions::from_cli_or_exit(std::env::args().skip(1), &[]);

    println!("Parameter ablation (alpha = 10%)");
    println!();

    // --- AD sweep. ---
    println!(
        "{:<6} {:>10} {:>10} {:>12} {:>14} {:>14} {:>16}",
        "AD", "u2 (S1)", "u3 (S1)", "u1 (S1)", "orphans/1000", "P(fork>=4)", "blocks to gate"
    );
    let (_, ad_report) = run_workload("ablation-ad", &opts);
    for (i, ad) in ABLATION_ADS.iter().enumerate() {
        match ad_report.value(i) {
            Some(row) => {
                let [u2, u3, u1, orphan_rate, deep_fork, gate_time] = row[..] else {
                    unreachable!("ad_row always packs six values")
                };
                println!(
                    "{:<6} {:>10.4} {:>10.3} {:>12.4} {:>14.2} {:>14.4} {:>16}",
                    ad,
                    u2,
                    u3,
                    u1,
                    orphan_rate * 1000.0,
                    deep_fork,
                    if gate_time.is_nan() {
                        "never".to_string()
                    } else {
                        format!("{gate_time:.0}")
                    }
                );
            }
            None => println!("{:<6} FAIL({})", ad, ad_report.reason_code(i)),
        }
    }
    println!();
    println!("reading: every attack utility and the deep-fork probability grow with AD,");
    println!("while the expected time to trigger a sticky gate SHRINKS as AD gets small —");
    println!("the §6.2 trade-off: long forks (double-spend depth) vs cheap gate-openings");
    println!("(giant-block exposure). No AD avoids both.");
    println!();

    // --- Sticky-gate length sweep (setting 2). ---
    // Swept at the asymmetric ratio 1:2: Chain-2 wins (which trigger the
    // gate) are frequent there, and the phase-2 regime — roles swapped, so
    // an effective 2:1 — is *more* profitable for the attacker than phase
    // 1. A longer gate then parks the system in the attacker's preferred
    // regime for longer. At 1:1 the phases coincide and the gate length is
    // irrelevant by symmetry.
    println!("{:<12} {:>10} {:>10}   (beta:gamma = 1:2)", "gate blocks", "u2 (S2)", "u3 (S2)");
    let (_, gate_report) = run_workload("ablation-gate", &opts);
    for (i, gate) in ABLATION_GATES.iter().enumerate() {
        match gate_report.value(i) {
            Some(row) => println!("{:<12} {:>10.4} {:>10.3}", gate, row[0], row[1]),
            None => println!("{:<12} FAIL({})", gate, gate_report.reason_code(i)),
        }
    }
    println!();
    println!("reading: at 1:2 a chain-2 win is frequent and phase 2 (roles swapped: an");
    println!("effective 2:1) is the attacker's preferred regime, so u2 grows with the");
    println!("gate length toward the 2:1 setting-1 value; a short gate instead returns");
    println!("to phase 1 quickly. Either way some attack mode stays open, and longer");
    println!("gates additionally expose the network to phase-3 giant-block attacks");
    println!("outside this model — the parameter only trades one risk for another.");
    println!("{}", ad_report.summary());
    println!("{}", gate_report.summary());
    print!("{}{}", ad_report.failure_legend(), gate_report.failure_legend());
    if opts.json {
        println!("{}", ad_report.to_json());
        println!("{}", gate_report.to_json());
    }
    std::process::exit(ad_report.exit_code().max(gate_report.exit_code()));
}
