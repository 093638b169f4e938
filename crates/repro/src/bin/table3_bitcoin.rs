//! Regenerates **Table 3 (bottom panel)**: the optimal combined
//! selfish-mining + double-spending attack on Bitcoin (after Sompolinsky &
//! Zohar, as modified by the paper: four confirmations, `R_DS` worth ten
//! block rewards).
//!
//! The cells are the `table3-bitcoin` rows of the job registry
//! (`bvc_cluster::jobs`): the γ-major grid, then two demo cells.
//!
//! Run: `cargo run --release -p bvc-repro --bin table3_bitcoin`
//!
//! Accepts the standard sweep-runner flags (see `bvc_repro::sweep`); exits
//! nonzero when any cell failed.

use bvc_cluster::jobs::{TB_ALPHAS, TB_GAMMAS};
use bvc_repro::sweep::{run_workload, SweepOptions};
use bvc_repro::{render_grid, GridEntry};

/// Published values: rows γ ∈ {0.5, 1.0}, columns α.
const PAPER: [[f64; 4]; 2] = [[0.1, 0.15, 0.2, 0.38], [0.11, 0.18, 0.30, 0.52]];

fn main() {
    let (opts, _) = SweepOptions::from_cli_or_exit(std::env::args().skip(1), &[]);

    let (_, report) = run_workload("table3-bitcoin", &opts);

    let cells: Vec<Vec<GridEntry>> = (0..2)
        .map(|r| (0..4).map(|c| report.grid_entry(r * 4 + c, Some(PAPER[r][c]))).collect())
        .collect();
    let rows: Vec<String> =
        TB_GAMMAS.iter().map(|g| format!("P(win tie)={}%", g * 100.0)).collect();
    let cols: Vec<String> = TB_ALPHAS.iter().map(|a| format!("a={}%", a * 100.0)).collect();
    print!(
        "{}",
        render_grid(
            "Table 3 (bottom) — selfish mining + double-spending on Bitcoin",
            &rows,
            &cols,
            &cells,
            3,
        )
    );
    println!();
    println!(
        "Below 10% mining power the optimal strategy degenerates to honest mining (u2 = alpha):"
    );
    for (i, gamma) in [0.5, 1.0].into_iter().enumerate() {
        match report.value(8 + i).and_then(|v| v.first()) {
            Some(v) => println!("  alpha=5%, gamma={gamma}: u2 = {v:.4}"),
            None => println!("  alpha=5%, gamma={gamma}: u2 = FAIL({})", report.reason_code(8 + i)),
        }
    }
    println!("{}", report.summary());
    print!("{}", report.failure_legend());
    if opts.json {
        println!("{}", report.to_json());
    }
    std::process::exit(report.exit_code());
}
