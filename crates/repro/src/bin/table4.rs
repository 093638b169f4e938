//! Regenerates **Table 4**: the number of Bob's and Carol's blocks orphaned
//! by each Alice block (Eq. 3) for a non-profit-driven 1% attacker, in both
//! settings.
//!
//! Run: `cargo run --release -p bvc-repro --bin table4`
//!
//! Accepts the standard sweep-runner flags (see `bvc_repro::sweep`); exits
//! nonzero when any cell failed.

use bvc_cluster::jobs::T4_RATIOS;
use bvc_repro::sweep::{run_workload, SweepOptions};
use bvc_repro::{render_grid, GridEntry};

/// Published values: columns are settings 1 and 2, rows the β:γ ratios.
const PAPER: [[f64; 2]; 9] = [
    [0.61, 0.62],
    [0.83, 0.85],
    [1.22, 1.26],
    [1.50, 1.55],
    [1.76, 1.76],
    [1.77, 1.77],
    [1.62, 1.62],
    [1.30, 1.30],
    [1.06, 1.06],
];

fn main() {
    let (opts, _) = SweepOptions::from_cli_or_exit(std::env::args().skip(1), &[]);

    // Ratio-major over settings {1, 2}, same order as the rendered grid.
    let (_, report) = run_workload("table4", &opts);
    let cells: Vec<Vec<GridEntry>> = (0..9)
        .map(|r| (0..2).map(|c| report.grid_entry(r * 2 + c, Some(PAPER[r][c]))).collect())
        .collect();
    let rows: Vec<String> = T4_RATIOS.iter().map(|(b, c)| format!("{b}:{c}")).collect();
    print!(
        "{}",
        render_grid(
            "Table 4 — orphans per attacker block u3, alpha = 1% (ours vs paper)",
            &rows,
            &["setting 1".to_string(), "setting 2".to_string()],
            &cells,
            2,
        )
    );
    println!("{}", report.summary());
    print!("{}", report.failure_legend());
    if opts.json {
        println!("{}", report.to_json());
    }
    println!();
    println!("Analytical Result 3: BU lets a non-profit-driven attacker orphan up to ~1.77");
    println!("compliant blocks per attacker block; in Bitcoin the same ratio never exceeds 1.");
    std::process::exit(report.exit_code());
}
