//! Regenerates **Table 2**: Alice's maximum expected relative revenue under
//! the compliant and profit-driven incentive model (Eq. 1), settings 1 and
//! 2, compared with the published values.
//!
//! Run: `cargo run --release -p bvc-repro --bin table2`
//!
//! Accepts the standard sweep-runner flags (`--journal`, `--fail-fast`,
//! `--cell-deadline`, `--threads`, `--inject-*`, `--cluster`; see
//! `bvc_repro::sweep`) plus `--setting1-only` to skip the much slower
//! setting-2 column, and rejects any other argument. Exits nonzero when
//! any cell failed.

use bvc_cluster::jobs::T2_ALPHAS;
use bvc_repro::sweep::{run_workload, JobSpec, SweepOptions};
use bvc_repro::{render_grid, GridEntry};

/// One published row: the β:γ ratio and the u1 values for the four α
/// columns (`None` marks cells the paper omits).
type PaperRow = ((u32, u32), [Option<f64>; 4]);

/// The published Table 2 (setting 1): rows are β:γ ratios, columns are α in
/// {10, 15, 20, 25}%. `None` marks cells the paper omits (they violate
/// α ≤ min(β, γ)); cells the paper states satisfy `max u1 = α` are filled
/// with α.
const PAPER_SETTING1: &[PaperRow] = &[
    ((3, 2), [Some(0.10), Some(0.15), Some(0.20), Some(0.25)]),
    ((1, 1), [Some(0.10), Some(0.15), Some(0.20), Some(0.2624)]),
    ((2, 3), [Some(0.10), Some(0.1505), Some(0.2115), Some(0.2739)]),
    ((1, 2), [Some(0.10), Some(0.1562), Some(0.2156), Some(0.2756)]),
    ((1, 3), [Some(0.1026), Some(0.1587), Some(0.2158), None]),
    ((1, 4), [Some(0.1034), Some(0.1584), None, None]),
];

/// The published Table 2 (setting 2) only prints the α = 25% column.
const PAPER_SETTING2: &[((u32, u32), f64)] =
    &[((3, 2), 0.2529), ((1, 1), 0.2624), ((2, 3), 0.2529), ((1, 2), 0.25)];

fn main() {
    let (sweep_opts, rest) =
        SweepOptions::from_cli_or_exit(std::env::args().skip(1), &["--setting1-only"]);
    let setting1_only = rest.iter().any(|a| a == "--setting1-only");

    // Setting 1: sweep all printed cells (the job registry enumerates
    // exactly the paper's present cells, row-major).
    let (jobs, report) = run_workload("table2-setting1", &sweep_opts);

    let row_labels: Vec<String> =
        PAPER_SETTING1.iter().map(|((b, c), _)| format!("{b}:{c}")).collect();
    let col_labels: Vec<String> =
        T2_ALPHAS.iter().map(|a| format!("a={:.0}%", a * 100.0)).collect();
    let cells: Vec<Vec<GridEntry>> = PAPER_SETTING1
        .iter()
        .map(|(ratio, row)| {
            row.iter()
                .enumerate()
                .map(|(i, paper)| {
                    let spec = JobSpec::Table2 { alpha: T2_ALPHAS[i], ratio: *ratio, setting: 1 };
                    match jobs.iter().position(|j| *j == spec) {
                        Some(j) => report.grid_entry(j, *paper),
                        None => GridEntry::Absent,
                    }
                })
                .collect()
        })
        .collect();
    print!(
        "{}",
        render_grid(
            "Table 2 — max relative revenue u1, setting 1 (ours vs paper)",
            &row_labels,
            &col_labels,
            &cells,
            4,
        )
    );
    println!("{}", report.summary());
    print!("{}", report.failure_legend());
    if sweep_opts.json {
        println!("{}", report.to_json());
    }
    let mut exit = report.exit_code();

    if !setting1_only {
        // Setting 2, α = 25% column.
        println!();
        let (_, report2) = run_workload("table2-setting2", &sweep_opts);
        let cells2: Vec<Vec<GridEntry>> = PAPER_SETTING2
            .iter()
            .enumerate()
            .map(|(i, (_, paper))| vec![report2.grid_entry(i, Some(*paper))])
            .collect();
        let rows2: Vec<String> =
            PAPER_SETTING2.iter().map(|((b, c), _)| format!("{b}:{c}")).collect();
        print!(
            "{}",
            render_grid("Table 2 — setting 2, a = 25%", &rows2, &["a=25%".to_string()], &cells2, 4,)
        );
        println!("{}", report2.summary());
        print!("{}", report2.failure_legend());
        if sweep_opts.json {
            println!("{}", report2.to_json());
        }
        exit = exit.max(report2.exit_code());
    }

    println!();
    println!("Analytical Result 1: compliant forking earns unfair revenue (u1 > alpha) from a");
    println!("measured onset per ratio (setting 1, default AD): 1:2 from ~0.1103, 2:3 from");
    println!("~0.1476, 1:1 from ~0.2116, 3:2 from ~0.2793, 2:1 from ~0.3234 and 4:1 from");
    println!("~0.4034 (EXPERIMENTS.md §2).");
    std::process::exit(exit);
}
