//! Times the Table 2 sweep on the production solver path against the
//! reference baseline (`bvc_mdp::solve::reference`) and prints cells/sec
//! plus the speedup.
//!
//! The workload is the `table2` binary's: the printed cells of Table 2
//! (22 setting-1 cells across α ∈ {10,15,20,25}% and six β:γ ratios; with
//! `--full`, also the four setting-2 cells at α = 25%), each solved for the
//! maximal relative revenue u1 by a secant search over ρ. The reference
//! baseline sweeps through `bvc_repro::parallel_map` and probes each ρ with a
//! warm-started RVI solve; the compiled path runs through the resilient
//! sweep runner (`bvc_repro::sweep::run_sweep`) exactly as the table
//! binaries do, and on these regenerative models probes each ρ with exact
//! renewal passes instead. Its timing includes the runner's per-cell
//! isolation and retry accounting (one `catch_unwind` frame and an atomic
//! claim per cell, far below the per-cell solve cost), so the speedup is
//! the probe engine's and the kernels' together. The two paths
//! differ in their probes' gain error, so the cross-check holds them to the
//! ratio tolerance, the precision both promise.
//!
//! ```console
//! $ cargo run --release -p bvc-bench --bin sweep_timing             # setting 1, 1 rep
//! $ cargo run --release -p bvc-bench --bin sweep_timing -- --quick  # smoke: α = 10% column
//! $ cargo run --release -p bvc-bench --bin sweep_timing -- --full --reps 3
//! $ cargo run --release -p bvc-bench --bin sweep_timing -- --full --no-baseline --solve-threads 4
//! ```
//!
//! `--no-baseline` skips the reference sweep (and with it
//! the cross-check and speedup line) — the full-grid baseline costs ~10
//! minutes on a laptop-class core, which swamps iteration on the compiled
//! path. Also accepts the standard sweep-runner flags (see
//! `bvc_repro::sweep`), including `--solve-threads`; note `--journal`
//! replays cells on every rep after the first, which makes the timed
//! numbers meaningless — use it only to inspect runner behaviour.
//!
//! With `--json`, the final line is a single machine-readable timing record
//! (`{"bench":"sweep_timing",...}`) with a per-cell breakdown (state count,
//! wall time, probe engine, probes on ρ and passes — renewal DP passes or
//! RVI sweeps — per cell, plus the largest cell called out; the baseline's
//! time keeps its historical key `nested_min_s`) —
//! `scripts/bench_record.sh` appends it to the benchmark history.

use std::sync::Mutex;

use bvc_bench::timing::time_runs_cold;
use bvc_bu::{rewards, AttackConfig, AttackModel, IncentiveModel, Setting, SolveOptions};
use bvc_mdp::solve::reference::maximize_ratio_reference;
use bvc_mdp::solve::ProbeEngine;
use bvc_repro::parallel_map;
use bvc_repro::sweep::{json_escape, run_sweep, SweepOptions};

/// Prints a structured error and exits with status 2 (usage error), the
/// same convention as [`SweepOptions::from_cli_or_exit`].
fn die_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// One Table 2 cell: power split and sticky-gate setting.
#[derive(Debug, Clone, Copy)]
struct SweepCell {
    alpha: f64,
    ratio: (u32, u32),
    setting: Setting,
}

/// The cells the paper prints in Table 2 (see `bvc-repro --bin table2`).
/// `quick` keeps only the α = 10% column (the cheapest models) as a smoke
/// workload; `full` adds the four setting-2 cells, whose state spaces are
/// orders of magnitude larger.
fn table2_cells(quick: bool, full: bool) -> Vec<SweepCell> {
    const RATIOS: [((u32, u32), [bool; 4]); 6] = [
        ((3, 2), [true, true, true, true]),
        ((1, 1), [true, true, true, true]),
        ((2, 3), [true, true, true, true]),
        ((1, 2), [true, true, true, true]),
        ((1, 3), [true, true, true, false]),
        ((1, 4), [true, true, false, false]),
    ];
    const ALPHAS: [f64; 4] = [0.10, 0.15, 0.20, 0.25];
    let mut cells = Vec::new();
    for (ratio, printed) in RATIOS {
        for (i, &p) in printed.iter().enumerate() {
            if p && (!quick || i == 0) {
                cells.push(SweepCell { alpha: ALPHAS[i], ratio, setting: Setting::One });
            }
        }
    }
    if full {
        for ratio in [(3, 2), (1, 1), (2, 3), (1, 2)] {
            cells.push(SweepCell { alpha: 0.25, ratio, setting: Setting::Two });
        }
    }
    cells
}

fn build(cell: &SweepCell) -> AttackModel {
    let cfg = AttackConfig::with_ratio(
        cell.alpha,
        cell.ratio,
        cell.setting,
        IncentiveModel::CompliantProfitDriven,
    );
    AttackModel::build(cfg).unwrap_or_else(|e| {
        eprintln!("error: model for {cell:?} does not build: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let (mut sweep_opts, args) = SweepOptions::from_cli_or_exit(std::env::args().skip(1));
    sweep_opts.config_token = SolveOptions::default().fingerprint_token();
    let mut quick = false;
    let mut full = false;
    let mut no_baseline = false;
    let mut reps = 1usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--full" => full = true,
            "--no-baseline" => no_baseline = true,
            "--reps" => {
                let v = it.next().unwrap_or_else(|| die_usage("--reps takes a positive integer"));
                reps = match v.parse() {
                    Ok(r) if r > 0 => r,
                    _ => die_usage(&format!("--reps takes a positive integer, got {v:?}")),
                };
            }
            other => die_usage(&format!("unknown sweep_timing flag {other:?}")),
        }
    }

    let cells = table2_cells(quick, full);
    // Models are built once, outside the clock: both paths consume the same
    // `CompiledMdp`, and construction cost is identical for both.
    let models = parallel_map(cells.clone(), build);
    let n = models.len();
    let states: usize = models.iter().map(|m| m.num_states()).sum();
    println!(
        "Table 2 sweep: {n} cells ({} setting-1, {} setting-2), {states} states total, \
         {} thread(s)",
        cells.iter().filter(|c| matches!(c.setting, Setting::One)).count(),
        cells.iter().filter(|c| matches!(c.setting, Setting::Two)).count(),
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
    );

    // The reference baseline searches under the same options as the compiled path.
    let opts = SolveOptions::default().ratio_options();
    let (num, den) = (rewards::u1_numerator(), rewards::u1_denominator());

    // The timed closures keep their last run's values so the two paths can
    // be cross-checked below without paying for extra sweeps. With
    // `--no-baseline` the reference sweep (and its cross-check) is skipped.
    let mut nested_vals = Vec::new();
    let nested = if no_baseline {
        None
    } else {
        let t = time_runs_cold(reps, || {
            nested_vals = parallel_map(models.iter().collect(), |m| {
                maximize_ratio_reference(m.mdp(), &num, &den, &opts)
                    .unwrap_or_else(|e| {
                        eprintln!("error: reference baseline solver failed: {e}");
                        std::process::exit(1);
                    })
                    .value
            });
        });
        println!("nested   (baseline): {}  {:>7.2} cells/s", t.summary(), t.throughput(n));
        Some(t)
    };

    let indices: Vec<usize> = (0..n).collect();
    // Per cell: the probe engine, probes on ρ and passes of its last solve.
    let work: Mutex<Vec<Option<(ProbeEngine, usize, usize)>>> = Mutex::new(vec![None; n]);
    let mut last_report = None;
    let compiled = time_runs_cold(reps, || {
        last_report = Some(run_sweep(
            "sweep-timing",
            &indices,
            &sweep_opts,
            |&i| {
                let c = &cells[i];
                let (tag, (b, g)) = (c.setting as u8, c.ratio);
                format!("s{tag} b:g={b}:{g} a={}%", c.alpha * 100.0)
            },
            |&i, ctx| {
                let sol = models[i].optimal_relative_revenue(&ctx.solve_options())?;
                work.lock().unwrap_or_else(|e| e.into_inner())[i] =
                    Some((sol.engine, sol.inner_solves, sol.inner_iterations));
                Ok(sol.value)
            },
        ));
    });
    let report = last_report.unwrap_or_else(|| {
        eprintln!("error: no sweep rep ran (reps = {reps})");
        std::process::exit(1);
    });
    println!(
        "compiled (CSR):      {}  {:>7.2} cells/s",
        compiled.summary(),
        compiled.throughput(n)
    );
    if let Some(nested) = &nested {
        println!(
            "speedup: {:.2}x (min-over-min wall clock)",
            nested.min().as_secs_f64() / compiled.min().as_secs_f64()
        );
    }
    println!("{}", report.summary());
    print!("{}", report.failure_legend());
    if sweep_opts.json {
        println!("{}", report.to_json());
    }
    if report.has_failures() {
        println!("compiled sweep INCOMPLETE: skipping the path cross-check.");
        std::process::exit(report.exit_code());
    }

    // Guard against the two paths silently diverging while we time them.
    if nested.is_some() {
        let compiled_vals: Vec<f64> = (0..n)
            .map(|i| {
                *report.value(i).unwrap_or_else(|| {
                    eprintln!("error: cell {i} has no value despite a clean report");
                    std::process::exit(1);
                })
            })
            .collect();
        let max_dev = nested_vals
            .iter()
            .zip(&compiled_vals)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        // `<=` (not `>`) so a NaN deviation also counts as divergence.
        let agree = max_dev <= opts.tolerance;
        if !agree {
            eprintln!("error: paths diverged: max |Δu1| = {max_dev:e}");
            std::process::exit(1);
        }
        println!("paths agree: max |Δu1| = {max_dev:.1e} over {n} cells");
    }
    if sweep_opts.json {
        // The per-cell breakdown times each cell from the *last* rep (the
        // runner re-solves every cell per rep); the largest cell is the
        // shard-kernel stress case, so its wall time is called out.
        let workers = sweep_opts
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1));
        let solve_threads = if workers > 1 { 1 } else { sweep_opts.solve_threads.max(1) };
        let largest = (0..n)
            .max_by_key(|&i| models[i].num_states())
            .unwrap_or_else(|| die_usage("no cells selected"));
        let mut record = format!(
            "{{\"bench\":\"sweep_timing\",\"cells\":{n},\"states\":{states},\"reps\":{reps},\
             \"threads\":{workers},\"solve_threads\":{solve_threads},"
        );
        match &nested {
            Some(nested) => {
                record.push_str(&format!(
                    "\"nested_min_s\":{:.6},\"speedup\":{:.4},",
                    nested.min().as_secs_f64(),
                    nested.min().as_secs_f64() / compiled.min().as_secs_f64(),
                ));
            }
            None => record.push_str("\"nested_min_s\":null,\"speedup\":null,"),
        }
        record.push_str(&format!(
            "\"compiled_min_s\":{:.6},\"cells_per_s\":{:.3},\
             \"largest_cell\":{{\"key\":\"{}\",\"states\":{},\"elapsed_s\":{:.6}}},\
             \"cell_breakdown\":[",
            compiled.min().as_secs_f64(),
            compiled.throughput(n),
            json_escape(&report.cells[largest].key),
            models[largest].num_states(),
            report.cells[largest].elapsed.as_secs_f64(),
        ));
        let work = work.into_inner().unwrap_or_else(|e| e.into_inner());
        for (i, c) in report.cells.iter().enumerate() {
            if i > 0 {
                record.push(',');
            }
            let (engine, probes, passes) = match work[i] {
                Some((engine, probes, passes)) => {
                    (format!("\"{}\"", engine.name()), probes.to_string(), passes.to_string())
                }
                None => ("null".into(), "null".into(), "null".into()),
            };
            record.push_str(&format!(
                "{{\"key\":\"{}\",\"states\":{},\"elapsed_s\":{:.6},\
                 \"engine\":{engine},\"probes\":{probes},\"passes\":{passes}}}",
                json_escape(&c.key),
                models[i].num_states(),
                c.elapsed.as_secs_f64(),
            ));
        }
        record.push_str("]}");
        println!("{record}");
    }
}
