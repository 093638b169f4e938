//! §5 equilibrium maps and coalition-frontier search as sweep workloads:
//! the `bvc-gamesweep` engine run through the journaled, resumable,
//! cluster-shardable sweep runner.
//!
//! Default: the `games-grid` equilibrium map — every canonical
//! [`bvc_gamesweep::games_grid_specs`] cell (power distributions ×
//! economics × pass thresholds × perturbation schedules), with the
//! paper's Figure 4 trace pinned as cell 0 and re-checked on every run
//! (`terminal = 1`, two rounds, first raise passed).
//!
//! `--frontier`: the `games-frontier` workload — the committed-coalition
//! search over the block size increasing game, one journaled cell per
//! (coalition size, shard) tiling the exponential `C(n, k)` expansion.
//!
//! Run: `cargo run --release -p bvc-repro --bin games_map [-- --frontier]`
//!
//! Accepts the standard sweep-runner flags (see `bvc_repro::sweep`), so
//! cells shard across threads, journal, resume, and run distributed
//! (`--cluster`) with bit-identical journals.

use bvc_gamesweep::{frontier_cells, games_grid_specs, NO_CARTEL};
use bvc_journal::Cell;
use bvc_repro::sweep::{run_workload, SweepOptions};

fn main() {
    let (opts, rest) = SweepOptions::from_cli_or_exit(std::env::args().skip(1), &["--frontier"]);
    if rest.iter().any(|a| a == "--frontier") {
        run_frontier(&opts)
    } else {
        run_grid(&opts)
    }
}

fn run_grid(opts: &SweepOptions) {
    let specs = games_grid_specs();
    println!("equilibrium map: {} game cells (EB choosing + block size increasing)", specs.len());
    println!();
    let (_, report) = run_workload("games-grid", opts);

    println!(
        "{:<58} {:>5} {:>4} {:>7} {:>5} {:>5} {:>7} {:>8}",
        "cell", "term", "rnd", "out-pow", "nash", "flip", "flip-pw", "fragile"
    );
    for (i, spec) in specs.iter().enumerate() {
        let Some(m) = report.value(i) else {
            println!("{:<58} (unsolved)", spec.key());
            continue;
        };
        let nash =
            if m[5].is_finite() && m[5] >= 0.0 { format!("{:.0}", m[5]) } else { "-".into() };
        let fragile = if m[9] > 0.0 { format!("{:.0}%", 100.0 * m[8] / m[9]) } else { "-".into() };
        println!(
            "{:<58} {:>5.0} {:>4.0} {:>6.1}% {:>5} {:>5.0} {:>6.1}% {:>8}",
            spec.key(),
            m[1],
            m[2],
            100.0 * m[4] + 0.0,
            nash,
            m[6],
            100.0 * m[7],
            fragile,
        );
    }
    println!();

    // The pinned Figure 4 cell: the paper's §5.2 trace, byte-for-byte the
    // same whether this ran locally, resumed, or distributed.
    let pinned_ok;
    if let Some(m) = report.value(0) {
        pinned_ok = m[1] == 1.0 && m[2] == 2.0 && m[3] == 1.0;
        if pinned_ok {
            println!("pinned Figure 4 cell: terminal=1, 2 rounds, round 0 passed — reproduced.");
        } else {
            println!(
                "pinned Figure 4 cell MISMATCH: terminal={} rounds={} passed={} (want 1, 2, 1)",
                m[1], m[2], m[3]
            );
        }
    } else {
        pinned_ok = false;
        println!("pinned Figure 4 cell UNSOLVED.");
    }
    println!("{}", report.summary());
    print!("{}", report.failure_legend());
    if opts.json {
        println!("{}", report.to_json());
    }
    std::process::exit(if pinned_ok { report.exit_code() } else { 1 });
}

fn run_frontier(opts: &SweepOptions) {
    let cells = frontier_cells();
    println!("coalition frontier: {} journaled shards over the C(n, k) layers", cells.len());
    println!();
    let (_, report) = run_workload("games-frontier", opts);

    // Merge shards back into (game, size) layers, exactly the reduction a
    // coordinator would run over the journal.
    let mut layers: std::collections::BTreeMap<String, Layer> = std::collections::BTreeMap::new();
    let mut merged_all = true;
    for (i, cell) in cells.iter().enumerate() {
        let id = format!("{} k={}", cell.spec.key(), cell.size);
        let layer = layers.entry(id).or_default();
        let Some(m) = report.value(i) else {
            merged_all = false;
            layer.complete = false;
            continue;
        };
        layer.examined += m[0];
        layer.effective += m[1];
        layer.base_terminal = m[5];
        if m[2] > layer.best_terminal {
            layer.best_terminal = m[2];
            layer.best_mask = m[3];
        }
        if m[4] < NO_CARTEL {
            layer.min_cartel = layer.min_cartel.min(m[4]);
        }
    }
    println!(
        "{:<70} {:>9} {:>9} {:>5} {:>5} {:>8}",
        "layer", "examined", "effective", "base", "best", "cheapest"
    );
    for (id, layer) in &layers {
        let cheapest = if layer.min_cartel < NO_CARTEL {
            format!("{:.1}%", 100.0 * layer.min_cartel)
        } else {
            "-".into()
        };
        println!(
            "{:<70} {:>9.0} {:>9.0} {:>5.0} {:>5.0} {:>8}{}",
            id,
            layer.examined,
            layer.effective,
            layer.base_terminal,
            layer.best_terminal.max(layer.base_terminal),
            cheapest,
            if layer.complete { "" } else { "  (incomplete)" },
        );
    }
    println!();

    // Pinned Figure 4 kamikaze cartel: committing group 3 (30% power)
    // alone moves the terminal from group 2 to group 4 (1-based: the
    // cheapest single-group cartel is {2} at 30%, pushing terminal 1 -> 3).
    let k1 = layers.iter().find(|(id, _)| id.contains("n=4") && id.ends_with("k=1"));
    let pinned_ok = match k1 {
        Some((_, layer)) => {
            let ok = layer.base_terminal == 1.0
                && layer.best_terminal == 3.0
                && layer.best_mask == 4.0
                && (layer.min_cartel - 0.3).abs() < 1e-12;
            if ok {
                println!(
                    "pinned Figure 4 frontier: a single 30% kamikaze group moves the terminal"
                );
                println!("from group 2 to group 4 — reproduced.");
            } else {
                println!(
                    "pinned Figure 4 frontier MISMATCH: base={} best={} cartel={}",
                    layer.base_terminal, layer.best_terminal, layer.min_cartel
                );
            }
            ok
        }
        None => {
            println!("pinned Figure 4 frontier layer MISSING.");
            false
        }
    };
    println!("{}", report.summary());
    print!("{}", report.failure_legend());
    if opts.json {
        println!("{}", report.to_json());
    }
    std::process::exit(if pinned_ok && merged_all { report.exit_code() } else { 1 });
}

#[derive(Debug)]
struct Layer {
    examined: f64,
    effective: f64,
    base_terminal: f64,
    best_terminal: f64,
    best_mask: f64,
    min_cartel: f64,
    complete: bool,
}

impl Default for Layer {
    fn default() -> Self {
        Layer {
            examined: 0.0,
            effective: 0.0,
            base_terminal: 0.0,
            best_terminal: 0.0,
            best_mask: 0.0,
            min_cartel: NO_CARTEL,
            complete: true,
        }
    }
}
