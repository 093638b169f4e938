//! The four workloads, their cells, and the golden values every op is
//! checked against.

use std::collections::BTreeMap;

use bvc_bu::{rewards, AttackConfig, IncentiveModel, Setting, SolveOptions};
use bvc_mdp::solve::{RatioOptions, RviOptions};
use bvc_mdp::Objective;
use bvc_repro::sweep::{workload as registry, JobSpec};

/// Golden values recorded from the commit that introduced this benchmark
/// (`--record-golden`), one `key<TAB>value<TAB>f64 bits` line per cell.
const GOLDEN: &str = include_str!("../golden.tsv");

/// How far a served or swept value may sit from its golden value.
pub const GOLDEN_TOLERANCE: f64 = 1e-4;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallRatio,
    SmallRvi,
    ServeHot,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SmallRatio, Workload::SmallRvi, Workload::ServeHot];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallRatio => "small-ratio",
            Workload::SmallRvi => "small-rvi",
            Workload::ServeHot => "serve-hot",
        }
    }

    /// One line on why the workload exists (copied into BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SmallRatio => {
                "30 setting-1 ratio cells (211 states, in cache): per-cell fixed costs, build and \
                 the outer ratio bisection"
            }
            Workload::SmallRvi => {
                "31 Table 3 setting-1 cells (211 states): build, compile and the plain RVI kernel, no \
                 ratio layer; the control for ratio-solver changes"
            }
            Workload::ServeHot => {
                "closed loop of 2 keep-alive callers over a hot set of setting-1 cells with 0.25% \
                 cold solves and 2.5% rejected requests: serve hit path latency"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells a solver workload sweeps, in canonical order; empty for
    /// `serve-hot`, whose hot set is [`serve_hot_set`].
    pub fn cells(self) -> Vec<Cell> {
        let jobs: Vec<JobSpec> = match self {
            Workload::SmallRatio => {
                let mut jobs = registry_jobs("table2-setting1");
                jobs.extend(table4_jobs(1));
                jobs
            }
            Workload::SmallRvi => registry_jobs("table3-setting1"),
            Workload::ServeHot => Vec::new(),
        };
        jobs.into_iter().map(Cell::new).collect()
    }
}

fn registry_jobs(name: &str) -> Vec<JobSpec> {
    registry(name).map(|w| w.jobs).unwrap_or_default()
}

fn table4_jobs(setting: u8) -> Vec<JobSpec> {
    registry_jobs("table4")
        .into_iter()
        .filter(|j| matches!(j, JobSpec::Table4 { setting: s, .. } if *s == setting))
        .collect()
}

/// The serve workload's hot set: every setting-1 cell of Tables 2, 3 and 4.
pub fn serve_hot_set() -> Vec<Cell> {
    let mut jobs = registry_jobs("table2-setting1");
    jobs.extend(registry_jobs("table3-setting1"));
    jobs.extend(table4_jobs(1));
    jobs.into_iter().map(Cell::new).collect()
}

/// Every cell with a golden value: the hot set covers both solver
/// workloads' cells.
pub fn golden_cells() -> Vec<Cell> {
    serve_hot_set()
}

/// What the decomposed solve of a cell calls after build and compile.
#[derive(Debug, Clone)]
pub enum Solve {
    /// `maximize_ratio_compiled` over a numerator / denominator pair.
    Ratio(Objective, Objective),
    /// `scalarize` then `relative_value_iteration_compiled`.
    Rvi(Objective),
}

/// One solver cell: the registry job, a table-qualified key, and the
/// model and objective its decomposition solves.
#[derive(Debug, Clone)]
pub struct Cell {
    pub job: JobSpec,
    /// `t2 s1 b:g=1:1 a=25%`: the registry key prefixed with its table,
    /// since Table 2 and Table 3 keys can coincide.
    pub key: String,
    pub config: AttackConfig,
    pub solve: Solve,
}

impl Cell {
    fn new(job: JobSpec) -> Cell {
        let setting = |s: u8| if s == 2 { Setting::Two } else { Setting::One };
        let (table, config, solve) = match &job {
            JobSpec::Table2 { alpha, ratio, setting: s } => (
                "t2",
                AttackConfig::with_ratio(
                    *alpha,
                    *ratio,
                    setting(*s),
                    IncentiveModel::CompliantProfitDriven,
                ),
                Solve::Ratio(rewards::u1_numerator(), rewards::u1_denominator()),
            ),
            JobSpec::Table3 { alpha, ratio, setting: s } => (
                "t3",
                AttackConfig::with_ratio(
                    *alpha,
                    *ratio,
                    setting(*s),
                    IncentiveModel::non_compliant_default(),
                ),
                Solve::Rvi(rewards::u2_objective()),
            ),
            JobSpec::Table4 { ratio, setting: s } => (
                "t4",
                AttackConfig::with_ratio(
                    0.01,
                    *ratio,
                    setting(*s),
                    IncentiveModel::NonProfitDriven,
                ),
                Solve::Ratio(rewards::u3_numerator(), rewards::u3_denominator()),
            ),
            other => unreachable!("no benchmark workload uses {other:?}"),
        };
        Cell { key: format!("{table} {}", job.key()), job, config, solve }
    }

    /// The serve route answering this cell, with its query.
    pub fn serve_path(&self) -> String {
        match &self.job {
            JobSpec::Table2 { alpha, ratio: (b, g), .. } => {
                format!("/v1/table2?alpha={alpha}&ratio={b}:{g}")
            }
            JobSpec::Table3 { alpha, ratio: (b, g), .. } => {
                format!("/v1/table3?alpha={alpha}&ratio={b}:{g}")
            }
            JobSpec::Table4 { ratio: (b, g), .. } => format!("/v1/table4?ratio={b}:{g}"),
            other => unreachable!("no benchmark workload serves {other:?}"),
        }
    }
}

/// The inner-solver options `bvc_bu` derives from the default
/// `SolveOptions` (its conversion is private), so the decomposed solve is
/// the same computation `JobSpec::solve` runs; the traced run checks that
/// bit for bit.
pub fn rvi_options() -> RviOptions {
    let o = SolveOptions::default();
    RviOptions {
        tolerance: o.gain_tolerance,
        max_iterations: o.max_iterations,
        aperiodicity_tau: o.aperiodicity_tau,
        budget: o.budget,
        solve_threads: o.solve_threads,
        shard_min_states: o.shard_min_states,
        ..RviOptions::default()
    }
}

/// See [`rvi_options`].
pub fn ratio_options() -> RatioOptions {
    RatioOptions {
        tolerance: SolveOptions::default().ratio_tolerance,
        rvi: rvi_options(),
        initial_hi: 1.0,
    }
}

/// The golden table, keyed by [`Cell::key`].
pub fn golden() -> Result<BTreeMap<String, f64>, String> {
    let mut out = BTreeMap::new();
    for (n, line) in GOLDEN.lines().enumerate() {
        let fields: Vec<&str> = line.split('\t').collect();
        let [key, _decimal, bits] = fields[..] else {
            return Err(format!("golden.tsv:{}: expected 3 tab-separated fields", n + 1));
        };
        let bits = u64::from_str_radix(bits, 16)
            .map_err(|e| format!("golden.tsv:{}: bad bits {bits:?}: {e}", n + 1))?;
        out.insert(key.to_string(), f64::from_bits(bits));
    }
    Ok(out)
}

/// Golden values for `cells`, in order; an error names the first cell
/// with no recorded value.
pub fn golden_for(cells: &[Cell]) -> Result<Vec<f64>, String> {
    let table = golden()?;
    cells
        .iter()
        .map(|c| table.get(&c.key).copied().ok_or_else(|| format!("no golden value for {}", c.key)))
        .collect()
}

/// Renders golden lines for `values` (parallel to `cells`).
pub fn render_golden(cells: &[Cell], values: &[f64]) -> String {
    cells
        .iter()
        .zip(values)
        .map(|(c, v)| format!("{}\t{v:.12}\t{:016x}\n", c.key, v.to_bits()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes_match_their_descriptions() {
        assert_eq!(Workload::SmallRatio.cells().len(), 30);
        assert_eq!(Workload::SmallRvi.cells().len(), 31);
        assert_eq!(serve_hot_set().len(), 61);
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why is too long", w.name());
        }
    }

    #[test]
    fn every_cell_has_a_golden_value_and_keys_are_unique() {
        let cells = golden_cells();
        let values = golden_for(&cells).expect("golden table covers every cell");
        assert_eq!(values.len(), cells.len());
        let mut keys: Vec<&str> = cells.iter().map(|c| c.key.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), cells.len());
    }
}
