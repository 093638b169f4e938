//! The distributed job registry: every sweep cell of the table binaries
//! expressed as a self-describing [`JobSpec`] that can cross the wire.
//!
//! The sweep binaries keep their rendering (grids, legends, prose) but
//! build their cell lists from this module, so a cell means exactly the
//! same computation whether it is solved in-process by
//! `bvc_repro::sweep::run_sweep` or shipped to a cluster worker: same
//! key string, same solver calls, same value packing. That shared
//! definition — together with the shared attempt loop in [`crate::cell`]
//! — is what makes distributed journals byte-identical to local ones.
//!
//! [`workload`] names each binary's full cell list (with its config
//! token) so `bvc cluster coordinate --workload <name>` can run any table
//! without the binary. Each workload is one entry of the registry
//! (`WORKLOADS`). The sweep-only kinds (Table 3's Bitcoin panel, the
//! ablations, the cross-validations, the strategy printouts and Stone's
//! scenarios) are *rows*: cell `i` of a fixed parameter list, which the
//! entry keys, solves and sends as `tag;i` ([`JobSpec::Row`]). The table,
//! scenario-grid and game cells carry their full parameters instead,
//! because serve, the CLI and the scaling binaries build them from
//! arbitrary values.

use bvc_bu::{
    rewards, AttackConfig, AttackModel, AttackState, IncentiveModel, Setting, SolveOptions, Utility,
};
use bvc_chain::{BuRizunRule, ByteSize, MinerId};
use bvc_gamesweep::{FrontierSpec, GameSpec};
use bvc_journal::{f64_from_hex, f64_to_hex, Cell};
use bvc_mdp::solve::{sample_path, XorShift64};
use bvc_mdp::MdpError;
use bvc_scenario::ScenarioSpec;
use bvc_sim::{
    AttackReplay, DelayModel, HonestStrategy, MinerSpec, ReplayReport, Simulation, SplitterStrategy,
};

use crate::cell::CellContext;

// ---------------------------------------------------------------------------
// Canonical parameter tables (shared with the table binaries)
// ---------------------------------------------------------------------------

/// Table 2 setting-1 rows: `beta:gamma` ratios, in paper order.
pub const T2_RATIOS: [(u32, u32); 6] = [(3, 2), (1, 1), (2, 3), (1, 2), (1, 3), (1, 4)];
/// Table 2 columns: attacker power `alpha`.
pub const T2_ALPHAS: [f64; 4] = [0.10, 0.15, 0.20, 0.25];
/// Which Table 2 setting-1 cells the paper publishes (row-major mask over
/// [`T2_RATIOS`] × [`T2_ALPHAS`]); absent cells are not solved.
pub const T2_S1_PRESENT: [[bool; 4]; 6] = [
    [true, true, true, true],
    [true, true, true, true],
    [true, true, true, true],
    [true, true, true, true],
    [true, true, true, false],
    [true, true, false, false],
];
/// Table 2 setting-2 rows (all at `alpha = 0.25`).
pub const T2_S2_RATIOS: [(u32, u32); 4] = [(3, 2), (1, 1), (2, 3), (1, 2)];

/// Table 3 columns: `beta:gamma` ratios, in paper order.
pub const T3_RATIOS: [(u32, u32); 5] = [(4, 1), (2, 1), (1, 1), (1, 2), (1, 4)];
/// Table 3 rows: attacker power `alpha`.
pub const T3_ALPHAS: [f64; 7] = [0.01, 0.025, 0.05, 0.10, 0.15, 0.20, 0.25];

/// Whether Table 3 publishes the cell at row `r` (alpha index) and column
/// `c` (ratio index): the two largest alphas omit the extreme ratios.
pub fn t3_present(r: usize, c: usize) -> bool {
    !(r >= 5 && (c == 0 || c == 4))
}

/// Bitcoin-SMDS comparison columns: attacker power `alpha`.
pub const TB_ALPHAS: [f64; 4] = [0.10, 0.15, 0.20, 0.25];
/// Bitcoin-SMDS comparison rows: tie-breaking weight `gamma`.
pub const TB_GAMMAS: [f64; 2] = [0.5, 1.0];
/// Extra demo cells rendered under the Bitcoin-SMDS grid: `(alpha, gamma)`.
pub const TB_DEMOS: [(f64, f64); 2] = [(0.05, 0.5), (0.05, 1.0)];

/// Bitcoin-SMDS cell `i` as `(alpha, gamma)`: the grid gamma-major, then
/// the demo cells.
fn tb_cell(i: usize) -> (f64, f64) {
    let grid = TB_ALPHAS.len() * TB_GAMMAS.len();
    if i < grid {
        (TB_ALPHAS[i % TB_ALPHAS.len()], TB_GAMMAS[i / TB_ALPHAS.len()])
    } else {
        TB_DEMOS[i - grid]
    }
}

/// Table 4 rows: `beta:gamma` ratios, in paper order.
pub const T4_RATIOS: [(u32, u32); 9] =
    [(4, 1), (3, 1), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (1, 3), (1, 4)];

/// Swept `AD` values of the ablation study.
pub const ABLATION_ADS: [u8; 7] = [2, 3, 4, 6, 8, 12, 20];
/// Swept sticky-gate lengths of the ablation study.
pub const ABLATION_GATES: [u16; 5] = [18, 36, 72, 144, 288];

/// Sampled blocks per cross-validation run (part of the config token).
pub const CROSSVAL_STEPS: usize = 400_000;
/// Simulated blocks per Stone-comparison scenario (part of the config
/// token).
pub const STONE_BLOCKS: usize = 20_000;

/// One cross-validation cell: `(alpha, ratio, incentive)`; the incentive
/// picks the utility checked.
pub type CrossvalSpec = (f64, (u32, u32), IncentiveModel);

/// The cross-validation cells, in binary order (MC seeds are keyed by the
/// cell's index in this list).
pub const CROSSVAL_SPECS: [CrossvalSpec; 5] = [
    (0.25, (1, 1), IncentiveModel::CompliantProfitDriven),
    (0.10, (1, 1), IncentiveModel::non_compliant_default()),
    (0.10, (1, 2), IncentiveModel::non_compliant_default()),
    (0.05, (1, 1), IncentiveModel::NonProfitDriven),
    (0.01, (2, 3), IncentiveModel::NonProfitDriven),
];

/// One strategy-printout cell: `(title, alpha, ratio, incentive)`.
pub type StrategySpec = (&'static str, f64, (u32, u32), IncentiveModel);

/// The strategy-printout cells, in binary order.
pub const STRATEGY_SPECS: [StrategySpec; 3] = [
    (
        "compliant & profit-driven (Table 2 cell)",
        0.25,
        (1, 1),
        IncentiveModel::CompliantProfitDriven,
    ),
    (
        "non-compliant & profit-driven (Table 3 cell)",
        0.10,
        (1, 2),
        IncentiveModel::non_compliant_default(),
    ),
    ("non-profit-driven (Table 4 cell)", 0.01, (2, 3), IncentiveModel::NonProfitDriven),
];

/// The model of a Table 2/3/4 cell: `key` names this configuration and
/// `solve` builds it.
fn table_config(
    alpha: f64,
    ratio: (u32, u32),
    setting: u8,
    incentive: IncentiveModel,
) -> AttackConfig {
    let setting = if setting == 2 { Setting::Two } else { Setting::One };
    AttackConfig::with_ratio(alpha, ratio, setting, incentive)
}

// ---------------------------------------------------------------------------
// JobSpec
// ---------------------------------------------------------------------------

/// One sweep cell, self-describing: carries everything a worker needs to
/// reproduce the exact solve a table binary would run in-process.
///
/// `key()` reproduces the binary's journal key string character for
/// character, and `solve()` reproduces its solver calls and value
/// packing, so journals written from either path are interchangeable.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Table 2: compliant profit-driven relative revenue `u1`.
    Table2 {
        /// Attacker power.
        alpha: f64,
        /// `beta:gamma` compliant split.
        ratio: (u32, u32),
        /// Paper setting (1 or 2).
        setting: u8,
    },
    /// Table 3: non-compliant profit-driven absolute revenue `u2`.
    Table3 {
        /// Attacker power.
        alpha: f64,
        /// `beta:gamma` compliant split.
        ratio: (u32, u32),
        /// Paper setting (1 or 2).
        setting: u8,
    },
    /// Table 4: non-profit-driven orphan rate `u3` at `alpha = 1%`.
    Table4 {
        /// `beta:gamma` compliant split.
        ratio: (u32, u32),
        /// Paper setting (1 or 2).
        setting: u8,
    },
    /// Cell `index` of a sweep-only workload, whose registry entry holds
    /// its key, wire tag and solver. [`workload`] and [`JobSpec::decode`]
    /// make rows only with `index` below the workload's cell count; `key`,
    /// `encode` and `solve` panic on any other row.
    Row {
        /// The workload's registry name (see [`WORKLOAD_NAMES`]).
        workload: &'static str,
        /// The cell's position in the workload.
        index: usize,
    },
    /// One BU network scenario cell (the `bvc-scenario` engine); the spec
    /// is self-contained, so the cell carries its full parameterization
    /// across the wire.
    Scenario {
        /// The scenario cell.
        spec: ScenarioSpec,
    },
    /// One §5 equilibrium-map cell (the `bvc-gamesweep` engine); like
    /// scenario cells, the spec is self-contained on the wire.
    Game {
        /// The game cell.
        spec: GameSpec,
    },
    /// One coalition-frontier shard of the block size increasing game.
    GameFrontier {
        /// The frontier shard.
        spec: FrontierSpec,
    },
}

impl JobSpec {
    /// The cell's human-readable key — identical to the string the table
    /// binary passes to the sweep runner, which makes it the journal
    /// identity.
    pub fn key(&self) -> String {
        match self {
            JobSpec::Table2 { alpha, ratio, setting } => {
                table_config(*alpha, *ratio, *setting, IncentiveModel::CompliantProfitDriven)
                    .cell_key(*ratio)
            }
            JobSpec::Table3 { alpha, ratio, setting } => {
                table_config(*alpha, *ratio, *setting, IncentiveModel::non_compliant_default())
                    .cell_key(*ratio)
            }
            JobSpec::Table4 { ratio, setting } => {
                table_config(0.01, *ratio, *setting, IncentiveModel::NonProfitDriven)
                    .cell_key(*ratio)
            }
            JobSpec::Row { workload, index } => (rows(workload).key)(*index),
            JobSpec::Scenario { spec } => spec.key(),
            JobSpec::Game { spec } => spec.key(),
            JobSpec::GameFrontier { spec } => spec.key(),
        }
    }

    /// Encodes the spec for the wire (`;`-separated, `f64`s as hex bit
    /// patterns so the worker reconstructs the exact parameter; a row is
    /// its workload's tag and its index).
    pub fn encode(&self) -> String {
        match self {
            JobSpec::Table2 { alpha, ratio, setting } => {
                format!("t2;{};{};{};{setting}", f64_to_hex(*alpha), ratio.0, ratio.1)
            }
            JobSpec::Table3 { alpha, ratio, setting } => {
                format!("t3;{};{};{};{setting}", f64_to_hex(*alpha), ratio.0, ratio.1)
            }
            JobSpec::Table4 { ratio, setting } => format!("t4;{};{};{setting}", ratio.0, ratio.1),
            JobSpec::Row { workload, index } => format!("{};{index}", rows(workload).tag),
            JobSpec::Scenario { spec } => spec.encode(),
            JobSpec::Game { spec } => spec.encode(),
            JobSpec::GameFrontier { spec } => spec.encode(),
        }
    }

    /// Decodes a wire spec; `None` on any malformation, an unknown tag, or
    /// a row index at or past its workload's cell count.
    pub fn decode(text: &str) -> Option<JobSpec> {
        let parts: Vec<&str> = text.split(';').collect();
        let ratio =
            |b: &str, g: &str| -> Option<(u32, u32)> { Some((b.parse().ok()?, g.parse().ok()?)) };
        match parts.as_slice() {
            // Scenario and game specs own their tags and full codecs.
            [ScenarioSpec::TAG, ..] => {
                ScenarioSpec::decode(text).map(|spec| JobSpec::Scenario { spec })
            }
            [GameSpec::TAG, ..] => GameSpec::decode(text).map(|spec| JobSpec::Game { spec }),
            [FrontierSpec::TAG, ..] => {
                FrontierSpec::decode(text).map(|spec| JobSpec::GameFrontier { spec })
            }
            ["t2", a, b, g, s] => Some(JobSpec::Table2 {
                alpha: f64_from_hex(a)?,
                ratio: ratio(b, g)?,
                setting: s.parse().ok()?,
            }),
            ["t3", a, b, g, s] => Some(JobSpec::Table3 {
                alpha: f64_from_hex(a)?,
                ratio: ratio(b, g)?,
                setting: s.parse().ok()?,
            }),
            ["t4", b, g, s] => {
                Some(JobSpec::Table4 { ratio: ratio(b, g)?, setting: s.parse().ok()? })
            }
            [tag, index] => {
                let (workload, rows) = row_workloads().find(|(_, rows)| rows.tag == *tag)?;
                let index = index.parse().ok().filter(|&i| i < rows.len)?;
                Some(JobSpec::Row { workload, index })
            }
            _ => None,
        }
    }

    /// Solves the cell — the same solver calls and value packing as the
    /// owning table binary, with `ctx`'s budget, audit and thread settings
    /// threaded through.
    pub fn solve(&self, ctx: &CellContext) -> Result<Vec<f64>, MdpError> {
        match self {
            JobSpec::Table2 { alpha, ratio, setting } => solve_table_cell(
                table_config(*alpha, *ratio, *setting, IncentiveModel::CompliantProfitDriven),
                ctx,
            ),
            JobSpec::Table3 { alpha, ratio, setting } => solve_table_cell(
                table_config(*alpha, *ratio, *setting, IncentiveModel::non_compliant_default()),
                ctx,
            ),
            JobSpec::Table4 { ratio, setting } => solve_table_cell(
                table_config(0.01, *ratio, *setting, IncentiveModel::NonProfitDriven),
                ctx,
            ),
            JobSpec::Row { workload, index } => (rows(workload).solve)(*index, ctx),
            JobSpec::Scenario { spec } => spec.solve(&ctx.solve_options()),
            JobSpec::Game { spec } => spec.solve(&ctx.solve_options()),
            JobSpec::GameFrontier { spec } => spec.solve(&ctx.solve_options()),
        }
    }
}

// ---------------------------------------------------------------------------
// The heavier cell bodies (ported verbatim from the table binaries)
// ---------------------------------------------------------------------------

/// A Table 2/3/4 cell: the optimum of the utility its incentive maximizes.
fn solve_table_cell(cfg: AttackConfig, ctx: &CellContext) -> Result<Vec<f64>, MdpError> {
    Ok(vec![AttackModel::build(cfg)?.optimal(&ctx.solve_options())?.value])
}

/// An ablation model at `alpha = 10%` with the swept `AD` and gate length.
fn ablation_model(
    ad: u8,
    gate: u16,
    ratio: (u32, u32),
    setting: Setting,
    incentive: IncentiveModel,
) -> Result<AttackModel, MdpError> {
    let mut cfg = AttackConfig::with_ratio(0.10, ratio, setting, incentive);
    cfg.ad = ad;
    cfg.gate_blocks = gate;
    AttackModel::build(cfg)
}

/// One AD-sweep row packed for the journal:
/// `[u2, u3, u1, orphan_rate, deep_fork, gate_time]`, where a model whose
/// optimal policy never opens the gate stores `NaN` for `gate_time`.
fn ablation_ad_row(ad: u8, ctx: &CellContext) -> Result<Vec<f64>, MdpError> {
    let opts = ctx.solve_options();
    let setting1 = |incentive| ablation_model(ad, 144, (1, 1), Setting::One, incentive);
    let m2 = setting1(IncentiveModel::non_compliant_default())?;
    let s2 = m2.optimal_absolute_revenue(&opts)?;
    // Fork frequency under the optimal u2 policy: rate of leaving the
    // base state via Alice's fork block.
    let report = m2.evaluate(&s2.policy)?;
    let orphan_rate = report.rates[rewards::OA] + report.rates[rewards::OOTHERS];
    let s3 = setting1(IncentiveModel::NonProfitDriven)?.optimal_orphan_rate(&opts)?;
    let s1 = setting1(IncentiveModel::CompliantProfitDriven)?.optimal_relative_revenue(&opts)?;
    // Episode metrics under the u2-optimal policy: how likely a fork
    // reaches double-spend depth, and how quickly the attacker opens a
    // sticky gate in setting 2 (a short gate keeps the sweep fast).
    let deep_fork = m2.fork_depth_probability(&s2.policy, 4)?;
    let mg = ablation_model(ad, 24, (1, 1), Setting::Two, IncentiveModel::non_compliant_default())?;
    let sg = mg.optimal_absolute_revenue(&opts)?;
    let gate_time = mg.expected_blocks_to_gate_trigger(&sg.policy)?;
    Ok(vec![s2.value, s3.value, s1.value, orphan_rate, deep_fork, gate_time.unwrap_or(f64::NAN)])
}

/// One sticky-gate-length row packed for the journal: `[u2, u3]` at the
/// asymmetric 1:2 ratio in setting 2.
fn ablation_gate_row(gate: u16, ctx: &CellContext) -> Result<Vec<f64>, MdpError> {
    let opts = ctx.solve_options();
    let model = |incentive| ablation_model(6, gate, (1, 2), Setting::Two, incentive);
    let u2 = model(IncentiveModel::non_compliant_default())?.optimal_absolute_revenue(&opts)?;
    let u3 = model(IncentiveModel::NonProfitDriven)?.optimal_orphan_rate(&opts)?;
    Ok(vec![u2.value, u3.value])
}

/// One strategy-printout cell packed for the journal: the optimal value,
/// then the optimal policy's choice per state.
fn strategy_cell(i: usize, ctx: &CellContext) -> Result<Vec<f64>, MdpError> {
    let (_, alpha, ratio, incentive) = STRATEGY_SPECS[i];
    let cfg = AttackConfig::with_ratio(alpha, ratio, Setting::One, incentive);
    let sol = AttackModel::build(cfg)?.optimal(&ctx.solve_options())?;
    let mut packed = Vec::with_capacity(1 + sol.policy.choices.len());
    packed.push(sol.value);
    packed.extend(sol.policy.choices.iter().map(|&c| c as f64));
    Ok(packed)
}

/// Computes all three estimators for one cross-validation cell and
/// cross-checks them. Returns `[exact, mdp_mc, chain_mc]`; panics
/// (isolated to this cell) when the estimators disagree beyond sampling
/// error.
fn crossval_cell(i: usize, ctx: &CellContext) -> Result<Vec<f64>, MdpError> {
    let (alpha, ratio, incentive) = CROSSVAL_SPECS[i];
    let cfg = AttackConfig::with_ratio(alpha, ratio, Setting::One, incentive);
    let model = AttackModel::build(cfg)?;
    let sol = model.optimal(&ctx.solve_options())?;
    let pick = |(u1, u2, u3): (f64, f64, f64)| match incentive.utility() {
        Utility::U1 => u1,
        Utility::U2 => u2,
        Utility::U3 => u3,
    };
    let replayed = |r: ReplayReport| pick((r.u1(), r.u2(), r.u3()));

    let exact = model.evaluate(&sol.policy)?;
    let exact_v = pick((exact.u1, exact.u2, exact.u3));

    // Monte Carlo through the MDP transitions, tallied like a replay.
    let base =
        model.id_of(&AttackState::BASE).unwrap_or_else(|| panic!("base state must be reachable"));
    let mut rng = XorShift64::new(1000 + i as u64);
    let path = sample_path(model.mdp(), &sol.policy, base, CROSSVAL_STEPS, &mut rng)?;
    let t = path.component_totals;
    let (ra, rothers, oa, oothers, ds) = (t[0], t[1], t[2], t[3], t[4]);
    let mdp_mc = replayed(ReplayReport { steps: CROSSVAL_STEPS, ra, rothers, oa, oothers, ds });

    // Monte Carlo on the real chain substrate.
    // One node per compliant group: the three-miner world.
    let mut replay = AttackReplay::new(&model, &sol.policy, &[1.0], &[1.0], 2000 + i as u64);
    let chain_mc = replayed(replay.run(CROSSVAL_STEPS));

    assert!(
        (mdp_mc - exact_v).abs() < 0.02 && (chain_mc - exact_v).abs() < 0.05,
        "cross-validation failed: exact {exact_v:.4} vs MDP-MC {mdp_mc:.4} / chain-MC {chain_mc:.4}"
    );
    Ok(vec![exact_v, mdp_mc, chain_mc])
}

fn stone_honest(power: f64, eb: ByteSize, mg: ByteSize) -> MinerSpec<BuRizunRule> {
    MinerSpec { power, rule: BuRizunRule::new(eb, 6), strategy: Box::new(HonestStrategy { mg }) }
}

/// The miner line-up and seed of Stone scenario `i + 1`: a 10% miner and
/// two 45% miners. The last accepts 16 MB blocks from scenario 2 on, and
/// in scenario 3 the first splits the network with adaptive block sizes.
/// Line-ups are rebuilt inside the cell (strategies are boxed trait
/// objects, so the specs themselves cannot cross the journal).
fn stone_miners(i: usize) -> (Vec<MinerSpec<BuRizunRule>>, u64) {
    let (mb1, eb_c) = (ByteSize::mb(1), ByteSize::mb(16));
    let first = match i {
        0 | 1 => stone_honest(0.1, mb1, mb1),
        _ => MinerSpec {
            power: 0.1,
            rule: BuRizunRule::new(eb_c, 6),
            strategy: Box::new(SplitterStrategy::against(eb_c, mb1, 6, mb1)),
        },
    };
    let last_eb = if i == 0 { mb1 } else { eb_c };
    let miners = vec![first, stone_honest(0.45, mb1, mb1), stone_honest(0.45, last_eb, mb1)];
    (miners, 101 * (i as u64 + 1))
}

/// Journal packing: `[blocks_mined, on_chain, reorgs, max_depth, share]`.
fn stone_simulate(i: usize) -> Vec<f64> {
    let (miners, seed) = stone_miners(i);
    let n = miners.len();
    let mut sim = Simulation::new(miners, DelayModel::Zero, seed);
    let report = sim.run(STONE_BLOCKS);
    let reorgs: usize = (0..n).map(|i| report.reorg_count(i)).sum();
    let max_depth: u64 = (0..n).map(|i| report.max_reorg_depth(i)).max().unwrap_or(0);
    let on_chain: usize = report.chain_blocks[n - 1].values().sum();
    let attacker_share = report.chain_share(n - 1, MinerId(0));
    vec![
        report.blocks_mined as f64,
        on_chain as f64,
        reorgs as f64,
        max_depth as f64,
        attacker_share,
    ]
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A named, fully-specified cell list: what `bvc cluster coordinate
/// --workload <name>` runs, and what the table binaries feed their local
/// or cluster executor.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Registry name (see [`WORKLOAD_NAMES`]); also the sweep label of
    /// journal summaries and reports.
    pub name: &'static str,
    /// Solver configuration token mixed into cell fingerprints.
    pub config_token: String,
    /// The cells, in the binary's input order.
    pub jobs: Vec<JobSpec>,
}

/// Table 2 setting-1 cells, row-major over the published mask.
pub fn table2_setting1_jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (r, &ratio) in T2_RATIOS.iter().enumerate() {
        for (c, &alpha) in T2_ALPHAS.iter().enumerate() {
            if T2_S1_PRESENT[r][c] {
                jobs.push(JobSpec::Table2 { alpha, ratio, setting: 1 });
            }
        }
    }
    jobs
}

/// Table 2 setting-2 cells (one row at `alpha = 0.25`).
pub fn table2_setting2_jobs() -> Vec<JobSpec> {
    T2_S2_RATIOS.iter().map(|&ratio| JobSpec::Table2 { alpha: 0.25, ratio, setting: 2 }).collect()
}

/// Table 3 cells for one setting, row-major over the published mask.
pub fn table3_jobs(setting: u8) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for (r, &alpha) in T3_ALPHAS.iter().enumerate() {
        for (c, &ratio) in T3_RATIOS.iter().enumerate() {
            if t3_present(r, c) {
                jobs.push(JobSpec::Table3 { alpha, ratio, setting });
            }
        }
    }
    jobs
}

/// Table 4 cells: each ratio in both settings.
pub fn table4_jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for &ratio in &T4_RATIOS {
        for setting in [1u8, 2] {
            jobs.push(JobSpec::Table4 { ratio, setting });
        }
    }
    jobs
}

/// The config token of every cell solved under the default options — BU
/// and Bitcoin alike, since both models share one [`SolveOptions`].
fn solve_token() -> String {
    SolveOptions::default().fingerprint_token()
}

/// One registry workload.
struct Entry {
    /// Registry name.
    name: &'static str,
    /// Builds the config token mixed into the cells' fingerprints.
    token: fn() -> String,
    /// The cells.
    cells: Cells,
}

/// How a registry workload lists its cells.
enum Cells {
    /// Cells that carry their full parameters: tables, scenario grid, games.
    Jobs(fn() -> Vec<JobSpec>),
    /// Sweep-only rows ([`JobSpec::Row`]).
    Rows(Rows),
}

/// A sweep-only workload's cells: cell `i` of a fixed parameter list.
struct Rows {
    /// Wire tag; cell `i` crosses the wire as `tag;i`.
    tag: &'static str,
    /// Number of cells.
    len: usize,
    /// The journal key of cell `i`.
    key: fn(usize) -> String,
    /// Solves cell `i`: the owning binary's solver calls and value packing.
    solve: fn(usize, &CellContext) -> Result<Vec<f64>, MdpError>,
}

/// The workload registry, in listing order.
const WORKLOADS: &[Entry] = &[
    Entry { name: "table2-setting1", token: solve_token, cells: Cells::Jobs(table2_setting1_jobs) },
    Entry { name: "table2-setting2", token: solve_token, cells: Cells::Jobs(table2_setting2_jobs) },
    Entry { name: "table3-setting1", token: solve_token, cells: Cells::Jobs(|| table3_jobs(1)) },
    Entry { name: "table3-setting2", token: solve_token, cells: Cells::Jobs(|| table3_jobs(2)) },
    Entry {
        name: "table3-bitcoin",
        // `exact`: the Bitcoin values moved (by < 1e-7) when their solves
        // became exact, so journal lines written by the earlier iterative
        // solver miss by design.
        token: || format!("{};exact", solve_token()),
        cells: Cells::Rows(Rows {
            tag: "tb",
            len: TB_ALPHAS.len() * TB_GAMMAS.len() + TB_DEMOS.len(),
            key: |i| {
                let (alpha, gamma) = tb_cell(i);
                format!("smds a={}% tie={}%", alpha * 100.0, gamma * 100.0)
            },
            solve: |i, ctx| {
                let (alpha, gamma) = tb_cell(i);
                let model = bvc_bitcoin::BitcoinModel::build(bvc_bitcoin::BitcoinConfig::smds(
                    alpha, gamma,
                ))?;
                Ok(vec![model.optimal_absolute_revenue(&ctx.solve_options())?.value])
            },
        }),
    },
    Entry { name: "table4", token: solve_token, cells: Cells::Jobs(table4_jobs) },
    Entry {
        name: "ablation-ad",
        token: solve_token,
        cells: Cells::Rows(Rows {
            tag: "aa",
            len: ABLATION_ADS.len(),
            key: |i| format!("AD={}", ABLATION_ADS[i]),
            solve: |i, ctx| ablation_ad_row(ABLATION_ADS[i], ctx),
        }),
    },
    Entry {
        name: "ablation-gate",
        token: solve_token,
        cells: Cells::Rows(Rows {
            tag: "ag",
            len: ABLATION_GATES.len(),
            key: |i| format!("gate={}", ABLATION_GATES[i]),
            solve: |i, ctx| ablation_gate_row(ABLATION_GATES[i], ctx),
        }),
    },
    Entry {
        name: "crossval",
        // `replay=net`: the chain-MC column moved when the three-miner
        // replay became the N-node replay with one node per group (another
        // random stream), so journal lines written before it miss by design.
        token: || format!("{};steps={CROSSVAL_STEPS};replay=net", solve_token()),
        cells: Cells::Rows(Rows {
            tag: "cv",
            len: CROSSVAL_SPECS.len(),
            key: |i| {
                let (alpha, ratio, incentive) = CROSSVAL_SPECS[i];
                let utility = incentive.utility().name();
                format!(
                    "#{i} {utility} alpha={}%, beta:gamma={}:{}",
                    alpha * 100.0,
                    ratio.0,
                    ratio.1
                )
            },
            solve: crossval_cell,
        }),
    },
    Entry {
        name: "strategies",
        token: solve_token,
        cells: Cells::Rows(Rows {
            tag: "st",
            len: STRATEGY_SPECS.len(),
            key: |i| {
                let (_, alpha, (b, g), incentive) = STRATEGY_SPECS[i];
                format!("{incentive:?} a={}% b:g={b}:{g}", alpha * 100.0)
            },
            solve: strategy_cell,
        }),
    },
    Entry {
        name: "stone-sim",
        token: || format!("stone;blocks={STONE_BLOCKS}"),
        cells: Cells::Rows(Rows {
            tag: "ss",
            len: 3,
            key: |i| format!("scenario{}", i + 1),
            solve: |i, _| Ok(stone_simulate(i)),
        }),
    },
    Entry {
        name: "scenario-grid",
        // Simulation cells carry every parameter in their key; the solver
        // token still matters for the embedded MDP cell.
        token: || format!("{};scn-grid", solve_token()),
        cells: Cells::Jobs(|| {
            bvc_scenario::grid_specs().into_iter().map(|spec| JobSpec::Scenario { spec }).collect()
        }),
    },
    Entry {
        name: "scenario-crossval",
        token: || {
            format!(
                "{};scn-xval blocks={} reps={}",
                solve_token(),
                bvc_scenario::CROSSVAL_BLOCKS,
                bvc_scenario::CROSSVAL_REPS
            )
        },
        cells: Cells::Rows(Rows {
            tag: "sx",
            // `bvc_scenario::crossval_cells()`: settings × replications.
            len: bvc_scenario::CROSSVAL_SETTINGS.len() * bvc_scenario::CROSSVAL_REPS,
            key: |i| {
                let cell = &bvc_scenario::crossval_cells()[i];
                format!("#{i} {} rep={}", cell.key(), i % bvc_scenario::CROSSVAL_REPS)
            },
            solve: |i, ctx| bvc_scenario::crossval_cells()[i].solve(&ctx.solve_options()),
        }),
    },
    Entry {
        name: "games-grid",
        token: GameSpec::config_token,
        cells: Cells::Jobs(|| {
            bvc_gamesweep::games_grid_specs()
                .into_iter()
                .map(|spec| JobSpec::Game { spec })
                .collect()
        }),
    },
    Entry {
        name: "games-frontier",
        token: FrontierSpec::config_token,
        cells: Cells::Jobs(|| {
            bvc_gamesweep::frontier_cells()
                .into_iter()
                .map(|spec| JobSpec::GameFrontier { spec })
                .collect()
        }),
    },
];

/// Every named workload the registry can build.
pub const WORKLOAD_NAMES: [&str; WORKLOADS.len()] = {
    let mut names = [""; WORKLOADS.len()];
    let mut i = 0;
    while i < WORKLOADS.len() {
        names[i] = WORKLOADS[i].name;
        i += 1;
    }
    names
};

/// The sweep-only workloads' names and rows, in registry order.
fn row_workloads() -> impl Iterator<Item = (&'static str, &'static Rows)> {
    WORKLOADS.iter().filter_map(|entry| match &entry.cells {
        Cells::Rows(rows) => Some((entry.name, rows)),
        Cells::Jobs(_) => None,
    })
}

/// The rows of the sweep-only workload `name`.
fn rows(name: &str) -> &'static Rows {
    row_workloads()
        .find_map(|(registered, rows)| (registered == name).then_some(rows))
        .unwrap_or_else(|| panic!("{name:?} is not a sweep-only workload"))
}

/// Builds a named workload; `None` for unknown names (see
/// [`WORKLOAD_NAMES`]).
pub fn workload(name: &str) -> Option<Workload> {
    let entry = WORKLOADS.iter().find(|entry| entry.name == name)?;
    let jobs = match &entry.cells {
        Cells::Jobs(build) => build(),
        Cells::Rows(rows) => {
            (0..rows.len).map(|index| JobSpec::Row { workload: entry.name, index }).collect()
        }
    };
    Some(Workload { name: entry.name, config_token: (entry.token)(), jobs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &'static str, index: usize) -> JobSpec {
        JobSpec::Row { workload, index }
    }

    #[test]
    fn every_workload_builds_and_specs_roundtrip() {
        for name in WORKLOAD_NAMES {
            let w = workload(name).unwrap_or_else(|| panic!("workload {name} missing"));
            assert_eq!(w.name, name);
            assert!(!w.jobs.is_empty(), "{name} has no cells");
            assert!(!w.config_token.is_empty(), "{name} has no config token");
            for job in &w.jobs {
                let decoded = JobSpec::decode(&job.encode())
                    .unwrap_or_else(|| panic!("{name}: {} does not decode", job.encode()));
                assert_eq!(&decoded, job, "{name}: wire roundtrip");
                assert_eq!(decoded.key(), job.key(), "{name}: key stability");
            }
        }
    }

    #[test]
    fn keys_are_unique_within_each_workload() {
        for name in WORKLOAD_NAMES {
            let w = workload(name).unwrap();
            let mut keys: Vec<String> = w.jobs.iter().map(JobSpec::key).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), w.jobs.len(), "{name} has duplicate keys");
        }
    }

    /// Every journal fingerprint and serve cache key hashes the default
    /// solve token; both model crates' re-exported options must produce it.
    #[test]
    fn solve_token_is_pinned() {
        const TOKEN: &str =
            "rt=3ee4f8b588e368f1;gt=3e7ad7f29abcaf48;mi=2000000;tau=3fa999999999999a";
        assert_eq!(bvc_bu::SolveOptions::default().fingerprint_token(), TOKEN);
        assert_eq!(bvc_bitcoin::SolveOptions::default().fingerprint_token(), TOKEN);
    }

    /// Every workload's cell identities, pinned: `fnv1a64` over the
    /// little-endian `cell_fingerprint(key, config_token)` of each cell, in
    /// order. A changed literal means old journals and cache entries of
    /// that workload miss.
    #[test]
    fn workload_fingerprints_are_pinned() {
        const PINS: [(&str, u64); 15] = [
            ("table2-setting1", 0x99dd92301174f7f9),
            ("table2-setting2", 0xd8ffca4b9b48e7e5),
            ("table3-setting1", 0x3b74d47a921b5d17),
            ("table3-setting2", 0x7a437955675efed5),
            ("table3-bitcoin", 0x8b7d3db4358c6127),
            ("table4", 0xc42ee1fa35ba9bae),
            ("ablation-ad", 0xa3dde7d3b88d9edc),
            ("ablation-gate", 0x4f3fdfc39e6f7cd3),
            ("crossval", 0xbb041da89db5637d),
            ("strategies", 0x7f823379f1501604),
            ("stone-sim", 0xfae7026505c3fada),
            ("scenario-grid", 0x2c5581782d6f07d0),
            ("scenario-crossval", 0xc513c2186330f409),
            ("games-grid", 0xa9359c391d1010af),
            ("games-frontier", 0x015465b8a02f27fd),
        ];
        assert_eq!(PINS.map(|(name, _)| name), WORKLOAD_NAMES);
        for (name, pin) in PINS {
            let w = workload(name).unwrap();
            let bytes: Vec<u8> = w
                .jobs
                .iter()
                .flat_map(|job| {
                    bvc_journal::cell_fingerprint(&job.key(), &w.config_token).to_le_bytes()
                })
                .collect();
            assert_eq!(bvc_journal::fnv1a64(&bytes), pin, "{name}");
        }
    }

    #[test]
    fn keys_match_the_binaries_exact_format() {
        assert_eq!(
            JobSpec::Table2 { alpha: 0.10, ratio: (3, 2), setting: 1 }.key(),
            "s1 b:g=3:2 a=10%"
        );
        assert_eq!(
            JobSpec::Table3 { alpha: 0.025, ratio: (4, 1), setting: 2 }.key(),
            "s2 b:g=4:1 a=2.5%"
        );
        assert_eq!(row("table3-bitcoin", 8).key(), "smds a=5% tie=50%");
        assert_eq!(row("table3-bitcoin", 5).key(), "smds a=15% tie=100%");
        assert_eq!(JobSpec::Table4 { ratio: (2, 3), setting: 2 }.key(), "s2 b:g=2:3 a=1%");
        assert_eq!(row("ablation-ad", 3).key(), "AD=6");
        assert_eq!(row("ablation-gate", 3).key(), "gate=144");
        assert_eq!(row("stone-sim", 2).key(), "scenario3");
        assert_eq!(row("crossval", 0).key(), "#0 u1 alpha=25%, beta:gamma=1:1");
    }

    /// Off-grid Table 2 alphas keep distinct keys: the rounded percent is
    /// used only when it round-trips to the exact alpha.
    #[test]
    fn keys_keep_off_grid_table2_alphas_distinct() {
        let key = |alpha| JobSpec::Table2 { alpha, ratio: (1, 1), setting: 1 }.key();
        assert_eq!(key(0.12), "s1 b:g=1:1 a=12%");
        assert_eq!(key(0.123), format!("s1 b:g=1:1 a={}%", 0.123 * 100.0));
    }

    /// The Bitcoin cells' token differs from the shared solve token, so
    /// their journal lines from before the exact solves miss, and the
    /// crossval token carries the replay it was measured with; the BU
    /// tables keep the shared token and their journals.
    #[test]
    fn only_the_bitcoin_and_crossval_tokens_moved() {
        let token = |name| workload(name).unwrap().config_token;
        assert_eq!(token("table3-bitcoin"), format!("{};exact", solve_token()));
        assert_eq!(
            token("crossval"),
            "rt=3ee4f8b588e368f1;gt=3e7ad7f29abcaf48;mi=2000000;tau=3fa999999999999a;\
             steps=400000;replay=net"
        );
        for name in ["table2-setting1", "table2-setting2", "table3-setting1", "table4"] {
            assert_eq!(token(name), solve_token(), "{name}");
        }
    }

    #[test]
    fn workload_sizes_match_the_paper_grids() {
        assert_eq!(workload("table2-setting1").unwrap().jobs.len(), 21);
        assert_eq!(workload("table2-setting2").unwrap().jobs.len(), 4);
        assert_eq!(workload("table3-setting1").unwrap().jobs.len(), 31);
        assert_eq!(workload("table3-bitcoin").unwrap().jobs.len(), 10);
        assert_eq!(workload("table4").unwrap().jobs.len(), 18);
        assert_eq!(workload("crossval").unwrap().jobs.len(), 5);
        assert_eq!(workload("stone-sim").unwrap().jobs.len(), 3);
        assert_eq!(workload("scenario-grid").unwrap().jobs.len(), 13);
        assert_eq!(workload("scenario-crossval").unwrap().jobs.len(), 20);
        assert_eq!(
            workload("scenario-crossval").unwrap().jobs.len(),
            bvc_scenario::crossval_cells().len()
        );
        assert_eq!(workload("games-grid").unwrap().jobs.len(), 18);
        assert_eq!(workload("games-frontier").unwrap().jobs.len(), 26);
    }

    #[test]
    fn scenario_specs_roundtrip_through_the_job_codec() {
        let w = workload("scenario-grid").unwrap();
        for job in &w.jobs {
            let wire = job.encode();
            assert!(wire.starts_with("sc;"), "scenario wire tag: {wire}");
            assert_eq!(JobSpec::decode(&wire).as_ref(), Some(job));
        }
        let xval = row("scenario-crossval", 3);
        assert_eq!(JobSpec::decode("sx;3"), Some(xval.clone()));
        assert!(xval.key().contains("rep=3"), "{}", xval.key());
        // A row index past the workload's cells does not decode.
        assert_eq!(JobSpec::decode("sx;999"), None);
    }

    #[test]
    fn game_specs_roundtrip_and_figure4_solves_through_the_job_path() {
        for name in ["games-grid", "games-frontier"] {
            let w = workload(name).unwrap();
            let tag = if name == "games-grid" { "gm;" } else { "gf;" };
            for job in &w.jobs {
                let wire = job.encode();
                assert!(wire.starts_with(tag), "{name} wire tag: {wire}");
                assert_eq!(JobSpec::decode(&wire).as_ref(), Some(job));
            }
        }
        // The pinned Figure 4 cell, solved exactly as a worker would:
        // terminal = 1, two rounds, round 0 passed.
        let fig4 = JobSpec::Game { spec: bvc_gamesweep::figure4_spec() };
        let ctx = CellContext { budget: bvc_mdp::SolveBudget::unlimited(), audit: false };
        let m = fig4.solve(&ctx).expect("figure 4 solves");
        assert_eq!(m[1], 1.0, "terminal group");
        assert_eq!(m[2], 2.0, "rounds played");
        assert_eq!(m[3], 1.0, "first raise passed");
        // An invalid spec decodes (the codec is structural) but refuses
        // to solve with a spec-audit error.
        let bad = JobSpec::Game {
            spec: bvc_gamesweep::GameSpec { miners: 1, ..bvc_gamesweep::figure4_spec() },
        };
        assert!(matches!(bad.solve(&ctx), Err(MdpError::AuditFailed { .. })));
    }

    /// Every proper prefix of every registry cell's wire form, and every
    /// single-byte replacement of it from `proptest::mutate::REPLACEMENTS`,
    /// must decode to `Some` or `None` without panicking: workers decode
    /// whatever bytes arrive on the socket.
    #[test]
    fn decode_never_panics_on_truncated_or_corrupted_wire() {
        for name in WORKLOAD_NAMES {
            for job in workload(name).unwrap().jobs {
                for mutant in proptest::mutate::mutants(&job.encode()) {
                    if let Some(decoded) = JobSpec::decode(mutant.text()) {
                        let _ = decoded.key();
                    }
                }
            }
        }
    }

    #[test]
    fn undecodable_specs_return_none() {
        for junk in [
            "",
            "zz;1",
            "t2;nothex;1;1;1",
            "t2;3fb999999999999a;1;1",
            "cv;x",
            "cv;-1",
            "cv;5",
            "sx;20",
            "tb;10",
            "aa;7",
            "ag;5",
            "st;3",
            "ss;3",
            "aa;1;2",
        ] {
            assert!(JobSpec::decode(junk).is_none(), "accepted junk: {junk:?}");
        }
    }
}
