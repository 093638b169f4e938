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
//! without the binary.

use bvc_bu::{
    rewards, AttackConfig, AttackModel, AttackState, IncentiveModel, Setting, SolveOptions, Utility,
};
use bvc_chain::{BuRizunRule, ByteSize, MinerId};
use bvc_gamesweep::{FrontierSpec, GameSpec};
use bvc_journal::{f64_from_hex, f64_to_hex, Cell};
use bvc_mdp::solve::{sample_path, XorShift64};
use bvc_mdp::MdpError;
use bvc_scenario::ScenarioSpec;
use bvc_sim::{AttackReplay, DelayModel, HonestStrategy, MinerSpec, Simulation, SplitterStrategy};

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
pub fn crossval_specs() -> Vec<CrossvalSpec> {
    vec![
        (0.25, (1, 1), IncentiveModel::CompliantProfitDriven),
        (0.10, (1, 1), IncentiveModel::non_compliant_default()),
        (0.10, (1, 2), IncentiveModel::non_compliant_default()),
        (0.05, (1, 1), IncentiveModel::NonProfitDriven),
        (0.01, (2, 3), IncentiveModel::NonProfitDriven),
    ]
}

/// One strategy-printout cell: `(title, alpha, ratio, incentive)`.
pub type StrategySpec = (&'static str, f64, (u32, u32), IncentiveModel);

/// The strategy-printout cells, in binary order.
pub fn strategy_specs() -> Vec<StrategySpec> {
    vec![
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
    ]
}

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
    /// Bitcoin SMDS comparison cell (absolute revenue).
    Table3Bitcoin {
        /// Attacker power.
        alpha: f64,
        /// Tie-breaking weight.
        gamma: f64,
    },
    /// Table 4: non-profit-driven orphan rate `u3` at `alpha = 1%`.
    Table4 {
        /// `beta:gamma` compliant split.
        ratio: (u32, u32),
        /// Paper setting (1 or 2).
        setting: u8,
    },
    /// Ablation `AD` sweep row (packs six metrics).
    AblationAd {
        /// The swept attack-depth parameter.
        ad: u8,
    },
    /// Ablation sticky-gate-length sweep row (packs `[u2, u3]`).
    AblationGate {
        /// The swept gate length in blocks.
        gate: u16,
    },
    /// Cross-validation cell (exact vs MDP-MC vs chain-MC).
    Crossval {
        /// Index into [`crossval_specs`] (also the MC seed key).
        index: usize,
    },
    /// Strategy printout cell (value + packed policy choices).
    Strategies {
        /// Index into [`strategy_specs`].
        index: usize,
    },
    /// Stone-comparison Monte Carlo scenario.
    StoneSim {
        /// Scenario id (1, 2, or 3).
        scenario: u8,
    },
    /// One BU network scenario cell (the `bvc-scenario` engine); the spec
    /// is self-contained, so the cell carries its full parameterization
    /// across the wire.
    Scenario {
        /// The scenario cell.
        spec: ScenarioSpec,
    },
    /// One scenario cross-validation replication (MDP policy replayed on
    /// an N-node network).
    ScenarioCrossval {
        /// Index into [`bvc_scenario::crossval_cells`].
        index: usize,
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
            JobSpec::Table3Bitcoin { alpha, gamma } => {
                format!("smds a={}% tie={}%", alpha * 100.0, gamma * 100.0)
            }
            JobSpec::Table4 { ratio, setting } => {
                table_config(0.01, *ratio, *setting, IncentiveModel::NonProfitDriven)
                    .cell_key(*ratio)
            }
            JobSpec::AblationAd { ad } => format!("AD={ad}"),
            JobSpec::AblationGate { gate } => format!("gate={gate}"),
            JobSpec::Crossval { index } => match crossval_specs().get(*index) {
                Some((alpha, ratio, incentive)) => format!(
                    "#{index} {} alpha={}%, beta:gamma={}:{}",
                    incentive.utility().name(),
                    alpha * 100.0,
                    ratio.0,
                    ratio.1
                ),
                None => format!("#{index} invalid"),
            },
            JobSpec::Strategies { index } => match strategy_specs().get(*index) {
                Some((_, alpha, (b, g), incentive)) => {
                    format!("{incentive:?} a={}% b:g={b}:{g}", alpha * 100.0)
                }
                None => format!("strategies#{index} invalid"),
            },
            JobSpec::StoneSim { scenario } => format!("scenario{scenario}"),
            JobSpec::Scenario { spec } => spec.key(),
            JobSpec::ScenarioCrossval { index } => {
                match bvc_scenario::crossval_cells().get(*index) {
                    Some(cell) => {
                        let rep = index % bvc_scenario::CROSSVAL_REPS;
                        format!("#{index} {} rep={rep}", cell.key())
                    }
                    None => format!("#{index} invalid"),
                }
            }
            JobSpec::Game { spec } => spec.key(),
            JobSpec::GameFrontier { spec } => spec.key(),
        }
    }

    /// Encodes the spec for the wire (`;`-separated, `f64`s as hex bit
    /// patterns so the worker reconstructs the exact parameter).
    pub fn encode(&self) -> String {
        match self {
            JobSpec::Table2 { alpha, ratio, setting } => {
                format!("t2;{};{};{};{setting}", f64_to_hex(*alpha), ratio.0, ratio.1)
            }
            JobSpec::Table3 { alpha, ratio, setting } => {
                format!("t3;{};{};{};{setting}", f64_to_hex(*alpha), ratio.0, ratio.1)
            }
            JobSpec::Table3Bitcoin { alpha, gamma } => {
                format!("tb;{};{}", f64_to_hex(*alpha), f64_to_hex(*gamma))
            }
            JobSpec::Table4 { ratio, setting } => format!("t4;{};{};{setting}", ratio.0, ratio.1),
            JobSpec::AblationAd { ad } => format!("aa;{ad}"),
            JobSpec::AblationGate { gate } => format!("ag;{gate}"),
            JobSpec::Crossval { index } => format!("cv;{index}"),
            JobSpec::Strategies { index } => format!("st;{index}"),
            JobSpec::StoneSim { scenario } => format!("ss;{scenario}"),
            JobSpec::Scenario { spec } => spec.encode(),
            JobSpec::ScenarioCrossval { index } => format!("sx;{index}"),
            JobSpec::Game { spec } => spec.encode(),
            JobSpec::GameFrontier { spec } => spec.encode(),
        }
    }

    /// Decodes a wire spec; `None` on any malformation.
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
            ["tb", a, g] => {
                Some(JobSpec::Table3Bitcoin { alpha: f64_from_hex(a)?, gamma: f64_from_hex(g)? })
            }
            ["t4", b, g, s] => {
                Some(JobSpec::Table4 { ratio: ratio(b, g)?, setting: s.parse().ok()? })
            }
            ["aa", ad] => Some(JobSpec::AblationAd { ad: ad.parse().ok()? }),
            ["ag", gate] => Some(JobSpec::AblationGate { gate: gate.parse().ok()? }),
            ["cv", i] => Some(JobSpec::Crossval { index: i.parse().ok()? }),
            ["st", i] => Some(JobSpec::Strategies { index: i.parse().ok()? }),
            ["ss", s] => Some(JobSpec::StoneSim { scenario: s.parse().ok()? }),
            ["sx", i] => Some(JobSpec::ScenarioCrossval { index: i.parse().ok()? }),
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
            JobSpec::Table3Bitcoin { alpha, gamma } => {
                let model = bvc_bitcoin::BitcoinModel::build(bvc_bitcoin::BitcoinConfig::smds(
                    *alpha, *gamma,
                ))?;
                Ok(vec![model.optimal_absolute_revenue(&ctx.solve_options())?.value])
            }
            JobSpec::Table4 { ratio, setting } => solve_table_cell(
                table_config(0.01, *ratio, *setting, IncentiveModel::NonProfitDriven),
                ctx,
            ),
            JobSpec::AblationAd { ad } => ablation_ad_row(*ad, ctx),
            JobSpec::AblationGate { gate } => ablation_gate_row(*gate, ctx),
            JobSpec::Crossval { index } => {
                let specs = crossval_specs();
                let Some(spec) = specs.get(*index) else {
                    return Err(MdpError::BadOption {
                        what: "crossval cell index",
                        value: *index as f64,
                    });
                };
                crossval_cell(*index, spec, ctx)
            }
            JobSpec::Strategies { index } => {
                let specs = strategy_specs();
                let Some((_, alpha, ratio, incentive)) = specs.get(*index) else {
                    return Err(MdpError::BadOption {
                        what: "strategies cell index",
                        value: *index as f64,
                    });
                };
                let cfg = AttackConfig::with_ratio(*alpha, *ratio, Setting::One, *incentive);
                let sol = AttackModel::build(cfg)?.optimal(&ctx.solve_options())?;
                let mut packed = Vec::with_capacity(1 + sol.policy.choices.len());
                packed.push(sol.value);
                packed.extend(sol.policy.choices.iter().map(|&c| c as f64));
                Ok(packed)
            }
            JobSpec::StoneSim { scenario } => Ok(stone_simulate(*scenario)),
            JobSpec::Scenario { spec } => spec.solve(&ctx.solve_options()),
            JobSpec::ScenarioCrossval { index } => {
                let cells = bvc_scenario::crossval_cells();
                let Some(cell) = cells.get(*index) else {
                    return Err(MdpError::BadOption {
                        what: "scenario crossval cell index",
                        value: *index as f64,
                    });
                };
                cell.solve(&ctx.solve_options())
            }
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

fn ablation_config(
    ad: u8,
    gate: u16,
    ratio: (u32, u32),
    setting: Setting,
    incentive: IncentiveModel,
) -> AttackConfig {
    let mut cfg = AttackConfig::with_ratio(0.10, ratio, setting, incentive);
    cfg.ad = ad;
    cfg.gate_blocks = gate;
    cfg
}

/// One AD-sweep row packed for the journal:
/// `[u2, u3, u1, orphan_rate, deep_fork, gate_time]`, where a model whose
/// optimal policy never opens the gate stores `NaN` for `gate_time`.
fn ablation_ad_row(ad: u8, ctx: &CellContext) -> Result<Vec<f64>, MdpError> {
    let opts = ctx.solve_options();
    let m2 = AttackModel::build(ablation_config(
        ad,
        144,
        (1, 1),
        Setting::One,
        IncentiveModel::non_compliant_default(),
    ))?;
    let s2 = m2.optimal_absolute_revenue(&opts)?;
    // Fork frequency under the optimal u2 policy: rate of leaving the
    // base state via Alice's fork block.
    let report = m2.evaluate(&s2.policy)?;
    let orphan_rate = report.rates[rewards::OA] + report.rates[rewards::OOTHERS];
    let m3 = AttackModel::build(ablation_config(
        ad,
        144,
        (1, 1),
        Setting::One,
        IncentiveModel::NonProfitDriven,
    ))?;
    let s3 = m3.optimal_orphan_rate(&opts)?;
    let m1 = AttackModel::build(ablation_config(
        ad,
        144,
        (1, 1),
        Setting::One,
        IncentiveModel::CompliantProfitDriven,
    ))?;
    let s1 = m1.optimal_relative_revenue(&opts)?;
    // Episode metrics under the u2-optimal policy: how likely a fork
    // reaches double-spend depth, and how quickly the attacker opens a
    // sticky gate in setting 2 (a short gate keeps the sweep fast).
    let deep_fork = m2.fork_depth_probability(&s2.policy, 4)?;
    let gate_cfg =
        ablation_config(ad, 24, (1, 1), Setting::Two, IncentiveModel::non_compliant_default());
    let mg = AttackModel::build(gate_cfg)?;
    let sg = mg.optimal_absolute_revenue(&opts)?;
    let gate_time = mg.expected_blocks_to_gate_trigger(&sg.policy)?;
    Ok(vec![s2.value, s3.value, s1.value, orphan_rate, deep_fork, gate_time.unwrap_or(f64::NAN)])
}

/// One sticky-gate-length row packed for the journal: `[u2, u3]` at the
/// asymmetric 1:2 ratio in setting 2.
fn ablation_gate_row(gate: u16, ctx: &CellContext) -> Result<Vec<f64>, MdpError> {
    let sopts = ctx.solve_options();
    let m2 = AttackModel::build(ablation_config(
        6,
        gate,
        (1, 2),
        Setting::Two,
        IncentiveModel::non_compliant_default(),
    ))?;
    let u2 = m2.optimal_absolute_revenue(&sopts)?.value;
    let m3 = AttackModel::build(ablation_config(
        6,
        gate,
        (1, 2),
        Setting::Two,
        IncentiveModel::NonProfitDriven,
    ))?;
    let u3 = m3.optimal_orphan_rate(&sopts)?.value;
    Ok(vec![u2, u3])
}

/// Computes all three estimators for one cross-validation cell and
/// cross-checks them. Returns `[exact, mdp_mc, chain_mc]`; panics
/// (isolated to this cell) when the estimators disagree beyond sampling
/// error.
fn crossval_cell(i: usize, spec: &CrossvalSpec, ctx: &CellContext) -> Result<Vec<f64>, MdpError> {
    let (alpha, ratio, incentive) = spec;
    let cfg = AttackConfig::with_ratio(*alpha, *ratio, Setting::One, *incentive);
    let model = AttackModel::build(cfg)?;
    let sol = model.optimal(&ctx.solve_options())?;
    let utility = incentive.utility();

    let exact = model.evaluate(&sol.policy)?;
    let exact_v = match utility {
        Utility::U1 => exact.u1,
        Utility::U2 => exact.u2,
        Utility::U3 => exact.u3,
    };

    // Monte Carlo through the MDP transitions.
    let base =
        model.id_of(&AttackState::BASE).unwrap_or_else(|| panic!("base state must be reachable"));
    let mut rng = XorShift64::new(1000 + i as u64);
    let path = sample_path(model.mdp(), &sol.policy, base, CROSSVAL_STEPS, &mut rng)?;
    let t = path.component_totals;
    let (ra, ro, oa, oo, ds) = (t[0], t[1], t[2], t[3], t[4]);
    let mdp_mc = match utility {
        Utility::U1 => ra / (ra + ro),
        Utility::U2 => (ra + ds) / CROSSVAL_STEPS as f64,
        Utility::U3 => {
            if ra + oa == 0.0 {
                0.0
            } else {
                oo / (ra + oa)
            }
        }
    };

    // Monte Carlo on the real chain substrate.
    // One node per compliant group: the three-miner world.
    let mut replay = AttackReplay::new(&model, &sol.policy, &[1.0], &[1.0], 2000 + i as u64);
    let report = replay.run(CROSSVAL_STEPS);
    let chain_mc = match utility {
        Utility::U1 => report.u1(),
        Utility::U2 => report.u2(),
        Utility::U3 => report.u3(),
    };

    assert!(
        (mdp_mc - exact_v).abs() < 0.02 && (chain_mc - exact_v).abs() < 0.05,
        "cross-validation failed: exact {exact_v:.4} vs MDP-MC {mdp_mc:.4} / chain-MC {chain_mc:.4}"
    );
    Ok(vec![exact_v, mdp_mc, chain_mc])
}

fn stone_honest(power: f64, eb: ByteSize, mg: ByteSize) -> MinerSpec<BuRizunRule> {
    MinerSpec { power, rule: BuRizunRule::new(eb, 6), strategy: Box::new(HonestStrategy { mg }) }
}

/// Miner line-ups are rebuilt inside the cell (strategies are boxed trait
/// objects, so the specs themselves cannot cross the journal).
fn stone_miners(scenario: u8) -> (Vec<MinerSpec<BuRizunRule>>, u64) {
    let mb1 = ByteSize::mb(1);
    let eb_c = ByteSize::mb(16);
    match scenario {
        1 => (
            vec![
                stone_honest(0.1, mb1, mb1),
                stone_honest(0.45, mb1, mb1),
                stone_honest(0.45, mb1, mb1),
            ],
            101,
        ),
        2 => (
            vec![
                stone_honest(0.1, mb1, mb1),
                stone_honest(0.45, mb1, mb1),
                stone_honest(0.45, eb_c, mb1),
            ],
            202,
        ),
        _ => {
            let attacker = MinerSpec {
                power: 0.1,
                rule: BuRizunRule::new(eb_c, 6),
                strategy: Box::new(SplitterStrategy::against(eb_c, mb1, 6, mb1)),
            };
            (vec![attacker, stone_honest(0.45, mb1, mb1), stone_honest(0.45, eb_c, mb1)], 303)
        }
    }
}

/// Journal packing: `[blocks_mined, on_chain, reorgs, max_depth, share]`.
fn stone_simulate(scenario: u8) -> Vec<f64> {
    let (miners, seed) = stone_miners(scenario);
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

/// Bitcoin-SMDS comparison cells: the grid (gamma-major) then the demo
/// cells.
pub fn table3_bitcoin_jobs() -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for &gamma in &TB_GAMMAS {
        for &alpha in &TB_ALPHAS {
            jobs.push(JobSpec::Table3Bitcoin { alpha, gamma });
        }
    }
    for &(alpha, gamma) in &TB_DEMOS {
        jobs.push(JobSpec::Table3Bitcoin { alpha, gamma });
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

/// Builds one workload's config token and cells.
type WorkloadBuilder = fn() -> (String, Vec<JobSpec>);

/// The workload registry: every name with its builder, in listing order.
const WORKLOADS: [(&str, WorkloadBuilder); 15] = [
    ("table2-setting1", || (solve_token(), table2_setting1_jobs())),
    ("table2-setting2", || (solve_token(), table2_setting2_jobs())),
    ("table3-setting1", || (solve_token(), table3_jobs(1))),
    ("table3-setting2", || (solve_token(), table3_jobs(2))),
    // `exact`: the Bitcoin values moved (by < 1e-7) when their solves
    // became exact, so journal lines written by the earlier iterative
    // solver miss by design.
    ("table3-bitcoin", || (format!("{};exact", solve_token()), table3_bitcoin_jobs())),
    ("table4", || (solve_token(), table4_jobs())),
    ("ablation-ad", || {
        (solve_token(), ABLATION_ADS.iter().map(|&ad| JobSpec::AblationAd { ad }).collect())
    }),
    ("ablation-gate", || {
        (solve_token(), ABLATION_GATES.iter().map(|&gate| JobSpec::AblationGate { gate }).collect())
    }),
    // `replay=net`: the chain-MC column moved when the three-miner replay
    // became the N-node replay with one node per group (another random
    // stream), so journal lines written before it miss by design.
    ("crossval", || {
        (
            format!("{};steps={CROSSVAL_STEPS};replay=net", solve_token()),
            (0..crossval_specs().len()).map(|index| JobSpec::Crossval { index }).collect(),
        )
    }),
    ("strategies", || {
        (
            solve_token(),
            (0..strategy_specs().len()).map(|index| JobSpec::Strategies { index }).collect(),
        )
    }),
    ("stone-sim", || {
        (
            format!("stone;blocks={STONE_BLOCKS}"),
            [1u8, 2, 3].iter().map(|&scenario| JobSpec::StoneSim { scenario }).collect(),
        )
    }),
    ("scenario-grid", || {
        (
            // Simulation cells carry every parameter in their key; the
            // solver token still matters for the embedded MDP cell.
            format!("{};scn-grid", solve_token()),
            bvc_scenario::grid_specs().into_iter().map(|spec| JobSpec::Scenario { spec }).collect(),
        )
    }),
    ("scenario-crossval", || {
        (
            format!(
                "{};scn-xval blocks={} reps={}",
                solve_token(),
                bvc_scenario::CROSSVAL_BLOCKS,
                bvc_scenario::CROSSVAL_REPS
            ),
            (0..bvc_scenario::crossval_cells().len())
                .map(|index| JobSpec::ScenarioCrossval { index })
                .collect(),
        )
    }),
    ("games-grid", || {
        (
            GameSpec::config_token(),
            bvc_gamesweep::games_grid_specs()
                .into_iter()
                .map(|spec| JobSpec::Game { spec })
                .collect(),
        )
    }),
    ("games-frontier", || {
        (
            FrontierSpec::config_token(),
            bvc_gamesweep::frontier_cells()
                .into_iter()
                .map(|spec| JobSpec::GameFrontier { spec })
                .collect(),
        )
    }),
];

/// Every named workload the registry can build.
pub const WORKLOAD_NAMES: [&str; WORKLOADS.len()] = {
    let mut names = [""; WORKLOADS.len()];
    let mut i = 0;
    while i < WORKLOADS.len() {
        names[i] = WORKLOADS[i].0;
        i += 1;
    }
    names
};

/// Builds a named workload; `None` for unknown names (see
/// [`WORKLOAD_NAMES`]).
pub fn workload(name: &str) -> Option<Workload> {
    let &(name, build) = WORKLOADS.iter().find(|(registered, _)| *registered == name)?;
    let (config_token, jobs) = build();
    Some(Workload { name, config_token, jobs })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(JobSpec::Table3Bitcoin { alpha: 0.05, gamma: 0.5 }.key(), "smds a=5% tie=50%");
        assert_eq!(JobSpec::Table4 { ratio: (2, 3), setting: 2 }.key(), "s2 b:g=2:3 a=1%");
        assert_eq!(JobSpec::AblationAd { ad: 6 }.key(), "AD=6");
        assert_eq!(JobSpec::AblationGate { gate: 144 }.key(), "gate=144");
        assert_eq!(JobSpec::StoneSim { scenario: 3 }.key(), "scenario3");
        assert_eq!(JobSpec::Crossval { index: 0 }.key(), "#0 u1 alpha=25%, beta:gamma=1:1");
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
        let xval = JobSpec::ScenarioCrossval { index: 3 };
        assert_eq!(JobSpec::decode("sx;3"), Some(xval.clone()));
        assert!(xval.key().contains("rep=3"), "{}", xval.key());
        // Out-of-range crossval indices decode but fail to solve, like
        // the other indexed cell kinds.
        assert!(JobSpec::decode("sx;999").is_some());
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
        for junk in ["", "zz;1", "t2;nothex;1;1;1", "t2;3fb999999999999a;1;1", "cv;x"] {
            assert!(JobSpec::decode(junk).is_none(), "accepted junk: {junk:?}");
        }
    }
}
