//! Runs one scenario cell: either a discrete-event network simulation
//! ([`bvc_sim::Simulation`]) for honest / lead-k attacker specs, or the
//! chain-faithful [`bvc_sim::AttackReplay`] of a freshly solved MDP policy
//! for [`AttackerSpec::Mdp`] cells.
//!
//! Both paths return the same fixed-arity metric vector
//! ([`METRIC_ARITY`] values) so scenario cells journal through the sweep
//! machinery like any other cell kind. All randomness is drawn from
//! sub-seeds of [`ScenarioSpec::cell_seed`] in a fixed order, so a cell's
//! metrics are bit-identical wherever and whenever it runs.

use bvc_bu::{AttackConfig, AttackModel, IncentiveModel, Setting, SolveOptions};
use bvc_chain::{BuRizunRule, BuSourceCodeRule, ByteSize};
use bvc_chaos::SplitMix64;
use bvc_mdp::MdpError;
use bvc_sim::{
    AttackReplay, DelayModel, HonestStrategy, LeadKStrategy, MinerSpec, SimReport, Simulation,
};

use crate::spec::{AttackerSpec, DelaySpec, RuleKind, ScenarioSpec};

/// Length of the metric vector every scenario cell produces.
///
/// Simulation cells: `[blocks_mined, reorg_count, max_reorg_depth,
/// miner-0 share on the reference node, distinct final tips, duration]`.
/// MDP-replay cells: `[u1_simulated, u1_exact, |difference|, attacker
/// locked blocks, compliant locked blocks, steps]`. The names every front
/// end prints are `ScenarioSpec`'s `Cell::metrics`.
pub const METRIC_ARITY: usize = 6;

/// Deterministic interleaved assignment of `n_large` large-`EB` slots
/// over `n` compliant nodes (Bresenham spacing, so the large group is
/// spread evenly through the node indices rather than clustered — which
/// matters under topology-aware delay models).
pub fn large_assignment(n: usize, large_frac: f64) -> Vec<bool> {
    assert!(n > 0, "need at least one compliant node");
    let n_large = (large_frac * n as f64).round() as usize;
    let n_large = n_large.min(n);
    (0..n).map(|i| (i + 1) * n_large / n > i * n_large / n).collect()
}

fn audit(detail: String) -> MdpError {
    MdpError::AuditFailed { check: "scenario-spec", detail }
}

/// Runs one scenario cell to its metric vector.
///
/// `opts` is only consulted by [`AttackerSpec::Mdp`] cells (it bounds the
/// embedded policy solve); simulation cells ignore it.
///
/// # Errors
/// [`MdpError::AuditFailed`] for invalid specs (non-retryable), or any
/// solver error from the embedded MDP solve.
pub fn run_scenario(spec: &ScenarioSpec, opts: &SolveOptions) -> Result<Vec<f64>, MdpError> {
    spec.validate().map_err(audit)?;
    let mut seeds = SplitMix64::new(spec.cell_seed());
    let engine_seed = seeds.next_u64();
    let delay_seed = seeds.next_u64();
    match spec.attacker {
        AttackerSpec::Mdp { alpha, ratio } => run_mdp_replay(spec, alpha, ratio, engine_seed, opts),
        AttackerSpec::Honest | AttackerSpec::LeadK { .. } => {
            Ok(run_simulation(spec, engine_seed, delay_seed))
        }
    }
}

fn delay_model(spec: &ScenarioSpec, delay_seed: u64) -> DelayModel {
    match spec.delay {
        DelaySpec::Zero => DelayModel::Zero,
        DelaySpec::Constant { d } => DelayModel::Constant(d),
        DelaySpec::Uniform { min, max } => DelayModel::Uniform { min, max, seed: delay_seed },
        DelaySpec::Ring { per_hop } => DelayModel::Ring { per_hop, nodes: spec.nodes as usize },
    }
}

/// Per-node powers: the attacker (when present) is node 0 with share
/// `alpha`; compliant nodes follow with their hash-distribution weights
/// scaled by `1 − alpha`.
fn powers(spec: &ScenarioSpec, alpha: f64) -> Vec<f64> {
    let n_compliant = spec.nodes as usize - usize::from(alpha > 0.0);
    let weights = spec.hash.weights(n_compliant);
    let mut powers = Vec::with_capacity(spec.nodes as usize);
    if alpha > 0.0 {
        powers.push(alpha);
    }
    powers.extend(weights.iter().map(|w| w * (1.0 - alpha)));
    powers
}

/// The simulation path (honest or lead-k attacker), generic over the
/// concrete rule type so both acceptance rules share one code path.
fn run_simulation(spec: &ScenarioSpec, engine_seed: u64, delay_seed: u64) -> Vec<f64> {
    let eb_small = ByteSize::mb(u64::from(spec.eb_small_mb));
    let eb_large = ByteSize::mb(u64::from(spec.eb_large_mb));
    let ad = u64::from(spec.ad);
    // Compliant generation size; validate() guarantees eb_small >= 1 MB.
    let mg = ByteSize::mb(1);
    let alpha = match spec.attacker {
        AttackerSpec::LeadK { alpha, .. } => alpha,
        _ => 0.0,
    };
    let powers = powers(spec, alpha);
    let has_attacker = alpha > 0.0;
    let n_compliant = spec.nodes as usize - usize::from(has_attacker);
    let large = large_assignment(n_compliant, spec.large_frac);

    // One closure per rule kind; `build` assembles the miner list for a
    // concrete rule constructor and runs it. It is generic over the rule
    // type, so the inputs cannot be packed into one struct without
    // erasing that monomorphization.
    #[allow(clippy::too_many_arguments)]
    fn build<R, F>(
        spec: &ScenarioSpec,
        powers: &[f64],
        large: &[bool],
        mg: ByteSize,
        eb_small: ByteSize,
        eb_large: ByteSize,
        rule_of: F,
        engine_seed: u64,
        delay_seed: u64,
    ) -> SimReport
    where
        R: bvc_chain::incremental::IncrementalRule + 'static,
        F: Fn(ByteSize) -> R,
    {
        let ad = u64::from(spec.ad);
        let mut miners: Vec<MinerSpec<R>> = Vec::with_capacity(powers.len());
        if let AttackerSpec::LeadK { k, .. } = spec.attacker {
            miners.push(MinerSpec {
                power: powers[0],
                rule: rule_of(eb_large),
                strategy: Box::new(LeadKStrategy::against(
                    eb_large,
                    eb_small,
                    ad,
                    mg,
                    u64::from(k),
                )),
            });
        }
        let compliant_powers = &powers[miners.len()..];
        for (i, &p) in compliant_powers.iter().enumerate() {
            miners.push(MinerSpec {
                power: p,
                rule: rule_of(if large[i] { eb_large } else { eb_small }),
                strategy: Box::new(HonestStrategy { mg }),
            });
        }
        let delay = delay_model(spec, delay_seed);
        Simulation::new(miners, delay, engine_seed).run(spec.blocks as usize)
    }

    let report = match spec.rule {
        RuleKind::Rizun { sticky: true } => build(
            spec,
            &powers,
            &large,
            mg,
            eb_small,
            eb_large,
            |eb| BuRizunRule::new(eb, ad),
            engine_seed,
            delay_seed,
        ),
        RuleKind::Rizun { sticky: false } => build(
            spec,
            &powers,
            &large,
            mg,
            eb_small,
            eb_large,
            |eb| BuRizunRule::without_sticky_gate(eb, ad),
            engine_seed,
            delay_seed,
        ),
        RuleKind::SourceCode => build(
            spec,
            &powers,
            &large,
            mg,
            eb_small,
            eb_large,
            |eb| BuSourceCodeRule { eb, ad },
            engine_seed,
            delay_seed,
        ),
    };

    // Reference node: the last compliant node (never the attacker).
    let reference = spec.nodes as usize - 1;
    let share0 = report.chain_share(reference, bvc_chain::MinerId(0));
    let max_depth = report.reorgs.iter().map(|r| r.depth).max().unwrap_or(0);
    let distinct_tips = report.final_tips.iter().collect::<std::collections::BTreeSet<_>>().len();
    vec![
        report.blocks_mined as f64,
        report.reorgs.len() as f64,
        max_depth as f64,
        share0,
        distinct_tips as f64,
        report.duration,
    ]
}

/// The MDP-replay path: solve the Table 2 setting-1 cell and replay its
/// optimal policy on the N-node network, in lockstep with the MDP.
fn run_mdp_replay(
    spec: &ScenarioSpec,
    alpha: f64,
    ratio: (u32, u32),
    engine_seed: u64,
    opts: &SolveOptions,
) -> Result<Vec<f64>, MdpError> {
    let n_compliant = spec.nodes as usize - 1;
    let large = large_assignment(n_compliant, spec.large_frac);
    let n_large = large.iter().filter(|&&l| l).count();
    if n_large == 0 || n_large == n_compliant {
        return Err(audit(format!(
            "MDP replay needs both compliant groups nonempty; large_frac {} over {} nodes \
             leaves {}/{} in the large group",
            spec.large_frac, n_compliant, n_large, n_compliant
        )));
    }
    let model = AttackModel::build(AttackConfig::with_ratio(
        alpha,
        ratio,
        Setting::One,
        IncentiveModel::CompliantProfitDriven,
    ))?;
    let sol = model.optimal_relative_revenue(opts)?;
    let exact = model.evaluate(&sol.policy)?;
    let weights = spec.hash.weights(n_compliant);
    let mut small_weights = Vec::new();
    let mut large_weights = Vec::new();
    for (w, &is_large) in weights.iter().zip(&large) {
        if is_large {
            large_weights.push(*w);
        } else {
            small_weights.push(*w);
        }
    }
    let mut replay =
        AttackReplay::new(&model, &sol.policy, &small_weights, &large_weights, engine_seed);
    let report = replay.run(spec.blocks as usize);
    let u1 = report.u1();
    Ok(vec![u1, exact.u1, (u1 - exact.u1).abs(), report.ra, report.rothers, report.steps as f64])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::HashDist;
    use bvc_journal::Cell;

    fn base() -> ScenarioSpec {
        ScenarioSpec {
            nodes: 12,
            hash: HashDist::Uniform,
            eb_small_mb: 1,
            eb_large_mb: 16,
            ad: 6,
            large_frac: 0.5,
            delay: DelaySpec::Zero,
            rule: RuleKind::Rizun { sticky: true },
            attacker: AttackerSpec::Honest,
            blocks: 400,
            seed: 3,
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn large_assignment_spreads_evenly() {
        let a = large_assignment(10, 0.4);
        assert_eq!(a.iter().filter(|&&l| l).count(), 4);
        // Interleaved, not clustered: no three consecutive large slots.
        assert!(a.windows(3).all(|w| !(w[0] && w[1] && w[2])), "{a:?}");
        assert_eq!(large_assignment(5, 0.0), vec![false; 5]);
        assert_eq!(large_assignment(5, 1.0), vec![true; 5]);
    }

    #[test]
    fn honest_zero_delay_cell_is_quiet() {
        let m = run_scenario(&base(), &SolveOptions::default()).unwrap();
        assert_eq!(m.len(), METRIC_ARITY);
        assert_eq!(m[0], 400.0, "all blocks mined");
        assert_eq!(m[1], 0.0, "no reorgs under zero delay and honest miners");
        assert_eq!(m[4], 1.0, "every node on the same tip");
    }

    #[test]
    fn cells_replay_bit_identically() {
        for spec in [
            base(),
            ScenarioSpec {
                delay: DelaySpec::Uniform { min: 0.0, max: 0.3 },
                hash: HashDist::Zipf { s: 1.2 },
                rule: RuleKind::SourceCode,
                ..base()
            },
            ScenarioSpec {
                attacker: AttackerSpec::LeadK { alpha: 0.3, k: 2 },
                delay: DelaySpec::Ring { per_hop: 0.05 },
                ..base()
            },
        ] {
            let a = run_scenario(&spec, &SolveOptions::default()).unwrap();
            let b = run_scenario(&spec, &SolveOptions::default()).unwrap();
            assert_eq!(bits(&a), bits(&b), "cell {} must be deterministic", spec.key());
        }
    }

    #[test]
    fn seeds_decorrelate_cells() {
        let a = run_scenario(&base(), &SolveOptions::default()).unwrap();
        let b =
            run_scenario(&ScenarioSpec { seed: 4, ..base() }, &SolveOptions::default()).unwrap();
        assert_ne!(bits(&a), bits(&b), "different seeds must give different runs");
    }

    #[test]
    fn lead_k_attacker_disrupts_the_network() {
        let spec = ScenarioSpec {
            attacker: AttackerSpec::LeadK { alpha: 0.35, k: 3 },
            blocks: 1_200,
            ..base()
        };
        let m = run_scenario(&spec, &SolveOptions::default()).unwrap();
        // The split blocks fork the small-EB half of the network: some
        // node must reorganize at least once over 1200 blocks.
        assert!(m[1] > 0.0, "lead-k splitter must cause reorgs, got {m:?}");
    }

    #[test]
    fn mdp_replay_cell_matches_exact_u1() {
        let spec = ScenarioSpec {
            nodes: 9,
            attacker: AttackerSpec::Mdp { alpha: 0.25, ratio: (1, 1) },
            rule: RuleKind::Rizun { sticky: false },
            delay: DelaySpec::Zero,
            blocks: 120_000,
            ..base()
        };
        let m = run_scenario(&spec, &SolveOptions::default()).unwrap();
        assert_eq!(m.len(), METRIC_ARITY);
        assert!(m[2] < 0.02, "simulated u1 {} vs exact {} (|diff| {})", m[0], m[1], m[2]);
        assert!(m[1] > 0.25, "optimal policy must beat honest at alpha 0.25");
    }

    /// The grid's MDP-replay cell, pinned bit for bit: `u1` simulated and
    /// exact, their difference, both locked-block tallies and the steps. A
    /// change to the replay's random stream or arithmetic moves them.
    #[test]
    fn grid_mdp_cell_is_pinned() {
        let spec = crate::grid::grid_specs()
            .into_iter()
            .find(|s| matches!(s.attacker, AttackerSpec::Mdp { .. }))
            .unwrap();
        let m = run_scenario(&spec, &SolveOptions::default()).unwrap();
        assert_eq!(
            bits(&m),
            [
                0x3fd1_7847_41cf_6d62,
                0x3fd0_cac4_8b5f_cf9e,
                0x3f85_b056_cdf3_b880,
                0x40b1_0a00_0000_0000,
                0x40c6_b100_0000_0000,
                0x40d3_8800_0000_0000,
            ],
            "{m:?}"
        );
    }

    #[test]
    fn invalid_specs_fail_the_audit() {
        let bad = ScenarioSpec { nodes: 1, ..base() };
        match run_scenario(&bad, &SolveOptions::default()) {
            Err(MdpError::AuditFailed { check, .. }) => assert_eq!(check, "scenario-spec"),
            other => panic!("expected audit failure, got {other:?}"),
        }
        // Degenerate group split is caught even though the spec validates.
        let bad = ScenarioSpec {
            nodes: 4,
            large_frac: 0.0,
            attacker: AttackerSpec::Mdp { alpha: 0.25, ratio: (1, 1) },
            rule: RuleKind::Rizun { sticky: false },
            ..base()
        };
        assert!(matches!(
            run_scenario(&bad, &SolveOptions::default()),
            Err(MdpError::AuditFailed { check: "scenario-spec", .. })
        ));
    }
}
