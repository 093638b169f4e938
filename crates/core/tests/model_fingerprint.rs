//! Pins every built attack model bit for bit.
//!
//! Each grid's models are serialized in grid order — state count; per
//! state its arm count; per arm its label and transition count; per
//! transition `to`, the probability's bits and every reward component's
//! bits, all as little-endian `u64`s — and the byte stream is hashed with
//! `bvc_journal::fnv1a64`. A change to the transition generator, the
//! interning order or the merge arithmetic moves the hash, even when every
//! solved value would stay within its published tolerance.
//!
//! Builds on one thread re-weight the last graph when its setting, `Wait`
//! action, acceptance depths and gate match, so the pins cover re-weighted
//! models too; `reused_graphs_match_cold_explores` holds every such model
//! to a cold `explore` of its configuration.

use bvc_bu::rewards::COMPONENTS;
use bvc_bu::{expand, AttackConfig, AttackModel, AttackState, IncentiveModel, Setting};
use bvc_journal::fnv1a64;
use bvc_mdp::{audit_compiled, explore, refill_fallbacks, AuditOptions, AuditStatus, CompiledMdp};

fn push(bytes: &mut Vec<u8>, v: u64) {
    bytes.extend_from_slice(&v.to_le_bytes());
}

/// Serializes `mdp` into the fingerprint stream, after asserting that its
/// CSR arrays pass the audit's layout check.
fn serialize(bytes: &mut Vec<u8>, mdp: &CompiledMdp) {
    let layout = audit_compiled(mdp, &AuditOptions::default());
    let layout = layout.check("csr-layout").expect("layout check runs");
    assert_eq!(layout.status, AuditStatus::Pass, "{}", layout.detail);
    push(bytes, mdp.num_states() as u64);
    for s in 0..mdp.num_states() {
        push(bytes, mdp.num_arms_of(s) as u64);
        for arm in mdp.arm_range(s) {
            push(bytes, mdp.arm_label(arm) as u64);
            push(bytes, mdp.transition_range(arm).len() as u64);
            for (to, prob, reward) in mdp.transitions(arm) {
                push(bytes, to as u64);
                push(bytes, prob.to_bits());
                for r in reward {
                    push(bytes, r.to_bits());
                }
            }
        }
    }
}

/// Builds every configuration in order; returns the fingerprint and the
/// total state count.
fn fingerprint(configs: impl IntoIterator<Item = AttackConfig>) -> (u64, usize) {
    let mut bytes = Vec::new();
    let mut states = 0;
    for cfg in configs {
        let model = AttackModel::build(cfg).unwrap();
        states += model.num_states();
        serialize(&mut bytes, model.mdp());
    }
    (fnv1a64(&bytes), states)
}

fn incentives() -> [IncentiveModel; 3] {
    [
        IncentiveModel::CompliantProfitDriven,
        IncentiveModel::non_compliant_default(),
        IncentiveModel::NonProfitDriven,
    ]
}

fn setting1_configs() -> Vec<AttackConfig> {
    let mut configs = Vec::new();
    for incentive in incentives() {
        for alpha in [0.01, 0.1, 0.25, 0.4] {
            for ratio in [(3, 2), (1, 1), (1, 2), (2, 3)] {
                configs.push(AttackConfig::with_ratio(alpha, ratio, Setting::One, incentive));
            }
        }
    }
    assert_eq!(configs.len(), 48);
    configs
}

fn setting2_configs() -> Vec<AttackConfig> {
    let mut configs = Vec::new();
    for incentive in incentives() {
        for alpha in [0.1, 0.25] {
            for ratio in [(1, 1), (1, 2)] {
                let mut cfg = AttackConfig::with_ratio(alpha, ratio, Setting::Two, incentive);
                cfg.gate_blocks = 12;
                configs.push(cfg);
            }
        }
    }
    configs.push(AttackConfig::with_ratio(
        0.25,
        (1, 2),
        Setting::Two,
        IncentiveModel::CompliantProfitDriven,
    ));
    assert_eq!(configs.len(), 13);
    configs
}

#[test]
fn setting1_models_are_pinned() {
    let (hash, _) = fingerprint(setting1_configs());
    assert_eq!(hash, 0x3a00_90de_430c_d594, "setting-1 models changed: {hash:016x}");
}

#[test]
fn setting2_models_are_pinned() {
    let (hash, states) = fingerprint(setting2_configs());
    assert_eq!(states, 63_511);
    assert_eq!(hash, 0xe48a_8d71_b70a_b263, "setting-2 models changed: {hash:016x}");
}

/// What fixes a model's graph; builds of one key re-weight one graph.
fn graph_key(cfg: &AttackConfig) -> (Setting, bool, u8, u8, u16) {
    (cfg.setting, cfg.incentive.allows_wait(), cfg.ad, cfg.ad_carol, cfg.gate_blocks)
}

/// Both pinned grids, built forward and then in reverse on one thread, plus
/// a double-spend cell with a non-default `rds` and threshold right after a
/// default one: every build whose graph key matches the previous build's
/// must re-weight that graph, and every model must serialize to the same
/// bytes as a cold `explore` of its configuration. No refill may fall back.
#[test]
fn reused_graphs_match_cold_explores() {
    let mut configs = setting1_configs();
    configs.extend(setting2_configs());
    let double_spend = |incentive| AttackConfig::with_ratio(0.25, (1, 2), Setting::One, incentive);
    configs.push(double_spend(IncentiveModel::non_compliant_default()));
    configs.push(double_spend(IncentiveModel::NonCompliantProfitDriven { rds: 3.5, threshold: 1 }));

    let mut previous: Option<AttackModel> = None;
    let mut reused = 0;
    for cfg in configs.iter().chain(configs.iter().rev()) {
        let built = AttackModel::build(cfg.clone()).unwrap();
        if let Some(prev) = previous.as_ref().filter(|p| graph_key(p.config()) == graph_key(cfg)) {
            assert!(built.mdp().shares_structure(prev.mdp()), "{cfg:?} explored again");
            reused += 1;
        }
        let cold = explore(COMPONENTS, [AttackState::BASE], |s, sink| expand(cfg, s, sink));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        serialize(&mut got, built.mdp());
        serialize(&mut want, &cold.unwrap().mdp);
        assert!(got == want, "{cfg:?}: re-weighted model differs from a cold explore");
        previous = Some(built);
    }
    // 126 builds; the first, and the five graph-key changes each way, explore.
    assert_eq!(reused, 126 - 11);
    assert_eq!(refill_fallbacks(), 0);
}
