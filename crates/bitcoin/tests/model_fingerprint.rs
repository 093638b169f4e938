//! Pins every built selfish-mining model bit for bit.
//!
//! The models are serialized in grid order — state count; per state its
//! arm count; per arm its label and transition count; per transition `to`,
//! the probability's bits and every reward component's bits, all as
//! little-endian `u64`s — and the byte stream is hashed with
//! `bvc_journal::fnv1a64`. A change to the transition generator or the
//! interning order moves the hash.
//!
//! Builds on one thread re-weight the last graph when their cap matches,
//! so the pins cover re-weighted models too;
//! `reused_graphs_match_cold_explores` holds every such model to a cold
//! `explore` of its configuration.

use bvc_bitcoin::model::COMPONENTS;
use bvc_bitcoin::{expand, BitcoinConfig, BitcoinModel, SmState};
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

/// The pinned grid, in build order: plain selfish mining, then SM + DS,
/// each over α and γ = 0, ½, 1.
fn pinned_configs() -> Vec<BitcoinConfig> {
    let mut configs = Vec::new();
    for make in [BitcoinConfig::selfish_mining, BitcoinConfig::smds] {
        for alpha in [0.1, 0.25, 0.35, 0.45] {
            for gamma in [0.0, 0.5, 1.0] {
                configs.push(make(alpha, gamma));
            }
        }
    }
    configs
}

#[test]
fn selfish_mining_models_are_pinned() {
    let mut bytes = Vec::new();
    let mut states = 0;
    let mut models = 0;
    for cfg in pinned_configs() {
        let model = BitcoinModel::build(cfg).unwrap();
        states += model.num_states();
        models += 1;
        serialize(&mut bytes, model.mdp());
    }
    assert_eq!(models, 24);
    assert_eq!(states, 95_544);
    let hash = fnv1a64(&bytes);
    assert_eq!(hash, 0xa0bd_3291_acce_a969, "selfish-mining models changed: {hash:016x}");
}

/// The pinned grid, built forward and then in reverse on one thread, with
/// two cap-24 cells in the middle: every build whose cap matches the
/// previous build's must re-weight that graph — across both γ = 0 and
/// γ = 1, whose zero-probability outcomes are still written — and every
/// model must serialize to the same bytes as a cold `explore` of its
/// configuration. No refill may fall back.
#[test]
fn reused_graphs_match_cold_explores() {
    let mut configs = pinned_configs();
    let small = |gamma| BitcoinConfig { cap: 24, ..BitcoinConfig::smds(0.3, gamma) };
    configs.insert(12, small(1.0));
    configs.insert(13, small(0.0));

    let mut previous: Option<BitcoinModel> = None;
    let mut reused = 0;
    for cfg in configs.iter().chain(configs.iter().rev()) {
        let built = BitcoinModel::build(cfg.clone()).unwrap();
        if let Some(prev) = previous.as_ref().filter(|p| p.config().cap == cfg.cap) {
            assert!(built.mdp().shares_structure(prev.mdp()), "{cfg:?} explored again");
            reused += 1;
        }
        let cold = explore(COMPONENTS, [SmState::START], |s, sink| expand(cfg, s, sink));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        serialize(&mut got, built.mdp());
        serialize(&mut want, &cold.unwrap().mdp);
        assert!(got == want, "{cfg:?}: re-weighted model differs from a cold explore");
        previous = Some(built);
    }
    // 52 builds; the first, and the two cap changes each way, explore.
    assert_eq!(reused, 52 - 5);
    assert_eq!(refill_fallbacks(), 0);
}
