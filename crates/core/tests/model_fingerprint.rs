//! Pins every built attack model bit for bit.
//!
//! Each grid's models are serialized in grid order — state count; per
//! state its arm count; per arm its label and transition count; per
//! transition `to`, the probability's bits and every reward component's
//! bits, all as little-endian `u64`s — and the byte stream is hashed with
//! `bvc_journal::fnv1a64`. A change to the transition generator, the
//! interning order or the merge arithmetic moves the hash, even when every
//! solved value would stay within its published tolerance.

use bvc_bu::{AttackConfig, AttackModel, IncentiveModel, Setting};
use bvc_journal::fnv1a64;
use bvc_mdp::Mdp;

fn push(bytes: &mut Vec<u8>, v: u64) {
    bytes.extend_from_slice(&v.to_le_bytes());
}

fn serialize(bytes: &mut Vec<u8>, mdp: &Mdp) {
    push(bytes, mdp.num_states() as u64);
    for (_, arms) in mdp.iter_states() {
        push(bytes, arms.len() as u64);
        for arm in arms {
            push(bytes, arm.label as u64);
            push(bytes, arm.transitions.len() as u64);
            for t in &arm.transitions {
                push(bytes, t.to as u64);
                push(bytes, t.prob.to_bits());
                for r in &t.reward {
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

#[test]
fn setting1_models_are_pinned() {
    let mut configs = Vec::new();
    for incentive in incentives() {
        for alpha in [0.01, 0.1, 0.25, 0.4] {
            for ratio in [(3, 2), (1, 1), (1, 2), (2, 3)] {
                configs.push(AttackConfig::with_ratio(alpha, ratio, Setting::One, incentive));
            }
        }
    }
    assert_eq!(configs.len(), 48);
    let (hash, _) = fingerprint(configs);
    assert_eq!(hash, 0x3a00_90de_430c_d594, "setting-1 models changed: {hash:016x}");
}

#[test]
fn setting2_models_are_pinned() {
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
    let (hash, states) = fingerprint(configs);
    assert_eq!(states, 63_511);
    assert_eq!(hash, 0xe48a_8d71_b70a_b263, "setting-2 models changed: {hash:016x}");
}
