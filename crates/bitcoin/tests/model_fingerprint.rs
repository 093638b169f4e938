//! Pins every built selfish-mining model bit for bit.
//!
//! The models are serialized in grid order — state count; per state its
//! arm count; per arm its label and transition count; per transition `to`,
//! the probability's bits and every reward component's bits, all as
//! little-endian `u64`s — and the byte stream is hashed with
//! `bvc_journal::fnv1a64`. A change to the transition generator or the
//! interning order moves the hash.

use bvc_bitcoin::{BitcoinConfig, BitcoinModel};
use bvc_journal::fnv1a64;
use bvc_mdp::{audit_compiled, AuditOptions, AuditStatus, CompiledMdp};

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

#[test]
fn selfish_mining_models_are_pinned() {
    let mut bytes = Vec::new();
    let mut states = 0;
    let mut models = 0;
    for make in [BitcoinConfig::selfish_mining, BitcoinConfig::smds] {
        for alpha in [0.1, 0.25, 0.35, 0.45] {
            for gamma in [0.0, 0.5, 1.0] {
                let model = BitcoinModel::build(make(alpha, gamma)).unwrap();
                states += model.num_states();
                models += 1;
                serialize(&mut bytes, model.mdp());
            }
        }
    }
    assert_eq!(models, 24);
    assert_eq!(states, 95_544);
    let hash = fnv1a64(&bytes);
    assert_eq!(hash, 0xa0bd_3291_acce_a969, "selfish-mining models changed: {hash:016x}");
}
