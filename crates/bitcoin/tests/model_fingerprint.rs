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
