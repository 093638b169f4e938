//! Reward components and the paper's three utility functions.
//!
//! Every transition of the attack MDP carries a 5-component reward vector;
//! the utilities of §3 are ratios or rates of linear combinations of these
//! components, built here as [`bvc_mdp::Objective`]s.

use bvc_mdp::Objective;

/// Number of reward components.
pub const COMPONENTS: usize = 5;

/// Component index: block rewards locked in for Alice (`ΣR_A`).
pub const RA: usize = 0;
/// Component index: block rewards locked in for Bob and Carol combined
/// (`ΣR_others`).
pub const ROTHERS: usize = 1;
/// Component index: Alice's orphaned blocks (`ΣO_A`).
pub const OA: usize = 2;
/// Component index: Bob's and Carol's orphaned blocks (`ΣO_others`).
pub const OOTHERS: usize = 3;
/// Component index: double-spending payouts in block-reward units
/// (`ΣR_DS`).
pub const DS: usize = 4;

/// Numerator of relative revenue `u1` (Eq. 1): `ΣR_A`.
pub fn u1_numerator() -> Objective {
    Objective::component(RA, COMPONENTS)
}

/// Denominator of relative revenue `u1` (Eq. 1): `ΣR_A + ΣR_others`.
pub fn u1_denominator() -> Objective {
    let mut w = vec![0.0; COMPONENTS];
    w[RA] = 1.0;
    w[ROTHERS] = 1.0;
    Objective::new(w)
}

/// Per-step objective of absolute revenue `u2` (Eq. 2): `R_A + R_DS`.
/// One block is found per MDP step, so the long-run per-step rate of this
/// objective *is* `u2` (the paper sets `t = ΣR_A + ΣR_others + ΣO_A +
/// ΣO_others`, the total number of blocks mined).
pub fn u2_objective() -> Objective {
    let mut w = vec![0.0; COMPONENTS];
    w[RA] = 1.0;
    w[DS] = 1.0;
    Objective::new(w)
}

/// Denominator of the ratio form of `u2`: all blocks mined. Used to verify
/// that the per-step and per-block readings of Eq. 2 agree.
pub fn all_blocks() -> Objective {
    let mut w = vec![0.0; COMPONENTS];
    w[RA] = 1.0;
    w[ROTHERS] = 1.0;
    w[OA] = 1.0;
    w[OOTHERS] = 1.0;
    Objective::new(w)
}

/// Numerator of the orphan-rate utility `u3` (Eq. 3): `ΣO_others`.
pub fn u3_numerator() -> Objective {
    Objective::component(OOTHERS, COMPONENTS)
}

/// Denominator of `u3` (Eq. 3): `ΣR_A + ΣO_A` — every block Alice mined,
/// whether it ended up locked or orphaned.
pub fn u3_denominator() -> Objective {
    let mut w = vec![0.0; COMPONENTS];
    w[RA] = 1.0;
    w[OA] = 1.0;
    Objective::new(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_indices_are_distinct() {
        let all = [RA, ROTHERS, OA, OOTHERS, DS];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(all.iter().all(|&c| c < COMPONENTS));
    }

    #[test]
    fn objectives_pick_expected_components() {
        let r = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(u1_numerator().scalarize(&r), 1.0);
        assert_eq!(u1_denominator().scalarize(&r), 3.0);
        assert_eq!(u2_objective().scalarize(&r), 17.0);
        assert_eq!(all_blocks().scalarize(&r), 15.0);
        assert_eq!(u3_numerator().scalarize(&r), 8.0);
        assert_eq!(u3_denominator().scalarize(&r), 5.0);
    }
}
