//! The multi-EB generalization of §4.1.1.
//!
//! The paper's three-miner setup with two compliant `EB` groups is "the
//! weakest form of the attack": with `k` distinct EBs
//! `EB_1 < EB_2 < … < EB_k` in the network, Alice can pick any split point
//! `1 ≤ d < k` and divide the compliant miners into the groups
//! `{EB_1 … EB_d}` (rejecting her fork block) and `{EB_{d+1} … EB_k}`
//! (accepting it) by mining a block of size `EB_{d+1}` (or just above
//! `EB_d`). Every split instantiates the two-group model with
//! `β = m_1 + … + m_d` and `γ = m_{d+1} + … + m_k`, so more EBs can only
//! give Alice *more options*.
//!
//! This module makes that argument executable: it enumerates the splits,
//! solves the induced two-group model for each, and returns the best.

use bvc_mdp::MdpError;

use crate::config::{AttackConfig, IncentiveModel, Setting};
use crate::model::AttackModel;
use crate::SolveOptions;

/// A compliant miner group signalling one EB value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EbGroup {
    /// The group's excessive block size, in any unit (only the order
    /// matters for the analysis).
    pub eb: u64,
    /// The group's mining power share (of the whole network).
    pub power: f64,
}

/// The outcome of one split choice.
#[derive(Debug, Clone)]
pub struct SplitOutcome {
    /// The chosen split index `d`: groups `0..d` reject the fork block.
    pub d: usize,
    /// The induced `β` (rejecting power).
    pub beta: f64,
    /// The induced `γ` (accepting power).
    pub gamma: f64,
    /// The attacker's optimal utility for this split.
    pub value: f64,
}

/// The multi-EB attack scenario.
#[derive(Debug, Clone)]
pub struct MultiEbScenario {
    /// Alice's power share.
    pub alpha: f64,
    /// The compliant groups, strictly increasing in `eb`, powers summing to
    /// `1 − alpha`.
    pub groups: Vec<EbGroup>,
    /// Acceptance depth shared by all compliant miners.
    pub ad: u8,
    /// Which phases are modeled.
    pub setting: Setting,
    /// Alice's incentive model.
    pub incentive: IncentiveModel,
}

impl MultiEbScenario {
    /// Validates group ordering and power totals.
    ///
    /// # Panics
    /// Panics on non-increasing EBs or powers not summing to `1 − alpha`.
    pub fn validate(&self) {
        assert!(self.groups.len() >= 2, "need at least two EB groups to split");
        for w in self.groups.windows(2) {
            assert!(w[0].eb < w[1].eb, "EBs must be strictly increasing");
        }
        let total: f64 = self.groups.iter().map(|g| g.power).sum();
        assert!(
            (total + self.alpha - 1.0).abs() < 1e-9,
            "powers must sum to 1 - alpha, got {total}"
        );
    }

    /// The two-group configuration induced by split `d` (groups `0..d`
    /// become Bob, the rest Carol).
    pub fn config_for_split(&self, d: usize) -> AttackConfig {
        assert!(d >= 1 && d < self.groups.len(), "split must be 1 ≤ d < k");
        let beta: f64 = self.groups[..d].iter().map(|g| g.power).sum();
        let gamma: f64 = self.groups[d..].iter().map(|g| g.power).sum();
        AttackConfig {
            alpha: self.alpha,
            beta,
            gamma,
            ad: self.ad,
            ad_carol: self.ad,
            gate_blocks: 144,
            setting: self.setting,
            incentive: self.incentive,
        }
    }

    /// Solves the attacker's optimal utility for every split and returns
    /// the outcomes in split order.
    pub fn all_splits(&self, opts: &SolveOptions) -> Result<Vec<SplitOutcome>, MdpError> {
        self.validate();
        let mut out = Vec::with_capacity(self.groups.len() - 1);
        for d in 1..self.groups.len() {
            let cfg = self.config_for_split(d);
            let (beta, gamma) = (cfg.beta, cfg.gamma);
            let model = AttackModel::build(cfg)?;
            let value = match self.incentive {
                IncentiveModel::CompliantProfitDriven => {
                    model.optimal_relative_revenue(opts)?.value
                }
                IncentiveModel::NonCompliantProfitDriven { .. } => {
                    model.optimal_absolute_revenue(opts)?.value
                }
                IncentiveModel::NonProfitDriven => model.optimal_orphan_rate(opts)?.value,
            };
            out.push(SplitOutcome { d, beta, gamma, value });
        }
        Ok(out)
    }

    /// The attacker's best split.
    pub fn best_split(&self, opts: &SolveOptions) -> Result<SplitOutcome, MdpError> {
        let splits = self.all_splits(opts)?;
        Ok(splits
            .into_iter()
            .max_by(|a, b| a.value.partial_cmp(&b.value).expect("values are finite"))
            .expect("at least one split"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(alpha: f64, powers: &[f64], incentive: IncentiveModel) -> MultiEbScenario {
        MultiEbScenario {
            alpha,
            groups: powers
                .iter()
                .enumerate()
                .map(|(i, &power)| EbGroup { eb: (i as u64 + 1) * 1_000_000, power })
                .collect(),
            ad: 6,
            setting: Setting::One,
            incentive,
        }
    }

    /// With three EB groups, the attacker's best split weakly dominates
    /// both two-group sub-scenarios — "more EBs only give Alice more
    /// options".
    #[test]
    fn more_ebs_weakly_dominate() {
        let opts = SolveOptions::default();
        let s = scenario(0.05, &[0.35, 0.30, 0.30], IncentiveModel::NonProfitDriven);
        let splits = s.all_splits(&opts).unwrap();
        assert_eq!(splits.len(), 2);
        let best = s.best_split(&opts).unwrap();
        for split in &splits {
            assert!(best.value >= split.value - 1e-9);
        }
        // The best split must at least match any *merged* coarsening: here
        // both coarsenings are exactly the two splits, so nothing more to
        // check structurally; numerically the best is positive.
        assert!(best.value > 0.0);
    }

    /// The induced β/γ decomposition is consistent.
    #[test]
    fn split_power_arithmetic() {
        let s = scenario(0.10, &[0.2, 0.3, 0.4], IncentiveModel::CompliantProfitDriven);
        let c1 = s.config_for_split(1);
        assert!((c1.beta - 0.2).abs() < 1e-12);
        assert!((c1.gamma - 0.7).abs() < 1e-12);
        let c2 = s.config_for_split(2);
        assert!((c2.beta - 0.5).abs() < 1e-12);
        assert!((c2.gamma - 0.4).abs() < 1e-12);
    }

    /// A compliant 10% attacker against three equal groups: only the split
    /// with α + γ > β can pay more than honest mining (that condition held
    /// before every measured Table 2 profitability onset).
    #[test]
    fn compliant_best_split_obeys_table2_condition() {
        let opts = SolveOptions::default();
        let s = scenario(0.10, &[0.30, 0.30, 0.30], IncentiveModel::CompliantProfitDriven);
        let splits = s.all_splits(&opts).unwrap();
        // d = 1: beta 0.3, gamma 0.6 (alpha + gamma > beta).
        // d = 2: beta 0.6, gamma 0.3 (alpha + gamma = 0.4 < 0.6: honest).
        assert!(splits[0].value >= splits[1].value);
        assert!((splits[1].value - 0.10).abs() < 1e-3, "d=2 is honest-only");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_groups() {
        let s = MultiEbScenario {
            alpha: 0.1,
            groups: vec![
                EbGroup { eb: 2_000_000, power: 0.45 },
                EbGroup { eb: 1_000_000, power: 0.45 },
            ],
            ad: 6,
            setting: Setting::One,
            incentive: IncentiveModel::CompliantProfitDriven,
        };
        s.validate();
    }
}
