//! High-level solving API: the optimal value of each of the paper's three
//! utilities for a configured attack model, plus full evaluation of any
//! fixed policy.

use bvc_mdp::solve::{
    evaluate_policy, maximize_ratio, relative_value_iteration, OptimalStrategy, SolveOptions,
};
use bvc_mdp::{MdpError, Policy};

use crate::config::Utility;
use crate::model::AttackModel;
use crate::rewards;
use crate::state::Action;

/// Long-run behaviour of one fixed policy, reported in every utility.
#[derive(Debug, Clone)]
pub struct UtilityReport {
    /// Relative revenue `u1` (Eq. 1).
    pub u1: f64,
    /// Absolute revenue per block `u2` (Eq. 2).
    pub u2: f64,
    /// Orphans per attacker block `u3` (Eq. 3).
    pub u3: f64,
    /// Raw per-step rates of all five reward components
    /// `[R_A, R_others, O_A, O_others, DS]`.
    pub rates: Vec<f64>,
}

impl AttackModel {
    /// The optimum of the utility this model's incentive maximizes
    /// ([`IncentiveModel::utility`](crate::IncentiveModel::utility)): `u1`,
    /// `u2` or `u3`, by the same solve as the named method.
    pub fn optimal(&self, opts: &SolveOptions) -> Result<OptimalStrategy, MdpError> {
        match self.config().incentive.utility() {
            Utility::U1 => self.optimal_relative_revenue(opts),
            Utility::U2 => self.optimal_absolute_revenue(opts),
            Utility::U3 => self.optimal_orphan_rate(opts),
        }
    }

    /// Maximum relative revenue `u1` (Table 2). For an honest miner this is
    /// exactly `α`; values above `α` mean BU is not incentive compatible.
    pub fn optimal_relative_revenue(
        &self,
        opts: &SolveOptions,
    ) -> Result<OptimalStrategy, MdpError> {
        opts.audit_gate(self.mdp())?;
        let sol = maximize_ratio(
            self.mdp(),
            &rewards::u1_numerator(),
            &rewards::u1_denominator(),
            &opts.ratio_options(),
        )?;
        Ok(sol.into())
    }

    /// Maximum absolute revenue per block `u2` (Table 3): the long-run
    /// average of `R_A + R_DS` per block found in the network. The model is
    /// regenerative at `BASE`, so the solve is a few exact renewal passes
    /// over the cycle from it.
    pub fn optimal_absolute_revenue(
        &self,
        opts: &SolveOptions,
    ) -> Result<OptimalStrategy, MdpError> {
        opts.audit_gate(self.mdp())?;
        let sol =
            relative_value_iteration(self.mdp(), &rewards::u2_objective(), &opts.rvi_options())?;
        Ok(sol.into())
    }

    /// Maximum orphans per attacker block `u3` (Table 4). In Bitcoin this
    /// can never exceed 1; the paper's headline finding is 1.77 in BU.
    pub fn optimal_orphan_rate(&self, opts: &SolveOptions) -> Result<OptimalStrategy, MdpError> {
        opts.audit_gate(self.mdp())?;
        let sol = maximize_ratio(
            self.mdp(),
            &rewards::u3_numerator(),
            &rewards::u3_denominator(),
            &opts.ratio_options(),
        )?;
        Ok(sol.into())
    }

    /// Evaluates a fixed policy in all three utilities at once.
    pub fn evaluate(&self, policy: &Policy) -> Result<UtilityReport, MdpError> {
        let ev = evaluate_policy(self.mdp(), policy)?;
        Ok(UtilityReport {
            u1: ev.ratio(&rewards::u1_numerator().weights, &rewards::u1_denominator().weights),
            u2: ev.rate(&rewards::u2_objective().weights),
            u3: ev.ratio(&rewards::u3_numerator().weights, &rewards::u3_denominator().weights),
            rates: ev.component_rates,
        })
    }

    /// The always-honest policy: mine on Chain 1 everywhere.
    pub fn honest_policy(&self) -> Policy {
        let mdp = self.mdp();
        let choices = (0..mdp.num_states())
            .map(|s| {
                mdp.action_with_label(s, Action::OnChain1.label())
                    .expect("OnChain1 is always available")
            })
            .collect();
        Policy { choices }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AttackConfig, IncentiveModel, Setting};
    use crate::model::AttackModel;

    fn model(alpha: f64, ratio: (u32, u32), incentive: IncentiveModel) -> AttackModel {
        AttackModel::build(AttackConfig::with_ratio(alpha, ratio, Setting::One, incentive)).unwrap()
    }

    /// [`AttackModel::optimal`] runs the named method of the model's
    /// incentive: same value bits, same policy.
    fn assert_optimal_dispatches(m: &AttackModel, named: &OptimalStrategy) {
        let via = m.optimal(&SolveOptions::default()).unwrap();
        assert_eq!(via.value.to_bits(), named.value.to_bits());
        assert_eq!(via.policy.choices, named.policy.choices);
    }

    #[test]
    fn honest_policy_earns_fair_share() {
        let m = model(0.2, (1, 1), IncentiveModel::CompliantProfitDriven);
        let report = m.evaluate(&m.honest_policy()).unwrap();
        assert!((report.u1 - 0.2).abs() < 1e-6, "u1 = {}", report.u1);
        assert!((report.u2 - 0.2).abs() < 1e-6, "u2 = {}", report.u2);
        assert!(report.u3.abs() < 1e-9, "u3 = {}", report.u3);
        // Honest mining never orphans anything.
        assert!(report.rates[crate::rewards::OA].abs() < 1e-12);
        assert!(report.rates[crate::rewards::OOTHERS].abs() < 1e-12);
    }

    /// Table 2, cell (α = 25%, β:γ = 1:1, setting 1): expected 26.24%.
    #[test]
    fn table2_alpha25_1to1() {
        let m = model(0.25, (1, 1), IncentiveModel::CompliantProfitDriven);
        let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
        assert!((sol.value - 0.2624).abs() < 5e-4, "expected ≈ 0.2624, got {:.4}", sol.value);
        assert_optimal_dispatches(&m, &sol);
    }

    /// Table 2: below the 3:2 onset of unfair revenue (α ≈ 0.2793 in setting
    /// 1, EXPERIMENTS.md §2) the optimal strategy is honest (u1 = α). Here
    /// α + γ ≤ β too; it held before every measured onset, which is
    /// unproven in general.
    #[test]
    fn table2_no_gain_when_bob_strong() {
        let m = model(0.10, (3, 2), IncentiveModel::CompliantProfitDriven);
        let sol = m.optimal_relative_revenue(&SolveOptions::default()).unwrap();
        assert!((sol.value - 0.10).abs() < 5e-4, "got {:.4}", sol.value);
    }

    /// Table 3, setting 2, cell (α = 1%, β:γ = 1:1): expected 0.034. Our
    /// implementation of the paper's stated double-spend rule reproduces the
    /// *setting 2* panel exactly; the published setting-1 panel is mutually
    /// inconsistent with it (see EXPERIMENTS.md), so setting-2 cells are the
    /// ones pinned here.
    #[test]
    fn table3_setting2_alpha1_1to1() {
        let m = AttackModel::build(AttackConfig::with_ratio(
            0.01,
            (1, 1),
            Setting::Two,
            IncentiveModel::non_compliant_default(),
        ))
        .unwrap();
        let sol = m.optimal_absolute_revenue(&SolveOptions::default()).unwrap();
        assert!((sol.value - 0.034).abs() < 1e-3, "expected ≈ 0.034, got {:.4}", sol.value);
    }

    /// Setting 1, γ-heavy cell (α = 1%, β:γ = 1:4): the published 0.013
    /// is reproduced by the stated rule.
    #[test]
    fn table3_setting1_alpha1_1to4() {
        let m = model(0.01, (1, 4), IncentiveModel::non_compliant_default());
        let sol = m.optimal_absolute_revenue(&SolveOptions::default()).unwrap();
        assert!((sol.value - 0.013).abs() < 1e-3, "expected ≈ 0.013, got {:.4}", sol.value);
        assert_optimal_dispatches(&m, &sol);
    }

    /// Every BU model is regenerative at `BASE`: its regeneration set is
    /// `{0}` (see `bvc_mdp::solve::renewal`), so the `u2` gain solve is one
    /// solve of a few renewal passes. The Bitcoin models have a larger set
    /// (`bvc-bitcoin`'s test of the same name).
    #[test]
    fn u2_solve_follows_the_model_structure() {
        let m = model(0.10, (1, 1), IncentiveModel::non_compliant_default());
        assert_eq!(bvc_mdp::solve::regeneration_set(m.mdp()).set, [0]);
        let sol = m.optimal_absolute_revenue(&SolveOptions::default()).unwrap();
        assert_eq!(sol.inner_solves, 1);
        assert!((2..=10).contains(&sol.inner_iterations), "{} passes", sol.inner_iterations);
    }

    /// The ratio objectives (`u1`, `u3`) on the same regenerative models
    /// run one renewal Dinkelbach loop: one inner solve of a few DP
    /// passes.
    #[test]
    fn ratio_engine_is_one_dinkelbach_loop() {
        let u1 = model(0.25, (1, 1), IncentiveModel::CompliantProfitDriven)
            .optimal_relative_revenue(&SolveOptions::default())
            .unwrap();
        let u3 = model(0.01, (2, 3), IncentiveModel::NonProfitDriven)
            .optimal_orphan_rate(&SolveOptions::default())
            .unwrap();
        for sol in [u1, u3] {
            assert_eq!(sol.inner_solves, 1);
            assert!((2..=6).contains(&sol.inner_iterations), "{} passes", sol.inner_iterations);
        }
    }

    /// Analytical Result 2's qualitative core: in BU even a 1% miner earns
    /// strictly more than the honest rate by double-spend forking, for every
    /// table ratio, in setting 1.
    #[test]
    fn table3_one_percent_miner_profits() {
        for ratio in [(2, 1), (1, 1), (1, 2), (1, 4)] {
            let m = model(0.01, ratio, IncentiveModel::non_compliant_default());
            let sol = m.optimal_absolute_revenue(&SolveOptions::default()).unwrap();
            assert!(
                sol.value > 0.01 + 1e-3,
                "ratio {ratio:?}: expected profit above honest 0.01, got {:.4}",
                sol.value
            );
        }
    }

    /// Table 4, cell (α = 1%, β:γ = 2:3, setting 1): expected 1.77.
    #[test]
    fn table4_alpha1_2to3() {
        let m = model(0.01, (2, 3), IncentiveModel::NonProfitDriven);
        let sol = m.optimal_orphan_rate(&SolveOptions::default()).unwrap();
        assert!((sol.value - 1.77).abs() < 2e-2, "expected ≈ 1.77, got {:.4}", sol.value);
        assert_optimal_dispatches(&m, &sol);
    }
}
