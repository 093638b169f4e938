//! Exact policy evaluation on the paper's own cells.
//!
//! Every BU model is regenerative at its base state, so
//! `AttackModel::evaluate` and the episode metrics run one exact pass over
//! the cycle from it (`bvc_mdp::solve::eval`, `bvc_mdp::solve::first_passage`)
//! instead of iterating toward a fixed point. These pins hold that
//! exactness on the cells the tables and the ablation report.

use bvc_bu::{AttackConfig, AttackModel, IncentiveModel, Setting, SolveOptions};
use bvc_cluster::cell::CellContext;
use bvc_cluster::jobs::{
    table2_setting1_jobs, table2_setting2_jobs, table3_jobs, JobSpec, ABLATION_ADS,
};
use bvc_mdp::SolveBudget;

fn setting(s: u8) -> Setting {
    if s == 2 {
        Setting::Two
    } else {
        Setting::One
    }
}

/// Every Table 3 cell, in both settings: the optimal policy's evaluated
/// `u2` is the gain solve's value to rounding, since both are the same
/// cycle ratio computed exactly.
#[test]
fn table3_optimal_policies_evaluate_to_the_solved_u2() {
    for s in [1u8, 2] {
        for job in table3_jobs(s) {
            let JobSpec::Table3 { alpha, ratio, setting: s } = job else { unreachable!() };
            let cfg = AttackConfig::with_ratio(
                alpha,
                ratio,
                setting(s),
                IncentiveModel::non_compliant_default(),
            );
            let model = AttackModel::build(cfg).unwrap();
            let sol = model.optimal_absolute_revenue(&SolveOptions::default()).unwrap();
            let u2 = model.evaluate(&sol.policy).unwrap().u2;
            assert!(
                (u2 - sol.value).abs() <= 1e-12,
                "s{s} {ratio:?} alpha={alpha}: evaluated u2 {u2} vs solved {}",
                sol.value
            );
        }
    }
}

/// The honest policy on every Table 2 cell earns exactly the attacker's
/// share, in relative and in absolute revenue.
#[test]
fn honest_policies_earn_alpha_exactly() {
    for job in table2_setting1_jobs().into_iter().chain(table2_setting2_jobs()) {
        let JobSpec::Table2 { alpha, ratio, setting: s } = job else { unreachable!() };
        let cfg = AttackConfig::with_ratio(
            alpha,
            ratio,
            setting(s),
            IncentiveModel::CompliantProfitDriven,
        );
        let model = AttackModel::build(cfg).unwrap();
        let report = model.evaluate(&model.honest_policy()).unwrap();
        for (name, u) in [("u1", report.u1), ("u2", report.u2)] {
            assert!(
                (u - alpha).abs() <= 1e-15,
                "s{s} {ratio:?} alpha={alpha}: honest {name} = {u}"
            );
        }
    }
}

/// The `ablation-ad` rows' episode metrics, `[deep_fork, gate_time]`, as
/// the Gauss–Seidel hitting solvers found them before the exact
/// first-passage pass replaced them; each must hold to 1e-9 relative.
const ABLATION_EPISODES: [(u8, f64, f64); 7] = [
    (2, 0.0, 14.357366771148415),
    (3, 0.0, 18.239543930715286),
    (4, 0.0, 21.838550578572523),
    (6, 0.6236018593750001, 33.0119410466333),
    (8, 0.6324840156250001, 43.9165604528149),
    (12, 0.6352405468750002, 64.12986422054799),
    (20, 0.6352405468750002, 102.79312449385097),
];

#[test]
fn ablation_episode_metrics_match_the_iterative_values() {
    let ctx = CellContext { budget: SolveBudget::unlimited(), audit: false };
    for (index, (ad, deep_fork, gate_time)) in ABLATION_EPISODES.into_iter().enumerate() {
        assert_eq!(ABLATION_ADS[index], ad);
        let row = JobSpec::Row { workload: "ablation-ad", index }.solve(&ctx).unwrap();
        for (name, got, want) in
            [("deep_fork", row[4], deep_fork), ("gate_time", row[5], gate_time)]
        {
            assert!(
                (got - want).abs() <= 1e-9 * want.abs(),
                "AD={ad} {name}: {got} vs the iterative {want}"
            );
        }
    }
}
