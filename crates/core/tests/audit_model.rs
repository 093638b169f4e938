//! Static audit of the real Table 2 models: the audit subsystem must
//! certify every precondition of the models the reproduction actually
//! solves, and the `--audit` pre-solve gate must stay invisible on them.
//!
//! These are the positive counterparts of the hand-built broken models in
//! `bvc_mdp::audit`'s unit tests: a reproduction whose auditor rejects its
//! own models would be useless, so the certification itself is pinned here.

use bvc_bu::{AttackConfig, AttackModel, IncentiveModel, Setting, SolveOptions};
use bvc_mdp::{audit_policy, AuditOptions, AuditStatus};

fn setting1_model(alpha: f64, ratio: (u32, u32), incentive: IncentiveModel) -> AttackModel {
    let cfg = AttackConfig::with_ratio(alpha, ratio, Setting::One, incentive);
    AttackModel::build(cfg).expect("model builds")
}

/// Table 2, setting 1, α = 25%, β:γ = 1:1 — the canonical cell: every
/// audit check must PASS outright, including the unichain certificate.
#[test]
fn table2_setting1_model_is_certified_clean() {
    let model = setting1_model(0.25, (1, 1), IncentiveModel::CompliantProfitDriven);
    let report = model.audit();
    assert!(
        report.clean(),
        "Table 2 setting-1 model must pass every audit check:\n{}",
        report.render_text()
    );
    for name in ["csr-layout", "prob-finite", "prob-mass", "reward-finite", "reachable", "unichain"]
    {
        assert_eq!(
            report.check(name).map(|c| c.status),
            Some(AuditStatus::Pass),
            "check {name} missing or not PASS:\n{}",
            report.render_text()
        );
    }
    assert!(report.gate().is_ok());
}

/// The audit names the regeneration set the exact solves run on: state 0
/// alone on a BU model (the Bitcoin models have hundreds of states in it).
#[test]
fn audit_names_the_regeneration_set() {
    let report = setting1_model(0.25, (1, 1), IncentiveModel::CompliantProfitDriven).audit();
    let check = report.check("regeneration").expect("the audit runs the check");
    assert_eq!(check.status, AuditStatus::Pass);
    assert!(check.detail.starts_with("|S| = 1: "), "{}", check.detail);
}

/// The honest policy of a certified model induces a single recurrent class.
#[test]
fn honest_policy_is_unichain_on_certified_model() {
    let model = setting1_model(0.2, (1, 1), IncentiveModel::CompliantProfitDriven);
    let check = audit_policy(model.mdp(), &model.honest_policy(), &AuditOptions::default());
    assert_eq!(check.status, AuditStatus::Pass, "{}: {}", check.name, check.detail);
}

/// All three incentive models of the paper produce certified-clean MDPs.
#[test]
fn all_incentive_models_audit_clean() {
    for incentive in [
        IncentiveModel::CompliantProfitDriven,
        IncentiveModel::non_compliant_default(),
        IncentiveModel::NonProfitDriven,
    ] {
        let model = setting1_model(0.15, (1, 2), incentive);
        let report = model.audit();
        assert!(report.clean(), "{incentive:?} model not clean:\n{}", report.render_text());
    }
}

/// With `SolveOptions::audit` on, the pre-solve gate is invisible for a
/// healthy model: the solver runs and reproduces the published value.
#[test]
fn audit_gate_is_transparent_for_certified_models() {
    let model = setting1_model(0.25, (2, 3), IncentiveModel::CompliantProfitDriven);
    let opts = SolveOptions { audit: true, ..SolveOptions::default() };
    let sol = model.optimal_relative_revenue(&opts).expect("gated solve succeeds");
    assert!((sol.value - 0.2739).abs() < 5e-4, "expected ≈ 0.2739, got {:.4}", sol.value);
}
