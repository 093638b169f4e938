//! `bvc audit` — static certification of solver preconditions for one
//! parameter cell, without solving (see `bvc_mdp::audit`).
//!
//! Builds the same BU attack model `bvc solve` would solve and runs the
//! full audit over it: numeric invariants, reachability from the base
//! state, end-component / unichain certification, plus an exact
//! policy-unichain check of the honest policy. `--demo multichain` and
//! `--demo unreachable` audit small hand-built broken models instead, to
//! show what a failing report looks like.

use bvc_bu::{AttackConfig, AttackModel};
use bvc_mdp::audit::{audit_policy, demo_multichain, demo_unreachable};
use bvc_mdp::{audit_compiled, AuditOptions, AuditReport};

use crate::args::{ArgError, Args};

/// What `bvc audit` audits.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditTarget {
    /// The BU attack model of one parameter cell (same flags as `solve`).
    Model(Box<AttackConfig>),
    /// A hand-built certainly-multichain demo model (two disjoint traps).
    DemoMultichain,
    /// A hand-built demo model with an unreachable state.
    DemoUnreachable,
}

/// Parsed configuration of the `audit` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditCmd {
    /// The model to audit.
    pub target: AuditTarget,
    /// Emit the report as one JSON object instead of aligned text.
    pub json: bool,
}

/// Parses the subcommand's flags.
pub fn parse(args: &Args) -> Result<AuditCmd, ArgError> {
    args.check_names(&[&AttackConfig::PARAMS, &["demo", "json"]])?;
    let target = match args.get_or("demo", String::new())?.as_str() {
        "" => AuditTarget::Model(Box::new(super::solve::parse_attack_config(args)?)),
        "multichain" => AuditTarget::DemoMultichain,
        "unreachable" => AuditTarget::DemoUnreachable,
        other => {
            return Err(ArgError(format!(
                "--demo must be multichain or unreachable, got {other:?}"
            )))
        }
    };
    Ok(AuditCmd { target, json: args.has("json") })
}

/// Runs the subcommand. Exits nonzero (via the returned `Err`) when any
/// audit check fails.
pub fn run(cmd: &AuditCmd) -> Result<(), String> {
    let report = build_report(cmd)?;
    if cmd.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    match report.checks.iter().find(|c| c.status == bvc_mdp::AuditStatus::Fail) {
        None => Ok(()),
        Some(c) => Err(format!("model failed audit check '{}': {}", c.name, c.detail)),
    }
}

fn build_report(cmd: &AuditCmd) -> Result<AuditReport, String> {
    let opts = AuditOptions::default();
    match &cmd.target {
        AuditTarget::Model(cfg) => {
            let model = AttackModel::build((**cfg).clone()).map_err(|e| e.to_string())?;
            if !cmd.json {
                println!(
                    "auditing BU attack model: alpha={:.4}, beta={:.4}, gamma={:.4}, AD={}/{}, {}, {:?}",
                    cfg.alpha, cfg.beta, cfg.gamma, cfg.ad, cfg.ad_carol, cfg.setting, cfg.incentive
                );
            }
            let mut report = model.audit();
            // The model-level unichain check certifies every policy at once
            // when it can; the honest policy additionally gets the exact
            // per-policy SCC analysis.
            report.push_check(audit_policy(model.mdp(), &model.honest_policy(), &opts));
            Ok(report)
        }
        AuditTarget::DemoMultichain => Ok(audit_compiled(&demo_multichain(), &opts)),
        AuditTarget::DemoUnreachable => Ok(audit_compiled(&demo_unreachable(), &opts)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_mdp::AuditStatus;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().copied()).unwrap()
    }

    #[test]
    fn parses_model_flags_like_solve() {
        let cmd = parse(&args(&["--alpha", "0.2", "--ad", "3", "--json"])).unwrap();
        assert!(cmd.json);
        match cmd.target {
            AuditTarget::Model(cfg) => assert_eq!(cfg.ad, 3),
            other => panic!("expected a model target, got {other:?}"),
        }
    }

    /// `bvc audit --alpha 0` (or `-0`, or `--ad 1`) used to panic in
    /// `AttackConfig::validate`; the shared model flags now reject them.
    #[test]
    fn out_of_range_model_flags_are_rejected() {
        for tokens in [&["--alpha", "0"][..], &["--alpha", "-0"], &["--alpha", "0.2", "--ad", "1"]]
        {
            assert!(parse(&args(tokens)).is_err(), "{tokens:?} must be rejected");
        }
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let message = parse(&args(&["--alpha", "0.2", "--beta-gamma", "1:2"])).unwrap_err().0;
        assert!(message.starts_with("unknown parameter \"beta-gamma\""), "{message}");
        assert!(message.ends_with("confirmations, demo, json)"), "{message}");
    }

    #[test]
    fn parses_demo_targets_without_alpha() {
        let cmd = parse(&args(&["--demo", "multichain"])).unwrap();
        assert_eq!(cmd.target, AuditTarget::DemoMultichain);
        let cmd = parse(&args(&["--demo", "unreachable"])).unwrap();
        assert_eq!(cmd.target, AuditTarget::DemoUnreachable);
        assert!(parse(&args(&["--demo", "bogus"])).is_err());
    }

    #[test]
    fn real_model_passes_audit() {
        let cmd = parse(&args(&["--alpha", "0.2", "--ad", "3"])).unwrap();
        run(&cmd).unwrap();
    }

    #[test]
    fn demo_models_fail_their_intended_checks() {
        let report = audit_compiled(&demo_multichain(), &AuditOptions::default());
        assert_eq!(report.check("unichain").map(|c| c.status), Some(AuditStatus::Fail));
        let report = audit_compiled(&demo_unreachable(), &AuditOptions::default());
        assert_eq!(report.check("reachable").map(|c| c.status), Some(AuditStatus::Fail));

        assert!(run(&AuditCmd { target: AuditTarget::DemoMultichain, json: false }).is_err());
        assert!(run(&AuditCmd { target: AuditTarget::DemoUnreachable, json: true }).is_err());
    }
}
