//! `bvc solve` — solve the BU attack MDP for one parameter cell.

use bvc_bu::{
    summarize, AttackConfig, AttackModel, IncentiveModel, Setting, SolveOptions, Utility,
};

use crate::args::{parse_ratio, ArgError, Args};

/// Parsed configuration of the `solve` subcommand (kept separate from the
/// execution so parsing is unit-testable).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveCmd {
    /// Full attack configuration.
    pub config: AttackConfig,
    /// Whether to print the phase-1 action map.
    pub show_policy: bool,
    /// Worker threads inside each Bellman sweep (`--solve-threads`,
    /// default 1; bit-identical results for every value).
    pub solve_threads: usize,
}

/// Parses the subcommand's flags.
pub fn parse(args: &Args) -> Result<SolveCmd, ArgError> {
    Ok(SolveCmd {
        config: parse_attack_config(args)?,
        show_policy: args.has("show-policy"),
        solve_threads: args.get_or("solve-threads", 1usize)?.max(1),
    })
}

/// Parses the model-defining flags shared by `bvc solve` and `bvc audit`
/// (`--alpha`, `--beta-gamma`, `--setting`, `--incentive`, `--ad`,
/// `--ad-carol`, `--gate`, and `--rds`/`--confirmations` for double-spend
/// cells) under the ranges serve applies to the same cells, so no flag
/// value reaches [`AttackConfig::validate`]'s assertions.
pub fn parse_attack_config(args: &Args) -> Result<AttackConfig, ArgError> {
    let alpha: f64 = args.get("alpha")?;
    if !(alpha > 0.0 && alpha < 0.5) {
        return Err(ArgError(format!("--alpha must be in (0, 0.5), got {alpha}")));
    }
    let ratio = parse_ratio(&args.get_or("beta-gamma", "1:1".to_string())?)?;
    let setting = match args.get_or("setting", 1u8)? {
        1 => Setting::One,
        2 => Setting::Two,
        other => return Err(ArgError(format!("--setting must be 1 or 2, got {other}"))),
    };
    let incentive = match args.get_or("incentive", "compliant".to_string())?.as_str() {
        "compliant" => IncentiveModel::CompliantProfitDriven,
        "double-spend" => {
            let rds: f64 = args.get_or("rds", 10.0)?;
            if rds.is_nan() || rds < 0.0 {
                return Err(ArgError(format!("--rds must be nonnegative, got {rds}")));
            }
            let confirmations = in_range(args, "confirmations", 4u8, 1, 16)?;
            IncentiveModel::NonCompliantProfitDriven { rds, threshold: confirmations - 1 }
        }
        "vandal" => IncentiveModel::NonProfitDriven,
        other => {
            return Err(ArgError(format!(
                "--incentive must be compliant, double-spend or vandal, got {other:?}"
            )))
        }
    };
    let mut config = AttackConfig::with_ratio(alpha, ratio, setting, incentive);
    config.ad = in_range(args, "ad", 6u8, 2, 24)?;
    config.ad_carol = in_range(args, "ad-carol", config.ad, 2, 24)?;
    config.gate_blocks = in_range(args, "gate", 144u16, 1, 4096)?;
    Ok(config)
}

/// An optional integer flag with a default, bounded to `[lo, hi]`.
fn in_range<T>(args: &Args, key: &str, default: T, lo: T, hi: T) -> Result<T, ArgError>
where
    T: std::str::FromStr + PartialOrd + std::fmt::Display,
    T::Err: std::fmt::Display,
{
    let v = args.get_or(key, default)?;
    if v < lo || v > hi {
        return Err(ArgError(format!("--{key} must be in [{lo}, {hi}], got {v}")));
    }
    Ok(v)
}

/// Runs the subcommand.
pub fn run(cmd: &SolveCmd) -> Result<(), String> {
    let cfg = cmd.config.clone();
    println!(
        "solving BU attack MDP: alpha={:.4}, beta={:.4}, gamma={:.4}, AD={}/{}, {}, {:?}",
        cfg.alpha, cfg.beta, cfg.gamma, cfg.ad, cfg.ad_carol, cfg.setting, cfg.incentive
    );
    if !cfg.satisfies_power_assumption() {
        println!("note: alpha > min(beta, gamma) — outside the paper's standing assumption");
    }
    let model = AttackModel::build(cfg.clone()).map_err(|e| e.to_string())?;
    println!("state space: {} states", model.num_states());
    let opts = SolveOptions { solve_threads: cmd.solve_threads, ..SolveOptions::default() };
    let sol = model.optimal(&opts).map_err(|e| e.to_string())?;
    let label = match cfg.incentive.utility() {
        Utility::U1 => "max relative revenue u1",
        Utility::U2 => "max absolute revenue u2 (per block)",
        Utility::U3 => "max orphans per attacker block u3",
    };
    println!("{label}: {:.4}", sol.value);

    let honest = model.evaluate(&model.honest_policy()).map_err(|e| e.to_string())?;
    println!("honest baseline: u1={:.4} u2={:.4} u3={:.4}", honest.u1, honest.u2, honest.u3);
    let report = model.evaluate(&sol.policy).map_err(|e| e.to_string())?;
    println!("optimal policy:  u1={:.4} u2={:.4} u3={:.4}", report.u1, report.u2, report.u3);
    let s = summarize(&model, &sol.policy);
    println!(
        "strategy: base={}, fork states on C1/C2/wait = {}/{}/{}",
        s.base_action, s.on_chain1, s.on_chain2, s.waits
    );
    if cmd.show_policy {
        println!();
        println!("phase-1 action map (1=OnChain1, 2=OnChain2, w=Wait):");
        print!("{}", bvc_bu::render_phase1_map(&model, &sol.policy));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().copied()).unwrap()
    }

    #[test]
    fn parses_full_flag_set() {
        let cmd = parse(&args(&[
            "--alpha",
            "0.1",
            "--beta-gamma",
            "2:3",
            "--setting",
            "2",
            "--incentive",
            "double-spend",
            "--ad",
            "4",
            "--gate",
            "24",
            "--show-policy",
            "--solve-threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(cmd.solve_threads, 4);
        assert_eq!(cmd.config.alpha, 0.1);
        assert!(cmd.config.beta < cmd.config.gamma);
        assert_eq!(cmd.config.setting, Setting::Two);
        assert_eq!(cmd.config.ad, 4);
        assert_eq!(cmd.config.gate_blocks, 24);
        assert!(cmd.show_policy);
        assert!(matches!(
            cmd.config.incentive,
            IncentiveModel::NonCompliantProfitDriven { rds, threshold } if rds == 10.0 && threshold == 3
        ));
    }

    #[test]
    fn defaults_apply() {
        let cmd = parse(&args(&["--alpha", "0.25"])).unwrap();
        assert_eq!(cmd.config.ad, 6);
        assert_eq!(cmd.config.ad_carol, 6);
        assert_eq!(cmd.config.setting, Setting::One);
        assert!(matches!(cmd.config.incentive, IncentiveModel::CompliantProfitDriven));
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&args(&["--alpha", "0.7"])).is_err());
        assert!(parse(&args(&["--alpha", "0.2", "--setting", "3"])).is_err());
        assert!(parse(&args(&["--alpha", "0.2", "--incentive", "bogus"])).is_err());
        assert!(parse(&args(&[])).is_err());
    }

    fn rejection(tokens: &[&str]) -> String {
        match parse(&args(tokens)) {
            Ok(cmd) => panic!("{tokens:?} parsed to {:?}", cmd.config),
            Err(ArgError(message)) => message,
        }
    }

    /// `--alpha 0` and `--alpha -0` used to pass the half-open range check
    /// and panic in `AttackConfig::validate`; alpha is exclusive at both
    /// ends, as in serve.
    #[test]
    fn zero_alpha_is_rejected() {
        for alpha in ["0", "-0", "0.5"] {
            assert!(rejection(&["--alpha", alpha]).contains("--alpha must be in (0, 0.5)"));
        }
    }

    /// `--ad 1` (and `--ad-carol 1`) used to panic in
    /// `AttackConfig::validate`; both depths take serve's [2, 24].
    #[test]
    fn acceptance_depth_below_two_is_rejected() {
        assert!(rejection(&["--alpha", "0.2", "--ad", "1"]).contains("--ad must be in [2, 24]"));
        assert!(rejection(&["--alpha", "0.2", "--ad-carol", "1"]).contains("--ad-carol must be in"));
        assert!(rejection(&["--alpha", "0.2", "--ad", "25"]).contains("--ad must be in"));
    }

    /// `--setting 2 --gate 0` used to panic in `AttackConfig::validate`.
    #[test]
    fn zero_gate_is_rejected() {
        let message = rejection(&["--alpha", "0.2", "--setting", "2", "--gate", "0"]);
        assert!(message.contains("--gate must be in [1, 4096]"), "{message}");
    }

    #[test]
    fn double_spend_terms_take_serve_ranges() {
        let ds = ["--alpha", "0.2", "--incentive", "double-spend"];
        for (flag, value, needle) in [
            ("--confirmations", "0", "--confirmations must be in [1, 16]"),
            ("--confirmations", "17", "--confirmations must be in [1, 16]"),
            ("--rds", "-1", "--rds must be nonnegative"),
        ] {
            let tokens: Vec<&str> = ds.iter().copied().chain([flag, value]).collect();
            assert!(rejection(&tokens).contains(needle), "{flag} {value}");
        }
    }

    #[test]
    fn confirmations_map_to_threshold() {
        let cmd = parse(&args(&[
            "--alpha",
            "0.1",
            "--incentive",
            "double-spend",
            "--confirmations",
            "6",
        ]))
        .unwrap();
        assert!(matches!(
            cmd.config.incentive,
            IncentiveModel::NonCompliantProfitDriven { threshold: 5, .. }
        ));
    }

    /// End-to-end smoke test of the runner on a tiny cell.
    #[test]
    fn runs_small_cell() {
        let mut cmd = parse(&args(&["--alpha", "0.2", "--ad", "3"])).unwrap();
        cmd.show_policy = true;
        run(&cmd).unwrap();
    }
}
