//! `bvc bitcoin` — the Bitcoin baselines: optimal selfish mining, the
//! Eyal–Sirer SM1 strategy, honest mining, the profitability threshold,
//! and the combined double-spending attack.

use bvc_bitcoin::{
    closed_form_revenue, profitability_threshold, sm1_relative_revenue, BitcoinConfig,
    BitcoinModel, SolveOptions, ThresholdOptions,
};

use crate::args::{ArgError, Args};

/// Parsed configuration of the `bitcoin` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct BitcoinCmd {
    /// Attacker power share.
    pub alpha: f64,
    /// Tie-winning parameter γ.
    pub gamma: f64,
    /// Truncation bound.
    pub cap: u8,
    /// Also solve the combined selfish-mining + double-spending attack.
    pub double_spend: bool,
    /// Also compute the profitability threshold for this γ.
    pub threshold: bool,
}

/// Parses the subcommand's flags, checked by [`BitcoinConfig::check`].
pub fn parse(args: &Args) -> Result<BitcoinCmd, ArgError> {
    args.check_names(&[&["alpha", "gamma", "cap", "double-spend", "threshold"]])?;
    let cmd = BitcoinCmd {
        alpha: args.get("alpha")?,
        gamma: args.get_or("gamma", 0.5)?,
        cap: args.get_or("cap", 40u8)?,
        double_spend: args.has("double-spend"),
        threshold: args.has("threshold"),
    };
    BitcoinConfig { cap: cmd.cap, ..BitcoinConfig::selfish_mining(cmd.alpha, cmd.gamma) }
        .check()?;
    Ok(cmd)
}

/// Runs the subcommand.
pub fn run(cmd: &BitcoinCmd) -> Result<(), String> {
    println!("Bitcoin baselines: alpha={}, gamma={} (cap {})", cmd.alpha, cmd.gamma, cmd.cap);
    let cfg = BitcoinConfig { cap: cmd.cap, ..BitcoinConfig::selfish_mining(cmd.alpha, cmd.gamma) };
    let model = BitcoinModel::build(cfg).map_err(|e| e.to_string())?;
    let opts = SolveOptions::default();

    println!("honest mining        : {:.4}", cmd.alpha);
    let sm1 = sm1_relative_revenue(&model).map_err(|e| e.to_string())?;
    println!(
        "Eyal-Sirer SM1       : {:.4} (closed form {:.4})",
        sm1,
        closed_form_revenue(cmd.alpha, cmd.gamma)
    );
    let opt = model.optimal_relative_revenue(&opts).map_err(|e| e.to_string())?;
    println!("optimal selfish mining: {:.4}", opt.value);

    if cmd.double_spend {
        let cfg = BitcoinConfig { cap: cmd.cap, ..BitcoinConfig::smds(cmd.alpha, cmd.gamma) };
        let model = BitcoinModel::build(cfg).map_err(|e| e.to_string())?;
        let ds = model.optimal_absolute_revenue(&opts).map_err(|e| e.to_string())?;
        println!("SM + double spending : {:.4} per block (honest = {:.4})", ds.value, cmd.alpha);
    }
    if cmd.threshold {
        let t = profitability_threshold(
            cmd.gamma,
            &ThresholdOptions { cap: cmd.cap.min(32), ..Default::default() },
        )
        .map_err(|e| e.to_string())?;
        println!("profitability threshold at gamma={}: alpha >= {:.3}", cmd.gamma, t);
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
    fn parses_and_validates() {
        let cmd = parse(&args(&["--alpha", "0.3", "--gamma", "0", "--double-spend"])).unwrap();
        assert_eq!(cmd.alpha, 0.3);
        assert_eq!(cmd.gamma, 0.0);
        assert!(cmd.double_spend);
        assert!(!cmd.threshold);
        assert!(parse(&args(&["--alpha", "0.6"])).is_err());
        assert!(parse(&args(&["--alpha", "0.3", "--gamma", "1.5"])).is_err());
    }

    /// Each of these used to panic in `BitcoinConfig::validate` (exit 101).
    #[test]
    fn model_preconditions_are_errors_not_panics() {
        for (tokens, needle) in [
            (&["--alpha", "0"][..], "alpha must be"),
            (&["--alpha", "-0"], "alpha must be"),
            (&["--alpha", "NaN"], "alpha must be"),
            (&["--alpha", "0.2", "--gamma", "NaN"], "gamma must be in [0, 1]"),
            (&["--alpha", "0.2", "--cap", "0"], "cap must be at least 4"),
            (&["--alpha", "0.2", "--cap", "1"], "cap must be at least 4"),
            (&["--alpha", "0.2", "--cap", "2"], "cap must be at least 4"),
            (&["--alpha", "0.2", "--cap", "3"], "cap must be at least 4"),
        ] {
            let ArgError(message) = parse(&args(tokens)).unwrap_err();
            assert!(message.contains(needle), "{tokens:?}: {message}");
        }
        assert_eq!(parse(&args(&["--alpha", "0.2", "--cap", "4"])).unwrap().cap, 4);
    }

    /// A cap past the work cap is refused at parse time, before any model
    /// is built (the CLI exits 2 at once instead of solving for minutes).
    #[test]
    fn cap_above_the_work_cap_is_rejected() {
        let ArgError(message) = parse(&args(&["--alpha", "0.45", "--cap", "255"])).unwrap_err();
        assert!(message.starts_with("cap must be at most 80"), "{message}");
        assert_eq!(parse(&args(&["--alpha", "0.2", "--cap", "80"])).unwrap().cap, 80);
        assert!(parse(&args(&["--alpha", "0.2", "--cap", "81"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let ArgError(message) = parse(&args(&["--alpha", "0.2", "--gama", "1"])).unwrap_err();
        assert!(message.starts_with("unknown parameter \"gama\" (allowed: alpha, gamma"));
    }

    #[test]
    fn runs_small_case() {
        let cmd =
            BitcoinCmd { alpha: 0.3, gamma: 0.5, cap: 16, double_spend: false, threshold: false };
        run(&cmd).unwrap();
    }
}
