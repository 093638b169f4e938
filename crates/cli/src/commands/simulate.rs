//! `bvc simulate` — run the network simulator: an optional splitter
//! attacker against honest BU miners, with configurable EBs, AD,
//! propagation delay, seed and length.

use bvc_chain::{BuRizunRule, ByteSize, MinerId};
use bvc_journal::param_int;
use bvc_sim::{DelayModel, HonestStrategy, MinerSpec, Simulation, SplitterStrategy};

use crate::args::{parse_f64_list, ArgError, Args};

/// Parsed configuration of the `simulate` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateCmd {
    /// Attacker power (0 disables the attacker).
    pub attacker_power: f64,
    /// Honest miners' power shares (small-EB group first).
    pub honest_powers: Vec<f64>,
    /// How many of the honest miners use the large EB (counted from the
    /// end of `honest_powers`).
    pub large_eb_miners: usize,
    /// The small EB in MB.
    pub eb_small_mb: u64,
    /// The large EB in MB.
    pub eb_large_mb: u64,
    /// Acceptance depth.
    pub ad: u64,
    /// Uniform propagation delay in block intervals.
    pub delay: f64,
    /// Blocks to simulate.
    pub blocks: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Parses the subcommand's flags.
pub fn parse(args: &Args) -> Result<SimulateCmd, ArgError> {
    args.check_names(&[
        &["attacker-power", "honest-powers", "large-eb-miners", "eb-small", "eb-large", "ad"],
        &["delay", "blocks", "seed"],
    ])?;
    let attacker_power: f64 = args.get_or("attacker-power", 0.1)?;
    let honest_powers = parse_f64_list(&args.get_or("honest-powers", "0.45,0.45".to_string())?)?;
    // The engine needs positive honest shares, and drops a zero attacker.
    if !(0.0..1.0).contains(&attacker_power) {
        return Err(ArgError(format!("attacker-power must be in [0, 1), got {attacker_power}")));
    }
    if let Some(p) = honest_powers.iter().find(|p| !(p.is_finite() && **p > 0.0)) {
        return Err(ArgError(format!("honest-powers must be finite and > 0, got {p}")));
    }
    let total: f64 = attacker_power + honest_powers.iter().sum::<f64>();
    if (total - 1.0).abs() > 1e-9 {
        return Err(ArgError(format!(
            "powers must sum to 1 (attacker {attacker_power} + honest {honest_powers:?} = {total})"
        )));
    }
    let large_eb_miners = args.get_or("large-eb-miners", honest_powers.len() / 2)?;
    if large_eb_miners > honest_powers.len() {
        return Err(ArgError("--large-eb-miners exceeds the honest miner count".into()));
    }
    // The same ranges and wording as the scenario schema's `ad` and `delay`.
    let ad = param_int(args.value("ad").unwrap_or("6"), "ad", 1, 24).map_err(ArgError)?;
    let delay: f64 = args.get_or("delay", 0.0)?;
    if !(delay.is_finite() && delay >= 0.0) {
        return Err(ArgError(format!("delay must be finite and >= 0, got {delay}")));
    }
    Ok(SimulateCmd {
        attacker_power,
        honest_powers,
        large_eb_miners,
        eb_small_mb: args.get_or("eb-small", 1u64)?,
        eb_large_mb: args.get_or("eb-large", 16u64)?,
        ad,
        delay,
        blocks: args.get_or("blocks", 10_000usize)?,
        seed: args.get_or("seed", 42u64)?,
    })
}

/// Runs the subcommand.
pub fn run(cmd: &SimulateCmd) -> Result<(), String> {
    let small = ByteSize::mb(cmd.eb_small_mb);
    let large = ByteSize::mb(cmd.eb_large_mb);
    if small >= large {
        return Err("--eb-small must be below --eb-large".into());
    }
    let mut miners: Vec<MinerSpec<BuRizunRule>> = Vec::new();
    let has_attacker = cmd.attacker_power > 0.0;
    if has_attacker {
        miners.push(MinerSpec {
            power: cmd.attacker_power,
            rule: BuRizunRule::new(large, cmd.ad),
            strategy: Box::new(SplitterStrategy::against(large, small, cmd.ad, small)),
        });
    }
    let small_group = cmd.honest_powers.len() - cmd.large_eb_miners;
    for (i, &power) in cmd.honest_powers.iter().enumerate() {
        let eb = if i < small_group { small } else { large };
        miners.push(MinerSpec {
            power,
            rule: BuRizunRule::new(eb, cmd.ad),
            strategy: Box::new(HonestStrategy { mg: small }),
        });
    }

    println!(
        "simulating {} blocks: attacker {}%, honest {:?} ({} large-EB), EBs {}/{}, AD {}, delay {}",
        cmd.blocks,
        cmd.attacker_power * 100.0,
        cmd.honest_powers,
        cmd.large_eb_miners,
        small,
        large,
        cmd.ad,
        cmd.delay
    );
    let delay = if cmd.delay == 0.0 { DelayModel::Zero } else { DelayModel::Constant(cmd.delay) };
    let n = miners.len();
    let mut sim = Simulation::new(miners, delay, cmd.seed);
    let report = sim.run(cmd.blocks);

    let on_chain: usize = report.chain_blocks[n - 1].values().sum();
    println!(
        "blocks mined {}, on final chain {}, orphan rate {:.2}%",
        report.blocks_mined,
        on_chain,
        100.0 * (report.blocks_mined - on_chain) as f64 / report.blocks_mined as f64
    );
    for node in 0..n {
        println!(
            "node {node}: {:>5} reorgs (deepest {}), final-chain share {:.4}",
            report.reorg_count(node),
            report.max_reorg_depth(node),
            report.chain_share(n - 1, MinerId(node))
        );
    }
    let agree = report.final_tips.windows(2).all(|w| w[0] == w[1]);
    println!("final views agree: {agree}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().copied()).unwrap()
    }

    #[test]
    fn parses_defaults() {
        let cmd = parse(&args(&[])).unwrap();
        assert_eq!(cmd.attacker_power, 0.1);
        assert_eq!(cmd.honest_powers, vec![0.45, 0.45]);
        assert_eq!(cmd.large_eb_miners, 1);
        assert_eq!(cmd.blocks, 10_000);
    }

    #[test]
    fn rejects_bad_power_sum() {
        assert!(parse(&args(&["--attacker-power", "0.5"])).is_err());
    }

    #[test]
    fn rejects_negative_delay() {
        let ArgError(message) = parse(&args(&["--delay", "-1"])).unwrap_err();
        assert_eq!(message, "delay must be finite and >= 0, got -1");
    }

    #[test]
    fn rejects_nan_delay() {
        let ArgError(message) = parse(&args(&["--delay", "NaN"])).unwrap_err();
        assert_eq!(message, "delay must be finite and >= 0, got NaN");
    }

    #[test]
    fn rejects_infinite_delay() {
        let ArgError(message) = parse(&args(&["--delay", "inf"])).unwrap_err();
        assert_eq!(message, "delay must be finite and >= 0, got inf");
    }

    #[test]
    fn rejects_ad_zero() {
        let ArgError(message) = parse(&args(&["--ad", "0"])).unwrap_err();
        assert_eq!(message, "ad must be in [1, 24], got 0");
        assert_eq!(parse(&args(&["--ad", "1", "--delay", "0.5"])).unwrap().ad, 1);
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let ArgError(message) = parse(&args(&["--attacker-powr", "0.2"])).unwrap_err();
        assert!(message.starts_with("unknown parameter \"attacker-powr\""), "{message}");
    }

    #[test]
    fn runs_small_simulation() {
        let mut cmd = parse(&args(&[])).unwrap();
        cmd.blocks = 500;
        run(&cmd).unwrap();
    }
}
