//! `bvc scenario` — run one `bvc-scenario` network cell from the command
//! line: an N-node BU network with a chosen hash-rate distribution,
//! `EB`/`AD` assignment, delay model, acceptance rule and attacker, or
//! list the canonical grid/cross-validation cells the cluster workloads
//! expose.

use bvc_bu::SolveOptions;
use bvc_scenario::{
    crossval_cells, grid_specs, run_scenario, AttackerSpec, ScenarioSpec, METRIC_ARITY,
};

use crate::args::{ArgError, Args};

/// Parsed configuration of the `scenario` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioCmd {
    /// The fully-resolved cell to run (`None` when only listing).
    pub spec: Option<ScenarioSpec>,
    /// List the canonical cells instead of running (`--list`).
    pub list: bool,
    /// Emit the metrics as one JSON object (`--json`).
    pub json: bool,
}

/// Parses the subcommand's flags into a validated [`ScenarioSpec`]
/// through the scenario schema ([`ScenarioSpec::from_params`]).
pub fn parse(args: &Args) -> Result<ScenarioCmd, ArgError> {
    args.check_names(&[&ScenarioSpec::PARAMS, &["list", "json"]])?;
    let list = args.has("list");
    let json = args.has("json");
    if list {
        return Ok(ScenarioCmd { spec: None, list, json });
    }

    let spec = ScenarioSpec::from_params(|name| args.value(name))?;
    Ok(ScenarioCmd { spec: Some(spec), list, json })
}

/// Runs the subcommand.
pub fn run(cmd: &ScenarioCmd) -> Result<(), String> {
    if cmd.list {
        println!("scenario-grid cells (sweep workload `scenario-grid`):");
        for spec in grid_specs() {
            println!("  {}", spec.key());
        }
        println!();
        println!("scenario-crossval cells (sweep workload `scenario-crossval`):");
        for spec in crossval_cells() {
            println!("  {}", spec.key());
        }
        return Ok(());
    }
    let Some(spec) = &cmd.spec else {
        return Err("nothing to do (internal: no spec and no --list)".to_string());
    };
    if !cmd.json {
        println!("running cell {}", spec.key());
    }
    let metrics = run_scenario(spec, &SolveOptions::default()).map_err(|e| e.to_string())?;
    if metrics.len() != METRIC_ARITY {
        return Err(format!("internal: expected {METRIC_ARITY} metrics, got {}", metrics.len()));
    }
    let names: [&str; METRIC_ARITY] = if matches!(spec.attacker, AttackerSpec::Mdp { .. }) {
        ["u1_sim", "u1_exact", "abs_diff", "attacker_blocks", "compliant_blocks", "steps"]
    } else {
        [
            "blocks_mined",
            "reorgs",
            "max_reorg_depth",
            "miner0_share",
            "distinct_tips",
            "sim_duration",
        ]
    };
    if cmd.json {
        let fields: Vec<String> =
            names.iter().zip(&metrics).map(|(name, value)| format!("\"{name}\":{value}")).collect();
        println!("{{\"key\":\"{}\",{}}}", spec.key(), fields.join(","));
    } else {
        for (name, value) in names.iter().zip(&metrics) {
            println!("  {name:<18} {value}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_scenario::{RuleKind, GRID_SEED};

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().copied()).unwrap()
    }

    #[test]
    fn parses_defaults_to_the_grid_base_cell() {
        let cmd = parse(&args(&[])).unwrap();
        let spec = cmd.spec.unwrap();
        assert_eq!(spec.nodes, 40);
        assert_eq!(spec.blocks, 1_500);
        assert_eq!(spec.seed, GRID_SEED);
        assert_eq!(spec.rule, RuleKind::Rizun { sticky: true });
        assert_eq!(spec.attacker, AttackerSpec::Honest);
    }

    #[test]
    fn mdp_attacker_defaults_to_the_replay_rule() {
        let cmd = parse(&args(&[
            "--attacker",
            "mdp",
            "--alpha",
            "0.25",
            "--nodes",
            "12",
            "--blocks",
            "2000",
        ]))
        .unwrap();
        let spec = cmd.spec.unwrap();
        assert_eq!(spec.rule, RuleKind::Rizun { sticky: false });
        assert_eq!(spec.attacker, AttackerSpec::Mdp { alpha: 0.25, ratio: (1, 1) });
    }

    #[test]
    fn rejects_invalid_specs_and_enums() {
        assert!(parse(&args(&["--nodes", "1"])).is_err());
        assert!(parse(&args(&["--hash", "bogus"])).is_err());
        assert!(parse(&args(&["--attacker", "lead-k"])).is_err(), "lead-k needs --alpha");
        // Serve's sub-parameter rule: zipf-s without hash=zipf is a typo.
        assert!(parse(&args(&["--zipf-s", "1.2"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let message = parse(&args(&["--hash", "zipf", "--zipff-s", "2"])).unwrap_err().0;
        assert!(message.starts_with("unknown parameter \"zipff-s\" (allowed: nodes"), "{message}");
    }

    #[test]
    fn runs_a_small_cell() {
        let cmd = parse(&args(&["--nodes", "6", "--blocks", "80", "--seed", "11"])).unwrap();
        run(&cmd).unwrap();
    }

    #[test]
    fn lists_the_canonical_cells() {
        let cmd = parse(&args(&["--list"])).unwrap();
        assert!(cmd.list && cmd.spec.is_none());
        run(&cmd).unwrap();
    }
}
