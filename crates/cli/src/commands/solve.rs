//! `bvc solve` — solve the BU attack MDP for one parameter cell.

use bvc_bu::{summarize, AttackConfig, AttackModel, SolveOptions, Utility};

use crate::args::{ArgError, Args};

/// Parsed configuration of the `solve` subcommand (kept separate from the
/// execution so parsing is unit-testable).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveCmd {
    /// Full attack configuration.
    pub config: AttackConfig,
    /// Whether to print the phase-1 action map.
    pub show_policy: bool,
}

/// Parses the subcommand's flags.
pub fn parse(args: &Args) -> Result<SolveCmd, ArgError> {
    args.check_names(&[&AttackConfig::PARAMS, &["show-policy"]])?;
    Ok(SolveCmd { config: parse_attack_config(args)?, show_policy: args.has("show-policy") })
}

/// Reads the model-defining flags shared by `bvc solve` and `bvc audit`
/// through the table-cell schema ([`AttackConfig::from_params`]): the
/// names, defaults and ranges serve applies to the same cells.
pub fn parse_attack_config(args: &Args) -> Result<AttackConfig, ArgError> {
    Ok(AttackConfig::from_params(|name| args.value(name))?.0)
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
    let sol = model.optimal(&SolveOptions::default()).map_err(|e| e.to_string())?;
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
    use bvc_bu::{IncentiveModel, Setting};

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().copied()).unwrap()
    }

    #[test]
    fn parses_full_flag_set() {
        let cmd = parse(&args(&[
            "--alpha",
            "0.1",
            "--ratio",
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
        ]))
        .unwrap();
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
            assert!(rejection(&["--alpha", alpha]).contains("alpha must be"));
        }
    }

    /// `--ad 1` (and `--ad-carol 1`) used to panic in
    /// `AttackConfig::validate`; both depths take the schema's range.
    #[test]
    fn acceptance_depth_below_two_is_rejected() {
        assert!(rejection(&["--alpha", "0.2", "--ad", "1"]).contains("ad must be"));
        assert!(rejection(&["--alpha", "0.2", "--ad-carol", "1"]).contains("ad-carol must be"));
        assert!(rejection(&["--alpha", "0.2", "--ad", "25"]).contains("ad must be"));
    }

    /// `--setting 2 --gate 0` used to panic in `AttackConfig::validate`.
    #[test]
    fn zero_gate_is_rejected() {
        let message = rejection(&["--alpha", "0.2", "--setting", "2", "--gate", "0"]);
        assert!(message.contains("gate must be"), "{message}");
    }

    #[test]
    fn double_spend_terms_take_serve_ranges() {
        let ds = ["--alpha", "0.2", "--incentive", "double-spend"];
        for (flag, value, needle) in [
            ("--confirmations", "0", "confirmations must be"),
            ("--confirmations", "17", "confirmations must be"),
            ("--rds", "-1", "rds must be"),
            ("--rds", "inf", "rds must be"),
            ("--rds", "NaN", "rds must be"),
        ] {
            let tokens: Vec<&str> = ds.iter().copied().chain([flag, value]).collect();
            assert!(rejection(&tokens).contains(needle), "{flag} {value}");
        }
    }

    /// A misspelled or renamed flag used to be ignored, solving the default
    /// cell; it is rejected in serve's wording, naming the allowed flags.
    #[test]
    fn unknown_flags_are_rejected() {
        for flag in ["--ad-carrol", "--beta-gamma"] {
            let message = rejection(&["--alpha", "0.1", flag, "20"]);
            let name = flag.trim_start_matches("--");
            assert!(message.starts_with(&format!("unknown parameter {name:?} (allowed: ")));
            assert!(message.ends_with("show-policy)"), "{message}");
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

    /// Whether `message` names the parameter `name` as a whole word.
    fn names(message: &str, name: &str) -> bool {
        message.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).any(|w| w == name)
    }

    /// The table-cell contract: one table of parameters, read by serve's
    /// `GET /v1/table{2,3,4}` query parser (the route fixing `incentive`),
    /// by its `POST /v1/solve` body parser and by `bvc solve`'s flags. All
    /// three must give the same config with bit-equal alpha, or all three
    /// must reject the row naming the same parameter.
    #[test]
    fn table_cell_parsers_agree() {
        use bvc_journal::json::FlatJson;
        use bvc_serve::{parse_cell_request, Request};

        let cell = |alpha: f64, ratio, setting, incentive| {
            AttackConfig::with_ratio(alpha, ratio, setting, incentive)
        };
        let compliant = IncentiveModel::CompliantProfitDriven;
        let ds = |rds, threshold| IncentiveModel::NonCompliantProfitDriven { rds, threshold };
        let vandal = IncentiveModel::NonProfitDriven;
        let shaped = AttackConfig {
            gate_blocks: 24,
            ..cell(0.333, (3, 2), Setting::Two, compliant).with_ads(4, 20)
        };
        // (parameters, the config they name or the parameter they are rejected for)
        type Row = (&'static [(&'static str, &'static str)], Result<AttackConfig, &'static str>);
        let rows: Vec<Row> = vec![
            (&[("alpha", "0.25")], Ok(cell(0.25, (1, 1), Setting::One, compliant))),
            (
                &[("alpha", "0.333"), ("ratio", "3:2"), ("setting", "2"), ("ad", "4")],
                Ok(cell(0.333, (3, 2), Setting::Two, compliant).with_ads(4, 4)),
            ),
            (
                &[
                    ("alpha", "0.333"),
                    ("ratio", "3:2"),
                    ("setting", "2"),
                    ("ad", "4"),
                    ("ad-carol", "20"),
                    ("gate", "24"),
                ],
                Ok(shaped),
            ),
            (
                &[("incentive", "compliant"), ("alpha", "0.1"), ("eb", "64")],
                Ok(cell(0.1, (1, 64), Setting::One, compliant)),
            ),
            (
                &[("incentive", "double-spend"), ("alpha", "0.1")],
                Ok(cell(0.1, (1, 1), Setting::One, ds(10.0, 3))),
            ),
            (
                &[
                    ("incentive", "double-spend"),
                    ("alpha", "0.025"),
                    ("ratio", "4:1"),
                    ("rds", "5"),
                    ("confirmations", "3"),
                ],
                Ok(cell(0.025, (4, 1), Setting::One, ds(5.0, 2))),
            ),
            (
                &[("incentive", "double-spend"), ("alpha", "0.49999999999999994"), ("rds", "1e6")],
                Ok(cell(0.49999999999999994, (1, 1), Setting::One, ds(1e6, 3))),
            ),
            (&[("incentive", "vandal")], Ok(cell(0.01, (1, 1), Setting::One, vandal))),
            (
                &[("incentive", "vandal"), ("alpha", "0.3"), ("eb", "2")],
                Ok(cell(0.3, (1, 2), Setting::One, vandal)),
            ),
            (&[], Err("alpha")),
            (&[("incentive", "double-spend")], Err("alpha")),
            (&[("alpha", "0")], Err("alpha")),
            (&[("alpha", "-0")], Err("alpha")),
            (&[("alpha", "0.5")], Err("alpha")),
            (&[("alpha", "NaN")], Err("alpha")),
            (&[("alpha", "abc")], Err("alpha")),
            (&[("alpha", "0.2"), ("ratio", "1:2"), ("eb", "2")], Err("ratio")),
            (&[("alpha", "0.2"), ("ratio", "0:1")], Err("ratio")),
            (&[("alpha", "0.2"), ("ratio", "65:1")], Err("ratio")),
            (&[("alpha", "0.2"), ("eb", "65")], Err("eb")),
            (&[("alpha", "0.2"), ("eb", "2.5")], Err("eb")),
            (&[("alpha", "0.2"), ("setting", "3")], Err("setting")),
            (&[("alpha", "0.2"), ("ad", "1")], Err("ad")),
            (&[("alpha", "0.2"), ("ad", "25")], Err("ad")),
            (&[("alpha", "0.2"), ("ad-carol", "25")], Err("ad-carol")),
            (&[("alpha", "0.2"), ("gate", "0")], Err("gate")),
            (&[("alpha", "0.2"), ("gate", "4097")], Err("gate")),
            (&[("alpha", "0.2"), ("rds", "5")], Err("rds")),
            (&[("incentive", "vandal"), ("confirmations", "4")], Err("confirmations")),
            (&[("incentive", "double-spend"), ("alpha", "0.2"), ("rds", "NaN")], Err("rds")),
            (&[("incentive", "double-spend"), ("alpha", "0.2"), ("rds", "inf")], Err("rds")),
            (&[("incentive", "double-spend"), ("alpha", "0.2"), ("rds", "1e308")], Err("rds")),
            (&[("incentive", "double-spend"), ("alpha", "0.2"), ("rds", "1e400")], Err("rds")),
            (&[("incentive", "double-spend"), ("alpha", "0.2"), ("rds", "-1")], Err("rds")),
            (
                &[("incentive", "double-spend"), ("alpha", "0.2"), ("confirmations", "0")],
                Err("confirmations"),
            ),
            (
                &[("incentive", "double-spend"), ("alpha", "0.2"), ("confirmations", "17")],
                Err("confirmations"),
            ),
            (&[("incentive", "bogus"), ("alpha", "0.2")], Err("incentive")),
        ];

        let request = |method: &str, path: &str, query, body: String| Request {
            method: method.to_string(),
            path: path.to_string(),
            query,
            headers: Vec::new(),
            body: body.into_bytes(),
            wants_close: false,
        };
        for (params, expected) in rows {
            // GET: the incentive picks the route; one no route fixes stays
            // in the query, where it is an unknown parameter.
            let incentive = params.iter().find(|(k, _)| *k == "incentive").map(|(_, v)| *v);
            let (path, fixed) = match incentive {
                None | Some("compliant") => ("/v1/table2", true),
                Some("double-spend") => ("/v1/table3", true),
                Some("vandal") => ("/v1/table4", true),
                Some(_) => ("/v1/table2", false),
            };
            let query = params
                .iter()
                .filter(|(k, _)| !fixed || *k != "incentive")
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect();
            let get = parse_cell_request(&request("GET", path, query, String::new()));
            // POST: a value that is a JSON number literal goes in raw.
            let fields: Vec<String> = params
                .iter()
                .map(|(k, v)| match FlatJson::parse(&format!("{{\"x\":{v}}}")) {
                    Ok(_) => format!("\"{k}\":{v}"),
                    Err(_) => format!("\"{k}\":\"{v}\""),
                })
                .collect();
            let body = format!("{{{}}}", fields.join(","));
            let post = parse_cell_request(&request("POST", "/v1/solve", Vec::new(), body));
            // CLI: `bvc solve --name=value ...`.
            let flags = params.iter().map(|(k, v)| format!("--{k}={v}"));
            let cli = parse(&Args::parse(flags).unwrap()).map(|cmd| cmd.config).map_err(|e| e.0);

            match expected {
                Ok(want) => {
                    for (front, got) in [("GET", &get), ("POST", &post), ("CLI", &cli)] {
                        let got =
                            got.as_ref().unwrap_or_else(|e| panic!("{front} {params:?}: {e}"));
                        assert_eq!(got, &want, "{front} {params:?}");
                        assert_eq!(got.alpha.to_bits(), want.alpha.to_bits(), "{front} {params:?}");
                    }
                }
                Err(name) => {
                    for (front, got) in [("GET", &get), ("POST", &post), ("CLI", &cli)] {
                        let message = got.as_ref().expect_err(&format!("{front} {params:?}"));
                        assert!(names(message, name), "{front} {params:?}: {message}");
                    }
                    // Where the route can carry the row, the wording is one.
                    assert_eq!(post, cli, "{params:?}");
                    if fixed {
                        assert_eq!(get, cli, "{params:?}");
                    }
                }
            }
        }
    }

    /// End-to-end smoke test of the runner on a tiny cell.
    #[test]
    fn runs_small_cell() {
        let mut cmd = parse(&args(&["--alpha", "0.2", "--ad", "3"])).unwrap();
        cmd.show_policy = true;
        run(&cmd).unwrap();
    }
}
