//! `bvc games` — the emergent-consensus games: `eb` (EB choosing game),
//! `bsig` (block size increasing game), `map` (one `bvc-gamesweep`
//! equilibrium-map cell) and `frontier` (one coalition-frontier shard),
//! plus `--list` for the canonical cluster workload cells.

use bvc_games::{BlockSizeIncreasingGame, EbChoosingGame, MinerGroup};
use bvc_gamesweep::{
    frontier_cells, games_grid_specs, solve_frontier_cell, solve_game_cell, FrontierSpec, GameSpec,
    FRONTIER_METRIC_ARITY, GAME_METRIC_ARITY, NO_CARTEL,
};

use crate::args::{ArgError, Args};

/// Which game to run, with its inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum GamesCmd {
    /// The EB choosing game over the given power distribution.
    Eb {
        /// Miners' power shares (must sum to 1).
        powers: Vec<f64>,
    },
    /// The block size increasing game over `mpb:power` groups.
    Bsig {
        /// `(mpb, power)` pairs (powers must sum to 1).
        groups: Vec<(f64, f64)>,
        /// Pass threshold (0.5 = BU's majority vote; 0.9 ≈ the §6.3
        /// countermeasure).
        threshold: f64,
    },
    /// One equilibrium-map cell (defaults reproduce Figure 4).
    Map {
        /// The fully-resolved cell.
        spec: GameSpec,
        /// Emit metrics as one JSON object.
        json: bool,
    },
    /// One coalition-frontier shard.
    Frontier {
        /// The fully-resolved shard.
        spec: FrontierSpec,
        /// Emit metrics as one JSON object.
        json: bool,
    },
    /// List the canonical `games-grid` / `games-frontier` workload cells.
    List,
}

/// Parses the subcommand (`eb`, `bsig`, `map` or `frontier` as the next
/// positional, or `--list`).
pub fn parse(args: &Args) -> Result<GamesCmd, ArgError> {
    if args.has("list") {
        args.check_names(&[&["list"]])?;
        return Ok(GamesCmd::List);
    }
    let which = args
        .positional()
        .get(1)
        .ok_or_else(|| ArgError("expected a game: `eb`, `bsig`, `map` or `frontier`".into()))?;
    let get = |name: &str| args.value(name);
    let names: &[&[&str]] = match which.as_str() {
        "eb" => &[&EbChoosingGame::PARAMS],
        "map" => &[&GameSpec::PARAMS, &["json"]],
        "frontier" => &[&GameSpec::PARAMS, &FrontierSpec::PARAMS, &["json"]],
        "bsig" => &[&["groups", "threshold"]],
        other => {
            return Err(ArgError(format!(
                "unknown game {other:?}; expected `eb`, `bsig`, `map` or `frontier`"
            )))
        }
    };
    args.check_names(names)?;
    match which.as_str() {
        "eb" => Ok(GamesCmd::Eb { powers: EbChoosingGame::shares_from_params(get)? }),
        "map" => Ok(GamesCmd::Map { spec: GameSpec::from_params(get)?, json: args.has("json") }),
        "frontier" => {
            Ok(GamesCmd::Frontier { spec: FrontierSpec::from_params(get)?, json: args.has("json") })
        }
        _ => {
            let raw = args.get::<String>("groups")?;
            let mut groups = Vec::new();
            for part in raw.split(',') {
                let (mpb, power) = part
                    .split_once(':')
                    .ok_or_else(|| ArgError(format!("expected mpb:power pairs, got {part:?}")))?;
                let mpb: f64 =
                    mpb.trim().parse().map_err(|_| ArgError(format!("invalid MPB {mpb:?}")))?;
                let power: f64 = power
                    .trim()
                    .parse()
                    .map_err(|_| ArgError(format!("invalid power {power:?}")))?;
                groups.push((mpb, power));
            }
            let threshold = args.get_or("threshold", 0.5)?;
            let miner_groups: Vec<MinerGroup> =
                groups.iter().map(|&(mpb, power)| MinerGroup { mpb, power }).collect();
            BlockSizeIncreasingGame::check(&miner_groups, threshold)?;
            Ok(GamesCmd::Bsig { groups, threshold })
        }
    }
}

/// Runs the subcommand.
pub fn run(cmd: &GamesCmd) -> Result<(), String> {
    match cmd {
        GamesCmd::Eb { powers } => {
            let game = EbChoosingGame::new(powers.clone());
            println!("EB choosing game over {powers:?}");
            match game.enumerate_equilibria() {
                Ok(eq) => {
                    println!("pure Nash equilibria: {}", eq.len());
                    for p in &eq {
                        println!("  {p:?}");
                    }
                }
                Err(err) => println!("({err}: enumeration skipped)"),
            }
            match game.minimal_flipping_coalition() {
                Ok(Some(k)) => println!(
                    "minimal flipping coalition: {k} miner(s) can drag everyone to a new EB"
                ),
                Ok(None) => println!("no coalition flip found (check the distribution)"),
                Err(err) => match game.greedy_flipping_coalition() {
                    Some(coalition) => println!(
                        "greedy flipping coalition ({err}): {} miner(s) {coalition:?}",
                        coalition.len()
                    ),
                    None => println!("no greedy coalition flip found ({err})"),
                },
            }
        }
        GamesCmd::Bsig { groups, threshold } => {
            let game = BlockSizeIncreasingGame::with_threshold(
                groups.iter().map(|&(mpb, power)| MinerGroup { mpb, power }).collect(),
                *threshold,
            );
            println!(
                "block size increasing game, {} groups, pass threshold {threshold}",
                game.len()
            );
            let trace = game.play();
            for (i, round) in trace.rounds.iter().enumerate() {
                let yes: Vec<usize> =
                    round.votes.iter().filter(|(_, v)| *v).map(|(g, _)| g + 1).collect();
                println!(
                    "round {}: raise past group {}'s MPB — yes from {:?} — {}",
                    i + 1,
                    round.leaving + 1,
                    yes,
                    if round.passed { "PASSED" } else { "failed, game over" }
                );
            }
            println!(
                "surviving groups: {:?}",
                (trace.terminal..game.len()).map(|i| i + 1).collect::<Vec<_>>()
            );
            println!("utilities: {:?}", game.utilities());
        }
        GamesCmd::Map { spec, json } => {
            if !json {
                println!("running cell {}", spec.key());
            }
            let metrics = solve_game_cell(spec)?;
            if metrics.len() != GAME_METRIC_ARITY {
                return Err(format!(
                    "internal: expected {GAME_METRIC_ARITY} metrics, got {}",
                    metrics.len()
                ));
            }
            let names: [&str; GAME_METRIC_ARITY] = [
                "groups",
                "terminal",
                "rounds",
                "passed_rounds",
                "forced_out_power",
                "nash_equilibria",
                "flip_size",
                "flip_power",
                "perturb_flips",
                "perturb_trials",
            ];
            print_metrics(&spec.key(), &names, &metrics, *json);
        }
        GamesCmd::Frontier { spec, json } => {
            if !json {
                println!("running cell {}", spec.key());
            }
            let metrics = solve_frontier_cell(spec)?;
            if metrics.len() != FRONTIER_METRIC_ARITY {
                return Err(format!(
                    "internal: expected {FRONTIER_METRIC_ARITY} metrics, got {}",
                    metrics.len()
                ));
            }
            let names: [&str; FRONTIER_METRIC_ARITY] = [
                "examined",
                "effective",
                "best_terminal",
                "best_mask",
                "min_cartel_power",
                "base_terminal",
            ];
            print_metrics(&spec.key(), &names, &metrics, *json);
            if !json && metrics[4] >= NO_CARTEL {
                println!("  (no committed coalition in this shard moves the terminal)");
            }
        }
        GamesCmd::List => {
            println!("games-grid cells (sweep workload `games-grid`):");
            for spec in games_grid_specs() {
                println!("  {}", spec.key());
            }
            println!();
            println!("games-frontier cells (sweep workload `games-frontier`):");
            for spec in frontier_cells() {
                println!("  {}", spec.key());
            }
        }
    }
    Ok(())
}

fn print_metrics(key: &str, names: &[&str], metrics: &[f64], json: bool) {
    if json {
        let fields: Vec<String> =
            names.iter().zip(metrics).map(|(name, value)| format!("\"{name}\":{value}")).collect();
        println!("{{\"key\":\"{key}\",{}}}", fields.join(","));
    } else {
        for (name, value) in names.iter().zip(metrics) {
            println!("  {name:<18} {value}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().copied()).unwrap()
    }

    #[test]
    fn parses_eb() {
        let cmd = parse(&args(&["games", "eb", "--powers", "0.2,0.3,0.5"])).unwrap();
        assert_eq!(cmd, GamesCmd::Eb { powers: vec![0.2, 0.3, 0.5] });
    }

    #[test]
    fn parses_bsig_with_threshold() {
        let cmd =
            parse(&args(&["games", "bsig", "--groups", "1:0.1,2:0.4,8:0.5", "--threshold", "0.9"]))
                .unwrap();
        assert_eq!(
            cmd,
            GamesCmd::Bsig { groups: vec![(1.0, 0.1), (2.0, 0.4), (8.0, 0.5)], threshold: 0.9 }
        );
    }

    fn rejection(tokens: &[&str]) -> String {
        match parse(&args(tokens)) {
            Ok(cmd) => panic!("{tokens:?} parsed to {cmd:?}"),
            Err(ArgError(message)) => message,
        }
    }

    /// Each of these used to panic in `BlockSizeIncreasingGame::with_threshold`.
    #[test]
    fn bsig_rejects_powers_not_summing_to_one() {
        let message = rejection(&["games", "bsig", "--groups", "1:0.1,2:0.2"]);
        assert!(message.contains("powers must sum to 1"), "{message}");
    }

    #[test]
    fn bsig_rejects_a_non_positive_power() {
        let message = rejection(&["games", "bsig", "--groups", "1:-0.1,2:1.1"]);
        assert!(message.contains("powers must be positive"), "{message}");
    }

    #[test]
    fn bsig_rejects_a_threshold_outside_the_unit_interval() {
        for threshold in ["1.5", "-0.1"] {
            let message =
                rejection(&["games", "bsig", "--groups", "1:0.5,2:0.5", "--threshold", threshold]);
            assert!(message.contains("pass threshold must be a fraction"), "{message}");
        }
    }

    #[test]
    fn bsig_rejects_repeated_or_non_finite_mpbs() {
        for groups in ["1:0.5,1:0.5", "nan:0.5,1:0.5"] {
            assert!(rejection(&["games", "bsig", "--groups", groups]).contains("MPBs must be"));
        }
    }

    /// These used to panic in `EbChoosingGame::new`; serve answered 400.
    #[test]
    fn eb_rejects_shares_not_summing_to_one() {
        let message = rejection(&["games", "eb", "--powers", "0.2,0.3"]);
        assert!(message.contains("powers must sum to 1"), "{message}");
    }

    #[test]
    fn eb_rejects_a_negative_share() {
        let message = rejection(&["games", "eb", "--powers", "0.5,-0.1,0.6"]);
        assert!(message.contains("powers must be positive and finite"), "{message}");
    }

    #[test]
    fn map_rejects_sub_parameters_of_unchosen_variants() {
        let message = rejection(&["games", "map", "--power", "uniform", "--zipf-s", "1"]);
        assert!(message.contains("zipf-s only applies with power=zipf"), "{message}");
    }

    /// A misspelled flag used to be ignored, leaving its default in place.
    #[test]
    fn unknown_flags_are_rejected() {
        for (tokens, name) in [
            (&["games", "map", "--trails", "5"][..], "trails"),
            (&["games", "frontier", "--size", "1", "--shard-count", "2"], "shard-count"),
            (&["games", "eb", "--power", "0.5,0.5"], "power"),
            (&["games", "bsig", "--groups", "1:0.5,2:0.5", "--treshold", "0.9"], "treshold"),
            (&["games", "--list", "--json"], "json"),
        ] {
            let message = rejection(tokens);
            assert!(message.starts_with(&format!("unknown parameter {name:?}")), "{message}");
        }
    }

    #[test]
    fn rejects_unknown_game() {
        assert!(parse(&args(&["games", "poker"])).is_err());
        assert!(parse(&args(&["games"])).is_err());
        assert!(parse(&args(&["games", "bsig", "--groups", "1-0.5"])).is_err());
    }

    #[test]
    fn runs_both_games() {
        run(&GamesCmd::Eb { powers: vec![0.2, 0.3, 0.5] }).unwrap();
        run(&GamesCmd::Bsig {
            groups: vec![(1.0, 0.1), (2.0, 0.2), (4.0, 0.3), (8.0, 0.4)],
            threshold: 0.5,
        })
        .unwrap();
    }

    #[test]
    fn map_defaults_to_the_figure4_cell() {
        let cmd = parse(&args(&["games", "map"])).unwrap();
        let GamesCmd::Map { spec, json } = &cmd else { panic!("expected map, got {cmd:?}") };
        assert_eq!(*spec, bvc_gamesweep::figure4_spec());
        assert!(!json);
        run(&cmd).unwrap();
        let cmd = parse(&args(&[
            "games",
            "map",
            "--miners",
            "12",
            "--power",
            "measured",
            "--perturb",
            "random",
            "--trials",
            "50",
            "--json",
        ]))
        .unwrap();
        run(&cmd).unwrap();
    }

    #[test]
    fn frontier_needs_size_and_validates() {
        assert!(parse(&args(&["games", "frontier"])).is_err(), "size is required");
        assert!(
            parse(&args(&["games", "frontier", "--size", "1", "--econ", "fee"])).is_err(),
            "frontier cells require ladder economics"
        );
        let cmd = parse(&args(&["games", "frontier", "--size", "1", "--json"])).unwrap();
        run(&cmd).unwrap();
    }

    #[test]
    fn lists_the_canonical_cells() {
        let cmd = parse(&args(&["games", "--list"])).unwrap();
        assert_eq!(cmd, GamesCmd::List);
        run(&cmd).unwrap();
    }
}
