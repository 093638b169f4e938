//! The cell-kind commands — `bvc scenario`, `bvc games map` and `bvc games
//! frontier` — as one runner generic over [`Cell`]: flags go through the
//! kind's schema, the cell solves through the kind's solver, and its
//! metrics print under the kind's names (the ones serve's routes report).
//! `--list` prints the canonical cells of the kind's sweep workloads.

use bvc_bu::SolveOptions;
use bvc_cluster::workload;
use bvc_journal::json::JsonObject;
use bvc_journal::Cell;

use crate::args::Args;

/// The workloads `bvc scenario --list` prints.
pub const SCENARIO_WORKLOADS: &[&str] = &["scenario-grid", "scenario-crossval"];

/// The workloads `bvc games --list` prints.
pub const GAME_WORKLOADS: &[&str] = &["games-grid", "games-frontier"];

/// Runs `bvc <kind> [flags]`: the flags go through the kind's schema
/// ([`Cell::from_params`]), the cell solves and its metrics print, as one
/// JSON object with `--json`. `--list` prints the canonical cells of
/// `workloads` instead.
pub fn command<C: Cell>(args: &Args, workloads: &[&str]) -> Result<(), String> {
    if args.has("list") {
        args.check_names(&[&["list"]])?;
        for (i, name) in workloads.iter().enumerate() {
            let wl = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
            if i > 0 {
                println!();
            }
            println!("{name} cells (sweep workload `{name}`):");
            for job in &wl.jobs {
                println!("  {}", job.key());
            }
        }
        return Ok(());
    }
    args.check_names(&[C::PARAMS, &["json"]])?;
    let spec = C::from_params(|name| args.value(name))?;
    let json = args.has("json");
    let key = spec.key();
    if !json {
        println!("running cell {key}");
    }
    let vals = spec.solve(&SolveOptions::default()).map_err(|e| e.to_string())?;
    println!("{}", render(&spec, &key, &vals, json)?);
    Ok(())
}

/// The output of one solved cell: `{"key":…,<metrics>}` with `json`,
/// otherwise one `name value` line per metric.
pub fn render<C: Cell>(spec: &C, key: &str, vals: &[f64], json: bool) -> Result<String, String> {
    let metrics = spec
        .named_metrics(vals)
        .ok_or_else(|| format!("internal: expected {} metrics, got {}", C::ARITY, vals.len()))?;
    if json {
        return Ok(JsonObject::new().str("key", key).values(&metrics).finish());
    }
    let lines: Vec<String> =
        metrics.iter().map(|(name, value)| format!("  {name:<18} {value}")).collect();
    Ok(lines.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_gamesweep::{FrontierSpec, GameSpec};
    use bvc_journal::json::FlatJson;
    use bvc_scenario::ScenarioSpec;
    use bvc_serve::{Request, ServeConfig, Service};

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().copied()).unwrap()
    }

    fn scenario(tokens: &[&str]) -> Result<(), String> {
        command::<ScenarioSpec>(&args(tokens), SCENARIO_WORKLOADS)
    }

    #[test]
    fn rejects_invalid_specs_and_enums() {
        assert!(scenario(&["--nodes", "1"]).is_err());
        assert!(scenario(&["--hash", "bogus"]).is_err());
        assert!(scenario(&["--attacker", "lead-k"]).is_err(), "lead-k needs --alpha");
        // Serve's sub-parameter rule: zipf-s without hash=zipf is a typo.
        assert!(scenario(&["--zipf-s", "1.2"]).is_err());
        let map = command::<GameSpec>(&args(&["--power", "uniform", "--zipf-s", "1"]), &[]);
        let message = map.unwrap_err();
        assert!(message.contains("zipf-s only applies with power=zipf"), "{message}");
        let frontier = |tokens: &[&str]| command::<FrontierSpec>(&args(tokens), &[]);
        assert!(frontier(&[]).is_err(), "size is required");
        assert!(frontier(&["--size", "1", "--econ", "fee"]).is_err(), "ladder economics only");
    }

    /// A misspelled flag used to be ignored, leaving its default in place.
    #[test]
    fn unknown_flags_are_rejected() {
        let message = scenario(&["--hash", "zipf", "--zipff-s", "2"]).unwrap_err();
        assert!(message.starts_with("unknown parameter \"zipff-s\" (allowed: nodes"), "{message}");
        let message = scenario(&["--list", "--json"]).unwrap_err();
        assert!(message.starts_with("unknown parameter \"json\""), "{message}");
    }

    #[test]
    fn runs_and_lists_each_kind() {
        scenario(&["--nodes", "6", "--blocks", "80", "--seed", "11"]).unwrap();
        scenario(&["--list"]).unwrap();
        command::<GameSpec>(&args(&[]), &[]).unwrap();
        let tokens = ["--miners", "12", "--power", "measured", "--perturb", "random", "--json"];
        command::<GameSpec>(&args(&tokens), &[]).unwrap();
        command::<FrontierSpec>(&args(&["--size", "1", "--json"]), &[]).unwrap();
        command::<GameSpec>(&args(&["--list"]), GAME_WORKLOADS).unwrap();
    }

    /// Serve's `metrics` object and `bvc … --json` name the same metrics in
    /// the same order, for every cell kind: both read the kind's one
    /// metric list. The frontier rows cover a shard with an improving
    /// cartel and one without, whose best-coalition metrics both front
    /// ends leave out.
    #[test]
    fn cell_metric_keys_agree() {
        let service = Service::new(&ServeConfig::default());
        let cases = [
            ("/v1/scenario", "nodes=6&blocks=80&seed=11", 6),
            ("/v1/scenario", "attacker=mdp&alpha=0.25&nodes=12&blocks=2000", 6),
            ("/v1/games/map", "", 10),
            ("/v1/games/frontier", "size=1", 6),
            ("/v1/games/frontier", "size=1&threshold=0.9", 3),
        ];
        for (path, query, count) in cases {
            let pairs = bvc_serve::http::parse_query(query);
            let get = Request {
                method: "GET".to_string(),
                path: path.to_string(),
                query: pairs.clone(),
                headers: Vec::new(),
                body: Vec::new(),
                wants_close: false,
            };
            let resp = service.handle(&get);
            assert_eq!(resp.status, 200, "{path}?{query}");
            let body = String::from_utf8(resp.body).unwrap();
            let start = body.find("\"metrics\":").unwrap() + "\"metrics\":".len();
            let end = start + body[start..].find('}').unwrap() + 1;
            let serve = FlatJson::parse(&body[start..end]).unwrap();
            let serve_keys: Vec<&str> = serve.fields().map(|(name, _)| name).collect();

            let mut tokens = Vec::new();
            for (name, value) in &pairs {
                tokens.push(format!("--{name}"));
                tokens.push(value.clone());
            }
            let flags = Args::parse(tokens).unwrap();
            let cli = match path {
                "/v1/scenario" => cli_json::<ScenarioSpec>(&flags),
                "/v1/games/map" => cli_json::<GameSpec>(&flags),
                _ => cli_json::<FrontierSpec>(&flags),
            };
            let cli = FlatJson::parse(&cli).unwrap();
            let cli_keys: Vec<&str> = cli.fields().map(|(name, _)| name).skip(1).collect();
            assert_eq!(serve_keys, cli_keys, "{path}?{query}");
            assert_eq!(serve_keys.len(), count, "{path}?{query}");
        }
    }

    /// What `bvc … --json` prints for these flags.
    fn cli_json<C: Cell>(flags: &Args) -> String {
        let spec = C::from_params(|name| flags.value(name)).unwrap();
        let vals = spec.solve(&SolveOptions::default()).unwrap();
        render(&spec, &spec.key(), &vals, true).unwrap()
    }
}
