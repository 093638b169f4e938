//! The serve API: request routing, parameter parsing, cell-key
//! construction (bit-compatible with the sweep binaries' journals), and
//! the mapping from structured solver errors to HTTP statuses.
//!
//! | route | answer |
//! |---|---|
//! | `GET /healthz` | liveness + cache size |
//! | `GET /metrics` | counters and latency histogram (`?format=json`) |
//! | `GET /v1/table2` | one Table 2 cell (`u1`) by `alpha`/`eb`/`ratio`/... |
//! | `GET /v1/table3` | one Table 3 cell (`u2`), plus `rds`/`confirmations` |
//! | `GET /v1/table4` | one Table 4 cell (`u3`) |
//! | `GET /v1/policy` | decoded optimal-policy summary for a cell |
//! | `GET /v1/scenario` | one BU network scenario cell (`bvc-scenario` metrics) |
//! | `GET /v1/games/map` | one §5 equilibrium-map cell (`bvc-gamesweep` metrics) |
//! | `GET /v1/games/frontier` | one coalition-frontier shard (committed cartels) |
//! | `GET /v1/games/eb` | EB choosing game analysis for explicit power shares |
//! | `POST /v1/solve` | solve a JSON model spec (incl. audit demo models) |
//! | `POST /admin/shutdown` | request a graceful drain |
//!
//! Error statuses are structural, not ad hoc: malformed input → 400,
//! audit-gate refusal ([`MdpError::AuditFailed`]) → 422 naming the failed
//! check, deadline/cancellation → 503, admission shed → 429 with
//! `Retry-After`, solver bug → 500.

use std::borrow::Cow;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bvc_bu::{Action, AttackConfig, AttackModel, SolveOptions};
use bvc_games::EbChoosingGame;
use bvc_gamesweep::{
    frontier_config_token, grid_config_token, solve_frontier_cell, solve_game_cell, FrontierSpec,
    GameSpec, PerturbSpec, FRONTIER_METRIC_ARITY, GAME_METRIC_ARITY, NO_CARTEL,
};
use bvc_journal::{cell_fingerprint, check_param_names};
use bvc_mdp::audit::{demo_multichain, demo_unreachable};
use bvc_mdp::{audit_compiled, AuditOptions, MdpError, SolveBudget};
use bvc_scenario::{run_scenario, AttackerSpec, ScenarioSpec, METRIC_ARITY};

use crate::cache::{CachedCell, Fetched, SolveCache, SolveFailure};
use crate::http::{self, HttpConfig, Request, Response, Server};
use crate::json::{FlatJson, JsonObject};
use crate::metrics::Metrics;

/// Configuration of one serve instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// HTTP worker threads.
    pub workers: usize,
    /// Cache capacity in cells.
    pub cache_capacity: usize,
    /// Max concurrent cold-path (uncached) requests before shedding 429.
    pub queue_cap: usize,
    /// Per-request solve deadline (`None` = unlimited); deadline misses
    /// answer 503 without poisoning the cache.
    pub solve_deadline: Option<Duration>,
    /// Keep-alive idle / torn-request read deadline.
    pub read_timeout: Duration,
    /// Sweep journals to preload: `(table name, journal path)` pairs.
    pub preload: Vec<(String, PathBuf)>,
    /// Worker threads inside each cold solve's Bellman sweeps. Results are
    /// bit-identical for every value, so this never enters cache keys or
    /// [`config_token`]. Useful when the server handles few concurrent
    /// cold solves on a many-core box; leave at 1 when `workers` already
    /// saturates the machine (thread-budget arbitration, see DESIGN.md).
    pub solve_threads: usize,
    /// Base retry hint on 429 sheds (`--retry-after-ms`). Each shed draws
    /// a jittered value uniform in `[base/2, base]` so synchronized
    /// clients do not retry in lockstep; it is emitted as a standard
    /// whole-second `retry-after` plus a precise `retry-after-ms`.
    pub retry_after: Duration,
    /// Seed for the shed-jitter stream (deterministic for tests).
    pub retry_jitter_seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            cache_capacity: 4096,
            queue_cap: 8,
            solve_deadline: Some(Duration::from_secs(30)),
            read_timeout: Duration::from_secs(5),
            preload: Vec::new(),
            solve_threads: 1,
            retry_after: Duration::from_secs(1),
            retry_jitter_seed: 0x7e7e_a11e,
        }
    }
}

/// A published table a request addresses: its name and the `incentive` it
/// fixes (the incentive's utility is the table's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Table {
    name: &'static str,
    incentive: &'static str,
}

impl Table {
    const T2: Table = Table { name: "table2", incentive: "compliant" };
    const T3: Table = Table { name: "table3", incentive: "double-spend" };
    const T4: Table = Table { name: "table4", incentive: "vandal" };
}

/// A fully-resolved solve request: the model config (whose incentive picks
/// the objective) and the journal-compatible cache key.
#[derive(Debug, Clone)]
struct CellSpec {
    cfg: AttackConfig,
    key: String,
    token: String,
    audit: bool,
}

/// The cache-key config token for one table: the table name prefixed onto
/// the default solver fingerprint token, exactly covering every knob that
/// can change a served value. Table 2 and Table 3 cells can share key
/// strings, so the table prefix keeps their fingerprints disjoint.
pub fn config_token(table: &str) -> String {
    format!("{table};{}", SolveOptions::default().fingerprint_token())
}

/// The serve service: cache, metrics, and the shutdown latch.
pub struct Service {
    cache: SolveCache,
    /// Exported counters (public for tests and the load generator).
    pub metrics: Metrics,
    solve_deadline: Option<Duration>,
    solve_threads: usize,
    retry_after: Duration,
    retry_jitter: Mutex<bvc_chaos::SplitMix64>,
    shutdown: (Mutex<bool>, Condvar),
}

impl Service {
    /// Builds a service (cache empty; preloading is done by [`start`]).
    pub fn new(config: &ServeConfig) -> Service {
        Service {
            cache: SolveCache::new(config.cache_capacity, 8, config.queue_cap),
            metrics: Metrics::new(),
            solve_deadline: config.solve_deadline,
            solve_threads: config.solve_threads.max(1),
            retry_after: config.retry_after,
            retry_jitter: Mutex::new(bvc_chaos::SplitMix64::new(config.retry_jitter_seed)),
            shutdown: (Mutex::new(false), Condvar::new()),
        }
    }

    /// Stamps a shed response with jittered retry hints: `retry-after`
    /// (whole seconds, ceiling, at least 1) for standard clients and
    /// `retry-after-ms` with the precise draw from `[base/2, base]`.
    fn shed_retry_headers(&self, resp: Response) -> Response {
        let base_ms = (self.retry_after.as_millis() as u64).max(2);
        let jitter =
            self.retry_jitter.lock().unwrap_or_else(|e| e.into_inner()).next_range(base_ms / 2 + 1);
        let ms = base_ms / 2 + jitter;
        let secs = ms.div_ceil(1_000).max(1);
        resp.with_header("retry-after", &secs.to_string())
            .with_header("retry-after-ms", &ms.to_string())
    }

    /// The solve cache (public for preloading and tests).
    pub fn cache(&self) -> &SolveCache {
        &self.cache
    }

    /// Whether `POST /admin/shutdown` has been called.
    pub fn shutdown_requested(&self) -> bool {
        *self.shutdown.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until a shutdown is requested.
    pub fn wait_for_shutdown(&self) {
        let (lock, cv) = &self.shutdown;
        let mut requested = lock.lock().unwrap_or_else(|e| e.into_inner());
        while !*requested {
            requested = cv.wait(requested).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn request_shutdown(&self) {
        let (lock, cv) = &self.shutdown;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
    }

    /// Routes one request, recording metrics.
    pub fn handle(&self, req: &Request) -> Response {
        let start = Instant::now();
        let resp = self.route(req);
        self.metrics.observe(resp.status, start.elapsed());
        resp
    }

    fn route(&self, req: &Request) -> Response {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => Response::json(
                200,
                JsonObject::new()
                    .str("status", "ok")
                    .num("uptime_s", self.metrics.uptime_s())
                    .int("cached_cells", self.cache.len() as u64)
                    .finish(),
            ),
            ("GET", "/metrics") => match req.query_param("format") {
                Some("json") => Response::json(200, self.metrics.render_json()),
                _ => Response::text(200, self.metrics.render_text()),
            },
            ("GET", "/v1/table2") => self.table_route(req, Table::T2),
            ("GET", "/v1/table3") => self.table_route(req, Table::T3),
            ("GET", "/v1/table4") => self.table_route(req, Table::T4),
            ("GET", "/v1/policy") => self.policy_route(req),
            ("GET", "/v1/scenario") => self.scenario_route(req),
            ("GET", "/v1/games/map") => self.games_map_route(req),
            ("GET", "/v1/games/frontier") => self.games_frontier_route(req),
            ("GET", "/v1/games/eb") => self.games_eb_route(req),
            ("POST", "/v1/solve") => self.solve_route(req),
            ("POST", "/admin/shutdown") => {
                self.request_shutdown();
                Response::json(200, "{\"status\":\"draining\"}".to_string())
            }
            (
                _,
                "/healthz" | "/metrics" | "/v1/table2" | "/v1/table3" | "/v1/table4" | "/v1/policy"
                | "/v1/scenario" | "/v1/games/map" | "/v1/games/frontier" | "/v1/games/eb"
                | "/v1/solve" | "/admin/shutdown",
            ) => Response::json(
                405,
                JsonObject::new()
                    .str("error", "method_not_allowed")
                    .str("method", &req.method)
                    .str("path", &req.path)
                    .finish(),
            ),
            _ => Response::json(
                404,
                JsonObject::new().str("error", "not_found").str("path", &req.path).finish(),
            ),
        }
    }

    // --- the cached-cell path ---

    /// The one cached-cell path of every solving route. Fingerprints
    /// `key` under `token`, then serves the cached cell or runs `solve`
    /// under single-flight and admission. `solve` returns the values and
    /// the model state count (0 when there is no model), and its wall time
    /// is recorded in the cell. Hits, misses, flight joins, solve errors
    /// and sheds are counted. A hit or a miss renders through
    /// `render(fp, cell, cache, leader)`, where `cache` is `"hit"` or
    /// `"miss"` and `leader` is `Some` on a miss. A failure maps through
    /// [`failure_response`]; a shed answers 429 with jittered retry hints.
    fn cached_cell(
        &self,
        key: &str,
        token: &str,
        solve: impl FnOnce() -> Result<(Vec<f64>, usize), MdpError>,
        render: impl FnOnce(u64, &CachedCell, &str, Option<bool>) -> Response,
    ) -> Response {
        let fp = cell_fingerprint(key, token);
        let fetched = self.cache.get_or_solve(fp, || {
            let started = Instant::now();
            let (vals, states) = solve()?;
            Ok(CachedCell {
                vals,
                solve_ms: started.elapsed().as_secs_f64() * 1e3,
                states,
                preloaded: false,
            })
        });
        match fetched {
            Fetched::Hit(cell) => {
                self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic counter
                render(fp, &cell, "hit", None)
            }
            Fetched::Solved { cell, leader } => {
                self.note_miss(leader, false);
                render(fp, &cell, "miss", Some(leader))
            }
            Fetched::Failed { failure, leader } => {
                self.note_miss(leader, true);
                failure_response(&failure)
            }
            Fetched::Shed => {
                self.metrics.sheds.fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic counter
                self.shed_retry_headers(Response::json(
                    429,
                    JsonObject::new()
                        .str("error", "overloaded")
                        .str("detail", "solve queue is full; cached cells are still served")
                        .finish(),
                ))
            }
        }
    }

    fn note_miss(&self, leader: bool, errored: bool) {
        if leader {
            self.metrics.cache_misses.fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic counter
            self.metrics.solves.fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic counter
            if errored {
                self.metrics.solve_errors.fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic counter
            }
        } else {
            self.metrics.flight_joins.fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic counter
        }
    }

    fn solve_options(&self, audit: bool) -> SolveOptions {
        let budget = match self.solve_deadline {
            // Budgets never change a solved value, only whether the solve
            // finishes — cached results stay bit-identical to the sweeps'.
            Some(deadline) => SolveBudget::with_timeout(deadline),
            None => SolveBudget::default(),
        };
        SolveOptions { audit, budget, solve_threads: self.solve_threads, ..SolveOptions::default() }
    }

    // --- table cells ---

    fn table_route(&self, req: &Request, table: Table) -> Response {
        let spec = match parse_table_params(req, table) {
            Ok(spec) => spec,
            Err(detail) => return bad_request(&detail),
        };
        self.serve_cell(&spec, table.name)
    }

    fn serve_cell(&self, spec: &CellSpec, table_name: &str) -> Response {
        let solve = || {
            let model = AttackModel::build(spec.cfg.clone())?;
            let value = model.optimal(&self.solve_options(spec.audit))?.value;
            Ok((vec![value], model.num_states()))
        };
        self.cached_cell(&spec.key, &spec.token, solve, |fp, cell, cache, leader| {
            self.cell_response(spec, table_name, fp, cell, cache, leader)
        })
    }

    fn cell_response(
        &self,
        spec: &CellSpec,
        table_name: &str,
        fp: u64,
        cell: &CachedCell,
        cache: &str,
        leader: Option<bool>,
    ) -> Response {
        let Some(&value) = cell.vals.first() else {
            return Response::json(
                500,
                "{\"error\":\"internal\",\"detail\":\"cached cell has no value\"}".to_string(),
            );
        };
        let mut obj = JsonObject::new()
            .str("table", table_name)
            .str("key", &spec.key)
            .str("fingerprint", &format!("{fp:016x}"))
            .str("utility", spec.cfg.incentive.utility().name())
            .num("value", value)
            .str("value_bits", &bvc_journal::f64_to_hex(value))
            .num("alpha", spec.cfg.alpha)
            .num("beta", spec.cfg.beta)
            .num("gamma", spec.cfg.gamma)
            .int("setting", spec.cfg.setting as u64)
            .str("cache", cache)
            .bool("preloaded", cell.preloaded);
        if cell.states > 0 {
            obj = obj.int("states", cell.states as u64);
        }
        if cache == "miss" {
            obj = obj.num("solve_ms", cell.solve_ms);
        }
        if let Some(leader) = leader {
            obj = obj.str("flight", if leader { "leader" } else { "follower" });
        }
        Response::json(200, obj.finish())
    }

    // --- policy summaries ---

    fn policy_route(&self, req: &Request) -> Response {
        let table = match req.query_param("table").unwrap_or("2") {
            "2" | "table2" => Table::T2,
            "3" | "table3" => Table::T3,
            "4" | "table4" => Table::T4,
            other => return bad_request(&format!("unknown table {other:?}")),
        };
        let mut spec = match parse_table_params_inner(req, table, &["table"]) {
            Ok(spec) => spec,
            Err(detail) => return bad_request(&detail),
        };
        // Policy summaries cache under their own token namespace: the cell
        // payload (7 packed values) differs from the table routes' single
        // value, so the fingerprints must not collide with table cells or
        // preloaded journals.
        spec.token = config_token(&format!("policy-{}", table.name));

        let solve = || {
            let model = AttackModel::build(spec.cfg.clone())?;
            let strategy = model.optimal(&self.solve_options(spec.audit))?;
            let summary = bvc_bu::summarize(&model, &strategy.policy);
            let vals = vec![
                strategy.value,
                action_code(summary.base_action),
                summary.on_chain1 as f64,
                summary.on_chain2 as f64,
                summary.waits as f64,
                summary.with_stronger_group as f64,
                summary.phase1_fork_states as f64,
            ];
            Ok((vals, model.num_states()))
        };
        self.cached_cell(&spec.key, &spec.token, solve, |fp, cell, cache, _| {
            self.policy_response(&spec, table, fp, cell, cache)
        })
    }

    fn policy_response(
        &self,
        spec: &CellSpec,
        table: Table,
        fp: u64,
        cell: &CachedCell,
        cache: &str,
    ) -> Response {
        if cell.vals.len() != 7 {
            return Response::json(
                500,
                "{\"error\":\"internal\",\"detail\":\"malformed policy cell\"}".to_string(),
            );
        }
        let policy = JsonObject::new()
            .str("base_action", action_name(cell.vals[1]))
            .int("on_chain1", cell.vals[2] as u64)
            .int("on_chain2", cell.vals[3] as u64)
            .int("waits", cell.vals[4] as u64)
            .int("with_stronger_group", cell.vals[5] as u64)
            .int("phase1_fork_states", cell.vals[6] as u64)
            .finish();
        Response::json(
            200,
            JsonObject::new()
                .str("table", table.name)
                .str("key", &spec.key)
                .str("fingerprint", &format!("{fp:016x}"))
                .str("utility", spec.cfg.incentive.utility().name())
                .num("value", cell.vals[0])
                .raw("policy", &policy)
                .str("cache", cache)
                .finish(),
        )
    }

    // --- scenario cells ---

    /// `GET /v1/scenario`: runs (or serves from cache) one `bvc-scenario`
    /// network cell. Parameters are [`ScenarioSpec::from_params`]'s; the
    /// response carries the cell's six metrics named by kind (simulation
    /// vs MDP-replay). Work is capped well below the spec's structural
    /// limit so a single request cannot monopolize a worker — larger cells
    /// belong in the sweep binaries.
    fn scenario_route(&self, req: &Request) -> Response {
        let spec = match parse_scenario_params(req) {
            Ok(spec) => spec,
            Err(detail) => return bad_request(&detail),
        };
        // Scenario cells cache under their own token namespace: the
        // six-value payload must never collide with table cells or
        // preloaded journals.
        let key = spec.key();
        let solve = || Ok((run_scenario(&spec, &self.solve_options(false))?, 0));
        self.cached_cell(&key, &config_token("scenario"), solve, |fp, cell, cache, _| {
            self.scenario_response(&spec, &key, fp, cell, cache)
        })
    }

    fn scenario_response(
        &self,
        spec: &ScenarioSpec,
        key: &str,
        fp: u64,
        cell: &CachedCell,
        cache: &str,
    ) -> Response {
        if cell.vals.len() != METRIC_ARITY {
            return Response::json(
                500,
                "{\"error\":\"internal\",\"detail\":\"malformed scenario cell\"}".to_string(),
            );
        }
        let v = &cell.vals;
        let mdp = matches!(spec.attacker, AttackerSpec::Mdp { .. });
        let metrics = if mdp {
            JsonObject::new()
                .num("u1_sim", v[0])
                .num("u1_exact", v[1])
                .num("abs_diff", v[2])
                .num("attacker_blocks", v[3])
                .num("compliant_blocks", v[4])
                .int("steps", v[5] as u64)
                .finish()
        } else {
            JsonObject::new()
                .int("blocks_mined", v[0] as u64)
                .int("reorgs", v[1] as u64)
                .int("max_reorg_depth", v[2] as u64)
                .num("miner0_share", v[3])
                .int("distinct_tips", v[4] as u64)
                .num("sim_duration", v[5])
                .finish()
        };
        let mut obj = JsonObject::new()
            .str("key", key)
            .str("fingerprint", &format!("{fp:016x}"))
            .str("kind", if mdp { "mdp-replay" } else { "simulation" })
            .int("nodes", u64::from(spec.nodes))
            .int("blocks", u64::from(spec.blocks))
            .raw("metrics", &metrics)
            .str("cache", cache)
            .bool("preloaded", cell.preloaded);
        if cache == "miss" {
            obj = obj.num("solve_ms", cell.solve_ms);
        }
        Response::json(200, obj.finish())
    }

    // --- §5 game cells ---

    /// `GET /v1/games/map`: one `bvc-gamesweep` equilibrium-map cell.
    /// Defaults reproduce the paper's Figure 4 game, so a bare request
    /// answers the pinned trace (`terminal = 1`, two rounds). Cells cache
    /// under the exact `games-grid` workload token, so a preloaded sweep
    /// journal answers the same requests the sweep solved.
    fn games_map_route(&self, req: &Request) -> Response {
        let spec = match parse_games_params(req) {
            Ok(spec) => spec,
            Err(detail) => return bad_request(&detail),
        };
        let key = spec.key();
        let solve = || {
            let vals = solve_game_cell(&spec)
                .map_err(|detail| MdpError::AuditFailed { check: "game cell spec", detail })?;
            Ok((vals, 0))
        };
        self.cached_cell(&key, &grid_config_token(), solve, |fp, cell, cache, _| {
            self.games_map_response(&spec, &key, fp, cell, cache)
        })
    }

    /// `GET /v1/games/frontier`: one committed-coalition frontier shard of
    /// the block size increasing game. Same game parameters as
    /// `/v1/games/map` (ladder economics only) plus `size`/`shard`/`shards`;
    /// per-request work is capped far below the structural shard limit.
    fn games_frontier_route(&self, req: &Request) -> Response {
        let spec = match parse_frontier_params(req) {
            Ok(spec) => spec,
            Err(detail) => return bad_request(&detail),
        };
        let key = spec.key();
        let solve = || {
            let vals = solve_frontier_cell(&spec)
                .map_err(|detail| MdpError::AuditFailed { check: "frontier cell spec", detail })?;
            Ok((vals, 0))
        };
        self.cached_cell(&key, &frontier_config_token(), solve, |fp, cell, cache, _| {
            self.games_frontier_response(&spec, &key, fp, cell, cache)
        })
    }

    /// `GET /v1/games/eb`: the EB choosing game over explicit power
    /// shares. Uses the capped enumeration ([`bvc_games::ENUM_CAP`]) so a
    /// request can never trigger the unbounded `O(2^n)` sweep; past the
    /// coalition cap the greedy upper bound is reported instead.
    fn games_eb_route(&self, req: &Request) -> Response {
        let powers = match parse_eb_params(req) {
            Ok(powers) => powers,
            Err(detail) => return bad_request(&detail),
        };
        let key = format!(
            "eb powers={}",
            powers.iter().map(|p| format!("{p}")).collect::<Vec<_>>().join(",")
        );
        let solve = || {
            let game = EbChoosingGame::new(powers);
            let nash = game
                .enumerate_equilibria()
                .map_err(|err| MdpError::AuditFailed {
                    check: "eb game size",
                    detail: err.to_string(),
                })?
                .len();
            // Exact minimal coalition when affordable, greedy bound past
            // the cap (never an error: the parse gate bounds `n`).
            let (flip, exact) = match game.minimal_flipping_coalition() {
                Ok(k) => (k.map(|k| k as f64).unwrap_or(-1.0), 1.0),
                Err(_) => {
                    (game.greedy_flipping_coalition().map(|c| c.len() as f64).unwrap_or(-1.0), 0.0)
                }
            };
            let flip_power = match game.greedy_flipping_coalition() {
                Some(c) => c.iter().map(|&i| game.powers()[i]).sum(),
                None => -1.0,
            };
            Ok((vec![game.num_miners() as f64, nash as f64, flip, flip_power, exact], 0))
        };
        self.cached_cell(&key, &config_token("games-eb"), solve, |fp, cell, cache, _| {
            if cell.vals.len() != 5 {
                return Response::json(
                    500,
                    "{\"error\":\"internal\",\"detail\":\"malformed eb cell\"}".to_string(),
                );
            }
            let v = &cell.vals;
            let mut obj = JsonObject::new()
                .str("key", &key)
                .str("fingerprint", &format!("{fp:016x}"))
                .int("miners", v[0] as u64)
                .int("nash_equilibria", v[1] as u64)
                .str("coalition_bound", if v[4] > 0.5 { "exact" } else { "greedy" });
            if v[2] >= 0.0 {
                obj = obj.int("min_flipping_coalition", v[2] as u64);
            }
            if v[3] >= 0.0 {
                obj = obj.num("greedy_coalition_power", v[3]);
            }
            obj = obj.str("cache", cache).bool("preloaded", cell.preloaded);
            Response::json(200, obj.finish())
        })
    }

    fn games_map_response(
        &self,
        spec: &GameSpec,
        key: &str,
        fp: u64,
        cell: &CachedCell,
        cache: &str,
    ) -> Response {
        if cell.vals.len() != GAME_METRIC_ARITY {
            return Response::json(
                500,
                "{\"error\":\"internal\",\"detail\":\"malformed game cell\"}".to_string(),
            );
        }
        let v = &cell.vals;
        let metrics = JsonObject::new()
            .int("groups", v[0] as u64)
            .int("terminal", v[1] as u64)
            .int("rounds", v[2] as u64)
            .bool("first_raise_passed", v[3] > 0.5)
            .num("forced_out_power", v[4])
            .int("nash_equilibria", v[5] as u64)
            .int("flip_size", v[6] as u64)
            .num("flip_power", v[7])
            .int("perturb_flips", v[8] as u64)
            .int("perturb_trials", v[9] as u64)
            .finish();
        let mut obj = JsonObject::new()
            .str("key", key)
            .str("fingerprint", &format!("{fp:016x}"))
            .int("miners", u64::from(spec.miners))
            .raw("metrics", &metrics)
            .str("cache", cache)
            .bool("preloaded", cell.preloaded);
        if cache == "miss" {
            obj = obj.num("solve_ms", cell.solve_ms);
        }
        Response::json(200, obj.finish())
    }

    fn games_frontier_response(
        &self,
        spec: &FrontierSpec,
        key: &str,
        fp: u64,
        cell: &CachedCell,
        cache: &str,
    ) -> Response {
        if cell.vals.len() != FRONTIER_METRIC_ARITY {
            return Response::json(
                500,
                "{\"error\":\"internal\",\"detail\":\"malformed frontier cell\"}".to_string(),
            );
        }
        let v = &cell.vals;
        let mut metrics = JsonObject::new()
            .int("examined", v[0] as u64)
            .int("effective", v[1] as u64)
            .int("base_terminal", v[5] as u64);
        // `NO_CARTEL` marks a shard where no coalition moved the terminal.
        if v[4] < NO_CARTEL {
            metrics = metrics
                .int("best_terminal", v[2] as u64)
                .int("best_mask", v[3] as u64)
                .num("min_cartel_power", v[4]);
        }
        let metrics = metrics.finish();
        let mut obj = JsonObject::new()
            .str("key", key)
            .str("fingerprint", &format!("{fp:016x}"))
            .int("size", u64::from(spec.size))
            .int("shard", u64::from(spec.shard))
            .int("shards", u64::from(spec.shards))
            .raw("metrics", &metrics)
            .str("cache", cache)
            .bool("preloaded", cell.preloaded);
        if cache == "miss" {
            obj = obj.num("solve_ms", cell.solve_ms);
        }
        Response::json(200, obj.finish())
    }

    // --- generic solves ---

    fn solve_route(&self, req: &Request) -> Response {
        let doc = match parse_body(req) {
            Ok(doc) => doc,
            Err(detail) => return bad_request(&detail),
        };
        if let Some(demo) = doc.get_str("demo") {
            // The broken demo models show the audit gate end to end: they
            // always fail a static check, so this path always answers 422.
            let mdp = match demo {
                "multichain" => demo_multichain(),
                "unreachable" => demo_unreachable(),
                other => return bad_request(&format!("unknown demo model {other:?}")),
            };
            return match audit_compiled(&mdp, &AuditOptions::default()).gate() {
                Err(e) => failure_response(&SolveFailure::Mdp(e)),
                Ok(()) => Response::json(
                    200,
                    JsonObject::new().str("demo", demo).str("audit", "passed").finish(),
                ),
            };
        }
        let spec = match parse_solve_body(&doc) {
            Ok(spec) => spec,
            Err(detail) => return bad_request(&detail),
        };
        self.serve_cell(&spec, "solve")
    }
}

// ---------------------------------------------------------------------------
// Parameter parsing and key construction
// ---------------------------------------------------------------------------

fn bad_request(detail: &str) -> Response {
    Response::json(
        400,
        JsonObject::new().str("error", "bad_request").str("detail", detail).finish(),
    )
}

fn action_code(action: Action) -> f64 {
    match action {
        Action::Wait => 0.0,
        Action::OnChain1 => 1.0,
        Action::OnChain2 => 2.0,
    }
}

fn action_name(code: f64) -> &'static str {
    match code as i64 {
        1 => "OnChain1",
        2 => "OnChain2",
        _ => "Wait",
    }
}

fn parse_table_params(req: &Request, table: Table) -> Result<CellSpec, String> {
    parse_table_params_inner(req, table, &[])
}

/// Parses a table or policy query through the table-cell schema
/// ([`AttackConfig::from_params`]) with the incentive fixed by `table`;
/// `extra_allowed` names the route's own parameters besides `audit`.
fn parse_table_params_inner(
    req: &Request,
    table: Table,
    extra_allowed: &[&str],
) -> Result<CellSpec, String> {
    // The route fixes the schema's first parameter, `incentive`.
    check_names(req, &[&AttackConfig::PARAMS[1..], &["audit"], extra_allowed])?;
    let (cfg, ratio) = AttackConfig::from_params(|name| match name {
        "incentive" => Some(table.incentive),
        _ => req.query_param(name),
    })?;
    Ok(CellSpec {
        key: cfg.cell_key(ratio),
        cfg,
        token: config_token(table.name),
        audit: matches!(req.query_param("audit"), Some("1" | "true" | "")),
    })
}

fn parse_body(req: &Request) -> Result<FlatJson, String> {
    let body = std::str::from_utf8(&req.body).map_err(|_| "body is not valid UTF-8")?;
    FlatJson::parse(body).map_err(|detail| format!("invalid JSON body: {detail}"))
}

/// Parses a `POST /v1/solve` body through the table-cell schema. Each
/// field is passed as text, a number as its exact `Display` form, so alpha
/// reaches the model bit for bit.
fn parse_solve_body(doc: &FlatJson) -> Result<CellSpec, String> {
    let fields: Vec<(&str, Cow<str>)> = doc.fields().map(|(name, v)| (name, v.text())).collect();
    check_param_names(
        fields.iter().map(|(name, _)| *name),
        &[&AttackConfig::PARAMS, &["audit", "demo"]],
    )?;
    let (cfg, ratio) = AttackConfig::from_params(|name| {
        fields.iter().find(|(field, _)| *field == name).map(|(_, text)| text.as_ref())
    })?;
    // Generic solves get their own token namespace per utility; their keys
    // are not meant to match any sweep journal.
    let token = config_token(&format!("solve-{}", cfg.incentive.utility().name()));
    Ok(CellSpec {
        key: cfg.cell_key(ratio),
        cfg,
        token,
        audit: doc.get_bool("audit").unwrap_or(false),
    })
}

/// The model configuration a table-cell request names, parsed exactly as
/// its route parses it before the cache lookup: a `GET /v1/table{2,3,4}`
/// query or a `POST /v1/solve` body (front ends that read the same cells,
/// like the CLI, test their parsers against this).
pub fn parse_cell_request(req: &Request) -> Result<AttackConfig, String> {
    let spec = match req.path.as_str() {
        "/v1/table2" => parse_table_params(req, Table::T2),
        "/v1/table3" => parse_table_params(req, Table::T3),
        "/v1/table4" => parse_table_params(req, Table::T4),
        "/v1/solve" => parse_solve_body(&parse_body(req)?),
        other => Err(format!("{other} names no table cell")),
    }?;
    Ok(spec.cfg)
}

/// Rejects a query parameter that is in none of the route's name lists
/// (the owning schemas' exported `PARAMS`, plus route extras).
fn check_names(req: &Request, lists: &[&[&str]]) -> Result<(), String> {
    check_param_names(req.query.iter().map(|(name, _)| name.as_str()), lists)
}

/// Serve-side cap on `nodes * blocks` for one scenario request. Far below
/// [`ScenarioSpec::validate`]'s structural 50e6 limit: an interactive
/// route must answer in seconds, not minutes — larger cells belong in the
/// `scenario-grid` / `scenario-crossval` sweep workloads.
const SCENARIO_WORK_CAP: u64 = 5_000_000;

/// Parses `GET /v1/scenario` query parameters through the scenario schema
/// ([`ScenarioSpec::from_params`]) under the serve work cap.
fn parse_scenario_params(req: &Request) -> Result<ScenarioSpec, String> {
    check_names(req, &[&ScenarioSpec::PARAMS])?;
    let spec = ScenarioSpec::from_params(|name| req.query_param(name))?;
    let work = u64::from(spec.nodes) * u64::from(spec.blocks);
    if work > SCENARIO_WORK_CAP {
        return Err(format!(
            "nodes*blocks is capped at {SCENARIO_WORK_CAP} per request (got {work}); run \
             larger cells through the scenario sweep workloads"
        ));
    }
    Ok(spec)
}

/// Serve-side cap on `trials * miners^2` for one game-map request: the
/// perturbation schedule dominates the cell cost, and an interactive
/// route must answer in milliseconds — heavier cells belong in the
/// `games-grid` sweep workload.
const GAMES_WORK_CAP: u64 = 2_000_000;

/// Serve-side cap on the coalition count of one frontier shard, far below
/// [`bvc_gamesweep::FRONTIER_CELL_CAP`]: wide layers belong in the
/// `games-frontier` sweep workload, sharded across workers.
const GAMES_FRONTIER_WORK_CAP: u64 = 100_000;

fn check_games_work(spec: &GameSpec) -> Result<(), String> {
    if let PerturbSpec::Random { trials, .. } = spec.perturb {
        let work = u64::from(trials) * u64::from(spec.miners) * u64::from(spec.miners);
        if work > GAMES_WORK_CAP {
            return Err(format!(
                "trials*miners^2 is capped at {GAMES_WORK_CAP} per request (got {work}); run \
                 larger cells through the games-grid sweep workload"
            ));
        }
    }
    Ok(())
}

/// Parses `GET /v1/games/map` through the game schema
/// ([`GameSpec::from_params`]) under the serve work cap.
fn parse_games_params(req: &Request) -> Result<GameSpec, String> {
    check_names(req, &[&GameSpec::PARAMS])?;
    let spec = GameSpec::from_params(|name| req.query_param(name))?;
    check_games_work(&spec)?;
    Ok(spec)
}

/// Parses `GET /v1/games/frontier` through the frontier schema
/// ([`FrontierSpec::from_params`]) under both games work caps.
fn parse_frontier_params(req: &Request) -> Result<FrontierSpec, String> {
    check_names(req, &[&GameSpec::PARAMS, &FrontierSpec::PARAMS])?;
    let frontier = FrontierSpec::from_params(|name| req.query_param(name))?;
    check_games_work(&frontier.spec)?;
    let (lo, hi) = frontier.rank_range();
    if hi - lo > GAMES_FRONTIER_WORK_CAP {
        return Err(format!(
            "coalitions per shard are capped at {GAMES_FRONTIER_WORK_CAP} per request (got {}); \
             raise shards or run the games-frontier sweep workload",
            hi - lo
        ));
    }
    Ok(frontier)
}

/// Parses `GET /v1/games/eb` through the EB-share schema
/// ([`EbChoosingGame::shares_from_params`]), bounded by the enumeration
/// cap.
fn parse_eb_params(req: &Request) -> Result<Vec<f64>, String> {
    check_names(req, &[&EbChoosingGame::PARAMS])?;
    let powers = EbChoosingGame::shares_from_params(|name| req.query_param(name))?;
    if powers.len() < 2 || powers.len() > bvc_games::ENUM_CAP {
        return Err(format!(
            "powers needs 2..={} shares (got {}); larger games belong in /v1/games/map",
            bvc_games::ENUM_CAP,
            powers.len()
        ));
    }
    Ok(powers)
}

fn failure_response(failure: &SolveFailure) -> Response {
    match failure {
        SolveFailure::Mdp(MdpError::AuditFailed { check, detail }) => Response::json(
            422,
            JsonObject::new()
                .str("error", "audit_failed")
                .str("check", check)
                .str("detail", detail)
                .finish(),
        ),
        SolveFailure::Mdp(e @ (MdpError::DeadlineExceeded { .. } | MdpError::Cancelled { .. })) => {
            Response::json(
                503,
                JsonObject::new()
                    .str("error", "deadline_exceeded")
                    .str("detail", &e.to_string())
                    .finish(),
            )
            .with_header("retry-after", "1")
        }
        SolveFailure::Mdp(e) => Response::json(
            500,
            JsonObject::new().str("error", "solve_failed").str("detail", &e.to_string()).finish(),
        ),
        SolveFailure::Panicked(msg) => Response::json(
            500,
            JsonObject::new().str("error", "solver_panicked").str("detail", msg).finish(),
        ),
    }
}

// ---------------------------------------------------------------------------
// Server bootstrap
// ---------------------------------------------------------------------------

/// A started serve instance: the HTTP server plus its service state.
pub struct RunningServer {
    server: Server,
    /// The routed service (cache, metrics, shutdown latch).
    pub service: Arc<Service>,
}

impl RunningServer {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Blocks until `POST /admin/shutdown` is received.
    pub fn wait_for_shutdown(&self) {
        self.service.wait_for_shutdown();
    }

    /// Gracefully stops: drains in-flight requests and joins the workers.
    pub fn stop(self) {
        self.server.shutdown();
    }
}

/// Binds, preloads journals, and starts serving. Preload entries name the
/// table whose token the journal keys are re-fingerprinted under; unknown
/// table names are rejected before the server comes up.
pub fn start(config: ServeConfig) -> io::Result<RunningServer> {
    let listener = TcpListener::bind(&config.addr)?;
    let service = Arc::new(Service::new(&config));
    for (table, path) in &config.preload {
        let token = match table.as_str() {
            "table2" | "table3" | "table4" => config_token(table),
            // Game journals preload under their exact workload tokens, so
            // a sweep's journal warm-starts the /v1/games/* routes.
            "games-grid" => grid_config_token(),
            "games-frontier" => frontier_config_token(),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "--preload table must be table2, table3, table4, games-grid or \
                         games-frontier, got {table:?}"
                    ),
                ));
            }
        };
        let loaded = service.cache.preload_journal(path, &token);
        // ordering: Relaxed — independent monotonic counter bumped once at startup.
        service.metrics.preloaded.fetch_add(loaded as u64, Ordering::Relaxed);
    }
    let http_cfg = HttpConfig {
        workers: config.workers,
        read_timeout: config.read_timeout,
        ..HttpConfig::default()
    };
    let handler_service = Arc::clone(&service);
    let server = http::serve(
        listener,
        http_cfg,
        Arc::new(move |req: &Request| handler_service.handle(req)),
    )?;
    Ok(RunningServer { server, service })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvc_scenario::{RuleKind, GRID_SEED};

    fn get(path_and_query: &str) -> Request {
        let (path, query) = match path_and_query.split_once('?') {
            Some((p, q)) => (p.to_string(), http::parse_query(q)),
            None => (path_and_query.to_string(), Vec::new()),
        };
        Request {
            method: "GET".to_string(),
            path,
            query,
            headers: Vec::new(),
            body: Vec::new(),
            wants_close: false,
        }
    }

    #[test]
    fn table2_key_matches_sweep_binary_format() {
        let spec = parse_table_params(&get("/v1/table2?alpha=0.25&ratio=1:2"), Table::T2).unwrap();
        assert_eq!(spec.key, "s1 b:g=1:2 a=25%");
        let spec = parse_table_params(&get("/v1/table2?alpha=0.1&ratio=3:2"), Table::T2).unwrap();
        assert_eq!(spec.key, "s1 b:g=3:2 a=10%");
        // A lossy alpha falls back to the exact Display form.
        let spec = parse_table_params(&get("/v1/table2?alpha=0.333"), Table::T2).unwrap();
        assert_eq!(spec.key, format!("s1 b:g=1:1 a={}%", 0.333 * 100.0));
    }

    #[test]
    fn table3_key_uses_exact_display_percent() {
        let spec = parse_table_params(&get("/v1/table3?alpha=0.025&ratio=4:1"), Table::T3).unwrap();
        assert_eq!(spec.key, format!("s1 b:g=4:1 a={}%", 0.025 * 100.0));
        assert!(spec.token.starts_with("table3;"));
    }

    #[test]
    fn non_default_shape_gets_key_suffix() {
        let spec = parse_table_params(&get("/v1/table2?alpha=0.33&eb=2&ad=2"), Table::T2).unwrap();
        assert_eq!(spec.key, "s1 b:g=1:2 a=33% ad=2/2 gate=144");
        assert_eq!(spec.cfg.ad, 2);
        assert_eq!(spec.cfg.ad_carol, 2);
        let spec =
            parse_table_params(&get("/v1/table3?alpha=0.1&rds=5&confirmations=3"), Table::T3)
                .unwrap();
        assert!(spec.key.ends_with("rds=5 thr=2"), "key = {}", spec.key);
    }

    #[test]
    fn eb_and_ratio_are_exclusive_and_validated() {
        assert!(parse_table_params(&get("/v1/table2?alpha=0.2&eb=2&ratio=1:2"), Table::T2)
            .unwrap_err()
            .contains("not both"));
        assert!(parse_table_params(&get("/v1/table2?alpha=0.9"), Table::T2)
            .unwrap_err()
            .contains("alpha"));
        assert!(parse_table_params(&get("/v1/table2?alpha=0.2&bogus=1"), Table::T2)
            .unwrap_err()
            .contains("unknown parameter"));
        assert!(parse_table_params(&get("/v1/table2?alpha=abc"), Table::T2)
            .unwrap_err()
            .contains("invalid number"));
        // Table 4 defaults to the paper's 1% attacker.
        let spec = parse_table_params(&get("/v1/table4"), Table::T4).unwrap();
        assert!((spec.cfg.alpha - 0.01).abs() < 1e-15);
        assert_eq!(spec.key, "s1 b:g=1:1 a=1%");
    }

    #[test]
    fn solve_body_maps_incentive_to_objective() {
        let doc = FlatJson::parse(
            "{\"alpha\":0.1,\"incentive\":\"double-spend\",\"ratio\":\"1:4\",\"rds\":10,\
             \"confirmations\":4}",
        )
        .unwrap();
        let spec = parse_solve_body(&doc).unwrap();
        assert_eq!(spec.cfg.incentive.utility().name(), "u2");
        assert!(spec.token.starts_with("solve-u2;"));
        assert_eq!(spec.key, "s1 b:g=1:4 a=10%");
        let doc = FlatJson::parse("{\"alpha\":0.1,\"incentive\":\"mystery\"}").unwrap();
        assert!(parse_solve_body(&doc).unwrap_err().contains("incentive"));
        let doc = FlatJson::parse("{\"alpha\":0.1,\"eb\":2.5}").unwrap();
        assert!(parse_solve_body(&doc).unwrap_err().contains("eb"));
    }

    /// A non-finite or unbounded `rds` used to reach the solver and answer
    /// 500 `solve_failed` (a non-finite reward); it is a bad request.
    #[test]
    fn unbounded_rds_is_a_bad_request() {
        let service = Service::new(&ServeConfig::default());
        for rds in ["NaN", "inf", "1e308"] {
            let resp = service.handle(&get(&format!("/v1/table3?alpha=0.2&rds={rds}")));
            assert_eq!(resp.status, 400, "rds={rds}");
            assert!(String::from_utf8(resp.body).unwrap().contains("rds must be in"), "rds={rds}");
        }
        let mut post = get("/v1/solve");
        post.method = "POST".to_string();
        post.body = b"{\"alpha\":0.2,\"incentive\":\"double-spend\",\"rds\":1e400}".to_vec();
        let resp = service.handle(&post);
        assert_eq!(resp.status, 400);
        assert!(String::from_utf8(resp.body).unwrap().contains("rds must be in"));
        assert_eq!(service.metrics.solve_errors.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn scenario_params_default_to_the_grid_base_cell() {
        let spec = parse_scenario_params(&get("/v1/scenario")).unwrap();
        assert_eq!(spec.nodes, 40);
        assert_eq!(spec.blocks, 1_500);
        assert_eq!(spec.seed, GRID_SEED);
        assert_eq!(spec.rule, RuleKind::Rizun { sticky: true });
        assert_eq!(spec.attacker, AttackerSpec::Honest);
        // An MDP request defaults to the only rule the replay supports.
        let spec = parse_scenario_params(&get(
            "/v1/scenario?attacker=mdp&alpha=0.25&ratio=1:1&nodes=12&blocks=2000",
        ))
        .unwrap();
        assert_eq!(spec.rule, RuleKind::Rizun { sticky: false });
        assert_eq!(spec.attacker, AttackerSpec::Mdp { alpha: 0.25, ratio: (1, 1) });
    }

    #[test]
    fn scenario_params_reject_misuse() {
        for (query, needle) in [
            ("/v1/scenario?bogus=1", "unknown parameter"),
            ("/v1/scenario?zipf-s=1.2", "zipf-s only applies"),
            ("/v1/scenario?delay-d=0.1", "delay-d only applies"),
            ("/v1/scenario?alpha=0.2", "alpha only applies"),
            ("/v1/scenario?ratio=1:2", "ratio only applies"),
            ("/v1/scenario?attacker=lead-k", "needs alpha"),
            ("/v1/scenario?nodes=1", "nodes must be in"),
            ("/v1/scenario?nodes=5000&blocks=5000", "capped at"),
            ("/v1/scenario?attacker=mdp&alpha=0.25&rule=srccode", "rizun-nogate"),
        ] {
            let err = parse_scenario_params(&get(query)).unwrap_err();
            assert!(err.contains(needle), "{query}: {err}");
        }
    }

    #[test]
    fn scenario_route_runs_and_caches_a_cell() {
        let service = Service::new(&ServeConfig::default());
        let req = get("/v1/scenario?nodes=6&blocks=80&seed=11");
        let resp = service.handle(&req);
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"kind\":\"simulation\""), "body = {body}");
        assert!(body.contains("\"blocks_mined\":80"), "body = {body}");
        assert!(body.contains("\"cache\":\"miss\""), "body = {body}");
        let resp = service.handle(&req);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"cache\":\"hit\""), "body = {body}");
        // A degenerate MDP group split passes parsing but fails the
        // engine's audit: structural 422, not a 500.
        let resp = service
            .handle(&get("/v1/scenario?attacker=mdp&alpha=0.25&nodes=4&blocks=100&large-frac=0"));
        assert_eq!(resp.status, 422);
        assert!(String::from_utf8(resp.body).unwrap().contains("\"check\":\"scenario-spec\""));
    }

    #[test]
    fn games_map_route_reproduces_figure4_and_caches() {
        let service = Service::new(&ServeConfig::default());
        // Bare request = the pinned Figure 4 cell.
        let resp = service.handle(&get("/v1/games/map"));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"terminal\":1"), "body = {body}");
        assert!(body.contains("\"rounds\":2"), "body = {body}");
        assert!(body.contains("\"first_raise_passed\":true"), "body = {body}");
        assert!(body.contains("\"nash_equilibria\":2"), "body = {body}");
        assert!(body.contains("\"cache\":\"miss\""), "body = {body}");
        let resp = service.handle(&get("/v1/games/map"));
        assert!(String::from_utf8(resp.body).unwrap().contains("\"cache\":\"hit\""));
        // Strict parsing: unknown params, enum sub-param misuse, work cap.
        assert_eq!(service.handle(&get("/v1/games/map?minersz=4")).status, 400);
        assert_eq!(service.handle(&get("/v1/games/map?power=uniform&zipf-s=1")).status, 400);
        assert_eq!(service.handle(&get("/v1/games/map?trials=5")).status, 400);
        assert_eq!(
            service.handle(&get("/v1/games/map?miners=500&perturb=random&trials=100000")).status,
            400
        );
        // Invalid spec values fail validation with a 400, not a panic.
        assert_eq!(service.handle(&get("/v1/games/map?threshold=1.5")).status, 400);
    }

    #[test]
    fn games_frontier_route_finds_the_kamikaze_cartel() {
        let service = Service::new(&ServeConfig::default());
        let resp = service.handle(&get("/v1/games/frontier?size=1"));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        // Figure 4, k=1: committing the 30% group moves the terminal from
        // group 2 to group 4 (mask 4 = group index 2).
        assert!(body.contains("\"base_terminal\":1"), "body = {body}");
        assert!(body.contains("\"best_terminal\":3"), "body = {body}");
        assert!(body.contains("\"best_mask\":4"), "body = {body}");
        assert!(body.contains("\"examined\":4"), "body = {body}");
        // size is required; fee-market economics are rejected; oversized
        // shards are capped.
        assert_eq!(service.handle(&get("/v1/games/frontier")).status, 400);
        assert_eq!(service.handle(&get("/v1/games/frontier?size=1&econ=fee")).status, 400);
        assert_eq!(service.handle(&get("/v1/games/frontier?miners=24&size=12")).status, 400);
        // Sharding the layer passes the cap again.
        let resp = service.handle(&get("/v1/games/frontier?miners=24&size=12&shard=0&shards=64"));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn games_eb_route_is_capped_not_exponential() {
        let service = Service::new(&ServeConfig::default());
        let resp = service.handle(&get("/v1/games/eb?powers=0.1,0.2,0.3,0.4"));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"nash_equilibria\":2"), "body = {body}");
        assert!(body.contains("\"min_flipping_coalition\":2"), "body = {body}");
        assert!(body.contains("\"coalition_bound\":\"exact\""), "body = {body}");
        // 21 shares exceed the enumeration cap: a structural 400 before
        // any exponential work happens.
        let too_many: Vec<String> = (0..21).map(|_| format!("{}", 1.0 / 21.0)).collect();
        let resp = service.handle(&get(&format!("/v1/games/eb?powers={}", too_many.join(","))));
        assert_eq!(resp.status, 400);
        // 18 shares are allowed but past the exact-coalition cap: the
        // greedy bound answers instead of the exponential search.
        let many: Vec<String> = (0..18).map(|_| format!("{}", 1.0 / 18.0)).collect();
        let resp = service.handle(&get(&format!("/v1/games/eb?powers={}", many.join(","))));
        assert_eq!(resp.status, 200);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"coalition_bound\":\"greedy\""), "body = {body}");
        assert_eq!(service.handle(&get("/v1/games/eb")).status, 400);
        assert_eq!(service.handle(&get("/v1/games/eb?powers=0.5,0.4")).status, 400);
    }

    #[test]
    fn routing_statuses() {
        let service = Service::new(&ServeConfig { queue_cap: 0, ..ServeConfig::default() });
        assert_eq!(service.handle(&get("/healthz")).status, 200);
        assert_eq!(service.handle(&get("/metrics")).status, 200);
        assert_eq!(service.handle(&get("/nope")).status, 404);
        let mut post = get("/healthz");
        post.method = "POST".to_string();
        assert_eq!(service.handle(&post).status, 405);
        assert_eq!(service.handle(&get("/v1/table2?alpha=bogus")).status, 400);
        assert_eq!(service.handle(&get("/v1/scenario?nodes=1")).status, 400);
        let mut post_scenario = get("/v1/scenario");
        post_scenario.method = "POST".to_string();
        assert_eq!(service.handle(&post_scenario).status, 405);
        // queue_cap 0: a cold cell is shed with 429 + Retry-After.
        let shed = service.handle(&get("/v1/table2?alpha=0.33&eb=2&ad=2"));
        assert_eq!(shed.status, 429);
        assert!(shed.extra_headers.iter().any(|(k, _)| k == "retry-after"));
        assert!(!service.shutdown_requested());
        let mut shutdown = get("/admin/shutdown");
        shutdown.method = "POST".to_string();
        assert_eq!(service.handle(&shutdown).status, 200);
        assert!(service.shutdown_requested());
    }

    #[test]
    fn demo_solve_answers_422_with_check_name() {
        let service = Service::new(&ServeConfig::default());
        let mut req = get("/v1/solve");
        req.method = "POST".to_string();
        req.body = b"{\"demo\":\"multichain\"}".to_vec();
        let resp = service.handle(&req);
        assert_eq!(resp.status, 422);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"error\":\"audit_failed\""), "body = {body}");
        assert!(body.contains("\"check\":\"absorbing\""), "body = {body}");
        req.body = b"{\"demo\":\"unreachable\"}".to_vec();
        let resp = service.handle(&req);
        assert_eq!(resp.status, 422);
        assert!(String::from_utf8(resp.body).unwrap().contains("\"check\":\"reachable\""));
        req.body = b"not json".to_vec();
        assert_eq!(service.handle(&req).status, 400);
    }
}
