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
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use bvc_bu::{Action, AttackConfig, AttackModel, SolveOptions};
use bvc_games::EbChoosingGame;
use bvc_gamesweep::{FrontierSpec, GameSpec};
use bvc_journal::json::{FlatJson, JsonObject};
use bvc_journal::{cell_fingerprint, check_param_names, Cell};
use bvc_mdp::audit::{demo_multichain, demo_unreachable};
use bvc_mdp::{audit_compiled, AuditOptions, MdpError, SolveBudget};
use bvc_scenario::ScenarioSpec;

use crate::cache::{CachedCell, Fetched, SolveCache, SolveFailure};
use crate::http::{self, HttpConfig, Request, Response, Server};
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
            retry_after: Duration::from_secs(1),
            retry_jitter_seed: 0x7e7e_a11e,
        }
    }
}

/// A published table a request addresses: its name, the `incentive` it
/// fixes (the incentive's utility is the table's) and its place in
/// [`Table::ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Table {
    name: &'static str,
    incentive: &'static str,
    slot: usize,
}

impl Table {
    const T2: Table = Table { name: "table2", incentive: "compliant", slot: 0 };
    const T3: Table = Table { name: "table3", incentive: "double-spend", slot: 1 };
    const T4: Table = Table { name: "table4", incentive: "vandal", slot: 2 };
    const ALL: [Table; 3] = [Table::T2, Table::T3, Table::T4];

    /// This table's [`config_token`], derived once per process.
    fn token(self) -> &'static str {
        static TOKENS: OnceLock<[String; 3]> = OnceLock::new();
        &TOKENS.get_or_init(|| Table::ALL.map(|t| config_token(t.name)))[self.slot]
    }
}

/// A fully-resolved solve request: the model config (whose incentive picks
/// the objective) and the journal-compatible cache key.
#[derive(Debug, Clone)]
struct CellSpec {
    cfg: AttackConfig,
    key: String,
    token: Cow<'static, str>,
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
            ("GET", "/v1/scenario") => self.cell_route::<ScenarioSpec>(req),
            ("GET", "/v1/games/map") => self.cell_route::<GameSpec>(req),
            ("GET", "/v1/games/frontier") => self.cell_route::<FrontierSpec>(req),
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
    ///
    /// A hit's reply is rendered once per cell: the first hit's `200` JSON
    /// body is stored beside the cell with `echo`, the bit patterns of the
    /// request-derived inputs the body echoes beyond the key (the table
    /// routes' alpha, beta and gamma; none elsewhere). A later hit with an
    /// equal `echo` is answered with the stored bytes; any other hit
    /// renders as the first did.
    fn cached_cell(
        &self,
        key: &str,
        token: &str,
        echo: &[u64],
        solve: impl FnOnce() -> Result<(Vec<f64>, usize), MdpError>,
        render: impl FnOnce(u64, &CachedCell, &str, Option<bool>) -> Response,
    ) -> Response {
        let fp = cell_fingerprint(key, token);
        let fetched = self.cache.get_or_solve(fp, echo, || {
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
            Fetched::Hit { cell, reply } => {
                self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic counter
                if let Some(body) = reply {
                    return Response::json(200, body);
                }
                self.metrics.hit_renders.fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic counter
                let resp = render(fp, &cell, "hit", None);
                if resp.status == 200
                    && resp.content_type == "application/json"
                    && resp.extra_headers.is_empty()
                {
                    self.cache.store_reply(fp, &cell, echo, &resp.body);
                }
                resp
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
        SolveOptions { audit, budget, ..SolveOptions::default() }
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
        // The body echoes the request's own alpha, beta and gamma, and alphas
        // whose percent forms round alike share one key.
        let echo = [spec.cfg.alpha, spec.cfg.beta, spec.cfg.gamma].map(f64::to_bits);
        self.cached_cell(&spec.key, &spec.token, &echo, solve, |fp, cell, cache, leader| {
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
        spec.token = Cow::Owned(config_token(&format!("policy-{}", table.name)));

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
        self.cached_cell(&spec.key, &spec.token, &[], solve, |fp, cell, cache, _| {
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

    // --- schema cells (scenario, game map, frontier) ---

    /// `GET` one cell of a [`Cell`] kind (`/v1/scenario`, `/v1/games/map`,
    /// `/v1/games/frontier`): the query goes through the kind's schema under
    /// its interactive work cap, and the cell caches under the kind's config
    /// token, so a preloaded sweep journal answers the cells the sweep
    /// solved. The body carries the key, the fingerprint, the spec fields
    /// the kind echoes and its named metrics.
    fn cell_route<C: Cell>(&self, req: &Request) -> Response {
        let spec = match parse_cell::<C>(req) {
            Ok(spec) => spec,
            Err(detail) => return bad_request(&detail),
        };
        let key = spec.key();
        let solve = || Ok((spec.solve(&self.solve_options(false))?, 0));
        // `echo()` fields are all in the key, so they need no echo bits.
        self.cached_cell(&key, &C::config_token(), &[], solve, |fp, cell, cache, _| {
            let Some(metrics) = spec.named_metrics(&cell.vals) else {
                return Response::json(
                    500,
                    "{\"error\":\"internal\",\"detail\":\"malformed cached cell\"}".to_string(),
                );
            };
            let mut obj = JsonObject::new()
                .str("key", &key)
                .str("fingerprint", &format!("{fp:016x}"))
                .values(&spec.echo())
                .raw("metrics", &JsonObject::new().values(&metrics).finish())
                .str("cache", cache)
                .bool("preloaded", cell.preloaded);
            if cache == "miss" {
                obj = obj.num("solve_ms", cell.solve_ms);
            }
            Response::json(200, obj.finish())
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
        self.cached_cell(&key, &config_token("games-eb"), &[], solve, |fp, cell, cache, _| {
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
        token: Cow::Borrowed(table.token()),
        audit: matches!(req.query_param("audit"), Some("1" | "true" | "")),
    })
}

fn parse_body(req: &Request) -> Result<FlatJson, String> {
    let body = std::str::from_utf8(&req.body).map_err(|_| "body is not valid UTF-8")?;
    FlatJson::parse(body).map_err(|detail| format!("invalid JSON body: {detail}"))
}

/// Parses a `POST /v1/solve` body through the table-cell schema. Each
/// field is passed as text, a number as its exact `Display` form, so alpha
/// reaches the model bit for bit; an array value is rejected.
fn parse_solve_body(doc: &FlatJson) -> Result<CellSpec, String> {
    let fields = doc
        .fields()
        .map(|(name, v)| Ok((name, v.text().ok_or(format!("{name}: arrays are not supported"))?)))
        .collect::<Result<Vec<(&str, Cow<str>)>, String>>()?;
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
        token: Cow::Owned(token),
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

/// Parses a cell route's query through the kind's schema
/// ([`Cell::from_params`]) under serve's interactive work cap
/// ([`Cell::check_work`]).
fn parse_cell<C: Cell>(req: &Request) -> Result<C, String> {
    check_names(req, &[C::PARAMS])?;
    let spec = C::from_params(|name| req.query_param(name))?;
    spec.check_work()?;
    Ok(spec)
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
            "games-grid" => GameSpec::config_token(),
            "games-frontier" => FrontierSpec::config_token(),
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
    use bvc_scenario::{AttackerSpec, RuleKind, GRID_SEED};

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
    fn table_tokens_are_the_config_tokens() {
        for (slot, table) in Table::ALL.into_iter().enumerate() {
            assert_eq!(table.slot, slot);
            assert_eq!(table.token(), config_token(table.name));
        }
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

    /// The body reader accepts scalar arrays (cluster frames carry them);
    /// the solve schema takes scalars only, so an array is still a 400.
    #[test]
    fn solve_body_array_is_a_bad_request() {
        let service = Service::new(&ServeConfig::default());
        for body in ["{\"alpha\":[0.2]}", "{\"alpha\":0.2,\"ratio\":[\"1:1\"]}"] {
            let mut post = get("/v1/solve");
            post.method = "POST".to_string();
            post.body = body.as_bytes().to_vec();
            let resp = service.handle(&post);
            assert_eq!(resp.status, 400, "{body}");
            let text = String::from_utf8(resp.body).unwrap();
            assert!(text.contains("arrays are not supported"), "{body}: {text}");
        }
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
        let spec = parse_cell::<ScenarioSpec>(&get("/v1/scenario")).unwrap();
        assert_eq!(spec.nodes, 40);
        assert_eq!(spec.blocks, 1_500);
        assert_eq!(spec.seed, GRID_SEED);
        assert_eq!(spec.rule, RuleKind::Rizun { sticky: true });
        assert_eq!(spec.attacker, AttackerSpec::Honest);
        // An MDP request defaults to the only rule the replay supports.
        let spec = parse_cell::<ScenarioSpec>(&get(
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
            let err = parse_cell::<ScenarioSpec>(&get(query)).unwrap_err();
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
        assert!(body.contains("\"passed_rounds\":1"), "body = {body}");
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

    /// A `200` reply's body with a miss's timing-only `solve_ms` dropped.
    fn pinnable_body(resp: Response) -> String {
        assert_eq!(resp.status, 200);
        let mut body = String::from_utf8(resp.body).unwrap();
        if let Some(at) = body.find(",\"solve_ms\":") {
            let len = body[at + 1..].find([',', '}']).unwrap() + 1;
            body.replace_range(at..at + len, "");
        }
        body
    }

    /// Sends each request three times (a miss, then two hits) and checks
    /// every body byte for byte against its template: `CACHE` is `miss` or
    /// `hit` and `FLIGHT` is the miss's `"flight":"leader"` field (empty on
    /// a hit). The second hit is answered from the cell's stored reply.
    fn assert_pinned(pins: &[(&str, &str)]) {
        let service = Service::new(&ServeConfig::default());
        for &(request, pinned) in pins {
            for cache in ["miss", "hit", "hit"] {
                let body = pinnable_body(service.handle(&get(request)));
                let flight = if cache == "miss" { ",\"flight\":\"leader\"" } else { "" };
                let expected = pinned.replace("CACHE", cache).replace("FLIGHT", flight);
                assert_eq!(body, expected, "{request} ({cache})");
            }
        }
    }

    /// Full `200` bodies of the schema-cell routes, byte for byte: a
    /// simulation and an MDP-replay scenario cell, Figure 4 and a frontier
    /// shard with and without an improving cartel.
    #[test]
    fn cell_route_bodies_are_pinned() {
        const PINS: [(&str, &str); 5] = [
            (
                "/v1/scenario?nodes=6&blocks=80&seed=11",
                "{\"key\":\"scn n=6 hash=uni eb=1/16 ad=6 large=40% delay=zero rule=rizun \
                 atk=honest b=80 s=11\",\"fingerprint\":\"8a79f01771138f76\",\"kind\":\
                 \"simulation\",\"nodes\":6,\"blocks\":80,\"metrics\":{\"blocks_mined\":80,\
                 \"reorgs\":0,\"max_reorg_depth\":0,\"miner0_share\":0.175,\"distinct_tips\":1,\
                 \"sim_duration\":94.2046717823213},\"cache\":\"CACHE\",\"preloaded\":false}",
            ),
            (
                "/v1/scenario?attacker=mdp&alpha=0.25&nodes=12&blocks=2000",
                "{\"key\":\"scn n=12 hash=uni eb=1/16 ad=6 large=40% delay=zero \
                 rule=rizun-nogate atk=mdp(25%,1:1) b=2000 s=2017\",\"fingerprint\":\
                 \"fe1ed2d4dc867239\",\"kind\":\"mdp-replay\",\"nodes\":12,\"blocks\":2000,\
                 \"metrics\":{\"u1_sim\":0.24592220828105396,\"u1_exact\":0.2623759614064002,\
                 \"abs_diff\":0.01645375312534622,\"attacker_blocks\":392,\
                 \"compliant_blocks\":1202,\"steps\":2000},\"cache\":\"CACHE\",\
                 \"preloaded\":false}",
            ),
            (
                "/v1/games/map",
                "{\"key\":\"game n=4 pow=zipf(-1) econ=ladder tau=0.5 pert=none s=2017\",\
                 \"fingerprint\":\"45b6b87a8448f20a\",\"miners\":4,\"metrics\":{\"groups\":4,\
                 \"terminal\":1,\"rounds\":2,\"passed_rounds\":1,\"forced_out_power\":0.1,\
                 \"nash_equilibria\":2,\"flip_size\":2,\"flip_power\":0.7,\"perturb_flips\":0,\
                 \"perturb_trials\":0},\"cache\":\"CACHE\",\"preloaded\":false}",
            ),
            (
                "/v1/games/frontier?size=1",
                "{\"key\":\"game n=4 pow=zipf(-1) econ=ladder tau=0.5 pert=none s=2017 \
                 frontier k=1 shard=0/1\",\"fingerprint\":\"48965061e03b6191\",\"size\":1,\
                 \"shard\":0,\"shards\":1,\"metrics\":{\"examined\":4,\"effective\":1,\
                 \"base_terminal\":1,\"best_terminal\":3,\"best_mask\":4,\
                 \"min_cartel_power\":0.3},\"cache\":\"CACHE\",\"preloaded\":false}",
            ),
            (
                "/v1/games/frontier?size=1&threshold=0.9",
                "{\"key\":\"game n=4 pow=zipf(-1) econ=ladder tau=0.9 pert=none s=2017 \
                 frontier k=1 shard=0/1\",\"fingerprint\":\"28c348dc89e37e25\",\"size\":1,\
                 \"shard\":0,\"shards\":1,\"metrics\":{\"examined\":4,\"effective\":0,\
                 \"base_terminal\":1},\"cache\":\"CACHE\",\"preloaded\":false}",
            ),
        ];
        assert_pinned(&PINS);
    }

    /// Full `200` bodies of the table, policy and EB-game routes, byte for
    /// byte, as the cache-hit path must keep answering them.
    #[test]
    fn table_route_bodies_are_pinned() {
        const PINS: [(&str, &str); 5] = [
            (
                "/v1/table2?alpha=0.25&ratio=1:1",
                "{\"table\":\"table2\",\"key\":\"s1 b:g=1:1 a=25%\",\"fingerprint\":\
                 \"0e319714069d9e6e\",\"utility\":\"u1\",\"value\":0.2623747130450597,\
                 \"value_bits\":\"3fd0cabf4ef4dbcf\",\"alpha\":0.25,\"beta\":0.375,\
                 \"gamma\":0.375,\"setting\":1,\"cache\":\"CACHE\",\"preloaded\":false,\
                 \"states\":211FLIGHT}",
            ),
            (
                "/v1/table3?alpha=0.1&ratio=1:2",
                "{\"table\":\"table3\",\"key\":\"s1 b:g=1:2 a=10%\",\"fingerprint\":\
                 \"f179e5d14be82af6\",\"utility\":\"u2\",\"value\":0.2229952622060337,\
                 \"value_bits\":\"3fcc8b1bd72b3efb\",\"alpha\":0.1,\"beta\":0.3,\"gamma\":0.6,\
                 \"setting\":1,\"cache\":\"CACHE\",\"preloaded\":false,\"states\":211FLIGHT}",
            ),
            (
                "/v1/table4?alpha=0.01&ratio=1:1",
                "{\"table\":\"table4\",\"key\":\"s1 b:g=1:1 a=1%\",\"fingerprint\":\
                 \"94ec1cee7a82a050\",\"utility\":\"u3\",\"value\":1.76747239453125,\
                 \"value_bits\":\"3ffc479122318330\",\"alpha\":0.01,\"beta\":0.495,\
                 \"gamma\":0.495,\"setting\":1,\"cache\":\"CACHE\",\"preloaded\":false,\
                 \"states\":211FLIGHT}",
            ),
            (
                "/v1/policy?alpha=0.25&ratio=1:1",
                "{\"table\":\"table2\",\"key\":\"s1 b:g=1:1 a=25%\",\"fingerprint\":\
                 \"d727fd0e62f8b5f3\",\"utility\":\"u1\",\"value\":0.2623747130450597,\
                 \"policy\":{\"base_action\":\"OnChain2\",\"on_chain1\":51,\"on_chain2\":159,\
                 \"waits\":0,\"with_stronger_group\":159,\"phase1_fork_states\":210},\
                 \"cache\":\"CACHE\"}",
            ),
            (
                "/v1/games/eb?powers=0.1,0.2,0.3,0.4",
                "{\"key\":\"eb powers=0.1,0.2,0.3,0.4\",\"fingerprint\":\"0d60154c131bf945\",\
                 \"miners\":4,\"nash_equilibria\":2,\"coalition_bound\":\"exact\",\
                 \"min_flipping_coalition\":2,\"greedy_coalition_power\":0.7,\
                 \"cache\":\"CACHE\",\"preloaded\":false}",
            ),
        ];
        assert_pinned(&PINS);
    }

    /// Two alphas whose keys round to the same `a=20.00000000000001%` share
    /// one cached cell, but every reply echoes its own request's alpha,
    /// beta and gamma, whichever alpha rendered the cell's first hit.
    #[test]
    fn alpha_alias_replies_echo_their_own_inputs() {
        const HEAD: &str = "{\"table\":\"table3\",\"key\":\"s1 b:g=1:1 a=20.00000000000001%\",\
                            \"fingerprint\":\"c9d87e8886976519\",\"utility\":\"u2\",\
                            \"value\":0.5939263572410609,\"value_bits\":\"3fe30171d912a60c\",";
        const ONE: &str = "\"alpha\":0.2000000000000001,\"beta\":0.39999999999999997,\
                           \"gamma\":0.39999999999999997,";
        const TWO: &str = "\"alpha\":0.20000000000000012,\"beta\":0.3999999999999999,\
                           \"gamma\":0.3999999999999999,";
        let service = Service::new(&ServeConfig::default());
        for (alpha, echo, cache) in [
            ("0.2000000000000001", ONE, "miss"),
            ("0.2000000000000001", ONE, "hit"),
            ("0.20000000000000012", TWO, "hit"),
            ("0.20000000000000012", TWO, "hit"),
            ("0.2000000000000001", ONE, "hit"),
            ("0.2000000000000001", ONE, "hit"),
        ] {
            let request = format!("/v1/table3?alpha={alpha}&ratio=1:1");
            let flight = if cache == "miss" { ",\"flight\":\"leader\"" } else { "" };
            let tail = format!(
                "\"setting\":1,\"cache\":\"{cache}\",\"preloaded\":false,\"states\":211{flight}}}"
            );
            let body = pinnable_body(service.handle(&get(&request)));
            assert_eq!(body, format!("{HEAD}{echo}{tail}"), "{request} ({cache})");
        }
    }

    /// A hot cell's reply is rendered on its first hit only; the metrics
    /// report the renders next to the hits.
    #[test]
    fn hit_renders_once_per_cell() {
        let service = Service::new(&ServeConfig::default());
        let req = get("/v1/table2?alpha=0.25&ratio=1:1");
        assert_eq!(service.handle(&req).status, 200);
        let first = service.handle(&req).body;
        for _ in 0..1_000 {
            assert_eq!(service.handle(&req).body, first);
        }
        // ordering: point-in-time stat reads
        assert_eq!(service.metrics.cache_hits.load(Ordering::Relaxed), 1_001);
        assert_eq!(service.metrics.hit_renders.load(Ordering::Relaxed), 1);
        assert_eq!(service.cache().stored_replies(), 1);
        let text = String::from_utf8(service.handle(&get("/metrics")).body).unwrap();
        assert!(text.contains("serve_hit_renders_total 1\n"), "{text}");
        let json = String::from_utf8(service.handle(&get("/metrics?format=json")).body).unwrap();
        assert!(json.contains("\"serve_hit_renders_total\":1,"), "{json}");
    }

    /// Only `200` hit replies are stored: a malformed cached cell answers
    /// 500 on every hit, rendered each time, and a shed stores nothing.
    #[test]
    fn error_replies_are_never_stored() {
        let service = Service::new(&ServeConfig { queue_cap: 0, ..ServeConfig::default() });
        let req = get("/v1/table2?alpha=0.25&ratio=1:1");
        let spec = parse_table_params(&req, Table::T2).unwrap();
        let malformed = CachedCell { vals: Vec::new(), solve_ms: 0.0, states: 0, preloaded: true };
        service.cache().insert(cell_fingerprint(&spec.key, &spec.token), Arc::new(malformed));
        for _ in 0..3 {
            assert_eq!(service.handle(&req).status, 500);
        }
        assert_eq!(service.handle(&get("/v1/table2?alpha=0.3&ratio=1:1")).status, 429);
        assert_eq!(service.cache().stored_replies(), 0);
        // ordering: point-in-time stat read
        assert_eq!(service.metrics.hit_renders.load(Ordering::Relaxed), 3);
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
