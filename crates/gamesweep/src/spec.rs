//! The game cell types: fully-deterministic descriptions of one
//! emergent-consensus game analysis ([`GameSpec`]) and of one shard of the
//! coalition-frontier search ([`FrontierSpec`]), with stable human-readable
//! keys, compact wire encodings, and the per-cell seeding discipline that
//! makes every cell replay bit-identically at any thread or worker count.

use bvc_journal::{f64_from_hex, f64_to_hex, fnv1a64, param_f64, param_int, Cell, Metric, Value};
use bvc_mdp::solve::SolveOptions;
use bvc_mdp::MdpError;

use crate::grid::GAMES_SEED;
use crate::solve::{
    solve_frontier_cell, solve_game_cell, FRONTIER_METRIC_ARITY, GAME_METRIC_ARITY, NO_CARTEL,
};

/// How mining power is distributed across the `n` miners. Miner index is
/// the *MPB rank*: miner `i` has the `i`-th smallest maximum profitable
/// block size, so a distribution decides whether the big pools sit at the
/// slow or the fast end of the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PowerDist {
    /// Every miner gets the same share.
    Uniform,
    /// Miner `i` gets a share proportional to `1 / (i + 1)^s`. Positive
    /// `s` concentrates power at the *small-MPB* end (big pools on slow
    /// links); negative `s` concentrates it at the *large-MPB* end (big
    /// pools on fast links). `s = -1` over four miners reproduces the
    /// paper's Figure 4 distribution 10/20/30/40.
    Zipf {
        /// The Zipf exponent (`0` degenerates to uniform).
        s: f64,
    },
    /// Shares follow the early-2017 pool distribution the paper snapshots
    /// (largest pool first); for miner counts beyond the table the tail
    /// repeats and everything renormalizes.
    Measured,
    /// One near-majority miner with share `top` at the large-MPB end, the
    /// rest uniform — the adversarial shape for both games.
    Adversarial {
        /// The dominant miner's share, in `(0, 1)`.
        top: f64,
    },
}

/// Early-2017 pool shares (fractions of the network), largest first — the
/// same table `bvc-scenario` uses; only the shape matters, the weights
/// renormalize.
const MEASURED_SHARES: [f64; 12] =
    [0.18, 0.13, 0.11, 0.095, 0.08, 0.07, 0.06, 0.05, 0.04, 0.035, 0.03, 0.02];

impl PowerDist {
    /// Normalized per-miner shares for `n` miners (strictly positive,
    /// summing to 1 up to rounding), indexed by MPB rank.
    pub fn shares(&self, n: usize) -> Vec<f64> {
        assert!(n > 0, "need at least one miner");
        let raw: Vec<f64> = match self {
            PowerDist::Uniform => vec![1.0; n],
            PowerDist::Zipf { s } => (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(*s)).collect(),
            PowerDist::Measured => {
                (0..n).map(|i| MEASURED_SHARES[i % MEASURED_SHARES.len()]).collect()
            }
            PowerDist::Adversarial { top } => {
                let rest = (1.0 - top) / (n - 1).max(1) as f64;
                (0..n).map(|i| if i == n - 1 { *top } else { rest }).collect()
            }
        };
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / total).collect()
    }
}

/// How each miner's maximum profitable block size is derived.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EconSpec {
    /// Miner `i`'s MPB is simply `i + 1` — only the ordering matters for
    /// the block size increasing game, and this is the paper's Figure 4
    /// shape.
    Ladder,
    /// Rizun fee-market economics (`bvc_games::MinerEconomics`): every
    /// miner shares the fee level, latency, and operating cost; effective
    /// bandwidth interpolates geometrically from `bw_lo` (miner 0) to
    /// `bw_hi` (miner n−1), so MPBs ascend with the index. Unprofitable
    /// miners are dropped and nearly-equal MPBs merged, exactly as
    /// [`bvc_games::mpb_groups`] prescribes.
    FeeMarket {
        /// Fees collected per MB, `f`.
        fee_per_mb: f64,
        /// Slowest miner's effective bandwidth (MB per block interval).
        bw_lo: f64,
        /// Fastest miner's effective bandwidth.
        bw_hi: f64,
        /// Fixed propagation latency (fraction of a block interval).
        latency: f64,
        /// Operating cost per expected block, in block rewards.
        cost: f64,
    },
}

/// The perturbation schedule for the EB-game fragility analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerturbSpec {
    /// No perturbation trials.
    None,
    /// `trials` seeded random coalitions of size `1..=kmax`, each flipped
    /// away from the unanimity and run through best-response dynamics.
    Random {
        /// Number of seeded trials.
        trials: u32,
        /// Largest coalition size sampled.
        kmax: u32,
    },
}

/// One game cell: everything needed to reproduce an equilibrium-map entry
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct GameSpec {
    /// Number of miners.
    pub miners: u32,
    /// Power distribution over the miners (indexed by MPB rank).
    pub power: PowerDist,
    /// How MPBs are derived.
    pub econ: EconSpec,
    /// Pass threshold of the block size increasing game (0.5 is BU's
    /// majority rule; 0.9 models the §6.3 countermeasure).
    pub threshold: f64,
    /// Perturbation schedule for the fragility metrics.
    pub perturb: PerturbSpec,
    /// Base seed; the effective RNG seed is mixed with the cell key
    /// ([`GameSpec::cell_seed`]).
    pub seed: u64,
}

/// Every parameter name [`GameSpec`]'s `from_params` reads.
const GAME_PARAMS: [&str; 15] = [
    "miners",
    "power",
    "zipf-s",
    "adv-top",
    "econ",
    "fee",
    "bw-lo",
    "bw-hi",
    "latency",
    "cost",
    "threshold",
    "perturb",
    "trials",
    "kmax",
    "seed",
];

/// Serve-side cap on `trials * miners^2` for one game request: the
/// perturbation schedule dominates the cell cost, and an interactive route
/// must answer in milliseconds — heavier cells belong in the `games-grid`
/// sweep workload.
const GAMES_WORK_CAP: u64 = 2_000_000;

/// The metrics of an equilibrium-map cell, one per value slot.
const GAME_METRICS: [Metric; GAME_METRIC_ARITY] = [
    Metric::int("groups", 0),
    Metric::int("terminal", 1),
    Metric::int("rounds", 2),
    Metric::int("passed_rounds", 3),
    Metric::num("forced_out_power", 4),
    Metric::int("nash_equilibria", 5),
    Metric::int("flip_size", 6),
    Metric::num("flip_power", 7),
    Metric::int("perturb_flips", 8),
    Metric::int("perturb_trials", 9),
];

impl Cell for GameSpec {
    const TAG: &'static str = "gm";

    const PARAMS: &'static [&'static str] = &GAME_PARAMS;

    const ARITY: usize = GAME_METRIC_ARITY;

    /// Defaults reproduce the paper's Figure 4 cell (4 miners at
    /// 10/20/30/40, ladder MPBs, majority rule, no perturbation, seed
    /// [`GAMES_SEED`]); sub-parameters of an enum choice are rejected when
    /// the choice does not use them.
    fn from_params<'a>(get: impl Fn(&str) -> Option<&'a str>) -> Result<Self, String> {
        let float = |name: &str| get(name).map(|v| param_f64(v, name)).transpose();
        let int = |name: &str, default: &str, lo: u64, hi: u64| {
            param_int(get(name).unwrap_or(default), name, lo, hi)
        };

        let power_kind = get("power").unwrap_or("zipf");
        if get("zipf-s").is_some() && power_kind != "zipf" {
            return Err("zipf-s only applies with power=zipf".to_string());
        }
        if get("adv-top").is_some() && power_kind != "adversarial" {
            return Err("adv-top only applies with power=adversarial".to_string());
        }
        let power = match power_kind {
            "uniform" => PowerDist::Uniform,
            "zipf" => PowerDist::Zipf { s: float("zipf-s")?.unwrap_or(-1.0) },
            "measured" => PowerDist::Measured,
            "adversarial" => PowerDist::Adversarial { top: float("adv-top")?.unwrap_or(0.45) },
            other => {
                return Err(format!(
                    "power must be uniform, zipf, measured or adversarial, got {other:?}"
                ))
            }
        };

        let econ_kind = get("econ").unwrap_or("ladder");
        for name in ["fee", "bw-lo", "bw-hi", "latency", "cost"] {
            if get(name).is_some() && econ_kind != "fee" {
                return Err(format!("{name} only applies with econ=fee"));
            }
        }
        let econ = match econ_kind {
            "ladder" => EconSpec::Ladder,
            "fee" => EconSpec::FeeMarket {
                fee_per_mb: float("fee")?.unwrap_or(0.05),
                bw_lo: float("bw-lo")?.unwrap_or(20.0),
                bw_hi: float("bw-hi")?.unwrap_or(300.0),
                latency: float("latency")?.unwrap_or(0.01),
                cost: float("cost")?.unwrap_or(0.2),
            },
            other => return Err(format!("econ must be ladder or fee, got {other:?}")),
        };

        let perturb_kind = get("perturb").unwrap_or("none");
        for name in ["trials", "kmax"] {
            if get(name).is_some() && perturb_kind != "random" {
                return Err(format!("{name} only applies with perturb=random"));
            }
        }
        let miners = int("miners", "4", 2, 512)? as u32;
        let perturb = match perturb_kind {
            "none" => PerturbSpec::None,
            "random" => PerturbSpec::Random {
                trials: int("trials", "100", 1, 100_000)? as u32,
                kmax: int("kmax", "4", 1, u64::from(miners))? as u32,
            },
            other => return Err(format!("perturb must be none or random, got {other:?}")),
        };

        let spec = GameSpec {
            miners,
            power,
            econ,
            threshold: float("threshold")?.unwrap_or(0.5),
            perturb,
            seed: get("seed")
                .map(|v| param_int(v, "seed", 0, u64::MAX))
                .transpose()?
                .unwrap_or(GAMES_SEED),
        };
        spec.validate()?;
        Ok(spec)
    }

    fn key(&self) -> String {
        let pow = match self.power {
            PowerDist::Uniform => "uni".to_string(),
            PowerDist::Zipf { s } => format!("zipf({s})"),
            PowerDist::Measured => "meas".to_string(),
            PowerDist::Adversarial { top } => format!("adv({}%)", top * 100.0),
        };
        let econ = match self.econ {
            EconSpec::Ladder => "ladder".to_string(),
            EconSpec::FeeMarket { fee_per_mb, bw_lo, bw_hi, latency, cost } => {
                format!("fee({fee_per_mb},{bw_lo}..{bw_hi},z{latency},c{cost})")
            }
        };
        let pert = match self.perturb {
            PerturbSpec::None => "none".to_string(),
            PerturbSpec::Random { trials, kmax } => format!("rand({trials},k{kmax})"),
        };
        format!(
            "game n={} pow={} econ={} tau={} pert={} s={}",
            self.miners, pow, econ, self.threshold, pert, self.seed
        )
    }

    /// `;`-separated with `f64`s as bit-pattern hex (the `bvc_cluster::jobs`
    /// convention). Fixed arity: enum payloads are flattened with `-`
    /// filling unused slots.
    fn encode_fields(&self) -> String {
        let (pt, pp) = match self.power {
            PowerDist::Uniform => ("u", "-".to_string()),
            PowerDist::Zipf { s } => ("z", f64_to_hex(s)),
            PowerDist::Measured => ("m", "-".to_string()),
            PowerDist::Adversarial { top } => ("a", f64_to_hex(top)),
        };
        let (et, e1, e2, e3, e4, e5) = match self.econ {
            EconSpec::Ladder => {
                let dash = || "-".to_string();
                ("l", dash(), dash(), dash(), dash(), dash())
            }
            EconSpec::FeeMarket { fee_per_mb, bw_lo, bw_hi, latency, cost } => (
                "f",
                f64_to_hex(fee_per_mb),
                f64_to_hex(bw_lo),
                f64_to_hex(bw_hi),
                f64_to_hex(latency),
                f64_to_hex(cost),
            ),
        };
        let (rt, r1, r2) = match self.perturb {
            PerturbSpec::None => ("n", "-".to_string(), "-".to_string()),
            PerturbSpec::Random { trials, kmax } => ("r", trials.to_string(), kmax.to_string()),
        };
        format!(
            "{};{pt};{pp};{et};{e1};{e2};{e3};{e4};{e5};{};{rt};{r1};{r2};{}",
            self.miners,
            f64_to_hex(self.threshold),
            self.seed,
        )
    }

    fn decode_fields(fields: &str) -> Option<Self> {
        let parts: Vec<&str> = fields.split(';').collect();
        let [miners, pt, pp, et, e1, e2, e3, e4, e5, tau, rt, r1, r2, seed] = parts.as_slice()
        else {
            return None;
        };
        let power = match (*pt, *pp) {
            ("u", "-") => PowerDist::Uniform,
            ("z", p) => PowerDist::Zipf { s: f64_from_hex(p)? },
            ("m", "-") => PowerDist::Measured,
            ("a", p) => PowerDist::Adversarial { top: f64_from_hex(p)? },
            _ => return None,
        };
        let econ = match (*et, *e1, *e2, *e3, *e4, *e5) {
            ("l", "-", "-", "-", "-", "-") => EconSpec::Ladder,
            ("f", f, lo, hi, z, c) => EconSpec::FeeMarket {
                fee_per_mb: f64_from_hex(f)?,
                bw_lo: f64_from_hex(lo)?,
                bw_hi: f64_from_hex(hi)?,
                latency: f64_from_hex(z)?,
                cost: f64_from_hex(c)?,
            },
            _ => return None,
        };
        let perturb = match (*rt, *r1, *r2) {
            ("n", "-", "-") => PerturbSpec::None,
            ("r", t, k) => PerturbSpec::Random { trials: t.parse().ok()?, kmax: k.parse().ok()? },
            _ => return None,
        };
        Some(GameSpec {
            miners: miners.parse().ok()?,
            power,
            econ,
            threshold: f64_from_hex(tau)?,
            perturb,
            seed: seed.parse().ok()?,
        })
    }

    /// Game cells never touch the MDP solver, so the token is the
    /// game-engine version plus the metric arity; the `games-grid`
    /// workload journals under it too, so a sweep journal preloads serve.
    fn config_token() -> String {
        format!("games-grid;v1;arity={GAME_METRIC_ARITY}")
    }

    fn check_work(&self) -> Result<(), String> {
        if let PerturbSpec::Random { trials, .. } = self.perturb {
            let work = u64::from(trials) * u64::from(self.miners) * u64::from(self.miners);
            if work > GAMES_WORK_CAP {
                return Err(format!(
                    "trials*miners^2 is capped at {GAMES_WORK_CAP} per request (got {work}); run \
                     larger cells through the games-grid sweep workload"
                ));
            }
        }
        Ok(())
    }

    fn solve(&self, _opts: &SolveOptions) -> Result<Vec<f64>, MdpError> {
        solve_game_cell(self)
            .map_err(|detail| MdpError::AuditFailed { check: "game cell spec", detail })
    }

    fn metrics(&self, _vals: &[f64]) -> &'static [Metric] {
        &GAME_METRICS
    }

    fn echo(&self) -> Vec<(&'static str, Value)> {
        vec![("miners", Value::Int(u64::from(self.miners)))]
    }
}

impl GameSpec {
    /// The effective per-cell RNG seed: the base seed XOR the FNV-1a hash
    /// of the cell key — the `bvc-chaos` per-site discipline, so sibling
    /// cells decorrelate even under a shared base seed and the stream
    /// depends only on the cell itself (never on scheduling).
    pub fn cell_seed(&self) -> u64 {
        self.seed ^ fnv1a64(self.key().as_bytes())
    }

    /// Structural validation; solvers and front ends call this before
    /// running. The bounds double as per-cell work caps: every analysis a
    /// valid cell triggers is polynomial except the exhaustive EB searches,
    /// which the solver switches to analytic/greedy forms past their caps.
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=512).contains(&self.miners) {
            return Err(format!("miners must be in 2..=512, got {}", self.miners));
        }
        if !(self.threshold.is_finite() && (0.0..=1.0).contains(&self.threshold)) {
            return Err(format!("pass threshold must be in [0, 1], got {}", self.threshold));
        }
        match self.power {
            PowerDist::Uniform | PowerDist::Measured => {}
            PowerDist::Zipf { s } => {
                if !(s.is_finite() && (-10.0..=10.0).contains(&s)) {
                    return Err(format!("zipf exponent must be in [-10, 10], got {s}"));
                }
            }
            PowerDist::Adversarial { top } => {
                if !(top.is_finite() && top > 0.0 && top < 1.0) {
                    return Err(format!("adversarial top share must be in (0, 1), got {top}"));
                }
            }
        }
        if let EconSpec::FeeMarket { fee_per_mb, bw_lo, bw_hi, latency, cost } = self.econ {
            for (name, v) in
                [("fee", fee_per_mb), ("bw_lo", bw_lo), ("bw_hi", bw_hi), ("cost", cost)]
            {
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("fee-market {name} must be finite and > 0, got {v}"));
                }
            }
            if !(latency.is_finite() && latency >= 0.0) {
                return Err(format!("fee-market latency must be finite and >= 0, got {latency}"));
            }
            if !(bw_lo < bw_hi && bw_hi <= 1e9) {
                return Err(format!("need bw_lo < bw_hi <= 1e9, got {bw_lo}..{bw_hi}"));
            }
            // mpb_groups panics when *no* miner is profitable; profitability
            // is monotone in bandwidth, so checking the fastest miner keeps
            // every valid cell panic-free.
            let fastest = bvc_games::MinerEconomics {
                reward: 1.0,
                fee_per_mb,
                bandwidth: bw_hi,
                latency,
                cost,
            };
            if fastest.max_profitable_size().is_none() {
                return Err("fee-market leaves every miner unprofitable".to_string());
            }
        }
        if let PerturbSpec::Random { trials, kmax } = self.perturb {
            if trials == 0 || trials > 100_000 {
                return Err(format!("perturb trials must be in 1..=100000, got {trials}"));
            }
            if kmax == 0 || kmax > self.miners {
                return Err(format!(
                    "perturb kmax must be in 1..=miners ({}), got {kmax}",
                    self.miners
                ));
            }
            let work = u64::from(trials) * u64::from(self.miners) * u64::from(self.miners);
            if work > 100_000_000 {
                return Err(format!("perturb work trials*miners^2 must stay <= 1e8, got {work}"));
            }
        }
        Ok(())
    }
}

/// One shard of the coalition-frontier search: over the block size
/// increasing game of `spec`, examine the size-`size` committed coalitions
/// whose lexicographic ranks fall in this shard's slice of `C(m, size)`.
/// The frontier is *explicit* — every (size, shard) pair is its own
/// journaled cell — which is what makes the exponential expansion
/// resumable and byte-identically distributable.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierSpec {
    /// The underlying game cell (frontier cells require [`EconSpec::Ladder`]
    /// so the group count equals the miner count statically).
    pub spec: GameSpec,
    /// Coalition size `k` examined by this frontier layer.
    pub size: u32,
    /// Shard index within the layer, `0..shards`.
    pub shard: u32,
    /// Number of shards the layer is split into.
    pub shards: u32,
}

/// Largest miner count a frontier cell may reference: coalition masks must
/// stay exactly representable in an `f64` metric and `C(n, k)` bounded.
pub const FRONTIER_MINER_CAP: u32 = 24;

/// Largest number of coalitions one frontier cell may examine.
pub const FRONTIER_CELL_CAP: u64 = 2_000_000;

/// Number of `k`-subsets of `n` elements, saturating at `u64::MAX`.
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut c: u128 = 1;
    for i in 1..=k {
        // Exact at every step: C(n, i) = C(n, i-1) * (n - i + 1) / i.
        c = c * u128::from(n - i + 1) / u128::from(i);
        if c > u128::from(u64::MAX) {
            return u64::MAX;
        }
    }
    c as u64
}

/// Every parameter name [`FrontierSpec`]'s `from_params` reads: the game
/// parameters plus the shard coordinates.
const FRONTIER_PARAMS: [&str; 18] = {
    let mut all = [""; 18];
    let mut i = 0;
    while i < GAME_PARAMS.len() {
        all[i] = GAME_PARAMS[i];
        i += 1;
    }
    all[15] = "size";
    all[16] = "shard";
    all[17] = "shards";
    all
};

/// Serve-side cap on the coalition count of one frontier request, far
/// below [`FRONTIER_CELL_CAP`]: wide layers belong in the `games-frontier`
/// sweep workload, sharded across workers.
const FRONTIER_WORK_CAP: u64 = 100_000;

/// The metrics of a frontier shard: the counts and the base terminal, then
/// the best coalition found, which [`NO_CARTEL`] shards leave out.
const FRONTIER_METRICS: [Metric; FRONTIER_METRIC_ARITY] = [
    Metric::int("examined", 0),
    Metric::int("effective", 1),
    Metric::int("base_terminal", 5),
    Metric::int("best_terminal", 2),
    Metric::int("best_mask", 3),
    Metric::num("min_cartel_power", 4),
];

impl Cell for FrontierSpec {
    const TAG: &'static str = "gf";

    const PARAMS: &'static [&'static str] = &FRONTIER_PARAMS;

    const ARITY: usize = FRONTIER_METRIC_ARITY;

    /// The game parameters ([`GameSpec`]'s `from_params`) plus the shard
    /// coordinates (`size` required; `shard`/`shards` default to the
    /// unsharded layer), then [`FrontierSpec::validate`].
    fn from_params<'a>(get: impl Fn(&str) -> Option<&'a str>) -> Result<Self, String> {
        let spec = GameSpec::from_params(&get)?;
        let shards =
            get("shards").map(|v| param_int(v, "shards", 1, 1 << 20)).transpose()?.unwrap_or(1);
        let size = get("size").ok_or("frontier requests need size (coalition size k)")?;
        let frontier = FrontierSpec {
            size: param_int(size, "size", 1, 23)? as u32,
            shard: get("shard")
                .map(|v| param_int(v, "shard", 0, shards - 1))
                .transpose()?
                .unwrap_or(0) as u32,
            shards: shards as u32,
            spec,
        };
        frontier.validate()?;
        Ok(frontier)
    }

    /// Extends the game key.
    fn key(&self) -> String {
        format!("{} frontier k={} shard={}/{}", self.spec.key(), self.size, self.shard, self.shards)
    }

    /// The frontier fields prefixed onto the full game encoding.
    fn encode_fields(&self) -> String {
        format!("{};{};{};{}", self.size, self.shard, self.shards, self.spec.encode())
    }

    fn decode_fields(fields: &str) -> Option<Self> {
        let mut parts = fields.splitn(4, ';');
        let size = parts.next()?.parse().ok()?;
        let shard = parts.next()?.parse().ok()?;
        let shards = parts.next()?.parse().ok()?;
        let spec = GameSpec::decode(parts.next()?)?;
        Some(FrontierSpec { spec, size, shard, shards })
    }

    /// The game-engine version plus the metric arity, shared with the
    /// `games-frontier` workload.
    fn config_token() -> String {
        format!("games-frontier;v1;arity={FRONTIER_METRIC_ARITY}")
    }

    fn check_work(&self) -> Result<(), String> {
        self.spec.check_work()?;
        let (lo, hi) = self.rank_range();
        if hi - lo > FRONTIER_WORK_CAP {
            return Err(format!(
                "coalitions per shard are capped at {FRONTIER_WORK_CAP} per request (got {}); \
                 raise shards or run the games-frontier sweep workload",
                hi - lo
            ));
        }
        Ok(())
    }

    fn solve(&self, _opts: &SolveOptions) -> Result<Vec<f64>, MdpError> {
        solve_frontier_cell(self)
            .map_err(|detail| MdpError::AuditFailed { check: "frontier cell spec", detail })
    }

    fn metrics(&self, vals: &[f64]) -> &'static [Metric] {
        if vals.get(4).is_some_and(|&cartel| cartel < NO_CARTEL) {
            &FRONTIER_METRICS
        } else {
            &FRONTIER_METRICS[..3]
        }
    }

    fn echo(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("size", Value::Int(u64::from(self.size))),
            ("shard", Value::Int(u64::from(self.shard))),
            ("shards", Value::Int(u64::from(self.shards))),
        ]
    }
}

impl FrontierSpec {
    /// The lexicographic-rank range `[lo, hi)` of coalitions this shard
    /// covers, out of `C(miners, size)` total.
    pub fn rank_range(&self) -> (u64, u64) {
        let total = binomial(u64::from(self.spec.miners), u64::from(self.size));
        let per = total.div_ceil(u64::from(self.shards.max(1)));
        let lo = per.saturating_mul(u64::from(self.shard)).min(total);
        let hi = lo.saturating_add(per).min(total);
        (lo, hi)
    }

    /// Structural validation (includes the underlying game spec).
    pub fn validate(&self) -> Result<(), String> {
        self.spec.validate()?;
        if self.spec.econ != EconSpec::Ladder {
            return Err("frontier cells require econ=ladder (static group count)".to_string());
        }
        if self.spec.miners > FRONTIER_MINER_CAP {
            return Err(format!(
                "frontier cells need miners <= {FRONTIER_MINER_CAP}, got {}",
                self.spec.miners
            ));
        }
        if self.size == 0 || self.size >= self.spec.miners {
            return Err(format!(
                "coalition size must be in 1..miners ({}), got {}",
                self.spec.miners, self.size
            ));
        }
        if self.shards == 0 || self.shard >= self.shards {
            return Err(format!(
                "need shard < shards with shards >= 1, got {}/{}",
                self.shard, self.shards
            ));
        }
        let (lo, hi) = self.rank_range();
        if hi - lo > FRONTIER_CELL_CAP {
            return Err(format!(
                "frontier cell would examine {} coalitions, cap is {FRONTIER_CELL_CAP}",
                hi - lo
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn sample_specs() -> Vec<GameSpec> {
        let base = GameSpec {
            miners: 4,
            power: PowerDist::Zipf { s: -1.0 },
            econ: EconSpec::Ladder,
            threshold: 0.5,
            perturb: PerturbSpec::None,
            seed: 2017,
        };
        vec![
            base.clone(),
            GameSpec { miners: 12, power: PowerDist::Measured, ..base.clone() },
            GameSpec { miners: 50, power: PowerDist::Uniform, threshold: 0.9, ..base.clone() },
            GameSpec {
                miners: 16,
                power: PowerDist::Adversarial { top: 0.45 },
                perturb: PerturbSpec::Random { trials: 200, kmax: 4 },
                ..base.clone()
            },
            GameSpec {
                miners: 24,
                power: PowerDist::Zipf { s: 1.0 },
                econ: EconSpec::FeeMarket {
                    fee_per_mb: 0.05,
                    bw_lo: 20.0,
                    bw_hi: 300.0,
                    latency: 0.01,
                    cost: 0.2,
                },
                ..base
            },
        ]
    }

    /// Serve's unknown-name check trusts `PARAMS`: the schemas must never
    /// read a name outside them, on any enum branch.
    #[test]
    fn from_params_reads_only_its_exported_names() {
        let queries: [&[(&str, &str)]; 3] = [
            &[("size", "1")],
            &[("power", "adversarial"), ("econ", "fee"), ("size", "1")],
            &[("perturb", "random"), ("size", "2"), ("shards", "2")],
        ];
        for query in queries {
            let asked = std::cell::RefCell::new(Vec::new());
            let _ = FrontierSpec::from_params(|name| {
                asked.borrow_mut().push(name.to_string());
                query.iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
            });
            for name in asked.into_inner() {
                assert!(
                    GameSpec::PARAMS.contains(&name.as_str())
                        || FrontierSpec::PARAMS.contains(&name.as_str()),
                    "{name} not exported"
                );
            }
        }
        assert_eq!(GameSpec::from_params(|_| None), Ok(crate::figure4_spec()));
    }

    #[test]
    fn wire_roundtrip_preserves_every_spec() {
        for spec in sample_specs() {
            let wire = spec.encode();
            let back = GameSpec::decode(&wire).unwrap_or_else(|| panic!("decode {wire}"));
            assert_eq!(back, spec);
            assert_eq!(back.encode(), wire, "re-encode must be canonical");
            let f = FrontierSpec { spec, size: 2, shard: 1, shards: 3 };
            let fwire = f.encode();
            let fback = FrontierSpec::decode(&fwire).unwrap_or_else(|| panic!("decode {fwire}"));
            assert_eq!(fback, f);
            assert_eq!(fback.encode(), fwire);
        }
    }

    #[test]
    fn keys_are_unique_and_stable() {
        let specs = sample_specs();
        let keys: std::collections::BTreeSet<String> = specs.iter().map(|s| s.key()).collect();
        assert_eq!(keys.len(), specs.len(), "keys must be unique");
        // Pin the key formats: downstream journals key on these strings.
        assert_eq!(specs[0].key(), "game n=4 pow=zipf(-1) econ=ladder tau=0.5 pert=none s=2017");
        let f = FrontierSpec { spec: specs[0].clone(), size: 2, shard: 0, shards: 1 };
        assert_eq!(
            f.key(),
            "game n=4 pow=zipf(-1) econ=ladder tau=0.5 pert=none s=2017 frontier k=2 shard=0/1"
        );
    }

    #[test]
    fn decode_rejects_malformed_wire() {
        let good = sample_specs()[0].encode();
        assert!(GameSpec::decode(&good).is_some());
        for bad in [
            "",
            "gm;4",
            "sc;40;u;-;1;16;6;0;z;-;-;rg;h;-;-;-;500;7",
            &good.replace("gm;", "zz;"),
            &good.replace(";l;", ";q;"),
        ] {
            assert!(GameSpec::decode(bad).is_none(), "must reject {bad:?}");
        }
        let fgood =
            FrontierSpec { spec: sample_specs()[0].clone(), size: 1, shard: 0, shards: 1 }.encode();
        assert!(FrontierSpec::decode(&fgood).is_some());
        for bad in ["", "gf;1;0;1", "gf;1;0;1;zz;4", &fgood.replace("gf;", "gm;")] {
            assert!(FrontierSpec::decode(bad).is_none(), "must reject {bad:?}");
        }
    }

    #[test]
    fn cell_seed_follows_per_site_discipline() {
        let specs = sample_specs();
        assert_ne!(specs[0].cell_seed(), specs[1].cell_seed());
        assert_eq!(specs[0].cell_seed(), specs[0].cell_seed());
        let reseeded = GameSpec { seed: 2018, ..specs[0].clone() };
        assert_ne!(reseeded.cell_seed(), specs[0].cell_seed());
    }

    #[test]
    fn shares_normalize_and_shape() {
        for dist in [
            PowerDist::Uniform,
            PowerDist::Zipf { s: 1.0 },
            PowerDist::Zipf { s: -1.0 },
            PowerDist::Measured,
            PowerDist::Adversarial { top: 0.45 },
        ] {
            for n in [2, 4, 25, 400] {
                let w = dist.shares(n);
                assert_eq!(w.len(), n);
                assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                assert!(w.iter().all(|&x| x > 0.0));
            }
        }
        // Figure 4 is Zipf(-1) over four miners.
        let fig4 = PowerDist::Zipf { s: -1.0 }.shares(4);
        for (got, want) in fig4.iter().zip([0.1, 0.2, 0.3, 0.4]) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
        let adv = PowerDist::Adversarial { top: 0.45 }.shares(12);
        assert!((adv[11] - 0.45).abs() < 1e-12);
    }

    #[test]
    fn binomial_is_exact_and_saturating() {
        assert_eq!(binomial(4, 2), 6);
        assert_eq!(binomial(20, 3), 1140);
        assert_eq!(binomial(24, 12), 2_704_156);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(200, 100), u64::MAX, "saturates instead of overflowing");
    }

    #[test]
    fn frontier_rank_ranges_partition_the_layer() {
        let spec = sample_specs()[1].clone(); // 12 miners, ladder
        let shards = 5;
        let total = binomial(12, 3);
        let mut covered = 0;
        for shard in 0..shards {
            let f = FrontierSpec { spec: spec.clone(), size: 3, shard, shards };
            f.validate().unwrap();
            let (lo, hi) = f.rank_range();
            assert_eq!(lo, covered, "shards must tile contiguously");
            covered = hi;
        }
        assert_eq!(covered, total);
    }

    #[test]
    fn validate_flags_bad_specs() {
        for s in sample_specs() {
            assert!(s.validate().is_ok(), "{}: {:?}", s.key(), s.validate());
        }
        let base = sample_specs()[0].clone();
        let fee = EconSpec::FeeMarket {
            fee_per_mb: 0.05,
            bw_lo: 20.0,
            bw_hi: 300.0,
            latency: 0.01,
            cost: 0.2,
        };
        let bad = [
            GameSpec { miners: 1, ..base.clone() },
            GameSpec { miners: 10_000, ..base.clone() },
            GameSpec { threshold: 1.5, ..base.clone() },
            GameSpec { power: PowerDist::Zipf { s: f64::NAN }, ..base.clone() },
            GameSpec { power: PowerDist::Adversarial { top: 1.0 }, ..base.clone() },
            GameSpec {
                econ: EconSpec::FeeMarket {
                    fee_per_mb: 0.05,
                    bw_lo: 20.0,
                    bw_hi: 10.0,
                    latency: 0.01,
                    cost: 0.2,
                },
                ..base.clone()
            },
            GameSpec {
                econ: EconSpec::FeeMarket {
                    fee_per_mb: 0.001,
                    bw_lo: 1.0,
                    bw_hi: 2.0,
                    latency: 0.01,
                    cost: 5.0,
                },
                ..base.clone()
            },
            GameSpec { perturb: PerturbSpec::Random { trials: 0, kmax: 2 }, ..base.clone() },
            GameSpec { perturb: PerturbSpec::Random { trials: 10, kmax: 9 }, ..base.clone() },
            GameSpec {
                miners: 500,
                perturb: PerturbSpec::Random { trials: 100_000, kmax: 4 },
                ..base.clone()
            },
        ];
        for s in bad {
            assert!(s.validate().is_err(), "must reject {}", s.key());
        }
        let fbase = FrontierSpec { spec: base.clone(), size: 2, shard: 0, shards: 1 };
        assert!(fbase.validate().is_ok());
        let fee_spec = GameSpec { econ: fee, miners: 24, ..base.clone() };
        let fbad = [
            FrontierSpec { size: 0, ..fbase.clone() },
            FrontierSpec { size: 4, ..fbase.clone() },
            FrontierSpec { shard: 1, shards: 1, ..fbase.clone() },
            FrontierSpec { shards: 0, ..fbase.clone() },
            FrontierSpec { spec: fee_spec, ..fbase.clone() },
            FrontierSpec { spec: GameSpec { miners: 48, ..base.clone() }, ..fbase.clone() },
            FrontierSpec { spec: GameSpec { miners: 24, ..base }, size: 12, shard: 0, shards: 1 },
        ];
        for f in fbad {
            assert!(f.validate().is_err(), "must reject {}", f.key());
        }
    }
}
