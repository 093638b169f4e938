//! The scenario cell type: a fully-deterministic description of one BU
//! network simulation, with a stable human-readable key, a compact wire
//! encoding, and the per-cell seeding discipline that makes every cell
//! replay bit-identically at any thread or worker count.

use bvc_journal::{f64_from_hex, f64_to_hex, fnv1a64, param_f64, param_int};

use crate::grid::GRID_SEED;

/// How mining power is distributed across the compliant nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HashDist {
    /// Every compliant node gets the same share.
    Uniform,
    /// Node `i` gets a share proportional to `1 / (i + 1)^s` — a few big
    /// pools and a long tail, the empirical shape of Bitcoin's hash rate.
    Zipf {
        /// The Zipf exponent (`0` degenerates to uniform).
        s: f64,
    },
    /// Shares follow the early-2017 pool distribution (AntPool, F2Pool,
    /// BTC.com, ...) from the period the paper snapshots; for node counts
    /// beyond the table the tail repeats and everything renormalizes.
    Measured,
}

/// Early-2017 pool shares (fractions of the network), largest first. Only
/// the *shape* matters — [`HashDist::weights`] renormalizes — so the tail
/// cycling for large node counts is harmless.
const MEASURED_SHARES: [f64; 12] =
    [0.18, 0.13, 0.11, 0.095, 0.08, 0.07, 0.06, 0.05, 0.04, 0.035, 0.03, 0.02];

impl HashDist {
    /// Normalized per-node weights for `n` compliant nodes (sum exactly
    /// rescaled to 1 up to rounding; every weight is strictly positive).
    pub fn weights(&self, n: usize) -> Vec<f64> {
        assert!(n > 0, "need at least one compliant node");
        let raw: Vec<f64> = match self {
            HashDist::Uniform => vec![1.0; n],
            HashDist::Zipf { s } => (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(*s)).collect(),
            HashDist::Measured => {
                (0..n).map(|i| MEASURED_SHARES[i % MEASURED_SHARES.len()]).collect()
            }
        };
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / total).collect()
    }
}

/// Propagation-delay model, in expected block intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelaySpec {
    /// Instantaneous propagation — the paper's threat model.
    Zero,
    /// The same delay between every pair.
    Constant {
        /// Pair delay (block intervals).
        d: f64,
    },
    /// Symmetric per-pair delays drawn uniformly from `[min, max)`,
    /// derived statelessly from the cell seed (O(1) memory at any node
    /// count).
    Uniform {
        /// Smallest pair delay.
        min: f64,
        /// Exclusive upper bound on pair delays.
        max: f64,
    },
    /// Ring topology: delay is `per_hop` times the ring distance — the
    /// cheapest topology-aware model, with well-connected neighbours and
    /// distant far sides.
    Ring {
        /// Delay per ring hop.
        per_hop: f64,
    },
}

/// Which acceptance rule every node in the scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// The sticky-gate *spec* rule (Rizun's description; `sticky: false`
    /// disables the gate, which is the paper's setting-1 model).
    Rizun {
        /// Whether the 144-block sticky gate is enabled.
        sticky: bool,
    },
    /// The buggy March-2017 source-code rule of §2.2 (latest-AD clause
    /// plus the `[h − AD − 143, h − AD + 1]` window clause).
    SourceCode,
}

/// The attacker in the scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackerSpec {
    /// No attacker: every node mines honestly.
    Honest,
    /// A lead-k Cryptoconomy splitter with hash share `alpha`: injects
    /// `EB_C`-sized split blocks, races while competitive, concedes once
    /// the victims lead by `k`.
    LeadK {
        /// Attacker's hash-rate share.
        alpha: f64,
        /// Give-up lead.
        k: u32,
    },
    /// The optimal MDP policy for Table 2's setting-1 cell
    /// `(alpha, ratio)`, decoded from the solved cell's action table and
    /// replayed on the network (see `NetworkReplay`).
    Mdp {
        /// Attacker's hash-rate share.
        alpha: f64,
        /// Bob:Carol power ratio of the compliant groups.
        ratio: (u32, u32),
    },
}

/// One scenario cell: everything needed to reproduce a network run
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Total node count, attacker included when present.
    pub nodes: u32,
    /// Hash-rate distribution over the compliant nodes.
    pub hash: HashDist,
    /// The small group's excessive-block limit, in MB.
    pub eb_small_mb: u32,
    /// The large group's excessive-block limit, in MB.
    pub eb_large_mb: u32,
    /// Excessive acceptance depth (same for all nodes, as in the paper).
    pub ad: u8,
    /// Fraction of compliant nodes assigned the large `EB` (the split is
    /// deterministic and interleaved, see `run_scenario`).
    pub large_frac: f64,
    /// Propagation delays.
    pub delay: DelaySpec,
    /// Acceptance rule run by every node.
    pub rule: RuleKind,
    /// The attacker.
    pub attacker: AttackerSpec,
    /// Blocks to mine (simulation length / replay steps).
    pub blocks: u32,
    /// Base seed; the effective RNG seed is mixed with the cell key
    /// ([`ScenarioSpec::cell_seed`]).
    pub seed: u64,
}

impl ScenarioSpec {
    /// Every parameter name [`ScenarioSpec::from_params`] reads: serve's
    /// `GET /v1/scenario` query names and the `bvc scenario` flags.
    pub const PARAMS: [&'static str; 19] = [
        "nodes",
        "blocks",
        "seed",
        "hash",
        "zipf-s",
        "eb-small",
        "eb-large",
        "ad",
        "large-frac",
        "delay",
        "delay-d",
        "delay-min",
        "delay-max",
        "per-hop",
        "rule",
        "attacker",
        "alpha",
        "k",
        "ratio",
    ];

    /// The scenario parameter schema: builds a validated spec from a
    /// `name → text` lookup (serve's query string, the CLI's flags).
    /// Defaults mirror the grid's base cell (40 uniform nodes, `EB` 1/16
    /// MB, `AD` 6, zero delay, sticky Rizun rule, honest miners, 1500
    /// blocks, seed [`GRID_SEED`]); sub-parameters of an enum choice are
    /// rejected when the choice does not use them, so typos fail loudly
    /// instead of being ignored. An `attacker=mdp` cell defaults `rule` to
    /// `rizun-nogate` (the only rule the replay is defined for).
    pub fn from_params<'a>(get: impl Fn(&str) -> Option<&'a str>) -> Result<Self, String> {
        let float = |name: &str| get(name).map(|v| param_f64(v, name)).transpose();
        let int = |name: &str, default: &str, lo: u64, hi: u64| {
            param_int(get(name).unwrap_or(default), name, lo, hi)
        };

        let hash_kind = get("hash").unwrap_or("uniform");
        if get("zipf-s").is_some() && hash_kind != "zipf" {
            return Err("zipf-s only applies with hash=zipf".to_string());
        }
        let hash = match hash_kind {
            "uniform" => HashDist::Uniform,
            "zipf" => HashDist::Zipf { s: float("zipf-s")?.unwrap_or(1.0) },
            "measured" => HashDist::Measured,
            other => return Err(format!("hash must be uniform, zipf or measured, got {other:?}")),
        };

        let delay_kind = get("delay").unwrap_or("zero");
        for (name, needs) in [
            ("delay-d", "constant"),
            ("delay-min", "uniform"),
            ("delay-max", "uniform"),
            ("per-hop", "ring"),
        ] {
            if get(name).is_some() && delay_kind != needs {
                return Err(format!("{name} only applies with delay={needs}"));
            }
        }
        let delay = match delay_kind {
            "zero" => DelaySpec::Zero,
            "constant" => DelaySpec::Constant { d: float("delay-d")?.unwrap_or(0.05) },
            "uniform" => DelaySpec::Uniform {
                min: float("delay-min")?.unwrap_or(0.0),
                max: float("delay-max")?.unwrap_or(0.2),
            },
            "ring" => DelaySpec::Ring { per_hop: float("per-hop")?.unwrap_or(0.01) },
            other => {
                return Err(format!("delay must be zero, constant, uniform or ring, got {other:?}"))
            }
        };

        let atk_kind = get("attacker").unwrap_or("honest");
        if atk_kind == "honest" && get("alpha").is_some() {
            return Err("alpha only applies with attacker=lead-k or attacker=mdp".to_string());
        }
        if get("k").is_some() && atk_kind != "lead-k" {
            return Err("k only applies with attacker=lead-k".to_string());
        }
        if get("ratio").is_some() && atk_kind != "mdp" {
            return Err("ratio only applies with attacker=mdp".to_string());
        }
        let attacker = match atk_kind {
            "honest" => AttackerSpec::Honest,
            "lead-k" => AttackerSpec::LeadK {
                alpha: float("alpha")?.ok_or("attacker=lead-k needs alpha")?,
                k: int("k", "2", 1, 64)? as u32,
            },
            "mdp" => AttackerSpec::Mdp {
                alpha: float("alpha")?.ok_or("attacker=mdp needs alpha")?,
                ratio: bvc_bu::parse_ratio(get("ratio").unwrap_or("1:1"))?,
            },
            other => return Err(format!("attacker must be honest, lead-k or mdp, got {other:?}")),
        };

        let rule_default =
            if matches!(attacker, AttackerSpec::Mdp { .. }) { "rizun-nogate" } else { "rizun" };
        let rule = match get("rule").unwrap_or(rule_default) {
            "rizun" => RuleKind::Rizun { sticky: true },
            "rizun-nogate" => RuleKind::Rizun { sticky: false },
            "srccode" => RuleKind::SourceCode,
            other => {
                return Err(format!("rule must be rizun, rizun-nogate or srccode, got {other:?}"))
            }
        };

        let spec = ScenarioSpec {
            nodes: int("nodes", "40", 2, 10_000)? as u32,
            hash,
            eb_small_mb: int("eb-small", "1", 1, 32)? as u32,
            eb_large_mb: int("eb-large", "16", 1, 32)? as u32,
            ad: int("ad", "6", 1, 24)? as u8,
            large_frac: float("large-frac")?.unwrap_or(0.4),
            delay,
            rule,
            attacker,
            blocks: int("blocks", "1500", 1, u64::from(u32::MAX))? as u32,
            seed: get("seed")
                .map(|v| param_int(v, "seed", 0, u64::MAX))
                .transpose()?
                .unwrap_or(GRID_SEED),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Human-readable cell key; unique per spec, stable across versions
    /// (it is the journal key scenario fingerprints derive from).
    pub fn key(&self) -> String {
        let hash = match self.hash {
            HashDist::Uniform => "uni".to_string(),
            HashDist::Zipf { s } => format!("zipf({s})"),
            HashDist::Measured => "meas".to_string(),
        };
        let delay = match self.delay {
            DelaySpec::Zero => "zero".to_string(),
            DelaySpec::Constant { d } => format!("const({d})"),
            DelaySpec::Uniform { min, max } => format!("uni({min}..{max})"),
            DelaySpec::Ring { per_hop } => format!("ring({per_hop})"),
        };
        let rule = match self.rule {
            RuleKind::Rizun { sticky: true } => "rizun",
            RuleKind::Rizun { sticky: false } => "rizun-nogate",
            RuleKind::SourceCode => "srccode",
        };
        let atk = match self.attacker {
            AttackerSpec::Honest => "honest".to_string(),
            AttackerSpec::LeadK { alpha, k } => format!("lead{k}({}%)", alpha * 100.0),
            AttackerSpec::Mdp { alpha, ratio } => {
                format!("mdp({}%,{}:{})", alpha * 100.0, ratio.0, ratio.1)
            }
        };
        format!(
            "scn n={} hash={} eb={}/{} ad={} large={}% delay={} rule={} atk={} b={} s={}",
            self.nodes,
            hash,
            self.eb_small_mb,
            self.eb_large_mb,
            self.ad,
            self.large_frac * 100.0,
            delay,
            rule,
            atk,
            self.blocks,
            self.seed,
        )
    }

    /// Compact wire encoding, `;`-separated with `f64`s as bit-pattern
    /// hex (the `bvc_cluster::jobs` convention). Fixed arity: enum
    /// payloads are flattened with `-` filling unused slots.
    pub fn encode(&self) -> String {
        let (ht, hp) = match self.hash {
            HashDist::Uniform => ("u", "-".to_string()),
            HashDist::Zipf { s } => ("z", f64_to_hex(s)),
            HashDist::Measured => ("m", "-".to_string()),
        };
        let (dt, d1, d2) = match self.delay {
            DelaySpec::Zero => ("z", "-".to_string(), "-".to_string()),
            DelaySpec::Constant { d } => ("c", f64_to_hex(d), "-".to_string()),
            DelaySpec::Uniform { min, max } => ("u", f64_to_hex(min), f64_to_hex(max)),
            DelaySpec::Ring { per_hop } => ("r", f64_to_hex(per_hop), "-".to_string()),
        };
        let rt = match self.rule {
            RuleKind::Rizun { sticky: true } => "rg",
            RuleKind::Rizun { sticky: false } => "rn",
            RuleKind::SourceCode => "sc",
        };
        let (at, a1, a2, a3) = match self.attacker {
            AttackerSpec::Honest => ("h", "-".to_string(), "-".to_string(), "-".to_string()),
            AttackerSpec::LeadK { alpha, k } => {
                ("l", f64_to_hex(alpha), k.to_string(), "-".to_string())
            }
            AttackerSpec::Mdp { alpha, ratio } => {
                ("m", f64_to_hex(alpha), ratio.0.to_string(), ratio.1.to_string())
            }
        };
        format!(
            "sc;{};{ht};{hp};{};{};{};{};{dt};{d1};{d2};{rt};{at};{a1};{a2};{a3};{};{}",
            self.nodes,
            self.eb_small_mb,
            self.eb_large_mb,
            self.ad,
            f64_to_hex(self.large_frac),
            self.blocks,
            self.seed,
        )
    }

    /// Inverse of [`ScenarioSpec::encode`]; `None` on any malformed field.
    pub fn decode(wire: &str) -> Option<Self> {
        let parts: Vec<&str> = wire.split(';').collect();
        let [tag, nodes, ht, hp, eb_s, eb_l, ad, lf, dt, d1, d2, rt, at, a1, a2, a3, blocks, seed] =
            parts.as_slice()
        else {
            return None;
        };
        if *tag != "sc" {
            return None;
        }
        let hash = match (*ht, *hp) {
            ("u", "-") => HashDist::Uniform,
            ("z", p) => HashDist::Zipf { s: f64_from_hex(p)? },
            ("m", "-") => HashDist::Measured,
            _ => return None,
        };
        let delay = match (*dt, *d1, *d2) {
            ("z", "-", "-") => DelaySpec::Zero,
            ("c", d, "-") => DelaySpec::Constant { d: f64_from_hex(d)? },
            ("u", lo, hi) => DelaySpec::Uniform { min: f64_from_hex(lo)?, max: f64_from_hex(hi)? },
            ("r", p, "-") => DelaySpec::Ring { per_hop: f64_from_hex(p)? },
            _ => return None,
        };
        let rule = match *rt {
            "rg" => RuleKind::Rizun { sticky: true },
            "rn" => RuleKind::Rizun { sticky: false },
            "sc" => RuleKind::SourceCode,
            _ => return None,
        };
        let attacker = match (*at, *a1, *a2, *a3) {
            ("h", "-", "-", "-") => AttackerSpec::Honest,
            ("l", a, k, "-") => AttackerSpec::LeadK { alpha: f64_from_hex(a)?, k: k.parse().ok()? },
            ("m", a, b, g) => AttackerSpec::Mdp {
                alpha: f64_from_hex(a)?,
                ratio: (b.parse().ok()?, g.parse().ok()?),
            },
            _ => return None,
        };
        Some(ScenarioSpec {
            nodes: nodes.parse().ok()?,
            hash,
            eb_small_mb: eb_s.parse().ok()?,
            eb_large_mb: eb_l.parse().ok()?,
            ad: ad.parse().ok()?,
            large_frac: f64_from_hex(lf)?,
            delay,
            rule,
            attacker,
            blocks: blocks.parse().ok()?,
            seed: seed.parse().ok()?,
        })
    }

    /// The effective per-cell RNG seed: the base seed XOR the FNV-1a hash
    /// of the cell key — the `bvc-chaos` per-site discipline, so sibling
    /// cells in a grid decorrelate even under a shared base seed, and the
    /// stream depends only on the cell itself (never on scheduling).
    pub fn cell_seed(&self) -> u64 {
        self.seed ^ fnv1a64(self.key().as_bytes())
    }

    /// Structural validation; scenario engines call this before running.
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=10_000).contains(&self.nodes) {
            return Err(format!("nodes must be in 2..=10000, got {}", self.nodes));
        }
        let work = u64::from(self.nodes) * u64::from(self.blocks);
        if self.blocks == 0 || work > 50_000_000 {
            return Err(format!(
                "blocks must be >= 1 with nodes*blocks <= 50e6, got {} * {}",
                self.nodes, self.blocks
            ));
        }
        if self.eb_small_mb == 0 || self.eb_small_mb > self.eb_large_mb || self.eb_large_mb > 32 {
            return Err(format!(
                "need 1 <= eb_small <= eb_large <= 32 MB, got {}/{}",
                self.eb_small_mb, self.eb_large_mb
            ));
        }
        if self.ad == 0 {
            return Err("AD must be >= 1".to_string());
        }
        if !(0.0..=1.0).contains(&self.large_frac) || !self.large_frac.is_finite() {
            return Err(format!("large_frac must be in [0, 1], got {}", self.large_frac));
        }
        if let HashDist::Zipf { s } = self.hash {
            if !(0.0..=10.0).contains(&s) || !s.is_finite() {
                return Err(format!("zipf exponent must be in [0, 10], got {s}"));
            }
        }
        match self.delay {
            DelaySpec::Zero => {}
            DelaySpec::Constant { d } | DelaySpec::Ring { per_hop: d } => {
                if !(d.is_finite() && d >= 0.0) {
                    return Err(format!("delay must be finite and >= 0, got {d}"));
                }
            }
            DelaySpec::Uniform { min, max } => {
                if !(min.is_finite() && max.is_finite() && 0.0 <= min && min <= max) {
                    return Err(format!("uniform delay needs 0 <= min <= max, got [{min}, {max})"));
                }
            }
        }
        match self.attacker {
            AttackerSpec::Honest => Ok(()),
            AttackerSpec::LeadK { alpha, k } => {
                if !(alpha > 0.0 && alpha < 1.0 && alpha.is_finite()) {
                    return Err(format!("lead-k alpha must be in (0, 1), got {alpha}"));
                }
                if k == 0 {
                    return Err("lead-k give-up lead must be >= 1".to_string());
                }
                Ok(())
            }
            AttackerSpec::Mdp { alpha, ratio } => {
                if !(alpha > 0.0 && alpha < 0.5 && alpha.is_finite()) {
                    return Err(format!("MDP attacker alpha must be in (0, 0.5), got {alpha}"));
                }
                if ratio.0 == 0 || ratio.1 == 0 {
                    return Err(format!("ratio components must be positive, got {ratio:?}"));
                }
                if self.nodes < 3 {
                    return Err("MDP replay needs at least one node per compliant group".into());
                }
                // The chain-faithful replay is defined exactly for the
                // paper's setting-1 semantics: no propagation delay, no
                // sticky gate (see NetworkReplay docs).
                if self.delay != DelaySpec::Zero {
                    return Err("MDP replay requires delay=zero (paper's threat model)".into());
                }
                if self.rule != (RuleKind::Rizun { sticky: false }) {
                    return Err("MDP replay requires rule=rizun-nogate (setting 1)".into());
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub fn sample_specs() -> Vec<ScenarioSpec> {
        let base = ScenarioSpec {
            nodes: 40,
            hash: HashDist::Uniform,
            eb_small_mb: 1,
            eb_large_mb: 16,
            ad: 6,
            large_frac: 0.4,
            delay: DelaySpec::Zero,
            rule: RuleKind::Rizun { sticky: true },
            attacker: AttackerSpec::Honest,
            blocks: 500,
            seed: 7,
        };
        vec![
            base.clone(),
            ScenarioSpec { hash: HashDist::Zipf { s: 1.1 }, ..base.clone() },
            ScenarioSpec { hash: HashDist::Measured, ..base.clone() },
            ScenarioSpec {
                delay: DelaySpec::Uniform { min: 0.01, max: 0.2 },
                rule: RuleKind::SourceCode,
                ..base.clone()
            },
            ScenarioSpec {
                delay: DelaySpec::Ring { per_hop: 0.02 },
                attacker: AttackerSpec::LeadK { alpha: 0.3, k: 3 },
                ..base.clone()
            },
            ScenarioSpec {
                delay: DelaySpec::Constant { d: 0.05 },
                attacker: AttackerSpec::LeadK { alpha: 0.2, k: 2 },
                ..base.clone()
            },
            ScenarioSpec {
                nodes: 48,
                delay: DelaySpec::Zero,
                rule: RuleKind::Rizun { sticky: false },
                attacker: AttackerSpec::Mdp { alpha: 0.25, ratio: (1, 1) },
                blocks: 2_000,
                ..base
            },
        ]
    }

    /// Serve's unknown-name check trusts `PARAMS`: the schema must never
    /// read a name outside it, on any enum branch.
    #[test]
    fn from_params_reads_only_its_exported_names() {
        let queries: [&[(&str, &str)]; 4] = [
            &[],
            &[("hash", "zipf"), ("delay", "uniform")],
            &[("attacker", "lead-k"), ("alpha", "0.2"), ("delay", "ring")],
            &[("attacker", "mdp"), ("alpha", "0.25"), ("delay", "constant")],
        ];
        for query in queries {
            let asked = std::cell::RefCell::new(Vec::new());
            let _ = ScenarioSpec::from_params(|name| {
                asked.borrow_mut().push(name.to_string());
                query.iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
            });
            for name in asked.into_inner() {
                assert!(ScenarioSpec::PARAMS.contains(&name.as_str()), "{name} not exported");
            }
        }
    }

    #[test]
    fn wire_roundtrip_preserves_every_spec() {
        for spec in sample_specs() {
            let wire = spec.encode();
            let back = ScenarioSpec::decode(&wire).unwrap_or_else(|| panic!("decode {wire}"));
            assert_eq!(back, spec);
            assert_eq!(back.encode(), wire, "re-encode must be canonical");
        }
    }

    #[test]
    fn keys_are_unique_and_stable() {
        let specs = sample_specs();
        let keys: std::collections::BTreeSet<String> = specs.iter().map(|s| s.key()).collect();
        assert_eq!(keys.len(), specs.len(), "keys must be unique");
        // Pin one key format: downstream journals key on this string.
        assert_eq!(
            specs[0].key(),
            "scn n=40 hash=uni eb=1/16 ad=6 large=40% delay=zero rule=rizun atk=honest b=500 s=7"
        );
    }

    #[test]
    fn decode_rejects_malformed_wire() {
        let good = sample_specs()[0].encode();
        assert!(ScenarioSpec::decode(&good).is_some());
        for bad in [
            "",
            "sc;40",
            "t2;3fb999999999999a;1;1;1",
            &good.replace("sc;", "zz;"),
            &good[..good.len() - 1].to_string().replace("u;-", "q;-"),
        ] {
            assert!(ScenarioSpec::decode(bad).is_none(), "must reject {bad:?}");
        }
    }

    #[test]
    fn cell_seed_follows_per_site_discipline() {
        let specs = sample_specs();
        // Same base seed, different cells => different effective seeds.
        assert_ne!(specs[0].cell_seed(), specs[1].cell_seed());
        // Deterministic.
        assert_eq!(specs[0].cell_seed(), specs[0].cell_seed());
        // And the base seed still matters.
        let reseeded = ScenarioSpec { seed: 8, ..specs[0].clone() };
        assert_ne!(reseeded.cell_seed(), specs[0].cell_seed());
    }

    #[test]
    fn weights_normalize_and_shape() {
        for dist in [HashDist::Uniform, HashDist::Zipf { s: 1.0 }, HashDist::Measured] {
            for n in [1, 3, 25, 400] {
                let w = dist.weights(n);
                assert_eq!(w.len(), n);
                assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                assert!(w.iter().all(|&x| x > 0.0));
            }
        }
        let zipf = HashDist::Zipf { s: 1.5 }.weights(10);
        assert!(zipf[0] > zipf[9], "zipf weights must decay");
        let meas = HashDist::Measured.weights(5);
        assert!(meas[0] > meas[4], "measured table is largest-first");
    }

    #[test]
    fn validate_flags_bad_specs() {
        let good = sample_specs();
        for s in &good {
            assert!(s.validate().is_ok(), "{}: {:?}", s.key(), s.validate());
        }
        let base = good[0].clone();
        let bad = [
            ScenarioSpec { nodes: 1, ..base.clone() },
            ScenarioSpec { blocks: 0, ..base.clone() },
            ScenarioSpec { nodes: 10_000, blocks: 1_000_000, ..base.clone() },
            ScenarioSpec { eb_small_mb: 20, eb_large_mb: 16, ..base.clone() },
            ScenarioSpec { ad: 0, ..base.clone() },
            ScenarioSpec { large_frac: 1.5, ..base.clone() },
            ScenarioSpec { hash: HashDist::Zipf { s: -1.0 }, ..base.clone() },
            ScenarioSpec { delay: DelaySpec::Constant { d: -0.1 }, ..base.clone() },
            ScenarioSpec { delay: DelaySpec::Uniform { min: 0.5, max: 0.1 }, ..base.clone() },
            ScenarioSpec { attacker: AttackerSpec::LeadK { alpha: 0.0, k: 2 }, ..base.clone() },
            ScenarioSpec { attacker: AttackerSpec::LeadK { alpha: 0.3, k: 0 }, ..base.clone() },
            // MDP replay outside its defined semantics.
            ScenarioSpec {
                attacker: AttackerSpec::Mdp { alpha: 0.25, ratio: (1, 1) },
                delay: DelaySpec::Constant { d: 0.1 },
                rule: RuleKind::Rizun { sticky: false },
                ..base.clone()
            },
            ScenarioSpec {
                attacker: AttackerSpec::Mdp { alpha: 0.25, ratio: (1, 1) },
                rule: RuleKind::Rizun { sticky: true },
                ..base
            },
        ];
        for s in bad {
            assert!(s.validate().is_err(), "must reject {}", s.key());
        }
    }
}
