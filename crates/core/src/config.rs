//! Scenario configuration: mining power split, acceptance depth, sticky-gate
//! setting, and the incentive model under which Alice is analyzed.

use std::fmt;

use bvc_journal::{param_f64, param_int};

/// Which phases of the attack are reachable (§4.1.1). The discriminant is
/// the setting's number (`setting as u8`), as keys and responses print it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Setting {
    /// Setting 1: the sticky gate is disabled (BUIP038), so only phase 1 is
    /// permitted. Equivalently, the attacker only launches the attack in
    /// phase 1.
    One = 1,
    /// Setting 2: the sticky gate is enabled; both phase 1 and phase 2 are
    /// permitted.
    Two = 2,
}

impl fmt::Display for Setting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "setting {}", *self as u8)
    }
}

/// The three strategic-miner incentive models of §3, with the per-model
/// utility the paper assigns to each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IncentiveModel {
    /// §3.1: Alice never observably deviates; utility is *relative revenue*
    /// `u1 = ΣR_A / (ΣR_A + ΣR_others)` (Eq. 1).
    CompliantProfitDriven,
    /// §3.2: Alice combines forking with double spending; utility is the
    /// *absolute reward* per block `u2 = (ΣR_A + ΣR_DS) / t` (Eq. 2).
    NonCompliantProfitDriven {
        /// Double-spend payout in units of the block reward (the paper uses
        /// 10).
        rds: f64,
        /// Merchant settlement threshold: a payout of `(k - threshold) * rds`
        /// is received when `k > threshold` blocks are orphaned in one
        /// resolution (the paper uses 3, i.e. four confirmations).
        threshold: u8,
    },
    /// §3.3: Alice maximizes damage per own block; utility is
    /// `u3 = ΣO_others / (ΣR_A + ΣO_A)` (Eq. 3). Adds the `Wait` action.
    NonProfitDriven,
}

impl IncentiveModel {
    /// The paper's double-spending parameterization: `R_DS` worth ten block
    /// rewards, merchants shipping after four confirmations.
    pub const fn non_compliant_default() -> Self {
        IncentiveModel::NonCompliantProfitDriven { rds: 10.0, threshold: 3 }
    }

    /// Whether this model grants Alice the `Wait` action.
    pub fn allows_wait(&self) -> bool {
        matches!(self, IncentiveModel::NonProfitDriven)
    }

    /// The utility this incentive model maximizes (§4): compliant → `u1`
    /// (Table 2), non-compliant → `u2` (Table 3), non-profit → `u3`
    /// (Table 4). The one place the rule is written down.
    pub fn utility(&self) -> Utility {
        match self {
            IncentiveModel::CompliantProfitDriven => Utility::U1,
            IncentiveModel::NonCompliantProfitDriven { .. } => Utility::U2,
            IncentiveModel::NonProfitDriven => Utility::U3,
        }
    }
}

/// The paper's three utilities (Eqs. 1–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Utility {
    /// Relative revenue `u1`.
    U1,
    /// Absolute revenue per block `u2`.
    U2,
    /// Orphans per attacker block `u3`.
    U3,
}

impl Utility {
    /// Short name as printed in keys and responses (`u1`, `u2`, `u3`).
    pub fn name(self) -> &'static str {
        match self {
            Utility::U1 => "u1",
            Utility::U2 => "u2",
            Utility::U3 => "u3",
        }
    }
}

/// Full configuration of the three-miner attack scenario of §4.1.1.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackConfig {
    /// Alice's (the strategic miner's) mining power share.
    pub alpha: f64,
    /// Bob's share — the miner (group) with the *smaller* EB.
    pub beta: f64,
    /// Carol's share — the miner (group) with the *larger* EB.
    pub gamma: f64,
    /// Bob's excessive acceptance depth (the paper uses `AD = 6` in line
    /// with 2017 BU miners). Bob's AD governs phase-1 forks: Chain 2 must
    /// reach this depth before Bob adopts it.
    pub ad: u8,
    /// Carol's excessive acceptance depth. Equal to [`AttackConfig::ad`] in
    /// the paper's model; the heterogeneous case (§2.3 cites real miners
    /// signalling `AD = 6` vs `AD = 20`) is an extension of this crate.
    /// Carol's AD governs phase-2 forks, where she is the rejecting miner.
    pub ad_carol: u8,
    /// Sticky-gate countdown length (144 in BU; exposed for ablations and
    /// fast tests).
    pub gate_blocks: u16,
    /// Which phases are reachable.
    pub setting: Setting,
    /// Alice's incentive model.
    pub incentive: IncentiveModel,
}

/// Parses a `B:C` power ratio such as `1:2` into `(1, 2)`: the `β : γ`
/// split of [`AttackConfig::with_ratio`], as serve, the CLI and the
/// scenario schema read it. Both parts must be integers in `[1, 64]`.
pub fn parse_ratio(raw: &str) -> Result<(u32, u32), String> {
    let (b, c) = raw.split_once(':').ok_or_else(|| format!("expected B:C ratio, got {raw:?}"))?;
    let part = |text: &str| {
        text.parse::<u32>()
            .ok()
            .filter(|v| (1..=64).contains(v))
            .ok_or_else(|| format!("ratio parts must be integers in [1, 64], got {raw:?}"))
    };
    Ok((part(b)?, part(c)?))
}

impl AttackConfig {
    /// Every parameter name [`AttackConfig::from_params`] reads: serve's
    /// table-cell query names and `POST /v1/solve` body fields, and the
    /// `bvc solve`/`bvc audit` flags. A table route fixes the first,
    /// `incentive`, so its query takes only the rest.
    pub const PARAMS: [&'static str; 10] = [
        "incentive",
        "alpha",
        "ratio",
        "eb",
        "setting",
        "ad",
        "ad-carol",
        "gate",
        "rds",
        "confirmations",
    ];

    /// The table-cell parameter schema: builds a validated configuration,
    /// and the `β:γ` ratio [`AttackConfig::cell_key`] takes, from a `name
    /// → text` lookup (a query string, a JSON body, the CLI's flags).
    ///
    /// `incentive` is `compliant` (default, `u1`), `double-spend` (`u2`,
    /// with `rds` default 10 and `confirmations` default 4) or `vandal`
    /// (`u3`, where `alpha` defaults to Table 4's 1% attacker). The power
    /// split is `ratio=B:C` or `eb=N` (`1:N`), default `1:1`. `ad`
    /// defaults to 6, `ad-carol` to `ad`, `gate` to 144, `setting` to 1.
    /// `rds` and `confirmations` are rejected without
    /// `incentive=double-spend`, so a misplaced term fails loudly instead
    /// of being ignored. Every accepted value passes
    /// [`AttackConfig::validate`] and keeps every reward finite.
    pub fn from_params<'a>(
        get: impl Fn(&str) -> Option<&'a str>,
    ) -> Result<(Self, (u32, u32)), String> {
        /// Largest double-spend payout, in block rewards (the paper uses
        /// 10); far above any useful value and far below overflow.
        const MAX_RDS: f64 = 1e6;
        let float = |name: &str| get(name).map(|v| param_f64(v, name)).transpose();
        let int = |name: &str, default: &str, lo: u64, hi: u64| {
            param_int(get(name).unwrap_or(default), name, lo, hi)
        };

        let incentive_kind = get("incentive").unwrap_or("compliant");
        for name in ["rds", "confirmations"] {
            if get(name).is_some() && incentive_kind != "double-spend" {
                return Err(format!("{name} only applies with incentive=double-spend"));
            }
        }
        let incentive = match incentive_kind {
            "compliant" => IncentiveModel::CompliantProfitDriven,
            "double-spend" => {
                let rds = float("rds")?.unwrap_or(10.0);
                if !(0.0..=MAX_RDS).contains(&rds) {
                    return Err(format!("rds must be in [0, {MAX_RDS}], got {rds}"));
                }
                let confirmations = int("confirmations", "4", 1, 16)? as u8;
                IncentiveModel::NonCompliantProfitDriven { rds, threshold: confirmations - 1 }
            }
            "vandal" => IncentiveModel::NonProfitDriven,
            other => {
                return Err(format!(
                    "incentive must be compliant, double-spend or vandal, got {other:?}"
                ))
            }
        };

        let alpha = match float("alpha")? {
            Some(alpha) => alpha,
            // Table 4 is published for a fixed 1% attacker.
            None if incentive == IncentiveModel::NonProfitDriven => 0.01,
            None => return Err("missing required parameter alpha".to_string()),
        };
        if !(alpha > 0.0 && alpha < 0.5) {
            return Err(format!("alpha must be in (0, 0.5), got {alpha}"));
        }
        let ratio = match (get("ratio"), get("eb")) {
            (Some(_), Some(_)) => return Err("give either ratio or eb, not both".to_string()),
            (Some(ratio), None) => parse_ratio(ratio)?,
            // `eb=N` weights the large-EB group (Carol) N-fold: β:γ = 1:N.
            (None, Some(eb)) => (1, param_int(eb, "eb", 1, 64)? as u32),
            (None, None) => (1, 1),
        };
        let setting = if int("setting", "1", 1, 2)? == 1 { Setting::One } else { Setting::Two };
        let ad = get("ad").unwrap_or("6");
        let mut cfg = AttackConfig::with_ratio(alpha, ratio, setting, incentive)
            .with_ads(param_int(ad, "ad", 2, 24)? as u8, int("ad-carol", ad, 2, 24)? as u8);
        cfg.gate_blocks = int("gate", "144", 1, 4096)? as u16;
        Ok((cfg, ratio))
    }

    /// A configuration with the paper's defaults (`AD = 6`, 144-block gate)
    /// for a given power split. `beta_to_gamma` is the `β : γ` ratio used in
    /// the paper's tables; the remaining power `1 − α` is divided
    /// accordingly.
    pub fn with_ratio(
        alpha: f64,
        beta_to_gamma: (u32, u32),
        setting: Setting,
        incentive: IncentiveModel,
    ) -> Self {
        let (b, c) = beta_to_gamma;
        assert!(b > 0 && c > 0, "ratio parts must be positive");
        let rest = 1.0 - alpha;
        let beta = rest * b as f64 / (b + c) as f64;
        let gamma = rest * c as f64 / (b + c) as f64;
        AttackConfig {
            alpha,
            beta,
            gamma,
            ad: 6,
            ad_carol: 6,
            gate_blocks: 144,
            setting,
            incentive,
        }
    }

    /// Sets both miners' acceptance depths (the heterogeneous-AD
    /// extension); returns `self` for chaining.
    pub fn with_ads(mut self, ad_bob: u8, ad_carol: u8) -> Self {
        self.ad = ad_bob;
        self.ad_carol = ad_carol;
        self
    }

    /// Validates the power split and structural parameters.
    ///
    /// # Panics
    /// Panics on non-positive shares, shares not summing to one, `ad < 2`,
    /// or a zero-length gate in setting 2.
    pub fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.beta > 0.0 && self.gamma > 0.0,
            "all shares must be positive"
        );
        let sum = self.alpha + self.beta + self.gamma;
        assert!((sum - 1.0).abs() < 1e-9, "shares must sum to 1, got {sum}");
        assert!(self.ad >= 2, "AD must be at least 2 for a fork to exist");
        assert!(self.ad_carol >= 2, "Carol's AD must be at least 2");
        if self.setting == Setting::Two {
            assert!(self.gate_blocks >= 1, "setting 2 requires a nonzero gate");
        }
    }

    /// The journal key of this configuration's table cell, built from the
    /// `β:γ` ratio it was made with. Sweep journals and serve's cache share
    /// it, so a preloaded journal answers the requests its sweep solved:
    ///
    /// * `u1` cells: `s{setting} b:g={b}:{g} a={alpha:.0}%` — but only when
    ///   the rounded percent round-trips to exactly `alpha`; otherwise the
    ///   exact `Display` form, so two distinct alphas never share a key.
    /// * `u2`/`u3` cells: `s{setting} b:g={b}:{g} a={alpha}%` (`Display`,
    ///   exact).
    ///
    /// Non-default structural parameters append explicit ` ad=`/` gate=`
    /// (and ` rds=`/` thr=` for double-spend terms) suffixes.
    pub fn cell_key(&self, (b, g): (u32, u32)) -> String {
        let alpha = self.alpha;
        let pct = alpha * 100.0;
        let alpha_txt = (self.incentive.utility() == Utility::U1)
            .then(|| format!("{pct:.0}"))
            .filter(|r| r.parse::<f64>().is_ok_and(|p| (p / 100.0).to_bits() == alpha.to_bits()))
            .unwrap_or_else(|| format!("{pct}"));
        let mut key = format!("s{} b:g={b}:{g} a={alpha_txt}%", self.setting as u8);
        if self.ad != 6 || self.ad_carol != 6 || self.gate_blocks != 144 {
            key.push_str(&format!(" ad={}/{} gate={}", self.ad, self.ad_carol, self.gate_blocks));
        }
        if let IncentiveModel::NonCompliantProfitDriven { rds, threshold } = self.incentive {
            const DEFAULT_RDS: f64 = 10.0;
            if rds.to_bits() != DEFAULT_RDS.to_bits() || threshold != 3 {
                key.push_str(&format!(" rds={rds} thr={threshold}"));
            }
        }
        key
    }

    /// The double-spend payout for orphaning `k` blocks of the losing chain
    /// in one resolution: `(k - threshold) * rds` when `k > threshold`,
    /// else zero. The MDP's rewards and the chain replay's settlement both
    /// read it.
    #[inline]
    pub fn ds_payout(&self, k: u8) -> f64 {
        match self.incentive {
            IncentiveModel::NonCompliantProfitDriven { rds, threshold } if k > threshold => {
                f64::from(k - threshold) * rds
            }
            _ => 0.0,
        }
    }

    /// Whether this configuration satisfies the paper's standing assumption
    /// `α ≤ min(β, γ)` (the tables only report such cells).
    pub fn satisfies_power_assumption(&self) -> bool {
        self.alpha <= self.beta.min(self.gamma) + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_ratio_splits_rest() {
        let c = AttackConfig::with_ratio(
            0.10,
            (2, 1),
            Setting::One,
            IncentiveModel::CompliantProfitDriven,
        );
        assert!((c.beta - 0.6).abs() < 1e-12);
        assert!((c.gamma - 0.3).abs() < 1e-12);
        c.validate();
    }

    #[test]
    fn power_assumption_detects_violations() {
        let ok = AttackConfig::with_ratio(
            0.25,
            (1, 1),
            Setting::One,
            IncentiveModel::CompliantProfitDriven,
        );
        assert!(ok.satisfies_power_assumption());
        let bad = AttackConfig::with_ratio(
            0.25,
            (4, 1),
            Setting::One,
            IncentiveModel::CompliantProfitDriven,
        );
        assert!(!bad.satisfies_power_assumption()); // gamma = 0.15 < alpha
    }

    #[test]
    #[should_panic(expected = "shares must sum to 1")]
    fn validate_rejects_bad_sum() {
        let c = AttackConfig {
            alpha: 0.5,
            beta: 0.1,
            gamma: 0.1,
            ad: 6,
            ad_carol: 6,
            gate_blocks: 144,
            setting: Setting::One,
            incentive: IncentiveModel::CompliantProfitDriven,
        };
        c.validate();
    }

    #[test]
    fn ratio_parsing() {
        assert_eq!(parse_ratio("1:2").unwrap(), (1, 2));
        assert_eq!(parse_ratio("10:3").unwrap(), (10, 3));
        assert!(parse_ratio("1-2").is_err());
        assert!(parse_ratio("0:2").is_err());
        assert!(parse_ratio("a:2").is_err());
        assert!(parse_ratio("1:65").is_err());
    }

    fn from_query(query: &[(&str, &str)]) -> Result<(AttackConfig, (u32, u32)), String> {
        AttackConfig::from_params(|name| query.iter().find(|(k, _)| *k == name).map(|(_, v)| *v))
    }

    #[test]
    fn from_params_defaults_to_the_paper_cell() {
        let (cfg, ratio) = from_query(&[("alpha", "0.25")]).unwrap();
        let paper = AttackConfig::with_ratio(
            0.25,
            (1, 1),
            Setting::One,
            IncentiveModel::CompliantProfitDriven,
        );
        assert_eq!((cfg, ratio), (paper, (1, 1)));
        let (cfg, _) = from_query(&[("incentive", "double-spend"), ("alpha", "0.1")]).unwrap();
        assert_eq!(cfg.incentive, IncentiveModel::non_compliant_default());
        // Table 4's fixed 1% attacker; every other incentive needs alpha.
        let (cfg, _) = from_query(&[("incentive", "vandal")]).unwrap();
        assert_eq!(cfg.alpha, 0.01);
        assert!(from_query(&[]).unwrap_err().contains("missing required parameter alpha"));
        let (cfg, ratio) = from_query(&[("alpha", "0.2"), ("eb", "4"), ("ad", "3")]).unwrap();
        assert_eq!((ratio, cfg.ad, cfg.ad_carol), ((1, 4), 3, 3));
    }

    /// Every `rds` that is non-finite or above the bound used to reach the
    /// solver and fail there with a non-finite reward.
    #[test]
    fn from_params_rejects_unbounded_double_spend_payouts() {
        for rds in ["NaN", "inf", "-inf", "1e308", "1000001", "-1"] {
            let err = from_query(&[("incentive", "double-spend"), ("alpha", "0.2"), ("rds", rds)])
                .unwrap_err();
            assert!(err.starts_with("rds must be in [0, 1000000]"), "{rds}: {err}");
        }
        let (cfg, _) =
            from_query(&[("incentive", "double-spend"), ("alpha", "0.2"), ("rds", "1e6")]).unwrap();
        assert!(
            matches!(cfg.incentive, IncentiveModel::NonCompliantProfitDriven { rds, .. } if rds == 1e6)
        );
    }

    #[test]
    fn from_params_rejects_out_of_range_values() {
        for (query, want) in [
            (&[("alpha", "0")][..], "alpha must be in (0, 0.5), got 0"),
            (&[("alpha", "-0")], "alpha must be in (0, 0.5), got -0"),
            (&[("alpha", "0.5")], "alpha must be in (0, 0.5), got 0.5"),
            (&[("alpha", "0.2"), ("setting", "3")], "setting must be in [1, 2], got 3"),
            (&[("alpha", "0.2"), ("ad", "1")], "ad must be in [2, 24], got 1"),
            (&[("alpha", "0.2"), ("ad", "25")], "ad must be in [2, 24], got 25"),
            (&[("alpha", "0.2"), ("ad-carol", "1")], "ad-carol must be in [2, 24], got 1"),
            (&[("alpha", "0.2"), ("gate", "0")], "gate must be in [1, 4096], got 0"),
            (&[("alpha", "0.2"), ("eb", "65")], "eb must be in [1, 64], got 65"),
            (
                &[("incentive", "double-spend"), ("alpha", "0.2"), ("confirmations", "17")],
                "confirmations must be in [1, 16], got 17",
            ),
        ] {
            assert_eq!(from_query(query).unwrap_err(), want);
        }
    }

    #[test]
    fn from_params_rejects_double_spend_terms_elsewhere() {
        for incentive in ["compliant", "vandal"] {
            for name in ["rds", "confirmations"] {
                let err = from_query(&[("incentive", incentive), ("alpha", "0.2"), (name, "4")])
                    .unwrap_err();
                assert_eq!(err, format!("{name} only applies with incentive=double-spend"));
            }
        }
    }

    /// Serve's and the CLI's unknown-name checks trust `PARAMS`: the schema
    /// must never read a name outside it, on any incentive branch.
    #[test]
    fn from_params_reads_only_its_exported_names() {
        for incentive in ["compliant", "double-spend", "vandal"] {
            let asked = std::cell::RefCell::new(Vec::new());
            let _ = AttackConfig::from_params(|name| {
                asked.borrow_mut().push(name.to_string());
                match name {
                    "incentive" => Some(incentive),
                    "alpha" => Some("0.2"),
                    _ => None,
                }
            });
            for name in asked.into_inner() {
                assert!(AttackConfig::PARAMS.contains(&name.as_str()), "{name} not exported");
            }
        }
    }

    #[test]
    fn wait_only_for_non_profit() {
        assert!(!IncentiveModel::CompliantProfitDriven.allows_wait());
        assert!(!IncentiveModel::non_compliant_default().allows_wait());
        assert!(IncentiveModel::NonProfitDriven.allows_wait());
    }

    #[test]
    fn settings_display() {
        assert_eq!(Setting::One.to_string(), "setting 1");
        assert_eq!(Setting::Two.to_string(), "setting 2");
    }
}
