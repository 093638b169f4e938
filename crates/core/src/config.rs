//! Scenario configuration: mining power split, acceptance depth, sticky-gate
//! setting, and the incentive model under which Alice is analyzed.

use std::fmt;

/// Which phases of the attack are reachable (§4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Setting {
    /// Setting 1: the sticky gate is disabled (BUIP038), so only phase 1 is
    /// permitted. Equivalently, the attacker only launches the attack in
    /// phase 1.
    One,
    /// Setting 2: the sticky gate is enabled; both phase 1 and phase 2 are
    /// permitted.
    Two,
}

impl fmt::Display for Setting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Setting::One => write!(f, "setting 1"),
            Setting::Two => write!(f, "setting 2"),
        }
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
    pub fn non_compliant_default() -> Self {
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
        let setting = match self.setting {
            Setting::One => 1,
            Setting::Two => 2,
        };
        let mut key = format!("s{setting} b:g={b}:{g} a={alpha_txt}%");
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
