//! The selfish-mining profitability threshold: the smallest mining-power
//! share α at which deviating from honest mining pays, as a function of
//! the tie-winning parameter γ.
//!
//! The classic reference points (Sapirshtein et al., Table 1/Figure 1):
//! the threshold is ≈ 0.3294 at γ = 0, 0.25 at γ = 0.5, and 0 at γ = 1.
//! This module computes the curve from our MDP by bisection on α, both as
//! a solver validation and as reusable API for protocol comparisons.

use bvc_mdp::MdpError;

use crate::model::{BitcoinConfig, BitcoinModel};
use crate::SolveOptions;

/// Options for [`profitability_threshold`].
#[derive(Debug, Clone)]
pub struct ThresholdOptions {
    /// Bisection stops when the α bracket is narrower than this.
    pub alpha_tolerance: f64,
    /// A strategy counts as profitable when its relative revenue exceeds
    /// α by more than this margin.
    pub profit_margin: f64,
    /// Truncation bound passed to the models.
    pub cap: u8,
    /// Solver options for each probe.
    pub solve: SolveOptions,
}

impl Default for ThresholdOptions {
    fn default() -> Self {
        ThresholdOptions {
            alpha_tolerance: 1e-3,
            profit_margin: 1e-4,
            cap: 32,
            solve: SolveOptions::default(),
        }
    }
}

/// Whether selfish mining with share `alpha` and tie parameter `gamma` is
/// strictly profitable (optimal relative revenue exceeds `alpha`).
pub fn is_profitable(alpha: f64, gamma: f64, opts: &ThresholdOptions) -> Result<bool, MdpError> {
    let cfg = BitcoinConfig { cap: opts.cap, ..BitcoinConfig::selfish_mining(alpha, gamma) };
    let model = BitcoinModel::build(cfg)?;
    let sol = model.optimal_relative_revenue(&opts.solve)?;
    Ok(sol.value > alpha + opts.profit_margin)
}

/// The smallest α at which selfish mining beats honest mining for a given
/// γ, found by bisection over `[lo, hi] = [0.01, 0.49]`. Returns `0.01`
/// when even the smallest probed share profits (the γ → 1 regime).
pub fn profitability_threshold(gamma: f64, opts: &ThresholdOptions) -> Result<f64, MdpError> {
    let mut lo = 0.01f64;
    let mut hi = 0.49f64;
    if is_profitable(lo, gamma, opts)? {
        return Ok(lo);
    }
    // Invariant: not profitable at lo, profitable at hi (selfish mining
    // always profits close to 1/2).
    while hi - lo > opts.alpha_tolerance {
        let mid = 0.5 * (lo + hi);
        if is_profitable(mid, gamma, opts)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> ThresholdOptions {
        // Coarser settings keep the bisection fast in CI.
        ThresholdOptions { alpha_tolerance: 4e-3, cap: 24, ..Default::default() }
    }

    /// γ = 0: the Sapirshtein threshold ≈ 0.3294.
    #[test]
    fn gamma0_threshold_is_sapirshtein() {
        let t = profitability_threshold(0.0, &opts()).unwrap();
        assert!((t - 0.3294).abs() < 0.01, "got {t}");
    }

    /// γ = 0.5: the Eyal–Sirer threshold 0.25.
    #[test]
    fn gamma05_threshold_is_quarter() {
        let t = profitability_threshold(0.5, &opts()).unwrap();
        assert!((t - 0.25).abs() < 0.01, "got {t}");
    }

    /// γ = 1: any share profits.
    #[test]
    fn gamma1_threshold_vanishes() {
        let t = profitability_threshold(1.0, &opts()).unwrap();
        assert!(t <= 0.02, "got {t}");
    }

    /// The threshold is monotone nonincreasing in γ.
    #[test]
    fn threshold_monotone_in_gamma() {
        let o = opts();
        let t0 = profitability_threshold(0.0, &o).unwrap();
        let t5 = profitability_threshold(0.5, &o).unwrap();
        let t9 = profitability_threshold(0.9, &o).unwrap();
        assert!(t0 >= t5 - 5e-3 && t5 >= t9 - 5e-3, "{t0} {t5} {t9}");
    }
}
