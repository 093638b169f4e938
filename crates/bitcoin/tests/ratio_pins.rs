//! Value pins of the ratio solve on the Bitcoin selfish-mining models.
//!
//! Every cycle of these models avoids the start state, so `u1` runs the
//! ratio solver's Dinkelbach loop over exact gain solves on the
//! regeneration set (the BU models take one renewal pass per step instead). The pinned values were recorded from the
//! earlier search on rho, which reported the midpoint of a bracket at most
//! a tolerance wide around the crossing; the loop must land within half a
//! tolerance of each. Its value must also be the returned policy's own
//! `(N − eps) / D` per step, `eps` a tenth of the tolerance.

use bvc_bitcoin::model::{RA, ROTHERS};
use bvc_bitcoin::{BitcoinConfig, BitcoinModel, SolveOptions};

/// `(gamma, [(alpha, u1 of the search on rho)])` at cap 24.
const PINS: [(f64, [(f64, f64); 4]); 3] = [
    (
        0.0,
        [
            (0.10, 0.09999903227169998),
            (0.30, 0.29999904968994173),
            (0.35, 0.3705880943613825),
            (0.45, 0.653451703573823),
        ],
    ),
    (
        0.5,
        [
            (0.10, 0.09999904453682033),
            (0.30, 0.3268725014410805),
            (0.35, 0.4301742083851361),
            (0.45, 0.7572538074162372),
        ],
    ),
    (
        1.0,
        [
            (0.10, 0.11111002371288503),
            (0.30, 0.4285700519214204),
            (0.35, 0.5384599339562702),
            (0.45, 0.8167800318508731),
        ],
    ),
];

#[test]
fn u1_matches_the_search_on_rho_and_its_own_policy() {
    let opts = SolveOptions::default();
    let eps = opts.ratio_tolerance * 0.1;
    for (gamma, cells) in PINS {
        for (alpha, pinned) in cells {
            let cfg = BitcoinConfig { cap: 24, ..BitcoinConfig::selfish_mining(alpha, gamma) };
            let model = BitcoinModel::build(cfg).expect("model builds");
            let sol = model.optimal_relative_revenue(&opts).expect("solver converges");
            let dev = (sol.value - pinned).abs();
            assert!(
                dev <= 0.5 * opts.ratio_tolerance,
                "α={alpha} γ={gamma}: u1 {} vs pinned {pinned} (|Δ| = {dev:e})",
                sol.value
            );
            let (_, _, rates) = model.evaluate(&sol.policy).expect("policy evaluates");
            let own = (rates[RA] - eps) / (rates[RA] + rates[ROTHERS]);
            assert!(
                (sol.value - own).abs() <= 1e-9,
                "α={alpha} γ={gamma}: u1 {} vs its policy's own {own}",
                sol.value
            );
        }
    }
}
