//! Value pins of the Bitcoin baselines on published table cells.
//!
//! Cycles of the Bitcoin models avoid the start state, so their gain solves
//! run policy iteration over a regeneration set of 80 of the 3,981 states
//! at cap 40 (every BU cell has the set `{0}`). Three Table 3 bottom-panel
//! cells (`u2`) must sit at our reproduced values (three decimals, as
//! `table3_bitcoin` prints them).

use bvc_bitcoin::{BitcoinConfig, BitcoinModel, SolveOptions};

#[test]
fn table3_bitcoin_u2_cells_are_pinned() {
    for (alpha, gamma, ours) in [(0.25, 0.5, 0.383), (0.20, 1.0, 0.298), (0.15, 1.0, 0.178)] {
        let model = BitcoinModel::build(BitcoinConfig::smds(alpha, gamma)).expect("model builds");
        let u2 = model
            .optimal_absolute_revenue(&SolveOptions::default())
            .expect("solver converges")
            .value;
        assert!((u2 - ours).abs() < 5e-4, "α={alpha} γ={gamma}: expected ≈ {ours}, got {u2:.4}");
    }
}
