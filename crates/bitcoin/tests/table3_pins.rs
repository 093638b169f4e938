//! Bit-identity pins of the sharded Bellman kernel on published table cells.
//!
//! The Bitcoin baselines are the table cells still solved by relative value
//! iteration: every cycle of their models avoids the start state, so the
//! exact renewal engine does not apply (every BU cell uses it). Three
//! Table 3 bottom-panel cells (`u2`) solved through the sharded kernel must
//! match the serial solve BIT for bit, per the kernel's determinism
//! contract, and sit at our reproduced values (three decimals, as
//! `table3_bitcoin` prints them).

use bvc_bitcoin::{BitcoinConfig, BitcoinModel, SolveOptions};

fn u2_with(alpha: f64, gamma: f64, opts: &SolveOptions) -> f64 {
    let model = BitcoinModel::build(BitcoinConfig::smds(alpha, gamma)).expect("model builds");
    model.optimal_absolute_revenue(opts).expect("solver converges").value
}

#[test]
fn table3_pins_bit_identical_through_threaded_path() {
    // Four solve threads, sharding forced down to 1-state shards.
    let threaded = SolveOptions { solve_threads: 4, shard_min_states: 1, ..Default::default() };
    for (alpha, gamma, ours) in [(0.25, 0.5, 0.383), (0.20, 1.0, 0.298), (0.15, 1.0, 0.178)] {
        let serial = u2_with(alpha, gamma, &SolveOptions::default());
        let parallel = u2_with(alpha, gamma, &threaded);
        assert_eq!(
            parallel.to_bits(),
            serial.to_bits(),
            "α={alpha} γ={gamma}: threaded u2 {parallel} != serial u2 {serial}"
        );
        assert!(
            (parallel - ours).abs() < 5e-4,
            "α={alpha} γ={gamma}: expected ≈ {ours}, got {parallel:.4}"
        );
    }
}
