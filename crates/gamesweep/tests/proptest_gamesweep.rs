//! Property tests for the distributed game engine's determinism story:
//! wire codecs round-trip every cell exactly, and a sharded frontier layer
//! merges — with the exact coordinator reduction `games_map --frontier`
//! uses — to the bit-identical result of the unsharded run.

use bvc_gamesweep::{
    solve_frontier_cell, EconSpec, FrontierSpec, GameSpec, PerturbSpec, PowerDist,
    FRONTIER_METRIC_ARITY,
};
use bvc_journal::Cell;
use proptest::prelude::*;

/// An arbitrary (valid) game cell: every discriminant of every enum is
/// reachable and the float fields sweep real ranges, so the codec is
/// exercised on the full wire grammar.
fn any_spec() -> impl Strategy<Value = GameSpec> {
    ((2u32..32, 0usize..4, -2000i32..2000), (0usize..2, 0usize..4, 0usize..2), 0u64..u64::MAX)
        .prop_map(|((miners, power_ix, s_milli), (econ_ix, thresh_ix, perturb_ix), seed)| {
            GameSpec {
                miners,
                power: match power_ix {
                    0 => PowerDist::Uniform,
                    1 => PowerDist::Zipf { s: f64::from(s_milli) / 1000.0 },
                    2 => PowerDist::Measured,
                    _ => PowerDist::Adversarial { top: 0.45 },
                },
                econ: if econ_ix == 0 {
                    EconSpec::Ladder
                } else {
                    EconSpec::FeeMarket {
                        fee_per_mb: 2.0,
                        bw_lo: 4.0,
                        bw_hi: 64.0,
                        latency: 0.01,
                        cost: 0.2,
                    }
                },
                threshold: [0.5, 0.6, 0.75, 0.9][thresh_ix],
                perturb: if perturb_ix == 0 {
                    PerturbSpec::None
                } else {
                    PerturbSpec::Random { trials: 16, kmax: 3 }
                },
                seed,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `decode ∘ encode` is the identity on game cells, and the decoded
    /// cell reproduces the same journal key and per-cell seed.
    #[test]
    fn game_spec_wire_codec_round_trips(spec in any_spec()) {
        prop_assert!(spec.validate().is_ok());
        let decoded = GameSpec::decode(&spec.encode())
            .expect("every encoded cell must decode");
        prop_assert_eq!(&decoded, &spec);
        prop_assert_eq!(decoded.key(), spec.key());
        prop_assert_eq!(decoded.cell_seed(), spec.cell_seed());
    }

    /// Frontier shards round-trip too, including the rank partition: the
    /// shard rank ranges tile `0..C(n, k)` without gap or overlap.
    #[test]
    fn frontier_shards_round_trip_and_tile_the_rank_space(
        spec in any_spec(),
        size_seed in 1u32..8,
        shards in 1u32..7,
    ) {
        let spec = GameSpec { econ: EconSpec::Ladder, miners: 4 + spec.miners % 8, ..spec };
        let size = 1 + size_seed % (spec.miners - 1);
        let mut next_lo = 0;
        let mut total = 0;
        for shard in 0..shards {
            let cell = FrontierSpec { spec: spec.clone(), size, shard, shards };
            prop_assert!(cell.validate().is_ok());
            let decoded = FrontierSpec::decode(&cell.encode())
                .expect("every encoded frontier shard must decode");
            prop_assert_eq!(&decoded, &cell);
            let (lo, hi) = cell.rank_range();
            prop_assert_eq!(lo, next_lo);
            prop_assert!(hi >= lo);
            next_lo = hi;
            total += hi - lo;
        }
        prop_assert_eq!(total, bvc_gamesweep::binomial(u64::from(spec.miners), u64::from(size)));
    }

    /// The coordinator reduction over an arbitrarily-sharded frontier
    /// layer is *bit-identical* to the unsharded single-cell solve: sums
    /// for the counters, first-shard-wins max for the best coalition
    /// (shards partition ranks in lexicographic order, so the first shard
    /// attaining the max holds the lexicographically first witness), min
    /// for the cheapest cartel.
    #[test]
    fn sharded_frontier_merges_to_the_unsharded_layer(
        spec in any_spec(),
        size_seed in 1u32..8,
        shards in 2u32..7,
    ) {
        let spec = GameSpec { econ: EconSpec::Ladder, miners: 4 + spec.miners % 8, ..spec };
        let size = 1 + size_seed % (spec.miners - 1);
        let whole = FrontierSpec { spec: spec.clone(), size, shard: 0, shards: 1 };
        let reference = solve_frontier_cell(&whole).expect("unsharded layer solves");
        prop_assert_eq!(reference.len(), FRONTIER_METRIC_ARITY);

        let mut merged = vec![0.0, 0.0, -1.0, 0.0, f64::INFINITY, 0.0];
        for shard in 0..shards {
            let cell = FrontierSpec { spec: spec.clone(), size, shard, shards };
            let v = solve_frontier_cell(&cell).expect("frontier shard solves");
            prop_assert_eq!(v.len(), FRONTIER_METRIC_ARITY);
            merged[0] += v[0]; // examined
            merged[1] += v[1]; // effective
            if v[2] > merged[2] {
                merged[2] = v[2]; // best_terminal
                merged[3] = v[3]; // best_mask (lexicographically first witness)
            }
            merged[4] = merged[4].min(v[4]); // min_cartel_power (NO_CARTEL sentinel)
            merged[5] = v[5]; // base_terminal, identical in every shard
        }
        prop_assert_eq!(merged, reference);
    }
}
