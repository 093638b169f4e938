//! The canonical game cell lists: the equilibrium-map grid and the
//! coalition-frontier layers, both consumed by the cluster job registry
//! (`bvc_cluster::jobs`) so they run through the sharded, journaled,
//! crash-resumable sweep machinery like every table cell.

#[cfg(test)]
use crate::spec::binomial;
use crate::spec::{EconSpec, FrontierSpec, GameSpec, PerturbSpec, PowerDist};
#[cfg(test)]
use bvc_journal::Cell;

/// Base seed of every canonical cell (mixed per-cell via
/// [`GameSpec::cell_seed`], so cells still decorrelate).
pub const GAMES_SEED: u64 = 2017;

/// The pinned Figure 4 cell: four miners at 10/20/30/40 (`Zipf(-1)`) with
/// ladder MPBs under BU's majority rule — `terminal = 1`, two rounds, the
/// paper's §5.2 trace exactly. Both canonical workloads carry it, so the
/// distributed path re-proves the paper's example on every run.
pub fn figure4_spec() -> GameSpec {
    GameSpec {
        miners: 4,
        power: PowerDist::Zipf { s: -1.0 },
        econ: EconSpec::Ladder,
        threshold: 0.5,
        perturb: PerturbSpec::None,
        seed: GAMES_SEED,
    }
}

/// The equilibrium-map grid: power distributions × economics × pass
/// thresholds × perturbation schedules, from the paper's four-group
/// example to 500-miner networks. Cell 0 is [`figure4_spec`].
pub fn games_grid_specs() -> Vec<GameSpec> {
    let base = figure4_spec();
    let fee_wide = EconSpec::FeeMarket {
        fee_per_mb: 0.05,
        bw_lo: 20.0,
        bw_hi: 300.0,
        latency: 0.01,
        cost: 0.2,
    };
    vec![
        // The paper's own example, under BU's rule and the §6.3
        // countermeasure's effective 0.9 supermajority.
        base.clone(),
        GameSpec { threshold: 0.9, ..base.clone() },
        // The 2017 pool distribution: a dozen real pools, with fragility
        // trials, and under a 75% supermajority.
        GameSpec {
            miners: 12,
            power: PowerDist::Measured,
            perturb: PerturbSpec::Random { trials: 200, kmax: 4 },
            ..base.clone()
        },
        GameSpec { miners: 12, power: PowerDist::Measured, threshold: 0.75, ..base.clone() },
        // 50-miner Zipf networks: the README's worked example (big pools
        // slow), its mirror (big pools fast), the countermeasure, and the
        // uniform control.
        GameSpec { miners: 50, power: PowerDist::Zipf { s: 1.0 }, ..base.clone() },
        GameSpec { miners: 50, power: PowerDist::Zipf { s: -0.5 }, ..base.clone() },
        GameSpec { miners: 50, power: PowerDist::Zipf { s: 1.0 }, threshold: 0.9, ..base.clone() },
        GameSpec { miners: 50, power: PowerDist::Uniform, ..base.clone() },
        // Scale: hundreds of miners, with seeded fragility sampling.
        GameSpec {
            miners: 200,
            power: PowerDist::Zipf { s: 1.0 },
            perturb: PerturbSpec::Random { trials: 100, kmax: 8 },
            ..base.clone()
        },
        GameSpec { miners: 500, power: PowerDist::Zipf { s: 0.8 }, ..base.clone() },
        GameSpec {
            miners: 100,
            power: PowerDist::Measured,
            perturb: PerturbSpec::Random { trials: 200, kmax: 6 },
            ..base.clone()
        },
        // Adversarial near-majority miner, both thresholds.
        GameSpec { miners: 16, power: PowerDist::Adversarial { top: 0.45 }, ..base.clone() },
        GameSpec {
            miners: 16,
            power: PowerDist::Adversarial { top: 0.45 },
            threshold: 0.9,
            ..base.clone()
        },
        // Fee-market economics: MPBs from Rizun's model instead of the
        // ladder — uniform and skewed power, low fees, a cost regime that
        // prices the slow end out of business, and the countermeasure.
        GameSpec { miners: 24, power: PowerDist::Uniform, econ: fee_wide, ..base.clone() },
        GameSpec { miners: 24, power: PowerDist::Zipf { s: 1.0 }, econ: fee_wide, ..base.clone() },
        GameSpec {
            miners: 24,
            power: PowerDist::Zipf { s: 1.0 },
            econ: EconSpec::FeeMarket {
                fee_per_mb: 0.02,
                bw_lo: 20.0,
                bw_hi: 300.0,
                latency: 0.01,
                cost: 0.2,
            },
            ..base.clone()
        },
        GameSpec {
            miners: 24,
            power: PowerDist::Zipf { s: 1.0 },
            econ: EconSpec::FeeMarket {
                fee_per_mb: 0.05,
                bw_lo: 2.0,
                bw_hi: 200.0,
                latency: 0.05,
                cost: 0.96,
            },
            ..base.clone()
        },
        GameSpec {
            miners: 24,
            power: PowerDist::Zipf { s: 1.0 },
            econ: fee_wide,
            threshold: 0.9,
            ..base
        },
    ]
}

/// The coalition-frontier layers: for each base game, one journaled cell
/// per (coalition size, shard), tiling the exponential `C(n, k)` expansion
/// so cluster workers share it and a killed worker costs one lease, not
/// the layer. Layer sizes grow with `k`, so the shard counts do too.
pub fn frontier_cells() -> Vec<FrontierSpec> {
    let mut cells = Vec::new();
    let mut push_layers = |spec: GameSpec, layers: &[(u32, u32)]| {
        for &(size, shards) in layers {
            for shard in 0..shards {
                cells.push(FrontierSpec { spec: spec.clone(), size, shard, shards });
            }
        }
    };
    // Figure 4: every coalition size, single shards (4 groups).
    push_layers(figure4_spec(), &[(1, 1), (2, 1), (3, 1)]);
    // A 16-miner Zipf network: C(16, 4) = 1820 coalitions at the widest
    // layer, split eight ways.
    let zipf16 = GameSpec { miners: 16, power: PowerDist::Zipf { s: 1.0 }, ..figure4_spec() };
    push_layers(zipf16, &[(1, 1), (2, 2), (3, 4), (4, 8)]);
    // A 20-miner uniform network: the pure cartel-size question.
    let uni20 = GameSpec { miners: 20, power: PowerDist::Uniform, ..figure4_spec() };
    push_layers(uni20, &[(2, 2), (3, 6)]);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_cells_validate_with_unique_keys_and_stable_wire() {
        let cells = games_grid_specs();
        assert_eq!(cells.len(), 18, "grid size is pinned (config tokens depend on it)");
        assert_eq!(cells[0], figure4_spec(), "cell 0 is the pinned Figure 4 game");
        let mut keys = std::collections::BTreeSet::new();
        for cell in &cells {
            cell.validate().unwrap_or_else(|e| panic!("{}: {e}", cell.key()));
            assert!(keys.insert(cell.key()), "duplicate key {}", cell.key());
            assert_eq!(GameSpec::decode(&cell.encode()).as_ref(), Some(cell));
        }
    }

    #[test]
    fn frontier_cells_validate_and_tile_their_layers() {
        let cells = frontier_cells();
        assert_eq!(cells.len(), 26, "frontier size is pinned (config tokens depend on it)");
        let mut keys = std::collections::BTreeSet::new();
        for cell in &cells {
            cell.validate().unwrap_or_else(|e| panic!("{}: {e}", cell.key()));
            assert!(keys.insert(cell.key()), "duplicate key {}", cell.key());
            assert_eq!(FrontierSpec::decode(&cell.encode()).as_ref(), Some(cell));
        }
        // Each (game, size) layer's shards cover C(n, k) exactly.
        let mut layers: std::collections::BTreeMap<String, (u64, u64)> =
            std::collections::BTreeMap::new();
        for cell in &cells {
            let (lo, hi) = cell.rank_range();
            let id = format!("{} k={}", cell.spec.key(), cell.size);
            let entry = layers.entry(id).or_insert((u64::MAX, 0));
            entry.0 = entry.0.min(lo);
            entry.1 += hi - lo;
        }
        for cell in &cells {
            let id = format!("{} k={}", cell.spec.key(), cell.size);
            let total = binomial(u64::from(cell.spec.miners), u64::from(cell.size));
            let (lo, covered) = layers[&id];
            assert_eq!(lo, 0, "{id}: layer must start at rank 0");
            assert_eq!(covered, total, "{id}: shards must cover the layer");
        }
    }
}
