//! The canonical scenario cell lists: the exploratory grid workload and
//! the MDP cross-validation cells, both consumed by the cluster job
//! registry (`bvc_cluster::jobs`) so they run through the sharded,
//! journaled, crash-resumable sweep machinery like every table cell.

use crate::spec::{AttackerSpec, DelaySpec, HashDist, RuleKind, ScenarioSpec};
#[cfg(test)]
use bvc_journal::Cell;

/// Base seed of every canonical cell (mixed per-cell via
/// [`ScenarioSpec::cell_seed`], so cells still decorrelate).
pub const GRID_SEED: u64 = 2017;

/// Simulated blocks per cross-validation replication (part of the
/// workload's config token).
pub const CROSSVAL_BLOCKS: u32 = 80_000;

/// Independent replications per cross-validation setting: each gets its
/// own seed, and the binary aggregates them into a mean and a standard
/// error.
pub const CROSSVAL_REPS: usize = 5;

/// Node count of the cross-validation networks (1 attacker + 47
/// compliant nodes split into the two `EB` groups).
pub const CROSSVAL_NODES: u32 = 48;

/// The Table 2 setting-1 cells the scenario engine cross-validates:
/// `(alpha, beta:gamma)`. All appear in the published grid.
pub const CROSSVAL_SETTINGS: [(f64, (u32, u32)); 4] =
    [(0.25, (1, 1)), (0.20, (1, 1)), (0.25, (3, 2)), (0.15, (1, 2))];

/// The convergence tolerance for a cross-validation setting: the 95%
/// normal confidence half-width of the replication mean, floored at 0.02
/// absolute — the same floor the three-estimator `crossval` workload uses
/// for its chain-MC leg, since at `CROSSVAL_BLOCKS` steps the sampling
/// noise of a ratio estimator keeps the half-width near that floor.
pub fn crossval_tolerance(stderr: f64) -> f64 {
    (1.96 * stderr).max(0.02)
}

/// The cross-validation cells, flattened `settings × replications` in
/// setting-major order (cell `i` is setting `i / CROSSVAL_REPS`,
/// replication `i % CROSSVAL_REPS`).
pub fn crossval_cells() -> Vec<ScenarioSpec> {
    let mut cells = Vec::with_capacity(CROSSVAL_SETTINGS.len() * CROSSVAL_REPS);
    for (alpha, ratio) in CROSSVAL_SETTINGS {
        for rep in 0..CROSSVAL_REPS {
            cells.push(ScenarioSpec {
                nodes: CROSSVAL_NODES,
                hash: HashDist::Zipf { s: 1.0 },
                eb_small_mb: 1,
                eb_large_mb: 16,
                ad: 6,
                large_frac: 0.5,
                delay: DelaySpec::Zero,
                rule: RuleKind::Rizun { sticky: false },
                attacker: AttackerSpec::Mdp { alpha, ratio },
                blocks: CROSSVAL_BLOCKS,
                seed: GRID_SEED + rep as u64,
            });
        }
    }
    cells
}

/// The exploratory grid: hash distributions × delay models × rules ×
/// attackers at moderate scale, plus one thousand-node cell proving the
/// engine's headroom. Every cell is sized to stay smoke-test friendly;
/// the scaling benchmark (`scenario_scaling`) covers larger networks.
pub fn grid_specs() -> Vec<ScenarioSpec> {
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
        blocks: 1_500,
        seed: GRID_SEED,
    };
    vec![
        // Quiet baselines: zero delay, honest miners, each hash shape.
        base.clone(),
        ScenarioSpec { hash: HashDist::Zipf { s: 1.1 }, ..base.clone() },
        ScenarioSpec { hash: HashDist::Measured, ..base.clone() },
        // Delay models fork honest networks.
        ScenarioSpec { delay: DelaySpec::Constant { d: 0.05 }, ..base.clone() },
        ScenarioSpec {
            delay: DelaySpec::Uniform { min: 0.0, max: 0.2 },
            hash: HashDist::Zipf { s: 1.1 },
            ..base.clone()
        },
        ScenarioSpec { delay: DelaySpec::Ring { per_hop: 0.01 }, ..base.clone() },
        // The source-code rule under the same stress.
        ScenarioSpec { rule: RuleKind::SourceCode, ..base.clone() },
        ScenarioSpec {
            rule: RuleKind::SourceCode,
            delay: DelaySpec::Uniform { min: 0.0, max: 0.2 },
            ..base.clone()
        },
        // Lead-k splitters against both rules.
        ScenarioSpec { attacker: AttackerSpec::LeadK { alpha: 0.3, k: 2 }, ..base.clone() },
        ScenarioSpec {
            attacker: AttackerSpec::LeadK { alpha: 0.3, k: 2 },
            rule: RuleKind::SourceCode,
            ..base.clone()
        },
        ScenarioSpec {
            attacker: AttackerSpec::LeadK { alpha: 0.2, k: 4 },
            delay: DelaySpec::Constant { d: 0.05 },
            ..base.clone()
        },
        // One embedded MDP-replay cell ties the grid to Table 2.
        ScenarioSpec {
            nodes: 12,
            rule: RuleKind::Rizun { sticky: false },
            attacker: AttackerSpec::Mdp { alpha: 0.25, ratio: (1, 1) },
            blocks: 20_000,
            ..base.clone()
        },
        // The headroom cell: a thousand nodes on a ring.
        ScenarioSpec {
            nodes: 1_000,
            hash: HashDist::Zipf { s: 1.0 },
            delay: DelaySpec::Ring { per_hop: 0.002 },
            blocks: 300,
            ..base
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_cells_validate_with_unique_keys_and_stable_wire() {
        let cells = grid_specs();
        assert_eq!(cells.len(), 13, "grid size is pinned (config tokens depend on it)");
        let mut keys = std::collections::BTreeSet::new();
        for cell in &cells {
            cell.validate().unwrap_or_else(|e| panic!("{}: {e}", cell.key()));
            assert!(keys.insert(cell.key()), "duplicate key {}", cell.key());
            assert_eq!(ScenarioSpec::decode(&cell.encode()).as_ref(), Some(cell));
        }
    }

    #[test]
    fn crossval_cells_cover_each_setting_with_distinct_seeds() {
        let cells = crossval_cells();
        assert_eq!(cells.len(), CROSSVAL_SETTINGS.len() * CROSSVAL_REPS);
        for (i, cell) in cells.iter().enumerate() {
            cell.validate().unwrap_or_else(|e| panic!("{}: {e}", cell.key()));
            let (alpha, ratio) = CROSSVAL_SETTINGS[i / CROSSVAL_REPS];
            assert_eq!(cell.attacker, AttackerSpec::Mdp { alpha, ratio });
            assert_eq!(cell.seed, GRID_SEED + (i % CROSSVAL_REPS) as u64);
        }
        // Replications of one setting differ only in seed => different
        // cell seeds, same key prefix.
        assert_ne!(cells[0].cell_seed(), cells[1].cell_seed());
    }

    #[test]
    fn tolerance_floors_at_two_percent() {
        assert_eq!(crossval_tolerance(0.0), 0.02);
        assert!((crossval_tolerance(0.05) - 0.098).abs() < 1e-12);
    }
}
