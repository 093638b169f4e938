//! # bvc-gamesweep — distributed emergent-consensus game engine
//!
//! The paper's §5 asks *when emergent consensus emerges*: the EB choosing
//! game's unanimous equilibria (Analytical Result 4) and the block size
//! increasing game's stable-set termination (Analytical Result 5, Figure
//! 4). `bvc-games` models both for the paper's hand-sized examples; this
//! crate promotes them to a first-class cluster workload, the same
//! multi-layer pattern `bvc-scenario` follows for the network simulator:
//!
//! * [`GameSpec`] — one fully-deterministic **equilibrium-map cell**:
//!   N-miner power distributions ([`PowerDist`]: uniform, Zipf in either
//!   orientation, the measured 2017 pools, or an adversarial near-majority
//!   miner), MPB economics ([`EconSpec`]: the paper's ladder or Rizun
//!   fee-market parameters through [`bvc_games::mpb_groups`]), pass
//!   thresholds (BU's 0.5 majority or the §6.3 countermeasure's 0.9), and
//!   seeded perturbation schedules ([`PerturbSpec`]). Cells have a stable
//!   journal key, a compact wire encoding, and per-cell seeding
//!   `seed ^ fnv1a64(key)`, so metrics are bit-identical at any thread or
//!   worker count.
//! * [`FrontierSpec`] — one shard of the **coalition frontier**: the
//!   exponential search over committed coalitions in the block size
//!   increasing game (`stable_suffixes_committed` backward induction),
//!   tiled by (coalition size, lexicographic rank range) into independent
//!   journaled cells. The frontier is explicit and resumable: a SIGKILL
//!   mid-layer replays the finished shards from the journal and re-solves
//!   only the missing ones, and a distributed run's journal is
//!   byte-identical to a local `--threads 1` run.
//! * [`solve_game_cell`] / [`solve_frontier_cell`] — the pure cell
//!   solvers; [`games_grid_specs`] / [`frontier_cells`] — the canonical
//!   workloads the cluster registry exposes as `games-grid` and
//!   `games-frontier`, with [`figure4_spec`] pinned as cell 0 so every
//!   distributed run re-proves the paper's Figure 4 trace
//!   (`terminal = 1`, two rounds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grid;
pub mod solve;
pub mod spec;

pub use grid::{figure4_spec, frontier_cells, games_grid_specs, GAMES_SEED};
pub use solve::{
    bsig_game, eb_game, solve_frontier_cell, solve_game_cell, EXHAUSTIVE_MINERS,
    FRONTIER_METRIC_ARITY, GAME_METRIC_ARITY, NO_CARTEL,
};
pub use spec::{
    binomial, EconSpec, FrontierSpec, GameSpec, PerturbSpec, PowerDist, FRONTIER_CELL_CAP,
    FRONTIER_MINER_CAP,
};
