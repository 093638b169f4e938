//! # bvc-scenario — massively-parallel BU network scenario grids
//!
//! The paper's MDP analyses (Tables 2–4) model Bitcoin Unlimited as three
//! aggregate miners under idealized propagation. This crate closes the
//! loop from the other side: it runs *networks* — up to thousands of
//! individually-parameterized BU nodes with heterogeneous `EB`
//! assignments, skewed hash-rate distributions, and topology-aware
//! propagation delays — and cross-validates the MDP's optimal policies
//! against those networks.
//!
//! The pieces:
//!
//! * [`ScenarioSpec`] — one fully-deterministic cell: node count, hash
//!   distribution ([`HashDist`]), `EB`/`AD` assignment, delay model
//!   ([`DelaySpec`]), acceptance rule ([`RuleKind`]: the sticky-gate spec
//!   rule or the buggy §2.2 source-code rule), and attacker
//!   ([`AttackerSpec`]). Cells have a stable journal key, a compact wire
//!   encoding, and a per-cell seed derived with the `bvc-chaos` per-site
//!   discipline, so a cell's metrics are bit-identical at any thread or
//!   worker count.
//! * [`run_scenario`] — executes a cell: honest / lead-k cells through
//!   the discrete-event engine (`bvc_sim::Simulation`), MDP cells through
//!   `bvc_sim::AttackReplay`, which replays the freshly solved optimal
//!   policy on an N-node chain world, checks every step's successor
//!   against the policy's MDP row, and measures the realized relative
//!   revenue.
//! * [`grid_specs`] / [`crossval_cells`] — the canonical workloads the
//!   cluster job registry exposes as `scenario-grid` and
//!   `scenario-crossval`, giving scenario cells sharding, journaling,
//!   crash resume, and chaos testing for free.
//!
//! The cross-validation claim, precisely: for each Table 2 setting-1
//! setting in [`CROSSVAL_SETTINGS`], the mean simulated relative revenue
//! over [`CROSSVAL_REPS`] seeded replications of a [`CROSSVAL_NODES`]-node
//! network must lie within [`crossval_tolerance`] of the exact MDP `u1` —
//! the aggregation of many heterogeneous nodes into the model's three
//! miners is exact under setting-1 semantics, so disagreement beyond
//! sampling error indicates a bug in either substrate.

pub mod engine;
pub mod grid;
pub mod spec;

pub use engine::{large_assignment, run_scenario, METRIC_ARITY};
pub use grid::{
    crossval_cells, crossval_tolerance, grid_specs, CROSSVAL_BLOCKS, CROSSVAL_NODES, CROSSVAL_REPS,
    CROSSVAL_SETTINGS, GRID_SEED,
};
pub use spec::{AttackerSpec, DelaySpec, HashDist, RuleKind, ScenarioSpec};
