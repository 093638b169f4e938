//! Solvers: average-reward (exact renewal-cycle passes on regenerative
//! models, relative value iteration otherwise), ratio objectives (secant
//! search on ρ over transformed rewards), fixed-policy evaluation and
//! hitting analysis. [`SolveOptions`] is the one options type the
//! attack models solve under.
//!
//! The production solvers run on the CSR-flattened
//! [`CompiledMdp`](crate::compiled::CompiledMdp); [`reference`] keeps the
//! original nested-layout implementations for differential testing and
//! baseline timing.

pub mod eval;
pub mod hitting;
pub mod options;
pub mod ratio;
pub mod reference;
pub mod renewal;
pub mod rvi;
pub mod simulate;

pub use eval::{evaluate_policy, PolicyEvaluation};
pub use hitting::{expected_hitting_time, hitting_probability};
pub use options::{OptimalStrategy, SolveOptions};
pub use ratio::{maximize_ratio, ProbeEngine, RatioOptions, RatioSolution};
pub use rvi::{relative_value_iteration, RviOptions, RviSolution};
pub use simulate::{sample_path, PathSample, XorShift64};
