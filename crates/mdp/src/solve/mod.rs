//! Solvers: discounted (value/policy iteration), average-reward (relative
//! value iteration, and exact renewal-cycle passes on regenerative models),
//! ratio objectives (secant search on ρ over transformed rewards), and
//! fixed-policy evaluation. [`SolveOptions`] is the one options type the
//! attack models solve under.
//!
//! The production solvers run on the CSR-flattened
//! [`CompiledMdp`](crate::compiled::CompiledMdp); [`reference`] keeps the
//! original nested-layout implementations for differential testing and
//! baseline timing.

pub mod avg_pi;
pub mod eval;
pub mod hitting;
pub mod options;
pub mod policy_iteration;
pub mod ratio;
pub mod reference;
pub mod renewal;
pub mod rvi;
pub mod simulate;
pub mod value_iteration;

pub use avg_pi::{average_reward_policy_iteration, AvgPiOptions, AvgPiSolution};
pub use eval::{evaluate_policy, EvalOptions, PolicyEvaluation};
pub use hitting::{expected_hitting_time, hitting_probability, HittingOptions};
pub use options::{OptimalStrategy, SolveOptions};
pub use policy_iteration::{policy_iteration, PiOptions, PiSolution};
pub use ratio::{maximize_ratio, ProbeEngine, RatioOptions, RatioSolution};
pub use rvi::{relative_value_iteration, RviOptions, RviSolution};
pub use simulate::{sample_path, PathSample, XorShift64};
pub use value_iteration::{value_iteration, ViOptions, ViSolution};
