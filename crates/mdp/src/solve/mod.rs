//! Solvers: average-reward and ratio objectives (exact renewal-cycle
//! passes on regenerative models; otherwise relative value iteration, one
//! solve per Dinkelbach step of a ratio), fixed-policy evaluation (exact
//! on regenerative models, else a power method) and first passages
//! (regenerative models only). [`SolveOptions`] is the one
//! options type the attack models solve under.
//!
//! Every solver reads the CSR [`CompiledMdp`](crate::compiled::CompiledMdp);
//! [`reference`](mod@reference) keeps plain, unoptimized implementations for differential
//! testing and baseline timing.

pub mod eval;
pub mod options;
pub mod ratio;
pub mod reference;
pub mod renewal;
pub mod rvi;
pub mod simulate;

pub use eval::{evaluate_policy, PolicyEvaluation};
pub use options::{OptimalStrategy, SolveOptions};
pub use ratio::{maximize_ratio, ProbeEngine, RatioOptions, RatioSolution};
pub use renewal::{first_passage, FirstPassage};
pub use rvi::{relative_value_iteration, RviOptions, RviSolution};
pub use simulate::{sample_path, PathSample, XorShift64};
