//! Solvers: average-reward and ratio objectives and fixed-policy
//! evaluation, all exact by renewal over a regeneration set
//! ([`renewal`](mod@renewal)), and first passages (models where state 0
//! alone is that set). [`SolveOptions`] is the one options type the attack
//! models solve under.
//!
//! Every solver reads the CSR [`CompiledMdp`](crate::compiled::CompiledMdp);
//! [`reference`](mod@reference) keeps plain, unoptimized implementations for differential
//! testing and baseline timing.

pub mod eval;
mod lu;
pub mod options;
pub mod ratio;
pub mod reference;
pub mod renewal;
pub mod rvi;
pub mod simulate;

pub use eval::{evaluate_policy, PolicyEvaluation};
pub use options::{OptimalStrategy, SolveOptions};
pub use ratio::{maximize_ratio, RatioOptions, RatioSolution};
pub use renewal::{first_passage, regeneration_set, FirstPassage, Regeneration};
pub use rvi::{relative_value_iteration, RviOptions, RviSolution};
pub use simulate::{sample_path, PathSample, XorShift64};
