//! # bvc-bu — the Bitcoin Unlimited attack-strategy MDP models
//!
//! This crate is the reproduction of the core contribution of Zhang &
//! Preneel, *"On the Necessity of a Prescribed Block Validity Consensus:
//! Analyzing Bitcoin Unlimited Mining Protocol"* (CoNEXT 2017), §4: a
//! three-miner model in which a strategic miner (Alice) exploits the absence
//! of a block validity consensus to fork the blockchain between two
//! compliant miner groups (Bob with a small `EB`, Carol with a larger one).
//!
//! The mining race is encoded as an undiscounted average-reward Markov
//! decision process over states `(l1, l2, a1, a2, r)` (see
//! [`state::AttackState`]) and solved for the optimal attacker strategy
//! under the paper's three incentive models:
//!
//! | incentive model | utility | paper result |
//! |---|---|---|
//! | compliant & profit-driven | relative revenue `u1` | Table 2: up to 27.6% for a 25% miner |
//! | non-compliant & profit-driven | absolute revenue `u2` | Table 3: profitable double spending even at α = 1% |
//! | non-profit-driven | orphans per attacker block `u3` | Table 4: up to 1.77 (Bitcoin: ≤ 1) |
//!
//! ## Quick example
//!
//! ```
//! use bvc_bu::{AttackConfig, AttackModel, IncentiveModel, Setting, SolveOptions};
//!
//! // A compliant 25% miner against a 37.5%/37.5% split (β : γ = 1 : 1).
//! let cfg = AttackConfig::with_ratio(
//!     0.25, (1, 1), Setting::One, IncentiveModel::CompliantProfitDriven);
//! let model = AttackModel::build(cfg).unwrap();
//! let honest = model.evaluate(&model.honest_policy()).unwrap();
//! assert!((honest.u1 - 0.25).abs() < 1e-6); // honest mining is fair...
//! let best = model.optimal_relative_revenue(&SolveOptions::default()).unwrap();
//! assert!(best.value > 0.26); // ...but deliberate forking beats it.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod metrics;
pub mod model;
pub mod multi_eb;
pub mod policy_view;
pub mod rewards;
pub mod solve;
pub mod state;
pub mod table1;

pub use bvc_mdp::solve::{OptimalStrategy, SolveOptions};
pub use config::{parse_ratio, AttackConfig, IncentiveModel, Setting, Utility};
pub use model::{expand, AttackModel};
pub use multi_eb::{EbGroup, MultiEbScenario, SplitOutcome};
pub use policy_view::{
    policy_table, render_phase1_map, state_actions, summarize, PolicySummary, StateAction,
};
pub use solve::UtilityReport;
pub use state::{Action, AttackState};
