//! # bvc-mdp — a finite Markov decision process toolkit
//!
//! A from-scratch, dependency-free MDP library built for analyzing
//! blockchain mining protocols, in the style used by Sapirshtein et al.
//! ("Optimal Selfish Mining Strategies in Bitcoin") and by Zhang & Preneel
//! ("On the Necessity of a Prescribed Block Validity Consensus", CoNEXT '17):
//!
//! * [`Mdp`] — sparse models with **vector-valued rewards**, so a single
//!   mining model can expose the attacker's locked blocks, the other miners'
//!   locked blocks, orphan counts and double-spend payouts as separate
//!   components, combined only at solve time by an [`Objective`].
//! * [`indexer::explore`] — breadth-first construction of a model from a
//!   typed domain-state expansion function, with state interning. The
//!   expansion writes each state's actions into a reused [`Expansion`] sink,
//!   so building a model allocates only the model.
//! * [`solve::relative_value_iteration`] — undiscounted average-reward
//!   solving (the paper's "undiscounted average reward MDP"): exact
//!   ([`solve::renewal`]) when state 0 is a regeneration state, relative
//!   value iteration otherwise.
//! * [`solve::maximize_ratio`] — maximizes `E[N]/E[D]` objectives such as
//!   *relative revenue* (Eq. 1 of the paper) via a safeguarded secant search
//!   on ρ over transformed rewards; each probe is exact
//!   ([`solve::renewal`]) when state 0 is a regeneration state.
//! * [`solve::evaluate_policy`] — long-run component rates of a fixed
//!   policy by a damped power method (to a 1e-12 L1 tolerance), for
//!   reporting every utility of one optimal strategy and for Monte Carlo
//!   cross-validation.
//!
//! ## Quick example
//!
//! ```
//! use bvc_mdp::{Mdp, Objective, Transition};
//! use bvc_mdp::solve::{relative_value_iteration, RviOptions};
//!
//! // A coin that pays 1 on heads (p = 0.3) each step.
//! let mut m = Mdp::new(1);
//! let s = m.add_state();
//! m.add_action(s, 0, vec![
//!     Transition::new(s, 0.3, vec![1.0]),
//!     Transition::new(s, 0.7, vec![0.0]),
//! ]);
//! let sol = relative_value_iteration(&m, &Objective::new(vec![1.0]),
//!                                     &RviOptions::default()).unwrap();
//! assert!((sol.gain - 0.3).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod budget;
pub mod compiled;
pub mod error;
pub mod indexer;
pub mod model;
pub mod policy_table;
mod shard;
pub mod solve;

pub use audit::{
    audit_compiled, audit_mdp, audit_policy, demo_multichain, demo_unreachable, AuditOptions,
    AuditReport, AuditStatus,
};
pub use budget::SolveBudget;
pub use compiled::CompiledMdp;
pub use error::MdpError;
pub use indexer::{
    expand_one, explore, ActionOutcomes, CollectedAction, Expansion, Explored, StateIndexer,
};
pub use model::{ActionArm, ActionId, Mdp, Objective, Policy, StateId, Transition};
pub use policy_table::{PolicyTable, PolicyTableError};
pub use shard::DEFAULT_SHARD_MIN_STATES;
