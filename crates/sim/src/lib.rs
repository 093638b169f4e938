//! # bvc-sim — discrete-event mining and propagation simulator
//!
//! A Monte Carlo companion to the analytic crates:
//!
//! * [`engine::Simulation`] — an event-driven network of miners with
//!   per-node validity rules ([`bvc_chain`]), block propagation delays, and
//!   pluggable [`strategy::MinerStrategy`] implementations. Used for
//!   Stone-style fork-frequency experiments (§2.3 of the paper) and for
//!   exploring BU behaviour outside the paper's zero-delay model.
//! * [`attack::AttackReplay`] — the paper's attack replayed on a *real*
//!   block tree with real BU node views, driven by a policy computed by
//!   [`bvc_bu`]. Bob and Carol are groups of one or more nodes (one each
//!   is the paper's three-miner world). Cross-validates the MDP against
//!   the chain substrate: every step's successor state must be in the
//!   MDP row of its state and action ([`attack::successor_id`]), and the
//!   measured utilities must match the exact MDP evaluation.
//!
//! ## Example: honest mining never forks without delays
//!
//! ```
//! use bvc_sim::{DelayModel, MinerSpec, Simulation, HonestStrategy};
//! use bvc_chain::{BitcoinRule, ByteSize};
//!
//! let miners = (0..3).map(|_| MinerSpec {
//!     power: 1.0 / 3.0,
//!     rule: BitcoinRule::classic(),
//!     strategy: Box::new(HonestStrategy { mg: ByteSize::mb(1) }),
//! }).collect();
//! let mut sim = Simulation::new(miners, DelayModel::Zero, 1);
//! let report = sim.run(200);
//! assert!(report.reorgs.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod engine;
pub mod events;
pub mod strategy;

pub use attack::{AttackReplay, ReplayReport, ALICE};
pub use engine::{DelayModel, MinerSpec, Reorg, SimReport, Simulation};
pub use events::{Event, EventQueue};
pub use strategy::{
    BlockPlan, HonestStrategy, LeadKStrategy, MinerStrategy, SplitterStrategy, StrategyContext,
};
