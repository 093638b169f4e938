//! bvc-cluster: distributed sweep execution with lease-based fault
//! tolerance and bit-identical checkpoint journals.
//!
//! A sweep (any of the table binaries' cell grids) is sharded across
//! worker processes over a length-prefixed JSON-over-TCP protocol built on
//! [`bvc_journal::net`]:
//!
//! * the **coordinator** ([`coordinator`]) owns the cell queue and the
//!   append-only journal, hands out work under time-bounded leases with
//!   heartbeats, requeues cells whose lease expired (worker death or
//!   stall), re-dispatches tail stragglers, and dedupes duplicate
//!   completions by fingerprint — first result wins, conflicting value
//!   bits are a hard error;
//! * **workers** ([`worker`]) are stateless loops around the same
//!   budget-governed solver the local sweep runner uses: connect, claim a
//!   batch of cells, solve each exactly as a local run would, and stream
//!   results back.
//!
//! Because cell fingerprints ([`bvc_journal::cell_fingerprint`]), the
//! journal line codec ([`bvc_journal::encode_line`]) and the per-cell
//! runner ([`cell::run_cell`]) are all shared with the local runner, a
//! distributed run writes a journal **byte-identical** to a
//! single-process `run_sweep` over the same cells.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod coordinator;
pub mod jobs;
#[cfg(bvc_check)]
pub mod model;
pub mod protocol;
pub mod worker;

pub use cell::{run_cell, CellContext, CellFailure, CellResult, CellRunConfig};
pub use coordinator::{run_coordinator, ClusterConfig, ClusterError, ClusterReport, Coordinator};
pub use jobs::{workload, JobSpec, Workload, WORKLOAD_NAMES};
pub use worker::{run_worker, DieMode, ReconnectPolicy, WorkerOptions, WorkerSummary};
