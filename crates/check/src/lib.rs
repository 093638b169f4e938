//! # bvc-check — a loom-style concurrency model checker
//!
//! Runs a closure's threads under shim synchronization primitives
//! ([`sync`], [`thread`]) on a *controlled scheduler*: exactly one model
//! thread executes at a time, and every visible operation (mutex acquire,
//! condvar park/notify, atomic access, spawn/join) is a scheduling
//! decision point. [`explore`] enumerates interleavings by depth-first
//! search over those decisions with *iterative preemption bounding* (all
//! schedules with 0 forced context switches first, then 1, then 2, …),
//! which finds minimal counterexamples first and keeps the search
//! tractable — empirically almost all real concurrency bugs need very few
//! preemptions (CHESS; Musuvathi & Qadeer, PLDI 2007).
//!
//! Detected violations:
//!
//! * **deadlock** — no thread is runnable but not all have finished
//!   (includes lost condvar notifications: a waiter parked forever);
//! * **panic** — any model thread panics, including failed `assert!`s of
//!   user-stated invariants;
//! * **step limit** — a schedule exceeds the per-run operation budget
//!   (livelock guard);
//! * **divergence** — a replayed schedule no longer matches the program
//!   (stale counterexample).
//!
//! Every violation carries a compact *schedule string* (the branch
//! choices taken at each multi-choice decision point, e.g. `"1.0.2"`)
//! that [`replay`] re-executes deterministically — the same spirit as
//! `bvc-chaos` fault-schedule seeds.
//!
//! The shim primitives fall back to plain `std::sync` behaviour when used
//! outside a model run, so a `--cfg bvc_check` build of a crate that
//! routes its synchronization through [`facade`] (see DESIGN.md §13)
//! still works normally; only closures run under [`explore`]/[`replay`]
//! are scheduled.
//!
//! Spurious condvar wakeups are modelled as an opt-in extra
//! nondeterministic choice ([`Config::spurious`]): any parked waiter may
//! be woken at any decision point, so `if`-guarded waits that survive
//! exploration with `spurious: true` are certified wakeup-safe.
//!
//! ```
//! use std::sync::atomic::Ordering;
//!
//! // Two threads, non-atomic read-modify-write: the checker finds the
//! // lost update and hands back a replayable schedule.
//! let report = bvc_check::explore(&bvc_check::Config::default(), || {
//!     let c = bvc_check::sync::Arc::new(bvc_check::sync::AtomicU64::new(0));
//!     let t = bvc_check::thread::spawn({
//!         let c = c.clone();
//!         move || {
//!             let v = c.load(Ordering::SeqCst);
//!             c.store(v + 1, Ordering::SeqCst);
//!         }
//!     });
//!     let v = c.load(Ordering::SeqCst);
//!     c.store(v + 1, Ordering::SeqCst);
//!     t.join().ok();
//!     assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
//! });
//! let v = report.violation.expect("the race must be found");
//! assert!(v.message.contains("lost update"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod facade;
mod sched;
pub mod sync;
pub mod thread;

pub use sched::{
    check, explore, is_model_abort, replay, reraise_if_abort, Config, Report, Violation,
    ViolationKind,
};
