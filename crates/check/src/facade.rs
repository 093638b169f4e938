//! Synchronization facade for the crates whose concurrency is
//! model-checked (`bvc-serve`'s cache, `bvc-cluster`'s coordinator and
//! `bvc-repro`'s claim loop).
//!
//! Production builds re-export `std::sync`/`std::thread` directly — the
//! facade is zero-cost and binaries are bit-identical to using std paths
//! inline. Under `--cfg bvc_check` the same names resolve to the shims of
//! [`crate::sync`] and [`crate::thread`], whose every operation is a
//! decision point of the model checker's controlled scheduler (and which
//! fall back to plain std behaviour outside a model run). See DESIGN.md
//! §13.

#[cfg(not(bvc_check))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
#[cfg(not(bvc_check))]
pub use std::sync::{Arc, Condvar, Mutex, MutexGuard};
#[cfg(not(bvc_check))]
pub use std::thread::scope;

#[cfg(bvc_check)]
pub use crate::sync::{Arc, AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, MutexGuard};
#[cfg(bvc_check)]
pub use crate::thread::scope;
