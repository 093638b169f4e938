//! # bvc-bench — timing harness and benchmark binaries
//!
//! The library hosts the std-only [`timing`] harness the binaries in
//! `src/bin/` (`sweep_timing`, `serve_load`, `scenario_scaling`,
//! `games_scaling`, ...) measure with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;
