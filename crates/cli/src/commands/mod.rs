//! Subcommand implementations: parse (unit-testable) and run.

pub mod audit;
pub mod bitcoin;
pub mod cell;
pub mod cluster;
pub mod games;
pub mod journal;
pub mod serve;
pub mod simulate;
pub mod solve;
