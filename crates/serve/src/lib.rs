//! bvc-serve: an offline HTTP/JSON solve-serving subsystem.
//!
//! Exposes the paper's table cells and ad-hoc model solves over a
//! std-only HTTP/1.1 service: a blocking listener with a fixed worker
//! pool, a sharded LRU cache keyed by the same FNV-1a fingerprints the
//! sweep journal uses (so `--preload journal.jsonl` warm-starts the
//! cache with bit-identical values), single-flight deduplication of
//! concurrent identical solves, and bounded cold-work admission that
//! sheds overload with `429 Retry-After` while continuing to answer
//! cache hits.
//!
//! The crate is dependency-free by design — the whole workspace builds
//! offline — so the HTTP substrate ([`http`]), the JSON codec
//! ([`json`]), and the metrics exposition ([`metrics`]) are hand-rolled
//! on `std` alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod http;
pub mod json;
pub mod metrics;
pub mod net;
pub mod routes;
pub(crate) mod sync;

pub use cache::{CachedCell, Fetched, SolveCache, SolveFailure};
pub use http::{HttpConfig, Request, Response};
pub use metrics::Metrics;
pub use routes::{config_token, parse_cell_request, start, RunningServer, ServeConfig, Service};
