//! The cell-kind schema: one trait for every journaled cell kind whose spec
//! crosses the wire whole (`bvc_scenario::ScenarioSpec`,
//! `bvc_gamesweep::GameSpec`, `bvc_gamesweep::FrontierSpec`).
//!
//! A kind's parameter names, wire codec, journal key, cache token, work
//! cap, solver and metric vocabulary live in its one [`Cell`] impl. Serve's
//! cell routes, the `bvc` CLI's cell commands and the cluster job codec are
//! generic over the trait, so a cell reads, solves and renders the same
//! through every front end.

use std::fmt;

use bvc_mdp::solve::SolveOptions;
use bvc_mdp::MdpError;

/// How a metric renders: a count (the value truncated to `u64`) or a real
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricType {
    /// A count.
    Int,
    /// A real number.
    Num,
}

/// One named, typed metric: `slot` indexes the value vector
/// [`Cell::solve`] returns (and the journal stores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// The name every front end prints.
    pub name: &'static str,
    /// Index into the cell's value vector.
    pub slot: usize,
    /// How the value renders.
    pub ty: MetricType,
}

impl Metric {
    /// A count metric.
    pub const fn int(name: &'static str, slot: usize) -> Metric {
        Metric { name, slot, ty: MetricType::Int }
    }

    /// A real-valued metric.
    pub const fn num(name: &'static str, slot: usize) -> Metric {
        Metric { name, slot, ty: MetricType::Num }
    }
}

/// A typed output value: a metric, or a spec field serve reports beside
/// the key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A count.
    Int(u64),
    /// A real number.
    Num(f64),
    /// A label.
    Str(&'static str),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Num(v) => write!(f, "{v}"),
            Value::Str(s) => f.write_str(s),
        }
    }
}

/// One journaled cell kind. Everything a front end needs is derived from
/// the impl; the impl's own crate owns the meaning of every field.
pub trait Cell: Sized {
    /// Wire tag: the first `;`-separated field of [`Cell::encode`], on
    /// which the job codec dispatches.
    const TAG: &'static str;

    /// Every parameter name [`Cell::from_params`] reads: serve's query
    /// names and the CLI's flags.
    const PARAMS: &'static [&'static str];

    /// Length of the value vector [`Cell::solve`] returns.
    const ARITY: usize;

    /// The parameter schema: builds a validated spec from a `name → text`
    /// lookup (serve's query string, the CLI's flags).
    fn from_params<'a>(get: impl Fn(&str) -> Option<&'a str>) -> Result<Self, String>;

    /// Human-readable cell key; unique per spec and stable across versions
    /// (journal fingerprints and serve cache keys derive from it).
    fn key(&self) -> String;

    /// The wire fields after the tag.
    fn encode_fields(&self) -> String;

    /// Inverse of [`Cell::encode_fields`]; `None` on any malformed field.
    fn decode_fields(fields: &str) -> Option<Self>;

    /// The cache and journal config token, hashed with [`Cell::key`] into
    /// the fingerprint: it names every solver knob that can change a
    /// value.
    fn config_token() -> String;

    /// Serve's cap on one interactive request, far below the structural
    /// limits `from_params` enforces: larger cells belong in the sweep
    /// workloads.
    fn check_work(&self) -> Result<(), String>;

    /// Solves the cell to its value vector ([`Cell::ARITY`] entries). An
    /// invalid spec is [`MdpError::AuditFailed`] (never retried).
    fn solve(&self, opts: &SolveOptions) -> Result<Vec<f64>, MdpError>;

    /// The metrics reported for the value vector `vals`, in output order.
    /// The list may depend on the spec or on the values (a metric that
    /// means nothing for this cell is left out).
    fn metrics(&self, vals: &[f64]) -> &'static [Metric];

    /// The spec fields serve reports beside the key.
    fn echo(&self) -> Vec<(&'static str, Value)>;

    /// Compact wire encoding: the tag, then [`Cell::encode_fields`].
    fn encode(&self) -> String {
        format!("{};{}", Self::TAG, self.encode_fields())
    }

    /// Inverse of [`Cell::encode`]; `None` on a foreign tag or any
    /// malformed field.
    fn decode(wire: &str) -> Option<Self> {
        Self::decode_fields(wire.strip_prefix(Self::TAG)?.strip_prefix(';')?)
    }

    /// The named, typed metrics of `vals`; `None` when `vals` has the
    /// wrong arity (a journal written by a different cell kind).
    fn named_metrics(&self, vals: &[f64]) -> Option<Vec<(&'static str, Value)>> {
        if vals.len() != Self::ARITY {
            return None;
        }
        let value = |m: &Metric| match m.ty {
            MetricType::Int => Value::Int(vals[m.slot] as u64),
            MetricType::Num => Value::Num(vals[m.slot]),
        };
        Some(self.metrics(vals).iter().map(|m| (m.name, value(m))).collect())
    }
}
