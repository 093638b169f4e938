//! Seeded, deterministic fault injection for the bvc workspace.
//!
//! The FoundationDB-style discipline: every injected failure is drawn from
//! a **per-site** [`SplitMix64`] stream seeded from `plan.seed ^
//! fnv1a(site)`, so the decision sequence at any site is a pure function
//! of the fault plan — independent of thread interleaving, wall-clock
//! time, or what other sites drew. Re-running with the same seed
//! reproduces the identical failure schedule.
//!
//! Three layers:
//!
//! * [`FaultPlan`] — parsed from a `--chaos` flag or the `BVC_CHAOS`
//!   environment variable, grammar
//!   `seed=42,conn_drop=0.02,read_stall_ms=50,torn_write=0.01,crash_at=journal.after_append:3`.
//! * [`ChaosStream`] — wraps any `Read + Write` byte stream (layered
//!   *under* `bvc_serve::net` framing) and injects connection resets,
//!   torn/partial writes at drawn byte offsets, read stalls, and latency.
//! * [`crash_point`] — named process crash points
//!   (`journal.after_append`, …): when the plan's `crash_at=SITE:N`
//!   matches the Nth hit of that site, the process exits immediately with
//!   status [`CRASH_EXIT_CODE`], simulating a kill mid-operation.
//!
//! The plan is installed process-globally ([`install`] /
//! [`install_from_env`]); when nothing is installed every hook is a
//! no-op behind one relaxed atomic load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Exit status used by [`crash_point`] when a planned crash fires —
/// deliberately the shell's code for SIGKILL so drill scripts treat a
/// chaos crash and a real `kill -9` identically.
pub const CRASH_EXIT_CODE: i32 = 137;

// ---------------------------------------------------------------------------
// SplitMix64
// ---------------------------------------------------------------------------

/// The SplitMix64 generator (Steele/Lea/Flood): tiny state, full 2^64
/// period, and — crucially for per-site streams — good output even from
/// correlated seeds, which is why each site can be seeded by XOR-ing the
/// plan seed with a hash of the site name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds produce equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)` (53 significant bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; returns 0 when `n == 0`.
    pub fn next_range(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// FNV-1a 64-bit hash; stable across platforms and releases, which is what
/// a checkpoint journal (and a cache warmed from one) needs —
/// `DefaultHasher` makes no such promise. Here it mixes site names into the
/// plan seed to derive per-site streams; it lives in this crate because
/// the crate sits below every other one in the dependency graph, and
/// `bvc-journal` re-exports it for fingerprints.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

/// A `SITE:N` target: the Nth hit (1-based) of the named site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteCount {
    /// Site name, e.g. `journal.after_append` or `workerA.s1.tx`.
    pub site: String,
    /// 1-based hit count at which the fault fires.
    pub count: u64,
}

impl SiteCount {
    fn parse(raw: &str, key: &str) -> Result<SiteCount, String> {
        let (site, count) =
            raw.rsplit_once(':').ok_or_else(|| format!("{key} takes SITE:N, got {raw:?}"))?;
        let count: u64 =
            count.parse().map_err(|_| format!("{key} takes SITE:N with integer N, got {raw:?}"))?;
        if site.is_empty() || count == 0 {
            return Err(format!("{key} needs a nonempty SITE and N >= 1, got {raw:?}"));
        }
        Ok(SiteCount { site: site.to_string(), count })
    }
}

/// A parsed fault plan. All probabilities are per-I/O-operation; all
/// draws come from per-site seeded streams so the schedule is
/// reproducible. The zero plan (all fields default) injects nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Master seed; per-site streams derive from it.
    pub seed: u64,
    /// Probability that an I/O operation hits a connection reset.
    pub conn_drop: f64,
    /// Deterministic connection reset at the Nth operation of one site.
    pub conn_drop_at: Option<SiteCount>,
    /// Read stall length in milliseconds (fires with [`FaultPlan::read_stall_p`]).
    pub read_stall_ms: u64,
    /// Probability that a read stalls for `read_stall_ms` (default 0.05
    /// when `read_stall_ms` is set).
    pub read_stall_p: f64,
    /// Probability that a write is torn: a prefix (cut offset drawn from
    /// the site stream) is written, then the connection resets.
    pub torn_write: f64,
    /// Deterministic torn write at the Nth operation of one site.
    pub torn_write_at: Option<SiteCount>,
    /// Extra latency: each operation sleeps a drawn uniform
    /// `[0, latency_ms)` milliseconds.
    pub latency_ms: u64,
    /// Process crash at the Nth hit of a named [`crash_point`].
    pub crash_at: Option<SiteCount>,
}

fn parse_prob(raw: &str, key: &str) -> Result<f64, String> {
    let p: f64 = raw.parse().map_err(|_| format!("{key} takes a probability, got {raw:?}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{key} must be in [0, 1], got {raw:?}"));
    }
    Ok(p)
}

impl FaultPlan {
    /// Parses the comma-separated `key=value` grammar, e.g.
    /// `seed=42,conn_drop=0.02,read_stall_ms=50,torn_write=0.01,crash_at=journal.after_append:3`.
    ///
    /// Keys: `seed`, `conn_drop`, `conn_drop_at=SITE:N`, `read_stall_ms`,
    /// `read_stall_p`, `torn_write`, `torn_write_at=SITE:N`, `latency_ms`,
    /// `crash_at=SITE:N`. Unknown keys are an error (a typo must not
    /// silently disable a drill).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let mut stall_p_set = false;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec needs key=value, got {part:?}"))?;
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("seed takes an integer, got {value:?}"))?;
                }
                "conn_drop" => plan.conn_drop = parse_prob(value, "conn_drop")?,
                "conn_drop_at" => {
                    plan.conn_drop_at = Some(SiteCount::parse(value, "conn_drop_at")?)
                }
                "read_stall_ms" => {
                    plan.read_stall_ms = value
                        .parse()
                        .map_err(|_| format!("read_stall_ms takes milliseconds, got {value:?}"))?;
                }
                "read_stall_p" => {
                    plan.read_stall_p = parse_prob(value, "read_stall_p")?;
                    stall_p_set = true;
                }
                "torn_write" => plan.torn_write = parse_prob(value, "torn_write")?,
                "torn_write_at" => {
                    plan.torn_write_at = Some(SiteCount::parse(value, "torn_write_at")?)
                }
                "latency_ms" => {
                    plan.latency_ms = value
                        .parse()
                        .map_err(|_| format!("latency_ms takes milliseconds, got {value:?}"))?;
                }
                "crash_at" => plan.crash_at = Some(SiteCount::parse(value, "crash_at")?),
                other => return Err(format!("unknown chaos key {other:?}")),
            }
        }
        if plan.read_stall_ms > 0 && !stall_p_set {
            plan.read_stall_p = 0.05;
        }
        Ok(plan)
    }

    /// True when the plan injects nothing (every hook stays a no-op).
    pub fn is_noop(&self) -> bool {
        self.conn_drop <= 0.0
            && self.conn_drop_at.is_none()
            && (self.read_stall_ms == 0 || self.read_stall_p <= 0.0)
            && self.torn_write <= 0.0
            && self.torn_write_at.is_none()
            && self.latency_ms == 0
            && self.crash_at.is_none()
    }
}

// ---------------------------------------------------------------------------
// Global controller
// ---------------------------------------------------------------------------

struct SiteState {
    rng: SplitMix64,
    hits: u64,
}

struct Chaos {
    plan: FaultPlan,
    sites: HashMap<String, SiteState>,
    events: Vec<String>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static CTL: Mutex<Option<Chaos>> = Mutex::new(None);

const MAX_EVENTS: usize = 10_000;

fn lock_ctl() -> std::sync::MutexGuard<'static, Option<Chaos>> {
    CTL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Installs a fault plan process-globally, replacing any previous one and
/// resetting all per-site streams and counters.
pub fn install(plan: FaultPlan) {
    let mut ctl = lock_ctl();
    // ordering: SeqCst — set-once under the CTL lock; off every hot path, strongest order is free.
    ACTIVE.store(true, Ordering::SeqCst);
    *ctl = Some(Chaos { plan, sites: HashMap::new(), events: Vec::new() });
}

/// Parses and installs a `--chaos` spec.
pub fn install_spec(spec: &str) -> Result<(), String> {
    let plan = FaultPlan::parse(spec)?;
    install(plan);
    Ok(())
}

/// Installs a plan from the `BVC_CHAOS` environment variable if set.
/// Returns whether a plan was installed; a malformed value is an error
/// (silent fallback would turn a typoed drill into a clean run).
pub fn install_from_env() -> Result<bool, String> {
    match std::env::var("BVC_CHAOS") {
        Ok(spec) if !spec.trim().is_empty() => {
            install_spec(&spec).map_err(|e| format!("BVC_CHAOS: {e}"))?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Removes the installed plan; every hook becomes a no-op again.
pub fn reset() {
    let mut ctl = lock_ctl();
    // ordering: SeqCst — set-once under the CTL lock; off every hot path, strongest order is free.
    ACTIVE.store(false, Ordering::SeqCst);
    *ctl = None;
}

/// True when a fault plan is installed (one relaxed load on the no-chaos
/// fast path).
pub fn is_active() -> bool {
    // ordering: Relaxed — no-chaos fast path; hooks that see true re-check under the CTL lock.
    ACTIVE.load(Ordering::Relaxed)
}

/// Returns a copy of the installed plan, if any.
pub fn active_plan() -> Option<FaultPlan> {
    lock_ctl().as_ref().map(|c| c.plan.clone())
}

/// Drains the recorded fault-event log (site, op index, decision). The
/// per-site decision *sequence* is deterministic for a given seed; which
/// wall-clock operation each decision lands on can vary with scheduling.
pub fn drain_events() -> Vec<String> {
    match lock_ctl().as_mut() {
        Some(c) => std::mem::take(&mut c.events),
        None => Vec::new(),
    }
}

fn record_event(c: &mut Chaos, site: &str, hit: u64, what: &str) {
    if c.events.len() < MAX_EVENTS {
        c.events.push(format!("{site}#{hit}:{what}"));
    }
}

/// Whether an I/O operation reads or writes — decides which fault kinds
/// apply (stalls on reads, torn writes on writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A read from the stream.
    Read,
    /// A write to the stream.
    Write,
}

/// The fault (if any) drawn for one I/O operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IoFault {
    /// Proceed normally.
    None,
    /// Reset the connection (the stream is dead afterwards).
    Reset,
    /// Sleep this long, then proceed.
    Stall(Duration),
    /// Write only `cut` of a fraction of the buffer, then reset. The cut
    /// fraction in `[0, 1)` was drawn from the site stream — the torn
    /// byte offset is part of the reproducible schedule.
    Torn {
        /// Fraction of the buffer to write before the reset.
        cut: f64,
    },
}

/// Draws the fault for one I/O operation at `site`. No plan installed →
/// [`IoFault::None`]. Exactly four values are drawn from the site stream
/// per call regardless of configuration or outcome, so enabling one fault
/// kind never shifts another kind's schedule.
pub fn draw_io(site: &str, op: IoOp) -> IoFault {
    if !is_active() {
        return IoFault::None;
    }
    let mut ctl = lock_ctl();
    let Some(c) = ctl.as_mut() else { return IoFault::None };
    let plan = c.plan.clone();
    let seed = plan.seed ^ fnv1a64(site.as_bytes());
    let st = c
        .sites
        .entry(site.to_string())
        .or_insert_with(|| SiteState { rng: SplitMix64::new(seed), hits: 0 });
    st.hits += 1;
    let hit = st.hits;
    let (u_drop, u_stall, u_torn) = (st.rng.next_f64(), st.rng.next_f64(), st.rng.next_f64());
    let u_aux = st.rng.next_u64();

    let targeted =
        |t: &Option<SiteCount>| t.as_ref().is_some_and(|sc| sc.site == site && sc.count == hit);
    let fault = if targeted(&plan.conn_drop_at) || u_drop < plan.conn_drop {
        IoFault::Reset
    } else if op == IoOp::Write && (targeted(&plan.torn_write_at) || u_torn < plan.torn_write) {
        IoFault::Torn { cut: u_torn.fract() }
    } else if op == IoOp::Read && plan.read_stall_ms > 0 && u_stall < plan.read_stall_p {
        IoFault::Stall(Duration::from_millis(plan.read_stall_ms))
    } else if plan.latency_ms > 0 {
        IoFault::Stall(Duration::from_millis(u_aux % plan.latency_ms.max(1)))
    } else {
        IoFault::None
    };
    match fault {
        IoFault::None => {}
        IoFault::Reset => record_event(c, site, hit, "reset"),
        IoFault::Stall(d) => record_event(c, site, hit, &format!("stall{}ms", d.as_millis())),
        IoFault::Torn { cut } => record_event(c, site, hit, &format!("torn@{cut:.3}")),
    }
    fault
}

/// A named crash point. When the installed plan's `crash_at=SITE:N`
/// matches the Nth hit of `site`, prints a diagnostic and exits the
/// process with [`CRASH_EXIT_CODE`] — no unwinding, no destructors, like
/// a kill mid-operation. A no-op otherwise.
///
/// Established site names: `journal.after_append` (after a journal line
/// is written and flushed), `journal.before_append` (before the write),
/// `journal.after_compact` (after a compaction rename).
pub fn crash_point(site: &str) {
    if !is_active() {
        return;
    }
    let hit = {
        let mut ctl = lock_ctl();
        let Some(c) = ctl.as_mut() else { return };
        let Some(target) = c.plan.crash_at.clone() else { return };
        if target.site != site {
            return;
        }
        let seed = c.plan.seed ^ fnv1a64(site.as_bytes());
        let st = c
            .sites
            .entry(site.to_string())
            .or_insert_with(|| SiteState { rng: SplitMix64::new(seed), hits: 0 });
        st.hits += 1;
        if st.hits != target.count {
            return;
        }
        st.hits
    };
    eprintln!("chaos: crash_point {site} hit {hit}, exiting {CRASH_EXIT_CODE}");
    std::process::exit(CRASH_EXIT_CODE);
}

// ---------------------------------------------------------------------------
// Chaos-wrapped byte stream
// ---------------------------------------------------------------------------

/// Wraps a byte stream and injects the installed plan's network faults:
/// connection resets, torn writes (a drawn prefix is written, then the
/// stream dies), read stalls, and latency. Layered *under* framing, so a
/// torn write tears a frame mid-bytes exactly like a crashed peer.
///
/// Each wrapper draws from the per-site stream named at construction;
/// give every connection its own site (e.g. `workerA.s2.tx`) so
/// schedules stay independent and reproducible.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    site: String,
    dead: bool,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner`, drawing faults from the per-site stream `site`.
    pub fn new(inner: S, site: &str) -> Self {
        ChaosStream { inner, site: site.to_string(), dead: false }
    }
}

fn reset_err() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "chaos: injected connection reset")
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.dead {
            return Err(reset_err());
        }
        match draw_io(&self.site, IoOp::Read) {
            IoFault::Reset => {
                self.dead = true;
                Err(reset_err())
            }
            IoFault::Stall(d) => {
                std::thread::sleep(d);
                self.inner.read(buf)
            }
            IoFault::Torn { .. } | IoFault::None => self.inner.read(buf),
        }
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.dead {
            return Err(reset_err());
        }
        match draw_io(&self.site, IoOp::Write) {
            IoFault::Reset => {
                self.dead = true;
                Err(reset_err())
            }
            IoFault::Torn { cut } => {
                // Write a prefix up to the drawn byte offset, then die —
                // the peer sees a torn frame.
                let n = ((buf.len() as f64 * cut) as usize).min(buf.len().saturating_sub(1));
                if n > 0 {
                    let _ = self.inner.write(&buf[..n]);
                    let _ = self.inner.flush();
                }
                self.dead = true;
                Err(reset_err())
            }
            IoFault::Stall(d) => {
                std::thread::sleep(d);
                self.inner.write(buf)
            }
            IoFault::None => self.inner.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(reset_err());
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The chaos controller is process-global; serialize tests that
    // install plans.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn splitmix_is_deterministic_and_distinct_by_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
        let mut d = SplitMix64::new(0);
        for _ in 0..100 {
            let f = d.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn plan_parses_the_issue_grammar() {
        let plan = FaultPlan::parse(
            "seed=42,conn_drop=0.02,read_stall_ms=50,torn_write=0.01,crash_at=journal.after_append:3",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert!((plan.conn_drop - 0.02).abs() < 1e-12);
        assert_eq!(plan.read_stall_ms, 50);
        assert!((plan.read_stall_p - 0.05).abs() < 1e-12, "default stall probability");
        assert!((plan.torn_write - 0.01).abs() < 1e-12);
        assert_eq!(
            plan.crash_at,
            Some(SiteCount { site: "journal.after_append".into(), count: 3 })
        );
        assert!(!plan.is_noop());
        assert!(FaultPlan::parse("").unwrap().is_noop());
    }

    #[test]
    fn plan_rejects_malformed_specs() {
        assert!(FaultPlan::parse("conn_drop=2.0").is_err(), "probability out of range");
        assert!(FaultPlan::parse("bogus_key=1").is_err(), "unknown key");
        assert!(FaultPlan::parse("crash_at=nocolon").is_err(), "missing :N");
        assert!(FaultPlan::parse("crash_at=site:0").is_err(), "zero count");
        assert!(FaultPlan::parse("seed").is_err(), "missing =value");
    }

    #[test]
    fn per_site_draw_sequences_replay_exactly() {
        let _g = guard();
        let plan = FaultPlan::parse("seed=7,conn_drop=0.3,torn_write=0.2,latency_ms=1").unwrap();
        let draw_all = || -> Vec<IoFault> {
            (0..32)
                .map(|i| {
                    let op = if i % 2 == 0 { IoOp::Read } else { IoOp::Write };
                    draw_io("test.site", op)
                })
                .collect()
        };
        install(plan.clone());
        let first = draw_all();
        install(plan);
        let second = draw_all();
        assert_eq!(first, second, "same seed + site must replay the identical schedule");
        assert!(first.iter().any(|f| *f != IoFault::None), "plan should fire at least once");
        reset();
        assert_eq!(draw_io("test.site", IoOp::Read), IoFault::None, "reset disables draws");
    }

    #[test]
    fn targeted_faults_fire_at_the_exact_op() {
        let _g = guard();
        install(FaultPlan::parse("seed=1,conn_drop_at=tgt:3").unwrap());
        assert_eq!(draw_io("tgt", IoOp::Write), IoFault::None);
        assert_eq!(draw_io("tgt", IoOp::Write), IoFault::None);
        assert_eq!(draw_io("tgt", IoOp::Write), IoFault::Reset);
        assert_eq!(draw_io("tgt", IoOp::Write), IoFault::None, "fires exactly once");
        assert_eq!(draw_io("other", IoOp::Write), IoFault::None, "other sites untouched");
        reset();
    }

    #[test]
    fn chaos_stream_tears_writes_and_dies() {
        let _g = guard();
        install(FaultPlan::parse("seed=1,torn_write_at=cs.tx:2").unwrap());
        let mut s = ChaosStream::new(Vec::<u8>::new(), "cs.tx");
        assert_eq!(s.write(b"hello").unwrap(), 5);
        let err = s.write(b"worldworld").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert!(s.inner.len() < 15, "second write must be torn, not completed");
        assert!(s.write(b"x").is_err(), "stream stays dead");
        let events = drain_events();
        assert!(events.iter().any(|e| e.starts_with("cs.tx#2:torn")), "events: {events:?}");
        reset();
    }

    #[test]
    fn crash_point_is_inert_without_matching_site() {
        let _g = guard();
        install(FaultPlan::parse("seed=1,crash_at=never.here:1").unwrap());
        // Must not exit the test process.
        crash_point("journal.after_append");
        crash_point("journal.after_append");
        reset();
        crash_point("never.here");
    }
}
