//! Fingerprint-keyed solve cache: a sharded LRU over solved cells,
//! single-flight deduplication of concurrent misses, and an admission gate
//! that sheds cold-path load once the solve queue is full.
//!
//! Keys are the same 64-bit FNV-1a fingerprints the sweep journal uses
//! (`bvc_journal::cell_fingerprint` of the cell key string and
//! a config token covering every value-affecting solver knob), so a sweep
//! journal can be preloaded verbatim as a warm cache and a served value is
//! bit-identical to the journaled one.
//!
//! Beside each shard's cells sits a side map of rendered hit replies, one
//! per cell that has been hit (see [`SolveCache::store_reply`]). A cell
//! that is never hit carries no reply bytes, and a stored reply dies with
//! its cell: on eviction, and when [`SolveCache::insert`] replaces the
//! cell.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::Ordering;

use bvc_check::facade::{Arc, AtomicU64, AtomicUsize, Condvar, Mutex};
use bvc_journal::cell_fingerprint;
use bvc_journal::load_journal;
use bvc_mdp::MdpError;

/// One cached solve result.
#[derive(Debug, Clone)]
pub struct CachedCell {
    /// The solved values (one per table cell; more for packed rows).
    pub vals: Vec<f64>,
    /// Wall-clock solve time in milliseconds (0 for preloaded cells).
    pub solve_ms: f64,
    /// Model state count (0 when unknown, i.e. preloaded).
    pub states: usize,
    /// Whether the cell came from a preloaded sweep journal.
    pub preloaded: bool,
}

/// Why a leader's solve failed; cloned to every parked follower.
#[derive(Debug, Clone)]
pub enum SolveFailure {
    /// The solver returned a structured error.
    Mdp(MdpError),
    /// The solve closure panicked; the payload is the panic message.
    Panicked(String),
}

/// Outcome of [`SolveCache::get_or_solve`].
#[derive(Debug)]
pub enum Fetched {
    /// Served from the cache.
    Hit {
        /// The cached cell.
        cell: Arc<CachedCell>,
        /// The reply body stored for this cell under the request's echo,
        /// if one was stored ([`SolveCache::store_reply`]).
        reply: Option<Vec<u8>>,
    },
    /// Solved on this request (`leader`) or on a concurrent one we parked
    /// behind (`!leader`); the cell is now cached either way.
    Solved {
        /// The freshly solved cell.
        cell: Arc<CachedCell>,
        /// Whether this request ran the solver itself.
        leader: bool,
    },
    /// The solve failed; failures are not cached, so a later request
    /// retries.
    Failed {
        /// The failure, shared verbatim between leader and followers.
        failure: SolveFailure,
        /// Whether this request ran the solver itself.
        leader: bool,
    },
    /// Shed by the admission gate: the cold-solve queue is full.
    Shed,
}

/// A single-flight slot: the leader publishes its result here and every
/// follower parks on the condvar until it does.
struct Flight {
    done: Mutex<Option<Result<Arc<CachedCell>, SolveFailure>>>,
    cv: Condvar,
}

/// A cell's stored hit reply: the body and the request-derived inputs
/// (as bit patterns) it echoes.
struct Reply {
    echo: Box<[u64]>,
    body: Box<[u8]>,
}

struct Shard {
    map: HashMap<u64, (u64, Arc<CachedCell>)>,
    /// Stored hit replies, keyed like `map`; only cells that have been hit
    /// and are still in `map` have one.
    replies: HashMap<u64, Reply>,
    tick: u64,
}

/// The solve cache. All methods take `&self`; internal locking is
/// per-shard plus one small in-flight registry.
pub struct SolveCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_cap: usize,
    inflight: Mutex<HashMap<u64, Arc<Flight>>>,
    admitted: AtomicUsize,
    queue_cap: usize,
    solves_started: AtomicU64,
}

/// RAII ticket for one admitted cold-path request.
struct AdmitGuard<'a>(&'a SolveCache);

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        // ordering: SeqCst — pairs with the admission fetch_update; the gate must never undercount.
        self.0.admitted.fetch_sub(1, Ordering::SeqCst);
    }
}

impl SolveCache {
    /// A cache holding up to `capacity` cells across `shards` shards, with
    /// at most `queue_cap` concurrent cold-path (uncached) requests
    /// admitted before shedding. `queue_cap == 0` sheds every cold
    /// request — useful for tests and as a read-only journal server.
    pub fn new(capacity: usize, shards: usize, queue_cap: usize) -> SolveCache {
        let shards = shards.clamp(1, 64);
        SolveCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard { map: HashMap::new(), replies: HashMap::new(), tick: 0 })
                })
                .collect(),
            per_shard_cap: capacity.div_ceil(shards).max(1),
            inflight: Mutex::new(HashMap::new()),
            admitted: AtomicUsize::new(0),
            queue_cap,
            solves_started: AtomicU64::new(0),
        }
    }

    fn shard(&self, fp: u64) -> &Mutex<Shard> {
        &self.shards[(fp % self.shards.len() as u64) as usize]
    }

    /// Looks a cell up, bumping its recency on a hit.
    pub fn lookup(&self, fp: u64) -> Option<Arc<CachedCell>> {
        self.hit(fp, None).map(|(cell, _)| cell)
    }

    /// Looks a cell up, bumping its recency, and copies out its stored
    /// reply when `echo` is given and equals the stored reply's.
    fn hit(&self, fp: u64, echo: Option<&[u64]>) -> Option<(Arc<CachedCell>, Option<Vec<u8>>)> {
        let mut guard = self.shard(fp).lock().unwrap_or_else(|e| e.into_inner());
        let shard = &mut *guard;
        shard.tick += 1;
        let (last_used, cell) = shard.map.get_mut(&fp)?;
        *last_used = shard.tick;
        let reply = echo.and_then(|echo| {
            shard.replies.get(&fp).filter(|r| *r.echo == *echo).map(|r| r.body.to_vec())
        });
        Some((Arc::clone(cell), reply))
    }

    /// Inserts (or replaces) a cell, evicting the least-recently-used
    /// entry of its shard when over capacity. The replaced or evicted
    /// cell's stored reply goes with it.
    pub fn insert(&self, fp: u64, cell: Arc<CachedCell>) {
        let mut shard = self.shard(fp).lock().unwrap_or_else(|e| e.into_inner());
        shard.tick += 1;
        let tick = shard.tick;
        shard.map.insert(fp, (tick, cell));
        shard.replies.remove(&fp);
        while shard.map.len() > self.per_shard_cap {
            let Some(oldest) = shard.map.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| *k)
            else {
                break;
            };
            shard.map.remove(&oldest);
            shard.replies.remove(&oldest);
        }
    }

    /// Stores `body` as the hit reply of `cell` for requests whose echoed
    /// inputs equal `echo`, so later such hits are answered with these
    /// bytes instead of a render. Stores nothing (and returns `false`)
    /// when `cell` is no longer the cell cached at `fp` — it was evicted
    /// or replaced since the hit — or when the cell already has a reply.
    pub fn store_reply(&self, fp: u64, cell: &Arc<CachedCell>, echo: &[u64], body: &[u8]) -> bool {
        let mut guard = self.shard(fp).lock().unwrap_or_else(|e| e.into_inner());
        let shard = &mut *guard;
        let live = shard.map.get(&fp).is_some_and(|(_, cached)| Arc::ptr_eq(cached, cell));
        if !live || shard.replies.contains_key(&fp) {
            return false;
        }
        shard.replies.insert(fp, Reply { echo: echo.into(), body: body.into() });
        true
    }

    /// Number of stored hit replies (never more than [`Self::len`]).
    pub fn stored_replies(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).replies.len()).sum()
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many solver invocations this cache has started (leaders only);
    /// the single-flight tests key off this.
    pub fn solves_started(&self) -> u64 {
        // ordering: SeqCst — diagnostic read of the single-flight counter; strongest order for free.
        self.solves_started.load(Ordering::SeqCst)
    }

    fn try_admit(&self) -> Option<AdmitGuard<'_>> {
        self.admitted
            // ordering: SeqCst — capacity check and increment form one RMW; gate math must totally order.
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.queue_cap).then_some(n + 1)
            })
            .ok()
            .map(|_| AdmitGuard(self))
    }

    /// The core protocol: serve from cache, or dedupe concurrent misses
    /// into one solver run.
    ///
    /// 1. Cache hit → return immediately (hits are never shed), with the
    ///    cell's stored reply when its echo equals `echo`.
    /// 2. Miss → take an admission ticket; if the cold queue is full,
    ///    return [`Fetched::Shed`] (the route layer answers 429).
    /// 3. Register in the in-flight table: the first request for a
    ///    fingerprint becomes the *leader* and runs `solve`; concurrent
    ///    requests for the same fingerprint park on the leader's flight
    ///    and receive the identical `Arc`'d result.
    /// 4. The leader caches a success, publishes to followers, and
    ///    deregisters. Failures are published but never cached.
    ///
    /// A panicking `solve` is caught and published as
    /// [`SolveFailure::Panicked`] so followers can never be left parked.
    pub fn get_or_solve<F>(&self, fp: u64, echo: &[u64], solve: F) -> Fetched
    where
        F: FnOnce() -> Result<CachedCell, MdpError>,
    {
        if let Some((cell, reply)) = self.hit(fp, Some(echo)) {
            return Fetched::Hit { cell, reply };
        }
        let Some(_ticket) = self.try_admit() else {
            return Fetched::Shed;
        };
        let (flight, leader) = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
            // Re-check under the lock: a leader may have finished (and
            // deregistered) between our miss and here.
            if let Some((cell, reply)) = self.hit(fp, Some(echo)) {
                return Fetched::Hit { cell, reply };
            }
            match inflight.get(&fp) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight { done: Mutex::new(None), cv: Condvar::new() });
                    inflight.insert(fp, Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if leader {
            // ordering: SeqCst — leader-election evidence; the exactly-one-leader checks read this.
            self.solves_started.fetch_add(1, Ordering::SeqCst);
            let result = match catch_unwind(AssertUnwindSafe(solve)) {
                Ok(Ok(cell)) => {
                    let cell = Arc::new(cell);
                    self.insert(fp, Arc::clone(&cell));
                    Ok(cell)
                }
                Ok(Err(e)) => Err(SolveFailure::Mdp(e)),
                Err(payload) => {
                    // Under the model checker a scheduler teardown unwind
                    // must pass through this catch untouched.
                    #[cfg(bvc_check)]
                    let payload = bvc_check::reraise_if_abort(payload);
                    Err(SolveFailure::Panicked(panic_message(payload)))
                }
            };
            {
                let mut done = flight.done.lock().unwrap_or_else(|e| e.into_inner());
                *done = Some(result.clone());
            }
            flight.cv.notify_all();
            self.inflight.lock().unwrap_or_else(|e| e.into_inner()).remove(&fp);
            match result {
                Ok(cell) => Fetched::Solved { cell, leader: true },
                Err(failure) => Fetched::Failed { failure, leader: true },
            }
        } else {
            let mut done = flight.done.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                match &*done {
                    Some(Ok(cell)) => {
                        return Fetched::Solved { cell: Arc::clone(cell), leader: false }
                    }
                    Some(Err(failure)) => {
                        return Fetched::Failed { failure: failure.clone(), leader: false }
                    }
                    None => done = flight.cv.wait(done).unwrap_or_else(|e| e.into_inner()),
                }
            }
        }
    }

    /// Warm-start preload: loads every `ok` cell of a sweep journal,
    /// re-fingerprinting its key under `config_token` (the serve tokens are
    /// table-prefixed, so journals from different tables cannot collide
    /// even where their key strings coincide). Returns the number of cells
    /// loaded.
    pub fn preload_journal(&self, path: &Path, config_token: &str) -> usize {
        let mut loaded = 0;
        for entry in load_journal(path).values() {
            if !entry.ok {
                continue;
            }
            let fp = cell_fingerprint(&entry.key, config_token);
            self.insert(
                fp,
                Arc::new(CachedCell {
                    vals: entry.values(),
                    solve_ms: 0.0,
                    states: 0,
                    preloaded: true,
                }),
            );
            loaded += 1;
        }
        loaded
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(v: f64) -> CachedCell {
        CachedCell { vals: vec![v], solve_ms: 1.0, states: 10, preloaded: false }
    }

    #[test]
    fn hit_after_solve_and_lru_eviction() {
        let cache = SolveCache::new(2, 1, 8);
        for fp in [1u64, 2, 3] {
            match cache.get_or_solve(fp, &[], || Ok(cell(fp as f64))) {
                Fetched::Solved { leader: true, .. } => {}
                other => panic!("expected a leader solve, got {other:?}"),
            }
        }
        // Capacity 2: fp=1 was least recently used and must be gone.
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(1).is_none());
        assert!(cache.lookup(3).is_some());
        match cache.get_or_solve(3, &[], || panic!("must not re-solve")) {
            Fetched::Hit { cell, reply: None } => assert_eq!(cell.vals, vec![3.0]),
            other => panic!("expected a hit, got {other:?}"),
        }
        assert_eq!(cache.solves_started(), 3);
    }

    #[test]
    fn lookup_bumps_recency() {
        let cache = SolveCache::new(2, 1, 8);
        cache.insert(1, Arc::new(cell(1.0)));
        cache.insert(2, Arc::new(cell(2.0)));
        // Touch 1 so that 2 becomes the eviction victim.
        assert!(cache.lookup(1).is_some());
        cache.insert(3, Arc::new(cell(3.0)));
        assert!(cache.lookup(1).is_some());
        assert!(cache.lookup(2).is_none());
    }

    #[test]
    fn zero_queue_cap_sheds_cold_but_serves_hits() {
        let cache = SolveCache::new(16, 2, 0);
        assert!(matches!(cache.get_or_solve(7, &[], || Ok(cell(7.0))), Fetched::Shed));
        cache.insert(7, Arc::new(cell(7.0)));
        assert!(matches!(cache.get_or_solve(7, &[], || Ok(cell(0.0))), Fetched::Hit { .. }));
        assert_eq!(cache.solves_started(), 0);
    }

    #[test]
    fn failures_propagate_and_are_not_cached() {
        let cache = SolveCache::new(16, 2, 8);
        let r = cache.get_or_solve(9, &[], || Err(MdpError::Empty));
        assert!(matches!(
            r,
            Fetched::Failed { failure: SolveFailure::Mdp(MdpError::Empty), leader: true }
        ));
        assert!(cache.lookup(9).is_none());
        // A later request retries (and can succeed).
        assert!(matches!(cache.get_or_solve(9, &[], || Ok(cell(9.0))), Fetched::Solved { .. }));
    }

    #[test]
    fn leader_panic_is_published_not_propagated() {
        let cache = SolveCache::new(16, 2, 8);
        let r = cache.get_or_solve(5, &[], || panic!("boom"));
        match r {
            Fetched::Failed { failure: SolveFailure::Panicked(msg), leader: true } => {
                assert!(msg.contains("boom"));
            }
            other => panic!("expected a panic failure, got {other:?}"),
        }
        assert!(cache.lookup(5).is_none());
    }

    #[test]
    fn concurrent_misses_single_flight_to_one_solve() {
        let cache = Arc::new(SolveCache::new(16, 4, 64));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_solve(42, &[], || {
                        // Hold the flight open long enough that the other
                        // threads must park on it.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(cell(42.0))
                    })
                })
            })
            .collect();
        let mut leaders = 0;
        for t in threads {
            match t.join().expect("worker panicked") {
                Fetched::Solved { cell, leader } => {
                    assert_eq!(cell.vals, vec![42.0]);
                    leaders += usize::from(leader);
                }
                // A thread arriving after the leader finished sees a hit.
                Fetched::Hit { cell, .. } => assert_eq!(cell.vals, vec![42.0]),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(cache.solves_started(), 1, "exactly one solver run");
        assert!(leaders <= 1);
    }

    /// The reply a hit carries: `None` means the caller must render.
    fn hit_reply(cache: &SolveCache, fp: u64, echo: &[u64]) -> Option<Vec<u8>> {
        match cache.get_or_solve(fp, echo, || panic!("must not solve")) {
            Fetched::Hit { reply, .. } => reply,
            other => panic!("expected a hit, got {other:?}"),
        }
    }

    #[test]
    fn stored_reply_is_served_only_for_its_echo() {
        let cache = SolveCache::new(16, 2, 8);
        let cached = Arc::new(cell(1.0));
        cache.insert(1, Arc::clone(&cached));
        assert_eq!(cache.stored_replies(), 0, "an unhit cell carries no reply");
        assert_eq!(hit_reply(&cache, 1, &[7]), None);
        assert!(cache.store_reply(1, &cached, &[7], b"seven"));
        assert_eq!(hit_reply(&cache, 1, &[7]).as_deref(), Some(&b"seven"[..]));
        assert_eq!(hit_reply(&cache, 1, &[8]), None, "another echo renders");
        // The first stored reply stays.
        assert!(!cache.store_reply(1, &cached, &[8], b"eight"));
        assert_eq!(hit_reply(&cache, 1, &[7]).as_deref(), Some(&b"seven"[..]));
        assert_eq!(cache.stored_replies(), 1);
    }

    #[test]
    fn evicted_and_resolved_cell_renders_fresh() {
        let cache = SolveCache::new(1, 1, 8);
        let first = match cache.get_or_solve(1, &[], || Ok(cell(1.0))) {
            Fetched::Solved { cell, .. } => cell,
            other => panic!("expected a solve, got {other:?}"),
        };
        assert!(cache.store_reply(1, &first, &[], b"one"));
        // Capacity 1: inserting fp=2 evicts fp=1 and its reply.
        cache.insert(2, Arc::new(cell(2.0)));
        assert!(cache.lookup(1).is_none());
        assert_eq!(cache.stored_replies(), 0, "the reply outlived its cell");
        // A late store for the evicted cell is refused.
        assert!(!cache.store_reply(1, &first, &[], b"one"));
        match cache.get_or_solve(1, &[], || Ok(cell(11.0))) {
            Fetched::Solved { cell, leader: true } => assert_eq!(cell.vals, vec![11.0]),
            other => panic!("expected a re-solve, got {other:?}"),
        }
        assert_eq!(hit_reply(&cache, 1, &[]), None, "the re-solved cell must render");
    }

    #[test]
    fn replaced_fingerprint_drops_its_reply() {
        let cache = SolveCache::new(16, 2, 8);
        let old = Arc::new(cell(1.0));
        cache.insert(1, Arc::clone(&old));
        assert!(cache.store_reply(1, &old, &[], b"old"));
        // A preload over a solved cell replaces it (and flips `preloaded`).
        let new = Arc::new(CachedCell { preloaded: true, ..cell(1.0) });
        cache.insert(1, Arc::clone(&new));
        assert_eq!(cache.stored_replies(), 0);
        assert_eq!(hit_reply(&cache, 1, &[]), None, "the new cell must render");
        assert!(!cache.store_reply(1, &old, &[], b"old"), "a store for the old cell");
        assert!(cache.store_reply(1, &new, &[], b"new"));
        assert_eq!(hit_reply(&cache, 1, &[]).as_deref(), Some(&b"new"[..]));
    }

    /// Every cached cell pays this; a stored reply lives in the shard's
    /// side map, so only cells that have been hit pay for one.
    #[test]
    fn cached_cell_stays_small() {
        assert!(std::mem::size_of::<CachedCell>() <= 48);
    }

    #[test]
    fn preload_round_trips_journal_cells() {
        let dir = std::env::temp_dir().join(format!("bvc-serve-preload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("journal.jsonl");
        let token = "table2;tok";
        let fp = cell_fingerprint("s1 b:g=1:2 a=33%", token);
        let bits = format!("{:016x}", 0.25f64.to_bits());
        std::fs::write(
            &path,
            format!(
                "{{\"fp\":\"{fp:016x}\",\"key\":\"s1 b:g=1:2 a=33%\",\"status\":\"ok\",\
                 \"attempts\":1,\"bits\":[\"{bits}\"]}}\n\
                 {{\"fp\":\"00000000000000ff\",\"key\":\"bad cell\",\"status\":\"fail\",\
                 \"attempts\":2,\"reason\":\"x\"}}\n"
            ),
        )
        .expect("write journal");
        let cache = SolveCache::new(16, 2, 0);
        assert_eq!(cache.preload_journal(&path, token), 1);
        let cell = cache.lookup(fp).expect("preloaded cell present");
        assert_eq!(cell.vals[0].to_bits(), 0.25f64.to_bits());
        assert!(cell.preloaded);
        std::fs::remove_dir_all(&dir).ok();
    }
}
