//! The `serve-hot` workload: a closed loop of keep-alive callers against
//! `bvc_serve::start` over loopback HTTP.
//!
//! Each connection sends its next GET only after the previous reply. The
//! seeded mix per connection is:
//! * hot cells (the rest): every setting-1 cell of Tables 2, 3 and 4, all
//!   solved while the hot set is filled during set-up, so each is a hit;
//! * cold cells (0.25%): never-seen Table 2 cells, each a solve, a cache
//!   insert and a single-flight leader. Cold ids are disjoint per
//!   connection, so hit, miss and solve counts are exact;
//! * rejected requests (2.5%): bad parameters (400) or an unknown path
//!   (404).
//!
//! The end-to-end figures come from each hot cell's best round trip, the
//! best-of-k rule the solver workloads use; the closed loop's own rate and
//! percentiles follow slow drifts of the host, so they are printed but are
//! not metrics.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bvc_bu::{AttackConfig, AttackModel, IncentiveModel, Setting, SolveOptions};
use bvc_chaos::SplitMix64;
use bvc_serve::http::parse_query;
use bvc_serve::{start, Request, RunningServer, ServeConfig, Service};

use crate::report::{Outcome, Stop};
use crate::stats::{median, BestOf, Histogram};
use crate::trace::{Span, Tracer};
use crate::workload::{golden_for, serve_hot_set, GOLDEN_TOLERANCE};

/// Client connections, and server workers to match the 2 vCPUs this
/// benchmark was tuned on.
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
const COLD_SHARE: f64 = 0.0025;
const REJECT_SHARE: f64 = 0.025;
/// Requests that must be rejected, with the status each must get.
const REJECTS: [(&str, u16); 4] = [
    ("/v1/table5?alpha=0.1", 404),
    ("/v1/table2?alpha=0.7&ratio=1:1", 400),
    ("/v1/table3?alpha=0.1&ratio=1:1&bogus=1", 400),
    ("/v1/table4?ratio=0:1", 400),
];
/// The timed loop runs in this many equal segments. Between two segments
/// the loop pauses for one more set-up (server start + hot-set fill, on a
/// separate server), so the set-ups spread over the run and their best
/// repeats from run to run; a traced run traces every other segment.
const SEGMENTS: u32 = 10;
/// Cold cells per connection with room reserved up front, so that the
/// benchmark's own record of them does not move `peak_heap_mb` as the
/// request count varies.
const COLD_CAPACITY: usize = 8192;
/// Requests per connection replayed in-process through `Service::handle`.
const REPLAY_PER_CONNECTION: u64 = 50_000;

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Index into the hot set.
    Hot(usize),
    /// Attacker share of a never-seen Table 2 cell.
    Cold(f64),
    /// Index into [`REJECTS`].
    Reject(usize),
}

/// One connection's seeded request stream.
struct Mix {
    rng: SplitMix64,
    conn: usize,
    colds: u64,
    hot: usize,
}

impl Mix {
    fn new(seed: u64, conn: usize, hot: usize) -> Mix {
        let stream = (conn as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Mix { rng: SplitMix64::new(seed ^ stream), conn, colds: 0, hot }
    }

    fn next(&mut self) -> Kind {
        let u = self.rng.next_f64();
        if u < COLD_SHARE {
            // Connection c takes ids c, c + CONNECTIONS, ...: disjoint.
            let id = self.conn as u64 + CONNECTIONS as u64 * self.colds;
            self.colds += 1;
            Kind::Cold(0.2 + (id + 1) as f64 * 1e-6)
        } else if u < COLD_SHARE + REJECT_SHARE {
            Kind::Reject(self.rng.next_range(REJECTS.len() as u64) as usize)
        } else {
            Kind::Hot(self.rng.next_range(self.hot as u64) as usize)
        }
    }
}

/// A cold cell: a setting-1 Table 2 cell off the published grid.
fn cold_path(alpha: f64) -> String {
    format!("/v1/table2?alpha={alpha}&ratio=1:1")
}

fn cold_config(alpha: f64) -> AttackConfig {
    AttackConfig::with_ratio(alpha, (1, 1), Setting::One, IncentiveModel::CompliantProfitDriven)
}

/// A keep-alive HTTP/1.1 client for one connection.
struct Client {
    stream: TcpStream,
    request: Vec<u8>,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("set_nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        Ok(Client { stream, request: Vec::new(), buf: Vec::new() })
    }

    /// Sends one GET and reads the whole reply; returns the status and body.
    fn get(&mut self, path: &str) -> Result<(u16, &[u8]), String> {
        self.request.clear();
        write!(
            self.request,
            "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: keep-alive\r\n\r\n"
        )
        .map_err(|e| format!("format: {e}"))?;
        self.stream.write_all(&self.request).map_err(|e| format!("write: {e}"))?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("connection closed before the reply".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|e| format!("head: {e}"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
            })
            .ok_or("reply has no content-length")?;
        while self.buf.len() < head_end + length {
            let n = self.stream.read(&mut chunk).map_err(|e| format!("read body: {e}"))?;
            if n == 0 {
                return Err("connection closed mid-body".to_string());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok((status, &self.buf[head_end..head_end + length]))
    }
}

/// The string value of `"field":"..."` in a flat JSON body.
fn json_str<'a>(body: &'a [u8], field: &str) -> Option<&'a str> {
    let body = std::str::from_utf8(body).ok()?;
    let start = body.find(&format!("\"{field}\":\""))? + field.len() + 4;
    let len = body[start..].find('"')?;
    Some(&body[start..start + len])
}

/// The numeric value of `"field":N` in a flat JSON body.
fn json_num(body: &[u8], field: &str) -> Option<f64> {
    let body = std::str::from_utf8(body).ok()?;
    let start = body.find(&format!("\"{field}\":"))? + field.len() + 3;
    let len = body[start..].find([',', '}'])?;
    body[start..start + len].trim().parse().ok()
}

/// The served value of a 200 cell reply, if it is a `cache` hit or miss
/// as expected.
fn served_value(body: &[u8], cache: &str) -> Result<f64, String> {
    match json_str(body, "cache") {
        Some(c) if c == cache => {}
        other => return Err(format!("expected cache {cache}, got {other:?}")),
    }
    let bits = json_str(body, "value_bits").ok_or("reply has no value_bits")?;
    u64::from_str_radix(bits, 16).map(f64::from_bits).map_err(|e| format!("value_bits: {e}"))
}

struct Hot {
    paths: Vec<String>,
    golden: Vec<f64>,
}

fn check_hot(hot: &Hot, i: usize, status: u16, body: &[u8], cache: &str) -> Result<(), String> {
    if status != 200 {
        return Err(format!("{}: status {status}", hot.paths[i]));
    }
    let value = served_value(body, cache).map_err(|e| format!("{}: {e}", hot.paths[i]))?;
    if (value - hot.golden[i]).abs() > GOLDEN_TOLERANCE {
        return Err(format!("{}: value {value} is off golden {}", hot.paths[i], hot.golden[i]));
    }
    Ok(())
}

/// Server start plus filling the hot set (each fill request is a solve).
fn setup(hot: &Hot) -> Result<RunningServer, String> {
    let config = ServeConfig {
        workers: WORKERS,
        // Room for the hot set and every cold cell of a run, so nothing
        // is evicted and every hot request stays a hit.
        cache_capacity: 1 << 16,
        ..ServeConfig::default()
    };
    let server = start(config).map_err(|e| format!("serve start: {e}"))?;
    // The fill connection is dropped at the end of this function, which
    // frees its server worker for the timed connections.
    let mut client = Client::connect(server.local_addr())?;
    for i in 0..hot.paths.len() {
        let (status, body) = client.get(&hot.paths[i])?;
        check_hot(hot, i, status, body, "miss").map_err(|e| format!("hot-set fill: {e}"))?;
    }
    Ok(server)
}

fn timed_setup(hot: &Hot, times: &mut Vec<f64>) -> Result<RunningServer, String> {
    let t = Instant::now();
    let server = setup(hot)?;
    times.push(t.elapsed().as_secs_f64());
    Ok(server)
}

/// One connection's request stream and what it saw, across segments.
struct Conn {
    id: usize,
    mix: Mix,
    /// Requests sent so far.
    sent: u64,
    latency: Histogram,
    /// Best round trip per hot cell.
    best: BestOf,
    hot: u64,
    failed: u64,
    failures: Vec<String>,
    /// Cold cells and their served values, checked after the loop.
    cold: Vec<(f64, f64)>,
    cold_latency: Histogram,
    spans: Vec<Span>,
}

impl Conn {
    fn new(seed: u64, id: usize, hot: usize) -> Conn {
        Conn {
            id,
            mix: Mix::new(seed, id, hot),
            sent: 0,
            latency: Histogram::default(),
            best: BestOf::new(hot),
            hot: 0,
            failed: 0,
            failures: Vec::new(),
            cold: Vec::with_capacity(COLD_CAPACITY),
            cold_latency: Histogram::default(),
            spans: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(why);
        }
    }
}

fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// When a segment ends.
#[derive(Clone, Copy)]
enum Until {
    Time(Instant),
    /// Total requests sent on the connection.
    Requests(u64),
}

/// Runs one segment of `conn`'s closed loop on a fresh keep-alive
/// connection; returns the requests it completed.
fn drive(
    addr: SocketAddr,
    conn: &mut Conn,
    hot: &Hot,
    until: Until,
    epoch: Instant,
    traced: bool,
) -> Result<u64, String> {
    let mut client = Client::connect(addr)?;
    let first = conn.sent;
    loop {
        let finished = match until {
            Until::Time(end) => Instant::now() >= end,
            Until::Requests(n) => conn.sent >= n,
        };
        if finished {
            break;
        }
        let n = conn.sent;
        conn.sent += 1;
        let kind = conn.mix.next();
        let cold;
        let path = match kind {
            Kind::Hot(i) => hot.paths[i].as_str(),
            Kind::Cold(alpha) => {
                cold = cold_path(alpha);
                cold.as_str()
            }
            Kind::Reject(i) => REJECTS[i].0,
        };
        let start_ns = since(epoch);
        let t = Instant::now();
        let reply = client.get(path);
        let latency = t.elapsed();
        conn.latency.record(latency);
        if traced {
            let op = (conn.id as u64) << 40 | n;
            let span =
                Span { name: "serve.request", op, parent: None, start_ns, end_ns: since(epoch) };
            conn.spans.push(span);
        }
        let (status, body) = match reply {
            Ok(r) => r,
            Err(e) => {
                conn.fail(format!("{path}: {e}"));
                // The stream state is unknown after a transport error.
                client = Client::connect(addr)?;
                continue;
            }
        };
        let checked = match kind {
            Kind::Hot(i) => {
                conn.hot += 1;
                conn.best.record(i, latency.as_secs_f64());
                check_hot(hot, i, status, body, "hit")
            }
            Kind::Cold(alpha) => {
                conn.cold_latency.record(latency);
                match (status, served_value(body, "miss")) {
                    (200, Ok(v)) => {
                        conn.cold.push((alpha, v));
                        Ok(())
                    }
                    (200, Err(e)) => Err(format!("{path}: {e}")),
                    (s, _) => Err(format!("{path}: status {s}")),
                }
            }
            Kind::Reject(i) => match REJECTS[i].1 {
                want if want == status => Ok(()),
                want => Err(format!("{path}: status {status}, expected {want}")),
            },
        };
        if let Err(e) = checked {
            conn.fail(e);
        }
    }
    Ok(conn.sent - first)
}

/// Runs one segment on every connection at once; returns the requests
/// completed, the segment's wall time and its latency histogram.
fn segment(
    addr: SocketAddr,
    conns: &mut [Conn],
    hot: &Hot,
    until: Until,
    epoch: Instant,
    traced: bool,
) -> Result<(u64, f64, Histogram), String> {
    let t = Instant::now();
    let done: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| scope.spawn(move || drive(addr, conn, hot, until, epoch, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".to_string())))
            .collect()
    });
    let elapsed = t.elapsed().as_secs_f64();
    let mut total = 0;
    for d in done {
        total += d?;
    }
    let mut latency = Histogram::default();
    for conn in conns {
        latency.merge(&std::mem::take(&mut conn.latency));
    }
    Ok((total, elapsed, latency))
}

/// Re-solves each cold cell in-process (on `WORKERS` threads, the loop
/// being over) and counts served values that are not bit-identical to it.
fn check_cold(cold: &[(f64, f64)], out: &mut Outcome) {
    let verdicts: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let chunk = cold.len().div_ceil(WORKERS).max(1);
        let handles: Vec<_> = cold
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || part.iter().map(|&(a, v)| check_cold_cell(a, v)).collect())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|_| vec![Err("cold check panicked".to_string())]))
            .collect()
    });
    for verdict in verdicts {
        if let Err(e) = verdict {
            out.fail(e);
        }
    }
}

fn check_cold_cell(alpha: f64, served: f64) -> Result<(), String> {
    let expected = AttackModel::build(cold_config(alpha))
        .and_then(|m| m.optimal_relative_revenue(&SolveOptions::default()))
        .map_err(|e| format!("{}: reference solve failed: {e}", cold_path(alpha)))?
        .value;
    if expected.to_bits() != served.to_bits() {
        return Err(format!("{}: served {served}, expected {expected}", cold_path(alpha)));
    }
    Ok(())
}

/// Counters from `/metrics?format=json`.
struct Counters {
    hits: f64,
    misses: f64,
    solves: f64,
    sheds: f64,
    joins: f64,
}

fn scrape(addr: SocketAddr) -> Result<Counters, String> {
    let mut client = Client::connect(addr)?;
    let (status, body) = client.get("/metrics?format=json")?;
    if status != 200 {
        return Err(format!("/metrics: status {status}"));
    }
    let get = |name: &str| json_num(body, name).ok_or(format!("/metrics has no {name}"));
    Ok(Counters {
        hits: get("serve_cache_hits_total")?,
        misses: get("serve_cache_misses_total")?,
        solves: get("serve_solves_total")?,
        sheds: get("serve_shed_total")?,
        joins: get("serve_flight_joins_total")?,
    })
}

fn get_request(path: &str) -> Request {
    let (path, query) = path.split_once('?').unwrap_or((path, ""));
    Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: parse_query(query),
        headers: Vec::new(),
        body: Vec::new(),
        wants_close: false,
    }
}

/// Replays the start of each connection's request stream through
/// `Service::handle` in this thread, under `serve.handle` spans; returns
/// the best handle time per hot cell.
fn replay(service: &Service, seed: u64, hot: &Hot, done: &[u64], tracer: &mut Tracer) -> BestOf {
    let mut best = BestOf::new(hot.paths.len());
    for (conn, &n) in done.iter().enumerate() {
        let mut mix = Mix::new(seed, conn, hot.paths.len());
        for i in 0..n.min(REPLAY_PER_CONNECTION) {
            let kind = mix.next();
            let request = get_request(&match kind {
                Kind::Hot(h) => hot.paths[h].clone(),
                Kind::Cold(alpha) => cold_path(alpha),
                Kind::Reject(r) => REJECTS[r].0.to_string(),
            });
            let span = tracer.enter("serve.handle", (conn as u64) << 40 | i, None);
            let t = Instant::now();
            std::hint::black_box(service.handle(&request));
            let elapsed = t.elapsed().as_secs_f64();
            tracer.exit(span);
            if let Kind::Hot(h) = kind {
                best.record(h, elapsed);
            }
        }
    }
    best
}

pub fn run(seed: u64, stop: Stop, trace: bool) -> Result<Outcome, String> {
    let cells = serve_hot_set();
    let hot =
        Hot { paths: cells.iter().map(|c| c.serve_path()).collect(), golden: golden_for(&cells)? };
    let mut setup_times = Vec::new();
    let server = timed_setup(&hot, &mut setup_times)?;
    let addr = server.local_addr();

    let epoch = Instant::now();
    let mut conns: Vec<Conn> =
        (0..CONNECTIONS).map(|c| Conn::new(seed, c, hot.paths.len())).collect();
    let segments = match stop {
        Stop::Seconds(_) => SEGMENTS,
        Stop::Work(_) => 1,
    };
    let mut latency = Histogram::default();
    // Requests and seconds of the untraced ([0]) and traced ([1]) segments.
    let (mut done, mut seconds) = ([0u64; 2], [0f64; 2]);
    for k in 0..segments {
        let until = match stop {
            Stop::Seconds(s) => {
                Until::Time(Instant::now() + Duration::from_secs_f64(s / f64::from(SEGMENTS)))
            }
            Stop::Work(n) => Until::Requests(u64::from(n)),
        };
        let traced = trace && k % 2 == 0;
        let (n, secs, hist) = segment(addr, &mut conns, &hot, until, epoch, traced)?;
        done[usize::from(traced)] += n;
        seconds[usize::from(traced)] += secs;
        latency.merge(&hist);
        if k + 1 < segments {
            timed_setup(&hot, &mut setup_times)?.stop();
        }
    }

    let mut out = Outcome::default();
    let mut tracer = Tracer::new(epoch);
    let mut colds = 0;
    let mut cold_latency = Histogram::default();
    let mut hot_requests = 0;
    let mut best = BestOf::new(hot.paths.len());
    let sent: Vec<u64> = conns.iter().map(|c| c.sent).collect();
    for conn in conns {
        best.merge(&conn.best);
        out.attempted += conn.sent;
        out.failed += conn.failed;
        out.notes.extend(conn.failures.into_iter().map(|f| format!("FAILED: {f}")));
        hot_requests += conn.hot;
        colds += conn.cold.len();
        check_cold(&conn.cold, &mut out);
        cold_latency.merge(&conn.cold_latency);
        for span in conn.spans {
            tracer.push(span);
        }
    }

    let counters = scrape(addr)?;
    let expected_misses = (hot.paths.len() + colds) as f64;
    let counters_match = counters.hits == hot_requests as f64
        && counters.misses == expected_misses
        && counters.solves == expected_misses
        && counters.sheds == 0.0
        && counters.joins == 0.0;
    if !counters_match {
        out.note(format!(
            "counters off: hits {} (expected {hot_requests}), misses {} and solves {} (expected \
             {expected_misses}), sheds {}, joins {} (expected 0)",
            counters.hits, counters.misses, counters.solves, counters.sheds, counters.joins
        ));
    }
    let handle = trace.then(|| replay(&server.service, seed, &hot, &sent, &mut tracer));
    server.stop();
    out.correct = out.failed == 0 && counters_match;

    let rate = |i: usize| if seconds[i] > 0.0 { done[i] as f64 / seconds[i] } else { 0.0 };
    let (tail_pct, tail_ns) = latency.tail();
    out.note(format!(
        "{} requests over {CONNECTIONS} connections: {hot_requests} hot, {} cold; {} set-ups; \
         closed loop {:.0} req/s, p50 {:.4} ms, p{tail_pct} {:.4} ms over all {} requests",
        latency.count(),
        colds,
        setup_times.len(),
        (done[0] + done[1]) as f64 / (seconds[0] + seconds[1]),
        latency.quantile_ns(0.5) / 1e6,
        tail_ns / 1e6,
        latency.count()
    ));
    let best_ms: Vec<f64> = best.values().iter().map(|s| s * 1e3).collect();
    let Some(handle) = handle else {
        out.note(format!(
            "throughput_per_s, p50_ms, tail_ms: from the best round trip of each of the {} hot \
             cells (fewest repeats {})",
            best_ms.len(),
            best.min_repeats()
        ));
        out.metric("throughput_per_s", CONNECTIONS as f64 * best_ms.len() as f64 / best.sum());
        out.metric("p50_ms", median(&best_ms));
        out.metric("tail_ms", best_ms.iter().copied().fold(0.0, f64::max));
        out.metric("peak_heap_mb", crate::alloc::peak_bytes() as f64 / 1e6);
        out.metric("setup_s", setup_times.iter().copied().fold(f64::INFINITY, f64::min));
        return Ok(out);
    };
    let handle_us: Vec<f64> = handle.values().iter().map(|s| s * 1e6).collect();
    let transport_us: Vec<f64> =
        best_ms.iter().zip(&handle_us).map(|(rt, h)| rt * 1e3 - h).collect();
    out.metric("serve.handle_us", median(&handle_us));
    out.metric("serve.transport_us", median(&transport_us));
    out.metric("serve.miss_ms", cold_latency.quantile_ns(0.5) / 1e6);
    out.metric("serve.cache_hits", counters.hits);
    out.metric("serve.cache_misses", counters.misses);
    out.metric("serve.solves", counters.solves);
    out.metric("serve.sheds", counters.sheds);
    out.metric("serve.hit_ratio", counters.hits / (counters.hits + counters.misses).max(1.0));
    out.metric("trace.coverage", handle.sum() / best.sum());
    let (traced, untraced) = (rate(1), rate(0));
    out.metric("trace.throughput_per_s", traced);
    out.metric("trace.untraced_throughput_per_s", untraced);
    out.metric(
        "trace.overhead_pct",
        if untraced > 0.0 { (untraced - traced) / untraced * 100.0 } else { 0.0 },
    );
    out.tracer = Some(tracer);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(outcome: &Outcome) -> Vec<(&'static str, f64)> {
        const EXACT: [&str; 4] =
            ["serve.cache_hits", "serve.cache_misses", "serve.solves", "serve.sheds"];
        outcome.metrics.iter().filter(|(name, _)| EXACT.contains(name)).copied().collect()
    }

    /// A fixed number of requests per connection gives the same counters
    /// on two runs with the same seed, and every reply checks out.
    #[test]
    fn exact_counts_repeat() {
        let a = run(11, Stop::Work(3_000), true).expect("first run");
        let b = run(11, Stop::Work(3_000), true).expect("second run");
        assert!(a.correct && b.correct, "{:?}", a.notes);
        assert_eq!(a.attempted, 6_000);
        assert_eq!(counts(&a).len(), 4);
        assert_eq!(counts(&a), counts(&b));
        assert!(counts(&a)[0].1 > 5_000.0, "{:?}", counts(&a));
    }

    #[test]
    fn mix_shares_and_disjoint_cold_ids() {
        let mut cold = Vec::new();
        let (mut rejects, total) = (0, 200_000);
        for conn in 0..CONNECTIONS {
            let mut mix = Mix::new(3, conn, 61);
            for _ in 0..total / CONNECTIONS {
                match mix.next() {
                    Kind::Cold(a) => cold.push(a.to_bits()),
                    Kind::Reject(_) => rejects += 1,
                    Kind::Hot(i) => assert!(i < 61),
                }
            }
        }
        let n = cold.len();
        cold.sort_unstable();
        cold.dedup();
        assert_eq!(cold.len(), n, "cold ids repeat");
        assert!((n as f64 / total as f64 - COLD_SHARE).abs() < 0.001, "cold share {n}");
        assert!((rejects as f64 / total as f64 - REJECT_SHARE).abs() < 0.003, "{rejects}");
    }
}
