//! Lock-free service counters and a log2-bucketed latency histogram,
//! rendered as plain text (one `name value` per line) or JSON for
//! `GET /metrics`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bvc_journal::json::JsonObject;

/// Statuses tracked individually; anything else lands in `other`.
const STATUSES: [u16; 10] = [200, 400, 404, 405, 413, 422, 429, 431, 500, 503];

/// A power-of-two-bucketed latency histogram over microseconds: bucket `i`
/// holds samples with `2^(i-1) <= us < 2^i` (bucket 0 holds `us == 0`), so
/// quantiles are upper bounds accurate to a factor of two — plenty for
/// p50/p99 monitoring without locks or allocation on the hot path.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 40],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = (64 - us.leading_zeros() as usize).min(self.buckets.len() - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic counter
        self.count.fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic counter
        self.sum_us.fetch_add(us, Ordering::Relaxed); // ordering: independent monotonic counter
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed) // ordering: point-in-time stat read
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64 // ordering: point-in-time stat read
        }
    }

    /// Upper bound (in µs) of the bucket containing the `q`-quantile
    /// sample, `q` in `[0, 1]`. Returns 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed); // ordering: point-in-time stat read
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        1u64 << (self.buckets.len() - 1)
    }
}

/// All counters the service exports.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Total requests routed (any status).
    pub requests: AtomicU64,
    status_counts: [AtomicU64; STATUSES.len() + 1],
    /// Requests answered from the cache (including preloaded entries).
    pub cache_hits: AtomicU64,
    /// Cache hits whose reply was rendered rather than taken from the
    /// cell's stored reply: a cell's first hit, and hits whose echoed
    /// inputs differ from the stored reply's.
    pub hit_renders: AtomicU64,
    /// Cache misses that started a solve as the single-flight leader.
    pub cache_misses: AtomicU64,
    /// Cache misses that parked on another request's in-flight solve.
    pub flight_joins: AtomicU64,
    /// Requests shed with 429 by the admission gate.
    pub sheds: AtomicU64,
    /// Solver invocations (one per single-flight leader).
    pub solves: AtomicU64,
    /// Solver invocations that returned an error (or panicked).
    pub solve_errors: AtomicU64,
    /// Cells warm-loaded from sweep journals at startup.
    pub preloaded: AtomicU64,
    /// End-to-end request latency.
    pub latency: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh counters; `started` anchors the uptime report.
    pub fn new() -> Metrics {
        Metrics {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            status_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            cache_hits: AtomicU64::new(0),
            hit_renders: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            flight_joins: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            solve_errors: AtomicU64::new(0),
            preloaded: AtomicU64::new(0),
            latency: Histogram::default(),
        }
    }

    /// Seconds since the service started.
    pub fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Records one completed request.
    pub fn observe(&self, status: u16, elapsed: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic counter
        let idx = STATUSES.iter().position(|&s| s == status).unwrap_or(STATUSES.len());
        self.status_counts[idx].fetch_add(1, Ordering::Relaxed); // ordering: independent monotonic counter
        self.latency.record(elapsed);
    }

    /// Requests that completed with `status`.
    pub fn status_count(&self, status: u16) -> u64 {
        match STATUSES.iter().position(|&s| s == status) {
            Some(idx) => self.status_counts[idx].load(Ordering::Relaxed), // ordering: point-in-time stat read
            None => 0,
        }
    }

    fn rows(&self) -> Vec<(String, String)> {
        let int = |v: &AtomicU64| v.load(Ordering::Relaxed).to_string(); // ordering: point-in-time stat read
        let mut rows = vec![
            ("serve_uptime_seconds".to_string(), format!("{:.3}", self.uptime_s())),
            ("serve_requests_total".to_string(), int(&self.requests)),
            ("serve_cache_hits_total".to_string(), int(&self.cache_hits)),
            ("serve_hit_renders_total".to_string(), int(&self.hit_renders)),
            ("serve_cache_misses_total".to_string(), int(&self.cache_misses)),
            ("serve_flight_joins_total".to_string(), int(&self.flight_joins)),
            ("serve_shed_total".to_string(), int(&self.sheds)),
            ("serve_solves_total".to_string(), int(&self.solves)),
            ("serve_solve_errors_total".to_string(), int(&self.solve_errors)),
            ("serve_preloaded_cells".to_string(), int(&self.preloaded)),
            ("serve_latency_mean_us".to_string(), format!("{:.1}", self.latency.mean_us())),
            ("serve_latency_p50_us".to_string(), self.latency.quantile_us(0.50).to_string()),
            ("serve_latency_p99_us".to_string(), self.latency.quantile_us(0.99).to_string()),
            ("serve_latency_p999_us".to_string(), self.latency.quantile_us(0.999).to_string()),
        ];
        for (i, &status) in STATUSES.iter().enumerate() {
            rows.push((
                format!("serve_responses_total{{status=\"{status}\"}}"),
                self.status_counts[i].load(Ordering::Relaxed).to_string(), // ordering: point-in-time stat read
            ));
        }
        rows.push((
            "serve_responses_total{status=\"other\"}".to_string(),
            self.status_counts[STATUSES.len()].load(Ordering::Relaxed).to_string(), // ordering: point-in-time stat read
        ));
        rows
    }

    /// Text exposition: one `name value` line per counter.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.rows() {
            out.push_str(&name);
            out.push(' ');
            out.push_str(&value);
            out.push('\n');
        }
        out
    }

    /// JSON exposition of the same counters.
    pub fn render_json(&self) -> String {
        let mut obj = JsonObject::new();
        for (name, value) in self.rows() {
            // Counter values are numeric by construction.
            obj = obj.raw(&name, &value);
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bound_samples() {
        let h = Histogram::default();
        for us in [1u64, 10, 100, 1000, 10_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        assert!(h.quantile_us(0.5) >= 100, "p50 = {}", h.quantile_us(0.5));
        assert!(h.quantile_us(1.0) >= 10_000);
        assert!(h.quantile_us(0.0) >= 1);
        assert!(h.mean_us() > 0.0);
        let empty = Histogram::default();
        assert_eq!(empty.quantile_us(0.99), 0);
        assert_eq!(empty.mean_us(), 0.0);
    }

    #[test]
    fn metrics_track_statuses_and_render() {
        let m = Metrics::new();
        m.observe(200, Duration::from_micros(50));
        m.observe(200, Duration::from_micros(80));
        m.observe(429, Duration::from_micros(5));
        m.observe(418, Duration::from_micros(5));
        assert_eq!(m.status_count(200), 2);
        assert_eq!(m.status_count(429), 1);
        assert_eq!(m.status_count(418), 0);
        let text = m.render_text();
        assert!(text.contains("serve_requests_total 4"));
        assert!(text.contains("serve_responses_total{status=\"200\"} 2"));
        assert!(text.contains("serve_responses_total{status=\"other\"} 1"));
        let json = m.render_json();
        assert!(json.contains("\"serve_requests_total\":4"));
    }

    /// Concurrent `observe` calls from several threads must never lose a
    /// count or tear the histogram. Sized to stay fast under Miri, which
    /// runs this test in CI to check the atomics for data races.
    #[test]
    fn concurrent_observe_loses_nothing() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 32;
        let m = Metrics::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let m = &m;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let status = if (t as u64 + i).is_multiple_of(2) { 200 } else { 429 };
                        m.observe(status, Duration::from_micros(i + 1));
                    }
                });
            }
        });
        let total = THREADS as u64 * PER_THREAD;
        // ordering: point-in-time stat read
        assert_eq!(m.requests.load(Ordering::Relaxed), total);
        assert_eq!(m.status_count(200) + m.status_count(429), total);
        assert_eq!(m.latency.count(), total);
    }
}
