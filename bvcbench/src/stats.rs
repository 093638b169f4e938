//! Best-of-k tables and a fixed-size latency histogram.

use std::time::Duration;

/// Per-item minimum over repeats: the best-of-k rule. On a host whose
/// speed swings by up to 2x in phases of about a second, the fastest
/// repeat of an item is the one least disturbed, so sums of per-item
/// minima repeat from run to run where sums of single passes do not.
#[derive(Debug, Clone)]
pub struct BestOf {
    best: Vec<f64>,
    repeats: Vec<u32>,
}

impl BestOf {
    pub fn new(items: usize) -> BestOf {
        BestOf { best: vec![f64::INFINITY; items], repeats: vec![0; items] }
    }

    pub fn record(&mut self, item: usize, seconds: f64) {
        self.best[item] = self.best[item].min(seconds);
        self.repeats[item] += 1;
    }

    /// Folds in another table over the same items.
    pub fn merge(&mut self, other: &BestOf) {
        for (i, (&b, &r)) in other.best.iter().zip(&other.repeats).enumerate() {
            self.best[i] = self.best[i].min(b);
            self.repeats[i] += r;
        }
    }

    /// Whether every item has at least one sample.
    pub fn complete(&self) -> bool {
        self.repeats.iter().all(|&r| r > 0)
    }

    /// Sum of per-item minima, in seconds.
    pub fn sum(&self) -> f64 {
        self.best.iter().sum()
    }

    /// Per-item minima, in seconds.
    pub fn values(&self) -> &[f64] {
        &self.best
    }

    /// Fewest repeats any item got.
    pub fn min_repeats(&self) -> u32 {
        self.repeats.iter().copied().min().unwrap_or(0)
    }
}

/// Median of `values` (upper median for even lengths); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 2).copied().unwrap_or(0.0)
}

/// Values below 2^10 ns get one bucket each; above, each octave splits
/// into 2^9 buckets, a relative resolution under 0.2%.
const LINEAR: u64 = 1 << 10;
const PER_OCTAVE: u64 = 1 << 9;
/// Octaves up to 2^40 ns (about 18 minutes).
const BUCKETS: usize = (31 * PER_OCTAVE + LINEAR) as usize;

/// A log-linear latency histogram of fixed size, so that recording a
/// sample never allocates and the benchmark's own bookkeeping does not
/// move `peak_heap_mb` with the request count.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { counts: vec![0; BUCKETS], total: 0 }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < LINEAR {
            return ns as usize;
        }
        // `ns >> shift` lands in [PER_OCTAVE, 2 * PER_OCTAVE).
        let shift = 63 - u64::from(ns.leading_zeros()) - 9;
        ((shift * PER_OCTAVE + (ns >> shift)) as usize).min(BUCKETS - 1)
    }

    /// Midpoint of bucket `i`, in ns.
    fn midpoint(i: usize) -> f64 {
        let i = i as u64;
        if i < LINEAR {
            return i as f64;
        }
        let shift = i / PER_OCTAVE - 1;
        let low = (i - shift * PER_OCTAVE) << shift;
        low as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0..=1) in ns: the smallest recorded value with at
    /// least `ceil(q * n)` samples at or below it; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::midpoint(i);
            }
        }
        0.0
    }

    /// The tail percentile: the highest of p99, p90 and p50 that has at
    /// least ten samples beyond it. The ladder stops at p99 because rarer
    /// percentiles of a few hundred thousand requests fall on the cold
    /// solves (0.25% of requests) or on single scheduler hiccups.
    pub fn tail(&self) -> (f64, f64) {
        for pct in [99.0, 90.0, 50.0] {
            let beyond = self.total as f64 * (1.0 - pct / 100.0);
            if beyond >= 10.0 {
                return (pct, self.quantile_ns(pct / 100.0));
            }
        }
        (100.0, self.quantile_ns(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_midpoints_fall_inside() {
        let mut last = 0;
        for ns in (0..1_000_000u64).step_by(7) {
            let i = Histogram::index(ns);
            assert!(i >= last, "index went backwards at {ns}");
            last = i;
            let mid = Histogram::midpoint(i);
            assert!((mid - ns as f64).abs() <= ns as f64 / 500.0 + 0.5, "{ns} -> {mid}");
        }
    }

    #[test]
    fn quantiles_and_tail() {
        let mut h = Histogram::default();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile_ns(0.5);
        assert!((p50 - 500_000.0).abs() < 1_000.0, "p50 {p50}");
        let (pct, p99) = h.tail();
        assert_eq!(pct, 99.0);
        assert!((p99 - 990_000.0).abs() < 2_000.0, "p99 {p99}");
        let mut few = Histogram::default();
        for _ in 0..50 {
            few.record(Duration::from_micros(3));
        }
        assert_eq!(few.tail().0, 50.0);
    }

    #[test]
    fn best_of_keeps_minimum() {
        let mut b = BestOf::new(2);
        assert!(!b.complete());
        b.record(0, 2.0);
        b.record(0, 1.0);
        b.record(1, 3.0);
        assert!(b.complete());
        assert_eq!(b.sum(), 4.0);
        assert_eq!(b.min_repeats(), 1);
        let mut c = BestOf::new(2);
        c.record(1, 0.5);
        b.merge(&c);
        assert_eq!(b.values(), &[1.0, 0.5]);
        assert_eq!(b.min_repeats(), 2);
    }
}
