//! A minimal `std::time::Instant` micro-timing harness.
//!
//! Before/after numbers for the solver work come from std alone. This
//! module provides the small amount of structure repeated wall-clock
//! measurement needs: N repetitions, min/median/mean, and a one-line
//! human-readable summary.
//!
//! Minimum-of-N is the headline statistic: for a CPU-bound workload the
//! minimum is the run least disturbed by scheduling noise, and it is the
//! conventional choice for before/after comparisons.

use std::time::{Duration, Instant};

/// Wall-clock measurements of `reps` executions of one workload.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Individual run durations, in execution order.
    pub runs: Vec<Duration>,
}

/// Runs `f` once as a warm-up, then `reps` more times under the clock.
///
/// The warm-up run is discarded: it pays first-touch page faults and cache
/// population that would otherwise bias the first measured repetition. For
/// workloads long enough that warm-up cost matters (whole table sweeps),
/// use [`time_runs_cold`].
pub fn time_runs<R>(reps: usize, mut f: impl FnMut() -> R) -> Timing {
    std::hint::black_box(f());
    time_runs_cold(reps, f)
}

/// Runs `f` exactly `reps` times under the clock, with no warm-up run.
pub fn time_runs_cold<R>(reps: usize, mut f: impl FnMut() -> R) -> Timing {
    assert!(reps > 0, "need at least one repetition");
    let runs = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .collect();
    Timing { runs }
}

impl Timing {
    /// Fastest run — the headline number.
    pub fn min(&self) -> Duration {
        // `time` asserts reps > 0, so `runs` is never empty; the default
        // is unreachable rather than a silent fallback.
        self.runs.iter().copied().min().unwrap_or_default()
    }

    /// Median run (upper median for even counts).
    pub fn median(&self) -> Duration {
        let mut sorted = self.runs.clone();
        sorted.sort();
        sorted[sorted.len() / 2]
    }

    /// Arithmetic mean of all runs.
    pub fn mean(&self) -> Duration {
        let total: Duration = self.runs.iter().sum();
        total / self.runs.len() as u32
    }

    /// Items processed per second, judged by the fastest run.
    pub fn throughput(&self, items: usize) -> f64 {
        items as f64 / self.min().as_secs_f64()
    }

    /// `"min 12.3ms  median 12.9ms  mean 13.1ms  (n=5)"`.
    pub fn summary(&self) -> String {
        format!(
            "min {:.1?}  median {:.1?}  mean {:.1?}  (n={})",
            self.min(),
            self.median(),
            self.mean(),
            self.runs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_are_ordered_sanely() {
        let t = time_runs(5, || std::hint::black_box((0..1000u64).sum::<u64>()));
        assert_eq!(t.runs.len(), 5);
        assert!(t.min() <= t.median());
        assert!(t.min() <= t.mean());
        assert!(t.throughput(1000) > 0.0);
        assert!(t.summary().contains("n=5"));
    }
}
