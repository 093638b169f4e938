//! Host-interference probe printed with every run (not a metric).
//!
//! Two fixed arithmetic loops are timed in chunks of about 40–46 ms
//! before the workload starts: a serial integer chain and a vectorised
//! f64 loop like the solver's inner sweeps. On the 2-vCPU VM this
//! benchmark was tuned on, the integer loop holds within a few percent
//! while the f64 loop, like the solver, flips between speeds up to 1.5x
//! apart in phases of about a second. A large best-vs-median gap marks a
//! run taken in a slow phase, to be read with that in mind.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const CHUNKS: usize = 5;
const INT_ITERS: u64 = 30_000_000;
const F64_LEN: usize = 8192;
const F64_SWEEPS: usize = 14_000;

fn int_chunk() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..INT_ITERS {
        // `black_box` keeps the multiply chain serial and un-vectorised.
        x = black_box(x.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ i);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn f64_chunk(a: &mut [f64], b: &[f64]) -> f64 {
    let t = Instant::now();
    for _ in 0..F64_SWEEPS {
        for (x, y) in a.iter_mut().zip(b) {
            *x = *x * 0.999 + *y * 0.001;
        }
        black_box(&mut *a);
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// `best=… median=… (+x%)` of the chunk times.
fn summary(mut chunks: Vec<f64>) -> String {
    chunks.sort_by(f64::total_cmp);
    let (best, median) = (chunks[0], chunks[chunks.len() / 2]);
    format!("best={best:.2} median={median:.2} (+{:.1}%)", (median / best - 1.0) * 100.0)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git, so the probe reads nothing outside the checkout.
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(Path::new(".git").join(path)).ok();
    let resolve = || -> Option<String> {
        let head = read("HEAD")?;
        let Some(name) = head.trim().strip_prefix("ref: ") else {
            return Some(head.trim().to_string());
        };
        read(name).map(|id| id.trim().to_string()).or_else(|| {
            let packed = read("packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(&format!(" {name}")))?;
            line.split_whitespace().next().map(str::to_string)
        })
    };
    match resolve() {
        Some(id) => id.chars().take(12).collect(),
        None => "unknown (not a git work tree)".to_string(),
    }
}

/// Runs the probe and returns its one-line report.
pub fn probe() -> String {
    let int: Vec<f64> = (0..CHUNKS).map(|_| int_chunk()).collect();
    let (mut a, b) = (vec![1.0f64; F64_LEN], vec![0.5f64; F64_LEN]);
    let float: Vec<f64> = (0..CHUNKS).map(|_| f64_chunk(&mut a, &b)).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} commit={} int_chunk_ms {} f64_chunk_ms {}",
        commit(),
        summary(int),
        summary(float)
    )
}
