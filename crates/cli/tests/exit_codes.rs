//! Out-of-range flags make the `bvc` binary exit 2 at once, before any
//! model is built or any block is simulated.

use std::process::Command;
use std::time::{Duration, Instant};

/// Runs `bvc` with `args`; returns its exit code, its stderr and how long
/// it ran.
fn bvc(args: &[&str]) -> (Option<i32>, String, Duration) {
    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_bvc")).args(args).output().expect("bvc runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned(), start.elapsed())
}

#[test]
fn out_of_range_flags_exit_2_at_once() {
    for (args, needle) in [
        (&["bitcoin", "--alpha", "0.45", "--cap", "255"][..], "cap must be at most 80"),
        (&["simulate", "--delay", "-1"], "delay must be finite and >= 0, got -1"),
        (&["simulate", "--ad", "0"], "ad must be in [1, 24], got 0"),
    ] {
        let (code, stderr, took) = bvc(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(took < Duration::from_secs(5), "{args:?} took {took:?}");
    }
}
