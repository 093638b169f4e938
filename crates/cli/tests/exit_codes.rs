//! Out-of-range flags make the `bvc` binary exit 2 at once, before any
//! model is built, any block is simulated or any socket is bound.

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
        (
            &["simulate", "--attacker-power", "0.1", "--honest-powers", "1.2,-0.3"],
            "honest-powers must be finite and > 0, got -0.3",
        ),
        (&["simulate", "--honest-powers", "0.9,0"], "honest-powers must be finite and > 0, got 0"),
        (
            &["simulate", "--attacker-power", "-0.1", "--honest-powers", "0.6,0.5"],
            "attacker-power must be in [0, 1), got -0.1",
        ),
    ] {
        let (code, stderr, took) = bvc(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(took < Duration::from_secs(5), "{args:?} took {took:?}");
    }
}

/// Seconds no `Duration` holds used to panic (exit 101) in
/// `Duration::from_secs_f64`; a flag a command no longer takes used to be
/// read.
#[test]
fn bad_seconds_and_removed_flags_exit_2() {
    let coordinate = ["cluster", "coordinate", "--workload", "table4", "--addr", "127.0.0.1:0"];
    for (extra, needle) in [
        (&["--lease", "1e300"][..], "--lease must be between 0 and"),
        (&["--lease", "-1"], "--lease must be between 0 and"),
        (&["--cell-deadline", "1e300"], "--cell-deadline must be between 0 and"),
        (&["--retries", "2"], "unknown parameter \"retries\""),
    ] {
        let args = [&coordinate[..], extra].concat();
        let (code, stderr, took) = bvc(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(took < Duration::from_secs(5), "{args:?} took {took:?}");
    }
    for args in [
        &["solve", "--alpha", "0.25", "--solve-threads", "2"][..],
        &["serve", "--addr", "127.0.0.1:0", "--solve-threads", "2"],
        &["cluster", "work", "--connect", "127.0.0.1:1", "--solve-threads", "2"],
    ] {
        let (code, stderr, took) = bvc(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown parameter \"solve-threads\""), "{args:?}: {stderr}");
        assert!(took < Duration::from_secs(5), "{args:?} took {took:?}");
    }
    for value in ["inf", "1e300"] {
        let args = ["serve", "--addr", "127.0.0.1:0", "--deadline-s", value];
        let (code, stderr, _) = bvc(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--deadline-s must be between 0 and"), "{args:?}: {stderr}");
    }
}
