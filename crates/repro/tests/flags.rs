//! The repro binaries exit 2 with a message on an argument they do not
//! take, a seconds value no `Duration` holds, or a journal path they
//! cannot use, before any cell runs, instead of ignoring it or panicking.

use std::process::Command;

/// Runs the repro binary at `exe` with `args`; returns its exit code and
/// stderr.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(exe).args(args).output().expect("repro binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_arguments_exit_2() {
    for (exe, args, needle) in [
        (env!("CARGO_BIN_EXE_table2"), &["--retries", "2"][..], "unknown argument \"--retries\""),
        (env!("CARGO_BIN_EXE_table2"), &["--setting1-only", "--bogus"], "\"--bogus\""),
        (env!("CARGO_BIN_EXE_table4"), &["--setting1-only"], "no flags of its own"),
        (env!("CARGO_BIN_EXE_games_map"), &["--bogus"], "--frontier"),
        (
            env!("CARGO_BIN_EXE_table3_bitcoin"),
            &["--solve-threads", "2"],
            "unknown argument \"--solve-threads\"",
        ),
        (env!("CARGO_BIN_EXE_table1"), &["abc", "1", "1"], "invalid number \"abc\" for alpha"),
        (env!("CARGO_BIN_EXE_table1"), &["0.25", "0", "1"], "ratio parts must be integers"),
        (env!("CARGO_BIN_EXE_table1"), &["0.9", "1", "1"], "alpha must be in (0, 0.5), got 0.9"),
        (env!("CARGO_BIN_EXE_table1"), &["0.25", "1"], "takes no arguments or three"),
        (env!("CARGO_BIN_EXE_table1"), &["--bogus"], "takes no arguments or three"),
        (env!("CARGO_BIN_EXE_figure1"), &["--bogus"], "takes no arguments"),
        (env!("CARGO_BIN_EXE_figure2"), &["x"], "takes no arguments"),
        (env!("CARGO_BIN_EXE_figure3"), &["--threads", "1"], "takes no arguments"),
        (env!("CARGO_BIN_EXE_figure4"), &["--bogus"], "takes no arguments"),
        (env!("CARGO_BIN_EXE_eb_game"), &["--bogus"], "takes no arguments"),
        (env!("CARGO_BIN_EXE_countermeasure"), &["--bogus"], "takes no arguments"),
    ] {
        let (code, stderr) = run(exe, args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn bad_seconds_exit_2_without_a_panic() {
    for (flag, value) in [
        ("--cell-deadline", "-1"),
        ("--cell-deadline", "nan"),
        ("--cell-deadline", "1e300"),
        ("--lease", "-1"),
    ] {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_table2"), &["--setting1-only", flag, value]);
        assert_eq!(code, Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag) && stderr.contains(value), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
    }
}

#[test]
fn unusable_journal_path_exits_2_without_a_panic() {
    let dir = std::env::temp_dir().join(format!("bvc-flags-journal-dir-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let path = dir.to_str().expect("UTF-8 temp path");
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_table2"),
        &["--setting1-only", "--threads", "1", "--journal", path],
    );
    std::fs::remove_dir(&dir).ok();
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains(path), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
