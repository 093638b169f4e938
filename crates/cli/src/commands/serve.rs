//! `bvc serve` — run the offline HTTP/JSON solve-serving subsystem
//! (`bvc-serve`): table cells and ad-hoc solves over HTTP with a
//! fingerprint-keyed cache, single-flight dedup, and load shedding.

use std::path::PathBuf;
use std::time::Duration;

use bvc_serve::{start, ServeConfig};

use crate::args::{ArgError, Args};

/// Parsed configuration of the `serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeCmd {
    /// Bind address (`--addr`, default `127.0.0.1:8080`; port 0 picks an
    /// ephemeral port and prints it).
    pub addr: String,
    /// HTTP worker threads (`--workers`).
    pub workers: usize,
    /// Cache capacity in cells (`--cache-cells`).
    pub cache_cells: usize,
    /// Concurrent cold-solve admission cap (`--queue-cap`); 0 sheds all
    /// uncached work with 429 while still answering cache hits.
    pub queue_cap: usize,
    /// Per-request solve deadline in seconds (`--deadline-s`, 0 =
    /// unlimited).
    pub deadline_s: f64,
    /// Journals to preload, as `table=path` pairs (`--preload`, repeatable
    /// via commas).
    pub preload: Vec<(String, PathBuf)>,
    /// Worker threads inside each cold solve's Bellman sweeps
    /// (`--solve-threads`, default 1; bit-identical results, so cache keys
    /// are unaffected).
    pub solve_threads: usize,
    /// Base 429 retry hint in milliseconds (`--retry-after-ms`); each shed
    /// draws a jittered value in `[base/2, base]`.
    pub retry_after_ms: u64,
}

/// Parses the subcommand's flags.
pub fn parse(args: &Args) -> Result<ServeCmd, ArgError> {
    args.check_names(&[
        &["addr", "workers", "cache-cells", "queue-cap", "deadline-s", "preload", "solve-threads"],
        &["retry-after-ms"],
    ])?;
    let workers: usize = args.get_or("workers", 4usize)?;
    if workers == 0 {
        return Err(ArgError("--workers must be at least 1".into()));
    }
    let deadline_s: f64 = args.get_or("deadline-s", 30.0)?;
    if deadline_s.is_nan() || deadline_s < 0.0 {
        return Err(ArgError(format!("--deadline-s must be nonnegative, got {deadline_s}")));
    }
    let retry_after_ms: u64 = args.get_or("retry-after-ms", 1_000u64)?;
    if retry_after_ms == 0 {
        return Err(ArgError("--retry-after-ms must be at least 1".into()));
    }
    let mut preload = Vec::new();
    if args.has("preload") {
        let raw: String = args.get("preload")?;
        for part in raw.split(',').filter(|p| !p.is_empty()) {
            let Some((table, path)) = part.split_once('=') else {
                return Err(ArgError(format!(
                    "--preload expects table=path (e.g. table2=journal.jsonl), got {part:?}"
                )));
            };
            if !matches!(table, "table2" | "table3" | "table4" | "games-grid" | "games-frontier") {
                return Err(ArgError(format!(
                    "--preload table must be table2, table3, table4, games-grid or \
                     games-frontier, got {table:?}"
                )));
            }
            preload.push((table.to_string(), PathBuf::from(path)));
        }
    }
    Ok(ServeCmd {
        addr: args.get_or("addr", "127.0.0.1:8080".to_string())?,
        workers,
        cache_cells: args.get_or("cache-cells", 4096usize)?,
        queue_cap: args.get_or("queue-cap", 8usize)?,
        deadline_s,
        preload,
        solve_threads: args.get_or("solve-threads", 1usize)?.max(1),
        retry_after_ms,
    })
}

/// Runs the server until `POST /admin/shutdown` is received, then drains
/// in-flight requests and exits cleanly.
pub fn run(cmd: &ServeCmd) -> Result<(), String> {
    let config = ServeConfig {
        addr: cmd.addr.clone(),
        workers: cmd.workers,
        cache_capacity: cmd.cache_cells.max(1),
        queue_cap: cmd.queue_cap,
        solve_deadline: if cmd.deadline_s > 0.0 {
            Some(Duration::from_secs_f64(cmd.deadline_s))
        } else {
            None
        },
        read_timeout: Duration::from_secs(5),
        preload: cmd.preload.clone(),
        solve_threads: cmd.solve_threads,
        retry_after: Duration::from_millis(cmd.retry_after_ms),
        ..ServeConfig::default()
    };
    let server = start(config).map_err(|e| format!("failed to start server: {e}"))?;
    // ordering: Relaxed — one-shot metrics read for the startup banner; nothing synchronizes on it.
    let preloaded = server.service.metrics.preloaded.load(std::sync::atomic::Ordering::Relaxed);
    if preloaded > 0 {
        println!("preloaded {preloaded} cells from sweep journals");
    }
    // The smoke script and load generator parse this line for the bound
    // (possibly ephemeral) port; keep its shape stable.
    println!("listening on http://{}", server.local_addr());
    server.wait_for_shutdown();
    println!("shutdown requested; draining");
    server.stop();
    println!("bye");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_cmd(raw: &[&str]) -> Result<ServeCmd, ArgError> {
        parse(&Args::parse(raw.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn defaults_and_overrides() {
        let cmd = parse_cmd(&["serve"]).unwrap();
        assert_eq!(cmd.addr, "127.0.0.1:8080");
        assert_eq!(cmd.workers, 4);
        assert_eq!(cmd.queue_cap, 8);
        assert_eq!(cmd.retry_after_ms, 1_000);
        assert!(cmd.preload.is_empty());
        let cmd = parse_cmd(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue-cap",
            "0",
            "--deadline-s",
            "1.5",
            "--preload",
            "table2=a.jsonl,table3=b.jsonl",
            "--solve-threads",
            "2",
            "--retry-after-ms",
            "250",
        ])
        .unwrap();
        assert_eq!(cmd.solve_threads, 2);
        assert_eq!(cmd.retry_after_ms, 250);
        assert_eq!(cmd.addr, "127.0.0.1:0");
        assert_eq!(cmd.workers, 2);
        assert_eq!(cmd.queue_cap, 0);
        assert!((cmd.deadline_s - 1.5).abs() < 1e-12);
        assert_eq!(cmd.preload.len(), 2);
        assert_eq!(cmd.preload[0].0, "table2");
        assert_eq!(cmd.preload[1].1, PathBuf::from("b.jsonl"));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let ArgError(message) =
            parse_cmd(&["serve", "--queue-cap", "0", "--worker", "2"]).unwrap_err();
        assert!(message.starts_with("unknown parameter \"worker\" (allowed: addr"), "{message}");
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_cmd(&["serve", "--workers", "0"]).is_err());
        assert!(parse_cmd(&["serve", "--preload", "nope"]).is_err());
        assert!(parse_cmd(&["serve", "--preload", "table9=x.jsonl"]).is_err());
        assert!(parse_cmd(&["serve", "--deadline-s", "-1"]).is_err());
        assert!(parse_cmd(&["serve", "--retry-after-ms", "0"]).is_err());
    }
}
