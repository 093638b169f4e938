//! `serve_load` — closed-loop load generator for the bvc-serve HTTP
//! service.
//!
//! Spawns an in-process server (`--self-serve`, default) or targets an
//! external one (`--addr HOST:PORT`), then drives it with `--clients`
//! keep-alive connections, each issuing `--requests` GETs drawn from a
//! deterministic hot/cold mix: hot requests repeat one Table 2 cell
//! (cache hits after the first solve), cold requests walk distinct
//! alphas (each one a fresh solve). Reports throughput and client-side
//! p50/p99/p999 latency.
//!
//! ```text
//! serve_load [--addr HOST:PORT | --self-serve] [--clients 4]
//!            [--requests 2000] [--hot-frac 0.95] [--queue-cap 8] [--json]
//! ```
//!
//! With `--json`, the final line is a single machine-readable JSON record
//! (`{"bench":"serve_load",...}`) — `scripts/bench_record.sh` appends it to
//! the benchmark history.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bvc_journal::fnv1a64;

#[cfg(not(target_has_atomic = "64"))]
compile_error!("serve_load needs 64-bit atomics");

fn parse_flags() -> Result<Flags, String> {
    let mut flags =
        Flags { addr: None, clients: 4, requests: 2000, hot_frac: 0.95, queue_cap: 8, json: false };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--addr" => flags.addr = Some(value(&mut i)?),
            "--self-serve" => flags.addr = None,
            "--clients" => {
                flags.clients = value(&mut i)?.parse().map_err(|e| format!("--clients: {e}"))?
            }
            "--requests" => {
                flags.requests = value(&mut i)?.parse().map_err(|e| format!("--requests: {e}"))?
            }
            "--hot-frac" => {
                flags.hot_frac = value(&mut i)?.parse().map_err(|e| format!("--hot-frac: {e}"))?
            }
            "--queue-cap" => {
                flags.queue_cap = value(&mut i)?.parse().map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--json" => flags.json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    if !(0.0..=1.0).contains(&flags.hot_frac) {
        return Err(format!("--hot-frac must be in [0, 1], got {}", flags.hot_frac));
    }
    if flags.clients == 0 || flags.requests == 0 {
        return Err("--clients and --requests must be positive".to_string());
    }
    Ok(flags)
}

struct Flags {
    addr: Option<String>,
    clients: usize,
    requests: usize,
    hot_frac: f64,
    queue_cap: usize,
    json: bool,
}

/// The request path for the `n`-th request of client `client`: hot
/// requests repeat one small Table 2 cell; cold requests walk distinct
/// alphas of the same shape so every one is a new fingerprint. The mix is
/// drawn from an FNV-1a hash of `client/n`, so it needs no RNG.
fn request_path(client: usize, n: usize, hot_frac: f64) -> String {
    let h = fnv1a64(format!("{client}/{n}").as_bytes());
    let draw = (h % 10_000) as f64 / 10_000.0;
    if draw < hot_frac {
        "/v1/table2?alpha=0.33&eb=2&ad=2&gate=4".to_string()
    } else {
        // 0.101, 0.102, ... — distinct f64s, hence distinct cache keys.
        let cold_id = (h / 10_000) % 200;
        format!("/v1/table2?alpha=0.{}&ad=2&gate=4", 101 + cold_id)
    }
}

struct ClientStats {
    latencies_us: Vec<u64>,
    by_status: [u64; 4], // 200, 429, other, transport error
}

fn run_client(
    addr: &str,
    client: usize,
    requests: usize,
    hot_frac: f64,
) -> Result<ClientStats, String> {
    let mut stats = ClientStats { latencies_us: Vec::with_capacity(requests), by_status: [0; 4] };
    let mut stream = connect(addr)?;
    for n in 0..requests {
        let path = request_path(client, n, hot_frac);
        let started = Instant::now();
        let status = match round_trip(&mut stream, addr, &path) {
            Ok(status) => status,
            Err(_) => {
                // Reconnect once (the server may have closed a keep-alive
                // connection); a second failure counts as a transport error.
                stream = connect(addr)?;
                round_trip(&mut stream, addr, &path).unwrap_or(0)
            }
        };
        stats.latencies_us.push(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        let slot = match status {
            200 => 0,
            429 => 1,
            0 => 3,
            _ => 2,
        };
        stats.by_status[slot] += 1;
    }
    Ok(stats)
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    Ok(stream)
}

/// Sends one GET and reads the response (status + headers +
/// Content-Length body), leaving the connection ready for the next
/// request. Returns the status code.
fn round_trip(stream: &mut TcpStream, host: &str, path: &str) -> Result<u16, String> {
    let req = format!("GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: keep-alive\r\n\r\n");
    stream.write_all(req.as_bytes()).map_err(|e| format!("write: {e}"))?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_crlf2(&buf) {
            break pos;
        }
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("eof before response".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|e| format!("head: {e}"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {head:?}"))?;
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let body_have = buf.len() - (header_end + 4);
    let mut remaining = content_length.saturating_sub(body_have);
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        let n = stream.read(&mut chunk[..take]).map_err(|e| format!("read body: {e}"))?;
        if n == 0 {
            return Err("eof mid-body".to_string());
        }
        remaining -= n;
    }
    Ok(status)
}

fn find_crlf2(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn main() {
    let flags = match parse_flags() {
        Ok(flags) => flags,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };

    // Either target an external server or bring one up in-process on an
    // ephemeral port (paper-default shape but a tiny gate so cold solves
    // are fast enough to mix in).
    let own_server = if flags.addr.is_none() {
        match bvc_serve::start(bvc_serve::ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_cap: flags.queue_cap,
            ..bvc_serve::ServeConfig::default()
        }) {
            Ok(server) => Some(server),
            Err(e) => {
                eprintln!("error: failed to start in-process server: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };
    let addr = match (&flags.addr, &own_server) {
        (Some(addr), _) => addr.clone(),
        (None, Some(server)) => server.local_addr().to_string(),
        (None, None) => unreachable!(),
    };

    println!(
        "serve_load: {} clients x {} requests, hot_frac {:.2}, target {addr}",
        flags.clients, flags.requests, flags.hot_frac
    );

    // Warm the hot cell once so the hot path measures cache hits, not the
    // initial solve.
    {
        let mut stream = connect(&addr).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        match round_trip(&mut stream, &addr, &request_path(0, 0, 1.0)) {
            Ok(200) => {}
            Ok(status) => eprintln!("warning: warmup answered {status}"),
            Err(e) => {
                eprintln!("error: warmup failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let addr = Arc::new(addr);
    let started = Instant::now();
    let handles: Vec<_> = (0..flags.clients)
        .map(|client| {
            let addr = Arc::clone(&addr);
            let requests = flags.requests;
            let hot_frac = flags.hot_frac;
            thread::Builder::new()
                .name(format!("load-client-{client}"))
                .spawn(move || run_client(&addr, client, requests, hot_frac))
                .unwrap_or_else(|e| {
                    eprintln!("error: cannot spawn load client {client}: {e}");
                    std::process::exit(1);
                })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut by_status = [0u64; 4];
    let mut failed_clients = 0usize;
    for handle in handles {
        match handle.join() {
            Ok(Ok(stats)) => {
                latencies.extend(stats.latencies_us);
                for (total, part) in by_status.iter_mut().zip(stats.by_status) {
                    *total += part;
                }
            }
            Ok(Err(e)) => {
                eprintln!("client error: {e}");
                failed_clients += 1;
            }
            Err(_) => {
                eprintln!("client panicked");
                failed_clients += 1;
            }
        }
    }
    let elapsed = started.elapsed();

    latencies.sort_unstable();
    let total = latencies.len();
    let throughput = total as f64 / elapsed.as_secs_f64();
    println!(
        "completed {total} requests in {:.3}s  ({throughput:.0} req/s)",
        elapsed.as_secs_f64()
    );
    println!(
        "status: 200 x {}, 429 x {}, other x {}, transport-error x {}",
        by_status[0], by_status[1], by_status[2], by_status[3]
    );
    println!(
        "latency us: p50 {}  p99 {}  p999 {}  max {}",
        quantile(&latencies, 0.50),
        quantile(&latencies, 0.99),
        quantile(&latencies, 0.999),
        latencies.last().copied().unwrap_or(0)
    );

    if let Some(server) = own_server {
        println!("--- server metrics ---");
        print!("{}", server.service.metrics.render_text());
        server.stop();
    }
    if flags.json {
        println!(
            "{{\"bench\":\"serve_load\",\"clients\":{},\"requests\":{},\"hot_frac\":{},\
             \"total\":{total},\"elapsed_s\":{:.6},\"req_per_s\":{throughput:.1},\
             \"status_200\":{},\"status_429\":{},\"status_other\":{},\"transport_errors\":{},\
             \"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}}}",
            flags.clients,
            flags.requests,
            flags.hot_frac,
            elapsed.as_secs_f64(),
            by_status[0],
            by_status[1],
            by_status[2],
            by_status[3],
            quantile(&latencies, 0.50),
            quantile(&latencies, 0.99),
            quantile(&latencies, 0.999),
            latencies.last().copied().unwrap_or(0)
        );
    }
    if failed_clients > 0 || by_status[3] > 0 {
        std::process::exit(1);
    }
}
