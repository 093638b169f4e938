//! HTTP substrate edge cases exercised over real loopback sockets: torn
//! requests, oversized headers/bodies, keep-alive reuse, malformed
//! request lines, bodies the substrate cannot frame, handler panics, and
//! graceful shutdown draining an in-flight request.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use bvc_serve::http::{serve, HttpConfig, Request, Response, Server};

fn start_echo(cfg: HttpConfig) -> Server {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    serve(
        listener,
        cfg,
        Arc::new(|req: &Request| {
            if req.path == "/panic" {
                panic!("handler bug");
            }
            if req.path == "/slow" {
                std::thread::sleep(Duration::from_millis(300));
            }
            Response::json(
                200,
                format!(
                    "{{\"method\":\"{}\",\"path\":\"{}\",\"body_len\":{}}}",
                    req.method,
                    req.path,
                    req.body.len()
                ),
            )
        }),
    )
    .expect("serve")
}

fn small_cfg() -> HttpConfig {
    HttpConfig {
        workers: 2,
        read_timeout: Duration::from_millis(500),
        max_header_bytes: 1024,
        max_body_bytes: 2048,
    }
}

/// Sends raw bytes, then reads until EOF; returns everything received.
fn raw_exchange(server: &Server, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    stream.write_all(bytes).expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = String::new();
    stream.read_to_string(&mut out).expect("read");
    out
}

/// Reads exactly one response (headers + Content-Length body) so the
/// connection can be reused.
fn read_one_response(stream: &mut TcpStream) -> String {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).expect("read headers");
        assert!(n > 0, "eof before response end: {:?}", String::from_utf8_lossy(&buf));
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]).to_string();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    while buf.len() < header_end + 4 + content_length {
        let n = stream.read(&mut chunk).expect("read body");
        assert!(n > 0, "eof mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8_lossy(&buf[..header_end + 4 + content_length]).to_string()
}

#[test]
fn torn_request_answers_400_then_closes() {
    let server = start_echo(small_cfg());
    // Half a request line, then EOF: malformed, not a hang.
    let out = raw_exchange(&server, b"GET /part");
    assert!(out.starts_with("HTTP/1.1 400"), "got {out:?}");
    assert!(out.contains("bad_request"), "got {out:?}");
    server.shutdown();
}

#[test]
fn oversized_headers_answer_431() {
    let server = start_echo(small_cfg());
    let big = format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(4096));
    let out = raw_exchange(&server, big.as_bytes());
    assert!(out.starts_with("HTTP/1.1 431"), "got {out:?}");
    server.shutdown();
}

#[test]
fn oversized_body_answers_413_without_reading_it() {
    let server = start_echo(small_cfg());
    let out = raw_exchange(&server, b"POST / HTTP/1.1\r\ncontent-length: 999999\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 413"), "got {out:?}");
    server.shutdown();
}

#[test]
fn malformed_request_line_answers_400() {
    let server = start_echo(small_cfg());
    let out = raw_exchange(&server, b"COMPLETE GARBAGE\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 400"), "got {out:?}");
    let out = raw_exchange(&server, b"GET / SPDY/9\r\n\r\n");
    assert!(out.starts_with("HTTP/1.1 400"), "got {out:?}");
    server.shutdown();
}

/// Keep-alive framing: a request whose body this substrate cannot frame
/// gets exactly one error reply and a close, so its body bytes are never
/// parsed as a second request.
#[test]
fn unframeable_bodies_get_one_reply_then_close() {
    let server = start_echo(small_cfg());
    let out = raw_exchange(
        &server,
        b"POST /x HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
    );
    assert_eq!(out.matches("HTTP/1.1 ").count(), 1, "got {out:?}");
    assert!(out.starts_with("HTTP/1.1 501 Not Implemented\r\n"), "got {out:?}");
    assert!(out.contains("connection: close"), "got {out:?}");

    let out = raw_exchange(
        &server,
        b"POST /x HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: 5\r\n\r\nhello",
    );
    assert_eq!(out.matches("HTTP/1.1 ").count(), 1, "got {out:?}");
    assert!(out.starts_with("HTTP/1.1 400"), "got {out:?}");
    assert!(out.contains("conflicting content-length"), "got {out:?}");
    server.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_on_one_connection() {
    let server = start_echo(small_cfg());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    for path in ["/first", "/second", "/third"] {
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nhost: t\r\n\r\n").as_bytes())
            .expect("write");
        let out = read_one_response(&mut stream);
        assert!(out.starts_with("HTTP/1.1 200"), "got {out:?}");
        assert!(out.contains(&format!("\"path\":\"{path}\"")), "got {out:?}");
    }
    // A body posted with Content-Length is consumed and measured.
    stream.write_all(b"POST /echo HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello").expect("write");
    let out = read_one_response(&mut stream);
    assert!(out.contains("\"body_len\":5"), "got {out:?}");
    server.shutdown();
}

#[test]
fn handler_panic_answers_500_and_keeps_worker_alive() {
    let server = start_echo(small_cfg());
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    stream.write_all(b"GET /panic HTTP/1.1\r\n\r\n").expect("write");
    let out = read_one_response(&mut stream);
    assert!(out.starts_with("HTTP/1.1 500"), "got {out:?}");
    // The same worker must still serve the next request.
    stream.write_all(b"GET /alive HTTP/1.1\r\n\r\n").expect("write");
    let out = read_one_response(&mut stream);
    assert!(out.starts_with("HTTP/1.1 200"), "got {out:?}");
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_request() {
    let server = start_echo(small_cfg());
    let addr = server.local_addr();
    let inflight = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        stream.write_all(b"GET /slow HTTP/1.1\r\n\r\n").expect("write");
        read_one_response(&mut stream)
    });
    // Let the slow request reach the handler, then shut down under it.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();
    let out = inflight.join().expect("client");
    assert!(out.starts_with("HTTP/1.1 200"), "in-flight request was dropped: {out:?}");
    assert!(out.contains("connection: close"), "drained response must close: {out:?}");
}

#[test]
fn shed_retry_after_is_jittered_within_the_configured_range() {
    use bvc_serve::{Request, ServeConfig, Service};

    // queue_cap 0 sheds every cold solve, so each request draws one
    // retry hint from the seeded jitter stream.
    let service = Service::new(&ServeConfig {
        queue_cap: 0,
        retry_after: Duration::from_millis(800),
        retry_jitter_seed: 7,
        ..ServeConfig::default()
    });
    let shed_request = || Request {
        method: "GET".to_string(),
        path: "/v1/table2".to_string(),
        query: vec![("alpha".to_string(), "0.33".to_string())],
        headers: Vec::new(),
        body: Vec::new(),
        wants_close: false,
    };
    let mut draws = Vec::new();
    for _ in 0..8 {
        let resp = service.handle(&shed_request());
        assert_eq!(resp.status, 429);
        let ms: u64 = resp
            .extra_headers
            .iter()
            .find(|(k, _)| k == "retry-after-ms")
            .map(|(_, v)| v.parse().expect("retry-after-ms is numeric"))
            .expect("shed carries retry-after-ms");
        assert!((400..=800).contains(&ms), "retry-after-ms {ms} outside [base/2, base]");
        let secs: u64 = resp
            .extra_headers
            .iter()
            .find(|(k, _)| k == "retry-after")
            .map(|(_, v)| v.parse().expect("retry-after is numeric"))
            .expect("shed carries retry-after");
        assert_eq!(secs, ms.div_ceil(1_000).max(1), "whole-second hint matches the draw");
        draws.push(ms);
    }
    let distinct: std::collections::HashSet<u64> = draws.iter().copied().collect();
    assert!(distinct.len() >= 2, "jitter never varied: {draws:?}");

    // Same seed, same schedule: the hint sequence is reproducible.
    let replay = Service::new(&ServeConfig {
        queue_cap: 0,
        retry_after: Duration::from_millis(800),
        retry_jitter_seed: 7,
        ..ServeConfig::default()
    });
    let again: Vec<u64> = (0..8)
        .map(|_| {
            let resp = replay.handle(&shed_request());
            resp.extra_headers
                .iter()
                .find(|(k, _)| k == "retry-after-ms")
                .map(|(_, v)| v.parse().expect("numeric"))
                .expect("retry-after-ms")
        })
        .collect();
    assert_eq!(draws, again);
}
