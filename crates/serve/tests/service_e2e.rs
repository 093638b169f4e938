//! End-to-end service tests over real loopback HTTP: route statuses,
//! bit-identical cell values against the direct solver path, single-flight
//! deduplication, the audit-gate 422, and load shedding.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use bvc_bu::{AttackConfig, AttackModel, IncentiveModel, Setting, SolveOptions};
use bvc_journal::f64_to_hex;
use bvc_serve::{start, RunningServer, ServeConfig};

fn test_server(queue_cap: usize, workers: usize) -> RunningServer {
    start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        cache_capacity: 64,
        queue_cap,
        solve_deadline: Some(Duration::from_secs(30)),
        read_timeout: Duration::from_secs(5),
        preload: Vec::new(),
        ..ServeConfig::default()
    })
    .expect("start server")
}

/// One full HTTP exchange on a fresh connection; returns (status, body).
fn request(server: &RunningServer, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    stream
        .write_all(
            format!(
                "{method} {target} HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\
                 connection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("write");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw).to_string();
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response {text:?}"));
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn get(server: &RunningServer, target: &str) -> (u16, String) {
    request(server, "GET", target, "")
}

/// Extracts a `"key":"value"` or `"key":value` field from a flat JSON body.
fn json_field(body: &str, key: &str) -> String {
    let needle = format!("\"{key}\":");
    let start = body.find(&needle).unwrap_or_else(|| panic!("no {key} in {body}")) + needle.len();
    let rest = &body[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next().unwrap_or_default().to_string()
    } else {
        rest.split([',', '}']).next().unwrap_or_default().to_string()
    }
}

#[test]
fn route_statuses_are_structured() {
    let server = test_server(4, 2);
    let (status, body) = get(&server, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""));

    let (status, body) = get(&server, "/does-not-exist");
    assert_eq!(status, 404);
    assert!(body.contains("\"error\":\"not_found\""));

    let (status, _) = request(&server, "DELETE", "/healthz", "");
    assert_eq!(status, 405);

    let (status, body) = get(&server, "/v1/table2?alpha=bogus");
    assert_eq!(status, 400);
    assert!(body.contains("invalid number"), "{body}");

    let (status, body) = get(&server, "/v1/table2?alpha=0.2&nonsense=1");
    assert_eq!(status, 400);
    assert!(body.contains("unknown parameter"), "{body}");

    let (status, body) = get(&server, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("serve_requests_total"), "{body}");
    let (status, body) = get(&server, "/metrics?format=json");
    assert_eq!(status, 200);
    assert!(body.starts_with('{'), "{body}");

    server.stop();
}

#[test]
fn table2_cell_is_bit_identical_to_direct_solve_cold_and_cached() {
    // The acceptance cell: alpha=0.33, eb=2 (β:γ = 1:2), AD 2/2.
    let cfg =
        AttackConfig::with_ratio(0.33, (1, 2), Setting::One, IncentiveModel::CompliantProfitDriven)
            .with_ads(2, 2);
    let model = AttackModel::build(cfg).expect("build");
    let direct =
        model.optimal_relative_revenue(&SolveOptions::default()).expect("direct solve").value;
    let expected_bits = f64_to_hex(direct);

    let server = test_server(4, 2);
    let target = "/v1/table2?alpha=0.33&eb=2&ad=2";

    let (status, body) = get(&server, target);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "value_bits"), expected_bits, "cold solve differs: {body}");
    assert_eq!(json_field(&body, "cache"), "miss");
    assert_eq!(json_field(&body, "utility"), "u1");

    let (status, body) = get(&server, target);
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "value_bits"), expected_bits, "cached value differs: {body}");
    assert_eq!(json_field(&body, "cache"), "hit");

    // The same spec through POST /v1/solve also matches bit for bit.
    let (status, body) = request(
        &server,
        "POST",
        "/v1/solve",
        "{\"alpha\":0.33,\"eb\":2,\"ad\":2,\"incentive\":\"compliant\"}",
    );
    assert_eq!(status, 200, "{body}");
    assert_eq!(json_field(&body, "value_bits"), expected_bits, "POST solve differs: {body}");

    server.stop();
}

#[test]
fn policy_route_decodes_summary() {
    let server = test_server(4, 2);
    let (status, body) = get(&server, "/v1/policy?table=2&alpha=0.33&eb=2&ad=2&gate=4");
    assert_eq!(status, 200, "{body}");
    for key in ["base_action", "on_chain1", "on_chain2", "waits", "phase1_fork_states"] {
        assert!(body.contains(&format!("\"{key}\":")), "missing {key}: {body}");
    }
    server.stop();
}

#[test]
fn concurrent_identical_requests_single_flight_to_one_solve() {
    let clients = 6;
    let server = Arc::new(test_server(16, clients));
    let barrier = Arc::new(Barrier::new(clients));
    let results: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let server = Arc::clone(&server);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    get(&server, "/v1/table2?alpha=0.27&eb=2&ad=2")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).collect()
    });
    let bits: Vec<String> = results
        .iter()
        .map(|(status, body)| {
            assert_eq!(*status, 200, "{body}");
            json_field(body, "value_bits")
        })
        .collect();
    assert!(bits.windows(2).all(|w| w[0] == w[1]), "divergent bytes: {bits:?}");
    assert_eq!(
        server.service.cache().solves_started(),
        1,
        "identical concurrent requests must coalesce into one solve"
    );
    let server = Arc::into_inner(server).expect("sole owner");
    server.stop();
}

#[test]
fn audit_demo_answers_422_naming_the_failed_check() {
    let server = test_server(4, 2);
    let (status, body) = request(&server, "POST", "/v1/solve", "{\"demo\":\"unreachable\"}");
    assert_eq!(status, 422, "{body}");
    assert_eq!(json_field(&body, "error"), "audit_failed");
    assert_eq!(json_field(&body, "check"), "reachable");
    let (status, body) = request(&server, "POST", "/v1/solve", "{\"demo\":\"multichain\"}");
    assert_eq!(status, 422, "{body}");
    assert!(!json_field(&body, "check").is_empty());
    server.stop();
}

#[test]
fn zero_queue_cap_sheds_cold_work_but_serves_hits() {
    // queue_cap 0: every cold solve is shed with 429 + Retry-After.
    let server = test_server(0, 2);
    let (status, body) = get(&server, "/v1/table2?alpha=0.33&eb=2&ad=2");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("\"error\":\"overloaded\""), "{body}");
    server.stop();
}
