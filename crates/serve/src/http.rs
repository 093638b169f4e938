//! A minimal, dependency-free HTTP/1.1 substrate: a blocking
//! [`TcpListener`] served by a fixed worker-thread pool, a request parser
//! for the small subset of the protocol the serve API needs (request line,
//! headers, `Content-Length` bodies), keep-alive connections with
//! per-connection read deadlines, and a graceful shutdown that drains
//! in-flight requests.
//!
//! Each worker owns a [`TcpListener::try_clone`] handle and blocks in
//! `accept` — the kernel's accept queue is the work queue, mirroring the
//! claim-cursor pattern of `bvc_repro`'s sweep claim loop where the shared
//! cursor is replaced by the shared listener. Shutdown flips an atomic
//! flag, switches the listener non-blocking, and self-connects to wake any
//! worker still parked in `accept`; workers finish the request they are
//! serving before exiting, so no accepted request is ever dropped.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bvc_journal::net::{apply_deadlines, read_chunk, ReadError as RecvError};

/// Tuning knobs of the substrate.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Number of worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Per-connection read deadline: both the keep-alive idle timeout and
    /// the cap on how long a torn request may dribble in.
    pub read_timeout: Duration,
    /// Maximum total size of the request line plus all headers.
    pub max_header_bytes: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body_bytes: usize,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            workers: 4,
            read_timeout: Duration::from_secs(5),
            max_header_bytes: 8 * 1024,
            max_body_bytes: 64 * 1024,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path component of the request target (no query string).
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs; names are lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless a `Content-Length` was given).
    pub body: Vec<u8>,
    /// Whether the client asked for the connection to close after this
    /// request (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub wants_close: bool,
}

impl Request {
    /// First query parameter with this name, if any.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First header with this (case-insensitive) name, if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == lower).map(|(_, v)| v.as_str())
    }
}

/// One HTTP response to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Extra headers appended verbatim (e.g. `Retry-After`).
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into_bytes(),
            extra_headers: Vec::new(),
        }
    }

    /// Appends a header; returns `self` for chaining.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The standard reason phrase for the status codes this service emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// Decodes `%XX` escapes and `+` (as space) in a query component.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits a raw query string into decoded `key=value` pairs.
pub fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|p| !p.is_empty())
        .map(|p| match p.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(p), String::new()),
        })
        .collect()
}

/// One live connection: the stream plus any bytes already read past the
/// previous request (keep-alive pipelining).
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

impl Conn {
    /// Reads more bytes into the buffer; the EOF/deadline translation lives
    /// in [`bvc_journal::net::read_chunk`], shared with the cluster frame codec.
    fn fill(&mut self, mid_request: bool) -> Result<(), RecvError> {
        read_chunk(&mut self.stream, &mut self.buf, mid_request)
    }

    /// Reads and parses the next request off the connection.
    fn read_request(&mut self, cfg: &HttpConfig) -> Result<Request, RecvError> {
        let header_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            if self.buf.len() > cfg.max_header_bytes {
                return Err(RecvError::TooLarge("header"));
            }
            self.fill(!self.buf.is_empty())?;
        };
        if header_end > cfg.max_header_bytes {
            return Err(RecvError::TooLarge("header"));
        }
        let head = std::str::from_utf8(&self.buf[..header_end])
            .map_err(|_| RecvError::Malformed("header is not valid UTF-8".into()))?
            .to_string();
        self.buf.drain(..header_end + 4);

        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(t), Some(v)) if !m.is_empty() && parts.next().is_none() => {
                (m.to_string(), t.to_string(), v)
            }
            _ => {
                return Err(RecvError::Malformed(format!(
                    "malformed request line {request_line:?}"
                )))
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Err(RecvError::Malformed(format!("unsupported version {version:?}")));
        }
        let mut headers = Vec::new();
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(RecvError::Malformed(format!("malformed header line {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, parse_query(q)),
            None => (target.as_str(), Vec::new()),
        };
        let path = percent_decode(path);

        let connection = headers
            .iter()
            .find(|(k, _)| k == "connection")
            .map(|(_, v)| v.to_ascii_lowercase())
            .unwrap_or_default();
        let wants_close = connection.contains("close")
            || (version == "HTTP/1.0" && !connection.contains("keep-alive"));

        let body_len = match headers.iter().find(|(k, _)| k == "content-length") {
            None => 0,
            Some((_, v)) => v
                .parse::<usize>()
                .map_err(|_| RecvError::Malformed(format!("bad content-length {v:?}")))?,
        };
        if body_len > cfg.max_body_bytes {
            return Err(RecvError::TooLarge("body"));
        }
        while self.buf.len() < body_len {
            self.fill(true)?;
        }
        let body: Vec<u8> = self.buf.drain(..body_len).collect();

        Ok(Request { method, path, query, headers, body, wants_close })
    }
}

fn write_response(stream: &mut TcpStream, resp: &Response, close: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        resp.status,
        Response::reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    if close {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

/// A running server: worker threads plus the shutdown handle.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    listener: TcpListener,
    workers: Vec<JoinHandle<()>>,
}

/// Binds worker threads to an already-bound listener and starts serving.
/// The handler is called once per request; panics inside it are caught and
/// turned into a 500 so one bad request cannot take a worker down.
pub fn serve<H>(listener: TcpListener, cfg: HttpConfig, handler: Arc<H>) -> io::Result<Server>
where
    H: Fn(&Request) -> Response + Send + Sync + 'static,
{
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    for i in 0..cfg.workers.max(1) {
        let worker_listener = listener.try_clone()?;
        let worker_handler = Arc::clone(&handler);
        let worker_stop = Arc::clone(&stop);
        let worker_cfg = cfg.clone();
        workers.push(std::thread::Builder::new().name(format!("serve-worker-{i}")).spawn(
            move || worker_loop(worker_listener, worker_cfg, worker_handler, worker_stop),
        )?);
    }
    Ok(Server { addr, stop, listener, workers })
}

fn worker_loop<H: Fn(&Request) -> Response>(
    listener: TcpListener,
    cfg: HttpConfig,
    handler: Arc<H>,
    stop: Arc<AtomicBool>,
) {
    loop {
        // ordering: Acquire — pairs with the Release store in stop(); sees all pre-shutdown writes.
        if stop.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                // ordering: Acquire — pairs with the Release store in stop(); sees all pre-shutdown writes.
                if stop.load(Ordering::Acquire) {
                    // Shutdown wakeup (or a connection raced it): close
                    // without reading rather than serve past the drain.
                    return;
                }
                let _ = handle_connection(stream, &cfg, handler.as_ref(), &stop);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Listener switched to non-blocking by shutdown.
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Discards any request bytes still unread before an error-path close, so
/// the close sends FIN rather than RST (an RST can destroy the error
/// response sitting in the peer's receive buffer). Bounded by a short
/// deadline and a byte budget: this is courtesy, not obligation.
fn drain_before_close(stream: &mut TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut scratch = [0u8; 4096];
    for _ in 0..256 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

fn handle_connection<H: Fn(&Request) -> Response>(
    stream: TcpStream,
    cfg: &HttpConfig,
    handler: &H,
    stop: &AtomicBool,
) -> io::Result<()> {
    apply_deadlines(&stream, cfg.read_timeout)?;
    let mut conn = Conn { stream, buf: Vec::new() };
    loop {
        let req = match conn.read_request(cfg) {
            Ok(req) => req,
            Err(RecvError::Closed | RecvError::TimedOut | RecvError::Io) => return Ok(()),
            Err(RecvError::TooLarge(what)) => {
                let status = if what == "body" { 413 } else { 431 };
                let resp = Response::json(
                    status,
                    format!("{{\"error\":\"too_large\",\"detail\":\"{what} exceeds limit\"}}"),
                );
                write_response(&mut conn.stream, &resp, true)?;
                drain_before_close(&mut conn.stream);
                return Ok(());
            }
            Err(RecvError::Malformed(detail)) => {
                let resp = Response::json(
                    400,
                    format!(
                        "{{\"error\":\"bad_request\",\"detail\":\"{}\"}}",
                        bvc_journal::json::escape(&detail)
                    ),
                );
                write_response(&mut conn.stream, &resp, true)?;
                drain_before_close(&mut conn.stream);
                return Ok(());
            }
        };
        let resp = match catch_unwind(AssertUnwindSafe(|| handler(&req))) {
            Ok(resp) => resp,
            Err(_) => Response::json(
                500,
                "{\"error\":\"internal\",\"detail\":\"request handler panicked\"}".to_string(),
            ),
        };
        // Finish the in-flight request even when draining, then close.
        // ordering: Acquire — pairs with the Release store in stop(); sees all pre-shutdown writes.
        let close = req.wants_close || stop.load(Ordering::Acquire);
        write_response(&mut conn.stream, &resp, close)?;
        if close {
            return Ok(());
        }
    }
}

impl Server {
    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, wake parked workers, and join
    /// them once each has drained the request it is serving.
    pub fn shutdown(self) {
        // ordering: Release — publishes every pre-shutdown write to the acceptor's Acquire loads.
        self.stop.store(true, Ordering::Release);
        // New `accept` calls now return WouldBlock instead of parking...
        let _ = self.listener.set_nonblocking(true);
        // ...and already-parked ones are woken by self-connects. Keep
        // poking until every worker has observed the flag: a wakeup
        // connection can be stolen by a worker that was busy serving. The
        // connect must be time-bounded — once every parked worker has
        // woken, nobody accepts the pokes, and after the listen backlog
        // fills a *blocking* connect would sit in SYN retransmission for
        // minutes while a busy worker finishes its in-flight connection.
        while self.workers.iter().any(|w| !w.is_finished()) {
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(50));
            std::thread::sleep(Duration::from_millis(10));
        }
        for w in self.workers {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%3a%2F"), ":/");
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("alpha=0.33&eb=2&flag&x=1%3A2");
        assert_eq!(
            q,
            vec![
                ("alpha".to_string(), "0.33".to_string()),
                ("eb".to_string(), "2".to_string()),
                ("flag".to_string(), String::new()),
                ("x".to_string(), "1:2".to_string()),
            ]
        );
    }

    #[test]
    fn reason_phrases_cover_service_statuses() {
        for status in [200, 400, 404, 405, 413, 422, 429, 431, 500, 503] {
            assert_ne!(Response::reason(status), "Unknown", "status {status}");
        }
    }
}
