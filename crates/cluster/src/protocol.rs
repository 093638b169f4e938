//! The coordinator/worker wire protocol: flat JSON frames over the
//! length-prefixed framing of [`bvc_journal::net`].
//!
//! Every frame is one flat JSON object with a `"t"` discriminator,
//! encoded with [`bvc_journal::json::JsonObject`] and parsed with
//! [`bvc_journal::json::FlatJson`]; list-valued fields cross as JSON
//! arrays of strings. Journal value bits cross as 16-hex-digit bit
//! patterns ([`bvc_journal::f64_to_hex`]) rather than decimal, so the two
//! sides can never disagree on a bit.
//!
//! Conversation shape:
//!
//! ```text
//! worker:  hello {proto, threads}
//! coord:   config {label, token, audit, deadline, injection, lease_ms, batch}
//! worker:  claim {max}
//! coord:   task* {fp, key, spec}   then   grant {lease, n, lease_ms}
//!          | wait {ms}             (queue empty but cells outstanding)
//!          | fin                   (all cells terminal — disconnect)
//! worker:  done {lease, fp, ok, bits|code+reason, attempts, elapsed_us}   per cell
//! worker:  hb {lease}              (heartbeat thread, keeps the lease alive)
//! any:     stats  ->  stats_text {text}
//! coord:   err {msg}               (protocol violation or fatal conflict)
//! ```

use bvc_journal::json::{FlatJson, JsonObject};
use bvc_journal::{f64_from_hex, f64_to_hex};

/// Protocol version; bumped on any incompatible frame change.
pub const PROTO_VERSION: u32 = 4;

/// The sweep-wide execution configuration the coordinator pushes to every
/// worker right after `hello`. Carrying the deadline and injection lists
/// means a worker reproduces the exact failure messages a local run
/// would journal.
#[derive(Debug, Clone, PartialEq)]
pub struct WireConfig {
    /// Sweep label (for worker-side logging only).
    pub label: String,
    /// Solver configuration token mixed into cell fingerprints.
    pub token: String,
    /// Whether cells run the pre-solve model audit.
    pub audit: bool,
    /// Per-cell wall-clock deadline, in milliseconds.
    pub cell_deadline_ms: Option<u64>,
    /// Panic-injection key substrings.
    pub inject_panic: Vec<String>,
    /// No-convergence-injection key substrings.
    pub inject_noconv: Vec<String>,
    /// Suggested claim batch size.
    pub batch: u32,
    /// Lease duration workers must out-heartbeat, in milliseconds.
    pub lease_ms: u64,
}

/// One unit of work: the cell's journal fingerprint, its human-readable
/// key, and the encoded [`crate::jobs::JobSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskFrame {
    /// `cell_fingerprint(key, token)` — the journal/dedup identity.
    pub fp: u64,
    /// Human-readable cell key.
    pub key: String,
    /// `JobSpec::encode()` text the worker decodes and solves.
    pub spec: String,
}

/// One completed cell reported by a worker.
#[derive(Debug, Clone, PartialEq)]
pub struct DoneFrame {
    /// The lease this cell was granted under.
    pub lease: u64,
    /// The cell's fingerprint (dedup identity).
    pub fp: u64,
    /// Human-readable cell key (journal redundancy / sanity checks).
    pub key: String,
    /// Whether the cell solved.
    pub ok: bool,
    /// Solves the worker ran for the cell (always 1; kept because the
    /// journal line carries it).
    pub attempts: u32,
    /// Raw bit patterns of the encoded value (empty on failure).
    pub bits: Vec<u64>,
    /// Failure code (empty on success).
    pub code: String,
    /// Failure reason (empty on success).
    pub reason: String,
    /// Worker-side wall-clock time for the cell, in microseconds.
    pub elapsed_us: u64,
}

/// Every frame of the protocol. See the module docs for the conversation
/// shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker introduction: protocol version and solver thread count.
    Hello {
        /// Must equal [`PROTO_VERSION`].
        proto: u32,
        /// Worker's solver thread count (capacity advertisement).
        threads: u32,
    },
    /// Coordinator's sweep-wide execution configuration.
    Config(WireConfig),
    /// Worker requests up to `max` cells.
    Claim {
        /// Upper bound on the batch size granted.
        max: u32,
    },
    /// One cell of a batch being granted (sent before the `grant`).
    Task(TaskFrame),
    /// Closes a batch: the preceding `task` frames run under this lease.
    Grant {
        /// Lease id the worker must heartbeat and report under.
        lease: u64,
        /// Number of `task` frames in the batch.
        count: u32,
        /// Lease duration in milliseconds.
        lease_ms: u64,
    },
    /// Nothing to hand out right now; ask again in `ms` milliseconds.
    Wait {
        /// Suggested retry delay.
        ms: u64,
    },
    /// All cells are terminal; the worker should disconnect.
    Fin,
    /// A completed cell.
    Done(DoneFrame),
    /// Keeps a lease alive while its batch is still being solved.
    Heartbeat {
        /// The lease being extended.
        lease: u64,
    },
    /// Requests the coordinator's metrics-style stats text.
    Stats,
    /// Reply to [`Frame::Stats`].
    StatsText {
        /// `name value` lines, one metric per line.
        text: String,
    },
    /// Protocol violation or fatal sweep error; the connection closes.
    Err {
        /// Human-readable description.
        msg: String,
    },
}

fn get_strings(doc: &FlatJson, k: &str) -> Option<Vec<String>> {
    Some(doc.get_strs(k)?.into_iter().map(str::to_string).collect())
}

fn get_bits(doc: &FlatJson, k: &str) -> Option<Vec<u64>> {
    doc.get_strs(k)?.into_iter().map(|h| f64_from_hex(h).map(f64::to_bits)).collect()
}

fn get_int(doc: &FlatJson, k: &str) -> Option<u64> {
    let n = doc.get_num(k)?;
    if n.is_finite() && n >= 0.0 && n <= (1u64 << 53) as f64 {
        Some(n as u64)
    } else {
        None
    }
}

fn get_fp(doc: &FlatJson, k: &str) -> Option<u64> {
    u64::from_str_radix(doc.get_str(k)?, 16).ok()
}

impl Frame {
    /// Encodes the frame as one flat JSON object.
    pub fn encode(&self) -> String {
        match self {
            Frame::Hello { proto, threads } => JsonObject::new()
                .str("t", "hello")
                .int("proto", u64::from(*proto))
                .int("threads", u64::from(*threads))
                .finish(),
            Frame::Config(c) => {
                let mut obj = JsonObject::new()
                    .str("t", "config")
                    .str("label", &c.label)
                    .str("token", &c.token)
                    .bool("audit", c.audit)
                    .strs("inj_panic", &c.inject_panic)
                    .strs("inj_noconv", &c.inject_noconv)
                    .int("batch", u64::from(c.batch))
                    .int("lease_ms", c.lease_ms);
                if let Some(ms) = c.cell_deadline_ms {
                    obj = obj.int("deadline_ms", ms);
                }
                obj.finish()
            }
            Frame::Claim { max } => {
                JsonObject::new().str("t", "claim").int("max", u64::from(*max)).finish()
            }
            Frame::Task(task) => JsonObject::new()
                .str("t", "task")
                .str("fp", &format!("{:016x}", task.fp))
                .str("key", &task.key)
                .str("spec", &task.spec)
                .finish(),
            Frame::Grant { lease, count, lease_ms } => JsonObject::new()
                .str("t", "grant")
                .int("lease", *lease)
                .int("n", u64::from(*count))
                .int("lease_ms", *lease_ms)
                .finish(),
            Frame::Wait { ms } => JsonObject::new().str("t", "wait").int("ms", *ms).finish(),
            Frame::Fin => JsonObject::new().str("t", "fin").finish(),
            Frame::Done(d) => JsonObject::new()
                .str("t", "done")
                .int("lease", d.lease)
                .str("fp", &format!("{:016x}", d.fp))
                .str("key", &d.key)
                .bool("ok", d.ok)
                .int("attempts", u64::from(d.attempts))
                .strs(
                    "bits",
                    &d.bits.iter().map(|&b| f64_to_hex(f64::from_bits(b))).collect::<Vec<_>>(),
                )
                .str("code", &d.code)
                .str("reason", &d.reason)
                .int("elapsed_us", d.elapsed_us)
                .finish(),
            Frame::Heartbeat { lease } => {
                JsonObject::new().str("t", "hb").int("lease", *lease).finish()
            }
            Frame::Stats => JsonObject::new().str("t", "stats").finish(),
            Frame::StatsText { text } => {
                JsonObject::new().str("t", "stats_text").str("text", text).finish()
            }
            Frame::Err { msg } => JsonObject::new().str("t", "err").str("msg", msg).finish(),
        }
    }

    /// Decodes one frame. `Err` carries a readable reason; the connection
    /// handling a malformed frame drops the peer.
    pub fn decode(payload: &str) -> Result<Frame, String> {
        let doc = FlatJson::parse(payload).map_err(|e| format!("bad frame json: {e}"))?;
        let t = doc.get_str("t").ok_or("frame missing \"t\"")?;
        let field = |k: &str| format!("{t} frame missing/invalid \"{k}\"");
        match t {
            "hello" => Ok(Frame::Hello {
                proto: get_int(&doc, "proto").ok_or_else(|| field("proto"))? as u32,
                threads: get_int(&doc, "threads").ok_or_else(|| field("threads"))? as u32,
            }),
            "config" => Ok(Frame::Config(WireConfig {
                label: doc.get_str("label").ok_or_else(|| field("label"))?.to_string(),
                token: doc.get_str("token").ok_or_else(|| field("token"))?.to_string(),
                audit: doc.get_bool("audit").ok_or_else(|| field("audit"))?,
                cell_deadline_ms: if doc.has("deadline_ms") {
                    Some(get_int(&doc, "deadline_ms").ok_or_else(|| field("deadline_ms"))?)
                } else {
                    None
                },
                inject_panic: get_strings(&doc, "inj_panic").ok_or_else(|| field("inj_panic"))?,
                inject_noconv: get_strings(&doc, "inj_noconv")
                    .ok_or_else(|| field("inj_noconv"))?,
                batch: get_int(&doc, "batch").ok_or_else(|| field("batch"))? as u32,
                lease_ms: get_int(&doc, "lease_ms").ok_or_else(|| field("lease_ms"))?,
            })),
            "claim" => {
                Ok(Frame::Claim { max: get_int(&doc, "max").ok_or_else(|| field("max"))? as u32 })
            }
            "task" => Ok(Frame::Task(TaskFrame {
                fp: get_fp(&doc, "fp").ok_or_else(|| field("fp"))?,
                key: doc.get_str("key").ok_or_else(|| field("key"))?.to_string(),
                spec: doc.get_str("spec").ok_or_else(|| field("spec"))?.to_string(),
            })),
            "grant" => Ok(Frame::Grant {
                lease: get_int(&doc, "lease").ok_or_else(|| field("lease"))?,
                count: get_int(&doc, "n").ok_or_else(|| field("n"))? as u32,
                lease_ms: get_int(&doc, "lease_ms").ok_or_else(|| field("lease_ms"))?,
            }),
            "wait" => Ok(Frame::Wait { ms: get_int(&doc, "ms").ok_or_else(|| field("ms"))? }),
            "fin" => Ok(Frame::Fin),
            "done" => Ok(Frame::Done(DoneFrame {
                lease: get_int(&doc, "lease").ok_or_else(|| field("lease"))?,
                fp: get_fp(&doc, "fp").ok_or_else(|| field("fp"))?,
                key: doc.get_str("key").ok_or_else(|| field("key"))?.to_string(),
                ok: doc.get_bool("ok").ok_or_else(|| field("ok"))?,
                attempts: get_int(&doc, "attempts").ok_or_else(|| field("attempts"))? as u32,
                bits: get_bits(&doc, "bits").ok_or_else(|| field("bits"))?,
                code: doc.get_str("code").unwrap_or_default().to_string(),
                reason: doc.get_str("reason").unwrap_or_default().to_string(),
                elapsed_us: get_int(&doc, "elapsed_us").unwrap_or(0),
            })),
            "hb" => Ok(Frame::Heartbeat {
                lease: get_int(&doc, "lease").ok_or_else(|| field("lease"))?,
            }),
            "stats" => Ok(Frame::Stats),
            "stats_text" => Ok(Frame::StatsText {
                text: doc.get_str("text").ok_or_else(|| field("text"))?.to_string(),
            }),
            "err" => {
                Ok(Frame::Err { msg: doc.get_str("msg").unwrap_or("unspecified").to_string() })
            }
            other => Err(format!("unknown frame type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let encoded = frame.encode();
        let decoded = Frame::decode(&encoded).unwrap_or_else(|e| panic!("{e}: {encoded}"));
        assert_eq!(decoded, frame, "wire roundtrip of {encoded}");
    }

    /// One frame of each kind.
    fn one_of_each() -> Vec<Frame> {
        vec![
            Frame::Hello { proto: PROTO_VERSION, threads: 4 },
            Frame::Config(WireConfig {
                label: "table2-setting1".into(),
                token: "rvi;tau=0.1".into(),
                audit: true,
                cell_deadline_ms: Some(30_000),
                // An empty substring and one holding the old list separator
                // (U+001F) must cross as themselves.
                inject_panic: vec!["".into(), "a\u{1f}b".into()],
                inject_noconv: vec!["a=10%".into(), "s2".into()],
                batch: 4,
                lease_ms: 30_000,
            }),
            Frame::Claim { max: 8 },
            Frame::Task(TaskFrame {
                fp: 0xdead_beef_0123_4567,
                key: "s1 b:g=3:2 a=10%".into(),
                spec: "t2;3fb999999999999a;3;2;1".into(),
            }),
            Frame::Grant { lease: 7, count: 3, lease_ms: 30_000 },
            Frame::Wait { ms: 250 },
            Frame::Fin,
            Frame::Done(DoneFrame {
                lease: 7,
                fp: 1,
                key: "k".into(),
                ok: true,
                attempts: 1,
                bits: vec![0.25f64.to_bits(), f64::NAN.to_bits(), (-0.0f64).to_bits()],
                code: String::new(),
                reason: String::new(),
                elapsed_us: 1234,
            }),
            Frame::Done(DoneFrame {
                lease: 8,
                fp: 2,
                key: "k2".into(),
                ok: false,
                attempts: 1,
                bits: vec![],
                code: "no-conv".into(),
                reason: "rvi did not converge\nresidual 1e-3".into(),
                elapsed_us: 0,
            }),
            Frame::Heartbeat { lease: 7 },
            Frame::Stats,
            Frame::StatsText { text: "cluster_cells_total 24\n".into() },
            Frame::Err { msg: "conflicting bits".into() },
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        for frame in one_of_each() {
            roundtrip(frame);
        }
    }

    /// Every proper prefix of a frame, and every frame with one delimiter
    /// byte swapped in, decodes to a frame or an error without panicking:
    /// both ends decode whatever bytes arrive on the socket.
    #[test]
    fn frame_mutants_never_panic() {
        for frame in one_of_each() {
            for mutant in proptest::mutate::mutants(&frame.encode()) {
                let _ = Frame::decode(mutant.text());
            }
        }
    }

    #[test]
    fn config_without_deadline_roundtrips_as_none() {
        let cfg = WireConfig {
            label: "l".into(),
            token: "t".into(),
            audit: false,
            cell_deadline_ms: None,
            inject_panic: vec![],
            inject_noconv: vec![],
            batch: 1,
            lease_ms: 1000,
        };
        roundtrip(Frame::Config(cfg));
    }

    #[test]
    fn malformed_frames_are_rejected_with_reasons() {
        assert!(Frame::decode("").is_err());
        assert!(Frame::decode("{}").is_err());
        assert!(Frame::decode("{\"t\":\"launch\"}").is_err());
        assert!(Frame::decode("{\"t\":\"claim\"}").is_err());
        assert!(
            Frame::decode("{\"t\":\"task\",\"fp\":\"xyz\",\"key\":\"k\",\"spec\":\"s\"}").is_err()
        );
        for bits in ["\"zz\"", "[\"zz\"]", "[1]", "[[]]"] {
            let done = format!(
                "{{\"t\":\"done\",\"lease\":1,\"fp\":\"01\",\"key\":\"k\",\"ok\":true,\"attempts\":1,\"bits\":{bits}}}"
            );
            assert!(Frame::decode(&done).is_err(), "{done}");
        }
    }
}
