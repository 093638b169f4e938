//! Checkpoint-journal codec and stable cell fingerprints.
//!
//! Three subsystems must agree byte-for-byte on how sweep cells are named
//! and how their values are serialized:
//!
//! * the sweep runner (`bvc_repro::sweep::run_sweep`) appends finished
//!   cells to a JSONL journal and replays them on resume;
//! * the `bvc-serve` result cache keys cached cells by exactly the
//!   fingerprints the journal writes, so a sweep journal can warm-start
//!   the server;
//! * the `bvc-cluster` coordinator writes the *same* journal lines for
//!   cells solved on remote workers, so a distributed run's journal is
//!   bit-identical to a local one.
//!
//! This crate is the single source of truth for that format: FNV-1a cell
//! fingerprints, bit-exact `f64` hex encoding, the line codec, and the
//! maintenance operations behind `bvc journal compact|stat`. It also holds
//! the two scalar readers ([`param_f64`], [`param_int`]) the cell
//! parameter schemas share, so every front end words a bad cell parameter
//! the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write as _};
use std::path::Path;

// ---------------------------------------------------------------------------
// Fingerprints and bit-exact f64 hex
// ---------------------------------------------------------------------------

pub use bvc_chaos::fnv1a64;

/// Deterministic identity of one sweep cell: the human-readable cell key
/// joined with a token describing every solver knob that can change the
/// cell's *value*. Changing tolerances invalidates old journal entries
/// (different fingerprint) without invalidating unrelated cells.
pub fn cell_fingerprint(key: &str, config_token: &str) -> u64 {
    let mut data = Vec::with_capacity(key.len() + config_token.len() + 1);
    data.extend_from_slice(key.as_bytes());
    data.push(0x1f);
    data.extend_from_slice(config_token.as_bytes());
    fnv1a64(&data)
}

/// Renders an `f64` as its 16-hex-digit bit pattern. Lossless for every
/// value, including NaN payloads, signed zeros, infinities and subnormals
/// that decimal round-tripping mangles.
pub fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Parses a bit pattern written by [`f64_to_hex`]. Returns `None` on
/// malformed input instead of guessing.
pub fn f64_from_hex(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

// ---------------------------------------------------------------------------
// Named cell parameters
// ---------------------------------------------------------------------------

/// Parses the text of the named cell parameter `name` as an `f64`. The
/// cell schemas (`AttackConfig::from_params`, `ScenarioSpec::from_params`,
/// `GameSpec::from_params`, ...) read every number through this and
/// [`param_int`], so serve and the CLI report the same wording.
pub fn param_f64(raw: &str, name: &str) -> Result<f64, String> {
    raw.parse::<f64>().map_err(|_| format!("invalid number {raw:?} for {name}"))
}

/// Parses the text of the named cell parameter `name` as an integer in
/// `[lo, hi]`.
pub fn param_int(raw: &str, name: &str, lo: u64, hi: u64) -> Result<u64, String> {
    let v = raw.parse::<u64>().map_err(|_| format!("invalid integer {raw:?} for {name}"))?;
    if v < lo || v > hi {
        return Err(format!("{name} must be in [{lo}, {hi}], got {v}"));
    }
    Ok(v)
}

/// Rejects the first of `names` that is in none of `lists` (the owning
/// schemas' exported `PARAMS`, plus the caller's own names): serve's check
/// of query names and body fields, and the CLI's check of flags.
pub fn check_param_names<'a>(
    names: impl IntoIterator<Item = &'a str>,
    lists: &[&[&str]],
) -> Result<(), String> {
    for name in names {
        if !lists.iter().any(|list| list.contains(&name)) {
            let allowed = lists.concat().join(", ");
            return Err(format!("unknown parameter {name:?} (allowed: {allowed})"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Journal codec (hand-rolled JSONL; no serde in this workspace)
// ---------------------------------------------------------------------------

/// One parsed checkpoint-journal line.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Fingerprint the entry was journaled under
    /// ([`cell_fingerprint`] of key ⊕ config token).
    pub fp: u64,
    /// Human-readable cell key.
    pub key: String,
    /// Whether the cell solved (`status: ok`) or failed.
    pub ok: bool,
    /// Solve attempts recorded for the cell.
    pub attempts: u32,
    /// Raw `f64` bit patterns of the encoded value (empty for failures).
    pub bits: Vec<u64>,
    /// Failure reason (empty for successes).
    pub reason: String,
}

impl JournalEntry {
    /// The journaled value as `f64`s (bit-exact).
    pub fn values(&self) -> Vec<f64> {
        self.bits.iter().map(|&b| f64::from_bits(b)).collect()
    }
}

/// Escapes a string for embedding in a journal-line JSON literal (no
/// surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Encodes one journal line (no trailing newline). `vals` is the decimal
/// mirror of the value, informational for humans reading the journal and
/// ignored on replay; the hex `bits` in `entry` are canonical. Every writer
/// (local sweep runner, cluster coordinator) must go through this function
/// for journals to stay byte-comparable across execution modes.
pub fn encode_line(entry: &JournalEntry, vals: &[f64]) -> String {
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"fp\":\"{:016x}\",\"key\":\"{}\",\"status\":\"{}\",\"attempts\":{}",
        entry.fp,
        json_escape(&entry.key),
        if entry.ok { "ok" } else { "fail" },
        entry.attempts,
    );
    if entry.ok {
        let _ = write!(line, ",\"bits\":[");
        for (i, b) in entry.bits.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(line, "{sep}\"{}\"", f64_to_hex(f64::from_bits(*b)));
        }
        let _ = write!(line, "],\"vals\":[");
        for (i, v) in vals.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            if v.is_finite() {
                let _ = write!(line, "{sep}{v}");
            } else {
                let _ = write!(line, "{sep}\"{v}\"");
            }
        }
        let _ = write!(line, "]");
    } else {
        let _ = write!(line, ",\"reason\":\"{}\"", json_escape(&entry.reason));
    }
    line.push('}');
    line
}

/// Minimal cursor over one JSON object line. Tolerant by construction: any
/// structural surprise makes the whole line parse to `None`, and the caller
/// skips it (a torn tail line from a killed run must not poison resume).
struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl Cur<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Option<String> {
        self.ws();
        if !self.eat(b'"') {
            return None;
        }
        // Accumulate raw bytes and validate UTF-8 once at the closing
        // quote: pushing bytes >= 0x80 as chars would mangle multi-byte
        // UTF-8 sequences (mojibake on keys and failure reasons).
        let mut out = Vec::new();
        loop {
            let c = *self.b.get(self.i)?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let e = *self.b.get(self.i)?;
                    self.i += 1;
                    match e {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self.b.get(self.i..self.i + 4)?;
                            self.i += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(
                                char::from_u32(code)?.encode_utf8(&mut buf).as_bytes(),
                            );
                        }
                        _ => return None,
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Option<f64> {
        self.ws();
        let start = self.i;
        while self.i < self.b.len()
            && matches!(self.b[self.i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i]).ok()?.parse().ok()
    }

    /// Skips a scalar or (possibly nested) array value we don't care about.
    fn skip_value(&mut self) -> Option<()> {
        self.ws();
        match *self.b.get(self.i)? {
            b'"' => self.string().map(|_| ()),
            b'[' => {
                self.i += 1;
                loop {
                    self.ws();
                    if self.eat(b']') {
                        return Some(());
                    }
                    self.skip_value()?;
                    self.ws();
                    self.eat(b',');
                }
            }
            b't' | b'f' | b'n' => {
                while self.i < self.b.len() && self.b[self.i].is_ascii_alphabetic() {
                    self.i += 1;
                }
                Some(())
            }
            _ => self.number().map(|_| ()),
        }
    }
}

/// Parses one journal line. Tolerant by construction: any structural
/// surprise (torn tail from a killed run, stray edit) makes the whole line
/// parse to `None` and the caller skips it.
pub fn parse_journal_line(line: &str) -> Option<JournalEntry> {
    let mut c = Cur { b: line.as_bytes(), i: 0 };
    c.ws();
    if !c.eat(b'{') {
        return None;
    }
    let mut fp = None;
    let mut key = None;
    let mut status = None;
    let mut attempts = 0u32;
    let mut bits = Vec::new();
    let mut reason = String::new();
    loop {
        c.ws();
        if c.eat(b'}') {
            break;
        }
        let name = c.string()?;
        c.ws();
        if !c.eat(b':') {
            return None;
        }
        match name.as_str() {
            "fp" => fp = u64::from_str_radix(&c.string()?, 16).ok(),
            "key" => key = Some(c.string()?),
            "status" => status = Some(c.string()?),
            "attempts" => attempts = c.number()? as u32,
            "bits" => {
                c.ws();
                if !c.eat(b'[') {
                    return None;
                }
                loop {
                    c.ws();
                    if c.eat(b']') {
                        break;
                    }
                    bits.push(f64_from_hex(&c.string()?)?.to_bits());
                    c.ws();
                    c.eat(b',');
                }
            }
            "reason" => reason = c.string()?,
            _ => c.skip_value()?,
        }
        c.ws();
        c.eat(b',');
    }
    let status = status?;
    if status != "ok" && status != "fail" {
        return None;
    }
    Some(JournalEntry { fp: fp?, key: key?, ok: status == "ok", attempts, bits, reason })
}

/// Loads a journal, last-entry-wins per fingerprint. Unparseable lines
/// (torn tails from killed runs, stray edits) are skipped.
pub fn load_journal(path: &Path) -> HashMap<u64, JournalEntry> {
    let mut map = HashMap::new();
    let Ok(file) = std::fs::File::open(path) else {
        return map;
    };
    for line in BufReader::new(file).lines() {
        let Ok(line) = line else { break };
        if let Some(entry) = parse_journal_line(&line) {
            map.insert(entry.fp, entry);
        }
    }
    map
}

// ---------------------------------------------------------------------------
// Durable appends and crash recovery
// ---------------------------------------------------------------------------

/// How hard an append pushes bytes toward the platter before returning.
///
/// `flush` (stdlib buffering) always happens; durability levels add
/// `fsync`:
///
/// * `None` — no fsync; an OS crash can lose recently appended lines
///   (they re-solve on resume).
/// * `Batch` — fsync every [`JournalWriter::BATCH_SYNC_EVERY`] appends and
///   on [`JournalWriter::sync`]; bounds loss to one batch. The default.
/// * `Always` — fsync after every append; an acknowledged line survives
///   power loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Flush only, never fsync.
    None,
    /// Fsync every few appends and at sweep end.
    #[default]
    Batch,
    /// Fsync after every append.
    Always,
}

impl Durability {
    /// Parses the `--durability` CLI value (`none` | `batch` | `always`).
    pub fn parse(raw: &str) -> Option<Durability> {
        match raw {
            "none" => Some(Durability::None),
            "batch" => Some(Durability::Batch),
            "always" => Some(Durability::Always),
            _ => None,
        }
    }
}

/// An append-only journal writer with an explicit [`Durability`] policy
/// and atomic-or-nothing appends.
///
/// Every append is a single `line + '\n'` write followed by a flush. If
/// the write fails partway (disk full, short write, injected torn-write
/// fault), the writer truncates the file back to the pre-append length
/// before returning the error — the file never gains a torn *middle*, so
/// a later retry of the same line keeps the journal byte-identical to an
/// uninterrupted run. Torn *tails* (process killed mid-write) are
/// repaired by [`recover_journal`] at the next open.
///
/// Chaos integration: appends honor the `journal.append` torn-write fault
/// site and the `journal.before_append` / `journal.after_append` crash
/// points (see `bvc-chaos`).
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    durability: Durability,
    len: u64,
    since_sync: u64,
}

impl JournalWriter {
    /// Appends between fsyncs under [`Durability::Batch`].
    pub const BATCH_SYNC_EVERY: u64 = 16;

    /// Opens (creating if needed) `path` for appending, creating parent
    /// directories. Does **not** recover torn tails — call
    /// [`recover_journal`] first when resuming.
    pub fn append_to(path: &Path, durability: Durability) -> std::io::Result<JournalWriter> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let len = file.metadata()?.len();
        Ok(JournalWriter { file, durability, len, since_sync: 0 })
    }

    /// Appends one journal line (newline added) atomically-or-nothing,
    /// then applies the durability policy.
    pub fn append_line(&mut self, line: &str) -> std::io::Result<()> {
        bvc_chaos::crash_point("journal.before_append");
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');

        let result = match bvc_chaos::draw_io("journal.append", bvc_chaos::IoOp::Write) {
            bvc_chaos::IoFault::Torn { cut } => {
                // Simulated short write: a prefix lands on disk, then the
                // device errors — exactly what ENOSPC mid-line looks like.
                let n = ((bytes.len() as f64 * cut) as usize).min(bytes.len() - 1);
                if n > 0 {
                    let _ = self.file.write(&bytes[..n]);
                    let _ = self.file.flush();
                }
                Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "chaos: torn journal append",
                ))
            }
            bvc_chaos::IoFault::Reset => Err(std::io::Error::other("chaos: journal append error")),
            bvc_chaos::IoFault::Stall(d) => {
                std::thread::sleep(d);
                self.file.write_all(&bytes).and_then(|()| self.file.flush())
            }
            bvc_chaos::IoFault::None => {
                self.file.write_all(&bytes).and_then(|()| self.file.flush())
            }
        };

        match result.and_then(|()| self.apply_durability()) {
            Ok(()) => {
                self.len += bytes.len() as u64;
                bvc_chaos::crash_point("journal.after_append");
                Ok(())
            }
            Err(e) => {
                // Atomic-or-nothing: drop whatever prefix landed so the
                // journal never carries a torn middle. (On a crash there
                // is no repair step — recover_journal handles the tail.)
                let _ = self.file.set_len(self.len);
                Err(e)
            }
        }
    }

    fn apply_durability(&mut self) -> std::io::Result<()> {
        match self.durability {
            Durability::None => Ok(()),
            Durability::Always => self.file.sync_data(),
            Durability::Batch => {
                self.since_sync += 1;
                if self.since_sync >= Self::BATCH_SYNC_EVERY {
                    self.since_sync = 0;
                    self.file.sync_data()
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Forces an fsync now (end-of-sweep barrier for `Batch`; a no-op
    /// amount of extra work for `Always`).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.since_sync = 0;
        self.file.sync_data()
    }
}

/// What [`recover_journal`] found (and repaired) in a journal.
#[derive(Debug, Clone, Default)]
pub struct RecoveredJournal {
    /// Live entries, last-wins per fingerprint — same semantics as
    /// [`load_journal`] over the retained prefix.
    pub entries: HashMap<u64, JournalEntry>,
    /// Bytes of torn tail truncated from the file (0 when clean).
    pub truncated_bytes: u64,
}

/// Opens a journal for crash recovery: truncates any unterminated tail
/// (bytes after the last `'\n'` — a line torn by a kill or power loss,
/// even if it happens to parse) and returns the live entries of the
/// retained prefix.
///
/// Truncation is what lets a restarted coordinator produce a journal
/// byte-identical to an uninterrupted run: the torn cell re-solves and
/// its line is re-appended at exactly the truncation point. Terminated
/// mid-file lines that do not parse are left in place and skipped, like
/// [`load_journal`] does. A missing file is an empty journal.
pub fn recover_journal(path: &Path) -> std::io::Result<RecoveredJournal> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(RecoveredJournal::default())
        }
        Err(e) => return Err(e),
    };
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let truncated_bytes = (bytes.len() - keep) as u64;
    if truncated_bytes > 0 {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(keep as u64)?;
        file.sync_data()?;
    }
    let mut entries = HashMap::new();
    for line in bytes[..keep].split(|&b| b == b'\n') {
        // Tolerate CRLF journals (e.g. edited on another platform): the
        // parser already ignores bytes after the closing brace, but strip
        // explicitly so the rule is visible here.
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.is_empty() {
            continue;
        }
        if let Ok(text) = std::str::from_utf8(line) {
            if let Some(entry) = parse_journal_line(text) {
                entries.insert(entry.fp, entry);
            }
        }
    }
    Ok(RecoveredJournal { entries, truncated_bytes })
}

// ---------------------------------------------------------------------------
// Maintenance: compact and stat (behind `bvc journal`)
// ---------------------------------------------------------------------------

/// What [`compact_journal`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactOutcome {
    /// Lines read from the input.
    pub lines_in: usize,
    /// Lines written to the output (one per live fingerprint).
    pub kept: usize,
    /// Parseable lines dropped because a later line for the same
    /// fingerprint supersedes them.
    pub superseded: usize,
    /// Unparseable lines dropped (torn tails, stray edits).
    pub unparseable: usize,
}

/// Compacts a journal: for each fingerprint only the *last* line survives
/// (exactly the entry [`load_journal`] would have used), byte-for-byte as
/// it appeared in the input; superseded and unparseable lines are dropped.
/// Kept lines stay in input order. The output is written atomically via a
/// sibling temp file + rename, so `input == output` compacts in place and
/// a crash never corrupts the original.
pub fn compact_journal(input: &Path, output: &Path) -> std::io::Result<CompactOutcome> {
    let text = std::fs::read_to_string(input)?;
    let lines: Vec<&str> = text.lines().collect();
    let mut outcome = CompactOutcome { lines_in: lines.len(), ..CompactOutcome::default() };
    // Last line index per fingerprint decides survival.
    let mut last: HashMap<u64, usize> = HashMap::new();
    let mut fps: Vec<Option<u64>> = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match parse_journal_line(line) {
            Some(entry) => {
                last.insert(entry.fp, i);
                fps.push(Some(entry.fp));
            }
            None => fps.push(None),
        }
    }
    let tmp = output.with_extension("compact-tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        for (i, line) in lines.iter().enumerate() {
            match fps[i] {
                Some(fp) if last.get(&fp) == Some(&i) => {
                    writeln!(file, "{line}")?;
                    outcome.kept += 1;
                }
                Some(_) => outcome.superseded += 1,
                None => outcome.unparseable += 1,
            }
        }
        file.flush()?;
        // The rename below only atomically replaces what has reached the
        // disk: fsync the temp file first, then the rename, then the
        // directory entry, so a crash never yields a half-compacted file.
        file.sync_all()?;
    }
    std::fs::rename(&tmp, output)?;
    if let Some(parent) = output.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    bvc_chaos::crash_point("journal.after_compact");
    Ok(outcome)
}

/// Summary statistics over a journal, as computed by [`journal_stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalStats {
    /// Total lines in the file.
    pub lines: usize,
    /// Lines that did not parse (torn tails, stray edits).
    pub unparseable: usize,
    /// Lines shadowed by a later line with the same fingerprint.
    pub superseded: usize,
    /// Live entries (distinct fingerprints, last line wins).
    pub entries: usize,
    /// Live entries with `status: ok`.
    pub ok: usize,
    /// Live entries with `status: fail`.
    pub failed: usize,
    /// Distinct cell keys across live entries.
    pub distinct_keys: usize,
    /// Keys appearing under more than one fingerprint — evidence of a
    /// config-token change (stale entries from an older solver config).
    pub stale_keys: usize,
    /// Live failure reasons with counts, most frequent first.
    pub reasons: Vec<(String, usize)>,
}

/// Computes [`JournalStats`] for a journal file.
pub fn journal_stats(path: &Path) -> std::io::Result<JournalStats> {
    let text = std::fs::read_to_string(path)?;
    let mut stats = JournalStats::default();
    let mut live: HashMap<u64, JournalEntry> = HashMap::new();
    for line in text.lines() {
        stats.lines += 1;
        match parse_journal_line(line) {
            Some(entry) => {
                if live.insert(entry.fp, entry).is_some() {
                    stats.superseded += 1;
                }
            }
            None => stats.unparseable += 1,
        }
    }
    stats.entries = live.len();
    let mut keys: HashMap<&str, usize> = HashMap::new();
    let mut reasons: HashMap<&str, usize> = HashMap::new();
    for entry in live.values() {
        if entry.ok {
            stats.ok += 1;
        } else {
            stats.failed += 1;
            *reasons.entry(entry.reason.as_str()).or_insert(0) += 1;
        }
        *keys.entry(entry.key.as_str()).or_insert(0) += 1;
    }
    stats.distinct_keys = keys.len();
    stats.stale_keys = keys.values().filter(|&&n| n > 1).count();
    let mut reasons: Vec<(String, usize)> =
        reasons.into_iter().map(|(r, n)| (r.to_string(), n)).collect();
    reasons.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    stats.reasons = reasons;
    Ok(stats)
}

impl JournalStats {
    /// Human-readable multi-line rendering for `bvc journal stat`.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "lines          {}", self.lines);
        let _ = writeln!(out, "  unparseable  {}", self.unparseable);
        let _ = writeln!(out, "  superseded   {}", self.superseded);
        let _ = writeln!(out, "entries        {}", self.entries);
        let _ = writeln!(out, "  ok           {}", self.ok);
        let _ = writeln!(out, "  failed       {}", self.failed);
        let _ = writeln!(out, "distinct keys  {}", self.distinct_keys);
        let _ = writeln!(out, "  stale (>1 config token) {}", self.stale_keys);
        for (reason, n) in &self.reasons {
            let _ = writeln!(out, "failure x{n}: {reason}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tmp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("bvc_journal_{tag}_{}_{n}.jsonl", std::process::id()))
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint_separates_key_and_token() {
        assert_ne!(cell_fingerprint("ab", "c"), cell_fingerprint("a", "bc"));
        assert_ne!(cell_fingerprint("k", "a"), cell_fingerprint("k", "b"));
        assert_eq!(cell_fingerprint("k", "a"), cell_fingerprint("k", "a"));
    }

    #[test]
    fn hex_roundtrip_is_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0, // subnormal
            std::f64::consts::PI,
        ] {
            let hex = f64_to_hex(v);
            assert_eq!(hex.len(), 16);
            let back = f64_from_hex(&hex).expect("valid hex");
            assert_eq!(back.to_bits(), v.to_bits(), "roundtrip for {v}: {hex}");
        }
    }

    #[test]
    fn malformed_hex_is_rejected() {
        for junk in ["", "xyz", "12 34", "g000000000000000"] {
            assert!(f64_from_hex(junk).is_none(), "accepted junk {junk:?}");
        }
        // Short-but-valid hex still parses (leading zeros implied).
        assert_eq!(f64_from_hex("0").map(f64::to_bits), Some(0));
    }

    #[test]
    fn journal_lines_roundtrip_bit_exactly() {
        for v in [
            0.25f64,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0e-308,
            std::f64::consts::PI,
        ] {
            let entry = JournalEntry {
                fp: cell_fingerprint("cell \"x\"\n", "cfg"),
                key: "cell \"x\"\n".into(),
                ok: true,
                attempts: 2,
                bits: vec![v.to_bits()],
                reason: String::new(),
            };
            let line = encode_line(&entry, &[v]);
            let parsed = parse_journal_line(&line).expect("line parses");
            assert_eq!(parsed, entry, "roundtrip for {v}: {line}");
            assert_eq!(f64::from_bits(parsed.bits[0]).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn failure_lines_roundtrip() {
        let entry = JournalEntry {
            fp: 7,
            key: "k".into(),
            ok: false,
            attempts: 3,
            bits: vec![],
            reason: "rvi did not converge\n(residual 1e-3)".into(),
        };
        let parsed = parse_journal_line(&encode_line(&entry, &[])).unwrap();
        assert_eq!(parsed, entry);
    }

    #[test]
    fn non_ascii_keys_and_reasons_roundtrip() {
        // Multi-byte UTF-8 must survive the byte-level parser unmangled
        // ("ü" must not come back as "Ã¼") for both raw UTF-8 and \u
        // escapes.
        let entry = JournalEntry {
            fp: 9,
            key: "τ=0.5 β=½ 日本語".into(),
            ok: false,
            attempts: 1,
            bits: vec![],
            reason: "solver blew up at τ→∞".into(),
        };
        let parsed = parse_journal_line(&encode_line(&entry, &[])).unwrap();
        assert_eq!(parsed, entry);
        let escaped = "{\"fp\":\"0000000000000009\",\"key\":\"\\u03c4\",\
                       \"status\":\"fail\",\"attempts\":1,\"reason\":\"r\"}";
        assert_eq!(parse_journal_line(escaped).unwrap().key, "τ");
    }

    #[test]
    fn corrupt_lines_are_rejected_not_fatal() {
        for junk in [
            "",
            "not json",
            "{\"fp\":\"xyz\",\"key\":\"k\",\"status\":\"ok\",\"attempts\":1}",
            "{\"key\":\"missing fp\",\"status\":\"ok\",\"attempts\":1}",
            "{\"fp\":\"01\",\"key\":\"k\",\"status\":\"weird\",\"attempts\":1}",
            "{\"fp\":\"01\",\"key\":\"k\",\"status\":\"ok\",\"attempts\":1,\"bits\":[\"03",
        ] {
            assert!(parse_journal_line(junk).is_none(), "accepted junk: {junk:?}");
        }
    }

    // The chaos controller is process-global and JournalWriter draws from
    // the `journal.append` fault site on every append; tests that write
    // journals while a plan may be installed must not interleave.
    fn writer_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn line(fp: u64, key: &str, ok: bool, v: f64) -> String {
        let entry = JournalEntry {
            fp,
            key: key.into(),
            ok,
            attempts: 1,
            bits: if ok { vec![v.to_bits()] } else { vec![] },
            reason: if ok { String::new() } else { "boom".into() },
        };
        let vals = if ok { vec![v] } else { vec![] };
        encode_line(&entry, &vals)
    }

    #[test]
    fn compact_keeps_last_line_per_fingerprint_byte_for_byte() {
        let path = tmp_path("compact");
        let contents = [
            line(1, "a", false, 0.0),
            line(2, "b", true, 2.5),
            "{\"torn".to_string(),
            line(1, "a", true, 1.5), // supersedes the failure above
        ]
        .join("\n")
            + "\n";
        std::fs::write(&path, &contents).unwrap();
        let outcome = compact_journal(&path, &path).unwrap();
        assert_eq!(outcome, CompactOutcome { lines_in: 4, kept: 2, superseded: 1, unparseable: 1 });
        let compacted = std::fs::read_to_string(&path).unwrap();
        // Kept lines are byte-identical to the originals, in input order.
        assert_eq!(
            compacted,
            format!("{}\n{}\n", line(2, "b", true, 2.5), line(1, "a", true, 1.5))
        );
        // A compacted journal loads to the same map as the original.
        let loaded = load_journal(&path);
        assert_eq!(loaded.len(), 2);
        assert!(loaded[&1].ok);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_is_idempotent() {
        let path = tmp_path("idem");
        std::fs::write(
            &path,
            format!("{}\n{}\n", line(1, "a", true, 1.0), line(1, "a", true, 2.0)),
        )
        .unwrap();
        compact_journal(&path, &path).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        let again = compact_journal(&path, &path).unwrap();
        assert_eq!(again, CompactOutcome { lines_in: 1, kept: 1, superseded: 0, unparseable: 0 });
        assert_eq!(std::fs::read_to_string(&path).unwrap(), first);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_count_live_entries_and_stale_keys() {
        let path = tmp_path("stats");
        let contents = [
            line(1, "a", false, 0.0),
            line(1, "a", true, 1.5),  // supersedes; key "a" now ok
            line(2, "b", false, 0.0), // live failure
            line(3, "b", true, 2.0),  // same key, different fp = stale config
            "junk".to_string(),
        ]
        .join("\n");
        std::fs::write(&path, contents).unwrap();
        let stats = journal_stats(&path).unwrap();
        assert_eq!(stats.lines, 5);
        assert_eq!(stats.unparseable, 1);
        assert_eq!(stats.superseded, 1);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.ok, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.distinct_keys, 2);
        assert_eq!(stats.stale_keys, 1);
        assert_eq!(stats.reasons, vec![("boom".to_string(), 1)]);
        let text = stats.render_text();
        assert!(text.contains("entries        3"), "{text}");
        assert!(text.contains("failure x1: boom"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recover_missing_file_is_an_empty_journal() {
        let rec = recover_journal(&tmp_path("recover_missing")).unwrap();
        assert!(rec.entries.is_empty());
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn recover_truncates_tail_torn_mid_multibyte_utf8_key() {
        let path = tmp_path("recover_utf8");
        let keep = line(1, "a", true, 1.5);
        let torn = line(2, "日本語のセル", true, 2.5);
        // Cut the second line mid multi-byte sequence: one byte past the
        // first non-ASCII byte, well before its newline.
        let cut = torn.bytes().position(|b| b >= 0x80).unwrap() + 1;
        let mut bytes = format!("{keep}\n").into_bytes();
        bytes.extend_from_slice(&torn.as_bytes()[..cut]);
        assert!(std::str::from_utf8(&bytes).is_err(), "tail must be invalid UTF-8");
        std::fs::write(&path, &bytes).unwrap();

        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.truncated_bytes, cut as u64);
        assert_eq!(rec.entries.len(), 1, "exactly the torn cell degrades to re-solve");
        assert!(rec.entries.contains_key(&1), "earlier entry intact");
        // The file itself was repaired: the torn tail is gone, so a
        // re-appended line lands at exactly the right offset.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{keep}\n"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recover_tolerates_crlf_line_endings() {
        let path = tmp_path("recover_crlf");
        let a = line(1, "a", true, 1.0);
        let b = line(2, "b", true, 2.0);
        let torn = line(3, "c", true, 3.0);
        let mut bytes = format!("{a}\r\n{b}\r\n").into_bytes();
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.entries.len(), 2, "CRLF-terminated entries both load");
        assert!(rec.entries.contains_key(&1) && rec.entries.contains_key(&2));
        assert!(!rec.entries.contains_key(&3), "only the torn cell re-solves");
        assert_eq!(rec.truncated_bytes, (torn.len() / 2) as u64);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recover_truncates_final_line_missing_its_newline() {
        let _g = writer_lock();
        let path = tmp_path("recover_nonewline");
        let a = line(1, "a", true, 1.0);
        let b = line(2, "b", true, 2.0);
        // The final line is complete and parseable but unterminated — a
        // kill between write and newline-write, or a lost final block.
        // Appending after it would corrupt both lines, so recovery must
        // truncate it and let exactly that cell re-solve.
        std::fs::write(&path, format!("{a}\n{b}")).unwrap();
        let rec = recover_journal(&path).unwrap();
        assert_eq!(rec.truncated_bytes, b.len() as u64);
        assert!(rec.entries.contains_key(&1) && !rec.entries.contains_key(&2));

        // Re-appending the re-solved cell restores byte-identity with an
        // uninterrupted run.
        let mut w = JournalWriter::append_to(&path, Durability::Always).unwrap();
        w.append_line(&b).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{a}\n{b}\n"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_durability_levels_append_identically() {
        let _g = writer_lock();
        for durability in [Durability::None, Durability::Batch, Durability::Always] {
            let path = tmp_path("writer_durability");
            let mut w = JournalWriter::append_to(&path, durability).unwrap();
            for i in 0..(JournalWriter::BATCH_SYNC_EVERY + 2) {
                w.append_line(&line(i, &format!("k{i}"), true, i as f64)).unwrap();
            }
            w.sync().unwrap();
            drop(w);
            let loaded = load_journal(&path);
            assert_eq!(loaded.len(), JournalWriter::BATCH_SYNC_EVERY as usize + 2);
            let _ = std::fs::remove_file(&path);
        }
        assert_eq!(Durability::parse("always"), Some(Durability::Always));
        assert_eq!(Durability::parse("batch"), Some(Durability::Batch));
        assert_eq!(Durability::parse("none"), Some(Durability::None));
        assert_eq!(Durability::parse("fsync"), None);
    }

    #[test]
    fn writer_short_write_fault_repairs_the_tail_and_retries_cleanly() {
        let _g = writer_lock();
        let path = tmp_path("writer_torn");
        let a = line(1, "a", true, 1.0);
        let b = line(2, "b", true, 2.0);
        bvc_chaos::install(
            bvc_chaos::FaultPlan::parse("seed=3,torn_write_at=journal.append:2").unwrap(),
        );
        let mut w = JournalWriter::append_to(&path, Durability::Batch).unwrap();
        w.append_line(&a).unwrap();
        let err = w.append_line(&b).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        // The torn prefix was rolled back: no torn middle in the file.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{a}\n"));
        // A retry of the same line lands byte-identically to an
        // uninterrupted run.
        w.append_line(&b).unwrap();
        bvc_chaos::reset();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{a}\n{b}\n"));
        let _ = std::fs::remove_file(&path);
    }
}
