//! Spans recorded around the benchmark's calls into each layer.
//!
//! Spans live in memory for the whole run and are written out once, at
//! the end, so recording one costs two clock reads and a push.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// A span id: its index in [`Tracer::spans`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary crossed, e.g. `core.build`.
    pub name: &'static str,
    /// The op (one solver cell solve or one request) the span belongs to.
    pub op: u64,
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a span measured elsewhere (e.g. on a client thread).
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it its
    /// children cover. Children of one span are recorded one after the
    /// other, never overlapping, so the covered part is their sum.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Writes every span as CSV: `id,op,parent,name,start_ns,end_ns`, with
    /// `-1` for a root's parent.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,op,parent,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(out, "{id},{},{parent},{},{},{}", s.op, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.push(Span { name: "op", op: 0, parent: None, start_ns: 0, end_ns: 100 });
        t.push(Span { name: "a", op: 0, parent: Some(root), start_ns: 10, end_ns: 40 });
        t.push(Span { name: "b", op: 0, parent: Some(root), start_ns: 40, end_ns: 90 });
        assert_eq!(t.self_ns(), vec![20, 30, 50]);
        let live = t.enter("c", 1, None);
        t.exit(live);
        assert!(t.spans()[live].end_ns >= t.spans()[live].start_ns);
    }
}
