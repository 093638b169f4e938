//! Shared socket plumbing: read-deadline handling and length-prefixed
//! framing over [`TcpStream`].
//!
//! Two protocols sit on top of this module: `bvc-serve`'s HTTP/1.1
//! substrate uses the deadline setup and chunked-read translation, and the
//! `bvc-cluster` coordinator/worker protocol additionally uses the framed
//! codec ([`FrameSender`]/[`FrameReader`]) — 4-byte big-endian length
//! prefix followed by a UTF-8 JSON payload. Extracting the pieces
//! here keeps the two wire layers byte-level-compatible in how they treat
//! EOF, deadlines, and oversized input instead of drifting apart as
//! copy-pastes.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

/// Why reading from a connection failed. Shared between the HTTP request
/// reader and the cluster frame reader so both layers classify transport
/// conditions identically.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF on a record boundary: the peer closed an idle connection.
    /// Not an error.
    Closed,
    /// The read deadline fired. Callers distinguish an idle timeout from a
    /// torn record by whether buffered bytes were pending.
    TimedOut,
    /// The incoming record exceeds a configured limit; the literal names
    /// the offending part (`"header"`, `"body"`, `"frame"`).
    TooLarge(&'static str),
    /// A syntactically invalid record (including EOF mid-record).
    Malformed(String),
    /// Transport-level failure; the connection is dropped without a
    /// response, so the error kind is not carried.
    Io,
}

/// Applies the symmetric read/write deadline and disables Nagle batching —
/// the standard setup for every request/response socket in this workspace.
pub fn apply_deadlines(stream: &TcpStream, timeout: Duration) -> io::Result<()> {
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let _ = stream.set_nodelay(true);
    Ok(())
}

/// Reads one chunk off `stream` into `buf`, translating EOF and deadline
/// error kinds: clean EOF is [`ReadError::Closed`] on a record boundary
/// (`mid_record == false`) and [`ReadError::Malformed`] inside one;
/// `WouldBlock`/`TimedOut` become [`ReadError::TimedOut`]; `Interrupted`
/// retries silently.
pub fn read_chunk<S: Read + ?Sized>(
    stream: &mut S,
    buf: &mut Vec<u8>,
    mid_record: bool,
) -> Result<(), ReadError> {
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(0) => Err(if mid_record {
            ReadError::Malformed("unexpected eof mid-record".into())
        } else {
            ReadError::Closed
        }),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(())
        }
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            Err(ReadError::TimedOut)
        }
        Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
        Err(_) => Err(ReadError::Io),
    }
}

/// The byte transport under the framed codec. [`TcpStream`] (and anything
/// else `Read + Write`, e.g. a chaos-wrapped stream injecting seeded
/// faults) implements it via the blanket impl; the framing layer is
/// deliberately oblivious to what carries its bytes, which is the seam
/// deterministic fault injection plugs into.
pub trait ByteStream: Read + Write + Send + std::fmt::Debug {}

impl<T: Read + Write + Send + std::fmt::Debug> ByteStream for T {}

/// Generous frame-size ceiling for the cluster protocol. Policy payloads
/// for the larger models serialize to megabytes; anything past this is a
/// protocol violation, not a workload.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// Thread-safe sending half of a framed connection. Each [`send`] writes
/// one atomic frame (4-byte big-endian length prefix + payload) under a
/// mutex, so multiple threads (e.g. a worker's solve loop and its
/// heartbeat thread) can share one connection without interleaving bytes.
///
/// [`send`]: FrameSender::send
#[derive(Debug)]
pub struct FrameSender {
    stream: Mutex<Box<dyn ByteStream>>,
}

impl FrameSender {
    /// Wraps a stream (typically a [`TcpStream::try_clone`] of the reader's).
    pub fn new(stream: TcpStream) -> FrameSender {
        FrameSender::from_stream(Box::new(stream))
    }

    /// Wraps an arbitrary byte transport (e.g. a chaos-wrapped stream).
    pub fn from_stream(stream: Box<dyn ByteStream>) -> FrameSender {
        FrameSender { stream: Mutex::new(stream) }
    }

    /// Sends one frame containing `payload`.
    pub fn send(&self, payload: &str) -> io::Result<()> {
        let bytes = payload.as_bytes();
        let len = u32::try_from(bytes.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
        let mut frame = Vec::with_capacity(4 + bytes.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(bytes);
        // A thread panicking mid-send poisons the lock but not the socket;
        // recover the guard (the connection may already be torn, which the
        // write itself will surface).
        let mut stream = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        stream.write_all(&frame)?;
        stream.flush()
    }
}

/// Receiving half of a framed connection: owns the stream's read side and
/// the carry-over buffer between frames.
#[derive(Debug)]
pub struct FrameReader {
    stream: Box<dyn ByteStream>,
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameReader {
    /// Wraps a stream with a frame-size ceiling.
    pub fn new(stream: TcpStream, max_frame: usize) -> FrameReader {
        FrameReader::from_stream(Box::new(stream), max_frame)
    }

    /// Wraps an arbitrary byte transport (e.g. a chaos-wrapped stream).
    pub fn from_stream(stream: Box<dyn ByteStream>, max_frame: usize) -> FrameReader {
        FrameReader { stream, buf: Vec::new(), max_frame }
    }

    /// Whether bytes of a partially-received frame are pending — after a
    /// [`ReadError::TimedOut`], distinguishes an idle connection (safe to
    /// keep polling) from a torn frame (the peer stalled mid-send).
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Receives the next frame's payload. Blocks up to the stream's read
    /// timeout; a clean close between frames is [`ReadError::Closed`].
    pub fn recv(&mut self) -> Result<String, ReadError> {
        loop {
            if self.buf.len() >= 4 {
                let mut len_bytes = [0u8; 4];
                len_bytes.copy_from_slice(&self.buf[..4]);
                let len = u32::from_be_bytes(len_bytes) as usize;
                if len > self.max_frame {
                    return Err(ReadError::TooLarge("frame"));
                }
                if self.buf.len() >= 4 + len {
                    let payload: Vec<u8> = self.buf.drain(..4 + len).skip(4).collect();
                    return String::from_utf8(payload)
                        .map_err(|_| ReadError::Malformed("frame is not valid UTF-8".into()));
                }
            }
            let mid_record = !self.buf.is_empty();
            read_chunk(&mut *self.stream, &mut self.buf, mid_record)?;
        }
    }
}

/// Splits a stream into a thread-safe [`FrameSender`] and a [`FrameReader`]
/// via [`TcpStream::try_clone`].
pub fn frame_pair(stream: TcpStream, max_frame: usize) -> io::Result<(FrameSender, FrameReader)> {
    let write_half = stream.try_clone()?;
    Ok((FrameSender::new(write_half), FrameReader::new(stream, max_frame)))
}

/// [`frame_pair`] over pre-wrapped transports: the caller supplies the two
/// halves (usually `try_clone`d and wrapped, e.g. in a chaos stream) so the
/// framing codec on top stays byte-identical to the unwrapped path.
pub fn frame_pair_from(
    write_half: Box<dyn ByteStream>,
    read_half: Box<dyn ByteStream>,
    max_frame: usize,
) -> (FrameSender, FrameReader) {
    (FrameSender::from_stream(write_half), FrameReader::from_stream(read_half, max_frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn frames_roundtrip_including_pipelined() {
        let (client, server) = pair();
        let (tx, _) = frame_pair(client, MAX_FRAME_BYTES).unwrap();
        let (_, mut rx) = frame_pair(server, MAX_FRAME_BYTES).unwrap();
        tx.send("{\"t\":\"hello\"}").unwrap();
        tx.send("second frame with ünïcode").unwrap();
        tx.send("").unwrap();
        assert_eq!(rx.recv().unwrap(), "{\"t\":\"hello\"}");
        assert_eq!(rx.recv().unwrap(), "second frame with ünïcode");
        assert_eq!(rx.recv().unwrap(), "");
        assert!(!rx.has_partial());
    }

    #[test]
    fn clean_close_is_closed_and_torn_frame_is_malformed() {
        let (client, server) = pair();
        let mut rx = FrameReader::new(server, MAX_FRAME_BYTES);
        drop(client);
        assert!(matches!(rx.recv(), Err(ReadError::Closed)));

        let (mut client, server) = pair();
        let mut rx = FrameReader::new(server, MAX_FRAME_BYTES);
        // Length prefix promises 100 bytes; deliver 3 and close.
        client.write_all(&100u32.to_be_bytes()).unwrap();
        client.write_all(b"abc").unwrap();
        drop(client);
        assert!(matches!(rx.recv(), Err(ReadError::Malformed(_))));
    }

    #[test]
    fn oversized_frame_is_rejected_before_buffering_it() {
        let (mut client, server) = pair();
        let mut rx = FrameReader::new(server, 16);
        client.write_all(&1_000_000u32.to_be_bytes()).unwrap();
        assert!(matches!(rx.recv(), Err(ReadError::TooLarge("frame"))));
    }

    #[test]
    fn idle_timeout_vs_partial_frame() {
        let (mut client, server) = pair();
        apply_deadlines(&server, Duration::from_millis(50)).unwrap();
        let mut rx = FrameReader::new(server, MAX_FRAME_BYTES);
        assert!(matches!(rx.recv(), Err(ReadError::TimedOut)));
        assert!(!rx.has_partial(), "idle timeout leaves no partial frame");
        client.write_all(&8u32.to_be_bytes()).unwrap();
        client.write_all(b"ab").unwrap();
        assert!(matches!(rx.recv(), Err(ReadError::TimedOut)));
        assert!(rx.has_partial(), "stalled mid-frame must be detectable");
    }
}
