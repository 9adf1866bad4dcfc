//! Per-connection machinery for the poll-loop front-end: a resumable
//! incremental line decoder and the connection state machine it feeds.
//!
//! The decoder is the nonblocking twin of the blocking bounded reader
//! in [`crate::serve`]: bytes arrive in arbitrary fragments (down to
//! one byte at a time under short-read chaos), and the decoder carries
//! its partial-line state across calls instead of looping until a
//! newline shows up. It enforces the same memory bound — a line longer
//! than `max` bytes is discarded up to and including its newline and
//! reported as [`Decoded::TooLong`], so the stream stays in sync at a
//! bounded cost and a hostile client cannot balloon server memory by
//! never sending a newline.
//!
//! A [`Conn`] owns one client socket's full lifecycle state: the
//! decoder, the outgoing write buffer (with a high-water mark that
//! converts an unboundedly slow reader into a structured `overloaded`
//! disconnect), the in-flight request window that applies backpressure
//! by pausing reads, and the activity clock the idle/stall timeouts
//! run on.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::time::Instant;

use crate::protocol::{ErrorKind, Response};

/// One event produced by the [`LineDecoder`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Decoded {
    /// A complete line (newline stripped; a trailing CR is stripped
    /// too).
    Line(Vec<u8>),
    /// A line exceeded the cap and was discarded through its newline;
    /// the stream is resynchronized.
    TooLong,
}

/// A resumable, bounded, newline-framed decoder. Feed it whatever
/// fragments the socket delivers; pop complete lines as they form.
#[derive(Debug)]
pub struct LineDecoder {
    max: usize,
    line: Vec<u8>,
    discarding: bool,
    ready: VecDeque<Decoded>,
}

impl LineDecoder {
    /// A decoder accepting at most `max` bytes per line.
    pub fn new(max: usize) -> LineDecoder {
        LineDecoder {
            max,
            line: Vec::new(),
            discarding: false,
            ready: VecDeque::new(),
        }
    }

    /// Consumes a fragment of input, queueing any completed events.
    pub fn feed(&mut self, input: &[u8]) {
        let mut rest = input;
        while !rest.is_empty() {
            match rest.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    if self.discarding || self.line.len() + i > self.max {
                        self.line.clear();
                        self.discarding = false;
                        self.ready.push_back(Decoded::TooLong);
                    } else {
                        let mut line = std::mem::take(&mut self.line);
                        line.extend_from_slice(&rest[..i]);
                        if line.last() == Some(&b'\r') {
                            line.pop();
                        }
                        self.ready.push_back(Decoded::Line(line));
                    }
                    rest = &rest[i + 1..];
                }
                None => {
                    if !self.discarding {
                        if self.line.len() + rest.len() > self.max {
                            // Over the cap with no newline yet: stop
                            // buffering, start discarding.
                            self.discarding = true;
                            self.line.clear();
                        } else {
                            self.line.extend_from_slice(rest);
                        }
                    }
                    rest = &[];
                }
            }
        }
    }

    /// Pops the next completed event, if any.
    pub fn next_event(&mut self) -> Option<Decoded> {
        self.ready.pop_front()
    }

    /// Whether a partial line is pending — bytes arrived (or are being
    /// discarded) with no newline yet. This is what the read-stall
    /// timeout watches: a client frozen mid-line is a slowloris, a
    /// client idle between lines is merely quiet.
    pub fn mid_line(&self) -> bool {
        !self.line.is_empty() || self.discarding
    }

    /// Bytes of partial line currently buffered.
    pub fn buffered(&self) -> usize {
        self.line.len()
    }
}

/// A slab slot address plus a generation counter. Replies from pooled
/// jobs carry their token back to the poll loop; the generation guards
/// against slot reuse, so a reply for a dead connection can never be
/// written to whoever inherited its slot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConnToken {
    /// Index into the poller's slab.
    pub slot: usize,
    /// Generation the slot held when the request was read.
    pub gen: u64,
}

/// Per-connection state machine driven by the poll loop.
#[derive(Debug)]
pub struct Conn<S> {
    /// The nonblocking socket (or a test double).
    pub stream: S,
    /// Generation tag; see [`ConnToken`].
    pub gen: u64,
    /// Incremental request-line decoder.
    pub decoder: LineDecoder,
    /// Buffered outgoing bytes awaiting socket readiness.
    pub wbuf: VecDeque<u8>,
    /// Requests dispatched but not yet answered through the reply
    /// channel. Reads pause while this reaches the pipeline window.
    pub inflight: usize,
    /// Last moment the client made observable progress (bytes read
    /// from it, or bytes written to it).
    pub last_activity: Instant,
    /// The client half-closed its sending side (EOF seen).
    pub read_closed: bool,
    /// Close once `wbuf` drains (set by the overload disconnect).
    pub closing: bool,
    /// The last flushed byte was not a newline — the peer holds a
    /// truncated line, so anything appended after a backlog discard
    /// must be preceded by a fresh newline.
    mid_line_write: bool,
}

impl<S> Conn<S> {
    /// A fresh connection over `stream` with line cap `max_line_bytes`.
    pub fn new(stream: S, gen: u64, max_line_bytes: usize) -> Conn<S> {
        Conn {
            stream,
            gen,
            decoder: LineDecoder::new(max_line_bytes),
            wbuf: VecDeque::new(),
            inflight: 0,
            last_activity: Instant::now(),
            read_closed: false,
            closing: false,
            mid_line_write: false,
        }
    }

    /// Queues one response line (newline appended) for writing.
    pub fn enqueue_line(&mut self, line: &str) {
        self.wbuf.extend(line.as_bytes());
        self.wbuf.push_back(b'\n');
    }

    /// Converts an over-high-water backlog into a structured
    /// `overloaded` disconnect: the unread backlog is dropped (the
    /// client was not consuming it), a final error line is queued, and
    /// the connection closes once that line flushes. If a previous
    /// flush ended mid-line, a newline is emitted first so the error
    /// line cannot be glued onto a truncated reply.
    pub fn overload_disconnect(&mut self) {
        self.wbuf.clear();
        if self.mid_line_write {
            self.wbuf.push_back(b'\n');
        }
        let line = Response::error(
            None,
            ErrorKind::Overloaded,
            "write buffer high-water mark exceeded; slow reader disconnected",
        )
        .into_line();
        self.enqueue_line(&line);
        self.closing = true;
    }

    /// Whether the connection has fully served its purpose and can be
    /// reaped: the graceful-close flag is set and the goodbye flushed,
    /// or the client hung up and nothing is pending in either
    /// direction.
    pub fn finished(&self) -> bool {
        (self.closing && self.wbuf.is_empty())
            || (self.read_closed && self.inflight == 0 && self.wbuf.is_empty())
    }
}

impl<S: Write> Conn<S> {
    /// Flushes as much of `wbuf` as the socket will take right now.
    /// Returns `Ok(true)` if any bytes moved. `WouldBlock` is not an
    /// error — it just ends the attempt.
    pub fn flush_writes(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        while !self.wbuf.is_empty() {
            let (front, _) = self.wbuf.as_slices();
            match self.stream.write(front) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.mid_line_write = front[n - 1] != b'\n';
                    self.wbuf.drain(..n);
                    self.last_activity = Instant::now();
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn byte_at_a_time_delivery_reassembles_lines() {
        let mut d = LineDecoder::new(64);
        for &b in b"hello\nworld\r\n" {
            d.feed(&[b]);
        }
        assert_eq!(d.next_event(), Some(Decoded::Line(b"hello".to_vec())));
        assert_eq!(
            d.next_event(),
            Some(Decoded::Line(b"world".to_vec())),
            "CR stripped"
        );
        assert_eq!(d.next_event(), None);
        assert!(!d.mid_line());
    }

    #[test]
    fn partial_lines_survive_across_feeds() {
        let mut d = LineDecoder::new(64);
        d.feed(b"par");
        assert!(d.mid_line());
        assert_eq!(d.buffered(), 3);
        assert_eq!(d.next_event(), None, "no line until the newline lands");
        d.feed(b"tial\n");
        assert_eq!(d.next_event(), Some(Decoded::Line(b"partial".to_vec())));
        assert!(!d.mid_line());
    }

    #[test]
    fn one_fragment_can_carry_many_lines() {
        let mut d = LineDecoder::new(64);
        d.feed(b"a\nb\nc");
        assert_eq!(d.next_event(), Some(Decoded::Line(b"a".to_vec())));
        assert_eq!(d.next_event(), Some(Decoded::Line(b"b".to_vec())));
        assert_eq!(d.next_event(), None);
        assert!(d.mid_line(), "the `c` tail is a partial line");
    }

    #[test]
    fn oversized_lines_are_discarded_and_resync_byte_at_a_time() {
        let mut d = LineDecoder::new(4);
        for &b in b"abcdefgh\nok\n" {
            d.feed(&[b]);
        }
        assert_eq!(d.next_event(), Some(Decoded::TooLong));
        assert_eq!(d.next_event(), Some(Decoded::Line(b"ok".to_vec())));
        assert_eq!(d.buffered(), 0, "no oversized bytes retained");
    }

    #[test]
    fn cap_is_exact_at_the_boundary() {
        // Exactly at the cap: accepted. One byte over: rejected.
        let mut d = LineDecoder::new(4);
        d.feed(b"abcd\nabcde\n");
        assert_eq!(d.next_event(), Some(Decoded::Line(b"abcd".to_vec())));
        assert_eq!(d.next_event(), Some(Decoded::TooLong));
        assert_eq!(d.next_event(), None);
    }

    #[test]
    fn discard_state_is_resumable_across_fragments() {
        let mut d = LineDecoder::new(4);
        d.feed(b"toolong");
        assert!(d.mid_line(), "discarding still counts as mid-line");
        assert_eq!(d.buffered(), 0, "discarded bytes are not buffered");
        d.feed(b"er still\ngood\n");
        assert_eq!(d.next_event(), Some(Decoded::TooLong));
        assert_eq!(d.next_event(), Some(Decoded::Line(b"good".to_vec())));
    }

    /// A write target that accepts only `cap` bytes in total, then
    /// reports `WouldBlock` — a kernel send buffer in miniature.
    struct Throttled {
        taken: Vec<u8>,
        cap: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let room = self.cap.saturating_sub(self.taken.len());
            if room == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(room);
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn flush_handles_partial_writes_and_wouldblock() {
        let sink = Throttled {
            taken: Vec::new(),
            cap: 7,
        };
        let mut conn = Conn::new(sink, 1, 1024);
        conn.enqueue_line("0123456789");
        assert!(conn.flush_writes().unwrap());
        assert_eq!(conn.stream.taken, b"0123456");
        assert_eq!(conn.wbuf.len(), 4, "tail (incl. newline) stays buffered");
        assert!(!conn.finished());
        // The socket opens up: the rest drains.
        conn.stream.cap = 64;
        assert!(conn.flush_writes().unwrap());
        assert_eq!(conn.stream.taken, b"0123456789\n");
        assert!(conn.wbuf.is_empty());
    }

    #[test]
    fn overload_disconnect_drops_backlog_and_says_why() {
        let sink = Throttled {
            taken: Vec::new(),
            cap: 5, // the peer reads almost nothing
        };
        let mut conn = Conn::new(sink, 1, 1024);
        conn.enqueue_line(r#"{"ok":true,"op":"certify","certified":true}"#);
        conn.enqueue_line(r#"{"ok":true,"op":"certify","certified":true}"#);
        conn.flush_writes().unwrap();
        assert!(conn.wbuf.len() > 32, "backlog built up");

        conn.overload_disconnect();
        assert!(conn.closing);
        // The peer saw a truncated line; the goodbye is newline-led so
        // it still parses line-by-line.
        conn.stream.cap = usize::MAX;
        conn.flush_writes().unwrap();
        assert!(conn.finished());
        let written = String::from_utf8(conn.stream.taken).unwrap();
        let goodbye = written.lines().last().expect("a final line made it out");
        let v = Json::parse(goodbye).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("overloaded"),
        );
    }

    #[test]
    fn finished_covers_both_shutdown_shapes() {
        let mut conn = Conn::new(Vec::<u8>::new(), 1, 64);
        assert!(!conn.finished());
        conn.read_closed = true;
        assert!(conn.finished(), "EOF with nothing pending is done");
        conn.inflight = 1;
        assert!(!conn.finished(), "in-flight work keeps the conn alive");
    }
}
