//! The TCP front-end: one readiness-driven poll loop, zero
//! per-connection threads.
//!
//! Every socket (the listener included) runs nonblocking; a single loop
//! owns accept, read, decode, dispatch, and write for a slab of
//! [`Conn`] state machines, while CPU work still runs on the supervised
//! worker [`Pool`]. Ten thousand idle or slow connections therefore
//! cost buffers, not threads — the paper's certification service is
//! supposed to sit in front of *every* program admitted to a shared
//! system, so the front door must not fall over when the whole system
//! shows up at once.
//!
//! std-only readiness: with no `epoll` binding available, the loop
//! drives every socket each tick and parks briefly (on the reply
//! channel, so a finishing job wakes it instantly) only when a full
//! tick made no progress. That trades a sub-millisecond of idle latency
//! for zero dependencies.
//!
//! Robustness properties:
//!
//! - **Pipelining with bounded windows.** A connection may have up to
//!   [`ServerConfig::pipeline_window`] requests in flight; replies are
//!   written as they complete (out of order — correlate by `id`).
//!   Beyond the window the loop simply stops reading that socket, so
//!   backpressure propagates by TCP instead of by dropping requests.
//! - **Slowloris defense.** A client frozen mid-line past the stall
//!   timeout (or idle past the idle timeout with nothing pending) is
//!   closed and counted in `conn.stalled_closed`. A stalled client can
//!   never block progress on other connections: it owns no thread.
//! - **Slow-reader disconnects.** Once a connection leaves more than
//!   [`ServerConfig::write_high_water`] bytes of replies unread, the
//!   next reply drops that backlog, and the client is sent a structured
//!   `overloaded` error and disconnected (`conn.rejected_overloaded`).
//!   A client that keeps up receives a reply of any size.
//! - **Descriptor exhaustion.** `EMFILE`/`ENFILE` from `accept` backs
//!   the accept loop off briefly instead of killing the server.
//! - **Drain on shutdown.** A `shutdown` request is acked immediately
//!   (`draining:true`), intake stops, and the loop keeps flushing until
//!   every dispatched request has been answered and written (or its
//!   connection died), then the pool drains and the listener closes.

use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::conn::{Conn, ConnToken, Decoded};
use crate::fault::Faults;
use crate::json::Json;
use crate::metrics::Metrics;
use crate::pool::Pool;
use crate::protocol::{Op, Request, Response};
use crate::serve::{dispatch, oversized_line_error, Dispatched, ReplySink, ServerConfig};
use crate::service::Service;

/// How long the loop parks when a full tick made no progress. Parked
/// time is spent blocking on the reply channel, so a completing job
/// wakes the loop immediately; this only bounds how often quiet sockets
/// are re-polled.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// Short park used while the loop is "hot": a request byte cannot wake
/// the reply channel, so for a moment after any progress the loop
/// re-polls sockets at microsecond granularity to catch the lockstep
/// client's next request. Keeps single-client round trips in the tens
/// of microseconds instead of an [`IDLE_PARK`] each.
const HOT_PARK: Duration = Duration::from_micros(50);

/// How long after the last progress the loop keeps using [`HOT_PARK`].
const HOT_WINDOW: Duration = Duration::from_millis(2);

/// Backoff applied to the accept loop after `EMFILE`/`ENFILE`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// How long the shutdown drain keeps trying to flush written replies
/// to connections that have stopped reading before giving up on them.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// A reply sink that routes a pooled job's response line back to the
/// poll loop, tagged with the connection it belongs to.
pub(crate) struct TokenSink {
    token: ConnToken,
    tx: mpsc::Sender<(ConnToken, String)>,
}

impl Clone for TokenSink {
    fn clone(&self) -> TokenSink {
        TokenSink {
            token: self.token,
            tx: self.tx.clone(),
        }
    }
}

impl ReplySink for TokenSink {
    fn send_line(&self, line: String) {
        let _ = self.tx.send((self.token, line));
    }
}

/// The poll loop's whole mutable world.
struct Loop<'a, F: Faults + Clone> {
    cfg: &'a ServerConfig,
    service: &'a Arc<Service>,
    pool: &'a Pool,
    faults: &'a F,
    reply_tx: mpsc::Sender<(ConnToken, String)>,
    slots: Vec<Option<Conn<TcpStream>>>,
    free: Vec<usize>,
    next_gen: u64,
    /// Replies dispatched into the sink but not yet received back.
    expected: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
    accept_backoff_until: Option<Instant>,
    stall_timeout: Option<Duration>,
    idle_timeout: Option<Duration>,
}

/// Runs the poll-loop front-end until a `shutdown` request drains it.
pub(crate) fn run<F: Faults + Clone>(
    listener: TcpListener,
    cfg: ServerConfig,
    service: Arc<Service>,
    faults: F,
) {
    let pool = Pool::new(cfg.workers, cfg.queue_capacity);
    let (reply_tx, reply_rx) = mpsc::channel::<(ConnToken, String)>();
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let timeout = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let mut lp = Loop {
        cfg: &cfg,
        service: &service,
        pool: &pool,
        faults: &faults,
        reply_tx,
        slots: Vec::new(),
        free: Vec::new(),
        next_gen: 1,
        expected: 0,
        draining: false,
        drain_deadline: None,
        accept_backoff_until: None,
        stall_timeout: timeout(cfg.stall_timeout_ms),
        idle_timeout: timeout(cfg.idle_timeout_ms),
    };

    let mut hot_until = Instant::now();
    loop {
        let mut progress = false;
        progress |= lp.accept_burst(&listener);
        while let Ok((token, line)) = reply_rx.try_recv() {
            progress = true;
            lp.deliver(token, line);
        }
        progress |= lp.service_conns();
        if lp.drained() {
            break;
        }
        if progress {
            hot_until = Instant::now() + HOT_WINDOW;
        } else {
            // Park on the reply channel: a completing job wakes us
            // immediately; otherwise re-poll the sockets after a tick
            // (a short one while recent progress suggests a client is
            // about to send its next request).
            let park = if Instant::now() < hot_until {
                HOT_PARK
            } else {
                IDLE_PARK
            };
            if let Ok((token, line)) = reply_rx.recv_timeout(park) {
                lp.deliver(token, line);
            }
        }
    }

    // Count the sockets we are abandoning (all flushed or given up on).
    let open = lp.slots.iter().flatten().count() as u64;
    service.metrics.conn_open.fetch_sub(open, Relaxed);
    drop(lp);
    drop(listener);
    pool.shutdown();
}

impl<F: Faults + Clone> Loop<'_, F> {
    /// Accepts every connection the listener has ready. Returns whether
    /// anything was accepted.
    fn accept_burst(&mut self, listener: &TcpListener) -> bool {
        if self.draining {
            return false;
        }
        if let Some(until) = self.accept_backoff_until {
            if Instant::now() < until {
                return false;
            }
            self.accept_backoff_until = None;
        }
        let mut progress = false;
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    // Injected connection drop: close before a single
                    // byte is exchanged; clients should retry.
                    if self.faults.drop_connection() {
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.slots.push(None);
                        self.slots.len() - 1
                    });
                    let gen = self.next_gen;
                    self.next_gen += 1;
                    self.slots[slot] = Some(Conn::new(stream, gen, self.cfg.max_line_bytes));
                    Metrics::bump(&self.service.metrics.conn_accepted_total);
                    self.service.metrics.conn_open.fetch_add(1, Relaxed);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // EMFILE (24) / ENFILE (23): the process or host is out
                // of descriptors. Existing connections keep being
                // served; accepting resumes after a short backoff
                // instead of the listener thread dying.
                Err(e) if matches!(e.raw_os_error(), Some(23) | Some(24)) => {
                    self.accept_backoff_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    break;
                }
                // Transient accept failures (aborted handshakes etc.):
                // skip this one, keep listening.
                Err(_) => break,
            }
        }
        progress
    }

    /// Routes one completed reply line to its connection's write
    /// buffer. Stale tokens (the connection died while its request ran)
    /// drop the line; the global `expected` count still goes down, so
    /// shutdown drain never waits on a ghost. The high-water mark is
    /// checked against the backlog queued *before* this line, so memory
    /// stays under the mark plus one reply.
    fn deliver(&mut self, token: ConnToken, line: String) {
        self.expected = self.expected.saturating_sub(1);
        let Some(conn) = self.slots.get_mut(token.slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.gen != token.gen || conn.closing {
            return;
        }
        conn.inflight = conn.inflight.saturating_sub(1);
        if conn.wbuf.len() > self.cfg.write_high_water {
            Metrics::bump(&self.service.metrics.conn_rejected_overloaded);
            conn.overload_disconnect();
            return;
        }
        conn.enqueue_line(&line);
    }

    /// One service pass over every live connection: flush, dispatch
    /// decoded requests, read, enforce timeouts, reap the finished.
    fn service_conns(&mut self) -> bool {
        let mut progress = false;
        for slot in 0..self.slots.len() {
            let Some(conn) = self.slots[slot].as_mut() else {
                continue;
            };
            let token = ConnToken {
                slot,
                gen: conn.gen,
            };
            let mut close = conn.finished();
            if !close {
                match conn.flush_writes() {
                    Ok(moved) => progress |= moved,
                    Err(_) => close = true,
                }
                close = close || conn.finished();
            }
            if !close {
                progress |= self.pump_requests(slot, token);
                let Some(conn) = self.slots[slot].as_mut() else {
                    continue;
                };
                close = conn.finished() || self.timed_out(slot);
            }
            if close {
                self.close(slot);
                progress = true;
            }
        }
        progress
    }

    /// Dispatches already-decoded lines, then reads more bytes while
    /// the pipeline window has room. Returns whether anything moved.
    fn pump_requests(&mut self, slot: usize, token: ConnToken) -> bool {
        let mut progress = false;
        progress |= self.dispatch_decoded(slot, token);
        let mut buf = [0u8; 8192];
        while let Some(conn) = self.slots[slot].as_mut() {
            if self.draining
                || conn.closing
                || conn.read_closed
                || conn.inflight >= self.cfg.pipeline_window
            {
                break;
            }
            // Chaos hooks at the readiness layer: injected read errors
            // end intake (in-flight replies still drain), injected
            // stalls skip this socket for a tick, short reads deliver
            // one byte — all of which the resumable decoder absorbs.
            if self.faults.read_error() {
                conn.read_closed = true;
                break;
            }
            if self.faults.stall_read() {
                break;
            }
            let dst: &mut [u8] = if self.faults.short_io() {
                &mut buf[..1]
            } else {
                &mut buf[..]
            };
            match conn.stream.read(dst) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    conn.decoder.feed(&buf[..n]);
                    progress = true;
                    self.dispatch_decoded(slot, token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read_closed = true;
                    break;
                }
            }
        }
        progress
    }

    /// Feeds decoded lines through `dispatch` until the window fills
    /// (or a shutdown begins). Returns whether any request moved.
    fn dispatch_decoded(&mut self, slot: usize, token: ConnToken) -> bool {
        let mut progress = false;
        while let Some(conn) = self.slots[slot].as_mut() {
            if self.draining || conn.closing || conn.inflight >= self.cfg.pipeline_window {
                break;
            }
            let Some(event) = conn.decoder.next_event() else {
                break;
            };
            progress = true;
            let line = match event {
                Decoded::TooLong => {
                    Metrics::bump(&self.service.metrics.errors);
                    conn.enqueue_line(&oversized_line_error(self.cfg.max_line_bytes));
                    continue;
                }
                Decoded::Line(bytes) => bytes,
            };
            let text = String::from_utf8_lossy(&line);
            let trimmed = text.trim();
            if trimmed.is_empty() {
                continue;
            }
            conn.inflight += 1;
            self.expected += 1;
            self.service
                .metrics
                .pipelined_depth_max
                .fetch_max(conn.inflight as u64, Relaxed);
            let sink = TokenSink {
                token,
                tx: self.reply_tx.clone(),
            };
            match dispatch(trimmed, self.service, self.pool, &sink, self.faults) {
                Dispatched::Shutdown => {
                    // Ack immediately (out of band of the drain), stop
                    // all intake, and let the main loop run dry.
                    conn.inflight -= 1;
                    self.expected -= 1;
                    let id = Request::parse(trimmed).ok().and_then(|r| r.id);
                    conn.enqueue_line(
                        &Response::ok(id.as_ref(), Op::Shutdown)
                            .field("draining", Json::Bool(true))
                            .into_line(),
                    );
                    self.draining = true;
                    self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
                }
                Dispatched::Inline | Dispatched::Queued => {}
            }
        }
        progress
    }

    /// The slowloris/idle policy for one connection.
    fn timed_out(&mut self, slot: usize) -> bool {
        let Some(conn) = self.slots[slot].as_mut() else {
            return false;
        };
        let quiet = conn.last_activity.elapsed();
        let stalled = self
            .stall_timeout
            .is_some_and(|t| conn.decoder.mid_line() && quiet > t);
        let idled = self.idle_timeout.is_some_and(|t| {
            !conn.decoder.mid_line() && conn.inflight == 0 && conn.wbuf.is_empty() && quiet > t
        });
        if stalled || idled {
            Metrics::bump(&self.service.metrics.conn_stalled_closed);
            return true;
        }
        false
    }

    fn close(&mut self, slot: usize) {
        if self.slots[slot].take().is_some() {
            self.service.metrics.conn_open.fetch_sub(1, Relaxed);
            self.free.push(slot);
        }
    }

    /// Shutdown drain is complete when every dispatched request has
    /// come back and every goodbye byte is flushed (or the grace period
    /// for unresponsive readers ran out).
    fn drained(&self) -> bool {
        if !self.draining {
            return false;
        }
        if self.expected > 0 {
            return self.drain_deadline.is_some_and(|d| Instant::now() >= d);
        }
        self.slots.iter().flatten().all(|c| c.wbuf.is_empty())
            || self.drain_deadline.is_some_and(|d| Instant::now() >= d)
    }
}
