//! The TCP front-end: one readiness-driven poll loop, zero
//! per-connection threads.
//!
//! Every socket (the listener included) runs nonblocking; a single loop
//! owns accept, read, decode, dispatch, and write for a slab of
//! [`Conn`] state machines, while CPU work still runs on the worker
//! [`Pool`]. Ten thousand idle or slow connections therefore
//! cost buffers, not threads — the paper's certification service is
//! supposed to sit in front of *every* program admitted to a shared
//! system, so the front door must not fall over when the whole system
//! shows up at once.
//!
//! Readiness: the loop blocks in one `ppoll(2)` over a wake socket, the
//! listener, and every connection that wants to read or write, and then
//! touches only the sockets `ppoll` reported; replies queued during a
//! pass are written at its end. A pooled job writes one byte to the
//! wake socket after sending its reply down the channel, so a finishing
//! job wakes the loop as promptly as an arriving request byte does. The
//! timeout is the nearest deadline the loop keeps (accept backoff,
//! drain grace, a connection's stall, idle or linger deadline), capped
//! at 50 µs for 2 ms after a socket event so that the loop's virtual
//! CPU stays warm while traffic flows; with none due the loop sleeps
//! until something happens.
//! Cache hits are answered on the loop thread itself (see
//! [`crate::serve`]), with no handoff at all. `ppoll` is the crate's one
//! foreign call (the private `sys` module), bound for Linux, so this
//! crate and every crate built on it build only on Linux.
//!
//! Robustness properties:
//!
//! - **Pipelining with bounded windows.** A connection may have up to
//!   [`ServerConfig::pipeline_window`] requests in flight; replies are
//!   written as they complete (out of order — correlate by `id`).
//!   Beyond the window the loop simply stops reading that socket, so
//!   backpressure propagates by TCP instead of by dropping requests.
//!   One pass dispatches at most one window of lines per connection,
//!   cache hits included, so a client pipelining hits cannot hold the
//!   loop or pile up unflushed replies.
//! - **Slowloris defense.** A client frozen mid-line past the stall
//!   timeout (or idle past the idle timeout with nothing pending) is
//!   closed and counted in `conn.stalled_closed`. A stalled client can
//!   never block progress on other connections: it owns no thread.
//! - **Slow-reader disconnects.** Once a connection leaves more than
//!   [`ServerConfig::write_high_water`] bytes of replies unread, the
//!   next reply drops that backlog, and the client is sent a structured
//!   `overloaded` error and disconnected (`conn.rejected_overloaded`).
//!   After the goodbye flushes, the loop shuts its write side and
//!   discards unread requests until the client's EOF (or a 10 s
//!   grace), so the kernel never resets the connection under that last
//!   line. A client that keeps up receives a reply of any size.
//! - **Descriptor exhaustion.** `EMFILE`/`ENFILE` from `accept` backs
//!   the accept loop off briefly instead of killing the server.
//! - **Drain on shutdown.** A `shutdown` request is acked immediately
//!   (`draining:true`), intake stops, and the loop keeps flushing until
//!   every dispatched request has been answered and written (or its
//!   connection died), then the pool drains and the listener closes.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::conn::{Conn, ConnToken, Decoded};
use crate::fault::Faults;
use crate::json::Json;
use crate::metrics::Metrics;
use crate::pool::Pool;
use crate::protocol::{Op, Response};
use crate::serve::{dispatch, oversized_line_error, Dispatched, ReplySink, ServerConfig};
use crate::service::Service;

/// How long after a socket event the loop's wait stays capped at
/// [`WARM_TICK`].
const WARM_WINDOW: Duration = Duration::from_millis(2);

/// The wait cap while traffic flows. This is not a park: any event
/// still ends the wait at once. It keeps the loop's virtual CPU from
/// idling between the hops of a request: under a hypervisor, a vCPU
/// that halts for longer than the host polls for it is descheduled,
/// and on a host short of cores it then waits its turn (counted as
/// steal) each time a byte arrives. Measured in DESIGN §13.
const WARM_TICK: Duration = Duration::from_micros(50);

/// Backoff applied to the accept loop after `EMFILE`/`ENFILE`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// How long the shutdown drain keeps trying to flush written replies
/// to connections that have stopped reading before giving up on them;
/// also how long an overload-disconnected connection may take to send
/// its EOF.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

#[cfg(not(target_os = "linux"))]
compile_error!(
    "secflow-server, and so every crate and binary built on it, builds only on Linux: \
     its poll loop binds ppoll(2) for Linux"
);

/// The `ppoll(2)` binding: the crate's only foreign call.
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::ptr;
    use std::time::Duration;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    /// Linux's `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    /// Linux's `struct timespec`.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Blocks until an entry of `fds` is ready or `timeout` passes
    /// (`None` waits forever), filling in each `revents`, and returns
    /// how many entries are ready. Entries with a negative `fd` are
    /// ignored.
    pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        let spec = timeout.map(|t| Timespec {
            tv_sec: t.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: t.subsec_nanos() as c_long,
        });
        let spec_ptr = spec.as_ref().map_or(ptr::null(), |t| t as *const Timespec);
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // records laid out as the kernel's `struct pollfd`, and its
        // exact length is passed with it; `spec_ptr` is null or points
        // to `spec`, a `repr(C)` `struct timespec` that lives until the
        // call returns; a null signal mask leaves the mask alone.
        // ppoll(2) writes only the `revents` fields inside `fds` and
        // keeps no pointer to either after returning.
        let n = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                spec_ptr,
                ptr::null(),
            )
        };
        if n < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(n as usize)
    }
}

/// A reply sink that routes a pooled job's response line back to the
/// poll loop, tagged with the connection it belongs to, and then wakes
/// the loop.
#[derive(Clone)]
pub(crate) struct TokenSink {
    token: ConnToken,
    tx: mpsc::Sender<(ConnToken, String)>,
    wake: Arc<UnixStream>,
}

impl ReplySink for TokenSink {
    fn send_line(&self, line: String) {
        if self.tx.send((self.token, line)).is_ok() {
            // `WouldBlock` means unread wake bytes are already pending,
            // which wakes the loop just as well.
            let _ = (&*self.wake).write(&[1]);
        }
    }
}

/// The poll loop's whole mutable world.
struct Loop<'a, F: Faults + Clone> {
    cfg: &'a ServerConfig,
    service: &'a Arc<Service>,
    pool: &'a Pool,
    faults: &'a F,
    reply_tx: mpsc::Sender<(ConnToken, String)>,
    wake: Arc<UnixStream>,
    slots: Vec<Option<Conn<TcpStream>>>,
    free: Vec<usize>,
    next_gen: u64,
    /// Replies dispatched into the sink but not yet received back.
    expected: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
    accept_backoff_until: Option<Instant>,
    timeouts: Timeouts,
}

/// The per-connection timeouts (`None` disables one).
struct Timeouts {
    stall: Option<Duration>,
    idle: Option<Duration>,
}

impl Timeouts {
    /// When `conn` is closed if nothing happens first, and whether that
    /// close counts as a stall (`conn.stalled_closed`): the linger
    /// deadline after an overload goodbye, the stall timeout mid-line,
    /// or the idle timeout with nothing pending.
    fn deadline<S>(&self, conn: &Conn<S>) -> Option<(Instant, bool)> {
        if let Some(until) = conn.linger_until {
            return Some((until, false));
        }
        let quiet_for = |t: Duration| (conn.last_activity + t, true);
        if conn.decoder.mid_line() {
            return self.stall.map(quiet_for);
        }
        if conn.inflight == 0 && conn.wbuf.is_empty() {
            return self.idle.map(quiet_for);
        }
        None
    }
}

/// Runs the poll-loop front-end until a `shutdown` request drains it.
pub(crate) fn run<F: Faults + Clone>(
    listener: TcpListener,
    cfg: ServerConfig,
    service: Arc<Service>,
    faults: F,
) {
    let Ok((wake_rx, wake_tx)) = UnixStream::pair() else {
        return;
    };
    if [
        listener.set_nonblocking(true),
        wake_rx.set_nonblocking(true),
        wake_tx.set_nonblocking(true),
    ]
    .iter()
    .any(Result::is_err)
    {
        return;
    }
    let pool = Pool::new(cfg.workers, cfg.queue_capacity);
    let (reply_tx, reply_rx) = mpsc::channel::<(ConnToken, String)>();
    let timeout = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
    let mut lp = Loop {
        cfg: &cfg,
        service: &service,
        pool: &pool,
        faults: &faults,
        reply_tx,
        wake: Arc::new(wake_tx),
        slots: Vec::new(),
        free: Vec::new(),
        next_gen: 1,
        expected: 0,
        draining: false,
        drain_deadline: None,
        accept_backoff_until: None,
        timeouts: Timeouts {
            stall: timeout(cfg.stall_timeout_ms),
            idle: timeout(cfg.idle_timeout_ms),
        },
    };

    // Entry 0 is the wake socket, entry 1 the listener, entry 2 + i
    // the connection in slot i.
    let mut fds = Vec::new();
    let mut warm_until = Instant::now();
    loop {
        let deadline = lp.register(&mut fds, &listener, &wake_rx);
        let now = Instant::now();
        let mut wait_for = deadline.map(|d| d.saturating_duration_since(now));
        if now < warm_until {
            wait_for = Some(wait_for.map_or(WARM_TICK, |t| t.min(WARM_TICK)));
        }
        match sys::wait(&mut fds, wait_for) {
            // A signal: recompute the deadlines and wait again.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Ok(ready) if ready > 0 => warm_until = Instant::now() + WARM_WINDOW,
            // A timeout or a failed wait reports nothing ready; the
            // pass below still delivers replies and enforces deadlines.
            _ => {}
        }
        if fds[0].revents != 0 {
            // Wake bytes first, then the channel: a reply sent after
            // this drain leaves its byte behind for the next wait.
            let mut bytes = [0u8; 256];
            while matches!((&wake_rx).read(&mut bytes), Ok(n) if n > 0) {}
        }
        while let Ok((token, line)) = reply_rx.try_recv() {
            lp.deliver(token, &line);
        }
        for slot in 0..lp.slots.len() {
            lp.service_conn(slot, fds.get(2 + slot).map_or(0, |f| f.revents));
        }
        // Replies are written only once the pass has answered every
        // ready connection: a reply flushed mid-pass wakes its client,
        // which can take the loop's core before the pass ends. With 64
        // lockstep clients on 2 cores, that more than doubled the p99
        // of `serve_bench`.
        let now = Instant::now();
        for slot in 0..lp.slots.len() {
            lp.settle(slot, now);
        }
        if fds[1].revents != 0 {
            lp.accept_burst(&listener);
        }
        if lp.drained() {
            break;
        }
    }

    // Count the sockets we are abandoning (all flushed or given up on).
    let open = lp.slots.iter().flatten().count() as u64;
    service.metrics.conn_open.fetch_sub(open, Relaxed);
    drop(lp);
    drop(listener);
    pool.shutdown();
}

/// Whether `conn` may dispatch another request: its window has room and
/// neither a shutdown (`draining`) nor an overload goodbye has ended
/// intake.
fn admits<S>(conn: &Conn<S>, draining: bool, cfg: &ServerConfig) -> bool {
    !(draining || conn.closing || conn.inflight >= cfg.pipeline_window)
}

impl<F: Faults + Clone> Loop<'_, F> {
    /// Refills `fds` with what each socket is waiting for and returns
    /// the nearest deadline the loop keeps (`None`: wait for an event).
    /// A connection that wants neither to read nor to write goes in as
    /// fd -1, so a hang-up it cannot act on yet cannot spin the loop.
    fn register(
        &mut self,
        fds: &mut Vec<sys::PollFd>,
        listener: &TcpListener,
        wake: &UnixStream,
    ) -> Option<Instant> {
        let now = Instant::now();
        let mut nearest = self.drain_deadline;
        let mut soonest = |d: Instant| nearest = Some(nearest.map_or(d, |n| n.min(d)));
        if self.accept_backoff_until.is_some_and(|until| now >= until) {
            self.accept_backoff_until = None;
        }
        if let Some(until) = self.accept_backoff_until {
            soonest(until);
        }
        let entry = |fd: i32, events: i16| sys::PollFd {
            fd: if events == 0 { -1 } else { fd },
            events,
            revents: 0,
        };
        fds.clear();
        fds.push(entry(wake.as_raw_fd(), sys::POLLIN));
        let accepting = !self.draining && self.accept_backoff_until.is_none();
        fds.push(entry(
            listener.as_raw_fd(),
            if accepting { sys::POLLIN } else { 0 },
        ));
        for conn in &self.slots {
            let Some(conn) = conn else {
                fds.push(entry(-1, 0));
                continue;
            };
            let mut events = 0;
            if self.wants_read(conn) {
                events |= sys::POLLIN;
            }
            if !conn.wbuf.is_empty() {
                events |= sys::POLLOUT;
            }
            fds.push(entry(conn.stream.as_raw_fd(), events));
            if let Some((deadline, _)) = self.timeouts.deadline(conn) {
                soonest(deadline);
            }
            // Lines a spent pass budget left decoded: the next pass
            // dispatches them, and no socket event would announce it.
            if conn.decoder.has_event() && admits(conn, self.draining, self.cfg) {
                soonest(now);
            }
        }
        nearest
    }

    /// Whether `conn` is waiting for request bytes: it admits requests
    /// and has not read EOF — or it is lingering after an overload
    /// goodbye, discarding until EOF.
    fn wants_read(&self, conn: &Conn<TcpStream>) -> bool {
        conn.linger_until.is_some() || (admits(conn, self.draining, self.cfg) && !conn.read_closed)
    }

    /// Accepts every connection the listener has ready.
    fn accept_burst(&mut self, listener: &TcpListener) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
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
    }

    /// Routes one completed reply line to its connection's write
    /// buffer. Stale tokens (the connection died while its request ran)
    /// drop the line; the global `expected` count still goes down, so
    /// shutdown drain never waits on a ghost. The high-water mark is
    /// checked against the backlog queued *before* this line, so memory
    /// stays under the mark plus one reply. A backlog past the mark is
    /// first offered to the socket: it may be replies this pass queued
    /// and has not flushed yet (a window of with-proof hits outgrows the
    /// mark on its own), and only what the client leaves unread counts.
    fn deliver(&mut self, token: ConnToken, line: &str) {
        self.expected = self.expected.saturating_sub(1);
        let Some(conn) = self.slots.get_mut(token.slot).and_then(Option::as_mut) else {
            return;
        };
        if conn.gen != token.gen || conn.closing {
            return;
        }
        conn.inflight = conn.inflight.saturating_sub(1);
        if conn.wbuf.len() > self.cfg.write_high_water {
            self.flush(token.slot);
        }
        let Some(conn) = self.slots[token.slot].as_mut() else {
            return;
        };
        if conn.wbuf.len() > self.cfg.write_high_water {
            Metrics::bump(&self.service.metrics.conn_rejected_overloaded);
            conn.overload_disconnect();
        } else {
            conn.enqueue_line(line);
        }
    }

    /// Writes as much of the slot's buffer as its socket takes now;
    /// a write error closes the connection.
    fn flush(&mut self, slot: usize) {
        if let Some(conn) = self.slots[slot].as_mut() {
            if conn.flush_writes().is_err() {
                self.close(slot);
            }
        }
    }

    /// One pass over one connection: write and read if `ppoll` reported
    /// it ready, and dispatch lines decoded earlier that the window now
    /// admits.
    ///
    /// A pass dispatches at most one window of lines per connection,
    /// cache hits answered inline included. Without that bound, a client
    /// pipelining hits faster than the loop answers them would hold the
    /// pass on its socket while every other connection waits, and the
    /// replies the pass cannot flush until it ends would pile up past
    /// the high-water mark and cut off a client that reads them all.
    fn service_conn(&mut self, slot: usize, revents: i16) {
        let Some(conn) = self.slots[slot].as_ref() else {
            return;
        };
        let token = ConnToken {
            slot,
            gen: conn.gen,
        };
        let mut budget = self.cfg.pipeline_window;
        if revents & (sys::POLLOUT | sys::POLLERR | sys::POLLHUP) != 0 {
            self.flush(slot);
        }
        self.dispatch_decoded(slot, token, &mut budget);
        if revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 {
            self.read_ready(slot, token, &mut budget);
        }
    }

    /// Reads a readable connection until `WouldBlock` (or until its
    /// window fills, the pass's `budget` of lines runs out or intake
    /// ends), dispatching each line as it forms. Bytes left unread are
    /// reported again by the next `ppoll`. A lingering connection's
    /// bytes are read and discarded.
    fn read_ready(&mut self, slot: usize, token: ConnToken, budget: &mut usize) {
        let mut buf = [0u8; 8192];
        while let Some(conn) = self.slots[slot].as_mut() {
            if conn.linger_until.is_some() {
                match conn.stream.read(&mut buf) {
                    Ok(n) if n > 0 => continue,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    _ => {
                        conn.read_closed = true;
                        break;
                    }
                }
            }
            if conn.read_closed || *budget == 0 || !admits(conn, self.draining, self.cfg) {
                break;
            }
            // Chaos hooks at the readiness layer: injected read errors
            // end intake (in-flight replies still drain), injected
            // stalls leave the bytes for the next wait, short reads
            // deliver one byte — all of which the resumable decoder
            // absorbs.
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
                    self.dispatch_decoded(slot, token, budget);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.read_closed = true;
                    break;
                }
            }
        }
    }

    /// Feeds decoded lines through `dispatch` until the window fills,
    /// the pass's `budget` of lines runs out, or intake ends.
    fn dispatch_decoded(&mut self, slot: usize, token: ConnToken, budget: &mut usize) {
        while let Some(conn) = self.slots[slot].as_mut() {
            if *budget == 0 || !admits(conn, self.draining, self.cfg) {
                break;
            }
            let Some(event) = conn.decoder.next_event() else {
                break;
            };
            *budget -= 1;
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
                wake: Arc::clone(&self.wake),
            };
            match dispatch(trimmed, self.service, self.pool, &sink, self.faults) {
                Dispatched::Queued => {}
                Dispatched::Inline(reply) => self.deliver(token, &reply),
                Dispatched::Shutdown(id) => {
                    // Ack immediately (out of band of the drain), stop
                    // all intake, and let the main loop run dry.
                    conn.inflight -= 1;
                    self.expected -= 1;
                    conn.enqueue_line(
                        &Response::ok(id.as_ref(), Op::Shutdown)
                            .field("draining", Json::Bool(true))
                            .into_line(),
                    );
                    self.draining = true;
                    self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
                }
            }
        }
    }

    /// Ends a pass over one connection: writes the replies the pass
    /// queued, then applies the lifecycle rules. A connection past its
    /// deadline is closed; one that has finished is closed — unless an
    /// overload goodbye just flushed with the client still sending, in
    /// which case its write side is shut and it lingers, discarding
    /// input until EOF, so closing cannot reset it under the goodbye.
    fn settle(&mut self, slot: usize, now: Instant) {
        if self.slots[slot].as_ref().is_some_and(Conn::unflushed) {
            self.flush(slot);
        }
        let Some(conn) = self.slots[slot].as_mut() else {
            return;
        };
        if conn.finished() && !conn.read_closed && conn.closing && conn.linger_until.is_none() {
            let _ = conn.stream.shutdown(Shutdown::Write);
            conn.linger_until = Some(now + DRAIN_GRACE);
            return;
        }
        let lingering = conn.linger_until.is_some() && !conn.read_closed;
        let done = conn.finished() && !lingering;
        let expired = match self.timeouts.deadline(conn) {
            Some((deadline, stall)) if now >= deadline => {
                if stall {
                    Metrics::bump(&self.service.metrics.conn_stalled_closed);
                }
                true
            }
            _ => false,
        };
        if done || expired {
            self.close(slot);
        }
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
