//! The server front-ends: a stdin/stdout pipe server and a TCP server
//! (the poll loop of [`crate::poller`]). Both speak the JSON-lines
//! protocol and share one [`Service`] and one [`Pool`]:
//!
//! - every op but `stats`, `ping` and `shutdown` is queued to the pool,
//!   unless it is a program op the cache already answers with a short
//!   reply (at most 2 KiB of text, so not a certificate of more than a
//!   small program): that hit is answered on the calling thread;
//!   when the queue is full the request is refused immediately with an
//!   `overloaded` error instead of growing an unbounded backlog. Each
//!   queued job carries its request's cancellation token, which bounds
//!   its work.
//! - `stats` and `ping` are answered inline, bypassing the queue, so the
//!   service stays observable (and visible to peers' failure detectors)
//!   under load. `stats` ends with the pool's health (`pool.workers`,
//!   `pool.busy`).
//! - `shutdown` stops intake, drains everything already accepted, and
//!   exits. Pipelined responses may arrive out of order; correlate by
//!   `id`.
//!
//! Robustness properties of this layer:
//!
//! - **Bounded request lines.** A connection may send at most
//!   [`ServerConfig::max_line_bytes`] per line; longer lines are
//!   discarded up to the next newline and answered with a structured
//!   `protocol` error, so a hostile client cannot balloon server memory
//!   by never sending a newline.
//! - **Panic-safe replies.** Every pooled job holds a `ReplyGuard`;
//!   if the job panics before replying (a worker bug, or injected
//!   chaos), the guard's `Drop` runs during unwind and sends an
//!   `internal` error, so clients never hang on a vanished request.
//! - **Deterministic chaos.** When [`ServerConfig::chaos`] holds a
//!   [`FaultPlan`], the poll loop and the dispatch path consult it for
//!   injected connection drops, IO errors, short reads, stalls,
//!   latency, and worker panics; the durable store and the cluster's
//!   peer calls get the same `Arc`, as an `Arc<dyn Faults>`, for torn
//!   writes, skipped fsyncs and partitions. A front-end takes the plan
//!   as an `Arc<F>` and calls its hooks through `&F`, so with the
//!   default `chaos: None` the poll loop and dispatch are compiled
//!   against [`NoFaults`], whose quiet defaults inline to constant
//!   `false`s — production pays nothing, and no hook there is a `dyn`
//!   call.

use std::io::{self, BufRead, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use crate::conn::{Decoded, LineDecoder};
use crate::fault::{FaultPlan, Faults, NoFaults};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::peer::ClusterConfig;
use crate::persist::{DurableStore, PersistConfig};
use crate::pool::{Pool, SubmitError};
use crate::protocol::{ErrorKind, Op, Request, Response};
use crate::service::{Limits, Service};

/// Tunables for a server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads certifying in parallel.
    pub workers: usize,
    /// Jobs the queue holds before `overloaded` responses begin.
    pub queue_capacity: usize,
    /// Result-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Per-request work limits.
    pub limits: Limits,
    /// Longest accepted request line in bytes; longer lines get a
    /// structured `protocol` error and are discarded.
    pub max_line_bytes: usize,
    /// Deterministic fault-injection plan; `None` (the default) runs
    /// the zero-cost [`NoFaults`] hooks.
    pub chaos: Option<Arc<FaultPlan>>,
    /// Durable cache store configuration (`--cache-dir`); `None` (the
    /// default) serves memory-only.
    pub persist: Option<PersistConfig>,
    /// Most requests one connection may have in flight before the poll
    /// loop pauses reading it (backpressure, never dropped requests).
    pub pipeline_window: usize,
    /// Bytes of unwritten replies one connection may leave buffered;
    /// a reply arriving on a larger backlog disconnects it with a
    /// structured `overloaded` error. One reply of any size still
    /// reaches a reader that keeps up.
    pub write_high_water: usize,
    /// Milliseconds a connection may sit with no request in flight and
    /// no partial line before the poll loop closes it (0 disables).
    pub idle_timeout_ms: u64,
    /// Milliseconds a connection may stall mid-line before the poll
    /// loop closes it — the slowloris defense (0 disables).
    pub stall_timeout_ms: u64,
    /// Cluster topology (`--peers`); `None` (the default) serves
    /// standalone. With a topology, requests owned by other nodes are
    /// forwarded there, `peer-sync` pages the cache to peers, and a
    /// configured [`ClusterConfig::sync_from`] peer is drained before
    /// serving (warm start by journal shipping).
    pub cluster: Option<ClusterConfig>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: thread::available_parallelism().map_or(4, usize::from),
            queue_capacity: 256,
            cache_capacity: 4096,
            limits: Limits::default(),
            max_line_bytes: 1 << 20,
            chaos: None,
            persist: None,
            pipeline_window: 64,
            write_high_water: 1 << 20,
            idle_timeout_ms: 120_000,
            stall_timeout_ms: 30_000,
            cluster: None,
        }
    }
}

/// Builds the shared service, opening the durable store (and running
/// recovery) first when persistence is configured — so open errors
/// surface as the serve call's `io::Result`, not inside a spawned
/// thread. The chaos hooks are shared with the store for torn-write and
/// short-fsync injection.
fn build_service<F: Faults>(cfg: &ServerConfig, faults: &Arc<F>) -> io::Result<Service> {
    let mut service = match &cfg.persist {
        Some(pcfg) => {
            let store = DurableStore::open_with_faults(pcfg.clone(), faults.clone())?;
            Service::with_persist(cfg.cache_capacity, cfg.limits, store)
        }
        None => Service::new(cfg.cache_capacity, cfg.limits),
    };
    if let Some(cluster) = &cfg.cluster {
        service = service.with_cluster_faults(cluster.clone(), faults.clone());
        if let Some(peer) = &cluster.sync_from {
            // Warm start before serving: drain a loaded peer's cache so
            // this node never re-explores work the cluster already paid
            // for. Sync failure is not fatal — a node whose peer is
            // down serves cold rather than not at all.
            let timeout = Duration::from_millis(cluster.peer_timeout_ms.max(1));
            match crate::peer::sync_from_peer(&service, peer, timeout) {
                Ok(report) => eprintln!(
                    "secflow-server: warm-started from {peer}: {} entries in {} pages ({} rejected)",
                    report.entries_installed, report.pages, report.entries_rejected
                ),
                Err(e) => eprintln!("secflow-server: peer-sync from {peer} failed: {e}"),
            }
        }
    }
    Ok(service)
}

/// Where a pooled job's reply line goes. The stdio front-end sinks into
/// a plain channel drained by a writer thread; the poll loop sinks into
/// a channel tagged with the owning connection's token. Either way the
/// sink is infallible from the job's point of view — a vanished reader
/// just drops the line.
pub(crate) trait ReplySink: Clone + Send + 'static {
    /// Delivers one complete response line (no trailing newline).
    fn send_line(&self, line: String);
}

impl ReplySink for mpsc::Sender<String> {
    fn send_line(&self, line: String) {
        let _ = self.send(line);
    }
}

/// Guarantees a pooled job sends exactly one response. Jobs reply
/// through [`ReplyGuard::send`]; if the job panics first, `Drop` runs
/// during unwind and sends a structured `internal` error instead.
struct ReplyGuard<R: ReplySink> {
    reply: R,
    service: Arc<Service>,
    id: Option<Json>,
    sent: bool,
}

impl<R: ReplySink> ReplyGuard<R> {
    fn send(&mut self, line: String) {
        self.sent = true;
        self.reply.send_line(line);
    }
}

impl<R: ReplySink> Drop for ReplyGuard<R> {
    fn drop(&mut self) {
        if !self.sent {
            Metrics::bump(&self.service.metrics.panics);
            Metrics::bump(&self.service.metrics.errors);
            self.reply.send_line(
                Response::error(
                    self.id.as_ref(),
                    ErrorKind::Internal,
                    "worker panicked during request",
                )
                .into_line(),
            );
        }
    }
}

/// How `dispatch` handled one request line.
pub(crate) enum Dispatched {
    /// The line was a `shutdown` request with this `id`; the caller
    /// stops intake, acknowledges, and drains.
    Shutdown(Option<Json>),
    /// The reply was produced on the calling thread (stats, ping,
    /// protocol errors, overload refusals, cache hits); the caller
    /// delivers it.
    Inline(String),
    /// The request was queued to the pool; exactly one reply line will
    /// reach the sink later (the [`ReplyGuard`] guarantees it even
    /// through a worker panic).
    Queued,
}

/// Dispatches one request line. Every outcome except
/// [`Dispatched::Shutdown`] yields exactly one reply line — now for
/// inline answers, later through `reply` for queued jobs — which is
/// what lets the poll loop balance its in-flight accounting.
pub(crate) fn dispatch<R: ReplySink, F: Faults>(
    line: &str,
    service: &Arc<Service>,
    pool: &Pool,
    reply: &R,
    faults: &F,
) -> Dispatched {
    service.note_request();
    let req = match Request::parse(line) {
        Ok(req) => req,
        Err((id, message)) => {
            Metrics::bump(&service.metrics.errors);
            return Dispatched::Inline(
                Response::error(id.as_ref(), ErrorKind::Protocol, &message).into_line(),
            );
        }
    };
    match req.op {
        Op::Shutdown => Dispatched::Shutdown(req.id),
        // Stats answer inline so the service is observable while the
        // queue is saturated; pool health rides along.
        Op::Stats => Dispatched::Inline(service.execute_stats(&req, pool.health())),
        // Ping answers inline too: it is the failure detector's probe,
        // and a probe refused as `overloaded` would make a merely busy
        // node look dead to every peer at once.
        Op::Ping => Dispatched::Inline(service.execute(&req)),
        _ => {
            // Chaos decisions are drawn first (deterministically, from
            // the plan's tick counter), so a seeded plan replays the
            // same faults whether or not the cache answers.
            let inject_latency = faults.latency();
            let inject_panic = faults.worker_panic();
            // A short cache hit costs a probe and a small encode, so it
            // is answered right here, with no handoff; a long one (a
            // certificate, mostly) is rendered by a worker. A miss, or a
            // long hit, hands its key to the job, so the key is built
            // once.
            let probe = (inject_latency.is_none() && !inject_panic)
                .then(|| service.cached_reply(&req))
                .flatten();
            let miss = match probe {
                Some(Ok(line)) => return Dispatched::Inline(line),
                Some(Err(key)) => Some(key),
                None => None,
            };
            let id = req.id.clone();
            let token = service.cancel_token(&req);
            let service_job = Arc::clone(service);
            let reply_job = reply.clone();
            let job_id = req.id.clone();
            match pool.try_submit(move || {
                let mut guard = ReplyGuard {
                    reply: reply_job,
                    service: Arc::clone(&service_job),
                    id: job_id,
                    sent: false,
                };
                if let Some(pause) = inject_latency {
                    thread::sleep(pause);
                }
                if inject_panic {
                    panic!("chaos: injected worker panic");
                }
                let line = match miss {
                    Some(key) => service_job.execute_miss(&req, key, &token),
                    None => service_job.execute_with_cancel(&req, &token),
                };
                guard.send(line);
            }) {
                Ok(()) => Dispatched::Queued,
                Err(SubmitError::Full) => {
                    Metrics::bump(&service.metrics.overloaded);
                    Dispatched::Inline(
                        Response::error(
                            id.as_ref(),
                            ErrorKind::Overloaded,
                            "queue full; retry later",
                        )
                        .into_line(),
                    )
                }
                Err(SubmitError::Closed) => Dispatched::Inline(
                    Response::error(id.as_ref(), ErrorKind::Internal, "shutting down").into_line(),
                ),
            }
        }
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line (without its newline) is in the buffer.
    Line,
    /// The stream ended; any partial line is not a request.
    Eof,
    /// The line exceeded the cap; it was discarded through its newline.
    TooLong,
}

/// Reads one newline-terminated line into `line` (cleared first),
/// refusing to buffer more than `max` bytes: an over-long line is
/// discarded up to and including its newline and reported as
/// [`LineRead::TooLong`], so the stream stays in sync at a bounded
/// memory cost.
///
/// This is the blocking driver over the resumable [`LineDecoder`] — the
/// poll loop drives the same decoder directly from nonblocking reads,
/// so both front-ends share one set of cap/resync semantics.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
    max: usize,
) -> io::Result<LineRead> {
    line.clear();
    let mut decoder = LineDecoder::new(max);
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(LineRead::Eof);
        }
        // Feed at most one line's worth so bytes after the newline stay
        // in the BufRead for the next call.
        let upto = buf
            .iter()
            .position(|&b| b == b'\n')
            .map_or(buf.len(), |i| i + 1);
        decoder.feed(&buf[..upto]);
        reader.consume(upto);
        match decoder.next_event() {
            Some(Decoded::Line(bytes)) => {
                *line = bytes;
                return Ok(LineRead::Line);
            }
            Some(Decoded::TooLong) => return Ok(LineRead::TooLong),
            None => {}
        }
    }
}

pub(crate) fn oversized_line_error(max: usize) -> String {
    Response::error(
        None,
        ErrorKind::Protocol,
        &format!("request line exceeds {max} bytes"),
    )
    .into_line()
}

/// Serves the protocol over stdin/stdout until EOF or a `shutdown`
/// request; queued work is drained before returning.
pub fn serve_stdio(cfg: ServerConfig) -> io::Result<()> {
    match cfg.chaos.clone() {
        Some(plan) => serve_stdio_with(cfg, plan),
        None => serve_stdio_with(cfg, Arc::new(NoFaults)),
    }
}

fn serve_stdio_with<F: Faults>(cfg: ServerConfig, faults: Arc<F>) -> io::Result<()> {
    let service = Arc::new(build_service(&cfg, &faults)?);
    let pool = Pool::new(cfg.workers, cfg.queue_capacity);
    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    let writer = thread::spawn(move || {
        let stdout = io::stdout();
        let mut out = stdout.lock();
        for line in reply_rx {
            if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                break;
            }
        }
    });

    let stdin = io::stdin();
    let mut reader = stdin.lock();
    let mut line = Vec::new();
    let mut shutdown = None;
    loop {
        match read_bounded_line(&mut reader, &mut line, cfg.max_line_bytes)? {
            LineRead::Eof => break,
            LineRead::TooLong => {
                Metrics::bump(&service.metrics.errors);
                let _ = reply_tx.send(oversized_line_error(cfg.max_line_bytes));
            }
            LineRead::Line => {
                let text = String::from_utf8_lossy(&line);
                let trimmed = text.trim();
                if trimmed.is_empty() {
                    continue;
                }
                match dispatch(trimmed, &service, &pool, &reply_tx, &*faults) {
                    Dispatched::Shutdown(id) => {
                        shutdown = Some(id);
                        break;
                    }
                    Dispatched::Inline(reply) => {
                        let _ = reply_tx.send(reply);
                    }
                    Dispatched::Queued => {}
                }
            }
        }
    }

    // Drain all accepted work, then acknowledge the shutdown.
    pool.shutdown();
    if let Some(id) = shutdown {
        let _ = reply_tx.send(
            Response::ok(id.as_ref(), Op::Shutdown)
                .field("drained", Json::Bool(true))
                .into_line(),
        );
    }
    drop(reply_tx);
    let _ = writer.join();
    Ok(())
}

/// A running TCP server.
pub struct TcpServer {
    addr: SocketAddr,
    handle: thread::JoinHandle<()>,
}

impl TcpServer {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server shuts down (via a `shutdown` request)
    /// and all accepted work has drained.
    pub fn join(self) -> thread::Result<()> {
        self.handle.join()
    }
}

/// Binds an OS-assigned ephemeral loopback port and returns the
/// listener. The shared race-free port helper for every test (and
/// harness) that boots servers: the kernel hands out a free port and
/// the listener *holds* it, so two tests running under
/// `--test-threads 4` — or the three nodes of a cluster — can never
/// collide the way "pick a number, bind later" schemes do. Pass the
/// listener to [`serve_listener`] (or read its `local_addr()` first to
/// build a topology, then serve).
pub fn bind_ephemeral() -> io::Result<TcpListener> {
    TcpListener::bind("127.0.0.1:0")
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and serves
/// connections until a `shutdown` request arrives.
pub fn serve_tcp(addr: &str, cfg: ServerConfig) -> io::Result<TcpServer> {
    serve_listener(TcpListener::bind(addr)?, cfg)
}

/// Serves connections on an already-bound listener until a `shutdown`
/// request arrives. This is what lets a cluster harness bind every
/// node's port first (see [`bind_ephemeral`]), build the member list
/// from the known addresses, and only then start the servers.
pub fn serve_listener(listener: TcpListener, cfg: ServerConfig) -> io::Result<TcpServer> {
    match cfg.chaos.clone() {
        Some(plan) => serve_listener_with(listener, cfg, plan),
        None => serve_listener_with(listener, cfg, Arc::new(NoFaults)),
    }
}

/// How often the failure-detector beat runs on a clustered node: it
/// paces the probes, so a healed peer is readmitted within one tick.
const HEALTH_TICK: Duration = Duration::from_millis(250);

/// Spawns the detached failure-detector thread: every tick it probes
/// every peer that is not UP and asks each replica readmitted from
/// DOWN to `repair` from this node. The thread holds only a [`Weak`] on
/// the service, so it exits on its own once the front-end drops the
/// last strong reference at shutdown — no flag to thread through.
fn spawn_health_loop(service: &Arc<Service>) {
    let weak = Arc::downgrade(service);
    let _ = thread::Builder::new()
        .name("secflow-health".to_string())
        .spawn(move || loop {
            thread::sleep(HEALTH_TICK);
            match weak.upgrade() {
                Some(service) => service.health_tick(),
                None => break,
            }
        });
}

fn serve_listener_with<F: Faults>(
    listener: TcpListener,
    cfg: ServerConfig,
    faults: Arc<F>,
) -> io::Result<TcpServer> {
    let local = listener.local_addr()?;
    // Open the store (recovery included) before spawning, so a bad
    // cache dir fails the bind call instead of a detached thread.
    let service = Arc::new(build_service(&cfg, &faults)?);
    if cfg.cluster.is_some() {
        spawn_health_loop(&service);
    }
    let handle = thread::Builder::new()
        .name("secflow-poll".to_string())
        .spawn(move || crate::poller::run(listener, cfg, service, faults))
        .expect("spawn poll thread");
    Ok(TcpServer {
        addr: local,
        handle,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::INLINE_HIT_MAX_TEXT;

    #[test]
    fn bounded_reader_accepts_lines_within_the_cap() {
        let data = b"hello\nworld\r\n";
        let mut reader = io::Cursor::new(&data[..]);
        let mut line = Vec::new();
        assert!(matches!(
            read_bounded_line(&mut reader, &mut line, 16).unwrap(),
            LineRead::Line
        ));
        assert_eq!(line, b"hello");
        assert!(matches!(
            read_bounded_line(&mut reader, &mut line, 16).unwrap(),
            LineRead::Line
        ));
        assert_eq!(line, b"world", "CR is stripped");
        assert!(matches!(
            read_bounded_line(&mut reader, &mut line, 16).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn bounded_reader_discards_oversized_lines_and_resyncs() {
        let mut data = vec![b'x'; 100];
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        // A tiny BufReader capacity forces the multi-chunk discard path.
        let mut reader = io::BufReader::with_capacity(8, io::Cursor::new(data));
        let mut line = Vec::new();
        assert!(matches!(
            read_bounded_line(&mut reader, &mut line, 32).unwrap(),
            LineRead::TooLong
        ));
        assert!(line.is_empty(), "no oversized bytes are retained");
        assert!(matches!(
            read_bounded_line(&mut reader, &mut line, 32).unwrap(),
            LineRead::Line
        ));
        assert_eq!(line, b"ok", "stream resynchronizes at the newline");
    }

    #[test]
    fn bounded_reader_rejects_exactly_over_and_accepts_exactly_at_cap() {
        let data = b"abcd\nabcde\n";
        let mut reader = io::Cursor::new(&data[..]);
        let mut line = Vec::new();
        assert!(matches!(
            read_bounded_line(&mut reader, &mut line, 4).unwrap(),
            LineRead::Line
        ));
        assert_eq!(line, b"abcd");
        assert!(matches!(
            read_bounded_line(&mut reader, &mut line, 4).unwrap(),
            LineRead::TooLong
        ));
    }

    /// A service whose cache already holds `line`'s answer.
    fn warmed(line: &str) -> Arc<Service> {
        let service = Arc::new(Service::new(16, Limits::default()));
        service.handle_line(line);
        service
    }

    fn certify_line(with_proof: bool) -> String {
        format!(
            r#"{{"id":7,"op":"certify","source":"var x, y : integer; cobegin y := x || x := 1 coend","with_proof":{with_proof}}}"#
        )
    }

    #[test]
    fn a_cached_certify_is_answered_inline() {
        let line = certify_line(false);
        let service = warmed(&line);
        let pool = Pool::new(1, 4);
        let (tx, rx) = mpsc::channel::<String>();
        let Dispatched::Inline(reply) = dispatch(&line, &service, &pool, &tx, &NoFaults) else {
            panic!("a cache hit left the calling thread");
        };
        let v = Json::parse(&reply).unwrap();
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("id"), Some(&Json::Num(7.0)));
        pool.shutdown();
        assert!(rx.try_recv().is_err(), "nothing went through the sink");
    }

    #[test]
    fn a_cached_with_proof_certify_is_answered_inline() {
        let line = certify_line(true);
        let service = warmed(&line);
        let pool = Pool::new(1, 4);
        let (tx, rx) = mpsc::channel::<String>();
        let Dispatched::Inline(reply) = dispatch(&line, &service, &pool, &tx, &NoFaults) else {
            panic!("a short with-proof cache hit left the calling thread");
        };
        let v = Json::parse(&reply).unwrap();
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));
        assert!(v.get("certificate").and_then(Json::as_str).is_some());
        pool.shutdown();
        assert!(rx.try_recv().is_err(), "nothing went through the sink");
    }

    /// A hit whose certificate makes a long reply is rendered by a
    /// worker, so the calling thread (the poll loop) never copies it.
    #[test]
    fn a_cached_with_proof_certify_is_queued() {
        let body: Vec<String> = (0..80).map(|i| format!("x := x + {i}")).collect();
        let line = format!(
            r#"{{"id":7,"op":"certify","source":"var x : integer; begin {} end","with_proof":true}}"#,
            body.join("; ")
        );
        let service = warmed(&line);
        let pool = Pool::new(1, 4);
        let (tx, rx) = mpsc::channel::<String>();
        assert!(matches!(
            dispatch(&line, &service, &pool, &tx, &NoFaults),
            Dispatched::Queued
        ));
        pool.shutdown();
        let v = Json::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));
        let cert = v.get("certificate").and_then(Json::as_str).unwrap();
        assert!(cert.len() > INLINE_HIT_MAX_TEXT, "{} B", cert.len());
    }

    #[test]
    fn an_injected_panic_outranks_a_cache_hit() {
        let line = certify_line(false);
        let service = warmed(&line);
        let mut plan = FaultPlan::new(5);
        plan.panic_per_mille = 1000;
        let pool = Pool::new(1, 4);
        let (tx, rx) = mpsc::channel::<String>();
        assert!(matches!(
            dispatch(&line, &service, &pool, &tx, &plan),
            Dispatched::Queued
        ));
        pool.shutdown();
        let v = Json::parse(&rx.recv().unwrap()).unwrap();
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("internal"),
            "{v}"
        );
    }

    #[test]
    fn stats_line_carries_pool_health() {
        let line = r#"{"id":3,"op":"stats"}"#;
        let service = Arc::new(Service::new(16, Limits::default()));
        let pool = Pool::new(4, 4);
        let (tx, _rx) = mpsc::channel::<String>();
        let Dispatched::Inline(reply) = dispatch(line, &service, &pool, &tx, &NoFaults) else {
            panic!("stats left the calling thread");
        };
        pool.shutdown();
        // The same reply as a service without a pool gives (with the
        // same history), plus a last `pool` object with exactly these
        // keys.
        let plain = Service::new(16, Limits::default()).handle_line(line);
        let pool_json = r#","pool":{"workers":4,"busy":0}}"#;
        assert_eq!(reply, format!("{}{pool_json}", &plain[..plain.len() - 1]));
    }
}
