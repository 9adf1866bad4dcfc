//! Request execution: parse → compute → respond, with the result
//! cache, single flight, metrics and the cluster hops wired through.
//! `certify`, `infer` and `flows` compute in [`crate::ops`], which the
//! `secflow` CLI calls too; `lint`, `explore` and `checkproof` call
//! their library entry points directly.
//!
//! A [`Service`] is shared (behind `Arc`) between every worker and
//! connection; all interior state is synchronized (the cache behind a
//! `Mutex`, metrics lock-free).

use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use secflow_analyze::AnalysisReport;
use secflow_cert::{parse_lattice_spec, validate_certificate, verdict_fields, CERT_VERSION};
use secflow_lang::span::LineIndex;
use secflow_lang::{parse, Program, Severity};
use secflow_runtime::{explore_with, ExploreLimits};

use crate::cache::{CacheKey, CachedResult, ResultCache};
use crate::deadline::CancelToken;
use crate::fault::{Faults, NoFaults};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::ops::{self, Certified, Inferred};
use crate::peer::{ClusterConfig, ClusterState, DEFAULT_PEER_TIMEOUT_MS, MAX_HOPS, MAX_SYNC_PAGE};
use crate::persist::{encode_record, DurableStore};
use crate::pool::PoolHealth;
use crate::protocol::{ErrorKind, Op, Request, Response};

/// Work limits enforced per request.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Hard cap on statements certified per request; a request's own
    /// `fuel` can only lower it.
    pub max_fuel: u64,
    /// Hard cap on source bytes (checked before parsing).
    pub max_source_bytes: usize,
    /// Deadline applied when a request carries no `timeout_ms` (0 =
    /// none).
    pub default_timeout_ms: u64,
    /// Hard cap on any requested `timeout_ms` (0 = uncapped).
    pub max_timeout_ms: u64,
    /// Hard cap on `explore` abstract states; a request's own
    /// `max_states` can only lower it.
    pub max_explore_states: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_fuel: 1_000_000,
            max_source_bytes: 8 << 20,
            default_timeout_ms: 30_000,
            max_timeout_ms: 300_000,
            max_explore_states: 1_000_000,
        }
    }
}

impl Limits {
    /// Effective statement budget for `req`: its `fuel`, clamped by
    /// `max_fuel`.
    pub(crate) fn effective_fuel(&self, req: &Request) -> u64 {
        req.fuel.unwrap_or(u64::MAX).min(self.max_fuel)
    }

    /// Effective `explore` state budget for a request's `max_states`:
    /// the explorer's default without one, clamped by
    /// `max_explore_states`.
    pub(crate) fn effective_max_states(&self, max_states: Option<u64>) -> usize {
        max_states
            .map(|n| n.min(usize::MAX as u64) as usize)
            .unwrap_or(ExploreLimits::default().max_states)
            .min(self.max_explore_states)
    }

    /// Effective timeout for `req` in milliseconds: the request's
    /// `timeout_ms` (or the configured default), clamped by
    /// `max_timeout_ms`. `0` disables the deadline.
    pub fn effective_timeout_ms(&self, req: &Request) -> u64 {
        let requested = req.timeout_ms.unwrap_or(self.default_timeout_ms);
        if requested == 0 || self.max_timeout_ms == 0 {
            requested
        } else {
            requested.min(self.max_timeout_ms)
        }
    }
}

/// The most reply text a cache hit may carry and still be answered on
/// the calling thread, which the poll loop shares with every connection.
/// Every hit of the benchmark's `hot_certify` carries less (at most
/// 1,953 B); a `with_proof` hit of anything but a small program carries
/// more, and is rendered by a worker, which measured faster for the
/// hit's own client and for every other (EXPERIMENTS E25).
pub(crate) const INLINE_HIT_MAX_TEXT: usize = 2048;

/// The certification service: cache + metrics + limits. Stateless with
/// respect to individual requests, so any worker can execute any job.
pub struct Service {
    cache: Mutex<ResultCache>,
    /// Live counters, readable at any time (the `stats` op snapshots
    /// them).
    pub metrics: Metrics,
    limits: Limits,
    /// Crash-safe journal of the cache, when serving with
    /// `--cache-dir` (None = memory-only, the default).
    persist: Option<Mutex<DurableStore>>,
    /// Single-flight table: cache fingerprint (canonical key text) →
    /// the one in-progress computation for it. Concurrent identical
    /// requests attach here as waiters instead of recomputing, so a
    /// stampede of N identical `certify` requests costs one
    /// exploration. See [`Flight`] for the lock-order rules.
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
    /// Cluster topology, when this service is one shard of (or a
    /// router over) an N-node cluster (None = standalone, the
    /// default). See [`crate::peer`].
    cluster: Option<ClusterState>,
}

/// One in-progress computation that concurrent identical requests wait
/// on. The leader publishes `Some(result)` on success, or `None` when
/// it has nothing shareable (its deadline expired — timeouts depend on
/// the deadline, not the key — or it panicked); waiters seeing `None`
/// retry, and one of them becomes the next leader.
///
/// Lock order: `Service::inflight` and `Flight::slot` are leaf locks —
/// neither is ever held while computing, or while taking the cache or
/// persist locks — so they extend the existing one-directional
/// persist → cache order without cycles.
struct Flight {
    slot: Mutex<Option<Option<CachedResult>>>,
    cv: Condvar,
}

/// What a waiter got out of [`Flight::wait`].
enum FlightWait {
    /// The leader published a shareable result.
    Published(CachedResult),
    /// The leader finished without a shareable result; retry (the next
    /// attempt will find the cache filled or become the leader).
    Retry,
    /// The waiter's own deadline expired first.
    Expired,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the leader publishes or `token` expires. Polls the
    /// token at a coarse interval: cancellation is cooperative
    /// everywhere else in the service too.
    fn wait(&self, token: &CancelToken) -> FlightWait {
        let Ok(mut slot) = self.slot.lock() else {
            return FlightWait::Retry;
        };
        loop {
            match slot.take() {
                Some(published) => {
                    // Put it back for the other waiters.
                    *slot = Some(published.clone());
                    self.cv.notify_all();
                    return match published {
                        Some(result) => FlightWait::Published(result),
                        None => FlightWait::Retry,
                    };
                }
                None => {
                    if token.expired() {
                        return FlightWait::Expired;
                    }
                    match self.cv.wait_timeout(slot, Duration::from_millis(20)) {
                        Ok((guard, _)) => slot = guard,
                        Err(_) => return FlightWait::Retry,
                    }
                }
            }
        }
    }
}

/// Removes the leader's entry from the in-flight table and publishes
/// its outcome on drop — which runs during unwind too, so a panicking
/// leader releases its waiters (as `Retry`) instead of stranding them.
struct FlightGuard<'a> {
    service: &'a Service,
    canon: String,
    flight: Arc<Flight>,
    result: Option<CachedResult>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if let Ok(mut inflight) = self.service.inflight.lock() {
            inflight.remove(&self.canon);
        }
        if let Ok(mut slot) = self.flight.slot.lock() {
            *slot = Some(self.result.take());
        }
        self.flight.cv.notify_all();
    }
}

/// Who a request is in its single-flight group.
enum FlightRole<'a> {
    /// First in: computes, then publishes through the guard. `None`
    /// when coalescing is unavailable (poisoned table lock) — compute
    /// solo, exactly as before this mechanism existed.
    Leader(Option<FlightGuard<'a>>),
    /// Another identical request is already computing; wait on it.
    Waiter(Arc<Flight>),
}

/// Either response fields to report, or a categorized failure.
type Outcome = Result<Vec<(String, Json)>, (ErrorKind, String)>;

impl Service {
    /// A service with a result cache of `cache_capacity` entries.
    pub fn new(cache_capacity: usize, limits: Limits) -> Service {
        Service {
            cache: Mutex::new(ResultCache::new(cache_capacity)),
            metrics: Metrics::new(),
            limits,
            persist: None,
            inflight: Mutex::new(HashMap::new()),
            cluster: None,
        }
    }

    /// A service whose cache is backed by a durable store: entries the
    /// store recovered from disk are replayed into the cache (in disk
    /// order, so later duplicates win and LRU recency is preserved),
    /// and every newly computed result is journaled before it can be
    /// evicted.
    pub fn with_persist(cache_capacity: usize, limits: Limits, mut store: DurableStore) -> Service {
        let mut cache = ResultCache::new(cache_capacity);
        for entry in store.drain_recovered() {
            cache.put(&entry.key, entry.value);
        }
        store.set_entries_recovered(cache.len() as u64);
        Service {
            cache: Mutex::new(cache),
            metrics: Metrics::new(),
            limits,
            persist: Some(Mutex::new(store)),
            inflight: Mutex::new(HashMap::new()),
            cluster: None,
        }
    }

    /// Makes this service one member of (or, with no
    /// [`self_addr`](ClusterConfig::self_addr), a router over) a
    /// cluster: requests whose fingerprint another node owns are
    /// forwarded there instead of computed locally, and `peer-sync`
    /// pages the cache to warm-starting peers.
    pub fn with_cluster(self, config: ClusterConfig) -> Service {
        self.with_cluster_faults(config, Arc::new(NoFaults))
    }

    /// [`with_cluster`](Self::with_cluster) with chaos hooks wired into
    /// the outbound peer-call path (per-peer `partition` drop rules from
    /// a [`crate::fault::FaultPlan`]).
    pub fn with_cluster_faults(
        mut self,
        config: ClusterConfig,
        faults: Arc<dyn Faults>,
    ) -> Service {
        let state = ClusterState::with_faults(config, faults);
        self.metrics
            .cluster_hash_ring_size
            .store(state.ring().len() as u64, Relaxed);
        self.cluster = Some(state);
        self
    }

    /// A snapshot of the durable store's counters, when persistence is
    /// enabled.
    pub fn persist_stats(&self) -> Option<crate::persist::PersistStats> {
        let store = self.persist.as_ref()?.lock().ok()?;
        Some(store.stats())
    }

    /// The configured limits.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// Number of results currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().map(|c| c.len()).unwrap_or(0)
    }

    /// Counts a received request (the serve loops parse lines
    /// themselves and then call [`execute`](Self::execute)).
    pub fn note_request(&self) {
        Metrics::bump(&self.metrics.requests);
    }

    /// Full path for one protocol line: parse, execute, render the
    /// response line. Counts the request.
    pub fn handle_line(&self, line: &str) -> String {
        self.note_request();
        match Request::parse(line) {
            Ok(req) => self.execute(&req),
            Err((id, message)) => {
                Metrics::bump(&self.metrics.errors);
                Response::error(id.as_ref(), ErrorKind::Protocol, &message).into_line()
            }
        }
    }

    /// Builds the cancellation token for `req` from its effective
    /// timeout. The serve loop builds it on dispatch and hands it to the
    /// pooled job.
    pub fn cancel_token(&self, req: &Request) -> CancelToken {
        CancelToken::after_ms(self.limits.effective_timeout_ms(req))
    }

    /// Executes an already-parsed request (the caller counted it).
    pub fn execute(&self, req: &Request) -> String {
        let token = self.cancel_token(req);
        self.execute_with_cancel(req, &token)
    }

    /// Executes an already-parsed request under an externally-owned
    /// cancellation token, whose deadline (or explicit cancel) stops
    /// the work.
    pub fn execute_with_cancel(&self, req: &Request, token: &CancelToken) -> String {
        let start = Instant::now();
        let line = match req.op {
            Op::Stats => self.stats_line(req, None),
            Op::Shutdown => Response::ok(req.id.as_ref(), Op::Shutdown).into_line(),
            Op::PeerSync => self.peer_sync_op(req),
            Op::Ping => self.ping_op(req),
            Op::Replicate => self.replicate_op(req),
            Op::Repair => self.repair_op(req),
            // The rest are the program ops (`Op::is_program`).
            _ => self.compute_cached(req, cache_key(req, &self.limits), start, token),
        };
        self.metrics.record_latency(start.elapsed());
        line
    }

    /// Executes a `stats` request for a front-end that owns a worker
    /// pool: [`execute`](Self::execute)'s reply plus a last `pool`
    /// object with that pool's health.
    pub(crate) fn execute_stats(&self, req: &Request, pool: PoolHealth) -> String {
        let start = Instant::now();
        let line = self.stats_line(req, Some(pool));
        self.metrics.record_latency(start.elapsed());
        line
    }

    /// The `stats` reply; `pool`, when given, is its last field.
    fn stats_line(&self, req: &Request, pool: Option<PoolHealth>) -> String {
        let mut fields = self.metrics.snapshot_fields();
        // Splice the live cluster view (digest, per-peer health) into
        // the counters' cluster object.
        if let Some((_, Json::Obj(cluster))) = fields.iter_mut().find(|(k, _)| k == "cluster") {
            cluster.push((
                "shard_digest".to_string(),
                Json::Str(self.shard_digest_hex()),
            ));
            if let Some(state) = &self.cluster {
                let peers: Vec<Json> = state
                    .health()
                    .snapshot()
                    .into_iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("addr".to_string(), Json::Str(r.addr)),
                            ("health".to_string(), Json::Str(r.health.name().to_string())),
                            (
                                "last_seen_ms".to_string(),
                                r.last_seen_ms
                                    .map(|ms| Json::Num(ms as f64))
                                    .unwrap_or(Json::Null),
                            ),
                        ])
                    })
                    .collect();
                cluster.push(("peers".to_string(), Json::Arr(peers)));
            }
        }
        let mut resp = Response::ok(req.id.as_ref(), Op::Stats)
            .fields(&fields)
            .field("cache_entries", Json::Num(self.cache_len() as f64));
        if let Some(stats) = self.persist_stats() {
            resp = resp.field("persist", Json::Obj(stats.fields()));
        }
        if let Some(h) = pool {
            resp = resp.field(
                "pool",
                Json::Obj(vec![
                    ("workers".to_string(), Json::Num(h.workers as f64)),
                    ("busy".to_string(), Json::Num(h.busy as f64)),
                ]),
            );
        }
        resp.into_line()
    }

    /// The `peer-sync` op: one page of the cache as journal record
    /// payloads, oldest (least recently used) first — the same order
    /// and encoding compaction writes to disk, shipped over the wire.
    fn peer_sync_op(&self, req: &Request) -> String {
        Metrics::bump(&self.metrics.cluster_peer_syncs);
        let cursor = req.cursor.unwrap_or(0).min(usize::MAX as u64) as usize;
        let limit = req.limit.unwrap_or(256).clamp(1, MAX_SYNC_PAGE) as usize;
        let (total, page) = match self.cache.lock() {
            Ok(cache) => (cache.len(), cache.page(cursor, limit)),
            Err(_) => (0, Vec::new()),
        };
        let page: Vec<Json> = page
            .into_iter()
            .map(|(hash, canon, value)| {
                let payload = encode_record(hash, &canon, &value);
                Json::Str(String::from_utf8_lossy(&payload).into_owned())
            })
            .collect();
        let next = cursor.saturating_add(page.len());
        Response::ok(req.id.as_ref(), Op::PeerSync)
            .field("count", Json::Num(page.len() as f64))
            .field("total", Json::Num(total as f64))
            .field("next", Json::Num(next as f64))
            .field("done", Json::Bool(next >= total))
            .field("entries", Json::Arr(page))
            .into_line()
    }

    /// Installs an entry that arrived over the verified peer-sync path
    /// (`peer-sync` pull or `replicate` push — the caller verified it):
    /// into the cache and, when persistence is on, the local journal —
    /// so a synced node is durable in its own right. Idempotent: an
    /// entry already present (exact canon match) is left untouched and
    /// returns `false`, so repeated repairs and redundant pushes never
    /// grow the journal or perturb LRU order.
    /// No compute-path metrics move; the work happened elsewhere.
    pub(crate) fn install_synced(&self, key: &CacheKey, value: CachedResult) -> bool {
        match self.cache.lock() {
            Ok(mut cache) => {
                if cache.contains(key) {
                    return false;
                }
                cache.put(key, value.clone());
            }
            Err(_) => return false,
        }
        self.journal(key, &value);
        true
    }

    /// XOR of every cached entry's fingerprint: the order-independent
    /// shard digest anti-entropy compares across nodes (see
    /// [`crate::cache::ResultCache::digest`]).
    pub fn shard_digest(&self) -> u64 {
        self.cache.lock().map(|c| c.digest()).unwrap_or(0)
    }

    fn shard_digest_hex(&self) -> String {
        format!("{:016x}", self.shard_digest())
    }

    /// The `ping` op: liveness plus the shard digest, so one round trip
    /// both feeds the failure detector and lets `repair` compare shards.
    fn ping_op(&self, req: &Request) -> String {
        Response::ok(req.id.as_ref(), Op::Ping)
            .field("digest", Json::Str(self.shard_digest_hex()))
            .field("entries", Json::Num(self.cache_len() as f64))
            .into_line()
    }

    /// The `replicate` op: install one pushed journal record, verified
    /// exactly like a `peer-sync` entry (same gate, same forgery
    /// rejection). Replies `installed:false` for an entry already held
    /// — the push was redundant, not wrong.
    fn replicate_op(&self, req: &Request) -> String {
        let payload = req.payload.as_deref().unwrap_or_default();
        match crate::peer::verified_entry(payload) {
            Some((key, value)) => {
                let installed = self.install_synced(&key, value);
                if installed {
                    Metrics::bump(&self.metrics.cluster_replica_installs);
                }
                Response::ok(req.id.as_ref(), Op::Replicate)
                    .field("installed", Json::Bool(installed))
                    .into_line()
            }
            None => {
                Metrics::bump(&self.metrics.errors);
                Response::error(
                    req.id.as_ref(),
                    ErrorKind::Protocol,
                    "replicate payload failed verification",
                )
                .into_line()
            }
        }
    }

    /// The `repair` op: anti-entropy against one peer. Compares shard
    /// digests first (one `ping` round trip); only a mismatch pays for
    /// a full `peer-sync` pull, so repeated repair of a converged pair
    /// is O(1) and idempotent. Pull-based: this node ends up holding a
    /// superset of the peer's entries — run from both sides (as the
    /// `secflow repair` subcommand does) to converge a pair.
    fn repair_op(&self, req: &Request) -> String {
        let peer = req.peer.as_deref().unwrap_or_default();
        let timeout = self
            .cluster
            .as_ref()
            .map(|c| c.peer_timeout())
            .unwrap_or(Duration::from_millis(DEFAULT_PEER_TIMEOUT_MS));
        let ping_line = Request::new(Op::Ping, "").to_line();
        let reply = match &self.cluster {
            Some(cluster) => cluster.call_peer(peer, &ping_line),
            None => crate::client::exchange(peer, &ping_line, Some(timeout)),
        };
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => {
                Metrics::bump(&self.metrics.errors);
                return Response::error(
                    req.id.as_ref(),
                    ErrorKind::Internal,
                    &format!("repair: peer {peer} unreachable: {e}"),
                )
                .into_line();
            }
        };
        let peer_digest = Json::parse(&reply)
            .ok()
            .and_then(|v| v.get("digest").and_then(Json::as_str).map(str::to_string));
        let local = self.shard_digest_hex();
        if peer_digest.as_deref() == Some(local.as_str()) {
            return Response::ok(req.id.as_ref(), Op::Repair)
                .field("synced", Json::Bool(false))
                .field("pages", Json::Num(0.0))
                .field("installed", Json::Num(0.0))
                .field("digest", Json::Str(local))
                .field("digest_match", Json::Bool(true))
                .into_line();
        }
        match crate::peer::sync_from_peer(self, peer, timeout) {
            Ok(report) => {
                if report.entries_installed > 0 {
                    Metrics::bump(&self.metrics.cluster_repairs);
                }
                let after = self.shard_digest_hex();
                let matched = peer_digest.as_deref() == Some(after.as_str());
                Response::ok(req.id.as_ref(), Op::Repair)
                    .field("synced", Json::Bool(true))
                    .field("pages", Json::Num(report.pages as f64))
                    .field("installed", Json::Num(report.entries_installed as f64))
                    .field("rejected", Json::Num(report.entries_rejected as f64))
                    .field("digest", Json::Str(after))
                    .field("digest_match", Json::Bool(matched))
                    .into_line()
            }
            Err(e) => {
                Metrics::bump(&self.metrics.errors);
                Response::error(
                    req.id.as_ref(),
                    ErrorKind::Internal,
                    &format!("repair: sync from {peer} failed: {e}"),
                )
                .into_line()
            }
        }
    }

    /// One beat of the background health loop: probe every non-UP peer
    /// (the call outcome feeds the failure detector, so a healed peer
    /// flips back to UP here). A replica readmitted from DOWN has missed
    /// the pushes skipped while it was down, so this node asks it once
    /// to `repair` from here; the peer pulls what it lacks through the
    /// verified `peer-sync` path. No queue and no retry: a failed call
    /// is one more strike, and `secflow repair` covers whatever this
    /// misses.
    pub fn health_tick(&self) {
        let Some(cluster) = &self.cluster else { return };
        let ping_line = Request::new(Op::Ping, "").to_line();
        for addr in cluster.health().due_probes() {
            let was_down = cluster.health().is_down(&addr);
            let readmitted = cluster.call_peer(&addr, &ping_line).is_ok() && was_down;
            // A router, or a node at rf=1, pushes nothing, so it owes a
            // readmitted peer nothing.
            match cluster.self_addr() {
                Some(me) if readmitted && cluster.replication() > 1 => {
                    let mut repair = Request::new(Op::Repair, "");
                    repair.peer = Some(me.to_string());
                    let _ = cluster.call_peer(&addr, &repair.to_line());
                }
                _ => {}
            }
        }
    }

    /// Pushes a freshly cached entry to its other replicas
    /// (synchronous, best-effort). A DOWN replica is skipped, and a
    /// failed push is only a failure-detector strike: the replica
    /// catches up by `repair` when its probe readmits it. No-op at
    /// `replication` 1 or standalone.
    fn replicate_out(&self, key: &CacheKey, value: &CachedResult) {
        let Some(cluster) = &self.cluster else { return };
        let targets = cluster.replica_targets(key.hash);
        if targets.is_empty() {
            return;
        }
        let mut push = Request::new(Op::Replicate, "");
        push.payload =
            Some(String::from_utf8_lossy(&encode_record(key.hash, &key.canon, value)).into_owned());
        let push_line = push.to_line();
        for addr in targets {
            if cluster.health().is_down(&addr) {
                continue;
            }
            let delivered = cluster.call_peer(&addr, &push_line).is_ok_and(|reply| {
                Json::parse(&reply)
                    .ok()
                    .and_then(|v| v.get("ok").and_then(Json::as_bool))
                    == Some(true)
            });
            if delivered {
                Metrics::bump(&self.metrics.cluster_replicas_sent);
            }
        }
    }

    /// Answers a program-op request from the cache alone, on the
    /// calling thread. `Ok` is a hit's reply line, counted and timed
    /// exactly as a worker would count and time it. `Err` is a miss, or
    /// a hit whose reply carries more than [`INLINE_HIT_MAX_TEXT`]
    /// bytes of text; it counts nothing and hands back its key for
    /// [`execute_miss`](Self::execute_miss), so the key (a copy and hash
    /// of the whole request) is built once. `None` for a request that is
    /// not a program op. A request over the hop budget is refused here,
    /// before the probe.
    pub(crate) fn cached_reply(&self, req: &Request) -> Option<Result<String, CacheKey>> {
        let start = Instant::now();
        if !req.op.is_program() {
            return None;
        }
        if let Some(refusal) = self.refuse_over_budget(req) {
            self.metrics.record_latency(start.elapsed());
            return Some(Ok(refusal));
        }
        let key = cache_key(req, &self.limits);
        let Some(line) = self.reply_from_cache(req, &key, start, INLINE_HIT_MAX_TEXT) else {
            return Some(Err(key));
        };
        self.count_op(req);
        self.metrics.record_latency(start.elapsed());
        Some(Ok(line))
    }

    /// Executes a program-op request under `token` after its
    /// [`cached_reply`](Self::cached_reply) probe missed, reusing that
    /// probe's key (the caller counted the request).
    pub(crate) fn execute_miss(&self, req: &Request, key: CacheKey, token: &CancelToken) -> String {
        let start = Instant::now();
        let line = self.compute_cached(req, key, start, token);
        self.metrics.record_latency(start.elapsed());
        line
    }

    /// Counts one program-op request, once, whichever path answers it,
    /// on the counter `stats` shows under the op's name.
    fn count_op(&self, req: &Request) {
        if let Some(counter) = self.metrics.counter(req.op.name()) {
            Metrics::bump(counter);
        }
    }

    /// The hit branch shared by the worker path and the inline path:
    /// probes the cache and, on a hit whose reply carries at most
    /// `max_text` bytes of text, counts it and renders the reply.
    fn reply_from_cache(
        &self,
        req: &Request,
        key: &CacheKey,
        start: Instant,
        max_text: usize,
    ) -> Option<String> {
        let hit = {
            let mut cache = self.cache.lock().ok()?;
            if cache.peek(key)?.text_len() > max_text {
                return None;
            }
            cache.get(key)?
        };
        Metrics::bump(&self.metrics.cache_hits);
        if req.op == Op::Checkproof {
            // The key is dominated by the certificate text, so this is
            // a hit by content digest.
            Metrics::bump(&self.metrics.checkproof_cache_hits);
        }
        if !hit.ok {
            Metrics::bump(&self.metrics.errors);
        }
        Some(finish_line(req, &hit, true, start))
    }

    /// The refusal of a program request whose `hops` exceeds the
    /// budget: a relay chain that long means nodes disagree about
    /// ownership, or a peer does not follow the protocol. The
    /// `max_hops_exhausted` error echoes no `op`, so the sender's
    /// [`relayed_result`] treats it as a refusal and moves on to its
    /// next candidate, else computes locally: the loop is broken and the
    /// request still answered. `None` for a request within the budget.
    fn refuse_over_budget(&self, req: &Request) -> Option<String> {
        if req.hops <= MAX_HOPS {
            return None;
        }
        Metrics::bump(&self.metrics.cluster_forward_hop_exhausted);
        Metrics::bump(&self.metrics.errors);
        let message = format!(
            "a relay chain of {} hops exceeds the budget of {MAX_HOPS}",
            req.hops
        );
        Some(Response::error(req.id.as_ref(), ErrorKind::MaxHopsExhausted, &message).into_line())
    }

    fn compute_cached(
        &self,
        req: &Request,
        key: CacheKey,
        start: Instant,
        token: &CancelToken,
    ) -> String {
        if let Some(refusal) = self.refuse_over_budget(req) {
            return refusal;
        }
        self.count_op(req);
        let mut guard = loop {
            if let Some(line) = self.reply_from_cache(req, &key, start, usize::MAX) {
                return line;
            }
            // Single flight: if an identical computation is already in
            // progress, wait for its result instead of recomputing.
            match self.join_flight(&key) {
                FlightRole::Leader(guard) => break guard,
                FlightRole::Waiter(flight) => match flight.wait(token) {
                    FlightWait::Published(result) => {
                        Metrics::bump(&self.metrics.coalesced_hits);
                        if req.op == Op::Checkproof {
                            Metrics::bump(&self.metrics.checkproof_cache_hits);
                        }
                        if !result.ok {
                            Metrics::bump(&self.metrics.errors);
                        }
                        // Reported as `cached`: from this request's
                        // point of view the answer came from shared
                        // state, not its own computation.
                        return finish_line(req, &result, true, start);
                    }
                    // The leader had nothing shareable (timeout or
                    // panic): go around again — the cache may have been
                    // filled meanwhile, or this request leads.
                    FlightWait::Retry => continue,
                    FlightWait::Expired => {
                        Metrics::bump(&self.metrics.errors);
                        Metrics::bump(&self.metrics.timeouts);
                        let (kind, message) = self.timeout_error(req);
                        let result = CachedResult::error(kind, &message);
                        return finish_line(req, &result, false, start);
                    }
                },
            }
        };
        // Not cached and not in flight here: if another node owns this
        // fingerprint, forward instead of computing — the owner's
        // single-flight table then coalesces every node's copy of this
        // request into one computation cluster-wide. Falls through to
        // local computation when the cluster is unreachable, so a dead
        // owner costs latency, never availability.
        if let Some(line) = self.forward_to_owner(req, &key, &mut guard) {
            return line;
        }
        let result = self.lead(req, &key, token, guard);
        finish_line(req, &result, false, start)
    }

    /// The leader's half of a miss: compute `req` locally, then cache
    /// and journal the result, publish it to the flight's waiters by
    /// dropping `guard`, and only then replicate it.
    fn lead(
        &self,
        req: &Request,
        key: &CacheKey,
        token: &CancelToken,
        mut guard: Option<FlightGuard<'_>>,
    ) -> CachedResult {
        Metrics::bump(&self.metrics.cache_misses);

        let outcome = self.compute(req, token);
        let timed_out = matches!(outcome, Err((ErrorKind::Timeout, _)));
        let result = match outcome {
            Ok(fields) => CachedResult { ok: true, fields },
            Err((kind, message)) => {
                Metrics::bump(&self.metrics.errors);
                if kind == ErrorKind::Timeout {
                    Metrics::bump(&self.metrics.timeouts);
                }
                CachedResult::error(kind, &message)
            }
        };
        // Parse/binding/fuel outcomes are deterministic in the key, so
        // both successes and failures are cacheable. Timeouts are NOT:
        // they depend on the deadline, not the key — and for the same
        // reason a timeout is never published to the flight's waiters,
        // whose own deadlines may still have room.
        if !timed_out {
            if let Ok(mut cache) = self.cache.lock() {
                cache.put(key, result.clone());
            }
            self.journal(key, &result);
            if let Some(guard) = guard.as_mut() {
                guard.result = Some(result.clone());
            }
            // Dropping the guard publishes to the flight's waiters now,
            // so they never block on the replica sockets below.
            drop(guard);
            // Push the fresh entry to its other replicas (no-op unless
            // `replication` ≥ 2).
            self.replicate_out(key, &result);
        }
        result
    }

    /// Joins the single-flight group for `key`: the first request in
    /// becomes the leader (and gets the publish-on-drop guard), every
    /// later identical request becomes a waiter on the same flight. A
    /// poisoned table lock degrades to solo computation.
    fn join_flight(&self, key: &CacheKey) -> FlightRole<'_> {
        let Ok(mut inflight) = self.inflight.lock() else {
            return FlightRole::Leader(None);
        };
        if let Some(flight) = inflight.get(&key.canon) {
            return FlightRole::Waiter(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        inflight.insert(key.canon.clone(), Arc::clone(&flight));
        FlightRole::Leader(Some(FlightGuard {
            service: self,
            canon: key.canon.clone(),
            flight,
            result: None,
        }))
    }

    /// Tries to relay `req` to the node owning its fingerprint, as the
    /// request itself with `hops` raised by one. `Some(line)` is the
    /// relayed reply (byte-for-byte what the owner answered); `None`
    /// means "compute locally" — this node owns the key, there is no
    /// cluster, the hop budget is spent, or every candidate peer was
    /// unreachable or refused.
    fn forward_to_owner(
        &self,
        req: &Request,
        key: &CacheKey,
        guard: &mut Option<FlightGuard<'_>>,
    ) -> Option<String> {
        let cluster = self.cluster.as_ref()?;
        if req.hops >= MAX_HOPS {
            return None;
        }
        let candidates = cluster.route(key.hash);
        if candidates.is_empty() {
            return None;
        }
        let relay_line = req.relay_line();
        for addr in candidates {
            let Ok(reply) = cluster.call_peer(&addr, &relay_line) else {
                continue; // peer down: next candidate, else compute here
            };
            let Some((result, relayed_cached)) = relayed_result(&reply, req) else {
                // Not a reply to the op — the peer refused the request
                // (overloaded, draining, over the hop budget): next
                // candidate.
                continue;
            };
            Metrics::bump(&self.metrics.cluster_forwards);
            if relayed_cached {
                Metrics::bump(&self.metrics.cluster_forward_hits);
            }
            if !result.ok {
                Metrics::bump(&self.metrics.errors);
            }
            // Deterministic outcomes are cacheable on this side of the
            // wire too; timeouts depend on the deadline, not the key,
            // so they are relayed but never stored or published (the
            // same rule local computation follows).
            if !is_timeout(&result) {
                if let Ok(mut cache) = self.cache.lock() {
                    cache.put(key, result.clone());
                }
                self.journal(key, &result);
                if let Some(guard) = guard.as_mut() {
                    guard.result = Some(result);
                }
            }
            return Some(reply);
        }
        None
    }

    /// Appends a freshly cached result to the durable journal, then
    /// compacts once the appends since the last compaction outgrew
    /// their budget. The cache lock is never held while this runs;
    /// compaction takes persist → cache, so nested lock order is
    /// one-directional and deadlock-free. Disk errors are counted in
    /// [`crate::persist::PersistStats`] — serving continues memory-only.
    fn journal(&self, key: &CacheKey, value: &CachedResult) {
        let Some(persist) = &self.persist else { return };
        let Ok(mut store) = persist.lock() else {
            return;
        };
        let _ = store.append(key, value);
        if store.wants_compaction() {
            let live = match self.cache.lock() {
                Ok(cache) => cache.entries(),
                Err(_) => return,
            };
            let _ = store.compact(&live);
        }
    }

    fn timeout_error(&self, req: &Request) -> (ErrorKind, String) {
        (
            ErrorKind::Timeout,
            format!(
                "deadline of {} ms exceeded",
                self.limits.effective_timeout_ms(req)
            ),
        )
    }

    fn compute(&self, req: &Request, token: &CancelToken) -> Outcome {
        if req.source.len() > self.limits.max_source_bytes {
            return Err((
                ErrorKind::Fuel,
                format!(
                    "source is {} bytes; limit is {}",
                    req.source.len(),
                    self.limits.max_source_bytes
                ),
            ));
        }
        if token.expired() {
            return Err(self.timeout_error(req));
        }
        let program = parse(&req.source).map_err(|d| (ErrorKind::Parse, d.render(&req.source)))?;
        // Parsing itself is not cancellable, so re-check right after:
        // a deep program can blow the whole deadline in the parser.
        if token.expired() {
            return Err(self.timeout_error(req));
        }
        let statements = program.statement_count() as u64;
        let effective_fuel = self.limits.effective_fuel(req);
        if statements > effective_fuel {
            return Err((
                ErrorKind::Fuel,
                format!("program has {statements} statements; fuel allows {effective_fuel}"),
            ));
        }
        let stop = || token.expired();
        match req.op {
            Op::Certify => {
                let certified = ops::certify(req, &program)?;
                // Only a fresh computation reaches this: cached and
                // warm-started replies re-serve the stored certificate
                // without touching the prover, and the counters prove it.
                if let Some(cert) = &certified.certificate {
                    Metrics::bump(&self.metrics.proofs_emitted);
                    self.metrics
                        .proof_bytes_total
                        .fetch_add(cert.text.len() as u64, Relaxed);
                }
                Ok(certify_fields(certified))
            }
            Op::Infer => Ok(infer_fields(ops::infer(req, &program)?)),
            Op::Flows => Ok(vec![(
                "graph".to_string(),
                Json::Str(ops::flows(req, &program)?),
            )]),
            Op::Lint => {
                let report = secflow_analyze::analyze_with(&program, &stop);
                if report.cancelled {
                    return Err(self.timeout_error(req));
                }
                if report.pass_panics > 0 {
                    self.metrics
                        .pass_panics
                        .fetch_add(report.pass_panics as u64, Relaxed);
                }
                Ok(lint_fields(&report, &req.source))
            }
            Op::Explore => self.explore(req, &program, &stop),
            Op::Checkproof => {
                // The validator never re-runs Theorem 1 search: it
                // decodes the certificate and replays the checker's side
                // conditions. Rejections are verdicts (ok:true,
                // valid:false), not protocol errors — a bad certificate
                // is a result, not a malfunction.
                let verdict =
                    validate_certificate(&req.source, req.cert.as_deref().unwrap_or_default());
                Metrics::bump(if verdict.is_ok() {
                    &self.metrics.checkproof_valid
                } else {
                    &self.metrics.checkproof_rejected
                });
                Ok(verdict_fields(verdict))
            }
            op => Err((
                ErrorKind::Protocol,
                format!("op `{}` is not a program op", op.name()),
            )),
        }
    }

    /// The `explore` op: exhaustive interleaving exploration under the
    /// request's (capped) state budget and deadline.
    fn explore(&self, req: &Request, program: &Program, should_stop: &dyn Fn() -> bool) -> Outcome {
        let mut inputs = Vec::new();
        for (name, value) in &req.inputs {
            let id = program
                .symbols
                .lookup(name)
                .ok_or_else(|| (ErrorKind::Binding, format!("`{name}` is not declared")))?;
            inputs.push((id, *value));
        }
        let base = ExploreLimits {
            max_states: self.limits.effective_max_states(req.max_states),
            ..ExploreLimits::default()
        };
        // Persistent sets without sleep sets: the reply's `states` is
        // then a function of the program alone, not of the depth-first
        // order, and it is the count that journals, cluster peers and
        // the benchmark's committed table already hold.
        let limits = if req.por {
            base.persistent_only()
        } else {
            base.without_por()
        };
        let begin = Instant::now();
        let report = explore_with(program, &inputs, limits, should_stop);
        self.metrics
            .explore_states
            .fetch_add(report.states as u64, Relaxed);
        self.metrics
            .explore_pruned
            .fetch_add(report.states_pruned as u64, Relaxed);
        self.metrics.explore_us.fetch_add(
            begin.elapsed().as_micros().min(u64::MAX as u128) as u64,
            Relaxed,
        );
        if report.cancelled {
            return Err(self.timeout_error(req));
        }
        Ok(vec![
            (
                "outcomes".to_string(),
                Json::Num(report.outcomes.len() as f64),
            ),
            ("deadlocks".to_string(), Json::Num(report.deadlocks as f64)),
            ("faults".to_string(), Json::Num(report.faults as f64)),
            ("states".to_string(), Json::Num(report.states as f64)),
            (
                "states_pruned".to_string(),
                Json::Num(report.states_pruned as f64),
            ),
            ("por".to_string(), Json::Bool(req.por)),
            ("truncated".to_string(), Json::Bool(report.truncated)),
        ])
    }
}

/// The cluster routing fingerprint of `req`: the same FNV-1a hash the
/// result cache keys on, computed with the default limits' fuel and
/// state caps so every router, client, and node — whatever its own
/// serving limits — maps a given request to the same ring position.
pub fn route_fingerprint(req: &Request) -> u64 {
    cache_key(req, &Limits::default()).hash
}

/// Interprets a peer's reply to a relayed request as that request's
/// result: `Some((payload, was_cached))` when the reply answers the op
/// (its `op` echoes the relayed op), `None` when the peer refused
/// the request without answering it (no `op` echo).
/// The payload is the reply minus the per-response envelope
/// (`id`/`ok`/`op`/`cached`/`us`) — exactly what the local
/// cache stores, so a later hit replays it byte-identically.
fn relayed_result(reply: &str, req: &Request) -> Option<(CachedResult, bool)> {
    let v = Json::parse(reply).ok()?;
    if v.get("op").and_then(Json::as_str) != Some(req.op.name()) {
        return None;
    }
    let ok = v.get("ok").and_then(Json::as_bool)?;
    let cached = v.get("cached").and_then(Json::as_bool).unwrap_or(false);
    let fields: Vec<(String, Json)> = v
        .as_obj()?
        .iter()
        .filter(|(k, _)| !matches!(k.as_str(), "id" | "ok" | "op" | "cached" | "us"))
        .cloned()
        .collect();
    Some((CachedResult { ok, fields }, cached))
}

/// Whether a result is a `timeout` error (never cached or published —
/// it reflects a deadline, not the request's identity).
fn is_timeout(result: &CachedResult) -> bool {
    !result.ok
        && result
            .fields
            .iter()
            .any(|(k, v)| k == "error" && v.get("kind").and_then(Json::as_str) == Some("timeout"))
}

/// `req`'s cache key under `limits`. `timeout_ms` is deliberately NOT
/// part of it: the computation it names is identical, and a slow
/// request should be able to hit a result cached by a patient one.
fn cache_key(req: &Request, limits: &Limits) -> CacheKey {
    // A lattice or class spelling that parses is keyed in its canonical
    // form, so `linear:04` and `linear:4`, or `HIGH`, `h` and `high`,
    // share one entry, journal record and ring position: they give
    // byte-identical results. One that does not parse stays raw. Only
    // these strings are parsed, never the program, since cache hits
    // build the key on the loop thread.
    let spec = parse_lattice_spec(&req.lattice).ok();
    let lattice = spec.map_or_else(|| req.lattice.clone(), |s| s.to_string());
    let class = |c: &str| {
        spec.as_ref()
            .and_then(|s| ops::canonical_class(s, c))
            .unwrap_or_else(|| c.to_string())
    };
    // Names and class strings are arbitrary JSON strings, so each one
    // is length-prefixed: `{"x":"low;y=high"}` must not spell the same
    // key part as `{"x":"low","y":"high"}`. An input value is an integer
    // and cannot contain the `;` that ends it. An empty list stays "",
    // so requests without classes or inputs keep their keys.
    let classes: String = req
        .classes
        .iter()
        .map(|(n, c)| {
            let c = class(c);
            format!("{}:{n}{}:{c}", n.len(), c.len())
        })
        .collect();
    let default_class = req.default_class.as_deref().map(class).unwrap_or_default();
    let inputs: String = req
        .inputs
        .iter()
        .map(|(n, v)| format!("{}:{n}{v};", n.len()))
        .collect();
    let fuel = limits.effective_fuel(req).to_string();
    // Only `explore` reads `max_states` and `por`, so no other op keys
    // them. Its budget is keyed as clamped, and spelled "" when it is
    // the budget of a request without the field: spellings of one
    // search share one entry.
    let explore = req.op == Op::Explore;
    let budget = limits.effective_max_states(req.max_states);
    let max_states = if explore && budget != limits.effective_max_states(None) {
        budget.to_string()
    } else {
        String::new()
    };
    // A certificate is written in one wire version, and a `checkproof`
    // verdict is what a validator of one version says, so both results
    // are keyed by it: a journal or a peer of a build that speaks
    // another version never answers for this one.
    let proof = if req.with_proof {
        format!("with_proof:v{CERT_VERSION}")
    } else if req.op == Op::Checkproof {
        format!("checkproof:v{CERT_VERSION}")
    } else {
        String::new()
    };
    CacheKey::of(&[
        req.op.name(),
        &lattice,
        &default_class,
        if req.baseline { "baseline" } else { "" },
        if req.dot { "dot" } else { "" },
        &proof,
        req.cert.as_deref().unwrap_or(""),
        &fuel,
        &classes,
        &inputs,
        &max_states,
        // The reduced and full searches return different `states`
        // counts, so the mode is part of the identity of the result.
        if explore && !req.por { "no-por" } else { "" },
        &req.source,
    ])
}

/// Renders the final response line: `id`, `ok` and `op`, the result's
/// fields (a failure's include its `error` object), then the
/// per-response `cached` and `us`.
fn finish_line(req: &Request, result: &CachedResult, cached: bool, start: Instant) -> String {
    Response::reply(req.id.as_ref(), req.op, result.ok)
        .fields(&result.fields)
        .field("cached", Json::Bool(cached))
        .field("us", Json::Num(start.elapsed().as_micros() as f64))
        .into_line()
}

/// Response fields for the `lint` op: aggregate counts plus one JSON
/// object per diagnostic (deterministically ordered by the analyzer).
fn lint_fields(report: &AnalysisReport, source: &str) -> Vec<(String, Json)> {
    let idx = LineIndex::new(source);
    let count = |s: Severity| report.count(s) as f64;
    let diags: Vec<Json> = report
        .diags
        .iter()
        .map(|d| {
            let (line, col) = idx.line_col(d.span.start);
            let mut fields = vec![
                ("code".to_string(), Json::Str(d.code.to_string())),
                (
                    "severity".to_string(),
                    Json::Str(d.severity.as_str().to_string()),
                ),
                ("line".to_string(), Json::Num(line as f64)),
                ("col".to_string(), Json::Num(col as f64)),
                ("message".to_string(), Json::Str(d.message.clone())),
            ];
            if let Some(fix) = &d.fix {
                fields.push(("fix".to_string(), Json::Str(fix.clone())));
            }
            Json::Obj(fields)
        })
        .collect();
    vec![
        ("clean".to_string(), Json::Bool(report.clean())),
        ("errors".to_string(), Json::Num(count(Severity::Error))),
        ("warnings".to_string(), Json::Num(count(Severity::Warning))),
        ("infos".to_string(), Json::Num(count(Severity::Info))),
        ("diagnostics".to_string(), Json::Arr(diags)),
    ]
}

/// Reply fields for a `certify` verdict, with the certificate, its
/// digest and its size when one was emitted.
fn certify_fields(c: Certified) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("certified".to_string(), Json::Bool(c.certified)),
        ("violations".to_string(), Json::Num(c.violations as f64)),
        ("checks".to_string(), Json::Num(c.checks as f64)),
        ("statements".to_string(), Json::Num(c.statements as f64)),
        ("report".to_string(), Json::Str(c.report)),
    ];
    if let Some(cert) = c.certificate {
        fields.push(("certificate".to_string(), Json::Str(cert.text)));
        fields.push(("proof_digest".to_string(), Json::Str(cert.digest)));
        fields.push(("proof_nodes".to_string(), Json::Num(cert.nodes as f64)));
    }
    fields
}

/// Reply fields for an `infer` result: the binding as a name → class
/// object, or the conflicting pin and its flow chain.
fn infer_fields(inferred: Inferred) -> Vec<(String, Json)> {
    match inferred {
        Inferred::Binding(classes) => vec![
            ("satisfiable".to_string(), Json::Bool(true)),
            (
                "binding".to_string(),
                Json::Obj(
                    classes
                        .into_iter()
                        .map(|(name, class)| (name, Json::Str(class)))
                        .collect(),
                ),
            ),
        ],
        Inferred::Conflict { conflict, chain } => vec![
            ("satisfiable".to_string(), Json::Bool(false)),
            ("conflict".to_string(), Json::Str(conflict)),
            ("chain".to_string(), Json::Str(chain)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEAKY: &str = "var x, y : integer; sem : semaphore;
        cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend";

    fn svc() -> Service {
        Service::new(64, Limits::default())
    }

    fn line(source: &str, classes: &str) -> String {
        format!(
            r#"{{"op":"certify","source":{},"classes":{classes}}}"#,
            Json::Str(source.to_string())
        )
    }

    #[test]
    fn certify_round_trip() {
        let s = svc();
        let out = s.handle_line(&line(LEAKY, r#"{"x":"high"}"#));
        let v = Json::parse(&out).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("certified").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(false));

        // Identical request: served from cache.
        let out2 = s.handle_line(&line(LEAKY, r#"{"x":"high"}"#));
        let v2 = Json::parse(&out2).unwrap();
        assert_eq!(v2.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(v2.get("certified").and_then(Json::as_bool), Some(false));
        use std::sync::atomic::Ordering::Relaxed;
        assert_eq!(s.metrics.cache_hits.load(Relaxed), 1);

        // Different binding: a distinct cache entry, certifies cleanly.
        let out3 = s.handle_line(&line(LEAKY, r#"{}"#));
        let v3 = Json::parse(&out3).unwrap();
        assert_eq!(v3.get("certified").and_then(Json::as_bool), Some(true));
        assert_eq!(v3.get("cached").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn parse_errors_are_reported_and_cached() {
        let s = svc();
        let bad = line("var x integer; x := ", r#"{}"#);
        let v = Json::parse(&s.handle_line(&bad)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        assert_eq!(kind, Some("parse"));
        let v2 = Json::parse(&s.handle_line(&bad)).unwrap();
        assert_eq!(v2.get("cached").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn fuel_limit_is_enforced() {
        let s = svc();
        let req = format!(
            r#"{{"op":"certify","source":{},"fuel":1}}"#,
            Json::Str(LEAKY.to_string())
        );
        let v = Json::parse(&s.handle_line(&req)).unwrap();
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        assert_eq!(kind, Some("fuel"));
    }

    #[test]
    fn infer_and_flows() {
        let s = svc();
        let req = format!(
            r#"{{"op":"infer","source":{},"pins":{{"x":"high","y":"low"}}}}"#,
            Json::Str(LEAKY.to_string())
        );
        let v = Json::parse(&s.handle_line(&req)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("satisfiable").and_then(Json::as_bool), Some(false));
        assert!(v.get("chain").and_then(Json::as_str).is_some());

        let req = format!(
            r#"{{"op":"flows","source":{},"dot":true}}"#,
            Json::Str(LEAKY.to_string())
        );
        let v = Json::parse(&s.handle_line(&req)).unwrap();
        let dot = v.get("graph").and_then(Json::as_str).unwrap();
        assert!(dot.contains("digraph"));
    }

    // ---- cache keying -------------------------------------------------

    /// The error kind of a reply, or `None` for a successful one.
    fn error_kind(v: &Json) -> Option<&str> {
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
    }

    const ALIAS_SOURCE: &str = "var x, y : integer; y := x";
    const ALIAS_VALID: &str = r#"{"x":"low","y":"high"}"#;
    /// One class, `low;y=high`, which does not exist: a binding error.
    const ALIAS_MALFORMED: &str = r#"{"x":"low;y=high"}"#;

    #[test]
    fn a_malformed_class_does_not_poison_a_valid_requests_key() {
        let s = svc();
        let bad = Json::parse(&s.handle_line(&line(ALIAS_SOURCE, ALIAS_MALFORMED))).unwrap();
        assert_eq!(error_kind(&bad), Some("binding"));
        let good = Json::parse(&s.handle_line(&line(ALIAS_SOURCE, ALIAS_VALID))).unwrap();
        assert_eq!(error_kind(&good), None, "{good}");
        assert_eq!(good.get("certified").and_then(Json::as_bool), Some(true));
        assert_eq!(good.get("cached").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn a_malformed_class_is_not_served_a_valid_requests_verdict() {
        let s = svc();
        let good = Json::parse(&s.handle_line(&line(ALIAS_SOURCE, ALIAS_VALID))).unwrap();
        assert_eq!(good.get("certified").and_then(Json::as_bool), Some(true));
        let bad = Json::parse(&s.handle_line(&line(ALIAS_SOURCE, ALIAS_MALFORMED))).unwrap();
        assert_eq!(error_kind(&bad), Some("binding"), "{bad}");
        assert_eq!(bad.get("cached").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn an_input_name_does_not_alias_another_explores_inputs() {
        let s = svc();
        let explore = |inputs: &str| {
            format!(
                r#"{{"op":"explore","source":{},"inputs":{inputs}}}"#,
                Json::Str(ALIAS_SOURCE.to_string())
            )
        };
        let bad = Json::parse(&s.handle_line(&explore(r#"{"x=1;y":2}"#))).unwrap();
        assert_eq!(error_kind(&bad), Some("binding"));
        let good = Json::parse(&s.handle_line(&explore(r#"{"x":1,"y":2}"#))).unwrap();
        assert_eq!(error_kind(&good), None, "{good}");
        assert_eq!(good.get("cached").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn linear_lattice_classes() {
        let s = svc();
        let req = format!(
            r#"{{"op":"certify","source":{},"lattice":"linear:4","classes":{{"x":"3","y":"0"}}}}"#,
            Json::Str(LEAKY.to_string())
        );
        let v = Json::parse(&s.handle_line(&req)).unwrap();
        assert_eq!(v.get("certified").and_then(Json::as_bool), Some(false));
        // Bad lattice spec.
        let req = format!(
            r#"{{"op":"certify","source":{},"lattice":"diamond"}}"#,
            Json::Str(LEAKY.to_string())
        );
        let v = Json::parse(&s.handle_line(&req)).unwrap();
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        assert_eq!(kind, Some("binding"));
    }

    #[test]
    fn a_linear_class_takes_at_most_one_level_prefix() {
        let s = svc();
        let certify = |class: &str| {
            let req = format!(
                r#"{{"op":"certify","source":{},"lattice":"linear:4","classes":{{"x":{}}}}}"#,
                Json::Str(ALIAS_SOURCE.to_string()),
                Json::Str(class.to_string())
            );
            Json::parse(&s.handle_line(&req)).unwrap()
        };
        for good in ["3", "L3", "l3"] {
            let v = certify(good);
            assert_eq!(error_kind(&v), None, "{good}: {v}");
        }
        for bad in ["LL3", "lL3"] {
            assert_eq!(error_kind(&certify(bad)), Some("binding"), "{bad}");
        }
    }

    #[test]
    fn every_spelling_of_a_lattice_and_class_shares_one_entry() {
        let s = svc();
        let request = |op: &str, lattice: &str, class: &str| {
            let classes = if op == "infer" { "pins" } else { "classes" };
            let dot = if op == "flows" { r#","dot":true"# } else { "" };
            format!(
                r#"{{"op":"{op}","source":{},"lattice":"{lattice}","{classes}":{{"x":"{class}"}}{dot}}}"#,
                Json::Str(ALIAS_SOURCE.to_string())
            )
        };
        // Whether a reply was cached, and its fields but `cached`/`us`.
        let answer = |line: String| {
            let v = Json::parse(&s.handle_line(&line)).unwrap();
            assert_eq!(error_kind(&v), None, "{line}: {v}");
            let cached = v.get("cached").and_then(Json::as_bool).unwrap();
            let fields: Vec<(String, Json)> = v
                .as_obj()
                .unwrap()
                .iter()
                .filter(|(k, _)| k != "cached" && k != "us")
                .cloned()
                .collect();
            (cached, fields)
        };
        for op in ["certify", "infer", "flows"] {
            for [(lattice1, class1), (lattice2, class2)] in [
                [("linear:04", "L3"), ("linear:4", "3")],
                [("two", "HIGH"), ("two", "high")],
            ] {
                let (cached, first) = answer(request(op, lattice1, class1));
                assert!(!cached, "{op} {lattice1} {class1}");
                let (cached, second) = answer(request(op, lattice2, class2));
                assert!(cached, "{op} {lattice2} {class2} missed");
                assert_eq!(first, second, "{op} {lattice2} {class2}");
            }
        }
    }

    #[test]
    fn lint_reports_diagnostics_and_caches() {
        let s = svc();
        let req = format!(
            r#"{{"op":"lint","source":{}}}"#,
            Json::Str(LEAKY.to_string())
        );
        let v = Json::parse(&s.handle_line(&req)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("clean").and_then(Json::as_bool), Some(false));
        // §2.2: the deadlock-capable wait (SF010) is a warning.
        assert!(v.get("warnings").and_then(Json::as_u64).unwrap() >= 1);
        let diags = match v.get("diagnostics") {
            Some(Json::Arr(a)) => a,
            other => panic!("diagnostics not an array: {other:?}"),
        };
        assert!(diags
            .iter()
            .any(|d| d.get("code").and_then(Json::as_str) == Some("SF010")));
        for d in diags {
            assert!(d.get("severity").and_then(Json::as_str).is_some());
            assert!(d.get("line").and_then(Json::as_u64).is_some());
            assert!(d.get("message").and_then(Json::as_str).is_some());
        }

        let v2 = Json::parse(&s.handle_line(&req)).unwrap();
        assert_eq!(v2.get("cached").and_then(Json::as_bool), Some(true));

        let stats = Json::parse(&s.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(stats.get("lint").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn lint_of_clean_program_is_clean() {
        let s = svc();
        let req = format!(
            r#"{{"op":"lint","source":{}}}"#,
            Json::Str("var x : integer; x := 1".to_string())
        );
        let v = Json::parse(&s.handle_line(&req)).unwrap();
        assert_eq!(v.get("clean").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("errors").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn explore_round_trip() {
        let s = svc();
        let req = format!(
            r#"{{"op":"explore","source":{},"inputs":{{"x":1}}}}"#,
            Json::Str(LEAKY.to_string())
        );
        let v = Json::parse(&s.handle_line(&req)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        // With x = 1 the §2.2 channel deadlocks on the wait.
        assert!(v.get("deadlocks").and_then(Json::as_u64).unwrap() >= 1);
        assert_eq!(v.get("truncated").and_then(Json::as_bool), Some(false));

        // Same request, different max_states: a distinct cache entry.
        let v2 = Json::parse(&s.handle_line(&req)).unwrap();
        assert_eq!(v2.get("cached").and_then(Json::as_bool), Some(true));
        let capped = format!(
            r#"{{"op":"explore","source":{},"inputs":{{"x":1}},"max_states":2}}"#,
            Json::Str(LEAKY.to_string())
        );
        let v3 = Json::parse(&s.handle_line(&capped)).unwrap();
        assert_eq!(v3.get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(v3.get("truncated").and_then(Json::as_bool), Some(true));
    }

    /// `threads` is an unknown field like any other: an `op` request
    /// carrying it is answered byte for byte (outside `us`) as it is
    /// without one, from the same cache entry.
    fn assert_threads_field_is_ignored(op: &str, fields: &str) {
        let without_us = |line: String| match Json::parse(&line) {
            Ok(Json::Obj(fields)) => {
                Json::Obj(fields.into_iter().filter(|(k, _)| k != "us").collect()).to_string()
            }
            other => panic!("reply is not an object: {other:?}"),
        };
        let source = Json::Str(LEAKY.to_string());
        let plain = format!(r#"{{"id":7,"op":"{op}","source":{source}{fields}}}"#);
        let threaded =
            format!("{{\"id\":7,\"op\":\"{op}\",\"source\":{source}{fields},\"threads\":4}}");
        let (s, reference) = (svc(), svc());
        let replies = [&threaded, &plain, &threaded].map(|l| without_us(s.handle_line(l)));
        let expected = [&plain, &plain, &plain].map(|l| without_us(reference.handle_line(l)));
        assert_eq!(replies, expected, "{op}");
        assert_eq!(s.metrics.cache_misses.load(Relaxed), 1, "{op}");
        assert_eq!(s.metrics.cache_hits.load(Relaxed), 2, "{op}");
    }

    #[test]
    fn parallel_and_sequential_explores_share_a_cache_entry() {
        assert_threads_field_is_ignored("explore", r#","inputs":{"x":1}"#);
    }

    #[test]
    fn parallel_lint_matches_sequential_lint() {
        assert_threads_field_is_ignored("lint", "");
    }

    #[test]
    fn por_mode_is_a_distinct_cache_entry_with_identical_verdicts() {
        let s = svc();
        let reduced = format!(
            r#"{{"op":"explore","source":{},"inputs":{{"x":1}}}}"#,
            Json::Str(LEAKY.to_string())
        );
        let full = format!(
            r#"{{"op":"explore","source":{},"inputs":{{"x":1}},"por":false}}"#,
            Json::Str(LEAKY.to_string())
        );
        let v = Json::parse(&s.handle_line(&reduced)).unwrap();
        assert_eq!(v.get("por").and_then(Json::as_bool), Some(true));
        // The full search must not hit the reduced entry: its `states`
        // count is different.
        let v2 = Json::parse(&s.handle_line(&full)).unwrap();
        assert_eq!(v2.get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(v2.get("por").and_then(Json::as_bool), Some(false));
        assert_eq!(v2.get("states_pruned").and_then(Json::as_u64), Some(0));
        // Identical safety verdicts either way.
        for key in ["outcomes", "deadlocks", "faults"] {
            assert_eq!(
                v.get(key).and_then(Json::as_u64),
                v2.get(key).and_then(Json::as_u64),
                "{key} differs between por modes"
            );
        }
        assert!(
            v.get("states").and_then(Json::as_u64).unwrap()
                <= v2.get("states").and_then(Json::as_u64).unwrap()
        );
        // The stats snapshot exposes the pruning counters.
        let stats = Json::parse(&s.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert!(stats
            .get("explore_states_pruned")
            .and_then(Json::as_u64)
            .is_some());
        assert!(stats.get("explore_reduction_ratio").is_some());
    }

    #[test]
    fn fields_only_explore_reads_do_not_split_cache_entries() {
        let s = svc();
        let source = Json::Str(LEAKY.to_string());
        let cached = |extra: &str, op: &str| {
            let line = format!(r#"{{"op":"{op}","source":{source}{extra}}}"#);
            let v = Json::parse(&s.handle_line(&line)).unwrap();
            v.get("cached").and_then(Json::as_bool).unwrap()
        };
        // The default budget, spelled out, is the request without one.
        assert!(!cached("", "explore"));
        assert!(cached(r#","max_states":200000"#, "explore"));
        // Budgets above the cap are the capped search.
        assert!(!cached(r#","max_states":5000000"#, "explore"));
        assert!(cached(r#","max_states":9000000"#, "explore"));
        assert!(cached(r#","max_states":1000000"#, "explore"));
        // Ops that read neither field ignore both.
        assert!(!cached("", "certify"));
        assert!(cached(r#","por":false,"max_states":7"#, "certify"));
        assert!(!cached("", "lint"));
        assert!(cached(r#","por":false"#, "lint"));
    }

    #[test]
    fn explore_throughput_lands_in_stats() {
        let s = svc();
        let req = format!(
            r#"{{"op":"explore","source":{},"inputs":{{"x":1}}}}"#,
            Json::Str(LEAKY.to_string())
        );
        s.handle_line(&req);
        let v = Json::parse(&s.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert!(v.get("explore_states").and_then(Json::as_u64).unwrap() >= 1);
        let rate = match v.get("explore_states_per_sec") {
            Some(Json::Num(n)) => *n,
            other => panic!("explore_states_per_sec missing: {other:?}"),
        };
        assert!(rate >= 0.0);
    }

    #[test]
    fn expired_deadline_is_structured_timeout_and_never_cached() {
        let s = svc();
        let req = Request::parse(&line(LEAKY, r#"{"x":"high"}"#)).unwrap();
        let token = CancelToken::unbounded();
        token.cancel();
        s.note_request();
        let v = Json::parse(&s.execute_with_cancel(&req, &token)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        assert_eq!(kind, Some("timeout"));
        assert_eq!(s.metrics.timeouts.load(Relaxed), 1);

        // The timeout was not cached: the same request now computes.
        let v2 = Json::parse(&s.handle_line(&line(LEAKY, r#"{"x":"high"}"#))).unwrap();
        assert_eq!(v2.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v2.get("cached").and_then(Json::as_bool), Some(false));
    }

    #[test]
    fn effective_timeout_is_clamped() {
        let limits = Limits::default();
        let mut req = Request::parse(r#"{"op":"stats"}"#).unwrap();
        assert_eq!(limits.effective_timeout_ms(&req), 30_000);
        req.timeout_ms = Some(5);
        assert_eq!(limits.effective_timeout_ms(&req), 5);
        req.timeout_ms = Some(u64::MAX);
        assert_eq!(limits.effective_timeout_ms(&req), 300_000);
        req.timeout_ms = Some(0);
        assert_eq!(limits.effective_timeout_ms(&req), 0);
    }

    #[test]
    fn stats_reports_counters() {
        let s = svc();
        s.handle_line(&line(LEAKY, r#"{"x":"high"}"#));
        s.handle_line(&line(LEAKY, r#"{"x":"high"}"#));
        let v = Json::parse(&s.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(v.get("requests").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("certify").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("cache_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("cache_misses").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("cache_entries").and_then(Json::as_u64), Some(1));
        assert!(v.get("latency_histogram").is_some());
    }

    /// A program the CFM certifies with everything Low — the simplest
    /// source of a real Theorem 1 proof.
    const CLEAN: &str = "var x, y : integer;
        cobegin y := x || x := 1 coend";

    fn certify_with_proof(s: &Service, source: &str) -> Json {
        let req = format!(
            r#"{{"op":"certify","source":{},"with_proof":true}}"#,
            Json::Str(source.to_string())
        );
        Json::parse(&s.handle_line(&req)).unwrap()
    }

    fn checkproof_line(source: &str, cert: &str) -> String {
        format!(
            r#"{{"op":"checkproof","source":{},"cert":{}}}"#,
            Json::Str(source.to_string()),
            Json::Str(cert.to_string())
        )
    }

    #[test]
    fn certify_with_proof_emits_a_certificate_once() {
        let s = svc();
        let v = certify_with_proof(&s, CLEAN);
        assert_eq!(v.get("certified").and_then(Json::as_bool), Some(true));
        let cert = v.get("certificate").and_then(Json::as_str).unwrap();
        let digest = v.get("proof_digest").and_then(Json::as_str).unwrap();
        assert!(cert.contains(digest));
        assert!(v.get("proof_nodes").and_then(Json::as_u64).unwrap() >= 1);
        assert_eq!(s.metrics.proofs_emitted.load(Relaxed), 1);
        assert_eq!(s.metrics.proof_bytes_total.load(Relaxed), cert.len() as u64);

        // Cached re-serve: the certificate comes back byte-identical
        // and the prover does not run again.
        let v2 = certify_with_proof(&s, CLEAN);
        assert_eq!(v2.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(v2.get("certificate").and_then(Json::as_str), Some(cert));
        assert_eq!(s.metrics.proofs_emitted.load(Relaxed), 1);

        // Plain certify of the same program: a distinct cache entry
        // with no certificate attached.
        let plain = Json::parse(&s.handle_line(&line(CLEAN, r#"{}"#))).unwrap();
        assert_eq!(plain.get("cached").and_then(Json::as_bool), Some(false));
        assert!(plain.get("certificate").is_none());
    }

    #[test]
    fn uncertified_with_proof_has_no_certificate() {
        let s = svc();
        let req = format!(
            r#"{{"op":"certify","source":{},"classes":{{"x":"high"}},"with_proof":true}}"#,
            Json::Str(LEAKY.to_string())
        );
        let v = Json::parse(&s.handle_line(&req)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("certified").and_then(Json::as_bool), Some(false));
        assert!(v.get("certificate").is_none());
        assert_eq!(s.metrics.proofs_emitted.load(Relaxed), 0);
    }

    #[test]
    fn with_proof_under_the_baseline_is_a_binding_error() {
        let s = svc();
        let req = format!(
            r#"{{"op":"certify","source":{},"baseline":true,"with_proof":true}}"#,
            Json::Str(CLEAN.to_string())
        );
        let v = Json::parse(&s.handle_line(&req)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        let kind = v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        assert_eq!(kind, Some("binding"));
    }

    #[test]
    fn checkproof_validates_without_reproving() {
        let s = svc();
        let v = certify_with_proof(&s, CLEAN);
        let cert = v.get("certificate").and_then(Json::as_str).unwrap();
        let digest = v.get("proof_digest").and_then(Json::as_str).unwrap();
        assert_eq!(s.metrics.proofs_emitted.load(Relaxed), 1);

        let v2 = Json::parse(&s.handle_line(&checkproof_line(CLEAN, cert))).unwrap();
        assert_eq!(v2.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v2.get("valid").and_then(Json::as_bool), Some(true));
        assert_eq!(v2.get("proof_digest").and_then(Json::as_str), Some(digest));
        assert_eq!(v2.get("lattice").and_then(Json::as_str), Some("two"));
        // Validation never touched the prover.
        assert_eq!(s.metrics.proofs_emitted.load(Relaxed), 1);
        assert_eq!(s.metrics.checkproof_valid.load(Relaxed), 1);

        // The same certificate again: a digest-addressed cache hit.
        let v3 = Json::parse(&s.handle_line(&checkproof_line(CLEAN, cert))).unwrap();
        assert_eq!(v3.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(v3.get("valid").and_then(Json::as_bool), Some(true));
        assert_eq!(s.metrics.checkproof_cache_hits.load(Relaxed), 1);
        // The verdict counters track fresh computations only.
        assert_eq!(s.metrics.checkproof_valid.load(Relaxed), 1);
    }

    #[test]
    fn corrupted_certificates_are_verdicts_not_errors() {
        let s = svc();
        let v = certify_with_proof(&s, CLEAN);
        let cert = v.get("certificate").and_then(Json::as_str).unwrap();
        let corrupted = cert.replacen("cobegin", "cobegiN", 1);
        assert_ne!(&corrupted, cert, "mutation must change the text");

        let v2 = Json::parse(&s.handle_line(&checkproof_line(CLEAN, &corrupted))).unwrap();
        assert_eq!(v2.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v2.get("valid").and_then(Json::as_bool), Some(false));
        let stage = v2
            .get("reason")
            .and_then(|r| r.get("stage"))
            .and_then(Json::as_str)
            .unwrap();
        assert_eq!(stage, "digest");
        assert_eq!(s.metrics.checkproof_rejected.load(Relaxed), 1);

        // A certificate for a different program is rejected too.
        let v3 = Json::parse(&s.handle_line(&checkproof_line(LEAKY, cert))).unwrap();
        assert_eq!(v3.get("valid").and_then(Json::as_bool), Some(false));
        let stage3 = v3
            .get("reason")
            .and_then(|r| r.get("stage"))
            .and_then(Json::as_str)
            .unwrap();
        assert_eq!(stage3, "program");
    }

    #[test]
    fn stats_reports_the_cert_object() {
        let s = svc();
        let v = certify_with_proof(&s, CLEAN);
        let cert = v.get("certificate").and_then(Json::as_str).unwrap();
        s.handle_line(&checkproof_line(CLEAN, cert));
        s.handle_line(&checkproof_line(CLEAN, cert));
        let stats = Json::parse(&s.handle_line(r#"{"op":"stats"}"#)).unwrap();
        let cert_stats = stats.get("cert").expect("stats carries a cert object");
        let field = |k: &str| cert_stats.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(field("proofs_emitted"), 1);
        assert_eq!(field("checkproof_requests"), 2);
        assert_eq!(field("checkproof_valid"), 1);
        assert_eq!(field("checkproof_rejected"), 0);
        assert_eq!(field("cache_hits_by_digest"), 1);
        assert_eq!(field("proof_bytes_total"), cert.len() as u64);
    }

    #[test]
    fn with_proof_works_on_the_linear_lattice() {
        let s = svc();
        let req = format!(
            r#"{{"op":"certify","source":{},"lattice":"linear:4","with_proof":true}}"#,
            Json::Str(CLEAN.to_string())
        );
        let v = Json::parse(&s.handle_line(&req)).unwrap();
        assert_eq!(v.get("certified").and_then(Json::as_bool), Some(true));
        let cert = v.get("certificate").and_then(Json::as_str).unwrap();

        let check = format!(
            r#"{{"op":"checkproof","source":{},"cert":{}}}"#,
            Json::Str(CLEAN.to_string()),
            Json::Str(cert.to_string())
        );
        let v2 = Json::parse(&s.handle_line(&check)).unwrap();
        assert_eq!(v2.get("valid").and_then(Json::as_bool), Some(true));
        assert_eq!(v2.get("lattice").and_then(Json::as_str), Some("linear:4"));
    }

    // ---- single-flight coalescing -------------------------------------

    /// Drops the timing-dependent fields (`us`, and `cached`, which
    /// says *where* the answer came from, not *what* it is) so replies
    /// can be compared byte-for-byte.
    fn strip_timing(line: &str) -> String {
        let Ok(Json::Obj(fields)) = Json::parse(line) else {
            panic!("reply is not a JSON object: {line}");
        };
        Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "us" && k != "cached")
                .collect(),
        )
        .to_string()
    }

    /// An explore of three independent processes with reduction off.
    fn heavy_explore_line(max_states: u64) -> String {
        let proc_body = |var: &str| {
            let steps: Vec<String> = (1..=6).map(|i| format!("{var} := {i}")).collect();
            format!("begin {} end", steps.join("; "))
        };
        let source = format!(
            "var a, b, c : integer; cobegin {} || {} || {} coend",
            proc_body("a"),
            proc_body("b"),
            proc_body("c")
        );
        format!(
            r#"{{"op":"explore","source":{},"max_states":{max_states},"por":false,"timeout_ms":0}}"#,
            Json::Str(source)
        )
    }

    /// Takes the leadership of `line`'s flight on this thread, looses
    /// `k - 1` identical requests at it, waits until every one of them
    /// is attached (each holds a clone of the flight), and only then
    /// computes as the leader. However fast the computation, no waiter
    /// can find the cache filled. Returns the leader's reply line
    /// first, then the waiters'.
    fn stampede(s: &Arc<Service>, line: &str, k: usize) -> Vec<String> {
        let req = Request::parse(line).unwrap();
        let key = cache_key(&req, &s.limits);
        let FlightRole::Leader(Some(guard)) = s.join_flight(&key) else {
            panic!("the flight table is empty and healthy");
        };
        let flight = Arc::clone(&guard.flight);
        let waiters: Vec<_> = (1..k)
            .map(|_| {
                let s = Arc::clone(s);
                let line = line.to_string();
                std::thread::spawn(move || s.handle_line(&line))
            })
            .collect();
        // The table, the guard and `flight` hold three of the clones.
        while Arc::strong_count(&flight) < k + 2 {
            std::thread::yield_now();
        }
        let (start, token) = (Instant::now(), s.cancel_token(&req));
        let result = s.lead(&req, &key, &token, Some(guard));
        let mut lines = vec![finish_line(&req, &result, false, start)];
        for w in waiters {
            lines.push(w.join().unwrap());
        }
        lines
    }

    #[test]
    fn stampede_of_identical_explores_coalesces_to_one_computation() {
        const K: usize = 6;
        let s = Arc::new(svc());
        let req = heavy_explore_line(60_000);
        let lines = stampede(&s, &req, K);

        // Exactly one exploration ran; everyone else attached to it.
        assert_eq!(s.metrics.cache_misses.load(Relaxed), 1);
        assert_eq!(s.metrics.coalesced_hits.load(Relaxed), (K - 1) as u64);
        assert_eq!(s.metrics.cache_hits.load(Relaxed), 0);
        let first = Json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        let states = first.get("states").and_then(Json::as_u64).unwrap();
        assert_eq!(
            s.metrics.explore_states.load(Relaxed),
            states,
            "the states metric carries one exploration's worth, not K's"
        );

        // Byte-identical replies modulo timing fields, and exactly one
        // of them (the leader's) was computed rather than shared.
        let stripped: Vec<String> = lines.iter().map(|l| strip_timing(l)).collect();
        assert!(stripped.iter().all(|l| l == &stripped[0]));
        let computed = lines
            .iter()
            .filter(|l| {
                Json::parse(l)
                    .unwrap()
                    .get("cached")
                    .and_then(Json::as_bool)
                    == Some(false)
            })
            .count();
        assert_eq!(computed, 1);
    }

    #[test]
    fn coalesced_with_proof_serves_one_proof_to_every_waiter() {
        const K: usize = 4;
        let s = Arc::new(svc());
        // A clean program with a large proof.
        let steps: Vec<String> = (0..4000).map(|i| format!("x := {i}")).collect();
        let source = format!("var x : integer; begin {} end", steps.join("; "));
        let req = format!(
            r#"{{"op":"certify","source":{},"with_proof":true,"timeout_ms":0}}"#,
            Json::Str(source)
        );
        let lines = stampede(&s, &req, K);

        // One proof was emitted, every reply carries it byte-identically.
        assert_eq!(s.metrics.proofs_emitted.load(Relaxed), 1);
        assert_eq!(s.metrics.cache_misses.load(Relaxed), 1);
        assert_eq!(s.metrics.coalesced_hits.load(Relaxed), (K - 1) as u64);
        assert_eq!(s.metrics.cache_hits.load(Relaxed), 0);
        let certs: Vec<String> = lines
            .iter()
            .map(|l| {
                let v = Json::parse(l).unwrap();
                assert_eq!(v.get("certified").and_then(Json::as_bool), Some(true));
                v.get("certificate")
                    .and_then(Json::as_str)
                    .expect("every coalesced reply carries the certificate")
                    .to_string()
            })
            .collect();
        assert!(certs.iter().all(|c| c == &certs[0]));
    }

    /// The failure-result path: a published error is shared with every
    /// waiter, counted as an error for each, and never poisons anyone
    /// with a hang. Driven through a hand-planted flight so the test is
    /// deterministic — the "leader" here is the test itself.
    #[test]
    fn waiters_share_a_published_failure_result() {
        const K: usize = 4;
        let s = Arc::new(svc());
        let bad = line("var x integer; x := ", r#"{}"#);
        let req = Request::parse(&bad).unwrap();
        let key = cache_key(&req, &s.limits);
        let flight = Arc::new(Flight::new());
        s.inflight
            .lock()
            .unwrap()
            .insert(key.canon.clone(), Arc::clone(&flight));

        let waiters: Vec<_> = (0..K)
            .map(|_| {
                let s = Arc::clone(&s);
                let bad = bad.clone();
                std::thread::spawn(move || s.handle_line(&bad))
            })
            .collect();
        // Each waiter holds one clone of the flight while attached.
        while Arc::strong_count(&flight) < K + 2 {
            std::thread::yield_now();
        }
        // Publish a failure the way a leader's guard would.
        s.inflight.lock().unwrap().remove(&key.canon);
        let failure = CachedResult::error(ErrorKind::Parse, "boom");
        *flight.slot.lock().unwrap() = Some(Some(failure));
        flight.cv.notify_all();

        let lines: Vec<String> = waiters.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(s.metrics.coalesced_hits.load(Relaxed), K as u64);
        assert_eq!(s.metrics.errors.load(Relaxed), K as u64);
        let stripped: Vec<String> = lines.iter().map(|l| strip_timing(l)).collect();
        assert!(stripped.iter().all(|l| l == &stripped[0]));
        let v = Json::parse(&lines[0]).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("parse")
        );
    }

    /// A leader that vanishes without a shareable result (publishing
    /// `None`, as a panicking or timed-out leader's guard does) releases
    /// its waiters to recompute instead of stranding them.
    #[test]
    fn an_abandoned_flight_releases_waiters_to_recompute() {
        let s = Arc::new(svc());
        let bad = line("var x integer; x := ", r#"{}"#);
        let req = Request::parse(&bad).unwrap();
        let key = cache_key(&req, &s.limits);
        let flight = Arc::new(Flight::new());
        s.inflight
            .lock()
            .unwrap()
            .insert(key.canon.clone(), Arc::clone(&flight));

        let waiter = {
            let s = Arc::clone(&s);
            let bad = bad.clone();
            std::thread::spawn(move || s.handle_line(&bad))
        };
        while Arc::strong_count(&flight) < 3 {
            std::thread::yield_now();
        }
        s.inflight.lock().unwrap().remove(&key.canon);
        *flight.slot.lock().unwrap() = Some(None);
        flight.cv.notify_all();

        // The waiter retried, became the leader, and computed for real.
        let v = Json::parse(&waiter.join().unwrap()).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(false));
        assert_eq!(s.metrics.cache_misses.load(Relaxed), 1);
        assert_eq!(s.metrics.coalesced_hits.load(Relaxed), 0);
    }

    /// A waiter whose own deadline expires while attached gets a
    /// structured timeout promptly — it never inherits the leader's
    /// (possibly longer) deadline, and never hangs.
    #[test]
    fn an_expired_waiter_gets_a_structured_timeout() {
        let s = svc();
        let req = Request::parse(&line(LEAKY, r#"{"x":"high"}"#)).unwrap();
        let key = cache_key(&req, &s.limits);
        // A flight that will never publish, as from a wedged leader.
        s.inflight
            .lock()
            .unwrap()
            .insert(key.canon.clone(), Arc::new(Flight::new()));
        let token = CancelToken::unbounded();
        token.cancel();
        s.note_request();
        let v = Json::parse(&s.execute_with_cancel(&req, &token)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("timeout")
        );
        assert_eq!(s.metrics.timeouts.load(Relaxed), 1);
        assert_eq!(s.metrics.coalesced_hits.load(Relaxed), 0);
    }

    // ---- self-healing cluster ops -------------------------------------

    #[test]
    fn ping_reports_the_shard_digest() {
        let s = svc();
        let v = Json::parse(&s.handle_line(r#"{"op":"ping"}"#)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("ping"));
        assert_eq!(v.get("entries").and_then(Json::as_u64), Some(0));
        assert_eq!(
            v.get("digest").and_then(Json::as_str),
            Some("0000000000000000"),
            "an empty shard digests to zero"
        );

        s.handle_line(&line(LEAKY, r#"{}"#));
        let v2 = Json::parse(&s.handle_line(r#"{"op":"ping"}"#)).unwrap();
        assert_eq!(v2.get("entries").and_then(Json::as_u64), Some(1));
        let digest = v2.get("digest").and_then(Json::as_str).unwrap();
        assert_ne!(digest, "0000000000000000");
        assert_eq!(digest, format!("{:016x}", s.shard_digest()));
    }

    #[test]
    fn replicate_installs_verified_entries_idempotently() {
        let s = svc();
        // Derive the key exactly as the serving path would, so the
        // pushed entry later answers the genuine request below.
        let genuine = r#"{"op":"certify","lattice":"two","source":"var x : integer; x := 0"}"#;
        let req = Request::parse(genuine).unwrap();
        let key = cache_key(&req, &Limits::default());
        let value = CachedResult {
            ok: true,
            fields: vec![("certified".to_string(), Json::Bool(true))],
        };
        let payload = String::from_utf8(encode_record(key.hash, &key.canon, &value)).unwrap();
        let push = format!(
            r#"{{"op":"replicate","payload":{}}}"#,
            Json::Str(payload.clone())
        );
        let v = Json::parse(&s.handle_line(&push)).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("installed").and_then(Json::as_bool), Some(true));
        assert_eq!(s.metrics.cluster_replica_installs.load(Relaxed), 1);
        assert_eq!(s.cache_len(), 1);

        // The same push again is acknowledged but installs nothing —
        // no journal growth, no metric movement (repair idempotence).
        let v2 = Json::parse(&s.handle_line(&push)).unwrap();
        assert_eq!(v2.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v2.get("installed").and_then(Json::as_bool), Some(false));
        assert_eq!(s.metrics.cluster_replica_installs.load(Relaxed), 1);
        assert_eq!(s.cache_len(), 1);

        // A forged fingerprint is refused at the verification gate.
        let forged = String::from_utf8(encode_record(key.hash ^ 1, &key.canon, &value)).unwrap();
        let bad = format!(r#"{{"op":"replicate","payload":{}}}"#, Json::Str(forged));
        let v3 = Json::parse(&s.handle_line(&bad)).unwrap();
        assert_eq!(v3.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v3.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("protocol")
        );
        assert_eq!(s.cache_len(), 1, "forgeries never touch the cache");

        // The installed entry now serves a genuine request as cached.
        let v4 = Json::parse(&s.handle_line(genuine)).unwrap();
        assert_eq!(v4.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(v4.get("certified").and_then(Json::as_bool), Some(true));
    }

    /// A program request over the hop budget is refused on every path
    /// before the cache is probed: with no `op` echo (so a relaying
    /// sender moves on to its next candidate), counted, and cached
    /// nowhere. Within the budget the same request computes.
    #[test]
    fn over_budget_forwards_are_refused_with_a_structured_error() {
        let hops = |n: u64| {
            let mut req = Request::parse(&line(LEAKY, r#"{}"#)).unwrap();
            req.id = Some(Json::Num(n as f64));
            req.hops = n;
            req
        };
        let assert_refused = |reply: &str| {
            let v = Json::parse(reply).unwrap();
            assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(error_kind(&v), Some("max_hops_exhausted"));
            assert!(v.get("op").is_none(), "{reply}");
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(99));
        };
        let s = svc();
        assert_refused(&s.handle_line(&hops(99).to_line()));
        assert_eq!(s.metrics.cluster_forward_hop_exhausted.load(Relaxed), 1);
        assert_eq!(s.metrics.errors.load(Relaxed), 1);
        assert_eq!(s.cache_len(), 0, "nothing was computed or cached");

        // Within the budget, the request computes.
        let v = Json::parse(&s.handle_line(&hops(MAX_HOPS).to_line())).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("certified").and_then(Json::as_bool), Some(true));
        assert_eq!(s.cache_len(), 1);

        // Its answer is cached now, and an over-budget copy is still
        // refused: on the loop thread's probe, and on the pooled path.
        let over = hops(99);
        let Some(Ok(inline)) = s.cached_reply(&over) else {
            panic!("the probe answers an over-budget request itself");
        };
        assert_refused(&inline);
        let key = cache_key(&over, &s.limits);
        assert_refused(&s.execute_miss(&over, key, &s.cancel_token(&over)));
        assert_eq!(s.metrics.cluster_forward_hop_exhausted.load(Relaxed), 3);
        assert_eq!(s.metrics.cache_hits.load(Relaxed), 0);
    }

    #[test]
    fn stats_cluster_object_reports_digest_and_peer_health() {
        let s = svc();
        s.handle_line(&line(LEAKY, r#"{}"#));
        let stats = Json::parse(&s.handle_line(r#"{"op":"stats"}"#)).unwrap();
        let cluster = stats.get("cluster").expect("stats carries cluster");
        assert_eq!(
            cluster.get("shard_digest").and_then(Json::as_str),
            Some(format!("{:016x}", s.shard_digest()).as_str())
        );
        // Standalone: no peers array (there is no failure detector).
        assert!(cluster.get("peers").is_none());

        // Clustered: every peer shows with a health state.
        let peers = ["127.0.0.1:7401", "127.0.0.1:7402"];
        let mut cfg = ClusterConfig::new(&peers);
        cfg.self_addr = Some(peers[0].to_string());
        let c = Service::new(16, Limits::default()).with_cluster(cfg);
        let stats = Json::parse(&c.handle_line(r#"{"op":"stats"}"#)).unwrap();
        let reported = stats
            .get("cluster")
            .and_then(|v| v.get("peers"))
            .and_then(Json::as_arr)
            .expect("clustered stats carry a peers array");
        assert_eq!(reported.len(), 1, "self is not its own peer");
        assert_eq!(
            reported[0].get("addr").and_then(Json::as_str),
            Some(peers[1])
        );
        assert_eq!(reported[0].get("health").and_then(Json::as_str), Some("up"));
        assert_eq!(reported[0].get("last_seen_ms"), Some(&Json::Null));
    }

    #[test]
    fn down_replicas_cost_no_socket() {
        // rf=2 over two nodes: every key's replica set is both nodes,
        // so every fresh computation owes the other node a push. With
        // the peer marked DOWN the push is skipped — no socket is ever
        // opened (the addresses are unroutable; a connect attempt would
        // eat seconds of timeout).
        let peers = ["127.0.0.1:7501", "127.0.0.1:7502"];
        let mut cfg = ClusterConfig::new(&peers);
        cfg.self_addr = Some(peers[0].to_string());
        cfg.replication = 2;
        let s = Service::new(16, Limits::default()).with_cluster(cfg);
        for _ in 0..crate::health::DEFAULT_FAILURE_THRESHOLD {
            s.cluster
                .as_ref()
                .unwrap()
                .health()
                .record_failure(peers[1]);
        }
        let started = Instant::now();
        let v = Json::parse(&s.handle_line(&line(LEAKY, r#"{}"#))).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "a DOWN replica must not cost a connect timeout"
        );
        assert_eq!(s.metrics.cluster_replicas_sent.load(Relaxed), 0);
    }

    /// A coalesced waiter gets the leader's result as soon as it is
    /// cached, not after the leader's replica push. The replica here
    /// accepts the push and never answers; the waiter must reply while
    /// the test still holds that connection open.
    #[test]
    fn coalesced_waiters_do_not_wait_for_replica_pushes() {
        let replica = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let peers = [
            "127.0.0.1:7601".to_string(),
            replica.local_addr().unwrap().to_string(),
        ];
        let mut cfg = ClusterConfig::new(&peers);
        cfg.self_addr = Some(peers[0].clone());
        cfg.replication = 2;
        cfg.peer_timeout_ms = 120_000;
        let s = Service::new(16, Limits::default()).with_cluster(cfg);

        let request = line(LEAKY, r#"{}"#);
        let req = Request::parse(&request).unwrap();
        let key = cache_key(&req, &s.limits);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let FlightRole::Leader(Some(guard)) = s.join_flight(&key) else {
                panic!("the flight table is empty and healthy");
            };
            let flight = Arc::clone(&guard.flight);
            scope.spawn(|| tx.send(s.handle_line(&request)).unwrap());
            // The table, the guard, `flight` and the waiter.
            while Arc::strong_count(&flight) < 4 {
                std::thread::yield_now();
            }
            let leader = scope.spawn(|| {
                let token = s.cancel_token(&req);
                s.lead(&req, &key, &token, Some(guard))
            });

            // The leader's push is connected and unanswered from here on.
            let (push, _) = replica.accept().unwrap();
            let reply = rx
                .recv_timeout(Duration::from_secs(20))
                .expect("the waiter replied while the push was held");
            let v = Json::parse(&reply).unwrap();
            assert_eq!(v.get("certified").and_then(Json::as_bool), Some(true));
            assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));
            assert_eq!(s.metrics.coalesced_hits.load(Relaxed), 1);

            // Closing the connection fails the push; the leader returns.
            drop(push);
            assert!(leader.join().unwrap().ok);
        });
        assert_eq!(s.metrics.cluster_replicas_sent.load(Relaxed), 0);
    }
}
