//! Peer plumbing for the sharded cluster: topology configuration, the
//! routed peer call on kept-alive connections, and the `peer-sync`
//! client that warm-starts a cold node from a loaded peer's cache.
//!
//! The cluster has no membership protocol and no coordinator — every
//! node (and every router) is handed the same static member list and
//! independently builds the same [`HashRing`]
//! over it. Requests are content-addressed by their cache fingerprint,
//! so "which node owns this request" is a pure function any party can
//! evaluate. A node that receives a request it does not own relays the
//! request itself to the owner, its `hops` raised by one, so the
//! computation happens exactly once cluster-wide; a node that starts
//! cold drains a peer's cache (`peer-sync` op) so it never re-explores
//! work the cluster already paid for. See `DESIGN.md` §14 for the
//! invariants.
//!
//! Every peer call — a relay, a replica push, a health probe, `repair`'s
//! `ping` — is one round trip on a connection that stays open
//! (`ClusterState::call_peer`). A caller takes an idle connection to
//! the peer, or opens one, and owns it for the whole exchange; it puts
//! the connection back only after reading exactly one reply line. So a
//! node holds at most as many connections to a peer as it has threads
//! that call at once: its pool workers and its health thread. A kept
//! connection that the peer has closed since (its idle timeout, a
//! restart, a SIGKILL) fails before any reply byte arrives, and the call
//! is made once more on a fresh connection; a timeout is never retried.
//! `peer-sync` pages and the CLI's one-shot clients open a fresh
//! connection per exchange.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::cache::{canon_hash, CacheKey};
use crate::client::{closed_unanswered, exchange, open, round_trip};
use crate::fault::Faults;
use crate::health::HealthTracker;
use crate::json::Json;
use crate::persist::decode_record;
use crate::protocol::{Op, Request};
use crate::ring::HashRing;
use crate::service::Service;

/// Longest chain of relays a program request may take: a node holding a
/// request relayed this many times computes it locally, and a request
/// that claims more is refused. Two nodes that disagree about ownership
/// (mid-reconfiguration) can bounce a request between them; the hop
/// budget turns that loop into a few extra network round-trips plus a
/// local computation.
pub const MAX_HOPS: u64 = 3;

/// Default per-call socket timeout for peer traffic (connect, read,
/// write). Peer calls sit on a worker thread, so they must fail fast
/// when a peer is down rather than stall the pool.
pub const DEFAULT_PEER_TIMEOUT_MS: u64 = 5_000;

/// Largest `peer-sync` page a node will serve, whatever the request
/// asks for (bounds the reply line length).
pub const MAX_SYNC_PAGE: u64 = 1_024;

/// Static cluster topology for one node or router.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Every node address in the cluster (including this node's own
    /// advertised address, when it is a node). All members must be
    /// handed the same list — the ring is derived from it.
    pub peers: Vec<String>,
    /// This node's advertised address as it appears in `peers`. `None`
    /// makes this process a router: it owns no shard and forwards
    /// everything.
    pub self_addr: Option<String>,
    /// Socket timeout for peer calls, in milliseconds.
    pub peer_timeout_ms: u64,
    /// Address of a loaded peer to `peer-sync` from at startup, before
    /// serving (journal shipping instead of re-exploring).
    pub sync_from: Option<String>,
    /// Replication factor: each fingerprint lives on the first
    /// `replication` distinct preference-list nodes. 1 = shard only
    /// (PR 9 behaviour); the primary pushes fresh entries to the other
    /// `replication - 1` replicas via the verified `replicate` path.
    pub replication: u64,
}

impl ClusterConfig {
    /// Topology over `peers` with the default timeout budget; a router
    /// until [`self_addr`](Self::self_addr) is set.
    pub fn new<S: AsRef<str>>(peers: &[S]) -> ClusterConfig {
        ClusterConfig {
            peers: peers.iter().map(|p| p.as_ref().to_string()).collect(),
            self_addr: None,
            peer_timeout_ms: DEFAULT_PEER_TIMEOUT_MS,
            sync_from: None,
            replication: 1,
        }
    }
}

/// A node's live view of the cluster: the config, the ring built from
/// it, the per-peer failure detector, the idle connections to each
/// peer, and the chaos hooks for simulated partitions.
pub(crate) struct ClusterState {
    config: ClusterConfig,
    ring: HashRing,
    health: HealthTracker,
    /// Peer address → connections to it that no call is using, the
    /// most recently returned last.
    idle: Mutex<HashMap<String, Vec<BufReader<TcpStream>>>>,
    faults: Arc<dyn Faults>,
}

impl ClusterState {
    /// Chaos-free construction (tests; the serve path threads its
    /// fault plan through [`with_faults`](Self::with_faults)).
    #[cfg(test)]
    pub(crate) fn new(config: ClusterConfig) -> ClusterState {
        ClusterState::with_faults(config, Arc::new(crate::fault::NoFaults))
    }

    /// [`new`](Self::new) with chaos hooks wired into the outbound
    /// peer-call path (per-peer `partition` drop rules).
    pub(crate) fn with_faults(config: ClusterConfig, faults: Arc<dyn Faults>) -> ClusterState {
        let ring = HashRing::new(&config.peers);
        let others: Vec<&String> = config
            .peers
            .iter()
            .filter(|p| Some(p.as_str()) != config.self_addr.as_deref())
            .collect();
        let health = HealthTracker::new(&others);
        ClusterState {
            config,
            ring,
            health,
            idle: Mutex::new(HashMap::new()),
            faults,
        }
    }

    pub(crate) fn ring(&self) -> &HashRing {
        &self.ring
    }

    pub(crate) fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// This node's advertised address; `None` for a router.
    pub(crate) fn self_addr(&self) -> Option<&str> {
        self.config.self_addr.as_deref()
    }

    pub(crate) fn replication(&self) -> u64 {
        self.config.replication.max(1)
    }

    pub(crate) fn peer_timeout(&self) -> Duration {
        Duration::from_millis(self.config.peer_timeout_ms.max(1))
    }

    /// The peers to try for `key_hash`, in order, with DOWN peers
    /// skipped. For a node: the first `replication` preference-list
    /// members, unless this node is one of them (then nothing —
    /// compute/serve locally; as a replica it usually has the entry)
    /// or every candidate is DOWN (then nothing — degrade to local
    /// computation rather than burn the timeout budget). For a router:
    /// the full preference walk, falling back to the unfiltered list
    /// when the detector claims everyone is DOWN (a router cannot
    /// compute, so it must try *something*).
    pub(crate) fn route(&self, key_hash: u64) -> Vec<String> {
        match &self.config.self_addr {
            Some(me) => {
                let rf = self.replication() as usize;
                let prefs = self.ring.preference_list(key_hash, rf);
                if prefs.iter().any(|p| p == me) {
                    return Vec::new();
                }
                prefs
                    .into_iter()
                    .filter(|p| !self.health.is_down(p))
                    .map(str::to_string)
                    .collect()
            }
            None => {
                let all: Vec<String> = self
                    .ring
                    .preference_list(key_hash, self.ring.len())
                    .into_iter()
                    .map(str::to_string)
                    .collect();
                let up: Vec<String> = all
                    .iter()
                    .filter(|p| !self.health.is_down(p))
                    .cloned()
                    .collect();
                if up.is_empty() {
                    all
                } else {
                    up
                }
            }
        }
    }

    /// The peers (excluding self) that should hold a replica of
    /// `key_hash` — the primary pushes fresh entries to these.
    pub(crate) fn replica_targets(&self, key_hash: u64) -> Vec<String> {
        let rf = self.replication() as usize;
        if rf <= 1 {
            return Vec::new();
        }
        let me = self.self_addr();
        self.ring
            .preference_list(key_hash, rf)
            .into_iter()
            .filter(|p| Some(*p) != me)
            .map(str::to_string)
            .collect()
    }

    /// One round trip to `addr` through the chaos layer (a partitioned
    /// peer fails as a connection would), on a kept connection when one
    /// is idle, with the call's outcome fed to the failure detector. A
    /// kept connection the peer closed before answering is replaced by a
    /// fresh one once, and only the outcome on the fresh one counts.
    pub(crate) fn call_peer(&self, addr: &str, line: &str) -> io::Result<String> {
        if self.faults.drop_peer(addr) {
            self.health.record_failure(addr);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("chaos: partitioned from {addr}"),
            ));
        }
        match self.round_trip_kept(addr, line) {
            Ok(reply) => {
                self.health.record_success(addr);
                Ok(reply)
            }
            Err(e) => {
                self.health.record_failure(addr);
                Err(e)
            }
        }
    }

    /// [`round_trip`] on an idle connection to `addr`, else on a fresh
    /// one. Every peer op is idempotent (relays are content-addressed,
    /// `replicate` and `repair` install only what is missing, `ping`
    /// only reads), so resending after a stale connection is safe. A
    /// connection goes back to the idle set only after a whole reply,
    /// and any error drops it.
    fn round_trip_kept(&self, addr: &str, line: &str) -> io::Result<String> {
        if let Some(mut conn) = self.take_idle(addr) {
            match round_trip(&mut conn, line) {
                Ok(reply) => {
                    self.keep(addr, conn);
                    return Ok(reply);
                }
                Err(e) if closed_unanswered(&e) => {}
                Err(e) => return Err(e),
            }
        }
        let mut conn = BufReader::new(open(addr, Some(self.peer_timeout()))?);
        let reply = round_trip(&mut conn, line)?;
        self.keep(addr, conn);
        Ok(reply)
    }

    fn take_idle(&self, addr: &str) -> Option<BufReader<TcpStream>> {
        self.idle.lock().ok()?.get_mut(addr)?.pop()
    }

    /// Puts `conn` back in `addr`'s idle set, unless bytes past its last
    /// reply are buffered: a peer that sent more than one line for one
    /// request would answer the next request with the extra line.
    fn keep(&self, addr: &str, conn: BufReader<TcpStream>) {
        if !conn.buffer().is_empty() {
            return;
        }
        let Ok(mut idle) = self.idle.lock() else {
            return;
        };
        match idle.get_mut(addr) {
            Some(conns) => conns.push(conn),
            None => {
                idle.insert(addr.to_string(), vec![conn]);
            }
        }
    }
}

/// What one [`sync_from_peer`] run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// `peer-sync` pages fetched.
    pub pages: u64,
    /// Entries decoded, verified, and installed into the local cache.
    pub entries_installed: u64,
    /// Entries dropped: undecodable record payloads or fingerprints
    /// that do not match their canonical text (forged or corrupt).
    pub entries_rejected: u64,
}

/// Warm-starts `service` from `peer`: pages the peer's cached results
/// over `peer-sync` and installs each verified entry locally (and into
/// the local journal, when persistence is on). Entries ship in the
/// journal record encoding, so this is journal shipping over TCP —
/// the receiving node never re-parses, re-proves, or re-explores.
///
/// Each entry is verified before installation: its claimed fingerprint
/// must equal [`canon_hash`] of its canonical text. A lying peer can
/// therefore waste bandwidth but cannot poison the cache — a forged
/// entry either fails verification here or sits under a fingerprint no
/// genuine request resolves to (lookups compare canonical text).
pub fn sync_from_peer(service: &Service, peer: &str, timeout: Duration) -> io::Result<SyncReport> {
    let mut report = SyncReport::default();
    let mut cursor = 0u64;
    loop {
        let mut req = Request::new(Op::PeerSync, "");
        req.cursor = Some(cursor);
        req.limit = Some(256);
        let reply = exchange(peer, &req.to_line(), Some(timeout))?;
        let v = Json::parse(&reply).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad sync reply: {e}"))
        })?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(io::Error::other(format!("peer refused sync: {reply}")));
        }
        report.pages += 1;
        let entries = v.get("entries").and_then(Json::as_arr).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "sync reply lacks entries")
        })?;
        for entry in entries {
            let Some(payload) = entry.as_str() else {
                report.entries_rejected += 1;
                continue;
            };
            match verified_entry(payload) {
                Some((key, value)) => {
                    if service.install_synced(&key, value) {
                        report.entries_installed += 1;
                    }
                }
                None => report.entries_rejected += 1,
            }
        }
        let done = v.get("done").and_then(Json::as_bool).unwrap_or(true);
        let next = v.get("next").and_then(Json::as_u64).unwrap_or(cursor);
        if done || next <= cursor {
            return Ok(report);
        }
        cursor = next;
    }
}

/// Decodes one shipped journal record payload and verifies its
/// fingerprint against its canonical text. `None` = reject. This is
/// the single gate every remotely-sourced entry passes through —
/// `peer-sync` pulls (warm starts and `repair`) and `replicate` pushes
/// both verify here before anything touches the cache.
pub(crate) fn verified_entry(payload: &str) -> Option<(CacheKey, crate::cache::CachedResult)> {
    let entry = decode_record(payload.as_bytes())?;
    if canon_hash(&entry.key.canon) != Some(entry.key.hash) {
        return None; // forged or corrupt fingerprint
    }
    Some((entry.key, entry.value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedResult;
    use crate::health::PeerHealth;
    use crate::persist::encode_record;
    use std::io::{BufRead, Write};
    use std::net::TcpListener;

    #[test]
    fn verified_entry_accepts_genuine_records_and_rejects_forgeries() {
        let key = CacheKey::of(&["certify", "two", "var x : integer; x := 0"]);
        let value = CachedResult {
            ok: true,
            fields: vec![("certified".to_string(), Json::Bool(true))],
        };
        let payload = String::from_utf8(encode_record(key.hash, &key.canon, &value)).unwrap();
        let (got_key, got_value) = verified_entry(&payload).expect("genuine record verifies");
        assert_eq!(got_key.hash, key.hash);
        assert_eq!(got_key.canon, key.canon);
        assert!(got_value.ok);

        // A forged fingerprint over someone else's canon is rejected.
        let forged = String::from_utf8(encode_record(key.hash ^ 1, &key.canon, &value)).unwrap();
        assert!(verified_entry(&forged).is_none());

        // Canonical text that is not canonical at all is rejected even
        // with a self-consistent JSON shape.
        let junk = String::from_utf8(encode_record(key.hash, "not canonical", &value)).unwrap();
        assert!(verified_entry(&junk).is_none());

        // Byte soup and truncations never decode.
        assert!(verified_entry("").is_none());
        assert!(verified_entry("{\"h\":\"zz\"}").is_none());
        assert!(verified_entry(&payload[..payload.len() / 2]).is_none());
    }

    #[test]
    fn cluster_state_routes_around_itself() {
        let peers = ["127.0.0.1:7101", "127.0.0.1:7102", "127.0.0.1:7103"];
        let mut cfg = ClusterConfig::new(&peers);
        cfg.self_addr = Some(peers[0].to_string());
        let node = ClusterState::new(cfg.clone());
        let mut saw_self_owned = false;
        let mut saw_forwarded = false;
        for key in 0..2000u64 {
            let hash = crate::fault::splitmix64(key);
            let route = node.route(hash);
            match node.ring().node_for(hash) {
                Some(owner) if owner == peers[0] => {
                    assert!(route.is_empty(), "own keys compute locally");
                    saw_self_owned = true;
                }
                Some(owner) => {
                    assert_eq!(route, vec![owner.to_string()]);
                    saw_forwarded = true;
                }
                None => unreachable!("ring is non-empty"),
            }
        }
        assert!(saw_self_owned && saw_forwarded);

        // A router routes everything and walks the whole ring.
        cfg.self_addr = None;
        let router = ClusterState::new(cfg);
        let route = router.route(crate::fault::splitmix64(7));
        assert_eq!(route.len(), peers.len());
    }

    #[test]
    fn routing_skips_down_peers_and_replication_widens_routes() {
        let peers = ["127.0.0.1:7201", "127.0.0.1:7202", "127.0.0.1:7203"];
        let mut cfg = ClusterConfig::new(&peers);
        cfg.replication = 2;
        cfg.self_addr = Some(peers[0].to_string());
        let node = ClusterState::new(cfg.clone());

        // Find a key whose 2-node replica set excludes this node.
        let hash = (0..5000u64)
            .map(crate::fault::splitmix64)
            .find(|&h| {
                !node
                    .ring()
                    .preference_list(h, 2)
                    .iter()
                    .any(|p| *p == peers[0])
            })
            .expect("some key is owned elsewhere");
        let full = node.route(hash);
        assert_eq!(full.len(), 2, "rf=2 offers both replicas");

        // Opening the owner's circuit drops it from the route.
        for _ in 0..crate::health::DEFAULT_FAILURE_THRESHOLD {
            node.health().record_failure(&full[0]);
        }
        let degraded = node.route(hash);
        assert_eq!(degraded, full[1..].to_vec());

        // All replicas down: degrade to local computation (empty).
        for _ in 0..crate::health::DEFAULT_FAILURE_THRESHOLD {
            node.health().record_failure(&full[1]);
        }
        assert!(node.route(hash).is_empty());

        // A replica set containing self always computes locally.
        let own = (0..5000u64)
            .map(crate::fault::splitmix64)
            .find(|&h| node.ring().node_for(h) == Some(peers[0]))
            .unwrap();
        assert!(node.route(own).is_empty());

        // replica_targets: the other members of the replica set.
        let targets = node.replica_targets(own);
        assert_eq!(targets.len(), 1);
        assert_ne!(targets[0], peers[0]);
        let mut rf1 = ClusterConfig::new(&peers);
        rf1.self_addr = Some(peers[0].to_string());
        assert!(ClusterState::new(rf1).replica_targets(own).is_empty());

        // A router whose detector lost everyone fails open.
        cfg.self_addr = None;
        let router = ClusterState::new(cfg);
        for p in &peers {
            for _ in 0..crate::health::DEFAULT_FAILURE_THRESHOLD {
                router.health().record_failure(p);
            }
        }
        assert_eq!(router.route(hash).len(), peers.len());
    }

    const PING: &str = r#"{"op":"ping"}"#;
    const PONG: &str = "{\"ok\":true,\"op\":\"ping\"}\n";

    /// A node whose one peer is the fake peer on `listener`, with a peer
    /// timeout of `timeout_ms`.
    fn node_facing(listener: &TcpListener, timeout_ms: u64) -> (ClusterState, String) {
        let me = "127.0.0.1:7801".to_string();
        let addr = listener.local_addr().unwrap().to_string();
        let mut cfg = ClusterConfig::new(&[me.clone(), addr.clone()]);
        cfg.self_addr = Some(me);
        cfg.peer_timeout_ms = timeout_ms;
        (ClusterState::new(cfg), addr)
    }

    /// The fake peer: accepts one connection and answers each request
    /// line it reads there with the next of `replies`, each in one
    /// write, until the replies run out or the connection closes.
    /// Returns the connection, still open.
    fn answer(listener: &TcpListener, replies: &[&str]) -> TcpStream {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for reply in replies {
            let mut request = String::new();
            if reader.read_line(&mut request).unwrap_or(0) == 0 {
                break;
            }
            (&stream).write_all(reply.as_bytes()).unwrap();
        }
        stream
    }

    /// Accepts and drops every connection waiting on `listener`; returns
    /// how many there were.
    fn waiting_connections(listener: &TcpListener) -> usize {
        listener.set_nonblocking(true).unwrap();
        let mut n = 0;
        while listener.accept().is_ok() {
            n += 1;
        }
        listener.set_nonblocking(false).unwrap();
        n
    }

    #[test]
    fn two_calls_share_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (node, addr) = node_facing(&listener, 10_000);
        std::thread::scope(|scope| {
            let peer = scope.spawn(|| answer(&listener, &[PONG, PONG]));
            for _ in 0..2 {
                assert_eq!(node.call_peer(&addr, PING).unwrap(), PONG.trim_end());
            }
            peer.join().unwrap();
        });
        assert_eq!(
            waiting_connections(&listener),
            0,
            "the second call connected"
        );
    }

    #[test]
    fn a_connection_the_peer_closed_is_replaced_without_a_strike() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (node, addr) = node_facing(&listener, 10_000);
        std::thread::scope(|scope| {
            let first = scope.spawn(|| answer(&listener, &[PONG]));
            node.call_peer(&addr, PING).unwrap();
            // The peer closes the kept connection, as its idle timeout
            // or a restart would.
            drop(first.join().unwrap());
            let second = scope.spawn(|| answer(&listener, &[PONG]));
            assert_eq!(node.call_peer(&addr, PING).unwrap(), PONG.trim_end());
            second.join().unwrap();
        });
        assert_eq!(node.health().health(&addr), PeerHealth::Up);
        assert_eq!(waiting_connections(&listener), 0);
    }

    #[test]
    fn a_peer_that_never_answers_costs_one_connection_and_one_strike_per_call() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (node, addr) = node_facing(&listener, 50);
        // A kept connection, accepted by a peer that never answers.
        let kept = open(&addr, Some(node.peer_timeout())).unwrap();
        node.keep(&addr, BufReader::new(kept));
        let _held = listener.accept().unwrap();
        let expected = [PeerHealth::Suspect, PeerHealth::Suspect, PeerHealth::Down];
        for (call, health) in expected.into_iter().enumerate() {
            let err = node.call_peer(&addr, PING).unwrap_err();
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "call {call}: {err}"
            );
            assert_eq!(node.health().health(&addr), health, "call {call}");
            // The first call timed out on the kept connection and did
            // not connect again; each later one connected once.
            assert_eq!(waiting_connections(&listener), usize::from(call > 0));
        }
    }

    #[test]
    fn a_connection_with_a_second_reply_line_is_not_reused() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (node, addr) = node_facing(&listener, 10_000);
        let two_lines = "{\"ok\":true,\"n\":1}\n{\"ok\":true,\"n\":2}\n";
        std::thread::scope(|scope| {
            let first = scope.spawn(|| answer(&listener, &[two_lines]));
            assert_eq!(node.call_peer(&addr, PING).unwrap(), r#"{"ok":true,"n":1}"#);
            let _first = first.join().unwrap();
            assert!(node.take_idle(&addr).is_none(), "the connection was kept");
            let second = scope.spawn(|| answer(&listener, &["{\"ok\":true,\"n\":3}\n"]));
            assert_eq!(node.call_peer(&addr, PING).unwrap(), r#"{"ok":true,"n":3}"#);
            second.join().unwrap();
        });
    }

    #[test]
    fn partitioned_peer_calls_fail_fast_and_open_the_circuit() {
        let peers = ["127.0.0.1:7301", "127.0.0.1:7302"];
        let mut cfg = ClusterConfig::new(&peers);
        cfg.self_addr = Some(peers[0].to_string());
        let mut plan = crate::fault::FaultPlan::new(3);
        plan.partitions = vec![(peers[1].to_string(), 1000)];
        let node = ClusterState::with_faults(cfg, Arc::new(plan));
        for _ in 0..crate::health::DEFAULT_FAILURE_THRESHOLD {
            let err = node.call_peer(peers[1], "{\"op\":\"ping\"}").unwrap_err();
            assert!(err.to_string().contains("partitioned"), "{err}");
        }
        assert!(node.health().is_down(peers[1]));
    }
}
