//! Peer plumbing for the sharded cluster: topology configuration, the
//! routed peer call (over the client's one request/reply exchange), and
//! the `peer-sync` client that warm-starts a cold node from a loaded
//! peer's cache.
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

use std::io;
use std::sync::Arc;
use std::time::Duration;

use crate::cache::{canon_hash, CacheKey};
use crate::client::exchange;
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
/// it, the per-peer failure detector, and the chaos hooks for
/// simulated partitions.
pub(crate) struct ClusterState {
    config: ClusterConfig,
    ring: HashRing,
    health: HealthTracker,
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

    /// One-shot call to `addr` through the chaos layer (a partitioned
    /// peer fails as a connection would) with the outcome fed to the
    /// failure detector.
    pub(crate) fn call_peer(&self, addr: &str, line: &str) -> io::Result<String> {
        if self.faults.drop_peer(addr) {
            self.health.record_failure(addr);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("chaos: partitioned from {addr}"),
            ));
        }
        match exchange(addr, line, Some(self.peer_timeout())) {
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
    use crate::persist::encode_record;

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
