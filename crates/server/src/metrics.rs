//! Service counters and a fixed-bucket latency histogram.
//!
//! Everything is lock-free (`AtomicU64` with relaxed ordering — the
//! counters are statistics, not synchronization), so workers never
//! contend while recording.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use crate::json::Json;

/// Upper bounds (µs) of the latency histogram buckets; a final
/// unbounded bucket catches everything slower.
pub const LATENCY_BUCKETS_US: [u64; 10] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000,
];

/// Live counters for one service instance.
#[derive(Default)]
pub struct Metrics {
    /// Requests received (any op, including malformed lines).
    pub requests: AtomicU64,
    /// `certify` requests processed.
    pub certify: AtomicU64,
    /// `infer` requests processed.
    pub infer: AtomicU64,
    /// `flows` requests processed.
    pub flows: AtomicU64,
    /// `lint` requests processed.
    pub lint: AtomicU64,
    /// `explore` requests processed.
    pub explore: AtomicU64,
    /// `checkproof` requests processed.
    pub checkproof: AtomicU64,
    /// Proof certificates emitted by the Theorem 1 prover (`certify`
    /// with `with_proof`, freshly computed — cached re-serves do not
    /// count, which is exactly what makes "zero re-proving" checkable).
    pub proofs_emitted: AtomicU64,
    /// Total bytes of every certificate emitted.
    pub proof_bytes_total: AtomicU64,
    /// Certificates that validated (freshly computed verdicts).
    pub checkproof_valid: AtomicU64,
    /// Certificates rejected with a structured stage error.
    pub checkproof_rejected: AtomicU64,
    /// `checkproof` verdicts served from the digest-addressed cache.
    pub checkproof_cache_hits: AtomicU64,
    /// Results served from the cache.
    pub cache_hits: AtomicU64,
    /// Results computed because the cache had no entry.
    pub cache_misses: AtomicU64,
    /// Error responses of any kind.
    pub errors: AtomicU64,
    /// Requests refused because the queue was full.
    pub overloaded: AtomicU64,
    /// Worker panics survived (the job got an `internal` error).
    pub panics: AtomicU64,
    /// Requests whose deadline expired (structured `timeout` errors).
    pub timeouts: AtomicU64,
    /// Analysis passes that panicked and were degraded to `SF000`.
    pub pass_panics: AtomicU64,
    /// Abstract states visited by (non-cached) `explore` requests.
    pub explore_states: AtomicU64,
    /// States skipped by partial-order reduction in (non-cached)
    /// `explore` requests.
    pub explore_pruned: AtomicU64,
    /// Wall time spent inside (non-cached) `explore` requests, in µs.
    pub explore_us: AtomicU64,
    /// TCP connections currently open on the poll-loop front-end.
    pub conn_open: AtomicU64,
    /// TCP connections ever accepted by the poll-loop front-end.
    pub conn_accepted_total: AtomicU64,
    /// Connections disconnected for exceeding the write-buffer
    /// high-water mark (unbounded-slow readers).
    pub conn_rejected_overloaded: AtomicU64,
    /// Connections closed by the stall (mid-line slowloris) or idle
    /// timeout.
    pub conn_stalled_closed: AtomicU64,
    /// Deepest per-connection pipeline observed (requests in flight on
    /// one connection at once).
    pub pipelined_depth_max: AtomicU64,
    /// Requests that attached to another request's in-flight
    /// computation instead of recomputing (single-flight coalescing).
    pub coalesced_hits: AtomicU64,
    /// Requests this node forwarded to the shard owner instead of
    /// computing locally.
    pub cluster_forwards: AtomicU64,
    /// Forwarded requests whose relayed reply was already cached at the
    /// owner (`"cached":true`) — cluster-wide dedup working.
    pub cluster_forward_hits: AtomicU64,
    /// `peer-sync` pages this node served to warm-starting peers.
    pub cluster_peer_syncs: AtomicU64,
    /// Nodes on this node's hash ring (gauge; 0 when not clustered).
    pub cluster_hash_ring_size: AtomicU64,
    /// Program requests refused because their hop count exceeded the
    /// budget (structured `max_hops_exhausted` — a routing loop guard).
    pub cluster_forward_hop_exhausted: AtomicU64,
    /// Replica pushes this node sent that the replica acknowledged.
    pub cluster_replicas_sent: AtomicU64,
    /// Verified replica entries this node installed via `replicate`.
    pub cluster_replica_installs: AtomicU64,
    /// Anti-entropy `repair` rounds that actually pulled entries.
    pub cluster_repairs: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    latency_total_us: AtomicU64,
    latency_count: AtomicU64,
}

impl Metrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Increments a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Relaxed);
    }

    /// Records one request's service latency.
    pub fn record_latency(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.latency[idx].fetch_add(1, Relaxed);
        self.latency_total_us.fetch_add(us, Relaxed);
        self.latency_count.fetch_add(1, Relaxed);
    }

    /// Snapshot as response fields for the `stats` op.
    pub fn snapshot_fields(&self) -> Vec<(String, Json)> {
        let n = |a: &AtomicU64| Json::Num(a.load(Relaxed) as f64);
        let count = self.latency_count.load(Relaxed);
        let mean_us = if count == 0 {
            0.0
        } else {
            self.latency_total_us.load(Relaxed) as f64 / count as f64
        };
        let explore_us = self.explore_us.load(Relaxed);
        let explore_rate = if explore_us == 0 {
            0.0
        } else {
            self.explore_states.load(Relaxed) as f64 / (explore_us as f64 / 1_000_000.0)
        };
        let visited = self.explore_states.load(Relaxed);
        let pruned = self.explore_pruned.load(Relaxed);
        // Fraction of the encountered frontier the reduction skipped.
        let reduction_ratio = if visited + pruned == 0 {
            0.0
        } else {
            pruned as f64 / (visited + pruned) as f64
        };
        let histogram: Vec<Json> = self
            .latency
            .iter()
            .enumerate()
            .map(|(i, bucket)| {
                let bound = LATENCY_BUCKETS_US
                    .get(i)
                    .map_or_else(|| "inf".to_string(), u64::to_string);
                Json::Obj(vec![
                    ("le_us".to_string(), Json::Str(bound)),
                    ("count".to_string(), Json::Num(bucket.load(Relaxed) as f64)),
                ])
            })
            .collect();
        vec![
            ("requests".to_string(), n(&self.requests)),
            ("certify".to_string(), n(&self.certify)),
            ("infer".to_string(), n(&self.infer)),
            ("flows".to_string(), n(&self.flows)),
            ("lint".to_string(), n(&self.lint)),
            ("explore".to_string(), n(&self.explore)),
            ("checkproof".to_string(), n(&self.checkproof)),
            (
                "cert".to_string(),
                Json::Obj(vec![
                    ("proofs_emitted".to_string(), n(&self.proofs_emitted)),
                    ("checkproof_requests".to_string(), n(&self.checkproof)),
                    ("checkproof_valid".to_string(), n(&self.checkproof_valid)),
                    (
                        "checkproof_rejected".to_string(),
                        n(&self.checkproof_rejected),
                    ),
                    ("proof_bytes_total".to_string(), n(&self.proof_bytes_total)),
                    (
                        "cache_hits_by_digest".to_string(),
                        n(&self.checkproof_cache_hits),
                    ),
                ]),
            ),
            ("cache_hits".to_string(), n(&self.cache_hits)),
            ("cache_misses".to_string(), n(&self.cache_misses)),
            ("errors".to_string(), n(&self.errors)),
            ("overloaded".to_string(), n(&self.overloaded)),
            ("panics".to_string(), n(&self.panics)),
            ("timeouts".to_string(), n(&self.timeouts)),
            ("pass_panics".to_string(), n(&self.pass_panics)),
            ("explore_states".to_string(), n(&self.explore_states)),
            ("explore_states_pruned".to_string(), n(&self.explore_pruned)),
            (
                "explore_reduction_ratio".to_string(),
                Json::Num(reduction_ratio),
            ),
            (
                "explore_states_per_sec".to_string(),
                Json::Num(explore_rate),
            ),
            (
                "conn".to_string(),
                Json::Obj(vec![
                    ("open".to_string(), n(&self.conn_open)),
                    ("accepted_total".to_string(), n(&self.conn_accepted_total)),
                    (
                        "rejected_overloaded".to_string(),
                        n(&self.conn_rejected_overloaded),
                    ),
                    ("stalled_closed".to_string(), n(&self.conn_stalled_closed)),
                    (
                        "pipelined_depth_max".to_string(),
                        n(&self.pipelined_depth_max),
                    ),
                    ("coalesced_hits".to_string(), n(&self.coalesced_hits)),
                ]),
            ),
            (
                "cluster".to_string(),
                Json::Obj(vec![
                    ("forwards".to_string(), n(&self.cluster_forwards)),
                    ("forward_hits".to_string(), n(&self.cluster_forward_hits)),
                    ("peer_syncs".to_string(), n(&self.cluster_peer_syncs)),
                    (
                        "hash_ring_size".to_string(),
                        n(&self.cluster_hash_ring_size),
                    ),
                    (
                        "forward_hop_exhausted".to_string(),
                        n(&self.cluster_forward_hop_exhausted),
                    ),
                    ("replicas_sent".to_string(), n(&self.cluster_replicas_sent)),
                    (
                        "replica_installs".to_string(),
                        n(&self.cluster_replica_installs),
                    ),
                    ("repairs".to_string(), n(&self.cluster_repairs)),
                ]),
            ),
            ("latency_mean_us".to_string(), Json::Num(mean_us)),
            ("latency_histogram".to_string(), Json::Arr(histogram)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets() {
        let m = Metrics::new();
        m.record_latency(Duration::from_micros(40)); // -> le 50
        m.record_latency(Duration::from_micros(70)); // -> le 100
        m.record_latency(Duration::from_secs(2)); // -> inf
        let fields = m.snapshot_fields();
        let hist = fields
            .iter()
            .find(|(k, _)| k == "latency_histogram")
            .and_then(|(_, v)| v.as_arr())
            .unwrap();
        assert_eq!(hist.len(), LATENCY_BUCKETS_US.len() + 1);
        let count_of = |i: usize| hist[i].get("count").and_then(Json::as_u64).unwrap();
        assert_eq!(count_of(0), 1);
        assert_eq!(count_of(1), 1);
        assert_eq!(count_of(LATENCY_BUCKETS_US.len()), 1);
        let mean = fields
            .iter()
            .find(|(k, _)| k == "latency_mean_us")
            .map(|(_, v)| match v {
                Json::Num(n) => *n,
                _ => unreachable!(),
            })
            .unwrap();
        assert!(mean > 0.0);
    }

    /// Pins the stats schema: every key a pre-PR-8 client may depend on
    /// is still present with its original spelling, and the new `conn`
    /// object is purely additive.
    #[test]
    fn stats_schema_stays_backward_compatible() {
        let m = Metrics::new();
        let fields = m.snapshot_fields();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        for legacy in [
            "requests",
            "certify",
            "infer",
            "flows",
            "lint",
            "explore",
            "checkproof",
            "cert",
            "cache_hits",
            "cache_misses",
            "errors",
            "overloaded",
            "panics",
            "timeouts",
            "pass_panics",
            "explore_states",
            "explore_states_pruned",
            "explore_reduction_ratio",
            "explore_states_per_sec",
            "latency_mean_us",
            "latency_histogram",
        ] {
            assert!(keys.contains(&legacy), "missing legacy stats key {legacy}");
        }
        let conn = fields
            .iter()
            .find(|(k, _)| k == "conn")
            .map(|(_, v)| v)
            .expect("stats carries a conn object");
        let Json::Obj(conn_fields) = conn else {
            panic!("conn must be an object");
        };
        let conn_keys: Vec<&str> = conn_fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            conn_keys,
            vec![
                "open",
                "accepted_total",
                "rejected_overloaded",
                "stalled_closed",
                "pipelined_depth_max",
                "coalesced_hits",
            ]
        );
        // The cluster object (PR 9) is additive in the same way.
        let cluster = fields
            .iter()
            .find(|(k, _)| k == "cluster")
            .map(|(_, v)| v)
            .expect("stats carries a cluster object");
        let Json::Obj(cluster_fields) = cluster else {
            panic!("cluster must be an object");
        };
        let cluster_keys: Vec<&str> = cluster_fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            cluster_keys,
            vec![
                "forwards",
                "forward_hits",
                "peer_syncs",
                "hash_ring_size",
                "forward_hop_exhausted",
                "replicas_sent",
                "replica_installs",
                "repairs",
            ],
            "PR 10 replication counters are additive at the tail"
        );
    }
}
