//! Service counters and a fixed-bucket latency histogram.
//!
//! Everything is lock-free (`AtomicU64` with relaxed ordering — the
//! counters are statistics, not synchronization), so workers never
//! contend while recording.
//!
//! Each counter is declared once, as one row of the `counters!` table
//! below: its doc, its field, and the path `stats` shows it at
//! (`"errors"` at the top level, `"conn.open"` inside the `conn`
//! object). The table generates the [`Metrics`] struct, the lookup
//! `Metrics::counter` and the order `stats` lists the counters in.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use crate::json::Json;

/// Upper bounds (µs) of the latency histogram buckets; a final
/// unbounded bucket catches everything slower.
pub const LATENCY_BUCKETS_US: [u64; 10] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000,
];

/// Generates [`Metrics`] from rows of `field => "stats.path";`, each
/// under its doc; a row without a path (`field;`) is a counter `stats`
/// shows only through a derived value.
macro_rules! counters {
    ($( $(#[$doc:meta])* $field:ident $(=> $path:literal)?; )*) => {
        /// Live counters for one service instance.
        #[derive(Default)]
        pub struct Metrics {
            $( $(#[$doc])* pub $field: AtomicU64, )*
            latency: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
            latency_total_us: AtomicU64,
            latency_count: AtomicU64,
        }

        impl Metrics {
            /// Every path `stats` shows a counter at, in table order.
            const PATHS: &'static [&'static str] = &[$($($path,)?)*];

            /// The counter `stats` shows at `path` (`"errors"`,
            /// `"conn.open"`); a program op's counter is at the op's
            /// wire name.
            pub(crate) fn counter(&self, path: &str) -> Option<&AtomicU64> {
                match path {
                    $($($path => Some(&self.$field),)?)*
                    _ => None,
                }
            }
        }
    };
}

counters! {
    /// Requests received (any op, including malformed lines).
    requests => "requests";
    /// `certify` requests processed.
    certify => "certify";
    /// `infer` requests processed.
    infer => "infer";
    /// `flows` requests processed.
    flows => "flows";
    /// `lint` requests processed.
    lint => "lint";
    /// `explore` requests processed.
    explore => "explore";
    /// `checkproof` requests processed (also shown as
    /// `cert.checkproof_requests`).
    checkproof => "checkproof";
    /// Proof certificates emitted by the Theorem 1 prover (`certify`
    /// with `with_proof`, freshly computed — cached re-serves do not
    /// count, which is exactly what makes "zero re-proving" checkable).
    proofs_emitted => "cert.proofs_emitted";
    /// Certificates that validated (freshly computed verdicts).
    checkproof_valid => "cert.checkproof_valid";
    /// Certificates rejected with a structured stage error.
    checkproof_rejected => "cert.checkproof_rejected";
    /// Total bytes of every certificate emitted.
    proof_bytes_total => "cert.proof_bytes_total";
    /// `checkproof` verdicts served from the digest-addressed cache.
    checkproof_cache_hits => "cert.cache_hits_by_digest";
    /// Results served from the cache.
    cache_hits => "cache_hits";
    /// Results computed because the cache had no entry.
    cache_misses => "cache_misses";
    /// Error responses of any kind.
    errors => "errors";
    /// Requests refused because the queue was full.
    overloaded => "overloaded";
    /// Worker panics survived (the job got an `internal` error).
    panics => "panics";
    /// Requests whose deadline expired (structured `timeout` errors).
    timeouts => "timeouts";
    /// Analysis passes that panicked and were degraded to `SF000`.
    pass_panics => "pass_panics";
    /// Abstract states visited by (non-cached) `explore` requests.
    explore_states => "explore_states";
    /// States skipped by partial-order reduction in (non-cached)
    /// `explore` requests.
    explore_pruned => "explore_states_pruned";
    /// Wall time spent inside (non-cached) `explore` requests, in µs;
    /// `stats` shows it as `explore_states_per_sec`.
    explore_us;
    /// TCP connections currently open on the poll-loop front-end.
    conn_open => "conn.open";
    /// TCP connections ever accepted by the poll-loop front-end.
    conn_accepted_total => "conn.accepted_total";
    /// Connections disconnected for exceeding the write-buffer
    /// high-water mark (unbounded-slow readers).
    conn_rejected_overloaded => "conn.rejected_overloaded";
    /// Connections closed by the stall (mid-line slowloris) or idle
    /// timeout.
    conn_stalled_closed => "conn.stalled_closed";
    /// Deepest per-connection pipeline observed (requests in flight on
    /// one connection at once).
    pipelined_depth_max => "conn.pipelined_depth_max";
    /// Requests that attached to another request's in-flight
    /// computation instead of recomputing (single-flight coalescing).
    coalesced_hits => "conn.coalesced_hits";
    /// Requests this node forwarded to the shard owner instead of
    /// computing locally.
    cluster_forwards => "cluster.forwards";
    /// Forwarded requests whose relayed reply was already cached at the
    /// owner (`"cached":true`) — cluster-wide dedup working.
    cluster_forward_hits => "cluster.forward_hits";
    /// `peer-sync` pages this node served to warm-starting peers.
    cluster_peer_syncs => "cluster.peer_syncs";
    /// Nodes on this node's hash ring (gauge; 0 when not clustered).
    cluster_hash_ring_size => "cluster.hash_ring_size";
    /// Program requests refused because their hop count exceeded the
    /// budget (structured `max_hops_exhausted` — a routing loop guard).
    cluster_forward_hop_exhausted => "cluster.forward_hop_exhausted";
    /// Replica pushes this node sent that the replica acknowledged.
    cluster_replicas_sent => "cluster.replicas_sent";
    /// Verified replica entries this node installed via `replicate`.
    cluster_replica_installs => "cluster.replica_installs";
    /// Anti-entropy `repair` rounds that actually pulled entries.
    cluster_repairs => "cluster.repairs";
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

    /// Snapshot as response fields for the `stats` op: the counters in
    /// table order, each section's object where its first counter is,
    /// and the derived values spliced in where they have always been.
    pub fn snapshot_fields(&self) -> Vec<(String, Json)> {
        let count_of = |c: &AtomicU64| c.load(Relaxed) as f64;
        let mut fields: Vec<(String, Json)> = Vec::new();
        for &path in Self::PATHS {
            let value = Json::Num(self.counter(path).map_or(0.0, count_of));
            let Some((section, key)) = path.split_once('.') else {
                fields.push((path.to_string(), value));
                continue;
            };
            if !fields.iter().any(|(k, _)| k == section) {
                fields.push((section.to_string(), Json::Obj(Vec::new())));
            }
            if let Some((_, Json::Obj(object))) = fields.iter_mut().find(|(k, _)| k == section) {
                object.push((key.to_string(), value));
            }
        }

        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        let (visited, pruned) = (
            count_of(&self.explore_states),
            count_of(&self.explore_pruned),
        );
        if let Some((_, Json::Obj(cert))) = fields.iter_mut().find(|(k, _)| k == "cert") {
            insert_after(
                cert,
                "proofs_emitted",
                [("checkproof_requests", count_of(&self.checkproof))],
            );
        }
        insert_after(
            &mut fields,
            "explore_states_pruned",
            [
                // Fraction of the encountered frontier the reduction skipped.
                ("explore_reduction_ratio", ratio(pruned, visited + pruned)),
                (
                    "explore_states_per_sec",
                    ratio(visited, count_of(&self.explore_us) / 1_000_000.0),
                ),
            ],
        );
        let histogram = self
            .latency
            .iter()
            .enumerate()
            .map(|(i, bucket)| {
                let bound = LATENCY_BUCKETS_US
                    .get(i)
                    .map_or_else(|| "inf".to_string(), u64::to_string);
                Json::Obj(vec![
                    ("le_us".to_string(), Json::Str(bound)),
                    ("count".to_string(), Json::Num(count_of(bucket))),
                ])
            })
            .collect();
        let mean_us = ratio(
            count_of(&self.latency_total_us),
            count_of(&self.latency_count),
        );
        fields.push(("latency_mean_us".to_string(), Json::Num(mean_us)));
        fields.push(("latency_histogram".to_string(), Json::Arr(histogram)));
        fields
    }
}

/// Inserts `values` into `fields` just after the key `after`.
fn insert_after<const N: usize>(
    fields: &mut Vec<(String, Json)>,
    after: &str,
    values: [(&str, f64); N],
) {
    let at = fields
        .iter()
        .position(|(k, _)| k == after)
        .map_or(fields.len(), |i| i + 1);
    fields.splice(at..at, values.map(|(k, v)| (k.to_string(), Json::Num(v))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolHealth;
    use crate::protocol::{Op, Request};
    use crate::service::{Limits, Service};

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

    /// Every key path of `v` in document order, an array's elements
    /// under `[]`, each path once.
    fn key_paths(v: &Json, prefix: &str, out: &mut Vec<String>) {
        match v {
            Json::Obj(fields) => {
                for (key, value) in fields {
                    let path = if prefix.is_empty() {
                        key.clone()
                    } else {
                        format!("{prefix}.{key}")
                    };
                    if !out.contains(&path) {
                        out.push(path.clone());
                    }
                    key_paths(value, &path, out);
                }
            }
            Json::Arr(items) => {
                for item in items {
                    key_paths(item, &format!("{prefix}[]"), out);
                }
            }
            _ => {}
        }
    }

    /// Pins the whole `stats` schema: every key path of a live reply, in
    /// order. Clients read these paths (perfbench follows a dozen of
    /// them), so any change here is a protocol change.
    #[test]
    fn stats_schema_stays_backward_compatible() {
        let service = Service::new(16, Limits::default());
        let req = Request::parse(r#"{"id":1,"op":"stats"}"#).unwrap();
        let pool = PoolHealth {
            workers: 2,
            busy: 0,
        };
        let reply = Json::parse(&service.execute_stats(&req, pool)).unwrap();
        let mut paths = Vec::new();
        key_paths(&reply, "", &mut paths);
        assert_eq!(
            paths,
            [
                "id",
                "ok",
                "op",
                "requests",
                "certify",
                "infer",
                "flows",
                "lint",
                "explore",
                "checkproof",
                "cert",
                "cert.proofs_emitted",
                "cert.checkproof_requests",
                "cert.checkproof_valid",
                "cert.checkproof_rejected",
                "cert.proof_bytes_total",
                "cert.cache_hits_by_digest",
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
                "conn",
                "conn.open",
                "conn.accepted_total",
                "conn.rejected_overloaded",
                "conn.stalled_closed",
                "conn.pipelined_depth_max",
                "conn.coalesced_hits",
                "cluster",
                "cluster.forwards",
                "cluster.forward_hits",
                "cluster.peer_syncs",
                "cluster.hash_ring_size",
                "cluster.forward_hop_exhausted",
                "cluster.replicas_sent",
                "cluster.replica_installs",
                "cluster.repairs",
                "cluster.shard_digest",
                "latency_mean_us",
                "latency_histogram",
                "latency_histogram[].le_us",
                "latency_histogram[].count",
                "cache_entries",
                "pool",
                "pool.workers",
                "pool.busy",
            ]
        );
    }

    /// Each table row's counter is the one `stats` shows at its path.
    #[test]
    fn every_counter_is_shown_at_its_path() {
        let m = Metrics::new();
        for (i, path) in Metrics::PATHS.iter().enumerate() {
            m.counter(path).unwrap().fetch_add(i as u64 + 1, Relaxed);
        }
        let stats = Json::Obj(m.snapshot_fields());
        for (i, path) in Metrics::PATHS.iter().enumerate() {
            let shown = path
                .split('.')
                .try_fold(&stats, |v, key| v.get(key))
                .and_then(Json::as_u64);
            assert_eq!(shown, Some(i as u64 + 1), "{path}");
        }
        assert_eq!(Metrics::PATHS.len(), 35, "every counter but `explore_us`");
    }

    /// A program op is counted under its wire name; no other op has a
    /// counter there.
    #[test]
    fn program_ops_are_counted_under_their_wire_names() {
        let m = Metrics::new();
        for op in Op::ALL {
            assert_eq!(m.counter(op.name()).is_some(), op.is_program(), "{op:?}");
        }
    }
}
