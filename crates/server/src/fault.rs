//! Deterministic, seeded fault injection ("chaos mode").
//!
//! A [`FaultPlan`] makes the server misbehave *on purpose* — read
//! errors, artificial latency, worker panics, short reads at the TCP
//! framing layer, dropped connection attempts — so the robustness
//! machinery (panic isolation, deadlines, the retrying client) can be
//! exercised in tests and CI instead of waiting for production to do
//! it.
//!
//! Two properties make the chaos usable:
//!
//! - **Determinism**: every decision is a pure function of the seed and
//!   a global decision counter (`splitmix64`), so a failing soak run
//!   reproduces exactly from its seed.
//! - **Convergence**: `max_faults` is a fuse — after that many injected
//!   faults the plan goes quiet, so a retrying client always succeeds
//!   eventually and a chaos soak can assert equivalence with the
//!   fault-free run.
//!
//! Production pays nothing: the serve path is generic over [`Faults`]
//! and monomorphizes against [`NoFaults`], whose hooks are the trait's
//! quiet defaults (constant `false`, inlined away). The durable store
//! and the cluster's peer calls, which are not on the poll loop, share
//! the same plan as an `Arc<dyn Faults>`.
//!
//! A hook is declared twice: once in the trait, with its quiet default,
//! and once in [`FaultPlan`], which drives it.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Fault-injection hooks consulted by the serve path, the durable store
/// and the cluster's peer calls. Every hook answers "inject here?" and
/// is quiet by default; implementations must be cheap and thread-safe.
pub trait Faults: Send + Sync + 'static {
    /// Inject a panic into the worker about to run a job?
    fn worker_panic(&self) -> bool {
        false
    }

    /// Artificial latency to add before serving a request.
    fn latency(&self) -> Option<Duration> {
        None
    }

    /// Fail this stream read with an IO error?
    fn read_error(&self) -> bool {
        false
    }

    /// Truncate this read to a single byte?
    fn short_io(&self) -> bool {
        false
    }

    /// Drop this freshly-accepted connection?
    fn drop_connection(&self) -> bool {
        false
    }

    /// Tear this journal append in half, as a crash mid-write would?
    /// Consulted by the durable store.
    fn torn_write(&self) -> bool {
        false
    }

    /// Silently skip an fsync the durability mode asked for? Consulted
    /// by the durable store.
    fn short_fsync(&self) -> bool {
        false
    }

    /// Pretend this connection produced no bytes this poll tick, as a
    /// stalled (slowloris-style) sender would? Consulted by the poll
    /// loop's reads.
    fn stall_read(&self) -> bool {
        false
    }

    /// Drop this outbound peer call to `addr` before it leaves, as an
    /// asymmetric network partition would? Consulted by the cluster's
    /// peer-call path (forwarding, replication, probes).
    fn drop_peer(&self, _addr: &str) -> bool {
        false
    }
}

/// The production plan: no faults, ever. Every hook is the trait's
/// quiet default.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoFaults;

impl Faults for NoFaults {}

/// Per-mille injection rates and limits for a seeded chaos run.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Decision counter: each hook call consumes one tick.
    ticks: AtomicU64,
    /// Faults injected so far (stops at `max_faults`).
    injected: AtomicU64,
    /// Fuse: total faults to inject before going quiet (ensures
    /// convergence). `u64::MAX` = unlimited.
    pub max_faults: u64,
    /// Per-mille probability of an IO error per read.
    pub io_error_per_mille: u32,
    /// Per-mille probability of latency injection per request.
    pub latency_per_mille: u32,
    /// Injected latency when the dice say so.
    pub latency_ms: u64,
    /// Per-mille probability of a worker panic per job.
    pub panic_per_mille: u32,
    /// Per-mille probability of truncating a read to 1 byte.
    pub short_io_per_mille: u32,
    /// Per-mille probability of a connection stalling (delivering
    /// nothing) for one poll tick.
    pub stall_per_mille: u32,
    /// Per-mille probability of tearing a journal append in half.
    pub torn_write_per_mille: u32,
    /// Per-mille probability of skipping a required fsync.
    pub short_fsync_per_mille: u32,
    /// Drop the first N accepted connections outright (deterministic,
    /// not probabilistic — exercises the client's connect retry).
    pub drop_connects: u64,
    accepted: AtomicU64,
    /// Per-peer partition rules: outbound calls to a matching address
    /// are dropped with the given per-mille probability (charged
    /// against the fuse, so partitions heal once it blows). Asymmetric
    /// partitions fall out of giving different nodes different rules.
    pub partitions: Vec<(String, u32)>,
}

impl FaultPlan {
    /// A quiet plan (all rates zero) with the given seed; set the
    /// public rate fields to taste.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ticks: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            max_faults: u64::MAX,
            io_error_per_mille: 0,
            latency_per_mille: 0,
            latency_ms: 1,
            panic_per_mille: 0,
            short_io_per_mille: 0,
            stall_per_mille: 0,
            torn_write_per_mille: 0,
            short_fsync_per_mille: 0,
            drop_connects: 0,
            accepted: AtomicU64::new(0),
            partitions: Vec::new(),
        }
    }

    /// Parses a plan from a spec string of `key=value` pairs separated
    /// by commas, e.g. `seed=7,io=20,latency=50,panic=5,short=10,`
    /// `torn=5,short_fsync=5,drop_connects=3,max_faults=40,latency_ms=2`.
    /// `partition=addr~permille` adds a per-peer outbound drop rule and
    /// may repeat (one rule per peer). Unknown keys are rejected. The
    /// same format is accepted from `SECFLOW_CHAOS` by the CLI.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("bad chaos spec entry `{pair}` (want key=value)"))?;
            if key.trim() == "partition" {
                // `partition=addr~permille` — repeatable; each entry
                // adds one per-peer drop rule.
                let (addr, rate) = value.trim().split_once('~').ok_or_else(|| {
                    format!("bad chaos value `{value}` for `partition` (want addr~permille)")
                })?;
                let rate: u64 = rate
                    .parse()
                    .map_err(|_| format!("bad partition rate `{rate}`"))?;
                plan.partitions
                    .push((addr.to_string(), rate.min(1000) as u32));
                continue;
            }
            let parsed: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("bad chaos value `{value}` for `{key}`"))?;
            match key.trim() {
                "seed" => plan.seed = parsed,
                "io" => plan.io_error_per_mille = parsed.min(1000) as u32,
                "latency" => plan.latency_per_mille = parsed.min(1000) as u32,
                "latency_ms" => plan.latency_ms = parsed,
                "panic" => plan.panic_per_mille = parsed.min(1000) as u32,
                "short" => plan.short_io_per_mille = parsed.min(1000) as u32,
                "stall" => plan.stall_per_mille = parsed.min(1000) as u32,
                "torn" => plan.torn_write_per_mille = parsed.min(1000) as u32,
                "short_fsync" => plan.short_fsync_per_mille = parsed.min(1000) as u32,
                "drop_connects" => plan.drop_connects = parsed,
                "max_faults" => plan.max_faults = parsed,
                other => return Err(format!("unknown chaos key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// The plan's seed (for logging a reproducible run).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Relaxed)
    }

    /// One deterministic dice roll: true with `per_mille`/1000
    /// probability, charged against the fuse when it fires.
    fn roll(&self, per_mille: u32) -> bool {
        if per_mille == 0 {
            return false;
        }
        let tick = self.ticks.fetch_add(1, Relaxed);
        if self.injected.load(Relaxed) >= self.max_faults {
            return false;
        }
        let hit = splitmix64(self.seed.wrapping_add(tick)) % 1000 < per_mille as u64;
        if hit {
            // Racy double-increment past the fuse is possible but only
            // over-counts by the number of threads; the fuse still
            // quenches the plan promptly, which is all convergence needs.
            self.injected.fetch_add(1, Relaxed);
        }
        hit
    }
}

impl Faults for FaultPlan {
    fn worker_panic(&self) -> bool {
        self.roll(self.panic_per_mille)
    }

    fn latency(&self) -> Option<Duration> {
        self.roll(self.latency_per_mille)
            .then(|| Duration::from_millis(self.latency_ms))
    }

    fn read_error(&self) -> bool {
        self.roll(self.io_error_per_mille)
    }

    fn short_io(&self) -> bool {
        self.roll(self.short_io_per_mille)
    }

    fn stall_read(&self) -> bool {
        self.roll(self.stall_per_mille)
    }

    fn torn_write(&self) -> bool {
        self.roll(self.torn_write_per_mille)
    }

    fn short_fsync(&self) -> bool {
        self.roll(self.short_fsync_per_mille)
    }

    fn drop_connection(&self) -> bool {
        // Deterministic first-N drop, not charged against the fuse:
        // the retry client must outlast all N regardless of rates.
        self.accepted.fetch_add(1, Relaxed) < self.drop_connects
    }

    fn drop_peer(&self, addr: &str) -> bool {
        let rate = self
            .partitions
            .iter()
            .find(|(a, _)| a == addr)
            .map(|(_, r)| *r)
            .unwrap_or(0);
        self.roll(rate)
    }
}

/// `splitmix64` — a tiny, high-quality 64-bit mixer (public domain
/// constant set; see Steele, Lea & Flood, "Fast Splittable
/// Pseudorandom Number Generators").
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let decide = |seed: u64| -> Vec<bool> {
            let mut plan = FaultPlan::new(seed);
            plan.io_error_per_mille = 300;
            (0..64).map(|_| plan.read_error()).collect()
        };
        assert_eq!(decide(7), decide(7));
        assert_ne!(decide(7), decide(8), "different seeds should diverge");
        assert!(decide(7).iter().any(|&b| b), "300‰ over 64 rolls must hit");
    }

    #[test]
    fn fuse_quenches_the_plan() {
        let mut plan = FaultPlan::new(1);
        plan.io_error_per_mille = 1000;
        plan.max_faults = 3;
        let hits = (0..100).filter(|_| plan.read_error()).count();
        assert_eq!(hits, 3, "fuse must cap injected faults");
        assert_eq!(plan.injected(), 3);
    }

    #[test]
    fn drop_connects_is_first_n_only() {
        let mut plan = FaultPlan::new(1);
        plan.drop_connects = 2;
        assert!(plan.drop_connection());
        assert!(plan.drop_connection());
        assert!(!plan.drop_connection());
        assert!(!plan.drop_connection());
    }

    #[test]
    fn parse_round_trip_and_rejection() {
        let plan = FaultPlan::parse(
            "seed=9,io=20,latency=50,latency_ms=2,panic=5,short=10,stall=4,torn=7,short_fsync=3,max_faults=40",
        )
        .unwrap();
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.io_error_per_mille, 20);
        assert_eq!(plan.latency_per_mille, 50);
        assert_eq!(plan.latency_ms, 2);
        assert_eq!(plan.panic_per_mille, 5);
        assert_eq!(plan.short_io_per_mille, 10);
        assert_eq!(plan.stall_per_mille, 4);
        assert_eq!(plan.torn_write_per_mille, 7);
        assert_eq!(plan.short_fsync_per_mille, 3);
        assert_eq!(plan.max_faults, 40);
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("io=lots").is_err());
        assert!(FaultPlan::parse("warp=9").is_err());
        assert!(FaultPlan::parse("").is_ok(), "empty spec is a quiet plan");
    }

    #[test]
    fn partition_rules_parse_and_drop_per_peer() {
        let plan = FaultPlan::parse(
            "seed=5,partition=127.0.0.1:4601~1000,partition=127.0.0.1:4602~0,max_faults=10",
        )
        .unwrap();
        assert_eq!(
            plan.partitions,
            vec![
                ("127.0.0.1:4601".to_string(), 1000),
                ("127.0.0.1:4602".to_string(), 0),
            ]
        );
        // The partitioned peer drops until the fuse blows; others never.
        let drops = (0..100)
            .filter(|_| plan.drop_peer("127.0.0.1:4601"))
            .count();
        assert_eq!(drops, 10, "partition rolls are charged to the fuse");
        assert!(!plan.drop_peer("127.0.0.1:4602"));
        assert!(!plan.drop_peer("127.0.0.1:4699"), "unlisted peers pass");

        assert!(FaultPlan::parse("partition=nope").is_err());
        assert!(FaultPlan::parse("partition=a~lots").is_err());
        assert!(!NoFaults.drop_peer("anything"));
    }

    #[test]
    fn no_faults_is_quiet() {
        let f = NoFaults;
        assert!(!f.worker_panic());
        assert!(f.latency().is_none());
        assert!(!f.read_error());
        assert!(!f.short_io());
        assert!(!f.drop_connection());
        assert!(!f.torn_write());
        assert!(!f.short_fsync());
        assert!(!f.stall_read());
        assert!(!f.drop_peer("127.0.0.1:1"));
    }
}
