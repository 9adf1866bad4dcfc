//! Per-peer failure detection for the cluster: a consecutive-failure
//! circuit breaker with jittered probe scheduling.
//!
//! Every peer call reports its outcome here
//! ([`record_success`](HealthTracker::record_success) /
//! [`record_failure`](HealthTracker::record_failure)). A peer that
//! fails [`DEFAULT_FAILURE_THRESHOLD`] calls in a row is marked DOWN
//! and the routing layers stop sending it work — forwarding falls back
//! to the next replica or to local computation, replication skips it,
//! and a router walks on down the preference list. A background probe
//! loop asks [`due_probes`](HealthTracker::due_probes) which non-UP
//! peers are ready for a `ping` and feeds the result back, so a
//! recovered peer is readmitted without operator action; a replica
//! readmitted from DOWN is then asked to `repair` from the prober.
//!
//! Probe deadlines use decorrelated jitter (the same shape as the
//! retry client's backoff): each failure pushes the next probe out to
//! `base + rand(0, 3·prev)` capped at [`PROBE_CAP_MS`], with the
//! randomness drawn from the seeded `splitmix64` mixer so a seeded
//! test run schedules probes deterministically.
//!
//! States are UP (healthy or unproven), SUSPECT (some failures, circuit
//! still closed), DOWN (circuit open). Only DOWN changes routing:
//! SUSPECT peers still get traffic, which either heals them or pushes
//! them over the threshold. See `DESIGN.md` §15.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::fault::splitmix64;

/// Consecutive failures that open the circuit (UP/SUSPECT → DOWN).
pub const DEFAULT_FAILURE_THRESHOLD: u32 = 3;

/// First probe delay after a failure, in milliseconds.
pub const PROBE_BASE_MS: u64 = 100;

/// Probe delay ceiling, in milliseconds. Low enough that a healed peer
/// is readmitted within about a second of answering pings again.
pub const PROBE_CAP_MS: u64 = 1_000;

/// A peer's health as the detector sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PeerHealth {
    /// Answering calls (or never tried — optimistic until proven bad).
    Up,
    /// Recent failures, but fewer than the threshold; still routed to.
    Suspect,
    /// Circuit open: skipped by routing until a probe succeeds.
    Down,
}

impl PeerHealth {
    /// Wire/display name (`up`, `suspect`, `down`).
    pub fn name(self) -> &'static str {
        match self {
            PeerHealth::Up => "up",
            PeerHealth::Suspect => "suspect",
            PeerHealth::Down => "down",
        }
    }
}

struct PeerState {
    failures: u32,
    last_seen: Option<Instant>,
    /// When the next probe may run (None = no probe owed).
    probe_at: Option<Instant>,
    /// Previous probe delay, for the decorrelated-jitter recurrence.
    probe_ms: u64,
}

impl PeerState {
    fn new() -> PeerState {
        PeerState {
            failures: 0,
            last_seen: None,
            probe_at: None,
            probe_ms: PROBE_BASE_MS,
        }
    }

    fn health(&self, threshold: u32) -> PeerHealth {
        match self.failures {
            0 => PeerHealth::Up,
            f if f < threshold => PeerHealth::Suspect,
            _ => PeerHealth::Down,
        }
    }
}

/// One line of a health [`snapshot`](HealthTracker::snapshot).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerReport {
    /// The peer's advertised address.
    pub addr: String,
    /// Current detector state.
    pub health: PeerHealth,
    /// Milliseconds since the last successful call, `None` if never.
    pub last_seen_ms: Option<u64>,
}

/// Thread-safe per-peer failure detector (see the module docs).
pub struct HealthTracker {
    peers: Mutex<HashMap<String, PeerState>>,
    threshold: u32,
    seed: u64,
    ticks: AtomicU64,
}

impl HealthTracker {
    /// A tracker over `peers` (typically the member list minus self),
    /// all initially UP.
    pub fn new<S: AsRef<str>>(peers: &[S], seed: u64) -> HealthTracker {
        let map = peers
            .iter()
            .map(|p| (p.as_ref().to_string(), PeerState::new()))
            .collect();
        HealthTracker {
            peers: Mutex::new(map),
            threshold: DEFAULT_FAILURE_THRESHOLD,
            seed,
            ticks: AtomicU64::new(0),
        }
    }

    /// A call to `addr` succeeded: close the circuit and stamp
    /// last-seen. Returns `true` when this flipped the peer from DOWN
    /// to UP.
    pub fn record_success(&self, addr: &str) -> bool {
        let mut peers = self.peers.lock().unwrap();
        let state = peers.entry(addr.to_string()).or_insert_with(PeerState::new);
        let was_down = state.health(self.threshold) == PeerHealth::Down;
        state.failures = 0;
        state.last_seen = Some(Instant::now());
        state.probe_at = None;
        state.probe_ms = PROBE_BASE_MS;
        was_down
    }

    /// A call to `addr` failed: count it, maybe open the circuit, and
    /// schedule the next probe with decorrelated jitter.
    pub fn record_failure(&self, addr: &str) {
        let mut peers = self.peers.lock().unwrap();
        let state = peers.entry(addr.to_string()).or_insert_with(PeerState::new);
        state.failures = state.failures.saturating_add(1);
        let tick = self.ticks.fetch_add(1, Relaxed);
        let span = (state.probe_ms * 3).max(PROBE_BASE_MS + 1);
        let next = PROBE_BASE_MS + splitmix64(self.seed.wrapping_add(tick)) % span;
        state.probe_ms = next.min(PROBE_CAP_MS);
        state.probe_at = Some(Instant::now() + Duration::from_millis(state.probe_ms));
    }

    /// Is `addr` currently DOWN (circuit open)?
    pub fn is_down(&self, addr: &str) -> bool {
        self.health(addr) == PeerHealth::Down
    }

    /// `addr`'s current state (unknown peers are UP — optimism keeps a
    /// misconfigured tracker from blackholing traffic).
    pub fn health(&self, addr: &str) -> PeerHealth {
        let peers = self.peers.lock().unwrap();
        peers
            .get(addr)
            .map(|s| s.health(self.threshold))
            .unwrap_or(PeerHealth::Up)
    }

    /// The non-UP peers whose probe deadline has passed: the probe loop
    /// should `ping` each and report the outcome back. Claiming a probe
    /// pushes its deadline out, so concurrent ticks never double-probe.
    pub fn due_probes(&self) -> Vec<String> {
        let now = Instant::now();
        let mut peers = self.peers.lock().unwrap();
        let mut due = Vec::new();
        for (addr, state) in peers.iter_mut() {
            if state.failures == 0 {
                continue;
            }
            match state.probe_at {
                Some(at) if at <= now => {
                    state.probe_at = Some(now + Duration::from_millis(state.probe_ms));
                    due.push(addr.clone());
                }
                _ => {}
            }
        }
        due.sort();
        due
    }

    /// Every tracked peer's state, sorted by address (for `stats` and
    /// `cluster-status`).
    pub fn snapshot(&self) -> Vec<PeerReport> {
        let now = Instant::now();
        let peers = self.peers.lock().unwrap();
        let mut out: Vec<PeerReport> = peers
            .iter()
            .map(|(addr, state)| PeerReport {
                addr: addr.clone(),
                health: state.health(self.threshold),
                last_seen_ms: state
                    .last_seen
                    .map(|t| now.saturating_duration_since(t).as_millis() as u64),
            })
            .collect();
        out.sort_by(|a, b| a.addr.cmp(&b.addr));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_opens_and_success_closes_the_circuit() {
        let t = HealthTracker::new(&["a", "b"], 7);
        assert_eq!(t.health("a"), PeerHealth::Up);
        t.record_failure("a");
        assert_eq!(t.health("a"), PeerHealth::Suspect);
        t.record_failure("a");
        assert_eq!(t.health("a"), PeerHealth::Suspect);
        t.record_failure("a");
        assert_eq!(t.health("a"), PeerHealth::Down);
        assert!(t.is_down("a"));
        assert!(!t.is_down("b"), "peers fail independently");

        // One success heals completely and reports the DOWN→UP flip.
        assert!(t.record_success("a"), "flip from DOWN is reported");
        assert_eq!(t.health("a"), PeerHealth::Up);
        assert!(!t.record_success("a"), "already-UP success is quiet");

        // A single failure after healing is SUSPECT again, not DOWN.
        t.record_failure("a");
        assert_eq!(t.health("a"), PeerHealth::Suspect);
    }

    #[test]
    fn unknown_peers_are_optimistically_up() {
        let t = HealthTracker::new(&["a"], 1);
        assert_eq!(t.health("never-heard-of-it"), PeerHealth::Up);
        assert!(!t.is_down("never-heard-of-it"));
    }

    #[test]
    fn probes_come_due_only_for_failing_peers() {
        let t = HealthTracker::new(&["a", "b", "c"], 11);
        assert!(t.due_probes().is_empty(), "healthy cluster owes no probes");
        t.record_failure("a");
        t.record_failure("c");
        // Deadlines are in the future (jittered ≥ base); force them due
        // by waiting out the cap in a test would be slow, so check the
        // claim-and-reschedule contract instead: nothing is due yet.
        assert!(t.due_probes().is_empty());
        std::thread::sleep(Duration::from_millis(PROBE_CAP_MS + PROBE_BASE_MS + 50));
        let due = t.due_probes();
        assert_eq!(due, vec!["a".to_string(), "c".to_string()]);
        // Claiming rescheduled them — an immediate re-ask owes nothing.
        assert!(t.due_probes().is_empty(), "claimed probes are rescheduled");
        t.record_success("a");
        t.record_success("c");
        std::thread::sleep(Duration::from_millis(PROBE_CAP_MS + PROBE_BASE_MS + 50));
        assert!(t.due_probes().is_empty(), "healed peers owe no probes");
    }

    #[test]
    fn snapshot_reports_every_peer_sorted() {
        let t = HealthTracker::new(&["b", "a"], 3);
        t.record_success("b");
        t.record_failure("a");
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].addr, "a");
        assert_eq!(snap[0].health, PeerHealth::Suspect);
        assert_eq!(snap[0].last_seen_ms, None);
        assert_eq!(snap[1].addr, "b");
        assert_eq!(snap[1].health, PeerHealth::Up);
        assert!(snap[1].last_seen_ms.is_some());
        assert_eq!(PeerHealth::Down.name(), "down");
    }
}
