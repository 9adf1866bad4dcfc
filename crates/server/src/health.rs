//! Per-peer failure detection for the cluster: a consecutive-failure
//! circuit breaker whose failing peers are probed on the health tick.
//!
//! Every peer call reports its outcome here
//! ([`record_success`](HealthTracker::record_success) /
//! [`record_failure`](HealthTracker::record_failure)). A peer that
//! fails [`DEFAULT_FAILURE_THRESHOLD`] calls in a row is marked DOWN
//! and the routing layers stop sending it work — forwarding falls back
//! to the next replica or to local computation, replication skips it,
//! and a router walks on down the preference list. A background probe
//! loop asks [`due_probes`](HealthTracker::due_probes) for the non-UP
//! peers on every health tick, `ping`s each once and feeds the result
//! back, so a recovered peer is readmitted within one tick without
//! operator action; a replica readmitted from DOWN is then asked to
//! `repair` from the prober. The tick (250 ms on a serving node) is the
//! only pacing: a dead peer costs one failed connect per tick.
//!
//! States are UP (healthy or unproven), SUSPECT (some failures, circuit
//! still closed), DOWN (circuit open). Only DOWN changes routing:
//! SUSPECT peers still get traffic, which either heals them or pushes
//! them over the threshold. See `DESIGN.md` §15.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Consecutive failures that open the circuit (UP/SUSPECT → DOWN).
pub const DEFAULT_FAILURE_THRESHOLD: u32 = 3;

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
}

impl PeerState {
    fn new() -> PeerState {
        PeerState {
            failures: 0,
            last_seen: None,
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
}

impl HealthTracker {
    /// A tracker over `peers` (typically the member list minus self),
    /// all initially UP.
    pub fn new<S: AsRef<str>>(peers: &[S]) -> HealthTracker {
        let map = peers
            .iter()
            .map(|p| (p.as_ref().to_string(), PeerState::new()))
            .collect();
        HealthTracker {
            peers: Mutex::new(map),
            threshold: DEFAULT_FAILURE_THRESHOLD,
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
        was_down
    }

    /// A call to `addr` failed: count it, and maybe open the circuit.
    pub fn record_failure(&self, addr: &str) {
        let mut peers = self.peers.lock().unwrap();
        let state = peers.entry(addr.to_string()).or_insert_with(PeerState::new);
        state.failures = state.failures.saturating_add(1);
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

    /// Every non-UP peer, sorted: the probe loop should `ping` each
    /// once per tick and report the outcome back.
    pub fn due_probes(&self) -> Vec<String> {
        let peers = self.peers.lock().unwrap();
        let mut due: Vec<String> = peers
            .iter()
            .filter(|(_, state)| state.failures > 0)
            .map(|(addr, _)| addr.clone())
            .collect();
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
        let t = HealthTracker::new(&["a", "b"]);
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
        let t = HealthTracker::new(&["a"]);
        assert_eq!(t.health("never-heard-of-it"), PeerHealth::Up);
        assert!(!t.is_down("never-heard-of-it"));
    }

    #[test]
    fn probes_come_due_only_for_failing_peers() {
        let t = HealthTracker::new(&["a", "b", "c"]);
        assert!(t.due_probes().is_empty(), "healthy cluster owes no probes");
        t.record_failure("a");
        t.record_failure("c");
        // Every failing peer is probed on every tick, SUSPECT or DOWN.
        let due = t.due_probes();
        assert_eq!(due, vec!["a".to_string(), "c".to_string()]);
        t.record_success("a");
        t.record_success("c");
        assert!(t.due_probes().is_empty(), "healed peers owe no probes");
    }

    #[test]
    fn snapshot_reports_every_peer_sorted() {
        let t = HealthTracker::new(&["b", "a"]);
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
