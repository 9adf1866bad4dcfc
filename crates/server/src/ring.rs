//! Rendezvous hashing: the map from cache fingerprints to cluster
//! nodes.
//!
//! Every request is content-addressed by its cache fingerprint (the
//! FNV-1a hash `CacheKey::of` computes over the canonical request
//! parts), so sharding is just a stable map from that 64-bit hash to a
//! node address. Rendezvous (highest-random-weight) hashing (Thaler &
//! Ravishankar, 1998) scores a key at every node as
//! `splitmix64(seed ^ key)`, where a node's seed is `splitmix64` of the
//! FNV-1a hash of its address, and gives the key to the highest
//! scorer; the preference list is the nodes in descending score. The
//! construction uses nothing but the node address strings, so every
//! process that agrees on the member list agrees on every assignment,
//! with no coordination.
//!
//! Scores are independent per node, so keys split evenly and churn is
//! exact: removing a node deletes only its score, leaving the
//! survivors' order untouched, and growing from N to N+1 nodes moves
//! exactly the keys the newcomer outscores (1/(N+1) of the keyspace in
//! expectation), each to the newcomer. The tests below check both.

use std::cmp::Reverse;

use crate::cache::{fnv1a, FNV_OFFSET};
use crate::fault::splitmix64;

/// The rendezvous-hash map over a fixed set of node addresses. The
/// name is historical: there is no ring, only per-node scores.
///
/// Deterministic by construction: two maps built from the same set of
/// addresses (in any order) produce identical assignments in any
/// process — there is no random seed and no insertion-order
/// dependence.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Sorted, deduplicated node addresses.
    nodes: Vec<String>,
    /// `seeds[i]` is the score seed of `nodes[i]`.
    seeds: Vec<u64>,
}

impl HashRing {
    /// Builds the map over `nodes` (addresses such as
    /// `"127.0.0.1:4600"`). Duplicates are dropped; order is
    /// irrelevant. An empty list yields an empty map for which
    /// [`HashRing::node_for`] returns `None`.
    pub fn new<S: AsRef<str>>(nodes: &[S]) -> Self {
        let mut sorted: Vec<String> = nodes.iter().map(|n| n.as_ref().to_string()).collect();
        sorted.sort();
        sorted.dedup();
        let seeds = sorted
            .iter()
            .map(|node| splitmix64(fnv1a(FNV_OFFSET, node.as_bytes())))
            .collect();
        HashRing {
            nodes: sorted,
            seeds,
        }
    }

    /// Number of distinct nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node addresses, sorted.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Node `i`'s score for `key_hash`, ranked: a higher score first,
    /// and on a tie the earlier address.
    fn rank(&self, i: usize, key_hash: u64) -> (u64, Reverse<usize>) {
        (splitmix64(self.seeds[i] ^ key_hash), Reverse(i))
    }

    /// The node owning `key_hash`: the highest scorer. `None` only for
    /// an empty map. Total: every u64 maps to exactly one node.
    pub fn node_for(&self, key_hash: u64) -> Option<&str> {
        let best = (0..self.nodes.len()).max_by_key(|&i| self.rank(i, key_hash))?;
        Some(&self.nodes[best])
    }

    /// The first `min(rf, len)` nodes by descending score for
    /// `key_hash`: the owner first, then the runners-up. This is both
    /// the replica set for the key (replication factor `rf`) and the
    /// preference list a router walks when the owner is down. `rf`
    /// larger than the membership yields every node exactly once;
    /// `rf = 0` yields nothing.
    ///
    /// Removing a node only deletes that node's score, so the relative
    /// order of the survivors — and therefore every preference list
    /// over them — is unchanged (the churn property the tests below
    /// pin).
    pub fn preference_list(&self, key_hash: u64, rf: usize) -> Vec<&str> {
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_unstable_by_key(|&i| Reverse(self.rank(i, key_hash)));
        order.truncate(rf);
        order.into_iter().map(|i| self.nodes[i].as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::splitmix64;

    fn sample_keys(n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(|i| splitmix64(0x5eed_0000 + i))
    }

    #[test]
    fn empty_ring_maps_nothing() {
        let ring = HashRing::new::<&str>(&[]);
        assert!(ring.is_empty());
        assert_eq!(ring.node_for(42), None);
        assert!(ring.preference_list(42, 3).is_empty());
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = HashRing::new(&["a:1"]);
        for key in sample_keys(500) {
            assert_eq!(ring.node_for(key), Some("a:1"));
        }
    }

    /// Determinism across processes: the assignment depends only on
    /// the member set, not on insertion order, duplicates, or any
    /// per-process state. (Cross-*process* determinism follows because
    /// the construction touches nothing but the address bytes, FNV-1a,
    /// and SplitMix64 — all build-independent.)
    #[test]
    fn assignment_is_deterministic_and_order_independent() {
        let forward = HashRing::new(&["a:1", "b:2", "c:3"]);
        let shuffled = HashRing::new(&["c:3", "a:1", "b:2", "a:1"]);
        assert_eq!(forward.len(), 3);
        assert_eq!(shuffled.len(), 3);
        for key in sample_keys(2000) {
            assert_eq!(forward.node_for(key), shuffled.node_for(key));
        }
        // A clone is trivially identical too (the router and every
        // node hold independently-built rings of the same members).
        let rebuilt = HashRing::new(forward.nodes());
        for key in sample_keys(500) {
            assert_eq!(forward.node_for(key), rebuilt.node_for(key));
        }
    }

    /// Totality: every sampled fingerprint (and the u64 extremes) maps
    /// to exactly one node of the member set.
    #[test]
    fn every_fingerprint_maps_to_a_member() {
        let ring = HashRing::new(&["a:1", "b:2", "c:3", "d:4", "e:5"]);
        for key in sample_keys(5000).chain([0, 1, u64::MAX - 1, u64::MAX]) {
            let node = ring.node_for(key).expect("total");
            assert!(ring.nodes().iter().any(|n| n == node));
        }
    }

    /// Churn bound: growing N → N+1 remaps ≤ ~1/(N+1) of sampled keys
    /// (2x slack for sampling variance at these sample sizes),
    /// and never remaps a key *between* surviving nodes — a moved key
    /// always lands on the new node.
    #[test]
    fn adding_a_node_remaps_at_most_its_fair_share() {
        for n in 2usize..=6 {
            let before: Vec<String> = (0..n).map(|i| format!("node-{i}:470{i}")).collect();
            let mut after = before.clone();
            after.push(format!("node-{n}:470{n}"));
            let old = HashRing::new(&before);
            let new = HashRing::new(&after);
            let samples = 4000u64;
            let mut moved = 0u64;
            for key in sample_keys(samples) {
                let was = old.node_for(key).unwrap();
                let now = new.node_for(key).unwrap();
                if was != now {
                    moved += 1;
                    assert_eq!(
                        now,
                        format!("node-{n}:470{n}"),
                        "a remapped key must move to the new node, never between survivors"
                    );
                }
            }
            let fair = samples as f64 / (n as f64 + 1.0);
            assert!(
                (moved as f64) <= 2.0 * fair,
                "N={n}: moved {moved} of {samples}, fair share {fair:.0}"
            );
            assert!(moved > 0, "N={n}: the new node must take some keys");
        }
    }

    /// The preference list starts at the owner, covers every node
    /// exactly once when asked for all of them, and is deterministic.
    #[test]
    fn preference_list_covers_all_nodes_starting_at_owner() {
        let ring = HashRing::new(&["a:1", "b:2", "c:3", "d:4"]);
        for key in sample_keys(200) {
            let prefs = ring.preference_list(key, ring.len());
            assert_eq!(prefs.len(), 4);
            assert_eq!(prefs[0], ring.node_for(key).unwrap());
            let mut sorted = prefs.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "no duplicates");
        }
    }

    /// An `rf`-bounded preference list is exactly the first `rf`
    /// entries of the full walk — the replica set for a key is a
    /// prefix of the failover order, so the node a router falls over
    /// to *is* the replica that holds the key.
    #[test]
    fn bounded_preference_list_is_a_prefix_of_the_full_walk() {
        let ring = HashRing::new(&["a:1", "b:2", "c:3", "d:4", "e:5"]);
        for key in sample_keys(200) {
            let full = ring.preference_list(key, ring.len());
            for rf in 0..=7 {
                let bounded = ring.preference_list(key, rf);
                assert_eq!(bounded.len(), rf.min(ring.len()));
                assert_eq!(bounded[..], full[..rf.min(ring.len())]);
            }
        }
    }

    /// Keys split evenly over three loopback nodes: on 16 port triples
    /// shaped like a local test cluster's, no node owns more than 1.05×
    /// its fair third of 30,000 keys.
    #[test]
    fn three_loopback_nodes_share_keys_evenly() {
        let keys = 30_000u64;
        for t in 0..16u64 {
            let nodes: Vec<String> = (0..3u64)
                .map(|i| format!("127.0.0.1:{}", 20_000 + 101 * t + i))
                .collect();
            let ring = HashRing::new(&nodes);
            let mut owned = [0u64; 3];
            for k in 0..keys {
                let owner = ring.node_for(splitmix64(k)).unwrap();
                owned[ring.nodes().iter().position(|n| n == owner).unwrap()] += 1;
            }
            let busiest = *owned.iter().max().unwrap() as f64 / (keys as f64 / 3.0);
            assert!(
                busiest <= 1.05,
                "{nodes:?}: {owned:?} is {busiest:.3}x fair"
            );
        }
    }

    // The same three invariants as properties over *arbitrary* member
    // sets (size, addresses, and keys all generated), not the fixed
    // corpora above.
    use proptest::prelude::*;

    /// `n` distinct addresses derived from `salt` — the address bytes
    /// vary per case so no hash alignment is baked in.
    fn members(n: usize, salt: u64) -> Vec<String> {
        (0..n as u64)
            .map(|i| {
                format!(
                    "10.{}.{}.{}:{}",
                    salt % 200,
                    splitmix64(salt ^ i) % 256,
                    i,
                    4600 + i
                )
            })
            .collect()
    }

    proptest! {
        /// Totality, determinism, and order independence for any
        /// member set: every key maps to a member, a reshuffled (and
        /// duplicated) build produces the identical assignment, and
        /// the preference list covers all nodes starting at the owner.
        #[test]
        fn any_member_set_is_total_and_order_independent(
            n in 1usize..8,
            salt in 0u64..(1 << 32),
            key in 0u64..u64::MAX,
        ) {
            let nodes = members(n, salt);
            let ring = HashRing::new(&nodes);
            let owner = ring.node_for(key).expect("total").to_string();
            prop_assert!(nodes.contains(&owner));
            let mut shuffled: Vec<String> = nodes.iter().rev().cloned().collect();
            shuffled.push(nodes[0].clone());
            prop_assert_eq!(
                HashRing::new(&shuffled).node_for(key),
                Some(owner.as_str())
            );
            let prefs = ring.preference_list(key, n);
            prop_assert_eq!(prefs.len(), n);
            prop_assert_eq!(prefs[0], owner.as_str());
        }

        /// For any membership, key, and replication factor: the
        /// preference list has exactly `min(rf, members)` *distinct*
        /// entries, starts at the owner, and two independently built
        /// rings (shuffled members) agree on it entry-for-entry —
        /// every caller (node, router, client) derives the same
        /// replica set with no coordination.
        #[test]
        fn any_preference_list_is_distinct_bounded_and_deterministic(
            n in 1usize..8,
            rf in 0usize..10,
            salt in 0u64..(1 << 32),
            key in 0u64..u64::MAX,
        ) {
            let nodes = members(n, salt);
            let ring = HashRing::new(&nodes);
            let prefs = ring.preference_list(key, rf);
            prop_assert_eq!(prefs.len(), rf.min(n));
            let mut distinct: Vec<&str> = prefs.clone();
            distinct.sort();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), prefs.len(), "entries must be distinct");
            if rf > 0 {
                prop_assert_eq!(prefs[0], ring.node_for(key).unwrap());
            }
            let mut shuffled: Vec<String> = nodes.iter().rev().cloned().collect();
            shuffled.push(nodes[0].clone());
            let other = HashRing::new(&shuffled);
            prop_assert_eq!(other.preference_list(key, rf), prefs);
        }

        /// Removal churn bound: deleting one node only deletes that
        /// node's score, so the survivors' preference order is
        /// untouched — the shrunken ring's list equals the old full
        /// walk with the removed node filtered out. Only slots the dead
        /// node held are reassigned; no key moves *between* survivors.
        #[test]
        fn removing_a_node_only_reassigns_its_own_slots(
            n in 2usize..8,
            rf in 1usize..5,
            salt in 0u64..(1 << 32),
            key in 0u64..u64::MAX,
        ) {
            let nodes = members(n, salt);
            let removed = nodes[(salt % n as u64) as usize].clone();
            let survivors: Vec<String> =
                nodes.iter().filter(|m| **m != removed).cloned().collect();
            let old = HashRing::new(&nodes);
            let new = HashRing::new(&survivors);
            let expected: Vec<&str> = old
                .preference_list(key, n)
                .into_iter()
                .filter(|m| *m != removed)
                .take(rf.min(survivors.len()))
                .collect();
            prop_assert_eq!(new.preference_list(key, rf), expected);
        }

        /// Churn bound for any membership: growing N → N+1 remaps at
        /// most ~1/(N+1) of sampled keys (2.5x slack for sampling
        /// variance), and every moved key lands on the newcomer.
        #[test]
        fn any_growth_step_remaps_at_most_a_fair_share(
            n in 1usize..7,
            salt in 0u64..(1 << 32),
        ) {
            let before = members(n, salt);
            let newcomer = format!("joined-{}:9999", salt % 1000);
            let mut after = before.clone();
            after.push(newcomer.clone());
            let old = HashRing::new(&before);
            let new = HashRing::new(&after);
            let samples = 2000u64;
            let mut moved = 0u64;
            for key in (0..samples).map(|i| splitmix64(salt.rotate_left(17) ^ i)) {
                let was = old.node_for(key).unwrap();
                let now = new.node_for(key).unwrap();
                if was != now {
                    moved += 1;
                    prop_assert_eq!(now, newcomer.as_str(),
                        "a moved key must land on the newcomer");
                }
            }
            let fair = samples as f64 / (n as f64 + 1.0);
            prop_assert!(
                (moved as f64) <= 2.5 * fair,
                "moved {} of {}, fair share {:.0}", moved, samples, fair
            );
        }
    }
}
