//! Work-stealing parallel interleaving exploration.
//!
//! [`explore`](mod@crate::explore) enumerates every schedule depth-first
//! on one thread; this module runs the same search on N workers and is
//! the engine behind `explore --threads N` and the server's `threads`
//! request field. The moving parts:
//!
//! - **Per-thread work deques.** Each worker owns a mutex-protected
//!   deque. The owner pushes and pops at the back (LIFO, preserving the
//!   cache locality of depth-first search); an idle worker steals half
//!   of a victim's deque from the *front* — the oldest entries, which
//!   sit closest to the root and therefore head the largest unexplored
//!   subtrees.
//! - **Sharded visited set.** State keys are deduplicated in a
//!   lock-striped [`ShardedSet`]: the state's FNV-1a hash picks one of
//!   [`VISITED_SHARDS`] shards, so concurrent insertions of different
//!   states almost never contend on the same lock.
//! - **Dedup on push.** A successor is claimed in the visited set
//!   *before* it is enqueued, so no state ever sits in two deques. The
//!   sequential explorer dedups at pop instead; both expand every
//!   reachable state once, so whenever no limit truncates the search
//!   the two visit identical state sets. "Once" holds only up to
//!   collision: both machine explorers key their visited sets on the
//!   64-bit [`Machine::fingerprint`] alone, so two distinct states with
//!   equal fingerprints are merged silently and the second one's
//!   subtree goes unexplored. Exact dedup is the "exact, interned
//!   explorer states" item of `ROADMAP.md`.
//! - **Cooperative termination.** A shared `pending` counter tracks
//!   states that are enqueued or mid-expansion. It is incremented
//!   before a push and decremented only after the owning worker has
//!   pushed all successors, so it can only reach zero when no work
//!   exists *and* none can appear — at which point every worker exits.
//! - **Deterministic reduction.** Each worker accumulates a private
//!   partial result; the partials are merged with commutative,
//!   associative operations only (set union, addition, boolean or).
//!   Which worker expands which state varies run to run, but the merged
//!   report — outcome set, deadlock witnesses, counts — does not, so
//!   the answer is schedule-independent.
//!
//! The caller's `should_stop` hook is polled every
//! [`CANCEL_POLL_STATES`] expanded states *per worker* (the same
//! quantum as the sequential explorer), so deadline overruns are
//! bounded by one quantum per worker.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use secflow_lang::Program;

use crate::explore::{ExploreLimits, ExploreReport};
use crate::footprint::FootprintTable;
use crate::machine::{Machine, Status};

/// States to expand between `should_stop` polls, per worker. Matches
/// the sequential explorer's quantum so cancellation latency does not
/// regress when `--threads` is enabled.
pub const CANCEL_POLL_STATES: usize = 256;

/// Lock stripes in a [`ShardedSet`]. 64 stripes keep the probability of
/// two workers colliding on one lock low even at 8 threads, while the
/// per-set overhead (64 mutexes + empty tables) stays trivial.
pub const VISITED_SHARDS: usize = 64;

// ---------------------------------------------------------------------------
// FNV-1a
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit [`Hasher`]: the same function [`Machine::fingerprint`]
/// uses, exposed so callers can hash arbitrary `Hash` state (the
/// deadlock analyzer caches one FNV hash per abstract state and reuses
/// it for both set probes and shard selection).
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv64 {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The FNV-1a 64-bit hash of any hashable value.
pub fn fnv64_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::default();
    value.hash(&mut h);
    h.finish()
}

// ---------------------------------------------------------------------------
// Sharded visited set
// ---------------------------------------------------------------------------

/// A lock-striped hash set: the caller supplies each key's hash, which
/// selects the stripe, so insertions of different states contend only
/// when their hashes collide modulo the stripe count.
pub struct ShardedSet<K> {
    shards: Vec<Mutex<HashSet<K>>>,
    mask: usize,
}

impl<K: Hash + Eq> ShardedSet<K> {
    /// A set striped over `shards` locks (rounded up to a power of
    /// two so stripe selection is a mask, not a division).
    pub fn new(shards: usize) -> ShardedSet<K> {
        let n = shards.max(1).next_power_of_two();
        ShardedSet {
            shards: (0..n).map(|_| Mutex::new(HashSet::new())).collect(),
            mask: n - 1,
        }
    }

    /// Inserts `key` into the stripe selected by `hash`. Returns `true`
    /// iff the key was not already present — the caller that gets
    /// `true` owns the (unique) right to expand that state.
    pub fn insert(&self, hash: u64, key: K) -> bool {
        self.shards[(hash as usize) & self.mask]
            .lock()
            .expect("visited-set stripe poisoned")
            .insert(key)
    }

    /// Total keys across all stripes (O(stripes); reporting only).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map(|g| g.len()).unwrap_or(0))
            .sum()
    }

    /// `true` iff no stripe holds any key.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Generic work-stealing search engine
// ---------------------------------------------------------------------------

/// What one expansion asks the engine to do next.
pub enum Expansion {
    /// Keep searching.
    Continue,
    /// Stop the whole search now and mark it truncated (a caller-side
    /// resource cap, e.g. the deadlock analyzer's task-count overflow).
    Abort,
}

/// What [`parallel_search`] produced: one partial result per worker
/// (merge them with commutative operations) plus the engine's global
/// counters.
pub struct SearchOutcome<R> {
    /// Per-worker partial results, in worker order. The order carries
    /// no meaning; a correct caller merges commutatively.
    pub partials: Vec<R>,
    /// Distinct states expanded across all workers.
    pub states: usize,
    /// `true` if `max_states` or an [`Expansion::Abort`] stopped the
    /// search early (results are then a subset).
    pub truncated: bool,
    /// `true` if the `should_stop` hook stopped the search (implies
    /// `truncated`).
    pub cancelled: bool,
}

/// Explores the graph reachable from `roots` with `threads` workers.
///
/// `key_of` maps a state to `(fnv_hash, dedup_key)`; the hash selects
/// the visited-set stripe and the key decides uniqueness (use the hash
/// itself as the key only when collisions are acceptable, as the
/// fingerprint-based machine explorer already does). `expand` consumes
/// one claimed state, records whatever it learned in the worker's
/// partial result, and pushes successors; the engine claims each
/// successor in the visited set before enqueueing it, so `expand` runs
/// exactly once per distinct key.
pub fn parallel_search<T, K, R, KeyFn, ExpandFn>(
    roots: Vec<T>,
    threads: usize,
    max_states: usize,
    should_stop: &(dyn Fn() -> bool + Sync),
    key_of: KeyFn,
    expand: ExpandFn,
) -> SearchOutcome<R>
where
    T: Send,
    K: Hash + Eq + Send,
    R: Default + Send,
    KeyFn: Fn(&T) -> (u64, K) + Sync,
    ExpandFn: Fn(T, &mut R, &mut Vec<T>) -> Expansion + Sync,
{
    let threads = threads.max(1);
    let visited: ShardedSet<K> = ShardedSet::new(VISITED_SHARDS);
    let deques: Vec<Mutex<VecDeque<T>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    let pending = AtomicUsize::new(0);
    let expanded = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let truncated = AtomicBool::new(false);
    let cancelled = AtomicBool::new(false);

    {
        let mut q0 = deques[0].lock().expect("root deque poisoned");
        for root in roots {
            let (hash, key) = key_of(&root);
            if visited.insert(hash, key) {
                pending.fetch_add(1, Ordering::SeqCst);
                q0.push_back(root);
            }
        }
    }

    let mut partials: Vec<R> = Vec::with_capacity(threads);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|wid| {
                let (deques, visited) = (&deques, &visited);
                let (pending, expanded) = (&pending, &expanded);
                let (stop, truncated, cancelled) = (&stop, &truncated, &cancelled);
                let (key_of, expand) = (&key_of, &expand);
                scope.spawn(move || {
                    let mut partial = R::default();
                    let mut succs: Vec<T> = Vec::new();
                    let mut polls = 0usize;
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let Some(item) = pop_or_steal(deques, wid) else {
                            if pending.load(Ordering::SeqCst) == 0 {
                                break;
                            }
                            // Idle workers also watch the hook, so a
                            // deadline fires even while starved of work.
                            if should_stop() {
                                cancelled.store(true, Ordering::Relaxed);
                                truncated.store(true, Ordering::Relaxed);
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                            thread::yield_now();
                            continue;
                        };
                        if polls.is_multiple_of(CANCEL_POLL_STATES) && should_stop() {
                            cancelled.store(true, Ordering::Relaxed);
                            truncated.store(true, Ordering::Relaxed);
                            stop.store(true, Ordering::Relaxed);
                            pending.fetch_sub(1, Ordering::SeqCst);
                            break;
                        }
                        polls += 1;
                        if expanded.fetch_add(1, Ordering::Relaxed) >= max_states {
                            truncated.store(true, Ordering::Relaxed);
                            stop.store(true, Ordering::Relaxed);
                            pending.fetch_sub(1, Ordering::SeqCst);
                            break;
                        }
                        succs.clear();
                        let control = expand(item, &mut partial, &mut succs);
                        if !succs.is_empty() {
                            let mut mine = deques[wid].lock().expect("own deque poisoned");
                            for succ in succs.drain(..) {
                                let (hash, key) = key_of(&succ);
                                if visited.insert(hash, key) {
                                    pending.fetch_add(1, Ordering::SeqCst);
                                    mine.push_back(succ);
                                }
                            }
                        }
                        pending.fetch_sub(1, Ordering::SeqCst);
                        if matches!(control, Expansion::Abort) {
                            truncated.store(true, Ordering::Relaxed);
                            stop.store(true, Ordering::Relaxed);
                            break;
                        }
                    }
                    partial
                })
            })
            .collect();
        for handle in handles {
            partials.push(handle.join().expect("search worker panicked"));
        }
    });

    SearchOutcome {
        partials,
        // `fetch_add` tickets past the cap were not expanded; clamp them
        // back out so `states` counts actual expansions.
        states: expanded.load(Ordering::SeqCst).min(max_states),
        truncated: truncated.load(Ordering::SeqCst),
        cancelled: cancelled.load(Ordering::SeqCst),
    }
}

/// Pops from the worker's own deque (back — LIFO), or steals half of
/// the first non-empty victim's deque from the front.
fn pop_or_steal<T>(deques: &[Mutex<VecDeque<T>>], wid: usize) -> Option<T> {
    if let Some(item) = deques[wid].lock().expect("own deque poisoned").pop_back() {
        return Some(item);
    }
    let n = deques.len();
    for offset in 1..n {
        let victim = (wid + offset) % n;
        let stolen: Vec<T> = {
            let mut v = deques[victim].lock().expect("victim deque poisoned");
            let take = v.len().div_ceil(2);
            v.drain(..take).collect()
        };
        if stolen.is_empty() {
            continue;
        }
        let mut mine = deques[wid].lock().expect("own deque poisoned");
        mine.extend(stolen);
        return mine.pop_back();
    }
    None
}

// ---------------------------------------------------------------------------
// Parallel machine exploration
// ---------------------------------------------------------------------------

/// Per-worker partial of an [`ExploreReport`]; merged commutatively.
#[derive(Default)]
struct Partial {
    outcomes: BTreeSet<Vec<i64>>,
    witnesses: BTreeSet<Vec<i64>>,
    deadlocks: usize,
    faults: usize,
    pruned: usize,
    truncated: bool,
}

/// [`explore`](crate::explore::explore) on `threads` workers. Honors
/// `limits.por` (persistent sets — the selection is a pure function of
/// the state, so the reduced graph is identical across thread counts)
/// but ignores `limits.sleep_sets`: sleep sets are meaningful only
/// under the sequential depth-first order. Produces the same report as
/// the sequential explorer *in persistent-only mode*
/// ([`ExploreLimits::persistent_only`]) whenever neither `max_states`
/// nor `max_depth` truncates the search (truncated subsets are
/// schedule-dependent in both explorers).
pub fn pexplore(
    program: &Program,
    inputs: &[(secflow_lang::VarId, i64)],
    limits: ExploreLimits,
    threads: usize,
) -> ExploreReport {
    pexplore_with(program, inputs, limits, threads, &|| false)
}

/// [`pexplore`] with a cooperative cancellation hook, polled every
/// [`CANCEL_POLL_STATES`] expanded states per worker.
pub fn pexplore_with(
    program: &Program,
    inputs: &[(secflow_lang::VarId, i64)],
    limits: ExploreLimits,
    threads: usize,
    should_stop: &(dyn Fn() -> bool + Sync),
) -> ExploreReport {
    let root = Machine::with_inputs(program, inputs);
    let table = limits.por.then(|| FootprintTable::new(program));
    let outcome = parallel_search(
        vec![(root, 0usize)],
        threads,
        limits.max_states,
        should_stop,
        |(m, _): &(Machine<'_>, usize)| {
            let h = m.fingerprint();
            (h, h)
        },
        |(m, depth), partial: &mut Partial, succs: &mut Vec<(Machine<'_>, usize)>| {
            match m.status() {
                Status::Terminated => {
                    partial.outcomes.insert(m.store().to_vec());
                    return Expansion::Continue;
                }
                Status::Deadlocked => {
                    partial.deadlocks += 1;
                    partial.witnesses.insert(m.store().to_vec());
                    return Expansion::Continue;
                }
                Status::Running => {}
            }
            if depth >= limits.max_depth {
                partial.truncated = true;
                return Expansion::Continue;
            }
            let enabled = m.enabled();
            let candidates = match table
                .as_ref()
                .and_then(|t| t.persistent_singleton(&m, &enabled))
            {
                Some(p) => {
                    partial.pruned += enabled.len() - 1;
                    let idx = enabled.iter().position(|&q| q == p).expect("enabled");
                    &enabled[idx..=idx]
                }
                None => &enabled[..],
            };
            for &pid in candidates {
                let mut next = m.clone();
                match next.step(pid) {
                    Ok(_) => succs.push((next, depth + 1)),
                    Err(_) => partial.faults += 1,
                }
            }
            Expansion::Continue
        },
    );
    let mut report = ExploreReport {
        outcomes: BTreeSet::new(),
        deadlock_witnesses: BTreeSet::new(),
        deadlocks: 0,
        faults: 0,
        states: outcome.states,
        states_pruned: 0,
        truncated: outcome.truncated,
        cancelled: outcome.cancelled,
    };
    for partial in outcome.partials {
        report.outcomes.extend(partial.outcomes);
        report.deadlock_witnesses.extend(partial.witnesses);
        report.deadlocks += partial.deadlocks;
        report.faults += partial.faults;
        report.states_pruned += partial.pruned;
        report.truncated |= partial.truncated;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use secflow_lang::parse;

    fn lim() -> ExploreLimits {
        ExploreLimits::default()
    }

    #[test]
    fn fnv_hasher_matches_reference_vectors() {
        // FNV-1a 64 test vectors from the reference implementation.
        assert_eq!(Fnv64::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn sharded_set_dedups_across_stripes() {
        let set: ShardedSet<u64> = ShardedSet::new(VISITED_SHARDS);
        assert!(set.is_empty());
        for k in 0..1000u64 {
            assert!(set.insert(fnv64_of(&k), k));
        }
        for k in 0..1000u64 {
            assert!(!set.insert(fnv64_of(&k), k), "{k} inserted twice");
        }
        assert_eq!(set.len(), 1000);
    }

    #[test]
    fn parallel_report_matches_sequential_on_races() {
        let p = parse(
            "var x, y : integer; s : semaphore;
             cobegin begin x := 5; signal(s) end || begin wait(s); y := x end
             || y := y + x coend",
        )
        .unwrap();
        // Sleep sets are sequential-only, so the engines are compared
        // in the persistent-only mode they share.
        let seq = explore(&p, &[], lim().persistent_only());
        for threads in [1, 2, 4] {
            let par = pexplore(&p, &[], lim().persistent_only(), threads);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_prunes_with_persistent_sets() {
        let p = parse(
            "var a, b : integer;
             cobegin begin a := 1; a := a + 1 end || begin b := 1; b := b + 1 end coend",
        )
        .unwrap();
        let full = pexplore(&p, &[], lim().without_por(), 2);
        let por = pexplore(&p, &[], lim(), 2);
        assert_eq!(por.outcomes, full.outcomes);
        assert!(por.states_pruned > 0);
        assert!(por.states < full.states, "{} / {}", por.states, full.states);
    }

    #[test]
    fn parallel_finds_the_paper_2_2_deadlock() {
        let p = parse(
            "var x, y : integer; sem : semaphore;
             cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend",
        )
        .unwrap();
        let x = p.var("x");
        let seq = explore(&p, &[(x, 1)], lim().persistent_only());
        let par = pexplore(&p, &[(x, 1)], lim(), 4);
        assert!(par.can_deadlock());
        assert_eq!(par.deadlock_witnesses, seq.deadlock_witnesses);
        assert!(!par.deadlock_witnesses.is_empty());
    }

    #[test]
    fn cancellation_stops_within_one_quantum_per_worker() {
        let p = parse("var x : integer; while true do x := x + 1").unwrap();
        let report = pexplore_with(&p, &[], lim(), 4, &|| true);
        assert!(report.cancelled);
        assert!(report.truncated);
        assert!(report.states <= 4 * CANCEL_POLL_STATES, "{}", report.states);
    }

    #[test]
    fn state_budget_truncates_the_parallel_search() {
        let p = parse("var x : integer; while true do x := x + 1").unwrap();
        let limits = ExploreLimits {
            max_states: 100,
            max_depth: 50,
            ..ExploreLimits::default()
        };
        let report = pexplore(&p, &[], limits, 2);
        assert!(report.truncated);
        assert!(report.states <= 100);
    }
}
