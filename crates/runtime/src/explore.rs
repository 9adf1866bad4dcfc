//! Exhaustive interleaving exploration (bounded model checking).
//!
//! §4.3 argues about *all* interleavings: Figure 3 "cannot deadlock", and
//! the §2.2 example "will \[deadlock\] if x is not equal to zero". This
//! module enumerates every schedule of a program (up to the configured
//! limits) by depth-first search over machine states, memoizing visited
//! state fingerprints, and reports:
//!
//! - every distinct terminal store (the possibilistic outcome set),
//! - whether any schedule deadlocks or faults,
//! - whether the search was truncated by its limits.
//!
//! The outcome sets ground the noninterference experiments: a program is
//! (possibilistically) interference-free for an observer iff the observed
//! projection of the outcome set is independent of the secret inputs.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

use secflow_lang::{Program, VarId};

use crate::footprint::FootprintTable;
use crate::hash::WordBuildHasher;
use crate::machine::{Machine, ProcId, Status};

/// States to expand between `should_stop` polls, in this explorer
/// ([`explore_with`]) and in the deadlock analyzer's skeleton search.
/// Small enough that a deadline overrun is noticed within a fraction of
/// the typical per-state budget, large enough that the hook stays off
/// the hot path.
pub const CANCEL_POLL_STATES: usize = 256;

/// Search limits and reduction switches.
#[derive(Clone, Copy, Debug)]
pub struct ExploreLimits {
    /// Maximum distinct states to expand.
    pub max_states: usize,
    /// Maximum schedule depth (steps along one path).
    pub max_depth: usize,
    /// Partial-order reduction (persistent sets): at states where one
    /// enabled process is statically independent of everything the
    /// others can still do, expand only that process. Preserves every
    /// sink state — all outcomes, deadlocks, and witnesses — and,
    /// through the cycle proviso (no uncertified loop back edge is ever
    /// the singleton; see `FootprintTable::persistent_singleton`),
    /// fault *reachability* across live cycles, while visiting (often
    /// far) fewer states. On by default; `false` is the exhaustive
    /// escape hatch.
    pub por: bool,
    /// Sleep sets on top of persistent sets. Prunes commuting siblings
    /// the DFS already explores on a brother branch, so which states it
    /// visits depends on the depth-first order. Only meaningful with
    /// `por`.
    pub sleep_sets: bool,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_states: 200_000,
            max_depth: 10_000,
            por: true,
            sleep_sets: true,
        }
    }
}

impl ExploreLimits {
    /// These limits with both reductions switched off (full search).
    pub fn without_por(self) -> ExploreLimits {
        ExploreLimits {
            por: false,
            sleep_sets: false,
            ..self
        }
    }

    /// These limits with persistent sets only: the reduction whose
    /// state set is a function of the program alone, not of the
    /// traversal order (the service's `explore` mode).
    pub fn persistent_only(self) -> ExploreLimits {
        ExploreLimits {
            por: true,
            sleep_sets: false,
            ..self
        }
    }
}

/// What exhaustive exploration found.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExploreReport {
    /// Distinct final stores of terminating schedules.
    pub outcomes: BTreeSet<Vec<i64>>,
    /// Distinct stores observed in deadlocked states — a sorted witness
    /// set, schedule-independent (several deadlocked states may share a
    /// store, so this can be smaller than `deadlocks`).
    pub deadlock_witnesses: BTreeSet<Vec<i64>>,
    /// Number of distinct deadlocked states reached.
    pub deadlocks: usize,
    /// Number of distinct faulting transitions observed.
    pub faults: usize,
    /// Distinct states expanded.
    pub states: usize,
    /// Transitions partial-order reduction declined to expand (each one
    /// a successor the full search would have scheduled). Zero when POR
    /// is off.
    pub states_pruned: usize,
    /// `true` if a limit stopped the search (results are then a subset).
    pub truncated: bool,
    /// `true` if the caller's `should_stop` hook stopped the search
    /// (implies `truncated`).
    pub cancelled: bool,
}

impl ExploreReport {
    /// `true` iff some schedule deadlocks.
    pub fn can_deadlock(&self) -> bool {
        self.deadlocks > 0
    }

    /// Projects the outcome set onto the given variables.
    pub fn project(&self, vars: &[VarId]) -> BTreeSet<Vec<i64>> {
        self.outcomes
            .iter()
            .map(|store| vars.iter().map(|v| store[v.index()]).collect())
            .collect()
    }
}

/// Exhaustively explores all interleavings of `program` from the given
/// inputs.
pub fn explore(program: &Program, inputs: &[(VarId, i64)], limits: ExploreLimits) -> ExploreReport {
    explore_with(program, inputs, limits, &|| false)
}

/// [`explore`] with a cooperative cancellation hook: `should_stop` is
/// polled every [`CANCEL_POLL_STATES`] expanded states, and a `true`
/// return abandons the search with `cancelled` (and `truncated`) set.
pub fn explore_with(
    program: &Program,
    inputs: &[(VarId, i64)],
    limits: ExploreLimits,
    should_stop: &dyn Fn() -> bool,
) -> ExploreReport {
    let machine = Machine::with_inputs(program, inputs);
    let table = limits.por.then(|| FootprintTable::new(program));
    let mut report = ExploreReport {
        outcomes: BTreeSet::new(),
        deadlock_witnesses: BTreeSet::new(),
        deadlocks: 0,
        faults: 0,
        states: 0,
        states_pruned: 0,
        truncated: false,
        cancelled: false,
    };
    // Visited fingerprints, each remembering the sleep set it was
    // expanded under (always 0 when sleep sets are off). Re-reaching a
    // state with a *smaller* sleep set must re-expand exactly the
    // transitions slept before but awake now, else the reduction could
    // miss sink states hiding behind a previously-slept move.
    let mut seen: HashMap<u64, u64, WordBuildHasher> = HashMap::default();
    let mut stack: Vec<(Machine<'_>, usize, u64)> = vec![(machine, 0, 0)];
    while let Some((m, depth, sleep)) = stack.pop() {
        // Sleep sets need one bit per process id; past 64 processes the
        // state ignores its sleep mask (exploring more — still sound).
        let sleep_ok = limits.sleep_sets && limits.por && m.proc_count() <= 64;
        let sleep = if sleep_ok { sleep } else { 0 };
        // `None` = expand everything (first visit); `Some(mask)` = only
        // the newly woken transitions of a revisited state.
        let wake: Option<u64> = match seen.entry(m.fingerprint()) {
            Entry::Vacant(e) => {
                e.insert(sleep);
                None
            }
            Entry::Occupied(mut e) => {
                let woken = *e.get() & !sleep;
                if woken == 0 {
                    continue;
                }
                *e.get_mut() &= sleep;
                Some(woken)
            }
        };
        let fresh = wake.is_none();
        if fresh {
            if report.states >= limits.max_states {
                report.truncated = true;
                break;
            }
            if report.states.is_multiple_of(CANCEL_POLL_STATES) && should_stop() {
                report.truncated = true;
                report.cancelled = true;
                break;
            }
            report.states += 1;
            match m.status() {
                Status::Terminated => {
                    report.outcomes.insert(m.store().to_vec());
                    continue;
                }
                Status::Deadlocked => {
                    report.deadlocks += 1;
                    report.deadlock_witnesses.insert(m.store().to_vec());
                    continue;
                }
                Status::Running => {}
            }
        }
        if depth >= limits.max_depth {
            report.truncated = true;
            continue;
        }
        let enabled = m.enabled();
        // Persistent sets: the selection is a pure function of the
        // state, so first visits and revisits agree on the candidates.
        let candidates: &[ProcId] = match table
            .as_ref()
            .and_then(|t| t.persistent_singleton(&m, &enabled))
        {
            Some(p) => {
                if fresh {
                    report.states_pruned += enabled.len() - 1;
                }
                let idx = enabled.iter().position(|&q| q == p).expect("enabled");
                &enabled[idx..=idx]
            }
            None => &enabled,
        };
        let mut cur: u64 = sleep;
        let mut m = Some(m);
        for (k, &pid) in candidates.iter().enumerate() {
            let here = m.as_ref().expect("only the last candidate takes the state");
            let bit = 1u64 << pid.0.min(63);
            if sleep_ok && cur & bit != 0 {
                // A sibling branch of the DFS already explores this
                // commuting move from an equivalent point.
                if fresh {
                    report.states_pruned += 1;
                }
                continue;
            }
            if wake.is_none_or(|w| w & bit != 0) {
                let child_sleep = if sleep_ok {
                    // Keep only the slept moves that commute with this
                    // step; dependent ones wake up.
                    let (mut kept, mut rest) = (0u64, cur);
                    while rest != 0 {
                        let q = ProcId(rest.trailing_zeros() as usize);
                        rest &= rest - 1;
                        let t = table.as_ref().expect("sleep_ok implies table");
                        if t.independent_at(here, q, pid) {
                            kept |= 1 << q.0;
                        }
                    }
                    kept
                } else {
                    0
                };
                // The last candidate steps the state itself instead of a
                // copy: nothing reads it after its last successor.
                let mut next = if k + 1 == candidates.len() {
                    m.take().expect("the state is still here")
                } else {
                    here.clone()
                };
                match next.step(pid) {
                    Ok(_) => stack.push((next, depth + 1, child_sleep)),
                    Err(_) => report.faults += 1,
                }
            }
            if sleep_ok {
                cur |= bit;
            }
        }
    }
    report
}

/// `true` iff some interleaving of `program` deadlocks (within limits).
pub fn can_deadlock(program: &Program, inputs: &[(VarId, i64)], limits: ExploreLimits) -> bool {
    explore(program, inputs, limits).can_deadlock()
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_lang::parse;

    fn lim() -> ExploreLimits {
        ExploreLimits::default()
    }

    #[test]
    fn sequential_program_has_one_outcome() {
        let p = parse("var x : integer; begin x := 1; x := x + 1 end").unwrap();
        let r = explore(&p, &[], lim());
        assert_eq!(r.outcomes.len(), 1);
        assert_eq!(r.deadlocks, 0);
        assert!(!r.truncated);
    }

    #[test]
    fn racy_program_has_multiple_outcomes() {
        let p = parse("var x : integer; cobegin x := 1 || x := 2 coend").unwrap();
        let r = explore(&p, &[], lim());
        let x = p.var("x");
        let xs = r.project(&[x]);
        assert_eq!(xs, [vec![1], vec![2]].into_iter().collect::<BTreeSet<_>>());
    }

    #[test]
    fn read_write_race_is_fully_enumerated() {
        // y := x can see x before or after x := 5.
        let p = parse("var x, y : integer; cobegin x := 5 || y := x coend").unwrap();
        let r = explore(&p, &[], lim());
        let ys = r.project(&[p.var("y")]);
        assert_eq!(ys, [vec![0], vec![5]].into_iter().collect::<BTreeSet<_>>());
    }

    #[test]
    fn semaphore_ordering_removes_nondeterminism() {
        let p = parse(
            "var x, y : integer; s : semaphore;
             cobegin begin x := 5; signal(s) end || begin wait(s); y := x end coend",
        )
        .unwrap();
        let r = explore(&p, &[], lim());
        let ys = r.project(&[p.var("y")]);
        assert_eq!(ys, [vec![5]].into_iter().collect::<BTreeSet<_>>());
        assert_eq!(r.deadlocks, 0);
    }

    #[test]
    fn paper_2_2_example_deadlocks_exactly_when_x_nonzero() {
        let p = parse(
            "var x, y : integer; sem : semaphore;
             cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend",
        )
        .unwrap();
        assert!(!can_deadlock(&p, &[(p.var("x"), 0)], lim()));
        assert!(can_deadlock(&p, &[(p.var("x"), 1)], lim()));
        // Deadlocked schedules leave a witness store; clean ones do not.
        let r = explore(&p, &[(p.var("x"), 1)], lim());
        assert!(!r.deadlock_witnesses.is_empty());
        assert!(r.deadlock_witnesses.len() <= r.deadlocks);
        let clean = explore(&p, &[(p.var("x"), 0)], lim());
        assert!(clean.deadlock_witnesses.is_empty());
    }

    #[test]
    fn faults_are_counted_not_fatal() {
        let p = parse("var x, y : integer; cobegin x := 1 / x || x := 1 coend").unwrap();
        // One ordering divides by zero, the other by one.
        let r = explore(&p, &[], lim());
        assert!(r.faults > 0);
        assert!(!r.outcomes.is_empty());
    }

    #[test]
    fn truncation_is_reported_for_infinite_loops() {
        let p = parse("var x : integer; while true do x := x + 1").unwrap();
        let r = explore(
            &p,
            &[],
            ExploreLimits {
                max_states: 100,
                max_depth: 50,
                ..ExploreLimits::default()
            },
        );
        assert!(r.truncated);
    }

    #[test]
    fn cancellation_hook_stops_the_search() {
        let p = parse("var x : integer; while true do x := x + 1").unwrap();
        let r = explore_with(&p, &[], lim(), &|| true);
        assert!(r.cancelled);
        assert!(r.truncated);
        assert!(r.states <= CANCEL_POLL_STATES);

        // The hook is polled once per quantum, so k false polls license
        // at most k quanta of expanded states.
        let polls = std::cell::Cell::new(0);
        let stop = || {
            polls.set(polls.get() + 1);
            polls.get() > 8
        };
        let r = explore_with(&p, &[], lim(), &stop);
        assert!(r.cancelled);
        assert!(r.states <= 8 * CANCEL_POLL_STATES, "{} states", r.states);
    }

    /// Projects a report onto the mode-independent verdict: POR changes
    /// how many states are visited (and how many faulting transitions
    /// are attempted), never what is reachable.
    fn verdict(r: &ExploreReport) -> (BTreeSet<Vec<i64>>, BTreeSet<Vec<i64>>, usize, bool, bool) {
        (
            r.outcomes.clone(),
            r.deadlock_witnesses.clone(),
            r.deadlocks,
            r.faults > 0,
            r.truncated,
        )
    }

    #[test]
    fn por_preserves_verdicts_and_prunes_disjoint_processes() {
        let p = parse(
            "var a, b, c : integer;
             cobegin begin a := 1; a := a + 1 end
                  || begin b := 1; b := b + 1 end
                  || begin c := 1; c := c + 1 end coend",
        )
        .unwrap();
        let full = explore(&p, &[], lim().without_por());
        let por = explore(&p, &[], lim());
        assert_eq!(verdict(&full), verdict(&por));
        assert!(por.states_pruned > 0);
        assert!(
            por.states < full.states,
            "por {} vs full {}",
            por.states,
            full.states
        );
        assert_eq!(full.states_pruned, 0);
    }

    #[test]
    fn por_preserves_deadlocks_and_witnesses() {
        let p = parse(
            "var x, y : integer; sem : semaphore;
             cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend",
        )
        .unwrap();
        for inputs in [vec![(p.var("x"), 0)], vec![(p.var("x"), 1)]] {
            let full = explore(&p, &inputs, lim().without_por());
            let por = explore(&p, &inputs, lim());
            assert_eq!(verdict(&full), verdict(&por));
        }
    }

    #[test]
    fn persistent_only_mode_matches_full_verdicts_too() {
        let p = parse(
            "var a, b : integer; s : semaphore initially(1);
             cobegin begin wait(s); a := a + 1; signal(s) end
                  || begin wait(s); a := a + 2; signal(s) end
                  || begin b := 1; b := 2 end coend",
        )
        .unwrap();
        let full = explore(&p, &[], lim().without_por());
        let pers = explore(&p, &[], lim().persistent_only());
        let both = explore(&p, &[], lim());
        assert_eq!(verdict(&full), verdict(&pers));
        assert_eq!(verdict(&full), verdict(&both));
        assert!(both.states <= pers.states);
        assert!(pers.states <= full.states);
    }

    #[test]
    fn por_cannot_starve_a_fault_behind_a_live_loop() {
        // The ignoring-problem regression: without the cycle proviso
        // the lower-id live loop is the singleton at every state of its
        // cycle and the sibling's fault is never attempted (POR
        // reported faults: 0 against the full search's 3).
        let p =
            parse("var y, z : integer; cobegin while 1 = 1 do skip || y := z / 0 coend").unwrap();
        let full = explore(&p, &[], lim().without_por());
        assert!(full.faults > 0);
        assert!(!full.truncated);
        for (name, l) in [("default", lim()), ("persistent", lim().persistent_only())] {
            let r = explore(&p, &[], l);
            assert_eq!(verdict(&full), verdict(&r), "{name}");
            assert!(r.faults > 0, "{name}: POR starved the fault");
        }
    }

    #[test]
    fn memoization_collapses_commuting_steps() {
        // Two independent assignments: 2 interleavings, but the state
        // space after both is shared.
        let p = parse("var a, b : integer; cobegin a := 1 || b := 1 coend").unwrap();
        let r = explore(&p, &[], lim());
        assert_eq!(r.outcomes.len(), 1);
        assert!(r.states <= 8, "states = {}", r.states);
    }
}
