//! Differential testing of partial-order reduction: for generated
//! programs, the reduced searches must agree with the full interleaving
//! search on every *verdict* — outcome set, deadlock count and witness
//! set, fault reachability — while visiting no more states. A count
//! gate pins the exact state counts of the reduced search on the
//! benchmark's explore shapes.
//!
//! The generator's default `bounded_loops: true` keeps every program
//! terminating under every schedule, and the limits below never bind on
//! the reduced searches, so none of them truncates.
//!
//! The two reduced modes are compared against the full search by
//! verdict projection: sleep sets are traversal-order dependent, so
//! `states` legitimately differs between the modes.

use proptest::prelude::*;

use secflow::runtime::{explore_with, ExploreLimits, ExploreReport};
use secflow::workload::{
    dining_philosophers, generate, indep, producer_consumer, readers_writers, GenConfig,
};

/// Roomy enough that no generated program ever hits a limit with the
/// reduction on. Persistent sets only — the service's `explore` mode.
const LIMITS: ExploreLimits = ExploreLimits {
    max_states: 500_000,
    max_depth: 20_000,
    por: true,
    sleep_sets: false,
};

/// The same limits with the reduction off: the ground-truth full search.
const FULL: ExploreLimits = ExploreLimits {
    por: false,
    sleep_sets: false,
    ..LIMITS
};

/// The same limits in the default mode (sleep sets on).
const SLEEPY: ExploreLimits = ExploreLimits {
    sleep_sets: true,
    ..LIMITS
};

/// Asserts the POR-mode-invariant projection of two reports is equal:
/// everything except the visit statistics. `faults` is projected to
/// reachability — the reduction executes each faulting action at least
/// once but not once per interleaving, so the exact count is
/// schedule-set dependent.
fn assert_same_verdicts(a: &ExploreReport, b: &ExploreReport, ctx: &str) {
    assert_eq!(a.outcomes, b.outcomes, "{ctx}: outcome sets differ");
    assert_eq!(
        a.deadlock_witnesses, b.deadlock_witnesses,
        "{ctx}: witness sets differ"
    );
    assert_eq!(a.deadlocks, b.deadlocks, "{ctx}: deadlock counts differ");
    assert_eq!(a.faults > 0, b.faults > 0, "{ctx}: fault verdicts differ");
    assert_eq!(a.truncated, b.truncated, "{ctx}: truncation differs");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reduced searches (persistent sets alone, and with sleep sets
    /// stacked on top) reach exactly the verdicts of the full search.
    #[test]
    fn por_preserves_verdicts_of_the_full_search(seed in 0u64..100_000) {
        let cfg = GenConfig { target_stmts: 30, ..GenConfig::default() };
        let p = generate(&cfg, seed);
        let full = explore_with(&p, &[], FULL, &|| false);
        // A handful of generated programs exceed the state cap without
        // the reduction; the verdict comparison is only meaningful on
        // complete searches, so skip those seeds.
        if full.truncated {
            return Ok(());
        }
        let persistent = explore_with(&p, &[], LIMITS, &|| false);
        let sleepy = explore_with(&p, &[], SLEEPY, &|| false);
        for (name, reduced) in [("persistent", &persistent), ("sleepy", &sleepy)] {
            assert_same_verdicts(reduced, &full, &format!("seed {seed}, {name}"));
            prop_assert!(
                reduced.states <= full.states,
                "{}: reduction expanded more states ({} > {})",
                name, reduced.states, full.states
            );
        }
    }
}

/// The acceptance pin: on ordered dining philosophers the reduction
/// visits ≥ 10x fewer states than the full search with an identical
/// verdict, and on deadlocking philosophers it preserves every deadlock
/// witness. The exact counts are `BENCH_explore.json`'s.
#[test]
fn philosophers_por_reduces_10x_with_identical_verdicts() {
    let p = dining_philosophers(4, 3, true);
    let full = explore_with(&p, &[], FULL, &|| false);
    let persistent = explore_with(&p, &[], LIMITS, &|| false);
    let reduced = explore_with(&p, &[], SLEEPY, &|| false);
    assert!(!full.truncated && !reduced.truncated);
    assert_same_verdicts(&reduced, &full, "philosophers(4, 3, ordered)");
    assert_same_verdicts(&persistent, &full, "philosophers(4, 3, ordered)");
    assert_eq!(full.deadlocks, 0, "ordered philosophers are deadlock-free");
    assert_eq!(
        [full.states, persistent.states, reduced.states],
        [291_089, 31_758, 20_566]
    );
    assert!(
        reduced.states * 10 <= full.states,
        "POR must reduce ≥ 10x here: {} vs {}",
        reduced.states,
        full.states
    );
    assert!(reduced.states_pruned > 0);
    assert_eq!(full.states_pruned, 0);

    let risky = dining_philosophers(3, 1, false);
    let full = explore_with(&risky, &[], FULL, &|| false);
    let reduced = explore_with(&risky, &[], SLEEPY, &|| false);
    assert!(full.deadlocks > 0);
    assert_same_verdicts(&reduced, &full, "philosophers(3, 1, unordered)");
}

/// The ignoring-problem regression (cycle proviso): a state-preserving
/// live loop beside a faulting sibling. Without the proviso the
/// reducer picks the lower-id loop as its singleton at every state of
/// the cycle, so the sibling's fault is never attempted — POR reported
/// `faults: 0` against the full search's 3. Every reduced mode must
/// agree with the full search's fault verdict.
#[test]
fn live_loop_cannot_starve_a_sibling_fault() {
    let p =
        secflow::lang::parse("var y, z : integer; cobegin while 1 = 1 do skip || y := z / 0 coend")
            .unwrap();
    let full = explore_with(&p, &[], FULL, &|| false);
    assert!(full.faults > 0, "the fault is reachable in the full graph");
    assert!(!full.truncated);
    let persistent = explore_with(&p, &[], LIMITS, &|| false);
    let sleepy = explore_with(&p, &[], SLEEPY, &|| false);
    assert_same_verdicts(&persistent, &full, "persistent");
    assert_same_verdicts(&sleepy, &full, "sleepy");
}

/// The `indep` family is the reduction's best case: one persistent
/// singleton per state collapses the interleaving lattice to a line.
#[test]
fn indep_family_collapses_under_por() {
    let p = indep(4, 4);
    let full = explore_with(&p, &[], FULL, &|| false);
    let reduced = explore_with(&p, &[], SLEEPY, &|| false);
    assert!(!full.truncated);
    assert_same_verdicts(&reduced, &full, "indep(4, 4)");
    assert_eq!(full.outcomes.len(), 1);
    assert!(
        reduced.states * 10 <= full.states,
        "{} vs {}",
        reduced.states,
        full.states
    );
    let persistent = explore_with(&p, &[], LIMITS, &|| false);
    assert_same_verdicts(&persistent, &full, "indep(4, 4), persistent");
    assert!(persistent.states_pruned > 0);
}

/// The count gate: exact `states` and `states_pruned` of the
/// persistent-only search (the service's `explore` mode) on the
/// benchmark's input-free explore shapes. The `states` column is the
/// benchmark's committed explore table. The explorer deduplicates on a
/// 64-bit state fingerprint, so once it keys states exactly, a count
/// that moves here is a fingerprint collision that was hiding states.
#[test]
fn persistent_state_counts_are_pinned() {
    for (family, a, b, states, pruned) in [
        ("philosophers", 3, 1, 186, 146),
        ("philosophers", 3, 2, 1_199, 1_130),
        ("philosophers", 4, 1, 870, 1_184),
        ("philosophers", 4, 2, 10_898, 17_228),
        ("philosophers", 5, 1, 3_808, 7_454),
        ("ordered", 3, 1, 136, 89),
        ("ordered", 3, 2, 797, 636),
        ("ordered", 4, 1, 612, 712),
        ("ordered", 4, 2, 6_990, 9_648),
        ("ordered", 5, 1, 2_644, 4_588),
        ("producer_consumer", 2, 1, 36, 9),
        ("producer_consumer", 3, 2, 141, 54),
        ("producer_consumer", 6, 2, 330, 138),
        ("readers_writers", 2, 1, 223, 52),
        ("readers_writers", 2, 2, 463, 130),
        ("readers_writers", 3, 1, 1_039, 177),
        ("indep", 3, 2, 11, 9),
        ("indep", 4, 3, 18, 24),
        ("indep", 5, 2, 17, 30),
    ] {
        let program = match family {
            "philosophers" => dining_philosophers(a, b as i64, false),
            "ordered" => dining_philosophers(a, b as i64, true),
            "producer_consumer" => producer_consumer(a as i64, b as i64),
            "readers_writers" => readers_writers(a, b as i64),
            _ => indep(a, b),
        };
        let limits = ExploreLimits::default().persistent_only();
        let r = explore_with(&program, &[], limits, &|| false);
        let name = format!("{family}({a}, {b})");
        assert!(!r.truncated, "{name}");
        assert_eq!((r.states, r.states_pruned), (states, pruned), "{name}");
    }
}
