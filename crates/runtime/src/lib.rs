//! Runtime substrate: a small-step interpreter for the paper's parallel
//! language, schedulers, an exhaustive interleaving explorer, a dynamic
//! taint monitor, and a noninterference test harness.
//!
//! The paper's claims are about *all* executions of a program — a flow
//! exists if some interleaving realizes it, Figure 3 "cannot deadlock",
//! and certification is meant to imply the absence of observable
//! interference. This crate supplies the machinery to check those claims
//! empirically:
//!
//! - [`machine`] — the abstract machine (per-§2.0 atomicity: assignments,
//!   guard evaluations and semaphore operations are indivisible);
//! - [`sched`] — round-robin and seeded-random schedulers plus the run
//!   loop;
//! - [`trace`] — recorded executions and deterministic replay;
//! - [`explore`](mod@explore) — exhaustive bounded interleaving enumeration with state
//!   memoization (possibilistic outcome sets, deadlock detection);
//! - [`pexplore`](mod@pexplore) — the same search on N work-stealing
//!   workers with a sharded visited set and commutative result merging;
//! - [`hash`] — the word-at-a-time hash every state search keys on;
//! - [`monitor`] — a classic purely-dynamic taint monitor, kept as a
//!   comparator whose blind spots (untaken branches, synchronization)
//!   CFM closes;
//! - [`nitest`] — possibilistic noninterference checking with concrete
//!   witnesses.
//!
//! # Examples
//!
//! ```
//! use secflow_lang::parse;
//! use secflow_runtime::{Machine, RoundRobin, run};
//!
//! let p = parse("var x : integer; while x < 10 do x := x + 1").unwrap();
//! let mut m = Machine::new(&p);
//! let outcome = run(&mut m, &mut RoundRobin::new(), 1_000);
//! assert!(outcome.terminated());
//! assert_eq!(m.get(p.var("x")), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod footprint;
pub mod hash;
pub mod machine;
pub mod monitor;
pub mod nitest;
pub mod pexplore;
pub mod rng;
pub mod sched;
pub mod trace;

pub use explore::{can_deadlock, explore, explore_with, ExploreLimits, ExploreReport};
pub use footprint::{action_footprint, Footprint, FootprintTable, VarSet};
pub use hash::{WordBuildHasher, WordHasher};
pub use machine::{eval, Action, Fault, Machine, ProcId, Status};
pub use monitor::TaintMonitor;
pub use nitest::{
    check_binary_secret, check_noninterference, observe, NiReport, Observation, Witness,
};
pub use pexplore::{
    parallel_search, pexplore, pexplore_with, Expansion, SearchOutcome, ShardedSet,
};
pub use rng::SplitMix64;
pub use sched::{run, RandomSched, RoundRobin, RunOutcome, Scheduler};
pub use trace::{run_traced, Replay, Trace, TraceEvent};
