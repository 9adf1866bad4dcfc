//! `secflow-analyze` — multi-pass static analysis and lint.
//!
//! The paper's thesis is that information-control guarantees belong at
//! *compile time*. This crate extends that stance beyond flow
//! certification: a [`PassManager`] runs pluggable [`AnalysisPass`]es
//! over a parsed [`Program`] and collects unified
//! [`Diag`](secflow_lang::Diag) diagnostics (stable `SF`-codes,
//! severities, spans, fix hints) with deterministic ordering and dedup.
//!
//! # Passes and diagnostic codes
//!
//! | Code | Severity | Pass | Meaning |
//! |------|----------|------|---------|
//! | SF000 | error   | (manager) | an analysis pass panicked; its findings were discarded |
//! | SF001 | warning | sem-statics | semaphore declared but never used |
//! | SF002 | warning | sem-statics | semaphore signaled but never waited on |
//! | SF003 | error   | sem-statics | `wait` on a never-signaled, zero-initialized semaphore |
//! | SF004 | warning | sem-statics | a `cobegin` performs more unconditional waits than signals can ever occur |
//! | SF010 | warning | deadlock | some schedule/input reaches a state where this `wait` blocks forever |
//! | SF011 | warning | deadlock | circular signal-after-wait dependency between semaphores |
//! | SF012 | info    | deadlock | abstract exploration truncated; no deadlock verdict |
//! | SF020 | warning | dataflow | variable may be read before its first assignment |
//! | SF021 | warning | dataflow | dead store: definitely overwritten before any read |
//! | SF030 | info    | provenance | `wait` raises the global flow class (§2.2 synchronization channel) |
//! | SF031 | info    | provenance | loop guard raises the global flow class (termination channel) |
//! | SF032 | info    | provenance | `if` guard joins the global flow because a branch has one |
//! | SF040 | warning | atomicity | action references ≥ 2 variables writable by sibling processes (§2.0) |
//! | SF050 | warning | race | read/write race: sibling processes access a variable with no common semaphore held |
//! | SF051 | warning | race | write/write race: sibling processes both assign a variable with no common semaphore held |
//! | SF052 | info    | race | footprint summary: parallel action pairs and how many are independent |
//!
//! Lint complements `certify`: certification needs a security binding
//! and answers "does classified information leak?"; lint needs only the
//! program and answers "is the synchronization structure sane, and
//! where would a leak come from?".
//!
//! # Examples
//!
//! ```
//! use secflow_analyze::analyze;
//! use secflow_lang::parse;
//!
//! // The §2.2 covert channel: statically deadlock-capable (take the
//! // x ≠ 0 branch and the second process waits forever).
//! let p = parse(
//!     "var x, y : integer; sem : semaphore;
//!      cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend",
//! )
//! .unwrap();
//! let report = analyze(&p);
//! assert!(report.diags.iter().any(|d| d.code == "SF010"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomicity;
pub mod dataflow;
pub mod deadlock;
pub mod footprint;
pub mod pass;
pub mod provenance;
pub mod sem_statics;

pub use atomicity::AtomicityPass;
pub use dataflow::DataflowPass;
pub use deadlock::{deadlock_analysis, deadlock_analysis_with, DeadlockPass, DeadlockReport};
pub use footprint::{mutex_candidates, race_analysis, Race, RacePass, RaceReport};
pub use pass::{AnalysisPass, AnalysisReport, PassManager};
pub use provenance::ProvenancePass;
pub use sem_statics::SemStaticsPass;

use secflow_lang::Program;

/// Runs the default pass pipeline over `program`.
///
/// Equivalent to `PassManager::with_default_passes().run(program)`.
pub fn analyze(program: &Program) -> AnalysisReport {
    PassManager::with_default_passes().run(program)
}

/// [`analyze`] with a cooperative cancellation hook (see
/// [`PassManager::run_with`]).
pub fn analyze_with(program: &Program, should_stop: &dyn Fn() -> bool) -> AnalysisReport {
    PassManager::with_default_passes().run_with(program, should_stop)
}
