//! Static per-statement footprints and the independence relation.
//!
//! Every atomic action of the machine (§2.0: one assignment, one guard
//! evaluation, one semaphore operation) reads and writes a statically
//! known set of variables. Two actions of *different* processes commute
//! — executing them in either order reaches the same state — iff their
//! footprints do not conflict: no write/write or read/write overlap on a
//! data variable and no operations on a shared semaphore (a `signal` can
//! enable a blocked `wait`, so any two ops on the same semaphore are
//! ordered observably).
//!
//! The [`FootprintTable`] precomputes, for every statement of a program,
//!
//! - the **action footprint**: what the single atomic step of executing
//!   that statement's head touches, and
//! - the **region footprint**: the union of action footprints over the
//!   whole subtree — an over-approximation of everything a process can
//!   ever touch while its continuation stack still contains that
//!   statement.
//!
//! Both are keyed by statement identity (`&Stmt` address, the same
//! scheme [`Machine::fingerprint`](crate::Machine::fingerprint) uses)
//! and hashed with one [`WordHasher`](crate::WordHasher) step, so the
//! explorer's hot loop does O(1) lookups and O(1) bitmask conflict
//! tests.
//!
//! On top of the table, [`FootprintTable::persistent_singleton`] picks a
//! singleton *persistent set* at a machine state when one exists: an
//! enabled process whose next action is independent of every action any
//! *other* live process can ever take. Exploring only that process from
//! the state preserves every reachable sink state — all deadlocks and
//! all terminal outcomes — which is exactly what the explorer's verdicts
//! are built from (see DESIGN §12 for the soundness argument).

use std::collections::{HashMap, HashSet};

use secflow_lang::{BinOp, Expr, Program, Stmt, VarId};

use crate::hash::WordBuildHasher;
use crate::machine::{Machine, ProcId};

/// A set of variables as a fixed-width bitmask. Variable indices at or
/// above [`VarSet::CAPACITY`] collapse into a *universal* bit that
/// conflicts with everything — a sound (if total) over-approximation
/// for the rare program with more than 127 variables.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct VarSet {
    bits: u128,
}

impl VarSet {
    /// Highest variable index representable exactly.
    pub const CAPACITY: usize = 127;

    const UNIVERSAL: u128 = 1 << 127;

    /// The empty set.
    pub const EMPTY: VarSet = VarSet { bits: 0 };

    /// A set that intersects every set, including the empty one (used
    /// for "conflicts with anything" footprints).
    pub const UNIVERSE: VarSet = VarSet { bits: u128::MAX };

    /// Adds a variable.
    pub fn insert(&mut self, v: VarId) {
        if v.index() >= Self::CAPACITY {
            self.bits |= Self::UNIVERSAL;
        } else {
            self.bits |= 1 << v.index();
        }
    }

    /// `true` iff the set is empty.
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// `true` iff `v` is in the set (always `true` once the universal
    /// overflow bit is set).
    pub fn contains(self, v: VarId) -> bool {
        if self.bits & Self::UNIVERSAL != 0 {
            return true;
        }
        v.index() < Self::CAPACITY && self.bits & (1 << v.index()) != 0
    }

    /// Set union, in place.
    pub fn union_with(&mut self, other: VarSet) {
        self.bits |= other.bits;
    }

    /// The members of both sets, the overflow bit included.
    fn meet(self, other: VarSet) -> VarSet {
        VarSet {
            bits: self.bits & other.bits,
        }
    }

    /// The members of `self` not in `other`, the overflow bit included.
    fn minus(self, other: VarSet) -> VarSet {
        VarSet {
            bits: self.bits & !other.bits,
        }
    }

    /// `true` iff the sets share a variable. The universal bit
    /// intersects everything, even the empty set — conservative in
    /// exactly the direction soundness needs.
    pub fn intersects(self, other: VarSet) -> bool {
        if (self.bits | other.bits) & Self::UNIVERSAL != 0 {
            return true;
        }
        self.bits & other.bits != 0
    }

    /// Exact member count (counts the overflow bit as one).
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Iterates the exactly-represented members, ascending.
    pub fn iter(self) -> impl Iterator<Item = VarId> {
        (0..Self::CAPACITY as u32)
            .filter(move |i| self.bits & (1u128 << i) != 0)
            .map(VarId)
    }
}

/// What one atomic action (or a whole statement subtree) reads, writes,
/// and synchronizes on.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct Footprint {
    /// Variables read (guard and right-hand-side operands).
    pub reads: VarSet,
    /// Variables written (assignment targets).
    pub writes: VarSet,
    /// Semaphores operated on by `wait`/`signal`. Any two operations on
    /// a shared semaphore are dependent regardless of direction.
    pub sems: VarSet,
}

impl Footprint {
    /// The empty footprint (control-only actions: `skip`, `begin`
    /// unfolding, `cobegin` spawn).
    pub const EMPTY: Footprint = Footprint {
        reads: VarSet::EMPTY,
        writes: VarSet::EMPTY,
        sems: VarSet::EMPTY,
    };

    /// A footprint that conflicts with everything (used when a lookup
    /// misses, so an incomplete table degrades to no reduction, never
    /// to an unsound one).
    pub const UNIVERSE: Footprint = Footprint {
        reads: VarSet::UNIVERSE,
        writes: VarSet::UNIVERSE,
        sems: VarSet::UNIVERSE,
    };

    /// Union, in place.
    pub fn union_with(&mut self, other: &Footprint) {
        self.reads.union_with(other.reads);
        self.writes.union_with(other.writes);
        self.sems.union_with(other.sems);
    }

    /// `true` iff the two footprints conflict: write/write overlap,
    /// read/write overlap (either direction), or a shared semaphore.
    /// Two actions of different processes are *independent* iff their
    /// footprints do not conflict.
    pub fn conflicts(&self, other: &Footprint) -> bool {
        self.writes.intersects(other.writes)
            || self.writes.intersects(other.reads)
            || other.writes.intersects(self.reads)
            || self.sems.intersects(other.sems)
    }

    /// `true` iff nothing is touched.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty() && self.sems.is_empty()
    }

    fn meet(&self, other: &Footprint) -> Footprint {
        Footprint {
            reads: self.reads.meet(other.reads),
            writes: self.writes.meet(other.writes),
            sems: self.sems.meet(other.sems),
        }
    }

    fn minus(&self, other: &Footprint) -> Footprint {
        Footprint {
            reads: self.reads.minus(other.reads),
            writes: self.writes.minus(other.writes),
            sems: self.sems.minus(other.sems),
        }
    }
}

/// The regions of a state's live processes, folded so that the union of
/// all of them but one costs two bitwise operations: `all` has each bit
/// that some region has, `twice` each bit that two or more regions have.
/// A bit is in some *other* region than `r` iff it is in `twice`, or in
/// `all` but not in `r`.
#[derive(Default)]
struct Regions {
    all: Footprint,
    twice: Footprint,
}

impl Regions {
    fn add(&mut self, region: &Footprint) {
        self.twice.union_with(&self.all.meet(region));
        self.all.union_with(region);
    }

    /// The union of every added region except `region`, which must be
    /// one of them.
    fn without(&self, region: &Footprint) -> Footprint {
        let mut others = self.all.minus(region);
        others.union_with(&self.twice);
        others
    }
}

/// The footprint of the single atomic step that executes `stmt`'s head
/// (not its subtree): evaluating a guard reads its variables, an
/// assignment reads its right-hand side and writes its target, a
/// semaphore op touches its semaphore, and control unfolding (`skip`,
/// `begin`, `cobegin` spawn) touches nothing.
pub fn action_footprint(stmt: &Stmt) -> Footprint {
    let mut fp = Footprint::EMPTY;
    match stmt {
        Stmt::Skip(_) | Stmt::Seq { .. } | Stmt::Cobegin { .. } => {}
        Stmt::Assign { var, expr, .. } => {
            fp.writes.insert(*var);
            expr.for_each_var(&mut |v| fp.reads.insert(v));
        }
        Stmt::If { cond, .. } | Stmt::While { cond, .. } => {
            cond.for_each_var(&mut |v| fp.reads.insert(v));
        }
        Stmt::Wait { sem, .. } | Stmt::Signal { sem, .. } => {
            fp.sems.insert(*sem);
        }
    }
    fp
}

/// Statement identity: the borrowed program is immutable for the
/// machine's lifetime, so addresses are stable keys (the same scheme
/// the state fingerprint uses).
fn key(stmt: &Stmt) -> usize {
    stmt as *const Stmt as usize
}

/// How a variable's value evolves over the whole program, for the
/// monotone-counter loop certificate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mono {
    /// Never assigned and never a semaphore operand.
    Unused,
    /// Every update is `v := v + c` / `v := v - c` with a constant
    /// `c` of one fixed sign: the value only moves one way.
    Step {
        /// `true` = strictly increasing, `false` = strictly decreasing.
        inc: bool,
    },
    /// Some update is not a fixed-sign constant step (arbitrary
    /// assignment, or a `wait`/`signal`, which moves a semaphore both
    /// ways).
    Other,
}

/// Recognizes the constant-step update `v := v + c`, `v := c + v` or
/// `v := v - c` (constant `c ≠ 0`) and returns the stepped variable and
/// direction. Anything else — including `c = 0`, which makes no
/// progress — is `None`.
fn const_step(stmt: &Stmt) -> Option<(VarId, bool)> {
    let Stmt::Assign { var, expr, .. } = stmt else {
        return None;
    };
    let Expr::Binary { op, lhs, rhs, .. } = expr else {
        return None;
    };
    let (read, c) = match (&**lhs, &**rhs) {
        (Expr::Var(v, _), Expr::Const(c, _)) => (*v, *c),
        (Expr::Const(c, _), Expr::Var(v, _)) if *op == BinOp::Add => (*v, *c),
        _ => return None,
    };
    if read != *var || c == 0 {
        return None;
    }
    match op {
        BinOp::Add => Some((*var, c > 0)),
        BinOp::Sub => Some((*var, c < 0)),
        _ => None,
    }
}

/// Folds one statement's effect on every variable's [`Mono`] state,
/// recursing over the whole subtree.
fn scan_mono(stmt: &Stmt, mono: &mut [Mono]) {
    let mut touch = |v: VarId, dir: Option<bool>| {
        let slot = &mut mono[v.index()];
        *slot = match (*slot, dir) {
            (Mono::Unused, Some(inc)) => Mono::Step { inc },
            (Mono::Step { inc }, Some(d)) if inc == d => Mono::Step { inc },
            _ => Mono::Other,
        };
    };
    match stmt {
        Stmt::Assign { var, .. } => touch(*var, const_step(stmt).map(|(_, inc)| inc)),
        // `wait` decrements and `signal` increments: both directions.
        Stmt::Wait { sem, .. } | Stmt::Signal { sem, .. } => touch(*sem, None),
        Stmt::Skip(_) => {}
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            scan_mono(then_branch, mono);
            if let Some(eb) = else_branch {
                scan_mono(eb, mono);
            }
        }
        Stmt::While { body, .. } => scan_mono(body, mono),
        Stmt::Seq { stmts, .. } => {
            for s in stmts {
                scan_mono(s, mono);
            }
        }
        Stmt::Cobegin { branches, .. } => {
            for b in branches {
                scan_mono(b, mono);
            }
        }
    }
}

/// Calls `f` on every statement a loop body executes unconditionally on
/// each complete iteration: the body itself and, through nested `Seq`,
/// all their children — but nothing under an `if`, an inner `while`, or
/// a `cobegin` branch.
fn for_each_spine_stmt<'p>(stmt: &'p Stmt, f: &mut impl FnMut(&'p Stmt)) {
    f(stmt);
    if let Stmt::Seq { stmts, .. } = stmt {
        for s in stmts {
            for_each_spine_stmt(s, f);
        }
    }
}

/// Precomputed action and region footprints for every statement of one
/// program, plus the derived independence tests the explorers consume.
pub struct FootprintTable {
    actions: HashMap<usize, Footprint, WordBuildHasher>,
    regions: HashMap<usize, Footprint, WordBuildHasher>,
    /// `while` statements certified as *monotone-progress loops*: every
    /// complete body iteration takes a constant step on a variable that
    /// moves in that one direction everywhere in the program, so the
    /// store can never return across the loop's back edge and the back
    /// edge can never lie on a state-graph cycle. Only these loops'
    /// guard re-tests may be persistent singletons (the cycle proviso).
    progress_loops: HashSet<usize, WordBuildHasher>,
}

impl FootprintTable {
    /// Walks the program once and tabulates every statement.
    pub fn new(program: &Program) -> FootprintTable {
        let count = program.body.statement_count();
        let mut table = FootprintTable {
            actions: HashMap::with_capacity_and_hasher(count, WordBuildHasher::default()),
            regions: HashMap::with_capacity_and_hasher(count, WordBuildHasher::default()),
            progress_loops: HashSet::default(),
        };
        table.build(&program.body);
        let mut mono = vec![Mono::Unused; program.symbols.len()];
        scan_mono(&program.body, &mut mono);
        table.certify_loops(&program.body, &mono);
        table
    }

    /// Marks every `while` whose body spine takes a constant step on a
    /// program-wide monotone variable (see [`FootprintTable::progress_loops`]).
    fn certify_loops(&mut self, stmt: &Stmt, mono: &[Mono]) {
        match stmt {
            Stmt::While { body, .. } => {
                let mut certified = false;
                for_each_spine_stmt(body, &mut |s| {
                    if let Some((v, inc)) = const_step(s) {
                        certified |= mono[v.index()] == (Mono::Step { inc });
                    }
                });
                if certified {
                    self.progress_loops.insert(key(stmt));
                }
                self.certify_loops(body, mono);
            }
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                self.certify_loops(then_branch, mono);
                if let Some(eb) = else_branch {
                    self.certify_loops(eb, mono);
                }
            }
            Stmt::Seq { stmts, .. } => {
                for s in stmts {
                    self.certify_loops(s, mono);
                }
            }
            Stmt::Cobegin { branches, .. } => {
                for b in branches {
                    self.certify_loops(b, mono);
                }
            }
            Stmt::Skip(_) | Stmt::Assign { .. } | Stmt::Wait { .. } | Stmt::Signal { .. } => {}
        }
    }

    /// `true` iff `stmt` is a `while` certified as a monotone-progress
    /// loop (its back edge can never close a state-graph cycle).
    pub fn is_progress_loop(&self, stmt: &Stmt) -> bool {
        self.progress_loops.contains(&key(stmt))
    }

    fn build(&mut self, stmt: &Stmt) -> Footprint {
        let action = action_footprint(stmt);
        let mut region = action;
        match stmt {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                region.union_with(&self.build(then_branch));
                if let Some(eb) = else_branch {
                    region.union_with(&self.build(eb));
                }
            }
            Stmt::While { body, .. } => {
                region.union_with(&self.build(body));
            }
            Stmt::Seq { stmts, .. } => {
                for s in stmts {
                    region.union_with(&self.build(s));
                }
            }
            Stmt::Cobegin { branches, .. } => {
                for b in branches {
                    region.union_with(&self.build(b));
                }
            }
            Stmt::Skip(_) | Stmt::Assign { .. } | Stmt::Wait { .. } | Stmt::Signal { .. } => {}
        }
        self.actions.insert(key(stmt), action);
        self.regions.insert(key(stmt), region);
        region
    }

    /// Footprint of the atomic step executing `stmt`'s head. A miss
    /// (statement from a different program) degrades to the universal
    /// footprint: no reduction, never an unsound one.
    pub fn action(&self, stmt: &Stmt) -> Footprint {
        self.actions
            .get(&key(stmt))
            .copied()
            .unwrap_or(Footprint::UNIVERSE)
    }

    /// Union footprint of `stmt`'s whole subtree — everything a process
    /// whose continuation contains `stmt` can ever touch.
    pub fn region(&self, stmt: &Stmt) -> Footprint {
        self.regions
            .get(&key(stmt))
            .copied()
            .unwrap_or(Footprint::UNIVERSE)
    }

    /// Everything process `pid` can still touch: the union of region
    /// footprints over its continuation stack. Spawned-but-unspawned
    /// children live inside those subtrees, so they are covered too.
    pub fn proc_region(&self, m: &Machine<'_>, pid: ProcId) -> Footprint {
        let mut region = Footprint::EMPTY;
        for s in m.frame_stmts(pid) {
            region.union_with(&self.region(s));
        }
        region
    }

    /// `true` iff the pending actions of two distinct processes at this
    /// state are independent (footprints do not conflict). Processes
    /// without a pending action are vacuously independent.
    pub fn independent_at(&self, m: &Machine<'_>, p: ProcId, q: ProcId) -> bool {
        match (m.pending_stmt(p), m.pending_stmt(q)) {
            (Some(a), Some(b)) => !self.action(a).conflicts(&self.action(b)),
            _ => true,
        }
    }

    /// Picks the lowest-id enabled process forming a singleton
    /// persistent set at `m`'s state, if any: its next action must be
    /// independent of the *entire remaining region* of every other live
    /// process, and must not be a loop-guard re-test (the cycle
    /// proviso, below). Returns `None` when fewer than two processes
    /// are enabled (nothing to prune) or no process qualifies (the
    /// caller then expands the full enabled set).
    ///
    /// **Cycle proviso.** Persistent sets alone suffer the classical
    /// *ignoring problem*: around a state-graph cycle the reducer can
    /// pick the same starvation-free singleton forever (`while 1 = 1 do
    /// skip` beside a faulting sibling), so a transition enabled at
    /// every state of the cycle is never explored. The fix must be a
    /// pure function of the state — both engines share it, and the
    /// work-stealing explorer cannot consult a DFS stack or a racy
    /// visited set without losing its deterministic merge — so the
    /// proviso is static, in the spirit of SPIN's safe-transition rule:
    /// a process whose next step is a loop-guard re-test
    /// ([`Machine::at_loop_head`], the machine's only back edge) is
    /// never the singleton — unless the loop carries a monotone-progress
    /// certificate ([`FootprintTable::is_progress_loop`]) proving its
    /// back edge can never lie on a state-graph cycle in the first
    /// place. Every cycle of the reduced graph then contains a fully
    /// expanded state, so nothing is ignored forever (DESIGN §12 has
    /// the full argument).
    ///
    /// Completion and spawn steps are fine candidates even though they
    /// *enable* other processes (waking a parent, spawning children):
    /// the preservation argument only needs that no transition
    /// executable while avoiding the candidate can disable it or fail
    /// to commute with it, and a parent can never move before the
    /// candidate's own process finishes — which it can only do through
    /// the candidate (see DESIGN §12).
    ///
    /// Each live process's region is computed once per call (and a
    /// candidate's own once more), not once per (candidate, process)
    /// pair: a conflict test is a disjunction of set intersections, so
    /// an action conflicts with some other process's region iff it
    /// conflicts with the union of those regions. Two running unions,
    /// of the bits some region has and of the bits two or more have,
    /// give that union for every candidate without allocating.
    pub fn persistent_singleton(&self, m: &Machine<'_>, enabled: &[ProcId]) -> Option<ProcId> {
        if enabled.len() < 2 {
            return None;
        }
        let mut live = Regions::default();
        for q in 0..m.proc_count() {
            let q = ProcId(q);
            if !m.is_done(q) {
                live.add(&self.proc_region(m, q));
            }
        }
        for &pid in enabled {
            let stmt = match m.pending_stmt(pid) {
                Some(s) => s,
                None => continue,
            };
            if m.at_loop_head(pid) && !self.progress_loops.contains(&key(stmt)) {
                // Cycle proviso: an uncertified back-edge step never
                // forms the singleton. First entry into a loop, and
                // re-tests of certified monotone-progress loops, stay
                // eligible.
                continue;
            }
            let others = live.without(&self.proc_region(m, pid));
            if !self.action(stmt).conflicts(&others) {
                return Some(pid);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_lang::parse;

    #[test]
    fn assign_reads_rhs_writes_target() {
        let p = parse("var x, y : integer; x := y + 1").unwrap();
        let t = FootprintTable::new(&p);
        let fp = t.action(&p.body);
        assert!(fp.writes.contains(p.var("x")));
        assert!(fp.reads.contains(p.var("y")));
        assert!(!fp.reads.contains(p.var("x")));
        assert!(fp.sems.is_empty());
    }

    #[test]
    fn disjoint_assignments_are_independent() {
        let a = parse("var a, b : integer; a := 1").unwrap();
        let b = parse("var a, b : integer; b := a").unwrap();
        let fa = action_footprint(&a.body);
        let fb = action_footprint(&b.body);
        // a := 1 writes {a}; b := a reads {a}: read/write conflict.
        assert!(fa.conflicts(&fb));
        let c = parse("var a, b, c : integer; c := 2").unwrap();
        let fc = action_footprint(&c.body);
        assert!(!fa.conflicts(&fc));
        assert!(!fb.conflicts(&fc));
    }

    #[test]
    fn semaphore_ops_on_same_sem_conflict_both_ways() {
        let p = parse("var s : semaphore; begin wait(s); signal(s) end").unwrap();
        let Stmt::Seq { stmts, .. } = &p.body else {
            panic!("expected seq");
        };
        let w = action_footprint(&stmts[0]);
        let s = action_footprint(&stmts[1]);
        assert!(w.conflicts(&s));
        assert!(s.conflicts(&w));
        assert!(w.conflicts(&w));
    }

    #[test]
    fn region_covers_the_whole_subtree() {
        let p = parse(
            "var x, y : integer; s : semaphore;
             while x < 3 do begin x := x + 1; wait(s); y := 0 end",
        )
        .unwrap();
        let t = FootprintTable::new(&p);
        let r = t.region(&p.body);
        assert!(r.reads.contains(p.var("x")));
        assert!(r.writes.contains(p.var("x")));
        assert!(r.writes.contains(p.var("y")));
        assert!(r.sems.contains(p.var("s")));
    }

    #[test]
    fn persistent_singleton_found_for_disjoint_processes() {
        // Each branch is a begin/end with two statements, so after the
        // spawn every process has ≥ 2 frames and touches disjoint vars.
        let p = parse(
            "var a, b : integer;
             cobegin begin a := 1; a := 2 end || begin b := 1; b := 2 end coend",
        )
        .unwrap();
        let t = FootprintTable::new(&p);
        let mut m = crate::Machine::new(&p);
        m.step(crate::ProcId(0)).unwrap(); // spawn
        m.step(crate::ProcId(1)).unwrap(); // unfold begin of branch 1
        m.step(crate::ProcId(2)).unwrap(); // unfold begin of branch 2
        let enabled = m.enabled();
        assert_eq!(enabled.len(), 2);
        assert_eq!(t.persistent_singleton(&m, &enabled), Some(crate::ProcId(1)));
    }

    #[test]
    fn shared_variable_blocks_the_singleton() {
        let p = parse(
            "var a : integer;
             cobegin begin a := 1; a := 2 end || begin a := 3; a := 4 end coend",
        )
        .unwrap();
        let t = FootprintTable::new(&p);
        let mut m = crate::Machine::new(&p);
        m.step(crate::ProcId(0)).unwrap();
        m.step(crate::ProcId(1)).unwrap();
        m.step(crate::ProcId(2)).unwrap();
        let enabled = m.enabled();
        assert_eq!(t.persistent_singleton(&m, &enabled), None);
    }

    #[test]
    fn monotone_counter_loops_are_certified() {
        let p = parse(
            "var n, r : integer;
             while r < 3 do begin n := n + 1; r := r + 1 end",
        )
        .unwrap();
        assert!(FootprintTable::new(&p).is_progress_loop(&p.body));
        // Countdown direction too (the generator's bounded-loop shape).
        let q = parse("var v : integer; while v > 0 do v := v - 1").unwrap();
        assert!(FootprintTable::new(&q).is_progress_loop(&q.body));
    }

    #[test]
    fn live_and_nonmonotone_loops_are_not_certified() {
        // No progress at all: a state-preserving cycle.
        let live = parse("var x : integer; while 1 = 1 do skip").unwrap();
        assert!(!FootprintTable::new(&live).is_progress_loop(&live.body));
        // The counter is assigned non-monotonically elsewhere.
        let reset = parse(
            "var r : integer;
             cobegin while r < 3 do r := r + 1 || r := 0 coend",
        )
        .unwrap();
        let t = FootprintTable::new(&reset);
        let Stmt::Cobegin { branches, .. } = &reset.body else {
            panic!("expected cobegin");
        };
        assert!(!t.is_progress_loop(&branches[0]));
        // The increment is conditional — not on every iteration.
        let cond = parse("var r, g : integer; while r < 3 do if g = 1 then r := r + 1").unwrap();
        assert!(!FootprintTable::new(&cond).is_progress_loop(&cond.body));
        // Zero step makes no progress.
        let zero = parse("var r : integer; while r < 3 do r := r + 0").unwrap();
        assert!(!FootprintTable::new(&zero).is_progress_loop(&zero.body));
    }

    #[test]
    fn uncertified_loop_head_never_forms_the_singleton() {
        // Cycle proviso: at the loop's back edge the looping process
        // must not be the singleton, or the sibling is starved forever.
        let p = parse(
            "var y, z : integer;
             cobegin while 1 = 1 do skip || y := z + 1 coend",
        )
        .unwrap();
        let t = FootprintTable::new(&p);
        let mut m = crate::Machine::new(&p);
        m.step(crate::ProcId(0)).unwrap(); // spawn
        m.step(crate::ProcId(1)).unwrap(); // guard: enter the loop
        m.step(crate::ProcId(1)).unwrap(); // skip: back at the loop head
        assert!(m.at_loop_head(crate::ProcId(1)));
        let enabled = m.enabled();
        assert_eq!(enabled.len(), 2);
        // Both are footprint-independent of everything, but only the
        // non-looping process may be picked.
        assert_eq!(t.persistent_singleton(&m, &enabled), Some(crate::ProcId(2)));
    }

    #[test]
    fn certified_loop_head_may_form_the_singleton() {
        let p = parse(
            "var r, b : integer;
             cobegin while r < 2 do r := r + 1 || begin b := 1; b := 2 end coend",
        )
        .unwrap();
        let t = FootprintTable::new(&p);
        let mut m = crate::Machine::new(&p);
        m.step(crate::ProcId(0)).unwrap(); // spawn
        m.step(crate::ProcId(1)).unwrap(); // guard: enter the loop
        m.step(crate::ProcId(1)).unwrap(); // r := r + 1
        assert!(m.at_loop_head(crate::ProcId(1)));
        let enabled = m.enabled();
        assert_eq!(enabled.len(), 2);
        assert_eq!(t.persistent_singleton(&m, &enabled), Some(crate::ProcId(1)));
    }

    #[test]
    fn varset_overflow_is_conservative() {
        let mut s = VarSet::EMPTY;
        s.insert(VarId(500));
        assert!(s.intersects(VarSet::EMPTY));
        assert!(s.contains(VarId(3)));
    }
}
