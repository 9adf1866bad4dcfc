//! Static deadlock detection (SF010–SF012).
//!
//! Two complementary analyses:
//!
//! 1. **Skeleton exploration** ([`deadlock_analysis`]): the program is
//!    abstracted to its "semaphore skeleton" — semaphore counters are
//!    tracked exactly (capped), data is dropped except for *stable*
//!    guard atoms (guards whose variables are never assigned anywhere).
//!    Stable atoms are canonicalized so that complementary guards like
//!    `x = 0` and `x # 0` share one atom with opposite polarity, and
//!    each atom is bound path-consistently the first time a run
//!    branches on it. The abstract state space is then explored
//!    exhaustively; a state where every unfinished process is blocked
//!    on `wait` is a *may*-deadlock (SF010). This is exactly what
//!    separates the paper's §2.2 covert channel (deadlock-capable on
//!    the `x ≠ 0` path) from Fig. 3 (deadlock-free: the two `if`s on
//!    `x = 0` / `x # 0` are complementary, so the "both skipped" path
//!    is infeasible).
//!
//!    The search fuses *invisible* steps: a `skip` or an assignment (a
//!    `Leaf`) and a `begin` unfolding touch no semaphore and no atom,
//!    so they commute with every other task's step, nothing can
//!    disable them, and a task about to take one is not blocked. Every
//!    task takes its invisible steps at once, right after the step that
//!    exposed them (`settle`). Each deadlocked skeleton state is still
//!    reached (move each invisible step of a path to it to just after
//!    the step that exposed it), and each state the fused search visits
//!    is one the unfused search visits, so `may_deadlock` and
//!    `blocked_waits` are those of the full skeleton whenever neither
//!    search truncates, on far fewer states (DESIGN §8).
//! 2. **Blocking graph** (SF011): for every `signal(s)` site, a forward
//!    must-analysis computes which semaphores have *always* been waited
//!    on first. If zero-initialized semaphores form a cycle of such
//!    dependencies (`s` is only signaled after `wait(t)` succeeds, and
//!    vice versa), no signal in the cycle can ever happen.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::{Hash, Hasher};

use secflow_lang::{BinOp, Diag, Expr, Program, Span, Stmt, UnOp, VarId};
use secflow_runtime::pexplore::{parallel_search, Expansion, CANCEL_POLL_STATES};
use secflow_runtime::{WordBuildHasher, WordHasher};

use crate::pass::AnalysisPass;

/// Semaphore counters saturate here; higher pending counts are folded.
const SEM_CAP: u8 = 8;
/// Loops whose body synchronizes are unrolled at most this many times
/// per activation before the task is treated as spinning.
const LOOP_CAP: u8 = 2;
/// Abstract task limit; beyond this the exploration is truncated.
const TASK_CAP: usize = 256;
/// Programs above this statement count are not explored.
const STMT_CAP: usize = 5_000;

/// Static deadlock detection pass (skeleton exploration + blocking graph).
pub struct DeadlockPass {
    /// Maximum number of abstract states to explore before giving up
    /// with SF012.
    pub max_states: usize,
    /// Work-stealing exploration workers (1 = sequential search).
    pub threads: usize,
}

impl Default for DeadlockPass {
    fn default() -> Self {
        DeadlockPass {
            max_states: 50_000,
            threads: 1,
        }
    }
}

impl AnalysisPass for DeadlockPass {
    fn name(&self) -> &'static str {
        "deadlock"
    }

    fn run(&self, program: &Program, out: &mut Vec<Diag>) {
        self.run_with(program, out, &|| false);
    }

    fn run_with(
        &self,
        program: &Program,
        out: &mut Vec<Diag>,
        should_stop: &(dyn Fn() -> bool + Sync),
    ) {
        if let Some(cycle) = circular_handoff(program) {
            let names: Vec<&str> = cycle.iter().map(|&v| program.symbols.name(v)).collect();
            let mut d = Diag::warning(
                "SF011",
                format!(
                    "semaphores {} form a circular handoff: each is signaled only after a \
                     wait on another member of the cycle succeeds, so none can ever be \
                     signaled",
                    names
                        .iter()
                        .map(|n| format!("`{n}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                program.symbols.info(cycle[0]).decl_span,
            );
            for &v in &cycle[1..] {
                d = d.with_note(
                    format!("`{}` is part of the cycle", program.symbols.name(v)),
                    program.symbols.info(v).decl_span,
                );
            }
            out.push(d);
        }

        let report = deadlock_analysis_threads(program, self.max_states, self.threads, should_stop);
        if report.truncated {
            let why = if report.cancelled {
                "cancelled"
            } else {
                "truncated"
            };
            out.push(Diag::info(
                "SF012",
                format!(
                    "deadlock exploration {why} after {} abstract states; no verdict",
                    report.states
                ),
                program.body.span(),
            ));
        } else if report.may_deadlock {
            if report.blocked_waits.is_empty() {
                out.push(Diag::warning(
                    "SF010",
                    "some schedule and input reaches a state where every unfinished \
                     process is blocked",
                    program.body.span(),
                ));
            }
            for &(span, sem) in &report.blocked_waits {
                let name = program.symbols.name(sem);
                out.push(Diag::warning(
                    "SF010",
                    format!(
                        "`wait({name})` may block forever: some schedule and input reaches \
                         a state where every unfinished process is blocked"
                    ),
                    span,
                ));
            }
        }
    }
}

/// Result of the abstract skeleton exploration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeadlockReport {
    /// Some abstract schedule/input reaches a global blocked state.
    pub may_deadlock: bool,
    /// The exploration hit a resource cap; `may_deadlock` is unreliable
    /// (no claim is made either way).
    pub truncated: bool,
    /// The caller's `should_stop` hook ended the exploration (implies
    /// `truncated`).
    pub cancelled: bool,
    /// `wait` sites blocked in some deadlocked state, sorted by span.
    pub blocked_waits: Vec<(Span, VarId)>,
    /// Number of distinct abstract states visited.
    pub states: usize,
}

/// Explores the semaphore skeleton of `program`, visiting at most
/// `max_states` abstract states.
pub fn deadlock_analysis(program: &Program, max_states: usize) -> DeadlockReport {
    deadlock_analysis_with(program, max_states, &|| false)
}

/// [`deadlock_analysis`] with a cooperative cancellation hook, polled
/// every [`CANCEL_POLL_STATES`] popped states. A `true` return abandons
/// the exploration with `cancelled` (and `truncated`) set.
pub fn deadlock_analysis_with(
    program: &Program,
    max_states: usize,
    should_stop: &(dyn Fn() -> bool + Sync),
) -> DeadlockReport {
    if program.statement_count() > STMT_CAP {
        return capped_report();
    }
    let ir = Ir::build(program);
    let mut seen: HashSet<Hashed, WordBuildHasher> = HashSet::default();
    let init = Hashed::new(initial_state(&ir));
    seen.insert(init.clone());
    let mut stack = vec![init];
    let mut may_deadlock = false;
    let mut truncated = false;
    let mut cancelled = false;
    let mut popped = 0usize;

    let mut blocked: BTreeSet<(u32, u32, VarId)> = BTreeSet::new();

    while let Some(hs) = stack.pop() {
        if popped.is_multiple_of(CANCEL_POLL_STATES) && should_stop() {
            truncated = true;
            cancelled = true;
            break;
        }
        popped += 1;
        let st = &hs.state;
        let mut succs = Vec::new();
        let mut overflow = false;
        expand_state(&ir, st, &mut succs, &mut overflow);
        if overflow {
            truncated = true;
            break;
        }
        if succs.is_empty() {
            may_deadlock |= note_blocked(&ir, st, &mut blocked);
            continue;
        }
        for s in succs {
            // The hash is computed once here and reused for every probe
            // (and, in the parallel search, for the shard index); the
            // full state is never re-hashed.
            let hs = Hashed::new(s);
            if !seen.contains(&hs) {
                if seen.len() >= max_states {
                    truncated = true;
                    break;
                }
                seen.insert(hs.clone());
                stack.push(hs);
            }
        }
        if truncated {
            break;
        }
    }

    DeadlockReport {
        may_deadlock: may_deadlock && !truncated,
        truncated,
        cancelled,
        blocked_waits: blocked
            .into_iter()
            .map(|(s, e, v)| (Span::new(s, e), v))
            .collect(),
        states: seen.len(),
    }
}

/// [`deadlock_analysis_with`] on `threads` work-stealing workers (via
/// [`parallel_search`]); `threads <= 1` runs the sequential search. The
/// partial verdicts merge commutatively (boolean or, set union), so the
/// report is schedule-independent whenever no cap truncates it.
pub fn deadlock_analysis_threads(
    program: &Program,
    max_states: usize,
    threads: usize,
    should_stop: &(dyn Fn() -> bool + Sync),
) -> DeadlockReport {
    if threads <= 1 {
        return deadlock_analysis_with(program, max_states, should_stop);
    }
    if program.statement_count() > STMT_CAP {
        return capped_report();
    }
    let ir = Ir::build(program);

    /// Per-worker partial verdict, merged commutatively below.
    #[derive(Default)]
    struct Partial {
        may_deadlock: bool,
        blocked: BTreeSet<(u32, u32, VarId)>,
    }

    let outcome = parallel_search(
        vec![Hashed::new(initial_state(&ir))],
        threads,
        max_states,
        should_stop,
        |hs: &Hashed| (hs.hash, hs.clone()),
        |hs: Hashed, partial: &mut Partial, out: &mut Vec<Hashed>| {
            let st = &hs.state;
            let mut succs = Vec::new();
            let mut overflow = false;
            expand_state(&ir, st, &mut succs, &mut overflow);
            if overflow {
                return Expansion::Abort;
            }
            if succs.is_empty() {
                partial.may_deadlock |= note_blocked(&ir, st, &mut partial.blocked);
            } else {
                out.extend(succs.into_iter().map(Hashed::new));
            }
            Expansion::Continue
        },
    );

    let mut may_deadlock = false;
    let mut blocked: BTreeSet<(u32, u32, VarId)> = BTreeSet::new();
    for partial in outcome.partials {
        may_deadlock |= partial.may_deadlock;
        blocked.extend(partial.blocked);
    }
    DeadlockReport {
        may_deadlock: may_deadlock && !outcome.truncated,
        truncated: outcome.truncated,
        cancelled: outcome.cancelled,
        blocked_waits: blocked
            .into_iter()
            .map(|(s, e, v)| (Span::new(s, e), v))
            .collect(),
        states: outcome.states,
    }
}

/// The report for programs too large to explore at all.
fn capped_report() -> DeadlockReport {
    DeadlockReport {
        may_deadlock: false,
        truncated: true,
        cancelled: false,
        blocked_waits: Vec::new(),
        states: 0,
    }
}

/// The abstract start state: one root task, initial semaphore counters,
/// every stable atom unbound, and the root's invisible steps taken.
fn initial_state(ir: &Ir) -> State {
    let root = Task {
        frames: vec![Frame::Run(ir.root)],
        parent: None,
        pending: 0,
        done: false,
        diverged: false,
    };
    let mut init = State {
        tasks: vec![root],
        sems: ir.sem_init.clone(),
        vals: vec![-1; ir.n_atoms],
    };
    settle(ir, &mut init, 0);
    init
}

/// All successors of `st` (every eligible task stepped once); sets
/// `overflow` if a step would exceed [`TASK_CAP`].
fn expand_state(ir: &Ir, st: &State, succs: &mut Vec<State>, overflow: &mut bool) {
    for i in 0..st.tasks.len() {
        let t = &st.tasks[i];
        if t.done || t.diverged || t.pending != 0 || t.frames.is_empty() {
            continue;
        }
        succs.extend(step(ir, st, i, overflow));
    }
}

/// If `st` (a state with no successors) is a global blocked state,
/// records its blocked `wait` sites and returns `true`.
fn note_blocked(ir: &Ir, st: &State, blocked: &mut BTreeSet<(u32, u32, VarId)>) -> bool {
    let all_done = st.tasks.iter().all(|t| t.done);
    let any_spinning = st.tasks.iter().any(|t| !t.done && t.diverged);
    if all_done || any_spinning {
        return false;
    }
    for t in &st.tasks {
        if t.done {
            continue;
        }
        if let Some(Frame::Run(id)) = t.frames.last() {
            if let Node::Wait { var, span, .. } = &ir.nodes[*id as usize] {
                blocked.insert((span.start, span.end, *var));
            }
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Abstract IR
// ---------------------------------------------------------------------------

/// Guard abstraction for `if`/`while` conditions.
#[derive(Clone, Copy, Debug)]
enum Guard {
    /// Constant-folded condition.
    Const(bool),
    /// A stable atom (variables never assigned anywhere): `polarity`
    /// tells whether the guard is the atom or its complement.
    Stable { atom: u16, polarity: bool },
    /// Anything else — both outcomes always possible.
    Unstable,
}

enum Node {
    Leaf,
    Wait {
        sem: u16,
        var: VarId,
        span: Span,
    },
    Signal {
        sem: u16,
    },
    Seq {
        children: Vec<u32>,
    },
    Cobegin {
        children: Vec<u32>,
    },
    If {
        guard: Guard,
        then_: u32,
        else_: Option<u32>,
    },
    While {
        guard: Guard,
        body: u32,
        body_sync: bool,
    },
}

struct Ir {
    nodes: Vec<Node>,
    root: u32,
    sem_init: Vec<u8>,
    n_atoms: usize,
}

impl Ir {
    fn build(program: &Program) -> Ir {
        let mut mutated: HashSet<VarId> = HashSet::new();
        program.body.for_each_modified(&mut |v| {
            mutated.insert(v);
        });
        let sems = program.symbols.semaphores();
        let sem_ord: HashMap<VarId, u16> = sems
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u16))
            .collect();
        let sem_init = sems
            .iter()
            .map(|&v| program.symbols.info(v).init.clamp(0, SEM_CAP as i64) as u8)
            .collect();
        let mut b = Builder {
            nodes: Vec::new(),
            sem_ord,
            atoms: HashMap::new(),
            mutated,
        };
        let root = b.lower(&program.body);
        Ir {
            nodes: b.nodes,
            root,
            sem_init,
            n_atoms: b.atoms.len(),
        }
    }
}

struct Builder {
    nodes: Vec<Node>,
    sem_ord: HashMap<VarId, u16>,
    atoms: HashMap<String, u16>,
    mutated: HashSet<VarId>,
}

impl Builder {
    fn push(&mut self, n: Node) -> u32 {
        self.nodes.push(n);
        (self.nodes.len() - 1) as u32
    }

    fn lower(&mut self, stmt: &Stmt) -> u32 {
        match stmt {
            Stmt::Skip(_) | Stmt::Assign { .. } => self.push(Node::Leaf),
            Stmt::Wait { sem, span } => {
                let ord = self.sem_ord[sem];
                self.push(Node::Wait {
                    sem: ord,
                    var: *sem,
                    span: *span,
                })
            }
            Stmt::Signal { sem, .. } => {
                let ord = self.sem_ord[sem];
                self.push(Node::Signal { sem: ord })
            }
            Stmt::Seq { stmts, .. } => {
                let children = stmts.iter().map(|s| self.lower(s)).collect();
                self.push(Node::Seq { children })
            }
            Stmt::Cobegin { branches, .. } => {
                let children = branches.iter().map(|s| self.lower(s)).collect();
                self.push(Node::Cobegin { children })
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let guard = self.guard(cond);
                let then_ = self.lower(then_branch);
                let else_ = else_branch.as_ref().map(|e| self.lower(e));
                self.push(Node::If {
                    guard,
                    then_,
                    else_,
                })
            }
            Stmt::While { cond, body, .. } => {
                let guard = self.guard(cond);
                let body_sync = body.is_concurrent();
                let body = self.lower(body);
                self.push(Node::While {
                    guard,
                    body,
                    body_sync,
                })
            }
        }
    }

    fn guard(&mut self, cond: &Expr) -> Guard {
        let vars = cond.vars();
        if vars.is_empty() {
            return match eval_const(cond) {
                Some(v) => Guard::Const(v != 0),
                None => Guard::Unstable,
            };
        }
        if vars.iter().any(|v| self.mutated.contains(v)) {
            return Guard::Unstable;
        }
        let (key, polarity) = canon(cond);
        let next = self.atoms.len() as u16;
        let atom = *self.atoms.entry(key).or_insert(next);
        Guard::Stable { atom, polarity }
    }
}

/// Structural key of an expression (`v<id>` / `c<n>` leaves).
fn key(e: &Expr) -> String {
    match e {
        Expr::Const(c, _) => format!("c{c}"),
        Expr::Var(v, _) => format!("v{}", v.0),
        Expr::Unary { op, arg, .. } => format!("({op} {})", key(arg)),
        Expr::Binary { op, lhs, rhs, .. } => format!("({op} {} {})", key(lhs), key(rhs)),
    }
}

/// Canonical (atom key, polarity) of a guard: `not` flips polarity and
/// the strict comparisons are normalized to their complements (`#`→`=`,
/// `>=`→`<`, `>`→`<=`) so that complementary guards share one atom.
fn canon(e: &Expr) -> (String, bool) {
    match e {
        Expr::Unary {
            op: UnOp::Not, arg, ..
        } => {
            let (k, p) = canon(arg);
            (k, !p)
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let (cop, flip) = match op {
                BinOp::Ne => (BinOp::Eq, true),
                BinOp::Ge => (BinOp::Lt, true),
                BinOp::Gt => (BinOp::Le, true),
                other => (*other, false),
            };
            (format!("({cop} {} {})", key(lhs), key(rhs)), !flip)
        }
        _ => (key(e), true),
    }
}

/// Constant folding for variable-free guards. `None` on division by a
/// zero divisor.
fn eval_const(e: &Expr) -> Option<i64> {
    match e {
        Expr::Const(c, _) => Some(*c),
        Expr::Var(..) => None,
        Expr::Unary { op, arg, .. } => {
            let a = eval_const(arg)?;
            Some(match op {
                UnOp::Neg => a.wrapping_neg(),
                UnOp::Not => i64::from(a == 0),
            })
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let l = eval_const(lhs)?;
            let r = eval_const(rhs)?;
            Some(match op {
                BinOp::Add => l.wrapping_add(r),
                BinOp::Sub => l.wrapping_sub(r),
                BinOp::Mul => l.wrapping_mul(r),
                BinOp::Div => return l.checked_div(r),
                BinOp::Mod => return l.checked_rem(r),
                BinOp::Eq => i64::from(l == r),
                BinOp::Ne => i64::from(l != r),
                BinOp::Lt => i64::from(l < r),
                BinOp::Le => i64::from(l <= r),
                BinOp::Gt => i64::from(l > r),
                BinOp::Ge => i64::from(l >= r),
                BinOp::And => i64::from(l != 0 && r != 0),
                BinOp::Or => i64::from(l != 0 || r != 0),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Abstract state and transitions
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Frame {
    /// Execute this node next.
    Run(u32),
    /// Re-evaluate this `while` node's guard; `u8` counts completed
    /// iterations of the current activation.
    Loop(u32, u8),
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct Task {
    frames: Vec<Frame>,
    parent: Option<u16>,
    pending: u16,
    done: bool,
    diverged: bool,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    tasks: Vec<Task>,
    sems: Vec<u8>,
    vals: Vec<i8>,
}

/// A state paired with its [`WordHasher`] fingerprint, computed exactly
/// once.
///
/// Every visited-set probe used to re-hash the full state (tasks, frames,
/// semaphores, atoms) — twice per successor, once for `contains` and once
/// for `insert`. Caching the fingerprint makes each probe hash a single
/// `u64`, and the same fingerprint doubles as the shard index in the
/// parallel search.
#[derive(Clone)]
struct Hashed {
    state: State,
    hash: u64,
}

impl Hashed {
    fn new(state: State) -> Hashed {
        let hash = WordHasher::of(&state);
        Hashed { state, hash }
    }
}

impl PartialEq for Hashed {
    fn eq(&self, other: &Hashed) -> bool {
        self.hash == other.hash && self.state == other.state
    }
}

impl Eq for Hashed {}

impl Hash for Hashed {
    fn hash<H: Hasher>(&self, hasher: &mut H) {
        hasher.write_u64(self.hash);
    }
}

/// Takes task `i`'s invisible steps at once: while the task is eligible
/// and its next frame is a `Leaf` or a `Seq` to unfold, runs it. A task
/// left with no frames and no pending children is done; its parent then
/// has one child fewer, and is settled in turn. Every state the search
/// visits is settled, so `Leaf` and `Seq` frames never reach [`step`].
fn settle(ir: &Ir, st: &mut State, mut i: usize) {
    loop {
        let t = &mut st.tasks[i];
        if t.pending != 0 || t.done || t.diverged {
            return;
        }
        match t.frames.last() {
            Some(&Frame::Run(id)) => match &ir.nodes[id as usize] {
                Node::Leaf => {
                    t.frames.pop();
                }
                Node::Seq { children } => {
                    t.frames.pop();
                    t.frames
                        .extend(children.iter().rev().map(|&c| Frame::Run(c)));
                }
                _ => return,
            },
            Some(Frame::Loop(..)) => return,
            None => {
                t.done = true;
                let Some(p) = t.parent else {
                    return;
                };
                let p = usize::from(p);
                st.tasks[p].pending -= 1;
                i = p;
            }
        }
    }
}

/// Guard outcomes in the current state: `(truth, binding)` pairs, where
/// a binding fixes a previously-unknown stable atom for the whole path.
fn outcomes(st: &State, guard: Guard) -> Vec<(bool, Option<(u16, bool)>)> {
    match guard {
        Guard::Const(b) => vec![(b, None)],
        Guard::Unstable => vec![(true, None), (false, None)],
        Guard::Stable { atom, polarity } => match st.vals[atom as usize] {
            -1 => vec![
                (polarity, Some((atom, true))),
                (!polarity, Some((atom, false))),
            ],
            v => vec![((v == 1) == polarity, None)],
        },
    }
}

/// Successor states from stepping task `i` once. An unsatisfiable
/// `wait` yields no successor (the task is blocked in this state).
fn step(ir: &Ir, st: &State, i: usize, overflow: &mut bool) -> Vec<State> {
    let frame = *st.tasks[i]
        .frames
        .last()
        .expect("eligible task has a frame");
    match frame {
        Frame::Run(id) => match &ir.nodes[id as usize] {
            Node::Leaf | Node::Seq { .. } => unreachable!("settle takes invisible steps"),
            Node::Wait { sem, .. } => {
                if st.sems[*sem as usize] == 0 {
                    return Vec::new();
                }
                let mut s = st.clone();
                s.sems[*sem as usize] -= 1;
                s.tasks[i].frames.pop();
                settle(ir, &mut s, i);
                vec![s]
            }
            Node::Signal { sem } => {
                let mut s = st.clone();
                let c = &mut s.sems[*sem as usize];
                *c = (*c + 1).min(SEM_CAP);
                s.tasks[i].frames.pop();
                settle(ir, &mut s, i);
                vec![s]
            }
            Node::Cobegin { children } => {
                if st.tasks.len() + children.len() > TASK_CAP {
                    *overflow = true;
                    return Vec::new();
                }
                let mut s = st.clone();
                s.tasks[i].frames.pop();
                s.tasks[i].pending = children.len() as u16;
                for &c in children {
                    s.tasks.push(Task {
                        frames: vec![Frame::Run(c)],
                        parent: Some(i as u16),
                        pending: 0,
                        done: false,
                        diverged: false,
                    });
                }
                let spawned = s.tasks.len() - children.len()..s.tasks.len();
                for j in spawned {
                    settle(ir, &mut s, j);
                }
                settle(ir, &mut s, i);
                vec![s]
            }
            Node::If {
                guard,
                then_,
                else_,
            } => {
                let mut succs = Vec::new();
                for (truth, bind) in outcomes(st, *guard) {
                    let mut s = st.clone();
                    if let Some((atom, v)) = bind {
                        s.vals[atom as usize] = i8::from(v);
                    }
                    s.tasks[i].frames.pop();
                    if truth {
                        s.tasks[i].frames.push(Frame::Run(*then_));
                    } else if let Some(e) = else_ {
                        s.tasks[i].frames.push(Frame::Run(*e));
                    }
                    settle(ir, &mut s, i);
                    succs.push(s);
                }
                succs
            }
            Node::While { .. } => loop_step(ir, st, i, id, 0),
        },
        Frame::Loop(id, k) => loop_step(ir, st, i, id, k),
    }
}

/// Evaluates a `while` guard (node `id`, `k` iterations into the
/// current activation) for task `i`.
fn loop_step(ir: &Ir, st: &State, i: usize, id: u32, k: u8) -> Vec<State> {
    let (guard, body, body_sync) = match &ir.nodes[id as usize] {
        Node::While {
            guard,
            body,
            body_sync,
        } => (*guard, *body, *body_sync),
        _ => unreachable!("loop frame on a non-while node"),
    };
    let mut succs = Vec::new();
    for (truth, bind) in outcomes(st, guard) {
        let mut s = st.clone();
        if let Some((atom, v)) = bind {
            s.vals[atom as usize] = i8::from(v);
        }
        if !truth {
            s.tasks[i].frames.pop();
            settle(ir, &mut s, i);
            succs.push(s);
            continue;
        }
        if !body_sync {
            // The body cannot synchronize. If the guard is pinned true
            // (stable or constant), the task spins forever: it stays
            // enabled, so it can never be part of a deadlock. If the
            // guard is unstable, "spin a while then exit" is abstractly
            // identical to exiting now, so the false branch above
            // already covers every behavior that matters.
            if matches!(guard, Guard::Stable { .. } | Guard::Const(_)) {
                s.tasks[i].frames.clear();
                s.tasks[i].diverged = true;
                succs.push(s);
            }
            continue;
        }
        if k < LOOP_CAP {
            let top = s.tasks[i].frames.len() - 1;
            s.tasks[i].frames[top] = Frame::Loop(id, k + 1);
            s.tasks[i].frames.push(Frame::Run(body));
            settle(ir, &mut s, i);
            succs.push(s);
        } else {
            // Enough unrolling: treat the task as spinning (enabled
            // forever). This forgets signals from later iterations, so
            // SF010 is a heuristic, not a proof, for such loops.
            s.tasks[i].frames.clear();
            s.tasks[i].diverged = true;
            succs.push(s);
        }
    }
    succs
}

// ---------------------------------------------------------------------------
// Blocking graph (SF011)
// ---------------------------------------------------------------------------

/// Finds a cycle of zero-initialized semaphores in which each member is
/// only ever signaled after a `wait` on another member has succeeded.
/// Returns the cycle members (rotation-normalized to start at the
/// smallest id) or `None`.
fn circular_handoff(program: &Program) -> Option<Vec<VarId>> {
    let mut sites: Vec<(VarId, BTreeSet<VarId>)> = Vec::new();
    must_waited(&program.body, &BTreeSet::new(), &mut sites);

    let mut deps: BTreeMap<VarId, BTreeSet<VarId>> = BTreeMap::new();
    for (sem, set) in sites {
        match deps.entry(sem) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(set);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let merged = e.get().intersection(&set).copied().collect();
                *e.get_mut() = merged;
            }
        }
    }
    deps.retain(|&sem, _| program.symbols.info(sem).init == 0);
    let nodes: BTreeSet<VarId> = deps.keys().copied().collect();
    let edges: BTreeMap<VarId, Vec<VarId>> = deps
        .into_iter()
        .map(|(s, ds)| (s, ds.into_iter().filter(|t| nodes.contains(t)).collect()))
        .collect();

    let mut color: BTreeMap<VarId, u8> = BTreeMap::new();
    let mut path: Vec<VarId> = Vec::new();
    for &start in &nodes {
        if color.get(&start).copied().unwrap_or(0) == 0 {
            if let Some(mut cycle) = dfs(start, &edges, &mut color, &mut path) {
                // Rotate so the smallest id comes first (deterministic).
                let min = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, v)| **v)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                cycle.rotate_left(min);
                return Some(cycle);
            }
        }
    }
    None
}

fn dfs(
    v: VarId,
    edges: &BTreeMap<VarId, Vec<VarId>>,
    color: &mut BTreeMap<VarId, u8>,
    path: &mut Vec<VarId>,
) -> Option<Vec<VarId>> {
    color.insert(v, 1);
    path.push(v);
    for &w in edges.get(&v).map(|e| e.as_slice()).unwrap_or(&[]) {
        match color.get(&w).copied().unwrap_or(0) {
            1 => {
                let pos = path.iter().position(|&p| p == w).unwrap_or(0);
                return Some(path[pos..].to_vec());
            }
            0 => {
                if let Some(c) = dfs(w, edges, color, path) {
                    return Some(c);
                }
            }
            _ => {}
        }
    }
    path.pop();
    color.insert(v, 2);
    None
}

/// Forward must-analysis: `inset` is the set of semaphores that have
/// definitely been waited on; every `signal` site records its inset.
fn must_waited(
    stmt: &Stmt,
    inset: &BTreeSet<VarId>,
    sites: &mut Vec<(VarId, BTreeSet<VarId>)>,
) -> BTreeSet<VarId> {
    match stmt {
        Stmt::Skip(_) | Stmt::Assign { .. } => inset.clone(),
        Stmt::Wait { sem, .. } => {
            let mut s = inset.clone();
            s.insert(*sem);
            s
        }
        Stmt::Signal { sem, .. } => {
            sites.push((*sem, inset.clone()));
            inset.clone()
        }
        Stmt::Seq { stmts, .. } => {
            let mut cur = inset.clone();
            for s in stmts {
                cur = must_waited(s, &cur, sites);
            }
            cur
        }
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            let t = must_waited(then_branch, inset, sites);
            let e = match else_branch {
                Some(e) => must_waited(e, inset, sites),
                None => inset.clone(),
            };
            t.intersection(&e).copied().collect()
        }
        Stmt::While { body, .. } => {
            // The body may run zero times: record its signal sites but
            // contribute nothing to the after-set.
            let _ = must_waited(body, inset, sites);
            inset.clone()
        }
        Stmt::Cobegin { branches, .. } => {
            let mut out = inset.clone();
            for b in branches {
                out.extend(must_waited(b, inset, sites));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_lang::parse;

    const SEM_CHANNEL: &str = "var x, y : integer; sem : semaphore;
cobegin
  if x = 0 then signal(sem)
||
  begin wait(sem); y := 0 end
coend";

    const FIG3: &str = "var x, y, m : integer;
    modify, modified, read, done : semaphore initially(0);
cobegin
  begin
    m := 0;
    if x = 0 then begin signal(modify); wait(modified) end;
    signal(read); wait(done);
    if x # 0 then begin signal(modify); wait(modified) end
  end
||
  begin wait(modify); m := 1; signal(modified) end
||
  begin wait(read); y := m; signal(done) end
coend";

    fn analysis(src: &str) -> DeadlockReport {
        deadlock_analysis(&parse(src).unwrap(), 100_000)
    }

    fn run_pass(src: &str) -> Vec<Diag> {
        let p = parse(src).unwrap();
        let mut out = Vec::new();
        DeadlockPass::default().run(&p, &mut out);
        out
    }

    #[test]
    fn sem_channel_is_deadlock_capable() {
        let r = analysis(SEM_CHANNEL);
        assert!(!r.truncated);
        assert!(r.may_deadlock);
        assert_eq!(r.blocked_waits.len(), 1);
    }

    #[test]
    fn fig3_is_deadlock_free() {
        // Requires complement canonicalization: `x = 0` and `x # 0`
        // must share one atom, or the infeasible both-ifs-skipped path
        // would block the helper processes.
        let r = analysis(FIG3);
        assert!(!r.truncated, "{} states", r.states);
        assert!(!r.may_deadlock, "{:?}", r.blocked_waits);
    }

    #[test]
    fn sequential_program_cannot_deadlock() {
        let r = analysis("var a, b : integer; begin a := b; while a = 0 do b := b + 1 end");
        assert!(!r.truncated && !r.may_deadlock);
    }

    #[test]
    fn unsatisfiable_wait_deadlocks() {
        let r = analysis("var s : semaphore; wait(s)");
        assert!(r.may_deadlock);
    }

    #[test]
    fn initially_positive_wait_is_fine() {
        let r = analysis("var s : semaphore initially(1); wait(s)");
        assert!(!r.may_deadlock);
    }

    #[test]
    fn balanced_handoff_is_clean() {
        let r = analysis(
            "var s : semaphore; x : integer;
             cobegin begin x := 1; signal(s) end || begin wait(s); x := 2 end coend",
        );
        assert!(!r.truncated && !r.may_deadlock);
    }

    #[test]
    fn stable_spin_loop_is_not_a_deadlock() {
        // A task spinning on a stable guard stays enabled forever; the
        // runtime model does not call that a deadlock.
        let r = analysis(
            "var x : integer; s : semaphore initially(1);
             cobegin while x = 0 do x := 1 || wait(s) coend",
        );
        assert!(!r.may_deadlock, "{:?}", r.blocked_waits);
    }

    #[test]
    fn crossed_handoff_is_sf011_and_sf010() {
        let diags = run_pass(
            "var a, b : semaphore; x : integer;
             cobegin begin wait(a); signal(b) end || begin wait(b); signal(a) end coend",
        );
        let codes: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"SF011"), "{codes:?}");
        assert!(codes.contains(&"SF010"), "{codes:?}");
    }

    #[test]
    fn cancellation_truncates_without_a_verdict() {
        let r = deadlock_analysis_with(&parse(FIG3).unwrap(), 100_000, &|| true);
        assert!(r.cancelled);
        assert!(r.truncated);
        assert!(!r.may_deadlock, "no verdict once cancelled");
    }

    #[test]
    fn fig3_handoff_graph_is_acyclic() {
        assert_eq!(circular_handoff(&parse(FIG3).unwrap()), None);
    }

    #[test]
    fn pass_reports_sf010_with_sem_name() {
        let diags = run_pass(SEM_CHANNEL);
        let sf010: Vec<_> = diags.iter().filter(|d| d.code == "SF010").collect();
        assert_eq!(sf010.len(), 1);
        assert!(
            sf010[0].message.contains("`wait(sem)`"),
            "{}",
            sf010[0].message
        );
    }

    #[test]
    fn cached_hash_is_consistent_with_recomputation() {
        let ir = Ir::build(&parse(FIG3).unwrap());
        let init = initial_state(&ir);
        let a = Hashed::new(init.clone());
        let b = Hashed::new(init);
        // Equal states cache equal fingerprints, and the cache agrees
        // with a fresh recomputation over the full state.
        assert_eq!(a.hash, b.hash);
        assert!(a == b);
        assert_eq!(a.hash, WordHasher::of(&a.state));
        // The `Hash` impl feeds probes only the cached word.
        assert_eq!(WordHasher::of(&a), WordHasher::of(&a.hash));
    }

    #[test]
    fn parallel_analysis_matches_sequential() {
        for src in [SEM_CHANNEL, FIG3] {
            let p = parse(src).unwrap();
            let seq = deadlock_analysis(&p, 100_000);
            for threads in [2, 4] {
                let par = deadlock_analysis_threads(&p, 100_000, threads, &|| false);
                assert_eq!(par.may_deadlock, seq.may_deadlock);
                assert_eq!(par.truncated, seq.truncated);
                assert_eq!(par.blocked_waits, seq.blocked_waits);
                assert_eq!(par.states, seq.states, "threads = {threads}");
            }
        }
    }

    #[test]
    fn fused_skeleton_state_counts_are_pinned() {
        // Exact counts of the fused search on three lint shapes of the
        // explore_sweep benchmark. They move only when the skeleton or
        // its reduction changes; the unfused search took 5,348, 2,917
        // and 1,712 states.
        use secflow_workload::{dining_philosophers, kbit_channel, readers_writers};
        for (name, program, states) in [
            ("philosophers(3, 1)", dining_philosophers(3, 1, false), 1786),
            ("readers_writers(2, 2)", readers_writers(2, 2), 902),
            ("kbit_channel(3)", kbit_channel(3), 507),
        ] {
            let r = deadlock_analysis(&program, 50_000);
            assert!(!r.truncated, "{name}");
            assert_eq!(r.states, states, "{name}");
        }
    }

    #[test]
    fn four_philosophers_get_a_verdict() {
        // The unfused skeleton truncated both tables at 50,000 states
        // (SF012, no verdict). Fused, the naive table deadlocks on every
        // fork wait and the ordered one is clean, as the runtime
        // explorer finds.
        use secflow_workload::dining_philosophers;
        let naive = dining_philosophers(4, 1, false);
        let mut out = Vec::new();
        DeadlockPass::default().run(&naive, &mut out);
        let codes: Vec<_> = out.iter().map(|d| d.code).collect();
        assert!(!codes.contains(&"SF012"), "{codes:?}");
        let sf010: Vec<_> = out.iter().filter(|d| d.code == "SF010").collect();
        assert_eq!(sf010.len(), 4, "{codes:?}");
        for d in &sf010 {
            assert!(d.message.contains("`wait(fork"), "{}", d.message);
        }

        let mut out = Vec::new();
        DeadlockPass::default().run(&dining_philosophers(4, 1, true), &mut out);
        let codes: Vec<_> = out.iter().map(|d| d.code).collect();
        assert!(
            !codes.contains(&"SF010") && !codes.contains(&"SF012"),
            "{codes:?}"
        );
    }

    #[test]
    fn parallel_cancellation_truncates_without_a_verdict() {
        let r = deadlock_analysis_threads(&parse(FIG3).unwrap(), 100_000, 4, &|| true);
        assert!(r.cancelled);
        assert!(r.truncated);
        assert!(!r.may_deadlock, "no verdict once cancelled");
    }
}
