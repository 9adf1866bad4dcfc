//! The small-step abstract machine for the parallel language.
//!
//! Atomicity follows §2.0 of the paper: each assignment (with its
//! right-hand side), each guard evaluation, and each `wait`/`signal` is an
//! indivisible action. Control unfolding (`begin`, `cobegin`, `skip`) also
//! counts as one machine step, which keeps step counts finite and
//! deterministic for a fixed schedule.
//!
//! A [`Machine`] holds a shared store plus a tree of processes. `cobegin`
//! spawns child processes and parks the parent until all children finish;
//! `wait(sem)` is *enabled* only when the semaphore is positive, so a
//! process stuck at `wait` simply is not schedulable — when no process is
//! enabled and some are alive, the machine is deadlocked.

use std::fmt;
use std::hash::Hasher;

use secflow_lang::{BinOp, Expr, Program, Span, Stmt, UnOp, VarId};

use crate::hash::WordHasher;

/// Identifies a process within a machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ProcId(pub usize);

/// A runtime fault (the only ones possible: division/remainder by zero).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fault {
    /// What happened.
    pub message: String,
    /// Where.
    pub span: Span,
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime fault: {} (at {})", self.message, self.span)
    }
}

impl std::error::Error for Fault {}

/// Evaluates an expression over a store (wrapping arithmetic; comparisons
/// and logical operators yield 1/0; `not 0 = 1`).
pub fn eval(expr: &Expr, store: &[i64]) -> Result<i64, Fault> {
    Ok(match expr {
        Expr::Const(n, _) => *n,
        Expr::Var(v, _) => store[v.index()],
        Expr::Unary { op, arg, .. } => {
            let a = eval(arg, store)?;
            match op {
                UnOp::Neg => a.wrapping_neg(),
                UnOp::Not => i64::from(a == 0),
            }
        }
        Expr::Binary { op, lhs, rhs, span } => {
            let a = eval(lhs, store)?;
            let b = eval(rhs, store)?;
            match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(Fault {
                            message: "division by zero".into(),
                            span: *span,
                        });
                    }
                    a.wrapping_div(b)
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Err(Fault {
                            message: "remainder by zero".into(),
                            span: *span,
                        });
                    }
                    a.wrapping_rem(b)
                }
                BinOp::Eq => i64::from(a == b),
                BinOp::Ne => i64::from(a != b),
                BinOp::Lt => i64::from(a < b),
                BinOp::Le => i64::from(a <= b),
                BinOp::Gt => i64::from(a > b),
                BinOp::Ge => i64::from(a >= b),
                BinOp::And => i64::from(a != 0 && b != 0),
                BinOp::Or => i64::from(a != 0 || b != 0),
            }
        }
    })
}

/// One continuation frame of a process.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Frame<'p> {
    /// Execute a statement.
    Stmt(&'p Stmt),
    /// Re-test a loop guard after its body ran.
    LoopHead(&'p Stmt),
}

impl Frame<'_> {
    /// A stable fingerprint for state hashing (statement addresses are
    /// stable for the lifetime of the borrowed program).
    pub(crate) fn fingerprint(&self) -> u64 {
        match self {
            Frame::Stmt(s) => (*s as *const Stmt as u64) << 1,
            Frame::LoopHead(s) => ((*s as *const Stmt as u64) << 1) | 1,
        }
    }
}

/// What a process is currently doing.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ProcState {
    /// Can take a step (possibly a blocked `wait` — enabledness is
    /// re-checked against the store).
    Runnable,
    /// Parked until `remaining` children finish.
    Waiting { remaining: usize },
    /// Finished.
    Done,
}

#[derive(Clone, Debug)]
pub(crate) struct Proc<'p> {
    pub(crate) frames: Vec<Frame<'p>>,
    pub(crate) state: ProcState,
    pub(crate) parent: Option<ProcId>,
}

/// What one machine step did (for traces and the taint monitor).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Action {
    /// `x := e` executed; the new value is recorded.
    Assign {
        /// Target variable.
        var: VarId,
        /// Value written.
        value: i64,
    },
    /// A guard was evaluated.
    Guard {
        /// The guard's value (0 = false).
        taken: bool,
    },
    /// `wait(sem)` completed (the semaphore was positive).
    Wait {
        /// The semaphore.
        sem: VarId,
    },
    /// `signal(sem)` executed.
    Signal {
        /// The semaphore.
        sem: VarId,
    },
    /// Control-only step (`skip`, `begin` unfolding).
    Control,
    /// A `cobegin` spawned child processes.
    Spawn {
        /// Ids of the children.
        children: Vec<ProcId>,
    },
    /// The process ran out of frames and finished.
    Finished,
}

/// Overall machine status.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// At least one process is enabled.
    Running,
    /// Every process finished.
    Terminated,
    /// Live processes exist but none is enabled (all stuck at `wait`).
    Deadlocked,
}

/// The abstract machine: shared store + process tree.
#[derive(Clone, Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    store: Vec<i64>,
    pub(crate) procs: Vec<Proc<'p>>,
    steps: usize,
}

impl<'p> Machine<'p> {
    /// Boots a machine with declared initial values.
    pub fn new(program: &'p Program) -> Self {
        let store = program.symbols.iter().map(|(_, v)| v.init).collect();
        Machine {
            program,
            store,
            procs: vec![Proc {
                frames: vec![Frame::Stmt(&program.body)],
                state: ProcState::Runnable,
                parent: None,
            }],
            steps: 0,
        }
    }

    /// Boots a machine, overriding some initial values (program inputs).
    pub fn with_inputs(program: &'p Program, inputs: &[(VarId, i64)]) -> Self {
        let mut m = Self::new(program);
        for (v, val) in inputs {
            m.store[v.index()] = *val;
        }
        m
    }

    /// The program being executed.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Current value of a variable.
    pub fn get(&self, var: VarId) -> i64 {
        self.store[var.index()]
    }

    /// The whole store, indexed by [`VarId`].
    pub fn store(&self) -> &[i64] {
        &self.store
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// `true` iff `pid` can take a step right now.
    pub fn is_enabled(&self, pid: ProcId) -> bool {
        let p = &self.procs[pid.0];
        if p.state != ProcState::Runnable {
            return false;
        }
        match p.frames.last() {
            None => false,
            Some(Frame::Stmt(Stmt::Wait { sem, .. })) => self.store[sem.index()] > 0,
            Some(_) => true,
        }
    }

    /// Ids of all currently enabled processes, ascending.
    pub fn enabled(&self) -> Vec<ProcId> {
        (0..self.procs.len())
            .map(ProcId)
            .filter(|&pid| self.is_enabled(pid))
            .collect()
    }

    /// Total processes ever created (including finished ones; process
    /// ids are never reused).
    pub fn proc_count(&self) -> usize {
        self.procs.len()
    }

    /// `true` iff the process has finished.
    pub fn is_done(&self, pid: ProcId) -> bool {
        self.procs[pid.0].state == ProcState::Done
    }

    /// The statement whose head `pid` would execute next — its pending
    /// atomic action — or `None` if the process has no frames. A loop
    /// re-test reports its `while` statement (the action is the same
    /// guard evaluation either way).
    pub fn pending_stmt(&self, pid: ProcId) -> Option<&'p Stmt> {
        self.procs[pid.0].frames.last().map(|f| match f {
            Frame::Stmt(s) | Frame::LoopHead(s) => *s,
        })
    }

    /// Number of continuation frames on `pid`'s stack.
    pub fn frame_count(&self, pid: ProcId) -> usize {
        self.procs[pid.0].frames.len()
    }

    /// `true` iff `pid`'s next step is a loop-guard *re-test*
    /// (`Frame::LoopHead`). Re-testing a guard is the machine's only
    /// back edge — every other step executes a not-yet-executed node of
    /// the program tree — so any cycle in the state graph contains at
    /// least one such step by every process that moves along it. The
    /// partial-order reducer uses this as its cycle proviso (DESIGN
    /// §12).
    pub fn at_loop_head(&self, pid: ProcId) -> bool {
        matches!(self.procs[pid.0].frames.last(), Some(Frame::LoopHead(_)))
    }

    /// The statements of every continuation frame of `pid`, innermost
    /// (next to execute) first. Their subtrees jointly over-approximate
    /// everything the process can still do.
    pub fn frame_stmts(&self, pid: ProcId) -> impl Iterator<Item = &'p Stmt> + '_ {
        self.procs[pid.0].frames.iter().rev().map(|f| match f {
            Frame::Stmt(s) | Frame::LoopHead(s) => *s,
        })
    }

    /// Machine status.
    pub fn status(&self) -> Status {
        if self.procs.iter().all(|p| p.state == ProcState::Done) {
            return Status::Terminated;
        }
        if (0..self.procs.len()).any(|p| self.is_enabled(ProcId(p))) {
            Status::Running
        } else {
            Status::Deadlocked
        }
    }

    /// A fingerprint of the full machine state, used by the interleaving
    /// explorers: one [`WordHasher`] step per word, over every store
    /// value, each process's status, and the identity of each of its
    /// continuation frames.
    pub fn fingerprint(&self) -> u64 {
        let mut h = WordHasher::default();
        for v in &self.store {
            h.word(*v as u64);
        }
        for p in &self.procs {
            h.word(match p.state {
                ProcState::Runnable => 1,
                ProcState::Waiting { remaining } => 0x1000 + remaining as u64,
                ProcState::Done => 2,
            });
            for f in &p.frames {
                h.word(f.fingerprint());
            }
        }
        h.finish()
    }

    /// Takes one atomic step of process `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not enabled (callers must schedule only enabled
    /// processes).
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] for division/remainder by zero; the machine is
    /// left unchanged except for the step counter.
    pub fn step(&mut self, pid: ProcId) -> Result<Action, Fault> {
        assert!(self.is_enabled(pid), "process {pid:?} is not enabled");
        self.steps += 1;
        let frame = self.procs[pid.0]
            .frames
            .pop()
            .expect("enabled process has a frame");
        let action = match frame {
            Frame::Stmt(stmt) => self.exec(pid, stmt)?,
            Frame::LoopHead(stmt) => {
                let Stmt::While { cond, body, .. } = stmt else {
                    unreachable!("LoopHead always wraps a while statement");
                };
                let taken = match eval(cond, &self.store) {
                    Ok(v) => v != 0,
                    Err(e) => {
                        self.procs[pid.0].frames.push(frame);
                        return Err(e);
                    }
                };
                if taken {
                    self.procs[pid.0].frames.push(Frame::LoopHead(stmt));
                    self.procs[pid.0].frames.push(Frame::Stmt(body));
                }
                Action::Guard { taken }
            }
        };
        // Process completion bubbles up the parent chain.
        let mut cur = pid;
        while self.procs[cur.0].frames.is_empty() && self.procs[cur.0].state == ProcState::Runnable
        {
            self.procs[cur.0].state = ProcState::Done;
            match self.procs[cur.0].parent {
                Some(parent) => {
                    let ProcState::Waiting { remaining } = &mut self.procs[parent.0].state else {
                        break;
                    };
                    *remaining -= 1;
                    if *remaining == 0 {
                        self.procs[parent.0].state = ProcState::Runnable;
                    }
                    if self.procs[parent.0].state == ProcState::Runnable
                        && self.procs[parent.0].frames.is_empty()
                    {
                        cur = parent;
                        continue;
                    }
                    break;
                }
                None => break,
            }
        }
        Ok(action)
    }

    fn exec(&mut self, pid: ProcId, stmt: &'p Stmt) -> Result<Action, Fault> {
        match stmt {
            Stmt::Skip(_) => Ok(Action::Control),
            Stmt::Assign { var, expr, .. } => {
                let value = match eval(expr, &self.store) {
                    Ok(v) => v,
                    Err(e) => {
                        self.procs[pid.0].frames.push(Frame::Stmt(stmt));
                        return Err(e);
                    }
                };
                self.store[var.index()] = value;
                Ok(Action::Assign { var: *var, value })
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let taken = match eval(cond, &self.store) {
                    Ok(v) => v != 0,
                    Err(e) => {
                        self.procs[pid.0].frames.push(Frame::Stmt(stmt));
                        return Err(e);
                    }
                };
                if taken {
                    self.procs[pid.0].frames.push(Frame::Stmt(then_branch));
                } else if let Some(eb) = else_branch {
                    self.procs[pid.0].frames.push(Frame::Stmt(eb));
                }
                Ok(Action::Guard { taken })
            }
            Stmt::While { cond, body, .. } => {
                let taken = match eval(cond, &self.store) {
                    Ok(v) => v != 0,
                    Err(e) => {
                        self.procs[pid.0].frames.push(Frame::Stmt(stmt));
                        return Err(e);
                    }
                };
                if taken {
                    self.procs[pid.0].frames.push(Frame::LoopHead(stmt));
                    self.procs[pid.0].frames.push(Frame::Stmt(body));
                }
                Ok(Action::Guard { taken })
            }
            Stmt::Seq { stmts, .. } => {
                for s in stmts.iter().rev() {
                    self.procs[pid.0].frames.push(Frame::Stmt(s));
                }
                Ok(Action::Control)
            }
            Stmt::Cobegin { branches, .. } => {
                let mut children = Vec::with_capacity(branches.len());
                for b in branches {
                    let id = ProcId(self.procs.len());
                    self.procs.push(Proc {
                        frames: vec![Frame::Stmt(b)],
                        state: ProcState::Runnable,
                        parent: Some(pid),
                    });
                    children.push(id);
                }
                self.procs[pid.0].state = ProcState::Waiting {
                    remaining: children.len(),
                };
                Ok(Action::Spawn { children })
            }
            Stmt::Wait { sem, .. } => {
                debug_assert!(self.store[sem.index()] > 0, "wait scheduled while blocked");
                self.store[sem.index()] -= 1;
                Ok(Action::Wait { sem: *sem })
            }
            Stmt::Signal { sem, .. } => {
                self.store[sem.index()] += 1;
                Ok(Action::Signal { sem: *sem })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_lang::parse;

    /// Steps the single enabled process until termination (works for
    /// deterministic schedules where one process is always picked first).
    fn run_first(m: &mut Machine<'_>, fuel: usize) -> Status {
        for _ in 0..fuel {
            match m.status() {
                Status::Running => {
                    let pid = m.enabled()[0];
                    m.step(pid).unwrap();
                }
                other => return other,
            }
        }
        m.status()
    }

    #[test]
    fn executes_straight_line_code() {
        let p = parse("var x, y : integer; begin x := 2; y := x * 3 + 1 end").unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(run_first(&mut m, 100), Status::Terminated);
        assert_eq!(m.get(p.var("x")), 2);
        assert_eq!(m.get(p.var("y")), 7);
    }

    #[test]
    fn executes_branches_both_ways() {
        let src = "var x, y : integer; if x = 0 then y := 1 else y := 2";
        let p = parse(src).unwrap();
        let mut m = Machine::with_inputs(&p, &[(p.var("x"), 0)]);
        run_first(&mut m, 100);
        assert_eq!(m.get(p.var("y")), 1);
        let mut m = Machine::with_inputs(&p, &[(p.var("x"), 5)]);
        run_first(&mut m, 100);
        assert_eq!(m.get(p.var("y")), 2);
    }

    #[test]
    fn executes_loops() {
        let p = parse("var x, acc : integer; while x > 0 do begin acc := acc + x; x := x - 1 end")
            .unwrap();
        let mut m = Machine::with_inputs(&p, &[(p.var("x"), 4)]);
        assert_eq!(run_first(&mut m, 1000), Status::Terminated);
        assert_eq!(m.get(p.var("acc")), 10);
        assert_eq!(m.get(p.var("x")), 0);
    }

    #[test]
    fn semaphores_block_and_release() {
        let p = parse(
            "var x : integer; s : semaphore;
             cobegin begin wait(s); x := 1 end || signal(s) coend",
        )
        .unwrap();
        let mut m = Machine::new(&p);
        // Unfold the cobegin.
        let root = m.enabled()[0];
        m.step(root).unwrap();
        // Process 1 (the waiter) first unfolds its begin/end, then blocks.
        let waiter = ProcId(1);
        let signaler = ProcId(2);
        m.step(waiter).unwrap(); // unfold the sequence
        assert!(!m.is_enabled(waiter));
        assert!(m.is_enabled(signaler));
        m.step(signaler).unwrap();
        assert!(m.is_enabled(waiter));
        m.step(waiter).unwrap(); // wait completes
        m.step(waiter).unwrap(); // x := 1
        assert_eq!(m.get(p.var("x")), 1);
        assert_eq!(m.status(), Status::Terminated);
    }

    #[test]
    fn deadlock_is_detected() {
        let p = parse("var s : semaphore; wait(s)").unwrap();
        let m = Machine::new(&p);
        assert_eq!(m.status(), Status::Deadlocked);
    }

    #[test]
    fn semaphore_initial_values_matter() {
        let p = parse("var s : semaphore initially(1); wait(s)").unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(m.status(), Status::Running);
        m.step(ProcId(0)).unwrap();
        assert_eq!(m.status(), Status::Terminated);
        assert_eq!(m.get(p.var("s")), 0);
    }

    #[test]
    fn division_by_zero_faults_without_corrupting_state() {
        let p = parse("var x, y : integer; y := 1 / x").unwrap();
        let mut m = Machine::new(&p);
        let err = m.step(ProcId(0)).unwrap_err();
        assert!(err.message.contains("division"));
        // The statement is still pending; the store is untouched.
        assert_eq!(m.get(p.var("y")), 0);
        assert_eq!(m.status(), Status::Running);
    }

    #[test]
    fn nested_cobegin_parks_parent() {
        let p = parse(
            "var a, b, c : integer;
             cobegin
               cobegin a := 1 || b := 2 coend
             ||
               c := 3
             coend",
        )
        .unwrap();
        let mut m = Machine::new(&p);
        let mut guard = 0;
        while m.status() == Status::Running {
            let pid = *m.enabled().first().unwrap();
            m.step(pid).unwrap();
            guard += 1;
            assert!(guard < 100);
        }
        assert_eq!(m.status(), Status::Terminated);
        assert_eq!(m.get(p.var("a")), 1);
        assert_eq!(m.get(p.var("b")), 2);
        assert_eq!(m.get(p.var("c")), 3);
    }

    #[test]
    fn fingerprints_distinguish_stores() {
        let p = parse("var x : integer; x := 1").unwrap();
        let m1 = Machine::new(&p);
        let m2 = Machine::with_inputs(&p, &[(p.var("x"), 42)]);
        assert_ne!(m1.fingerprint(), m2.fingerprint());
    }

    #[test]
    fn fingerprint_follows_the_state() {
        let p = parse(
            "var a, b : integer; s : semaphore;
             cobegin begin a := 1; signal(s) end || begin wait(s); b := a end coend",
        )
        .unwrap();
        let mut m = Machine::new(&p);
        let mut seen = vec![m.fingerprint()];
        while m.status() == Status::Running {
            let pid = m.enabled()[0];
            m.step(pid).unwrap();
            // A clone is the same state; every step makes a new one.
            assert_eq!(m.clone().fingerprint(), m.fingerprint());
            assert!(!seen.contains(&m.fingerprint()), "step {}", m.steps());
            seen.push(m.fingerprint());
        }
        // The store is hashed in order, not as a multiset.
        let q = parse("var x, y : integer; skip").unwrap();
        let (x, y) = (q.var("x"), q.var("y"));
        let m12 = Machine::with_inputs(&q, &[(x, 1), (y, 2)]);
        let m21 = Machine::with_inputs(&q, &[(x, 2), (y, 1)]);
        assert_ne!(m12.fingerprint(), m21.fingerprint());
    }

    #[test]
    fn eval_covers_all_operators() {
        let p = parse(
            "var a, b : integer;
             a := ((3 + 4 * 2 - 1) / 2) % 4 + (1 = 1) + (1 # 2) + (1 < 2) + (1 <= 1) +
                  (2 > 1) + (2 >= 3) + (1 and 1) + (0 or 1) + not 0 + -(0 - 1)",
        )
        .unwrap();
        let mut m = Machine::new(&p);
        run_first(&mut m, 10);
        // ((3+8-1)/2)%4 = 5%4 = 1; plus 1+1+1+1+1+0+1+1+1+1 = 9 → 10.
        assert_eq!(m.get(p.var("a")), 10);
    }
}
