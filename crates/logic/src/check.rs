//! The proof checker: re-derives every rule instance and side condition.
//!
//! [`check_proof`] validates a [`Proof`] against the statement it claims to
//! derive a triple for. Each Figure 1 rule is checked per its definition:
//! axioms by substitution + assertion equivalence, structured rules by
//! premise agreement (the `{V, L, G}` partition discipline of §3.1) plus
//! the entailment side conditions, composition by chaining, consequence by
//! entailment, and concurrent execution by *interference freedom* — for
//! all processes `i ≠ j`, every assertion used in process `i`'s derivation
//! must be preserved by every atomic action of process `j` (checked on the
//! `V` parts only: per §3.2, "indirect flows in one process do not affect
//! indirect flows in another process").
//!
//! A proof's nodes share a few assertions (see [`crate::proof`]), so one
//! [`check_proof`] call builds the upper-bound environment of each
//! assertion of the proof once and decides each entailment between two
//! of them once. An interference premise, an assertion of one process
//! and the shared facts of another's action precondition, is decided from
//! the environment each of the two built once, never built itself.
//! Nothing is kept between calls, and
//! the verdict, down to a rejection's rule and message, is the one a
//! proof with no sharing gets.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

use secflow_lang::{Expr, Span, Stmt, VarId};
use secflow_lattice::{Extended, Lattice};

use crate::assertion::{Assertion, Atom, Bound, ClassExpr};
use crate::entail::{
    entails_bound_env, entails_env, equivalent, equivalent_states, EntailError, UpperBounds,
};
use crate::proof::{Proof, Rule};

/// Why a proof failed to check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckError {
    /// The rule at which checking failed.
    pub rule: &'static str,
    /// What went wrong.
    pub message: String,
}

impl CheckError {
    fn new(rule: &'static str, message: impl Into<String>) -> Self {
        CheckError {
            rule,
            message: message.into(),
        }
    }
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {}: {}", self.rule, self.message)
    }
}

impl std::error::Error for CheckError {}

impl From<EntailError> for CheckError {
    fn from(e: EntailError) -> Self {
        CheckError::new("entailment", e.to_string())
    }
}

/// Checks that `proof` is a valid derivation of `{proof.pre} stmt
/// {proof.post}` in the flow logic.
pub fn check_proof<L: Lattice + fmt::Display>(
    stmt: &Stmt,
    proof: &Proof<L>,
) -> Result<(), CheckError> {
    Checker::new().check(stmt, proof)
}

/// The substitution `x̲ ← e̲ ⊕ local ⊕ global` of the assignment axiom.
pub fn assign_subst<L: Lattice>(var: VarId, expr: &Expr) -> BTreeMap<Atom, ClassExpr<L>> {
    let repl = ClassExpr::of_expr(expr)
        .join(&ClassExpr::local())
        .join(&ClassExpr::global());
    let mut m = BTreeMap::new();
    m.insert(Atom::VarClass(var), repl);
    m
}

/// The substitution `sem̲ ← sem̲ ⊕ local ⊕ global` of the signal axiom.
pub fn signal_subst<L: Lattice>(sem: VarId) -> BTreeMap<Atom, ClassExpr<L>> {
    let repl = ClassExpr::var(sem)
        .join(&ClassExpr::local())
        .join(&ClassExpr::global());
    let mut m = BTreeMap::new();
    m.insert(Atom::VarClass(sem), repl);
    m
}

/// The simultaneous substitution of the wait axiom:
/// `sem̲ ← sem̲ ⊕ local ⊕ global, global ← sem̲ ⊕ local ⊕ global`.
pub fn wait_subst<L: Lattice>(sem: VarId) -> BTreeMap<Atom, ClassExpr<L>> {
    let repl = ClassExpr::var(sem)
        .join(&ClassExpr::local())
        .join(&ClassExpr::global());
    let mut m = BTreeMap::new();
    m.insert(Atom::VarClass(sem), repl.clone());
    m.insert(Atom::Global, repl);
    m
}

/// The address of an assertion of the proof under check: the key of
/// [`Checker`]'s memos.
type Addr<L> = *const Assertion<L>;

/// Two assertions of the proof under check, by address.
type Pair<L> = (Addr<L>, Addr<L>);

/// One [`check_proof`] call: the proof under check, borrowed for `'p`,
/// and what has been decided about its assertions so far. Nothing
/// survives the call.
///
/// The memos key assertions by address, which is sound only because the
/// proof is borrowed for the whole check: no assertion it holds can be
/// freed, so no address can name another assertion while a memo lives.
/// The checker's own temporaries (an axiom's derived precondition, a
/// state-only assertion) are never keyed by address.
struct Checker<'p, L> {
    /// The upper-bound environment of each assertion of the proof.
    envs: HashMap<Addr<L>, Result<UpperBounds<L>, EntailError>>,
    /// `p |- q` for each pair of the proof's assertions decided.
    entailed: HashMap<Pair<L>, Result<bool, EntailError>>,
    /// The environment of the shared facts of each action precondition:
    /// its state bounds that mention neither `local` nor `global`.
    facts: HashMap<Addr<L>, Result<UpperBounds<L>, EntailError>>,
    proof: PhantomData<&'p Proof<L>>,
}

impl<'p, L: Lattice + fmt::Display> Checker<'p, L> {
    fn new() -> Self {
        Checker {
            envs: HashMap::new(),
            entailed: HashMap::new(),
            facts: HashMap::new(),
            proof: PhantomData,
        }
    }

    /// The environment of `p`, built once.
    fn env(&mut self, p: &'p Assertion<L>) -> Result<&UpperBounds<L>, EntailError> {
        self.envs
            .entry(p)
            .or_insert_with(|| UpperBounds::of(p))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// `p |- q`, decided once per pair. An assertion entails itself, and
    /// any assertion equal to it, once its own environment builds.
    fn entails(&mut self, p: &'p Assertion<L>, q: &'p Assertion<L>) -> Result<bool, EntailError> {
        let key: Pair<L> = (p, q);
        if let Some(known) = self.entailed.get(&key) {
            return known.clone();
        }
        let same = std::ptr::eq(p, q) || p == q;
        let verdict = self
            .env(p)
            .and_then(|env| if same { Ok(true) } else { entails_env(env, q) });
        self.entailed.insert(key, verdict.clone());
        verdict
    }

    fn require_equiv(
        &mut self,
        a: &'p Assertion<L>,
        b: &'p Assertion<L>,
        rule: &'static str,
        what: &str,
    ) -> Result<(), CheckError> {
        if self.entails(a, b)? && self.entails(b, a)? {
            Ok(())
        } else {
            Err(CheckError::new(rule, format!("{what}: {a} vs {b}")))
        }
    }

    /// An axiom's precondition `pre` against the one `expected` derived
    /// from its postcondition: equal by value, or else equivalent.
    fn require_axiom_pre(
        &mut self,
        pre: &'p Assertion<L>,
        expected: &Assertion<L>,
        rule: &'static str,
        what: &str,
    ) -> Result<(), CheckError> {
        if *pre == *expected {
            self.env(pre)?;
            return Ok(());
        }
        if equivalent(pre, expected)? {
            Ok(())
        } else {
            Err(CheckError::new(
                rule,
                format!("{what}: {pre} vs {expected}"),
            ))
        }
    }

    /// Decides `node.pre |- lhs ≤ rhs`, a side condition of a rule.
    fn side_condition(
        &mut self,
        node: &'p Proof<L>,
        lhs: ClassExpr<L>,
        rhs: &ClassExpr<L>,
    ) -> Result<bool, CheckError> {
        let env = self.env(&node.pre)?;
        Ok(entails_bound_env(&[env], &Bound::new(lhs, rhs.clone()))?)
    }

    fn check(&mut self, stmt: &Stmt, proof: &'p Proof<L>) -> Result<(), CheckError> {
        match (&proof.rule, stmt) {
            (Rule::Conseq { inner }, _) => {
                if !self.entails(&proof.pre, &inner.pre)? {
                    return Err(CheckError::new(
                        "consequence rule",
                        format!("{} does not entail {}", proof.pre, inner.pre),
                    ));
                }
                if !self.entails(&inner.post, &proof.post)? {
                    return Err(CheckError::new(
                        "consequence rule",
                        format!("{} does not entail {}", inner.post, proof.post),
                    ));
                }
                self.check(stmt, inner)
            }

            (Rule::SkipAxiom, Stmt::Skip(_)) => {
                self.require_equiv(&proof.pre, &proof.post, "skip axiom", "pre must equal post")
            }

            (Rule::AssignAxiom, Stmt::Assign { var, expr, .. }) => self.require_axiom_pre(
                &proof.pre,
                &proof.post.subst(&assign_subst(*var, expr)),
                "assignment axiom",
                "pre must be post[x̲ ← e̲ ⊕ local ⊕ global]",
            ),

            (Rule::SignalAxiom, Stmt::Signal { sem, .. }) => self.require_axiom_pre(
                &proof.pre,
                &proof.post.subst(&signal_subst(*sem)),
                "signal axiom",
                "pre must be post[sem̲ ← sem̲ ⊕ local ⊕ global]",
            ),

            (Rule::WaitAxiom, Stmt::Wait { sem, .. }) => self.require_axiom_pre(
                &proof.pre,
                &proof.post.subst(&wait_subst(*sem)),
                "wait axiom",
                "pre must be post[sem̲ ← …, global ← …]",
            ),

            (
                Rule::If {
                    then_proof,
                    else_proof,
                },
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    ..
                },
            ) => self.check_if(
                cond,
                then_branch,
                else_branch.as_deref(),
                then_proof,
                else_proof.as_deref(),
                proof,
            ),

            (
                Rule::While { body },
                Stmt::While {
                    cond, body: sbody, ..
                },
            ) => self.check_while(cond, sbody, body, proof),

            (Rule::Seq { parts }, Stmt::Seq { stmts, .. }) => {
                if parts.len() != stmts.len() {
                    return Err(CheckError::new(
                        "composition rule",
                        format!("{} premises for {} statements", parts.len(), stmts.len()),
                    ));
                }
                self.require_equiv(&proof.pre, &parts[0].pre, "composition rule", "P0 mismatch")?;
                for pair in parts.windows(2) {
                    self.require_equiv(
                        &pair[0].post,
                        &pair[1].pre,
                        "composition rule",
                        "adjacent premises must share their intermediate assertion",
                    )?;
                }
                self.require_equiv(
                    &parts[parts.len() - 1].post,
                    &proof.post,
                    "composition rule",
                    "Pn mismatch",
                )?;
                for (s, p) in stmts.iter().zip(parts) {
                    self.check(s, p)?;
                }
                Ok(())
            }

            (
                Rule::Cobegin { branches },
                Stmt::Cobegin {
                    branches: sbranches,
                    ..
                },
            ) => self.check_cobegin(sbranches, branches, proof),

            _ => Err(CheckError::new(
                proof.rule_name(),
                format!(
                    "rule does not match statement {:?}",
                    discriminant_name(stmt)
                ),
            )),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_if(
        &mut self,
        cond: &Expr,
        then_branch: &Stmt,
        else_branch: Option<&Stmt>,
        then_proof: &'p Proof<L>,
        else_proof: Option<&'p Proof<L>>,
        node: &'p Proof<L>,
    ) -> Result<(), CheckError> {
        const RULE: &str = "alternation rule";
        // Premise derivations.
        self.check(then_branch, then_proof)?;
        match (else_branch, else_proof) {
            (Some(sb), Some(pb)) => self.check(sb, pb)?,
            (None, Some(pb)) => self.check(&Stmt::Skip(Span::DUMMY), pb)?,
            (Some(_), None) => {
                return Err(CheckError::new(RULE, "missing proof for the else branch"));
            }
            (None, None) => {
                // The implicit skip-branch proof {V,L',G} skip {V',L',G'}
                // exists iff the precondition entails the postcondition.
                if !self.entails(&then_proof.pre, &then_proof.post)? {
                    return Err(CheckError::new(
                        RULE,
                        "no valid implicit skip proof for the missing else branch",
                    ));
                }
            }
        }
        // Both premises share pre and post.
        if let Some(pb) = else_proof {
            self.require_equiv(
                &then_proof.pre,
                &pb.pre,
                RULE,
                "branch preconditions differ",
            )?;
            self.require_equiv(
                &then_proof.post,
                &pb.post,
                RULE,
                "branch postconditions differ",
            )?;
        }
        // Partition discipline: premises are {V,L',G} Si {V',L',G'} and the
        // conclusion is {V,L,G} if … {V',L,G'}.
        require_same_bound(
            &then_proof.pre.local,
            &then_proof.post.local,
            RULE,
            "L' changes across the branch",
        )?;
        require_same_bound(
            &node.pre.local,
            &node.post.local,
            RULE,
            "L changes across the conclusion",
        )?;
        require_same_bound(
            &node.pre.global,
            &then_proof.pre.global,
            RULE,
            "G differs between conclusion and premise pre",
        )?;
        require_same_bound(
            &node.post.global,
            &then_proof.post.global,
            RULE,
            "G' differs between conclusion and premise post",
        )?;
        require_equiv_states(&node.pre.state, &then_proof.pre.state, RULE, "V differs")?;
        require_equiv_states(&node.post.state, &then_proof.post.state, RULE, "V' differs")?;
        // Side condition: V,L,G |- L'[local ← local ⊕ e̲].
        if let Some(l_prime) = &then_proof.pre.local {
            let lhs = ClassExpr::local().join(&ClassExpr::of_expr(cond));
            if !self.side_condition(node, lhs, l_prime)? {
                return Err(CheckError::new(
                    RULE,
                    format!(
                        "side condition fails: {} does not bound local ⊕ e̲ by {}",
                        node.pre, l_prime
                    ),
                ));
            }
        }
        Ok(())
    }

    fn check_while(
        &mut self,
        cond: &Expr,
        sbody: &Stmt,
        body: &'p Proof<L>,
        node: &'p Proof<L>,
    ) -> Result<(), CheckError> {
        const RULE: &str = "iteration rule";
        self.check(sbody, body)?;
        // Premise must be invariant: {V,L',G} S {V,L',G}.
        self.require_equiv(
            &body.pre,
            &body.post,
            RULE,
            "body derivation is not invariant",
        )?;
        // Partition discipline.
        require_same_bound(
            &node.pre.local,
            &node.post.local,
            RULE,
            "L changes across the conclusion",
        )?;
        require_same_bound(
            &node.pre.global,
            &body.pre.global,
            RULE,
            "G differs between conclusion and premise",
        )?;
        require_equiv_states(&node.pre.state, &body.pre.state, RULE, "V differs (pre)")?;
        require_equiv_states(&node.post.state, &body.pre.state, RULE, "V differs (post)")?;
        // Side condition 1: V,L,G |- L'[local ← local ⊕ e̲].
        if let Some(l_prime) = &body.pre.local {
            let lhs = ClassExpr::local().join(&ClassExpr::of_expr(cond));
            if !self.side_condition(node, lhs, l_prime)? {
                return Err(CheckError::new(RULE, "side condition on local fails"));
            }
        }
        // Side condition 2: V,L,G |- G'[global ← global ⊕ local ⊕ e̲].
        if let Some(g_prime) = &node.post.global {
            let lhs = ClassExpr::global()
                .join(&ClassExpr::local())
                .join(&ClassExpr::of_expr(cond));
            if !self.side_condition(node, lhs, g_prime)? {
                return Err(CheckError::new(RULE, "side condition on global fails"));
            }
        }
        Ok(())
    }

    fn check_cobegin(
        &mut self,
        sbranches: &[Stmt],
        branches: &'p [Proof<L>],
        node: &'p Proof<L>,
    ) -> Result<(), CheckError> {
        const RULE: &str = "concurrent-execution rule";
        if branches.len() != sbranches.len() {
            return Err(CheckError::new(
                RULE,
                format!(
                    "{} premises for {} processes",
                    branches.len(),
                    sbranches.len()
                ),
            ));
        }
        for (s, p) in sbranches.iter().zip(branches) {
            self.check(s, p)?;
        }
        // Partition discipline: {Vi,L,G} Si {Vi',L,G'}.
        for p in branches {
            require_same_bound(
                &p.pre.local,
                &node.pre.local,
                RULE,
                "premise L differs (pre)",
            )?;
            require_same_bound(
                &p.post.local,
                &node.pre.local,
                RULE,
                "premise L differs (post)",
            )?;
            require_same_bound(&p.pre.global, &node.pre.global, RULE, "premise G differs")?;
            require_same_bound(
                &p.post.global,
                &node.post.global,
                RULE,
                "premise G' differs",
            )?;
        }
        require_same_bound(
            &node.post.local,
            &node.pre.local,
            RULE,
            "conclusion L changes",
        )?;
        // V1,…,Vn conjunction.
        let pre_all: Vec<Bound<L>> = branches.iter().flat_map(|p| p.pre.state.clone()).collect();
        let post_all: Vec<Bound<L>> = branches.iter().flat_map(|p| p.post.state.clone()).collect();
        require_equiv_states(&node.pre.state, &pre_all, RULE, "V1,…,Vn differs (pre)")?;
        require_equiv_states(
            &node.post.state,
            &post_all,
            RULE,
            "V1',…,Vn' differs (post)",
        )?;
        // Interference freedom.
        let atomics: Vec<Vec<AtomicAction<'p, L>>> = sbranches
            .iter()
            .zip(branches)
            .map(|(s, p)| {
                let mut out = Vec::new();
                collect_atomics(s, p, &mut out);
                out
            })
            .collect();
        // Each branch's distinct assertions, in order of first use: met
        // by identity, and kept once by value.
        let assertion_sets: Vec<Vec<&'p Assertion<L>>> = branches
            .iter()
            .map(|p| {
                let (mut met, mut kept) = (HashSet::new(), HashSet::new());
                let mut out = Vec::new();
                p.walk(&mut |n| {
                    for a in [&n.pre, &n.post] {
                        if met.insert(Arc::as_ptr(a)) && kept.insert(&**a) {
                            out.push(&**a);
                        }
                    }
                });
                out
            })
            .collect();
        for (j, actions) in atomics.iter().enumerate() {
            for (i, assertions) in assertion_sets.iter().enumerate() {
                if i == j {
                    continue;
                }
                for action in actions {
                    for a in assertions {
                        self.check_preserved(action, a)
                            .map_err(|m| CheckError::new(RULE, m))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks `{pre(T) ∧ V(A)} T {V(A)}`: the `V` part of assertion `A`
    /// (from another process) survives the atomic action `T`.
    ///
    /// Per §3.2, "indirect flows in one process do not affect indirect
    /// flows in another process": the `local`/`global` atoms appearing in
    /// `A` are the *other* process's certification variables, which `T`
    /// neither modifies nor constrains. `T`'s effect on shared state is
    /// therefore [`AtomicAction::cross`], with the executing process's
    /// `local`/`global` *evaluated to literals* from `T`'s precondition —
    /// they must not be conflated with `A`'s atoms.
    fn check_preserved(
        &mut self,
        action: &AtomicAction<'p, L>,
        a: &'p Assertion<L>,
    ) -> Result<(), String> {
        let subst = action.cross.as_ref().map_err(Clone::clone)?;
        if a.state.is_empty() {
            return Ok(());
        }
        // The premise is `A`'s own bounds (its local/global partition
        // applies to its own atoms) and the shared facts of `T`'s
        // precondition (shared-variable bounds mean the same thing in both
        // processes), decided from the environment each built once.
        let env = self
            .envs
            .entry(a)
            .or_insert_with(|| UpperBounds::of(a))
            .as_ref()
            .map_err(|e| e.to_string())?;
        let facts = self
            .facts
            .entry(action.pre)
            .or_insert_with(|| shared_facts(action.pre))
            .as_ref()
            .map_err(|e| e.to_string())?;
        for b in &a.state {
            // A bound that mentions no substituted atom is unchanged, and as
            // one of the premise's own conjuncts it is entailed.
            if !subst
                .keys()
                .any(|&atom| b.lhs.mentions(atom) || b.rhs.mentions(atom))
            {
                continue;
            }
            let substituted = b.subst(subst);
            match entails_bound_env(&[env, facts], &substituted) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(format!(
                        "interference: {} invalidates bound {} (needed: {})",
                        action.what, b, substituted
                    ));
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(())
    }
}

/// An atomic action of a process, with the precondition its derivation
/// establishes at that point.
struct AtomicAction<'p, L> {
    /// The action's effect on another process's assertions: its
    /// substitution with the executing process's `local`/`global` folded
    /// in as a literal and no entry for the `global` atom (so a `wait`
    /// acts across processes as `signal` does), or why its precondition
    /// gives no such literal.
    cross: Result<BTreeMap<Atom, ClassExpr<L>>, String>,
    pre: &'p Assertion<L>,
    what: String,
}

impl<'p, L: Lattice + fmt::Display> AtomicAction<'p, L> {
    fn new(subst: BTreeMap<Atom, ClassExpr<L>>, pre: &'p Assertion<L>, what: String) -> Self {
        // The executing process's pc context, as a literal.
        let lit_of = |b: &Option<ClassExpr<L>>| -> Result<Extended<L>, String> {
            match b {
                None => Err(format!(
                    "interference check: {what} has an unbounded local/global context"
                )),
                Some(e) => e.eval_lit().ok_or_else(|| {
                    format!("interference check: {what} has a non-literal local/global bound")
                }),
            }
        };
        let cross = lit_of(&pre.local)
            .and_then(|l| Ok(l.join(&lit_of(&pre.global)?)))
            .map(|lg| {
                let mut cross = BTreeMap::new();
                for (atom, repl) in &subst {
                    if matches!(atom, Atom::Local | Atom::Global) {
                        continue;
                    }
                    let var_part: ClassExpr<L> = repl
                        .atoms()
                        .iter()
                        .filter(|a| matches!(a, Atom::VarClass(_)))
                        .fold(ClassExpr::lit(repl.literal().clone()), |acc, a| {
                            acc.join(&ClassExpr::atom(*a))
                        });
                    cross.insert(*atom, var_part.join(&ClassExpr::lit(lg.clone())));
                }
                cross
            });
        AtomicAction { cross, pre, what }
    }
}

fn collect_atomics<'p, L: Lattice + fmt::Display>(
    stmt: &Stmt,
    proof: &'p Proof<L>,
    out: &mut Vec<AtomicAction<'p, L>>,
) {
    collect_atomics_ctx(stmt, proof, &proof.pre, out);
}

fn collect_atomics_ctx<'p, L: Lattice + fmt::Display>(
    stmt: &Stmt,
    proof: &'p Proof<L>,
    ctx_pre: &'p Assertion<L>,
    out: &mut Vec<AtomicAction<'p, L>>,
) {
    match (&proof.rule, stmt) {
        // A consequence wrapper keeps the outermost (strongest established)
        // precondition for the wrapped statement occurrence.
        (Rule::Conseq { inner }, _) => collect_atomics_ctx(stmt, inner, ctx_pre, out),
        (Rule::AssignAxiom, Stmt::Assign { var, expr, .. }) => out.push(AtomicAction::new(
            assign_subst(*var, expr),
            ctx_pre,
            format!("assignment to v{}", var.0),
        )),
        (Rule::SignalAxiom, Stmt::Signal { sem, .. }) => out.push(AtomicAction::new(
            signal_subst(*sem),
            ctx_pre,
            format!("signal(v{})", sem.0),
        )),
        (Rule::WaitAxiom, Stmt::Wait { sem, .. }) => out.push(AtomicAction::new(
            wait_subst(*sem),
            ctx_pre,
            format!("wait(v{})", sem.0),
        )),
        (Rule::SkipAxiom, _) => {}
        (
            Rule::If {
                then_proof,
                else_proof,
            },
            Stmt::If {
                then_branch,
                else_branch,
                ..
            },
        ) => {
            collect_atomics(then_branch, then_proof, out);
            if let (Some(sb), Some(pb)) = (else_branch, else_proof) {
                collect_atomics(sb, pb, out);
            }
        }
        (Rule::While { body }, Stmt::While { body: sbody, .. }) => {
            collect_atomics(sbody, body, out);
        }
        (Rule::Seq { parts }, Stmt::Seq { stmts, .. }) => {
            for (s, p) in stmts.iter().zip(parts) {
                collect_atomics(s, p, out);
            }
        }
        (Rule::Cobegin { branches }, Stmt::Cobegin { branches: sb, .. }) => {
            for (s, p) in sb.iter().zip(branches) {
                collect_atomics(s, p, out);
            }
        }
        _ => {} // mismatches are reported by the main checker
    }
}

/// The environment of `pre`'s shared facts: its state bounds that
/// mention neither `local` nor `global`, which mean the same thing in
/// every process.
fn shared_facts<L: Lattice + fmt::Display>(
    pre: &Assertion<L>,
) -> Result<UpperBounds<L>, EntailError> {
    let shared = |b: &&Bound<L>| {
        ![Atom::Local, Atom::Global]
            .iter()
            .any(|&atom| b.lhs.mentions(atom) || b.rhs.mentions(atom))
    };
    UpperBounds::of(&Assertion::state_only(
        pre.state.iter().filter(shared).cloned().collect(),
    ))
}

fn require_equiv_states<L: Lattice + fmt::Display>(
    a: &[Bound<L>],
    b: &[Bound<L>],
    rule: &'static str,
    what: &str,
) -> Result<(), CheckError> {
    if equivalent_states(a, b)? {
        Ok(())
    } else {
        let (pa, pb) = (
            Assertion::state_only(a.to_vec()),
            Assertion::state_only(b.to_vec()),
        );
        Err(CheckError::new(rule, format!("{what}: {pa} vs {pb}")))
    }
}

fn require_same_bound<L: Lattice + fmt::Display>(
    a: &Option<ClassExpr<L>>,
    b: &Option<ClassExpr<L>>,
    rule: &'static str,
    what: &str,
) -> Result<(), CheckError> {
    let same = match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x == y
                || match (x.eval_lit(), y.eval_lit()) {
                    (Some(vx), Some(vy)) => vx == vy,
                    _ => false,
                }
        }
        _ => false,
    };
    if same {
        Ok(())
    } else {
        let show = |o: &Option<ClassExpr<L>>| match o {
            None => "(unbounded)".to_string(),
            Some(e) => e.to_string(),
        };
        Err(CheckError::new(
            rule,
            format!("{what}: {} vs {}", show(a), show(b)),
        ))
    }
}

fn discriminant_name(stmt: &Stmt) -> &'static str {
    match stmt {
        Stmt::Skip(_) => "skip",
        Stmt::Assign { .. } => "assignment",
        Stmt::If { .. } => "if",
        Stmt::While { .. } => "while",
        Stmt::Seq { .. } => "begin/end",
        Stmt::Cobegin { .. } => "cobegin/coend",
        Stmt::Wait { .. } => "wait",
        Stmt::Signal { .. } => "signal",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_lang::builder::{e, s, ProgramBuilder};
    use secflow_lattice::{Extended, TwoPoint};

    type E = ClassExpr<TwoPoint>;

    fn lo() -> Extended<TwoPoint> {
        Extended::Elem(TwoPoint::Low)
    }

    fn hi() -> Extended<TwoPoint> {
        Extended::Elem(TwoPoint::High)
    }

    /// The §5.2 counterexample program `begin x := 0; y := x end` with the
    /// paper's verbatim proof, transcribed and machine-checked.
    #[test]
    fn paper_section_5_2_proof_checks() {
        let mut b = ProgramBuilder::new();
        let x = b.data("x");
        let y = b.data("y");
        let prog = b.finish(s::seq([s::assign(x, e::konst(0)), s::assign(y, e::var(x))]));

        // {x̲ ≤ high, x̲ ≤ low, local ≤ low, global ≤ low}   (pre)
        // x := 0
        // {x̲ ≤ low, y̲ ≤ low, local ≤ low, global ≤ low}    (mid)
        // y := x
        // {x̲ ≤ low, y̲ ≤ low, local ≤ low, global ≤ low}    (post)
        //
        // The paper's rendition of the middle/post assertions writes
        // `x ≤ low` for the second conjunct; we bound both variables.
        let pre = Assertion::new(
            vec![
                Bound::var_le(x, TwoPoint::High),
                Bound::var_le(y, TwoPoint::Low),
            ],
            E::lit(lo()),
            E::lit(lo()),
        );
        let mid = Assertion::new(
            vec![
                Bound::var_le(x, TwoPoint::Low),
                Bound::var_le(y, TwoPoint::Low),
            ],
            E::lit(lo()),
            E::lit(lo()),
        );
        let post = mid.clone();

        // First assignment via the axiom + consequence:
        // axiom pre = mid[x̲ ← 0̲ ⊕ local ⊕ global] = {local⊕global ≤ low, y̲ ≤ low, …}.
        let ax1_pre = mid.subst(&assign_subst(x, &e::konst(0)));
        let p1 = Proof::new(
            pre.clone(),
            mid.clone(),
            Rule::Conseq {
                inner: Box::new(Proof::new(ax1_pre, mid.clone(), Rule::AssignAxiom)),
            },
        );
        // Second assignment likewise.
        let ax2_pre = post.subst(&assign_subst(y, &e::var(x)));
        let p2 = Proof::new(
            mid.clone(),
            post.clone(),
            Rule::Conseq {
                inner: Box::new(Proof::new(ax2_pre, post.clone(), Rule::AssignAxiom)),
            },
        );
        let proof = Proof::new(
            pre,
            post,
            Rule::Seq {
                parts: vec![p1, p2],
            },
        );
        check_proof(&prog.body, &proof).unwrap();
    }

    #[test]
    fn wrong_direction_assignment_fails() {
        // {y̲ ≤ low, x̲ ≤ high, …} y := x {y̲ ≤ low, …} must NOT check:
        // after y := x, y̲ can be High.
        let mut b = ProgramBuilder::new();
        let x = b.data("x");
        let y = b.data("y");
        let prog = b.finish(s::assign(y, e::var(x)));

        let i = vec![
            Bound::var_le(x, TwoPoint::High),
            Bound::var_le(y, TwoPoint::Low),
        ];
        let pre = Assertion::new(i.clone(), E::lit(lo()), E::lit(lo()));
        let post = pre.clone();
        let ax_pre = post.subst(&assign_subst(y, &e::var(x)));
        let proof = Proof::new(
            pre,
            post.clone(),
            Rule::Conseq {
                inner: Box::new(Proof::new(ax_pre, post, Rule::AssignAxiom)),
            },
        );
        let err = check_proof(&prog.body, &proof).unwrap_err();
        assert_eq!(err.rule, "consequence rule");
    }

    #[test]
    fn skip_axiom_requires_equal_pre_post() {
        let prog_stmt = s::skip();
        let a = Assertion::<TwoPoint>::state_only(vec![]);
        let ok = Proof::new(a.clone(), a.clone(), Rule::SkipAxiom);
        check_proof(&prog_stmt, &ok).unwrap();

        let b = Assertion::state_only(vec![Bound::new(E::lit(hi()), E::lit(lo()))]);
        let bad = Proof::new(a, b, Rule::SkipAxiom);
        assert!(check_proof(&prog_stmt, &bad).is_err());
    }

    #[test]
    fn rule_statement_mismatch_is_reported() {
        let stmt = s::skip();
        let a = Assertion::<TwoPoint>::state_only(vec![]);
        let proof = Proof::new(a.clone(), a, Rule::AssignAxiom);
        let err = check_proof(&stmt, &proof).unwrap_err();
        assert!(err.message.contains("does not match"));
    }

    #[test]
    fn seq_premise_count_must_match() {
        let mut b = ProgramBuilder::new();
        let x = b.data("x");
        let prog = b.finish(s::seq([s::assign(x, e::konst(0)), s::skip()]));
        let a = Assertion::<TwoPoint>::state_only(vec![]);
        let proof = Proof::new(
            a.clone(),
            a.clone(),
            Rule::Seq {
                parts: vec![Proof::new(a.clone(), a.clone(), Rule::SkipAxiom)],
            },
        );
        let err = check_proof(&prog.body, &proof).unwrap_err();
        assert!(err.message.contains("premises"));
    }
}
