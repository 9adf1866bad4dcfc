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

use std::collections::BTreeMap;
use std::fmt;

use secflow_lang::{Expr, Span, Stmt, VarId};
use secflow_lattice::{Extended, Lattice};

use crate::assertion::{Assertion, Atom, Bound, ClassExpr};
use crate::entail::{
    entails, entails_bound, entails_bound_env, equivalent, EntailError, UpperBounds,
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
    Checker.check(stmt, proof)
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

struct Checker;

impl Checker {
    fn check<L: Lattice + fmt::Display>(
        &self,
        stmt: &Stmt,
        proof: &Proof<L>,
    ) -> Result<(), CheckError> {
        match (&proof.rule, stmt) {
            (Rule::Conseq { inner }, _) => {
                if !entails(&proof.pre, &inner.pre)? {
                    return Err(CheckError::new(
                        "consequence rule",
                        format!("{} does not entail {}", proof.pre, inner.pre),
                    ));
                }
                if !entails(&inner.post, &proof.post)? {
                    return Err(CheckError::new(
                        "consequence rule",
                        format!("{} does not entail {}", inner.post, proof.post),
                    ));
                }
                self.check(stmt, inner)
            }

            (Rule::SkipAxiom, Stmt::Skip(_)) => {
                require_equiv(&proof.pre, &proof.post, "skip axiom", "pre must equal post")
            }

            (Rule::AssignAxiom, Stmt::Assign { var, expr, .. }) => {
                let expected = proof.post.subst(&assign_subst(*var, expr));
                require_equiv(
                    &proof.pre,
                    &expected,
                    "assignment axiom",
                    "pre must be post[x̲ ← e̲ ⊕ local ⊕ global]",
                )
            }

            (Rule::SignalAxiom, Stmt::Signal { sem, .. }) => {
                let expected = proof.post.subst(&signal_subst(*sem));
                require_equiv(
                    &proof.pre,
                    &expected,
                    "signal axiom",
                    "pre must be post[sem̲ ← sem̲ ⊕ local ⊕ global]",
                )
            }

            (Rule::WaitAxiom, Stmt::Wait { sem, .. }) => {
                let expected = proof.post.subst(&wait_subst(*sem));
                require_equiv(
                    &proof.pre,
                    &expected,
                    "wait axiom",
                    "pre must be post[sem̲ ← …, global ← …]",
                )
            }

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
                require_equiv(&proof.pre, &parts[0].pre, "composition rule", "P0 mismatch")?;
                for i in 0..parts.len() - 1 {
                    require_equiv(
                        &parts[i].post,
                        &parts[i + 1].pre,
                        "composition rule",
                        "adjacent premises must share their intermediate assertion",
                    )?;
                }
                require_equiv(
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
    fn check_if<L: Lattice + fmt::Display>(
        &self,
        cond: &Expr,
        then_branch: &Stmt,
        else_branch: Option<&Stmt>,
        then_proof: &Proof<L>,
        else_proof: Option<&Proof<L>>,
        node: &Proof<L>,
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
                if !entails(&then_proof.pre, &then_proof.post)? {
                    return Err(CheckError::new(
                        RULE,
                        "no valid implicit skip proof for the missing else branch",
                    ));
                }
            }
        }
        // Both premises share pre and post.
        if let Some(pb) = else_proof {
            require_equiv(
                &then_proof.pre,
                &pb.pre,
                RULE,
                "branch preconditions differ",
            )?;
            require_equiv(
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
            if !entails_bound(&node.pre, &Bound::new(lhs, l_prime.clone()))? {
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

    fn check_while<L: Lattice + fmt::Display>(
        &self,
        cond: &Expr,
        sbody: &Stmt,
        body: &Proof<L>,
        node: &Proof<L>,
    ) -> Result<(), CheckError> {
        const RULE: &str = "iteration rule";
        self.check(sbody, body)?;
        // Premise must be invariant: {V,L',G} S {V,L',G}.
        require_equiv(
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
            if !entails_bound(&node.pre, &Bound::new(lhs, l_prime.clone()))? {
                return Err(CheckError::new(RULE, "side condition on local fails"));
            }
        }
        // Side condition 2: V,L,G |- G'[global ← global ⊕ local ⊕ e̲].
        if let Some(g_prime) = &node.post.global {
            let lhs = ClassExpr::global()
                .join(&ClassExpr::local())
                .join(&ClassExpr::of_expr(cond));
            if !entails_bound(&node.pre, &Bound::new(lhs, g_prime.clone()))? {
                return Err(CheckError::new(RULE, "side condition on global fails"));
            }
        }
        Ok(())
    }

    fn check_cobegin<L: Lattice + fmt::Display>(
        &self,
        sbranches: &[Stmt],
        branches: &[Proof<L>],
        node: &Proof<L>,
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
        let atomics: Vec<Vec<AtomicAction<L>>> = sbranches
            .iter()
            .zip(branches)
            .map(|(s, p)| {
                let mut out = Vec::new();
                collect_atomics(s, p, &mut out);
                out
            })
            .collect();
        let assertion_sets: Vec<Vec<Assertion<L>>> = branches
            .iter()
            .map(|p| {
                let mut out = Vec::new();
                p.walk(&mut |n| {
                    if !out.contains(&n.pre) {
                        out.push(n.pre.clone());
                    }
                    if !out.contains(&n.post) {
                        out.push(n.post.clone());
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
                        check_preserved(action, a).map_err(|m| CheckError::new(RULE, m))?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// An atomic action of a process, with the precondition its derivation
/// establishes at that point.
struct AtomicAction<L> {
    subst: BTreeMap<Atom, ClassExpr<L>>,
    pre: Assertion<L>,
    what: String,
}

fn collect_atomics<L: Lattice + fmt::Display>(
    stmt: &Stmt,
    proof: &Proof<L>,
    out: &mut Vec<AtomicAction<L>>,
) {
    collect_atomics_ctx(stmt, proof, &proof.pre, out);
}

fn collect_atomics_ctx<L: Lattice + fmt::Display>(
    stmt: &Stmt,
    proof: &Proof<L>,
    ctx_pre: &Assertion<L>,
    out: &mut Vec<AtomicAction<L>>,
) {
    match (&proof.rule, stmt) {
        // A consequence wrapper keeps the outermost (strongest established)
        // precondition for the wrapped statement occurrence.
        (Rule::Conseq { inner }, _) => collect_atomics_ctx(stmt, inner, ctx_pre, out),
        (Rule::AssignAxiom, Stmt::Assign { var, expr, .. }) => out.push(AtomicAction {
            subst: assign_subst(*var, expr),
            pre: ctx_pre.clone(),
            what: format!("assignment to v{}", var.0),
        }),
        (Rule::SignalAxiom, Stmt::Signal { sem, .. }) => out.push(AtomicAction {
            subst: signal_subst(*sem),
            pre: ctx_pre.clone(),
            what: format!("signal(v{})", sem.0),
        }),
        (Rule::WaitAxiom, Stmt::Wait { sem, .. }) => out.push(AtomicAction {
            subst: wait_subst(*sem),
            pre: ctx_pre.clone(),
            what: format!("wait(v{})", sem.0),
        }),
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

/// Checks `{pre(T) ∧ V(A)} T {V(A)}`: the `V` part of assertion `A` (from
/// another process) survives the atomic action `T`.
///
/// Per §3.2, "indirect flows in one process do not affect indirect flows
/// in another process": the `local`/`global` atoms appearing in `A` are
/// the *other* process's certification variables, which `T` neither
/// modifies nor constrains. `T`'s effect on shared state is therefore the
/// substitution `v̲ ← v̲' ⊕ l_T ⊕ g_T` with the executing process's
/// `local`/`global` *evaluated to literals* from `T`'s precondition —
/// they must not be conflated with `A`'s atoms. In particular a `wait`
/// raises only its own process's `global`, so its cross-process effect is
/// the same as `signal`'s.
fn check_preserved<L: Lattice + fmt::Display>(
    action: &AtomicAction<L>,
    a: &Assertion<L>,
) -> Result<(), String> {
    // The executing process's pc context, as a literal.
    let lit_of = |b: &Option<ClassExpr<L>>| -> Result<Extended<L>, String> {
        match b {
            None => Err(format!(
                "interference check: {} has an unbounded local/global context",
                action.what
            )),
            Some(e) => e.eval_lit().ok_or_else(|| {
                format!(
                    "interference check: {} has a non-literal local/global bound",
                    action.what
                )
            }),
        }
    };
    let lg = lit_of(&action.pre.local)?.join(&lit_of(&action.pre.global)?);
    if a.state.is_empty() {
        return Ok(());
    }

    // Rebuild T's substitution with the context folded in as a literal
    // and without any entry for the `global` atom.
    let mut subst: BTreeMap<Atom, ClassExpr<L>> = BTreeMap::new();
    for (atom, repl) in &action.subst {
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
        subst.insert(*atom, var_part.join(&ClassExpr::lit(lg.clone())));
    }

    // Premise: A's own bounds (its local/global partition applies to its
    // own atoms) plus the Local/Global-free facts of T's precondition
    // (shared-variable bounds mean the same thing in both processes).
    let mut combined_state = a.state.clone();
    combined_state.extend(
        action
            .pre
            .state
            .iter()
            .filter(|b| {
                !b.lhs.mentions(Atom::Local)
                    && !b.lhs.mentions(Atom::Global)
                    && !b.rhs.mentions(Atom::Local)
                    && !b.rhs.mentions(Atom::Global)
            })
            .cloned(),
    );
    let combined = Assertion {
        state: combined_state,
        local: a.local.clone(),
        global: a.global.clone(),
    };
    let env = UpperBounds::of(&combined).map_err(|e| e.to_string())?;
    for b in &a.state {
        // A bound that mentions no substituted atom is unchanged, and as
        // one of `combined`'s own conjuncts it is entailed.
        if !subst
            .keys()
            .any(|&atom| b.lhs.mentions(atom) || b.rhs.mentions(atom))
        {
            continue;
        }
        let substituted = b.subst(&subst);
        match entails_bound_env(&env, &substituted) {
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

fn require_equiv<L: Lattice + fmt::Display>(
    a: &Assertion<L>,
    b: &Assertion<L>,
    rule: &'static str,
    what: &str,
) -> Result<(), CheckError> {
    if equivalent(a, b)? {
        Ok(())
    } else {
        Err(CheckError::new(rule, format!("{what}: {a} vs {b}")))
    }
}

fn require_equiv_states<L: Lattice + fmt::Display>(
    a: &[Bound<L>],
    b: &[Bound<L>],
    rule: &'static str,
    what: &str,
) -> Result<(), CheckError> {
    let pa = Assertion::state_only(a.to_vec());
    let pb = Assertion::state_only(b.to_vec());
    require_equiv(&pa, &pb, rule, what)
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
