//! The Theorem 1 constructive prover.
//!
//! Theorem 1 (consistency): if `cert(S)` holds for a static binding
//! `sbind`, then for any `l ⊕ g ≤ mod(S)` there is a *completely
//! invariant* flow proof of
//!
//! ```text
//! {I, local ≤ l, global ≤ g}  S  {I, local ≤ l, global ≤ g ⊕ l ⊕ flow(S)}
//! ```
//!
//! where `I` is the policy assertion corresponding to `sbind`
//! (Definition 6: the conjunction of `v̲ ≤ sbind(v)`).
//!
//! [`build_proof`] implements the Appendix's induction as a proof
//! *constructor*; [`prove`] additionally verifies the preconditions and
//! runs the independent checker over the result. The construction is
//! deliberately independent of the checker, so the pair constitutes a
//! machine check of the theorem on any given instance: `certified ⟹
//! builder output passes the checker` is property-tested across random
//! programs, bindings and lattices.
//!
//! The converse, Theorem 2, guarantees that when CFM *rejects* a program
//! no completely invariant proof exists at all; the contrapositive is
//! exercised in the test-suite by confirming the builder's candidate
//! proof fails the checker exactly when certification fails.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use secflow_core::{certify, mod_flow, StaticBinding};
use secflow_lang::{Program, Stmt};
use secflow_lattice::{Extended, Lattice};

use crate::assertion::{Assertion, Bound, ClassExpr};
use crate::check::{assign_subst, check_proof, signal_subst, wait_subst, CheckError};
use crate::entail::{equivalent_states, EntailError};
use crate::proof::{Proof, Rule};

/// Why [`prove`] refused or failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProveError<L> {
    /// `cert(S)` is false: Theorem 1's hypothesis fails (and by Theorem 2
    /// no completely invariant proof exists).
    NotCertified {
        /// Number of violated Figure 2 checks.
        violations: usize,
    },
    /// The chosen `l ⊕ g` exceeds `mod(S)`.
    BoundsExceedMod {
        /// The offending `l ⊕ g`.
        lg: Extended<L>,
    },
    /// The constructed proof failed the independent checker — this
    /// indicates a bug (it would be a counterexample to Theorem 1).
    CheckFailed(CheckError),
}

impl<L: fmt::Display> fmt::Display for ProveError<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProveError::NotCertified { violations } => {
                write!(f, "program is not certified ({violations} violations)")
            }
            ProveError::BoundsExceedMod { lg } => {
                write!(f, "l ⊕ g = {lg} is not below mod(S)")
            }
            ProveError::CheckFailed(e) => write!(f, "constructed proof failed to check: {e}"),
        }
    }
}

/// The policy assertion `I` corresponding to `sbind` (Definition 6).
pub fn policy_assertion<L: Lattice>(program: &Program, sbind: &StaticBinding<L>) -> Vec<Bound<L>> {
    program
        .symbols
        .iter()
        .map(|(id, _)| Bound::var_le(id, sbind.class(id).clone()))
        .collect()
}

/// Builds the Theorem 1 candidate proof without any validity checking.
///
/// For a certified program the result is a valid, completely invariant
/// proof; for an uncertified one it is a well-formed derivation tree that
/// the checker will reject at the violating node (the Theorem 2
/// contrapositive).
pub fn build_proof<L: Lattice>(
    program: &Program,
    sbind: &StaticBinding<L>,
    l: Extended<L>,
    g: Extended<L>,
) -> Proof<L> {
    let i = policy_assertion(program, sbind);
    let mut builder = Builder {
        sbind,
        i: &i,
        assertions: HashMap::new(),
    };
    builder.build(&program.body, &l, &g).0
}

/// Builds the Theorem 1 proof and validates everything.
///
/// # Errors
///
/// See [`ProveError`]. On success the returned proof:
/// - derives `{I, local ≤ l, global ≤ g} S {I, local ≤ l, global ≤ g'}`
///   with `g' ≤ g ⊕ l ⊕ flow(S)`,
/// - passes the independent [`check_proof`], and
/// - is completely invariant over `I` ([`is_completely_invariant`]).
///
/// # Examples
///
/// ```
/// use secflow_core::StaticBinding;
/// use secflow_lang::parse;
/// use secflow_lattice::{Extended, TwoPoint, TwoPointScheme};
/// use secflow_logic::prove;
///
/// let p = parse("var y : integer; sem : semaphore; begin wait(sem); y := 1 end").unwrap();
/// let sbind = StaticBinding::uniform(&p.symbols, &TwoPointScheme);
/// let proof = prove(&p, &sbind, Extended::Nil, Extended::Nil).unwrap();
/// assert!(proof.size() > 1);
///
/// // With sem High and y Low the program is not certified, so Theorem 1
/// // does not apply (and by Theorem 2 no completely invariant proof exists).
/// let bad = StaticBinding::uniform(&p.symbols, &TwoPointScheme)
///     .with(p.var("sem"), TwoPoint::High);
/// assert!(secflow_logic::prove(&p, &bad, Extended::Nil, Extended::Nil).is_err());
/// ```
pub fn prove<L: Lattice + fmt::Display>(
    program: &Program,
    sbind: &StaticBinding<L>,
    l: Extended<L>,
    g: Extended<L>,
) -> Result<Proof<L>, ProveError<L>> {
    let report = certify(program, sbind);
    if !report.certified() {
        return Err(ProveError::NotCertified {
            violations: report.violations.len(),
        });
    }
    let lg = l.join(&g);
    if !report.mod_class.bounds(&lg) {
        return Err(ProveError::BoundsExceedMod { lg });
    }
    let proof = build_proof(program, sbind, l, g);
    check_proof(&program.body, &proof).map_err(ProveError::CheckFailed)?;
    Ok(proof)
}

/// Checks Definition 7: every statement-level precondition in the proof
/// has `I` as its `V` part (with literal `local`/`global` bounds).
///
/// Statement-level triples are the outermost triples attached to each
/// program statement — a consequence wrapper and the axiom instance it
/// wraps belong to one statement, and it is the wrapper's precondition
/// that Definition 7 constrains.
pub fn is_completely_invariant<L: Lattice + fmt::Display>(
    proof: &Proof<L>,
    i: &[Bound<L>],
) -> Result<bool, EntailError> {
    let mut stack = vec![(proof, true)];
    while let Some((node, is_stmt_level)) = stack.pop() {
        if is_stmt_level {
            if !equivalent_states(&node.pre.state, i)? {
                return Ok(false);
            }
            let literal_ok = |b: &Option<ClassExpr<L>>| match b {
                None => false,
                Some(e) => e.eval_lit().is_some(),
            };
            if !literal_ok(&node.pre.local) || !literal_ok(&node.pre.global) {
                return Ok(false);
            }
        }
        match &node.rule {
            Rule::SkipAxiom | Rule::AssignAxiom | Rule::SignalAxiom | Rule::WaitAxiom => {}
            // The consequence wrapper and its wrapped derivation describe
            // the same statement: the inner node is not statement-level.
            Rule::Conseq { inner } => stack.push((inner, false)),
            Rule::If {
                then_proof,
                else_proof,
            } => {
                stack.push((then_proof, true));
                if let Some(e) = else_proof {
                    stack.push((e, true));
                }
            }
            Rule::While { body } => stack.push((body, true)),
            Rule::Seq { parts } => stack.extend(parts.iter().map(|p| (p, true))),
            Rule::Cobegin { branches } => stack.extend(branches.iter().map(|p| (p, true))),
        }
    }
    Ok(true)
}

/// The `(l, g)` of a policy assertion `{I, local ≤ l, global ≤ g}`.
type Context<L> = (Extended<L>, Extended<L>);

struct Builder<'a, L> {
    sbind: &'a StaticBinding<L>,
    i: &'a [Bound<L>],
    /// Each `{I, local ≤ l, global ≤ g}` made so far, by `(l, g)`: a
    /// proof names few of them, from nearly every node.
    assertions: HashMap<Context<L>, Arc<Assertion<L>>>,
}

impl<L: Lattice> Builder<'_, L> {
    /// The one shared `{I, local ≤ l, global ≤ g}`.
    fn assn(&mut self, l: &Extended<L>, g: &Extended<L>) -> Arc<Assertion<L>> {
        let i = self.i;
        self.assertions
            .entry((l.clone(), g.clone()))
            .or_insert_with(|| {
                Arc::new(Assertion::new(
                    i.to_vec(),
                    ClassExpr::lit(l.clone()),
                    ClassExpr::lit(g.clone()),
                ))
            })
            .clone()
    }

    /// Weakens `proof`'s postcondition to `{I, local ≤ l, global ≤ g*}`.
    fn weaken_post(&mut self, proof: Proof<L>, l: &Extended<L>, g_star: &Extended<L>) -> Proof<L> {
        let pre = proof.pre.clone();
        let post = self.assn(l, g_star);
        if proof.post == post {
            return proof;
        }
        Proof::new(
            pre,
            post,
            Rule::Conseq {
                inner: Box::new(proof),
            },
        )
    }

    /// Builds the proof for `stmt` from pre `{I, local ≤ l, global ≤ g}`,
    /// returning the proof and `flow(stmt)`.
    ///
    /// Invariant: the returned post is `{I, local ≤ l, global ≤ G}` where
    /// `G = g` when `flow(stmt) = nil` and `G = g ⊕ l ⊕ flow(stmt)`
    /// otherwise.
    fn build(&mut self, stmt: &Stmt, l: &Extended<L>, g: &Extended<L>) -> (Proof<L>, Extended<L>) {
        let pre = self.assn(l, g);
        match stmt {
            Stmt::Skip(_) => (Proof::new(pre.clone(), pre, Rule::SkipAxiom), Extended::Nil),

            Stmt::Assign { var, expr, .. } => {
                let post = self.assn(l, g);
                let ax_pre = post.subst(&assign_subst(*var, expr));
                let axiom = Proof::new(ax_pre, post.clone(), Rule::AssignAxiom);
                (
                    Proof::new(
                        pre,
                        post,
                        Rule::Conseq {
                            inner: Box::new(axiom),
                        },
                    ),
                    Extended::Nil,
                )
            }

            Stmt::Signal { sem, .. } => {
                let post = self.assn(l, g);
                let ax_pre = post.subst(&signal_subst(*sem));
                let axiom = Proof::new(ax_pre, post.clone(), Rule::SignalAxiom);
                (
                    Proof::new(
                        pre,
                        post,
                        Rule::Conseq {
                            inner: Box::new(axiom),
                        },
                    ),
                    Extended::Nil,
                )
            }

            Stmt::Wait { sem, .. } => {
                let flow = Extended::Elem(self.sbind.class(*sem).clone());
                let g_prime = g.join(l).join(&flow);
                let post = self.assn(l, &g_prime);
                let ax_pre = post.subst(&wait_subst(*sem));
                let axiom = Proof::new(ax_pre, post.clone(), Rule::WaitAxiom);
                (
                    Proof::new(
                        pre,
                        post,
                        Rule::Conseq {
                            inner: Box::new(axiom),
                        },
                    ),
                    flow,
                )
            }

            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let e_cls = Extended::Elem(self.sbind.expr_class(cond));
                let l_prime = l.join(&e_cls);
                let (p1, f1) = self.build(then_branch, &l_prime, g);
                let (p2, f2) = match else_branch {
                    Some(eb) => self.build(eb, &l_prime, g),
                    None => {
                        let inv = self.assn(&l_prime, g);
                        (Proof::new(inv.clone(), inv, Rule::SkipAxiom), Extended::Nil)
                    }
                };
                if f1.is_nil() && f2.is_nil() {
                    // flow(S) = nil: both branch posts are already {I,l',g}.
                    let post = self.assn(l, g);
                    (
                        Proof::new(
                            pre,
                            post,
                            Rule::If {
                                then_proof: Box::new(p1),
                                else_proof: Some(Box::new(p2)),
                            },
                        ),
                        Extended::Nil,
                    )
                } else {
                    // flow(S) = flow(S1) ⊕ flow(S2) ⊕ e̲.
                    let flow = f1.join(&f2).join(&e_cls);
                    let g_star = g.join(l).join(&flow);
                    let p1 = self.weaken_post(p1, &l_prime, &g_star);
                    let p2 = self.weaken_post(p2, &l_prime, &g_star);
                    let post = self.assn(l, &g_star);
                    (
                        Proof::new(
                            pre,
                            post,
                            Rule::If {
                                then_proof: Box::new(p1),
                                else_proof: Some(Box::new(p2)),
                            },
                        ),
                        flow,
                    )
                }
            }

            Stmt::While { cond, body, .. } => {
                let e_cls = Extended::Elem(self.sbind.expr_class(cond));
                let l_prime = l.join(&e_cls);
                // flow(S) = flow(S1) ⊕ e̲; the invariant global bound is
                // G_inv = g ⊕ l ⊕ flow(S), over which the body derivation
                // is invariant (its own flow is absorbed).
                let (_, body_flow) = mod_flow(body, self.sbind);
                let flow = body_flow.join(&e_cls);
                let g_inv = g.join(l).join(&flow);
                let (body_proof, _) = self.build(body, &l_prime, &g_inv);
                let inv_pre = self.assn(l, &g_inv);
                let post = self.assn(l, &g_inv);
                let while_node = Proof::new(
                    inv_pre,
                    post.clone(),
                    Rule::While {
                        body: Box::new(body_proof),
                    },
                );
                // Strengthen the precondition from {I,l,G_inv} to {I,l,g}.
                let wrapped = Proof::new(
                    pre,
                    post,
                    Rule::Conseq {
                        inner: Box::new(while_node),
                    },
                );
                (wrapped, flow)
            }

            Stmt::Seq { stmts, .. } => {
                let mut parts = Vec::with_capacity(stmts.len());
                let mut g_cur = g.clone();
                let mut flow = Extended::Nil;
                for s in stmts {
                    let (p, f) = self.build(s, l, &g_cur);
                    g_cur = match &p.post.global {
                        Some(e) => e.eval_lit().unwrap_or_else(|| g_cur.clone()),
                        None => g_cur.clone(),
                    };
                    flow = flow.join(&f);
                    parts.push(p);
                }
                let post = self.assn(l, &g_cur);
                (Proof::new(pre, post, Rule::Seq { parts }), flow)
            }

            Stmt::Cobegin { branches, .. } => {
                let built: Vec<(Proof<L>, Extended<L>)> =
                    branches.iter().map(|s| self.build(s, l, g)).collect();
                let flow = built.iter().fold(Extended::Nil, |acc, (_, f)| acc.join(f));
                if flow.is_nil() {
                    let post = self.assn(l, g);
                    let bs = built.into_iter().map(|(p, _)| p).collect();
                    (
                        Proof::new(pre, post, Rule::Cobegin { branches: bs }),
                        Extended::Nil,
                    )
                } else {
                    let g_star = g.join(l).join(&flow);
                    let bs = built
                        .into_iter()
                        .map(|(p, _)| self.weaken_post(p, l, &g_star))
                        .collect();
                    let post = self.assn(l, &g_star);
                    (Proof::new(pre, post, Rule::Cobegin { branches: bs }), flow)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_lang::parse;
    use secflow_lattice::{TwoPoint, TwoPointScheme};

    fn nil() -> Extended<TwoPoint> {
        Extended::Nil
    }

    fn uniform(p: &Program) -> StaticBinding<TwoPoint> {
        StaticBinding::uniform(&p.symbols, &TwoPointScheme)
    }

    #[test]
    fn proves_assignment() {
        let p = parse("var x, y : integer; y := x").unwrap();
        let proof = prove(&p, &uniform(&p), nil(), nil()).unwrap();
        let i = policy_assertion(&p, &uniform(&p));
        assert!(is_completely_invariant(&proof, &i).unwrap());
    }

    #[test]
    fn proves_the_wait_composition() {
        let p = parse("var y : integer; sem : semaphore; begin wait(sem); y := 1 end").unwrap();
        // All-Low: certified, proof exists.
        let proof = prove(&p, &uniform(&p), nil(), nil()).unwrap();
        check_proof(&p.body, &proof).unwrap();
        // High sem, Low y: not certified.
        let bad = uniform(&p).with(p.var("sem"), TwoPoint::High);
        assert!(matches!(
            prove(&p, &bad, nil(), nil()),
            Err(ProveError::NotCertified { .. })
        ));
    }

    #[test]
    fn rejected_program_candidate_proof_fails_the_checker() {
        // Theorem 2, contrapositively: for an uncertified program the
        // builder's candidate must NOT check.
        let p = parse("var x, y : integer; y := x").unwrap();
        let bad = uniform(&p).with(p.var("x"), TwoPoint::High);
        let candidate = build_proof(&p, &bad, nil(), nil());
        assert!(check_proof(&p.body, &candidate).is_err());
    }

    #[test]
    fn proves_loops_with_matching_classes() {
        let p = parse("var x, y : integer; while x # 0 do y := 1").unwrap();
        let sbind = uniform(&p)
            .with(p.var("x"), TwoPoint::High)
            .with(p.var("y"), TwoPoint::High);
        let proof = prove(&p, &sbind, nil(), nil()).unwrap();
        // The loop's flow shows up in the post: global ≤ High.
        let g = proof.post.global.as_ref().unwrap().eval_lit().unwrap();
        assert_eq!(g, Extended::Elem(TwoPoint::High));
    }

    #[test]
    fn proves_cobegin_with_interference_freedom() {
        let p = parse(
            "var x, y : integer; sem : semaphore;
             cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend",
        )
        .unwrap();
        let sbind = StaticBinding::constant(&p.symbols, &TwoPointScheme, TwoPoint::High);
        let proof = prove(&p, &sbind, nil(), nil()).unwrap();
        let i = policy_assertion(&p, &sbind);
        assert!(is_completely_invariant(&proof, &i).unwrap());
    }

    #[test]
    fn bounds_above_mod_are_rejected() {
        let p = parse("var x, y : integer; y := x").unwrap();
        // mod(S) = sbind(y) = Low; l = High exceeds it.
        let err = prove(&p, &uniform(&p), Extended::Elem(TwoPoint::High), nil()).unwrap_err();
        assert!(matches!(err, ProveError::BoundsExceedMod { .. }));
    }

    #[test]
    fn theorem1_post_bound_is_respected() {
        // Post global ≤ g ⊕ l ⊕ flow(S) per the theorem statement.
        let p = parse("var s : semaphore; wait(s)").unwrap();
        let sbind = uniform(&p).with(p.var("s"), TwoPoint::High);
        let proof = prove(&p, &sbind, nil(), nil()).unwrap();
        let g = proof.post.global.as_ref().unwrap().eval_lit().unwrap();
        assert_eq!(g, Extended::Elem(TwoPoint::High)); // = flow(S) = sbind(s)
    }

    #[test]
    fn one_armed_if_synthesizes_a_skip_branch() {
        let p = parse("var x, y : integer; if x = 0 then y := 1").unwrap();
        let sbind = StaticBinding::constant(&p.symbols, &TwoPointScheme, TwoPoint::High);
        let proof = prove(&p, &sbind, nil(), nil()).unwrap();
        match &proof.rule {
            Rule::If { else_proof, .. } => assert!(else_proof.is_some()),
            other => panic!("expected alternation at root, got {other:?}"),
        }
    }

    #[test]
    fn errors_render() {
        let e: ProveError<TwoPoint> = ProveError::NotCertified { violations: 3 };
        assert!(e.to_string().contains('3'));
        let e: ProveError<TwoPoint> = ProveError::BoundsExceedMod {
            lg: Extended::Elem(TwoPoint::High),
        };
        assert!(e.to_string().contains("High"));
    }
}
