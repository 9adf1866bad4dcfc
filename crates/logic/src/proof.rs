//! Proof trees for the flow logic (Figure 1).
//!
//! A [`Proof`] is an explicit derivation: each node records its
//! pre/post-assertions and the rule used, with premise sub-proofs as
//! children. Proofs are *data* — the independent [`crate::check`] module
//! re-derives every side condition, so a proof produced by any means
//! (including the Theorem-1 builder) carries no authority of its own.
//!
//! A node holds its assertions behind [`Arc`]s, so a proof whose nodes
//! repeat one assertion holds it once: the Theorem 1 builder makes each
//! distinct `{I, local ≤ l, global ≤ g}` once, and the certificate
//! decoder hands every node that names a table entry the same one. The
//! checker and the emitter use that identity only to skip repeated
//! work; equal assertions in separate allocations mean the same.

use std::fmt;
use std::sync::Arc;

use secflow_lattice::Lattice;

use crate::assertion::Assertion;
use crate::render::Named;

/// A flow-logic derivation of `{pre} S {post}`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Proof<L> {
    /// The precondition of the triple.
    pub pre: Arc<Assertion<L>>,
    /// The postcondition of the triple.
    pub post: Arc<Assertion<L>>,
    /// The final rule applied, with its premise sub-proofs.
    pub rule: Rule<L>,
}

/// The rules of Figure 1 (plus the structural `skip` axiom).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Rule<L> {
    /// `{P} skip {P}` — not in the paper's Figure 1 (the paper's language
    /// has no `skip`), but required for one-armed `if` and harmless: `skip`
    /// produces no flows.
    SkipAxiom,
    /// `{P[x̲ ← e̲ ⊕ local ⊕ global]} x := e {P}`
    AssignAxiom,
    /// `{P[sem̲ ← sem̲ ⊕ local ⊕ global]} signal(sem) {P}`
    SignalAxiom,
    /// `{P[sem̲ ← sem̲ ⊕ local ⊕ global, global ← sem̲ ⊕ local ⊕ global]}
    /// wait(sem) {P}`
    WaitAxiom,
    /// The alternation rule. A one-armed `if` may omit `else_proof`; the
    /// checker then validates the implicit `skip` branch.
    If {
        /// Derivation for the `then` branch.
        then_proof: Box<Proof<L>>,
        /// Derivation for the `else` branch (over `skip` when the program
        /// statement has no `else`).
        else_proof: Option<Box<Proof<L>>>,
    },
    /// The iteration rule; the premise derivation must be invariant.
    While {
        /// Derivation for the loop body.
        body: Box<Proof<L>>,
    },
    /// The composition rule: premises chain pre/post.
    Seq {
        /// One derivation per component statement, in order.
        parts: Vec<Proof<L>>,
    },
    /// The concurrent-execution rule: premises must be interference-free.
    Cobegin {
        /// One derivation per process.
        branches: Vec<Proof<L>>,
    },
    /// The consequence rule: `{P'} S {Q'}, P |- P', Q' |- Q ⟹ {P} S {Q}`.
    Conseq {
        /// The strengthened/weakened premise derivation.
        inner: Box<Proof<L>>,
    },
}

impl<L: Lattice> Proof<L> {
    /// Creates a proof node. Each assertion is an owned one or a shared
    /// [`Arc`] that other nodes name too.
    pub fn new(
        pre: impl Into<Arc<Assertion<L>>>,
        post: impl Into<Arc<Assertion<L>>>,
        rule: Rule<L>,
    ) -> Self {
        Proof {
            pre: pre.into(),
            post: post.into(),
            rule,
        }
    }

    /// Number of nodes in the derivation.
    pub fn size(&self) -> usize {
        1 + match &self.rule {
            Rule::SkipAxiom | Rule::AssignAxiom | Rule::SignalAxiom | Rule::WaitAxiom => 0,
            Rule::If {
                then_proof,
                else_proof,
            } => then_proof.size() + else_proof.as_ref().map_or(0, |p| p.size()),
            Rule::While { body } => body.size(),
            Rule::Seq { parts } => parts.iter().map(Proof::size).sum(),
            Rule::Cobegin { branches } => branches.iter().map(Proof::size).sum(),
            Rule::Conseq { inner } => inner.size(),
        }
    }

    /// Calls `f` on every node of the derivation (pre-order).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Proof<L>)) {
        f(self);
        match &self.rule {
            Rule::SkipAxiom | Rule::AssignAxiom | Rule::SignalAxiom | Rule::WaitAxiom => {}
            Rule::If {
                then_proof,
                else_proof,
            } => {
                then_proof.walk(f);
                if let Some(e) = else_proof {
                    e.walk(f);
                }
            }
            Rule::While { body } => body.walk(f),
            Rule::Seq { parts } => parts.iter().for_each(|p| p.walk(f)),
            Rule::Cobegin { branches } => branches.iter().for_each(|p| p.walk(f)),
            Rule::Conseq { inner } => inner.walk(f),
        }
    }

    /// The name of the final rule.
    pub fn rule_name(&self) -> &'static str {
        match &self.rule {
            Rule::SkipAxiom => "skip axiom",
            Rule::AssignAxiom => "assignment axiom",
            Rule::SignalAxiom => "signal axiom",
            Rule::WaitAxiom => "wait axiom",
            Rule::If { .. } => "alternation rule",
            Rule::While { .. } => "iteration rule",
            Rule::Seq { .. } => "composition rule",
            Rule::Cobegin { .. } => "concurrent-execution rule",
            Rule::Conseq { .. } => "consequence rule",
        }
    }
}

impl<L: Lattice + fmt::Display> fmt::Display for Proof<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Named(self, None).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assertion::Assertion;
    use secflow_lattice::TwoPoint;

    fn trivial() -> Proof<TwoPoint> {
        Proof::new(
            Assertion::state_only(vec![]),
            Assertion::state_only(vec![]),
            Rule::SkipAxiom,
        )
    }

    #[test]
    fn size_counts_nodes() {
        let leaf = trivial();
        let seq = Proof::new(
            Assertion::state_only(vec![]),
            Assertion::state_only(vec![]),
            Rule::Seq {
                parts: vec![leaf.clone(), leaf.clone()],
            },
        );
        assert_eq!(seq.size(), 3);
        let wrapped = Proof::new(
            Assertion::state_only(vec![]),
            Assertion::state_only(vec![]),
            Rule::Conseq {
                inner: Box::new(seq),
            },
        );
        assert_eq!(wrapped.size(), 4);
    }

    #[test]
    fn walk_visits_every_node() {
        let leaf = trivial();
        let cob = Proof::new(
            Assertion::state_only(vec![]),
            Assertion::state_only(vec![]),
            Rule::Cobegin {
                branches: vec![leaf.clone(), leaf.clone(), leaf],
            },
        );
        let mut n = 0;
        cob.walk(&mut |_| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn display_shows_rule_names() {
        let s = trivial().to_string();
        assert!(s.contains("skip axiom"), "{s}");
        assert!(s.contains("pre:"), "{s}");
    }
}
