//! The entailment decision procedure `P |- Q` (§3.1: "using lattice theory
//! and propositional logic Q can be derived from P").
//!
//! The flow logic only ever *upper-bounds* classifications: every conjunct
//! has the shape `join(atoms, literal) ≤ bound`. Over such formulas,
//! entailment has a sound and complete decision procedure:
//!
//! 1. decompose each premise conjunct `a1 ⊕ … ⊕ ak ⊕ c ≤ r` (with `r`
//!    literal) into atomic bounds `ai ≤ r`, and note premise
//!    unsatisfiability when `c ≰ r`;
//! 2. for each atom, take the meet of its atomic bounds — this is the
//!    largest value the atom can take in any model of `P` (and it is
//!    attained: assigning every atom its meet-of-bounds satisfies `P`);
//! 3. `P |- lhs ≤ rhs` iff the premise is unsatisfiable or
//!    `eval(lhs[atom ↦ meet-of-bounds]) ≤ eval(rhs)`.
//!
//! Completeness rests on step 2's attainability: if the check fails there
//! is a concrete information state satisfying `P` but not `Q`.

use secflow_lattice::{Extended, Lattice};

use crate::assertion::{Assertion, Atom, Bound, ClassExpr};

/// Why entailment could not be decided.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EntailError {
    /// A premise or goal bound has a non-literal right-hand side, which
    /// the restricted proof forms never produce.
    NonLiteralRhs(String),
}

impl std::fmt::Display for EntailError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntailError::NonLiteralRhs(b) => {
                write!(f, "bound `{b}` has a non-literal right-hand side")
            }
        }
    }
}

impl std::error::Error for EntailError {}

/// The per-atom upper bounds derivable from an assertion.
#[derive(Clone, Debug)]
pub struct UpperBounds<L> {
    /// The meet of each bounded atom's bounds, sorted by atom.
    bounds: Vec<(Atom, Extended<L>)>,
    unsat: bool,
}

impl<L: Lattice + std::fmt::Display> UpperBounds<L> {
    /// Derives the upper-bound environment of `p`.
    pub fn of(p: &Assertion<L>) -> Result<Self, EntailError> {
        let mut env = UpperBounds {
            bounds: Vec::with_capacity(p.state.len() + 2),
            unsat: false,
        };
        if let Some(l) = &p.local {
            env.absorb(&Bound::new(ClassExpr::local(), l.clone()))?;
        }
        if let Some(g) = &p.global {
            env.absorb(&Bound::new(ClassExpr::global(), g.clone()))?;
        }
        for b in &p.state {
            env.absorb(b)?;
        }
        // A policy assertion bounds its variables in order, so the
        // stable sort meets few runs.
        env.bounds.sort_by_key(|&(a, _)| a);
        env.bounds.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = kept.1.meet(&later.1);
            }
            same
        });
        Ok(env)
    }

    fn absorb(&mut self, bound: &Bound<L>) -> Result<(), EntailError> {
        let r = literal_rhs(bound)?;
        if !bound.lhs.literal().leq(&r) {
            // A literal component exceeds the bound: P is unsatisfiable
            // (it asserts e.g. High ≤ Low), so it entails everything.
            self.unsat = true;
        }
        self.bounds
            .extend(bound.lhs.atoms().iter().map(|&a| (a, r.clone())));
        Ok(())
    }

    /// `true` iff the originating assertion has no model.
    pub fn unsatisfiable(&self) -> bool {
        self.unsat
    }

    /// The tightest derivable bound on `a`, if any.
    pub fn bound(&self, a: Atom) -> Option<&Extended<L>> {
        let i = self.bounds.binary_search_by_key(&a, |&(b, _)| b).ok()?;
        Some(&self.bounds[i].1)
    }
}

/// The right-hand side of `bound` as a literal: the procedure decides
/// only bounds whose right-hand side is one.
fn literal_rhs<L: Lattice + std::fmt::Display>(
    bound: &Bound<L>,
) -> Result<Extended<L>, EntailError> {
    bound
        .rhs
        .eval_lit()
        .ok_or_else(|| EntailError::NonLiteralRhs(bound.to_string()))
}

/// Decides `p |- bound`.
pub fn entails_bound<L: Lattice + std::fmt::Display>(
    p: &Assertion<L>,
    bound: &Bound<L>,
) -> Result<bool, EntailError> {
    entails_bound_env(&[&UpperBounds::of(p)?], bound)
}

/// Decides `bound` against the conjunction of the assertions whose
/// environments, each built once by [`UpperBounds::of`], are `envs`: in
/// the conjunction an atom is bounded by the meet of its bounds, and no
/// model exists if one conjunct has none.
pub(crate) fn entails_bound_env<L: Lattice + std::fmt::Display>(
    envs: &[&UpperBounds<L>],
    bound: &Bound<L>,
) -> Result<bool, EntailError> {
    if envs.iter().any(|env| env.unsatisfiable()) {
        return Ok(true);
    }
    let rhs = literal_rhs(bound)?;
    let mut sup = bound.lhs.literal().clone();
    for &a in bound.lhs.atoms() {
        let mut bounds = envs.iter().filter_map(|env| env.bound(a));
        let Some(first) = bounds.next() else {
            return Ok(false); // an unbounded atom can exceed any literal bound
        };
        sup = sup.join(&bounds.fold(first.clone(), |m, b| m.meet(b)));
    }
    Ok(sup.leq(&rhs))
}

/// Decides `p |- q` for whole assertions (every conjunct of `q`).
pub fn entails<L: Lattice + std::fmt::Display>(
    p: &Assertion<L>,
    q: &Assertion<L>,
) -> Result<bool, EntailError> {
    entails_env(&UpperBounds::of(p)?, q)
}

/// Decides every conjunct of `q` against an environment built once by
/// [`UpperBounds::of`].
pub(crate) fn entails_env<L: Lattice + std::fmt::Display>(
    env: &UpperBounds<L>,
    q: &Assertion<L>,
) -> Result<bool, EntailError> {
    if env.unsatisfiable() {
        return Ok(true);
    }
    for b in &q.state {
        if !entails_bound_env(&[env], b)? {
            return Ok(false);
        }
    }
    if let Some(l) = &q.local {
        if !entails_bound_env(&[env], &Bound::new(ClassExpr::local(), l.clone()))? {
            return Ok(false);
        }
    }
    if let Some(g) = &q.global {
        if !entails_bound_env(&[env], &Bound::new(ClassExpr::global(), g.clone()))? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Decides mutual entailment (logical equivalence) of two assertions.
pub fn equivalent<L: Lattice + std::fmt::Display>(
    p: &Assertion<L>,
    q: &Assertion<L>,
) -> Result<bool, EntailError> {
    Ok(entails(p, q)? && entails(q, p)?)
}

/// Decides the equivalence of `{a}` and `{b}`, two conjunctions of state
/// bounds. Equal lists are equivalent once their environment builds, that
/// is once every right-hand side is a literal, so they are decided
/// without building either assertion.
pub(crate) fn equivalent_states<L: Lattice + std::fmt::Display>(
    a: &[Bound<L>],
    b: &[Bound<L>],
) -> Result<bool, EntailError> {
    if a == b {
        return a
            .iter()
            .try_for_each(|b| literal_rhs(b).map(drop))
            .map(|()| true);
    }
    equivalent(
        &Assertion::state_only(a.to_vec()),
        &Assertion::state_only(b.to_vec()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_lang::VarId;
    use secflow_lattice::{Linear, TwoPoint};

    type E = ClassExpr<TwoPoint>;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn hi() -> Extended<TwoPoint> {
        Extended::Elem(TwoPoint::High)
    }

    fn lo() -> Extended<TwoPoint> {
        Extended::Elem(TwoPoint::Low)
    }

    fn policy_two() -> Assertion<TwoPoint> {
        // {x̲ ≤ High, y̲ ≤ Low, local ≤ Low, global ≤ Low}
        Assertion::new(
            vec![
                Bound::var_le(v(0), TwoPoint::High),
                Bound::var_le(v(1), TwoPoint::Low),
            ],
            E::lit(lo()),
            E::lit(lo()),
        )
    }

    #[test]
    fn entails_its_own_conjuncts() {
        let p = policy_two();
        assert!(entails(&p, &p).unwrap());
        assert!(entails_bound(&p, &Bound::var_le(v(0), TwoPoint::High)).unwrap());
        assert!(entails_bound(&p, &Bound::var_le(v(1), TwoPoint::Low)).unwrap());
    }

    #[test]
    fn does_not_entail_tighter_bounds() {
        let p = policy_two();
        assert!(!entails_bound(&p, &Bound::var_le(v(0), TwoPoint::Low)).unwrap());
    }

    #[test]
    fn entails_weaker_bounds() {
        let p = policy_two();
        assert!(entails_bound(&p, &Bound::var_le(v(1), TwoPoint::High)).unwrap());
    }

    #[test]
    fn joins_on_lhs_use_joined_sup() {
        let p = policy_two();
        // x̲ ⊕ y̲ ≤ High holds; ≤ Low does not (x̲ can be High).
        let join = E::var(v(0)).join(&E::var(v(1)));
        assert!(entails_bound(&p, &Bound::new(join.clone(), E::lit(hi()))).unwrap());
        assert!(!entails_bound(&p, &Bound::new(join, E::lit(lo()))).unwrap());
    }

    #[test]
    fn local_and_global_atoms_resolve_via_partition() {
        let p = policy_two();
        // y̲ ⊕ local ⊕ global ≤ Low holds because all three are ≤ Low.
        let lhs = E::var(v(1)).join(&E::local()).join(&E::global());
        assert!(entails_bound(&p, &Bound::new(lhs, E::lit(lo()))).unwrap());
    }

    #[test]
    fn unbounded_atom_blocks_entailment() {
        let p = Assertion::state_only(vec![Bound::var_le(v(0), TwoPoint::High)]);
        // local is unconstrained: local ≤ High is not derivable.
        assert!(!entails_bound(&p, &Bound::new(E::local(), E::lit(hi()))).unwrap());
    }

    #[test]
    fn unsatisfiable_premise_entails_everything() {
        // {High ≤ Low} |- anything.
        let p = Assertion::state_only(vec![Bound::new(E::lit(hi()), E::lit(lo()))]);
        assert!(entails_bound(&p, &Bound::var_le(v(9), TwoPoint::Low)).unwrap());
    }

    #[test]
    fn multiple_bounds_on_one_atom_meet() {
        // {x̲ ≤ L2, x̲ ≤ L1} |- x̲ ≤ L1, not |- x̲ ≤ L0.
        let p = Assertion::state_only(vec![
            Bound::var_le(v(0), Linear(2)),
            Bound::var_le(v(0), Linear(1)),
        ]);
        assert!(entails_bound(&p, &Bound::var_le(v(0), Linear(1))).unwrap());
        assert!(!entails_bound(&p, &Bound::var_le(v(0), Linear(0))).unwrap());
    }

    #[test]
    fn equivalence_is_mutual_entailment() {
        let p = policy_two();
        // Same content, different conjunct order.
        let q = Assertion::new(
            vec![
                Bound::var_le(v(1), TwoPoint::Low),
                Bound::var_le(v(0), TwoPoint::High),
            ],
            E::lit(lo()),
            E::lit(lo()),
        );
        assert!(equivalent(&p, &q).unwrap());
        // Tightening a bound breaks equivalence one way.
        let tight = Assertion::new(
            vec![
                Bound::var_le(v(0), TwoPoint::Low),
                Bound::var_le(v(1), TwoPoint::Low),
            ],
            E::lit(lo()),
            E::lit(lo()),
        );
        assert!(entails(&tight, &p).unwrap());
        assert!(!entails(&p, &tight).unwrap());
    }

    #[test]
    fn missing_local_bound_entails_only_unbound_goals() {
        let p = Assertion::state_only(vec![Bound::var_le(v(0), TwoPoint::Low)]);
        let with_local = Assertion::state_only(vec![]).with_local(E::lit(lo()));
        assert!(!entails(&p, &with_local).unwrap());
        // Conversely a constrained P entails an unconstrained Q.
        let q = Assertion::state_only(vec![]);
        assert!(entails(&policy_two(), &q).unwrap());
    }

    #[test]
    fn non_literal_rhs_is_an_error() {
        let p = policy_two();
        let bad = Bound::new(E::var(v(0)), E::var(v(1)));
        assert!(matches!(
            entails_bound(&p, &bad),
            Err(EntailError::NonLiteralRhs(_))
        ));
    }

    #[test]
    fn nil_lhs_is_below_everything() {
        let p = Assertion::state_only(vec![]);
        assert!(entails_bound(&p, &Bound::new(E::nil(), E::lit(lo()))).unwrap());
        assert!(entails_bound(&p, &Bound::new(E::nil(), E::lit(Extended::Nil))).unwrap());
    }
}
