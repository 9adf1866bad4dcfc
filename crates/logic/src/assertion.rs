//! Flow assertions: the `{V, local ≤ l, global ≤ g}` formulas of §3.1.
//!
//! Assertions in the flow logic bound *classifications*, not values. A
//! class expression denotes an element of the extended lattice built from
//! the current classes of variables (`v̲`), the certification variables
//! `local` and `global`, literal classes, and joins (`⊕`). An assertion is
//! a conjunction of upper bounds `lhs ≤ rhs`, partitioned per the paper's
//! `{V, L, G}` notation into state bounds plus the distinguished bounds on
//! `local` and `global` (either of which may be absent = unconstrained).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use secflow_lang::{Expr, VarId};
use secflow_lattice::{Extended, Lattice};

use crate::render::Named;

/// An atom a class expression can mention.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Atom {
    /// The current class `v̲` of a program variable.
    VarClass(VarId),
    /// The certification variable `local` (local indirect flows).
    Local,
    /// The certification variable `global` (global indirect flows).
    Global,
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::VarClass(v) => write!(f, "class(v{})", v.0),
            Atom::Local => write!(f, "local"),
            Atom::Global => write!(f, "global"),
        }
    }
}

/// A class expression: a join of atoms and literal classes.
///
/// Kept in a flattened normal form: a set of atoms plus one literal
/// (`nil` when no literal contributes). This makes syntactic operations
/// (substitution, evaluation, display) straightforward and canonical.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ClassExpr<L> {
    /// Distinct atoms joined into the expression.
    atoms: Vec<Atom>,
    /// The literal part (join identity: `nil`).
    lit: Extended<L>,
}

impl<L: Lattice> ClassExpr<L> {
    /// The literal expression `c`.
    pub fn lit(c: Extended<L>) -> Self {
        ClassExpr {
            atoms: Vec::new(),
            lit: c,
        }
    }

    /// The join of `atoms` and the literal `lit`, built as it stands.
    /// `atoms` must already be sorted and distinct, the normal form, so
    /// no join, copy or sort is needed; it panics if they are not.
    pub fn from_sorted(atoms: Vec<Atom>, lit: Extended<L>) -> Self {
        assert!(
            atoms.windows(2).all(|w| w[0] < w[1]),
            "atoms must be sorted and distinct"
        );
        ClassExpr { atoms, lit }
    }

    /// The literal `nil` (the bottom of the extended scheme).
    pub fn nil() -> Self {
        Self::lit(Extended::Nil)
    }

    /// The single atom `a`.
    pub fn atom(a: Atom) -> Self {
        ClassExpr {
            atoms: vec![a],
            lit: Extended::Nil,
        }
    }

    /// The class `v̲` of a variable.
    pub fn var(v: VarId) -> Self {
        Self::atom(Atom::VarClass(v))
    }

    /// The certification variable `local`.
    pub fn local() -> Self {
        Self::atom(Atom::Local)
    }

    /// The certification variable `global`.
    pub fn global() -> Self {
        Self::atom(Atom::Global)
    }

    /// The join of `atoms`, in any order and with repeats, and `lit`.
    fn normalized(mut atoms: Vec<Atom>, lit: Extended<L>) -> Self {
        atoms.sort_unstable();
        atoms.dedup();
        ClassExpr { atoms, lit }
    }

    /// The class `e̲` of an expression: the join of the classes of its
    /// variables (constants contribute the join identity).
    pub fn of_expr(expr: &Expr) -> Self {
        let mut atoms = Vec::new();
        expr.for_each_var(&mut |v| atoms.push(Atom::VarClass(v)));
        Self::normalized(atoms, Extended::Nil)
    }

    /// Join (`⊕`) of two class expressions: one merge of the two sorted
    /// atom lists.
    pub fn join(&self, other: &Self) -> Self {
        let (a, b) = (&self.atoms, &other.atoms);
        let mut atoms = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    atoms.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    atoms.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    atoms.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        atoms.extend_from_slice(&a[i..]);
        atoms.extend_from_slice(&b[j..]);
        ClassExpr {
            atoms,
            lit: self.lit.join(&other.lit),
        }
    }

    /// The distinct atoms of the expression.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The literal part of the expression.
    pub fn literal(&self) -> &Extended<L> {
        &self.lit
    }

    /// Evaluates a fully-literal expression; `None` if any atom remains.
    pub fn eval_lit(&self) -> Option<Extended<L>> {
        self.atoms.is_empty().then(|| self.lit.clone())
    }

    /// Simultaneous substitution of atoms by class expressions.
    ///
    /// Every atom in `map`'s domain is replaced by its image *as it stood
    /// before the substitution* (textual simultaneous substitution, as the
    /// paper's `P[x ← e]` notation requires for the `wait` axiom, which
    /// substitutes `sem̲` and `global` at once).
    pub fn subst(&self, map: &BTreeMap<Atom, ClassExpr<L>>) -> Self {
        let mut atoms = Vec::with_capacity(self.atoms.len());
        let mut lit = self.lit.clone();
        for a in &self.atoms {
            match map.get(a) {
                Some(repl) => {
                    atoms.extend_from_slice(&repl.atoms);
                    lit = lit.join(&repl.lit);
                }
                None => atoms.push(*a),
            }
        }
        Self::normalized(atoms, lit)
    }

    /// `true` iff the expression mentions `a`.
    pub fn mentions(&self, a: Atom) -> bool {
        self.atoms.contains(&a)
    }
}

impl<L: Lattice + fmt::Display> fmt::Display for ClassExpr<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Named(self, None).fmt(f)
    }
}

/// One conjunct: `lhs ≤ rhs`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Bound<L> {
    /// The bounded class expression.
    pub lhs: ClassExpr<L>,
    /// The bounding class expression (literal in every proof this crate
    /// produces or checks).
    pub rhs: ClassExpr<L>,
}

impl<L: Lattice> Bound<L> {
    /// Creates `lhs ≤ rhs`.
    pub fn new(lhs: ClassExpr<L>, rhs: ClassExpr<L>) -> Self {
        Bound { lhs, rhs }
    }

    /// `v̲ ≤ c` — the shape of policy-assertion conjuncts.
    pub fn var_le(v: VarId, c: L) -> Self {
        Bound::new(ClassExpr::var(v), ClassExpr::lit(Extended::Elem(c)))
    }

    /// Applies a simultaneous substitution to both sides.
    pub fn subst(&self, map: &BTreeMap<Atom, ClassExpr<L>>) -> Self {
        Bound {
            lhs: self.lhs.subst(map),
            rhs: self.rhs.subst(map),
        }
    }
}

impl<L: Lattice + fmt::Display> fmt::Display for Bound<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Named(self, None).fmt(f)
    }
}

/// A partitioned flow assertion `{V, local ≤ l, global ≤ g}`.
///
/// `state` is the `V` part (it may mention `local`/`global` on bound
/// left-hand sides — substitution instances of the axioms do). The `local`
/// and `global` fields are the distinguished bounds on the certification
/// variables; `None` means unconstrained.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Assertion<L> {
    /// The `V` conjuncts.
    pub state: Vec<Bound<L>>,
    /// `l` in `local ≤ l` (`None` = no bound).
    pub local: Option<ClassExpr<L>>,
    /// `g` in `global ≤ g` (`None` = no bound).
    pub global: Option<ClassExpr<L>>,
}

impl<L: Lattice> Assertion<L> {
    /// Creates a fully partitioned assertion.
    pub fn new(state: Vec<Bound<L>>, local: ClassExpr<L>, global: ClassExpr<L>) -> Self {
        Assertion {
            state,
            local: Some(local),
            global: Some(global),
        }
    }

    /// `{V}` with unconstrained `local`/`global`.
    pub fn state_only(state: Vec<Bound<L>>) -> Self {
        Assertion {
            state,
            local: None,
            global: None,
        }
    }

    /// Replaces the `local` bound, keeping everything else.
    pub fn with_local(mut self, l: ClassExpr<L>) -> Self {
        self.local = Some(l);
        self
    }

    /// Replaces the `global` bound, keeping everything else.
    pub fn with_global(mut self, g: ClassExpr<L>) -> Self {
        self.global = Some(g);
        self
    }

    /// Textual simultaneous substitution over the whole assertion.
    ///
    /// Substituting for `local`/`global` converts the corresponding
    /// distinguished bound into a state conjunct (the variable is no
    /// longer constrained by the result), exactly matching the paper's
    /// `wait` axiom `P[sem ← …, global ← …]`.
    pub fn subst(&self, map: &BTreeMap<Atom, ClassExpr<L>>) -> Self {
        let mut state: Vec<Bound<L>> = self.state.iter().map(|b| b.subst(map)).collect();
        let mut local = self.local.clone();
        let mut global = self.global.clone();
        if let Some(repl) = map.get(&Atom::Local) {
            if let Some(l) = local.take() {
                state.push(Bound::new(repl.clone(), l));
            }
        }
        if let Some(repl) = map.get(&Atom::Global) {
            if let Some(g) = global.take() {
                state.push(Bound::new(repl.clone(), g));
            }
        }
        Assertion {
            state,
            local,
            global,
        }
    }
}

impl<L: Lattice + fmt::Display> fmt::Display for Assertion<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Named(self, None).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_lattice::TwoPoint;

    type E = ClassExpr<TwoPoint>;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn join_flattens_and_dedups() {
        let e = E::var(v(0)).join(&E::var(v(1))).join(&E::var(v(0)));
        assert_eq!(e.atoms().len(), 2);
        assert_eq!(*e.literal(), Extended::Nil);
    }

    #[test]
    fn join_merges_literals() {
        let e = E::lit(Extended::Elem(TwoPoint::Low)).join(&E::lit(Extended::Elem(TwoPoint::High)));
        assert_eq!(e.eval_lit(), Some(Extended::Elem(TwoPoint::High)));
    }

    #[test]
    fn eval_lit_fails_on_atoms() {
        let e = E::var(v(0)).join(&E::lit(Extended::Elem(TwoPoint::Low)));
        assert_eq!(e.eval_lit(), None);
    }

    #[test]
    fn subst_is_simultaneous() {
        // [x ← y ⊕ x] applied to x ⊕ y: the replacement's `x` must not be
        // re-substituted.
        let mut map = BTreeMap::new();
        map.insert(Atom::VarClass(v(0)), E::var(v(1)).join(&E::var(v(0))));
        let e = E::var(v(0)).join(&E::var(v(1)));
        let r = e.subst(&map);
        assert_eq!(r.atoms().len(), 2); // {x, y}
        assert!(r.mentions(Atom::VarClass(v(0))));
    }

    #[test]
    fn wait_style_subst_moves_global_bound_into_state() {
        // P = {x̲ ≤ High, local ≤ Low, global ≤ Low};
        // P[sem ← J, global ← J] where J = sem̲ ⊕ local ⊕ global.
        let sem = v(5);
        let j = E::var(sem).join(&E::local()).join(&E::global());
        let p = Assertion::new(
            vec![Bound::var_le(v(0), TwoPoint::High)],
            E::lit(Extended::Elem(TwoPoint::Low)),
            E::lit(Extended::Elem(TwoPoint::Low)),
        );
        let mut map = BTreeMap::new();
        map.insert(Atom::VarClass(sem), j.clone());
        map.insert(Atom::Global, j.clone());
        let q = p.subst(&map);
        assert!(q.global.is_none(), "global becomes unconstrained");
        assert!(q.local.is_some(), "local untouched");
        // The former global bound is now the state conjunct J ≤ Low.
        assert_eq!(q.state.len(), 2);
        assert_eq!(q.state[1].lhs, j);
    }

    #[test]
    fn of_expr_collects_variable_atoms() {
        use secflow_lang::builder::{e, ProgramBuilder};
        let mut b = ProgramBuilder::new();
        let x = b.data("x");
        let y = b.data("y");
        let expr = e::add(e::var(x), e::mul(e::konst(3), e::var(y)));
        let ce = E::of_expr(&expr);
        assert!(ce.mentions(Atom::VarClass(x)));
        assert!(ce.mentions(Atom::VarClass(y)));
        assert_eq!(*ce.literal(), Extended::Nil);
    }

    #[test]
    fn display_renders_partitioned_form() {
        let a = Assertion::new(
            vec![Bound::var_le(v(0), TwoPoint::High)],
            E::lit(Extended::Elem(TwoPoint::Low)),
            E::lit(Extended::Nil),
        );
        let s = a.to_string();
        assert!(s.contains("class(v0) ≤ High"), "{s}");
        assert!(s.contains("local ≤ Low"), "{s}");
        assert!(s.contains("global ≤ nil"), "{s}");
    }
}
