//! `ClassExpr::join` merges two sorted atom lists and `ClassExpr::subst`
//! sorts what it collects; both must agree with the plain set semantics
//! of `⊕` (the union of the atoms, the join of the literals), checked
//! here against a `BTreeSet` reference.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use secflow_lang::VarId;
use secflow_lattice::{Extended, Lattice, Linear};
use secflow_logic::{Atom, ClassExpr};

type L = Linear;

/// Ten variables plus `local` and `global`.
fn atom(i: u8) -> Atom {
    match i {
        10 => Atom::Local,
        11 => Atom::Global,
        v => Atom::VarClass(VarId(v.into())),
    }
}

fn lit(i: u8) -> Extended<L> {
    match i {
        0 => Extended::Nil,
        c => Extended::Elem(Linear(u32::from(c) - 1)),
    }
}

/// A random expression, with the atom set it must hold.
fn arb_expr() -> impl Strategy<Value = (ClassExpr<L>, BTreeSet<Atom>)> {
    (proptest::collection::vec(0u8..12, 0..12), 0u8..4).prop_map(|(picks, l)| {
        let set: BTreeSet<Atom> = picks.into_iter().map(atom).collect();
        let e = ClassExpr::from_sorted(set.iter().copied().collect(), lit(l));
        (e, set)
    })
}

fn atoms_of(e: &ClassExpr<L>) -> BTreeSet<Atom> {
    e.atoms().iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `join` is the union of the atoms and the join of the literals,
    /// in the sorted, distinct normal form.
    #[test]
    fn join_is_set_union(a in arb_expr(), b in arb_expr()) {
        let ((ea, sa), (eb, sb)) = (a, b);
        let joined = ea.join(&eb);
        let union: Vec<Atom> = sa.union(&sb).copied().collect();
        prop_assert_eq!(joined.atoms(), union.as_slice());
        prop_assert_eq!(joined.literal(), &ea.literal().join(eb.literal()));
        prop_assert_eq!(joined, eb.join(&ea));
    }

    /// `subst` replaces each mapped atom by its image as it stood before
    /// the substitution and keeps every other atom.
    #[test]
    fn subst_replaces_simultaneously(
        e in arb_expr(),
        keys in proptest::collection::vec(0u8..12, 0..4),
        images in proptest::collection::vec(arb_expr(), 4..5),
    ) {
        let (e, set) = e;
        let map: BTreeMap<Atom, ClassExpr<L>> = keys
            .into_iter()
            .zip(images)
            .map(|(k, (image, _))| (atom(k), image))
            .collect();
        let mut want = BTreeSet::new();
        let mut want_lit = e.literal().clone();
        for a in &set {
            match map.get(a) {
                Some(image) => {
                    want.extend(atoms_of(image));
                    want_lit = want_lit.join(image.literal());
                }
                None => {
                    want.insert(*a);
                }
            }
        }
        let got = e.subst(&map);
        prop_assert_eq!(atoms_of(&got), want.clone());
        prop_assert_eq!(got.atoms().len(), want.len(), "atoms stay distinct");
        prop_assert_eq!(got.literal(), &want_lit);
    }
}
