//! Experiments E5/E6: Theorems 1 and 2, property-tested over random
//! programs, bindings and lattices.
//!
//! - **Theorem 1** (consistency): `cert(S)` ⟹ the constructive prover
//!   yields a proof that the independent checker accepts, that is
//!   completely invariant (Definition 7), and that satisfies the
//!   Appendix Lemma bounds.
//! - **Theorem 2** (contrapositive): ¬`cert(S)` ⟹ the canonical
//!   completely-invariant candidate fails the checker (if it passed, a
//!   completely invariant proof would exist, contradicting Theorem 2).
//!
//! Together these give `cert(S) ⟺ checker accepts the candidate` across
//! the whole random corpus.

use proptest::prelude::*;

use secflow::cfm::{certify, mod_flow, StaticBinding};
use secflow::lattice::{Extended, Lattice, LinearScheme, TwoPoint, TwoPointScheme};
use secflow::logic::{
    build_proof, check_lemma, check_proof, is_completely_invariant, policy_assertion, prove, Proof,
    ProveError, Rule,
};
use secflow::workload::{generate, random_binding, GenConfig};

fn gen_cfg(target: usize, sems: usize) -> GenConfig {
    GenConfig {
        target_stmts: target,
        max_depth: 5,
        n_vars: 4,
        n_sems: sems,
        bounded_loops: true,
    }
}

/// A copy of `proof` in which every node's `pre` and `post` is an
/// allocation of its own, so no two references share an assertion.
fn unshared<L: Lattice>(proof: &Proof<L>) -> Proof<L> {
    let boxed = |p: &Proof<L>| Box::new(unshared(p));
    let rule = match &proof.rule {
        Rule::SkipAxiom => Rule::SkipAxiom,
        Rule::AssignAxiom => Rule::AssignAxiom,
        Rule::SignalAxiom => Rule::SignalAxiom,
        Rule::WaitAxiom => Rule::WaitAxiom,
        Rule::If {
            then_proof,
            else_proof,
        } => Rule::If {
            then_proof: boxed(then_proof),
            else_proof: else_proof.as_deref().map(boxed),
        },
        Rule::While { body } => Rule::While { body: boxed(body) },
        Rule::Seq { parts } => Rule::Seq {
            parts: parts.iter().map(unshared).collect(),
        },
        Rule::Cobegin { branches } => Rule::Cobegin {
            branches: branches.iter().map(unshared).collect(),
        },
        Rule::Conseq { inner } => Rule::Conseq {
            inner: boxed(inner),
        },
    };
    Proof::new((*proof.pre).clone(), (*proof.post).clone(), rule)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sharing assertions changes no verdict: the candidate, certified
    /// or not, and a copy that shares nothing check alike, down to the
    /// rule and message of a rejection.
    #[test]
    fn shared_and_unshared_candidates_check_alike(seed in 0u64..10_000, bseed in 0u64..10_000) {
        let program = generate(&gen_cfg(30, 2), seed);
        let sbind = random_binding(&program, &TwoPointScheme, bseed);
        let candidate = build_proof(&program, &sbind, Extended::Nil, Extended::Nil);
        prop_assert_eq!(
            check_proof(&program.body, &candidate),
            check_proof(&program.body, &unshared(&candidate)),
            "seed {} / {}", seed, bseed
        );
    }

    /// cert(S) ⟺ the Theorem-1 candidate proof checks (two-point lattice).
    #[test]
    fn cert_iff_candidate_checks_two_point(seed in 0u64..10_000, bseed in 0u64..10_000) {
        let program = generate(&gen_cfg(30, 2), seed);
        let sbind = random_binding(&program, &TwoPointScheme, bseed);
        let certified = certify(&program, &sbind).certified();
        let candidate = build_proof(&program, &sbind, Extended::Nil, Extended::Nil);
        let checks = check_proof(&program.body, &candidate).is_ok();
        prop_assert_eq!(certified, checks, "divergence for seed {} / {}", seed, bseed);
    }

    /// Same equivalence over a 4-level linear lattice.
    #[test]
    fn cert_iff_candidate_checks_linear(seed in 0u64..10_000, bseed in 0u64..10_000) {
        let scheme = LinearScheme::new(4).unwrap();
        let program = generate(&gen_cfg(25, 2), seed);
        let sbind = random_binding(&program, &scheme, bseed);
        let certified = certify(&program, &sbind).certified();
        let candidate = build_proof(&program, &sbind, Extended::Nil, Extended::Nil);
        let checks = check_proof(&program.body, &candidate).is_ok();
        prop_assert_eq!(certified, checks);
    }

    /// Theorem 1's full conclusion: the proof is completely invariant and
    /// its post bound is g ⊕ l ⊕ flow(S).
    #[test]
    fn theorem1_full_conclusion(seed in 0u64..10_000, bseed in 0u64..10_000) {
        let program = generate(&gen_cfg(25, 2), seed);
        let sbind = random_binding(&program, &TwoPointScheme, bseed);
        match prove(&program, &sbind, Extended::Nil, Extended::Nil) {
            Ok(proof) => {
                let i = policy_assertion(&program, &sbind);
                prop_assert!(is_completely_invariant(&proof, &i).unwrap());
                // Post global bound = flow(S) when l = g = nil.
                let (_, flow) = mod_flow(&program.body, &sbind);
                let g_post = proof
                    .post
                    .global
                    .as_ref()
                    .and_then(|e| e.eval_lit())
                    .unwrap();
                prop_assert!(g_post.leq(&flow) && flow.leq(&g_post));
            }
            Err(ProveError::NotCertified { .. }) => {
                prop_assert!(!certify(&program, &sbind).certified());
            }
            Err(other) => prop_assert!(false, "unexpected: {}", other),
        }
    }

    /// The Appendix Lemma holds along every constructed proof.
    #[test]
    fn lemma_holds_on_every_constructed_proof(seed in 0u64..10_000, bseed in 0u64..10_000) {
        let program = generate(&gen_cfg(25, 2), seed);
        let sbind = random_binding(&program, &TwoPointScheme, bseed);
        if let Ok(proof) = prove(&program, &sbind, Extended::Nil, Extended::Nil) {
            prop_assert!(check_lemma(&program.body, &proof, &sbind).is_ok());
        }
    }

    /// Theorem 1 for arbitrary valid (l, g) bounds, not just (nil, nil).
    #[test]
    fn theorem1_with_nontrivial_bounds(seed in 0u64..10_000) {
        let program = generate(&gen_cfg(20, 1), seed);
        // All-High binding always certifies over TwoPoint? No — but an
        // all-equal binding does: every check compares like with like.
        let sbind = StaticBinding::constant(
            &program.symbols,
            &TwoPointScheme,
            TwoPoint::High,
        );
        prop_assert!(certify(&program, &sbind).certified());
        for (l, g) in [
            (Extended::Nil, Extended::Elem(TwoPoint::Low)),
            (Extended::Elem(TwoPoint::Low), Extended::Nil),
            (Extended::Elem(TwoPoint::High), Extended::Elem(TwoPoint::High)),
        ] {
            let proof = prove(&program, &sbind, l, g).unwrap();
            prop_assert!(check_proof(&program.body, &proof).is_ok());
        }
    }

    /// Inference always produces a certifying binding or a genuine
    /// obstruction.
    #[test]
    fn inference_is_sound(seed in 0u64..10_000) {
        let program = generate(&gen_cfg(30, 2), seed);
        let first = program.symbols.iter().next().unwrap().0;
        match secflow::cfm::infer_binding(
            &program,
            &TwoPointScheme,
            [(first, TwoPoint::High)],
        ) {
            Ok(binding) => prop_assert!(certify(&program, &binding).certified()),
            Err(unsat) => {
                // The obstruction must name the pinned variable.
                prop_assert_eq!(unsat.var, first);
            }
        }
    }
}

#[test]
fn uniform_low_binding_certifies_everything_generated() {
    // With every variable at the same class, all Figure 2 checks compare
    // equal classes, so certification always succeeds; and Theorem 1 then
    // promises a proof for each.
    for seed in 0..40 {
        let program = generate(&gen_cfg(35, 2), seed);
        let sbind = StaticBinding::uniform(&program.symbols, &TwoPointScheme);
        assert!(certify(&program, &sbind).certified(), "seed {seed}");
        let proof = prove(&program, &sbind, Extended::Nil, Extended::Nil)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        check_proof(&program.body, &proof).unwrap();
    }
}

#[test]
fn rejected_programs_never_have_checking_candidates() {
    // A deterministic sweep of the Theorem 2 contrapositive with a
    // binding guaranteed to violate something whenever possible.
    let mut rejected = 0;
    for seed in 0..60 {
        let program = generate(&gen_cfg(30, 2), seed);
        // First variable High, everything else Low: most programs leak.
        let first = program.symbols.iter().next().unwrap().0;
        let sbind =
            StaticBinding::uniform(&program.symbols, &TwoPointScheme).with(first, TwoPoint::High);
        if !certify(&program, &sbind).certified() {
            rejected += 1;
            let candidate = build_proof(&program, &sbind, Extended::Nil, Extended::Nil);
            assert!(
                check_proof(&program.body, &candidate).is_err(),
                "seed {seed}: invalid certification would slip through"
            );
        }
    }
    assert!(
        rejected >= 10,
        "corpus too tame: only {rejected} rejections"
    );
}
