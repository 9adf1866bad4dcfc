//! Adversarial proof-checker tests: valid proofs, surgically corrupted,
//! must be rejected at the corrupted rule.
//!
//! The Theorem-1/2 property tests show the checker accepts exactly the
//! certified corpus; these tests show *which* obligation each rule
//! enforces by violating them one at a time. The wire-certificate
//! properties at the bottom extend the same discipline to the
//! serialized form: every provable program round-trips through
//! emit/validate, every single-character mutation that changes the
//! certificate's meaning is rejected with a structured stage error,
//! and so is every resealed table that is not canonical.

use std::sync::Arc;

use proptest::prelude::*;

use secflow::cert::{emit_certificate, reseal, show_two_class, validate_certificate, Json};
use secflow::cfm::StaticBinding;
use secflow::lang::{parse, print_program};
use secflow::lattice::{Extended, TwoPoint, TwoPointScheme};
use secflow::logic::{check_proof, prove, Assertion, Bound, ClassExpr, Proof, Rule};
use secflow::workload::{generate, GenConfig};

type E = ClassExpr<TwoPoint>;

fn lo() -> Extended<TwoPoint> {
    Extended::Elem(TwoPoint::Low)
}

fn hi() -> Extended<TwoPoint> {
    Extended::Elem(TwoPoint::High)
}

fn proof_for(src: &str) -> (secflow::lang::Program, Proof<TwoPoint>) {
    let program = parse(src).unwrap();
    let sbind = StaticBinding::constant(&program.symbols, &TwoPointScheme, TwoPoint::High);
    let proof = prove(&program, &sbind, Extended::Nil, Extended::Nil).unwrap();
    (program, proof)
}

#[test]
fn wrong_rule_for_statement_is_rejected() {
    let (program, proof) = proof_for("var x : integer; x := 1");
    // Claim the assignment is a skip.
    let forged = Proof::new(proof.pre.clone(), proof.post.clone(), Rule::SkipAxiom);
    let err = check_proof(&program.body, &forged).unwrap_err();
    assert!(err.message.contains("does not match"), "{err}");
}

#[test]
fn skip_axiom_with_strengthening_post_is_rejected() {
    let program = parse("var x : integer; skip").unwrap();
    // {x ≤ High} skip {x ≤ Low} is not an instance of the axiom.
    let pre = Assertion::state_only(vec![Bound::new(E::var(program.var("x")), E::lit(hi()))]);
    let post = Assertion::state_only(vec![Bound::new(E::var(program.var("x")), E::lit(lo()))]);
    let forged = Proof::new(pre, post, Rule::SkipAxiom);
    assert!(check_proof(&program.body, &forged).is_err());
}

#[test]
fn if_branches_with_mismatched_posts_are_rejected() {
    let (program, proof) = proof_for("var x, y : integer; if x = 0 then y := 1 else y := 2");
    let Rule::If {
        then_proof,
        else_proof,
    } = proof.rule.clone()
    else {
        panic!("expected an alternation at the root");
    };
    // Corrupt the else branch's postcondition state.
    let mut bad_else = else_proof.unwrap();
    Arc::make_mut(&mut bad_else.post)
        .state
        .push(Bound::new(E::lit(hi()), E::lit(lo())));
    let forged = Proof::new(
        proof.pre.clone(),
        proof.post.clone(),
        Rule::If {
            then_proof,
            else_proof: Some(bad_else),
        },
    );
    let err = check_proof(&program.body, &forged).unwrap_err();
    // The corruption surfaces either at the branch's own consequence
    // wrapper (checked first) or at the alternation's premise agreement.
    assert!(
        err.rule == "alternation rule" || err.rule == "consequence rule",
        "{err}"
    );
}

#[test]
fn if_side_condition_is_enforced() {
    // Lower the branch-local bound L' below the guard's class: the side
    // condition V,L,G |- L'[local ← local ⊕ e̲] must fail.
    let (program, proof) = proof_for("var x, y : integer; if x = 0 then y := 1 else y := 2");
    let Rule::If {
        mut then_proof,
        else_proof,
    } = proof.rule.clone()
    else {
        panic!("expected an alternation");
    };
    fn lower_local(p: &mut Proof<TwoPoint>) {
        Arc::make_mut(&mut p.pre).local = Some(E::nil());
        Arc::make_mut(&mut p.post).local = Some(E::nil());
        match &mut p.rule {
            Rule::Conseq { inner } => lower_local(inner),
            _ => {
                // Leaf axiom: rewrite both ends consistently.
            }
        }
    }
    let mut else_proof = else_proof.unwrap();
    lower_local(&mut then_proof);
    lower_local(&mut else_proof);
    let forged = Proof::new(
        proof.pre.clone(),
        proof.post.clone(),
        Rule::If {
            then_proof,
            else_proof: Some(else_proof),
        },
    );
    let err = check_proof(&program.body, &forged).unwrap_err();
    // Either the inner axioms stop matching or the side condition trips;
    // both surface as alternation/consequence failures, never success.
    assert!(
        err.rule == "alternation rule" || err.rule == "consequence rule",
        "{err}"
    );
}

#[test]
fn while_requires_an_invariant_body() {
    let (program, proof) = proof_for("var x : integer; while x > 0 do x := x - 1");
    // The root is Conseq{ While }; corrupt the body's postcondition.
    let Rule::Conseq { inner } = proof.rule.clone() else {
        panic!("expected consequence at root");
    };
    let Rule::While { mut body } = inner.rule.clone() else {
        panic!("expected iteration inside");
    };
    Arc::make_mut(&mut body.post).global = Some(E::lit(Extended::Nil)); // no longer invariant
    let forged_while = Proof::new(inner.pre.clone(), inner.post.clone(), Rule::While { body });
    let forged = Proof::new(
        proof.pre.clone(),
        proof.post.clone(),
        Rule::Conseq {
            inner: Box::new(forged_while),
        },
    );
    let err = check_proof(&program.body, &forged).unwrap_err();
    // The broken invariant is caught either inside the body's consequence
    // wrapper or by the iteration rule's invariance requirement.
    assert!(
        err.rule == "iteration rule" || err.rule == "consequence rule",
        "{err}"
    );
}

#[test]
fn wait_must_raise_global() {
    // Forge a wait triple that pretends global stays nil although the
    // semaphore is High: the axiom's substitution cannot produce it.
    let program = parse("var s : semaphore; wait(s)").unwrap();
    let s = program.var("s");
    let i = vec![Bound::new(E::var(s), E::lit(hi()))];
    let unchanged = Assertion::new(i, E::lit(Extended::Nil), E::lit(Extended::Nil));
    let forged = Proof::new(unchanged.clone(), unchanged, Rule::WaitAxiom);
    let err = check_proof(&program.body, &forged).unwrap_err();
    assert_eq!(err.rule, "wait axiom");
}

#[test]
fn cobegin_interference_is_enforced() {
    // Process 2's proof privately assumes a̲ ≤ Low, but process 1 writes
    // High data into `a`: the interference check must object even though
    // each branch proof is locally fine.
    let program = parse(
        "var h, a, b : integer;
         cobegin a := h || b := 1 coend",
    )
    .unwrap();
    let (h, a, b) = (program.var("h"), program.var("a"), program.var("b"));
    let lo_e = || E::lit(lo());
    let hi_e = || E::lit(hi());

    use secflow::lang::builder::e as eb;
    use secflow::logic::check::assign_subst;

    // Branch 1: {h ≤ High, a ≤ High} a := h {same} — fine on its own.
    let b1_assn = Assertion::new(
        vec![Bound::new(E::var(h), hi_e()), Bound::new(E::var(a), hi_e())],
        lo_e(),
        lo_e(),
    );
    let b1_ax_pre = b1_assn.subst(&assign_subst(a, &eb::var(h)));
    let b1 = Proof::new(
        b1_assn.clone(),
        b1_assn.clone(),
        Rule::Conseq {
            inner: Box::new(Proof::new(b1_ax_pre, b1_assn.clone(), Rule::AssignAxiom)),
        },
    );

    // Branch 2 privately asserts a ≤ Low throughout.
    let b2_assn = Assertion::new(
        vec![Bound::new(E::var(a), lo_e()), Bound::new(E::var(b), hi_e())],
        lo_e(),
        lo_e(),
    );
    let b2_ax_pre = b2_assn.subst(&assign_subst(b, &eb::konst(1)));
    let b2 = Proof::new(
        b2_assn.clone(),
        b2_assn.clone(),
        Rule::Conseq {
            inner: Box::new(Proof::new(b2_ax_pre, b2_assn.clone(), Rule::AssignAxiom)),
        },
    );

    let pre = Assertion::new(
        vec![
            Bound::new(E::var(h), hi_e()),
            Bound::new(E::var(a), hi_e()),
            Bound::new(E::var(a), lo_e()),
            Bound::new(E::var(b), hi_e()),
        ],
        lo_e(),
        lo_e(),
    );
    let post = pre.clone();
    let forged = Proof::new(
        pre,
        post,
        Rule::Cobegin {
            branches: vec![b1, b2],
        },
    );
    let err = check_proof(&program.body, &forged).unwrap_err();
    assert_eq!(err.rule, "concurrent-execution rule");
}

#[test]
fn seq_chain_gaps_are_rejected() {
    let (program, proof) = proof_for("var x, y : integer; begin x := 1; y := x end");
    let Rule::Seq { mut parts } = proof.rule.clone() else {
        panic!("expected composition");
    };
    // Break the chain: strengthen part 2's precondition so part 1's post
    // no longer entails it.
    Arc::make_mut(&mut parts[1].pre)
        .state
        .push(Bound::new(E::lit(hi()), E::lit(lo())));
    let forged = Proof::new(proof.pre.clone(), proof.post.clone(), Rule::Seq { parts });
    let err = check_proof(&program.body, &forged).unwrap_err();
    assert_eq!(err.rule, "composition rule");
}

#[test]
fn conseq_cannot_weaken_the_precondition() {
    let (program, proof) = proof_for("var x, y : integer; y := x");
    // Drop the binding facts from the outer pre: it no longer entails the
    // axiom's substituted precondition.
    let weak_pre = Assertion::new(vec![], E::lit(lo()), E::lit(lo()));
    let forged = Proof::new(weak_pre, proof.post.clone(), proof.rule.clone());
    let err = check_proof(&program.body, &forged).unwrap_err();
    assert_eq!(err.rule, "consequence rule");
}

// ---- wire certificates --------------------------------------------------

/// Emits a certificate for a generated program under the constant-High
/// binding (which the CFM always certifies, so Theorem 1 always finds a
/// proof).
fn generated_certificate(seed: u64) -> (String, String) {
    let cfg = GenConfig {
        target_stmts: 12,
        ..GenConfig::default()
    };
    let program = generate(&cfg, seed);
    let source = print_program(&program);
    let program = parse(&source).expect("generated programs re-parse");
    let sbind = StaticBinding::constant(&program.symbols, &TwoPointScheme, TwoPoint::High);
    let proof = prove(&program, &sbind, Extended::Nil, Extended::Nil).expect("Theorem 1");
    let cert = emit_certificate(&proof, &program.symbols, "two", &source, &show_two_class);
    (source, cert.text)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every provable generated program round-trips: emit, then
    /// validate against the same source, without re-running the prover.
    #[test]
    fn generated_certificates_round_trip(seed in 0u64..50_000) {
        let (source, cert) = generated_certificate(seed);
        let summary = validate_certificate(&source, &cert).expect("own certificate validates");
        prop_assert_eq!(summary.lattice, "two");
        prop_assert!(cert.contains(&summary.digest));
    }

    /// Single-character mutations: any mutation that changes the
    /// certificate's canonical meaning is rejected with a structured
    /// stage error. (A mutation the parser normalizes away — one that
    /// re-serializes to the identical body — is semantically the same
    /// certificate, and accepting it is correct; the digest proves it.)
    #[test]
    fn mutated_certificates_never_validate_as_something_else(
        seed in 0u64..500,
        pos in 0usize..8192,
        replacement_byte in 0x20u8..0x7f,
    ) {
        let replacement = replacement_byte as char;
        let (source, cert) = generated_certificate(seed);
        let chars: Vec<char> = cert.chars().collect();
        let pos = pos % chars.len();
        if chars[pos] == replacement {
            return Ok(());
        }
        let mutated: String = chars[..pos]
            .iter()
            .chain(std::iter::once(&replacement))
            .chain(chars[pos + 1..].iter())
            .collect();
        let original = validate_certificate(&source, &cert).expect("original validates");
        match validate_certificate(&source, &mutated) {
            // Only a meaning-preserving mutation may still validate, and
            // the content digest is the witness that the meaning held.
            Ok(summary) => prop_assert_eq!(summary.digest, original.digest),
            Err(err) => prop_assert!(!err.stage.is_empty() && !err.message.is_empty()),
        }
    }

    /// Resealed mutations (digest recomputed over the tampered body)
    /// slip past the digest gate but never past the checker: a rule
    /// swap must die at a later stage, with the digest stage now
    /// unreachable. Every generated program has an assignment and a
    /// sequence, so neither swap can pass by not applying.
    #[test]
    fn resealed_rule_swaps_are_rejected_downstream(seed in 0u64..500) {
        let (source, cert) = generated_certificate(seed);
        for (from, to) in [("[\"assign\",", "[\"skip\","), ("[\"seq\",", "[\"cobegin\",")] {
            prop_assert!(cert.contains(from), "no {} node to swap", from);
            let forged = reseal(&cert.replacen(from, to, 1)).expect("reseal parses");
            let err = validate_certificate(&source, &forged)
                .expect_err("a resealed rule swap must not validate");
            prop_assert_ne!(err.stage, "digest");
        }
    }

    /// Table tampering, resealed past the digest: every forgery of the
    /// tables' canonical form dies in the decoder, whatever the proof.
    #[test]
    fn resealed_table_tampering_is_rejected_at_proof(seed in 0u64..500) {
        let (source, cert) = generated_certificate(seed);
        for (forgery, message) in table_forgeries(&cert) {
            let err = validate_certificate(&source, &forgery)
                .expect_err("a forged table must not validate");
            prop_assert_eq!(err.stage, "proof", "{}: {}", message, err);
            prop_assert!(err.message.contains(&message), "{}: {}", message, err);
        }
    }

    /// Two nodes that name different preconditions, each given the
    /// other's. The root's precondition is assertion 0, so the root now
    /// uses a later id before assertion 0, and the decoder rejects the
    /// forgery whatever the proof.
    #[test]
    fn resealed_assertion_swaps_are_rejected_downstream(seed in 0u64..500) {
        let (source, cert) = generated_certificate(seed);
        let mut pres = Vec::new();
        for_each_node(&mut root_of(&cert), &mut |node| pres.push(node[1].clone()));
        let other = pres
            .iter()
            .position(|pre| *pre != pres[0])
            .expect("two nodes with distinct preconditions");
        let forged = tamper(&cert, |_, _, root| {
            let mut at = 0;
            for_each_node(root, &mut |node| {
                if at == 0 {
                    node[1] = pres[other].clone();
                } else if at == other {
                    node[1] = pres[0].clone();
                }
                at += 1;
            });
        });
        let err = validate_certificate(&source, &forged)
            .expect_err("a resealed assertion swap must not validate");
        prop_assert_eq!(err.stage, "proof", "{}", err);
        prop_assert!(err.message.contains("is used before assertion 0"), "{}", err);
    }
}

/// The certificate with its proof tables and root rewritten by `edit`,
/// resealed so the forgery gets past the digest.
fn tamper(cert: &str, edit: impl FnOnce(&mut Vec<Json>, &mut Vec<Json>, &mut Json)) -> String {
    let Json::Obj(mut fields) = Json::parse(cert).unwrap() else {
        panic!("a certificate is an object")
    };
    let Json::Obj(proof) = &mut fields[4].1 else {
        panic!("`proof` is an object")
    };
    let [(_, Json::Arr(exprs)), (_, Json::Arr(assertions)), (_, root)] = &mut proof[..] else {
        panic!("`proof` is exprs/assertions/root")
    };
    edit(exprs, assertions, root);
    reseal(&Json::Obj(fields).to_string()).unwrap()
}

/// The `root` node of a certificate's proof.
fn root_of(cert: &str) -> Json {
    let parsed = Json::parse(cert).unwrap();
    parsed.as_obj().unwrap()[4].1.get("root").unwrap().clone()
}

/// Calls `f` on every `[rule, pre, post, kids]` node, in pre-order.
fn for_each_node(node: &mut Json, f: &mut impl FnMut(&mut Vec<Json>)) {
    let Json::Arr(parts) = node else {
        panic!("a node is an array")
    };
    f(parts);
    let Json::Arr(kids) = &mut parts[3] else {
        panic!("kids are an array")
    };
    for kid in kids {
        for_each_node(kid, f);
    }
}

/// Calls `f` on every expression id of an assertion table entry.
fn for_each_expr_id(assertion: &mut Json, f: &mut impl FnMut(&mut Json)) {
    let Json::Arr(parts) = assertion else {
        panic!("an assertion is an array")
    };
    let [Json::Arr(state), local, global] = &mut parts[..] else {
        panic!("an assertion is [state, local, global]")
    };
    for bound in state {
        let Json::Arr(pair) = bound else {
            panic!("a bound is an array")
        };
        pair.iter_mut().for_each(&mut *f);
    }
    for bound in [local, global] {
        if *bound != Json::Null {
            f(bound);
        }
    }
}

/// Swaps ids `a` and `b` wherever `id` holds one of them.
fn swap_id(id: &mut Json, a: usize, b: usize) {
    let (a, b) = (Json::Num(a as f64), Json::Num(b as f64));
    if *id == a {
        *id = b;
    } else if *id == b {
        *id = a;
    }
}

/// Renumbers the expressions in order of first use over `assertions`,
/// as the emitter numbers them, so the expression table stays canonical
/// when the assertion table is reordered.
fn renumber_exprs(exprs: &mut Vec<Json>, assertions: &mut [Json]) {
    let mut order = Vec::new();
    let mut renamed = std::collections::HashMap::new();
    for a in assertions.iter_mut() {
        for_each_expr_id(a, &mut |id| {
            let old = id.as_u64().unwrap() as usize;
            let next = renamed.len();
            let new = *renamed.entry(old).or_insert_with(|| {
                order.push(old);
                next
            });
            *id = Json::Num(new as f64);
        });
    }
    *exprs = order.iter().map(|&old| exprs[old].clone()).collect();
}

/// One forgery of each way a table can fail to be canonical, with the
/// message the decoder must give. Each one is built from `cert`'s own
/// tables, so it applies to every certificate.
fn table_forgeries(cert: &str) -> Vec<(String, String)> {
    let parsed = Json::parse(cert).unwrap();
    let proof = &parsed.as_obj().unwrap()[4].1;
    let n_exprs = proof.get("exprs").and_then(Json::as_arr).unwrap().len();
    let n_assertions = proof
        .get("assertions")
        .and_then(Json::as_arr)
        .unwrap()
        .len();
    assert!(
        n_exprs >= 2 && n_assertions >= 2,
        "tables too small to reorder"
    );
    let root_pre = |id: Json| {
        tamper(cert, |_, _, root| {
            let Json::Arr(node) = root else {
                panic!("a node is an array")
            };
            node[1] = id;
        })
    };
    let first_expr_id = |id: Json| {
        tamper(cert, |_, assertions, _| {
            let mut id = Some(id);
            for_each_expr_id(&mut assertions[0], &mut |slot| {
                if let Some(id) = id.take() {
                    *slot = id;
                }
            });
        })
    };
    vec![
        (
            root_pre(Json::Num(n_assertions as f64)),
            format!("assertion index {n_assertions} out of range"),
        ),
        (
            first_expr_id(Json::Num(n_exprs as f64)),
            format!("expression index {n_exprs} out of range"),
        ),
        (
            root_pre(Json::Num(0.5)),
            "assertion index must be a non-negative integer".into(),
        ),
        (
            root_pre(Json::Str("0".into())),
            "assertion index must be a non-negative integer".into(),
        ),
        (
            first_expr_id(Json::Num(-1.0)),
            "expression index must be a non-negative integer".into(),
        ),
        // An expression the proof never mentions: it repeats nothing,
        // and no assertion names it.
        (
            tamper(cert, |exprs, _, _| {
                let fresh = ["high", "low"]
                    .map(|lit| Json::Str(lit.into()))
                    .into_iter()
                    .chain([Json::Null])
                    .flat_map(|lit| {
                        [
                            vec![],
                            vec!["local"],
                            vec!["global"],
                            vec!["local", "global"],
                        ]
                        .map(|atoms| {
                            let atoms = atoms.into_iter().map(|a| Json::Str(a.into())).collect();
                            Json::Arr(vec![Json::Arr(atoms), lit.clone()])
                        })
                    })
                    .find(|e| !exprs.contains(e))
                    .expect("a class expression the proof does not use");
                exprs.push(fresh);
            }),
            format!("expression {n_exprs} is never used"),
        ),
        // A copy of the first assertion with one more bound than any
        // entry has: it repeats nothing, and no node names it.
        (
            tamper(cert, |_, assertions, _| {
                let longest = assertions
                    .iter()
                    .map(|a| a.as_arr().unwrap()[0].as_arr().unwrap().len())
                    .max()
                    .unwrap();
                let bound = Json::Arr(vec![Json::Num(0.0), Json::Num(0.0)]);
                assertions.push(Json::Arr(vec![
                    Json::Arr(vec![bound; longest + 1]),
                    Json::Null,
                    Json::Null,
                ]));
            }),
            format!("assertion {n_assertions} is never used"),
        ),
        (
            tamper(cert, |exprs, _, _| exprs.push(exprs[0].clone())),
            format!("expression {n_exprs} repeats expression 0"),
        ),
        (
            tamper(cert, |_, assertions, _| {
                assertions.push(assertions[0].clone())
            }),
            format!("assertion {n_assertions} repeats assertion 0"),
        ),
        // The same tables under other names: entries 0 and 1 trade
        // places, and so do their ids everywhere.
        (
            tamper(cert, |exprs, assertions, _| {
                exprs.swap(0, 1);
                for a in assertions.iter_mut() {
                    for_each_expr_id(a, &mut |id| swap_id(id, 0, 1));
                }
            }),
            "expression 1 is used before expression 0".into(),
        ),
        (
            tamper(cert, |exprs, assertions, root| {
                assertions.swap(0, 1);
                renumber_exprs(exprs, assertions);
                for_each_node(root, &mut |node| {
                    swap_id(&mut node[1], 0, 1);
                    swap_id(&mut node[2], 0, 1);
                });
            }),
            "assertion 1 is used before assertion 0".into(),
        ),
        // One expression's first two atoms trade places: the same value,
        // spelled a second way.
        (
            tamper(cert, |exprs, _, _| {
                let atoms = exprs
                    .iter_mut()
                    .find_map(|e| match e {
                        Json::Arr(parts) => match &mut parts[0] {
                            Json::Arr(atoms) if atoms.len() >= 2 => Some(atoms),
                            _ => None,
                        },
                        _ => None,
                    })
                    .expect("an expression of two atoms");
                atoms.swap(0, 1);
            }),
            "out of order or repeated".into(),
        ),
    ]
}

#[test]
fn a_resealed_version_1_certificate_is_rejected_at_version() {
    let (source, cert) = generated_certificate(0);
    let v1 = reseal(&cert.replacen("\"version\":2", "\"version\":1", 1)).unwrap();
    let err = validate_certificate(&source, &v1).unwrap_err();
    assert_eq!(err.stage, "version");
    assert_eq!(
        err.message,
        "unsupported schema version 1 (this validator speaks 2)"
    );
}
