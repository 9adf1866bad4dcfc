//! Experiment E4: §5.2 — the flow logic is strictly stronger than CFM.

use secflow::cert::{emit_certificate, reseal, show_two_class, validate_certificate};
use secflow::cfm::{certify, CheckRule};
use secflow::lang::{parse, print_program};
use secflow::lattice::Extended;
use secflow::logic::examples::{relative_strength_program, relative_strength_proof};
use secflow::logic::{
    build_proof, check_proof, entails, is_completely_invariant, policy_assertion, Assertion,
};
use secflow::runtime::{check_binary_secret, ExploreLimits};

#[test]
fn cfm_rejects_via_the_direct_flow_check() {
    let (program, sbind) = relative_strength_program();
    let report = certify(&program, &sbind);
    assert!(!report.certified());
    assert_eq!(report.violations.len(), 1);
    assert_eq!(report.violations[0].rule, CheckRule::AssignDirect);
}

#[test]
fn the_papers_proof_checks_verbatim() {
    let (program, _) = relative_strength_program();
    let proof = relative_strength_proof(&program);
    check_proof(&program.body, &proof).unwrap();
}

#[test]
fn the_papers_proof_establishes_the_policy_at_every_point() {
    let (program, sbind) = relative_strength_program();
    let proof = relative_strength_proof(&program);
    let policy = Assertion::state_only(policy_assertion(&program, &sbind));
    // Every statement-level assertion entails the policy assertion, even
    // though some are strictly stronger. (Axiom-instance preconditions
    // inside consequence wrappers are substitution images, not statement
    // preconditions, so they are not policy checkpoints.)
    fn stmt_level<'p>(
        node: &'p secflow::logic::Proof<secflow::lattice::TwoPoint>,
        out: &mut Vec<&'p Assertion<secflow::lattice::TwoPoint>>,
    ) {
        out.push(&node.pre);
        out.push(&node.post);
        use secflow::logic::Rule;
        match &node.rule {
            Rule::Conseq { inner } => match &inner.rule {
                Rule::SkipAxiom | Rule::AssignAxiom | Rule::SignalAxiom | Rule::WaitAxiom => {}
                _ => stmt_level(inner, out),
            },
            Rule::Seq { parts } => parts.iter().for_each(|p| stmt_level(p, out)),
            Rule::If {
                then_proof,
                else_proof,
            } => {
                stmt_level(then_proof, out);
                if let Some(e) = else_proof {
                    stmt_level(e, out);
                }
            }
            Rule::While { body } => stmt_level(body, out),
            Rule::Cobegin { branches } => branches.iter().for_each(|p| stmt_level(p, out)),
            _ => {}
        }
    }
    let mut assertions = Vec::new();
    stmt_level(&proof, &mut assertions);
    assert!(assertions.len() >= 6, "root + two statements");
    for a in assertions {
        assert!(entails(a, &policy).unwrap(), "policy violated at {a}");
    }
}

#[test]
fn but_no_completely_invariant_proof_exists() {
    let (program, sbind) = relative_strength_program();
    // The paper's proof is not completely invariant…
    let proof = relative_strength_proof(&program);
    let i = policy_assertion(&program, &sbind);
    assert!(!is_completely_invariant(&proof, &i).unwrap());
    // …and the canonical completely-invariant candidate fails to check
    // (Theorem 2: if it checked, CFM would certify).
    let candidate = build_proof(&program, &sbind, Extended::Nil, Extended::Nil);
    assert!(check_proof(&program.body, &candidate).is_err());
}

#[test]
fn the_program_is_genuinely_noninterfering() {
    // CFM's rejection is conservative: x is overwritten before being
    // read, so no information actually flows.
    let (program, _) = relative_strength_program();
    let r = check_binary_secret(
        &program,
        program.var("x"),
        &[program.var("y")],
        ExploreLimits::default(),
    );
    assert!(!r.interferes);
}

/// The printed §5.2 program and a certificate of the paper's proof
/// about that exact text.
fn paper_certificate() -> (String, String) {
    let (program, _) = relative_strength_program();
    let source = print_program(&program);
    let proof = relative_strength_proof(&program);
    let cert = emit_certificate(&proof, &program.symbols, "two", &source, &show_two_class);
    (source, cert.text)
}

#[test]
fn the_papers_proof_validates_as_a_certificate_cfm_would_not_issue() {
    let (source, cert) = paper_certificate();
    let (_, sbind) = relative_strength_program();
    assert!(!certify(&parse(&source).unwrap(), &sbind).certified());
    let summary = validate_certificate(&source, &cert).unwrap();
    assert_eq!(summary.nodes, 5, "seq, two conseq, two assignment axioms");
}

#[test]
fn a_weakened_bound_decodes_but_fails_the_checker() {
    // Assertion 0 bounds `x ≤ high` and assertion 1 `x ≤ low`; the
    // root's postcondition is assertion 1. Naming assertion 0 there
    // weakens that bound and keeps the tables canonical, so the forgery
    // decodes, but `x ≤ high` no longer matches what the composition
    // derives.
    let (source, cert) = paper_certificate();
    let tables = r#""exprs":[[["v:x"],null],[[],"high"],[["v:y"],null],[[],"low"],"#;
    let bounds = r#""assertions":[[[[0,1],[2,3]],3,3],[[[0,3],[2,3]],3,3],"#;
    let root = r#""root":["seq",0,1,"#;
    for part in [tables, bounds, root] {
        assert!(cert.contains(part), "{part}");
    }
    let forged = reseal(&cert.replacen(root, r#""root":["seq",0,0,"#, 1)).unwrap();
    let err = validate_certificate(&source, &forged).unwrap_err();
    assert_eq!(err.stage, "check", "{err}");
}

/// Swaps the first `from` rule name for `to` and reseals, so the forgery
/// gets past the digest and must die in the decoder with `message`.
fn assert_forged_rule_fails_in_the_decoder(from: &str, to: &str, message: &str) {
    let (source, cert) = paper_certificate();
    let from = format!(r#"["{from}","#);
    assert!(cert.contains(&from));
    let forged = reseal(&cert.replacen(&from, &format!(r#"["{to}","#), 1)).unwrap();
    let err = validate_certificate(&source, &forged).unwrap_err();
    assert_eq!(err.stage, "proof", "{err}");
    assert!(err.message.contains(message), "{err}");
}

#[test]
fn certificate_arity_errors_are_reported() {
    assert_forged_rule_fails_in_the_decoder("seq", "while", "exactly one premise, found 2");
    assert_forged_rule_fails_in_the_decoder("conseq", "cobegin", "at least two premises, found 1");
}

#[test]
fn certificate_unknown_rule_and_trailing_bytes_are_rejected() {
    assert_forged_rule_fails_in_the_decoder("assign", "frobnicate", "unknown rule `frobnicate`");
    let (source, cert) = paper_certificate();
    let err = validate_certificate(&source, &format!("{cert}\nextra")).unwrap_err();
    assert_eq!(err.stage, "json", "{err}");
}
