//! Proofs as artifacts: construct, certify, exchange, validate, and
//! catch tampering.
//!
//! Theorem 1 makes certification *constructive*: a certified program has
//! a completely invariant flow proof, and this workspace can hand that
//! proof to you as a certificate sealed to the exact source text. Anyone
//! can validate it without trusting the prover — the validator
//! re-derives every Figure 1 rule instance and side condition.
//!
//! Run with: `cargo run --example proof_artifacts`

use secflow::cert::{emit_certificate, reseal, show_two_class, validate_certificate};
use secflow::cfm::StaticBinding;
use secflow::lang::parse;
use secflow::lattice::{Extended, TwoPoint, TwoPointScheme};
use secflow::logic::{check_proof, prove};

fn main() {
    let source = "\
var balance, audit_log : integer; ledger_lock : semaphore initially(1);
cobegin
  begin wait(ledger_lock); balance := balance + 100; signal(ledger_lock) end
||
  begin wait(ledger_lock); audit_log := balance; signal(ledger_lock) end
coend";
    let program = parse(source).expect("well-formed");
    println!("== program ==\n{source}\n");

    // Classify everything High (the ledger is sensitive end to end).
    let binding = StaticBinding::constant(&program.symbols, &TwoPointScheme, TwoPoint::High);

    // 1. Construct the Theorem-1 proof and have the checker vet it.
    let proof = prove(&program, &binding, Extended::Nil, Extended::Nil)
        .expect("certified, so a completely invariant proof exists");
    check_proof(&program.body, &proof).expect("the independent checker agrees");
    println!("== constructed proof: {} nodes, checked ==\n", proof.size());

    // 2. Seal it into a certificate for this exact source text.
    let cert = emit_certificate(&proof, &program.symbols, "two", source, &show_two_class);
    println!(
        "== certificate: {} bytes, digest sha256:{} ==\n{}…\n",
        cert.text.len(),
        cert.digest,
        &cert.text[..160]
    );

    // 3. A recipient validates it from scratch, with no prover.
    let summary = validate_certificate(source, &cert.text).expect("certificate validates");
    println!(
        "== recipient: validated, {} nodes, lattice {} ==\n",
        summary.nodes, summary.lattice
    );

    // 4. Tampering does not survive: make the root claim its own
    //    precondition (`global ≤ ν`) as its postcondition and the digest
    //    no longer matches; reseal the digest and the checker pinpoints
    //    the broken rule.
    let tampered = cert.text.replacen(
        "\"root\":[\"cobegin\",0,1,",
        "\"root\":[\"cobegin\",0,0,",
        1,
    );
    assert_ne!(tampered, cert.text);
    let err = validate_certificate(source, &tampered).expect_err("the digest catches the edit");
    assert_eq!(err.stage, "digest");
    println!("== tampered certificate rejected ==\n{err}\n");
    let resealed = reseal(&tampered).expect("still a JSON object");
    let err = validate_certificate(source, &resealed)
        .expect_err("…and a resealed forgery is no valid derivation");
    assert_eq!(err.stage, "check");
    println!("== resealed forgery rejected ==\n{err}");
}
