//! End-to-end certificate round trip, the PR's acceptance property:
//! one `certify` with `with_proof:true` produces a wire certificate
//! that BOTH the server's `checkproof` op and the offline validator
//! accept without ever re-running Theorem 1 certification — witnessed
//! by the `cert.proofs_emitted` counter staying put across every
//! validation — and that every mutation of is rejected with a
//! structured stage error on both paths.

use std::sync::atomic::Ordering::Relaxed;

use secflow::cert::validate_certificate;
use secflow::lang::print_program;
use secflow::server::{Json, Limits, Service};
use secflow::workload::{dining_philosophers, sequential_chain};

const CLEAN: &str = "var x, y : integer;
    cobegin y := x || x := 1 coend";

fn svc() -> Service {
    Service::new(64, Limits::default())
}

fn certify_with_proof(s: &Service, source: &str, lattice: &str) -> Json {
    let req = format!(
        r#"{{"op":"certify","source":{},"lattice":{},"with_proof":true}}"#,
        Json::Str(source.to_string()),
        Json::Str(lattice.to_string())
    );
    Json::parse(&s.handle_line(&req)).unwrap()
}

fn checkproof(s: &Service, source: &str, cert: &str) -> Json {
    let req = format!(
        r#"{{"op":"checkproof","source":{},"cert":{}}}"#,
        Json::Str(source.to_string()),
        Json::Str(cert.to_string())
    );
    Json::parse(&s.handle_line(&req)).unwrap()
}

fn cert_stat(s: &Service, field: &str) -> u64 {
    let stats = Json::parse(&s.handle_line(r#"{"op":"stats"}"#)).unwrap();
    stats
        .get("cert")
        .and_then(|c| c.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats.cert.{field} missing"))
}

#[test]
fn one_proof_many_validations_zero_reproving() {
    let s = svc();
    let reply = certify_with_proof(&s, CLEAN, "two");
    assert_eq!(reply.get("certified").and_then(Json::as_bool), Some(true));
    let cert = reply
        .get("certificate")
        .and_then(Json::as_str)
        .expect("reply carries the certificate")
        .to_string();
    let digest = reply.get("proof_digest").and_then(Json::as_str).unwrap();
    assert_eq!(s.metrics.proofs_emitted.load(Relaxed), 1);

    // Server-side validation: accepted, and the prover never ran again.
    let verdict = checkproof(&s, CLEAN, &cert);
    assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(verdict.get("valid").and_then(Json::as_bool), Some(true));
    assert_eq!(
        verdict.get("proof_digest").and_then(Json::as_str),
        Some(digest)
    );
    assert_eq!(s.metrics.proofs_emitted.load(Relaxed), 1, "no re-proving");

    // Offline validation of the same bytes: the standalone validator
    // agrees, with no server (and no prover) in the loop.
    let summary = validate_certificate(CLEAN, &cert).expect("offline validator accepts");
    assert_eq!(summary.digest, digest);
    assert_eq!(summary.lattice, "two");
    assert_eq!(s.metrics.proofs_emitted.load(Relaxed), 1);

    // Repeat validations are digest-addressed cache hits; the fresh
    // verdict counter stays at one.
    checkproof(&s, CLEAN, &cert);
    checkproof(&s, CLEAN, &cert);
    assert_eq!(cert_stat(&s, "proofs_emitted"), 1);
    assert_eq!(cert_stat(&s, "checkproof_valid"), 1);
    assert_eq!(cert_stat(&s, "cache_hits_by_digest"), 2);
    assert_eq!(cert_stat(&s, "checkproof_requests"), 3);
    assert!(cert_stat(&s, "proof_bytes_total") >= cert.len() as u64);
}

#[test]
fn every_single_byte_mutation_is_rejected_by_both_validators() {
    let s = svc();
    let reply = certify_with_proof(&s, CLEAN, "two");
    let cert = reply.get("certificate").and_then(Json::as_str).unwrap();

    // Flip each byte of the body (everything before the digest field) at
    // a stride, server-side and offline: all rejected, all structured.
    let body_end = cert.rfind(",\"digest\"").expect("digest field present");
    for pos in (0..body_end).step_by(37) {
        let mut bytes = cert.as_bytes().to_vec();
        bytes[pos] ^= 0x02;
        let Ok(mutated) = String::from_utf8(bytes) else {
            continue;
        };
        if mutated == cert {
            continue;
        }
        let offline = validate_certificate(CLEAN, &mutated)
            .expect_err("offline validator rejects the mutation");
        assert!(!offline.stage.is_empty(), "structured stage at byte {pos}");
        let verdict = checkproof(&s, CLEAN, &mutated);
        assert_eq!(verdict.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            verdict.get("valid").and_then(Json::as_bool),
            Some(false),
            "server rejects the mutation at byte {pos}"
        );
        let stage = verdict
            .get("reason")
            .and_then(|r| r.get("stage"))
            .and_then(Json::as_str)
            .unwrap();
        assert_eq!(stage, offline.stage, "both validators agree at byte {pos}");
    }
    // None of those rejections ever invoked the prover.
    assert_eq!(s.metrics.proofs_emitted.load(Relaxed), 1);
}

#[test]
fn linear_lattice_certificates_round_trip_end_to_end() {
    let s = svc();
    let reply = certify_with_proof(&s, CLEAN, "linear:4");
    let cert = reply.get("certificate").and_then(Json::as_str).unwrap();
    let verdict = checkproof(&s, CLEAN, cert);
    assert_eq!(verdict.get("valid").and_then(Json::as_bool), Some(true));
    assert_eq!(
        verdict.get("lattice").and_then(Json::as_str),
        Some("linear:4")
    );
    let summary = validate_certificate(CLEAN, cert).unwrap();
    assert_eq!(summary.lattice, "linear:4");

    // A two-point certificate for the same program is a different
    // object with a different digest — lattices do not alias.
    let two = certify_with_proof(&s, CLEAN, "two");
    assert_ne!(
        two.get("proof_digest").and_then(Json::as_str),
        reply.get("proof_digest").and_then(Json::as_str)
    );
}

/// A count gate: the proof size and certificate length for two
/// workload programs are exact, so any change to the prover or the
/// certificate format shows here as a moved number, never as noise.
#[test]
fn certificate_sizes_are_pinned() {
    let s = svc();
    for (program, nodes, bytes) in [
        (sequential_chain(400, 8), 801, 15_194),
        (dining_philosophers(5, 1000, false), 76, 4_876),
    ] {
        let reply = certify_with_proof(&s, &print_program(&program), "two");
        let cert = reply.get("certificate").and_then(Json::as_str).unwrap();
        assert_eq!(reply.get("proof_nodes").and_then(Json::as_u64), Some(nodes));
        assert_eq!(cert.len(), bytes);
    }
}

/// The deepest programs `parse` accepts get certificates the service
/// takes back, as a string and as an inline object; a JSON bomb deeper
/// than the parser's cap is still refused before any decoding.
#[test]
fn certificates_at_the_nesting_limit_validate_through_the_service() {
    // An unoptimized build needs several times the stack a release build
    // does (about 1.3 MiB there) to prove and check proofs this deep.
    let deep = std::thread::Builder::new().stack_size(32 << 20);
    let run = deep.spawn(|| {
        for src in [
            format!("var x : integer; {} x := 1", "while x > 0 do ".repeat(298)),
            format!(
                "var x : integer; s : semaphore; {} wait(s)",
                "while x > 0 do ".repeat(299)
            ),
        ] {
            let reply = certify_with_proof(&svc(), &src, "two");
            let cert = reply
                .get("certificate")
                .and_then(Json::as_str)
                .expect("a certificate")
                .to_string();
            // Fresh services, so neither verdict is a cache hit.
            let as_string = checkproof(&svc(), &src, &cert);
            assert_eq!(as_string.get("valid"), Some(&Json::Bool(true)), "{as_string:?}");
            let line = format!(
                r#"{{"op":"checkproof","source":{},"cert":{cert}}}"#,
                Json::Str(src.clone())
            );
            let inline = Json::parse(&svc().handle_line(&line)).unwrap();
            assert_eq!(inline.get("valid"), Some(&Json::Bool(true)), "{inline:?}");
        }

        let bomb = format!(
            r#"{{"format":"secflow-cert","version":2,"lattice":"two","program_sha256":"x","proof":{},"digest":"y"}}"#,
            "[".repeat(5_000) + &"]".repeat(5_000)
        );
        let verdict = checkproof(&svc(), CLEAN, &bomb);
        assert_eq!(verdict.get("valid"), Some(&Json::Bool(false)));
        let stage = verdict.get("reason").and_then(|r| r.get("stage"));
        assert_eq!(stage.and_then(Json::as_str), Some("json"), "{verdict:?}");
        let line = format!(
            r#"{{"op":"checkproof","source":{},"cert":{bomb}}}"#,
            Json::Str(CLEAN.to_string())
        );
        let refused = Json::parse(&svc().handle_line(&line)).unwrap();
        let kind = refused.get("error").and_then(|e| e.get("kind"));
        assert_eq!(kind.and_then(Json::as_str), Some("protocol"), "{refused:?}");
    });
    if let Err(panic) = run.unwrap().join() {
        std::panic::resume_unwind(panic);
    }
}
