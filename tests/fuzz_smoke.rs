//! Fuzz smoke: the lexer → parser → analyzer pipeline must never
//! panic. Any byte soup, any truncation of a valid program, any
//! character mutation either parses (and then analyzes to a clean
//! `AnalysisReport`) or fails with a renderable `Diag` — there is no
//! third outcome. The test passing *is* the property: a panic anywhere
//! in the pipeline fails the harness.

use proptest::prelude::*;

use secflow::analyze::analyze;
use secflow::cert::validate_certificate;
use secflow::lang::{parse, print_program};
use secflow::server::cache::canon_hash;
use secflow::server::peer::MAX_HOPS;
use secflow::server::persist::{decode_record, encode_record};
use secflow::server::{CacheKey, CachedResult, Json, Limits, Service};
use secflow::workload::{generate, GenConfig};

/// Drives one input through the full front-end: parse, then (on
/// success) every analysis pass; on failure, render the diagnostic
/// against the exact source that produced it (the renderer slices the
/// source by spans, so it fuzzes span arithmetic too).
fn parse_and_lint_smoke(source: &str) {
    match parse(source) {
        Ok(program) => {
            let report = analyze(&program);
            for d in &report.diags {
                // Every diagnostic must render against its own source.
                let rendered = d.render(source);
                assert!(!rendered.is_empty());
            }
        }
        Err(diag) => {
            let rendered = diag.render(source);
            assert!(!rendered.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Character soup: mostly-printable ASCII plus controls and
    /// multibyte, straight through the pipeline.
    #[test]
    fn character_soup_never_panics(source in ".{0,200}") {
        parse_and_lint_smoke(&source);
    }

    /// Raw bytes (including invalid UTF-8) as a lossy string — the
    /// replacement character must be as boring as any other char.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255u8, 0..256)) {
        let source = String::from_utf8_lossy(&bytes);
        parse_and_lint_smoke(&source);
    }

    /// Truncating a valid generated program at every possible char
    /// boundary: half-finished declarations, dangling operators,
    /// unclosed cobegins.
    #[test]
    fn truncated_valid_programs_never_panic(seed in 0u64..50_000, cut in 0usize..4096) {
        let cfg = GenConfig { target_stmts: 20, ..GenConfig::default() };
        let source = print_program(&generate(&cfg, seed));
        let cut = cut.min(source.len());
        if source.is_char_boundary(cut) {
            parse_and_lint_smoke(&source[..cut]);
        }
    }

    /// Mutating one char of a valid program into an arbitrary char:
    /// single-token damage anywhere in otherwise well-formed input.
    #[test]
    fn mutated_valid_programs_never_panic(
        seed in 0u64..50_000,
        pos in 0usize..4096,
        replacement in ".{1,1}",
    ) {
        let cfg = GenConfig { target_stmts: 20, ..GenConfig::default() };
        let source = print_program(&generate(&cfg, seed));
        let chars: Vec<char> = source.chars().collect();
        if chars.is_empty() {
            return Ok(());
        }
        let pos = pos % chars.len();
        let mutated: String = chars[..pos]
            .iter()
            .chain(replacement.chars().collect::<Vec<_>>().iter())
            .chain(chars[pos + 1..].iter())
            .collect();
        parse_and_lint_smoke(&mutated);
    }

    /// Character soup as a certificate: the validator returns a
    /// structured error for any garbage, never panics.
    #[test]
    fn checkproof_soup_never_panics(cert in ".{0,300}") {
        let source = "var x : integer; x := 1";
        if let Err(err) = validate_certificate(source, &cert) {
            prop_assert!(!err.stage.is_empty());
            prop_assert!(!err.message.is_empty());
        }
    }

    /// Raw bytes (lossy-decoded) as a certificate — invalid UTF-8
    /// replacement characters are as boring as any other garbage.
    #[test]
    fn checkproof_raw_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255u8, 0..400)) {
        let source = "var x : integer; x := 1";
        let cert = String::from_utf8_lossy(&bytes);
        prop_assert!(validate_certificate(source, &cert).is_err());
    }

    /// The server's checkproof op over byte-soup certificates: always a
    /// well-formed JSON reply (a verdict or a protocol error), never a
    /// panic, never a crash of the service.
    #[test]
    fn server_checkproof_soup_never_panics(cert in ".{0,300}") {
        let service = Service::new(16, Limits::default());
        let req = format!(
            r#"{{"op":"checkproof","source":"var x : integer; x := 1","cert":{}}}"#,
            Json::Str(cert)
        );
        let reply = Json::parse(&service.handle_line(&req)).expect("reply is well-formed JSON");
        // Either a verdict (ok:true with valid:false for garbage) or a
        // structured protocol error — never a third shape.
        let ok = reply.get("ok").and_then(Json::as_bool).expect("ok field");
        if ok {
            prop_assert!(reply.get("valid").and_then(Json::as_bool).is_some());
        } else {
            prop_assert!(reply.get("error").is_some());
        }
    }

    /// A program request over soup source carrying any hop count, in
    /// and past the budget: always a well-formed reply — a verdict, a
    /// structured error, or a hop refusal — never a panic.
    #[test]
    fn server_relayed_soup_never_panics(source in ".{0,300}", hops in 0u64..10) {
        let service = Service::new(16, Limits::default());
        let req = format!(
            r#"{{"op":"certify","source":{},"hops":{hops}}}"#,
            Json::Str(source)
        );
        let reply = Json::parse(&service.handle_line(&req)).expect("reply is well-formed JSON");
        let ok = reply.get("ok").and_then(Json::as_bool).expect("ok field");
        if !ok {
            let kind = reply
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .expect("structured error kind");
            prop_assert!(!kind.is_empty());
        }
    }

    /// A program request over soup source within the hop budget
    /// computes exactly as if it carried no hops (the reply answers the
    /// op), and one past the budget is refused without an `op` echo,
    /// whatever the source bytes.
    #[test]
    fn server_relayed_soup_source_answers_within_the_budget(
        source in ".{0,200}",
        hops in 0u64..10,
    ) {
        let service = Service::new(16, Limits::default());
        let req = format!(
            r#"{{"op":"certify","source":{},"hops":{hops}}}"#,
            Json::Str(source)
        );
        let reply = Json::parse(&service.handle_line(&req)).expect("reply is well-formed JSON");
        let ok = reply.get("ok").and_then(Json::as_bool).expect("ok field");
        let kind = reply
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str);
        if hops > MAX_HOPS {
            prop_assert_eq!(kind, Some("max_hops_exhausted"));
            prop_assert!(reply.get("op").is_none());
        } else {
            prop_assert_eq!(reply.get("op").and_then(Json::as_str), Some("certify"));
            prop_assert!(ok || kind.is_some());
        }
    }

    /// `peer-sync` paging with arbitrary cursors and limits: the reply
    /// is always ok, and every entry it ships decodes as a journal
    /// record whose fingerprint replays from its canonical text — the
    /// serving side can never be coaxed into shipping a poisoned entry.
    #[test]
    fn server_peer_sync_paging_never_panics(
        cursor in 0u64..(1 << 53),
        limit in 0u64..(1 << 20),
    ) {
        let service = Service::new(16, Limits::default());
        service.handle_line(r#"{"op":"certify","source":"var x : integer; x := 1"}"#);
        service.handle_line(r#"{"op":"certify","source":"var y : integer; y := 2"}"#);
        let req = format!(r#"{{"op":"peer-sync","cursor":{cursor},"limit":{limit}}}"#);
        let reply = Json::parse(&service.handle_line(&req)).expect("reply is well-formed JSON");
        prop_assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        let entries = reply.get("entries").and_then(Json::as_arr).expect("entries array");
        for entry in entries {
            let payload = entry.as_str().expect("entries are record strings");
            let rec = decode_record(payload.as_bytes()).expect("shipped records decode");
            prop_assert_eq!(canon_hash(&rec.key.canon), Some(rec.key.hash));
        }
    }

    /// The receiving side of journal shipping: truncating a genuine
    /// record frame anywhere mid-ship makes it undecodable, and a
    /// forged fingerprint over genuine canonical text always fails the
    /// replay check — the two gates that make cache poisoning by a
    /// lying peer impossible.
    #[test]
    fn truncated_or_forged_sync_records_never_install(
        cut in 0usize..4096,
        flip in 1u64..u64::MAX,
    ) {
        let key = CacheKey::of(&["certify", "two", "var x : integer; x := 1"]);
        let value = CachedResult {
            ok: true,
            fields: vec![("certified".to_string(), Json::Bool(true))],
        };
        let payload = encode_record(key.hash, &key.canon, &value);
        let cut = cut.min(payload.len() - 1);
        prop_assert!(decode_record(&payload[..cut]).is_none(), "truncated frame decodes");

        let forged = encode_record(key.hash ^ flip, &key.canon, &value);
        let rec = decode_record(&forged).expect("forged frame still decodes");
        prop_assert_ne!(canon_hash(&rec.key.canon), Some(rec.key.hash));
    }
}
