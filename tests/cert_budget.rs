//! A forged certificate costs the validator about what parsing it does.
//!
//! A wire table entry is written once and may be named from every node,
//! so a decoder that copied it into each node would hold nodes × entry
//! size: a one-megabyte certificate could decode to hundreds of
//! gigabytes. The validator charges every reference against a budget
//! derived from the source and rejects at stage `proof` once it runs out.
//!
//! An honest proof costs about what its certificate does, too: its nodes
//! share their assertions, so proving, emitting and validating hold a
//! small multiple of the parsed certificate however many nodes repeat
//! one large assertion.
//!
//! This binary counts live heap bytes with its own allocator and refuses
//! any allocation that would take them past 1 GiB, so a decoder that
//! lost its budget aborts here instead of exhausting the host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use secflow::cert::{emit_certificate, reseal, show_two_class, validate_certificate, Json};
use secflow::cfm::StaticBinding;
use secflow::lang::{parse, print_program};
use secflow::lattice::{Extended, TwoPoint, TwoPointScheme};
use secflow::logic::prove;
use secflow::workload::loop_heavy;

const REFUSE_PAST: usize = 1 << 30;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` with the caller's layout;
// the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        if live > REFUSE_PAST {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            return std::ptr::null_mut();
        }
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The counters are process-wide, so each test holds this while it runs.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` and returns its result with the most heap it held at once
/// beyond what was live when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(base))
}

const SOURCE: &str = "var x : integer; skip";

/// The source's own certificate with its `proof` replaced by one whose
/// only assertion is `bounds` copies of `x ≤ x`, named by a `seq` root
/// and each of its `skips` kids, resealed past the digest. The tables
/// are canonical: every entry is used, none repeats, ids are in order.
fn forgery(bounds: usize, skips: usize) -> String {
    let program = parse(SOURCE).unwrap();
    let sbind = StaticBinding::constant(&program.symbols, &TwoPointScheme, TwoPoint::High);
    let proof = prove(&program, &sbind, Extended::Nil, Extended::Nil).unwrap();
    let cert = emit_certificate(&proof, &program.symbols, "two", SOURCE, &show_two_class);
    let Json::Obj(mut fields) = Json::parse(&cert.text).unwrap() else {
        panic!("a certificate is an object")
    };
    let num = |n: f64| Json::Num(n);
    let x_le_x = Json::Arr(vec![num(0.0), num(0.0)]);
    let skip = Json::Arr(vec![
        Json::Str("skip".into()),
        num(0.0),
        num(0.0),
        Json::Arr(vec![]),
    ]);
    fields[4].1 = Json::Obj(vec![
        (
            "exprs".into(),
            Json::Arr(vec![Json::Arr(vec![
                Json::Arr(vec![Json::Str("v:x".into())]),
                Json::Null,
            ])]),
        ),
        (
            "assertions".into(),
            Json::Arr(vec![Json::Arr(vec![
                Json::Arr(vec![x_le_x; bounds]),
                Json::Null,
                Json::Null,
            ])]),
        ),
        (
            "root".into(),
            Json::Arr(vec![
                Json::Str("seq".into()),
                num(0.0),
                num(0.0),
                Json::Arr(vec![skip; skips]),
            ]),
        ),
    ]);
    reseal(&Json::Obj(fields).to_string()).unwrap()
}

#[test]
fn a_one_megabyte_forgery_over_one_statement_is_rejected_without_large_allocation() {
    let _serial = serial();
    // One entry of 80,000 bounds named from 30,001 nodes: copied into
    // every node it would be 4.8 billion bounds. And one entry of 40
    // bounds named from 60,001 nodes: 4.8 million bounds, a few hundred
    // megabytes, too little to trip the allocator's refusal.
    for (bounds, skips) in [(80_000, 30_000), (40, 60_000)] {
        let forged = forgery(bounds, skips);
        assert!(
            (900_000..=1 << 20).contains(&forged.len()),
            "{} bytes",
            forged.len()
        );
        let (_, parse_peak) = peak_during(|| Json::parse(&forged).unwrap());
        let (verdict, peak) = peak_during(|| validate_certificate(SOURCE, &forged));
        let err = verdict.expect_err("a forged proof must not validate");
        assert_eq!(err.stage, "proof", "{err}");
        assert!(err.message.contains("expression slots"), "{err}");
        // Parsing, and the serialized body the digest is taken over.
        assert!(
            peak <= 3 * parse_peak,
            "{bounds} bounds × {skips} skips: validation held {peak} B, parsing {parse_peak} B"
        );
    }
}

/// Proves and emits the certificate of `source` under the all-low
/// binding, then validates it. Proving plus emitting may hold at most
/// twice the heap that parsing the certificate does, and validating at
/// most three times.
fn assert_proof_heap_is_a_small_multiple_of_the_certificate(source: &str) {
    let program = parse(source).unwrap();
    let sbind = StaticBinding::uniform(&program.symbols, &TwoPointScheme);
    let (cert, prove_peak) = peak_during(|| {
        let proof = prove(&program, &sbind, Extended::Nil, Extended::Nil).unwrap();
        emit_certificate(&proof, &program.symbols, "two", source, &show_two_class)
    });
    let (_, parse_peak) = peak_during(|| Json::parse(&cert.text).unwrap());
    let (verdict, validate_peak) = peak_during(|| validate_certificate(source, &cert.text));
    verdict.expect("the prover's own certificate validates");
    let ratio = |peak: usize| peak as f64 / parse_peak as f64;
    assert!(
        prove_peak <= 2 * parse_peak,
        "proving and emitting held {prove_peak} B, {:.2}× the {parse_peak} B of parsing",
        ratio(prove_peak)
    );
    assert!(
        validate_peak <= 3 * parse_peak,
        "validating held {validate_peak} B, {:.2}× the {parse_peak} B of parsing",
        ratio(validate_peak)
    );
}

#[test]
fn a_thousand_skips_over_a_thousand_variables_hold_about_their_certificate() {
    let _serial = serial();
    // Every one of the 1,001 nodes names the one 1,002-bound assertion.
    let names: Vec<String> = (0..1_000).map(|i| format!("v{i}")).collect();
    let source = format!(
        "var {} : integer; begin {} end",
        names.join(", "),
        vec!["skip"; 1_000].join("; ")
    );
    assert_proof_heap_is_a_small_multiple_of_the_certificate(&source);
}

#[test]
fn fifty_loops_hold_about_their_certificate() {
    let _serial = serial();
    assert_proof_heap_is_a_small_multiple_of_the_certificate(&print_program(&loop_heavy(50)));
}
