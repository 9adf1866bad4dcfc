//! Differential crash-recovery tests for the durable result store.
//!
//! The paper's §6 determinism argument makes cached verdicts
//! permanently valid, so a crashed-and-restarted server must be able to
//! answer everything it ever answered — from disk, with byte-identical
//! replies, without re-running a single certification or exploration.
//! These tests exercise that property in-process (the subprocess
//! `kill -9` variant lives in `crates/cli/tests/crash_recovery.rs`):
//!
//! - warm start answers the full corpus from disk, `cached:true`,
//!   byte-identical modulo the `us` timing field, with zero explored
//!   states;
//! - LRU-evicted entries stay recoverable from the journal until a
//!   compaction drops them (the documented DESIGN §10 semantics);
//! - a flipped byte costs exactly one frame, never the store.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

use secflow::cert::reseal;
use secflow::server::{
    route_fingerprint, CacheKey, CachedResult, DurableStore, FsyncMode, Json, Limits,
    PersistConfig, Request, Service,
};

const LEAKY: &str = "var x, y : integer; sem : semaphore;
    cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend";
const CLEAN: &str = "var a, b : integer; begin a := 1; b := a end";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("secflow-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A service backed by a store in `dir`, `fsync always` so a dropped
/// service loses nothing (the in-process stand-in for `kill -9`:
/// `Drop` does no graceful flush the journal would depend on).
fn service_in(dir: &Path, capacity: usize, journal_max_bytes: u64) -> Service {
    let cfg = PersistConfig {
        journal_max_bytes,
        fsync: FsyncMode::Always,
        ..PersistConfig::new(dir)
    };
    Service::with_persist(
        capacity,
        Limits::default(),
        DurableStore::open(cfg).unwrap(),
    )
}

/// A corpus covering every cacheable op plus a cached *failure* (the
/// parse error): certify (leaky + clean), infer, flows, lint, explore.
fn corpus() -> Vec<String> {
    let src = |s: &str| Json::Str(s.to_string());
    vec![
        format!(
            r#"{{"id":1,"op":"certify","source":{},"classes":{{"x":"high"}}}}"#,
            src(LEAKY)
        ),
        format!(r#"{{"id":2,"op":"certify","source":{}}}"#, src(CLEAN)),
        format!(
            r#"{{"id":3,"op":"infer","source":{},"pins":{{"x":"high","y":"low"}}}}"#,
            src(LEAKY)
        ),
        format!(
            r#"{{"id":4,"op":"flows","source":{},"dot":true}}"#,
            src(LEAKY)
        ),
        format!(r#"{{"id":5,"op":"lint","source":{}}}"#, src(LEAKY)),
        format!(
            r#"{{"id":6,"op":"explore","source":{},"inputs":{{"x":1}}}}"#,
            src(LEAKY)
        ),
        format!(
            r#"{{"id":7,"op":"certify","source":{}}}"#,
            src("var x integer; x := ")
        ),
    ]
}

/// Drops the per-response `us` timing field (the one legitimately
/// non-deterministic reply byte) at every nesting level.
fn strip_us(v: &Json) -> Json {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(k, _)| k != "us")
                .map(|(k, val)| (k.clone(), strip_us(val)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_us).collect()),
        other => other.clone(),
    }
}

fn normalized(line: &str) -> String {
    strip_us(&Json::parse(line).expect("reply parses")).to_string()
}

fn persist_stat(service: &Service, field: &str) -> f64 {
    let stats = Json::parse(&service.handle_line(r#"{"op":"stats"}"#)).unwrap();
    match stats.get("persist").and_then(|p| p.get(field)) {
        Some(Json::Num(n)) => *n,
        other => panic!("persist.{field} missing: {other:?}"),
    }
}

#[test]
fn warm_start_answers_the_corpus_from_disk_byte_identically() {
    let dir = tmp_dir("differential");
    let corpus = corpus();

    // Cold server: first pass computes, second pass is the cached
    // baseline a warm reply must match byte-for-byte.
    let cold = service_in(&dir, 64, 8 << 20);
    for line in &corpus {
        cold.handle_line(line);
    }
    let baseline: Vec<String> = corpus
        .iter()
        .map(|l| normalized(&cold.handle_line(l)))
        .collect();
    assert!(
        baseline.iter().all(|r| r.contains(r#""cached":true"#)),
        "second pass must be fully cached"
    );
    drop(cold); // the crash: no graceful shutdown path exists to rely on

    // Warm server in the same directory.
    let warm = service_in(&dir, 64, 8 << 20);
    assert_eq!(
        persist_stat(&warm, "entries_recovered") as usize,
        corpus.len(),
        "every corpus entry recovers"
    );
    assert_eq!(persist_stat(&warm, "frames_skipped"), 0.0);
    let warm_replies: Vec<String> = corpus
        .iter()
        .map(|l| normalized(&warm.handle_line(l)))
        .collect();
    assert_eq!(warm_replies, baseline, "warm replies are byte-identical");

    // Zero re-explorations and zero misses: the whole corpus came from
    // disk, not from re-running the state-space search.
    assert_eq!(warm.metrics.explore_states.load(Relaxed), 0);
    assert_eq!(warm.metrics.cache_misses.load(Relaxed), 0);
    assert_eq!(warm.metrics.cache_hits.load(Relaxed), corpus.len() as u64);
}

#[test]
fn warm_start_reserves_certificates_with_zero_reproving() {
    let dir = tmp_dir("certificates");
    // A program the CFM certifies (CLEAN above is the corpus's cached
    // parse *failure* — two top-level statements — not a real program).
    let provable = "var x, y : integer; cobegin y := x || x := 1 coend";
    let with_proof = format!(
        r#"{{"op":"certify","source":{},"with_proof":true}}"#,
        Json::Str(provable.to_string())
    );

    // Cold: emit a certificate, then validate it through the server.
    let cold = service_in(&dir, 64, 8 << 20);
    let reply = Json::parse(&cold.handle_line(&with_proof)).unwrap();
    let cert = reply
        .get("certificate")
        .and_then(Json::as_str)
        .expect("cold reply carries a certificate")
        .to_string();
    let checkproof = format!(
        r#"{{"op":"checkproof","source":{},"cert":{}}}"#,
        Json::Str(provable.to_string()),
        Json::Str(cert.clone())
    );
    let verdict = Json::parse(&cold.handle_line(&checkproof)).unwrap();
    assert_eq!(verdict.get("valid").and_then(Json::as_bool), Some(true));
    assert_eq!(cold.metrics.proofs_emitted.load(Relaxed), 1);
    drop(cold); // the crash

    // Warm: both replies come from disk — same certificate bytes, valid
    // verdict, and the prover/validator never ran (zero re-proving).
    let warm = service_in(&dir, 64, 8 << 20);
    let reply = Json::parse(&warm.handle_line(&with_proof)).unwrap();
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        reply.get("certificate").and_then(Json::as_str),
        Some(cert.as_str()),
        "the warm certificate is byte-identical"
    );
    let verdict = Json::parse(&warm.handle_line(&checkproof)).unwrap();
    assert_eq!(verdict.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(verdict.get("valid").and_then(Json::as_bool), Some(true));
    assert_eq!(
        warm.metrics.proofs_emitted.load(Relaxed),
        0,
        "warm start re-serves proofs without re-proving"
    );
    assert_eq!(warm.metrics.checkproof_valid.load(Relaxed), 0);
    assert_eq!(warm.metrics.checkproof_cache_hits.load(Relaxed), 1);

    // The offline store inspection sees the certificate-bearing entry.
    let report = secflow::server::inspect_store(&dir).unwrap();
    assert_eq!(report.cert_entries(), 1);
}

/// A build whose certificates were wire version 1 keyed a `with_proof`
/// certify and a `checkproof` without the version. A store it wrote
/// must answer neither request here: the certificate would be one this
/// build's `checkproof` rejects, and the verdict one it would not give.
#[test]
fn results_keyed_without_the_certificate_version_are_not_reserved() {
    let dir = tmp_dir("cert-version");
    let provable = "var x, y : integer; cobegin y := x || x := 1 coend";
    let source = Json::Str(provable.to_string());
    let certify = format!(r#"{{"op":"certify","source":{source},"with_proof":true}}"#);
    let fresh = Json::parse(&Service::new(4, Limits::default()).handle_line(&certify)).unwrap();
    let cert = fresh.get("certificate").and_then(Json::as_str).unwrap();
    let v1_cert = reseal(&cert.replacen("\"version\":2", "\"version\":1", 1)).unwrap();
    let checkproof = format!(
        r#"{{"op":"checkproof","source":{source},"cert":{}}}"#,
        Json::Str(v1_cert.clone())
    );

    // The key parts of both builds, which differ only in the proof slot.
    // A plain certify's key did not change, which anchors the spelling.
    let key = |op: &str, slot: &str, cert: &str| {
        CacheKey::of(&[
            op, "two", "", "", "", slot, cert, "1000000", "", "", "", "", provable,
        ])
    };
    let plain = format!(r#"{{"op":"certify","source":{source}}}"#);
    for (line, slot) in [
        (&plain, ""),
        (&certify, "with_proof:v2"),
        (&checkproof, "checkproof:v2"),
    ] {
        let req = Request::parse(line).unwrap();
        let cert = req.cert.as_deref().unwrap_or("");
        assert_eq!(key(req.op.name(), slot, cert).hash, route_fingerprint(&req));
    }
    {
        let cfg = PersistConfig {
            fsync: FsyncMode::Always,
            ..PersistConfig::new(&dir)
        };
        let mut older = DurableStore::open(cfg).unwrap();
        let certified = CachedResult {
            ok: true,
            fields: vec![
                ("certified".to_string(), Json::Bool(true)),
                ("certificate".to_string(), Json::Str(v1_cert.clone())),
            ],
        };
        let valid = CachedResult {
            ok: true,
            fields: vec![("valid".to_string(), Json::Bool(true))],
        };
        older
            .append(&key("certify", "with_proof", ""), &certified)
            .unwrap();
        older
            .append(&key("checkproof", "", &v1_cert), &valid)
            .unwrap();
    }

    let warm = service_in(&dir, 64, 8 << 20);
    assert_eq!(persist_stat(&warm, "entries_recovered"), 2.0);
    let reply = Json::parse(&warm.handle_line(&certify)).unwrap();
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(false));
    let cert = reply.get("certificate").and_then(Json::as_str).unwrap();
    assert!(cert.contains(r#""version":2,"#), "{cert}");
    let verdict = Json::parse(&warm.handle_line(&checkproof)).unwrap();
    assert_eq!(verdict.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(verdict.get("valid").and_then(Json::as_bool), Some(false));
    assert_eq!(
        verdict
            .get("reason")
            .and_then(|r| r.get("stage"))
            .and_then(Json::as_str),
        Some("version")
    );
}

/// Warm start *from a peer* instead of from local disk: a cold node
/// with no store of its own drains a loaded peer's cache over
/// `peer-sync` (journal shipping over TCP, DESIGN §14) and then
/// answers the peer's whole corpus `cached:true`, byte-identically,
/// without re-proving a certificate or re-exploring a state space.
#[test]
fn warm_start_from_peer_ships_the_journal_without_recompute() {
    let dir_a = tmp_dir("peer-warm");
    let mut corpus = corpus();
    // Include a certificate-bearing entry so the zero-re-proving claim
    // has something to bite on.
    let provable = "var x, y : integer; cobegin y := x || x := 1 coend";
    corpus.push(format!(
        r#"{{"op":"certify","source":{},"with_proof":true}}"#,
        Json::Str(provable.to_string())
    ));

    // Node A computes the corpus once; the second pass is the cached
    // baseline the synced node must reproduce byte-for-byte.
    let a = service_in(&dir_a, 64, 8 << 20);
    for line in &corpus {
        a.handle_line(line);
    }
    let baseline: Vec<String> = corpus
        .iter()
        .map(|l| normalized(&a.handle_line(l)))
        .collect();
    assert!(baseline.iter().all(|r| r.contains(r#""cached":true"#)));
    drop(a);

    // Serve A's store over TCP on an ephemeral port.
    let cfg = secflow::server::ServerConfig {
        persist: Some(PersistConfig {
            fsync: FsyncMode::Always,
            ..PersistConfig::new(&dir_a)
        }),
        ..Default::default()
    };
    let listener = secflow::server::bind_ephemeral().unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = secflow::server::serve_listener(listener, cfg).unwrap();

    // Node B: fresh, diskless, empty. One sync drains the peer.
    let b = Service::new(64, Limits::default());
    let report = secflow::server::sync_from_peer(&b, &addr, Duration::from_secs(10))
        .expect("peer sync succeeds");
    assert_eq!(report.entries_rejected, 0, "genuine records all verify");
    assert_eq!(report.entries_installed as usize, corpus.len());
    assert!(report.pages >= 1);
    assert_eq!(b.cache_len(), corpus.len());

    let stream = TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert!(ack.contains("shutdown"), "ack: {ack}");
    server.join().expect("server thread");

    // B answers everything cached and byte-identical to the peer's own
    // cached replies — and never computed anything to do it.
    let synced: Vec<String> = corpus
        .iter()
        .map(|l| normalized(&b.handle_line(l)))
        .collect();
    assert_eq!(synced, baseline, "synced replies are byte-identical");
    assert!(synced.iter().all(|r| r.contains(r#""cached":true"#)));
    assert_eq!(b.metrics.proofs_emitted.load(Relaxed), 0, "no re-proving");
    assert_eq!(b.metrics.explore_states.load(Relaxed), 0, "no re-exploring");
    assert_eq!(b.metrics.cache_misses.load(Relaxed), 0);
    assert_eq!(b.metrics.cache_hits.load(Relaxed), corpus.len() as u64);
    assert_eq!(
        b.metrics.cluster_peer_syncs.load(Relaxed),
        0,
        "the client side of a sync is not a served peer-sync op"
    );
}

#[test]
fn evicted_entries_survive_in_the_journal_until_compaction() {
    let dir = tmp_dir("eviction");
    let certify = |tag: &str| {
        format!(
            r#"{{"op":"certify","source":{}}}"#,
            Json::Str(format!("var v{tag} : integer; v{tag} := {}", tag.len()))
        )
    };

    // Capacity 2, compaction disabled (journal_max_bytes = 0): the
    // third insert evicts the first from memory, but its journal record
    // remains.
    let small = service_in(&dir, 2, 0);
    for tag in ["a", "bb", "ccc"] {
        small.handle_line(&certify(tag));
    }
    assert_eq!(small.cache_len(), 2);
    drop(small);

    // A roomier restart recovers all three — eviction lost nothing
    // durable.
    let roomy = service_in(&dir, 8, 0);
    assert_eq!(persist_stat(&roomy, "entries_recovered"), 3.0);
    for tag in ["a", "bb", "ccc"] {
        let v = Json::parse(&roomy.handle_line(&certify(tag))).unwrap();
        assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true), "{tag}");
    }
    drop(roomy);

    // Now a tight journal budget: the next miss triggers a compaction,
    // which rewrites the journal as only the 2 entries live in the small
    // cache. The journal's memory of the evicted entries is gone — by
    // design.
    let compacting = service_in(&dir, 2, 1);
    compacting.handle_line(&certify("dddd"));
    assert!(persist_stat(&compacting, "compactions") >= 1.0);
    drop(compacting);

    let after = service_in(&dir, 8, 0);
    assert_eq!(
        persist_stat(&after, "entries_recovered"),
        2.0,
        "compaction keeps exactly the live cache"
    );
}

#[test]
fn flipped_byte_costs_one_frame_and_the_rest_recovers() {
    let dir = tmp_dir("corruption");
    let corpus = corpus();
    let cold = service_in(&dir, 64, 8 << 20);
    for line in &corpus {
        cold.handle_line(line);
    }
    drop(cold);

    let journal = dir.join("journal.wal");
    let mut bytes = std::fs::read(&journal).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&journal, &bytes).unwrap();

    let warm = service_in(&dir, 64, 8 << 20);
    assert_eq!(persist_stat(&warm, "frames_skipped"), 1.0);
    assert_eq!(
        persist_stat(&warm, "entries_recovered") as usize,
        corpus.len() - 1,
        "exactly the flipped frame is lost"
    );
    // Every request still answers ok; the lost one recomputes.
    let mut recomputed = 0;
    for line in &corpus {
        let v = Json::parse(&warm.handle_line(line)).unwrap();
        if v.get("cached").and_then(Json::as_bool) == Some(false) {
            recomputed += 1;
        }
    }
    assert_eq!(recomputed, 1, "one miss, everything else from disk");
}
