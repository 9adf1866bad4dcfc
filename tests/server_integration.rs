//! End-to-end tests of the certification service over real TCP
//! connections: concurrency, cache hits observable via `stats`,
//! malformed requests, fuel limits, overload shedding, the write
//! high-water mark, and graceful shutdown draining in-flight work.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use secflow::lang::print_program;
use secflow::server::{
    serve_tcp, Json, Limits, Op, RemoteClient, Request, RetryPolicy, ServerConfig, Service,
    TcpServer,
};
use secflow::workload::sequential_chain;

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &TcpServer) -> Client {
        let writer = TcpStream::connect(server.local_addr()).expect("connect");
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { writer, reader }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send");
    }

    fn recv(&mut self) -> Option<Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(Json::parse(line.trim()).expect("response is valid JSON")),
            Err(e) => panic!("read failed: {e}"),
        }
    }
}

fn certify_line(id: u64, source: &str, classes: &str) -> String {
    format!(
        r#"{{"id":{id},"op":"certify","source":{},"classes":{classes}}}"#,
        Json::Str(source.to_string())
    )
}

fn chain_source(size: usize) -> String {
    print_program(&sequential_chain(size, 8))
}

fn config(workers: usize, queue: usize) -> ServerConfig {
    ServerConfig {
        workers,
        queue_capacity: queue,
        cache_capacity: 1024,
        limits: Limits::default(),
        ..ServerConfig::default()
    }
}

#[test]
fn sixty_four_concurrent_clients_all_served() {
    let server = serve_tcp("127.0.0.1:0", config(4, 256)).unwrap();
    let barrier = Arc::new(Barrier::new(64));
    let mut joins = Vec::new();
    for i in 0..64u64 {
        let addr_server = server.local_addr();
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            let writer = TcpStream::connect(addr_server).expect("connect");
            writer
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let mut reader = BufReader::new(writer.try_clone().unwrap());
            let mut writer = writer;
            // Distinct program per client so nothing is served by the
            // cache; all 64 requests are genuinely in flight together.
            let source = chain_source(100 + i as usize);
            let line = certify_line(i, &source, r#"{}"#);
            barrier.wait();
            writeln!(writer, "{line}").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            Json::parse(response.trim()).unwrap()
        }));
    }
    let mut ok = 0;
    for join in joins {
        let v = join.join().expect("client thread");
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "response: {v}"
        );
        assert_eq!(v.get("certified").and_then(Json::as_bool), Some(true));
        ok += 1;
    }
    assert_eq!(ok, 64);

    // All 64 were distinct: 64 misses, 0 hits. Now repeat one of them
    // verbatim and watch the hit counter move.
    let mut client = Client::connect(&server);
    let source = chain_source(100);
    client.send(&certify_line(900, &source, r#"{}"#));
    let v = client.recv().unwrap();
    assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));

    client.send(r#"{"id":901,"op":"stats"}"#);
    let stats = client.recv().unwrap();
    assert_eq!(stats.get("cache_hits").and_then(Json::as_u64), Some(1));
    assert!(stats.get("cache_misses").and_then(Json::as_u64).unwrap() >= 64);
    assert_eq!(stats.get("overloaded").and_then(Json::as_u64), Some(0));

    client.send(r#"{"id":902,"op":"shutdown"}"#);
    let ack = client.recv().unwrap();
    assert_eq!(ack.get("op").and_then(Json::as_str), Some("shutdown"));
    server.join().expect("server thread");
}

#[test]
fn malformed_fuel_limited_and_binding_errors() {
    let server = serve_tcp("127.0.0.1:0", config(2, 64)).unwrap();
    let mut client = Client::connect(&server);

    // Not JSON at all.
    client.send("certify plz");
    let v = client.recv().unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    let kind = |v: &Json| {
        v.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    assert_eq!(kind(&v).as_deref(), Some("protocol"));

    // Valid JSON, missing source.
    client.send(r#"{"id":1,"op":"certify"}"#);
    let v = client.recv().unwrap();
    assert_eq!(kind(&v).as_deref(), Some("protocol"));
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(1));

    // Unparsable program.
    client.send(&certify_line(2, "var x integer x :=", r#"{}"#));
    let v = client.recv().unwrap();
    assert_eq!(kind(&v).as_deref(), Some("parse"));

    // Over-fuel program: 100+ statements against fuel 3.
    let big = chain_source(100);
    client.send(&format!(
        r#"{{"id":3,"op":"certify","source":{},"fuel":3}}"#,
        Json::Str(big)
    ));
    let v = client.recv().unwrap();
    assert_eq!(kind(&v).as_deref(), Some("fuel"));

    // Unknown variable in the binding.
    client.send(&certify_line(
        4,
        "var x : integer; x := 0",
        r#"{"ghost":"high"}"#,
    ));
    let v = client.recv().unwrap();
    assert_eq!(kind(&v).as_deref(), Some("binding"));

    // The service survived all of it.
    client.send(&certify_line(5, "var x : integer; x := 0", r#"{}"#));
    let v = client.recv().unwrap();
    assert_eq!(v.get("certified").and_then(Json::as_bool), Some(true));

    client.send(r#"{"op":"shutdown"}"#);
    client.recv().unwrap();
    server.join().unwrap();
}

#[test]
fn lint_op_returns_structured_diagnostics() {
    let server = serve_tcp("127.0.0.1:0", config(2, 64)).unwrap();
    let mut client = Client::connect(&server);

    // The §2.2 semaphore channel: lint must surface the SF010
    // may-deadlock warning, with resolved positions on every entry.
    let channel = "var x, y : integer; sem : semaphore;
cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend";
    let line = format!(
        r#"{{"id":1,"op":"lint","source":{}}}"#,
        Json::Str(channel.to_string())
    );
    client.send(&line);
    let v = client.recv().unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    assert_eq!(v.get("op").and_then(Json::as_str), Some("lint"));
    assert_eq!(v.get("clean").and_then(Json::as_bool), Some(false));
    assert!(v.get("warnings").and_then(Json::as_u64).unwrap() >= 1);
    let diags = v
        .get("diagnostics")
        .and_then(|d| d.as_arr())
        .expect("diagnostics array");
    assert!(!diags.is_empty());
    for d in diags {
        assert!(d.get("code").and_then(Json::as_str).is_some(), "{d}");
        assert!(d.get("severity").and_then(Json::as_str).is_some(), "{d}");
        assert!(d.get("line").and_then(Json::as_u64).is_some(), "{d}");
        assert!(d.get("message").and_then(Json::as_str).is_some(), "{d}");
    }
    assert!(
        diags
            .iter()
            .any(|d| d.get("code").and_then(Json::as_str) == Some("SF010")),
        "{v}"
    );

    // A verbatim repeat is a cache hit, and the lint counter sees both.
    client.send(&line);
    let v = client.recv().unwrap();
    assert_eq!(v.get("cached").and_then(Json::as_bool), Some(true));
    client.send(r#"{"id":2,"op":"stats"}"#);
    let stats = client.recv().unwrap();
    assert_eq!(stats.get("lint").and_then(Json::as_u64), Some(2));

    client.send(r#"{"op":"shutdown"}"#);
    client.recv().unwrap();
    server.join().unwrap();
}

#[test]
fn overload_sheds_instead_of_hanging() {
    // 1 worker, queue of 2: eight connections flooding ten requests
    // each must overflow the queue; every request still gets exactly
    // one response (ok or overloaded), promptly.
    let server = serve_tcp("127.0.0.1:0", config(1, 2)).unwrap();
    let mut joins = Vec::new();
    for c in 0..8u64 {
        let addr = server.local_addr();
        joins.push(std::thread::spawn(move || {
            let writer = TcpStream::connect(addr).unwrap();
            writer
                .set_read_timeout(Some(Duration::from_secs(60)))
                .unwrap();
            let mut reader = BufReader::new(writer.try_clone().unwrap());
            let mut writer = writer;
            for i in 0..10u64 {
                let source = chain_source(1500 + (c * 10 + i) as usize);
                writeln!(writer, "{}", certify_line(c * 10 + i, &source, r#"{}"#)).unwrap();
            }
            let mut ok = 0;
            let mut overloaded = 0;
            for _ in 0..10 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let v = Json::parse(line.trim()).unwrap();
                if v.get("ok").and_then(Json::as_bool) == Some(true) {
                    ok += 1;
                } else {
                    let k = v
                        .get("error")
                        .and_then(|e| e.get("kind"))
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string();
                    assert_eq!(k, "overloaded", "unexpected error: {v}");
                    overloaded += 1;
                }
            }
            (ok, overloaded)
        }));
    }
    let mut total_ok = 0;
    let mut total_overloaded = 0;
    for join in joins {
        let (ok, overloaded) = join.join().unwrap();
        total_ok += ok;
        total_overloaded += overloaded;
    }
    assert_eq!(total_ok + total_overloaded, 80);
    assert!(
        total_overloaded > 0,
        "a queue of 2 never overflowed under an 80-request flood"
    );

    let mut client = Client::connect(&server);
    client.send(r#"{"op":"stats"}"#);
    let stats = client.recv().unwrap();
    assert_eq!(
        stats.get("overloaded").and_then(Json::as_u64),
        Some(total_overloaded)
    );
    client.send(r#"{"op":"shutdown"}"#);
    client.recv().unwrap();
    server.join().unwrap();
}

#[test]
fn shutdown_drains_in_flight_work() {
    // Two slow workers, twenty queued jobs, then shutdown from another
    // connection: every queued job must still be answered.
    let server = serve_tcp("127.0.0.1:0", config(2, 128)).unwrap();
    let mut worker_client = Client::connect(&server);
    for i in 0..20u64 {
        let source = chain_source(2000 + i as usize);
        worker_client.send(&certify_line(i, &source, r#"{}"#));
    }
    // Give the reader thread a moment to queue them all.
    std::thread::sleep(Duration::from_millis(50));

    let mut shutdown_client = Client::connect(&server);
    shutdown_client.send(r#"{"id":"bye","op":"shutdown"}"#);
    let ack = shutdown_client.recv().unwrap();
    assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(ack.get("id").and_then(Json::as_str), Some("bye"));

    // All twenty pipelined certifications arrive despite the shutdown.
    let mut seen = 0;
    while let Some(v) = worker_client.recv() {
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "response: {v}"
        );
        seen += 1;
        if seen == 20 {
            break;
        }
    }
    assert_eq!(seen, 20, "shutdown dropped in-flight work");
    let addr = server.local_addr();
    server.join().expect("server drains and exits");

    // And the listener is actually gone.
    assert!(TcpStream::connect(addr).is_err(), "port still accepting");
}

fn rejected_overloaded(server: &TcpServer) -> u64 {
    let line = RemoteClient::new(&server.local_addr().to_string(), RetryPolicy::default())
        .call(&Request::new(Op::Stats, ""))
        .expect("stats");
    let stats = Json::parse(&line).expect("stats parses");
    stats
        .get("conn")
        .and_then(|c| c.get("rejected_overloaded"))
        .and_then(Json::as_u64)
        .expect("stats carries conn.rejected_overloaded")
}

/// Drops `us` (elapsed time) and `cached` (where the answer came from,
/// not what it is) so replies compare byte-for-byte.
fn strip_timing(line: &str) -> String {
    let Ok(Json::Obj(fields)) = Json::parse(line) else {
        panic!("reply is not a JSON object: {line}");
    };
    Json::Obj(
        fields
            .into_iter()
            .filter(|(k, _)| k != "us" && k != "cached")
            .collect(),
    )
    .to_string()
}

/// The write high-water mark bounds the backlog a client leaves unread,
/// not the size of one reply. A lockstep reader gets a with-proof reply
/// four times the mark, whole; a client that pipelines such requests
/// and never reads is cut off with exactly one `overloaded` line.
#[test]
fn write_high_water_bounds_the_unread_backlog_not_one_reply() {
    let high_water = 64 * 1024;
    let server = serve_tcp(
        "127.0.0.1:0",
        ServerConfig {
            write_high_water: high_water,
            ..config(2, 128)
        },
    )
    .unwrap();
    let request = format!(
        r#"{{"id":1,"op":"certify","source":{},"with_proof":true}}"#,
        Json::Str(chain_source(100))
    );
    let reference = Service::new(16, Limits::default());
    let expected = strip_timing(&reference.handle_line(&request));
    assert!(
        expected.len() > 4 * high_water,
        "the reply outgrows the mark"
    );

    // A prompt reader: computed once, then served from the cache.
    let mut client = Client::connect(&server);
    for _ in 0..2 {
        client.send(&request);
        let mut reply = String::new();
        client.reader.read_line(&mut reply).expect("reply");
        let got = strip_timing(reply.trim_end());
        assert!(
            got == expected,
            "a {}-byte reply differs from the oracle's: {}",
            reply.len(),
            &got[..got.len().min(200)]
        );
    }
    assert_eq!(rejected_overloaded(&server), 0);

    // A slow reader: pipelined requests (13 MB of replies for 48, more
    // than the kernel buffers) sent in one write, then nothing read
    // until the server has given up on it. 100 requests outrun the
    // pipeline window, so some are still unread when the goodbye goes
    // out; it must arrive all the same.
    for (cut_off, requests) in [48, 100].into_iter().enumerate() {
        let cut_off = cut_off as u64;
        let slow = TcpStream::connect(server.local_addr()).expect("connect");
        slow.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let batch: String = (0..requests).map(|_| format!("{request}\n")).collect();
        (&slow).write_all(batch.as_bytes()).expect("send batch");
        let deadline = Instant::now() + Duration::from_secs(60);
        while rejected_overloaded(&server) == cut_off {
            assert!(
                Instant::now() < deadline,
                "the slow reader of {requests} requests was never cut off"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut received = Vec::new();
        (&slow).read_to_end(&mut received).expect("drain to EOF");
        let goodbyes: Vec<&[u8]> = received
            .split(|&b| b == b'\n')
            .filter(|line| line.windows(12).any(|w| w == b"\"overloaded\""))
            .collect();
        assert_eq!(
            goodbyes.len(),
            1,
            "exactly one overloaded line for {requests} requests"
        );
        let goodbye = Json::parse(std::str::from_utf8(goodbyes[0]).unwrap()).unwrap();
        assert_eq!(goodbye.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(rejected_overloaded(&server), cut_off + 1);
    }

    client.send(r#"{"op":"shutdown"}"#);
    client.recv().unwrap();
    server.join().unwrap();
}

/// Cache hits answered on the poll loop still pass through the pipeline
/// window: a client that pipelines far more hits than the high-water
/// mark holds replies for, and reads them on a second thread, gets every
/// reply and is never taken for a slow reader.
#[test]
fn pipelined_hits_that_are_read_are_never_cut_off() {
    let server = serve_tcp(
        "127.0.0.1:0",
        ServerConfig {
            write_high_water: 64 * 1024,
            ..config(2, 128)
        },
    )
    .unwrap();
    let source = chain_source(10);
    let mut client = Client::connect(&server);
    client.send(&certify_line(0, &source, "{}"));
    assert_eq!(
        client.recv().unwrap().get("ok").and_then(Json::as_bool),
        Some(true)
    );

    let requests = 2000u64;
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let replies = std::thread::spawn(move || {
        let mut replies = Vec::new();
        let mut line = String::new();
        while replies.len() < requests as usize && reader.read_line(&mut line).expect("read") > 0 {
            replies.push(Json::parse(line.trim()).expect("reply is valid JSON"));
            line.clear();
        }
        replies
    });
    let batch: String = (1..=requests)
        .map(|id| certify_line(id, &source, "{}") + "\n")
        .collect();
    assert!(batch.len() > 64 * 1024, "the requests outgrow the mark");
    (&stream).write_all(batch.as_bytes()).expect("send batch");
    let replies = replies.join().unwrap();
    if let Some(other) = replies
        .iter()
        .find(|v| v.get("cached").and_then(Json::as_bool) != Some(true))
    {
        panic!("after {} hits: {other}", replies.len());
    }
    let mut ids: Vec<u64> = replies
        .iter()
        .map(|v| v.get("id").and_then(Json::as_u64).expect("reply has an id"))
        .collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (1..=requests).collect::<Vec<_>>(),
        "every reply arrived"
    );
    assert_eq!(rejected_overloaded(&server), 0);

    client.send(r#"{"op":"shutdown"}"#);
    client.recv().unwrap();
    server.join().unwrap();
}

/// A cache hit answered on the poll loop is indistinguishable from one
/// a worker answers: the same sequence sent twice over TCP (misses go
/// to the pool, hits are answered on the loop) and twice through
/// `Service::handle_line` gives the same replies, outside `us`, and
/// the same counters.
#[test]
fn stats_cannot_tell_an_inline_hit_from_a_pooled_one() {
    let clean = "var x, y : integer; cobegin y := x || x := 1 coend";
    let leaky = "var x, y : integer; sem : semaphore;
        cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend";
    let certificate = {
        let prover = Service::new(4, Limits::default());
        let reply = prover.handle_line(&format!(
            r#"{{"op":"certify","source":{},"with_proof":true}}"#,
            Json::Str(clean.to_string())
        ));
        let v = Json::parse(&reply).unwrap();
        v.get("certificate")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    let lines = [
        certify_line(1, clean, r#"{"x":"high","y":"low"}"#),
        // Fails to parse: an error reply, cached like any verdict.
        r#"{"id":2,"op":"certify","source":"var x : integer; x :="}"#.to_string(),
        format!(
            r#"{{"id":3,"op":"checkproof","source":{},"cert":{}}}"#,
            Json::Str(clean.to_string()),
            Json::Str(certificate)
        ),
        // Far above `max_threads`: clamped, and the clamp is echoed.
        format!(
            r#"{{"id":4,"op":"explore","source":{},"inputs":{{"x":1}},"threads":64}}"#,
            Json::Str(leaky.to_string())
        ),
    ];
    let without_us = |line: &str| {
        let Ok(Json::Obj(fields)) = Json::parse(line) else {
            panic!("reply is not a JSON object: {line}");
        };
        Json::Obj(fields.into_iter().filter(|(k, _)| k != "us").collect()).to_string()
    };

    let server = serve_tcp("127.0.0.1:0", config(2, 64)).unwrap();
    let mut client = Client::connect(&server);
    let reference = Service::new(1024, Limits::default());
    for round in 0..2 {
        for line in &lines {
            client.send(line);
            let mut reply = String::new();
            client.reader.read_line(&mut reply).expect("reply");
            assert_eq!(
                without_us(reply.trim_end()),
                without_us(&reference.handle_line(line)),
                "round {round}: {line}"
            );
        }
    }

    client.send(r#"{"op":"stats"}"#);
    let over_tcp = client.recv().unwrap();
    let direct = Json::parse(&reference.handle_line(r#"{"op":"stats"}"#)).unwrap();
    let counter = |stats: &Json, path: &[&str]| {
        path.iter()
            .try_fold(stats, |v, key| v.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats lacks {path:?}: {stats}"))
    };
    for path in [
        &["requests"][..],
        &["certify"],
        &["checkproof"],
        &["explore"],
        &["cache_hits"],
        &["cache_misses"],
        &["errors"],
        &["threads_clamped"],
        &["cert", "cache_hits_by_digest"],
    ] {
        assert_eq!(
            counter(&over_tcp, path),
            counter(&direct, path),
            "{path:?} differs"
        );
    }
    assert_eq!(counter(&direct, &["cache_hits"]), 4, "the second round hit");
    let samples = |stats: &Json| match stats.get("latency_histogram") {
        Some(Json::Arr(buckets)) => buckets
            .iter()
            .map(|b| b.get("count").and_then(Json::as_u64).unwrap())
            .sum::<u64>(),
        other => panic!("latency_histogram is not an array: {other:?}"),
    };
    assert_eq!(samples(&over_tcp), samples(&direct), "latency samples");
    assert_eq!(samples(&direct), 8);

    client.send(r#"{"op":"shutdown"}"#);
    client.recv().unwrap();
    server.join().unwrap();
}

/// The loop's `poll` timeout comes from the deadlines it keeps: a
/// connection that never sends a byte gives the loop nothing else to
/// wake on, yet it is closed once its idle deadline passes.
#[test]
fn an_idle_connection_is_closed_at_its_deadline() {
    let server = serve_tcp(
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout_ms: 200,
            ..config(1, 4)
        },
    )
    .unwrap();
    let quiet = TcpStream::connect(server.local_addr()).expect("connect");
    quiet
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    let n = (&quiet)
        .read(&mut buf)
        .expect("the server closes the connection before the read times out");
    assert_eq!(n, 0, "EOF, not a reply");

    let mut client = Client::connect(&server);
    client.send(r#"{"op":"stats"}"#);
    let stats = client.recv().unwrap();
    assert_eq!(
        stats
            .get("conn")
            .and_then(|c| c.get("stalled_closed"))
            .and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
    client.send(r#"{"op":"shutdown"}"#);
    client.recv().unwrap();
    server.join().unwrap();
}
