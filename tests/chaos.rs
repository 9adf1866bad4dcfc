//! Chaos soak: 64 concurrent retrying clients against a server running
//! a seeded fault-injection plan (worker panics, IO errors, short IO,
//! injected latency, dropped connections). Asserts:
//!
//! - **liveness** — every client converges to an answer; no hangs;
//! - **convergence** — every answer matches a fault-free run of the
//!   same request (faults can delay an answer, never corrupt it);
//! - **panic isolation** — injected worker panics fired and were
//!   survived (`stats.panics`) with every worker still in the pool.
//!
//! The plan's fault fuse (`max_faults`) bounds total injected faults,
//! so each client's retry budget provably covers the worst case and the
//! soak terminates deterministically.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use secflow::lang::print_program;
use secflow::server::{
    serve_tcp, FaultPlan, Json, Limits, Op, RemoteClient, Request, RetryPolicy, ServerConfig,
    Service,
};
use secflow::workload::sequential_chain;

fn chain_source(size: usize) -> String {
    print_program(&sequential_chain(size, 8))
}

fn pool_stat(stats: &Json, field: &str) -> u64 {
    stats
        .get("pool")
        .and_then(|p| p.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing pool.{field}: {stats}"))
}

#[test]
fn chaos_soak_64_clients_converge_with_fault_free_run() {
    let mut plan = FaultPlan::new(42);
    plan.panic_per_mille = 1000;
    plan.io_error_per_mille = 60;
    plan.short_io_per_mille = 60;
    plan.latency_per_mille = 150;
    plan.latency_ms = 2;
    plan.drop_connects = 3;
    plan.max_faults = 120;
    let cfg = ServerConfig {
        workers: 4,
        queue_capacity: 256,
        cache_capacity: 1024,
        chaos: Some(Arc::new(plan)),
        ..ServerConfig::default()
    };
    let server = serve_tcp("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();

    // Worst case: every one of the <= 120 fused faults plus the 3
    // connection drops lands on a single client, each costing one
    // attempt. A budget of 150 therefore guarantees convergence.
    let barrier = Arc::new(Barrier::new(64));
    let mut joins = Vec::new();
    for i in 0..64u64 {
        let addr = addr.clone();
        let barrier = Arc::clone(&barrier);
        joins.push(std::thread::spawn(move || {
            // Distinct program per client so nothing rides the cache.
            let req = Request::new(Op::Certify, chain_source(20 + i as usize));
            let mut client = RemoteClient::new(
                &addr,
                RetryPolicy {
                    budget: 150,
                    base: Duration::from_millis(1),
                    cap: Duration::from_millis(20),
                    io_timeout: Some(Duration::from_secs(10)),
                    seed: i,
                },
            );
            barrier.wait();
            let response = client.call(&req).expect("client converges despite chaos");
            (i, response)
        }));
    }

    // The fault-free reference: identical service logic, no chaos.
    let reference = Service::new(0, Limits::default());
    for join in joins {
        let (i, response) = join.join().expect("client thread");
        let v = Json::parse(&response).expect("response is valid JSON");
        assert_eq!(
            v.get("ok").and_then(Json::as_bool),
            Some(true),
            "client {i}: {v}"
        );
        let req = Request::new(Op::Certify, chain_source(20 + i as usize));
        let expected = Json::parse(&reference.execute(&req)).unwrap();
        // `cached` may legitimately differ (a retry can hit the result
        // a lost first answer left behind); the verdict must not.
        assert_eq!(
            v.get("certified"),
            expected.get("certified"),
            "client {i} diverged from the fault-free run: {v} vs {expected}"
        );
        assert_eq!(
            v.get("statements"),
            expected.get("statements"),
            "client {i} diverged from the fault-free run: {v} vs {expected}"
        );
    }

    // The reply guard counts each panic before its `internal` reply
    // leaves, and the clients retried through such replies, so there is
    // nothing to wait for.
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writeln!(writer, r#"{{"op":"stats"}}"#).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let stats = Json::parse(line.trim()).unwrap();
    let panics = stats.get("panics").and_then(Json::as_u64);
    assert!(panics >= Some(1), "no injected panic fired: {stats}");
    assert_eq!(
        pool_stat(&stats, "workers"),
        4,
        "every worker is still in the pool: {stats}"
    );

    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    let mut ack = String::new();
    reader.read_line(&mut ack).unwrap();
    assert!(ack.contains("shutdown"), "ack: {ack}");
    server.join().expect("server thread");
}
