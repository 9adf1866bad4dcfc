//! `serve_bench` — E16: request latency through the TCP front-end (the
//! readiness-driven poll loop) at several concurrency levels, directly
//! and through the sharded-cluster path (client → router → 3-node ring,
//! one forward hop per uncached request), recorded as rows in
//! `BENCH_serve.json`.
//!
//! ```bash
//! cargo run --release -p secflow-bench --bin serve_bench [-- --quick]
//! ```
//!
//! Each client owns one connection and plays lockstep request/reply so
//! the numbers isolate front-end overhead (framing, readiness, reply
//! routing), not pipelining throughput. Requests rotate over a small
//! source pool, so after the first pass the result cache answers and
//! the certify cost itself stays out of the measurement. Each row's
//! `size` is the client count, and every row records the host's core
//! count: on a 1-core host the clients, the loop and the workers all
//! share that core.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use secflow_bench::{host_cores, write_rows, Row};
use secflow_lang::print_program;
use secflow_server::{
    bind_ephemeral, serve_listener, serve_tcp, ClusterConfig, Op, Request, ServerConfig,
};
use secflow_workload::sequential_chain;

const CLIENTS: [usize; 3] = [1, 8, 64];

struct Point {
    requests: usize,
    p50_us: u64,
    p99_us: u64,
    reqs_per_sec: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let per_client = if quick { 50 } else { 400 };

    let sources: Vec<String> = (0..16)
        .map(|i| print_program(&sequential_chain(10 + i, 4)))
        .collect();

    println!(
        "# serve_bench — {} host core(s), {per_client} reqs/client\n",
        host_cores()
    );
    let mut rows = Vec::new();
    // The router column: same lockstep clients, but every request
    // crosses the router and (when uncached) one forward hop to its
    // ring owner — the price of sharding, next to the direct rows.
    let columns: [(&str, &str, Cell); 2] = [
        ("frontend", "poll", run_level),
        ("cluster", "router", run_level_router),
    ];
    for (layer, column, cell) in columns {
        for clients in CLIENTS {
            let point = cell(clients, per_client, &sources);
            println!(
                "{column:9} clients={clients:<3} {:>6} reqs  p50={:>5}us  p99={:>6}us  {:>8.0} req/s",
                point.requests, point.p50_us, point.p99_us, point.reqs_per_sec
            );
            let mut row = |metric: &'static str, value: f64, unit: &'static str| {
                rows.push(Row {
                    layer,
                    workload: column.to_string(),
                    size: clients,
                    metric,
                    value,
                    unit,
                });
            };
            row("requests", point.requests as f64, "count");
            row("latency_p50_us", point.p50_us as f64, "us");
            row("latency_p99_us", point.p99_us as f64, "us");
            row("throughput_rps", point.reqs_per_sec, "req/s");
        }
        println!();
    }

    write_rows("BENCH_serve.json", &rows).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}

/// One concurrency cell: `(clients, requests per client, sources)` to
/// the measured point.
type Cell = fn(usize, usize, &[String]) -> Point;

/// The configuration of every server the bench starts.
fn node_config() -> ServerConfig {
    ServerConfig {
        workers: 4,
        queue_capacity: 512,
        cache_capacity: 4096,
        ..ServerConfig::default()
    }
}

/// One direct concurrency cell: fresh server, `clients` lockstep
/// connections, every per-request latency pooled for the percentiles.
fn run_level(clients: usize, per_client: usize, sources: &[String]) -> Point {
    let server = serve_tcp("127.0.0.1:0", node_config()).expect("bind");
    let addr = server.local_addr().to_string();

    let point = drive(&addr, clients, per_client, sources);

    shutdown(&addr);
    server.join().expect("server thread");
    point
}

/// The cluster cell: 3 sharded nodes plus a router, all in-process,
/// clients talking only to the router.
fn run_level_router(clients: usize, per_client: usize, sources: &[String]) -> Point {
    let listeners: Vec<_> = (0..3)
        .map(|_| bind_ephemeral().expect("bind node"))
        .collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    let mut servers = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let mut cluster = ClusterConfig::new(&addrs);
        cluster.self_addr = Some(addrs[i].clone());
        let cfg = ServerConfig {
            cluster: Some(cluster),
            ..node_config()
        };
        servers.push(serve_listener(listener, cfg).expect("serve node"));
    }
    let listener = bind_ephemeral().expect("bind router");
    let router_addr = listener.local_addr().unwrap().to_string();
    let cfg = ServerConfig {
        cluster: Some(ClusterConfig::new(&addrs)),
        ..node_config()
    };
    let router = serve_listener(listener, cfg).expect("serve router");

    let point = drive(&router_addr, clients, per_client, sources);

    shutdown(&router_addr);
    router.join().expect("router thread");
    for (addr, server) in addrs.iter().zip(servers) {
        shutdown(addr);
        server.join().expect("node thread");
    }
    point
}

/// `clients` lockstep connections against `addr`, every per-request
/// latency pooled for the percentiles.
fn drive(addr: &str, clients: usize, per_client: usize, sources: &[String]) -> Point {
    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let addr = addr.to_string();
        let lines: Vec<String> = (0..per_client)
            .map(|r| {
                let req = Request::new(Op::Certify, sources[(c + r) % sources.len()].clone());
                req.to_line() + "\n"
            })
            .collect();
        handles.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(&addr).expect("connect");
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut latencies = Vec::with_capacity(lines.len());
            let mut reply = String::new();
            for line in &lines {
                let t = Instant::now();
                writer.write_all(line.as_bytes()).expect("write");
                reply.clear();
                let n = reader.read_line(&mut reply).expect("read");
                assert!(n > 0, "server closed mid-bench");
                latencies.push(t.elapsed().as_micros() as u64);
            }
            latencies
        }));
    }
    let mut latencies: Vec<u64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("bench client"))
        .collect();
    let wall = started.elapsed().as_secs_f64();

    latencies.sort_unstable();
    let requests = latencies.len();
    Point {
        requests,
        p50_us: percentile(&latencies, 50),
        p99_us: percentile(&latencies, 99),
        reqs_per_sec: requests as f64 / wall,
    }
}

fn shutdown(addr: &str) {
    let mut ctl = TcpStream::connect(addr).expect("ctl connect");
    writeln!(ctl, r#"{{"op":"shutdown"}}"#).expect("shutdown");
    let mut ack = String::new();
    BufReader::new(&ctl).read_line(&mut ack).expect("ack");
}

/// Nearest-rank percentile of an already-sorted sample.
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}
