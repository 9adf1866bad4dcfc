//! `serve_bench` — E16: request latency through the TCP front-end (the
//! readiness-driven poll loop) at several concurrency levels, directly
//! and through the sharded-cluster path (client → router → 3-node ring,
//! one forward hop per uncached request), recorded as
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
//! the certify cost itself stays out of the measurement. The JSON
//! records the host's core count next to every row: on a 1-core host
//! the clients, the loop and the workers all share that core.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use secflow_lang::print_program;
use secflow_server::{
    bind_ephemeral, serve_listener, serve_tcp, ClusterConfig, Op, Request, ServerConfig,
};
use secflow_workload::sequential_chain;

const CLIENTS: [usize; 3] = [1, 8, 64];

struct Point {
    clients: usize,
    requests: usize,
    p50_us: u64,
    p99_us: u64,
    reqs_per_sec: f64,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let per_client = if quick { 50 } else { 400 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let sources: Vec<String> = (0..16)
        .map(|i| print_program(&sequential_chain(10 + i, 4)))
        .collect();

    println!("# serve_bench — {cores} host core(s), {per_client} reqs/client\n");
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &clients in &CLIENTS {
        let point = run_level(clients, per_client, &sources);
        println!(
            "{:9} clients={clients:<3} {:>6} reqs  p50={:>5}us  p99={:>6}us  {:>8.0} req/s",
            "poll", point.requests, point.p50_us, point.p99_us, point.reqs_per_sec
        );
        points.push(point);
    }
    println!();
    rows.push(("poll", points));

    // The cluster column: same lockstep clients, but every request
    // crosses the router and (when uncached) one forward hop to its
    // ring owner — the price of sharding, next to the direct rows.
    let mut points = Vec::new();
    for &clients in &CLIENTS {
        let point = run_level_router(clients, per_client, &sources);
        println!(
            "{:9} clients={clients:<3} {:>6} reqs  p50={:>5}us  p99={:>6}us  {:>8.0} req/s",
            "router", point.requests, point.p50_us, point.p99_us, point.reqs_per_sec
        );
        points.push(point);
    }
    println!();
    rows.push(("router", points));

    let json = render_json(cores, quick, per_client, &rows);
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}

/// One direct concurrency cell: fresh server, `clients` lockstep
/// connections, every per-request latency pooled for the percentiles.
fn run_level(clients: usize, per_client: usize, sources: &[String]) -> Point {
    let cfg = ServerConfig {
        workers: 4,
        queue_capacity: 512,
        cache_capacity: 4096,
        ..ServerConfig::default()
    };
    let server = serve_tcp("127.0.0.1:0", cfg).expect("bind");
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
    let node_cfg = || ServerConfig {
        workers: 4,
        queue_capacity: 512,
        cache_capacity: 4096,
        ..ServerConfig::default()
    };
    let mut servers = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let mut cluster = ClusterConfig::new(&addrs);
        cluster.self_addr = Some(addrs[i].clone());
        let cfg = ServerConfig {
            cluster: Some(cluster),
            ..node_cfg()
        };
        servers.push(serve_listener(listener, cfg).expect("serve node"));
    }
    let listener = bind_ephemeral().expect("bind router");
    let router_addr = listener.local_addr().unwrap().to_string();
    let cfg = ServerConfig {
        cluster: Some(ClusterConfig::new(&addrs)),
        ..node_cfg()
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
                format!("{}\n", req.to_line())
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
        clients,
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

fn render_json(
    cores: usize,
    quick: bool,
    per_client: usize,
    rows: &[(&str, Vec<Point>)],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"serve_bench\",\n");
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"requests_per_client\": {per_client},\n"));
    out.push_str("  \"columns\": [\n");
    for (i, (name, points)) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{name}\",\n"));
        out.push_str("      \"points\": [\n");
        for (j, p) in points.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"clients\": {}, \"requests\": {}, \"p50_us\": {}, \"p99_us\": {}, \"reqs_per_sec\": {:.0}}}{}\n",
                p.clients,
                p.requests,
                p.p50_us,
                p.p99_us,
                p.reqs_per_sec,
                if j + 1 < points.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
