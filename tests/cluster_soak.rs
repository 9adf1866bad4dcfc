//! The cluster soak: a 3-node sharded cluster plus a router, driven
//! differentially against a single-node fault-free oracle.
//!
//! Two stories, mirroring `tests/serve_soak.rs` one level up the
//! topology:
//!
//! - **exactly-once** — every distinct source delivered to every node
//!   *and* the router computes exactly once cluster-wide: the sum of
//!   the nodes' `cache_misses` equals the number of distinct sources,
//!   and the forward/single-flight counters in `stats` prove how;
//! - **chaos convergence** — with nodes SIGKILLed and restarted and
//!   inter-node connections dropped, stalled and erroring under a
//!   seeded fault plan, every reply a client ever receives is
//!   byte-identical (modulo the `us` and `cached` timing fields) with
//!   a fault-free single-node run of the same request.
//!
//! The chaos test runs the real `secflow` binary (SIGKILL needs a
//! process, not a thread) on OS-assigned ports; the exactly-once test
//! is fully in-process on `bind_ephemeral` + `serve_listener`.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

use secflow::lang::print_program;
use secflow::server::{
    bind_ephemeral, serve_listener, ClientError, ClusterConfig, ErrorKind, Json, Limits, Op,
    RemoteClient, Request, RetryPolicy, ServerConfig, Service,
};
use secflow::workload::sequential_chain;

const LEAKY: &str = "var x, y : integer; sem : semaphore;
    cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend";

fn soak_source(slot: usize) -> String {
    print_program(&sequential_chain(10 + slot, 6))
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

fn stats_of(addr: &str) -> Json {
    let mut client = RemoteClient::new(addr, RetryPolicy::default());
    let line = client
        .call(&Request::new(Op::Stats, ""))
        .unwrap_or_else(|e| panic!("stats from {addr}: {e:?}"));
    Json::parse(&line).expect("stats parses")
}

fn stat(stats: &Json, field: &str) -> u64 {
    stats
        .get(field)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing {field}: {stats}"))
}

fn cluster_stat(stats: &Json, field: &str) -> u64 {
    stats
        .get("cluster")
        .and_then(|c| c.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats missing cluster.{field}: {stats}"))
}

fn shutdown(addr: &str) {
    let stream = TcpStream::connect(addr).expect("shutdown connect");
    let mut writer = stream.try_clone().unwrap();
    writeln!(writer, r#"{{"op":"shutdown"}}"#).unwrap();
    let mut ack = String::new();
    BufReader::new(stream).read_line(&mut ack).unwrap();
    assert!(ack.contains("shutdown"), "ack: {ack}");
}

/// Every distinct source, delivered redundantly to every node and the
/// router, computes exactly once cluster-wide. The proof is in the
/// counters: misses (= computations) sum to the distinct-source count,
/// forwards carried the rest, and the explored state total across the
/// whole cluster equals one fault-free run's.
#[test]
fn three_node_cluster_computes_each_distinct_source_exactly_once() {
    let listeners: Vec<_> = (0..3).map(|_| bind_ephemeral().unwrap()).collect();
    let addrs: Vec<String> = listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    let mut servers = Vec::new();
    for (i, listener) in listeners.into_iter().enumerate() {
        let mut cluster = ClusterConfig::new(&addrs);
        cluster.self_addr = Some(addrs[i].clone());
        let cfg = ServerConfig {
            workers: 2,
            cache_capacity: 1024,
            cluster: Some(cluster),
            ..ServerConfig::default()
        };
        servers.push(serve_listener(listener, cfg).unwrap());
    }
    let listener = bind_ephemeral().unwrap();
    let router_addr = listener.local_addr().unwrap().to_string();
    let router_cfg = ServerConfig {
        workers: 2,
        cache_capacity: 1024,
        cluster: Some(ClusterConfig::new(&addrs)),
        ..ServerConfig::default()
    };
    let router = serve_listener(listener, router_cfg).unwrap();

    // The single-node fault-free oracle.
    let reference = Service::new(1024, Limits::default());
    let policy = RetryPolicy::default();

    let k = 24usize;
    for slot in 0..k {
        let req = Request::new(Op::Certify, soak_source(slot));
        reference.note_request();
        let expected = strip_timing(&reference.execute(&req));
        // Four redundant deliveries: each node directly, then the
        // router.
        for target in addrs.iter().chain(std::iter::once(&router_addr)) {
            let reply = RemoteClient::new(target, policy)
                .call(&req)
                .expect("node replies");
            assert_eq!(strip_timing(&reply), expected, "slot {slot} via {target}");
        }
    }

    // One expensive exploration, delivered everywhere: the state space
    // is searched exactly once in the whole cluster.
    let mut explore = Request::new(Op::Explore, LEAKY);
    explore.inputs = vec![("x".to_string(), 1)];
    reference.note_request();
    let expected = strip_timing(&reference.execute(&explore));
    for target in addrs.iter().chain(std::iter::once(&router_addr)) {
        let reply = RemoteClient::new(target, policy)
            .call(&explore)
            .expect("explore replies");
        assert_eq!(strip_timing(&reply), expected, "explore via {target}");
    }

    let node_stats: Vec<Json> = addrs.iter().map(|a| stats_of(a)).collect();
    let misses: u64 = node_stats.iter().map(|s| stat(s, "cache_misses")).sum();
    let forwards: u64 = node_stats.iter().map(|s| cluster_stat(s, "forwards")).sum();
    let forward_hits: u64 = node_stats
        .iter()
        .map(|s| cluster_stat(s, "forward_hits"))
        .sum();
    let states: u64 = node_stats.iter().map(|s| stat(s, "explore_states")).sum();
    assert_eq!(
        misses,
        k as u64 + 1,
        "each distinct request computes exactly once cluster-wide: {node_stats:?}"
    );
    assert_eq!(
        states,
        reference.metrics.explore_states.load(Relaxed),
        "the cluster explored the state space exactly once"
    );
    assert!(forwards > 0, "no request was ever forwarded");
    assert!(
        forward_hits > 0,
        "redundant deliveries never hit a peer's cache through a forward"
    );
    for s in &node_stats {
        assert_eq!(cluster_stat(s, "hash_ring_size"), 3);
    }
    let router_stats = stats_of(&router_addr);
    assert_eq!(
        stat(&router_stats, "cache_misses"),
        0,
        "a healthy router never computes: {router_stats}"
    );
    assert!(cluster_stat(&router_stats, "forwards") > 0);
    eprintln!(
        "exactly-once: {} distinct requests x4 deliveries -> {misses} computations, \
         {forwards} node forwards (+{} router), {forward_hits} forward hits, \
         {states} states explored (oracle: {})",
        k + 1,
        cluster_stat(&router_stats, "forwards"),
        reference.metrics.explore_states.load(Relaxed),
    );

    shutdown(&router_addr);
    router.join().expect("router thread");
    for (addr, server) in addrs.iter().zip(servers) {
        shutdown(addr);
        server.join().expect("node thread");
    }
}

/// Readmission repair end-to-end, in-process: a 2-node rf=2 cluster
/// where the replica arrives *late*. Writes served while it is down
/// reach only the primary, which skips the pushes it cannot deliver;
/// once the replica binds its reserved identity, the primary's probe
/// readmits it and asks it to `repair` from the primary, which pulls
/// the missed entries through the verified `peer-sync` path. A second
/// `repair` round confirms the digests already converged. Along the
/// way, a `certify` past the hop budget is refused with the structured
/// `max_hops_exhausted` error (never an answer to the op) over real
/// sockets.
#[test]
fn a_readmitted_replica_repairs_from_its_primary_and_digests_converge() {
    let addrs = reserve_addrs(2);
    let make_cfg = |i: usize| {
        let mut cluster = ClusterConfig::new(&addrs);
        cluster.self_addr = Some(addrs[i].clone());
        cluster.replication = 2;
        cluster.peer_timeout_ms = 300;
        ServerConfig {
            workers: 2,
            cache_capacity: 256,
            cluster: Some(cluster),
            ..ServerConfig::default()
        }
    };
    // Only node A comes up; B's port stays reserved-but-dead, so every
    // replica push owed to B fails fast (connection refused) until the
    // failure detector marks B DOWN and A stops trying.
    let server_a =
        serve_listener(std::net::TcpListener::bind(&addrs[0]).unwrap(), make_cfg(0)).unwrap();

    let policy = RetryPolicy::default();
    let k = 6usize;
    let mut replies = Vec::new();
    for slot in 0..k {
        let req = Request::new(Op::Certify, soak_source(slot));
        let reply = RemoteClient::new(&addrs[0], policy)
            .call(&req)
            .expect("the primary serves writes while its replica is down");
        replies.push(strip_timing(&reply));
    }
    let stats = stats_of(&addrs[0]);
    assert_eq!(cluster_stat(&stats, "replicas_sent"), 0);
    let health_of_b = stats
        .get("cluster")
        .and_then(|c| c.get("peers"))
        .and_then(Json::as_arr)
        .and_then(|peers| {
            peers
                .iter()
                .find(|p| p.get("addr").and_then(Json::as_str) == Some(addrs[1].as_str()))
        })
        .and_then(|p| p.get("health"))
        .and_then(Json::as_str);
    assert_eq!(health_of_b, Some("down"), "A sees B down: {stats}");

    // A request past the hop budget is a structured refusal, not an
    // answer.
    let mut relayed = Request::new(Op::Certify, soak_source(0));
    relayed.hops = 99;
    match RemoteClient::new(&addrs[0], policy).call(&relayed) {
        Err(ClientError::Permanent { kind, .. }) => {
            assert_eq!(kind, ErrorKind::MaxHopsExhausted)
        }
        other => panic!("expected a max_hops_exhausted refusal, got {other:?}"),
    }

    // B finally arrives at its reserved identity. A's probe readmits
    // it, and its one `repair` call makes B pull all k entries.
    let server_b =
        serve_listener(std::net::TcpListener::bind(&addrs[1]).unwrap(), make_cfg(1)).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    loop {
        let s = stats_of(&addrs[1]);
        if cluster_stat(&s, "repairs") == 1 && stat(&s, "cache_entries") == k as u64 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "the readmitted replica never repaired from its primary: {s}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // The repaired replica answers the same requests byte-identically
    // from cache — zero recomputation on B.
    for (slot, expected) in replies.iter().enumerate() {
        let req = Request::new(Op::Certify, soak_source(slot));
        let reply = RemoteClient::new(&addrs[1], policy)
            .call(&req)
            .expect("the recovered replica answers");
        assert_eq!(&strip_timing(&reply), expected, "slot {slot} via replica");
    }
    let stats_b = stats_of(&addrs[1]);
    assert_eq!(
        stat(&stats_b, "cache_misses"),
        0,
        "the replica recomputed something it was handed: {stats_b}"
    );

    // A second repair round finds both shard digests equal, so it is
    // a digest-compare no-op.
    let mut repair = Request::new(Op::Repair, "");
    repair.peer = Some(addrs[0].clone());
    let line = RemoteClient::new(&addrs[1], policy)
        .call(&repair)
        .expect("repair runs");
    let v = Json::parse(&line).unwrap();
    assert_eq!(v.get("digest_match").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("installed").and_then(Json::as_u64), Some(0));
    let digest_a = stats_of(&addrs[0])
        .get("cluster")
        .and_then(|c| c.get("shard_digest"))
        .and_then(Json::as_str)
        .map(str::to_string)
        .expect("digest in stats");
    let digest_b = stats_of(&addrs[1])
        .get("cluster")
        .and_then(|c| c.get("shard_digest"))
        .and_then(Json::as_str)
        .map(str::to_string)
        .expect("digest in stats");
    assert_eq!(digest_a, digest_b, "shard digests converged");

    shutdown(&addrs[0]);
    server_a.join().expect("node A thread");
    shutdown(&addrs[1]);
    server_b.join().expect("node B thread");
}

// ---- chaos: subprocess nodes, SIGKILL, seeded fault plans ------------

/// The built CLI binary, found relative to this test executable
/// (`target/debug/deps/cluster_soak-*` → `target/debug/secflow`).
fn secflow_bin() -> Option<PathBuf> {
    let mut p = std::env::current_exe().ok()?;
    p.pop(); // deps/
    p.pop(); // debug/
    let bin = p.join(format!("secflow{}", std::env::consts::EXE_SUFFIX));
    bin.exists().then_some(bin)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("secflow-cluster-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Node {
    child: Child,
    addr: String,
    // Held open so the child never blocks on a full stderr pipe; the
    // banner has already been consumed.
    _stderr: BufReader<ChildStderr>,
}

impl Node {
    /// Spawns `secflow <subcmd>` and reads the announced address back
    /// from the banner (ephemeral or explicit, the flow is the same).
    fn spawn(bin: &Path, subcmd: &str, args: &[&str]) -> Node {
        let mut child = Command::new(bin)
            .arg(subcmd)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("node spawns");
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let addr = loop {
            let mut line = String::new();
            let n = stderr.read_line(&mut line).expect("read banner");
            assert!(n > 0, "node exited before announcing its address");
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap().to_string();
            }
        };
        Node {
            child,
            addr,
            _stderr: stderr,
        }
    }

    fn kill_dash_nine(mut self) {
        self.child.kill().expect("kill");
        self.child.wait().expect("reap");
    }
}

/// Reserves three distinct loopback ports the OS just handed out, so
/// the cluster's member list can be fixed *before* any node starts
/// (and a killed node can restart at its old identity).
fn reserve_addrs(n: usize) -> Vec<String> {
    let listeners: Vec<_> = (0..n).map(|_| bind_ephemeral().unwrap()).collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect()
}

#[test]
fn cluster_chaos_soak_converges_with_single_node_fault_free_run() {
    let Some(bin) = secflow_bin() else {
        // `cargo test --test cluster_soak` alone does not build the CLI
        // binary; the full workspace test run does.
        eprintln!("skipping: secflow binary not built");
        return;
    };
    let addrs = reserve_addrs(3);
    let peers = addrs.join(",");
    let dirs: Vec<PathBuf> = (0..3).map(|i| tmp_dir(&format!("node{i}"))).collect();

    // Deterministic per-node fault plans: worker panics, IO errors,
    // short reads/writes, stalls and latency on every connection the
    // node serves — which includes the relayed requests and
    // `peer-sync` traffic its peers send it. The fault fuse bounds the damage so
    // every client converges.
    let chaos = |seed: usize| {
        format!(
            "seed={seed},panic=10,io=20,short=20,stall=10,latency=30,latency_ms=2,drop_connects=2,max_faults=60"
        )
    };
    let spawn_node = |i: usize, extra: &[&str]| -> Node {
        let chaos = chaos(40 + i);
        let mut args = vec![
            "--addr",
            &addrs[i],
            "--advertise",
            &addrs[i],
            "--peers",
            &peers,
            "--cache-dir",
            dirs[i].to_str().unwrap(),
            "--fsync",
            "always",
            "--workers",
            "2",
            "--peer-timeout-ms",
            "500",
            // Reap chaos-stalled connections fast so clients see a
            // clean close (one quick retry) instead of a 10s timeout.
            "--stall-timeout-ms",
            "1000",
            "--chaos",
            &chaos,
        ];
        args.extend_from_slice(extra);
        Node::spawn(&bin, "serve", &args)
    };
    let mut nodes: Vec<Option<Node>> = (0..3).map(|i| Some(spawn_node(i, &[]))).collect();
    let router = Node::spawn(
        &bin,
        "router",
        &["--addr", "127.0.0.1:0", "--peers", &peers],
    );

    // The single-node fault-free oracle every reply must match.
    let reference = Service::new(1024, Limits::default());
    let expect = |req: &Request| -> String {
        reference.note_request();
        strip_timing(&reference.execute(req))
    };
    // Worst case: one client absorbs a node's whole 60-fault fuse plus
    // the connect drops, one round each.
    let policy = RetryPolicy {
        budget: 80,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(20),
        io_timeout: Some(Duration::from_secs(10)),
        ..RetryPolicy::default()
    };
    let k = 12usize;
    let requests: Vec<Request> = (0..k)
        .map(|slot| Request::new(Op::Certify, soak_source(slot)))
        .collect();

    // Round 1: full cluster, through the router and directly.
    for (slot, req) in requests.iter().enumerate() {
        let expected = expect(req);
        let reply = RemoteClient::new(&router.addr, policy)
            .call(req)
            .expect("router replies under chaos");
        assert_eq!(strip_timing(&reply), expected, "round 1 slot {slot}");
        let direct = RemoteClient::new(&addrs[slot % 3], policy)
            .call(req)
            .expect("node replies under chaos");
        assert_eq!(strip_timing(&direct), expected, "round 1 direct {slot}");
    }

    // The first crash: node 0 dies mid-cluster, no warning, no flush.
    nodes[0].take().unwrap().kill_dash_nine();

    // Round 2: the survivors (and the router, re-routing around the
    // corpse) still answer everything, byte-identically.
    for (slot, req) in requests.iter().enumerate() {
        let expected = expect(req);
        let reply = RemoteClient::new(&router.addr, policy)
            .call(req)
            .expect("router replies with a dead node");
        assert_eq!(strip_timing(&reply), expected, "round 2 slot {slot}");
        let direct = RemoteClient::new(&addrs[1 + slot % 2], policy)
            .call(req)
            .expect("surviving node replies");
        assert_eq!(strip_timing(&direct), expected, "round 2 direct {slot}");
    }

    // Restart node 0 at its old identity — same address, same store —
    // and additionally warm-start it from a (chaos-ridden) peer.
    nodes[0] = Some(spawn_node(0, &["--sync-from", &addrs[1]]));

    // Round 3: the old corpus plus fresh sources across the healed
    // cluster, again both paths.
    let fresh: Vec<Request> = (k..k + 6)
        .map(|slot| Request::new(Op::Certify, soak_source(slot)))
        .collect();
    for (slot, req) in requests.iter().chain(fresh.iter()).enumerate() {
        let expected = expect(req);
        let reply = RemoteClient::new(&router.addr, policy)
            .call(req)
            .expect("router replies after restart");
        assert_eq!(strip_timing(&reply), expected, "round 3 slot {slot}");
        let direct = RemoteClient::new(&addrs[slot % 3], policy)
            .call(req)
            .expect("restarted cluster replies");
        assert_eq!(strip_timing(&direct), expected, "round 3 direct {slot}");
    }

    // The healed cluster is visible to the operator tooling: every
    // member answers `cluster-status`, exit 0.
    let status = Command::new(&bin)
        .args(["cluster-status", "--peers", &peers])
        .output()
        .expect("cluster-status runs");
    let table = String::from_utf8_lossy(&status.stdout);
    assert!(
        status.status.success(),
        "cluster-status found a dead member:\n{table}"
    );
    for addr in &addrs {
        assert!(table.contains(addr.as_str()), "missing {addr}:\n{table}");
    }
    eprintln!(
        "chaos soak: {} replies matched the fault-free oracle across a SIGKILL, \
         a --sync-from restart, and per-node fault plans; healed cluster:\n{table}",
        2 * (2 * k + k + 6)
    );

    router.kill_dash_nine();
    for node in nodes.into_iter().flatten() {
        node.kill_dash_nine();
    }
}

/// The self-healing soak (EXPERIMENTS E18): a 3-node rf=2 replicated
/// cluster under seeded network partitions — symmetric between nodes 0
/// and 2, asymmetric from node 1 towards node 0 — plus a SIGKILL with
/// *no* restart. Every reply during and after the faults must be
/// byte-identical with the fault-free single-node oracle; partition
/// drops charge the chaos fuse, so the links heal under probe traffic,
/// after which `secflow repair` converges the survivors' shard digests
/// and one `explore` is searched exactly once across them.
#[test]
fn self_healing_soak_partitions_sigkill_and_repair_converge_digests() {
    let Some(bin) = secflow_bin() else {
        eprintln!("skipping: secflow binary not built");
        return;
    };
    let addrs = reserve_addrs(3);
    let peers = addrs.join(",");
    let dirs: Vec<PathBuf> = (0..3).map(|i| tmp_dir(&format!("heal{i}"))).collect();

    // Node 0 <-> node 2: symmetric total partition (both directions
    // dropped); node 1 -> node 0: asymmetric, most calls dropped. Each
    // drop burns one fault from that node's fuse, so the partitions
    // heal on their own once the fuses blow — mostly under the failure
    // detector's probe traffic.
    let chaos = [
        format!("seed=21,partition={}~1000,max_faults=24", addrs[2]),
        format!("seed=22,partition={}~800,max_faults=12", addrs[0]),
        format!("seed=23,partition={}~1000,max_faults=24", addrs[0]),
    ];
    let spawn_node = |i: usize| -> Node {
        Node::spawn(
            &bin,
            "serve",
            &[
                "--addr",
                &addrs[i],
                "--advertise",
                &addrs[i],
                "--peers",
                &peers,
                "--replication",
                "2",
                "--cache-dir",
                dirs[i].to_str().unwrap(),
                "--workers",
                "2",
                "--peer-timeout-ms",
                "400",
                "--stall-timeout-ms",
                "1000",
                "--chaos",
                &chaos[i],
            ],
        )
    };
    let mut nodes: Vec<Option<Node>> = (0..3).map(|i| Some(spawn_node(i))).collect();

    let reference = Service::new(1024, Limits::default());
    let expect = |req: &Request| -> String {
        reference.note_request();
        strip_timing(&reference.execute(req))
    };
    let policy = RetryPolicy {
        budget: 40,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(20),
        io_timeout: Some(Duration::from_secs(10)),
        ..RetryPolicy::default()
    };

    // Round 1: the partitions are live. Every node still answers every
    // request byte-identically — replica pushes across dead links are
    // skipped, and forwards re-route or fall back to local compute;
    // availability never hinges on the partitioned link.
    let k = 10usize;
    let requests: Vec<Request> = (0..k)
        .map(|slot| Request::new(Op::Certify, soak_source(slot)))
        .collect();
    for (slot, req) in requests.iter().enumerate() {
        let expected = expect(req);
        for addr in &addrs {
            let reply = RemoteClient::new(addr, policy)
                .call(req)
                .expect("node replies under partition");
            assert_eq!(
                strip_timing(&reply),
                expected,
                "round 1 slot {slot} via {addr}"
            );
        }
    }

    // Node 1 dies mid-cluster and never comes back.
    nodes[1].take().unwrap().kill_dash_nine();

    // Round 2: the survivors answer the old corpus plus fresh sources.
    let fresh: Vec<Request> = (k..k + 6)
        .map(|slot| Request::new(Op::Certify, soak_source(slot)))
        .collect();
    for (slot, req) in requests.iter().chain(fresh.iter()).enumerate() {
        let expected = expect(req);
        for addr in [&addrs[0], &addrs[2]] {
            let reply = RemoteClient::new(addr, policy)
                .call(req)
                .expect("survivor replies after SIGKILL");
            assert_eq!(
                strip_timing(&reply),
                expected,
                "round 2 slot {slot} via {addr}"
            );
        }
    }

    // Heal + repair: retry `secflow repair` across the survivors until
    // the fuses have blown, the probes have closed the circuits, and
    // one pairwise round converges both shard digests (exit 0).
    let survivors = format!("{},{}", addrs[0], addrs[2]);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let repair_out = loop {
        let out = Command::new(&bin)
            .args(["repair", "--peers", &survivors, "--json"])
            .output()
            .expect("repair runs");
        if out.status.success() {
            break out;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "repair never converged the survivors:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        std::thread::sleep(Duration::from_millis(300));
    };
    let summary = String::from_utf8_lossy(&repair_out.stdout);
    assert!(
        summary.contains(r#""converged":true"#),
        "repair summary: {summary}"
    );

    // Zero re-exploration: one expensive search, delivered to both
    // survivors (with a repair round between, so the second delivery is
    // a cache hit either way), is explored exactly once between them.
    let mut explore = Request::new(Op::Explore, LEAKY);
    explore.inputs = vec![("x".to_string(), 1)];
    let expected = expect(&explore);
    let reply = RemoteClient::new(&addrs[0], policy)
        .call(&explore)
        .expect("survivor explores");
    assert_eq!(strip_timing(&reply), expected, "explore via node 0");
    let status = Command::new(&bin)
        .args(["repair", "--peers", &survivors])
        .status()
        .expect("second repair runs");
    assert!(status.success(), "post-explore repair converges");
    let reply = RemoteClient::new(&addrs[2], policy)
        .call(&explore)
        .expect("other survivor replies");
    assert_eq!(strip_timing(&reply), expected, "explore via node 2");
    let states: u64 = [&addrs[0], &addrs[2]]
        .iter()
        .map(|a| stat(&stats_of(a), "explore_states"))
        .sum();
    assert_eq!(
        states,
        reference.metrics.explore_states.load(Relaxed),
        "the survivors explored the state space exactly once between them"
    );

    // Operator view: the survivors agree on their shard digest in
    // `cluster-status --json`, and the full member list (which still
    // names the corpse) exits nonzero.
    let status = Command::new(&bin)
        .args(["cluster-status", "--peers", &survivors, "--json"])
        .output()
        .expect("cluster-status runs");
    assert!(status.status.success());
    let digests: Vec<String> = String::from_utf8_lossy(&status.stdout)
        .lines()
        .map(|line| {
            let v = Json::parse(line).expect("status line parses");
            assert_eq!(v.get("up").and_then(Json::as_bool), Some(true));
            v.get("shard_digest")
                .and_then(Json::as_str)
                .expect("digest present")
                .to_string()
        })
        .collect();
    assert_eq!(digests.len(), 2);
    assert_eq!(digests[0], digests[1], "survivors agree on the digest");
    let full = Command::new(&bin)
        .args(["cluster-status", "--peers", &peers])
        .status()
        .expect("cluster-status runs");
    assert!(
        !full.success(),
        "cluster-status must flag the SIGKILLed member"
    );
    eprintln!(
        "healing soak: {} oracle-identical replies across partitions and a SIGKILL; \
         survivors converged on digest {}",
        3 * k + 2 * (k + 6) + 2,
        digests[0]
    );

    for node in nodes.into_iter().flatten() {
        node.kill_dash_nine();
    }
}
