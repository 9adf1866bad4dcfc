//! Robustness regressions over real TCP: structured timeouts under
//! deadline pressure, bounded request lines, panic-safe replies, and
//! the retrying client riding out dropped connections.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use secflow::lang::print_program;
use secflow::server::{
    serve_tcp, FaultPlan, Json, Op, RemoteClient, Request, RetryPolicy, ServerConfig, TcpServer,
};
use secflow::workload::dining_philosophers;

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

fn error_kind(v: &Json) -> Option<&str> {
    v.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
}

fn shutdown(server: TcpServer, client: &mut Client) {
    client.send(r#"{"op":"shutdown"}"#);
    let _ = client.recv();
    server.join().expect("server thread");
}

/// A deadline expiring mid-exploration comes back as a structured
/// `timeout` error, promptly (within 2x the deadline, with scheduling
/// slack), not after the full search.
#[test]
fn explore_deadline_returns_structured_timeout_promptly() {
    let cfg = ServerConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 0,
        ..ServerConfig::default()
    };
    let server = serve_tcp("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(&server);

    // Unordered dining philosophers: an interleaving space vastly
    // larger than any state cap, so only the deadline can stop it.
    let source = print_program(&dining_philosophers(3, 50, false));
    const DEADLINE_MS: u64 = 200;
    let req = format!(
        r#"{{"id":1,"op":"explore","source":{},"max_states":1000000,"timeout_ms":{DEADLINE_MS}}}"#,
        Json::Str(source)
    );
    let start = Instant::now();
    client.send(&req);
    let v = client.recv().unwrap();
    let elapsed = start.elapsed();
    assert_eq!(
        v.get("ok").and_then(Json::as_bool),
        Some(false),
        "expected a timeout error, got: {v}"
    );
    assert_eq!(error_kind(&v), Some("timeout"), "response: {v}");
    assert!(
        elapsed <= Duration::from_millis(2 * DEADLINE_MS),
        "timeout reply took {elapsed:?} against a {DEADLINE_MS} ms deadline"
    );

    shutdown(server, &mut client);
}

/// An over-long request line is refused with a structured `protocol`
/// error, bounded memory is retained, and the same connection keeps
/// working afterwards.
#[test]
fn oversized_line_is_rejected_and_connection_survives() {
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 8,
        cache_capacity: 0,
        max_line_bytes: 1024,
        ..ServerConfig::default()
    };
    let server = serve_tcp("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(&server);

    // 64 KiB of garbage on one line: far past the 1 KiB cap.
    let huge = "x".repeat(64 * 1024);
    client.send(&huge);
    let v = client.recv().unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&v), Some("protocol"), "response: {v}");
    assert!(
        v.get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap()
            .contains("exceeds"),
        "response: {v}"
    );

    // The stream resynchronized at the newline: a normal request on the
    // same connection is served.
    client.send(r#"{"id":2,"op":"stats"}"#);
    let v = client.recv().unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    assert_eq!(v.get("op").and_then(Json::as_str), Some("stats"));

    shutdown(server, &mut client);
}

/// A worker that panics mid-request still answers: the reply guard
/// degrades the panic to a structured (retryable) `internal` error, and
/// the pool goes on to serve the retry.
#[test]
fn injected_worker_panic_yields_internal_error_not_a_hang() {
    let mut plan = FaultPlan::new(11);
    plan.panic_per_mille = 1000;
    plan.max_faults = 1; // exactly the first pooled job panics
    let cfg = ServerConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 0,
        chaos: Some(Arc::new(plan)),
        ..ServerConfig::default()
    };
    let server = serve_tcp("127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(&server);

    client.send(r#"{"id":1,"op":"certify","source":"var x : integer; x := 1"}"#);
    let v = client.recv().expect("a reply despite the worker panic");
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&v), Some("internal"), "response: {v}");

    // The fault fuse is spent; the identical retry succeeds.
    client.send(r#"{"id":2,"op":"certify","source":"var x : integer; x := 1"}"#);
    let v = client.recv().unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");

    shutdown(server, &mut client);
}

/// The retrying client succeeds against a server that drops the first N
/// connection attempts on the floor.
#[test]
fn retrying_client_rides_out_dropped_connections() {
    let mut plan = FaultPlan::new(7);
    plan.drop_connects = 3;
    let cfg = ServerConfig {
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 0,
        chaos: Some(Arc::new(plan)),
        ..ServerConfig::default()
    };
    let server = serve_tcp("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().to_string();

    let mut client = RemoteClient::new(
        &addr,
        RetryPolicy {
            budget: 8,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            io_timeout: Some(Duration::from_secs(10)),
            seed: 3,
        },
    );
    let req = Request::new(Op::Certify, "var x : integer; x := 1");
    let response = client.call(&req).expect("retries ride out the drops");
    let v = Json::parse(&response).unwrap();
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "{v}");
    assert_eq!(
        client.attempts(),
        4,
        "exactly the three dropped connects cost extra attempts"
    );

    // Shut down over a plain connection (the drop budget is spent).
    let mut raw = Client::connect(&server);
    shutdown(server, &mut raw);
}
