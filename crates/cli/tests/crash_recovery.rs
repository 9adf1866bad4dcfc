//! Kill-and-restart harness for `serve --cache-dir`: a server is fed a
//! corpus over stdio, killed with SIGKILL (no destructor, no flush —
//! the real crash), and restarted in the same directory. The warm
//! server must answer the whole corpus from disk: `cached:true`,
//! byte-identical replies modulo the `us` timing field, zero explored
//! states. Other tests flip one journal byte between the kill and the
//! restart (recovery skips exactly one frame), tear the journal's tail
//! (results acknowledged after the restart still recover), and send the
//! deepest program `parse` accepts to a single worker.

#![cfg(unix)]

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Duration;

use secflow_server::Json;

const LEAKY: &str = "var x, y : integer; sem : semaphore;
    cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("secflow-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(dir: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_secflow"))
            .args([
                "serve",
                "--cache-dir",
                dir.to_str().unwrap(),
                "--fsync",
                "always",
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("server spawns");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        Server {
            child,
            stdin,
            stdout,
        }
    }

    /// Sends every line, then collects one reply per line. Pipelined
    /// replies can arrive out of order, so they are keyed by `id`.
    fn round_trip(&mut self, lines: &[String]) -> HashMap<u64, Json> {
        for line in lines {
            writeln!(self.stdin, "{line}").expect("send");
        }
        self.stdin.flush().unwrap();
        let mut replies = HashMap::new();
        for _ in lines {
            let mut reply = String::new();
            self.stdout.read_line(&mut reply).expect("reply");
            let v = Json::parse(reply.trim()).expect("reply parses");
            let id = v.get("id").and_then(Json::as_u64).expect("reply has id");
            replies.insert(id, v);
        }
        replies
    }

    fn stats(&mut self) -> Json {
        writeln!(self.stdin, r#"{{"id":9999,"op":"stats"}}"#).unwrap();
        self.stdin.flush().unwrap();
        let mut reply = String::new();
        self.stdout.read_line(&mut reply).expect("stats reply");
        Json::parse(reply.trim()).expect("stats parses")
    }

    /// SIGKILL — the process gets no chance to flush or unwind.
    fn kill_dash_nine(mut self) {
        self.child.kill().expect("kill");
        self.child.wait().expect("reap");
    }
}

/// A subprocess node serving TCP on an OS-assigned ephemeral port (the
/// shared no-guessed-ports story: `--addr 127.0.0.1:0`, then the
/// announced address is read back from the banner). This is what lets
/// multi-node tests run under `--test-threads 4` without colliding.
struct TcpNode {
    child: Child,
    addr: String,
    // Held open so the child never sees a closed stderr pipe.
    _stderr: BufReader<ChildStderr>,
}

impl TcpNode {
    fn spawn(dir: &Path, extra: &[&str]) -> TcpNode {
        let mut child = Command::new(env!("CARGO_BIN_EXE_secflow"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--cache-dir",
                dir.to_str().unwrap(),
                "--fsync",
                "always",
            ])
            .args(extra)
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
        TcpNode {
            child,
            addr,
            _stderr: stderr,
        }
    }

    /// One connection, all lines in, one reply per line, keyed by id.
    fn round_trip(&self, lines: &[String]) -> HashMap<u64, Json> {
        let stream = TcpStream::connect(&self.addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
        let mut writer = stream.try_clone().unwrap();
        for line in lines {
            writeln!(writer, "{line}").expect("send");
        }
        writer.flush().unwrap();
        let mut reader = BufReader::new(stream);
        let mut replies = HashMap::new();
        for _ in lines {
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("reply");
            let v = Json::parse(reply.trim()).expect("reply parses");
            let id = v.get("id").and_then(Json::as_u64).expect("reply has id");
            replies.insert(id, v);
        }
        replies
    }

    fn stats(&self) -> Json {
        self.round_trip(&[r#"{"id":9999,"op":"stats"}"#.to_string()])
            .remove(&9999)
            .expect("stats reply")
    }

    fn kill_dash_nine(mut self) {
        self.child.kill().expect("kill");
        self.child.wait().expect("reap");
    }
}

fn corpus() -> Vec<String> {
    let src = |s: &str| Json::Str(s.to_string());
    vec![
        format!(
            r#"{{"id":1,"op":"certify","source":{},"classes":{{"x":"high"}}}}"#,
            src(LEAKY)
        ),
        format!(
            r#"{{"id":2,"op":"certify","source":{}}}"#,
            src("var a, b : integer; a := 1; b := a")
        ),
        format!(
            r#"{{"id":3,"op":"infer","source":{},"pins":{{"x":"high","y":"low"}}}}"#,
            src(LEAKY)
        ),
        format!(r#"{{"id":4,"op":"lint","source":{}}}"#, src(LEAKY)),
        format!(
            r#"{{"id":5,"op":"explore","source":{},"inputs":{{"x":1}}}}"#,
            src(LEAKY)
        ),
    ]
}

/// Drops the per-response `us` timing field at every nesting level.
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

fn persist_stat(stats: &Json, field: &str) -> u64 {
    stats
        .get("persist")
        .and_then(|p| p.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("persist.{field} missing in {stats:?}"))
}

#[test]
fn sigkilled_server_warm_starts_with_identical_replies() {
    let dir = tmp_dir("warm");
    let corpus = corpus();

    // Cold server: first pass computes (and journals, fsync always);
    // second pass is the cached baseline the warm replies must match.
    let mut cold = Server::spawn(&dir);
    cold.round_trip(&corpus);
    let baseline = cold.round_trip(&corpus);
    for (id, v) in &baseline {
        assert_eq!(
            v.get("cached").and_then(Json::as_bool),
            Some(true),
            "id {id} not cached on second pass"
        );
    }
    cold.kill_dash_nine();

    // Warm server, same directory, after the kill.
    let mut warm = Server::spawn(&dir);
    let warm_replies = warm.round_trip(&corpus);
    for (id, v) in &baseline {
        assert_eq!(
            strip_us(&warm_replies[id]).to_string(),
            strip_us(v).to_string(),
            "id {id} differs after recovery"
        );
    }
    let stats = warm.stats();
    assert_eq!(
        persist_stat(&stats, "entries_recovered"),
        corpus.len() as u64
    );
    assert_eq!(persist_stat(&stats, "frames_skipped"), 0);
    assert_eq!(
        stats.get("explore_states").and_then(Json::as_u64),
        Some(0),
        "warm corpus must trigger zero re-exploration"
    );
    assert_eq!(
        stats.get("cache_misses").and_then(Json::as_u64),
        Some(0),
        "warm corpus must be served entirely from disk"
    );
    warm.kill_dash_nine();
}

/// The TCP variant of the kill-and-restart story, composed with peer
/// warm start: node A (its own store) is SIGKILLed, restarted warm on a
/// *new* ephemeral port, and then a cold node B — empty store —
/// `--sync-from`s it at boot. After A dies for good, B alone answers
/// A's whole corpus from its shipped journal: `cached:true`,
/// byte-identical modulo `us`, zero re-exploration, zero misses.
#[test]
fn sigkilled_node_warm_starts_a_cold_peer_over_tcp() {
    let dir_a = tmp_dir("peer-src");
    let dir_b = tmp_dir("peer-dst");
    let corpus = corpus();

    let a = TcpNode::spawn(&dir_a, &[]);
    a.round_trip(&corpus);
    let baseline = a.round_trip(&corpus);
    for (id, v) in &baseline {
        assert_eq!(
            v.get("cached").and_then(Json::as_bool),
            Some(true),
            "id {id} not cached on second pass"
        );
    }
    a.kill_dash_nine();

    // A warm restart on a fresh port — the store, not the socket, is
    // the identity — then B ships its journal before serving.
    let a2 = TcpNode::spawn(&dir_a, &[]);
    let b = TcpNode::spawn(&dir_b, &["--sync-from", &a2.addr]);
    a2.kill_dash_nine();

    let synced = b.round_trip(&corpus);
    for (id, v) in &baseline {
        assert_eq!(
            strip_us(&synced[id]).to_string(),
            strip_us(v).to_string(),
            "id {id} differs after peer sync"
        );
    }
    let stats = b.stats();
    assert_eq!(
        stats.get("explore_states").and_then(Json::as_u64),
        Some(0),
        "peer-synced corpus must trigger zero re-exploration"
    );
    assert_eq!(
        stats.get("cache_misses").and_then(Json::as_u64),
        Some(0),
        "peer-synced corpus must be served entirely from the shipped journal"
    );
    b.kill_dash_nine();
}

#[test]
fn corrupted_journal_byte_skips_one_frame_on_warm_start() {
    let dir = tmp_dir("corrupt");
    let corpus = corpus();
    let mut cold = Server::spawn(&dir);
    cold.round_trip(&corpus);
    cold.kill_dash_nine();

    let journal = dir.join("journal.wal");
    let mut bytes = std::fs::read(&journal).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&journal, &bytes).unwrap();

    let mut warm = Server::spawn(&dir);
    let stats = warm.stats();
    assert_eq!(persist_stat(&stats, "frames_skipped"), 1);
    assert_eq!(
        persist_stat(&stats, "entries_recovered"),
        corpus.len() as u64 - 1
    );
    // The store still serves: every request answers, one recomputes.
    let replies = warm.round_trip(&corpus);
    let recomputed = replies
        .values()
        .filter(|v| v.get("cached").and_then(Json::as_bool) == Some(false))
        .count();
    assert_eq!(recomputed, 1, "exactly the corrupted entry recomputes");
    warm.kill_dash_nine();
}

/// A distinct `certify` per tag, so each one is a miss and an append.
fn certify_line(id: u64, tag: &str) -> String {
    format!(
        r#"{{"id":{id},"op":"certify","source":{}}}"#,
        Json::Str(format!("var {tag} : integer; {tag} := 1"))
    )
}

/// A crash that tears the journal's tail must not hide the results
/// acknowledged after the restart: recovery cuts the torn bytes off, so
/// later appends land where the next scan reads them.
#[test]
fn a_torn_tail_hides_no_result_acknowledged_after_it() {
    let dir = tmp_dir("torn-tail");
    let mut first = Server::spawn(&dir);
    first.round_trip(&[certify_line(1, "a"), certify_line(2, "b")]);
    first.kill_dash_nine();

    let journal = dir.join("journal.wal");
    let bytes = std::fs::read(&journal).unwrap();
    std::fs::write(&journal, &bytes[..bytes.len() - 7]).unwrap();

    let mut torn = Server::spawn(&dir);
    let stats = torn.stats();
    assert_eq!(persist_stat(&stats, "entries_recovered"), 1);
    assert_eq!(persist_stat(&stats, "frames_skipped"), 1);
    let later: Vec<String> = ["c", "d", "e"]
        .iter()
        .zip(3..)
        .map(|(tag, id)| certify_line(id, tag))
        .collect();
    for (id, v) in torn.round_trip(&later) {
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true), "id {id}");
    }
    torn.kill_dash_nine();

    let mut warm = Server::spawn(&dir);
    let stats = warm.stats();
    assert_eq!(persist_stat(&stats, "entries_recovered"), 4);
    assert_eq!(persist_stat(&stats, "frames_skipped"), 0);
    for (id, v) in warm.round_trip(&later) {
        assert_eq!(
            v.get("cached").and_then(Json::as_bool),
            Some(true),
            "id {id} was acknowledged before the kill"
        );
    }
    warm.kill_dash_nine();
}

/// A pool worker survives the deepest program `parse` accepts: the
/// unoptimized server proves it with a certificate and validates that
/// certificate as a string and as an inline object. Each needs more
/// than a thread's default 2 MiB of stack, and an overflow would abort
/// the whole process.
#[test]
fn workers_prove_and_check_the_deepest_program() {
    let src = format!(
        "var x : integer; s : semaphore; {} wait(s)",
        "while x > 0 do ".repeat(299)
    );
    let node = TcpNode::spawn(&tmp_dir("deep-a"), &["--workers", "1"]);
    let certify = format!(
        r#"{{"id":1,"op":"certify","source":{},"with_proof":true}}"#,
        Json::Str(src.clone())
    );
    let reply = node.round_trip(&[certify]).remove(&1).unwrap();
    let cert = reply
        .get("certificate")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no certificate in {reply:?}"))
        .to_string();
    let as_string = format!(
        r#"{{"id":2,"op":"checkproof","source":{},"cert":{}}}"#,
        Json::Str(src.clone()),
        Json::Str(cert.clone())
    );
    let verdict = node.round_trip(&[as_string]).remove(&2).unwrap();
    assert_eq!(verdict.get("valid"), Some(&Json::Bool(true)), "{verdict:?}");
    node.kill_dash_nine();

    // A fresh node, so the inline form is validated, not a cache hit.
    let node = TcpNode::spawn(&tmp_dir("deep-b"), &["--workers", "1"]);
    let inline = format!(
        r#"{{"id":3,"op":"checkproof","source":{},"cert":{cert}}}"#,
        Json::Str(src)
    );
    let verdict = node.round_trip(&[inline]).remove(&3).unwrap();
    assert_eq!(verdict.get("valid"), Some(&Json::Bool(true)), "{verdict:?}");
    node.kill_dash_nine();
}
