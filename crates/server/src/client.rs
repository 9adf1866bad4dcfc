//! A retrying TCP client for the JSON-lines protocol.
//!
//! Used by `secflow batch --remote` and the integration tests. Each
//! request attempt opens a fresh connection (robust against a server
//! that kills connections mid-response), and failures are classified
//! against the protocol's retryable/permanent taxonomy:
//!
//! - **retryable**: connect refusals/resets, IO errors, truncated
//!   responses, and server errors whose `kind` is retryable
//!   (`overloaded`, `timeout`, `internal`);
//! - **permanent**: server errors with a permanent `kind` (`protocol`,
//!   `parse`, `binding`, `fuel`) — retrying cannot change the answer.
//!
//! Retry pacing is exponential backoff with *decorrelated jitter*
//! (each sleep is drawn between the base delay and 3× the previous
//! sleep, capped), which spreads synchronized retry storms apart. The
//! jitter RNG is deterministic per client (seeded), so tests reproduce.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::fault::splitmix64;
use crate::json::Json;
use crate::protocol::{ErrorKind, Request};

/// How many times to try, and how to pace the attempts.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 = no retries.
    pub budget: u32,
    /// Base (and minimum) backoff sleep.
    pub base: Duration,
    /// Backoff ceiling per sleep.
    pub cap: Duration,
    /// Per-attempt IO timeout (connect/read/write); `None` = blocking.
    pub io_timeout: Option<Duration>,
    /// Jitter RNG seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            budget: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            io_timeout: Some(Duration::from_secs(10)),
            seed: 1,
        }
    }
}

/// Decorrelated-jitter backoff schedule: each sleep is uniform in
/// `[base, prev * 3]`, clamped to `[base, cap]`.
#[derive(Clone, Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    state: u64,
}

impl Backoff {
    /// A schedule starting at `base`, capped at `cap` (swapped if
    /// reversed), with a deterministic jitter stream from `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        let (base, cap) = if base <= cap {
            (base, cap)
        } else {
            (cap, base)
        };
        Backoff {
            base,
            cap,
            prev: base,
            state: seed,
        }
    }

    /// The next sleep in the schedule.
    pub fn next_delay(&mut self) -> Duration {
        self.state = self.state.wrapping_add(1);
        let r = splitmix64(self.state);
        let base_ms = self.base.as_millis() as u64;
        let cap_ms = self.cap.as_millis() as u64;
        let prev_ms = self.prev.as_millis() as u64;
        // Uniform in [base, max(base, prev * 3)], then clamp to cap.
        let hi = (prev_ms.saturating_mul(3)).max(base_ms);
        let span = hi - base_ms;
        let ms = if span == 0 {
            base_ms
        } else {
            base_ms + r % (span + 1)
        };
        let ms = ms.min(cap_ms).max(base_ms);
        self.prev = Duration::from_millis(ms);
        self.prev
    }
}

/// Why a call ultimately failed.
#[derive(Clone, Debug)]
pub enum ClientError {
    /// Retries exhausted; the last transient failure is included.
    BudgetExhausted {
        /// Attempts made (== the policy's budget).
        attempts: u32,
        /// Description of the final transient failure.
        last: String,
    },
    /// The server answered with a permanent error; retrying is useless.
    Permanent {
        /// The server's error kind.
        kind: ErrorKind,
        /// The server's error message.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BudgetExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempt(s): {last}")
            }
            ClientError::Permanent { kind, message } => {
                write!(f, "permanent {} error: {message}", kind.name())
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A JSON-lines client that retries transient failures with jittered
/// exponential backoff. One connection per attempt.
pub struct RemoteClient {
    addr: String,
    policy: RetryPolicy,
    /// Attempts made across all calls (for tests/telemetry).
    attempts: u64,
}

impl RemoteClient {
    /// A client for the server at `addr` (`host:port`).
    pub fn new(addr: &str, policy: RetryPolicy) -> RemoteClient {
        RemoteClient {
            addr: addr.to_string(),
            policy,
            attempts: 0,
        }
    }

    /// Total attempts made across all calls so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Sends `req` and returns the raw response line, retrying
    /// transient failures within the policy's budget.
    pub fn call(&mut self, req: &Request) -> Result<String, ClientError> {
        let line = req.to_line();
        let mut backoff = Backoff::new(self.policy.base, self.policy.cap, self.policy.seed);
        let budget = self.policy.budget.max(1);
        let mut last = String::new();
        for attempt in 0..budget {
            if attempt > 0 {
                std::thread::sleep(backoff.next_delay());
            }
            self.attempts += 1;
            match exchange(&self.addr, &line, self.policy.io_timeout) {
                Ok(response) => match classify(&response) {
                    Verdict::Done => return Ok(response),
                    Verdict::Transient(why) => last = why,
                    Verdict::Permanent { kind, message } => {
                        return Err(ClientError::Permanent { kind, message })
                    }
                },
                Err(e) => last = e.to_string(),
            }
        }
        Err(ClientError::BudgetExhausted {
            attempts: budget,
            last,
        })
    }
}

/// An opt-in pipelined client: one connection per round, up to
/// `window` requests in flight at once, replies correlated by `id`
/// (the request's index) and returned in request order. Used by the
/// chaos soak to stress the poll loop's out-of-order reply path.
///
/// Retry semantics, per round: transient failures — connect errors,
/// a connection closed mid-pipeline (which is how a stall or
/// write-high-water-mark disconnect looks from the last unanswered
/// request's point of view), and retryable server errors (`overloaded`,
/// `timeout`, `internal`, including the structured "slow reader
/// disconnected" overload) — leave their slots unanswered, and the next
/// round resends exactly those on a fresh connection after a jittered
/// backoff. Permanent server errors are final answers: their reply
/// lines are returned in place, mirroring batch semantics.
pub struct PipelinedClient {
    addr: String,
    policy: RetryPolicy,
    window: usize,
    /// Connection rounds made across all calls (for tests/telemetry).
    attempts: u64,
}

impl PipelinedClient {
    /// A client for the server at `addr` keeping up to `window`
    /// requests in flight on one connection.
    pub fn new(addr: &str, window: usize, policy: RetryPolicy) -> PipelinedClient {
        PipelinedClient {
            addr: addr.to_string(),
            policy,
            window: window.max(1),
            attempts: 0,
        }
    }

    /// Connection rounds made across all calls so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Sends every request down one pipelined connection and returns
    /// their reply lines in request order, retrying transiently-failed
    /// slots on fresh connections within the policy's budget.
    pub fn call_all(&mut self, reqs: &[Request]) -> Result<Vec<String>, ClientError> {
        let mut results: Vec<Option<String>> = vec![None; reqs.len()];
        let mut backoff = Backoff::new(self.policy.base, self.policy.cap, self.policy.seed);
        let budget = self.policy.budget.max(1);
        let mut last = String::new();
        for attempt in 0..budget {
            if attempt > 0 {
                std::thread::sleep(backoff.next_delay());
            }
            self.attempts += 1;
            if let Err(why) = self.round(reqs, &mut results) {
                last = why;
            }
            if results.iter().all(Option::is_some) {
                return Ok(results.into_iter().map(Option::unwrap).collect());
            }
            if last.is_empty() {
                let open = results.iter().filter(|r| r.is_none()).count();
                last = format!("{open} request(s) answered with retryable errors");
            }
        }
        Err(ClientError::BudgetExhausted {
            attempts: budget,
            last,
        })
    }

    /// One pipelined round over a fresh connection: sends every
    /// unanswered request (keeping at most `window` in flight), reads
    /// id-tagged replies in whatever order they arrive, and records the
    /// final ones. IO failures abort the round; unanswered slots are
    /// the next round's work either way.
    fn round(&self, reqs: &[Request], results: &mut [Option<String>]) -> Result<(), String> {
        let pending: Vec<usize> = (0..reqs.len()).filter(|&i| results[i].is_none()).collect();
        if pending.is_empty() {
            return Ok(());
        }
        let stream =
            open(&self.addr, self.policy.io_timeout).map_err(|e| format!("connect: {e}"))?;
        let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let mut reader = BufReader::new(stream);
        let mut next = 0; // cursor into `pending` not yet sent
        let mut answered = 0; // pending slots that got a reply this round
        let mut outstanding = 0;
        while answered < pending.len() {
            while next < pending.len() && outstanding < self.window {
                let i = pending[next];
                let mut req = reqs[i].clone();
                req.id = Some(Json::Num(i as f64));
                let line = req.to_line();
                writer
                    .write_all(line.as_bytes())
                    .and_then(|_| writer.write_all(b"\n"))
                    .and_then(|_| writer.flush())
                    .map_err(|e| format!("send: {e}"))?;
                next += 1;
                outstanding += 1;
            }
            let mut line = String::new();
            let n = reader
                .read_line(&mut line)
                .map_err(|e| format!("receive: {e}"))?;
            if n == 0 || !line.ends_with('\n') {
                return Err("connection closed mid-pipeline".to_string());
            }
            let line = line.trim().to_string();
            if line.is_empty() {
                continue;
            }
            // Replies without a usable id (e.g. a stray protocol error)
            // cannot be attributed to a slot; drop them, the slot's
            // retry will re-ask.
            let Some(i) = reply_index(&line, results.len()) else {
                continue;
            };
            if results[i].is_some() {
                continue;
            }
            answered += 1;
            outstanding = outstanding.saturating_sub(1);
            match classify(&line) {
                Verdict::Done => results[i] = Some(line),
                // Permanent server errors are final answers.
                Verdict::Permanent { .. } => results[i] = Some(line),
                // Retryable: leave the slot open for the next round.
                Verdict::Transient(_) => {}
            }
        }
        Ok(())
    }
}

/// One request/reply exchange on a fresh connection, shared by
/// [`RemoteClient`] and the cluster's peer calls: send `line` and a
/// newline, read one reply line. A reply cut off before its newline is
/// an `UnexpectedEof` error, never a short answer.
pub(crate) fn exchange(addr: &str, line: &str, timeout: Option<Duration>) -> io::Result<String> {
    let mut stream = open(addr, timeout)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    if !reply.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-reply",
        ));
    }
    reply.truncate(reply.trim_end().len());
    Ok(reply)
}

/// Connects to each address `addr` resolves to in turn, as
/// [`TcpStream::connect`] does (so `localhost:PORT` works), with
/// `timeout` bounding the connect and every later read and write
/// (`None` blocks).
fn open(addr: &str, timeout: Option<Duration>) -> io::Result<TcpStream> {
    let mut last = None;
    for sockaddr in addr.to_socket_addrs()? {
        let connected = match timeout {
            Some(timeout) => TcpStream::connect_timeout(&sockaddr, timeout),
            None => TcpStream::connect(sockaddr),
        };
        match connected {
            Ok(stream) => {
                stream.set_read_timeout(timeout)?;
                stream.set_write_timeout(timeout)?;
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("`{addr}` has no address"),
        )
    }))
}

/// The request index a reply line answers, when it carries one.
fn reply_index(line: &str, len: usize) -> Option<usize> {
    let v = Json::parse(line).ok()?;
    let i = v.get("id").and_then(Json::as_u64)? as usize;
    (i < len).then_some(i)
}

enum Verdict {
    Done,
    Transient(String),
    Permanent { kind: ErrorKind, message: String },
}

/// Classifies a response line against the error taxonomy. Unparseable
/// responses count as transient (protocol corruption on this attempt).
fn classify(response: &str) -> Verdict {
    let v = match Json::parse(response) {
        Ok(v) => v,
        Err(e) => return Verdict::Transient(format!("bad response JSON: {e}")),
    };
    if v.get("ok").and_then(Json::as_bool) != Some(false) {
        return Verdict::Done;
    }
    let kind = v
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .and_then(ErrorKind::from_name);
    let message = v
        .get("error")
        .and_then(|e| e.get("message"))
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_string();
    match kind {
        Some(kind) if kind.retryable() => {
            Verdict::Transient(format!("server: {} ({message})", kind.name()))
        }
        Some(kind) => Verdict::Permanent { kind, message },
        // Unknown kinds: fail open as permanent — a future server
        // speaking a newer taxonomy should not be hammered blindly.
        None => Verdict::Permanent {
            kind: ErrorKind::Protocol,
            message: format!("unknown error kind in `{response}`"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_jittered_bounded_and_deterministic() {
        let mut a = Backoff::new(Duration::from_millis(10), Duration::from_millis(100), 42);
        let mut b = Backoff::new(Duration::from_millis(10), Duration::from_millis(100), 42);
        let delays: Vec<Duration> = (0..32).map(|_| a.next_delay()).collect();
        let same: Vec<Duration> = (0..32).map(|_| b.next_delay()).collect();
        assert_eq!(delays, same, "same seed, same schedule");
        for d in &delays {
            assert!(*d >= Duration::from_millis(10), "below base: {d:?}");
            assert!(*d <= Duration::from_millis(100), "above cap: {d:?}");
        }
        let distinct: std::collections::HashSet<u128> =
            delays.iter().map(|d| d.as_millis()).collect();
        assert!(distinct.len() > 1, "no jitter at all");
    }

    #[test]
    fn classify_follows_taxonomy() {
        assert!(matches!(
            classify(r#"{"ok":true,"op":"stats"}"#),
            Verdict::Done
        ));
        assert!(matches!(
            classify(r#"{"ok":false,"error":{"kind":"overloaded","message":"q"}}"#),
            Verdict::Transient(_)
        ));
        assert!(matches!(
            classify(r#"{"ok":false,"error":{"kind":"timeout","message":"t"}}"#),
            Verdict::Transient(_)
        ));
        assert!(matches!(
            classify(r#"{"ok":false,"error":{"kind":"parse","message":"p"}}"#),
            Verdict::Permanent {
                kind: ErrorKind::Parse,
                ..
            }
        ));
        assert!(matches!(classify("garbage"), Verdict::Transient(_)));
        assert!(matches!(
            classify(r#"{"ok":false,"error":{"kind":"martian","message":"?"}}"#),
            Verdict::Permanent { .. }
        ));
    }

    /// The poll loop's graceful-degradation errors are retryable: the
    /// structured high-water-mark disconnect is an `overloaded` reply,
    /// and a stall/idle close arrives as a bare connection close, which
    /// the attempt layer already reports as a transient string.
    #[test]
    fn overload_and_stall_disconnects_classify_as_retryable() {
        let hwm = r#"{"ok":false,"error":{"kind":"overloaded","message":"write buffer high-water mark exceeded; slow reader disconnected"}}"#;
        assert!(matches!(classify(hwm), Verdict::Transient(_)));
        let queue_full = r#"{"id":3,"ok":false,"op":"certify","error":{"kind":"overloaded","message":"queue full; retry later"}}"#;
        assert!(matches!(classify(queue_full), Verdict::Transient(_)));
    }

    #[test]
    fn pipelined_client_exhausts_budget_against_a_dead_server() {
        let mut client = PipelinedClient::new(
            "127.0.0.1:1",
            8,
            RetryPolicy {
                budget: 2,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
                io_timeout: Some(Duration::from_millis(100)),
                seed: 9,
            },
        );
        let reqs = vec![Request::new(crate::protocol::Op::Stats, ""); 3];
        match client.call_all(&reqs) {
            Err(ClientError::BudgetExhausted { attempts, .. }) => assert_eq!(attempts, 2),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        assert_eq!(client.attempts(), 2);
    }

    #[test]
    fn refused_connection_exhausts_budget() {
        // Port 1 is essentially never listening.
        let mut client = RemoteClient::new(
            "127.0.0.1:1",
            RetryPolicy {
                budget: 3,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
                io_timeout: Some(Duration::from_millis(100)),
                seed: 7,
            },
        );
        let req = Request::new(crate::protocol::Op::Stats, "");
        match client.call(&req) {
            Err(ClientError::BudgetExhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        assert_eq!(client.attempts(), 3);
    }
}
