//! The `secflow` processes under test: spawned from the release binary,
//! ready when their banner names the bound address, observed through
//! the `stats` op and `/proc`, stopped with the `shutdown` op.

use std::io::{self, BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use secflow_server::json::Json;
use secflow_server::{Op, RemoteClient, Request, RetryPolicy};

/// How long a stopped server may take to drain and exit before it is
/// killed and the run fails.
const EXIT_GRACE: Duration = Duration::from_secs(60);

/// One running `secflow serve` or `secflow router` process.
pub struct Proc {
    child: Option<Child>,
    /// The address from the `listening on` banner.
    pub addr: String,
    /// Drains the rest of stderr so the child never blocks on it.
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawns `bin args…` and returns once its banner names the bound
    /// address (the banner is printed after journal recovery, when the
    /// listener serves).
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut seen = String::new();
        let addr = loop {
            let mut line = String::new();
            if stderr.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "`{}` exited before listening: {seen}",
                    args.join(" ")
                ));
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
            seen.push_str(&line);
        };
        let drain = thread::spawn(move || {
            let _ = io::copy(&mut stderr, &mut io::sink());
        });
        Ok(Proc {
            child: Some(child),
            addr,
            drain: Some(drain),
        })
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    }

    /// User plus system CPU time consumed so far, in clock ticks.
    pub fn cpu_ticks(&self) -> u64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // After the parenthesised command name, state is field 0 and
        // utime and stime are fields 11 and 12.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        field(11) + field(12)
    }

    /// The `stats` reply.
    pub fn stats(&self) -> Result<Json, String> {
        let line = control(&self.addr, Op::Stats)?;
        Json::parse(&line).map_err(|e| format!("bad stats reply: {e}"))
    }

    /// Sends `shutdown`, waits for the drained exit, and checks that the
    /// exit status is 0.
    pub fn shutdown(mut self) -> Result<(), String> {
        control(&self.addr, Op::Shutdown)?;
        let status = wait_bounded(self.child.take().expect("running"))?;
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("server at {} exited with {status}", self.addr))
        }
    }
}

impl Drop for Proc {
    /// A server still running here was abandoned by a failed run: kill
    /// it so no process outlives the benchmark.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One control request (`stats`, `shutdown`) on a fresh connection.
fn control(addr: &str, op: Op) -> Result<String, String> {
    let policy = RetryPolicy {
        budget: 1,
        io_timeout: Some(EXIT_GRACE),
        ..RetryPolicy::default()
    };
    RemoteClient::new(addr, policy)
        .call(&Request::new(op, ""))
        .map_err(|e| format!("{} on {addr}: {e}", op.name()))
}

/// Waits for `child` to exit, killing it if it takes longer than
/// [`EXIT_GRACE`].
fn wait_bounded(mut child: Child) -> Result<ExitStatus, String> {
    let pid = child.id();
    let (tx, rx) = mpsc::channel();
    let waiter = thread::spawn(move || {
        let _ = tx.send(child.wait());
    });
    let status = match rx.recv_timeout(EXIT_GRACE) {
        Ok(status) => status.map_err(|e| e.to_string()),
        Err(_) => {
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            let _ = rx.recv();
            Err(format!("process {pid} did not exit within {EXIT_GRACE:?}"))
        }
    };
    let _ = waiter.join();
    status
}

/// Runs a `secflow` subcommand to completion; returns its exit status
/// (not judged here) and stdout.
pub fn run_cli(bin: &Path, args: &[&str]) -> Result<(ExitStatus, String), String> {
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    Ok((
        out.status,
        String::from_utf8_lossy(&out.stdout).into_owned(),
    ))
}

/// `n` distinct loopback addresses the kernel just handed out. A
/// cluster's member list must be known before its nodes start, so each
/// port is bound, read and released here, and the nodes bind it again
/// at once.
pub fn reserve_addrs(n: usize) -> Result<Vec<String>, String> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot reserve ports: {e}"))?;
    listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| e.to_string())
}

/// A fresh, empty directory (any earlier content removed).
pub fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
