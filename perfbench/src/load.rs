//! The closed-loop load generator: `conns` lockstep connections from
//! this one process, each sending its next request only after the reply
//! to its previous one arrived. The callers of the service (`batch
//! --remote`, CI jobs) wait for each verdict, so a closed loop is their
//! model.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use crate::workload::{
    bool_field, certificate_token, check_reply, checkproof_line, num_field, Entry, Job, Kind,
};

/// Longest wait for one reply before the connection counts as broken.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);

/// Failure reasons kept per phase (the count is always exact).
const KEPT_FAILURES: usize = 8;

/// What one phase of jobs observed.
#[derive(Default)]
pub struct Phase {
    /// Per finished job: send of its first request to arrival of its
    /// last reply, in nanoseconds.
    pub rtt_ns: Vec<u64>,
    /// Per finished job: the sum of its replies' `us` (time inside the
    /// service that answered).
    pub server_us: Vec<u64>,
    /// Jobs whose replies passed every oracle check.
    pub ok: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    pub replies: u64,
    pub reply_bytes: u64,
    pub wall: Duration,
}

impl Phase {
    fn fail(&mut self, why: String) {
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why);
        }
    }

    fn absorb(&mut self, other: Phase) {
        self.rtt_ns.extend(other.rtt_ns);
        self.server_us.extend(other.server_us);
        self.ok += other.ok;
        for why in other.failures {
            self.fail(why);
        }
        self.replies += other.replies;
        self.reply_bytes += other.reply_bytes;
    }
}

/// Sends every job over `conns` lockstep connections to `addr`, checking
/// each reply against the job's oracle. Jobs are handed out in order
/// from one shared cursor, so the phase does a fixed amount of work.
pub fn closed_loop(addr: &str, conns: usize, entries: &[Entry], jobs: &[Job]) -> Phase {
    let next = AtomicUsize::new(0);
    let ready = Barrier::new(conns + 1);
    let total = Mutex::new(Phase::default());
    let start = thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut part = Phase::default();
                let conn = Conn::open(addr);
                ready.wait();
                match conn {
                    Ok(mut conn) => {
                        while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                            if let Err(e) = conn.run(entries, job, &mut part) {
                                part.fail(format!("connection to {addr} broke: {e}"));
                                break;
                            }
                        }
                    }
                    Err(e) => part.fail(format!("cannot connect to {addr}: {e}")),
                }
                total
                    .lock()
                    .expect("no thread panics holding it")
                    .absorb(part);
            });
        }
        ready.wait();
        Instant::now()
    });
    let mut phase = total.into_inner().expect("no thread panics holding it");
    phase.wall = start.elapsed();
    phase
}

/// One lockstep client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    reply: String,
    first: String,
}

impl Conn {
    fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
            out: Vec::new(),
            reply: String::new(),
            first: String::new(),
        })
    }

    /// Sends one line and reads its reply into `self.reply`.
    fn round_trip(&mut self, line: &str) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        if self.reply.ends_with('\n') {
            self.reply.pop();
        }
        Ok(())
    }

    /// Runs one job: one request, or for `Proof` the certify and the
    /// `checkproof` of its certificate. `Err` only when the connection
    /// itself broke; wrong replies are counted in `phase`.
    fn run(&mut self, entries: &[Entry], job: &Job, phase: &mut Phase) -> io::Result<()> {
        let start = Instant::now();
        self.round_trip(&job.line)?;
        let mut checked = false;
        if let Kind::Proof(_) = job.kind {
            if let Some(cert) = certificate_token(&self.reply) {
                let line = checkproof_line(job.id, &job.source, cert);
                std::mem::swap(&mut self.first, &mut self.reply);
                self.round_trip(&line)?;
                checked = true;
            }
        }
        let rtt = start.elapsed();
        let replies: &[&String] = if checked {
            &[&self.first, &self.reply]
        } else {
            &[&self.reply]
        };
        phase.rtt_ns.push(rtt.as_nanos() as u64);
        phase.server_us.push(
            replies
                .iter()
                .map(|r| num_field(r, "us").unwrap_or(0))
                .sum(),
        );
        phase.replies += replies.len() as u64;
        phase.reply_bytes += replies.iter().map(|r| r.len() as u64).sum::<u64>();
        let verdict = check_reply(entries, job, replies[0]).and_then(|()| match job.kind {
            Kind::Proof(_) if !checked => Err(format!("request {}: no certificate", job.id)),
            Kind::Proof(_) if bool_field(&self.reply, "valid") != Some(true) => Err(format!(
                "request {}: certificate did not validate: {}",
                job.id, self.reply
            )),
            _ => Ok(()),
        });
        match verdict {
            Ok(()) => phase.ok += 1,
            Err(why) => phase.fail(why),
        }
        Ok(())
    }
}
