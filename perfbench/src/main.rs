//! `secflow-perfbench`: the end-to-end and per-layer benchmark of the
//! certification service.
//!
//! Runs the release `secflow serve` / `secflow router` binaries as
//! subprocesses and drives them from this one process with a closed
//! loop of `nproc` lockstep connections, checking every reply against
//! an oracle. `--trace 0` prints the workload's end-to-end metrics;
//! `--trace 1` prints its per-layer metrics, from the `stats` counters
//! of one TCP round and from an in-process replay of the same requests
//! with spans around each layer (see `trace.rs`).
//!
//! ```text
//! secflow-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                   --secflow PATH --work DIR
//! ```
//!
//! The last line of stdout is the result object (`correct`,
//! `attempted`, `failed`, `metrics`); the line before it is the run's
//! provenance.

mod load;
mod server;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use secflow_server::json::Json;
use secflow_server::{DurableStore, FsyncMode, Limits, PersistConfig, ResultCache, Service};

use load::Phase;
use server::{fresh_dir, reserve_addrs, run_cli, Proc};
use workload::{Job, Plan, Workload};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// A measuring run boots its servers at least this many times, so
/// `setup_s` and the per-round throughput are medians of several.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 64;

/// Fewest latency samples of a measuring run, so its p99 has at least
/// ten samples beyond it.
const MIN_SAMPLES: usize = 1000;

/// Microseconds per `/proc` clock tick (`USER_HZ` is 100 on Linux).
const US_PER_TICK: f64 = 10_000.0;

/// How a workload's servers are configured and how much one round
/// sends. Counts are passes over the workload's multiset, so every
/// round carries the same work.
struct Sizing {
    /// `--cache` of every server process.
    cache: usize,
    /// `--journal-max-bytes`, when not the default.
    journal_max_bytes: Option<u64>,
    warmup_cycles: usize,
    timed_cycles: usize,
    /// Passes the traced run replays in-process.
    replay_cycles: usize,
}

fn sizing(workload: Workload) -> Sizing {
    match workload {
        // The 256-request hot set fits the default cache; every timed
        // request is a hit.
        Workload::HotCertify => Sizing {
            cache: 4096,
            journal_max_bytes: None,
            warmup_cycles: 1,
            timed_cycles: 40,
            replay_cycles: 2,
        },
        // Two cache entries per transaction: the warm-up's 45
        // transactions overfill the 32-entry LRU, so timed requests
        // recycle memory. A 1 MiB journal compacts every dozen or so
        // transactions, so compaction is part of every percentile
        // rather than a rare outlier.
        Workload::ColdProof => Sizing {
            cache: 32,
            journal_max_bytes: Some(1 << 20),
            warmup_cycles: 3,
            timed_cycles: 30,
            replay_cycles: 2,
        },
        Workload::ExploreSweep => Sizing {
            cache: 64,
            journal_max_bytes: None,
            warmup_cycles: 3,
            timed_cycles: 20,
            replay_cycles: 2,
        },
        // `repair` can converge only if every node can hold the union
        // of a round's entries, so the cache holds a whole round.
        Workload::ClusterReplicated => Sizing {
            cache: 8192,
            journal_max_bytes: None,
            warmup_cycles: 10,
            timed_cycles: 150,
            replay_cycles: 20,
        },
    }
}

struct Ctx {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    traced: bool,
    secflow: PathBuf,
    work: PathBuf,
    /// Lockstep connections and server workers: the host's cores.
    conns: usize,
    sizing: Sizing,
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let (mut secflow, mut work) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--secflow" => secflow = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Ctx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: Duration::from_secs_f64(seconds.ok_or("--seconds is required")?.max(0.0)),
        traced: traced.unwrap_or(false),
        secflow: secflow.ok_or("--secflow is required")?,
        work: work.ok_or("--work is required")?,
        conns: std::thread::available_parallelism().map_or(1, usize::from),
        sizing: sizing(workload),
    })
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&ctx) {
        Ok((provenance, result)) => {
            println!("{provenance}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One metric of the result object.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn run(ctx: &Ctx) -> Result<(Json, Json), String> {
    let host = HostCpu::now();
    fresh_dir(ctx.work.clone())?;
    let version = run_cli(&ctx.secflow, &["--version"])?.1.trim().to_string();
    let mut plan = Plan::new(ctx.workload, ctx.seed);
    if ctx.workload == Workload::HotCertify {
        prepare_hot(ctx, &plan)?;
    }
    let run = if ctx.traced {
        traced_run(ctx, &mut plan)?
    } else {
        measured_run(ctx, &mut plan)?
    };
    let rounds = &run.rounds;
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum::<u64>() + run.extra_attempted;
    let failed: u64 = rounds.iter().map(|r| r.failed()).sum::<u64>() + run.extra_failed;
    let mut failures: Vec<Json> = rounds
        .iter()
        .flat_map(|r| {
            r.problems
                .iter()
                .chain(&r.warm.failures)
                .chain(&r.timed.failures)
        })
        .chain(&run.extra_failures)
        .take(8)
        .map(|f| Json::Str(f.clone()))
        .collect();
    failures.dedup();
    let n = |v: f64| Json::Num(v);
    let samples: usize = rounds.iter().map(|r| r.timed.rtt_ns.len()).sum();
    let deltas = workload_counters()
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let total: f64 = rounds.iter().map(|r| r.after[i] - r.before[i]).sum();
            (name.to_string(), n(total))
        })
        .collect();
    let mut provenance = vec![
        (
            "workload".to_string(),
            Json::Str(ctx.workload.name().to_string()),
        ),
        ("seed".to_string(), n(ctx.seed as f64)),
        ("trace".to_string(), Json::Bool(ctx.traced)),
        ("host_cores".to_string(), n(ctx.conns as f64)),
        ("secflow_version".to_string(), Json::Str(version)),
        ("connections".to_string(), n(ctx.conns as f64)),
        ("rounds".to_string(), n(rounds.len() as f64)),
        (
            "jobs_per_round".to_string(),
            n(rounds.first().map_or(0, |r| r.timed_jobs) as f64),
        ),
        (
            "warmup_jobs_per_round".to_string(),
            n(rounds.first().map_or(0, |r| r.warm_jobs) as f64),
        ),
        ("latency_samples".to_string(), n(samples as f64)),
        (
            "samples_beyond_p99".to_string(),
            n((samples - rank(samples, 0.99).min(samples)) as f64),
        ),
        (
            "setup_s_per_round".to_string(),
            Json::Arr(rounds.iter().map(|r| n(r.setup.as_secs_f64())).collect()),
        ),
        (
            "throughput_rps_per_round".to_string(),
            Json::Arr(rounds.iter().map(|r| n(r.throughput())).collect()),
        ),
        (
            "latency_p50_us_per_round".to_string(),
            Json::Arr(
                rounds
                    .iter()
                    .map(|r| n(quantile(&mut r.latencies_us().collect::<Vec<_>>(), 0.50)))
                    .collect(),
            ),
        ),
        ("host_steal_pct".to_string(), n(host.steal_pct_since())),
        (
            "dropped_by_1mib_guard".to_string(),
            Json::Arr(
                plan.dropped
                    .iter()
                    .map(|&i| Json::Str(format!("{:?}", plan.entries[i].shape)))
                    .collect(),
            ),
        ),
        ("counter_deltas".to_string(), Json::Obj(deltas)),
        ("failures".to_string(), Json::Arr(failures)),
    ];
    if let Some(spans) = &run.span_file {
        provenance.push((
            "span_file".to_string(),
            Json::Str(spans.display().to_string()),
        ));
    }
    let result = Json::Obj(vec![
        ("correct".to_string(), Json::Bool(failed == 0)),
        ("attempted".to_string(), n(attempted as f64)),
        ("failed".to_string(), n(failed as f64)),
        (
            "metrics".to_string(),
            Json::Obj(
                run.metrics
                    .into_iter()
                    .map(|m| {
                        let body = vec![
                            ("value".to_string(), n(m.value)),
                            ("unit".to_string(), Json::Str(m.unit.to_string())),
                        ];
                        (m.name, Json::Obj(body))
                    })
                    .collect(),
            ),
        ),
    ]);
    let provenance = Json::Obj(vec![("provenance".to_string(), Json::Obj(provenance))]);
    Ok((provenance, result))
}

/// The machine's CPU time counters, in clock ticks: the `cpu` line of
/// `/proc/stat`. On a virtual machine its `steal` column counts the time
/// the hypervisor ran something else while this machine had work, which
/// slows every timed metric without any change to the program.
struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    fn now() -> HostCpu {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        // user, nice, system, idle, iowait, irq, softirq, steal
        let ticks: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|t| t.parse().ok())
            .collect();
        HostCpu {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// Share of the machine's CPU time stolen since `self`, in percent.
    fn steal_pct_since(&self) -> f64 {
        let now = HostCpu::now();
        let total = now.total.saturating_sub(self.total).max(1);
        100.0 * now.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

struct Run {
    rounds: Vec<Round>,
    metrics: Vec<Metric>,
    extra_attempted: u64,
    extra_failed: u64,
    extra_failures: Vec<String>,
    span_file: Option<PathBuf>,
}

// ---- rounds ---------------------------------------------------------------

/// One boot of the workload's servers: setup, warm-up, timed phase,
/// post-checks, shutdown.
struct Round {
    setup: Duration,
    warm: Phase,
    warm_jobs: usize,
    timed: Phase,
    timed_jobs: usize,
    attempted: u64,
    /// Summed peak RSS of the server processes.
    rss_kib: u64,
    cpu_ticks: u64,
    before: Vec<f64>,
    after: Vec<f64>,
    problems: Vec<String>,
}

impl Round {
    fn failed(&self) -> u64 {
        (self.warm_jobs as u64 - self.warm.ok)
            + (self.timed_jobs as u64 - self.timed.ok)
            + self.problems.len() as u64
    }

    fn throughput(&self) -> f64 {
        self.timed_jobs as f64 / self.timed.wall.as_secs_f64()
    }

    /// The timed phase's client latencies, in µs.
    fn latencies_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.timed.rtt_ns.iter().map(|&ns| ns as f64 / 1e3)
    }

    fn delta(&self, name: &str) -> f64 {
        let i = counter_index(name);
        self.after[i] - self.before[i]
    }
}

/// Stats counters the benchmark follows, with their paths in the
/// `stats` reply.
const COUNTERS: &[(&str, &[&str])] = &[
    ("requests", &["requests"]),
    ("cache_hits", &["cache_hits"]),
    ("cache_misses", &["cache_misses"]),
    ("coalesced_hits", &["conn", "coalesced_hits"]),
    ("overloaded", &["overloaded"]),
    ("rejected_overloaded", &["conn", "rejected_overloaded"]),
    ("forwards", &["cluster", "forwards"]),
    ("replicas_sent", &["cluster", "replicas_sent"]),
    ("replica_installs", &["cluster", "replica_installs"]),
    ("hints_queued", &["cluster", "hints_queued"]),
    ("compactions", &["persist", "compactions"]),
    ("entries_recovered", &["persist", "entries_recovered"]),
    ("last_recovery_ms", &["persist", "last_recovery_ms"]),
];

fn workload_counters() -> Vec<&'static str> {
    COUNTERS.iter().map(|(name, _)| *name).collect()
}

fn counter_index(name: &str) -> usize {
    COUNTERS
        .iter()
        .position(|(n, _)| *n == name)
        .expect("a followed counter")
}

/// The followed counters of one `stats` reply.
fn counters_of(stats: &Json) -> Vec<f64> {
    COUNTERS
        .iter()
        .map(
            |(_, path)| match path.iter().try_fold(stats, |v, key| v.get(key)) {
                Some(Json::Num(x)) => *x,
                _ => 0.0,
            },
        )
        .collect()
}

/// The followed counters summed over every process of the round: one
/// `stats` op for a single server, `cluster-status --json` for the
/// cluster (its nodes and router).
fn counters(ctx: &Ctx, procs: &[Proc]) -> Result<Vec<f64>, String> {
    if let [one] = procs {
        return Ok(counters_of(&one.stats()?));
    }
    let members: Vec<&str> = procs.iter().map(|p| p.addr.as_str()).collect();
    let (status, out) = run_cli(
        &ctx.secflow,
        &["cluster-status", "--peers", &members.join(","), "--json"],
    )?;
    if !status.success() {
        return Err(format!("cluster-status reports a member down: {out}"));
    }
    let mut sum = vec![0.0; COUNTERS.len()];
    for line in out.lines() {
        let node = Json::parse(line).map_err(|e| format!("bad cluster-status line: {e}"))?;
        let stats = node
            .get("stats")
            .ok_or("cluster-status line without stats")?;
        for (total, v) in sum.iter_mut().zip(counters_of(stats)) {
            *total += v;
        }
    }
    Ok(sum)
}

fn persist_config(ctx: &Ctx, dir: PathBuf) -> PersistConfig {
    let mut cfg = PersistConfig::new(dir);
    cfg.fsync = FsyncMode::Never;
    if let Some(max) = ctx.sizing.journal_max_bytes {
        cfg.journal_max_bytes = max;
    }
    cfg
}

fn serve_args(ctx: &Ctx, store: Option<&Path>) -> Vec<String> {
    let mut args: Vec<String> = ["serve", "--addr", "127.0.0.1:0"]
        .map(String::from)
        .to_vec();
    args.extend(tuning(ctx));
    if let Some(dir) = store {
        args.extend(["--cache-dir".to_string(), dir.display().to_string()]);
        args.extend(["--fsync", "never"].map(String::from));
        if let Some(max) = ctx.sizing.journal_max_bytes {
            args.extend(["--journal-max-bytes".to_string(), max.to_string()]);
        }
    }
    args
}

fn tuning(ctx: &Ctx) -> Vec<String> {
    vec![
        "--workers".to_string(),
        ctx.conns.to_string(),
        "--cache".to_string(),
        ctx.sizing.cache.to_string(),
    ]
}

/// Boots the round's servers; the last one is where clients connect
/// (the router, for the cluster).
fn boot(ctx: &Ctx, store: Option<&Path>) -> Result<Vec<Proc>, String> {
    if ctx.workload != Workload::ClusterReplicated {
        return Ok(vec![Proc::spawn(&ctx.secflow, &serve_args(ctx, store))?]);
    }
    let addrs = reserve_addrs(3)?;
    let peers = addrs.join(",");
    let mut procs = Vec::new();
    for addr in &addrs {
        let mut args: Vec<String> = [
            "serve",
            "--addr",
            addr,
            "--advertise",
            addr,
            "--peers",
            &peers,
            "--replication",
            "2",
        ]
        .map(String::from)
        .to_vec();
        args.extend(tuning(ctx));
        procs.push(Proc::spawn(&ctx.secflow, &args)?);
    }
    let mut args: Vec<String> = ["router", "--addr", "127.0.0.1:0", "--peers", &peers]
        .map(String::from)
        .to_vec();
    args.extend(tuning(ctx));
    procs.push(Proc::spawn(&ctx.secflow, &args)?);
    Ok(procs)
}

/// Journals the hot set once (untimed): every round then restarts
/// `serve --cache-dir` on this journal.
fn prepare_hot(ctx: &Ctx, plan: &Plan) -> Result<(), String> {
    let dir = fresh_dir(ctx.work.join("hot-store"))?;
    let proc = Proc::spawn(&ctx.secflow, &serve_args(ctx, Some(&dir)))?;
    let phase = load::closed_loop(&proc.addr, ctx.conns, &plan.entries, plan.hot_set());
    proc.shutdown()?;
    if phase.ok != plan.hot_set().len() as u64 {
        return Err(format!(
            "journaling the hot set failed: {:?}",
            phase.failures
        ));
    }
    Ok(())
}

/// One round. Returns it with its timed jobs (the traced run replays
/// them).
fn run_round(ctx: &Ctx, plan: &mut Plan, index: u64) -> Result<(Round, Vec<Job>), String> {
    let warm_jobs = plan.jobs(2 * index, ctx.sizing.warmup_cycles);
    let timed_jobs = plan.jobs(2 * index + 1, ctx.sizing.timed_cycles);
    let store = match ctx.workload {
        Workload::HotCertify => Some(ctx.work.join("hot-store")),
        Workload::ColdProof => Some(fresh_dir(ctx.work.join("cold-store"))?),
        _ => None,
    };
    let start = Instant::now();
    let procs = boot(ctx, store.as_deref())?;
    let entry = procs.last().expect("at least one server").addr.clone();
    let warm = load::closed_loop(&entry, ctx.conns, &plan.entries, &warm_jobs);
    let setup = start.elapsed();

    let before = counters(ctx, &procs)?;
    let cpu_before: u64 = procs.iter().map(Proc::cpu_ticks).sum();
    let timed = load::closed_loop(&entry, ctx.conns, &plan.entries, &timed_jobs);
    let cpu_ticks = procs.iter().map(Proc::cpu_ticks).sum::<u64>() - cpu_before;
    let rss_kib = procs.iter().map(Proc::peak_rss_kib).sum();
    let after = counters(ctx, &procs)?;

    let mut problems = Vec::new();
    let misses = after[counter_index("cache_misses")] - before[counter_index("cache_misses")];
    if ctx.workload == Workload::HotCertify && misses > 0.0 {
        problems.push(format!("{misses} timed hot requests missed the cache"));
    }
    if ctx.workload == Workload::ClusterReplicated {
        let hints = after[counter_index("hints_queued")];
        if hints > 0.0 {
            problems.push(format!("{hints} hints queued"));
        }
        let nodes: Vec<&str> = procs[..procs.len() - 1]
            .iter()
            .map(|p| p.addr.as_str())
            .collect();
        let (_, out) = run_cli(
            &ctx.secflow,
            &["repair", "--peers", &nodes.join(","), "--json"],
        )?;
        let converged = out
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .and_then(|v| v.get("converged").and_then(Json::as_bool));
        if converged != Some(true) {
            problems.push(format!("repair did not converge: {out}"));
        }
    }
    // Clients first: the router, then the nodes it forwards to.
    for proc in procs.into_iter().rev() {
        proc.shutdown()?;
    }
    let round = Round {
        setup,
        warm_jobs: warm_jobs.len(),
        timed_jobs: timed_jobs.len(),
        attempted: (warm_jobs.len() + timed_jobs.len()) as u64,
        warm,
        timed,
        rss_kib,
        cpu_ticks,
        before,
        after,
        problems,
    };
    Ok((round, timed_jobs))
}

// ---- statistics -----------------------------------------------------------

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).max(1)
}

/// Quantile `q` of `values` by nearest rank.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[rank(values.len(), q).min(values.len()) - 1]
}

/// Client latency quantile `q` in µs, over the samples of every round
/// pooled. [`MIN_ROUNDS`] rounds give at least [`MIN_SAMPLES`] samples,
/// ten beyond p99.
fn latency_us(rounds: &[Round], q: f64) -> f64 {
    let mut us: Vec<f64> = rounds.iter().flat_map(Round::latencies_us).collect();
    quantile(&mut us, q)
}

// ---- the two kinds of run -------------------------------------------------

/// `--trace 0`: rounds until `--seconds` have passed (at least
/// [`MIN_ROUNDS`]), then the end-to-end metrics.
fn measured_run(ctx: &Ctx, plan: &mut Plan) -> Result<Run, String> {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while rounds.len() < MIN_ROUNDS || (start.elapsed() < ctx.seconds && rounds.len() < MAX_ROUNDS)
    {
        rounds.push(run_round(ctx, plan, rounds.len() as u64)?.0);
    }
    let samples: usize = rounds.iter().map(|r| r.timed.rtt_ns.len()).sum();
    if samples < MIN_SAMPLES {
        return Err(format!(
            "{samples} latency samples; p99 needs {MIN_SAMPLES}"
        ));
    }
    let replies: u64 = rounds.iter().map(|r| r.timed.replies).sum();
    let reply_bytes: u64 = rounds.iter().map(|r| r.timed.reply_bytes).sum();
    let metrics = vec![
        metric(
            "setup_s",
            median(rounds.iter().map(|r| r.setup.as_secs_f64()).collect()),
            "s",
        ),
        metric(
            "throughput_rps",
            median(rounds.iter().map(Round::throughput).collect()),
            "req/s",
        ),
        metric("latency_p50_us", latency_us(&rounds, 0.50), "us"),
        metric("latency_p99_us", latency_us(&rounds, 0.99), "us"),
        metric(
            "server_rss_mb",
            median(rounds.iter().map(|r| r.rss_kib as f64 / 1024.0).collect()),
            "MB",
        ),
        metric(
            "reply_bytes_mean",
            reply_bytes as f64 / replies.max(1) as f64,
            "B",
        ),
    ];
    Ok(Run {
        rounds,
        metrics,
        extra_attempted: 0,
        extra_failed: 0,
        extra_failures: Vec::new(),
        span_file: None,
    })
}

/// The in-process counterpart of the workload's server for the replay;
/// `tag` keeps the two replays' stores apart.
fn target(ctx: &Ctx, plan: &Plan, tag: &str) -> Result<trace::Target, String> {
    let cap = ctx.sizing.cache;
    let open = |dir: PathBuf| {
        DurableStore::open(persist_config(ctx, dir)).map_err(|e| format!("opening a store: {e}"))
    };
    let fresh = |name: String| fresh_dir(ctx.work.join(name)).and_then(open);
    let mut target = match ctx.workload {
        Workload::HotCertify => trace::Target {
            service: Service::with_persist(
                cap,
                Limits::default(),
                open(ctx.work.join("hot-store"))?,
            ),
            cache: ResultCache::new(cap),
            store: None,
        },
        Workload::ColdProof => trace::Target {
            service: Service::with_persist(
                cap,
                Limits::default(),
                fresh(format!("{tag}-service"))?,
            ),
            cache: ResultCache::new(cap),
            store: Some(fresh(format!("{tag}-direct"))?),
        },
        _ => trace::Target {
            service: Service::new(cap, Limits::default()),
            cache: ResultCache::new(cap),
            store: None,
        },
    };
    if ctx.workload == Workload::HotCertify {
        target.warm(plan.hot_set());
    }
    Ok(target)
}

/// `--trace 1`: one TCP round for the counters, then the round's first
/// jobs replayed in-process twice, with spans off and on.
fn traced_run(ctx: &Ctx, plan: &mut Plan) -> Result<Run, String> {
    let (round, jobs) = run_round(ctx, plan, 0)?;
    let replayed = &jobs[..(ctx.sizing.replay_cycles * plan.cycle_len()).min(jobs.len())];
    let plain = trace::replay(&plan.entries, replayed, target(ctx, plan, "plain")?, false);
    let traced = trace::replay(&plan.entries, replayed, target(ctx, plan, "traced")?, true);
    let span_file = ctx
        .work
        .join(format!("spans-{}-{}.jsonl", ctx.workload.name(), ctx.seed));
    trace::write_spans(&span_file, &traced.spans)?;

    let extra_attempted = 2 * replayed.len() as u64;
    let extra_failed = (2 * replayed.len() as u64) - plain.ok - traced.ok;
    let attempted = round.attempted + extra_attempted;
    let failed = round.failed() + extra_failed;
    let metrics = per_layer(
        ctx,
        &round,
        &plain,
        &traced,
        replayed.len(),
        failed,
        attempted,
    );
    let extra_failures = plain.failures.into_iter().chain(traced.failures).collect();
    Ok(Run {
        rounds: vec![round],
        metrics,
        extra_attempted,
        extra_failed,
        extra_failures,
        span_file: Some(span_file),
    })
}

fn per_layer(
    ctx: &Ctx,
    round: &Round,
    plain: &trace::Replay,
    traced: &trace::Replay,
    replayed: usize,
    failed: u64,
    attempted: u64,
) -> Vec<Metric> {
    let totals = trace::totals(&traced.spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let mean_us = |name: &str| {
        let t = get(name);
        t.ns as f64 / 1e3 / t.count.max(1) as f64
    };
    let mean_alloc = |name: &str| {
        let t = get(name);
        t.alloc_bytes as f64 / t.count.max(1) as f64
    };
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let facts = &traced.facts;
    let jobs = round.timed_jobs as f64;
    let mut overhead_us: Vec<f64> = round
        .timed
        .rtt_ns
        .iter()
        .zip(&round.timed.server_us)
        .map(|(&rtt, &us)| rtt as f64 / 1e3 - us as f64)
        .collect();
    let mut service_us: Vec<f64> = round.timed.server_us.iter().map(|&u| u as f64).collect();
    let hits = round.delta("cache_hits");
    let misses = round.delta("cache_misses");
    let explore = get("runtime.explore");
    let cluster = ctx.workload == Workload::ClusterReplicated;
    let mut m = vec![
        metric(
            "frontend.overhead_us_p50",
            quantile(&mut overhead_us, 0.50),
            "us",
        ),
        metric(
            "frontend.overhead_us_p99",
            quantile(&mut overhead_us, 0.99),
            "us",
        ),
        metric(
            "conn.rejected_overloaded",
            round.delta("rejected_overloaded"),
            "count",
        ),
        metric("protocol.decode_us", mean_us("protocol.decode"), "us"),
        metric("json.reply_parse_us", mean_us("json.reply_parse"), "us"),
        metric("cache.hit_ratio", hits / (hits + misses).max(1.0), "ratio"),
        metric("cache.get_us", mean_us("cache.get"), "us"),
        metric(
            "singleflight.coalesced_hits",
            round.delta("coalesced_hits"),
            "count",
        ),
        metric(
            "persist.recovery_ms",
            round.after[counter_index("last_recovery_ms")],
            "ms",
        ),
        metric(
            "persist.entries_recovered",
            round.after[counter_index("entries_recovered")],
            "count",
        ),
        metric("persist.append_us", mean_us("persist.append"), "us"),
        metric(
            "persist.journal_bytes_per_miss",
            per(facts.appended_bytes, facts.appends),
            "B",
        ),
        metric("persist.compactions", round.delta("compactions"), "count"),
        metric("lang.parse_us", mean_us("lang.parse"), "us"),
        metric("lang.parse_alloc_bytes", mean_alloc("lang.parse"), "B"),
        metric("core.certify_us", mean_us("core.certify"), "us"),
        metric("logic.prove_us", mean_us("logic.prove"), "us"),
        metric(
            "logic.proof_nodes",
            per(facts.proof_nodes, facts.proofs),
            "count",
        ),
        metric("cert.emit_us", mean_us("cert.emit"), "us"),
        metric("cert.validate_us", mean_us("cert.validate"), "us"),
        metric("cert.bytes", per(facts.cert_bytes, facts.certs), "B"),
        metric("cert.emit_alloc_bytes", mean_alloc("cert.emit"), "B"),
        metric(
            "cert.validate_alloc_bytes",
            mean_alloc("cert.validate"),
            "B",
        ),
        metric("runtime.explore_us", mean_us("runtime.explore"), "us"),
        metric("runtime.states", per(facts.states, facts.explores), "count"),
        metric(
            "runtime.states_pruned",
            per(facts.pruned, facts.explores),
            "count",
        ),
        metric(
            "runtime.states_per_s",
            if explore.ns > 0 {
                facts.states as f64 / (explore.ns as f64 / 1e9)
            } else {
                0.0
            },
            "1/s",
        ),
        metric(
            "runtime.alloc_bytes_per_state",
            per(explore.alloc_bytes, facts.states),
            "B",
        ),
        metric("analyze.lint_us", mean_us("analyze.lint"), "us"),
        metric("analyze.lint_alloc_bytes", mean_alloc("analyze.lint"), "B"),
        metric(
            "cluster.hop_overhead_us_p50",
            if cluster {
                quantile(&mut overhead_us, 0.50)
            } else {
                0.0
            },
            "us",
        ),
        metric(
            "cluster.forwards_per_req",
            round.delta("forwards") / jobs,
            "ratio",
        ),
        metric(
            "cluster.replicas_sent_per_req",
            round.delta("replicas_sent") / jobs,
            "ratio",
        ),
        metric(
            "cluster.replica_installs_per_req",
            round.delta("replica_installs") / jobs,
            "ratio",
        ),
        metric("cluster.hints_queued", round.delta("hints_queued"), "count"),
        metric(
            "server.cpu_us_per_req",
            round.cpu_ticks as f64 * US_PER_TICK / jobs,
            "us",
        ),
        metric(
            "server.service_us_p50",
            quantile(&mut service_us, 0.50),
            "us",
        ),
        metric("pool.overloaded", round.delta("overloaded"), "count"),
        metric(
            "trace.overhead_pct",
            (traced.wall.as_secs_f64() / plain.wall.as_secs_f64() - 1.0) * 100.0,
            "%",
        ),
        metric("fail_ratio", per(failed, attempted), "ratio"),
    ];
    for name in trace::SPANS {
        let self_us = get(name).self_ns as f64 / 1e3 / replayed.max(1) as f64;
        m.push(metric(format!("self_us.{name}"), self_us, "us"));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_run_has_enough_samples_for_p99() {
        for workload in Workload::ALL {
            let per_round = sizing(workload).timed_cycles * Plan::new(workload, 1).cycle_len();
            let samples = MIN_ROUNDS * per_round;
            assert!(samples >= MIN_SAMPLES, "{}: {samples}", workload.name());
        }
    }
}
