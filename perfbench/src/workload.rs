//! The four workloads: fixed multisets of program shapes, turned into
//! request lines by the run seed, with the oracle each reply is checked
//! against.
//!
//! Rule: the seed changes identity, never cost. Every workload is a
//! fixed multiset of shapes × sizes; the seed only renames variables
//! (each name to a fresh name of the same length) and permutes the
//! order in which the multiset is sent. Statement counts, proof sizes,
//! certificate bytes and explored states therefore do not depend on the
//! seed, while every renamed program is a request the server has never
//! seen (`tests::seeds_change_identity_not_cost` checks both).

use std::collections::HashSet;

use secflow_core::{certify_quadratic, StaticBinding};
use secflow_lang::token::TokenKind;
use secflow_lang::{print_program, Program, Stmt, SymbolTable, VarId};
use secflow_lattice::{Linear, LinearScheme, Scheme, TwoPoint, TwoPointScheme};
use secflow_runtime::SplitMix64;
use secflow_server::json::Json;
use secflow_server::{Limits, Op, Request, ServerConfig, Service};
use secflow_workload::{
    branchy, dining_philosophers, generate, indep, kbit_channel, loop_heavy, producer_consumer,
    readers_writers, sequential_chain, sync_heavy, wide_cobegin, GenConfig,
};

/// A named traffic shape.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Repeat submissions answered from a recovered cache.
    HotCertify,
    /// Fresh certifiable programs: certify with a proof, then check it.
    ColdProof,
    /// Fresh state-space questions: `explore` and `lint`.
    ExploreSweep,
    /// Fresh small certifies through a router and three replicated nodes.
    ClusterReplicated,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::HotCertify,
        Workload::ColdProof,
        Workload::ExploreSweep,
        Workload::ClusterReplicated,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotCertify => "hot_certify",
            Workload::ColdProof => "cold_proof",
            Workload::ExploreSweep => "explore_sweep",
            Workload::ClusterReplicated => "cluster_replicated",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }
}

/// One program shape, built by the `secflow-workload` generators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    Chain(usize, usize),
    Loops(usize),
    Sync(usize),
    Branchy(usize),
    Wide(usize),
    /// `gen::generate` at a target size; the generator seed is part of
    /// the shape, not of the run.
    Gen(usize, u64),
    Fig3,
    /// The k-bit covert channel of §4.3, explored from input `x`.
    KBit(u32, i64),
    Philosophers(usize, i64),
    OrderedPhilosophers(usize, i64),
    ProducerConsumer(i64, i64),
    ReadersWriters(usize, i64),
    Indep(usize, usize),
}

impl Shape {
    pub fn program(self) -> Program {
        match self {
            Shape::Chain(len, vars) => sequential_chain(len, vars),
            Shape::Loops(n) => loop_heavy(n),
            Shape::Sync(n) => sync_heavy(n),
            Shape::Branchy(d) => branchy(d),
            Shape::Wide(w) => wide_cobegin(w),
            Shape::Gen(target, seed) => generate(
                &GenConfig {
                    target_stmts: target,
                    ..GenConfig::default()
                },
                seed,
            ),
            Shape::Fig3 => secflow_workload::fig3_program(),
            Shape::KBit(k, _) => kbit_channel(k),
            Shape::Philosophers(n, meals) => dining_philosophers(n, meals, false),
            Shape::OrderedPhilosophers(n, meals) => dining_philosophers(n, meals, true),
            Shape::ProducerConsumer(items, cap) => producer_consumer(items, cap),
            Shape::ReadersWriters(readers, writes) => readers_writers(readers, writes),
            Shape::Indep(n, steps) => indep(n, steps),
        }
    }

    /// Whether exploration must find a deadlock, known by construction:
    /// only the naive philosophers have a circular wait.
    pub fn deadlocks(self) -> bool {
        matches!(self, Shape::Philosophers(..))
    }

    /// Initial values for `explore`, by declaration index.
    pub fn inputs(self) -> Vec<(usize, i64)> {
        match self {
            Shape::KBit(_, x) => vec![(0, x)],
            _ => Vec::new(),
        }
    }
}

/// The lattice a certify request names, and the class spelling it uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lattice {
    Two,
    Linear4,
}

impl Lattice {
    pub fn spec(self) -> &'static str {
        match self {
            Lattice::Two => "two",
            Lattice::Linear4 => "linear:4",
        }
    }

    fn bottom(self) -> &'static str {
        match self {
            Lattice::Two => "low",
            Lattice::Linear4 => "0",
        }
    }

    fn top(self) -> &'static str {
        match self {
            Lattice::Two => "high",
            Lattice::Linear4 => "3",
        }
    }
}

/// What a request asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// `certify` with every variable at the bottom class.
    Certify(Lattice),
    /// `certify` with one read variable at the top class flowing into a
    /// bottom-class variable (rejected wherever such a flow exists).
    Leak(Lattice),
    /// `certify` with `with_proof:true`, then `checkproof` of the
    /// returned certificate on the same connection: one transaction.
    Proof(Lattice),
    Explore,
    Lint,
}

/// One entry of a workload's fixed multiset. `expect` is the committed
/// oracle value of a state-space request: expanded states for
/// `Explore`, diagnostics for `Lint` (unused otherwise).
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    pub shape: Shape,
    pub kind: Kind,
    pub expect: u64,
}

const fn e(shape: Shape, kind: Kind) -> Entry {
    Entry {
        shape,
        kind,
        expect: 0,
    }
}

const fn x(shape: Shape, kind: Kind, expect: u64) -> Entry {
    Entry {
        shape,
        kind,
        expect,
    }
}

use Kind::{Explore, Lint, Proof};
use Lattice::{Linear4, Two};
use Shape::*;

/// `cold_proof`: certifiable programs of spread sizes. The last two
/// entries produce certificates over 1 MiB and are dropped by the guard
/// (see `NOTES.md`); they stay listed so the guard is exercised.
const COLD_PROOF: &[Entry] = &[
    e(Chain(30, 6), Proof(Two)),
    e(Chain(40, 6), Proof(Linear4)),
    e(Loops(6), Proof(Two)),
    e(Loops(8), Proof(Linear4)),
    e(Sync(4), Proof(Two)),
    e(Sync(8), Proof(Two)),
    e(Branchy(3), Proof(Two)),
    e(Branchy(4), Proof(Linear4)),
    e(Wide(4), Proof(Two)),
    e(Wide(6), Proof(Two)),
    e(Gen(20, 11), Proof(Two)),
    e(Gen(20, 12), Proof(Linear4)),
    e(Gen(40, 13), Proof(Two)),
    e(Gen(40, 14), Proof(Two)),
    e(Fig3, Proof(Two)),
    e(Chain(400, 8), Proof(Two)),
    e(Loops(50), Proof(Two)),
];

/// `explore_sweep`: concurrent shapes with the committed number of
/// states the explorer (persistent sets on, one thread) expands, or the
/// number of diagnostics `lint` reports.
const EXPLORE_SWEEP: &[Entry] = &[
    x(Philosophers(3, 1), Explore, 186),
    x(Philosophers(3, 2), Explore, 1199),
    x(Philosophers(4, 1), Explore, 870),
    x(Philosophers(4, 2), Explore, 10898),
    x(Philosophers(5, 1), Explore, 3808),
    x(OrderedPhilosophers(3, 1), Explore, 136),
    x(OrderedPhilosophers(3, 2), Explore, 797),
    x(OrderedPhilosophers(4, 1), Explore, 612),
    x(OrderedPhilosophers(4, 2), Explore, 6990),
    x(OrderedPhilosophers(5, 1), Explore, 2644),
    x(ProducerConsumer(2, 1), Explore, 36),
    x(ProducerConsumer(3, 2), Explore, 141),
    x(ProducerConsumer(6, 2), Explore, 330),
    x(ReadersWriters(2, 1), Explore, 223),
    x(ReadersWriters(2, 2), Explore, 463),
    x(ReadersWriters(3, 1), Explore, 1039),
    x(Indep(3, 2), Explore, 11),
    x(Indep(4, 3), Explore, 18),
    x(Indep(5, 2), Explore, 17),
    x(KBit(2, 3), Explore, 9),
    x(KBit(4, 11), Explore, 9),
    x(Philosophers(3, 1), Lint, 22),
    x(OrderedPhilosophers(3, 2), Lint, 19),
    x(ProducerConsumer(3, 2), Lint, 14),
    x(ReadersWriters(2, 2), Lint, 25),
    x(Indep(4, 2), Lint, 5),
    x(Indep(5, 2), Lint, 6),
    x(KBit(3, 5), Lint, 29),
];

/// `cluster_replicated`: small certifies, so routing and replication
/// dominate the cost.
const CLUSTER: &[Entry] = &[
    e(Chain(8, 4), Kind::Certify(Two)),
    e(Chain(16, 4), Kind::Leak(Two)),
    e(Branchy(2), Kind::Certify(Two)),
    e(Branchy(3), Kind::Leak(Linear4)),
    e(Wide(4), Kind::Certify(Linear4)),
    e(Sync(2), Kind::Leak(Two)),
    e(Loops(3), Kind::Certify(Two)),
    e(Gen(10, 21), Kind::Certify(Two)),
    e(Gen(10, 22), Kind::Leak(Two)),
    e(Gen(20, 23), Kind::Leak(Linear4)),
];

/// `hot_certify`'s programs. Each is sent under both lattices with both
/// bindings, so the hot set is four times this list.
fn hot_shapes() -> Vec<Shape> {
    let mut shapes = vec![
        Chain(20, 4),
        Chain(40, 8),
        Chain(80, 8),
        Loops(5),
        Loops(10),
        Sync(4),
        Sync(8),
        Branchy(3),
        Branchy(4),
        Wide(4),
        Wide(8),
        Fig3,
    ];
    shapes.extend((0..52).map(|k| Gen(if k % 2 == 0 { 20 } else { 40 }, 100 + k)));
    shapes
}

/// The fixed multiset of a workload (before the 1 MiB guard).
pub fn multiset(workload: Workload) -> Vec<Entry> {
    match workload {
        Workload::HotCertify => hot_shapes()
            .into_iter()
            .flat_map(|shape| {
                [
                    Kind::Certify(Two),
                    Kind::Leak(Two),
                    Kind::Certify(Linear4),
                    Kind::Leak(Linear4),
                ]
                .map(|kind| e(shape, kind))
            })
            .collect(),
        Workload::ColdProof => COLD_PROOF.to_vec(),
        Workload::ExploreSweep => EXPLORE_SWEEP.to_vec(),
        Workload::ClusterReplicated => CLUSTER.to_vec(),
    }
}

// ---- renaming -------------------------------------------------------------

/// A fresh identifier of exactly `len` characters that is not a keyword.
fn fresh_name(len: usize, rng: &mut SplitMix64) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    loop {
        let name: String = (0..len)
            .map(|i| {
                let set = if i == 0 { FIRST } else { REST };
                set[rng.index(set.len())] as char
            })
            .collect();
        if TokenKind::keyword(&name).is_none() {
            return name;
        }
    }
}

/// `program` with every declared name replaced by a distinct fresh name
/// of the same length. The body refers to variables by id, so it is
/// reused unchanged.
pub fn rename(program: &Program, rng: &mut SplitMix64) -> Program {
    let mut symbols = SymbolTable::new();
    let mut used = HashSet::new();
    for (_, info) in program.symbols.iter() {
        let name = loop {
            let candidate = fresh_name(info.name.len(), rng);
            if used.insert(candidate.clone()) {
                break candidate;
            }
        };
        symbols
            .declare(&name, info.kind, info.init, info.decl_span)
            .expect("fresh names are distinct");
    }
    Program::new(symbols, program.body.clone())
}

/// The first assignment `dst := …src…` with `src ≠ dst`: the flow a
/// `Leak` binding violates.
fn first_flow(body: &Stmt) -> Option<(VarId, VarId)> {
    let mut found = None;
    body.walk(&mut |stmt| {
        if let (None, Stmt::Assign { var, expr, .. }) = (found, stmt) {
            found = expr
                .vars()
                .into_iter()
                .find(|v| v != var)
                .map(|v| (v, *var));
        }
    });
    found
}

// ---- requests -------------------------------------------------------------

/// One request (or, for `Proof`, one two-request transaction) with its
/// oracle.
#[derive(Clone, Debug)]
pub struct Job {
    /// Index of the multiset entry this job instantiates.
    pub entry: usize,
    pub kind: Kind,
    pub id: u64,
    /// The request line (for `Proof`, the `certify with_proof` line).
    pub line: String,
    /// The renamed source text.
    pub source: String,
    /// Verdict of `secflow_core::reference::certify_quadratic` (certify
    /// kinds only).
    pub quadratic: Option<bool>,
    /// The single-node oracle reply without its `cached`/`us` tail, for
    /// workloads checked byte for byte.
    pub oracle: Option<String>,
}

/// Seeded stream for one (workload, seed, stream) triple.
fn rng_for(workload: Workload, seed: u64, stream: u64) -> SplitMix64 {
    let base = SplitMix64::new(seed ^ workload.tag().rotate_left(56)).next_u64();
    SplitMix64::new(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Builds the job for multiset entry `entry` with names drawn from
/// `rng`.
fn make_job(entries: &[Entry], entry: usize, id: u64, rng: &mut SplitMix64) -> Job {
    let Entry { shape, kind, .. } = entries[entry];
    let program = rename(&shape.program(), rng);
    let source = print_program(&program);
    let op = match kind {
        Kind::Explore => Op::Explore,
        Kind::Lint => Op::Lint,
        _ => Op::Certify,
    };
    let mut req = Request::new(op, source.clone());
    req.id = Some(Json::Num(id as f64));
    let mut quadratic = None;
    if let Kind::Certify(lattice) | Kind::Leak(lattice) | Kind::Proof(lattice) = kind {
        req.lattice = lattice.spec().to_string();
        req.default_class = Some(lattice.bottom().to_string());
        req.with_proof = matches!(kind, Kind::Proof(_));
        if let (Kind::Leak(_), Some((src, _))) = (kind, first_flow(&program.body)) {
            req.classes = vec![(
                program.symbols.name(src).to_string(),
                lattice.top().to_string(),
            )];
        }
        quadratic = Some(quadratic_verdict(&program, &req));
    }
    if kind == Kind::Explore {
        req.inputs = shape
            .inputs()
            .into_iter()
            .map(|(index, value)| {
                let name = program.symbols.name(VarId(index as u32)).to_string();
                (name, value)
            })
            .collect();
    }
    Job {
        entry,
        kind,
        id,
        line: req.to_line(),
        source,
        quadratic,
        oracle: None,
    }
}

/// The binding a certify request names: every variable at the bottom
/// class, the request's listed variables at `top`.
pub fn binding<S: Scheme>(
    program: &Program,
    req: &Request,
    scheme: &S,
    top: &S::Elem,
) -> StaticBinding<S::Elem>
where
    S::Elem: secflow_lattice::Lattice,
{
    let listed = req
        .classes
        .iter()
        .map(|(name, _)| (name.as_str(), top.clone()));
    StaticBinding::from_pairs(&program.symbols, scheme, listed)
        .expect("requests name declared variables")
}

/// The four-level linear lattice of `linear:4` requests, and its top.
pub fn linear4() -> (LinearScheme, Linear) {
    let scheme = LinearScheme::new(4).expect("four levels");
    let top = scheme.level(3).expect("level 3 of 4");
    (scheme, top)
}

/// The certify verdict of the independent quadratic transcription of
/// Figure 2 under the request's binding.
fn quadratic_verdict(program: &Program, req: &Request) -> bool {
    match req.lattice.as_str() {
        "two" => certify_quadratic(
            program,
            &binding(program, req, &TwoPointScheme, &TwoPoint::High),
        ),
        _ => {
            let (scheme, top) = linear4();
            certify_quadratic(program, &binding(program, req, &scheme, &top))
        }
    }
}

/// The reply line up to (not including) its per-response `cached` and
/// `us` fields, which the service always appends last.
pub fn without_tail(reply: &str) -> &str {
    match reply.rfind(",\"cached\":") {
        Some(cut) => &reply[..cut],
        None => reply,
    }
}

/// A workload's request source for one run: the multiset after the
/// 1 MiB guard, and the seeded stream of jobs drawn from it.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub entries: Vec<Entry>,
    /// Multiset entries the 1 MiB guard dropped, by index.
    pub dropped: Vec<usize>,
    /// Indices of the entries that remain.
    live: Vec<usize>,
    next_id: u64,
    /// `hot_certify` only: the hot set, renamed once per run.
    hot: Vec<Job>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let entries = multiset(workload);
        let mut plan = Plan {
            workload,
            seed,
            live: (0..entries.len()).collect(),
            entries,
            dropped: Vec::new(),
            next_id: 1,
            hot: Vec::new(),
        };
        if workload == Workload::ColdProof {
            plan.apply_guard();
        }
        if workload == Workload::HotCertify {
            let mut rng = rng_for(workload, seed, 0);
            let mut hot: Vec<Job> = (0..plan.entries.len())
                .map(|i| make_job(&plan.entries, i, i as u64 + 1, &mut rng))
                .collect();
            attach_oracle(&mut hot);
            plan.next_id = hot.len() as u64 + 1;
            plan.hot = hot;
        }
        plan
    }

    /// Jobs per pass over the multiset.
    pub fn cycle_len(&self) -> usize {
        self.live.len()
    }

    /// Drops every `cold_proof` entry whose certificate reply exceeds
    /// the server's write high-water mark or whose `checkproof` line
    /// exceeds its longest accepted line (both 1 MiB by default). Sizes
    /// are seed-independent, so the guard drops the same entries on
    /// every seed.
    fn apply_guard(&mut self) {
        let cfg = ServerConfig::default();
        let service = Service::new(0, Limits::default());
        let mut rng = rng_for(self.workload, self.seed, u64::MAX);
        let (live, dropped): (Vec<usize>, Vec<usize>) = (0..self.entries.len()).partition(|&i| {
            let job = make_job(&self.entries, i, 0, &mut rng);
            let reply = service.handle_line(&job.line);
            certificate_token(&reply).is_some_and(|cert| {
                reply.len() < cfg.write_high_water
                    && checkproof_line(0, &job.source, cert).len() < cfg.max_line_bytes
            })
        });
        self.live = live;
        self.dropped = dropped;
    }

    /// The hot set (`hot_certify` only), in its journaled order.
    pub fn hot_set(&self) -> &[Job] {
        &self.hot
    }

    /// `cycles` passes over the multiset, each pass in its own seeded
    /// order; `stream` names the pass group so warm-up and every round
    /// draw distinct names. Jobs carry their oracles.
    pub fn jobs(&mut self, stream: u64, cycles: usize) -> Vec<Job> {
        let mut rng = rng_for(self.workload, self.seed, stream + 1);
        let mut jobs = Vec::with_capacity(cycles * self.live.len());
        for _ in 0..cycles {
            let mut order = self.live.clone();
            shuffle(&mut order, &mut rng);
            for entry in order {
                if self.workload == Workload::HotCertify {
                    jobs.push(self.hot[entry].clone());
                } else {
                    let id = self.next_id;
                    self.next_id += 1;
                    jobs.push(make_job(&self.entries, entry, id, &mut rng));
                }
            }
        }
        if self.workload == Workload::ClusterReplicated {
            attach_oracle(&mut jobs);
        }
        jobs
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.index(i + 1));
    }
}

/// Answers every job on a fresh in-process single-node service and
/// stores the reply, minus its `cached`/`us` tail, as the job's oracle.
fn attach_oracle(jobs: &mut [Job]) {
    let service = Service::new(0, Limits::default());
    for job in jobs {
        let reply = service.handle_line(&job.line);
        job.oracle = Some(without_tail(&reply).to_string());
    }
}

/// The raw JSON string token (quotes included) of a reply's
/// `certificate` field, without unescaping it.
pub fn certificate_token(reply: &str) -> Option<&str> {
    const KEY: &str = "\"certificate\":\"";
    let start = reply.find(KEY)? + KEY.len() - 1;
    let bytes = reply.as_bytes();
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return Some(&reply[start..=i]),
            _ => i += 1,
        }
    }
    None
}

/// The `checkproof` request for a certificate token taken verbatim
/// from a `certify` reply.
pub fn checkproof_line(id: u64, source: &str, cert_token: &str) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"checkproof\",\"source\":{},\"cert\":{cert_token}}}",
        Json::Str(source.to_string())
    )
}

/// The unsigned integer value of top-level field `key` in a reply line
/// produced by the service (nested keys are escaped inside strings, so
/// the first match is the top-level one).
pub fn num_field(reply: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &reply[reply.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The boolean value of top-level field `key`.
pub fn bool_field(reply: &str, key: &str) -> Option<bool> {
    let pat = format!("\"{key}\":");
    let rest = &reply[reply.find(&pat)? + pat.len()..];
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Checks one single-request reply against its job's oracle; `Err`
/// names the mismatch.
pub fn check_reply(entries: &[Entry], job: &Job, reply: &str) -> Result<(), String> {
    if bool_field(reply, "ok") != Some(true) {
        return Err(format!("request {} failed: {}", job.id, truncate(reply)));
    }
    if let Some(oracle) = &job.oracle {
        if without_tail(reply) != oracle {
            return Err(format!("request {} differs from the oracle", job.id));
        }
    }
    let entry = entries[job.entry];
    match job.kind {
        Kind::Certify(_) | Kind::Leak(_) | Kind::Proof(_) => {
            let certified = bool_field(reply, "certified");
            if certified != job.quadratic {
                return Err(format!(
                    "request {}: certified {certified:?}, quadratic reference {:?}",
                    job.id, job.quadratic
                ));
            }
        }
        Kind::Explore => {
            let states = num_field(reply, "states");
            let deadlocks = num_field(reply, "deadlocks").map(|d| d > 0);
            if states != Some(entry.expect) || deadlocks != Some(entry.shape.deadlocks()) {
                return Err(format!(
                    "request {} ({:?}): states {states:?} deadlock {deadlocks:?}, expected {} {}",
                    job.id,
                    entry.shape,
                    entry.expect,
                    entry.shape.deadlocks()
                ));
            }
        }
        Kind::Lint => {
            let found = reply.matches("\"code\":").count() as u64;
            if found != entry.expect {
                return Err(format!(
                    "request {} ({:?}): {found} diagnostics, expected {}",
                    job.id, entry.shape, entry.expect
                ));
            }
        }
    }
    Ok(())
}

fn truncate(line: &str) -> &str {
    let mut end = line.len().min(200);
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    &line[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_runtime::{explore_with, ExploreLimits};
    use secflow_server::route_fingerprint;

    /// What a request costs the server, as far as the seed could
    /// influence it: statements, proof nodes, certificate bytes and
    /// explored states, keyed by multiset entry.
    fn cost(job: &Job) -> (usize, usize, u64, usize, u64) {
        let reply = Service::new(0, Limits::default()).handle_line(&job.line);
        let program = secflow_lang::parse(&job.source).expect("renamed source parses");
        (
            job.entry,
            program.statement_count(),
            num_field(&reply, "proof_nodes").unwrap_or(0),
            certificate_token(&reply).map_or(0, str::len),
            num_field(&reply, "states").unwrap_or(0),
        )
    }

    #[test]
    fn seeds_change_identity_not_cost() {
        for workload in Workload::ALL {
            let mut costs = Vec::new();
            let mut prints = Vec::new();
            for seed in [1, 2] {
                let mut plan = Plan::new(workload, seed);
                let jobs = plan.jobs(0, 1);
                let mut c: Vec<_> = jobs.iter().map(cost).collect();
                c.sort();
                costs.push(c);
                let p: HashSet<u64> = jobs
                    .iter()
                    .map(|job| route_fingerprint(&Request::parse(&job.line).expect("valid")))
                    .collect();
                prints.push(p);
            }
            assert_eq!(costs[0], costs[1], "{}: cost multiset", workload.name());
            assert!(
                prints[0].is_disjoint(&prints[1]),
                "{}: two seeds share a request",
                workload.name()
            );
        }
    }

    #[test]
    fn explore_table_matches_the_explorer() {
        let mut actual = Vec::new();
        for entry in EXPLORE_SWEEP {
            // The server sees the printed program (which declares data
            // variables without their initial values), so the table is
            // of the printed program re-parsed.
            let built = entry.shape.program();
            let program =
                secflow_lang::parse(&print_program(&built)).expect("printed source parses");
            let found = match entry.kind {
                Kind::Explore => {
                    let inputs: Vec<_> = entry
                        .shape
                        .inputs()
                        .into_iter()
                        .map(|(i, v)| (program.var(built.symbols.name(VarId(i as u32))), v))
                        .collect();
                    let limits = ExploreLimits::default().persistent_only();
                    let report = explore_with(&program, &inputs, limits, &|| false);
                    assert_eq!(report.deadlocks > 0, entry.shape.deadlocks(), "{entry:?}");
                    assert!(!report.truncated, "{entry:?}");
                    report.states as u64
                }
                _ => secflow_analyze::analyze(&program).diags.len() as u64,
            };
            actual.push((entry.shape, entry.kind, found));
        }
        let committed: Vec<_> = EXPLORE_SWEEP
            .iter()
            .map(|e| (e.shape, e.kind, e.expect))
            .collect();
        assert_eq!(committed, actual);
    }

    #[test]
    fn guard_drops_only_the_oversized_proofs() {
        let plan = Plan::new(Workload::ColdProof, 7);
        let dropped: Vec<Shape> = plan
            .dropped
            .iter()
            .map(|&i| plan.entries[i].shape)
            .collect();
        assert_eq!(dropped, vec![Chain(400, 8), Loops(50)]);
    }

    #[test]
    fn renaming_keeps_lengths_and_parses() {
        let mut rng = SplitMix64::new(3);
        let program = secflow_workload::fig3_program();
        let renamed = rename(&program, &mut rng);
        for ((_, a), (_, b)) in program.symbols.iter().zip(renamed.symbols.iter()) {
            assert_eq!(a.name.len(), b.name.len());
        }
        let source = print_program(&renamed);
        assert_eq!(source.len(), print_program(&program).len());
        assert_ne!(source, print_program(&program));
        assert!(secflow_lang::parse(&source).is_ok());
    }

    #[test]
    fn certificate_token_survives_the_checkproof_round_trip() {
        let mut plan = Plan::new(Workload::ColdProof, 5);
        let job = plan.jobs(0, 1).swap_remove(0);
        let service = Service::new(16, Limits::default());
        let reply = service.handle_line(&job.line);
        let cert = certificate_token(&reply).expect("certified with a proof");
        let check = service.handle_line(&checkproof_line(9, &job.source, cert));
        assert_eq!(bool_field(&check, "valid"), Some(true), "{check}");
    }
}
