//! The traced run: a workload's exact requests replayed in-process, with
//! spans around the service call and around direct calls of each
//! layer's public function on the same input.
//!
//! Each request's parent span wraps `Service::handle_line` on a
//! `Service` configured like the workload's server. Its child spans
//! re-run, right after it, the layer functions that request exercised:
//! decode and the cache probe always; on a miss also the source parse,
//! the op's compute layers and the journal append. The children are
//! re-executions on the same input, not intervals nested inside the
//! parent's: they start after the parent has returned. The cache probe
//! runs on the benchmark's own `ResultCache`, keyed on the whole request
//! line rather than the service's canonical key, and the append on the
//! benchmark's own `DurableStore`.
//!
//! A span's self time is its duration minus its children's, so the
//! parent's self time estimates what the service spends beyond its
//! layers (locks, metrics, single-flight, reply encoding). Because the
//! children are re-runs, the estimate can go below 0 when a re-run is
//! slower than the same work inside the service. Spans stay in memory
//! and are written out when the run ends; the same replay with spans
//! off gives the tracing overhead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Display;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use secflow_cert::{emit_certificate, show_linear_class, show_two_class, validate_certificate};
use secflow_core::certify;
use secflow_lang::{parse, Program};
use secflow_lattice::{Extended, Lattice, Scheme, TwoPoint, TwoPointScheme};
use secflow_runtime::{explore_with, ExploreLimits};
use secflow_server::json::Json;
use secflow_server::{CacheKey, CachedResult, DurableStore, Limits, Request, ResultCache, Service};

use crate::workload::{self, Entry, Job, Kind, Lattice as Lat};

// ---- counting allocator ---------------------------------------------------

/// The benchmark binary's global allocator: `System`, plus a per-thread
/// count of bytes requested, so a span reports exactly what the code
/// under it allocated. The counts repeat from run to run; they are
/// counts, not speeds.
pub struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down.
    let _ = ALLOCATED.try_with(|c| c.set(c.get().wrapping_add(bytes as u64)));
}

/// Bytes this thread has allocated so far.
fn allocated() -> u64 {
    ALLOCATED.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting reads sizes
// only and touches a const-initialised thread-local that never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every block was allocated by `System` through this
        // type, with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

// ---- spans ----------------------------------------------------------------

/// The span names, one per layer call the replay times.
pub const SPANS: [&str; 12] = [
    "service.handle_line",
    "json.reply_parse",
    "protocol.decode",
    "cache.get",
    "persist.append",
    "lang.parse",
    "core.certify",
    "logic.prove",
    "cert.emit",
    "cert.validate",
    "runtime.explore",
    "analyze.lint",
];

pub struct Span {
    pub name: &'static str,
    /// The request (job) id.
    pub req: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub alloc_bytes: u64,
}

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Runs `f`, recording a span around it when tracing is on.
    fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, Option<usize>) {
        if !self.on {
            return (black_box(f()), None);
        }
        let alloc0 = allocated();
        let start = Instant::now();
        let out = black_box(f());
        let end = Instant::now();
        let alloc_bytes = allocated() - alloc0;
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
            alloc_bytes,
        });
        (out, Some(self.spans.len() - 1))
    }
}

// ---- the replay -----------------------------------------------------------

/// What the replay learned beside its spans.
#[derive(Default)]
pub struct Facts {
    pub proofs: u64,
    pub proof_nodes: u64,
    pub certs: u64,
    pub cert_bytes: u64,
    pub explores: u64,
    pub states: u64,
    pub pruned: u64,
    pub appends: u64,
    pub appended_bytes: u64,
}

pub struct Replay {
    pub spans: Vec<Span>,
    pub wall: Duration,
    pub facts: Facts,
    pub ok: u64,
    pub failures: Vec<String>,
}

/// The in-process counterpart of a workload's server: the service under
/// test, plus the benchmark's own cache and (for journaled workloads)
/// store that the direct `ResultCache::get` / `DurableStore::append`
/// calls run on.
pub struct Target {
    pub service: Service,
    pub cache: ResultCache,
    pub store: Option<DurableStore>,
}

impl Target {
    /// Puts the replies to `jobs` in the direct cache, so its probes hit
    /// where the service's do (`hot_certify`).
    pub fn warm(&mut self, jobs: &[Job]) {
        for job in jobs {
            let reply = self.service.handle_line(&job.line);
            if let Ok(parsed) = Json::parse(&reply) {
                self.cache.put(&key(&job.line), cached_result(&parsed));
            }
        }
    }
}

/// The direct cache's key: the whole request line, so the probe hashes
/// as many bytes as the service's canonical key does.
fn key(line: &str) -> CacheKey {
    CacheKey::of(&[line])
}

/// A reply's cacheable payload: everything but the per-response
/// envelope.
fn cached_result(reply: &Json) -> CachedResult {
    let fields = reply
        .as_obj()
        .unwrap_or_default()
        .iter()
        .filter(|(k, _)| !matches!(k.as_str(), "id" | "ok" | "op" | "cached" | "us" | "threads"))
        .cloned()
        .collect();
    CachedResult {
        ok: reply.get("ok").and_then(Json::as_bool).unwrap_or(false),
        fields,
    }
}

/// Replays `jobs` against `target`, with spans when `traced`.
pub fn replay(entries: &[Entry], jobs: &[Job], mut target: Target, traced: bool) -> Replay {
    let mut tr = Tracer {
        on: traced,
        epoch: Instant::now(),
        spans: Vec::with_capacity(if traced { jobs.len() * 24 } else { 0 }),
    };
    let mut facts = Facts::default();
    let mut failures = Vec::new();
    let mut ok = 0;
    let start = Instant::now();
    for job in jobs {
        match replay_job(&mut tr, &mut target, &mut facts, entries, job) {
            Ok(()) => ok += 1,
            Err(why) => failures.push(why),
        }
    }
    Replay {
        wall: start.elapsed(),
        spans: tr.spans,
        facts,
        ok,
        failures,
    }
}

fn replay_job(
    tr: &mut Tracer,
    t: &mut Target,
    facts: &mut Facts,
    entries: &[Entry],
    job: &Job,
) -> Result<(), String> {
    let id = job.id;
    let (reply, parsed, parent, req) = serve(tr, t, id, &job.line)?;
    if parsed.get("cached").and_then(Json::as_bool) != Some(true) {
        let program = parse_source(tr, parent, id, &job.source)?;
        match job.kind {
            Kind::Certify(lattice) | Kind::Leak(lattice) | Kind::Proof(lattice) => {
                let with_proof = matches!(job.kind, Kind::Proof(_));
                let layers = Layers {
                    parent,
                    id,
                    program: &program,
                    req: &req,
                    with_proof,
                };
                match lattice {
                    Lat::Two => {
                        layers.certify(tr, facts, &TwoPointScheme, &TwoPoint::High, &show_two_class)
                    }
                    Lat::Linear4 => {
                        let (scheme, top) = workload::linear4();
                        layers.certify(tr, facts, &scheme, &top, &show_linear_class)
                    }
                }
            }
            Kind::Explore => explore_layer(tr, facts, parent, id, &program, &req),
            Kind::Lint => {
                tr.span("analyze.lint", id, parent, || {
                    secflow_analyze::analyze(&program)
                });
            }
        }
        remember(tr, t, facts, parent, id, &job.line, &parsed);
    }
    workload::check_reply(entries, job, &reply)?;
    if let Kind::Proof(_) = job.kind {
        let cert = parsed
            .get("certificate")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("request {id}: no certificate"))?;
        let token = workload::certificate_token(&reply).unwrap_or_default();
        let line = workload::checkproof_line(id, &job.source, token);
        let (reply, parsed, parent, _) = serve(tr, t, id, &line)?;
        if parsed.get("cached").and_then(Json::as_bool) != Some(true) {
            parse_source(tr, parent, id, &job.source)?;
            let (valid, _) = tr.span("cert.validate", id, parent, || {
                validate_certificate(&job.source, cert)
            });
            valid.map_err(|e| format!("request {id}: certificate rejected: {}", e.message))?;
            remember(tr, t, facts, parent, id, &line, &parsed);
        }
        if workload::bool_field(&reply, "valid") != Some(true) {
            return Err(format!("request {id}: certificate did not validate"));
        }
    }
    Ok(())
}

/// The service call for one line: the parent span, the client's parse
/// of the reply, and the decode and cache-probe children every request
/// pays.
fn serve(
    tr: &mut Tracer,
    t: &mut Target,
    id: u64,
    line: &str,
) -> Result<(String, Json, Option<usize>, Request), String> {
    let (reply, parent) = tr.span("service.handle_line", id, None, || {
        t.service.handle_line(line)
    });
    let (parsed, _) = tr.span("json.reply_parse", id, None, || Json::parse(&reply));
    let parsed = parsed.map_err(|e| format!("request {id}: unparsable reply: {e}"))?;
    let (req, _) = tr.span("protocol.decode", id, parent, || Request::parse(line));
    let req = req.map_err(|(_, why)| format!("request {id}: {why}"))?;
    tr.span("cache.get", id, parent, || t.cache.get(&key(line)));
    Ok((reply, parsed, parent, req))
}

fn parse_source(
    tr: &mut Tracer,
    parent: Option<usize>,
    id: u64,
    source: &str,
) -> Result<Program, String> {
    let (program, _) = tr.span("lang.parse", id, parent, || parse(source));
    program.map_err(|d| d.render(source))
}

/// Caches a computed reply in the direct cache and, for journaled
/// workloads, appends it to the direct store, compacting when the
/// journal outgrows its budget, as the service does.
fn remember(
    tr: &mut Tracer,
    t: &mut Target,
    facts: &mut Facts,
    parent: Option<usize>,
    id: u64,
    line: &str,
    parsed: &Json,
) {
    let k = key(line);
    let value = cached_result(parsed);
    t.cache.put(&k, value.clone());
    if let Some(store) = t.store.as_mut() {
        let before = store.stats().journal_bytes;
        let _ = tr.span("persist.append", id, parent, || store.append(&k, &value));
        facts.appends += 1;
        facts.appended_bytes += store.stats().journal_bytes.saturating_sub(before);
        if store.wants_compaction() {
            let _ = store.compact(&t.cache.entries());
        }
    }
}

/// The certify-side layer calls for one request.
struct Layers<'a> {
    parent: Option<usize>,
    id: u64,
    program: &'a Program,
    req: &'a Request,
    with_proof: bool,
}

impl Layers<'_> {
    fn certify<S: Scheme>(
        &self,
        tr: &mut Tracer,
        facts: &mut Facts,
        scheme: &S,
        top: &S::Elem,
        show: &dyn Fn(&S::Elem) -> String,
    ) where
        S::Elem: Lattice + Display,
    {
        let (parent, id, program) = (self.parent, self.id, self.program);
        let binding = workload::binding(program, self.req, scheme, top);
        let (report, _) = tr.span("core.certify", id, parent, || certify(program, &binding));
        if !(self.with_proof && report.certified()) {
            return;
        }
        let (proof, _) = tr.span("logic.prove", id, parent, || {
            secflow_logic::prove(program, &binding, Extended::Nil, Extended::Nil)
        });
        let Ok(proof) = proof else { return };
        facts.proofs += 1;
        facts.proof_nodes += proof.size() as u64;
        let (cert, _) = tr.span("cert.emit", id, parent, || {
            emit_certificate(
                &proof,
                &program.symbols,
                &self.req.lattice,
                &self.req.source,
                show,
            )
        });
        facts.certs += 1;
        facts.cert_bytes += cert.text.len() as u64;
    }
}

/// `explore_with` under the limits the service applies to a request
/// without its own `max_states`: persistent sets, the smaller of the
/// explorer's and the server's state caps.
fn explore_layer(
    tr: &mut Tracer,
    facts: &mut Facts,
    parent: Option<usize>,
    id: u64,
    program: &Program,
    req: &Request,
) {
    let inputs: Vec<_> = req
        .inputs
        .iter()
        .filter_map(|(name, value)| Some((program.symbols.lookup(name)?, *value)))
        .collect();
    let default = ExploreLimits::default();
    let limits = ExploreLimits {
        max_states: default.max_states.min(Limits::default().max_explore_states),
        ..default
    }
    .persistent_only();
    let (report, _) = tr.span("runtime.explore", id, parent, || {
        explore_with(program, &inputs, limits, &|| false)
    });
    facts.explores += 1;
    facts.states += report.states as u64;
    facts.pruned += report.states_pruned as u64;
}

// ---- summaries ------------------------------------------------------------

/// Per-name totals over a replay's spans.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub ns: u64,
    /// Duration minus the children's durations, summed.
    pub self_ns: i64,
    pub alloc_bytes: u64,
}

pub fn totals(spans: &[Span]) -> HashMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.end_ns - span.start_ns;
        }
    }
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        let ns = span.end_ns - span.start_ns;
        let t = out.entry(span.name).or_default();
        t.count += 1;
        t.ns += ns;
        t.self_ns += ns as i64 - child_ns[i] as i64;
        t.alloc_bytes += span.alloc_bytes;
    }
    out
}

/// Writes one JSON object per span.
pub fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("{}: {e}", path.display());
    let mut out = BufWriter::new(std::fs::File::create(path).map_err(fail)?);
    for span in spans {
        let n = |v: u64| Json::Num(v as f64);
        let line = Json::Obj(vec![
            ("name".to_string(), Json::Str(span.name.to_string())),
            ("req".to_string(), n(span.req)),
            (
                "parent".to_string(),
                span.parent.map_or(Json::Null, |p| n(p as u64)),
            ),
            ("start_ns".to_string(), n(span.start_ns)),
            ("end_ns".to_string(), n(span.end_ns)),
            ("alloc_bytes".to_string(), n(span.alloc_bytes)),
        ]);
        writeln!(out, "{line}").map_err(fail)?;
    }
    out.flush().map_err(fail)
}
