//! `secflow` — certify, prove, run, explore, leak-test and repair
//! information-flow properties of parallel programs.
//!
//! ```text
//! secflow certify <file> --class x=high --class y=low [--default low] [--baseline]
//!                 [--emit-proof cert.json]
//! secflow prove   <file> --class … [--default …]
//! secflow checkproof <file> --proof cert.json [--json]
//! secflow run     <file> [--input x=3] [--seed N] [--fuel N] [--trace]
//! secflow explore <file> [--input x=3] [--max-states N]
//! secflow leaktest <file> --secret x [--observe y,z] [--values 0,1]
//! secflow infer   <file> --pin x=high [--pin y=low] [--lattice linear:4]
//! secflow fig3    [--x N]
//! ```
//!
//! Classes are `low`/`high` for the default two-point lattice, or `0..n-1`
//! with `--lattice linear:n`.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;

use secflow_analyze::AnalysisReport;
use secflow_cert::{validate_certificate, verdict_fields, Json};
use secflow_core::{certify, check_atomicity, denning_certify};
use secflow_lang::{parse, print_program, Diag, Program, Severity, VarId};
use secflow_runtime::{
    check_noninterference, explore_with, run_traced, ExploreLimits, Machine, RandomSched,
    RoundRobin,
};
use secflow_server::ops::{self, Inferred, OpError, Proved};
use secflow_server::{Op, Request};
use secflow_workload::{fig3_baseline_gap_binding, fig3_program, FIG3_SOURCE};

const USAGE: &str = "\
secflow — information flow control for parallel programs (Reitman, SOSP 1979)

USAGE:
  secflow certify <file> [--class name=CLASS]... [--default CLASS]
                         [--lattice two|linear:N] [--baseline]
                         [--emit-proof cert.json]
  secflow prove   <file> [--class name=CLASS]... [--default CLASS]
                         [--lattice two|linear:N]
  secflow checkproof <file> --proof cert.json [--json]
  secflow run     <file> [--input name=VALUE]... [--seed N] [--fuel N] [--trace]
  secflow explore <file> [--input name=VALUE]... [--max-states N] [--timeout-ms N]
                  [--no-por]
  secflow leaktest <file> --secret NAME [--observe a,b,c] [--values 0,1]
  secflow infer   <file> [--pin name=CLASS]... [--lattice two|linear:N]
  secflow flows   <file> [--class name=CLASS]... [--dot]
  secflow atomicity <file>
  secflow lint    <file|dir> [--json]
  secflow fig3    [--x VALUE]
  secflow serve   [--addr HOST:PORT] [--workers N] [--cache N] [--queue N]
                  [--max-fuel N] [--default-timeout-ms N] [--max-line-bytes N]
                  [--chaos SPEC] [--cache-dir DIR]
                  [--journal-max-bytes N] [--fsync always|interval|never]
                  [--pipeline-window N]
                  [--write-high-water BYTES] [--idle-timeout-ms N]
                  [--stall-timeout-ms N] (no --addr: serve stdin/stdout)
                  [--sync-from HOST:PORT] [--peers a,b,c --advertise
                  HOST:PORT [--peer-timeout-ms N] [--replication N]]
  secflow router  --addr HOST:PORT --peers a,b,c [--peer-timeout-ms N]
                  [serve tuning flags]
  secflow cluster-status --peers a,b,c [--peer-timeout-ms N] [--json]
  secflow repair  --peers a,b,c [--peer-timeout-ms N] [--json]
  secflow cache-inspect <dir> [--json]
  secflow batch   <dir> [--class name=CLASS]... [--default CLASS]
                  [--lattice two|linear:N] [--workers N]
                  [--remote HOST:PORT [--retries N]]
  secflow gen     (--chain N [--vars K] | --philosophers N [--meals M]
                  | --indep N [--steps S]) [--request OP [--timeout-ms N]]
  secflow --version

CLASSES: low | high (two-point, default), or 0..N-1 with --lattice linear:N

EXIT CODES:
  0  success (certified / proof checks / no interference / no lint errors)
  1  analysis failure: parse error, REJECTED certification or proof,
     interference witness, or error-severity lint diagnostics
  2  usage error (unknown command, unknown or bad flag, unreadable
     file, unwritable stdout, ...)
A reader that closes stdout early (`secflow gen … | head -1`) ends the
output; the exit code is still the command's own.

`serve` speaks a JSON-lines protocol; see DESIGN.md (Serving) for the
request/response format. `lint` runs the secflow-analyze passes and
prints unified SF-code diagnostics (one JSON object per line with
--json). `serve --chaos` takes a deterministic fault-plan spec such as
`seed=7,panic=5,io=20,latency=50,latency_ms=2,short=10,stall=5,drop_connects=3,max_faults=40`
(per-mille rates; also read from the SECFLOW_CHAOS env var).
TCP serving runs one readiness-driven poll loop (pipelined requests,
bounded in-flight window, stall/idle timeouts, slow-reader
disconnects; `--write-high-water` bounds a client's unread backlog,
not the size of one reply). Each command accepts only the flags listed
above; `serve`, `router` and `batch` share the serve tuning flags.
`serve --cache-dir DIR` journals every cached result to DIR and
recovers it on restart (crash-safe; see DESIGN.md §10). The directory
must already exist and be writable. `cache-inspect` scans a store
offline (reporting which entries carry proof certificates) and exits 1
if any frame is corrupt. `certify --emit-proof` writes a verifiable
wire certificate (DESIGN.md §11); `checkproof` validates one.
`serve --peers` shards the cache across a static member list by
rendezvous hashing on the request fingerprint (DESIGN.md §14): a node
that does not own a request relays it to the owner, with a hop count
that stops routing loops, so every distinct computation happens
exactly once cluster-wide, and `--sync-from` warm-starts a cold node
by shipping a peer's journal over `peer-sync`. `router` is a
shard-aware stateless front door over the same ownership map;
`cluster-status` polls each member's `stats` and tabulates the cluster
counters, per-node health and shard digests. `serve --replication N`
pushes every freshly computed result to the next N-1 nodes of its
owner's preference list; a push owed to a DOWN replica is skipped,
and when a probe readmits that replica the primary asks it to
`repair` from the primary. `repair` runs one round of pairwise
anti-entropy (digest compare + journal pull) across the member list
and exits 0 only when every shard digest converged.
";

/// A CLI failure, split along the exit-code convention: `Usage` exits 2
/// (bad invocation), `Analysis` exits 1 (the tool ran but the input
/// failed — parse error, rejected proof, and so on). Plain `String`
/// errors from option parsing convert to `Usage`.
enum CliError {
    Usage(String),
    Analysis(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Usage(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Usage(msg.to_string())
    }
}

/// Every op failure is a bad invocation (a class, name or lattice the
/// flags got wrong), so it exits 2 like any other usage error.
impl From<OpError> for CliError {
    fn from((_, msg): OpError) -> CliError {
        CliError::Usage(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(code) => code,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        Err(CliError::Analysis(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    };
    if STDOUT_ERROR.get().is_none() {
        if let Err(e) = io::stdout().flush() {
            let _ = STDOUT_ERROR.set(e);
        }
    }
    match STDOUT_ERROR.get() {
        Some(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::from(2)
        }
        _ => code,
    }
}

// ---- output -------------------------------------------------------------

/// The first error writing stdout. After it, output is dropped: a
/// `BrokenPipe` is a reader that stopped reading, which ends the output
/// and leaves the exit code alone; any other error is reported at exit.
static STDOUT_ERROR: OnceLock<io::Error> = OnceLock::new();

/// Every command's stdout goes through here (by [`out!`] and
/// [`outln!`]) instead of `print!`, which panics on a closed pipe.
fn write_stdout(args: std::fmt::Arguments) {
    if STDOUT_ERROR.get().is_some() {
        return;
    }
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        let _ = STDOUT_ERROR.set(e);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn dispatch(args: &[String]) -> Result<ExitCode, CliError> {
    let Some(cmd) = args.first() else {
        out!("{USAGE}");
        return Ok(ExitCode::from(2));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "certify" => cmd_certify(rest),
        "prove" => cmd_prove(rest),
        "checkproof" => cmd_checkproof(rest),
        "run" => cmd_run(rest),
        "explore" => cmd_explore(rest),
        "leaktest" => cmd_leaktest(rest),
        "infer" => cmd_infer(rest),
        "flows" => cmd_flows(rest),
        "atomicity" => cmd_atomicity(rest),
        "lint" => cmd_lint(rest),
        "fig3" => cmd_fig3(rest),
        "serve" => cmd_serve(rest),
        "router" => cmd_router(rest),
        "cluster-status" => cmd_cluster_status(rest),
        "repair" => cmd_repair(rest),
        "cache-inspect" => cmd_cache_inspect(rest),
        "batch" => cmd_batch(rest),
        "gen" => cmd_gen(rest),
        "version" | "--version" | "-V" => {
            outln!("secflow {}", env!("CARGO_PKG_VERSION"));
            Ok(ExitCode::SUCCESS)
        }
        "help" | "--help" | "-h" => {
            out!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`; try `secflow help`").into()),
    }
}

// ---- option parsing -----------------------------------------------------

struct Opts {
    file: Option<String>,
    flags: BTreeMap<String, Vec<String>>,
}

/// Parses `args` for a subcommand that reads exactly the flags in
/// `known`; any other flag is a usage error, so a typo such as
/// `--cachedir` fails loudly instead of being ignored.
fn parse_opts(args: &[String], known: &[&str]) -> Result<Opts, String> {
    let mut file = None;
    let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if !known.contains(&name) {
                return Err(format!("unknown flag `--{name}`; try `secflow help`"));
            }
            let takes_value = !matches!(name, "baseline" | "trace" | "dot" | "json" | "no-por");
            if takes_value {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                flags.entry(name.to_string()).or_default().push(v.clone());
            } else {
                flags
                    .entry(name.to_string())
                    .or_default()
                    .push(String::new());
            }
        } else if file.is_none() {
            file = Some(a.clone());
        } else {
            return Err(format!("unexpected argument `{a}`"));
        }
        i += 1;
    }
    Ok(Opts { file, flags })
}

impl Opts {
    fn file(&self) -> Result<&str, String> {
        self.file.as_deref().ok_or_else(|| "missing <file>".into())
    }

    fn values(&self, name: &str) -> &[String] {
        self.flags.get(name).map_or(&[], Vec::as_slice)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .get(name)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

fn load_program(path: &str) -> Result<(Program, String), CliError> {
    let source = std::fs::read_to_string(path)
        .map_err(|e| CliError::Usage(format!("cannot read `{path}`: {e}")))?;
    let program = parse(&source).map_err(|d| CliError::Analysis(d.render(&source)))?;
    Ok((program, source))
}

fn split_pair(spec: &str) -> Result<(&str, &str), String> {
    spec.split_once('=')
        .ok_or_else(|| format!("expected name=value, got `{spec}`"))
}

fn parse_pairs<'a>(
    program: &Program,
    specs: impl IntoIterator<Item = &'a String>,
) -> Result<Vec<(VarId, String)>, String> {
    let mut out = Vec::new();
    for spec in specs {
        let (name, value) = split_pair(spec)?;
        let id = program
            .symbols
            .lookup(name)
            .ok_or_else(|| format!("`{name}` is not declared"))?;
        out.push((id, value.to_string()));
    }
    Ok(out)
}

/// Loads `<file>` and builds an `op` request for it from the binding
/// flags: each `--{class_flag}` pair, `--default` and `--lattice`.
fn program_request(opts: &Opts, op: Op, class_flag: &str) -> Result<(Program, Request), CliError> {
    let (program, source) = load_program(opts.file()?)?;
    let mut req = Request::new(op, source);
    for spec in opts.values(class_flag) {
        let (name, class) = split_pair(spec)?;
        req.classes.push((name.to_string(), class.to_string()));
    }
    req.default_class = opts.value("default").map(str::to_string);
    if let Some(lattice) = opts.value("lattice") {
        req.lattice = lattice.to_string();
    }
    Ok((program, req))
}

fn print_binding(binding: &[(String, String)]) {
    for (name, class) in binding {
        outln!("{name}: {class}");
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---- commands -----------------------------------------------------------

fn cmd_certify(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(
        args,
        &["class", "default", "lattice", "baseline", "emit-proof"],
    )?;
    let (program, mut req) = program_request(&opts, Op::Certify, "class")?;
    let emit_proof = opts.value("emit-proof");
    req.baseline = opts.has("baseline");
    req.with_proof = emit_proof.is_some();
    if req.with_proof && req.baseline {
        return Err(
            "--emit-proof needs the CFM flow logic; the Denning baseline has no proof".into(),
        );
    }
    let outcome = ops::certify(&req, &program)?;
    let note = match (emit_proof, &outcome.certificate) {
        (None, _) => String::new(),
        (Some(path), Some(cert)) => {
            std::fs::write(path, &cert.text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            format!(
                "certificate written to {path} ({} nodes, digest sha256:{})\n",
                cert.nodes, cert.digest
            )
        }
        (Some(_), None) => "no certificate: the program was not certified\n".to_string(),
    };
    print_binding(&outcome.binding);
    out!("{}{note}", outcome.report);
    Ok(exit_code(outcome.certified))
}

fn cmd_prove(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(args, &["class", "default", "lattice"])?;
    // `prove` is no wire op: it reads the binding of a certify request.
    let (program, req) = program_request(&opts, Op::Certify, "class")?;
    Ok(exit_code(match ops::prove(&req, &program)? {
        Proved::Proof { nodes, text } => {
            out!("completely invariant flow proof found ({nodes} nodes):\n{text}");
            true
        }
        Proved::NoProof(reason) => {
            outln!("no completely invariant proof: {reason}");
            false
        }
    }))
}

fn cmd_checkproof(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(args, &["proof", "json"])?;
    let (_, source) = load_program(opts.file()?)?;
    let proof_path = opts.value("proof").ok_or("missing --proof <file>")?;
    let cert = std::fs::read_to_string(proof_path)
        .map_err(|e| format!("cannot read `{proof_path}`: {e}"))?;
    // The certificate names its own lattice; a rejection is a verdict
    // (exit 1), not a usage error.
    let verdict = validate_certificate(&source, &cert);
    let valid = verdict.is_ok();
    if opts.has("json") {
        outln!("{}", Json::Obj(verdict_fields(verdict)));
    } else {
        match verdict {
            Ok(summary) => outln!(
                "certificate checks ({} nodes, lattice {})\ndigest sha256:{}",
                summary.nodes,
                summary.lattice,
                summary.digest
            ),
            Err(err) => outln!(
                "certificate REJECTED at stage `{}`: {}",
                err.stage,
                err.message
            ),
        }
    }
    Ok(exit_code(valid))
}

fn parse_inputs(program: &Program, opts: &Opts) -> Result<Vec<(VarId, i64)>, String> {
    parse_pairs(program, opts.values("input"))?
        .into_iter()
        .map(|(id, v)| {
            v.parse::<i64>()
                .map(|n| (id, n))
                .map_err(|_| format!("bad integer `{v}`"))
        })
        .collect()
}

fn cmd_run(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(args, &["input", "seed", "fuel", "trace"])?;
    let (program, _) = load_program(opts.file()?)?;
    let inputs = parse_inputs(&program, &opts)?;
    let fuel: usize = opts.value("fuel").map_or(Ok(1_000_000), |v| {
        v.parse().map_err(|_| "bad --fuel".to_string())
    })?;
    let mut machine = Machine::with_inputs(&program, &inputs);
    let trace = match opts.value("seed") {
        Some(seed) => {
            let seed: u64 = seed.parse().map_err(|_| "bad --seed")?;
            run_traced(&mut machine, &mut RandomSched::new(seed), fuel)
        }
        None => run_traced(&mut machine, &mut RoundRobin::new(), fuel),
    };
    if opts.has("trace") {
        out!("{}", trace.render(&program));
    }
    outln!("outcome: {:?}", trace.outcome);
    for (id, info) in program.symbols.iter() {
        outln!("{} = {}", info.name, machine.get(id));
    }
    Ok(exit_code(trace.outcome.terminated()))
}

fn cmd_explore(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(args, &["input", "max-states", "no-por", "timeout-ms"])?;
    let (program, _) = load_program(opts.file()?)?;
    let inputs = parse_inputs(&program, &opts)?;
    let mut limits = ExploreLimits::default();
    if let Some(ms) = opts.value("max-states") {
        limits.max_states = ms.parse().map_err(|_| "bad --max-states")?;
    }
    // Partial-order reduction is on by default; `--no-por` restores the
    // full interleaving search (e.g. to measure the reduction).
    if opts.has("no-por") {
        limits = limits.without_por();
    }
    let timeout_ms: u64 = opts
        .value("timeout-ms")
        .map_or(Ok(0), |v| v.parse().map_err(|_| "bad --timeout-ms"))?;
    let token = secflow_server::CancelToken::after_ms(timeout_ms);
    let report = explore_with(&program, &inputs, limits, &|| token.expired());
    if report.cancelled {
        outln!(
            "TIMEOUT after {timeout_ms} ms: {} states explored (partial results below)",
            report.states
        );
    }
    outln!(
        "states: {}   pruned: {}   terminal outcomes: {}   deadlocks: {}   faults: {}   truncated: {}",
        report.states,
        report.states_pruned,
        report.outcomes.len(),
        report.deadlocks,
        report.faults,
        report.truncated
    );
    let names: Vec<&str> = program
        .symbols
        .iter()
        .map(|(_, v)| v.name.as_str())
        .collect();
    for store in report.outcomes.iter().take(20) {
        let pairs: Vec<String> = names
            .iter()
            .zip(store)
            .map(|(n, v)| format!("{n}={v}"))
            .collect();
        outln!("  {}", pairs.join(" "));
    }
    if report.outcomes.len() > 20 {
        outln!("  ... {} more", report.outcomes.len() - 20);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_leaktest(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(args, &["secret", "observe", "values"])?;
    let (program, _) = load_program(opts.file()?)?;
    let secret_name = opts.value("secret").ok_or("missing --secret")?;
    let secret = program
        .symbols
        .lookup(secret_name)
        .ok_or_else(|| format!("`{secret_name}` is not declared"))?;
    let low_vars: Vec<VarId> = match opts.value("observe") {
        Some(list) => list
            .split(',')
            .map(|n| {
                program
                    .symbols
                    .lookup(n.trim())
                    .ok_or_else(|| format!("`{n}` is not declared"))
            })
            .collect::<Result<_, _>>()?,
        None => program
            .symbols
            .data_vars()
            .into_iter()
            .filter(|v| *v != secret)
            .collect(),
    };
    let values: Vec<i64> = match opts.value("values") {
        Some(list) => list
            .split(',')
            .map(|v| v.trim().parse().map_err(|_| format!("bad value `{v}`")))
            .collect::<Result<_, _>>()?,
        None => vec![0, 1],
    };
    let variants: Vec<Vec<(VarId, i64)>> = values.iter().map(|v| vec![(secret, *v)]).collect();
    let report = check_noninterference(&program, &variants, &low_vars, ExploreLimits::default());
    if report.truncated {
        outln!("warning: exploration truncated; verdict is a lower bound");
    }
    match report.witness {
        Some(w) => {
            outln!("INTERFERES: secret `{secret_name}` is observable");
            outln!(
                "  {secret_name}={} -> outcomes {:?} deadlock={} fault={}",
                w.inputs_a[0].1,
                w.observed_a.low_outcomes,
                w.observed_a.can_deadlock,
                w.observed_a.can_fault
            );
            outln!(
                "  {secret_name}={} -> outcomes {:?} deadlock={} fault={}",
                w.inputs_b[0].1,
                w.observed_b.low_outcomes,
                w.observed_b.can_deadlock,
                w.observed_b.can_fault
            );
            Ok(ExitCode::FAILURE)
        }
        None => {
            outln!(
                "no interference observed across {} secret values",
                values.len()
            );
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn cmd_infer(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(args, &["pin", "lattice"])?;
    let (program, req) = program_request(&opts, Op::Infer, "pin")?;
    Ok(exit_code(match ops::infer(&req, &program)? {
        Inferred::Binding(binding) => {
            outln!("least certifying binding:");
            print_binding(&binding);
            true
        }
        Inferred::Conflict { conflict, chain } => {
            outln!("no certifying binding: {conflict}\nflow chain: {chain}");
            false
        }
    }))
}

fn cmd_flows(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(args, &["class", "default", "dot"])?;
    let (program, mut req) = program_request(&opts, Op::Flows, "class")?;
    req.dot = opts.has("dot");
    out!("{}", ops::flows(&req, &program)?);
    Ok(ExitCode::SUCCESS)
}

fn cmd_atomicity(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(args, &[])?;
    let (program, source) = load_program(opts.file()?)?;
    let report = check_atomicity(&program);
    out!("{}", report.render(&source));
    Ok(exit_code(report.single_reference()))
}

fn cmd_lint(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(args, &["json"])?;
    let target = opts.file()?.to_string();
    let json = opts.has("json");
    let path = std::path::Path::new(&target);
    let files = if path.is_dir() {
        secflow_server::sf_files(path)?
    } else {
        vec![path.to_path_buf()]
    };

    let (mut errors, mut warnings, mut infos) = (0usize, 0usize, 0usize);
    for file in &files {
        let display = file.display().to_string();
        let source = std::fs::read_to_string(file)
            .map_err(|e| CliError::Usage(format!("cannot read `{display}`: {e}")))?;
        // A parse error is itself a diagnostic: report it through the
        // same renderer instead of aborting the whole lint run.
        let report = match parse(&source) {
            Ok(program) => secflow_analyze::analyze(&program),
            Err(d) => AnalysisReport::from_diags(vec![Diag::from(&d)]),
        };
        errors += report.count(Severity::Error);
        warnings += report.count(Severity::Warning);
        infos += report.count(Severity::Info);
        if json {
            out!("{}", report.to_json_lines(Some(&display), &source));
        } else if !report.clean() {
            outln!("{display}:");
            out!("{}", report.render(&source));
        }
    }
    if !json {
        outln!(
            "{} file(s) linted: {errors} error(s), {warnings} warning(s), {infos} info(s)",
            files.len()
        );
    }
    Ok(exit_code(errors == 0))
}

/// The flags [`server_config`] reads: `serve`, `router` and `batch` all
/// accept them.
const SERVER_FLAGS: &[&str] = &[
    "workers",
    "queue",
    "cache",
    "max-fuel",
    "default-timeout-ms",
    "max-line-bytes",
    "pipeline-window",
    "write-high-water",
    "idle-timeout-ms",
    "stall-timeout-ms",
    "chaos",
    "cache-dir",
    "journal-max-bytes",
    "fsync",
    "peers",
    "advertise",
    "peer-timeout-ms",
    "replication",
    "sync-from",
];

fn server_config(opts: &Opts) -> Result<secflow_server::ServerConfig, String> {
    let mut cfg = secflow_server::ServerConfig::default();
    if let Some(v) = opts.value("workers") {
        cfg.workers = v.parse().map_err(|_| "bad --workers")?;
    }
    if let Some(v) = opts.value("queue") {
        cfg.queue_capacity = v.parse().map_err(|_| "bad --queue")?;
    }
    if let Some(v) = opts.value("cache") {
        cfg.cache_capacity = v.parse().map_err(|_| "bad --cache")?;
    }
    if let Some(v) = opts.value("max-fuel") {
        cfg.limits.max_fuel = v.parse().map_err(|_| "bad --max-fuel")?;
    }
    if let Some(v) = opts.value("default-timeout-ms") {
        cfg.limits.default_timeout_ms = v.parse().map_err(|_| "bad --default-timeout-ms")?;
    }
    if let Some(v) = opts.value("max-line-bytes") {
        cfg.max_line_bytes = v.parse().map_err(|_| "bad --max-line-bytes")?;
    }
    if let Some(v) = opts.value("pipeline-window") {
        let window: usize = v.parse().map_err(|_| "bad --pipeline-window")?;
        if window == 0 {
            return Err("bad --pipeline-window (must be >= 1)".to_string());
        }
        cfg.pipeline_window = window;
    }
    if let Some(v) = opts.value("write-high-water") {
        cfg.write_high_water = v.parse().map_err(|_| "bad --write-high-water")?;
    }
    if let Some(v) = opts.value("idle-timeout-ms") {
        cfg.idle_timeout_ms = v.parse().map_err(|_| "bad --idle-timeout-ms")?;
    }
    if let Some(v) = opts.value("stall-timeout-ms") {
        cfg.stall_timeout_ms = v.parse().map_err(|_| "bad --stall-timeout-ms")?;
    }
    // --chaos takes a fault-plan spec; SECFLOW_CHAOS is the env fallback
    // so CI can inject faults without changing invocations.
    let chaos_spec = opts
        .value("chaos")
        .map(str::to_string)
        .or_else(|| std::env::var("SECFLOW_CHAOS").ok());
    if let Some(spec) = chaos_spec {
        let plan =
            secflow_server::FaultPlan::parse(&spec).map_err(|e| format!("bad --chaos: {e}"))?;
        cfg.chaos = Some(std::sync::Arc::new(plan));
    }
    if let Some(dir) = opts.value("cache-dir") {
        let mut pcfg = secflow_server::PersistConfig::new(validated_cache_dir(dir)?);
        if let Some(v) = opts.value("journal-max-bytes") {
            pcfg.journal_max_bytes = v.parse().map_err(|_| "bad --journal-max-bytes")?;
        }
        if let Some(v) = opts.value("fsync") {
            pcfg.fsync = secflow_server::FsyncMode::parse(v).map_err(|e| format!("bad {e}"))?;
        }
        cfg.persist = Some(pcfg);
    } else if opts.has("journal-max-bytes") || opts.has("fsync") {
        return Err("--journal-max-bytes and --fsync require --cache-dir".to_string());
    }
    // `--sync-from` alone (no --peers) is a standalone warm start: the
    // node ships a peer's journal at boot but joins no ring.
    let peers = peer_list(opts)?;
    if peers.is_some() || opts.has("sync-from") {
        let mut cluster = secflow_server::ClusterConfig::new(&peers.unwrap_or_default());
        cluster.self_addr = opts.value("advertise").map(str::to_string);
        if let Some(v) = opts.value("peer-timeout-ms") {
            let ms: u64 = v.parse().map_err(|_| "bad --peer-timeout-ms")?;
            if ms == 0 {
                return Err("bad --peer-timeout-ms (must be >= 1)".to_string());
            }
            cluster.peer_timeout_ms = ms;
        }
        if let Some(v) = opts.value("replication") {
            let rf: u64 = v.parse().map_err(|_| "bad --replication")?;
            if rf == 0 {
                return Err("bad --replication (must be >= 1)".to_string());
            }
            cluster.replication = rf;
        }
        cluster.sync_from = opts.value("sync-from").map(str::to_string);
        cfg.cluster = Some(cluster);
    } else if ["advertise", "peer-timeout-ms", "replication"]
        .iter()
        .any(|f| opts.has(f))
    {
        return Err("--advertise, --peer-timeout-ms and --replication require --peers".to_string());
    }
    Ok(cfg)
}

/// Collects `--peers` (repeatable, comma-separated) into one address
/// list; `Ok(None)` when the flag is absent.
fn peer_list(opts: &Opts) -> Result<Option<Vec<String>>, String> {
    if !opts.has("peers") {
        return Ok(None);
    }
    let peers: Vec<String> = opts
        .values("peers")
        .iter()
        .flat_map(|spec| spec.split(','))
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect();
    if peers.is_empty() {
        return Err("--peers needs at least one HOST:PORT".to_string());
    }
    Ok(Some(peers))
}

/// Validates a `--cache-dir` value up front: the directory must already
/// exist (a typo'd path must not silently create an empty store
/// elsewhere) and be writable, probed by opening the journal for
/// append. Failures are structured usage errors (exit 2), never panics.
fn validated_cache_dir(dir: &str) -> Result<PathBuf, String> {
    let path = PathBuf::from(dir);
    if !path.is_dir() {
        return Err(format!(
            "--cache-dir `{dir}` is not an existing directory (create it first)"
        ));
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path.join(secflow_server::persist::JOURNAL_FILE))
        .map_err(|e| format!("--cache-dir `{dir}` is not writable: {e}"))?;
    Ok(path)
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(args, &[SERVER_FLAGS, &["addr"]].concat())?;
    let cfg = server_config(&opts)?;
    if let Some(cluster) = cfg.cluster.as_ref().filter(|c| !c.peers.is_empty()) {
        // A sharded node must know its own shard; a router (self_addr
        // unset) has its own subcommand with clearer semantics.
        let Some(me) = &cluster.self_addr else {
            return Err(
                "serve --peers needs --advertise HOST:PORT (or use `secflow router`)"
                    .to_string()
                    .into(),
            );
        };
        if !cluster.peers.contains(me) {
            return Err(format!("--advertise `{me}` is not in the --peers list").into());
        }
    }
    match opts.value("addr") {
        Some(addr) => {
            let (workers, queue, cache) = (cfg.workers, cfg.queue_capacity, cfg.cache_capacity);
            let chaos = cfg.chaos.is_some();
            let shard = cfg
                .cluster
                .as_ref()
                .map(|c| {
                    format!(
                        ", shard {} of {}",
                        c.self_addr.as_deref().unwrap_or("?"),
                        c.peers.len()
                    )
                })
                .unwrap_or_default();
            let server =
                secflow_server::serve_tcp(addr, cfg).map_err(|e| format!("cannot bind: {e}"))?;
            eprintln!(
                "secflow-server listening on {} ({workers} workers, queue {queue}, cache {cache}{shard}{})",
                server.local_addr(),
                if chaos { ", CHAOS ON" } else { "" }
            );
            server
                .join()
                .map_err(|_| "server thread panicked".to_string())?;
        }
        None => {
            secflow_server::serve_stdio(cfg).map_err(|e| format!("io error: {e}"))?;
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `secflow router`: a stateless shard-aware front door. Reuses the
/// whole serve stack (poll front-end, pool, cache) with a cluster
/// config that owns no shard, so every request is forwarded to its
/// ring owner — and re-routed to a successor when the owner is down.
fn cmd_router(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(args, &[SERVER_FLAGS, &["addr"]].concat())?;
    if opts.has("advertise") || opts.has("sync-from") {
        return Err("a router owns no shard; --advertise/--sync-from are for `serve`".into());
    }
    let cfg = server_config(&opts)?;
    if cfg.cluster.is_none() {
        return Err("router needs --peers HOST:PORT,HOST:PORT,...".into());
    }
    let addr = opts.value("addr").ok_or("router needs --addr HOST:PORT")?;
    let peers = cfg.cluster.as_ref().map_or(0, |c| c.peers.len());
    let server = secflow_server::serve_tcp(addr, cfg).map_err(|e| format!("cannot bind: {e}"))?;
    eprintln!(
        "secflow-router listening on {} (routing {peers} peers)",
        server.local_addr()
    );
    server
        .join()
        .map_err(|_| "router thread panicked".to_string())?;
    Ok(ExitCode::SUCCESS)
}

/// `secflow cluster-status`: polls every `--peers` member's `stats`
/// op and tabulates the cluster counters. Exit 0 when every member
/// answered, 1 when any was unreachable (so health checks can gate on
/// it), 2 on bad usage.
fn cmd_cluster_status(args: &[String]) -> Result<ExitCode, CliError> {
    use secflow_server::Json;
    let opts = parse_opts(args, &["peers", "peer-timeout-ms", "json"])?;
    let peers = peer_list(&opts)?.ok_or("cluster-status needs --peers HOST:PORT,...")?;
    let timeout_ms: u64 = opts.value("peer-timeout-ms").map_or(Ok(2_000), |v| {
        v.parse().map_err(|_| "bad --peer-timeout-ms")
    })?;
    let policy = secflow_server::RetryPolicy {
        budget: 2,
        io_timeout: Some(std::time::Duration::from_millis(timeout_ms.max(1))),
        ..secflow_server::RetryPolicy::default()
    };
    let req = secflow_server::Request::new(secflow_server::Op::Stats, "");
    let json = opts.has("json");
    let mut down = 0usize;
    if !json {
        outln!(
            "{:<22} {:>8} {:>8} {:>9} {:>9} {:>6} {:>17}",
            "NODE",
            "REQS",
            "HITS",
            "FORWARDS",
            "FWD_HITS",
            "RING",
            "DIGEST"
        );
    }
    for peer in &peers {
        let reply = secflow_server::RemoteClient::new(peer, policy).call(&req);
        match reply.ok().and_then(|line| Json::parse(&line).ok()) {
            Some(stats) => {
                let n = |v: &Json, field: &str| v.get(field).and_then(Json::as_u64).unwrap_or(0);
                let cluster = stats.get("cluster").cloned().unwrap_or(Json::Obj(vec![]));
                if json {
                    // Surface the healing fields at the top level so
                    // harnesses can assert convergence without digging
                    // through the whole stats object (still attached).
                    outln!(
                        "{}",
                        Json::Obj(vec![
                            ("node".to_string(), Json::Str(peer.clone())),
                            ("up".to_string(), Json::Bool(true)),
                            (
                                "shard_digest".to_string(),
                                cluster
                                    .get("shard_digest")
                                    .cloned()
                                    .unwrap_or(Json::Str(String::new())),
                            ),
                            (
                                "peers".to_string(),
                                cluster.get("peers").cloned().unwrap_or(Json::Arr(vec![])),
                            ),
                            ("stats".to_string(), stats),
                        ])
                    );
                } else {
                    outln!(
                        "{:<22} {:>8} {:>8} {:>9} {:>9} {:>6} {:>17}",
                        peer,
                        n(&stats, "requests"),
                        n(&stats, "cache_hits"),
                        n(&cluster, "forwards"),
                        n(&cluster, "forward_hits"),
                        n(&cluster, "hash_ring_size"),
                        cluster
                            .get("shard_digest")
                            .and_then(Json::as_str)
                            .unwrap_or("-"),
                    );
                }
            }
            None => {
                down += 1;
                if json {
                    outln!(
                        "{}",
                        Json::Obj(vec![
                            ("node".to_string(), Json::Str(peer.clone())),
                            ("up".to_string(), Json::Bool(false)),
                        ])
                    );
                } else {
                    outln!("{peer:<22} DOWN");
                }
            }
        }
    }
    Ok(exit_code(down == 0))
}

/// `secflow repair`: one round of pairwise anti-entropy across the
/// member list. Every node is told to `repair` against every other
/// node (digest compare, journal pull on mismatch); afterwards each
/// node's shard digest is read back over `ping` and the command exits
/// 0 only when every node answered and all digests converged. Because
/// each pull installs the verified union of both caches, one
/// sequential pass converges the whole cluster.
fn cmd_repair(args: &[String]) -> Result<ExitCode, CliError> {
    use secflow_server::Json;
    let opts = parse_opts(args, &["peers", "peer-timeout-ms", "json"])?;
    let peers = peer_list(&opts)?.ok_or("repair needs --peers HOST:PORT,...")?;
    if peers.len() < 2 {
        return Err("repair needs at least two --peers".into());
    }
    let timeout_ms: u64 = opts.value("peer-timeout-ms").map_or(Ok(5_000), |v| {
        v.parse().map_err(|_| "bad --peer-timeout-ms")
    })?;
    let policy = secflow_server::RetryPolicy {
        budget: 2,
        io_timeout: Some(std::time::Duration::from_millis(timeout_ms.max(1))),
        ..secflow_server::RetryPolicy::default()
    };
    let json = opts.has("json");
    let mut failures = 0usize;
    let mut installed_total = 0u64;
    for node in &peers {
        for peer in peers.iter().filter(|p| *p != node) {
            let mut req = secflow_server::Request::new(secflow_server::Op::Repair, "");
            req.peer = Some(peer.clone());
            let reply = secflow_server::RemoteClient::new(node, policy).call(&req);
            match reply.ok().and_then(|line| Json::parse(&line).ok()) {
                Some(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => {
                    let installed = v.get("installed").and_then(Json::as_u64).unwrap_or(0);
                    installed_total += installed;
                    if json {
                        outln!(
                            "{}",
                            Json::Obj(vec![
                                ("node".to_string(), Json::Str(node.clone())),
                                ("peer".to_string(), Json::Str(peer.clone())),
                                ("ok".to_string(), Json::Bool(true)),
                                ("installed".to_string(), Json::Num(installed as f64)),
                            ])
                        );
                    } else if installed > 0 {
                        outln!("{node} <- {peer}: installed {installed}");
                    }
                }
                _ => {
                    failures += 1;
                    if json {
                        outln!(
                            "{}",
                            Json::Obj(vec![
                                ("node".to_string(), Json::Str(node.clone())),
                                ("peer".to_string(), Json::Str(peer.clone())),
                                ("ok".to_string(), Json::Bool(false)),
                            ])
                        );
                    } else {
                        outln!("{node} <- {peer}: FAILED");
                    }
                }
            }
        }
    }
    // Read back every node's digest; convergence is the whole point.
    let ping = secflow_server::Request::new(secflow_server::Op::Ping, "");
    let mut digests: Vec<String> = Vec::new();
    for node in &peers {
        let reply = secflow_server::RemoteClient::new(node, policy).call(&ping);
        match reply
            .ok()
            .and_then(|line| Json::parse(&line).ok())
            .and_then(|v| v.get("digest").and_then(Json::as_str).map(str::to_string))
        {
            Some(digest) => {
                if !json {
                    outln!("{node}: digest {digest}");
                }
                digests.push(digest);
            }
            None => {
                failures += 1;
                if !json {
                    outln!("{node}: UNREACHABLE");
                }
            }
        }
    }
    let converged =
        failures == 0 && digests.len() == peers.len() && digests.windows(2).all(|w| w[0] == w[1]);
    if json {
        outln!(
            "{}",
            Json::Obj(vec![
                ("converged".to_string(), Json::Bool(converged)),
                ("nodes".to_string(), Json::Num(peers.len() as f64)),
                ("failures".to_string(), Json::Num(failures as f64)),
                ("installed".to_string(), Json::Num(installed_total as f64)),
            ])
        );
    } else {
        outln!(
            "repair: {installed_total} installed, {failures} failure(s), converged: {converged}"
        );
    }
    Ok(exit_code(converged))
}

/// `secflow cache-inspect <dir>`: scans a durable store offline (no
/// lock, no mutation) and reports its contents. Exit 0 when every frame
/// is CRC-clean, 1 when corruption was skipped (analysis failure), 2 on
/// a missing/unreadable directory (usage error).
fn cmd_cache_inspect(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(args, &["json"])?;
    let dir = opts.file()?;
    let report = secflow_server::inspect_store(std::path::Path::new(dir))
        .map_err(|e| CliError::Usage(format!("cannot inspect `{dir}`: {e}")))?;
    if opts.has("json") {
        use secflow_server::Json;
        let n = |v: u64| Json::Num(v as f64);
        let obj = Json::Obj(vec![
            (
                "snapshot_entries".to_string(),
                n(report.snapshot_entries.len() as u64),
            ),
            (
                "journal_entries".to_string(),
                n(report.journal_entries.len() as u64),
            ),
            (
                "unique_entries".to_string(),
                n(report.unique_entries() as u64),
            ),
            ("cert_entries".to_string(), n(report.cert_entries() as u64)),
            ("frames_skipped".to_string(), n(report.frames_skipped)),
            ("snapshot_bytes".to_string(), n(report.snapshot_bytes)),
            ("journal_bytes".to_string(), n(report.journal_bytes)),
            ("tmp_present".to_string(), Json::Bool(report.tmp_present)),
            ("clean".to_string(), Json::Bool(report.clean())),
        ]);
        outln!("{obj}");
    } else {
        out!("{}", secflow_server::render_report(&report));
    }
    Ok(exit_code(report.clean()))
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(
        args,
        &[
            SERVER_FLAGS,
            &["class", "default", "lattice", "remote", "retries"],
        ]
        .concat(),
    )?;
    let dir = opts.file()?;
    let cfg = server_config(&opts)?;
    let mut classes = Vec::new();
    for spec in opts.values("class") {
        let (name, class) = spec
            .split_once('=')
            .ok_or_else(|| format!("expected name=CLASS, got `{spec}`"))?;
        classes.push((name.to_string(), class.to_string()));
    }
    let summary = match opts.value("remote") {
        // Remote mode: ship every file to a running server through the
        // retrying client instead of certifying in-process.
        Some(addr) => {
            let mut policy = secflow_server::RetryPolicy::default();
            if let Some(v) = opts.value("retries") {
                policy.budget = v.parse().map_err(|_| "bad --retries")?;
            }
            secflow_server::run_batch_remote(
                std::path::Path::new(dir),
                &classes,
                opts.value("default"),
                opts.value("lattice").unwrap_or("two"),
                addr,
                policy,
            )?
        }
        None => secflow_server::run_batch(
            std::path::Path::new(dir),
            &classes,
            opts.value("default"),
            opts.value("lattice").unwrap_or("two"),
            cfg,
        )?,
    };
    out!("{}", secflow_server::render_summary(&summary));
    Ok(exit_code(summary.errored == 0))
}

/// Generates a synthetic workload program — a sequential assignment
/// chain (`--chain N`, parse/certify depth) or unordered dining
/// philosophers (`--philosophers N`, an interleaving-space bomb for
/// `explore`) — either as plain source or wrapped in a ready-to-send
/// JSON-lines request. The latter is what the CI timeout smoke pipes
/// into `secflow serve`.
fn cmd_gen(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(
        args,
        &[
            "chain",
            "vars",
            "philosophers",
            "meals",
            "indep",
            "steps",
            "request",
            "timeout-ms",
        ],
    )?;
    let source = match (
        opts.value("chain"),
        opts.value("philosophers"),
        opts.value("indep"),
    ) {
        (Some(length), None, None) => {
            let length = gen_size("chain", length, 1, i64::MAX)?;
            let vars = opts
                .value("vars")
                .map_or(Ok(8), |v| gen_size("vars", v, 2, i64::MAX))?;
            print_program(&secflow_workload::sequential_chain(
                length as usize,
                vars as usize,
            ))
        }
        (None, Some(n), None) => {
            let n = gen_size("philosophers", n, 2, 6)?;
            let meals = opts
                .value("meals")
                .map_or(Ok(1000), |v| gen_size("meals", v, 1, i64::MAX))?;
            print_program(&secflow_workload::dining_philosophers(
                n as usize, meals, false,
            ))
        }
        (None, None, Some(n)) => {
            let n = gen_size("indep", n, 2, i64::MAX)?;
            let steps = opts
                .value("steps")
                .map_or(Ok(4), |v| gen_size("steps", v, 1, i64::MAX))?;
            print_program(&secflow_workload::indep(n as usize, steps as usize))
        }
        _ => {
            return Err("pass exactly one of --chain N, --philosophers N or --indep N".into());
        }
    };
    match opts.value("request") {
        None => out!("{source}"),
        Some(op_name) => {
            // A program op a generated workload can carry: `checkproof`
            // needs a certificate, and the other ops take no program.
            let op = match Op::from_name(op_name) {
                Some(op) if op.is_program() && op != Op::Checkproof => op,
                _ => return Err(format!("bad --request op `{op_name}`").into()),
            };
            let mut req = Request::new(op, source);
            if let Some(t) = opts.value("timeout-ms") {
                req.timeout_ms = Some(t.parse().map_err(|_| "bad --timeout-ms")?);
            }
            if op == Op::Explore {
                // Raise the state cap to the server's hard limit so a
                // deadline, not truncation, is what stops the search.
                req.max_states = Some(u64::MAX);
            }
            outln!("{}", req.to_line());
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Reads the `gen` size `--{name} value`, which must lie in
/// `min..=max`: the workload generators assert their sizes, so a value
/// outside the range is a usage error that names the flag and the range.
fn gen_size(name: &str, value: &str, min: i64, max: i64) -> Result<i64, String> {
    let range = if max == i64::MAX {
        format!("at least {min}")
    } else {
        format!("{min} to {max}")
    };
    match value.parse() {
        Ok(n) if (min..=max).contains(&n) => Ok(n),
        _ => Err(format!("--{name} must be {range}, got `{value}`")),
    }
}

fn cmd_fig3(args: &[String]) -> Result<ExitCode, CliError> {
    let opts = parse_opts(args, &["x"])?;
    let x: i64 = opts
        .value("x")
        .map_or(Ok(0), |v| v.parse().map_err(|_| "bad --x".to_string()))?;
    let program = fig3_program();
    outln!("--- Figure 3 (Reitman, SOSP 1979) ---");
    out!("{FIG3_SOURCE}");
    outln!("--- certification under the baseline-gap binding ---");
    let binding = fig3_baseline_gap_binding(&program);
    out!("{}", binding.render(&program));
    let cfm = certify(&program, &binding);
    let base = denning_certify(&program, &binding);
    outln!(
        "CFM:      {}",
        if cfm.certified() {
            "certified"
        } else {
            "REJECTED"
        }
    );
    outln!(
        "Dennings: {}",
        if base.certified() {
            "certified"
        } else {
            "REJECTED"
        }
    );
    outln!("--- execution with x = {x} ---");
    let mut machine = Machine::with_inputs(&program, &[(program.var("x"), x)]);
    let trace = run_traced(&mut machine, &mut RoundRobin::new(), 100_000);
    outln!("outcome: {:?}", trace.outcome);
    outln!("y = {} (x was {})", machine.get(program.var("y")), x);
    outln!("--- pretty-printed AST round-trip ---");
    out!("{}", print_program(&program));
    Ok(ExitCode::SUCCESS)
}
