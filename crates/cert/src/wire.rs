//! The canonical certificate wire format and its standalone validator.
//!
//! A certificate is a single-line canonical JSON object with exactly
//! these fields, in exactly this order:
//!
//! ```json
//! {"format":"secflow-cert",
//!  "version":2,
//!  "lattice":"two",
//!  "program_sha256":"<hex>",
//!  "proof":{"exprs":[...],"assertions":[...],"root":["seq",0,1,[...]]},
//!  "digest":"<hex>"}
//! ```
//!
//! - `lattice` names the scheme the class literals are drawn from:
//!   `"two"` (low/high) or `"linear:N"` (levels `0..N` written in
//!   decimal). Literals use the canonical spellings only.
//! - `program_sha256` fingerprints the exact source text the proof is
//!   about; a validator checks it before anything structural.
//! - `proof` mirrors [`Proof`], with every distinct class expression
//!   and every distinct assertion written once, in a table, and named
//!   by its index everywhere else. Theorem 1 builds completely
//!   invariant proofs, so most nodes repeat one of a few assertions.
//!   - `exprs`: each class expression is `[[atom,...], lit]`, atoms
//!     `"v:<name>"`, `"local"` or `"global"` in the [`ClassExpr`]
//!     order (variables by declaration, then `local`, then `global`),
//!     and `lit` a class literal or `null` (the bottom element ν).
//!   - `assertions`: each is `[[[lhs,rhs],...], local, global]`, every
//!     entry an expression index and `local`/`global` possibly `null`
//!     (unconstrained).
//!   - `root`: a node is `[rule, pre, post, [kids...]]`, `pre`/`post`
//!     assertion indices and the rule one of `skip`, `assign`,
//!     `signal`, `wait`, `if`, `while`, `seq`, `cobegin`, `conseq`.
//!
//!   Substitution data is deliberately *not* carried: the checker
//!   re-derives every substitution from the statement itself, so there
//!   is nothing in a certificate a validator has to take on faith.
//! - `digest` is the SHA-256 of the serialization of the other five
//!   fields (the object with `digest` removed), making certificates
//!   content-addressable and cheap to reject after transport damage.
//!
//! Canonicality: field order is fixed, whitespace is absent, strings
//! use the [`Json`] writer's escaping, atoms are sorted and distinct,
//! and the tables are numbered in order of first use: a pre-order walk
//! of the nodes meets each node's `pre`, then its `post`, then its
//! kids, and a newly met assertion meets each bound's `lhs` then `rhs`,
//! then `local`, then `global`. Every entry is used and none repeats
//! another, so equal proofs serialize to equal bytes and equal digests,
//! and a proof has no other encoding.
//!
//! Validation never runs Theorem 1 search. It re-checks, in order:
//! the envelope (stages `json`/`format`/`version`), the digest
//! (`digest`), the program fingerprint (`program`), the source parse
//! (`source`), the lattice descriptor (`lattice`), the proof decode and
//! its tables' canonicality (`proof`), and finally the full Figure-1
//! derivation via [`check_proof`] (`check`). Each table entry is
//! decoded once, and the table checks hash entries rather than compare
//! them pairwise. Every node that names an assertion shares the one
//! decoded entry, so a decoded proof holds each entry once and a
//! pointer per reference. Each reference is still charged, at the full
//! size of the entry it names, against a budget of 64 × statements ×
//! (symbols + 2) expression slots (an expression is one slot plus one
//! per atom), the most any Theorem 1 proof of the source names; a proof
//! that would name more is rejected at stage `proof`. A forged
//! certificate therefore asks the checker for no more than the prover's
//! own proof of the same source would, whatever it repeats. Every
//! failure is a structured [`CertError`] naming its stage — adversarial
//! input can not panic.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use secflow_lang::metrics::measure;
use secflow_lang::{parse, Program, SymbolTable};
use secflow_lattice::{Extended, Lattice, Linear, LinearScheme, TwoPoint};
use secflow_logic::{check_proof, Assertion, Atom, Bound, ClassExpr, Proof, Rule};

use crate::digest::sha256_hex;
use crate::json::{Fields, Json};

/// The `format` field of every certificate.
pub const CERT_FORMAT: &str = "secflow-cert";
/// The schema version this crate emits and accepts.
pub const CERT_VERSION: u64 = 2;

/// The fixed top-level field order (digest last, over the rest).
const FIELDS: [&str; 6] = [
    "format",
    "version",
    "lattice",
    "program_sha256",
    "proof",
    "digest",
];

/// A freshly emitted certificate.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// The canonical single-line JSON text (the wire bytes).
    pub text: String,
    /// The content digest (also embedded in `text`).
    pub digest: String,
    /// Proof tree size in nodes.
    pub nodes: usize,
}

/// What a successful validation learned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertSummary {
    /// Proof tree size in nodes.
    pub nodes: usize,
    /// The lattice descriptor the certificate named.
    pub lattice: String,
    /// The verified content digest.
    pub digest: String,
}

/// A structured validation failure: which stage rejected, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertError {
    /// The rejecting stage: `json`, `format`, `version`, `digest`,
    /// `program`, `source`, `lattice`, `proof` or `check`.
    pub stage: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl CertError {
    fn new(stage: &'static str, message: impl Into<String>) -> Self {
        CertError {
            stage,
            message: message.into(),
        }
    }
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certificate rejected at stage `{}`: {}",
            self.stage, self.message
        )
    }
}

impl std::error::Error for CertError {}

/// The SHA-256 fingerprint of a program source text (lowercase hex).
pub fn program_fingerprint(source: &str) -> String {
    sha256_hex(source.as_bytes())
}

/// Canonical spelling of a two-point class (`low` / `high`).
pub fn show_two_class(l: &TwoPoint) -> String {
    match l {
        TwoPoint::Low => "low".to_string(),
        TwoPoint::High => "high".to_string(),
    }
}

/// Canonical spelling of a linear class (the bare decimal level).
pub fn show_linear_class(l: &Linear) -> String {
    l.0.to_string()
}

/// Reads a two-point class as a user types it: `low`/`l` or `high`/`h`,
/// in any case. Certificates accept only the canonical spellings.
pub fn parse_two_class(s: &str) -> Result<TwoPoint, String> {
    match s.to_ascii_lowercase().as_str() {
        "low" | "l" => Ok(TwoPoint::Low),
        "high" | "h" => Ok(TwoPoint::High),
        other => Err(format!("unknown class `{other}` (low | high)")),
    }
}

/// Reads a linear class as a user types it: a decimal level, with at
/// most one `L`/`l` prefix (`3`, `L3`, `l3`), in range for `scheme`.
pub fn parse_linear_class(scheme: &LinearScheme, s: &str) -> Result<Linear, String> {
    let top = scheme.levels() - 1;
    let k: u32 = s
        .strip_prefix(['L', 'l'])
        .unwrap_or(s)
        .parse()
        .map_err(|_| format!("unknown class `{s}` (0..={top})"))?;
    scheme
        .level(k)
        .ok_or_else(|| format!("level {k} out of range (0..={top})"))
}

/// A lattice as a request or a certificate names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatticeSpec {
    /// The two-point lattice `low < high`, named `two`.
    Two,
    /// The chain `0 < 1 < … < N-1`, named `linear:N`.
    Linear(LinearScheme),
}

/// Displays the canonical descriptor that certificates name: `two`,
/// or `linear:N` with `N` in plain decimal.
impl fmt::Display for LatticeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatticeSpec::Two => f.write_str("two"),
            LatticeSpec::Linear(scheme) => write!(f, "linear:{}", scheme.levels()),
        }
    }
}

/// Reads a lattice spec: `two`, or `linear:N` for any `N >= 1` that
/// `u32` parses, so `linear:04` names the same lattice as `linear:4`.
/// Requests and certificates both go through this one reader.
pub fn parse_lattice_spec(spec: &str) -> Result<LatticeSpec, String> {
    if spec == "two" {
        return Ok(LatticeSpec::Two);
    }
    let levels = spec
        .strip_prefix("linear:")
        .and_then(|n| n.parse::<u32>().ok())
        .ok_or_else(|| format!("bad lattice `{spec}` (expected `two` or `linear:N`)"))?;
    LinearScheme::new(levels)
        .map(LatticeSpec::Linear)
        .ok_or_else(|| "linear lattice needs N >= 1".to_string())
}

fn parse_two_lit(s: &str) -> Option<TwoPoint> {
    match s {
        "low" => Some(TwoPoint::Low),
        "high" => Some(TwoPoint::High),
        _ => None,
    }
}

fn parse_linear_lit(s: &str, levels: u32) -> Option<Linear> {
    if s.is_empty() || s.len() > 9 || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    // Canonical decimal only: no leading zeros (other than "0" itself).
    if s.len() > 1 && s.starts_with('0') {
        return None;
    }
    let k: u32 = s.parse().ok()?;
    (k < levels).then_some(Linear(k))
}

// ---- emission -------------------------------------------------------------

/// Serializes a proof into a canonical certificate for `source`.
///
/// `lattice` is the descriptor validators will dispatch on, in its
/// canonical spelling (a [`LatticeSpec`] displayed: `"two"` or
/// `"linear:N"`); `show_lit` must render class literals in the
/// canonical spelling for that descriptor ([`show_two_class`] /
/// [`show_linear_class`]).
pub fn emit_certificate<L: Lattice>(
    proof: &Proof<L>,
    symbols: &SymbolTable,
    lattice: &str,
    source: &str,
    show_lit: &dyn Fn(&L) -> String,
) -> Certificate {
    let body = Json::Obj(vec![
        ("format".to_string(), Json::Str(CERT_FORMAT.to_string())),
        ("version".to_string(), Json::Num(CERT_VERSION as f64)),
        ("lattice".to_string(), Json::Str(lattice.to_string())),
        (
            "program_sha256".to_string(),
            Json::Str(program_fingerprint(source)),
        ),
        ("proof".to_string(), encode_proof(proof, symbols, show_lit)),
    ]);
    // The certificate is the body with one more field before its
    // closing brace, so the body is serialized once.
    let mut text = body.to_string();
    let digest = sha256_hex(text.as_bytes());
    text.pop();
    text.push_str(&format!(",\"digest\":\"{digest}\"}}"));
    Certificate {
        text,
        digest,
        nodes: proof.size(),
    }
}

/// The `proof` value: both tables, then the root node.
fn encode_proof<L: Lattice>(
    proof: &Proof<L>,
    symbols: &SymbolTable,
    show_lit: &dyn Fn(&L) -> String,
) -> Json {
    let mut tables = Tables {
        symbols,
        show_lit,
        expr_ids: HashMap::new(),
        exprs: Vec::new(),
        assertion_ids: HashMap::new(),
        shared_ids: HashMap::new(),
        assertions: Vec::new(),
    };
    let root = tables.node(proof);
    Json::Obj(vec![
        ("exprs".to_string(), Json::Arr(tables.exprs)),
        ("assertions".to_string(), Json::Arr(tables.assertions)),
        ("root".to_string(), root),
    ])
}

/// The emitter's tables: each distinct class expression and assertion,
/// interned by value and numbered in order of first use.
struct Tables<'p, 'a, L> {
    symbols: &'a SymbolTable,
    show_lit: &'a dyn Fn(&L) -> String,
    expr_ids: HashMap<&'p ClassExpr<L>, usize>,
    exprs: Vec<Json>,
    assertion_ids: HashMap<&'p Assertion<L>, usize>,
    /// The id of each assertion already met, by address: most nodes
    /// share one of a few assertions, found here without hashing it.
    /// The proof is borrowed for `'p`, so an address names one assertion.
    shared_ids: HashMap<*const Assertion<L>, usize>,
    assertions: Vec<Json>,
}

impl<'p, L: Lattice> Tables<'p, '_, L> {
    fn node(&mut self, proof: &'p Proof<L>) -> Json {
        let rule = match &proof.rule {
            Rule::SkipAxiom => "skip",
            Rule::AssignAxiom => "assign",
            Rule::SignalAxiom => "signal",
            Rule::WaitAxiom => "wait",
            Rule::If { .. } => "if",
            Rule::While { .. } => "while",
            Rule::Seq { .. } => "seq",
            Rule::Cobegin { .. } => "cobegin",
            Rule::Conseq { .. } => "conseq",
        };
        let pre = self.assertion(&proof.pre);
        let post = self.assertion(&proof.post);
        let mut kids: Vec<Json> = Vec::new();
        match &proof.rule {
            Rule::SkipAxiom | Rule::AssignAxiom | Rule::SignalAxiom | Rule::WaitAxiom => {}
            Rule::If {
                then_proof,
                else_proof,
            } => {
                kids.push(self.node(then_proof));
                if let Some(e) = else_proof {
                    kids.push(self.node(e));
                }
            }
            Rule::While { body } => kids.push(self.node(body)),
            Rule::Seq { parts } => kids.extend(parts.iter().map(|p| self.node(p))),
            Rule::Cobegin { branches } => kids.extend(branches.iter().map(|p| self.node(p))),
            Rule::Conseq { inner } => kids.push(self.node(inner)),
        }
        Json::Arr(vec![
            Json::Str(rule.to_string()),
            pre,
            post,
            Json::Arr(kids),
        ])
    }

    fn assertion(&mut self, a: &'p Assertion<L>) -> Json {
        if let Some(&id) = self.shared_ids.get(&(a as *const _)) {
            return Json::Num(id as f64);
        }
        if let Some(&id) = self.assertion_ids.get(a) {
            self.shared_ids.insert(a, id);
            return Json::Num(id as f64);
        }
        let state = a
            .state
            .iter()
            .map(|b| Json::Arr(vec![self.expr(&b.lhs), self.expr(&b.rhs)]))
            .collect();
        let local = a.local.as_ref().map_or(Json::Null, |e| self.expr(e));
        let global = a.global.as_ref().map_or(Json::Null, |e| self.expr(e));
        let id = self.assertions.len();
        self.assertions
            .push(Json::Arr(vec![Json::Arr(state), local, global]));
        self.assertion_ids.insert(a, id);
        self.shared_ids.insert(a, id);
        Json::Num(id as f64)
    }

    fn expr(&mut self, e: &'p ClassExpr<L>) -> Json {
        let next = self.exprs.len();
        let id = *self.expr_ids.entry(e).or_insert(next);
        if id == next {
            self.exprs.push(encode_expr(e, self.symbols, self.show_lit));
        }
        Json::Num(id as f64)
    }
}

fn encode_expr<L: Lattice>(
    e: &ClassExpr<L>,
    symbols: &SymbolTable,
    show_lit: &dyn Fn(&L) -> String,
) -> Json {
    let atoms = e
        .atoms()
        .iter()
        .map(|a| {
            Json::Str(match a {
                Atom::VarClass(v) => format!("v:{}", symbols.name(*v)),
                Atom::Local => "local".to_string(),
                Atom::Global => "global".to_string(),
            })
        })
        .collect();
    let lit = match e.literal() {
        Extended::Nil => Json::Null,
        Extended::Elem(l) => Json::Str(show_lit(l)),
    };
    Json::Arr(vec![Json::Arr(atoms), lit])
}

// ---- validation -----------------------------------------------------------

/// Validates a certificate against the exact source text it claims to
/// certify. Succeeds iff the envelope is canonical, the digest and
/// program fingerprint match, and the embedded proof *checks* — every
/// Figure-1 side condition re-derived by [`check_proof`]. Theorem 1
/// search is never run.
pub fn validate_certificate(source: &str, cert_text: &str) -> Result<CertSummary, CertError> {
    let cert = Json::parse(cert_text).map_err(|e| CertError::new("json", e.to_string()))?;
    let fields = cert
        .as_obj()
        .ok_or_else(|| CertError::new("format", "certificate must be a JSON object"))?;
    if fields.len() != FIELDS.len() {
        return Err(CertError::new(
            "format",
            format!(
                "expected exactly {} fields {:?}, found {}",
                FIELDS.len(),
                FIELDS,
                fields.len()
            ),
        ));
    }
    for (i, want) in FIELDS.iter().enumerate() {
        if fields[i].0 != *want {
            return Err(CertError::new(
                "format",
                format!(
                    "field {} must be `{}` (canonical order), found `{}`",
                    i + 1,
                    want,
                    fields[i].0
                ),
            ));
        }
    }
    if fields[0].1.as_str() != Some(CERT_FORMAT) {
        return Err(CertError::new(
            "format",
            format!("`format` must be \"{CERT_FORMAT}\""),
        ));
    }
    match fields[1].1.as_u64() {
        Some(v) if v == CERT_VERSION => {}
        Some(v) => {
            return Err(CertError::new(
                "version",
                format!("unsupported schema version {v} (this validator speaks {CERT_VERSION})"),
            ))
        }
        None => return Err(CertError::new("version", "`version` must be an integer")),
    }
    let lattice = fields[2]
        .1
        .as_str()
        .ok_or_else(|| CertError::new("lattice", "`lattice` must be a string"))?
        .to_string();
    let claimed_fp = fields[3]
        .1
        .as_str()
        .ok_or_else(|| CertError::new("program", "`program_sha256` must be a string"))?;
    let claimed_digest = fields[5]
        .1
        .as_str()
        .ok_or_else(|| CertError::new("digest", "`digest` must be a string"))?
        .to_string();

    // Digest first: re-serialize the parsed body in place (this
    // normalizes any whitespace the sender added) and hash it.
    let body = Fields(&fields[..FIELDS.len() - 1]).to_string();
    let actual_digest = sha256_hex(body.as_bytes());
    if claimed_digest != actual_digest {
        return Err(CertError::new(
            "digest",
            format!("content digest mismatch: certificate says {claimed_digest}, body hashes to {actual_digest}"),
        ));
    }

    if claimed_fp != program_fingerprint(source) {
        return Err(CertError::new(
            "program",
            "program fingerprint mismatch: this certificate is about a different source text",
        ));
    }
    let program = parse(source).map_err(|d| CertError::new("source", d.render(source)))?;

    let proof_json = &fields[4].1;
    let spec = parse_lattice_spec(&lattice).map_err(|e| CertError::new("lattice", e))?;
    let nodes = match spec {
        LatticeSpec::Two => check_decoded(&program, proof_json, &parse_two_lit)?,
        LatticeSpec::Linear(scheme) => check_decoded(&program, proof_json, &|s: &str| {
            parse_linear_lit(s, scheme.levels())
        })?,
    };
    Ok(CertSummary {
        nodes,
        lattice,
        digest: claimed_digest,
    })
}

/// The verdict fields of one validation, as the service's `checkproof`
/// reply and `secflow checkproof --json` both print them: `valid:true`
/// with the digest, node count and lattice, or `valid:false` with a
/// `reason` naming the rejecting stage.
pub fn verdict_fields(verdict: Result<CertSummary, CertError>) -> Vec<(String, Json)> {
    match verdict {
        Ok(summary) => vec![
            ("valid".to_string(), Json::Bool(true)),
            ("proof_digest".to_string(), Json::Str(summary.digest)),
            ("proof_nodes".to_string(), Json::Num(summary.nodes as f64)),
            ("lattice".to_string(), Json::Str(summary.lattice)),
        ],
        Err(err) => vec![
            ("valid".to_string(), Json::Bool(false)),
            (
                "reason".to_string(),
                Json::Obj(vec![
                    ("stage".to_string(), Json::Str(err.stage.to_string())),
                    ("message".to_string(), Json::Str(err.message)),
                ]),
            ),
        ],
    }
}

fn check_decoded<L: Lattice>(
    program: &Program,
    proof_json: &Json,
    parse_lit: &dyn Fn(&str) -> Option<L>,
) -> Result<usize, CertError> {
    let proof = decode_proof(proof_json, program, parse_lit, &mut Budget::of(program))?;
    check_proof(&program.body, &proof).map_err(|e| CertError::new("check", e.to_string()))?;
    Ok(proof.size())
}

fn perr(message: impl Into<String>) -> CertError {
    CertError::new("proof", message)
}

/// Reads an index into a table of `len` entries.
fn index(v: &Json, len: usize, table: &str) -> Result<usize, CertError> {
    let id = v
        .as_u64()
        .ok_or_else(|| perr(format!("{table} index must be a non-negative integer")))?;
    usize::try_from(id)
        .ok()
        .filter(|&id| id < len)
        .ok_or_else(|| perr(format!("{table} index {id} out of range ({len} entries)")))
}

/// Checks the canonical numbering of one table while its references are
/// read in walk order: each reference names an entry already met or the
/// next one, so the entries are met in index order and none is skipped.
struct FirstUse {
    table: &'static str,
    next: usize,
}

impl FirstUse {
    fn meet(&mut self, id: usize) -> Result<(), CertError> {
        if id > self.next {
            return Err(perr(format!(
                "{} {id} is used before {} {} (ids must number first uses in order)",
                self.table, self.table, self.next
            )));
        }
        self.next += usize::from(id == self.next);
        Ok(())
    }

    /// After the walk: every entry of a `len`-entry table was met.
    fn finish(&self, len: usize) -> Result<(), CertError> {
        if self.next < len {
            return Err(perr(format!("{} {} is never used", self.table, self.next)));
        }
        Ok(())
    }
}

/// What decoding may still name, in expression slots: a class
/// expression is one slot plus one per atom, and an assertion one slot
/// plus its expressions'. Each reference to a table entry is charged at
/// the entry's full size before it is taken, as when every reference
/// was a copy, so a certificate that names one large entry from many
/// places is rejected once it names more than the budget.
struct Budget {
    total: usize,
    left: usize,
}

impl Budget {
    /// The most that a Theorem 1 proof of `program` can name.
    /// Such a proof has at most four nodes per statement (the
    /// statement's rule, the consequence rule around an axiom or a
    /// loop, the one a parent adds to weaken a postcondition, and an
    /// `if`'s implicit `skip`), each of its assertions holds at most
    /// 4 × (symbols + 2) slots (a bound per symbol, one of them widened
    /// by an axiom's substitution, and the `local` and `global` bounds),
    /// and its tables name no more than its nodes do.
    fn of(program: &Program) -> Self {
        let statements = measure(program).statements;
        let symbols = program.symbols.len();
        let total = 64usize
            .saturating_mul(statements)
            .saturating_mul(symbols + 2);
        Budget { total, left: total }
    }

    fn charge(&mut self, slots: usize) -> Result<(), CertError> {
        self.left = self.left.checked_sub(slots).ok_or_else(|| {
            perr(format!(
                "the proof copies more than {} expression slots, more than any proof of this program needs",
                self.total
            ))
        })?;
        Ok(())
    }
}

fn expr_slots<L: Lattice>(e: &ClassExpr<L>) -> usize {
    1 + e.atoms().len()
}

fn decode_proof<L: Lattice>(
    v: &Json,
    program: &Program,
    parse_lit: &dyn Fn(&str) -> Option<L>,
    budget: &mut Budget,
) -> Result<Proof<L>, CertError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| perr("`proof` must be an object"))?;
    let [(k_exprs, exprs), (k_assertions, assertions), (k_root, root)] = obj else {
        return Err(perr(format!(
            "`proof` must have exactly exprs/assertions/root, found {} field(s)",
            obj.len()
        )));
    };
    if k_exprs != "exprs" || k_assertions != "assertions" || k_root != "root" {
        return Err(perr(format!(
            "`proof` fields must be exprs/assertions/root in order, found {k_exprs}/{k_assertions}/{k_root}"
        )));
    }
    let exprs = decode_exprs(exprs, &program.symbols, parse_lit)?;
    let assertions = decode_assertions(assertions, &exprs, budget)?;
    let mut used = FirstUse {
        table: "assertion",
        next: 0,
    };
    let proof = decode_node(root, &assertions, &mut used, budget)?;
    used.finish(assertions.len())?;
    Ok(proof)
}

/// Decodes the expression table, each entry once, rejecting repeats.
fn decode_exprs<L: Lattice>(
    v: &Json,
    symbols: &SymbolTable,
    parse_lit: &dyn Fn(&str) -> Option<L>,
) -> Result<Vec<ClassExpr<L>>, CertError> {
    let rows = v.as_arr().ok_or_else(|| perr("`exprs` must be an array"))?;
    let exprs = rows
        .iter()
        .map(|row| decode_expr(row, symbols, parse_lit))
        .collect::<Result<Vec<_>, _>>()?;
    let mut seen = HashMap::with_capacity(exprs.len());
    for (id, e) in exprs.iter().enumerate() {
        if let Some(first) = seen.insert(e, id) {
            return Err(perr(format!("expression {id} repeats expression {first}")));
        }
    }
    Ok(exprs)
}

/// A decoded assertion-table entry, which every node that names it
/// shares, and its size in slots, which each reference is charged.
type Entry<L> = (Arc<Assertion<L>>, usize);

/// Decodes the assertion table over the decoded expressions, each entry
/// once, with its size in slots. The table's own order fixes the
/// expressions' first uses, and entries are compared by their expression
/// ids (which name distinct expressions), so a repeat is found by
/// hashing ids.
fn decode_assertions<L: Lattice>(
    v: &Json,
    exprs: &[ClassExpr<L>],
    budget: &mut Budget,
) -> Result<Vec<Entry<L>>, CertError> {
    let rows = v
        .as_arr()
        .ok_or_else(|| perr("`assertions` must be an array"))?;
    let mut used = FirstUse {
        table: "expression",
        next: 0,
    };
    // Reads one expression reference and charges the copy it names.
    let mut expr = |v: &Json, budget: &mut Budget| -> Result<usize, CertError> {
        let id = index(v, exprs.len(), "expression")?;
        used.meet(id)?;
        budget.charge(expr_slots(&exprs[id]))?;
        Ok(id)
    };
    let mut seen = HashMap::with_capacity(rows.len());
    let mut out = Vec::with_capacity(rows.len());
    for (id, row) in rows.iter().enumerate() {
        let Some([state, local, global]) = row.as_arr() else {
            return Err(perr("an assertion must be a [state, local, global] triple"));
        };
        let bounds = state
            .as_arr()
            .ok_or_else(|| perr("an assertion's state must be an array"))?;
        let before = budget.left;
        budget.charge(1)?;
        let mut state_ids = Vec::with_capacity(2 * bounds.len());
        let mut out_state = Vec::with_capacity(bounds.len());
        for b in bounds {
            let Some([lhs, rhs]) = b.as_arr() else {
                return Err(perr("a bound must be a [lhs, rhs] pair"));
            };
            let (lhs, rhs) = (expr(lhs, budget)?, expr(rhs, budget)?);
            state_ids.extend([lhs, rhs]);
            out_state.push(Bound::new(exprs[lhs].clone(), exprs[rhs].clone()));
        }
        let mut bound = |v: &Json| match v {
            Json::Null => Ok(None),
            other => expr(other, budget).map(Some),
        };
        let (local, global) = (bound(local)?, bound(global)?);
        let assertion = Assertion {
            state: out_state,
            local: local.map(|id| exprs[id].clone()),
            global: global.map(|id| exprs[id].clone()),
        };
        out.push((Arc::new(assertion), before - budget.left));
        if let Some(first) = seen.insert((state_ids, local, global), id) {
            return Err(perr(format!("assertion {id} repeats assertion {first}")));
        }
    }
    used.finish(exprs.len())?;
    Ok(out)
}

fn decode_node<L: Lattice>(
    v: &Json,
    assertions: &[Entry<L>],
    used: &mut FirstUse,
    budget: &mut Budget,
) -> Result<Proof<L>, CertError> {
    let Some([rule, pre, post, kids]) = v.as_arr() else {
        return Err(perr("a proof node must be a [rule, pre, post, kids] array"));
    };
    let rule_name = rule
        .as_str()
        .ok_or_else(|| perr("a node's rule must be a string"))?;
    let mut assertion = |v: &Json| -> Result<Arc<Assertion<L>>, CertError> {
        let id = index(v, assertions.len(), "assertion")?;
        used.meet(id)?;
        let (assertion, slots) = &assertions[id];
        budget.charge(*slots)?;
        Ok(assertion.clone())
    };
    let pre = assertion(pre)?;
    let post = assertion(post)?;
    let kid_vals = kids
        .as_arr()
        .ok_or_else(|| perr("a node's kids must be an array"))?;
    let mut children = Vec::with_capacity(kid_vals.len());
    for k in kid_vals {
        children.push(decode_node(k, assertions, used, budget)?);
    }

    let n = children.len();
    let arity = |want: &str| {
        perr(format!(
            "rule `{rule_name}` needs {want}, found {n} premise(s)"
        ))
    };
    let rule = match rule_name {
        "skip" | "assign" | "signal" | "wait" => {
            if n != 0 {
                return Err(arity("no premises"));
            }
            match rule_name {
                "skip" => Rule::SkipAxiom,
                "assign" => Rule::AssignAxiom,
                "signal" => Rule::SignalAxiom,
                _ => Rule::WaitAxiom,
            }
        }
        "if" => {
            let mut it = children.into_iter();
            match (it.next(), it.next(), it.next()) {
                (Some(t), e, None) => Rule::If {
                    then_proof: Box::new(t),
                    else_proof: e.map(Box::new),
                },
                _ => return Err(arity("one or two premises")),
            }
        }
        "while" => {
            if n != 1 {
                return Err(arity("exactly one premise"));
            }
            Rule::While {
                body: Box::new(children.remove(0)),
            }
        }
        "conseq" => {
            if n != 1 {
                return Err(arity("exactly one premise"));
            }
            Rule::Conseq {
                inner: Box::new(children.remove(0)),
            }
        }
        "seq" => {
            if n == 0 {
                return Err(arity("at least one premise"));
            }
            Rule::Seq { parts: children }
        }
        "cobegin" => {
            if n < 2 {
                return Err(arity("at least two premises"));
            }
            Rule::Cobegin { branches: children }
        }
        other => return Err(perr(format!("unknown rule `{other}`"))),
    };
    Ok(Proof::new(pre, post, rule))
}

fn decode_expr<L: Lattice>(
    v: &Json,
    symbols: &SymbolTable,
    parse_lit: &dyn Fn(&str) -> Option<L>,
) -> Result<ClassExpr<L>, CertError> {
    let Some([atoms, lit]) = v.as_arr() else {
        return Err(perr("a class expression must be an [atoms, lit] pair"));
    };
    let lit = match lit {
        Json::Null => Extended::Nil,
        Json::Str(s) => match parse_lit(s) {
            Some(l) => Extended::Elem(l),
            None => {
                return Err(perr(format!(
                    "`{s}` is not a class literal of this lattice"
                )))
            }
        },
        _ => return Err(perr("a literal must be a string or null")),
    };
    let atoms = atoms
        .as_arr()
        .ok_or_else(|| perr("a class expression's atoms must be an array"))?;
    let mut sorted: Vec<Atom> = Vec::with_capacity(atoms.len());
    for a in atoms {
        let name = a.as_str().ok_or_else(|| perr("an atom must be a string"))?;
        let atom = match name {
            "local" => Atom::Local,
            "global" => Atom::Global,
            _ => match name.strip_prefix("v:") {
                Some(var) => match symbols.lookup(var) {
                    Some(v) => Atom::VarClass(v),
                    None => {
                        return Err(perr(format!(
                            "`{var}` is not a declared variable of this program"
                        )))
                    }
                },
                None => return Err(perr(format!("unknown atom `{name}`"))),
            },
        };
        // One spelling per expression: atoms distinct and in order, so
        // the checked list is already the expression's normal form.
        if sorted.last().is_some_and(|&last| last >= atom) {
            return Err(perr(format!("atom `{name}` is out of order or repeated")));
        }
        sorted.push(atom);
    }
    Ok(ClassExpr::from_sorted(sorted, lit))
}

// ---- resealing ------------------------------------------------------------

/// Recomputes the `digest` field of a (possibly mutated) certificate.
///
/// The other fields are passed through untouched, *including invalid
/// ones* — resealing restores digest integrity, nothing else. This is
/// how the adversarial suites reach the structural and proof-checking
/// stages past the digest gate; it is also handy for tooling that
/// rewrites certificates deliberately.
pub fn reseal(cert_text: &str) -> Result<String, CertError> {
    let cert = Json::parse(cert_text).map_err(|e| CertError::new("json", e.to_string()))?;
    let fields = cert
        .as_obj()
        .ok_or_else(|| CertError::new("format", "certificate must be a JSON object"))?;
    let body: Vec<(String, Json)> = fields
        .iter()
        .filter(|(k, _)| k != "digest")
        .cloned()
        .collect();
    let digest = sha256_hex(Fields(&body).to_string().as_bytes());
    let mut out = body;
    out.push(("digest".to_string(), Json::Str(digest)));
    Ok(Json::Obj(out).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::MAX_DEPTH;
    use secflow_core::StaticBinding;
    use secflow_lattice::{LinearScheme, TwoPointScheme};
    use secflow_logic::prove;

    const CHANNEL: &str = "var x, y : integer; sem : semaphore;
        cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend";

    fn two_cert(source: &str) -> Certificate {
        let program = parse(source).unwrap();
        let sbind = StaticBinding::constant(&program.symbols, &TwoPointScheme, TwoPoint::High);
        let proof = prove(&program, &sbind, Extended::Nil, Extended::Nil).unwrap();
        emit_certificate(&proof, &program.symbols, "two", source, &show_two_class)
    }

    #[test]
    fn round_trips_two_point() {
        for src in [
            CHANNEL,
            "var a : integer; while a > 0 do a := a - 1",
            "var a, b : integer; if a = b then skip else b := a",
        ] {
            let cert = two_cert(src);
            let summary = validate_certificate(src, &cert.text).unwrap();
            assert_eq!(summary.digest, cert.digest, "{src}");
            assert_eq!(summary.nodes, cert.nodes, "{src}");
            assert_eq!(summary.lattice, "two", "{src}");
            // Emission is deterministic: same proof, same bytes.
            assert_eq!(two_cert(src).text, cert.text, "{src}");
        }
    }

    #[test]
    fn round_trips_linear() {
        let src = "var a, b : integer; b := a";
        let program = parse(src).unwrap();
        let scheme = LinearScheme::new(4).unwrap();
        let top = scheme.level(3).unwrap();
        let sbind = StaticBinding::constant(&program.symbols, &scheme, top);
        let proof = prove(&program, &sbind, Extended::Nil, Extended::Nil).unwrap();
        // The emitters write `linear:4`; a certificate stored under
        // `linear:04` still validates, and is reported as it names it.
        for lattice in ["linear:4", "linear:04"] {
            let cert = emit_certificate(&proof, &program.symbols, lattice, src, &show_linear_class);
            let summary = validate_certificate(src, &cert.text).unwrap();
            assert_eq!(summary.lattice, lattice);
            assert_eq!(summary.nodes, cert.nodes);
        }
    }

    #[test]
    fn wrong_source_is_rejected_at_program_stage() {
        let cert = two_cert(CHANNEL);
        let err = validate_certificate("var z : integer; z := 1", &cert.text).unwrap_err();
        assert_eq!(err.stage, "program");
    }

    #[test]
    fn any_body_byte_flip_is_rejected_at_digest_stage() {
        let cert = two_cert(CHANNEL);
        // Flip a character inside the proof body (the first `seq` node).
        let mutated = cert.text.replacen("[\"seq\",", "[\"shq\",", 1);
        assert_ne!(mutated, cert.text);
        let err = validate_certificate(CHANNEL, &mutated).unwrap_err();
        assert_eq!(err.stage, "digest");
    }

    #[test]
    fn resealed_mutations_reach_the_checker_and_are_rejected() {
        let cert = two_cert(CHANNEL);
        // Rule swap, resealed past the digest gate: structural/check error.
        let swapped = reseal(&cert.text.replacen("[\"assign\",", "[\"skip\",", 1)).unwrap();
        let err = validate_certificate(CHANNEL, &swapped).unwrap_err();
        assert!(err.stage == "proof" || err.stage == "check", "{err}");

        // The root claims its precondition (`global ≤ ν`) as its
        // postcondition. The tables stay canonical, so the forgery
        // decodes, and the branches' posts (`global ≤ high`) no longer
        // compose to it.
        let root = "\"root\":[\"cobegin\",0,1,";
        assert!(cert.text.contains(root));
        let relabeled = reseal(&cert.text.replacen(root, "\"root\":[\"cobegin\",0,0,", 1)).unwrap();
        let err = validate_certificate(CHANNEL, &relabeled).unwrap_err();
        assert_eq!(err.stage, "check", "{err}");
    }

    #[test]
    fn version_bump_is_rejected() {
        let cert = two_cert(CHANNEL);
        for version in [1, 3] {
            let other = reseal(&cert.text.replacen(
                "\"version\":2",
                &format!("\"version\":{version}"),
                1,
            ))
            .unwrap();
            let err = validate_certificate(CHANNEL, &other).unwrap_err();
            assert_eq!(err.stage, "version");
            assert_eq!(
                err.message,
                format!("unsupported schema version {version} (this validator speaks 2)")
            );
        }
    }

    #[test]
    fn truncation_and_garbage_are_rejected_at_json_stage() {
        let cert = two_cert(CHANNEL);
        for cut in [0, 1, cert.text.len() / 2, cert.text.len() - 1] {
            let err = validate_certificate(CHANNEL, &cert.text[..cut]).unwrap_err();
            assert_eq!(err.stage, "json", "cut at {cut}");
        }
        assert_eq!(
            validate_certificate(CHANNEL, "not json").unwrap_err().stage,
            "json"
        );
    }

    #[test]
    fn non_canonical_envelopes_are_rejected_at_format_stage() {
        let cert = two_cert(CHANNEL);
        // Reordered fields (still resealed consistently).
        let v = Json::parse(&cert.text).unwrap();
        let mut fields = v.as_obj().unwrap().to_vec();
        fields.swap(0, 2);
        let reordered = reseal(&Json::Obj(fields).to_string()).unwrap();
        assert_eq!(
            validate_certificate(CHANNEL, &reordered).unwrap_err().stage,
            "format"
        );
        // An extra field.
        let mut fields = v.as_obj().unwrap().to_vec();
        fields.push(("note".to_string(), Json::Str("hi".to_string())));
        let extended = reseal(&Json::Obj(fields).to_string()).unwrap();
        assert_eq!(
            validate_certificate(CHANNEL, &extended).unwrap_err().stage,
            "format"
        );
        assert_eq!(
            validate_certificate(CHANNEL, "[]").unwrap_err().stage,
            "format"
        );
    }

    #[test]
    fn foreign_lattice_descriptors_are_rejected() {
        let cert = two_cert(CHANNEL);
        for bad in ["powerset", "linear:0", "linear:x", "linear:"] {
            let t = reseal(&cert.text.replacen(
                "\"lattice\":\"two\"",
                &format!("\"lattice\":\"{bad}\""),
                1,
            ))
            .unwrap();
            let err = validate_certificate(CHANNEL, &t).unwrap_err();
            // linear:0 dies at the descriptor; the rest never match a scheme.
            assert_eq!(err.stage, "lattice", "{bad}: {err}");
        }
    }

    #[test]
    fn a_spec_reads_every_spelling_of_n_and_displays_one() {
        for spec in ["linear:4", "linear:04", "linear:+4"] {
            let parsed = parse_lattice_spec(spec).unwrap();
            assert_eq!(parsed.to_string(), "linear:4", "{spec}");
        }
        assert_eq!(parse_lattice_spec("two").unwrap(), LatticeSpec::Two);
        for bad in ["Two", "linear:0", "linear:", "linear:-1", "powerset"] {
            assert!(parse_lattice_spec(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn whitespace_insertions_do_not_change_the_digest() {
        // The digest is over the *re-serialized* body, so a transport
        // that pretty-prints the JSON does not invalidate certificates.
        let cert = two_cert(CHANNEL);
        let spaced = cert.text.replace("\",\"", "\", \"");
        assert_ne!(spaced, cert.text);
        let summary = validate_certificate(CHANNEL, &spaced).unwrap();
        assert_eq!(summary.digest, cert.digest);
    }

    /// Theorem 1's own proofs decode within half the budget, on the
    /// workload shapes and on generated programs under random
    /// bindings, so the budget turns away no proof the prover makes.
    #[test]
    fn theorem_1_proofs_decode_within_half_the_budget() {
        use secflow_lang::print_program;
        use secflow_workload::{
            branchy, dining_philosophers, fig3_program, generate, kbit_channel, loop_heavy,
            random_binding, sequential_chain, sync_heavy, wide_cobegin, GenConfig,
        };
        let mut programs = vec![
            (sequential_chain(400, 8), None),
            (dining_philosophers(5, 1000, false), None),
            (loop_heavy(50), None),
            (branchy(6), None),
            (wide_cobegin(8), None),
            (sync_heavy(10), None),
            (fig3_program(), None),
            (kbit_channel(4), None),
        ];
        programs.extend((0..300).map(|seed| (generate(&GenConfig::default(), seed), Some(seed))));
        let mut worst = 0.0f64;
        for (program, seed) in programs {
            let source = print_program(&program);
            let program = parse(&source).unwrap();
            let sbind = match seed {
                Some(seed) => random_binding(&program, &TwoPointScheme, seed),
                None => StaticBinding::constant(&program.symbols, &TwoPointScheme, TwoPoint::High),
            };
            let Ok(proof) = prove(&program, &sbind, Extended::Nil, Extended::Nil) else {
                continue;
            };
            let cert = emit_certificate(&proof, &program.symbols, "two", &source, &show_two_class);
            let json = Json::parse(&cert.text).unwrap();
            let proof_json = &json.as_obj().unwrap()[4].1;
            let mut budget = Budget::of(&program);
            decode_proof(proof_json, &program, &parse_two_lit, &mut budget).unwrap();
            let used = (budget.total - budget.left) as f64 / budget.total as f64;
            assert!(used <= 0.5, "{used:.3} of the budget for\n{source}");
            worst = worst.max(used);
        }
        assert!(worst > 0.0, "no program was proved");
    }

    #[test]
    fn depth_bombs_die_in_the_json_parser() {
        // `proof` is one level down, so `n` brackets nest `n` deep.
        let bomb = |n: usize| {
            format!(
                r#"{{"format":"secflow-cert","version":2,"lattice":"two","program_sha256":"x","proof":{},"digest":"y"}}"#,
                "[".repeat(n) + &"]".repeat(n)
            )
        };
        let err = validate_certificate(CHANNEL, &bomb(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.stage, "json");
        assert!(err.message.starts_with("nesting too deep"), "{err:?}");
        // At the cap the parser lets the document through.
        let err = validate_certificate(CHANNEL, &bomb(MAX_DEPTH)).unwrap_err();
        assert_eq!(err.stage, "digest");
    }

    /// How deep the deepest value in `v` sits, counted as the parser
    /// counts: the document is at depth 0.
    fn depth(v: &Json) -> usize {
        let kids: Vec<&Json> = match v {
            Json::Arr(items) => items.iter().collect(),
            Json::Obj(fields) => fields.iter().map(|(_, v)| v).collect(),
            _ => Vec::new(),
        };
        kids.into_iter().map(|k| 1 + depth(k)).max().unwrap_or(0)
    }

    #[test]
    fn the_deepest_program_parse_accepts_has_a_certificate_that_validates() {
        // An unoptimized build needs several times the stack a release
        // build does (about 1.3 MiB there) to prove and check this deep.
        let deep = std::thread::Builder::new().stack_size(32 << 20);
        let run = deep.spawn(|| {
            // `parse` counts a statement and its condition as a level
            // each. Each `while` is a `conseq` over a `while` node, and
            // the `wait` a `conseq` over its axiom: 600 nodes in a line.
            let deepest = |whiles: usize| {
                format!(
                    "var x : integer; s : semaphore; {} wait(s)",
                    "while x > 0 do ".repeat(whiles)
                )
            };
            let src = deepest(299);
            let cert = two_cert(&src);
            assert_eq!(cert.nodes, 600);
            let summary = validate_certificate(&src, &cert.text).unwrap();
            assert_eq!(summary.digest, cert.digest);
            // Carried inline in a request, it reaches the cap exactly.
            let request = Json::parse(&format!(r#"{{"cert":{}}}"#, cert.text)).unwrap();
            assert_eq!(depth(&request), MAX_DEPTH);
            assert!(parse(&deepest(300)).is_err(), "the parser's limit moved");
        });
        if let Err(panic) = run.unwrap().join() {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn a_16000_atom_expression_decodes_as_the_join_of_its_atoms() {
        let names: Vec<String> = (0..16_000).map(|i| format!("v{i}")).collect();
        let program = parse(&format!("var {} : integer; skip", names.join(", "))).unwrap();
        let atoms = names
            .iter()
            .map(|n| format!("v:{n}"))
            .chain(["local".into(), "global".into()])
            .map(Json::Str)
            .collect();
        let row = Json::Arr(vec![Json::Arr(atoms), Json::Str("high".into())]);
        let decoded = decode_expr(&row, &program.symbols, &|s| parse_two_class(s).ok()).unwrap();
        // Joined pairwise, so building the reference costs less than
        // joining one atom at a time would.
        let mut joined: Vec<ClassExpr<TwoPoint>> = program
            .symbols
            .iter()
            .map(|(v, _)| ClassExpr::var(v))
            .chain([ClassExpr::local(), ClassExpr::global()])
            .chain([ClassExpr::lit(Extended::Elem(TwoPoint::High))])
            .collect();
        while joined.len() > 1 {
            joined = joined
                .chunks(2)
                .map(|pair| pair.iter().skip(1).fold(pair[0].clone(), |a, b| a.join(b)))
                .collect();
        }
        let joined = joined.pop().unwrap();
        assert_eq!(decoded.atoms().len(), 16_002);
        assert_eq!(decoded, joined);
    }
}
