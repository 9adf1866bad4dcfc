//! The canonical certificate wire format and its standalone validator.
//!
//! A certificate is a single-line canonical JSON object with exactly
//! these fields, in exactly this order:
//!
//! ```json
//! {"format":"secflow-cert",
//!  "version":1,
//!  "lattice":"two",
//!  "program_sha256":"<hex>",
//!  "proof":{"rule":"seq","pre":{...},"post":{...},"kids":[...]},
//!  "digest":"<hex>"}
//! ```
//!
//! - `lattice` names the scheme the class literals are drawn from:
//!   `"two"` (low/high) or `"linear:N"` (levels `0..N` written in
//!   decimal). Literals use the canonical spellings only.
//! - `program_sha256` fingerprints the exact source text the proof is
//!   about; a validator checks it before anything structural.
//! - `proof` mirrors [`Proof`]: each node carries its rule name
//!   (`skip`, `assign`, `signal`, `wait`, `if`, `while`, `seq`,
//!   `cobegin`, `conseq`), its `pre`/`post` assertions, and its
//!   premises in `kids`. Assertions are
//!   `{"state":[[lhs,rhs],...],"local":E,"global":E}`; a class
//!   expression `E` is `{"atoms":["v:<name>"|"local"|"global",...],
//!   "lit":"<class>"|null}` (`null` = the bottom element ν).
//!   Substitution data is deliberately *not* carried: the checker
//!   re-derives every substitution from the statement itself, so there
//!   is nothing in a certificate a validator has to take on faith.
//! - `digest` is the SHA-256 of the serialization of the other five
//!   fields (the object with `digest` removed), making certificates
//!   content-addressable and cheap to reject after transport damage.
//!
//! Canonicality: field order is fixed, whitespace is absent, strings
//! use the [`Json`] writer's escaping, and class-expression atoms are
//! already sorted by the [`ClassExpr`] representation — so equal proofs
//! serialize to equal bytes and equal digests.
//!
//! Validation never runs Theorem 1 search. It re-checks, in order:
//! the envelope (stages `json`/`format`/`version`), the digest
//! (`digest`), the program fingerprint (`program`), the source parse
//! (`source`), the lattice descriptor (`lattice`), the proof decode
//! (`proof`), and finally the full Figure-1 derivation via
//! [`check_proof`] (`check`). Every failure is a structured
//! [`CertError`] naming its stage — adversarial input can not panic.

use std::fmt;

use secflow_lang::{parse, Program, SymbolTable};
use secflow_lattice::{Extended, Lattice, Linear, LinearScheme, TwoPoint};
use secflow_logic::{check_proof, Assertion, Atom, Bound, ClassExpr, Proof, Rule};

use crate::digest::sha256_hex;
use crate::json::Json;

/// The `format` field of every certificate.
pub const CERT_FORMAT: &str = "secflow-cert";
/// The schema version this crate emits and accepts.
pub const CERT_VERSION: u64 = 1;

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
    let digest = sha256_hex(body.to_string().as_bytes());
    let Json::Obj(mut fields) = body else {
        unreachable!("body is an object")
    };
    fields.push(("digest".to_string(), Json::Str(digest.clone())));
    Certificate {
        text: Json::Obj(fields).to_string(),
        digest,
        nodes: proof.size(),
    }
}

fn encode_proof<L: Lattice>(
    proof: &Proof<L>,
    symbols: &SymbolTable,
    show_lit: &dyn Fn(&L) -> String,
) -> Json {
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
    let mut kids: Vec<Json> = Vec::new();
    match &proof.rule {
        Rule::SkipAxiom | Rule::AssignAxiom | Rule::SignalAxiom | Rule::WaitAxiom => {}
        Rule::If {
            then_proof,
            else_proof,
        } => {
            kids.push(encode_proof(then_proof, symbols, show_lit));
            if let Some(e) = else_proof {
                kids.push(encode_proof(e, symbols, show_lit));
            }
        }
        Rule::While { body } => kids.push(encode_proof(body, symbols, show_lit)),
        Rule::Seq { parts } => {
            kids.extend(parts.iter().map(|p| encode_proof(p, symbols, show_lit)))
        }
        Rule::Cobegin { branches } => {
            kids.extend(branches.iter().map(|p| encode_proof(p, symbols, show_lit)))
        }
        Rule::Conseq { inner } => kids.push(encode_proof(inner, symbols, show_lit)),
    }
    Json::Obj(vec![
        ("rule".to_string(), Json::Str(rule.to_string())),
        (
            "pre".to_string(),
            encode_assertion(&proof.pre, symbols, show_lit),
        ),
        (
            "post".to_string(),
            encode_assertion(&proof.post, symbols, show_lit),
        ),
        ("kids".to_string(), Json::Arr(kids)),
    ])
}

fn encode_assertion<L: Lattice>(
    a: &Assertion<L>,
    symbols: &SymbolTable,
    show_lit: &dyn Fn(&L) -> String,
) -> Json {
    let opt = |e: &Option<ClassExpr<L>>| match e {
        Some(e) => encode_expr(e, symbols, show_lit),
        None => Json::Null,
    };
    Json::Obj(vec![
        (
            "state".to_string(),
            Json::Arr(
                a.state
                    .iter()
                    .map(|b| {
                        Json::Arr(vec![
                            encode_expr(&b.lhs, symbols, show_lit),
                            encode_expr(&b.rhs, symbols, show_lit),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("local".to_string(), opt(&a.local)),
        ("global".to_string(), opt(&a.global)),
    ])
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
    Json::Obj(vec![
        ("atoms".to_string(), Json::Arr(atoms)),
        ("lit".to_string(), lit),
    ])
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

    // Digest first: re-serialize the parsed body (this normalizes any
    // whitespace the sender added) and hash it.
    let body = Json::Obj(fields[..FIELDS.len() - 1].to_vec());
    let actual_digest = sha256_hex(body.to_string().as_bytes());
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
    let proof = decode_proof(proof_json, &program.symbols, parse_lit)?;
    check_proof(&program.body, &proof).map_err(|e| CertError::new("check", e.to_string()))?;
    Ok(proof.size())
}

fn decode_proof<L: Lattice>(
    v: &Json,
    symbols: &SymbolTable,
    parse_lit: &dyn Fn(&str) -> Option<L>,
) -> Result<Proof<L>, CertError> {
    let perr = |m: String| CertError::new("proof", m);
    let obj = v
        .as_obj()
        .ok_or_else(|| perr("proof node must be an object".into()))?;
    let [(k_rule, rule), (k_pre, pre), (k_post, post), (k_kids, kids)] = obj else {
        return Err(perr(format!(
            "proof node must have exactly rule/pre/post/kids, found {} field(s)",
            obj.len()
        )));
    };
    if k_rule != "rule" || k_pre != "pre" || k_post != "post" || k_kids != "kids" {
        return Err(perr(format!(
            "proof node fields must be rule/pre/post/kids in order, found {k_rule}/{k_pre}/{k_post}/{k_kids}"
        )));
    }
    let rule_name = rule
        .as_str()
        .ok_or_else(|| perr("`rule` must be a string".into()))?;
    let pre = decode_assertion(pre, symbols, parse_lit)?;
    let post = decode_assertion(post, symbols, parse_lit)?;
    let kid_vals = kids
        .as_arr()
        .ok_or_else(|| perr("`kids` must be an array".into()))?;
    let mut children = Vec::with_capacity(kid_vals.len());
    for k in kid_vals {
        children.push(decode_proof(k, symbols, parse_lit)?);
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

fn decode_assertion<L: Lattice>(
    v: &Json,
    symbols: &SymbolTable,
    parse_lit: &dyn Fn(&str) -> Option<L>,
) -> Result<Assertion<L>, CertError> {
    let perr = |m: String| CertError::new("proof", m);
    let obj = v
        .as_obj()
        .ok_or_else(|| perr("assertion must be an object".into()))?;
    let [(k_state, state), (k_local, local), (k_global, global)] = obj else {
        return Err(perr(
            "assertion must have exactly state/local/global".into(),
        ));
    };
    if k_state != "state" || k_local != "local" || k_global != "global" {
        return Err(perr(
            "assertion fields must be state/local/global in order".into(),
        ));
    }
    let bounds = state
        .as_arr()
        .ok_or_else(|| perr("`state` must be an array".into()))?;
    let mut out_state = Vec::with_capacity(bounds.len());
    for b in bounds {
        let pair = b
            .as_arr()
            .ok_or_else(|| perr("a bound must be a [lhs, rhs] pair".into()))?;
        let [lhs, rhs] = pair else {
            return Err(perr("a bound must be a [lhs, rhs] pair".into()));
        };
        out_state.push(Bound::new(
            decode_expr(lhs, symbols, parse_lit)?,
            decode_expr(rhs, symbols, parse_lit)?,
        ));
    }
    let opt = |v: &Json| -> Result<Option<ClassExpr<L>>, CertError> {
        match v {
            Json::Null => Ok(None),
            other => Ok(Some(decode_expr(other, symbols, parse_lit)?)),
        }
    };
    Ok(Assertion {
        state: out_state,
        local: opt(local)?,
        global: opt(global)?,
    })
}

fn decode_expr<L: Lattice>(
    v: &Json,
    symbols: &SymbolTable,
    parse_lit: &dyn Fn(&str) -> Option<L>,
) -> Result<ClassExpr<L>, CertError> {
    let perr = |m: String| CertError::new("proof", m);
    let obj = v
        .as_obj()
        .ok_or_else(|| perr("class expression must be an object".into()))?;
    let [(k_atoms, atoms), (k_lit, lit)] = obj else {
        return Err(perr("class expression must have exactly atoms/lit".into()));
    };
    if k_atoms != "atoms" || k_lit != "lit" {
        return Err(perr(
            "class expression fields must be atoms/lit in order".into(),
        ));
    }
    let mut acc = match lit {
        Json::Null => ClassExpr::nil(),
        Json::Str(s) => match parse_lit(s) {
            Some(l) => ClassExpr::lit(Extended::Elem(l)),
            None => {
                return Err(perr(format!(
                    "`{s}` is not a class literal of this lattice"
                )))
            }
        },
        _ => return Err(perr("`lit` must be a string or null".into())),
    };
    let atoms = atoms
        .as_arr()
        .ok_or_else(|| perr("`atoms` must be an array".into()))?;
    for a in atoms {
        let name = a
            .as_str()
            .ok_or_else(|| perr("an atom must be a string".into()))?;
        let term = match name {
            "local" => ClassExpr::local(),
            "global" => ClassExpr::global(),
            _ => match name.strip_prefix("v:") {
                Some(var) => match symbols.lookup(var) {
                    Some(v) => ClassExpr::var(v),
                    None => {
                        return Err(perr(format!(
                            "`{var}` is not a declared variable of this program"
                        )))
                    }
                },
                None => return Err(perr(format!("unknown atom `{name}`"))),
            },
        };
        acc = acc.join(&term);
    }
    Ok(acc)
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
    let digest = sha256_hex(Json::Obj(body.clone()).to_string().as_bytes());
    let mut out = body;
    out.push(("digest".to_string(), Json::Str(digest)));
    Ok(Json::Obj(out).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // Flip a character inside the proof body (the first "rule").
        let mutated = cert
            .text
            .replacen("\"rule\":\"seq\"", "\"rule\":\"shq\"", 1);
        assert_ne!(mutated, cert.text);
        let err = validate_certificate(CHANNEL, &mutated).unwrap_err();
        assert_eq!(err.stage, "digest");
    }

    #[test]
    fn resealed_mutations_reach_the_checker_and_are_rejected() {
        let cert = two_cert(CHANNEL);
        // Rule swap, resealed past the digest gate: structural/check error.
        let swapped = reseal(
            &cert
                .text
                .replacen("\"rule\":\"assign\"", "\"rule\":\"skip\"", 1),
        )
        .unwrap();
        let err = validate_certificate(CHANNEL, &swapped).unwrap_err();
        assert!(err.stage == "proof" || err.stage == "check", "{err}");

        // Class relabel: the forged bound no longer checks.
        let relabeled =
            reseal(&cert.text.replacen("\"lit\":\"high\"", "\"lit\":\"low\"", 1)).unwrap();
        let err = validate_certificate(CHANNEL, &relabeled).unwrap_err();
        assert_eq!(err.stage, "check", "{err}");
    }

    #[test]
    fn version_bump_is_rejected() {
        let cert = two_cert(CHANNEL);
        let bumped = reseal(&cert.text.replacen("\"version\":1", "\"version\":2", 1)).unwrap();
        let err = validate_certificate(CHANNEL, &bumped).unwrap_err();
        assert_eq!(err.stage, "version");
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

    #[test]
    fn depth_bombs_die_in_the_json_parser() {
        let bomb = format!(
            r#"{{"format":"secflow-cert","version":1,"lattice":"two","program_sha256":"x","proof":{},"digest":"y"}}"#,
            "[".repeat(200) + &"]".repeat(200)
        );
        let err = validate_certificate(CHANNEL, &bomb).unwrap_err();
        assert_eq!(err.stage, "json");
    }
}
