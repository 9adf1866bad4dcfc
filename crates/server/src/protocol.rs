//! The JSON-lines wire protocol.
//!
//! One request object per line in, one response object per line out.
//! Requests:
//!
//! ```text
//! {"id":1,"op":"certify","source":"…","classes":{"x":"high"},
//!  "default":"low","lattice":"linear:4","baseline":false,"fuel":50000}
//! {"id":2,"op":"infer","source":"…","pins":{"x":"high"}}
//! {"id":3,"op":"flows","source":"…","dot":true}
//! {"id":4,"op":"lint","source":"…"}
//! {"id":5,"op":"explore","source":"…","inputs":{"x":1},"max_states":100000}
//! {"id":6,"op":"checkproof","source":"…","cert":"{…}"}
//! {"id":7,"op":"stats"}
//! {"id":8,"op":"shutdown"}
//! {"id":9,"op":"peer-sync","cursor":0,"limit":256}
//! {"id":10,"op":"ping"}
//! {"id":11,"op":"replicate","payload":"{\"h\":…}"}
//! {"id":12,"op":"repair","peer":"127.0.0.1:4601"}
//! ```
//!
//! `certify` additionally accepts `"with_proof":true`: when the program
//! certifies, the reply carries a self-contained proof `certificate`
//! (the `secflow-cert` wire format) plus its `proof_digest` and
//! `proof_nodes`. `checkproof` validates such a certificate against
//! `source`; `cert` may be the certificate string or the certificate
//! object itself (re-serialized canonically on parse).
//!
//! A node relays a program request it does not own to the owner as
//! the same request with its `hops` count raised by one, so a relayed
//! reply is the owner's direct reply. The count guards against routing
//! loops while nodes disagree about ownership: a program request whose
//! `hops` exceeds the receiver's budget is refused with a structured
//! `max_hops_exhausted` error, before any cache probe or computation.
//!
//! The peer ops are cluster plumbing. `peer-sync` pages a node's
//! cached results to a warm-starting peer as journal record payloads
//! (`entries`, each a string in the
//! [`crate::persist::encode_record`] format), `cursor`/`limit`
//! controlling the page and the reply's `next`/`done` fields telling
//! the receiver how to continue. `ping` is the failure detector's
//! probe: answered inline (never queued), it carries the node's shard
//! `digest` so health checks double as anti-entropy comparisons.
//! `replicate` pushes one freshly computed cache entry (a single
//! `encode_record` payload) to a replica, which verifies it exactly
//! like a `peer-sync` page before installing. `repair` tells a node to
//! anti-entropy against `peer`: compare shard digests and, when they
//! differ, pull the peer's entries through `peer-sync`.
//!
//! Every work-carrying request additionally accepts `"timeout_ms":N` —
//! a per-request deadline. Work that overruns it is cancelled
//! cooperatively and answered with a `timeout` error.
//!
//! Responses always carry `ok` and echo `id` (when one was given) and
//! `op`. Failures carry an `error` object with a machine-readable
//! `kind` (`protocol`, `parse`, `binding`, `fuel`, `timeout`,
//! `overloaded`, `internal`, `max_hops_exhausted`) and a
//! human-readable `message`. Responses to pipelined requests may
//! arrive out of order; correlate by `id`.
//!
//! # Retryable vs. permanent failures
//!
//! The error kinds split into two disjoint classes, which the retrying
//! client ([`crate::client`]) uses to decide whether another attempt
//! can help:
//!
//! | kind         | class     | rationale |
//! |--------------|-----------|-----------|
//! | `overloaded` | retryable | the queue was momentarily full |
//! | `timeout`    | retryable | the deadline raced the work; a retry may win |
//! | `internal`   | retryable | a worker crashed mid-request (transient fault) |
//! | `protocol`   | permanent | the request line itself is malformed |
//! | `parse`      | permanent | the program will never parse |
//! | `binding`    | permanent | the class/lattice spec is invalid |
//! | `fuel`       | permanent | a policy rejection; retrying cannot change it |
//! | `max_hops_exhausted` | permanent | re-asking the *same* node re-enters the same loop |
//!
//! `max_hops_exhausted` is permanent against the node that answered it
//! — the relay chain it refused is deterministic — but a relaying node
//! treats it as "advance to the next preference-list node", which
//! breaks the loop instead of retrying into it.

use crate::json::Json;

/// The operation a request asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// CFM-certify a program under a binding.
    Certify,
    /// Infer the least certifying binding given pinned classes.
    Infer,
    /// Render the program's flow graph (text or DOT).
    Flows,
    /// Run the static analysis passes and return unified diagnostics.
    Lint,
    /// Exhaustively explore the program's interleavings (bounded).
    Explore,
    /// Validate a proof certificate against its source program.
    Checkproof,
    /// Report service counters and latency histogram.
    Stats,
    /// Stop the service, draining queued work first.
    Shutdown,
    /// Peer op: page cached results to a warm-starting peer as journal
    /// record payloads.
    PeerSync,
    /// Liveness probe, answered inline; the reply carries the node's
    /// shard digest for anti-entropy comparisons.
    Ping,
    /// Peer op: install one freshly computed cache entry pushed by the
    /// primary (verified before installation, like `peer-sync`).
    Replicate,
    /// Anti-entropy: compare shard digests with `peer` and pull its
    /// entries through `peer-sync` when they differ.
    Repair,
}

impl Op {
    /// Every operation, in declaration order.
    pub const ALL: [Op; 12] = [
        Op::Certify,
        Op::Infer,
        Op::Flows,
        Op::Lint,
        Op::Explore,
        Op::Checkproof,
        Op::Stats,
        Op::Shutdown,
        Op::PeerSync,
        Op::Ping,
        Op::Replicate,
        Op::Repair,
    ];

    /// The operation whose wire name is `name`.
    pub fn from_name(name: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.name() == name)
    }

    /// Wire name of the operation.
    pub fn name(self) -> &'static str {
        match self {
            Op::Certify => "certify",
            Op::Infer => "infer",
            Op::Flows => "flows",
            Op::Lint => "lint",
            Op::Explore => "explore",
            Op::Checkproof => "checkproof",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
            Op::PeerSync => "peer-sync",
            Op::Ping => "ping",
            Op::Replicate => "replicate",
            Op::Repair => "repair",
        }
    }

    /// Whether the op computes over a program: it needs `source`, the
    /// result cache answers it, it reads `hops`, and a node may relay
    /// it to the request's owner.
    pub fn is_program(self) -> bool {
        matches!(
            self,
            Op::Certify | Op::Infer | Op::Flows | Op::Lint | Op::Explore | Op::Checkproof
        )
    }
}

/// A parsed request line.
#[derive(Clone, PartialEq, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<Json>,
    /// Requested operation.
    pub op: Op,
    /// Program source text (empty for `stats`/`shutdown`).
    pub source: String,
    /// `certify`: variable classes; `infer`: pinned classes. Sorted by
    /// name so equivalent requests fingerprint identically.
    pub classes: Vec<(String, String)>,
    /// Class given to unlisted variables (`certify` only).
    pub default_class: Option<String>,
    /// Lattice spec: `two` (default) or `linear:N`.
    pub lattice: String,
    /// Use the sequential Denning baseline instead of CFM.
    pub baseline: bool,
    /// Attach a proof certificate to a certifying reply (`certify`).
    pub with_proof: bool,
    /// The certificate to validate (`checkproof` only; required there).
    pub cert: Option<String>,
    /// Emit DOT instead of text (`flows` only).
    pub dot: bool,
    /// Per-request work limit in statements (capped by the server).
    pub fuel: Option<u64>,
    /// Per-request deadline in milliseconds (capped by the server); the
    /// server default applies when absent.
    pub timeout_ms: Option<u64>,
    /// Initial variable values (`explore` only), sorted by name.
    pub inputs: Vec<(String, i64)>,
    /// State cap for `explore` (capped by the server).
    pub max_states: Option<u64>,
    /// Partial-order reduction for `explore` (default `true`; send
    /// `"por":false` for the full interleaving search). Part of the
    /// cache key: the reply's `states` count depends on it.
    pub por: bool,
    /// How many relays between nodes a program request has taken (the
    /// anti-loop guard). Default 0.
    pub hops: u64,
    /// Page start for `peer-sync`: skip this many entries. Default 0.
    pub cursor: Option<u64>,
    /// Page size cap for `peer-sync` (capped by the server).
    pub limit: Option<u64>,
    /// One journal record payload to install (`replicate` only;
    /// required there).
    pub payload: Option<String>,
    /// The peer address to anti-entropy against (`repair` only;
    /// required there).
    pub peer: Option<String>,
}

impl Request {
    /// Parses one protocol line. On failure the caller should answer
    /// with a `protocol` error; the `Option<Json>` is whatever id could
    /// be salvaged for the error response.
    pub fn parse(line: &str) -> Result<Request, (Option<Json>, String)> {
        let value = Json::parse(line).map_err(|e| (None, format!("bad JSON: {e}")))?;
        let id = value.get("id").cloned();
        let fail = |msg: String| (id.clone(), msg);

        if value.as_obj().is_none() {
            return Err(fail("request must be a JSON object".into()));
        }
        let op = match value.get("op").and_then(Json::as_str) {
            Some(name) => {
                Op::from_name(name).ok_or_else(|| fail(format!("unknown op `{name}`")))?
            }
            None => return Err(fail("missing string field `op`".into())),
        };

        let source = match value.get("source") {
            Some(Json::Str(s)) => s.clone(),
            Some(_) => return Err(fail("`source` must be a string".into())),
            None if op.is_program() => {
                return Err(fail(format!("op `{}` needs `source`", op.name())));
            }
            None => String::new(),
        };

        let class_field = match op {
            Op::Infer => "pins",
            _ => "classes",
        };
        let mut classes = Vec::new();
        match value.get(class_field) {
            None => {}
            Some(Json::Obj(fields)) => {
                for (name, class) in fields {
                    match class {
                        Json::Str(c) => classes.push((name.clone(), c.clone())),
                        _ => {
                            return Err(fail(format!(
                                "`{class_field}.{name}` must be a string class"
                            )))
                        }
                    }
                }
            }
            Some(_) => return Err(fail(format!("`{class_field}` must be an object"))),
        }
        classes.sort();

        let default_class = match value.get("default") {
            None => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(fail("`default` must be a string".into())),
        };
        let lattice = match value.get("lattice") {
            None => "two".to_string(),
            Some(Json::Str(s)) => s.clone(),
            Some(_) => return Err(fail("`lattice` must be a string".into())),
        };
        let flag = |name: &str| -> Result<bool, (Option<Json>, String)> {
            match value.get(name) {
                None => Ok(false),
                Some(Json::Bool(b)) => Ok(*b),
                Some(_) => Err(fail(format!("`{name}` must be a boolean"))),
            }
        };
        let baseline = flag("baseline")?;
        let dot = flag("dot")?;
        let with_proof = flag("with_proof")?;
        let cert = match value.get("cert") {
            None => None,
            Some(Json::Str(s)) => Some(s.clone()),
            // An inline certificate object: re-serialize it (the
            // validator normalizes whitespace, so this is lossless).
            Some(obj @ Json::Obj(_)) => Some(obj.to_string()),
            Some(_) => return Err(fail("`cert` must be a string or object".into())),
        };
        if op == Op::Checkproof && cert.is_none() {
            return Err(fail("op `checkproof` needs `cert`".into()));
        }
        let uint = |name: &str| -> Result<Option<u64>, (Option<Json>, String)> {
            match value.get(name) {
                None => Ok(None),
                Some(v) => Ok(Some(v.as_u64().ok_or_else(|| {
                    fail(format!("`{name}` must be a non-negative integer"))
                })?)),
            }
        };
        let fuel = uint("fuel")?;
        let timeout_ms = uint("timeout_ms")?;
        let max_states = uint("max_states")?;
        let hops = uint("hops")?.unwrap_or(0);
        let cursor = uint("cursor")?;
        let limit = uint("limit")?;
        let string_field = |name: &str| -> Result<Option<String>, (Option<Json>, String)> {
            match value.get(name) {
                None => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(fail(format!("`{name}` must be a string"))),
            }
        };
        let payload = string_field("payload")?;
        if op == Op::Replicate && payload.is_none() {
            return Err(fail("op `replicate` needs `payload`".into()));
        }
        let peer = string_field("peer")?;
        if op == Op::Repair && peer.is_none() {
            return Err(fail("op `repair` needs `peer`".into()));
        }
        let por = match value.get("por") {
            None => true,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(fail("`por` must be a boolean".into())),
        };

        let mut inputs = Vec::new();
        match value.get("inputs") {
            None => {}
            Some(Json::Obj(fields)) => {
                for (name, v) in fields {
                    match v.as_i64() {
                        Some(n) => inputs.push((name.clone(), n)),
                        None => {
                            return Err(fail(format!("`inputs.{name}` must be an integer")));
                        }
                    }
                }
            }
            Some(_) => return Err(fail("`inputs` must be an object".into())),
        }
        inputs.sort();

        Ok(Request {
            id,
            op,
            source,
            classes,
            default_class,
            lattice,
            baseline,
            with_proof,
            cert,
            dot,
            fuel,
            timeout_ms,
            inputs,
            max_states,
            por,
            hops,
            cursor,
            limit,
            payload,
            peer,
        })
    }

    /// A request with every optional field absent (the wire defaults).
    pub fn new(op: Op, source: impl Into<String>) -> Request {
        Request {
            id: None,
            op,
            source: source.into(),
            classes: Vec::new(),
            default_class: None,
            lattice: "two".to_string(),
            baseline: false,
            with_proof: false,
            cert: None,
            dot: false,
            fuel: None,
            timeout_ms: None,
            inputs: Vec::new(),
            max_states: None,
            por: true,
            hops: 0,
            cursor: None,
            limit: None,
            payload: None,
            peer: None,
        }
    }

    /// Renders the request as one protocol line (the inverse of
    /// [`parse`](Self::parse); defaults are omitted).
    pub fn to_line(&self) -> String {
        self.line_with_hops(self.hops)
    }

    /// The line a node sends to relay this request to its owner:
    /// [`to_line`](Self::to_line) with `hops` raised by one.
    pub(crate) fn relay_line(&self) -> String {
        self.line_with_hops(self.hops.saturating_add(1))
    }

    fn line_with_hops(&self, hops: u64) -> String {
        let mut fields: Vec<(String, Json)> = Vec::new();
        if let Some(id) = &self.id {
            fields.push(("id".to_string(), id.clone()));
        }
        fields.push(("op".to_string(), Json::Str(self.op.name().to_string())));
        if !self.source.is_empty() {
            fields.push(("source".to_string(), Json::Str(self.source.clone())));
        }
        if !self.classes.is_empty() {
            let key = if self.op == Op::Infer {
                "pins"
            } else {
                "classes"
            };
            let obj = self
                .classes
                .iter()
                .map(|(n, c)| (n.clone(), Json::Str(c.clone())))
                .collect();
            fields.push((key.to_string(), Json::Obj(obj)));
        }
        if let Some(d) = &self.default_class {
            fields.push(("default".to_string(), Json::Str(d.clone())));
        }
        if self.lattice != "two" {
            fields.push(("lattice".to_string(), Json::Str(self.lattice.clone())));
        }
        if self.baseline {
            fields.push(("baseline".to_string(), Json::Bool(true)));
        }
        if self.with_proof {
            fields.push(("with_proof".to_string(), Json::Bool(true)));
        }
        if let Some(cert) = &self.cert {
            fields.push(("cert".to_string(), Json::Str(cert.clone())));
        }
        if self.dot {
            fields.push(("dot".to_string(), Json::Bool(true)));
        }
        if let Some(fuel) = self.fuel {
            fields.push(("fuel".to_string(), Json::Num(fuel as f64)));
        }
        if let Some(t) = self.timeout_ms {
            fields.push(("timeout_ms".to_string(), Json::Num(t as f64)));
        }
        if !self.inputs.is_empty() {
            let obj = self
                .inputs
                .iter()
                .map(|(n, v)| (n.clone(), Json::Num(*v as f64)))
                .collect();
            fields.push(("inputs".to_string(), Json::Obj(obj)));
        }
        if let Some(n) = self.max_states {
            fields.push(("max_states".to_string(), Json::Num(n as f64)));
        }
        if !self.por {
            fields.push(("por".to_string(), Json::Bool(false)));
        }
        if hops != 0 {
            fields.push(("hops".to_string(), Json::Num(hops as f64)));
        }
        if let Some(c) = self.cursor {
            fields.push(("cursor".to_string(), Json::Num(c as f64)));
        }
        if let Some(l) = self.limit {
            fields.push(("limit".to_string(), Json::Num(l as f64)));
        }
        if let Some(p) = &self.payload {
            fields.push(("payload".to_string(), Json::Str(p.clone())));
        }
        if let Some(p) = &self.peer {
            fields.push(("peer".to_string(), Json::Str(p.clone())));
        }
        Json::Obj(fields).to_string()
    }
}

/// Machine-readable failure categories.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorKind {
    /// The request line itself was malformed.
    Protocol,
    /// The program source did not parse.
    Parse,
    /// A class/binding/lattice spec was invalid.
    Binding,
    /// The program exceeded the request's or server's fuel limit.
    Fuel,
    /// The request's deadline expired before the work finished.
    Timeout,
    /// The queue was full; retry later.
    Overloaded,
    /// A worker panicked or the service misbehaved.
    Internal,
    /// A program request arrived with its hop budget already spent: the
    /// cluster is looping it between nodes. Permanent against the
    /// answering node (the refused chain is deterministic); the relaying
    /// node advances to the next preference-list node.
    MaxHopsExhausted,
}

impl ErrorKind {
    /// Wire name of the category.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Parse => "parse",
            ErrorKind::Binding => "binding",
            ErrorKind::Fuel => "fuel",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Internal => "internal",
            ErrorKind::MaxHopsExhausted => "max_hops_exhausted",
        }
    }

    /// Whether a retry can plausibly succeed (see the module-level
    /// taxonomy table): transient server-side conditions are retryable,
    /// deterministic rejections of the request itself are permanent.
    pub fn retryable(self) -> bool {
        match self {
            ErrorKind::Overloaded | ErrorKind::Timeout | ErrorKind::Internal => true,
            ErrorKind::Protocol
            | ErrorKind::Parse
            | ErrorKind::Binding
            | ErrorKind::Fuel
            | ErrorKind::MaxHopsExhausted => false,
        }
    }

    /// Parses a wire name back into a kind (for client-side triage).
    pub fn from_name(name: &str) -> Option<ErrorKind> {
        Some(match name {
            "protocol" => ErrorKind::Protocol,
            "parse" => ErrorKind::Parse,
            "binding" => ErrorKind::Binding,
            "fuel" => ErrorKind::Fuel,
            "timeout" => ErrorKind::Timeout,
            "overloaded" => ErrorKind::Overloaded,
            "internal" => ErrorKind::Internal,
            "max_hops_exhausted" => ErrorKind::MaxHopsExhausted,
            _ => return None,
        })
    }
}

/// The `error` field of a failure: `{"kind":…,"message":…}`.
pub(crate) fn error_field(kind: ErrorKind, message: &str) -> (String, Json) {
    (
        "error".to_string(),
        Json::Obj(vec![
            ("kind".to_string(), Json::Str(kind.name().to_string())),
            ("message".to_string(), Json::Str(message.to_string())),
        ]),
    )
}

/// Builder for response lines.
pub struct Response {
    fields: Vec<(String, Json)>,
}

impl Response {
    /// A success response for `op`, echoing `id`.
    pub fn ok(id: Option<&Json>, op: Op) -> Response {
        Response::reply(id, op, true)
    }

    /// A response that answers `op` with `ok`, echoing `id`. A failure
    /// answer appends its own `error` field (a cached failure result
    /// carries one).
    pub fn reply(id: Option<&Json>, op: Op, ok: bool) -> Response {
        let mut fields = Vec::new();
        if let Some(id) = id {
            fields.push(("id".to_string(), id.clone()));
        }
        fields.push(("ok".to_string(), Json::Bool(ok)));
        fields.push(("op".to_string(), Json::Str(op.name().to_string())));
        Response { fields }
    }

    /// A failure response that answers no op, echoing `id`.
    pub fn error(id: Option<&Json>, kind: ErrorKind, message: &str) -> Response {
        let mut fields = Vec::new();
        if let Some(id) = id {
            fields.push(("id".to_string(), id.clone()));
        }
        fields.push(("ok".to_string(), Json::Bool(false)));
        fields.push(error_field(kind, message));
        Response { fields }
    }

    /// Appends a field.
    pub fn field(mut self, key: &str, value: Json) -> Response {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Appends every field in `extra` (used to splice cached payloads).
    pub fn fields(mut self, extra: &[(String, Json)]) -> Response {
        self.fields.extend(extra.iter().cloned());
        self
    }

    /// Finishes into a single JSON line (no trailing newline).
    pub fn into_line(self) -> String {
        Json::Obj(self.fields).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_parses_from_its_wire_name() {
        let mut names: Vec<&str> = Op::ALL.iter().map(|op| op.name()).collect();
        for op in Op::ALL {
            assert_eq!(Op::from_name(op.name()), Some(op));
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Op::ALL.len(), "wire names are distinct");
        assert_eq!(Op::from_name("Certify"), None);
        let (_, msg) = Request::parse(r#"{"op":"Certify","source":"x"}"#).unwrap_err();
        assert_eq!(msg, "unknown op `Certify`");
    }

    #[test]
    fn parses_certify() {
        let r = Request::parse(
            r#"{"id":9,"op":"certify","source":"var x : integer; x := 0",
               "classes":{"y":"low","x":"high"},"default":"low",
               "lattice":"linear:3","baseline":true,"fuel":10}"#,
        )
        .unwrap();
        assert_eq!(r.op, Op::Certify);
        assert_eq!(r.id, Some(Json::Num(9.0)));
        // Sorted for canonical fingerprinting.
        assert_eq!(
            r.classes,
            vec![
                ("x".to_string(), "high".to_string()),
                ("y".to_string(), "low".to_string())
            ]
        );
        assert_eq!(r.default_class.as_deref(), Some("low"));
        assert_eq!(r.lattice, "linear:3");
        assert!(r.baseline);
        assert_eq!(r.fuel, Some(10));
    }

    #[test]
    fn parses_timeout_and_explore_fields() {
        let r = Request::parse(
            r#"{"op":"explore","source":"var x : integer; x := 0",
               "inputs":{"x":-3,"a":7},"max_states":500,"timeout_ms":250}"#,
        )
        .unwrap();
        assert_eq!(r.op, Op::Explore);
        assert_eq!(r.timeout_ms, Some(250));
        assert_eq!(r.max_states, Some(500));
        // Sorted by name for canonical fingerprinting.
        assert_eq!(r.inputs, vec![("a".to_string(), 7), ("x".to_string(), -3)]);
        assert!(Request::parse(r#"{"op":"certify","source":"x","timeout_ms":-1}"#).is_err());
        assert!(Request::parse(r#"{"op":"explore","source":"x","inputs":{"x":"hi"}}"#).is_err());
    }

    #[test]
    fn to_line_round_trips() {
        let full = Request::parse(
            r#"{"id":9,"op":"certify","source":"var x : integer; x := 0",
               "classes":{"x":"high"},"default":"low","lattice":"linear:3",
               "baseline":true,"dot":true,"fuel":10,"timeout_ms":250}"#,
        )
        .unwrap();
        assert_eq!(Request::parse(&full.to_line()).unwrap(), full);

        let mut explore = Request::new(Op::Explore, "var x : integer; x := 0");
        explore.inputs = vec![("x".to_string(), -3)];
        explore.max_states = Some(500);
        assert_eq!(Request::parse(&explore.to_line()).unwrap(), explore);

        // `por` defaults to true and only serializes when disabled.
        assert!(explore.por);
        assert!(!explore.to_line().contains("por"));
        explore.por = false;
        assert!(explore.to_line().contains(r#""por":false"#));
        assert_eq!(Request::parse(&explore.to_line()).unwrap(), explore);
        assert!(Request::parse(r#"{"op":"explore","source":"x","por":1}"#).is_err());

        let infer = Request::parse(r#"{"op":"infer","source":"x","pins":{"x":"high"}}"#).unwrap();
        assert_eq!(Request::parse(&infer.to_line()).unwrap(), infer);

        let minimal = Request::new(Op::Stats, "");
        assert_eq!(Request::parse(&minimal.to_line()).unwrap(), minimal);

        let mut proof = Request::new(Op::Certify, "var x : integer; x := 0");
        proof.with_proof = true;
        assert_eq!(Request::parse(&proof.to_line()).unwrap(), proof);

        let mut check = Request::new(Op::Checkproof, "var x : integer; x := 0");
        check.cert = Some(r#"{"format":"secflow-cert"}"#.to_string());
        assert_eq!(Request::parse(&check.to_line()).unwrap(), check);
    }

    #[test]
    fn checkproof_requires_cert_and_accepts_inline_objects() {
        let (_, msg) =
            Request::parse(r#"{"op":"checkproof","source":"var x : integer; skip"}"#).unwrap_err();
        assert!(msg.contains("needs `cert`"), "{msg}");
        assert!(Request::parse(r#"{"op":"checkproof","cert":"{}"}"#).is_err());
        assert!(Request::parse(r#"{"op":"checkproof","source":"x","cert":7}"#).is_err());

        // An inline object is re-serialized to its compact form.
        let r =
            Request::parse(r#"{"op":"checkproof","source":"x","cert":{"format": "secflow-cert"}}"#)
                .unwrap();
        assert_eq!(r.cert.as_deref(), Some(r#"{"format":"secflow-cert"}"#));

        // `with_proof` is an ordinary boolean flag.
        let r = Request::parse(r#"{"op":"certify","source":"x","with_proof":true}"#).unwrap();
        assert!(r.with_proof);
        assert!(Request::parse(r#"{"op":"certify","source":"x","with_proof":1}"#).is_err());
    }

    #[test]
    fn peer_ops_parse_and_round_trip() {
        // A relayed program request is the request itself with a hop
        // count.
        let mut relayed = Request::new(Op::Certify, "var x : integer; x := 0");
        relayed.hops = 2;
        assert!(relayed.to_line().contains(r#""hops":2"#));
        assert_eq!(Request::parse(&relayed.to_line()).unwrap(), relayed);

        // hops defaults to 0 and only serializes when nonzero.
        relayed.hops = 0;
        assert!(!relayed.to_line().contains("hops"));
        assert_eq!(Request::parse(&relayed.to_line()).unwrap(), relayed);
        assert!(Request::parse(r#"{"op":"certify","source":"x","hops":-1}"#).is_err());

        // There is no envelope op: a `forward` line is an unknown op.
        let (id, msg) =
            Request::parse(r#"{"id":4,"op":"forward","hops":1,"req":"{\"op\":\"ping\"}"}"#)
                .unwrap_err();
        assert_eq!(msg, "unknown op `forward`");
        assert_eq!(id, Some(Json::Num(4.0)));

        // peer-sync needs no source; paging fields round-trip.
        let mut sync = Request::new(Op::PeerSync, "");
        sync.cursor = Some(128);
        sync.limit = Some(64);
        assert_eq!(Request::parse(&sync.to_line()).unwrap(), sync);
        let bare = Request::parse(r#"{"op":"peer-sync"}"#).unwrap();
        assert_eq!(bare.op, Op::PeerSync);
        assert_eq!(bare.cursor, None);
        assert!(Request::parse(r#"{"op":"peer-sync","cursor":"a"}"#).is_err());

        // ping needs nothing at all.
        let ping = Request::new(Op::Ping, "");
        assert_eq!(Request::parse(&ping.to_line()).unwrap(), ping);
        assert_eq!(Request::parse(r#"{"op":"ping"}"#).unwrap().op, Op::Ping);

        // replicate carries exactly one record payload.
        let mut rep = Request::new(Op::Replicate, "");
        rep.payload = Some(r#"{"h":"00","c":"x","ok":true,"f":{}}"#.to_string());
        assert_eq!(Request::parse(&rep.to_line()).unwrap(), rep);
        let (_, msg) = Request::parse(r#"{"op":"replicate"}"#).unwrap_err();
        assert!(msg.contains("needs `payload`"), "{msg}");
        assert!(Request::parse(r#"{"op":"replicate","payload":7}"#).is_err());

        // repair names the peer to anti-entropy against.
        let mut rpr = Request::new(Op::Repair, "");
        rpr.peer = Some("127.0.0.1:4601".to_string());
        assert_eq!(Request::parse(&rpr.to_line()).unwrap(), rpr);
        let (_, msg) = Request::parse(r#"{"op":"repair"}"#).unwrap_err();
        assert!(msg.contains("needs `peer`"), "{msg}");
        assert!(Request::parse(r#"{"op":"repair","peer":[]}"#).is_err());
    }

    #[test]
    fn taxonomy_splits_retryable_from_permanent() {
        for kind in [
            ErrorKind::Overloaded,
            ErrorKind::Timeout,
            ErrorKind::Internal,
        ] {
            assert!(kind.retryable(), "{}", kind.name());
            assert_eq!(ErrorKind::from_name(kind.name()), Some(kind));
        }
        for kind in [
            ErrorKind::Protocol,
            ErrorKind::Parse,
            ErrorKind::Binding,
            ErrorKind::Fuel,
            ErrorKind::MaxHopsExhausted,
        ] {
            assert!(!kind.retryable(), "{}", kind.name());
            assert_eq!(ErrorKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ErrorKind::from_name("nope"), None);
    }

    #[test]
    fn stats_needs_no_source() {
        assert_eq!(Request::parse(r#"{"op":"stats"}"#).unwrap().op, Op::Stats);
        assert!(Request::parse(r#"{"op":"certify"}"#).is_err());
    }

    #[test]
    fn salvages_id_from_bad_requests() {
        let (id, _) = Request::parse(r#"{"id":"a7","op":"nope"}"#).unwrap_err();
        assert_eq!(id, Some(Json::Str("a7".to_string())));
        let (id, _) = Request::parse("not json at all").unwrap_err();
        assert_eq!(id, None);
    }

    #[test]
    fn response_lines() {
        let line = Response::ok(Some(&Json::Num(3.0)), Op::Certify)
            .field("certified", Json::Bool(true))
            .into_line();
        assert_eq!(
            line,
            r#"{"id":3,"ok":true,"op":"certify","certified":true}"#
        );
        let line = Response::error(None, ErrorKind::Overloaded, "queue full").into_line();
        assert_eq!(
            line,
            r#"{"ok":false,"error":{"kind":"overloaded","message":"queue full"}}"#
        );
    }
}
