//! The program ops that need a binding — `certify`, `infer`, `flows`
//! and the CLI's `prove` — computed once for the service and the
//! `secflow` CLI, so the two give the same verdict by construction.
//!
//! Each op turns a [`Request`] and its parsed [`Program`] into a typed
//! outcome. Nothing here does I/O or touches a cache, a counter or the
//! clock: [`crate::service`] renders an outcome as reply fields, and the
//! CLI renders it as text. Classes leave as their display strings
//! (`High`, `L3`), so neither caller is generic over the lattice.

use std::fmt::Display;

use secflow_cert::{
    emit_certificate, parse_lattice_spec, parse_linear_class, parse_two_class, show_linear_class,
    show_two_class, Certificate, LatticeSpec,
};
use secflow_core::{denning_certify, infer_binding, FlowGraph, StaticBinding};
use secflow_lang::{Program, VarId};
use secflow_lattice::{Extended, Lattice, LinearScheme, Scheme, TwoPointScheme};
use secflow_logic::{check_proof, render_proof};

use crate::protocol::{ErrorKind, Request};

/// Why an op failed: the error kind a reply names, and its message.
/// A bad lattice, class or name is a `binding` error; a prover that
/// fails on a certified program is an `internal` one.
pub type OpError = (ErrorKind, String);

/// What `certify` found.
#[derive(Clone, Debug)]
pub struct Certified {
    /// The binding it certified under: each declared name with its
    /// class.
    pub binding: Vec<(String, String)>,
    /// Whether the mechanism (CFM, or Denning's with `baseline`)
    /// certified the program.
    pub certified: bool,
    /// Violations found.
    pub violations: usize,
    /// Flow checks made.
    pub checks: usize,
    /// Statements in the program.
    pub statements: usize,
    /// The report, rendered against the source.
    pub report: String,
    /// The Theorem 1 certificate, when `with_proof` asked for one and
    /// the program certified.
    pub certificate: Option<Certificate>,
}

/// What `prove` found.
#[derive(Clone, Debug)]
pub enum Proved {
    /// A completely invariant flow proof, checked: its size and its
    /// rendering with source names.
    Proof {
        /// Proof tree size in nodes.
        nodes: usize,
        /// The proof, one node per line.
        text: String,
    },
    /// No such proof exists; why Theorem 1's construction failed.
    NoProof(String),
}

/// What `infer` found.
#[derive(Clone, Debug)]
pub enum Inferred {
    /// The least certifying binding: each declared name with its class.
    Binding(Vec<(String, String)>),
    /// The pins admit no certifying binding.
    Conflict {
        /// Which pin is too low: `x is pinned at Low but needs High`.
        conflict: String,
        /// The flow chain that forces it higher.
        chain: String,
    },
}

/// A scheme whose classes have two spellings: what a user types
/// (`high`, `L3`) and the canonical one a certificate names.
trait Spelled: Scheme<Elem: Display> {
    fn parse_class(&self, class: &str) -> Result<Self::Elem, String>;
    fn show_class(class: &Self::Elem) -> String;
}

impl Spelled for TwoPointScheme {
    fn parse_class(&self, class: &str) -> Result<Self::Elem, String> {
        parse_two_class(class)
    }
    fn show_class(class: &Self::Elem) -> String {
        show_two_class(class)
    }
}

impl Spelled for LinearScheme {
    fn parse_class(&self, class: &str) -> Result<Self::Elem, String> {
        parse_linear_class(self, class)
    }
    fn show_class(class: &Self::Elem) -> String {
        show_linear_class(class)
    }
}

/// `class` in its canonical spelling under `spec` (`HIGH` and `h` as
/// `high`, `L3` as `3`), or `None` when it names no class there.
pub(crate) fn canonical_class(spec: &LatticeSpec, class: &str) -> Option<String> {
    match spec {
        LatticeSpec::Two => TwoPointScheme
            .parse_class(class)
            .ok()
            .map(|c| show_two_class(&c)),
        LatticeSpec::Linear(scheme) => scheme
            .parse_class(class)
            .ok()
            .map(|c| show_linear_class(&c)),
    }
}

fn lattice(req: &Request) -> Result<LatticeSpec, OpError> {
    parse_lattice_spec(&req.lattice).map_err(|e| (ErrorKind::Binding, e))
}

/// `certify`: the verdict under the request's binding, with a
/// certificate when `with_proof` asks for one.
pub fn certify(req: &Request, program: &Program) -> Result<Certified, OpError> {
    let spec = lattice(req)?;
    if req.with_proof && req.baseline {
        return Err((
            ErrorKind::Binding,
            "`with_proof` needs the CFM flow logic; the Denning baseline has no proof".to_string(),
        ));
    }
    match spec {
        LatticeSpec::Two => certify_in(req, program, &TwoPointScheme, spec),
        LatticeSpec::Linear(scheme) => certify_in(req, program, &scheme, spec),
    }
}

/// `prove`: a completely invariant flow proof under the request's
/// binding, checked before it is returned.
pub fn prove(req: &Request, program: &Program) -> Result<Proved, OpError> {
    match lattice(req)? {
        LatticeSpec::Two => prove_in(req, program, &TwoPointScheme),
        LatticeSpec::Linear(scheme) => prove_in(req, program, &scheme),
    }
}

/// `infer`: the least binding that certifies the program with the
/// request's classes pinned.
pub fn infer(req: &Request, program: &Program) -> Result<Inferred, OpError> {
    match lattice(req)? {
        LatticeSpec::Two => infer_in(req, program, &TwoPointScheme),
        LatticeSpec::Linear(scheme) => infer_in(req, program, &scheme),
    }
}

/// `flows`: the flow graph as text, or as DOT with `dot`. DOT colours
/// the violated edges when the request gives classes or a default.
pub fn flows(req: &Request, program: &Program) -> Result<String, OpError> {
    match lattice(req)? {
        LatticeSpec::Two => flows_in(req, program, &TwoPointScheme),
        LatticeSpec::Linear(scheme) => flows_in(req, program, &scheme),
    }
}

fn certify_in<S: Spelled>(
    req: &Request,
    program: &Program,
    scheme: &S,
    spec: LatticeSpec,
) -> Result<Certified, OpError> {
    let binding = build_binding(req, program, scheme)?;
    let report = if req.baseline {
        denning_certify(program, &binding)
    } else {
        secflow_core::certify(program, &binding)
    };
    let certificate = if req.with_proof && report.certified() {
        // Theorem 1: a CFM-certified program always has a proof in the
        // flow logic, so a failure here is a bug in the prover, not in
        // the request.
        let proof =
            secflow_logic::prove(program, &binding, Extended::Nil, Extended::Nil).map_err(|e| {
                (
                    ErrorKind::Internal,
                    format!("Theorem 1 prover failed on a certified program: {e}"),
                )
            })?;
        Some(emit_certificate(
            &proof,
            &program.symbols,
            &spec.to_string(),
            &req.source,
            &S::show_class,
        ))
    } else {
        None
    };
    Ok(Certified {
        binding: classes_of(program, &binding),
        certified: report.certified(),
        violations: report.violations.len(),
        checks: report.checks,
        statements: program.statement_count(),
        report: report.render(&req.source),
        certificate,
    })
}

fn prove_in<S: Spelled>(req: &Request, program: &Program, scheme: &S) -> Result<Proved, OpError> {
    let binding = build_binding(req, program, scheme)?;
    Ok(
        match secflow_logic::prove(program, &binding, Extended::Nil, Extended::Nil) {
            Ok(proof) => {
                check_proof(&program.body, &proof)
                    .map_err(|e| (ErrorKind::Internal, e.to_string()))?;
                Proved::Proof {
                    nodes: proof.size(),
                    text: render_proof(&proof, &program.symbols),
                }
            }
            Err(e) => Proved::NoProof(e.to_string()),
        },
    )
}

fn infer_in<S: Spelled>(req: &Request, program: &Program, scheme: &S) -> Result<Inferred, OpError> {
    Ok(
        match infer_binding(program, scheme, pins(req, program, scheme)?) {
            Ok(binding) => Inferred::Binding(classes_of(program, &binding)),
            Err(unsat) => Inferred::Conflict {
                conflict: format!(
                    "{} is pinned at {} but needs {}",
                    program.symbols.name(unsat.var),
                    unsat.pinned,
                    unsat.required
                ),
                chain: unsat.render_path(program),
            },
        },
    )
}

fn flows_in<S: Spelled>(req: &Request, program: &Program, scheme: &S) -> Result<String, OpError> {
    let graph = FlowGraph::of(program);
    if !req.dot {
        return Ok(graph.render(program));
    }
    let binding = if req.classes.is_empty() && req.default_class.is_none() {
        None
    } else {
        Some(build_binding(req, program, scheme)?)
    };
    Ok(graph.to_dot(program, binding.as_ref()))
}

/// The request's binding: `default_class` (else the bottom class) for
/// every name, then each of `classes`.
fn build_binding<S: Spelled>(
    req: &Request,
    program: &Program,
    scheme: &S,
) -> Result<StaticBinding<S::Elem>, OpError> {
    let base = match &req.default_class {
        Some(c) => scheme.parse_class(c).map_err(|e| (ErrorKind::Binding, e))?,
        None => scheme.low(),
    };
    let mut binding = StaticBinding::constant(&program.symbols, scheme, base);
    for (id, class) in pins(req, program, scheme)? {
        binding.set(id, class);
    }
    Ok(binding)
}

/// The request's classes, each resolved to its variable and parsed.
fn pins<S: Spelled>(
    req: &Request,
    program: &Program,
    scheme: &S,
) -> Result<Vec<(VarId, S::Elem)>, OpError> {
    req.classes
        .iter()
        .map(|(name, class)| {
            let id = program
                .symbols
                .lookup(name)
                .ok_or_else(|| (ErrorKind::Binding, format!("`{name}` is not declared")))?;
            let class = scheme
                .parse_class(class)
                .map_err(|e| (ErrorKind::Binding, e))?;
            Ok((id, class))
        })
        .collect()
}

/// Each declared name with its class's display string.
fn classes_of<L: Lattice + Display>(
    program: &Program,
    binding: &StaticBinding<L>,
) -> Vec<(String, String)> {
    binding
        .iter()
        .map(|(id, class)| (program.symbols.name(id).to_string(), class.to_string()))
        .collect()
}
