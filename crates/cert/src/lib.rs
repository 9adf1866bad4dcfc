//! `secflow-cert` — verifiable proof certificates over the wire.
//!
//! The flow logic (Figure 1, Theorem 1) produces explicit proof trees,
//! but within a single process: the prover and the checker share the
//! in-memory [`Proof`](secflow_logic::Proof). This crate turns that
//! proof into a **self-contained wire object** so that one prover can
//! serve many cheap validators — the "prove once, validate everywhere"
//! split of proof-carrying systems:
//!
//! - [`json`] — the minimal hand-rolled JSON value model shared with
//!   the server's line protocol (no external dependencies);
//! - [`digest`] — a std-only SHA-256, used for the certificate content
//!   digest and the program fingerprint;
//! - [`wire`] — the canonical certificate format: deterministic
//!   serialization ([`emit_certificate`]), strict parsing, and a
//!   standalone validator ([`validate_certificate`]) built on
//!   [`check_proof`](secflow_logic::check_proof) that re-derives every
//!   side condition without ever re-running Theorem 1 search, and the
//!   one rendering of its verdict ([`verdict_fields`]).
//!
//! A certificate carries **no authority**: the validator trusts only
//! the program source it is handed and the lattice it names. Rule
//! applications, substitutions and entailments are all re-derived; the
//! digest merely makes certificates content-addressable and detects
//! transport corruption before the (slightly more expensive) structural
//! checks run.
//!
//! # Example
//!
//! ```
//! use secflow_cert::{emit_certificate, show_two_class, validate_certificate};
//! use secflow_core::StaticBinding;
//! use secflow_lang::parse;
//! use secflow_lattice::{Extended, TwoPoint, TwoPointScheme};
//! use secflow_logic::prove;
//!
//! let source = "var x, y : integer; y := x";
//! let program = parse(source).unwrap();
//! let sbind = StaticBinding::constant(&program.symbols, &TwoPointScheme, TwoPoint::High);
//! let proof = prove(&program, &sbind, Extended::Nil, Extended::Nil).unwrap();
//!
//! let cert = emit_certificate(&proof, &program.symbols, "two", source, &show_two_class);
//! let summary = validate_certificate(source, &cert.text).unwrap();
//! assert_eq!(summary.digest, cert.digest);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod json;
pub mod wire;

pub use digest::{sha256_hex, Sha256};
pub use json::{Json, JsonError};
pub use wire::{
    emit_certificate, parse_lattice_spec, parse_linear_class, parse_two_class, program_fingerprint,
    reseal, show_linear_class, show_two_class, validate_certificate, verdict_fields, CertError,
    CertSummary, Certificate, LatticeSpec, CERT_FORMAT, CERT_VERSION,
};
