//! The Andrews–Reitman flow logic (Figure 1 of the paper), as machine-
//! checkable data.
//!
//! §3 of the paper sketches a deductive logic for information flow:
//! assertions bound the *classifications* of variables (not their
//! values), and the triple `{P} S {Q}` means "if the initial information
//! state satisfies `P` and `S` terminates, the final state satisfies
//! `Q`". This crate implements the logic end to end:
//!
//! - [`assertion`] — the `{V, local ≤ l, global ≤ g}` assertion language
//!   of §3.1, with textual simultaneous substitution;
//! - [`entail`] — a sound-and-complete decision procedure for the
//!   `P |- Q` side conditions (§3.1's "lattice theory and propositional
//!   logic");
//! - [`proof`] — explicit derivation trees for the Figure 1 rules;
//! - [`check`] — an independent proof checker, including the
//!   interference-freedom obligation of the concurrent-execution rule;
//! - [`theorem1`] — the constructive prover of Theorem 1 (every CFM-
//!   certified program has a completely invariant flow proof) and the
//!   Definition 7 validator;
//! - [`lemma`] — the Appendix Lemma bounds, checked over concrete proofs;
//! - [`examples`] — the §5.2 relative-strength artifact, verbatim.
//!
//! # Examples
//!
//! ```
//! use secflow_core::{certify, StaticBinding};
//! use secflow_lang::parse;
//! use secflow_lattice::{Extended, TwoPoint, TwoPointScheme};
//! use secflow_logic::{check_proof, is_completely_invariant, policy_assertion, prove};
//!
//! let p = parse("var x, y : integer; if x = 0 then y := 1 else y := 2").unwrap();
//! let sbind = StaticBinding::constant(&p.symbols, &TwoPointScheme, TwoPoint::High);
//! assert!(certify(&p, &sbind).certified());
//!
//! // Theorem 1: a completely invariant proof exists and checks.
//! let proof = prove(&p, &sbind, Extended::Nil, Extended::Nil).unwrap();
//! check_proof(&p.body, &proof).unwrap();
//! let i = policy_assertion(&p, &sbind);
//! assert!(is_completely_invariant(&proof, &i).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assertion;
pub mod check;
pub mod entail;
pub mod examples;
pub mod lemma;
pub mod proof;
pub mod render;
pub mod theorem1;

pub use assertion::{Assertion, Atom, Bound, ClassExpr};
pub use check::{check_proof, CheckError};
pub use entail::{entails, entails_bound, equivalent, EntailError, UpperBounds};
pub use lemma::{check_lemma, LemmaViolation};
pub use proof::{Proof, Rule};
pub use render::{render_assertion, render_bound, render_class_expr, render_proof};
pub use theorem1::{build_proof, is_completely_invariant, policy_assertion, prove, ProveError};
