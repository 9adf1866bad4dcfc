//! Rendering proofs and assertions, with source-level variable names
//! or without.
//!
//! There is one formatter, `Named`. The `Display` impls in this crate
//! call it without a symbol table, so a variable's class prints as
//! `class(v3)`; the `render_*` functions thread a table through so the
//! CLI and examples can show `m̲ ≤ High` style output.

use std::fmt;

use secflow_lang::SymbolTable;
use secflow_lattice::Lattice;

use crate::assertion::{Assertion, Atom, Bound, ClassExpr};
use crate::proof::{Proof, Rule};

/// `value` displayed with each variable's class named from `symbols`
/// (`x̲`), or by index (`class(v3)`) without a table.
pub(crate) struct Named<'a, T>(pub &'a T, pub Option<&'a SymbolTable>);

impl<L: Lattice + fmt::Display> fmt::Display for Named<'_, ClassExpr<L>> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Named(e, symbols) = self;
        if e.atoms().is_empty() {
            return write!(f, "{}", e.literal());
        }
        for (i, a) in e.atoms().iter().enumerate() {
            if i > 0 {
                write!(f, " ⊕ ")?;
            }
            match (a, symbols) {
                (Atom::VarClass(v), Some(symbols)) => write!(f, "{}̲", symbols.name(*v))?,
                _ => write!(f, "{a}")?,
            }
        }
        if !e.literal().is_nil() {
            write!(f, " ⊕ {}", e.literal())?;
        }
        Ok(())
    }
}

impl<L: Lattice + fmt::Display> fmt::Display for Named<'_, Bound<L>> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Named(b, symbols) = *self;
        write!(f, "{} ≤ {}", Named(&b.lhs, symbols), Named(&b.rhs, symbols))
    }
}

impl<L: Lattice + fmt::Display> fmt::Display for Named<'_, Assertion<L>> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Named(a, symbols) = *self;
        let mut sep = "";
        write!(f, "{{")?;
        for b in &a.state {
            write!(f, "{sep}{}", Named(b, symbols))?;
            sep = ", ";
        }
        if let Some(l) = &a.local {
            write!(f, "{sep}local ≤ {}", Named(l, symbols))?;
            sep = ", ";
        }
        if let Some(g) = &a.global {
            write!(f, "{sep}global ≤ {}", Named(g, symbols))?;
        }
        write!(f, "}}")
    }
}

impl<L: Lattice + fmt::Display> fmt::Display for Named<'_, Proof<L>> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_proof(f, self.0, self.1, 0)
    }
}

fn write_proof<L: Lattice + fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    proof: &Proof<L>,
    symbols: Option<&SymbolTable>,
    depth: usize,
) -> fmt::Result {
    let pad = "  ".repeat(depth);
    writeln!(f, "{pad}[{}]", proof.rule_name())?;
    writeln!(f, "{pad}  pre:  {}", Named(&*proof.pre, symbols))?;
    writeln!(f, "{pad}  post: {}", Named(&*proof.post, symbols))?;
    let premise = |f: &mut fmt::Formatter<'_>, p: &Proof<L>| write_proof(f, p, symbols, depth + 1);
    match &proof.rule {
        Rule::SkipAxiom | Rule::AssignAxiom | Rule::SignalAxiom | Rule::WaitAxiom => Ok(()),
        Rule::If {
            then_proof,
            else_proof,
        } => {
            premise(f, then_proof)?;
            else_proof.as_deref().map_or(Ok(()), |e| premise(f, e))
        }
        Rule::While { body } => premise(f, body),
        Rule::Seq { parts: premises } | Rule::Cobegin { branches: premises } => {
            premises.iter().try_for_each(|p| premise(f, p))
        }
        Rule::Conseq { inner } => premise(f, inner),
    }
}

/// Renders a class expression with variable names.
pub fn render_class_expr<L: Lattice + fmt::Display>(
    e: &ClassExpr<L>,
    symbols: &SymbolTable,
) -> String {
    Named(e, Some(symbols)).to_string()
}

/// Renders a bound with variable names.
pub fn render_bound<L: Lattice + fmt::Display>(b: &Bound<L>, symbols: &SymbolTable) -> String {
    Named(b, Some(symbols)).to_string()
}

/// Renders an assertion with variable names.
pub fn render_assertion<L: Lattice + fmt::Display>(
    a: &Assertion<L>,
    symbols: &SymbolTable,
) -> String {
    Named(a, Some(symbols)).to_string()
}

/// Renders a whole proof tree with variable names.
pub fn render_proof<L: Lattice + fmt::Display>(proof: &Proof<L>, symbols: &SymbolTable) -> String {
    Named(proof, Some(symbols)).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{relative_strength_program, relative_strength_proof};
    use crate::theorem1::prove;
    use secflow_core::StaticBinding;
    use secflow_lang::parse;
    use secflow_lattice::{Extended, TwoPoint, TwoPointScheme};

    #[test]
    fn renders_names_not_indices() {
        let (program, _) = relative_strength_program();
        let proof = relative_strength_proof(&program);
        let text = render_proof(&proof, &program.symbols);
        assert!(text.contains("x̲ ≤ High"), "{text}");
        assert!(text.contains("y̲ ≤ Low"), "{text}");
        assert!(!text.contains("class(v0)"), "{text}");
    }

    #[test]
    fn renders_wait_substitutions() {
        let p = parse("var y : integer; sem : semaphore; begin wait(sem); y := 1 end").unwrap();
        let sbind = StaticBinding::uniform(&p.symbols, &TwoPointScheme);
        let proof = prove(&p, &sbind, Extended::Nil, Extended::Nil).unwrap();
        let text = render_proof(&proof, &p.symbols);
        assert!(text.contains("sem̲"), "{text}");
        assert!(text.contains("wait axiom"), "{text}");
        assert!(text.contains("local ≤ nil"), "{text}");
    }

    #[test]
    fn bound_and_expr_render_literals() {
        use crate::assertion::Bound;
        let p = parse("var a : integer; a := 1").unwrap();
        let b: Bound<TwoPoint> = Bound::var_le(p.var("a"), TwoPoint::High);
        assert_eq!(render_bound(&b, &p.symbols), "a̲ ≤ High");
        let e: ClassExpr<TwoPoint> = ClassExpr::nil();
        assert_eq!(render_class_expr(&e, &p.symbols), "nil");
    }
}
