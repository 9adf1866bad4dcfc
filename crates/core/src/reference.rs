//! A literal, quadratic transcription of Figure 2 — the ablation
//! reference for the §6 linear-time claim.
//!
//! Figure 2 states the composition check as pairwise conditions:
//! `flow(Sj) ≤ mod(Si)` for all `1 ≤ j < i ≤ n`. Transcribed naively that
//! is `O(n²)` lattice checks per composition; the production
//! [`crate::certify`] replaces it with a running prefix join (equivalent
//! because `⊕` is the least upper bound: `∀j<i. flow(Sj) ≤ mod(Si)` iff
//! `⊕_{j<i} flow(Sj) ≤ mod(Si)`), which is what makes certification
//! linear. This module keeps the naive version:
//!
//! - as an executable witness that the two readings of Figure 2 agree
//!   (property-tested against [`crate::certify`] on random programs), and
//! - as the ablation row of E7's table in the `experiments` binary, where
//!   its super-linear growth is visible against the flat production rows.

use secflow_lang::{Program, Stmt};
use secflow_lattice::{Extended, Lattice};

use crate::binding::StaticBinding;
use crate::report::ModClass;

/// Runs the naive quadratic transcription of Figure 2.
///
/// Returns only the certification verdict (the production analyzer is
/// the one with reporting); intended for tests and the ablation bench.
pub fn certify_quadratic<L: Lattice>(program: &Program, sbind: &StaticBinding<L>) -> bool {
    cert(&program.body, sbind)
}

fn mod_of<L: Lattice>(stmt: &Stmt, sbind: &StaticBinding<L>) -> ModClass<L> {
    match stmt {
        Stmt::Skip(_) => ModClass::Top,
        Stmt::Assign { var, .. } => ModClass::Class(sbind.class(*var).clone()),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            let m1 = mod_of(then_branch, sbind);
            match else_branch {
                Some(e) => m1.meet(&mod_of(e, sbind)),
                None => m1,
            }
        }
        Stmt::While { body, .. } => mod_of(body, sbind),
        Stmt::Seq { stmts, .. }
        | Stmt::Cobegin {
            branches: stmts, ..
        } => stmts
            .iter()
            .fold(ModClass::Top, |acc, s| acc.meet(&mod_of(s, sbind))),
        Stmt::Wait { sem, .. } | Stmt::Signal { sem, .. } => {
            ModClass::Class(sbind.class(*sem).clone())
        }
    }
}

fn flow_of<L: Lattice>(stmt: &Stmt, sbind: &StaticBinding<L>) -> Extended<L> {
    match stmt {
        Stmt::Skip(_) | Stmt::Assign { .. } | Stmt::Signal { .. } => Extended::Nil,
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            let f1 = flow_of(then_branch, sbind);
            let f2 = match else_branch {
                Some(e) => flow_of(e, sbind),
                None => Extended::Nil,
            };
            if f1.is_nil() && f2.is_nil() {
                Extended::Nil
            } else {
                f1.join(&f2).join(&Extended::Elem(sbind.expr_class(cond)))
            }
        }
        Stmt::While { cond, body, .. } => {
            flow_of(body, sbind).join(&Extended::Elem(sbind.expr_class(cond)))
        }
        Stmt::Seq { stmts, .. }
        | Stmt::Cobegin {
            branches: stmts, ..
        } => stmts
            .iter()
            .fold(Extended::Nil, |acc, s| acc.join(&flow_of(s, sbind))),
        Stmt::Wait { sem, .. } => Extended::Elem(sbind.class(*sem).clone()),
    }
}

fn cert<L: Lattice>(stmt: &Stmt, sbind: &StaticBinding<L>) -> bool {
    match stmt {
        Stmt::Skip(_) | Stmt::Wait { .. } | Stmt::Signal { .. } => true,
        Stmt::Assign { var, expr, .. } => sbind.expr_class(expr).leq(sbind.class(*var)),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            let sub_ok =
                cert(then_branch, sbind) && else_branch.as_deref().is_none_or(|e| cert(e, sbind));
            sub_ok && mod_of(stmt, sbind).bounds(&Extended::Elem(sbind.expr_class(cond)))
        }
        Stmt::While { body, .. } => {
            cert(body, sbind) && mod_of(stmt, sbind).bounds(&flow_of(stmt, sbind))
        }
        Stmt::Seq { stmts, .. } => {
            // The literal Figure 2 condition: every earlier flow against
            // every later mod — O(n²) on purpose.
            for s in stmts {
                if !cert(s, sbind) {
                    return false;
                }
            }
            for i in 1..stmts.len() {
                let mi = mod_of(&stmts[i], sbind);
                for earlier in &stmts[..i] {
                    if !mi.bounds(&flow_of(earlier, sbind)) {
                        return false;
                    }
                }
            }
            true
        }
        Stmt::Cobegin { branches, .. } => branches.iter().all(|s| cert(s, sbind)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfm::certify;
    use secflow_lang::parse;
    use secflow_lattice::{TwoPoint, TwoPointScheme};

    #[test]
    fn agrees_with_production_on_paper_examples() {
        let cases = [
            ("var x, y : integer; y := x", vec!["x"]),
            ("var x, y : integer; if x = 0 then y := 1", vec!["x"]),
            (
                "var y : integer; sem : semaphore; begin wait(sem); y := 1 end",
                vec!["sem"],
            ),
            (
                "var x, y, z : integer; begin y := 0; while x # 0 do y := 1; z := 1 end",
                vec!["x", "y"],
            ),
            (
                "var x, y : integer; sem : semaphore;
                 cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend",
                vec!["x", "sem"],
            ),
        ];
        for (src, highs) in cases {
            let p = parse(src).unwrap();
            let pairs: Vec<_> = highs.iter().map(|n| (*n, TwoPoint::High)).collect();
            let b = StaticBinding::from_pairs(&p.symbols, &TwoPointScheme, pairs).unwrap();
            assert_eq!(
                certify(&p, &b).certified(),
                certify_quadratic(&p, &b),
                "{src}"
            );
        }
    }

    #[test]
    fn vacuous_checks_pass_like_production() {
        let p = parse("var x : integer; begin skip; skip; x := 1 end").unwrap();
        let b = StaticBinding::uniform(&p.symbols, &TwoPointScheme);
        assert!(certify_quadratic(&p, &b));
    }
}
