//! The Concurrent Flow Mechanism (Figure 2 of the paper).
//!
//! For a statement `S` and static binding `sbind`, CFM computes three
//! syntax-directed functions in one bottom-up pass:
//!
//! - `mod(S)` — the greatest lower bound of the bindings of variables `S`
//!   may modify ([`ModClass`]);
//! - `flow(S)` — the least upper bound of the *global* flows `S` produces,
//!   over the binding scheme extended with `nil` ([`Extended`]);
//! - `cert(S)` — the conjunction of per-row lattice checks; failures are
//!   collected as [`Violation`]s rather than a bare boolean.
//!
//! The pass visits each AST node a constant number of times (the
//! composition rule folds a running prefix join instead of re-checking all
//! pairs), so certification runs in time linear in the program length —
//! the paper's §6 efficiency claim, regenerated as E7 by the
//! `experiments` binary.

use secflow_lang::{print_expr, Program, Stmt, SymbolTable};
use secflow_lattice::{Extended, Lattice};

use crate::binding::StaticBinding;
use crate::report::{CertReport, CheckRule, ModClass, Violation};

/// Runs CFM over a whole program.
///
/// # Examples
///
/// The paper's §2.2 `wait` example: `y` learns whether the signal ever
/// arrived, so `sbind(sem) ≤ sbind(y)` is required.
///
/// ```
/// use secflow_core::{certify, StaticBinding};
/// use secflow_lang::parse;
/// use secflow_lattice::{TwoPoint, TwoPointScheme};
///
/// let p = parse("var y : integer; sem : semaphore; begin wait(sem); y := 1 end").unwrap();
/// let high_sem = StaticBinding::uniform(&p.symbols, &TwoPointScheme)
///     .with(p.var("sem"), TwoPoint::High);
/// assert!(!certify(&p, &high_sem).certified());
///
/// let ok = StaticBinding::uniform(&p.symbols, &TwoPointScheme);
/// assert!(certify(&p, &ok).certified());
/// ```
pub fn certify<L: Lattice>(program: &Program, sbind: &StaticBinding<L>) -> CertReport<L> {
    let mut cx = Cx {
        symbols: &program.symbols,
        sbind,
        violations: Vec::new(),
        checks: 0,
    };
    let (mod_class, flow) = cx.analyze(&program.body);
    CertReport {
        violations: cx.violations,
        mod_class,
        flow,
        checks: cx.checks,
    }
}

/// Computes only `(mod(S), flow(S))` for a statement, without collecting
/// violations. Used by the flow-logic prover, which needs the facts of
/// every subtree.
pub fn mod_flow<L: Lattice>(stmt: &Stmt, sbind: &StaticBinding<L>) -> (ModClass<L>, Extended<L>) {
    match stmt {
        Stmt::Skip(_) => (ModClass::Top, Extended::Nil),
        Stmt::Assign { var, .. } => (ModClass::Class(sbind.class(*var).clone()), Extended::Nil),
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            let (m1, f1) = mod_flow(then_branch, sbind);
            let (m2, f2) = match else_branch {
                Some(e) => mod_flow(e, sbind),
                None => (ModClass::Top, Extended::Nil),
            };
            let m = m1.meet(&m2);
            let f = if f1.is_nil() && f2.is_nil() {
                Extended::Nil
            } else {
                f1.join(&f2).join(&Extended::Elem(sbind.expr_class(cond)))
            };
            (m, f)
        }
        Stmt::While { cond, body, .. } => {
            let (m, f) = mod_flow(body, sbind);
            (m, f.join(&Extended::Elem(sbind.expr_class(cond))))
        }
        Stmt::Seq { stmts, .. }
        | Stmt::Cobegin {
            branches: stmts, ..
        } => {
            let mut m = ModClass::Top;
            let mut f = Extended::Nil;
            for s in stmts {
                let (mi, fi) = mod_flow(s, sbind);
                m = m.meet(&mi);
                f = f.join(&fi);
            }
            (m, f)
        }
        Stmt::Wait { sem, .. } => {
            let c = sbind.class(*sem).clone();
            (ModClass::Class(c.clone()), Extended::Elem(c))
        }
        Stmt::Signal { sem, .. } => (ModClass::Class(sbind.class(*sem).clone()), Extended::Nil),
    }
}

struct Cx<'a, L> {
    symbols: &'a SymbolTable,
    sbind: &'a StaticBinding<L>,
    violations: Vec<Violation<L>>,
    checks: usize,
}

impl<L: Lattice> Cx<'_, L> {
    /// Checks `found ≤ limit`, recording a violation when it fails.
    fn check(
        &mut self,
        rule: CheckRule,
        stmt: &Stmt,
        found: Extended<L>,
        limit: &ModClass<L>,
        message: impl FnOnce() -> String,
    ) {
        self.checks += 1;
        if !limit.bounds(&found) {
            self.violations.push(Violation {
                rule,
                span: stmt.span(),
                found,
                limit: limit.clone(),
                message: message(),
            });
        }
    }

    fn analyze(&mut self, stmt: &Stmt) -> (ModClass<L>, Extended<L>) {
        match stmt {
            Stmt::Skip(_) => (ModClass::Top, Extended::Nil),

            // x := e     mod = sbind(x), flow = nil, cert: sbind(e) ≤ sbind(x)
            Stmt::Assign { var, expr, .. } => {
                let target = ModClass::Class(self.sbind.class(*var).clone());
                let e_class = self.sbind.expr_class(expr);
                self.check(
                    CheckRule::AssignDirect,
                    stmt,
                    Extended::Elem(e_class),
                    &target,
                    || {
                        format!(
                            "`{}` flows directly into `{}`",
                            print_expr(expr, self.symbols),
                            self.symbols.name(*var)
                        )
                    },
                );
                (target, Extended::Nil)
            }

            // if e then S1 else S2
            //   mod  = mod(S1) ⊗ mod(S2)
            //   flow = nil if both nil, else flow(S1) ⊕ flow(S2) ⊕ sbind(e)
            //   cert: sbind(e) ≤ mod(S)
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                let (m1, f1) = self.analyze(then_branch);
                let (m2, f2) = match else_branch {
                    Some(e) => self.analyze(e),
                    None => (ModClass::Top, Extended::Nil),
                };
                let m = m1.meet(&m2);
                let e_class = self.sbind.expr_class(cond);
                self.check(
                    CheckRule::IfLocal,
                    stmt,
                    Extended::Elem(e_class.clone()),
                    &m,
                    || {
                        format!(
                            "guard `{}` flows locally into the branches",
                            print_expr(cond, self.symbols)
                        )
                    },
                );
                let f = if f1.is_nil() && f2.is_nil() {
                    Extended::Nil
                } else {
                    f1.join(&f2).join(&Extended::Elem(e_class))
                };
                (m, f)
            }

            // while e do S1
            //   mod = mod(S1), flow = flow(S1) ⊕ sbind(e)
            //   cert: flow(S) ≤ mod(S)
            Stmt::While { cond, body, .. } => {
                let (m, f_body) = self.analyze(body);
                let f = f_body.join(&Extended::Elem(self.sbind.expr_class(cond)));
                self.check(CheckRule::WhileGlobal, stmt, f.clone(), &m, || {
                    format!(
                        "the loop's global flow (guard `{}` and any waits) reaches every \
                         variable modified in the body",
                        print_expr(cond, self.symbols)
                    )
                });
                (m, f)
            }

            // begin S1; …; Sn end
            //   mod = ⊗ mod(Si), flow = ⊕ flow(Si)
            //   cert: flow(Sj) ≤ mod(Si) for all j < i
            // The pairwise condition is equivalent to checking the running
            // prefix join against each mod(Si), which keeps the pass linear.
            Stmt::Seq { stmts, .. } => {
                let mut m = ModClass::Top;
                let mut prefix_flow = Extended::Nil;
                for s in stmts {
                    let (mi, fi) = self.analyze(s);
                    self.check(CheckRule::SeqGlobal, s, prefix_flow.clone(), &mi, || {
                        "an earlier statement's global flow (conditional termination or a \
                         wait) reaches this statement"
                            .to_string()
                    });
                    m = m.meet(&mi);
                    prefix_flow = prefix_flow.join(&fi);
                }
                (m, prefix_flow)
            }

            // cobegin S1 || … || Sn coend
            //   mod = ⊗ mod(Si), flow = ⊕ flow(Si), cert: all cert(Si)
            // No cross-process check: components execute independently
            // (they interact only through shared variables and semaphores,
            // which the other rules already charge).
            Stmt::Cobegin { branches, .. } => {
                let mut m = ModClass::Top;
                let mut f = Extended::Nil;
                for s in branches {
                    let (mi, fi) = self.analyze(s);
                    m = m.meet(&mi);
                    f = f.join(&fi);
                }
                (m, f)
            }

            // wait(sem)   mod = sbind(sem), flow = sbind(sem), cert = true
            Stmt::Wait { sem, .. } => {
                let c = self.sbind.class(*sem).clone();
                (ModClass::Class(c.clone()), Extended::Elem(c))
            }

            // signal(sem) mod = sbind(sem), flow = nil, cert = true
            Stmt::Signal { sem, .. } => (
                ModClass::Class(self.sbind.class(*sem).clone()),
                Extended::Nil,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secflow_lang::parse;
    use secflow_lattice::{TwoPoint, TwoPointScheme};

    fn two(src: &str, highs: &[&str]) -> (Program, StaticBinding<TwoPoint>) {
        let p = parse(src).unwrap_or_else(|e| panic!("{}", e.render(src)));
        let b = StaticBinding::from_pairs(
            &p.symbols,
            &TwoPointScheme,
            highs.iter().map(|n| (*n, TwoPoint::High)),
        )
        .unwrap();
        (p, b)
    }

    use secflow_lang::Program;

    // ---- Figure 2, row by row ------------------------------------------

    #[test]
    fn row_assign_direct_flow() {
        let (p, b) = two("var x, y : integer; y := x", &["x"]);
        let r = certify(&p, &b);
        assert!(!r.certified());
        assert_eq!(r.violations[0].rule, CheckRule::AssignDirect);
        // And the permitted direction:
        let (p, b) = two("var x, y : integer; x := y", &["x"]);
        assert!(certify(&p, &b).certified());
    }

    #[test]
    fn row_assign_mod_and_flow() {
        let (p, b) = two("var x, y : integer; x := y", &["x"]);
        let r = certify(&p, &b);
        assert_eq!(r.mod_class, ModClass::Class(TwoPoint::High));
        assert_eq!(r.flow, Extended::Nil);
    }

    #[test]
    fn row_if_local_flow() {
        // High guard, Low-modifying branch: rejected.
        let (p, b) = two("var x, y : integer; if x = 0 then y := 1", &["x"]);
        let r = certify(&p, &b);
        assert!(!r.certified());
        assert_eq!(r.violations[0].rule, CheckRule::IfLocal);
        // High guard, High-modifying branches: certified.
        let (p, b) = two(
            "var x, y : integer; if x = 0 then y := 1 else y := 2",
            &["x", "y"],
        );
        assert!(certify(&p, &b).certified());
    }

    #[test]
    fn row_if_flow_is_nil_when_branches_have_no_global_flow() {
        let (p, b) = two("var x, y : integer; if x = 0 then y := 1 else skip", &[]);
        let r = certify(&p, &b);
        assert_eq!(r.flow, Extended::Nil);
    }

    #[test]
    fn row_if_flow_includes_guard_when_branch_flows() {
        // A wait inside a branch makes the if's global flow include the guard.
        let (p, b) = two(
            "var x : integer; s : semaphore; if x = 0 then wait(s)",
            &["x"],
        );
        let r = certify(&p, &b);
        assert_eq!(r.flow, Extended::Elem(TwoPoint::High));
    }

    #[test]
    fn row_while_global_flow() {
        // while x # 0 do y := 1 : global flow from x must reach y.
        let (p, b) = two("var x, y : integer; while x # 0 do y := 1", &["x"]);
        let r = certify(&p, &b);
        assert!(!r.certified());
        assert_eq!(r.violations[0].rule, CheckRule::WhileGlobal);
        // All-high: fine.
        let (p, b) = two("var x, y : integer; while x # 0 do y := 1", &["x", "y"]);
        assert!(certify(&p, &b).certified());
    }

    #[test]
    fn row_while_flow_value() {
        let (p, b) = two("var x, y : integer; while x # 0 do y := 1", &["x", "y"]);
        let r = certify(&p, &b);
        assert_eq!(r.flow, Extended::Elem(TwoPoint::High));
        assert_eq!(r.mod_class, ModClass::Class(TwoPoint::High));
    }

    #[test]
    fn paper_loop_wait_example() {
        // §4.2: while true do begin y := y + 1; wait(sem) end
        // needs sbind(sem) ≤ sbind(y).
        let (p, b) = two(
            "var y : integer; sem : semaphore; while true do begin y := y + 1; wait(sem) end",
            &["sem"],
        );
        let r = certify(&p, &b);
        assert!(!r.certified());
        // With y high as well it certifies.
        let (p, b) = two(
            "var y : integer; sem : semaphore; while true do begin y := y + 1; wait(sem) end",
            &["sem", "y"],
        );
        assert!(certify(&p, &b).certified());
    }

    #[test]
    fn row_seq_global_flow() {
        // §4.2: begin wait(sem); y := 1 end needs sbind(sem) ≤ sbind(y).
        let (p, b) = two(
            "var y : integer; sem : semaphore; begin wait(sem); y := 1 end",
            &["sem"],
        );
        let r = certify(&p, &b);
        assert!(!r.certified());
        assert_eq!(r.violations[0].rule, CheckRule::SeqGlobal);
        let (p, b) = two(
            "var y : integer; sem : semaphore; begin wait(sem); y := 1 end",
            &["sem", "y"],
        );
        assert!(certify(&p, &b).certified());
    }

    #[test]
    fn seq_flow_does_not_act_backwards() {
        // The modification *before* the wait is unaffected.
        let (p, b) = two(
            "var y : integer; sem : semaphore; begin y := 1; wait(sem) end",
            &["sem"],
        );
        assert!(certify(&p, &b).certified());
    }

    #[test]
    fn row_cobegin_has_no_cross_process_check() {
        // A wait in one process does not constrain its sibling.
        let (p, b) = two(
            "var y : integer; sem : semaphore; cobegin wait(sem) || y := 1 coend",
            &["sem"],
        );
        assert!(certify(&p, &b).certified());
        // But flow still aggregates:
        let r = certify(&p, &b);
        assert_eq!(r.flow, Extended::Elem(TwoPoint::High));
    }

    #[test]
    fn cobegin_flow_propagates_to_following_statement() {
        // begin cobegin wait(sem) || skip coend ; y := 1 end:
        // the cobegin's global flow reaches y.
        let (p, b) = two(
            "var y : integer; sem : semaphore;
             begin cobegin wait(sem) || skip coend; y := 1 end",
            &["sem"],
        );
        let r = certify(&p, &b);
        assert!(!r.certified());
        assert_eq!(r.violations[0].rule, CheckRule::SeqGlobal);
    }

    #[test]
    fn row_wait_and_signal() {
        let (p, b) = two("var s : semaphore; wait(s)", &["s"]);
        let r = certify(&p, &b);
        assert!(r.certified()); // cert(wait) = true
        assert_eq!(r.flow, Extended::Elem(TwoPoint::High));
        assert_eq!(r.mod_class, ModClass::Class(TwoPoint::High));

        let (p, b) = two("var s : semaphore; signal(s)", &["s"]);
        let r = certify(&p, &b);
        assert!(r.certified());
        assert_eq!(r.flow, Extended::Nil);
    }

    #[test]
    fn skip_is_always_certified() {
        let (p, b) = two("var x : integer; skip", &["x"]);
        let r = certify(&p, &b);
        assert!(r.certified());
        assert_eq!(r.mod_class, ModClass::Top);
        assert_eq!(r.flow, Extended::Nil);
    }

    // ---- §2.2 taxonomy examples ----------------------------------------

    #[test]
    fn taxonomy_local_flow_if() {
        // if x = 0 then y := 1 else y := 0 : x flows to y but nowhere else.
        let (p, b) = two(
            "var x, y, z : integer; begin if x = 0 then y := 1 else y := 0; z := 1 end",
            &["x", "y"],
        );
        // z := 1 after the if is unaffected (flow of the if is nil).
        assert!(certify(&p, &b).certified());
    }

    #[test]
    fn taxonomy_global_flow_while() {
        // §2.2: y := 0; while x # 0 do ...; z := 1 — x flows to BOTH y and z.
        let src = "var x, y, z : integer;
                   begin y := 0; while x # 0 do y := 1; z := 1 end";
        // x high, y high, z low: the flow to z is the global one. Rejected.
        let (p, b) = two(src, &["x", "y"]);
        let r = certify(&p, &b);
        assert!(!r.certified());
        assert!(r.violations.iter().any(|v| v.rule == CheckRule::SeqGlobal));
        // All three high: certified.
        let (p, b) = two(src, &["x", "y", "z"]);
        assert!(certify(&p, &b).certified());
    }

    #[test]
    fn taxonomy_synchronization_flow() {
        // §2.2: cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend
        // transmits x to y.
        let src = "var x, y : integer; sem : semaphore;
                   cobegin
                     if x = 0 then signal(sem)
                   ||
                     begin wait(sem); y := 0 end
                   coend";
        // x high forces sem high (if-check), and sem high forces y high
        // (seq-check). With y low the program must be rejected.
        let (p, b) = two(src, &["x", "sem"]);
        let r = certify(&p, &b);
        assert!(!r.certified());
        // Fully high chain: certified.
        let (p, b) = two(src, &["x", "sem", "y"]);
        assert!(certify(&p, &b).certified());
        // And breaking the chain at the guard is also caught:
        let (p, b) = two(src, &["x"]);
        let r = certify(&p, &b);
        assert!(r.violations.iter().any(|v| v.rule == CheckRule::IfLocal));
    }

    // ---- mod_flow agrees with certify ----------------------------------

    #[test]
    fn mod_flow_matches_certify() {
        let srcs = [
            "var x, y : integer; s : semaphore; begin x := 1; wait(s); y := x end",
            "var x : integer; while x < 3 do x := x + 1",
            "var a, b : integer; s : semaphore initially(1);
             cobegin begin wait(s); a := 1; signal(s) end || b := 2 coend",
            "var x : integer; skip",
        ];
        for src in srcs {
            let p = parse(src).unwrap();
            let b = StaticBinding::uniform(&p.symbols, &TwoPointScheme);
            let r = certify(&p, &b);
            let (m, f) = mod_flow(&p.body, &b);
            assert_eq!(r.mod_class, m, "{src}");
            assert_eq!(r.flow, f, "{src}");
        }
    }

    #[test]
    fn report_renders_violations_with_locations() {
        let src = "var x, y : integer; y := x";
        let (p, b) = two(src, &["x"]);
        let r = certify(&p, &b);
        let rendered = r.render(src);
        assert!(rendered.contains("NOT certified"), "{rendered}");
        assert!(rendered.contains("line 1"), "{rendered}");
        assert!(rendered.contains('x'), "{rendered}");
    }

    #[test]
    fn checks_are_counted() {
        let (p, b) = two("var x, y : integer; begin x := 1; y := 2 end", &[]);
        let r = certify(&p, &b);
        // 2 assignment checks + 2 seq-prefix checks.
        assert_eq!(r.checks, 4);
    }
}
