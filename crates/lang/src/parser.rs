//! Recursive-descent parser: token stream → [`Program`].
//!
//! Grammar (paper §2.0 syntax with conventional declaration headers):
//!
//! ```text
//! program   := { "var" declgroup { ";" declgroup } ";" } stmt EOF
//! declgroup := ident { "," ident } ":" type
//! type      := "integer" | "boolean"
//!            | "semaphore" [ "initially" "(" int ")" ]
//! stmt      := ident ":=" expr
//!            | "if" expr "then" stmt [ "else" stmt ]
//!            | "while" expr "do" stmt
//!            | "begin" stmt { ";" stmt } [ ";" ] "end"
//!            | "cobegin" stmt { "||" stmt } "coend"
//!            | "wait" "(" ident ")"
//!            | "signal" "(" ident ")"
//!            | "skip"
//! expr      := or-chain of and-chains of comparisons of sums of products
//!              of unary/atomic expressions
//! ```
//!
//! `#`, `<>` and `!=` all denote "not equal" (the paper writes `#`).
//! Name resolution happens during parsing: every identifier must be
//! declared, assignments must target data variables, and `wait`/`signal`
//! must name semaphores.

use crate::ast::{BinOp, Expr, Program, Stmt, SymbolTable, UnOp, VarId, VarKind};
use crate::diag::{Diagnostic, ErrorCode};
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// Parses a complete program from source text.
///
/// # Examples
///
/// ```
/// use secflow_lang::parse;
///
/// let p = parse(
///     "var x, y : integer; s : semaphore initially(1);
///      cobegin
///        begin wait(s); x := 1; signal(s) end
///      ||
///        begin wait(s); y := x; signal(s) end
///      coend",
/// )
/// .unwrap();
/// assert_eq!(p.symbols.len(), 3);
/// ```
pub fn parse(source: &str) -> Result<Program, Diagnostic> {
    let tokens = lex(source)?;
    Parser::new(tokens).program()
}

/// Parses a single expression against an existing symbol table.
///
/// Useful for tests and the CLI's policy files.
pub fn parse_expr(source: &str, symbols: &SymbolTable) -> Result<Expr, Diagnostic> {
    let tokens = lex(source)?;
    let mut p = Parser::new(tokens);
    p.symbols = symbols.clone();
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Maximum statement/expression nesting the parser accepts. Real
/// programs nest a handful of levels; the bound exists so adversarial
/// inputs (e.g. 50k open parentheses) produce a diagnostic instead of
/// exhausting the stack. The certificate reader sizes its JSON depth
/// limit from it.
pub const MAX_NESTING: u32 = 300;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    symbols: SymbolTable,
    depth: u32,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            symbols: SymbolTable::new(),
            depth: 0,
        }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at(&self, kind: &TokenKind) -> bool {
        &self.peek().kind == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, Diagnostic> {
        if self.at(&kind) {
            Ok(self.bump())
        } else {
            let found = self.peek();
            Err(Diagnostic::error(
                ErrorCode::UnexpectedToken,
                format!("expected `{kind}`, found {}", found.kind.describe()),
                found.span,
            ))
        }
    }

    fn expect_eof(&mut self) -> Result<(), Diagnostic> {
        if self.at(&TokenKind::Eof) {
            Ok(())
        } else {
            let found = self.peek();
            Err(Diagnostic::error(
                ErrorCode::UnexpectedToken,
                format!("expected end of input, found {}", found.kind.describe()),
                found.span,
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), Diagnostic> {
        match &self.peek().kind {
            TokenKind::Ident(name) => {
                let name = name.clone();
                let span = self.peek().span;
                self.bump();
                Ok((name, span))
            }
            other => Err(Diagnostic::error(
                ErrorCode::UnexpectedToken,
                format!("expected an identifier, found {}", other.describe()),
                self.peek().span,
            )),
        }
    }

    // ---- declarations -------------------------------------------------

    fn program(mut self) -> Result<Program, Diagnostic> {
        while self.at(&TokenKind::Var) {
            self.decl_section()?;
        }
        let body = self.stmt()?;
        self.expect_eof()?;
        Ok(Program::new(self.symbols, body))
    }

    /// `var` declgroup { `;` declgroup } `;`
    ///
    /// The final `;` is required (it separates declarations from the body).
    fn decl_section(&mut self) -> Result<(), Diagnostic> {
        self.expect(TokenKind::Var)?;
        loop {
            self.decl_group()?;
            self.expect(TokenKind::Semi)?;
            // Another group follows only when we see `ident ,` or `ident :`;
            // a lone `ident :=` is the start of the body.
            let next_is_group = matches!(self.peek().kind, TokenKind::Ident(_))
                && matches!(
                    self.tokens.get(self.pos + 1).map(|t| &t.kind),
                    Some(TokenKind::Comma) | Some(TokenKind::Colon)
                );
            if !next_is_group {
                break;
            }
        }
        Ok(())
    }

    /// ident { `,` ident } `:` type
    fn decl_group(&mut self) -> Result<(), Diagnostic> {
        let mut names = vec![self.expect_ident()?];
        while self.eat(&TokenKind::Comma) {
            names.push(self.expect_ident()?);
        }
        self.expect(TokenKind::Colon)?;
        let (kind, init) = match self.peek().kind {
            TokenKind::Integer | TokenKind::Boolean => {
                self.bump();
                (VarKind::Data, 0)
            }
            TokenKind::Semaphore => {
                self.bump();
                let mut init = 0i64;
                if self.eat(&TokenKind::Initially) {
                    self.expect(TokenKind::LParen)?;
                    let t = self.bump();
                    init = match t.kind {
                        TokenKind::Int(n) if n >= 0 => n,
                        TokenKind::Int(n) => {
                            return Err(Diagnostic::error(
                                ErrorCode::BadSemaphoreInit,
                                format!("semaphore initial value must be non-negative, got {n}"),
                                t.span,
                            ));
                        }
                        other => {
                            return Err(Diagnostic::error(
                                ErrorCode::UnexpectedToken,
                                format!("expected an integer, found {}", other.describe()),
                                t.span,
                            ));
                        }
                    };
                    self.expect(TokenKind::RParen)?;
                }
                (VarKind::Semaphore, init)
            }
            ref other => {
                return Err(Diagnostic::error(
                    ErrorCode::UnexpectedToken,
                    format!(
                        "expected `integer`, `boolean` or `semaphore`, found {}",
                        other.describe()
                    ),
                    self.peek().span,
                ));
            }
        };
        for (name, span) in names {
            self.symbols.declare(&name, kind, init, span)?;
        }
        Ok(())
    }

    // ---- statements ---------------------------------------------------

    fn enter(&mut self) -> Result<DepthGuard, Diagnostic> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(Diagnostic::error(
                ErrorCode::MalformedStatement,
                format!("nesting deeper than {MAX_NESTING} levels"),
                self.peek().span,
            ));
        }
        Ok(DepthGuard)
    }

    fn leave(&mut self, _guard: DepthGuard) {
        self.depth -= 1;
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let guard = self.enter()?;
        let result = self.stmt_inner();
        self.leave(guard);
        result
    }

    fn stmt_inner(&mut self) -> Result<Stmt, Diagnostic> {
        match self.peek().kind.clone() {
            TokenKind::Skip => {
                let t = self.bump();
                Ok(Stmt::Skip(t.span))
            }
            TokenKind::Ident(name) => self.assign_stmt(&name),
            TokenKind::If => self.if_stmt(),
            TokenKind::While => self.while_stmt(),
            TokenKind::Begin => self.begin_stmt(),
            TokenKind::Cobegin => self.cobegin_stmt(),
            TokenKind::Wait => self.sem_stmt(true),
            TokenKind::Signal => self.sem_stmt(false),
            other => Err(Diagnostic::error(
                ErrorCode::UnexpectedToken,
                format!("expected a statement, found {}", other.describe()),
                self.peek().span,
            )),
        }
    }

    fn resolve(&self, name: &str, span: Span) -> Result<VarId, Diagnostic> {
        self.symbols.lookup(name).ok_or_else(|| {
            Diagnostic::error(
                ErrorCode::UndeclaredIdentifier,
                format!("`{name}` is not declared"),
                span,
            )
        })
    }

    fn assign_stmt(&mut self, name: &str) -> Result<Stmt, Diagnostic> {
        let (_, name_span) = self.expect_ident()?;
        let var = self.resolve(name, name_span)?;
        if self.symbols.kind(var) != VarKind::Data {
            return Err(Diagnostic::error(
                ErrorCode::KindMismatch,
                format!("cannot assign to semaphore `{name}`; use wait/signal"),
                name_span,
            )
            .with_note("declared here", self.symbols.info(var).decl_span));
        }
        self.expect(TokenKind::Assign)?;
        let expr = self.expr()?;
        let span = name_span.cover(expr.span());
        Ok(Stmt::Assign { var, expr, span })
    }

    fn if_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::If)?.span;
        let cond = self.expr()?;
        self.expect(TokenKind::Then)?;
        let then_branch = Box::new(self.stmt()?);
        let (else_branch, end_span) = if self.eat(&TokenKind::Else) {
            let s = self.stmt()?;
            let sp = s.span();
            (Some(Box::new(s)), sp)
        } else {
            (None, then_branch.span())
        };
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            span: start.cover(end_span),
        })
    }

    fn while_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::While)?.span;
        let cond = self.expr()?;
        self.expect(TokenKind::Do)?;
        let body = Box::new(self.stmt()?);
        let span = start.cover(body.span());
        Ok(Stmt::While { cond, body, span })
    }

    fn begin_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::Begin)?.span;
        let mut stmts = vec![self.stmt()?];
        while self.eat(&TokenKind::Semi) {
            if self.at(&TokenKind::End) {
                break; // tolerate a trailing semicolon
            }
            stmts.push(self.stmt()?);
        }
        let end = self.expect(TokenKind::End)?.span;
        // Normalization: `begin S end` is just `S`. This keeps the
        // pretty-printer free to insert disambiguating begin/end pairs
        // (e.g. around a then-branch ending in an open `if`) without
        // changing the parsed structure.
        if stmts.len() == 1 {
            return Ok(stmts.pop().expect("non-empty"));
        }
        Ok(Stmt::Seq {
            stmts,
            span: start.cover(end),
        })
    }

    fn cobegin_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::Cobegin)?.span;
        let mut branches = vec![self.stmt()?];
        while self.eat(&TokenKind::Parallel) {
            branches.push(self.stmt()?);
        }
        let end = self.expect(TokenKind::Coend)?.span;
        let span = start.cover(end);
        if branches.len() < 2 {
            return Err(Diagnostic::error(
                ErrorCode::MalformedStatement,
                "`cobegin` needs at least two processes separated by `||`",
                span,
            ));
        }
        Ok(Stmt::Cobegin { branches, span })
    }

    fn sem_stmt(&mut self, is_wait: bool) -> Result<Stmt, Diagnostic> {
        let kw = if is_wait {
            TokenKind::Wait
        } else {
            TokenKind::Signal
        };
        let start = self.expect(kw)?.span;
        self.expect(TokenKind::LParen)?;
        let (name, name_span) = self.expect_ident()?;
        let sem = self.resolve(&name, name_span)?;
        if self.symbols.kind(sem) != VarKind::Semaphore {
            return Err(Diagnostic::error(
                ErrorCode::KindMismatch,
                format!("`{name}` is not a semaphore"),
                name_span,
            )
            .with_note("declared here", self.symbols.info(sem).decl_span));
        }
        let end = self.expect(TokenKind::RParen)?.span;
        let span = start.cover(end);
        Ok(if is_wait {
            Stmt::Wait { sem, span }
        } else {
            Stmt::Signal { sem, span }
        })
    }

    // ---- expressions --------------------------------------------------

    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        let guard = self.enter()?;
        let result = self.or_expr();
        self.leave(guard);
        result
    }

    fn or_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.and_expr()?;
        while self.at(&TokenKind::Or) {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.cmp_expr()?;
        while self.at(&TokenKind::And) {
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, Diagnostic> {
        let lhs = self.add_expr()?;
        let op = match self.peek().kind {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(binary(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, Diagnostic> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek().kind {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, Diagnostic> {
        match self.peek().kind {
            TokenKind::Minus => {
                let start = self.bump().span;
                let arg = self.unary_expr()?;
                let span = start.cover(arg.span());
                // Fold negated literals so `-3` is a constant, exactly as
                // the pretty-printer emits it.
                if let Expr::Const(n, _) = arg {
                    return Ok(Expr::Const(n.wrapping_neg(), span));
                }
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    arg: Box::new(arg),
                    span,
                })
            }
            TokenKind::Not => {
                let start = self.bump().span;
                let arg = self.unary_expr()?;
                let span = start.cover(arg.span());
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    arg: Box::new(arg),
                    span,
                })
            }
            _ => self.atom_expr(),
        }
    }

    fn atom_expr(&mut self) -> Result<Expr, Diagnostic> {
        match self.peek().kind.clone() {
            TokenKind::Int(n) => {
                let t = self.bump();
                Ok(Expr::Const(n, t.span))
            }
            TokenKind::True => {
                let t = self.bump();
                Ok(Expr::Const(1, t.span))
            }
            TokenKind::False => {
                let t = self.bump();
                Ok(Expr::Const(0, t.span))
            }
            TokenKind::Ident(name) => {
                let (_, span) = self.expect_ident()?;
                let var = self.resolve(&name, span)?;
                if self.symbols.kind(var) != VarKind::Data {
                    return Err(Diagnostic::error(
                        ErrorCode::KindMismatch,
                        format!("semaphore `{name}` cannot be read in an expression"),
                        span,
                    )
                    .with_note("declared here", self.symbols.info(var).decl_span));
                }
                Ok(Expr::Var(var, span))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?; // re-enters the depth guard
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(Diagnostic::error(
                ErrorCode::UnexpectedToken,
                format!("expected an expression, found {}", other.describe()),
                self.peek().span,
            )),
        }
    }
}

/// Token proving `enter` succeeded; consumed by `leave`.
struct DepthGuard;

fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    let span = lhs.span().cover(rhs.span());
    Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
        span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        match parse(src) {
            Ok(p) => p,
            Err(e) => panic!("parse failed:\n{}", e.render(src)),
        }
    }

    #[test]
    fn parses_simple_assignment() {
        let p = parse_ok("var x : integer; x := 1 + 2 * 3");
        match &p.body {
            Stmt::Assign { expr, .. } => {
                // 1 + (2 * 3), precedence respected.
                match expr {
                    Expr::Binary {
                        op: BinOp::Add,
                        rhs,
                        ..
                    } => {
                        assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
                    }
                    other => panic!("expected Add at top, got {other:?}"),
                }
            }
            other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_then_else() {
        let p = parse_ok("var x, y : integer; if x = 0 then y := 1 else y := 2");
        assert!(matches!(
            p.body,
            Stmt::If {
                else_branch: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn parses_if_without_else() {
        let p = parse_ok("var x, y : integer; if x # 0 then y := 1");
        assert!(matches!(
            p.body,
            Stmt::If {
                else_branch: None,
                ..
            }
        ));
    }

    #[test]
    fn parses_while() {
        let p = parse_ok("var x : integer; while x < 10 do x := x + 1");
        assert!(matches!(p.body, Stmt::While { .. }));
    }

    #[test]
    fn parses_begin_end_with_trailing_semi() {
        let p = parse_ok("var x : integer; begin x := 1; x := 2; end");
        match p.body {
            Stmt::Seq { ref stmts, .. } => assert_eq!(stmts.len(), 2),
            ref other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn parses_cobegin() {
        let p = parse_ok("var x, y : integer; cobegin x := 1 || y := 2 || skip coend");
        match p.body {
            Stmt::Cobegin { ref branches, .. } => assert_eq!(branches.len(), 3),
            ref other => panic!("expected cobegin, got {other:?}"),
        }
    }

    #[test]
    fn cobegin_with_one_branch_is_rejected() {
        let err = parse("var x : integer; cobegin x := 1 coend").unwrap_err();
        assert_eq!(err.code, ErrorCode::MalformedStatement);
    }

    #[test]
    fn parses_wait_and_signal() {
        let p = parse_ok("var s : semaphore initially(2); begin wait(s); signal(s) end");
        let s = p.var("s");
        assert_eq!(p.symbols.info(s).init, 2);
        match p.body {
            Stmt::Seq { ref stmts, .. } => {
                assert!(matches!(stmts[0], Stmt::Wait { .. }));
                assert!(matches!(stmts[1], Stmt::Signal { .. }));
            }
            ref other => panic!("expected seq, got {other:?}"),
        }
    }

    #[test]
    fn undeclared_variable_is_an_error() {
        let err = parse("x := 1").unwrap_err();
        assert_eq!(err.code, ErrorCode::UndeclaredIdentifier);
    }

    #[test]
    fn assignment_to_semaphore_is_rejected() {
        let err = parse("var s : semaphore; s := 1").unwrap_err();
        assert_eq!(err.code, ErrorCode::KindMismatch);
    }

    #[test]
    fn wait_on_data_variable_is_rejected() {
        let err = parse("var x : integer; wait(x)").unwrap_err();
        assert_eq!(err.code, ErrorCode::KindMismatch);
    }

    #[test]
    fn semaphore_read_in_expression_is_rejected() {
        let err = parse("var s : semaphore; x : integer; x := s").unwrap_err();
        assert_eq!(err.code, ErrorCode::KindMismatch);
    }

    #[test]
    fn negative_semaphore_init_is_rejected() {
        let err = parse("var s : semaphore initially(-1); skip").unwrap_err();
        // `-1` lexes as Minus Int(1), so this trips the integer expectation.
        assert_eq!(err.code, ErrorCode::UnexpectedToken);
    }

    #[test]
    fn multiple_decl_groups_in_one_section() {
        let p = parse_ok("var x, y : integer; a, b : semaphore; skip");
        assert_eq!(p.symbols.len(), 4);
        assert_eq!(p.symbols.data_vars().len(), 2);
        assert_eq!(p.symbols.semaphores().len(), 2);
    }

    #[test]
    fn multiple_var_sections() {
        let p = parse_ok("var x : integer; var y : integer; skip");
        assert_eq!(p.symbols.len(), 2);
    }

    #[test]
    fn duplicate_declaration_reported() {
        let err = parse("var x : integer; x : semaphore; skip").unwrap_err();
        assert_eq!(err.code, ErrorCode::DuplicateDeclaration);
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let err = parse("var x : integer; x := 1 x := 2").unwrap_err();
        assert_eq!(err.code, ErrorCode::UnexpectedToken);
    }

    #[test]
    fn parses_boolean_literals_as_integers() {
        let p = parse_ok("var b : boolean; b := true");
        match p.body {
            Stmt::Assign { ref expr, .. } => assert_eq!(*expr, Expr::Const(1, expr.span())),
            ref other => panic!("expected assignment, got {other:?}"),
        }
    }

    #[test]
    fn parses_parenthesized_and_logical_operators() {
        let p = parse_ok("var x, y : integer; if (x = 0 or y = 0) and not (x = y) then skip");
        assert!(matches!(p.body, Stmt::If { .. }));
    }

    #[test]
    fn parses_unary_minus() {
        let p = parse_ok("var x : integer; x := -x + -3");
        assert!(matches!(p.body, Stmt::Assign { .. }));
    }

    #[test]
    fn parses_the_fig3_program() {
        let src = r#"
            var x, y, m : integer;
                modify, modified, read, done : semaphore initially(0);
            cobegin
                begin
                    m := 0;
                    if x # 0 then begin signal(modify); wait(modified) end;
                    signal(read); wait(done);
                    if x = 0 then begin signal(modify); wait(modified) end;
                    wait(done)
                end
            ||
                begin wait(modify); m := 1; signal(modified) end
            ||
                begin wait(read); y := m; signal(done); signal(done) end
            coend
        "#;
        let p = parse_ok(src);
        assert_eq!(p.symbols.len(), 7);
        match p.body {
            Stmt::Cobegin { ref branches, .. } => assert_eq!(branches.len(), 3),
            ref other => panic!("expected cobegin, got {other:?}"),
        }
    }

    #[test]
    fn parse_expr_standalone() {
        let mut t = SymbolTable::new();
        t.declare("x", VarKind::Data, 0, Span::DUMMY).unwrap();
        let e = parse_expr("x + 1", &t).unwrap();
        assert_eq!(e.vars().len(), 1);
        assert!(parse_expr("x +", &t).is_err());
    }

    #[test]
    fn deeply_nested_statements_parse() {
        let mut src = String::from("var x : integer; ");
        for _ in 0..64 {
            src.push_str("if x = 0 then ");
        }
        src.push_str("x := 1");
        let p = parse_ok(&src);
        assert_eq!(p.statement_count(), 65);
    }
}
