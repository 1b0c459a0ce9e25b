//! Recursive-descent parser for the Fortran-D subset.
//!
//! Malformed programs never panic: every failure surfaces as a [`ParseError`] naming the
//! source line, what was found and what the parser expected.

use std::fmt;

use crate::ast::{ArrayRef, BinOp, CmpOp, Cond, DistSpec, Expr, Program, ReduceOp, Stmt};
use crate::lexer::Token;

/// A parse failure: where it happened and the found-versus-expected pair.
///
/// `line` is the 1-based *source* line — the lexer emits one [`Token::Newline`] per
/// source line (comment cards and blank lines included), so the parser can count
/// newlines consumed to recover the true position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line of the offending token (or of the end of input).
    pub line: usize,
    /// What the parser found (a rendered token, or `"end of input"`).
    pub got: String,
    /// What it expected instead.
    pub expected: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: expected {}, found {}",
            self.line, self.expected, self.got
        )
    }
}

impl std::error::Error for ParseError {}

/// Let `?` propagate a `ParseError` through the string-typed `fortrand::compile`
/// pipeline (and keep every pre-existing `Result<_, String>` caller compiling).
impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

/// Parse a token stream into a [`Program`].
pub fn parse(tokens: &[Token]) -> Result<Program, ParseError> {
    let mut p = Parser { tokens, pos: 0 };
    let mut stmts = Vec::new();
    while !p.at_end() {
        p.skip_newlines();
        if p.at_end() {
            break;
        }
        stmts.push(p.statement()?);
    }
    Ok(Program { stmts })
}

struct Parser<'a> {
    tokens: &'a [Token],
    pos: usize,
}

/// Render a token (or its absence) the way [`ParseError::got`] reports it.
fn describe(token: Option<&Token>) -> String {
    match token {
        None => "end of input".to_string(),
        Some(t) => format!("{t:?}"),
    }
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<&Token> {
        let t = self.tokens.get(self.pos);
        self.pos += 1;
        t
    }

    fn skip_newlines(&mut self) {
        while matches!(self.peek(), Some(Token::Newline)) {
            self.pos += 1;
        }
    }

    /// 1-based source line of the token at `at` (every source line is one `Newline`).
    fn line_of(&self, at: usize) -> usize {
        1 + self.tokens[..at.min(self.tokens.len())]
            .iter()
            .filter(|t| matches!(t, Token::Newline))
            .count()
    }

    /// A [`ParseError`] at the token the parser just consumed (or tried to).
    fn error(&self, expected: impl Into<String>, got: Option<&Token>) -> ParseError {
        ParseError {
            line: self.line_of(self.pos.saturating_sub(1)),
            got: describe(got),
            expected: expected.into(),
        }
    }

    fn expect(&mut self, expected: &Token) -> Result<(), ParseError> {
        match self.next() {
            Some(t) if t == expected => Ok(()),
            other => {
                let got = other.cloned();
                Err(self.error(format!("{expected:?}"), got.as_ref()))
            }
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s.clone()),
            other => {
                let got = other.cloned();
                Err(self.error("an identifier", got.as_ref()))
            }
        }
    }

    fn expect_usize(&mut self) -> Result<usize, ParseError> {
        match self.next() {
            Some(Token::Int(n)) if *n >= 0 => Ok(*n as usize),
            other => {
                let got = other.cloned();
                Err(self.error("a non-negative integer", got.as_ref()))
            }
        }
    }

    fn end_of_statement(&mut self) -> Result<(), ParseError> {
        match self.next() {
            None | Some(Token::Newline) => Ok(()),
            other => {
                let got = other.cloned();
                Err(self.error("end of statement", got.as_ref()))
            }
        }
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        let keyword = self.expect_ident()?;
        match keyword.as_str() {
            "REAL" => self.decl(true),
            "INTEGER" => self.decl(false),
            "DECOMPOSITION" => {
                let name = self.expect_ident()?;
                self.expect(&Token::LParen)?;
                let size = self.expect_usize()?;
                self.expect(&Token::RParen)?;
                self.end_of_statement()?;
                Ok(Stmt::Decomposition { name, size })
            }
            "DISTRIBUTE" => {
                let line = self.line_of(self.pos - 1);
                let decomp = self.expect_ident()?;
                self.expect(&Token::LParen)?;
                let which = self.expect_ident()?;
                self.expect(&Token::RParen)?;
                self.end_of_statement()?;
                let spec = match which.as_str() {
                    "BLOCK" => DistSpec::Block,
                    "CYCLIC" => DistSpec::Cyclic,
                    map => DistSpec::Map(map.to_string()),
                };
                Ok(Stmt::Distribute { decomp, spec, line })
            }
            "ALIGN" => {
                let mut arrays = vec![self.expect_ident()?];
                while matches!(self.peek(), Some(Token::Comma)) {
                    self.next();
                    arrays.push(self.expect_ident()?);
                }
                let with = self.expect_ident()?;
                if with != "WITH" {
                    let got = Token::Ident(with);
                    return Err(self.error("WITH in ALIGN", Some(&got)));
                }
                let decomp = self.expect_ident()?;
                self.end_of_statement()?;
                Ok(Stmt::Align { arrays, decomp })
            }
            "FORALL" => self.forall(),
            "DO" => self.do_stmt(),
            "IF" => self.if_stmt(),
            "REDUCE" => {
                let stmt = self.reduce()?;
                self.end_of_statement()?;
                Ok(stmt)
            }
            ident => {
                // Plain assignment: ident(expr) = expr
                self.expect(&Token::LParen)?;
                let index = self.expr()?;
                self.expect(&Token::RParen)?;
                self.expect(&Token::Equals)?;
                let value = self.expr()?;
                self.end_of_statement()?;
                Ok(Stmt::Assign {
                    target: ArrayRef {
                        array: ident.to_string(),
                        index: Box::new(index),
                    },
                    value,
                })
            }
        }
    }

    fn decl(&mut self, real: bool) -> Result<Stmt, ParseError> {
        let mut arrays = Vec::new();
        loop {
            let name = self.expect_ident()?;
            self.expect(&Token::LParen)?;
            let size = self.expect_usize()?;
            self.expect(&Token::RParen)?;
            arrays.push((name, size));
            match self.peek() {
                Some(Token::Comma) => {
                    self.next();
                }
                _ => break,
            }
        }
        self.end_of_statement()?;
        Ok(if real {
            Stmt::RealDecl { arrays }
        } else {
            Stmt::IntegerDecl { arrays }
        })
    }

    fn forall(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line_of(self.pos);
        let var = self.expect_ident()?;
        self.expect(&Token::Equals)?;
        let lo = self.expr()?;
        self.expect(&Token::Comma)?;
        let hi = self.expr()?;
        self.end_of_statement()?;
        let mut body = Vec::new();
        loop {
            self.skip_newlines();
            match self.peek() {
                Some(Token::Ident(s)) if s == "END" || s == "ENDFORALL" => {
                    let s = s.clone();
                    self.next();
                    if s == "END" {
                        // Optional FORALL / DO after END.
                        if matches!(self.peek(), Some(Token::Ident(k)) if k == "FORALL" || k == "DO")
                        {
                            self.next();
                        }
                    }
                    self.end_of_statement()?;
                    break;
                }
                None => {
                    return Err(ParseError {
                        line: self.line_of(self.tokens.len()),
                        got: "end of input".to_string(),
                        expected: "END FORALL".to_string(),
                    })
                }
                _ => body.push(self.statement()?),
            }
        }
        Ok(Stmt::Forall {
            var,
            lo,
            hi,
            body,
            line,
        })
    }

    /// `DO var = lo, hi … END DO` — the sequential time loop.  Same header shape as
    /// FORALL; the terminator is `END DO` / `ENDDO`.
    fn do_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line_of(self.pos);
        let var = self.expect_ident()?;
        self.expect(&Token::Equals)?;
        let lo = self.expr()?;
        self.expect(&Token::Comma)?;
        let hi = self.expr()?;
        self.end_of_statement()?;
        let mut body = Vec::new();
        loop {
            self.skip_newlines();
            match self.peek() {
                Some(Token::Ident(s)) if s == "END" || s == "ENDDO" => {
                    let s = s.clone();
                    self.next();
                    if s == "END" {
                        // Optional DO after END.
                        if matches!(self.peek(), Some(Token::Ident(k)) if k == "DO") {
                            self.next();
                        }
                    }
                    self.end_of_statement()?;
                    break;
                }
                None => {
                    return Err(ParseError {
                        line: self.line_of(self.tokens.len()),
                        got: "end of input".to_string(),
                        expected: "END DO".to_string(),
                    })
                }
                _ => body.push(self.statement()?),
            }
        }
        Ok(Stmt::Do {
            var,
            lo,
            hi,
            body,
            line,
        })
    }

    /// `IF (cond) THEN … [ELSE …] END IF` — a statement-level block; the branches hold
    /// whole statements (FORALLs, directives), never expressions.
    fn if_stmt(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line_of(self.pos);
        self.expect(&Token::LParen)?;
        let cond = self.cond()?;
        self.expect(&Token::RParen)?;
        match self.next().cloned() {
            Some(Token::Ident(kw)) if kw == "THEN" => {}
            other => return Err(self.error("THEN after IF condition", other.as_ref())),
        }
        self.end_of_statement()?;
        let mut then_branch = Vec::new();
        let mut else_branch = Vec::new();
        let mut in_else = false;
        loop {
            self.skip_newlines();
            match self.peek() {
                Some(Token::Ident(s)) if s == "ELSE" => {
                    let s = s.clone();
                    self.next();
                    if in_else {
                        let got = Token::Ident(s);
                        return Err(self.error("END IF (ELSE already seen)", Some(&got)));
                    }
                    self.end_of_statement()?;
                    in_else = true;
                }
                Some(Token::Ident(s)) if s == "END" || s == "ENDIF" => {
                    let s = s.clone();
                    self.next();
                    if s == "END" {
                        // Optional IF after END.
                        if matches!(self.peek(), Some(Token::Ident(k)) if k == "IF") {
                            self.next();
                        }
                    }
                    self.end_of_statement()?;
                    break;
                }
                None => {
                    return Err(ParseError {
                        line: self.line_of(self.tokens.len()),
                        got: "end of input".to_string(),
                        expected: "END IF".to_string(),
                    })
                }
                _ => {
                    let stmt = self.statement()?;
                    if in_else {
                        else_branch.push(stmt);
                    } else {
                        then_branch.push(stmt);
                    }
                }
            }
        }
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            line,
        })
    }

    /// cond := expr dotop expr
    fn cond(&mut self) -> Result<Cond, ParseError> {
        let lhs = self.expr()?;
        let op = match self.next().cloned() {
            Some(Token::DotOp(name)) => match name.as_str() {
                "EQ" => CmpOp::Eq,
                "NE" => CmpOp::Ne,
                "LT" => CmpOp::Lt,
                "LE" => CmpOp::Le,
                "GT" => CmpOp::Gt,
                "GE" => CmpOp::Ge,
                other => unreachable!("lexer only emits known dot-operators, got .{other}."),
            },
            other => {
                return Err(self.error("a comparison operator (.EQ., .NE., …)", other.as_ref()))
            }
        };
        let rhs = self.expr()?;
        Ok(Cond { lhs, op, rhs })
    }

    fn reduce(&mut self) -> Result<Stmt, ParseError> {
        self.expect(&Token::LParen)?;
        let op_name = self.expect_ident()?;
        let op = match op_name.as_str() {
            "SUM" => ReduceOp::Sum,
            "APPEND" => ReduceOp::Append,
            other => {
                let got = Token::Ident(other.to_string());
                return Err(self.error(
                    "a supported reduction operation (SUM or APPEND)",
                    Some(&got),
                ));
            }
        };
        self.expect(&Token::Comma)?;
        let target_name = self.expect_ident()?;
        self.expect(&Token::LParen)?;
        let target_index = self.expr()?;
        self.expect(&Token::RParen)?;
        self.expect(&Token::Comma)?;
        let value = self.expr()?;
        self.expect(&Token::RParen)?;
        Ok(Stmt::Reduce {
            op,
            target: ArrayRef {
                array: target_name,
                index: Box::new(target_index),
            },
            value,
        })
    }

    /// expr := term (('+' | '-') term)*
    fn expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.next();
            let rhs = self.term()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// term := factor (('*' | '/') factor)*
    fn term(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.next();
            let rhs = self.factor()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    /// factor := number | ident | ident '(' expr ')' | '(' expr ')' | '-' factor
    fn factor(&mut self) -> Result<Expr, ParseError> {
        match self.next().cloned() {
            Some(Token::Int(n)) => Ok(Expr::Int(n)),
            Some(Token::Real(x)) => Ok(Expr::Real(x)),
            Some(Token::Minus) => {
                let inner = self.factor()?;
                Ok(Expr::Binary(
                    BinOp::Sub,
                    Box::new(Expr::Int(0)),
                    Box::new(inner),
                ))
            }
            Some(Token::LParen) => {
                let inner = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(name)) => {
                if matches!(self.peek(), Some(Token::LParen)) {
                    self.next();
                    let index = self.expr()?;
                    self.expect(&Token::RParen)?;
                    Ok(Expr::Element(ArrayRef {
                        array: name,
                        index: Box::new(index),
                    }))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(self.error("an expression", other.as_ref())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse_src(src: &str) -> Program {
        parse(&tokenize(src).unwrap()).unwrap()
    }

    #[test]
    fn parses_figure7_style_directives() {
        let program = parse_src(
            "REAL x(100), y(100)\n\
             INTEGER map(100)\n\
             C$ DECOMPOSITION reg(100)\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             C$ ALIGN x, y WITH reg\n\
             C$ DISTRIBUTE reg(map)\n",
        );
        assert_eq!(program.stmts.len(), 6);
        assert_eq!(
            program.stmts[3],
            Stmt::Distribute {
                decomp: "REG".into(),
                spec: DistSpec::Block,
                line: 4
            }
        );
        assert_eq!(
            program.stmts[5],
            Stmt::Distribute {
                decomp: "REG".into(),
                spec: DistSpec::Map("MAP".into()),
                line: 6
            }
        );
        match &program.stmts[4] {
            Stmt::Align { arrays, decomp } => {
                assert_eq!(arrays, &vec!["X".to_string(), "Y".into()]);
                assert_eq!(decomp, "REG");
            }
            other => panic!("expected ALIGN, got {other:?}"),
        }
    }

    #[test]
    fn parses_reduction_forall() {
        let program = parse_src(
            "FORALL i = 1, 50\n\
             REDUCE(SUM, x(ia(i)), y(ib(i)) * 2.0)\n\
             END FORALL\n",
        );
        match &program.stmts[0] {
            Stmt::Forall { var, body, .. } => {
                assert_eq!(var, "I");
                assert_eq!(body.len(), 1);
                match &body[0] {
                    Stmt::Reduce { op, target, .. } => {
                        assert_eq!(*op, ReduceOp::Sum);
                        assert_eq!(target.array, "X");
                    }
                    other => panic!("expected REDUCE, got {other:?}"),
                }
            }
            other => panic!("expected FORALL, got {other:?}"),
        }
    }

    #[test]
    fn parses_nested_forall_with_array_bounds() {
        let program = parse_src(
            "FORALL i = 1, 10\n\
             FORALL j = inblo(i), inblo(i+1) - 1\n\
             REDUCE(SUM, dx(jnb(j)), x(jnb(j)) - x(i))\n\
             END FORALL\n\
             END FORALL\n",
        );
        match &program.stmts[0] {
            Stmt::Forall { body, .. } => match &body[0] {
                Stmt::Forall { lo, hi, body, .. } => {
                    assert!(matches!(lo, Expr::Element(_)));
                    assert!(matches!(hi, Expr::Binary(BinOp::Sub, _, _)));
                    assert_eq!(body.len(), 1);
                }
                other => panic!("expected inner FORALL, got {other:?}"),
            },
            other => panic!("expected FORALL, got {other:?}"),
        }
    }

    #[test]
    fn parses_append_and_assignment() {
        let program = parse_src(
            "FORALL j = 1, 64\n\
             new_size(j) = 0\n\
             REDUCE(APPEND, newvel(icell(j)), vel(j))\n\
             END FORALL\n",
        );
        match &program.stmts[0] {
            Stmt::Forall { body, .. } => {
                assert!(matches!(body[0], Stmt::Assign { .. }));
                assert!(matches!(
                    body[1],
                    Stmt::Reduce {
                        op: ReduceOp::Append,
                        ..
                    }
                ));
            }
            other => panic!("expected FORALL, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_then_else_blocks() {
        let program = parse_src(
            "REAL x(8)\n\
             IF (MYRANK .EQ. 0) THEN\n\
             FORALL i = 1, 8\n\
             x(i) = 1.0\n\
             END FORALL\n\
             ELSE\n\
             FORALL i = 1, 8\n\
             x(i) = 2.0\n\
             END FORALL\n\
             END IF\n",
        );
        match &program.stmts[1] {
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                assert_eq!(cond.op, CmpOp::Eq);
                assert_eq!(cond.lhs, Expr::Var("MYRANK".into()));
                assert_eq!(cond.rhs, Expr::Int(0));
                assert!(cond.is_rank_dependent());
                assert_eq!(then_branch.len(), 1);
                assert_eq!(else_branch.len(), 1);
                assert!(matches!(then_branch[0], Stmt::Forall { .. }));
            }
            other => panic!("expected IF, got {other:?}"),
        }
    }

    #[test]
    fn endif_spelling_and_rank_independent_conditions() {
        let program = parse_src(
            "INTEGER steps(1)\n\
             IF (steps(1) .GT. 10) THEN\n\
             C$ DISTRIBUTE reg(BLOCK)\n\
             ENDIF\n",
        );
        match &program.stmts[1] {
            Stmt::If {
                cond, else_branch, ..
            } => {
                assert_eq!(cond.op, CmpOp::Gt);
                assert!(!cond.is_rank_dependent());
                assert!(else_branch.is_empty());
            }
            other => panic!("expected IF, got {other:?}"),
        }
    }

    #[test]
    fn if_parse_errors_are_reported() {
        // Missing THEN.
        let err = parse_err("IF (MYRANK .EQ. 0)\nEND IF\n");
        assert_eq!(err.line, 1);
        assert_eq!(err.expected, "THEN after IF condition");

        // Missing comparison operator.
        let err = parse_err("IF (MYRANK) THEN\nEND IF\n");
        assert!(err.expected.contains("comparison operator"), "{err}");

        // Unterminated block.
        let err = parse_err("IF (MYRANK .NE. 0) THEN\n");
        assert_eq!(err.expected, "END IF");
        assert_eq!(err.got, "end of input");

        // Two ELSE branches.
        let err = parse_err("IF (MYRANK .LT. 2) THEN\nELSE\nELSE\nEND IF\n");
        assert!(err.expected.contains("ELSE already seen"), "{err}");
    }

    fn parse_err(src: &str) -> ParseError {
        parse(&tokenize(src).unwrap()).unwrap_err()
    }

    #[test]
    fn reports_errors_with_context() {
        let err = parse_err("DECOMPOSITION reg\n");
        assert_eq!(err.line, 1);
        assert_eq!(err.expected, "LParen");
        assert_eq!(err.got, "Newline");
        assert!(err.to_string().contains("expected"), "unhelpful: {err}");

        let err = parse_err("FORALL i = 1, 10\nREDUCE(SUM, x(i), y(i))\n");
        assert_eq!(err.expected, "END FORALL");
        assert_eq!(err.got, "end of input");
        assert_eq!(
            err.line, 3,
            "errors at end of input point past the last line"
        );

        let err = parse_err("FORALL i = 1, 10\nREDUCE(MAX, x(i), y(i))\nEND FORALL\n");
        assert_eq!(err.line, 2);
        assert!(err.expected.contains("SUM or APPEND"));
        assert!(err.got.contains("MAX"));
    }

    #[test]
    fn malformed_programs_return_errors_with_true_source_lines() {
        // Comment cards and blank lines still count: the error below is on source line 4.
        let err = parse_err("C a comment card\n\n! another\nREAL x(\n");
        assert_eq!(err.line, 4);
        assert_eq!(err.expected, "a non-negative integer");
        assert_eq!(err.got, "Newline");

        // Mid-program failure after valid statements.
        let err = parse_err("REAL x(8)\nFORALL i = 1, 8\nx(i = 2\nEND FORALL\n");
        assert_eq!(err.line, 3);
        assert_eq!(err.expected, "RParen");

        // ALIGN without WITH.
        let err = parse_err("ALIGN x y\n");
        assert_eq!(err.line, 1);
        assert_eq!(err.expected, "WITH in ALIGN");
        assert!(err.got.contains('Y'), "got {:?}", err.got);

        // A bare operator where an expression factor must start.
        let err = parse_err("REAL x(4)\nx(1) = * 2\n");
        assert_eq!(err.line, 2);
        assert_eq!(err.expected, "an expression");
        assert_eq!(err.got, "Star");

        // Truncated statement: the dangling `+` finds the line ending instead of a term.
        let err = parse_err("x(1) = 2 +");
        assert_eq!(err.line, 1);
        assert_eq!(err.got, "Newline");
        assert_eq!(err.expected, "an expression");
    }

    #[test]
    fn parse_errors_flow_through_compile_as_strings() {
        // The thin `From<ParseError> for String` shim keeps the string-typed pipeline
        // (and its `?` operators) compiling while callers that want structure use
        // `parse` directly.
        let err = crate::compile("DECOMPOSITION reg\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "lost position: {err}");
        assert!(err.contains("expected LParen"), "lost context: {err}");
    }
}
