//! Recursive-descent parser for the mini language.
//!
//! Grammar sketch (see crate docs for the language rationale):
//!
//! ```text
//! program := (decl | stmt)*
//! decl    := ("int" | "float") name ("[" int "]")* ("," name ("[" int "]")*)* ";"
//! stmt    := "par" "{" stmt* "}"
//!          | "if" "(" expr ")" body ("else" body)?
//!          | "for" "(" name "=" expr ";" name cmp expr ";" step ")" body
//!          | "while" "(" expr ")" body
//!          | "break" ";"
//!          | "{" stmt* "}"
//!          | simple ";"
//! simple  := lvalue ("=" | "+=" | "-=" | "*=" | "/=") expr
//!          | lvalue "++" | lvalue "--"
//!          | name "(" args ")"
//! step    := name "++" | name "--" | name "+=" expr | name "-=" expr
//!          | name "=" name ("+" | "-") expr
//! ```
//!
//! Expressions use conventional C precedence:
//! `?:`  <  `||`  <  `&&`  <  comparisons  <  `+ -`  <  `* / %`  <  unary.

use crate::expr::{BinOp, CmpOp, Expr, LValue, UnOp};
use crate::lexer::{Lexer, Token};
use crate::program::{Decl, Program, Ty};
use crate::stmt::{AssignOp, ForLoop, Stmt};

/// A parse error with a human-readable message including the line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// How deep expressions and statements may nest: deeper input is a parse
/// error rather than a stack overflow.
pub const MAX_DEPTH: usize = 128;

struct Parser {
    toks: Vec<(Token, usize)>,
    pos: usize,
    /// current expression/statement nesting
    depth: usize,
}

type PResult<T> = Result<T, ParseError>;

impl Parser {
    fn new(src: &str) -> PResult<Parser> {
        let toks = Lexer::new(src).tokenize().map_err(ParseError)?;
        Ok(Parser {
            toks,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)].0
    }

    fn line(&self) -> usize {
        self.toks[self.pos.min(self.toks.len() - 1)].1
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].0.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Token) -> PResult<()> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(ParseError(format!(
                "line {}: expected `{}`, found `{}`",
                self.line(),
                t,
                self.peek()
            )))
        }
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> PResult<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            other => Err(ParseError(format!(
                "line {}: expected identifier, found `{other}`",
                self.line()
            ))),
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s == kw)
    }

    /// Run `f` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested<T>(&mut self, f: fn(&mut Parser) -> PResult<T>) -> PResult<T> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError(format!(
                "line {}: nesting deeper than {MAX_DEPTH} levels",
                self.line()
            )));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    // ----- expressions -------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.nested(Parser::select_expr)
    }

    fn select_expr(&mut self) -> PResult<Expr> {
        let cond = self.or_expr()?;
        if self.eat(&Token::Question) {
            let then_e = self.expr()?;
            self.expect(Token::Colon)?;
            let else_e = self.expr()?;
            return Ok(Expr::Select(
                Box::new(cond),
                Box::new(then_e),
                Box::new(else_e),
            ));
        }
        Ok(cond)
    }

    /// A left-associative chain `next (op next)*`. Every link nests the
    /// tree built so far one level deeper, so links count against
    /// [`MAX_DEPTH`] too: a flat `a + a + …` cannot build a tree deeper
    /// than the passes that walk it can recurse.
    fn chain(
        &mut self,
        next: fn(&mut Parser) -> PResult<Expr>,
        op: fn(&Token) -> Option<BinOp>,
    ) -> PResult<Expr> {
        let depth = self.depth;
        let mut e = next(self)?;
        while let Some(op) = op(self.peek()) {
            self.bump();
            let r = self.nested(next)?;
            e = Expr::bin(op, e, r);
            self.depth += 1;
        }
        self.depth = depth;
        Ok(e)
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        self.chain(Parser::and_expr, |t| {
            (*t == Token::OrOr).then_some(BinOp::Or)
        })
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        self.chain(Parser::cmp_expr, |t| {
            (*t == Token::AndAnd).then_some(BinOp::And)
        })
    }

    fn cmp_op(&self) -> Option<CmpOp> {
        match self.peek() {
            Token::Lt => Some(CmpOp::Lt),
            Token::Le => Some(CmpOp::Le),
            Token::Gt => Some(CmpOp::Gt),
            Token::Ge => Some(CmpOp::Ge),
            Token::EqEq => Some(CmpOp::Eq),
            Token::NotEq => Some(CmpOp::Ne),
            _ => None,
        }
    }

    fn cmp_expr(&mut self) -> PResult<Expr> {
        let e = self.add_expr()?;
        if let Some(op) = self.cmp_op() {
            self.bump();
            let r = self.add_expr()?;
            return Ok(Expr::bin(BinOp::Cmp(op), e, r));
        }
        Ok(e)
    }

    fn add_expr(&mut self) -> PResult<Expr> {
        self.chain(Parser::mul_expr, |t| match t {
            Token::Plus => Some(BinOp::Add),
            Token::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn mul_expr(&mut self) -> PResult<Expr> {
        self.chain(Parser::unary_expr, |t| match t {
            Token::Star => Some(BinOp::Mul),
            Token::Slash => Some(BinOp::Div),
            Token::Percent => Some(BinOp::Mod),
            _ => None,
        })
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        if self.eat(&Token::Minus) {
            // Fold negated literals so `-1` round-trips as `Int(-1)`.
            return Ok(match self.nested(Parser::unary_expr)? {
                Expr::Int(v) => Expr::Int(-v),
                Expr::Float(v) => Expr::Float(-v),
                inner => Expr::Unary(UnOp::Neg, Box::new(inner)),
            });
        }
        if self.eat(&Token::Bang) {
            return Ok(Expr::Unary(
                UnOp::Not,
                Box::new(self.nested(Parser::unary_expr)?),
            ));
        }
        self.primary()
    }

    fn primary(&mut self) -> PResult<Expr> {
        match self.bump() {
            Token::Int(v) => Ok(Expr::Int(v)),
            Token::Float(v) => Ok(Expr::Float(v)),
            Token::LParen => {
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                if *self.peek() == Token::LParen {
                    self.bump();
                    let args = self.call_args()?;
                    return Ok(Expr::Call(name, args));
                }
                let mut idx = Vec::new();
                while self.eat(&Token::LBracket) {
                    idx.push(self.expr()?);
                    self.expect(Token::RBracket)?;
                }
                if idx.is_empty() {
                    Ok(Expr::Var(name))
                } else {
                    Ok(Expr::Index(name, idx))
                }
            }
            other => Err(ParseError(format!(
                "line {}: expected expression, found `{other}`",
                self.line()
            ))),
        }
    }

    fn call_args(&mut self) -> PResult<Vec<Expr>> {
        let mut args = Vec::new();
        if self.eat(&Token::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if self.eat(&Token::Comma) {
                continue;
            }
            self.expect(Token::RParen)?;
            return Ok(args);
        }
    }

    // ----- statements ---------------------------------------------------

    fn lvalue(&mut self) -> PResult<LValue> {
        let name = self.ident()?;
        let mut idx = Vec::new();
        while self.eat(&Token::LBracket) {
            idx.push(self.expr()?);
            self.expect(Token::RBracket)?;
        }
        if idx.is_empty() {
            Ok(LValue::Var(name))
        } else {
            Ok(LValue::Index(name, idx))
        }
    }

    /// Assignment, increment or call — without the trailing `;`.
    fn simple_stmt(&mut self) -> PResult<Stmt> {
        // Call statement: ident '(' ...
        if let Token::Ident(name) = self.peek().clone() {
            if self.toks.get(self.pos + 1).map(|t| &t.0) == Some(&Token::LParen) {
                self.bump();
                self.bump();
                let args = self.call_args()?;
                return Ok(Stmt::Call(name, args));
            }
        }
        let target = self.lvalue()?;
        let op = match self.bump() {
            Token::Assign => AssignOp::Set,
            Token::PlusAssign => AssignOp::Add,
            Token::MinusAssign => AssignOp::Sub,
            Token::StarAssign => AssignOp::Mul,
            Token::SlashAssign => AssignOp::Div,
            Token::PlusPlus => {
                return Ok(Stmt::Assign {
                    target,
                    op: AssignOp::Add,
                    value: Expr::Int(1),
                })
            }
            Token::MinusMinus => {
                return Ok(Stmt::Assign {
                    target,
                    op: AssignOp::Sub,
                    value: Expr::Int(1),
                })
            }
            other => {
                return Err(ParseError(format!(
                    "line {}: expected assignment operator, found `{other}`",
                    self.line()
                )))
            }
        };
        let value = self.expr()?;
        Ok(Stmt::Assign { target, op, value })
    }

    /// `for` header step clause: `i++`, `i--`, `i += k`, `i -= k`, `i = i + k`.
    fn for_step(&mut self, var: &str) -> PResult<i64> {
        let name = self.ident()?;
        if name != var {
            return Err(ParseError(format!(
                "line {}: for-loop step must update `{var}`, found `{name}`",
                self.line()
            )));
        }
        let bad = |l: usize| {
            ParseError(format!(
                "line {l}: for-loop step must be a constant additive update"
            ))
        };
        match self.bump() {
            Token::PlusPlus => Ok(1),
            Token::MinusMinus => Ok(-1),
            Token::PlusAssign => self.expr()?.const_int().ok_or_else(|| bad(self.line())),
            Token::MinusAssign => self
                .expr()?
                .const_int()
                .map(|v| -v)
                .ok_or_else(|| bad(self.line())),
            Token::Assign => {
                // i = i + k  or  i = i - k
                let e = self.expr()?;
                match e {
                    Expr::Binary(BinOp::Add, a, b) if *a == Expr::Var(var.to_string()) => {
                        b.const_int().ok_or_else(|| bad(self.line()))
                    }
                    Expr::Binary(BinOp::Sub, a, b) if *a == Expr::Var(var.to_string()) => {
                        b.const_int().map(|v| -v).ok_or_else(|| bad(self.line()))
                    }
                    _ => Err(bad(self.line())),
                }
            }
            _ => Err(bad(self.line())),
        }
    }

    fn body(&mut self) -> PResult<Vec<Stmt>> {
        if self.eat(&Token::LBrace) {
            let mut stmts = Vec::new();
            while !self.eat(&Token::RBrace) {
                if *self.peek() == Token::Eof {
                    return Err(ParseError(format!("line {}: unclosed block", self.line())));
                }
                stmts.push(self.stmt()?);
            }
            Ok(stmts)
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        self.nested(Parser::any_stmt)
    }

    fn any_stmt(&mut self) -> PResult<Stmt> {
        if self.is_kw("par") {
            self.bump();
            self.expect(Token::LBrace)?;
            let mut stmts = Vec::new();
            while !self.eat(&Token::RBrace) {
                if *self.peek() == Token::Eof {
                    return Err(ParseError(format!(
                        "line {}: unclosed par block",
                        self.line()
                    )));
                }
                stmts.push(self.stmt()?);
            }
            return Ok(Stmt::Par(stmts));
        }
        if self.is_kw("if") {
            self.bump();
            self.expect(Token::LParen)?;
            let cond = self.expr()?;
            self.expect(Token::RParen)?;
            let then_branch = self.body()?;
            let else_branch = if self.is_kw("else") {
                self.bump();
                self.body()?
            } else {
                vec![]
            };
            return Ok(Stmt::If {
                cond,
                then_branch,
                else_branch,
            });
        }
        if self.is_kw("for") {
            self.bump();
            self.expect(Token::LParen)?;
            let var = self.ident()?;
            self.expect(Token::Assign)?;
            let init = self.expr()?;
            self.expect(Token::Semi)?;
            let cvar = self.ident()?;
            if cvar != var {
                return Err(ParseError(format!(
                    "line {}: for-loop condition must test `{var}`",
                    self.line()
                )));
            }
            let cmp = self.cmp_op().ok_or_else(|| {
                ParseError(format!(
                    "line {}: for-loop condition must be a comparison",
                    self.line()
                ))
            })?;
            self.bump();
            let bound = self.expr()?;
            self.expect(Token::Semi)?;
            let step = self.for_step(&var)?;
            self.expect(Token::RParen)?;
            let body = self.body()?;
            return Ok(Stmt::For(ForLoop {
                var,
                init,
                cmp,
                bound,
                step,
                body,
            }));
        }
        if self.is_kw("while") {
            self.bump();
            self.expect(Token::LParen)?;
            let cond = self.expr()?;
            self.expect(Token::RParen)?;
            let body = self.body()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.is_kw("break") {
            self.bump();
            self.expect(Token::Semi)?;
            return Ok(Stmt::Break);
        }
        if *self.peek() == Token::LBrace {
            self.bump();
            let mut stmts = Vec::new();
            while !self.eat(&Token::RBrace) {
                if *self.peek() == Token::Eof {
                    return Err(ParseError(format!("line {}: unclosed block", self.line())));
                }
                stmts.push(self.stmt()?);
            }
            return Ok(Stmt::Block(stmts));
        }
        let s = self.simple_stmt()?;
        self.expect(Token::Semi)?;
        Ok(s)
    }

    fn ty(&mut self) -> Option<Ty> {
        match self.peek() {
            Token::Ident(s) if s == "int" => Some(Ty::Int),
            Token::Ident(s) if s == "float" || s == "double" => Some(Ty::Float),
            _ => None,
        }
    }

    fn decl_group(&mut self, ty: Ty, out: &mut Vec<Decl>) -> PResult<()> {
        loop {
            let name = self.ident()?;
            let mut dims = Vec::new();
            while self.eat(&Token::LBracket) {
                let d = self.expr()?.const_int().ok_or_else(|| {
                    ParseError(format!(
                        "line {}: array dimension must be a constant",
                        self.line()
                    ))
                })?;
                if d <= 0 {
                    return Err(ParseError(format!(
                        "line {}: array dimension must be positive",
                        self.line()
                    )));
                }
                dims.push(d as usize);
                self.expect(Token::RBracket)?;
            }
            out.push(Decl { name, ty, dims });
            if self.eat(&Token::Comma) {
                continue;
            }
            self.expect(Token::Semi)?;
            return Ok(());
        }
    }

    fn program(&mut self) -> PResult<Program> {
        let mut p = Program::new();
        while *self.peek() != Token::Eof {
            if let Some(ty) = self.ty() {
                self.bump();
                self.decl_group(ty, &mut p.decls)?;
            } else {
                p.stmts.push(self.stmt()?);
            }
        }
        Ok(p)
    }
}

/// Parse a complete program (declarations + statements).
///
/// ```
/// use slc_ast::{parse_program, to_source};
///
/// let p = parse_program("float A[8]; int i; for (i = 0; i < 8; i++) A[i] = i * 2;").unwrap();
/// assert_eq!(p.decls.len(), 2);
/// // printing and re-parsing round-trips
/// assert_eq!(parse_program(&to_source(&p)).unwrap(), p);
/// ```
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    Parser::new(src)?.program()
}

/// Parse a statement list (no declarations). Handy in tests.
pub fn parse_stmts(src: &str) -> Result<Vec<Stmt>, ParseError> {
    let mut p = Parser::new(src)?;
    let mut stmts = Vec::new();
    while *p.peek() != Token::Eof {
        stmts.push(p.stmt()?);
    }
    Ok(stmts)
}

/// Parse a single expression.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(src)?;
    let e = p.expr()?;
    if *p.peek() != Token::Eof {
        return Err(ParseError(format!(
            "line {}: trailing input after expression",
            p.line()
        )));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        assert_eq!(e.const_int(), Some(7));
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert_eq!(e.const_int(), Some(9));
    }

    #[test]
    fn comparison_binds_looser_than_arith() {
        let e = parse_expr("a + 1 < b * 2").unwrap();
        match e {
            Expr::Binary(BinOp::Cmp(CmpOp::Lt), _, _) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn ternary() {
        let e = parse_expr("a < b ? x : y").unwrap();
        assert!(matches!(e, Expr::Select(..)));
    }

    #[test]
    fn for_loop_forms() {
        for src in [
            "for (i = 0; i < n; i++) x = 1;",
            "for (i = 0; i < n; i += 2) x = 1;",
            "for (i = n; i > 0; i--) x = 1;",
            "for (i = 0; i < n; i = i + 1) x = 1;",
            "for (i = n; i >= 0; i = i - 3) x = 1;",
        ] {
            let s = parse_stmts(src).unwrap();
            assert!(matches!(s[0], Stmt::For(_)), "failed: {src}");
        }
    }

    #[test]
    fn for_step_values() {
        let s = parse_stmts("for (i = 0; i < n; i += 2) x = 1;").unwrap();
        if let Stmt::For(f) = &s[0] {
            assert_eq!(f.step, 2);
        } else {
            panic!()
        }
        let s = parse_stmts("for (i = n; i >= 0; i = i - 3) x = 1;").unwrap();
        if let Stmt::For(f) = &s[0] {
            assert_eq!(f.step, -3);
        } else {
            panic!()
        }
    }

    #[test]
    fn compound_assignment_and_incr() {
        let s = parse_stmts("a[i] += x; b--; c *= 2;").unwrap();
        assert_eq!(s.len(), 3);
        assert!(matches!(
            s[1],
            Stmt::Assign {
                op: AssignOp::Sub,
                ..
            }
        ));
    }

    #[test]
    fn if_else_and_par() {
        let s = parse_stmts("if (x < y) { x = x + 1; } else y = y + 1;").unwrap();
        assert!(matches!(&s[0], Stmt::If { else_branch, .. } if else_branch.len() == 1));
        let s = parse_stmts("par { a = 1; b = 2; }").unwrap();
        assert!(matches!(&s[0], Stmt::Par(v) if v.len() == 2));
    }

    #[test]
    fn declarations() {
        let p = parse_program("float A[10][20]; int i, j, k; double z;").unwrap();
        assert_eq!(p.decls.len(), 5);
        assert_eq!(p.decl("A").unwrap().dims, vec![10, 20]);
        assert_eq!(p.decl("j").unwrap().ty, Ty::Int);
        assert_eq!(p.decl("z").unwrap().ty, Ty::Float);
    }

    #[test]
    fn rejects_nonconstant_dimension() {
        assert!(parse_program("float A[n];").is_err());
        assert!(parse_program("float A[0];").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        // run on a thread with the default spawned-thread stack, like a
        // daemon request worker
        std::thread::spawn(|| {
            let parens = |n: usize| format!("x = {}1{};", "(".repeat(n), ")".repeat(n));
            assert!(parse_stmts(&parens(MAX_DEPTH - 2)).is_ok());
            for deep in [
                parens(MAX_DEPTH),
                parens(3000),
                format!("x = {}1;", "- ".repeat(3000)),
                format!("x = {}y;", "!".repeat(3000)),
                format!("{}x = 1;{}", "{".repeat(3000), "}".repeat(3000)),
                format!("{}x = 1;", "if (c) ".repeat(3000)),
                format!("x = {}0{};", "a[".repeat(3000), "]".repeat(3000)),
                format!("x = a{};", " + a".repeat(3000)),
                format!("x = a{};", " * a".repeat(3000)),
                format!("x = c{};", " && c".repeat(3000)),
            ] {
                let err = parse_stmts(&deep).unwrap_err();
                assert!(err.0.contains("nesting deeper"), "{err}");
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn rejects_malformed_for() {
        assert!(parse_stmts("for (i = 0; j < n; i++) x = 1;").is_err());
        assert!(parse_stmts("for (i = 0; i < n; j++) x = 1;").is_err());
        assert!(parse_stmts("for (i = 0; i < n; i *= 2) x = 1;").is_err());
    }

    #[test]
    fn call_stmt_and_expr() {
        let s = parse_stmts("f(x, A[i]); y = g();").unwrap();
        assert!(matches!(&s[0], Stmt::Call(n, a) if n == "f" && a.len() == 2));
        assert!(matches!(
            &s[1],
            Stmt::Assign {
                value: Expr::Call(_, _),
                ..
            }
        ));
    }

    #[test]
    fn while_and_break() {
        let s = parse_stmts("while (a[i + 2]) { a[i] = a[i + 2]; i++; break; }").unwrap();
        assert!(matches!(&s[0], Stmt::While { body, .. } if body.len() == 3));
    }

    #[test]
    fn error_reports_line() {
        let err = parse_stmts("x = 1;\ny = ;").unwrap_err();
        assert!(err.0.contains("line 2"), "got: {err}");
    }
}
