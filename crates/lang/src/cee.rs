//! The Cee front end: a small C-like language.
//!
//! ```text
//! int sum(int *a, int n) {
//!     int s = 0;
//!     int i;
//!     for (i = 0; i < n; i = i + 1) {
//!         s = s + a[i];
//!     }
//!     return s;
//! }
//! ```
//!
//! Supported constructs: `int` / `float` scalars, `int*` / `float*` pointers,
//! local array declarations (`int a[10];`, sugar for an allocation),
//! `if`/`else`, `while`, `do … while`, canonical counted `for`, `switch`
//! (without fall-through), `break`/`continue`/`return`, short-circuit
//! `&&`/`||`, `fabs(e)`, `alloc_int(n)` / `alloc_float(n)`, `null`, casts
//! `(int) e`, `(float) e`, `(int*) e`, `(float*) e`, line comments `//`.

use esp_ir::Lang;

use crate::ast::{BinOp, Expr, FuncDecl, LValue, Module, Stmt, Type, UnOp};
use crate::error::ParseError;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Punct(&'static str),
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

const PUNCTS: &[&str] = &[
    "&&", "||", "==", "!=", "<=", ">=", "<", ">", "+", "-", "*", "/", "%", "=", ";", ",", "(", ")",
    "{", "}", "[", "]", ":", "!",
];

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn skip_ws(&mut self) {
        loop {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                if self.src[self.pos] == b'\n' {
                    self.line += 1;
                }
                self.pos += 1;
            }
            // line comments
            if self.pos + 1 < self.src.len()
                && self.src[self.pos] == b'/'
                && self.src[self.pos + 1] == b'/'
            {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn next(&mut self) -> Result<(Tok, u32), ParseError> {
        self.skip_ws();
        let line = self.line;
        if self.pos >= self.src.len() {
            return Ok((Tok::Eof, line));
        }
        let c = self.src[self.pos];
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = self.pos;
            while self.pos < self.src.len()
                && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
            {
                self.pos += 1;
            }
            let s = std::str::from_utf8(&self.src[start..self.pos])
                .expect("ascii ident")
                .to_string();
            return Ok((Tok::Ident(s), line));
        }
        if c.is_ascii_digit() {
            let start = self.pos;
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                self.pos += 1;
            }
            let is_float = self.pos + 1 < self.src.len()
                && self.src[self.pos] == b'.'
                && self.src[self.pos + 1].is_ascii_digit();
            if is_float {
                self.pos += 1;
                while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                let s = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii number");
                let v: f64 = s
                    .parse()
                    .map_err(|_| ParseError::new(line, format!("bad float literal `{s}`")))?;
                return Ok((Tok::Float(v), line));
            }
            let s = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii number");
            let v: i64 = s
                .parse()
                .map_err(|_| ParseError::new(line, format!("bad integer literal `{s}`")))?;
            return Ok((Tok::Int(v), line));
        }
        for p in PUNCTS {
            if self.src[self.pos..].starts_with(p.as_bytes()) {
                self.pos += p.len();
                return Ok((Tok::Punct(p), line));
            }
        }
        Err(ParseError::new(
            line,
            format!("unexpected character `{}`", c as char),
        ))
    }
}

fn lex(src: &str) -> Result<Vec<(Tok, u32)>, ParseError> {
    let mut lx = Lexer::new(src);
    let mut out = Vec::new();
    loop {
        let t = lx.next()?;
        let eof = t.0 == Tok::Eof;
        out.push(t);
        if eof {
            return Ok(out);
        }
    }
}

struct Parser {
    toks: Vec<(Tok, u32)>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].0
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(self.line(), msg)
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), ParseError> {
        if *self.peek() == Tok::Punct(p) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn eat_punct(&mut self, p: &'static str) -> bool {
        if *self.peek() == Tok::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        match self.bump() {
            Tok::Ident(s) if s == kw => Ok(()),
            other => Err(self.err(format!("expected `{kw}`, found {other:?}"))),
        }
    }

    /// A type name starts with `int` or `float`; an optional `*` makes it a
    /// pointer.
    fn try_type(&mut self) -> Option<Type> {
        let base = match self.peek() {
            Tok::Ident(s) if s == "int" => Type::Int,
            Tok::Ident(s) if s == "float" => Type::Float,
            _ => return None,
        };
        self.bump();
        if self.eat_punct("*") {
            Some(match base {
                Type::Int => Type::PtrInt,
                Type::Float => Type::PtrFloat,
                _ => unreachable!(),
            })
        } else {
            Some(base)
        }
    }

    fn parse_module(&mut self, name: &str) -> Result<Module, ParseError> {
        let mut funcs = Vec::new();
        while *self.peek() != Tok::Eof {
            funcs.push(self.parse_func()?);
        }
        Ok(Module {
            name: name.to_string(),
            funcs,
        })
    }

    fn parse_func(&mut self) -> Result<FuncDecl, ParseError> {
        let ret = match self.peek() {
            Tok::Ident(s) if s == "void" => {
                self.bump();
                None
            }
            _ => Some(
                self.try_type()
                    .ok_or_else(|| self.err("expected return type"))?,
            ),
        };
        let name = self.expect_ident()?;
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            loop {
                let ty = self
                    .try_type()
                    .ok_or_else(|| self.err("expected parameter type"))?;
                let pname = self.expect_ident()?;
                params.push((pname, ty));
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        let body = self.parse_block()?;
        Ok(FuncDecl {
            name,
            params,
            ret,
            body,
            lang: Lang::C,
        })
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if *self.peek() == Tok::Eof {
                return Err(self.err("unexpected end of file in block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        // Declarations start with a type keyword.
        if matches!(self.peek(), Tok::Ident(s) if s == "int" || s == "float") {
            // Could still be a cast-expression statement, but casts appear in
            // parens, so a leading type keyword means a declaration.
            let ty = self.try_type().expect("checked type keyword");
            let name = self.expect_ident()?;
            // Array declaration sugar: `int a[10];`
            if self.eat_punct("[") {
                let len = self.parse_expr()?;
                self.expect_punct("]")?;
                self.expect_punct(";")?;
                let (pty, ety) = match ty {
                    Type::Int => (Type::PtrInt, Type::Int),
                    Type::Float => (Type::PtrFloat, Type::Float),
                    _ => return Err(self.err("array of pointers is not supported")),
                };
                return Ok(Stmt::Let {
                    name,
                    ty: pty,
                    init: Some(Expr::Alloc(ety, Box::new(len))),
                });
            }
            let init = if self.eat_punct("=") {
                Some(self.parse_expr()?)
            } else {
                None
            };
            self.expect_punct(";")?;
            return Ok(Stmt::Let { name, ty, init });
        }

        match self.peek().clone() {
            Tok::Ident(kw) if kw == "if" => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.parse_expr()?;
                self.expect_punct(")")?;
                let then_blk = self.parse_block()?;
                let else_blk = if matches!(self.peek(), Tok::Ident(s) if s == "else") {
                    self.bump();
                    if matches!(self.peek(), Tok::Ident(s) if s == "if") {
                        vec![self.parse_stmt()?]
                    } else {
                        self.parse_block()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                })
            }
            Tok::Ident(kw) if kw == "while" => {
                self.bump();
                self.expect_punct("(")?;
                let cond = self.parse_expr()?;
                self.expect_punct(")")?;
                let body = self.parse_block()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::Ident(kw) if kw == "do" => {
                self.bump();
                let body = self.parse_block()?;
                self.expect_kw("while")?;
                self.expect_punct("(")?;
                let cond = self.parse_expr()?;
                self.expect_punct(")")?;
                self.expect_punct(";")?;
                Ok(Stmt::DoWhile { body, cond })
            }
            Tok::Ident(kw) if kw == "for" => self.parse_for(),
            Tok::Ident(kw) if kw == "switch" => self.parse_switch(),
            Tok::Ident(kw) if kw == "return" => {
                self.bump();
                if self.eat_punct(";") {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.parse_expr()?;
                    self.expect_punct(";")?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            Tok::Ident(kw) if kw == "break" => {
                self.bump();
                self.expect_punct(";")?;
                Ok(Stmt::Break)
            }
            Tok::Ident(kw) if kw == "continue" => {
                self.bump();
                self.expect_punct(";")?;
                Ok(Stmt::Continue)
            }
            _ => {
                // Assignment or expression statement.
                let e = self.parse_expr()?;
                if self.eat_punct("=") {
                    let lv = match e {
                        Expr::Var(name) => LValue::Var(name),
                        Expr::Index(base, idx) => LValue::Index(base, idx),
                        _ => return Err(self.err("invalid assignment target")),
                    };
                    let rhs = self.parse_expr()?;
                    self.expect_punct(";")?;
                    Ok(Stmt::Assign(lv, rhs))
                } else {
                    self.expect_punct(";")?;
                    Ok(Stmt::ExprStmt(e))
                }
            }
        }
    }

    /// Canonical counted form:
    /// `for (i = e1; i <relop> e2; i = i <+|-> k) block`.
    fn parse_for(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("for")?;
        self.expect_punct("(")?;
        let var = self.expect_ident()?;
        self.expect_punct("=")?;
        let from = self.parse_expr()?;
        self.expect_punct(";")?;
        let v2 = self.expect_ident()?;
        if v2 != var {
            return Err(self.err("for-loop condition must test the induction variable"));
        }
        let relop = match self.bump() {
            Tok::Punct("<") => BinOp::Lt,
            Tok::Punct("<=") => BinOp::Le,
            Tok::Punct(">") => BinOp::Gt,
            Tok::Punct(">=") => BinOp::Ge,
            other => return Err(self.err(format!("expected relational operator, found {other:?}"))),
        };
        let bound = self.parse_expr()?;
        self.expect_punct(";")?;
        let v3 = self.expect_ident()?;
        if v3 != var {
            return Err(self.err("for-loop step must update the induction variable"));
        }
        self.expect_punct("=")?;
        let v4 = self.expect_ident()?;
        if v4 != var {
            return Err(self.err("for-loop step must be `i = i + k` or `i = i - k`"));
        }
        let negative = match self.bump() {
            Tok::Punct("+") => false,
            Tok::Punct("-") => true,
            other => return Err(self.err(format!("expected `+` or `-` in step, found {other:?}"))),
        };
        let k = match self.bump() {
            Tok::Int(k) if k > 0 => k,
            other => {
                return Err(self.err(format!("expected positive step constant, found {other:?}")))
            }
        };
        self.expect_punct(")")?;
        let body = self.parse_block()?;

        let step = if negative { -k } else { k };
        // Convert the exclusive bounds of `<` / `>` into the AST's inclusive
        // `to` field.
        let to = match relop {
            BinOp::Le | BinOp::Ge => bound,
            BinOp::Lt => Expr::Bin(BinOp::Sub, Box::new(bound), Box::new(Expr::Int(1))),
            BinOp::Gt => Expr::Bin(BinOp::Add, Box::new(bound), Box::new(Expr::Int(1))),
            _ => unreachable!(),
        };
        if (step > 0) != matches!(relop, BinOp::Lt | BinOp::Le) {
            return Err(self.err("for-loop step direction contradicts its condition"));
        }
        Ok(Stmt::For {
            var,
            from,
            to,
            step,
            body,
        })
    }

    fn parse_switch(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("switch")?;
        self.expect_punct("(")?;
        let selector = self.parse_expr()?;
        self.expect_punct(")")?;
        self.expect_punct("{")?;
        let mut cases = Vec::new();
        let mut default = Vec::new();
        loop {
            match self.peek().clone() {
                Tok::Ident(s) if s == "case" => {
                    self.bump();
                    let label = match self.bump() {
                        Tok::Int(v) => v,
                        other => {
                            return Err(self.err(format!("expected case label, found {other:?}")))
                        }
                    };
                    self.expect_punct(":")?;
                    let mut body = Vec::new();
                    while !matches!(self.peek(), Tok::Ident(s) if s == "case" || s == "default")
                        && *self.peek() != Tok::Punct("}")
                    {
                        body.push(self.parse_stmt()?);
                    }
                    cases.push((label, body));
                }
                Tok::Ident(s) if s == "default" => {
                    self.bump();
                    self.expect_punct(":")?;
                    while !matches!(self.peek(), Tok::Ident(s) if s == "case")
                        && *self.peek() != Tok::Punct("}")
                    {
                        default.push(self.parse_stmt()?);
                    }
                }
                Tok::Punct("}") => {
                    self.bump();
                    break;
                }
                other => return Err(self.err(format!("expected case or `}}`, found {other:?}"))),
            }
        }
        Ok(Stmt::Switch {
            selector,
            cases,
            default,
        })
    }

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_and()?;
        while self.eat_punct("||") {
            let r = self.parse_and()?;
            e = Expr::Bin(BinOp::Or, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_cmp()?;
        while self.eat_punct("&&") {
            let r = self.parse_cmp()?;
            e = Expr::Bin(BinOp::And, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn parse_cmp(&mut self) -> Result<Expr, ParseError> {
        let e = self.parse_add()?;
        let op = match self.peek() {
            Tok::Punct("==") => BinOp::Eq,
            Tok::Punct("!=") => BinOp::Ne,
            Tok::Punct("<") => BinOp::Lt,
            Tok::Punct("<=") => BinOp::Le,
            Tok::Punct(">") => BinOp::Gt,
            Tok::Punct(">=") => BinOp::Ge,
            _ => return Ok(e),
        };
        self.bump();
        let r = self.parse_add()?;
        Ok(Expr::Bin(op, Box::new(e), Box::new(r)))
    }

    fn parse_add(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("+") => BinOp::Add,
                Tok::Punct("-") => BinOp::Sub,
                _ => return Ok(e),
            };
            self.bump();
            let r = self.parse_mul()?;
            e = Expr::Bin(op, Box::new(e), Box::new(r));
        }
    }

    fn parse_mul(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Tok::Punct("*") => BinOp::Mul,
                Tok::Punct("/") => BinOp::Div,
                Tok::Punct("%") => BinOp::Rem,
                _ => return Ok(e),
            };
            self.bump();
            let r = self.parse_unary()?;
            e = Expr::Bin(op, Box::new(e), Box::new(r));
        }
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct("-") {
            let e = self.parse_unary()?;
            return Ok(Expr::Un(UnOp::Neg, Box::new(e)));
        }
        if self.eat_punct("!") {
            let e = self.parse_unary()?;
            return Ok(Expr::Un(UnOp::Not, Box::new(e)));
        }
        // Cast: `(` type `)` unary — requires two-token lookahead.
        if *self.peek() == Tok::Punct("(") {
            if let Tok::Ident(s) = self.peek2() {
                if s == "int" || s == "float" {
                    self.bump(); // (
                    let ty = self.try_type().expect("checked type keyword");
                    self.expect_punct(")")?;
                    let e = self.parse_unary()?;
                    return Ok(Expr::Cast(ty, Box::new(e)));
                }
            }
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.parse_primary()?;
        while self.eat_punct("[") {
            let idx = self.parse_expr()?;
            self.expect_punct("]")?;
            e = Expr::Index(Box::new(e), Box::new(idx));
        }
        Ok(e)
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.bump() {
            Tok::Int(v) => Ok(Expr::Int(v)),
            Tok::Float(v) => Ok(Expr::Float(v)),
            Tok::Punct("(") => {
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(s) if s == "null" => Ok(Expr::Null),
            Tok::Ident(s) if s == "fabs" => {
                self.expect_punct("(")?;
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(Expr::Un(UnOp::Abs, Box::new(e)))
            }
            Tok::Ident(s) if s == "alloc_int" || s == "alloc_float" => {
                let ty = if s == "alloc_int" {
                    Type::Int
                } else {
                    Type::Float
                };
                self.expect_punct("(")?;
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(Expr::Alloc(ty, Box::new(e)))
            }
            Tok::Ident(name) => {
                if self.eat_punct("(") {
                    let mut args = Vec::new();
                    if !self.eat_punct(")") {
                        loop {
                            args.push(self.parse_expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                    }
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

/// Parse Cee source text into a [`Module`].
///
/// # Errors
///
/// Returns a [`ParseError`] with the failing line on malformed input.
pub fn parse(name: &str, src: &str) -> Result<Module, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    p.parse_module(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sum_function() {
        let m = parse(
            "t",
            r#"
            int sum(int *a, int n) {
                int s = 0;
                int i;
                for (i = 0; i < n; i = i + 1) {
                    s = s + a[i];
                }
                return s;
            }
            "#,
        )
        .unwrap();
        assert_eq!(m.funcs.len(), 1);
        let f = &m.funcs[0];
        assert_eq!(f.name, "sum");
        assert_eq!(
            f.params,
            vec![("a".into(), Type::PtrInt), ("n".into(), Type::Int)]
        );
        assert_eq!(f.ret, Some(Type::Int));
        // for-loop with exclusive bound becomes inclusive `to = n - 1`
        match &f.body[2] {
            Stmt::For { var, step, to, .. } => {
                assert_eq!(var, "i");
                assert_eq!(*step, 1);
                assert!(matches!(to, Expr::Bin(BinOp::Sub, _, _)));
            }
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn parses_pointer_idioms() {
        let m = parse(
            "t",
            r#"
            int find(int *p, int key) {
                while (p != null && p[0] != key) {
                    p = (int*) p[1];
                }
                if (p == null) { return 0 - 1; }
                return p[0];
            }
            "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        match &f.body[0] {
            Stmt::While { cond, .. } => {
                assert!(matches!(cond, Expr::Bin(BinOp::And, _, _)));
            }
            other => panic!("expected while, got {other:?}"),
        }
    }

    #[test]
    fn parses_switch_and_float() {
        let m = parse(
            "t",
            r#"
            float dispatch(int op, float x) {
                float r = 0.0;
                switch (op) {
                    case 0: r = x + 1.5;
                    case 1: r = fabs(x);
                    default: r = 0.25;
                }
                return r;
            }
            "#,
        )
        .unwrap();
        match &m.funcs[0].body[1] {
            Stmt::Switch { cases, default, .. } => {
                assert_eq!(cases.len(), 2);
                assert_eq!(cases[0].0, 0);
                assert_eq!(default.len(), 1);
            }
            other => panic!("expected switch, got {other:?}"),
        }
    }

    #[test]
    fn parses_array_decl_as_alloc() {
        let m = parse("t", "void f() { int a[10]; a[0] = 1; }").unwrap();
        match &m.funcs[0].body[0] {
            Stmt::Let { ty, init, .. } => {
                assert_eq!(*ty, Type::PtrInt);
                assert!(matches!(init, Some(Expr::Alloc(Type::Int, _))));
            }
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn parses_do_while_and_else_if() {
        let m = parse(
            "t",
            r#"
            int f(int n) {
                int i = 0;
                do { i = i + 1; } while (i < n);
                if (i > 10) { return 1; } else if (i > 5) { return 2; } else { return 3; }
            }
            "#,
        )
        .unwrap();
        assert!(matches!(m.funcs[0].body[1], Stmt::DoWhile { .. }));
        match &m.funcs[0].body[2] {
            Stmt::If { else_blk, .. } => assert!(matches!(else_blk[0], Stmt::If { .. })),
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("t", "int f( {").is_err());
        assert!(parse("t", "int f() { return @; }").is_err());
        assert!(parse("t", "int f() { for (i = 0; j < 10; i = i + 1) {} }").is_err());
        assert!(parse("t", "int f() { for (i = 0; i < 10; i = i - 1) {} }").is_err());
    }

    #[test]
    fn line_numbers_in_errors() {
        let err = parse("t", "int f() {\n  return $;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn comments_are_skipped() {
        let m = parse("t", "// header\nint f() { // body\n return 1; }").unwrap();
        assert_eq!(m.funcs.len(), 1);
    }
}
