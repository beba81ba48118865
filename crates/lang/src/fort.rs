//! The Fort front end: a small Fortran-77-flavoured language.
//!
//! ```text
//! INTEGER FUNCTION SUMUP(A, N)
//!   INTEGER A(*)
//!   INTEGER N, I, S
//!   S = 0
//!   DO I = 1, N
//!     S = S + A(I)
//!   ENDDO
//!   SUMUP = S
//!   RETURN
//! END
//! ```
//!
//! Supported constructs: `PROGRAM` / `INTEGER FUNCTION` / `REAL FUNCTION` /
//! `SUBROUTINE` units ended by `END`; `INTEGER` / `REAL` declarations
//! (scalars, local arrays `A(100)` and array parameters `A(*)`); 1-based
//! array indexing `A(I)`; counted `DO var = from, to [, step]` … `ENDDO`;
//! `DO WHILE (cond)` … `ENDDO`; block `IF (cond) THEN … [ELSE …] ENDIF`;
//! `CALL sub(args)`; `RETURN`; `EXIT` / `CYCLE`; dotted operators `.GT.`
//! `.GE.` `.LT.` `.LE.` `.EQ.` `.NE.` `.AND.` `.OR.` `.NOT.`; intrinsic
//! `ABS(x)`, casts `INT(e)` / `REAL(e)`; `!` comments. Statements are
//! line-oriented; identifiers and keywords are case-insensitive.
//!
//! A function's return value is set by assigning to the function name, as in
//! Fortran; the parser desugars this to an ordinary local plus explicit
//! returns.

use esp_ir::Lang;

use crate::ast::{BinOp, Expr, FuncDecl, LValue, Module, Stmt, Type, UnOp};
use crate::error::ParseError;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    /// Single-character punctuation or a dotted operator spelled as text
    /// (`.gt.` → `>` etc. are mapped during lexing).
    Punct(&'static str),
    Newline,
    Eof,
}

fn lex(src: &str) -> Result<Vec<(Tok, u32)>, ParseError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut line = 1u32;
    while pos < b.len() {
        let c = b[pos];
        if c == b'\n' {
            // Collapse repeated newlines.
            if !matches!(out.last(), Some((Tok::Newline, _)) | None) {
                out.push((Tok::Newline, line));
            }
            line += 1;
            pos += 1;
            continue;
        }
        if c.is_ascii_whitespace() {
            pos += 1;
            continue;
        }
        if c == b'!' {
            while pos < b.len() && b[pos] != b'\n' {
                pos += 1;
            }
            continue;
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = pos;
            while pos < b.len() && (b[pos].is_ascii_alphanumeric() || b[pos] == b'_') {
                pos += 1;
            }
            let s = std::str::from_utf8(&b[start..pos])
                .expect("ascii ident")
                .to_ascii_lowercase();
            out.push((Tok::Ident(s), line));
            continue;
        }
        if c.is_ascii_digit() {
            let start = pos;
            while pos < b.len() && b[pos].is_ascii_digit() {
                pos += 1;
            }
            // A digit followed by `.` is a float UNLESS the dot starts a
            // dotted operator (`1.GT.` never happens since operands are
            // spaced; still, require a digit after the dot).
            if pos + 1 < b.len() && b[pos] == b'.' && b[pos + 1].is_ascii_digit() {
                pos += 1;
                while pos < b.len() && b[pos].is_ascii_digit() {
                    pos += 1;
                }
                let s = std::str::from_utf8(&b[start..pos]).expect("ascii number");
                let v: f64 = s
                    .parse()
                    .map_err(|_| ParseError::new(line, format!("bad float literal `{s}`")))?;
                out.push((Tok::Float(v), line));
            } else if pos < b.len() && b[pos] == b'.' && !is_dotted_op_at(b, pos) {
                // `1.` style float literal
                pos += 1;
                let s = std::str::from_utf8(&b[start..pos]).expect("ascii number");
                let v: f64 = s[..s.len() - 1]
                    .parse()
                    .map_err(|_| ParseError::new(line, format!("bad float literal `{s}`")))?;
                out.push((Tok::Float(v), line));
            } else {
                let s = std::str::from_utf8(&b[start..pos]).expect("ascii number");
                let v: i64 = s
                    .parse()
                    .map_err(|_| ParseError::new(line, format!("bad integer literal `{s}`")))?;
                out.push((Tok::Int(v), line));
            }
            continue;
        }
        if c == b'.' {
            // Dotted operator.
            let ops: &[(&str, &'static str)] = &[
                (".gt.", ">"),
                (".ge.", ">="),
                (".lt.", "<"),
                (".le.", "<="),
                (".eq.", "=="),
                (".ne.", "!="),
                (".and.", "&&"),
                (".or.", "||"),
                (".not.", "!"),
            ];
            let rest = &src[pos..];
            let lower = rest
                .get(..6.min(rest.len()))
                .unwrap_or("")
                .to_ascii_lowercase();
            let mut matched = false;
            for (txt, p) in ops {
                if lower.starts_with(txt) {
                    out.push((Tok::Punct(p), line));
                    pos += txt.len();
                    matched = true;
                    break;
                }
            }
            if matched {
                continue;
            }
            return Err(ParseError::new(line, "stray `.`"));
        }
        let puncts: &[&'static str] = &["+", "-", "*", "/", "(", ")", ",", "="];
        let mut matched = false;
        for p in puncts {
            if src[pos..].starts_with(p) {
                out.push((Tok::Punct(p), line));
                pos += p.len();
                matched = true;
                break;
            }
        }
        if matched {
            continue;
        }
        return Err(ParseError::new(
            line,
            format!("unexpected character `{}`", c as char),
        ));
    }
    if !matches!(out.last(), Some((Tok::Newline, _)) | None) {
        out.push((Tok::Newline, line));
    }
    out.push((Tok::Eof, line));
    Ok(out)
}

/// Whether `b[pos..]` starts a dotted operator like `.gt.`.
fn is_dotted_op_at(b: &[u8], pos: usize) -> bool {
    for op in [
        ".gt.", ".ge.", ".lt.", ".le.", ".eq.", ".ne.", ".and.", ".or.", ".not.",
    ] {
        if b.len() >= pos + op.len() && b[pos..pos + op.len()].eq_ignore_ascii_case(op.as_bytes()) {
            return true;
        }
    }
    false
}

struct Parser {
    toks: Vec<(Tok, u32)>,
    pos: usize,
    /// Set inside a FUNCTION unit: (function name, its type), so that
    /// `name = expr` assigns the return slot and `RETURN` returns it.
    ret_var: Option<(String, Type)>,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
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

    fn eat_punct(&mut self, p: &'static str) -> bool {
        if *self.peek() == Tok::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &'static str) -> Result<(), ParseError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {:?}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expect_newline(&mut self) -> Result<(), ParseError> {
        match self.bump() {
            Tok::Newline | Tok::Eof => Ok(()),
            other => Err(self.err(format!("expected end of statement, found {other:?}"))),
        }
    }

    fn skip_newlines(&mut self) {
        while *self.peek() == Tok::Newline {
            self.bump();
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    fn parse_module(&mut self, name: &str) -> Result<Module, ParseError> {
        let mut funcs = Vec::new();
        self.skip_newlines();
        while *self.peek() != Tok::Eof {
            funcs.push(self.parse_unit()?);
            self.skip_newlines();
        }
        Ok(Module {
            name: name.to_string(),
            funcs,
        })
    }

    /// One program unit: PROGRAM / [INTEGER|REAL] FUNCTION / SUBROUTINE … END
    fn parse_unit(&mut self) -> Result<FuncDecl, ParseError> {
        if self.eat_kw("program") {
            let _unit_name = self.expect_ident()?;
            self.expect_newline()?;
            self.ret_var = None;
            let body = self.parse_stmts_until(&["end"])?;
            self.expect_kw("end")?;
            self.expect_newline()?;
            return Ok(FuncDecl {
                name: "main".to_string(),
                params: Vec::new(),
                ret: None,
                body,
                lang: Lang::Fort,
            });
        }
        if self.eat_kw("subroutine") {
            let name = self.expect_ident()?;
            let params = self.parse_param_names()?;
            self.expect_newline()?;
            self.ret_var = None;
            let (body, params) = self.parse_unit_body(params, None)?;
            return Ok(FuncDecl {
                name,
                params,
                ret: None,
                body,
                lang: Lang::Fort,
            });
        }
        let ret_ty = if self.eat_kw("integer") {
            Type::Int
        } else if self.eat_kw("real") {
            Type::Float
        } else {
            return Err(self.err(format!(
                "expected PROGRAM, SUBROUTINE or typed FUNCTION, found {:?}",
                self.peek()
            )));
        };
        self.expect_kw("function")?;
        let name = self.expect_ident()?;
        let params = self.parse_param_names()?;
        self.expect_newline()?;
        self.ret_var = Some((name.clone(), ret_ty));
        let (mut body, params) = self.parse_unit_body(params, Some((name.clone(), ret_ty)))?;
        // Declare the return slot at the very top.
        body.insert(
            0,
            Stmt::Let {
                name: name.clone(),
                ty: ret_ty,
                init: None,
            },
        );
        // Falling off END returns the slot.
        body.push(Stmt::Return(Some(Expr::Var(name.clone()))));
        Ok(FuncDecl {
            name,
            params,
            ret: Some(ret_ty),
            body,
            lang: Lang::Fort,
        })
    }

    fn parse_param_names(&mut self) -> Result<Vec<String>, ParseError> {
        let mut names = Vec::new();
        if self.eat_punct("(") && !self.eat_punct(")") {
            loop {
                names.push(self.expect_ident()?);
                if self.eat_punct(")") {
                    break;
                }
                self.expect_punct(",")?;
            }
        }
        Ok(names)
    }

    /// Parse declarations + executable statements until `END`, resolving the
    /// parameter types from the declaration lines (Fortran declares parameter
    /// types in the body).
    #[allow(clippy::type_complexity)]
    fn parse_unit_body(
        &mut self,
        param_names: Vec<String>,
        _fn_ret: Option<(String, Type)>,
    ) -> Result<(Vec<Stmt>, Vec<(String, Type)>), ParseError> {
        let body = self.parse_stmts_until(&["end"])?;
        self.expect_kw("end")?;
        self.expect_newline()?;

        // Pull parameter declarations out of the body.
        let mut param_types: Vec<Option<Type>> = vec![None; param_names.len()];
        let mut kept = Vec::with_capacity(body.len());
        for st in body {
            if let Stmt::Let {
                ref name,
                ty,
                init: None,
            } = st
            {
                if let Some(i) = param_names.iter().position(|p| p == name) {
                    param_types[i] = Some(ty);
                    continue; // parameter decl, not a local
                }
            }
            kept.push(st);
        }
        let params = param_names
            .into_iter()
            .zip(param_types)
            .map(|(n, t)| {
                t.map(|t| (n.clone(), t)).ok_or_else(|| {
                    ParseError::new(0, format!("parameter `{n}` was never declared"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((kept, params))
    }

    /// Parse statements until one of the given closing keywords is the next
    /// token (the keyword is not consumed).
    fn parse_stmts_until(&mut self, until: &[&str]) -> Result<Vec<Stmt>, ParseError> {
        let mut out = Vec::new();
        loop {
            self.skip_newlines();
            if *self.peek() == Tok::Eof {
                return Err(self.err("unexpected end of file inside a block"));
            }
            if until.iter().any(|k| self.at_kw(k)) {
                return Ok(out);
            }
            self.parse_stmt_into(&mut out)?;
        }
    }

    /// Parse one statement; declarations with multiple names push several
    /// `Let`s.
    fn parse_stmt_into(&mut self, out: &mut Vec<Stmt>) -> Result<(), ParseError> {
        // Declarations: INTEGER a, b(10), c  /  REAL x(*)
        if self.at_kw("integer") || self.at_kw("real") {
            let base = if self.eat_kw("integer") {
                Type::Int
            } else {
                self.expect_kw("real")?;
                Type::Float
            };
            loop {
                let name = self.expect_ident()?;
                if self.eat_punct("(") {
                    // Array: `(N)` local with constant-or-expr length or
                    // `(*)` assumed-size parameter.
                    if self.eat_punct("*") {
                        self.expect_punct(")")?;
                        let pty = if base == Type::Int {
                            Type::PtrInt
                        } else {
                            Type::PtrFloat
                        };
                        out.push(Stmt::Let {
                            name,
                            ty: pty,
                            init: None,
                        });
                    } else {
                        let len = self.parse_expr()?;
                        self.expect_punct(")")?;
                        let pty = if base == Type::Int {
                            Type::PtrInt
                        } else {
                            Type::PtrFloat
                        };
                        out.push(Stmt::Let {
                            name,
                            ty: pty,
                            init: Some(Expr::Alloc(base, Box::new(len))),
                        });
                    }
                } else {
                    out.push(Stmt::Let {
                        name,
                        ty: base,
                        init: None,
                    });
                }
                if !self.eat_punct(",") {
                    break;
                }
            }
            return self.expect_newline();
        }

        if self.at_kw("do") {
            out.push(self.parse_do()?);
            return Ok(());
        }
        if self.at_kw("if") {
            out.push(self.parse_if()?);
            return Ok(());
        }
        if self.eat_kw("call") {
            let name = self.expect_ident()?;
            let mut args = Vec::new();
            if self.eat_punct("(") && !self.eat_punct(")") {
                loop {
                    args.push(self.parse_expr()?);
                    if self.eat_punct(")") {
                        break;
                    }
                    self.expect_punct(",")?;
                }
            }
            self.expect_newline()?;
            out.push(Stmt::ExprStmt(Expr::Call(name, args)));
            return Ok(());
        }
        if self.eat_kw("return") {
            self.expect_newline()?;
            let ret = match &self.ret_var {
                Some((name, _)) => Stmt::Return(Some(Expr::Var(name.clone()))),
                None => Stmt::Return(None),
            };
            out.push(ret);
            return Ok(());
        }
        if self.eat_kw("exit") {
            self.expect_newline()?;
            out.push(Stmt::Break);
            return Ok(());
        }
        if self.eat_kw("cycle") {
            self.expect_newline()?;
            out.push(Stmt::Continue);
            return Ok(());
        }

        // Assignment: lvalue = expr
        let name = self.expect_ident()?;
        let lv = if self.eat_punct("(") {
            let idx = self.parse_expr()?;
            self.expect_punct(")")?;
            // Fortran arrays are 1-based; normalise to word offsets here.
            LValue::Index(
                Box::new(Expr::Var(name)),
                Box::new(Expr::Bin(BinOp::Sub, Box::new(idx), Box::new(Expr::Int(1)))),
            )
        } else {
            LValue::Var(name)
        };
        self.expect_punct("=")?;
        let rhs = self.parse_expr()?;
        self.expect_newline()?;
        out.push(Stmt::Assign(lv, rhs));
        Ok(())
    }

    /// `DO var = from, to [, step]` … `ENDDO` or `DO WHILE (cond)` … `ENDDO`.
    fn parse_do(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("do")?;
        if self.eat_kw("while") {
            self.expect_punct("(")?;
            let cond = self.parse_expr()?;
            self.expect_punct(")")?;
            self.expect_newline()?;
            let body = self.parse_stmts_until(&["enddo"])?;
            self.expect_kw("enddo")?;
            self.expect_newline()?;
            return Ok(Stmt::While { cond, body });
        }
        let var = self.expect_ident()?;
        self.expect_punct("=")?;
        let from = self.parse_expr()?;
        self.expect_punct(",")?;
        let to = self.parse_expr()?;
        let step = if self.eat_punct(",") {
            let neg = self.eat_punct("-");
            match self.bump() {
                Tok::Int(k) if k > 0 => {
                    if neg {
                        -k
                    } else {
                        k
                    }
                }
                other => {
                    return Err(self.err(format!("expected constant DO step, found {other:?}")))
                }
            }
        } else {
            1
        };
        self.expect_newline()?;
        let body = self.parse_stmts_until(&["enddo"])?;
        self.expect_kw("enddo")?;
        self.expect_newline()?;
        Ok(Stmt::For {
            var,
            from,
            to,
            step,
            body,
        })
    }

    /// `IF (cond) THEN … [ELSE …] ENDIF` or one-line `IF (cond) <stmt>`.
    fn parse_if(&mut self) -> Result<Stmt, ParseError> {
        self.expect_kw("if")?;
        self.expect_punct("(")?;
        let cond = self.parse_expr()?;
        self.expect_punct(")")?;
        if self.eat_kw("then") {
            self.expect_newline()?;
            let then_blk = self.parse_stmts_until(&["else", "elseif", "endif"])?;
            let else_blk = if self.eat_kw("elseif") {
                // Re-enter as a nested IF: rewind is awkward, so parse the
                // rest of the ELSEIF as a fresh IF whose keyword we already
                // consumed.
                self.expect_punct("(")?;
                let c2 = self.parse_expr()?;
                self.expect_punct(")")?;
                self.expect_kw("then")?;
                self.expect_newline()?;
                let t2 = self.parse_stmts_until(&["else", "elseif", "endif"])?;
                let e2 = if self.eat_kw("else") {
                    self.expect_newline()?;
                    let e = self.parse_stmts_until(&["endif"])?;
                    self.expect_kw("endif")?;
                    self.expect_newline()?;
                    e
                } else {
                    self.expect_kw("endif")?;
                    self.expect_newline()?;
                    Vec::new()
                };
                vec![Stmt::If {
                    cond: c2,
                    then_blk: t2,
                    else_blk: e2,
                }]
            } else if self.eat_kw("else") {
                self.expect_newline()?;
                let e = self.parse_stmts_until(&["endif"])?;
                self.expect_kw("endif")?;
                self.expect_newline()?;
                e
            } else {
                self.expect_kw("endif")?;
                self.expect_newline()?;
                Vec::new()
            };
            Ok(Stmt::If {
                cond,
                then_blk,
                else_blk,
            })
        } else {
            // One-line IF: the remainder of the line is a single statement.
            let mut one = Vec::new();
            self.parse_stmt_into(&mut one)?;
            Ok(Stmt::If {
                cond,
                then_blk: one,
                else_blk: Vec::new(),
            })
        }
    }

    // Expression grammar mirrors Cee's precedence.
    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
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
        self.parse_primary()
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
            Tok::Ident(s) if s == "abs" => {
                self.expect_punct("(")?;
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(Expr::Un(UnOp::Abs, Box::new(e)))
            }
            Tok::Ident(s) if s == "int" => {
                self.expect_punct("(")?;
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(Expr::Cast(Type::Int, Box::new(e)))
            }
            Tok::Ident(s) if s == "real" => {
                self.expect_punct("(")?;
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(Expr::Cast(Type::Float, Box::new(e)))
            }
            Tok::Ident(s) if s == "mod" => {
                self.expect_punct("(")?;
                let a = self.parse_expr()?;
                self.expect_punct(",")?;
                let b = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(Expr::Bin(BinOp::Rem, Box::new(a), Box::new(b)))
            }
            Tok::Ident(name) => {
                if self.eat_punct("(") {
                    // Array index or function call — disambiguated later by
                    // the type checker; syntactically we treat a single
                    // argument as *either*, so we build `Index` here and let
                    // the checker rewrite it into a call when `name` is a
                    // function. Multi-argument forms are always calls.
                    let first = self.parse_expr()?;
                    if self.eat_punct(")") {
                        // 1-based index normalised to a word offset.
                        Ok(Expr::Index(
                            Box::new(Expr::Var(name)),
                            Box::new(Expr::Bin(
                                BinOp::Sub,
                                Box::new(first),
                                Box::new(Expr::Int(1)),
                            )),
                        ))
                    } else {
                        self.expect_punct(",")?;
                        let mut args = vec![first];
                        loop {
                            args.push(self.parse_expr()?);
                            if self.eat_punct(")") {
                                break;
                            }
                            self.expect_punct(",")?;
                        }
                        Ok(Expr::Call(name, args))
                    }
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

/// Parse Fort source text into a [`Module`].
///
/// Single-argument `name(e)` forms are parsed as array indexing; the type
/// checker rewrites them into calls when `name` resolves to a function (the
/// classic Fortran ambiguity).
///
/// # Errors
///
/// Returns a [`ParseError`] with the failing line on malformed input.
pub fn parse(name: &str, src: &str) -> Result<Module, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        ret_var: None,
    };
    p.parse_module(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_function_with_do_loop() {
        let m = parse(
            "t",
            r#"
            INTEGER FUNCTION SUMUP(A, N)
              INTEGER A(*)
              INTEGER N, I, S
              S = 0
              DO I = 1, N
                S = S + A(I)
              ENDDO
              SUMUP = S
              RETURN
            END
            "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        assert_eq!(f.name, "sumup");
        assert_eq!(
            f.params,
            vec![("a".into(), Type::PtrInt), ("n".into(), Type::Int)]
        );
        assert_eq!(f.ret, Some(Type::Int));
        assert_eq!(f.lang, Lang::Fort);
        // body[0] is the injected return-slot declaration
        assert!(matches!(&f.body[0], Stmt::Let { name, .. } if name == "sumup"));
        // explicit RETURN became Return(Var(sumup))
        assert!(f
            .body
            .iter()
            .any(|s| matches!(s, Stmt::Return(Some(Expr::Var(n))) if n == "sumup")));
    }

    #[test]
    fn program_unit_becomes_main() {
        let m = parse(
            "t",
            r#"
            PROGRAM DEMO
              INTEGER I
              I = 0
              DO WHILE (I .LT. 5)
                I = I + 1
              ENDDO
            END
            "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        assert_eq!(f.name, "main");
        assert!(f.params.is_empty());
        assert!(matches!(&f.body[2], Stmt::While { .. }));
    }

    #[test]
    fn if_then_else_and_one_line_if() {
        let m = parse(
            "t",
            r#"
            INTEGER FUNCTION SGN(X)
              INTEGER X
              IF (X .GT. 0) THEN
                SGN = 1
              ELSE
                SGN = 0 - 1
              ENDIF
              IF (X .EQ. 0) SGN = 0
              RETURN
            END
            "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        let ifs: Vec<&Stmt> = f
            .body
            .iter()
            .filter(|s| matches!(s, Stmt::If { .. }))
            .collect();
        assert_eq!(ifs.len(), 2);
        if let Stmt::If { else_blk, .. } = ifs[0] {
            assert_eq!(else_blk.len(), 1);
        }
        if let Stmt::If { else_blk, .. } = ifs[1] {
            assert!(else_blk.is_empty());
        }
    }

    #[test]
    fn arrays_are_one_based() {
        let m = parse(
            "t",
            r#"
            PROGRAM P
              REAL X(10)
              X(1) = 2.5
            END
            "#,
        )
        .unwrap();
        match &m.funcs[0].body[1] {
            Stmt::Assign(LValue::Index(_, idx), _) => {
                // index is (1 - 1)
                assert!(matches!(**idx, Expr::Bin(BinOp::Sub, _, _)));
            }
            other => panic!("expected indexed assign, got {other:?}"),
        }
    }

    #[test]
    fn call_and_subroutine() {
        let m = parse(
            "t",
            r#"
            SUBROUTINE TWIDDLE(A, N)
              INTEGER A(*)
              INTEGER N
              A(1) = N
              RETURN
            END
            PROGRAM P
              INTEGER B(5)
              CALL TWIDDLE(B, 3)
            END
            "#,
        )
        .unwrap();
        assert_eq!(m.funcs.len(), 2);
        assert_eq!(m.funcs[0].ret, None);
        assert!(matches!(
            &m.funcs[1].body[1],
            Stmt::ExprStmt(Expr::Call(n, args)) if n == "twiddle" && args.len() == 2
        ));
    }

    #[test]
    fn dotted_operators_and_intrinsics() {
        let m = parse(
            "t",
            r#"
            PROGRAM P
              REAL X
              INTEGER OK
              X = ABS(0.0 - 2.5)
              OK = (X .GE. 2.0) .AND. (X .LE. 3.0)
              IF (.NOT. OK) THEN
                OK = MOD(7, 2)
              ENDIF
            END
            "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        assert!(f
            .body
            .iter()
            .any(|s| matches!(s, Stmt::Assign(_, Expr::Bin(BinOp::And, _, _)))));
    }

    #[test]
    fn exit_and_cycle() {
        let m = parse(
            "t",
            r#"
            PROGRAM P
              INTEGER I
              DO I = 1, 10
                IF (I .EQ. 3) CYCLE
                IF (I .EQ. 7) EXIT
              ENDDO
            END
            "#,
        )
        .unwrap();
        let f = &m.funcs[0];
        let Stmt::For { body, .. } = &f.body[1] else {
            panic!("expected DO loop");
        };
        assert!(matches!(&body[0], Stmt::If { then_blk, .. } if then_blk[0] == Stmt::Continue));
        assert!(matches!(&body[1], Stmt::If { then_blk, .. } if then_blk[0] == Stmt::Break));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("t", "PROGRAM P\n X = @\nEND\n").is_err());
        assert!(parse("t", "FUNCTION NOTYPE(X)\nEND\n").is_err());
        // parameter never declared
        assert!(parse("t", "SUBROUTINE S(A)\nRETURN\nEND\n").is_err());
    }

    #[test]
    fn case_insensitive_keywords() {
        let m = parse("t", "program p\ninteger i\ni = 1\nend\n").unwrap();
        assert_eq!(m.funcs[0].name, "main");
    }

    #[test]
    fn downward_do_loop() {
        let m = parse(
            "t",
            "PROGRAM P\nINTEGER I, S\nS = 0\nDO I = 10, 1, -1\nS = S + I\nENDDO\nEND\n",
        )
        .unwrap();
        let Stmt::For { step, .. } = &m.funcs[0].body[3] else {
            panic!("expected DO");
        };
        assert_eq!(*step, -1);
    }
}
