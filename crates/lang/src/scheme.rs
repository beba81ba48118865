//! A small Scheme front end, compiled *through C* — the reproduction of the
//! paper's "Scheme-to-C" pipeline (§3.1.2).
//!
//! The paper applied the Ball–Larus heuristics to three Scheme programs
//! (`boyer`, `corewar`, `sccomp`, "all compiled with the Scheme-to-C
//! compiler") and found the Return heuristic missing 56% and the Pointer
//! heuristic 89% of the time: in a language where recursion is the iteration
//! mechanism and cons-cell traversal ends in a *successful* null check,
//! C-bred intuitions invert. This front end lets the reproduction stage the
//! same experiment.
//!
//! Supported forms:
//!
//! ```text
//! (define (name arg ...) body ... )          ; last body expression is returned
//! (if c t e)   (let ((x e) ...) body ...)    (begin e ...)
//! (+ a b) (- a b) (* a b) (quotient a b) (modulo a b)
//! (< a b) (<= a b) (> a b) (>= a b) (= a b)
//! (and a b) (or a b) (not a)
//! (cons a d) (car p) (cdr p) (null? p) 'nil
//! integer literals, variables, calls (name a ...)
//! ```
//!
//! Every Scheme value is machine-word sized: integers are themselves, the
//! empty list `'nil` is the null pointer, and a cons cell is a pointer to
//! two heap words — exactly the untyped representation a 1990s Scheme-to-C
//! compiler produced. All generated functions carry `Lang::C`, because that
//! is what the binary-level study would see.

use esp_ir::Lang;

use crate::ast::{BinOp, Expr, FuncDecl, LValue, Module, Stmt, Type, UnOp};
use crate::error::ParseError;

// ---------------------------------------------------------------------------
// S-expression reader
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Sexp {
    Int(i64),
    Sym(String),
    List(Vec<Sexp>),
}

fn read_all(src: &str) -> Result<Vec<Sexp>, ParseError> {
    let mut toks = Vec::new();
    let mut line = 1u32;
    let b = src.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b';' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' | b')' => {
                toks.push((String::from_utf8_lossy(&b[i..i + 1]).to_string(), line));
                i += 1;
            }
            b'\'' => {
                toks.push(("'".to_string(), line));
                i += 1;
            }
            _ => {
                let start = i;
                while i < b.len()
                    && !b[i].is_ascii_whitespace()
                    && b[i] != b'('
                    && b[i] != b')'
                    && b[i] != b';'
                {
                    i += 1;
                }
                toks.push((String::from_utf8_lossy(&b[start..i]).to_string(), line));
            }
        }
    }

    let mut pos = 0usize;
    let mut out = Vec::new();
    while pos < toks.len() {
        out.push(parse_sexp(&toks, &mut pos)?);
    }
    Ok(out)
}

fn parse_sexp(toks: &[(String, u32)], pos: &mut usize) -> Result<Sexp, ParseError> {
    let Some((tok, line)) = toks.get(*pos) else {
        return Err(ParseError::new(0, "unexpected end of input"));
    };
    *pos += 1;
    match tok.as_str() {
        "(" => {
            let mut items = Vec::new();
            loop {
                match toks.get(*pos) {
                    Some((t, _)) if t == ")" => {
                        *pos += 1;
                        return Ok(Sexp::List(items));
                    }
                    Some(_) => items.push(parse_sexp(toks, pos)?),
                    None => return Err(ParseError::new(*line, "unclosed `(`")),
                }
            }
        }
        ")" => Err(ParseError::new(*line, "unexpected `)`")),
        "'" => {
            // only 'nil (the empty list) is supported
            let quoted = parse_sexp(toks, pos)?;
            match quoted {
                Sexp::Sym(s) if s == "nil" || s == "()" => Ok(Sexp::Sym("nil".to_string())),
                other => Err(ParseError::new(
                    *line,
                    format!("only 'nil may be quoted, found {other:?}"),
                )),
            }
        }
        t => {
            if let Ok(v) = t.parse::<i64>() {
                Ok(Sexp::Int(v))
            } else {
                Ok(Sexp::Sym(t.to_string()))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Translation to the shared AST (ANF-style: effects become statements)
// ---------------------------------------------------------------------------

struct Translator {
    /// Fresh-name counter for temporaries and renamed `let` bindings.
    fresh: u32,
    /// Lexical environment: source name → mangled AST name.
    scopes: Vec<Vec<(String, String)>>,
}

impl Translator {
    fn fresh_name(&mut self, stem: &str) -> String {
        self.fresh += 1;
        format!("__{stem}{}", self.fresh)
    }

    fn lookup(&self, name: &str) -> Option<String> {
        self.scopes.iter().rev().find_map(|s| {
            s.iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|(_, m)| m.clone())
        })
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(0, msg)
    }

    /// Translate an expression; statements carrying its effects are pushed
    /// to `out` and the returned [`Expr`] is effect-free.
    fn tr(&mut self, e: &Sexp, out: &mut Vec<Stmt>) -> Result<Expr, ParseError> {
        match e {
            Sexp::Int(v) => Ok(Expr::Int(*v)),
            Sexp::Sym(s) if s == "nil" => Ok(Expr::Int(0)),
            Sexp::Sym(s) => self
                .lookup(s)
                .map(Expr::Var)
                .ok_or_else(|| self.err(format!("unbound variable `{s}`"))),
            Sexp::List(items) => self.tr_list(items, out),
        }
    }

    fn tr_list(&mut self, items: &[Sexp], out: &mut Vec<Stmt>) -> Result<Expr, ParseError> {
        let Some(Sexp::Sym(head)) = items.first() else {
            return Err(self.err("expected an operator or function name"));
        };
        let args = &items[1..];
        let binop = |op: BinOp| -> Option<BinOp> { Some(op) };
        let simple = match head.as_str() {
            "+" => binop(BinOp::Add),
            "-" => binop(BinOp::Sub),
            "*" => binop(BinOp::Mul),
            "quotient" => binop(BinOp::Div),
            "modulo" => binop(BinOp::Rem),
            "<" => binop(BinOp::Lt),
            "<=" => binop(BinOp::Le),
            ">" => binop(BinOp::Gt),
            ">=" => binop(BinOp::Ge),
            "=" | "eq?" => binop(BinOp::Eq),
            "and" => binop(BinOp::And),
            "or" => binop(BinOp::Or),
            _ => None,
        };
        if let Some(op) = simple {
            if args.len() != 2 {
                return Err(self.err(format!("`{head}` takes 2 arguments")));
            }
            let a = self.tr(&args[0], out)?;
            let b = self.tr(&args[1], out)?;
            return Ok(Expr::Bin(op, Box::new(a), Box::new(b)));
        }
        match head.as_str() {
            "not" => {
                if args.len() != 1 {
                    return Err(self.err("`not` takes 1 argument"));
                }
                let a = self.tr(&args[0], out)?;
                Ok(Expr::Un(UnOp::Not, Box::new(a)))
            }
            "null?" => {
                if args.len() != 1 {
                    return Err(self.err("`null?` takes 1 argument"));
                }
                let a = self.tr(&args[0], out)?;
                // A genuine pointer comparison against null: the value is
                // cast to a pointer so the binary-level Pointer heuristic
                // sees what the Scheme-to-C compiler produced.
                Ok(Expr::Bin(
                    BinOp::Eq,
                    Box::new(Expr::Cast(Type::PtrInt, Box::new(a))),
                    Box::new(Expr::Null),
                ))
            }
            "cons" => {
                if args.len() != 2 {
                    return Err(self.err("`cons` takes 2 arguments"));
                }
                let car = self.tr(&args[0], out)?;
                let cdr = self.tr(&args[1], out)?;
                let cell = self.fresh_name("cell");
                out.push(Stmt::Let {
                    name: cell.clone(),
                    ty: Type::PtrInt,
                    init: Some(Expr::Alloc(Type::Int, Box::new(Expr::Int(2)))),
                });
                out.push(Stmt::Assign(
                    LValue::Index(Box::new(Expr::Var(cell.clone())), Box::new(Expr::Int(0))),
                    car,
                ));
                out.push(Stmt::Assign(
                    LValue::Index(Box::new(Expr::Var(cell.clone())), Box::new(Expr::Int(1))),
                    cdr,
                ));
                Ok(Expr::Var(cell))
            }
            "car" | "cdr" => {
                if args.len() != 1 {
                    return Err(self.err(format!("`{head}` takes 1 argument")));
                }
                let p = self.tr(&args[0], out)?;
                let off = if head == "car" { 0 } else { 1 };
                Ok(Expr::Index(
                    Box::new(Expr::Cast(Type::PtrInt, Box::new(p))),
                    Box::new(Expr::Int(off)),
                ))
            }
            "if" => {
                if args.len() != 3 {
                    return Err(self.err("`if` takes exactly 3 arguments"));
                }
                let cond = self.tr(&args[0], out)?;
                let result = self.fresh_name("if");
                out.push(Stmt::Let {
                    name: result.clone(),
                    ty: Type::Int,
                    init: None,
                });
                let mut then_blk = Vec::new();
                let tv = self.tr(&args[1], &mut then_blk)?;
                then_blk.push(Stmt::Assign(LValue::Var(result.clone()), tv));
                let mut else_blk = Vec::new();
                let ev = self.tr(&args[2], &mut else_blk)?;
                else_blk.push(Stmt::Assign(LValue::Var(result.clone()), ev));
                out.push(Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                });
                Ok(Expr::Var(result))
            }
            "let" => {
                let Some(Sexp::List(bindings)) = args.first() else {
                    return Err(self.err("`let` needs a binding list"));
                };
                self.scopes.push(Vec::new());
                for b in bindings {
                    let Sexp::List(pair) = b else {
                        return Err(self.err("malformed `let` binding"));
                    };
                    let [Sexp::Sym(name), init] = pair.as_slice() else {
                        return Err(self.err("malformed `let` binding"));
                    };
                    let init = self.tr(init, out)?;
                    let mangled = self.fresh_name("let");
                    out.push(Stmt::Let {
                        name: mangled.clone(),
                        ty: Type::Int,
                        init: Some(Expr::Cast(Type::Int, Box::new(init))),
                    });
                    self.scopes
                        .last_mut()
                        .expect("just pushed")
                        .push((name.clone(), mangled));
                }
                let mut last = Expr::Int(0);
                for body in &args[1..] {
                    last = self.tr(body, out)?;
                }
                self.scopes.pop();
                Ok(last)
            }
            "begin" => {
                let mut last = Expr::Int(0);
                for e in args {
                    last = self.tr(e, out)?;
                }
                Ok(last)
            }
            name => {
                // function call; materialise into a temp
                let mut actuals = Vec::new();
                for a in args {
                    actuals.push(self.tr(a, out)?);
                }
                let tmp = self.fresh_name("call");
                out.push(Stmt::Let {
                    name: tmp.clone(),
                    ty: Type::Int,
                    init: Some(Expr::Call(name.to_string(), actuals)),
                });
                Ok(Expr::Var(tmp))
            }
        }
    }
}

/// Parse and translate a Scheme program into the shared AST, as the
/// Scheme-to-C compiler would (every function tagged [`Lang::C`]).
///
/// The program must define `(define (main) …)`.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed s-expressions or unsupported forms.
pub fn parse(name: &str, src: &str) -> Result<Module, ParseError> {
    let tops = read_all(src)?;
    let mut funcs = Vec::new();
    for top in &tops {
        let Sexp::List(items) = top else {
            return Err(ParseError::new(0, "top level must be a `define`"));
        };
        let [Sexp::Sym(kw), Sexp::List(sig), body @ ..] = items.as_slice() else {
            return Err(ParseError::new(0, "top level must be `(define (f …) …)`"));
        };
        if kw != "define" || body.is_empty() {
            return Err(ParseError::new(
                0,
                "top level must be `(define (f …) body…)`",
            ));
        }
        let [Sexp::Sym(fname), params @ ..] = sig.as_slice() else {
            return Err(ParseError::new(0, "bad function signature"));
        };
        let mut tr = Translator {
            fresh: 0,
            scopes: vec![Vec::new()],
        };
        let mut decl_params = Vec::new();
        for p in params {
            let Sexp::Sym(pn) = p else {
                return Err(ParseError::new(0, "parameters must be symbols"));
            };
            // parameters keep their own names (unique per function)
            tr.scopes
                .last_mut()
                .expect("scope exists")
                .push((pn.clone(), pn.clone()));
            decl_params.push((pn.clone(), Type::Int));
        }
        let mut stmts = Vec::new();
        let mut last = Expr::Int(0);
        for e in body {
            last = tr.tr(e, &mut stmts)?;
        }
        stmts.push(Stmt::Return(Some(Expr::Cast(Type::Int, Box::new(last)))));
        funcs.push(FuncDecl {
            name: fname.clone(),
            params: decl_params,
            ret: Some(Type::Int),
            body: stmts,
            lang: Lang::C, // compiled through C, as in the paper
        });
    }
    Ok(Module {
        name: name.to_string(),
        funcs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{compile_module, CompilerConfig};

    fn run(src: &str) -> i64 {
        let module = parse("t", src).expect("parses");
        let prog = compile_module(module, &CompilerConfig::default()).expect("compiles");
        let out = esp_exec::run(&prog, &esp_exec::ExecLimits::default()).expect("runs");
        match out.ret {
            Some(esp_exec::Value::Int(v)) => v,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn arithmetic_and_if() {
        assert_eq!(run("(define (main) (+ 1 (* 2 3)))"), 7);
        assert_eq!(run("(define (main) (if (< 1 2) 10 20))"), 10);
        assert_eq!(run("(define (main) (if (not (< 1 2)) 10 20))"), 20);
    }

    #[test]
    fn recursion_is_iteration() {
        let src = r#"
            (define (fact n) (if (<= n 1) 1 (* n (fact (- n 1)))))
            (define (main) (fact 10))
        "#;
        assert_eq!(run(src), 3628800);
    }

    #[test]
    fn cons_car_cdr_and_null() {
        let src = r#"
            (define (len lst) (if (null? lst) 0 (+ 1 (len (cdr lst)))))
            (define (build n) (if (= n 0) 'nil (cons n (build (- n 1)))))
            (define (main) (len (build 17)))
        "#;
        assert_eq!(run(src), 17);
    }

    #[test]
    fn list_sum_via_recursion() {
        let src = r#"
            (define (build n) (if (= n 0) 'nil (cons n (build (- n 1)))))
            (define (sum lst) (if (null? lst) 0 (+ (car lst) (sum (cdr lst)))))
            (define (main) (sum (build 10)))
        "#;
        assert_eq!(run(src), 55);
    }

    #[test]
    fn let_and_begin() {
        let src = r#"
            (define (main)
              (let ((a 3) (b 4))
                (begin (+ a 0) (* a b))))
        "#;
        assert_eq!(run(src), 12);
    }

    #[test]
    fn let_shadowing_is_lexical() {
        let src = r#"
            (define (main)
              (let ((x 1))
                (+ (let ((x 10)) x) x)))
        "#;
        assert_eq!(run(src), 11);
    }

    #[test]
    fn and_or_short_circuit_protect_car() {
        let src = r#"
            (define (safe-head lst) (if (and (not (null? lst)) (> (car lst) 0)) (car lst) -1))
            (define (main) (+ (safe-head 'nil) (safe-head (cons 5 'nil))))
        "#;
        assert_eq!(run(src), 4);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("t", "(define (main) (").is_err());
        assert!(parse("t", "42").is_err());
        assert!(parse("t", "(define (main) (undefined-var))").is_ok()); // call site ok...
        let module = parse("t", "(define (main) nosuch)").unwrap_err();
        assert!(module.msg.contains("unbound"));
        assert!(
            parse("t", "(define (main) 'foo)").is_err(),
            "only 'nil quotable"
        );
    }
}
