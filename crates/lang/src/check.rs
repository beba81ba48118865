//! Semantic analysis: scope resolution, type checking, and resolution of the
//! Fortran `name(e)` call-vs-index ambiguity.
//!
//! The checker is a transforming pass: it rewrites ambiguous
//! [`Expr::Index`] nodes into [`Expr::Call`]s when the base resolves to a
//! function rather than an array variable, so later phases see a fully
//! resolved AST.

use std::collections::HashMap;

use crate::ast::{BinOp, Expr, FuncDecl, LValue, Module, Stmt, Type, UnOp};
use crate::error::TypeError;

/// Function signature table.
#[derive(Debug, Clone)]
pub struct Signatures {
    sigs: HashMap<String, (Vec<Type>, Option<Type>)>,
}

impl Signatures {
    /// Collect signatures from a module.
    pub fn of(module: &Module) -> Self {
        let sigs = module
            .funcs
            .iter()
            .map(|f| {
                (
                    f.name.clone(),
                    (f.params.iter().map(|(_, t)| *t).collect(), f.ret),
                )
            })
            .collect();
        Signatures { sigs }
    }

    /// Look up `(param types, return type)` of a function.
    pub fn get(&self, name: &str) -> Option<&(Vec<Type>, Option<Type>)> {
        self.sigs.get(name)
    }
}

struct Scopes {
    stack: Vec<HashMap<String, Type>>,
}

impl Scopes {
    fn new() -> Self {
        Scopes {
            stack: vec![HashMap::new()],
        }
    }

    fn push(&mut self) {
        self.stack.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.stack.pop();
    }

    fn lookup(&self, name: &str) -> Option<Type> {
        self.stack.iter().rev().find_map(|s| s.get(name).copied())
    }

    /// Declare a name; shadowing (in any enclosing scope) is rejected to keep
    /// the lowering environment simple and the generated corpus unambiguous.
    fn declare(&mut self, name: &str, ty: Type) -> Result<(), String> {
        if self.lookup(name).is_some() {
            return Err(format!("`{name}` is already declared"));
        }
        self.stack
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), ty);
        Ok(())
    }
}

/// Whether a value of type `src` may be assigned to a slot of type `dst`.
///
/// Integers and pointers are mutually assignable (addresses are integers at
/// this level, as on the machines the paper studied); floats only match
/// floats.
pub fn assignable(dst: Type, src: Type) -> bool {
    dst == src || (dst.is_intlike() && src.is_intlike())
}

struct Checker {
    sigs: Signatures,
    func: String,
    ret: Option<Type>,
    scopes: Scopes,
    loop_depth: usize,
}

impl Checker {
    fn err(&self, msg: impl Into<String>) -> TypeError {
        TypeError::new(&self.func, msg)
    }

    fn check_stmts(&mut self, stmts: &mut [Stmt]) -> Result<(), TypeError> {
        self.scopes.push();
        for s in stmts.iter_mut() {
            self.check_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &mut Stmt) -> Result<(), TypeError> {
        match stmt {
            Stmt::Let { name, ty, init } => {
                if let Some(e) = init {
                    let et = self.check_expr(e)?;
                    if !assignable(*ty, et) {
                        return Err(self.err(format!(
                            "cannot initialise `{name}` of type {ty:?} with {et:?}"
                        )));
                    }
                }
                self.scopes.declare(name, *ty).map_err(|m| self.err(m))?;
                Ok(())
            }
            Stmt::Assign(lv, rhs) => {
                let rt = self.check_expr(rhs)?;
                let lt = self.check_lvalue(lv)?;
                if !assignable(lt, rt) {
                    return Err(self.err(format!("cannot assign {rt:?} to {lt:?} target")));
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let ct = self.check_expr(cond)?;
                if !ct.is_intlike() {
                    return Err(self.err("condition must be integer-compatible"));
                }
                self.check_stmts(then_blk)?;
                self.check_stmts(else_blk)
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                let ct = self.check_expr(cond)?;
                if !ct.is_intlike() {
                    return Err(self.err("loop condition must be integer-compatible"));
                }
                self.loop_depth += 1;
                let r = self.check_stmts(body);
                self.loop_depth -= 1;
                r
            }
            Stmt::For {
                var,
                from,
                to,
                step,
                body,
            } => {
                match self.scopes.lookup(var) {
                    Some(Type::Int) => {}
                    Some(other) => {
                        return Err(self.err(format!(
                            "induction variable `{var}` must be Int, is {other:?}"
                        )))
                    }
                    None => return Err(self.err(format!("undeclared induction variable `{var}`"))),
                }
                if *step == 0 {
                    return Err(self.err("loop step must be nonzero"));
                }
                let ft = self.check_expr(from)?;
                let tt = self.check_expr(to)?;
                if !ft.is_intlike() || !tt.is_intlike() {
                    return Err(self.err("loop bounds must be integer-compatible"));
                }
                self.loop_depth += 1;
                let r = self.check_stmts(body);
                self.loop_depth -= 1;
                r
            }
            Stmt::Switch {
                selector,
                cases,
                default,
            } => {
                let st = self.check_expr(selector)?;
                if !st.is_intlike() {
                    return Err(self.err("switch selector must be integer-compatible"));
                }
                let mut seen = std::collections::HashSet::new();
                for (label, body) in cases.iter_mut() {
                    if !seen.insert(*label) {
                        return Err(self.err(format!("duplicate case label {label}")));
                    }
                    self.check_stmts(body)?;
                }
                self.check_stmts(default)
            }
            Stmt::Return(e) => match (self.ret, e) {
                (None, None) => Ok(()),
                (Some(rt), Some(e)) => {
                    let et = self.check_expr(e)?;
                    if !assignable(rt, et) {
                        Err(self.err(format!("return type mismatch: {et:?} vs {rt:?}")))
                    } else {
                        Ok(())
                    }
                }
                (None, Some(_)) => Err(self.err("void function returns a value")),
                (Some(_), None) => Err(self.err("non-void function returns nothing")),
            },
            Stmt::Break | Stmt::Continue => {
                if self.loop_depth == 0 {
                    Err(self.err("break/continue outside a loop"))
                } else {
                    Ok(())
                }
            }
            Stmt::ExprStmt(e) => {
                // Resolve Fortran ambiguity first so `CALL`-less value calls
                // in statement position work too.
                self.check_expr_allow_void(e)?;
                Ok(())
            }
        }
    }

    fn check_lvalue(&mut self, lv: &mut LValue) -> Result<Type, TypeError> {
        match lv {
            LValue::Var(name) => self
                .scopes
                .lookup(name)
                .ok_or_else(|| self.err(format!("assignment to undeclared `{name}`"))),
            LValue::Index(base, idx) => {
                let bt = self.check_expr(base)?;
                let it = self.check_expr(idx)?;
                if !it.is_intlike() {
                    return Err(self.err("index must be integer-compatible"));
                }
                bt.elem()
                    .ok_or_else(|| self.err(format!("indexed store into non-pointer {bt:?}")))
            }
        }
    }

    fn check_expr(&mut self, e: &mut Expr) -> Result<Type, TypeError> {
        let t = self.check_expr_allow_void(e)?;
        t.ok_or_else(|| self.err("void call used as a value"))
    }

    /// Check an expression; `None` means "void" (a call to a subroutine).
    fn check_expr_allow_void(&mut self, e: &mut Expr) -> Result<Option<Type>, TypeError> {
        match e {
            Expr::Int(_) => Ok(Some(Type::Int)),
            Expr::Float(_) => Ok(Some(Type::Float)),
            Expr::Null => Ok(Some(Type::PtrInt)),
            Expr::Var(name) => match self.scopes.lookup(name) {
                Some(t) => Ok(Some(t)),
                None => Err(self.err(format!("undeclared variable `{name}`"))),
            },
            Expr::Un(op, inner) => {
                let t = self.check_expr(inner)?;
                match op {
                    UnOp::Neg => {
                        if t == Type::Float || t == Type::Int {
                            Ok(Some(t))
                        } else {
                            Err(self.err("negation needs Int or Float"))
                        }
                    }
                    UnOp::Not => {
                        if t.is_intlike() {
                            Ok(Some(Type::Int))
                        } else {
                            Err(self.err("logical not needs an integer"))
                        }
                    }
                    UnOp::Abs => {
                        if t == Type::Float {
                            Ok(Some(Type::Float))
                        } else {
                            Err(self.err("abs needs a Float"))
                        }
                    }
                }
            }
            Expr::Bin(op, a, b) => {
                let ta = self.check_expr(a)?;
                let tb = self.check_expr(b)?;
                match op {
                    BinOp::Add | BinOp::Sub => match (ta, tb) {
                        (Type::Float, Type::Float) => Ok(Some(Type::Float)),
                        (pa, Type::Int) if pa.is_ptr() => Ok(Some(pa)),
                        (Type::Int, pb) if pb.is_ptr() && *op == BinOp::Add => Ok(Some(pb)),
                        (a, b) if a.is_intlike() && b.is_intlike() => Ok(Some(Type::Int)),
                        _ => Err(self.err(format!("cannot apply {op:?} to {ta:?} and {tb:?}"))),
                    },
                    BinOp::Mul | BinOp::Div => match (ta, tb) {
                        (Type::Float, Type::Float) => Ok(Some(Type::Float)),
                        (Type::Int, Type::Int) => Ok(Some(Type::Int)),
                        _ => Err(self.err(format!("cannot apply {op:?} to {ta:?} and {tb:?}"))),
                    },
                    BinOp::Rem => {
                        if ta == Type::Int && tb == Type::Int {
                            Ok(Some(Type::Int))
                        } else {
                            Err(self.err("remainder needs two integers"))
                        }
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        let ok = (ta == Type::Float && tb == Type::Float)
                            || (ta.is_intlike() && tb.is_intlike());
                        if ok {
                            Ok(Some(Type::Int))
                        } else {
                            Err(self.err(format!("cannot compare {ta:?} with {tb:?}")))
                        }
                    }
                    BinOp::And | BinOp::Or => {
                        if ta.is_intlike() && tb.is_intlike() {
                            Ok(Some(Type::Int))
                        } else {
                            Err(self.err("logical operators need integers"))
                        }
                    }
                }
            }
            Expr::Index(base, idx) => {
                // Fortran ambiguity: `f(e)` parsed as Index(Var(f), e - 1)
                // where `f` is actually a function. Rewrite into a call with
                // the original (un-shifted) argument.
                if let Expr::Var(name) = base.as_ref() {
                    if self.scopes.lookup(name).is_none() && self.sigs.get(name).is_some() {
                        let name = name.clone();
                        let arg = unshift_index(idx);
                        *e = Expr::Call(name, vec![arg]);
                        return self.check_expr_allow_void(e);
                    }
                }
                let bt = self.check_expr(base)?;
                let it = self.check_expr(idx)?;
                if !it.is_intlike() {
                    return Err(self.err("index must be integer-compatible"));
                }
                match bt.elem() {
                    Some(t) => Ok(Some(t)),
                    None => Err(self.err(format!("indexing into non-pointer {bt:?}"))),
                }
            }
            Expr::Call(name, args) => {
                let (ptys, ret) = self
                    .sigs
                    .get(name)
                    .cloned()
                    .ok_or_else(|| self.err(format!("call to unknown function `{name}`")))?;
                if ptys.len() != args.len() {
                    return Err(self.err(format!(
                        "`{name}` takes {} arguments, got {}",
                        ptys.len(),
                        args.len()
                    )));
                }
                for (pt, a) in ptys.iter().zip(args.iter_mut()) {
                    let at = self.check_expr(a)?;
                    if !assignable(*pt, at) {
                        return Err(self.err(format!("argument to `{name}`: {at:?} vs {pt:?}")));
                    }
                }
                Ok(ret)
            }
            Expr::Alloc(ty, len) => {
                let lt = self.check_expr(len)?;
                if !lt.is_intlike() {
                    return Err(self.err("allocation length must be integer-compatible"));
                }
                Ok(Some(match ty {
                    Type::Int => Type::PtrInt,
                    Type::Float => Type::PtrFloat,
                    _ => return Err(self.err("can only allocate Int or Float arrays")),
                }))
            }
            Expr::Cast(ty, inner) => {
                let it = self.check_expr(inner)?;
                let ok = match ty {
                    Type::Int => true, // float->int truncation or ptr->int
                    Type::Float => true,
                    Type::PtrInt | Type::PtrFloat => it.is_intlike(),
                };
                if ok {
                    Ok(Some(*ty))
                } else {
                    Err(self.err(format!("invalid cast from {it:?} to {ty:?}")))
                }
            }
        }
    }
}

/// Undo the 1-based-to-0-based index shift the Fort parser applied, restoring
/// the original argument expression for a rewritten call.
fn unshift_index(idx: &Expr) -> Expr {
    if let Expr::Bin(BinOp::Sub, a, b) = idx {
        if **b == Expr::Int(1) {
            return (**a).clone();
        }
    }
    // The parser always emits the `- 1` form, so this is unreachable for
    // Fort input; be conservative and re-add 1 otherwise.
    Expr::Bin(BinOp::Add, Box::new(idx.clone()), Box::new(Expr::Int(1)))
}

fn check_func(f: &mut FuncDecl, sigs: &Signatures) -> Result<(), TypeError> {
    let mut ck = Checker {
        sigs: sigs.clone(),
        func: f.name.clone(),
        ret: f.ret,
        scopes: Scopes::new(),
        loop_depth: 0,
    };
    for (name, ty) in &f.params {
        ck.scopes
            .declare(name, *ty)
            .map_err(|m| TypeError::new(&f.name, m))?;
    }
    let func_name = f.name.clone();
    let mut body = std::mem::take(&mut f.body);
    let result = ck.check_stmts(&mut body);
    f.body = body;
    result.map_err(|e| TypeError::new(func_name, e.msg))
}

/// Type-check (and resolve) a module in place.
///
/// # Errors
///
/// Returns the first [`TypeError`] found: undeclared or doubly-declared
/// variables, type mismatches, bad arities, `break` outside a loop, a
/// missing or mis-declared `main`, and so on.
pub fn check(module: &mut Module) -> Result<(), TypeError> {
    let sigs = Signatures::of(module);
    {
        let mut names = std::collections::HashSet::new();
        for f in &module.funcs {
            if !names.insert(f.name.clone()) {
                return Err(TypeError::new(&f.name, "duplicate function definition"));
            }
        }
    }
    match module.func("main") {
        Some(m) if m.params.is_empty() => {}
        Some(_) => return Err(TypeError::new("main", "main must take no parameters")),
        None => return Err(TypeError::new("main", "program has no main function")),
    }
    for f in module.funcs.iter_mut() {
        check_func(f, &sigs)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cee;
    use crate::fort;

    fn check_cee(src: &str) -> Result<Module, TypeError> {
        let mut m = cee::parse("t", src).expect("parse");
        check(&mut m)?;
        Ok(m)
    }

    #[test]
    fn accepts_well_typed_program() {
        check_cee(
            r#"
            int helper(int x) { return x * 2; }
            int main() {
                int a[8];
                int i;
                for (i = 0; i < 8; i = i + 1) { a[i] = helper(i); }
                return a[3];
            }
            "#,
        )
        .unwrap();
    }

    #[test]
    fn rejects_type_mismatches() {
        // float + int
        assert!(
            check_cee("int main() { float x = 1.0; int y = 2; x = x + y; return 0; }").is_err()
        );
        // float condition
        assert!(check_cee("int main() { float x = 1.0; if (x) { } return 0; }").is_err());
        // indexing a scalar
        assert!(check_cee("int main() { int x = 1; return x[0]; }").is_err());
        // int returned from void
        assert!(check_cee("void f() { return 1; } int main() { return 0; }").is_err());
    }

    #[test]
    fn rejects_scope_errors() {
        assert!(check_cee("int main() { return z; }").is_err());
        assert!(check_cee("int main() { int x = 1; int x = 2; return x; }").is_err());
        assert!(check_cee("int main() { break; return 0; }").is_err());
        assert!(check_cee("int f() { return 0; }").is_err(), "missing main");
    }

    #[test]
    fn rejects_bad_calls() {
        assert!(check_cee("int main() { return nope(1); }").is_err());
        assert!(
            check_cee("int f(int a, int b) { return a; } int main() { return f(1); }").is_err()
        );
        assert!(check_cee("int f(float x) { return 0; } int main() { return f(1); }").is_err());
    }

    #[test]
    fn pointer_int_compatibility() {
        check_cee(
            r#"
            int main() {
                int *p = alloc_int(4);
                p[1] = 5;
                int *q = (int*) p[1];
                if (q == null || p != null) { return p[1]; }
                return 0;
            }
            "#,
        )
        .unwrap();
    }

    #[test]
    fn fort_ambiguity_resolved_to_call() {
        let mut m = fort::parse(
            "t",
            r#"
            INTEGER FUNCTION DBL(X)
              INTEGER X
              DBL = X * 2
              RETURN
            END
            PROGRAM P
              INTEGER Y
              Y = DBL(21)
            END
            "#,
        )
        .unwrap();
        check(&mut m).unwrap();
        let main = m.func("main").unwrap();
        // the assignment RHS must now be a Call with the original argument 21
        let found = main.body.iter().any(|s| {
            matches!(
                s,
                Stmt::Assign(_, Expr::Call(n, args))
                    if n == "dbl" && args == &vec![Expr::Int(21)]
            )
        });
        assert!(
            found,
            "ambiguous DBL(21) was not rewritten: {:?}",
            main.body
        );
    }

    #[test]
    fn fort_array_index_stays_index() {
        let mut m = fort::parse(
            "t",
            r#"
            PROGRAM P
              INTEGER A(4), Y
              A(2) = 7
              Y = A(2)
            END
            "#,
        )
        .unwrap();
        check(&mut m).unwrap();
        let main = m.func("main").unwrap();
        assert!(main
            .body
            .iter()
            .any(|s| matches!(s, Stmt::Assign(LValue::Var(_), Expr::Index(_, _)))));
    }

    #[test]
    fn switch_duplicate_labels_rejected() {
        assert!(check_cee(
            "int main() { int x = 1; switch (x) { case 1: x = 2; case 1: x = 3; } return x; }"
        )
        .is_err());
    }
}
