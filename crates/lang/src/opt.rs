//! AST-level optimizations: constant folding, loop rotation (inversion) and
//! loop unrolling.
//!
//! These are the passes whose effect on the *branch population* the paper's
//! cross-compiler study (§5.2.2, Table 7) turns on: the GEM compiler's loop
//! unrolling "inserted more forward branches and reduced the dynamic
//! frequency of loop edges", changing heuristic accuracy.

use crate::ast::{BinOp, Expr, LValue, Module, Stmt, Type, UnOp};

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

/// Fold constant sub-expressions throughout a module.
pub fn fold_module(module: &mut Module) {
    for f in module.funcs.iter_mut() {
        fold_stmts(&mut f.body);
    }
}

fn fold_stmts(stmts: &mut [Stmt]) {
    for s in stmts.iter_mut() {
        match s {
            Stmt::Let { init: Some(e), .. } => fold_expr(e),
            Stmt::Let { .. } => {}
            Stmt::Assign(lv, e) => {
                if let LValue::Index(b, i) = lv {
                    fold_expr(b);
                    fold_expr(i);
                }
                fold_expr(e);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                fold_expr(cond);
                fold_stmts(then_blk);
                fold_stmts(else_blk);
            }
            Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
                fold_expr(cond);
                fold_stmts(body);
            }
            Stmt::For { from, to, body, .. } => {
                fold_expr(from);
                fold_expr(to);
                fold_stmts(body);
            }
            Stmt::Switch {
                selector,
                cases,
                default,
            } => {
                fold_expr(selector);
                for (_, b) in cases.iter_mut() {
                    fold_stmts(b);
                }
                fold_stmts(default);
            }
            Stmt::Return(Some(e)) | Stmt::ExprStmt(e) => fold_expr(e),
            Stmt::Return(None) | Stmt::Break | Stmt::Continue => {}
        }
    }
}

fn fold_expr(e: &mut Expr) {
    match e {
        Expr::Un(op, inner) => {
            fold_expr(inner);
            let folded = match (&*op, inner.as_ref()) {
                (UnOp::Neg, Expr::Int(v)) => Some(Expr::Int(v.wrapping_neg())),
                (UnOp::Neg, Expr::Float(v)) => Some(Expr::Float(-v)),
                (UnOp::Not, Expr::Int(v)) => Some(Expr::Int((*v == 0) as i64)),
                (UnOp::Abs, Expr::Float(v)) => Some(Expr::Float(v.abs())),
                _ => None,
            };
            if let Some(f) = folded {
                *e = f;
            }
        }
        Expr::Bin(op, a, b) => {
            fold_expr(a);
            fold_expr(b);
            let folded = match (a.as_ref(), b.as_ref()) {
                (Expr::Int(x), Expr::Int(y)) => fold_int(*op, *x, *y),
                (Expr::Float(x), Expr::Float(y)) => fold_float(*op, *x, *y),
                _ => None,
            };
            if let Some(f) = folded {
                *e = f;
            }
        }
        Expr::Index(b, i) => {
            fold_expr(b);
            fold_expr(i);
        }
        Expr::Call(_, args) => args.iter_mut().for_each(fold_expr),
        Expr::Alloc(_, len) => fold_expr(len),
        Expr::Cast(ty, inner) => {
            fold_expr(inner);
            let folded = match (&*ty, inner.as_ref()) {
                (Type::Int, Expr::Float(v)) => Some(Expr::Int(*v as i64)),
                (Type::Float, Expr::Int(v)) => Some(Expr::Float(*v as f64)),
                _ => None,
            };
            if let Some(f) = folded {
                *e = f;
            }
        }
        _ => {}
    }
}

fn fold_int(op: BinOp, x: i64, y: i64) -> Option<Expr> {
    let v = match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                0
            } else {
                x.wrapping_div(y)
            }
        }
        BinOp::Rem => {
            if y == 0 {
                0
            } else {
                x.wrapping_rem(y)
            }
        }
        BinOp::Eq => (x == y) as i64,
        BinOp::Ne => (x != y) as i64,
        BinOp::Lt => (x < y) as i64,
        BinOp::Le => (x <= y) as i64,
        BinOp::Gt => (x > y) as i64,
        BinOp::Ge => (x >= y) as i64,
        // Folding short-circuit operators would discard their control flow
        // structure; leave them alone.
        BinOp::And | BinOp::Or => return None,
    };
    Some(Expr::Int(v))
}

fn fold_float(op: BinOp, x: f64, y: f64) -> Option<Expr> {
    let v = match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => {
            if y == 0.0 {
                0.0
            } else {
                x / y
            }
        }
        BinOp::Eq => return Some(Expr::Int((x == y) as i64)),
        BinOp::Ne => return Some(Expr::Int((x != y) as i64)),
        BinOp::Lt => return Some(Expr::Int((x < y) as i64)),
        BinOp::Le => return Some(Expr::Int((x <= y) as i64)),
        BinOp::Gt => return Some(Expr::Int((x > y) as i64)),
        BinOp::Ge => return Some(Expr::Int((x >= y) as i64)),
        _ => return None,
    };
    Some(Expr::Float(v))
}

// ---------------------------------------------------------------------------
// Loop rotation (inversion)
// ---------------------------------------------------------------------------

/// Rotate `while` loops into guarded `do…while` form and counted loops into
/// a guard plus a bottom-tested loop, the way optimizing compilers lay out
/// loops so the back edge is a taken conditional branch.
pub fn rotate_module(module: &mut Module) {
    let mut fresh = 0u32;
    for f in module.funcs.iter_mut() {
        let body = std::mem::take(&mut f.body);
        f.body = rotate_stmts(body, &mut fresh);
    }
}

fn rotate_stmts(stmts: Vec<Stmt>, fresh: &mut u32) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::While { cond, body } => {
                let body = rotate_stmts(body, fresh);
                // while (c) B  =>  if (c) do B while (c)
                out.push(Stmt::If {
                    cond: cond.clone(),
                    then_blk: vec![Stmt::DoWhile { body, cond }],
                    else_blk: vec![],
                });
            }
            Stmt::For {
                var,
                from,
                to,
                step,
                body,
            } => {
                let body = rotate_stmts(body, fresh);
                // A `continue` in a For body targets the increment; after
                // rotation into DoWhile the increment must still run, so only
                // rotate loops without top-level continues.
                if has_toplevel_continue(&body) {
                    out.push(Stmt::For {
                        var,
                        from,
                        to,
                        step,
                        body,
                    });
                    continue;
                }
                // for (i = a; i <= b; i += s) B
                //   => t = b; i = a; if (i <= t) do { B; i += s } while (i <= t)
                let bound = format!("__rot{fresh}");
                *fresh += 1;
                let cmp = if step > 0 { BinOp::Le } else { BinOp::Ge };
                let cond = Expr::Bin(
                    cmp,
                    Box::new(Expr::Var(var.clone())),
                    Box::new(Expr::Var(bound.clone())),
                );
                let mut rotated_body = body;
                rotated_body.push(Stmt::Assign(
                    LValue::Var(var.clone()),
                    Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Var(var.clone())),
                        Box::new(Expr::Int(step)),
                    ),
                ));
                out.push(Stmt::Let {
                    name: bound.clone(),
                    ty: Type::Int,
                    init: Some(to),
                });
                out.push(Stmt::Assign(LValue::Var(var.clone()), from));
                out.push(Stmt::If {
                    cond: cond.clone(),
                    then_blk: vec![Stmt::DoWhile {
                        body: rotated_body,
                        cond,
                    }],
                    else_blk: vec![],
                });
            }
            Stmt::DoWhile { body, cond } => out.push(Stmt::DoWhile {
                body: rotate_stmts(body, fresh),
                cond,
            }),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => out.push(Stmt::If {
                cond,
                then_blk: rotate_stmts(then_blk, fresh),
                else_blk: rotate_stmts(else_blk, fresh),
            }),
            Stmt::Switch {
                selector,
                cases,
                default,
            } => out.push(Stmt::Switch {
                selector,
                cases: cases
                    .into_iter()
                    .map(|(l, b)| (l, rotate_stmts(b, fresh)))
                    .collect(),
                default: rotate_stmts(default, fresh),
            }),
            other => out.push(other),
        }
    }
    out
}

/// Whether the statement list contains a `continue` binding to *this* loop
/// (i.e. not nested inside an inner loop).
fn has_toplevel_continue(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Continue => true,
        Stmt::If {
            then_blk, else_blk, ..
        } => has_toplevel_continue(then_blk) || has_toplevel_continue(else_blk),
        Stmt::Switch { cases, default, .. } => {
            cases.iter().any(|(_, b)| has_toplevel_continue(b)) || has_toplevel_continue(default)
        }
        // continue inside a nested loop binds to that loop
        Stmt::While { .. } | Stmt::DoWhile { .. } | Stmt::For { .. } => false,
        _ => false,
    })
}

/// Like [`has_toplevel_continue`] but for `break` as well — used by the
/// unroller, which cannot handle either.
fn has_toplevel_break_or_continue(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Continue | Stmt::Break => true,
        Stmt::If {
            then_blk, else_blk, ..
        } => has_toplevel_break_or_continue(then_blk) || has_toplevel_break_or_continue(else_blk),
        Stmt::Switch { cases, default, .. } => {
            cases.iter().any(|(_, b)| has_toplevel_break_or_continue(b))
                || has_toplevel_break_or_continue(default)
        }
        Stmt::While { .. } | Stmt::DoWhile { .. } | Stmt::For { .. } => false,
        _ => false,
    })
}

// ---------------------------------------------------------------------------
// Loop unrolling
// ---------------------------------------------------------------------------

/// Unroll counted loops by `factor` (≥ 2): the main loop runs the body
/// `factor` times per iteration (with the induction update between copies,
/// so no expression substitution is needed) and a remainder loop finishes
/// the tail. Loops with top-level `break`/`continue` are left alone.
///
/// This reproduces the branch-population effect of the GEM compiler in the
/// paper's Table 7: fewer loop back-edge executions, more forward branches.
pub fn unroll_module(module: &mut Module, factor: u32) {
    assert!(factor >= 2, "unroll factor must be at least 2");
    let mut fresh = 0u32;
    for f in module.funcs.iter_mut() {
        let body = std::mem::take(&mut f.body);
        f.body = unroll_stmts(body, factor, &mut fresh);
    }
}

fn unroll_stmts(stmts: Vec<Stmt>, factor: u32, fresh: &mut u32) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            Stmt::For {
                var,
                from,
                to,
                step,
                body,
            } => {
                let body = unroll_stmts(body, factor, fresh);
                if has_toplevel_break_or_continue(&body) {
                    out.push(Stmt::For {
                        var,
                        from,
                        to,
                        step,
                        body,
                    });
                    continue;
                }
                let k = factor as i64;
                let bound = format!("__unr{fresh}");
                *fresh += 1;
                // t = to; i = from;
                out.push(Stmt::Let {
                    name: bound.clone(),
                    ty: Type::Int,
                    init: Some(to),
                });
                out.push(Stmt::Assign(LValue::Var(var.clone()), from));
                // main: while (i <= t - (k-1)*step)   [>= for negative step]
                let cmp = if step > 0 { BinOp::Le } else { BinOp::Ge };
                let slack = (k - 1) * step;
                let main_bound = Expr::Bin(
                    BinOp::Sub,
                    Box::new(Expr::Var(bound.clone())),
                    Box::new(Expr::Int(slack)),
                );
                let main_cond =
                    Expr::Bin(cmp, Box::new(Expr::Var(var.clone())), Box::new(main_bound));
                let incr = Stmt::Assign(
                    LValue::Var(var.clone()),
                    Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Var(var.clone())),
                        Box::new(Expr::Int(step)),
                    ),
                );
                let mut main_body =
                    Vec::with_capacity(body.len() * factor as usize + factor as usize);
                for _ in 0..factor {
                    main_body.extend(body.iter().cloned());
                    main_body.push(incr.clone());
                }
                out.push(Stmt::While {
                    cond: main_cond,
                    body: main_body,
                });
                // remainder: while (i <= t) { body; i += step }
                let rem_cond = Expr::Bin(
                    cmp,
                    Box::new(Expr::Var(var.clone())),
                    Box::new(Expr::Var(bound)),
                );
                let mut rem_body = body;
                rem_body.push(incr);
                out.push(Stmt::While {
                    cond: rem_cond,
                    body: rem_body,
                });
            }
            Stmt::While { cond, body } => out.push(Stmt::While {
                cond,
                body: unroll_stmts(body, factor, fresh),
            }),
            Stmt::DoWhile { body, cond } => out.push(Stmt::DoWhile {
                body: unroll_stmts(body, factor, fresh),
                cond,
            }),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => out.push(Stmt::If {
                cond,
                then_blk: unroll_stmts(then_blk, factor, fresh),
                else_blk: unroll_stmts(else_blk, factor, fresh),
            }),
            Stmt::Switch {
                selector,
                cases,
                default,
            } => out.push(Stmt::Switch {
                selector,
                cases: cases
                    .into_iter()
                    .map(|(l, b)| (l, unroll_stmts(b, factor, fresh)))
                    .collect(),
                default: unroll_stmts(default, factor, fresh),
            }),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    #[test]
    fn folds_arithmetic_and_comparisons() {
        let mut e = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Bin(BinOp::Add, Box::new(int(2)), Box::new(int(3)))),
            Box::new(int(4)),
        );
        fold_expr(&mut e);
        assert_eq!(e, int(20));

        let mut c = Expr::Bin(BinOp::Lt, Box::new(int(1)), Box::new(int(2)));
        fold_expr(&mut c);
        assert_eq!(c, int(1));

        let mut f = Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Float(1.5)),
            Box::new(Expr::Float(2.5)),
        );
        fold_expr(&mut f);
        assert_eq!(f, Expr::Float(4.0));
    }

    #[test]
    fn folding_is_total_on_division_by_zero() {
        let mut e = Expr::Bin(BinOp::Div, Box::new(int(5)), Box::new(int(0)));
        fold_expr(&mut e);
        assert_eq!(e, int(0));
    }

    #[test]
    fn does_not_fold_short_circuit() {
        let mut e = Expr::Bin(BinOp::And, Box::new(int(1)), Box::new(int(0)));
        fold_expr(&mut e);
        assert!(matches!(e, Expr::Bin(BinOp::And, _, _)));
    }

    #[test]
    fn rotation_produces_guarded_dowhile() {
        let w = Stmt::While {
            cond: Expr::Bin(
                BinOp::Lt,
                Box::new(Expr::Var("i".into())),
                Box::new(int(10)),
            ),
            body: vec![Stmt::Assign(LValue::Var("i".into()), int(1))],
        };
        let mut fresh = 0;
        let out = rotate_stmts(vec![w], &mut fresh);
        assert_eq!(out.len(), 1);
        let Stmt::If { then_blk, .. } = &out[0] else {
            panic!("expected guard if");
        };
        assert!(matches!(then_blk[0], Stmt::DoWhile { .. }));
    }

    #[test]
    fn rotation_of_for_introduces_bound_temp() {
        let f = Stmt::For {
            var: "i".into(),
            from: int(0),
            to: Expr::Var("n".into()),
            step: 1,
            body: vec![],
        };
        let mut fresh = 0;
        let out = rotate_stmts(vec![f], &mut fresh);
        // Let __rot0 = n; i = 0; If (i <= __rot0) DoWhile
        assert_eq!(out.len(), 3);
        assert!(matches!(&out[0], Stmt::Let { name, .. } if name.starts_with("__rot")));
        assert!(matches!(&out[2], Stmt::If { .. }));
    }

    #[test]
    fn rotation_skips_for_with_continue() {
        let f = Stmt::For {
            var: "i".into(),
            from: int(0),
            to: int(9),
            step: 1,
            body: vec![Stmt::If {
                cond: int(1),
                then_blk: vec![Stmt::Continue],
                else_blk: vec![],
            }],
        };
        let mut fresh = 0;
        let out = rotate_stmts(vec![f], &mut fresh);
        assert!(matches!(out[0], Stmt::For { .. }), "must not rotate");
    }

    #[test]
    fn unrolling_replicates_body() {
        let f = Stmt::For {
            var: "i".into(),
            from: int(0),
            to: int(99),
            step: 1,
            body: vec![Stmt::Assign(LValue::Var("s".into()), int(1))],
        };
        let mut fresh = 0;
        let out = unroll_stmts(vec![f], 4, &mut fresh);
        // Let bound; i = 0; main while; remainder while
        assert_eq!(out.len(), 4);
        let Stmt::While { body, .. } = &out[2] else {
            panic!("expected main loop");
        };
        // 4 copies of (assign + incr)
        assert_eq!(body.len(), 8);
        let Stmt::While { body: rem, .. } = &out[3] else {
            panic!("expected remainder loop");
        };
        assert_eq!(rem.len(), 2);
    }

    #[test]
    fn unrolling_skips_loops_with_break() {
        let f = Stmt::For {
            var: "i".into(),
            from: int(0),
            to: int(9),
            step: 1,
            body: vec![Stmt::Break],
        };
        let mut fresh = 0;
        let out = unroll_stmts(vec![f], 2, &mut fresh);
        assert!(matches!(out[0], Stmt::For { .. }));
    }

    #[test]
    #[should_panic(expected = "unroll factor")]
    fn unroll_rejects_factor_one() {
        let mut m = Module {
            name: "m".into(),
            funcs: vec![],
        };
        unroll_module(&mut m, 1);
    }
}
