//! Differential compilation: random programs must compute the same result
//! under every compiler configuration (O0, rotated, unrolled, if-converted,
//! MIPS flavour). This exercises the whole optimizer + codegen pipeline
//! against the interpreter as the semantic oracle. Programs are drawn from
//! the in-tree seeded PCG32 stream so every run replays the same cases.

use esp_ir::Lang;
use esp_lang::ast::{BinOp, Expr, FuncDecl, LValue, Module, Stmt, Type};
use esp_lang::{compile_module, CompilerConfig};
use esp_runtime::Pcg32;

const CASES: u64 = 48;
const NUM_VARS: u8 = 4;
const NUM_LOOP_VARS: usize = 8;

#[derive(Debug, Clone)]
enum GExpr {
    Lit(i8),
    Var(u8),
    Bin(u8, Box<GExpr>, Box<GExpr>),
}

#[derive(Debug, Clone)]
enum GStmt {
    Assign(u8, GExpr),
    If(GExpr, Vec<GStmt>, Vec<GStmt>),
    Loop(u8, Vec<GStmt>),
}

fn random_gexpr(rng: &mut Pcg32, depth: usize) -> GExpr {
    if depth == 0 || rng.gen_bool(0.45) {
        if rng.gen_bool(0.5) {
            GExpr::Lit(rng.gen_range(-128i64..128) as i8)
        } else {
            GExpr::Var(rng.gen_range(0..(NUM_VARS as u32 + NUM_LOOP_VARS as u32)) as u8)
        }
    } else {
        let op = rng.gen_range(0..10u32) as u8;
        let a = random_gexpr(rng, depth - 1);
        let b = random_gexpr(rng, depth - 1);
        GExpr::Bin(op, Box::new(a), Box::new(b))
    }
}

fn random_gstmt(rng: &mut Pcg32, depth: usize) -> GStmt {
    if depth == 0 {
        return GStmt::Assign(
            rng.gen_range(0..NUM_VARS as u32) as u8,
            random_gexpr(rng, 2),
        );
    }
    match rng.gen_range(0..3u32) {
        0 => GStmt::Assign(
            rng.gen_range(0..NUM_VARS as u32) as u8,
            random_gexpr(rng, 3),
        ),
        1 => {
            let cond = random_gexpr(rng, 3);
            let nt = rng.gen_range(0..3usize);
            let nf = rng.gen_range(0..2usize);
            let t = (0..nt).map(|_| random_gstmt(rng, depth - 1)).collect();
            let f = (0..nf).map(|_| random_gstmt(rng, depth - 1)).collect();
            GStmt::If(cond, t, f)
        }
        _ => {
            let trip = rng.gen_range(0..7u32) as u8;
            let nb = rng.gen_range(0..3usize);
            let body = (0..nb).map(|_| random_gstmt(rng, depth - 1)).collect();
            GStmt::Loop(trip, body)
        }
    }
}

fn random_stmts(rng: &mut Pcg32) -> Vec<GStmt> {
    let n = rng.gen_range(1..6usize);
    (0..n).map(|_| random_gstmt(rng, 3)).collect()
}

fn build_expr(g: &GExpr) -> Expr {
    match g {
        GExpr::Lit(v) => Expr::Int(*v as i64),
        GExpr::Var(i) => Expr::Var(var_name(*i)),
        GExpr::Bin(op, a, b) => {
            let op = match op % 10 {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::Div,
                4 => BinOp::Rem,
                5 => BinOp::Lt,
                6 => BinOp::Eq,
                7 => BinOp::Gt,
                8 => BinOp::And,
                _ => BinOp::Or,
            };
            Expr::Bin(op, Box::new(build_expr(a)), Box::new(build_expr(b)))
        }
    }
}

fn var_name(i: u8) -> String {
    if i < NUM_VARS {
        format!("v{i}")
    } else {
        format!("l{}", i - NUM_VARS)
    }
}

/// Build statements; `depth` picks the loop variable so nested loops use
/// distinct induction variables.
fn build_stmts(gs: &[GStmt], depth: usize) -> Vec<Stmt> {
    let mut out = Vec::new();
    for g in gs {
        match g {
            GStmt::Assign(v, e) => out.push(Stmt::Assign(LValue::Var(var_name(*v)), build_expr(e))),
            GStmt::If(c, t, f) => out.push(Stmt::If {
                cond: build_expr(c),
                then_blk: build_stmts(t, depth),
                else_blk: build_stmts(f, depth),
            }),
            GStmt::Loop(trip, body) => {
                if depth >= NUM_LOOP_VARS {
                    continue; // too deep: drop the loop
                }
                out.push(Stmt::For {
                    var: format!("l{depth}"),
                    from: Expr::Int(0),
                    to: Expr::Int(*trip as i64),
                    step: 1,
                    body: build_stmts(body, depth + 1),
                });
            }
        }
    }
    out
}

fn build_module(gs: &[GStmt]) -> Module {
    let mut body = Vec::new();
    for i in 0..NUM_VARS {
        body.push(Stmt::Let {
            name: var_name(i),
            ty: Type::Int,
            init: Some(Expr::Int(i as i64 * 7 + 1)),
        });
    }
    for d in 0..NUM_LOOP_VARS {
        body.push(Stmt::Let {
            name: format!("l{d}"),
            ty: Type::Int,
            init: None,
        });
    }
    body.extend(build_stmts(gs, 0));
    // return a checksum of all variables
    let mut sum = Expr::Var(var_name(0));
    for i in 1..NUM_VARS {
        sum = Expr::Bin(BinOp::Add, Box::new(sum), Box::new(Expr::Var(var_name(i))));
    }
    body.push(Stmt::Return(Some(sum)));
    Module {
        name: "diff".to_string(),
        funcs: vec![FuncDecl {
            name: "main".to_string(),
            params: vec![],
            ret: Some(Type::Int),
            body,
            lang: Lang::C,
        }],
    }
}

fn run(module: Module, cfg: &CompilerConfig) -> i64 {
    let prog = compile_module(module, cfg).expect("generated module compiles");
    let out = esp_exec::run(&prog, &esp_exec::ExecLimits::default()).expect("terminates");
    match out.ret {
        Some(esp_exec::Value::Int(v)) => v,
        other => panic!("unexpected return {other:?}"),
    }
}

#[test]
fn all_configs_compute_the_same_value() {
    for case in 0..CASES {
        let mut rng = Pcg32::seed_from_u64(0xD1FF_u64.wrapping_add(case));
        let module = build_module(&random_stmts(&mut rng));
        let reference = run(module.clone(), &CompilerConfig::o0());
        for cfg in [
            CompilerConfig::cc_osf1_v12(),
            CompilerConfig::cc_osf1_v20(),
            CompilerConfig::gem(),
            CompilerConfig::gnu(),
            CompilerConfig::mips_ref(),
        ] {
            let got = run(module.clone(), &cfg);
            assert_eq!(got, reference, "case {case}: config {} diverged", cfg.name);
        }
    }
}

#[test]
fn compiled_programs_always_validate() {
    for case in 0..CASES {
        let mut rng = Pcg32::seed_from_u64(0x7A11_u64.wrapping_add(case));
        let module = build_module(&random_stmts(&mut rng));
        for cfg in [
            CompilerConfig::o0(),
            CompilerConfig::gem(),
            CompilerConfig::mips_ref(),
        ] {
            let prog = compile_module(module.clone(), &cfg).expect("compiles");
            assert!(esp_ir::validate_program(&prog).is_ok());
        }
    }
}
