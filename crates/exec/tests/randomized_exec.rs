//! Randomized tests for the interpreter: determinism, profile accounting
//! invariants, and limit behaviour, over randomly generated (terminating)
//! programs drawn from the in-tree seeded PCG32 stream.

use esp_exec::{run, ExecLimits, Value};
use esp_ir::{AluOp, BlockId, BranchOp, CmpOp, FuncId, FunctionBuilder, Isa, Lang, Program, Reg};
use esp_runtime::Pcg32;

const CASES: u64 = 64;

/// A random but always-terminating program: a counted loop whose body is a
/// random arithmetic schedule over a small register file, with a random
/// data-dependent branch inside.
#[derive(Debug, Clone)]
struct Spec {
    trip: u8,
    ops: Vec<(u8, u8, u8, u8)>, // (op selector, dst, a, b) over 4 scratch regs
    branch_mod: u8,
}

fn random_spec(rng: &mut Pcg32) -> Spec {
    let trip = rng.gen_range(0..40u32) as u8;
    let n_ops = rng.gen_range(0..8usize);
    let ops = (0..n_ops)
        .map(|_| {
            (
                rng.gen_range(0..6u32) as u8,
                rng.gen_range(0..4u32) as u8,
                rng.gen_range(0..4u32) as u8,
                rng.gen_range(0..4u32) as u8,
            )
        })
        .collect();
    let branch_mod = rng.gen_range(1..7u32) as u8;
    Spec {
        trip,
        ops,
        branch_mod,
    }
}

fn for_random_specs(base_seed: u64, mut check: impl FnMut(&Spec)) {
    for case in 0..CASES {
        let mut rng = Pcg32::seed_from_u64(base_seed.wrapping_add(case));
        check(&random_spec(&mut rng));
    }
}

fn build(spec: &Spec) -> Program {
    let mut b = FunctionBuilder::new("main", 0, Lang::C);
    let scratch: Vec<Reg> = (0..4).map(|_| b.fresh_reg()).collect();
    let i = b.fresh_reg();
    let c = b.fresh_reg();
    let t = b.fresh_reg();

    let entry = b.entry_block();
    for (k, r) in scratch.iter().enumerate() {
        b.push_load_imm(entry, *r, k as i64 + 1);
    }
    b.push_load_imm(entry, i, 0);
    let head = b.new_block();
    let body = b.new_block();
    let then_blk = b.new_block();
    let join = b.new_block();
    let latch = b.new_block();
    let exit = b.new_block();
    b.set_fallthrough(entry, head);
    b.push_cmp_imm(head, CmpOp::Lt, c, i, spec.trip as i64);
    b.set_cond_branch(head, BranchOp::Bne, c, None, body, exit);
    for (op, dst, x, y) in &spec.ops {
        let alu = match op % 6 {
            0 => AluOp::Add,
            1 => AluOp::Sub,
            2 => AluOp::Mul,
            3 => AluOp::Div,
            4 => AluOp::Rem,
            _ => AluOp::Xor,
        };
        b.push_alu(
            body,
            alu,
            scratch[*dst as usize],
            scratch[*x as usize],
            scratch[*y as usize],
        );
    }
    // data-dependent branch: if (s0 % m == 0) s1 += 3
    b.push_alu_imm(body, AluOp::Rem, t, scratch[0], spec.branch_mod as i64);
    b.set_cond_branch(body, BranchOp::Beq, t, None, then_blk, join);
    b.push_alu_imm(then_blk, AluOp::Add, scratch[1], scratch[1], 3);
    b.set_fallthrough(then_blk, join);
    b.set_jump(join, latch);
    b.push_alu_imm(latch, AluOp::Add, i, i, 1);
    b.set_jump(latch, head);
    b.set_return(exit, Some(scratch[1]));

    Program {
        name: "prop".into(),
        funcs: vec![b.finish()],
        main: FuncId(0),
        isa: Isa::Alpha,
    }
}

#[test]
fn execution_is_deterministic() {
    for_random_specs(0xDE7E, |s| {
        let prog = build(s);
        let a = run(&prog, &ExecLimits::default()).expect("terminates");
        let b = run(&prog, &ExecLimits::default()).expect("terminates");
        assert_eq!(a.ret, b.ret);
        assert_eq!(a.profile.dyn_insns, b.profile.dyn_insns);
        let pa: Vec<_> = a.profile.iter().map(|(s, c)| (*s, *c)).collect();
        let pb: Vec<_> = b.profile.iter().map(|(s, c)| (*s, *c)).collect();
        assert_eq!(pa, pb);
    });
}

#[test]
fn profile_accounting_invariants() {
    for_random_specs(0xACC0, |s| {
        let prog = build(s);
        let out = run(&prog, &ExecLimits::default()).expect("terminates");
        let p = &out.profile;
        let mut total = 0u64;
        for (site, c) in p.iter() {
            assert!(c.taken <= c.executed, "{site}: taken > executed");
            assert!(c.executed > 0);
            total += c.executed;
        }
        assert_eq!(total, p.dyn_cond_branches);
        // loop head executed trip+1 times when the loop ran
        let head_site = prog
            .branch_sites()
            .into_iter()
            .find(|b| b.block == BlockId(1))
            .expect("head branch");
        let c = p.counts(head_site).expect("head executed");
        assert_eq!(c.executed, s.trip as u64 + 1);
        assert_eq!(c.taken, s.trip as u64);
        // weights sum to 1 over executed sites
        let wsum: f64 = prog.branch_sites().iter().map(|s| p.weight(*s)).sum();
        assert!((wsum - 1.0).abs() < 1e-9, "weights sum to {wsum}");
    });
}

#[test]
fn tighter_insn_limits_never_change_results_only_truncate() {
    for_random_specs(0x1131, |s| {
        let prog = build(s);
        let full = run(&prog, &ExecLimits::default()).expect("terminates");
        let limits = ExecLimits {
            max_insns: full.profile.dyn_insns,
            ..ExecLimits::default()
        };
        // a budget exactly equal to the need still succeeds (checked at
        // block granularity, so the final block fits)
        let again = run(&prog, &limits).expect("same budget suffices");
        assert_eq!(again.ret, full.ret);
        if full.profile.dyn_insns > 40 {
            let tight = ExecLimits {
                max_insns: 10,
                ..ExecLimits::default()
            };
            let err = run(&prog, &tight).unwrap_err();
            let is_limit = matches!(err, esp_exec::ExecError::InsnLimit { .. });
            assert!(is_limit, "expected InsnLimit, got {err:?}");
        }
    });
}

#[test]
fn values_round_trip() {
    let mut rng = Pcg32::seed_from_u64(0x0a1b);
    for _ in 0..CASES {
        let v = rng.next_u64() as i64;
        assert_eq!(Value::from(v).as_int().unwrap(), v);
        let f = f64::from_bits(rng.next_u64());
        let vf = Value::from(f).as_float().unwrap();
        assert!(vf == f || (vf.is_nan() && f.is_nan()));
    }
    // the edge cases any::<f64>() used to find
    for f in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let vf = Value::from(f).as_float().unwrap();
        assert!(vf == f || (vf.is_nan() && f.is_nan()));
    }
}
