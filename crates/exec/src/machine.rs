//! The interpreter proper.

use esp_ir::{
    validate_program, AluOp, BlockId, BranchId, BranchOp, CmpOp, FpuOp, FuncId, Insn, Program, Reg,
    Terminator,
};

use crate::error::ExecError;
use crate::profile::{BranchCounts, Profile};
use crate::sink::{BranchSink, NullSink};
use crate::value::Value;

/// Resource limits for one execution.
#[derive(Debug, Clone)]
pub struct ExecLimits {
    /// Maximum dynamic instructions (terminators included). Checked at basic
    /// block granularity, so a run may overshoot by one block.
    pub max_insns: u64,
    /// Maximum heap size in words.
    pub max_mem_words: usize,
    /// Maximum call-stack depth.
    pub max_call_depth: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_insns: 200_000_000,
            max_mem_words: 1 << 24,
            max_call_depth: 10_000,
        }
    }
}

/// Result of a successful execution.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The branch/block profile collected during the run.
    pub profile: Profile,
    /// The value returned by `main`, if any.
    pub ret: Option<Value>,
}

struct Frame {
    func: FuncId,
    regs: Vec<Value>,
    /// Where to store the callee's return value.
    ret_dst: Option<Reg>,
    /// Block to resume at after the call returns.
    ret_next: BlockId,
}

fn int_alu(op: AluOp, a: i64, b: i64) -> i64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        AluOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((b & 63) as u32),
        AluOp::Shr => a.wrapping_shr((b & 63) as u32),
    }
}

fn int_cmp(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn float_cmp(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
    }
}

fn fpu(op: FpuOp, a: f64, b: Option<f64>) -> f64 {
    match op {
        FpuOp::FAdd => a + b.unwrap_or(0.0),
        FpuOp::FSub => a - b.unwrap_or(0.0),
        FpuOp::FMul => a * b.unwrap_or(0.0),
        FpuOp::FDiv => {
            let b = b.unwrap_or(0.0);
            if b == 0.0 {
                0.0
            } else {
                a / b
            }
        }
        FpuOp::FAbs => a.abs(),
        FpuOp::FNeg => -a,
    }
}

/// Execute `prog` from its `main` function, collecting a branch profile.
///
/// The program is structurally validated first; running a malformed program
/// is reported as a [`ExecError::Type`]-style failure rather than a panic.
///
/// # Errors
///
/// * [`ExecError::InsnLimit`], [`ExecError::CallDepth`],
///   [`ExecError::OutOfMemory`] when `limits` are exceeded;
/// * [`ExecError::BadAddress`] on null or out-of-range memory accesses;
/// * [`ExecError::Type`] on dynamic type mismatches or a malformed program.
pub fn run(prog: &Program, limits: &ExecLimits) -> Result<Outcome, ExecError> {
    run_with_sink(prog, limits, &mut NullSink)
}

/// [`run`], additionally streaming every conditional-branch outcome to
/// `sink` in execution order (see [`BranchSink`]). The sink is observation
/// only: the profile, return value and error behaviour are identical to
/// [`run`] — aggregating the sink's events per site reproduces the
/// profile's counts exactly. Monomorphized per sink type, so [`run`]'s
/// [`NullSink`] costs nothing.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_with_sink<S: BranchSink>(
    prog: &Program,
    limits: &ExecLimits,
    sink: &mut S,
) -> Result<Outcome, ExecError> {
    if validate_program(prog).is_err() {
        return Err(ExecError::Type {
            expected: "well-formed program",
            found: "malformed program",
        });
    }

    // One counter per block: function `f`'s blocks count into
    // `executed[base[f]..base[f + 1]]`, and a block ending in a conditional
    // branch counts its taken outcomes in the same slot of `taken_count`.
    let mut base = vec![0];
    let mut slots = 0;
    for f in &prog.funcs {
        slots += f.num_blocks();
        base.push(slots);
    }
    let mut executed = vec![0u64; slots];
    let mut taken_count = vec![0u64; slots];
    // Word 0 is the reserved null slot.
    let mut mem: Vec<Value> = vec![Value::default()];

    let mut stack: Vec<Frame> = Vec::new();
    let mut func = prog.main;
    let mut regs = vec![Value::default(); prog.func(func).num_regs as usize];
    let mut block = prog.func(func).entry();
    let mut insns: u64 = 0;

    'blocks: loop {
        if insns >= limits.max_insns {
            return Err(ExecError::InsnLimit {
                limit: limits.max_insns,
            });
        }
        let slot = base[func.index()] + block.index();
        executed[slot] += 1;
        let bb = prog.func(func).block(block);
        insns += bb.insns.len() as u64 + 1;

        for insn in &bb.insns {
            match insn {
                Insn::Alu { op, dst, a, b } => {
                    let av = regs[a.index()].as_int()?;
                    let bv = regs[b.index()].as_int()?;
                    regs[dst.index()] = Value::Int(int_alu(*op, av, bv));
                }
                Insn::AluImm { op, dst, a, imm } => {
                    let av = regs[a.index()].as_int()?;
                    regs[dst.index()] = Value::Int(int_alu(*op, av, *imm));
                }
                Insn::Cmp { op, dst, a, b } => {
                    let av = regs[a.index()].as_int()?;
                    let bv = regs[b.index()].as_int()?;
                    regs[dst.index()] = Value::Int(int_cmp(*op, av, bv) as i64);
                }
                Insn::CmpImm { op, dst, a, imm } => {
                    let av = regs[a.index()].as_int()?;
                    regs[dst.index()] = Value::Int(int_cmp(*op, av, *imm) as i64);
                }
                Insn::Fpu { op, dst, a, b } => {
                    let av = regs[a.index()].as_float()?;
                    let bv = match b {
                        Some(b) => Some(regs[b.index()].as_float()?),
                        None => None,
                    };
                    regs[dst.index()] = Value::Float(fpu(*op, av, bv));
                }
                Insn::FCmp { op, dst, a, b } => {
                    let av = regs[a.index()].as_float()?;
                    let bv = regs[b.index()].as_float()?;
                    regs[dst.index()] = Value::Int(float_cmp(*op, av, bv) as i64);
                }
                Insn::LoadImm { dst, imm } => regs[dst.index()] = Value::Int(*imm),
                Insn::LoadFImm { dst, imm } => regs[dst.index()] = Value::Float(*imm),
                Insn::Mov { dst, src } => regs[dst.index()] = regs[src.index()],
                Insn::CMov { c, dst, src } => {
                    if regs[c.index()].as_int()? != 0 {
                        regs[dst.index()] = regs[src.index()];
                    }
                }
                Insn::CvtFI { dst, a } => {
                    let v = regs[a.index()].as_float()?;
                    regs[dst.index()] = Value::Int(v as i64);
                }
                Insn::CvtIF { dst, a } => {
                    let v = regs[a.index()].as_int()?;
                    regs[dst.index()] = Value::Float(v as f64);
                }
                Insn::Load { dst, base, offset } => {
                    let addr = regs[base.index()].as_int()?.wrapping_add(*offset);
                    if addr <= 0 || addr as usize >= mem.len() {
                        return Err(ExecError::BadAddress { addr, func, block });
                    }
                    regs[dst.index()] = mem[addr as usize];
                }
                Insn::Store { src, base, offset } => {
                    let addr = regs[base.index()].as_int()?.wrapping_add(*offset);
                    if addr <= 0 || addr as usize >= mem.len() {
                        return Err(ExecError::BadAddress { addr, func, block });
                    }
                    mem[addr as usize] = regs[src.index()];
                }
                Insn::Alloc { dst, words } => {
                    let n = regs[words.index()].as_int()?.max(0) as usize;
                    let base = mem.len();
                    if base + n > limits.max_mem_words {
                        return Err(ExecError::OutOfMemory {
                            limit: limits.max_mem_words,
                        });
                    }
                    mem.resize(base + n, Value::default());
                    regs[dst.index()] = Value::Int(base as i64);
                }
                Insn::AllocImm { dst, words } => {
                    let n = (*words).max(0) as usize;
                    let base = mem.len();
                    if base + n > limits.max_mem_words {
                        return Err(ExecError::OutOfMemory {
                            limit: limits.max_mem_words,
                        });
                    }
                    mem.resize(base + n, Value::default());
                    regs[dst.index()] = Value::Int(base as i64);
                }
            }
        }

        match &bb.term {
            Terminator::FallThrough { target } | Terminator::Jump { target } => {
                block = *target;
            }
            Terminator::CondBranch {
                op,
                rs,
                rt,
                taken,
                not_taken,
            } => {
                let cond = if op.is_float() {
                    let a = regs[rs.index()].as_float()?;
                    let b = match rt {
                        Some(rt) => regs[rt.index()].as_float()?,
                        None => 0.0,
                    };
                    match op {
                        BranchOp::Fbeq => float_cmp(CmpOp::Eq, a, b),
                        BranchOp::Fbne => float_cmp(CmpOp::Ne, a, b),
                        BranchOp::Fblt => float_cmp(CmpOp::Lt, a, b),
                        BranchOp::Fble => float_cmp(CmpOp::Le, a, b),
                        BranchOp::Fbgt => float_cmp(CmpOp::Gt, a, b),
                        BranchOp::Fbge => float_cmp(CmpOp::Ge, a, b),
                        _ => unreachable!("is_float filtered"),
                    }
                } else {
                    let a = regs[rs.index()].as_int()?;
                    let b = match rt {
                        Some(rt) => regs[rt.index()].as_int()?,
                        None => 0,
                    };
                    match op {
                        BranchOp::Beq => int_cmp(CmpOp::Eq, a, b),
                        BranchOp::Bne => int_cmp(CmpOp::Ne, a, b),
                        BranchOp::Blt => int_cmp(CmpOp::Lt, a, b),
                        BranchOp::Ble => int_cmp(CmpOp::Le, a, b),
                        BranchOp::Bgt => int_cmp(CmpOp::Gt, a, b),
                        BranchOp::Bge => int_cmp(CmpOp::Ge, a, b),
                        _ => unreachable!("non-float filtered"),
                    }
                };
                taken_count[slot] += cond as u64;
                sink.branch(BranchId { func, block }, cond);
                block = if cond { *taken } else { *not_taken };
            }
            Terminator::Call {
                callee,
                args,
                dst,
                next,
            } => {
                if stack.len() >= limits.max_call_depth {
                    return Err(ExecError::CallDepth {
                        limit: limits.max_call_depth,
                    });
                }
                let callee_fn = prog.func(*callee);
                let mut callee_regs = vec![Value::default(); callee_fn.num_regs as usize];
                for (p, a) in callee_fn.params.iter().zip(args.iter()) {
                    callee_regs[p.index()] = regs[a.index()];
                }
                stack.push(Frame {
                    func,
                    regs: std::mem::replace(&mut regs, callee_regs),
                    ret_dst: *dst,
                    ret_next: *next,
                });
                func = *callee;
                block = callee_fn.entry();
            }
            Terminator::Switch {
                index,
                targets,
                default,
            } => {
                let i = regs[index.index()].as_int()?;
                block = if i >= 0 && (i as usize) < targets.len() {
                    targets[i as usize]
                } else {
                    *default
                };
            }
            Terminator::Return { value } => {
                let ret = value.as_ref().map(|r| regs[r.index()]);
                match stack.pop() {
                    Some(frame) => {
                        regs = frame.regs;
                        func = frame.func;
                        block = frame.ret_next;
                        if let Some(dst) = frame.ret_dst {
                            regs[dst.index()] = ret.unwrap_or_default();
                        }
                    }
                    None => {
                        let profile = profile_of(prog, base, executed, &taken_count, insns);
                        break 'blocks Ok(Outcome { profile, ret });
                    }
                }
            }
        }
    }
}

/// Build a finished run's [`Profile`] from its per-block counters. A
/// branch's `executed` is its block's count: the run returned, so every
/// entered block reached its terminator.
fn profile_of(
    prog: &Program,
    base: Vec<usize>,
    executed: Vec<u64>,
    taken: &[u64],
    dyn_insns: u64,
) -> Profile {
    let branches = prog
        .branch_sites()
        .into_iter()
        .map(|id| {
            let slot = base[id.func.index()] + id.block.index();
            let counts = BranchCounts {
                executed: executed[slot],
                taken: taken[slot],
            };
            (id, counts)
        })
        .filter(|(_, c)| c.executed > 0)
        .collect();
    Profile::from_counts(base, executed, branches, dyn_insns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_ir::{FunctionBuilder, Isa, Lang};

    fn prog_of(funcs: Vec<esp_ir::Function>) -> Program {
        Program {
            name: "t".into(),
            funcs,
            main: FuncId(0),
            isa: Isa::Alpha,
        }
    }

    /// main() { s = 0; for (i = 0; i < n; i++) s += i; return s; }
    fn sum_to(n: i64) -> Program {
        let mut b = FunctionBuilder::new("main", 0, Lang::C);
        let i = b.fresh_reg();
        let s = b.fresh_reg();
        let c = b.fresh_reg();
        let e = b.entry_block();
        let h = b.new_block();
        let body = b.new_block();
        let x = b.new_block();
        b.push_load_imm(e, i, 0);
        b.push_load_imm(e, s, 0);
        b.set_fallthrough(e, h);
        b.push_cmp_imm(h, CmpOp::Lt, c, i, n);
        b.set_cond_branch(h, BranchOp::Bne, c, None, body, x);
        b.push_alu(body, AluOp::Add, s, s, i);
        b.push_alu_imm(body, AluOp::Add, i, i, 1);
        b.set_jump(body, h);
        b.set_return(x, Some(s));
        prog_of(vec![b.finish()])
    }

    #[test]
    fn loop_sums_correctly_and_profiles() {
        let p = sum_to(100);
        let out = run(&p, &ExecLimits::default()).unwrap();
        assert_eq!(out.ret, Some(Value::Int(4950)));
        let site = p.branch_sites()[0];
        let c = out.profile.counts(site).unwrap();
        assert_eq!(c.executed, 101);
        assert_eq!(c.taken, 100);
        assert!(out.profile.dyn_insns > 300);
        assert_eq!(out.profile.dyn_cond_branches, 101);
        // head block ran 101 times
        assert_eq!(out.profile.block_count(FuncId(0), BlockId(1)), 101);
    }

    #[test]
    fn sink_observes_every_branch_in_execution_order() {
        let p = sum_to(50);
        let mut events: Vec<(BranchId, bool)> = Vec::new();
        let out = run_with_sink(&p, &ExecLimits::default(), &mut |id, taken: bool| {
            events.push((id, taken))
        })
        .unwrap();
        // Same result and profile as the sink-less run.
        let plain = run(&p, &ExecLimits::default()).unwrap();
        assert_eq!(out.ret, plain.ret);
        let site = p.branch_sites()[0];
        // The loop head branch resolves taken 50 times then not-taken once,
        // in that order.
        assert_eq!(events.len(), 51);
        assert!(events[..50].iter().all(|&(id, t)| id == site && t));
        assert_eq!(events[50], (site, false));
        // Aggregating the stream reproduces the profile's counts.
        let c = out.profile.counts(site).unwrap();
        assert_eq!(c.executed, events.len() as u64);
        assert_eq!(c.taken, events.iter().filter(|&&(_, t)| t).count() as u64);
    }

    #[test]
    fn call_and_return_pass_values() {
        // add1(x) { return x + 1; } ; main() { return add1(41); }
        let mut cal = FunctionBuilder::new("add1", 1, Lang::C);
        let x = cal.params()[0];
        let e = cal.entry_block();
        cal.push_alu_imm(e, AluOp::Add, x, x, 1);
        cal.set_return(e, Some(x));
        let callee = cal.finish();

        let mut m = FunctionBuilder::new("main", 0, Lang::C);
        let a = m.fresh_reg();
        let r = m.fresh_reg();
        let e = m.entry_block();
        let k = m.new_block();
        m.push_load_imm(e, a, 41);
        m.set_call(e, FuncId(1), vec![a], Some(r), k);
        m.set_return(k, Some(r));
        let main = m.finish();

        let p = prog_of(vec![main, callee]);
        let out = run(&p, &ExecLimits::default()).unwrap();
        assert_eq!(out.ret, Some(Value::Int(42)));
    }

    #[test]
    fn recursion_computes_factorial() {
        // fact(n) { if (n <= 1) return 1; return n * fact(n - 1); }
        let mut f = FunctionBuilder::new("fact", 1, Lang::C);
        let n = f.params()[0];
        let c = f.fresh_reg();
        let t = f.fresh_reg();
        let r = f.fresh_reg();
        let e = f.entry_block();
        let base = f.new_block();
        let rec = f.new_block();
        let join = f.new_block();
        f.push_cmp_imm(e, CmpOp::Le, c, n, 1);
        f.set_cond_branch(e, BranchOp::Bne, c, None, base, rec);
        f.push_load_imm(base, r, 1);
        f.set_return(base, Some(r));
        f.push_alu_imm(rec, AluOp::Sub, t, n, 1);
        f.set_call(rec, FuncId(1), vec![t], Some(r), join);
        f.push_alu(join, AluOp::Mul, r, r, n);
        f.set_return(join, Some(r));
        let fact = f.finish();

        let mut m = FunctionBuilder::new("main", 0, Lang::C);
        let a = m.fresh_reg();
        let r = m.fresh_reg();
        let e = m.entry_block();
        let k = m.new_block();
        m.push_load_imm(e, a, 10);
        m.set_call(e, FuncId(1), vec![a], Some(r), k);
        m.set_return(k, Some(r));
        let main = m.finish();

        let p = prog_of(vec![main, fact]);
        let out = run(&p, &ExecLimits::default()).unwrap();
        assert_eq!(out.ret, Some(Value::Int(3628800)));
    }

    #[test]
    fn memory_alloc_load_store() {
        // p = alloc 4; p[2] = 7; return p[2];
        let mut m = FunctionBuilder::new("main", 0, Lang::C);
        let p = m.fresh_reg();
        let v = m.fresh_reg();
        let e = m.entry_block();
        m.push(e, Insn::AllocImm { dst: p, words: 4 });
        m.push_load_imm(e, v, 7);
        m.push_store(e, v, p, 2);
        m.push_load(e, v, p, 2);
        m.set_return(e, Some(v));
        let prog = prog_of(vec![m.finish()]);
        let out = run(&prog, &ExecLimits::default()).unwrap();
        assert_eq!(out.ret, Some(Value::Int(7)));
    }

    #[test]
    fn null_deref_is_reported() {
        let mut m = FunctionBuilder::new("main", 0, Lang::C);
        let p = m.fresh_reg();
        let v = m.fresh_reg();
        let e = m.entry_block();
        m.push_load_imm(e, p, 0);
        m.push_load(e, v, p, 0);
        m.set_return(e, Some(v));
        let prog = prog_of(vec![m.finish()]);
        let err = run(&prog, &ExecLimits::default()).unwrap_err();
        assert!(matches!(err, ExecError::BadAddress { addr: 0, .. }));
    }

    #[test]
    fn insn_limit_stops_infinite_loop() {
        let mut m = FunctionBuilder::new("main", 0, Lang::C);
        let e = m.entry_block();
        let spin = m.new_block();
        m.set_fallthrough(e, spin);
        m.set_jump(spin, spin);
        let prog = prog_of(vec![m.finish()]);
        let limits = ExecLimits {
            max_insns: 1000,
            ..ExecLimits::default()
        };
        let err = run(&prog, &limits).unwrap_err();
        assert!(matches!(err, ExecError::InsnLimit { limit: 1000 }));
    }

    #[test]
    fn call_depth_limit_stops_runaway_recursion() {
        // rec() { rec(); } — never returns
        let mut f = FunctionBuilder::new("main", 0, Lang::C);
        let e = f.entry_block();
        let k = f.new_block();
        f.set_call(e, FuncId(0), vec![], None, k);
        f.set_return(k, None);
        let prog = prog_of(vec![f.finish()]);
        let limits = ExecLimits {
            max_call_depth: 16,
            ..ExecLimits::default()
        };
        let err = run(&prog, &limits).unwrap_err();
        assert!(matches!(err, ExecError::CallDepth { limit: 16 }));
    }

    #[test]
    fn float_pipeline_and_cmov() {
        // x = 2.0; y = -3.5; if fabs(y) > x then r = 1 via cmov
        let mut m = FunctionBuilder::new("main", 0, Lang::C);
        let x = m.fresh_reg();
        let y = m.fresh_reg();
        let c = m.fresh_reg();
        let r = m.fresh_reg();
        let one = m.fresh_reg();
        let e = m.entry_block();
        m.push(e, Insn::LoadFImm { dst: x, imm: 2.0 });
        m.push(e, Insn::LoadFImm { dst: y, imm: -3.5 });
        m.push_fpu(e, FpuOp::FAbs, y, y, None);
        m.push(
            e,
            Insn::FCmp {
                op: CmpOp::Gt,
                dst: c,
                a: y,
                b: x,
            },
        );
        m.push_load_imm(e, r, 0);
        m.push_load_imm(e, one, 1);
        m.push(
            e,
            Insn::CMov {
                c,
                dst: r,
                src: one,
            },
        );
        m.set_return(e, Some(r));
        let prog = prog_of(vec![m.finish()]);
        let out = run(&prog, &ExecLimits::default()).unwrap();
        assert_eq!(out.ret, Some(Value::Int(1)));
    }

    #[test]
    fn switch_dispatches_and_defaults() {
        for (sel, expect) in [(0i64, 10i64), (1, 20), (5, 99)] {
            let mut m = FunctionBuilder::new("main", 0, Lang::C);
            let i = m.fresh_reg();
            let r = m.fresh_reg();
            let e = m.entry_block();
            let c0 = m.new_block();
            let c1 = m.new_block();
            let d = m.new_block();
            m.push_load_imm(e, i, sel);
            m.set_switch(e, i, vec![c0, c1], d);
            m.push_load_imm(c0, r, 10);
            m.set_return(c0, Some(r));
            m.push_load_imm(c1, r, 20);
            m.set_return(c1, Some(r));
            m.push_load_imm(d, r, 99);
            m.set_return(d, Some(r));
            let prog = prog_of(vec![m.finish()]);
            let out = run(&prog, &ExecLimits::default()).unwrap();
            assert_eq!(out.ret, Some(Value::Int(expect)), "selector {sel}");
        }
    }

    #[test]
    fn type_errors_are_reported_not_panicking() {
        // float add on int register
        let mut m = FunctionBuilder::new("main", 0, Lang::C);
        let a = m.fresh_reg();
        let e = m.entry_block();
        m.push_load_imm(e, a, 1);
        m.push_fpu(e, FpuOp::FAdd, a, a, Some(a));
        m.set_return(e, Some(a));
        let prog = prog_of(vec![m.finish()]);
        let err = run(&prog, &ExecLimits::default()).unwrap_err();
        assert!(matches!(err, ExecError::Type { .. }));
    }

    #[test]
    fn division_by_zero_is_total() {
        let mut m = FunctionBuilder::new("main", 0, Lang::C);
        let a = m.fresh_reg();
        let z = m.fresh_reg();
        let e = m.entry_block();
        m.push_load_imm(e, a, 5);
        m.push_load_imm(e, z, 0);
        m.push_alu(e, AluOp::Div, a, a, z);
        m.set_return(e, Some(a));
        let prog = prog_of(vec![m.finish()]);
        let out = run(&prog, &ExecLimits::default()).unwrap();
        assert_eq!(out.ret, Some(Value::Int(0)));
    }

    #[test]
    fn malformed_program_rejected() {
        let mut m = FunctionBuilder::new("main", 0, Lang::C);
        let e = m.entry_block();
        m.set_jump(e, BlockId(5));
        let prog = prog_of(vec![m.finish()]);
        assert!(run(&prog, &ExecLimits::default()).is_err());
    }
}
