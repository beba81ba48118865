//! Per-branch analysis facts distilled from the three dataflow analyses.
//!
//! [`FuncFacts::compute`] runs SCCP, intervals and liveness over one
//! function and condenses the results into a per-branch record the linter
//! and the extended ESP feature encoding both consume. Keeping one shared
//! distillation guarantees the linter's claims and the learned features see
//! the same facts — the execution-profile oracle that gates the linter
//! therefore also vouches for the feature bits.

use esp_ir::defuse::{branch_compare_regs, effective_compare, CompareRhs};
use esp_ir::term::Terminator;
use esp_ir::{BlockId, FuncAnalysis, Function, Reg};

use crate::interval::{interval_analysis, IntervalOutcome};
use crate::liveness::{dead_defs, liveness, DeadDef};
use crate::sccp::{sccp, Lat};

/// Classification of a conditional branch as a pointer null-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointerTest {
    /// Not a comparison of a pointer-typed register against null.
    No,
    /// A null-test whose outcome the analyses cannot bound.
    Unproven,
    /// A null-test of a pointer proved non-null (e.g. a fresh allocation).
    ProvenNonNull,
}

/// Static facts about one conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchFacts {
    /// `Some(direction)` when an analysis proves the branch one-sided on
    /// every execution. `None` for data-dependent (or unreachable) branches.
    pub decided: Option<bool>,
    /// When `decided`, whether the interval analysis (rather than constant
    /// propagation) supplied the proof.
    pub decided_by_interval: bool,
    /// The condition registers are never redefined inside the innermost
    /// loop containing the branch — the branch resolves the same way on
    /// every iteration.
    pub invariant: bool,
    /// The first compared register holds a compile-time constant.
    pub lhs_const: bool,
    /// Null-test classification of the comparison.
    pub pointer_test: PointerTest,
    /// The branch is a loop-exit guard comparing a loop-varying value
    /// against a loop-invariant bound.
    pub guard: bool,
    /// For a guard: the *taken* arm stays in the loop (the common
    /// `branch-back-on-true` compilation of `while` loops).
    pub guard_taken_stays: bool,
}

impl BranchFacts {
    fn unknown() -> BranchFacts {
        BranchFacts {
            decided: None,
            decided_by_interval: false,
            invariant: false,
            lhs_const: false,
            pointer_test: PointerTest::No,
            guard: false,
            guard_taken_stays: false,
        }
    }
}

/// All analysis facts for one function.
#[derive(Debug, Clone)]
pub struct FuncFacts {
    /// Per block: reachable per SCCP (CFG-reachable *and* on some
    /// executable path given constant folding).
    pub reachable: Vec<bool>,
    /// `(block, facts)` for every conditional branch, in block order.
    pub branches: Vec<(BlockId, BranchFacts)>,
    /// Dead register definitions, in (block, insn) order.
    pub dead: Vec<DeadDef>,
}

impl FuncFacts {
    /// Run the analyses over `func` and distil the facts.
    pub fn compute(func: &Function, fa: &FuncAnalysis) -> FuncFacts {
        let cfg = &fa.cfg;
        let sccp_out = sccp(func, cfg);
        let itv_out = interval_analysis(func, cfg);
        let live = liveness(func, cfg);

        let reachable = (0..func.num_blocks())
            .map(|i| sccp_out.reachable(BlockId(i as u32)))
            .collect::<Vec<_>>();

        let mut branches = Vec::new();
        for (bi, &block_reachable) in reachable.iter().enumerate() {
            let block = BlockId(bi as u32);
            let bb = func.block(block);
            let Terminator::CondBranch {
                taken, not_taken, ..
            } = &bb.term
            else {
                continue;
            };
            if !block_reachable {
                branches.push((block, BranchFacts::unknown()));
                continue;
            }
            let mut facts = BranchFacts::unknown();
            match sccp_out.decided[bi] {
                Some(d) => facts.decided = Some(d),
                None => {
                    facts.decided = itv_out.decided[bi];
                    facts.decided_by_interval = facts.decided.is_some();
                }
            }
            let cond_regs = branch_compare_regs(bb);
            facts.invariant = invariant_in_loop(func, fa, block, &cond_regs);
            facts.lhs_const = cond_regs.first().is_some_and(|&r| {
                matches!(
                    sccp_out.value_at_exit(block, r),
                    Some(Lat::Int(_) | Lat::Float(_))
                )
            });
            facts.pointer_test = classify_pointer_test(func, fa, &itv_out, block);
            (facts.guard, facts.guard_taken_stays) =
                classify_guard(func, fa, block, *taken, *not_taken);
            branches.push((block, facts));
        }

        FuncFacts {
            reachable,
            branches,
            dead: dead_defs(func, &live),
        }
    }

    /// Convenience: compute over a standalone function (used by tests).
    pub fn compute_standalone(func: &Function) -> FuncFacts {
        let fa = FuncAnalysis::analyze(func);
        FuncFacts::compute(func, &fa)
    }
}

/// Innermost (smallest) loop containing `block`, if any.
fn innermost_loop(fa: &FuncAnalysis, block: BlockId) -> Option<&esp_ir::loops::Loop> {
    fa.loops
        .loops()
        .iter()
        .filter(|l| l.contains(block))
        .min_by_key(|l| l.len())
}

/// Whether `reg` is redefined anywhere inside `lp`'s body.
fn defined_in_loop(func: &Function, lp: &esp_ir::loops::Loop, reg: Reg) -> bool {
    for (bi, in_body) in lp.body.iter().enumerate() {
        if !in_body {
            continue;
        }
        let bb = func.block(BlockId(bi as u32));
        if bb.insns.iter().any(|i| i.def() == Some(reg)) {
            return true;
        }
        if matches!(&bb.term, Terminator::Call { dst: Some(d), .. } if *d == reg) {
            return true;
        }
    }
    false
}

fn invariant_in_loop(
    func: &Function,
    fa: &FuncAnalysis,
    block: BlockId,
    cond_regs: &[Reg],
) -> bool {
    let Some(lp) = innermost_loop(fa, block) else {
        return false;
    };
    !cond_regs.is_empty() && cond_regs.iter().all(|&r| !defined_in_loop(func, lp, r))
}

fn classify_pointer_test(
    func: &Function,
    fa: &FuncAnalysis,
    itv: &IntervalOutcome,
    block: BlockId,
) -> PointerTest {
    let bb = func.block(block);
    let Some(ec) = effective_compare(bb) else {
        return PointerTest::No;
    };
    let is_null_cmp = !ec.is_float
        && matches!(ec.op, esp_ir::CmpOp::Eq | esp_ir::CmpOp::Ne)
        && ec.rhs == CompareRhs::Imm(0)
        && fa.pointers.is_pointer(ec.lhs);
    if !is_null_cmp {
        return PointerTest::No;
    }
    match itv.range_at_exit(block, ec.lhs) {
        Some(r) if r.lo >= 1 || r.hi <= -1 => PointerTest::ProvenNonNull,
        _ => PointerTest::Unproven,
    }
}

/// A guard is a loop branch with exactly one exit arm whose comparison pits
/// a loop-varying side against a loop-invariant side.
fn classify_guard(
    func: &Function,
    fa: &FuncAnalysis,
    block: BlockId,
    taken: BlockId,
    not_taken: BlockId,
) -> (bool, bool) {
    if !fa.loops.in_loop(block) {
        return (false, false);
    }
    let taken_exits = fa.loops.is_exit_edge(block, taken);
    let not_taken_exits = fa.loops.is_exit_edge(block, not_taken);
    if taken_exits == not_taken_exits {
        return (false, false);
    }
    let bb = func.block(block);
    let Some(ec) = effective_compare(bb) else {
        return (false, false);
    };
    if ec.is_float {
        return (false, false);
    }
    let Some(lp) = innermost_loop(fa, block) else {
        return (false, false);
    };
    let lhs_varies = defined_in_loop(func, lp, ec.lhs);
    let rhs_varies = match ec.rhs {
        CompareRhs::Imm(_) => false,
        CompareRhs::Reg(r) => defined_in_loop(func, lp, r),
    };
    let guard = lhs_varies != rhs_varies;
    (guard, guard && !taken_exits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_ir::builder::FunctionBuilder;
    use esp_ir::insn::{AluOp, CmpOp, Insn};
    use esp_ir::term::BranchOp;
    use esp_ir::Lang;

    /// while (i < n) { i++ } — counted loop with an invariant bound.
    fn counted_loop() -> Function {
        let mut b = FunctionBuilder::new("t", 1, Lang::C);
        let n = esp_ir::Reg(0);
        let i = b.fresh_reg();
        let t = b.fresh_reg();
        let e = b.entry_block();
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.push_load_imm(e, i, 0);
        b.set_fallthrough(e, head);
        b.push_cmp(head, CmpOp::Lt, t, i, n);
        b.set_cond_branch(head, BranchOp::Bne, t, None, body, exit);
        b.push_alu_imm(body, AluOp::Add, i, i, 1);
        b.set_jump(body, head);
        b.set_return(exit, None);
        b.finish()
    }

    #[test]
    fn counted_loop_guard_is_detected() {
        let f = counted_loop();
        let facts = FuncFacts::compute_standalone(&f);
        let (block, bf) = facts.branches[0];
        assert_eq!(block, BlockId(1));
        assert_eq!(bf.decided, None, "trip count depends on the parameter");
        assert!(bf.guard, "i < n with invariant n is a loop guard");
        assert!(bf.guard_taken_stays, "taken arm re-enters the loop body");
        assert!(!bf.invariant, "i changes every iteration");
    }

    #[test]
    fn null_test_after_alloc_is_proven_and_decided() {
        let mut b = FunctionBuilder::new("t", 0, Lang::C);
        let p = b.fresh_reg();
        let t = b.fresh_reg();
        let e = b.entry_block();
        let yes = b.new_block();
        let no = b.new_block();
        b.push(e, Insn::AllocImm { dst: p, words: 8 });
        // Mark p pointer-like by dereferencing it on one arm.
        b.push_cmp_imm(e, CmpOp::Eq, t, p, 0);
        b.set_cond_branch(e, BranchOp::Bne, t, None, yes, no);
        b.set_return(yes, None);
        let v = b.fresh_reg();
        b.push_load(no, v, p, 0);
        b.set_return(no, Some(v));
        let f = b.finish();
        let facts = FuncFacts::compute_standalone(&f);
        let (_, bf) = facts.branches[0];
        assert_eq!(bf.pointer_test, PointerTest::ProvenNonNull);
        assert_eq!(bf.decided, Some(false), "null arm never taken");
    }

    #[test]
    fn invariant_branch_inside_loop() {
        // while (i < 100) { if (flag) ...; i++ } — `flag` never changes.
        let mut b = FunctionBuilder::new("t", 1, Lang::C);
        let flag = esp_ir::Reg(0);
        let i = b.fresh_reg();
        let t = b.fresh_reg();
        let e = b.entry_block();
        let head = b.new_block();
        let thn = b.new_block();
        let latch = b.new_block();
        let exit = b.new_block();
        b.push_load_imm(e, i, 0);
        b.set_fallthrough(e, head);
        b.set_cond_branch(head, BranchOp::Bne, flag, None, thn, latch);
        b.set_fallthrough(thn, latch);
        b.push_alu_imm(latch, AluOp::Add, i, i, 1);
        b.push_cmp_imm(latch, CmpOp::Lt, t, i, 100);
        b.set_cond_branch(latch, BranchOp::Bne, t, None, head, exit);
        b.set_return(exit, None);
        let f = b.finish();
        let facts = FuncFacts::compute_standalone(&f);
        let inner = facts
            .branches
            .iter()
            .find(|(b, _)| *b == BlockId(1))
            .map(|(_, bf)| *bf)
            .unwrap();
        assert!(inner.invariant, "flag is never written in the loop");
        let latch_bf = facts
            .branches
            .iter()
            .find(|(b, _)| *b == BlockId(3))
            .map(|(_, bf)| *bf)
            .unwrap();
        assert!(!latch_bf.invariant);
        assert!(latch_bf.guard);
        assert!(latch_bf.guard_taken_stays);
    }
}
