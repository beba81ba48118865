//! The nine Ball–Larus heuristics (the paper's Table 1) and BTFNT.

use esp_ir::defuse::{branch_compare_regs, effective_compare, used_before_def, CompareRhs};
use esp_ir::CmpOp;

use crate::ctx::BranchCtx;

/// Backward-taken / forward-not-taken: predict taken exactly when the branch
/// is backward. Covers every branch ("relies solely on the sign bit of the
/// branch displacement").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Btfnt;

impl Btfnt {
    /// BTFNT's prediction (always defined).
    pub fn predict(&self, ctx: &BranchCtx<'_>) -> bool {
        ctx.is_backward()
    }
}

/// One Ball–Larus heuristic, as defined in the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Predict that the edge back to the loop's head is taken and the edge
    /// exiting the loop is not taken.
    LoopBranch,
    /// If a branch compares a pointer against null or compares two pointers,
    /// predict the branch on false condition as taken.
    Pointer,
    /// If a branch checks an integer for less than zero, less than or equal
    /// to zero, or equal to a constant, predict the branch on false
    /// condition.
    Opcode,
    /// If a register is an operand of the branch comparison, the register is
    /// used before being defined in a successor block, and the successor
    /// block does not post-dominate the branch, predict the successor block
    /// as taken.
    Guard,
    /// If a comparison is inside a loop and no successor is a loop head,
    /// predict the edge exiting the loop as not taken.
    LoopExit,
    /// Predict the successor that does not post-dominate and is a loop
    /// header or a loop pre-header as taken.
    LoopHeader,
    /// Predict the successor that contains a call and does not post-dominate
    /// the branch as taken.
    Call,
    /// Predict the successor that contains a store instruction and does not
    /// post-dominate the branch as not taken.
    Store,
    /// Predict the successor that contains a return as not taken.
    Return,
}

impl Heuristic {
    /// All heuristics in the order of the paper's Table 1 — the fixed
    /// application order used for APHC.
    pub const TABLE1_ORDER: [Heuristic; 9] = [
        Heuristic::LoopBranch,
        Heuristic::Pointer,
        Heuristic::Opcode,
        Heuristic::Guard,
        Heuristic::LoopExit,
        Heuristic::LoopHeader,
        Heuristic::Call,
        Heuristic::Store,
        Heuristic::Return,
    ];

    /// A stable dense index for side tables.
    pub fn ordinal(self) -> usize {
        Heuristic::TABLE1_ORDER
            .iter()
            .position(|h| *h == self)
            .expect("heuristic present in TABLE1_ORDER")
    }

    /// Short display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Heuristic::LoopBranch => "Loop Branch",
            Heuristic::Pointer => "Pointer",
            Heuristic::Opcode => "Opcode",
            Heuristic::Guard => "Guard",
            Heuristic::LoopExit => "Loop Exit",
            Heuristic::LoopHeader => "Loop Header",
            Heuristic::Call => "Call",
            Heuristic::Store => "Store",
            Heuristic::Return => "Return",
        }
    }

    /// Apply the heuristic: `Some(true)` = predict taken, `Some(false)` =
    /// predict not taken, `None` = does not apply to this branch.
    pub fn predict(self, ctx: &BranchCtx<'_>) -> Option<bool> {
        let (taken, not_taken) = ctx.arms();
        let block = ctx.site.block;
        let a = ctx.analysis;
        match self {
            Heuristic::LoopBranch => {
                if a.loops.is_back_edge(block, taken) {
                    Some(true)
                } else if a.loops.is_back_edge(block, not_taken) {
                    Some(false)
                } else {
                    None
                }
            }
            Heuristic::Pointer => {
                let ec = effective_compare(ctx.block())?;
                if ec.is_float {
                    return None;
                }
                let lhs_ptr = a.pointers.is_pointer(ec.lhs);
                let involves_pointers = match ec.rhs {
                    CompareRhs::Reg(r) => lhs_ptr && a.pointers.is_pointer(r),
                    CompareRhs::Imm(0) => lhs_ptr, // p == null / p != null
                    CompareRhs::Imm(_) => false,
                };
                if !involves_pointers {
                    return None;
                }
                // Pointers are rarely equal/null: the == comparison is
                // false, the != comparison is true. `taken iff (lhs op rhs)`.
                match ec.op {
                    CmpOp::Eq => Some(false),
                    CmpOp::Ne => Some(true),
                    _ => None,
                }
            }
            Heuristic::Opcode => {
                let ec = effective_compare(ctx.block())?;
                if ec.is_float || a.pointers.is_pointer(ec.lhs) {
                    return None;
                }
                // `x < 0`, `x <= 0`, `x == c`: predict the comparison false,
                // i.e. the branch taken exactly when the *negated* form
                // appears.
                match (ec.op, ec.rhs) {
                    (CmpOp::Lt, CompareRhs::Imm(0)) | (CmpOp::Le, CompareRhs::Imm(0)) => {
                        Some(false)
                    }
                    (CmpOp::Ge, CompareRhs::Imm(0)) | (CmpOp::Gt, CompareRhs::Imm(0)) => Some(true),
                    (CmpOp::Eq, CompareRhs::Imm(_)) => Some(false),
                    (CmpOp::Ne, CompareRhs::Imm(_)) => Some(true),
                    _ => None,
                }
            }
            Heuristic::Guard => {
                let regs = branch_compare_regs(ctx.block());
                if regs.is_empty() {
                    return None;
                }
                let applies = |succ| {
                    !ctx.postdominates(succ)
                        && regs
                            .iter()
                            .any(|r| used_before_def(ctx.func.block(succ), *r))
                };
                if applies(taken) {
                    Some(true)
                } else if applies(not_taken) {
                    Some(false)
                } else {
                    None
                }
            }
            Heuristic::LoopExit => {
                if !a.loops.in_loop(block)
                    || a.loops.is_header(taken)
                    || a.loops.is_header(not_taken)
                {
                    return None;
                }
                if a.loops.is_exit_edge(block, taken) {
                    Some(false)
                } else if a.loops.is_exit_edge(block, not_taken) {
                    Some(true)
                } else {
                    None
                }
            }
            Heuristic::LoopHeader => {
                let applies = |succ| a.loops.leads_to_header(succ) && !ctx.postdominates(succ);
                if applies(taken) {
                    Some(true)
                } else if applies(not_taken) {
                    Some(false)
                } else {
                    None
                }
            }
            Heuristic::Call => {
                let applies = |succ: esp_ir::BlockId| {
                    a.reaches_call[succ.index()] && !ctx.postdominates(succ)
                };
                if applies(taken) {
                    Some(true)
                } else if applies(not_taken) {
                    Some(false)
                } else {
                    None
                }
            }
            Heuristic::Store => {
                let applies =
                    |succ: esp_ir::BlockId| a.has_store[succ.index()] && !ctx.postdominates(succ);
                if applies(taken) {
                    Some(false)
                } else if applies(not_taken) {
                    Some(true)
                } else {
                    None
                }
            }
            Heuristic::Return => {
                let applies = |succ: esp_ir::BlockId| a.reaches_return[succ.index()];
                if applies(taken) {
                    Some(false)
                } else if applies(not_taken) {
                    Some(true)
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_ir::{Lang, ProgramAnalysis};
    use esp_lang::{compile_source, CompilerConfig};

    /// Compile without if-conversion: several tests inspect short guarded
    /// assignments that the Alpha if-converter would (correctly) turn into
    /// conditional moves, removing the branch under test.
    fn contexts(src: &str) -> (esp_ir::Program, ProgramAnalysis) {
        let prog = compile_source("t", src, Lang::C, &CompilerConfig::gnu()).expect("compiles");
        let analysis = ProgramAnalysis::analyze(&prog);
        (prog, analysis)
    }

    /// Collect predictions of `h` over all branch sites.
    fn predictions(
        prog: &esp_ir::Program,
        analysis: &ProgramAnalysis,
        h: Heuristic,
    ) -> Vec<Option<bool>> {
        prog.branch_sites()
            .into_iter()
            .map(|s| h.predict(&BranchCtx::new(prog, analysis, s)))
            .collect()
    }

    #[test]
    fn loop_branch_predicts_back_edge_taken() {
        let (prog, analysis) = contexts(
            "int main() { int i = 0; int s = 0; while (i < 100) { s = s + i; i = i + 1; } return s; }",
        );
        let preds = predictions(&prog, &analysis, Heuristic::LoopBranch);
        // the rotated loop has a bottom-test branch whose taken edge is the
        // back edge
        assert!(
            preds.contains(&Some(true)),
            "no loop branch found: {preds:?}"
        );
    }

    #[test]
    fn pointer_heuristic_on_null_checks() {
        let (prog, analysis) = contexts(
            r#"
            int main() {
                int *p = alloc_int(8);
                int s = 0;
                int i;
                for (i = 0; i < 8; i = i + 1) { p[i] = i; }
                if (p == null) { s = 0 - 1; }
                if (p != null) { s = s + p[3]; }
                return s;
            }
            "#,
        );
        let preds = predictions(&prog, &analysis, Heuristic::Pointer);
        // `p == null` → comparison false → some prediction; `p != null` →
        // comparison true → some prediction; directions must differ in
        // *condition* space but both favour "pointer not null".
        let applied: Vec<bool> = preds.iter().filter_map(|p| *p).collect();
        assert!(
            applied.len() >= 2,
            "pointer heuristic should apply to both null checks: {preds:?}"
        );
    }

    #[test]
    fn opcode_heuristic_on_negative_checks() {
        let (prog, analysis) = contexts(
            r#"
            int main() {
                int x = 5;
                int s = 0;
                if (x < 0) { s = 0 - 1; }
                if (x == 7) { s = 2; }
                return s;
            }
            "#,
        );
        let preds = predictions(&prog, &analysis, Heuristic::Opcode);
        assert!(
            preds.iter().filter(|p| p.is_some()).count() >= 2,
            "opcode heuristic should cover `< 0` and `== const`: {preds:?}"
        );
    }

    #[test]
    fn return_heuristic_predicts_away_from_return() {
        let (prog, analysis) = contexts(
            r#"
            int f(int x) {
                if (x < 0) { return 0 - 1; }
                return x * 2;
            }
            int main() { return f(21); }
            "#,
        );
        let preds = predictions(&prog, &analysis, Heuristic::Return);
        // Both successors of the early-exit branch eventually return, but at
        // least one branch must be covered.
        assert!(
            preds.iter().any(|p| p.is_some()),
            "return heuristic never applied"
        );
    }

    #[test]
    fn call_and_store_heuristics_apply() {
        let (prog, analysis) = contexts(
            r#"
            void log_error(int code) { int sink[1]; sink[0] = code; }
            int main() {
                int a[4];
                int x = 3;
                if (x > 100) { log_error(x); }
                if (x > 50) { a[0] = x; }
                return a[0];
            }
            "#,
        );
        assert!(
            predictions(&prog, &analysis, Heuristic::Call)
                .iter()
                .any(|p| p.is_some()),
            "call heuristic never applied"
        );
        assert!(
            predictions(&prog, &analysis, Heuristic::Store)
                .iter()
                .any(|p| p.is_some()),
            "store heuristic never applied"
        );
    }

    #[test]
    fn loop_exit_and_header_apply() {
        let (prog, analysis) = contexts(
            r#"
            int main() {
                int i = 0;
                int s = 0;
                while (i < 100) {
                    if (s > 1000) { break; }
                    s = s + i;
                    i = i + 1;
                }
                while (s > 0) { s = s - 7; }
                return s;
            }
            "#,
        );
        assert!(
            predictions(&prog, &analysis, Heuristic::LoopExit)
                .iter()
                .any(|p| p.is_some()),
            "loop-exit heuristic never applied (break inside loop)"
        );
        assert!(
            predictions(&prog, &analysis, Heuristic::LoopHeader)
                .iter()
                .any(|p| p.is_some()),
            "loop-header heuristic never applied"
        );
    }

    #[test]
    fn guard_heuristic_applies_to_guarded_use() {
        let (prog, analysis) = contexts(
            r#"
            int main() {
                int x = 9;
                int y = 0;
                if (x != 0) { y = 100 / x; }
                return y;
            }
            "#,
        );
        let preds = predictions(&prog, &analysis, Heuristic::Guard);
        assert!(
            preds.iter().any(|p| p.is_some()),
            "guard heuristic never applied: {preds:?}"
        );
    }

    #[test]
    fn btfnt_tracks_direction() {
        let (prog, analysis) =
            contexts("int main() { int i = 0; while (i < 10) { i = i + 1; } return i; }");
        let sites = prog.branch_sites();
        let backward: Vec<bool> = sites
            .iter()
            .map(|s| Btfnt.predict(&BranchCtx::new(&prog, &analysis, *s)))
            .collect();
        // rotated loop: the latch branch is backward => predicted taken
        assert!(
            backward.iter().any(|b| *b),
            "no backward branch: {backward:?}"
        );
    }

    #[test]
    fn ordinals_are_dense() {
        for (i, h) in Heuristic::TABLE1_ORDER.iter().enumerate() {
            assert_eq!(h.ordinal(), i);
            assert!(!h.name().is_empty());
        }
    }
}
