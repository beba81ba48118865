//! Bundled per-function and per-program analyses, shared by the heuristic
//! predictors and the ESP feature extractor.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::loops::LoopInfo;
use crate::pointer::PointerSet;
use crate::program::{BlockId, FuncId, Function, Program};
use crate::term::Terminator;

/// All analyses of a single function, computed once.
#[derive(Debug, Clone)]
pub struct FuncAnalysis {
    /// Control-flow graph.
    pub cfg: Cfg,
    /// Dominator tree.
    pub dom: DomTree,
    /// Post-dominator tree.
    pub pdom: DomTree,
    /// Natural loops, Ball–Larus definition.
    pub loops: LoopInfo,
    /// Pointer-like registers.
    pub pointers: PointerSet,
    /// Per block: contains a call or unconditionally passes control to a
    /// block that does (Table 2, feature 16 closure).
    pub reaches_call: Vec<bool>,
    /// Per block: contains a return or unconditionally passes control to one.
    pub reaches_return: Vec<bool>,
    /// Per block: contains a store instruction.
    pub has_store: Vec<bool>,
}

impl FuncAnalysis {
    /// Analyse one function.
    pub fn analyze(func: &Function) -> Self {
        let cfg = Cfg::new(func);
        let dom = DomTree::dominators(&cfg);
        let pdom = DomTree::postdominators(&cfg);
        let loops = LoopInfo::new(&cfg, &dom);
        let pointers = PointerSet::analyze(func);

        let n = func.num_blocks();
        let has_store: Vec<bool> = func.blocks.iter().map(|b| b.contains_store()).collect();
        let direct_call: Vec<bool> = func
            .blocks
            .iter()
            .map(|b| matches!(b.term, Terminator::Call { .. }))
            .collect();
        let direct_return: Vec<bool> = func
            .blocks
            .iter()
            .map(|b| matches!(b.term, Terminator::Return { .. }))
            .collect();

        let closure = |direct: &[bool]| -> Vec<bool> {
            let mut out = vec![false; n];
            for (b, reaches) in out.iter_mut().enumerate() {
                let mut cur = BlockId(b as u32);
                let mut steps = 0usize;
                loop {
                    if direct[cur.index()] {
                        *reaches = true;
                        break;
                    }
                    match func.block(cur).term.sole_successor() {
                        Some(next) if steps <= n => {
                            cur = next;
                            steps += 1;
                        }
                        _ => break,
                    }
                }
            }
            out
        };

        FuncAnalysis {
            cfg,
            dom,
            pdom,
            loops,
            pointers,
            reaches_call: closure(&direct_call),
            reaches_return: closure(&direct_return),
            has_store,
        }
    }

    /// Whether the *taken* target lies at or before the branch block in
    /// layout order — i.e. the branch is a backward branch (Table 2,
    /// feature 2; the BTFNT bit).
    pub fn is_backward(&self, branch_block: BlockId, taken: BlockId) -> bool {
        taken.0 <= branch_block.0
    }
}

/// Analyses for every function of a program.
#[derive(Debug)]
pub struct ProgramAnalysis {
    funcs: Vec<FuncAnalysis>,
}

impl ProgramAnalysis {
    /// Analyse all functions of `prog`.
    pub fn analyze(prog: &Program) -> Self {
        ProgramAnalysis {
            funcs: prog.funcs.iter().map(FuncAnalysis::analyze).collect(),
        }
    }

    /// Borrow the analysis of one function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &FuncAnalysis {
        &self.funcs[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::program::{Isa, Lang};
    use crate::term::BranchOp;

    #[test]
    fn closures_follow_unconditional_chains() {
        // b0 (branch) -> b1 -> b2(call) | -> b3(ret)
        let mut b = FunctionBuilder::new("f", 0, Lang::C);
        let c = b.fresh_reg();
        let e = b.entry_block();
        let mid = b.new_block();
        let callb = b.new_block();
        let retb = b.new_block();
        let after = b.new_block();
        b.push_load_imm(e, c, 1);
        b.set_cond_branch(e, BranchOp::Bne, c, None, mid, retb);
        b.set_jump(mid, callb);
        b.set_call(callb, crate::program::FuncId(0), vec![], None, after);
        b.set_return(after, None);
        b.set_return(retb, None);
        let f = b.finish();
        let a = FuncAnalysis::analyze(&f);
        assert!(a.reaches_call[1], "mid passes unconditionally to a call");
        assert!(a.reaches_call[2]);
        assert!(!a.reaches_call[3]);
        assert!(a.reaches_return[3]);
        assert!(!a.reaches_return[2], "call blocks don't chain to return");
    }

    #[test]
    fn backwardness_uses_layout_order() {
        let mut b = FunctionBuilder::new("f", 0, Lang::C);
        let c = b.fresh_reg();
        let e = b.entry_block();
        let next = b.new_block();
        b.push_load_imm(e, c, 0);
        b.set_fallthrough(e, next);
        b.set_cond_branch(next, BranchOp::Bne, c, None, e, next);
        let f = b.finish();
        let a = FuncAnalysis::analyze(&f);
        assert!(a.is_backward(BlockId(1), BlockId(0)));
        assert!(
            a.is_backward(BlockId(1), BlockId(1)),
            "self-loop is backward"
        );
        assert!(!a.is_backward(BlockId(0), BlockId(1)));
    }

    #[test]
    fn program_analysis_indexes_functions() {
        let mk = |name: &str| {
            let mut b = FunctionBuilder::new(name, 0, Lang::C);
            let e = b.entry_block();
            b.set_return(e, None);
            b.finish()
        };
        let prog = Program {
            name: "p".into(),
            funcs: vec![mk("main"), mk("g")],
            main: FuncId(0),
            isa: Isa::Alpha,
        };
        let pa = ProgramAnalysis::analyze(&prog);
        assert_eq!(pa.func(FuncId(1)).cfg.num_blocks(), 1);
    }

    use crate::program::FuncId;
}
