//! Core IR data types: registers, blocks, functions and whole programs.

use std::fmt;

use crate::insn::Insn;
use crate::term::Terminator;

/// A virtual register index, local to a [`Function`].
///
/// Registers are untyped at the IR level; the interpreter in `esp-exec`
/// assigns runtime values (integers, floats or pointers) dynamically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u32);

impl Reg {
    /// The register's index, usable to address side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Index of a basic block inside a [`Function`].
///
/// Block indices double as *layout order*: block `i + 1` is laid out directly
/// after block `i` in the (conceptual) object code, which is what the
/// forward/backward branch-direction feature (Table 2, feature 2) is defined
/// against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block's index into [`Function::blocks`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Index of a function inside a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The function's index into [`Program::funcs`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Identifies one static conditional-branch site: the block of `func` whose
/// terminator is a [`Terminator::CondBranch`].
///
/// This is the unit the whole study works over — features are extracted per
/// `BranchId`, profiles record taken/not-taken counts per `BranchId`, and
/// predictors emit one taken/not-taken bit per `BranchId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchId {
    /// Function containing the branch.
    pub func: FuncId,
    /// Block whose terminator is the conditional branch.
    pub block: BlockId,
}

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.func, self.block)
    }
}

/// Source language a function was compiled from (Table 2, feature 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Lang {
    /// The C-like surface language ("Cee").
    #[default]
    C,
    /// The Fortran-like surface language ("Fort").
    Fort,
}

impl fmt::Display for Lang {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lang::C => write!(f, "C"),
            Lang::Fort => write!(f, "FORT"),
        }
    }
}

/// Instruction-set flavour a program was compiled for.
///
/// The paper's cross-architecture study (§5.2, Table 6) hinges on exactly the
/// differences modelled here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Isa {
    /// Alpha-like: conditional branches test a single register against zero
    /// (a separate compare instruction materialises the condition), and the
    /// code generator may use conditional moves instead of short branches.
    #[default]
    Alpha,
    /// MIPS-like: conditional branches compare two registers directly and no
    /// conditional move instruction exists.
    Mips,
}

impl fmt::Display for Isa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Isa::Alpha => write!(f, "Alpha"),
            Isa::Mips => write!(f, "MIPS"),
        }
    }
}

/// Procedure classification (Table 2, feature 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcKind {
    /// Calls no other procedure.
    Leaf,
    /// Calls at least one other procedure but not itself.
    NonLeaf,
    /// Calls itself (directly) — recursion.
    CallSelf,
}

impl fmt::Display for ProcKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcKind::Leaf => write!(f, "Leaf"),
            ProcKind::NonLeaf => write!(f, "NonLeaf"),
            ProcKind::CallSelf => write!(f, "CallSelf"),
        }
    }
}

/// A straight-line sequence of instructions ended by a single terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    /// Non-control-transfer instructions, in execution order.
    pub insns: Vec<Insn>,
    /// The control transfer ending the block.
    pub term: Terminator,
}

impl BasicBlock {
    /// Whether any instruction in the block is a store.
    pub fn contains_store(&self) -> bool {
        self.insns.iter().any(|i| matches!(i, Insn::Store { .. }))
    }
}

/// A single procedure: a list of basic blocks in layout order.
///
/// Block 0 is the entry. `params` names the registers that receive the
/// arguments on call; they count into `num_regs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Procedure name (unique within a [`Program`]).
    pub name: String,
    /// Registers receiving the call arguments, in order.
    pub params: Vec<Reg>,
    /// Basic blocks in layout order. `blocks[0]` is the entry block.
    pub blocks: Vec<BasicBlock>,
    /// Number of virtual registers used (all `Reg` indices are `< num_regs`).
    pub num_regs: u32,
    /// Source language of the procedure (Table 2, feature 7).
    pub lang: Lang,
}

impl Function {
    /// The entry block id (always block 0).
    #[inline]
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Borrow a block by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Number of basic blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Iterate over `(BlockId, &BasicBlock)` pairs in layout order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &BasicBlock)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Ids of all blocks ending in a two-way conditional branch.
    fn branch_blocks(&self) -> Vec<BlockId> {
        self.iter_blocks()
            .filter(|(_, b)| matches!(b.term, Terminator::CondBranch { .. }))
            .map(|(id, _)| id)
            .collect()
    }

    /// Total number of IR instructions including terminators.
    pub fn num_insns(&self) -> usize {
        self.blocks.iter().map(|b| b.insns.len() + 1).sum()
    }
}

/// A whole program: functions plus designated `main`.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name (e.g. the corpus benchmark name).
    pub name: String,
    /// All procedures. Indices are [`FuncId`]s.
    pub funcs: Vec<Function>,
    /// The function executed first; must take no parameters.
    pub main: FuncId,
    /// ISA flavour this program was compiled for.
    pub isa: Isa,
}

impl Program {
    /// Borrow a function by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Iterate over `(FuncId, &Function)` pairs.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// All static conditional-branch sites in the program, in a deterministic
    /// (function, block) order.
    pub fn branch_sites(&self) -> Vec<BranchId> {
        let mut out = Vec::new();
        for (fid, f) in self.iter_funcs() {
            for block in f.branch_blocks() {
                out.push(BranchId { func: fid, block });
            }
        }
        out
    }

    /// Classify a procedure as leaf / non-leaf / self-recursive
    /// (Table 2, feature 8).
    pub fn proc_kind(&self, id: FuncId) -> ProcKind {
        let f = self.func(id);
        let mut calls_any = false;
        let mut calls_self = false;
        for b in &f.blocks {
            if let Terminator::Call { callee, .. } = &b.term {
                calls_any = true;
                if *callee == id {
                    calls_self = true;
                }
            }
        }
        if calls_self {
            ProcKind::CallSelf
        } else if calls_any {
            ProcKind::NonLeaf
        } else {
            ProcKind::Leaf
        }
    }

    /// Total static IR instruction count, including terminators.
    pub fn num_insns(&self) -> usize {
        self.funcs.iter().map(Function::num_insns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::term::BranchOp;

    fn trivial_func(name: &str) -> Function {
        let mut b = FunctionBuilder::new(name, 0, Lang::C);
        let e = b.entry_block();
        b.set_return(e, None);
        b.finish()
    }

    #[test]
    fn reg_and_ids_display() {
        assert_eq!(Reg(3).to_string(), "r3");
        assert_eq!(BlockId(7).to_string(), "b7");
        assert_eq!(FuncId(1).to_string(), "f1");
        let b = BranchId {
            func: FuncId(1),
            block: BlockId(2),
        };
        assert_eq!(b.to_string(), "f1:b2");
    }

    #[test]
    fn branch_sites_enumerates_cond_branches_only() {
        let mut b = FunctionBuilder::new("f", 0, Lang::C);
        let r = b.fresh_reg();
        let e = b.entry_block();
        let t = b.new_block();
        let n = b.new_block();
        b.push_load_imm(e, r, 1);
        b.set_cond_branch(e, BranchOp::Bne, r, None, t, n);
        b.set_return(t, None);
        b.set_return(n, None);
        let f = b.finish();
        let prog = Program {
            name: "p".into(),
            funcs: vec![f],
            main: FuncId(0),
            isa: Isa::Alpha,
        };
        let sites = prog.branch_sites();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].block, BlockId(0));
    }

    #[test]
    fn proc_kind_classification() {
        // leaf
        let leaf = trivial_func("leaf");
        // non-leaf: calls leaf
        let mut b = FunctionBuilder::new("outer", 0, Lang::C);
        let e = b.entry_block();
        let k = b.new_block();
        b.set_call(e, FuncId(0), vec![], None, k);
        b.set_return(k, None);
        let outer = b.finish();
        // self-recursive
        let mut b = FunctionBuilder::new("rec", 0, Lang::C);
        let e = b.entry_block();
        let k = b.new_block();
        b.set_call(e, FuncId(2), vec![], None, k);
        b.set_return(k, None);
        let rec = b.finish();

        let prog = Program {
            name: "p".into(),
            funcs: vec![leaf, outer, rec],
            main: FuncId(1),
            isa: Isa::Alpha,
        };
        assert_eq!(prog.proc_kind(FuncId(0)), ProcKind::Leaf);
        assert_eq!(prog.proc_kind(FuncId(1)), ProcKind::NonLeaf);
        assert_eq!(prog.proc_kind(FuncId(2)), ProcKind::CallSelf);
    }
}
