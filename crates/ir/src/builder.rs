//! Convenience builder for constructing [`Function`]s.

use crate::insn::{AluOp, CmpOp, FpuOp, Insn};
use crate::program::{BasicBlock, BlockId, FuncId, Function, Lang, Reg};
use crate::term::{BranchOp, Terminator};

/// Incrementally builds a [`Function`].
///
/// Blocks are created with [`FunctionBuilder::new_block`] and initially end
/// in a placeholder fall-through to themselves; every block's terminator must
/// be set with one of the `set_*` methods before [`FunctionBuilder::finish`].
///
/// # Example
///
/// ```
/// use esp_ir::{FunctionBuilder, Lang};
/// let mut b = FunctionBuilder::new("id", 1, Lang::C);
/// let arg = b.params()[0];
/// let entry = b.entry_block();
/// b.set_return(entry, Some(arg));
/// let f = b.finish();
/// assert_eq!(f.params.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FunctionBuilder {
    name: String,
    params: Vec<Reg>,
    blocks: Vec<BasicBlock>,
    term_set: Vec<bool>,
    next_reg: u32,
    lang: Lang,
}

impl FunctionBuilder {
    /// Start a function with `num_params` parameters; parameter registers are
    /// `r0..r{num_params}`. The entry block (block 0) is created implicitly.
    pub fn new(name: impl Into<String>, num_params: u32, lang: Lang) -> Self {
        let params = (0..num_params).map(Reg).collect();
        FunctionBuilder {
            name: name.into(),
            params,
            blocks: vec![BasicBlock {
                insns: Vec::new(),
                term: Terminator::FallThrough { target: BlockId(0) },
            }],
            term_set: vec![false],
            next_reg: num_params,
            lang,
        }
    }

    /// The parameter registers, in order.
    pub fn params(&self) -> &[Reg] {
        &self.params
    }

    /// The entry block id (block 0).
    pub fn entry_block(&self) -> BlockId {
        BlockId(0)
    }

    /// Allocate a fresh virtual register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Append a new block (in layout order) and return its id.
    pub fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock {
            insns: Vec::new(),
            term: Terminator::FallThrough { target: id },
        });
        self.term_set.push(false);
        id
    }

    /// Append an arbitrary instruction to `block`.
    pub fn push(&mut self, block: BlockId, insn: Insn) {
        self.blocks[block.index()].insns.push(insn);
    }

    /// Append `dst = a <op> b`.
    pub fn push_alu(&mut self, block: BlockId, op: AluOp, dst: Reg, a: Reg, b: Reg) {
        self.push(block, Insn::Alu { op, dst, a, b });
    }

    /// Append `dst = a <op> imm`.
    pub fn push_alu_imm(&mut self, block: BlockId, op: AluOp, dst: Reg, a: Reg, imm: i64) {
        self.push(block, Insn::AluImm { op, dst, a, imm });
    }

    /// Append `dst = (a <op> b)`.
    pub fn push_cmp(&mut self, block: BlockId, op: CmpOp, dst: Reg, a: Reg, b: Reg) {
        self.push(block, Insn::Cmp { op, dst, a, b });
    }

    /// Append `dst = (a <op> imm)`.
    pub fn push_cmp_imm(&mut self, block: BlockId, op: CmpOp, dst: Reg, a: Reg, imm: i64) {
        self.push(block, Insn::CmpImm { op, dst, a, imm });
    }

    /// Append a floating-point operation.
    pub fn push_fpu(&mut self, block: BlockId, op: FpuOp, dst: Reg, a: Reg, b: Option<Reg>) {
        self.push(block, Insn::Fpu { op, dst, a, b });
    }

    /// Append `dst = imm`.
    pub fn push_load_imm(&mut self, block: BlockId, dst: Reg, imm: i64) {
        self.push(block, Insn::LoadImm { dst, imm });
    }

    /// Append `dst = mem[base + offset]`.
    pub fn push_load(&mut self, block: BlockId, dst: Reg, base: Reg, offset: i64) {
        self.push(block, Insn::Load { dst, base, offset });
    }

    /// Append `mem[base + offset] = src`.
    pub fn push_store(&mut self, block: BlockId, src: Reg, base: Reg, offset: i64) {
        self.push(block, Insn::Store { src, base, offset });
    }

    /// End `block` by falling through to `target`.
    pub fn set_fallthrough(&mut self, block: BlockId, target: BlockId) {
        self.set_term(block, Terminator::FallThrough { target });
    }

    /// End `block` with an unconditional jump.
    pub fn set_jump(&mut self, block: BlockId, target: BlockId) {
        self.set_term(block, Terminator::Jump { target });
    }

    /// End `block` with a two-way conditional branch.
    pub fn set_cond_branch(
        &mut self,
        block: BlockId,
        op: BranchOp,
        rs: Reg,
        rt: Option<Reg>,
        taken: BlockId,
        not_taken: BlockId,
    ) {
        self.set_term(
            block,
            Terminator::CondBranch {
                op,
                rs,
                rt,
                taken,
                not_taken,
            },
        );
    }

    /// End `block` with a call; execution resumes at `next`.
    pub fn set_call(
        &mut self,
        block: BlockId,
        callee: FuncId,
        args: Vec<Reg>,
        dst: Option<Reg>,
        next: BlockId,
    ) {
        self.set_term(
            block,
            Terminator::Call {
                callee,
                args,
                dst,
                next,
            },
        );
    }

    /// End `block` with a multi-way indirect jump.
    pub fn set_switch(
        &mut self,
        block: BlockId,
        index: Reg,
        targets: Vec<BlockId>,
        default: BlockId,
    ) {
        self.set_term(
            block,
            Terminator::Switch {
                index,
                targets,
                default,
            },
        );
    }

    /// End `block` with a return.
    pub fn set_return(&mut self, block: BlockId, value: Option<Reg>) {
        self.set_term(block, Terminator::Return { value });
    }

    /// Set an arbitrary terminator.
    fn set_term(&mut self, block: BlockId, term: Terminator) {
        self.blocks[block.index()].term = term;
        self.term_set[block.index()] = true;
    }

    /// Finish building.
    ///
    /// # Panics
    ///
    /// Panics if any block's terminator was never set; that is always a bug
    /// in the code generator.
    pub fn finish(self) -> Function {
        for (i, set) in self.term_set.iter().enumerate() {
            assert!(
                *set,
                "block b{i} of function `{}` has no terminator",
                self.name
            );
        }
        Function {
            name: self.name,
            params: self.params,
            blocks: self.blocks,
            num_regs: self.next_reg,
            lang: self.lang,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_function() {
        let mut b = FunctionBuilder::new("f", 2, Lang::Fort);
        assert_eq!(b.params().len(), 2);
        let r = b.fresh_reg();
        assert_eq!(r, Reg(2));
        let e = b.entry_block();
        b.push_alu(e, AluOp::Add, r, Reg(0), Reg(1));
        b.set_return(e, Some(r));
        let f = b.finish();
        assert_eq!(f.num_regs, 3);
        assert_eq!(f.lang, Lang::Fort);
        assert_eq!(f.blocks[0].insns.len(), 1);
    }

    #[test]
    #[should_panic(expected = "no terminator")]
    fn finish_panics_on_unterminated_block() {
        let mut b = FunctionBuilder::new("f", 0, Lang::C);
        let _ = b.new_block();
        let e = b.entry_block();
        b.set_return(e, None);
        let _ = b.finish();
    }
}
