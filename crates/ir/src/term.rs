//! Block terminators (control-transfer instructions).

use std::fmt;

use crate::program::{BlockId, FuncId, Reg};

/// Conditional-branch opcodes.
///
/// When the terminator carries a second register (`rt`), the branch compares
/// `rs` against `rt` (MIPS flavour); otherwise it compares `rs` against zero
/// (Alpha flavour). `Fb*` variants test a floating-point register against
/// zero (Alpha `FBxx`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BranchOp {
    Beq,
    Bne,
    Blt,
    Ble,
    Bgt,
    Bge,
    Fbeq,
    Fbne,
    Fblt,
    Fble,
    Fbgt,
    Fbge,
}

impl BranchOp {
    /// All branch opcodes, in a fixed order suitable for one-hot encoding.
    pub const ALL: [BranchOp; 12] = [
        BranchOp::Beq,
        BranchOp::Bne,
        BranchOp::Blt,
        BranchOp::Ble,
        BranchOp::Bgt,
        BranchOp::Bge,
        BranchOp::Fbeq,
        BranchOp::Fbne,
        BranchOp::Fblt,
        BranchOp::Fble,
        BranchOp::Fbgt,
        BranchOp::Fbge,
    ];

    /// A stable small integer for this opcode, usable as a one-hot index.
    pub fn ordinal(self) -> usize {
        BranchOp::ALL
            .iter()
            .position(|o| *o == self)
            .expect("branch opcode present in ALL")
    }

    /// Whether this opcode tests a floating-point register.
    pub fn is_float(self) -> bool {
        matches!(
            self,
            BranchOp::Fbeq
                | BranchOp::Fbne
                | BranchOp::Fblt
                | BranchOp::Fble
                | BranchOp::Fbgt
                | BranchOp::Fbge
        )
    }

    /// The opcode with the opposite condition (swaps taken/not-taken arms).
    pub fn negate(self) -> BranchOp {
        match self {
            BranchOp::Beq => BranchOp::Bne,
            BranchOp::Bne => BranchOp::Beq,
            BranchOp::Blt => BranchOp::Bge,
            BranchOp::Ble => BranchOp::Bgt,
            BranchOp::Bgt => BranchOp::Ble,
            BranchOp::Bge => BranchOp::Blt,
            BranchOp::Fbeq => BranchOp::Fbne,
            BranchOp::Fbne => BranchOp::Fbeq,
            BranchOp::Fblt => BranchOp::Fbge,
            BranchOp::Fble => BranchOp::Fbgt,
            BranchOp::Fbgt => BranchOp::Fble,
            BranchOp::Fbge => BranchOp::Fblt,
        }
    }
}

impl fmt::Display for BranchOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchOp::Beq => "beq",
            BranchOp::Bne => "bne",
            BranchOp::Blt => "blt",
            BranchOp::Ble => "ble",
            BranchOp::Bgt => "bgt",
            BranchOp::Bge => "bge",
            BranchOp::Fbeq => "fbeq",
            BranchOp::Fbne => "fbne",
            BranchOp::Fblt => "fblt",
            BranchOp::Fble => "fble",
            BranchOp::Fbgt => "fbgt",
            BranchOp::Fbge => "fbge",
        };
        f.write_str(s)
    }
}

/// Kinds of control transfer ending a basic block.
///
/// The variants map onto the "branch type ending successor basic block"
/// feature values of Table 2 (FT, CBR, UBR, BSR, IJUMP, RETURN …); see
/// [`Terminator::kind`].
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Fall through to the next block with no explicit jump (FT).
    FallThrough {
        /// The next block in layout order.
        target: BlockId,
    },
    /// Unconditional jump (UBR).
    Jump {
        /// Jump target.
        target: BlockId,
    },
    /// Two-way conditional branch (CBR).
    ///
    /// Taken when `rs <op> rt` holds (`rt = None` means compare against
    /// zero). The `not_taken` arm is the fall-through successor.
    CondBranch {
        /// Branch condition opcode.
        op: BranchOp,
        /// First compared register.
        rs: Reg,
        /// Second compared register; `None` on the Alpha flavour.
        rt: Option<Reg>,
        /// Successor when the condition holds.
        taken: BlockId,
        /// Fall-through successor when the condition does not hold.
        not_taken: BlockId,
    },
    /// Direct procedure call ending the block (BSR); control resumes at
    /// `next` after the callee returns.
    Call {
        /// The called procedure.
        callee: FuncId,
        /// Argument registers.
        args: Vec<Reg>,
        /// Register receiving the return value, if used.
        dst: Option<Reg>,
        /// Block executed after the call returns.
        next: BlockId,
    },
    /// Indirect multi-way jump through a table (IJUMP) — the lowering of
    /// `switch`. `index` selects `targets[index]`; out-of-range indices go to
    /// `default`.
    Switch {
        /// Selector register.
        index: Reg,
        /// Jump table.
        targets: Vec<BlockId>,
        /// Out-of-range target.
        default: BlockId,
    },
    /// Procedure return (RETURN).
    Return {
        /// Returned value, if any.
        value: Option<Reg>,
    },
}

/// The Table 2 categorical label for a terminator ("branch type ending
/// successor basic block").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum TermKind {
    FallThrough,
    CondBranch,
    UncondBranch,
    CallSub,
    IndirectJump,
    Return,
}

impl TermKind {
    /// All terminator kinds, in a fixed order suitable for one-hot encoding.
    pub const ALL: [TermKind; 6] = [
        TermKind::FallThrough,
        TermKind::CondBranch,
        TermKind::UncondBranch,
        TermKind::CallSub,
        TermKind::IndirectJump,
        TermKind::Return,
    ];

    /// A stable small integer for this kind, usable as a one-hot index.
    pub fn ordinal(self) -> usize {
        TermKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("terminator kind present in ALL")
    }
}

impl fmt::Display for TermKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TermKind::FallThrough => "FT",
            TermKind::CondBranch => "CBR",
            TermKind::UncondBranch => "UBR",
            TermKind::CallSub => "BSR",
            TermKind::IndirectJump => "IJUMP",
            TermKind::Return => "RETURN",
        };
        f.write_str(s)
    }
}

impl Terminator {
    /// Successor blocks in edge order.
    ///
    /// For conditional branches the *taken* successor is listed first, then
    /// the fall-through; profilers and heuristics rely on this order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::FallThrough { target } | Terminator::Jump { target } => vec![*target],
            Terminator::CondBranch {
                taken, not_taken, ..
            } => vec![*taken, *not_taken],
            Terminator::Call { next, .. } => vec![*next],
            Terminator::Switch {
                targets, default, ..
            } => {
                let mut v = targets.clone();
                v.push(*default);
                v
            }
            Terminator::Return { .. } => vec![],
        }
    }

    /// The Table 2 categorical label of this terminator.
    pub fn kind(&self) -> TermKind {
        match self {
            Terminator::FallThrough { .. } => TermKind::FallThrough,
            Terminator::Jump { .. } => TermKind::UncondBranch,
            Terminator::CondBranch { .. } => TermKind::CondBranch,
            Terminator::Call { .. } => TermKind::CallSub,
            Terminator::Switch { .. } => TermKind::IndirectJump,
            Terminator::Return { .. } => TermKind::Return,
        }
    }

    /// Whether the terminator transfers control unconditionally to a single
    /// successor (used by the "unconditionally passes control to" closures in
    /// the Table 2 successor features).
    pub fn sole_successor(&self) -> Option<BlockId> {
        match self {
            Terminator::FallThrough { target } | Terminator::Jump { target } => Some(*target),
            _ => None,
        }
    }

    /// Registers read by the terminator.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Terminator::FallThrough { .. } | Terminator::Jump { .. } => vec![],
            Terminator::CondBranch { rs, rt, .. } => match rt {
                Some(rt) => vec![*rs, *rt],
                None => vec![*rs],
            },
            Terminator::Call { args, .. } => args.clone(),
            Terminator::Switch { index, .. } => vec![*index],
            Terminator::Return { value } => value.iter().copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successor_order_taken_first() {
        let t = Terminator::CondBranch {
            op: BranchOp::Bne,
            rs: Reg(0),
            rt: None,
            taken: BlockId(5),
            not_taken: BlockId(1),
        };
        assert_eq!(t.successors(), vec![BlockId(5), BlockId(1)]);
        assert_eq!(t.kind(), TermKind::CondBranch);
        assert_eq!(t.sole_successor(), None);
    }

    #[test]
    fn branch_negate_is_involution() {
        for op in BranchOp::ALL {
            assert_eq!(op.negate().negate(), op);
            assert_eq!(op.is_float(), op.negate().is_float());
        }
    }

    #[test]
    fn switch_successors_include_default_last() {
        let t = Terminator::Switch {
            index: Reg(0),
            targets: vec![BlockId(1), BlockId(2)],
            default: BlockId(3),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2), BlockId(3)]);
        assert_eq!(t.kind(), TermKind::IndirectJump);
    }

    #[test]
    fn kind_ordinals_are_dense() {
        for (i, k) in TermKind::ALL.iter().enumerate() {
            assert_eq!(k.ordinal(), i);
        }
    }

    #[test]
    fn return_has_no_successors() {
        let t = Terminator::Return {
            value: Some(Reg(0)),
        };
        assert!(t.successors().is_empty());
        assert_eq!(t.uses(), vec![Reg(0)]);
    }
}
