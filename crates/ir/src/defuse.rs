//! Per-block def/use facts used by the Guard heuristic and the `UseDef`
//! feature of Table 2.

use crate::insn::Insn;
use crate::program::{BasicBlock, Reg};
use crate::term::Terminator;

/// Whether `reg` is *used before being defined* in `block` — i.e. some
/// instruction (or the terminator) reads `reg` before any instruction writes
/// it.
///
/// This is exactly the condition of the Ball–Larus Guard heuristic and of
/// Table 2's `Succ. UseDef` feature.
pub fn used_before_def(block: &BasicBlock, reg: Reg) -> bool {
    for insn in &block.insns {
        if insn.uses().contains(&reg) {
            return true;
        }
        if insn.def() == Some(reg) {
            // CMov conditionally writes but also reads its destination, which
            // `uses` already reported above; a plain def stops the scan.
            return false;
        }
    }
    block.term.uses().contains(&reg)
}

/// The registers compared by the conditional branch ending `block`, tracing
/// through an in-block compare instruction when the branch itself only tests
/// a flag register (the Alpha pattern `cmplt r3, a, b; bne r3, …`).
///
/// Returns an empty vector when the block does not end in a conditional
/// branch.
///
/// This resolves the "operand of the branch comparison" wording of the Guard
/// heuristic: on the Alpha the *architectural* branch operand is a
/// materialised flag, but the heuristic (and the paper's abstract-syntax-tree
/// reconstruction, §5.2.1) is about the registers being *compared*.
pub fn branch_compare_regs(block: &BasicBlock) -> Vec<Reg> {
    let Terminator::CondBranch { rs, rt, .. } = &block.term else {
        return Vec::new();
    };
    if let Some(rt) = rt {
        // MIPS flavour: the branch compares two registers directly.
        return vec![*rs, *rt];
    }
    // Alpha flavour: look for the in-block definition of the flag register.
    for insn in block.insns.iter().rev() {
        if insn.def() != Some(*rs) {
            continue;
        }
        return match insn {
            Insn::Cmp { a, b, .. } | Insn::FCmp { a, b, .. } => vec![*a, *b],
            Insn::CmpImm { a, .. } => vec![*a],
            _ => vec![*rs],
        };
    }
    vec![*rs]
}

/// The right-hand side of an [`EffectiveCompare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompareRhs {
    /// Compared against another register.
    Reg(Reg),
    /// Compared against an integer constant (0 for the direct
    /// branch-against-zero forms).
    Imm(i64),
}

/// The source-level comparison a conditional branch implements, recovered
/// from the instruction stream the way the paper reconstructs "an abstract
/// syntax tree from the program binary" (§5.2.1).
///
/// `taken iff (lhs op rhs)` — the polarity is already folded in, so a
/// `cmpeq f, p, 0; beq f, …` (branch taken when the *flag is zero*, i.e.
/// when `p != 0`) reports `op = Ne`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffectiveCompare {
    /// Comparison operator; the branch is taken when it holds.
    pub op: crate::insn::CmpOp,
    /// Left operand.
    pub lhs: Reg,
    /// Right operand.
    pub rhs: CompareRhs,
    /// Whether the comparison is floating point.
    pub is_float: bool,
}

/// Recover the [`EffectiveCompare`] of the conditional branch ending
/// `block`, if any.
pub fn effective_compare(block: &BasicBlock) -> Option<EffectiveCompare> {
    use crate::term::BranchOp;
    let Terminator::CondBranch { op, rs, rt, .. } = &block.term else {
        return None;
    };
    let (base_op, is_float) = match op {
        BranchOp::Beq => (crate::insn::CmpOp::Eq, false),
        BranchOp::Bne => (crate::insn::CmpOp::Ne, false),
        BranchOp::Blt => (crate::insn::CmpOp::Lt, false),
        BranchOp::Ble => (crate::insn::CmpOp::Le, false),
        BranchOp::Bgt => (crate::insn::CmpOp::Gt, false),
        BranchOp::Bge => (crate::insn::CmpOp::Ge, false),
        BranchOp::Fbeq => (crate::insn::CmpOp::Eq, true),
        BranchOp::Fbne => (crate::insn::CmpOp::Ne, true),
        BranchOp::Fblt => (crate::insn::CmpOp::Lt, true),
        BranchOp::Fble => (crate::insn::CmpOp::Le, true),
        BranchOp::Fbgt => (crate::insn::CmpOp::Gt, true),
        BranchOp::Fbge => (crate::insn::CmpOp::Ge, true),
    };
    if let Some(rt) = rt {
        // Two-register branch (MIPS flavour): the branch is the comparison.
        return Some(EffectiveCompare {
            op: base_op,
            lhs: *rs,
            rhs: CompareRhs::Reg(*rt),
            is_float,
        });
    }
    // Branch against zero. If the register is a flag materialised by an
    // in-block compare, fold the branch polarity into the compare's op:
    //   flag = (a cmp b); bne flag  ⇒ taken iff (a cmp b)
    //   flag = (a cmp b); beq flag  ⇒ taken iff !(a cmp b)
    if matches!(base_op, crate::insn::CmpOp::Eq | crate::insn::CmpOp::Ne) && !is_float {
        if let Some(def) = defining_insn(block, *rs) {
            let negate = base_op == crate::insn::CmpOp::Eq;
            let fold = |op: crate::insn::CmpOp| if negate { op.negate() } else { op };
            match def {
                Insn::Cmp { op, a, b, .. } => {
                    return Some(EffectiveCompare {
                        op: fold(*op),
                        lhs: *a,
                        rhs: CompareRhs::Reg(*b),
                        is_float: false,
                    })
                }
                Insn::CmpImm { op, a, imm, .. } => {
                    return Some(EffectiveCompare {
                        op: fold(*op),
                        lhs: *a,
                        rhs: CompareRhs::Imm(*imm),
                        is_float: false,
                    })
                }
                Insn::FCmp { op, a, b, .. } => {
                    return Some(EffectiveCompare {
                        op: fold(*op),
                        lhs: *a,
                        rhs: CompareRhs::Reg(*b),
                        is_float: true,
                    })
                }
                _ => {}
            }
        }
    }
    // Plain register-against-zero branch.
    Some(EffectiveCompare {
        op: base_op,
        lhs: *rs,
        rhs: CompareRhs::Imm(0),
        is_float,
    })
}

/// The in-block defining instruction of `reg`, scanning backwards from the
/// end of the block; `None` when `reg` is live-in (defined in a predecessor).
///
/// Used for Table 2 features 3–5 ("opcode of the instruction that defines the
/// register used in the branch instruction, or `?` if defined in a previous
/// basic block").
pub fn defining_insn(block: &BasicBlock, reg: Reg) -> Option<&Insn> {
    block.insns.iter().rev().find(|i| i.def() == Some(reg))
}

/// Like [`defining_insn`] but only scanning strictly before index `before`.
pub fn defining_insn_before(block: &BasicBlock, reg: Reg, before: usize) -> Option<&Insn> {
    block.insns[..before.min(block.insns.len())]
        .iter()
        .rev()
        .find(|i| i.def() == Some(reg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AluOp, CmpOp};
    use crate::program::BlockId;
    use crate::term::BranchOp;

    fn block(insns: Vec<Insn>, term: Terminator) -> BasicBlock {
        BasicBlock { insns, term }
    }

    #[test]
    fn use_before_def_detected() {
        // r1 = r0 + 1  (uses r0 before defining it? no def of r0 at all)
        let b = block(
            vec![Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(1),
                a: Reg(0),
                imm: 1,
            }],
            Terminator::Return { value: None },
        );
        assert!(used_before_def(&b, Reg(0)));
        assert!(!used_before_def(&b, Reg(2)));
    }

    #[test]
    fn def_before_use_not_flagged() {
        // r0 = 5; r1 = r0 + 1  — r0 is defined before its use
        let b = block(
            vec![
                Insn::LoadImm {
                    dst: Reg(0),
                    imm: 5,
                },
                Insn::AluImm {
                    op: AluOp::Add,
                    dst: Reg(1),
                    a: Reg(0),
                    imm: 1,
                },
            ],
            Terminator::Return { value: None },
        );
        assert!(!used_before_def(&b, Reg(0)));
    }

    #[test]
    fn terminator_use_counts() {
        let b = block(
            vec![],
            Terminator::Return {
                value: Some(Reg(4)),
            },
        );
        assert!(used_before_def(&b, Reg(4)));
    }

    #[test]
    fn alpha_branch_traces_through_compare() {
        // cmplt r2, r0, r1 ; bne r2 -> compares {r0, r1}
        let b = block(
            vec![Insn::Cmp {
                op: CmpOp::Lt,
                dst: Reg(2),
                a: Reg(0),
                b: Reg(1),
            }],
            Terminator::CondBranch {
                op: BranchOp::Bne,
                rs: Reg(2),
                rt: None,
                taken: BlockId(1),
                not_taken: BlockId(2),
            },
        );
        assert_eq!(branch_compare_regs(&b), vec![Reg(0), Reg(1)]);
    }

    #[test]
    fn mips_branch_compares_directly() {
        let b = block(
            vec![],
            Terminator::CondBranch {
                op: BranchOp::Beq,
                rs: Reg(0),
                rt: Some(Reg(1)),
                taken: BlockId(1),
                not_taken: BlockId(2),
            },
        );
        assert_eq!(branch_compare_regs(&b), vec![Reg(0), Reg(1)]);
    }

    #[test]
    fn flag_defined_elsewhere_falls_back_to_flag_reg() {
        let b = block(
            vec![],
            Terminator::CondBranch {
                op: BranchOp::Bne,
                rs: Reg(7),
                rt: None,
                taken: BlockId(1),
                not_taken: BlockId(2),
            },
        );
        assert_eq!(branch_compare_regs(&b), vec![Reg(7)]);
    }

    #[test]
    fn effective_compare_folds_polarity() {
        use super::{effective_compare, CompareRhs};
        // cmplt f, a, b ; bne f  => taken iff a < b
        let blk = block(
            vec![Insn::Cmp {
                op: CmpOp::Lt,
                dst: Reg(2),
                a: Reg(0),
                b: Reg(1),
            }],
            Terminator::CondBranch {
                op: BranchOp::Bne,
                rs: Reg(2),
                rt: None,
                taken: BlockId(1),
                not_taken: BlockId(2),
            },
        );
        let ec = effective_compare(&blk).unwrap();
        assert_eq!(ec.op, CmpOp::Lt);
        assert_eq!(ec.lhs, Reg(0));
        assert_eq!(ec.rhs, CompareRhs::Reg(Reg(1)));
        assert!(!ec.is_float);

        // cmpeq f, a, #5 ; beq f  => taken iff a != 5
        let blk = block(
            vec![Insn::CmpImm {
                op: CmpOp::Eq,
                dst: Reg(2),
                a: Reg(0),
                imm: 5,
            }],
            Terminator::CondBranch {
                op: BranchOp::Beq,
                rs: Reg(2),
                rt: None,
                taken: BlockId(1),
                not_taken: BlockId(2),
            },
        );
        let ec = effective_compare(&blk).unwrap();
        assert_eq!(ec.op, CmpOp::Ne);
        assert_eq!(ec.rhs, CompareRhs::Imm(5));
    }

    #[test]
    fn effective_compare_direct_and_two_reg() {
        use super::{effective_compare, CompareRhs};
        // blt a  => taken iff a < 0
        let blk = block(
            vec![],
            Terminator::CondBranch {
                op: BranchOp::Blt,
                rs: Reg(3),
                rt: None,
                taken: BlockId(1),
                not_taken: BlockId(2),
            },
        );
        let ec = effective_compare(&blk).unwrap();
        assert_eq!(
            (ec.op, ec.lhs, ec.rhs),
            (CmpOp::Lt, Reg(3), CompareRhs::Imm(0))
        );

        // beq a, b  (MIPS)
        let blk = block(
            vec![],
            Terminator::CondBranch {
                op: BranchOp::Beq,
                rs: Reg(0),
                rt: Some(Reg(1)),
                taken: BlockId(1),
                not_taken: BlockId(2),
            },
        );
        let ec = effective_compare(&blk).unwrap();
        assert_eq!((ec.op, ec.rhs), (CmpOp::Eq, CompareRhs::Reg(Reg(1))));

        // no conditional branch => None
        let blk = block(vec![], Terminator::Return { value: None });
        assert!(effective_compare(&blk).is_none());
    }

    #[test]
    fn cmov_counts_as_use_of_its_destination() {
        // cmov c, dst, src conditionally writes dst, so the prior value of
        // dst flows through — it must count as used-before-def, never as a
        // plain def that stops the scan.
        let b = block(
            vec![Insn::CMov {
                c: Reg(0),
                dst: Reg(1),
                src: Reg(2),
            }],
            Terminator::Return { value: None },
        );
        assert!(used_before_def(&b, Reg(1)));
        assert!(used_before_def(&b, Reg(0)));
        assert!(used_before_def(&b, Reg(2)));
    }

    #[test]
    fn use_before_def_across_a_diamond_join() {
        // entry: branch to left/right; left defines r5; right does not;
        // join reads r5. `used_before_def` is a *per-block* fact: the join
        // block reports true no matter which predecessor defined the value,
        // and the defining arm itself reports false.
        let left = block(
            vec![
                Insn::LoadImm {
                    dst: Reg(5),
                    imm: 7,
                },
                Insn::AluImm {
                    op: AluOp::Add,
                    dst: Reg(6),
                    a: Reg(5),
                    imm: 1,
                },
            ],
            Terminator::Jump { target: BlockId(3) },
        );
        let right = block(vec![], Terminator::Jump { target: BlockId(3) });
        let join = block(
            vec![Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(7),
                a: Reg(5),
                imm: 0,
            }],
            Terminator::Return {
                value: Some(Reg(7)),
            },
        );
        // The register defined only on the left arm:
        assert!(!used_before_def(&left, Reg(5)), "left defines r5 first");
        assert!(!used_before_def(&right, Reg(5)), "right never touches r5");
        assert!(used_before_def(&join, Reg(5)), "join reads r5 live-in");
        // And one defined on *no* path is indistinguishable per-block:
        assert!(!used_before_def(&join, Reg(9)));
    }

    #[test]
    fn branch_compare_regs_on_every_branch_op() {
        for op in BranchOp::ALL {
            let cond = |rs, rt| Terminator::CondBranch {
                op,
                rs,
                rt,
                taken: BlockId(1),
                not_taken: BlockId(2),
            };
            // Flag materialised by an in-block compare: traces to {a, b}.
            let flag_insn = if op.is_float() {
                Insn::FCmp {
                    op: CmpOp::Lt,
                    dst: Reg(2),
                    a: Reg(0),
                    b: Reg(1),
                }
            } else {
                Insn::Cmp {
                    op: CmpOp::Lt,
                    dst: Reg(2),
                    a: Reg(0),
                    b: Reg(1),
                }
            };
            let b = block(vec![flag_insn], cond(Reg(2), None));
            assert_eq!(
                branch_compare_regs(&b),
                vec![Reg(0), Reg(1)],
                "{op:?}: compare-fed flag"
            );
            // Compare-against-immediate: only the register operand.
            let b = block(
                vec![Insn::CmpImm {
                    op: CmpOp::Eq,
                    dst: Reg(2),
                    a: Reg(0),
                    imm: 3,
                }],
                cond(Reg(2), None),
            );
            assert_eq!(branch_compare_regs(&b), vec![Reg(0)], "{op:?}: cmp-imm");
            // Live-in flag: fall back to the architectural operand.
            let b = block(vec![], cond(Reg(4), None));
            assert_eq!(branch_compare_regs(&b), vec![Reg(4)], "{op:?}: live-in");
            // Two-register (MIPS) form compares directly.
            let b = block(vec![], cond(Reg(0), Some(Reg(1))));
            assert_eq!(
                branch_compare_regs(&b),
                vec![Reg(0), Reg(1)],
                "{op:?}: two-reg"
            );
        }
    }

    #[test]
    fn non_compare_flag_def_stops_the_trace() {
        // The flag comes from arithmetic, not a compare: report the flag
        // register itself, not the arithmetic operands.
        let b = block(
            vec![Insn::AluImm {
                op: AluOp::Add,
                dst: Reg(2),
                a: Reg(0),
                imm: 1,
            }],
            Terminator::CondBranch {
                op: BranchOp::Bne,
                rs: Reg(2),
                rt: None,
                taken: BlockId(1),
                not_taken: BlockId(2),
            },
        );
        assert_eq!(branch_compare_regs(&b), vec![Reg(2)]);
    }

    #[test]
    fn defining_insn_scans_backwards() {
        let b = block(
            vec![
                Insn::LoadImm {
                    dst: Reg(0),
                    imm: 1,
                },
                Insn::LoadImm {
                    dst: Reg(0),
                    imm: 2,
                },
            ],
            Terminator::Return { value: None },
        );
        match defining_insn(&b, Reg(0)) {
            Some(Insn::LoadImm { imm, .. }) => assert_eq!(*imm, 2),
            other => panic!("unexpected {other:?}"),
        }
        match defining_insn_before(&b, Reg(0), 1) {
            Some(Insn::LoadImm { imm, .. }) => assert_eq!(*imm, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(defining_insn(&b, Reg(9)).is_none());
    }
}
