//! Non-control-transfer instructions.

use std::fmt;

use crate::program::Reg;

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (rounds toward zero; division by zero yields zero, matching
    /// the interpreter's total semantics).
    Div,
    /// Remainder (same conventions as [`AluOp::Div`]).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Left shift (by the low 6 bits of the right operand).
    Shl,
    /// Arithmetic right shift (by the low 6 bits of the right operand).
    Shr,
}

/// Integer comparison operations; the result is 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl CmpOp {
    /// The comparison with operands swapped (`a op b` ⇔ `b op.swap() a`).
    pub fn swap(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation (`!(a op b)` ⇔ `a op.negate() b`).
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// Floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpuOp {
    /// Addition.
    FAdd,
    /// Subtraction.
    FSub,
    /// Multiplication.
    FMul,
    /// Division.
    FDiv,
    /// Absolute value (unary).
    FAbs,
    /// Negation (unary).
    FNeg,
}

/// A non-control-transfer IR instruction.
///
/// Loads and stores address a flat word-indexed memory; address 0 is the
/// reserved null pointer. Heap allocation is explicit via [`Insn::Alloc`].
#[derive(Debug, Clone, PartialEq)]
pub enum Insn {
    /// `dst = a <op> b` (integer).
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = a <op> imm` (integer, immediate right operand).
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Immediate right operand.
        imm: i64,
    },
    /// `dst = (a <op> b) ? 1 : 0` — integer comparison materialising a flag.
    ///
    /// On the Alpha flavour the code generator emits this before every
    /// conditional branch; the branch then tests `dst` against zero.
    Cmp {
        /// Comparison.
        op: CmpOp,
        /// Destination register (0/1 flag).
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// `dst = (a <op> imm) ? 1 : 0`.
    CmpImm {
        /// Comparison.
        op: CmpOp,
        /// Destination register (0/1 flag).
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Immediate right operand.
        imm: i64,
    },
    /// Floating-point arithmetic; `b` is `None` for unary ops.
    Fpu {
        /// Operation.
        op: FpuOp,
        /// Destination register.
        dst: Reg,
        /// Left (or sole) operand.
        a: Reg,
        /// Right operand for binary ops.
        b: Option<Reg>,
    },
    /// `dst = (a <op> b) ? 1 : 0` for floating-point operands; result is an
    /// integer flag.
    FCmp {
        /// Comparison.
        op: CmpOp,
        /// Destination register (0/1 integer flag).
        dst: Reg,
        /// Left operand (float).
        a: Reg,
        /// Right operand (float).
        b: Reg,
    },
    /// `dst = imm` (integer constant; also used for address constants).
    LoadImm {
        /// Destination register.
        dst: Reg,
        /// The constant.
        imm: i64,
    },
    /// `dst = imm` (floating-point constant).
    LoadFImm {
        /// Destination register.
        dst: Reg,
        /// The constant.
        imm: f64,
    },
    /// `dst = src` (register copy).
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Conditional move: `dst = (c != 0) ? src : dst`.
    ///
    /// Only emitted for the Alpha ISA flavour; the paper attributes part of
    /// the cross-architecture branch-population differences to exactly this
    /// instruction (§5.2).
    CMov {
        /// Condition register (tested against zero).
        c: Reg,
        /// Destination register (keeps its old value when `c == 0`).
        dst: Reg,
        /// Source moved when `c != 0`.
        src: Reg,
    },
    /// `dst = int_of_float(a)` (truncation).
    CvtFI {
        /// Destination (integer) register.
        dst: Reg,
        /// Source (float) register.
        a: Reg,
    },
    /// `dst = float_of_int(a)`.
    CvtIF {
        /// Destination (float) register.
        dst: Reg,
        /// Source (integer) register.
        a: Reg,
    },
    /// `dst = mem[base + offset]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register (word index).
        base: Reg,
        /// Constant word offset.
        offset: i64,
    },
    /// `mem[base + offset] = src`.
    Store {
        /// Value stored.
        src: Reg,
        /// Base address register (word index).
        base: Reg,
        /// Constant word offset.
        offset: i64,
    },
    /// Allocate `words` fresh heap words; `dst` receives the base address.
    Alloc {
        /// Destination register (receives the address).
        dst: Reg,
        /// Number of words, as a register value.
        words: Reg,
    },
    /// Allocate a constant number of heap words.
    AllocImm {
        /// Destination register (receives the address).
        dst: Reg,
        /// Number of words.
        words: i64,
    },
}

/// Flat opcode mnemonics, used as categorical feature values (Table 2,
/// features 1 and 3–5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Opcode {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    CmpEq,
    CmpNe,
    CmpLt,
    CmpLe,
    CmpGt,
    CmpGe,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FAbs,
    FNeg,
    FCmpEq,
    FCmpNe,
    FCmpLt,
    FCmpLe,
    FCmpGt,
    FCmpGe,
    Ldi,
    Ldfi,
    Mov,
    CMov,
    CvtFI,
    CvtIF,
    Ld,
    St,
    Alloc,
}

impl Opcode {
    /// All opcode values, in a fixed order suitable for one-hot encoding.
    pub const ALL: [Opcode; 37] = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Div,
        Opcode::Rem,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::CmpEq,
        Opcode::CmpNe,
        Opcode::CmpLt,
        Opcode::CmpLe,
        Opcode::CmpGt,
        Opcode::CmpGe,
        Opcode::FAdd,
        Opcode::FSub,
        Opcode::FMul,
        Opcode::FDiv,
        Opcode::FAbs,
        Opcode::FNeg,
        Opcode::FCmpEq,
        Opcode::FCmpNe,
        Opcode::FCmpLt,
        Opcode::FCmpLe,
        Opcode::FCmpGt,
        Opcode::FCmpGe,
        Opcode::Ldi,
        Opcode::Ldfi,
        Opcode::Mov,
        Opcode::CMov,
        Opcode::CvtFI,
        Opcode::CvtIF,
        Opcode::Ld,
        Opcode::St,
        Opcode::Alloc,
    ];

    /// A stable small integer for this opcode, usable as a one-hot index.
    pub fn ordinal(self) -> usize {
        Opcode::ALL
            .iter()
            .position(|o| *o == self)
            .expect("opcode present in ALL")
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::Rem => "rem",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Shl => "shl",
            Opcode::Shr => "shr",
            Opcode::CmpEq => "cmpeq",
            Opcode::CmpNe => "cmpne",
            Opcode::CmpLt => "cmplt",
            Opcode::CmpLe => "cmple",
            Opcode::CmpGt => "cmpgt",
            Opcode::CmpGe => "cmpge",
            Opcode::FAdd => "fadd",
            Opcode::FSub => "fsub",
            Opcode::FMul => "fmul",
            Opcode::FDiv => "fdiv",
            Opcode::FAbs => "fabs",
            Opcode::FNeg => "fneg",
            Opcode::FCmpEq => "fcmpeq",
            Opcode::FCmpNe => "fcmpne",
            Opcode::FCmpLt => "fcmplt",
            Opcode::FCmpLe => "fcmple",
            Opcode::FCmpGt => "fcmpgt",
            Opcode::FCmpGe => "fcmpge",
            Opcode::Ldi => "ldi",
            Opcode::Ldfi => "ldfi",
            Opcode::Mov => "mov",
            Opcode::CMov => "cmov",
            Opcode::CvtFI => "cvtfi",
            Opcode::CvtIF => "cvtif",
            Opcode::Ld => "ld",
            Opcode::St => "st",
            Opcode::Alloc => "alloc",
        };
        f.write_str(s)
    }
}

fn cmp_opcode(op: CmpOp, float: bool) -> Opcode {
    match (op, float) {
        (CmpOp::Eq, false) => Opcode::CmpEq,
        (CmpOp::Ne, false) => Opcode::CmpNe,
        (CmpOp::Lt, false) => Opcode::CmpLt,
        (CmpOp::Le, false) => Opcode::CmpLe,
        (CmpOp::Gt, false) => Opcode::CmpGt,
        (CmpOp::Ge, false) => Opcode::CmpGe,
        (CmpOp::Eq, true) => Opcode::FCmpEq,
        (CmpOp::Ne, true) => Opcode::FCmpNe,
        (CmpOp::Lt, true) => Opcode::FCmpLt,
        (CmpOp::Le, true) => Opcode::FCmpLe,
        (CmpOp::Gt, true) => Opcode::FCmpGt,
        (CmpOp::Ge, true) => Opcode::FCmpGe,
    }
}

impl Insn {
    /// The flat opcode mnemonic of this instruction.
    pub fn opcode(&self) -> Opcode {
        match self {
            Insn::Alu { op, .. } | Insn::AluImm { op, .. } => match op {
                AluOp::Add => Opcode::Add,
                AluOp::Sub => Opcode::Sub,
                AluOp::Mul => Opcode::Mul,
                AluOp::Div => Opcode::Div,
                AluOp::Rem => Opcode::Rem,
                AluOp::And => Opcode::And,
                AluOp::Or => Opcode::Or,
                AluOp::Xor => Opcode::Xor,
                AluOp::Shl => Opcode::Shl,
                AluOp::Shr => Opcode::Shr,
            },
            Insn::Cmp { op, .. } | Insn::CmpImm { op, .. } => cmp_opcode(*op, false),
            Insn::FCmp { op, .. } => cmp_opcode(*op, true),
            Insn::Fpu { op, .. } => match op {
                FpuOp::FAdd => Opcode::FAdd,
                FpuOp::FSub => Opcode::FSub,
                FpuOp::FMul => Opcode::FMul,
                FpuOp::FDiv => Opcode::FDiv,
                FpuOp::FAbs => Opcode::FAbs,
                FpuOp::FNeg => Opcode::FNeg,
            },
            Insn::LoadImm { .. } => Opcode::Ldi,
            Insn::LoadFImm { .. } => Opcode::Ldfi,
            Insn::Mov { .. } => Opcode::Mov,
            Insn::CMov { .. } => Opcode::CMov,
            Insn::CvtFI { .. } => Opcode::CvtFI,
            Insn::CvtIF { .. } => Opcode::CvtIF,
            Insn::Load { .. } => Opcode::Ld,
            Insn::Store { .. } => Opcode::St,
            Insn::Alloc { .. } | Insn::AllocImm { .. } => Opcode::Alloc,
        }
    }

    /// The register defined by this instruction, if any.
    ///
    /// [`Insn::Store`] defines nothing; [`Insn::CMov`] both reads and defines
    /// its `dst` (reported here as the definition).
    pub fn def(&self) -> Option<Reg> {
        match self {
            Insn::Alu { dst, .. }
            | Insn::AluImm { dst, .. }
            | Insn::Cmp { dst, .. }
            | Insn::CmpImm { dst, .. }
            | Insn::Fpu { dst, .. }
            | Insn::FCmp { dst, .. }
            | Insn::LoadImm { dst, .. }
            | Insn::LoadFImm { dst, .. }
            | Insn::Mov { dst, .. }
            | Insn::CMov { dst, .. }
            | Insn::CvtFI { dst, .. }
            | Insn::CvtIF { dst, .. }
            | Insn::Load { dst, .. }
            | Insn::Alloc { dst, .. }
            | Insn::AllocImm { dst, .. } => Some(*dst),
            Insn::Store { .. } => None,
        }
    }

    /// Registers read by this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Insn::Alu { a, b, .. } | Insn::Cmp { a, b, .. } | Insn::FCmp { a, b, .. } => {
                vec![*a, *b]
            }
            Insn::AluImm { a, .. } | Insn::CmpImm { a, .. } => vec![*a],
            Insn::Fpu { a, b, .. } => match b {
                Some(b) => vec![*a, *b],
                None => vec![*a],
            },
            Insn::LoadImm { .. } | Insn::LoadFImm { .. } | Insn::AllocImm { .. } => vec![],
            Insn::Mov { src, .. } => vec![*src],
            // CMov reads its old dst as well as the condition and source.
            Insn::CMov { c, dst, src } => vec![*c, *dst, *src],
            Insn::CvtFI { a, .. } | Insn::CvtIF { a, .. } => vec![*a],
            Insn::Load { base, .. } => vec![*base],
            Insn::Store { src, base, .. } => vec![*src, *base],
            Insn::Alloc { words, .. } => vec![*words],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_ordinals_are_dense_and_unique() {
        for (i, op) in Opcode::ALL.iter().enumerate() {
            assert_eq!(op.ordinal(), i);
        }
    }

    #[test]
    fn cmp_swap_and_negate_are_involutions() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.swap().swap(), op);
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn def_and_uses() {
        let i = Insn::Alu {
            op: AluOp::Add,
            dst: Reg(2),
            a: Reg(0),
            b: Reg(1),
        };
        assert_eq!(i.def(), Some(Reg(2)));
        assert_eq!(i.uses(), vec![Reg(0), Reg(1)]);
        assert_eq!(i.opcode(), Opcode::Add);

        let s = Insn::Store {
            src: Reg(0),
            base: Reg(1),
            offset: 4,
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.opcode(), Opcode::St);

        let cm = Insn::CMov {
            c: Reg(0),
            dst: Reg(1),
            src: Reg(2),
        };
        assert!(cm.uses().contains(&Reg(1)), "cmov reads its destination");
    }

    #[test]
    fn float_cmp_has_float_opcode() {
        let i = Insn::FCmp {
            op: CmpOp::Lt,
            dst: Reg(0),
            a: Reg(1),
            b: Reg(2),
        };
        assert_eq!(i.opcode(), Opcode::FCmpLt);
        assert_eq!(i.opcode().to_string(), "fcmplt");
    }
}
