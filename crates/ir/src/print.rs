//! Human-readable IR listings (used by the Figure 2 case study and for
//! debugging generated code).

use std::fmt;

use crate::insn::Insn;
use crate::program::{Function, Program};
use crate::term::Terminator;

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Insn::Alu { dst, a, b, .. } => write!(f, "{} {dst}, {a}, {b}", self.opcode()),
            Insn::AluImm { dst, a, imm, .. } => write!(f, "{} {dst}, {a}, #{imm}", self.opcode()),
            Insn::Cmp { dst, a, b, .. } => write!(f, "{} {dst}, {a}, {b}", self.opcode()),
            Insn::CmpImm { dst, a, imm, .. } => write!(f, "{} {dst}, {a}, #{imm}", self.opcode()),
            Insn::Fpu {
                dst, a, b: Some(b), ..
            } => write!(f, "{} {dst}, {a}, {b}", self.opcode()),
            Insn::Fpu {
                dst, a, b: None, ..
            } => write!(f, "{} {dst}, {a}", self.opcode()),
            Insn::FCmp { dst, a, b, .. } => write!(f, "{} {dst}, {a}, {b}", self.opcode()),
            Insn::LoadImm { dst, imm } => write!(f, "ldi {dst}, #{imm}"),
            Insn::LoadFImm { dst, imm } => write!(f, "ldfi {dst}, #{imm}"),
            Insn::Mov { dst, src } => write!(f, "mov {dst}, {src}"),
            Insn::CMov { c, dst, src } => write!(f, "cmov {dst}, {src} if {c}"),
            Insn::CvtFI { dst, a } => write!(f, "cvtfi {dst}, {a}"),
            Insn::CvtIF { dst, a } => write!(f, "cvtif {dst}, {a}"),
            Insn::Load { dst, base, offset } => write!(f, "ld {dst}, {offset}({base})"),
            Insn::Store { src, base, offset } => write!(f, "st {src}, {offset}({base})"),
            Insn::Alloc { dst, words } => write!(f, "alloc {dst}, {words}"),
            Insn::AllocImm { dst, words } => write!(f, "alloc {dst}, #{words}"),
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::FallThrough { target } => write!(f, "ft {target}"),
            Terminator::Jump { target } => write!(f, "jmp {target}"),
            Terminator::CondBranch {
                op,
                rs,
                rt: Some(rt),
                taken,
                not_taken,
            } => write!(f, "{op} {rs}, {rt}, {taken} (else {not_taken})"),
            Terminator::CondBranch {
                op,
                rs,
                rt: None,
                taken,
                not_taken,
            } => write!(f, "{op} {rs}, {taken} (else {not_taken})"),
            Terminator::Call {
                callee,
                args,
                dst,
                next,
            } => {
                write!(f, "call {callee}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")?;
                if let Some(d) = dst {
                    write!(f, " -> {d}")?;
                }
                write!(f, "; next {next}")
            }
            Terminator::Switch {
                index,
                targets,
                default,
            } => {
                write!(f, "switch {index} [")?;
                for (i, t) in targets.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "] default {default}")
            }
            Terminator::Return { value: Some(v) } => write!(f, "ret {v}"),
            Terminator::Return { value: None } => write!(f, "ret"),
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "func {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        writeln!(f, ") [{}]:", self.lang)?;
        for (id, block) in self.iter_blocks() {
            writeln!(f, "{id}:")?;
            for insn in &block.insns {
                writeln!(f, "    {insn}")?;
            }
            writeln!(f, "    {}", block.term)?;
        }
        Ok(())
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; program {} ({} ISA)", self.name, self.isa)?;
        for (id, func) in self.iter_funcs() {
            writeln!(f, "; {id}")?;
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::insn::{AluOp, CmpOp, Insn};
    use crate::program::{Lang, Reg};
    use crate::term::BranchOp;

    #[test]
    fn function_listing_contains_blocks_and_insns() {
        let mut b = FunctionBuilder::new("demo", 1, Lang::C);
        let p = b.params()[0];
        let c = b.fresh_reg();
        let e = b.entry_block();
        let t = b.new_block();
        let n = b.new_block();
        b.push_cmp_imm(e, CmpOp::Gt, c, p, 0);
        b.set_cond_branch(e, BranchOp::Bne, c, None, t, n);
        b.push_alu_imm(t, AluOp::Add, p, p, 1);
        b.set_return(t, Some(p));
        b.set_return(n, None);
        let f = b.finish();
        let s = f.to_string();
        assert!(s.contains("func demo(r0) [C]:"));
        assert!(s.contains("b0:"));
        assert!(s.contains("cmpgt r1, r0, #0"));
        assert!(s.contains("bne r1, b1 (else b2)"));
        assert!(s.contains("ret r0"));
    }

    #[test]
    fn insn_display_forms() {
        assert_eq!(
            Insn::Load {
                dst: Reg(1),
                base: Reg(0),
                offset: 3
            }
            .to_string(),
            "ld r1, 3(r0)"
        );
        assert_eq!(
            Insn::Store {
                src: Reg(2),
                base: Reg(0),
                offset: 0
            }
            .to_string(),
            "st r2, 0(r0)"
        );
        assert_eq!(
            Insn::CMov {
                c: Reg(0),
                dst: Reg(1),
                src: Reg(2)
            }
            .to_string(),
            "cmov r1, r2 if r0"
        );
    }
}
