//! RISC-like intermediate representation and control-flow analyses for the
//! ESP reproduction.
//!
//! This crate is the stand-in for the binary-level program representation the
//! paper obtained from ATOM on DEC Alpha binaries. It provides:
//!
//! * a small register-machine IR ([`Insn`], [`Terminator`], [`BasicBlock`],
//!   [`Function`], [`Program`]) with two ISA flavours ([`Isa::Alpha`] — branches
//!   compare a register against zero and conditional moves exist — and
//!   [`Isa::Mips`] — branches compare two registers, no conditional move);
//! * control-flow graphs with labelled edges ([`cfg::Cfg`]);
//! * dominator and post-dominator trees ([`dom::DomTree`]);
//! * natural-loop analysis using the Ball–Larus definition
//!   ([`loops::LoopInfo`]);
//! * per-block def/use scanning used by the Guard heuristic and the `UseDef`
//!   feature ([`defuse`]).
//!
//! # Example
//!
//! ```
//! use esp_ir::{FunctionBuilder, BranchOp, Lang, Reg};
//!
//! // while (i < 10) i = i + 1;
//! let mut b = FunctionBuilder::new("count", 0, Lang::C);
//! let i = b.fresh_reg();
//! let c = b.fresh_reg();
//! let entry = b.entry_block();
//! let head = b.new_block();
//! let body = b.new_block();
//! let exit = b.new_block();
//! b.push_load_imm(entry, i, 0);
//! b.set_fallthrough(entry, head);
//! b.push_cmp_imm(head, esp_ir::CmpOp::Lt, c, i, 10);
//! b.set_cond_branch(head, BranchOp::Bne, c, None, body, exit);
//! b.push_alu_imm(body, esp_ir::AluOp::Add, i, i, 1);
//! b.set_jump(body, head);
//! b.set_return(exit, Some(i));
//! let f = b.finish();
//! assert_eq!(f.blocks.len(), 4);
//! let _ = Reg(0); // registers are plain indices
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod cfg;
pub mod defuse;
pub mod dom;
pub mod insn;
pub mod loops;
pub mod pointer;
pub mod print;
pub mod program;
pub mod term;
pub mod validate;

pub use analysis::{FuncAnalysis, ProgramAnalysis};
pub use builder::FunctionBuilder;
pub use cfg::{Cfg, Edge, EdgeKind};
pub use defuse::{effective_compare, CompareRhs, EffectiveCompare};
pub use dom::DomTree;
pub use insn::{AluOp, CmpOp, FpuOp, Insn, Opcode};
pub use loops::LoopInfo;
pub use pointer::PointerSet;
pub use program::{
    BasicBlock, BlockId, BranchId, FuncId, Function, Isa, Lang, ProcKind, Program, Reg,
};
pub use term::{BranchOp, TermKind, Terminator};
pub use validate::{validate_function, validate_program, ValidateError};
