//! Structural validation of programs, run after code generation and after
//! every optimizer pass.

use std::fmt;

use crate::program::{BlockId, FuncId, Function, Program, Reg};
use crate::term::Terminator;

/// A structural defect found by [`validate_program`] or [`validate_function`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A terminator or jump table references a block outside the function.
    BadBlockTarget {
        /// Function containing the defect.
        func: String,
        /// Block whose terminator is broken.
        block: BlockId,
        /// The out-of-range target.
        target: BlockId,
    },
    /// An instruction references a register `>= num_regs`.
    BadReg {
        /// Function containing the defect.
        func: String,
        /// Block containing the instruction.
        block: BlockId,
        /// The out-of-range register.
        reg: Reg,
    },
    /// A call references a function outside the program.
    BadCallee {
        /// Function containing the call.
        func: String,
        /// Block whose terminator is the call.
        block: BlockId,
        /// The out-of-range callee.
        callee: FuncId,
    },
    /// A call passes the wrong number of arguments.
    BadArity {
        /// Function containing the call.
        func: String,
        /// Block whose terminator is the call.
        block: BlockId,
        /// The callee.
        callee: FuncId,
        /// Arguments passed.
        got: usize,
        /// Parameters expected.
        want: usize,
    },
    /// `main` is out of range or takes parameters.
    BadMain,
    /// A function has no blocks.
    EmptyFunction {
        /// The offending function.
        func: String,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadBlockTarget {
                func,
                block,
                target,
            } => write!(
                f,
                "function `{func}`: block {block} targets out-of-range block {target}"
            ),
            ValidateError::BadReg { func, block, reg } => write!(
                f,
                "function `{func}`: block {block} references out-of-range register {reg}"
            ),
            ValidateError::BadCallee {
                func,
                block,
                callee,
            } => write!(
                f,
                "function `{func}`: block {block} calls out-of-range function {callee}"
            ),
            ValidateError::BadArity {
                func,
                block,
                callee,
                got,
                want,
            } => write!(
                f,
                "function `{func}`: block {block} calls {callee} with {got} args, expected {want}"
            ),
            ValidateError::BadMain => {
                write!(f, "main function is out of range or takes parameters")
            }
            ValidateError::EmptyFunction { func } => {
                write!(f, "function `{func}` has no blocks")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Check one function's internal structure (block targets, register ranges).
///
/// # Errors
///
/// Returns the first defect found.
pub fn validate_function(func: &Function) -> Result<(), ValidateError> {
    if func.blocks.is_empty() {
        return Err(ValidateError::EmptyFunction {
            func: func.name.clone(),
        });
    }
    let nb = func.blocks.len() as u32;
    let check_block = |block: BlockId, target: BlockId| -> Result<(), ValidateError> {
        if target.0 >= nb {
            Err(ValidateError::BadBlockTarget {
                func: func.name.clone(),
                block,
                target,
            })
        } else {
            Ok(())
        }
    };
    let check_reg = |block: BlockId, reg: Reg| -> Result<(), ValidateError> {
        if reg.0 >= func.num_regs {
            Err(ValidateError::BadReg {
                func: func.name.clone(),
                block,
                reg,
            })
        } else {
            Ok(())
        }
    };

    for (id, block) in func.iter_blocks() {
        for insn in &block.insns {
            for r in insn.uses() {
                check_reg(id, r)?;
            }
            if let Some(d) = insn.def() {
                check_reg(id, d)?;
            }
        }
        for r in block.term.uses() {
            check_reg(id, r)?;
        }
        if let Terminator::Call { dst: Some(d), .. } = &block.term {
            check_reg(id, *d)?;
        }
        for t in block.term.successors() {
            check_block(id, t)?;
        }
    }
    Ok(())
}

/// Check a whole program: every function individually, plus call targets,
/// arities and the `main` convention (exists, takes no parameters).
///
/// # Errors
///
/// Returns the first defect found.
pub fn validate_program(prog: &Program) -> Result<(), ValidateError> {
    for func in &prog.funcs {
        validate_function(func)?;
    }
    let nf = prog.funcs.len() as u32;
    for (_, func) in prog.iter_funcs() {
        for (id, block) in func.iter_blocks() {
            if let Terminator::Call { callee, args, .. } = &block.term {
                if callee.0 >= nf {
                    return Err(ValidateError::BadCallee {
                        func: func.name.clone(),
                        block: id,
                        callee: *callee,
                    });
                }
                let want = prog.func(*callee).params.len();
                if args.len() != want {
                    return Err(ValidateError::BadArity {
                        func: func.name.clone(),
                        block: id,
                        callee: *callee,
                        got: args.len(),
                        want,
                    });
                }
            }
        }
    }
    if prog.main.0 >= nf || !prog.func(prog.main).params.is_empty() {
        return Err(ValidateError::BadMain);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::program::{BasicBlock, Isa, Lang};

    fn ret_func(name: &str, params: u32) -> Function {
        let mut b = FunctionBuilder::new(name, params, Lang::C);
        let e = b.entry_block();
        b.set_return(e, None);
        b.finish()
    }

    #[test]
    fn valid_program_passes() {
        let prog = Program {
            name: "p".into(),
            funcs: vec![ret_func("main", 0)],
            main: FuncId(0),
            isa: Isa::Alpha,
        };
        assert!(validate_program(&prog).is_ok());
    }

    #[test]
    fn detects_bad_block_target() {
        let mut f = ret_func("f", 0);
        f.blocks[0].term = Terminator::Jump {
            target: BlockId(99),
        };
        let err = validate_function(&f).unwrap_err();
        assert!(matches!(err, ValidateError::BadBlockTarget { .. }));
        assert!(err.to_string().contains("b99"));
    }

    #[test]
    fn detects_bad_register() {
        let mut f = ret_func("f", 0);
        f.blocks[0].term = Terminator::Return {
            value: Some(Reg(40)),
        };
        let err = validate_function(&f).unwrap_err();
        assert!(matches!(err, ValidateError::BadReg { .. }));
    }

    #[test]
    fn detects_bad_callee_and_arity() {
        let mut b = FunctionBuilder::new("main", 0, Lang::C);
        let e = b.entry_block();
        let k = b.new_block();
        b.set_call(e, FuncId(1), vec![], None, k);
        b.set_return(k, None);
        let main = b.finish();

        let prog = Program {
            name: "p".into(),
            funcs: vec![main.clone(), ret_func("g", 2)],
            main: FuncId(0),
            isa: Isa::Alpha,
        };
        // g takes 2 params but the call passes 0.
        let err = validate_program(&prog).unwrap_err();
        assert!(matches!(err, ValidateError::BadArity { .. }));

        let prog2 = Program {
            name: "p".into(),
            funcs: vec![main],
            main: FuncId(0),
            isa: Isa::Alpha,
        };
        let err = validate_program(&prog2).unwrap_err();
        assert!(matches!(err, ValidateError::BadCallee { .. }));
    }

    #[test]
    fn detects_bad_main() {
        let prog = Program {
            name: "p".into(),
            funcs: vec![ret_func("main", 1)],
            main: FuncId(0),
            isa: Isa::Alpha,
        };
        assert_eq!(validate_program(&prog), Err(ValidateError::BadMain));
    }

    #[test]
    fn detects_empty_function() {
        let f = Function {
            name: "e".into(),
            params: vec![],
            blocks: Vec::<BasicBlock>::new(),
            num_regs: 0,
            lang: Lang::C,
        };
        assert!(matches!(
            validate_function(&f),
            Err(ValidateError::EmptyFunction { .. })
        ));
    }
}
