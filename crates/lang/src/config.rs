//! Compiler configurations and the top-level compilation entry points.

use esp_ir::{FuncId, Isa, Lang, Program};

use crate::ast::Module;
use crate::check;
use crate::error::CompileError;
use crate::ir_opt;
use crate::lower::{self, LowerOptions};
use crate::opt;
use crate::{cee, fort};

/// Optimization level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// No optimization: straightforward lowering only.
    O0,
    /// Standard optimization: constant folding, loop rotation, CFG clean-up
    /// (the paper compiled "most programs … with standard optimization
    /// (-O)").
    #[default]
    O1,
}

/// A complete compiler configuration.
///
/// The named constructors model the compilers of the paper's Table 7 study:
/// same language, same program, different pass mixes — and therefore
/// different branch populations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompilerConfig {
    /// Short name for reports (e.g. `"cc-osf1-v1.2"`).
    pub name: &'static str,
    /// Target ISA flavour.
    pub isa: Isa,
    /// Optimization level.
    pub opt: OptLevel,
    /// Loop-unroll factor (1 = off; GEM-style compilers use 4).
    pub unroll: u32,
    /// If-conversion to conditional moves (effective on Alpha only).
    pub cmov: bool,
}

impl Default for CompilerConfig {
    /// The study's reference configuration: DEC `cc -O` on Alpha OSF/1 V1.2.
    fn default() -> Self {
        CompilerConfig::cc_osf1_v12()
    }
}

impl CompilerConfig {
    /// `cc` on OSF/1 V1.2 (the paper's main configuration): `-O`, loop
    /// rotation, conditional moves, no unrolling.
    pub fn cc_osf1_v12() -> Self {
        CompilerConfig {
            name: "cc-osf1-v1.2",
            isa: Isa::Alpha,
            opt: OptLevel::O1,
            unroll: 1,
            cmov: true,
        }
    }

    /// `cc` on OSF/1 V2.0: like V1.2 plus modest (×2) unrolling.
    pub fn cc_osf1_v20() -> Self {
        CompilerConfig {
            name: "cc-osf1-v2.0",
            isa: Isa::Alpha,
            opt: OptLevel::O1,
            unroll: 2,
            cmov: true,
        }
    }

    /// The DEC GEM compiler: aggressive (×4) unrolling plus conditional
    /// moves — the configuration whose unrolling "changed the characteristics
    /// of the branches in the program" in the paper.
    pub fn gem() -> Self {
        CompilerConfig {
            name: "gem",
            isa: Isa::Alpha,
            opt: OptLevel::O1,
            unroll: 4,
            cmov: true,
        }
    }

    /// GNU C: `-O` style clean-up but neither unrolling nor if-conversion.
    pub fn gnu() -> Self {
        CompilerConfig {
            name: "gcc",
            isa: Isa::Alpha,
            opt: OptLevel::O1,
            unroll: 1,
            cmov: false,
        }
    }

    /// The MIPS reference configuration used for the Table 6
    /// cross-architecture comparison (Ball & Larus's platform).
    pub fn mips_ref() -> Self {
        CompilerConfig {
            name: "cc-mips",
            isa: Isa::Mips,
            opt: OptLevel::O1,
            unroll: 1,
            cmov: false,
        }
    }

    /// Completely unoptimized Alpha compilation (useful as an ablation).
    pub fn o0() -> Self {
        CompilerConfig {
            name: "cc-O0",
            isa: Isa::Alpha,
            opt: OptLevel::O0,
            unroll: 1,
            cmov: false,
        }
    }

    /// The four compilers of the Table 7 study, in presentation order.
    pub fn table7_suite() -> [CompilerConfig; 4] {
        [
            CompilerConfig::cc_osf1_v12(),
            CompilerConfig::cc_osf1_v20(),
            CompilerConfig::gem(),
            CompilerConfig::gnu(),
        ]
    }
}

/// Compile a checked-or-unchecked AST module down to an IR program.
///
/// Pipeline: type check → constant folding → (unroll) → (rotate) → lower →
/// per-function CFG clean-up → layout → validate.
///
/// # Errors
///
/// Propagates type errors; codegen validation failures indicate a compiler
/// bug and are reported as [`CompileError::Codegen`].
pub fn compile_module(mut module: Module, cfg: &CompilerConfig) -> Result<Program, CompileError> {
    check::check(&mut module)?;
    opt::fold_module(&mut module);
    if cfg.opt == OptLevel::O1 {
        if cfg.unroll >= 2 {
            opt::unroll_module(&mut module, cfg.unroll);
        }
        opt::rotate_module(&mut module);
    }
    let opts = LowerOptions {
        isa: cfg.isa,
        cmov: cfg.cmov && cfg.isa == Isa::Alpha && cfg.opt == OptLevel::O1,
    };
    let mut funcs = lower::lower_module(&module, opts);
    for f in funcs.iter_mut() {
        if cfg.opt == OptLevel::O1 {
            ir_opt::cleanup(f);
        } else {
            ir_opt::layout(f);
        }
    }
    let main = funcs
        .iter()
        .position(|f| f.name == "main")
        .expect("checker guarantees main");
    let prog = Program {
        name: module.name,
        funcs,
        main: FuncId(main as u32),
        isa: cfg.isa,
    };
    esp_ir::validate_program(&prog)?;
    Ok(prog)
}

/// Parse and compile source text in the given language.
///
/// # Errors
///
/// Returns parse, type or codegen errors; see [`CompileError`].
pub fn compile_source(
    name: &str,
    src: &str,
    lang: Lang,
    cfg: &CompilerConfig,
) -> Result<Program, CompileError> {
    let module = match lang {
        Lang::C => cee::parse(name, src)?,
        Lang::Fort => fort::parse(name, src)?,
    };
    compile_module(module, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        int sum(int *a, int n) {
            int s = 0;
            int i;
            for (i = 0; i < n; i = i + 1) { s = s + a[i]; }
            return s;
        }
        int main() {
            int a[16];
            int i;
            for (i = 0; i < 16; i = i + 1) { a[i] = i; }
            return sum(a, 16);
        }
    "#;

    fn run(prog: &Program) -> i64 {
        let out = esp_exec::run(prog, &esp_exec::ExecLimits::default()).expect("runs");
        match out.ret {
            Some(esp_exec::Value::Int(v)) => v,
            other => panic!("unexpected return {other:?}"),
        }
    }

    #[test]
    fn all_configs_agree_on_semantics() {
        let mut results = Vec::new();
        for cfg in [
            CompilerConfig::o0(),
            CompilerConfig::cc_osf1_v12(),
            CompilerConfig::cc_osf1_v20(),
            CompilerConfig::gem(),
            CompilerConfig::gnu(),
            CompilerConfig::mips_ref(),
        ] {
            let prog = compile_source("sum", SRC, Lang::C, &cfg).expect("compiles");
            results.push((cfg.name, run(&prog)));
        }
        for (name, v) in &results {
            assert_eq!(*v, 120, "config {name} returned {v}");
        }
    }

    #[test]
    fn gem_unrolling_reduces_loop_iteration_branches() {
        let base = compile_source("sum", SRC, Lang::C, &CompilerConfig::cc_osf1_v12()).unwrap();
        let gem = compile_source("sum", SRC, Lang::C, &CompilerConfig::gem()).unwrap();
        let count = |p: &Program| {
            esp_exec::run(p, &esp_exec::ExecLimits::default())
                .expect("runs")
                .profile
                .dyn_cond_branches
        };
        assert!(
            count(&gem) < count(&base),
            "unrolling should execute fewer conditional branches"
        );
    }

    #[test]
    fn mips_flavour_uses_two_register_branches() {
        let src = "int main() { int a = 3; int b = 4; if (a == b) { return 1; } return 0; }";
        let prog = compile_source("eq", src, Lang::C, &CompilerConfig::mips_ref()).unwrap();
        let two_reg = prog
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .any(|b| matches!(b.term, esp_ir::Terminator::CondBranch { rt: Some(_), .. }));
        assert!(two_reg, "expected a two-register branch on MIPS");

        let prog = compile_source("eq", src, Lang::C, &CompilerConfig::cc_osf1_v12()).unwrap();
        let any_two_reg = prog
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .any(|b| matches!(b.term, esp_ir::Terminator::CondBranch { rt: Some(_), .. }));
        assert!(!any_two_reg, "Alpha never compares two registers directly");
    }

    #[test]
    fn fort_source_compiles_and_runs() {
        let src = r#"
            INTEGER FUNCTION TRI(N)
              INTEGER N, I, S
              S = 0
              DO I = 1, N
                S = S + I
              ENDDO
              TRI = S
              RETURN
            END
            PROGRAM P
              INTEGER R
              R = TRI(10)
            END
        "#;
        let prog =
            compile_source("tri", src, Lang::Fort, &CompilerConfig::default()).expect("compiles");
        // main is void; just check it runs and profiles branches
        let out = esp_exec::run(&prog, &esp_exec::ExecLimits::default()).expect("runs");
        assert!(out.profile.dyn_cond_branches > 0);
    }

    #[test]
    fn cmov_configs_emit_cmov() {
        let src = "int main() { int x = 5; int m = 0; if (x > 3) { m = x; } return m; }";
        let with = compile_source("m", src, Lang::C, &CompilerConfig::gem()).unwrap();
        let without = compile_source("m", src, Lang::C, &CompilerConfig::gnu()).unwrap();
        let has_cmov = |p: &Program| {
            p.funcs
                .iter()
                .flat_map(|f| &f.blocks)
                .flat_map(|b| &b.insns)
                .any(|i| matches!(i, esp_ir::Insn::CMov { .. }))
        };
        assert!(has_cmov(&with));
        assert!(!has_cmov(&without));
        assert_eq!(run(&with), 5);
        assert_eq!(run(&without), 5);
    }
}
