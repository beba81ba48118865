//! The corpus linter: stable diagnostics over whole programs.
//!
//! [`lint_program`] runs [`FuncFacts`] over every
//! function of a program and emits findings with stable codes:
//!
//! | code | meaning |
//! |------|---------|
//! | `L001` | unreachable basic block (no CFG path, or constant propagation proves no executable path) |
//! | `L002` | conditional branch statically decided — one arm never executes |
//! | `L003` | dead store: a register definition no execution path reads |
//! | `L004` | loop-invariant branch condition — resolves identically on every iteration |
//!
//! Findings are sorted by `(function, block, instruction, code)`, so two
//! runs over the same program produce byte-identical reports; the
//! machine-readable JSON ([`report_json`]) is newline-per-finding and
//! diffable, which is how `verify.sh` pins the corpus-wide golden file.
//!
//! `L002` findings carry the proved direction and are the subject of the
//! execution oracle: any branch reported one-sided must show a profile
//! `taken_prob` of exactly 0.0 or 1.0.

use esp_ir::{BlockId, FuncId, Program, ProgramAnalysis};

use crate::facts::FuncFacts;

/// Stable diagnostic codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintCode {
    /// Unreachable basic block.
    UnreachableBlock,
    /// Statically decided conditional branch.
    DecidedBranch,
    /// Dead register definition.
    DeadStore,
    /// Loop-invariant branch condition.
    InvariantCondition,
}

impl LintCode {
    /// The stable code string (`L001`..`L004`).
    pub fn code(self) -> &'static str {
        match self {
            LintCode::UnreachableBlock => "L001",
            LintCode::DecidedBranch => "L002",
            LintCode::DeadStore => "L003",
            LintCode::InvariantCondition => "L004",
        }
    }
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Diagnostic code.
    pub code: LintCode,
    /// Containing function.
    pub func: FuncId,
    /// Function name (for human-readable output).
    pub func_name: String,
    /// Block the finding anchors to.
    pub block: BlockId,
    /// Instruction index, for instruction-level findings (`L003`).
    pub insn: Option<usize>,
    /// For `L002`: the proved direction (`true` = always taken).
    pub verdict: Option<bool>,
    /// Human-readable explanation.
    pub message: String,
}

/// Lint every function of `prog`. `analysis` must be the analysis of the
/// same program. The result is deterministically ordered.
pub fn lint_program(prog: &Program, analysis: &ProgramAnalysis) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, func) in prog.funcs.iter().enumerate() {
        let fid = FuncId(fi as u32);
        let fa = analysis.func(fid);
        let facts = FuncFacts::compute(func, fa);
        let mut push = |code, block, insn, verdict, message: String| {
            out.push(Finding {
                code,
                func: fid,
                func_name: func.name.clone(),
                block,
                insn,
                verdict,
                message,
            });
        };

        for bi in 0..func.num_blocks() {
            let block = BlockId(bi as u32);
            if !fa.cfg.is_reachable(block) {
                push(
                    LintCode::UnreachableBlock,
                    block,
                    None,
                    None,
                    "unreachable block: no CFG path from entry".to_string(),
                );
            } else if !facts.reachable[bi] {
                push(
                    LintCode::UnreachableBlock,
                    block,
                    None,
                    None,
                    "unreachable block: constant propagation proves no executable path".to_string(),
                );
            }
        }

        for &(block, bf) in &facts.branches {
            if !facts.reachable[block.index()] {
                continue;
            }
            if let Some(taken) = bf.decided {
                let how = if bf.decided_by_interval {
                    "interval analysis"
                } else {
                    "constant propagation"
                };
                let arm = if taken { "taken" } else { "not-taken" };
                push(
                    LintCode::DecidedBranch,
                    block,
                    None,
                    Some(taken),
                    format!("branch statically decided: always {arm} ({how})"),
                );
            } else if bf.invariant {
                push(
                    LintCode::InvariantCondition,
                    block,
                    None,
                    None,
                    "loop-invariant branch condition: resolves identically on every iteration"
                        .to_string(),
                );
            }
        }

        for d in &facts.dead {
            if !facts.reachable[d.block.index()] {
                continue;
            }
            push(
                LintCode::DeadStore,
                d.block,
                Some(d.insn),
                None,
                format!("dead store: r{} defined but never read", d.reg.0),
            );
        }
    }
    out.sort_by(|a, b| {
        (a.func.0, a.block.0, a.insn.unwrap_or(usize::MAX), a.code).cmp(&(
            b.func.0,
            b.block.0,
            b.insn.unwrap_or(usize::MAX),
            b.code,
        ))
    });
    out
}

/// A named program together with its findings.
#[derive(Debug, Clone)]
pub struct ProgramReport {
    /// Program (benchmark) name.
    pub name: String,
    /// Its findings, as produced by [`lint_program`].
    pub findings: Vec<Finding>,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn finding_json(f: &Finding) -> String {
    let mut s = format!(
        "{{\"code\": \"{}\", \"func\": \"{}\", \"site\": \"f{}:b{}\"",
        f.code.code(),
        escape(&f.func_name),
        f.func.0,
        f.block.0
    );
    if let Some(i) = f.insn {
        s.push_str(&format!(", \"insn\": {i}"));
    }
    if let Some(v) = f.verdict {
        s.push_str(&format!(
            ", \"verdict\": \"{}\"",
            if v { "taken" } else { "not-taken" }
        ));
    }
    s.push_str(&format!(", \"message\": \"{}\"}}", escape(&f.message)));
    s
}

/// Serialise one program's findings as a JSON object, one finding per line.
pub fn findings_json(program_name: &str, findings: &[Finding]) -> String {
    let mut s = format!("    {{\n      \"name\": \"{}\",\n", escape(program_name));
    s.push_str(&format!("      \"count\": {},\n", findings.len()));
    s.push_str("      \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n        ");
        s.push_str(&finding_json(f));
    }
    if findings.is_empty() {
        s.push(']');
    } else {
        s.push_str("\n      ]");
    }
    s.push_str("\n    }");
    s
}

/// Serialise a whole corpus report: stable, diffable, newline-per-finding.
pub fn report_json(reports: &[ProgramReport]) -> String {
    let total: usize = reports.iter().map(|r| r.findings.len()).sum();
    let mut s = String::from("{\n  \"programs\": [");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('\n');
        s.push_str(&findings_json(&r.name, &r.findings));
    }
    s.push_str("\n  ],\n");
    s.push_str(&format!("  \"total\": {total}\n}}\n"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_ir::builder::FunctionBuilder;
    use esp_ir::insn::CmpOp;
    use esp_ir::term::BranchOp;
    use esp_ir::{Isa, Lang};

    fn one_func_program(f: esp_ir::Function) -> Program {
        Program {
            name: "test".to_string(),
            funcs: vec![f],
            main: FuncId(0),
            isa: Isa::Mips,
        }
    }

    #[test]
    fn decided_branch_and_dead_arm_reported() {
        let mut b = FunctionBuilder::new("main", 0, Lang::C);
        let c = b.fresh_reg();
        let t = b.fresh_reg();
        let e = b.entry_block();
        let dead = b.new_block();
        let live = b.new_block();
        b.push_load_imm(e, c, 3);
        b.push_cmp_imm(e, CmpOp::Eq, t, c, 3);
        b.set_cond_branch(e, BranchOp::Beq, t, None, dead, live);
        b.set_return(dead, None);
        b.set_return(live, None);
        let prog = one_func_program(b.finish());
        let analysis = ProgramAnalysis::analyze(&prog);
        let findings = lint_program(&prog, &analysis);
        let codes: Vec<&str> = findings.iter().map(|f| f.code.code()).collect();
        // beq on t=1 is NOT taken -> falls to `live`; `dead` is unreachable.
        assert!(codes.contains(&"L002"), "decided branch: {findings:?}");
        assert!(codes.contains(&"L001"), "dead arm: {findings:?}");
        let l002 = findings.iter().find(|f| f.code.code() == "L002").unwrap();
        assert_eq!(l002.verdict, Some(false));
    }

    #[test]
    fn dead_store_reported_with_insn_index() {
        let mut b = FunctionBuilder::new("main", 0, Lang::C);
        let r = b.fresh_reg();
        let e = b.entry_block();
        b.push_load_imm(e, r, 1);
        b.push_load_imm(e, r, 2);
        b.set_return(e, Some(r));
        let prog = one_func_program(b.finish());
        let analysis = ProgramAnalysis::analyze(&prog);
        let findings = lint_program(&prog, &analysis);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].code, LintCode::DeadStore);
        assert_eq!(findings[0].insn, Some(0));
    }

    #[test]
    fn report_json_is_stable_and_parsable_shape() {
        let reports = vec![
            ProgramReport {
                name: "a".to_string(),
                findings: vec![],
            },
            ProgramReport {
                name: "b".to_string(),
                findings: vec![Finding {
                    code: LintCode::DecidedBranch,
                    func: FuncId(0),
                    func_name: "main".to_string(),
                    block: BlockId(2),
                    insn: None,
                    verdict: Some(true),
                    message: "m".to_string(),
                }],
            },
        ];
        let a = report_json(&reports);
        let b = report_json(&reports);
        assert_eq!(a, b);
        assert!(a.contains("\"total\": 1"));
        assert!(a.contains("\"site\": \"f0:b2\""));
        assert!(a.contains("\"verdict\": \"taken\""));
    }
}
