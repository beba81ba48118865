//! Attachment of `esp-analyze` facts to branch-feature records.
//!
//! The extended feature set appends analysis-derived facts to the paper's
//! Table 2 vector. Computing those facts means running three dataflow
//! analyses per function, so they are computed once per program via
//! [`ExtendedContext`] and looked up per site — the training loop and the
//! batched prediction paths both hold one context per program.

use esp_analyze::FuncFacts;
use esp_ir::{BranchId, Program, ProgramAnalysis};

use crate::features::{BranchFeatures, ExtendedFeatures};

/// Per-program cache of the `esp-analyze` facts behind the extended
/// feature set.
#[derive(Debug)]
pub struct ExtendedContext {
    facts: Vec<FuncFacts>,
}

impl ExtendedContext {
    /// Run the analyses over every function of `prog`.
    pub fn new(prog: &Program, analysis: &ProgramAnalysis) -> ExtendedContext {
        ExtendedContext {
            facts: prog
                .funcs
                .iter()
                .enumerate()
                .map(|(i, f)| FuncFacts::compute(f, analysis.func(esp_ir::FuncId(i as u32))))
                .collect(),
        }
    }

    /// The extended facts of one branch site. Sites without computed facts
    /// (e.g. in SCCP-unreachable code) report the all-unknown record.
    pub fn get(&self, site: BranchId) -> ExtendedFeatures {
        self.facts[site.func.index()]
            .branches
            .iter()
            .find(|(b, _)| *b == site.block)
            .map(|(_, bf)| ExtendedFeatures {
                decided: bf.decided,
                pointer_test: bf.pointer_test,
                lhs_const: bf.lhs_const,
                invariant: bf.invariant,
                guard: bf.guard,
                guard_taken_stays: bf.guard_taken_stays,
            })
            .unwrap_or_else(ExtendedFeatures::unknown)
    }

    /// Attach this context's facts for `site` onto a feature record.
    pub fn attach(&self, site: BranchId, f: &mut BranchFeatures) {
        f.extended = Some(self.get(site));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;
    use esp_lang::{compile_source, CompilerConfig};

    #[test]
    fn context_attaches_facts_per_site() {
        let src = r#"
            int main() {
                int i = 0;
                int s = 0;
                while (i < 80) {
                    if (s < 0) { return 0; }
                    s = s + i;
                    i = i + 1;
                }
                return s;
            }
        "#;
        let prog = compile_source("t", src, esp_ir::Lang::C, &CompilerConfig::default()).unwrap();
        let analysis = ProgramAnalysis::analyze(&prog);
        let ctx = ExtendedContext::new(&prog, &analysis);
        let sites = prog.branch_sites();
        assert!(!sites.is_empty());
        let mut any_guard = false;
        for site in sites {
            let mut f = extract(&prog, &analysis, site);
            assert_eq!(f.extended, None, "extract never attaches");
            ctx.attach(site, &mut f);
            let e = f.extended.unwrap();
            any_guard |= e.guard;
        }
        assert!(any_guard, "the while loop must expose a guard branch");
    }
}
