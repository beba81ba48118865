//! The correctness oracle: the static analyses claim facts about *real*
//! executions, so every branch the linter proves one-sided (`L002`) must
//! agree exactly with the execution profile — `taken_prob` 1.0 for
//! always-taken, 0.0 for always-not-taken. A single counterexample means
//! an analysis transfer function or edge refinement is unsound.
//!
//! The full 43-program sweep lives in `esp_lint --oracle` (gated by
//! verify.sh); this test covers a cross-section cheap enough for `cargo
//! test` while exercising both languages and every analysis.

use esp_analyze::{lint_program, LintCode};
use esp_ir::{BranchId, ProgramAnalysis};
use esp_lang::CompilerConfig;

const SUBSET: &[&str] = &["sort", "grep", "sed", "gzip", "eqntott", "tomcatv"];

#[test]
fn decided_branches_match_execution_profiles() {
    let cfg = CompilerConfig::default();
    let mut decided_checked = 0usize;
    for b in esp_corpus::suite()
        .into_iter()
        .filter(|b| SUBSET.contains(&b.name))
    {
        let prog = b.compile(&cfg).expect("compiles");
        let analysis = ProgramAnalysis::analyze(&prog);
        let findings = lint_program(&prog, &analysis);
        let profile = esp_corpus::profile(&prog).expect("runs");
        for f in findings
            .iter()
            .filter(|f| f.code == LintCode::DecidedBranch)
        {
            let verdict = f.verdict.expect("L002 carries a verdict");
            let site = BranchId {
                func: f.func,
                block: f.block,
            };
            // Never-executed sites cannot contradict a static proof.
            let Some(p) = profile.counts(site).and_then(|c| c.taken_prob()) else {
                continue;
            };
            let expect = if verdict { 1.0 } else { 0.0 };
            assert_eq!(
                p,
                expect,
                "{}: {site} proved always {} but ran with taken_prob {p}",
                b.name,
                if verdict { "taken" } else { "not-taken" },
            );
            decided_checked += 1;
        }
    }
    // The oracle is vacuous if nothing was cross-checked; the reference
    // configuration decides plenty of branches in this subset.
    assert!(
        decided_checked >= 20,
        "only {decided_checked} decided branches were executed and checked"
    );
}

#[test]
fn unreachable_blocks_never_execute() {
    // Dual oracle: any block an analysis marks unreachable (L001) must
    // have no executed branch profile. The reference compiler currently
    // emits no dead blocks, so this mostly pins that L001 stays silent
    // rather than firing spuriously on live code.
    let cfg = CompilerConfig::default();
    for b in esp_corpus::suite()
        .into_iter()
        .filter(|b| SUBSET.contains(&b.name))
    {
        let prog = b.compile(&cfg).expect("compiles");
        let analysis = ProgramAnalysis::analyze(&prog);
        let findings = lint_program(&prog, &analysis);
        let profile = esp_corpus::profile(&prog).expect("runs");
        for f in findings
            .iter()
            .filter(|f| f.code == LintCode::UnreachableBlock)
        {
            let site = BranchId {
                func: f.func,
                block: f.block,
            };
            assert!(
                profile.counts(site).is_none_or(|c| c.executed == 0),
                "{}: {site} proved unreachable but executed",
                b.name
            );
        }
    }
}
