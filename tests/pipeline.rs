//! Cross-crate integration: corpus generation → front end → optimizer →
//! codegen → interpreter → profile, under several compiler configurations.

use esp_repro::corpus::{profile, suite};
use esp_repro::ir::{validate_program, Isa, Lang, ProgramAnalysis};
use esp_repro::lang::CompilerConfig;

/// A fast, representative slice of the corpus: both languages, all groups.
const SAMPLE: &[&str] = &["sort", "perl", "alvinn", "tomcatv", "fpppp", "TIS"];

#[test]
fn sample_benchmarks_compile_and_run_under_all_configs() {
    let all = suite();
    for name in SAMPLE {
        let bench = all.iter().find(|b| b.name == *name).expect("in suite");
        for cfg in [
            CompilerConfig::o0(),
            CompilerConfig::cc_osf1_v12(),
            CompilerConfig::cc_osf1_v20(),
            CompilerConfig::gem(),
            CompilerConfig::gnu(),
            CompilerConfig::mips_ref(),
        ] {
            let prog = bench
                .compile(&cfg)
                .unwrap_or_else(|e| panic!("{name} under {}: {e}", cfg.name));
            validate_program(&prog).expect("valid IR");
            assert_eq!(prog.isa, cfg.isa);
            let p = profile(&prog)
                .unwrap_or_else(|e| panic!("{name} under {} failed to run: {e}", cfg.name));
            assert!(
                p.dyn_cond_branches > 100,
                "{name} under {} executed only {} conditional branches",
                cfg.name,
                p.dyn_cond_branches
            );
        }
    }
}

#[test]
fn profiles_are_deterministic() {
    let all = suite();
    let bench = all.iter().find(|b| b.name == "grep").expect("in suite");
    let cfg = CompilerConfig::default();
    let p1 = profile(&bench.compile(&cfg).expect("compiles")).expect("runs");
    let p2 = profile(&bench.compile(&cfg).expect("compiles")).expect("runs");
    assert_eq!(p1.dyn_insns, p2.dyn_insns);
    assert_eq!(p1.dyn_cond_branches, p2.dyn_cond_branches);
    let sites1: Vec<_> = p1.iter().map(|(s, c)| (*s, *c)).collect();
    let sites2: Vec<_> = p2.iter().map(|(s, c)| (*s, *c)).collect();
    assert_eq!(sites1, sites2);
}

#[test]
fn language_tag_flows_from_frontend_to_ir() {
    let all = suite();
    for (name, lang) in [("sort", Lang::C), ("tomcatv", Lang::Fort)] {
        let bench = all.iter().find(|b| b.name == name).expect("in suite");
        let prog = bench.compile(&CompilerConfig::default()).expect("compiles");
        assert!(prog.funcs.iter().all(|f| f.lang == lang), "{name}");
    }
}

#[test]
fn isa_flavours_differ_in_branch_population() {
    let all = suite();
    let bench = all.iter().find(|b| b.name == "sort").expect("in suite");
    let alpha = bench
        .compile(&CompilerConfig::cc_osf1_v12())
        .expect("compiles");
    let mips = bench
        .compile(&CompilerConfig::mips_ref())
        .expect("compiles");
    let two_reg = |p: &esp_repro::ir::Program| {
        p.funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .filter(|b| {
                matches!(
                    b.term,
                    esp_repro::ir::Terminator::CondBranch { rt: Some(_), .. }
                )
            })
            .count()
    };
    assert_eq!(two_reg(&alpha), 0, "Alpha never uses two-register branches");
    assert!(two_reg(&mips) > 0, "MIPS flavour must use some");
    assert_eq!(alpha.isa, Isa::Alpha);
    assert_eq!(mips.isa, Isa::Mips);
}

#[test]
fn analysis_covers_every_branch_site() {
    let all = suite();
    let bench = all.iter().find(|b| b.name == "espresso").expect("in suite");
    let prog = bench.compile(&CompilerConfig::default()).expect("compiles");
    let analysis = ProgramAnalysis::analyze(&prog);
    for site in prog.branch_sites() {
        // Feature extraction must succeed for every site.
        let f = esp_repro::esp::extract(&prog, &analysis, site);
        let (v, mask) = esp_repro::esp::encode(&f, &esp_repro::esp::FeatureSet::default());
        assert_eq!(v.len(), esp_repro::esp::ENCODED_DIM);
        assert_eq!(mask.len(), esp_repro::esp::ENCODED_DIM);
    }
}
