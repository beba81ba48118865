//! Every benchmark of the 43-program suite must generate, parse, compile,
//! validate and run under the reference configurations — the corpus is the
//! foundation the whole study stands on.

use esp_corpus::{profile, suite};
use esp_ir::validate_program;
use esp_lang::CompilerConfig;

#[test]
fn all_43_programs_compile_and_run_on_alpha() {
    let mut total_branches = 0u64;
    for bench in suite() {
        let prog = bench
            .compile(&CompilerConfig::default())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        validate_program(&prog).unwrap_or_else(|e| panic!("{}: invalid IR: {e}", bench.name));
        let p = profile(&prog).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(
            p.dyn_cond_branches > 200,
            "{}: only {} conditional branches executed",
            bench.name,
            p.dyn_cond_branches
        );
        assert!(
            p.executed_sites() >= 10,
            "{}: only {} distinct branch sites executed",
            bench.name,
            p.executed_sites()
        );
        total_branches += p.dyn_cond_branches;
    }
    assert!(
        total_branches > 100_000,
        "suite too small overall: {total_branches}"
    );
}

#[test]
fn all_43_programs_compile_and_run_on_mips() {
    for bench in suite() {
        let prog = bench
            .compile(&CompilerConfig::mips_ref())
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        validate_program(&prog).unwrap_or_else(|e| panic!("{}: invalid IR: {e}", bench.name));
        let p = profile(&prog).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
        assert!(p.dyn_cond_branches > 0, "{}", bench.name);
    }
}

#[test]
fn suite_exhibits_a_wide_taken_rate_spread() {
    // The ESP study needs heterogeneous behaviour: some programs dominated
    // by taken loop latches, others noisy. Check the corpus spans a wide
    // %taken range like the paper's Table 3 (39.9% .. 99.3%).
    let mut rates = Vec::new();
    for bench in suite() {
        let prog = bench.compile(&CompilerConfig::default()).expect("compiles");
        let p = profile(&prog).expect("runs");
        rates.push((bench.name, p.overall_taken_fraction().unwrap_or(0.0)));
    }
    let min = rates.iter().cloned().fold(
        (None, 1.0),
        |acc, (n, r)| {
            if r < acc.1 {
                (Some(n), r)
            } else {
                acc
            }
        },
    );
    let max = rates.iter().cloned().fold(
        (None, 0.0),
        |acc, (n, r)| {
            if r > acc.1 {
                (Some(n), r)
            } else {
                acc
            }
        },
    );
    assert!(
        max.1 - min.1 > 0.25,
        "taken-rate spread too narrow: min {:?} max {:?} all {rates:?}",
        min,
        max
    );
    assert!(max.1 > 0.75, "no loop-dominated program: {rates:?}");
}

#[test]
fn fortran_programs_use_no_pointer_idioms() {
    use esp_ir::Lang;
    for bench in suite().iter().filter(|b| b.lang == Lang::Fort) {
        let src = bench.source();
        assert!(
            !src.contains("alloc_int") && !src.contains("null"),
            "{}: Fortran source must not contain pointer idioms",
            bench.name
        );
    }
}

#[test]
fn per_program_static_site_counts_are_substantial() {
    // Table 3's "Static" column: real programs had hundreds-thousands of
    // sites; ours should at least have dozens so the learner sees variety.
    let mut total = 0usize;
    for bench in suite() {
        let prog = bench.compile(&CompilerConfig::default()).expect("compiles");
        let sites = prog.branch_sites().len();
        assert!(sites >= 15, "{}: only {sites} static sites", bench.name);
        total += sites;
    }
    assert!(total > 1500, "suite-wide static sites: {total}");
}
