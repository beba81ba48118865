//! Table 6: per-heuristic miss rates compared across architectures and
//! languages — the paper's evidence that heuristic effectiveness is
//! platform-dependent.

use esp_heur::{measure_rates, Heuristic, HeuristicRates};
use esp_ir::Lang;
use esp_lang::CompilerConfig;

use crate::data::{BenchData, SuiteData};
use crate::fmt::{pct, TextTable};

/// Compute the four measured columns: (Alpha overall, Alpha C-only, Alpha
/// Fortran-only, MIPS overall). The Alpha columns use `alpha_suite`; the
/// MIPS column recompiles and profiles the same programs, in the same
/// order, with [`CompilerConfig::mips_ref`] on `threads` workers (`0` = one
/// per core).
pub fn compute(
    alpha_suite: &SuiteData,
    threads: usize,
) -> (
    HeuristicRates,
    HeuristicRates,
    HeuristicRates,
    HeuristicRates,
) {
    let all = measure_rates(
        alpha_suite
            .benches
            .iter()
            .map(|b| (&b.prog, &b.analysis, &b.profile)),
    );
    let c_only = measure_rates(
        alpha_suite
            .benches
            .iter()
            .filter(|b| b.bench.lang == Lang::C)
            .map(|b| (&b.prog, &b.analysis, &b.profile)),
    );
    let f_only = measure_rates(
        alpha_suite
            .benches
            .iter()
            .filter(|b| b.bench.lang == Lang::Fort)
            .map(|b| (&b.prog, &b.analysis, &b.profile)),
    );

    // Recompile under the MIPS flavour (same programs, different ISA).
    let mips_cfg = CompilerConfig::mips_ref();
    let mips = esp_runtime::parallel_map(threads, &alpha_suite.benches, |b| {
        BenchData::build(&b.bench, &mips_cfg)
    });
    let mips_rates = measure_rates(mips.iter().map(|b| (&b.prog, &b.analysis, &b.profile)));

    (all, c_only, f_only, mips_rates)
}

/// Render Table 6 in the paper's layout (miss rates per heuristic; the
/// first column is Ball & Larus's published MIPS numbers, the others are
/// measured on this corpus; see [`compute`] for `threads`).
pub fn table6(alpha_suite: &SuiteData, threads: usize) -> String {
    let published = HeuristicRates::ball_larus_mips();
    let (ours_all, ours_c, ours_f, ours_mips) = compute(alpha_suite, threads);
    let mut t = TextTable::new(vec![
        "Heuristic",
        "B&L (MIPS)",
        "Ours (MIPS)",
        "Ours (Alpha)",
        "Ours C",
        "Ours Fortran",
    ]);
    for h in Heuristic::TABLE1_ORDER {
        t.row(vec![
            h.name().to_string(),
            pct(published.miss_rate(h)),
            pct(ours_mips.miss_rate(h)),
            pct(ours_all.miss_rate(h)),
            pct(ours_c.miss_rate(h)),
            pct(ours_f.miss_rate(h)),
        ]);
    }
    format!(
        "Table 6: per-heuristic branch miss rates across architectures and languages\n\
         (published B&L values vs this corpus; heuristics measured independently,\n\
         weighted by dynamic executions)\n\n{}",
        t.render()
    )
}
