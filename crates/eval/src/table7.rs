//! Table 7: one program (the `espresso` analogue) compiled with four
//! different compilers — the paper's demonstration that heuristic accuracy
//! is compiler-dependent.

use esp_corpus::suite;
use esp_heur::perfect_predict;
use esp_lang::CompilerConfig;

use crate::data::BenchData;
use crate::fmt::{pct, TextTable};
use crate::miss::miss_rate;
use crate::table5;

/// One compiler's Table 7 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table7Row {
    /// Compiler configuration name.
    pub compiler: String,
    /// Miss rate on loop branches.
    pub loop_miss: f64,
    /// Fraction of executed branches that are non-loop.
    pub pct_non_loop: f64,
    /// Heuristic coverage of non-loop executions.
    pub coverage: f64,
    /// Non-loop miss rate with the random default.
    pub nonloop_miss: f64,
    /// Overall APHC miss rate.
    pub overall: f64,
    /// Perfect static miss rate under this compiler.
    pub perfect: f64,
}

/// Run the study for `program` (defaults to `espresso` in [`table7`]).
pub fn compute(program: &str, configs: &[CompilerConfig]) -> Vec<Table7Row> {
    let bench = suite()
        .into_iter()
        .find(|b| b.name == program)
        .unwrap_or_else(|| panic!("unknown benchmark `{program}`"));
    configs
        .iter()
        .map(|cfg| {
            let data = BenchData::build(&bench, cfg);
            let t5 = table5::compute_one(&data);
            let perfect = miss_rate(&data, |s| perfect_predict(&data.profile, s));
            Table7Row {
                compiler: cfg.name.to_string(),
                loop_miss: t5.loop_miss,
                pct_non_loop: t5.pct_non_loop,
                coverage: t5.coverage,
                nonloop_miss: t5.nonloop_miss,
                overall: t5.overall,
                perfect,
            }
        })
        .collect()
}

/// Render Table 7 in the paper's layout for the `espresso` analogue under
/// the four Table 7 compiler configurations.
pub fn table7() -> String {
    let rows = compute("espresso", &CompilerConfig::table7_suite());
    let mut t = TextTable::new(vec![
        "Compiler",
        "Loop Miss",
        "%Non-Loop",
        "%Covered",
        "Non-Loop Miss",
        "Overall",
        "Perfect",
    ]);
    for r in &rows {
        t.row(vec![
            r.compiler.clone(),
            pct(r.loop_miss),
            pct(r.pct_non_loop),
            pct(r.coverage),
            pct(r.nonloop_miss),
            pct(r.overall),
            pct(r.perfect),
        ]);
    }
    format!(
        "Table 7: accuracy of prediction heuristics for `espresso` under different compilers\n\n{}",
        t.render()
    )
}
