//! Table 5: detailed results for the heuristic approach — loop branches vs
//! non-loop branches, heuristic coverage, and the random-default accounting.

use esp_heur::{Aphc, BranchCtx, Heuristic};

use crate::data::{BenchData, SuiteData};
use crate::fmt::{pct, TextTable};

/// One program's Table 5 row (fractions, not percentages).
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// Program name.
    pub name: String,
    /// Miss rate on loop branches (sites the Loop Branch heuristic covers).
    pub loop_miss: f64,
    /// Fraction of executed branches that are non-loop branches.
    pub pct_non_loop: f64,
    /// Of the non-loop executions, the fraction covered by some non-loop
    /// heuristic.
    pub coverage: f64,
    /// Miss rate of the heuristics on the covered non-loop executions.
    pub heur_miss: f64,
    /// Miss rate over all non-loop executions, uncovered ones scored as coin
    /// flips ("with default").
    pub nonloop_miss: f64,
    /// Overall miss rate (loop + non-loop), i.e. the APHC number.
    pub overall: f64,
}

/// Compute one program's row.
pub fn compute_one(b: &BenchData) -> Table5Row {
    let aphc = Aphc::table1_order();
    let mut loop_exec = 0u64;
    let mut loop_miss = 0.0f64;
    let mut nl_exec = 0u64;
    let mut nl_miss = 0.0f64;
    let mut nl_cov_exec = 0u64;
    let mut nl_cov_miss = 0.0f64;

    // Every charge is a whole or half execution count below 2^53, so the
    // sums are exact whatever order they accumulate in.
    for site in b.prog.branch_sites() {
        let Some(c) = b.profile.counts(site) else {
            continue;
        };
        let ctx = BranchCtx::new(&b.prog, &b.analysis, site);
        if let Some(pred) = Heuristic::LoopBranch.predict(&ctx) {
            loop_exec += c.executed;
            loop_miss += c.misses(Some(pred));
            continue;
        }
        let pred = aphc.predict(&ctx);
        let miss = c.misses(pred);
        nl_exec += c.executed;
        nl_miss += miss;
        if pred.is_some() {
            nl_cov_exec += c.executed;
            nl_cov_miss += miss;
        }
    }

    let total = loop_exec + nl_exec;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    Table5Row {
        name: b.bench.name.to_string(),
        loop_miss: ratio(loop_miss, loop_exec as f64),
        pct_non_loop: ratio(nl_exec as f64, total as f64),
        coverage: ratio(nl_cov_exec as f64, nl_exec as f64),
        heur_miss: ratio(nl_cov_miss, nl_cov_exec as f64),
        nonloop_miss: ratio(nl_miss, nl_exec as f64),
        overall: ratio(loop_miss + nl_miss, total as f64),
    }
}

/// Compute every row of Table 5.
pub fn compute(suite: &SuiteData) -> Vec<Table5Row> {
    suite.benches.iter().map(compute_one).collect()
}

/// Render Table 5 in the paper's layout.
pub fn table5(suite: &SuiteData) -> String {
    let rows = compute(suite);
    let mut t = TextTable::new(vec![
        "Program",
        "Loop Miss",
        "%Non-Loop",
        "%Covered",
        "Heur Miss",
        "w/ Default",
        "Overall",
    ]);
    let mut prev_group = None;
    for (row, bench) in rows.iter().zip(&suite.benches) {
        if prev_group.is_some() && prev_group != Some(bench.bench.group) {
            t.separator();
        }
        prev_group = Some(bench.bench.group);
        t.row(vec![
            row.name.clone(),
            pct(row.loop_miss),
            pct(row.pct_non_loop),
            pct(row.coverage),
            pct(row.heur_miss),
            pct(row.nonloop_miss),
            pct(row.overall),
        ]);
    }
    let n = rows.len().max(1) as f64;
    t.separator();
    t.row(vec![
        "Overall Avg".to_string(),
        pct(rows.iter().map(|r| r.loop_miss).sum::<f64>() / n),
        pct(rows.iter().map(|r| r.pct_non_loop).sum::<f64>() / n),
        pct(rows.iter().map(|r| r.coverage).sum::<f64>() / n),
        pct(rows.iter().map(|r| r.heur_miss).sum::<f64>() / n),
        pct(rows.iter().map(|r| r.nonloop_miss).sum::<f64>() / n),
        pct(rows.iter().map(|r| r.overall).sum::<f64>() / n),
    ]);
    format!(
        "Table 5: program-based heuristic detail ({})\n\n{}",
        suite.config.name,
        t.render()
    )
}
