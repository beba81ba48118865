//! Table 3: measured attributes of the traced programs.

use crate::data::SuiteData;
use crate::fmt::{pct1, TextTable};

/// One program's Table 3 row.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Program name.
    pub name: String,
    /// Dynamic IR instructions traced.
    pub insns_traced: u64,
    /// Percentage of instructions that are conditional branches.
    pub pct_cond_branches: f64,
    /// Percentage of executed conditional branches that were taken.
    pub pct_taken: f64,
    /// Number of hottest branch sites covering 50/75/90/95/99/100% of
    /// executions.
    pub quantiles: [usize; 6],
    /// Total static conditional branch sites.
    pub static_sites: usize,
}

/// Compute every row of Table 3.
pub fn compute(suite: &SuiteData) -> Vec<Table3Row> {
    suite
        .benches
        .iter()
        .map(|b| {
            let p = &b.profile;
            let q = [0.50, 0.75, 0.90, 0.95, 0.99, 1.0].map(|f| p.quantile_sites(f));
            Table3Row {
                name: b.bench.name.to_string(),
                insns_traced: p.dyn_insns,
                pct_cond_branches: if p.dyn_insns == 0 {
                    0.0
                } else {
                    p.dyn_cond_branches as f64 / p.dyn_insns as f64
                },
                pct_taken: p.overall_taken_fraction().unwrap_or(0.0),
                quantiles: q,
                static_sites: b.prog.branch_sites().len(),
            }
        })
        .collect()
}

/// Render Table 3 in the paper's layout.
pub fn table3(suite: &SuiteData) -> String {
    let rows = compute(suite);
    let mut t = TextTable::new(vec![
        "Program",
        "# Insns Traced",
        "% Cond",
        "%Taken",
        "Q-50",
        "Q-75",
        "Q-90",
        "Q-95",
        "Q-99",
        "Q-100",
        "Static",
    ]);
    let mut prev_group = None;
    for (row, bench) in rows.iter().zip(&suite.benches) {
        if prev_group.is_some() && prev_group != Some(bench.bench.group) {
            t.separator();
        }
        prev_group = Some(bench.bench.group);
        t.row(vec![
            row.name.clone(),
            row.insns_traced.to_string(),
            pct1(row.pct_cond_branches),
            pct1(row.pct_taken),
            row.quantiles[0].to_string(),
            row.quantiles[1].to_string(),
            row.quantiles[2].to_string(),
            row.quantiles[3].to_string(),
            row.quantiles[4].to_string(),
            row.quantiles[5].to_string(),
            row.static_sites.to_string(),
        ]);
    }
    format!(
        "Table 3: measured attributes of the traced programs ({})\n\n{}",
        suite.config.name,
        t.render()
    )
}
