//! Pins what the corpus gives the predictors to tell apart, on the full
//! corpus under the default compiler, over every executed branch site:
//!
//! * the sites where APHC and the two DSHC combiners predict differently;
//! * the distinct encoded feature rows per language (a row is the encoded
//!   Table 2 record with its masked positions blanked, as the network sees
//!   it after gating);
//! * per leave-one-out fold, the held-out program's executions at rows no
//!   training program of its language has — the only executions where ESP
//!   would have to generalise to an unseen branch shape;
//! * per heuristic, the executions at sites where it is the only Table 1
//!   heuristic that applies.
//!
//! These are properties of the generated corpus, not of any predictor's
//! code: a corpus change that makes the combiners disagree, adds branch
//! shapes or lets a heuristic decide alone shows up here as a deliberate
//! diff.

use std::collections::HashSet;

use esp_repro::esp::{encode, extract, FeatureSet};
use esp_repro::eval::{BenchData, SuiteData};
use esp_repro::heur::{measure_rates, Aphc, BranchCtx, Dshc, Heuristic, HeuristicRates};
use esp_repro::ir::Lang;
use esp_repro::lang::CompilerConfig;

/// Executions per heuristic where it alone applies, in Table 1 order.
const SOLE_DECIDER_EXECUTIONS: [(&str, u64); 9] = [
    ("Loop Branch", 2668822),
    ("Pointer", 0),
    ("Opcode", 170479),
    ("Guard", 0),
    ("Loop Exit", 0),
    ("Loop Header", 1153),
    ("Call", 0),
    ("Store", 1408272),
    ("Return", 1389),
];

/// An encoded row: each position's bits, or `u64::MAX` where the mask
/// blanks it.
type Row = Vec<u64>;

/// Every executed site of `b` as (encoded row, executions).
fn executed_rows(b: &BenchData) -> Vec<(Row, u64)> {
    let set = FeatureSet::default();
    b.prog
        .branch_sites()
        .into_iter()
        .filter_map(|site| {
            let executed = b.profile.counts(site)?.executed;
            (executed > 0).then(|| {
                let (row, mask) = encode(&extract(&b.prog, &b.analysis, site), &set);
                let key = row
                    .iter()
                    .zip(&mask)
                    .map(|(x, &keep)| if keep { x.to_bits() } else { u64::MAX })
                    .collect();
                (key, executed)
            })
        })
        .collect()
}

#[test]
fn corpus_diagnostics_are_pinned() {
    let suite = SuiteData::build_with_threads(&CompilerConfig::default(), 0);

    let aphc = Aphc::table1_order();
    let dshc_bl = Dshc::new(HeuristicRates::ball_larus_mips());
    let dshc_ours = Dshc::new(measure_rates(
        suite
            .benches
            .iter()
            .map(|b| (&b.prog, &b.analysis, &b.profile)),
    ));
    let mut executed_sites = 0;
    let mut combiners_differ = 0;
    let mut sole = [0u64; 9];
    for b in &suite.benches {
        for site in b.prog.branch_sites() {
            let Some(c) = b.profile.counts(site).filter(|c| c.executed > 0) else {
                continue;
            };
            executed_sites += 1;
            let ctx = BranchCtx::new(&b.prog, &b.analysis, site);
            let a = aphc.predict(&ctx);
            if a != dshc_bl.predict(&ctx) || a != dshc_ours.predict(&ctx) {
                combiners_differ += 1;
            }
            let applying: Vec<Heuristic> = Heuristic::TABLE1_ORDER
                .into_iter()
                .filter(|h| h.predict(&ctx).is_some())
                .collect();
            if let [h] = applying[..] {
                sole[h.ordinal()] += c.executed;
            }
        }
    }
    assert_eq!(executed_sites, 3018, "executed branch sites");
    assert_eq!(
        combiners_differ, 0,
        "sites where APHC and a DSHC predict differently"
    );
    let sole: Vec<(&str, u64)> = Heuristic::TABLE1_ORDER
        .into_iter()
        .map(|h| (h.name(), sole[h.ordinal()]))
        .collect();
    assert_eq!(sole, SOLE_DECIDER_EXECUTIONS, "sole-decider executions");

    for (lang, distinct) in [(Lang::C, 44), (Lang::Fort, 27)] {
        let rows: Vec<Vec<(Row, u64)>> = suite
            .lang_indices(lang)
            .into_iter()
            .map(|i| executed_rows(&suite.benches[i]))
            .collect();
        let all: HashSet<&Row> = rows.iter().flatten().map(|(r, _)| r).collect();
        assert_eq!(all.len(), distinct, "{lang:?}: distinct encoded rows");
        // Fold i holds out program i and trains on the rest of its group.
        let unseen: Vec<u64> = (0..rows.len())
            .map(|held_out| {
                let seen: HashSet<&Row> = rows
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != held_out)
                    .flat_map(|(_, program)| program.iter().map(|(r, _)| r))
                    .collect();
                rows[held_out]
                    .iter()
                    .filter(|(r, _)| !seen.contains(r))
                    .map(|(_, n)| n)
                    .sum()
            })
            .collect();
        assert_eq!(
            unseen,
            vec![0; rows.len()],
            "{lang:?}: held-out executions at rows no training program has, per fold"
        );
    }
}
