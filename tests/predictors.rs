//! Cross-crate integration: the predictors compared end-to-end on a small
//! corpus slice, checking the orderings the paper's Table 4 reports.

use esp_repro::esp::{EspConfig, Learner};
use esp_repro::eval::{miss_rate, SuiteData, Table4Config};
use esp_repro::heur::{perfect_predict, Aphc, BranchCtx, Btfnt};
use esp_repro::lang::CompilerConfig;
use esp_repro::nnet::MlpConfig;

fn small_suite() -> SuiteData {
    SuiteData::build_subset(
        &["sort", "grep", "sed", "gzip", "wdiff", "od"],
        &CompilerConfig::default(),
        0,
    )
}

fn quick_table4() -> Table4Config {
    Table4Config {
        esp: EspConfig {
            learner: Learner::Net(MlpConfig {
                hidden: 5,
                max_epochs: 60,
                patience: 12,
                restarts: 1,
                ..MlpConfig::default()
            }),
            ..EspConfig::default()
        },
        model_cache: None,
        quant: None,
    }
}

#[test]
fn perfect_is_a_lower_bound_for_every_predictor() {
    let suite = small_suite();
    for b in &suite.benches {
        let aphc = Aphc::table1_order();
        let perfect = miss_rate(b, |s| perfect_predict(&b.profile, s));
        let btfnt = miss_rate(b, |s| {
            Some(Btfnt.predict(&BranchCtx::new(&b.prog, &b.analysis, s)))
        });
        let heur = miss_rate(b, |s| {
            aphc.predict(&BranchCtx::new(&b.prog, &b.analysis, s))
        });
        assert!(
            perfect <= btfnt + 1e-9,
            "{}: perfect {perfect} > btfnt {btfnt}",
            b.bench.name
        );
        assert!(
            perfect <= heur + 1e-9,
            "{}: perfect {perfect} > aphc {heur}",
            b.bench.name
        );
        assert!((0.0..=1.0).contains(&perfect));
        assert!((0.0..=1.0).contains(&btfnt));
        assert!((0.0..=1.0).contains(&heur));
    }
}

#[test]
fn table4_rows_are_consistent() {
    let suite = small_suite();
    let rows = esp_repro::eval::table4::compute(&suite, &quick_table4());
    assert_eq!(rows.len(), suite.benches.len());
    for r in &rows {
        for v in [r.btfnt, r.aphc, r.dshc_bl, r.dshc_ours, r.esp, r.perfect] {
            assert!(
                (0.0..=1.0).contains(&v),
                "{}: rate {v} out of range",
                r.name
            );
        }
        assert!(
            r.perfect <= r.esp + 1e-9,
            "{}: perfect {} must lower-bound ESP {}",
            r.name,
            r.perfect,
            r.esp
        );
        assert!(
            r.perfect <= r.aphc + 1e-9,
            "{}: perfect must lower-bound APHC",
            r.name
        );
    }
    // ESP trained leave-one-out must beat coin flipping on average.
    let esp_avg: f64 = rows.iter().map(|r| r.esp).sum::<f64>() / rows.len() as f64;
    assert!(esp_avg < 0.5, "ESP average {esp_avg} no better than random");
    // And the rendered table contains every program and the overall row.
    let rendered = esp_repro::eval::table4::render_rows(&suite, &rows);
    for b in &suite.benches {
        assert!(rendered.contains(b.bench.name), "missing {}", b.bench.name);
    }
    assert!(rendered.contains("Overall Avg"));
}

#[test]
fn heuristic_rates_match_aphc_behaviour() {
    // The measured LoopBranch hit rate must be high on a loopy corpus slice:
    // that is the structural signal everything else builds on.
    let suite = small_suite();
    let rates = esp_repro::heur::measure_rates(
        suite
            .benches
            .iter()
            .map(|b| (&b.prog, &b.analysis, &b.profile)),
    );
    let lb = rates.hit_rate(esp_repro::heur::Heuristic::LoopBranch);
    assert!(lb > 0.7, "loop-branch hit rate {lb} suspiciously low");
}
