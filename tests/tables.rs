//! Integration tests for the table/figure renderers on a fast corpus slice.

use esp_repro::eval::{self, SuiteData};
use esp_repro::lang::CompilerConfig;

fn small_suite() -> SuiteData {
    SuiteData::build_subset(
        &["sort", "grep", "tomcatv", "TIS"],
        &CompilerConfig::default(),
    )
}

#[test]
fn table3_reports_every_program() {
    let suite = small_suite();
    let rows = eval::table3::compute(&suite);
    assert_eq!(rows.len(), 4);
    for r in &rows {
        assert!(r.insns_traced > 0, "{}", r.name);
        assert!(r.pct_cond_branches > 0.0 && r.pct_cond_branches < 0.5);
        assert!((0.0..=1.0).contains(&r.pct_taken));
        // quantiles are monotone
        for w in r.quantiles.windows(2) {
            assert!(
                w[0] <= w[1],
                "{}: quantiles not monotone {:?}",
                r.name,
                r.quantiles
            );
        }
        assert!(r.quantiles[5] <= r.static_sites);
    }
    let rendered = eval::table3(&suite);
    assert!(rendered.contains("tomcatv"));
    assert!(rendered.contains("Q-90"));
}

#[test]
fn table5_accounting_is_internally_consistent() {
    let suite = small_suite();
    for row in eval::table5::compute(&suite) {
        assert!((0.0..=1.0).contains(&row.loop_miss), "{row:?}");
        assert!((0.0..=1.0).contains(&row.pct_non_loop), "{row:?}");
        assert!((0.0..=1.0).contains(&row.coverage), "{row:?}");
        assert!((0.0..=1.0).contains(&row.overall), "{row:?}");
        // the overall rate interpolates the loop and non-loop rates
        let lo = row.loop_miss.min(row.nonloop_miss) - 1e-9;
        let hi = row.loop_miss.max(row.nonloop_miss) + 1e-9;
        assert!(
            row.overall >= lo && row.overall <= hi,
            "overall {} outside [{lo}, {hi}]: {row:?}",
            row.overall
        );
    }
    assert!(eval::table5(&suite).contains("Overall Avg"));
}

#[test]
fn table7_shows_compiler_sensitivity() {
    let rows = eval::table7::compute("sort", &CompilerConfig::table7_suite());
    assert_eq!(rows.len(), 4);
    for r in &rows {
        assert!((0.0..=1.0).contains(&r.overall), "{r:?}");
        assert!(r.perfect <= r.overall + 1e-9, "{r:?}");
    }
    // GEM's unrolling must change the branch mix relative to the baseline.
    let base = &rows[0];
    let gem = rows.iter().find(|r| r.compiler == "gem").expect("gem row");
    assert!(
        (gem.pct_non_loop - base.pct_non_loop).abs() > 1e-6,
        "unrolling changed nothing: base {base:?} gem {gem:?}"
    );
}

#[test]
fn figures_render() {
    let f1 = eval::fig1(10);
    assert!(f1.contains("hidden layer"));
    assert!(f1.contains(&esp_repro::esp::ENCODED_DIM.to_string()));

    let suite = small_suite();
    let tomcatv = suite.by_name("tomcatv").expect("tomcatv");
    let f2 = eval::casestudy::fig2(tomcatv);
    assert!(f2.contains("executed"), "{f2}");
    assert!(f2.contains("APHC"), "{f2}");
}
