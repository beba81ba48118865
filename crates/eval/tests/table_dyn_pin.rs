//! Pins the dynamic-arena table on two corpus programs: every row's event
//! count, all six miss rates and both warmup tallies, compared with f64 `==`
//! against the values the arena produced when they were recorded. Any
//! change to how outcomes reach the arena (order, count, site mapping) or
//! to a predictor's arithmetic moves at least one of these numbers.

use esp_core::{EspConfig, Learner};
use esp_eval::table_dyn::compute;
use esp_eval::{SuiteData, TableDynConfig};
use esp_lang::CompilerConfig;
use esp_nnet::MlpConfig;

/// One pinned row: name, events, `[btfnt, esp, bimodal, gshare, tage,
/// hybrid]`, cold-TAGE and hybrid warmup misses.
type Pin = (&'static str, u64, [f64; 6], f64, f64);

const PINS: [Pin; 2] = [
    (
        "sort",
        122396,
        [
            0.12481617046308703,
            0.1142275891368999,
            0.05621915748880683,
            0.09730710153926599,
            0.04682342560214386,
            0.04653746854472368,
        ],
        175.0,
        144.0,
    ),
    (
        "grep",
        123392,
        [
            0.15150090767634855,
            0.35837007261410786,
            0.07622860477178424,
            0.11895422717842323,
            0.06876458765560166,
            0.06907254927385892,
        ],
        152.0,
        132.0,
    ),
];

#[test]
fn dyn_table_rows_are_pinned() {
    let suite = SuiteData::build_subset(&["sort", "grep"], &CompilerConfig::default());
    let cfg = TableDynConfig {
        esp: EspConfig {
            learner: Learner::Net(MlpConfig {
                hidden: 3,
                max_epochs: 12,
                patience: 6,
                restarts: 1,
                ..MlpConfig::default()
            }),
            threads: 1,
            ..EspConfig::default()
        },
        warmup_events: 2048,
    };
    let report = compute(&suite, &cfg);
    assert_eq!(report.rows.len(), PINS.len());
    for (r, &(name, events, rates, warm_tage, warm_hybrid)) in report.rows.iter().zip(&PINS) {
        assert_eq!(r.name, name);
        assert_eq!(r.events, events, "{name}: events");
        let got = [r.btfnt, r.esp, r.bimodal, r.gshare, r.tage, r.hybrid];
        assert_eq!(
            got, rates,
            "{name}: [btfnt, esp, bimodal, gshare, tage, hybrid]"
        );
        assert_eq!(
            r.warmup_tage_misses, warm_tage,
            "{name}: cold-TAGE warmup misses"
        );
        assert_eq!(
            r.warmup_hybrid_misses, warm_hybrid,
            "{name}: hybrid warmup misses"
        );
        assert_eq!(r.warmup_events, 2048, "{name}: warmup window");
    }
}
