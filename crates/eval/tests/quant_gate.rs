//! End-to-end f32 quantization gate: a miniature Table 4 run (two C
//! programs, two leave-one-out folds) with the gate enabled must score
//! every fold, publish f64 fold artifacts and f32 ones that round-trip
//! through the registry as `Net::F64` and `Net::F32`, and — under an
//! unsatisfiable bound — refuse to publish and fail the gate without
//! perturbing the table rows.

use std::path::PathBuf;

use esp_artifact::Registry;
use esp_core::{EspConfig, Learner};
use esp_eval::{compute_with_quant, PublishOutcome, QuantGateConfig, SuiteData, Table4Config};
use esp_lang::CompilerConfig;
use esp_nnet::{MlpConfig, Net};

fn mini_cfg(model_cache: Option<PathBuf>, quant: Option<QuantGateConfig>) -> Table4Config {
    Table4Config {
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
        model_cache,
        quant,
    }
}

#[test]
fn gate_scores_every_fold_and_publishes_f32_artifacts() {
    let suite = SuiteData::build_subset(&["sort", "grep"], &CompilerConfig::default(), 0);
    let dir = std::env::temp_dir().join(format!("esp-quant-gate-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let cfg = mini_cfg(
        Some(dir.clone()),
        Some(QuantGateConfig {
            flip_bound: 1.0, // every fold is within a bound of 100%
        }),
    );
    let (rows, gate) = compute_with_quant(&suite, &cfg);
    let gate = gate.expect("gate configured");

    assert_eq!(rows.len(), 2);
    assert_eq!(gate.folds.len(), 2, "one gate fold per C-group fold");
    assert!(gate.total_sites() > 0, "folds scored real branch sites");
    assert!(gate.passes());
    for f in &gate.folds {
        assert_eq!(f.sites, f.sites.max(1), "every fold scored sites");
        assert!(
            matches!(f.outcome, PublishOutcome::Published(_)),
            "fold {} not published: {:?}",
            f.name,
            f.outcome
        );
    }
    assert!(gate.render().contains("f32_flip_rate="));

    // Every f64 fold is published beside its quantized twin, and each
    // loads back at the precision it was saved with.
    let reg = Registry::open(&dir);
    for name in ["table4-c-fold0", "table4-c-fold1"] {
        let (v, a) = reg.load(name, None).expect("published fold loads");
        assert_eq!(v, 1);
        assert_eq!(a.net.precision_bits(), 64);
        assert!(matches!(a.net, Net::F64(_)));
    }
    for name in ["table4-c-fold0-f32", "table4-c-fold1-f32"] {
        let (v, a) = reg.load(name, None).expect("published artifact loads");
        assert_eq!(v, 1);
        assert_eq!(a.net.precision_bits(), 32);
        assert!(matches!(a.net, Net::F32(_)));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unsatisfiable_bound_refuses_publication_and_fails_the_gate() {
    let suite = SuiteData::build_subset(&["sort", "grep"], &CompilerConfig::default(), 0);
    let dir = std::env::temp_dir().join(format!("esp-quant-refuse-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // A negative bound can never be satisfied (flip rates are >= 0), so
    // every fold must be refused and no f32 fold may reach the registry
    // its f64 twin is published to.
    let cfg = mini_cfg(
        Some(dir.clone()),
        Some(QuantGateConfig { flip_bound: -1.0 }),
    );
    let (rows_gated, gate) = compute_with_quant(&suite, &cfg);
    let gate = gate.expect("gate configured");

    assert!(!gate.passes());
    assert!(gate
        .folds
        .iter()
        .all(|f| f.outcome == PublishOutcome::Refused));
    assert!(gate.render().contains("REFUSED"));
    assert!(gate.render().contains("gate: FAIL"));
    let reg = Registry::open(&dir);
    assert!(
        reg.load("table4-c-fold0", None).is_ok(),
        "f64 fold published"
    );
    assert!(
        reg.load("table4-c-fold0-f32", None).is_err(),
        "a refused fold must not be published"
    );

    // The gate never perturbs the f64 table itself.
    let (rows_plain, none) = compute_with_quant(&suite, &mini_cfg(None, None));
    assert!(none.is_none());
    assert_eq!(rows_gated, rows_plain, "gate changed Table 4 rows");
    std::fs::remove_dir_all(&dir).ok();
}
