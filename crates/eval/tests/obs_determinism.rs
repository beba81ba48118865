//! Telemetry is observation-only: enabling `esp-obs` span tracing must not
//! change a single byte of the evaluation output. This runs a miniature
//! Table 4 (two C programs, two leave-one-out folds, tiny learner) and a
//! parallel multi-restart `Mlp::train` with tracing off and again with
//! tracing on, and compares the rendered tables and the trained weights
//! bit for bit.

use esp_core::{build_training_set, EspConfig, Learner, TrainingProgram};
use esp_eval::{table4, SuiteData, Table4Config};
use esp_lang::CompilerConfig;
use esp_nnet::{Mlp, MlpConfig};

fn mini_cfg() -> Table4Config {
    Table4Config {
        esp: EspConfig {
            learner: Learner::Net(MlpConfig {
                hidden: 3,
                max_epochs: 12,
                patience: 6,
                restarts: 1,
                ..MlpConfig::default()
            }),
            threads: 2,
            ..EspConfig::default()
        },
        model_cache: None,
        quant: None,
    }
}

/// The bits of a network trained on the suite, over two restarts.
fn trained_weight_bits(suite: &SuiteData) -> Vec<u64> {
    let programs: Vec<TrainingProgram<'_>> = suite
        .benches
        .iter()
        .map(|b| TrainingProgram::new(&b.prog, &b.analysis, &b.profile))
        .collect();
    let (_, data) = build_training_set(&programs, &EspConfig::default());
    let cfg = MlpConfig {
        hidden: 4,
        max_epochs: 20,
        patience: 20,
        restarts: 2,
        ..MlpConfig::default()
    };
    let (mlp, _) = Mlp::train(&data, &cfg);
    mlp.flat_weights().iter().map(|w| w.to_bits()).collect()
}

#[test]
fn table4_is_byte_identical_with_tracing_on_and_off() {
    let suite = SuiteData::build_subset(&["sort", "grep"], &CompilerConfig::default(), 0);
    let cfg = mini_cfg();

    assert!(!esp_obs::trace::enabled(), "tracing must start disabled");
    let untraced = table4(&suite, &cfg);
    let untraced_weights = trained_weight_bits(&suite);

    esp_obs::trace::enable();
    let traced = table4(&suite, &cfg);
    let traced_weights = trained_weight_bits(&suite);
    esp_obs::trace::disable();
    let events = esp_obs::trace::drain();

    assert_eq!(
        untraced.as_bytes(),
        traced.as_bytes(),
        "tracing changed the rendered table"
    );
    assert_eq!(
        untraced_weights, traced_weights,
        "tracing changed the trained weights"
    );
    assert!(
        !events.is_empty(),
        "the traced run must actually have recorded spans"
    );
    // The traced run covered the interesting layers: evaluation folds,
    // network training epochs and the runtime pool all show up.
    for cat in ["eval", "train", "runtime"] {
        assert!(
            events.iter().any(|e| e.cat == cat),
            "no `{cat}` spans in the trace"
        );
    }
    // And the trace renders to loadable JSON with complete spans inside.
    let json = esp_obs::trace::render_json(&events);
    assert!(json.starts_with('['));
    assert!(json.contains("\"ph\": \"X\"") || json.contains("\"ph\":\"X\""));
    assert!(json.contains("table4_fold"));
}
