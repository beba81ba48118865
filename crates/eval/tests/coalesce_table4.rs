//! Example coalescing is a pure performance knob: merging bit-identical
//! encoded rows is exact for the paper's losses up to float reassociation
//! (see `esp_nnet::coalesce_examples`), so Table 4 must come out the same
//! at printed precision with coalescing on and off. This runs a miniature
//! Table 4 (two C programs, two leave-one-out folds, tiny learner) both
//! ways and compares the rendered tables byte for byte — the rendering
//! rounds to 0.1%, which is exactly the "printed precision" contract.

use esp_core::{EspConfig, Learner};
use esp_eval::{table4, SuiteData, Table4Config};
use esp_lang::CompilerConfig;
use esp_nnet::MlpConfig;

fn mini_cfg(coalesce: bool) -> Table4Config {
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
            coalesce,
            ..EspConfig::default()
        },
        model_cache: None,
        quant: None,
    }
}

#[test]
fn table4_matches_uncoalesced_at_printed_precision() {
    let suite = SuiteData::build_subset(&["sort", "grep"], &CompilerConfig::default(), 0);

    let coalesced = table4(&suite, &mini_cfg(true));
    let raw = table4(&suite, &mini_cfg(false));

    assert_eq!(
        coalesced.as_bytes(),
        raw.as_bytes(),
        "coalescing changed the rendered Table 4:\n--- coalesced ---\n{coalesced}\n--- raw ---\n{raw}"
    );
    // The pass actually merged something on this corpus — otherwise the
    // comparison above proves nothing about the merge algebra.
    let m = esp_obs::global_metrics();
    let raw_in = m.counter("esp_train_examples_raw_total").get();
    let out = m.counter("esp_train_examples_coalesced_total").get();
    assert!(raw_in > 0, "coalescing pass never ran");
    assert!(
        out < raw_in,
        "corpus had no duplicate encoded rows ({out} of {raw_in}); the \
         equality check is vacuous"
    );
}
