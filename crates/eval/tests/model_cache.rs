//! The Table 4 fold-model cache must be transparent: a cache hit reproduces
//! the cache-less table bitwise, and a registry populated under a different
//! training configuration (a `--quick` registry read by a full run, a
//! different seed, …) or holding f32 weights is detected and retrained —
//! never silently reused.

use esp_artifact::Registry;
use esp_core::{EspConfig, Learner};
use esp_eval::table4::compute;
use esp_eval::{ModelCache, SuiteData, Table4Config};
use esp_lang::CompilerConfig;
use esp_nnet::MlpConfig;

fn esp_config(hidden: usize, seed: u64) -> EspConfig {
    EspConfig {
        learner: Learner::Net(MlpConfig {
            hidden,
            max_epochs: 20,
            patience: 5,
            restarts: 1,
            seed,
            ..MlpConfig::default()
        }),
        threads: 1,
        ..EspConfig::default()
    }
}

#[test]
fn cache_is_bitwise_transparent_and_rejects_stale_configs() {
    let suite = SuiteData::build_subset(&["sort", "grep"], &CompilerConfig::default());
    let dir = std::env::temp_dir().join(format!("esp-table4-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = |save: bool, load: bool| {
        Some(ModelCache {
            dir: dir.clone(),
            save,
            load,
        })
    };

    // First run trains and saves; second run loads and must reproduce the
    // table bitwise (Table4Row is f64-exact PartialEq).
    let cfg_a = Table4Config {
        esp: esp_config(3, MlpConfig::default().seed),
        model_cache: cache(true, true),
        quant: None,
    };
    let first = compute(&suite, &cfg_a);
    let second = compute(&suite, &cfg_a);
    assert_eq!(first, second, "a cache hit must not change the table");

    // A different training configuration over the SAME registry must not
    // reuse the cached folds: its table equals a cache-less run of that
    // configuration, not whatever the registry holds.
    let esp_b = esp_config(5, MlpConfig::default().seed + 1);
    let stale = Table4Config {
        esp: esp_b.clone(),
        model_cache: cache(false, true),
        quant: None,
    };
    let no_cache = Table4Config {
        esp: esp_b,
        model_cache: None,
        quant: None,
    };
    assert_eq!(
        compute(&suite, &stale),
        compute(&suite, &no_cache),
        "a stale registry must fall back to retraining"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_f32_artifact_under_a_fold_name_is_retrained_not_used() {
    let suite = SuiteData::build_subset(&["sort", "grep"], &CompilerConfig::default());
    let dir = std::env::temp_dir().join(format!("esp-table4-cache-f32-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let esp = esp_config(3, MlpConfig::default().seed);
    let cfg = |save: bool, load: bool| Table4Config {
        esp: esp.clone(),
        model_cache: Some(ModelCache {
            dir: dir.clone(),
            save,
            load,
        }),
        quant: None,
    };

    // Save this run's f64 folds, then overwrite each with its f32
    // narrowing: same provenance, so only the precision disagrees.
    let reference = compute(&suite, &cfg(true, false));
    let reg = Registry::open(&dir);
    let folds = ["table4-c-fold0", "table4-c-fold1"];
    for name in folds {
        let (_, artifact) = reg.load(name, None).expect("fold saved");
        reg.save(name, 1, &artifact.quantize()).expect("overwrite with f32");
    }

    // A loading run retrains every fold rather than predicting with the
    // f32 weights, so the table is unchanged and the re-saved folds are f64.
    assert_eq!(compute(&suite, &cfg(true, true)), reference, "an f32 fold changed Table 4");
    for name in folds {
        let (_, artifact) = reg.load(name, None).expect("fold re-saved");
        assert_eq!(
            artifact.net.precision_bits(),
            64,
            "{name}: the f32 artifact was used instead of retrained"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
