//! The parallel runtime's core guarantee, end to end: any thread count
//! produces *bitwise identical* results. Table 4's leave-one-out folds run
//! on the pool, each training its network on one worker, so `threads` is
//! purely a wall-clock knob — never a results knob.

use std::path::Path;

use esp_repro::artifact::Registry;
use esp_repro::esp::{EspConfig, FeatureSet, Learner};
use esp_repro::eval::table4::{compute, Table4Row};
use esp_repro::eval::{SuiteData, Table4Config};
use esp_repro::lang::CompilerConfig;
use esp_repro::nnet::MlpConfig;

/// Six C programs: six folds, more than the four workers of the parallel
/// run.
const SUBSET: [&str; 6] = ["sort", "grep", "sed", "gzip", "wdiff", "compress"];

/// Two restarts, so every fold also runs the restart loop; every fold is
/// published to `registry`.
fn cfg(threads: usize, registry: &Path) -> Table4Config {
    Table4Config {
        esp: EspConfig {
            learner: Learner::Net(MlpConfig {
                hidden: 6,
                max_epochs: 60,
                patience: 12,
                restarts: 2,
                ..MlpConfig::default()
            }),
            features: FeatureSet::default(),
            threads,
            ..EspConfig::default()
        },
        model_cache: Some(registry.to_path_buf()),
        quant: None,
    }
}

/// A row's name and the bits of its six miss rates.
fn row_bits(r: &Table4Row) -> (String, [u64; 6]) {
    let rates = [r.btfnt, r.aphc, r.dshc_bl, r.dshc_ours, r.esp, r.perfect];
    (r.name.clone(), rates.map(f64::to_bits))
}

#[test]
fn cross_validation_is_bitwise_identical_across_thread_counts() {
    let suite = SuiteData::build_subset(&SUBSET, &CompilerConfig::default(), 0);
    let root =
        std::env::temp_dir().join(format!("esp-parallel-determinism-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let run = |threads: usize| {
        let dir = root.join(format!("threads{threads}"));
        let rows: Vec<_> = compute(&suite, &cfg(threads, &dir))
            .iter()
            .map(row_bits)
            .collect();
        (rows, Registry::open(dir))
    };

    let (serial, serial_reg) = run(1);
    let (parallel, parallel_reg) = run(4);
    assert_eq!(serial.len(), SUBSET.len());
    assert_eq!(
        serial, parallel,
        "Table 4 rows diverge across thread counts"
    );

    // The published folds hold the trained weights and the normalizer; the
    // files must match byte for byte.
    for fold in 0..SUBSET.len() {
        let name = format!("table4-c-fold{fold}");
        let bytes = |reg: &Registry| {
            let path = reg.path(&name, 1).expect("valid fold name");
            std::fs::read(&path).unwrap_or_else(|e| panic!("{name} was not published: {e}"))
        };
        assert!(
            bytes(&serial_reg) == bytes(&parallel_reg),
            "{name}: published artifacts differ across thread counts"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}
