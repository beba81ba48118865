//! The parallel runtime's core guarantee, end to end: any thread count
//! produces *bitwise identical* results. Cross-validation folds, training
//! restarts and gradient chunks all reduce in a fixed order, so `threads`
//! is purely a wall-clock knob — never a results knob.

use esp_repro::esp::{cross_validate, EspConfig, FeatureSet, Learner, TrainingProgram};
use esp_repro::eval::{miss_rate, Prediction, SuiteData};
use esp_repro::lang::CompilerConfig;
use esp_repro::nnet::MlpConfig;

fn cfg(threads: usize) -> EspConfig {
    EspConfig {
        learner: Learner::Net(MlpConfig {
            hidden: 6,
            max_epochs: 60,
            patience: 12,
            restarts: 2,
            threads,
            ..MlpConfig::default()
        }),
        features: FeatureSet::default(),
        threads,
        ..EspConfig::default()
    }
}

#[test]
fn cross_validation_is_bitwise_identical_across_thread_counts() {
    let suite = SuiteData::build_subset(
        &["sort", "grep", "sed", "gzip", "wdiff", "compress"],
        &CompilerConfig::default(),
    );
    let programs: Vec<TrainingProgram<'_>> = suite
        .benches
        .iter()
        .map(|b| TrainingProgram::new(&b.prog, &b.analysis, &b.profile))
        .collect();

    let serial = cross_validate(&programs, &cfg(1));
    let parallel = cross_validate(&programs, &cfg(4));
    assert_eq!(serial.len(), parallel.len());

    for (fold, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        // the trained parameters must match bit for bit, not just approximately
        let wa: Vec<u64> = a
            .net_weights()
            .expect("net learner")
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let wb: Vec<u64> = b
            .net_weights()
            .expect("net learner")
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(wa, wb, "fold {fold}: weights diverge across thread counts");

        // and so must the downstream Table 3 style miss rates
        let bench = &suite.benches[fold];
        let ra = miss_rate(bench, |s| {
            Prediction::from(Some(a.predict_taken(&bench.prog, &bench.analysis, s)))
        });
        let rb = miss_rate(bench, |s| {
            Prediction::from(Some(b.predict_taken(&bench.prog, &bench.analysis, s)))
        });
        assert_eq!(
            ra.to_bits(),
            rb.to_bits(),
            "fold {fold}: miss rate diverges across thread counts"
        );
    }
}
