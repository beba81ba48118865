//! Feature-group importance: retrain ESP with Table 2 feature groups
//! removed and watch the miss rate move — the ablation the paper gestures
//! at in §3.1.2 ("having too much information does not degrade the ESP
//! predictions; we have not investigated the impact of not having enough").
//!
//! ```text
//! cargo run --release --example feature_importance
//! ```

use esp_repro::corpus::suite;
use esp_repro::esp::{EspConfig, EspModel, FeatureSet, Learner, TrainingProgram};
use esp_repro::ir::ProgramAnalysis;
use esp_repro::lang::CompilerConfig;
use esp_repro::nnet::MlpConfig;

fn main() {
    let cfg = CompilerConfig::default();
    let all = suite();
    let train_names = [
        "sort", "grep", "sed", "gzip", "compress", "wdiff", "yacr", "od",
    ];
    let test_names = ["indent", "flex"];

    println!(
        "compiling + profiling {} programs…",
        train_names.len() + test_names.len()
    );
    let build = |name: &str| {
        let bench = all.iter().find(|b| b.name == name).expect("in suite");
        let prog = bench.compile(&cfg).expect("compiles");
        let analysis = ProgramAnalysis::analyze(&prog);
        let profile = esp_repro::corpus::profile(&prog).expect("runs");
        (prog, analysis, profile)
    };
    let train: Vec<_> = train_names.iter().map(|n| build(n)).collect();
    let test: Vec<_> = test_names.iter().map(|n| build(n)).collect();

    let variants = [
        ("all features (Table 2)", FeatureSet::default()),
        (
            "without opcode features (1-5)",
            FeatureSet {
                opcode_features: false,
                ..FeatureSet::default()
            },
        ),
        (
            "without context features (6-8)",
            FeatureSet {
                context_features: false,
                ..FeatureSet::default()
            },
        ),
        (
            "without successor features (9-24)",
            FeatureSet {
                successor_features: false,
                ..FeatureSet::default()
            },
        ),
    ];

    println!("\n{:<36} {:>12}", "feature set", "miss rate");
    for (label, features) in variants {
        let corpus: Vec<TrainingProgram<'_>> = train
            .iter()
            .map(|(p, a, pr)| TrainingProgram::new(p, a, pr))
            .collect();
        let model = EspModel::train(
            &corpus,
            &EspConfig {
                learner: Learner::Net(MlpConfig {
                    hidden: 10,
                    max_epochs: 120,
                    restarts: 1,
                    ..MlpConfig::default()
                }),
                features,
                ..EspConfig::default()
            },
        );
        let mut misses = 0.0f64;
        let mut total = 0u64;
        for (prog, analysis, profile) in &test {
            for site in prog.branch_sites() {
                let Some(c) = profile.counts(site) else {
                    continue;
                };
                total += c.executed;
                misses += c.misses(Some(model.predict_taken(prog, analysis, site)));
            }
        }
        println!("{label:<36} {:>11.1}%", 100.0 * misses / total as f64);
    }
    println!(
        "\n(successor features carry the loop/call/return structure the heuristics\n\
         encode by hand, so dropping them should hurt the most)"
    );
}
