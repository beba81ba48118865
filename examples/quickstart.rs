//! Quickstart: train ESP on a small corpus and predict the branches of a
//! program it has never seen.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use esp_repro::corpus::suite;
use esp_repro::esp::{EspConfig, EspModel, Learner, TrainingProgram};
use esp_repro::ir::ProgramAnalysis;
use esp_repro::lang::CompilerConfig;
use esp_repro::nnet::MlpConfig;

fn main() {
    // 1. Pick a handful of corpus programs and one held-out target.
    let all = suite();
    let train_names = ["sort", "grep", "sed", "wdiff", "gzip", "compress"];
    let target_name = "indent";
    let cfg = CompilerConfig::default();

    println!("compiling + profiling the training corpus…");
    let mut owned = Vec::new();
    for name in train_names {
        let bench = all.iter().find(|b| b.name == name).expect("in suite");
        let prog = bench.compile(&cfg).expect("corpus programs compile");
        let analysis = ProgramAnalysis::analyze(&prog);
        let profile = esp_repro::corpus::profile(&prog).expect("corpus programs run");
        owned.push((prog, analysis, profile));
    }
    let corpus: Vec<TrainingProgram<'_>> = owned
        .iter()
        .map(|(p, a, pr)| TrainingProgram::new(p, a, pr))
        .collect();

    // 2. Train the paper's network on the corpus.
    println!("training ESP on {} programs…", corpus.len());
    let esp_cfg = EspConfig {
        learner: Learner::Net(MlpConfig {
            hidden: 10,
            max_epochs: 150,
            ..MlpConfig::default()
        }),
        ..EspConfig::default()
    };
    let model = EspModel::train(&corpus, &esp_cfg);
    println!("  {} weighted training examples", model.num_examples());

    // 3. Predict the unseen program and score against its real profile.
    let bench = all
        .iter()
        .find(|b| b.name == target_name)
        .expect("in suite");
    let prog = bench.compile(&cfg).expect("compiles");
    let analysis = ProgramAnalysis::analyze(&prog);
    let profile = esp_repro::corpus::profile(&prog).expect("runs");

    let mut misses = 0.0f64;
    let mut total = 0u64;
    for site in prog.branch_sites() {
        let Some(counts) = profile.counts(site) else {
            continue;
        };
        misses += counts.misses(Some(model.predict_taken(&prog, &analysis, site)));
        total += counts.executed;
    }
    println!(
        "\nESP on unseen `{target_name}`: {:.1}% dynamic miss rate over {} executed branches",
        100.0 * misses / total as f64,
        total
    );

    // 4. Peek at a few individual predictions.
    println!("\nsample predictions (site: predicted vs actual taken-probability):");
    for site in prog.branch_sites().into_iter().take(8) {
        let p = model.predict_prob(&prog, &analysis, site);
        let actual = profile
            .counts(site)
            .and_then(|c| c.taken_prob())
            .map(|t| format!("{t:.2}"))
            .unwrap_or_else(|| "never executed".to_string());
        println!("  {site}: predicted {p:.2}, actual {actual}");
    }
}
