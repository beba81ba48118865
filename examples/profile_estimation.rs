//! Program-based profile estimation with ESP — the paper's stated next goal
//! (§6): use the network's *probability* output (not just the thresholded
//! bit) to estimate block execution frequencies, Wu & Larus style, and
//! compare against the real profile.
//!
//! ```text
//! cargo run --release --example profile_estimation [program]
//! ```

use esp_repro::corpus::suite;
use esp_repro::esp::{EspConfig, EspModel, Learner, TrainingProgram};
use esp_repro::eval::data::BenchData;
use esp_repro::eval::freq::evaluate_estimation;
use esp_repro::heur::{BranchCtx, Dshc, HeuristicRates};
use esp_repro::ir::ProgramAnalysis;
use esp_repro::lang::CompilerConfig;
use esp_repro::nnet::MlpConfig;

fn main() {
    let target = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "sort".to_string());
    let cfg = CompilerConfig::default();
    let all = suite();
    let bench = all
        .iter()
        .find(|b| b.name == target)
        .unwrap_or_else(|| panic!("unknown benchmark `{target}`"));
    println!("compiling + profiling `{target}`…");
    let data = BenchData::build(bench, &cfg);

    // Train ESP on six other programs of the same language.
    println!("training ESP on sibling programs…");
    let mut owned = Vec::new();
    for other in all
        .iter()
        .filter(|b| b.lang == bench.lang && b.name != target)
        .take(6)
    {
        let p = other.compile(&cfg).expect("compiles");
        let a = ProgramAnalysis::analyze(&p);
        let pr = esp_repro::corpus::profile(&p).expect("runs");
        owned.push((p, a, pr));
    }
    let corpus: Vec<TrainingProgram<'_>> = owned
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
            ..EspConfig::default()
        },
    );

    // Probability sources to compare.
    println!("\nblock-frequency estimation quality on `{target}`:");
    println!(
        "{:<22} {:>14} {:>12}",
        "probability source", "log-corr", "MAE"
    );

    let profile = data.profile.clone();
    let mut oracle = |site| {
        profile
            .counts(site)
            .and_then(|c| c.taken_prob())
            .unwrap_or(0.5)
    };
    let r = evaluate_estimation(&data, &mut oracle);
    println!(
        "{:<22} {:>14.3} {:>12.3}",
        "profile oracle", r.log_correlation, r.mean_abs_error
    );

    let mut esp_probs = |site| model.predict_prob(&data.prog, &data.analysis, site);
    let r = evaluate_estimation(&data, &mut esp_probs);
    println!(
        "{:<22} {:>14.3} {:>12.3}",
        "ESP network", r.log_correlation, r.mean_abs_error
    );

    let dshc = Dshc::new(HeuristicRates::ball_larus_mips());
    let mut dshc_probs = |site| {
        dshc.prob_taken(&BranchCtx::new(&data.prog, &data.analysis, site))
            .unwrap_or(0.5)
    };
    let r = evaluate_estimation(&data, &mut dshc_probs);
    println!(
        "{:<22} {:>14.3} {:>12.3}",
        "DSHC evidence", r.log_correlation, r.mean_abs_error
    );

    let mut flat = |_| 0.5;
    let r = evaluate_estimation(&data, &mut flat);
    println!(
        "{:<22} {:>14.3} {:>12.3}",
        "flat 0.5", r.log_correlation, r.mean_abs_error
    );

    println!(
        "\n(the oracle bounds what any static estimator can do; ESP and DSHC should\n\
         land between the oracle and the flat baseline)"
    );
}
