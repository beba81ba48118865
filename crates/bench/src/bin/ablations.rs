//! Quality-side ablations for the design choices called out in DESIGN.md:
//!
//! * loss function — the paper's linear misprediction-cost loss vs SSE;
//! * hidden width — 0 (linear model) / 5 / 10 / 20 units;
//! * corpus size — 8 vs 23 C programs (the paper's §3.1.2 observation that
//!   ESP only pulled ahead of the heuristics once the corpus grew);
//! * learner — neural network vs decision tree (§3.1.2 "comparable");
//! * feature groups — dropping opcode / context / successor features.
//!
//! Each variant reports the mean leave-one-out miss rate over a fixed set of
//! evaluation programs. Run with `--quick` for a fast sanity pass and
//! `--threads N` to cap the workers that profile the corpus (`0` = one per
//! core; results are identical at every thread count). The folds run one
//! after another. Any other argument, a repeated flag, or a `--threads`
//! without a number exits 2 (the `esp_obs::cli` policy).

use esp_core::{leave_one_out, EspConfig, FeatureSet, Learner, TrainingProgram};
use esp_eval::{miss_rate, SuiteData};
use esp_ir::Lang;
use esp_lang::CompilerConfig;
use esp_nnet::{LossKind, MlpConfig, TreeConfig};
use esp_obs::cli::{self, Spec};

fn mlp(hidden: usize, loss: LossKind, quick: bool) -> MlpConfig {
    MlpConfig {
        hidden,
        loss,
        max_epochs: if quick { 40 } else { 150 },
        patience: if quick { 10 } else { 25 },
        restarts: 1,
        ..MlpConfig::default()
    }
}

/// Mean leave-one-out miss rate: for every index in `targets` (positions
/// into `pool`), train on `pool` minus that program and score it.
fn cv_miss(suite: &SuiteData, pool: &[usize], targets: &[usize], cfg: &EspConfig) -> f64 {
    let group: Vec<TrainingProgram<'_>> = pool
        .iter()
        .map(|&i| {
            let b = &suite.benches[i];
            TrainingProgram::new(&b.prog, &b.analysis, &b.profile)
        })
        .collect();
    let mut rates = Vec::new();
    for &t in targets {
        let fold = pool.iter().position(|&i| i == t).expect("target in pool");
        let model = leave_one_out(&group, fold, cfg);
        let b = &suite.benches[t];
        rates.push(miss_rate(b, |site| {
            Some(model.predict_taken(&b.prog, &b.analysis, site))
        }));
    }
    rates.iter().sum::<f64>() / rates.len().max(1) as f64
}

const SPEC: Spec = Spec {
    name: "ablations",
    values: &["--threads"],
    switches: &["--quick"],
    positional: 0,
};

fn main() {
    let args = cli::or_exit(cli::parse(&SPEC, std::env::args().skip(1)));
    let quick = args.switch("--quick");
    let threads: usize = cli::or_exit(args.number("--threads")).unwrap_or(0);
    eprintln!("building + profiling the corpus…");
    let suite = SuiteData::build_with_threads(&CompilerConfig::default(), threads);

    let c_programs = suite.lang_indices(Lang::C);
    // Evaluate every variant on the same targets: the first 8 C programs.
    let targets: Vec<usize> = c_programs.iter().copied().take(8).collect();
    let small_pool = targets.clone();
    let full_pool = c_programs.clone();

    let net = |hidden: usize, loss: LossKind| EspConfig {
        learner: Learner::Net(mlp(hidden, loss, quick)),
        features: FeatureSet::default(),
        threads,
        ..EspConfig::default()
    };

    println!(
        "Ablation study (mean leave-one-out miss rate over {} C programs)\n",
        targets.len()
    );

    println!("-- loss function (hidden = 10, corpus = 23 C programs) --");
    for (name, loss) in [("linear (paper)", LossKind::Linear), ("sse", LossKind::Sse)] {
        let m = cv_miss(&suite, &full_pool, &targets, &net(10, loss));
        println!("  {name:<16} {:.1}%", m * 100.0);
    }

    println!("\n-- hidden width (linear loss, corpus = 23 C programs) --");
    for hidden in [0usize, 5, 10, 20] {
        let m = cv_miss(&suite, &full_pool, &targets, &net(hidden, LossKind::Linear));
        println!("  hidden = {hidden:<3} {:.1}%", m * 100.0);
    }

    println!("\n-- corpus size (the paper's 8-vs-23 observation) --");
    let m8 = cv_miss(&suite, &small_pool, &targets, &net(10, LossKind::Linear));
    let m23 = cv_miss(&suite, &full_pool, &targets, &net(10, LossKind::Linear));
    println!("  corpus =  8 C programs: {:.1}%", m8 * 100.0);
    println!("  corpus = 23 C programs: {:.1}%", m23 * 100.0);

    println!("\n-- learner (corpus = 23 C programs) --");
    let mt = cv_miss(
        &suite,
        &full_pool,
        &targets,
        &EspConfig {
            learner: Learner::Tree(TreeConfig::default()),
            features: FeatureSet::default(),
            threads,
            ..EspConfig::default()
        },
    );
    let mn = cv_miss(&suite, &full_pool, &targets, &net(10, LossKind::Linear));
    println!("  neural net:    {:.1}%", mn * 100.0);
    println!("  decision tree: {:.1}%", mt * 100.0);

    println!("\n-- feature groups (hidden = 10, corpus = 23 C programs) --");
    let variants = [
        ("all features", FeatureSet::default()),
        (
            "no opcode features",
            FeatureSet {
                opcode_features: false,
                ..FeatureSet::default()
            },
        ),
        (
            "no context features",
            FeatureSet {
                context_features: false,
                ..FeatureSet::default()
            },
        ),
        (
            "no successor features",
            FeatureSet {
                successor_features: false,
                ..FeatureSet::default()
            },
        ),
    ];
    for (name, features) in variants {
        let cfg = EspConfig {
            learner: Learner::Net(mlp(10, LossKind::Linear, quick)),
            features,
            threads,
            ..EspConfig::default()
        };
        let m = cv_miss(&suite, &full_pool, &targets, &cfg);
        println!("  {name:<24} {:.1}%", m * 100.0);
    }

    // The Ball–Larus order experiment (§2.1): how much does the fixed
    // order matter, and can a greedy search rediscover a good one?
    println!("\n-- APHC heuristic-order sensitivity (whole corpus) --");
    let runs: Vec<esp_heur::order::Run<'_>> = suite
        .benches
        .iter()
        .map(|b| (&b.prog, &b.analysis, &b.profile))
        .collect();
    let table1 = esp_heur::evaluate_order(&esp_heur::Heuristic::TABLE1_ORDER, &runs);
    println!("  Table 1 order:        {:.1}%", table1 * 100.0);
    let greedy = esp_heur::greedy_order(&runs);
    let greedy_rate = esp_heur::evaluate_order(&greedy, &runs);
    let names: Vec<&str> = greedy.iter().map(|h| h.name()).collect();
    println!(
        "  greedy order:         {:.1}%   [{}]",
        greedy_rate * 100.0,
        names.join(" > ")
    );
    let reversed: Vec<_> = esp_heur::Heuristic::TABLE1_ORDER
        .iter()
        .rev()
        .copied()
        .collect();
    println!(
        "  reversed Table 1:     {:.1}%",
        esp_heur::evaluate_order(&reversed, &runs) * 100.0
    );
}
