//! Compare every predictor of the paper's Table 4 on one program: BTFNT,
//! the Ball–Larus heuristics in fixed order (APHC), Dempster–Shafer
//! combination (DSHC), ESP, and the perfect static predictor.
//!
//! ```text
//! cargo run --release --example compare_predictors [program]
//! ```

use esp_repro::corpus::suite;
use esp_repro::esp::{EspConfig, EspModel, Learner, TrainingProgram};
use esp_repro::heur::{perfect_predict, Aphc, BranchCtx, Btfnt, Dshc, HeuristicRates};
use esp_repro::ir::{Lang, ProgramAnalysis};
use esp_repro::lang::CompilerConfig;
use esp_repro::nnet::MlpConfig;

fn main() {
    let target = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "espresso".to_string());
    let cfg = CompilerConfig::default();
    let all = suite();
    let bench = all
        .iter()
        .find(|b| b.name == target)
        .unwrap_or_else(|| panic!("unknown benchmark `{target}`"));

    println!("compiling + profiling `{target}`…");
    let prog = bench.compile(&cfg).expect("compiles");
    let analysis = ProgramAnalysis::analyze(&prog);
    let profile = esp_repro::corpus::profile(&prog).expect("runs");

    // Train ESP on all other programs of the same language.
    println!("training ESP on the rest of the {} corpus…", bench.lang);
    let mut owned = Vec::new();
    for other in all
        .iter()
        .filter(|b| b.lang == bench.lang && b.name != target)
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

    // Measure DSHC(Ours) hit rates on the training corpus only (no peeking).
    let rates_ours = esp_repro::heur::measure_rates(owned.iter().map(|(p, a, pr)| (p, a, pr)));

    let aphc = Aphc::table1_order();
    let dshc_bl = Dshc::new(HeuristicRates::ball_larus_mips());
    let dshc_ours = Dshc::new(rates_ours);

    let mut m = [0.0f64; 6];
    let mut total = 0u64;
    for site in prog.branch_sites() {
        let Some(counts) = profile.counts(site) else {
            continue;
        };
        total += counts.executed;
        let ctx = BranchCtx::new(&prog, &analysis, site);
        // An uncovered branch (`None`) is charged a coin flip.
        m[0] += counts.misses(Some(Btfnt.predict(&ctx)));
        m[1] += counts.misses(aphc.predict(&ctx));
        m[2] += counts.misses(dshc_bl.predict(&ctx));
        m[3] += counts.misses(dshc_ours.predict(&ctx));
        m[4] += counts.misses(Some(model.predict_taken(&prog, &analysis, site)));
        m[5] += counts.misses(perfect_predict(&profile, site));
    }

    println!("\nmiss rates on `{target}` ({total} executed conditional branches):");
    for (name, misses) in [
        ("BTFNT", m[0]),
        ("APHC (Ball-Larus order)", m[1]),
        ("DSHC (B&L rates)", m[2]),
        ("DSHC (measured rates)", m[3]),
        ("ESP (this paper)", m[4]),
        ("perfect static", m[5]),
    ] {
        println!("  {name:<26} {:5.1}%", 100.0 * misses / total as f64);
    }
    let _ = Lang::C;
}
