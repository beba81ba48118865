//! The headline claim, end to end on a corpus slice: ESP trained on other
//! programs predicts an unseen program better than chance, and the learned
//! model transfers across programs the way the paper's §3 describes.

use esp_repro::esp::{leave_one_out, EspConfig, EspModel, FeatureSet, Learner, TrainingProgram};
use esp_repro::eval::{miss_rate, SuiteData};
use esp_repro::lang::CompilerConfig;
use esp_repro::nnet::{MlpConfig, TreeConfig};

fn quick_net() -> EspConfig {
    EspConfig {
        learner: Learner::Net(MlpConfig {
            hidden: 6,
            max_epochs: 80,
            patience: 15,
            restarts: 1,
            ..MlpConfig::default()
        }),
        features: FeatureSet::default(),
        ..EspConfig::default()
    }
}

#[test]
fn esp_beats_coin_flips_on_held_out_programs() {
    let suite = SuiteData::build_subset(
        &[
            "sort", "grep", "sed", "gzip", "wdiff", "compress", "yacr", "eqntott",
        ],
        &CompilerConfig::default(),
        0,
    );
    let programs: Vec<TrainingProgram<'_>> = suite
        .benches
        .iter()
        .map(|b| TrainingProgram::new(&b.prog, &b.analysis, &b.profile))
        .collect();
    let mut rates = Vec::new();
    for i in 0..programs.len() {
        let model = leave_one_out(&programs, i, &quick_net());
        let b = &suite.benches[i];
        rates.push(miss_rate(b, |s| {
            Some(model.predict_taken(&b.prog, &b.analysis, s))
        }));
    }
    let avg = rates.iter().sum::<f64>() / rates.len() as f64;
    assert!(
        avg < 0.40,
        "held-out ESP average miss rate {avg:.3}; per-program {rates:?}"
    );
}

#[test]
fn net_and_tree_learners_are_comparable() {
    let suite = SuiteData::build_subset(
        &["sort", "grep", "sed", "gzip", "wdiff", "compress"],
        &CompilerConfig::default(),
        0,
    );
    let programs: Vec<TrainingProgram<'_>> = suite
        .benches
        .iter()
        .map(|b| TrainingProgram::new(&b.prog, &b.analysis, &b.profile))
        .collect();
    let tree_cfg = EspConfig {
        learner: Learner::Tree(TreeConfig::default()),
        features: FeatureSet::default(),
        ..EspConfig::default()
    };
    let mut net_rates = Vec::new();
    let mut tree_rates = Vec::new();
    for i in 0..programs.len() {
        let b = &suite.benches[i];
        let net = leave_one_out(&programs, i, &quick_net());
        net_rates.push(miss_rate(b, |s| {
            Some(net.predict_taken(&b.prog, &b.analysis, s))
        }));
        let tree = leave_one_out(&programs, i, &tree_cfg);
        tree_rates.push(miss_rate(b, |s| {
            Some(tree.predict_taken(&b.prog, &b.analysis, s))
        }));
    }
    let net_avg = net_rates.iter().sum::<f64>() / net_rates.len() as f64;
    let tree_avg = tree_rates.iter().sum::<f64>() / tree_rates.len() as f64;
    // "comparable" (§3.1.2): within 15 percentage points on this small slice
    assert!(
        (net_avg - tree_avg).abs() < 0.15,
        "net {net_avg:.3} vs tree {tree_avg:.3} diverge too much"
    );
    assert!(tree_avg < 0.5, "tree no better than random: {tree_avg:.3}");
}

#[test]
fn training_is_deterministic() {
    let suite = SuiteData::build_subset(&["sort", "grep", "sed"], &CompilerConfig::default(), 0);
    let programs: Vec<TrainingProgram<'_>> = suite
        .benches
        .iter()
        .map(|b| TrainingProgram::new(&b.prog, &b.analysis, &b.profile))
        .collect();
    let m1 = EspModel::train(&programs, &quick_net());
    let m2 = EspModel::train(&programs, &quick_net());
    let b = &suite.benches[0];
    for site in b.prog.branch_sites() {
        assert_eq!(
            m1.predict_prob(&b.prog, &b.analysis, site),
            m2.predict_prob(&b.prog, &b.analysis, site)
        );
    }
}
