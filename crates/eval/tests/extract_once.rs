//! A training program extracts its executed sites once and every later
//! model trained on it reuses them: the leave-one-out folds of a language
//! group share one extraction per program. The reuse must be invisible. A
//! fold trained on a group whose programs already extracted their sites
//! for earlier folds has the same weights, bit for bit, as the same fold
//! trained on a fresh group, and `build_training_set` gives the same
//! examples cold, warm, and when every site is extracted from scratch.

use esp_core::{
    build_training_set, encode, extract, leave_one_out, EspConfig, EspModel, ExtendedContext,
    FeatureSet, FittedEncoder, Learner, TrainingProgram,
};
use esp_eval::SuiteData;
use esp_ir::Lang;
use esp_lang::CompilerConfig;
use esp_nnet::{MlpConfig, TrainExample};

const SUBSET: &[&str] = &["sort", "grep", "sed", "tomcatv", "ora"];

fn cheap_cfg(features: FeatureSet) -> EspConfig {
    EspConfig {
        learner: Learner::Net(MlpConfig {
            hidden: 3,
            max_epochs: 12,
            patience: 6,
            restarts: 1,
            ..MlpConfig::default()
        }),
        features,
        threads: 2,
        ..EspConfig::default()
    }
}

fn extended() -> FeatureSet {
    FeatureSet {
        extended: true,
        ..FeatureSet::default()
    }
}

/// A fresh group: no program has extracted anything yet.
fn group(suite: &SuiteData, lang: Lang) -> Vec<TrainingProgram<'_>> {
    suite
        .lang_indices(lang)
        .into_iter()
        .map(|i| {
            let b = &suite.benches[i];
            TrainingProgram::new(&b.prog, &b.analysis, &b.profile)
        })
        .collect()
}

fn weight_bits(m: &EspModel) -> Vec<u64> {
    let w = m.net_weights().expect("a network learner");
    w.iter().map(|w| w.to_bits()).collect()
}

fn example_bits(examples: &[TrainExample]) -> Vec<u64> {
    examples
        .iter()
        .flat_map(|e| e.x.iter().chain([&e.target, &e.weight]))
        .map(|v| v.to_bits())
        .collect()
}

/// The reference training set, with nothing kept between calls: every
/// executed site of every program extracted and encoded afresh.
fn from_scratch(suite: &SuiteData, lang: Lang, set: FeatureSet) -> Vec<TrainExample> {
    let mut raw = Vec::new();
    let mut targets = Vec::new();
    for i in suite.lang_indices(lang) {
        let b = &suite.benches[i];
        let ext = set
            .extended
            .then(|| ExtendedContext::new(&b.prog, &b.analysis));
        for site in b.prog.branch_sites() {
            let Some(t) = b.profile.counts(site).and_then(|c| c.taken_prob()) else {
                continue;
            };
            let mut f = extract(&b.prog, &b.analysis, site);
            if let Some(ctx) = &ext {
                ctx.attach(site, &mut f);
            }
            raw.push(encode(&f, &set));
            targets.push((t, b.profile.weight(site)));
        }
    }
    let encoder = FittedEncoder::fit(&raw, set);
    raw.iter()
        .zip(targets)
        .map(|((row, mask), (target, weight))| TrainExample {
            x: encoder.transform(row, mask),
            target,
            weight,
        })
        .collect()
}

#[test]
fn folds_on_a_warm_group_match_folds_on_a_fresh_one() {
    let suite = SuiteData::build_subset(SUBSET, &CompilerConfig::default(), 0);
    for lang in [Lang::C, Lang::Fort] {
        // One group for every fold, as Table 4's fold loop holds it: from
        // the second fold on, every program's sites are already extracted.
        let warm = group(&suite, lang);
        assert!(warm.len() >= 2, "{lang:?} needs two programs to fold");
        let folds = (0..warm.len()).map(|i| (i, FeatureSet::default()));
        // An extended fold after the paper-feature folds: the kept sites
        // must not carry one feature set's extras into another.
        for (fold, set) in folds.chain([(1, extended())]) {
            let cfg = cheap_cfg(set);
            let cached = leave_one_out(&warm, fold, &cfg);
            let fresh = leave_one_out(&group(&suite, lang), fold, &cfg);
            assert_eq!(cached.num_examples(), fresh.num_examples());
            assert_eq!(
                weight_bits(&cached),
                weight_bits(&fresh),
                "{lang:?} fold {fold} ({set:?}) trained differently on a warm group"
            );
        }
    }
}

#[test]
fn build_training_set_is_the_same_cold_warm_and_from_scratch() {
    let suite = SuiteData::build_subset(SUBSET, &CompilerConfig::default(), 0);
    for lang in [Lang::C, Lang::Fort] {
        for set in [FeatureSet::default(), extended()] {
            let cfg = EspConfig {
                coalesce: false,
                ..cheap_cfg(set)
            };
            let programs = group(&suite, lang);
            let (cold_encoder, cold) = build_training_set(&programs, &cfg);
            let (warm_encoder, warm) = build_training_set(&programs, &cfg);
            assert_eq!(cold_encoder, warm_encoder);
            assert_eq!(example_bits(&cold), example_bits(&warm));
            assert_eq!(
                example_bits(&cold),
                example_bits(&from_scratch(&suite, lang, set)),
                "{lang:?} {set:?}: kept sites encode differently from fresh ones"
            );
            // Coalescing runs on the kept sites as well.
            let merged = EspConfig {
                coalesce: true,
                ..cfg
            };
            let (_, once) = build_training_set(&group(&suite, lang), &merged);
            let (_, again) = build_training_set(&programs, &merged);
            assert_eq!(example_bits(&once), example_bits(&again));
        }
    }
}
