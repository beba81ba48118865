//! Satellite tests for `.espm` artifacts around a *real* trained model:
//! byte-identical re-serialization, bitwise-identical predictions after a
//! disk round trip, and typed (never panicking) failures on damaged files.

use esp_artifact::{ArtifactError, ModelArtifact, ModelMeta, Registry};
use esp_core::{EspConfig, EspModel, Learner, TrainingProgram};
use esp_eval::SuiteData;
use esp_heur::HeuristicRates;
use esp_lang::CompilerConfig;
use esp_nnet::MlpConfig;

/// A quick-but-real training run over two corpus programs.
fn trained_model() -> (SuiteData, EspModel) {
    let suite = SuiteData::build_subset(&["sort", "grep"], &CompilerConfig::default(), 0);
    let group: Vec<TrainingProgram<'_>> = suite
        .benches
        .iter()
        .map(|b| TrainingProgram::new(&b.prog, &b.analysis, &b.profile))
        .collect();
    let cfg = EspConfig {
        learner: Learner::Net(MlpConfig {
            hidden: 4,
            max_epochs: 25,
            patience: 6,
            restarts: 1,
            ..MlpConfig::default()
        }),
        threads: 1,
        ..EspConfig::default()
    };
    let model = EspModel::train(&group, &cfg);
    (suite, model)
}

fn artifact_of(model: &EspModel) -> ModelArtifact {
    ModelArtifact::from_model(
        model,
        ModelMeta {
            corpus_id: "roundtrip-subset".into(),
            seed: MlpConfig::default().seed,
            fold: None,
            examples: model.num_examples() as u64,
            train_config: "roundtrip-subset quick net".into(),
        },
        Some(HeuristicRates::ball_larus_mips()),
    )
    .expect("network-backed model")
}

#[test]
fn trained_model_round_trips_bitwise() {
    let (suite, model) = trained_model();
    let artifact = artifact_of(&model);

    // serialize → deserialize → serialize is byte-identical
    let bytes = artifact.to_bytes();
    let decoded = ModelArtifact::from_bytes(&bytes).expect("own bytes decode");
    assert_eq!(decoded, artifact);
    assert_eq!(decoded.to_bytes(), bytes);

    // …and survives the filesystem, via the registry.
    let root = std::env::temp_dir().join(format!("espm-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let reg = Registry::open(&root);
    let version = reg.publish("roundtrip", &artifact).expect("publish");
    let (_, reloaded) = reg.load("roundtrip", Some(version)).expect("load");
    assert_eq!(reloaded, artifact);

    // The reloaded model predicts bitwise identically on every branch site
    // of every program in the corpus subset.
    let loaded_model = reloaded.to_model();
    let mut sites = 0usize;
    for b in &suite.benches {
        for site in b.prog.branch_sites() {
            let expect = model.predict_prob(&b.prog, &b.analysis, site);
            let got = loaded_model.predict_prob(&b.prog, &b.analysis, site);
            assert_eq!(
                expect.to_bits(),
                got.to_bits(),
                "site {site:?} of `{}`: {expect} != {got}",
                b.bench.name
            );
            sites += 1;
        }
    }
    assert!(
        sites > 50,
        "subset should exercise many branch sites, got {sites}"
    );

    // The batched kernel entry point round-trips too: scoring all of a
    // program's sites in one fused pass over the reloaded flat weights is
    // bit-for-bit the original model's per-site path.
    for b in &suite.benches {
        let sites = b.prog.branch_sites();
        let batched = loaded_model.predict_prob_sites(&b.prog, &b.analysis, &sites);
        assert_eq!(batched.len(), sites.len());
        for (site, got) in sites.iter().zip(&batched) {
            let expect = model.predict_prob(&b.prog, &b.analysis, *site);
            assert_eq!(
                expect.to_bits(),
                got.to_bits(),
                "batched prediction diverged at site {site:?} of `{}`",
                b.bench.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn damaged_files_fail_with_typed_errors() {
    let artifact = ModelArtifact::synthetic(11, 4, 7);
    let dir = std::env::temp_dir().join(format!("espm-damage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.espm");
    artifact.save(&path).expect("save");
    let good = std::fs::read(&path).unwrap();

    // corrupted payload byte → checksum failure
    let mut corrupt = good.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0x01;
    std::fs::write(&path, &corrupt).unwrap();
    assert!(matches!(
        ModelArtifact::load(&path),
        Err(ArtifactError::CorruptChecksum { .. })
    ));

    // truncated file → typed truncation error
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    assert!(matches!(
        ModelArtifact::load(&path),
        Err(ArtifactError::Truncated { .. })
    ));

    // future format version → refused, not mis-parsed
    let mut future = good.clone();
    future[4] = 99;
    std::fs::write(&path, &future).unwrap();
    assert!(matches!(
        ModelArtifact::load(&path),
        Err(ArtifactError::UnsupportedVersion(99))
    ));

    // not an .espm file at all
    std::fs::write(&path, b"definitely not a model").unwrap();
    assert!(matches!(
        ModelArtifact::load(&path),
        Err(ArtifactError::BadMagic)
    ));

    // missing file → Io, not a panic
    assert!(matches!(
        ModelArtifact::load(&dir.join("ghost.espm")),
        Err(ArtifactError::Io(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}
