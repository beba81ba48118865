//! Pins the serialized-surface versions of the workspace: the `.espm`
//! artifact format and the serving wire protocol. A legitimate layout
//! change bumps the constant *and* this test together, so the bump is
//! always a reviewed, deliberate act. Beyond the version numbers, the
//! bytes of one synthetic `.espm` artifact and the bits its predictions
//! produce are pinned at both weight precisions.

#[test]
fn model_artifact_format_version_is_pinned() {
    assert_eq!(
        esp_artifact::FORMAT_VERSION,
        3,
        "`.espm` format version changed — update readers, writers and this pin together"
    );
}

#[test]
fn serve_protocol_version_is_pinned() {
    // v3 added the PROFILE opcode (per-site outcome feedback) and the
    // echoed u64 request id in the frame header. v4 added the model
    // selector string to PREDICT and INFO (multi-model routing) and the
    // `model_name`/`model_version` fields to the INFO response.
    assert_eq!(
        esp_serve::protocol::PROTOCOL_VERSION,
        4,
        "serve wire protocol version changed — update client, server and this pin together"
    );
}

#[test]
fn default_feature_set_stamp_is_byte_stable() {
    // Every published `.espm` fold records a train-config stamp as its
    // provenance. Historically the stamp embedded `{:?}` of `FeatureSet`;
    // adding the opt-in `extended` field must NOT change the bytes of any
    // stamp a paper-feature-set model ever produced, so artifacts published
    // before and after it describe the same training the same way. The tag
    // for extended sets must differ so an extended model's provenance can
    // never read as a paper-set one.
    let default = esp_core::FeatureSet::default();
    assert!(!default.extended, "extended features are strictly opt-in");
    assert_eq!(
        default.stamp_tag(),
        "FeatureSet { opcode_features: true, context_features: true, successor_features: true }",
        "default stamp tag drifted — published `.espm` provenance would change"
    );

    let extended = esp_core::FeatureSet {
        extended: true,
        ..Default::default()
    };
    assert_ne!(extended.stamp_tag(), default.stamp_tag());
    assert!(
        extended.stamp_tag().contains("extended: true"),
        "extended stamps must be self-describing"
    );

    // And through the full train-config stamp a published fold records:
    let cfg = esp_core::EspConfig::default();
    let mut ext_cfg = esp_core::EspConfig::default();
    ext_cfg.features.extended = true;
    let base_stamp = esp_eval::train_config_stamp(&cfg);
    assert!(base_stamp.contains(
        "FeatureSet { opcode_features: true, context_features: true, successor_features: true }"
    ));
    assert_ne!(esp_eval::train_config_stamp(&ext_cfg), base_stamp);
}

#[test]
fn extended_encoding_is_additive() {
    // The extended block strictly appends: paper-set encodings keep their
    // dimension, extended sets add exactly EXTENDED_DIM columns.
    assert_eq!(
        esp_core::encoded_dim(&esp_core::FeatureSet::default()),
        esp_core::ENCODED_DIM
    );
    let ext = esp_core::FeatureSet {
        extended: true,
        ..Default::default()
    };
    assert_eq!(
        esp_core::encoded_dim(&ext),
        esp_core::ENCODED_DIM + esp_core::EXTENDED_DIM
    );
}

/// Nine raw rows of the synthetic model's 6-dimensional input with masks:
/// one full 8-row panel tile plus one scalar remainder row.
fn nine_rows() -> Vec<(Vec<f64>, Vec<bool>)> {
    (0..9)
        .map(|i| {
            let row = (0..6)
                .map(|j| ((i * 6 + j) as f64 * 0.7).sin() * 2.5)
                .collect();
            let mask = (0..6).map(|j| (i + j) % 5 != 0).collect();
            (row, mask)
        })
        .collect()
}

/// FNV-1a over the little-endian `to_bits()` of every probability.
fn prediction_bits_hash(model: &esp_core::EspModel) -> u64 {
    let rows = nine_rows();
    let probs =
        model.predict_prob_encoded_batch(rows.iter().map(|(r, m)| (r.as_slice(), m.as_slice())));
    assert_eq!(probs.len(), 9);
    let mut h = esp_obs::Fnv1a::default();
    for p in probs {
        h.write(&p.to_bits().to_le_bytes());
    }
    h.finish()
}

#[test]
fn espm_bytes_and_predictions_are_pinned_at_both_precisions() {
    // Computed once and frozen: any change to the `.espm` encoding, the f32
    // rounding, or either precision's forward pass moves one of these.
    let f64_artifact = esp_artifact::ModelArtifact::synthetic(6, 3, 1);
    let f32_artifact = f64_artifact.quantize();
    let pins = [
        ("f64", f64_artifact.to_bytes(), f64_artifact.to_model()),
        ("f32", f32_artifact.to_bytes(), f32_artifact.to_model()),
    ];
    let got: Vec<(&str, usize, u32, u64)> = pins
        .iter()
        .map(|(tag, bytes, model)| {
            (
                *tag,
                bytes.len(),
                esp_artifact::bytes::crc32(bytes),
                prediction_bits_hash(model),
            )
        })
        .collect();
    assert_eq!(
        got,
        vec![
            ("f64", 548, 0xdf53_549a, 0x770f_9094_d702_2e2f),
            ("f32", 448, 0x0840_d88c, 0xe01f_ae05_252f_5d55),
        ],
        "`.espm` bytes or prediction bits moved"
    );
}
