//! The `.espm` binary format: a versioned, CRC-checked container that
//! round-trips everything inference needs — network topology and weights,
//! feature-encoding configuration, normalization statistics, Ball–Larus
//! heuristic rate tables, and training provenance.
//!
//! # Layout (format version 3)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"ESPM"
//! 4       4     format version, u32 LE        (this file: 3)
//! 8       8     payload length, u64 LE
//! 16      4     CRC32(payload), u32 LE        (IEEE polynomial)
//! 20      …     payload
//! ```
//!
//! Payload, all little-endian, floats as raw IEEE-754 bits:
//!
//! ```text
//! str   corpus_id            (u32 byte length + UTF-8)
//! u64   seed                 learner RNG seed
//! u32   fold                 cross-validation fold, u32::MAX = none
//! u64   examples             training examples the model saw
//! str   train_config         producer's training-configuration stamp
//! u8    kind                 weight precision: 0 = f64, 1 = f32 (quantized)
//! u8×3  feature set          opcode / context / successor group switches
//! f64[] mean                 per-feature normalization means
//! f64[] inv_std              per-feature inverse standard deviations
//! u32   inputs, u32 hidden   network topology
//! f64[]|f32[] weights        flat-weights order; element type per `kind`
//! u8    rates present?       0 or 1
//! f64×9 hit rates            (present = 1) Heuristic::ordinal order
//! u64×9 coverage             (present = 1)
//! ```
//!
//! The `kind` byte records the precision of the artifact's [`Net`]:
//! [`KIND_F64`] for a trained network, [`KIND_F32`] for the serving
//! narrowing [`ModelArtifact::quantize`] produces. Both decode to a
//! [`ModelArtifact`], which serves at the precision it was stored in; the
//! normalization statistics stay f64 in both.
//!
//! **Version policy:** any change to this layout — field added, removed,
//! reordered, or re-typed — bumps [`FORMAT_VERSION`]. Readers reject any
//! other version with [`ArtifactError::UnsupportedVersion`] instead of
//! guessing (there are no migration shims: an artifact of another version
//! is regenerated from its source). Version history: v1 lacked `train_config`; v2 lacked `kind`
//! (every v2 artifact was implicitly f64).

use std::path::Path;

use esp_core::{EspModel, FeatureSet, FittedEncoder};
use esp_heur::HeuristicRates;
use esp_nnet::{Mlp, Net, Normalizer};
use esp_runtime::Pcg32;

use crate::bytes::{crc32, ByteReader, ByteWriter};
use crate::error::ArtifactError;

/// File magic: the first four bytes of every `.espm` file.
pub const MAGIC: [u8; 4] = *b"ESPM";

/// Current artifact format version. Bump on **any** layout change.
pub const FORMAT_VERSION: u32 = 3;

/// Fixed header size preceding the payload.
pub const HEADER_LEN: usize = 20;

/// `kind` byte: weights are f64 (`Mlp::flat_weights` as raw f64 bits).
pub const KIND_F64: u8 = 0;

/// `kind` byte: weights are f32 (`Mlp<f32>::flat_weights` as raw f32
/// bits) — a quantized serving artifact.
pub const KIND_F32: u8 = 1;

const NO_FOLD: u32 = u32::MAX;

/// Training provenance carried inside every artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelMeta {
    /// Which corpus (or corpus subset) the model was trained on.
    pub corpus_id: String,
    /// Learner RNG seed, after any per-fold offset.
    pub seed: u64,
    /// Cross-validation fold index, if the model is one fold of a study.
    pub fold: Option<u32>,
    /// Number of training examples the model saw.
    pub examples: u64,
    /// Free-form training-configuration stamp written by the producer
    /// (learner hyper-parameters, feature groups, …): provenance that
    /// `esp-client registry inspect` shows for every published model.
    pub train_config: String,
}

/// A complete, self-contained trained predictor: everything `esp-serve`
/// needs to answer per-branch queries without retraining.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Training provenance.
    pub meta: ModelMeta,
    /// Feature-set choice plus fitted normalization statistics.
    pub encoder: FittedEncoder,
    /// The network, at the precision its weights are stored in.
    pub net: Net,
    /// Ball–Larus heuristic hit rates measured on the training corpus, when
    /// the producer recorded them (used by Dempster–Shafer baselines, not by
    /// the network itself).
    pub rates: Option<HeuristicRates>,
}

impl ModelArtifact {
    /// Package a network-backed [`EspModel`] (at either precision) for
    /// persistence.
    ///
    /// Returns [`ArtifactError::Malformed`] for tree-backed models — the
    /// format only carries networks.
    pub fn from_model(
        model: &EspModel,
        meta: ModelMeta,
        rates: Option<HeuristicRates>,
    ) -> Result<Self, ArtifactError> {
        let net = model.net().ok_or_else(|| {
            ArtifactError::Malformed("the format persists network models only, not trees".into())
        })?;
        if model.encoder().feature_set().extended {
            return Err(ArtifactError::Malformed(
                "the format persists paper-feature-set models only; \
                 extended-feature models cannot be cached as .espm"
                    .into(),
            ));
        }
        Ok(ModelArtifact {
            meta,
            encoder: model.encoder().clone(),
            net: net.clone(),
            rates,
        })
    }

    /// Rebuild the in-memory model at the artifact's own precision.
    /// Predictions of the result are bitwise identical to the model that
    /// was packaged.
    pub fn to_model(&self) -> EspModel {
        EspModel::from_net_parts(
            self.encoder.clone(),
            self.net.clone(),
            self.meta.examples as usize,
        )
    }

    /// Input dimensionality (encoder and network agree by construction).
    pub fn dim(&self) -> usize {
        self.encoder.normalizer().dim()
    }

    /// A deterministic, training-free artifact: random-initialised weights
    /// and benign normalization statistics from a seeded PCG32 stream. Used
    /// by `esp-serve --synthetic`, the benchmark and tests, where what
    /// matters is a model of realistic shape, not a good one.
    pub fn synthetic(dim: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mean: Vec<f64> = (0..dim).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let inv_std: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.5..2.0)).collect();
        let weights: Vec<f64> = (0..Mlp::param_count(dim, hidden))
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        ModelArtifact {
            meta: ModelMeta {
                corpus_id: format!("synthetic-{seed}"),
                seed,
                fold: None,
                examples: 0,
                train_config: format!("synthetic dim={dim} hidden={hidden}"),
            },
            encoder: FittedEncoder::from_parts(
                Normalizer::from_parts(mean, inv_std),
                FeatureSet::default(),
            ),
            net: Net::F64(
                Mlp::from_flat_weights(dim, hidden, &weights).expect("count matches topology"),
            ),
            rates: Some(HeuristicRates::ball_larus_mips()),
        }
    }

    /// The [`synthetic`](Self::synthetic) artifact a `DIM,HIDDEN,SEED`
    /// spec names, as `esp-serve --synthetic` and `esp-client registry
    /// publish --synthetic` take it, or a message naming the spec.
    pub fn parse_synthetic(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split(',').collect();
        match parts[..] {
            [dim, hidden, seed] => match (dim.parse(), hidden.parse(), seed.parse()) {
                (Ok(dim), Ok(hidden), Ok(seed)) => Ok(Self::synthetic(dim, hidden, seed)),
                _ => Err(format!("--synthetic takes three numbers, got {spec:?}")),
            },
            _ => Err(format!("--synthetic takes DIM,HIDDEN,SEED, got {spec:?}")),
        }
    }

    /// The f32 serving narrowing of this artifact: same provenance, same
    /// encoder (normalization stays f64), network parameters rounded once
    /// to f32 (see [`esp_nnet::Mlp::quantize`]). Serializes as
    /// [`KIND_F32`]; quantizing an f32 artifact is the identity.
    pub fn quantize(&self) -> ModelArtifact {
        ModelArtifact {
            net: self.net.quantize(),
            ..self.clone()
        }
    }

    /// Serialize to the `.espm` byte layout, with the `kind` byte of the
    /// network's precision. Deterministic: the same artifact always
    /// produces the same bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = ByteWriter::new();
        let meta = &self.meta;
        p.str(&meta.corpus_id);
        p.u64(meta.seed);
        p.u32(meta.fold.unwrap_or(NO_FOLD));
        p.u64(meta.examples);
        p.str(&meta.train_config);
        p.u8(match self.net {
            Net::F64(_) => KIND_F64,
            Net::F32(_) => KIND_F32,
        });
        let set = self.encoder.feature_set();
        p.u8(set.opcode_features as u8);
        p.u8(set.context_features as u8);
        p.u8(set.successor_features as u8);
        p.f64_slice(self.encoder.normalizer().mean());
        p.f64_slice(self.encoder.normalizer().inv_std());
        p.u32(self.net.num_inputs() as u32);
        p.u32(self.net.num_hidden() as u32);
        match &self.net {
            Net::F64(m) => p.f64_slice(&m.flat_weights()),
            Net::F32(m) => p.f32_slice(&m.flat_weights()),
        }
        write_rates(&mut p, &self.rates);
        wrap_payload(p.into_bytes())
    }

    /// Decode an `.espm` byte buffer of either precision, verifying magic,
    /// version, declared length and checksum before touching the payload.
    /// Never panics on hostile input: every failure is a typed
    /// [`ArtifactError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let mut r = ByteReader::new(unwrap_payload(bytes)?);
        let corpus_id = r.str()?;
        let seed = r.u64()?;
        let fold = match r.u32()? {
            NO_FOLD => None,
            f => Some(f),
        };
        let examples = r.u64()?;
        let train_config = r.str()?;
        let kind = r.u8()?;
        let set = FeatureSet {
            opcode_features: r.u8()? != 0,
            context_features: r.u8()? != 0,
            successor_features: r.u8()? != 0,
            // The v3 wire format predates (and never carries) the extended
            // analysis features; `from_model` refuses extended models.
            extended: false,
        };
        let mean = r.f64_slice()?;
        let inv_std = r.f64_slice()?;
        if mean.len() != inv_std.len() {
            return Err(ArtifactError::Malformed(format!(
                "normalizer mean ({}) and inv_std ({}) lengths differ",
                mean.len(),
                inv_std.len()
            )));
        }
        let inputs = r.u32()? as usize;
        let hidden = r.u32()? as usize;
        if inputs != mean.len() {
            return Err(ArtifactError::Malformed(format!(
                "network expects {inputs} inputs but the encoder is {}-dimensional",
                mean.len()
            )));
        }
        // `Err(count)` when the weight count disagrees with the topology.
        let net = match kind {
            KIND_F64 => {
                let w = r.f64_slice()?;
                Mlp::from_flat_weights(inputs, hidden, &w)
                    .map(Net::F64)
                    .ok_or(w.len())
            }
            KIND_F32 => {
                let w = r.f32_slice()?;
                Mlp::from_flat_weights(inputs, hidden, &w)
                    .map(Net::F32)
                    .ok_or(w.len())
            }
            other => {
                return Err(ArtifactError::Malformed(format!(
                    "unknown artifact kind {other} (expected {KIND_F64} = f64 or {KIND_F32} = f32)"
                )))
            }
        }
        .map_err(|count| {
            ArtifactError::Malformed(format!(
                "weight count {count} does not match topology ({inputs} inputs, {hidden} hidden)"
            ))
        })?;
        let rates = read_rates(&mut r)?;
        r.finish()?;
        Ok(ModelArtifact {
            meta: ModelMeta {
                corpus_id,
                seed,
                fold,
                examples,
                train_config,
            },
            encoder: FittedEncoder::from_parts(Normalizer::from_parts(mean, inv_std), set),
            net,
            rates,
        })
    }

    /// Write the artifact to `path` atomically (temp file + rename), so a
    /// crash mid-write never leaves a half-model behind.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("espm.tmp");
        std::fs::write(&tmp, self.to_bytes())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Read and decode an artifact of either precision from `path`.
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }
}

/// Prepend the validated container header (magic, version, length, CRC) to
/// a finished payload.
fn wrap_payload(payload: Vec<u8>) -> Vec<u8> {
    let mut out = ByteWriter::new();
    out.u8(MAGIC[0]);
    out.u8(MAGIC[1]);
    out.u8(MAGIC[2]);
    out.u8(MAGIC[3]);
    out.u32(FORMAT_VERSION);
    out.u64(payload.len() as u64);
    out.u32(crc32(&payload));
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(&payload);
    bytes
}

/// Validate magic, version, declared length and checksum; hand back the
/// payload slice.
fn unwrap_payload(bytes: &[u8]) -> Result<&[u8], ArtifactError> {
    let mut h = ByteReader::new(bytes);
    let magic = [h.u8()?, h.u8()?, h.u8()?, h.u8()?];
    if magic != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = h.u32()?;
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion(version));
    }
    let payload_len = h.u64()? as usize;
    let expected_crc = h.u32()?;
    if h.remaining() < payload_len {
        return Err(ArtifactError::Truncated {
            needed: payload_len,
            available: h.remaining(),
        });
    }
    if h.remaining() > payload_len {
        return Err(ArtifactError::Malformed(format!(
            "{} bytes beyond the declared payload",
            h.remaining() - payload_len
        )));
    }
    let payload = &bytes[HEADER_LEN..];
    let actual_crc = crc32(payload);
    if actual_crc != expected_crc {
        return Err(ArtifactError::CorruptChecksum {
            expected: expected_crc,
            actual: actual_crc,
        });
    }
    Ok(payload)
}

fn write_rates(p: &mut ByteWriter, rates: &Option<HeuristicRates>) {
    match rates {
        None => p.u8(0),
        Some(r) => {
            p.u8(1);
            for hit in r.hit_array() {
                p.f64(hit);
            }
            for c in r.coverage {
                p.u64(c);
            }
        }
    }
}

fn read_rates(r: &mut ByteReader<'_>) -> Result<Option<HeuristicRates>, ArtifactError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let mut hit = [0.0f64; 9];
            for h in &mut hit {
                *h = r.f64()?;
            }
            let mut coverage = [0u64; 9];
            for c in &mut coverage {
                *c = r.u64()?;
            }
            Ok(Some(HeuristicRates::from_parts(hit, coverage)))
        }
        other => Err(ArtifactError::Malformed(format!(
            "rates-present flag must be 0 or 1, got {other}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_round_trips_through_bytes() {
        let a = ModelArtifact::synthetic(12, 5, 99);
        let bytes = a.to_bytes();
        let b = ModelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(a.meta, b.meta);
        assert_eq!(a.net, b.net);
        assert_eq!(a.encoder, b.encoder);
        assert_eq!(a.rates, b.rates);
        // serialize → deserialize → serialize is byte-identical
        assert_eq!(bytes, b.to_bytes());
    }

    #[test]
    fn a_synthetic_spec_names_dim_hidden_and_seed() {
        let a = ModelArtifact::parse_synthetic("12,5,99").expect("valid spec");
        assert_eq!(a, ModelArtifact::synthetic(12, 5, 99));
        let err = ModelArtifact::parse_synthetic("12,5").expect_err("two parts");
        assert!(err.contains("DIM,HIDDEN,SEED"), "{err}");
        let err = ModelArtifact::parse_synthetic("12,x,99").expect_err("bad HIDDEN");
        assert!(err.contains("three numbers, got \"12,x,99\""), "{err}");
    }

    #[test]
    fn zero_hidden_topology_round_trips() {
        let a = ModelArtifact::synthetic(7, 0, 5);
        let b = ModelArtifact::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = ModelArtifact::synthetic(3, 2, 1).to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            ModelArtifact::from_bytes(&bytes),
            Err(ArtifactError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = ModelArtifact::synthetic(3, 2, 1).to_bytes();
        bytes[4] = 0xFF; // version LE low byte
        assert!(matches!(
            ModelArtifact::from_bytes(&bytes),
            Err(ArtifactError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut bytes = ModelArtifact::synthetic(3, 2, 1).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            ModelArtifact::from_bytes(&bytes),
            Err(ArtifactError::CorruptChecksum { .. })
        ));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let bytes = ModelArtifact::synthetic(3, 2, 1).to_bytes();
        for cut in [3, HEADER_LEN - 1, HEADER_LEN + 5, bytes.len() - 1] {
            let err = ModelArtifact::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, ArtifactError::Truncated { .. }),
                "cut at {cut}: expected Truncated, got {err:?}"
            );
        }
    }

    #[test]
    fn quantized_artifact_round_trips_through_bytes() {
        let a = ModelArtifact::synthetic(12, 5, 99);
        let q = a.quantize();
        let bytes = q.to_bytes();
        assert_eq!(bytes[4], FORMAT_VERSION as u8);
        let back = ModelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back, q);
        assert_eq!(bytes, back.to_bytes());
        // provenance and encoder are inherited unchanged
        assert_eq!(q.meta, a.meta);
        assert_eq!(q.encoder, a.encoder);
        assert_eq!(q.rates, a.rates);
        // weights are the f32 rounding of the source's, and quantizing
        // again changes nothing
        let (Net::F64(m), Net::F32(qm)) = (&a.net, &q.net) else {
            panic!("expected an f64 source and an f32 narrowing");
        };
        for (qw, w) in qm.flat_weights().iter().zip(m.flat_weights()) {
            assert_eq!(qw.to_bits(), (w as f32).to_bits());
        }
        assert_eq!(q.quantize(), q);
        // the rebuilt model serves at 32-bit precision
        assert_eq!(back.to_model().precision_bits(), 32);
        assert_eq!(a.to_model().precision_bits(), 64);
    }

    #[test]
    fn unknown_kind_byte_is_rejected() {
        let a = ModelArtifact::synthetic(3, 2, 1);
        let mut payload = a.to_bytes()[HEADER_LEN..].to_vec();
        // the kind byte sits right after the train_config string; find it by
        // re-encoding the prefix up to and including train_config
        let mut w = ByteWriter::new();
        w.str(&a.meta.corpus_id);
        w.u64(a.meta.seed);
        w.u32(NO_FOLD);
        w.u64(a.meta.examples);
        w.str(&a.meta.train_config);
        let kind_off = w.into_bytes().len();
        assert_eq!(payload[kind_off], KIND_F64);
        payload[kind_off] = 7;
        let bytes = wrap_payload(payload);
        let err = ModelArtifact::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(&err, ArtifactError::Malformed(m) if m.contains("unknown artifact kind")),
            "got {err:?}"
        );
    }

    #[test]
    fn quantized_predictions_round_trip_bitwise() {
        let a = ModelArtifact::synthetic(10, 4, 77);
        let q = a.quantize();
        let model = q.to_model();
        let loaded = ModelArtifact::from_bytes(&q.to_bytes()).unwrap().to_model();
        let mut rng = Pcg32::seed_from_u64(5);
        for _ in 0..40 {
            let row: Vec<f64> = (0..10).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mask = vec![true; 10];
            assert_eq!(
                model.predict_prob_encoded(&row, &mask).to_bits(),
                loaded.predict_prob_encoded(&row, &mask).to_bits()
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = ModelArtifact::synthetic(3, 2, 1).to_bytes();
        bytes.push(0);
        assert!(matches!(
            ModelArtifact::from_bytes(&bytes),
            Err(ArtifactError::Malformed(_))
        ));
    }
}
