//! Persistent model artifacts for ESP: train once, ship the model, predict
//! anywhere — without the training corpus.
//!
//! Two pieces:
//!
//! * [`mod@format`] — the `.espm` binary container (magic + format version +
//!   CRC32) that round-trips everything inference needs: network topology
//!   and weights, feature-encoding configuration, normalization statistics,
//!   Ball–Larus heuristic rate tables, and training provenance. Floats are
//!   stored as raw IEEE-754 bits, so a loaded model predicts **bitwise
//!   identically** to the one that was trained — or, for an f32 artifact,
//!   to the quantized model that was saved.
//! * [`registry`] — a directory-backed store (`models/<name>/<version>.espm`)
//!   with publish / load-latest / list / inspect / gc.
//!
//! Everything is std-only; corrupted, truncated or future-versioned files
//! fail with typed [`ArtifactError`]s, never panics.
//!
//! # Example
//!
//! ```
//! use esp_artifact::{ModelArtifact, Registry};
//!
//! let artifact = ModelArtifact::synthetic(8, 4, 42);
//! let root = std::env::temp_dir().join(format!("espm-doc-{}", std::process::id()));
//! let reg = Registry::open(&root);
//! let version = reg.publish("doc-model", &artifact)?;
//! let (loaded_version, loaded) = reg.load("doc-model", None)?;
//! assert_eq!((version, &loaded), (loaded_version, &artifact));
//! # std::fs::remove_dir_all(&root).ok();
//! # Ok::<(), esp_artifact::ArtifactError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod error;
pub mod format;
pub mod registry;

pub use error::ArtifactError;
pub use format::{ModelArtifact, ModelMeta, FORMAT_VERSION, HEADER_LEN, KIND_F32, KIND_F64, MAGIC};
pub use registry::{ArtifactInfo, Registry, RegistryEntry};
