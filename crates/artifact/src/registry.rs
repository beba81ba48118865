//! A directory-backed model registry: `root/<name>/<version>.espm`.
//!
//! Versions are plain integers allocated monotonically by [`Registry::publish`];
//! "latest" is simply the highest number present. The registry never parses
//! anything it does not recognise — stray files are ignored by `list`/`versions`
//! and never deleted by `gc`.

use std::path::{Path, PathBuf};

use crate::error::ArtifactError;
use crate::format::{ModelArtifact, ModelMeta};

/// Handle on a registry root directory (created lazily on first save).
#[derive(Debug, Clone)]
pub struct Registry {
    root: PathBuf,
}

/// One model line in [`Registry::list`] output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Model name (the subdirectory).
    pub name: String,
    /// Versions on disk, ascending.
    pub versions: Vec<u32>,
}

/// What [`Registry::inspect`] reports without handing back the full model.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactInfo {
    /// Model name.
    pub name: String,
    /// Inspected version.
    pub version: u32,
    /// File path on disk.
    pub path: PathBuf,
    /// File size in bytes.
    pub file_len: u64,
    /// Training provenance from the payload.
    pub meta: ModelMeta,
    /// Input dimensionality.
    pub dim: usize,
    /// Hidden-layer width.
    pub hidden: usize,
    /// Whether a heuristic rate table is present.
    pub has_rates: bool,
    /// Weight precision in bits: 64 for trained networks, 32 for quantized
    /// serving artifacts.
    pub precision_bits: u32,
}

fn valid_name(name: &str) -> Result<(), ArtifactError> {
    let ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        && !name.starts_with('.');
    if ok {
        Ok(())
    } else {
        Err(ArtifactError::Malformed(format!(
            "invalid model name {name:?}: use ASCII letters, digits, '-', '_', '.'"
        )))
    }
}

impl Registry {
    /// Open (without touching the filesystem) a registry rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Self {
        Registry { root: root.into() }
    }

    /// The registry root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of one model version: `root/<name>/<version>.espm`.
    pub fn path(&self, name: &str, version: u32) -> Result<PathBuf, ArtifactError> {
        valid_name(name)?;
        Ok(self.root.join(name).join(format!("{version}.espm")))
    }

    /// Versions of `name` on disk, ascending. A missing model directory is
    /// an empty list, not an error.
    pub fn versions(&self, name: &str) -> Result<Vec<u32>, ArtifactError> {
        valid_name(name)?;
        let dir = self.root.join(name);
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("espm") {
                continue;
            }
            if let Some(v) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| s.parse::<u32>().ok())
            {
                out.push(v);
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Write `artifact` as an explicit version of `name`, returning the file
    /// path. Overwrites that version if it already exists.
    pub fn save(
        &self,
        name: &str,
        version: u32,
        artifact: &ModelArtifact,
    ) -> Result<PathBuf, ArtifactError> {
        let path = self.path(name, version)?;
        artifact.save(&path)?;
        Ok(path)
    }

    /// Write `artifact` as the next free version of `name` (1 for a new
    /// model) and return the allocated version. Safe against concurrent
    /// publishers: the version file is claimed with `create_new` before
    /// anything is written, so two racing publishes get distinct numbers
    /// instead of one silently overwriting the other.
    pub fn publish(&self, name: &str, artifact: &ModelArtifact) -> Result<u32, ArtifactError> {
        let mut next = self.versions(name)?.last().map_or(1, |v| v + 1);
        loop {
            let path = self.path(name, next)?;
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    next += 1;
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
            // The number is claimed; fill the file atomically (temp +
            // rename, via `save`), dropping the claim if the write fails.
            return match artifact.save(&path) {
                Ok(()) => Ok(next),
                Err(e) => {
                    let _ = std::fs::remove_file(&path);
                    Err(e)
                }
            };
        }
    }

    /// Load one version of `name` (of either precision), or the latest when
    /// `version` is `None`. Returns the resolved version alongside the
    /// artifact.
    pub fn load(
        &self,
        name: &str,
        version: Option<u32>,
    ) -> Result<(u32, ModelArtifact), ArtifactError> {
        let version = match version {
            Some(v) => v,
            None => *self.versions(name)?.last().ok_or_else(|| {
                ArtifactError::Malformed(format!("model {name:?} has no versions"))
            })?,
        };
        let artifact = ModelArtifact::load(&self.path(name, version)?)?;
        Ok((version, artifact))
    }

    /// Every model in the registry with its versions, sorted by name. A
    /// missing root is an empty registry.
    pub fn list(&self) -> Result<Vec<RegistryEntry>, ArtifactError> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
        };
        for entry in entries {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let Some(name) = entry.file_name().to_str().map(str::to_owned) else {
                continue;
            };
            if valid_name(&name).is_err() {
                continue;
            }
            let versions = self.versions(&name)?;
            if !versions.is_empty() {
                out.push(RegistryEntry { name, versions });
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    /// Load a version's header-level facts (provenance, topology, file size,
    /// weight precision) for display.
    pub fn inspect(&self, name: &str, version: Option<u32>) -> Result<ArtifactInfo, ArtifactError> {
        let (version, artifact) = self.load(name, version)?;
        let path = self.path(name, version)?;
        Ok(ArtifactInfo {
            name: name.to_string(),
            version,
            file_len: std::fs::metadata(&path)?.len(),
            path,
            dim: artifact.dim(),
            hidden: artifact.net.num_hidden(),
            has_rates: artifact.rates.is_some(),
            precision_bits: artifact.net.precision_bits(),
            meta: artifact.meta,
        })
    }

    /// Delete all but the newest `keep` versions of `name`; returns the
    /// paths removed. `keep == 0` removes every version.
    pub fn gc(&self, name: &str, keep: usize) -> Result<Vec<PathBuf>, ArtifactError> {
        let versions = self.versions(name)?;
        let cut = versions.len().saturating_sub(keep);
        let mut removed = Vec::new();
        for &v in &versions[..cut] {
            let path = self.path(name, v)?;
            std::fs::remove_file(&path)?;
            removed.push(path);
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_registry(tag: &str) -> Registry {
        let dir = std::env::temp_dir().join(format!(
            "esp-artifact-registry-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Registry::open(dir)
    }

    #[test]
    fn publish_load_list_gc_cycle() {
        let reg = temp_registry("cycle");
        let a1 = ModelArtifact::synthetic(6, 3, 1);
        let a2 = ModelArtifact::synthetic(6, 3, 2);
        assert_eq!(reg.publish("demo", &a1).unwrap(), 1);
        assert_eq!(reg.publish("demo", &a2).unwrap(), 2);
        assert_eq!(reg.versions("demo").unwrap(), vec![1, 2]);

        let (v, latest) = reg.load("demo", None).unwrap();
        assert_eq!(v, 2);
        assert_eq!(latest, a2);
        let (_, first) = reg.load("demo", Some(1)).unwrap();
        assert_eq!(first, a1);

        let listing = reg.list().unwrap();
        assert_eq!(listing.len(), 1);
        assert_eq!(listing[0].name, "demo");

        let info = reg.inspect("demo", None).unwrap();
        assert_eq!((info.version, info.dim, info.hidden), (2, 6, 3));
        assert!(info.has_rates);
        assert!(info.file_len > 0);
        assert_eq!(info.precision_bits, 64);

        let removed = reg.gc("demo", 1).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(reg.versions("demo").unwrap(), vec![2]);
        let _ = std::fs::remove_dir_all(reg.root());
    }

    #[test]
    fn empty_registry_lists_nothing_and_load_fails_typed() {
        let reg = temp_registry("empty");
        assert!(reg.list().unwrap().is_empty());
        assert!(reg.versions("ghost").unwrap().is_empty());
        assert!(matches!(
            reg.load("ghost", None),
            Err(ArtifactError::Malformed(_))
        ));
    }

    #[test]
    fn publish_never_overwrites_an_existing_version() {
        let reg = temp_registry("claimed");
        // A pre-existing version file — e.g. another publisher's claim still
        // being filled — is skipped, not overwritten.
        let claimed = reg.path("demo", 1).unwrap();
        std::fs::create_dir_all(claimed.parent().unwrap()).unwrap();
        std::fs::write(&claimed, b"").unwrap();
        let a = ModelArtifact::synthetic(4, 2, 9);
        assert_eq!(reg.publish("demo", &a).unwrap(), 2);
        assert_eq!(std::fs::read(&claimed).unwrap(), b"", "claim untouched");
        let _ = std::fs::remove_dir_all(reg.root());
    }

    #[test]
    fn concurrent_publishes_allocate_distinct_versions() {
        let reg = std::sync::Arc::new(temp_registry("race"));
        let n = 4u64;
        let handles: Vec<_> = (0..n)
            .map(|seed| {
                let reg = std::sync::Arc::clone(&reg);
                std::thread::spawn(move || {
                    reg.publish("demo", &ModelArtifact::synthetic(4, 2, seed))
                        .unwrap()
                })
            })
            .collect();
        let mut got: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4], "no version lost or duplicated");
        assert_eq!(reg.versions("demo").unwrap(), vec![1, 2, 3, 4]);
        // every published file is a complete, loadable artifact
        for v in 1..=4 {
            reg.load("demo", Some(v)).expect("complete artifact");
        }
        let _ = std::fs::remove_dir_all(reg.root());
    }

    #[test]
    fn quantized_artifacts_round_trip_through_the_registry() {
        let reg = temp_registry("quant");
        let q = ModelArtifact::synthetic(6, 3, 11).quantize();
        reg.save("demo-f32", 1, &q).unwrap();
        let (v, back) = reg.load("demo-f32", None).unwrap();
        assert_eq!(v, 1);
        assert_eq!(back, q);
        let info = reg.inspect("demo-f32", None).unwrap();
        assert_eq!(info.precision_bits, 32);
        assert_eq!((info.dim, info.hidden), (6, 3));
        let _ = std::fs::remove_dir_all(reg.root());
    }

    #[test]
    fn hostile_names_are_rejected() {
        let reg = temp_registry("names");
        for bad in ["", "..", "a/b", "a\\b", ".hidden", "spaced name"] {
            assert!(
                matches!(reg.path(bad, 1), Err(ArtifactError::Malformed(_))),
                "name {bad:?} should be rejected"
            );
        }
        assert!(reg.path("ok-model_v1.2", 3).is_ok());
    }
}
