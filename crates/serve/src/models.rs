//! The multi-model routing table: named, versioned models behind one
//! server, selected per-request by the protocol-v4 model selector.
//!
//! Every loaded model lives in a [`ModelEntry`] behind an `Arc`; the
//! reactor resolves a selector to an entry exactly once per request, and
//! every shard job of that request carries the same `Arc`. Hot reload is
//! therefore a single atomic pointer swap in the table: requests already
//! dispatched finish on the entry they resolved, new requests resolve the
//! fresh one, and nothing is ever torn mid-flight.
//!
//! Each entry also carries a table-unique `id`, which the shard caches
//! prefix onto every cache key. A reloaded version gets a fresh id, so a
//! stale probability can never be served across a swap — old entries
//! simply age out of the LRU.

use std::io::ErrorKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use esp_artifact::{AnyArtifact, FORMAT_VERSION};
use esp_core::EspModel;

use crate::protocol::ServerInfo;
use crate::server::Precision;

/// One loaded model: the inference network plus its routing identity.
pub(crate) struct ModelEntry {
    /// Table-unique load id; prefixes shard cache keys so entries from
    /// different loads (including reloads of the same name) never alias.
    pub id: u64,
    /// The inference model, at its serving precision.
    pub model: EspModel,
    /// The facts an INFO request reports for this entry.
    pub info: ServerInfo,
}

impl std::fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEntry")
            .field("id", &self.id)
            .field("info", &self.info)
            .finish_non_exhaustive()
    }
}

/// Build the serving-precision model for an artifact, applying the same
/// precision matrix as the original single-model server: an f64 artifact
/// serves natively or quantizes down to f32; an f32 artifact cannot be
/// promoted back to f64.
fn model_at_precision(
    artifact: &AnyArtifact,
    precision: Option<Precision>,
) -> std::io::Result<EspModel> {
    match (artifact, precision) {
        (AnyArtifact::F64(a), Some(Precision::F32)) => Ok(a.quantize().to_model()),
        (AnyArtifact::F64(a), _) => Ok(a.to_model()),
        (AnyArtifact::F32(a), None | Some(Precision::F32)) => Ok(a.to_model()),
        (AnyArtifact::F32(_), Some(Precision::F64)) => Err(std::io::Error::new(
            ErrorKind::InvalidInput,
            "artifact holds f32 (quantized) weights and cannot be served at f64; \
             load the f64 artifact instead",
        )),
    }
}

/// The routing table: selector → [`ModelEntry`], plus the default entry an
/// empty selector resolves to. Reads are per-request `RwLock` read locks;
/// writes happen only at load and hot reload.
pub(crate) struct ModelTable {
    /// Name the empty selector resolves to (may itself be empty for a
    /// single anonymous model served from a bare file or synthesis).
    default_name: String,
    entries: RwLock<Vec<(String, Arc<ModelEntry>)>>,
    next_id: AtomicU64,
}

impl ModelTable {
    /// A table with one default entry (`default_name` may be empty for an
    /// anonymous model).
    pub fn new(default_name: &str) -> Self {
        ModelTable {
            default_name: default_name.to_string(),
            entries: RwLock::new(Vec::new()),
            next_id: AtomicU64::new(1),
        }
    }

    /// The name the empty selector resolves to.
    pub fn default_name(&self) -> &str {
        &self.default_name
    }

    /// Allocate the next load id (unique within this table's lifetime).
    pub fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Insert or replace the entry routed under `name`. Returns the
    /// replaced entry, if any.
    pub fn install(&self, name: &str, entry: Arc<ModelEntry>) -> Option<Arc<ModelEntry>> {
        let mut entries = self.entries.write().expect("model table lock");
        match entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, slot)) => Some(std::mem::replace(slot, entry)),
            None => {
                entries.push((name.to_string(), entry));
                None
            }
        }
    }

    /// The entry the empty selector resolves to.
    pub fn default_entry(&self) -> Arc<ModelEntry> {
        self.resolve("").expect("default model present")
    }

    /// Every entry, in registration order (for health documents).
    pub fn list(&self) -> Vec<Arc<ModelEntry>> {
        self.entries
            .read()
            .expect("model table lock")
            .iter()
            .map(|(_, e)| Arc::clone(e))
            .collect()
    }

    /// Resolve a protocol selector: `""` → the default model, `"name"` →
    /// the currently-loaded version of `name`, `"name@version"` → exactly
    /// that version or an error naming what *is* loaded.
    pub fn resolve(&self, selector: &str) -> Result<Arc<ModelEntry>, String> {
        let (name, version) = match selector.split_once('@') {
            Some((n, v)) => {
                let v: u32 = v.parse().map_err(|_| {
                    format!("model selector {selector:?}: version {v:?} is not a number")
                })?;
                (n, Some(v))
            }
            None => (selector, None),
        };
        let name = if name.is_empty() {
            self.default_name.as_str()
        } else {
            name
        };
        let entries = self.entries.read().expect("model table lock");
        let entry = entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, e)| Arc::clone(e))
            .ok_or_else(|| {
                let known: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
                format!(
                    "no model named {name:?} (serving: {})",
                    if known.is_empty() {
                        "none".to_string()
                    } else {
                        known.join(", ")
                    }
                )
            })?;
        if let Some(v) = version {
            if entry.info.model_version != v {
                return Err(format!(
                    "model {name:?} is at version {}, not {v}",
                    entry.info.model_version
                ));
            }
        }
        Ok(entry)
    }
}

/// Build a [`ModelEntry`] from a loaded artifact.
pub(crate) fn entry_from_any(
    table: &ModelTable,
    artifact: &AnyArtifact,
    name: &str,
    version: u32,
    precision: Option<Precision>,
) -> std::io::Result<ModelEntry> {
    let model = model_at_precision(artifact, precision)?;
    Ok(ModelEntry {
        id: table.next_id(),
        model,
        info: ServerInfo {
            dim: artifact.dim() as u32,
            hidden: artifact.hidden() as u32,
            format_version: FORMAT_VERSION,
            corpus_id: artifact.meta().corpus_id.clone(),
            model_name: name.to_string(),
            model_version: version,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_artifact::ModelArtifact;

    fn table_with(names: &[(&str, u32)]) -> ModelTable {
        let table = ModelTable::new(names[0].0);
        for &(name, version) in names {
            let artifact = AnyArtifact::F64(ModelArtifact::synthetic(6, 3, version as u64));
            let entry = entry_from_any(&table, &artifact, name, version, None).unwrap();
            table.install(name, Arc::new(entry));
        }
        table
    }

    #[test]
    fn selectors_resolve_name_and_version() {
        let t = table_with(&[("alpha", 2), ("beta", 7)]);
        assert_eq!(t.resolve("").unwrap().info.model_name, "alpha");
        assert_eq!(t.resolve("beta").unwrap().info.model_version, 7);
        assert_eq!(t.resolve("beta@7").unwrap().info.model_name, "beta");
        let err = t.resolve("beta@6").unwrap_err();
        assert!(err.contains("version 7"), "got: {err}");
        let err = t.resolve("gamma").unwrap_err();
        assert!(err.contains("alpha") && err.contains("beta"), "got: {err}");
        let err = t.resolve("beta@x").unwrap_err();
        assert!(err.contains("not a number"), "got: {err}");
    }

    #[test]
    fn install_swaps_and_ids_are_unique() {
        let t = table_with(&[("alpha", 1)]);
        let old_id = t.resolve("alpha").unwrap().id;
        let artifact = AnyArtifact::F64(ModelArtifact::synthetic(6, 3, 99));
        let fresh = entry_from_any(&t, &artifact, "alpha", 2, None).unwrap();
        assert_ne!(fresh.id, old_id, "reload must mint a fresh cache epoch");
        let replaced = t.install("alpha", Arc::new(fresh));
        assert_eq!(replaced.unwrap().id, old_id);
        assert_eq!(t.resolve("alpha").unwrap().info.model_version, 2);
        assert_eq!(t.resolve("alpha@2").unwrap().id, t.default_entry().id);
    }

    #[test]
    fn f32_entries_refuse_f64_precision() {
        let t = ModelTable::new("q");
        let q = AnyArtifact::F32(ModelArtifact::synthetic(6, 3, 1).quantize());
        let err = entry_from_any(&t, &q, "q", 1, Some(Precision::F64)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        assert!(entry_from_any(&t, &q, "q", 1, None).is_ok());
    }
}
