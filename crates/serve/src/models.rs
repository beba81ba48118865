//! The multi-model routing table: named, versioned models behind one
//! server, selected per-request by the protocol-v4 model selector.
//!
//! Every loaded model lives in a [`ModelEntry`] behind an `Arc`; the
//! reactor resolves a selector to an entry exactly once per request, and
//! the request's cache lookups, kernel calls and cache inserts all use
//! that same `Arc`. Hot reload is therefore a single atomic pointer swap
//! in the table: requests already answered used the entry they resolved,
//! new requests resolve the fresh one, and nothing is ever torn
//! mid-request.
//!
//! Each entry also carries a table-unique `id`, which the reactor's cache
//! keys every entry by, beside the row hash. A reloaded version gets a
//! fresh id, so a stale probability can never be served across a swap —
//! old entries simply age out of the LRU.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use esp_artifact::{ModelArtifact, FORMAT_VERSION};
use esp_core::EspModel;

use crate::protocol::ServerInfo;

/// One loaded model: the inference network plus its routing identity.
pub(crate) struct ModelEntry {
    /// Table-unique load id, starting at 1; part of every cache entry's
    /// key, so entries from different loads (including reloads of the same
    /// name) never alias.
    pub id: u64,
    /// The inference model, at its artifact's precision.
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

/// Build a [`ModelEntry`] from a loaded artifact; it serves at the
/// artifact's own precision.
pub(crate) fn entry_from_artifact(
    table: &ModelTable,
    artifact: &ModelArtifact,
    name: &str,
    version: u32,
) -> ModelEntry {
    ModelEntry {
        id: table.next_id(),
        model: artifact.to_model(),
        info: ServerInfo {
            dim: artifact.dim() as u32,
            hidden: artifact.net.num_hidden() as u32,
            format_version: FORMAT_VERSION,
            corpus_id: artifact.meta.corpus_id.clone(),
            model_name: name.to_string(),
            model_version: version,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_with(names: &[(&str, u32)]) -> ModelTable {
        let table = ModelTable::new(names[0].0);
        for &(name, version) in names {
            let artifact = ModelArtifact::synthetic(6, 3, version as u64);
            let entry = entry_from_artifact(&table, &artifact, name, version);
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
        let artifact = ModelArtifact::synthetic(6, 3, 99);
        let fresh = entry_from_artifact(&t, &artifact, "alpha", 2);
        assert_ne!(fresh.id, old_id, "reload must mint a fresh cache epoch");
        let replaced = t.install("alpha", Arc::new(fresh));
        assert_eq!(replaced.unwrap().id, old_id);
        assert_eq!(t.resolve("alpha").unwrap().info.model_version, 2);
        assert_eq!(t.resolve("alpha@2").unwrap().id, t.default_entry().id);
    }
}
