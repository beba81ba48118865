//! The reactor's PREDICT path: one LRU cache it owns outright, and the
//! batched kernel over the rows that miss it, both run on the reactor.
//!
//! The reactor parses each request frame once, in place
//! ([`RequestView::parse`](crate::protocol::RequestView::parse)): a
//! PREDICT row is a `9·dim`-byte slice of the frame whose mask bytes the
//! parse rewrote to 0/1, so the slice *is* the row's `site_key`, the bytes
//! PROFILE joins on. Each row is hashed once, with
//! [`esp_obs::word_hash`] of that slice; the hash keys the cache map and
//! indexes the accuracy ledger, and cache and ledger take the slice itself
//! as the key. Only the rows that miss are widened into f64 values and
//! mask flags, in scratch buffers the predictor reuses, for the kernel.
//! PROFILE hashes its `site_key` with the same function. Only the reactor
//! thread touches the cache and writes served predictions to the ledger,
//! so neither needs coherence across threads, and the hit rate is that of
//! one cache of the configured capacity.
//!
//! [`Predictor::predict`] answers a validated PREDICT in the reactor
//! iteration that parsed it. One pass looks every row up, one row at a
//! time, and records each hit in the ledger. The rows that missed then go
//! through the batched kernel, [`PREDICT_CHUNK`] rows per call, and each
//! computed row is cached and recorded before the reply is encoded, so the
//! next request — pipelined on the same connection or on another — hits
//! it, and a PROFILE that follows the reply finds its site. The batched
//! kernel is bitwise deterministic per row, so the chunking cannot change
//! a served probability.
//!
//! The kernel runs on the reactor, so a PREDICT with many misses delays
//! every connection until its pass ends. Every model this system trains
//! is at most 168→20→1, so a 32-row PREDICT's kernel costs tens of µs;
//! the largest legal frame, ~47k new rows at dim 158, holds the reactor
//! for about 0.2 s, a quarter of it kernel (DESIGN §4k).
//!
//! The cache map is keyed by the owning [`ModelEntry`]'s table-unique
//! load id beside the row hash, and computed rows are cached under the
//! entry their request resolved, so a hot reload can never serve a stale
//! probability: the new entry's rows simply never match the old one's, and
//! the old entries age out of the LRU. The ledger records under the plain
//! site key, unchanged from the single-model wire contract.

use std::time::Instant;

use esp_obs::word_hash;

use crate::cache::LruCache;
use crate::models::ModelEntry;
use crate::protocol::{widen_row, PredictRows};
use crate::server::Shared;

/// Rows per batched-kernel call: bounds the kernel's thread-local panel
/// whatever the size of the request.
const PREDICT_CHUNK: usize = 32;

/// The cache and the kernel's scratch rows, owned by the reactor thread.
pub(crate) struct Predictor {
    cache: LruCache,
    /// One chunk of missed rows, widened for the kernel: reused, so a
    /// warmed reactor allocates nothing here.
    values: Vec<f64>,
    mask: Vec<bool>,
}

impl Predictor {
    /// A predictor whose cache holds `cache_capacity` entries (`0`
    /// disables caching).
    pub fn new(cache_capacity: usize) -> Predictor {
        Predictor {
            cache: LruCache::new(cache_capacity),
            values: Vec::new(),
            mask: Vec::new(),
        }
    }

    /// Every row's probability, in request order, for a validated predict
    /// batch: look each row up under `entry`'s load id, run the kernel
    /// over the misses, cache every computed row, and record every row in
    /// the ledger. Records one `esp_serve_predict_compute_us` sample: the
    /// whole pass, lookups, kernel, inserts and ledger records.
    pub fn predict(
        &mut self,
        shared: &Shared,
        entry: &ModelEntry,
        rows: PredictRows<'_>,
    ) -> Vec<f64> {
        let start = Instant::now();
        let mut probs = Vec::with_capacity(rows.len());
        let mut misses = Vec::new();
        for (i, key) in rows.iter().enumerate() {
            let hash = word_hash(key);
            let prob = match self.cache.get_hashed(entry.id, hash, key) {
                Some(p) => {
                    shared.ledger.record_served_hashed(hash, key, p);
                    p
                }
                None => {
                    misses.push((i, key, hash));
                    0.0
                }
            };
            probs.push(prob);
        }
        let m = &shared.metrics;
        m.cache_hits.add((rows.len() - misses.len()) as u64);
        m.cache_misses.add(misses.len() as u64);
        if !misses.is_empty() {
            let _sp = esp_obs::span!("serve", "predict_misses", rows = misses.len());
            let dim = rows.dim();
            for chunk in misses.chunks(PREDICT_CHUNK) {
                self.values.clear();
                self.mask.clear();
                for &(_, key, _) in chunk {
                    widen_row(key, &mut self.values, &mut self.mask);
                }
                let computed = entry.model.predict_prob_encoded_batch(
                    self.values
                        .chunks_exact(dim)
                        .zip(self.mask.chunks_exact(dim)),
                );
                for (&(i, key, hash), prob) in chunk.iter().zip(computed) {
                    self.cache.insert_hashed(entry.id, hash, key, prob);
                    shared.ledger.record_served_hashed(hash, key, prob);
                    probs[i] = prob;
                }
            }
            m.cache_entries.set(self.cache.len() as f64);
        }
        m.record_predict_compute_us(start.elapsed().as_micros() as u64);
        probs
    }
}
