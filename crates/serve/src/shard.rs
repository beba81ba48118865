//! Shard workers: per-shard LRU caches and model compute behind channels.
//!
//! The event loop routes every predict row to a shard by a stable FNV-1a
//! hash of its cache-key bytes (the same `site_key` bytes PROFILE joins
//! on), following the accuracy ledger's 16-way sharding pattern. A given
//! feature vector therefore always lands on the same shard, which is what
//! lets each shard own its cache outright — no mutex, no cross-shard
//! coherence, and the aggregate hit rate matches a single shared cache.
//!
//! Each worker is one OS thread blocking on an `mpsc` channel. The reactor
//! splits a predict batch into per-shard buckets, tags each row with its
//! original batch index, and hands every bucket of one request the same
//! [`PredictJoin`]; workers fill their slice of the join and decrement its
//! counter, and the reactor completes the response when the counter hits
//! zero. Row results land by index, so response order is request order no
//! matter how shards interleave — and because the batched kernel is
//! bitwise deterministic per row, the shard count can never change a
//! served probability.
//!
//! Cache keys are prefixed with the owning [`ModelEntry`]'s table-unique
//! load id, so a hot reload can never serve a stale probability: the new
//! entry's keys simply never collide with the old one's, and the old
//! entries age out of the LRU. The accuracy ledger keeps joining on the
//! *unprefixed* site key (`key[SHARD_KEY_PREFIX..]`), unchanged from the
//! single-model wire contract.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use esp_obs::Fnv1a;

use crate::cache::LruCache;
use crate::models::ModelEntry;
use crate::protocol::PredictRow;
use crate::server::Shared;

/// Bytes of model-id prefix on every shard cache key.
pub(crate) const SHARD_KEY_PREFIX: usize = 8;

/// Rows per batched-kernel call when a shard computes its cache misses.
const PREDICT_CHUNK: usize = 32;

/// FNV-1a over the row's cache-key bytes (raw IEEE-754 bits then mask
/// bytes), streamed without materializing the key. Hashing exactly the
/// `cache_key` byte sequence is the routing invariant: equal cache keys
/// hash equally, so a feature vector always reaches the shard that may
/// hold its cached probability.
pub(crate) fn route_hash(row: &[f64], mask: &[bool]) -> u64 {
    let mut h = Fnv1a::default();
    for &x in row {
        h.write(&x.to_bits().to_le_bytes());
    }
    for &m in mask {
        h.write(&[m as u8]);
    }
    h.finish()
}

/// Write a shard cache key into a caller-owned buffer: the model entry's
/// load id (little-endian) followed by the row's plain cache-key bytes.
/// The suffix `&buf[SHARD_KEY_PREFIX..]` is exactly `cache_key(row, mask)`
/// — the ledger site key.
pub(crate) fn shard_key_into(buf: &mut Vec<u8>, model_id: u64, row: &[f64], mask: &[bool]) {
    buf.clear();
    buf.reserve(SHARD_KEY_PREFIX + row.len() * 8 + mask.len());
    buf.extend_from_slice(&model_id.to_le_bytes());
    for &x in row {
        buf.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    for &m in mask {
        buf.push(m as u8);
    }
}

/// Per-shard health counters, read by `/healthz` and the metrics
/// exposition (all relaxed: monitoring, not synchronization).
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    /// Jobs dispatched but not yet finished by this shard.
    pub queue_depth: AtomicU64,
    /// Rows this shard answered from its cache.
    pub hits: AtomicU64,
    /// Rows this shard computed.
    pub misses: AtomicU64,
    /// Entries currently in this shard's cache.
    pub entries: AtomicU64,
}

/// Join state for one in-flight predict request, shared by every shard
/// bucket of the request. Workers fill `probs` by original batch index
/// *before* decrementing `remaining` (release); the reactor treats
/// `remaining == 0` (acquire) as "all rows resolved".
pub(crate) struct PredictJoin {
    /// One probability per request row, in request order.
    pub probs: Mutex<Vec<f64>>,
    /// Shard buckets still working.
    pub remaining: AtomicUsize,
    /// Cache hits across all buckets (for the request's metrics/span).
    pub hits: AtomicU64,
}

impl PredictJoin {
    fn new(rows: usize, buckets: usize) -> Self {
        PredictJoin {
            probs: Mutex::new(vec![0.0; rows]),
            remaining: AtomicUsize::new(buckets),
            hits: AtomicU64::new(0),
        }
    }

    /// True once every shard bucket has filled its rows.
    pub fn complete(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }
}

/// Work sent to one shard worker.
enum ShardJob {
    /// One request's bucket of rows for this shard, tagged with their
    /// original batch indices.
    Predict {
        entry: Arc<ModelEntry>,
        rows: Vec<(usize, PredictRow)>,
        join: Arc<PredictJoin>,
    },
    /// Drain and exit (sent once per worker at shutdown).
    Stop,
}

/// The shard workers. Owned by the reactor thread: senders never cross
/// threads, and the reactor stops and joins the workers when it drains.
pub(crate) struct ShardPool {
    senders: Vec<mpsc::Sender<ShardJob>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ShardPool {
    /// Spawn `shards` workers. Each owns an LRU cache of
    /// `cache_capacity / shards` entries (rounded up; `0` disables
    /// caching), so the configured capacity bounds the aggregate.
    pub fn spawn(shared: &Arc<Shared>, shards: usize, cache_capacity: usize) -> ShardPool {
        let shards = shards.max(1);
        let per_shard = if cache_capacity == 0 {
            0
        } else {
            cache_capacity.div_ceil(shards)
        };
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = mpsc::channel();
            let worker_shared = Arc::clone(shared);
            let stats = Arc::clone(&shared.shard_stats[i]);
            let handle = std::thread::Builder::new()
                .name(format!("esp-serve-shard-{i}"))
                .spawn(move || worker_loop(worker_shared, rx, stats, LruCache::new(per_shard), i))
                .expect("spawn shard worker");
            senders.push(tx);
            handles.push(handle);
        }
        ShardPool { senders, handles }
    }

    /// Route a validated predict batch to its shards and return the join
    /// the reactor polls. Rows are bucketed by [`route_hash`] of their
    /// cache-key bytes; an empty batch completes immediately.
    pub fn dispatch(&self, shared: &Shared, entry: &Arc<ModelEntry>, rows: Vec<PredictRow>) -> Arc<PredictJoin> {
        let nshards = self.senders.len() as u64;
        let mut buckets: Vec<Vec<(usize, PredictRow)>> =
            (0..self.senders.len()).map(|_| Vec::new()).collect();
        let n = rows.len();
        for (i, r) in rows.into_iter().enumerate() {
            let s = (route_hash(&r.row, &r.mask) % nshards) as usize;
            buckets[s].push((i, r));
        }
        let jobs = buckets.iter().filter(|b| !b.is_empty()).count();
        let join = Arc::new(PredictJoin::new(n, jobs));
        for (s, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            shared.shard_stats[s].queue_depth.fetch_add(1, Ordering::Relaxed);
            let _ = self.senders[s].send(ShardJob::Predict {
                entry: Arc::clone(entry),
                rows: bucket,
                join: Arc::clone(&join),
            });
        }
        join
    }

    /// Tell every worker to drain and exit, then join them. Jobs already
    /// queued are processed first (`Stop` sits behind them in the channel),
    /// so pending requests complete before the pool dies.
    pub fn stop(mut self) {
        for tx in &self.senders {
            let _ = tx.send(ShardJob::Stop);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    shared: Arc<Shared>,
    rx: mpsc::Receiver<ShardJob>,
    stats: Arc<ShardStats>,
    mut cache: LruCache,
    shard_index: usize,
) {
    // One reusable key buffer per worker: hot-path lookups allocate
    // nothing (see `LruCache::get`).
    let mut key_buf: Vec<u8> = Vec::new();
    while let Ok(job) = rx.recv() {
        match job {
            ShardJob::Stop => break,
            ShardJob::Predict { entry, rows, join } => {
                process(&shared, &stats, &mut cache, &mut key_buf, shard_index, &entry, &rows, &join);
                stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }
}

/// Resolve one shard bucket: cache lookups, batched compute for the
/// misses, ledger attribution for every row, then fill the join.
#[allow(clippy::too_many_arguments)]
fn process(
    shared: &Shared,
    stats: &ShardStats,
    cache: &mut LruCache,
    key_buf: &mut Vec<u8>,
    shard_index: usize,
    entry: &ModelEntry,
    rows: &[(usize, PredictRow)],
    join: &PredictJoin,
) {
    let start = Instant::now();
    let mut sp = esp_obs::span!("serve", "predict_shard", rows = rows.len());
    let ledger_on = shared.ledger.enabled();
    let mut out: Vec<(usize, f64)> = Vec::with_capacity(rows.len());
    // (bucket index, owned shard key) for each cache miss.
    let mut miss: Vec<(usize, Vec<u8>)> = Vec::new();
    for (bi, (orig, r)) in rows.iter().enumerate() {
        shard_key_into(key_buf, entry.id, &r.row, &r.mask);
        match cache.get(key_buf) {
            Some(p) => {
                if ledger_on {
                    shared.ledger.record_served(&key_buf[SHARD_KEY_PREFIX..], p);
                }
                out.push((*orig, p));
            }
            None => miss.push((bi, key_buf.clone())),
        }
    }
    let hits = (rows.len() - miss.len()) as u64;

    // Compute the misses with the batched kernel (shared normalization
    // buffers, no per-row allocation), `PREDICT_CHUNK` rows at a time.
    // Per-row results are bitwise independent, so neither the chunking
    // nor the shard count can change a probability.
    let mut computed: Vec<f64> = Vec::with_capacity(miss.len());
    for chunk in miss.chunks(PREDICT_CHUNK) {
        computed.extend(entry.model.predict_prob_encoded_batch(
            chunk.iter().map(|(bi, _)| (&rows[*bi].1.row[..], &rows[*bi].1.mask[..])),
        ));
    }
    for ((bi, key), &p) in miss.iter().zip(&computed) {
        cache.insert(key, p);
        if ledger_on {
            shared.ledger.record_served(&key[SHARD_KEY_PREFIX..], p);
        }
        out.push((rows[*bi].0, p));
    }

    stats.hits.fetch_add(hits, Ordering::Relaxed);
    stats.misses.fetch_add(miss.len() as u64, Ordering::Relaxed);
    stats.entries.store(cache.len() as u64, Ordering::Relaxed);
    let m = &shared.metrics;
    m.cache_hits.add(hits);
    m.cache_misses.add(miss.len() as u64);
    m.record_predict_compute_us(start.elapsed().as_micros() as u64);
    if sp.is_enabled() {
        sp.arg("shard", shard_index);
        sp.arg("hits", hits);
        sp.arg("misses", miss.len());
    }

    // Publish results, then release the bucket: the reactor's acquire
    // load of `remaining` makes the filled rows visible.
    {
        let mut probs = join.probs.lock().expect("join lock");
        for (idx, p) in out {
            probs[idx] = p;
        }
    }
    join.hits.fetch_add(hits, Ordering::Relaxed);
    join.remaining.fetch_sub(1, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::cache_key;

    #[test]
    fn route_hash_matches_the_cache_key_bytes() {
        // The routing invariant: hashing the row directly must equal
        // FNV-1a over the materialized cache key.
        let row = [1.5, -0.25, f64::NAN];
        let mask = [true, false, true];
        let key = cache_key(&row, &mask);
        assert_eq!(route_hash(&row, &mask), esp_obs::fnv1a(&key));
    }

    #[test]
    fn shard_key_suffix_is_the_ledger_site_key() {
        let row = [0.5, 2.0];
        let mask = [true, true];
        let mut buf = Vec::new();
        shard_key_into(&mut buf, 0x0102_0304_0506_0708, &row, &mask);
        assert_eq!(&buf[..SHARD_KEY_PREFIX], &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(&buf[SHARD_KEY_PREFIX..], &cache_key(&row, &mask)[..]);
        // Distinct model ids never alias, same id round-trips.
        let mut other = Vec::new();
        shard_key_into(&mut other, 0x0102_0304_0506_0709, &row, &mask);
        assert_ne!(buf, other);
    }
}
