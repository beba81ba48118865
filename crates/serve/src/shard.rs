//! Shard workers: per-shard LRU caches and model compute behind channels.
//!
//! The event loop hashes every predict row once, with [`row_hash`]: the
//! [`esp_obs::word_hash`] of its `site_key` bytes (the bytes PROFILE joins
//! on), streamed from the decoded row without building them. That one
//! hash routes the row (`hash % shards`), keys the shard's cache map and
//! picks the accuracy ledger's slot, and PROFILE hashes its `site_key`
//! with the same function. A given feature vector therefore always lands
//! on the same shard, which is what lets each shard own its cache outright
//! — no mutex, no cross-shard coherence, and the aggregate hit rate
//! matches a single shared cache.
//!
//! Each worker is one OS thread blocking on an `mpsc` channel. The reactor
//! splits a predict batch into per-shard buckets, tags each row with its
//! original batch index and its hash, and hands every bucket of one
//! request the same [`PredictJoin`]; workers fill their slice of the join
//! and decrement its counter, and the worker that takes the counter to
//! zero wakes the reactor, which completes the response. Row results land
//! by index, so response order is request order no matter how shards
//! interleave — and because the batched kernel is bitwise deterministic
//! per row, the shard count can never change a served probability.
//!
//! The cache map is keyed by the owning [`ModelEntry`]'s table-unique
//! load id beside the row hash, so a hot reload can never serve a stale
//! probability: the new entry's rows simply never match the old one's,
//! and the old entries age out of the LRU. The ledger records under the
//! plain site key, unchanged from the single-model wire contract.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use crate::cache::{cache_key_into, row_hash, LruCache};
use crate::models::ModelEntry;
use crate::protocol::PredictRow;
use crate::server::Shared;

/// Rows per batched-kernel call when a shard computes its cache misses.
const PREDICT_CHUNK: usize = 32;

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
    /// original batch indices and their [`row_hash`]es.
    Predict {
        entry: Arc<ModelEntry>,
        rows: Vec<(usize, u64, PredictRow)>,
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
    /// the reactor polls. Rows are bucketed by their [`row_hash`], which
    /// rides along to the worker; an empty batch completes immediately.
    pub fn dispatch(&self, shared: &Shared, entry: &Arc<ModelEntry>, rows: Vec<PredictRow>) -> Arc<PredictJoin> {
        let nshards = self.senders.len() as u64;
        let mut buckets: Vec<Vec<(usize, u64, PredictRow)>> =
            (0..self.senders.len()).map(|_| Vec::new()).collect();
        let n = rows.len();
        for (i, r) in rows.into_iter().enumerate() {
            let hash = row_hash(&r.row, &r.mask);
            buckets[(hash % nshards) as usize].push((i, hash, r));
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
    rows: &[(usize, u64, PredictRow)],
    join: &PredictJoin,
) {
    let start = Instant::now();
    let mut sp = esp_obs::span!("serve", "predict_shard", rows = rows.len());
    let ledger_on = shared.ledger.enabled();
    let mut out: Vec<(usize, f64)> = Vec::with_capacity(rows.len());
    // Bucket index of each cache miss.
    let mut miss: Vec<usize> = Vec::new();
    for (bi, (orig, hash, r)) in rows.iter().enumerate() {
        cache_key_into(key_buf, &r.row, &r.mask);
        match cache.get_hashed(entry.id, *hash, key_buf) {
            Some(p) => {
                if ledger_on {
                    shared.ledger.record_served_hashed(*hash, key_buf, p);
                }
                out.push((*orig, p));
            }
            None => miss.push(bi),
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
            chunk.iter().map(|&bi| (&rows[bi].2.row[..], &rows[bi].2.mask[..])),
        ));
    }
    for (&bi, &p) in miss.iter().zip(&computed) {
        let (orig, hash, r) = &rows[bi];
        cache_key_into(key_buf, &r.row, &r.mask);
        cache.insert_hashed(entry.id, *hash, key_buf, p);
        if ledger_on {
            shared.ledger.record_served_hashed(*hash, key_buf, p);
        }
        out.push((*orig, p));
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
    // load of `remaining` makes the filled rows visible. The last bucket
    // wakes the reactor to send the reply.
    {
        let mut probs = join.probs.lock().expect("join lock");
        for (idx, p) in out {
            probs[idx] = p;
        }
    }
    join.hits.fetch_add(hits, Ordering::Relaxed);
    if join.remaining.fetch_sub(1, Ordering::Release) == 1 {
        shared.wake();
    }
}
