//! The reactor's PREDICT path: one LRU cache it owns outright, and
//! compute-only shard workers for the rows that miss.
//!
//! The event loop hashes every predict row once, with [`row_hash`]: the
//! [`esp_obs::word_hash`] of its `site_key` bytes (the bytes PROFILE joins
//! on), streamed from the decoded row without building them. That one
//! hash keys the cache map and indexes the accuracy ledger, and PROFILE
//! hashes its `site_key` with the same function. Only the reactor thread
//! touches the cache and writes served predictions to the ledger, so
//! neither needs coherence across threads, and the hit rate is that of one
//! cache of the configured capacity.
//!
//! A PREDICT whose rows all hit is answered in the reactor iteration that
//! decoded it.
//! Otherwise [`ShardPool::lookup`] builds one [`PredictJoin`] holding the
//! rows, the misses' indices and hashes, and one atomic slot per row, with
//! the hits already filled in. Each [`PREDICT_CHUNK`] of misses is one job,
//! sent to the workers round-robin. Each worker is one OS thread blocking
//! on an `mpsc` channel: it runs the batched kernel over its chunk, stores
//! each probability into its row's slot, and decrements the join's
//! counter; the worker that takes it to zero wakes the reactor. On that
//! wake-up the reactor finishes the join
//! ([`ShardPool::finish_completed`]): it caches and records the computed
//! rows, whether or not the request's connection is still open, and the
//! reply is encoded from the join's slots when it reaches the head of its
//! connection's queue. Row results land by index, so response order is
//! request order no matter how workers interleave — and because the
//! batched kernel is bitwise deterministic per row, neither the worker
//! count nor the chunking can change a served probability.
//!
//! The cache learns a computed row only when its join finishes: a PREDICT
//! that repeats rows still being computed for an earlier one misses on
//! them and computes them again. The values are bit-identical; only the
//! work is duplicated.
//!
//! The cache map is keyed by the owning [`ModelEntry`]'s table-unique
//! load id beside the row hash, and computed rows are cached under the
//! entry their request resolved, so a hot reload can never serve a stale
//! probability: the new entry's rows simply never match the old one's, and
//! the old entries age out of the LRU. The ledger records under the plain
//! site key, unchanged from the single-model wire contract.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use crate::cache::{cache_key_into, row_hash, LruCache};
use crate::models::ModelEntry;
use crate::protocol::PredictRow;
use crate::server::Shared;

/// Rows per batched-kernel call, and per shard job.
const PREDICT_CHUNK: usize = 32;

/// Join state for one in-flight predict request, shared by every job of
/// the request. Workers store their rows' probability bits *before*
/// decrementing `remaining` (release); the reactor treats
/// `remaining == 0` (acquire) as "all rows resolved".
pub(crate) struct PredictJoin {
    /// The model entry the request resolved.
    entry: Arc<ModelEntry>,
    rows: Vec<PredictRow>,
    /// Index and [`row_hash`] of each row that missed the cache, in
    /// request order.
    misses: Vec<(usize, u64)>,
    /// One probability per request row, as f64 bits, in request order.
    probs: Vec<AtomicU64>,
    /// Jobs still computing.
    remaining: AtomicUsize,
    /// The reactor's cache pass plus the kernel time every job adds, µs.
    compute_us: AtomicU64,
    /// Set by the reactor once it has cached and recorded the computed
    /// rows; only the reactor reads or writes it.
    finished: AtomicBool,
}

impl PredictJoin {
    /// True once every job has filled its rows.
    fn complete(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// True once the reactor has cached and recorded the computed rows
    /// ([`ShardPool::finish_completed`]): the reply may be encoded.
    pub fn finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }

    /// Every row's probability, in request order, of a finished join.
    pub fn probs(&self) -> Vec<f64> {
        // `finished` was set after the acquire load in `complete()` that
        // pairs with every job's release `fetch_sub`, so each worker's
        // stores are visible.
        debug_assert!(self.finished());
        self.probs
            .iter()
            .map(|bits| f64::from_bits(bits.load(Ordering::Relaxed)))
            .collect()
    }
}

/// What the cache pass made of a validated PREDICT.
pub(crate) enum Lookup {
    /// Every row hit (or there were none): the probabilities, in request
    /// order.
    Hit(Vec<f64>),
    /// Some rows missed; the workers fill this join.
    Pending(Arc<PredictJoin>),
}

/// One chunk of a request's misses: the `chunk`-th [`PREDICT_CHUNK`] of
/// `join.misses`.
struct ShardJob {
    join: Arc<PredictJoin>,
    chunk: usize,
}

/// The cache and the shard workers. Owned by the reactor thread: the
/// cache, the key buffer and the senders never cross threads, and the
/// reactor stops and joins the workers when it drains.
pub(crate) struct ShardPool {
    cache: LruCache,
    /// One reusable key buffer: hot-path lookups allocate nothing (see
    /// `LruCache::get_hashed`).
    key_buf: Vec<u8>,
    senders: Vec<mpsc::Sender<ShardJob>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// The worker the next job goes to.
    next: usize,
    /// Joins dispatched and not yet finished, in dispatch order.
    in_flight: Vec<Arc<PredictJoin>>,
}

impl ShardPool {
    /// Spawn `shards` compute workers beside a cache of `cache_capacity`
    /// entries (`0` disables caching).
    pub fn spawn(shared: &Arc<Shared>, shards: usize, cache_capacity: usize) -> ShardPool {
        let shards = shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for i in 0..shards {
            let (tx, rx) = mpsc::channel();
            let worker_shared = Arc::clone(shared);
            let handle = std::thread::Builder::new()
                .name(format!("esp-serve-shard-{i}"))
                .spawn(move || worker_loop(&worker_shared, &rx, i))
                .expect("spawn shard worker");
            senders.push(tx);
            handles.push(handle);
        }
        ShardPool {
            cache: LruCache::new(cache_capacity),
            key_buf: Vec::new(),
            senders,
            handles,
            next: 0,
            in_flight: Vec::new(),
        }
    }

    /// The cache pass over a validated predict batch: hash each row, look
    /// it up under `entry`'s load id and record every hit in the ledger.
    /// Dispatches the misses, if any, to the workers, one job per
    /// [`PREDICT_CHUNK`].
    pub fn lookup(
        &mut self,
        shared: &Shared,
        entry: &Arc<ModelEntry>,
        rows: Vec<PredictRow>,
    ) -> Lookup {
        let start = Instant::now();
        let n = rows.len();
        let mut probs = Vec::with_capacity(n);
        let mut misses = Vec::new();
        for (i, r) in rows.iter().enumerate() {
            let hash = row_hash(&r.row, &r.mask);
            cache_key_into(&mut self.key_buf, &r.row, &r.mask);
            let prob = match self.cache.get_hashed(entry.id, hash, &self.key_buf) {
                Some(p) => {
                    shared.ledger.record_served_hashed(hash, &self.key_buf, p);
                    p
                }
                None => {
                    misses.push((i, hash));
                    0.0
                }
            };
            probs.push(prob);
        }
        let m = &shared.metrics;
        m.cache_hits.add((n - misses.len()) as u64);
        m.cache_misses.add(misses.len() as u64);
        let cache_us = start.elapsed().as_micros() as u64;
        if misses.is_empty() {
            m.record_predict_compute_us(cache_us);
            return Lookup::Hit(probs);
        }

        // `remaining` counts every job before any is sent.
        let jobs = misses.len().div_ceil(PREDICT_CHUNK);
        let join = Arc::new(PredictJoin {
            entry: Arc::clone(entry),
            rows,
            misses,
            probs: probs
                .into_iter()
                .map(|p| AtomicU64::new(p.to_bits()))
                .collect(),
            remaining: AtomicUsize::new(jobs),
            compute_us: AtomicU64::new(cache_us),
            finished: AtomicBool::new(false),
        });
        for chunk in 0..jobs {
            let shard = self.next;
            self.next = (shard + 1) % self.senders.len();
            shared.queue_depths[shard].fetch_add(1, Ordering::Relaxed);
            let _ = self.senders[shard].send(ShardJob {
                join: Arc::clone(&join),
                chunk,
            });
        }
        self.in_flight.push(Arc::clone(&join));
        Lookup::Pending(join)
    }

    /// Finish every join whose jobs are all done: cache each computed row
    /// under the entry its request resolved, record it in the ledger, and
    /// record the request's compute time. Runs on every reactor iteration,
    /// so a join is finished even when its connection is gone, and always
    /// before its reply is encoded.
    pub fn finish_completed(&mut self, shared: &Shared) {
        let ShardPool {
            cache,
            key_buf,
            in_flight,
            ..
        } = self;
        in_flight.retain(|join| {
            if !join.complete() {
                return true;
            }
            for &(i, hash) in &join.misses {
                let r = &join.rows[i];
                let prob = f64::from_bits(join.probs[i].load(Ordering::Relaxed));
                cache_key_into(key_buf, &r.row, &r.mask);
                cache.insert_hashed(join.entry.id, hash, key_buf, prob);
                shared.ledger.record_served_hashed(hash, key_buf, prob);
            }
            let m = &shared.metrics;
            m.cache_entries.set(cache.len() as f64);
            m.record_predict_compute_us(join.compute_us.load(Ordering::Relaxed));
            join.finished.store(true, Ordering::Relaxed);
            false
        });
    }

    /// Tell every worker to drain and exit, join them, and finish the
    /// joins they completed. Jobs already queued are processed first (the
    /// hang-up is seen only after them), so nothing dispatched is
    /// abandoned.
    pub fn stop(mut self, shared: &Shared) {
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        self.finish_completed(shared);
    }
}

/// Compute jobs until the reactor drops its sender.
fn worker_loop(shared: &Shared, rx: &mpsc::Receiver<ShardJob>, shard: usize) {
    while let Ok(ShardJob { join, chunk }) = rx.recv() {
        compute(shard, &join, chunk);
        shared.queue_depths[shard].fetch_sub(1, Ordering::Relaxed);
        // Publish the rows, then release the job: the reactor's acquire
        // load of `remaining` makes them visible. The last job wakes the
        // reactor to finish the join.
        if join.remaining.fetch_sub(1, Ordering::Release) == 1 {
            shared.wake();
        }
    }
}

/// Run the batched kernel over one chunk of misses (shared normalization
/// buffers, no per-row allocation) and store each probability into its
/// row's slot. Per-row results are bitwise independent, so the chunking
/// cannot change a probability.
fn compute(shard: usize, join: &PredictJoin, chunk: usize) {
    let start = Instant::now();
    let misses = join
        .misses
        .chunks(PREDICT_CHUNK)
        .nth(chunk)
        .expect("a dispatched chunk");
    let mut sp = esp_obs::span!("serve", "predict_shard", rows = misses.len());
    let probs = join.entry.model.predict_prob_encoded_batch(
        misses
            .iter()
            .map(|&(i, _)| (&join.rows[i].row[..], &join.rows[i].mask[..])),
    );
    for (&(i, _), p) in misses.iter().zip(probs) {
        join.probs[i].store(p.to_bits(), Ordering::Relaxed);
    }
    if sp.is_enabled() {
        sp.arg("shard", shard);
    }
    let us = start.elapsed().as_micros() as u64;
    join.compute_us.fetch_add(us, Ordering::Relaxed);
}
