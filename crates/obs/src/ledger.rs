//! Per-site accuracy ledger: the production side of the paper's Table-4
//! miss accounting.
//!
//! The server records every prediction it serves under a canonical *site
//! key* (the same raw-bit row+mask encoding the serve cache uses), and
//! clients stream observed branch outcomes back via the `PROFILE` opcode.
//! Joining the two per key yields live miss-rate-vs-observed gauges, a
//! 10-bucket calibration histogram (ECE-style, comparable to Table-4
//! terms), and the `/sitez` top-K hot-site table.
//!
//! # Miss accounting
//!
//! A site's served prediction is `taken` iff its last served probability is
//! strictly above 0.5 (the `> 0.5` threshold used everywhere in
//! `esp_eval`). Each observed
//! outcome `(taken, weight)` contributes `weight` to the site's observed
//! mass and, when the outcome disagrees with the served direction, to its
//! mispredict mass. `observed_miss_rate = Σ mispredict / Σ observed` —
//! exactly the paper's dynamic weighting, so feeding a fold's ground-truth
//! counts back through PROFILE reproduces the in-process Table-4 miss rate
//! bit-for-bit in the ledger.
//!
//! # Calibration
//!
//! Sites land in confidence bucket `floor(p_taken · 10)` (clamped to 9).
//! For each bucket we track observed-weighted mean confidence and observed
//! taken-rate; the expected calibration error is the observed-mass-weighted
//! mean of `|taken_rate − confidence|` across buckets.
//!
//! # Determinism
//!
//! The map is split into 16 slices by the key's row hash
//! ([`crate::word_hash`], the hash the server's reactor computes once per
//! row and hands to [`Ledger::record_served_hashed`]). Each slice maps
//! that hash to its site, so a lookup hashes 8 bytes and compares the key
//! once, and a new site copies its key once. Every rendered view
//! (exposition text, `/sitez` JSON) walks the union of all slices sorted
//! by row hash — the output is byte-identical regardless of which thread
//! interleaving the updates arrived through.
//!
//! # Collisions
//!
//! A slice holds one site per row hash. A different key under a hash the
//! ledger already holds is not recorded: a served prediction counts in
//! `esp_ledger_collisions_total`, an outcome answers
//! [`OutcomeRecord::Unmatched`]. Colliding keys are not chained:
//! `word_hash` is unkeyed and invertible word by word, so a client could
//! craft any number of keys with one hash, and a chain would make every
//! lookup linear in them.
//!
//! # Zero cost when disabled
//!
//! A disabled ledger's `record_*` methods are one branch on a plain
//! `bool`: no hashing, no locking, no allocation (pinned by the
//! counted-allocator test in `tests/alloc_free.rs`, like tracing).

use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{fnv1a, word_hash};

/// Number of confidence buckets in the calibration histogram.
pub const CALIBRATION_BUCKETS: usize = 10;

/// Slices the ledger splits its sites across, each behind its own lock.
const SLICES: usize = 16;

/// Per-site ledger entry: what was served and what was observed.
#[derive(Debug, Clone, Default)]
pub struct SiteEntry {
    /// Predictions served for this site (cache hits included).
    pub served: u64,
    /// Last served taken-probability. The model is immutable for the life
    /// of a server, so this is stable per site.
    pub prob: f64,
    /// Observed outcome mass (Σ weight over PROFILE records).
    pub observed_weight: f64,
    /// Observed taken mass (Σ weight where the branch was taken).
    pub taken_weight: f64,
    /// Observed mass where the outcome disagreed with the served direction.
    pub mispredict_weight: f64,
}

impl SiteEntry {
    /// The served direction under the `> 0.5` decision rule (the same
    /// strict threshold `esp_eval::table4` and the serve `Prediction` use).
    pub fn predicted_taken(&self) -> bool {
        self.prob > 0.5
    }

    /// This site's observed miss rate (0 when nothing observed).
    pub fn miss_rate(&self) -> f64 {
        if self.observed_weight > 0.0 {
            self.mispredict_weight / self.observed_weight
        } else {
            0.0
        }
    }
}

/// One row of the aggregate calibration histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CalibrationBucket {
    /// Observed mass landing in this confidence bucket.
    pub weight: f64,
    /// Observed-mass-weighted mean served taken-probability.
    pub mean_confidence: f64,
    /// Observed taken-rate of the bucket.
    pub taken_rate: f64,
}

/// Aggregate view of the ledger at render time.
#[derive(Debug, Clone)]
pub struct LedgerSummary {
    /// Distinct sites with at least one served prediction or outcome.
    pub sites: u64,
    /// Total served predictions.
    pub served: u64,
    /// PROFILE records applied to a known site.
    pub applied: u64,
    /// PROFILE records whose key matched no served site.
    pub unmatched: u64,
    /// Served predictions not recorded because another key holds their
    /// row hash.
    pub collisions: u64,
    /// Total observed outcome mass.
    pub observed_weight: f64,
    /// Total mispredicted mass.
    pub mispredict_weight: f64,
    /// `mispredict_weight / observed_weight` (0 when nothing observed).
    pub observed_miss_rate: f64,
    /// Expected calibration error over the 10 confidence buckets.
    pub calibration_ece: f64,
    /// The 10 calibration buckets (`floor(p·10)` clamped to 9).
    pub buckets: [CalibrationBucket; CALIBRATION_BUCKETS],
}

/// What happened to one observed outcome handed to
/// [`Ledger::record_outcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeRecord {
    /// The key matched a served site; `mispredicted` says whether the
    /// observed direction disagreed with the served one.
    Applied {
        /// Observed direction ≠ served direction.
        mispredicted: bool,
    },
    /// The key matched no served site; counted but unattributable.
    Unmatched,
    /// The ledger is disabled; nothing was recorded.
    Disabled,
}

impl OutcomeRecord {
    /// Did the outcome join a served site?
    pub fn applied(&self) -> bool {
        matches!(self, OutcomeRecord::Applied { .. })
    }
}

/// One recorded site: its key (copied once, when the site is first
/// served) and its accounting.
#[derive(Debug)]
struct Site {
    key: Box<[u8]>,
    entry: SiteEntry,
}

/// One of the ledger's slices: sites by row hash.
type Slice = HashMap<u64, Site>;

/// Sliced, deterministic per-site accuracy ledger.
#[derive(Debug)]
pub struct Ledger {
    enabled: bool,
    applied: AtomicU64,
    unmatched: AtomicU64,
    collisions: AtomicU64,
    slices: Vec<Mutex<Slice>>,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger::new(true)
    }
}

impl Ledger {
    /// A ledger, enabled or disabled for its whole life.
    pub fn new(enabled: bool) -> Self {
        Ledger {
            enabled,
            applied: AtomicU64::new(0),
            unmatched: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            slices: (0..SLICES).map(|_| Mutex::default()).collect(),
        }
    }

    /// Is the ledger recording?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn slice(&self, hash: u64) -> std::sync::MutexGuard<'_, Slice> {
        self.slices[(hash % SLICES as u64) as usize]
            .lock()
            .expect("ledger slice poisoned")
    }

    /// Record a served prediction: `prob` is the model's taken-probability
    /// for the site identified by `key`. No-op (one branch) when disabled.
    #[inline]
    pub fn record_served(&self, key: &[u8], prob: f64) {
        if self.enabled {
            self.record_served_hashed(word_hash(key), key, prob);
        }
    }

    /// [`Ledger::record_served`] for a caller that already holds
    /// `word_hash(key)`. A site the ledger already holds copies nothing; a
    /// key colliding with another site's hash is only counted.
    pub fn record_served_hashed(&self, hash: u64, key: &[u8], prob: f64) {
        if !self.enabled {
            return;
        }
        match self.slice(hash).entry(hash) {
            Entry::Occupied(mut held) => {
                let site = held.get_mut();
                if *site.key == *key {
                    site.entry.served += 1;
                    site.entry.prob = prob;
                } else {
                    self.collisions.fetch_add(1, Ordering::Relaxed);
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(Site {
                    key: key.into(),
                    entry: SiteEntry {
                        served: 1,
                        prob,
                        ..SiteEntry::default()
                    },
                });
            }
        }
    }

    /// Record an observed outcome for `key`. Says whether the outcome
    /// joined a served site (and if so, whether it was a mispredict) so
    /// callers can maintain windowed mispredict-rate series without a
    /// second ledger lookup. No-op (one branch) when disabled.
    #[inline]
    pub fn record_outcome(&self, key: &[u8], taken: bool, weight: f64) -> OutcomeRecord {
        if !self.enabled {
            return OutcomeRecord::Disabled;
        }
        let hash = word_hash(key);
        match self.slice(hash).get_mut(&hash) {
            Some(Site { key: held, entry }) if **held == *key => {
                let mispredicted = taken != entry.predicted_taken();
                entry.observed_weight += weight;
                if taken {
                    entry.taken_weight += weight;
                }
                if mispredicted {
                    entry.mispredict_weight += weight;
                }
                self.applied.fetch_add(1, Ordering::Relaxed);
                OutcomeRecord::Applied { mispredicted }
            }
            _ => {
                self.unmatched.fetch_add(1, Ordering::Relaxed);
                OutcomeRecord::Unmatched
            }
        }
    }

    /// Every site's `(row hash, entry)`, sorted by hash — the
    /// deterministic spine all rendered views are built on. Hashes are
    /// unique across the ledger: a slice holds one site per hash, and the
    /// hash picks the slice.
    fn sorted_entries(&self) -> Vec<(u64, SiteEntry)> {
        let mut all: Vec<(u64, SiteEntry)> = Vec::new();
        for slice in &self.slices {
            let slice = slice.lock().expect("ledger slice poisoned");
            all.extend(slice.iter().map(|(&hash, site)| (hash, site.entry.clone())));
        }
        all.sort_unstable_by_key(|&(hash, _)| hash);
        all
    }

    /// Aggregate the ledger: totals, observed miss rate, calibration.
    pub fn summary(&self) -> LedgerSummary {
        let entries = self.sorted_entries();
        let mut served = 0u64;
        let mut observed = 0.0f64;
        let mut mispredict = 0.0f64;
        let mut bw = [0.0f64; CALIBRATION_BUCKETS];
        let mut bconf = [0.0f64; CALIBRATION_BUCKETS];
        let mut btaken = [0.0f64; CALIBRATION_BUCKETS];
        for (_, e) in &entries {
            served += e.served;
            observed += e.observed_weight;
            mispredict += e.mispredict_weight;
            if e.observed_weight > 0.0 {
                let b =
                    ((e.prob * CALIBRATION_BUCKETS as f64) as usize).min(CALIBRATION_BUCKETS - 1);
                bw[b] += e.observed_weight;
                bconf[b] += e.prob * e.observed_weight;
                btaken[b] += e.taken_weight;
            }
        }
        let mut buckets = [CalibrationBucket::default(); CALIBRATION_BUCKETS];
        let mut ece = 0.0f64;
        for (i, bucket) in buckets.iter_mut().enumerate() {
            if bw[i] > 0.0 {
                bucket.weight = bw[i];
                bucket.mean_confidence = bconf[i] / bw[i];
                bucket.taken_rate = btaken[i] / bw[i];
                if observed > 0.0 {
                    ece += (bw[i] / observed) * (bucket.taken_rate - bucket.mean_confidence).abs();
                }
            }
        }
        LedgerSummary {
            sites: entries.len() as u64,
            served,
            applied: self.applied.load(Ordering::Relaxed),
            unmatched: self.unmatched.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
            observed_weight: observed,
            mispredict_weight: mispredict,
            observed_miss_rate: if observed > 0.0 {
                mispredict / observed
            } else {
                0.0
            },
            calibration_ece: ece,
            buckets,
        }
    }

    /// The `k` hottest sites by observed mass (ties broken by row hash, so
    /// the table is deterministic), each with its display id: the FNV-1a
    /// of its key, computed only for the sites returned.
    fn top_sites(&self, k: usize) -> Vec<(u64, SiteEntry)> {
        let mut entries = self.sorted_entries();
        entries.sort_by(|a, b| {
            b.1.observed_weight
                .partial_cmp(&a.1.observed_weight)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.1.served.cmp(&a.1.served))
                .then_with(|| a.0.cmp(&b.0))
        });
        entries.truncate(k);
        for (hash, _) in &mut entries {
            *hash = fnv1a(&self.slice(*hash)[hash].key);
        }
        entries
    }

    /// Prometheus text exposition of the ledger aggregates, rendered in the
    /// same `# TYPE` grammar as [`crate::MetricsRegistry::render_text`].
    /// Byte-identical for identical update streams regardless of thread
    /// interleaving.
    pub fn render_text(&self) -> String {
        let s = self.summary();
        let mut out = String::new();
        let counter = |out: &mut String, name: &str, v: u64| {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        };
        counter(&mut out, "esp_ledger_profile_records_total", s.applied);
        counter(&mut out, "esp_ledger_profile_unmatched_total", s.unmatched);
        counter(&mut out, "esp_ledger_collisions_total", s.collisions);
        counter(&mut out, "esp_ledger_served_total", s.served);
        counter(&mut out, "esp_ledger_sites", s.sites);
        let gauge = |out: &mut String, name: &str, v: f64| {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        };
        gauge(&mut out, "esp_ledger_calibration_ece", s.calibration_ece);
        gauge(
            &mut out,
            "esp_ledger_mispredict_weight",
            s.mispredict_weight,
        );
        gauge(
            &mut out,
            "esp_ledger_observed_miss_rate",
            s.observed_miss_rate,
        );
        gauge(&mut out, "esp_ledger_observed_weight", s.observed_weight);
        let _ = writeln!(out, "# TYPE esp_ledger_calibration_weight gauge");
        for (i, b) in s.buckets.iter().enumerate() {
            let _ = writeln!(
                out,
                "esp_ledger_calibration_weight{{bucket=\"{i}\"}} {}",
                b.weight
            );
        }
        let _ = writeln!(out, "# TYPE esp_ledger_calibration_confidence gauge");
        for (i, b) in s.buckets.iter().enumerate() {
            let _ = writeln!(
                out,
                "esp_ledger_calibration_confidence{{bucket=\"{i}\"}} {}",
                b.mean_confidence
            );
        }
        let _ = writeln!(out, "# TYPE esp_ledger_calibration_taken_rate gauge");
        for (i, b) in s.buckets.iter().enumerate() {
            let _ = writeln!(
                out,
                "esp_ledger_calibration_taken_rate{{bucket=\"{i}\"}} {}",
                b.taken_rate
            );
        }
        out
    }

    /// The `/sitez` JSON document: top-`k` hot sites plus the summary.
    pub fn sitez_json(&self, k: usize) -> String {
        let s = self.summary();
        let sites = self.top_sites(k);
        let mut out = String::from("{\n  \"sites\": [\n");
        for (i, (id, site)) in sites.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"site\": \"{:016x}\", \"prob\": {}, \"served\": {}, \
                 \"observed_weight\": {}, \"taken_weight\": {}, \
                 \"mispredict_weight\": {}, \"miss_rate\": {}}}",
                id,
                json_f64(site.prob),
                site.served,
                json_f64(site.observed_weight),
                json_f64(site.taken_weight),
                json_f64(site.mispredict_weight),
                json_f64(site.miss_rate()),
            );
            out.push_str(if i + 1 < sites.len() { ",\n" } else { "\n" });
        }
        let _ = write!(
            out,
            "  ],\n  \"summary\": {{\"sites\": {}, \"served\": {}, \
             \"profile_records\": {}, \"profile_unmatched\": {}, \
             \"observed_weight\": {}, \"observed_miss_rate\": {}, \
             \"calibration_ece\": {}}}\n}}\n",
            s.sites,
            s.served,
            s.applied,
            s.unmatched,
            json_f64(s.observed_weight),
            json_f64(s.observed_miss_rate),
            json_f64(s.calibration_ece),
        );
        out
    }
}

/// Render an f64 as a JSON number (never `NaN`/`inf`, which JSON forbids).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> Vec<u8> {
        i.to_le_bytes().to_vec()
    }

    #[test]
    fn miss_rate_matches_hand_accounting() {
        let l = Ledger::new(true);
        // Site A: predicted taken (p=0.9), observed 80 taken / 20 not.
        l.record_served(&key(1), 0.9);
        assert!(l.record_outcome(&key(1), true, 80.0).applied());
        assert!(l.record_outcome(&key(1), false, 20.0).applied());
        // Site B: predicted not-taken (p=0.2), observed 10 taken / 90 not.
        l.record_served(&key(2), 0.2);
        assert!(l.record_outcome(&key(2), true, 10.0).applied());
        assert!(l.record_outcome(&key(2), false, 90.0).applied());
        let s = l.summary();
        assert_eq!(s.sites, 2);
        assert_eq!(s.served, 2);
        assert_eq!(s.applied, 4);
        assert_eq!(s.unmatched, 0);
        // Misses: A contributes 20 (not-taken under a taken prediction),
        // B contributes 10. 30 / 200 total.
        assert!((s.observed_miss_rate - 0.15).abs() < 1e-12);
        assert!((s.mispredict_weight - 30.0).abs() < 1e-12);
    }

    #[test]
    fn hashed_serves_and_outcomes_share_a_slot() {
        // The server records under the row hash it routed by; PROFILE
        // hashes the key itself. Both must land on the same slot.
        let l = Ledger::new(true);
        for i in 0..64 {
            l.record_served_hashed(word_hash(&key(i)), &key(i), 0.9);
        }
        for i in 0..64 {
            assert!(l.record_outcome(&key(i), true, 1.0).applied(), "site {i}");
        }
        l.record_served(&key(0), 0.9);
        let s = l.summary();
        assert_eq!((s.sites, s.served, s.applied, s.unmatched), (64, 65, 64, 0));
    }

    #[test]
    fn unmatched_outcomes_are_counted_not_attributed() {
        let l = Ledger::new(true);
        assert_eq!(
            l.record_outcome(&key(9), true, 5.0),
            OutcomeRecord::Unmatched
        );
        let s = l.summary();
        assert_eq!(s.unmatched, 1);
        assert_eq!(s.applied, 0);
        assert_eq!(s.sites, 0);
        assert_eq!(s.observed_weight, 0.0);
    }

    #[test]
    fn calibration_ece_is_zero_for_a_perfectly_calibrated_site() {
        let l = Ledger::new(true);
        // p=0.75, observed taken-rate exactly 0.75.
        l.record_served(&key(3), 0.75);
        l.record_outcome(&key(3), true, 75.0);
        l.record_outcome(&key(3), false, 25.0);
        let s = l.summary();
        assert!(
            s.calibration_ece.abs() < 1e-12,
            "ece = {}",
            s.calibration_ece
        );
        let b = &s.buckets[7]; // floor(0.75·10) = 7
        assert!((b.weight - 100.0).abs() < 1e-12);
        assert!((b.mean_confidence - 0.75).abs() < 1e-12);
        assert!((b.taken_rate - 0.75).abs() < 1e-12);
    }

    #[test]
    fn prob_one_lands_in_the_top_bucket() {
        let l = Ledger::new(true);
        l.record_served(&key(4), 1.0);
        l.record_outcome(&key(4), true, 1.0);
        let s = l.summary();
        assert!(s.buckets[9].weight > 0.0);
    }

    #[test]
    fn disabled_ledger_records_nothing() {
        let l = Ledger::new(false);
        l.record_served(&key(1), 0.9);
        assert_eq!(
            l.record_outcome(&key(1), true, 1.0),
            OutcomeRecord::Disabled
        );
        let s = l.summary();
        assert_eq!(s.sites, 0);
        assert_eq!(s.applied, 0);
        assert_eq!(s.unmatched, 0);
    }

    #[test]
    fn exposition_is_deterministic_across_interleavings() {
        // Same updates, opposite orders (and therefore different slice
        // touch orders) → identical bytes. Sites 64.. share one observed
        // mass and one served count, so /sitez ranks them by row hash alone.
        let build = |order: &[usize]| {
            let l = Ledger::new(true);
            let updates: Vec<(Vec<u8>, f64, f64, f64)> = (0..96u32)
                .map(|i| {
                    let (tw, nw) = if i < 64 {
                        ((i * 3 % 17) as f64, (i * 5 % 13) as f64)
                    } else {
                        (40.0, 60.0)
                    };
                    (key(i), (i % 10) as f64 / 10.0 + 0.05, tw, nw)
                })
                .collect();
            for &i in order {
                let (k, p, _, _) = &updates[i];
                l.record_served(k, *p);
            }
            for &i in order {
                let (k, _, tw, nw) = &updates[i];
                l.record_outcome(k, true, *tw);
                l.record_outcome(k, false, *nw);
            }
            (l.render_text(), l.sitez_json(20))
        };
        let fwd: Vec<usize> = (0..96).collect();
        let rev: Vec<usize> = (0..96).rev().collect();
        let (text, sitez) = build(&fwd);
        assert_eq!((text, sitez.clone()), build(&rev));
        assert_eq!(sitez.matches("\"observed_weight\": 100,").count(), 20);
    }

    /// A key of `words` little-endian words whose [`word_hash`] equals
    /// that of `base` (same length): its first word is `base`'s with
    /// `salt` xored in, and its second cancels the difference that made
    /// in the hash state, so the states agree from the second word on.
    fn colliding_key(base: &[u8], salt: u64) -> Vec<u8> {
        let word = |i: usize| u64::from_le_bytes(base[8 * i..8 * i + 8].try_into().unwrap());
        let state = |w: u64| {
            let mut h = crate::WordHash::default();
            h.word(w);
            h.0
        };
        let w0 = word(0) ^ salt;
        let w1 = word(1) ^ state(word(0)) ^ state(w0);
        let mut k = base.to_vec();
        k[..8].copy_from_slice(&w0.to_le_bytes());
        k[8..16].copy_from_slice(&w1.to_le_bytes());
        assert_eq!(word_hash(&k), word_hash(base), "crafted key must collide");
        k
    }

    #[test]
    fn a_colliding_key_never_takes_or_shares_a_site() {
        let a: Vec<u8> = (0..24u8).collect();
        let b = colliding_key(&a, 1);
        assert_ne!(a, b);
        // Forced under one hash: the first key keeps the site.
        let l = Ledger::new(true);
        l.record_served_hashed(42, &a, 0.9);
        l.record_served_hashed(42, &b, 0.1);
        l.record_served_hashed(42, &a, 0.9);
        let s = l.summary();
        assert_eq!((s.sites, s.served, s.collisions), (1, 2, 1));
        assert!(l
            .render_text()
            .contains("\nesp_ledger_collisions_total 1\n"));

        // A real word_hash collision: the second key's outcome is unmatched,
        // and the first key's site keeps its served direction.
        let l = Ledger::new(true);
        l.record_served(&a, 0.9);
        l.record_served(&b, 0.1);
        assert_eq!(l.record_outcome(&b, false, 1.0), OutcomeRecord::Unmatched);
        assert_eq!(
            l.record_outcome(&a, true, 1.0),
            OutcomeRecord::Applied {
                mispredicted: false
            }
        );
        let s = l.summary();
        assert_eq!(
            (s.sites, s.collisions, s.applied, s.unmatched),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn crafted_collisions_cannot_grow_the_ledger() {
        // 10,000 distinct keys under one hash: one site, no chain.
        let base = vec![7u8; 40];
        let l = Ledger::new(true);
        l.record_served(&base, 0.75);
        for salt in 1..10_000u64 {
            l.record_served(&colliding_key(&base, salt), 0.25);
        }
        let s = l.summary();
        assert_eq!((s.sites, s.served, s.collisions), (1, 1, 9_999));
    }

    #[test]
    fn top_sites_orders_by_observed_mass() {
        let l = Ledger::new(true);
        for (i, w) in [(1u32, 5.0), (2, 50.0), (3, 20.0)] {
            l.record_served(&key(i), 0.8);
            l.record_outcome(&key(i), true, w);
        }
        let top = l.top_sites(2);
        assert_eq!(top.len(), 2);
        assert!((top[0].1.observed_weight - 50.0).abs() < 1e-12);
        assert!((top[1].1.observed_weight - 20.0).abs() < 1e-12);
        assert_eq!(
            top[0].0,
            fnv1a(&key(2)),
            "the display id is the key's FNV-1a"
        );
    }

    #[test]
    fn sitez_json_parses_shape() {
        let l = Ledger::new(true);
        l.record_served(&key(1), 0.7);
        l.record_outcome(&key(1), true, 3.0);
        let j = l.sitez_json(5);
        assert!(j.contains("\"sites\": ["));
        assert!(j.contains("\"summary\": {"));
        assert!(j.contains("\"observed_miss_rate\": 0"));
        assert!(j.contains("\"miss_rate\": 0"));
    }

    #[test]
    fn exposition_families_present() {
        let l = Ledger::new(true);
        let text = l.render_text();
        for fam in [
            "esp_ledger_sites",
            "esp_ledger_served_total",
            "esp_ledger_profile_records_total",
            "esp_ledger_profile_unmatched_total",
            "esp_ledger_observed_weight",
            "esp_ledger_mispredict_weight",
            "esp_ledger_observed_miss_rate",
            "esp_ledger_calibration_ece",
            "esp_ledger_calibration_weight{bucket=\"0\"}",
            "esp_ledger_calibration_taken_rate{bucket=\"9\"}",
        ] {
            assert!(text.contains(fam), "missing {fam} in:\n{text}");
        }
    }
}
