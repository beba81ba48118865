//! In-memory LRU cache keyed on encoded feature vectors.
//!
//! ESP feature vectors are heavily repeated in practice — a compiler asking
//! about every branch of a program hits the same few hundred static shapes
//! over and over — so a small exact-match cache absorbs most of the
//! network-forward cost. Keys are the *raw* row bits plus one 0/1 byte
//! per mask position ([`cache_key`], the crate's `site_key`): exactly a
//! PREDICT row's wire bytes once the in-place parse has rewritten its
//! mask bytes (any nonzero mask byte on the wire reads as 1), so two
//! requests hit the same entry iff the model would compute the same
//! probability.
//!
//! Implementation: a `HashMap` from `(load id, row hash)` to slab index
//! plus an index-linked list threaded through the slab, giving `O(1)`
//! lookup, touch, insert and exact least-recently-used eviction with
//! std-only containers. The load id is the serving model entry's, so two
//! models (or two loads of one) never share an entry; the row hash is
//! [`esp_obs::word_hash`] of the key, which the server's reactor computes
//! once per row. The map's default hasher still scrambles those 16 bytes
//! with a per-process key, so a client cannot line its rows up on one
//! probe chain. The server keeps one cache, owned by its reactor thread,
//! so nothing here is shared or locked.
//!
//! Each key is stored once, in its slot, beside the load id. Every hit
//! compares both, so a hash collision can never serve another key's
//! probability; a colliding key takes the slot over instead of chaining.
//! Evicted slots go on a free list and their key buffers are reused by the
//! next insert, so a warmed cache at capacity stops allocating for
//! evictions. Lookups take a borrowed `&[u8]` key — the server passes each
//! row's slice of its request frame — so the whole probe path is
//! allocation-free.

use std::collections::HashMap;

use esp_obs::word_hash;

/// Build the cache key for one request row: the raw IEEE-754 bits of every
/// feature followed by the mask bytes.
pub fn cache_key(row: &[f64], mask: &[bool]) -> Vec<u8> {
    let mut key = Vec::with_capacity(row.len() * 8 + mask.len());
    for &x in row {
        key.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    key.extend(mask.iter().map(|&m| u8::from(m)));
    key
}

/// Sentinel slab index meaning "no link".
const NIL: usize = usize::MAX;

/// Load id of the unhashed [`LruCache::get`]/[`LruCache::insert`]
/// entries. No model entry has it: load ids start at 1.
const NO_MODEL: u64 = 0;

/// One slab slot: a key/value pair threaded into the recency list.
#[derive(Debug)]
struct Slot {
    id: u64,
    hash: u64,
    key: Vec<u8>,
    value: f64,
    /// Towards more-recently-used.
    prev: usize,
    /// Towards less-recently-used.
    next: usize,
}

/// Exact LRU cache from feature-vector keys to taken-probabilities.
///
/// All operations are `O(1)`: the recency order is an index-linked list
/// over a slab of slots, with `head` the most-recently-used entry and
/// `tail` the eviction candidate.
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    map: HashMap<(u64, u64), usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl LruCache {
    /// A cache holding at most `capacity` entries; `0` disables caching.
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of entries this cache will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up a key with no model id, hashing it here.
    pub fn get(&mut self, key: &[u8]) -> Option<f64> {
        self.get_hashed(NO_MODEL, word_hash(key), key)
    }

    /// Insert (or refresh) a key with no model id, hashing it here.
    pub fn insert(&mut self, key: &[u8], value: f64) {
        self.insert_hashed(NO_MODEL, word_hash(key), key, value)
    }

    /// Look up `key` as served by model entry `id`, where `hash` is
    /// `word_hash(key)`, marking it most-recently-used on a hit. Allocates
    /// nothing: the key is borrowed and the touch relinks slab indices.
    pub fn get_hashed(&mut self, id: u64, hash: u64, key: &[u8]) -> Option<f64> {
        let idx = *self.map.get(&(id, hash))?;
        let slot = &self.slots[idx];
        if slot.id != id || slot.key != key {
            return None;
        }
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slots[idx].value)
    }

    /// Insert (or refresh) `key` as served by model entry `id`, where
    /// `hash` is `word_hash(key)`, evicting the least-recently-used entry
    /// when full. A different key already under `(id, hash)` loses its
    /// slot. A no-op when the cache is disabled. Takes the key by slice: a
    /// refresh or a slot-reusing insert copies into an existing buffer
    /// instead of allocating.
    pub fn insert_hashed(&mut self, id: u64, hash: u64, key: &[u8], value: f64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&(id, hash)) {
            let slot = &mut self.slots[idx];
            slot.key.clear();
            slot.key.extend_from_slice(key);
            slot.value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "full cache has a tail");
            self.unlink(victim);
            let slot = &self.slots[victim];
            self.map.remove(&(slot.id, slot.hash));
            self.free.push(victim);
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx];
                slot.id = id;
                slot.hash = hash;
                slot.key.clear();
                slot.key.extend_from_slice(key);
                slot.value = value;
                idx
            }
            None => {
                self.slots.push(Slot {
                    id,
                    hash,
                    key: key.to_vec(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert((id, hash), idx);
        self.push_front(idx);
    }

    /// Detach `idx` from the recency list.
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    /// Link `idx` in as most-recently-used.
    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slots[h].prev = idx,
        }
        self.head = idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u8) -> Vec<u8> {
        vec![i; 4]
    }

    #[test]
    fn hit_miss_and_value_identity() {
        let mut c = LruCache::new(4);
        assert!(c.get(&key(1)).is_none());
        c.insert(&key(1), 0.25);
        assert_eq!(c.get(&key(1)), Some(0.25));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(&key(1), 0.1);
        c.insert(&key(2), 0.2);
        assert_eq!(c.get(&key(1)), Some(0.1)); // touch 1 → 2 is now LRU
        c.insert(&key(3), 0.3);
        assert!(c.get(&key(2)).is_none(), "2 should have been evicted");
        assert_eq!(c.get(&key(1)), Some(0.1));
        assert_eq!(c.get(&key(3)), Some(0.3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_without_growth() {
        let mut c = LruCache::new(2);
        c.insert(&key(1), 0.1);
        c.insert(&key(1), 0.9);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key(1)), Some(0.9));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.insert(&key(1), 0.1);
        assert!(c.is_empty());
        assert!(c.get(&key(1)).is_none());
    }

    #[test]
    fn colliding_hashes_never_serve_each_other() {
        // Two keys forced under one (id, hash): each probe sees only its own
        // value, and the later insert takes the slot over.
        let (a, b) = (key(1), key(2));
        let mut c = LruCache::new(4);
        c.insert_hashed(7, 42, &a, 0.25);
        assert_eq!(c.get_hashed(7, 42, &b), None);
        c.insert_hashed(7, 42, &b, 0.75);
        assert_eq!(c.get_hashed(7, 42, &a), None);
        assert_eq!(c.get_hashed(7, 42, &b), Some(0.75));
        assert_eq!(c.len(), 1);
        c.insert_hashed(7, 42, &a, 0.5);
        assert_eq!(c.get_hashed(7, 42, &b), None);
        assert_eq!(c.get_hashed(7, 42, &a), Some(0.5));
    }

    #[test]
    fn one_key_under_two_load_ids_never_aliases() {
        // A hot reload mints a fresh load id: the same row under the new
        // entry is a miss until computed, and each model keeps its own slot.
        let k = cache_key(&[0.5, 2.0], &[true, true]);
        let h = word_hash(&k);
        let mut c = LruCache::new(4);
        c.insert_hashed(1, h, &k, 0.25);
        assert_eq!(c.get_hashed(2, h, &k), None);
        assert_eq!(c.get(&k), None, "the unhashed API is a model of its own");
        c.insert_hashed(2, h, &k, 0.75);
        assert_eq!(c.get_hashed(1, h, &k), Some(0.25));
        assert_eq!(c.get_hashed(2, h, &k), Some(0.75));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn cache_key_distinguishes_mask_and_nan_bits() {
        let a = cache_key(&[1.0, 2.0], &[true, true]);
        let b = cache_key(&[1.0, 2.0], &[true, false]);
        assert_ne!(a, b);
        // distinct NaN payloads are distinct keys (bit-level identity)
        let n1 = f64::from_bits(0x7FF8_0000_0000_0001);
        let n2 = f64::from_bits(0x7FF8_0000_0000_0002);
        assert_ne!(cache_key(&[n1], &[true]), cache_key(&[n2], &[true]));
    }

    #[test]
    fn slab_stays_bounded_under_churn() {
        // A capacity-2 cache driven through hundreds of distinct keys must
        // recycle evicted slots rather than growing the slab.
        let mut c = LruCache::new(2);
        for i in 0..=255u8 {
            c.insert(&key(i), i as f64);
        }
        assert_eq!(c.len(), 2);
        assert!(c.slots.len() <= 3, "slab grew: {} slots", c.slots.len());
        assert_eq!(c.get(&key(255)), Some(255.0));
        assert_eq!(c.get(&key(254)), Some(254.0));
        assert!(c.get(&key(0)).is_none());
    }

    #[test]
    fn recency_order_survives_interleaved_ops() {
        // Exhaustive-ish interleaving against a naive reference model.
        let mut c = LruCache::new(3);
        let mut reference: Vec<(Vec<u8>, f64)> = Vec::new(); // MRU first
        let mut state = 0x1234_5678u64;
        for step in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = key((state >> 33) as u8 % 8);
            if step % 3 == 0 {
                let v = step as f64;
                c.insert(&k, v);
                reference.retain(|(rk, _)| rk != &k);
                reference.insert(0, (k, v));
                reference.truncate(3);
            } else {
                let got = c.get(&k);
                let want = reference.iter().position(|(rk, _)| rk == &k);
                match want {
                    Some(pos) => {
                        let entry = reference.remove(pos);
                        assert_eq!(got, Some(entry.1), "step {step}");
                        reference.insert(0, entry);
                    }
                    None => assert_eq!(got, None, "step {step}"),
                }
            }
            assert_eq!(c.len(), reference.len(), "step {step}");
        }
    }
}
