//! TAGE (TAgged GEometric history length) predictor, after Seznec &
//! Michaud, plus the ESP-seeded hybrid variant this reproduction adds.
//!
//! Structure: a base bimodal table always produces a fallback prediction;
//! `N` tagged tables are indexed by the branch address hashed with
//! geometrically increasing slices of the global outcome history. The
//! longest-history table whose entry's tag matches is the **provider**; the
//! next matching table (or the base) is the **alternate**. Newly allocated
//! entries whose counter is still weak defer to the alternate until they
//! have proven themselves (usefulness counters track that).
//!
//! Two deliberate departures from Seznec's reference simulator, both in the
//! service of bitwise-reproducible runs (the arena's determinism gate):
//!
//! 1. **Allocation is first-fit, not pseudo-random.** On a mispredict, the
//!    first table above the provider with a dead entry (`u == 0`) receives
//!    the allocation; if none is free, every candidate's `u` is decayed.
//!    The LFSR-driven random start table of the original only matters for
//!    adversarial aliasing patterns, which our traces don't exhibit.
//! 2. **No per-entry reset randomness**: usefulness counters age by a
//!    deterministic periodic halving (every [`TageConfig::u_tick_period`]
//!    updates).
//!
//! # ESP-seeded hybrid
//!
//! [`Tage::with_seeded_base`] builds the same machine but initializes the
//! base bimodal counters from the trained ESP network's per-site
//! taken-probabilities instead of the uniform weakly-not-taken cold state.
//! Branch "addresses" in the arena are dense site indices, and the base
//! table is grown to hold one entry per site, so the seeding is exact (no
//! aliasing). The learned static prior thus decides every branch until
//! enough dynamic history accumulates to override it — which is precisely
//! the warmup window where a cold TAGE pays its worst miss rates.

use crate::predictor::{ctr2_from_prob, ctr2_update, Predictor};

/// Geometry and policy knobs for [`Tage`].
#[derive(Debug, Clone, PartialEq)]
pub struct TageConfig {
    /// log2 of the base bimodal table size. Grown automatically by
    /// [`Tage::with_seeded_base`] so every seeded site gets its own entry.
    pub base_log2: u32,
    /// log2 of each tagged table's entry count.
    pub table_log2: u32,
    /// Tag width in bits (2..=15; entries store `u16` tags).
    pub tag_bits: u32,
    /// Global-history lengths per tagged table, strictly increasing —
    /// conventionally a geometric series.
    pub hist_lens: Vec<u32>,
    /// Halve all usefulness counters every this many updates.
    pub u_tick_period: u64,
}

impl Default for TageConfig {
    fn default() -> Self {
        TageConfig {
            base_log2: 12,
            table_log2: 10,
            tag_bits: 9,
            hist_lens: vec![5, 13, 34, 89, 200],
            u_tick_period: 1 << 18,
        }
    }
}

impl TageConfig {
    fn validate(&self) {
        assert!(!self.hist_lens.is_empty(), "TAGE needs >= 1 tagged table");
        assert!(
            self.hist_lens.windows(2).all(|w| w[0] < w[1]),
            "history lengths must be strictly increasing: {:?}",
            self.hist_lens
        );
        assert!(
            (2..=15).contains(&self.tag_bits),
            "tag_bits must be in 2..=15"
        );
        assert!(
            (1..=20).contains(&self.table_log2) && (1..=24).contains(&self.base_log2),
            "table sizes out of range"
        );
        assert!(self.u_tick_period > 0, "u_tick_period must be positive");
    }
}

/// One tagged-table entry: partial tag, 3-bit signed prediction counter
/// (taken when `>= 0`), 2-bit usefulness counter.
#[derive(Debug, Clone, Copy, Default)]
struct TagEntry {
    tag: u16,
    ctr: i8,
    u: u8,
}

#[inline]
fn ctr3_update(c: &mut i8, taken: bool) {
    if taken {
        if *c < 3 {
            *c += 1;
        }
    } else if *c > -4 {
        *c -= 1;
    }
}

/// Folded (compressed) history register: maintains
/// `fold(history[0..olen])` into `clen` bits incrementally in O(1) per
/// branch, the standard TAGE trick for long-history indexing.
#[derive(Debug, Clone)]
struct Folded {
    comp: u32,
    clen: u32,
    outpoint: u32,
}

impl Folded {
    fn new(olen: u32, clen: u32) -> Self {
        Folded {
            comp: 0,
            clen,
            outpoint: olen % clen,
        }
    }

    #[inline]
    fn update(&mut self, new_bit: u32, old_bit: u32) {
        self.comp = (self.comp << 1) | new_bit;
        self.comp ^= old_bit << self.outpoint;
        self.comp ^= self.comp >> self.clen;
        self.comp &= (1u32 << self.clen) - 1;
    }
}

/// Per-tagged-table folded registers: one for the index, two of differing
/// widths for the tag (the width offset decorrelates tag and index hashes).
#[derive(Debug, Clone)]
struct TableFolds {
    idx: Folded,
    tag0: Folded,
    tag1: Folded,
}

/// The TAGE predictor. See module docs for structure and determinism notes.
#[derive(Debug, Clone)]
pub struct Tage {
    name: &'static str,
    cfg: TageConfig,
    base: Vec<u8>,
    base_mask: u64,
    tables: Vec<Vec<TagEntry>>,
    table_mask: u64,
    tag_mask: u16,
    folds: Vec<TableFolds>,
    /// Outcome-history ring; `hist[ptr]` is the newest bit.
    hist: Vec<u8>,
    ptr: usize,
    tick: u64,
    // Lookup state cached by `predict` for the matching `update`.
    lk_pc: u64,
    lk_base_idx: usize,
    lk_idx: Vec<usize>,
    lk_tag: Vec<u16>,
    lk_provider: Option<usize>,
    lk_alt: Option<usize>,
    lk_provider_pred: bool,
    lk_alt_pred: bool,
    lk_weak_new: bool,
    lk_pred: bool,
}

impl Tage {
    /// Cold-start TAGE: uniform weakly-not-taken base, empty tagged tables.
    pub fn new(cfg: TageConfig) -> Self {
        Self::build("tage", cfg, None)
    }

    /// ESP-seeded hybrid: identical machine, but base counter `i` is
    /// initialized from `priors[i]` (the trained network's probability that
    /// site `i` is taken) via the confidence bands of
    /// `predictor::ctr2_from_prob`. The base table
    /// is grown to at least `priors.len()` entries so the mapping is exact.
    pub fn with_seeded_base(cfg: TageConfig, priors: &[f64]) -> Self {
        Self::build("esp+tage", cfg, Some(priors))
    }

    fn build(name: &'static str, mut cfg: TageConfig, priors: Option<&[f64]>) -> Self {
        if let Some(p) = priors {
            let need = p.len().next_power_of_two().max(2).trailing_zeros();
            cfg.base_log2 = cfg.base_log2.max(need);
        }
        cfg.validate();
        let base_n = 1usize << cfg.base_log2;
        let mut base = vec![1u8; base_n];
        if let Some(p) = priors {
            for (i, &prob) in p.iter().enumerate() {
                base[i] = ctr2_from_prob(prob);
            }
        }
        let table_n = 1usize << cfg.table_log2;
        let n_tables = cfg.hist_lens.len();
        let folds = cfg
            .hist_lens
            .iter()
            .map(|&len| TableFolds {
                idx: Folded::new(len, cfg.table_log2),
                tag0: Folded::new(len, cfg.tag_bits),
                tag1: Folded::new(len, cfg.tag_bits - 1),
            })
            .collect();
        let max_hist = *cfg.hist_lens.last().expect("validated non-empty") as usize;
        Tage {
            name,
            base,
            base_mask: (base_n - 1) as u64,
            tables: vec![vec![TagEntry::default(); table_n]; n_tables],
            table_mask: (table_n - 1) as u64,
            tag_mask: ((1u32 << cfg.tag_bits) - 1) as u16,
            folds,
            hist: vec![0; max_hist + 1],
            ptr: 0,
            tick: 0,
            lk_pc: 0,
            lk_base_idx: 0,
            lk_idx: vec![0; n_tables],
            lk_tag: vec![0; n_tables],
            lk_provider: None,
            lk_alt: None,
            lk_provider_pred: false,
            lk_alt_pred: false,
            lk_weak_new: false,
            lk_pred: false,
            cfg,
        }
    }

    /// k-th most recent outcome bit (0 = newest).
    #[inline]
    fn hist_bit(&self, k: usize) -> u32 {
        self.hist[(self.ptr + k) % self.hist.len()] as u32
    }

    fn push_history(&mut self, taken: bool) {
        let len = self.hist.len();
        self.ptr = (self.ptr + len - 1) % len;
        self.hist[self.ptr] = taken as u8;
        let new_bit = taken as u32;
        for i in 0..self.folds.len() {
            // The bit that just slid out of this table's history window.
            let old_bit = self.hist_bit(self.cfg.hist_lens[i] as usize);
            let f = &mut self.folds[i];
            f.idx.update(new_bit, old_bit);
            f.tag0.update(new_bit, old_bit);
            f.tag1.update(new_bit, old_bit);
        }
    }

    #[inline]
    fn table_index(&self, i: usize, pc: u64) -> usize {
        let h = self.folds[i].idx.comp as u64;
        ((pc ^ (pc >> (i as u32 + 1)) ^ h) & self.table_mask) as usize
    }

    #[inline]
    fn table_tag(&self, i: usize, pc: u64) -> u16 {
        let f = &self.folds[i];
        let t = pc as u32 ^ (pc >> self.cfg.tag_bits) as u32 ^ f.tag0.comp ^ (f.tag1.comp << 1);
        (t as u16) & self.tag_mask
    }
}

impl Predictor for Tage {
    fn name(&self) -> &'static str {
        self.name
    }

    fn predict(&mut self, pc: u64) -> bool {
        self.lk_pc = pc;
        self.lk_base_idx = (pc & self.base_mask) as usize;
        let base_pred = self.base[self.lk_base_idx] >= 2;

        let n = self.tables.len();
        for i in 0..n {
            self.lk_idx[i] = self.table_index(i, pc);
            self.lk_tag[i] = self.table_tag(i, pc);
        }
        self.lk_provider = (0..n)
            .rev()
            .find(|&i| self.tables[i][self.lk_idx[i]].tag == self.lk_tag[i]);
        self.lk_alt = self.lk_provider.and_then(|p| {
            (0..p)
                .rev()
                .find(|&i| self.tables[i][self.lk_idx[i]].tag == self.lk_tag[i])
        });
        self.lk_alt_pred = match self.lk_alt {
            Some(a) => self.tables[a][self.lk_idx[a]].ctr >= 0,
            None => base_pred,
        };
        self.lk_pred = match self.lk_provider {
            Some(p) => {
                let e = self.tables[p][self.lk_idx[p]];
                self.lk_provider_pred = e.ctr >= 0;
                // A freshly allocated entry (weak counter, no recorded
                // usefulness) has not earned trust: use the alternate.
                self.lk_weak_new = e.u == 0 && (e.ctr == 0 || e.ctr == -1);
                if self.lk_weak_new {
                    self.lk_alt_pred
                } else {
                    self.lk_provider_pred
                }
            }
            None => {
                self.lk_provider_pred = base_pred;
                self.lk_weak_new = false;
                base_pred
            }
        };
        self.lk_pred
    }

    fn update(&mut self, pc: u64, taken: bool, _predicted: bool) {
        debug_assert_eq!(pc, self.lk_pc, "update must follow predict for the same pc");

        if let Some(p) = self.lk_provider {
            // Usefulness tracks "provider beat the alternate".
            if self.lk_provider_pred != self.lk_alt_pred {
                let e = &mut self.tables[p][self.lk_idx[p]];
                if self.lk_provider_pred == taken {
                    if e.u < 3 {
                        e.u += 1;
                    }
                } else if e.u > 0 {
                    e.u -= 1;
                }
            }
            ctr3_update(&mut self.tables[p][self.lk_idx[p]].ctr, taken);
            if self.lk_weak_new {
                // Keep the alternate warm while the new entry trains.
                match self.lk_alt {
                    Some(a) => ctr3_update(&mut self.tables[a][self.lk_idx[a]].ctr, taken),
                    None => ctr2_update(&mut self.base[self.lk_base_idx], taken),
                }
            }
        } else {
            ctr2_update(&mut self.base[self.lk_base_idx], taken);
        }

        // Allocate a longer-history entry on a final mispredict.
        if self.lk_pred != taken {
            let start = self.lk_provider.map_or(0, |p| p + 1);
            let n = self.tables.len();
            if start < n {
                match (start..n).find(|&j| self.tables[j][self.lk_idx[j]].u == 0) {
                    Some(j) => {
                        self.tables[j][self.lk_idx[j]] = TagEntry {
                            tag: self.lk_tag[j],
                            ctr: if taken { 0 } else { -1 },
                            u: 0,
                        };
                    }
                    None => {
                        // Everything above the provider is useful: decay so a
                        // future mispredict can allocate.
                        for j in start..n {
                            self.tables[j][self.lk_idx[j]].u -= 1;
                        }
                    }
                }
            }
        }

        // Deterministic usefulness aging.
        self.tick += 1;
        if self.tick.is_multiple_of(self.cfg.u_tick_period) {
            for t in &mut self.tables {
                for e in t.iter_mut() {
                    e.u >>= 1;
                }
            }
        }

        self.push_history(taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> TageConfig {
        TageConfig {
            base_log2: 6,
            table_log2: 7,
            tag_bits: 8,
            hist_lens: vec![4, 9, 18, 40],
            u_tick_period: 1 << 14,
        }
    }

    fn drive(p: &mut Tage, pcs_and_outcomes: impl Iterator<Item = (u64, bool)>) -> Vec<bool> {
        pcs_and_outcomes
            .map(|(pc, taken)| {
                let pred = p.predict(pc);
                p.update(pc, taken, pred);
                pred
            })
            .collect()
    }

    #[test]
    fn learns_a_long_periodic_pattern() {
        // Period 7 needs >= 6 bits of history — table 2 (18 bits) covers it.
        let pattern = [true, true, true, false, true, false, false];
        let mut p = Tage::new(small_cfg());
        let preds = drive(&mut p, (0..4000u32).map(|i| (3, pattern[(i % 7) as usize])));
        let late_misses = preds
            .iter()
            .enumerate()
            .skip(3000)
            .filter(|&(i, &pred)| pred != pattern[i % 7])
            .count();
        assert!(
            late_misses <= 5,
            "TAGE should converge on a period-7 pattern, {late_misses} late misses"
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let stream: Vec<(u64, bool)> = (0..5000u32)
            .map(|i| ((i % 37) as u64, (i * i + i / 3) % 5 < 2))
            .collect();
        let mut a = Tage::new(small_cfg());
        let mut b = Tage::new(small_cfg());
        let pa = drive(&mut a, stream.iter().copied());
        let pb = drive(&mut b, stream.iter().copied());
        assert_eq!(pa, pb);
    }

    #[test]
    fn seeded_base_grows_to_fit_priors() {
        let priors = vec![0.9; 300]; // needs 9 bits > base_log2 6
        let p = Tage::with_seeded_base(small_cfg(), &priors);
        assert!(p.base.len() >= 300);
        assert!(p.base[..300].iter().all(|&c| c == 3));
        assert!(p.base[300..].iter().all(|&c| c == 1));
        assert_eq!(p.name(), "esp+tage");
    }

    #[test]
    fn seeding_wins_the_warmup_regime() {
        // 40 sites, each strongly taken; the ESP prior knows it. Short
        // trace: 8 events per site, round-robin.
        let n_sites = 40u64;
        let priors = vec![0.95; n_sites as usize];
        let stream: Vec<(u64, bool)> = (0..8 * n_sites).map(|i| (i % n_sites, true)).collect();

        let mut cold = Tage::new(small_cfg());
        let mut seeded = Tage::with_seeded_base(small_cfg(), &priors);
        let cold_miss = drive(&mut cold, stream.iter().copied())
            .iter()
            .zip(&stream)
            .filter(|(p, (_, t))| *p != t)
            .count();
        let seeded_miss = drive(&mut seeded, stream.iter().copied())
            .iter()
            .zip(&stream)
            .filter(|(p, (_, t))| *p != t)
            .count();
        assert_eq!(seeded_miss, 0, "seeded hybrid should never miss here");
        assert!(
            cold_miss >= n_sites as usize,
            "cold TAGE pays >= 1 warmup miss per site, got {cold_miss}"
        );
    }

    #[test]
    fn folded_history_stays_within_width() {
        let mut f = Folded::new(40, 7);
        for i in 0..1000u32 {
            f.update(i & 1, (i >> 1) & 1);
            assert!(f.comp < 128);
        }
    }
}
