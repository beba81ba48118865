//! `esp-obs` — the workspace-wide observability substrate.
//!
//! Every layer of the reproduction (corpus profiling, the runtime pool,
//! network training, the evaluation folds, the prediction server) reports
//! into this crate instead of carrying its own ad-hoc counters. Two
//! pieces, all std-only like the rest of the workspace:
//!
//! * [`trace`] — a lightweight span/event tracing API. [`span!`] returns a
//!   guard that records a complete event (start timestamp + duration) into
//!   its thread's **bounded event buffer** (at most [`trace::CAPACITY`]
//!   undrained events) when it is dropped; [`trace::drain`] takes every
//!   thread's events and [`trace::render_json`] turns them into the Chrome
//!   trace-event format (one event object per line) that `chrome://tracing`
//!   and Perfetto load directly.
//! * [`metrics`] — a registry of named atomic [`Counter`]s, [`Gauge`]s and
//!   [`Log2Histogram`]s (the log-bucketed latency histogram generalized out
//!   of `esp-serve`) with a Prometheus-style text exposition encoder.
//!
//! Two production-telemetry pieces ride on top:
//!
//! * [`ledger`] — the per-site accuracy [`Ledger`]: serve-side predictions
//!   joined with `PROFILE`-fed observed outcomes into live
//!   miss-rate-vs-observed gauges, a 10-bucket calibration histogram, and
//!   the `/sitez` hot-site table, its sites indexed by row hash.
//!   Deterministic exposition regardless of thread interleaving; same
//!   zero-cost-when-disabled contract as tracing.
//! * [`window`] — a [`SlidingWindow`] ring of fixed-width time buckets.
//!   The caller passes the timestamp of every record and snapshot, so
//!   windowed rps/p99/mispredict-rate are unit-testable deterministically.
//!
//! [`cli`] is the one command-line parser every binary uses, with one
//! policy for bad flags; it owns the shared `--trace-out`/`--metrics-out`.
//!
//! Two byte hashes live here. [`Fnv1a`] is the stable one: corpus name
//! seeds and the ledger's `/sitez` site ids go through it, so the Table 4
//! bytes pin it. [`word_hash`] is the fast one: the server hashes each
//! served row with it once, and that one hash keys the cache map and
//! indexes the ledger.
//!
//! # The zero-cost-when-disabled contract
//!
//! Tracing is off by default. A [`span!`] or [`instant!`] in a hot loop
//! costs exactly one relaxed atomic load plus a branch while tracing is
//! disabled: no timestamp is taken, no argument is formatted, nothing is
//! allocated (asserted by a counted-allocator test). Telemetry is
//! observation-only by design — it never touches an RNG stream or a
//! floating-point accumulation, so results are bitwise identical with
//! tracing on and off (asserted by a Table 4 regression test in
//! `esp-eval`).
//!
//! # Determinism note
//!
//! Metrics counters are always live (their per-event cost is one relaxed
//! `fetch_add` at coarse granularity); histograms and timestamps on hot
//! paths are gated behind the tracing flag. Thread ids are small integers
//! assigned in first-use order, so traces from parallel runs are stable in
//! shape though not in interleaving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod ledger;
pub mod metrics;
pub mod trace;
pub mod window;

pub use ledger::{Ledger, LedgerSummary, OutcomeRecord};
pub use metrics::{Counter, Gauge, Log2Histogram, MetricsRegistry};
pub use trace::{ArgValue, SpanGuard, TraceEvent};
pub use window::{SlidingWindow, WindowSnapshot};

use std::sync::OnceLock;

static GLOBAL_METRICS: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide metrics registry. Training, runtime-pool and evaluation
/// series live here; `esp-serve` keeps a per-server registry so concurrent
/// servers in one process do not share counters.
pub fn global_metrics() -> &'static MetricsRegistry {
    GLOBAL_METRICS.get_or_init(MetricsRegistry::new)
}

/// FNV-1a, 64-bit. Its output seeds the corpus generator and names the
/// ledger's `/sitez` sites, so it is pinned by the Table 4 bytes: never
/// change it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte written so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// The state of [`word_hash`]: a 64-bit hash that folds one little-endian
/// word at a time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordHash(u64);

impl Default for WordHash {
    #[inline]
    fn default() -> Self {
        WordHash(0x243F_6A88_85A3_08D3)
    }
}

impl WordHash {
    /// Fold the next 8 bytes of the string, read as a little-endian word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(31);
    }

    /// The hash of a `len`-byte string whose words were folded so far.
    #[inline]
    pub fn finish(self, len: usize) -> u64 {
        let mut h = self.0 ^ len as u64;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// A 64-bit hash that folds one little-endian word at a time: the serve
/// path's row hash. A byte string hashes as its 8-byte words in order, the
/// last one zero-padded, with the byte length folded in last.
///
/// Not keyed and not collision-resistant: a table indexed by it must
/// compare full keys, and one that faces untrusted keys must still hash
/// them with a keyed hasher and must not chain colliding keys.
#[inline]
pub fn word_hash(bytes: &[u8]) -> u64 {
    let mut h = WordHash::default();
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h.word(u64::from_le_bytes(last));
    }
    h.finish(bytes.len())
}

/// Open a span: `span!("cat", "name")` or
/// `span!("cat", "name", key = value, …)`. Returns a [`SpanGuard`] that
/// records a complete trace event when dropped. While tracing is off this
/// is one relaxed load plus a branch: the arguments are not evaluated and
/// the guard is the inert [`SpanGuard::default`].
#[macro_export]
macro_rules! span {
    ($cat:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::span(
                $cat,
                $name,
                ::std::vec![$((stringify!($k), $crate::ArgValue::from($v))),*],
            )
        } else {
            <$crate::SpanGuard as ::std::default::Default>::default()
        }
    };
}

/// Record an instant (zero-duration) trace event: `instant!("cat", "name")`
/// or `instant!("cat", "name", key = value, …)`. Argument expressions are
/// only evaluated when tracing is enabled.
#[macro_export]
macro_rules! instant {
    ($cat:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::instant(
                $cat,
                $name,
                ::std::vec![$((stringify!($k), $crate::ArgValue::from($v))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_metrics_is_a_singleton() {
        let a = global_metrics() as *const MetricsRegistry;
        let b = global_metrics() as *const MetricsRegistry;
        assert_eq!(a, b);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn word_hash_streams_whole_words_and_folds_the_length() {
        let bytes: Vec<u8> = (1..=19).collect();
        let mut h = WordHash::default();
        h.word(u64::from_le_bytes(bytes[0..8].try_into().unwrap()));
        h.word(u64::from_le_bytes(bytes[8..16].try_into().unwrap()));
        h.word(u64::from_le_bytes([17, 18, 19, 0, 0, 0, 0, 0]));
        assert_eq!(h.finish(19), word_hash(&bytes));
        // Zero padding is not content: the length tells a string from its
        // zero-extended self, and every prefix hashes apart.
        let mut seen: Vec<u64> = (0..=bytes.len()).map(|n| word_hash(&bytes[..n])).collect();
        seen.push(word_hash(&[1, 2, 3, 0]));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), bytes.len() + 2);
    }
}
