//! Sliding-window aggregation: a ring of fixed-width time buckets, so
//! windowed rates and latency quantiles ("requests per second over the last
//! minute", "p99 over the last minute") are computable live *and*
//! unit-testable deterministically. The caller passes the timestamp of
//! every record and snapshot, in microseconds from any fixed epoch that
//! never goes backwards.
//!
//! A [`SlidingWindow`] holds `slots` buckets of `bucket_us` microseconds
//! each. Recording lands the observation in the bucket owning `now`; a
//! bucket is lazily reset the first time it is touched in a new epoch, so
//! there is no background sweeper thread. Snapshots merge every bucket that
//! is still inside the window — observations older than
//! `slots × bucket_us` have rotated out by construction.
//!
//! Values are non-negative integers (microseconds, micro-weights, …), the
//! same domain as [`crate::Log2Histogram`]; per-bucket log2 counts give the
//! merged window the same ≤2× quantile guarantee.

use std::sync::Mutex;

use crate::metrics::log2_counts_quantile;

const HIST_BUCKETS: usize = 64;

/// One time bucket of the ring.
#[derive(Debug, Clone)]
struct Slot {
    /// Which bucket epoch (`now / bucket_us`) this slot currently holds;
    /// `u64::MAX` means never used.
    epoch: u64,
    count: u64,
    sum: u64,
    hist: [u64; HIST_BUCKETS],
}

impl Slot {
    fn empty() -> Self {
        Slot {
            epoch: u64::MAX,
            count: 0,
            sum: 0,
            hist: [0; HIST_BUCKETS],
        }
    }

    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.count = 0;
        self.sum = 0;
        self.hist = [0; HIST_BUCKETS];
    }
}

/// What a window held at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSnapshot {
    /// Observations inside the window.
    pub count: u64,
    /// Sum of the observed values inside the window, saturating at
    /// `u64::MAX` rather than wrapping.
    pub sum: u64,
    /// The window span in seconds (`slots × bucket_us / 1e6`).
    pub window_s: f64,
    /// Observations per second over the whole window span.
    pub rate_per_sec: f64,
    /// Log2-bucketed p50 of the values in the window.
    pub p50: u64,
    /// Log2-bucketed p99 of the values in the window.
    pub p99: u64,
}

/// A ring of fixed-width time buckets aggregating one series.
///
/// Thread-safe: recording takes one mutex (windows sit on coarse paths —
/// once per served request, not per row). Determinism: for a fixed
/// sequence of timestamps and values, every snapshot field is exactly
/// reproducible.
#[derive(Debug)]
pub struct SlidingWindow {
    bucket_us: u64,
    state: Mutex<Vec<Slot>>,
}

impl SlidingWindow {
    /// A window of `slots` buckets, each `bucket_us` wide. Both are clamped
    /// to at least 1.
    pub fn new(slots: usize, bucket_us: u64) -> Self {
        SlidingWindow {
            bucket_us: bucket_us.max(1),
            state: Mutex::new(vec![Slot::empty(); slots.max(1)]),
        }
    }

    /// Record `value` at time `now_us`.
    pub fn record(&self, now_us: u64, value: u64) {
        let epoch = now_us / self.bucket_us;
        let mut slots = self.state.lock().expect("window poisoned");
        let n = slots.len() as u64;
        let slot = &mut slots[(epoch % n) as usize];
        if slot.epoch != epoch {
            slot.reset(epoch);
        }
        slot.count += 1;
        slot.sum = slot.sum.saturating_add(value);
        let bucket = (64 - value.leading_zeros()) as usize;
        slot.hist[bucket.min(HIST_BUCKETS - 1)] += 1;
    }

    /// Merge every bucket still inside the window ending at `now_us`.
    pub fn snapshot(&self, now_us: u64) -> WindowSnapshot {
        let epoch = now_us / self.bucket_us;
        let slots = self.state.lock().expect("window poisoned");
        let n = slots.len() as u64;
        let oldest = epoch.saturating_sub(n - 1);
        let mut count = 0u64;
        let mut sum = 0u64;
        let mut hist = [0u64; HIST_BUCKETS];
        for slot in slots.iter() {
            if slot.epoch == u64::MAX || slot.epoch < oldest || slot.epoch > epoch {
                continue; // never used, rotated out, or (clock skew) future
            }
            count += slot.count;
            sum = sum.saturating_add(slot.sum);
            for (h, s) in hist.iter_mut().zip(&slot.hist) {
                *h += s;
            }
        }
        let window_s = (n * self.bucket_us) as f64 / 1e6;
        WindowSnapshot {
            count,
            sum,
            window_s,
            rate_per_sec: count as f64 / window_s,
            p50: log2_counts_quantile(&hist, 0.50),
            p99: log2_counts_quantile(&hist, 0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_counts_and_rate_are_exact() {
        // 4 buckets of 1 s: a 4-second window.
        let w = SlidingWindow::new(4, 1_000_000);
        for i in 0..10u64 {
            w.record(i * 100_000, 100); // 10 records inside the first second
        }
        let s = w.snapshot(1_000_000);
        assert_eq!(s.count, 10);
        assert_eq!(s.sum, 1000);
        assert_eq!(s.window_s, 4.0);
        assert_eq!(s.rate_per_sec, 2.5);
        assert_eq!(s.p50, 127); // 100 has bit length 7
    }

    #[test]
    fn sums_saturate_instead_of_overflowing() {
        let w = SlidingWindow::new(4, 1_000_000);
        w.record(0, u64::MAX);
        w.record(0, u64::MAX); // same bucket: the slot's sum saturates
        w.record(1_000_000, u64::MAX); // next bucket: the merge saturates
        let s = w.snapshot(1_000_000);
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, u64::MAX);
    }

    #[test]
    fn old_observations_rotate_out() {
        let w = SlidingWindow::new(3, 1_000_000);
        w.record(0, 7);
        w.record(1_500_000, 9);
        assert_eq!(w.snapshot(1_500_000).count, 2, "both inside window");
        // Jump past the window: only buckets whose epoch is within the last
        // 3 seconds survive.
        let later = 11_500_000;
        let s = w.snapshot(later);
        assert_eq!(s.count, 0, "everything rotated out");
        assert_eq!(s.sum, 0);
        assert_eq!(s.rate_per_sec, 0.0);
        // New traffic lands in a reset bucket, not on stale counts.
        w.record(later, 5);
        assert_eq!(w.snapshot(later).count, 1);
        assert_eq!(w.snapshot(later).sum, 5);
    }

    #[test]
    fn quantiles_merge_across_buckets() {
        let w = SlidingWindow::new(8, 1_000_000);
        // 99 fast observations in one bucket, 1 slow one 3 s later.
        for _ in 0..99 {
            w.record(0, 10);
        }
        w.record(3_000_000, 5000);
        let s = w.snapshot(3_000_000);
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 99 * 10 + 5000);
        assert_eq!(s.p50, 15); // 10 → bucket le=15
        assert_eq!(s.p99, 15); // rank 99 still in the fast bucket
    }

    #[test]
    fn snapshots_are_deterministic_for_a_fixed_stream() {
        let runs: Vec<WindowSnapshot> = (0..2)
            .map(|_| {
                let w = SlidingWindow::new(5, 250_000);
                for i in 0..40u64 {
                    w.record(i * 40_000, i * 13 % 97);
                }
                w.snapshot(40 * 40_000)
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }
}
