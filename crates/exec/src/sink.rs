//! Streaming per-branch outcome observation.
//!
//! [`Profile`](crate::Profile) aggregates each branch site down to two
//! numbers (`executed`, `taken`) — enough for every *static* study, but the
//! execution **order** of outcomes is lost. Dynamic-predictor simulation
//! (`esp-sim`) needs that order: a gshare or TAGE table sees branches one at
//! a time and its state depends on the exact interleaving. A [`BranchSink`]
//! observes every conditional-branch resolution as it happens, in execution
//! order, without changing anything about the run.

use esp_ir::BranchId;

/// Observer of conditional-branch outcomes in execution order.
///
/// [`run_with_sink`](crate::run_with_sink) calls [`BranchSink::branch`] once
/// per dynamic conditional-branch execution, immediately after the outcome
/// is counted for the [`Profile`](crate::Profile) — so aggregating the sink
/// stream per site always reproduces the profile's [`BranchCounts`](crate::BranchCounts)
/// (`executed` = number of events, `taken` = number of `taken == true`
/// events).
///
/// Implementations must not assume anything about the distribution of
/// events; the same site can appear millions of times in a row (a tight
/// loop) or exactly once.
pub trait BranchSink {
    /// One conditional branch at `id` resolved in direction `taken`.
    fn branch(&mut self, id: BranchId, taken: bool);
}

/// The no-op sink used by [`run`](crate::run): compiles away entirely, so
/// the plain profiling path pays nothing for the hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl BranchSink for NullSink {
    #[inline(always)]
    fn branch(&mut self, _id: BranchId, _taken: bool) {}
}

impl<F: FnMut(BranchId, bool)> BranchSink for F {
    #[inline]
    fn branch(&mut self, id: BranchId, taken: bool) {
        self(id, taken)
    }
}
