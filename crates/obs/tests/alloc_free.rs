//! The zero-cost-when-disabled contract, enforced: with tracing off, a
//! `span!`/`instant!` in a hot loop emits no events and performs **zero
//! heap allocations**. A counting `#[global_allocator]` (test-only; the
//! library itself stays `forbid(unsafe_code)`) measures the loop directly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Measure the allocations `f` performs, retrying a few times. The counter
/// is process-global, so the libtest harness thread can race a handful of
/// its own allocations into a window; a genuinely allocating hot path
/// would show up tens of thousands of times in *every* attempt, while
/// harness noise vanishes on retry. Passes iff some attempt is clean.
fn assert_alloc_free(what: &str, mut f: impl FnMut()) {
    let mut observed = 0;
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        f();
        observed = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if observed == 0 {
            return;
        }
    }
    panic!("{what} allocated on the heap in every attempt (last saw {observed})");
}

#[test]
fn disabled_tracing_emits_zero_events_and_zero_allocations() {
    assert!(
        !esp_obs::trace::enabled(),
        "tracing must start disabled in this process"
    );
    // Flush anything a previous drain left around and settle lazy statics
    // outside the measured window.
    let _ = esp_obs::trace::drain();
    let baseline_events = esp_obs::trace::drain().len();
    assert_eq!(baseline_events, 0);

    let mut sink = 0u64;
    assert_alloc_free("disabled span!/instant!", || {
        for i in 0..100_000u64 {
            // Arg expressions must not even be evaluated; `sink` proves the
            // loop itself ran.
            let _sp = esp_obs::span!("test", "hot", iter = i, twice = i * 2);
            let mut bare = esp_obs::span!("test", "bare");
            bare.arg("iter", i);
            esp_obs::instant!("test", "tick", iter = i);
            sink = sink.wrapping_add(i);
        }
    });

    assert!(sink >= (0..100_000u64).sum::<u64>());
    assert!(
        esp_obs::trace::drain().is_empty(),
        "disabled sites pushed events"
    );
    assert_eq!(esp_obs::trace::dropped(), 0);

    // The same contract extends to the accuracy ledger: a disabled ledger's
    // record path is one branch on a plain bool — no hashing, no locking,
    // no allocation. (Kept in this one test: the allocation counter is
    // process-global, so a second parallel test would race the measured
    // window above.)
    let ledger = esp_obs::Ledger::new(false);
    let key = [0u8; 32];
    let mut disabled = 0u64;
    assert_alloc_free("disabled ledger record_served/record_outcome", || {
        disabled = 0;
        for i in 0..100_000u64 {
            ledger.record_served(&key, 0.75);
            if ledger.record_outcome(&key, i % 2 == 0, 1.0) == esp_obs::OutcomeRecord::Disabled {
                disabled += 1;
            }
        }
    });
    assert_eq!(disabled, 100_000);
    assert_eq!(ledger.summary().sites, 0, "disabled ledger recorded state");

    // An enabled ledger copies a site key only the first time it sees the
    // site: a repeat served prediction and an outcome for a known site
    // allocate nothing.
    let ledger = esp_obs::Ledger::new(true);
    let hash = esp_obs::word_hash(&key);
    ledger.record_served_hashed(hash, &key, 0.75);
    let mut applied = 0u64;
    assert_alloc_free("enabled ledger on a known site", || {
        applied = 0;
        for i in 0..100_000u64 {
            ledger.record_served_hashed(hash, &key, 0.75);
            if ledger.record_outcome(&key, i % 2 == 0, 1.0).applied() {
                applied += 1;
            }
        }
    });
    assert_eq!(applied, 100_000);
    assert_eq!(ledger.summary().sites, 1);
}
