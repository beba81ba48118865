//! Pins the serve cache's zero-allocation contract with a counting global
//! allocator (same pattern as `crates/nnet/tests/alloc_free.rs`): with a
//! caller-owned key buffer and a warmed cache, the reactor's hot path —
//! `row_hash` over the decoded row, `cache_key_into` to build the key,
//! `get_hashed` on a hit, and `insert_hashed` that refreshes an existing
//! entry — performs **zero** heap allocations per lookup.
//!
//! One `#[test]` only: the counter is process-global, and a sibling test
//! allocating concurrently would make the delta meaningless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use esp_serve::cache::{cache_key_into, row_hash, LruCache};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warmed_cache_hits_do_not_allocate() {
    // -- setup (allocates freely) ------------------------------------------
    let dim = 24;
    let keys = 64;
    let rows: Vec<(Vec<f64>, Vec<bool>)> = (0..keys)
        .map(|i| {
            (
                (0..dim)
                    .map(|j| ((i * 31 + j * 7) % 17) as f64 / 8.0 - 1.0)
                    .collect(),
                (0..dim).map(|j| (i + j) % 5 != 0).collect(),
            )
        })
        .collect();

    let model_id = 1;
    let mut cache = LruCache::new(keys);
    let mut key_buf: Vec<u8> = Vec::new();
    // Warm: populate every key (allocates slab slots and map entries once)
    // and size the reusable key buffer.
    for (i, (row, mask)) in rows.iter().enumerate() {
        cache_key_into(&mut key_buf, row, mask);
        cache.insert_hashed(
            model_id,
            row_hash(row, mask),
            &key_buf,
            i as f64 / keys as f64,
        );
    }

    // -- measure -----------------------------------------------------------
    // The counter is process-global and the harness's main thread may
    // allocate concurrently, so take the minimum over a few attempts: a
    // genuine per-lookup allocation would show up in every one of them.
    let mut sink = 0.0;
    let mut min_delta = u64::MAX;
    for _attempt in 0..5 {
        let before = allocations();
        for _ in 0..10 {
            for (i, (row, mask)) in rows.iter().enumerate() {
                // The reactor's exact sequence: the row hash, then build
                // the key into the reusable buffer, probe, and
                // refresh-insert on occasion.
                let hash = row_hash(row, mask);
                cache_key_into(&mut key_buf, row, mask);
                sink += cache
                    .get_hashed(model_id, hash, &key_buf)
                    .expect("warmed key must hit");
                if i % 7 == 0 {
                    cache.insert_hashed(model_id, hash, &key_buf, sink.fract());
                }
            }
        }
        min_delta = min_delta.min(allocations() - before);
        if min_delta == 0 {
            break;
        }
    }

    assert!(sink.is_finite());
    assert_eq!(
        min_delta, 0,
        "cache hot path allocated {min_delta} times in every one of 5 warmed-up sweeps"
    );
}
