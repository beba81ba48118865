//! Pins the reactor's zero-allocation hit path with a counting global
//! allocator (same pattern as `crates/nnet/tests/alloc_free.rs`): over a
//! real PREDICT frame whose every row is cached and held by the ledger,
//! the reactor's per-row sequence — parse the frame in place, then per
//! row `word_hash` of its slice, `get_hashed`, and the ledger's
//! `record_served_hashed` — performs **zero** heap allocations, and so
//! does an `insert_hashed` that refreshes an existing entry.
//!
//! One `#[test]` only: the counter is process-global, and a sibling test
//! allocating concurrently would make the delta meaningless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use esp_obs::{word_hash, Ledger};
use esp_serve::cache::LruCache;
use esp_serve::protocol::RequestView;
use esp_serve::{PredictRow, Request};

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
fn warmed_frame_hits_do_not_allocate() {
    // -- setup (allocates freely) ------------------------------------------
    let dim = 24;
    let keys = 64;
    let rows: Vec<PredictRow> = (0..keys)
        .map(|i| PredictRow {
            row: (0..dim)
                .map(|j| ((i * 31 + j * 7) % 17) as f64 / 8.0 - 1.0)
                .collect(),
            mask: (0..dim).map(|j| (i + j) % 5 != 0).collect(),
        })
        .collect();
    let mut frame = Request::Predict {
        model: String::new(),
        rows,
    }
    .encode_with_id(1)
    .expect("encodable");

    let model_id = 1;
    let mut cache = LruCache::new(keys);
    let ledger = Ledger::new(true);
    // Warm: cache every row and make it a ledger site (allocates slab
    // slots, map entries and site keys once).
    {
        let Ok((_, RequestView::Predict { rows, .. })) = RequestView::parse(&mut frame) else {
            panic!("the frame must parse");
        };
        assert_eq!(rows.len(), keys);
        for (i, key) in rows.iter().enumerate() {
            let hash = word_hash(key);
            let prob = i as f64 / keys as f64;
            cache.insert_hashed(model_id, hash, key, prob);
            ledger.record_served_hashed(hash, key, prob);
        }
    }

    // -- measure -----------------------------------------------------------
    // The counter is process-global and the harness's main thread may
    // allocate concurrently, so take the minimum over a few attempts: a
    // genuine per-row allocation would show up in every one of them.
    let mut sink = 0.0;
    let mut min_delta = u64::MAX;
    for _attempt in 0..5 {
        let before = allocations();
        for _ in 0..10 {
            // The reactor's exact sequence: parse the frame in place, then
            // hash each row's slice, probe, record the hit, and
            // refresh-insert on occasion.
            let Ok((_, RequestView::Predict { rows, .. })) = RequestView::parse(&mut frame) else {
                panic!("the frame must parse");
            };
            for (i, key) in rows.iter().enumerate() {
                let hash = word_hash(key);
                let prob = cache
                    .get_hashed(model_id, hash, key)
                    .expect("warmed key must hit");
                ledger.record_served_hashed(hash, key, prob);
                sink += prob;
                if i % 7 == 0 {
                    cache.insert_hashed(model_id, hash, key, sink.fract());
                }
            }
        }
        min_delta = min_delta.min(allocations() - before);
        if min_delta == 0 {
            break;
        }
    }

    assert!(sink.is_finite());
    assert_eq!(ledger.summary().sites, keys as u64, "every row is one site");
    assert_eq!(
        min_delta, 0,
        "the reactor's hit path allocated {min_delta} times in every one of 5 warmed-up sweeps"
    );
}
