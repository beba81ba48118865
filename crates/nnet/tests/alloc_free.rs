//! Pins the kernel zero-allocation contract with a counting global
//! allocator (same pattern as `crates/obs/tests/alloc_free.rs`): once the
//! scratch buffers have warmed up, the forward and gradient hot loops —
//! `predict` / `predict_panel_into`, `loss`, `thresholded_error`, and
//! `accumulate_gradient` — perform **zero** heap allocations per example.
//!
//! One `#[test]` only: the counter is process-global, and a sibling test
//! allocating concurrently would make the delta meaningless.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use esp_nnet::{LossKind, Mlp, MlpConfig, PanelScratch, TrainExample};

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
fn forward_and_gradient_hot_loops_do_not_allocate() {
    // -- setup (allocates freely) ------------------------------------------
    let dim = 24;
    let hidden = 10;
    let data: Vec<TrainExample> = (0..256)
        .map(|i| TrainExample {
            x: (0..dim)
                .map(|j| ((i * 31 + j * 7) % 17) as f64 / 8.0 - 1.0)
                .collect(),
            target: ((i * 11) % 10) as f64 / 9.0,
            weight: 0.2 + ((i * 3) % 7) as f64 / 5.0,
        })
        .collect();
    let (m, _) = Mlp::train(
        &data,
        &MlpConfig {
            hidden,
            restarts: 1,
            max_epochs: 2,
            ..MlpConfig::default()
        },
    );

    let mut grad = vec![0.0; m.num_params()];
    let mut scratch = Vec::with_capacity(hidden);
    let mut terr = vec![0.0; data.len()];
    let mut probs = Vec::with_capacity(data.len());
    let panel: Vec<f64> = data.iter().flat_map(|d| d.x.iter().copied()).collect();
    let mut panel_scratch = PanelScratch::new();

    // Warm every reusable buffer: the thread-local predict scratch, the
    // caller-owned scratches, and the batch output's capacity.
    let _ = m.predict(&data[0].x);
    m.predict_panel_into(&panel, data.len(), &mut panel_scratch, &mut probs);
    let _ = m.accumulate_gradient(&data, LossKind::Linear, &mut grad, &mut scratch, &mut terr);
    let _ = m.loss(&data);
    let _ = m.thresholded_error(&data);

    // -- measure -----------------------------------------------------------
    // The counter is process-global and the harness's main thread may
    // allocate concurrently, so take the minimum over a few attempts: a
    // genuine per-example allocation in the kernels would show up in every
    // one of them.
    let mut sink = 0.0;
    let mut min_delta = u64::MAX;
    for _attempt in 0..5 {
        let before = allocations();
        for _ in 0..10 {
            for ex in &data {
                sink += m.predict(&ex.x);
            }
            probs.clear();
            m.predict_panel_into(&panel, data.len(), &mut panel_scratch, &mut probs);
            sink += probs.iter().sum::<f64>();
            sink +=
                m.accumulate_gradient(&data, LossKind::Linear, &mut grad, &mut scratch, &mut terr);
            sink += m.accumulate_gradient(&data, LossKind::Sse, &mut grad, &mut scratch, &mut terr);
            sink += m.loss(&data);
            sink += m.thresholded_error(&data);
            sink += terr.iter().sum::<f64>();
        }
        min_delta = min_delta.min(allocations() - before);
        if min_delta == 0 {
            break;
        }
    }

    assert!(sink.is_finite());
    assert_eq!(
        min_delta, 0,
        "kernel hot loops allocated {min_delta} times in every one of 5 warmed-up sweeps"
    );
}
