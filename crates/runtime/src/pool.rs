//! Scoped worker pool.
//!
//! All parallelism in the pipeline goes through these helpers: corpus
//! profiling maps over programs and cross-validation maps over folds. The
//! contract, relied on by the ESP pipeline's determinism guarantee, is:
//!
//! * work items are pure functions of their index/input, so *which thread*
//!   runs an item never affects its value;
//! * results are returned **in input order**, regardless of completion
//!   order.
//!
//! Nothing combines floating-point partials across workers: each item's
//! arithmetic runs on one thread, so every thread count gives the same
//! bits as a serial run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use esp_obs::{span, Counter, Gauge, Log2Histogram};

/// Cached handles into the global metrics registry so a parallel region
/// costs one `OnceLock` load instead of a registry lookup.
struct PoolMetrics {
    regions: std::sync::Arc<Counter>,
    tasks: std::sync::Arc<Counter>,
    worker_busy_us: std::sync::Arc<Counter>,
    task_run_us: std::sync::Arc<Log2Histogram>,
    /// Offset of each task's start from its region's start — a ramp-up /
    /// skew profile of the region, *not* a queueing-delay signal (a late
    /// start usually means the worker was busy running earlier tasks).
    task_start_offset_us: std::sync::Arc<Log2Histogram>,
    queue_depth: std::sync::Arc<Gauge>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: OnceLock<PoolMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = esp_obs::global_metrics();
        PoolMetrics {
            regions: r.counter("esp_runtime_regions_total"),
            tasks: r.counter("esp_runtime_tasks_total"),
            worker_busy_us: r.counter("esp_runtime_worker_busy_us_total"),
            task_run_us: r.histogram("esp_runtime_task_run_us"),
            task_start_offset_us: r.histogram("esp_runtime_task_start_offset_us"),
            queue_depth: r.gauge("esp_runtime_queue_depth"),
        }
    })
}

/// Resolve a `threads` knob: `0` means one worker per available core.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Apply `f` to `0..n` on `threads` workers and collect results in index
/// order. Items are claimed dynamically (an atomic cursor), so uneven item
/// costs balance out; the output order is fixed by construction.
pub fn parallel_map_indices<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let t = resolve_threads(threads).min(n.max(1));
    let pm = pool_metrics();
    pm.regions.inc();
    pm.tasks.add(n as u64);
    pm.queue_depth.set(n as f64);
    let _region = span!("runtime", "parallel_map", n = n, threads = t);
    if t <= 1 || n <= 1 {
        let out = if _region.is_enabled() {
            (0..n)
                .map(|i| {
                    let t0 = esp_obs::trace::now_us();
                    let r = f(i);
                    pm.task_run_us
                        .record(esp_obs::trace::now_us().saturating_sub(t0));
                    r
                })
                .collect()
        } else {
            (0..n).map(f).collect()
        };
        pm.queue_depth.set(0.0);
        return out;
    }
    let traced = _region.is_enabled();
    let region_t0 = if traced { esp_obs::trace::now_us() } else { 0 };
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..t)
            .map(|_| {
                s.spawn(|| {
                    let mut worker = span!("runtime", "worker");
                    let mut out = Vec::new();
                    let mut busy_us = 0u64;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        if traced {
                            let t0 = esp_obs::trace::now_us();
                            pm.task_start_offset_us.record(t0.saturating_sub(region_t0));
                            out.push((i, f(i)));
                            let dt = esp_obs::trace::now_us().saturating_sub(t0);
                            pm.task_run_us.record(dt);
                            busy_us += dt;
                        } else {
                            out.push((i, f(i)));
                        }
                    }
                    if traced {
                        pm.worker_busy_us.add(busy_us);
                        worker.arg("items", out.len());
                        worker.arg("busy_us", busy_us);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    pm.queue_depth.set(0.0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in per_worker.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every index produced"))
        .collect()
}

/// Apply `f` to every element of `items` on `threads` workers; results come
/// back in `items` order.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_indices(threads, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_uses_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn map_preserves_order_across_thread_counts() {
        let serial = parallel_map_indices(1, 100, |i| i * i);
        for t in [2, 3, 4, 8] {
            assert_eq!(parallel_map_indices(t, 100, |i| i * i), serial);
        }
    }

    #[test]
    fn map_over_slice_matches_iterator() {
        let items: Vec<i64> = (0..37).collect();
        let expect: Vec<i64> = items.iter().map(|x| x * 3 - 1).collect();
        assert_eq!(parallel_map(4, &items, |x| x * 3 - 1), expect);
    }

    #[test]
    fn map_handles_empty_and_single() {
        let empty: Vec<usize> = parallel_map_indices(4, 0, |i| i);
        assert!(empty.is_empty());
        assert_eq!(parallel_map_indices(4, 1, |i| i + 7), vec![7]);
    }
}
