//! A PREDICT whose rows all hit the cache is answered on the reactor and
//! never reaches a shard worker: after one warming request, 300 repeats
//! of the same batch leave the workers' on-CPU time flat, and each still
//! records exactly one `esp_serve_predict_compute_us` sample.
//!
//! Linux-only: it reads each thread's on-CPU time from
//! `/proc/self/task/*/schedstat`. The file holds this one test, so no other
//! server shares its process.

#![cfg(target_os = "linux")]

use esp_artifact::ModelArtifact;
use esp_serve::metrics::gauge_value;
use esp_serve::{serve, Client, ModelSource, PredictRow, ServeConfig};

/// Summed on-CPU time, in nanoseconds, of this process's threads whose
/// name starts with `prefix`.
fn threads_cpu_ns(prefix: &str) -> u64 {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("list /proc/self/task") {
        let dir = task.expect("task entry").path();
        // A thread may exit between the listing and the reads.
        let (Ok(comm), Ok(schedstat)) = (
            std::fs::read_to_string(dir.join("comm")),
            std::fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        if comm.starts_with(prefix) {
            let ns: u64 = schedstat
                .split_whitespace()
                .next()
                .and_then(|f| f.parse().ok())
                .expect("schedstat starts with the on-CPU nanoseconds");
            total += ns;
        }
    }
    total
}

#[test]
fn cache_hits_never_reach_a_worker() {
    let dim = 16;
    let artifact = ModelArtifact::synthetic(dim, 6, 23);
    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let handle = serve(ModelSource::Artifact(&artifact), "127.0.0.1:0", &cfg).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let batch: Vec<PredictRow> = (0..32)
        .map(|i| PredictRow {
            row: (0..dim).map(|j| ((i * 7 + j) as f64).sin()).collect(),
            mask: (0..dim).map(|j| (i + j) % 5 != 0).collect(),
        })
        .collect();
    let compute_count = |h: &esp_serve::ServerHandle| {
        gauge_value(&h.metrics_text(), "esp_serve_predict_compute_us_count")
            .expect("compute series")
    };

    let warm = client.predict(batch.clone()).expect("warm");
    let workers_before = threads_cpu_ns("esp-serve-shard");
    let count_before = compute_count(&handle);
    for _ in 0..300 {
        let preds = client.predict(batch.clone()).expect("predict");
        assert!(preds
            .iter()
            .zip(&warm)
            .all(|(p, w)| p.prob.to_bits() == w.prob.to_bits()));
    }
    let worker_ns = threads_cpu_ns("esp-serve-shard") - workers_before;
    assert!(
        worker_ns < 2_000_000,
        "shard workers used {:.3} ms of CPU answering 300 all-hit PREDICTs",
        worker_ns as f64 / 1e6
    );
    assert_eq!(
        compute_count(&handle) - count_before,
        300.0,
        "one compute sample per PREDICT"
    );
    let stats = client.stats().expect("stats");
    assert_eq!((stats.cache_misses, stats.cache_hits), (32, 300 * 32));
    handle.shutdown();
}
