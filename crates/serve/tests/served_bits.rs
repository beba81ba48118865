//! Served bits, end to end: probabilities the reactor computes (in 32-row
//! kernel chunks) and probabilities it answers from its cache are bitwise
//! identical to in-process inference — from one connection or many
//! concurrent ones — and the one cache holds every distinct row exactly
//! once.

use std::sync::Arc;

use esp_artifact::ModelArtifact;
use esp_serve::metrics::gauge_value;
use esp_serve::{serve, Client, ModelSource, PredictRow, ServeConfig};

fn rows(dim: usize, n: usize) -> Vec<PredictRow> {
    (0..n)
        .map(|i| PredictRow {
            row: (0..dim).map(|j| ((i * 13 + j * 7) as f64).sin()).collect(),
            mask: (0..dim).map(|j| (i + j) % 9 != 0).collect(),
        })
        .collect()
}

#[test]
fn computed_and_cached_rows_serve_identical_bits() {
    let artifact = ModelArtifact::synthetic(14, 5, 101);
    let model = artifact.to_model();
    // Three 32-row kernel chunks.
    let batch = rows(14, 96);
    let expected: Vec<u64> = batch
        .iter()
        .map(|r| model.predict_prob_encoded(&r.row, &r.mask).to_bits())
        .collect();

    let handle = serve(
        ModelSource::Artifact(&artifact),
        "127.0.0.1:0",
        &ServeConfig::default(),
    )
    .expect("bind");
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");

    // Twice: the first pass runs the kernel over every row, the second
    // answers from the reactor's cache; neither may change a single bit.
    for pass in ["compute", "cached"] {
        let preds = client.predict(batch.clone()).expect("predict");
        for (i, (p, e)) in preds.iter().zip(&expected).enumerate() {
            assert_eq!(
                p.prob.to_bits(),
                *e,
                "{pass} pass, row {i}: served {} != in-process",
                p.prob
            );
        }
    }

    // The hit/miss tallies sum to exactly the rows served, and every
    // distinct row was cached once.
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        2 * batch.len() as u64
    );
    assert_eq!(stats.cache_hits, batch.len() as u64, "second pass all hits");
    assert_eq!(
        gauge_value(&handle.metrics_text(), "esp_serve_cache_entries"),
        Some(batch.len() as f64),
        "every distinct key cached exactly once"
    );
    handle.shutdown();
}

#[test]
fn concurrent_connections_interleave_without_corruption() {
    let artifact = ModelArtifact::synthetic(10, 4, 55);
    let model = artifact.to_model();
    let handle = serve(
        ModelSource::Artifact(&artifact),
        "127.0.0.1:0",
        &ServeConfig::default(),
    )
    .expect("bind");
    let addr = handle.addr().to_string();

    // 6 clients, each hammering its own disjoint row set concurrently;
    // every response must carry that client's exact in-process bits, so
    // any cross-connection response mixup shows up as a wrong bit
    // pattern.
    let model = Arc::new(model);
    std::thread::scope(|s| {
        for t in 0..6usize {
            let addr = addr.clone();
            let model = Arc::clone(&model);
            s.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mine: Vec<PredictRow> = (0..32)
                    .map(|i| PredictRow {
                        row: (0..10)
                            .map(|j| ((t * 1000 + i * 17 + j) as f64).cos())
                            .collect(),
                        mask: vec![true; 10],
                    })
                    .collect();
                let expected: Vec<u64> = mine
                    .iter()
                    .map(|r| model.predict_prob_encoded(&r.row, &r.mask).to_bits())
                    .collect();
                for round in 0..20 {
                    let preds = client.predict(mine.clone()).expect("predict");
                    for (i, (p, e)) in preds.iter().zip(&expected).enumerate() {
                        assert_eq!(
                            p.prob.to_bits(),
                            *e,
                            "client {t} round {round} row {i}: wrong bits"
                        );
                    }
                }
            });
        }
    });

    let mut client = Client::connect(&addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.predictions, 6 * 20 * 32);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.predictions);
    assert_eq!(
        stats.cache_misses,
        6 * 32,
        "each distinct row computed once"
    );
    handle.shutdown();
}
