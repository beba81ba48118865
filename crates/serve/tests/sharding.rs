//! The shard-routing invariant, end to end: probabilities served across
//! any shard count are bitwise identical to a single shard and to
//! in-process inference — from one connection or many concurrent ones —
//! and the per-shard health counters account for every row.

use std::sync::Arc;

use esp_artifact::{AnyArtifact, ModelArtifact};
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
fn any_shard_count_serves_identical_bits() {
    let artifact = AnyArtifact::F64(ModelArtifact::synthetic(14, 5, 101));
    let model = artifact.to_model();
    let batch = rows(14, 96);
    let expected: Vec<u64> = batch
        .iter()
        .map(|r| model.predict_prob_encoded(&r.row, &r.mask).to_bits())
        .collect();

    for shards in [1usize, 2, 4, 7] {
        let cfg = ServeConfig {
            shards,
            ..ServeConfig::default()
        };
        let handle = serve(ModelSource::Artifact(&artifact), "127.0.0.1:0", &cfg).expect("bind");
        let mut client = Client::connect(handle.addr().to_string()).expect("connect");

        // Twice: the second pass answers from the per-shard caches, which
        // must not change a single bit either.
        for pass in ["compute", "cached"] {
            let preds = client.predict(batch.clone()).expect("predict");
            for (i, (p, e)) in preds.iter().zip(&expected).enumerate() {
                assert_eq!(
                    p.prob.to_bits(),
                    *e,
                    "{shards} shards, {pass} pass, row {i}: served {} != in-process",
                    p.prob
                );
            }
        }

        // Shard health: the gauge count matches the config, and the
        // per-shard hit/miss tallies sum to exactly the rows served.
        let exposition = handle.metrics_text();
        assert_eq!(
            gauge_value(&exposition, "esp_serve_shards"),
            Some(shards as f64),
            "shard gauge"
        );
        let stats = client.stats().expect("stats");
        assert_eq!(stats.cache_hits + stats.cache_misses, 2 * batch.len() as u64);
        assert_eq!(stats.cache_hits, batch.len() as u64, "second pass all hits");
        let mut entries_sum = 0.0;
        for i in 0..shards {
            entries_sum += gauge_value(&exposition, &format!("esp_serve_shard_{i}_cache_entries"))
                .unwrap_or_else(|| panic!("missing shard {i} entries gauge"));
            assert!(
                gauge_value(&exposition, &format!("esp_serve_shard_{i}_queue_depth")).is_some(),
                "missing shard {i} queue gauge"
            );
            assert!(
                gauge_value(&exposition, &format!("esp_serve_shard_{i}_cache_hit_ratio"))
                    .is_some(),
                "missing shard {i} hit-ratio gauge"
            );
        }
        assert_eq!(
            entries_sum as u64,
            batch.len() as u64,
            "every distinct key cached exactly once across shards"
        );
        handle.shutdown();
    }
}

#[test]
fn concurrent_connections_interleave_without_corruption() {
    let artifact = AnyArtifact::F64(ModelArtifact::synthetic(10, 4, 55));
    let model = artifact.to_model();
    let cfg = ServeConfig {
        shards: 3,
        ..ServeConfig::default()
    };
    let handle = serve(ModelSource::Artifact(&artifact), "127.0.0.1:0", &cfg).expect("bind");
    let addr = handle.addr().to_string();

    // 6 clients, each hammering its own disjoint row set concurrently;
    // every response must carry that client's exact in-process bits, so
    // any cross-connection response mixup or shard race shows up as a
    // wrong bit pattern.
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
    handle.shutdown();
}
