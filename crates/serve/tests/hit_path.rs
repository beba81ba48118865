//! A PREDICT whose rows all hit the cache is answered from the cache:
//! after one warming request, 300 repeats of the same batch serve the
//! warm bits, count as hits only, and each still records exactly one
//! `esp_serve_predict_compute_us` sample.

use esp_artifact::ModelArtifact;
use esp_serve::metrics::gauge_value;
use esp_serve::{serve, Client, ModelSource, PredictRow, ServeConfig};

#[test]
fn cache_hits_are_tallied_and_timed_once_per_predict() {
    let dim = 16;
    let artifact = ModelArtifact::synthetic(dim, 6, 23);
    let handle = serve(
        ModelSource::Artifact(&artifact),
        "127.0.0.1:0",
        &ServeConfig::default(),
    )
    .expect("bind");
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
    let count_before = compute_count(&handle);
    for _ in 0..300 {
        let preds = client.predict(batch.clone()).expect("predict");
        assert!(preds
            .iter()
            .zip(&warm)
            .all(|(p, w)| p.prob.to_bits() == w.prob.to_bits()));
    }
    assert_eq!(
        compute_count(&handle) - count_before,
        300.0,
        "one compute sample per PREDICT"
    );
    let stats = client.stats().expect("stats");
    assert_eq!((stats.cache_misses, stats.cache_hits), (32, 300 * 32));
    handle.shutdown();
}
