//! Zero-downtime hot reload, end to end: serve a registry model with the
//! watcher polling, publish a newer version mid-traffic, and check that
//! the swap is atomic — every in-flight and subsequent request succeeds,
//! every answer is bitwise one model or the other (never a blend), the
//! version gauge flips, and pinned selectors behave.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use esp_artifact::{ModelArtifact, Registry};
use esp_serve::metrics::gauge_value;
use esp_serve::{serve, Client, ModelSource, PredictRow, ServeConfig};

#[test]
fn mid_traffic_reload_drops_zero_requests_and_flips_the_gauge() {
    let dim = 8;
    let root = std::env::temp_dir().join(format!("esp-reload-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let reg = Registry::open(&root);

    let v1_artifact = ModelArtifact::synthetic(dim, 3, 11);
    let v2_artifact = ModelArtifact::synthetic(dim, 3, 22);
    assert_eq!(reg.publish("panel", &v1_artifact).expect("publish v1"), 1);

    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let source = ModelSource::Registry {
        registry: &reg,
        models: &[("panel".to_string(), None)],
        reload_watch_ms: Some(10),
    };
    let handle = serve(source, "127.0.0.1:0", &cfg).expect("bind");
    let addr = handle.addr().to_string();

    let rows: Vec<PredictRow> = (0..24)
        .map(|i| PredictRow {
            row: (0..dim).map(|j| ((i * 7 + j * 3) as f64).sin()).collect(),
            mask: vec![true; dim],
        })
        .collect();
    let v1_bits: Vec<u64> = rows
        .iter()
        .map(|r| v1_artifact.to_model().predict_prob_encoded(&r.row, &r.mask).to_bits())
        .collect();
    let v2_bits: Vec<u64> = rows
        .iter()
        .map(|r| v2_artifact.to_model().predict_prob_encoded(&r.row, &r.mask).to_bits())
        .collect();
    assert_ne!(v1_bits, v2_bits, "the two versions must be distinguishable");

    // Hammer the server from two connections while the swap happens. Every
    // response must be entirely v1 bits or entirely v2 bits — a batch is
    // dispatched against one resolved entry — and nothing may error.
    let stop = AtomicBool::new(false);
    let served_v2 = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut client = Client::connect(&addr).expect("connect");
                while !stop.load(Ordering::Relaxed) {
                    let preds = client.predict(rows.clone()).expect("predict during reload");
                    let got: Vec<u64> = preds.iter().map(|p| p.prob.to_bits()).collect();
                    if got == v2_bits {
                        served_v2.fetch_add(1, Ordering::Relaxed);
                    } else {
                        assert_eq!(got, v1_bits, "response blends model versions");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Let traffic flow, then publish v2 and wait for the watcher.
        while completed.load(Ordering::Relaxed) < 20 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(reg.publish("panel", &v2_artifact).expect("publish v2"), 2);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let text = handle.metrics_text();
            if gauge_value(&text, "esp_serve_model_version") == Some(2.0) {
                break;
            }
            assert!(Instant::now() < deadline, "reload never happened");
            std::thread::sleep(Duration::from_millis(5));
        }
        // A few more requests after the flip, then stop.
        let after_flip = completed.load(Ordering::Relaxed);
        while completed.load(Ordering::Relaxed) < after_flip + 10 {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(
        served_v2.load(Ordering::Relaxed) > 0,
        "traffic after the flip must be served by v2"
    );

    // The reload counter advanced exactly once and the selectors agree:
    // the bare name and @2 resolve, the stale pin @1 is a clean error.
    let text = handle.metrics_text();
    assert_eq!(gauge_value(&text, "esp_serve_reloads_total"), Some(1.0));
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.info_model("panel").expect("info").model_version, 2);
    assert_eq!(client.info_model("panel@2").expect("info").model_version, 2);
    let err = client.info_model("panel@1").expect_err("stale pin");
    assert!(
        err.to_string().contains("version 2"),
        "stale-pin error should name the live version, got: {err}"
    );

    // Fresh rows after the swap: pure v2 bits, including through the cache.
    for _ in 0..2 {
        let preds = client.predict(rows.clone()).expect("predict post-reload");
        let got: Vec<u64> = preds.iter().map(|p| p.prob.to_bits()).collect();
        assert_eq!(got, v2_bits, "post-reload traffic must be v2");
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn pinned_models_never_reload() {
    let root = std::env::temp_dir().join(format!("esp-reload-pin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let reg = Registry::open(&root);
    let v1 = ModelArtifact::synthetic(6, 2, 7);
    reg.publish("fixed", &v1).expect("publish v1");

    let source = ModelSource::Registry {
        registry: &reg,
        models: &[("fixed".to_string(), Some(1))],
        reload_watch_ms: Some(5),
    };
    let handle = serve(source, "127.0.0.1:0", &ServeConfig::default()).expect("bind");

    reg.publish("fixed", &ModelArtifact::synthetic(6, 2, 8))
        .expect("publish v2");
    std::thread::sleep(Duration::from_millis(100));

    let mut client = Client::connect(handle.addr().to_string()).expect("connect");
    assert_eq!(client.info().expect("info").model_version, 1, "pin must hold");
    assert_eq!(
        gauge_value(&handle.metrics_text(), "esp_serve_reloads_total"),
        Some(0.0)
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
