//! Connection-churn soak: the old thread-per-connection acceptor pushed
//! every spawned JoinHandle into an unbounded `workers` Vec, so sequential
//! connections leaked a parked thread each. The event-loop reactor owns
//! no per-connection threads at all; this test opens and drops hundreds of
//! sequential connections and asserts the process thread count and
//! resident memory stay flat (Linux-only: it reads `/proc/self/status`).

#![cfg(target_os = "linux")]

use esp_artifact::ModelArtifact;
use esp_serve::{serve, Client, ModelSource, PredictRow, ServeConfig};

/// Read a numeric field (e.g. `Threads`, `VmRSS`) out of /proc/self/status.
fn proc_status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field).and_then(|r| r.strip_prefix(':')))
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparsable {field}"))
}

#[test]
fn five_hundred_sequential_connections_leak_nothing() {
    let artifact = ModelArtifact::synthetic(8, 3, 17);
    let handle = serve(
        ModelSource::Artifact(&artifact),
        "127.0.0.1:0",
        &ServeConfig::default(),
    )
    .expect("bind");
    let addr = handle.addr().to_string();
    let row = PredictRow {
        row: vec![0.5; 8],
        mask: vec![true; 8],
    };

    // Warm: let the reactor and the allocator reach steady
    // state before measuring.
    for _ in 0..20 {
        let mut c = Client::connect(&addr).expect("connect");
        c.predict(vec![row.clone()]).expect("predict");
    }
    let threads_before = proc_status("Threads");
    let rss_before = proc_status("VmRSS"); // kB

    for i in 0..500 {
        let mut c = Client::connect(&addr).unwrap_or_else(|e| panic!("connect {i}: {e}"));
        let preds = c
            .predict(vec![row.clone()])
            .unwrap_or_else(|e| panic!("predict {i}: {e}"));
        assert_eq!(preds.len(), 1);
        // Dropping the client closes the socket; the reactor reaps the
        // connection state on its next sweep.
    }

    // Give the reactor a moment to retire the last closed connections.
    std::thread::sleep(std::time::Duration::from_millis(100));
    let threads_after = proc_status("Threads");
    let rss_after = proc_status("VmRSS");

    assert_eq!(
        threads_after, threads_before,
        "thread count grew across 500 sequential connections"
    );
    // RSS is allowed jitter (allocator slack, page rounding) but not the
    // ~8 MiB x 500 a stack-per-connection leak would cost.
    assert!(
        rss_after <= rss_before + 10 * 1024,
        "RSS grew {rss_before} kB -> {rss_after} kB across 500 connections"
    );

    let mut c = Client::connect(&addr).expect("connect");
    let stats = c.stats().expect("stats");
    assert!(stats.connections >= 521, "every connection was accepted");
    handle.shutdown();
}
