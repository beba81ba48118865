//! An idle server burns no CPU: with a client connection held open, and
//! after a client that sent a PREDICT and closed without reading, every
//! server thread blocks (the reactor and the HTTP sidecar in `poll(2)`)
//! instead of spinning or napping.
//!
//! Linux-only: it reads each thread's on-CPU time from
//! `/proc/self/task/*/schedstat`. The file holds this one test, so no other
//! server shares its process.

#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::time::Duration;

use esp_artifact::ModelArtifact;
use esp_serve::protocol::write_frame;
use esp_serve::{serve, Client, ModelSource, PredictRow, Request, ServeConfig};

/// Summed on-CPU time, in nanoseconds, of this process's `esp-serve*`
/// threads.
fn server_cpu_ns() -> u64 {
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
        if comm.starts_with("esp-serve") {
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
fn an_idle_server_uses_no_cpu() {
    let dim = 8;
    let artifact = ModelArtifact::synthetic(dim, 3, 5);
    let cfg = ServeConfig {
        http_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let handle = serve(ModelSource::Artifact(&artifact), "127.0.0.1:0", &cfg).expect("bind");
    let rows = vec![PredictRow {
        row: vec![0.25; dim],
        mask: vec![true; dim],
    }];

    // One connection stays open after its PREDICT was answered.
    let mut held = Client::connect(handle.addr()).expect("connect");
    assert_eq!(held.predict(rows.clone()).expect("predict").len(), 1);

    // Another sends a PREDICT and closes without reading the reply.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    let frame = Request::Predict {
        model: String::new(),
        rows,
    }
    .encode_with_id(7)
    .expect("encode");
    write_frame(&mut raw, &frame).expect("send");
    drop(raw);

    std::thread::sleep(Duration::from_millis(100));
    let before = server_cpu_ns();
    std::thread::sleep(Duration::from_secs(1));
    let used = server_cpu_ns() - before;
    assert!(
        used < 2_000_000,
        "idle server threads used {:.3} ms of CPU in 1 s",
        used as f64 / 1e6
    );

    drop(held);
    handle.shutdown();
}
