//! Shutdown never hangs. Every server thread blocks without a timeout (the
//! reactor and the HTTP sidecar in `poll(2)`, the reload watcher for its
//! whole interval), so a missed wake-up would hang shutdown rather than
//! slow it: each check runs the wait on a helper thread and fails after
//! 2 s instead of hanging the suite.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use esp_artifact::{ModelArtifact, Registry};
use esp_serve::{serve, Client, ModelSource, ServeConfig, ServerHandle};

const PROMPT: Duration = Duration::from_secs(2);

/// A registry server with the sidecar and a reload watcher whose interval
/// outlasts the test, plus the registry directory to remove afterwards.
fn start(tag: &str) -> (ServerHandle, PathBuf) {
    let root = std::env::temp_dir().join(format!("esp-shutdown-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root);
    registry
        .publish("m", &ModelArtifact::synthetic(6, 3, 9))
        .expect("publish");
    let cfg = ServeConfig {
        http_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let source = ModelSource::Registry {
        registry: &registry,
        models: &[("m".to_string(), None)],
        reload_watch_ms: Some(60_000),
    };
    (serve(source, "127.0.0.1:0", &cfg).expect("bind"), root)
}

/// A connection the reactor has accepted and answered, then left idle.
fn idle_client(handle: &ServerHandle) -> Client {
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.info().expect("info");
    client
}

#[test]
fn shutdown_returns_promptly_beside_an_idle_connection() {
    let (handle, root) = start("handle");
    let _idle = idle_client(&handle);
    let (tx, rx) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        handle.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(PROMPT)
        .expect("ServerHandle::shutdown did not return within 2 s");
    stopper.join().expect("shutdown thread");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_shutdown_frame_ends_wait_and_closes_the_sidecar() {
    let (mut handle, root) = start("frame");
    let http = handle.http_addr().expect("sidecar address");
    let _idle = idle_client(&handle);
    Client::connect(handle.addr())
        .expect("connect")
        .shutdown()
        .expect("shutdown ack");
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        handle.wait();
        let _ = tx.send(());
    });
    rx.recv_timeout(PROMPT)
        .expect("wait() did not return within 2 s of a SHUTDOWN frame");
    waiter.join().expect("wait thread");
    assert!(
        TcpStream::connect(http).is_err(),
        "the sidecar still accepts connections after shutdown"
    );
    let _ = std::fs::remove_dir_all(&root);
}
