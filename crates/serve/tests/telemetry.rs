//! End-to-end test of the telemetry plane: train a real model, serve it
//! with the HTTP sidecar up, predict every profiled branch site, stream
//! the fold's ground-truth outcomes back through `PROFILE`, and check the
//! server ledger's observed miss rate against the in-process Table-4
//! accounting (`BranchCounts::misses`) computed from the same probabilities.
//! Also locks the STATS-vs-`/metrics` byte-identity contract and the
//! sidecar's JSON routes.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use esp_artifact::{ModelArtifact, ModelMeta};
use esp_core::{encode, EspConfig, EspModel, Learner, TrainingProgram};
use esp_eval::SuiteData;
use esp_nnet::MlpConfig;
use esp_serve::{serve, site_key, Client, ModelSource, PredictRow, ProfileRecord, ServeConfig};

/// Minimal HTTP/1.1 GET over a raw `TcpStream`: returns (status line, body).
/// A response that takes over 10 s fails the test instead of hanging it.
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect sidecar");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("utf-8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    (
        head.lines().next().unwrap_or("").to_string(),
        body.to_string(),
    )
}

fn train_quick_model() -> (SuiteData, EspModel) {
    let suite = SuiteData::build_subset(&["sort", "grep"], &esp_lang::CompilerConfig::default(), 0);
    let group: Vec<TrainingProgram<'_>> = suite
        .benches
        .iter()
        .map(|b| TrainingProgram::new(&b.prog, &b.analysis, &b.profile))
        .collect();
    let cfg = EspConfig {
        learner: Learner::Net(MlpConfig {
            hidden: 4,
            max_epochs: 25,
            patience: 6,
            restarts: 1,
            ..MlpConfig::default()
        }),
        threads: 1,
        ..EspConfig::default()
    };
    let model = EspModel::train(&group, &cfg);
    (suite, model)
}

#[test]
fn profile_loop_reproduces_in_process_miss_rate() {
    let (suite, model) = train_quick_model();
    let artifact = ModelArtifact::from_model(
        &model,
        ModelMeta {
            corpus_id: "telemetry-e2e".into(),
            seed: MlpConfig::default().seed,
            fold: None,
            examples: model.num_examples() as u64,
            train_config: "telemetry quick net".into(),
        },
        None,
    )
    .expect("network model");

    let cfg = ServeConfig {
        http_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let handle =
        serve(ModelSource::Artifact(&artifact), "127.0.0.1:0", &cfg).expect("bind ephemeral port");
    let http = handle.http_addr().expect("sidecar bound").to_string();
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");

    // Every profiled branch site: a predict row, its ledger key, and the
    // ground-truth execution counts the profile replay will stream back.
    let set = *model.encoder().feature_set();
    let mut rows: Vec<PredictRow> = Vec::new();
    let mut records: Vec<ProfileRecord> = Vec::new();
    let mut expected_misses = 0.0f64;
    let mut total_executed = 0u64;
    for b in &suite.benches {
        for site in b.prog.branch_sites() {
            let Some(counts) = b.profile.counts(site) else {
                continue;
            };
            let f = esp_core::extract(&b.prog, &b.analysis, site);
            let (row, mask) = encode(&f, &set);
            let key = site_key(&row, &mask);
            let prob = model.predict_prob(&b.prog, &b.analysis, site);
            expected_misses += counts.misses(Some(prob > 0.5));
            total_executed += counts.executed;
            records.push(ProfileRecord {
                site_key: key.clone(),
                taken: true,
                weight: counts.taken as f64,
            });
            records.push(ProfileRecord {
                site_key: key,
                taken: false,
                weight: (counts.executed - counts.taken) as f64,
            });
            rows.push(PredictRow { row, mask });
        }
    }
    assert!(
        rows.len() > 50,
        "want a meaty fold, got {} sites",
        rows.len()
    );
    let expected_rate = expected_misses / total_executed as f64;

    // Serve first (the ledger joins outcomes against served sites), then
    // replay the fold's ground truth through PROFILE.
    client.predict(rows.clone()).expect("predict batch");
    let ack = client.profile(records.clone()).expect("profile batch");
    assert_eq!(ack.applied, records.len() as u64, "every outcome must join");
    assert_eq!(ack.unmatched, 0);

    // The ledger's observed miss rate is the Table-4 number: identical
    // per-site mispredict masses, identical total mass.
    let summary = handle.ledger_summary();
    assert!(summary.sites > 0);
    assert!(
        (summary.observed_miss_rate - expected_rate).abs() < 1e-12,
        "ledger observed {} != in-process {}",
        summary.observed_miss_rate,
        expected_rate
    );
    assert!((summary.observed_weight - total_executed as f64).abs() < 1e-9);
    assert!(summary.calibration_ece.is_finite());
    assert!(summary.calibration_ece >= 0.0 && summary.calibration_ece <= 1.0);

    // Byte-identity on a quiesced server: a STATS reply records its own
    // request before rendering, so the exposition it carries is exactly
    // what follow-up `/metrics` scrapes and the local handle render (HTTP
    // scrapes never touch the registry).
    let stats = client.stats().expect("stats");
    let (status, scraped) = http_get(&http, "/metrics");
    assert!(status.contains(" 200 "), "GET /metrics: {status}");
    assert_eq!(scraped, stats.exposition, "/metrics != STATS exposition");
    assert_eq!(
        scraped,
        handle.metrics_text(),
        "/metrics != local exposition"
    );
    let (_, scraped_again) = http_get(&http, "/metrics");
    assert_eq!(
        scraped, scraped_again,
        "scraping must not perturb the registry"
    );
    // The histograms and ledger size are the series the repository
    // benchmark parses out of its scrapes.
    for series in [
        "esp_serve_requests_total",
        "esp_serve_request_us_bucket{le=\"",
        "esp_serve_predict_compute_us_bucket{le=\"",
        "esp_serve_batch_size_bucket{le=\"",
        "\nesp_ledger_sites ",
        "esp_ledger_profile_records_total",
        "esp_ledger_observed_miss_rate",
        "esp_ledger_calibration_ece",
    ] {
        assert!(scraped.contains(series), "/metrics is missing {series:?}");
    }

    // /healthz reports live model facts and the ledger switch.
    let (status, health) = http_get(&http, "/healthz");
    assert!(status.contains(" 200 "), "GET /healthz: {status}");
    assert!(health.contains("\"model\": \"telemetry-e2e\""));
    assert!(health.contains("\"protocol_version\": 4"));
    assert!(health.contains("\"reloads_total\": 0"));
    assert!(!health.contains("shard"), "/healthz still reports shards");
    assert!(health.contains("\"ledger_enabled\": true"));
    assert!(health.contains("\"window\""));

    // /sitez carries the hot-site table; top=3 caps it.
    let (status, sitez) = http_get(&http, "/sitez?top=3");
    assert!(status.contains(" 200 "), "GET /sitez: {status}");
    assert!(sitez.contains("\"sites\": ["));
    assert!(sitez.contains("\"observed_miss_rate\""));
    assert_eq!(
        sitez.matches("\"site\":").count(),
        3.min(summary.sites as usize)
    );

    // Route hygiene: bad queries are 400, unknown paths 404, non-GET 405.
    let (status, _) = http_get(&http, "/sitez?top=x");
    assert!(status.contains(" 400 "), "bad top: {status}");
    let (status, _) = http_get(&http, "/nope");
    assert!(status.contains(" 404 "), "unknown route: {status}");

    // SHUTDOWN tears down the sidecar with the frame acceptor.
    client.shutdown().expect("shutdown ack");
    handle.join();
    assert!(
        TcpStream::connect(&http).is_err(),
        "sidecar must stop listening after shutdown"
    );
}

#[test]
fn disabled_ledger_drops_outcomes_without_state() {
    let artifact = ModelArtifact::synthetic(8, 3, 5);
    let cfg = ServeConfig {
        ledger: false,
        http_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let handle = serve(ModelSource::Artifact(&artifact), "127.0.0.1:0", &cfg).expect("bind");
    let http = handle.http_addr().expect("sidecar bound").to_string();
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");

    let row = PredictRow {
        row: vec![0.5; 8],
        mask: vec![true; 8],
    };
    client.predict(vec![row.clone()]).expect("predict");
    let ack = client
        .profile(vec![ProfileRecord {
            site_key: site_key(&row.row, &row.mask),
            taken: true,
            weight: 2.0,
        }])
        .expect("profile");
    assert_eq!(
        (ack.applied, ack.unmatched),
        (0, 0),
        "disabled ledger must drop"
    );
    let summary = handle.ledger_summary();
    assert_eq!(summary.sites, 0);
    assert_eq!(summary.served, 0);

    // The exposition still renders the (empty) ledger families, and
    // /healthz says the switch is off.
    assert!(handle.metrics_text().contains("esp_ledger_sites 0"));
    let (_, health) = http_get(&http, "/healthz");
    assert!(health.contains("\"ledger_enabled\": false"));
    handle.shutdown();
}

#[test]
fn bad_http_addr_fails_startup() {
    let artifact = ModelArtifact::synthetic(6, 2, 9);
    let cfg = ServeConfig {
        http_addr: Some("not-an-address".into()),
        ..ServeConfig::default()
    };
    match serve(ModelSource::Artifact(&artifact), "127.0.0.1:0", &cfg) {
        Err(_) => {} // any io::Error is fine — startup must fail, not limp
        Ok(_) => panic!("an unbindable --http-addr must fail startup"),
    }
}

/// A client that sends the sidecar one byte of a header block that never
/// ends every 200 ms, until the sidecar answers (at most 50 bytes, so a
/// sidecar that never answers cannot keep it running). Returns the answer.
fn trickle(addr: &str) -> std::thread::JoinHandle<String> {
    let mut stream = TcpStream::connect(addr).expect("connect sidecar");
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set read timeout");
    std::thread::spawn(move || {
        let mut reply = Vec::new();
        let mut buf = [0u8; 512];
        for _ in 0..50 {
            if stream.write_all(b"x").is_err() {
                break;
            }
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    reply.extend_from_slice(&buf[..n]);
                    let _ = stream.read_to_end(&mut reply);
                    break;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => break,
            }
        }
        String::from_utf8_lossy(&reply).into_owned()
    })
}

/// The sidecar serves one connection at a time, and every request's header
/// block gets 2 s (`READ_TIMEOUT`) from accept, however slowly it arrives.
/// So a client trickling bytes delays neither a concurrent scrape nor a
/// shutdown by more than that, and is itself answered 408.
#[test]
fn trickling_client_cannot_hold_the_sidecar() {
    const BOUND: Duration = Duration::from_secs(3); // READ_TIMEOUT + 1 s
    let artifact = ModelArtifact::synthetic(8, 3, 5);
    let cfg = ServeConfig {
        http_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let handle = serve(ModelSource::Artifact(&artifact), "127.0.0.1:0", &cfg).expect("bind");
    let http = handle.http_addr().expect("sidecar bound").to_string();

    let slow = trickle(&http);
    std::thread::sleep(Duration::from_millis(300)); // the sidecar is reading it
    let t = Instant::now();
    let (status, body) = http_get(&http, "/metrics");
    let waited = t.elapsed();
    assert!(
        waited < BOUND,
        "a trickling client held a scrape for {waited:?}"
    );
    assert!(status.contains("200"), "scrape answered {status:?}");
    assert!(body.contains("esp_serve_requests_total"));
    let reply = slow.join().expect("trickle thread");
    assert!(
        reply.starts_with("HTTP/1.1 408"),
        "the trickling client got {reply:?}"
    );

    let slow = trickle(&http);
    std::thread::sleep(Duration::from_millis(300));
    let t = Instant::now();
    handle.shutdown();
    let waited = t.elapsed();
    assert!(
        waited < BOUND,
        "a trickling client held shutdown for {waited:?}"
    );
    slow.join().expect("trickle thread");
}

/// A header block over the sidecar's 8 KiB cap is answered 431, and the
/// sidecar closes cleanly: the client, which sent 9,000 bytes and reads
/// only after sending them all, gets the whole response and then end of
/// stream (not a reset), well within the request's 2 s deadline. Scrapes
/// after it are served as before.
#[test]
fn oversized_header_block_gets_431_and_a_clean_close() {
    let artifact = ModelArtifact::synthetic(8, 3, 5);
    let cfg = ServeConfig {
        http_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let handle = serve(ModelSource::Artifact(&artifact), "127.0.0.1:0", &cfg).expect("bind");
    let http = handle.http_addr().expect("sidecar bound").to_string();

    let mut stream = TcpStream::connect(&http).expect("connect sidecar");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let request = format!(
        "GET /metrics HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(9_000)
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let t = Instant::now();
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("the response ends in a clean end of stream");
    let waited = t.elapsed();
    let text = String::from_utf8(raw).expect("utf-8 response");
    assert!(
        text.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
        "{text:?}"
    );
    assert!(text.ends_with("\r\n\r\nrequest header block exceeds 8 KiB\n"));
    assert!(
        waited < Duration::from_secs(2),
        "the 431 took {waited:?} to end"
    );
    drop(stream);

    let (status, body) = http_get(&http, "/metrics");
    assert!(status.contains("200"), "scrape answered {status:?}");
    assert!(body.contains("esp_serve_requests_total"));
    handle.shutdown();
}
