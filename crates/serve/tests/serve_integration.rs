//! End-to-end test of the serving subsystem: train a real (small) ESP model,
//! publish it to a registry, serve it on an ephemeral port, drive it with
//! `Client`, and check that every probability that comes back over TCP is
//! bitwise identical to in-process inference — plus cache accounting,
//! graceful shutdown, and the binary's refusal of flags it does not know.

use esp_artifact::{ModelArtifact, ModelMeta, Registry};
use esp_core::{encode, EspConfig, EspModel, Learner, TrainingProgram};
use esp_eval::SuiteData;
use esp_nnet::MlpConfig;
use esp_serve::{serve, Client, ModelSource, PredictRow, ServeConfig};

#[test]
fn served_predictions_match_in_process_bitwise() {
    // Train a quick real model on two corpus programs.
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

    // Publish to a registry and reload — the server sees only the artifact.
    let root = std::env::temp_dir().join(format!("esp-serve-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let reg = Registry::open(&root);
    let artifact = ModelArtifact::from_model(
        &model,
        ModelMeta {
            corpus_id: "serve-integration".into(),
            seed: MlpConfig::default().seed,
            fold: None,
            examples: model.num_examples() as u64,
            train_config: "serve-integration quick net".into(),
        },
        None,
    )
    .expect("network model");
    reg.publish("it-model", &artifact).expect("publish");
    let (_, served_artifact) = reg.load("it-model", None).expect("reload");

    // Serve on an ephemeral loopback port.
    let source = ModelSource::Artifact(&served_artifact);
    let handle =
        serve(source, "127.0.0.1:0", &ServeConfig::default()).expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let info = client.info().expect("info");
    assert_eq!(info.dim as usize, artifact.dim());
    assert_eq!(info.corpus_id, "serve-integration");

    // Every branch site of every program: raw encoded rows over the wire
    // must come back with the exact bits in-process inference produces.
    let set = *model.encoder().feature_set();
    let mut expected: Vec<f64> = Vec::new();
    let mut rows: Vec<PredictRow> = Vec::new();
    for b in &suite.benches {
        for site in b.prog.branch_sites() {
            let f = esp_core::extract(&b.prog, &b.analysis, site);
            let (row, mask) = encode(&f, &set);
            rows.push(PredictRow { row, mask });
            expected.push(model.predict_prob(&b.prog, &b.analysis, site));
        }
    }
    assert!(rows.len() > 50, "want a meaty batch, got {}", rows.len());

    let preds = client.predict(rows.clone()).expect("predict batch");
    assert_eq!(preds.len(), expected.len());
    for (i, (p, e)) in preds.iter().zip(&expected).enumerate() {
        assert_eq!(
            p.prob.to_bits(),
            e.to_bits(),
            "row {i}: served {} != in-process {e}",
            p.prob
        );
        assert_eq!(p.taken, *e > 0.5, "row {i}: direction disagrees");
    }

    // Re-sending the same batch must be answered from the cache, and the
    // hit counter must advance by exactly the batch size.
    let stats_before = client.stats().expect("stats");
    let again = client.predict(rows.clone()).expect("cached batch");
    for (p, e) in again.iter().zip(&expected) {
        assert_eq!(p.prob.to_bits(), e.to_bits(), "cache must not change bits");
    }
    let stats_after = client.stats().expect("stats");
    assert_eq!(
        stats_after.cache_hits - stats_before.cache_hits,
        rows.len() as u64,
        "second pass should be all cache hits"
    );
    assert!(stats_after.cache_hit_rate() > 0.0);
    assert_eq!(stats_after.predictions, 2 * rows.len() as u64);

    // Graceful shutdown: acknowledged over the wire, then the whole server
    // (acceptor + connection threads) joins.
    client.shutdown().expect("shutdown ack");
    handle.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn f32_serving_matches_in_process_quantized_inference_bitwise() {
    // A quantized artifact round-trips its bytes and serves at f32, the
    // precision it stores.
    let q = ModelArtifact::synthetic(12, 4, 33).quantize();
    let q = ModelArtifact::from_bytes(&q.to_bytes()).expect("f32 artifact round-trips");
    let qmodel = q.to_model();
    let handle = serve(
        ModelSource::Artifact(&q),
        "127.0.0.1:0",
        &ServeConfig::default(),
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");

    let rows: Vec<PredictRow> = (0..40)
        .map(|i| PredictRow {
            row: (0..12).map(|j| ((i * 12 + j) as f64).sin()).collect(),
            mask: (0..12).map(|j| (i + j) % 7 != 0).collect(),
        })
        .collect();
    let preds = client.predict(rows.clone()).expect("predict");
    for (i, (p, r)) in preds.iter().zip(&rows).enumerate() {
        let local = qmodel.predict_prob_encoded(&r.row, &r.mask);
        assert_eq!(
            p.prob.to_bits(),
            local.to_bits(),
            "row {i}: served f32 {} != in-process f32 {local}",
            p.prob
        );
    }

    // The precision gauge reports the served width.
    assert!(handle
        .metrics_text()
        .contains("esp_serve_predict_precision 32"));
    handle.shutdown();
}

/// Run the `esp-serve` binary with `args` on an otherwise valid synthetic
/// model; returns its exit code and stderr. A binary still running after
/// ten seconds (it took the flags and is serving) is killed and reported
/// with no exit code.
fn run_esp_serve(args: &[&str]) -> (Option<i32>, String) {
    use std::io::Read;
    use std::process::{Command, Stdio};
    use std::time::{Duration, Instant};

    let mut child = Command::new(env!("CARGO_BIN_EXE_esp-serve"))
        .args(["--synthetic", "6,3,1", "--addr", "127.0.0.1:0"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn esp-serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    let code = loop {
        if let Some(status) = child.try_wait().expect("poll esp-serve") {
            break status.code();
        }
        if Instant::now() > deadline {
            child.kill().expect("kill esp-serve");
            child.wait().expect("reap esp-serve");
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("read esp-serve stderr");
    (code, stderr)
}

#[test]
fn unknown_flags_exit_2_before_serving() {
    // `--threads` is not an esp-serve flag, and there is no `--precision`:
    // an artifact serves at its own. A value flag never takes a flag as
    // its value, no flag may be given twice, the registry flags mean
    // nothing with a `--synthetic` model, and `--shards` takes only 1
    // (the event loop computes every miss). Each must stop the binary
    // instead of silently serving without it.
    for (args, named) in [
        (&["--threads", "2"][..], "--threads"),
        (&["--precision", "f32"][..], "--precision"),
        (&["--metrics-out", "--no-ledger"][..], "--metrics-out"),
        (&["--name", "m"][..], "--name"),
        (&["--reload-watch", "50"][..], "--reload-watch"),
        (&["--cache", "8", "--cache", "9"][..], "--cache"),
        (&["--shards", "2"][..], "--shards"),
        (&["--shards", "0"][..], "--shards"),
    ] {
        let (code, stderr) = run_esp_serve(args);
        assert_eq!(code, Some(2), "{args:?}: stderr was {stderr:?}");
        assert!(
            stderr.contains(named),
            "{args:?}: message must name {named}: {stderr:?}"
        );
        assert!(
            !stderr.contains("listening"),
            "{args:?}: server started: {stderr:?}"
        );
    }
}

#[test]
fn shards_1_still_serves() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    // Command lines written when misses went to worker threads (the
    // repository benchmark's among them) pass `--shards 1`.
    let mut child = Command::new(env!("CARGO_BIN_EXE_esp-serve"))
        .args([
            "--synthetic",
            "6,3,1",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "1",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn esp-serve");
    let stderr = std::io::BufReader::new(child.stderr.take().expect("stderr is piped"));
    let mut lines = stderr.lines().map_while(Result::ok);
    let addr = lines
        .find_map(|l| {
            Some(
                l.split_once("listening on ")?
                    .1
                    .split(' ')
                    .next()?
                    .to_string(),
            )
        })
        .expect("esp-serve --shards 1 never listened");
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.info().expect("info").dim, 6);
    client.shutdown().expect("shutdown");
    // Read stderr to its end, so the server's last line has a reader.
    lines.for_each(drop);
    assert!(child.wait().expect("reap esp-serve").success());
}

#[test]
fn esp_client_rejects_bad_flags_before_acting() {
    let dir = std::env::temp_dir().join(format!("esp-client-flags-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let d = dir.to_str().expect("utf-8 temp dir");
    let publish = ["registry", "publish", "--dir", d, "--name", "m"];
    for (args, named) in [
        (
            [&publish[..], &["--synthetic", "6,3,1", "--dry-run"]].concat(),
            "--dry-run",
        ),
        ([&publish[..], &["--synthetic"]].concat(), "--synthetic"),
        (
            [&publish[..], &["--synthetic", "6,3,1", "extra"]].concat(),
            "extra",
        ),
        (
            vec!["info", "--addr", "127.0.0.1:1", "--modle", "m"],
            "--modle",
        ),
        (vec!["stats", "--addr"], "--addr"),
        (
            vec!["registry", "list", "--dir", d, "--keep", "0"],
            "--keep",
        ),
        (
            vec!["info", "--addr", "127.0.0.1:1", "--addr", "127.0.0.1:2"],
            "--addr",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_esp-client"))
            .args(&args)
            .output()
            .expect("run esp-client");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(named),
            "{args:?} must name {named}: {stderr}"
        );
    }
    assert!(
        !dir.join("m").join("1.espm").exists(),
        "a rejected publish wrote m v1"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn esp_client_registry_list_names_a_missing_directory() {
    let dir = std::env::temp_dir().join(format!("esp-client-list-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let d = dir.to_str().expect("utf-8 temp dir");
    let list = || {
        std::process::Command::new(env!("CARGO_BIN_EXE_esp-client"))
            .args(["registry", "list", "--dir", d])
            .output()
            .expect("run esp-client")
    };
    let out = list();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(d), "must name {d}: {stderr}");
    assert!(out.stdout.is_empty(), "listed a missing registry");
    assert!(!dir.exists(), "listing created {d}");

    std::fs::create_dir(&dir).expect("create an empty registry");
    let out = list();
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "(empty registry)\n");
}

#[test]
fn one_row_and_multi_chunk_batches_are_bitwise_identical() {
    // The reactor computes misses in fixed-size kernel chunks: a 64-row
    // batch spans two of them, a 1-row batch is a chunk of 1. Both must
    // produce the same bits as in-process inference.
    let artifact = ModelArtifact::synthetic(10, 3, 77);
    let model = artifact.to_model();
    let rows: Vec<PredictRow> = (0..64)
        .map(|i| PredictRow {
            row: (0..10).map(|j| ((i + j * 31) as f64).cos()).collect(),
            mask: vec![true; 10],
        })
        .collect();
    let local: Vec<u64> = rows
        .iter()
        .map(|r| model.predict_prob_encoded(&r.row, &r.mask).to_bits())
        .collect();

    let cfg = ServeConfig {
        cache_capacity: 0, // force every row through the compute path
        ..ServeConfig::default()
    };
    let handle = serve(ModelSource::Artifact(&artifact), "127.0.0.1:0", &cfg).expect("bind");
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");
    let batched = client.predict(rows.clone()).expect("predict");
    let batched: Vec<u64> = batched.iter().map(|p| p.prob.to_bits()).collect();
    let single: Vec<u64> = rows
        .iter()
        .map(|r| {
            client.predict(vec![r.clone()]).expect("predict")[0]
                .prob
                .to_bits()
        })
        .collect();
    handle.shutdown();
    assert_eq!(
        batched, local,
        "a multi-chunk batch changed prediction bits"
    );
    assert_eq!(single, local, "a one-row batch changed prediction bits");
}

#[test]
fn dimension_mismatch_is_a_remote_error_not_a_crash() {
    let artifact = ModelArtifact::synthetic(9, 3, 21);
    let handle = serve(
        ModelSource::Artifact(&artifact),
        "127.0.0.1:0",
        &ServeConfig::default(),
    )
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");

    let bad = PredictRow {
        row: vec![0.0; 4],
        mask: vec![true; 4],
    };
    let err = client.predict(vec![bad]).expect_err("dim mismatch");
    assert!(
        matches!(err, esp_serve::ServeError::Remote(_)),
        "expected a remote error, got {err:?}"
    );

    // The connection survives the error and keeps serving.
    let good = PredictRow {
        row: vec![0.25; 9],
        mask: vec![true; 9],
    };
    let preds = client.predict(vec![good.clone()]).expect("still serving");
    let local = artifact
        .to_model()
        .predict_prob_encoded(&good.row, &good.mask);
    assert_eq!(preds[0].prob.to_bits(), local.to_bits());
    handle.shutdown();
}
