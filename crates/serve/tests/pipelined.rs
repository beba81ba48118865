//! Pipelining across both PREDICT paths: on one connection, a batch that
//! misses (run through the kernel), a batch that hits (answered from the
//! cache), another miss batch, a STATS, a PROFILE and a second STATS all
//! arrive in one write before any reply is read. Replies come back in
//! request order carrying the in-process bits, the PROFILE joins every
//! prediction served before it — the computed rows included — and each
//! STATS counts exactly the PROFILE records applied before it. A request
//! whose connection dies before its reply is written still caches and
//! records its computed rows.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use esp_artifact::ModelArtifact;
use esp_serve::metrics::gauge_value;
use esp_serve::protocol::{read_frame, write_frame};
use esp_serve::{
    serve, site_key, Client, ModelSource, PredictRow, ProfileAck, ProfileRecord, Request, Response,
    ServeConfig,
};

fn rows(dim: usize, seed: usize, n: usize) -> Vec<PredictRow> {
    (0..n)
        .map(|i| PredictRow {
            row: (0..dim)
                .map(|j| ((seed * 1000 + i * 13 + j) as f64).cos())
                .collect(),
            mask: (0..dim).map(|j| (i + j) % 7 != 0).collect(),
        })
        .collect()
}

#[test]
fn replies_keep_request_order_and_profile_joins_computed_rows() {
    let dim = 12;
    let artifact = ModelArtifact::synthetic(dim, 5, 77);
    let model = artifact.to_model();
    let handle = serve(
        ModelSource::Artifact(&artifact),
        "127.0.0.1:0",
        &ServeConfig::default(),
    )
    .expect("bind");

    // B's rows are cached (and in the ledger) before the pipeline starts.
    let (a, b, c) = (rows(dim, 1, 70), rows(dim, 2, 32), rows(dim, 3, 20));
    Client::connect(handle.addr())
        .expect("connect")
        .predict(b.clone())
        .expect("warm B");

    // A: 70 misses, three kernel chunks. B: all hits. C: 20 misses.
    let records: Vec<ProfileRecord> = a
        .iter()
        .chain(&b)
        .enumerate()
        .map(|(i, r)| ProfileRecord {
            site_key: site_key(&r.row, &r.mask),
            taken: i % 3 == 0,
            weight: 1.0 + i as f64,
        })
        .collect();
    let requests = [
        Request::Predict {
            model: String::new(),
            rows: a.clone(),
        },
        Request::Predict {
            model: String::new(),
            rows: b.clone(),
        },
        Request::Predict {
            model: String::new(),
            rows: c.clone(),
        },
        Request::Stats,
        Request::Profile(records.clone()),
        Request::Stats,
    ];
    let mut wire = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        let payload = req.encode_with_id(11 + i as u64).expect("encode");
        write_frame(&mut wire, &payload).expect("frame");
    }
    let mut s = TcpStream::connect(handle.addr()).expect("connect raw");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(&wire).expect("pipeline");

    let mut r = BufReader::new(s.try_clone().expect("clone"));
    let mut replies = Vec::new();
    for _ in 0..requests.len() {
        let payload = read_frame(&mut r).expect("frame").expect("open");
        replies.push(Response::decode_with_id(&payload).expect("decode"));
    }
    let ids: Vec<u64> = replies.iter().map(|(id, _)| *id).collect();
    assert_eq!(
        ids,
        [11, 12, 13, 14, 15, 16],
        "replies out of request order"
    );

    for ((name, batch), (_, reply)) in [("A", &a), ("B", &b), ("C", &c)].into_iter().zip(&replies) {
        let Response::Predictions(preds) = reply else {
            panic!("{name}: expected predictions, got {reply:?}");
        };
        assert_eq!(preds.len(), batch.len(), "{name}: row count");
        for (i, (p, row)) in preds.iter().zip(batch.iter()).enumerate() {
            let want = model.predict_prob_encoded(&row.row, &row.mask);
            assert_eq!(
                p.prob.to_bits(),
                want.to_bits(),
                "{name} row {i}: wrong bits"
            );
            assert_eq!(p.taken, want > 0.5, "{name} row {i}: wrong direction");
        }
    }
    // Each STATS renders in request order: the first before the PROFILE
    // is applied, the second after.
    for (slot, applied) in [(3, 0), (5, records.len())] {
        let Response::Stats(stats) = &replies[slot].1 else {
            panic!("expected stats, got {:?}", replies[slot].1);
        };
        let counter = |family| gauge_value(&stats.exposition, family).expect(family);
        assert_eq!(
            counter("esp_ledger_profile_records_total"),
            applied as f64,
            "STATS {}: PROFILE records applied",
            11 + slot
        );
        assert_eq!(counter("esp_ledger_profile_unmatched_total"), 0.0);
        assert_eq!(
            counter("esp_ledger_sites"),
            (a.len() + b.len() + c.len()) as f64
        );
    }
    assert_eq!(
        replies[4].1,
        Response::Profiled(ProfileAck {
            applied: records.len() as u64,
            unmatched: 0
        }),
        "the PROFILE must join every row served before it"
    );

    let summary = handle.ledger_summary();
    assert_eq!(summary.sites, (a.len() + b.len() + c.len()) as u64);
    assert_eq!(summary.served, (a.len() + 2 * b.len() + c.len()) as u64);
    handle.shutdown();
}

#[test]
fn a_dropped_connection_still_caches_and_records_its_computed_rows() {
    let dim = 12;
    let artifact = ModelArtifact::synthetic(dim, 5, 78);
    let model = artifact.to_model();
    let handle = serve(
        ModelSource::Artifact(&artifact),
        "127.0.0.1:0",
        &ServeConfig::default(),
    )
    .expect("bind");

    // A PREDICT of 64 misses, then a frame header past the size cap: the
    // server drops the connection before it writes the PREDICT's reply.
    let batch = rows(dim, 4, 64);
    let predict = Request::Predict {
        model: String::new(),
        rows: batch.clone(),
    };
    let mut wire = Vec::new();
    write_frame(&mut wire, &predict.encode_with_id(1).expect("encode")).expect("frame");
    wire.extend_from_slice(&u32::MAX.to_le_bytes());
    TcpStream::connect(handle.addr())
        .expect("connect raw")
        .write_all(&wire)
        .expect("send");

    // The compute sample is the last thing finishing a request records.
    let computed = || gauge_value(&handle.metrics_text(), "esp_serve_predict_compute_us_count");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while computed() != Some(1.0) {
        assert!(
            std::time::Instant::now() < deadline,
            "the dropped request was never finished"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let cached = gauge_value(&handle.metrics_text(), "esp_serve_cache_entries");
    assert_eq!(cached, Some(batch.len() as f64));
    let ledger = handle.ledger_summary();
    assert_eq!((ledger.sites, ledger.served), (64, 64));

    // The rows were cached: a repeat on a new connection is all hits.
    let preds = Client::connect(handle.addr())
        .expect("connect")
        .predict(batch.clone())
        .expect("repeat");
    for (p, row) in preds.iter().zip(&batch) {
        let want = model.predict_prob_encoded(&row.row, &row.mask);
        assert_eq!(p.prob.to_bits(), want.to_bits());
    }
    let stats = handle.metrics();
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        (batch.len() as u64, batch.len() as u64)
    );
    handle.shutdown();
}
