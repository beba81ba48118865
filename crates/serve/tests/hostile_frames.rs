//! Hostile-frame fuzz against the *live* event-loop decoder: raw TCP
//! writes of malformed, truncated, oversized and garbage frames must
//! never crash or wedge the reactor. Structurally-sound frames with bad
//! content earn a typed `Error` response on the same connection;
//! unframeable input gets the connection dropped — and either way the
//! server keeps serving everyone else.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use esp_artifact::ModelArtifact;
use esp_serve::protocol::{read_frame, PROTOCOL_MAGIC, PROTOCOL_VERSION};
use esp_serve::{
    serve, site_key, Client, ModelSource, PredictRow, ProfileAck, ProfileRecord, Response,
    ServeConfig,
};

fn connect_raw(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

fn send_frame(s: &mut TcpStream, payload: &[u8]) {
    s.write_all(&(payload.len() as u32).to_le_bytes())
        .expect("len");
    s.write_all(payload).expect("payload");
    s.flush().expect("flush");
}

/// Read one response frame and decode it (panics on wire trouble).
fn recv_response(s: &mut TcpStream) -> (u64, Response) {
    let mut r = BufReader::new(s.try_clone().expect("clone"));
    let payload = read_frame(&mut r).expect("frame").expect("open");
    Response::decode_with_id(&payload).expect("decode")
}

/// The server must still answer a well-formed request from a *fresh*
/// connection — the probe that proves the reactor survived.
fn assert_alive(addr: &str, dim: usize) {
    let mut c = Client::connect(addr).expect("server still accepting");
    let preds = c
        .predict(vec![PredictRow {
            row: vec![0.25; dim],
            mask: vec![true; dim],
        }])
        .expect("server still serving");
    assert_eq!(preds.len(), 1);
}

#[test]
fn hostile_frames_cannot_kill_the_event_loop() {
    let dim = 8;
    let artifact = ModelArtifact::synthetic(dim, 3, 9);
    let handle = serve(
        ModelSource::Artifact(&artifact),
        "127.0.0.1:0",
        &ServeConfig::default(),
    )
    .expect("bind");
    let addr = handle.addr().to_string();

    // 1. Oversized declared length: the reactor refuses to buffer it and
    //    drops the connection (no 64 MiB allocation, no response).
    {
        let mut s = connect_raw(&addr);
        s.write_all(&(u32::MAX).to_le_bytes()).expect("len");
        s.flush().unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "expected connection drop");
    }
    assert_alive(&addr, dim);

    // 2. Garbage opcode in a structurally-valid frame: a typed Error
    //    response on the same connection, which stays usable.
    {
        let mut s = connect_raw(&addr);
        let mut payload = vec![PROTOCOL_MAGIC, PROTOCOL_VERSION];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.push(0xEE); // no such opcode
        send_frame(&mut s, &payload);
        let (_, resp) = recv_response(&mut s);
        assert!(matches!(resp, Response::Error(_)), "got {resp:?}");
    }

    // 3. A v3 peer: refused by version number, by name, as an Error frame.
    {
        let mut s = connect_raw(&addr);
        let mut payload = vec![PROTOCOL_MAGIC, 3];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.push(0x02); // STATS under v3 framing
        send_frame(&mut s, &payload);
        let (_, resp) = recv_response(&mut s);
        match resp {
            Response::Error(msg) => assert!(msg.contains("version"), "msg: {msg}"),
            other => panic!("expected version error, got {other:?}"),
        }
    }

    // 4. PREDICT lying about its row count (claims more rows than bytes):
    //    refused before any allocation sized by the claim.
    {
        let mut s = connect_raw(&addr);
        let mut payload = vec![PROTOCOL_MAGIC, PROTOCOL_VERSION];
        payload.extend_from_slice(&2u64.to_le_bytes());
        payload.push(0x01); // OP_PREDICT
        payload.extend_from_slice(&0u32.to_le_bytes()); // empty model selector
        payload.extend_from_slice(&1_000_000u32.to_le_bytes()); // n
        payload.extend_from_slice(&(dim as u32).to_le_bytes()); // dim
        send_frame(&mut s, &payload);
        let (_, resp) = recv_response(&mut s);
        assert!(matches!(resp, Response::Error(_)), "got {resp:?}");
    }

    // 5. Truncated frame then hangup: reaped quietly.
    {
        let mut s = connect_raw(&addr);
        s.write_all(&64u32.to_le_bytes()).expect("len");
        s.write_all(&[PROTOCOL_MAGIC, PROTOCOL_VERSION, 1, 2, 3])
            .expect("partial");
        s.flush().unwrap();
        // drop mid-frame
    }
    assert_alive(&addr, dim);

    // 6. Seeded garbage storm: 200 random frames (bounded length) across
    //    fresh connections. Whatever each one provokes — error frame or
    //    drop — the server survives all of them.
    let mut state = 0x2545F491_4F6CDD1Du64;
    let mut rand = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..200 {
        let mut s = connect_raw(&addr);
        let len = (rand() % 64) as usize;
        let payload: Vec<u8> = (0..len).map(|_| (rand() & 0xFF) as u8).collect();
        send_frame(&mut s, &payload);
        // Hang up immediately — the reactor must cope with a peer that
        // vanishes while its (error) response is still queued or in flight.
    }
    assert_alive(&addr, dim);

    // 7. PROFILE weights need only be finite and >= 0: two records of
    //    weight 1e300 for a served row each add u64::MAX micro-units to the
    //    observed window, whose sums must saturate rather than overflow.
    {
        let row = vec![0.25; dim];
        let mask = vec![true; dim];
        let mut c = Client::connect(&addr).expect("connect");
        c.predict(vec![PredictRow {
            row: row.clone(),
            mask: mask.clone(),
        }])
        .expect("predict");
        let huge = ProfileRecord {
            site_key: site_key(&row, &mask),
            taken: true,
            weight: 1e300,
        };
        let ack = c
            .profile(vec![huge.clone(), huge])
            .expect("profile answered");
        assert_eq!(ack.applied, 2);
    }
    assert_alive(&addr, dim);

    handle.shutdown();
}

/// A raw PREDICT payload for the default model: `n` copies of `row`, each
/// followed by `mask_bytes` exactly as given (the encoder would write only
/// 0/1).
fn raw_predict(req_id: u64, n: usize, dim: usize, row: &[f64], mask_bytes: &[u8]) -> Vec<u8> {
    let mut p = vec![PROTOCOL_MAGIC, PROTOCOL_VERSION];
    p.extend_from_slice(&req_id.to_le_bytes());
    p.push(0x01); // OP_PREDICT
    p.extend_from_slice(&0u32.to_le_bytes()); // empty model selector
    p.extend_from_slice(&(n as u32).to_le_bytes());
    p.extend_from_slice(&(dim as u32).to_le_bytes());
    for _ in 0..n {
        for x in row {
            p.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        p.extend_from_slice(mask_bytes);
    }
    p
}

/// Send one payload and return the probability bits of a `Predictions`
/// reply (panicking on anything else).
fn predict_bits(s: &mut TcpStream, payload: &[u8]) -> Vec<u64> {
    send_frame(s, payload);
    match recv_response(s) {
        (_, Response::Predictions(ps)) => ps.iter().map(|p| p.prob.to_bits()).collect(),
        (_, other) => panic!("expected predictions, got {other:?}"),
    }
}

#[test]
fn malformed_predict_bodies_get_typed_errors_and_mask_bytes_are_canonical() {
    let dim = 10; // one whole mask word plus a 2-byte tail
    let artifact = ModelArtifact::synthetic(dim, 3, 9);
    let handle = serve(
        ModelSource::Artifact(&artifact),
        "127.0.0.1:0",
        &ServeConfig::default(),
    )
    .expect("bind");
    let addr = handle.addr().to_string();
    let row: Vec<f64> = (0..dim).map(|j| j as f64 / 4.0 - 1.0).collect();
    let ones = vec![1u8; dim];
    let mut s = connect_raw(&addr);

    // One trailing byte after a well-formed body, then a body cut off
    // mid-mask: each gets a typed Error, and the connection stays usable.
    let mut trailing = raw_predict(1, 2, dim, &row, &ones);
    trailing.push(0);
    let mut cut = raw_predict(2, 2, dim, &row, &ones);
    cut.truncate(cut.len() - dim / 2);
    for bad in [trailing, cut] {
        send_frame(&mut s, &bad);
        let (_, resp) = recv_response(&mut s);
        assert!(matches!(resp, Response::Error(_)), "got {resp:?}");
        assert_eq!(
            predict_bits(&mut s, &raw_predict(3, 1, dim, &row, &ones)).len(),
            1
        );
    }

    // An empty batch may declare zero features.
    assert!(predict_bits(&mut s, &raw_predict(4, 0, 0, &[], &[])).is_empty());

    // Non-canonical mask bytes mean "set", exactly like 0x01: same bits, a
    // cache hit, and the ledger joins them on the canonical site key.
    let row2: Vec<f64> = row.iter().map(|x| x + 0.125).collect();
    let before = Client::connect(&addr).unwrap().stats().unwrap();
    let canonical = predict_bits(&mut s, &raw_predict(5, 1, dim, &row2, &ones));
    let odd: Vec<u8> = (0..dim).map(|j| [0x02, 0xFF, 0x80][j % 3]).collect();
    assert_eq!(
        predict_bits(&mut s, &raw_predict(6, 1, dim, &row2, &odd)),
        canonical
    );
    let after = Client::connect(&addr).unwrap().stats().unwrap();
    assert_eq!(after.cache_misses - before.cache_misses, 1);
    assert_eq!(after.cache_hits - before.cache_hits, 1);
    let ack = Client::connect(&addr)
        .unwrap()
        .profile(vec![ProfileRecord {
            site_key: site_key(&row2, &vec![true; dim]),
            taken: true,
            weight: 1.0,
        }])
        .unwrap();
    assert_eq!(
        ack,
        ProfileAck {
            applied: 1,
            unmatched: 0
        }
    );

    handle.shutdown();
}
