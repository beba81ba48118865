//! Hostile-frame fuzz against the *live* event-loop decoder: raw TCP
//! writes of malformed, truncated, oversized and garbage frames must
//! never crash or wedge the reactor. Structurally-sound frames with bad
//! content earn a typed `Error` response on the same connection;
//! unframeable input gets the connection dropped — and either way the
//! server keeps serving everyone else.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use esp_artifact::{AnyArtifact, ModelArtifact};
use esp_serve::protocol::{read_frame, PROTOCOL_MAGIC, PROTOCOL_VERSION};
use esp_serve::{serve, Client, ModelSource, PredictRow, Response, ServeConfig};

fn connect_raw(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

fn send_frame(s: &mut TcpStream, payload: &[u8]) {
    s.write_all(&(payload.len() as u32).to_le_bytes()).expect("len");
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
    let artifact = AnyArtifact::F64(ModelArtifact::synthetic(dim, 3, 9));
    let cfg = ServeConfig {
        shards: 2,
        ..ServeConfig::default()
    };
    let handle = serve(ModelSource::Artifact(&artifact), "127.0.0.1:0", &cfg).expect("bind");
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
        s.write_all(&[PROTOCOL_MAGIC, PROTOCOL_VERSION, 1, 2, 3]).expect("partial");
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

    handle.shutdown();
}
