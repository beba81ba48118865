//! The request parse against the byte-at-a-time reference
//! (`reference/mod.rs`): over seeded frames — valid, truncated, padded and
//! lying about their counts — both `Request::decode_with_id` and the
//! server's in-place `RequestView::parse` accept exactly what the
//! reference accepts, with what it returns bit for bit, and refuse the
//! rest with an error of the same kind. Every row the in-place parse
//! leaves in a PREDICT frame is `site_key` of the reference's row.

mod reference;

use std::mem::discriminant;

use esp_serve::protocol::{RequestView, MAX_SELECTOR, PROTOCOL_MAGIC, PROTOCOL_VERSION};
use esp_serve::{site_key, Request, ServeError};

/// f64 bit patterns a row can carry that a value comparison would blur:
/// NaN payloads of both signs, −0.0, subnormals, infinities.
const SPECIAL_BITS: [u64; 10] = [
    0x7FF8_0000_0000_0000,
    0x7FF8_0000_0000_0001,
    0x7FF4_0000_0000_0000,
    0xFFF0_0000_0000_0001,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x000F_FFFF_FFFF_FFFF,
    0x800F_FFFF_FFFF_FFFF,
    0x7FF0_0000_0000_0000,
    0x3FF0_0000_0000_0000,
];

/// Mask and taken bytes: the canonical 0/1 and non-canonical nonzeros.
const FLAG_BYTES: [u8; 6] = [0, 1, 0x02, 0x80, 0xFF, 0x7F];

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }
}

fn prefix(req_id: u64, op: u8) -> Vec<u8> {
    let mut f = vec![PROTOCOL_MAGIC, PROTOCOL_VERSION];
    f.extend_from_slice(&req_id.to_le_bytes());
    f.push(op);
    f
}

fn put_u32(f: &mut Vec<u8>, v: usize) {
    f.extend_from_slice(&(v as u32).to_le_bytes());
}

/// A selector as raw bytes: usually valid, sometimes not UTF-8 or over
/// the cap.
fn selector(rng: &mut Rng, f: &mut Vec<u8>) {
    let bytes: Vec<u8> = match rng.below(8) {
        0 => vec![0xFF, 0xFE],
        1 => vec![b'm'; MAX_SELECTOR + 1],
        2 => b"branch-esp@2".to_vec(),
        _ => Vec::new(),
    };
    put_u32(f, bytes.len());
    f.extend_from_slice(&bytes);
}

/// A PREDICT frame; returns it with the offset of its `n` field.
fn predict_frame(rng: &mut Rng) -> (Vec<u8>, usize) {
    let mut f = prefix(rng.next(), 1);
    selector(rng, &mut f);
    let (n, dim) = match rng.below(10) {
        0 => (0, 0),
        1 => (0, rng.below(18)),
        _ => (rng.below(5), 1 + rng.below(17)),
    };
    let at_n = f.len();
    put_u32(&mut f, n);
    put_u32(&mut f, dim);
    for _ in 0..n {
        for _ in 0..dim {
            let bits = if rng.below(2) == 0 {
                rng.pick(&SPECIAL_BITS)
            } else {
                rng.next()
            };
            f.extend_from_slice(&bits.to_le_bytes());
        }
        for _ in 0..dim {
            f.push(rng.pick(&FLAG_BYTES));
        }
    }
    (f, at_n)
}

/// A PROFILE frame; returns it with the offset of its `n` field.
fn profile_frame(rng: &mut Rng) -> (Vec<u8>, usize) {
    let mut f = prefix(rng.next(), 5);
    let at_n = f.len();
    let n = rng.below(4);
    put_u32(&mut f, n);
    for _ in 0..n {
        let key_len = if rng.below(12) == 0 {
            0
        } else {
            1 + rng.below(40)
        };
        put_u32(&mut f, key_len);
        f.extend((0..key_len).map(|_| rng.next() as u8));
        f.push(rng.pick(&FLAG_BYTES));
        let weight = match rng.below(8) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => -1.0,
            3 => -0.0,
            4 => f64::from_bits(1),
            _ => (rng.below(1000) as f64) / 8.0,
        };
        f.extend_from_slice(&weight.to_bits().to_le_bytes());
    }
    (f, at_n)
}

fn other_frame(rng: &mut Rng) -> (Vec<u8>, usize) {
    let op = rng.pick(&[2u8, 3, 4, 0xEE]);
    let mut f = prefix(rng.next(), op);
    if op == 3 {
        selector(rng, &mut f);
    }
    let end = f.len();
    (f, end)
}

/// Damage a frame the way hostile or broken peers do: cut it short, pad
/// it, or make its count lie.
fn mutate(rng: &mut Rng, f: &mut Vec<u8>, at_n: usize) {
    match rng.below(8) {
        0 => {
            let cut = rng.below(f.len() + 1);
            f.truncate(cut);
        }
        1 => f.extend((0..1 + rng.below(9)).map(|_| rng.next() as u8)),
        2 if at_n + 4 <= f.len() => {
            let lie = rng.pick(&[1u32, 2, 7, 1 << 20, u32::MAX]);
            f[at_n..at_n + 4].copy_from_slice(&lie.to_le_bytes());
        }
        3 if at_n + 8 <= f.len() => {
            // PREDICT's dim field (PROFILE's first key length).
            let lie = rng.pick(&[0u32, 1, 3, 1 << 30, u32::MAX]);
            f[at_n + 4..at_n + 8].copy_from_slice(&lie.to_le_bytes());
        }
        4 if f.len() > 1 => f[1] = f[1].wrapping_add(1),
        _ => {}
    }
}

/// A request with every float as its bit pattern, so NaN payloads and
/// −0.0 compare exactly.
#[derive(Debug, PartialEq)]
enum Bits {
    Predict(String, Vec<(Vec<u64>, Vec<bool>)>),
    Profile(Vec<(Vec<u8>, bool, u64)>),
    Other(Request),
}

fn bits(req: Request) -> Bits {
    match req {
        Request::Predict { model, rows } => Bits::Predict(
            model,
            rows.into_iter()
                .map(|r| (r.row.iter().map(|x| x.to_bits()).collect(), r.mask))
                .collect(),
        ),
        Request::Profile(records) => Bits::Profile(
            records
                .into_iter()
                .map(|r| (r.site_key, r.taken, r.weight.to_bits()))
                .collect(),
        ),
        other => Bits::Other(other),
    }
}

/// Decode `frame` every way and insist they agree. Returns whether it
/// decoded.
fn agree(frame: &[u8]) -> bool {
    let mut in_place = frame.to_vec();
    let parsed = RequestView::parse(&mut in_place);
    match (
        Request::decode_with_id(frame),
        reference::decode_with_id(frame),
    ) {
        (Ok((id, got)), Ok((want_id, want))) => {
            assert_eq!(id, want_id, "request id of {frame:02x?}");
            let (view_id, view) = parsed.unwrap_or_else(|e| {
                panic!("in-place parse refused {frame:02x?}: {e}");
            });
            assert_eq!(view_id, want_id, "in-place request id of {frame:02x?}");
            if let (
                RequestView::Predict { rows, .. },
                Request::Predict {
                    rows: want_rows, ..
                },
            ) = (view, &want)
            {
                assert_eq!(rows.len(), want_rows.len(), "rows of {frame:02x?}");
                for (key, r) in rows.iter().zip(want_rows) {
                    assert_eq!(key, site_key(&r.row, &r.mask), "row of {frame:02x?}");
                }
            }
            let want = bits(want);
            assert_eq!(bits(got), want, "request of {frame:02x?}");
            assert_eq!(
                bits(view.to_request()),
                want,
                "in-place request of {frame:02x?}"
            );
            true
        }
        (Err(got), Err(want)) => {
            assert!(
                discriminant(&got) == discriminant(&want),
                "error kinds differ on {frame:02x?}: {got} vs {want}"
            );
            match parsed {
                Ok(_) => panic!("in-place parse accepted {frame:02x?}: {want}"),
                Err(e) => assert!(
                    discriminant(&e) == discriminant(&want),
                    "in-place error kind differs on {frame:02x?}: {e} vs {want}"
                ),
            }
            false
        }
        (got, want) => panic!("decoders disagree on {frame:02x?}: {got:?} vs {want:?}"),
    }
}

#[test]
fn bulk_decode_matches_the_reference_over_seeded_frames() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let (mut ok, mut err) = (0, 0);
    for i in 0..6000 {
        let (mut frame, at_n) = match i % 3 {
            0 => predict_frame(&mut rng),
            1 => profile_frame(&mut rng),
            _ => other_frame(&mut rng),
        };
        mutate(&mut rng, &mut frame, at_n);
        if agree(&frame) {
            ok += 1;
        } else {
            err += 1;
        }
    }
    // The generator must exercise both outcomes in bulk.
    assert!(ok > 1000 && err > 1000, "{ok} decoded, {err} refused");
}

#[test]
fn nonzero_mask_bytes_decode_as_set_and_empty_batches_need_no_dim() {
    let mut f = prefix(3, 1);
    put_u32(&mut f, 0); // default model
    put_u32(&mut f, 1);
    put_u32(&mut f, 4);
    for x in [
        -0.0f64,
        f64::from_bits(1),
        f64::from_bits(0x7FF8_0000_0000_0001),
        2.5,
    ] {
        f.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    f.extend_from_slice(&[0x00, 0x02, 0x80, 0xFF]);
    assert!(agree(&f));
    let Ok((3, Request::Predict { rows, .. })) = Request::decode_with_id(&f) else {
        panic!("one-row PREDICT must decode");
    };
    assert_eq!(rows[0].mask, [false, true, true, true]);
    assert_eq!(rows[0].row[2].to_bits(), 0x7FF8_0000_0000_0001);
    // In place, the mask bytes are rewritten to 0/1 inside the frame.
    let Ok((3, RequestView::Predict { rows, .. })) = RequestView::parse(&mut f) else {
        panic!("one-row PREDICT must parse in place");
    };
    let row = rows.iter().next().expect("one row");
    assert_eq!(row[32..], [0, 1, 1, 1]);

    for dim in [0usize, 5] {
        let mut f = prefix(4, 1);
        put_u32(&mut f, 0);
        put_u32(&mut f, 0); // n = 0
        put_u32(&mut f, dim);
        assert!(agree(&f));
        assert!(matches!(
            Request::decode_with_id(&f),
            Ok((4, Request::Predict { rows, .. })) if rows.is_empty()
        ));
    }
}

#[test]
fn every_strict_prefix_is_a_typed_error() {
    let predict = Request::Predict {
        model: "m@1".into(),
        rows: vec![
            esp_serve::PredictRow {
                row: vec![1.5, -0.0, f64::NAN],
                mask: vec![true, false, true],
            };
            2
        ],
    };
    let profile = Request::Profile(vec![
        esp_serve::ProfileRecord {
            site_key: vec![7, 8, 9],
            taken: true,
            weight: 2.0,
        },
        esp_serve::ProfileRecord {
            site_key: vec![1],
            taken: false,
            weight: 0.5,
        },
    ]);
    for req in [predict, profile] {
        let frame = req.encode_with_id(11).expect("encodable");
        assert!(agree(&frame), "the whole frame decodes");
        for cut in 0..frame.len() {
            let got = Request::decode_with_id(&frame[..cut]);
            assert!(
                matches!(got, Err(ServeError::Protocol(_))),
                "prefix of {cut} bytes: {got:?}"
            );
            agree(&frame[..cut]);
        }
    }
}
