//! The byte-at-a-time request decoder the bulk one replaced, kept verbatim.
//!
//! Every PREDICT row element, PROFILE site-key byte and model-selector byte
//! goes through one bounds-checked `ByteReader` read. It is the
//! equivalence oracle: `tests/decode_reference.rs` asserts that
//! `Request::decode_with_id`, which splits those fields out of borrowed
//! slices, returns the same request (bit for bit) or an error of the same
//! kind on every frame it generates.

use esp_artifact::bytes::ByteReader;
use esp_serve::protocol::{MAX_SELECTOR, PROTOCOL_MAGIC, PROTOCOL_VERSION};
use esp_serve::{PredictRow, ProfileRecord, Request, ServeError};

const OP_PREDICT: u8 = 1;
const OP_STATS: u8 = 2;
const OP_INFO: u8 = 3;
const OP_SHUTDOWN: u8 = 4;
const OP_PROFILE: u8 = 5;

/// Smallest possible encoded PROFILE record: 4-byte key length, one key
/// byte, the taken byte, and the 8-byte weight.
const PROFILE_RECORD_MIN: usize = 4 + 1 + 1 + 8;

fn check_version(r: &mut ByteReader) -> Result<(), ServeError> {
    let magic = r.u8()?;
    if magic != PROTOCOL_MAGIC {
        return Err(ServeError::Protocol(format!(
            "payload lacks the protocol magic (first byte 0x{magic:02x}): \
             peer speaks the unversioned v1 protocol or something else entirely"
        )));
    }
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(ServeError::Protocol(format!(
            "peer speaks protocol version {version}, this build speaks {PROTOCOL_VERSION}"
        )));
    }
    Ok(())
}

fn read_selector(r: &mut ByteReader) -> Result<String, ServeError> {
    let len = r.u32()? as usize;
    if len > MAX_SELECTOR {
        return Err(ServeError::Protocol(format!(
            "model selector of {len} bytes exceeds the {MAX_SELECTOR}-byte cap"
        )));
    }
    let mut bytes = Vec::with_capacity(len);
    for _ in 0..len {
        bytes.push(r.u8()?);
    }
    String::from_utf8(bytes)
        .map_err(|_| ServeError::Protocol("model selector is not valid UTF-8".into()))
}

/// Decode a request frame payload, returning `(req_id, request)`.
pub fn decode_with_id(payload: &[u8]) -> Result<(u64, Request), ServeError> {
    let mut r = ByteReader::new(payload);
    check_version(&mut r)?;
    let req_id = r.u64()?;
    let op = r.u8()?;
    let req = match op {
        OP_PREDICT => {
            let model = read_selector(&mut r)?;
            let n = r.u32()? as usize;
            let dim = r.u32()? as usize;
            if n > 0 && dim == 0 {
                return Err(ServeError::Protocol(
                    "predict batch claims rows of zero features".into(),
                ));
            }
            if dim
                .checked_mul(9)
                .and_then(|per_row| per_row.checked_mul(n))
                .is_none_or(|need| need > r.remaining())
            {
                return Err(ServeError::Protocol(format!(
                    "predict batch claims {n} rows × {dim} features beyond the frame"
                )));
            }
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let mut row = Vec::with_capacity(dim);
                for _ in 0..dim {
                    row.push(r.f64()?);
                }
                let mut mask = Vec::with_capacity(dim);
                for _ in 0..dim {
                    mask.push(r.u8()? != 0);
                }
                rows.push(PredictRow { row, mask });
            }
            Request::Predict { model, rows }
        }
        OP_STATS => Request::Stats,
        OP_INFO => Request::Info {
            model: read_selector(&mut r)?,
        },
        OP_SHUTDOWN => Request::Shutdown,
        OP_PROFILE => {
            let n = r.u32()? as usize;
            if n.checked_mul(PROFILE_RECORD_MIN)
                .is_none_or(|need| need > r.remaining())
            {
                return Err(ServeError::Protocol(format!(
                    "profile batch claims {n} records beyond the frame"
                )));
            }
            let mut records = Vec::with_capacity(n);
            for _ in 0..n {
                let key_len = r.u32()? as usize;
                if key_len == 0 {
                    return Err(ServeError::Protocol(
                        "profile record carries a zero-length site key".into(),
                    ));
                }
                if key_len > r.remaining() {
                    return Err(ServeError::Protocol(format!(
                        "profile site key of {key_len} bytes beyond the frame"
                    )));
                }
                let mut site_key = Vec::with_capacity(key_len);
                for _ in 0..key_len {
                    site_key.push(r.u8()?);
                }
                let taken = r.u8()? != 0;
                let weight = r.f64()?;
                if !weight.is_finite() || weight < 0.0 {
                    return Err(ServeError::Protocol(format!(
                        "profile weight {weight} is not a finite non-negative number"
                    )));
                }
                records.push(ProfileRecord {
                    site_key,
                    taken,
                    weight,
                });
            }
            Request::Profile(records)
        }
        other => return Err(ServeError::Protocol(format!("unknown opcode {other}"))),
    };
    r.finish()?;
    Ok((req_id, req))
}
