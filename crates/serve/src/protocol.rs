//! The wire protocol spoken between `esp-serve` and `esp-client`.
//!
//! Every message is one **frame**: a `u32` little-endian payload length
//! followed by that many payload bytes, capped at [`MAX_FRAME`]. The payload
//! reuses the artifact crate's little-endian primitives; floats travel as
//! raw IEEE-754 bits, so a probability arrives at the client bit-identical
//! to the server's computation.
//!
//! Every payload — request and response alike — begins with two version
//! bytes: the magic marker [`PROTOCOL_MAGIC`] and then
//! [`PROTOCOL_VERSION`]. A peer built against a different protocol
//! revision fails decode with an explicit version-mismatch
//! [`ServeError::Protocol`] instead of misparsing the body (the magic
//! value collides with no opcode or status byte of the unversioned v1
//! protocol, so even a v1 peer is diagnosed by name).
//!
//! Since v3 the version bytes are followed by a `u64` **request id** in
//! both directions: clients stamp one per request (0 = unset) and the
//! server echoes it on the response, so a client span and the server span
//! that served it correlate across process boundaries (see
//! `esp_obs::trace::merge_json`). Then requests carry a one-byte opcode:
//!
//! ```text
//! 1 PREDICT   str model, u32 n, u32 dim, then n × (dim f64 row, dim u8 mask)
//! 2 STATS     (empty body)
//! 3 INFO      str model
//! 4 SHUTDOWN  (empty body)
//! 5 PROFILE   u32 n, then n × (u32 key_len, key bytes, u8 taken, f64 weight)
//! ```
//!
//! Since v4, PREDICT and INFO carry a **model selector** string (u32 length
//! prefix + UTF-8, the artifact crate's `str` encoding): `""` selects the
//! server's default model, `"name"` the newest loaded version registered
//! under that name, and `"name@version"` one exact version. An unknown
//! selector is a [`Response::Error`], not a connection teardown. Selectors
//! are capped at [`MAX_SELECTOR`] bytes so a hostile frame cannot smuggle
//! megabytes into the routing path.
//!
//! A PROFILE record reports one observed branch-outcome aggregate for the
//! site identified by `key` (the canonical site key is the serve cache's
//! key: raw row bits + mask bytes — see `site_key`). Zero-length keys and
//! non-finite or negative weights are decode errors.
//!
//! One validating parse checks every request. The server runs it in place
//! over the frame it read ([`RequestView::parse`]): fields borrow the
//! frame, and each PREDICT row's mask bytes are rewritten to 0/1, so a
//! row's `9·dim` bytes are its `site_key` as they stand. Clients and tests
//! get an owned [`Request`] from [`Request::decode_with_id`], which runs
//! the same parse over a shared payload and copies the fields out.
//!
//! Responses continue with a one-byte status (`0` ok, `1` error). An error
//! carries a UTF-8 message; an ok body depends on the request:
//! PREDICT → `u32 n` then `n × (f64 prob, u8 taken)`; STATS → the nine
//! [`StatsSnapshot`] counters as `u64`s followed by the server's metrics
//! text exposition as a length-prefixed string; INFO → model facts;
//! SHUTDOWN → an empty acknowledgement; PROFILE → `u64 applied`,
//! `u64 unmatched` record counts.

use std::io::{Read, Write};

use esp_artifact::bytes::ByteWriter;
use esp_artifact::ArtifactError;

/// Hard cap on a single frame (requests this large are refused, not
/// buffered): 64 MiB.
pub const MAX_FRAME: usize = 64 << 20;

/// First byte of every versioned payload. Chosen to collide with no v1
/// opcode (1–4) or status byte (0/1), so an unversioned peer is detected
/// as such rather than half-parsed.
pub const PROTOCOL_MAGIC: u8 = 0xE5;

/// Wire-protocol revision. v1 was the unversioned format (no magic/version
/// prefix, STATS body without the metrics exposition); v2 added this
/// prefix and appended the text exposition to STATS; v3 added the `u64`
/// request id after the version bytes (both directions) and the PROFILE
/// opcode; v4 added the model selector string to PREDICT and INFO and the
/// `model_name`/`model_version` fields to the INFO response (multi-model
/// routing). Bump on any payload layout change.
pub const PROTOCOL_VERSION: u8 = 4;

/// Longest model selector accepted on the wire, in bytes. Registry names
/// are short identifiers; this cap keeps hostile frames from parking large
/// allocations in the routing path.
pub const MAX_SELECTOR: usize = 256;

fn write_version(w: &mut ByteWriter) {
    w.u8(PROTOCOL_MAGIC);
    w.u8(PROTOCOL_VERSION);
}

/// Everything that can go wrong on the wire.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode as the protocol.
    Protocol(String),
    /// The server answered with an error response.
    Remote(String),
    /// A frame declared a length beyond [`MAX_FRAME`].
    FrameTooLarge(usize),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "I/O error: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::Remote(m) => write!(f, "server error: {m}"),
            ServeError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds cap"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ArtifactError> for ServeError {
    fn from(e: ArtifactError) -> Self {
        ServeError::Protocol(e.to_string())
    }
}

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ServeError> {
    if payload.len() > MAX_FRAME {
        return Err(ServeError::FrameTooLarge(payload.len()));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one length-prefixed frame, blocking until it is complete.
/// `Ok(None)` means the peer closed the connection cleanly at a frame
/// boundary. For sockets with a read timeout, use [`FrameReader`] instead —
/// this convenience wrapper does not preserve partial frames across calls.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ServeError> {
    FrameReader::new().read(r)
}

/// Incremental frame reader that survives read timeouts.
///
/// `read_exact` discards whatever it already copied out when a read fails,
/// so calling it on a socket with a read timeout desynchronizes the stream
/// the moment a timeout fires mid-frame: the next parse would start in the
/// middle of the interrupted frame and read garbage length prefixes from
/// then on. `FrameReader` keeps the partially-read length prefix and
/// payload across calls instead — a `WouldBlock`/`TimedOut` error is
/// surfaced to the caller (so it can check a shutdown flag), and the next
/// [`FrameReader::read`] resumes exactly where the stream stopped.
#[derive(Debug, Default)]
pub struct FrameReader {
    len_buf: [u8; 4],
    len_got: usize,
    payload: Vec<u8>,
    payload_got: usize,
    in_payload: bool,
}

impl FrameReader {
    /// A reader with no partial frame buffered.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Drive the current frame forward until it completes. Returns
    /// `Ok(Some(payload))` for a full frame and `Ok(None)` on clean EOF at
    /// a frame boundary; EOF mid-frame is an `UnexpectedEof` I/O error.
    /// Timeout errors leave the partial state intact for the next call.
    pub fn read(&mut self, r: &mut impl Read) -> Result<Option<Vec<u8>>, ServeError> {
        loop {
            if !self.in_payload {
                if self.len_got < self.len_buf.len() {
                    match r.read(&mut self.len_buf[self.len_got..]) {
                        Ok(0) if self.len_got == 0 => return Ok(None),
                        Ok(0) => return Err(eof_mid_frame()),
                        Ok(n) => self.len_got += n,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e.into()),
                    }
                    continue;
                }
                let len = u32::from_le_bytes(self.len_buf) as usize;
                if len > MAX_FRAME {
                    return Err(ServeError::FrameTooLarge(len));
                }
                self.payload = vec![0u8; len];
                self.payload_got = 0;
                self.in_payload = true;
            }
            if self.payload_got < self.payload.len() {
                match r.read(&mut self.payload[self.payload_got..]) {
                    Ok(0) => return Err(eof_mid_frame()),
                    Ok(n) => self.payload_got += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e.into()),
                }
                continue;
            }
            self.len_got = 0;
            self.in_payload = false;
            return Ok(Some(std::mem::take(&mut self.payload)));
        }
    }
}

fn eof_mid_frame() -> ServeError {
    ServeError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        "connection closed mid-frame",
    ))
}

const OP_PREDICT: u8 = 1;
const OP_STATS: u8 = 2;
const OP_INFO: u8 = 3;
const OP_SHUTDOWN: u8 = 4;
const OP_PROFILE: u8 = 5;

/// Smallest possible encoded PROFILE record: 4-byte key length, one key
/// byte, the taken byte, and the 8-byte weight.
const PROFILE_RECORD_MIN: usize = 4 + 1 + 1 + 8;

/// One batch row: the raw encoded feature values and their
/// meaningful-position mask (the pair `esp_core::encode` produces).
#[derive(Debug, Clone, PartialEq)]
pub struct PredictRow {
    /// Raw (un-normalized) encoded feature values.
    pub row: Vec<f64>,
    /// Meaningful-position mask; masked-out features are gated to zero
    /// after normalization, exactly as in-process inference does.
    pub mask: Vec<bool>,
}

/// One observed branch-outcome aggregate reported back to the server: the
/// site it belongs to, the observed direction, and how much execution
/// weight the observation carries (the paper's dynamic weighting — a
/// profile count, not a 0/1 sample, though weight 1.0 per event works
/// too).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRecord {
    /// Canonical site key — the serve cache's key bytes (raw row IEEE-754
    /// bits + mask bytes, see `site_key`), so outcomes join the server's
    /// served-prediction ledger entries exactly.
    pub site_key: Vec<u8>,
    /// Observed direction.
    pub taken: bool,
    /// Execution weight of this observation; must be finite and ≥ 0.
    pub weight: f64,
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Predict a batch of feature rows against the selected model
    /// (`""` = the server's default).
    Predict {
        /// Model selector: `""`, `"name"`, or `"name@version"`.
        model: String,
        /// The batch rows.
        rows: Vec<PredictRow>,
    },
    /// Fetch the server's metrics counters.
    Stats,
    /// Fetch model facts (dimensionality, provenance) for the selected
    /// model (`""` = the server's default).
    Info {
        /// Model selector: `""`, `"name"`, or `"name@version"`.
        model: String,
    },
    /// Ask the server to stop accepting work and exit.
    Shutdown,
    /// Report observed branch outcomes for the accuracy ledger.
    Profile(Vec<ProfileRecord>),
}

/// Enforce the wire cap on a model selector, both directions.
fn check_selector(model: &str) -> Result<(), ServeError> {
    if model.len() > MAX_SELECTOR {
        return Err(ServeError::Protocol(format!(
            "model selector of {} bytes exceeds the {MAX_SELECTOR}-byte cap",
            model.len()
        )));
    }
    Ok(())
}

/// One prediction: the taken-probability and the thresholded direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Estimated probability the branch is taken, in `[0, 1]`.
    pub prob: f64,
    /// Hard decision at the paper's 0.5 threshold.
    pub taken: bool,
}

/// Server metrics counters, as served by a STATS request.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Connections accepted since startup.
    pub connections: u64,
    /// Frames handled (all opcodes).
    pub requests: u64,
    /// PREDICT requests (batches) handled.
    pub predict_requests: u64,
    /// Individual rows predicted.
    pub predictions: u64,
    /// Rows answered from the LRU cache.
    pub cache_hits: u64,
    /// Rows computed by the network.
    pub cache_misses: u64,
    /// Approximate median end-to-end request service time, microseconds.
    pub p50_us: u64,
    /// Approximate 99th-percentile end-to-end service time, microseconds.
    pub p99_us: u64,
    /// Worst end-to-end service time, microseconds.
    pub max_us: u64,
    /// The server's full Prometheus-style text exposition (every counter,
    /// gauge and histogram of its metrics registry).
    pub exposition: String,
}

impl StatsSnapshot {
    /// Cache hits over all predicted rows (0 when nothing was predicted).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Model facts served by an INFO request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// Input dimensionality the server expects per row.
    pub dim: u32,
    /// Hidden-layer width of the served network.
    pub hidden: u32,
    /// Artifact format version the model was loaded from.
    pub format_version: u32,
    /// Corpus the model was trained on.
    pub corpus_id: String,
    /// Registry name the model is routed under (empty when the server was
    /// started from a bare `.espm` file or a synthetic model).
    pub model_name: String,
    /// Registry version of the loaded model (0 when unversioned).
    pub model_version: u32,
}

/// Acknowledgement of a PROFILE request: how many records joined a served
/// site in the ledger and how many matched nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileAck {
    /// Records applied to a known (served) site.
    pub applied: u64,
    /// Records whose site key matched no served prediction.
    pub unmatched: u64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Batch predictions, one per request row, in request order.
    Predictions(Vec<Prediction>),
    /// Metrics counters.
    Stats(StatsSnapshot),
    /// Model facts.
    Info(ServerInfo),
    /// Shutdown acknowledged; the server exits after this reply.
    ShuttingDown,
    /// Profile records received; counts of applied/unmatched.
    Profiled(ProfileAck),
    /// The request could not be served.
    Error(String),
}

/// The single dimension shared by every row and mask of a predict batch.
/// The wire format carries one `dim` for the whole batch, so a ragged batch
/// cannot be encoded faithfully; it is a client-side [`ServeError::Protocol`].
fn uniform_dim(rows: &[PredictRow]) -> Result<usize, ServeError> {
    let dim = rows.first().map_or(0, |r| r.row.len());
    for (i, r) in rows.iter().enumerate() {
        if r.row.len() != dim || r.mask.len() != dim {
            return Err(ServeError::Protocol(format!(
                "row {i} carries {} values / {} mask bits; the batch dimension is {dim}",
                r.row.len(),
                r.mask.len()
            )));
        }
    }
    Ok(dim)
}

impl Request {
    /// Encode to a frame payload with request id 0 (unset). Fails with
    /// [`ServeError::Protocol`] when a predict batch is ragged (rows or
    /// masks of differing lengths).
    pub fn encode(&self) -> Result<Vec<u8>, ServeError> {
        self.encode_with_id(0)
    }

    /// Encode to a frame payload carrying `req_id` (0 = unset). The server
    /// echoes the id on its response and stamps it into its spans, so a
    /// merged client+server trace correlates request-for-request.
    pub fn encode_with_id(&self, req_id: u64) -> Result<Vec<u8>, ServeError> {
        let mut w = ByteWriter::new();
        write_version(&mut w);
        w.u64(req_id);
        match self {
            Request::Predict { model, rows } => {
                let dim = uniform_dim(rows)?;
                check_selector(model)?;
                w.u8(OP_PREDICT);
                w.str(model);
                w.u32(rows.len() as u32);
                w.u32(dim as u32);
                for r in rows {
                    for &x in &r.row {
                        w.f64(x);
                    }
                    for &m in &r.mask {
                        w.u8(m as u8);
                    }
                }
            }
            Request::Stats => w.u8(OP_STATS),
            Request::Info { model } => {
                check_selector(model)?;
                w.u8(OP_INFO);
                w.str(model);
            }
            Request::Shutdown => w.u8(OP_SHUTDOWN),
            Request::Profile(records) => {
                w.u8(OP_PROFILE);
                w.u32(records.len() as u32);
                for rec in records {
                    if rec.site_key.is_empty() {
                        return Err(ServeError::Protocol(
                            "profile record carries a zero-length site key".into(),
                        ));
                    }
                    if !rec.weight.is_finite() || rec.weight < 0.0 {
                        return Err(ServeError::Protocol(format!(
                            "profile weight {} is not a finite non-negative number",
                            rec.weight
                        )));
                    }
                    w.u32(rec.site_key.len() as u32);
                    for &b in &rec.site_key {
                        w.u8(b);
                    }
                    w.u8(rec.taken as u8);
                    w.f64(rec.weight);
                }
            }
        }
        Ok(w.into_bytes())
    }

    /// Decode a frame payload, discarding the request id.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        Self::decode_with_id(payload).map(|(_, req)| req)
    }

    /// Decode a frame payload, returning `(req_id, request)`: the
    /// validating parse [`RequestView::parse`] runs, over a shared
    /// payload, then every field is copied out.
    pub fn decode_with_id(payload: &[u8]) -> Result<(u64, Self), ServeError> {
        parse(payload).map(|(id, view)| (id, view.to_request()))
    }
}

/// A request parsed in place: every field borrows the payload it was
/// parsed from, so parsing allocates nothing.
#[derive(Debug, Clone, Copy)]
pub enum RequestView<'a> {
    /// A predict batch against the selected model (`""` = the default).
    Predict {
        /// Model selector: `""`, `"name"`, or `"name@version"`.
        model: &'a str,
        /// The batch rows, each its own site key.
        rows: PredictRows<'a>,
    },
    /// Fetch the server's metrics counters.
    Stats,
    /// Fetch model facts for the selected model (`""` = the default).
    Info {
        /// Model selector: `""`, `"name"`, or `"name@version"`.
        model: &'a str,
    },
    /// Stop accepting work and exit.
    Shutdown,
    /// Observed branch outcomes for the accuracy ledger.
    Profile(ProfileRecords<'a>),
}

/// A PREDICT batch in its frame: rows of `9·dim` bytes, each the raw
/// IEEE-754 bits of its `dim` features followed by `dim` mask bytes.
/// Parsed in place, every mask byte reads 0 or 1, so each row is exactly
/// `site_key(row, mask)` of its decoded form.
#[derive(Debug, Clone, Copy)]
pub struct PredictRows<'a> {
    dim: usize,
    bytes: &'a [u8],
}

impl<'a> PredictRows<'a> {
    /// Features per row (the frame's one `dim` field).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows in the batch.
    pub fn len(&self) -> usize {
        self.bytes.len() / row_width(self.dim)
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Every row's bytes, in request order.
    pub fn iter(&self) -> std::slice::ChunksExact<'a, u8> {
        self.bytes.chunks_exact(row_width(self.dim))
    }
}

/// Bytes per PREDICT row. An empty batch may carry `dim == 0`, and
/// `chunks_exact(0)` panics, so zero-width rows split as 9-byte ones: the
/// parse refuses `n > 0` rows of zero features, so there are none.
fn row_width(dim: usize) -> usize {
    9 * dim.max(1)
}

/// Append one row's features and mask, as [`PredictRows::iter`] yields
/// it, to `values` and `mask`: the inverse of `site_key`.
pub(crate) fn widen_row(row: &[u8], values: &mut Vec<f64>, mask: &mut Vec<bool>) {
    let (bits, flags) = row.split_at(row.len() / 9 * 8);
    values.extend(
        bits.chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().expect("8-byte chunk"))),
    );
    mask.extend(flags.iter().map(|&m| m != 0));
}

/// A PROFILE batch in its frame: validated records, each read back as
/// `(site key, taken, weight)` without copying the key.
#[derive(Debug, Clone, Copy)]
pub struct ProfileRecords<'a> {
    n: usize,
    bytes: &'a [u8],
}

impl<'a> ProfileRecords<'a> {
    /// Records in the batch.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Every record as `(site key, taken, weight)`, in request order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a [u8], bool, f64)> {
        let mut r = Fields { rest: self.bytes };
        // The parse validated every record, so none is skipped here.
        (0..self.n).filter_map(move |_| r.record().ok())
    }
}

impl<'a> RequestView<'a> {
    /// Parse a request payload in place: check it exactly as
    /// [`Request::decode_with_id`] does, with the same typed errors, and
    /// rewrite every PREDICT mask byte to 0/1 so each row is its own site
    /// key. Returns `(req_id, request)`.
    pub fn parse(payload: &'a mut [u8]) -> Result<(u64, Self), ServeError> {
        parse(payload)
    }

    /// Copy every field out into an owned [`Request`].
    pub fn to_request(&self) -> Request {
        match *self {
            RequestView::Predict { model, rows } => Request::Predict {
                model: model.to_owned(),
                rows: rows
                    .iter()
                    .map(|bytes| {
                        let (mut row, mut mask) = (Vec::new(), Vec::new());
                        widen_row(bytes, &mut row, &mut mask);
                        PredictRow { row, mask }
                    })
                    .collect(),
            },
            RequestView::Stats => Request::Stats,
            RequestView::Info { model } => Request::Info {
                model: model.to_owned(),
            },
            RequestView::Shutdown => Request::Shutdown,
            RequestView::Profile(records) => Request::Profile(
                records
                    .iter()
                    .map(|(key, taken, weight)| ProfileRecord {
                        site_key: key.to_vec(),
                        taken,
                        weight,
                    })
                    .collect(),
            ),
        }
    }
}

/// The bytes a request parse splits. The server parses the frame buffer
/// it owns (`&mut [u8]`) and rewrites PREDICT mask bytes to 0/1 as it
/// goes; [`Request::decode_with_id`] parses a shared payload and leaves
/// them as sent, reading any nonzero byte as set.
trait Payload<'a>: Default + std::ops::Deref<Target = [u8]> {
    /// The first `mid` bytes and the rest.
    fn split(self, mid: usize) -> (Self, Self);
    /// These bytes, read-only.
    fn shared(self) -> &'a [u8];
    /// These bytes as a PREDICT batch of `dim`-feature rows.
    fn rows(self, dim: usize) -> &'a [u8];
}

impl<'a> Payload<'a> for &'a [u8] {
    fn split(self, mid: usize) -> (Self, Self) {
        self.split_at(mid)
    }

    fn shared(self) -> &'a [u8] {
        self
    }

    fn rows(self, _dim: usize) -> &'a [u8] {
        self
    }
}

impl<'a> Payload<'a> for &'a mut [u8] {
    fn split(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }

    fn shared(self) -> &'a [u8] {
        self
    }

    fn rows(self, dim: usize) -> &'a [u8] {
        for row in self.chunks_exact_mut(row_width(dim)) {
            for m in &mut row[8 * dim..] {
                *m = u8::from(*m != 0);
            }
        }
        self
    }
}

/// Splits fields off the front of a payload, bounds-checked: a short
/// payload is a typed error, never a panic.
struct Fields<P> {
    rest: P,
}

impl<'a, P: Payload<'a>> Fields<P> {
    fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<P, ServeError> {
        let available = self.remaining();
        if n > available {
            return Err(ArtifactError::Truncated {
                needed: n,
                available,
            }
            .into());
        }
        let (field, rest) = std::mem::take(&mut self.rest).split(n);
        self.rest = rest;
        Ok(field)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ServeError> {
        Ok(self.take(N)?.shared().try_into().expect("N bytes"))
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        self.array().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, ServeError> {
        self.u64().map(f64::from_bits)
    }

    /// A length-prefixed UTF-8 string.
    fn str(&mut self) -> Result<String, ServeError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?.shared())
            .map(str::to_owned)
            .map_err(|_| ArtifactError::Malformed("string is not valid UTF-8".into()).into())
    }

    /// A model selector, its length checked against [`MAX_SELECTOR`]
    /// before its bytes are read.
    fn selector(&mut self) -> Result<&'a str, ServeError> {
        let len = self.u32()? as usize;
        if len > MAX_SELECTOR {
            return Err(ServeError::Protocol(format!(
                "model selector of {len} bytes exceeds the {MAX_SELECTOR}-byte cap"
            )));
        }
        std::str::from_utf8(self.take(len)?.shared())
            .map_err(|_| ServeError::Protocol("model selector is not valid UTF-8".into()))
    }

    /// The magic and version bytes every payload opens with.
    fn version(&mut self) -> Result<(), ServeError> {
        let magic = self.u8()?;
        if magic != PROTOCOL_MAGIC {
            return Err(ServeError::Protocol(format!(
                "payload lacks the protocol magic (first byte 0x{magic:02x}): \
                 peer speaks the unversioned v1 protocol or something else entirely"
            )));
        }
        let version = self.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(ServeError::Protocol(format!(
                "peer speaks protocol version {version}, this build speaks {PROTOCOL_VERSION}"
            )));
        }
        Ok(())
    }

    /// Insist the payload was consumed exactly.
    fn finish(self) -> Result<(), ServeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(ArtifactError::Malformed(format!("{n} trailing bytes after payload")).into()),
        }
    }
}

impl<'a> Fields<&'a [u8]> {
    /// One PROFILE record: `(site key, taken, weight)`.
    fn record(&mut self) -> Result<(&'a [u8], bool, f64), ServeError> {
        let key_len = self.u32()? as usize;
        if key_len == 0 {
            return Err(ServeError::Protocol(
                "profile record carries a zero-length site key".into(),
            ));
        }
        if key_len > self.remaining() {
            return Err(ServeError::Protocol(format!(
                "profile site key of {key_len} bytes beyond the frame"
            )));
        }
        let key = self.take(key_len)?;
        let taken = self.u8()? != 0;
        let weight = self.f64()?;
        if !weight.is_finite() || weight < 0.0 {
            return Err(ServeError::Protocol(format!(
                "profile weight {weight} is not a finite non-negative number"
            )));
        }
        Ok((key, taken, weight))
    }
}

/// The one validating request parse, over either kind of [`Payload`].
fn parse<'a, P: Payload<'a>>(payload: P) -> Result<(u64, RequestView<'a>), ServeError> {
    let mut r = Fields { rest: payload };
    r.version()?;
    let req_id = r.u64()?;
    let req = match r.u8()? {
        OP_PREDICT => {
            let model = r.selector()?;
            let n = r.u32()? as usize;
            let dim = r.u32()? as usize;
            // Each row consumes 9·dim bytes. dim == 0 would make the
            // bound below vacuous; no real model is 0-dimensional.
            if n > 0 && dim == 0 {
                return Err(ServeError::Protocol(
                    "predict batch claims rows of zero features".into(),
                ));
            }
            let Some(need) = dim
                .checked_mul(9)
                .and_then(|per_row| per_row.checked_mul(n))
                .filter(|&need| need <= r.remaining())
            else {
                return Err(ServeError::Protocol(format!(
                    "predict batch claims {n} rows × {dim} features beyond the frame"
                )));
            };
            let bytes = r.take(need)?.rows(dim);
            RequestView::Predict {
                model,
                rows: PredictRows { dim, bytes },
            }
        }
        OP_STATS => RequestView::Stats,
        OP_INFO => RequestView::Info {
            model: r.selector()?,
        },
        OP_SHUTDOWN => RequestView::Shutdown,
        OP_PROFILE => {
            let n = r.u32()? as usize;
            // Same discipline as PREDICT: bound the claimed record count
            // by the bytes actually present.
            if n.checked_mul(PROFILE_RECORD_MIN)
                .is_none_or(|need| need > r.remaining())
            {
                return Err(ServeError::Protocol(format!(
                    "profile batch claims {n} records beyond the frame"
                )));
            }
            // The records run to the end of the payload: check each one,
            // then that nothing trails them.
            let bytes = r.take(r.remaining())?.shared();
            let mut records = Fields { rest: bytes };
            for _ in 0..n {
                records.record()?;
            }
            records.finish()?;
            RequestView::Profile(ProfileRecords { n, bytes })
        }
        other => return Err(ServeError::Protocol(format!("unknown opcode {other}"))),
    };
    r.finish()?;
    Ok((req_id, req))
}

const ST_OK: u8 = 0;
const ST_ERR: u8 = 1;
const RESP_PREDICTIONS: u8 = 1;
const RESP_STATS: u8 = 2;
const RESP_INFO: u8 = 3;
const RESP_SHUTDOWN: u8 = 4;
const RESP_PROFILE: u8 = 5;

impl Response {
    /// Encode to a frame payload with request id 0 (unset).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_id(0)
    }

    /// Encode to a frame payload echoing `req_id` back to the client.
    pub fn encode_with_id(&self, req_id: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_version(&mut w);
        w.u64(req_id);
        match self {
            Response::Error(msg) => {
                w.u8(ST_ERR);
                w.str(msg);
            }
            Response::Predictions(ps) => {
                w.u8(ST_OK);
                w.u8(RESP_PREDICTIONS);
                w.u32(ps.len() as u32);
                for p in ps {
                    w.f64(p.prob);
                    w.u8(p.taken as u8);
                }
            }
            Response::Stats(s) => {
                w.u8(ST_OK);
                w.u8(RESP_STATS);
                for v in [
                    s.connections,
                    s.requests,
                    s.predict_requests,
                    s.predictions,
                    s.cache_hits,
                    s.cache_misses,
                    s.p50_us,
                    s.p99_us,
                    s.max_us,
                ] {
                    w.u64(v);
                }
                w.str(&s.exposition);
            }
            Response::Info(i) => {
                w.u8(ST_OK);
                w.u8(RESP_INFO);
                w.u32(i.dim);
                w.u32(i.hidden);
                w.u32(i.format_version);
                w.str(&i.corpus_id);
                w.str(&i.model_name);
                w.u32(i.model_version);
            }
            Response::ShuttingDown => {
                w.u8(ST_OK);
                w.u8(RESP_SHUTDOWN);
            }
            Response::Profiled(ack) => {
                w.u8(ST_OK);
                w.u8(RESP_PROFILE);
                w.u64(ack.applied);
                w.u64(ack.unmatched);
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload, discarding the echoed request id.
    pub fn decode(payload: &[u8]) -> Result<Self, ServeError> {
        Self::decode_with_id(payload).map(|(_, resp)| resp)
    }

    /// Decode a frame payload, returning `(req_id, response)`.
    pub fn decode_with_id(payload: &[u8]) -> Result<(u64, Self), ServeError> {
        let mut r = Fields { rest: payload };
        r.version()?;
        let req_id = r.u64()?;
        let status = r.u8()?;
        if status == ST_ERR {
            let msg = r.str()?;
            r.finish()?;
            return Ok((req_id, Response::Error(msg)));
        }
        let kind = r.u8()?;
        let resp = match kind {
            RESP_PREDICTIONS => {
                let n = r.u32()? as usize;
                if n.checked_mul(9).is_none_or(|need| need > r.remaining()) {
                    return Err(ServeError::Protocol(format!(
                        "prediction count {n} beyond the frame"
                    )));
                }
                let mut ps = Vec::with_capacity(n);
                for _ in 0..n {
                    let prob = r.f64()?;
                    let taken = r.u8()? != 0;
                    ps.push(Prediction { prob, taken });
                }
                Response::Predictions(ps)
            }
            RESP_STATS => Response::Stats(StatsSnapshot {
                connections: r.u64()?,
                requests: r.u64()?,
                predict_requests: r.u64()?,
                predictions: r.u64()?,
                cache_hits: r.u64()?,
                cache_misses: r.u64()?,
                p50_us: r.u64()?,
                p99_us: r.u64()?,
                max_us: r.u64()?,
                exposition: r.str()?,
            }),
            RESP_INFO => Response::Info(ServerInfo {
                dim: r.u32()?,
                hidden: r.u32()?,
                format_version: r.u32()?,
                corpus_id: r.str()?,
                model_name: r.str()?,
                model_version: r.u32()?,
            }),
            RESP_SHUTDOWN => Response::ShuttingDown,
            RESP_PROFILE => Response::Profiled(ProfileAck {
                applied: r.u64()?,
                unmatched: r.u64()?,
            }),
            other => {
                return Err(ServeError::Protocol(format!(
                    "unknown response kind {other}"
                )))
            }
        };
        r.finish()?;
        Ok((req_id, resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Predict {
                model: String::new(),
                rows: vec![
                    PredictRow {
                        row: vec![1.0, -2.5, 0.0],
                        mask: vec![true, false, true],
                    },
                    PredictRow {
                        row: vec![0.5, 0.25, -0.0],
                        mask: vec![true, true, true],
                    },
                ],
            },
            Request::Predict {
                model: "branch-esp@2".into(),
                rows: vec![PredictRow {
                    row: vec![0.5],
                    mask: vec![true],
                }],
            },
            Request::Predict {
                model: String::new(),
                rows: Vec::new(),
            },
            Request::Stats,
            Request::Info {
                model: String::new(),
            },
            Request::Info {
                model: "branch-esp".into(),
            },
            Request::Shutdown,
            Request::Profile(vec![ProfileRecord {
                site_key: vec![0xDE, 0xAD],
                taken: true,
                weight: 12.5,
            }]),
            Request::Profile(Vec::new()),
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode().unwrap()).unwrap(), req);
        }
    }

    #[test]
    fn ragged_batches_fail_to_encode() {
        let ragged = [
            Request::Predict {
                model: String::new(),
                rows: vec![
                    PredictRow {
                        row: vec![1.0, 2.0],
                        mask: vec![true, true],
                    },
                    PredictRow {
                        row: vec![1.0],
                        mask: vec![true],
                    },
                ],
            },
            // mask length disagreeing with the row length is just as ragged
            Request::Predict {
                model: String::new(),
                rows: vec![PredictRow {
                    row: vec![1.0, 2.0],
                    mask: vec![true],
                }],
            },
        ];
        for req in ragged {
            assert!(matches!(req.encode(), Err(ServeError::Protocol(_))));
        }
    }

    #[test]
    fn model_selectors_are_capped_both_directions() {
        let long = "m".repeat(MAX_SELECTOR + 1);
        for req in [
            Request::Info {
                model: long.clone(),
            },
            Request::Predict {
                model: long.clone(),
                rows: Vec::new(),
            },
        ] {
            let err = req.encode().unwrap_err();
            assert!(
                matches!(&err, ServeError::Protocol(m) if m.contains("selector")),
                "got: {err}"
            );
        }
        // At the cap, everything round-trips.
        let at_cap = Request::Info {
            model: "m".repeat(MAX_SELECTOR),
        };
        assert_eq!(Request::decode(&at_cap.encode().unwrap()).unwrap(), at_cap);

        // A hostile frame claiming a selector longer than the cap is
        // refused before the string is materialized.
        let mut w = v4_prefix(0);
        w.u8(OP_INFO);
        w.u32(u32::MAX);
        let err = Request::decode(&w.into_bytes()).unwrap_err();
        assert!(
            matches!(&err, ServeError::Protocol(m) if m.contains("selector")),
            "got: {err}"
        );
        // Non-UTF-8 selector bytes are a named decode error.
        let mut w = v4_prefix(0);
        w.u8(OP_INFO);
        w.u32(2);
        w.u8(0xFF);
        w.u8(0xFE);
        let err = Request::decode(&w.into_bytes()).unwrap_err();
        assert!(
            matches!(&err, ServeError::Protocol(m) if m.contains("UTF-8")),
            "got: {err}"
        );
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Predictions(vec![Prediction {
                prob: 0.75,
                taken: true,
            }]),
            Response::Stats(StatsSnapshot {
                connections: 1,
                requests: 9,
                predict_requests: 5,
                predictions: 40,
                cache_hits: 30,
                cache_misses: 10,
                p50_us: 120,
                p99_us: 900,
                max_us: 1500,
                exposition: "# TYPE esp_serve_requests_total counter\n\
                             esp_serve_requests_total 9\n"
                    .into(),
            }),
            Response::Info(ServerInfo {
                dim: 155,
                hidden: 10,
                format_version: 1,
                corpus_id: "cc-osf1-v1.2".into(),
                model_name: "branch-esp".into(),
                model_version: 3,
            }),
            Response::Info(ServerInfo {
                dim: 24,
                hidden: 8,
                format_version: 3,
                corpus_id: "synthetic".into(),
                model_name: String::new(),
                model_version: 0,
            }),
            Response::ShuttingDown,
            Response::Profiled(ProfileAck {
                applied: 40,
                unmatched: 2,
            }),
            Response::Error("no such model".into()),
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let payload = Request::Stats.encode().unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut cursor).unwrap(), None); // clean EOF
    }

    /// A `Read` that serves a script of partial chunks and timeouts, like a
    /// slow socket with a read timeout.
    struct StutteringReader {
        script: Vec<Result<Vec<u8>, std::io::ErrorKind>>,
    }

    impl Read for StutteringReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.script.pop() {
                None => Ok(0), // EOF once the script runs out
                Some(Err(kind)) => Err(kind.into()),
                Some(Ok(bytes)) => {
                    assert!(bytes.len() <= buf.len(), "script chunk fits the request");
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let payload = Request::Predict {
            model: String::new(),
            rows: vec![PredictRow {
                row: vec![0.5, -1.5],
                mask: vec![true, false],
            }],
        }
        .encode()
        .unwrap();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();

        // Deliver the frame in awkward slices with timeouts everywhere: mid
        // length prefix, between prefix and payload, and mid payload.
        let mid = framed.len() / 2;
        let script: Vec<Result<Vec<u8>, std::io::ErrorKind>> = vec![
            Ok(framed[..2].to_vec()),
            Err(std::io::ErrorKind::WouldBlock),
            Ok(framed[2..4].to_vec()),
            Err(std::io::ErrorKind::TimedOut),
            Ok(framed[4..mid].to_vec()),
            Err(std::io::ErrorKind::WouldBlock),
            Ok(framed[mid..].to_vec()),
        ];
        let mut r = StutteringReader {
            script: script.into_iter().rev().collect(),
        };
        let mut frames = FrameReader::new();
        let mut timeouts = 0;
        let got = loop {
            match frames.read(&mut r) {
                Ok(Some(p)) => break p,
                Ok(None) => panic!("EOF before the frame completed"),
                Err(ServeError::Io(e))
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    timeouts += 1; // resume; no bytes may be lost
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(got, payload, "frame reassembled across timeouts");
        assert_eq!(timeouts, 3);
        assert_eq!(frames.read(&mut r).unwrap(), None, "clean EOF after");
    }

    #[test]
    fn frame_reader_flags_eof_mid_frame() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &Request::Stats.encode().unwrap()).unwrap();
        framed.pop(); // lose the last payload byte before "hanging up"
        let mut cursor = std::io::Cursor::new(framed);
        let err = FrameReader::new().read(&mut cursor).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn hostile_lengths_are_typed_errors() {
        // declared frame length beyond the cap
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(buf)),
            Err(ServeError::FrameTooLarge(_))
        ));
        // predict batch claiming more rows than the frame holds
        let mut w = ByteWriter::new();
        w.u8(PROTOCOL_MAGIC);
        w.u8(PROTOCOL_VERSION);
        w.u64(0);
        w.u8(OP_PREDICT);
        w.u32(0); // empty model selector
        w.u32(u32::MAX);
        w.u32(1000);
        assert!(matches!(
            Request::decode(&w.into_bytes()),
            Err(ServeError::Protocol(_))
        ));
        // zero-dim rows would make the size bound vacuous: a 9-byte frame
        // must not reach a u32::MAX-element allocation
        let mut w = ByteWriter::new();
        w.u8(PROTOCOL_MAGIC);
        w.u8(PROTOCOL_VERSION);
        w.u64(0);
        w.u8(OP_PREDICT);
        w.u32(0); // empty model selector
        w.u32(u32::MAX);
        w.u32(0);
        assert!(matches!(
            Request::decode(&w.into_bytes()),
            Err(ServeError::Protocol(_))
        ));
        // garbage opcode
        assert!(matches!(
            Request::decode(&[PROTOCOL_MAGIC, PROTOCOL_VERSION, 0, 0, 0, 0, 0, 0, 0, 0, 99]),
            Err(ServeError::Protocol(_))
        ));
    }

    /// A current-version payload prefix: magic, version, request id.
    fn v4_prefix(req_id: u64) -> ByteWriter {
        let mut w = ByteWriter::new();
        w.u8(PROTOCOL_MAGIC);
        w.u8(PROTOCOL_VERSION);
        w.u64(req_id);
        w
    }

    #[test]
    fn profile_round_trips_with_request_ids() {
        let req = Request::Profile(vec![
            ProfileRecord {
                site_key: vec![1, 2, 3, 4],
                taken: true,
                weight: 127.0,
            },
            ProfileRecord {
                site_key: vec![9],
                taken: false,
                weight: 0.25,
            },
        ]);
        let payload = req.encode_with_id(42).unwrap();
        let (id, decoded) = Request::decode_with_id(&payload).unwrap();
        assert_eq!(id, 42);
        assert_eq!(decoded, req);

        let resp = Response::Profiled(ProfileAck {
            applied: 2,
            unmatched: 0,
        });
        let (id, decoded) = Response::decode_with_id(&resp.encode_with_id(42)).unwrap();
        assert_eq!(id, 42);
        assert_eq!(decoded, resp);

        // The id-less wrappers stamp and discard id 0.
        assert_eq!(Request::decode(&req.encode().unwrap()).unwrap(), req);
        let (id, _) = Request::decode_with_id(&req.encode().unwrap()).unwrap();
        assert_eq!(id, 0);
    }

    #[test]
    fn request_ids_ride_every_opcode() {
        for req in [
            Request::Stats,
            Request::Info {
                model: "panel@3".into(),
            },
            Request::Shutdown,
        ] {
            let payload = req.encode_with_id(7).unwrap();
            assert_eq!(Request::decode_with_id(&payload).unwrap(), (7, req));
        }
        let resp = Response::Error("nope".into());
        assert_eq!(
            Response::decode_with_id(&resp.encode_with_id(9)).unwrap(),
            (9, resp)
        );
    }

    #[test]
    fn hostile_profile_frames_are_typed_errors() {
        // Record count beyond what the frame can hold.
        let mut w = v4_prefix(0);
        w.u8(OP_PROFILE);
        w.u32(u32::MAX);
        assert!(matches!(
            Request::decode(&w.into_bytes()),
            Err(ServeError::Protocol(_))
        ));
        // Zero-length site key: would let outcomes alias a degenerate key.
        // (One padding byte keeps the frame at PROFILE_RECORD_MIN so the
        // batch-bound check passes and the key check itself is exercised.)
        let mut w = v4_prefix(0);
        w.u8(OP_PROFILE);
        w.u32(1);
        w.u32(0); // key_len = 0
        w.u8(1);
        w.f64(1.0);
        w.u8(0);
        let err = Request::decode(&w.into_bytes()).unwrap_err();
        assert!(
            matches!(&err, ServeError::Protocol(m) if m.contains("zero-length")),
            "got: {err}"
        );
        // Site key length beyond the frame.
        let mut w = v4_prefix(0);
        w.u8(OP_PROFILE);
        w.u32(1);
        w.u32(1 << 20);
        w.u8(1);
        w.f64(1.0);
        assert!(matches!(
            Request::decode(&w.into_bytes()),
            Err(ServeError::Protocol(_))
        ));
        // Truncated mid-record: key promises 4 bytes, frame ends after 1.
        let mut w = v4_prefix(0);
        w.u8(OP_PROFILE);
        w.u32(1);
        w.u32(4);
        w.u8(0xAB);
        assert!(Request::decode(&w.into_bytes()).is_err());
        // Non-finite and negative weights are refused on decode…
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut w = v4_prefix(0);
            w.u8(OP_PROFILE);
            w.u32(1);
            w.u32(1);
            w.u8(7);
            w.u8(1);
            w.f64(bad);
            let err = Request::decode(&w.into_bytes()).unwrap_err();
            assert!(
                matches!(&err, ServeError::Protocol(m) if m.contains("weight")),
                "weight {bad}: got {err}"
            );
            // …and on encode, so a buggy client fails fast locally.
            let req = Request::Profile(vec![ProfileRecord {
                site_key: vec![7],
                taken: true,
                weight: bad,
            }]);
            assert!(matches!(req.encode(), Err(ServeError::Protocol(_))));
        }
        // Zero-length keys also refuse to encode.
        let req = Request::Profile(vec![ProfileRecord {
            site_key: Vec::new(),
            taken: true,
            weight: 1.0,
        }]);
        assert!(matches!(req.encode(), Err(ServeError::Protocol(_))));
    }

    #[test]
    fn older_versioned_peers_are_refused_by_name() {
        const V3: u8 = 3;
        // A v3 STATS request (no model selectors anywhere) read by this v4
        // build: named version mismatch, not a misparse.
        let v3_stats = [
            PROTOCOL_MAGIC,
            V3,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0, // request id
            OP_STATS,
        ];
        let err = Request::decode(&v3_stats).unwrap_err();
        assert!(
            matches!(&err, ServeError::Protocol(m)
                if m.contains("version 3") && m.contains("4")),
            "got: {err}"
        );
        // A v3 response read by a v4 client: same.
        let v3_resp = [
            PROTOCOL_MAGIC,
            V3,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            0,
            ST_OK,
            RESP_SHUTDOWN,
        ];
        assert!(matches!(
            Response::decode(&v3_resp),
            Err(ServeError::Protocol(_))
        ));
        // The converse (v4 frame at a v3 peer) is simulated by the same
        // strict equality check: a v3 build sees version 4 ≠ 3 and refuses
        // before touching the body. Verify our own encoder really stamps
        // version 4 in byte 1, which is all an older decoder looks at.
        let payload = Request::Stats.encode().unwrap();
        assert_eq!(payload[0], PROTOCOL_MAGIC);
        assert_eq!(payload[1], 4);
        assert_ne!(payload[1], V3);
    }

    #[test]
    fn version_mismatches_are_explicit_errors() {
        // A v1 (unversioned) STATS request: single opcode byte, no prefix.
        // Must be named as a version problem, not an UnexpectedEof.
        let err = Request::decode(&[2]).unwrap_err();
        assert!(
            matches!(&err, ServeError::Protocol(m) if m.contains("v1")),
            "got: {err}"
        );
        // A v1-style response (status byte first) read by a current client.
        let err = Response::decode(&[0, 2, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err();
        assert!(
            matches!(&err, ServeError::Protocol(m) if m.contains("v1")),
            "got: {err}"
        );
        // Right magic, future version: the message names both revisions.
        let future = PROTOCOL_VERSION + 1;
        for payload in [
            [PROTOCOL_MAGIC, future, 2].as_slice(),
            [PROTOCOL_MAGIC, future, 0, 4].as_slice(),
        ] {
            let req_err = Request::decode(payload).unwrap_err();
            assert!(
                matches!(&req_err, ServeError::Protocol(m)
                    if m.contains(&format!("version {future}"))
                        && m.contains(&PROTOCOL_VERSION.to_string())),
                "got: {req_err}"
            );
            let resp_err = Response::decode(payload).unwrap_err();
            assert!(
                matches!(resp_err, ServeError::Protocol(_)),
                "response decode must also refuse version {future}"
            );
        }
        // Truly empty / truncated payloads still fail decode, just not as a
        // version mismatch.
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[PROTOCOL_MAGIC]).is_err());
    }

    #[test]
    fn stats_cache_hit_rate() {
        let mut s = StatsSnapshot::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
    }
}
