//! The event-loop TCP prediction server.
//!
//! One reactor thread drives a nonblocking listener plus every connection
//! as a resumable state machine (read → decode → dispatch → write, built
//! on the same resumable `FrameReader` the threaded server used), and N
//! shard workers own per-shard LRU caches and do the model compute. All of
//! it stays on the `esp-runtime` discipline: deterministic results (the
//! model is immutable; the caches only memoise bit-identical values),
//! parallelism only affects wall-clock.
//!
//! Per connection, responses are queued in request order: immediate
//! opcodes (STATS, INFO, PROFILE, SHUTDOWN, errors) enter the queue as
//! encoded bytes, while a PREDICT enters as a pending join that the shard
//! workers fill; the reactor completes the head of the queue as soon as
//! its join resolves, so pipelined clients always read replies in the
//! order they asked. Partial writes park in a per-connection buffer and
//! resume when the socket drains.
//!
//! Multiple models are served behind one port (see the `models` module):
//! the v4 PREDICT/INFO selector picks one, and a watcher thread can hot
//! reload new registry versions with an atomic `Arc` swap — in-flight
//! requests finish on the model they resolved; nothing fails or drops.
//!
//! Shutdown is graceful: a `SHUTDOWN` frame (or [`ServerHandle::shutdown`])
//! raises a flag; the reactor stops accepting and reading, finishes every
//! queued response, flushes, stops the shard workers, and exits.

use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use esp_artifact::{AnyArtifact, Registry};
use esp_obs::window::{Clock, SlidingWindow, SystemClock};
use esp_obs::{Ledger, OutcomeRecord};

use crate::metrics::Metrics;
use crate::models::{entry_from_any, ModelTable};
use crate::protocol::{
    FrameReader, Prediction, ProfileAck, ProfileRecord, Request, Response, ServeError, ServerInfo,
};
use crate::shard::{PredictJoin, ShardPool, ShardStats};

/// Numeric precision the server predicts at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Full f64 weights — bitwise identical to training-time prediction.
    F64,
    /// Quantized f32 weights — the compact serving path.
    F32,
}

impl std::str::FromStr for Precision {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f64" => Ok(Precision::F64),
            "f32" => Ok(Precision::F32),
            other => Err(format!("unknown precision {other:?} (expected f32 or f64)")),
        }
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard workers, each owning its slice of the LRU cache; `0` = one
    /// per available core.
    pub shards: usize,
    /// Aggregate LRU cache capacity in entries, split evenly across the
    /// shards; `0` disables caching.
    pub cache_capacity: usize,
    /// Serving precision; `None` = the artifact's native precision. An f64
    /// artifact can be quantized down to f32 at load; an f32 artifact
    /// cannot be served at f64 (the information is gone).
    pub precision: Option<Precision>,
    /// Address for the HTTP telemetry sidecar (`GET /metrics`, `/healthz`,
    /// `/sitez`); `None` = no HTTP listener.
    pub http_addr: Option<String>,
    /// Record served predictions and PROFILE outcomes in the per-site
    /// accuracy ledger. Off, the ledger costs one atomic load per row.
    pub ledger: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 0,
            cache_capacity: 4096,
            precision: None,
            http_addr: None,
            ledger: true,
        }
    }
}

/// Where a server's models come from.
#[derive(Debug)]
pub enum ModelSource<'a> {
    /// One anonymous model (a bare `.espm` file or a synthetic artifact).
    Artifact(&'a AnyArtifact),
    /// Named registry models behind one port. Each `(name, version)` pair
    /// loads that exact version, or the newest when `None`; the first name
    /// becomes the default model (what an empty selector resolves to).
    Registry {
        /// The registry to load from.
        registry: &'a Registry,
        /// `(name, pinned version)` for every served model.
        models: &'a [(String, Option<u32>)],
        /// Poll the registry every this many milliseconds and hot-reload
        /// newer versions of every *unpinned* name: the table entry is
        /// atomically swapped, in-flight requests finish on the old model,
        /// and `esp_serve_reloads_total` / `esp_serve_model_version` record
        /// the flip. `None` disables the watcher.
        reload_watch_ms: Option<u64>,
    },
}

/// Sliding telemetry windows: 60 buckets of 1 s, so `/healthz` reports
/// rates and quantiles over the last minute.
const WINDOW_SLOTS: usize = 60;
const WINDOW_BUCKET_US: u64 = 1_000_000;

/// Observed weights are f64; the windows store integers. Micro-weight
/// resolution (×1e6) keeps fractional profile weights visible.
const WEIGHT_SCALE: f64 = 1e6;

/// A connection whose unflushed output exceeds this stops being read until
/// the client drains it — backpressure against a pipelining client that
/// never reads replies.
const OUT_HIGH_WATER: usize = 4 << 20;

/// Empty reactor sweeps before easing off the CPU: first yield the core
/// (lets shard workers and local clients run immediately — the common case
/// under load), then sleep in 1 ms naps once genuinely idle.
const IDLE_SPINS: u32 = 128;
const IDLE_SLEEP: Duration = Duration::from_millis(1);

pub(crate) struct Shared {
    /// Selector → model routing table (hot reload swaps entries here).
    pub(crate) models: ModelTable,
    pub(crate) metrics: Metrics,
    pub(crate) stop: AtomicBool,
    /// Per-site accuracy ledger (PROFILE outcomes joined to served
    /// predictions).
    pub(crate) ledger: Ledger,
    /// Clock for the sliding windows; also the uptime epoch.
    pub(crate) clock: SystemClock,
    /// Last-minute end-to-end request latency (µs).
    pub(crate) req_window: SlidingWindow,
    /// Last-minute observed outcome mass (micro-weights).
    pub(crate) observed_window: SlidingWindow,
    /// Last-minute mispredicted mass (micro-weights).
    pub(crate) mispredict_window: SlidingWindow,
    /// HTTP sidecar requests served (kept out of the metrics registry so
    /// scraping does not perturb the byte-identity of `/metrics` vs STATS
    /// on a quiesced server).
    pub(crate) http_requests: AtomicU64,
    /// Per-shard health counters, written by the workers, read by
    /// `/healthz` and the exposition.
    pub(crate) shard_stats: Vec<Arc<ShardStats>>,
}

impl Shared {
    /// Model facts of the default model (what `/healthz` reports).
    pub(crate) fn info(&self) -> ServerInfo {
        self.models.default_entry().info.clone()
    }

    pub(crate) fn precision_bits(&self) -> u32 {
        self.models.default_entry().model.precision_bits()
    }

    /// The unified exposition: per-shard gauges refreshed from the worker
    /// counters, then the metrics registry followed by the accuracy-ledger
    /// families. The STATS opcode, the in-process
    /// [`ServerHandle::metrics_text`], and the HTTP `/metrics` endpoint all
    /// render through here, so the three views are byte-identical on a
    /// quiesced server.
    pub(crate) fn exposition(&self) -> String {
        for (i, st) in self.shard_stats.iter().enumerate() {
            self.metrics.set_shard(
                i,
                st.queue_depth.load(Ordering::Relaxed),
                st.hits.load(Ordering::Relaxed),
                st.misses.load(Ordering::Relaxed),
                st.entries.load(Ordering::Relaxed),
            );
        }
        let mut text = self.metrics.render_text();
        text.push_str(&self.ledger.render_text());
        text
    }

    pub(crate) fn stats_snapshot(&self) -> crate::protocol::StatsSnapshot {
        self.metrics.snapshot_with(self.exposition())
    }
}

/// A running prediction server.
pub struct ServerHandle {
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    reactor: Option<std::thread::JoinHandle<()>>,
    http: Option<std::thread::JoinHandle<()>>,
    watcher: Option<std::thread::JoinHandle<()>>,
}

/// What the reload watcher polls.
struct WatchCfg {
    registry: Registry,
    /// Unpinned model names eligible for hot reload.
    names: Vec<String>,
    interval: Duration,
    precision: Option<Precision>,
}

/// Start serving `models` on `addr` (use port `0` for an ephemeral port;
/// the bound address is available via [`ServerHandle::addr`]).
///
/// The precision matrix: an f64 artifact serves at its native f64 or
/// quantizes down to f32 on request; an f32 artifact serves at f32
/// (requesting f64 from it is an `InvalidInput` error — the precision was
/// discarded at quantization).
pub fn serve(
    models: ModelSource<'_>,
    addr: &str,
    cfg: &ServeConfig,
) -> std::io::Result<ServerHandle> {
    let (table, watch) = match models {
        ModelSource::Artifact(artifact) => {
            let table = ModelTable::new("");
            let entry = entry_from_any(&table, artifact, "", 0, cfg.precision)?;
            table.install("", Arc::new(entry));
            (table, None)
        }
        ModelSource::Registry {
            registry,
            models,
            reload_watch_ms,
        } => {
            let Some((default, _)) = models.first() else {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidInput,
                    "a registry server needs at least one model name",
                ));
            };
            let table = ModelTable::new(default);
            for (name, pin) in models {
                let (version, artifact) = registry
                    .load_any(name, *pin)
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
                let entry = entry_from_any(&table, &artifact, name, version, cfg.precision)?;
                table.install(name, Arc::new(entry));
            }
            let watch = reload_watch_ms.map(|ms| WatchCfg {
                registry: registry.clone(),
                names: models
                    .iter()
                    .filter(|(_, pin)| pin.is_none())
                    .map(|(n, _)| n.clone())
                    .collect(),
                interval: Duration::from_millis(ms.max(1)),
                precision: cfg.precision,
            });
            (table, watch)
        }
    };

    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shards = esp_runtime::resolve_threads(cfg.shards);
    let metrics = Metrics::with_shards(shards);
    {
        let default = table.default_entry();
        metrics.set_precision(default.model.precision_bits());
        metrics.set_model_version(default.info.model_version);
    }
    let shard_stats = (0..shards).map(|_| Arc::new(ShardStats::default())).collect();
    let shared = Arc::new(Shared {
        models: table,
        metrics,
        stop: AtomicBool::new(false),
        ledger: Ledger::new(cfg.ledger),
        clock: SystemClock::new(),
        req_window: SlidingWindow::new(WINDOW_SLOTS, WINDOW_BUCKET_US),
        observed_window: SlidingWindow::new(WINDOW_SLOTS, WINDOW_BUCKET_US),
        mispredict_window: SlidingWindow::new(WINDOW_SLOTS, WINDOW_BUCKET_US),
        http_requests: AtomicU64::new(0),
        shard_stats,
    });

    // The HTTP telemetry sidecar binds before the reactor spawns so a
    // bad --http-addr fails server startup instead of dying silently on a
    // background thread.
    let (http_addr, http) = match &cfg.http_addr {
        Some(spec) => {
            let (bound, handle) = crate::http::spawn(spec, Arc::clone(&shared))?;
            (Some(bound), Some(handle))
        }
        None => (None, None),
    };

    // The reactor owns the shard pool: it is the only dispatcher, and it
    // stops and joins the workers after draining at shutdown.
    let pool = ShardPool::spawn(&shared, shards, cfg.cache_capacity);
    let reactor_shared = Arc::clone(&shared);
    let reactor = std::thread::Builder::new()
        .name("esp-serve-reactor".to_string())
        .spawn(move || reactor_loop(reactor_shared, listener, pool))?;

    let watcher = watch.map(|w| {
        let watch_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("esp-serve-reload".to_string())
            .spawn(move || watch_loop(watch_shared, w))
            .expect("spawn reload watcher")
    });

    Ok(ServerHandle {
        addr,
        http_addr,
        shared,
        reactor: Some(reactor),
        http,
        watcher,
    })
}

impl ServerHandle {
    /// The address the server is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The HTTP telemetry sidecar's bound address, when one was configured.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// A snapshot of the server's metrics, read in-process. Carries the
    /// same unified exposition (registry + ledger) the STATS opcode and
    /// `GET /metrics` serve.
    pub fn metrics(&self) -> crate::protocol::StatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// The server's Prometheus-style metrics text exposition — registry
    /// families plus the `esp_ledger_` families — read in-process. Still
    /// available after [`ServerHandle::wait`] returns, so a
    /// `--metrics-out` file can be written post-shutdown.
    pub fn metrics_text(&self) -> String {
        self.shared.exposition()
    }

    /// A summary of the accuracy ledger, read in-process.
    pub fn ledger_summary(&self) -> esp_obs::LedgerSummary {
        self.shared.ledger.summary()
    }

    /// Block until the server exits (i.e. until some client sends
    /// `SHUTDOWN` or [`ServerHandle::shutdown`] is called elsewhere).
    pub fn join(mut self) {
        self.wait();
    }

    /// Like [`ServerHandle::join`], but borrowing — the handle stays usable
    /// for post-exit reads such as [`ServerHandle::metrics_text`].
    pub fn wait(&mut self) {
        if let Some(r) = self.reactor.take() {
            let _ = r.join();
        }
        if let Some(h) = self.http.take() {
            let _ = h.join();
        }
        if let Some(w) = self.watcher.take() {
            let _ = w.join();
        }
    }

    /// Stop accepting work, drain queued responses, and wait for every
    /// thread (the nonblocking reactor notices the flag within one poll).
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.wait();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.reactor.is_some() || self.http.is_some() || self.watcher.is_some() {
            self.shared.stop.store(true, Ordering::SeqCst);
            self.wait();
        }
    }
}

/// One queued response slot. The queue preserves request order: only the
/// head may leave, and a pending head blocks everything behind it.
enum Slot {
    /// Encoded response payload, ready to frame and write.
    Ready(Vec<u8>),
    /// A predict batch in flight on the shard workers.
    Pending {
        req_id: u64,
        join: Arc<PredictJoin>,
        svc_start: Instant,
    },
}

/// Per-connection state machine: resumable frame reads, the in-order
/// response queue, and the pending-write buffer.
struct Conn {
    stream: TcpStream,
    frames: FrameReader,
    queue: VecDeque<Slot>,
    /// Bytes framed but not yet written (partial-write parking).
    out: Vec<u8>,
    out_pos: usize,
    /// Peer closed its write side; we still flush what is queued.
    read_closed: bool,
    /// I/O or framing error; the connection is dropped without flushing.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            frames: FrameReader::new(),
            queue: VecDeque::new(),
            out: Vec::new(),
            out_pos: 0,
            read_closed: false,
            dead: false,
        }
    }

    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Nothing queued, nothing buffered: safe to close or to let shutdown
    /// proceed.
    fn drained(&self) -> bool {
        self.dead || (self.queue.is_empty() && self.flushed())
    }

    /// This connection is over and can be dropped.
    fn finished(&self) -> bool {
        self.dead || (self.read_closed && self.queue.is_empty() && self.flushed())
    }
}

fn reactor_loop(shared: Arc<Shared>, listener: TcpListener, pool: ShardPool) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut idle: u32 = 0;
    loop {
        let stopping = shared.stop.load(Ordering::SeqCst);
        let mut progress = false;

        if !stopping {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        shared.metrics.connections.inc();
                        conns.push(Conn::new(stream));
                        progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        for conn in conns.iter_mut() {
            progress |= pump(&shared, &pool, conn, stopping);
        }
        conns.retain(|c| !c.finished());

        if stopping && conns.iter().all(Conn::drained) {
            break;
        }

        if progress {
            idle = 0;
        } else {
            idle = idle.saturating_add(1);
            if idle < IDLE_SPINS {
                // Yield first: on a busy box this hands the core straight
                // to a shard worker or a local client, costing microseconds
                // instead of a sleep quantum.
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }
    // Workers drain their queues (Stop sits behind any remaining jobs),
    // then exit; nothing in flight is abandoned.
    pool.stop();
}

/// Drive one connection as far as it will go without blocking. Returns
/// true when any byte or state moved.
fn pump(shared: &Shared, pool: &ShardPool, conn: &mut Conn, stopping: bool) -> bool {
    let mut progress = false;

    // 1. Read complete frames and dispatch them. Skipped while stopping
    //    (no new work), after EOF, or while the peer is not draining its
    //    replies (backpressure).
    if !stopping && !conn.read_closed && !conn.dead && conn.out.len() - conn.out_pos < OUT_HIGH_WATER
    {
        loop {
            let read = {
                let Conn { frames, stream, .. } = &mut *conn;
                frames.read(&mut &*stream)
            };
            match read {
                Ok(Some(payload)) => {
                    progress = true;
                    handle_frame(shared, pool, &mut conn.queue, &payload);
                }
                Ok(None) => {
                    conn.read_closed = true;
                    break;
                }
                Err(ServeError::Io(e))
                    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                {
                    break; // mid-frame; the FrameReader resumes next sweep
                }
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    // 2. Complete the head of the response queue into the write buffer —
    //    ready slots immediately, pending slots once their shard join
    //    resolves. Head-only, so replies keep request order.
    loop {
        let head_done = match conn.queue.front() {
            Some(Slot::Ready(_)) => true,
            Some(Slot::Pending { join, .. }) => join.complete(),
            None => false,
        };
        if !head_done {
            break;
        }
        match conn.queue.pop_front() {
            Some(Slot::Ready(payload)) => push_frame(&mut conn.out, &payload),
            Some(Slot::Pending {
                req_id,
                join,
                svc_start,
            }) => {
                let probs = std::mem::take(&mut *join.probs.lock().expect("join lock"));
                let predictions: Vec<Prediction> = probs
                    .into_iter()
                    .map(|prob| Prediction {
                        prob,
                        taken: prob > 0.5,
                    })
                    .collect();
                let payload = Response::Predictions(predictions).encode_with_id(req_id);
                push_frame(&mut conn.out, &payload);
                shared.metrics.update_cache_hit_ratio();
                record_request(shared, svc_start);
            }
            None => unreachable!("head_done implies a head"),
        }
        progress = true;
    }

    // 3. Flush the write buffer as far as the socket allows.
    if !conn.dead && !conn.flushed() {
        loop {
            match (&conn.stream).write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    progress = true;
                    if conn.flushed() {
                        conn.out.clear();
                        conn.out_pos = 0;
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    progress
}

/// Append one length-prefixed frame to a connection's write buffer.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decode one frame and enqueue its response slot. Immediate opcodes are
/// answered (and measured) inline; PREDICT validates, routes to the shard
/// workers, and parks a pending slot.
fn handle_frame(shared: &Shared, pool: &ShardPool, queue: &mut VecDeque<Slot>, payload: &[u8]) {
    // End-to-end service clock: covers decode, handling (cache-hit fast
    // path included) and response encode; the write happens on the shared
    // reactor and is not attributed to individual requests.
    let svc_start = Instant::now();
    shared.metrics.requests.inc();
    // The client's request id (0 = unset) is echoed on the response and
    // stamped into server spans, so merged client+server traces correlate
    // request-for-request.
    match Request::decode_with_id(payload) {
        Err(e) => {
            queue.push_back(Slot::Ready(Response::Error(e.to_string()).encode_with_id(0)));
            record_request(shared, svc_start);
        }
        Ok((id, Request::Info { model })) => {
            let resp = match shared.models.resolve(&model) {
                Ok(entry) => Response::Info(entry.info.clone()),
                Err(msg) => Response::Error(msg),
            };
            queue.push_back(Slot::Ready(resp.encode_with_id(id)));
            record_request(shared, svc_start);
        }
        Ok((id, Request::Stats)) => {
            // A STATS request records its own metrics *before* the
            // exposition renders, so the reply carries exactly the registry
            // state a quiesced follow-up `/metrics` scrape sees — the
            // byte-identity contract.
            record_request(shared, svc_start);
            let reply = Response::Stats(shared.stats_snapshot());
            queue.push_back(Slot::Ready(reply.encode_with_id(id)));
        }
        Ok((id, Request::Shutdown)) => {
            shared.stop.store(true, Ordering::SeqCst);
            queue.push_back(Slot::Ready(Response::ShuttingDown.encode_with_id(id)));
            record_request(shared, svc_start);
        }
        Ok((id, Request::Profile(records))) => {
            let resp = handle_profile(shared, records, id);
            queue.push_back(Slot::Ready(resp.encode_with_id(id)));
            record_request(shared, svc_start);
        }
        Ok((id, Request::Predict { model, rows })) => {
            let entry = match shared.models.resolve(&model) {
                Ok(e) => e,
                Err(msg) => {
                    queue.push_back(Slot::Ready(Response::Error(msg).encode_with_id(id)));
                    record_request(shared, svc_start);
                    return;
                }
            };
            let dim = entry.info.dim as usize;
            for (i, r) in rows.iter().enumerate() {
                if r.row.len() != dim || r.mask.len() != dim {
                    let msg = format!(
                        "row {i}: got {} values / {} mask bits, model expects {dim}",
                        r.row.len(),
                        r.mask.len()
                    );
                    queue.push_back(Slot::Ready(Response::Error(msg).encode_with_id(id)));
                    record_request(shared, svc_start);
                    return;
                }
            }
            let m = &shared.metrics;
            m.predict_requests.inc();
            m.predictions.add(rows.len() as u64);
            m.record_batch_size(rows.len() as u64);
            let join = pool.dispatch(shared, &entry, rows);
            queue.push_back(Slot::Pending {
                req_id: id,
                join,
                svc_start,
            });
        }
    }
}

/// Record one request's end-to-end service time into both the cumulative
/// histogram and the last-minute sliding window.
fn record_request(shared: &Shared, svc_start: Instant) {
    let us = svc_start.elapsed().as_micros() as u64;
    shared.metrics.record_request_us(us);
    shared.req_window.record(shared.clock.now_us(), us);
}

/// Apply a PROFILE batch to the accuracy ledger and the last-minute
/// observed/mispredict windows.
fn handle_profile(shared: &Shared, records: Vec<ProfileRecord>, req_id: u64) -> Response {
    let mut sp = esp_obs::span!("serve", "profile_batch", records = records.len());
    let mut ack = ProfileAck::default();
    let now_us = shared.clock.now_us();
    for rec in &records {
        match shared.ledger.record_outcome(&rec.site_key, rec.taken, rec.weight) {
            OutcomeRecord::Applied { mispredicted } => {
                ack.applied += 1;
                let micro = (rec.weight * WEIGHT_SCALE) as u64;
                shared.observed_window.record(now_us, micro);
                if mispredicted {
                    shared.mispredict_window.record(now_us, micro);
                }
            }
            OutcomeRecord::Unmatched => ack.unmatched += 1,
            OutcomeRecord::Disabled => {}
        }
    }
    if sp.is_enabled() {
        sp.arg("req", req_id);
        sp.arg("applied", ack.applied);
        sp.arg("unmatched", ack.unmatched);
    }
    Response::Profiled(ack)
}

/// The hot-reload watcher: poll the registry for newer versions of each
/// unpinned name and atomically swap fresh entries into the table. A
/// version that fails to load or decode is skipped (the old model keeps
/// serving); success bumps `esp_serve_reloads_total` and, for the default
/// model, the `esp_serve_model_version` gauge.
fn watch_loop(shared: Arc<Shared>, w: WatchCfg) {
    // Nap in short slices so shutdown is prompt even with long intervals.
    let nap = w.interval.min(Duration::from_millis(25));
    let mut since_poll = Duration::ZERO;
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(nap);
        since_poll += nap;
        if since_poll < w.interval {
            continue;
        }
        since_poll = Duration::ZERO;
        for name in &w.names {
            let current = match shared.models.resolve(name) {
                Ok(entry) => entry.info.model_version,
                Err(_) => 0,
            };
            let Ok(versions) = w.registry.versions(name) else {
                continue;
            };
            let Some(&newest) = versions.last() else {
                continue;
            };
            if newest <= current {
                continue;
            }
            let Ok((version, artifact)) = w.registry.load_any(name, Some(newest)) else {
                continue;
            };
            let Ok(entry) = entry_from_any(&shared.models, &artifact, name, version, w.precision)
            else {
                continue;
            };
            let is_default = shared.models.default_name() == name;
            shared.models.install(name, Arc::new(entry));
            shared.metrics.reloads.inc();
            if is_default {
                shared.metrics.set_model_version(version);
            }
        }
    }
}
