//! The event-loop TCP prediction server.
//!
//! One reactor thread drives a nonblocking listener plus every connection
//! as a resumable state machine (read → decode → dispatch → write, built
//! on the same resumable `FrameReader` the threaded server used). It owns
//! the LRU cache and answers every PREDICT itself: cache hits from the
//! cache, misses through the batched kernel, in the iteration that decoded
//! the request. All of it stays on the `esp-runtime` discipline:
//! deterministic results (the model is immutable; the cache only memoises
//! bit-identical values).
//!
//! Every request is answered in the iteration that decoded it, so each
//! reply is appended to its connection's write buffer in request order: a
//! PROFILE joins every prediction served earlier on its connection, and a
//! STATS counts every PROFILE applied earlier. Pipelined clients read
//! replies in the order they asked. Partial writes park in the buffer and
//! resume when the socket drains.
//!
//! Multiple models are served behind one port (see the `models` module):
//! the v4 PREDICT/INFO selector picks one, and a watcher thread can hot
//! reload new registry versions with an atomic `Arc` swap — in-flight
//! requests finish on the model they resolved; nothing fails or drops.
//!
//! The reactor never spins: every iteration blocks in `poll(2)` on the
//! stop socket, the listener and every connection, then acts only on the
//! descriptors `poll` reported ready.
//!
//! Shutdown is graceful: a `SHUTDOWN` frame (or [`ServerHandle::shutdown`])
//! raises a flag and makes the never-drained stop socket readable, which
//! ends the `poll` of the reactor, the HTTP sidecar and the reload
//! watcher; the reactor stops accepting and reading, flushes every
//! buffered reply, and exits.

use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use esp_artifact::{ModelArtifact, Registry};
use esp_obs::window::SlidingWindow;
use esp_obs::{Ledger, OutcomeRecord};

use crate::metrics::Metrics;
use crate::models::{entry_from_artifact, ModelTable};
use crate::poll::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use crate::predict::Predictor;
use crate::protocol::{
    FrameReader, PredictRows, Prediction, ProfileAck, ProfileRecords, RequestView, Response,
    ServeError, ServerInfo,
};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Capacity in entries of the reactor's LRU cache; `0` disables
    /// caching.
    pub cache_capacity: usize,
    /// Address for the HTTP telemetry sidecar (`GET /metrics`, `/healthz`,
    /// `/sitez`); `None` = no HTTP listener.
    pub http_addr: Option<String>,
    /// Record served predictions and PROFILE outcomes in the per-site
    /// accuracy ledger. Off, the ledger costs one branch per row.
    pub ledger: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity: 4096,
            http_addr: None,
            ledger: true,
        }
    }
}

/// Where a server's models come from.
#[derive(Debug)]
pub enum ModelSource<'a> {
    /// One anonymous model (a bare `.espm` file or a synthetic artifact).
    Artifact(&'a ModelArtifact),
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

/// While `accept` fails with an error other than `WouldBlock` (out of
/// descriptors, say), an accept loop leaves its listener out of the poll
/// set and retries after this long: the listener stays readable, so
/// polling it would spin.
pub(crate) const ACCEPT_RETRY: Duration = Duration::from_millis(10);

pub(crate) struct Shared {
    /// Selector → model routing table (hot reload swaps entries here).
    pub(crate) models: ModelTable,
    pub(crate) metrics: Metrics,
    pub(crate) stop: AtomicBool,
    /// Written by [`Shared::request_stop`] and never drained, so
    /// `stop_rx` stays readable once a stop was requested. The reactor,
    /// the HTTP sidecar and the reload watcher block in `poll` on it.
    /// Both ends live as long as `Shared`, so a late request never writes
    /// to a closed peer.
    stop_tx: UnixStream,
    pub(crate) stop_rx: UnixStream,
    /// Per-site accuracy ledger (PROFILE outcomes joined to served
    /// predictions).
    pub(crate) ledger: Ledger,
    /// Server start: the uptime epoch and the sliding windows' clock.
    epoch: Instant,
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
}

impl Shared {
    /// Stop the server: raise the flag, then make `stop_rx` readable,
    /// which ends every thread's `poll`. Serves [`ServerHandle::shutdown`],
    /// its `Drop`, and the SHUTDOWN opcode. A full socket already holds a
    /// byte, so a failed write loses nothing.
    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = (&self.stop_tx).write(&[1]);
    }

    /// Microseconds since the server started: the timestamp of every
    /// sliding-window record and snapshot, and the uptime.
    pub(crate) fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Model facts of the default model (what `/healthz` reports).
    pub(crate) fn info(&self) -> ServerInfo {
        self.models.default_entry().info.clone()
    }

    pub(crate) fn precision_bits(&self) -> u32 {
        self.models.default_entry().model.precision_bits()
    }

    /// The unified exposition: the metrics registry followed by the
    /// accuracy-ledger families. The STATS opcode, the in-process
    /// [`ServerHandle::metrics_text`], and the HTTP `/metrics` endpoint all
    /// render through here, so the three views are byte-identical on a
    /// quiesced server.
    pub(crate) fn exposition(&self) -> String {
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
}

/// Start serving `models` on `addr` (use port `0` for an ephemeral port;
/// the bound address is available via [`ServerHandle::addr`]). Every model
/// serves at its artifact's precision: f64 weights bitwise identical to
/// training-time prediction, f32 weights as the quantized model predicts.
pub fn serve(
    models: ModelSource<'_>,
    addr: &str,
    cfg: &ServeConfig,
) -> std::io::Result<ServerHandle> {
    let (table, watch) = match models {
        ModelSource::Artifact(artifact) => {
            let table = ModelTable::new("");
            table.install("", Arc::new(entry_from_artifact(&table, artifact, "", 0)));
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
                    .load(name, *pin)
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))?;
                let entry = entry_from_artifact(&table, &artifact, name, version);
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
            });
            (table, watch)
        }
    };

    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let metrics = Metrics::new();
    {
        let default = table.default_entry();
        metrics.set_precision(default.model.precision_bits());
        metrics.set_model_version(default.info.model_version);
    }
    let (stop_tx, stop_rx) = UnixStream::pair()?;
    stop_tx.set_nonblocking(true)?;
    let shared = Arc::new(Shared {
        models: table,
        metrics,
        stop: AtomicBool::new(false),
        stop_tx,
        stop_rx,
        ledger: Ledger::new(cfg.ledger),
        epoch: Instant::now(),
        req_window: SlidingWindow::new(WINDOW_SLOTS, WINDOW_BUCKET_US),
        observed_window: SlidingWindow::new(WINDOW_SLOTS, WINDOW_BUCKET_US),
        mispredict_window: SlidingWindow::new(WINDOW_SLOTS, WINDOW_BUCKET_US),
        http_requests: AtomicU64::new(0),
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

    // The reactor owns the cache: it is the only thread that predicts.
    let predictor = Predictor::new(cfg.cache_capacity);
    let reactor_shared = Arc::clone(&shared);
    let reactor = std::thread::Builder::new()
        .name("esp-serve-reactor".to_string())
        .spawn(move || reactor_loop(reactor_shared, listener, predictor))?;

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

    /// Stop accepting work, flush buffered replies, and wait for every
    /// thread. The request wakes each blocked thread at once, through the
    /// stop socket.
    pub fn shutdown(mut self) {
        self.shared.request_stop();
        self.wait();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.reactor.is_some() || self.http.is_some() || self.watcher.is_some() {
            self.shared.request_stop();
            self.wait();
        }
    }
}

/// Per-connection state machine: resumable frame reads and the buffer of
/// replies not yet written.
struct Conn {
    stream: TcpStream,
    frames: FrameReader,
    /// Framed replies, in request order, not yet written (partial-write
    /// parking).
    out: Vec<u8>,
    out_pos: usize,
    /// Peer closed its write side; we still flush what is buffered.
    read_closed: bool,
    /// I/O or framing error; the connection is dropped without flushing.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            frames: FrameReader::new(),
            out: Vec::new(),
            out_pos: 0,
            read_closed: false,
            dead: false,
        }
    }

    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    /// Read (and dispatch) from this connection? Not while stopping (no
    /// new work), after EOF, or while the peer is not draining its replies
    /// (backpressure).
    fn reading(&self, stopping: bool) -> bool {
        !stopping
            && !self.read_closed
            && !self.dead
            && self.out.len() - self.out_pos < OUT_HIGH_WATER
    }

    /// What the reactor waits for on this connection: `POLLIN` when it
    /// would read, `POLLOUT` while it holds unflushed bytes.
    fn interest(&self, stopping: bool) -> i16 {
        let mut events = 0;
        if self.reading(stopping) {
            events |= POLLIN;
        }
        if !self.flushed() {
            events |= POLLOUT;
        }
        events
    }

    /// Nothing buffered: safe to close or to let shutdown proceed.
    fn drained(&self) -> bool {
        self.dead || self.flushed()
    }

    /// This connection is over and can be dropped.
    fn finished(&self) -> bool {
        self.dead || (self.read_closed && self.flushed())
    }
}

fn reactor_loop(shared: Arc<Shared>, listener: TcpListener, mut predictor: Predictor) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut stopping = false;
    let mut accept_failed = false;
    loop {
        // Block until a stop is requested, the listener or a connection is
        // ready. Once stopping, the stop socket (which stays readable) and
        // the listener leave the set; while accepts fail, the listener
        // stays out and the wait ends after ACCEPT_RETRY instead.
        fds.clear();
        if !stopping {
            fds.push(PollFd::new(&shared.stop_rx, POLLIN));
        }
        let listening = !stopping && !accept_failed;
        if listening {
            fds.push(PollFd::new(&listener, POLLIN));
        }
        let first_conn = fds.len();
        for conn in &conns {
            fds.push(PollFd::new(&conn.stream, conn.interest(stopping)));
        }
        // An error here (ENOMEM, say) reports nothing ready: nothing is
        // read, and the loop waits again.
        let _ = poll::wait(&mut fds, accept_failed.then_some(ACCEPT_RETRY));

        // A stop requested after this load leaves the stop socket
        // readable, which ends the next `poll`.
        stopping = shared.stop.load(Ordering::SeqCst);

        if !stopping && (accept_failed || listening && fds[1].revents() != 0) {
            accept_failed = accept_all(&shared, &listener, &mut conns);
        }

        for (conn, fd) in conns.iter_mut().zip(&fds[first_conn..]) {
            let revents = fd.revents();
            if revents & (POLLIN | POLLHUP | POLLERR) == 0 {
                continue;
            }
            if fd.events() == 0 {
                // Hung up or failed with nothing to read or flush: it
                // would end every `poll` at once. Drop it.
                conn.dead = true;
            } else if conn.reading(stopping) {
                read_frames(&shared, &mut predictor, conn);
            }
        }

        for conn in conns.iter_mut().filter(|c| !c.dead) {
            flush(conn);
        }
        conns.retain(|c| !c.finished());

        if stopping && conns.iter().all(Conn::drained) {
            return;
        }
    }
}

/// Accept every queued connection. Returns true when `accept` failed with
/// an error other than `WouldBlock` (out of descriptors, say).
fn accept_all(shared: &Shared, listener: &TcpListener, conns: &mut Vec<Conn>) -> bool {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                shared.metrics.connections.inc();
                conns.push(Conn::new(stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
            Err(_) => return true,
        }
    }
}

/// Read complete frames until the socket would block, and answer each.
fn read_frames(shared: &Shared, predictor: &mut Predictor, conn: &mut Conn) {
    loop {
        let read = {
            let Conn { frames, stream, .. } = &mut *conn;
            frames.read(&mut &*stream)
        };
        match read {
            Ok(Some(mut payload)) => handle_frame(shared, predictor, &mut conn.out, &mut payload),
            Ok(None) => {
                conn.read_closed = true;
                return;
            }
            Err(ServeError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                return; // mid-frame; the FrameReader resumes next time
            }
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Write the buffered replies as far as the socket allows.
fn flush(conn: &mut Conn) {
    while !conn.flushed() {
        match (&conn.stream).write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
}

/// Append one length-prefixed frame to a connection's write buffer.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Parse one frame in place, answer it, and append the framed reply to
/// `out`.
fn handle_frame(shared: &Shared, predictor: &mut Predictor, out: &mut Vec<u8>, payload: &mut [u8]) {
    // End-to-end service clock: covers the parse, handling (the kernel over
    // any misses included) and response encode; the write happens on the
    // shared reactor and is not attributed to individual requests.
    let svc_start = Instant::now();
    shared.metrics.requests.inc();
    // The client's request id (0 = unset) is echoed on the response and
    // stamped into server spans, so merged client+server traces correlate
    // request-for-request.
    let (id, resp) = match RequestView::parse(payload) {
        Err(e) => (0, Response::Error(e.to_string())),
        Ok((id, RequestView::Info { model })) => match shared.models.resolve(model) {
            Ok(entry) => (id, Response::Info(entry.info.clone())),
            Err(msg) => (id, Response::Error(msg)),
        },
        Ok((id, RequestView::Stats)) => {
            // A STATS request records its own metrics *before* the
            // exposition renders, so the reply carries exactly the
            // registry state a quiesced follow-up `/metrics` scrape sees —
            // the byte-identity contract.
            record_request(shared, svc_start);
            let reply = Response::Stats(shared.stats_snapshot());
            push_frame(out, &reply.encode_with_id(id));
            return;
        }
        Ok((id, RequestView::Shutdown)) => {
            shared.request_stop();
            (id, Response::ShuttingDown)
        }
        Ok((id, RequestView::Profile(records))) => (id, handle_profile(shared, records, id)),
        Ok((id, RequestView::Predict { model, rows })) => {
            (id, handle_predict(shared, predictor, model, rows))
        }
    };
    push_frame(out, &resp.encode_with_id(id));
    record_request(shared, svc_start);
}

/// Answer a PREDICT: resolve its model, check the batch's width, and
/// predict every row — each probability with its `> 0.5` direction.
fn handle_predict(
    shared: &Shared,
    predictor: &mut Predictor,
    model: &str,
    rows: PredictRows<'_>,
) -> Response {
    let entry = match shared.models.resolve(model) {
        Ok(e) => e,
        Err(msg) => return Response::Error(msg),
    };
    let dim = entry.info.dim as usize;
    if !rows.is_empty() && rows.dim() != dim {
        return Response::Error(format!(
            "rows carry {} features, model expects {dim}",
            rows.dim()
        ));
    }
    let m = &shared.metrics;
    m.predict_requests.inc();
    m.predictions.add(rows.len() as u64);
    m.record_batch_size(rows.len() as u64);
    Response::Predictions(
        predictor
            .predict(shared, &entry, rows)
            .into_iter()
            .map(|prob| Prediction {
                prob,
                taken: prob > 0.5,
            })
            .collect(),
    )
}

/// Record one request's end-to-end service time into both the cumulative
/// histogram and the last-minute sliding window.
fn record_request(shared: &Shared, svc_start: Instant) {
    let us = svc_start.elapsed().as_micros() as u64;
    shared.metrics.record_request_us(us);
    shared.req_window.record(shared.now_us(), us);
}

/// Apply a PROFILE batch to the accuracy ledger, and its applied and
/// mispredicted micro-weights, summed, to the last-minute windows.
fn handle_profile(shared: &Shared, records: ProfileRecords<'_>, req_id: u64) -> Response {
    let mut sp = esp_obs::span!("serve", "profile_batch", records = records.len());
    let mut ack = ProfileAck::default();
    let (mut observed, mut mispredicted) = (0u64, 0u64);
    for (key, taken, weight) in records.iter() {
        match shared.ledger.record_outcome(key, taken, weight) {
            OutcomeRecord::Applied { mispredicted: miss } => {
                ack.applied += 1;
                let micro = (weight * WEIGHT_SCALE) as u64;
                observed = observed.saturating_add(micro);
                if miss {
                    mispredicted = mispredicted.saturating_add(micro);
                }
            }
            OutcomeRecord::Unmatched => ack.unmatched += 1,
            OutcomeRecord::Disabled => {}
        }
    }
    // `/healthz` reads both windows only for their sums, which saturate as
    // these do: one record per frame reads as one per applied record did.
    if ack.applied > 0 {
        let now_us = shared.now_us();
        shared.observed_window.record(now_us, observed);
        shared.mispredict_window.record(now_us, mispredicted);
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
    loop {
        // Wait out the interval on the stop socket, so a stop request ends
        // the wait at once.
        let mut stop = [PollFd::new(&shared.stop_rx, POLLIN)];
        let _ = poll::wait(&mut stop, Some(w.interval));
        if stop[0].revents() != 0 {
            return;
        }
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
            let Ok((version, artifact)) = w.registry.load(name, Some(newest)) else {
                continue;
            };
            let entry = entry_from_artifact(&shared.models, &artifact, name, version);
            let is_default = shared.models.default_name() == name;
            shared.models.install(name, Arc::new(entry));
            shared.metrics.reloads.inc();
            if is_default {
                shared.metrics.set_model_version(version);
            }
        }
    }
}
