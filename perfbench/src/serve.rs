//! The `serve-hot` and `serve-feedback` workloads: an open loop against an
//! `esp-serve` child process serving a model of the paper's shape.
//!
//! Phases run back to back on one server: `light` (about a quarter of the
//! rate the seed sustains), `busy` (about three quarters), then a ladder of
//! higher fixed rates, 10% apart, that climbs until a rung misses the
//! workload's latency limit, falls behind or fails. `slo_rps` is the highest
//! rate at which every rung up to it passed. The end-to-end metrics come
//! from `light` (CPU per request) and from `light` and `busy` (resident
//! set); latency and the ladder are printed in the table. Replies are
//! drained between phases, and STATS is read only there (it renders the
//! whole ledger on the reactor thread). `GET /metrics` is scraped at a
//! fixed interval throughout each phase, as a Prometheus server would, and
//! the server's resident set and CPU time are sampled from `/proc` beside
//! it.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

use esp_artifact::ModelArtifact;
use esp_core::EspModel;
use esp_serve::protocol::{write_frame, FrameReader};
use esp_serve::{PredictRow, Prediction, Request, Response, StatsSnapshot};

use crate::openloop::{self, Content, Pool, Report, Schedule, Verdict};
use crate::report::{Outcome, Run};
use crate::{procfs, stats};

/// Inputs per row and hidden units of the served model (the paper's shape).
const DIM: usize = 158;
const HIDDEN: usize = 10;
/// Rows per PREDICT.
const ROWS: usize = 32;
/// Total server cache entries, split across the shards.
const CACHE: usize = 4096;
/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Keep every 64th request's probabilities for the bitwise check.
const SAMPLE_EVERY: usize = 64;
/// Ladder rungs above `busy`, each 10% above the last.
const RUNGS: usize = 16;
const RUNG_STEP: f64 = 1.1;
/// Shares of `--seconds` for the light and busy phases and each rung.
const LIGHT_SHARE: f64 = 0.45;
const BUSY_SHARE: f64 = 0.25;
const RUNG_SHARE: f64 = 0.05;
/// Least requests in any phase: p99 needs ten samples beyond it.
const MIN_REQUESTS: usize = 1000;
/// How long a phase waits for missing replies after its last due send.
const DRAIN: Duration = Duration::from_secs(10);
/// Interval between `GET /metrics` scrapes.
const SCRAPE_EVERY: Duration = Duration::from_millis(2500);
/// Interval between samples of the server's resident set and CPU time.
const PROC_EVERY: Duration = Duration::from_millis(100);
/// Window over which `cpu_ms_per_req` divides CPU time by replies.
const CPU_WINDOW: Duration = Duration::from_secs(1);
/// Rows replayed in-process through the cache, kernel and ledger.
const REPLAY_ROWS: usize = 8192;
/// Frames timed through the protocol codec.
const CODEC_FRAMES: usize = 200;

/// What distinguishes the two serve workloads.
struct Workload {
    /// Distinct rows requests draw from.
    pool_rows: usize,
    /// Send every predicted row back as a PROFILE outcome.
    feedback: bool,
    /// The `light` rate, requests per second; `busy` is three times it.
    light_rps: f64,
    /// p99 latency limit of every phase, milliseconds.
    limit_ms: f64,
}

/// The workload's constants. The seed sustained 2,300-3,900 req/s of hot
/// traffic and 500-880 of feedback traffic on a two-core host whose CPU
/// steal came and went, so `light` and `busy` sit near a quarter and three
/// quarters of the lower figures, and the limits sit above the seed's busy
/// p99 so the ladder, not the first rung, finds where it falls behind.
fn workload(name: &str) -> Workload {
    match name {
        // 256 distinct rows against a 4096-entry cache: after warm-up every
        // row hits, and the kernel computes almost nothing.
        "serve-hot" => Workload {
            pool_rows: 256,
            feedback: false,
            light_rps: 500.0,
            limit_ms: 50.0,
        },
        // 65,536 distinct rows, 16x the cache: most rows miss and evict,
        // every row becomes a ledger site, and PROFILE writes run beside.
        _ => Workload {
            pool_rows: 65_536,
            feedback: true,
            light_rps: 150.0,
            limit_ms: 500.0,
        },
    }
}

/// Shard workers: one. With one per core on a two-core host, the reactor
/// (which spins while connections are open), two shards and the
/// generator's two threads contend for the cores, and in side-by-side runs
/// the seed's p99 at a fixed rate spread further than with one shard.
pub fn shards(run: &Run) -> usize {
    run.nproc.min(1)
}

/// Generator connections (and threads): at most two, at most one per core.
pub fn connections(run: &Run) -> usize {
    run.nproc.min(2)
}

/// The server's command line.
pub fn server_flags(run: &Run) -> Vec<String> {
    [
        "--synthetic",
        &format!("{DIM},{HIDDEN},{}", run.seed),
        "--addr",
        "127.0.0.1:0",
        "--shards",
        &shards(run).to_string(),
        "--cache",
        &CACHE.to_string(),
        "--http-addr",
        "127.0.0.1:0",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// A running `esp-serve` child; killed and reaped on drop if still alive.
struct Server {
    child: Child,
    addr: SocketAddr,
    http: SocketAddr,
    stderr: BufReader<ChildStderr>,
}

impl Server {
    fn spawn(run: &Run) -> Result<Server, String> {
        let mut child = Command::new(&run.serve_bin)
            .args(server_flags(run))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {:?}: {e}", run.serve_bin))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let (mut addr, mut http) = (None, None);
        let mut line = String::new();
        while addr.is_none() || http.is_none() {
            line.clear();
            if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("esp-serve exited before announcing its addresses".into());
            }
            let word = |after: &str| {
                line.split(after)
                    .nth(1)
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|a| a.parse::<SocketAddr>().ok())
            };
            addr = addr.or_else(|| word("esp-serve listening on "));
            http = http.or_else(|| word("esp-serve telemetry on http://"));
        }
        Ok(Server {
            child,
            addr: addr.expect("parsed"),
            http: http.expect("parsed"),
            stderr,
        })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask the server to stop, and wait for it (killing it after a grace
    /// period). Returns whether it exited cleanly.
    fn shut_down(mut self, control: &mut Control) -> bool {
        let acked = matches!(control.call(&Request::Shutdown), Ok(Response::ShuttingDown));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stderr.read_to_string(&mut rest);
                    return acked && status.success();
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A closed-loop control connection for INFO, warm-up, STATS and SHUTDOWN.
struct Control {
    stream: TcpStream,
    reader: FrameReader,
    next_id: u64,
}

impl Control {
    fn connect(addr: SocketAddr) -> Result<Control, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        Ok(Control {
            stream,
            reader: FrameReader::new(),
            next_id: 1 << 48,
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.next_id += 1;
        let id = self.next_id;
        let frame = req.encode_with_id(id).map_err(|e| e.to_string())?;
        write_frame(&mut &self.stream, &frame).map_err(|e| e.to_string())?;
        let reply = self
            .reader
            .read(&mut &self.stream)
            .map_err(|e| e.to_string())?
            .ok_or("server closed the control connection")?;
        match Response::decode_with_id(&reply).map_err(|e| e.to_string())? {
            (got, _) if got != id => Err(format!("reply id {got}, expected {id}")),
            (_, Response::Error(m)) => Err(format!("error reply: {m}")),
            (_, r) => Ok(r),
        }
    }

    fn stats(&mut self) -> Result<StatsSnapshot, String> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err("STATS answered with another reply kind".into()),
        }
    }
}

/// The warm-up PREDICTs, encoded: every pool row once for the hot pool;
/// enough seeded rows to fill the cache for the feedback pool.
fn warmup_frames(w: &Workload, pool: Pool) -> Result<Vec<Vec<u8>>, String> {
    let picks: Vec<u32> = if w.feedback {
        pool.picks(1, CACHE / ROWS, ROWS)
    } else {
        (0..w.pool_rows as u32).collect()
    };
    picks
        .chunks(ROWS)
        .enumerate()
        .map(|(i, chunk)| {
            let rows = chunk.iter().map(|&k| pool.row(k)).collect();
            Request::Predict {
                model: String::new(),
                rows,
            }
            .encode_with_id(i as u64 + 1)
            .map_err(|e| e.to_string())
        })
        .collect()
}

/// Spawn a server, check it serves the expected model, and warm its cache
/// with `warmup` pipelined on the control connection.
fn set_up(run: &Run, warmup: &[Vec<u8>]) -> Result<(Server, Control), String> {
    let server = Server::spawn(run)?;
    let mut control = Control::connect(server.addr)?;
    match control.call(&Request::Info {
        model: String::new(),
    })? {
        Response::Info(i) if i.dim as usize == DIM && i.hidden as usize == HIDDEN => {}
        other => return Err(format!("unexpected INFO reply {other:?}")),
    }
    let mut writer = std::io::BufWriter::with_capacity(64 << 10, &control.stream);
    for frame in warmup {
        write_frame(&mut writer, frame).map_err(|e| format!("warm-up: {e}"))?;
    }
    drop(writer);
    for i in 0..warmup.len() {
        let reply = control
            .reader
            .read(&mut &control.stream)
            .map_err(|e| format!("warm-up: {e}"))?
            .ok_or("server closed the connection during warm-up")?;
        match Response::decode_with_id(&reply) {
            Ok((id, Response::Predictions(p))) if id == i as u64 + 1 && !p.is_empty() => {}
            _ => return Err("warm-up PREDICT answered wrongly".into()),
        }
    }
    Ok((server, control))
}

/// One phase's plan and what it observed.
struct Phase {
    name: String,
    schedule: Schedule,
    report: Report,
    verdict: Verdict,
    picks: Vec<u32>,
    cpu_before: Vec<procfs::ThreadCpu>,
    cpu_after: Vec<procfs::ThreadCpu>,
    stats_after: Option<StatsSnapshot>,
    /// The server's `/proc` samples through the phase.
    proc: Vec<ProcSample>,
}

/// One sample of the server's `/proc` figures.
struct ProcSample {
    at: Instant,
    /// Resident set (`VmRSS`), bytes.
    rss: u64,
    /// CPU time of every live thread, nanoseconds.
    cpu_ns: u64,
}

/// The phase plan: light, busy, then the ladder.
fn plan(run: &Run, w: &Workload) -> Vec<(String, Schedule)> {
    let n = |rate: f64, share: f64| MIN_REQUESTS.max((rate * share * run.seconds).round() as usize);
    let busy = 3.0 * w.light_rps;
    let mut out = vec![
        (
            "light".to_string(),
            Schedule {
                rate: w.light_rps,
                n: n(w.light_rps, LIGHT_SHARE),
                seed: run.seed,
            },
        ),
        (
            "busy".to_string(),
            Schedule {
                rate: busy,
                n: n(busy, BUSY_SHARE),
                seed: run.seed,
            },
        ),
    ];
    for k in 1..=RUNGS {
        let rate = busy * RUNG_STEP.powi(k as i32);
        out.push((
            format!("rung{k}"),
            Schedule {
                rate,
                n: n(rate, RUNG_SHARE),
                seed: run.seed,
            },
        ));
    }
    out
}

/// Samples of the `/metrics` scrapes taken during the timed phases.
#[derive(Default)]
struct Scrapes {
    ms: Vec<f64>,
    failed: u64,
    queue_depth_max: f64,
}

fn scrape(http: SocketAddr) -> Result<(f64, String), String> {
    let t = Instant::now();
    let mut s = TcpStream::connect(http).map_err(|e| e.to_string())?;
    let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut body = String::new();
    s.read_to_string(&mut body).map_err(|e| e.to_string())?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if !body.starts_with("HTTP/1.1 200") {
        return Err(format!("scrape answered {:?}", body.lines().next()));
    }
    Ok((ms, body))
}

/// Watch one phase as a monitoring agent would: scrape every
/// [`SCRAPE_EVERY`] and sample the server's `/proc` figures every
/// [`PROC_EVERY`], at the same offsets from the phase start in every run
/// (half an interval, then whole intervals), so each phase meets the same
/// scrapes and samples. Returns the samples.
fn watch_phase(
    http: SocketAddr,
    pid: u32,
    start: Instant,
    span: Duration,
    out: &mut Scrapes,
) -> Vec<ProcSample> {
    let mut samples = Vec::new();
    let (mut scrape_at, mut proc_at) = (start + SCRAPE_EVERY / 2, start + PROC_EVERY / 2);
    loop {
        let at = scrape_at.min(proc_at);
        if at > start + span {
            return samples;
        }
        std::thread::sleep(at.saturating_duration_since(Instant::now()));
        if proc_at <= scrape_at {
            proc_at += PROC_EVERY;
            if let Some(rss) = procfs::rss_bytes(pid) {
                let cpu_ns = procfs::cpu_ns(&procfs::threads(pid), "");
                samples.push(ProcSample {
                    at: Instant::now(),
                    rss,
                    cpu_ns,
                });
            }
            continue;
        }
        scrape_at += SCRAPE_EVERY;
        match scrape(http) {
            Ok((ms, body)) => {
                out.ms.push(ms);
                let depth = body
                    .lines()
                    .filter(|l| l.starts_with("esp_serve_shard_") && l.contains("_queue_depth "))
                    .filter_map(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
                    .fold(0.0, f64::max);
                out.queue_depth_max = out.queue_depth_max.max(depth);
            }
            Err(e) => {
                eprintln!("scrape failed: {e}");
                out.failed += 1;
            }
        }
    }
}

/// Run the timed phases, stopping the ladder at its first failing rung.
fn run_phases(
    run: &Run,
    w: &Workload,
    pool: Pool,
    server: &Server,
    control: &mut Control,
    trace: bool,
) -> Result<(Vec<Phase>, Scrapes, u64), String> {
    let conns = connections(run);
    let mut phases: Vec<Phase> = Vec::new();
    let mut peak_rss = 0;
    let mut scrapes = Scrapes::default();
    let mut id_base = 0u64;
    for (k, (name, schedule)) in plan(run, w).into_iter().enumerate() {
        // Request content comes from the seed, before the phase clock.
        let picks = pool.picks(100 + k as u64, schedule.n, ROWS);
        let content = Content {
            pool,
            picks: &picks,
            rows_per_request: ROWS,
            feedback: w.feedback,
            sample_every: SAMPLE_EVERY,
            sample_phase: (run.seed % SAMPLE_EVERY as u64) as usize,
        };
        let cpu_before = procfs::threads(server.pid());
        let start = Instant::now() + Duration::from_millis(20);
        let (http, pid, span) = (server.http, server.pid(), schedule.span());
        let (report, proc) = std::thread::scope(|s| {
            let watch = s.spawn(|| watch_phase(http, pid, start, span, &mut scrapes));
            let report = openloop::run_phase(
                server.addr,
                conns,
                &schedule,
                &content,
                id_base,
                start,
                DRAIN,
            );
            (report, watch.join().expect("the watcher does not panic"))
        });
        let cpu_after = procfs::threads(server.pid());
        id_base += 2 * schedule.n as u64;
        let stats_after = if trace {
            Some(
                control
                    .stats()
                    .map_err(|e| format!("STATS between phases: {e}"))?,
            )
        } else {
            None
        };
        let verdict = openloop::judge(&report, &schedule, w.limit_ms);
        let n = report.replies.len() + report.failed_requests.len();
        eprintln!(
            "{name:>6}: {:>7.0} rps offered, {:>8.1} achieved, p50 {:.3} ms, p99 {:.3} ms \
                 (median of windows {:.1?}; {n} samples support p{}), {} failed of {}{}",
            schedule.rate,
            verdict.achieved_rps,
            verdict.p50_ms,
            verdict.p99_ms,
            verdict.window_p99_ms,
            stats::highest_supported(n).unwrap_or(0.0),
            report.failed,
            report.attempted,
            report
                .first_error
                .as_deref()
                .map(|e| format!(" ({e})"))
                .unwrap_or_default()
        );
        let passed = verdict.passes;
        phases.push(Phase {
            name,
            schedule,
            report,
            verdict,
            picks,
            cpu_before,
            cpu_after,
            stats_after,
            proc,
        });
        if k == 1 {
            peak_rss = procfs::peak_rss_bytes(server.pid()).unwrap_or(0);
        }
        if k >= 1 && !passed {
            break;
        }
    }
    Ok((phases, scrapes, peak_rss))
}

/// The served probabilities of the sampled requests must equal, bit for
/// bit, the in-process prediction of the same artifact.
fn check_sample(model: &EspModel, pool: Pool, phases: &[Phase]) -> Result<usize, String> {
    let mut checked = 0;
    for p in phases {
        for (i, served) in &p.report.sampled {
            let rows: Vec<PredictRow> = p.picks[i * ROWS..(i + 1) * ROWS]
                .iter()
                .map(|&k| pool.row(k))
                .collect();
            let local =
                model.predict_prob_encoded_batch(rows.iter().map(|r| (&r.row[..], &r.mask[..])));
            if local
                .iter()
                .zip(served)
                .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!(
                    "{} request {i}: served probabilities differ from in-process",
                    p.name
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Run a serve workload end to end, or per layer with `--trace 1`.
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::new(run);
    match serve(run, &mut out) {
        Ok(()) => {}
        Err(e) => out.check_failed(e),
    }
    out
}

fn serve(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let trace = run.trace;
    let w = workload(&run.workload);
    let pool = Pool {
        seed: run.seed,
        size: w.pool_rows,
        dim: DIM,
    };
    let warmup = warmup_frames(&w, pool)?;
    let mut setup = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let (server, mut control) = set_up(run, &warmup)?;
        setup.push(t.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            if !server.shut_down(&mut control) {
                return Err("esp-serve did not shut down cleanly after set-up".into());
            }
        } else {
            live = Some((server, control));
        }
    }
    let (server, mut control) = live.expect("set up at least once");
    let stats_before = if trace { Some(control.stats()?) } else { None };
    let (phases, scrapes, peak_rss) = run_phases(run, &w, pool, &server, &mut control, trace)?;

    // Output checks: sampled probabilities, PROFILE acks, clean shutdown.
    let model = ModelArtifact::synthetic(DIM, HIDDEN, run.seed).to_model();
    let checked = check_sample(&model, pool, &phases)?;
    let mut total = Report::default();
    for p in &phases {
        total.attempted += p.report.attempted;
        total.failed += p.report.failed;
        total.records_sent += p.report.records_sent;
        total.records_applied += p.report.records_applied;
        total.records_unmatched += p.report.records_unmatched;
        total.late_ms.extend_from_slice(&p.report.late_ms);
    }
    eprintln!("checked {checked} sampled requests bit for bit");
    if checked == 0 {
        out.check_failed("no request was sampled for the bitwise check".into());
    }
    if w.feedback
        && (total.records_unmatched != 0
            || (total.failed == 0 && total.records_applied != total.records_sent))
    {
        out.check_failed(format!(
            "PROFILE acks: {} applied and {} unmatched of {} records sent",
            total.records_applied, total.records_unmatched, total.records_sent
        ));
    }
    out.attempted = total.attempted + scrapes.ms.len() as u64 + scrapes.failed;
    out.failed = total.failed + scrapes.failed;

    if trace {
        layers(
            run,
            &w,
            pool,
            &model,
            &phases,
            &scrapes,
            &total,
            stats_before,
            out,
        )?;
    } else {
        let light = &phases[0];
        let busy = phases.get(1).ok_or("the busy phase did not run")?;
        const MIB: f64 = (1 << 20) as f64;
        out.metric("setup_s", stats::median(&setup).expect("set up"), "s");
        let cpu = cpu_ms_per_req(light).ok_or("no CPU window in the light phase")?;
        out.metric("cpu_ms_per_req", cpu, "ms");
        let rss: Vec<f64> = [light, busy]
            .iter()
            .flat_map(|p| &p.proc)
            .map(|s| s.rss as f64 / MIB)
            .collect();
        let rss = stats::median(&rss).ok_or("no RSS sample of the server")?;
        out.metric("rss_mb", rss, "MiB");
        out.metric("peak_rss_mb", peak_rss as f64 / MIB, "MiB");
        out.metric("p50_ms.light", light.verdict.p50_ms, "ms");
        out.metric("p99_ms.light", light.verdict.p99_ms, "ms");
        out.metric("p50_ms.busy", busy.verdict.p50_ms, "ms");
        out.metric("p99_ms.busy", busy.verdict.p99_ms, "ms");
        let slo = phases
            .iter()
            .take_while(|p| p.verdict.passes)
            .last()
            .map_or(0.0, |p| p.schedule.rate);
        out.metric("slo_rps", slo, "req/s");
    }
    if !server.shut_down(&mut control) {
        out.check_failed("esp-serve did not shut down cleanly".into());
    }
    Ok(())
}

/// Server CPU per completed request over a phase, ms: the median over
/// [`CPU_WINDOW`] windows of the CPU the server used in the window divided
/// by the replies that arrived in it, so a stall of the host decides one
/// window, not the figure.
fn cpu_ms_per_req(p: &Phase) -> Option<f64> {
    let step = (CPU_WINDOW.as_nanos() / PROC_EVERY.as_nanos()) as usize;
    let edges: Vec<&ProcSample> = p.proc.iter().step_by(step).collect();
    let per_req: Vec<f64> = edges
        .windows(2)
        .filter_map(|w| {
            let (a, b) = (w[0], w[1]);
            let n = p
                .report
                .replies
                .iter()
                .filter(|r| a.at <= r.at && r.at < b.at)
                .count();
            (n > 0).then(|| b.cpu_ns.saturating_sub(a.cpu_ns) as f64 / 1e6 / n as f64)
        })
        .collect();
    stats::median(&per_req)
}

/// Cumulative `_bucket` counts of histogram `name` in an exposition, by
/// upper bound (`+Inf` as `u64::MAX`).
pub fn buckets(expo: &str, name: &str) -> BTreeMap<u64, u64> {
    let prefix = format!("{name}_bucket{{le=\"");
    expo.lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(&prefix)?;
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                u64::MAX
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect()
}

/// Quantile (upper bucket bound) of the observations a histogram gained
/// between two expositions. The exposition stops at the last non-empty
/// bucket, so a bound missing from one side holds its `+Inf` count.
pub fn delta_quantile(before: &str, after: &str, name: &str, q: f64) -> Option<f64> {
    let (b, a) = (buckets(before, name), buckets(after, name));
    let cum = |m: &BTreeMap<u64, u64>, le: u64| {
        m.range(le..)
            .next()
            .map(|(_, c)| *c)
            .or_else(|| m.values().last().copied())
            .unwrap_or(0)
    };
    let total = cum(&a, u64::MAX) - cum(&b, u64::MAX);
    if total == 0 {
        return None;
    }
    let target = (q * total as f64).ceil().max(1.0) as u64;
    a.keys()
        .find(|&&le| cum(&a, le) - cum(&b, le) >= target)
        .map(|&le| le as f64)
}

/// The value of an unlabelled sample `name` in an exposition.
pub fn sample(expo: &str, name: &str) -> Option<f64> {
    expo.lines().find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok())?
    })
}

/// Mean nanoseconds per call of `f` over `items`, each call timed alone.
fn per_call_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut total = Duration::ZERO;
    for it in items {
        let t = Instant::now();
        f(it);
        total += t.elapsed();
    }
    total.as_nanos() as f64 / items.len().max(1) as f64
}

/// Per-layer figures of a traced run.
#[allow(clippy::too_many_arguments)]
fn layers(
    run: &Run,
    w: &Workload,
    pool: Pool,
    model: &EspModel,
    phases: &[Phase],
    scrapes: &Scrapes,
    total: &Report,
    stats_before: Option<StatsSnapshot>,
    out: &mut Outcome,
) -> Result<(), String> {
    let light = &phases[0];
    let busy = phases.get(1).ok_or("the busy phase did not run")?;
    let first = stats_before.ok_or("no STATS before the phases")?;
    fn expo(p: &Phase) -> &str {
        p.stats_after.as_ref().map_or("", |s| s.exposition.as_str())
    }
    let last = phases
        .last()
        .and_then(|p| p.stats_after.as_ref())
        .ok_or("no STATS after the phases")?;

    // Protocol: decode the workload's own request frames, encode replies.
    let content = Content {
        pool,
        picks: &light.picks,
        rows_per_request: ROWS,
        feedback: false,
        sample_every: usize::MAX,
        sample_phase: 0,
    };
    let frames: Vec<Vec<u8>> = (0..CODEC_FRAMES.min(light.schedule.n))
        .map(|i| {
            content
                .predict(i)
                .encode_with_id(i as u64 + 1)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let decode: Vec<f64> = frames
        .iter()
        .map(|f| {
            let t = Instant::now();
            std::hint::black_box(Request::decode_with_id(std::hint::black_box(f)).is_ok());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let reply = Response::Predictions(
        (0..ROWS)
            .map(|i| Prediction {
                prob: i as f64 / ROWS as f64,
                taken: i * 2 > ROWS,
            })
            .collect(),
    );
    let encode: Vec<f64> = (0..CODEC_FRAMES as u64)
        .map(|id| {
            let t = Instant::now();
            std::hint::black_box(std::hint::black_box(&reply).encode_with_id(id).len());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    out.metric(
        "protocol.decode_us",
        stats::median(&decode).expect("frames"),
        "us",
    );
    out.metric(
        "protocol.encode_us",
        stats::median(&encode).expect("frames"),
        "us",
    );

    // Reactor: CPU of its thread and service time over the light phase.
    let cpu = |p: &Phase, prefix: &str| {
        (procfs::cpu_ns(&p.cpu_after, prefix) - procfs::cpu_ns(&p.cpu_before, prefix)) as f64 / 1e9
    };
    out.metric("reactor.cpu_s", cpu(light, "esp-serve-react"), "s");
    let request_us = |q| delta_quantile(&first.exposition, expo(light), "esp_serve_request_us", q);
    let served_p50 = request_us(0.5).ok_or("no request_us samples in the light phase")?;
    out.metric("serve.request_us.p50", served_p50, "us");
    out.metric(
        "serve.request_us.p99",
        request_us(0.99).unwrap_or(f64::NAN),
        "us",
    );
    out.metric(
        "reactor.wait_ms.p50",
        light.verdict.p50_ms - served_p50 / 1e3,
        "ms",
    );

    // Shards: CPU and compute time over the busy phase; queue depth seen by
    // the scrapes.
    out.metric("shard.cpu_s", cpu(busy, "esp-serve-shard"), "s");
    out.metric("shard.queue_depth.max", scrapes.queue_depth_max, "count");
    let compute = delta_quantile(
        expo(light),
        expo(busy),
        "esp_serve_predict_compute_us",
        0.99,
    );
    out.metric("shard.compute_us.p99", compute.unwrap_or(f64::NAN), "us");

    // Cache: the server's hit ratio; the key stream replayed through one
    // shard-sized LruCache.
    let hits = last.cache_hits - first.cache_hits;
    let misses = last.cache_misses - first.cache_misses;
    out.metric(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let stream: Vec<u32> = light.picks.iter().copied().take(REPLAY_ROWS).collect();
    let keys: Vec<Vec<u8>> = stream
        .iter()
        .map(|&k| {
            let r = pool.row(k);
            esp_serve::site_key(&r.row, &r.mask)
        })
        .collect();
    // As a shard does: look up, and insert on a miss.
    let mut cache = esp_serve::cache::LruCache::new(CACHE / shards(run));
    let (mut get, mut insert, mut inserts) = (Duration::ZERO, Duration::ZERO, 0u32);
    for k in &keys {
        let t = Instant::now();
        let hit = cache.get(k).is_some();
        get += t.elapsed();
        if !hit {
            let t = Instant::now();
            cache.insert(k, 0.5);
            insert += t.elapsed();
            inserts += 1;
        }
    }
    let get_ns = get.as_nanos() as f64 / keys.len().max(1) as f64;
    let insert_ns = insert.as_nanos() as f64 / f64::from(inserts.max(1));
    out.metric("cache.get_ns", get_ns, "ns");
    out.metric("cache.insert_ns", insert_ns, "ns");

    // Kernel: the server's computed rows, and the batched kernel's rate on
    // the workload's miss rows.
    out.metric("kernel.rows", misses as f64, "count");
    let miss_rows: Vec<PredictRow> = if w.feedback {
        stream.iter().map(|&k| pool.row(k)).collect()
    } else {
        (0..w.pool_rows as u32).map(|k| pool.row(k)).collect()
    };
    let reps = (REPLAY_ROWS / miss_rows.len()).max(1);
    let t = Instant::now();
    for _ in 0..reps {
        for chunk in miss_rows.chunks(ROWS) {
            std::hint::black_box(
                model.predict_prob_encoded_batch(chunk.iter().map(|r| (&r.row[..], &r.mask[..]))),
            );
        }
    }
    out.metric(
        "kernel.rows_per_s",
        (reps * miss_rows.len()) as f64 / t.elapsed().as_secs_f64(),
        "1/s",
    );

    // Ledger: sites the server holds; acks; the keys replayed through a
    // fresh ledger.
    let sites = sample(&last.exposition, "esp_ledger_sites").ok_or("no esp_ledger_sites")?;
    out.metric("ledger.sites", sites, "count");
    let ledger = esp_obs::Ledger::new(true);
    out.metric(
        "ledger.record_served_ns",
        per_call_ns(&keys, |k| ledger.record_served(k, 0.75)),
        "ns",
    );
    // Every record sent must apply; with none sent (serve-hot), all of
    // them did.
    let applied_frac = if total.records_sent == 0 {
        1.0
    } else {
        total.records_applied as f64 / total.records_sent as f64
    };
    out.metric("ledger.applied_frac", applied_frac, "ratio");
    let outcome_ns = per_call_ns(&keys, |k| {
        std::hint::black_box(ledger.record_outcome(k, true, 1.0));
    });
    out.metric("ledger.record_outcome_ns", outcome_ns, "ns");

    out.metric(
        "http.scrape_ms",
        stats::median(&scrapes.ms).ok_or("no scrape succeeded")?,
        "ms",
    );
    let late_p99 = stats::quantile(&total.late_ms, 0.99).unwrap_or(f64::NAN);
    out.metric("gen.late_ms.p99", late_p99, "ms");
    out.metric("gen.sent", total.late_ms.len() as f64, "count");
    out.metric("gen.failed", total.failed as f64, "count");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "esp_serve_request_us_bucket{le=\"0\"} 0\nesp_serve_request_us_bucket{le=\"1\"} 0\nesp_serve_request_us_bucket{le=\"3\"} 2\nesp_serve_request_us_bucket{le=\"+Inf\"} 2\nesp_serve_request_us_sum 5\nesp_ledger_sites 7\n";
    const AFTER: &str = "esp_serve_request_us_bucket{le=\"0\"} 0\nesp_serve_request_us_bucket{le=\"1\"} 0\nesp_serve_request_us_bucket{le=\"3\"} 2\nesp_serve_request_us_bucket{le=\"7\"} 50\nesp_serve_request_us_bucket{le=\"15\"} 101\nesp_serve_request_us_bucket{le=\"+Inf\"} 102\nesp_ledger_sites 9\n";

    #[test]
    fn histogram_deltas_give_bucket_quantiles() {
        assert_eq!(buckets(BEFORE, "esp_serve_request_us").len(), 4);
        // 100 new observations: 48 in (3, 7], 51 in (7, 15], 1 beyond.
        assert_eq!(
            delta_quantile(BEFORE, AFTER, "esp_serve_request_us", 0.4),
            Some(7.0)
        );
        assert_eq!(
            delta_quantile(BEFORE, AFTER, "esp_serve_request_us", 0.5),
            Some(15.0)
        );
        assert_eq!(
            delta_quantile(BEFORE, AFTER, "esp_serve_request_us", 0.999),
            Some(u64::MAX as f64)
        );
        assert_eq!(
            delta_quantile(AFTER, AFTER, "esp_serve_request_us", 0.5),
            None
        );
    }

    #[test]
    fn samples_match_whole_names_only() {
        assert_eq!(sample(AFTER, "esp_ledger_sites"), Some(9.0));
        assert_eq!(sample(AFTER, "esp_ledger"), None);
    }

    #[test]
    fn the_ladder_climbs_past_busy() {
        let run = Run {
            workload: "serve-hot".into(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            nproc: 2,
            threads: 2,
            serve_bin: String::new(),
            rustc: String::new(),
            git_rev: String::new(),
        };
        let w = workload("serve-hot");
        let p = plan(&run, &w);
        assert_eq!(p[0].1.rate * 3.0, p[1].1.rate);
        assert!(p.windows(2).all(|x| x[1].1.rate > x[0].1.rate));
        assert!(p.iter().all(|(_, s)| s.n >= MIN_REQUESTS));
        assert_eq!(p.len(), 2 + RUNGS);
    }
}
