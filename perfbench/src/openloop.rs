//! The benchmark's open-loop load generator, built on the frame functions
//! of `esp_serve::protocol` alone.
//!
//! Requests are due on a seeded schedule at a fixed mean rate (request `i`
//! at a uniform point of its slot `[i, i + 1) / rate`) and go out when due
//! whether or not earlier replies are back: each connection is one
//! thread that pipelines its stripe of the schedule (`i ≡ c mod conns`) and
//! reads replies while it waits for the next due time. Latency runs from
//! the *due* time, so a stall also delays every request queued behind it,
//! and the generator reports how late each send actually went out.
//!
//! Every error, error reply, refusal, early close or timeout is counted
//! against the attempts and the run goes on; a failed request also counts
//! as missing any latency limit.

use std::collections::VecDeque;
use std::io::{BufWriter, ErrorKind};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use esp_serve::protocol::{write_frame, FrameReader};
use esp_serve::{PredictRow, ProfileRecord, Request, Response, ServeError};

use crate::stats::{self, Rng};

/// An arrival schedule of `n` requests at a fixed mean rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests in the schedule.
    pub n: usize,
    /// Seed of the arrival times within their slots.
    pub seed: u64,
}

impl Schedule {
    /// When request `i` is due, relative to the schedule's start: a seeded
    /// uniform point of its slot `[i, i + 1) / rate`. Arrivals keep their
    /// order and the mean rate, but do not fall into step with a server
    /// that polls or naps on a fixed period, which would make latency hang
    /// on the phase between the two clocks.
    pub fn due(&self, i: usize) -> Duration {
        let u = Rng::new(self.seed, 0x3_0000_0000 + i as u64).unit();
        Duration::from_secs_f64((i as f64 + u) / self.rate)
    }

    /// The requests connection `c` of `conns` sends, in due order.
    pub fn stripe(&self, c: usize, conns: usize) -> impl Iterator<Item = usize> {
        (c..self.n).step_by(conns.max(1))
    }

    /// Time from the first due send to the last.
    pub fn span(&self) -> Duration {
        self.due(self.n.saturating_sub(1))
    }
}

/// How late a send went out after its due time, in milliseconds (never
/// negative: an early wake-up waits for the due time).
pub fn late_ms(due: Instant, sent: Instant) -> f64 {
    sent.saturating_duration_since(due).as_secs_f64() * 1e3
}

/// Completed requests per second over the reply window: `(k − 1)` replies
/// after the first, over the time between the first and the last reply.
/// When every reply takes as long as the first, this equals the offered
/// rate; a backlog that grows during the run stretches the window and pulls
/// it below. `None` with fewer than two replies.
pub fn achieved_rps(completed: usize, first_reply: Instant, last_reply: Instant) -> Option<f64> {
    let window = last_reply
        .saturating_duration_since(first_reply)
        .as_secs_f64();
    (completed >= 2 && window > 0.0).then(|| (completed - 1) as f64 / window)
}

/// A seeded set of distinct rows of width `dim`. Row `k` is a pure function
/// of `(seed, k)`, so rows are made on demand instead of held in memory:
/// values uniform in `[-2, 2)`, about one position in ten masked off.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    /// Workload seed.
    pub seed: u64,
    /// Distinct rows.
    pub size: usize,
    /// Values per row.
    pub dim: usize,
}

impl Pool {
    /// Row `k`.
    pub fn row(&self, k: u32) -> PredictRow {
        let mut rng = Rng::new(self.seed, 0x1_0000_0000 + u64::from(k));
        let row = (0..self.dim).map(|_| rng.unit() * 4.0 - 2.0).collect();
        let mask = (0..self.dim).map(|_| rng.unit() >= 0.1).collect();
        PredictRow { row, mask }
    }

    /// The observed direction PROFILE reports for row `k`.
    pub fn taken(&self, k: u32) -> bool {
        Rng::new(self.seed, 0x2_0000_0000 + u64::from(k)).next_u64() & 1 == 1
    }

    /// `n` requests of `rows` seeded picks each, request-major.
    pub fn picks(&self, stream: u64, n: usize, rows: usize) -> Vec<u32> {
        let mut rng = Rng::new(self.seed, stream);
        (0..n * rows).map(|_| rng.below(self.size) as u32).collect()
    }
}

/// The request content of one phase: which pool rows each request carries,
/// generated from the workload seed before the phase starts.
pub struct Content<'a> {
    /// Distinct rows requests draw from.
    pub pool: Pool,
    /// `rows_per_request` pool indices per request, request-major.
    pub picks: &'a [u32],
    /// Rows per PREDICT.
    pub rows_per_request: usize,
    /// With feedback, every predicted row goes back as a PROFILE outcome.
    pub feedback: bool,
    /// Keep the served probabilities of every request `i` with
    /// `i % sample_every == sample_phase`, for the bitwise check.
    pub sample_every: usize,
    /// See `sample_every`.
    pub sample_phase: usize,
}

impl Content<'_> {
    /// The pool indices request `i` carries.
    pub fn rows_of(&self, i: usize) -> &[u32] {
        &self.picks[i * self.rows_per_request..(i + 1) * self.rows_per_request]
    }

    /// Request `i` as a PREDICT of the default model.
    pub fn predict(&self, i: usize) -> Request {
        Request::Predict {
            model: String::new(),
            rows: self.rows_of(i).iter().map(|&k| self.pool.row(k)).collect(),
        }
    }

    fn profile(&self, i: usize) -> Request {
        Request::Profile(
            self.rows_of(i)
                .iter()
                .map(|&k| {
                    let r = self.pool.row(k);
                    ProfileRecord {
                        site_key: esp_serve::site_key(&r.row, &r.mask),
                        taken: self.pool.taken(k),
                        weight: 1.0,
                    }
                })
                .collect(),
        )
    }
}

/// One completed PREDICT.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// Request index in the schedule.
    pub i: usize,
    /// Due-to-reply latency, milliseconds.
    pub latency_ms: f64,
    /// When the reply arrived.
    pub at: Instant,
}

/// What one connection (or, merged, one phase) observed.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted: scheduled PREDICTs plus PROFILE frames sent.
    pub attempted: u64,
    /// Attempts that failed: I/O errors, error replies, malformed or
    /// mismatched replies, early closes and timeouts.
    pub failed: u64,
    /// Schedule indices of the PREDICTs among them.
    pub failed_requests: Vec<usize>,
    /// Every completed PREDICT.
    pub replies: Vec<Reply>,
    /// Send lateness of every PREDICT that went out, milliseconds.
    pub late_ms: Vec<f64>,
    /// PROFILE records sent, and the records the acks reported applied and
    /// unmatched.
    pub records_sent: u64,
    /// See `records_sent`.
    pub records_applied: u64,
    /// See `records_sent`.
    pub records_unmatched: u64,
    /// `(request index, served probabilities)` of the sampled requests.
    pub sampled: Vec<(usize, Vec<f64>)>,
    /// The first failure seen, for the log.
    pub first_error: Option<String>,
}

impl Report {
    /// Count `n` failed attempts, of which `requests` are scheduled PREDICTs.
    fn fail(&mut self, n: u64, requests: &[usize], why: impl FnOnce() -> String) {
        self.failed += n;
        self.failed_requests.extend_from_slice(requests);
        if self.first_error.is_none() {
            self.first_error = Some(why());
        }
    }

    /// Fold another connection's report into this one.
    pub fn merge(&mut self, o: Report) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.failed_requests.extend(o.failed_requests);
        self.replies.extend(o.replies);
        self.late_ms.extend(o.late_ms);
        self.records_sent += o.records_sent;
        self.records_applied += o.records_applied;
        self.records_unmatched += o.records_unmatched;
        self.sampled.extend(o.sampled);
        if self.first_error.is_none() {
            self.first_error = o.first_error;
        }
    }
}

/// Requests per judging window: the fewest that support a p99.
pub const WINDOW: usize = 1000;

/// A phase's figures, judged against a latency limit.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Median due-to-reply latency over the phase, failures counted as
    /// infinite, ms.
    pub p50_ms: f64,
    /// Median over the phase's windows of each window's p99, ms.
    pub p99_ms: f64,
    /// Median over the windows of each window's achieved rate.
    pub achieved_rps: f64,
    /// Failed attempts over attempts.
    pub failed_frac: f64,
    /// Each window's p99, ms, in schedule order.
    pub window_p99_ms: Vec<f64>,
    /// p99 within the limit, achieved ≥ 99% of offered and nothing failed.
    pub passes: bool,
}

/// Judge a phase. Its requests are cut, in schedule order, into windows of
/// [`WINDOW`] (the last absorbs the remainder); each window yields a p99 of
/// its due-to-reply latencies, with failed requests as infinite, and an
/// achieved rate over its own replies. The phase passes when the median
/// window p99 is within `limit_ms`, the median window keeps 99% of the
/// offered rate, and nothing failed. Medians over windows keep one stall
/// of the host from deciding a phase, while a backlog that grows through
/// the phase fails every window.
pub fn judge(report: &Report, schedule: &Schedule, limit_ms: f64) -> Verdict {
    let mut lat = vec![f64::NAN; schedule.n];
    let mut at: Vec<Option<Instant>> = vec![None; schedule.n];
    for r in &report.replies {
        lat[r.i] = r.latency_ms;
        at[r.i] = Some(r.at);
    }
    for &i in &report.failed_requests {
        lat[i] = f64::INFINITY;
    }
    // A request neither answered nor counted failed cannot happen; treat it
    // as failed all the same.
    let lat: Vec<f64> = lat
        .into_iter()
        .map(|x| if x.is_nan() { f64::INFINITY } else { x })
        .collect();
    let windows = (schedule.n / WINDOW).max(1);
    let mut p99s = Vec::with_capacity(windows);
    let mut rates = Vec::with_capacity(windows);
    for w in 0..windows {
        let lo = w * schedule.n / windows;
        let hi = (w + 1) * schedule.n / windows;
        p99s.push(if stats::supports(hi - lo, 99.0) {
            stats::quantile(&lat[lo..hi], 0.99).expect("non-empty window")
        } else {
            f64::NAN
        });
        let mut times: Vec<Instant> = at[lo..hi].iter().flatten().copied().collect();
        times.sort_unstable();
        rates.push(match (times.first(), times.last()) {
            (Some(&a), Some(&b)) => achieved_rps(times.len(), a, b).unwrap_or(0.0),
            _ => 0.0,
        });
    }
    let p50_ms = stats::median(&lat).unwrap_or(f64::INFINITY);
    let p99_ms = if p99s.iter().any(|p| p.is_nan()) {
        f64::NAN
    } else {
        stats::median(&p99s).expect("at least one window")
    };
    let achieved = stats::median(&rates).expect("at least one window");
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    Verdict {
        p50_ms,
        p99_ms,
        achieved_rps: achieved,
        failed_frac,
        window_p99_ms: p99s,
        passes: p99_ms <= limit_ms && achieved >= 0.99 * schedule.rate && report.failed == 0,
    }
}

/// What the connection expects back next.
enum Expect {
    Predict { i: usize, id: u64, due: Instant },
    Profile { id: u64, records: u64 },
}

/// Drive one phase: `conns` connections to `addr`, each sending its stripe
/// of `schedule` starting at `start`. Request ids are `id_base + i + 1`
/// (PROFILE frames use `id_base + n + i + 1`). Replies still missing at
/// `start + span + drain` time out.
pub fn run_phase(
    addr: SocketAddr,
    conns: usize,
    schedule: &Schedule,
    content: &Content<'_>,
    id_base: u64,
    start: Instant,
    drain: Duration,
) -> Report {
    let deadline = start + schedule.span() + drain;
    let mut total = Report::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mine: Vec<usize> = schedule.stripe(c, conns).collect();
                    connection(addr, schedule, &mine, content, id_base, start, deadline)
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("generator thread panicked"));
        }
    });
    total
}

fn is_timeout(e: &ServeError) -> bool {
    matches!(e, ServeError::Io(io) if matches!(io.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut))
}

/// One connection's share of a phase.
fn connection(
    addr: SocketAddr,
    schedule: &Schedule,
    mine: &[usize],
    content: &Content<'_>,
    id_base: u64,
    start: Instant,
    deadline: Instant,
) -> Report {
    let mut rep = Report::default();
    let stream = match TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|()| s)) {
        Ok(s) => s,
        Err(e) => {
            rep.attempted += mine.len() as u64;
            rep.fail(mine.len() as u64, mine, || format!("connect: {e}"));
            return rep;
        }
    };
    // One buffered write per frame: the length prefix and payload leave in
    // a single syscall. A peer that stops reading cannot wedge the sender
    // past the phase deadline.
    let limit = deadline
        .saturating_duration_since(Instant::now())
        .max(Duration::from_millis(1));
    let _ = stream.set_write_timeout(Some(limit));
    let _ = stream.set_read_timeout(Some(limit));
    let mut writer = BufWriter::with_capacity(64 << 10, &stream);
    let mut reader = FrameReader::new();
    let mut pending: VecDeque<Expect> = VecDeque::new();
    let mut next = 0usize;
    let n = schedule.n as u64;
    // The next due request, encoded ahead of its due time.
    let encode = |i: usize| content.predict(i).encode_with_id(id_base + i as u64 + 1);
    let mut ready = mine.first().map(|&i| encode(i));

    let broken = loop {
        // 1. Send everything that is due.
        let now = Instant::now();
        if next < mine.len() && start + schedule.due(mine[next]) <= now {
            let i = mine[next];
            let due = start + schedule.due(i);
            next += 1;
            rep.attempted += 1;
            let frame = ready.take().expect("encoded ahead");
            let sent = Instant::now();
            match frame
                .map_err(|e| e.to_string())
                .and_then(|f| write_frame(&mut writer, &f).map_err(|e| e.to_string()))
            {
                Ok(()) => {
                    rep.late_ms.push(late_ms(due, sent));
                    pending.push_back(Expect::Predict {
                        i,
                        id: id_base + i as u64 + 1,
                        due,
                    });
                }
                Err(e) => {
                    rep.fail(1, &[i], || format!("send: {e}"));
                    break true;
                }
            }
            ready = mine.get(next).map(|&j| encode(j));
            continue;
        }
        if next == mine.len() && pending.is_empty() {
            break false;
        }
        if now >= deadline {
            break true;
        }
        // 2. Wait for a reply until the next due time (or the deadline).
        let until = mine
            .get(next)
            .map_or(deadline, |&i| (start + schedule.due(i)).min(deadline));
        let wait = until.saturating_duration_since(now);
        if wait.is_zero() {
            continue;
        }
        match crate::poll::readable(&stream, wait) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(e) => {
                rep.fail(0, &[], || format!("poll: {e}"));
                break true;
            }
        }
        // Readable: a reply arrives whole, so this read does not stall; the
        // socket read timeout only bounds a peer that stops mid-frame.
        let frame = match reader.read(&mut &stream) {
            Ok(Some(f)) => f,
            Ok(None) => {
                rep.fail(0, &[], || "server closed the connection".into());
                break true;
            }
            Err(e) if is_timeout(&e) => continue,
            Err(e) => {
                rep.fail(0, &[], || format!("read: {e}"));
                break true;
            }
        };
        let received = Instant::now();
        let Some(expect) = pending.pop_front() else {
            rep.fail(0, &[], || "reply with no request outstanding".into());
            break true;
        };
        match (expect, Response::decode_with_id(&frame)) {
            (Expect::Predict { i, id, due }, Ok((got, Response::Predictions(preds))))
                if got == id
                    && preds.len() == content.rows_per_request
                    && preds.iter().all(|p| p.taken == (p.prob > 0.5)) =>
            {
                rep.replies.push(Reply {
                    i,
                    latency_ms: received.saturating_duration_since(due).as_secs_f64() * 1e3,
                    at: received,
                });
                if i % content.sample_every == content.sample_phase {
                    rep.sampled
                        .push((i, preds.iter().map(|p| p.prob).collect()));
                }
                if content.feedback {
                    rep.attempted += 1;
                    let id = id_base + n + i as u64 + 1;
                    let sent = content
                        .profile(i)
                        .encode_with_id(id)
                        .and_then(|f| write_frame(&mut writer, &f));
                    match sent {
                        Ok(()) => {
                            let records = content.rows_per_request as u64;
                            rep.records_sent += records;
                            pending.push_back(Expect::Profile { id, records });
                        }
                        Err(e) => {
                            rep.fail(1, &[], || format!("profile send: {e}"));
                            break true;
                        }
                    }
                }
            }
            (Expect::Profile { id, records }, Ok((got, Response::Profiled(ack))))
                if got == id && ack.applied + ack.unmatched == records =>
            {
                rep.records_applied += ack.applied;
                rep.records_unmatched += ack.unmatched;
            }
            (Expect::Predict { i, .. }, reply) => {
                rep.fail(1, &[i], || {
                    format!("bad PREDICT reply: {}", describe(reply))
                });
            }
            (Expect::Profile { .. }, reply) => {
                rep.fail(1, &[], || format!("bad PROFILE reply: {}", describe(reply)));
            }
        }
    };
    if broken {
        // Everything outstanding or never sent on this connection failed.
        let mut requests: Vec<usize> = pending
            .iter()
            .filter_map(|e| match e {
                Expect::Predict { i, .. } => Some(*i),
                Expect::Profile { .. } => None,
            })
            .collect();
        requests.extend_from_slice(&mine[next..]);
        let n = (pending.len() + mine.len() - next) as u64;
        rep.attempted += (mine.len() - next) as u64;
        rep.fail(n, &requests, || "timed out waiting for replies".into());
    }
    rep
}

fn describe(reply: Result<(u64, Response), ServeError>) -> String {
    match reply {
        Ok((id, Response::Error(m))) => format!("id {id}: error reply {m:?}"),
        Ok((id, Response::Predictions(p))) => format!("id {id}: {} predictions", p.len()),
        Ok((id, Response::Profiled(a))) => format!("id {id}: ack {a:?}"),
        Ok((id, _)) => format!("id {id}: unexpected reply kind"),
        Err(e) => format!("undecodable: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_rows_are_seeded_and_distinct() {
        let p = Pool {
            seed: 9,
            size: 100,
            dim: 158,
        };
        assert_eq!(p.row(7), p.row(7));
        assert_ne!(p.row(7), p.row(8));
        assert_ne!(p.row(7), Pool { seed: 10, ..p }.row(7));
        assert!(p.row(3).row.iter().all(|x| (-2.0..2.0).contains(x)));
        assert_eq!(p.picks(1, 3, 4), p.picks(1, 3, 4));
        assert!(p.picks(1, 3, 4).iter().all(|&k| (k as usize) < p.size));
        let taken = (0..1000).filter(|&k| p.taken(k)).count();
        assert!((400..600).contains(&taken));
    }

    #[test]
    fn schedule_keeps_each_request_in_its_slot_and_stripes_them() {
        let s = Schedule {
            rate: 1000.0,
            n: 5,
            seed: 1,
        };
        for i in 0..s.n {
            let slot = Duration::from_millis(i as u64)..Duration::from_millis(i as u64 + 1);
            assert!(slot.contains(&s.due(i)), "request {i} at {:?}", s.due(i));
        }
        assert_eq!(s.span(), s.due(4));
        // The arrival times are the seed's: the same again, another seed moves them.
        assert_eq!(s.due(3), Schedule { seed: 1, ..s }.due(3));
        assert_ne!(s.due(3), Schedule { seed: 2, ..s }.due(3));
        // Over many slots the points spread across the slot.
        let many = Schedule { n: 1000, ..s };
        let mean = (0..many.n)
            .map(|i| many.due(i).as_secs_f64() * 1e3 - i as f64)
            .sum::<f64>()
            / many.n as f64;
        assert!((0.45..0.55).contains(&mean), "mean offset {mean}");
        assert_eq!(s.stripe(0, 2).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert_eq!(s.stripe(1, 2).collect::<Vec<_>>(), vec![1, 3]);
        // Every request belongs to exactly one connection.
        let mut all: Vec<usize> = (0..3).flat_map(|c| s.stripe(c, 3)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn lateness_counts_from_the_due_time_and_is_never_negative() {
        let due = Instant::now();
        assert_eq!(late_ms(due, due + Duration::from_micros(1500)), 1.5);
        assert_eq!(late_ms(due + Duration::from_millis(2), due), 0.0);
    }

    #[test]
    fn achieved_rate_tracks_the_reply_window() {
        let t0 = Instant::now();
        // 1001 replies spread over exactly one second: 1000 rps.
        let r = achieved_rps(1001, t0, t0 + Duration::from_secs(1)).unwrap();
        assert!((r - 1000.0).abs() < 1e-9);
        // The same replies stretched by a growing backlog: slower.
        let slow = achieved_rps(1001, t0, t0 + Duration::from_millis(1250)).unwrap();
        assert!((slow - 800.0).abs() < 1e-9);
        assert_eq!(achieved_rps(1, t0, t0), None);
    }

    /// `n` requests at 1000 rps, each answered after `ms`, except those in
    /// `failed`.
    fn report(n: usize, ms: impl Fn(usize) -> f64, failed: &[usize]) -> Report {
        let t0 = Instant::now();
        let replies = (0..n)
            .filter(|i| !failed.contains(i))
            .map(|i| Reply {
                i,
                latency_ms: ms(i),
                at: t0 + Duration::from_secs_f64(i as f64 / 1000.0 + ms(i) / 1e3),
            })
            .collect();
        Report {
            attempted: n as u64,
            failed: failed.len() as u64,
            failed_requests: failed.to_vec(),
            replies,
            ..Report::default()
        }
    }

    #[test]
    fn a_clean_phase_passes() {
        let s = Schedule {
            rate: 1000.0,
            n: 2000,
            seed: 1,
        };
        let v = judge(&report(2000, |_| 1.0, &[]), &s, 5.0);
        assert!(v.passes, "{v:?}");
        assert_eq!(
            (v.p50_ms, v.p99_ms, v.failed_frac, v.window_p99_ms.len()),
            (1.0, 1.0, 0.0, 2)
        );
        assert!((v.achieved_rps - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn a_failed_request_counts_and_misses_the_limit() {
        let s = Schedule {
            rate: 1000.0,
            n: 2000,
            seed: 1,
        };
        // One failure among 2000: the p99 stays finite, yet the phase fails
        // and the failure is counted against the attempts.
        let v = judge(&report(2000, |_| 1.0, &[7]), &s, 5.0);
        assert!(!v.passes);
        assert_eq!(v.failed_frac, 1.0 / 2000.0);
        assert_eq!(v.p99_ms, 1.0);
        // Past 1% of each window, the failures are the tail: p99 is infinite.
        let many: Vec<usize> = (0..2000).step_by(50).collect();
        let v = judge(&report(2000, |_| 1.0, &many), &s, 5.0);
        assert!(!v.passes);
        assert_eq!(v.p99_ms, f64::INFINITY);
    }

    #[test]
    fn one_slow_window_does_not_decide_the_phase_but_a_backlog_does() {
        let s = Schedule {
            rate: 1000.0,
            n: 3000,
            seed: 1,
        };
        // A 40-request stall in one of three windows: median p99 holds.
        let v = judge(
            &report(
                3000,
                |i| if (100..140).contains(&i) { 50.0 } else { 1.0 },
                &[],
            ),
            &s,
            5.0,
        );
        assert!(v.passes, "{v:?}");
        assert_eq!(v.p99_ms, 1.0);
        // A backlog growing through the phase: every window falls behind.
        let v = judge(&report(3000, |i| 1.0 + i as f64 * 0.05, &[]), &s, 1e9);
        assert!(!v.passes);
        assert!(v.achieved_rps < 990.0, "{v:?}");
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let s = Schedule {
            rate: 1000.0,
            n: 999,
            seed: 1,
        };
        let v = judge(&report(999, |_| 1.0, &[]), &s, 5.0);
        assert!(v.p99_ms.is_nan());
        assert!(!v.passes);
    }

    #[test]
    fn an_unanswered_server_fails_every_request() {
        // A listener that accepts and never replies: every request times
        // out and counts as failed instead of aborting the phase.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pool = Pool {
            seed: 1,
            size: 1,
            dim: 3,
        };
        let picks = pool.picks(0, 4, 2);
        let content = Content {
            pool,
            picks: &picks,
            rows_per_request: 2,
            feedback: false,
            sample_every: 1,
            sample_phase: 0,
        };
        let s = Schedule {
            rate: 1000.0,
            n: 4,
            seed: 1,
        };
        let rep = run_phase(
            addr,
            2,
            &s,
            &content,
            0,
            Instant::now(),
            Duration::from_millis(50),
        );
        drop(listener);
        assert_eq!(rep.attempted, 4);
        assert_eq!(rep.failed, 4);
        assert_eq!(rep.failed_requests.len(), 4);
        assert_eq!(rep.late_ms.len(), 4);
        assert!(rep.replies.is_empty());
        assert!(!judge(&rep, &s, 1e9).passes);
    }
}
