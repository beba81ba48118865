//! The HTTP/1.1 telemetry sidecar: a std-only scrape endpoint riding next
//! to the frame protocol, so a stock Prometheus (or `curl`, or a plain
//! `TcpStream`) can observe a live server without speaking the binary
//! protocol.
//!
//! Three routes, all `GET`:
//!
//! * `/metrics` — the unified Prometheus text exposition (registry +
//!   `esp_ledger_` families), byte-identical to what the STATS opcode
//!   carries.
//! * `/healthz` — a JSON liveness document: model facts, uptime, cache
//!   size, and the last-minute windowed rps/p50/p99/mispredict-rate.
//! * `/sitez?top=K` — the hot-site accuracy table (default K = 10).
//!
//! The listener runs on its own thread, `esp-serve-http`, blocked in
//! `poll(2)` on the listener and the server's stop socket, so `SHUTDOWN`
//! (or dropping the handle) tears both listeners down at once. It stays off
//! the reactor because a scrape copies and sorts every ledger site's
//! `(row hash, entry)` pair — about 8 ms on a 2-vCPU host at the ~65k
//! sites a feedback-heavy load reaches — and on the reactor every scrape
//! would stall every PREDICT for that long. The sidecar serves one
//! connection at a time, so each request's header block gets
//! `READ_TIMEOUT` (2 s) counted from accept, however slowly its bytes
//! arrive; a request that has not finished by then is answered 408 and
//! closed, and the next connection is served. A header block over 8 KiB
//! is answered 431; the sidecar then shuts its write side and discards
//! what the client still sends, until the same deadline, so the client
//! reads the whole response and a clean end of stream. One response per
//! connection (`Connection: close`); scrapers open a fresh connection per
//! scrape, which keeps the sidecar stateless.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::poll::{self, PollFd, POLLIN};
use crate::protocol::PROTOCOL_VERSION;
use crate::server::{Shared, ACCEPT_RETRY};

/// Requests beyond this size are refused: scrape requests are one line
/// plus a handful of headers.
const MAX_REQUEST: usize = 8 * 1024;

/// Time a connection has, from accept, to send its whole header block; a
/// stalled or trickling client cannot hold the sidecar past this.
const READ_TIMEOUT: Duration = Duration::from_millis(2000);

/// Bind `spec` and spawn the sidecar thread. Returns the bound address
/// (`spec` may carry port 0) and the join handle; the thread exits when
/// the server's stop socket turns readable.
pub(crate) fn spawn(
    spec: &str,
    shared: Arc<Shared>,
) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(spec)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let handle = std::thread::Builder::new()
        .name("esp-serve-http".to_string())
        .spawn(move || accept_loop(&listener, &shared))?;
    Ok((addr, handle))
}

/// Accept and serve one connection each time the listener is ready, until
/// a stop is requested.
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    let mut accept_failed = false;
    loop {
        let mut fds = [
            PollFd::new(&shared.stop_rx, POLLIN),
            PollFd::new(listener, POLLIN),
        ];
        let watched = if accept_failed { 1 } else { 2 };
        let _ = poll::wait(&mut fds[..watched], accept_failed.then_some(ACCEPT_RETRY));
        if fds[0].revents() != 0 {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                accept_failed = false;
                shared.http_requests.fetch_add(1, Ordering::Relaxed);
                let _ = serve_one(stream, shared);
            }
            Err(e) => accept_failed = e.kind() != ErrorKind::WouldBlock,
        }
    }
}

/// Incremental request reader: accumulate bytes until the blank line
/// ending the header block, retrying reads that were interrupted.
struct RequestReader {
    buf: Vec<u8>,
}

impl RequestReader {
    fn new() -> Self {
        RequestReader {
            buf: Vec::with_capacity(512),
        }
    }

    /// Drive the request forward until its header block completes. Returns
    /// the buffered bytes; `Ok(None)` means the peer closed before
    /// finishing a request.
    fn read(&mut self, r: &mut impl Read) -> std::io::Result<Option<&[u8]>> {
        let mut chunk = [0u8; 512];
        loop {
            if self.buf.windows(4).any(|w| w == b"\r\n\r\n")
                || self.buf.windows(2).any(|w| w == b"\n\n")
            {
                return Ok(Some(&self.buf));
            }
            if self.buf.len() >= MAX_REQUEST {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    "request header block exceeds 8 KiB",
                ));
            }
            match r.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Past the deadline (or any other failure) the connection
                // is given up; one response per connection means there is
                // no stream to desynchronize.
                Err(e) => return Err(e),
            }
        }
    }
}

/// A socket whose reads share one deadline: each read waits at most for
/// the time left and fails with `TimedOut` once none is.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

fn serve_one(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    let mut reader = Deadline {
        stream: &stream,
        at: Instant::now() + READ_TIMEOUT,
    };
    stream.set_nodelay(true)?;
    let mut req = RequestReader::new();
    let (response, oversized) = match req.read(&mut reader) {
        Ok(Some(bytes)) => (route(bytes, shared), false),
        Ok(None) => return Ok(()),
        Err(e) if e.kind() == ErrorKind::InvalidData => (
            http_response(
                431,
                "text/plain; charset=utf-8",
                "request header block exceeds 8 KiB\n",
            ),
            true,
        ),
        Err(_) => (
            http_response(408, "text/plain; charset=utf-8", "request timed out\n"),
            false,
        ),
    };
    let mut writer = &stream;
    writer.write_all(response.as_bytes())?;
    writer.flush()?;
    if oversized {
        // Closing with the client's unread bytes still queued would reset
        // the connection, and the client could lose the response: end the
        // write side, then discard what the client still sends until it
        // closes or the request's deadline passes.
        stream.shutdown(Shutdown::Write)?;
        let mut sink = [0u8; 4096];
        while reader.read(&mut sink).is_ok_and(|n| n > 0) {}
    }
    Ok(())
}

/// Parse the request line and dispatch. Anything that is not a well-formed
/// `GET` of a known path gets a plain-text error body.
fn route(request: &[u8], shared: &Shared) -> String {
    let text = String::from_utf8_lossy(request);
    let mut parts = text.lines().next().unwrap_or("").split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return http_response(405, "text/plain; charset=utf-8", "only GET is supported\n");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/metrics" => http_response(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &shared.exposition(),
        ),
        "/healthz" => http_response(200, "application/json", &healthz_json(shared)),
        "/sitez" => match parse_top(query) {
            Ok(top) => http_response(200, "application/json", &shared.ledger.sitez_json(top)),
            Err(msg) => http_response(400, "text/plain; charset=utf-8", &msg),
        },
        _ => http_response(404, "text/plain; charset=utf-8", "no such route\n"),
    }
}

/// Parse `top=K` from a `/sitez` query string; default 10. Every pair
/// must be a well-formed `top=K` (repeats allowed; the last one wins).
fn parse_top(query: Option<&str>) -> Result<usize, String> {
    let Some(query) = query else { return Ok(10) };
    let mut top = 10;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        if k != "top" {
            return Err(format!("unknown query parameter {k:?} (expected top=K)\n"));
        }
        top = v
            .parse::<usize>()
            .map_err(|_| format!("top={v:?} is not a non-negative integer\n"))?;
    }
    Ok(top)
}

fn healthz_json(shared: &Shared) -> String {
    let info = shared.info();
    let now_us = shared.now_us();
    let req = shared.req_window.snapshot(now_us);
    let observed = shared.observed_window.snapshot(now_us);
    let mispredicted = shared.mispredict_window.snapshot(now_us);
    let window_miss_rate = if observed.sum > 0 {
        mispredicted.sum as f64 / observed.sum as f64
    } else {
        0.0
    };
    let models: Vec<String> = shared
        .models
        .list()
        .iter()
        .map(|e| {
            format!(
                "{{\"name\": \"{}\", \"version\": {}, \"corpus\": \"{}\"}}",
                escape(&e.info.model_name),
                e.info.model_version,
                escape(&e.info.corpus_id),
            )
        })
        .collect();
    format!(
        "{{\n  \"model\": \"{}\",\n  \"dim\": {},\n  \"hidden\": {},\n  \
         \"format_version\": {},\n  \"protocol_version\": {},\n  \
         \"precision_bits\": {},\n  \"uptime_s\": {:.3},\n  \
         \"ledger_enabled\": {},\n  \"http_requests\": {},\n  \
         \"cache_entries\": {},\n  \"reloads_total\": {},\n  \
         \"models\": [{}],\n  \
         \"window\": {{\"seconds\": {}, \"rps\": {:.3}, \"p50_us\": {}, \
         \"p99_us\": {}, \"mispredict_rate\": {}}}\n}}\n",
        escape(&info.corpus_id),
        info.dim,
        info.hidden,
        info.format_version,
        PROTOCOL_VERSION,
        shared.precision_bits(),
        now_us as f64 / 1e6,
        shared.ledger.enabled(),
        shared.http_requests.load(Ordering::Relaxed),
        shared.metrics.cache_entries.get(),
        shared.metrics.reloads.get(),
        models.join(", "),
        req.window_s,
        req.rate_per_sec,
        req.p50,
        req.p99,
        window_miss_rate,
    )
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn http_response(status: u16, content_type: &str, body: &str) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_parsing() {
        assert_eq!(parse_top(None), Ok(10));
        assert_eq!(parse_top(Some("")), Ok(10));
        assert_eq!(parse_top(Some("top=5")), Ok(5));
        assert_eq!(parse_top(Some("top=0")), Ok(0));
        assert!(parse_top(Some("top=-1")).is_err());
        assert!(parse_top(Some("top=abc")).is_err());
        assert!(parse_top(Some("depth=3")).is_err());
    }

    #[test]
    fn responses_carry_content_length() {
        let r = http_response(200, "text/plain", "hello\n");
        assert!(r.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(r.contains("Content-Length: 6\r\n"));
        assert!(r.contains("Connection: close\r\n"));
        assert!(r.ends_with("\r\n\r\nhello\n"));
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\u000ad");
    }

    /// A `Read` serving scripted chunks with timeouts, like a slow client.
    struct Stutter {
        script: Vec<Result<Vec<u8>, ErrorKind>>,
    }

    impl Read for Stutter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.script.pop() {
                None => Ok(0),
                Some(Err(kind)) => Err(kind.into()),
                Some(Ok(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
            }
        }
    }

    #[test]
    fn request_reader_survives_interrupts_and_split_requests() {
        let request = b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
        let mid = request.len() / 2;
        let mut r = Stutter {
            script: vec![
                Ok(request[mid..].to_vec()),
                Err(ErrorKind::Interrupted),
                Ok(request[..mid].to_vec()),
            ],
        };
        let mut reader = RequestReader::new();
        let got = reader.read(&mut r).unwrap().unwrap();
        assert_eq!(got, request);
    }

    #[test]
    fn request_reader_caps_header_block() {
        struct Infinite;
        impl Read for Infinite {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                buf.fill(b'A');
                Ok(buf.len())
            }
        }
        let err = RequestReader::new().read(&mut Infinite).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }
}
