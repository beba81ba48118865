//! Span/event tracing: the process-wide collector of per-thread event
//! buffers, and the Chrome trace-event JSON renderer.
//!
//! Timestamps are microseconds from a process-wide monotonic epoch
//! ([`std::time::Instant`] taken on first use). A thread's id is its
//! buffer's index in the collector's registry, so ids are small integers
//! in first-use order — the main thread is usually 0, pool workers follow
//! in spawn order. A thread that exits hands its buffer (and thus its trace
//! track id) back to a free list for the next thread to adopt, so
//! sequential short-lived workers share tracks and the registry stays
//! bounded by peak thread concurrency.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One trace-event argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered with enough digits to round-trip).
    F64(f64),
    /// Free-form text.
    Str(String),
    /// Boolean.
    Bool(bool),
}

macro_rules! arg_from {
    ($($t:ty => $variant:ident as $conv:ty),+ $(,)?) => {
        $(impl From<$t> for ArgValue {
            fn from(v: $t) -> Self { ArgValue::$variant(v as $conv) }
        })+
    };
}
arg_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
          i64 => I64 as i64, i32 => I64 as i64, f64 => F64 as f64);

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// What kind of trace event a record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span: `ts_us` is the start, `dur_us` the duration
    /// (trace-event phase `"X"`).
    Complete,
    /// A point-in-time event (trace-event phase `"i"`).
    Instant,
}

/// One recorded event, as stored in the per-thread buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (`"fold"`, `"epoch"`, …).
    pub name: &'static str,
    /// Category — the emitting layer (`"train"`, `"runtime"`, `"eval"`, …).
    pub cat: &'static str,
    /// Complete span or instant.
    pub kind: EventKind,
    /// Microseconds since the trace epoch (span start for completes).
    pub ts_us: u64,
    /// Span duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Small integer thread id, first-use order.
    pub tid: u64,
    /// Key/value annotations.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// Events one thread may hold undrained. A push past it drops the event
/// and counts it in [`dropped`].
pub const CAPACITY: usize = 65_536;

/// One thread's undrained events, in push order.
type Buffer = Arc<Mutex<Vec<TraceEvent>>>;

struct Collector {
    epoch: Instant,
    registry: Mutex<Registry>,
}

/// Every buffer ever registered. A buffer's index is its thread id.
struct Registry {
    buffers: Vec<Buffer>,
    /// Indices of buffers whose thread exited, ready for the next thread
    /// that records. Recycling bounds the registry at the peak number of
    /// *concurrent* traced threads: without it, every short-lived
    /// `parallel_map` worker would register a buffer for good.
    free: Vec<usize>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static COLLECTOR: OnceLock<Collector> = OnceLock::new();

fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(|| Collector {
        epoch: Instant::now(),
        registry: Mutex::new(Registry {
            buffers: Vec::new(),
            free: Vec::new(),
        }),
    })
}

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    collector()
        .registry
        .lock()
        .expect("trace registry poisoned")
}

/// This thread's buffer and its index. Dropping it (at thread exit) hands
/// the index back to the free list for the next thread to adopt.
struct Local {
    tid: usize,
    events: Buffer,
}

impl Drop for Local {
    fn drop(&mut self) {
        // A poisoned registry only costs the recycling of this index.
        if let Ok(mut reg) = collector().registry.lock() {
            reg.free.push(self.tid);
        }
    }
}

thread_local! {
    static LOCAL: OnceCell<Local> = const { OnceCell::new() };
}

/// Microseconds since the trace epoch.
pub fn now_us() -> u64 {
    collector().epoch.elapsed().as_micros() as u64
}

/// Turn tracing on.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn tracing off. Spans already open still record when dropped; new
/// [`span!`](crate::span)/[`instant!`](crate::instant) sites become no-ops.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether tracing is currently enabled (one relaxed load — this is the
/// whole disabled-path cost of a span site).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Total events dropped so far because some thread already held
/// [`CAPACITY`] undrained events.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

fn push(mut event: TraceEvent) {
    LOCAL.with(|cell| {
        let local = cell.get_or_init(|| {
            let mut reg = registry();
            let tid = reg.free.pop().unwrap_or_else(|| {
                reg.buffers.push(Buffer::default());
                reg.buffers.len() - 1
            });
            Local {
                tid,
                events: Arc::clone(&reg.buffers[tid]),
            }
        });
        event.tid = local.tid as u64;
        let mut events = local.events.lock().expect("trace buffer poisoned");
        if events.len() < CAPACITY {
            events.push(event);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Take every thread's buffered events and return them sorted by
/// `(ts, tid, dur)`. Safe to call while threads record: each buffer is
/// swapped out whole under its own lock, so every event is taken by
/// exactly one drain, and a push waits at most for that swap.
pub fn drain() -> Vec<TraceEvent> {
    if COLLECTOR.get().is_none() {
        return Vec::new();
    }
    let taken: Vec<Vec<TraceEvent>> = registry()
        .buffers
        .iter()
        .map(|b| std::mem::take(&mut *b.lock().expect("trace buffer poisoned")))
        .collect();
    let mut out: Vec<TraceEvent> = taken.into_iter().flatten().collect();
    out.sort_by_key(|e| (e.ts_us, e.tid, e.dur_us));
    out
}

fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn render_event(e: &TraceEvent, out: &mut String) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},",
        e.name,
        e.cat,
        match e.kind {
            EventKind::Complete => "X",
            EventKind::Instant => "i",
        },
        e.ts_us,
    ));
    match e.kind {
        EventKind::Complete => out.push_str(&format!("\"dur\":{},", e.dur_us)),
        EventKind::Instant => out.push_str("\"s\":\"t\","),
    }
    out.push_str(&format!("\"pid\":1,\"tid\":{}", e.tid));
    if !e.args.is_empty() {
        out.push_str(",\"args\":{");
        for (i, (k, v)) in e.args.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(k, out);
            out.push_str("\":");
            match v {
                ArgValue::U64(x) => out.push_str(&x.to_string()),
                ArgValue::I64(x) => out.push_str(&x.to_string()),
                ArgValue::F64(x) => {
                    if x.is_finite() {
                        out.push_str(&format!("{x:?}"))
                    } else {
                        out.push_str(&format!("\"{x}\""))
                    }
                }
                ArgValue::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
                ArgValue::Str(s) => {
                    out.push('"');
                    escape_json(s, out);
                    out.push('"');
                }
            }
        }
        out.push('}');
    }
    out.push('}');
}

/// Render events as a Chrome trace-event JSON array, one event per line —
/// a file `chrome://tracing` and Perfetto open directly, and that any JSON
/// parser accepts whole.
pub fn render_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("[\n");
    for (i, e) in events.iter().enumerate() {
        render_event(e, &mut out);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Drain the collector and write the trace to `path`; returns the number of
/// events written.
pub fn write_json(path: &std::path::Path) -> std::io::Result<usize> {
    let events = drain();
    std::fs::write(path, render_json(&events))?;
    Ok(events.len())
}

/// Merge several [`render_json`]-format trace files onto one Perfetto
/// timeline and write the union to `out`. Each input is `(label, path)`;
/// the events of input `i` are re-homed to pid `i + 1` and a
/// `process_name` metadata event carrying the label is prepended, so a
/// client trace and a server trace (both written with pid 1) show up as
/// two named process lanes sharing one clock axis. Returns the number of
/// trace events written (metadata excluded).
///
/// This is a line-based transform of our own writer's output — one event
/// object per line, `"pid":1` rendered before any `args` — not a general
/// JSON parser; feeding it traces from other producers is unsupported.
pub fn merge_json(
    inputs: &[(&str, &std::path::Path)],
    out: &std::path::Path,
) -> std::io::Result<usize> {
    let mut merged = String::from("[\n");
    let mut lines: Vec<String> = Vec::new();
    for (i, (label, path)) in inputs.iter().enumerate() {
        let pid = i + 1;
        let mut name = String::new();
        escape_json(label, &mut name);
        lines.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
        let text = std::fs::read_to_string(path)?;
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if line.is_empty() || line == "[" || line == "]" {
                continue;
            }
            // `"pid":1` renders before `args` and quotes inside args are
            // escaped, so the first occurrence is always the event's own
            // pid field.
            lines.push(line.replacen("\"pid\":1,", &format!("\"pid\":{pid},"), 1));
        }
    }
    let events = lines.len() - inputs.len();
    for (i, line) in lines.iter().enumerate() {
        merged.push_str(line);
        if i + 1 < lines.len() {
            merged.push(',');
        }
        merged.push('\n');
    }
    merged.push_str("]\n");
    std::fs::write(out, merged)?;
    Ok(events)
}

/// Open a span that records when the guard drops. The
/// [`span!`](crate::span) macro calls this only while tracing is
/// [`enabled`], and builds `args` only then.
pub fn span(
    cat: &'static str,
    name: &'static str,
    args: Vec<(&'static str, ArgValue)>,
) -> SpanGuard {
    SpanGuard {
        rec: Some(TraceEvent {
            name,
            cat,
            kind: EventKind::Complete,
            ts_us: now_us(),
            dur_us: 0,
            tid: 0, // stamped at push time
            args,
        }),
    }
}

/// Record an instant event. The [`instant!`](crate::instant) macro calls
/// this only while tracing is [`enabled`], and builds `args` only then.
pub fn instant(cat: &'static str, name: &'static str, args: Vec<(&'static str, ArgValue)>) {
    push(TraceEvent {
        name,
        cat,
        kind: EventKind::Instant,
        ts_us: now_us(),
        dur_us: 0,
        tid: 0,
        args,
    });
}

/// An open span. Dropping it records a complete event covering the guard's
/// lifetime. The default guard, which [`span!`](crate::span) returns while
/// tracing is off, does nothing, forever.
#[derive(Debug, Default)]
#[must_use = "a span records when the guard is dropped"]
pub struct SpanGuard {
    rec: Option<TraceEvent>,
}

impl SpanGuard {
    /// Attach an argument to the span (no-op, allocation-free on a disabled
    /// guard — but prefer passing cheap values; build strings only behind
    /// [`SpanGuard::is_enabled`]).
    pub fn arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(rec) = &mut self.rec {
            rec.args.push((key, value.into()));
        }
    }

    /// Whether this guard will record (tracing was on when it opened).
    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(mut rec) = self.rec.take() {
            rec.dur_us = now_us().saturating_sub(rec.ts_us);
            push(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace tests share the process-global collector; serialize them.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_sites_emit_nothing() {
        let _g = locked();
        disable();
        let _ = drain();
        {
            let mut s = crate::span!("t", "quiet");
            s.arg("k", 1u64);
            assert!(!s.is_enabled());
        }
        crate::instant!("t", "quiet", k = 1u64);
        assert!(drain().is_empty());
    }

    #[test]
    fn spans_and_instants_round_trip_through_the_collector() {
        let _g = locked();
        let _ = drain();
        enable();
        {
            let mut s = crate::span!("t", "outer", n = 3usize);
            s.arg("extra", "hi");
            crate::instant!("t", "tick", v = 1.5f64);
        }
        disable();
        let events = drain();
        assert_eq!(events.len(), 2);
        let tick = events.iter().find(|e| e.name == "tick").expect("tick");
        assert_eq!(tick.kind, EventKind::Instant);
        let outer = events.iter().find(|e| e.name == "outer").expect("outer");
        assert_eq!(outer.kind, EventKind::Complete);
        assert_eq!(outer.args[0], ("n", ArgValue::U64(3)));
        assert_eq!(outer.args[1], ("extra", ArgValue::Str("hi".into())));
        // the instant happened inside the span's lifetime
        assert!(tick.ts_us >= outer.ts_us);
        assert!(tick.ts_us <= outer.ts_us + outer.dur_us);
    }

    #[test]
    fn rendered_json_is_loadable_shape() {
        let events = vec![
            TraceEvent {
                name: "fold",
                cat: "eval",
                kind: EventKind::Complete,
                ts_us: 10,
                dur_us: 25,
                tid: 2,
                args: vec![
                    ("lang", ArgValue::Str("C\"\\".into())),
                    ("idx", ArgValue::U64(4)),
                    ("ok", ArgValue::Bool(true)),
                    ("rate", ArgValue::F64(0.25)),
                ],
            },
            TraceEvent {
                name: "tick",
                cat: "t",
                kind: EventKind::Instant,
                ts_us: 12,
                dur_us: 0,
                tid: 0,
                args: Vec::new(),
            },
        ];
        let json = render_json(&events);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains(r#""ph":"X""#));
        assert!(json.contains(r#""dur":25"#));
        assert!(json.contains(r#""ph":"i""#));
        assert!(json.contains(r#""s":"t""#));
        assert!(json.contains(r#""lang":"C\"\\""#));
        assert!(json.contains(r#""rate":0.25"#));
        // two lines per event plus the brackets
        assert_eq!(json.lines().count(), 4);
    }

    #[test]
    fn exited_threads_buffers_are_recycled_not_leaked() {
        let _g = locked();
        let _ = drain();
        enable();
        let registered = || registry().buffers.len();
        let before = registered();
        const WORKERS: u64 = 16;
        for w in 0..WORKERS {
            std::thread::spawn(move || {
                for s in 0..4u64 {
                    crate::instant!("t", "churn", w = w, s = s);
                }
            })
            .join()
            .expect("worker finished");
        }
        disable();
        // Sequential workers adopt the previous worker's buffer from the
        // free list, so 16 threads grow the registry by at most one buffer
        // — the leak the long-running traced serve scenario would hit.
        assert!(
            registered() <= before + 1,
            "buffers recycled, not one per thread: {before} -> {}",
            registered()
        );
        let events = drain();
        assert_eq!(
            events.iter().filter(|e| e.name == "churn").count(),
            (WORKERS * 4) as usize,
            "recycling loses no events"
        );
        // All workers shared one track id (they never overlapped in time).
        let tids: std::collections::HashSet<u64> = events
            .iter()
            .filter(|e| e.name == "churn")
            .map(|e| e.tid)
            .collect();
        assert_eq!(tids.len(), 1, "sequential workers share a trace track");
    }

    #[test]
    fn merge_json_rehomes_pids_and_labels_processes() {
        let dir = std::env::temp_dir().join(format!("esp_merge_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let mk = |name: &'static str, ts: u64| TraceEvent {
            name,
            cat: "t",
            kind: EventKind::Complete,
            ts_us: ts,
            dur_us: 5,
            tid: 1,
            args: vec![("note", ArgValue::Str("\"pid\":1,\"tid\":".into()))],
        };
        let client = dir.join("client.json");
        let server = dir.join("server.json");
        std::fs::write(&client, render_json(&[mk("send", 10)])).expect("client trace");
        std::fs::write(&server, render_json(&[mk("recv", 12), mk("compute", 13)]))
            .expect("server trace");
        let out = dir.join("merged.json");
        let n = merge_json(&[("client", &client), ("server", &server)], &out).expect("merge ok");
        assert_eq!(n, 3);
        let merged = std::fs::read_to_string(&out).expect("read merged");
        // Events re-homed per input; the decoy "pid":1 inside the escaped
        // string arg is untouched.
        assert!(merged.contains(r#""name":"send","cat":"t","ph":"X","ts":10,"dur":5,"pid":1"#));
        assert!(merged.contains(r#""name":"recv","cat":"t","ph":"X","ts":12,"dur":5,"pid":2"#));
        assert!(merged.contains(r#""note":"\"pid\":1,\"tid\":""#));
        // Process-name metadata rows label the lanes.
        assert!(merged.contains(
            r#""name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"client"}"#
        ));
        assert!(merged.contains(
            r#""name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"server"}"#
        ));
        // Still a well-formed one-event-per-line array: 5 rows + brackets.
        assert!(merged.starts_with("[\n") && merged.ends_with("]\n"));
        assert_eq!(merged.lines().count(), 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn arg_value_conversions() {
        assert_eq!(ArgValue::from(3u32), ArgValue::U64(3));
        assert_eq!(ArgValue::from(-2i32), ArgValue::I64(-2));
        assert_eq!(ArgValue::from(7usize), ArgValue::U64(7));
        assert_eq!(ArgValue::from("x"), ArgValue::Str("x".into()));
        assert_eq!(ArgValue::from(true), ArgValue::Bool(true));
    }
}
