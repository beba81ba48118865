//! The trace collector under concurrency and overload: drains racing
//! writers take every event exactly once, whole and in record order; a
//! thread past `CAPACITY` undrained events keeps the first ones and counts
//! the rest; recording resumes once a drain empties the buffer.

use std::sync::{Barrier, Mutex};

use esp_obs::trace::{self, EventKind, TraceEvent, CAPACITY};
use esp_obs::ArgValue;

/// The tests share the process-global collector; serialize them.
fn locked() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

fn u64_arg(e: &TraceEvent, key: &str) -> u64 {
    match e.args.iter().find(|(k, _)| *k == key) {
        Some((_, ArgValue::U64(v))) => *v,
        other => panic!("{key}: unexpected arg {other:?} in {e:?}"),
    }
}

/// Four writers record spans while the main thread drains. Halfway, all
/// five meet at a barrier twice, and the main thread drains in between, so
/// that drain takes exactly the first half of every stream; then the
/// second halves race a drain loop. The drains together return every span
/// exactly once, with both arguments, and each writer's spans in the order
/// it recorded them.
#[test]
fn drains_racing_writers_take_each_span_once_in_order() {
    const WRITERS: u64 = 4;
    const SPANS: u64 = 5_000;
    let _g = locked();
    let _ = trace::drain();
    let dropped = trace::dropped();
    let halfway = Barrier::new(WRITERS as usize + 1);
    let mut drained: Vec<TraceEvent> = Vec::new();
    let mut first_halves = 0;
    trace::enable();
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let halfway = &halfway;
                s.spawn(move || {
                    for seq in 0..SPANS {
                        if seq == SPANS / 2 {
                            halfway.wait();
                            halfway.wait();
                        }
                        let mut sp = esp_obs::span!("test", "race", writer = w);
                        sp.arg("seq", seq);
                    }
                })
            })
            .collect();
        halfway.wait();
        drained.extend(trace::drain());
        first_halves = drained.len() as u64;
        halfway.wait();
        while writers.iter().any(|w| !w.is_finished()) {
            drained.extend(trace::drain());
        }
        for w in writers {
            w.join().expect("writer finished");
        }
    });
    drained.extend(trace::drain());
    trace::disable();

    assert_eq!(first_halves, WRITERS * SPANS / 2, "the halfway drain");
    assert_eq!(trace::dropped(), dropped, "nothing was full");
    assert_eq!(
        drained.len() as u64,
        WRITERS * SPANS,
        "every span drained once"
    );
    let mut next = [0u64; WRITERS as usize];
    for e in &drained {
        assert_eq!(
            (e.cat, e.name, e.kind),
            ("test", "race", EventKind::Complete)
        );
        assert_eq!(e.args.len(), 2, "both args survived: {:?}", e.args);
        let w = u64_arg(e, "writer") as usize;
        let seq = u64_arg(e, "seq");
        assert_eq!(seq, next[w], "writer {w}: spans out of order or repeated");
        next[w] += 1;
    }
}

/// A thread that outruns the drains keeps its first `CAPACITY` events and
/// counts the rest as dropped; after a drain it records again.
#[test]
fn a_full_buffer_keeps_the_first_events_and_counts_the_rest() {
    const EXTRA: u64 = 100;
    let _g = locked();
    let _ = trace::drain();
    let dropped = trace::dropped();
    trace::enable();
    for seq in 0..CAPACITY as u64 + EXTRA {
        esp_obs::instant!("test", "flood", seq = seq);
    }
    let full = trace::drain();
    assert_eq!(full.len(), CAPACITY);
    for (i, e) in full.iter().enumerate() {
        assert_eq!(u64_arg(e, "seq"), i as u64, "the first events stay");
    }
    assert_eq!(trace::dropped() - dropped, EXTRA, "the rest are counted");

    esp_obs::instant!("test", "flood", seq = 0u64);
    let resumed = trace::drain();
    trace::disable();
    assert_eq!(resumed.len(), 1, "recording resumes after a drain");
    assert_eq!(trace::dropped() - dropped, EXTRA);
}
