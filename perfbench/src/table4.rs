//! The `table4` workload: regenerate Table 4 from nothing through the entry
//! points `repro_tables table4` uses, with the paper-sized learner.

use std::collections::BTreeMap;
use std::time::Instant;

use esp_core::{EspConfig, Learner};
use esp_eval::{BenchData, SuiteData, Table4Config};
use esp_ir::ProgramAnalysis;
use esp_lang::CompilerConfig;
use esp_nnet::MlpConfig;
use esp_obs::trace::{ArgValue, TraceEvent};

use crate::report::{Outcome, Run};
use crate::{procfs, stats};

/// Table 4 as the seed renders it: the bytes every regeneration must match.
pub const REFERENCE: &str = include_str!("../reference/table4.txt");

/// Least regenerations per run, however short `--seconds` is.
const MIN_REGENERATIONS: usize = 3;

/// Share of the traced wall time the layer spans must cover.
const MIN_COVERAGE: f64 = 0.95;

/// The paper-sized learner `repro_tables table4` trains (hidden 10, 200
/// epochs, patience 25, 2 restarts), on `threads` workers.
pub fn config(threads: usize) -> Table4Config {
    Table4Config {
        esp: EspConfig {
            learner: Learner::Net(MlpConfig {
                hidden: 10,
                max_epochs: 200,
                patience: 25,
                restarts: 2,
                ..MlpConfig::default()
            }),
            threads,
            coalesce: true,
            ..EspConfig::default()
        },
        model_cache: None,
        quant: None,
    }
}

/// One untraced regeneration: generate, compile, analyze and profile the 43
/// programs, run the leave-one-out folds, score and render.
fn regenerate(threads: usize) -> String {
    let suite = SuiteData::build_with_threads(&CompilerConfig::default(), threads);
    let rows = esp_eval::table4::compute(&suite, &config(threads));
    esp_eval::table4::render_rows(&suite, &rows)
}

/// Everything the pipeline process does before its first timed call.
fn set_up(threads: usize) -> Table4Config {
    assert_eq!(
        esp_corpus::suite().len(),
        43,
        "the corpus defines 43 programs"
    );
    config(threads)
}

/// The pipeline process (`perfbench --pipeline table4 --threads N`): set
/// up, print `ready`, regenerate Table 4 once, print it, and finish with
/// `done <seconds> <peak RSS bytes> <CPU nanoseconds>`.
pub fn pipeline_process(threads: usize) {
    use std::io::Write;
    let cfg = set_up(threads);
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "ready");
    let _ = stdout.flush();
    let t = Instant::now();
    let suite = SuiteData::build_with_threads(&CompilerConfig::default(), threads);
    let rows = esp_eval::table4::compute(&suite, &cfg);
    let text = esp_eval::table4::render_rows(&suite, &rows);
    let secs = t.elapsed().as_secs_f64();
    let pid = std::process::id();
    let rss = procfs::peak_rss_bytes(pid).unwrap_or(0);
    let cpu = procfs::own_cpu_ns().unwrap_or(0);
    let _ = writeln!(stdout, "{text}done {secs} {rss} {cpu}");
    let _ = stdout.flush();
}

/// What one pipeline process measured.
struct Regeneration {
    setup_s: f64,
    table4_s: f64,
    peak_rss: u64,
    cpu_ns: u64,
    text: String,
}

/// Spawn one pipeline process and read its report. Set-up time runs from
/// just before the spawn to its `ready` line.
fn regenerate_in_child(threads: usize) -> Result<Regeneration, String> {
    use std::io::{BufRead, BufReader, Read};
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut child = std::process::Command::new(exe)
        .args(["--pipeline", "table4", "--threads", &threads.to_string()])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the pipeline process: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let ready = stdout.read_line(&mut line).map_err(|e| e.to_string());
    let setup_s = t.elapsed().as_secs_f64();
    let mut rest = String::new();
    let read = stdout.read_to_string(&mut rest).map_err(|e| e.to_string());
    let status = child.wait().map_err(|e| e.to_string())?;
    ready?;
    read?;
    if line != "ready\n" || !status.success() {
        return Err(format!("pipeline process failed ({status}) after {line:?}"));
    }
    let (text, done) = rest
        .trim_end_matches('\n')
        .rsplit_once('\n')
        .map(|(text, done)| (format!("{text}\n"), done))
        .ok_or("pipeline process printed no result")?;
    let mut f = done.split_whitespace();
    let (Some("done"), Some(secs), Some(rss), Some(cpu)) = (f.next(), f.next(), f.next(), f.next())
    else {
        return Err(format!("unexpected pipeline result line {done:?}"));
    };
    Ok(Regeneration {
        setup_s,
        table4_s: secs.parse().map_err(|_| "bad seconds")?,
        peak_rss: rss.parse().map_err(|_| "bad peak RSS")?,
        cpu_ns: cpu.parse().map_err(|_| "bad CPU time")?,
        text,
    })
}

/// Run the untraced workload: one fresh pipeline process per regeneration,
/// as `repro_tables table4` runs, until `seconds` have passed; report the
/// medians of set-up time, regeneration time (`table4_s`, table only), the
/// process's CPU time (`cpu_ms_per_req`, one regeneration per process; it
/// leaves out time the hypervisor stole), and the mean of the processes'
/// peak RSS (`rss_mb`).
pub fn run(run: &Run) -> Outcome {
    let mut out = Outcome::new(run);
    let (mut setup, mut times, mut rss, mut cpu) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let clock = Instant::now();
    while times.len() < MIN_REGENERATIONS || clock.elapsed().as_secs_f64() < run.seconds {
        out.attempted += 1;
        match regenerate_in_child(run.threads) {
            Ok(r) => {
                if r.text != REFERENCE {
                    out.failed += 1;
                    out.check_failed(format!(
                        "regeneration {} rendered a Table 4 that differs from the reference",
                        out.attempted
                    ));
                }
                setup.push(r.setup_s);
                times.push(r.table4_s);
                rss.push(r.peak_rss as f64 / (1 << 20) as f64);
                cpu.push(r.cpu_ns as f64 / 1e9);
            }
            Err(e) => {
                out.failed += 1;
                out.check_failed(e);
                break;
            }
        }
    }
    if times.is_empty() {
        return out;
    }
    eprintln!(
        "table4: {} pipeline processes, {:.3}..{:.3} s",
        times.len(),
        times.iter().cloned().fold(f64::INFINITY, f64::min),
        times.iter().cloned().fold(0.0, f64::max)
    );
    out.metric("setup_s", stats::median(&setup).expect("ran"), "s");
    out.metric("table4_s", stats::median(&times).expect("ran"), "s");
    out.metric(
        "cpu_ms_per_req",
        1e3 * stats::median(&cpu).expect("ran"),
        "ms",
    );
    // Mean, not median: a process's peak falls in one of two modes about
    // 0.8 MiB apart, as the two workers' allocations happen to overlap, and
    // the median flips between them from run to run.
    out.metric("rss_mb", rss.iter().sum::<f64>() / rss.len() as f64, "MiB");
    out
}

/// A traced regeneration's per-layer figures.
struct Layers {
    wall_s: f64,
    values: BTreeMap<&'static str, f64>,
    coverage: f64,
}

/// Regenerate with tracing on, timing each layer call from here: the suite
/// is built step by step exactly as `BenchData::build` does, so each
/// program's generation, compilation, analysis and profiling get their own
/// span; the rest comes from the program's existing spans and counters.
fn traced_regeneration(threads: usize, out: &mut Outcome) -> Layers {
    let cfg = CompilerConfig::default();
    let metrics = esp_obs::global_metrics();
    let counter = |name: &str| metrics.counter(name).get();
    let before = [
        counter("esp_train_epochs_total"),
        counter("esp_train_examples_raw_total"),
        counter("esp_train_examples_coalesced_total"),
        counter("esp_eval_folds_total"),
    ];
    esp_obs::trace::drain();
    let dropped = esp_obs::trace::dropped();
    esp_obs::trace::enable();
    let t0_us = esp_obs::trace::now_us();
    let t0 = Instant::now();

    let corpus = esp_corpus::suite();
    let benches = esp_runtime::parallel_map(threads, &corpus, |b| {
        let source = {
            let _s = esp_obs::span!("bench", "corpus.gen");
            b.source()
        };
        let prog = {
            let _s = esp_obs::span!("bench", "lang.compile");
            esp_lang::compile_source(b.name, &source, b.lang, &cfg)
                .unwrap_or_else(|e| panic!("benchmark `{}` failed to compile: {e}", b.name))
        };
        let analysis = {
            let _s = esp_obs::span!("bench", "ir.analyze");
            ProgramAnalysis::analyze(&prog)
        };
        let profile = {
            let _s = esp_obs::span!("bench", "exec.profile");
            esp_corpus::profile(&prog)
                .unwrap_or_else(|e| panic!("benchmark `{}` failed to run: {e}", b.name))
        };
        BenchData {
            bench: b.clone(),
            prog,
            analysis,
            profile,
        }
    });
    let suite = SuiteData {
        benches,
        config: cfg,
    };
    let rows = esp_eval::table4::compute(&suite, &config(threads));
    let text = {
        let _s = esp_obs::span!("bench", "eval.render");
        esp_eval::table4::render_rows(&suite, &rows)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    esp_obs::trace::disable();
    let events = esp_obs::trace::drain();
    if esp_obs::trace::dropped() != dropped {
        out.check_failed("the trace rings overflowed; span totals are incomplete".into());
    }
    if text != REFERENCE {
        out.check_failed("the traced regeneration differs from the reference Table 4".into());
    }

    let after = [
        counter("esp_train_epochs_total"),
        counter("esp_train_examples_raw_total"),
        counter("esp_train_examples_coalesced_total"),
        counter("esp_eval_folds_total"),
    ];
    let delta = |k: usize| (after[k] - before[k]) as f64;
    let dyn_insns: u64 = suite.benches.iter().map(|b| b.profile.dyn_insns).sum();

    let secs = |cat: &str, name: &str| -> f64 {
        events
            .iter()
            .filter(|e| e.cat == cat && e.name == name)
            .map(|e| e.dur_us as f64 / 1e6)
            .sum()
    };
    let fold_ms: Vec<f64> = events
        .iter()
        .filter(|e| e.cat == "eval" && e.name == "table4_fold")
        .map(|e| e.dur_us as f64 / 1e3)
        .collect();
    if fold_ms.len() != 43 || delta(3) != 43.0 {
        out.check_failed(format!(
            "expected 43 fold spans and 43 counted folds, saw {} and {}",
            fold_ms.len(),
            delta(3)
        ));
    }
    let (worker_s, busy_s) = events
        .iter()
        .filter(|e| e.cat == "runtime" && e.name == "worker")
        .fold((0.0, 0.0), |(w, b), e| {
            (
                w + e.dur_us as f64 / 1e6,
                b + arg_u64(e, "busy_us") as f64 / 1e6,
            )
        });

    // Layer spans tile the traced wall clock; what they leave uncovered is
    // reported, not hidden.
    let layer = |e: &TraceEvent| e.cat == "bench" || (e.cat == "eval" && e.name == "table4_fold");
    let covered_s = union_us(
        events
            .iter()
            .filter(|e| layer(e))
            .map(|e| (e.ts_us, e.ts_us + e.dur_us)),
        t0_us,
        t0_us + (wall_s * 1e6) as u64,
    ) as f64
        / 1e6;

    let profile_s = secs("bench", "exec.profile");
    let mut values = BTreeMap::new();
    values.insert("corpus.gen_s", secs("bench", "corpus.gen"));
    values.insert("lang.compile_s", secs("bench", "lang.compile"));
    values.insert("ir.analyze_s", secs("bench", "ir.analyze"));
    values.insert("exec.profile_s", profile_s);
    values.insert("exec.dyn_insns", dyn_insns as f64);
    values.insert("exec.insns_per_s", dyn_insns as f64 / profile_s);
    values.insert("esp.encode_s", secs("esp", "encode"));
    values.insert("esp.examples_raw", delta(1));
    values.insert("esp.examples_coalesced", delta(2));
    values.insert("nnet.train_s", secs("train", "train"));
    values.insert("nnet.epochs", delta(0));
    values.insert(
        "eval.fold_ms.p50",
        stats::median(&fold_ms).unwrap_or(f64::NAN),
    );
    values.insert(
        "eval.fold_ms.max",
        fold_ms.iter().cloned().fold(0.0, f64::max),
    );
    values.insert("runtime.busy_frac", busy_s / worker_s);
    values.insert("runtime.wait_ms", (worker_s - busy_s) * 1e3);
    values.insert("eval.unaccounted_s", wall_s - covered_s);
    Layers {
        wall_s,
        values,
        coverage: covered_s / wall_s,
    }
}

fn arg_u64(e: &TraceEvent, key: &str) -> u64 {
    e.args
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            ArgValue::U64(n) => Some(*n),
            ArgValue::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        })
        .unwrap_or(0)
}

/// Total length of the union of half-open intervals, clipped to
/// `[lo, hi)`.
pub fn union_us(intervals: impl Iterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The pipeline layers as a probe for a serve workload's traced run: one
/// untraced and one traced regeneration.
pub fn probe(run: &Run) -> Outcome {
    run_traced(&Run {
        seconds: 0.0,
        ..run.clone()
    })
}

/// Run the traced workload: alternate untraced and traced regenerations,
/// at least one pair, until `seconds` have passed; report the per-layer
/// medians, the tracing overhead and the span coverage.
pub fn run_traced(run: &Run) -> Outcome {
    let mut out = Outcome::new(run);
    let mut plain = Vec::new();
    let mut traced: Vec<Layers> = Vec::new();
    let clock = Instant::now();
    while traced.is_empty() || clock.elapsed().as_secs_f64() < run.seconds {
        let t = Instant::now();
        let text = regenerate(run.threads);
        plain.push(t.elapsed().as_secs_f64());
        out.attempted += 2;
        if text != REFERENCE {
            out.failed += 1;
            out.check_failed("an untraced regeneration differs from the reference".into());
        }
        let layers = traced_regeneration(run.threads, &mut out);
        if layers.coverage < MIN_COVERAGE {
            out.check_failed(format!(
                "layer spans cover {:.1}% of the traced wall time, below {:.0}%",
                100.0 * layers.coverage,
                100.0 * MIN_COVERAGE
            ));
        }
        traced.push(layers);
    }
    let walls: Vec<f64> = traced.iter().map(|l| l.wall_s).collect();
    let wall = stats::median(&walls).expect("traced once");
    eprintln!(
        "table4 traced: {} pairs, coverage {:.1}%..{:.1}%",
        traced.len(),
        100.0
            * traced
                .iter()
                .map(|l| l.coverage)
                .fold(f64::INFINITY, f64::min),
        100.0 * traced.iter().map(|l| l.coverage).fold(0.0, f64::max)
    );
    for name in traced[0].values.keys() {
        let v: Vec<f64> = traced.iter().map(|l| l.values[name]).collect();
        out.metric(
            name,
            stats::median(&v).expect("traced once"),
            crate::report::unit_of(name),
        );
    }
    out.metric(
        "trace.overhead_s",
        wall - stats::median(&plain).expect("ran once"),
        "s",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let iv = [(0u64, 10u64), (5, 15), (20, 30), (29, 31), (40, 40)];
        assert_eq!(union_us(iv.into_iter(), 0, 100), 15 + 11);
        assert_eq!(union_us(iv.into_iter(), 8, 25), 7 + 5);
        assert_eq!(union_us(std::iter::empty(), 0, 10), 0);
    }

    #[test]
    fn the_reference_is_the_rendered_table() {
        assert!(REFERENCE.starts_with("Table 4: branch misprediction rates"));
        assert!(REFERENCE.contains("Overall Avg"));
    }
}
