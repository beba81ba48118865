//! Run settings, the metric catalogue, and the result line.

use std::fmt::Write as _;

/// One invocation's settings and provenance.
#[derive(Debug, Clone)]
pub struct Run {
    /// `table4`, `serve-hot` or `serve-feedback`.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Per-layer run instead of end-to-end.
    pub trace: bool,
    /// Cores the process may use.
    pub nproc: usize,
    /// esp-runtime pool threads and server shards (both `nproc`).
    pub threads: usize,
    /// The `esp-serve` binary the serve workloads spawn.
    pub serve_bin: String,
    /// `rustc --version` of the build.
    pub rustc: String,
    /// Git revision of the source, `none` outside a repository.
    pub git_rev: String,
}

/// End-to-end metrics: name and unit. Every workload's untraced result
/// line carries every one of them, each measured on that workload:
///
/// - `setup_s`: from spawning the process that does the work to its first
///   timed call (median of the run's set-ups);
/// - `cpu_ms_per_req`: CPU time (user + system, every thread) of the
///   process doing the work per completed operation: a pipeline process
///   per regeneration, or the server per request over one-second windows
///   of the `light` phase (median of the windows);
/// - `rss_mb`: resident memory of that process: the pipeline processes'
///   peak (`VmHWM`, mean over the run), or the server's `VmRSS` sampled
///   through `light` and `busy` (median of the samples).
///
/// CPU time leaves out what the hypervisor stole; wall time does not.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cpu_ms_per_req", "ms"),
    ("rss_mb", "MiB"),
];

/// Figures printed in the table only. On a two-core host whose CPU steal
/// came and went over minutes, wall-clock latency, the rate ladder and the
/// server's peak RSS (transient frame buffers on `serve-hot`) moved between
/// runs of the same code by more than any bound a regression gate could
/// use: the quartile spread of ten runs reached 0.38 of the median for
/// `p50_ms.light` on `serve-feedback` while its CPU per request held 0.02.
pub const TABLE_ONLY: &[(&str, &str)] = &[
    ("table4_s", "s"),
    ("p50_ms.light", "ms"),
    ("p99_ms.light", "ms"),
    ("p50_ms.busy", "ms"),
    ("p99_ms.busy", "ms"),
    ("slo_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: name, unit, and the end-to-end metric (on which
/// workload) it should move; "(table)" marks a table-only figure. Every
/// traced run carries all of them: the layers its workload drives are
/// measured on its own load, the others by a probe (see `main.rs`).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("corpus.gen_s", "s", "cpu_ms_per_req on table4 (small)"),
    ("lang.compile_s", "s", "cpu_ms_per_req on table4 (small)"),
    ("ir.analyze_s", "s", "cpu_ms_per_req on table4 (small)"),
    (
        "exec.profile_s",
        "s",
        "cpu_ms_per_req, table4_s (table) on table4 (~56%); nothing on serve-*",
    ),
    ("exec.dyn_insns", "count", "nothing: a fixed amount of work"),
    (
        "exec.insns_per_s",
        "1/s",
        "cpu_ms_per_req, table4_s (table) on table4",
    ),
    ("esp.encode_s", "s", "cpu_ms_per_req on table4"),
    ("esp.examples_raw", "count", "cpu_ms_per_req on table4"),
    (
        "esp.examples_coalesced",
        "count",
        "cpu_ms_per_req on table4",
    ),
    ("nnet.train_s", "s", "cpu_ms_per_req on table4"),
    ("nnet.epochs", "count", "cpu_ms_per_req on table4"),
    ("eval.fold_ms.p50", "ms", "cpu_ms_per_req on table4"),
    (
        "eval.fold_ms.max",
        "ms",
        "table4_s (table) on table4: the slowest fold sets the end",
    ),
    ("runtime.busy_frac", "ratio", "table4_s (table) on table4"),
    ("runtime.wait_ms", "ms", "table4_s (table) on table4"),
    ("eval.unaccounted_s", "s", "cpu_ms_per_req on table4"),
    (
        "trace.overhead_s",
        "s",
        "nothing: traced minus untraced regeneration time",
    ),
    ("protocol.decode_us", "us", "cpu_ms_per_req on serve-*"),
    ("protocol.encode_us", "us", "cpu_ms_per_req on serve-*"),
    (
        "reactor.cpu_s",
        "s",
        "cpu_ms_per_req on serve-hot; p50_ms.light, p99_ms.busy (table) on serve-*",
    ),
    (
        "serve.request_us.p50",
        "us",
        "p50_ms.light on serve-hot, p99_ms.busy on serve-* (table)",
    ),
    (
        "serve.request_us.p99",
        "us",
        "p99_ms.busy (table) on serve-*",
    ),
    (
        "reactor.wait_ms.p50",
        "ms",
        "p50_ms.light on serve-hot, p99_ms.busy on serve-* (table)",
    ),
    (
        "shard.cpu_s",
        "s",
        "cpu_ms_per_req; p99_ms.busy, slo_rps (table) on serve-*",
    ),
    (
        "shard.queue_depth.max",
        "count",
        "p99_ms.busy, slo_rps (table) on serve-*",
    ),
    (
        "shard.compute_us.p99",
        "us",
        "p99_ms.busy, slo_rps (table) on serve-*",
    ),
    (
        "cache.hit_ratio",
        "ratio",
        "cpu_ms_per_req on serve-hot; evictions on serve-feedback",
    ),
    ("cache.get_ns", "ns", "cpu_ms_per_req on serve-hot"),
    ("cache.insert_ns", "ns", "cpu_ms_per_req on serve-feedback"),
    (
        "kernel.rows",
        "count",
        "cpu_ms_per_req on serve-feedback; nothing on serve-hot",
    ),
    (
        "kernel.rows_per_s",
        "1/s",
        "cpu_ms_per_req, slo_rps (table) on serve-feedback; nothing on serve-hot",
    ),
    (
        "ledger.sites",
        "count",
        "rss_mb on serve-feedback; small on serve-hot",
    ),
    (
        "ledger.applied_frac",
        "ratio",
        "nothing: every record sent must apply (1 when none is sent)",
    ),
    (
        "ledger.record_served_ns",
        "ns",
        "cpu_ms_per_req on serve-feedback; small on serve-hot",
    ),
    (
        "ledger.record_outcome_ns",
        "ns",
        "cpu_ms_per_req on serve-feedback",
    ),
    (
        "http.scrape_ms",
        "ms",
        "p99_ms.light (table) on serve-feedback",
    ),
    (
        "gen.late_ms.p99",
        "ms",
        "nothing: shows the load kept its schedule",
    ),
    (
        "gen.sent",
        "count",
        "nothing: shows the load kept its schedule",
    ),
    ("gen.failed", "count", "nothing: must stay 0"),
];

/// The unit a metric is reported in.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(TABLE_ONLY)
        .copied()
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The metrics a result line carries, in order: the end-to-end ones, or
/// the per-layer ones in a traced run.
pub fn carried(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    }
}

/// What a run measured, or why its outputs were wrong.
#[derive(Debug, Default)]
pub struct Outcome {
    /// A per-layer run: the result line carries the per-layer metrics.
    pub trace: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value)` of the result line, as recorded.
    pub metrics: Vec<(String, f64)>,
    /// `(name, value)` printed in the table only.
    pub figures: Vec<(String, f64)>,
    /// Failed output checks; any one makes the run incorrect.
    pub errors: Vec<String>,
}

impl Outcome {
    /// An empty outcome of `run`.
    pub fn new(run: &Run) -> Self {
        Outcome {
            trace: run.trace,
            ..Outcome::default()
        }
    }

    /// Record a metric; its unit must match the catalogue. A metric the
    /// result line does not carry in this mode goes to the table only.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        debug_assert_eq!(unit, unit_of(name), "unit of {name}");
        let list = if carried(self.trace).contains(&name) {
            &mut self.metrics
        } else {
            &mut self.figures
        };
        list.push((name.to_string(), value));
    }

    /// Take in a probe's outcome: its attempts, failures and failed checks,
    /// and each metric this outcome has not recorded itself.
    pub fn absorb(&mut self, probe: Outcome) {
        self.attempted += probe.attempted;
        self.failed += probe.failed;
        self.errors.extend(probe.errors);
        for (name, v) in probe.metrics.into_iter().chain(probe.figures) {
            let known = |l: &[(String, f64)]| l.iter().any(|(n, _)| *n == name);
            if !known(&self.metrics) && !known(&self.figures) {
                self.metric(&name, v, unit_of(&name));
            }
        }
    }

    /// Metrics the result line carries that the run did not record.
    pub fn missing(&self) -> Vec<&'static str> {
        carried(self.trace)
            .into_iter()
            .filter(|n| !self.metrics.iter().any(|(m, _)| m == n))
            .collect()
    }

    /// Record a failed output check.
    pub fn check_failed(&mut self, why: String) {
        eprintln!("CHECK FAILED: {why}");
        self.errors.push(why);
    }

    /// Whether every output check held and every carried metric was
    /// recorded with a finite value.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
            && self.missing().is_empty()
            && self.metrics.iter().all(|(_, v)| v.is_finite())
    }

    /// The human-readable table printed above the result line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let rows = self
            .metrics
            .iter()
            .map(|m| (m, ""))
            .chain(self.figures.iter().map(|m| (m, "  (table only)")));
        for ((name, v), note) in rows {
            let _ = write!(s, "{name:<26} {v:>16.6} {:<6}{note}", unit_of(name));
            if let Some((_, _, moves)) = PER_LAYER.iter().find(|(n, _, _)| n == name) {
                let _ = write!(s, " should move: {moves}");
            }
            s.push('\n');
        }
        for name in self.missing() {
            let _ = writeln!(s, "{name:<26} {:>16} (not measured)", "-");
        }
        let _ = writeln!(
            s,
            "{:<26} {:>16.6} ratio  ({} failed of {} attempted)",
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`, the
    /// carried metrics in catalogue order. A run whose checks failed or
    /// that missed a metric reports the failure and no numbers.
    pub fn json(&self) -> String {
        let correct = self.correct();
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        if correct {
            for (i, name) in carried(self.trace).into_iter().enumerate() {
                let v = self
                    .metrics
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |m| m.1);
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    s,
                    "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    unit_of(name)
                );
            }
        }
        s.push_str("}}");
        s
    }
}

/// JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn untraced() -> Outcome {
        Outcome {
            attempted: 10,
            ..Outcome::default()
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = untraced();
        o.metric("cpu_ms_per_req", 0.5, "ms");
        o.metric("setup_s", 0.25, "s");
        o.metric("p99_ms.busy", 1.5, "ms");
        o.metric("rss_mb", 5.5, "MiB");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"cpu_ms_per_req\": {\"value\": 0.5, \"unit\": \"ms\"}, \"rss_mb\": {\"value\": 5.5, \"unit\": \"MiB\"}}}"
        );
        // A table-only figure is printed in the table, not on the line.
        assert!(o.table().contains("p99_ms.busy"));
    }

    #[test]
    fn a_run_missing_a_carried_metric_is_not_correct() {
        let mut o = untraced();
        o.metric("setup_s", 0.25, "s");
        o.metric("cpu_ms_per_req", 0.5, "ms");
        assert_eq!(o.missing(), ["rss_mb"]);
        assert!(!o.correct());
        assert!(o.json().ends_with("\"metrics\": {}}"));
        assert!(o.table().contains("not measured"));
    }

    #[test]
    fn a_traced_run_carries_the_per_layer_metrics_and_absorbs_a_probe() {
        let mut o = Outcome {
            trace: true,
            attempted: 4,
            ..Outcome::default()
        };
        o.metric("http.scrape_ms", 2.0, "ms");
        o.metric("setup_s", 1.0, "s");
        assert_eq!(o.metrics.len(), 1);
        let mut probe = Outcome {
            trace: true,
            attempted: 2,
            failed: 1,
            ..Outcome::default()
        };
        probe.metric("http.scrape_ms", 9.0, "ms");
        probe.metric("exec.dyn_insns", 7.0, "count");
        probe.check_failed("probe check".into());
        o.absorb(probe);
        assert_eq!(
            o.metrics,
            [
                ("http.scrape_ms".to_string(), 2.0),
                ("exec.dyn_insns".to_string(), 7.0)
            ]
        );
        assert_eq!((o.attempted, o.failed, o.errors.len()), (6, 1, 1));
        assert_eq!(o.missing().len(), PER_LAYER.len() - 2);
    }

    #[test]
    fn a_failed_check_reports_no_numbers() {
        let mut o = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        for (name, unit) in END_TO_END {
            o.metric(name, 1.0, unit);
        }
        assert!(o.correct());
        o.check_failed("differs".into());
        assert_eq!(
            o.json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}"
        );
        let mut inf = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for (name, unit) in END_TO_END {
            inf.metric(name, f64::INFINITY, unit);
        }
        assert!(!inf.correct());
    }

    #[test]
    fn every_metric_has_a_unit_and_names_are_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(TABLE_ONLY)
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        assert!(all.iter().all(|n| !unit_of(n).is_empty()));
    }

    #[test]
    fn the_catalogue_matches_the_benchmark_definition() {
        let def = include_str!("../../BENCHMARK.json");
        let named = |n: &str, u: &str| {
            def.contains(&format!("\"name\": \"{n}\",\n      \"unit\": \"{u}\""))
        };
        for (n, u) in END_TO_END {
            assert!(named(n, u), "end-to-end metric {n}");
        }
        for (n, _) in TABLE_ONLY {
            assert!(!def.contains(&format!("\"{n}\"")), "table-only figure {n}");
        }
        for (n, u, _) in PER_LAYER {
            assert!(named(n, u), "per-layer metric {n}");
        }
        assert_eq!(
            def.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in ["table4", "serve-hot", "serve-feedback"] {
            assert!(def.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
    }

    #[test]
    fn quoting_escapes_json() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
