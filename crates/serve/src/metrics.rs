//! Server metrics, backed by an [`esp_obs::MetricsRegistry`].
//!
//! Every series lives in a **per-server** registry (concurrent servers in
//! one process must not share counters), registered once at startup and
//! recorded through cached `Arc` handles, so the hot predict path never
//! takes the registry lock. The `STATS` opcode serves both the nine summary
//! counters and the registry's full Prometheus text exposition.
//!
//! Two latency series with different scopes:
//!
//! * `esp_serve_request_us` — per-request **end-to-end** service time as a
//!   client sees it: frame decode, cache lookups, compute, response encode
//!   and write, for every opcode. This is what the snapshot's p50/p99/max
//!   report.
//! * `esp_serve_predict_compute_us` — the narrower series: one sample per
//!   PREDICT, the reactor's whole pass over its rows (cache lookups, the
//!   kernel over the misses, cache inserts and ledger records), kept for
//!   comparing compute cost against the full service time.

use std::sync::Arc;

use esp_obs::{Counter, Gauge, Log2Histogram, MetricsRegistry};

use crate::protocol::StatsSnapshot;

/// Shared server metrics; recording goes through lock-free atomic handles.
#[derive(Debug)]
pub struct Metrics {
    registry: MetricsRegistry,
    /// Connections accepted.
    pub connections: Arc<Counter>,
    /// Frames handled (all opcodes).
    pub requests: Arc<Counter>,
    /// PREDICT batches handled.
    pub predict_requests: Arc<Counter>,
    /// Rows predicted.
    pub predictions: Arc<Counter>,
    /// Rows served from cache.
    pub cache_hits: Arc<Counter>,
    /// Rows computed by the network.
    pub cache_misses: Arc<Counter>,
    /// Hot reloads completed (model versions swapped in live).
    pub reloads: Arc<Counter>,
    /// Entries in the reactor's LRU cache.
    pub cache_entries: Arc<Gauge>,
    request_us: Arc<Log2Histogram>,
    predict_compute_us: Arc<Log2Histogram>,
    batch_size: Arc<Log2Histogram>,
    cache_hit_ratio: Arc<Gauge>,
    predict_precision: Arc<Gauge>,
    model_version: Arc<Gauge>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let connections = registry.counter("esp_serve_connections_total");
        let requests = registry.counter("esp_serve_requests_total");
        let predict_requests = registry.counter("esp_serve_predict_requests_total");
        let predictions = registry.counter("esp_serve_predictions_total");
        let cache_hits = registry.counter("esp_serve_cache_hits_total");
        let cache_misses = registry.counter("esp_serve_cache_misses_total");
        let reloads = registry.counter("esp_serve_reloads_total");
        let request_us = registry.histogram("esp_serve_request_us");
        let predict_compute_us = registry.histogram("esp_serve_predict_compute_us");
        let batch_size = registry.histogram("esp_serve_batch_size");
        let cache_hit_ratio = registry.gauge("esp_serve_cache_hit_ratio");
        let cache_entries = registry.gauge("esp_serve_cache_entries");
        let predict_precision = registry.gauge("esp_serve_predict_precision");
        let model_version = registry.gauge("esp_serve_model_version");
        Metrics {
            registry,
            connections,
            requests,
            predict_requests,
            predictions,
            cache_hits,
            cache_misses,
            reloads,
            cache_entries,
            request_us,
            predict_compute_us,
            batch_size,
            cache_hit_ratio,
            predict_precision,
            model_version,
        }
    }

    /// Record one request's end-to-end service time (any opcode), in
    /// microseconds: from the frame completing to the response written.
    pub fn record_request_us(&self, us: u64) {
        self.request_us.record(us);
    }

    /// Record one PREDICT's compute-scoped latency in microseconds: the
    /// reactor's whole pass over its rows — cache lookups, the kernel over
    /// the misses, cache inserts and ledger records.
    pub fn record_predict_compute_us(&self, us: u64) {
        self.predict_compute_us.record(us);
    }

    /// Record one predict batch's row count.
    pub fn record_batch_size(&self, rows: u64) {
        self.batch_size.record(rows);
    }

    /// Record the serving model's numeric precision (64 or 32 bits) on the
    /// `esp_serve_predict_precision` gauge; set once at server start.
    pub fn set_precision(&self, bits: u32) {
        self.predict_precision.set(bits as f64);
    }

    /// Record the default model's registry version on the
    /// `esp_serve_model_version` gauge; set at start and on hot reload.
    pub fn set_model_version(&self, version: u32) {
        self.model_version.set(version as f64);
    }

    /// Refresh the cache-hit-ratio gauge from the hit/miss counters.
    fn update_cache_hit_ratio(&self) {
        let hits = self.cache_hits.get();
        let total = hits + self.cache_misses.get();
        if total > 0 {
            self.cache_hit_ratio.set(hits as f64 / total as f64);
        }
    }

    /// The full Prometheus text exposition of this server's registry. The
    /// cache-hit-ratio gauge is refreshed first, so every exposition path
    /// (`STATS`, HTTP `/metrics`, `--metrics-out`) renders current values.
    pub fn render_text(&self) -> String {
        self.update_cache_hit_ratio();
        self.registry.render_text()
    }

    /// A consistent-enough snapshot of every counter (individual loads are
    /// atomic; the set is not, which is fine for monitoring). Latency
    /// quantiles summarize the end-to-end `esp_serve_request_us` series.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.snapshot_with(self.render_text())
    }

    /// [`Metrics::snapshot`] with a caller-supplied exposition string. The
    /// server passes its *unified* exposition (registry + accuracy ledger)
    /// here so the STATS opcode and the HTTP `/metrics` endpoint render
    /// byte-identical text from the same snapshot path.
    pub fn snapshot_with(&self, exposition: String) -> StatsSnapshot {
        StatsSnapshot {
            connections: self.connections.get(),
            requests: self.requests.get(),
            predict_requests: self.predict_requests.get(),
            predictions: self.predictions.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            p50_us: self.request_us.quantile(0.50),
            p99_us: self.request_us.quantile(0.99),
            max_us: self.request_us.max(),
            exposition,
        }
    }
}

/// Pull a single unlabeled sample out of a Prometheus text exposition:
/// the value on the `NAME VALUE` line for exactly `family` (a longer
/// family name sharing the prefix does not match).
pub fn gauge_value(exposition: &str, family: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        line.strip_prefix(family)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|v| v.trim().parse().ok())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_snapshot_is_zero() {
        let m = Metrics::new();
        let s = m.snapshot();
        assert_eq!(s.connections, 0);
        assert_eq!(s.requests, 0);
        assert_eq!(s.predictions, 0);
        assert_eq!((s.p50_us, s.p99_us, s.max_us), (0, 0, 0));
        // the exposition is present even when everything is zero
        assert!(s.exposition.contains("esp_serve_requests_total 0"));
    }

    #[test]
    fn latency_quantiles_bracket_the_data() {
        let m = Metrics::new();
        for us in [10u64, 12, 14, 900, 1000] {
            m.record_request_us(us);
        }
        let s = m.snapshot();
        // p50 falls in the bucket holding 10–14 µs → upper bound 15
        assert_eq!(s.p50_us, 15);
        // p99 falls in the bucket holding 900/1000 µs → upper bound 1023
        assert_eq!(s.p99_us, 1023);
        assert_eq!(s.max_us, 1000);
    }

    #[test]
    fn zero_latency_lands_in_bucket_zero() {
        let m = Metrics::new();
        m.record_request_us(0);
        assert_eq!(m.snapshot().p50_us, 0);
    }

    #[test]
    fn compute_series_is_separate_from_request_series() {
        let m = Metrics::new();
        m.record_request_us(1000);
        m.record_predict_compute_us(10);
        let text = m.render_text();
        assert!(text.contains("esp_serve_request_us_count 1"));
        assert!(text.contains("esp_serve_predict_compute_us_count 1"));
        assert!(text.contains("esp_serve_predict_compute_us_sum 10"));
        assert!(text.contains("esp_serve_request_us_sum 1000"));
    }

    #[test]
    fn precision_gauge_is_exposed() {
        let m = Metrics::new();
        m.set_precision(32);
        assert!(m.render_text().contains("esp_serve_predict_precision 32"));
        m.set_precision(64);
        assert!(m.render_text().contains("esp_serve_predict_precision 64"));
    }

    #[test]
    fn cache_hit_ratio_tracks_counters() {
        let m = Metrics::new();
        m.cache_hits.add(3);
        m.cache_misses.add(1);
        m.record_batch_size(4);
        let s = m.snapshot();
        assert!(s.exposition.contains("esp_serve_cache_hit_ratio 0.75"));
        assert!(s.exposition.contains("esp_serve_batch_size_count 1"));
    }

    #[test]
    fn gauge_value_matches_exact_family_names() {
        let text = "# TYPE esp_ledger_observed_weight gauge\n\
                    esp_ledger_observed_weight 12.5\n\
                    esp_ledger_observed_miss_rate 0.125\n\
                    esp_ledger_calibration_ece NaN\n";
        assert_eq!(gauge_value(text, "esp_ledger_observed_weight"), Some(12.5));
        assert_eq!(
            gauge_value(text, "esp_ledger_observed_miss_rate"),
            Some(0.125)
        );
        // A prefix of a longer family must not match the longer line.
        assert_eq!(gauge_value(text, "esp_ledger_observed"), None);
        assert_eq!(gauge_value(text, "esp_ledger_missing"), None);
        // Prometheus renders NaN literally; it parses as NaN here.
        assert!(gauge_value(text, "esp_ledger_calibration_ece").is_some_and(f64::is_nan));
    }
}
