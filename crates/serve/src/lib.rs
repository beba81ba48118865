//! `esp-serve` — a std-only prediction-serving subsystem for trained ESP
//! models.
//!
//! The crate turns saved [`esp_artifact`] models into a network service: a
//! single-reactor event-loop TCP server speaking a length-prefixed binary
//! protocol, answering batched predict requests with the *exact* bits the
//! in-process model would produce. Around that core sit:
//!
//! - [`protocol`] — the wire format: u32-length-prefixed frames carrying
//!   `PREDICT` / `STATS` / `INFO` / `SHUTDOWN` / `PROFILE` requests and
//!   their typed responses; since v4 PREDICT and INFO carry a model
//!   selector for multi-model routing.
//! - [`server`] — the nonblocking reactor (resumable per-connection
//!   read→decode→dispatch→write state machines), graceful drain on
//!   shutdown, and the hot-reload watcher.
//! - `shard` (internal) — N shard workers owning per-shard LRU caches;
//!   rows route by a stable FNV-1a hash of their cache-key bytes, so a
//!   feature vector always lands on the shard that may hold it.
//! - `models` (internal) — the name/version routing table behind the v4
//!   model selector; hot reload atomically swaps entries here.
//! - [`cache`] — an O(1) exact-match LRU keyed on the raw feature bits, so
//!   repeated branch shapes skip the network forward pass.
//! - [`metrics`] — an [`esp_obs::MetricsRegistry`]-backed set of counters,
//!   latency/batch-size histograms, cache-hit-ratio and per-shard health
//!   gauges behind the `STATS` opcode, which also serves the full
//!   Prometheus-style text exposition.
//! - [`client`] — the blocking client library used by the `esp-client`
//!   binary and the integration tests.
//! - [`http`] — a std-only HTTP/1.1 telemetry sidecar (`--http-addr`)
//!   serving `GET /metrics`, `/healthz` and `/sitez?top=K`, sharing the
//!   exact exposition bytes the `STATS` opcode carries.
//!
//! Since protocol v3 the server also closes the accuracy loop: clients
//! stream observed branch outcomes back via the `PROFILE` opcode, and an
//! `esp_obs::Ledger` joins them with served predictions into live
//! miss-rate-vs-observed and calibration telemetry, keyed by [`site_key`]
//! (the cache's raw-bits row+mask key).
//!
//! Bitwise identity is the design invariant: clients send *raw* encoded
//! rows plus masks (what `esp_core::encode` produces), and the server
//! applies the same normalize-and-forward path as
//! `EspModel::predict_prob`, so a served probability equals the in-process
//! one bit for bit — at any shard count, batch size, or connection count.
//! The integration tests assert exactly that.
//!
//! Performance is measured from outside the process by the repository
//! benchmark (`bash perfbench/run.sh --workload serve-hot|serve-feedback`),
//! which drives the `esp-serve` binary with its own open-loop generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
mod models;
pub mod protocol;
pub mod server;
mod shard;

pub use cache::cache_key as site_key;
pub use client::Client;
pub use metrics::Metrics;
pub use protocol::{
    FrameReader, PredictRow, Prediction, ProfileAck, ProfileRecord, Request, Response,
    ServeError, ServerInfo, StatsSnapshot, PROTOCOL_VERSION,
};
pub use server::{serve, ModelSource, Precision, ServeConfig, ServerHandle};
