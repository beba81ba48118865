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
//!   read→decode→dispatch→write state machines, blocked in `poll(2)` on
//!   every iteration and acting only on the descriptors it reported
//!   ready), graceful drain on shutdown, and the hot-reload watcher.
//! - `predict` (internal) — the reactor's PREDICT path: its one LRU cache
//!   and the batched kernel over the rows that miss it. The reactor parses
//!   each frame once, in place ([`protocol::RequestView`]): a row is its
//!   slice of the frame, mask bytes rewritten to 0/1, which is its cache
//!   key and ledger key as it stands. Each row is hashed once
//!   ([`esp_obs::word_hash`] of that slice); the hash keys the cache and
//!   indexes the ledger, and only cache misses are widened to f64 rows
//!   for the kernel. Every PREDICT is answered in the reactor iteration
//!   that parsed it.
//! - `models` (internal) — the name/version routing table behind the v4
//!   model selector; hot reload atomically swaps entries here.
//! - [`cache`] — an O(1) exact-match LRU keyed on the raw feature bits, so
//!   repeated branch shapes skip the network forward pass.
//! - [`metrics`] — an [`esp_obs::MetricsRegistry`]-backed set of counters,
//!   latency/batch-size histograms and cache gauges behind the `STATS`
//!   opcode, which also serves the full Prometheus-style text exposition.
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
//! one bit for bit — at any batch size or connection count.
//! The integration tests assert exactly that.
//!
//! Performance is measured from outside the process by the repository
//! benchmark (`bash perfbench/run.sh --workload serve-hot|serve-feedback`),
//! which drives the `esp-serve` binary with its own open-loop generator.

// The one `unsafe` call, `poll(2)`, lives in `mod poll`, which alone opts
// out of this lint.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
mod models;
mod poll;
mod predict;
pub mod protocol;
pub mod server;

pub use cache::cache_key as site_key;
pub use client::Client;
pub use metrics::Metrics;
pub use protocol::{
    FrameReader, PredictRow, Prediction, ProfileAck, ProfileRecord, Request, Response, ServeError,
    ServerInfo, StatsSnapshot, PROTOCOL_VERSION,
};
pub use server::{serve, ModelSource, ServeConfig, ServerHandle};
