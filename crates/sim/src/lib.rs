//! Dynamic-branch-predictor arena, driven by the interpreter's outcome
//! stream.
//!
//! The paper's headline numbers compare *static* schemes (heuristics, ESP)
//! against each other; the natural follow-up question is how far any static
//! scheme sits from cheap *dynamic* hardware prediction, and whether the
//! corpus-learned prior still helps once hardware is in play. This crate
//! answers both with a deterministic simulation: an [`Arena`] is an
//! [`esp_exec::BranchSink`], so `esp_exec::run_with_sink` hands it every
//! dynamic conditional-branch outcome in execution order, and it steps each
//! one through static per-site schemes plus [`Bimodal`], [`Gshare`],
//! [`Tage`] and the ESP-seeded TAGE hybrid ([`Tage::with_seeded_base`]),
//! whose base table starts from the trained network's per-site
//! taken-probabilities instead of cold counters. It tallies whole-run and
//! warmup-window misses per scheme; nothing is recorded or stored.
//!
//! Everything is std-only, `forbid(unsafe_code)`, and deterministic: no
//! clocks, no RNG (TAGE allocation is first-fit), so two runs over the same
//! program are bitwise identical — the arena's `arena_is_deterministic`
//! test pins exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod bimodal;
mod gshare;
mod predictor;
mod tage;

pub use arena::{Arena, ArenaResult, SchemeResult, StaticScheme, DEFAULT_WARMUP_EVENTS};
pub use bimodal::Bimodal;
pub use gshare::Gshare;
pub use predictor::Predictor;
pub use tage::{Tage, TageConfig};
