//! Std-only deterministic runtime shared by the whole workspace.
//!
//! Two small pieces, both free of external dependencies so the workspace
//! builds with zero registry access:
//!
//! * [`rng`] — a seeded [`Pcg32`] generator (seeded through SplitMix64) with
//!   the `seed_from_u64` / `gen_range` / `gen_bool` surface the corpus
//!   generators and the network initialiser need. Identical seeds produce
//!   identical streams on every platform.
//! * [`pool`] — a [`std::thread::scope`]-based worker pool for the
//!   embarrassingly-parallel layers of the ESP pipeline (profiling runs and
//!   cross-validation folds). Results come back in input order, and each
//!   item runs on one thread, so parallel runs are bitwise identical to
//!   serial ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pool;
pub mod rng;

pub use pool::{parallel_map, parallel_map_indices, resolve_threads};
pub use rng::{Pcg32, SplitMix64};
