//! Static dataflow analysis over `esp-ir` control-flow graphs.
//!
//! A generic worklist solver ([`solver`]) runs monotone-lattice analyses in
//! deterministic reverse-postorder sweeps, forward or backward. Three
//! concrete analyses ride on it:
//!
//! * [`mod@sccp`] — sparse conditional constant propagation that mirrors the
//!   `esp-exec` interpreter's arithmetic exactly (wrapping ops, division by
//!   zero yielding zero, zero-initialised registers), so every branch it
//!   proves one-sided is a claim about *real* execution behaviour;
//! * [`interval`] — integer value-range analysis with widening at loop
//!   heads and branch-condition edge refinement, tracking induction
//!   variables against loop bounds;
//! * [`mod@liveness`] — backward register liveness, feeding dead-store
//!   detection.
//!
//! Two consumers sit on top: [`facts`] distils per-branch analysis facts
//! (statically-decided direction, loop-invariant conditions, null-test
//! classification, loop-guard shape) for the extended ESP feature set, and
//! [`lint`] turns program-wide facts into deterministic diagnostics with
//! stable `L00x` codes.
//!
//! The crate is std-only and depends only on `esp-ir`. Its correctness
//! oracle — every branch proved one-sided must show an execution
//! `taken_prob` of exactly 0.0 or 1.0 — is enforced by the `esp-lint`
//! binary's `--oracle` mode and the cross-check tests in `tests/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod facts;
pub mod interval;
pub mod lint;
pub mod liveness;
pub mod sccp;
pub mod solver;

pub use facts::{BranchFacts, FuncFacts, PointerTest};
pub use interval::{interval_analysis, Interval, IntervalOutcome};
pub use lint::{findings_json, lint_program, report_json, Finding, LintCode, ProgramReport};
pub use liveness::{dead_defs, liveness, DeadDef};
pub use sccp::{sccp, Lat, SccpOutcome};
pub use solver::{solve, Analysis, Direction, Solution};
