//! The 43-program synthetic benchmark corpus — this reproduction's stand-in
//! for the SPEC92 + Perfect Club + utilities suite of the paper (Table 3).
//!
//! Every benchmark carries the name and language of its counterpart in the
//! paper and is generated *deterministically* from that name: the generator
//! composes per-program mixes of realistic idioms (counted loops, sentinel
//! searches, linked-list walks, null-pointer guards, error-return calls,
//! switch dispatchers, recursive reducers, numeric kernels with convergence
//! tests …) whose branch-bias structure is exactly what both the Ball–Larus
//! heuristics and ESP's learned features feed on. Workload data is produced
//! *inside* the generated program by a linear congruential generator, so a
//! benchmark's dynamic profile is a pure function of its source.
//!
//! The per-program "personality" knobs (language, size, loopiness, pointer
//! use, call density, float mix, taken-bias) are tuned from the paper's
//! Table 3 so the corpus exhibits a comparable spread of behaviours, from
//! `alvinn` (a couple of dominant, almost-always-taken loop branches) to
//! `fpppp` (sprawling straight-line float code with hard-to-predict guards).
//!
//! # Example
//!
//! ```
//! use esp_corpus::{suite, Benchmark};
//! use esp_lang::CompilerConfig;
//!
//! let bench: &Benchmark = &suite()[0];
//! let prog = bench.compile(&CompilerConfig::default())?;
//! let profile = esp_corpus::profile(&prog)?;
//! assert!(profile.dyn_cond_branches > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen_cee;
mod gen_fort;
mod gen_scheme;
mod personality;
mod suite_def;

pub use gen_scheme::{scheme_suite, SchemeBenchmark};
pub use personality::Personality;
pub use suite_def::{select, suite, Benchmark, Group};

use esp_exec::{ExecError, ExecLimits, Profile};
use esp_ir::Program;

/// Execute a compiled benchmark with corpus-standard limits and return its
/// branch profile.
///
/// # Errors
///
/// Propagates interpreter failures; a corpus program failing to run is a
/// generator bug.
pub fn profile(prog: &Program) -> Result<Profile, ExecError> {
    let limits = ExecLimits {
        max_insns: 80_000_000,
        ..ExecLimits::default()
    };
    esp_exec::run(prog, &limits).map(|o| o.profile)
}
