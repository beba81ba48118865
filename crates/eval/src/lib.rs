//! Evaluation harness: miss-rate accounting and renderers for every table
//! and figure in the paper's evaluation section (§4–§5).
//!
//! * [`table3()`](fn@table3) — program statistics (instructions traced, %conditional
//!   branches, %taken, branch-site quantiles, static sites);
//! * [`table4()`](fn@table4) — the headline comparison: BTFNT / APHC / DSHC(B&L) /
//!   DSHC(Ours) / ESP / perfect static, with leave-one-out cross-validation
//!   inside the C and Fortran groups;
//! * [`table5()`](fn@table5) — per-program heuristic detail (loop branches, coverage,
//!   default-random accounting);
//! * [`table6()`](fn@table6) — per-heuristic miss rates across architectures and
//!   languages;
//! * [`table7()`](fn@table7) — one program under four compiler configurations;
//! * [`fig1`] — the network topology; [`fig2`](casestudy::fig2) — the
//!   tomcatv case study;
//! * [`table_dyn`](fn@table_dyn) — beyond the paper: the static schemes against
//!   dynamic predictors (bimodal / gshare / TAGE / ESP-seeded TAGE hybrid)
//!   stepped through each program's branch outcomes as the interpreter
//!   resolves them.
//!
//! The entry points used by the `repro_tables` binary and the integration
//! tests are [`SuiteData::build_with_threads`] (or
//! [`SuiteData::build_subset`]) + the per-table `render`/`compute`
//! functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod casestudy;
pub mod data;
pub mod fmt;
pub mod freq;
pub mod miss;
pub mod quant;
pub mod scheme_study;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table_dyn;

pub use data::{BenchData, SuiteData};
pub use miss::{expected_misses, miss_rate, Prediction};
pub use quant::{FoldQuantReport, PublishOutcome, QuantGateConfig, QuantGateReport};
pub use table3::{table3, Table3Row};
pub use table4::{compute_with_quant, table4, train_config_stamp, Table4Config, Table4Row};
pub use table5::{table5, Table5Row};
pub use table6::table6;
pub use table7::table7;
pub use table_dyn::{table_dyn, PooledRates, TableDynReport, TableDynRow};

/// Render Figure 1: the branch-prediction network topology actually used.
pub fn fig1(hidden: usize) -> String {
    format!(
        "Figure 1: the branch prediction neural network\n\
         \n\
         output (branch probability): 1 unit, y = 0.5*tanh(z) + 0.5\n\
         hidden layer:                {hidden} tanh units\n\
         input (static feature set):  {} units (one-hot Table 2 encoding)\n\
         free parameters:             {}\n",
        esp_core::ENCODED_DIM,
        esp_core::ENCODED_DIM * hidden + hidden + hidden + 1,
    )
}
