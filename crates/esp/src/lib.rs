//! Evidence-based Static Prediction (ESP) — the paper's contribution.
//!
//! ESP predicts the direction of conditional branches in *unseen* programs
//! from the behaviour of a corpus of other programs:
//!
//! 1. [`features::extract`] pulls the Table 2 static feature set out of each
//!    branch site (opcode chain, loop structure, language, procedure kind,
//!    and eight structural features per successor);
//! 2. [`mod@encode`] one-hot-encodes the record, normalizes inputs over the
//!    training set, and gates *dependent* features to zero exactly as
//!    §3.1.1 prescribes;
//! 3. [`EspModel::train`] fits the paper's neural network (or the
//!    decision-tree alternative) under the misprediction-cost loss, each
//!    example weighted by its normalized execution frequency;
//! 4. [`leave_one_out`] trains one fold of the leave-one-out protocol of
//!    §4. Every fold is a pure function of the corpus, the config and its
//!    index, and a network trains on the calling thread, so callers (Table
//!    4 in `esp-eval`) run folds on the `esp-runtime` pool at any
//!    `EspConfig::threads` and get the same bits.
//!
//! # Example
//!
//! ```
//! use esp_core::{EspConfig, EspModel, TrainingProgram, Learner};
//! use esp_ir::{Lang, ProgramAnalysis};
//! use esp_lang::{compile_source, CompilerConfig};
//! use esp_nnet::MlpConfig;
//!
//! // Train on one tiny program, predict another.
//! let train_prog = compile_source(
//!     "train",
//!     "int main() { int i = 0; int s = 0; while (i < 90) { s = s + i; i = i + 1; } return s; }",
//!     Lang::C, &CompilerConfig::default())?;
//! let train_an = ProgramAnalysis::analyze(&train_prog);
//! let train_pr = esp_exec::run(&train_prog, &esp_exec::ExecLimits::default()).unwrap().profile;
//!
//! let cfg = EspConfig {
//!     learner: Learner::Net(MlpConfig { hidden: 4, max_epochs: 80, restarts: 1, ..MlpConfig::default() }),
//!     ..EspConfig::default()
//! };
//! let model = EspModel::train(&[TrainingProgram::new(&train_prog, &train_an, &train_pr)], &cfg);
//!
//! let test_prog = compile_source(
//!     "test",
//!     "int main() { int j = 0; int t = 0; while (j < 40) { t = t + 2; j = j + 1; } return t; }",
//!     Lang::C, &CompilerConfig::default())?;
//! let test_an = ProgramAnalysis::analyze(&test_prog);
//! for site in test_prog.branch_sites() {
//!     let p = model.predict_prob(&test_prog, &test_an, site);
//!     assert!((0.0..=1.0).contains(&p));
//! }
//! # Ok::<(), esp_lang::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crossval;
pub mod encode;
pub mod extended;
pub mod features;
pub mod model;

pub use crossval::leave_one_out;
pub use encode::{encode, encoded_dim, FeatureSet, FittedEncoder, ENCODED_DIM, EXTENDED_DIM};
pub use extended::ExtendedContext;
pub use features::{extract, BranchFeatures, ExtendedFeatures, SuccessorFeatures, FEATURE_COUNT};
pub use model::{build_training_set, EspConfig, EspModel, Learner, TrainingProgram};
