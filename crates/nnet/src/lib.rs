//! From-scratch learners for ESP: the paper's feed-forward neural network
//! (§3.1.1) and the decision-tree alternative it mentions (§3.1.2).
//!
//! The network is exactly the one in the paper's Figure 1:
//!
//! * one hidden layer of `tanh` units: `h_i = tanh(Σ_j w_ij x_j + b_i)`;
//! * an output unit normalised to `[0, 1]`: `y = ½·tanh(Σ_i v_i h_i + a) + ½`;
//! * trained by **batch** gradient descent under the misprediction-cost loss
//!   `E = Σ_k n_k [ y_k (1 − t_k) + t_k (1 − y_k) ]`, where `t_k` is the
//!   branch's true taken-probability and `n_k` its normalized execution
//!   weight;
//! * an **adaptive learning rate** (raised when error falls steadily, lowered
//!   otherwise, no momentum);
//! * **early stopping** on the *thresholded* error — the loss computed after
//!   snapping `y` to 0 or 1 — which is the quantity the study actually
//!   cares about (dynamic misprediction rate).
//!
//! Weights are `f64` as trained; [`Mlp::quantize`] narrows them to the
//! `Mlp<f32>` serving model, which predicts through the same generic
//! kernels. [`Net`] carries either precision as a value for model files
//! and servers.
//!
//! # Example
//!
//! ```
//! use esp_nnet::{Mlp, MlpConfig, TrainExample};
//!
//! // Learn "x0 positive => taken".
//! let data: Vec<TrainExample> = (0..64)
//!     .map(|i| {
//!         let x = (i % 8) as f64 / 4.0 - 0.875;
//!         TrainExample { x: vec![x], target: if x > 0.0 { 1.0 } else { 0.0 }, weight: 1.0 }
//!     })
//!     .collect();
//! let cfg = MlpConfig {
//!     hidden: 4,
//!     seed: 7,
//!     learning_rate: 0.3,
//!     max_epochs: 2000,
//!     patience: 300,
//!     ..MlpConfig::default()
//! };
//! let (mlp, report) = Mlp::train(&data, &cfg);
//! assert!(report.best_thresholded_error < 1.0);
//! assert!(mlp.predict(&[0.9]) > 0.5);
//! assert!(mlp.predict(&[-0.9]) < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coalesce;
mod mlp;
mod net;
mod norm;
pub(crate) mod panel;
mod tree;

pub use coalesce::{coalesce_examples, CoalesceStats};
pub use mlp::{LossKind, Mlp, MlpConfig, TrainExample, TrainReport, GRAD_CHUNK};
pub use net::Net;
pub use norm::Normalizer;
pub use panel::{PanelFloat, PanelScratch, PANEL_LANES};
pub use tree::{DecisionTree, TreeConfig};
