//! A trained network at the precision its weights are stored in — the one
//! place a precision is chosen at run time. Model files, models and the
//! server carry a [`Net`] as a value; only this module matches on it.

use crate::mlp::Mlp;
use crate::panel::PanelFloat;

/// A trained network as stored: f64 as [`Mlp::train`] produced it, or the
/// f32 serving narrowing [`Mlp::quantize`] made of one.
#[derive(Debug, Clone, PartialEq)]
pub enum Net {
    /// Full precision — bitwise identical to training-time prediction.
    F64(Mlp<f64>),
    /// Quantized to f32 for serving.
    F32(Mlp<f32>),
}

impl Net {
    /// Number of input units.
    pub fn num_inputs(&self) -> usize {
        match self {
            Net::F64(m) => m.num_inputs(),
            Net::F32(m) => m.num_inputs(),
        }
    }

    /// Number of hidden units.
    pub fn num_hidden(&self) -> usize {
        match self {
            Net::F64(m) => m.num_hidden(),
            Net::F32(m) => m.num_hidden(),
        }
    }

    /// Weight precision in bits: 64 or 32.
    pub fn precision_bits(&self) -> u32 {
        match self {
            Net::F64(_) => 64,
            Net::F32(_) => 32,
        }
    }

    /// The f32 narrowing of this network; quantizing an f32 network is the
    /// identity.
    pub fn quantize(&self) -> Net {
        match self {
            Net::F64(m) => Net::F32(m.quantize()),
            Net::F32(m) => Net::F32(m.clone()),
        }
    }

    /// [`Mlp::predict_panel_into`] at the stored precision, on this
    /// thread's reusable kernel scratch — bitwise identical to per-row
    /// [`Mlp::predict`] of the same network.
    ///
    /// # Panics
    ///
    /// Panics if `panel.len() != rows * num_inputs()`.
    pub fn predict_panel_into(&self, panel: &[f64], rows: usize, out: &mut Vec<f64>) {
        fn run<T: PanelFloat>(m: &Mlp<T>, panel: &[f64], rows: usize, out: &mut Vec<f64>) {
            T::with_scratch(|s| m.predict_panel_into(panel, rows, s, out));
        }
        match self {
            Net::F64(m) => run(m, panel, rows, out),
            Net::F32(m) => run(m, panel, rows, out),
        }
    }
}
