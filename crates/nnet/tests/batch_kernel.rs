//! Batch-vs-scalar bitwise identity for the panel kernels, across the batch
//! sizes that exercise every tile/remainder split ({1, 2, 31, 32, 33, 257})
//! and the hidden widths that exercise every kernel branch ({0, 1, 8}).
//!
//! * f64: `Mlp::predict_panel_into` must reproduce per-row `Mlp::predict`
//!   **bit for bit** — the panel kernel only re-schedules work across
//!   lanes, never within an example's sum.
//! * f32: `Mlp<f32>::predict_panel_into` must reproduce per-row
//!   `Mlp<f32>::predict` bit for bit (self-consistency). f32 is *not*
//!   compared against f64 — quantization changes values by design; the
//!   eval-side flip gate quantifies that instead.

use esp_nnet::{Mlp, PanelScratch};
use esp_runtime::Pcg32;

const BATCH_SIZES: [usize; 6] = [1, 2, 31, 32, 33, 257];
const HIDDEN_SIZES: [usize; 3] = [0, 1, 8];
const INPUTS: usize = 9;

/// A deterministic model with non-trivial weights at every position.
fn model(hidden: usize, seed: u64) -> Mlp {
    let mut rng = Pcg32::seed_from_u64(seed);
    let n = Mlp::param_count(INPUTS, hidden);
    let flat: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.5..1.5)).collect();
    Mlp::from_flat_weights(INPUTS, hidden, &flat).expect("valid length")
}

/// A deterministic row-major panel of `rows` encoded-looking examples.
fn panel(rows: usize, seed: u64) -> Vec<f64> {
    let mut rng = Pcg32::seed_from_u64(seed);
    (0..rows * INPUTS)
        .map(|_| rng.gen_range(-3.0..3.0))
        .collect()
}

#[test]
fn f64_panel_kernel_is_bitwise_identical_to_scalar() {
    for &hidden in &HIDDEN_SIZES {
        let m = model(hidden, 0xA0 + hidden as u64);
        let mut scratch = PanelScratch::new();
        for &rows in &BATCH_SIZES {
            let p = panel(rows, 0xB0 + rows as u64);
            let mut batched = Vec::new();
            m.predict_panel_into(&p, rows, &mut scratch, &mut batched);
            assert_eq!(batched.len(), rows);
            for (r, y) in batched.iter().enumerate() {
                let x = &p[r * INPUTS..(r + 1) * INPUTS];
                assert_eq!(
                    y.to_bits(),
                    m.predict(x).to_bits(),
                    "hidden={hidden} rows={rows} row={r}: panel diverged from scalar"
                );
            }
        }
    }
}

#[test]
fn f32_panel_kernel_is_bitwise_identical_to_f32_scalar() {
    for &hidden in &HIDDEN_SIZES {
        let q = model(hidden, 0xC0 + hidden as u64).quantize();
        let mut scratch = PanelScratch::<f32>::new();
        for &rows in &BATCH_SIZES {
            let p = panel(rows, 0xD0 + rows as u64);
            let mut batched = Vec::new();
            q.predict_panel_into(&p, rows, &mut scratch, &mut batched);
            assert_eq!(batched.len(), rows);
            for (r, y) in batched.iter().enumerate() {
                let x = &p[r * INPUTS..(r + 1) * INPUTS];
                assert_eq!(
                    y.to_bits(),
                    q.predict(x).to_bits(),
                    "hidden={hidden} rows={rows} row={r}: f32 panel diverged from f32 scalar"
                );
            }
        }
    }
}

#[test]
fn quantized_round_trip_and_topology() {
    let m = model(8, 0xE1);
    let q = m.quantize();
    assert_eq!(q.num_inputs(), m.num_inputs());
    assert_eq!(q.num_hidden(), m.num_hidden());
    assert_eq!(q.num_params(), m.num_params());
    // flat round trip is bitwise
    let flat = q.flat_weights();
    let back = Mlp::<f32>::from_flat_weights(INPUTS, 8, &flat).expect("valid length");
    assert_eq!(back, q);
    let x = panel(1, 0xE2);
    assert_eq!(back.predict(&x).to_bits(), q.predict(&x).to_bits());
    // quantization is the plain `as f32` rounding of each parameter
    for (qw, w) in flat.iter().zip(m.flat_weights()) {
        assert_eq!(qw.to_bits(), (w as f32).to_bits());
    }
    // wrong length rejected
    assert!(Mlp::<f32>::from_flat_weights(INPUTS, 8, &flat[1..]).is_none());
    // f32 predictions track f64 closely on these magnitudes, without being
    // bitwise-equal in general
    let p = panel(64, 0xE3);
    let mut scratch = PanelScratch::<f32>::new();
    let mut qy = Vec::new();
    q.predict_panel_into(&p, 64, &mut scratch, &mut qy);
    for (r, qy) in qy.iter().enumerate() {
        let x = &p[r * INPUTS..(r + 1) * INPUTS];
        assert!(
            (qy - m.predict(x)).abs() < 1e-4,
            "row {r}: f32 drifted far from f64"
        );
    }
}

#[test]
fn empty_batch_is_a_no_op() {
    let m = model(8, 0xF1);
    let q = m.quantize();
    let mut out = Vec::new();
    m.predict_panel_into(&[], 0, &mut PanelScratch::new(), &mut out);
    q.predict_panel_into(&[], 0, &mut PanelScratch::<f32>::new(), &mut out);
    assert!(out.is_empty());
}
