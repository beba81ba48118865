//! The pre-kernel reference implementation of the network, kept verbatim.
//!
//! This is the nested-`Vec` two-pass trainer the flat kernels in
//! [`crate::Mlp`] replaced: `w[i][j]` rows as separate allocations, a
//! forward pass that returns the hidden activations in a fresh `Vec` per
//! example, and an epoch loop that runs a gradient pass *and* a separate
//! `thresholded_error` sweep. It is the equivalence oracle:
//! `tests/kernel_reference.rs` asserts the flat kernels reproduce this
//! implementation bit for bit (forwards, gradients, and entire training
//! runs), which is what lets the kernel rewrite keep the thread-count
//! determinism contract and the artifact format without revalidating
//! every downstream number.
//!
//! It is intentionally serial (`threads` is ignored; the serial chunk sweep
//! and strict `<` restart selection are exactly what the parallel paths are
//! defined to reproduce) and carries no spans or metrics — telemetry never
//! feeds back into the weights, so its absence cannot change the oracle.

use crate::mlp::{LossKind, MlpConfig, TrainExample, TrainReport, GRAD_CHUNK};
use esp_runtime::Pcg32;

/// The reference network: same topology and maths as [`crate::Mlp`], stored
/// as nested rows and trained by the original two-pass epoch loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RefMlp {
    /// `w[i][j]`: input `j` → hidden `i`.
    w: Vec<Vec<f64>>,
    /// Hidden biases.
    b: Vec<f64>,
    /// Hidden `i` → output (or input `j` → output when `hidden == 0`).
    v: Vec<f64>,
    /// Output bias.
    a: f64,
    inputs: usize,
}

impl RefMlp {
    /// Number of input units.
    pub fn num_inputs(&self) -> usize {
        self.inputs
    }

    /// Number of hidden units.
    pub fn num_hidden(&self) -> usize {
        self.w.len()
    }

    /// Every free parameter in the same fixed order as
    /// [`crate::Mlp::flat_weights`] (hidden rows, hidden biases, output
    /// weights, output bias) — the comparison handle for the bitwise
    /// kernel-equivalence tests.
    pub fn flat_weights(&self) -> Vec<f64> {
        let mut out = Vec::new();
        for row in &self.w {
            out.extend_from_slice(row);
        }
        out.extend_from_slice(&self.b);
        out.extend_from_slice(&self.v);
        out.push(self.a);
        out
    }

    /// Rebuild from a topology plus a flat parameter vector (same contract
    /// as [`crate::Mlp::from_flat_weights`]); `None` on a length mismatch.
    pub fn from_flat_weights(inputs: usize, hidden: usize, flat: &[f64]) -> Option<Self> {
        if flat.len() != crate::Mlp::param_count(inputs, hidden) {
            return None;
        }
        let mut it = flat.iter().copied();
        let mut take = |n: usize| -> Vec<f64> { it.by_ref().take(n).collect() };
        let w: Vec<Vec<f64>> = (0..hidden).map(|_| take(inputs)).collect();
        let b = take(hidden);
        let v = take(if hidden == 0 { inputs } else { hidden });
        let a = it.next().expect("length checked above");
        Some(RefMlp { w, b, v, a, inputs })
    }

    fn new_random(inputs: usize, hidden: usize, rng: &mut Pcg32) -> Self {
        let scale = 1.0 / (inputs.max(1) as f64).sqrt();
        let mut weight =
            |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen_range(-scale..scale)).collect() };
        let w: Vec<Vec<f64>> = (0..hidden).map(|_| weight(inputs)).collect();
        let b = weight(hidden);
        let v = weight(if hidden == 0 { inputs } else { hidden });
        RefMlp {
            w,
            b,
            v,
            a: 0.0,
            inputs,
        }
    }

    /// Taken-probability estimate in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.inputs, "input dimensionality mismatch");
        let (y, _) = self.forward(x);
        y
    }

    /// Forward pass returning `(y, hidden activations)` — the per-call
    /// `Vec` allocation the kernel rewrite removed.
    fn forward(&self, x: &[f64]) -> (f64, Vec<f64>) {
        if self.w.is_empty() {
            let z: f64 = self.v.iter().zip(x).map(|(v, x)| v * x).sum::<f64>() + self.a;
            return (0.5 * z.tanh() + 0.5, Vec::new());
        }
        let h: Vec<f64> = self
            .w
            .iter()
            .zip(&self.b)
            .map(|(wi, bi)| {
                let s: f64 = wi.iter().zip(x).map(|(w, x)| w * x).sum::<f64>() + bi;
                s.tanh()
            })
            .collect();
        let z: f64 = self.v.iter().zip(&h).map(|(v, h)| v * h).sum::<f64>() + self.a;
        (0.5 * z.tanh() + 0.5, h)
    }

    /// The continuous misprediction-cost loss over a data set.
    pub fn loss(&self, data: &[TrainExample]) -> f64 {
        data.iter()
            .map(|ex| {
                let y = self.predict(&ex.x);
                ex.weight * (y * (1.0 - ex.target) + ex.target * (1.0 - y))
            })
            .sum()
    }

    /// The thresholded error of the hard predictor.
    pub fn thresholded_error(&self, data: &[TrainExample]) -> f64 {
        data.iter()
            .map(|ex| {
                let y = if self.predict(&ex.x) > 0.5 { 1.0 } else { 0.0 };
                ex.weight * (y * (1.0 - ex.target) + ex.target * (1.0 - y))
            })
            .sum()
    }

    /// Serially accumulate one chunk's gradient in example order; returns
    /// the chunk's continuous loss.
    fn chunk_gradient(&self, data: &[TrainExample], kind: LossKind, grad: &mut RefGradients) -> f64 {
        grad.zero();
        let mut loss = 0.0;
        for ex in data {
            let (y, h) = self.forward(&ex.x);
            let dedy = match kind {
                LossKind::Linear => {
                    loss += ex.weight * (y * (1.0 - ex.target) + ex.target * (1.0 - y));
                    ex.weight * (1.0 - 2.0 * ex.target)
                }
                LossKind::Sse => {
                    let d = y - ex.target;
                    loss += ex.weight * d * d;
                    ex.weight * 2.0 * d
                }
            };
            let tanh_z = 2.0 * y - 1.0;
            let dz = dedy * 0.5 * (1.0 - tanh_z * tanh_z);
            if self.w.is_empty() {
                for (gv, x) in grad.v.iter_mut().zip(&ex.x) {
                    *gv += dz * x;
                }
                grad.a += dz;
                continue;
            }
            // Kept as an index loop on purpose: this file preserves the
            // pre-flat implementation verbatim so the kernel has a bitwise
            // oracle to be compared against.
            #[allow(clippy::needless_range_loop)]
            for i in 0..self.w.len() {
                grad.v[i] += dz * h[i];
                let dh = dz * self.v[i] * (1.0 - h[i] * h[i]);
                grad.b[i] += dh;
                for (gw, x) in grad.w[i].iter_mut().zip(&ex.x) {
                    *gw += dh * x;
                }
            }
            grad.a += dz;
        }
        loss
    }

    /// Gradient of one of the reference's fixed-size chunks, exposed so the
    /// equivalence tests can compare raw accumulator output against the
    /// flat kernel. Returns `(flat gradient, loss)`.
    pub fn gradient(&self, data: &[TrainExample], kind: LossKind) -> (Vec<f64>, f64) {
        let mut grad = RefGradients::like(self);
        let loss = self.chunk_gradient(data, kind, &mut grad);
        let mut flat = Vec::new();
        for row in &grad.w {
            flat.extend_from_slice(row);
        }
        flat.extend_from_slice(&grad.b);
        flat.extend_from_slice(&grad.v);
        flat.push(grad.a);
        (flat, loss)
    }

    /// Full-batch gradient: serial chunk sweep plus the same in-place
    /// stride-doubling reduction the parallel path uses, so the summation
    /// shape is identical at any thread count.
    fn batch_gradient(
        &self,
        data: &[TrainExample],
        kind: LossKind,
        bufs: &mut [RefGradients],
        losses: &mut [f64],
    ) -> f64 {
        let k = bufs.len();
        for ((grad, loss), chunk) in bufs
            .iter_mut()
            .zip(losses.iter_mut())
            .zip(data.chunks(GRAD_CHUNK))
        {
            *loss = self.chunk_gradient(chunk, kind, grad);
        }
        let mut stride = 1;
        while stride < k {
            let mut i = 0;
            while i + stride < k {
                let (head, tail) = bufs.split_at_mut(i + stride);
                head[i].add_assign(&tail[0]);
                losses[i] += losses[i + stride];
                i += 2 * stride;
            }
            stride *= 2;
        }
        losses[0]
    }

    fn apply(&mut self, grad: &RefGradients, lr: f64) {
        for (wi, gi) in self.w.iter_mut().zip(&grad.w) {
            for (w, g) in wi.iter_mut().zip(gi) {
                *w -= lr * g;
            }
        }
        for (b, g) in self.b.iter_mut().zip(&grad.b) {
            *b -= lr * g;
        }
        for (v, g) in self.v.iter_mut().zip(&grad.v) {
            *v -= lr * g;
        }
        self.a -= lr * grad.a;
    }

    /// Train with the original two-pass procedure: per epoch, one gradient
    /// pass and one separate `thresholded_error` sweep. Serial throughout;
    /// `cfg.threads` is ignored. Restart selection is the strict-`<`
    /// in-order sweep the parallel implementation reproduces.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or examples disagree on dimensionality.
    pub fn train(data: &[TrainExample], cfg: &MlpConfig) -> (RefMlp, TrainReport) {
        assert!(!data.is_empty(), "cannot train on an empty corpus");
        let inputs = data[0].x.len();
        assert!(
            data.iter().all(|d| d.x.len() == inputs),
            "inconsistent feature dimensionality"
        );
        let restarts = cfg.restarts.max(1);
        let mut outcome: Option<(RefMlp, TrainReport)> = None;
        for r in 0..restarts {
            let (m, rep) = RefMlp::train_once(data, cfg, cfg.seed.wrapping_add(r as u64), inputs);
            let better = outcome
                .as_ref()
                .is_none_or(|(_, b)| rep.best_thresholded_error < b.best_thresholded_error);
            if better {
                outcome = Some((m, rep));
            }
        }
        outcome.expect("at least one restart ran")
    }

    fn train_once(
        data: &[TrainExample],
        cfg: &MlpConfig,
        seed: u64,
        inputs: usize,
    ) -> (RefMlp, TrainReport) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut mlp = RefMlp::new_random(inputs, cfg.hidden, &mut rng);
        let num_chunks = data.len().div_ceil(GRAD_CHUNK);
        let mut bufs: Vec<RefGradients> =
            (0..num_chunks).map(|_| RefGradients::like(&mlp)).collect();
        let mut losses = vec![0.0; num_chunks];
        let mut lr = cfg.learning_rate;
        let total_weight: f64 = data.iter().map(|d| d.weight).sum::<f64>().max(1e-12);

        let mut best = mlp.clone();
        let mut best_terr = mlp.thresholded_error(data);
        let mut prev_loss = f64::INFINITY;
        let mut since_best = 0usize;
        let mut epochs = 0usize;
        let mut final_loss = 0.0;

        for epoch in 0..cfg.max_epochs {
            epochs = epoch + 1;
            let loss = mlp.batch_gradient(data, cfg.loss, &mut bufs, &mut losses);
            final_loss = loss;
            mlp.apply(&bufs[0], lr / total_weight);
            lr *= if loss < prev_loss { cfg.lr_up } else { cfg.lr_down };
            lr = lr.clamp(1e-5, 40.0 * cfg.learning_rate);
            prev_loss = loss;

            let terr = mlp.thresholded_error(data);
            if terr < best_terr - 1e-12 {
                best_terr = terr;
                best = mlp.clone();
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= cfg.patience {
                    break;
                }
            }
        }

        (
            best,
            TrainReport {
                epochs,
                final_loss,
                best_thresholded_error: best_terr,
            },
        )
    }
}

struct RefGradients {
    w: Vec<Vec<f64>>,
    b: Vec<f64>,
    v: Vec<f64>,
    a: f64,
}

impl RefGradients {
    fn like(m: &RefMlp) -> Self {
        RefGradients {
            w: m.w.iter().map(|r| vec![0.0; r.len()]).collect(),
            b: vec![0.0; m.b.len()],
            v: vec![0.0; m.v.len()],
            a: 0.0,
        }
    }

    fn zero(&mut self) {
        for r in &mut self.w {
            r.fill(0.0);
        }
        self.b.fill(0.0);
        self.v.fill(0.0);
        self.a = 0.0;
    }

    fn add_assign(&mut self, other: &RefGradients) {
        for (wi, oi) in self.w.iter_mut().zip(&other.w) {
            for (w, o) in wi.iter_mut().zip(oi) {
                *w += o;
            }
        }
        for (b, o) in self.b.iter_mut().zip(&other.b) {
            *b += o;
        }
        for (v, o) in self.v.iter_mut().zip(&other.v) {
            *v += o;
        }
        self.a += other.a;
    }
}
