//! The feed-forward network and its training loop.
//!
//! Training is parallel at two layers — independent restarts, and per-epoch
//! gradient chunks — and *deterministic by construction*: examples are split
//! into fixed-size chunks whose boundaries never depend on the thread count,
//! each chunk's partial gradient is accumulated serially in example order,
//! and partials are combined by an ordered pairwise reduction whose shape
//! depends only on the chunk count. Any `threads` setting therefore yields
//! bitwise-identical weights.
//!
//! # Kernel layout
//!
//! All free parameters live in **one contiguous `Vec<f64>`** in
//! [`Mlp::flat_weights`] order: hidden-major weight rows `w[i][j]`
//! (`i * inputs + j`), then hidden biases `b[i]`, then output weights `v[i]`
//! (or `v[j]` over inputs when `hidden == 0`), then the output bias `a`.
//! Gradients use the *same* flat layout, so the descent update is a single
//! fused elementwise loop, and forward/backward walk memory linearly. The
//! hidden-activation scratch is reused across examples (a per-chunk buffer
//! during training, a thread-local one in [`Mlp::predict`]), making the hot
//! loop allocation-free — pinned by `tests/alloc_free.rs`.
//!
//! Every kernel preserves the *reference* summation order (row terms
//! left-to-right, then `+ bias`), so the flat path is bitwise-identical to
//! the nested-`Vec` implementation preserved in [`crate::reference`]; an
//! integration test asserts this for forwards, gradients, and whole
//! training runs.

use esp_obs::span;
use esp_runtime::{parallel_drain, parallel_map_indices, resolve_threads, Pcg32};
use std::cell::RefCell;

/// One training example: an encoded static feature vector `x`, the branch's
/// true taken-probability `target` (`t_k`), and its normalized execution
/// weight (`n_k`).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainExample {
    /// Input feature vector.
    pub x: Vec<f64>,
    /// True taken-probability in `[0, 1]`.
    pub target: f64,
    /// Normalized branch weight (relative execution frequency); weights the
    /// example's contribution to the loss.
    pub weight: f64,
}

/// Which loss drives gradient descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LossKind {
    /// The paper's misprediction-cost loss, linear in `y`:
    /// `Σ n_k [y_k(1−t_k) + t_k(1−y_k)]`.
    #[default]
    Linear,
    /// Weighted sum of squared errors `Σ n_k (y_k − t_k)²` — the "standard
    /// measure of performance" the paper mentions before motivating its own.
    /// Useful as an ablation: the linear loss keeps pushing
    /// correctly-classified examples toward saturation, which can freeze
    /// XOR-like feature interactions; SSE does not.
    Sse,
}

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden-layer width; `0` degenerates into a direct input→output model
    /// (a linear classifier through the squashed output), used as an
    /// ablation.
    pub hidden: usize,
    /// Loss function minimised by gradient descent. Early stopping always
    /// uses the thresholded misprediction error regardless of this choice.
    pub loss: LossKind,
    /// Independent training runs (seeds `seed`, `seed+1`, …); the run with
    /// the best thresholded error wins. A cheap escape from bad basins of
    /// the linear loss.
    pub restarts: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Multiplier applied when the epoch loss decreased ("increased if error
    /// drops regularly").
    pub lr_up: f64,
    /// Multiplier applied when the epoch loss rose ("decreased otherwise").
    pub lr_down: f64,
    /// Hard cap on epochs.
    pub max_epochs: usize,
    /// Early stopping: stop after this many epochs without improvement of
    /// the thresholded error.
    pub patience: usize,
    /// RNG seed for weight initialisation.
    pub seed: u64,
    /// Worker threads for restarts and gradient chunks; `0` (the default,
    /// matching `EspConfig.threads`) means one per available core. Has
    /// **no effect on the result** — only on wall-clock.
    pub threads: usize,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: 10,
            loss: LossKind::Linear,
            restarts: 2,
            learning_rate: 0.05,
            lr_up: 1.05,
            lr_down: 0.7,
            max_epochs: 300,
            patience: 25,
            seed: 0x5eed,
            threads: 0,
        }
    }
}

/// What training observed, for reporting and tests.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Epochs actually run (≤ `max_epochs`).
    pub epochs: usize,
    /// Final continuous loss `E`.
    pub final_loss: f64,
    /// Best (lowest) thresholded error seen; the returned network is the one
    /// that achieved it.
    pub best_thresholded_error: f64,
}

/// Examples per gradient chunk. Fixed — never derived from the thread
/// count — so chunk boundaries (and with them every floating-point sum) are
/// a function of the data alone. 128 examples amortise the scheduling cost
/// while leaving plenty of chunks to balance across workers on
/// corpus-sized folds.
pub(crate) const GRAD_CHUNK: usize = 128;

thread_local! {
    /// Hidden-activation scratch for the allocation-free single-row predict
    /// path; grows to the largest `hidden` seen on this thread and stays.
    static H_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The paper's branch-prediction network (Figure 1), stored as one flat
/// parameter buffer (see the module docs for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    /// `[w rows (hidden-major) | b | v | a]`, exactly `flat_weights` order.
    params: Vec<f64>,
    inputs: usize,
    hidden: usize,
}

impl Mlp {
    /// Number of input units.
    pub fn num_inputs(&self) -> usize {
        self.inputs
    }

    /// Number of hidden units.
    pub fn num_hidden(&self) -> usize {
        self.hidden
    }

    /// Total free parameters (weights and biases).
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Offset of the hidden biases within the flat buffer.
    #[inline]
    fn b_off(&self) -> usize {
        self.hidden * self.inputs
    }

    /// Offset of the output weights within the flat buffer.
    #[inline]
    fn v_off(&self) -> usize {
        self.b_off() + self.hidden
    }

    /// Every free parameter flattened in a fixed order (hidden rows, hidden
    /// biases, output weights, output bias) — the handle determinism tests
    /// use to assert bitwise-identical training outcomes. With the flat
    /// kernel layout this is simply a copy of the parameter buffer.
    pub fn flat_weights(&self) -> Vec<f64> {
        self.params.clone()
    }

    /// Free parameters of an `(inputs, hidden)` topology — the length
    /// [`Mlp::from_flat_weights`] expects.
    pub fn param_count(inputs: usize, hidden: usize) -> usize {
        inputs * hidden + hidden + (if hidden == 0 { inputs } else { hidden }) + 1
    }

    /// Rebuild a network from the topology plus the exact flattened
    /// parameter vector produced by [`Mlp::flat_weights`]. The inverse of
    /// that export: `from_flat_weights(m.num_inputs(), m.num_hidden(),
    /// &m.flat_weights())` reproduces `m` bit for bit, so a persisted model
    /// predicts bitwise-identically to the one that was trained.
    ///
    /// Returns `None` when `flat.len()` disagrees with the topology.
    pub fn from_flat_weights(inputs: usize, hidden: usize, flat: &[f64]) -> Option<Self> {
        if flat.len() != Self::param_count(inputs, hidden) {
            return None;
        }
        Some(Mlp {
            params: flat.to_vec(),
            inputs,
            hidden,
        })
    }

    /// Random initialisation, drawing parameters in flat-layout order (which
    /// is exactly the nested-row order the reference implementation uses, so
    /// both see the identical RNG stream). The output bias starts at zero.
    pub(crate) fn new_random(inputs: usize, hidden: usize, rng: &mut Pcg32) -> Self {
        let scale = 1.0 / (inputs.max(1) as f64).sqrt();
        let n = Self::param_count(inputs, hidden);
        let mut params: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-scale..scale)).collect();
        params.push(0.0); // output bias `a`
        Mlp {
            params,
            inputs,
            hidden,
        }
    }

    /// The network's estimate of the probability that the branch is taken,
    /// in `[0, 1]`. Uses a thread-local hidden-activation scratch, so the
    /// call is allocation-free once the scratch has grown to `hidden`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.inputs, "input dimensionality mismatch");
        H_SCRATCH.with(|cell| {
            let mut h = cell.borrow_mut();
            if h.len() < self.hidden {
                h.resize(self.hidden, 0.0);
            }
            self.forward_into(x, &mut h)
        })
    }

    /// [`Mlp::predict`] with a caller-owned hidden-activation scratch —
    /// the batched entry point: callers predicting many rows hold one
    /// buffer across the whole batch and pay zero allocations after it
    /// grows to `hidden` once.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimensionality.
    pub fn predict_with_scratch(&self, x: &[f64], h: &mut Vec<f64>) -> f64 {
        assert_eq!(x.len(), self.inputs, "input dimensionality mismatch");
        if h.len() < self.hidden {
            h.resize(self.hidden, 0.0);
        }
        self.forward_into(x, h)
    }

    /// Batched forward kernel: predict every row of `rows`, pushing the
    /// probabilities onto `out` in order. One pass over the flat weights per
    /// row with a shared thread-local scratch — the serve cache-miss fan-out
    /// and eval table plumbing call this instead of per-row [`Mlp::predict`].
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the training dimensionality.
    pub fn predict_batch_into<'a, I>(&self, rows: I, out: &mut Vec<f64>)
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        H_SCRATCH.with(|cell| {
            let mut h = cell.borrow_mut();
            if h.len() < self.hidden {
                h.resize(self.hidden, 0.0);
            }
            for x in rows {
                assert_eq!(x.len(), self.inputs, "input dimensionality mismatch");
                out.push(self.forward_into(x, &mut h));
            }
        });
    }

    /// Hard taken/not-taken decision at the paper's 0.5 threshold.
    pub fn predict_taken(&self, x: &[f64]) -> bool {
        self.predict(x) > 0.5
    }

    /// Batch-major panel forward: predict `rows` encoded examples stored
    /// contiguously row-major in `panel` (`rows * num_inputs()` values),
    /// pushing one probability per row onto `out`. Full
    /// [`crate::PANEL_LANES`]-row tiles run the autovectorized panel kernel
    /// (the `panel` module); remainder rows fall through to the scalar kernel.
    /// Every lane preserves the scalar summation order, so the result is
    /// **bitwise identical** to per-row [`Mlp::predict`] — asserted by
    /// `tests/batch_kernel.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `panel.len() != rows * num_inputs()`.
    pub fn predict_panel_into(
        &self,
        panel: &[f64],
        rows: usize,
        scratch: &mut crate::PanelScratch,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(panel.len(), rows * self.inputs, "panel shape mismatch");
        out.reserve(rows);
        let full = rows - rows % crate::PANEL_LANES;
        let mut base = 0;
        while base < full {
            crate::panel::panel_tile(
                &self.params,
                self.inputs,
                self.hidden,
                panel,
                base,
                scratch,
                out,
            );
            base += crate::PANEL_LANES;
        }
        if scratch.tail.len() < self.hidden {
            scratch.tail.resize(self.hidden, 0.0);
        }
        for r in base..rows {
            let x = &panel[r * self.inputs..(r + 1) * self.inputs];
            out.push(self.forward_into(x, &mut scratch.tail));
        }
    }

    /// Fused forward pass over the flat parameter buffer, writing hidden
    /// activations into `h` (`h.len() >= hidden`, enforced by callers) and
    /// returning `y`. Accumulation order matches the reference exactly: row
    /// terms left-to-right from zero, then `+ bias`, so results are bitwise
    /// identical to the nested-`Vec` implementation.
    #[inline]
    fn forward_into(&self, x: &[f64], h: &mut [f64]) -> f64 {
        debug_assert_eq!(x.len(), self.inputs);
        debug_assert!(h.len() >= self.hidden);
        let p = self.params.as_slice();
        let inputs = self.inputs;
        if self.hidden == 0 {
            let mut z = 0.0;
            for (v, xj) in p[..inputs].iter().zip(x) {
                z += v * xj;
            }
            z += p[inputs]; // output bias
            return 0.5 * z.tanh() + 0.5;
        }
        let b_off = self.b_off();
        for (i, hi) in h[..self.hidden].iter_mut().enumerate() {
            let mut s = 0.0;
            for (w, xj) in p[i * inputs..(i + 1) * inputs].iter().zip(x) {
                s += w * xj;
            }
            *hi = (s + p[b_off + i]).tanh();
        }
        let v_off = self.v_off();
        let mut z = 0.0;
        for (v, hi) in p[v_off..v_off + self.hidden].iter().zip(h.iter()) {
            z += v * hi;
        }
        z += p[v_off + self.hidden]; // output bias
        0.5 * z.tanh() + 0.5
    }

    /// The continuous misprediction-cost loss over a data set.
    pub fn loss(&self, data: &[TrainExample]) -> f64 {
        H_SCRATCH.with(|cell| {
            let mut h = cell.borrow_mut();
            if h.len() < self.hidden {
                h.resize(self.hidden, 0.0);
            }
            data.iter()
                .map(|ex| {
                    assert_eq!(ex.x.len(), self.inputs, "input dimensionality mismatch");
                    let y = self.forward_into(&ex.x, &mut h);
                    ex.weight * (y * (1.0 - ex.target) + ex.target * (1.0 - y))
                })
                .sum()
        })
    }

    /// The thresholded error: the same loss with `y` snapped to 0 or 1 —
    /// i.e. the weighted dynamic misprediction mass of the hard predictor.
    pub fn thresholded_error(&self, data: &[TrainExample]) -> f64 {
        H_SCRATCH.with(|cell| {
            let mut h = cell.borrow_mut();
            if h.len() < self.hidden {
                h.resize(self.hidden, 0.0);
            }
            data.iter()
                .map(|ex| {
                    assert_eq!(ex.x.len(), self.inputs, "input dimensionality mismatch");
                    let y = self.forward_into(&ex.x, &mut h);
                    threshold_term(y, ex.target, ex.weight)
                })
                .sum()
        })
    }

    /// Serially accumulate the loss gradient of `data` into the flat buffer
    /// `grad` (zeroed first; [`Mlp::flat_weights`] layout), writing each
    /// example's thresholded misprediction mass into `terr` and returning
    /// the continuous loss — loss, gradient and thresholded error in one
    /// fused pass over the data. `scratch` is the reusable
    /// hidden-activation buffer; after it grows to `hidden` once, the call
    /// performs no heap allocation (pinned by `tests/alloc_free.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != num_params()`, `terr.len() != data.len()`,
    /// or any example disagrees on dimensionality.
    pub fn accumulate_gradient(
        &self,
        data: &[TrainExample],
        kind: LossKind,
        grad: &mut [f64],
        scratch: &mut Vec<f64>,
        terr: &mut [f64],
    ) -> f64 {
        assert_eq!(grad.len(), self.params.len(), "gradient buffer length");
        assert_eq!(terr.len(), data.len(), "terr buffer length");
        assert!(
            data.iter().all(|d| d.x.len() == self.inputs),
            "input dimensionality mismatch"
        );
        if scratch.len() < self.hidden {
            scratch.resize(self.hidden, 0.0);
        }
        self.chunk_kernel(data, kind, grad, scratch, terr)
    }

    /// The fused per-chunk kernel: gradient accumulation in example order
    /// (the reference order), plus the per-example thresholded-error terms
    /// the epoch loop later sums serially. Backward order per example
    /// matches the reference accumulator exactly — `gv[i]`, then `gb[i]`,
    /// then the `gw` row, for each hidden unit in turn, then `ga`.
    fn chunk_kernel(
        &self,
        data: &[TrainExample],
        kind: LossKind,
        g: &mut [f64],
        h: &mut [f64],
        terr: &mut [f64],
    ) -> f64 {
        g.fill(0.0);
        let inputs = self.inputs;
        let hidden = self.hidden;
        let b_off = self.b_off();
        let v_off = self.v_off();
        let a_idx = g.len() - 1;
        let p = self.params.as_slice();
        let mut loss = 0.0;
        for (ex, terr_out) in data.iter().zip(terr.iter_mut()) {
            let y = self.forward_into(&ex.x, h);
            *terr_out = threshold_term(y, ex.target, ex.weight);
            // dE/dy;  y = ½ tanh(z) + ½  ⇒ dy/dz = ½(1 - tanh²z)
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
            if hidden == 0 {
                for (gv, xj) in g[..inputs].iter_mut().zip(&ex.x) {
                    *gv += dz * xj;
                }
                g[a_idx] += dz;
                continue;
            }
            for i in 0..hidden {
                let hi = h[i];
                g[v_off + i] += dz * hi;
                let dh = dz * p[v_off + i] * (1.0 - hi * hi);
                g[b_off + i] += dh;
                for (gw, xj) in g[i * inputs..(i + 1) * inputs].iter_mut().zip(&ex.x) {
                    *gw += dh * xj;
                }
            }
            g[a_idx] += dz;
        }
        loss
    }

    /// Compute the full batch gradient into `bufs[0]` and return
    /// `(epoch loss, thresholded error at the current weights)`. `bufs`
    /// holds one reusable buffer per fixed-size chunk; chunk partials are
    /// computed on `threads` workers and merged by an ordered pairwise
    /// (stride-doubling) reduction. Chunk boundaries and reduction shape
    /// depend only on `data.len()`, never on `threads`, so the result is
    /// bitwise identical for every thread count.
    ///
    /// The thresholded error is fused into the same pass: each chunk writes
    /// its per-example terms into its disjoint slice of `terr_buf`
    /// (`len == data.len()`), and the buffer is then summed **serially in
    /// example order** — the identical association a standalone
    /// [`Mlp::thresholded_error`] sweep would use, so fusing changes no bits.
    fn batch_gradient(
        &self,
        data: &[TrainExample],
        kind: LossKind,
        bufs: &mut [GradChunk],
        losses: &mut [f64],
        terr_buf: &mut [f64],
        threads: usize,
    ) -> (f64, f64) {
        let k = bufs.len();
        debug_assert_eq!(k, data.len().div_ceil(GRAD_CHUNK));
        debug_assert_eq!(terr_buf.len(), data.len());
        parallel_drain(
            threads.min(k),
            bufs.iter_mut()
                .zip(losses.iter_mut())
                .zip(data.chunks(GRAD_CHUNK).zip(terr_buf.chunks_mut(GRAD_CHUNK))),
            |((buf, loss), (chunk, terr))| {
                *loss = self.chunk_kernel(chunk, kind, &mut buf.g, &mut buf.h, terr);
            },
        );
        // Ordered pairwise reduction, same shape as `esp_runtime::tree_reduce`
        // but merging in place so the per-chunk buffers can be reused across
        // epochs: partials meet as ((c0 c1)(c2 c3))… regardless of which
        // worker produced them.
        let mut stride = 1;
        while stride < k {
            let mut i = 0;
            while i + stride < k {
                let (head, tail) = bufs.split_at_mut(i + stride);
                for (g, o) in head[i].g.iter_mut().zip(&tail[0].g) {
                    *g += o;
                }
                losses[i] += losses[i + stride];
                i += 2 * stride;
            }
            stride *= 2;
        }
        (losses[0], terr_buf.iter().sum())
    }

    /// Fused descent update over the flat buffers: one elementwise loop.
    fn apply(&mut self, grad: &[f64], lr: f64) {
        for (p, g) in self.params.iter_mut().zip(grad) {
            *p -= lr * g;
        }
    }

    /// Train a network on `data` with the paper's procedure (batch descent,
    /// adaptive learning rate, early stopping on thresholded error), over
    /// `cfg.restarts` independent initialisations. Returns the weights that
    /// achieved the best thresholded error across all restarts.
    ///
    /// Restarts run concurrently on `cfg.threads` workers (each restart is a
    /// pure function of its seed), and leftover workers parallelise each
    /// restart's gradient chunks. The winner is selected in restart order
    /// with a strict `<`, so the outcome is identical to the serial sweep.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or examples disagree on dimensionality.
    pub fn train(data: &[TrainExample], cfg: &MlpConfig) -> (Mlp, TrainReport) {
        assert!(!data.is_empty(), "cannot train on an empty corpus");
        let inputs = data[0].x.len();
        assert!(
            data.iter().all(|d| d.x.len() == inputs),
            "inconsistent feature dimensionality"
        );
        let restarts = cfg.restarts.max(1);
        let _sp = span!(
            "train",
            "train",
            examples = data.len(),
            restarts = restarts,
            hidden = cfg.hidden,
        );
        esp_obs::global_metrics()
            .counter("esp_train_restarts_total")
            .add(restarts as u64);
        let total = resolve_threads(cfg.threads);
        let concurrent = total.min(restarts);
        let chunk_threads = (total / concurrent).max(1);
        let results = parallel_map_indices(concurrent, restarts, |r| {
            Mlp::train_once(
                data,
                cfg,
                cfg.seed.wrapping_add(r as u64),
                inputs,
                chunk_threads,
                r,
            )
        });
        let mut outcome: Option<(Mlp, TrainReport)> = None;
        for (m, rep) in results {
            let better = outcome
                .as_ref()
                .is_none_or(|(_, b)| rep.best_thresholded_error < b.best_thresholded_error);
            if better {
                outcome = Some((m, rep));
            }
        }
        outcome.expect("at least one restart ran")
    }

    /// One restart. Each epoch is a **single fused pass**: the gradient at
    /// the current weights, the epoch loss, and the thresholded error of
    /// those same weights all come out of `batch_gradient` together — the
    /// two-pass loop's separate `thresholded_error` sweep is gone.
    ///
    /// The bookkeeping is shifted, not changed: epoch `e`'s fused pass
    /// scores the weights produced by epoch `e−1`'s update, which is exactly
    /// the value the two-pass loop examined at the *end* of epoch `e−1`. The
    /// early-stopping comparisons therefore see the identical sequence of
    /// (bitwise-identical) thresholded errors at the identical weight
    /// states, and the whole trajectory — weights, epoch count, stop reason,
    /// report — reproduces the reference implementation bit for bit. Only
    /// the weights left by the *final* update (when patience never fired)
    /// still need a standalone sweep after the loop.
    fn train_once(
        data: &[TrainExample],
        cfg: &MlpConfig,
        seed: u64,
        inputs: usize,
        threads: usize,
        restart: usize,
    ) -> (Mlp, TrainReport) {
        let mut restart_span = span!("train", "restart", restart = restart, seed = seed);
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut mlp = Mlp::new_random(inputs, cfg.hidden, &mut rng);
        let num_chunks = data.len().div_ceil(GRAD_CHUNK);
        let mut bufs: Vec<GradChunk> = (0..num_chunks).map(|_| GradChunk::like(&mlp)).collect();
        let mut losses = vec![0.0; num_chunks];
        let mut terr_buf = vec![0.0; data.len()];
        let mut lr = cfg.learning_rate;
        // Normalise the step by total example weight so hyper-parameters are
        // insensitive to corpus size.
        let total_weight: f64 = data.iter().map(|d| d.weight).sum::<f64>().max(1e-12);

        let mut best = mlp.clone();
        // The initial weights are scored by epoch 0's fused pass; a
        // standalone sweep is only needed when the loop never runs.
        let mut best_terr = if cfg.max_epochs == 0 {
            mlp.thresholded_error(data)
        } else {
            f64::INFINITY
        };
        let mut prev_loss = f64::INFINITY;
        let mut since_best = 0usize;
        let mut epochs = 0usize;
        let mut final_loss = 0.0;

        let mut stop_reason = "max_epochs";
        for epoch in 0..cfg.max_epochs {
            let mut epoch_span = span!("train", "epoch", restart = restart, epoch = epoch);
            let (loss, terr) =
                mlp.batch_gradient(data, cfg.loss, &mut bufs, &mut losses, &mut terr_buf, threads);
            // `terr` scores the weights entering this epoch — the value the
            // two-pass loop acted on at the end of the previous epoch.
            if epoch == 0 {
                best_terr = terr;
            } else if terr < best_terr - 1e-12 {
                best_terr = terr;
                best.params.copy_from_slice(&mlp.params);
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= cfg.patience {
                    stop_reason = "patience";
                    break;
                }
            }
            epochs = epoch + 1;
            mlp.apply(&bufs[0].g, lr / total_weight);
            // Adaptive learning rate, no momentum (paper §3.1.1). Clamped so
            // a long run of improving epochs cannot blow the step size up.
            lr *= if loss < prev_loss { cfg.lr_up } else { cfg.lr_down };
            lr = lr.clamp(1e-5, 40.0 * cfg.learning_rate);
            prev_loss = loss;
            final_loss = loss;
            if epoch_span.is_enabled() {
                epoch_span.arg("loss", loss);
                epoch_span.arg("lr", lr);
                epoch_span.arg("terr_pre", terr);
            }
        }
        if stop_reason == "max_epochs" && epochs > 0 {
            // The last update's weights never went through a fused pass;
            // score them with the standalone sweep (same association).
            let terr = mlp.thresholded_error(data);
            if terr < best_terr - 1e-12 {
                best_terr = terr;
                best.params.copy_from_slice(&mlp.params);
            } else {
                since_best += 1;
                if since_best >= cfg.patience {
                    stop_reason = "patience";
                }
            }
        }
        let m = esp_obs::global_metrics();
        m.counter("esp_train_epochs_total").add(epochs as u64);
        m.counter(if stop_reason == "patience" {
            "esp_train_stop_patience_total"
        } else {
            "esp_train_stop_max_epochs_total"
        })
        .inc();
        if restart_span.is_enabled() {
            restart_span.arg("epochs", epochs);
            restart_span.arg("stop", stop_reason);
            restart_span.arg("best_terr", best_terr);
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

/// One example's thresholded misprediction mass: the loss term with `y`
/// snapped to 0 or 1, the quantity early stopping acts on.
#[inline]
fn threshold_term(y: f64, target: f64, weight: f64) -> f64 {
    let y = if y > 0.5 { 1.0 } else { 0.0 };
    weight * (y * (1.0 - target) + target * (1.0 - y))
}

/// One gradient chunk's reusable state: the flat gradient accumulator and
/// the hidden-activation scratch of whichever worker runs the chunk.
struct GradChunk {
    /// Flat gradient, `flat_weights` layout, `num_params` long.
    g: Vec<f64>,
    /// Hidden-activation scratch, `hidden` long.
    h: Vec<f64>,
}

impl GradChunk {
    fn like(m: &Mlp) -> Self {
        GradChunk {
            g: vec![0.0; m.params.len()],
            h: vec![0.0; m.hidden],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> Vec<TrainExample> {
        let mut out = Vec::new();
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] {
            let t = if (a > 0.5) != (b > 0.5) { 1.0 } else { 0.0 };
            // replicate to give batch descent something to chew on
            for _ in 0..8 {
                out.push(TrainExample {
                    x: vec![a * 2.0 - 1.0, b * 2.0 - 1.0],
                    target: t,
                    weight: 1.0,
                });
            }
        }
        out
    }

    #[test]
    fn output_is_in_unit_interval() {
        let mut rng = Pcg32::seed_from_u64(1);
        let m = Mlp::new_random(5, 7, &mut rng);
        for i in 0..50 {
            let x: Vec<f64> = (0..5).map(|j| ((i * 7 + j) as f64).sin() * 3.0).collect();
            let y = m.predict(&x);
            assert!((0.0..=1.0).contains(&y), "y = {y}");
        }
        assert_eq!(m.num_inputs(), 5);
        assert_eq!(m.num_hidden(), 7);
        assert_eq!(m.num_params(), 5 * 7 + 7 + 7 + 1);
    }

    #[test]
    fn learns_xor_with_sse_loss() {
        let data = xor_data();
        let cfg = MlpConfig {
            hidden: 8,
            loss: LossKind::Sse,
            restarts: 1,
            max_epochs: 5000,
            patience: 1000,
            learning_rate: 0.5,
            seed: 42,
            ..MlpConfig::default()
        };
        let (m, report) = Mlp::train(&data, &cfg);
        assert!(
            report.best_thresholded_error < 1e-9,
            "xor not learned: terr = {}",
            report.best_thresholded_error
        );
        assert!(m.predict(&[-1.0, 1.0]) > 0.5);
        assert!(m.predict(&[1.0, 1.0]) < 0.5);
    }

    #[test]
    fn restarts_never_hurt() {
        let data = xor_data();
        let base = MlpConfig {
            hidden: 8,
            max_epochs: 800,
            patience: 200,
            learning_rate: 0.3,
            seed: 1,
            ..MlpConfig::default()
        };
        let (_, one) = Mlp::train(
            &data,
            &MlpConfig {
                restarts: 1,
                ..base.clone()
            },
        );
        let (_, many) = Mlp::train(
            &data,
            &MlpConfig {
                restarts: 6,
                ..base
            },
        );
        assert!(many.best_thresholded_error <= one.best_thresholded_error);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let data: Vec<TrainExample> = (0..10)
            .map(|i| TrainExample {
                x: vec![(i as f64) / 5.0 - 1.0, ((i * 3) % 7) as f64 / 3.0 - 1.0],
                target: ((i % 3) as f64) / 2.0,
                weight: 0.5 + (i as f64) / 10.0,
            })
            .collect();
        let mut rng = Pcg32::seed_from_u64(9);
        let m = Mlp::new_random(2, 3, &mut rng);
        let mut grad = vec![0.0; m.num_params()];
        let mut scratch = Vec::new();
        let mut terr = vec![0.0; data.len()];
        m.accumulate_gradient(&data, LossKind::Linear, &mut grad, &mut scratch, &mut terr);

        // The fused pass's terr terms sum (serially) to exactly the
        // standalone sweep's value.
        let fused_terr: f64 = terr.iter().sum();
        assert_eq!(fused_terr.to_bits(), m.thresholded_error(&data).to_bits());

        let eps = 1e-6;
        // representative flat indices for (inputs=2, hidden=3):
        // w[1][0] = 2, b[2] = 6+2, v[0] = 9, a = 12
        for idx in [2usize, 8, 9, 12] {
            let analytic = grad[idx];
            let mut fp = m.flat_weights();
            fp[idx] += eps;
            let mp = Mlp::from_flat_weights(2, 3, &fp).expect("valid length");
            let mut fm = m.flat_weights();
            fm[idx] -= eps;
            let mm = Mlp::from_flat_weights(2, 3, &fm).expect("valid length");
            let numeric = (mp.loss(&data) - mm.loss(&data)) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-6,
                "gradient mismatch at {idx}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn weighting_shifts_the_decision() {
        // Contradictory labels for the same input; the heavier side must win.
        let data = vec![
            TrainExample {
                x: vec![1.0],
                target: 1.0,
                weight: 10.0,
            },
            TrainExample {
                x: vec![1.0],
                target: 0.0,
                weight: 1.0,
            },
        ];
        let (m, _) = Mlp::train(
            &data,
            &MlpConfig {
                hidden: 2,
                seed: 3,
                ..MlpConfig::default()
            },
        );
        assert!(m.predict(&[1.0]) > 0.5, "heavy taken side must dominate");
    }

    #[test]
    fn zero_hidden_is_a_linear_model() {
        let mut rng = Pcg32::seed_from_u64(4);
        let m = Mlp::new_random(3, 0, &mut rng);
        assert_eq!(m.num_hidden(), 0);
        assert_eq!(m.num_params(), 3 + 1);
        let y = m.predict(&[0.1, -0.2, 0.3]);
        assert!((0.0..=1.0).contains(&y));
        // still trainable
        let data: Vec<TrainExample> = (0..20)
            .map(|i| {
                let x = (i as f64) / 10.0 - 1.0;
                TrainExample {
                    x: vec![x, 0.0, 0.0],
                    target: if x > 0.0 { 1.0 } else { 0.0 },
                    weight: 1.0,
                }
            })
            .collect();
        let (m, r) = Mlp::train(
            &data,
            &MlpConfig {
                hidden: 0,
                seed: 4,
                max_epochs: 500,
                ..MlpConfig::default()
            },
        );
        assert!(r.best_thresholded_error < 1e-9);
        assert!(m.predict(&[0.8, 0.0, 0.0]) > 0.5);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let data = xor_data();
        let cfg = MlpConfig {
            hidden: 4,
            max_epochs: 50,
            seed: 11,
            ..MlpConfig::default()
        };
        let (m1, r1) = Mlp::train(&data, &cfg);
        let (m2, r2) = Mlp::train(&data, &cfg);
        assert_eq!(r1, r2);
        assert_eq!(m1.predict(&[0.3, -0.4]), m2.predict(&[0.3, -0.4]));
    }

    /// Data big enough for several gradient chunks, varied enough that every
    /// parameter's gradient is nonzero.
    fn chunky_data(n: usize) -> Vec<TrainExample> {
        (0..n)
            .map(|i| TrainExample {
                x: vec![
                    ((i * 13) % 29) as f64 / 14.0 - 1.0,
                    ((i * 7) % 23) as f64 / 11.0 - 1.0,
                    ((i * 31) % 17) as f64 / 8.0 - 1.0,
                ],
                target: ((i * 11) % 10) as f64 / 9.0,
                weight: 0.2 + ((i * 3) % 7) as f64 / 5.0,
            })
            .collect()
    }

    #[test]
    fn chunked_gradient_matches_serial_accumulator() {
        // The chunked, tree-reduced gradient must agree with the plain
        // serial accumulator (one chunk spanning all data) up to float
        // reassociation noise.
        let data = chunky_data(GRAD_CHUNK * 3 + 17);
        let mut rng = Pcg32::seed_from_u64(21);
        let m = Mlp::new_random(3, 5, &mut rng);

        let mut serial = vec![0.0; m.num_params()];
        let mut scratch = Vec::new();
        let mut terr = vec![0.0; data.len()];
        let serial_loss =
            m.accumulate_gradient(&data, LossKind::Linear, &mut serial, &mut scratch, &mut terr);

        let k = data.len().div_ceil(GRAD_CHUNK);
        let mut bufs: Vec<GradChunk> = (0..k).map(|_| GradChunk::like(&m)).collect();
        let mut losses = vec![0.0; k];
        let mut terr_buf = vec![0.0; data.len()];
        let (chunked_loss, chunked_terr) =
            m.batch_gradient(&data, LossKind::Linear, &mut bufs, &mut losses, &mut terr_buf, 1);

        assert!((serial_loss - chunked_loss).abs() < 1e-9);
        for (s, c) in serial.iter().zip(&bufs[0].g) {
            assert!((s - c).abs() < 1e-9, "gradient diverged: {s} vs {c}");
        }
        // The terr sum is chunk-independent outright: per-example terms in
        // a flat buffer, summed serially.
        let serial_terr: f64 = terr.iter().sum();
        assert_eq!(serial_terr.to_bits(), chunked_terr.to_bits());
    }

    #[test]
    fn chunked_gradient_is_bitwise_identical_across_thread_counts() {
        let data = chunky_data(GRAD_CHUNK * 5 + 3);
        let mut rng = Pcg32::seed_from_u64(22);
        let m = Mlp::new_random(3, 6, &mut rng);
        let k = data.len().div_ceil(GRAD_CHUNK);

        let grad_bits = |threads: usize| -> (u64, u64, Vec<u64>) {
            let mut bufs: Vec<GradChunk> = (0..k).map(|_| GradChunk::like(&m)).collect();
            let mut losses = vec![0.0; k];
            let mut terr_buf = vec![0.0; data.len()];
            let (loss, terr) =
                m.batch_gradient(&data, LossKind::Linear, &mut bufs, &mut losses, &mut terr_buf, threads);
            let bits: Vec<u64> = bufs[0].g.iter().map(|x| x.to_bits()).collect();
            (loss.to_bits(), terr.to_bits(), bits)
        };

        let reference = grad_bits(1);
        for threads in [2, 4, 8] {
            assert_eq!(grad_bits(threads), reference, "threads={threads} diverged");
        }
    }

    #[test]
    fn training_is_bitwise_identical_across_thread_counts() {
        let data = chunky_data(GRAD_CHUNK * 2 + 9);
        let base = MlpConfig {
            hidden: 5,
            restarts: 3,
            max_epochs: 40,
            patience: 40,
            seed: 77,
            ..MlpConfig::default()
        };
        let (m1, r1) = Mlp::train(&data, &MlpConfig { threads: 1, ..base.clone() });
        for threads in [2, 4] {
            let (mt, rt) = Mlp::train(&data, &MlpConfig { threads, ..base.clone() });
            assert_eq!(r1, rt, "threads={threads} report diverged");
            let b1: Vec<u64> = m1.flat_weights().iter().map(|x| x.to_bits()).collect();
            let bt: Vec<u64> = mt.flat_weights().iter().map(|x| x.to_bits()).collect();
            assert_eq!(b1, bt, "threads={threads} weights diverged");
        }
    }

    #[test]
    fn flat_weights_round_trip_bitwise() {
        for hidden in [0, 5] {
            let mut rng = Pcg32::seed_from_u64(31);
            let m = Mlp::new_random(4, hidden, &mut rng);
            let flat = m.flat_weights();
            assert_eq!(flat.len(), Mlp::param_count(4, hidden));
            let back = Mlp::from_flat_weights(4, hidden, &flat).expect("valid length");
            assert_eq!(back, m);
            let x = [0.3, -1.2, 0.9, 0.05];
            assert_eq!(back.predict(&x).to_bits(), m.predict(&x).to_bits());
            assert!(Mlp::from_flat_weights(4, hidden, &flat[1..]).is_none());
        }
    }

    #[test]
    fn batch_predict_matches_single_row_predict() {
        let mut rng = Pcg32::seed_from_u64(33);
        for hidden in [0, 6] {
            let m = Mlp::new_random(4, hidden, &mut rng);
            let rows: Vec<Vec<f64>> = (0..25)
                .map(|i| (0..4).map(|j| ((i * 5 + j * 3) as f64).cos()).collect())
                .collect();
            let mut batched = Vec::new();
            m.predict_batch_into(rows.iter().map(|r| r.as_slice()), &mut batched);
            let mut scratch = Vec::new();
            for (row, y) in rows.iter().zip(&batched) {
                assert_eq!(m.predict(row).to_bits(), y.to_bits());
                assert_eq!(
                    m.predict_with_scratch(row, &mut scratch).to_bits(),
                    y.to_bits()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty corpus")]
    fn empty_training_set_rejected() {
        let _ = Mlp::train(&[], &MlpConfig::default());
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn dimension_mismatch_rejected() {
        let data = vec![TrainExample {
            x: vec![0.0, 1.0],
            target: 1.0,
            weight: 1.0,
        }];
        let (m, _) = Mlp::train(
            &data,
            &MlpConfig {
                hidden: 2,
                max_epochs: 1,
                ..MlpConfig::default()
            },
        );
        let _ = m.predict(&[0.0]);
    }
}
