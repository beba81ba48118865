//! Batch-major panel kernels: the autovectorizable multi-example forward
//! pass that serving and training share.
//!
//! The scalar forward in [`crate::Mlp`] ([`crate::Mlp::predict`] and the
//! loss sweeps) walks one example at a time; its inner dot products are
//! serial dependency chains (each `+=` waits on the last), so LLVM cannot
//! vectorize them without reassociating the sum — which would change bits.
//! The panel kernel keeps every per-example sum in the *exact* reference
//! order and instead vectorizes **across examples**: a tile of
//! [`PANEL_LANES`] rows is transposed into column-major scratch
//! (`xt[j * LANES + r]` = feature `j` of row `r`), and each hidden unit
//! accumulates a stack array of `LANES` independent lane sums,
//!
//! ```text
//! for j in 0..inputs:            // same j-ascending order as the scalar path
//!     for r in 0..LANES:         // independent lanes -> SIMD
//!         acc[r] += w[i][j] * xt[j][r]
//! ```
//!
//! Lane `r` performs precisely the additions the scalar kernel performs for
//! row `r`, in the same order, from the same zero accumulator — so the f64
//! panel kernel is **bitwise identical** to [`crate::Mlp::predict`], while
//! the `r` loop (no cross-iteration dependence) autovectorizes.
//!
//! Serving ([`crate::Mlp::predict_panel_into`]) transposes each full tile
//! as it reaches it, and rows beyond the last full tile fall through to
//! the scalar kernel, which produces the same bits by the same argument.
//! Training ([`crate::Mlp::train`]) transposes its rows into tiles once
//! per call and pads the last partial tile by repeating a real row, so
//! each epoch's gradient pass forwards every example through a tile; the
//! padded lanes' outputs are dropped.
//!
//! The kernel is generic over [`f64`] and [`f32`] through [`PanelFloat`],
//! like [`crate::Mlp`] itself; the `Mlp<f32>` instantiation is the f32
//! serving path and is bitwise self-consistent with *its* scalar path (not
//! with the f64 model — quantization changes values by design).

use core::ops::{Add, AddAssign, Mul};
use std::cell::RefCell;

/// Examples per panel tile. Eight keeps the lane accumulator block
/// (`8 × f64` = one cache line) in registers while giving LLVM a full
/// SSE2/AVX vector per unrolled step; the remainder path handles
/// `rows % PANEL_LANES` scalar rows.
pub const PANEL_LANES: usize = 8;

/// Caller-owned scratch for the panel kernels: the transposed input tile,
/// the batch-major hidden activations, and a spare hidden buffer for the
/// scalar remainder rows. Grows to the model's shape once and is reused
/// across calls — the hot loop performs no heap allocation after warm-up.
#[derive(Debug, Default, Clone)]
pub struct PanelScratch<T = f64> {
    /// Column-major input tile: `xt[j * PANEL_LANES + r]`.
    pub(crate) xt: Vec<T>,
    /// Batch-major hidden activations: `h[i * PANEL_LANES + r]`.
    pub(crate) h: Vec<T>,
    /// Hidden scratch for the scalar remainder path.
    pub(crate) tail: Vec<T>,
}

impl<T> PanelScratch<T> {
    /// Fresh empty scratch; buffers grow on first use.
    pub const fn new() -> Self {
        PanelScratch {
            xt: Vec::new(),
            h: Vec::new(),
            tail: Vec::new(),
        }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for f32 {}
}

thread_local! {
    /// Per-thread kernel scratch for the entry points that take none from
    /// the caller (`Mlp::predict`, the loss sweeps, `Net::predict_panel_into`);
    /// each grows to the largest model seen on the thread and stays.
    static SCRATCH_F64: RefCell<PanelScratch<f64>> = const { RefCell::new(PanelScratch::new()) };
    static SCRATCH_F32: RefCell<PanelScratch<f32>> = const { RefCell::new(PanelScratch::new()) };
}

/// The weight precisions a [`crate::Mlp`] is instantiated at: `f64` (what
/// training produces) and `f32` (the serving narrowing). Sealed: the
/// contract ("`squash` must match the corresponding scalar kernel's output
/// step bit for bit") is an internal invariant.
pub trait PanelFloat:
    sealed::Sealed
    + Copy
    + PartialEq
    + AddAssign
    + Add<Output = Self>
    + Mul<Output = Self>
    + std::fmt::Debug
{
    /// Additive identity — the accumulator start value, as in the scalar path.
    const ZERO: Self;
    /// Narrow (or pass through) one input feature.
    fn cast(x: f64) -> Self;
    /// `tanh` at this precision.
    fn tanh_(self) -> Self;
    /// The output squash `½·tanh(z) + ½`, computed at this precision and
    /// only then widened to `f64` — bit-for-bit the scalar kernel's step.
    fn squash(self) -> f64;
    /// Run `f` on this thread's reusable scratch at this precision.
    fn with_scratch<R>(f: impl FnOnce(&mut PanelScratch<Self>) -> R) -> R;
}

impl PanelFloat for f64 {
    const ZERO: Self = 0.0;
    #[inline]
    fn cast(x: f64) -> f64 {
        x
    }
    #[inline]
    fn tanh_(self) -> f64 {
        self.tanh()
    }
    #[inline]
    fn squash(self) -> f64 {
        0.5 * self.tanh() + 0.5
    }
    fn with_scratch<R>(f: impl FnOnce(&mut PanelScratch<f64>) -> R) -> R {
        SCRATCH_F64.with(|cell| f(&mut cell.borrow_mut()))
    }
}

impl PanelFloat for f32 {
    const ZERO: Self = 0.0;
    #[inline]
    fn cast(x: f64) -> f32 {
        x as f32
    }
    #[inline]
    fn tanh_(self) -> f32 {
        self.tanh()
    }
    #[inline]
    fn squash(self) -> f64 {
        (0.5 * self.tanh() + 0.5) as f64
    }
    fn with_scratch<R>(f: impl FnOnce(&mut PanelScratch<f32>) -> R) -> R {
        SCRATCH_F32.with(|cell| f(&mut cell.borrow_mut()))
    }
}

/// Transpose `rows` examples (`1..=PANEL_LANES`) into one tile,
/// `xt[j * PANEL_LANES + r]` = feature `j` of row `r`, where `row(r)` is
/// row `r`'s features. Lanes past the last row repeat it, so a partial
/// tile computes on real values; callers drop those lanes' outputs.
pub(crate) fn transpose_tile<'a, T: PanelFloat>(
    rows: usize,
    row: impl Fn(usize) -> &'a [f64],
    xt: &mut [T],
) {
    const L: usize = PANEL_LANES;
    debug_assert!((1..=L).contains(&rows));
    for r in 0..L {
        for (j, &x) in row(r.min(rows - 1)).iter().enumerate() {
            xt[j * L + r] = T::cast(x);
        }
    }
}

/// Forward one transposed tile `xt` (see [`transpose_tile`]), returning
/// one probability per lane and leaving the batch-major hidden
/// activations in `h` (`h[i * PANEL_LANES + r]`, `hidden * PANEL_LANES`
/// long). `params` is the flat `[w rows | b | v | a]` buffer at the
/// kernel's precision. Each lane reproduces the scalar summation order
/// exactly; see the module docs for why that makes the f64 instantiation
/// bitwise identical to the scalar path.
pub(crate) fn panel_tile<T: PanelFloat>(
    params: &[T],
    inputs: usize,
    hidden: usize,
    xt: &[T],
    h: &mut [T],
) -> [f64; PANEL_LANES] {
    const L: usize = PANEL_LANES;
    debug_assert_eq!(xt.len(), inputs * L);
    debug_assert_eq!(h.len(), hidden * L);

    if hidden == 0 {
        let mut z = [T::ZERO; L];
        for (col, &v) in xt.chunks_exact(L).zip(&params[..inputs]) {
            for r in 0..L {
                z[r] += v * col[r];
            }
        }
        let a = params[inputs];
        return z.map(|zr| (zr + a).squash());
    }

    let b_off = hidden * inputs;
    let v_off = b_off + hidden;
    for (i, hrow) in h.chunks_exact_mut(L).enumerate() {
        let wrow = &params[i * inputs..(i + 1) * inputs];
        let mut acc = [T::ZERO; L];
        for (col, &w) in xt.chunks_exact(L).zip(wrow) {
            for r in 0..L {
                acc[r] += w * col[r];
            }
        }
        let b = params[b_off + i];
        for (hr, &ar) in hrow.iter_mut().zip(acc.iter()) {
            *hr = (ar + b).tanh_();
        }
    }
    let mut z = [T::ZERO; L];
    for (hrow, &v) in h.chunks_exact(L).zip(&params[v_off..v_off + hidden]) {
        for r in 0..L {
            z[r] += v * hrow[r];
        }
    }
    let a = params[v_off + hidden];
    z.map(|zr| (zr + a).squash())
}
