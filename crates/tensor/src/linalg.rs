//! Matrix products.
//!
//! Fully connected layers, and convolutions lowered through the im2col
//! index math of [`crate::conv`], reduce to the GEMM here. All entry
//! points route through one blocked, register-tiled kernel ([`MR`]×[`NR`]
//! accumulator tiles over a packed right-hand operand), with a
//! multithreaded row-panel path above [`PARALLEL_MIN_FLOPS`] (tunable via
//! [`crate::tune::KernelTuning::gemm_min_flops`]). The transposed variants
//! ([`matmul_at`], [`matmul_bt`]) pack their panels *directly from the
//! strided source layout* — no transposed copy is ever materialized — and
//! the `*_into` entry points ([`matmul_into`], [`matmul_at_into`],
//! [`matmul_bt_into`]) write into caller-owned buffers so hot paths can
//! run without per-call allocation (the packed-B scratch is thread-local
//! and reused across products).
//!
//! # Determinism contract
//!
//! Every output element is accumulated in strictly increasing `k` order
//! starting from `0.0`, exactly like the reference `i-k-j` triple loop —
//! register tiling changes *which* elements are in flight, never the
//! per-element summation order, and the threaded path splits the rows
//! into disjoint ranges, each computed identically to the serial path. Results
//! are therefore **bit-identical** across block sizes and `--threads`
//! settings *within one SIMD backend*, which the Monte Carlo harness
//! relies on for reproducibility.
//!
//! The microkernel dispatches on [`crate::simd::backend`]: the scalar
//! backend runs the portable tile below (the reference), while the
//! AVX2/AVX-512/NEON backends run hand-vectorized tiles that fuse each
//! multiply-accumulate (single rounding per `k` step). A vector backend
//! therefore drifts from the scalar reference by ~1 ulp per `k` step —
//! pinned to [`crate::simd::GEMM_DRIFT_TOL`] by
//! `tests/simd_vs_scalar.rs` — but stays fully deterministic on a given
//! backend. Relative to [`matmul_reference`] (the un-fused `i-k-j`
//! loop) the scalar blocked kernel is bit-identical on builds without
//! hardware FMA and ulp-tolerance-identical otherwise; see the private
//! `mac` helper.
//!
//! Accumulation is in `f32` (matching the precision a CiM accelerator's
//! digital periphery would use). Non-finite inputs propagate per IEEE-754:
//! unlike the pre-workspace kernel, `0.0` entries are *not* skipped, so
//! `0.0 × NaN` and `0.0 × ∞` contribute `NaN` as true GEMM requires.

use crate::par;
use crate::simd::{self, Backend};
use crate::tensor::Tensor;
use crate::tune::{self, GemmPlan};

/// Rows per microkernel register tile.
pub const MR: usize = 4;
/// Columns per packed panel (and per microkernel register tile).
pub const NR: usize = 32;
/// Default minimum multiply count (`m·n·k`) before the row-panel
/// threaded path engages; below it, thread-spawn overhead dominates.
/// Library callers can pin another value through
/// [`crate::tune::KernelTuning::gemm_min_flops`].
///
/// The default was chosen by measuring the spawn+join cost of the scoped
/// worker threads (~15–40 µs per spawn on the benchmarked hosts) against
/// the kernel's single-core throughput (several GFLOP/s): at `2²²`
/// multiplies a serial product runs ≈1 ms, so the fixed threading cost
/// stays in the low single-digit percents. Re-measured 2026-08: still
/// the best fixed threshold on the measured hosts. The threaded path
/// engages only off a parallel worker: inside a Monte Carlo run or a
/// served block every product is serial (see [`crate::par`]).
pub const PARALLEL_MIN_FLOPS: usize = 1 << 22;

/// Sets the process default worker-thread count for large matrix
/// products.
///
/// Deprecated alias for installing a [`crate::tune::KernelTuning`] with
/// `gemm_threads` set; kept so pre-tune callers keep compiling. `0`
/// restores the automatic count (see [`crate::par`]). Threads inside
/// a [`crate::tune::with_tuning`] scope keep their own value; results
/// are bit-identical for every value.
pub fn set_gemm_threads(threads: usize) {
    tune::update_default(|c| c.gemm_threads = threads);
}

/// The worker-thread count large products will use.
pub fn gemm_threads() -> usize {
    tune::gemm_threads()
}

/// Sets the process default cache-blocking width (columns per packed
/// panel group).
///
/// Deprecated alias for [`crate::tune::KernelTuning::gemm_block_cols`].
/// `0` restores the automatic choice. Rounded up to a multiple of
/// [`NR`]; purely a performance knob — results are bit-identical for
/// every value.
pub fn set_gemm_block_cols(cols: usize) {
    tune::update_default(|c| c.gemm_block_cols = cols);
}

/// The effective column-block width for an `m×k · k×n` product: the
/// pinned width, else the cache-resident heuristic.
pub fn gemm_block_cols(k: usize, n: usize) -> usize {
    tune::gemm_block_cols(k, n)
}

/// Strided view of a rank-2 operand: logical element `(i, j)` lives at
/// `data[i·row_stride + j·col_stride]`.
///
/// This is what lets [`matmul_at`]/[`matmul_bt`] feed the kernel the
/// *transposed* interpretation of an operand without materializing a
/// transposed copy: a row-major `k×m` matrix read as its `m×k` transpose
/// is just `row_stride = 1, col_stride = m`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Strides {
    row: usize,
    col: usize,
}

impl Strides {
    /// Row-major (contiguous) layout for a matrix with `cols` columns.
    pub(crate) fn contiguous(cols: usize) -> Strides {
        Strides { row: cols, col: 1 }
    }

    /// The transpose of a row-major matrix that had `cols` columns.
    pub(crate) fn transposed(cols: usize) -> Strides {
        Strides { row: 1, col: cols }
    }
}

/// Packs the logical `k×n` matrix `(b, strides)` into NR-wide column
/// panels inside `packed` (resized, contents reused across calls).
///
/// Panel `p` holds columns `p·NR .. (p+1)·NR` interleaved so the
/// microkernel streams it contiguously: element `(row, col)` of the panel
/// lives at `panel_base + row·NR + col`. The tail panel is zero-padded;
/// padded lanes are computed and discarded, never stored. The packed
/// layout is identical for both source layouts, so downstream arithmetic
/// cannot depend on which one the caller had.
pub(crate) fn pack_panels(b: &[f32], strides: Strides, k: usize, n: usize, packed: &mut Vec<f32>) {
    let panels = n.div_ceil(NR);
    packed.clear();
    packed.resize(panels * k * NR, 0.0);
    for panel in 0..panels {
        let j0 = panel * NR;
        let width = NR.min(n - j0);
        let base = panel * k * NR;
        if strides.col == 1 {
            for p in 0..k {
                let src = &b[p * strides.row + j0..p * strides.row + j0 + width];
                packed[base + p * NR..base + p * NR + width].copy_from_slice(src);
            }
        } else {
            // Transposed source: a panel row gathers a strided sweep.
            for p in 0..k {
                let row0 = p * strides.row;
                let dst = &mut packed[base + p * NR..base + p * NR + width];
                for (c, d) in dst.iter_mut().enumerate() {
                    *d = b[row0 + (j0 + c) * strides.col];
                }
            }
        }
    }
}

/// Packs logical rows `[row0, row0 + rows)` of the `(a, strides)` matrix
/// into `dst` as a contiguous row-major `rows×k` panel.
///
/// For a transposed source (`row_stride == 1`) the sweep runs `k`-outer,
/// so the rows being gathered at each `k` step are *adjacent* floats —
/// one cache-line read feeds many output rows, which is what makes this
/// integrated packing cheaper than the `transpose_flat` pre-pass it
/// replaced (and it reuses a thread-local buffer instead of allocating).
fn pack_a_panel(a: &[f32], strides: Strides, k: usize, row0: usize, rows: usize, dst: &mut [f32]) {
    debug_assert!(dst.len() >= rows * k);
    // Process MR rows at a time so the gather keeps a bounded number of
    // write streams while still sharing each source cache line across
    // the group (the group's rows are adjacent floats when row_stride
    // is 1).
    let mut r = 0;
    while r < rows {
        let group = MR.min(rows - r);
        let gbase = (row0 + r) * strides.row;
        for p in 0..k {
            let base = gbase + p * strides.col;
            for t in 0..group {
                dst[(r + t) * k + p] = a[base + t * strides.row];
            }
        }
        r += group;
    }
}

/// One multiply-accumulate step of the scalar reference kernel.
///
/// Deliberately the unfused two-rounding form, *never* `mul_add`: the
/// scalar backend is the pinned reference whose bytes must not depend
/// on build flags or the build host's CPU, and `mul_add` would fuse (one
/// rounding) exactly when the target has hardware FMA. The vector
/// backends opt into fusion explicitly via FMA intrinsics, which is
/// where their (pinned, bounded) drift against this reference comes
/// from — see `simd::GEMM_DRIFT_TOL` and `docs/simd.md`.
#[inline(always)]
fn mac(acc: f32, a: f32, b: f32) -> f32 {
    acc + a * b
}

/// Computes one `4 × NR` register tile: `acc[r][c] = Σ_p a_r[p] ·
/// panel[p·NR + c]`, accumulating in increasing `p` order from `0.0`.
///
/// The zipped iterators make every access bounds-check-free, and the
/// four separate accumulator locals keep the tile in vector registers;
/// one panel row load is amortized over four output rows.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn microkernel_4(
    k: usize,
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    panel: &[f32],
) -> [[f32; NR]; 4] {
    let (mut acc0, mut acc1, mut acc2, mut acc3) =
        ([0.0f32; NR], [0.0f32; NR], [0.0f32; NR], [0.0f32; NR]);
    let rows = a0[..k]
        .iter()
        .zip(&a1[..k])
        .zip(&a2[..k])
        .zip(&a3[..k])
        .zip(panel[..k * NR].chunks_exact(NR));
    for ((((&v0, &v1), &v2), &v3), brow) in rows {
        for c in 0..NR {
            acc0[c] = mac(acc0[c], v0, brow[c]);
            acc1[c] = mac(acc1[c], v1, brow[c]);
            acc2[c] = mac(acc2[c], v2, brow[c]);
            acc3[c] = mac(acc3[c], v3, brow[c]);
        }
    }
    [acc0, acc1, acc2, acc3]
}

/// Single-row variant of [`microkernel_4`] for the `m % 4` tail rows.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn microkernel_1(k: usize, a0: &[f32], panel: &[f32]) -> [f32; NR] {
    let mut acc = [0.0f32; NR];
    for (&v0, brow) in a0[..k].iter().zip(panel[..k * NR].chunks_exact(NR)) {
        for c in 0..NR {
            acc[c] = mac(acc[c], v0, brow[c]);
        }
    }
    acc
}

/// Hand-vectorized x86-64 microkernels (AVX2+FMA and AVX-512F).
///
/// Same contract as the scalar tiles: every output column accumulates
/// in strictly increasing `k` order from `0.0`, so each backend is
/// deterministic across block sizes and thread counts. The FMA fuses
/// the multiply-accumulate into one rounding, which is where the
/// (pinned) drift against the scalar reference comes from.
#[cfg(target_arch = "x86_64")]
mod kernels_x86 {
    use super::NR;
    use core::arch::x86_64::*;

    /// 4×[`NR`] tile over two 16-column half-panels: 8 `ymm`
    /// accumulators, two panel loads and four broadcasts per `k` step.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available; `a0..a3` must each hold `k` readable
    /// elements and `panel` at least `k * NR`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn microkernel_4_avx2(
        k: usize,
        a0: &[f32],
        a1: &[f32],
        a2: &[f32],
        a3: &[f32],
        panel: &[f32],
        out: &mut [[f32; NR]; 4],
    ) {
        debug_assert!(panel.len() >= k * NR);
        unsafe {
            let pp = panel.as_ptr();
            for half in 0..2 {
                let off = half * 16;
                let (mut c00, mut c01) = (_mm256_setzero_ps(), _mm256_setzero_ps());
                let (mut c10, mut c11) = (_mm256_setzero_ps(), _mm256_setzero_ps());
                let (mut c20, mut c21) = (_mm256_setzero_ps(), _mm256_setzero_ps());
                let (mut c30, mut c31) = (_mm256_setzero_ps(), _mm256_setzero_ps());
                for p in 0..k {
                    let bp = pp.add(p * NR + off);
                    let b0 = _mm256_loadu_ps(bp);
                    let b1 = _mm256_loadu_ps(bp.add(8));
                    let a = _mm256_set1_ps(*a0.get_unchecked(p));
                    c00 = _mm256_fmadd_ps(a, b0, c00);
                    c01 = _mm256_fmadd_ps(a, b1, c01);
                    let a = _mm256_set1_ps(*a1.get_unchecked(p));
                    c10 = _mm256_fmadd_ps(a, b0, c10);
                    c11 = _mm256_fmadd_ps(a, b1, c11);
                    let a = _mm256_set1_ps(*a2.get_unchecked(p));
                    c20 = _mm256_fmadd_ps(a, b0, c20);
                    c21 = _mm256_fmadd_ps(a, b1, c21);
                    let a = _mm256_set1_ps(*a3.get_unchecked(p));
                    c30 = _mm256_fmadd_ps(a, b0, c30);
                    c31 = _mm256_fmadd_ps(a, b1, c31);
                }
                _mm256_storeu_ps(out[0].as_mut_ptr().add(off), c00);
                _mm256_storeu_ps(out[0].as_mut_ptr().add(off + 8), c01);
                _mm256_storeu_ps(out[1].as_mut_ptr().add(off), c10);
                _mm256_storeu_ps(out[1].as_mut_ptr().add(off + 8), c11);
                _mm256_storeu_ps(out[2].as_mut_ptr().add(off), c20);
                _mm256_storeu_ps(out[2].as_mut_ptr().add(off + 8), c21);
                _mm256_storeu_ps(out[3].as_mut_ptr().add(off), c30);
                _mm256_storeu_ps(out[3].as_mut_ptr().add(off + 8), c31);
            }
        }
    }

    /// Single-row AVX2 tile: 4 `ymm` accumulators cover the full panel.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be available; `a0` must hold `k` readable elements
    /// and `panel` at least `k * NR`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn microkernel_1_avx2(k: usize, a0: &[f32], panel: &[f32], out: &mut [f32; NR]) {
        debug_assert!(panel.len() >= k * NR);
        unsafe {
            let pp = panel.as_ptr();
            let mut c0 = _mm256_setzero_ps();
            let mut c1 = _mm256_setzero_ps();
            let mut c2 = _mm256_setzero_ps();
            let mut c3 = _mm256_setzero_ps();
            for p in 0..k {
                let bp = pp.add(p * NR);
                let a = _mm256_set1_ps(*a0.get_unchecked(p));
                c0 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp), c0);
                c1 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp.add(8)), c1);
                c2 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp.add(16)), c2);
                c3 = _mm256_fmadd_ps(a, _mm256_loadu_ps(bp.add(24)), c3);
            }
            _mm256_storeu_ps(out.as_mut_ptr(), c0);
            _mm256_storeu_ps(out.as_mut_ptr().add(8), c1);
            _mm256_storeu_ps(out.as_mut_ptr().add(16), c2);
            _mm256_storeu_ps(out.as_mut_ptr().add(24), c3);
        }
    }

    /// 4×[`NR`] AVX-512F tile: the full 32-column panel in one pass,
    /// 8 `zmm` accumulators.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available; `a0..a3` must each hold `k` readable
    /// elements and `panel` at least `k * NR`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn microkernel_4_avx512(
        k: usize,
        a0: &[f32],
        a1: &[f32],
        a2: &[f32],
        a3: &[f32],
        panel: &[f32],
        out: &mut [[f32; NR]; 4],
    ) {
        debug_assert!(panel.len() >= k * NR);
        unsafe {
            let pp = panel.as_ptr();
            let (mut c00, mut c01) = (_mm512_setzero_ps(), _mm512_setzero_ps());
            let (mut c10, mut c11) = (_mm512_setzero_ps(), _mm512_setzero_ps());
            let (mut c20, mut c21) = (_mm512_setzero_ps(), _mm512_setzero_ps());
            let (mut c30, mut c31) = (_mm512_setzero_ps(), _mm512_setzero_ps());
            for p in 0..k {
                let bp = pp.add(p * NR);
                let b0 = _mm512_loadu_ps(bp);
                let b1 = _mm512_loadu_ps(bp.add(16));
                let a = _mm512_set1_ps(*a0.get_unchecked(p));
                c00 = _mm512_fmadd_ps(a, b0, c00);
                c01 = _mm512_fmadd_ps(a, b1, c01);
                let a = _mm512_set1_ps(*a1.get_unchecked(p));
                c10 = _mm512_fmadd_ps(a, b0, c10);
                c11 = _mm512_fmadd_ps(a, b1, c11);
                let a = _mm512_set1_ps(*a2.get_unchecked(p));
                c20 = _mm512_fmadd_ps(a, b0, c20);
                c21 = _mm512_fmadd_ps(a, b1, c21);
                let a = _mm512_set1_ps(*a3.get_unchecked(p));
                c30 = _mm512_fmadd_ps(a, b0, c30);
                c31 = _mm512_fmadd_ps(a, b1, c31);
            }
            _mm512_storeu_ps(out[0].as_mut_ptr(), c00);
            _mm512_storeu_ps(out[0].as_mut_ptr().add(16), c01);
            _mm512_storeu_ps(out[1].as_mut_ptr(), c10);
            _mm512_storeu_ps(out[1].as_mut_ptr().add(16), c11);
            _mm512_storeu_ps(out[2].as_mut_ptr(), c20);
            _mm512_storeu_ps(out[2].as_mut_ptr().add(16), c21);
            _mm512_storeu_ps(out[3].as_mut_ptr(), c30);
            _mm512_storeu_ps(out[3].as_mut_ptr().add(16), c31);
        }
    }

    /// Single-row AVX-512F tile: 2 `zmm` accumulators.
    ///
    /// # Safety
    ///
    /// AVX-512F must be available; `a0` must hold `k` readable elements
    /// and `panel` at least `k * NR`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn microkernel_1_avx512(k: usize, a0: &[f32], panel: &[f32], out: &mut [f32; NR]) {
        debug_assert!(panel.len() >= k * NR);
        unsafe {
            let pp = panel.as_ptr();
            let mut c0 = _mm512_setzero_ps();
            let mut c1 = _mm512_setzero_ps();
            for p in 0..k {
                let bp = pp.add(p * NR);
                let a = _mm512_set1_ps(*a0.get_unchecked(p));
                c0 = _mm512_fmadd_ps(a, _mm512_loadu_ps(bp), c0);
                c1 = _mm512_fmadd_ps(a, _mm512_loadu_ps(bp.add(16)), c1);
            }
            _mm512_storeu_ps(out.as_mut_ptr(), c0);
            _mm512_storeu_ps(out.as_mut_ptr().add(16), c1);
        }
    }
}

/// Hand-vectorized AArch64 NEON microkernels; same contract as
/// [`kernels_x86`].
#[cfg(target_arch = "aarch64")]
mod kernels_neon {
    use super::NR;
    use core::arch::aarch64::*;

    /// 4×[`NR`] tile over four 8-column quarter-panels: 8 `q`
    /// accumulators each pass, FMLA-by-scalar per row.
    ///
    /// # Safety
    ///
    /// `a0..a3` must each hold `k` readable elements and `panel` at
    /// least `k * NR`.
    #[target_feature(enable = "neon")]
    pub unsafe fn microkernel_4_neon(
        k: usize,
        a0: &[f32],
        a1: &[f32],
        a2: &[f32],
        a3: &[f32],
        panel: &[f32],
        out: &mut [[f32; NR]; 4],
    ) {
        debug_assert!(panel.len() >= k * NR);
        unsafe {
            let pp = panel.as_ptr();
            for quarter in 0..4 {
                let off = quarter * 8;
                let (mut c00, mut c01) = (vdupq_n_f32(0.0), vdupq_n_f32(0.0));
                let (mut c10, mut c11) = (vdupq_n_f32(0.0), vdupq_n_f32(0.0));
                let (mut c20, mut c21) = (vdupq_n_f32(0.0), vdupq_n_f32(0.0));
                let (mut c30, mut c31) = (vdupq_n_f32(0.0), vdupq_n_f32(0.0));
                for p in 0..k {
                    let bp = pp.add(p * NR + off);
                    let b0 = vld1q_f32(bp);
                    let b1 = vld1q_f32(bp.add(4));
                    let a = *a0.get_unchecked(p);
                    c00 = vfmaq_n_f32(c00, b0, a);
                    c01 = vfmaq_n_f32(c01, b1, a);
                    let a = *a1.get_unchecked(p);
                    c10 = vfmaq_n_f32(c10, b0, a);
                    c11 = vfmaq_n_f32(c11, b1, a);
                    let a = *a2.get_unchecked(p);
                    c20 = vfmaq_n_f32(c20, b0, a);
                    c21 = vfmaq_n_f32(c21, b1, a);
                    let a = *a3.get_unchecked(p);
                    c30 = vfmaq_n_f32(c30, b0, a);
                    c31 = vfmaq_n_f32(c31, b1, a);
                }
                vst1q_f32(out[0].as_mut_ptr().add(off), c00);
                vst1q_f32(out[0].as_mut_ptr().add(off + 4), c01);
                vst1q_f32(out[1].as_mut_ptr().add(off), c10);
                vst1q_f32(out[1].as_mut_ptr().add(off + 4), c11);
                vst1q_f32(out[2].as_mut_ptr().add(off), c20);
                vst1q_f32(out[2].as_mut_ptr().add(off + 4), c21);
                vst1q_f32(out[3].as_mut_ptr().add(off), c30);
                vst1q_f32(out[3].as_mut_ptr().add(off + 4), c31);
            }
        }
    }

    /// Single-row NEON tile: 8 `q` accumulators cover the full panel.
    ///
    /// # Safety
    ///
    /// `a0` must hold `k` readable elements and `panel` at least
    /// `k * NR`.
    #[target_feature(enable = "neon")]
    pub unsafe fn microkernel_1_neon(k: usize, a0: &[f32], panel: &[f32], out: &mut [f32; NR]) {
        debug_assert!(panel.len() >= k * NR);
        unsafe {
            let pp = panel.as_ptr();
            let mut acc = [vdupq_n_f32(0.0); 8];
            for p in 0..k {
                let bp = pp.add(p * NR);
                let a = *a0.get_unchecked(p);
                for (q, c) in acc.iter_mut().enumerate() {
                    *c = vfmaq_n_f32(*c, vld1q_f32(bp.add(q * 4)), a);
                }
            }
            for (q, c) in acc.iter().enumerate() {
                vst1q_f32(out.as_mut_ptr().add(q * 4), *c);
            }
        }
    }
}

/// One 4-row tile through the backend selected for this product.
///
/// The vector kernels are gated by [`crate::simd::backend`], which only
/// returns a backend that passed runtime feature detection, so the
/// `unsafe` calls are sound; slice preconditions are the same as the
/// scalar tile's.
#[inline(always)]
#[allow(unused_variables)]
#[allow(clippy::too_many_arguments)]
fn tile_4(
    backend: Backend,
    k: usize,
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    panel: &[f32],
    acc: &mut [[f32; NR]; 4],
) {
    match backend {
        Backend::Scalar => *acc = microkernel_4(k, a0, a1, a2, a3, panel),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { kernels_x86::microkernel_4_avx2(k, a0, a1, a2, a3, panel, acc) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe {
            kernels_x86::microkernel_4_avx512(k, a0, a1, a2, a3, panel, acc)
        },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { kernels_neon::microkernel_4_neon(k, a0, a1, a2, a3, panel, acc) },
        #[allow(unreachable_patterns)]
        _ => unreachable!("active SIMD backend unsupported on this architecture"),
    }
}

/// Single-row counterpart of [`tile_4`].
#[inline(always)]
#[allow(unused_variables)]
fn tile_1(backend: Backend, k: usize, a0: &[f32], panel: &[f32], acc: &mut [f32; NR]) {
    match backend {
        Backend::Scalar => *acc = microkernel_1(k, a0, panel),
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => unsafe { kernels_x86::microkernel_1_avx2(k, a0, panel, acc) },
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => unsafe { kernels_x86::microkernel_1_avx512(k, a0, panel, acc) },
        #[cfg(target_arch = "aarch64")]
        Backend::Neon => unsafe { kernels_neon::microkernel_1_neon(k, a0, panel, acc) },
        #[allow(unreachable_patterns)]
        _ => unreachable!("active SIMD backend unsupported on this architecture"),
    }
}

/// Computes rows `[row0, row0 + out.len()/n)` of `C = A·B` into `out`,
/// reading the packed panels of `B` and contiguous A rows (`row_stride`
/// apart). Strided left operands are packed before this runs (see
/// [`gemm_strided_into`]). The backend is resolved once per product and
/// passed down so one GEMM never mixes microkernel implementations,
/// even if a concurrent test scope flips the process-global selection.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    backend: Backend,
    a: &[f32],
    row_stride: usize,
    packed_b: &[f32],
    k: usize,
    n: usize,
    block_cols: usize,
    row0: usize,
    out: &mut [f32],
) {
    let rows = out.len().checked_div(n).unwrap_or(0);
    let panels = n.div_ceil(NR);
    let panels_per_block = (block_cols / NR).max(1);
    let s = row_stride;

    let mut panel0 = 0;
    while panel0 < panels {
        let panel1 = (panel0 + panels_per_block).min(panels);
        let mut r = 0;
        while r + MR <= rows {
            let base = (row0 + r) * s;
            let (a0, a1, a2, a3) =
                (&a[base..base + k], &a[base + s..], &a[base + 2 * s..], &a[base + 3 * s..]);
            for panel in panel0..panel1 {
                let pan = &packed_b[panel * k * NR..(panel + 1) * k * NR];
                let mut acc = [[0.0f32; NR]; MR];
                tile_4(backend, k, a0, a1, a2, a3, pan, &mut acc);
                let j0 = panel * NR;
                let width = NR.min(n - j0);
                for (t, tile) in acc.iter().enumerate() {
                    let orow = &mut out[(r + t) * n + j0..(r + t) * n + j0 + width];
                    orow.copy_from_slice(&tile[..width]);
                }
            }
            r += MR;
        }
        while r < rows {
            let base = (row0 + r) * s;
            let a0 = &a[base..base + k];
            for panel in panel0..panel1 {
                let pan = &packed_b[panel * k * NR..(panel + 1) * k * NR];
                let mut acc = [0.0f32; NR];
                tile_1(backend, k, a0, pan, &mut acc);
                let j0 = panel * NR;
                let width = NR.min(n - j0);
                out[r * n + j0..r * n + j0 + width].copy_from_slice(&acc[..width]);
            }
            r += 1;
        }
        panel0 = panel1;
    }
}

thread_local! {
    /// Per-thread packed-B scratch, reused across products so the
    /// steady-state Monte Carlo eval path performs no packing
    /// allocations after the first product of each shape class.
    static PACKED_B: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
    /// Per-thread packed-A scratch for the strided (transposed) left
    /// operand, likewise reused across calls.
    static PACKED_A: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Shared kernel: `C = A·B` for logical `a: m×k`, `b: k×n` (each read
/// through its strides), with an explicit thread count (`0` = the global
/// setting), written into `out` (`m·n`, fully overwritten).
///
/// The execution plan — worker count and block width, both byte-neutral —
/// is resolved once per product through [`crate::tune::gemm_plan`] and
/// passed down, so one GEMM never mixes configs mid-flight.
#[allow(clippy::too_many_arguments)]
fn gemm_strided_into(
    a: &[f32],
    a_strides: Strides,
    b: &[f32],
    b_strides: Strides,
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
    out: &mut [f32],
) {
    assert_eq!(out.len(), m * n, "gemm output buffer must hold m·n elements");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0); // all-zero by definition; nothing to accumulate
        return;
    }
    let plan = tune::gemm_plan(m, k, n, threads);
    gemm_with_plan(a, a_strides, b, b_strides, m, k, n, plan, out);
}

/// [`gemm_strided_into`] below the plan resolution: executes one
/// non-empty product (`m`, `k`, `n` > 0) under an explicit, already-chosen
/// [`GemmPlan`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_with_plan(
    a: &[f32],
    a_strides: Strides,
    b: &[f32],
    b_strides: Strides,
    m: usize,
    k: usize,
    n: usize,
    plan: GemmPlan,
    out: &mut [f32],
) {
    // A strided (transposed) left operand is panel-packed once, on the
    // calling thread, into the reused thread-local scratch — the row
    // sweep and any worker threads then read contiguous rows, so the
    // threaded path performs no per-worker packing or allocation. The
    // microkernel sees identical values in identical order for both
    // layouts, so they are bit-identical.
    if a_strides.col != 1 {
        return PACKED_A.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.clear();
            buf.resize(m * k, 0.0);
            pack_a_panel(a, a_strides, k, 0, m, &mut buf);
            gemm_with_plan(&buf, Strides::contiguous(k), b, b_strides, m, k, n, plan, out);
        });
    }
    PACKED_B.with(|cell| {
        let mut packed = cell.borrow_mut();
        pack_panels(b, b_strides, k, n, &mut packed);
        let backend = simd::backend();
        let block_cols = plan.block_cols.max(NR);
        // As many disjoint row chunks as workers; each runs the identical
        // serial routine on its range, so the split cannot affect values.
        let chunk_rows = m.div_ceil(plan.workers.min(m).max(1));
        let (packed, row_stride) = (&packed[..], a_strides.row);
        par::fan_out(
            m.div_ceil(chunk_rows),
            out.chunks_mut(chunk_rows * n).enumerate(),
            || (),
            |(), (ci, rows)| {
                gemm_rows(backend, a, row_stride, packed, k, n, block_cols, ci * chunk_rows, rows)
            },
        );
    });
}

/// Serial `C = A·B` for a row-major `a` (`m×k`) whose right operand is
/// never materialized: `pack` writes its NR-wide panels straight into
/// the thread-local packed-B scratch, which arrives zeroed and sized
/// `⌈n/NR⌉·k·NR` in the [`pack_panels`] layout.
///
/// The fused convolution lowering ([`crate::conv`]) packs image patches
/// through here; a `pack` that writes what [`pack_panels`] would write
/// gives the same bytes as packing the materialized matrix.
pub(crate) fn gemm_packed_b(
    a: &[f32],
    m: usize,
    k: usize,
    n: usize,
    block_cols: usize,
    pack: impl FnOnce(&mut [f32]),
    out: &mut [f32],
) {
    assert_eq!(out.len(), m * n, "gemm output buffer must hold m·n elements");
    assert!(m > 0 && k > 0 && n > 0, "gemm_packed_b needs a non-empty product");
    assert_eq!(a.len(), m * k, "gemm_packed_b: left operand length");
    PACKED_B.with(|cell| {
        let mut packed = cell.borrow_mut();
        packed.clear();
        packed.resize(n.div_ceil(NR) * k * NR, 0.0);
        pack(&mut packed);
        gemm_rows(simd::backend(), a, k, &packed, k, n, block_cols.max(NR), 0, out);
    });
}

/// `C = A·B` on raw row-major slices, written into `out`.
///
/// The allocation-free entry point behind [`matmul`]: layers that keep
/// their own scratch buffers (conv lowering, the Monte Carlo eval path)
/// call this directly. `out` is fully overwritten.
///
/// # Panics
///
/// Panics if any slice length disagrees with `m`, `k`, `n`.
pub fn matmul_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_into: left operand length");
    assert_eq!(b.len(), k * n, "matmul_into: right operand length");
    gemm_strided_into(a, Strides::contiguous(k), b, Strides::contiguous(n), m, k, n, 0, out);
}

/// `C = Aᵀ·B` on raw slices (`a` stored row-major as `k×m`), written into
/// `out`, packing `Aᵀ` row groups directly from the strided source.
///
/// # Panics
///
/// Panics if any slice length disagrees with `m`, `k`, `n`.
pub fn matmul_at_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "matmul_at_into: left operand length");
    assert_eq!(b.len(), k * n, "matmul_at_into: right operand length");
    gemm_strided_into(a, Strides::transposed(m), b, Strides::contiguous(n), m, k, n, 0, out);
}

/// `C = A·Bᵀ` on raw slices (`b` stored row-major as `n×k`), written into
/// `out`, packing `Bᵀ` column panels directly from the strided source.
///
/// # Panics
///
/// Panics if any slice length disagrees with `m`, `k`, `n`.
pub fn matmul_bt_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul_bt_into: left operand length");
    assert_eq!(b.len(), n * k, "matmul_bt_into: right operand length");
    gemm_strided_into(a, Strides::contiguous(k), b, Strides::transposed(k), m, k, n, 0, out);
}

/// `C = A · B` for rank-2 tensors `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the inner dimensions differ.
///
/// # Example
///
/// ```
/// use swim_tensor::{Tensor, linalg::matmul};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(matmul(&a, &i), a);
/// # Ok::<(), swim_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul: left operand must be rank 2");
    assert_eq!(b.rank(), 2, "matmul: right operand must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul: inner dimensions {k} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    matmul_into(a.data(), b.data(), m, k, n, &mut out);
    Tensor::from_vec(out, &[m, n]).expect("matmul output shape is consistent")
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]`, without materializing `Aᵀ`
/// anywhere.
///
/// Used by backpropagation to form weight gradients (`∂f/∂W = δᵀ·P` style
/// products). The kernel packs `Aᵀ` row groups directly from the strided
/// source (bounded `MR·k` scratch), so the cost matches [`matmul`] —
/// there is no `O(k·m)` transpose pass or full-size transposed copy. The
/// result is bit-identical to `matmul(&a.transposed(), b)`.
///
/// # Panics
///
/// Panics on rank or inner-dimension mismatch.
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_at: left operand must be rank 2");
    assert_eq!(b.rank(), 2, "matmul_at: right operand must be rank 2");
    let (k, m) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul_at: inner dimensions {k} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    matmul_at_into(a.data(), b.data(), m, k, n, &mut out);
    Tensor::from_vec(out, &[m, n]).expect("matmul_at output shape is consistent")
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]`, without materializing `Bᵀ`
/// anywhere.
///
/// Used by backpropagation to push gradients through a layer
/// (`∂f/∂P = δ·W` style products) and by the conv lowering (`cols · Wᵀ`).
/// The kernel packs `Bᵀ` column panels directly from the strided source,
/// so the cost matches [`matmul`] — there is no `O(n·k)` transpose pass.
/// The result is bit-identical to `matmul(a, &b.transposed())`.
///
/// # Panics
///
/// Panics on rank or inner-dimension mismatch.
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_bt: left operand must be rank 2");
    assert_eq!(b.rank(), 2, "matmul_bt: right operand must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (n, kb) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul_bt: inner dimensions {k} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    matmul_bt_into(a.data(), b.data(), m, k, n, &mut out);
    Tensor::from_vec(out, &[m, n]).expect("matmul_bt output shape is consistent")
}

/// The reference `i-k-j` triple loop (un-fused multiply-adds), kept as
/// the accuracy oracle for the blocked kernel — bit-identical on targets
/// without hardware FMA, ulp-tolerance otherwise; see the module docs —
/// and as the baseline in the `kernels` bench.
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul_reference: left operand must be rank 2");
    assert_eq!(b.rank(), 2, "matmul_reference: right operand must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul_reference: inner dimensions {k} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &aval) in arow.iter().enumerate() {
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bval) in orow.iter_mut().zip(brow) {
                *o += aval * bval;
            }
        }
    }
    Tensor::from_vec(out, &[m, n]).expect("matmul_reference output shape is consistent")
}

/// `matmul` with an explicit thread count, exposed for the `kernels`
/// bench and determinism tests; `threads = 1` forces the serial path even
/// above [`PARALLEL_MIN_FLOPS`].
pub fn matmul_with_threads(a: &Tensor, b: &Tensor, threads: usize) -> Tensor {
    assert_eq!(a.rank(), 2, "matmul: left operand must be rank 2");
    assert_eq!(b.rank(), 2, "matmul: right operand must be rank 2");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (kb, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, kb, "matmul: inner dimensions {k} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    gemm_strided_into(
        a.data(),
        Strides::contiguous(k),
        b.data(),
        Strides::contiguous(n),
        m,
        k,
        n,
        threads.max(1),
        &mut out,
    );
    Tensor::from_vec(out, &[m, n]).expect("matmul output shape is consistent")
}

/// Matrix–vector product `y = A · x` for `A: [m, n]`, `x: [n]`.
///
/// # Panics
///
/// Panics on rank or dimension mismatch.
pub fn matvec(a: &Tensor, x: &Tensor) -> Tensor {
    assert_eq!(a.rank(), 2, "matvec: matrix must be rank 2");
    assert_eq!(x.rank(), 1, "matvec: vector must be rank 1");
    let (m, n) = (a.shape()[0], a.shape()[1]);
    assert_eq!(n, x.shape()[0], "matvec: dimensions {n} vs {}", x.shape()[0]);
    let ad = a.data();
    let xd = x.data();
    let mut out = vec![0.0f32; m];
    for (i, o) in out.iter_mut().enumerate() {
        let row = &ad[i * n..(i + 1) * n];
        let mut acc = 0.0f32;
        for (&a, &b) in row.iter().zip(xd) {
            acc += a * b;
        }
        *o = acc;
    }
    Tensor::from_vec(out, &[m]).expect("matvec output shape is consistent")
}

/// Outer product `C = x · yᵀ` for vectors `x: [m]`, `y: [n]`.
///
/// # Panics
///
/// Panics if either operand is not rank 1.
pub fn outer(x: &Tensor, y: &Tensor) -> Tensor {
    assert_eq!(x.rank(), 1, "outer: left operand must be rank 1");
    assert_eq!(y.rank(), 1, "outer: right operand must be rank 1");
    let (m, n) = (x.shape()[0], y.shape()[0]);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let xv = x.data()[i];
        for j in 0..n {
            out[i * n + j] = xv * y.data()[j];
        }
    }
    Tensor::from_vec(out, &[m, n]).expect("outer output shape is consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;
    use crate::tune::{with_tuning, KernelTuning};

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[[i, p]] * b[[p, j]];
                }
                out[[i, j]] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        assert_eq!(matmul(&a, &eye), a);
        assert_eq!(matmul(&eye, &a), a);
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = Prng::seed_from_u64(2);
        let a = Tensor::randn(&[7, 5], &mut rng);
        let b = Tensor::randn(&[5, 9], &mut rng);
        assert!(matmul(&a, &b).allclose(&naive_matmul(&a, &b), 1e-4));
    }

    /// The blocked kernel must match the reference `i-k-j` loop on
    /// awkward (non-multiple-of-tile) shapes. On the scalar backend it
    /// is bit-identical on *every* build (the `mac` helper never fuses,
    /// so build flags cannot change its rounding); on the vector
    /// backends it drifts only within the pinned
    /// [`simd::GEMM_DRIFT_TOL`] (the fused multiply-add skips one
    /// rounding per `k` step).
    #[test]
    fn blocked_kernel_matches_reference() {
        let mut rng = Prng::seed_from_u64(11);
        for &(m, k, n) in &[(1, 1, 1), (3, 7, 5), (33, 17, 29), (64, 64, 64), (13, 128, 47)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let reference = matmul_reference(&a, &b);
            let scalar = simd::with_backend(simd::Backend::Scalar, || matmul(&a, &b)).unwrap();
            assert_eq!(scalar.data(), reference.data(), "shape {m}x{k}x{n}");
            for backend in simd::available_backends() {
                let blocked = simd::with_backend(backend, || matmul(&a, &b)).unwrap();
                assert!(
                    blocked.allclose(&reference, simd::GEMM_DRIFT_TOL),
                    "shape {m}x{k}x{n}, backend {backend}"
                );
            }
        }
    }

    /// Thread count must not change a single bit of the result on any
    /// backend, even on products large enough to take the parallel path.
    #[test]
    fn threaded_kernel_bit_identical_across_thread_counts() {
        let mut rng = Prng::seed_from_u64(12);
        // 192·96·256 = 4.7M multiplies ≥ PARALLEL_MIN_FLOPS.
        let a = Tensor::randn(&[192, 96], &mut rng);
        let b = Tensor::randn(&[96, 256], &mut rng);
        const { assert!(192 * 96 * 256 >= PARALLEL_MIN_FLOPS) };
        for backend in simd::available_backends() {
            simd::with_backend(backend, || {
                let serial = matmul_with_threads(&a, &b, 1);
                for threads in [2, 3, 8] {
                    let parallel = matmul_with_threads(&a, &b, threads);
                    assert_eq!(
                        serial.data(),
                        parallel.data(),
                        "threads = {threads}, backend {backend}"
                    );
                }
                assert!(serial.allclose(&matmul_reference(&a, &b), 1e-3));
            })
            .unwrap();
        }
    }

    /// Block size is a pure performance knob: any setting gives the same
    /// bits.
    #[test]
    fn block_cols_knob_does_not_change_results() {
        let mut rng = Prng::seed_from_u64(13);
        let a = Tensor::randn(&[24, 70], &mut rng);
        let b = Tensor::randn(&[70, 90], &mut rng);
        let baseline = matmul(&a, &b);
        for cols in [NR, 32, 64, 4096] {
            let pinned = KernelTuning { gemm_block_cols: cols, ..Default::default() };
            let blocked = with_tuning(&pinned, || matmul(&a, &b));
            assert_eq!(blocked.data(), baseline.data(), "block_cols = {cols}");
        }
    }

    /// Regression for the zero-skip unsoundness: the old kernel skipped
    /// `a == 0.0` terms, silently dropping `0·NaN` and `0·∞`
    /// contributions. True GEMM propagates them.
    #[test]
    fn zero_times_nan_and_inf_propagate() {
        // Row of A is all zeros; B carries a NaN in the first column and
        // +∞ in the second. C[0,0] and C[0,1] must both be NaN.
        let a = Tensor::from_vec(vec![0.0, 0.0, 1.0, 2.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, 3.0, 4.0], &[2, 2]).unwrap();
        let c = matmul(&a, &b);
        assert!(c.data()[0].is_nan(), "0·NaN must contribute NaN");
        assert!(c.data()[1].is_nan(), "0·∞ must contribute NaN (0·∞ = NaN)");
        // The second row has no zero entries: NaN/∞ flow through normally.
        assert!(c.data()[2].is_nan());
        assert!(c.data()[3].is_infinite() && c.data()[3] > 0.0);

        // Same property through the transposed variants.
        let c_at = matmul_at(&a.transposed(), &b);
        assert!(c_at.data()[0].is_nan());
        let c_bt = matmul_bt(&a, &b.transposed());
        assert!(c_bt.data()[0].is_nan());
    }

    /// The strided A-packing path must reproduce `matmul` of the
    /// explicitly transposed operand *bit for bit* — the packed values
    /// and accumulation order are identical, only the copy is gone.
    #[test]
    fn matmul_at_bit_identical_to_transpose_then_matmul() {
        let mut rng = Prng::seed_from_u64(3);
        for &(k, m, n) in &[(6, 4, 5), (1, 1, 1), (33, 17, 29), (64, 13, 47), (128, 96, 70)] {
            let a = Tensor::randn(&[k, m], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let expected = matmul(&a.transposed(), &b);
            assert_eq!(matmul_at(&a, &b).data(), expected.data(), "shape {k}x{m}x{n}");
        }
    }

    /// Same contract for the strided B-packing path.
    #[test]
    fn matmul_bt_bit_identical_to_matmul_with_transpose() {
        let mut rng = Prng::seed_from_u64(4);
        for &(m, k, n) in &[(3, 8, 5), (1, 1, 1), (29, 17, 33), (13, 64, 47), (96, 70, 128)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[n, k], &mut rng);
            let expected = matmul(&a, &b.transposed());
            assert_eq!(matmul_bt(&a, &b).data(), expected.data(), "shape {m}x{k}x{n}");
        }
    }

    /// The `_into` entry points are the same kernels on caller buffers.
    #[test]
    fn into_variants_match_tensor_variants() {
        let mut rng = Prng::seed_from_u64(14);
        let a = Tensor::randn(&[9, 7], &mut rng);
        let b = Tensor::randn(&[7, 11], &mut rng);
        let mut out = vec![0.0f32; 9 * 11];
        matmul_into(a.data(), b.data(), 9, 7, 11, &mut out);
        assert_eq!(out, matmul(&a, &b).data());

        let at = Tensor::randn(&[7, 9], &mut rng);
        matmul_at_into(at.data(), b.data(), 9, 7, 11, &mut out);
        assert_eq!(out, matmul_at(&at, &b).data());

        let bt = Tensor::randn(&[11, 7], &mut rng);
        matmul_bt_into(a.data(), bt.data(), 9, 7, 11, &mut out);
        assert_eq!(out, matmul_bt(&a, &bt).data());

        // Buffer reuse: a second call fully overwrites stale contents.
        let zero = Tensor::zeros(&[9, 7]);
        matmul_into(zero.data(), b.data(), 9, 7, 11, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    /// The threading threshold is a pure performance knob.
    #[test]
    fn min_flops_knob_does_not_change_results() {
        let mut rng = Prng::seed_from_u64(15);
        let a = Tensor::randn(&[40, 30], &mut rng);
        let b = Tensor::randn(&[30, 50], &mut rng);
        let baseline = matmul(&a, &b);
        // Force the threaded path.
        let threaded = KernelTuning { gemm_threads: 3, gemm_min_flops: 1, ..Default::default() };
        let forced = with_tuning(&threaded, || matmul(&a, &b));
        assert_eq!(forced.data(), baseline.data());
        // `0` means the built-in threshold.
        let auto = with_tuning(&KernelTuning::default(), tune::gemm_min_flops);
        assert_eq!(auto, PARALLEL_MIN_FLOPS);
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = Prng::seed_from_u64(5);
        let a = Tensor::randn(&[4, 6], &mut rng);
        let x = Tensor::randn(&[6], &mut rng);
        let as_mat = x.clone().reshaped(&[6, 1]);
        let expected = matmul(&a, &as_mat).reshaped(&[4]);
        assert!(matvec(&a, &x).allclose(&expected, 1e-5));
    }

    #[test]
    fn outer_rank_one_structure() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let y = Tensor::from_vec(vec![3.0, 4.0, 5.0], &[3]).unwrap();
        let o = outer(&x, &y);
        assert_eq!(o.shape(), &[2, 3]);
        assert_eq!(o.data(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        matmul(&a, &b);
    }

    #[test]
    fn zero_sized_matmul() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[0, 2]);
        let a = Tensor::zeros(&[2, 0]);
        let b = Tensor::zeros(&[0, 3]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 3]);
        assert!(c.data().iter().all(|&v| v == 0.0));
    }
}
