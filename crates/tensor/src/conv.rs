//! im2col / col2im lowering for convolution.
//!
//! The SWIM paper's second-derivative backpropagation (§3.3) relies on
//! convolution layers being "cast in the same form as FC layers". That is
//! literally how this workspace implements them: a convolution is a GEMM
//! against the patch matrix [`im2col`] describes, and [`col2im`] scatters
//! column-space gradients back to image space for the backward passes
//! (first *and* second order — the second-order pass pushes squared
//! quantities through the identical index mapping).
//!
//! The layer-facing products ([`conv_forward_into`],
//! [`conv_weight_grad_into`], [`conv_input_grad_accumulate`]) never build
//! the patch matrix: they resolve the im2col index math while packing the
//! GEMM's NR-wide right-hand panels straight from the NCHW image (run
//! copies for stride 1, a gather otherwise, zeros for padding taps). The
//! panels hold exactly what packing the materialized matrix would, so
//! every output element is the same multiply-accumulate chain and the
//! bytes match the materialized lowering on every SIMD backend.

use crate::linalg::{gemm_packed_b, gemm_with_plan, Strides, NR};
use crate::tensor::Tensor;
use crate::tune::GemmPlan;
use std::cell::RefCell;

/// Geometry of a 2-D convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channel count.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Vertical and horizontal stride.
    pub stride: usize,
    /// Symmetric zero padding on each border.
    pub padding: usize,
}

impl ConvGeometry {
    /// Output height after the convolution.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel_h) / self.stride + 1
    }

    /// Output width after the convolution.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel_w) / self.stride + 1
    }

    /// Rows of the im2col matrix: one per output spatial position.
    pub fn col_rows(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Columns of the im2col matrix: one per kernel element.
    pub fn col_cols(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }

    /// Validates that the geometry produces at least one output position.
    ///
    /// Returns `false` when the kernel (after padding) does not fit in the
    /// input.
    pub fn is_valid(&self) -> bool {
        self.in_h + 2 * self.padding >= self.kernel_h
            && self.in_w + 2 * self.padding >= self.kernel_w
            && self.stride > 0
            && self.kernel_h > 0
            && self.kernel_w > 0
    }
}

/// Unrolls one image `[C, H, W]` into a patch matrix
/// `[outH*outW, C*kh*kw]`.
///
/// Out-of-bounds (padding) taps contribute zeros.
///
/// # Panics
///
/// Panics if `image` is not rank 3 or does not match `geom`.
///
/// # Example
///
/// ```
/// use swim_tensor::{Tensor, conv::{ConvGeometry, im2col}};
///
/// let geom = ConvGeometry {
///     in_channels: 1, in_h: 3, in_w: 3,
///     kernel_h: 2, kernel_w: 2, stride: 1, padding: 0,
/// };
/// let img = Tensor::from_fn(&[1, 3, 3], |i| i as f32);
/// let cols = im2col(&img, &geom);
/// assert_eq!(cols.shape(), &[4, 4]);
/// // First patch is the top-left 2x2 block.
/// assert_eq!(&cols.data()[..4], &[0.0, 1.0, 3.0, 4.0]);
/// ```
pub fn im2col(image: &Tensor, geom: &ConvGeometry) -> Tensor {
    assert_eq!(image.rank(), 3, "im2col expects a [C, H, W] image");
    assert_eq!(
        image.shape(),
        &[geom.in_channels, geom.in_h, geom.in_w],
        "image does not match geometry"
    );
    assert!(geom.is_valid(), "invalid convolution geometry {geom:?}");
    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let cols = geom.col_cols();
    let mut out = vec![0.0f32; out_h * out_w * cols];
    let data = image.data();
    let (kh, kw) = (geom.kernel_h, geom.kernel_w);
    let (ih, iw) = (geom.in_h, geom.in_w);
    for oy in 0..out_h {
        let origin_y = (oy * geom.stride) as isize - geom.padding as isize;
        for ox in 0..out_w {
            let base = (oy * out_w + ox) * cols;
            let origin_x = (ox * geom.stride) as isize - geom.padding as isize;
            // Clip the kernel's x-span against the image once per
            // patch: taps kx ∈ [x_lo, x_hi) are in bounds.
            let x_lo = (-origin_x).clamp(0, kw as isize) as usize;
            let x_hi = (iw as isize - origin_x).clamp(0, kw as isize) as usize;
            if x_lo >= x_hi {
                continue; // whole patch falls in horizontal padding
            }
            let src_x0 = (origin_x + x_lo as isize) as usize;
            for c in 0..geom.in_channels {
                let cbase = c * ih * iw;
                let col0 = base + c * kh * kw;
                for ky in 0..kh {
                    let y = origin_y + ky as isize;
                    if y < 0 || y >= ih as isize {
                        continue;
                    }
                    let src0 = cbase + y as usize * iw + src_x0;
                    let dst0 = col0 + ky * kw + x_lo;
                    out[dst0..dst0 + (x_hi - x_lo)]
                        .copy_from_slice(&data[src0..src0 + (x_hi - x_lo)]);
                }
            }
        }
    }
    Tensor::from_vec(out, &[out_h * out_w, cols]).expect("im2col shape is consistent")
}

/// Scatters a patch matrix `[outH*outW, C*kh*kw]` back into an image
/// `[C, H, W]`, accumulating overlapping contributions.
///
/// This is the adjoint of [`im2col`]: positions that fell in the padding
/// are dropped.
///
/// # Panics
///
/// Panics if `cols` is not rank 2 or does not match `geom`.
pub fn col2im(cols: &Tensor, geom: &ConvGeometry) -> Tensor {
    assert_eq!(cols.rank(), 2, "col2im expects a rank-2 patch matrix");
    assert_eq!(
        cols.shape(),
        &[geom.col_rows(), geom.col_cols()],
        "patch matrix does not match geometry"
    );
    let mut image = vec![0.0f32; geom.in_channels * geom.in_h * geom.in_w];
    col2im_accumulate(cols.data(), geom, &mut image);
    Tensor::from_vec(image, &[geom.in_channels, geom.in_h, geom.in_w])
        .expect("col2im shape is consistent")
}

/// Scatter-accumulates one image's patch matrix (flat
/// `[outH·outW, C·kh·kw]` data) into `image` (flat `[C, H, W]`, `+=`).
///
/// The buffer-level core of [`col2im`]: the conv backward passes call it
/// directly on slices of a batched gradient, so no per-item image tensor
/// is ever allocated. The scatter order matches [`col2im`] exactly, so
/// accumulating into a zeroed slice is bit-identical to `col2im` + add.
///
/// # Panics
///
/// Panics if either slice length disagrees with `geom`.
pub fn col2im_accumulate(cols: &[f32], geom: &ConvGeometry, image: &mut [f32]) {
    assert_eq!(cols.len(), geom.col_rows() * geom.col_cols(), "patch matrix length");
    assert_eq!(image.len(), geom.in_channels * geom.in_h * geom.in_w, "image length");

    let (out_h, out_w) = (geom.out_h(), geom.out_w());
    let ncols = geom.col_cols();
    let (kh, kw) = (geom.kernel_h, geom.kernel_w);
    let (ih, iw) = (geom.in_h, geom.in_w);

    for oy in 0..out_h {
        let origin_y = (oy * geom.stride) as isize - geom.padding as isize;
        for ox in 0..out_w {
            let base = (oy * out_w + ox) * ncols;
            let origin_x = (ox * geom.stride) as isize - geom.padding as isize;
            let x_lo = (-origin_x).clamp(0, kw as isize) as usize;
            let x_hi = (iw as isize - origin_x).clamp(0, kw as isize) as usize;
            if x_lo >= x_hi {
                continue;
            }
            let src_x0 = (origin_x + x_lo as isize) as usize;
            for c in 0..geom.in_channels {
                let cbase = c * ih * iw;
                let col0 = base + c * kh * kw;
                for ky in 0..kh {
                    let y = origin_y + ky as isize;
                    if y < 0 || y >= ih as isize {
                        continue;
                    }
                    let dst0 = cbase + y as usize * iw + src_x0;
                    let src0 = col0 + ky * kw + x_lo;
                    for (d, &s) in image[dst0..dst0 + (x_hi - x_lo)]
                        .iter_mut()
                        .zip(&cols[src0..src0 + (x_hi - x_lo)])
                    {
                        *d += s;
                    }
                }
            }
        }
    }
}

thread_local! {
    /// Per-thread column-space gradient of one image
    /// (`[outH·outW, C·kh·kw]`), reused across calls like the GEMM's
    /// packed-panel scratch, so no layer owns a lowering buffer.
    static COL_GRAD: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Writes the panels of one image's *transposed* patch matrix — logical
/// `[C·kh·kw, outH·outW]`, row `(c, ky, kx)`, column `(oy, ox)` — into
/// the zeroed `packed` buffer, in the layout `pack_panels` gives the
/// materialized matrix.
///
/// A panel row covers NR consecutive output pixels, possibly spanning
/// several output rows. Each output-row segment reads one input-row run,
/// clipped to the in-image columns: a copy at stride 1, a gather
/// otherwise. Padding taps keep their zeros.
fn pack_patches_t(image: &[f32], geom: &ConvGeometry, packed: &mut [f32]) {
    let (ow, spatial, k) = (geom.out_w(), geom.col_rows(), geom.col_cols());
    let (kh, kw, s, pad) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    let (ih, iw) = (geom.in_h, geom.in_w);
    for (panel_idx, panel) in packed.chunks_exact_mut(k * NR).enumerate() {
        let j1 = ((panel_idx + 1) * NR).min(spatial);
        let mut j = panel_idx * NR;
        while j < j1 {
            let (oy, ox0) = (j / ow, j % ow);
            let ox1 = ow.min(ox0 + j1 - j);
            let lane0 = j % NR;
            for kx in 0..kw {
                // Output columns whose tap lands in the image:
                // pad ≤ ox·s + kx < iw + pad.
                let lo = ox0.max(pad.saturating_sub(kx).div_ceil(s));
                let hi = ox1.min((iw + pad).saturating_sub(kx).div_ceil(s));
                if lo >= hi {
                    continue;
                }
                let (len, x0, lane) = (hi - lo, lo * s + kx - pad, lane0 + lo - ox0);
                for c in 0..geom.in_channels {
                    for ky in 0..kh {
                        let Some(iy) = (oy * s + ky).checked_sub(pad).filter(|&y| y < ih) else {
                            continue;
                        };
                        let src = &image[(c * ih + iy) * iw + x0..];
                        let dst = &mut panel[((c * kh + ky) * kw + kx) * NR + lane..][..len];
                        if s == 1 {
                            dst.copy_from_slice(&src[..len]);
                        } else {
                            for (t, d) in dst.iter_mut().enumerate() {
                                *d = src[t * s];
                            }
                        }
                    }
                }
            }
            j += ox1 - ox0;
        }
    }
}

/// Writes the panels of one image's patch matrix — logical
/// `[outH·outW, C·kh·kw]`, row `(oy, ox)`, column `(c, ky, kx)` — into
/// the zeroed `packed` buffer (the `pack_panels` layout), squaring every
/// value when `square` is set.
///
/// One output row at a time, each tap's in-image pixels are one input-row
/// run (contiguous at stride 1, strided otherwise) that lands in one
/// panel lane, NR floats apart; the band of panel rows it writes stays
/// in cache while every tap visits it.
fn pack_patches(image: &[f32], geom: &ConvGeometry, square: bool, packed: &mut [f32]) {
    let (oh, ow, spatial) = (geom.out_h(), geom.out_w(), geom.col_rows());
    let (kh, kw, s, pad) = (geom.kernel_h, geom.kernel_w, geom.stride, geom.padding);
    let (ih, iw) = (geom.in_h, geom.in_w);
    for oy in 0..oh {
        for kx in 0..kw {
            // Output columns whose tap lands in the image:
            // pad ≤ ox·s + kx < iw + pad.
            let lo = pad.saturating_sub(kx).div_ceil(s).min(ow);
            let hi = (iw + pad).saturating_sub(kx).div_ceil(s).min(ow);
            if lo >= hi {
                continue;
            }
            let x0 = lo * s + kx - pad;
            for c in 0..geom.in_channels {
                for ky in 0..kh {
                    let Some(iy) = (oy * s + ky).checked_sub(pad).filter(|&y| y < ih) else {
                        continue;
                    };
                    let q = (c * kh + ky) * kw + kx;
                    let start = ((q / NR) * spatial + oy * ow + lo) * NR + q % NR;
                    let dst = packed[start..].iter_mut().step_by(NR).take(hi - lo);
                    let src = image[(c * ih + iy) * iw + x0..].iter().step_by(s);
                    if square {
                        dst.zip(src).for_each(|(d, &v)| *d = v * v);
                    } else {
                        dst.zip(src).for_each(|(d, &v)| *d = v);
                    }
                }
            }
        }
    }
}

fn check_image(image: &[f32], geom: &ConvGeometry) {
    assert!(geom.is_valid(), "invalid convolution geometry {geom:?}");
    assert_eq!(image.len(), geom.in_channels * geom.in_h * geom.in_w, "image length");
}

/// One image's convolution without bias: `out = weight · patchesᵀ`,
/// with the patches packed straight from `image` (no patch matrix).
///
/// `weight` is the `[F, C·kh·kw]` matrix (the data of a `[F, C, kh, kw]`
/// tensor), `image` one `[C, H, W]` image and `out` its `[F, outH·outW]`
/// output — the image's slice of an NCHW batch. Serial; `block_cols` is
/// the GEMM block width (byte-neutral). Bit-identical to
/// `matmul_bt_into(weight, im2col(image))`.
///
/// # Panics
///
/// Panics if a slice length disagrees with `geom` or the geometry is
/// invalid.
pub fn conv_forward_into(
    weight: &[f32],
    image: &[f32],
    geom: &ConvGeometry,
    block_cols: usize,
    out: &mut [f32],
) {
    check_image(image, geom);
    let (k, n) = (geom.col_cols(), geom.col_rows());
    let m = out.len() / n;
    assert_eq!(out.len(), m * n, "output length");
    assert_eq!(weight.len(), m * k, "weight length");
    gemm_packed_b(weight, m, k, n, block_cols, |p| pack_patches_t(image, geom, p), out);
}

/// One image's weight-gradient tile `out = grad · patches` — or
/// `grad · patches²` (element-wise square, paper Eq. 8) when `square` is
/// set — with the patches packed straight from `image`.
///
/// `grad` is the image's `[F, outH·outW]` output gradient (its NCHW
/// slice, no transpose) and `out` the `[F, C·kh·kw]` tile. Serial;
/// bit-identical to `matmul_at_into(δ, im2col(image))` with
/// `δ = gradᵀ`.
///
/// # Panics
///
/// Panics if a slice length disagrees with `geom` or the geometry is
/// invalid.
pub fn conv_weight_grad_into(
    grad: &[f32],
    image: &[f32],
    geom: &ConvGeometry,
    square: bool,
    block_cols: usize,
    out: &mut [f32],
) {
    check_image(image, geom);
    let (k, n) = (geom.col_rows(), geom.col_cols());
    let m = out.len() / n;
    assert_eq!(out.len(), m * n, "output length");
    assert_eq!(grad.len(), m * k, "output-gradient length");
    gemm_packed_b(grad, m, k, n, block_cols, |p| pack_patches(image, geom, square, p), out);
}

/// Accumulates one image's input gradient: `image_grad +=
/// col2im(gradᵀ · weight)`.
///
/// `grad` is the image's `[F, outH·outW]` output gradient, `weight` the
/// `[F, C·kh·kw]` matrix (squared by the caller for the second-order
/// pass). The column-space product goes through a per-thread buffer,
/// then [`col2im_accumulate`]. Serial; bit-identical to
/// `col2im_accumulate(matmul(δ, weight))` with `δ = gradᵀ`.
///
/// # Panics
///
/// Panics if a slice length disagrees with `geom`.
pub fn conv_input_grad_accumulate(
    grad: &[f32],
    weight: &[f32],
    geom: &ConvGeometry,
    block_cols: usize,
    image_grad: &mut [f32],
) {
    let (spatial, k) = (geom.col_rows(), geom.col_cols());
    let f = weight.len() / k;
    assert_eq!(weight.len(), f * k, "weight length");
    assert_eq!(grad.len(), f * spatial, "output-gradient length");
    COL_GRAD.with(|cell| {
        let mut cols = cell.borrow_mut();
        // Fully overwritten by the product. Serial: callers split images
        // across threads themselves.
        cols.resize(spatial * k, 0.0);
        let plan = GemmPlan { workers: 1, block_cols };
        let (a, b) = (Strides::transposed(spatial), Strides::contiguous(k));
        gemm_with_plan(grad, a, weight, b, spatial, f, k, plan, &mut cols);
        col2im_accumulate(&cols, geom, image_grad);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::matmul;
    use crate::rng::Prng;

    fn geom(c: usize, h: usize, w: usize, k: usize, s: usize, p: usize) -> ConvGeometry {
        ConvGeometry {
            in_channels: c,
            in_h: h,
            in_w: w,
            kernel_h: k,
            kernel_w: k,
            stride: s,
            padding: p,
        }
    }

    /// Direct (definition-level) convolution for cross-checking.
    fn naive_conv(image: &Tensor, weight: &Tensor, g: &ConvGeometry) -> Tensor {
        let out_c = weight.shape()[0];
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut out = Tensor::zeros(&[out_c, oh, ow]);
        for oc in 0..out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for c in 0..g.in_channels {
                        for ky in 0..g.kernel_h {
                            for kx in 0..g.kernel_w {
                                let y = (oy * g.stride + ky) as isize - g.padding as isize;
                                let x = (ox * g.stride + kx) as isize - g.padding as isize;
                                if y >= 0
                                    && (y as usize) < g.in_h
                                    && x >= 0
                                    && (x as usize) < g.in_w
                                {
                                    let iv = image.at(&[c, y as usize, x as usize]);
                                    let wv = weight.at(&[oc, c, ky, kx]);
                                    acc += iv * wv;
                                }
                            }
                        }
                    }
                    *out.at_mut(&[oc, oy, ox]) = acc;
                }
            }
        }
        out
    }

    #[test]
    fn geometry_output_sizes() {
        let g = geom(3, 32, 32, 3, 1, 1);
        assert_eq!((g.out_h(), g.out_w()), (32, 32));
        let g = geom(1, 28, 28, 5, 1, 0);
        assert_eq!((g.out_h(), g.out_w()), (24, 24));
        let g = geom(16, 8, 8, 2, 2, 0);
        assert_eq!((g.out_h(), g.out_w()), (4, 4));
    }

    #[test]
    fn invalid_geometry_detected() {
        assert!(!geom(1, 2, 2, 5, 1, 0).is_valid());
        assert!(geom(1, 2, 2, 5, 1, 2).is_valid());
        let mut g = geom(1, 4, 4, 3, 1, 0);
        g.stride = 0;
        assert!(!g.is_valid());
    }

    #[test]
    fn im2col_then_gemm_matches_naive_conv() {
        let mut rng = Prng::seed_from_u64(10);
        for (g, oc) in [
            (geom(1, 6, 6, 3, 1, 0), 2),
            (geom(3, 8, 8, 3, 1, 1), 4),
            (geom(2, 7, 7, 3, 2, 1), 3),
            (geom(4, 5, 5, 1, 1, 0), 2),
        ] {
            let image = Tensor::randn(&[g.in_channels, g.in_h, g.in_w], &mut rng);
            let weight = Tensor::randn(&[oc, g.in_channels, g.kernel_h, g.kernel_w], &mut rng);
            let cols = im2col(&image, &g);
            let wmat = weight.clone().reshaped(&[oc, g.col_cols()]);
            // GEMM result: [rows, oc] -> transpose to [oc, rows] -> reshape.
            let gemm = matmul(&cols, &wmat.transposed());
            let gemm = gemm.transposed().reshaped(&[oc, g.out_h(), g.out_w()]);
            let naive = naive_conv(&image, &weight, &g);
            assert!(gemm.allclose(&naive, 1e-4), "mismatch for geometry {g:?}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> must hold for the backward pass
        // to be a correct gradient.
        let mut rng = Prng::seed_from_u64(11);
        let g = geom(2, 6, 6, 3, 2, 1);
        let x = Tensor::randn(&[2, 6, 6], &mut rng);
        let y = Tensor::randn(&[g.col_rows(), g.col_cols()], &mut rng);
        let lhs = im2col(&x, &g).dot(&y);
        let rhs = x.dot(&col2im(&y, &g));
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch {lhs} vs {rhs}");
    }

    #[test]
    fn padding_contributes_zeros() {
        let g = geom(1, 2, 2, 3, 1, 1);
        let img = Tensor::ones(&[1, 2, 2]);
        let cols = im2col(&img, &g);
        // Top-left output position: only bottom-right 2x2 of the kernel
        // overlaps the image.
        let first_patch = &cols.data()[..9];
        assert_eq!(first_patch, &[0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    /// Accumulating into a zeroed slice is exactly `col2im`; a second
    /// accumulation doubles it.
    #[test]
    fn col2im_accumulate_matches_col2im() {
        let mut rng = Prng::seed_from_u64(22);
        let g = geom(2, 6, 6, 3, 2, 1);
        let cols = Tensor::randn(&[g.col_rows(), g.col_cols()], &mut rng);
        let reference = col2im(&cols, &g);
        let mut image = vec![0.0f32; 2 * 6 * 6];
        col2im_accumulate(cols.data(), &g, &mut image);
        assert_eq!(&image, reference.data());
        // A second pass accumulates on top (scatter order differs from a
        // single `r + r`, so compare with tolerance).
        col2im_accumulate(cols.data(), &g, &mut image);
        for (acc, &r) in image.iter().zip(reference.data()) {
            assert!((acc - 2.0 * r).abs() < 1e-5, "{acc} vs {}", 2.0 * r);
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The NCHW packers write exactly what `pack_panels` writes for the
    /// materialized patch matrix (and its transpose), padding taps and
    /// tail lanes included, and the fused products match the
    /// materialized GEMMs bit for bit.
    #[test]
    fn nchw_packing_matches_materialized_panels() {
        use crate::linalg::{matmul, matmul_at, matmul_bt, pack_panels, Strides};
        // Both sides of each comparison must run on one SIMD backend.
        let _kernel_state = crate::kernel_state_lock();
        let mut rng = Prng::seed_from_u64(23);
        for g in [
            geom(1, 28, 28, 5, 1, 2), // LeNet conv1: 784 pixels, 25 taps
            geom(6, 14, 14, 5, 1, 0), // LeNet conv2: 100 pixels, 150 taps
            geom(3, 9, 9, 3, 1, 1),   // 81 pixels, not a multiple of NR
            geom(3, 9, 9, 3, 2, 1),   // stride 2 gathers
            geom(4, 7, 7, 1, 2, 0),   // 1x1 stride-2 shortcut
            geom(2, 4, 4, 3, 1, 2),   // padding wider than half the kernel
            geom(1, 2, 2, 5, 1, 2),   // kernel larger than the image
            geom(2, 5, 3, 1, 3, 0),   // 1x1 kernel, stride 3
        ] {
            let image = Tensor::randn(&[g.in_channels, g.in_h, g.in_w], &mut rng);
            let cols = im2col(&image, &g);
            let (rows, k) = (g.col_rows(), g.col_cols());
            let mut want = Vec::new();
            pack_panels(cols.data(), Strides::transposed(k), k, rows, &mut want);
            let mut got = vec![0.0; want.len()];
            pack_patches_t(image.data(), &g, &mut got);
            assert_eq!(bits(&got), bits(&want), "transposed panels {g:?}");
            for square in [false, true] {
                let src = if square { cols.map(|v| v * v) } else { cols.clone() };
                pack_panels(src.data(), Strides::contiguous(k), rows, k, &mut want);
                let mut got = vec![0.0; want.len()];
                pack_patches(image.data(), &g, square, &mut got);
                assert_eq!(bits(&got), bits(&want), "panels square={square} {g:?}");
            }

            let nf = 3;
            let weight = Tensor::randn(&[nf, k], &mut rng);
            let grad = Tensor::randn(&[nf, rows], &mut rng);
            let mut out = vec![0.0; nf * rows];
            conv_forward_into(weight.data(), image.data(), &g, 64, &mut out);
            let want = matmul_bt(&weight, &cols);
            assert_eq!(bits(&out), bits(want.data()), "forward {g:?}");
            let mut tile = vec![0.0; nf * k];
            conv_weight_grad_into(grad.data(), image.data(), &g, false, 64, &mut tile);
            let want = matmul_at(&grad.transposed(), &cols);
            assert_eq!(bits(&tile), bits(want.data()), "weight gradient {g:?}");
            let mut dx = vec![0.0; g.in_channels * g.in_h * g.in_w];
            conv_input_grad_accumulate(grad.data(), weight.data(), &g, 64, &mut dx);
            let want = col2im(&matmul(&grad.transposed(), &weight), &g);
            assert_eq!(bits(&dx), bits(want.data()), "input gradient {g:?}");
        }
    }

    #[test]
    fn stride_skips_positions() {
        let g = geom(1, 4, 4, 2, 2, 0);
        let img = Tensor::from_fn(&[1, 4, 4], |i| i as f32);
        let cols = im2col(&img, &g);
        assert_eq!(cols.shape(), &[4, 4]);
        // Second patch starts at column 2 of row 0.
        assert_eq!(&cols.data()[4..8], &[2.0, 3.0, 6.0, 7.0]);
    }
}
