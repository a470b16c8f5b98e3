//! 2-D convolution layer, lowered to GEMM through the im2col index math.

use super::Cache;
use crate::arena::ActivationArena;
use crate::layer::{Layer, Mode};
use crate::param::{Param, ParamKind};
use swim_tensor::conv::{
    conv_forward_into, conv_input_grad_accumulate, conv_weight_grad_into, ConvGeometry,
};
use swim_tensor::tune::{self, KernelConfig};
use swim_tensor::{Prng, Tensor};

/// Bound, in `f32` elements (4 MiB), on the weight-gradient tiles a
/// threaded backward pass holds at once: images are processed in groups
/// whose tiles fit, and each group's tiles are folded in image order.
const TILE_GROUP_ELEMS: usize = 1 << 20;

/// 2-D convolution `[N, C, H, W] -> [N, F, H', W']`.
///
/// The convolution is the GEMM `W · patchesᵀ`, which "casts it in the
/// same form as FC layers" — exactly the reduction the paper's §3.3 uses
/// so that the FC second-order rules (Eq. 8/10) apply unchanged to
/// convolutions. The patch matrix is never built: each image's GEMM
/// panels are packed straight from the NCHW input through the im2col
/// index math ([`swim_tensor::conv`]), one image at a time, into
/// per-thread buffers, so a layer owns no lowering scratch. Forward
/// writes each image's `[F, H'·W']` output slice in place; the backward
/// passes read each image's output-gradient slice as it is (no transpose)
/// and re-pack the cached input's patches instead of keeping them.
///
/// When the GEMM plan of the batch-sized product asks for more than one
/// worker, the images are split across scoped threads; outputs are
/// disjoint and weight-gradient tiles are summed in image order, so
/// every thread count gives the same bytes.
///
/// # Example
///
/// ```
/// use swim_nn::layers::Conv2d;
/// use swim_nn::layer::{Layer, Mode};
/// use swim_tensor::{Prng, Tensor};
///
/// let mut rng = Prng::seed_from_u64(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let x = Tensor::zeros(&[2, 3, 16, 16]);
/// let y = conv.forward(&x, Mode::Eval);
/// assert_eq!(y.shape(), &[2, 8, 16, 16]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Cache<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-normal initialization (suited to
    /// the ReLU networks of the paper) and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any of channel counts, kernel, or stride are zero.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Prng,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0, "channel counts must be positive");
        assert!(kernel > 0 && stride > 0, "kernel and stride must be positive");
        let fan_in = (in_channels * kernel * kernel) as f32;
        let std = (2.0 / fan_in).sqrt();
        let weight = Tensor::from_fn(&[out_channels, in_channels, kernel, kernel], |_| {
            rng.normal_f32(0.0, std)
        });
        Conv2d {
            weight: Param::new("weight", weight, ParamKind::DeviceWeight),
            bias: Param::new("bias", Tensor::zeros(&[out_channels]), ParamKind::Digital),
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached_input: Cache::new(Tensor::zeros(&[0])),
        }
    }

    fn geometry(&self, h: usize, w: usize) -> ConvGeometry {
        ConvGeometry {
            in_channels: self.in_channels,
            in_h: h,
            in_w: w,
            kernel_h: self.kernel,
            kernel_w: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }

    /// Immutable access to the weight parameter (tests, inspection).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Validates the input and writes the convolution into `out`
    /// (completely overwritten) — the shared body of the fresh-allocation
    /// and the arena forward paths.
    fn forward_out(&mut self, input: &Tensor, mode: Mode, out: &mut Tensor) {
        assert_eq!(input.rank(), 4, "Conv2d expects [N, C, H, W] input");
        assert_eq!(
            input.shape()[1],
            self.in_channels,
            "Conv2d expected {} input channels, got {}",
            self.in_channels,
            input.shape()[1]
        );
        let (n, h, w) = (input.shape()[0], input.shape()[2], input.shape()[3]);
        let geom = self.geometry(h, w);
        assert!(geom.is_valid(), "kernel does not fit input {geom:?}");
        let (spatial, nf) = (geom.col_rows(), self.out_channels);
        out.reset_zeroed(&[n, nf, geom.out_h(), geom.out_w()]);
        // The [F, C, k, k] weight tensor is already the [F, CK²] matrix.
        let plan = tune::gemm_plan(nf, geom.col_cols(), n * spatial, 0);
        let (weight, bias) = (self.weight.value.data(), self.bias.value.data());
        let images = input.data().chunks_exact(self.in_channels * h * w);
        let jobs = out.data_mut().chunks_exact_mut(nf * spatial).zip(images);
        for_each_image(plan.workers.min(n), jobs, |(y, x)| {
            conv_forward_into(weight, x, &geom, plan.block_cols, y);
            for (row, &b) in y.chunks_exact_mut(spatial).zip(bias) {
                for v in row {
                    *v += b;
                }
            }
        });
        // Cache the activation for the backward passes, reusing the
        // previous cache's capacity even when the batch shape changes —
        // a copy, not an allocation. (Caching must happen in Eval mode
        // too: the sensitivity pass forwards in `Mode::Eval` and then
        // runs `second_backward`; only an inference forward skips it.)
        if let Some(cached) = self.cached_input.refill(mode) {
            cached.copy_from(input);
        }
    }

    /// Shared backward body. `square` selects the second-order pass:
    /// patches and weights are squared (Eq. 8/10) and the results
    /// accumulate into `hess` instead of `grad`. With `input_grad` unset
    /// the input gradient is skipped and `None` returned; the parameter
    /// accumulators get the same bytes either way.
    fn backward_impl(&mut self, delta: &Tensor, square: bool, input_grad: bool) -> Option<Tensor> {
        let input = self.cached_input.get();
        let (n, h, w) = (input.shape()[0], input.shape()[2], input.shape()[3]);
        let geom = self.geometry(h, w);
        let (spatial, ck2, nf) = (geom.col_rows(), geom.col_cols(), self.out_channels);
        let image_len = self.in_channels * h * w;
        let squared;
        let weight = if square {
            squared = self.weight.value.map(|v| v * v);
            squared.data()
        } else {
            self.weight.value.data()
        };
        let gd = delta.data();

        let mut bgrad = vec![0.0f32; nf];
        for image in gd.chunks_exact(nf * spatial) {
            for (b, row) in bgrad.iter_mut().zip(image.chunks_exact(spatial)) {
                let mut acc = *b;
                for &v in row {
                    acc += v;
                }
                *b = acc;
            }
        }

        let plan = tune::gemm_plan(n * spatial, nf, ck2, 0);
        let workers = plan.workers.min(n).max(1);
        let tile_len = nf * ck2;
        let group = if workers > 1 { (TILE_GROUP_ELEMS / tile_len).max(workers) } else { 1 };
        let mut tiles = vec![0.0f32; group.min(n) * tile_len];
        let mut wgrad = vec![0.0f32; tile_len];
        let mut grad_input = input_grad.then(|| Tensor::zeros(input.shape()));
        for g0 in (0..n).step_by(group) {
            let g1 = (g0 + group).min(n);
            let mut image_grads = grad_input
                .as_mut()
                .map(|t| t.data_mut()[g0 * image_len..g1 * image_len].chunks_exact_mut(image_len));
            let jobs = (g0..g1)
                .zip(tiles.chunks_exact_mut(tile_len))
                .map(|(i, tile)| (i, tile, image_grads.as_mut().and_then(Iterator::next)));
            for_each_image(workers, jobs, |(i, tile, image_grad)| {
                let x = &input.data()[i * image_len..][..image_len];
                let g = &gd[i * nf * spatial..][..nf * spatial];
                conv_weight_grad_into(g, x, &geom, square, plan.block_cols, tile);
                if let Some(dx) = image_grad {
                    conv_input_grad_accumulate(g, weight, &geom, plan.block_cols, dx);
                }
            });
            for tile in tiles.chunks_exact(tile_len).take(g1 - g0) {
                for (acc, &v) in wgrad.iter_mut().zip(tile) {
                    *acc += v;
                }
            }
        }

        let target = if square { &mut self.weight.hess } else { &mut self.weight.grad };
        for (g, &v) in target.data_mut().iter_mut().zip(&wgrad) {
            *g += v;
        }
        let btarget = if square { &mut self.bias.hess } else { &mut self.bias.grad };
        for (g, &v) in btarget.data_mut().iter_mut().zip(&bgrad) {
            *g += v;
        }
        grad_input
    }
}

/// Runs `job` on every item: inline when `workers` is 1, otherwise on
/// `workers` scoped threads, each taking a contiguous run of items under
/// the caller's kernel configuration. Jobs write disjoint outputs, so the
/// split never changes a byte.
fn for_each_image<I: Send>(workers: usize, items: impl Iterator<Item = I>, job: impl Fn(I) + Sync) {
    if workers <= 1 {
        items.for_each(job);
        return;
    }
    let items: Vec<I> = items.collect();
    let per_worker = items.len().div_ceil(workers);
    let mut items = items.into_iter();
    let config = KernelConfig::current();
    std::thread::scope(|scope| loop {
        let run: Vec<I> = items.by_ref().take(per_worker).collect();
        if run.is_empty() {
            break;
        }
        let job = &job;
        scope.spawn(move || config.scope(|| run.into_iter().for_each(job)));
    });
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut out = Tensor::zeros(&[0]);
        self.forward_out(input, mode, &mut out);
        out
    }

    fn forward_into(&mut self, input: &Tensor, mode: Mode, arena: &mut ActivationArena) -> Tensor {
        let mut out = arena.grab();
        self.forward_out(input, mode, &mut out);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.backward_impl(grad_output, false, true).expect("input gradient requested")
    }

    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        self.backward_impl(hess_output, true, true).expect("input gradient requested")
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.backward_impl(grad_output, false, false);
    }

    fn second_backward_params(&mut self, hess_output: &Tensor) {
        self.backward_impl(hess_output, true, false);
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.weight);
        visitor(&mut self.bias);
    }

    fn describe(&self) -> String {
        format!(
            "Conv2d({}->{}, k{}, s{}, p{})",
            self.in_channels, self.out_channels, self.kernel, self.stride, self.padding
        )
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = Prng::seed_from_u64(3);
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut rng);
        conv.weight.value.fill(0.0);
        conv.bias.value = Tensor::from_vec(vec![1.0, -1.0], &[2]).unwrap();
        let x = Tensor::zeros(&[1, 1, 5, 5]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 2, 3, 3]);
        assert_eq!(y.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(y.at(&[0, 1, 2, 2]), -1.0);
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut rng = Prng::seed_from_u64(4);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.weight.value.fill(1.0);
        let x = Tensor::from_fn(&[1, 1, 3, 3], |i| i as f32);
        let y = conv.forward(&x, Mode::Eval);
        assert!(y.allclose(&x, 1e-6));
    }

    #[test]
    fn gradcheck_weights_and_input() {
        // Finite-difference check of the analytic backward pass.
        let mut rng = Prng::seed_from_u64(5);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[2, 2, 4, 4], &mut rng);
        // Loss: sum of outputs (so dL/dy = 1 everywhere).
        let y = conv.forward(&x, Mode::Train);
        let ones = Tensor::ones(y.shape());
        let dx = conv.backward(&ones);

        let eps = 1e-2f32;
        // Check a few weight coordinates.
        for &i in &[0usize, 7, 20, 53] {
            let orig = conv.weight.value.data()[i];
            conv.weight.value.data_mut()[i] = orig + eps;
            let lp = conv.forward(&x, Mode::Train).sum();
            conv.weight.value.data_mut()[i] = orig - eps;
            let lm = conv.forward(&x, Mode::Train).sum();
            conv.weight.value.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps as f64);
            let an = conv.weight.grad.data()[i] as f64;
            assert!((fd - an).abs() < 1e-2 * (1.0 + an.abs()), "w[{i}]: fd {fd} an {an}");
        }
        // Check a few input coordinates.
        for &i in &[0usize, 13, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let lp = conv.forward(&xp, Mode::Train).sum();
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let lm = conv.forward(&xm, Mode::Train).sum();
            let fd = (lp - lm) / (2.0 * eps as f64);
            let an = dx.data()[i] as f64;
            assert!((fd - an).abs() < 1e-2 * (1.0 + an.abs()), "x[{i}]: fd {fd} an {an}");
        }
    }

    #[test]
    fn second_backward_is_nonnegative_for_nonneg_seed() {
        let mut rng = Prng::seed_from_u64(6);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = Tensor::randn(&[1, 1, 5, 5], &mut rng);
        let y = conv.forward(&x, Mode::Train);
        let h = Tensor::ones(y.shape());
        let hx = conv.second_backward(&h);
        assert!(conv.weight.hess.data().iter().all(|&v| v >= 0.0));
        assert!(hx.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn stride_two_shapes() {
        let mut rng = Prng::seed_from_u64(7);
        let mut conv = Conv2d::new(4, 8, 3, 2, 1, &mut rng);
        let x = Tensor::zeros(&[1, 4, 8, 8]);
        assert_eq!(conv.forward(&x, Mode::Eval).shape(), &[1, 8, 4, 4]);
    }

    #[test]
    fn param_count() {
        let mut rng = Prng::seed_from_u64(8);
        let mut conv = Conv2d::new(3, 16, 3, 1, 1, &mut rng);
        // 16*3*3*3 weights + 16 biases
        assert_eq!(conv.num_params(), 16 * 27 + 16);
    }

    /// Replicates the pre-batching per-image implementation (one
    /// materialized im2col and one GEMM per item, scalar scatter loops)
    /// as an independent semantic reference. Returns `(y, dx, dw, db)`
    /// for an upstream gradient `g`; `square` gives the second-order
    /// pass (patches and weights squared).
    #[allow(clippy::needless_range_loop)]
    fn per_image_reference(
        conv: &Conv2d,
        x: &Tensor,
        g: &Tensor,
        square: bool,
    ) -> (Tensor, Tensor, Tensor, Vec<f32>) {
        use swim_tensor::conv::{col2im, im2col};
        use swim_tensor::linalg::{matmul, matmul_at, matmul_bt};
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let geom = conv.geometry(h, w);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        let spatial = oh * ow;
        let (nf, ck2) = (conv.out_channels, geom.col_cols());
        let wmat = conv.weight.value.clone().reshaped(&[nf, ck2]);
        let wsq = if square { wmat.map(|v| v * v) } else { wmat.clone() };
        let mut y = Tensor::zeros(&[n, nf, oh, ow]);
        let mut dx = Tensor::zeros(x.shape());
        let mut dw = Tensor::zeros(&[nf, ck2]);
        let mut db = vec![0.0f32; nf];
        for item in 0..n {
            let image = x.slice_axis0(item, item + 1).reshaped(&[conv.in_channels, h, w]);
            let cols = im2col(&image, &geom);
            let yi = matmul_bt(&cols, &wmat); // [spatial, F]
            let od = y.data_mut();
            let base = item * nf * spatial;
            for s in 0..spatial {
                for f in 0..nf {
                    od[base + f * spatial + s] = yi.data()[s * nf + f] + conv.bias.value.data()[f];
                }
            }
            let mut delta = Tensor::zeros(&[spatial, nf]);
            let dd = delta.data_mut();
            for f in 0..nf {
                for s in 0..spatial {
                    let v = g.data()[base + f * spatial + s];
                    dd[s * nf + f] = v;
                    db[f] += v;
                }
            }
            let pcols = if square { cols.map(|v| v * v) } else { cols };
            dw.add_assign_t(&matmul_at(&delta, &pcols));
            let dimg = col2im(&matmul(&delta, &wsq), &geom);
            let ibase = item * conv.in_channels * h * w;
            let gi = dx.data_mut();
            for (dst, &src) in
                gi[ibase..ibase + conv.in_channels * h * w].iter_mut().zip(dimg.data())
            {
                *dst += src;
            }
        }
        (y, dx, dw, db)
    }

    fn bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|v| v.to_bits()).collect()
    }

    /// Forward, backward and second-backward of the fused lowering must
    /// be bit-identical to the materialized per-image reference, across
    /// stride/padding edge cases, the paper's layer shapes (LeNet at
    /// batch 1 and 100, ConvNet/ResNet 3×3 and 1×1 shortcuts), spatial
    /// sizes that are not a multiple of the GEMM panel width, and a
    /// forced multi-worker split.
    #[test]
    fn batched_lowering_bit_identical_to_per_image() {
        use swim_tensor::tune::{with_tuning, KernelTuning};
        let mut rng = Prng::seed_from_u64(31);
        // (cin, cout, kernel, stride, padding, h, w, batch)
        for &(cin, cout, k, s, p, h, w, n) in &[
            (1usize, 2usize, 3usize, 1usize, 0usize, 5usize, 5usize, 3usize),
            (3, 4, 3, 2, 1, 7, 6, 3),
            (2, 3, 3, 1, 2, 4, 4, 3),   // padding wider than half the kernel
            (1, 2, 5, 1, 2, 2, 3, 3),   // kernel larger than the image
            (2, 2, 1, 3, 0, 7, 7, 3),   // 1x1 kernel, large stride
            (1, 6, 5, 1, 2, 28, 28, 1), // LeNet conv1
            (1, 6, 5, 1, 2, 28, 28, 100),
            (6, 16, 5, 1, 0, 14, 14, 1), // LeNet conv2
            (6, 16, 5, 1, 0, 14, 14, 100),
            (8, 8, 3, 1, 1, 9, 9, 4),  // 3x3 s1 p1, 81 pixels
            (8, 16, 3, 2, 1, 9, 9, 4), // 3x3 s2 p1
            (8, 16, 1, 2, 0, 9, 9, 4), // 1x1 s2 shortcut
        ] {
            let what = format!("cin={cin} cout={cout} k={k} s={s} p={p} {h}x{w} n={n}");
            let mut conv = Conv2d::new(cin, cout, k, s, p, &mut rng);
            let x = Tensor::randn(&[n, cin, h, w], &mut rng);
            let y = conv.forward(&x, Mode::Train);
            let g = Tensor::randn(y.shape(), &mut rng);
            let mut threaded = conv.clone();

            let (yr, dxr, dwr, dbr) = per_image_reference(&conv, &x, &g, false);
            assert_eq!(bits(y.data()), bits(yr.data()), "forward {what}");
            let dx = conv.backward(&g);
            assert_eq!(bits(dx.data()), bits(dxr.data()), "dx {what}");
            assert_eq!(bits(conv.weight.grad.data()), bits(dwr.data()), "dw {what}");
            assert_eq!(bits(conv.bias.grad.data()), bits(&dbr), "db {what}");

            let (_, hxr, hwr, hbr) = per_image_reference(&conv, &x, &g, true);
            let hx = conv.second_backward(&g);
            assert_eq!(bits(hx.data()), bits(hxr.data()), "hx {what}");
            assert_eq!(bits(conv.weight.hess.data()), bits(hwr.data()), "hw {what}");
            assert_eq!(bits(conv.bias.hess.data()), bits(&hbr), "hb {what}");

            // Every product threaded across images: same bytes.
            let many = KernelTuning { gemm_threads: 3, gemm_min_flops: 1, ..Default::default() };
            with_tuning(&many, || {
                let yt = threaded.forward(&x, Mode::Train);
                assert_eq!(bits(yt.data()), bits(y.data()), "threaded forward {what}");
                let dxt = threaded.backward(&g);
                assert_eq!(bits(dxt.data()), bits(dx.data()), "threaded dx {what}");
                let hxt = threaded.second_backward(&g);
                assert_eq!(bits(hxt.data()), bits(hx.data()), "threaded hx {what}");
            });
            assert_eq!(bits(threaded.weight.grad.data()), bits(conv.weight.grad.data()));
            assert_eq!(bits(threaded.weight.hess.data()), bits(conv.weight.hess.data()));
            assert_eq!(bits(threaded.bias.grad.data()), bits(conv.bias.grad.data()));
        }
    }

    /// Image workers inherit the caller's kernel configuration: under a
    /// scalar override, LeNet's convolutions split across three workers
    /// are bit-equal to the serial scalar passes (a worker on the process
    /// default backend would round differently on any vector host).
    #[test]
    fn image_workers_inherit_the_callers_backend() {
        use swim_tensor::simd::{with_backend, Backend};
        use swim_tensor::tune::{with_tuning, KernelTuning};
        let mut rng = Prng::seed_from_u64(35);
        // (cin, cout, padding, image side): LeNet conv1 and conv2.
        for &(cin, cout, p, side) in &[(1usize, 6usize, 2usize, 28usize), (6, 16, 0, 14)] {
            let conv = Conv2d::new(cin, cout, 5, 1, p, &mut rng);
            let x = Tensor::randn(&[6, cin, side, side], &mut rng);
            let out_side = side + 2 * p - 4;
            let g = Tensor::randn(&[6, cout, out_side, out_side], &mut rng);
            let passes = |threads: usize| {
                let mut layer = conv.clone();
                let split =
                    KernelTuning { gemm_threads: threads, gemm_min_flops: 1, ..Default::default() };
                with_tuning(&split, || {
                    let y = layer.forward(&x, Mode::Train);
                    let dx = layer.backward(&g);
                    let hx = layer.second_backward(&g);
                    [
                        y.data(),
                        dx.data(),
                        hx.data(),
                        layer.weight.grad.data(),
                        layer.weight.hess.data(),
                    ]
                    .map(bits)
                })
            };
            let (serial, split) = with_backend(Backend::Scalar, || (passes(1), passes(3))).unwrap();
            for (what, (s, t)) in
                ["y", "dx", "hx", "dw", "hw"].iter().zip(serial.iter().zip(&split))
            {
                assert_eq!(s, t, "{what}, {cin}->{cout}");
            }
        }
    }

    /// Differently-shaped calls must not leak state (shrinking batch,
    /// then growing again), and a layer holds no lowering buffer: after
    /// forward and backward it is its parameters plus the cached input.
    #[test]
    fn scratch_reuse_across_shapes_is_clean() {
        let mut rng = Prng::seed_from_u64(32);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let big = Tensor::randn(&[4, 2, 6, 6], &mut rng);
        let small = Tensor::randn(&[1, 2, 6, 6], &mut rng);
        let via_warm = {
            conv.forward(&big, Mode::Eval);
            conv.forward(&small, Mode::Eval)
        };
        let via_cold = conv.clone_layer().forward(&small, Mode::Eval);
        assert_eq!(via_warm.data(), via_cold.data());
        conv.backward(&Tensor::ones(via_warm.shape()));
        conv.second_backward(&Tensor::ones(via_warm.shape()));
        // Exhaustive on purpose: a new field must be accounted for here.
        let Conv2d {
            weight,
            bias,
            cached_input,
            in_channels: _,
            out_channels: _,
            kernel: _,
            stride: _,
            padding: _,
        } = &conv;
        let params =
            [&weight.value, &weight.grad, &weight.hess, &bias.value, &bias.grad, &bias.hess];
        let held = params.iter().map(|t| t.len()).sum::<usize>() + cached_input.get().len();
        assert_eq!(held, 3 * (3 * 2 * 9) + 3 * 3 + small.len());
    }

    /// The params-only passes accumulate the same bytes as the full
    /// passes and skip nothing else.
    #[test]
    fn params_only_backward_matches_full_backward() {
        let mut rng = Prng::seed_from_u64(33);
        let mut full = Conv2d::new(3, 4, 3, 2, 1, &mut rng);
        let x = Tensor::randn(&[5, 3, 9, 9], &mut rng);
        let y = full.forward(&x, Mode::Train);
        let g = Tensor::randn(y.shape(), &mut rng);
        let mut skip = full.clone();
        full.backward(&g);
        full.second_backward(&g);
        skip.backward_params(&g);
        skip.second_backward_params(&g);
        assert_eq!(bits(skip.weight.grad.data()), bits(full.weight.grad.data()));
        assert_eq!(bits(skip.weight.hess.data()), bits(full.weight.hess.data()));
        assert_eq!(bits(skip.bias.grad.data()), bits(full.bias.grad.data()));
        assert_eq!(bits(skip.bias.hess.data()), bits(full.bias.hess.data()));
    }
}
