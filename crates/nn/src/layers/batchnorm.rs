//! 2-D batch normalization.

use crate::arena::ActivationArena;
use crate::layer::{Layer, Mode};
use crate::param::{Param, ParamKind};
use swim_tensor::simd;
use swim_tensor::Tensor;

/// Per-channel batch normalization over `[N, C, H, W]` activations.
///
/// Training mode normalizes with batch statistics and updates running
/// estimates; evaluation mode uses the frozen running statistics, making
/// the layer an affine map `y = γ·(x − μ)/√(σ² + ε) + β`.
///
/// The second-order backward treats the layer in its evaluation (affine)
/// form — exactly how the paper handles it, since sensitivities are
/// computed on a *trained* network: "batch normalization layers can be
/// cast in the same form as FC layers" (§3.3), giving
/// `h_x = (γ/√(σ²+ε))² · h_y`. γ and β live in the digital periphery and
/// are not device-mapped.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    channels: usize,
    /// Cached per-forward state: (input, normalized x̂, batch mean, batch var).
    cache: Option<BnCache>,
    /// Reused per-channel statistics scratch (batch stats when training,
    /// a copy of the running stats when evaluating).
    batch_mean: Vec<f32>,
    batch_var: Vec<f32>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    mode: Mode,
}

impl BnCache {
    /// The state of the last `Train`/`Eval` forward. An `Infer` forward
    /// still writes x̂ into the cache's buffer (the kernel produces it
    /// alongside the output) but records its mode, which makes the cache
    /// stale for the backward passes.
    fn fresh(cache: &Option<BnCache>) -> &BnCache {
        let cache = cache.as_ref().filter(|c| c.mode != Mode::Infer);
        cache.expect("backward called before forward")
    }
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` feature maps.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channels must be positive");
        BatchNorm2d {
            gamma: Param::new("gamma", Tensor::ones(&[channels]), ParamKind::Digital),
            beta: Param::new("beta", Tensor::zeros(&[channels]), ParamKind::Digital),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cache: None,
            batch_mean: Vec::new(),
            batch_var: Vec::new(),
        }
    }

    /// Channel count this layer normalizes.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The running mean estimates (one per channel).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// The running variance estimates (one per channel).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// The shared forward body: `out` is completely overwritten; the
    /// statistics scratch and the x̂/inv_std cache reuse their previous
    /// allocations, so the evaluation path allocates nothing once warm.
    fn forward_out(&mut self, input: &Tensor, mode: Mode, out: &mut Tensor) {
        assert_eq!(input.rank(), 4, "BatchNorm2d expects [N, C, H, W] input");
        assert_eq!(
            input.shape()[1],
            self.channels,
            "BatchNorm2d expected {} channels, got {}",
            self.channels,
            input.shape()[1]
        );
        let (n, c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2], input.shape()[3]);
        let plane = h * w;
        let count = (n * plane) as f32;

        self.batch_mean.clear();
        self.batch_var.clear();
        match mode {
            Mode::Train => {
                self.batch_mean.resize(c, 0.0);
                self.batch_var.resize(c, 0.0);
                let id = input.data();
                for (ch, slot) in self.batch_mean.iter_mut().enumerate() {
                    let mut acc = 0.0f64;
                    for item in 0..n {
                        let base = (item * c + ch) * plane;
                        for &v in &id[base..base + plane] {
                            acc += v as f64;
                        }
                    }
                    *slot = (acc / count as f64) as f32;
                }
                for (ch, slot) in self.batch_var.iter_mut().enumerate() {
                    let m = self.batch_mean[ch] as f64;
                    let mut acc = 0.0f64;
                    for item in 0..n {
                        let base = (item * c + ch) * plane;
                        for &v in &id[base..base + plane] {
                            let d = v as f64 - m;
                            acc += d * d;
                        }
                    }
                    *slot = (acc / count as f64) as f32;
                }
                for ch in 0..c {
                    self.running_mean[ch] = (1.0 - self.momentum) * self.running_mean[ch]
                        + self.momentum * self.batch_mean[ch];
                    self.running_var[ch] = (1.0 - self.momentum) * self.running_var[ch]
                        + self.momentum * self.batch_var[ch];
                }
            }
            Mode::Eval | Mode::Infer => {
                self.batch_mean.extend_from_slice(&self.running_mean);
                self.batch_var.extend_from_slice(&self.running_var);
            }
        }

        let eps = self.eps;
        let cache = self.cache.get_or_insert_with(|| BnCache {
            x_hat: Tensor::zeros(&[0]),
            inv_std: Vec::new(),
            mode,
        });
        cache.mode = mode;
        cache.inv_std.clear();
        cache.inv_std.extend(self.batch_var.iter().map(|&v| 1.0 / (v + eps).sqrt()));
        cache.x_hat.reset_zeroed(input.shape());
        out.reset_zeroed(input.shape());
        {
            let id = input.data();
            let xh = cache.x_hat.data_mut();
            let od = out.data_mut();
            let g = self.gamma.value.data();
            let b = self.beta.value.data();
            for item in 0..n {
                for ch in 0..c {
                    let base = (item * c + ch) * plane;
                    let (m, is) = (self.batch_mean[ch], cache.inv_std[ch]);
                    simd::batchnorm_normalize(
                        &id[base..base + plane],
                        m,
                        is,
                        g[ch],
                        b[ch],
                        &mut xh[base..base + plane],
                        &mut od[base..base + plane],
                    );
                }
            }
        }
    }
}

impl Layer for BatchNorm2d {
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
        let cache = BnCache::fresh(&self.cache);
        let shape = cache.x_hat.shape().to_vec();
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let plane = h * w;
        let count = (n * plane) as f32;
        assert_eq!(grad_output.shape(), &shape[..], "gradient does not match cached forward");

        let xh = cache.x_hat.data();
        let gd = grad_output.data();
        let gamma = self.gamma.value.data();

        // Parameter gradients.
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for item in 0..n {
            for ch in 0..c {
                let base = (item * c + ch) * plane;
                for p in 0..plane {
                    dgamma[ch] += gd[base + p] * xh[base + p];
                    dbeta[ch] += gd[base + p];
                }
            }
        }
        for ch in 0..c {
            self.gamma.grad.data_mut()[ch] += dgamma[ch];
            self.beta.grad.data_mut()[ch] += dbeta[ch];
        }

        let mut grad_input = Tensor::zeros(&shape);
        let gi = grad_input.data_mut();
        match cache.mode {
            Mode::Train => {
                // Full batch-statistics backward:
                // dx = γ·inv_std/N · (N·dy − Σdy − x̂·Σ(dy·x̂))
                for ch in 0..c {
                    let coeff = gamma[ch] * cache.inv_std[ch] / count;
                    for item in 0..n {
                        let base = (item * c + ch) * plane;
                        for p in 0..plane {
                            gi[base + p] = coeff
                                * (count * gd[base + p] - dbeta[ch] - xh[base + p] * dgamma[ch]);
                        }
                    }
                }
            }
            Mode::Eval | Mode::Infer => {
                // Affine backward: dx = γ·inv_std·dy
                for (ch, (&g, &inv)) in gamma.iter().zip(&cache.inv_std).enumerate() {
                    let coeff = g * inv;
                    for item in 0..n {
                        let base = (item * c + ch) * plane;
                        for p in 0..plane {
                            gi[base + p] = coeff * gd[base + p];
                        }
                    }
                }
            }
        }
        grad_input
    }

    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        let cache = BnCache::fresh(&self.cache);
        let shape = cache.x_hat.shape().to_vec();
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let plane = h * w;
        assert_eq!(hess_output.shape(), &shape[..], "hessian does not match cached forward");

        let xh = cache.x_hat.data();
        let hd = hess_output.data();
        let gamma = self.gamma.value.data();

        // Affine-form second derivatives (frozen statistics):
        // h_γ[c] += Σ x̂² h_y ; h_β[c] += Σ h_y ; h_x = (γ·inv_std)² h_y.
        let mut hgamma = vec![0.0f32; c];
        let mut hbeta = vec![0.0f32; c];
        let mut hess_input = Tensor::zeros(&shape);
        let hi = hess_input.data_mut();
        for ch in 0..c {
            let coeff = gamma[ch] * cache.inv_std[ch];
            let coeff_sq = coeff * coeff;
            for item in 0..n {
                let base = (item * c + ch) * plane;
                for p in 0..plane {
                    let hv = hd[base + p];
                    hgamma[ch] += hv * xh[base + p] * xh[base + p];
                    hbeta[ch] += hv;
                    hi[base + p] = coeff_sq * hv;
                }
            }
        }
        for ch in 0..c {
            self.gamma.hess.data_mut()[ch] += hgamma[ch];
            self.beta.hess.data_mut()[ch] += hbeta[ch];
        }
        hess_input
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        visitor(&mut self.gamma);
        visitor(&mut self.beta);
    }

    fn describe(&self) -> String {
        format!("BatchNorm2d({})", self.channels)
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_tensor::Prng;

    #[test]
    fn train_forward_normalizes() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = Prng::seed_from_u64(5);
        let x = Tensor::from_fn(&[4, 2, 3, 3], |_| rng.normal_f32(3.0, 2.0));
        let y = bn.forward(&x, Mode::Train);
        // Per-channel output should be ~zero-mean unit-variance.
        let (n, c, plane) = (4, 2, 9);
        for ch in 0..c {
            let mut acc = 0.0f64;
            let mut sq = 0.0f64;
            for item in 0..n {
                let base = (item * c + ch) * plane;
                for p in 0..plane {
                    let v = y.data()[base + p] as f64;
                    acc += v;
                    sq += v * v;
                }
            }
            let cnt = (n * plane) as f64;
            let mean = acc / cnt;
            let var = sq / cnt - mean * mean;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean[0] = 2.0;
        bn.running_var[0] = 4.0;
        let x = Tensor::from_vec(vec![6.0], &[1, 1, 1, 1]).unwrap();
        let y = bn.forward(&x, Mode::Eval);
        // (6-2)/2 = 2
        assert!((y.data()[0] - 2.0).abs() < 1e-4);
    }

    #[test]
    fn train_backward_gradcheck() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = Prng::seed_from_u64(6);
        let x = Tensor::randn(&[3, 2, 2, 2], &mut rng);
        // Use a quadratic loss L = 0.5 Σ y² so dL/dy = y.
        let y = bn.forward(&x, Mode::Train);
        let dx = bn.backward(&y);
        let eps = 1e-2f32;
        for &i in &[0usize, 5, 13, 20] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut bn_p = BatchNorm2d::new(2);
            let yp = bn_p.forward(&xp, Mode::Train);
            let lp: f64 = 0.5 * yp.norm_sq();
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut bn_m = BatchNorm2d::new(2);
            let ym = bn_m.forward(&xm, Mode::Train);
            let lm: f64 = 0.5 * ym.norm_sq();
            let fd = (lp - lm) / (2.0 * eps as f64);
            let an = dx.data()[i] as f64;
            assert!((fd - an).abs() < 2e-2 * (1.0 + an.abs()), "x[{i}]: fd {fd} an {an}");
        }
    }

    #[test]
    fn eval_second_backward_is_affine_scaling() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_var[0] = 3.0;
        bn.gamma.value.data_mut()[0] = 2.0;
        let x = Tensor::ones(&[1, 1, 2, 2]);
        bn.forward(&x, Mode::Eval);
        let h = Tensor::ones(&[1, 1, 2, 2]);
        let hx = bn.second_backward(&h);
        let inv_std = 1.0 / (3.0f32 + 1e-5).sqrt();
        let expect = (2.0 * inv_std) * (2.0 * inv_std);
        for &v in hx.data() {
            assert!((v - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn params_are_digital() {
        let mut bn = BatchNorm2d::new(3);
        bn.visit_params(&mut |p| assert!(!p.is_device_mapped()));
        assert_eq!(bn.num_params(), 6);
    }

    #[test]
    fn running_stats_update_toward_batch() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[2, 1, 2, 2], 10.0);
        bn.forward(&x, Mode::Train);
        assert!(bn.running_mean()[0] > 0.5); // moved from 0 toward 10
        assert!(bn.running_var()[0] < 1.0); // moved from 1 toward 0
    }
}
