//! A complete model: layers plus whole-network operations.

use crate::arena::ActivationArena;
use crate::layer::{Layer, Mode};
use crate::layers::Sequential;
use crate::loss::Loss;
use crate::param::Param;
use swim_tensor::Tensor;

/// A named network with whole-model forward/backward, metric, and
/// flat-weight plumbing.
///
/// The flat views ([`Network::device_weights`],
/// [`Network::device_hessian`], [`Network::set_device_weights`]) expose
/// every *device-mapped* weight (conv/FC matrices, not biases or
/// batch-norm parameters) as a single `Vec<f32>` in deterministic layer
/// order. That flat index space is the coordinate system the whole SWIM
/// pipeline works in: sensitivities are ranked in it, the device
/// programming model perturbs it, and write-verify selections are masks
/// over it.
///
/// # Example
///
/// ```
/// use swim_nn::layers::{Linear, Sequential};
/// use swim_nn::network::Network;
/// use swim_tensor::Prng;
///
/// let mut rng = Prng::seed_from_u64(0);
/// let mut seq = Sequential::new();
/// seq.push(Linear::new(4, 2, &mut rng));
/// let mut net = Network::new("tiny", seq);
/// assert_eq!(net.device_weight_count(), 8);
/// assert_eq!(net.num_params(), 10); // + 2 bias
/// ```
#[derive(Clone)]
pub struct Network {
    name: String,
    root: Sequential,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Network({})", self.name)
    }
}

impl Network {
    /// Wraps a layer stack into a named network.
    pub fn new(name: impl Into<String>, root: Sequential) -> Self {
        Network { name: name.into(), root }
    }

    /// The network's name (e.g. `"lenet"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Human-readable architecture summary.
    pub fn describe(&self) -> String {
        format!("{}: {}", self.name, self.root.describe())
    }

    // ------------------------------------------------------------- passes

    /// Forward pass on a batch.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        self.root.forward(input, mode)
    }

    /// Forward pass with activations drawn from `arena` — the
    /// allocation-free path ([`crate::layer::Layer::forward_into`]).
    /// Recycle the returned tensor into the arena once consumed.
    pub fn forward_with(
        &mut self,
        input: &Tensor,
        mode: Mode,
        arena: &mut ActivationArena,
    ) -> Tensor {
        self.root.forward_into(input, mode, arena)
    }

    /// First-order backward pass (after a forward on the same batch).
    pub fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.root.backward(grad_output)
    }

    /// Second-order backward pass (after a forward on the same batch).
    pub fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        self.root.second_backward(hess_output)
    }

    /// Runs forward + backward for `loss`, accumulating parameter
    /// gradients. Returns the batch loss.
    pub fn accumulate_gradients(
        &mut self,
        loss: &dyn Loss,
        input: &Tensor,
        targets: &[usize],
    ) -> f64 {
        let logits = self.forward(input, Mode::Train);
        let l = loss.forward(&logits, targets);
        let g = loss.backward(&logits, targets);
        self.root.backward_params(&g);
        l
    }

    /// Runs forward + second-order backward for `loss`, accumulating the
    /// per-parameter Hessian diagonal (paper §3.3: "only second derivative
    /// computation is done only once"). Returns the batch loss.
    ///
    /// The forward runs in [`Mode::Eval`]: sensitivities are a property of
    /// the *trained, frozen* network.
    pub fn accumulate_hessian(
        &mut self,
        loss: &dyn Loss,
        input: &Tensor,
        targets: &[usize],
    ) -> f64 {
        let logits = self.forward(input, Mode::Eval);
        let l = loss.forward(&logits, targets);
        let h = loss.second_backward(&logits, targets);
        self.root.second_backward_params(&h);
        l
    }

    /// Like [`Network::accumulate_hessian`], but runs a first-order
    /// backward pass before the second-order pass so smooth activations
    /// (tanh, sigmoid) can include the full Eq. 9 curvature term
    /// `g''·∂f/∂P`. Parameter gradients are accumulated as a side effect.
    ///
    /// For pure-ReLU networks this produces the same Hessian diagonal as
    /// [`Network::accumulate_hessian`] (the `g''` term is identically
    /// zero).
    pub fn accumulate_hessian_full(
        &mut self,
        loss: &dyn Loss,
        input: &Tensor,
        targets: &[usize],
    ) -> f64 {
        let logits = self.forward(input, Mode::Eval);
        let l = loss.forward(&logits, targets);
        let g = loss.backward(&logits, targets);
        self.root.backward_params(&g);
        let h = loss.second_backward(&logits, targets);
        self.root.second_backward_params(&h);
        l
    }

    // ------------------------------------------------------------- params

    /// Visits every parameter in deterministic layer order.
    pub fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        self.root.visit_params(visitor);
    }

    /// Zeroes all gradient accumulators.
    pub fn zero_grads(&mut self) {
        self.root.zero_grads();
    }

    /// Zeroes all Hessian-diagonal accumulators.
    pub fn zero_hess(&mut self) {
        self.root.zero_hess();
    }

    /// Total trainable scalars (device-mapped and digital).
    pub fn num_params(&mut self) -> usize {
        self.root.num_params()
    }

    /// Number of device-mapped weights (the paper's "total number of
    /// weights" — conv/FC matrices only).
    pub fn device_weight_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| {
            if p.is_device_mapped() {
                n += p.len();
            }
        });
        n
    }

    /// Flattens all device-mapped weights into one vector (deterministic
    /// layer order).
    pub fn device_weights(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| {
            if p.is_device_mapped() {
                out.extend_from_slice(p.value.data());
            }
        });
        out
    }

    /// Writes a flat weight vector back into the device-mapped parameters.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from
    /// [`Network::device_weight_count`].
    pub fn set_device_weights(&mut self, weights: &[f32]) {
        let mut offset = 0usize;
        self.visit_params(&mut |p| {
            if p.is_device_mapped() {
                let n = p.len();
                assert!(
                    offset + n <= weights.len(),
                    "flat weight vector too short: need at least {}",
                    offset + n
                );
                p.value.data_mut().copy_from_slice(&weights[offset..offset + n]);
                offset += n;
            }
        });
        assert_eq!(
            offset,
            weights.len(),
            "flat weight vector length {} does not match device weight count {offset}",
            weights.len()
        );
    }

    /// Flattens the accumulated Hessian diagonal of device-mapped weights.
    pub fn device_hessian(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| {
            if p.is_device_mapped() {
                out.extend_from_slice(p.hess.data());
            }
        });
        out
    }

    /// Flattens the accumulated gradient of device-mapped weights.
    pub fn device_gradient(&mut self) -> Vec<f32> {
        let mut out = Vec::new();
        self.visit_params(&mut |p| {
            if p.is_device_mapped() {
                out.extend_from_slice(p.grad.data());
            }
        });
        out
    }

    // ------------------------------------------------------------- metrics

    /// Class predictions (row argmax of the logits), from an
    /// [`Mode::Infer`] forward: no backward caches are kept.
    pub fn predict(&mut self, input: &Tensor) -> Vec<usize> {
        self.forward(input, Mode::Infer).argmax_rows()
    }

    /// Classification accuracy in `[0, 1]`, evaluated in mini-batches
    /// of [`Mode::Infer`] forwards.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the first dimension of
    /// `images`, or `batch_size` is zero.
    pub fn accuracy(&mut self, images: &Tensor, labels: &[usize], batch_size: usize) -> f64 {
        assert!(batch_size > 0, "batch_size must be positive");
        let n = images.shape()[0];
        assert_eq!(labels.len(), n, "label count {} != image count {n}", labels.len());
        if n == 0 {
            return 0.0;
        }
        let mut correct = 0usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + batch_size).min(n);
            let batch = images.slice_axis0(start, end);
            let preds = self.predict(&batch);
            correct += preds.iter().zip(&labels[start..end]).filter(|(p, t)| p == t).count();
            start = end;
        }
        correct as f64 / n as f64
    }

    /// [`Network::accuracy`] with every working buffer (batch slice,
    /// activations) recycled through `arena` — the Monte Carlo eval
    /// loop's zero-allocation scoring path. Results are bit-identical to
    /// [`Network::accuracy`]; the forwards run in [`Mode::Infer`], so
    /// scoring a chip copies no activations for a backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the first dimension of
    /// `images`, or `batch_size` is zero.
    pub fn accuracy_with(
        &mut self,
        images: &Tensor,
        labels: &[usize],
        batch_size: usize,
        arena: &mut ActivationArena,
    ) -> f64 {
        assert!(batch_size > 0, "batch_size must be positive");
        let n = images.shape()[0];
        assert_eq!(labels.len(), n, "label count {} != image count {n}", labels.len());
        if n == 0 {
            return 0.0;
        }
        let mut correct = 0usize;
        let mut start = 0usize;
        let mut batch = arena.grab();
        while start < n {
            let end = (start + batch_size).min(n);
            images.slice_axis0_into(start, end, &mut batch);
            let logits = self.forward_with(&batch, Mode::Infer, arena);
            // Row argmax compared against the label in place — exactly
            // `Tensor::argmax_rows` (first maximum wins) without the
            // per-batch index vector.
            let cols = logits.shape()[1];
            assert!(cols > 0, "argmax requires at least one column");
            for (r, &label) in labels[start..end].iter().enumerate() {
                let row = &logits.data()[r * cols..(r + 1) * cols];
                let mut best = 0;
                for (i, &x) in row.iter().enumerate() {
                    if x > row[best] {
                        best = i;
                    }
                }
                if best == label {
                    correct += 1;
                }
            }
            arena.recycle(logits);
            start = end;
        }
        arena.recycle(batch);
        correct as f64 / n as f64
    }

    /// Mean loss over a dataset, evaluated in mini-batches without
    /// touching gradients.
    pub fn evaluate_loss(
        &mut self,
        loss: &dyn Loss,
        images: &Tensor,
        labels: &[usize],
        batch_size: usize,
    ) -> f64 {
        assert!(batch_size > 0, "batch_size must be positive");
        let n = images.shape()[0];
        assert_eq!(labels.len(), n, "label count {} != image count {n}", labels.len());
        if n == 0 {
            return 0.0;
        }
        let mut acc = 0.0f64;
        let mut start = 0usize;
        while start < n {
            let end = (start + batch_size).min(n);
            let batch = images.slice_axis0(start, end);
            let logits = self.forward(&batch, Mode::Eval);
            acc += loss.forward(&logits, &labels[start..end]) * (end - start) as f64;
            start = end;
        }
        acc / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use crate::loss::SoftmaxCrossEntropy;
    use swim_tensor::Prng;

    fn mlp(rng: &mut Prng) -> Network {
        let mut seq = Sequential::new();
        seq.push(Linear::new(4, 6, rng));
        seq.push(Relu::new());
        seq.push(Linear::new(6, 3, rng));
        Network::new("mlp", seq)
    }

    #[test]
    fn flat_weight_round_trip() {
        let mut rng = Prng::seed_from_u64(1);
        let mut net = mlp(&mut rng);
        let w = net.device_weights();
        assert_eq!(w.len(), 4 * 6 + 6 * 3);
        let mut w2 = w.clone();
        for v in &mut w2 {
            *v += 1.0;
        }
        net.set_device_weights(&w2);
        assert_eq!(net.device_weights(), w2);
        net.set_device_weights(&w);
        assert_eq!(net.device_weights(), w);
    }

    #[test]
    #[should_panic(expected = "flat weight vector")]
    fn set_weights_length_checked() {
        let mut rng = Prng::seed_from_u64(2);
        let mut net = mlp(&mut rng);
        net.set_device_weights(&[0.0; 3]);
    }

    #[test]
    fn clone_is_independent() {
        let mut rng = Prng::seed_from_u64(3);
        let mut net = mlp(&mut rng);
        let mut copy = net.clone();
        let w = net.device_weights();
        let mut w2 = w.clone();
        w2[0] += 5.0;
        copy.set_device_weights(&w2);
        assert_eq!(net.device_weights(), w);
        assert_ne!(copy.device_weights()[0], w[0]);
    }

    #[test]
    fn gradient_accumulation_changes_loss() {
        let mut rng = Prng::seed_from_u64(4);
        let mut net = mlp(&mut rng);
        let x = Tensor::randn(&[8, 4], &mut rng);
        let y: Vec<usize> = (0..8).map(|i| i % 3).collect();
        let loss = SoftmaxCrossEntropy::new();
        net.zero_grads();
        let l = net.accumulate_gradients(&loss, &x, &y);
        assert!(l > 0.0);
        // Gradient descent step by hand should reduce loss.
        let mut grads = Vec::new();
        net.visit_params(&mut |p| grads.push(p.grad.clone()));
        let mut i = 0;
        net.visit_params(&mut |p| {
            p.value.axpy(-0.5, &grads[i]);
            i += 1;
        });
        let l2 = net.evaluate_loss(&loss, &x, &y, 8);
        assert!(l2 < l, "loss {l} -> {l2}");
    }

    #[test]
    fn hessian_accumulation_nonnegative() {
        let mut rng = Prng::seed_from_u64(5);
        let mut net = mlp(&mut rng);
        let x = Tensor::randn(&[8, 4], &mut rng);
        let y: Vec<usize> = (0..8).map(|i| i % 3).collect();
        net.zero_hess();
        net.accumulate_hessian(&SoftmaxCrossEntropy::new(), &x, &y);
        let h = net.device_hessian();
        assert_eq!(h.len(), net.device_weight_count());
        assert!(h.iter().all(|&v| v >= 0.0));
        assert!(h.iter().any(|&v| v > 0.0));
    }

    /// The accumulate_* passes skip the first layer's input gradient;
    /// the parameter `grad`/`hess` bytes must match the full passes.
    #[test]
    fn first_layer_skip_keeps_parameter_bytes() {
        let mut rng = Prng::seed_from_u64(8);
        let mut skip = crate::models::LeNetConfig::default().build(9);
        let x = Tensor::randn(&[6, 1, 28, 28], &mut rng);
        let y: Vec<usize> = (0..6).map(|i| i % 10).collect();
        let loss = SoftmaxCrossEntropy::new();
        let mut full = skip.clone();
        skip.accumulate_gradients(&loss, &x, &y);
        skip.accumulate_hessian(&loss, &x, &y);
        skip.accumulate_hessian_full(&loss, &x, &y);

        let logits = full.forward(&x, Mode::Train);
        full.backward(&loss.backward(&logits, &y));
        let logits = full.forward(&x, Mode::Eval);
        full.second_backward(&loss.second_backward(&logits, &y));
        full.backward(&loss.backward(&logits, &y));
        full.second_backward(&loss.second_backward(&logits, &y));

        let bytes = |net: &mut Network| {
            let mut out = Vec::new();
            net.visit_params(&mut |p| {
                out.extend(p.grad.data().iter().chain(p.hess.data()).map(|v| v.to_bits()));
            });
            out
        };
        assert_eq!(bytes(&mut skip), bytes(&mut full));
    }

    #[test]
    fn accuracy_bounds() {
        let mut rng = Prng::seed_from_u64(6);
        let mut net = mlp(&mut rng);
        let x = Tensor::randn(&[10, 4], &mut rng);
        let y: Vec<usize> = (0..10).map(|i| i % 3).collect();
        let acc = net.accuracy(&x, &y, 4);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn accuracy_on_empty_dataset_is_zero() {
        let mut rng = Prng::seed_from_u64(7);
        let mut net = mlp(&mut rng);
        let x = Tensor::zeros(&[0, 4]);
        assert_eq!(net.accuracy(&x, &[], 4), 0.0);
    }
}
