//! The layer abstraction: forward, backward, and second-order backward.

use crate::arena::ActivationArena;
use crate::param::Param;
use swim_tensor::Tensor;

/// What a forward pass is for: training, frozen evaluation that a
/// backward pass may follow, or pure inference.
///
/// * `Train` and `Eval` differ only in mode-dependent layers (batch
///   normalization uses batch statistics when training and running
///   statistics otherwise). Both keep the activations the backward
///   passes need: the sensitivity pass runs `second_backward` after an
///   `Eval` forward.
/// * `Infer` computes exactly the `Eval` output, bit for bit, but keeps
///   nothing for a backward pass: `Conv2d`/`Linear` skip the cached
///   input copy, `Relu` writes no mask and `MaxPool2d` no argmax. Every
///   layer marks its caches stale while keeping their capacity, so a
///   `backward`/`second_backward` after an `Infer` forward panics
///   ("backward called before forward") instead of reading an older
///   batch, and a later `Train`/`Eval` forward refills the same buffers.
///   [`crate::Network::accuracy`], [`crate::Network::accuracy_with`] and
///   [`crate::Network::predict`] run in this mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Training: batch statistics, QAT fake quantization active.
    Train,
    /// Evaluation / sensitivity analysis: frozen statistics, backward
    /// caches kept.
    #[default]
    Eval,
    /// Inference: `Eval` outputs with no backward caches.
    Infer,
}

/// A differentiable network layer with first- and second-order
/// backpropagation.
///
/// The second-order pass is the heart of the SWIM reproduction: the paper
/// (§3.3) observes that the diagonal of the loss Hessian can be obtained by
/// a backward recursion structurally identical to gradient
/// backpropagation, where each layer pushes `∂²f/∂output²` to
/// `∂²f/∂input²` and accumulates `∂²f/∂θ²` for its parameters:
///
/// * FC / conv (Eq. 8): `h_W = h_O · P²`, `h_P = W² · h_O`;
/// * ReLU (Eq. 10): multiply by the active-input indicator;
/// * max pooling: route to the argmax; skip connections: sum branches.
///
/// # Contract
///
/// `backward`/`second_backward` must be called after a `forward` on the
/// same input batch in [`Mode::Train`] or [`Mode::Eval`] (layers cache
/// activations; an [`Mode::Infer`] forward leaves them stale). Both *accumulate* into
/// `Param::grad` / `Param::hess` so sensitivities can be averaged over
/// multiple batches; call [`Layer::zero_grads`] / [`Layer::zero_hess`]
/// between optimizer steps.
///
/// Layers are `Send + Sync` (they own plain tensor data) so whole
/// networks can be shared immutably across Monte Carlo worker threads
/// and cloned into them.
pub trait Layer: Send + Sync {
    /// Computes the layer output for a batch.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// [`Layer::forward`] with the output written into a buffer recycled
    /// from `arena` — the allocation-free forward path.
    ///
    /// The returned tensor's storage came from the arena; the caller
    /// recycles it ([`ActivationArena::recycle`]) once consumed so later
    /// layers (and later forward passes) reuse it. Results must be
    /// bit-identical to [`Layer::forward`]; backward passes see the same
    /// cached activations either way.
    ///
    /// The default implementation falls back to the fresh-allocation
    /// `forward`, so exotic layers stay correct without implementing the
    /// arena path (they just keep allocating). Every built-in layer
    /// overrides it.
    fn forward_into(&mut self, input: &Tensor, mode: Mode, arena: &mut ActivationArena) -> Tensor {
        let _ = arena;
        self.forward(input, mode)
    }

    /// Pushes the loss gradient from output to input, accumulating
    /// parameter gradients.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Pushes the diagonal second derivative of the loss from output to
    /// input, accumulating parameter second derivatives (paper Eqs. 8–10).
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor;

    /// [`Layer::backward`] for a caller that discards the input gradient
    /// (the first layer of a network): accumulates the same parameter
    /// gradients, bit for bit, and may skip the input-gradient work. The
    /// default runs `backward` and drops its result.
    fn backward_params(&mut self, grad_output: &Tensor) {
        let _ = self.backward(grad_output);
    }

    /// The [`Layer::second_backward`] counterpart of
    /// [`Layer::backward_params`].
    fn second_backward_params(&mut self, hess_output: &Tensor) {
        let _ = self.second_backward(hess_output);
    }

    /// Visits every trainable parameter of this layer (and sub-layers).
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param));

    /// Short human-readable description (e.g. `"Linear(400->120)"`).
    fn describe(&self) -> String;

    /// Deep-copies the layer (parameters, buffers, caches).
    ///
    /// Monte Carlo evaluation perturbs many independent copies of a
    /// network in parallel; this is the object-safe clone hook that makes
    /// `Box<dyn Layer>` (and therefore whole networks) cloneable.
    fn clone_layer(&self) -> Box<dyn Layer>;

    /// Zeroes all gradient accumulators.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Zeroes all second-derivative accumulators.
    fn zero_hess(&mut self) {
        self.visit_params(&mut |p| p.zero_hess());
    }

    /// Total number of trainable scalars.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_layer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamKind;

    /// Minimal layer for exercising the provided trait methods.
    #[derive(Clone)]
    struct Affine {
        p: Param,
    }

    impl Layer for Affine {
        fn forward(&mut self, input: &Tensor, _mode: Mode) -> Tensor {
            input.map(|x| x + self.p.value.data()[0])
        }
        fn backward(&mut self, grad_output: &Tensor) -> Tensor {
            self.p.grad.data_mut()[0] += grad_output.sum() as f32;
            grad_output.clone()
        }
        fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
            self.p.hess.data_mut()[0] += hess_output.sum() as f32;
            hess_output.clone()
        }
        fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
            visitor(&mut self.p);
        }
        fn describe(&self) -> String {
            "Affine".into()
        }
        fn clone_layer(&self) -> Box<dyn Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn provided_methods_work() {
        let mut layer = Affine { p: Param::new("shift", Tensor::ones(&[1]), ParamKind::Digital) };
        assert_eq!(layer.num_params(), 1);
        let x = Tensor::zeros(&[2, 2]);
        let y = layer.forward(&x, Mode::Eval);
        assert_eq!(y.sum(), 4.0);
        layer.backward(&Tensor::ones(&[2, 2]));
        layer.second_backward(&Tensor::ones(&[2, 2]));
        let mut grad = 0.0;
        let mut hess = 0.0;
        layer.visit_params(&mut |p| {
            grad = p.grad.data()[0];
            hess = p.hess.data()[0];
        });
        assert_eq!(grad, 4.0);
        assert_eq!(hess, 4.0);
        layer.zero_grads();
        layer.zero_hess();
        layer.visit_params(&mut |p| {
            assert_eq!(p.grad.sum(), 0.0);
            assert_eq!(p.hess.sum(), 0.0);
        });
    }
}
