//! Sequential composition of layers.

use crate::arena::ActivationArena;
use crate::layer::{Layer, Mode};
use crate::param::Param;
use swim_tensor::Tensor;

/// Runs layers in order; the backward passes run them in reverse.
///
/// `Sequential` is itself a [`Layer`], so it nests (residual branches are
/// `Sequential`s inside a [`crate::layers::Residual`] inside the network's
/// top-level `Sequential`).
///
/// # Example
///
/// ```
/// use swim_nn::layers::{Sequential, Relu};
/// use swim_nn::layer::{Layer, Mode};
/// use swim_tensor::Tensor;
///
/// let mut seq = Sequential::new();
/// seq.push(Relu::new());
/// let y = seq.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[2])?, Mode::Eval);
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// # Ok::<(), swim_tensor::TensorError>(())
/// ```
#[derive(Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty sequence (the identity function).
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Appends a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of direct child layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the sequence is empty (identity).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs `step` through every layer but the first in reverse, then
    /// `last` on the first: the input gradient of the sequence is never
    /// formed.
    fn params_pass(
        &mut self,
        seed: &Tensor,
        step: fn(&mut dyn Layer, &Tensor) -> Tensor,
        last: fn(&mut dyn Layer, &Tensor),
    ) {
        let Some((first, rest)) = self.layers.split_first_mut() else { return };
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            g = Some(step(layer.as_mut(), g.as_ref().unwrap_or(seed)));
        }
        last(first.as_mut(), g.as_ref().unwrap_or(seed));
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential[{} layers]", self.layers.len())
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode);
        }
        x
    }

    fn forward_into(&mut self, input: &Tensor, mode: Mode, arena: &mut ActivationArena) -> Tensor {
        // The ping/pong loop: each layer's output comes from the arena
        // and its input buffer goes straight back, so a sequential chain
        // cycles two buffers however deep it is.
        let Some((first, rest)) = self.layers.split_first_mut() else {
            let mut out = arena.grab();
            out.copy_from(input);
            return out;
        };
        let mut x = first.forward_into(input, mode, arena);
        for layer in rest {
            let y = layer.forward_into(&x, mode, arena);
            arena.recycle(x);
            x = y;
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn second_backward(&mut self, hess_output: &Tensor) -> Tensor {
        let mut h = hess_output.clone();
        for layer in self.layers.iter_mut().rev() {
            h = layer.second_backward(&h);
        }
        h
    }

    fn backward_params(&mut self, grad_output: &Tensor) {
        self.params_pass(grad_output, |l, g| l.backward(g), |l, g| l.backward_params(g));
    }

    fn second_backward_params(&mut self, hess_output: &Tensor) {
        self.params_pass(
            hess_output,
            |l, h| l.second_backward(h),
            |l, h| l.second_backward_params(h),
        );
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(visitor);
        }
    }

    fn describe(&self) -> String {
        let inner: Vec<String> = self.layers.iter().map(|l| l.describe()).collect();
        format!("Sequential[{}]", inner.join(", "))
    }
    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use swim_tensor::Prng;

    #[test]
    fn empty_is_identity() {
        let mut seq = Sequential::new();
        let x = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        assert_eq!(seq.forward(&x, Mode::Eval), x);
        assert_eq!(seq.backward(&x), x);
        assert_eq!(seq.second_backward(&x), x);
    }

    #[test]
    fn composes_forward_and_backward() {
        let mut rng = Prng::seed_from_u64(1);
        let mut seq = Sequential::new();
        seq.push(Linear::new(3, 4, &mut rng));
        seq.push(Relu::new());
        seq.push(Linear::new(4, 2, &mut rng));
        let x = Tensor::randn(&[5, 3], &mut rng);
        let y = seq.forward(&x, Mode::Train);
        assert_eq!(y.shape(), &[5, 2]);
        let g = seq.backward(&Tensor::ones(&[5, 2]));
        assert_eq!(g.shape(), &[5, 3]);
        let h = seq.second_backward(&Tensor::ones(&[5, 2]));
        assert_eq!(h.shape(), &[5, 3]);
        assert!(h.data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn visits_all_params() {
        let mut rng = Prng::seed_from_u64(2);
        let mut seq = Sequential::new();
        seq.push(Linear::new(3, 4, &mut rng));
        seq.push(Linear::new(4, 2, &mut rng));
        assert_eq!(seq.num_params(), (3 * 4 + 4) + (4 * 2 + 2));
    }

    #[test]
    fn describe_lists_children() {
        let mut rng = Prng::seed_from_u64(3);
        let mut seq = Sequential::new();
        seq.push(Linear::new(2, 2, &mut rng));
        seq.push(Relu::new());
        let d = seq.describe();
        assert!(d.contains("Linear(2->2)"));
        assert!(d.contains("ReLU"));
    }
}
