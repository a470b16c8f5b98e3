//! Layer implementations.
//!
//! Every layer provides forward, first-order backward, and the paper's
//! second-order backward (diagonal Hessian recursion, §3.3). See
//! [`crate::layer::Layer`] for the contract.

mod activation;
mod actquant;
mod batchnorm;
mod conv2d;
mod flatten;
mod linear;
mod pool;
mod relu;
mod residual;
mod sequential;

use crate::layer::Mode;

/// A layer's forward-pass state for the backward passes.
///
/// A `Train`/`Eval` forward refills the buffer in place (reusing its
/// allocation) and marks it fresh; an `Infer` forward marks it stale and
/// leaves the buffer alone, so a backward after an inference forward
/// panics instead of reading an older batch (see [`Mode`]).
#[derive(Debug, Clone, Default)]
struct Cache<T> {
    value: T,
    fresh: bool,
}

impl<T> Cache<T> {
    /// An empty (stale) cache around `value`.
    fn new(value: T) -> Self {
        Cache { value, fresh: false }
    }

    /// Records a forward in `mode`: the buffer to refill for a
    /// `Train`/`Eval` forward, or `None` (the cache now stale) for an
    /// `Infer` one.
    fn refill(&mut self, mode: Mode) -> Option<&mut T> {
        self.fresh = mode != Mode::Infer;
        self.fresh.then_some(&mut self.value)
    }

    /// The state of the last `Train`/`Eval` forward.
    ///
    /// # Panics
    ///
    /// Panics if no such forward ran, or an `Infer` forward ran since.
    fn get(&self) -> &T {
        assert!(self.fresh, "backward called before forward");
        &self.value
    }
}

/// Caches an input shape from a `mode` forward (shared by the
/// shape-remembering layers: pooling, flatten).
fn remember_shape(slot: &mut Cache<Vec<usize>>, mode: Mode, shape: &[usize]) {
    if let Some(cached) = slot.refill(mode) {
        cached.clear();
        cached.extend_from_slice(shape);
    }
}

pub use activation::{Smooth, SmoothActivation};
pub use actquant::ActQuant;
pub use batchnorm::BatchNorm2d;
pub use conv2d::Conv2d;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::{AvgPool2d, GlobalAvgPool, MaxPool2d};
pub use relu::Relu;
pub use residual::Residual;
pub use sequential::Sequential;
