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

/// Caches an input shape in an `Option<Vec<usize>>` slot, reusing the
/// previous cache's allocation (shared by the shape-remembering layers:
/// pooling, flatten).
fn remember_shape(slot: &mut Option<Vec<usize>>, shape: &[usize]) {
    let cached = slot.get_or_insert_with(Vec::new);
    cached.clear();
    cached.extend_from_slice(shape);
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
