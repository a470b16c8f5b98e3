//! Dense `f32` tensor math substrate for the SWIM reproduction.
//!
//! The SWIM paper ([Yan et al., DAC 2022]) evaluates on PyTorch; this crate
//! is the from-scratch replacement for the numerical kernels that the rest
//! of the workspace builds on:
//!
//! * [`Tensor`] — contiguous, row-major, n-dimensional `f32` array with
//!   shape-checked elementwise algebra and reductions.
//! * [`linalg`] — GEMM-style matrix products used by fully connected and
//!   (via [`conv`] im2col lowering) convolution layers.
//! * [`conv`] — im2col/col2im lowering so convolutions can be "cast in the
//!   same form as FC layers", exactly the property the paper's
//!   second-derivative backpropagation relies on (§3.3); the layer-facing
//!   products pack GEMM panels straight from NCHW images.
//! * [`rng`] — a deterministic, splittable xoshiro256++ PRNG with Gaussian
//!   sampling (Box–Muller). Device-variation experiments are Monte Carlo
//!   simulations; bit-exact reproducibility across runs and platforms is a
//!   requirement, which is why this crate owns its PRNG instead of relying
//!   on an external generator whose stream may change between versions.
//! * [`stats`] — `f64`-accumulated summary statistics and the Pearson
//!   correlation used by the Fig. 1 sensitivity-correlation experiment.
//! * [`simd`] — the portable-SIMD kernel layer (AVX2/AVX-512/NEON with a
//!   scalar reference, selected once at startup via runtime feature
//!   detection, overridable via `SWIM_SIMD`) that the GEMM microkernel
//!   and the workspace's elementwise hot paths dispatch through.
//! * [`tune`] — the unified [`tune::KernelTuning`] configuration and the
//!   shape-keyed autotuner behind every kernel performance knob (GEMM
//!   threads/blocking/threading threshold), with
//!   an optional host-fingerprinted on-disk winner cache. Timing-only by
//!   contract: tuning never changes result bytes.
//!
//! # Example
//!
//! ```
//! use swim_tensor::{Tensor, rng::Prng};
//!
//! let mut rng = Prng::seed_from_u64(7);
//! let a = Tensor::randn(&[4, 3], &mut rng);
//! let b = Tensor::randn(&[3, 2], &mut rng);
//! let c = swim_tensor::linalg::matmul(&a, &b);
//! assert_eq!(c.shape(), &[4, 2]);
//! ```
//!
//! [Yan et al., DAC 2022]: https://arxiv.org/abs/2202.08395

#![warn(missing_docs)]

pub mod conv;
pub mod error;
pub mod linalg;
pub mod rng;
pub mod shape;
pub mod simd;
pub mod stats;
pub mod tensor;
pub mod tune;

/// Serializes this crate's unit tests that flip or depend on the
/// process-global kernel state: the active SIMD backend
/// ([`simd::with_backend`]) and the GEMM/tuning knobs
/// ([`linalg::set_gemm_block_cols`], [`tune::install`],
/// [`tune::with_tuning`]). Without it a test comparing two GEMM results
/// bit for bit can see another test switch the backend between them.
#[cfg(test)]
pub(crate) fn kernel_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

pub use error::TensorError;
pub use rng::Prng;
pub use shape::Shape;
pub use tensor::Tensor;
