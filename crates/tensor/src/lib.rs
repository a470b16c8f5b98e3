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
//!   scalar reference; the process default comes from runtime feature
//!   detection or `SWIM_SIMD`, and [`simd::with_backend`] overrides it
//!   for one thread) that the GEMM microkernel and the workspace's
//!   elementwise hot paths dispatch through.
//! * [`tune`] — the [`tune::KernelConfig`] every kernel entry resolves
//!   (a thread's scoped override, else the process default) and the
//!   [`tune::KernelTuning`] knobs in it: GEMM threads, block width and
//!   threading threshold, each an explicit pin or the built-in
//!   heuristic. Timing-only by contract: no knob changes result bytes.
//! * [`par`] — the one scoped fan-out ([`par::fan_out`]) that the Monte
//!   Carlo harness, the convolution image split and the threaded GEMM
//!   run their workers on, each under the caller's kernel configuration.
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
pub mod par;
pub mod rng;
pub mod shape;
pub mod simd;
pub mod stats;
pub mod tensor;
pub mod tune;

pub use error::TensorError;
pub use rng::Prng;
pub use shape::Shape;
pub use tensor::Tensor;
