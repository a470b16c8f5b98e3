//! The SIMD drift contract, pinned as a differential suite: every
//! vector backend the host can run is compared against the scalar
//! reference on the same inputs.
//!
//! * **Elementwise kernels must be bit-identical** to scalar — including NaN, ±∞, signed zeros, and
//!   subnormals, and on every lane-remainder length.
//! * **GEMM may drift within [`GEMM_DRIFT_TOL`]** (the vector
//!   microkernels fuse multiply-adds; accumulation order is unchanged),
//!   and must stay bit-identical to *itself* across thread counts
//!   within one backend.
//!
//! Each case iterates [`available_backends`], so on an AVX-512 host the
//! same binary exercises avx512, avx2, and scalar; on AArch64 it
//! exercises neon and scalar; on a bare host it degenerates to
//! scalar-vs-scalar rather than silently passing.

use proptest::prelude::*;
use swim_tensor::linalg::{matmul, matmul_at, matmul_bt, matmul_with_threads};
use swim_tensor::simd::{
    available_backends, batchnorm_normalize, fake_quant_signed_inplace,
    fake_quant_unsigned_inplace, relu_apply_mask, relu_forward_inplace, with_backend, Backend,
    GEMM_DRIFT_TOL,
};
use swim_tensor::{Prng, Tensor};

/// Lengths that straddle every backend's lane width (1, 4, 8, 16):
/// empty, single element, one-below/at/one-above each width, and a
/// couple of longer odd lengths so the vector loop runs several times
/// before the scalar tail.
const EDGE_LENGTHS: [usize; 13] = [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 100];

/// The GEMM drift predicate from the module docs:
/// `|a − b| ≤ GEMM_DRIFT_TOL · max(1, |a|, |b|)`.
fn gemm_close(a: f32, b: f32) -> bool {
    (a - b).abs() <= GEMM_DRIFT_TOL * a.abs().max(b.abs()).max(1.0)
}

fn assert_gemm_close(got: &Tensor, want: &Tensor, context: &str) {
    assert_eq!(got.shape(), want.shape(), "{context}: shape");
    for (i, (&g, &w)) in got.data().iter().zip(want.data().iter()).enumerate() {
        assert!(gemm_close(g, w), "{context}: element {i}: {g} vs scalar {w}");
    }
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A float soup that hits every special-value branch: ordinary values,
/// ties (k + 0.5), signed zeros, infinities, NaN, and subnormals.
fn soup(len: usize, seed: u64) -> Vec<f32> {
    let specials = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1e-40,
        -1e-40,
        f32::MIN_POSITIVE,
        2.5,
        -2.5,
        0.5,
        -0.5,
    ];
    let mut rng = Prng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            if i % 5 == 3 {
                specials[(seed as usize + i) % specials.len()]
            } else {
                (rng.normal(0.0, 4.0)) as f32
            }
        })
        .collect()
}

/// Runs every elementwise kernel on one input and returns everything
/// they produced, for whole-pipeline bit comparison.
#[allow(clippy::type_complexity)]
fn elementwise_outputs(
    input: &[f32],
    scale: f32,
    max_code: f32,
) -> (Vec<f32>, Vec<bool>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut relu = input.to_vec();
    let mut mask = Vec::new();
    relu_forward_inplace(&mut relu, &mut mask);
    let mut grad = input.to_vec();
    relu_apply_mask(&mut grad, &mask);
    let mut signed = input.to_vec();
    fake_quant_signed_inplace(&mut signed, scale, max_code);
    let mut unsigned = input.to_vec();
    fake_quant_unsigned_inplace(&mut unsigned, scale, max_code);
    let mut x_hat = vec![0.0f32; input.len()];
    let mut out = vec![0.0f32; input.len()];
    batchnorm_normalize(input, 0.37, 2.9, 1.3, -0.11, &mut x_hat, &mut out);
    (relu, mask, grad, signed, unsigned, x_hat, out)
}

#[test]
fn elementwise_kernels_bit_identical_on_every_edge_length() {
    for &len in &EDGE_LENGTHS {
        let input = soup(len, len as u64 + 1);
        let reference =
            with_backend(Backend::Scalar, || elementwise_outputs(&input, 0.043, 127.0)).unwrap();
        for b in available_backends() {
            let got = with_backend(b, || elementwise_outputs(&input, 0.043, 127.0)).unwrap();
            assert_eq!(bits32(&got.0), bits32(&reference.0), "relu, len {len}, backend {b}");
            assert_eq!(got.1, reference.1, "relu mask, len {len}, backend {b}");
            assert_eq!(bits32(&got.2), bits32(&reference.2), "relu grad, len {len}, backend {b}");
            assert_eq!(bits32(&got.3), bits32(&reference.3), "fq signed, len {len}, backend {b}");
            assert_eq!(bits32(&got.4), bits32(&reference.4), "fq unsigned, len {len}, backend {b}");
            assert_eq!(bits32(&got.5), bits32(&reference.5), "bn x_hat, len {len}, backend {b}");
            assert_eq!(bits32(&got.6), bits32(&reference.6), "bn out, len {len}, backend {b}");
        }
    }
}

/// GEMM across shapes that exercise both microkernels (4-row tiles and
/// the 1-row remainder), the k loop, and empty-ish extremes.
#[test]
fn gemm_shapes_drift_within_tolerance_of_scalar() {
    let shapes: [(usize, usize, usize); 8] = [
        (1, 1, 1),
        (1, 7, 5),
        (3, 16, 2),
        (4, 4, 4),
        (5, 33, 17),
        (8, 100, 9),
        (13, 27, 31),
        (64, 64, 64),
    ];
    let mut rng = Prng::seed_from_u64(99);
    for &(m, k, n) in &shapes {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let want = with_backend(Backend::Scalar, || matmul(&a, &b)).unwrap();
        for backend in available_backends() {
            let got = with_backend(backend, || matmul(&a, &b)).unwrap();
            assert_gemm_close(&got, &want, &format!("matmul {m}x{k}x{n}, backend {backend}"));
        }
    }
}

/// The transpose-flavored entry points dispatch through the same
/// microkernels; pin them too so a refactor cannot quietly route one of
/// them around the backend switch.
#[test]
fn gemm_transpose_variants_drift_within_tolerance_of_scalar() {
    let mut rng = Prng::seed_from_u64(7);
    let (m, k, n) = (6, 19, 11);
    let at = Tensor::randn(&[k, m], &mut rng);
    let b = Tensor::randn(&[k, n], &mut rng);
    let c = Tensor::randn(&[m, k], &mut rng);
    let dt = Tensor::randn(&[n, k], &mut rng);
    let (want_at, want_bt) =
        with_backend(Backend::Scalar, || (matmul_at(&at, &b), matmul_bt(&c, &dt))).unwrap();
    for backend in available_backends() {
        let (got_at, got_bt) =
            with_backend(backend, || (matmul_at(&at, &b), matmul_bt(&c, &dt))).unwrap();
        assert_gemm_close(&got_at, &want_at, &format!("matmul_at, backend {backend}"));
        assert_gemm_close(&got_bt, &want_bt, &format!("matmul_bt, backend {backend}"));
    }
}

/// Within one backend, GEMM is bit-stable across thread counts — the
/// accumulation order per output element never depends on the split.
#[test]
fn gemm_bit_identical_across_thread_counts_per_backend() {
    let mut rng = Prng::seed_from_u64(41);
    let a = Tensor::randn(&[17, 48], &mut rng);
    let b = Tensor::randn(&[48, 23], &mut rng);
    for backend in available_backends() {
        let reference = with_backend(backend, || matmul_with_threads(&a, &b, 1)).unwrap();
        for threads in [2, 3, 8] {
            let got = with_backend(backend, || matmul_with_threads(&a, &b, threads)).unwrap();
            assert_eq!(
                bits32(got.data()),
                bits32(reference.data()),
                "backend {backend}, {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random shapes and values: vector GEMM stays within the pinned
    /// drift tolerance of the scalar reference.
    #[test]
    fn prop_gemm_drift_bounded(
        m in 1usize..20,
        k in 1usize..40,
        n in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mut rng = Prng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let want = with_backend(Backend::Scalar, || matmul(&a, &b)).unwrap();
        for backend in available_backends() {
            let got = with_backend(backend, || matmul(&a, &b)).unwrap();
            for (&g, &w) in got.data().iter().zip(want.data().iter()) {
                prop_assert!(
                    gemm_close(g, w),
                    "{m}x{k}x{n} backend {}: {} vs {}", backend, g, w
                );
            }
        }
    }

    /// Random lengths and float soups: the elementwise layer is exactly
    /// the scalar reference, bit for bit, on every backend.
    #[test]
    fn prop_elementwise_bit_identical(
        len in 0usize..200,
        seed in 0u64..1000,
        scale in 1e-3f32..2.0,
    ) {
        let input = soup(len, seed);
        let reference =
            with_backend(Backend::Scalar, || elementwise_outputs(&input, scale, 255.0)).unwrap();
        for b in available_backends() {
            let got = with_backend(b, || elementwise_outputs(&input, scale, 255.0)).unwrap();
            assert_eq!(bits32(&got.0), bits32(&reference.0), "relu, backend {b}");
            assert_eq!(got.1, reference.1, "relu mask, backend {b}");
            assert_eq!(bits32(&got.2), bits32(&reference.2), "relu grad, backend {b}");
            assert_eq!(bits32(&got.3), bits32(&reference.3), "fq signed, backend {b}");
            assert_eq!(bits32(&got.4), bits32(&reference.4), "fq unsigned, backend {b}");
            assert_eq!(bits32(&got.5), bits32(&reference.5), "bn x_hat, backend {b}");
            assert_eq!(bits32(&got.6), bits32(&reference.6), "bn out, backend {b}");
        }
    }

}

/// A backend or tuning override is scoped to the thread that sets it.
/// Thread A loops scalar-pinned products and tuning scopes while thread
/// B, with no override, keeps computing the same product: B must get
/// the default backend's bits and the default tuning on every
/// iteration. Skipped where the default backend already is scalar,
/// because a leak would then not change a bit.
#[test]
fn overrides_on_one_thread_never_reach_another() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use swim_tensor::simd::{backend, detected_backend};
    use swim_tensor::tune::{self, with_tuning, KernelTuning};

    if detected_backend() == Backend::Scalar || backend() == Backend::Scalar {
        eprintln!("skipped: the default backend is scalar on this host");
        return;
    }
    let mut rng = Prng::seed_from_u64(61);
    let a = Tensor::randn(&[24, 96], &mut rng);
    let b = Tensor::randn(&[96, 40], &mut rng);
    let scalar = bits32(with_backend(Backend::Scalar, || matmul(&a, &b)).unwrap().data());
    let default = bits32(matmul(&a, &b).data());
    assert_ne!(scalar, default, "the test needs products that differ between the two backends");
    let tuning = tune::current();
    let scoped = KernelTuning { gemm_block_cols: 96, gemm_min_flops: 12_345, ..tuning.clone() };

    /// Stops thread B when thread A ends, also when A panics.
    struct SetOnDrop<'a>(&'a AtomicBool);
    impl Drop for SetOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let _stop = SetOnDrop(&done);
            for _ in 0..300 {
                let got = with_backend(Backend::Scalar, || bits32(matmul(&a, &b).data())).unwrap();
                assert_eq!(got, scalar, "thread A: the scalar override did not hold");
                with_tuning(&scoped, || assert_eq!(tune::current(), scoped));
            }
        });
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                assert_eq!(bits32(matmul(&a, &b).data()), default, "thread B saw A's backend");
                assert_eq!(tune::current(), tuning, "thread B saw A's tuning");
            }
        });
    });
}
