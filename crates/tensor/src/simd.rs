//! Portable-SIMD kernel layer with runtime dispatch.
//!
//! The Monte Carlo sweep is thousands of noisy forward passes; the GEMM
//! microkernel and the elementwise hot paths (ReLU, batchnorm
//! normalization, fake-quant, the per-weight device-programming loop)
//! dominate its cost. This module gives them hand-vectorized bodies
//! without giving up the workspace's reproducibility contract:
//!
//! * [`Backend`] names one instruction-set implementation: `scalar`
//!   (the reference), `avx2` (+FMA), `avx512` (AVX-512F), or `neon`.
//! * The process default backend is selected **once**, lazily, from
//!   the `SWIM_SIMD` environment variable if set (`scalar`, `avx2`,
//!   `avx512`, `neon`; unknown or unsupported values are an error, which
//!   the `swim` entry points report with exit code 2) and otherwise by runtime feature detection in preference
//!   order `avx512` > `avx2` > `scalar` on x86-64 and `neon` > `scalar`
//!   on AArch64. [`with_backend`] overrides it for the calling thread
//!   only, for the length of a closure (the `--simd` / `[run] simd`
//!   experiment knob runs the whole experiment inside one). The backend
//!   is part of the [`crate::tune::KernelConfig`] every kernel entry
//!   resolves, and the Monte Carlo and convolution workers inherit
//!   their caller's.
//! * Kernels are written once as generic bodies over the [`SimdLane`]
//!   trait and monomorphized per backend behind `#[target_feature]`
//!   wrappers, so a binary built for baseline x86-64 still runs AVX-512
//!   code when (and only when) the CPU has it.
//!
//! # Drift policy
//!
//! The scalar backend is the reference implementation; every vector
//! backend is pinned against it by `crates/tensor/tests/simd_vs_scalar.rs`:
//!
//! * **Elementwise kernels are bit-identical across backends.** They
//!   evaluate the same expression per element with the same rounding
//!   steps (no FMA contraction), so lane width cannot change a single
//!   bit. This includes NaN/±∞ handling and the ties-away-from-zero
//!   rounding of the fake-quant paths ([`SimdLane::round_ties_away`]
//!   emulates `f32::round` exactly on backends whose native rounding is
//!   ties-to-even).
//! * **The device-programming kernel ([`scale_add_f64`]) is
//!   bit-identical across backends**: `target + sigma * z` with an
//!   explicit multiply then add, never an FMA, in stream order.
//! * **GEMM drifts within [`GEMM_DRIFT_TOL`].** The vector microkernels
//!   accumulate `LANES` columns in parallel with fused multiply-adds;
//!   each output element still sums in strictly increasing `k` order,
//!   so every backend is deterministic (and bit-stable across thread
//!   counts and block sizes), but the fused rounding differs from the
//!   scalar two-rounding reference by ~1 ulp per `k` step.
//!
//! Results documents record the active backend in their `simd` header
//! so any artifact can be traced to the code path that produced it;
//! committed golden fixtures are scalar-reference artifacts and the
//! tests that compare against them force `Backend::Scalar` via
//! [`with_backend`].

use crate::tune::KernelConfig;

/// Per-element relative tolerance pinned for GEMM outputs of a vector
/// backend against the scalar reference (see the module docs: the FMA
/// accumulation differs by ~1 ulp per `k` step, so the drift for the
/// `k ≤ 4096` shapes this workspace runs is far below this bound).
///
/// Compared as `|a − b| ≤ GEMM_DRIFT_TOL · max(1, |a|, |b|)`.
pub const GEMM_DRIFT_TOL: f32 = 1e-4;

/// One SIMD instruction-set implementation of the kernel layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Plain scalar Rust: the reference implementation, available
    /// everywhere.
    Scalar,
    /// AVX2 + FMA (x86-64), 8 `f32` lanes.
    Avx2,
    /// AVX-512F (x86-64), 16 `f32` lanes.
    Avx512,
    /// NEON (AArch64), 4 `f32` lanes.
    Neon,
}

impl Backend {
    /// Every backend this build knows about, in detection-preference
    /// order (strongest first), ending with the scalar reference.
    pub const ALL: [Backend; 4] = [Backend::Avx512, Backend::Avx2, Backend::Neon, Backend::Scalar];

    /// The lowercase name used by `SWIM_SIMD`, `--simd`, and the
    /// results-document `simd` header.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }

    /// Parses a backend name (the inverse of [`Backend::name`]).
    pub fn parse(name: &str) -> Option<Backend> {
        match name {
            "scalar" => Some(Backend::Scalar),
            "avx2" => Some(Backend::Avx2),
            "avx512" => Some(Backend::Avx512),
            "neon" => Some(Backend::Neon),
            _ => None,
        }
    }

    /// Whether the running CPU (and this build's architecture) can
    /// execute this backend.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The backend runtime feature detection would pick on this host,
/// ignoring `SWIM_SIMD` and any [`with_backend`] override.
pub fn detected_backend() -> Backend {
    *Backend::ALL.iter().find(|b| b.is_supported()).expect("scalar backend is always supported")
}

/// Every backend the running host supports, strongest first (always
/// ends with [`Backend::Scalar`]).
pub fn available_backends() -> Vec<Backend> {
    Backend::ALL.iter().copied().filter(|b| b.is_supported()).collect()
}

/// The calling thread's SIMD backend: its [`with_backend`] override,
/// else the process default.
///
/// The default is read on first use from `SWIM_SIMD` (panicking on
/// unknown or unsupported values unless an entry point resolved them
/// first with [`crate::tune::init_from_env`] — a silently ignored
/// override would be worse), falling back to [`detected_backend`]. Hot kernels call this
/// per invocation.
pub fn backend() -> Backend {
    KernelConfig::current().backend
}

/// The process default backend: `SWIM_SIMD` if set, else
/// [`detected_backend`]. An unknown or unsupported name is an error.
pub(crate) fn initial_backend() -> Result<Backend, String> {
    let Ok(name) = std::env::var("SWIM_SIMD") else {
        return Ok(detected_backend());
    };
    let b = Backend::parse(&name).ok_or_else(|| {
        format!("SWIM_SIMD={name}: unknown backend (expected scalar, avx2, avx512, or neon)")
    })?;
    if !b.is_supported() {
        return Err(format!(
            "SWIM_SIMD={name}: backend not supported on this host (available: {})",
            available_names()
        ));
    }
    Ok(b)
}

fn available_names() -> String {
    available_backends().iter().map(|b| b.name()).collect::<Vec<_>>().join(", ")
}

/// Runs `f` with `b` as the calling thread's backend, restoring the
/// previous one afterwards (also on panic).
///
/// Other threads keep their own backend, so tests and benches can
/// iterate backends while the rest of the suite runs in parallel.
/// Fails without running `f` if the host cannot execute `b`.
pub fn with_backend<R>(b: Backend, f: impl FnOnce() -> R) -> Result<R, String> {
    if !b.is_supported() {
        return Err(format!(
            "SIMD backend '{}' is not supported on this host (available: {})",
            b.name(),
            available_names()
        ));
    }
    Ok(KernelConfig { backend: b, ..KernelConfig::current() }.scope(f))
}

/// The widest lane count any backend uses (AVX-512), sized for
/// fixed-size stack staging buffers in generic kernel bodies.
const MAX_LANES: usize = 16;

/// One backend's `f32` vector operations.
///
/// Kernel bodies are written once, generically over this trait, with
/// `#[inline(always)]` all the way down; each backend's public entry
/// point is a `#[target_feature]` wrapper that monomorphizes the body,
/// so the intrinsics inline into a function that is allowed to use
/// them. All methods are `unsafe` because the caller must guarantee the
/// instruction set is actually available (the dispatcher only selects
/// backends that passed feature detection) and that raw-pointer
/// loads/stores cover `LANES` valid elements.
pub trait SimdLane {
    /// `f32` elements per vector.
    const LANES: usize;
    /// The vector register type.
    type V: Copy;
    /// Broadcasts one value to every lane.
    ///
    /// # Safety
    /// The backend's instruction set must be available.
    unsafe fn splat(x: f32) -> Self::V;
    /// Loads `LANES` consecutive values (unaligned).
    ///
    /// # Safety
    /// Instruction set available; `ptr..ptr+LANES` readable.
    unsafe fn load(ptr: *const f32) -> Self::V;
    /// Stores `LANES` consecutive values (unaligned).
    ///
    /// # Safety
    /// Instruction set available; `ptr..ptr+LANES` writable.
    unsafe fn store(ptr: *mut f32, v: Self::V);
    /// Lanewise `a + b`.
    ///
    /// # Safety
    /// The backend's instruction set must be available.
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a - b`.
    ///
    /// # Safety
    /// The backend's instruction set must be available.
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a * b`.
    ///
    /// # Safety
    /// The backend's instruction set must be available.
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a / b`.
    ///
    /// # Safety
    /// The backend's instruction set must be available.
    unsafe fn div(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise round-to-nearest with ties away from zero — exactly
    /// `f32::round` per lane, including `-0.0`, ±∞, and NaN.
    ///
    /// # Safety
    /// The backend's instruction set must be available.
    unsafe fn round_ties_away(v: Self::V) -> Self::V;
    /// Lanewise `if a > b { t } else { f }` (an unordered compare with
    /// NaN selects `f`).
    ///
    /// # Safety
    /// The backend's instruction set must be available.
    unsafe fn select_gt(a: Self::V, b: Self::V, t: Self::V, f: Self::V) -> Self::V;
    /// Lanewise `if a == b { t } else { f }` (NaN compares unequal, so
    /// `select_eq(v, v, ..)` is a NaN filter).
    ///
    /// # Safety
    /// The backend's instruction set must be available.
    unsafe fn select_eq(a: Self::V, b: Self::V, t: Self::V, f: Self::V) -> Self::V;
    /// Bit `t` of the result is set iff lane `t` is `> 0.0`.
    ///
    /// # Safety
    /// The backend's instruction set must be available.
    unsafe fn gt_zero_bits(v: Self::V) -> u32;
}

/// The reference lane: plain scalar Rust, one element at a time.
#[derive(Debug, Clone, Copy)]
pub struct ScalarLane;

impl SimdLane for ScalarLane {
    const LANES: usize = 1;
    type V = f32;
    #[inline(always)]
    unsafe fn splat(x: f32) -> f32 {
        x
    }
    #[inline(always)]
    unsafe fn load(ptr: *const f32) -> f32 {
        unsafe { *ptr }
    }
    #[inline(always)]
    unsafe fn store(ptr: *mut f32, v: f32) {
        unsafe { *ptr = v }
    }
    #[inline(always)]
    unsafe fn add(a: f32, b: f32) -> f32 {
        a + b
    }
    #[inline(always)]
    unsafe fn sub(a: f32, b: f32) -> f32 {
        a - b
    }
    #[inline(always)]
    unsafe fn mul(a: f32, b: f32) -> f32 {
        a * b
    }
    #[inline(always)]
    unsafe fn div(a: f32, b: f32) -> f32 {
        a / b
    }
    #[inline(always)]
    unsafe fn round_ties_away(v: f32) -> f32 {
        v.round()
    }
    #[inline(always)]
    unsafe fn select_gt(a: f32, b: f32, t: f32, f: f32) -> f32 {
        if a > b {
            t
        } else {
            f
        }
    }
    #[inline(always)]
    unsafe fn select_eq(a: f32, b: f32, t: f32, f: f32) -> f32 {
        if a == b {
            t
        } else {
            f
        }
    }
    #[inline(always)]
    unsafe fn gt_zero_bits(v: f32) -> u32 {
        (v > 0.0) as u32
    }
}

// ---------------------------------------------------------------------
// Generic kernel bodies. Each is `#[inline(always)]` so it flattens
// into the `#[target_feature]` wrapper that monomorphizes it; the
// scalar tails use the same expressions as the `ScalarLane` lane ops,
// so every backend computes identical bits on the remainder.
// ---------------------------------------------------------------------

/// `x[i] = max(x[i], 0)` (NaN and `-0.0` map to `+0.0`) while recording
/// `x[i] > 0.0` into `mask`.
#[inline(always)]
unsafe fn relu_forward_body<L: SimdLane>(x: &mut [f32], mask: &mut Vec<bool>) {
    mask.reserve(x.len());
    let n = x.len();
    let ptr = x.as_mut_ptr();
    unsafe {
        let zero = L::splat(0.0);
        let mut i = 0;
        while i + L::LANES <= n {
            let v = L::load(ptr.add(i));
            let bits = L::gt_zero_bits(v);
            L::store(ptr.add(i), L::select_gt(v, zero, v, zero));
            for t in 0..L::LANES {
                mask.push(bits >> t & 1 == 1);
            }
            i += L::LANES;
        }
        while i < n {
            let v = *ptr.add(i);
            let keep = v > 0.0;
            mask.push(keep);
            *ptr.add(i) = if keep { v } else { 0.0 };
            i += 1;
        }
    }
}

/// `g[i] = if mask[i] { g[i] } else { 0.0 }` (the ReLU backward gate).
#[inline(always)]
unsafe fn relu_mask_body<L: SimdLane>(g: &mut [f32], mask: &[bool]) {
    let n = g.len();
    let ptr = g.as_mut_ptr();
    unsafe {
        let zero = L::splat(0.0);
        let mut lanes = [0.0f32; MAX_LANES];
        let mut i = 0;
        while i + L::LANES <= n {
            for (t, lane) in lanes[..L::LANES].iter_mut().enumerate() {
                *lane = mask[i + t] as u32 as f32;
            }
            let m = L::load(lanes.as_ptr());
            let v = L::load(ptr.add(i));
            L::store(ptr.add(i), L::select_gt(m, zero, v, zero));
            i += L::LANES;
        }
        while i < n {
            if !mask[i] {
                *ptr.add(i) = 0.0;
            }
            i += 1;
        }
    }
}

/// One batchnorm plane: `x_hat[i] = (input[i] - mean) * inv_std` and
/// `out[i] = gamma * x_hat[i] + beta` (separate multiply and add — no
/// FMA — so every backend produces identical bits).
#[inline(always)]
unsafe fn batchnorm_body<L: SimdLane>(
    input: &[f32],
    mean: f32,
    inv_std: f32,
    gamma: f32,
    beta: f32,
    x_hat: &mut [f32],
    out: &mut [f32],
) {
    let n = input.len();
    let ip = input.as_ptr();
    let xp = x_hat.as_mut_ptr();
    let op = out.as_mut_ptr();
    unsafe {
        let m = L::splat(mean);
        let is = L::splat(inv_std);
        let g = L::splat(gamma);
        let b = L::splat(beta);
        let mut i = 0;
        while i + L::LANES <= n {
            let v = L::load(ip.add(i));
            let xn = L::mul(L::sub(v, m), is);
            L::store(xp.add(i), xn);
            L::store(op.add(i), L::add(L::mul(g, xn), b));
            i += L::LANES;
        }
        while i < n {
            let xn = (*ip.add(i) - mean) * inv_std;
            *xp.add(i) = xn;
            *op.add(i) = gamma * xn + beta;
            i += 1;
        }
    }
}

/// Signed fake-quant round trip, the float-domain equivalent of the
/// integer-code reference
/// `(((x/scale).round() as i64).clamp(-m, m) as i32 as f32) * scale`:
/// NaN quantizes to code 0 (Rust's saturating float→int cast), ±∞
/// clamps to ±`max_code`, and the `+ 0.0` normalizes the `-0.0` a
/// negative zero code would otherwise produce (the integer path yields
/// `+0.0`). Exact as long as `max_code` is an integer below 2²⁴, which
/// every quantizer bit width in this workspace satisfies.
#[inline(always)]
unsafe fn fake_quant_signed_body<L: SimdLane>(x: &mut [f32], scale: f32, max_code: f32) {
    let n = x.len();
    let ptr = x.as_mut_ptr();
    unsafe {
        let s = L::splat(scale);
        let hi = L::splat(max_code);
        let lo = L::splat(-max_code);
        let zero = L::splat(0.0);
        let mut i = 0;
        while i + L::LANES <= n {
            let v = L::load(ptr.add(i));
            let d = L::div(v, s);
            let r = L::round_ties_away(d);
            let floor = L::select_gt(r, lo, r, lo);
            let c = L::select_gt(floor, hi, hi, floor);
            let deq = L::add(L::mul(c, s), zero);
            L::store(ptr.add(i), L::select_eq(d, d, deq, zero));
            i += L::LANES;
        }
        while i < n {
            let d = *ptr.add(i) / scale;
            let r = d.round();
            let floor = if r > -max_code { r } else { -max_code };
            let c = if floor > max_code { max_code } else { floor };
            // `!d.is_nan()` is the scalar spelling of the lane path's
            // `select_eq(d, d, ...)` NaN gate above.
            *ptr.add(i) = if d.is_nan() { 0.0 } else { c * scale + 0.0 };
            i += 1;
        }
    }
}

/// Unsigned (activation) fake-quant round trip, the vector form of
/// `((x.max(0.0) / scale).round().min(levels)) * scale` (NaN → 0).
#[inline(always)]
unsafe fn fake_quant_unsigned_body<L: SimdLane>(x: &mut [f32], scale: f32, levels: f32) {
    let n = x.len();
    let ptr = x.as_mut_ptr();
    unsafe {
        let s = L::splat(scale);
        let lv = L::splat(levels);
        let zero = L::splat(0.0);
        let mut i = 0;
        while i + L::LANES <= n {
            let v = L::load(ptr.add(i));
            let d = L::div(L::select_gt(v, zero, v, zero), s);
            let r = L::round_ties_away(d);
            let c = L::select_gt(r, lv, lv, r);
            L::store(ptr.add(i), L::mul(c, s));
            i += L::LANES;
        }
        while i < n {
            let v = *ptr.add(i);
            let d = if v > 0.0 { v } else { 0.0 } / scale;
            let r = d.round();
            let c = if r > levels { levels } else { r };
            *ptr.add(i) = c * scale;
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------
// x86-64 wrappers.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use core::arch::x86_64::*;

    /// 8 × `f32` in a `ymm` register (AVX2 + FMA hosts).
    #[derive(Debug, Clone, Copy)]
    pub struct Avx2Lane;

    impl SimdLane for Avx2Lane {
        const LANES: usize = 8;
        type V = __m256;
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m256 {
            unsafe { _mm256_set1_ps(x) }
        }
        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> __m256 {
            unsafe { _mm256_loadu_ps(ptr) }
        }
        #[inline(always)]
        unsafe fn store(ptr: *mut f32, v: __m256) {
            unsafe { _mm256_storeu_ps(ptr, v) }
        }
        #[inline(always)]
        unsafe fn add(a: __m256, b: __m256) -> __m256 {
            unsafe { _mm256_add_ps(a, b) }
        }
        #[inline(always)]
        unsafe fn sub(a: __m256, b: __m256) -> __m256 {
            unsafe { _mm256_sub_ps(a, b) }
        }
        #[inline(always)]
        unsafe fn mul(a: __m256, b: __m256) -> __m256 {
            unsafe { _mm256_mul_ps(a, b) }
        }
        #[inline(always)]
        unsafe fn div(a: __m256, b: __m256) -> __m256 {
            unsafe { _mm256_div_ps(a, b) }
        }
        #[inline(always)]
        unsafe fn round_ties_away(v: __m256) -> __m256 {
            // The hardware rounds ties to even; fix the ties up to
            // ties-away: a tie is exactly `v - rne == copysign(0.5, v)`
            // (exact because |v - rne| <= 0.5 subtractions are exact),
            // and the fix adds copysign(1.0, v) to the even result.
            // ±∞/NaN make the compare false and pass through untouched.
            unsafe {
                let rne = _mm256_round_ps::<0x08>(v); // nearest-even, no exceptions
                let sign = _mm256_and_ps(v, _mm256_set1_ps(-0.0));
                let half = _mm256_or_ps(sign, _mm256_set1_ps(0.5));
                let one = _mm256_or_ps(sign, _mm256_set1_ps(1.0));
                let tie = _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_sub_ps(v, rne), half);
                _mm256_blendv_ps(rne, _mm256_add_ps(rne, one), tie)
            }
        }
        #[inline(always)]
        unsafe fn select_gt(a: __m256, b: __m256, t: __m256, f: __m256) -> __m256 {
            unsafe { _mm256_blendv_ps(f, t, _mm256_cmp_ps::<_CMP_GT_OQ>(a, b)) }
        }
        #[inline(always)]
        unsafe fn select_eq(a: __m256, b: __m256, t: __m256, f: __m256) -> __m256 {
            unsafe { _mm256_blendv_ps(f, t, _mm256_cmp_ps::<_CMP_EQ_OQ>(a, b)) }
        }
        #[inline(always)]
        unsafe fn gt_zero_bits(v: __m256) -> u32 {
            unsafe {
                _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(v, _mm256_setzero_ps())) as u32
            }
        }
    }

    /// 16 × `f32` in a `zmm` register (AVX-512F hosts).
    #[derive(Debug, Clone, Copy)]
    pub struct Avx512Lane;

    impl SimdLane for Avx512Lane {
        const LANES: usize = 16;
        type V = __m512;
        #[inline(always)]
        unsafe fn splat(x: f32) -> __m512 {
            unsafe { _mm512_set1_ps(x) }
        }
        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> __m512 {
            unsafe { _mm512_loadu_ps(ptr) }
        }
        #[inline(always)]
        unsafe fn store(ptr: *mut f32, v: __m512) {
            unsafe { _mm512_storeu_ps(ptr, v) }
        }
        #[inline(always)]
        unsafe fn add(a: __m512, b: __m512) -> __m512 {
            unsafe { _mm512_add_ps(a, b) }
        }
        #[inline(always)]
        unsafe fn sub(a: __m512, b: __m512) -> __m512 {
            unsafe { _mm512_sub_ps(a, b) }
        }
        #[inline(always)]
        unsafe fn mul(a: __m512, b: __m512) -> __m512 {
            unsafe { _mm512_mul_ps(a, b) }
        }
        #[inline(always)]
        unsafe fn div(a: __m512, b: __m512) -> __m512 {
            unsafe { _mm512_div_ps(a, b) }
        }
        #[inline(always)]
        unsafe fn round_ties_away(v: __m512) -> __m512 {
            // Same tie fix as the AVX2 lane; bitwise sign ops go through
            // the integer domain because `_mm512_and_ps` needs AVX-512DQ
            // and this backend only requires AVX-512F.
            unsafe {
                let rne = _mm512_roundscale_ps::<0x08>(v); // nearest-even, no exceptions
                let sign = _mm512_and_si512(_mm512_castps_si512(v), _mm512_set1_epi32(i32::MIN));
                let half = _mm512_castsi512_ps(_mm512_or_si512(
                    sign,
                    _mm512_castps_si512(_mm512_set1_ps(0.5)),
                ));
                let one = _mm512_castsi512_ps(_mm512_or_si512(
                    sign,
                    _mm512_castps_si512(_mm512_set1_ps(1.0)),
                ));
                let tie = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(_mm512_sub_ps(v, rne), half);
                _mm512_mask_blend_ps(tie, rne, _mm512_add_ps(rne, one))
            }
        }
        #[inline(always)]
        unsafe fn select_gt(a: __m512, b: __m512, t: __m512, f: __m512) -> __m512 {
            unsafe { _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_GT_OQ>(a, b), f, t) }
        }
        #[inline(always)]
        unsafe fn select_eq(a: __m512, b: __m512, t: __m512, f: __m512) -> __m512 {
            unsafe { _mm512_mask_blend_ps(_mm512_cmp_ps_mask::<_CMP_EQ_OQ>(a, b), f, t) }
        }
        #[inline(always)]
        unsafe fn gt_zero_bits(v: __m512) -> u32 {
            unsafe { _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, _mm512_setzero_ps()) as u32 }
        }
    }

    macro_rules! x86_wrappers {
        ($feature:literal, $relu:ident, $mask:ident, $bn:ident, $fqs:ident, $fqu:ident, $lane:ty) => {
            #[target_feature(enable = $feature)]
            pub unsafe fn $relu(x: &mut [f32], mask: &mut Vec<bool>) {
                unsafe { relu_forward_body::<$lane>(x, mask) }
            }
            #[target_feature(enable = $feature)]
            pub unsafe fn $mask(g: &mut [f32], mask: &[bool]) {
                unsafe { relu_mask_body::<$lane>(g, mask) }
            }
            #[target_feature(enable = $feature)]
            #[allow(clippy::too_many_arguments)]
            pub unsafe fn $bn(
                input: &[f32],
                mean: f32,
                inv_std: f32,
                gamma: f32,
                beta: f32,
                x_hat: &mut [f32],
                out: &mut [f32],
            ) {
                unsafe { batchnorm_body::<$lane>(input, mean, inv_std, gamma, beta, x_hat, out) }
            }
            #[target_feature(enable = $feature)]
            pub unsafe fn $fqs(x: &mut [f32], scale: f32, max_code: f32) {
                unsafe { fake_quant_signed_body::<$lane>(x, scale, max_code) }
            }
            #[target_feature(enable = $feature)]
            pub unsafe fn $fqu(x: &mut [f32], scale: f32, levels: f32) {
                unsafe { fake_quant_unsigned_body::<$lane>(x, scale, levels) }
            }
        };
    }

    x86_wrappers!(
        "avx2",
        relu_forward_avx2,
        relu_mask_avx2,
        batchnorm_avx2,
        fake_quant_signed_avx2,
        fake_quant_unsigned_avx2,
        Avx2Lane
    );
    x86_wrappers!(
        "avx512f",
        relu_forward_avx512,
        relu_mask_avx512,
        batchnorm_avx512,
        fake_quant_signed_avx512,
        fake_quant_unsigned_avx512,
        Avx512Lane
    );

    /// `inout[i] = targets[i] + sigma * inout[i]`, 4 × `f64` lanes,
    /// explicit multiply then add (no FMA contraction).
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_add_f64_avx2(targets: &[f64], sigma: f64, inout: &mut [f64]) {
        let n = inout.len();
        let tp = targets.as_ptr();
        let op = inout.as_mut_ptr();
        unsafe {
            let s = _mm256_set1_pd(sigma);
            let mut i = 0;
            while i + 4 <= n {
                let z = _mm256_loadu_pd(op.add(i));
                let t = _mm256_loadu_pd(tp.add(i));
                _mm256_storeu_pd(op.add(i), _mm256_add_pd(t, _mm256_mul_pd(s, z)));
                i += 4;
            }
            while i < n {
                *op.add(i) = *tp.add(i) + sigma * *op.add(i);
                i += 1;
            }
        }
    }

    /// `inout[i] = targets[i] + sigma * inout[i]`, 8 × `f64` lanes.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn scale_add_f64_avx512(targets: &[f64], sigma: f64, inout: &mut [f64]) {
        let n = inout.len();
        let tp = targets.as_ptr();
        let op = inout.as_mut_ptr();
        unsafe {
            let s = _mm512_set1_pd(sigma);
            let mut i = 0;
            while i + 8 <= n {
                let z = _mm512_loadu_pd(op.add(i));
                let t = _mm512_loadu_pd(tp.add(i));
                _mm512_storeu_pd(op.add(i), _mm512_add_pd(t, _mm512_mul_pd(s, z)));
                i += 8;
            }
            while i < n {
                *op.add(i) = *tp.add(i) + sigma * *op.add(i);
                i += 1;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub use x86::{Avx2Lane, Avx512Lane};

// ---------------------------------------------------------------------
// AArch64 wrappers.
// ---------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::*;
    use core::arch::aarch64::*;

    /// 4 × `f32` in a NEON `q` register.
    #[derive(Debug, Clone, Copy)]
    pub struct NeonLane;

    impl SimdLane for NeonLane {
        const LANES: usize = 4;
        type V = float32x4_t;
        #[inline(always)]
        unsafe fn splat(x: f32) -> float32x4_t {
            unsafe { vdupq_n_f32(x) }
        }
        #[inline(always)]
        unsafe fn load(ptr: *const f32) -> float32x4_t {
            unsafe { vld1q_f32(ptr) }
        }
        #[inline(always)]
        unsafe fn store(ptr: *mut f32, v: float32x4_t) {
            unsafe { vst1q_f32(ptr, v) }
        }
        #[inline(always)]
        unsafe fn add(a: float32x4_t, b: float32x4_t) -> float32x4_t {
            unsafe { vaddq_f32(a, b) }
        }
        #[inline(always)]
        unsafe fn sub(a: float32x4_t, b: float32x4_t) -> float32x4_t {
            unsafe { vsubq_f32(a, b) }
        }
        #[inline(always)]
        unsafe fn mul(a: float32x4_t, b: float32x4_t) -> float32x4_t {
            unsafe { vmulq_f32(a, b) }
        }
        #[inline(always)]
        unsafe fn div(a: float32x4_t, b: float32x4_t) -> float32x4_t {
            unsafe { vdivq_f32(a, b) }
        }
        #[inline(always)]
        unsafe fn round_ties_away(v: float32x4_t) -> float32x4_t {
            // FRINTA rounds ties away from zero natively.
            unsafe { vrndaq_f32(v) }
        }
        #[inline(always)]
        unsafe fn select_gt(
            a: float32x4_t,
            b: float32x4_t,
            t: float32x4_t,
            f: float32x4_t,
        ) -> float32x4_t {
            unsafe { vbslq_f32(vcgtq_f32(a, b), t, f) }
        }
        #[inline(always)]
        unsafe fn select_eq(
            a: float32x4_t,
            b: float32x4_t,
            t: float32x4_t,
            f: float32x4_t,
        ) -> float32x4_t {
            unsafe { vbslq_f32(vceqq_f32(a, b), t, f) }
        }
        #[inline(always)]
        unsafe fn gt_zero_bits(v: float32x4_t) -> u32 {
            unsafe {
                let m = vcgtq_f32(v, vdupq_n_f32(0.0));
                (vgetq_lane_u32::<0>(m) & 1)
                    | ((vgetq_lane_u32::<1>(m) & 1) << 1)
                    | ((vgetq_lane_u32::<2>(m) & 1) << 2)
                    | ((vgetq_lane_u32::<3>(m) & 1) << 3)
            }
        }
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn relu_forward_neon(x: &mut [f32], mask: &mut Vec<bool>) {
        unsafe { relu_forward_body::<NeonLane>(x, mask) }
    }
    #[target_feature(enable = "neon")]
    pub unsafe fn relu_mask_neon(g: &mut [f32], mask: &[bool]) {
        unsafe { relu_mask_body::<NeonLane>(g, mask) }
    }
    #[target_feature(enable = "neon")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn batchnorm_neon(
        input: &[f32],
        mean: f32,
        inv_std: f32,
        gamma: f32,
        beta: f32,
        x_hat: &mut [f32],
        out: &mut [f32],
    ) {
        unsafe { batchnorm_body::<NeonLane>(input, mean, inv_std, gamma, beta, x_hat, out) }
    }
    #[target_feature(enable = "neon")]
    pub unsafe fn fake_quant_signed_neon(x: &mut [f32], scale: f32, max_code: f32) {
        unsafe { fake_quant_signed_body::<NeonLane>(x, scale, max_code) }
    }
    #[target_feature(enable = "neon")]
    pub unsafe fn fake_quant_unsigned_neon(x: &mut [f32], scale: f32, levels: f32) {
        unsafe { fake_quant_unsigned_body::<NeonLane>(x, scale, levels) }
    }

    /// `inout[i] = targets[i] + sigma * inout[i]`, 2 × `f64` lanes,
    /// explicit multiply then add (no FMA contraction).
    #[target_feature(enable = "neon")]
    pub unsafe fn scale_add_f64_neon(targets: &[f64], sigma: f64, inout: &mut [f64]) {
        let n = inout.len();
        let tp = targets.as_ptr();
        let op = inout.as_mut_ptr();
        unsafe {
            let s = vdupq_n_f64(sigma);
            let mut i = 0;
            while i + 2 <= n {
                let z = vld1q_f64(op.add(i));
                let t = vld1q_f64(tp.add(i));
                vst1q_f64(op.add(i), vaddq_f64(t, vmulq_f64(s, z)));
                i += 2;
            }
            while i < n {
                *op.add(i) = *tp.add(i) + sigma * *op.add(i);
                i += 1;
            }
        }
    }
}

#[cfg(target_arch = "aarch64")]
pub use neon::NeonLane;

// ---------------------------------------------------------------------
// Public dispatched kernels.
// ---------------------------------------------------------------------

macro_rules! dispatch {
    ($scalar:expr, $avx2:expr, $avx512:expr, $neon:expr) => {
        match backend() {
            Backend::Scalar => $scalar,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => $avx2,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => $avx512,
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => $neon,
            #[allow(unreachable_patterns)]
            _ => unreachable!("active SIMD backend unsupported on this architecture"),
        }
    };
}

/// ReLU forward: clamps `x` to `max(x, 0)` in place (NaN and `-0.0`
/// become `+0.0`) and appends each element's pre-clamp `> 0` flag to
/// `mask` (cleared capacity is reused, so the steady state allocates
/// nothing once `mask` has grown to the layer's size).
///
/// Bit-identical across backends.
#[allow(unused_variables)]
pub fn relu_forward_inplace(x: &mut [f32], mask: &mut Vec<bool>) {
    dispatch!(
        unsafe { relu_forward_body::<ScalarLane>(x, mask) },
        unsafe { x86::relu_forward_avx2(x, mask) },
        unsafe { x86::relu_forward_avx512(x, mask) },
        unsafe { neon::relu_forward_neon(x, mask) }
    )
}

/// ReLU backward: zeroes `g[i]` wherever `mask[i]` is false, in place.
///
/// Bit-identical across backends.
///
/// # Panics
///
/// Panics if `g` and `mask` lengths differ.
#[allow(unused_variables)]
pub fn relu_apply_mask(g: &mut [f32], mask: &[bool]) {
    assert_eq!(g.len(), mask.len(), "relu_apply_mask: gradient/mask length mismatch");
    dispatch!(
        unsafe { relu_mask_body::<ScalarLane>(g, mask) },
        unsafe { x86::relu_mask_avx2(g, mask) },
        unsafe { x86::relu_mask_avx512(g, mask) },
        unsafe { neon::relu_mask_neon(g, mask) }
    )
}

/// Batchnorm normalize for one plane (one `(item, channel)` slab):
/// `x_hat = (input - mean) * inv_std`, `out = gamma * x_hat + beta`.
///
/// Bit-identical across backends (no FMA contraction).
///
/// # Panics
///
/// Panics if the three slices differ in length.
#[allow(unused_variables)]
pub fn batchnorm_normalize(
    input: &[f32],
    mean: f32,
    inv_std: f32,
    gamma: f32,
    beta: f32,
    x_hat: &mut [f32],
    out: &mut [f32],
) {
    assert_eq!(input.len(), x_hat.len(), "batchnorm_normalize: x_hat length mismatch");
    assert_eq!(input.len(), out.len(), "batchnorm_normalize: out length mismatch");
    dispatch!(
        unsafe { batchnorm_body::<ScalarLane>(input, mean, inv_std, gamma, beta, x_hat, out) },
        unsafe { x86::batchnorm_avx2(input, mean, inv_std, gamma, beta, x_hat, out) },
        unsafe { x86::batchnorm_avx512(input, mean, inv_std, gamma, beta, x_hat, out) },
        unsafe { neon::batchnorm_neon(input, mean, inv_std, gamma, beta, x_hat, out) }
    )
}

/// Symmetric signed fake-quant round trip in place:
/// `x = clamp(round(x / scale), -max_code, max_code) * scale`, with NaN
/// mapping to `0.0` exactly like the integer-code reference.
///
/// Bit-identical across backends. `scale` must be positive and
/// `max_code` a nonnegative integer below 2²⁴ (the float-domain clamp
/// is only exact for exactly-representable codes).
#[allow(unused_variables)]
pub fn fake_quant_signed_inplace(x: &mut [f32], scale: f32, max_code: f32) {
    debug_assert!(scale > 0.0, "fake_quant_signed_inplace: scale must be positive");
    debug_assert!(
        max_code >= 0.0 && max_code < (1 << 24) as f32 && max_code.fract() == 0.0,
        "fake_quant_signed_inplace: max_code must be an integer below 2^24"
    );
    dispatch!(
        unsafe { fake_quant_signed_body::<ScalarLane>(x, scale, max_code) },
        unsafe { x86::fake_quant_signed_avx2(x, scale, max_code) },
        unsafe { x86::fake_quant_signed_avx512(x, scale, max_code) },
        unsafe { neon::fake_quant_signed_neon(x, scale, max_code) }
    )
}

/// Unsigned (activation) fake-quant round trip in place:
/// `x = min(round(max(x, 0) / scale), levels) * scale` (NaN → `0.0`).
///
/// Bit-identical across backends. `scale` must be positive and
/// `levels` a nonnegative integer below 2²⁴.
#[allow(unused_variables)]
pub fn fake_quant_unsigned_inplace(x: &mut [f32], scale: f32, levels: f32) {
    debug_assert!(scale > 0.0, "fake_quant_unsigned_inplace: scale must be positive");
    debug_assert!(
        levels >= 0.0 && levels < (1 << 24) as f32 && levels.fract() == 0.0,
        "fake_quant_unsigned_inplace: levels must be an integer below 2^24"
    );
    dispatch!(
        unsafe { fake_quant_unsigned_body::<ScalarLane>(x, scale, levels) },
        unsafe { x86::fake_quant_unsigned_avx2(x, scale, levels) },
        unsafe { x86::fake_quant_unsigned_avx512(x, scale, levels) },
        unsafe { neon::fake_quant_unsigned_neon(x, scale, levels) }
    )
}

fn scale_add_f64_scalar(targets: &[f64], sigma: f64, inout: &mut [f64]) {
    for (o, &t) in inout.iter_mut().zip(targets) {
        *o = t + sigma * *o;
    }
}

/// Device-programming kernel: `inout[i] = targets[i] + sigma *
/// inout[i]`, where `inout` holds pre-drawn standard-normal samples on
/// entry and the programmed conductances on exit.
///
/// Bit-identical across backends: the multiply and add round separately
/// (never an FMA), matching `Prng::normal(target, sigma)` which returns
/// exactly `target + sigma * z`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[allow(unused_variables)]
pub fn scale_add_f64(targets: &[f64], sigma: f64, inout: &mut [f64]) {
    assert_eq!(targets.len(), inout.len(), "scale_add_f64: length mismatch");
    dispatch!(
        scale_add_f64_scalar(targets, sigma, inout),
        unsafe { x86::scale_add_f64_avx2(targets, sigma, inout) },
        unsafe { x86::scale_add_f64_avx512(targets, sigma, inout) },
        unsafe { neon::scale_add_f64_neon(targets, sigma, inout) }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_name_parse_round_trips() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("sse9"), None);
    }

    #[test]
    fn detection_always_yields_a_supported_backend() {
        let b = detected_backend();
        assert!(b.is_supported());
        let avail = available_backends();
        assert!(avail.contains(&Backend::Scalar));
        assert!(avail.contains(&b));
    }

    #[test]
    fn with_backend_restores_previous_backend() {
        let before = backend();
        let ran = with_backend(Backend::Scalar, || {
            assert_eq!(backend(), Backend::Scalar);
            42
        })
        .unwrap();
        assert_eq!(ran, 42);
        assert_eq!(backend(), before);
    }

    #[test]
    fn with_backend_restores_on_panic() {
        let before = backend();
        let result = std::panic::catch_unwind(|| {
            let _ = with_backend(Backend::Scalar, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(backend(), before);
    }

    #[test]
    fn unsupported_backend_is_rejected() {
        #[cfg(target_arch = "x86_64")]
        let foreign = Backend::Neon;
        #[cfg(not(target_arch = "x86_64"))]
        let foreign = Backend::Avx2;
        assert!(!foreign.is_supported());
        assert!(with_backend(foreign, || ()).is_err());
    }

    /// The tie-fix emulation of `f32::round` must match it exactly on
    /// every backend, across ties, near-ties, signed zeros, huge
    /// values, infinities, and NaN.
    #[test]
    fn round_ties_away_matches_f32_round_on_every_backend() {
        let cases: Vec<f32> = vec![
            0.0,
            -0.0,
            0.25,
            0.5,
            -0.5,
            0.49999997,
            1.5,
            2.5,
            -2.5,
            3.5,
            -3.5,
            7.499_999_5, // one ulp below 7.5: a near-tie that must round down
            100.5,
            -100.5,
            8388607.5, // 2^23 - 0.5: largest f32 with a fractional part tie
            8388608.0, // 2^23: integers from here on
            1e30,
            -1e30,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-40, // subnormal
        ];
        // Exercise the rounding through the signed fake-quant kernel
        // with scale 1 and a huge clamp, which reduces to `round` for
        // finite in-range values.
        for b in available_backends() {
            let mut got: Vec<f32> = cases.clone();
            with_backend(b, || fake_quant_signed_inplace(&mut got, 1.0, 16_777_215.0)).unwrap();
            for (&x, &g) in cases.iter().zip(&got) {
                let want = if x.is_nan() {
                    0.0
                } else {
                    x.round().clamp(-16_777_215.0, 16_777_215.0) + 0.0
                };
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "backend {b}: round({x}) = {g}, want {want}"
                );
            }
        }
    }

    #[test]
    fn elementwise_kernels_bit_identical_across_backends() {
        let input: Vec<f32> = (0..67)
            .map(|i| (i as f32 - 33.0) * 0.37)
            .chain([f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-40])
            .collect();

        let reference = with_backend(Backend::Scalar, || {
            let mut x = input.clone();
            let mut mask = Vec::new();
            relu_forward_inplace(&mut x, &mut mask);
            let mut g = input.clone();
            relu_apply_mask(&mut g, &mask);
            let mut q = input.clone();
            fake_quant_signed_inplace(&mut q, 0.1, 127.0);
            let mut u = input.clone();
            fake_quant_unsigned_inplace(&mut u, 0.1, 255.0);
            let (mut xh, mut out) = (vec![0.0f32; input.len()], vec![0.0f32; input.len()]);
            batchnorm_normalize(&input, 0.3, 1.7, 1.1, -0.2, &mut xh, &mut out);
            (x, mask, g, q, u, xh, out)
        })
        .unwrap();

        for b in available_backends() {
            let got = with_backend(b, || {
                let mut x = input.clone();
                let mut mask = Vec::new();
                relu_forward_inplace(&mut x, &mut mask);
                let mut g = input.clone();
                relu_apply_mask(&mut g, &mask);
                let mut q = input.clone();
                fake_quant_signed_inplace(&mut q, 0.1, 127.0);
                let mut u = input.clone();
                fake_quant_unsigned_inplace(&mut u, 0.1, 255.0);
                let (mut xh, mut out) = (vec![0.0f32; input.len()], vec![0.0f32; input.len()]);
                batchnorm_normalize(&input, 0.3, 1.7, 1.1, -0.2, &mut xh, &mut out);
                (x, mask, g, q, u, xh, out)
            })
            .unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.0), bits(&reference.0), "relu forward, backend {b}");
            assert_eq!(got.1, reference.1, "relu mask, backend {b}");
            assert_eq!(bits(&got.2), bits(&reference.2), "relu backward, backend {b}");
            assert_eq!(bits(&got.3), bits(&reference.3), "fake quant signed, backend {b}");
            assert_eq!(bits(&got.4), bits(&reference.4), "fake quant unsigned, backend {b}");
            assert_eq!(bits(&got.5), bits(&reference.5), "batchnorm x_hat, backend {b}");
            assert_eq!(bits(&got.6), bits(&reference.6), "batchnorm out, backend {b}");
        }
    }

    #[test]
    fn scale_add_f64_bit_identical_across_backends() {
        let targets: Vec<f64> = (0..37).map(|i| i as f64 * 0.71 - 11.0).collect();
        let zs: Vec<f64> = (0..37).map(|i| (i as f64 * 1.37).sin()).collect();
        let reference: Vec<f64> = targets.iter().zip(&zs).map(|(&t, &z)| t + 0.1 * z).collect();
        for b in available_backends() {
            let mut inout = zs.clone();
            with_backend(b, || scale_add_f64(&targets, 0.1, &mut inout)).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&inout), bits(&reference), "backend {b}");
        }
    }
}
