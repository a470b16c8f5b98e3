//! The device-model zoo: pluggable programming-noise models behind one
//! trait.
//!
//! The paper's experiments use a single RRAM-flavored Gaussian variation
//! model, but the SWIM method itself is device-agnostic. [`DeviceModel`]
//! abstracts *how one device level is programmed* — both the single
//! uncorrected attempt and the write-verify loop — so the same selection
//! machinery, pulse accounting, and Monte Carlo harness can sweep over
//! different memory technologies. Models are registered by name
//! ([`device_model_registry`] / [`device_model_by_name`]), mirroring the
//! selector registry in `swim-core`, and an experiment spec addresses
//! them through the `[device].model` key.
//!
//! The reference model, [`RramGaussian`], delegates to the free
//! functions in [`crate::writeverify`] and is **bit-identical** to the
//! pre-trait code path: same RNG draws, in the same order.

use std::sync::Arc;

use crate::device::DeviceConfig;
use crate::drift::DriftModel;
use crate::mapping::{ProgramSummary, Slices};
use crate::writeverify::{program_once, write_verify, ProgramOutcome};
use swim_quant::DeviceSlicing;
use swim_tensor::Prng;

/// A pluggable device programming-noise model.
///
/// Implementations must be deterministic functions of
/// (`target`, `cfg`, `rng`): the Monte Carlo harness replays equally
/// seeded RNG streams and relies on identical outcomes. Every random
/// decision must come from `rng`, and the number and order of draws per
/// call must not depend on anything but the arguments.
pub trait DeviceModel: Send + Sync {
    /// Display name used in tables and results documents.
    fn name(&self) -> &str;

    /// Registry key: lowercase, hyphenated, stable (used by specs and
    /// the CLI). Defaults to the lowercased display name.
    fn key(&self) -> String {
        self.name().to_lowercase()
    }

    /// One-line description for `swim list` and the docs.
    fn describe(&self) -> &str {
        ""
    }

    /// One uncorrected programming attempt of a device level.
    ///
    /// `target` is in level units (`0..=cfg.full_scale()`); the returned
    /// conductance is whatever the device actually holds afterwards.
    fn program_once(&self, target: f64, cfg: &DeviceConfig, rng: &mut Prng) -> ProgramOutcome;

    /// The program-and-verify loop: re-program until the read-back value
    /// sits within `cfg.level_margin()` of `target` (or the iteration
    /// budget runs out), accounting every pulse.
    fn write_verify(&self, target: f64, cfg: &DeviceConfig, rng: &mut Prng) -> ProgramOutcome;

    /// Programs a tensor of signed weight codes, bit-sliced by `slicing`,
    /// into `out` (cleared, capacity reused): weight `i` is
    /// write-verified when `selection[i]` is set (never when `selection`
    /// is `None`) and reconstructed from its devices' conductances.
    ///
    /// Draws are weight-major and device-minor — exactly the stream of
    /// calling [`WeightMapper::program_weight`] once per weight in order —
    /// so every implementation must stay bit-identical to that loop
    /// (values, [`ProgramSummary`] and the RNG state left behind). The
    /// default body is that loop: being a default method it is compiled
    /// once per model, so the per-device [`program_once`] /
    /// [`write_verify`] calls inside it are static and inlinable, and
    /// the configuration is validated once per tensor instead of once
    /// per device.
    ///
    /// # Panics
    ///
    /// Panics if `selection` has a different length than `codes`, a code
    /// does not fit in `slicing.weight_bits()` bits, or `cfg` is invalid.
    ///
    /// [`WeightMapper::program_weight`]: crate::mapping::WeightMapper::program_weight
    /// [`program_once`]: DeviceModel::program_once
    /// [`write_verify`]: DeviceModel::write_verify
    fn program_codes(
        &self,
        slicing: DeviceSlicing,
        codes: &[i32],
        selection: Option<&[bool]>,
        cfg: &DeviceConfig,
        rng: &mut Prng,
        out: &mut Vec<f64>,
    ) -> ProgramSummary {
        if let Some(sel) = selection {
            assert_eq!(sel.len(), codes.len(), "selection mask length mismatch");
        }
        cfg.validate();
        let slices = Slices::new(slicing);
        let mut summary =
            ProgramSummary { total_weights: codes.len() as u64, ..Default::default() };
        out.clear();
        out.reserve(codes.len());
        for (i, &code) in codes.iter().enumerate() {
            let verify = selection.is_some_and(|s| s[i]);
            let (value, pulses) = slices.program(self, cfg, code, verify, rng);
            if verify {
                summary.verify_pulses += pulses;
                summary.verified_weights += 1;
            } else {
                summary.bulk_pulses += pulses;
            }
            out.push(value);
        }
        summary
    }
}

/// The reference model: level-proportional Gaussian programming noise
/// with the paper's iterative write-verify loop (§4.1).
///
/// Delegates to [`crate::writeverify::program_once`] /
/// [`crate::writeverify::write_verify`] — the exact pre-registry code
/// path, bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct RramGaussian;

impl DeviceModel for RramGaussian {
    fn name(&self) -> &str {
        "RRAM Gaussian"
    }

    fn key(&self) -> String {
        "rram-gaussian".into()
    }

    fn describe(&self) -> &str {
        "level-proportional Gaussian noise + iterative write-verify (paper §4.1 reference)"
    }

    fn program_once(&self, target: f64, cfg: &DeviceConfig, rng: &mut Prng) -> ProgramOutcome {
        program_once(target, cfg, rng)
    }

    fn write_verify(&self, target: f64, cfg: &DeviceConfig, rng: &mut Prng) -> ProgramOutcome {
        write_verify(target, cfg, rng)
    }
}

/// MRAM (MTJ-style) parameterization: stochastic switching.
///
/// Magnetic tunnel junctions switch thermally: most write attempts land
/// tightly around the target (Gaussian with `sigma_scale ×` the
/// configured level sigma), but with probability [`write_error_rate`]
/// an attempt fails to switch cleanly and the device is left at a
/// uniformly random level. Write-verify catches those outliers, so the
/// verified tail behaves like RRAM while the *unverified* tail is much
/// heavier — exactly the regime where tail-risk statistics diverge from
/// the mean.
///
/// [`write_error_rate`]: MramStochastic::write_error_rate
#[derive(Debug, Clone, Copy)]
pub struct MramStochastic {
    /// Probability that one write attempt fails to switch and lands at
    /// a uniformly random level.
    pub write_error_rate: f64,
    /// Successful-attempt noise std as a multiple of
    /// `cfg.level_sigma()`.
    pub sigma_scale: f64,
}

impl Default for MramStochastic {
    fn default() -> Self {
        MramStochastic { write_error_rate: 0.05, sigma_scale: 0.6 }
    }
}

impl MramStochastic {
    /// One write attempt: tight Gaussian, or a uniform outlier on a
    /// switching failure. Always draws the normal first and the failure
    /// uniform second so the draw count per attempt is fixed (2).
    fn attempt(&self, target: f64, cfg: &DeviceConfig, rng: &mut Prng) -> f64 {
        let clean = rng.normal(target, self.sigma_scale * cfg.level_sigma());
        if rng.uniform() < self.write_error_rate {
            rng.uniform_range(0.0, cfg.full_scale())
        } else {
            clean
        }
    }
}

impl DeviceModel for MramStochastic {
    fn name(&self) -> &str {
        "MRAM Stochastic"
    }

    fn key(&self) -> String {
        "mram-stochastic".into()
    }

    fn describe(&self) -> &str {
        "MTJ-style writes: tight Gaussian plus a random-level switching-failure tail"
    }

    fn program_once(&self, target: f64, cfg: &DeviceConfig, rng: &mut Prng) -> ProgramOutcome {
        cfg.validate();
        ProgramOutcome { value: self.attempt(target, cfg, rng), pulses: 1 }
    }

    fn write_verify(&self, target: f64, cfg: &DeviceConfig, rng: &mut Prng) -> ProgramOutcome {
        cfg.validate();
        let margin = cfg.level_margin();
        let step = cfg.level_pulse_step();
        let mut value = self.attempt(target, cfg, rng);
        let mut pulses = 1u64;
        for _ in 0..cfg.max_verify_iters {
            let err = value - target;
            if err.abs() <= margin {
                break;
            }
            pulses += ((err.abs() / step).ceil()).max(1.0) as u64;
            value = self.attempt(target, cfg, rng);
        }
        ProgramOutcome { value, pulses }
    }
}

/// SRAM-class parameterization: static threshold-voltage mismatch.
///
/// A compute-SRAM bit-cell's error is dominated by a mismatch offset
/// frozen in at fabrication rather than by write stochasticity, so
/// re-writing the same value draws the *same* offset again. What a
/// verify loop can do is trim: each correction step cancels the
/// measured error but lands with a small residual trim noise
/// ([`trim_noise`] × the configured level sigma). Convergence is
/// therefore fast (typically one correction) and the verified residual
/// is much tighter than RRAM's.
///
/// [`trim_noise`]: SramVt::trim_noise
#[derive(Debug, Clone, Copy)]
pub struct SramVt {
    /// Residual noise of one trim step as a multiple of
    /// `cfg.level_sigma()`.
    pub trim_noise: f64,
}

impl Default for SramVt {
    fn default() -> Self {
        SramVt { trim_noise: 0.25 }
    }
}

impl DeviceModel for SramVt {
    fn name(&self) -> &str {
        "SRAM Vt"
    }

    fn key(&self) -> String {
        "sram-vt".into()
    }

    fn describe(&self) -> &str {
        "static threshold-voltage mismatch, trimmed by noisy correction steps under verify"
    }

    fn program_once(&self, target: f64, cfg: &DeviceConfig, rng: &mut Prng) -> ProgramOutcome {
        cfg.validate();
        ProgramOutcome { value: rng.normal(target, cfg.level_sigma()), pulses: 1 }
    }

    fn write_verify(&self, target: f64, cfg: &DeviceConfig, rng: &mut Prng) -> ProgramOutcome {
        cfg.validate();
        let margin = cfg.level_margin();
        let step = cfg.level_pulse_step();
        let mut value = rng.normal(target, cfg.level_sigma());
        let mut pulses = 1u64;
        for _ in 0..cfg.max_verify_iters {
            let err = value - target;
            if err.abs() <= margin {
                break;
            }
            pulses += ((err.abs() / step).ceil()).max(1.0) as u64;
            // Trim: cancel the measured error, keep the trim residual.
            value = target + rng.normal(0.0, self.trim_noise * cfg.level_sigma());
        }
        ProgramOutcome { value, pulses }
    }
}

/// Conductance drift over time, composable with any base model.
///
/// The base model programs (and verifies) the device at `t ≈ t0`; the
/// wrapper then ages every device to read-out time [`time`] with a
/// per-device drift exponent drawn from [`DriftModel`], so verified
/// devices drift exactly like unverified ones — write-verify cannot buy
/// back retention loss. Each call adds exactly one extra RNG draw after
/// the base model's draws.
///
/// [`time`]: DriftingModel::time
#[derive(Clone)]
pub struct DriftingModel {
    base: Arc<dyn DeviceModel>,
    drift: DriftModel,
    /// Read-out time in seconds (must exceed `drift.t0`).
    pub time: f64,
    name: String,
    key: String,
    describe: String,
}

impl DriftingModel {
    /// Wraps `base` with `drift` aging evaluated at `time` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `time <= 0`.
    pub fn new(base: Arc<dyn DeviceModel>, drift: DriftModel, time: f64) -> Self {
        assert!(time > 0.0, "drift read-out time must be positive");
        let name = format!("{} + drift", base.name());
        let key = format!("{}-drift", base.key());
        let describe = format!("{} aged to t = {time:.0} s", base.name());
        DriftingModel { base, drift, time, name, key, describe }
    }

    /// Overrides the generated name/key/describe (used by the registry
    /// presets).
    pub fn named(mut self, name: &str, key: &str, describe: &str) -> Self {
        self.name = name.to_string();
        self.key = key.to_string();
        self.describe = describe.to_string();
        self
    }

    /// The wrapped base model.
    pub fn base(&self) -> &Arc<dyn DeviceModel> {
        &self.base
    }

    /// The drift parameterization in use.
    pub fn drift(&self) -> DriftModel {
        self.drift
    }

    fn age(&self, outcome: ProgramOutcome, rng: &mut Prng) -> ProgramOutcome {
        let nu = self.drift.sample_exponent(rng);
        ProgramOutcome {
            value: outcome.value * (self.time / self.drift.t0).powf(-nu),
            pulses: outcome.pulses,
        }
    }
}

impl DeviceModel for DriftingModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn key(&self) -> String {
        self.key.clone()
    }

    fn describe(&self) -> &str {
        &self.describe
    }

    fn program_once(&self, target: f64, cfg: &DeviceConfig, rng: &mut Prng) -> ProgramOutcome {
        let outcome = self.base.program_once(target, cfg, rng);
        self.age(outcome, rng)
    }

    fn write_verify(&self, target: f64, cfg: &DeviceConfig, rng: &mut Prng) -> ProgramOutcome {
        let outcome = self.base.write_verify(target, cfg, rng);
        self.age(outcome, rng)
    }
}

/// The default model key (`rram-gaussian`), programmed by every call
/// site that predates the registry.
pub const DEFAULT_DEVICE_MODEL: &str = "rram-gaussian";

/// The default device model: the bit-identical RRAM Gaussian reference.
pub fn default_device_model() -> Arc<dyn DeviceModel> {
    Arc::new(RramGaussian)
}

/// Every built-in device model, in presentation order (the reference
/// model first, then the material zoo, then the drift compositions).
pub fn device_model_registry() -> Vec<Arc<dyn DeviceModel>> {
    vec![
        Arc::new(RramGaussian),
        Arc::new(MramStochastic::default()),
        Arc::new(SramVt::default()),
        Arc::new(DriftingModel::new(Arc::new(RramGaussian), DriftModel::rram(), 1e4).named(
            "RRAM + drift",
            "rram-drift",
            "Gaussian programming with RRAM-grade conductance drift at t = 10^4 s",
        )),
        Arc::new(DriftingModel::new(Arc::new(RramGaussian), DriftModel::pcm(), 1e4).named(
            "PCM + drift",
            "pcm-drift",
            "Gaussian programming with PCM-grade conductance drift at t = 10^4 s",
        )),
    ]
}

/// Resolves a device model by registry key or display name
/// (case-insensitive). Returns `None` for unknown names.
///
/// # Example
///
/// ```
/// use swim_cim::model::device_model_by_name;
///
/// assert_eq!(device_model_by_name("rram-gaussian").unwrap().name(), "RRAM Gaussian");
/// assert_eq!(device_model_by_name("MRAM Stochastic").unwrap().key(), "mram-stochastic");
/// assert!(device_model_by_name("flux-capacitor").is_none());
/// ```
pub fn device_model_by_name(name: &str) -> Option<Arc<dyn DeviceModel>> {
    let want = name.to_lowercase();
    device_model_registry().into_iter().find(|m| m.key() == want || m.name().to_lowercase() == want)
}

/// The registry keys, in presentation order (for error messages and
/// `swim list`).
pub fn device_model_keys() -> Vec<String> {
    device_model_registry().iter().map(|m| m.key()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::WeightMapper;

    #[test]
    fn rram_gaussian_is_bit_identical_to_free_functions() {
        let cfg = DeviceConfig::rram();
        let model = RramGaussian;
        for target in [0.0f64, 3.0, 7.5, 15.0] {
            let mut a = Prng::seed_from_u64(42);
            let mut b = Prng::seed_from_u64(42);
            assert_eq!(
                model.program_once(target, &cfg, &mut a),
                program_once(target, &cfg, &mut b)
            );
            assert_eq!(
                model.write_verify(target, &cfg, &mut a),
                write_verify(target, &cfg, &mut b)
            );
            // And the RNG streams stayed in lockstep.
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// `program_codes` against the per-weight oracle: one
    /// `WeightMapper::program_weight` call per weight, in order — same
    /// values bit for bit, same summary, and the RNG left at the same
    /// point, for every registry model, around the old 256-weight run
    /// boundary, with no, full and scattered write-verify masks.
    #[test]
    fn bulk_programming_is_bit_identical_to_per_device() {
        let cfg = DeviceConfig::rram();
        // 8-bit weights on 4-bit devices: two devices per weight.
        let slicing = DeviceSlicing::new(8, cfg.device_bits);
        let codes: Vec<i32> = (0..1000).map(|i| (i * 37 % 511) - 255).collect();
        for model in device_model_registry() {
            let mapper = WeightMapper::with_model(8, cfg, model.clone());
            for len in [0usize, 1, 255, 256, 257, 1000] {
                let codes = &codes[..len];
                let all = vec![true; len];
                let scattered: Vec<bool> = (0..len).map(|i| i % 7 == 3 || i % 11 == 0).collect();
                for (label, sel) in
                    [("none", None), ("all", Some(&all[..])), ("scattered", Some(&scattered[..]))]
                {
                    let what = format!("{} len {len} mask {label}", model.key());
                    let mut rng = Prng::seed_from_u64(77);
                    let mut ref_rng = Prng::seed_from_u64(77);
                    let mut got = vec![5.0; 3]; // stale contents are cleared
                    let summary =
                        model.program_codes(slicing, codes, sel, &cfg, &mut rng, &mut got);
                    let mut expected =
                        ProgramSummary { total_weights: len as u64, ..Default::default() };
                    assert_eq!(got.len(), len, "{what}");
                    for (i, (&code, &value)) in codes.iter().zip(&got).enumerate() {
                        let verify = sel.is_some_and(|s| s[i]);
                        let (want, pulses) = mapper.program_weight(code, verify, &mut ref_rng);
                        assert_eq!(value.to_bits(), want.to_bits(), "{what}: weight {i}");
                        if verify {
                            expected.verify_pulses += pulses;
                            expected.verified_weights += 1;
                        } else {
                            expected.bulk_pulses += pulses;
                        }
                    }
                    assert_eq!(summary, expected, "{what}");
                    assert_eq!(rng.next_u64(), ref_rng.next_u64(), "{what}: stream diverged");
                }
            }
        }
    }

    #[test]
    fn registry_keys_round_trip_and_are_unique() {
        let models = device_model_registry();
        assert!(models.len() >= 4, "registry has {} models", models.len());
        let mut keys: Vec<String> = models.iter().map(|m| m.key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), models.len(), "duplicate registry keys");
        for model in &models {
            // Key and display name both resolve back to the same model.
            let by_key = device_model_by_name(&model.key()).unwrap();
            assert_eq!(by_key.key(), model.key());
            let by_name = device_model_by_name(model.name()).unwrap();
            assert_eq!(by_name.key(), model.key());
            assert!(!model.describe().is_empty(), "{} has no description", model.key());
        }
        assert!(device_model_by_name("no-such-model").is_none());
    }

    #[test]
    fn default_model_is_the_reference() {
        assert_eq!(default_device_model().key(), DEFAULT_DEVICE_MODEL);
        assert_eq!(device_model_registry()[0].key(), DEFAULT_DEVICE_MODEL);
    }

    #[test]
    fn every_model_verifies_into_margin() {
        let cfg = DeviceConfig::rram();
        for model in device_model_registry() {
            // Drift models age the device *after* verification, so the
            // margin contract applies to the pre-drift models only.
            let drifts = model.key().contains("drift");
            let mut rng = Prng::seed_from_u64(7);
            for target in [0.0f64, 5.0, 15.0] {
                let out = model.write_verify(target, &cfg, &mut rng);
                assert!(out.pulses >= 1, "{}: no pulses", model.key());
                if !drifts {
                    assert!(
                        (out.value - target).abs() <= cfg.level_margin() + 1e-12,
                        "{}: target {target} -> {}",
                        model.key(),
                        out.value
                    );
                }
            }
        }
    }

    #[test]
    fn mram_unverified_tail_is_heavier_than_verified() {
        let cfg = DeviceConfig::rram();
        let model = MramStochastic::default();
        let mut rng = Prng::seed_from_u64(9);
        let n = 4000;
        let target = 8.0;
        let worst_once = (0..n)
            .map(|_| (model.program_once(target, &cfg, &mut rng).value - target).abs())
            .fold(0.0f64, f64::max);
        let worst_verified = (0..n)
            .map(|_| (model.write_verify(target, &cfg, &mut rng).value - target).abs())
            .fold(0.0f64, f64::max);
        // Switching failures land anywhere on the scale; verify caps the
        // error at the margin.
        assert!(worst_once > 1.0, "worst unverified error {worst_once}");
        assert!(worst_verified <= cfg.level_margin() + 1e-12);
    }

    #[test]
    fn sram_converges_faster_than_rram() {
        let cfg = DeviceConfig::rram();
        let mut rng_a = Prng::seed_from_u64(3);
        let mut rng_b = Prng::seed_from_u64(3);
        let n = 2000;
        let target = 10.0;
        let sram: u64 =
            (0..n).map(|_| SramVt::default().write_verify(target, &cfg, &mut rng_a).pulses).sum();
        let rram: u64 =
            (0..n).map(|_| RramGaussian.write_verify(target, &cfg, &mut rng_b).pulses).sum();
        assert!(sram < rram, "sram {sram} pulses vs rram {rram}");
    }

    #[test]
    fn drift_wrapper_composes_and_shrinks_conductance() {
        let base = Arc::new(RramGaussian);
        let aged = DriftingModel::new(base, DriftModel::pcm(), 1e6);
        let cfg = DeviceConfig::rram();
        let mut rng = Prng::seed_from_u64(11);
        let n = 1000;
        let target = 12.0;
        let mean: f64 =
            (0..n).map(|_| aged.write_verify(target, &cfg, &mut rng).value).sum::<f64>() / n as f64;
        // PCM nu ≈ 0.05 over 6 decades: clearly below target, above zero.
        assert!(mean < target - cfg.level_margin(), "aged mean {mean}");
        assert!(mean > 0.5 * target, "aged mean {mean} collapsed");
        // Determinism: same seed, same outcome.
        let a = aged.write_verify(target, &cfg, &mut Prng::seed_from_u64(4));
        let b = aged.write_verify(target, &cfg, &mut Prng::seed_from_u64(4));
        assert_eq!(a, b);
    }
}
