//! Programming whole weight tensors onto devices.
//!
//! [`WeightMapper`] is the bridge between the network world (quantized
//! signed weight codes) and the device world (K-bit conductance levels):
//! each code's magnitude is bit-sliced ([`DeviceSlicing`], Eqs. 14–15),
//! every slice is programmed — with or without write-verify per a
//! selection mask — and the (noisy) weight code is reconstructed. Pulse
//! counts are accumulated exactly, which is what the paper's
//! *normalized write cycles* metric is computed from.

use std::fmt;
use std::sync::Arc;

use crate::device::DeviceConfig;
use crate::model::{default_device_model, DeviceModel};
use swim_quant::DeviceSlicing;
use swim_tensor::Prng;

/// Aggregate result of programming a weight tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramSummary {
    /// Pulses spent on write-verified weights.
    pub verify_pulses: u64,
    /// Pulses spent on plain (unverified) programming.
    ///
    /// The paper treats the initial bulk write as free (it happens in
    /// parallel, NWC = 0 means "no write-verify"); the count is reported
    /// separately so callers can choose either accounting.
    pub bulk_pulses: u64,
    /// Number of weights that were write-verified.
    pub verified_weights: u64,
    /// Total number of weights programmed.
    pub total_weights: u64,
}

impl ProgramSummary {
    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &ProgramSummary) {
        self.verify_pulses += other.verify_pulses;
        self.bulk_pulses += other.bulk_pulses;
        self.verified_weights += other.verified_weights;
        self.total_weights += other.total_weights;
    }
}

/// Programs quantized weight codes onto bit-sliced NVM devices.
///
/// # Example
///
/// ```
/// use swim_cim::device::DeviceConfig;
/// use swim_cim::mapping::WeightMapper;
/// use swim_tensor::Prng;
///
/// let mapper = WeightMapper::new(4, DeviceConfig::rram());
/// let codes = vec![3, -7, 0, 15];
/// let mut rng = Prng::seed_from_u64(1);
/// // Write-verify only the second weight.
/// let (noisy, summary) = mapper.program(&codes, Some(&[false, true, false, false]), &mut rng);
/// assert_eq!(noisy.len(), 4);
/// assert_eq!(summary.verified_weights, 1);
/// assert!((noisy[1] - -7.0).abs() <= mapper.config().level_margin());
/// ```
#[derive(Clone)]
pub struct WeightMapper {
    slicing: DeviceSlicing,
    config: DeviceConfig,
    model: Arc<dyn DeviceModel>,
}

impl fmt::Debug for WeightMapper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WeightMapper")
            .field("slicing", &self.slicing)
            .field("config", &self.config)
            .field("model", &self.model.key())
            .finish()
    }
}

impl PartialEq for WeightMapper {
    fn eq(&self, other: &Self) -> bool {
        self.slicing == other.slicing
            && self.config == other.config
            && self.model.key() == other.model.key()
    }
}

impl WeightMapper {
    /// Creates a mapper for `weight_bits`-bit magnitudes on devices of
    /// `config.device_bits` bits, programming through the default
    /// (bit-identical RRAM Gaussian) device model.
    ///
    /// # Panics
    ///
    /// Panics if the bit widths are inconsistent (see
    /// [`DeviceSlicing::new`]).
    pub fn new(weight_bits: u32, config: DeviceConfig) -> Self {
        Self::with_model(weight_bits, config, default_device_model())
    }

    /// Creates a mapper programming through an explicit
    /// [`DeviceModel`] from the zoo.
    ///
    /// # Panics
    ///
    /// Panics if the bit widths are inconsistent (see
    /// [`DeviceSlicing::new`]).
    pub fn with_model(weight_bits: u32, config: DeviceConfig, model: Arc<dyn DeviceModel>) -> Self {
        config.validate();
        WeightMapper { slicing: DeviceSlicing::new(weight_bits, config.device_bits), config, model }
    }

    /// The bit-slicing in use.
    pub fn slicing(&self) -> DeviceSlicing {
        self.slicing
    }

    /// The device configuration in use.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The device model programming every slice.
    pub fn model(&self) -> &Arc<dyn DeviceModel> {
        &self.model
    }

    /// Effective std of the weight-code error for a *single uncorrected
    /// write*, in weight-code units: `σ·(2^K−1)·√(Σ_i 2^{2iK})` (Eq. 16
    /// with σ expressed as a fraction of device full scale).
    pub fn weight_code_sigma(&self) -> f64 {
        self.config.level_sigma() * self.slicing.std_amplification()
    }

    /// Programs one signed weight code; returns the reconstructed noisy
    /// code and the pulses spent.
    ///
    /// Runs allocation-free: device levels are sliced and the noisy code
    /// reconstructed on the fly (same per-device order and summation
    /// order as `slice` + `reconstruct`, so results are bit-identical to
    /// the collect-then-reconstruct formulation) — this is the innermost
    /// loop of every Monte Carlo run.
    pub fn program_weight(&self, code: i32, verify: bool, rng: &mut Prng) -> (f64, u64) {
        Slices::new(self.slicing).program(&*self.model, &self.config, code, verify, rng)
    }

    /// Programs a slice of signed weight codes.
    ///
    /// `selection[i] == true` write-verifies weight `i`; `None` programs
    /// everything without verification. Returns the noisy codes and the
    /// pulse accounting.
    ///
    /// # Panics
    ///
    /// Panics if `selection` is provided with a different length than
    /// `codes`.
    pub fn program(
        &self,
        codes: &[i32],
        selection: Option<&[bool]>,
        rng: &mut Prng,
    ) -> (Vec<f64>, ProgramSummary) {
        let mut noisy = Vec::new();
        let summary = self.program_into(codes, selection, rng, &mut noisy);
        (noisy, summary)
    }

    /// [`WeightMapper::program`] into a caller-owned buffer.
    ///
    /// `out` is cleared and refilled, reusing its capacity — the Monte
    /// Carlo harness calls this once per run with a per-worker buffer, so
    /// steady-state programming performs no heap allocation. Draws from
    /// `rng` in exactly the same order as `program`.
    ///
    /// # Panics
    ///
    /// Panics if `selection` is provided with a different length than
    /// `codes`.
    pub fn program_into(
        &self,
        codes: &[i32],
        selection: Option<&[bool]>,
        rng: &mut Prng,
        out: &mut Vec<f64>,
    ) -> ProgramSummary {
        self.model.program_codes(self.slicing, codes, selection, &self.config, rng, out)
    }

    /// Pulses needed to write-verify *all* `codes` — the NWC = 1.0
    /// denominator. Simulated exactly with its own RNG stream so the
    /// denominator does not perturb the experiment's noise draws.
    pub fn write_verify_all_cost(&self, codes: &[i32], rng: &mut Prng) -> u64 {
        let all = vec![true; codes.len()];
        let (_, summary) = self.program(codes, Some(&all), rng);
        summary.verify_pulses
    }
}

/// The bit-slicing arithmetic of one weight width, resolved once per
/// tensor so the per-weight loop does no bounds bookkeeping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slices {
    weight_bits: u32,
    device_bits: u32,
    devices: usize,
}

impl Slices {
    pub(crate) fn new(slicing: DeviceSlicing) -> Self {
        Slices {
            weight_bits: slicing.weight_bits(),
            device_bits: slicing.device_bits(),
            devices: slicing.num_devices(),
        }
    }

    /// Programs one signed weight code through `model`: its magnitude
    /// is bit-sliced (Eq. 15), every device is programmed in slice
    /// order, verified or not, and the noisy code is reconstructed on
    /// the fly — the same levels, significances and summation order as
    /// [`DeviceSlicing::slice_level`] + [`DeviceSlicing::reconstruct`].
    /// Returns the noisy code and the pulses spent.
    ///
    /// Generic so that [`DeviceModel::program_codes`] calls it with the
    /// concrete model (static per-device calls) and
    /// [`WeightMapper::program_weight`] with the trait object.
    ///
    /// # Panics
    ///
    /// Panics if `code` does not fit in the weight width.
    #[inline]
    pub(crate) fn program<M: DeviceModel + ?Sized>(
        self,
        model: &M,
        cfg: &DeviceConfig,
        code: i32,
        verify: bool,
        rng: &mut Prng,
    ) -> (f64, u64) {
        let magnitude = code.unsigned_abs();
        assert!(
            magnitude >> self.weight_bits == 0,
            "code {code} does not fit in {} bits",
            self.weight_bits
        );
        let sign = if code < 0 { -1.0 } else { 1.0 };
        let level_mask = (1u32 << self.device_bits) - 1;
        let mut pulses = 0u64;
        let mut reconstructed = 0.0f64;
        for i in 0..self.devices {
            let shift = i as u32 * self.device_bits;
            let level = ((magnitude >> shift) & level_mask) as f64;
            let outcome = if verify {
                model.write_verify(level, cfg, rng)
            } else {
                model.program_once(level, cfg, rng)
            };
            pulses += outcome.pulses;
            reconstructed += outcome.value * (1u64 << shift) as f64;
        }
        (sign * reconstructed, pulses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapper() -> WeightMapper {
        WeightMapper::new(4, DeviceConfig::rram())
    }

    #[test]
    fn verified_weights_land_within_margin() {
        let m = mapper();
        let mut rng = Prng::seed_from_u64(1);
        for code in [-15i32, -3, 0, 7, 15] {
            let (value, pulses) = m.program_weight(code, true, &mut rng);
            assert!(
                (value - code as f64).abs() <= m.config().level_margin() + 1e-12,
                "code {code} -> {value}"
            );
            assert!(pulses >= 1);
        }
    }

    #[test]
    fn unverified_error_has_eq16_sigma() {
        // 8-bit weights on 4-bit devices: sigma_w = sigma * sqrt(1+2^8).
        let m = WeightMapper::new(8, DeviceConfig::rram());
        let mut rng = Prng::seed_from_u64(2);
        let n = 40_000;
        let codes = vec![100i32; n];
        let (noisy, summary) = m.program(&codes, None, &mut rng);
        let mean: f64 = noisy.iter().map(|&v| v - 100.0).sum::<f64>() / n as f64;
        let var: f64 = noisy.iter().map(|&v| (v - 100.0 - mean).powi(2)).sum::<f64>() / n as f64;
        let expected = m.weight_code_sigma();
        assert!(
            (var.sqrt() - expected).abs() < 0.05 * expected,
            "std {} vs {expected}",
            var.sqrt()
        );
        // Two devices per weight, one pulse each.
        assert_eq!(summary.bulk_pulses, 2 * n as u64);
    }

    #[test]
    fn sign_is_preserved() {
        let m = mapper();
        let mut rng = Prng::seed_from_u64(3);
        let (pos, _) = m.program_weight(9, true, &mut rng);
        let (neg, _) = m.program_weight(-9, true, &mut rng);
        assert!(pos > 0.0);
        assert!(neg < 0.0);
    }

    #[test]
    fn selection_mask_controls_cost() {
        let m = mapper();
        let mut rng = Prng::seed_from_u64(4);
        let codes: Vec<i32> = (0..1000).map(|i| i % 16).collect();
        let half: Vec<bool> = (0..1000).map(|i| i < 500).collect();
        let (_, s) = m.program(&codes, Some(&half), &mut rng);
        assert_eq!(s.verified_weights, 500);
        assert_eq!(s.total_weights, 1000);
        assert_eq!(s.bulk_pulses, 500); // 1 device per 4-bit weight
        assert!(s.verify_pulses > s.bulk_pulses); // verify costs ~10x
    }

    #[test]
    fn write_verify_all_cost_scales_linearly() {
        let m = mapper();
        let mut rng = Prng::seed_from_u64(5);
        let codes: Vec<i32> = (0..20_000).map(|i| i % 16).collect();
        let c_full = m.write_verify_all_cost(&codes, &mut rng) as f64;
        let c_half = m.write_verify_all_cost(&codes[..10_000], &mut rng) as f64;
        let ratio = c_full / c_half;
        assert!((ratio - 2.0).abs() < 0.15, "ratio {ratio}");
        // And the per-weight cost sits at the paper's ~10 cycles.
        let per_weight = c_full / 20_000.0;
        assert!((8.0..12.0).contains(&per_weight), "per-weight cost {per_weight}");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn rejects_oversized_code() {
        let m = mapper();
        m.program_weight(16, false, &mut Prng::seed_from_u64(6));
    }

    #[test]
    fn program_into_matches_program_and_reuses_buffer() {
        let m = mapper();
        let codes: Vec<i32> = (0..500).map(|i| (i % 31) - 15).collect();
        let sel: Vec<bool> = (0..500).map(|i| i % 3 == 0).collect();
        let (fresh, s1) = m.program(&codes, Some(&sel), &mut Prng::seed_from_u64(9));
        let mut buf = vec![99.0f64; 1000]; // stale, oversized
        let s2 = m.program_into(&codes, Some(&sel), &mut Prng::seed_from_u64(9), &mut buf);
        assert_eq!(fresh, buf);
        assert_eq!(s1, s2);
    }

    #[test]
    fn bulk_runs_are_bit_identical_to_the_per_weight_loop() {
        // The whole-chip `program_into` call against one `program_weight`
        // call per weight; the mixed selection interleaves verified and
        // bulk-programmed weights in one stream.
        let m = mapper();
        for (len, sel) in [
            (0usize, None),
            (1, None),
            (300, None),
            (700, None),
            (700, Some((0..700).map(|i| i % 7 == 0).collect::<Vec<bool>>())),
        ] {
            let codes: Vec<i32> = (0..len as i32).map(|i| (i % 31) - 15).collect();
            let mut bulk_rng = Prng::seed_from_u64(77);
            let mut ref_rng = Prng::seed_from_u64(77);
            let mut bulk = Vec::new();
            let summary = m.program_into(&codes, sel.as_deref(), &mut bulk_rng, &mut bulk);
            let mut reference = Vec::new();
            let mut ref_summary =
                ProgramSummary { total_weights: codes.len() as u64, ..Default::default() };
            for (i, &code) in codes.iter().enumerate() {
                let verify = sel.as_deref().map(|s| s[i]).unwrap_or(false);
                let (value, pulses) = m.program_weight(code, verify, &mut ref_rng);
                if verify {
                    ref_summary.verify_pulses += pulses;
                    ref_summary.verified_weights += 1;
                } else {
                    ref_summary.bulk_pulses += pulses;
                }
                reference.push(value);
            }
            for (a, b) in bulk.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "len {len}");
            }
            assert_eq!(bulk.len(), reference.len(), "len {len}");
            assert_eq!(summary, ref_summary, "len {len}");
            assert_eq!(bulk_rng.next_u64(), ref_rng.next_u64(), "len {len}: stream diverged");
        }
    }

    #[test]
    fn default_model_matches_explicit_rram_gaussian() {
        let codes: Vec<i32> = (0..200).map(|i| (i % 31) - 15).collect();
        let sel: Vec<bool> = (0..200).map(|i| i % 2 == 0).collect();
        let a = mapper();
        let b =
            WeightMapper::with_model(4, DeviceConfig::rram(), Arc::new(crate::model::RramGaussian));
        assert_eq!(a, b);
        let (va, sa) = a.program(&codes, Some(&sel), &mut Prng::seed_from_u64(21));
        let (vb, sb) = b.program(&codes, Some(&sel), &mut Prng::seed_from_u64(21));
        assert_eq!(va, vb);
        assert_eq!(sa, sb);
    }

    #[test]
    fn model_choice_changes_programming() {
        let codes: Vec<i32> = (0..200).map(|i| i % 16).collect();
        let rram = mapper();
        let mram = WeightMapper::with_model(
            4,
            DeviceConfig::rram(),
            Arc::new(crate::model::MramStochastic::default()),
        );
        assert_ne!(rram, mram);
        let (va, _) = rram.program(&codes, None, &mut Prng::seed_from_u64(22));
        let (vb, _) = mram.program(&codes, None, &mut Prng::seed_from_u64(22));
        assert_ne!(va, vb);
    }

    #[test]
    fn summary_merge_adds() {
        let mut a = ProgramSummary {
            verify_pulses: 10,
            bulk_pulses: 5,
            verified_weights: 2,
            total_weights: 7,
        };
        a.merge(&ProgramSummary {
            verify_pulses: 1,
            bulk_pulses: 2,
            verified_weights: 3,
            total_weights: 4,
        });
        assert_eq!(a.verify_pulses, 11);
        assert_eq!(a.bulk_pulses, 7);
        assert_eq!(a.verified_weights, 5);
        assert_eq!(a.total_weights, 11);
    }
}
