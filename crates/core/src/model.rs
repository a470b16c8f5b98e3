//! A trained network bound to the device programming model.

use std::sync::Arc;

use swim_cim::device::DeviceConfig;
use swim_cim::mapping::{ProgramSummary, WeightMapper};
use swim_cim::model::{default_device_model, DeviceModel};
use swim_data::Dataset;
use swim_nn::loss::Loss;
use swim_nn::{ActivationArena, Network, ParamKind};
use swim_quant::QuantParams;
use swim_tensor::Prng;

/// One device-mapped parameter's slot in the flat weight vector.
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: usize,
    len: usize,
    scale: f32,
}

/// A quantized, device-bound model: the unit the SWIM pipeline operates
/// on.
///
/// Construction quantizes every device-mapped weight tensor (per-tensor
/// max-abs scale, sign-magnitude codes at `weight_bits`) and *bakes the
/// quantized values back into the network*, so the held network is
/// exactly the model that will be programmed — its accuracy is the
/// paper's "accuracy without device variation" reference.
///
/// All programming operations work on the flat weight coordinate system
/// of [`Network::device_weights`].
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    network: Network,
    slots: Vec<Slot>,
    codes: Vec<i32>,
    clean_weights: Vec<f32>,
    mapper: WeightMapper,
}

impl QuantizedModel {
    /// Quantizes `network`'s device-mapped weights to `weight_bits` and
    /// binds them to `device`.
    ///
    /// # Panics
    ///
    /// Panics if the bit widths are inconsistent with the device's
    /// `K`-bit resolution (see [`swim_quant::DeviceSlicing::new`]).
    pub fn new(network: Network, weight_bits: u32, device: DeviceConfig) -> Self {
        Self::with_model(network, weight_bits, device, default_device_model())
    }

    /// Like [`QuantizedModel::new`], but programming through an explicit
    /// [`DeviceModel`] from the zoo instead of the default RRAM Gaussian
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if the bit widths are inconsistent with the device's
    /// `K`-bit resolution (see [`swim_quant::DeviceSlicing::new`]).
    pub fn with_model(
        mut network: Network,
        weight_bits: u32,
        device: DeviceConfig,
        model: Arc<dyn DeviceModel>,
    ) -> Self {
        let mapper = WeightMapper::with_model(weight_bits, device, model);
        let mut slots = Vec::new();
        let mut codes = Vec::new();
        let mut offset = 0usize;
        network.visit_params(&mut |p| {
            if p.kind == ParamKind::DeviceWeight {
                let params = QuantParams::from_tensor(&p.value, weight_bits);
                let scale = params.scale();
                for v in p.value.data_mut().iter_mut() {
                    let code = params.quantize(*v);
                    codes.push(code);
                    *v = params.dequantize(code);
                }
                slots.push(Slot { offset, len: p.value.len(), scale });
                offset += p.value.len();
            }
        });
        let clean_weights = network.device_weights();
        QuantizedModel { network, slots, codes, clean_weights, mapper }
    }

    /// Rebinds the model to another device configuration and device
    /// model, keeping the network, quantization codes, slots and clean
    /// weights as they are.
    ///
    /// Quantization depends only on the weights and `weight_bits`, so a
    /// rebound model programs exactly like a fresh
    /// [`QuantizedModel::with_model`] over the same trained network —
    /// one preparation serves every `(device model, sigma)` block.
    ///
    /// # Panics
    ///
    /// Panics if the weight bit width is inconsistent with `device`'s
    /// `K`-bit resolution (see [`swim_quant::DeviceSlicing::new`]).
    pub fn rebind(&mut self, device: DeviceConfig, model: Arc<dyn DeviceModel>) {
        let weight_bits = self.mapper.slicing().weight_bits();
        self.mapper = WeightMapper::with_model(weight_bits, device, model);
    }

    /// Number of device-mapped weights.
    pub fn weight_count(&self) -> usize {
        self.codes.len()
    }

    /// The device/bit configuration in use.
    pub fn mapper(&self) -> &WeightMapper {
        &self.mapper
    }

    /// The clean (quantized, noise-free) flat weights.
    pub fn clean_weights(&self) -> &[f32] {
        &self.clean_weights
    }

    /// The signed quantization codes, flat.
    pub fn codes(&self) -> &[i32] {
        &self.codes
    }

    /// Parameter-tensor spans over the flat weight order, as
    /// `(offset, len)` pairs — one per device-weight tensor, in mapping
    /// order. Layer-aware selectors consume this via
    /// [`crate::select::SelectionInputs`].
    pub fn param_spans(&self) -> Vec<(usize, usize)> {
        self.slots.iter().map(|s| (s.offset, s.len)).collect()
    }

    /// Mutable access to the clean network (weights are the quantized
    /// values).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Deep copy of the clean network — one per Monte Carlo worker
    /// thread.
    pub fn network_clone(&self) -> Network {
        self.network.clone()
    }

    /// Accuracy of the clean quantized model — the paper's "accuracy
    /// without the impact of device variation".
    pub fn clean_accuracy(&mut self, data: &Dataset, batch: usize) -> f64 {
        self.network.accuracy(data.images(), data.labels(), batch)
    }

    /// Per-weight std of a single uncorrected write, in *weight value*
    /// units (Eq. 16 scaled by each tensor's quantization scale).
    pub fn weight_value_sigmas(&self) -> Vec<f32> {
        let code_sigma = self.mapper.weight_code_sigma();
        let mut out = vec![0.0f32; self.codes.len()];
        for slot in &self.slots {
            let sigma = (code_sigma as f32) * slot.scale;
            for v in &mut out[slot.offset..slot.offset + slot.len] {
                *v = sigma;
            }
        }
        out
    }

    /// Converts noisy device codes back to weight values, into a reused
    /// buffer.
    fn codes_to_weights_into(&self, noisy_codes: &[f64], weights: &mut Vec<f32>) {
        weights.clear();
        weights.resize(noisy_codes.len(), 0.0);
        for slot in &self.slots {
            for i in slot.offset..slot.offset + slot.len {
                weights[i] = noisy_codes[i] as f32 * slot.scale;
            }
        }
    }

    /// Programs the model onto devices and returns a network instance
    /// carrying the noisy weights, plus the pulse accounting.
    ///
    /// `selection[i] == true` write-verifies flat weight `i`; `None`
    /// programs everything without verification (the paper's NWC = 0
    /// case).
    pub fn program_network(
        &self,
        selection: Option<&[bool]>,
        rng: &mut Prng,
    ) -> (Network, ProgramSummary) {
        let (weights, summary) = self.program_weights(selection, rng);
        let mut network = self.network.clone();
        network.set_device_weights(&weights);
        (network, summary)
    }

    /// Programs and returns just the flat noisy weights (cheaper when the
    /// caller manages its own network instance).
    pub fn program_weights(
        &self,
        selection: Option<&[bool]>,
        rng: &mut Prng,
    ) -> (Vec<f32>, ProgramSummary) {
        let mut codes = Vec::new();
        let mut weights = Vec::new();
        let summary = self.program_weights_into(selection, rng, &mut codes, &mut weights);
        (weights, summary)
    }

    /// [`QuantizedModel::program_weights`] into caller-owned buffers —
    /// the allocation-free unit of every Monte Carlo run.
    ///
    /// `codes` receives the noisy device codes, `weights` the converted
    /// weight values; both are cleared and refilled, reusing capacity.
    /// Draws from `rng` in exactly the same order as `program_weights`,
    /// so statistics are unchanged by buffer reuse.
    ///
    /// # Panics
    ///
    /// Panics if `selection` is provided with the wrong length.
    pub fn program_weights_into(
        &self,
        selection: Option<&[bool]>,
        rng: &mut Prng,
        codes: &mut Vec<f64>,
        weights: &mut Vec<f32>,
    ) -> ProgramSummary {
        if let Some(sel) = selection {
            assert_eq!(sel.len(), self.codes.len(), "selection mask length mismatch");
        }
        let summary = self.mapper.program_into(&self.codes, selection, rng, codes);
        self.codes_to_weights_into(codes, weights);
        summary
    }

    /// Programs a single flat weight, returning its noisy value (in
    /// weight units) and the pulses spent — the unit operation of
    /// Algorithm 1's incremental loop.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn program_single(&self, index: usize, verify: bool, rng: &mut Prng) -> (f32, u64) {
        let slot = self
            .slots
            .iter()
            .find(|s| index >= s.offset && index < s.offset + s.len)
            .unwrap_or_else(|| panic!("weight index {index} out of range"));
        let (code_value, pulses) = self.mapper.program_weight(self.codes[index], verify, rng);
        (code_value as f32 * slot.scale, pulses)
    }

    /// Maximum representable `|w|` per weight (device full-scale times
    /// the slot's quantization scale) — the saturation bound for on-device
    /// updates.
    pub fn weight_value_limits(&self) -> Vec<f32> {
        let max_code = ((1u32 << self.mapper.slicing().weight_bits()) - 1) as f32;
        let mut out = vec![0.0f32; self.codes.len()];
        for slot in &self.slots {
            let lim = max_code * slot.scale;
            for v in &mut out[slot.offset..slot.offset + slot.len] {
                *v = lim;
            }
        }
        out
    }

    /// Pulses to write-verify *all* weights: the NWC = 1.0 denominator.
    ///
    /// Uses a dedicated RNG stream so the estimate never perturbs
    /// experiment noise draws; for ≥10⁴ weights the run-to-run spread is
    /// well under 1%.
    pub fn write_verify_all_cost(&self, rng: &mut Prng) -> u64 {
        self.mapper.write_verify_all_cost(&self.codes, rng)
    }

    /// SWIM sensitivities: the diagonal second derivative of the loss for
    /// every device-mapped weight, accumulated over `data` in batches of
    /// `batch` (paper §3.3 — one forward + one backward pass per batch).
    pub fn sensitivities(&mut self, loss: &dyn Loss, data: &Dataset, batch: usize) -> Vec<f32> {
        assert!(batch > 0, "batch must be positive");
        self.network.zero_hess();
        let n = data.len();
        let mut start = 0usize;
        while start < n {
            let end = (start + batch).min(n);
            let images = data.images().slice_axis0(start, end);
            let targets = &data.labels()[start..end];
            self.network.accumulate_hessian(loss, &images, targets);
            start = end;
        }
        self.network.device_hessian()
    }

    /// Weight magnitudes `|w|` (the magnitude baseline's metric and
    /// SWIM's tie-breaker).
    pub fn magnitudes(&self) -> Vec<f32> {
        self.clean_weights.iter().map(|&w| w.abs()).collect()
    }

    /// Restores the clean quantized weights into the held network (undo a
    /// perturbation applied via [`QuantizedModel::network_mut`]).
    pub fn restore_clean(&mut self) {
        let weights = self.clean_weights.clone();
        self.network.set_device_weights(&weights);
    }
}

/// Per-worker evaluation state for Monte Carlo replication: one network
/// clone plus the programming buffers and the activation arena, reused
/// for every run the worker executes.
///
/// Before this existed, `nwc_sweep` cloned the full network and
/// allocated fresh code/weight/mask vectors for *every run* — with 3,000
/// runs that dominated the harness. A worker now pays the clone once;
/// each run overwrites every device weight via
/// [`swim_nn::Network::set_device_weights`], so no state leaks between
/// runs and statistics are bit-identical to the clone-per-run harness
/// for every thread count. With the [`ActivationArena`] added to the
/// scratch, a steady-state run performs **zero heap allocations**: the
/// network clone, mask/code/weight buffers, the selector's ranking
/// buffer, the GEMM/conv packing scratch, and every forward activation
/// are all reused (enforced by `tests/alloc_free.rs`).
#[derive(Debug, Clone)]
pub struct EvalScratch {
    /// The worker's network instance (device weights rewritten per run).
    pub network: Network,
    /// Selection-mask buffer (one entry per flat weight).
    pub mask: Vec<bool>,
    /// Noisy device-code buffer.
    pub codes: Vec<f64>,
    /// Programmed-weight buffer.
    pub weights: Vec<f32>,
    /// Ranking buffer for stochastic selectors (re-ranked per run).
    pub ranking: Vec<usize>,
    /// Recycled activation buffers for the forward passes.
    pub arena: ActivationArena,
}

impl EvalScratch {
    /// Clones the model's clean network and sizes the buffers.
    pub fn new(model: &QuantizedModel) -> Self {
        let n = model.weight_count();
        EvalScratch {
            network: model.network_clone(),
            mask: Vec::with_capacity(n),
            codes: Vec::with_capacity(n),
            weights: Vec::with_capacity(n),
            ranking: Vec::new(),
            arena: ActivationArena::new(),
        }
    }

    /// Programs the model with the scratch's mask (all weights when
    /// `use_mask` is false) and loads the noisy weights into the
    /// scratch network. Returns the pulse accounting.
    pub fn program_and_load(
        &mut self,
        model: &QuantizedModel,
        use_mask: bool,
        rng: &mut Prng,
    ) -> ProgramSummary {
        let selection = if use_mask { Some(&self.mask[..]) } else { None };
        let summary =
            model.program_weights_into(selection, rng, &mut self.codes, &mut self.weights);
        self.network.set_device_weights(&self.weights);
        summary
    }

    /// Scores the currently-loaded network on `eval`, drawing every
    /// activation from the scratch's arena (bit-identical to
    /// [`swim_nn::Network::accuracy`], allocation-free once warm).
    pub fn accuracy(&mut self, eval: &Dataset, batch: usize) -> f64 {
        self.network.accuracy_with(eval.images(), eval.labels(), batch, &mut self.arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_nn::layers::{Linear, Relu, Sequential};
    use swim_nn::loss::SoftmaxCrossEntropy;
    use swim_tensor::Tensor;

    fn tiny_model() -> QuantizedModel {
        let mut rng = Prng::seed_from_u64(1);
        let mut seq = Sequential::new();
        seq.push(Linear::new(4, 8, &mut rng));
        seq.push(Relu::new());
        seq.push(Linear::new(8, 3, &mut rng));
        let net = Network::new("tiny", seq);
        QuantizedModel::new(net, 4, DeviceConfig::rram())
    }

    /// Tiny rank-4-input model (Flatten first, as real models have) plus
    /// a matching dataset.
    fn tiny_flat_model_and_data() -> (QuantizedModel, Dataset) {
        let mut rng = Prng::seed_from_u64(2);
        let mut seq = Sequential::new();
        seq.push(swim_nn::layers::Flatten::new());
        seq.push(Linear::new(4, 8, &mut rng));
        seq.push(Relu::new());
        seq.push(Linear::new(8, 3, &mut rng));
        let net = Network::new("tiny4", seq);
        let model = QuantizedModel::new(net, 4, DeviceConfig::rram());
        let images = Tensor::randn(&[12, 1, 2, 2], &mut rng);
        let data = Dataset::new(images, (0..12).map(|i| i % 3).collect(), 3).unwrap();
        (model, data)
    }

    #[test]
    fn quantization_bakes_codes_into_network() {
        let mut model = tiny_model();
        let weights = model.network_mut().device_weights();
        // Every weight must be an exact multiple of its slot scale.
        for slot in model.slots.clone() {
            for (i, &w) in weights.iter().enumerate().skip(slot.offset).take(slot.len) {
                let k = w / slot.scale;
                assert!((k - k.round()).abs() < 1e-4, "w[{i}] not on grid");
            }
        }
        assert_eq!(model.weight_count(), 4 * 8 + 8 * 3);
    }

    #[test]
    fn program_unverified_perturbs_all() {
        let model = tiny_model();
        let mut rng = Prng::seed_from_u64(3);
        let (weights, summary) = model.program_weights(None, &mut rng);
        assert_eq!(summary.verified_weights, 0);
        assert_eq!(summary.total_weights, model.weight_count() as u64);
        let moved = weights
            .iter()
            .zip(model.clean_weights())
            .filter(|(a, b)| (*a - *b).abs() > 1e-9)
            .count();
        assert!(moved > model.weight_count() / 2);
    }

    #[test]
    fn verified_weights_are_near_clean() {
        let model = tiny_model();
        let mut rng = Prng::seed_from_u64(4);
        let mask = vec![true; model.weight_count()];
        let (weights, summary) = model.program_weights(Some(&mask), &mut rng);
        assert_eq!(summary.verified_weights, model.weight_count() as u64);
        for (i, (&w, &c)) in weights.iter().zip(model.clean_weights()).enumerate() {
            let slot = model.slots.iter().find(|s| i >= s.offset && i < s.offset + s.len).unwrap();
            let margin = model.mapper.config().level_margin() as f32 * slot.scale;
            assert!((w - c).abs() <= margin + 1e-6, "w[{i}] {w} vs {c}");
        }
    }

    #[test]
    fn selective_mask_splits_cost() {
        let model = tiny_model();
        let mut rng = Prng::seed_from_u64(5);
        let n = model.weight_count();
        let mask: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
        let (_, summary) = model.program_weights(Some(&mask), &mut rng);
        assert_eq!(summary.verified_weights as usize, n.div_ceil(4));
        assert!(summary.verify_pulses > 0);
        assert!(summary.bulk_pulses > 0);
    }

    /// Rebinding swaps only the mapper: programming a rebound model draws
    /// the same bits as a model built fresh for that device.
    #[test]
    fn rebind_programs_like_a_fresh_model() {
        let mut rng = Prng::seed_from_u64(1);
        let mut seq = Sequential::new();
        seq.push(Linear::new(4, 8, &mut rng));
        seq.push(Relu::new());
        seq.push(Linear::new(8, 3, &mut rng));
        let net = Network::new("tiny", seq);
        let device = DeviceConfig::rram().with_sigma(0.2);
        for name in swim_cim::model::device_model_keys() {
            let model = swim_cim::model::device_model_by_name(&name).expect("registered model");
            let fresh = QuantizedModel::with_model(net.clone(), 4, device, model.clone());
            let mut rebound = QuantizedModel::new(net.clone(), 4, DeviceConfig::rram());
            rebound.rebind(device, model);
            assert_eq!(rebound.codes(), fresh.codes());
            assert_eq!(rebound.clean_weights(), fresh.clean_weights());
            let n = fresh.weight_count();
            let mask: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            for selection in [None, Some(&mask[..])] {
                let mut outs = Vec::new();
                for m in [&fresh, &rebound] {
                    let (mut codes, mut weights) = (Vec::new(), Vec::new());
                    let mut rng = Prng::seed_from_u64(7);
                    let summary =
                        m.program_weights_into(selection, &mut rng, &mut codes, &mut weights);
                    let bits: Vec<u32> = weights.iter().map(|w| w.to_bits()).collect();
                    let code_bits: Vec<u64> = codes.iter().map(|c| c.to_bits()).collect();
                    outs.push((bits, code_bits, summary));
                }
                assert_eq!(outs[0], outs[1], "model {name}, mask {}", selection.is_some());
            }
        }
    }

    #[test]
    fn restore_clean_undoes_perturbation() {
        let mut model = tiny_model();
        let clean = model.clean_weights().to_vec();
        let noisy: Vec<f32> = clean.iter().map(|&w| w + 0.5).collect();
        model.network_mut().set_device_weights(&noisy);
        model.restore_clean();
        assert_eq!(model.network_mut().device_weights(), clean);
    }

    #[test]
    fn sigma_vector_positive_and_uniform_within_slot() {
        let model = tiny_model();
        let sigmas = model.weight_value_sigmas();
        assert_eq!(sigmas.len(), model.weight_count());
        assert!(sigmas.iter().all(|&s| s > 0.0));
        // Within one slot, all sigmas equal.
        let s0 = model.slots[0];
        let first = sigmas[s0.offset];
        assert!(sigmas[s0.offset..s0.offset + s0.len].iter().all(|&s| s == first));
    }

    #[test]
    fn write_verify_all_cost_near_ten_per_device() {
        let model = tiny_model();
        let mut rng = Prng::seed_from_u64(6);
        let cost = model.write_verify_all_cost(&mut rng) as f64;
        let per = cost / model.weight_count() as f64;
        assert!((6.0..16.0).contains(&per), "per-weight cost {per}");
    }

    #[test]
    fn sensitivities_nonnegative_and_sized() {
        let (mut model, data) = tiny_flat_model_and_data();
        let loss = SoftmaxCrossEntropy::new();
        let sens = model.sensitivities(&loss, &data, 6);
        assert_eq!(sens.len(), model.weight_count());
        assert!(sens.iter().all(|&h| h >= 0.0));
        assert!(sens.iter().any(|&h| h > 0.0));
        // Batched accumulation is deterministic.
        let again = model.sensitivities(&loss, &data, 6);
        assert_eq!(sens, again);
    }

    #[test]
    fn clean_accuracy_uses_quantized_weights() {
        let (mut model, data) = tiny_flat_model_and_data();
        let acc = model.clean_accuracy(&data, 6);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn magnitudes_match_clean_weights() {
        let model = tiny_model();
        let mags = model.magnitudes();
        assert_eq!(mags.len(), model.weight_count());
        for (&m, &w) in mags.iter().zip(model.clean_weights()) {
            assert_eq!(m, w.abs());
        }
    }
}
