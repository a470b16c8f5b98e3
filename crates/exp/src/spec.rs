//! The declarative experiment description: one validated struct holding
//! scenario, device, training budget, selection strategy, sweep grid,
//! and Monte Carlo budget.
//!
//! An [`ExperimentSpec`] is what the `swim` CLI runs, what preset
//! definitions produce, and what the JSON results document echoes. It
//! parses from the TOML subset (or JSON) of [`crate::value`], writes
//! back out losslessly, rejects unknown keys, and derives the per-stage
//! config views (`Alg1Config`, `DeviceConfig`, the shard's run range)
//! that the engine crates consume.

use crate::value::{parse_json, parse_loose, parse_toml, Reader, Value};
use swim_cim::device::{DeviceConfig, DeviceTech};
use swim_cim::model::{device_model_by_name, device_model_keys, DEFAULT_DEVICE_MODEL};
use swim_core::algorithm::Alg1Config;
use swim_core::montecarlo::PanicPolicy;
use swim_core::select::{selector_by_name, Selector};

/// A spec parsing/validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

impl From<String> for SpecError {
    fn from(msg: String) -> Self {
        SpecError(msg)
    }
}

fn err(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

/// Which paper artifact (presentation + computation shape) a spec
/// describes. `Sweep` is the generic accuracy-vs-NWC comparison; the
/// others add the framing of the corresponding paper artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentKind {
    /// Generic multi-method accuracy-vs-NWC sweep.
    Sweep,
    /// Table 1: per-sigma method tables plus the §4.3 speed-up summaries.
    Table1,
    /// Fig. 2 panel: single-device sweep with the paper's shape checks.
    Fig2,
    /// Fig. 1: single-weight perturbation correlation study.
    Fig1,
    /// §4.1 device-model calibration statistics.
    Calibration,
    /// Granularity / tie-break / calibration-set ablations.
    Ablation,
}

impl ExperimentKind {
    /// Every kind, with its stable spec key.
    pub fn all() -> [ExperimentKind; 6] {
        [
            ExperimentKind::Sweep,
            ExperimentKind::Table1,
            ExperimentKind::Fig2,
            ExperimentKind::Fig1,
            ExperimentKind::Calibration,
            ExperimentKind::Ablation,
        ]
    }

    /// Stable key used in spec files.
    pub fn key(&self) -> &'static str {
        match self {
            ExperimentKind::Sweep => "sweep",
            ExperimentKind::Table1 => "table1",
            ExperimentKind::Fig2 => "fig2",
            ExperimentKind::Fig1 => "fig1",
            ExperimentKind::Calibration => "calibration",
            ExperimentKind::Ablation => "ablation",
        }
    }

    /// Parses a kind key.
    pub fn parse(name: &str) -> Option<ExperimentKind> {
        ExperimentKind::all().into_iter().find(|k| k.key() == name)
    }
}

/// Which model/dataset pairing to prepare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// LeNet on the MNIST substitute (paper §4.3; 4-bit).
    LenetMnist,
    /// ConvNet on the CIFAR-10 substitute (paper §4.4; 6-bit).
    ConvnetCifar,
    /// ResNet-18 on the CIFAR-10 substitute (paper §4.4; 6-bit).
    Resnet18Cifar,
    /// ResNet-18 on the Tiny-ImageNet substitute (paper §4.5; 6-bit).
    Resnet18Tiny,
}

impl ScenarioKind {
    /// Every scenario, with its stable spec key.
    pub fn all() -> [ScenarioKind; 4] {
        [
            ScenarioKind::LenetMnist,
            ScenarioKind::ConvnetCifar,
            ScenarioKind::Resnet18Cifar,
            ScenarioKind::Resnet18Tiny,
        ]
    }

    /// Stable key used in spec files.
    pub fn key(&self) -> &'static str {
        match self {
            ScenarioKind::LenetMnist => "lenet-mnist",
            ScenarioKind::ConvnetCifar => "convnet-cifar",
            ScenarioKind::Resnet18Cifar => "resnet18-cifar",
            ScenarioKind::Resnet18Tiny => "resnet18-tiny",
        }
    }

    /// Parses a scenario key.
    pub fn parse(name: &str) -> Option<ScenarioKind> {
        ScenarioKind::all().into_iter().find(|s| s.key() == name)
    }
}

/// `[scenario]`: the model/dataset pairing.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Which architecture/dataset pair.
    pub model: ScenarioKind,
    /// Channel-width multiplier (1.0 = paper scale).
    pub width: f32,
    /// Class count (only meaningful for the Tiny-ImageNet scenario).
    pub classes: usize,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec { model: ScenarioKind::LenetMnist, width: 1.0, classes: 10 }
    }
}

/// `[device]`: technology preset, variation grid, and overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Technology preset supplying the non-sigma defaults.
    pub tech: DeviceTech,
    /// Device models to run, by registry key (`swim list` prints them;
    /// see [`swim_cim::model::device_model_registry`]). Grid kinds
    /// (`sweep`, `table1`) cross every model with every sigma; the
    /// single-run kinds require exactly one entry. Must be non-empty.
    pub models: Vec<String>,
    /// Variation levels to run (Table 1 sweeps several; most artifacts
    /// use one). Must be non-empty.
    pub sigmas: Vec<f64>,
    /// Optional override of the preset's verify margin.
    pub verify_margin: Option<f64>,
    /// Optional override of the preset's pulse step.
    pub pulse_step: Option<f64>,
    /// Optional override of the preset's verify-iteration bound.
    pub max_verify_iters: Option<u32>,
    /// Optional override of the preset's device bit width.
    pub device_bits: Option<u32>,
}

impl Default for DeviceSpec {
    fn default() -> Self {
        DeviceSpec {
            tech: DeviceTech::Rram,
            models: vec![DEFAULT_DEVICE_MODEL.to_string()],
            sigmas: vec![0.1],
            verify_margin: None,
            pulse_step: None,
            max_verify_iters: None,
            device_bits: None,
        }
    }
}

impl DeviceSpec {
    /// Resolves the spec at one variation level into the engine's
    /// [`DeviceConfig`].
    pub fn config_at(&self, sigma: f64) -> DeviceConfig {
        let mut cfg = DeviceConfig::for_tech(self.tech).with_sigma(sigma);
        if let Some(m) = self.verify_margin {
            cfg.verify_margin = m;
        }
        if let Some(p) = self.pulse_step {
            cfg.pulse_step = p;
        }
        if let Some(i) = self.max_verify_iters {
            cfg.max_verify_iters = i;
        }
        if let Some(b) = self.device_bits {
            cfg = cfg.with_device_bits(b);
        }
        cfg
    }

    /// One [`DeviceConfig`] per entry of the sigma grid.
    pub fn configs(&self) -> Vec<DeviceConfig> {
        self.sigmas.iter().map(|&s| self.config_at(s)).collect()
    }

    /// Builds the spec describing an existing [`DeviceConfig`] — the
    /// inverse of [`DeviceSpec::config_at`], so device settings round-trip
    /// through spec files.
    pub fn from_config(cfg: &DeviceConfig) -> DeviceSpec {
        // Prefer a bare preset reference when one matches exactly.
        for tech in DeviceTech::all() {
            if DeviceConfig::for_tech(tech).with_sigma(cfg.sigma) == *cfg {
                return DeviceSpec { tech, sigmas: vec![cfg.sigma], ..Default::default() };
            }
        }
        DeviceSpec {
            tech: DeviceTech::Rram,
            sigmas: vec![cfg.sigma],
            verify_margin: Some(cfg.verify_margin),
            pulse_step: Some(cfg.pulse_step),
            max_verify_iters: Some(cfg.max_verify_iters),
            device_bits: Some(cfg.device_bits),
            ..Default::default()
        }
    }
}

/// `[training]`: the budget used to train the scenario's network.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSpec {
    /// Total samples generated (split 80/20 train/test).
    pub samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch: usize,
}

impl Default for TrainingSpec {
    fn default() -> Self {
        TrainingSpec { samples: 2500, epochs: 6, lr: 0.05, batch: 32 }
    }
}

/// `[selection]`: which selectors compete, and whether the in-situ
/// baseline rides along.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionSpec {
    /// Selector registry keys, in table row order.
    pub methods: Vec<String>,
    /// Whether to run the in-situ training baseline.
    pub insitu: bool,
}

impl Default for SelectionSpec {
    fn default() -> Self {
        SelectionSpec {
            methods: vec!["swim".into(), "magnitude".into(), "random".into()],
            insitu: true,
        }
    }
}

impl SelectionSpec {
    /// Resolves the method names into selector instances.
    ///
    /// # Panics
    ///
    /// Panics if a name is unknown — call after validation.
    pub fn selectors(&self) -> Vec<Box<dyn Selector>> {
        self.methods
            .iter()
            .map(|name| {
                selector_by_name(name).unwrap_or_else(|| panic!("unknown selector `{name}`"))
            })
            .collect()
    }
}

/// `[sweep]`: the write-verified-fraction grid (≈ NWC grid).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Selection fractions to evaluate.
    pub fractions: Vec<f64>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec { fractions: vec![0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] }
    }
}

/// `[montecarlo]`: replication budget.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloSpec {
    /// Monte Carlo runs per method/point (paper: 3000).
    pub runs: usize,
    /// Worker threads; 0 = all cores.
    pub threads: usize,
    /// Evaluation batch size.
    pub eval_batch: usize,
    /// What happens when one run panics: `"fail-fast"` aborts the sweep
    /// with the run index (the default), `"isolate"` records the fault
    /// in the results document and keeps sweeping.
    pub on_panic: PanicPolicy,
}

impl Default for MonteCarloSpec {
    fn default() -> Self {
        MonteCarloSpec { runs: 25, threads: 0, eval_batch: 256, on_panic: PanicPolicy::FailFast }
    }
}

/// `[run]`: execution partitioning. Unlike every other section this is
/// not part of the experiment's mathematical identity — two shards of
/// one experiment differ only here, and `swim merge` strips it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunSpec {
    /// Deterministic seed-range shard `(index, count)`, written as
    /// `"i/n"` in spec files. Shard `i` of `n` covers the global Monte
    /// Carlo runs `[i·runs/n, (i+1)·runs/n)`; because run `r` always
    /// draws from the forked stream `r`, the shards of a complete
    /// partition reproduce exactly the runs of the unsharded sweep.
    /// `None` runs everything.
    pub shard: Option<(usize, usize)>,
    /// SIMD backend to pin the run to (`scalar`, `avx2`, `avx512`,
    /// `neon`). `None` uses the ambient dispatch (the `SWIM_SIMD`
    /// environment override, else runtime feature detection). The
    /// backend actually used is recorded in the results document's
    /// top-level `simd` field either way.
    pub simd: Option<String>,
}

/// `[tune]`: what is left of the former autotuner's section. A spec
/// pins no kernel knob: GEMM threading is decided where work fans out
/// (`swim_tensor::par`) and the block width by a built-in heuristic.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TuneSpec {
    /// Tuning mode; `"off"` is the only legal value (there is no
    /// autotuner), kept so older specs still parse.
    pub mode: Option<String>,
}

impl TuneSpec {
    /// Whether every key is unset (the section is then not echoed).
    pub fn is_default(&self) -> bool {
        *self == TuneSpec::default()
    }
}

/// Parses the `"i/n"` shard form.
fn parse_shard(text: &str) -> Result<(usize, usize), SpecError> {
    let invalid = || err(format!("`run.shard` must be \"i/n\" with 0 <= i < n (got `{text}`)"));
    let (i, n) = text.split_once('/').ok_or_else(invalid)?;
    let index: usize = i.trim().parse().map_err(|_| invalid())?;
    let count: usize = n.trim().parse().map_err(|_| invalid())?;
    if count == 0 || index >= count {
        return Err(invalid());
    }
    Ok((index, count))
}

/// `[insitu]`: on-device training baseline hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct InsituSpec {
    /// SGD learning rate for the on-device updates.
    pub lr: f32,
    /// Mini-batch size per iteration.
    pub batch: usize,
}

impl Default for InsituSpec {
    fn default() -> Self {
        InsituSpec { lr: 0.005, batch: 32 }
    }
}

/// `[correlation]`: Fig. 1 study shape.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelationSpec {
    /// Weights to probe.
    pub probes: usize,
    /// Monte Carlo runs per probed weight.
    pub runs: usize,
}

impl Default for CorrelationSpec {
    fn default() -> Self {
        CorrelationSpec { probes: 150, runs: 30 }
    }
}

/// `[calibration]`: §4.1 device statistics sample size.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSpec {
    /// Devices sampled per configuration.
    pub devices: usize,
}

impl Default for CalibrationSpec {
    fn default() -> Self {
        CalibrationSpec { devices: 100_000 }
    }
}

/// `[ablation]`: grids for the three ablation studies.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationSpec {
    /// Algorithm 1 programming granularities `p`.
    pub granularities: Vec<f64>,
    /// Algorithm 1 accuracy-drop budget `δA` (fraction).
    pub max_drop: f64,
    /// Fractions for the tie-break comparison sweep.
    pub tiebreak_fractions: Vec<f64>,
    /// Calibration-set size fractions for the sensitivity-data ablation.
    pub calibration_fractions: Vec<f64>,
}

impl Default for AblationSpec {
    fn default() -> Self {
        AblationSpec {
            granularities: vec![0.01, 0.05, 0.10, 0.25],
            max_drop: 0.005,
            tiebreak_fractions: vec![0.05, 0.1, 0.3],
            calibration_fractions: vec![0.02, 0.1, 0.5, 1.0],
        }
    }
}

/// The complete declarative experiment description.
///
/// Partial documents are completed from [`Default`]: a spec file only
/// needs the keys it wants to change.
///
/// # Example
///
/// ```
/// use swim_exp::spec::ExperimentSpec;
///
/// let spec = ExperimentSpec::parse_str(
///     "name = \"mini\"\n[montecarlo]\nruns = 3\n",
/// ).unwrap();
/// assert_eq!(spec.name, "mini");
/// assert_eq!(spec.montecarlo.runs, 3);
/// assert_eq!(spec.training.epochs, 6); // defaulted
/// let text = spec.to_toml();
/// assert_eq!(ExperimentSpec::parse_str(&text).unwrap(), spec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Display name (used in output headers and the results document).
    pub name: String,
    /// Artifact kind (presentation + computation shape).
    pub kind: ExperimentKind,
    /// Paper note printed alongside Fig. 2-style output.
    pub note: String,
    /// Base RNG seed for data, training, and Monte Carlo.
    pub seed: u64,
    /// Model/dataset pairing.
    pub scenario: ScenarioSpec,
    /// Device model and variation grid.
    pub device: DeviceSpec,
    /// Training budget.
    pub training: TrainingSpec,
    /// Competing selectors and baselines.
    pub selection: SelectionSpec,
    /// NWC grid.
    pub sweep: SweepSpec,
    /// Monte Carlo budget.
    pub montecarlo: MonteCarloSpec,
    /// In-situ baseline hyper-parameters.
    pub insitu: InsituSpec,
    /// Fig. 1 study shape.
    pub correlation: CorrelationSpec,
    /// Calibration sample size.
    pub calibration: CalibrationSpec,
    /// Ablation grids.
    pub ablation: AblationSpec,
    /// Execution partitioning (seed-range sharding).
    pub run: RunSpec,
    /// Kernel-tuning policy (timing-only; see [`TuneSpec`]).
    pub tune: TuneSpec,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            name: "custom".into(),
            kind: ExperimentKind::Sweep,
            note: String::new(),
            seed: 1,
            scenario: ScenarioSpec::default(),
            device: DeviceSpec::default(),
            training: TrainingSpec::default(),
            selection: SelectionSpec::default(),
            sweep: SweepSpec::default(),
            montecarlo: MonteCarloSpec::default(),
            insitu: InsituSpec::default(),
            correlation: CorrelationSpec::default(),
            calibration: CalibrationSpec::default(),
            ablation: AblationSpec::default(),
            run: RunSpec::default(),
            tune: TuneSpec::default(),
        }
    }
}

// ------------------------------------------------------------- reading

impl ExperimentSpec {
    /// Parses a spec document, auto-detecting JSON (`{`-led) vs the
    /// TOML subset, completing missing keys from [`Default`], rejecting
    /// unknown keys, and validating ranges.
    pub fn parse_str(text: &str) -> Result<Self, SpecError> {
        let root = if text.trim_start().starts_with('{') {
            parse_json(text).map_err(err)?
        } else {
            parse_toml(text).map_err(err)?
        };
        Self::from_value(&root)
    }

    /// Builds a spec from a parsed [`Value`] tree (the `spec` object of
    /// a results document, for instance).
    pub fn from_value(root: &Value) -> Result<Self, SpecError> {
        let defaults = ExperimentSpec::default();
        let mut r = Reader::new("", root)?;

        let name = r.string_or("name", &defaults.name)?;
        let kind_key = r.string_or("kind", defaults.kind.key())?;
        let kind = ExperimentKind::parse(&kind_key)
            .ok_or_else(|| err(format!("unknown kind `{kind_key}`")))?;
        let note = r.string_or("note", &defaults.note)?;
        let seed = r.u64_or("seed", defaults.seed)?;

        let scenario = match r.take("scenario") {
            None => defaults.scenario.clone(),
            Some(v) => {
                let d = &defaults.scenario;
                let mut s = Reader::new("scenario", v)?;
                let model_key = s.string_or("model", d.model.key())?;
                let model = ScenarioKind::parse(&model_key)
                    .ok_or_else(|| err(format!("unknown scenario model `{model_key}`")))?;
                let out = ScenarioSpec {
                    model,
                    width: s.f32_or("width", d.width)?,
                    classes: s.usize_or("classes", d.classes)?,
                };
                s.finish()?;
                out
            }
        };

        let device = match r.take("device") {
            None => defaults.device.clone(),
            Some(v) => {
                let d = &defaults.device;
                let mut s = Reader::new("device", v)?;
                let tech_key = s.string_or("tech", d.tech.key())?;
                let tech = DeviceTech::parse(&tech_key)
                    .ok_or_else(|| err(format!("unknown device tech `{tech_key}`")))?;
                // `model` accepts a single name or a grid of names.
                let models = match s.take("model") {
                    None => d.models.clone(),
                    Some(Value::Str(m)) => vec![m.clone()],
                    Some(Value::Array(items)) => {
                        let mut out = Vec::new();
                        for (i, item) in items.iter().enumerate() {
                            match item {
                                Value::Str(m) => out.push(m.clone()),
                                _ => {
                                    return Err(err(format!(
                                        "`device.model[{i}]` must be a string"
                                    )))
                                }
                            }
                        }
                        out
                    }
                    Some(_) => {
                        return Err(err("`device.model` must be a string or array of strings"))
                    }
                };
                let default_sigmas = [DeviceConfig::for_tech(tech).sigma];
                let out = DeviceSpec {
                    tech,
                    models,
                    sigmas: s.f64_list_or("sigmas", &default_sigmas)?,
                    verify_margin: s.f64_opt("verify_margin")?,
                    pulse_step: s.f64_opt("pulse_step")?,
                    max_verify_iters: s.u32_opt("max_verify_iters")?,
                    device_bits: s.u32_opt("device_bits")?,
                };
                s.finish()?;
                out
            }
        };

        let training = match r.take("training") {
            None => defaults.training.clone(),
            Some(v) => {
                let d = &defaults.training;
                let mut s = Reader::new("training", v)?;
                let out = TrainingSpec {
                    samples: s.usize_or("samples", d.samples)?,
                    epochs: s.usize_or("epochs", d.epochs)?,
                    lr: s.f32_or("lr", d.lr)?,
                    batch: s.usize_or("batch", d.batch)?,
                };
                s.finish()?;
                out
            }
        };

        let selection = match r.take("selection") {
            None => defaults.selection.clone(),
            Some(v) => {
                let d = &defaults.selection;
                let mut s = Reader::new("selection", v)?;
                let out = SelectionSpec {
                    methods: s.string_list_or("methods", &d.methods)?,
                    insitu: s.bool_or("insitu", d.insitu)?,
                };
                s.finish()?;
                out
            }
        };

        let sweep = match r.take("sweep") {
            None => defaults.sweep.clone(),
            Some(v) => {
                let d = &defaults.sweep;
                let mut s = Reader::new("sweep", v)?;
                let out = SweepSpec { fractions: s.f64_list_or("fractions", &d.fractions)? };
                s.finish()?;
                out
            }
        };

        let montecarlo = match r.take("montecarlo") {
            None => defaults.montecarlo.clone(),
            Some(v) => {
                let d = &defaults.montecarlo;
                let mut s = Reader::new("montecarlo", v)?;
                let on_panic_key = s.string_or("on_panic", d.on_panic.key())?;
                let on_panic = PanicPolicy::parse(&on_panic_key).ok_or_else(|| {
                    err(format!(
                        "`montecarlo.on_panic` must be \"fail-fast\" or \"isolate\" \
                         (got `{on_panic_key}`)"
                    ))
                })?;
                let out = MonteCarloSpec {
                    runs: s.usize_or("runs", d.runs)?,
                    threads: s.usize_or("threads", d.threads)?,
                    eval_batch: s.usize_or("eval_batch", d.eval_batch)?,
                    on_panic,
                };
                s.finish()?;
                out
            }
        };

        let run = match r.take("run") {
            None => defaults.run,
            Some(v) => {
                let mut s = Reader::new("run", v)?;
                let shard = match s.take("shard") {
                    None => None,
                    Some(Value::Str(text)) => Some(parse_shard(text)?),
                    Some(_) => {
                        return Err(err("`run.shard` must be a string like \"0/4\""));
                    }
                };
                let simd = match s.take("simd") {
                    None => None,
                    Some(Value::Str(text)) => Some(text.clone()),
                    Some(_) => {
                        return Err(err("`run.simd` must be a string like \"scalar\""));
                    }
                };
                s.finish()?;
                RunSpec { shard, simd }
            }
        };

        let tune = match r.take("tune") {
            None => defaults.tune.clone(),
            Some(v) => {
                let mut s = Reader::new("tune", v)?;
                let mode = match s.take("mode") {
                    None => None,
                    Some(Value::Str(text)) => Some(text.clone()),
                    Some(_) => {
                        return Err(err("`tune.mode` must be the string \"off\""));
                    }
                };
                s.finish()?;
                TuneSpec { mode }
            }
        };

        let insitu = match r.take("insitu") {
            None => defaults.insitu.clone(),
            Some(v) => {
                let d = &defaults.insitu;
                let mut s = Reader::new("insitu", v)?;
                let out =
                    InsituSpec { lr: s.f32_or("lr", d.lr)?, batch: s.usize_or("batch", d.batch)? };
                s.finish()?;
                out
            }
        };

        let correlation = match r.take("correlation") {
            None => defaults.correlation.clone(),
            Some(v) => {
                let d = &defaults.correlation;
                let mut s = Reader::new("correlation", v)?;
                let out = CorrelationSpec {
                    probes: s.usize_or("probes", d.probes)?,
                    runs: s.usize_or("runs", d.runs)?,
                };
                s.finish()?;
                out
            }
        };

        let calibration = match r.take("calibration") {
            None => defaults.calibration.clone(),
            Some(v) => {
                let d = &defaults.calibration;
                let mut s = Reader::new("calibration", v)?;
                let out = CalibrationSpec { devices: s.usize_or("devices", d.devices)? };
                s.finish()?;
                out
            }
        };

        let ablation = match r.take("ablation") {
            None => defaults.ablation.clone(),
            Some(v) => {
                let d = &defaults.ablation;
                let mut s = Reader::new("ablation", v)?;
                let out = AblationSpec {
                    granularities: s.f64_list_or("granularities", &d.granularities)?,
                    max_drop: s.f64_or("max_drop", d.max_drop)?,
                    tiebreak_fractions: s
                        .f64_list_or("tiebreak_fractions", &d.tiebreak_fractions)?,
                    calibration_fractions: s
                        .f64_list_or("calibration_fractions", &d.calibration_fractions)?,
                };
                s.finish()?;
                out
            }
        };

        r.finish()?;

        let spec = ExperimentSpec {
            name,
            kind,
            note,
            seed,
            scenario,
            device,
            training,
            selection,
            sweep,
            montecarlo,
            insitu,
            correlation,
            calibration,
            ablation,
            run,
            tune,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks every field's documented range; returns the first
    /// violation.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(err("`name` must not be empty"));
        }
        if !(0.0..=16.0).contains(&self.scenario.width) || self.scenario.width <= 0.0 {
            return Err(err("`scenario.width` must be in (0, 16]"));
        }
        if self.scenario.classes == 0 {
            return Err(err("`scenario.classes` must be positive"));
        }
        if self.device.sigmas.is_empty() {
            return Err(err("`device.sigmas` must not be empty"));
        }
        if self.device.models.is_empty() {
            return Err(err("`device.model` must not be empty"));
        }
        for name in &self.device.models {
            if device_model_by_name(name).is_none() {
                return Err(err(format!(
                    "`device.model`: unknown device model `{name}` (valid: {})",
                    device_model_keys().join(", ")
                )));
            }
        }
        // Only the grid kinds fan out over a device-model grid; the
        // single-run artifacts must not echo models they did not run.
        if !matches!(self.kind, ExperimentKind::Sweep | ExperimentKind::Table1)
            && self.device.models.len() != 1
        {
            return Err(err(format!(
                "kind `{}` runs a single device model; `device.model` has {} entries \
                 (use kind = \"sweep\" or \"table1\" for a model grid)",
                self.kind.key(),
                self.device.models.len()
            )));
        }
        // The calibration kind measures the reference write-verify loop
        // directly; its spec echo must not claim another device model.
        if self.kind == ExperimentKind::Calibration
            && self.device.models != [DEFAULT_DEVICE_MODEL.to_string()]
        {
            return Err(err(format!(
                "kind `calibration` measures the reference model; `device.model` must be \
                 `{DEFAULT_DEVICE_MODEL}`"
            )));
        }
        // These artifacts run exactly one variation level; a silently
        // ignored grid would make the results document's spec echo lie
        // about what ran.
        if matches!(
            self.kind,
            ExperimentKind::Fig2 | ExperimentKind::Fig1 | ExperimentKind::Ablation
        ) && self.device.sigmas.len() != 1
        {
            return Err(err(format!(
                "kind `{}` runs a single variation level; `device.sigmas` has {} entries \
                 (use kind = \"sweep\" or \"table1\" for a sigma grid)",
                self.kind.key(),
                self.device.sigmas.len()
            )));
        }
        for &s in &self.device.sigmas {
            if !s.is_finite() || s < 0.0 {
                return Err(err(format!("`device.sigmas` entry {s} must be non-negative")));
            }
        }
        // Field overrides go through DeviceConfig::validate.
        for cfg in self.device.configs() {
            cfg.validate();
        }
        if self.training.samples < 10 {
            return Err(err("`training.samples` must be at least 10"));
        }
        if self.training.epochs == 0 || self.training.batch == 0 {
            return Err(err("`training.epochs` and `training.batch` must be positive"));
        }
        if !(self.training.lr > 0.0 && self.training.lr.is_finite()) {
            return Err(err("`training.lr` must be positive"));
        }
        if self.selection.methods.is_empty() {
            return Err(err("`selection.methods` must not be empty"));
        }
        for name in &self.selection.methods {
            if selector_by_name(name).is_none() {
                return Err(err(format!(
                    "`selection.methods`: unknown selector `{name}` (see `swim list`)"
                )));
            }
        }
        if self.sweep.fractions.is_empty() {
            return Err(err("`sweep.fractions` must not be empty"));
        }
        for &f in &self.sweep.fractions {
            if !(0.0..=1.0).contains(&f) {
                return Err(err(format!("`sweep.fractions` entry {f} must be in [0, 1]")));
            }
        }
        if self.montecarlo.runs == 0 {
            return Err(err("`montecarlo.runs` must be positive"));
        }
        if self.montecarlo.eval_batch == 0 {
            return Err(err("`montecarlo.eval_batch` must be positive"));
        }
        if !(self.insitu.lr > 0.0 && self.insitu.lr.is_finite()) || self.insitu.batch == 0 {
            return Err(err("`insitu.lr` and `insitu.batch` must be positive"));
        }
        if self.correlation.probes == 0 || self.correlation.runs == 0 {
            return Err(err("`correlation.probes` and `correlation.runs` must be positive"));
        }
        if self.calibration.devices == 0 {
            return Err(err("`calibration.devices` must be positive"));
        }
        if let Some((index, count)) = self.run.shard {
            // parse_shard guarantees index < count for parsed specs;
            // re-check for programmatic construction.
            if count == 0 || index >= count {
                return Err(err(format!(
                    "`run.shard` index {index} out of range for {count} shards"
                )));
            }
            if !matches!(
                self.kind,
                ExperimentKind::Sweep | ExperimentKind::Table1 | ExperimentKind::Fig2
            ) {
                return Err(err(format!(
                    "`run.shard` applies only to the Monte Carlo sweep kinds \
                     (sweep, table1, fig2), not `{}`",
                    self.kind.key()
                )));
            }
            if count > self.montecarlo.runs {
                return Err(err(format!(
                    "`run.shard`: {count} shards over {} Monte Carlo runs would leave \
                     empty shards",
                    self.montecarlo.runs
                )));
            }
        }
        if let Some(simd) = &self.run.simd {
            if swim_tensor::simd::Backend::parse(simd).is_none() {
                return Err(err(format!(
                    "`run.simd` must be one of scalar, avx2, avx512, neon (got `{simd}`)"
                )));
            }
        }
        if let Some(mode) = self.tune.mode.as_deref().filter(|&m| m != "off") {
            return Err(err(format!(
                "`tune.mode` must be \"off\" (got `{mode}`): there is no autotuner; GEMM \
                 threading and block width are chosen by the kernels"
            )));
        }
        for &p in &self.ablation.granularities {
            if !(p > 0.0 && p <= 1.0) {
                return Err(err(format!("`ablation.granularities` entry {p} must be in (0, 1]")));
            }
        }
        if self.ablation.max_drop < 0.0 {
            return Err(err("`ablation.max_drop` must be non-negative"));
        }
        for &f in
            self.ablation.tiebreak_fractions.iter().chain(&self.ablation.calibration_fractions)
        {
            if !(0.0..=1.0).contains(&f) {
                return Err(err(format!("ablation fraction {f} must be in [0, 1]")));
            }
        }
        Ok(())
    }

    // ------------------------------------------------------- views

    /// Worker-thread count with `0` resolved to all cores.
    pub fn threads(&self) -> usize {
        if self.montecarlo.threads == 0 {
            swim_tensor::tune::detected_parallelism()
        } else {
            self.montecarlo.threads
        }
    }

    /// The contiguous global Monte Carlo run range this spec covers:
    /// `[i·runs/n, (i+1)·runs/n)` for shard `i` of `n`, the full
    /// `[0, runs)` when unsharded. The ranges of a complete shard
    /// partition tile `[0, runs)` exactly.
    pub fn shard_run_range(&self) -> (usize, usize) {
        let runs = self.montecarlo.runs;
        match self.run.shard {
            None => (0, runs),
            Some((i, n)) => (i * runs / n, (i + 1) * runs / n),
        }
    }

    /// The [`Alg1Config`] view of this spec at one programming
    /// granularity.
    pub fn alg1_config_at(&self, granularity: f64) -> Alg1Config {
        Alg1Config {
            granularity,
            max_drop: self.ablation.max_drop,
            batch: self.montecarlo.eval_batch,
        }
    }

    // ----------------------------------------------------- writing

    /// Renders the complete spec (every field explicit) as a [`Value`]
    /// tree.
    ///
    /// `f32` fields are written with their shortest `f32` decimal form
    /// (not the widened `f64` bits), so `lr = 0.05` stays `0.05` in the
    /// written document.
    pub fn to_value(&self) -> Value {
        let mut root = Value::table();
        root.set("name", Value::Str(self.name.clone()));
        root.set("kind", Value::Str(self.kind.key().into()));
        if !self.note.is_empty() {
            root.set("note", Value::Str(self.note.clone()));
        }
        root.set("seed", Value::Int(self.seed as i64));

        let mut scenario = Value::table();
        scenario.set("model", Value::Str(self.scenario.model.key().into()));
        scenario.set("width", f32_value(self.scenario.width));
        scenario.set("classes", Value::Int(self.scenario.classes as i64));
        root.set("scenario", scenario);

        let mut device = Value::table();
        device.set("tech", Value::Str(self.device.tech.key().into()));
        device.set(
            "model",
            Value::Array(self.device.models.iter().map(|m| Value::Str(m.clone())).collect()),
        );
        device.set(
            "sigmas",
            Value::Array(self.device.sigmas.iter().map(|&s| Value::Float(s)).collect()),
        );
        if let Some(m) = self.device.verify_margin {
            device.set("verify_margin", Value::Float(m));
        }
        if let Some(p) = self.device.pulse_step {
            device.set("pulse_step", Value::Float(p));
        }
        if let Some(i) = self.device.max_verify_iters {
            device.set("max_verify_iters", Value::Int(i as i64));
        }
        if let Some(b) = self.device.device_bits {
            device.set("device_bits", Value::Int(b as i64));
        }
        root.set("device", device);

        let mut training = Value::table();
        training.set("samples", Value::Int(self.training.samples as i64));
        training.set("epochs", Value::Int(self.training.epochs as i64));
        training.set("lr", f32_value(self.training.lr));
        training.set("batch", Value::Int(self.training.batch as i64));
        root.set("training", training);

        let mut selection = Value::table();
        selection.set(
            "methods",
            Value::Array(self.selection.methods.iter().map(|m| Value::Str(m.clone())).collect()),
        );
        selection.set("insitu", Value::Bool(self.selection.insitu));
        root.set("selection", selection);

        let mut sweep = Value::table();
        sweep.set(
            "fractions",
            Value::Array(self.sweep.fractions.iter().map(|&f| Value::Float(f)).collect()),
        );
        root.set("sweep", sweep);

        let mut montecarlo = Value::table();
        montecarlo.set("runs", Value::Int(self.montecarlo.runs as i64));
        montecarlo.set("threads", Value::Int(self.montecarlo.threads as i64));
        montecarlo.set("eval_batch", Value::Int(self.montecarlo.eval_batch as i64));
        montecarlo.set("on_panic", Value::Str(self.montecarlo.on_panic.key().into()));
        root.set("montecarlo", montecarlo);

        // `[run]` describes how this execution is partitioned, not what
        // the experiment is; it is only written when one of its keys is
        // set, so default spec echoes stay byte-identical across merges.
        if self.run.shard.is_some() || self.run.simd.is_some() {
            let mut run = Value::table();
            if let Some((i, n)) = self.run.shard {
                run.set("shard", Value::Str(format!("{i}/{n}")));
            }
            if let Some(simd) = &self.run.simd {
                run.set("simd", Value::Str(simd.clone()));
            }
            root.set("run", run);
        }

        // `[tune]` is likewise only written when a key is set, so
        // default spec echoes (and their fingerprints) stay
        // byte-identical to pre-tuning documents.
        if !self.tune.is_default() {
            let mut tune = Value::table();
            if let Some(mode) = &self.tune.mode {
                tune.set("mode", Value::Str(mode.clone()));
            }
            root.set("tune", tune);
        }

        let mut insitu = Value::table();
        insitu.set("lr", f32_value(self.insitu.lr));
        insitu.set("batch", Value::Int(self.insitu.batch as i64));
        root.set("insitu", insitu);

        let mut correlation = Value::table();
        correlation.set("probes", Value::Int(self.correlation.probes as i64));
        correlation.set("runs", Value::Int(self.correlation.runs as i64));
        root.set("correlation", correlation);

        let mut calibration = Value::table();
        calibration.set("devices", Value::Int(self.calibration.devices as i64));
        root.set("calibration", calibration);

        let mut ablation = Value::table();
        ablation.set(
            "granularities",
            Value::Array(self.ablation.granularities.iter().map(|&p| Value::Float(p)).collect()),
        );
        ablation.set("max_drop", Value::Float(self.ablation.max_drop));
        ablation.set(
            "tiebreak_fractions",
            Value::Array(
                self.ablation.tiebreak_fractions.iter().map(|&f| Value::Float(f)).collect(),
            ),
        );
        ablation.set(
            "calibration_fractions",
            Value::Array(
                self.ablation.calibration_fractions.iter().map(|&f| Value::Float(f)).collect(),
            ),
        );
        root.set("ablation", ablation);
        root
    }

    /// Renders the spec as a TOML document.
    pub fn to_toml(&self) -> String {
        self.to_value().to_toml()
    }

    /// Renders the spec as a JSON document.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    // ------------------------------------------------- fingerprint

    /// The canonical *preparation prefix* of this spec: exactly the
    /// inputs that determine the trained, quantized model and its
    /// sensitivities — seed, SIMD backend, scenario and training budget.
    /// The device section is excluded: training and quantization never
    /// read it, and a prepared model is rebound to each `(device model,
    /// sigma)` block (`QuantizedModel::rebind`). The byte-neutral
    /// `[tune]` mode and everything downstream (selection methods, sweep
    /// grid, Monte Carlo budget, sharding) are excluded too: two specs
    /// that differ only there share preparation work, which is what the
    /// service's prepared-model cache exploits.
    ///
    /// The prefix is a [`Value`] tree with a fixed key order, so its
    /// JSON form is canonical: equal preparation inputs ⇒ byte-equal
    /// JSON ⇒ equal [`ExperimentSpec::prep_fingerprint`].
    pub fn prep_prefix(&self) -> Value {
        let mut root = Value::table();
        root.set("seed", Value::Int(self.seed as i64));
        // Training runs through the GEMM kernels, whose accumulation
        // order differs per SIMD backend — a prepared model is only
        // reusable under the backend that built it.
        root.set("simd", Value::Str(swim_tensor::simd::backend().name().into()));

        let mut scenario = Value::table();
        scenario.set("model", Value::Str(self.scenario.model.key().into()));
        scenario.set("width", f32_value(self.scenario.width));
        scenario.set("classes", Value::Int(self.scenario.classes as i64));
        root.set("scenario", scenario);

        let mut training = Value::table();
        training.set("samples", Value::Int(self.training.samples as i64));
        training.set("epochs", Value::Int(self.training.epochs as i64));
        training.set("lr", f32_value(self.training.lr));
        training.set("batch", Value::Int(self.training.batch as i64));
        root.set("training", training);
        root
    }

    /// FNV-1a hash of the canonical JSON of
    /// [`ExperimentSpec::prep_prefix`], as a fixed-width hex string —
    /// the prepared-model cache key, also echoed in job provenance so a
    /// cache hit is attributable.
    pub fn prep_fingerprint(&self) -> String {
        let json = self.prep_prefix().to_json();
        format!("{:016x}", fnv1a_64(json.as_bytes()))
    }

    /// Applies a `--set key=value` override on top of this spec.
    ///
    /// Bare keys resolve through a shorthand table (`runs` →
    /// `montecarlo.runs`); dotted keys address the spec tree directly.
    /// The value grammar is the loose CLI form of
    /// [`crate::value::parse_loose`].
    pub fn apply_set(&mut self, assignment: &str) -> Result<(), SpecError> {
        let (key, raw) = assignment
            .split_once('=')
            .ok_or_else(|| err(format!("`--set {assignment}`: expected key=value")))?;
        let path = resolve_set_path(self.kind, key.trim());
        let mut value = parse_loose(raw);
        // Grid shorthands accept a scalar for a one-point grid.
        if matches!(
            path.as_str(),
            "device.sigmas"
                | "device.model"
                | "sweep.fractions"
                | "selection.methods"
                | "ablation.granularities"
        ) && !matches!(value, Value::Array(_))
        {
            value = Value::Array(vec![value]);
        }
        let mut root = self.to_value();
        root.set_path(&path, value).map_err(err)?;
        *self = Self::from_value(&root)?;
        Ok(())
    }
}

/// Writes an `f32` with its shortest decimal representation so the
/// document shows `0.05`, not the widened `f64` bits.
fn f32_value(v: f32) -> Value {
    Value::Float(v.to_string().parse().expect("f32 display is a valid f64"))
}

/// 64-bit FNV-1a — tiny, dependency-free, and stable across platforms;
/// collision resistance at cache-key scale is ample.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Maps a bare `--set` / CLI flag name onto its spec path. Dotted names
/// pass through unchanged.
pub fn resolve_set_path(kind: ExperimentKind, key: &str) -> String {
    let bare = match key {
        // Fig. 1 spends its `runs` budget inside the correlation study.
        "runs" if kind == ExperimentKind::Fig1 => "correlation.runs",
        "runs" => "montecarlo.runs",
        "threads" => "montecarlo.threads",
        "eval-batch" | "eval_batch" => "montecarlo.eval_batch",
        "samples" if kind == ExperimentKind::Calibration => "calibration.devices",
        "samples" => "training.samples",
        "epochs" => "training.epochs",
        "lr" => "training.lr",
        "batch" => "training.batch",
        "sigma" | "sigmas" => "device.sigmas",
        "tech" => "device.tech",
        // `model` alone stays the scenario model (the historical flag);
        // the device-model grid gets its own shorthand.
        "device-model" | "device_model" => "device.model",
        "width" => "scenario.width",
        "classes" => "scenario.classes",
        "model" => "scenario.model",
        "fractions" => "sweep.fractions",
        "methods" => "selection.methods",
        "insitu" => "selection.insitu",
        "probes" => "correlation.probes",
        "seed" => "seed",
        "name" => "name",
        "note" => "note",
        "shard" => "run.shard",
        "simd" => "run.simd",
        "tune" => "tune.mode",
        "on-panic" | "on_panic" => "montecarlo.on_panic",
        other => other,
    };
    bare.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ExperimentSpec::default().validate().unwrap();
    }

    #[test]
    fn partial_spec_completes_from_defaults() {
        let spec = ExperimentSpec::parse_str("[device]\nsigmas = [0.2]\n").unwrap();
        assert_eq!(spec.device.sigmas, vec![0.2]);
        assert_eq!(spec.training.samples, 2500);
        assert_eq!(spec.selection.methods.len(), 3);
    }

    #[test]
    fn unknown_keys_rejected_with_path() {
        let e = ExperimentSpec::parse_str("bogus = 1\n").unwrap_err();
        assert!(e.0.contains("unknown key `bogus`"), "{e}");
        let e = ExperimentSpec::parse_str("[training]\nsample = 10\n").unwrap_err();
        assert!(e.0.contains("unknown key `training.sample`"), "{e}");
        let e = ExperimentSpec::parse_str("[device]\ntech = \"dram\"\n").unwrap_err();
        assert!(e.0.contains("unknown device tech"), "{e}");
        let e = ExperimentSpec::parse_str("[selection]\nmethods = [\"swimm\"]\n").unwrap_err();
        assert!(e.0.contains("unknown selector"), "{e}");
    }

    #[test]
    fn parse_write_parse_round_trip() {
        let text = "name = \"rt\"\nkind = \"table1\"\nseed = 9\n\
                    [scenario]\nmodel = \"convnet-cifar\"\nwidth = 0.25\n\
                    [device]\ntech = \"pcm\"\nsigmas = [0.1, 0.2]\nverify_margin = 0.05\n\
                    [montecarlo]\nruns = 7\n";
        let spec = ExperimentSpec::parse_str(text).unwrap();
        let written = spec.to_toml();
        let again = ExperimentSpec::parse_str(&written).unwrap();
        assert_eq!(spec, again);
        // And through JSON.
        let json = spec.to_json();
        let via_json = ExperimentSpec::parse_str(&json).unwrap();
        assert_eq!(spec, via_json);
    }

    #[test]
    fn device_config_round_trip() {
        for tech in DeviceTech::all() {
            for sigma in [0.1, 0.15, 0.2] {
                let cfg = DeviceConfig::for_tech(tech).with_sigma(sigma);
                let spec = DeviceSpec::from_config(&cfg);
                assert_eq!(spec.config_at(sigma), cfg);
            }
        }
        // A custom config survives via explicit overrides.
        let mut custom = DeviceConfig::rram();
        custom.pulse_step = 0.04;
        custom.device_bits = 5;
        let spec = DeviceSpec::from_config(&custom);
        assert_eq!(spec.config_at(custom.sigma), custom);
    }

    #[test]
    fn views_inherit_budget_and_seed() {
        let spec = ExperimentSpec::parse_str(
            "seed = 11\n[sweep]\nfractions = [0.0, 0.5]\n[montecarlo]\nruns = 4\nthreads = 2\n",
        )
        .unwrap();
        assert_eq!(spec.shard_run_range(), (0, 4));
        assert_eq!(spec.threads(), 2);
        let alg1 = spec.alg1_config_at(0.05);
        assert_eq!(alg1.granularity, 0.05);
        assert_eq!(alg1.batch, 256);
    }

    #[test]
    fn apply_set_shorthands_and_paths() {
        let mut spec = ExperimentSpec::default();
        spec.apply_set("runs=40").unwrap();
        assert_eq!(spec.montecarlo.runs, 40);
        spec.apply_set("sigma=0.15").unwrap();
        assert_eq!(spec.device.sigmas, vec![0.15]);
        spec.apply_set("sigmas=0.1,0.2").unwrap();
        assert_eq!(spec.device.sigmas, vec![0.1, 0.2]);
        spec.apply_set("training.lr=0.02").unwrap();
        assert!((spec.training.lr - 0.02).abs() < 1e-6);
        spec.apply_set("methods=swim,layer-balanced").unwrap();
        assert_eq!(spec.selection.methods, vec!["swim", "layer-balanced"]);
        assert!(spec.apply_set("runs").is_err());
        assert!(spec.apply_set("bogus.key=1").is_err());
        assert!(spec.apply_set("runs=0").is_err(), "validation still applies");
    }

    #[test]
    fn device_model_accepts_string_or_grid() {
        let spec = ExperimentSpec::parse_str("[device]\nmodel = \"mram-stochastic\"\n").unwrap();
        assert_eq!(spec.device.models, vec!["mram-stochastic"]);
        let spec = ExperimentSpec::parse_str(
            "[device]\nmodel = [\"rram-gaussian\", \"sram-vt\"]\nsigmas = [0.1, 0.2]\n",
        )
        .unwrap();
        assert_eq!(spec.device.models, vec!["rram-gaussian", "sram-vt"]);
        // Defaulted specs carry the reference model.
        assert_eq!(ExperimentSpec::default().device.models, vec![DEFAULT_DEVICE_MODEL]);
        // Round trip: written spec re-parses to the same models.
        let again = ExperimentSpec::parse_str(&spec.to_toml()).unwrap();
        assert_eq!(again, spec);
    }

    #[test]
    fn unknown_device_model_error_names_path_and_valid_models() {
        let e = ExperimentSpec::parse_str("[device]\nmodel = \"flux-capacitor\"\n").unwrap_err();
        assert!(e.0.contains("`device.model`"), "{e}");
        assert!(e.0.contains("flux-capacitor"), "{e}");
        for key in device_model_keys() {
            assert!(e.0.contains(&key), "error must list `{key}`: {e}");
        }
        let e = ExperimentSpec::parse_str("[device]\nmodel = [1]\n").unwrap_err();
        assert!(e.0.contains("device.model[0]"), "{e}");
    }

    #[test]
    fn single_run_kinds_reject_model_grids() {
        for kind in ["fig2", "fig1", "ablation", "calibration"] {
            let text = format!(
                "kind = \"{kind}\"\n[device]\nmodel = [\"rram-gaussian\", \"mram-stochastic\"]\n"
            );
            let e = ExperimentSpec::parse_str(&text).unwrap_err();
            assert!(e.0.contains("single device model"), "{kind}: {e}");
        }
        // Grid kinds accept it.
        let spec = ExperimentSpec::parse_str(
            "kind = \"table1\"\n[device]\nmodel = [\"rram-gaussian\", \"mram-stochastic\"]\n",
        )
        .unwrap();
        assert_eq!(spec.device.models.len(), 2);
        // Calibration pins the reference model even as a single entry.
        let e =
            ExperimentSpec::parse_str("kind = \"calibration\"\n[device]\nmodel = \"sram-vt\"\n")
                .unwrap_err();
        assert!(e.0.contains("reference model"), "{e}");
    }

    #[test]
    fn device_model_shorthand_applies() {
        let mut spec = ExperimentSpec::default();
        spec.apply_set("device-model=sram-vt").unwrap();
        assert_eq!(spec.device.models, vec!["sram-vt"]);
        spec.apply_set("device_model=rram-gaussian,mram-stochastic").unwrap();
        assert_eq!(spec.device.models, vec!["rram-gaussian", "mram-stochastic"]);
        // Bare `model` still addresses the scenario (historical flag).
        spec.apply_set("model=convnet-cifar").unwrap();
        assert_eq!(spec.scenario.model, ScenarioKind::ConvnetCifar);
        // Unknown models are caught on re-validation.
        assert!(spec.apply_set("device-model=bogus").is_err());
    }

    #[test]
    fn fig1_runs_shorthand_targets_correlation() {
        let mut spec = ExperimentSpec { kind: ExperimentKind::Fig1, ..Default::default() };
        spec.apply_set("runs=12").unwrap();
        assert_eq!(spec.correlation.runs, 12);
        assert_eq!(spec.montecarlo.runs, ExperimentSpec::default().montecarlo.runs);
    }

    #[test]
    fn validation_catches_ranges() {
        let mut spec = ExperimentSpec::default();
        spec.sweep.fractions = vec![1.5];
        assert!(spec.validate().is_err());
        let mut spec = ExperimentSpec::default();
        spec.selection.methods.clear();
        assert!(spec.validate().is_err());
        let mut spec = ExperimentSpec::default();
        spec.device.sigmas.clear();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn shard_parses_validates_and_round_trips() {
        let spec =
            ExperimentSpec::parse_str("[run]\nshard = \"1/3\"\n[montecarlo]\nruns = 10\n").unwrap();
        assert_eq!(spec.run.shard, Some((1, 3)));
        assert_eq!(spec.shard_run_range(), (3, 6));
        let again = ExperimentSpec::parse_str(&spec.to_toml()).unwrap();
        assert_eq!(again, spec);
        // Unsharded specs do not write a [run] section at all.
        assert!(!ExperimentSpec::default().to_toml().contains("[run]"));
        // Bad forms.
        for bad in ["3/3", "2", "a/b", "1/0", "-1/2"] {
            let text = format!("[run]\nshard = \"{bad}\"\n");
            assert!(ExperimentSpec::parse_str(&text).is_err(), "{bad}");
        }
        // Only the Monte Carlo sweep kinds shard.
        let e = ExperimentSpec::parse_str("kind = \"fig1\"\n[run]\nshard = \"0/2\"\n").unwrap_err();
        assert!(e.0.contains("run.shard"), "{e}");
        // More shards than runs would leave empty shards.
        let e = ExperimentSpec::parse_str("[run]\nshard = \"0/30\"\n[montecarlo]\nruns = 10\n")
            .unwrap_err();
        assert!(e.0.contains("empty shards"), "{e}");
    }

    #[test]
    fn simd_parses_validates_and_round_trips() {
        let spec = ExperimentSpec::parse_str("[run]\nsimd = \"scalar\"\n").unwrap();
        assert_eq!(spec.run.simd.as_deref(), Some("scalar"));
        let again = ExperimentSpec::parse_str(&spec.to_toml()).unwrap();
        assert_eq!(again, spec);
        // Every backend name is accepted by validation — pinning a
        // backend the host lacks fails at run time, not parse time, so
        // one spec file works across heterogeneous machines.
        for name in ["scalar", "avx2", "avx512", "neon"] {
            let text = format!("[run]\nsimd = \"{name}\"\n");
            assert!(ExperimentSpec::parse_str(&text).is_ok(), "{name}");
        }
        let e = ExperimentSpec::parse_str("[run]\nsimd = \"sse9\"\n").unwrap_err();
        assert!(e.0.contains("run.simd"), "{e}");
        let e = ExperimentSpec::parse_str("[run]\nsimd = 2\n").unwrap_err();
        assert!(e.0.contains("run.simd"), "{e}");
        // The shorthand resolves to the dotted path.
        let mut spec = ExperimentSpec::default();
        spec.apply_set("simd=avx2").unwrap();
        assert_eq!(spec.run.simd.as_deref(), Some("avx2"));
        assert!(spec.to_toml().contains("[run]"));
        // Unset means "whatever the process detects" and writes nothing.
        assert!(!ExperimentSpec::default().to_toml().contains("simd"));
    }

    #[test]
    fn tune_parses_validates_and_round_trips() {
        let spec = ExperimentSpec::parse_str("[tune]\nmode = \"off\"\n").unwrap();
        assert_eq!(spec.tune.mode.as_deref(), Some("off"));
        let again = ExperimentSpec::parse_str(&spec.to_toml()).unwrap();
        assert_eq!(again, spec);
        // Default specs do not echo a [tune] section at all — written
        // documents stay byte-identical to pre-tuning ones.
        assert!(!ExperimentSpec::default().to_toml().contains("[tune]"));
        // Bad values are rejected with the dotted path. `on` named the
        // removed autotuner.
        let e = ExperimentSpec::parse_str("[tune]\nmode = \"on\"\n").unwrap_err();
        assert!(e.0.contains("tune.mode") && e.0.contains("no autotuner"), "{e}");
        let e = ExperimentSpec::parse_str("[tune]\nmode = 2\n").unwrap_err();
        assert!(e.0.contains("tune.mode"), "{e}");
        let e = ExperimentSpec::parse_str("[tune]\nblock = 1\n").unwrap_err();
        assert!(e.0.contains("unknown key `tune.block`"), "{e}");
        // The inert im2col cap and the former kernel pins are gone from
        // the spec.
        for key in ["im2col_cap", "gemm_block", "gemm_min_flops"] {
            let e = ExperimentSpec::parse_str(&format!("[tune]\n{key} = 1\n")).unwrap_err();
            assert!(e.0.contains(&format!("unknown key `tune.{key}`")), "{e}");
        }
        // The bare `tune` shorthand addresses the mode.
        let mut spec = ExperimentSpec::default();
        spec.apply_set("tune=off").unwrap();
        assert_eq!(spec.tune.mode.as_deref(), Some("off"));
        assert!(spec.apply_set("tune=on").is_err());
    }

    #[test]
    fn tune_section_leaves_prep_fingerprint_alone() {
        // The `[tune]` mode is byte-neutral, so a spec that sets it
        // shares the default spec's prepared model.
        let base = ExperimentSpec::default();
        let mut pinned = base.clone();
        pinned.apply_set("tune=off").unwrap();
        assert_eq!(pinned.prep_fingerprint(), base.prep_fingerprint());
    }

    #[test]
    fn shard_ranges_tile_the_run_budget() {
        for runs in [1usize, 7, 25, 100] {
            for n in 1..=runs.min(9) {
                let mut start = 0;
                for i in 0..n {
                    let spec = ExperimentSpec {
                        run: RunSpec { shard: Some((i, n)), ..Default::default() },
                        montecarlo: MonteCarloSpec { runs, ..Default::default() },
                        ..Default::default()
                    };
                    let (s, e) = spec.shard_run_range();
                    assert_eq!(s, start, "runs={runs} shard {i}/{n}");
                    assert!(e >= s);
                    start = e;
                }
                assert_eq!(start, runs, "shards must tile [0, {runs})");
            }
        }
    }

    #[test]
    fn shard_and_on_panic_shorthands_apply() {
        let mut spec = ExperimentSpec::default();
        spec.apply_set("shard=1/2").unwrap();
        assert_eq!(spec.run.shard, Some((1, 2)));
        spec.apply_set("on-panic=isolate").unwrap();
        assert_eq!(spec.montecarlo.on_panic, PanicPolicy::Isolate);
        assert!(spec.apply_set("on_panic=explode").is_err());
        // Both settings survive later overrides (write → re-read).
        spec.apply_set("runs=40").unwrap();
        assert_eq!(spec.run.shard, Some((1, 2)));
        assert_eq!(spec.montecarlo.on_panic, PanicPolicy::Isolate);
    }

    #[test]
    fn sharded_sweep_config_offsets_runs() {
        let spec = ExperimentSpec::parse_str(
            "seed = 5\n[run]\nshard = \"1/2\"\n[montecarlo]\nruns = 25\n",
        )
        .unwrap();
        assert_eq!(spec.shard_run_range(), (12, 25));
        assert_eq!(spec.montecarlo.on_panic, PanicPolicy::FailFast);
        // The unsharded range covers everything from zero.
        assert_eq!(ExperimentSpec::default().shard_run_range(), (0, 25));
    }

    #[test]
    fn prep_fingerprint_ignores_the_sweep_suffix() {
        let base = ExperimentSpec::default();
        let fp = base.prep_fingerprint();
        assert_eq!(fp.len(), 16, "fixed-width hex");

        // Changing only post-preparation fields keeps the fingerprint.
        let mut suffix = base.clone();
        suffix.apply_set("runs=7").unwrap();
        suffix.apply_set("fractions=0.0,0.5").unwrap();
        suffix.apply_set("methods=magnitude").unwrap();
        suffix.apply_set("name=renamed").unwrap();
        assert_eq!(suffix.prep_fingerprint(), fp);

        // Changing any preparation input moves it.
        let mut seed = base.clone();
        seed.apply_set("seed=2").unwrap();
        assert_ne!(seed.prep_fingerprint(), fp);
        let mut train = base.clone();
        train.apply_set("epochs=3").unwrap();
        assert_ne!(train.prep_fingerprint(), fp);
    }

    #[test]
    fn prep_fingerprint_ignores_the_device_section() {
        // Training and quantization never read the device: every block
        // of a grid, and every device override, shares one preparation
        // that is rebound per block.
        let base = ExperimentSpec::default();
        let fp = base.prep_fingerprint();
        for set in [
            "sigmas=0.1,0.15,0.2",
            "device.model=sram-vt",
            "device.model=rram-gaussian,mram-stochastic",
            "tech=pcm",
            "device.verify_margin=0.05",
            "device.pulse_step=0.5",
            "device.max_verify_iters=3",
        ] {
            let mut spec = base.clone();
            spec.apply_set(set).unwrap();
            assert_eq!(spec.prep_fingerprint(), fp, "`{set}` moved the training fingerprint");
        }
    }

    #[test]
    fn selectors_resolve_after_validation() {
        let spec = ExperimentSpec::parse_str(
            "[selection]\nmethods = [\"swim\", \"swim-no-tiebreak\", \"layer-balanced\"]\n",
        )
        .unwrap();
        let sels = spec.selection.selectors();
        assert_eq!(sels.len(), 3);
        assert_eq!(sels[1].name(), "SWIM (no tie-break)");
    }
}
