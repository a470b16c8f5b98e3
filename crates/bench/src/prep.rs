//! Model + dataset preparation for the experiment binaries.
//!
//! Each paper experiment starts from a model "trained to converge …
//! before mapping to nvCiM" (§4.2). These helpers generate the synthetic
//! dataset, train the corresponding architecture, and report the clean
//! accuracies the paper quotes alongside each table/figure.

use std::sync::Arc;
use swim_cim::model::{default_device_model, DeviceModel};
use swim_cim::DeviceConfig;
use swim_core::QuantizedModel;
use swim_data::{synthetic_cifar, synthetic_mnist, synthetic_tiny_imagenet, Dataset};
use swim_nn::loss::SoftmaxCrossEntropy;
use swim_nn::models::{ConvNetConfig, LeNetConfig, ResNet18Config, ResNetStem};
use swim_nn::train::{fit, TrainConfig};
use swim_nn::Network;

/// A trained, quantized, device-bound experiment setup.
///
/// `Clone` is deliberate: one `Prepared` serves every `(device model,
/// sigma)` block that shares its training prefix
/// ([`swim_exp::spec::ExperimentSpec::prep_fingerprint`]). `swim run`
/// prepares once per spec and the serve cache once per fingerprint;
/// either way each block sweeps its own copy, rebound to the block's
/// device. The memoized sensitivities are shared between copies, not
/// duplicated.
#[derive(Clone)]
pub struct Prepared {
    /// The quantized model bound to the device configuration.
    pub model: QuantizedModel,
    /// Training split (used for sensitivity computation and Alg. 1 reads).
    pub train: Dataset,
    /// Held-out evaluation split.
    pub test: Dataset,
    /// Accuracy of the un-quantized trained network on `test` (percent).
    pub float_accuracy: f64,
    /// Accuracy of the quantized clean model on `test` (percent) — the
    /// paper's "accuracy without device variation".
    pub quant_accuracy: f64,
    /// SWIM sensitivities of `model` over `train`, keyed by the batch
    /// they were accumulated in (summation order changes the bits).
    /// Filled lazily by [`Prepared::sensitivities`].
    sensitivity_memo: Option<(usize, Arc<[f32]>)>,
}

impl Prepared {
    /// SWIM sensitivities over the training split, accumulated in
    /// batches of `batch`: from the memo when it holds that batch,
    /// otherwise computed (the paper's single second-derivative pass)
    /// and memoized. They depend only on the trained network, not on the
    /// device the model is bound to, so they survive
    /// [`swim_core::QuantizedModel::rebind`].
    pub fn sensitivities(&mut self, batch: usize) -> Arc<[f32]> {
        if let Some((b, sens)) = &self.sensitivity_memo {
            if *b == batch {
                eprintln!("[prep] reusing sensitivities (batch {batch})");
                return Arc::clone(sens);
            }
        }
        eprintln!(
            "[prep] computing sensitivities (single second-derivative pass, batch {batch})..."
        );
        let sens: Arc<[f32]> =
            self.model.sensitivities(&SoftmaxCrossEntropy::new(), &self.train, batch).into();
        self.sensitivity_memo = Some((batch, Arc::clone(&sens)));
        sens
    }
}

/// Scenario descriptor for [`prepare`].
#[derive(Debug, Clone, Copy)]
pub enum Scenario {
    /// LeNet on the MNIST substitute (paper §4.3; 4-bit).
    LenetMnist,
    /// ConvNet on the CIFAR-10 substitute (paper §4.4; 6-bit).
    ConvnetCifar {
        /// Channel-width multiplier (1.0 = paper-scale).
        width: f32,
    },
    /// ResNet-18 on the CIFAR-10 substitute (paper §4.4; 6-bit).
    Resnet18Cifar {
        /// Channel-width multiplier (1.0 = paper-scale).
        width: f32,
    },
    /// ResNet-18 on the Tiny-ImageNet substitute (paper §4.5; 6-bit).
    Resnet18Tiny {
        /// Channel-width multiplier (1.0 = paper-scale).
        width: f32,
        /// Number of classes (paper: 200).
        classes: usize,
    },
}

impl Scenario {
    /// Resolves a spec's `[scenario]` section into the concrete
    /// scenario descriptor.
    pub fn from_spec(spec: &swim_exp::spec::ScenarioSpec) -> Scenario {
        use swim_exp::spec::ScenarioKind;
        match spec.model {
            ScenarioKind::LenetMnist => Scenario::LenetMnist,
            ScenarioKind::ConvnetCifar => Scenario::ConvnetCifar { width: spec.width },
            ScenarioKind::Resnet18Cifar => Scenario::Resnet18Cifar { width: spec.width },
            ScenarioKind::Resnet18Tiny => {
                Scenario::Resnet18Tiny { width: spec.width, classes: spec.classes }
            }
        }
    }

    /// Weight/activation bit width the paper uses for this scenario.
    pub fn weight_bits(&self) -> u32 {
        match self {
            Scenario::LenetMnist => 4,
            _ => 6,
        }
    }

    /// Short name used in output headers.
    pub fn name(&self) -> String {
        match self {
            Scenario::LenetMnist => "LeNet / MNIST-substitute (4-bit)".into(),
            Scenario::ConvnetCifar { width } => {
                format!("ConvNet(w={width}) / CIFAR-10-substitute (6-bit)")
            }
            Scenario::Resnet18Cifar { width } => {
                format!("ResNet-18(w={width}) / CIFAR-10-substitute (6-bit)")
            }
            Scenario::Resnet18Tiny { width, classes } => {
                format!(
                    "ResNet-18(w={width}) / Tiny-ImageNet-substitute ({classes} classes, 6-bit)"
                )
            }
        }
    }
}

/// Training budget for [`prepare`].
#[derive(Debug, Clone, Copy)]
pub struct PrepConfig {
    /// Total samples generated (split 80/20 train/test).
    pub samples: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// Seed for data generation, initialization, and training shuffles.
    pub seed: u64,
}

impl Default for PrepConfig {
    fn default() -> Self {
        PrepConfig { samples: 2500, epochs: 6, lr: 0.05, batch: 32, seed: 1 }
    }
}

impl From<&swim_exp::spec::ExperimentSpec> for PrepConfig {
    /// The training-budget view of an experiment spec.
    fn from(spec: &swim_exp::spec::ExperimentSpec) -> Self {
        PrepConfig {
            samples: spec.training.samples,
            epochs: spec.training.epochs,
            lr: spec.training.lr,
            batch: spec.training.batch,
            seed: spec.seed,
        }
    }
}

fn build_network(scenario: &Scenario, seed: u64) -> Network {
    match scenario {
        Scenario::LenetMnist => LeNetConfig::paper().build(seed),
        Scenario::ConvnetCifar { width } => ConvNetConfig::reduced(*width).build(seed),
        Scenario::Resnet18Cifar { width } => ResNet18Config::reduced(*width).build(seed),
        Scenario::Resnet18Tiny { width, classes } => ResNet18Config {
            num_classes: *classes,
            stem: ResNetStem::TinyImageNet,
            width_factor: *width,
            ..ResNet18Config::paper_tiny_imagenet()
        }
        .build(seed),
    }
}

fn build_dataset(scenario: &Scenario, samples: usize, seed: u64) -> Dataset {
    match scenario {
        Scenario::LenetMnist => synthetic_mnist(samples, seed),
        Scenario::ConvnetCifar { .. } | Scenario::Resnet18Cifar { .. } => {
            synthetic_cifar(samples, seed)
        }
        Scenario::Resnet18Tiny { classes, .. } => synthetic_tiny_imagenet(samples, *classes, seed),
    }
}

/// Generates data, trains the scenario's network, and binds it to the
/// device configuration.
///
/// Prints one progress line per stage so long-running binaries show
/// life; returns everything an experiment needs.
pub fn prepare(scenario: Scenario, device: DeviceConfig, cfg: &PrepConfig) -> Prepared {
    prepare_with_model(scenario, device, cfg, default_device_model())
}

/// [`prepare`] with an explicit device model from the `swim-cim`
/// registry instead of the default RRAM Gaussian. Training is
/// model-independent (the model only enters at programming time), so
/// every model sees the identical trained network for a given seed.
pub fn prepare_with_model(
    scenario: Scenario,
    device: DeviceConfig,
    cfg: &PrepConfig,
    model: Arc<dyn DeviceModel>,
) -> Prepared {
    let t0 = std::time::Instant::now();
    let data = build_dataset(&scenario, cfg.samples, cfg.seed);
    let (train, test) = data.split(0.8);
    eprintln!("[prep] {}: {} train / {} test samples", scenario.name(), train.len(), test.len());

    let mut net = build_network(&scenario, cfg.seed.wrapping_add(41));
    let tc = TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch,
        lr: cfg.lr,
        seed: cfg.seed.wrapping_add(97),
        ..Default::default()
    };
    let history = fit(&mut net, &SoftmaxCrossEntropy::new(), train.images(), train.labels(), &tc);
    let float_accuracy = 100.0 * net.accuracy(test.images(), test.labels(), 256);
    eprintln!(
        "[prep] trained {} epochs (final loss {:.4}); float accuracy {:.2}% ({:?})",
        cfg.epochs,
        history.final_loss(),
        float_accuracy,
        t0.elapsed()
    );

    let mut model = QuantizedModel::with_model(net, scenario.weight_bits(), device, model);
    let quant_accuracy = 100.0 * model.clean_accuracy(&test, 256);
    eprintln!("[prep] quantized ({}-bit) accuracy {:.2}%", scenario.weight_bits(), quant_accuracy);

    Prepared { model, train, test, float_accuracy, quant_accuracy, sensitivity_memo: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet_prep_learns() {
        let cfg = PrepConfig { samples: 600, epochs: 2, ..Default::default() };
        let prepared = prepare(Scenario::LenetMnist, DeviceConfig::rram(), &cfg);
        // Better than chance (10%) after even a short budget.
        assert!(prepared.quant_accuracy > 30.0, "accuracy {}", prepared.quant_accuracy);
        assert_eq!(prepared.model.mapper().slicing().weight_bits(), 4);
        assert_eq!(prepared.train.len(), 480);
        assert_eq!(prepared.test.len(), 120);
    }

    #[test]
    fn sensitivity_memo_is_keyed_by_batch_and_shared_by_clones() {
        let cfg = PrepConfig { samples: 200, epochs: 1, ..Default::default() };
        let mut prepared = prepare(Scenario::LenetMnist, DeviceConfig::rram(), &cfg);
        let first = prepared.sensitivities(40);
        assert_eq!(first.len(), prepared.model.weight_count());
        // A copy answers from the shared memo: no second pass, no copy.
        let mut copy = prepared.clone();
        assert!(Arc::ptr_eq(&first, &copy.sensitivities(40)));
        // Another batch is another summation order: recomputed, and the
        // memo moves to it.
        let other = prepared.sensitivities(64);
        assert!(!Arc::ptr_eq(&first, &other));
        assert!(Arc::ptr_eq(&other, &prepared.sensitivities(64)));
        // Recomputing the first batch reproduces it bit for bit.
        let again = prepared.sensitivities(40);
        assert!(!Arc::ptr_eq(&first, &again));
        let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again), bits(&first));
    }

    #[test]
    fn scenario_bit_widths() {
        assert_eq!(Scenario::LenetMnist.weight_bits(), 4);
        assert_eq!(Scenario::ConvnetCifar { width: 0.1 }.weight_bits(), 6);
        assert_eq!(Scenario::Resnet18Tiny { width: 0.1, classes: 20 }.weight_bits(), 6);
    }
}
