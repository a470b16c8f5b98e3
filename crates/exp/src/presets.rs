//! Presets replicating each paper artifact.
//!
//! Every paper artifact's default configuration exists here as a named
//! [`ExperimentSpec`], which `swim preset <name>` resolves.
//!
//! The `quick` variant of each preset is the `--quick` smoke-test shape
//! (fewer runs/samples/epochs, single sigma).

use crate::spec::{
    CorrelationSpec, ExperimentKind, ExperimentSpec, ScenarioKind, ScenarioSpec, TrainingSpec,
};

/// Name and summary of one preset (for `swim list`).
#[derive(Debug, Clone, Copy)]
pub struct PresetInfo {
    /// Preset name (`swim preset <name>`).
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every preset, in the paper's presentation order.
pub fn preset_infos() -> Vec<PresetInfo> {
    vec![
        PresetInfo {
            name: "fig1",
            summary: "Fig. 1a/1b — accuracy drop vs magnitude / second derivative",
        },
        PresetInfo {
            name: "table1",
            summary: "Table 1 — LeNet, sigma in {0.1, 0.15, 0.2}, 4 methods x NWC grid",
        },
        PresetInfo { name: "fig2a", summary: "Fig. 2a — ConvNet / CIFAR-10-substitute sweep" },
        PresetInfo { name: "fig2b", summary: "Fig. 2b — ResNet-18 / CIFAR-10-substitute sweep" },
        PresetInfo {
            name: "fig2c",
            summary: "Fig. 2c — ResNet-18 / Tiny-ImageNet-substitute sweep",
        },
        PresetInfo {
            name: "calibration",
            summary: "§4.1 — write-verify cycle/residual statistics",
        },
        PresetInfo {
            name: "ablation",
            summary: "granularity p sweep + tie-break + calibration-set ablations",
        },
    ]
}

/// Builds a preset spec by name (`quick` = the binary's `--quick`
/// smoke shape). Returns `None` for unknown names.
pub fn preset(name: &str, quick: bool) -> Option<ExperimentSpec> {
    let spec = match name {
        "table1" => {
            let mut spec = ExperimentSpec {
                name: "table1".into(),
                kind: ExperimentKind::Table1,
                seed: 1,
                ..Default::default()
            };
            spec.device.sigmas = vec![0.1, 0.15, 0.2];
            spec.montecarlo.runs = 25;
            if quick {
                spec.device.sigmas = vec![0.15];
                spec.montecarlo.runs = 5;
                spec.training.samples = 600;
                spec.training.epochs = 2;
            }
            spec
        }
        "fig2a" | "fig2b" | "fig2c" => {
            let (display, scenario, samples, note) = match name {
                "fig2a" => (
                    "Fig. 2a",
                    ScenarioSpec { model: ScenarioKind::ConvnetCifar, width: 0.25, classes: 10 },
                    2000,
                    "all methods except SWIM drop >10% at NWC = 0.1; SWIM stays within 2.5% \
                     and has the smallest std",
                ),
                "fig2b" => (
                    "Fig. 2b",
                    ScenarioSpec { model: ScenarioKind::Resnet18Cifar, width: 0.25, classes: 10 },
                    2000,
                    "SWIM keeps the accuracy drop below 0.5% using only 10% of the write \
                     cycles; the other methods drop more than 2%",
                ),
                _ => (
                    "Fig. 2c",
                    ScenarioSpec { model: ScenarioKind::Resnet18Tiny, width: 0.25, classes: 40 },
                    1600,
                    "hardest task: all methods drop more than on CIFAR-10, but SWIM stays \
                     within 3% of full write-verify at NWC = 0.1, fewest of all methods",
                ),
            };
            let mut spec = ExperimentSpec {
                name: display.into(),
                kind: ExperimentKind::Fig2,
                note: note.into(),
                seed: 1,
                scenario,
                // Deeper nets need a gentler rate than LeNet's 0.05
                // default.
                training: TrainingSpec { samples, epochs: 5, lr: 0.01, batch: 32 },
                ..Default::default()
            };
            spec.montecarlo.runs = 15;
            if quick {
                spec.montecarlo.runs = 4;
                spec.training.samples = 400;
                spec.training.epochs = 1;
            }
            spec
        }
        "fig1" => {
            let mut spec = ExperimentSpec {
                name: "fig1".into(),
                kind: ExperimentKind::Fig1,
                seed: 1,
                correlation: CorrelationSpec { probes: 150, runs: 30 },
                ..Default::default()
            };
            if quick {
                spec.correlation = CorrelationSpec { probes: 30, runs: 8 };
                spec.training.samples = 600;
                spec.training.epochs = 2;
            }
            spec
        }
        "calibration" => {
            let mut spec = ExperimentSpec {
                name: "calibration".into(),
                kind: ExperimentKind::Calibration,
                seed: 0,
                ..Default::default()
            };
            // The paper's §4.1 sigma sweep, before the per-tech preset
            // rows.
            spec.device.sigmas = vec![0.1, 0.15, 0.2];
            spec
        }
        "ablation" => {
            let mut spec = ExperimentSpec {
                name: "ablation".into(),
                kind: ExperimentKind::Ablation,
                seed: 1,
                ..Default::default()
            };
            spec.device.sigmas = vec![0.15];
            spec.training.samples = 1500;
            spec.training.epochs = 5;
            spec.montecarlo.runs = 10;
            if quick {
                spec.montecarlo.runs = 3;
                spec.training.samples = 500;
                spec.training.epochs = 2;
            }
            spec
        }
        _ => return None,
    };
    debug_assert!(spec.validate().is_ok(), "preset {name} must validate");
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_preset_builds_and_validates() {
        for info in preset_infos() {
            for quick in [false, true] {
                let spec = preset(info.name, quick)
                    .unwrap_or_else(|| panic!("preset {} missing", info.name));
                spec.validate().unwrap();
                // And survives the parse→write→parse loop.
                let text = spec.to_toml();
                let again = ExperimentSpec::parse_str(&text).unwrap();
                assert_eq!(spec, again, "preset {} round-trip", info.name);
            }
        }
        assert!(preset("nope", false).is_none());
    }

    #[test]
    fn table1_matches_binary_defaults() {
        let spec = preset("table1", false).unwrap();
        assert_eq!(spec.device.sigmas, vec![0.1, 0.15, 0.2]);
        assert_eq!(spec.montecarlo.runs, 25);
        assert_eq!(spec.training.samples, 2500);
        assert_eq!(spec.training.epochs, 6);
        assert_eq!(spec.seed, 1);
        let quick = preset("table1", true).unwrap();
        assert_eq!(quick.device.sigmas, vec![0.15]);
        assert_eq!(quick.montecarlo.runs, 5);
        assert_eq!(quick.training.samples, 600);
        assert_eq!(quick.training.epochs, 2);
    }

    #[test]
    fn fig2_presets_match_binary_defaults() {
        let spec = preset("fig2a", false).unwrap();
        assert_eq!(spec.training.lr, 0.01);
        assert_eq!(spec.montecarlo.runs, 15);
        assert_eq!(spec.device.sigmas, vec![0.1]);
        assert_eq!(spec.scenario.width, 0.25);
        let c = preset("fig2c", false).unwrap();
        assert_eq!(c.scenario.classes, 40);
        assert_eq!(c.training.samples, 1600);
    }
}
