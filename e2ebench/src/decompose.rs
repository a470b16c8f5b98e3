//! The traced run: the work of one `run_spec` call redone through each
//! crate's public calls, with a span around every call, plus probes that
//! time single calls the decomposition does not isolate.
//!
//! The decomposition follows `swim_bench`'s preparation and sweep driver
//! step for step (same seeds, same order), so its sweep records must
//! equal the ones `run_spec` writes; [`Decomposition::sweeps`] is
//! compared against the untraced document to prove it.

use std::sync::Arc;
use std::time::Instant;

use swim_bench::driver::{insitu_stats_from_raw, DriverConfig, MethodCurve, MethodCurves};
use swim_bench::prep::{PrepConfig, Scenario};
use swim_cim::model::{device_model_by_name, DeviceModel};
use swim_core::insitu::{insitu_training, InsituConfig};
use swim_core::montecarlo::{nwc_sweep_outcome, parallel_map, SweepConfig};
use swim_core::select::{mask_top_fraction_into, SelectionInputs};
use swim_core::QuantizedModel;
use swim_data::{synthetic_mnist, Dataset};
use swim_exp::spec::ExperimentSpec;
use swim_nn::loss::{Loss, SoftmaxCrossEntropy};
use swim_nn::models::LeNetConfig;
use swim_nn::train::{fit, TrainConfig};
use swim_nn::{ActivationArena, Mode};
use swim_report::schema::{CurvePoint, InsituPoint, MethodCurveDoc, SweepDoc};
use swim_tensor::Prng;

use crate::trace::Tracer;
use crate::workloads::SplitMix;
use crate::Report;

/// What the decomposition produced, plus the first block's prepared
/// state for the probes.
pub struct Decomposition {
    /// One sweep record per `(model, sigma)` block, in grid order.
    pub sweeps: Vec<SweepDoc>,
    /// Monte Carlo evaluations: runs × fractions × selectors × blocks.
    pub evals: u64,
    /// SGD steps taken by training, over all blocks.
    pub train_steps: u64,
    /// Training samples processed (samples × epochs), over all blocks.
    pub train_samples: u64,
    first: Option<BlockState>,
}

struct BlockState {
    model: QuantizedModel,
    test: Dataset,
    sens: Vec<f32>,
    mags: Vec<f32>,
}

/// The schema record of one block, as `run_spec` writes it for an
/// unsharded spec.
fn sweep_doc(
    model: &str,
    sigma: f64,
    float_acc: f64,
    quant_acc: f64,
    curves: &MethodCurves,
) -> SweepDoc {
    SweepDoc {
        device_model: model.to_string(),
        sigma,
        float_accuracy: float_acc,
        quant_accuracy: quant_acc,
        methods: curves
            .methods
            .iter()
            .map(|m| MethodCurveDoc {
                name: m.name.clone(),
                points: m
                    .points
                    .iter()
                    .map(|p| CurvePoint {
                        fraction: p.fraction,
                        nwc: p.nwc,
                        accuracy_mean: p.accuracy.mean(),
                        accuracy_std: p.accuracy.std(),
                        accuracy_min: p.accuracy_min,
                        accuracy_p05: p.accuracy_p05,
                    })
                    .collect(),
            })
            .collect(),
        insitu: curves
            .insitu
            .iter()
            .map(|p| InsituPoint {
                nwc: p.nwc,
                accuracy_mean: p.accuracy.mean(),
                accuracy_std: p.accuracy.std(),
            })
            .collect(),
        raw: None,
    }
}

/// Redoes `run_spec`'s work for a block-structured spec under a
/// `bench.run_spec` span whose group is `group`.
pub fn run(
    spec: &ExperimentSpec,
    group: u64,
    tracer: &mut Tracer,
) -> Result<Decomposition, String> {
    // The workloads run LeNet on the MNIST substitute; the data and
    // network below are what `swim_bench::prep` builds for it.
    let scenario = Scenario::from_spec(&spec.scenario);
    if !matches!(scenario, Scenario::LenetMnist) {
        return Err(format!("the benchmark does not decompose {}", scenario.name()));
    }
    let prep = PrepConfig::from(spec);
    let tuning = swim_tensor::tune::current();
    let cfg = DriverConfig::from_spec(spec, tuning.gemm_threads, tuning.gemm_block_cols);
    let selectors = spec.selection.selectors();
    let loss = SoftmaxCrossEntropy::new();
    let grid: Vec<(String, f64)> = spec
        .device
        .models
        .iter()
        .flat_map(|m| spec.device.sigmas.iter().map(move |&s| (m.clone(), s)))
        .collect();
    let mut out = Decomposition {
        sweeps: Vec::new(),
        evals: 0,
        train_steps: 0,
        train_samples: 0,
        first: None,
    };
    tracer.span("bench.run_spec", group, |tr| -> Result<(), String> {
        swim_tensor::linalg::set_gemm_threads(cfg.gemm_threads);
        swim_tensor::linalg::set_gemm_block_cols(cfg.gemm_block);
        for (model_name, sigma) in &grid {
            let device_model: Arc<dyn DeviceModel> = device_model_by_name(model_name)
                .ok_or_else(|| format!("unknown device model `{model_name}`"))?;
            let device = spec.device.config_at(*sigma);
            tr.span("bench.block", group, |tr| -> Result<(), String> {
                let (train, test) = tr.span("data.gen", group, |_| {
                    synthetic_mnist(prep.samples, prep.seed).split(0.8)
                });
                let mut net = LeNetConfig::paper().build(prep.seed.wrapping_add(41));
                let tc = TrainConfig {
                    epochs: prep.epochs,
                    batch_size: prep.batch,
                    lr: prep.lr,
                    seed: prep.seed.wrapping_add(97),
                    ..Default::default()
                };
                tr.span("nn.train", group, |_| {
                    fit(&mut net, &loss, train.images(), train.labels(), &tc)
                });
                out.train_steps += (prep.epochs * train.len().div_ceil(prep.batch)) as u64;
                out.train_samples += (prep.epochs * train.len()) as u64;
                let float_acc = tr.span("nn.eval", group, |_| {
                    100.0 * net.accuracy(test.images(), test.labels(), 256)
                });
                let (mut model, quant_acc) = tr.span("core.quantize", group, |_| {
                    let mut model = QuantizedModel::with_model(
                        net,
                        scenario.weight_bits(),
                        device,
                        device_model,
                    );
                    let acc = 100.0 * model.clean_accuracy(&test, 256);
                    (model, acc)
                });
                let (sens, mags) = tr.span("core.sensitivity", group, |_| {
                    (model.sensitivities(&loss, &train, cfg.eval_batch), model.magnitudes())
                });
                let sweep_cfg = SweepConfig {
                    fractions: cfg.fractions.clone(),
                    runs: cfg.runs,
                    threads: cfg.threads,
                    eval_batch: cfg.eval_batch,
                    seed: cfg.seed,
                    run_offset: cfg.run_offset,
                    on_panic: cfg.on_panic,
                };
                let mut methods = Vec::new();
                for selector in &selectors {
                    let outcome = tr.span("core.sweep", group, |_| {
                        nwc_sweep_outcome(
                            &model,
                            selector.as_ref(),
                            &sens,
                            &mags,
                            &test,
                            &sweep_cfg,
                        )
                    });
                    out.evals += (cfg.runs * cfg.fractions.len()) as u64;
                    methods.push(MethodCurve {
                        name: selector.name().to_string(),
                        points: outcome.points,
                        raw: outcome.raw,
                        faults: outcome.faults,
                    });
                }
                let insitu_raw = if cfg.insitu {
                    let insitu_cfg = InsituConfig {
                        lr: cfg.insitu_lr,
                        batch_size: cfg.insitu_batch,
                        eval_batch: cfg.eval_batch,
                        record_at: cfg.fractions.clone(),
                    };
                    let base = Prng::seed_from_u64(cfg.seed.wrapping_add(0x5157_494D));
                    let (model, train, test, loss) = (&model, &train, &test, &loss);
                    tr.span("core.insitu", group, |_| {
                        parallel_map(cfg.runs, cfg.threads, &base, |r, _| {
                            let mut rng = base.fork((cfg.run_offset + r) as u64);
                            let mut local = model.clone();
                            insitu_training(&mut local, loss, train, test, &insitu_cfg, &mut rng)
                                .into_iter()
                                .map(|p| (p.nwc, p.accuracy))
                                .collect::<Vec<(f64, f64)>>()
                        })
                    })
                } else {
                    Vec::new()
                };
                let insitu = insitu_stats_from_raw(cfg.fractions.len(), &insitu_raw);
                let curves = MethodCurves { methods, insitu, insitu_raw };
                out.sweeps.push(sweep_doc(model_name, *sigma, float_acc, quant_acc, &curves));
                if out.first.is_none() {
                    out.first = Some(BlockState { model, test, sens, mags });
                }
                Ok(())
            })?;
        }
        Ok(())
    })?;
    Ok(out)
}

/// Repetitions of each probe; probes report medians or means over them.
const PROBE_REPS: usize = 5;
/// Sampled sweep steps replayed for `nn.eval_images_per_s`.
const EVAL_STEPS: usize = 8;

/// Times single calls on the first block of `d`: forward, backward and
/// second-backward on one eval batch, `Selector::rank`, device
/// programming at f = 0, 0.5, 1, and evaluation of sampled sweep steps.
pub fn probes(spec: &ExperimentSpec, d: &Decomposition, tracer: &mut Tracer, report: &mut Report) {
    let Some(block) = &d.first else { return };
    let loss = SoftmaxCrossEntropy::new();
    let eval_batch = spec.montecarlo.eval_batch;
    let n = block.test.len().min(eval_batch);
    let images = block.test.images().slice_axis0(0, n);
    let labels = &block.test.labels()[..n];
    let mut net = block.model.network_clone();
    for rep in 0..PROBE_REPS as u64 {
        tracer.span("nn.forward_batch", rep, |_| net.forward(&images, Mode::Eval));
        let logits = net.forward(&images, Mode::Train);
        let grad = loss.backward(&logits, labels);
        tracer.span("nn.backward_batch", rep, |_| net.backward(&grad));
        let logits = net.forward(&images, Mode::Eval);
        let hess = loss.second_backward(&logits, labels);
        tracer.span("nn.second_backward_batch", rep, |_| net.second_backward(&hess));
    }
    let med = |t: &Tracer, name: &str| crate::sys::median(&t.durations_of(name));
    report.metric("nn.forward_batch_s", med(tracer, "nn.forward_batch"), "s");
    report.metric("nn.backward_batch_s", med(tracer, "nn.backward_batch"), "s");
    report.metric("nn.second_backward_batch_s", med(tracer, "nn.second_backward_batch"), "s");

    let spans = block.model.param_spans();
    let inputs = SelectionInputs::with_spans(&block.sens, &block.mags, &spans);
    let selectors = spec.selection.selectors();
    let mut ranking = Vec::new();
    for rep in 0..PROBE_REPS as u64 {
        let mut rng = Prng::seed_from_u64(spec.seed).fork(rep);
        for selector in &selectors {
            let r = tracer.span("core.rank", rep, |_| selector.rank(&inputs, Some(&mut rng)));
            if ranking.is_empty() {
                ranking = r;
            }
        }
    }
    report.metric("core.rank_s", tracer.total_of("core.rank") / PROBE_REPS as f64, "s");

    let (mut mask, mut codes, mut weights) = (Vec::new(), Vec::new(), Vec::new());
    let mut pulses = 0u64;
    let mut programmed = 0u64;
    for rep in 0..PROBE_REPS as u64 {
        let mut rng = Prng::seed_from_u64(spec.seed).fork(rep);
        for fraction in [0.0, 0.5, 1.0] {
            mask_top_fraction_into(&ranking, fraction, &mut mask);
            let summary = tracer.span("cim.program", rep, |_| {
                block.model.program_weights_into(
                    Some(&mask[..]),
                    &mut rng,
                    &mut codes,
                    &mut weights,
                )
            });
            pulses += summary.verify_pulses;
            programmed += summary.total_weights;
        }
    }
    let program_s = tracer.total_of("cim.program");
    report.metric("cim.program_s", program_s / PROBE_REPS as f64, "s");
    report.metric("cim.weights_per_s", programmed as f64 / program_s, "1/s");
    report.metric("cim.verify_pulses", pulses as f64, "count");

    let mut scratch = block.model.network_clone();
    let mut arena = ActivationArena::new();
    let mut pick = SplitMix::new(spec.seed, 4);
    for step in 0..EVAL_STEPS as u64 {
        let run = pick.below(spec.montecarlo.runs.max(1)) as u64;
        let fraction = spec.sweep.fractions[pick.below(spec.sweep.fractions.len())];
        let mut rng = Prng::seed_from_u64(spec.seed).fork(run);
        mask_top_fraction_into(&ranking, fraction, &mut mask);
        block.model.program_weights_into(Some(&mask[..]), &mut rng, &mut codes, &mut weights);
        scratch.set_device_weights(&weights);
        let (images, labels) = (block.test.images(), block.test.labels());
        tracer.span("nn.eval_replay", step, |_| {
            scratch.accuracy_with(images, labels, eval_batch, &mut arena)
        });
    }
    let images = (EVAL_STEPS * block.test.len()) as f64;
    report.metric("nn.eval_images_per_s", images / tracer.total_of("nn.eval_replay"), "1/s");
}

/// Per-layer metrics of the decomposition itself.
pub fn layer_metrics(d: &Decomposition, tracer: &Tracer, report: &mut Report) {
    let train_s = tracer.total_of("nn.train");
    let sweep_s = tracer.total_of("core.sweep");
    report.metric("data.gen_s", tracer.total_of("data.gen"), "s");
    report.metric("nn.train_s", train_s, "s");
    report.metric("nn.train_samples_per_s", d.train_samples as f64 / train_s, "1/s");
    report.metric("nn.train_steps", d.train_steps as f64, "count");
    report.metric("nn.eval_s", tracer.total_of("nn.eval"), "s");
    report.metric("core.quantize_s", tracer.total_of("core.quantize"), "s");
    report.metric("core.sensitivity_s", tracer.total_of("core.sensitivity"), "s");
    report.metric("core.sweep_s", sweep_s, "s");
    report.metric("core.evals", d.evals as f64, "count");
    report.metric("core.evals_per_s", d.evals as f64 / sweep_s, "1/s");
    report.metric("core.insitu_s", tracer.total_of("core.insitu"), "s");
}

/// Times serializing `doc` and writing it atomically under the output
/// directory.
pub fn report_write(
    doc: &swim_report::schema::ResultsDoc,
    name: &str,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let path = std::path::PathBuf::from(crate::OUT_DIR).join(format!("{name}.results.json"));
    let start = Instant::now();
    let json = doc.to_json();
    let written = swim_report::io::write_atomic(&path, json.as_bytes());
    tracer.record("report.write", 0, None, start, Instant::now());
    report.check(written.is_ok(), || format!("writing {}: {written:?}", path.display()));
    report.metric("report.write_s", tracer.total_of("report.write"), "s");
    report.metric("report.doc_bytes", json.len() as f64, "B");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::result_bytes;
    use crate::workloads::lenet_grid_spec;
    use swim_bench::experiment::{run_spec, RunOptions};

    fn tiny_spec() -> ExperimentSpec {
        let text = lenet_grid_spec(3, 2)
            .replace("samples = 500", "samples = 100")
            .replace("sigmas = [0.1, 0.15, 0.2]", "sigmas = [0.1, 0.2]")
            .replace("fractions = [0, 0.1, 0.3, 0.5, 0.7, 0.9, 1]", "fractions = [0, 0.5, 1]");
        ExperimentSpec::parse_str(&text).expect("spec parses")
    }

    fn count(report: &Report, name: &str) -> f64 {
        report.metrics.iter().find(|m| m.0 == name).map(|m| m.1).expect("metric present")
    }

    /// The decomposition reproduces run_spec's sweep records, and its
    /// exact counts repeat across runs.
    #[test]
    fn decomposition_is_faithful_and_counts_repeat() {
        swim_tensor::tune::install(&crate::pinned_tuning());
        let spec = tiny_spec();
        let opts = RunOptions { tuning: crate::pinned_tuning(), ..Default::default() };
        let doc = run_spec(&spec, &opts).expect("run_spec");
        let mut counts = Vec::new();
        for _ in 0..2 {
            let mut tracer = Tracer::default();
            let mut report = Report::default();
            let d = run(&spec, 0, &mut tracer).expect("decomposition");
            let mut traced = doc.clone();
            traced.sweeps = d.sweeps.clone();
            assert_eq!(result_bytes(&traced), result_bytes(&doc));
            layer_metrics(&d, &tracer, &mut report);
            probes(&spec, &d, &mut tracer, &mut report);
            assert_eq!(report.failed, 0, "{:?}", report.failures);
            let names = ["cim.verify_pulses", "core.evals", "nn.train_steps"];
            counts.push(names.map(|n| count(&report, n)));
            // Self times of the decomposition tile the traced wall time.
            let wall = tracer.total_of("bench.run_spec");
            let bench_self: f64 = tracer
                .spans
                .iter()
                .zip(tracer.self_times())
                .filter(|(s, _)| s.name.starts_with("bench."))
                .map(|(_, t)| t)
                .sum();
            assert!((tracer.program_self_time("bench.run_spec") + bench_self - wall).abs() < 1e-6);
        }
        assert_eq!(counts[0], counts[1]);
        // 2 blocks × 3 selectors × 2 runs × 3 fractions.
        assert_eq!(counts[0][1], 36.0);
    }
}
