//! `lenet-grid`: timed `run_spec` calls.

use std::time::Instant;

use swim_bench::experiment::{run_spec, RunOptions};
use swim_bench::prep::{prepare_with_model, PrepConfig, Scenario};
use swim_cim::model::device_model_by_name;
use swim_exp::spec::ExperimentSpec;
use swim_exp::value::Value;
use swim_nn::loss::SoftmaxCrossEntropy;

use crate::checks::{check_against, digest, result_bytes};
use crate::sys::{cpu_seconds, median, percentile};
use crate::trace::Tracer;
use crate::workloads::lenet_grid_spec;
use crate::{decompose, lanes, pinned_tuning, Report};

/// Set-up repeats at least this often and until [`SETUP_SECONDS`] have
/// passed (at most [`SETUP_MAX_REPS`] times); `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_SECONDS: f64 = 4.0;
const SETUP_MAX_REPS: usize = 7;
/// Fewest timed `run_spec` calls, however long they take.
const MIN_CALLS: usize = 3;

/// Monte Carlo runs one `run_spec` call of `spec` makes.
pub fn mc_runs(spec: &ExperimentSpec) -> u64 {
    let blocks = spec.device.models.len() * spec.device.sigmas.len();
    let per_block =
        spec.montecarlo.runs * (spec.selection.methods.len() + usize::from(spec.selection.insitu));
    (blocks * per_block) as u64
}

/// Set-up: a standalone preparation plus the sensitivity pass of the
/// spec's first block — everything before Monte Carlo work can start.
/// Returns its wall time; every repetition must give the same
/// sensitivities.
fn setup_once(
    spec: &ExperimentSpec,
    reference: &mut Option<Vec<f32>>,
    report: &mut Report,
) -> Result<f64, String> {
    let model_name = &spec.device.models[0];
    let sigma = spec.device.sigmas[0];
    let start = Instant::now();
    let device_model = device_model_by_name(model_name)
        .ok_or_else(|| format!("unknown device model `{model_name}`"))?;
    let mut prepared = prepare_with_model(
        Scenario::from_spec(&spec.scenario),
        spec.device.config_at(sigma),
        &PrepConfig::from(spec),
        device_model,
    );
    let sens = prepared.model.sensitivities(
        &SoftmaxCrossEntropy::new(),
        &prepared.train,
        spec.montecarlo.eval_batch,
    );
    let elapsed = start.elapsed().as_secs_f64();
    match reference {
        None => *reference = Some(sens),
        Some(first) => report
            .check(*first == sens, || "set-up sensitivities differ between repetitions".into()),
    }
    Ok(elapsed)
}

/// Runs `lenet-grid`.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Result<(), String> {
    let text = lenet_grid_spec(seed, lanes());
    let spec = ExperimentSpec::parse_str(&text).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    report.note("spec", Value::Str(text));
    report.note("clients", Value::Int(1));
    swim_tensor::tune::install(&pinned_tuning());

    let mut setup = Vec::new();
    let mut sens = None;
    while setup.len() < SETUP_MIN_REPS
        || (setup.iter().sum::<f64>() < SETUP_SECONDS && setup.len() < SETUP_MAX_REPS)
    {
        setup.push(setup_once(&spec, &mut sens, report)?);
    }

    let opts = RunOptions { tuning: pinned_tuning(), ..Default::default() };
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut reference = None;
    let mut last = None;
    let start = Instant::now();
    while walls.len() < MIN_CALLS || start.elapsed().as_secs_f64() < seconds {
        let cpu0 = cpu_seconds()?;
        let t0 = Instant::now();
        let doc = run_spec(&spec, &opts)?;
        walls.push(t0.elapsed().as_secs_f64());
        cpus.push(cpu_seconds()? - cpu0);
        report.ops(mc_runs(&spec), doc.faults.len() as u64);
        check_against(&doc, &format!("run_spec call {}", walls.len()), &mut reference, report);
        last = Some(doc);
    }
    let doc = last.expect("at least one timed call");
    report.note("calls", Value::Int(walls.len() as i64));
    report.note("result_digest", Value::Str(digest(&result_bytes(&doc))));
    report.note("call_wall_s", Value::Array(walls.iter().map(|&w| Value::Float(w)).collect()));
    let wall = median(&walls);
    report.metric("wall_s", wall, "s");
    report.metric("setup_s", median(&setup), "s");
    report.metric("cpu_s", median(&cpus), "s");
    // A job here is one run_spec call. Fewer than 100 calls leave no
    // p90 with ten samples beyond it, so job_p90_s is the slowest call.
    report.metric("job_p50_s", wall, "s");
    report.metric("job_p90_s", percentile(&walls, 1.0), "s");

    if trace {
        traced(&spec, &doc, wall, report)?;
    }
    Ok(())
}

/// The traced run: decomposition, faithfulness check, accounting and
/// probes.
fn traced(
    spec: &ExperimentSpec,
    doc: &swim_report::schema::ResultsDoc,
    untraced_wall: f64,
    report: &mut Report,
) -> Result<(), String> {
    let mut tracer = Tracer::default();
    let d = decompose::run(spec, 0, &mut tracer)?;
    let mut traced_doc = doc.clone();
    traced_doc.sweeps = d.sweeps.clone();
    report.check(result_bytes(&traced_doc) == result_bytes(doc), || {
        "traced decomposition: sweep records differ from run_spec's".into()
    });
    let traced_wall = tracer.total_of("bench.run_spec");
    let program_self = tracer.program_self_time("bench.run_spec");
    decompose::layer_metrics(&d, &tracer, report);
    report.metric("bench.traced_wall_s", traced_wall, "s");
    report.metric("bench.overhead_s", untraced_wall - program_self, "s");
    report.metric("bench.tracing_overhead_s", traced_wall - untraced_wall, "s");
    decompose::probes(spec, &d, &mut tracer, report);
    decompose::report_write(doc, spec.name.as_str(), &mut tracer, report);
    // No serve layer runs here; the per-layer set is the same on every
    // workload.
    for name in [
        "serve.submit_s",
        "serve.queue_wait_s",
        "serve.prep_s",
        "serve.sweep_s",
        "serve.assemble_s",
    ] {
        report.metric(name, 0.0, "s");
    }
    for name in ["serve.cache_hits", "serve.cache_misses", "serve.rejected"] {
        report.metric(name, 0.0, "count");
    }
    report.spans = Some(tracer.to_value());
    Ok(())
}
