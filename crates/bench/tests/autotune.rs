//! The autotuning acceptance contract: tuning is **timing-only**. The
//! same spec run under the forced default configuration and under the
//! shape-keyed autotuner must produce byte-identical results documents,
//! modulo the two fields that legitimately differ — `wall_time_s` and
//! the `tuning` provenance block itself. This is the property that
//! makes the tuner safe to enable anywhere: it can only ever change how
//! fast the answer arrives, never the answer.

use swim_bench::experiment::{run_spec, RunOptions};
use swim_bench::service::ServiceEngine;
use swim_exp::spec::ExperimentSpec;
use swim_report::diff::{diff_docs, DiffOptions};
use swim_report::schema::ResultsDoc;
use swim_serve::server::JobEngine;
use swim_tensor::tune::{self, KernelTuning, TuneMode};

fn tiny_spec() -> ExperimentSpec {
    ExperimentSpec::parse_str(
        "name = \"tune-loop\"\nseed = 23\n\
         [training]\nsamples = 120\nepochs = 1\n\
         [selection]\nmethods = [\"swim\"]\ninsitu = false\n\
         [sweep]\nfractions = [0.0, 0.5, 1.0]\n\
         [montecarlo]\nruns = 2\nthreads = 1\n",
    )
    .unwrap()
}

fn opts_with(mode: TuneMode) -> RunOptions {
    RunOptions {
        tuning: KernelTuning { mode, gemm_threads: 1, ..Default::default() },
        ..Default::default()
    }
}

/// Tuning never changes result bytes, the spec's `[tune]` section beats
/// the CLI layer, and the service runs a job under its own `[tune]`
/// section. One test, because the tuner's winner map is process-level
/// and every tuned document records all of it.
#[test]
fn autotuned_run_is_byte_identical_and_serve_honours_the_job_tuning() {
    // ---- the differential contract -------------------------------------
    let spec = tiny_spec();
    let default_doc = run_spec(&spec, &opts_with(TuneMode::Off)).unwrap();
    assert_eq!(default_doc.tuning.mode, "off");
    assert!(default_doc.tuning.choices.is_empty());

    tune::clear_winners();
    let tuned_doc = run_spec(&spec, &opts_with(TuneMode::On)).unwrap();
    assert_eq!(tuned_doc.tuning.mode, "on");

    let mut a = default_doc.clone();
    let mut b = tuned_doc.clone();
    a.wall_time_s = 0.0;
    b.wall_time_s = 0.0;
    a.tuning = Default::default();
    b.tuning = Default::default();
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "autotuning changed result bytes beyond wall_time_s and the tuning block"
    );

    // `swim diff` semantics: the tuning difference is structural (never
    // drift) and `--ignore-tuning` suppresses it entirely.
    let report = diff_docs(&default_doc, &tuned_doc, &DiffOptions::default());
    assert!(report.drift.is_empty(), "{}", report.render());
    assert!(!report.clean(), "mode off vs on must surface structurally");
    let ignore = DiffOptions { ignore_tuning: true, ..Default::default() };
    assert!(diff_docs(&default_doc, &tuned_doc, &ignore).clean());

    // The document round-trips with its choices intact.
    let back = ResultsDoc::parse_str(&tuned_doc.to_json()).unwrap();
    assert_eq!(back, tuned_doc);

    // ---- spec [tune] overlay beats the CLI layer -----------------------
    let mut pinned_spec = tiny_spec();
    pinned_spec.apply_set("tune=off").unwrap();
    let doc = run_spec(&pinned_spec, &opts_with(TuneMode::On)).unwrap();
    assert_eq!(doc.tuning.mode, "off", "spec `[tune] mode` must beat the CLI layer");

    // ---- serve runs a job under its own [tune] section ------------------
    let engine = ServiceEngine::new(1, 0);
    let mut job_spec = tiny_spec();
    job_spec.apply_set("tune=on").unwrap();
    job_spec.apply_set("tune.gemm_block=96").unwrap();
    engine.validate(&job_spec).expect("a job's own [tune] section is accepted");
    let payloads = engine
        .grid(&job_spec)
        .iter()
        .map(|(model, sigma)| engine.run_block(&job_spec, model, *sigma).unwrap().payload)
        .collect();
    let served = ResultsDoc::parse_str(&engine.assemble(&job_spec, payloads, 0.0).unwrap())
        .expect("served document parses");
    assert_eq!(served.tuning.mode, "on");
    assert_eq!(served.tuning.gemm_block_cols, 96);
    let mut direct = run_spec(&job_spec, &opts_with(TuneMode::Off)).unwrap();
    direct.wall_time_s = 0.0;
    assert_eq!(served.to_json(), direct.to_json(), "served ≠ run_spec for a [tune] job");
}
