//! End-to-end test of the experiment service on the real engine: the
//! document served over `GET /jobs/{id}/result` must be byte-identical
//! to what `swim run` writes for the same spec (modulo `wall_time_s`),
//! every block of a job must share one training (the cache is keyed by
//! the training prefix, not the device), and resubmitting a spec must
//! hit the prepared-model cache instead of training again — visible in
//! both `/metrics` and the per-block job provenance.
//!
//! The requests go through [`Server::handle`] directly (the routing,
//! scheduling, and assembly layers); the raw-socket path is covered by
//! the serve crate's parser tests and the CI smoke.

use std::sync::Arc;

use swim_bench::cli::Args;
use swim_bench::experiment::{options_from_args, run_spec};
use swim_bench::service::ServiceEngine;
use swim_exp::spec::ExperimentSpec;
use swim_exp::value::{parse_json, Value};
use swim_report::schema::ResultsDoc;
use swim_serve::{JobEngine, Request, Response, Server, ServerConfig};

/// Two (model, sigma) blocks on a tiny training/Monte Carlo budget —
/// enough to exercise scheduling, assembly order, and the cache without
/// making the test slow.
const SPEC: &str = r#"
name = "serve-e2e"
kind = "sweep"
seed = 11

[scenario]
model = "lenet-mnist"

[device]
tech = "rram"
sigmas = [0.1, 0.15]

[training]
samples = 300
epochs = 1

[selection]
methods = ["swim", "magnitude"]
insitu = false

[sweep]
fractions = [0.0, 1.0]

[montecarlo]
runs = 2
"#;

fn request(method: &str, path: &str, body: &[u8]) -> Request {
    Request { method: method.into(), path: path.into(), body: body.to_vec() }
}

fn body_json(response: &Response) -> Value {
    let text = std::str::from_utf8(&response.body).expect("utf-8 body");
    parse_json(text).unwrap_or_else(|e| panic!("body is not JSON ({e}): {text}"))
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    value.get(key).unwrap_or_else(|| panic!("missing `{key}` in {}", value.to_json()))
}

/// Polls the job until it reaches a terminal state, returning the final
/// status body.
fn wait_terminal(server: &Arc<Server>, id: &str) -> Value {
    for _ in 0..1200 {
        let response = server.handle(&request("GET", &format!("/jobs/{id}"), b""));
        assert_eq!(response.status, 200);
        let status = body_json(&response);
        match field(&status, "state").as_str() {
            Some("done") | Some("failed") | Some("cancelled") => return status,
            _ => std::thread::sleep(std::time::Duration::from_millis(100)),
        }
    }
    panic!("job {id} did not finish");
}

/// The document with its wall time zeroed — the one field that may
/// legitimately differ between the served and CLI paths.
fn normalized(doc_json: &str) -> String {
    let mut doc = ResultsDoc::parse_str(doc_json).expect("valid results document");
    doc.wall_time_s = 0.0;
    doc.to_json()
}

#[test]
fn served_document_matches_run_and_resubmission_hits_the_cache() {
    let spec = ExperimentSpec::parse_str(SPEC).expect("test spec parses");

    // The reference: the exact document `swim run` would emit.
    let args = Args::try_parse_from(std::iter::empty::<String>()).expect("empty args");
    let opts = options_from_args(&spec, &args).expect("run options");
    let reference = run_spec(&spec, &opts).expect("reference run");

    let engine =
        Arc::new(ServiceEngine::new(opts.tuning.gemm_threads, opts.tuning.gemm_block_cols));
    let server = Server::new(engine, ServerConfig { workers: 2, ..ServerConfig::default() });

    // First submission: the two blocks share one training prefix, so
    // exactly one of them misses (trains) and the other hits.
    let created = server.handle(&request("POST", "/jobs", SPEC.as_bytes()));
    assert_eq!(created.status, 201, "{}", String::from_utf8_lossy(&created.body));
    let id = field(&body_json(&created), "id").as_str().expect("job id").to_string();
    let status = wait_terminal(&server, &id);
    assert_eq!(field(&status, "state").as_str(), Some("done"), "{}", status.to_json());
    let blocks = field(&status, "blocks").as_array().expect("blocks array");
    assert_eq!(blocks.len(), 2);
    let misses = blocks.iter().filter(|b| field(b, "cache_hit").as_bool() == Some(false)).count();
    assert_eq!(misses, 1, "{}", status.to_json());
    assert_eq!(field(&status, "cache_hits").as_int(), Some(1));

    let served = server.handle(&request("GET", &format!("/jobs/{id}/result"), b""));
    assert_eq!(served.status, 200);
    let served_doc = String::from_utf8(served.body).expect("utf-8 document");
    assert_eq!(
        normalized(&served_doc),
        normalized(&reference.to_json()),
        "served document differs from `swim run` beyond wall_time_s"
    );

    // Resubmission: the same spec prefix — every block must reuse the
    // cached preparation (no training) and still produce the identical
    // document.
    let resubmitted = server.handle(&request("POST", "/jobs", SPEC.as_bytes()));
    assert_eq!(resubmitted.status, 201);
    let id2 = field(&body_json(&resubmitted), "id").as_str().expect("job id").to_string();
    assert_ne!(id, id2);
    let status2 = wait_terminal(&server, &id2);
    assert_eq!(field(&status2, "state").as_str(), Some("done"), "{}", status2.to_json());
    for block in field(&status2, "blocks").as_array().expect("blocks array") {
        assert_eq!(field(block, "cache_hit").as_bool(), Some(true), "{}", block.to_json());
    }
    assert_eq!(field(&status2, "cache_hits").as_int(), Some(2));

    let served2 = server.handle(&request("GET", &format!("/jobs/{id2}/result"), b""));
    assert_eq!(served2.status, 200);
    let served_doc2 = String::from_utf8(served2.body).expect("utf-8 document");
    assert_eq!(normalized(&served_doc2), normalized(&served_doc));

    // The cache traffic is visible in /metrics: 1 miss and 1 hit (first
    // job), 2 hits (resubmission).
    let metrics = server.handle(&request("GET", "/metrics", b""));
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).expect("utf-8 metrics");
    assert!(text.contains("swim_prep_cache_hits_total 3"), "{text}");
    assert!(text.contains("swim_prep_cache_misses_total 1"), "{text}");
    assert!(text.contains("swim_jobs_done_total 2"), "{text}");
}

/// The evaluation batch is not part of the preparation fingerprint, but
/// it is part of the sensitivity memo's key (summation order changes the
/// bits). A cached entry built at one batch must serve a spec at another
/// as a cache hit whose document equals `swim run` of that spec.
#[test]
fn cache_hit_at_another_eval_batch_matches_run() {
    let spec_b_text = SPEC.replace("runs = 2", "runs = 2\neval_batch = 50");
    let spec_a = ExperimentSpec::parse_str(SPEC).expect("test spec parses");
    let spec_b = ExperimentSpec::parse_str(&spec_b_text).expect("batch-B spec parses");
    assert_ne!(spec_a.montecarlo.eval_batch, spec_b.montecarlo.eval_batch);

    let args = Args::try_parse_from(std::iter::empty::<String>()).expect("empty args");
    let opts = options_from_args(&spec_b, &args).expect("run options");
    let reference = run_spec(&spec_b, &opts).expect("reference run");

    let engine =
        Arc::new(ServiceEngine::new(opts.tuning.gemm_threads, opts.tuning.gemm_block_cols));
    let server = Server::new(engine, ServerConfig { workers: 2, ..ServerConfig::default() });
    let submit = |text: &str| {
        let created = server.handle(&request("POST", "/jobs", text.as_bytes()));
        assert_eq!(created.status, 201, "{}", String::from_utf8_lossy(&created.body));
        let id = field(&body_json(&created), "id").as_str().expect("job id").to_string();
        let status = wait_terminal(&server, &id);
        assert_eq!(field(&status, "state").as_str(), Some("done"), "{}", status.to_json());
        (id, status)
    };

    // Batch A fills the cache (and memoizes sensitivities at A): its
    // first block trains, its second reuses that training.
    let (_, status_a) = submit(SPEC);
    assert_eq!(field(&status_a, "cache_hits").as_int(), Some(1));

    // Batch B hits the same entries and recomputes its sensitivities.
    let (id_b, status_b) = submit(&spec_b_text);
    for block in field(&status_b, "blocks").as_array().expect("blocks array") {
        assert_eq!(field(block, "cache_hit").as_bool(), Some(true), "{}", block.to_json());
    }
    let served = server.handle(&request("GET", &format!("/jobs/{id_b}/result"), b""));
    assert_eq!(served.status, 200);
    let served_doc = String::from_utf8(served.body).expect("utf-8 document");
    assert_eq!(
        normalized(&served_doc),
        normalized(&reference.to_json()),
        "batch-B document served from a batch-A cache entry differs from `swim run`"
    );
}

/// The cache key is the training prefix, and each key is filled by one
/// block however many ask at once: the two blocks of a 2-sigma job
/// always train exactly once — when released together by a barrier,
/// and on a 2-worker pool, repeated on fresh servers so that a
/// timing-dependent split (two racing misses) would show.
#[test]
fn two_sigma_job_trains_once_whatever_the_timing() {
    let spec_text = SPEC.replace("samples = 300", "samples = 120");
    let spec = ExperimentSpec::parse_str(&spec_text).expect("test spec parses");
    assert_eq!(spec.device.sigmas.len(), 2);
    let args = Args::try_parse_from(std::iter::empty::<String>()).expect("empty args");
    let opts = options_from_args(&spec, &args).expect("run options");
    let reference = normalized(&run_spec(&spec, &opts).expect("reference run").to_json());

    // Forced interleaving: both blocks ask a fresh engine for the same
    // missing key at once; one trains, the other waits for it.
    let engine = ServiceEngine::new(opts.tuning.gemm_threads, opts.tuning.gemm_block_cols);
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for &sigma in &spec.device.sigmas {
            let (engine, barrier, spec) = (&engine, &barrier, &spec);
            scope.spawn(move || {
                barrier.wait();
                engine.run_block(spec, &spec.device.models[0], sigma).expect("block runs");
            });
        }
    });
    assert_eq!(engine.cache_counters(), (1, 1), "(hits, misses)");

    for attempt in 0..20 {
        let engine =
            Arc::new(ServiceEngine::new(opts.tuning.gemm_threads, opts.tuning.gemm_block_cols));
        let server = Server::new(engine, ServerConfig { workers: 2, ..ServerConfig::default() });
        let created = server.handle(&request("POST", "/jobs", spec_text.as_bytes()));
        assert_eq!(created.status, 201, "{}", String::from_utf8_lossy(&created.body));
        let id = field(&body_json(&created), "id").as_str().expect("job id").to_string();
        let status = wait_terminal(&server, &id);
        assert_eq!(field(&status, "state").as_str(), Some("done"), "{}", status.to_json());

        let metrics = server.handle(&request("GET", "/metrics", b""));
        let text = String::from_utf8(metrics.body).expect("utf-8 metrics");
        assert!(text.contains("swim_prep_cache_misses_total 1"), "attempt {attempt}: {text}");
        assert!(text.contains("swim_prep_cache_hits_total 1"), "attempt {attempt}: {text}");

        let served = server.handle(&request("GET", &format!("/jobs/{id}/result"), b""));
        assert_eq!(served.status, 200);
        let served_doc = String::from_utf8(served.body).expect("utf-8 document");
        assert_eq!(normalized(&served_doc), reference, "attempt {attempt}: served ≠ `swim run`");
    }
}

/// A job's `run.simd` pin holds for that job only: served beside an
/// unpinned job with the same training prefix, the scalar-pinned job
/// trains its own model (the backend is part of the prep fingerprint)
/// and its document equals `swim run` under a forced scalar backend.
#[test]
fn scalar_pinned_job_served_beside_an_unpinned_one() {
    use swim_tensor::simd::{self, with_backend, Backend};
    let pinned_text = SPEC.replace("[montecarlo]", "[run]\nsimd = \"scalar\"\n\n[montecarlo]");
    let pinned = ExperimentSpec::parse_str(&pinned_text).expect("pinned spec parses");
    assert_eq!(pinned.run.simd.as_deref(), Some("scalar"));
    let args = Args::try_parse_from(std::iter::empty::<String>()).expect("empty args");
    let opts = options_from_args(&pinned, &args).expect("run options");
    let reference =
        with_backend(Backend::Scalar, || run_spec(&pinned, &opts)).unwrap().expect("reference run");

    let engine =
        Arc::new(ServiceEngine::new(opts.tuning.gemm_threads, opts.tuning.gemm_block_cols));
    let server = Server::new(engine, ServerConfig { workers: 2, ..ServerConfig::default() });
    let ids: Vec<String> = [SPEC, pinned_text.as_str()]
        .iter()
        .map(|text| {
            let created = server.handle(&request("POST", "/jobs", text.as_bytes()));
            assert_eq!(created.status, 201, "{}", String::from_utf8_lossy(&created.body));
            field(&body_json(&created), "id").as_str().expect("job id").to_string()
        })
        .collect();
    for id in &ids {
        let status = wait_terminal(&server, id);
        assert_eq!(field(&status, "state").as_str(), Some("done"), "{}", status.to_json());
    }

    // One training per backend: two where the default is a vector
    // backend, one where it already is scalar.
    let misses = if simd::backend() == Backend::Scalar { 1 } else { 2 };
    let metrics = server.handle(&request("GET", "/metrics", b""));
    let text = String::from_utf8(metrics.body).expect("utf-8 metrics");
    assert!(text.contains(&format!("swim_prep_cache_misses_total {misses}")), "{text}");

    let served = server.handle(&request("GET", &format!("/jobs/{}/result", ids[1]), b""));
    assert_eq!(served.status, 200);
    let served_doc = String::from_utf8(served.body).expect("utf-8 document");
    assert_eq!(
        normalized(&served_doc),
        normalized(&reference.to_json()),
        "scalar-pinned served document differs from `swim run` under a scalar backend"
    );
}

/// A job's own `[tune]` pins hold for that job: the engine runs it
/// under `tune.gemm_block = 96` over an unpinned engine policy, records
/// the pin, and serves the bytes `run_spec` writes for the same spec.
#[test]
fn job_tune_pins_hold_and_match_run_spec() {
    let pinned_text =
        SPEC.replace("[montecarlo]", "[tune]\nmode = \"off\"\ngemm_block = 96\n\n[montecarlo]");
    let spec = ExperimentSpec::parse_str(&pinned_text).expect("pinned spec parses");
    let args = Args::try_parse_from(std::iter::empty::<String>()).expect("empty args");
    let opts = options_from_args(&spec, &args).expect("run options");
    let direct = run_spec(&spec, &opts).expect("reference run");
    assert_eq!(direct.tuning.gemm_block_cols, 96);

    let engine = ServiceEngine::new(opts.tuning.gemm_threads, 0);
    engine.validate(&spec).expect("a job's own [tune] section is accepted");
    let payloads = engine
        .grid(&spec)
        .iter()
        .map(|(model, sigma)| engine.run_block(&spec, model, *sigma).expect("block").payload)
        .collect();
    let served = engine.assemble(&spec, payloads, 0.0).expect("assembly");
    let served_doc = ResultsDoc::parse_str(&served).expect("served document parses");
    assert_eq!(served_doc.tuning.gemm_block_cols, 96);
    assert_eq!(served_doc.tuning.mode, "off");
    assert_eq!(normalized(&served), normalized(&direct.to_json()), "served ≠ run_spec");
}
