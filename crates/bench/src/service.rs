//! The `swim serve` engine: [`swim_serve::JobEngine`] implemented on
//! the real experiment machinery, plus the CLI entry point.
//!
//! Three responsibilities live here, on the bench side of the
//! service/engine seam:
//!
//! 1. **Block computation.** One `(device model, sigma)` block is
//!    `sweep_block` over the spec's shared preparation — the same
//!    function `swim run` calls. Intra-block Monte Carlo runs serially
//!    (`threads = 1`); all parallelism comes from the service scheduling
//!    many blocks of many jobs onto the shared
//!    [`swim_core::pool::WorkerPool`] — this is what replaces the CLI's
//!    per-sweep fan-out of Monte Carlo workers. The pool's threads are
//!    parallel workers (`swim_tensor::par`), so a block's matrix
//!    products run serially too. Results are unaffected: the Monte Carlo
//!    harness is bit-identical across thread counts by construction.
//! 2. **The prepared-model cache.** Preparation (train → quantize →
//!    sensitivities) is the expensive, highly shareable stage. It is
//!    keyed by [`ExperimentSpec::prep_fingerprint`] — the canonical hash
//!    of the training prefix (seed, SIMD backend, scenario, training
//!    budget), which excludes the device — so every block of a
//!    job, and every later job with the same prefix, rebinds a copy of
//!    one entry to its own `(device model, sigma)`. Each key holds a
//!    `OnceLock`: concurrent blocks asking for a missing key wait for
//!    one training instead of each running their own, so a key misses
//!    exactly once. An entry carries its memoized sensitivities, so a
//!    hit at the same evaluation batch also skips the second-derivative
//!    pass (another batch recomputes them for that block only). Hits and
//!    misses surface in `/metrics` and in per-block job provenance.
//! 3. **Document assembly.** Blocks complete in arbitrary order on the
//!    pool; the final document replays them through a quiet
//!    `Collector` in grid order with `emit_block` (as `swim merge`
//!    does), so the served document is byte-identical to `swim run`'s
//!    for the same spec — modulo `wall_time_s`, the one legitimately
//!    differing field.

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use swim_exp::spec::{ExperimentKind, ExperimentSpec};
use swim_serve::server::{BlockOutcome, BlockPayload, JobEngine};
use swim_serve::{serve_forever, Server, ServerConfig};

use crate::cli::Args;
use crate::driver::DriverConfig;
use crate::experiment::{
    emit_block, model_sigma_grid, prepare_shared, results_document, sweep_block, with_spec_config,
    Block, Collector,
};
use crate::prep::Prepared;
use swim_tensor::tune::{self, KernelTuning};

/// The real engine: prepared-model cache + block compute + assembly.
///
/// Every job runs under its own kernel configuration: its `run.simd`
/// backend over the engine's GEMM pins and the process default,
/// entered per block and for assembly on whichever pool worker runs
/// them. Jobs with different backends never share a
/// preparation, because the backend is part of the prep fingerprint.
pub struct ServiceEngine {
    /// Shared preparations keyed by training fingerprint; each cell is
    /// filled by exactly one block.
    cache: Mutex<HashMap<String, Arc<OnceLock<Prepared>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    gemm_threads: usize,
    gemm_block: usize,
}

impl ServiceEngine {
    /// An engine with an empty cache and the given GEMM pins (`0` = the
    /// built-in default; `swim serve` pins neither).
    pub fn new(gemm_threads: usize, gemm_block: usize) -> ServiceEngine {
        ServiceEngine {
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            gemm_threads,
            gemm_block,
        }
    }

    /// Runs `f` under `spec`'s kernel configuration, layered over the
    /// engine's GEMM pins and the process default.
    fn in_job_config<R>(&self, spec: &ExperimentSpec, f: impl FnOnce() -> R) -> Result<R, String> {
        let base = KernelTuning {
            gemm_threads: self.gemm_threads,
            gemm_block_cols: self.gemm_block,
            ..tune::current()
        };
        with_spec_config(spec, &base, f)
    }
}

impl JobEngine for ServiceEngine {
    fn validate(&self, spec: &ExperimentSpec) -> Result<(), String> {
        if !matches!(
            spec.kind,
            ExperimentKind::Sweep | ExperimentKind::Table1 | ExperimentKind::Fig2
        ) {
            return Err(format!(
                "kind `{}` has no (model, sigma) block structure; the service runs the \
                 block-structured kinds (sweep, table1, fig2) — use `swim run` for the others",
                spec.kind.key()
            ));
        }
        if spec.run.shard.is_some() {
            return Err(
                "sharded specs are not accepted over the service (submit the unsharded spec; \
                 the scheduler already parallelizes across blocks)"
                    .into(),
            );
        }
        // A backend this host cannot execute fails the submission, not
        // the job's first block.
        self.in_job_config(spec, || ())
    }

    fn grid(&self, spec: &ExperimentSpec) -> Vec<(String, f64)> {
        model_sigma_grid(spec)
    }

    fn run_block(
        &self,
        spec: &ExperimentSpec,
        device_model: &str,
        sigma: f64,
    ) -> Result<BlockOutcome, String> {
        self.in_job_config(spec, || {
            let prep_start = Instant::now();
            // The map lock covers only the lookup; training happens in the
            // key's own cell, so misses on unrelated keys train in parallel
            // while blocks on the same key wait for its one training.
            let cell = Arc::clone(
                self.cache
                    .lock()
                    .expect("prep cache lock")
                    .entry(spec.prep_fingerprint())
                    .or_default(),
            );
            let mut cache_hit = true;
            let shared = cell.get_or_init(|| {
                cache_hit = false;
                prepare_shared(spec)
            });
            let counter = if cache_hit { &self.hits } else { &self.misses };
            counter.fetch_add(1, Ordering::Relaxed);
            let prep_seconds = prep_start.elapsed().as_secs_f64();

            let sweep_start = Instant::now();
            let mut cfg = DriverConfig::from_spec(spec, 0, 0);
            // Serial Monte Carlo inside the block: concurrency comes from
            // the shared pool running many blocks at once, and the harness
            // is bit-identical across thread counts, so this changes
            // nothing but scheduling.
            cfg.threads = 1;
            let block = sweep_block(spec, shared, device_model, sigma, &cfg);
            let sweep_seconds = sweep_start.elapsed().as_secs_f64();

            BlockOutcome { payload: Box::new(block), cache_hit, prep_seconds, sweep_seconds }
        })
    }

    fn assemble(
        &self,
        spec: &ExperimentSpec,
        payloads: Vec<BlockPayload>,
        wall_time_s: f64,
    ) -> Result<String, String> {
        let blocks = model_sigma_grid(spec).len();
        if payloads.len() != blocks {
            return Err(format!(
                "assembly got {} block payload(s) for a {blocks}-block grid",
                payloads.len()
            ));
        }
        // Replay presentation in grid order on a quiet collector — the
        // same path `swim merge` uses, which is what makes the served
        // document byte-identical to `swim run`'s (modulo wall time).
        let mut collector = Collector::quiet();
        for payload in payloads {
            let block = payload
                .downcast::<Block>()
                .map_err(|_| "block payload is not a Block".to_string())?;
            emit_block(spec, false, &mut collector, &block);
        }
        // The header records the job's backend and tuning.
        self.in_job_config(spec, || results_document(spec, collector, wall_time_s).to_json())
    }

    fn cache_counters(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

/// `swim serve`: bind, print the listen line, serve until killed.
pub fn serve_main(args: &Args) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let workers = args.get_usize("workers", 0)?;
    let queue_cap = args.get_usize("queue-cap", 16)?;
    if queue_cap == 0 {
        return Err("--queue-cap must be positive".into());
    }
    let engine = Arc::new(ServiceEngine::new(0, 0));
    let server = Server::new(engine, ServerConfig { workers, queue_cap, max_body_bytes: 1 << 20 });
    let listener = TcpListener::bind(&addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    println!(
        "swim serve: listening on http://{local} ({} pool worker(s), queue cap {queue_cap})",
        server.workers()
    );
    println!("endpoints: POST /jobs · GET /jobs/{{id}} · GET /jobs/{{id}}/result · DELETE /jobs/{{id}} · GET /metrics");
    let err = serve_forever(server, listener);
    Err(format!("accept loop failed: {err}"))
}
