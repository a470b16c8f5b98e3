//! Deterministic parallel Monte Carlo harness.
//!
//! The paper reports every number as mean ± std over 3,000 Monte Carlo
//! runs. This module parallelizes such replication across threads while
//! keeping results *independent of the schedule*: run `r` always draws
//! from the forked stream `base.fork(r)`, so `--threads 1` and
//! `--threads 32` produce bit-identical statistics.
//!
//! Every replication goes through one row entry, [`fill_rows`]: the
//! selector sweeps and the in-situ baseline fill a preallocated
//! `runs × row` matrix with it, and [`parallel_map`] is its
//! one-slot-per-run wrapper. Its workers are the shared
//! [`swim_tensor::par::fan_out`] threads, which compute under the
//! caller's kernel configuration (SIMD backend, GEMM knobs).

use crate::model::{EvalScratch, QuantizedModel};
use crate::select::{mask_top_fraction_into, SelectionInputs, Selector};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use swim_data::Dataset;
use swim_tensor::par::fan_out;
use swim_tensor::stats::Running;
use swim_tensor::Prng;

/// Runs `f(run_index, rng)` for `runs` independent runs across
/// `threads` worker threads, preserving result order.
///
/// A one-slot-per-run wrapper over [`fill_rows`]. Run `r` always draws
/// from `base.fork(r)`, so the output is bit-identical for every
/// `threads` setting.
///
/// `runs == 0` returns an empty vector without spawning any workers.
///
/// # Panics
///
/// Panics if `threads` is zero (use 1 for serial execution), or if `f`
/// panics for some run — in that case the panic is propagated with the
/// lowest offending run index and that run's panic message.
pub fn parallel_map<T, F>(runs: usize, threads: usize, base: &Prng, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Prng) -> T + Sync,
{
    let mut slots: Vec<Option<T>> = (0..runs).map(|_| None).collect();
    let faults = fill_rows(
        runs,
        1,
        threads,
        base,
        0,
        PanicPolicy::Isolate,
        &mut slots,
        || (),
        |(), r, rng, slot| slot[0] = Some(f(r, rng)),
    );
    if let Some(fault) = faults.first() {
        panic!("parallel_map: run {} panicked: {}", fault.run, fault.message);
    }
    slots.into_iter().map(|slot| slot.expect("every run index was processed")).collect()
}

/// What the harness does when one Monte Carlo run panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PanicPolicy {
    /// Propagate the first panic with its run index, aborting the sweep
    /// (the historical behavior, and the default).
    #[default]
    FailFast,
    /// Record the fault and keep sweeping; statistics then cover the
    /// surviving runs only and the faults are reported alongside them.
    Isolate,
}

impl PanicPolicy {
    /// Stable spec key (`[montecarlo] on_panic`).
    pub fn key(self) -> &'static str {
        match self {
            PanicPolicy::FailFast => "fail-fast",
            PanicPolicy::Isolate => "isolate",
        }
    }

    /// Parses a spec key back into a policy.
    pub fn parse(name: &str) -> Option<PanicPolicy> {
        match name {
            "fail-fast" => Some(PanicPolicy::FailFast),
            "isolate" => Some(PanicPolicy::Isolate),
            _ => None,
        }
    }
}

/// One Monte Carlo run that panicked under [`PanicPolicy::Isolate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunFault {
    /// Global run index — the PRNG fork stream id, so the failure can be
    /// replayed in isolation regardless of sharding or thread count.
    pub run: usize,
    /// Rendered panic payload.
    pub message: String,
}

/// Runs `f(state, run_index, rng, row)` for `runs` independent runs
/// across `threads` worker threads, writing results into a
/// caller-provided flat row-major matrix — the harness's one row entry.
///
/// Local run `r` receives the mutable row `out[r·row_len .. (r+1)·row_len]`,
/// must fully overwrite it, and draws only from
/// `base.fork(run_offset + r)` — the stream the same global run would use
/// in an unsharded sweep — so a seed-range shard fills exactly the rows
/// `run_offset .. run_offset + runs` of the full matrix, bit-identically.
///
/// This is the zero-allocation form of the harness: the caller allocates
/// the matrix once, so a run adds no per-run heap traffic (provided `f`
/// itself is allocation-free — which the sweep closure is, see
/// `tests/alloc_free.rs`). The happy path allocates nothing for the fault
/// machinery either.
///
/// `init` runs once on each worker thread (and once in total on the
/// serial path); the resulting state is passed `&mut` to every run that
/// worker executes. This is how the sweep harness reuses one cloned
/// network and one set of programming buffers across a worker's whole
/// share of the Monte Carlo budget. `f` must be *state-oblivious*: the
/// row written for run `r` must not depend on what previous runs left in
/// the scratch. Under that condition the matrix contents are
/// bit-identical for every `threads` value.
///
/// The workers are [`swim_tensor::par::fan_out`] threads: they pull
/// chunks of whole rows from one queue and compute under the caller's
/// kernel configuration. Under [`PanicPolicy::Isolate`] a panicking run
/// is recorded (global index plus rendered payload) instead of aborting;
/// its row keeps whatever the caller prefilled. The returned faults are
/// sorted by run index.
///
/// # Panics
///
/// Panics if `threads` or `row_len` is zero, or if
/// `out.len() != runs · row_len`. Under [`PanicPolicy::FailFast`] the
/// first panicking run stops the sweep and is propagated as
/// `"fill_rows: run {r} panicked: {message}"` with its global index.
#[allow(clippy::too_many_arguments)]
pub fn fill_rows<P, S>(
    runs: usize,
    row_len: usize,
    threads: usize,
    base: &Prng,
    run_offset: usize,
    policy: PanicPolicy,
    out: &mut [P],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, Prng, &mut [P]) + Sync,
) -> Vec<RunFault>
where
    P: Send,
{
    assert!(threads > 0, "threads must be positive");
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(out.len(), runs * row_len, "output matrix size mismatch");
    if runs == 0 {
        return Vec::new();
    }
    let workers = threads.min(runs);
    // Chunks several times smaller than a fair share keep the queue
    // balancing uneven run times without lock traffic per run. Chunk
    // boundaries stay on whole rows.
    let chunk_rows = (runs / (workers * 4)).max(1);
    let faults: Mutex<Vec<RunFault>> = Mutex::new(Vec::new());
    let abort = AtomicBool::new(false);
    let chunks = out.chunks_mut(chunk_rows * row_len).enumerate();
    fan_out(workers, chunks, init, |state, (ci, chunk)| {
        for (offset, row) in chunk.chunks_mut(row_len).enumerate() {
            if abort.load(Ordering::Relaxed) {
                return;
            }
            let r = run_offset + ci * chunk_rows + offset;
            let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                f(state, r, base.fork(r as u64), row)
            }));
            if let Err(payload) = run {
                let fault = RunFault { run: r, message: panic_detail(payload.as_ref()) };
                faults.lock().unwrap_or_else(PoisonError::into_inner).push(fault);
                if policy == PanicPolicy::FailFast {
                    abort.store(true, Ordering::Relaxed);
                }
            }
        }
    });

    let mut faults = faults.into_inner().unwrap_or_else(PoisonError::into_inner);
    faults.sort_by_key(|f| f.run);
    if policy == PanicPolicy::FailFast {
        if let Some(first) = faults.first() {
            panic!("fill_rows: run {} panicked: {}", first.run, first.message);
        }
    }
    faults
}

/// Renders a caught panic payload for the rethrown message.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One point of an accuracy-vs-NWC sweep: statistics over all runs at a
/// target selection fraction.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Fraction of weights selected for write-verify.
    pub fraction: f64,
    /// Measured normalized write cycles (mean over runs).
    pub nwc: f64,
    /// Accuracy statistics over the Monte Carlo runs (in percent).
    pub accuracy: Running,
    /// Worst single run's accuracy (percent) — the tail-risk floor the
    /// mean hides.
    pub accuracy_min: f64,
    /// 5th-percentile accuracy over the runs (percent, linear
    /// interpolation between sorted ranks).
    pub accuracy_p05: f64,
}

/// Linear-interpolated quantile of an ascending-sorted sample, `q` in
/// `[0, 1]` (0 gives the minimum, 1 the maximum).
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is out of range.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Configuration of an accuracy-vs-NWC sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Selection fractions to evaluate (the paper's NWC grid).
    pub fractions: Vec<f64>,
    /// Monte Carlo runs (paper: 3,000).
    pub runs: usize,
    /// Worker threads.
    pub threads: usize,
    /// Evaluation batch size.
    pub eval_batch: usize,
    /// Base seed.
    pub seed: u64,
    /// Global index of the first run: local run `r` draws from
    /// `base.fork(run_offset + r)`. Non-zero for seed-range shards, which
    /// therefore reproduce exactly the rows `run_offset .. run_offset +
    /// runs` of the unsharded sweep's matrix.
    pub run_offset: usize,
    /// What happens when one Monte Carlo run panics.
    pub on_panic: PanicPolicy,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            fractions: vec![0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0],
            runs: 100,
            threads: swim_tensor::tune::detected_parallelism(),
            eval_batch: 256,
            seed: 0,
            run_offset: 0,
            on_panic: PanicPolicy::FailFast,
        }
    }
}

/// Sweeps accuracy versus NWC for one selection strategy.
///
/// For deterministic selectors the ranking is computed once (it is a
/// property of the trained model); for stochastic selectors
/// ([`Selector::is_stochastic`], e.g. the random baseline) a fresh
/// ranking is drawn inside each run, exactly as the paper's baseline
/// re-selects randomly each time.
///
/// The legacy [`crate::select::Strategy`] enum implements [`Selector`],
/// so existing call sites pass `&Strategy::Swim` etc.
///
/// Returned accuracies are percentages (0–100) to match the paper's
/// tables.
///
/// # Panics
///
/// Panics if `sensitivities`/`magnitudes` lengths mismatch the model.
pub fn nwc_sweep(
    model: &QuantizedModel,
    selector: &dyn Selector,
    sensitivities: &[f32],
    magnitudes: &[f32],
    eval: &Dataset,
    config: &SweepConfig,
) -> Vec<SweepPoint> {
    nwc_sweep_outcome(model, selector, sensitivities, magnitudes, eval, config).points
}

/// The complete result of one sweep: the aggregated curve, the raw
/// per-run matrix it was aggregated from, and any isolated faults.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Aggregated statistics per fraction (what [`nwc_sweep`] returns).
    pub points: Vec<SweepPoint>,
    /// Row-major `runs × fractions` matrix of `(accuracy %, measured
    /// NWC)` exactly as each run produced it — the mergeable form: rows
    /// from different seed-range shards concatenate into the unsharded
    /// matrix. Faulted rows stay `(0.0, 0.0)`.
    pub raw: Vec<(f64, f64)>,
    /// Runs that panicked under [`PanicPolicy::Isolate`] (global
    /// indices, sorted). Empty under fail-fast.
    pub faults: Vec<RunFault>,
}

/// [`nwc_sweep`] returning the raw per-run matrix and isolated faults
/// alongside the aggregated points — the building block for seed-range
/// sharding and `swim merge`.
///
/// A thin wrapper: [`nwc_denominator`] then [`nwc_sweep_with_denominator`].
/// Callers sweeping several selectors over one model and seed compute
/// the denominator once and call the latter directly.
pub fn nwc_sweep_outcome(
    model: &QuantizedModel,
    selector: &dyn Selector,
    sensitivities: &[f32],
    magnitudes: &[f32],
    eval: &Dataset,
    config: &SweepConfig,
) -> SweepOutcome {
    let denom = if config.fractions.is_empty() { 0.0 } else { nwc_denominator(model, config.seed) };
    nwc_sweep_with_denominator(model, selector, sensitivities, magnitudes, eval, config, denom)
}

/// The NWC = 1.0 denominator of a sweep seeded with `seed`: the pulses
/// to write-verify every weight of `model`, simulated on the sweep's
/// dedicated `fork(u64::MAX)` stream so it never perturbs a run's draws.
/// A property of (model, seed) alone, so one value serves every
/// selector swept with that seed.
pub fn nwc_denominator(model: &QuantizedModel, seed: u64) -> f64 {
    model.write_verify_all_cost(&mut Prng::seed_from_u64(seed).fork(u64::MAX)) as f64
}

/// [`nwc_sweep_outcome`] with the NWC denominator given — it must be
/// [`nwc_denominator`]`(model, config.seed)` for the documented
/// semantics.
pub fn nwc_sweep_with_denominator(
    model: &QuantizedModel,
    selector: &dyn Selector,
    sensitivities: &[f32],
    magnitudes: &[f32],
    eval: &Dataset,
    config: &SweepConfig,
    denom: f64,
) -> SweepOutcome {
    assert_eq!(sensitivities.len(), model.weight_count(), "sensitivities length mismatch");
    assert_eq!(magnitudes.len(), model.weight_count(), "magnitudes length mismatch");
    for &f in &config.fractions {
        assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
    }

    if config.fractions.is_empty() {
        return SweepOutcome { points: Vec::new(), raw: Vec::new(), faults: Vec::new() };
    }

    let base = Prng::seed_from_u64(config.seed);
    let spans = model.param_spans();
    let inputs = SelectionInputs::with_spans(sensitivities, magnitudes, &spans);
    let fixed_ranking =
        if selector.is_stochastic() { None } else { Some(selector.rank(&inputs, None)) };

    // Each run fills its (accuracy %, measured NWC)-per-fraction row of
    // one preallocated matrix. Workers reuse one EvalScratch (network
    // clone, programming buffers, ranking buffer, activation arena) for
    // their whole share of the runs; every buffer is fully overwritten
    // per run, so the reuse is invisible in the statistics — and a
    // steady-state run performs zero heap allocations (see
    // `tests/alloc_free.rs`).
    let nf = config.fractions.len();
    let mut per_run = vec![(0.0f64, 0.0f64); config.runs * nf];
    let faults = fill_rows(
        config.runs,
        nf,
        config.threads,
        &base,
        config.run_offset,
        config.on_panic,
        &mut per_run,
        || EvalScratch::new(model),
        |scratch, _, mut rng, row| {
            let EvalScratch { network, mask, codes, weights, ranking, arena } = scratch;
            let order: &[usize] = match &fixed_ranking {
                Some(r) => r,
                None => {
                    selector.rank_into(&inputs, Some(&mut rng), ranking);
                    ranking
                }
            };
            for (slot, &fraction) in row.iter_mut().zip(&config.fractions) {
                mask_top_fraction_into(order, fraction, mask);
                let summary = model.program_weights_into(Some(&mask[..]), &mut rng, codes, weights);
                network.set_device_weights(weights);
                let acc =
                    network.accuracy_with(eval.images(), eval.labels(), config.eval_batch, arena);
                *slot = (100.0 * acc, summary.verify_pulses as f64 / denom);
            }
        },
    );

    // Local indices of faulted rows, for the aggregation to skip. Empty
    // on the happy path (an empty Vec never allocates, so the alloc_free
    // gate is unaffected); faults arrive sorted by global run index.
    let skip: Vec<usize> = faults.iter().map(|f| f.run - config.run_offset).collect();
    let points = aggregate_sweep_rows(&config.fractions, &per_run, &skip);
    SweepOutcome { points, raw: per_run, faults }
}

/// Aggregates a row-major `runs × fractions` raw matrix into
/// [`SweepPoint`]s, pushing surviving rows in row order — exactly the
/// accumulation the sweep itself performs, so re-aggregating the
/// concatenated raw matrices of a complete shard partition is
/// bit-identical to the unsharded sweep. `skip_rows` lists faulted row
/// indices to leave out, sorted ascending.
pub fn aggregate_sweep_rows(
    fractions: &[f64],
    raw: &[(f64, f64)],
    skip_rows: &[usize],
) -> Vec<SweepPoint> {
    let nf = fractions.len();
    if nf == 0 {
        return Vec::new();
    }
    assert_eq!(raw.len() % nf, 0, "raw matrix is not whole rows");
    let runs = raw.len() / nf;
    // One sort buffer for the tail statistics, allocated once per sweep
    // (never per run — the alloc_free gate requires the allocation-event
    // count to be independent of the run count; `sort_unstable_by` does
    // not allocate).
    let mut sorted = Vec::with_capacity(runs);
    let mut points = Vec::with_capacity(nf);
    for (fi, &fraction) in fractions.iter().enumerate() {
        let mut accuracy = Running::new();
        let mut nwc = Running::new();
        sorted.clear();
        for (ri, run) in raw.chunks_exact(nf).enumerate() {
            if skip_rows.binary_search(&ri).is_ok() {
                continue;
            }
            accuracy.push(run[fi].0);
            nwc.push(run[fi].1);
            sorted.push(run[fi].0);
        }
        sorted.sort_unstable_by(f64::total_cmp);
        let (accuracy_min, accuracy_p05) = if sorted.is_empty() {
            (0.0, 0.0)
        } else {
            (sorted[0], percentile_sorted(&sorted, 0.05))
        };
        points.push(SweepPoint { fraction, nwc: nwc.mean(), accuracy, accuracy_min, accuracy_p05 });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::Strategy;
    use swim_cim::DeviceConfig;
    use swim_nn::layers::{Flatten, Linear, Relu, Sequential};
    use swim_nn::loss::SoftmaxCrossEntropy;
    use swim_nn::Network;
    use swim_tensor::Tensor;

    #[test]
    fn parallel_map_is_schedule_independent() {
        let base = Prng::seed_from_u64(5);
        let serial = parallel_map(16, 1, &base, |r, mut rng| (r, rng.next_u64()));
        let parallel = parallel_map(16, 8, &base, |r, mut rng| (r, rng.next_u64()));
        assert_eq!(serial, parallel);
        // Results arrive in run order.
        for (i, (r, _)) in serial.iter().enumerate() {
            assert_eq!(i, *r);
        }
    }

    #[test]
    fn parallel_map_zero_runs_returns_empty() {
        let base = Prng::seed_from_u64(1);
        let out: Vec<u64> = parallel_map(0, 1, &base, |_, mut rng| rng.next_u64());
        assert!(out.is_empty());
        // Must not spawn a worker (and certainly not panic) when there
        // are more threads than runs.
        let out: Vec<u64> = parallel_map(0, 8, &base, |_, mut rng| rng.next_u64());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "run 3 panicked: boom at 3")]
    fn parallel_map_propagates_panic_with_run_index() {
        let base = Prng::seed_from_u64(2);
        let _ = parallel_map(8, 4, &base, |r, _| {
            if r == 3 {
                panic!("boom at {r}");
            }
            r
        });
    }

    #[test]
    #[should_panic(expected = "parallel_map: run 5 panicked: worker exploded")]
    fn parallel_map_propagates_panic_serially_too() {
        let base = Prng::seed_from_u64(3);
        let _ = parallel_map(8, 1, &base, |r, _| {
            assert!(r != 5, "worker exploded");
            r
        });
    }

    #[test]
    fn parallel_map_more_threads_than_runs() {
        let base = Prng::seed_from_u64(4);
        let serial: Vec<u64> = parallel_map(3, 1, &base, |_, mut rng| rng.next_u64());
        let wide: Vec<u64> = parallel_map(3, 64, &base, |_, mut rng| rng.next_u64());
        assert_eq!(serial, wide);
    }

    #[test]
    fn parallel_fill_rows_reuses_worker_state() {
        use std::sync::atomic::AtomicUsize;
        let base = Prng::seed_from_u64(7);
        let inits = AtomicUsize::new(0);
        let mut out = vec![0usize; 32];
        fill_rows(
            32,
            1,
            4,
            &base,
            0,
            PanicPolicy::FailFast,
            &mut out,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u8>::with_capacity(64)
            },
            |buf, r, _, row| {
                // State must be fully overwritten by a well-behaved f.
                buf.clear();
                buf.extend_from_slice(&(r as u64).to_le_bytes());
                row[0] = buf.len();
            },
        );
        assert_eq!(out, vec![8; 32]);
        // One init per worker, not per run.
        assert!(inits.load(Ordering::Relaxed) <= 4, "{} inits", inits.load(Ordering::Relaxed));

        // And the serial path initializes exactly once.
        inits.store(0, Ordering::Relaxed);
        let mut out = vec![0usize; 5];
        fill_rows(
            5,
            1,
            1,
            &base,
            0,
            PanicPolicy::FailFast,
            &mut out,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, r, _, row| row[0] = r,
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
    }

    /// Workers inherit the caller's kernel configuration: under a scalar
    /// override, rows filled by two workers are bit-equal to rows filled
    /// on the calling thread (a worker on the process default backend
    /// would round its GEMMs differently on any vector host).
    #[test]
    fn parallel_fill_rows_workers_inherit_the_callers_backend() {
        use swim_tensor::linalg::matmul;
        use swim_tensor::simd::{with_backend, Backend};
        use swim_tensor::Tensor;
        let base = Prng::seed_from_u64(8);
        let fill = |threads: usize| {
            let mut out = vec![0u32; 6 * 96];
            fill_rows(
                6,
                96,
                threads,
                &base,
                0,
                PanicPolicy::FailFast,
                &mut out,
                || (),
                |_, _, mut rng, row| {
                    let a = Tensor::randn(&[4, 64], &mut rng);
                    let b = Tensor::randn(&[64, 24], &mut rng);
                    for (bits, v) in row.iter_mut().zip(matmul(&a, &b).data()) {
                        *bits = v.to_bits();
                    }
                },
            );
            out
        };
        let (serial, threaded) = with_backend(Backend::Scalar, || (fill(1), fill(2))).unwrap();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn parallel_map_distinct_streams() {
        let base = Prng::seed_from_u64(6);
        let outs = parallel_map(8, 4, &base, |_, mut rng| rng.next_u64());
        let mut dedup = outs.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), outs.len());
    }

    fn trained() -> (QuantizedModel, Dataset) {
        let mut rng = Prng::seed_from_u64(40);
        let mut seq = Sequential::new();
        seq.push(Flatten::new());
        seq.push(Linear::new(8, 12, &mut rng));
        seq.push(Relu::new());
        seq.push(Linear::new(12, 2, &mut rng));
        let mut net = Network::new("t", seq);
        let n = 60;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..n {
            let cls = i % 2;
            let c = if cls == 0 { -1.0f32 } else { 1.0 };
            for _ in 0..8 {
                xs.push(c + rng.normal_f32(0.0, 0.5));
            }
            ys.push(cls);
        }
        let images = Tensor::from_vec(xs, &[n, 1, 2, 4]).unwrap();
        let data = Dataset::new(images, ys, 2).unwrap();
        let cfg = swim_nn::train::TrainConfig {
            epochs: 10,
            batch_size: 16,
            lr: 0.1,
            ..Default::default()
        };
        swim_nn::train::fit(
            &mut net,
            &SoftmaxCrossEntropy::new(),
            data.images(),
            data.labels(),
            &cfg,
        );
        let model = QuantizedModel::new(net, 4, DeviceConfig::rram().with_sigma(0.4));
        (model, data)
    }

    #[test]
    fn sweep_monotone_nwc_and_deterministic() {
        let (mut model, data) = trained();
        let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &data, 32);
        let mags = model.magnitudes();
        let cfg = SweepConfig {
            fractions: vec![0.0, 0.5, 1.0],
            runs: 8,
            threads: 4,
            eval_batch: 64,
            seed: 7,
            ..Default::default()
        };
        let sweep = nwc_sweep(&model, &Strategy::Swim, &sens, &mags, &data, &cfg);
        assert_eq!(sweep.len(), 3);
        assert!(sweep[0].nwc < 1e-9);
        assert!(sweep[1].nwc > 0.3 && sweep[1].nwc < 0.7);
        assert!((sweep[2].nwc - 1.0).abs() < 0.1);
        // Full verification should be at least as accurate as none.
        assert!(sweep[2].accuracy.mean() >= sweep[0].accuracy.mean() - 2.0);

        let again = nwc_sweep(&model, &Strategy::Swim, &sens, &mags, &data, &cfg);
        assert_eq!(sweep[1].accuracy.mean(), again[1].accuracy.mean());
    }

    /// The acceptance contract for per-worker scratch reuse: every
    /// statistic of the sweep is bit-identical for every thread count
    /// (workers reuse networks/buffers across different run subsets, so
    /// any state leak between runs would break this).
    #[test]
    fn sweep_bit_identical_across_thread_counts() {
        let (mut model, data) = trained();
        let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &data, 32);
        let mags = model.magnitudes();
        for strategy in [Strategy::Swim, Strategy::Random] {
            let mut curves = Vec::new();
            for threads in [1usize, 4] {
                let cfg = SweepConfig {
                    fractions: vec![0.0, 0.3, 1.0],
                    runs: 9,
                    threads,
                    eval_batch: 32,
                    seed: 11,
                    ..Default::default()
                };
                curves.push(nwc_sweep(&model, &strategy, &sens, &mags, &data, &cfg));
            }
            for (a, b) in curves[0].iter().zip(&curves[1]) {
                assert_eq!(a.accuracy.mean(), b.accuracy.mean(), "{strategy:?}");
                assert_eq!(a.accuracy.std(), b.accuracy.std(), "{strategy:?}");
                assert_eq!(a.nwc, b.nwc, "{strategy:?}");
            }
        }
    }

    /// The arena-backed, buffer-reusing sweep must be bit-identical to a
    /// naive clone-per-run harness built only from the original
    /// allocating APIs (`program_network` + fresh-path `accuracy`) —
    /// this pins the whole allocation-free refactor to the pre-arena
    /// semantics.
    #[test]
    fn sweep_matches_naive_reference_harness() {
        let (mut model, data) = trained();
        let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &data, 32);
        let mags = model.magnitudes();
        let cfg = SweepConfig {
            fractions: vec![0.0, 0.4, 1.0],
            runs: 6,
            threads: 2,
            eval_batch: 32,
            seed: 13,
            ..Default::default()
        };
        let sweep = nwc_sweep(&model, &Strategy::Swim, &sens, &mags, &data, &cfg);

        let base = Prng::seed_from_u64(cfg.seed);
        let denom = model.write_verify_all_cost(&mut base.fork(u64::MAX)) as f64;
        let spans = model.param_spans();
        let inputs = crate::select::SelectionInputs::with_spans(&sens, &mags, &spans);
        let ranking = Strategy::Swim.rank(&inputs, None);
        let mut per_run: Vec<Vec<(f64, f64)>> = Vec::new();
        for r in 0..cfg.runs {
            let mut rng = base.fork(r as u64);
            let mut row = Vec::new();
            for &fraction in &cfg.fractions {
                let mask = crate::select::mask_top_fraction(&ranking, fraction);
                let (mut network, summary) = model.program_network(Some(&mask), &mut rng);
                let acc = network.accuracy(data.images(), data.labels(), cfg.eval_batch);
                row.push((100.0 * acc, summary.verify_pulses as f64 / denom));
            }
            per_run.push(row);
        }
        for (fi, point) in sweep.iter().enumerate() {
            let mut accuracy = Running::new();
            let mut nwc = Running::new();
            for run in &per_run {
                accuracy.push(run[fi].0);
                nwc.push(run[fi].1);
            }
            assert_eq!(point.accuracy.mean(), accuracy.mean(), "fraction {}", point.fraction);
            assert_eq!(point.accuracy.std(), accuracy.std(), "fraction {}", point.fraction);
            assert_eq!(point.nwc, nwc.mean(), "fraction {}", point.fraction);
            // Tail statistics agree with a by-hand sort of the raw runs.
            let mut accs: Vec<f64> = per_run.iter().map(|run| run[fi].0).collect();
            accs.sort_unstable_by(f64::total_cmp);
            assert_eq!(point.accuracy_min, accs[0], "fraction {}", point.fraction);
            assert_eq!(
                point.accuracy_p05,
                percentile_sorted(&accs, 0.05),
                "fraction {}",
                point.fraction
            );
        }
    }

    #[test]
    fn percentile_interpolates_between_sorted_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&s, 1.0), 5.0);
        assert_eq!(percentile_sorted(&s, 0.5), 3.0);
        assert!((percentile_sorted(&s, 0.05) - 1.2).abs() < 1e-12);
        assert_eq!(percentile_sorted(&[7.0], 0.05), 7.0);
    }

    #[test]
    fn sweep_tail_stats_bound_the_mean() {
        let (mut model, data) = trained();
        let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &data, 32);
        let mags = model.magnitudes();
        let cfg = SweepConfig {
            fractions: vec![0.0, 0.5, 1.0],
            runs: 10,
            threads: 2,
            eval_batch: 64,
            seed: 17,
            ..Default::default()
        };
        for point in nwc_sweep(&model, &Strategy::Swim, &sens, &mags, &data, &cfg) {
            assert!(point.accuracy_min <= point.accuracy_p05 + 1e-12, "{point:?}");
            assert!(point.accuracy_p05 <= point.accuracy.mean() + 1e-9, "{point:?}");
            assert!(point.accuracy_min >= 0.0 && point.accuracy_p05 <= 100.0, "{point:?}");
        }
    }

    #[test]
    fn parallel_fill_rows_matches_parallel_map() {
        let base = Prng::seed_from_u64(21);
        let mapped: Vec<[u64; 2]> =
            parallel_map(10, 4, &base, |r, mut rng| [r as u64, rng.next_u64()]);
        let mut filled = vec![0u64; 20];
        fill_rows(
            10,
            2,
            4,
            &base,
            0,
            PanicPolicy::FailFast,
            &mut filled,
            || (),
            |(), r, mut rng, row| {
                row[0] = r as u64;
                row[1] = rng.next_u64();
            },
        );
        for (r, row) in mapped.iter().enumerate() {
            assert_eq!(&filled[2 * r..2 * r + 2], &row[..]);
        }
        // And the serial path agrees with the threaded one.
        let mut serial = vec![0u64; 20];
        fill_rows(
            10,
            2,
            1,
            &base,
            0,
            PanicPolicy::FailFast,
            &mut serial,
            || (),
            |(), r, mut rng, row| {
                row[0] = r as u64;
                row[1] = rng.next_u64();
            },
        );
        assert_eq!(serial, filled);
    }

    #[test]
    #[should_panic(expected = "fill_rows: run 4 panicked: fill boom")]
    fn parallel_fill_rows_propagates_panic() {
        let base = Prng::seed_from_u64(22);
        let mut out = vec![0u8; 8];
        fill_rows(
            8,
            1,
            4,
            &base,
            0,
            PanicPolicy::FailFast,
            &mut out,
            || (),
            |(), r, _, _| {
                assert!(r != 4, "fill boom");
            },
        );
    }

    /// A seed-range shard fills exactly the matching rows of the full
    /// matrix, and re-aggregating the concatenated shard matrices is
    /// bit-identical to the unsharded sweep — the `swim merge` contract
    /// at the core level.
    #[test]
    fn sharded_outcome_concatenates_to_the_unsharded_sweep() {
        let (mut model, data) = trained();
        let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &data, 32);
        let mags = model.magnitudes();
        let full_cfg = SweepConfig {
            fractions: vec![0.0, 0.5, 1.0],
            runs: 7,
            threads: 2,
            eval_batch: 64,
            seed: 23,
            ..Default::default()
        };
        for strategy in [Strategy::Swim, Strategy::Random] {
            let full = nwc_sweep_outcome(&model, &strategy, &sens, &mags, &data, &full_cfg);
            assert_eq!(full.raw.len(), 7 * 3);
            assert!(full.faults.is_empty());

            let mut merged_raw = Vec::new();
            for (run_offset, runs) in [(0usize, 3usize), (3, 4)] {
                let cfg = SweepConfig { runs, run_offset, ..full_cfg.clone() };
                let shard = nwc_sweep_outcome(&model, &strategy, &sens, &mags, &data, &cfg);
                assert_eq!(shard.raw.len(), runs * 3);
                merged_raw.extend_from_slice(&shard.raw);
            }
            assert_eq!(merged_raw, full.raw, "{strategy:?}");

            let merged = aggregate_sweep_rows(&full_cfg.fractions, &merged_raw, &[]);
            for (a, b) in merged.iter().zip(&full.points) {
                assert_eq!(a.accuracy.mean(), b.accuracy.mean(), "{strategy:?}");
                assert_eq!(a.accuracy.std(), b.accuracy.std(), "{strategy:?}");
                assert_eq!(a.nwc, b.nwc, "{strategy:?}");
                assert_eq!(a.accuracy_min, b.accuracy_min, "{strategy:?}");
                assert_eq!(a.accuracy_p05, b.accuracy_p05, "{strategy:?}");
            }
        }
    }

    #[test]
    fn fill_rows_offset_reproduces_the_matching_rows() {
        let base = Prng::seed_from_u64(31);
        let fill = |runs: usize, offset: usize| {
            let mut out = vec![0u64; runs * 2];
            let faults = fill_rows(
                runs,
                2,
                3,
                &base,
                offset,
                PanicPolicy::FailFast,
                &mut out,
                || (),
                |(), r, mut rng, row| {
                    row[0] = r as u64;
                    row[1] = rng.next_u64();
                },
            );
            assert!(faults.is_empty());
            out
        };
        let full = fill(10, 0);
        let shard = fill(4, 3);
        assert_eq!(&shard[..], &full[6..14]);
    }

    #[test]
    fn isolate_records_faults_and_fills_surviving_rows() {
        let base = Prng::seed_from_u64(32);
        for threads in [1usize, 4] {
            let mut out = vec![0.0f64; 8];
            let faults = fill_rows(
                8,
                1,
                threads,
                &base,
                10,
                PanicPolicy::Isolate,
                &mut out,
                || (),
                |(), r, _, row| {
                    if r == 12 || r == 15 {
                        panic!("poisoned run {r}");
                    }
                    row[0] = r as f64;
                },
            );
            assert_eq!(
                faults,
                vec![
                    RunFault { run: 12, message: "poisoned run 12".to_string() },
                    RunFault { run: 15, message: "poisoned run 15".to_string() },
                ],
                "threads = {threads}"
            );
            for (local, &value) in out.iter().enumerate() {
                let global = 10 + local;
                if global == 12 || global == 15 {
                    assert_eq!(value, 0.0, "faulted row must keep the prefill");
                } else {
                    assert_eq!(value, global as f64, "threads = {threads}");
                }
            }
        }
    }

    #[test]
    fn aggregate_skips_faulted_rows() {
        let fractions = [0.0, 1.0];
        // Three runs of two fractions; run 1 is faulted and contributes
        // nothing.
        let raw = vec![(10.0, 0.0), (20.0, 1.0), (0.0, 0.0), (0.0, 0.0), (30.0, 0.0), (40.0, 1.0)];
        let points = aggregate_sweep_rows(&fractions, &raw, &[1]);
        let mut expect = Running::new();
        expect.push(10.0);
        expect.push(30.0);
        assert_eq!(points[0].accuracy.mean(), expect.mean());
        assert_eq!(points[0].accuracy.std(), expect.std());
        assert_eq!(points[0].accuracy.count(), 2);
        assert_eq!(points[0].accuracy_min, 10.0);
        assert_eq!(points[1].accuracy_min, 20.0);
        assert_eq!(points[1].nwc, 1.0);
    }

    #[test]
    fn panic_policy_keys_round_trip() {
        for policy in [PanicPolicy::FailFast, PanicPolicy::Isolate] {
            assert_eq!(PanicPolicy::parse(policy.key()), Some(policy));
        }
        assert_eq!(PanicPolicy::parse("explode"), None);
        assert_eq!(PanicPolicy::default(), PanicPolicy::FailFast);
    }

    #[test]
    fn random_strategy_varies_across_runs_but_not_seeds() {
        let (mut model, data) = trained();
        let sens = model.sensitivities(&SoftmaxCrossEntropy::new(), &data, 32);
        let mags = model.magnitudes();
        let cfg = SweepConfig {
            fractions: vec![0.5],
            runs: 6,
            threads: 2,
            eval_batch: 64,
            seed: 8,
            ..Default::default()
        };
        let a = nwc_sweep(&model, &Strategy::Random, &sens, &mags, &data, &cfg);
        let b = nwc_sweep(&model, &Strategy::Random, &sens, &mags, &data, &cfg);
        assert_eq!(a[0].accuracy.mean(), b[0].accuracy.mean());
        assert!(a[0].accuracy.std() >= 0.0);
    }
}
