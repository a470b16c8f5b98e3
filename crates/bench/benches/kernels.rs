//! Micro-benchmarks for the substrate kernels and the paper's efficiency
//! claims, on a hand-rolled Criterion-style harness (the build
//! environment is offline, so no external bench framework).
//!
//! Run with:
//!
//! ```text
//! cargo bench -p swim-bench --bench kernels [-- <filter> [--quick]
//!     [--json snapshot.json] [--baseline snapshot.json]]
//! ```
//!
//! `<filter>` is a comma-separated any-of substring list over entry
//! names (e.g. `sweep,gemm_transposed`). `--json FILE` writes the
//! measured medians as a JSON snapshot; `--baseline FILE` compares this
//! run against a snapshot and exits 1 when any shared entry regressed
//! by more than 30% (the committed `BENCH_sweep.json` is the CI
//! baseline for the `sweep`, `gemm_transposed`, `simd`, `conv`,
//! `program` and `eval` groups).
//!
//! Every sample of an entry is timed right after a sample of a fixed
//! in-process reference kernel ([`reference_kernel`]) of about the same
//! length, in three rounds spread over most of a second. The entry's
//! *reference ratio* is its fastest sample over the reference's fastest
//! per-call time, and the guard compares ratios, not nanoseconds: a
//! shared host that is slower or busier while the guard runs slows both
//! sides alike. An entry that reads more than 30% above its baseline
//! ratio is re-sampled for up to four more rounds before it counts as
//! regressed.
//!
//! Groups:
//!
//! * `gemm` — naive `i-k-j` vs blocked register-tiled vs threaded GEMM on
//!   256×256×256 (plus layer-shaped cases), reporting speedups;
//! * `gemm_transposed` — `matmul_at`/`matmul_bt` strided panel packing vs
//!   the old materialized-transpose formulation;
//! * `conv` — LeNet's two convolution layers on one GEMM thread: forward
//!   at batch 100, forward+backward at batch 32, second-backward at
//!   batch 256;
//! * `second_derivative` — §3.3 claim: the single-pass Hessian diagonal
//!   costs about one gradient pass, vs per-weight finite differences;
//! * `write_verify` — device programming with exact pulse accounting;
//! * `selection` — ranking 100k weights (LeNet scale);
//! * `end_to_end` — one Monte Carlo programming unit;
//! * `program` / `eval` — one LeNet chip: programming 100k weights at
//!   f = 0, 0.5, 1, and a batch-100 forward in `Eval` vs `Infer` mode;
//! * `sweep` — Monte Carlo sweep throughput (runs/sec), per-worker
//!   scratch reuse vs the old clone-per-run harness;
//! * `simd` — GEMM 256³ and the elementwise kernels per SIMD backend
//!   this host supports, with vector-vs-scalar speedups;
//! * `thread_threshold` — serial vs 2-thread crossover around
//!   `PARALLEL_MIN_FLOPS`.

use std::hint::black_box;
use std::time::{Duration, Instant};
use swim_cim::device::DeviceConfig;
use swim_cim::mapping::WeightMapper;
use swim_cim::writeverify::write_verify;
use swim_core::model::QuantizedModel;
use swim_core::montecarlo::{nwc_sweep, parallel_map, SweepConfig};
use swim_core::select::{build_ranking, mask_top_fraction, Strategy};
use swim_data::Dataset;
use swim_exp::value::{parse_json, Value};
use swim_nn::arena::ActivationArena;
use swim_nn::finite_diff::hessian_diag_fd;
use swim_nn::layer::{Layer, Mode};
use swim_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu, Sequential};
use swim_nn::loss::SoftmaxCrossEntropy;
use swim_nn::models::LeNetConfig;
use swim_nn::Network;
use swim_tensor::linalg::{matmul, matmul_at, matmul_bt, matmul_reference, matmul_with_threads};
use swim_tensor::tune::{self, with_tuning, KernelTuning};
use swim_tensor::{Prng, Tensor};

/// One measured entry: median wall time over the sample runs, and the
/// reference ratio (fastest sample over the interleaved reference's
/// fastest per-call time).
struct Sample {
    name: String,
    median: Duration,
    ratio: f64,
}

/// Sampling rounds per entry, each after a pause and an untimed warm-up
/// call. A shared host runs the same code at speeds that differ by up
/// to 1.5× for stretches of a few hundred milliseconds; spreading an
/// entry's samples over rounds lets its fastest sample (and the
/// reference's) come from the host's fast state.
const ROUNDS: usize = 3;

/// Extra rounds granted to an entry that reads above the guard's bound
/// before it counts as regressed: a real slowdown stays above it in
/// every round, a slow stretch of the host does not.
const CONFIRM_ROUNDS: usize = 4;

/// Pause before each round.
const ROUND_GAP: Duration = Duration::from_millis(250);

/// A guarded entry fails when its reference ratio exceeds the
/// baseline's by this factor.
const REGRESSION_BOUND: f64 = 1.30;

/// Chain steps in one reference-kernel call.
const REFERENCE_UNITS: u64 = 4096;

/// The reference kernel's stream buffer: 2 MiB of `f64`, past a core's
/// L2 like the chip-sized kernels' working sets.
const REFERENCE_STREAM: usize = 1 << 18;

/// The fixed yardstick every entry is timed against, `calls` times
/// over; its code never changes with the program. Each call runs a
/// scalar xorshift-and-accumulate dependency chain, then a
/// read-modify-write pass over the next eighth of `stream`, so both a
/// slower core and contention for the shared cache and memory move it,
/// as they move the kernels.
fn reference_kernel(calls: u64, stream: &mut [f64]) -> f64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    let eighth = stream.len() / 8;
    for call in 0..calls {
        for _ in 0..REFERENCE_UNITS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc * 0.999_999 + (x >> 11) as f64;
        }
        let chunk = call as usize % 8 * eighth;
        for v in &mut stream[chunk..chunk + eighth] {
            *v = *v * 0.999_999 + 1e-9;
        }
    }
    acc + stream[0]
}

struct Harness {
    filter: Option<Vec<String>>,
    samples_per_entry: usize,
    results: Vec<Sample>,
    /// The reference kernel's stream buffer.
    stream: Vec<f64>,
    json_out: Option<std::path::PathBuf>,
    /// `--baseline` snapshot: its path and its reference ratios.
    baseline: Option<(std::path::PathBuf, Value)>,
}

impl Harness {
    fn new() -> Self {
        let mut args = std::env::args().skip(1);
        let mut quick = false;
        let mut filter = None;
        let mut json_out = None;
        let mut baseline = None;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--json" => json_out = args.next().map(std::path::PathBuf::from),
                "--baseline" => baseline = args.next().map(std::path::PathBuf::from),
                // Cargo passes --bench (and may add others); ignore
                // unknown flags, treat the first bare token as a
                // comma-separated any-of substring filter (e.g.
                // `sweep,gemm_transposed`).
                a if a.starts_with("--") => {}
                a => {
                    if filter.is_none() {
                        filter = Some(a.split(',').map(str::to_string).collect());
                    }
                }
            }
        }
        let baseline = baseline.map(|path| {
            let path = resolve_from_workspace_root(&path);
            let ratios = read_reference_ratios(&path);
            (path, ratios)
        });
        Harness {
            filter,
            samples_per_entry: if quick { 5 } else { 11 },
            results: Vec::new(),
            stream: vec![1.0; REFERENCE_STREAM],
            json_out,
            baseline,
        }
    }

    fn skip(&self, name: &str) -> bool {
        self.filter.as_deref().is_some_and(|needles| !needles.iter().any(|f| name.contains(f)))
    }

    /// Times `f`, returning the median of the sample runs (robust to
    /// scheduler noise on shared machines).
    ///
    /// Samples come in [`ROUNDS`] rounds; each sample runs right after
    /// a reference sample sized (at warm-up) to last about as long as
    /// `f`. The entry's reference ratio is its fastest sample over the
    /// reference's fastest per-call time. An entry that reads above the
    /// `--baseline` bound gets up to [`CONFIRM_ROUNDS`] more rounds.
    fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> Option<Duration> {
        if self.skip(name) {
            return None;
        }
        // Warm-up: page in inputs, train caches, and size the reference.
        let t0 = Instant::now();
        black_box(f());
        let kernel = t0.elapsed();
        let stream = &mut self.stream;
        black_box(reference_kernel(8, stream));
        let t0 = Instant::now();
        black_box(reference_kernel(1, stream));
        let unit = t0.elapsed().max(Duration::from_nanos(1));
        let calls = (kernel.as_secs_f64() / unit.as_secs_f64()).round().clamp(1.0, 1e5) as u64;
        let (mut times, mut reference) = (Vec::new(), f64::INFINITY);
        let samples = self.samples_per_entry;
        let mut round = |times: &mut Vec<Duration>, reference: &mut f64| {
            std::thread::sleep(ROUND_GAP);
            black_box(f());
            for _ in 0..samples {
                let t0 = Instant::now();
                black_box(reference_kernel(black_box(calls), stream));
                *reference = reference.min(t0.elapsed().as_secs_f64() / calls as f64);
                let t0 = Instant::now();
                black_box(f());
                times.push(t0.elapsed());
            }
        };
        for _ in 0..ROUNDS {
            round(&mut times, &mut reference);
        }
        let ratio = |times: &[Duration], reference: f64| {
            let fastest = times.iter().min().expect("at least one sample");
            fastest.as_secs_f64() / reference.max(1e-12)
        };
        let bound = self
            .baseline
            .as_ref()
            .and_then(|(_, ratios)| ratios.get(name).and_then(Value::as_float))
            .map(|base| base * REGRESSION_BOUND);
        for _ in 0..CONFIRM_ROUNDS {
            if bound.is_none_or(|bound| ratio(&times, reference) <= bound) {
                break;
            }
            round(&mut times, &mut reference);
        }
        times.sort_unstable();
        let median = times[times.len() / 2];
        let ratio = ratio(&times, reference);
        println!("  {name:<44} {:>12} {ratio:>10.2} ref", format_duration(median));
        self.results.push(Sample { name: name.to_string(), median, ratio });
        Some(median)
    }

    fn group(&self, title: &str) {
        println!("\n{title}");
    }

    /// Writes the measured medians (nanoseconds, keyed by entry name)
    /// as a JSON snapshot — the format `--baseline` reads back.
    fn write_snapshot(&self, path: &std::path::Path) {
        let mut entries = Value::table();
        let mut ratios = Value::table();
        for s in &self.results {
            entries.set(&s.name, Value::Int(s.median.as_nanos() as i64));
            ratios.set(&s.name, Value::Float(s.ratio));
        }
        let mut root = Value::table();
        root.set("bench", Value::Str("kernels".into()));
        root.set("samples_per_entry", Value::Int(self.samples_per_entry as i64));
        // Provenance: absolute medians are only comparable on the host
        // that produced them, so the snapshot records where it was
        // measured (the baseline check ignores this field).
        root.set(
            "note",
            Value::Str(format!(
                "built-in defaults measured on host {}; nproc={}, gemm threads={}",
                host_description(),
                swim_tensor::tune::detected_parallelism(),
                swim_tensor::linalg::gemm_threads()
            )),
        );
        root.set("median_ns", entries);
        root.set("reference_ratio", ratios);
        std::fs::write(path, root.to_json() + "\n")
            .unwrap_or_else(|e| panic!("cannot write snapshot {}: {e}", path.display()));
        println!("\nwrote {} snapshot entries to {}", self.results.len(), path.display());
    }

    /// Compares this run against a `--json` snapshot: every entry
    /// measured in both is checked with a generous ±30% threshold on its
    /// reference ratio (the entry's time in units of the interleaved
    /// reference kernel), so a host that is uniformly slower or busier
    /// than when the snapshot was taken does not read as a regression.
    /// Entries present on only one side are reported but never fail
    /// (filters, `--quick`, and machine-dependent groups measure
    /// subsets). Returns `false` when any shared entry regressed.
    fn check_baseline(&self) -> bool {
        let Some((path, entries)) = &self.baseline else { return true };
        println!("\nbaseline comparison vs {} (reference ratios, ±30% threshold)", path.display());
        let mut compared = 0usize;
        let mut regressions = Vec::new();
        for s in &self.results {
            let Some(base) = entries.get(&s.name).and_then(Value::as_float) else {
                println!("  {:<44} (not in baseline — skipped)", s.name);
                continue;
            };
            compared += 1;
            let ratio = s.ratio / base.max(1e-12);
            let verdict = if ratio > REGRESSION_BOUND {
                regressions.push(s.name.clone());
                "REGRESSED"
            } else if ratio < 0.70 {
                "improved (consider refreshing the snapshot)"
            } else {
                "ok"
            };
            println!("  {:<44} {:>6.2}x of baseline — {verdict}", s.name, ratio);
        }
        if let Value::Table(pairs) = entries {
            for (name, _) in pairs {
                if !self.results.iter().any(|s| &s.name == name) {
                    println!("  {name:<44} (in baseline, not measured — skipped)");
                }
            }
        }
        if regressions.is_empty() {
            println!("baseline ok: {compared} entries within threshold");
            true
        } else {
            println!(
                "baseline FAILED: {} of {compared} entries regressed >30%:",
                regressions.len()
            );
            for name in &regressions {
                println!("  {name}");
            }
            false
        }
    }
}

/// The `reference_ratio` table of a `--json` snapshot.
fn read_reference_ratios(path: &std::path::Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
    let root = parse_json(&text)
        .unwrap_or_else(|e| panic!("baseline {} is not valid JSON: {e}", path.display()));
    root.get("reference_ratio").cloned().unwrap_or_else(|| {
        panic!("baseline {} has no reference_ratio table; refresh it with --json", path.display())
    })
}

/// The host a snapshot was measured on: CPU brand, the SIMD backends it
/// supports, and its core count (e.g.
/// `Intel(R) Xeon(R) Processor|avx512+avx2+scalar|2cores`).
fn host_description() -> String {
    let text = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let brand = text
        .lines()
        .filter_map(|line| line.split_once(':'))
        .find(|(key, _)| key.trim() == "model name")
        .map(|(_, value)| value.split_whitespace().collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    let backends: Vec<&str> =
        swim_tensor::simd::available_backends().iter().map(|b| b.name()).collect();
    format!("{brand}|{}|{}cores", backends.join("+"), swim_tensor::tune::detected_parallelism())
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// The headline GEMM comparison: naive reference vs blocked vs threaded,
/// on the acceptance shape 256³ and two layer-shaped products.
fn bench_gemm(h: &mut Harness) {
    h.group("gemm (naive i-k-j vs blocked vs threaded)");
    let mut rng = Prng::seed_from_u64(8);
    let threads = swim_tensor::linalg::gemm_threads();

    for &(m, k, n, label) in &[
        (256usize, 256usize, 256usize, "256x256x256"),
        (64, 1152, 400, "conv_im2col_64x1152x400"),
        (512, 800, 128, "fc_backward_512x800x128"),
    ] {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let naive = h.bench(&format!("gemm/{label}/naive"), || matmul_reference(&a, &b));
        let blocked =
            h.bench(&format!("gemm/{label}/blocked_1thread"), || matmul_with_threads(&a, &b, 1));
        let auto = h.bench(&format!("gemm/{label}/threaded_{threads}"), || matmul(&a, &b));
        if let (Some(naive), Some(blocked), Some(auto)) = (naive, blocked, auto) {
            println!(
                "  {:<44} blocked {:.2}x, threaded {:.2}x vs naive",
                format!("gemm/{label}/speedup"),
                naive.as_secs_f64() / blocked.as_secs_f64().max(1e-12),
                naive.as_secs_f64() / auto.as_secs_f64().max(1e-12),
            );
            // Blocked and threaded paths must agree with the reference
            // to FMA-rounding tolerance (and bit-for-bit with each
            // other) — the determinism contract is part of what this
            // bench guards. Only when the entries actually ran.
            let reference = matmul_reference(&a, &b);
            let blocked = matmul(&a, &b);
            assert_eq!(
                blocked.data(),
                matmul_with_threads(&a, &b, 4).data(),
                "{label}: thread count changed the result"
            );
            assert!(
                blocked.allclose(&reference, 1e-2),
                "{label}: blocked kernel diverged from reference"
            );
        }
    }
}

/// The transposed GEMM variants: strided panel packing vs the old
/// transpose-then-multiply formulation (which the `Tensor::transposed` +
/// `matmul` pair still reproduces), asserting bit-identity while at it.
fn bench_gemm_transposed(h: &mut Harness) {
    h.group("gemm_transposed (strided packing vs materialized transpose)");
    let mut rng = Prng::seed_from_u64(10);

    // Aᵀ·B on a square shape and a conv-backward shape (tall k).
    for &(k, m, n, label) in
        &[(256usize, 256usize, 256usize, "at_256x256x256"), (1152, 64, 400, "at_64x1152x400")]
    {
        let a = Tensor::randn(&[k, m], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let strided =
            h.bench(&format!("gemm_transposed/{label}/strided_pack"), || matmul_at(&a, &b));
        let copied = h.bench(&format!("gemm_transposed/{label}/transpose_then_matmul"), || {
            matmul(&a.transposed(), &b)
        });
        if let (Some(s), Some(c)) = (strided, copied) {
            println!(
                "  {:<44} {:.2}x vs transpose+matmul",
                format!("gemm_transposed/{label}/speedup"),
                c.as_secs_f64() / s.as_secs_f64().max(1e-12)
            );
            assert_eq!(
                matmul_at(&a, &b).data(),
                matmul(&a.transposed(), &b).data(),
                "{label}: strided packing changed the result"
            );
        }
    }

    // A·Bᵀ on the conv-forward shape (W · colsᵀ).
    let a = Tensor::randn(&[64, 1152], &mut rng);
    let b = Tensor::randn(&[400, 1152], &mut rng);
    let strided = h.bench("gemm_transposed/bt_64x1152x400/strided_pack", || matmul_bt(&a, &b));
    let copied = h.bench("gemm_transposed/bt_64x1152x400/transpose_then_matmul", || {
        matmul(&a, &b.transposed())
    });
    if let (Some(s), Some(c)) = (strided, copied) {
        println!(
            "  {:<44} {:.2}x vs transpose+matmul",
            "gemm_transposed/bt_64x1152x400/speedup",
            c.as_secs_f64() / s.as_secs_f64().max(1e-12)
        );
        assert_eq!(matmul_bt(&a, &b).data(), matmul(&a, &b.transposed()).data());
    }
}

/// LeNet's two convolutions, one layer at a time, at the batch sizes
/// the pipeline runs them: forward at the eval batch (100),
/// forward+backward at the training batch (32), and second-backward at
/// the sensitivity batch (256).
fn bench_conv(h: &mut Harness) {
    h.group("conv (LeNet layers, 1 GEMM thread: fwd b100, fwd+bwd b32, second-bwd b256)");
    let mut rng = Prng::seed_from_u64(11);
    // (name, in channels, out channels, kernel, padding, input side)
    for (name, cin, cout, k, p, side) in
        [("lenet_conv1", 1, 6, 5, 2, 28), ("lenet_conv2", 6, 16, 5, 0, 14)]
    {
        let mut conv = Conv2d::new(cin, cout, k, 1, p, &mut rng);
        let x = Tensor::randn(&[100, cin, side, side], &mut rng);
        h.bench(&format!("conv/{name}/fwd_b100"), || conv.forward(&x, Mode::Eval));
        let x = Tensor::randn(&[32, cin, side, side], &mut rng);
        let g = Tensor::ones(conv.forward(&x, Mode::Train).shape());
        h.bench(&format!("conv/{name}/fwd_bwd_b32"), || {
            conv.forward(&x, Mode::Train);
            conv.backward(&g)
        });
        let x = Tensor::randn(&[256, cin, side, side], &mut rng);
        let hs = Tensor::ones(conv.forward(&x, Mode::Eval).shape());
        h.bench(&format!("conv/{name}/second_bwd_b256"), || conv.second_backward(&hs));
    }
}

/// End-to-end Monte Carlo sweep throughput: per-worker scratch reuse
/// (the live `nwc_sweep` path) vs the old clone-per-run harness,
/// reported in runs/sec.
fn bench_sweep_throughput(h: &mut Harness) {
    let mut rng = Prng::seed_from_u64(12);
    let mut seq = Sequential::new();
    seq.push(Conv2d::new(1, 4, 3, 1, 1, &mut rng));
    seq.push(Relu::new());
    seq.push(MaxPool2d::new(2));
    seq.push(Flatten::new());
    seq.push(Linear::new(4 * 7 * 7, 10, &mut rng));
    let model = QuantizedModel::new(Network::new("sweep-cnn", seq), 4, DeviceConfig::rram());
    let images = Tensor::randn(&[128, 1, 14, 14], &mut rng);
    let data = Dataset::new(images, (0..128).map(|i| i % 10).collect(), 10).unwrap();
    let sens: Vec<f32> = (0..model.weight_count()).map(|_| rng.uniform_f32()).collect();
    let mags = model.magnitudes();
    let runs = 8usize;
    let threads = tune::detected_parallelism();
    // Entry names stay thread-count-free so snapshots written on one
    // machine (`--json BENCH_sweep.json`) still match on another; the
    // worker count only shows up in the group header.
    h.group(&format!("sweep (Monte Carlo eval throughput, runs/sec, {threads} workers)"));
    let cfg = SweepConfig {
        fractions: vec![0.0, 0.5, 1.0],
        runs,
        threads,
        eval_batch: 128,
        seed: 7,
        ..Default::default()
    };

    let scratch = h.bench("sweep/8runs_x3fractions/scratch", || {
        nwc_sweep(&model, &Strategy::Swim, &sens, &mags, &data, &cfg)
    });
    // The pre-scratch harness: clone the network and allocate fresh
    // mask/weight vectors for every run (denominator and ranking
    // computed per sweep, exactly like `nwc_sweep` does).
    let clone_per_run = h.bench("sweep/8runs_x3fractions/clone_per_run", || {
        let base = Prng::seed_from_u64(cfg.seed);
        let denom = model.write_verify_all_cost(&mut base.fork(u64::MAX)) as f64;
        let ranking = build_ranking(Strategy::Swim, &sens, &mags, None);
        parallel_map(runs, threads, &base, |_, mut run_rng| {
            let mut network = model.network_clone();
            cfg.fractions
                .iter()
                .map(|&fraction| {
                    let mask = mask_top_fraction(&ranking, fraction);
                    let (weights, summary) = model.program_weights(Some(&mask), &mut run_rng);
                    network.set_device_weights(&weights);
                    let acc = network.accuracy(data.images(), data.labels(), cfg.eval_batch);
                    (acc, summary.verify_pulses as f64 / denom)
                })
                .collect::<Vec<_>>()
        })
    });
    if let (Some(s), Some(c)) = (scratch, clone_per_run) {
        println!(
            "  {:<44} {:.1} runs/s scratch vs {:.1} runs/s clone-per-run ({:.2}x)",
            "sweep/8runs_x3fractions/throughput",
            runs as f64 / s.as_secs_f64(),
            runs as f64 / c.as_secs_f64(),
            c.as_secs_f64() / s.as_secs_f64().max(1e-12)
        );
    }
}

/// The SIMD dispatch layer: GEMM 256³ and the elementwise kernels under
/// every backend the host supports, reporting vector speedup over the
/// scalar reference. Backend-named entries that a host cannot measure
/// are skipped by the baseline comparison, so one committed snapshot
/// works across heterogeneous machines.
fn bench_simd(h: &mut Harness) {
    use swim_tensor::simd::{self, Backend};
    h.group("simd (per-backend kernels vs the scalar reference)");
    let mut rng = Prng::seed_from_u64(21);
    let a = Tensor::randn(&[256, 256], &mut rng);
    let b = Tensor::randn(&[256, 256], &mut rng);
    let mut gemm_times = Vec::new();
    for backend in simd::available_backends() {
        let t = h.bench(&format!("simd/gemm_256x256x256/{backend}"), || {
            simd::with_backend(backend, || matmul_with_threads(&a, &b, 1)).unwrap()
        });
        if let Some(t) = t {
            gemm_times.push((backend, t));
        }
    }
    if let Some(&(_, scalar)) = gemm_times.iter().find(|(b, _)| *b == Backend::Scalar) {
        for &(backend, t) in &gemm_times {
            if backend != Backend::Scalar {
                println!(
                    "  {:<44} {:.2}x vs scalar",
                    format!("simd/gemm_256x256x256/{backend}_speedup"),
                    scalar.as_secs_f64() / t.as_secs_f64().max(1e-12)
                );
            }
        }
    }

    // Elementwise layer on a quarter-million elements: batchnorm writes
    // into separate output buffers and fake-quant is idempotent after
    // the warm-up pass, so both repeat with identical per-call cost.
    let n = 1usize << 18;
    let input: Vec<f32> = (0..n).map(|_| rng.normal(0.0, 2.0) as f32).collect();
    let mut x_hat = vec![0.0f32; n];
    let mut out = vec![0.0f32; n];
    let mut quant = input.clone();
    for backend in simd::available_backends() {
        h.bench(&format!("simd/batchnorm_262k/{backend}"), || {
            simd::with_backend(backend, || {
                simd::batchnorm_normalize(&input, 0.1, 1.9, 1.2, -0.3, &mut x_hat, &mut out)
            })
            .unwrap()
        });
        h.bench(&format!("simd/fake_quant_262k/{backend}"), || {
            simd::with_backend(backend, || simd::fake_quant_signed_inplace(&mut quant, 0.05, 127.0))
                .unwrap()
        });
    }
}

/// Where the threaded GEMM path starts paying: serial vs 2-thread wall
/// time around the `PARALLEL_MIN_FLOPS` default. On a single-core host
/// the 2-thread entries only measure spawn overhead — run this on a
/// multi-core machine to re-measure the default.
fn bench_thread_threshold(h: &mut Harness) {
    h.group("thread_threshold (serial vs 2 threads around PARALLEL_MIN_FLOPS)");
    let mut rng = Prng::seed_from_u64(13);
    for &d in &[128usize, 160, 208, 256] {
        let flops = d * d * d;
        let a = Tensor::randn(&[d, d], &mut rng);
        let b = Tensor::randn(&[d, d], &mut rng);
        let serial = h.bench(&format!("thread_threshold/{d}cubed_{flops}flops/serial"), || {
            matmul_with_threads(&a, &b, 1)
        });
        // Force threading eligibility for the 2-thread arm: the sizes
        // under test sit below the default threshold, and the flops gate
        // would otherwise silently route them down the serial path —
        // timing the very thing the knob under test disables.
        let eligible = KernelTuning { gemm_min_flops: 1, ..tune::current() };
        let two = with_tuning(&eligible, || {
            h.bench(&format!("thread_threshold/{d}cubed_{flops}flops/2threads"), || {
                matmul_with_threads(&a, &b, 2)
            })
        });
        if let (Some(s), Some(t)) = (serial, two) {
            println!(
                "  {:<44} 2-thread {:.2}x vs serial",
                format!("thread_threshold/{d}cubed/speedup"),
                s.as_secs_f64() / t.as_secs_f64().max(1e-12)
            );
        }
    }
}

fn small_cnn(rng: &mut Prng) -> Network {
    let mut seq = Sequential::new();
    seq.push(Conv2d::new(1, 8, 3, 1, 1, rng));
    seq.push(Relu::new());
    seq.push(MaxPool2d::new(2));
    seq.push(Flatten::new());
    seq.push(Linear::new(8 * 14 * 14, 10, rng));
    Network::new("bench-cnn", seq)
}

/// §3.3 claim: second-derivative pass ≈ gradient pass ≪ finite
/// difference.
fn bench_second_derivative(h: &mut Harness) {
    h.group("second_derivative (§3.3 single-pass claim)");
    let mut rng = Prng::seed_from_u64(1);
    let mut net = small_cnn(&mut rng);
    let x = Tensor::randn(&[8, 1, 28, 28], &mut rng);
    let y: Vec<usize> = (0..8).map(|i| i % 10).collect();
    let loss = SoftmaxCrossEntropy::new();

    h.bench("second_derivative/gradient_pass", || {
        net.zero_grads();
        net.accumulate_gradients(&loss, &x, &y)
    });
    h.bench("second_derivative/hessian_diag_pass", || {
        net.zero_hess();
        net.accumulate_hessian(&loss, &x, &y)
    });

    // Finite difference on a *much smaller* net (2 forwards per weight);
    // normalize per-weight when comparing.
    let mut tiny_rng = Prng::seed_from_u64(2);
    let mut tiny = Sequential::new();
    tiny.push(Flatten::new());
    tiny.push(Linear::new(16, 8, &mut tiny_rng));
    tiny.push(Relu::new());
    tiny.push(Linear::new(8, 4, &mut tiny_rng));
    let mut tiny_net = Network::new("tiny", tiny);
    let tx = Tensor::randn(&[8, 1, 4, 4], &mut tiny_rng);
    let ty: Vec<usize> = (0..8).map(|i| i % 4).collect();
    h.bench("second_derivative/finite_difference_160_weights", || {
        hessian_diag_fd(&mut tiny_net, &loss, &tx, &ty, 1e-2)
    });
}

fn bench_write_verify(h: &mut Harness) {
    h.group("write_verify");
    let cfg = DeviceConfig::rram();
    let mut rng = Prng::seed_from_u64(3);
    h.bench("write_verify/single_device", || write_verify(7.0, &cfg, &mut rng));

    let mapper = WeightMapper::new(4, cfg);
    let codes: Vec<i32> = (0..10_000).map(|i| i % 16).collect();
    let mut rng = Prng::seed_from_u64(4);
    h.bench("write_verify/map_10k_weights_unverified", || mapper.program(&codes, None, &mut rng));
    let sel = vec![true; 10_000];
    let mut rng = Prng::seed_from_u64(5);
    h.bench("write_verify/map_10k_weights_verified", || {
        mapper.program(&codes, Some(&sel), &mut rng)
    });
}

fn bench_selection(h: &mut Harness) {
    h.group("selection");
    let mut rng = Prng::seed_from_u64(6);
    let n = 100_000; // LeNet-scale ranking
    let sens: Vec<f32> = (0..n).map(|_| rng.uniform_f32()).collect();
    let mags: Vec<f32> = (0..n).map(|_| rng.uniform_f32()).collect();
    h.bench("selection/swim_ranking_100k", || build_ranking(Strategy::Swim, &sens, &mags, None));
    h.bench("selection/random_ranking_100k", || {
        let mut r = Prng::seed_from_u64(7);
        build_ranking(Strategy::Random, &sens, &mags, Some(&mut r))
    });
}

fn bench_end_to_end(h: &mut Harness) {
    h.group("end_to_end");
    // One full SWIM iteration unit: program a 100k-weight model with a 10%
    // selection — the inner loop of every Monte Carlo point in Table 1 /
    // Fig. 2.
    let cfg = DeviceConfig::rram();
    let mapper = WeightMapper::new(4, cfg);
    let mut rng = Prng::seed_from_u64(9);
    let codes: Vec<i32> = (0..100_000).map(|_| rng.below(16) as i32).collect();
    let sel: Vec<bool> = (0..100_000).map(|i| i % 10 == 0).collect();
    h.bench("end_to_end/program_lenet_scale_10pct_selected", || {
        mapper.program(&codes, Some(&sel), &mut rng)
    });
}

/// The two halves of one Monte Carlo chip on the paper's LeNet
/// (100,190 device weights, 4-bit codes on 4-bit RRAM): programming every
/// weight under a scattered write-verify mask at f = 0, 0.5 and 1, and
/// scoring one eval batch of 100 images through the cache-keeping
/// `Mode::Eval` forward and the cache-free `Mode::Infer` forward.
fn bench_chip(h: &mut Harness) {
    h.group("program / eval (one LeNet Monte Carlo chip, 1 GEMM thread)");
    let mut rng = Prng::seed_from_u64(14);
    let model = QuantizedModel::new(LeNetConfig::default().build(3), 4, DeviceConfig::rram());
    let sens: Vec<f32> = (0..model.weight_count()).map(|_| rng.uniform_f32()).collect();
    let ranking = build_ranking(Strategy::Swim, &sens, &model.magnitudes(), None);
    let (mut codes, mut weights) = (Vec::new(), Vec::new());
    for (label, fraction) in [("f0", 0.0), ("f0.5", 0.5), ("f1", 1.0)] {
        let mask = mask_top_fraction(&ranking, fraction);
        h.bench(&format!("program/lenet_100k/{label}"), || {
            model.program_weights_into(Some(&mask), &mut rng, &mut codes, &mut weights)
        });
    }

    let mut net = model.network_clone();
    let x = Tensor::randn(&[100, 1, 28, 28], &mut rng);
    let mut arena = ActivationArena::new();
    for (label, mode) in [("eval", Mode::Eval), ("infer", Mode::Infer)] {
        h.bench(&format!("eval/lenet_b100/{label}"), || {
            let logits = net.forward_with(&x, mode, &mut arena);
            arena.recycle(logits);
        });
    }
}

fn main() {
    let mut h = Harness::new();
    println!(
        "kernels bench — {} samples/entry, gemm threads = {}",
        h.samples_per_entry,
        swim_tensor::linalg::gemm_threads()
    );
    bench_gemm(&mut h);
    bench_gemm_transposed(&mut h);
    // The LeNet layers and chip run on one GEMM thread, as inside a
    // Monte Carlo worker; a second thread would make their guarded
    // times track whether the host's other core is free.
    let serial = KernelTuning { gemm_threads: 1, ..tune::current() };
    with_tuning(&serial, || bench_conv(&mut h));
    bench_second_derivative(&mut h);
    bench_write_verify(&mut h);
    bench_selection(&mut h);
    bench_end_to_end(&mut h);
    with_tuning(&serial, || bench_chip(&mut h));
    bench_sweep_throughput(&mut h);
    bench_simd(&mut h);
    bench_thread_threshold(&mut h);

    println!("\n{} entries measured; slowest:", h.results.len());
    let mut by_time: Vec<&Sample> = h.results.iter().collect();
    by_time.sort_by_key(|s| std::cmp::Reverse(s.median));
    for s in by_time.iter().take(3) {
        println!("  {:<44} {:>12}", s.name, format_duration(s.median));
    }

    if let Some(path) = h.json_out.clone() {
        h.write_snapshot(&resolve_from_workspace_root(&path));
    }
    if !h.check_baseline() {
        std::process::exit(1);
    }
}

/// Cargo runs bench binaries with the package directory as cwd; anchor
/// relative snapshot paths at the workspace root instead, so
/// `--baseline BENCH_sweep.json` names the committed repo-root file no
/// matter where cargo was invoked from.
fn resolve_from_workspace_root(path: &std::path::Path) -> std::path::PathBuf {
    if path.is_absolute() {
        path.to_path_buf()
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(path)
    }
}
