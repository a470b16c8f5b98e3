//! End-to-end benchmark of the SWIM reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload lenet-grid --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One invocation runs one workload in a fresh process. With
//! `--trace 0` it times calls into the public entry points
//! (`swim_bench::experiment::run_spec`, or the `swim serve` engine over
//! loopback TCP) and prints the end-to-end metrics; with `--trace 1` it
//! also decomposes the same work into each crate's public calls, records
//! spans around them, and prints the per-layer metrics. Every output is
//! checked; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A record of the run
//! (provenance, every metric, spans) is written to `.e2ebench-out/`.
//! See `e2ebench/README.md` for the metrics and workloads.

mod checks;
mod decompose;
mod lenet_grid;
mod serve_mixed;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;

use swim_exp::value::Value;
use swim_tensor::tune::{KernelTuning, TuneMode};
use workloads::Workload;

/// Where run records and written documents go, relative to the
/// directory the benchmark runs from.
pub const OUT_DIR: &str = ".e2ebench-out";

/// Monte Carlo threads, pool workers, closed-loop clients and the
/// ceiling on any thread count the benchmark requests: `nproc`, capped
/// at 2 so the workloads stay the same size on larger hosts.
pub fn lanes() -> usize {
    sys::nproc().min(2)
}

/// The kernel tuning every workload installs: tuning off, GEMM pinned to
/// one thread (the Monte Carlo level or the pool already runs one
/// worker per core), every other knob at its built-in default.
pub fn pinned_tuning() -> KernelTuning {
    KernelTuning {
        mode: TuneMode::Off,
        gemm_threads: 1,
        gemm_block_cols: 0,
        gemm_min_flops: 0,
        im2col_cap_elems: 0,
        cache_dir: None,
    }
}

/// Operations, checks and metrics of one run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: Monte Carlo runs, jobs and output checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Provenance recorded with the run.
    pub provenance: Vec<(String, Value)>,
    /// Spans of a traced run.
    pub spans: Option<Value>,
}

impl Report {
    /// Counts one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Counts operations other than checks.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a metric. A value that is not finite is a failed check,
    /// reported as 0.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.check(value.is_finite(), || format!("metric {name} is not finite ({value})"));
        self.metrics.push((name.to_string(), if value.is_finite() { value } else { 0.0 }, unit));
    }

    /// Records a provenance entry.
    pub fn note(&mut self, key: &str, value: Value) {
        self.provenance.push((key.to_string(), value));
    }

    /// The result object: the last line of standard output.
    fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .selected(trace)
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The metrics a run reports: end-to-end ones untraced, per-layer
    /// ones traced.
    fn selected(&self, trace: bool) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.metrics.iter().filter(move |(name, _, _)| END_TO_END.contains(&name.as_str()) != trace)
    }
}

/// End-to-end metric names; every other metric is per-layer.
pub const END_TO_END: [&str; 6] =
    ["wall_s", "setup_s", "cpu_s", "peak_rss_mb", "job_p50_s", "job_p90_s"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds `{value}`"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let mut report = Report::default();
    report.note("workload", Value::Str(args.workload.name().into()));
    report.note("why", Value::Str(args.workload.why().into()));
    report.note("seed", Value::Int(args.seed as i64));
    report.note("seconds", Value::Float(args.seconds));
    report.note("trace", Value::Bool(args.trace));
    report.note("nproc", Value::Int(sys::nproc() as i64));
    report.note("cpu_model", Value::Str(sys::cpu_model()));
    report.note("simd", Value::Str(swim_tensor::simd::backend().name().into()));
    report.note("tune_mode", Value::Str(pinned_tuning().mode.name().into()));
    report.note("mc_threads", Value::Int(lanes() as i64));
    report.note("gemm_threads", Value::Int(pinned_tuning().gemm_threads as i64));
    match args.workload {
        Workload::LenetGrid => lenet_grid::run(args.seed, args.seconds, args.trace, &mut report)?,
        Workload::ServeMixed => serve_mixed::run(args.seed, args.seconds, args.trace, &mut report)?,
    }
    let peak = sys::peak_rss_mb()?;
    report.metric("peak_rss_mb", peak, "MiB");
    Ok(report)
}

/// Writes the run record: provenance, every metric, failures, spans.
fn write_record(args: &Args, report: &Report) -> Result<PathBuf, String> {
    let mut doc = Value::table();
    for (key, value) in &report.provenance {
        doc.set(key, value.clone());
    }
    let mut metrics = Value::table();
    for (name, value, unit) in &report.metrics {
        let mut m = Value::table();
        m.set("value", Value::Float(*value));
        m.set("unit", Value::Str(unit.to_string()));
        metrics.set(name, m);
    }
    doc.set("metrics", metrics);
    doc.set("attempted", Value::Int(report.attempted as i64));
    doc.set("failed", Value::Int(report.failed as i64));
    doc.set(
        "failures",
        Value::Array(report.failures.iter().map(|f| Value::Str(f.clone())).collect()),
    );
    if let Some(spans) = &report.spans {
        doc.set("spans", spans.clone());
    }
    let path = PathBuf::from(OUT_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    swim_report::io::write_atomic(&path, doc.to_json().as_bytes())?;
    Ok(path)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&args) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let record = match write_record(&args, &report) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("e2ebench: writing the run record: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "\n== e2ebench {} (seed {}, trace {}) ==",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    for (key, value) in &report.provenance {
        if let Some(text) = value.as_str() {
            println!("  {key}: {text}");
        }
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {value:>14.6} {unit}");
    }
    let share = report.failed as f64 / report.attempted.max(1) as f64;
    println!("  failed_share: {} / {} = {share}", report.failed, report.attempted);
    for failure in &report.failures {
        println!("  FAILED: {failure}");
    }
    println!("  record: {}", record.display());
    println!("{}", report.result_line(args.trace));
}
