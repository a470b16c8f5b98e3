//! Spec-driven experiment engine: one entry point behind every paper
//! artifact and the `swim` CLI.
//!
//! [`run_spec`] takes a validated [`ExperimentSpec`], runs the
//! experiment it describes, prints its human-readable tables, and
//! returns (optionally writing to `--out`) a typed results document
//! ([`swim_report::ResultsDoc`]): the spec echo, seed, per-method
//! accuracy-vs-NWC curves, every rendered table, and wall time. Emission goes through the same schema
//! structs that `swim diff` / `swim report` parse back, so the write
//! path and the read path cannot drift apart; sweeps thereby become
//! diffable artifacts instead of terminal scrollback.
//!
//! `swim run` and `swim preset` resolve a spec, apply the command line
//! to it ([`apply_flag_overrides`], [`options_from_args`]) and call
//! [`run_spec`].

use crate::cli::{tuning_from_flags, Args};
use crate::driver::{run_methods, DriverConfig, MethodCurves};
use crate::prep::{prepare_with_model, PrepConfig, Prepared, Scenario};
use crate::speedup::nwc_to_reach;
use swim_cim::model::device_model_by_name;
use swim_core::montecarlo::SweepPoint;
use swim_core::report::{fmt_mean_std, Table};
use swim_core::select::SwimNoTieBreakSelector;
use swim_core::sensitivity::{correlation_study, CorrelationConfig};
use swim_exp::spec::{ExperimentKind, ExperimentSpec};
use swim_nn::loss::SoftmaxCrossEntropy;
use swim_report::io::write_atomic;
use swim_report::schema::{
    BlockKey, Correlations, CurvePoint, FaultDoc, InsituPoint, MethodCurveDoc, RawMethodDoc,
    RawSweepDoc, ResultsDoc, SweepDoc,
};
use swim_tensor::simd;
use swim_tensor::tune;
use swim_tensor::Prng;

/// Output options orthogonal to the experiment description.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Also print CSV blocks (`--csv`).
    pub csv: bool,
    /// Write the JSON results document here.
    pub out: Option<std::path::PathBuf>,
    /// The env/CLI kernel-tuning layers (from [`tuning_from_flags`]).
    /// [`run_spec`] overlays the spec's `[tune]` section on top and runs
    /// inside the result — timing-only, never affects result bytes.
    pub tuning: tune::KernelTuning,
    /// Write a checkpoint journal here after every completed block.
    pub checkpoint: Option<std::path::PathBuf>,
    /// Resume from this checkpoint journal (and keep checkpointing to it
    /// unless `checkpoint` points elsewhere).
    pub resume: Option<std::path::PathBuf>,
}

/// Accumulates the typed results alongside the printed output.
pub(crate) struct Collector {
    tables: Vec<Table>,
    sweeps: Vec<SweepDoc>,
    correlations: Option<Correlations>,
    faults: Vec<FaultDoc>,
    /// `(model, sigma)` blocks finished so far, in grid order —
    /// preseeded on `--resume`, journaled after every block.
    completed: Vec<BlockKey>,
    /// Checkpoint journal path, when checkpointing is on.
    journal: Option<std::path::PathBuf>,
    /// Blocks *this process* finished (excludes resumed ones) — drives
    /// the kill-mid-sweep test hook.
    blocks_this_run: usize,
    /// Suppress terminal output (serve assembly and the `swim merge`
    /// replay).
    quiet: bool,
}

impl Collector {
    fn new() -> Self {
        Collector {
            tables: Vec::new(),
            sweeps: Vec::new(),
            correlations: None,
            faults: Vec::new(),
            completed: Vec::new(),
            journal: None,
            blocks_this_run: 0,
            quiet: false,
        }
    }

    pub(crate) fn quiet() -> Self {
        Collector { quiet: true, ..Collector::new() }
    }

    /// Prints a table (unless quiet) and records it in the results
    /// document.
    fn show(&mut self, table: &Table) {
        if !self.quiet {
            println!("{}", table.render());
        }
        self.tables.push(table.clone());
    }

    /// Whether a `(model, sigma)` block was already completed (resumed
    /// from a checkpoint journal).
    fn block_done(&self, model: &str, sigma: f64) -> bool {
        self.completed.iter().any(|b| b.device_model == model && b.sigma == sigma)
    }

    /// Marks a block complete and, when checkpointing, journals the
    /// whole state so far to the checkpoint path (atomically — a crash
    /// between blocks never leaves a truncated journal).
    fn finish_block(
        &mut self,
        spec: &ExperimentSpec,
        model: &str,
        sigma: f64,
    ) -> Result<(), String> {
        self.completed.push(BlockKey { device_model: model.to_string(), sigma });
        self.blocks_this_run += 1;
        if let Some(path) = self.journal.clone() {
            let mut doc = ResultsDoc::new(spec.clone(), 0.0);
            doc.sweeps = self.sweeps.clone();
            doc.correlations = self.correlations;
            doc.tables = self.tables.clone();
            doc.faults = self.faults.clone();
            doc.completed = Some(self.completed.clone());
            write_atomic(&path, doc.to_json().as_bytes())?;
            if !self.quiet {
                eprintln!(
                    "[swim] checkpointed {} block(s) to {}",
                    self.completed.len(),
                    path.display()
                );
            }
            // Kill-mid-sweep test hook: die (uncleanly, as far as the
            // engine is concerned) right after the k-th checkpoint of
            // this process, so an integration test can resume from a
            // journal produced by a genuine partial run.
            if let Ok(k) = std::env::var("SWIM_TEST_ABORT_AFTER_BLOCKS") {
                if k.parse::<usize>() == Ok(self.blocks_this_run) {
                    eprintln!("[swim] SWIM_TEST_ABORT_AFTER_BLOCKS={k}: aborting");
                    std::process::exit(3);
                }
            }
        }
        Ok(())
    }
}

fn point_doc(p: &SweepPoint) -> CurvePoint {
    CurvePoint {
        fraction: p.fraction,
        nwc: p.nwc,
        accuracy_mean: p.accuracy.mean(),
        accuracy_std: p.accuracy.std(),
        accuracy_min: p.accuracy_min,
        accuracy_p05: p.accuracy_p05,
    }
}

/// One computed `(device model, sigma)` block: the clean accuracies of
/// its preparation and the per-method curves. [`sweep_block`] computes
/// it for `swim run` and `swim serve`; `swim merge` rebuilds it from
/// shard documents. [`emit_block`] presents and records it the same way
/// on every path.
pub(crate) struct Block {
    pub(crate) model: String,
    pub(crate) sigma: f64,
    pub(crate) float_accuracy: f64,
    pub(crate) quant_accuracy: f64,
    pub(crate) curves: MethodCurves,
}

/// A block as a typed schema record. `with_raw` attaches the per-run
/// matrices (shard documents and checkpoint journals of sharded runs —
/// the mergeable form); final unsharded documents omit them.
fn sweep_record(block: &Block, with_raw: bool) -> SweepDoc {
    let curves = &block.curves;
    let raw = with_raw.then(|| RawSweepDoc {
        methods: curves
            .methods
            .iter()
            .map(|m| RawMethodDoc {
                name: m.name.clone(),
                rows: if m.points.is_empty() {
                    Vec::new()
                } else {
                    m.raw.chunks(m.points.len()).map(|row| row.to_vec()).collect()
                },
            })
            .collect(),
        insitu_runs: curves.insitu_raw.clone(),
    });
    SweepDoc {
        device_model: block.model.clone(),
        sigma: block.sigma,
        float_accuracy: block.float_accuracy,
        quant_accuracy: block.quant_accuracy,
        methods: curves
            .methods
            .iter()
            .map(|m| MethodCurveDoc {
                name: m.name.clone(),
                points: m.points.iter().map(point_doc).collect(),
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
        raw,
    }
}

/// Records one finished block in the collector: the typed sweep record
/// plus any isolated run faults, tagged with the block's coordinates.
fn record_block(spec: &ExperimentSpec, collector: &mut Collector, block: &Block) {
    collector.sweeps.push(sweep_record(block, spec.run.shard.is_some()));
    for m in &block.curves.methods {
        for f in &m.faults {
            collector.faults.push(FaultDoc {
                device_model: block.model.clone(),
                sigma: block.sigma,
                method: m.name.clone(),
                run: f.run,
                seed: spec.seed,
                message: f.message.clone(),
            });
        }
    }
}

/// Assembles the typed results document shared by every kind.
pub(crate) fn results_document(
    spec: &ExperimentSpec,
    collector: Collector,
    wall_time_s: f64,
) -> ResultsDoc {
    let mut doc = ResultsDoc::new(spec.clone(), wall_time_s);
    doc.sweeps = collector.sweeps;
    doc.correlations = collector.correlations;
    doc.tables = collector.tables;
    doc.faults = collector.faults;
    doc
}

/// Preseeds the collector from a checkpoint journal: validates the
/// journal against the spec about to run, then adopts its completed
/// blocks wholesale so the engine re-enters at the first incomplete one.
fn resume_into(
    collector: &mut Collector,
    spec: &ExperimentSpec,
    path: &std::path::Path,
) -> Result<(), String> {
    let doc = ResultsDoc::load(path).map_err(|e| e.to_string())?;
    if doc.spec != *spec {
        return Err(format!(
            "{}: checkpoint journal was produced by a different experiment than the one being \
             resumed (spec echoes differ)",
            path.display()
        ));
    }
    let active = simd::backend().name();
    if doc.simd != active {
        return Err(format!(
            "{}: checkpoint journal was produced under SIMD backend `{}` but this process \
             dispatches through `{active}`; re-run with SWIM_SIMD={} (or `--simd {}`) to resume \
             it bit-identically",
            path.display(),
            doc.simd,
            doc.simd,
            doc.simd
        ));
    }
    let Some(completed) = doc.completed else {
        return Err(format!(
            "{}: not a checkpoint journal (no `completed` block list — this looks like a \
             finished results document)",
            path.display()
        ));
    };
    let grid = model_sigma_grid(spec);
    for b in &completed {
        if !grid.iter().any(|(m, s)| *m == b.device_model && *s == b.sigma) {
            return Err(format!(
                "{}: checkpointed block ({}, sigma={}) is not in this spec's grid",
                path.display(),
                b.device_model,
                b.sigma
            ));
        }
    }
    eprintln!(
        "[swim] resuming from {}: {} of {} block(s) already complete",
        path.display(),
        completed.len(),
        grid.len()
    );
    collector.tables = doc.tables;
    collector.sweeps = doc.sweeps;
    collector.correlations = doc.correlations;
    collector.faults = doc.faults;
    collector.completed = completed;
    Ok(())
}

/// Runs a validated spec end to end.
///
/// Prints the artifact's human-readable output, writes the JSON results
/// document to `opts.out` when set (atomically — a crash never leaves a
/// truncated document), and returns the typed document. The whole run,
/// document header included, executes under the spec's kernel
/// configuration (`with_spec_config`); the process default is left
/// alone.
pub fn run_spec(spec: &ExperimentSpec, opts: &RunOptions) -> Result<ResultsDoc, String> {
    spec.validate().map_err(|e| e.to_string())?;
    with_spec_config(spec, &opts.tuning, || run_validated(spec, opts))?
}

fn run_validated(spec: &ExperimentSpec, opts: &RunOptions) -> Result<ResultsDoc, String> {
    let grid_kind =
        matches!(spec.kind, ExperimentKind::Table1 | ExperimentKind::Fig2 | ExperimentKind::Sweep);
    if (opts.checkpoint.is_some() || opts.resume.is_some()) && !grid_kind {
        return Err(format!(
            "--checkpoint/--resume apply to block-structured kinds (table1, fig2, sweep), \
             not `{}`",
            spec.kind.key()
        ));
    }
    let t0 = std::time::Instant::now();
    let mut collector = Collector::new();
    collector.journal = opts.checkpoint.clone().or_else(|| opts.resume.clone());
    if let Some(path) = &opts.resume {
        resume_into(&mut collector, spec, path)?;
    }
    match spec.kind {
        ExperimentKind::Table1 | ExperimentKind::Fig2 | ExperimentKind::Sweep => {
            run_grid(spec, opts, &mut collector)?
        }
        ExperimentKind::Fig1 => run_fig1(spec, opts, &mut collector),
        ExperimentKind::Calibration => run_calibration(spec, opts, &mut collector),
        ExperimentKind::Ablation => run_ablation(spec, opts, &mut collector),
    }
    let doc = results_document(spec, collector, t0.elapsed().as_secs_f64());
    if let Some(path) = &opts.out {
        write_atomic(path, doc.to_json().as_bytes())
            .map_err(|e| format!("writing results document: {e}"))?;
        eprintln!("[swim] wrote results document to {}", path.display());
    }
    Ok(doc)
}

/// Runs `f` on the calling thread under the kernel configuration a
/// validated spec asks for: its `run.simd` backend (else the thread's
/// current one) and its `[tune]` section overlaid on `base`. Fails
/// without running `f` when the host cannot execute the backend.
pub(crate) fn with_spec_config<R>(
    spec: &ExperimentSpec,
    base: &tune::KernelTuning,
    f: impl FnOnce() -> R,
) -> Result<R, String> {
    let backend = match &spec.run.simd {
        Some(name) => simd::Backend::parse(name).expect("validated spec has a known SIMD backend"),
        None => simd::backend(),
    };
    simd::with_backend(backend, || tune::with_tuning(&tuning_with_spec(base, spec), f))
        .map_err(|e| format!("run.simd: {e}"))
}

/// The spec's `[tune]` section overlaid on the env/CLI tuning layers —
/// the top of the precedence chain (spec > flags > environment >
/// default). Unset spec keys fall through to `base`.
pub(crate) fn tuning_with_spec(
    base: &tune::KernelTuning,
    spec: &ExperimentSpec,
) -> tune::KernelTuning {
    let mut t = base.clone();
    if let Some(b) = spec.tune.gemm_block {
        t.gemm_block_cols = b;
    }
    if let Some(f) = spec.tune.gemm_min_flops {
        t.gemm_min_flops = f;
    }
    t
}

/// The preparation every block of a grid spec shares: data, training,
/// quantization and the sensitivities at the spec's evaluation batch.
///
/// Training and the sensitivity pass depend only on the seed, scenario
/// and training budget — the inputs [`ExperimentSpec::prep_fingerprint`]
/// hashes. The device configuration and device model enter only through
/// the model's [`swim_cim::mapping::WeightMapper`], so the result is
/// bound to the grid's first block and [`sweep_block`] rebinds a copy
/// to whichever block it sweeps.
///
/// The preparation is kept as trained, without a defensive clone: no
/// layer owns lowering scratch (convolutions pack their GEMM panels into
/// per-thread buffers), so nothing that training and the sensitivity
/// pass grew stays resident for as long as the preparation is shared —
/// every block of a run, and the lifetime of a serve cache entry.
pub(crate) fn prepare_shared(spec: &ExperimentSpec) -> Prepared {
    let sigma = spec.device.sigmas[0];
    let model = device_model(&spec.device.models[0]);
    let scenario = Scenario::from_spec(&spec.scenario);
    let mut prepared =
        prepare_with_model(scenario, spec.device.config_at(sigma), &PrepConfig::from(spec), model);
    prepared.sensitivities(spec.montecarlo.eval_batch);
    prepared
}

/// Sweeps every configured method over one `(device model, sigma)`
/// block: a copy of the shared preparation, rebound to the block's
/// device, through [`run_methods`] — byte-identical to a run that
/// prepared for that block alone.
pub(crate) fn sweep_block(
    spec: &ExperimentSpec,
    shared: &Prepared,
    model_name: &str,
    sigma: f64,
    cfg: &DriverConfig,
) -> Block {
    let mut prepared = shared.clone();
    prepared.model.rebind(spec.device.config_at(sigma), device_model(model_name));
    let curves = run_methods(&mut prepared, &spec.selection.selectors(), cfg);
    Block {
        model: model_name.to_string(),
        sigma,
        float_accuracy: prepared.float_accuracy,
        quant_accuracy: prepared.quant_accuracy,
        curves,
    }
}

/// A device model from the registry. The spec's `validate()` guarantees
/// every name it carries is registered.
fn device_model(name: &str) -> std::sync::Arc<dyn swim_cim::model::DeviceModel> {
    device_model_by_name(name)
        .unwrap_or_else(|| panic!("validated spec has unknown device model `{name}`"))
}

/// The grid of `(device model, sigma)` blocks a grid-kind spec runs,
/// models outermost (so all sigmas of one model group together in the
/// output and the results document).
pub(crate) fn model_sigma_grid(spec: &ExperimentSpec) -> Vec<(String, f64)> {
    spec.device
        .models
        .iter()
        .flat_map(|m| spec.device.sigmas.iter().map(move |&s| (m.clone(), s)))
        .collect()
}

/// The `(model, sigma)` label for a grid block: just the sigma when the
/// spec runs a single device model (the historical output, preserved
/// byte-for-byte), the pair otherwise.
fn block_label(spec: &ExperimentSpec, model_name: &str, sigma: f64) -> String {
    if spec.device.models.len() == 1 {
        format!("sigma = {sigma}")
    } else {
        format!("model = {model_name}, sigma = {sigma}")
    }
}

/// The CSV label of a block: `{prefix}_sigma_{sigma}`, with the model
/// name inserted when the spec runs more than one device model.
fn block_csv_label(spec: &ExperimentSpec, prefix: &str, block: &Block) -> String {
    if spec.device.models.len() == 1 {
        format!("{prefix}_sigma_{}", block.sigma)
    } else {
        format!("{prefix}_{}_sigma_{}", block.model, block.sigma)
    }
}

/// Runs a grid kind (table1, fig2, sweep): the kind's header, then every
/// block not already completed (resumed from a checkpoint journal), then
/// the kind's trailer. The first block run prepares; later blocks reuse
/// that preparation. Fig. 2 specs are validated to a single block.
fn run_grid(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    collector: &mut Collector,
) -> Result<(), String> {
    let scenario = Scenario::from_spec(&spec.scenario);
    match spec.kind {
        ExperimentKind::Table1 => {
            let scenario_label = match scenario {
                // The seed binary's hardcoded header, preserved byte-for-byte.
                Scenario::LenetMnist => "LeNet / MNIST-substitute, 4-bit".to_string(),
                other => other.name(),
            };
            println!("SWIM reproduction — Table 1: {scenario_label}");
            println!(
                "(runs = {}; the paper used 3000. Absolute accuracies differ on the synthetic \
                 dataset; compare method ordering, gaps, and stds.)\n",
                spec.montecarlo.runs
            );
        }
        ExperimentKind::Fig2 => {
            println!("SWIM reproduction — {}: {}", spec.name, scenario.name());
            println!("paper: {}\n", spec.note);
        }
        _ => {
            println!("SWIM experiment — {}: {}", spec.name, scenario.name());
            if !spec.note.is_empty() {
                println!("note: {}", spec.note);
            }
            println!();
        }
    }

    // `run_spec` runs inside the fully resolved tuning (spec > flags >
    // env); the driver config reads it back so every layer sees one
    // policy.
    let t = tune::current();
    let cfg = DriverConfig::from_spec(spec, t.gemm_threads, t.gemm_block_cols);
    let mut shared = None;
    for (model_name, sigma) in model_sigma_grid(spec) {
        if collector.block_done(&model_name, sigma) {
            continue;
        }
        if shared.is_some() {
            eprintln!(
                "[prep] reusing the trained model and its sensitivities for {}",
                block_label(spec, &model_name, sigma)
            );
        }
        let shared = shared.get_or_insert_with(|| prepare_shared(spec));
        let block = sweep_block(spec, shared, &model_name, sigma, &cfg);
        emit_block(spec, opts.csv, collector, &block);
        collector.finish_block(spec, &model_name, sigma)?;
    }

    if spec.kind == ExperimentKind::Table1 {
        println!(
            "paper shape: SWIM reaches full-write-verify accuracy at the lowest NWC at every sigma,\n\
             with the smallest std; magnitude is second; random and in-situ need most cycles."
        );
    }
    Ok(())
}

/// Presents one finished block the way its spec's kind does and records
/// it in the collector. Live runs, the served-document assembly and the
/// `swim merge` replay (the latter two with a quiet collector and
/// `csv = false`) all emit through here.
pub(crate) fn emit_block(
    spec: &ExperimentSpec,
    csv: bool,
    collector: &mut Collector,
    block: &Block,
) {
    match spec.kind {
        ExperimentKind::Table1 => emit_table1_block(spec, csv, collector, block),
        ExperimentKind::Fig2 => emit_fig2_block(spec, csv, collector, block),
        _ => emit_sweep_block(spec, csv, collector, block),
    }
}

// ---------------------------------------------------------- Table 1

/// Emits one Table 1 block: the per-method table, the two §4.3 speed-up
/// summaries, and the typed records.
fn emit_table1_block(spec: &ExperimentSpec, csv: bool, collector: &mut Collector, block: &Block) {
    let label = block_label(spec, &block.model, block.sigma);
    if !collector.quiet {
        println!(
            "\n{label}: float accuracy {:.2}%, quantized (clean-mapped) accuracy {:.2}%",
            block.float_accuracy, block.quant_accuracy
        );
    }
    let curves = &block.curves;
    let table = curves.to_table(&format!("Table 1 block, {label}"));
    collector.show(&table);
    if csv {
        println!("{}", curves.to_csv(&block_csv_label(spec, "table1", block)));
    }
    record_block(spec, collector, block);

    let Some(swim) = curves.curve("SWIM") else { return };

    // §4.3 speed-up summary: NWC needed to come within 0.1 points of
    // the full write-verify accuracy.
    let full_wv = swim.last().expect("nonempty sweep").accuracy.mean();
    let target = full_wv - 0.1;
    let mut summary = Table::new(
        format!("write cycles to reach {target:.2}% (full-WV {full_wv:.2}% − 0.1)"),
        &["method", "NWC needed", "speedup vs full write-verify"],
    );
    let insitu_points = curves.insitu_points();
    let mut rows: Vec<(&str, &[SweepPoint])> =
        curves.methods.iter().map(|m| (m.name.as_str(), m.points.as_slice())).collect();
    if !insitu_points.is_empty() {
        rows.push(("In-situ", &insitu_points));
    }
    for (name, pts) in &rows {
        let (nwc_text, speed_text) = match nwc_to_reach(pts, target) {
            Some(nwc) if nwc > 0.0 => (format!("{nwc:.2}"), format!("{:.1}x", 1.0 / nwc)),
            Some(_) => ("0.00".into(), "inf".into()),
            None => ("not reached ≤ 1.0".into(), "-".into()),
        };
        summary.push_row_owned(vec![name.to_string(), nwc_text, speed_text]);
    }
    collector.show(&summary);

    // The paper's §4.3 comparison style: the NWC each *baseline*
    // needs to attain the accuracy SWIM reaches at NWC = 0.1
    // (paper: magnitude ~0.5, random ~0.9, in-situ ~0.9 → 5x/9x/9x).
    if let Some(swim_01) = swim.iter().find(|p| (p.fraction - 0.1).abs() < 1e-9) {
        let target = swim_01.accuracy.mean();
        let mut equal = Table::new(
            format!("NWC to attain SWIM@0.1's accuracy ({target:.2}%)"),
            &["method", "NWC needed", "SWIM speedup"],
        );
        for (name, pts) in &rows {
            let (nwc_text, speed_text) = match nwc_to_reach(pts, target) {
                Some(nwc) if nwc > 0.0 => (format!("{nwc:.2}"), format!("{:.1}x", nwc / 0.1)),
                Some(_) => ("0.00".into(), "-".into()),
                None => ("not reached ≤ 1.0".into(), ">10x".into()),
            };
            equal.push_row_owned(vec![name.to_string(), nwc_text, speed_text]);
        }
        collector.show(&equal);
    }
}

// ------------------------------------------------------------ Fig. 2

/// Emits the single Fig. 2 block: the sweep table, the typed records,
/// and the paper's shape checks.
fn emit_fig2_block(spec: &ExperimentSpec, csv: bool, collector: &mut Collector, block: &Block) {
    if !collector.quiet {
        println!(
            "float accuracy {:.2}%, quantized (clean-mapped) accuracy {:.2}%",
            block.float_accuracy, block.quant_accuracy
        );
    }
    let curves = &block.curves;
    let table = curves.to_table(&format!("{} accuracy vs NWC", spec.name));
    collector.show(&table);
    if csv {
        println!("{}", curves.to_csv(&spec.name));
    }
    record_block(spec, collector, block);

    if collector.quiet {
        return;
    }
    // The paper's headline comparison: the accuracy retained at NWC = 0.1
    // versus writing-verifying everything.
    let Some(swim) = curves.curve("SWIM") else { return };
    let full = swim.last().expect("nonempty sweep").accuracy.mean();
    println!("shape checks vs the paper:");
    let at = |pts: &[SweepPoint]| {
        pts.iter().find(|p| (p.fraction - 0.1).abs() < 1e-9).map(|p| p.accuracy.mean())
    };
    if let (Some(s), Some(m), Some(r)) =
        (at(swim), curves.curve("Magnitude").and_then(at), curves.curve("Random").and_then(at))
    {
        println!(
            "  at NWC=0.1: SWIM {s:.2}% vs Magnitude {m:.2}% vs Random {r:.2}% (full WV {full:.2}%)"
        );
        println!(
            "  SWIM drop at NWC=0.1: {:.2} points; ordering SWIM>=Magnitude>=Random {}",
            full - s,
            if s >= m - 0.3 && m >= r - 0.3 { "holds" } else { "VIOLATED" }
        );
    }
    let target = full - 0.5;
    if let Some(nwc) = nwc_to_reach(swim, target) {
        println!("  SWIM reaches (full-WV − 0.5%) at NWC {nwc:.2} — paper: ~0.1 for ResNet-18");
    }
}

// ----------------------------------------------------- generic sweep

/// Emits one generic-sweep block: per-block method table, no paper
/// framing.
fn emit_sweep_block(spec: &ExperimentSpec, csv: bool, collector: &mut Collector, block: &Block) {
    let label = block_label(spec, &block.model, block.sigma);
    if !collector.quiet {
        println!(
            "{label}: float accuracy {:.2}%, quantized (clean-mapped) accuracy {:.2}%",
            block.float_accuracy, block.quant_accuracy
        );
    }
    let table = block.curves.to_table(&format!("{} accuracy vs NWC ({label})", spec.name));
    collector.show(&table);
    if csv {
        println!("{}", block.curves.to_csv(&block_csv_label(spec, &spec.name, block)));
    }
    record_block(spec, collector, block);
}

// ------------------------------------------------------------ Fig. 1

/// The `fig1` output: perturbation scatter plus the Pearson summary.
fn run_fig1(spec: &ExperimentSpec, opts: &RunOptions, collector: &mut Collector) {
    let probes = spec.correlation.probes;
    let runs = spec.correlation.runs;
    println!("SWIM reproduction — Fig. 1: single-weight perturbation correlations");
    println!("paper: Fig. 1a weak magnitude correlation; Fig. 1b strong second-derivative correlation (r = 0.83)\n");

    let sigma = spec.device.sigmas[0];
    let device = spec.device.config_at(sigma);
    let scenario = Scenario::from_spec(&spec.scenario);
    let prep_cfg = PrepConfig::from(spec);
    let model = device_model(&spec.device.models[0]);
    let mut prepared = prepare_with_model(scenario, device, &prep_cfg, model);

    eprintln!("[fig1] computing sensitivities...");
    let sens = prepared.model.sensitivities(&SoftmaxCrossEntropy::new(), &prepared.train, 128);

    eprintln!("[fig1] perturbing {probes} weights x {runs} Monte Carlo runs...");
    let study_cfg = CorrelationConfig {
        probes,
        runs,
        batch: spec.montecarlo.eval_batch,
        seed: spec.seed.wrapping_add(9),
    };
    // The accuracy drops are measured on the *training* split: the
    // second-derivative theory (Eq. 3) concerns the converged training
    // loss, and on a small held-out set single-weight perturbations help
    // as often as they hurt, drowning the signal (the paper's 10k-image
    // MNIST test set with a 98.7%-accurate model does not have this
    // problem).
    let study = correlation_study(&mut prepared.model, &sens, &prepared.train, &study_cfg);

    let mut table = Table::new(
        "Fig. 1 scatter data (one row per probed weight)",
        &["weight_idx", "magnitude", "second_derivative", "accuracy_drop_%"],
    );
    for impact in &study.impacts {
        table.push_row_owned(vec![
            impact.index.to_string(),
            format!("{:.5}", impact.magnitude),
            format!("{:.6e}", impact.sensitivity),
            format!("{:.4}", impact.accuracy_drop),
        ]);
    }
    if opts.csv {
        println!("{}", table.to_csv());
    } else {
        println!("({} scatter rows suppressed; pass --csv to print them)\n", table.len());
    }
    collector.tables.push(table.clone());

    let mut summary =
        Table::new("Fig. 1 correlation summary", &["series", "Pearson r (measured)", "paper"]);
    summary.push_row_owned(vec![
        "1a: |w| vs accuracy drop".into(),
        format!("{:.3}", study.magnitude_correlation),
        "weak (\"little correlation\")".into(),
    ]);
    summary.push_row_owned(vec![
        "1b: d2f/dw2 vs accuracy drop".into(),
        format!("{:.3}", study.sensitivity_correlation),
        "strong (r = 0.83)".into(),
    ]);
    collector.show(&summary);

    collector.correlations = Some(Correlations {
        magnitude: study.magnitude_correlation,
        sensitivity: study.sensitivity_correlation,
    });

    let ok = study.sensitivity_correlation > study.magnitude_correlation;
    println!(
        "shape check: second derivative correlates {} than magnitude — {}",
        if ok { "more strongly" } else { "LESS strongly" },
        if ok { "matches the paper" } else { "DOES NOT match the paper" }
    );
}

// ------------------------------------------------------- calibration

/// The `calibration` output: §4.1 write-verify statistics.
fn run_calibration(spec: &ExperimentSpec, opts: &RunOptions, collector: &mut Collector) {
    use swim_cim::device::{DeviceConfig, DeviceTech};
    use swim_cim::writeverify::measure_stats;

    let samples = spec.calibration.devices;
    println!("SWIM reproduction — §4.1 device-model calibration");
    println!("paper: ~10 average write cycles/weight, residual sigma ~0.03 at sigma = 0.1\n");

    let mut table = Table::new(
        format!("write-verify statistics over {samples} devices"),
        &["config", "sigma", "avg cycles", "residual std", "raw std", "1-try rate"],
    );

    let mut rng = Prng::seed_from_u64(spec.seed);
    for &sigma in &spec.device.sigmas {
        let cfg = spec.device.config_at(sigma);
        let stats = measure_stats(&cfg, samples, &mut rng);
        table.push_row_owned(vec![
            format!("{} (paper sweep)", spec.device.tech),
            format!("{sigma:.2}"),
            format!("{:.2}", stats.avg_pulses),
            format!("{:.4}", stats.residual_std),
            format!("{:.4}", stats.raw_std),
            format!("{:.3}", stats.first_try_rate),
        ]);
    }
    for tech in DeviceTech::all() {
        let cfg = DeviceConfig::for_tech(tech);
        let stats = measure_stats(&cfg, samples, &mut rng);
        table.push_row_owned(vec![
            format!("{tech} preset"),
            format!("{:.2}", cfg.sigma),
            format!("{:.2}", stats.avg_pulses),
            format!("{:.4}", stats.residual_std),
            format!("{:.4}", stats.raw_std),
            format!("{:.3}", stats.first_try_rate),
        ]);
    }
    // The seed binary printed the table before its optional CSV block.
    println!("{}", table.render());
    if opts.csv {
        println!("{}", table.to_csv());
    }
    collector.tables.push(table.clone());
    println!("paper-vs-measured: at sigma = 0.10 expect avg cycles ≈ 10 and residual ≈ 0.03.");
}

// ---------------------------------------------------------- ablation

/// The `ablation` output: granularity sweep, tie-break comparison,
/// calibration-set-size study.
fn run_ablation(spec: &ExperimentSpec, _opts: &RunOptions, collector: &mut Collector) {
    use swim_core::algorithm::selective_write_verify;
    use swim_core::montecarlo::{nwc_sweep, PanicPolicy, SweepConfig};
    use swim_core::select::{build_ranking, Strategy};

    let sigma = spec.device.sigmas[0];
    let runs = spec.montecarlo.runs;
    let threads = spec.threads();
    let seed = spec.seed;

    println!("SWIM reproduction — ablations\n");
    let device = spec.device.config_at(sigma);
    let scenario = Scenario::from_spec(&spec.scenario);
    let prep_cfg = PrepConfig::from(spec);
    let model = device_model(&spec.device.models[0]);
    let mut prepared = prepare_with_model(scenario, device, &prep_cfg, model);
    let loss = SoftmaxCrossEntropy::new();
    let sens = prepared.model.sensitivities(&loss, &prepared.train, 128);
    let mags = prepared.model.magnitudes();
    let reference = prepared.quant_accuracy / 100.0;

    // ------------------------------------------- 1. granularity p sweep
    let ranking = build_ranking(Strategy::Swim, &sens, &mags, None);
    let mut table = Table::new(
        format!(
            "Algorithm 1 granularity sweep (deltaA = {}%, sigma = {sigma})",
            100.0 * spec.ablation.max_drop
        ),
        &["p", "mean NWC", "mean verified %", "mean groups (re-reads)", "mean accuracy %"],
    );
    for &p in &spec.ablation.granularities {
        let cfg = spec.alg1_config_at(p);
        let mut nwc = swim_tensor::stats::Running::new();
        let mut verified = swim_tensor::stats::Running::new();
        let mut groups = swim_tensor::stats::Running::new();
        let mut acc = swim_tensor::stats::Running::new();
        for run in 0..runs {
            let mut rng = Prng::seed_from_u64(seed.wrapping_add(1000 + run as u64));
            let out = selective_write_verify(
                &mut prepared.model,
                &ranking,
                &prepared.train,
                reference,
                &cfg,
                &mut rng,
            );
            nwc.push(out.nwc);
            verified.push(100.0 * out.verified_fraction);
            groups.push(out.groups as f64);
            acc.push(100.0 * out.accuracy);
        }
        table.push_row_owned(vec![
            format!("{:.0}%", 100.0 * p),
            format!("{:.3}", nwc.mean()),
            format!("{:.1}", verified.mean()),
            format!("{:.1}", groups.mean()),
            format!("{:.2}", acc.mean()),
        ]);
    }
    collector.show(&table);
    println!(
        "expected: small p finds a tighter stopping point (lower NWC) at the cost of more\n\
         accuracy re-reads; p = 5% (the paper's choice) balances the two.\n"
    );

    // ------------------------------------------- 2. tie-break ablation
    let sweep_cfg = SweepConfig {
        fractions: spec.ablation.tiebreak_fractions.clone(),
        runs,
        threads,
        eval_batch: spec.montecarlo.eval_batch,
        seed,
        run_offset: 0,
        on_panic: PanicPolicy::FailFast,
    };
    let with_tb =
        nwc_sweep(&prepared.model, &Strategy::Swim, &sens, &mags, &prepared.test, &sweep_cfg);
    let without_tb = nwc_sweep(
        &prepared.model,
        &SwimNoTieBreakSelector,
        &sens,
        &mags,
        &prepared.test,
        &sweep_cfg,
    );
    let mut table = Table::new(
        "magnitude tie-break ablation (SWIM ranking, accuracy %)",
        &["NWC", "with |w| tie-break", "without (index order)"],
    );
    for (a, b) in with_tb.iter().zip(&without_tb) {
        table.push_row_owned(vec![
            format!("{:.2}", a.fraction),
            fmt_mean_std(&a.accuracy),
            fmt_mean_std(&b.accuracy),
        ]);
    }
    collector.show(&table);
    println!(
        "expected: differences are small (ties are rare among float sensitivities) but the\n\
         tie-break never hurts — it matters when many weights share a zero sensitivity.\n"
    );

    // --------------------------------- 3. calibration-set size ablation
    // How much data does the single sensitivity pass need? The paper uses
    // the full training set; if a small calibration slice suffices, the
    // (already one-pass) analysis gets proportionally cheaper.
    let sweep_fracs = vec![0.1];
    let mut table = Table::new(
        "sensitivity calibration-set size (SWIM accuracy % at NWC = 0.1)",
        &["calibration samples", "rank corr. vs full", "accuracy @ NWC 0.1"],
    );
    let full_ranking_order = {
        let mut idx: Vec<usize> = (0..sens.len()).collect();
        idx.sort_by(|&a, &b| sens[b].partial_cmp(&sens[a]).unwrap_or(std::cmp::Ordering::Equal));
        // Rank position of each weight under the full-data sensitivities.
        let mut rank = vec![0.0f64; sens.len()];
        for (pos, &w) in idx.iter().enumerate() {
            rank[w] = pos as f64;
        }
        rank
    };
    for &frac in &spec.ablation.calibration_fractions {
        let n = ((prepared.train.len() as f64 * frac) as usize).max(32);
        let subset = prepared.train.take(n);
        let sub_sens = prepared.model.sensitivities(&loss, &subset, 128);
        // Spearman-style agreement with the full-data ranking.
        let sub_rank = {
            let mut idx: Vec<usize> = (0..sub_sens.len()).collect();
            idx.sort_by(|&a, &b| {
                sub_sens[b].partial_cmp(&sub_sens[a]).unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut rank = vec![0.0f64; sub_sens.len()];
            for (pos, &w) in idx.iter().enumerate() {
                rank[w] = pos as f64;
            }
            rank
        };
        let agreement = swim_tensor::stats::pearson(&full_ranking_order, &sub_rank);
        let sweep_cfg = SweepConfig {
            fractions: sweep_fracs.clone(),
            runs,
            threads,
            eval_batch: spec.montecarlo.eval_batch,
            seed: seed.wrapping_add(7),
            run_offset: 0,
            on_panic: PanicPolicy::FailFast,
        };
        let pts = nwc_sweep(
            &prepared.model,
            &Strategy::Swim,
            &sub_sens,
            &mags,
            &prepared.test,
            &sweep_cfg,
        );
        table.push_row_owned(vec![
            format!("{n}"),
            format!("{agreement:.3}"),
            fmt_mean_std(&pts[0].accuracy),
        ]);
    }
    collector.show(&table);
    println!(
        "expected: the ranking stabilizes with a few hundred calibration samples — the\n\
         sensitivity pass can run on a small slice of the training data."
    );
}

// ------------------------------------------------------ command line

/// Flags that configure output or kernels rather than the experiment —
/// never forwarded into the spec.
const NON_SPEC_FLAGS: &[&str] = &["gemm-threads", "out", "checkpoint", "resume"];

/// Boolean flags `swim run`/`swim preset` understand; anything else is a
/// typo.
const KNOWN_BOOL_FLAGS: &[&str] = &["quick", "csv", "full", "help"];

/// Applies the `--flag value` pairs of `swim run`/`swim preset` as spec
/// overrides and rejects unknown boolean flags (a typo like `--quik`
/// must not silently launch the full-budget experiment).
pub fn apply_flag_overrides(spec: &mut ExperimentSpec, args: &Args) -> Result<(), String> {
    if let Some(unknown) = args.flags().find(|f| !KNOWN_BOOL_FLAGS.contains(f)) {
        return Err(format!("unknown flag --{unknown} (pass --help for the flag reference)"));
    }
    let pairs: Vec<(String, String)> =
        args.values().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    for (key, value) in pairs {
        if NON_SPEC_FLAGS.contains(&key.as_str()) {
            continue;
        }
        spec.apply_set(&format!("{key}={value}")).map_err(|e| format!("--{key}: {e}"))?;
    }
    Ok(())
}

/// Resolves output options and the env/CLI tuning layers for a spec
/// (the spec's own `[tune]` section is overlaid later, by [`run_spec`]).
pub fn options_from_args(spec: &ExperimentSpec, args: &Args) -> Result<RunOptions, String> {
    // Single-run artifacts (no Monte Carlo fan-out during the heavy
    // phases) let the matrix kernels use every core.
    let mc_threads = match spec.kind {
        ExperimentKind::Fig1 | ExperimentKind::Calibration => 1,
        _ => spec.threads(),
    };
    let tuning = tuning_from_flags(args, mc_threads)?;
    Ok(RunOptions {
        csv: args.has("csv") || args.has("full"),
        out: args.get("out").map(std::path::PathBuf::from),
        tuning,
        checkpoint: args.get("checkpoint").map(std::path::PathBuf::from),
        resume: args.get("resume").map(std::path::PathBuf::from),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use swim_tensor::stats::Running;

    fn mk_point(fraction: f64, acc: f64) -> SweepPoint {
        let mut r = Running::new();
        r.push(acc);
        r.push(acc + 1.0);
        SweepPoint {
            fraction,
            nwc: fraction * 0.9,
            accuracy: r,
            accuracy_min: acc,
            accuracy_p05: acc + 0.05,
        }
    }

    /// The results document must embed a spec echo that parses back to
    /// the exact spec that ran — the acceptance contract for diffable
    /// sweep artifacts.
    #[test]
    fn results_document_spec_echo_round_trips() {
        let spec = swim_exp::preset("fig2a", true).unwrap();
        let mut collector = Collector::new();
        let mut table = Table::new("demo", &["a"]);
        table.push_row(&["1"]);
        collector.tables.push(table.clone());
        let doc = results_document(&spec, collector, 1.25);

        let json = doc.to_json();
        let parsed = swim_exp::value::parse_json(&json).unwrap();
        assert_eq!(
            parsed.get("swim_results_version").unwrap().as_int(),
            Some(swim_report::schema::RESULTS_VERSION)
        );
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("fig2"));
        let echoed = ExperimentSpec::from_value(parsed.get("spec").unwrap()).unwrap();
        assert_eq!(echoed, spec);
    }

    #[test]
    fn sweep_record_shape() {
        use crate::driver::{InsituStats, MethodCurve};
        let mut acc = Running::new();
        acc.push(94.0);
        let curves = MethodCurves {
            methods: vec![MethodCurve {
                name: "SWIM".into(),
                points: vec![mk_point(0.0, 90.0), mk_point(1.0, 95.0)],
                raw: vec![(90.0, 0.0), (95.0, 0.9)],
                faults: Vec::new(),
            }],
            insitu: vec![InsituStats { nwc: 0.5, accuracy: acc }],
            insitu_raw: Vec::new(),
        };
        let block = Block {
            model: "rram-gaussian".into(),
            sigma: 0.1,
            float_accuracy: 99.0,
            quant_accuracy: 98.5,
            curves,
        };
        let rec = sweep_record(&block, false);
        assert_eq!(rec.device_model, "rram-gaussian");
        assert_eq!(rec.sigma, 0.1);
        assert_eq!(rec.methods[0].name, "SWIM");
        assert_eq!(rec.methods[0].points.len(), 2);
        assert!(rec.methods[0].points[1].accuracy_mean > 95.0);
        assert_eq!(rec.methods[0].points[1].accuracy_min, 95.0);
        assert!((rec.methods[0].points[1].accuracy_p05 - 95.05).abs() < 1e-12);
        assert_eq!(rec.insitu[0].accuracy_mean, 94.0);
    }

    /// Every preset's emitted document must re-parse through the typed
    /// schema — write path and read path share one definition.
    #[test]
    fn every_preset_document_round_trips_through_schema() {
        for info in swim_exp::preset_infos() {
            for quick in [false, true] {
                let spec = swim_exp::preset(info.name, quick).unwrap();
                let mut collector = Collector::new();
                let mut table = Table::new("demo", &["method", "acc"]);
                table.push_row(&["SWIM", "98.50 ± 0.10"]);
                collector.show(&table);
                let mut acc = Running::new();
                acc.push(97.0);
                acc.push(98.0);
                let curves = MethodCurves {
                    methods: vec![crate::driver::MethodCurve {
                        name: "SWIM".into(),
                        points: vec![mk_point(0.0, 90.0), mk_point(1.0, 97.5)],
                        raw: vec![(90.0, 0.0), (97.5, 0.9)],
                        faults: Vec::new(),
                    }],
                    insitu: vec![crate::driver::InsituStats { nwc: 0.4, accuracy: acc }],
                    insitu_raw: Vec::new(),
                };
                let block = Block {
                    model: spec.device.models[0].clone(),
                    sigma: spec.device.sigmas[0],
                    float_accuracy: 99.1,
                    quant_accuracy: 98.6,
                    curves,
                };
                collector.sweeps.push(sweep_record(&block, spec.run.shard.is_some()));
                if spec.kind == ExperimentKind::Fig1 {
                    collector.correlations =
                        Some(Correlations { magnitude: 0.1, sensitivity: 0.8 });
                }
                let doc = results_document(&spec, collector, 0.5);
                let back = ResultsDoc::parse_str(&doc.to_json())
                    .unwrap_or_else(|e| panic!("preset {} (quick={quick}): {e}", info.name));
                assert_eq!(back, doc, "preset {} (quick={quick})", info.name);
                assert_eq!(back.spec, spec);
            }
        }
    }

    /// Every checked-in spec file must parse, validate, and survive the
    /// results-document spec-echo loop — `swim run <file> --out r.json`
    /// then feeding `r.json`'s `spec` object back to the parser yields
    /// the identical experiment.
    #[test]
    fn checked_in_spec_files_round_trip() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).expect("examples/specs exists") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("toml") {
                continue;
            }
            seen += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            let spec = ExperimentSpec::parse_str(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let doc = results_document(&spec, Collector::new(), 0.0);
            let echoed = ResultsDoc::parse_str(&doc.to_json()).unwrap();
            assert_eq!(echoed.spec, spec, "{}", path.display());
        }
        assert!(seen >= 3, "expected the sample specs to be present, found {seen}");
    }

    #[test]
    fn flag_overrides_respect_non_spec_flags() {
        let mut spec = swim_exp::preset("table1", false).unwrap();
        let args = Args::try_parse_from(
            ["--runs", "7", "--gemm-threads", "2", "--out", "x.json"].iter().map(|s| s.to_string()),
        )
        .unwrap();
        apply_flag_overrides(&mut spec, &args).unwrap();
        assert_eq!(spec.montecarlo.runs, 7);
        // gemm/out flags did not leak into the spec (they would be
        // unknown keys).
    }

    #[test]
    fn unknown_flag_override_errors() {
        let mut spec = swim_exp::preset("table1", false).unwrap();
        let args = Args::try_parse_from(["--rnus", "7"].iter().map(|s| s.to_string())).unwrap();
        let e = apply_flag_overrides(&mut spec, &args).unwrap_err();
        assert!(e.contains("rnus"), "{e}");
    }

    /// A typo'd boolean flag (`--quik`) must error, not silently launch
    /// the full-budget experiment.
    #[test]
    fn unknown_boolean_flag_errors() {
        let mut spec = swim_exp::preset("table1", false).unwrap();
        let args = Args::try_parse_from(["--quik".to_string()].into_iter()).unwrap();
        let e = apply_flag_overrides(&mut spec, &args).unwrap_err();
        assert!(e.contains("--quik"), "{e}");
        // The real flags are accepted.
        let args =
            Args::try_parse_from(["--quick", "--csv", "--full"].iter().map(|s| s.to_string()))
                .unwrap();
        apply_flag_overrides(&mut spec, &args).unwrap();
    }

    /// Single-sigma kinds reject a sigma grid — the spec echo must
    /// never claim sigmas the engine did not run.
    #[test]
    fn single_sigma_kinds_reject_grids() {
        for preset_name in ["fig2a", "fig1", "ablation"] {
            let mut spec = swim_exp::preset(preset_name, true).unwrap();
            let e = spec.apply_set("sigmas=0.1,0.2").unwrap_err();
            assert!(e.0.contains("single variation level"), "{preset_name}: {e}");
        }
        // Grid kinds still accept it.
        let mut spec = swim_exp::preset("table1", true).unwrap();
        spec.apply_set("sigmas=0.1,0.2").unwrap();
    }
}
