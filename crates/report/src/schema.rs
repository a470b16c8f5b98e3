//! The typed, versioned schema of the JSON results document.
//!
//! [`ResultsDoc`] is the single definition of what `swim run --out`
//! writes and what `swim diff` / `swim report` / `swim summarize` read:
//! the experiment engine builds a `ResultsDoc` and serializes it with
//! [`ResultsDoc::to_value`], the analysis commands re-parse it with
//! [`ResultsDoc::from_value`], and a round-trip test pins the two
//! together — the write path and the read path cannot drift apart.
//!
//! Parsing is *strict*: unknown keys are rejected with their full
//! dotted path (like spec files), required keys must be present, and
//! the embedded spec echo must itself parse and validate. The
//! denormalized convenience copies (`name`, `kind`, `seed` at the top
//! level) are checked against the spec echo so a hand-edited document
//! cannot claim to be an experiment it is not.
//!
//! Versioning: [`RESULTS_VERSION`] is bumped on **any** schema change
//! (strict readers make even additive changes observable); the tools in
//! this crate read exactly the version they were built for. See
//! `docs/results-schema.md` for the field-by-field reference and the
//! compatibility policy.

use swim_core::report::Table;
use swim_exp::spec::{ExperimentKind, ExperimentSpec};
use swim_exp::value::{parse_json, Reader, Value};

/// The results-document schema version this crate reads and writes.
///
/// Version history: 1 = original schema; 2 = `CurvePoint` gained the
/// tail-risk columns `accuracy_min` / `accuracy_p05` and `SweepDoc`
/// gained `device_model`; 3 = the partial-document flavor behind
/// `swim merge` and `swim run --resume` (`shard` provenance, the
/// `completed` checkpoint block list, per-block `raw` Monte Carlo
/// matrices in shard documents, the `faults` section for isolated run
/// panics, and `[montecarlo] on_panic` in the spec echo); 4 = the
/// top-level `simd` backend provenance field and `[run] simd` in the
/// spec echo; 5 = the top-level `tuning` kernel-autotuning provenance
/// block (requested pins plus every shape-keyed choice the tuner made)
/// and the `[tune]` section in the spec echo.
pub const RESULTS_VERSION: i64 = 5;

/// A results-document parsing/validation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "results document error: {}", self.0)
    }
}

impl std::error::Error for SchemaError {}

impl From<String> for SchemaError {
    fn from(msg: String) -> Self {
        SchemaError(msg)
    }
}

fn err(msg: impl Into<String>) -> SchemaError {
    SchemaError(msg.into())
}

/// One swept point of a selection method's accuracy-vs-NWC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Write-verified weight fraction (the sweep-grid coordinate).
    pub fraction: f64,
    /// Normalized write cycles actually spent at this point.
    pub nwc: f64,
    /// Mean accuracy over the Monte Carlo runs (percent).
    pub accuracy_mean: f64,
    /// Accuracy standard deviation over the Monte Carlo runs (percent).
    pub accuracy_std: f64,
    /// Worst accuracy over the Monte Carlo runs (percent) — the
    /// tail-risk floor a deployment would actually ship.
    pub accuracy_min: f64,
    /// 5th-percentile accuracy over the Monte Carlo runs (percent),
    /// linearly interpolated between sorted ranks.
    pub accuracy_p05: f64,
}

/// One checkpoint of the in-situ training baseline (no selection
/// fraction — NWC itself is the axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InsituPoint {
    /// Normalized write cycles spent up to this checkpoint.
    pub nwc: f64,
    /// Mean accuracy over the Monte Carlo runs (percent).
    pub accuracy_mean: f64,
    /// Accuracy standard deviation over the Monte Carlo runs (percent).
    pub accuracy_std: f64,
}

/// One selection method's full curve, keyed by display name.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodCurveDoc {
    /// Selector display name (e.g. `SWIM`, `Magnitude`).
    pub name: String,
    /// The swept points, one per sweep-grid fraction.
    pub points: Vec<CurvePoint>,
}

/// One sigma block of a sweep-kind experiment: every method's curve at
/// one device-variation level.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDoc {
    /// Registry key of the device model the block ran on (e.g.
    /// `rram-gaussian`).
    pub device_model: String,
    /// Device variation level the block ran at.
    pub sigma: f64,
    /// Accuracy of the un-quantized trained network (percent).
    pub float_accuracy: f64,
    /// Accuracy of the quantized clean-mapped model (percent).
    pub quant_accuracy: f64,
    /// One curve per selection method, in table row order.
    pub methods: Vec<MethodCurveDoc>,
    /// In-situ baseline checkpoints (empty when the baseline was off).
    pub insitu: Vec<InsituPoint>,
    /// Raw per-run matrices, present only in shard documents so
    /// `swim merge` can rebuild the unsharded statistics bit-exactly.
    pub raw: Option<RawSweepDoc>,
}

impl SweepDoc {
    /// The curve of a method by display name.
    pub fn method(&self, name: &str) -> Option<&MethodCurveDoc> {
        self.methods.iter().find(|m| m.name == name)
    }
}

/// Shard provenance of a partial (seed-range-sharded) document —
/// denormalized from the spec echo's `[run] shard`, cross-checked on
/// parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDoc {
    /// Shard index in `[0, count)`.
    pub index: usize,
    /// Total shards in the partition.
    pub count: usize,
    /// First global Monte Carlo run this shard covers (also the PRNG
    /// fork stream of its first run).
    pub run_start: usize,
    /// One past the last global run covered.
    pub run_end: usize,
}

/// Identifies one completed `(device model, sigma)` block of a
/// checkpoint journal.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockKey {
    /// Device-model registry key.
    pub device_model: String,
    /// Device variation level.
    pub sigma: f64,
}

/// One Monte Carlo run that panicked under `[montecarlo] on_panic =
/// "isolate"`; the surviving statistics exclude it.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultDoc {
    /// Device-model registry key of the block the run belonged to.
    pub device_model: String,
    /// Device variation level of the block.
    pub sigma: f64,
    /// Selection method display name.
    pub method: String,
    /// Global run index — the PRNG fork stream id, so the failure
    /// replays in isolation regardless of sharding or thread count.
    pub run: usize,
    /// Base seed the run's stream was forked from.
    pub seed: u64,
    /// Rendered panic payload.
    pub message: String,
}

/// Raw per-run Monte Carlo data of one selection method (present only
/// in shard documents, where it makes the block mergeable).
#[derive(Debug, Clone, PartialEq)]
pub struct RawMethodDoc {
    /// Selector display name, matching the aggregated curve's.
    pub name: String,
    /// One row per local run, one `(accuracy %, nwc)` pair per sweep
    /// fraction, exactly as the run produced them.
    pub rows: Vec<Vec<(f64, f64)>>,
}

/// Raw per-run data of one sweep block (present only in shard
/// documents).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RawSweepDoc {
    /// Per-method raw matrices, in table row order.
    pub methods: Vec<RawMethodDoc>,
    /// Per-run in-situ trajectories: one `(nwc, accuracy fraction)`
    /// pair per checkpoint. Empty when the baseline was off.
    pub insitu_runs: Vec<Vec<(f64, f64)>>,
}

/// One shape-keyed kernel-config decision, as documents written while
/// the program still had an autotuner recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuningChoiceDoc {
    /// Rendered tune key (kernel, shape, SIMD backend, thread count).
    pub key: String,
    /// Rendered winning config (e.g. `block=128 workers=1`).
    pub config: String,
    /// Where the winner came from (`autotune` or `disk-cache`).
    pub source: String,
}

/// Kernel-tuning provenance: the *requested* kernel pins of the thread
/// that wrote the document (`0` means "built-in default", never a
/// host-resolved value, so documents stay byte-stable across hosts).
/// Only a library caller can pin them; the `swim` binary writes zeros.
/// The pins are timing-only — they can never change result bytes — so
/// this block is attribution, not part of the numeric payload; `swim
/// diff` reports tuning differences structurally.
///
/// New documents always record mode `off`, an `im2col_cap_elems` of `0`
/// and no choices. Older documents written with the autotuner on still
/// read, with their mode `on` and the shape-keyed choices it made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuningDoc {
    /// Tuning mode the run executed under (`off`; `on` in older
    /// documents).
    pub mode: String,
    /// Requested GEMM block-width pin (`0` = heuristic).
    pub gemm_block_cols: usize,
    /// Requested threading-threshold pin in multiplies (`0` = default).
    pub gemm_min_flops: usize,
    /// The former im2col scratch-cap pin; `0` in new documents.
    pub im2col_cap_elems: usize,
    /// An older document's autotuner decisions, sorted by key. Empty
    /// when the mode is `off`.
    pub choices: Vec<TuningChoiceDoc>,
}

impl TuningDoc {
    /// Captures the calling thread's kernel pins.
    pub fn capture() -> TuningDoc {
        let t = swim_tensor::tune::current();
        TuningDoc {
            gemm_block_cols: t.gemm_block_cols,
            gemm_min_flops: t.gemm_min_flops,
            ..TuningDoc::default()
        }
    }
}

impl Default for TuningDoc {
    /// The default configuration: mode off, nothing pinned, no
    /// choices.
    fn default() -> Self {
        TuningDoc {
            mode: swim_tensor::tune::TuneMode::Off.name().to_string(),
            gemm_block_cols: 0,
            gemm_min_flops: 0,
            im2col_cap_elems: 0,
            choices: Vec::new(),
        }
    }
}

/// Fig. 1 correlation summary (present only for `fig1`-kind runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Correlations {
    /// Pearson r of |w| vs accuracy drop.
    pub magnitude: f64,
    /// Pearson r of the diagonal second derivative vs accuracy drop.
    pub sensitivity: f64,
}

/// A parsed, validated JSON results document.
///
/// # Example
///
/// ```
/// use swim_report::schema::ResultsDoc;
///
/// let spec = swim_exp::preset("fig2a", true).unwrap();
/// let doc = ResultsDoc::new(spec, 1.5);
/// let json = doc.to_json();
/// let back = ResultsDoc::parse_str(&json).unwrap();
/// assert_eq!(back, doc);
/// assert_eq!(back.name(), "Fig. 2a");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResultsDoc {
    /// The spec echo: the exact experiment that produced this document.
    /// `name`/`kind`/`seed` accessors read through to it.
    pub spec: ExperimentSpec,
    /// Per-sigma sweep blocks (empty for non-sweep kinds).
    pub sweeps: Vec<SweepDoc>,
    /// Fig. 1 correlation summary, when the kind produces one.
    pub correlations: Option<Correlations>,
    /// Every table the run printed, in print order.
    pub tables: Vec<Table>,
    /// Shard provenance — `Some` exactly when the spec echo carries
    /// `[run] shard`; this is a partial document covering only that
    /// seed range.
    pub shard: Option<ShardDoc>,
    /// Checkpoint-journal flavor: the `(model, sigma)` blocks already
    /// completed, in grid order. `None` for final documents.
    pub completed: Option<Vec<BlockKey>>,
    /// Runs that panicked under the isolate policy (empty otherwise;
    /// omitted from the JSON when empty).
    pub faults: Vec<FaultDoc>,
    /// SIMD backend the run's kernels dispatched through (`scalar`,
    /// `avx2`, `avx512`, or `neon`) — elementwise results are
    /// bit-identical across backends, GEMM is tolerance-equal, so this
    /// records which flavor produced the bytes.
    pub simd: String,
    /// Kernel-tuning provenance: requested mode/pins plus the tuner's
    /// shape-keyed choices. Timing-only — never affects result bytes.
    pub tuning: TuningDoc,
    /// Wall-clock duration of the run in seconds.
    pub wall_time_s: f64,
}

impl ResultsDoc {
    /// An empty document shell for `spec` (no sweeps/tables yet). The
    /// shard provenance is derived from the spec echo.
    pub fn new(spec: ExperimentSpec, wall_time_s: f64) -> Self {
        let shard = spec.run.shard.map(|(index, count)| {
            let (run_start, run_end) = spec.shard_run_range();
            ShardDoc { index, count, run_start, run_end }
        });
        ResultsDoc {
            spec,
            sweeps: Vec::new(),
            correlations: None,
            tables: Vec::new(),
            shard,
            completed: None,
            faults: Vec::new(),
            simd: swim_tensor::simd::backend().name().to_string(),
            tuning: TuningDoc::capture(),
            wall_time_s,
        }
    }

    /// The experiment's display name (from the spec echo).
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// The experiment kind (from the spec echo).
    pub fn kind(&self) -> ExperimentKind {
        self.spec.kind
    }

    /// The base RNG seed (from the spec echo).
    pub fn seed(&self) -> u64 {
        self.spec.seed
    }

    /// The first sweep block at a given sigma (exact match). With a
    /// device-model grid several blocks can share a sigma; use
    /// [`ResultsDoc::sweep_block`] to pick one by model as well.
    pub fn sweep_at(&self, sigma: f64) -> Option<&SweepDoc> {
        self.sweeps.iter().find(|s| s.sigma == sigma)
    }

    /// The sweep block for a given (device model, sigma) pair.
    pub fn sweep_block(&self, device_model: &str, sigma: f64) -> Option<&SweepDoc> {
        self.sweeps.iter().find(|s| s.device_model == device_model && s.sigma == sigma)
    }

    // ----------------------------------------------------- writing

    /// Renders the document as a [`Value`] tree in the stable key order
    /// (`swim_results_version` first, `wall_time_s` last).
    pub fn to_value(&self) -> Value {
        let mut doc = Value::table();
        doc.set("swim_results_version", Value::Int(RESULTS_VERSION));
        doc.set("name", Value::Str(self.spec.name.clone()));
        doc.set("kind", Value::Str(self.spec.kind.key().to_string()));
        doc.set("seed", Value::Int(self.spec.seed as i64));
        doc.set("simd", Value::Str(self.simd.clone()));
        doc.set("tuning", tuning_to_value(&self.tuning));
        doc.set("spec", self.spec.to_value());
        if let Some(s) = &self.shard {
            let mut sv = Value::table();
            sv.set("index", Value::Int(s.index as i64));
            sv.set("count", Value::Int(s.count as i64));
            sv.set("run_start", Value::Int(s.run_start as i64));
            sv.set("run_end", Value::Int(s.run_end as i64));
            doc.set("shard", sv);
        }
        if let Some(completed) = &self.completed {
            doc.set(
                "completed",
                Value::Array(
                    completed
                        .iter()
                        .map(|b| {
                            let mut bv = Value::table();
                            bv.set("device_model", Value::Str(b.device_model.clone()));
                            bv.set("sigma", Value::Float(b.sigma));
                            bv
                        })
                        .collect(),
                ),
            );
        }
        if !self.sweeps.is_empty() {
            doc.set("sweeps", Value::Array(self.sweeps.iter().map(sweep_to_value).collect()));
        }
        if let Some(c) = &self.correlations {
            let mut cv = Value::table();
            cv.set("magnitude", Value::Float(c.magnitude));
            cv.set("sensitivity", Value::Float(c.sensitivity));
            doc.set("correlations", cv);
        }
        if !self.faults.is_empty() {
            doc.set(
                "faults",
                Value::Array(
                    self.faults
                        .iter()
                        .map(|f| {
                            let mut fv = Value::table();
                            fv.set("device_model", Value::Str(f.device_model.clone()));
                            fv.set("sigma", Value::Float(f.sigma));
                            fv.set("method", Value::Str(f.method.clone()));
                            fv.set("run", Value::Int(f.run as i64));
                            fv.set("seed", Value::Int(f.seed as i64));
                            fv.set("message", Value::Str(f.message.clone()));
                            fv
                        })
                        .collect(),
                ),
            );
        }
        doc.set("tables", Value::Array(self.tables.iter().map(table_to_value).collect()));
        doc.set("wall_time_s", Value::Float(self.wall_time_s));
        doc
    }

    /// Renders the document as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    // ----------------------------------------------------- reading

    /// Parses a JSON results document string.
    pub fn parse_str(text: &str) -> Result<Self, SchemaError> {
        let root = parse_json(text).map_err(err)?;
        Self::from_value(&root)
    }

    /// Reads and parses a results document file; the error names the
    /// path.
    pub fn load(path: &std::path::Path) -> Result<Self, SchemaError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| err(format!("{}: {e}", path.display())))?;
        Self::parse_str(&text).map_err(|e| err(format!("{}: {}", path.display(), e.0)))
    }

    /// Builds a document from a parsed [`Value`] tree, rejecting
    /// unknown keys, missing required keys, an unsupported version, and
    /// top-level `name`/`kind`/`seed` that contradict the spec echo.
    pub fn from_value(root: &Value) -> Result<Self, SchemaError> {
        let mut r = Reader::new("", root)?;

        let version = r
            .require("swim_results_version")?
            .as_int()
            .ok_or_else(|| err("`swim_results_version` must be an integer"))?;
        if version != RESULTS_VERSION {
            return Err(err(format!(
                "unsupported results version {version} (this build reads version \
                 {RESULTS_VERSION}; re-run the experiment or use a matching `swim` build)"
            )));
        }

        let name = r.string_req("name")?;
        let kind_key = r.string_req("kind")?;
        let kind = ExperimentKind::parse(&kind_key)
            .ok_or_else(|| err(format!("unknown kind `{kind_key}`")))?;
        let seed = r.u64_req("seed")?;
        let simd = r.string_req("simd")?;
        if swim_tensor::simd::Backend::parse(&simd).is_none() {
            return Err(err(format!("unknown SIMD backend `{simd}`")));
        }

        let tuning = tuning_from_value("tuning", r.require("tuning")?)?;

        let spec = ExperimentSpec::from_value(r.require("spec")?)
            .map_err(|e| err(format!("spec echo: {}", e.0)))?;
        // The top-level copies are denormalized convenience; a document
        // whose header disagrees with its own spec echo is corrupt.
        if name != spec.name || kind != spec.kind || seed != spec.seed {
            return Err(err(format!(
                "document header (name `{name}`, kind `{}`, seed {seed}) contradicts its spec \
                 echo (name `{}`, kind `{}`, seed {})",
                kind.key(),
                spec.name,
                spec.kind.key(),
                spec.seed
            )));
        }
        // A spec echo that pinned `[run] simd` must agree with the
        // backend the document says it ran on.
        if let Some(requested) = &spec.run.simd {
            if *requested != simd {
                return Err(err(format!(
                    "document `simd` (`{simd}`) contradicts its spec echo's `run.simd` \
                     (`{requested}`)"
                )));
            }
        }
        // Likewise, `tuning.mode` is denormalized from the spec echo's
        // `[tune]` section when the spec set it.
        if let Some(mode) = &spec.tune.mode {
            if *mode != tuning.mode {
                return Err(err(format!(
                    "document `tuning.mode` (`{}`) contradicts its spec echo's `tune.mode` \
                     (`{mode}`)",
                    tuning.mode
                )));
            }
        }

        let shard = match r.take("shard") {
            None => None,
            Some(v) => {
                let mut s = Reader::new("shard", v)?;
                let out = ShardDoc {
                    index: s.u64_req("index")? as usize,
                    count: s.u64_req("count")? as usize,
                    run_start: s.u64_req("run_start")? as usize,
                    run_end: s.u64_req("run_end")? as usize,
                };
                s.finish()?;
                Some(out)
            }
        };
        // Like `name`/`kind`/`seed`, `shard` is a denormalized copy of
        // the spec echo's `[run] shard`; the two must agree exactly.
        let expected_shard = spec.run.shard.map(|(index, count)| {
            let (run_start, run_end) = spec.shard_run_range();
            ShardDoc { index, count, run_start, run_end }
        });
        if shard != expected_shard {
            return Err(err(format!(
                "document `shard` ({shard:?}) contradicts its spec echo ({expected_shard:?})"
            )));
        }

        let completed = match r.take("completed") {
            None => None,
            Some(v) => {
                let items = v.as_array().ok_or_else(|| err("`completed` must be an array"))?;
                let blocks = items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| {
                        let bpath = format!("completed[{i}]");
                        let mut b = Reader::new(&bpath, item)?;
                        let out = BlockKey {
                            device_model: b.string_req("device_model")?,
                            sigma: b.f64_req("sigma")?,
                        };
                        b.finish()?;
                        Ok(out)
                    })
                    .collect::<Result<Vec<_>, SchemaError>>()?;
                Some(blocks)
            }
        };

        let sweeps = match r.take("sweeps") {
            None => Vec::new(),
            Some(v) => {
                let items = v.as_array().ok_or_else(|| err("`sweeps` must be an array"))?;
                items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| sweep_from_value(&format!("sweeps[{i}]"), item))
                    .collect::<Result<Vec<_>, _>>()?
            }
        };

        let faults = match r.take("faults") {
            None => Vec::new(),
            Some(v) => {
                let items = v.as_array().ok_or_else(|| err("`faults` must be an array"))?;
                items
                    .iter()
                    .enumerate()
                    .map(|(i, item)| {
                        let fpath = format!("faults[{i}]");
                        let mut f = Reader::new(&fpath, item)?;
                        let out = FaultDoc {
                            device_model: f.string_req("device_model")?,
                            sigma: f.f64_req("sigma")?,
                            method: f.string_req("method")?,
                            run: f.u64_req("run")? as usize,
                            seed: f.u64_req("seed")?,
                            message: f.string_req("message")?,
                        };
                        f.finish()?;
                        Ok(out)
                    })
                    .collect::<Result<Vec<_>, SchemaError>>()?
            }
        };

        let correlations = match r.take("correlations") {
            None => None,
            Some(v) => {
                let mut c = Reader::new("correlations", v)?;
                let out = Correlations {
                    magnitude: c.f64_req("magnitude")?,
                    sensitivity: c.f64_req("sensitivity")?,
                };
                c.finish()?;
                Some(out)
            }
        };

        let tables = {
            let v = r.require("tables")?;
            let items = v.as_array().ok_or_else(|| err("`tables` must be an array"))?;
            items
                .iter()
                .enumerate()
                .map(|(i, item)| table_from_value(&format!("tables[{i}]"), item))
                .collect::<Result<Vec<_>, _>>()?
        };

        let wall_time_s = r.f64_req("wall_time_s")?;
        r.finish()?;

        Ok(ResultsDoc {
            spec,
            sweeps,
            correlations,
            tables,
            shard,
            completed,
            faults,
            simd,
            tuning,
            wall_time_s,
        })
    }
}

// ------------------------------------------------------------- tuning

fn tuning_to_value(tuning: &TuningDoc) -> Value {
    let mut v = Value::table();
    v.set("mode", Value::Str(tuning.mode.clone()));
    v.set("gemm_block_cols", Value::Int(tuning.gemm_block_cols as i64));
    v.set("gemm_min_flops", Value::Int(tuning.gemm_min_flops as i64));
    v.set("im2col_cap_elems", Value::Int(tuning.im2col_cap_elems as i64));
    v.set(
        "choices",
        Value::Array(
            tuning
                .choices
                .iter()
                .map(|c| {
                    let mut cv = Value::table();
                    cv.set("key", Value::Str(c.key.clone()));
                    cv.set("config", Value::Str(c.config.clone()));
                    cv.set("source", Value::Str(c.source.clone()));
                    cv
                })
                .collect(),
        ),
    );
    v
}

fn tuning_from_value(path: &str, value: &Value) -> Result<TuningDoc, SchemaError> {
    let mut r = Reader::new(path, value)?;
    let mode = r.string_req("mode")?;
    if !matches!(mode.as_str(), "off" | "on") {
        return Err(err(format!("unknown tuning mode `{mode}` in `{path}.mode`")));
    }
    let gemm_block_cols = r.u64_req("gemm_block_cols")? as usize;
    let gemm_min_flops = r.u64_req("gemm_min_flops")? as usize;
    let im2col_cap_elems = r.u64_req("im2col_cap_elems")? as usize;
    let choices = {
        let v = r.require("choices")?;
        let items =
            v.as_array().ok_or_else(|| err(format!("`{path}.choices` must be an array")))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let cpath = format!("{path}.choices[{i}]");
                let mut c = Reader::new(&cpath, item)?;
                let out = TuningChoiceDoc {
                    key: c.string_req("key")?,
                    config: c.string_req("config")?,
                    source: c.string_req("source")?,
                };
                c.finish()?;
                Ok(out)
            })
            .collect::<Result<Vec<_>, SchemaError>>()?
    };
    r.finish()?;
    // Tuning off means no decisions were made; a document claiming
    // otherwise is corrupt.
    if mode == "off" && !choices.is_empty() {
        return Err(err(format!(
            "`{path}` has mode `off` but records {} tuner choice(s)",
            choices.len()
        )));
    }
    Ok(TuningDoc { mode, gemm_block_cols, gemm_min_flops, im2col_cap_elems, choices })
}

// ------------------------------------------------------- sweep blocks

fn sweep_to_value(sweep: &SweepDoc) -> Value {
    let mut v = Value::table();
    v.set("device_model", Value::Str(sweep.device_model.clone()));
    v.set("sigma", Value::Float(sweep.sigma));
    v.set("float_accuracy", Value::Float(sweep.float_accuracy));
    v.set("quant_accuracy", Value::Float(sweep.quant_accuracy));
    let methods = sweep
        .methods
        .iter()
        .map(|m| {
            let mut mv = Value::table();
            mv.set("name", Value::Str(m.name.clone()));
            mv.set(
                "points",
                Value::Array(
                    m.points
                        .iter()
                        .map(|p| {
                            let mut pv = Value::table();
                            pv.set("fraction", Value::Float(p.fraction));
                            pv.set("nwc", Value::Float(p.nwc));
                            pv.set("accuracy_mean", Value::Float(p.accuracy_mean));
                            pv.set("accuracy_std", Value::Float(p.accuracy_std));
                            pv.set("accuracy_min", Value::Float(p.accuracy_min));
                            pv.set("accuracy_p05", Value::Float(p.accuracy_p05));
                            pv
                        })
                        .collect(),
                ),
            );
            mv
        })
        .collect();
    v.set("methods", Value::Array(methods));
    let insitu = sweep
        .insitu
        .iter()
        .map(|p| {
            let mut pv = Value::table();
            pv.set("nwc", Value::Float(p.nwc));
            pv.set("accuracy_mean", Value::Float(p.accuracy_mean));
            pv.set("accuracy_std", Value::Float(p.accuracy_std));
            pv
        })
        .collect();
    v.set("insitu", Value::Array(insitu));
    if let Some(raw) = &sweep.raw {
        v.set("raw", raw_to_value(raw));
    }
    v
}

fn pair_to_value(p: (f64, f64)) -> Value {
    Value::Array(vec![Value::Float(p.0), Value::Float(p.1)])
}

fn pairs_to_value(pairs: &[(f64, f64)]) -> Value {
    Value::Array(pairs.iter().map(|&p| pair_to_value(p)).collect())
}

fn raw_to_value(raw: &RawSweepDoc) -> Value {
    let mut v = Value::table();
    let methods = raw
        .methods
        .iter()
        .map(|m| {
            let mut mv = Value::table();
            mv.set("name", Value::Str(m.name.clone()));
            mv.set("rows", Value::Array(m.rows.iter().map(|row| pairs_to_value(row)).collect()));
            mv
        })
        .collect();
    v.set("methods", Value::Array(methods));
    v.set(
        "insitu_runs",
        Value::Array(raw.insitu_runs.iter().map(|run| pairs_to_value(run)).collect()),
    );
    v
}

fn pair_from_value(path: &str, value: &Value) -> Result<(f64, f64), SchemaError> {
    let items = value
        .as_array()
        .filter(|items| items.len() == 2)
        .ok_or_else(|| err(format!("`{path}` must be a 2-element number array")))?;
    let a = items[0].as_float().ok_or_else(|| err(format!("`{path}[0]` must be a number")))?;
    let b = items[1].as_float().ok_or_else(|| err(format!("`{path}[1]` must be a number")))?;
    Ok((a, b))
}

fn pairs_from_value(path: &str, value: &Value) -> Result<Vec<(f64, f64)>, SchemaError> {
    let items = value.as_array().ok_or_else(|| err(format!("`{path}` must be an array")))?;
    items.iter().enumerate().map(|(i, p)| pair_from_value(&format!("{path}[{i}]"), p)).collect()
}

fn raw_from_value(path: &str, value: &Value) -> Result<RawSweepDoc, SchemaError> {
    let mut r = Reader::new(path, value)?;
    let methods = {
        let v = r.require("methods")?;
        let items =
            v.as_array().ok_or_else(|| err(format!("`{path}.methods` must be an array")))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let mpath = format!("{path}.methods[{i}]");
                let mut m = Reader::new(&mpath, item)?;
                let name = m.string_req("name")?;
                let rows = {
                    let v = m.require("rows")?;
                    let rows = v
                        .as_array()
                        .ok_or_else(|| err(format!("`{mpath}.rows` must be an array")))?;
                    rows.iter()
                        .enumerate()
                        .map(|(j, row)| pairs_from_value(&format!("{mpath}.rows[{j}]"), row))
                        .collect::<Result<Vec<_>, _>>()?
                };
                m.finish()?;
                Ok(RawMethodDoc { name, rows })
            })
            .collect::<Result<Vec<_>, SchemaError>>()?
    };
    let insitu_runs = {
        let v = r.require("insitu_runs")?;
        let runs =
            v.as_array().ok_or_else(|| err(format!("`{path}.insitu_runs` must be an array")))?;
        runs.iter()
            .enumerate()
            .map(|(i, run)| pairs_from_value(&format!("{path}.insitu_runs[{i}]"), run))
            .collect::<Result<Vec<_>, _>>()?
    };
    r.finish()?;
    Ok(RawSweepDoc { methods, insitu_runs })
}

fn sweep_from_value(path: &str, value: &Value) -> Result<SweepDoc, SchemaError> {
    let mut r = Reader::new(path, value)?;
    let device_model = r.string_req("device_model")?;
    let sigma = r.f64_req("sigma")?;
    let float_accuracy = r.f64_req("float_accuracy")?;
    let quant_accuracy = r.f64_req("quant_accuracy")?;

    let methods = {
        let v = r.require("methods")?;
        let items =
            v.as_array().ok_or_else(|| err(format!("`{path}.methods` must be an array")))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let mpath = format!("{path}.methods[{i}]");
                let mut m = Reader::new(&mpath, item)?;
                let name = m.string_req("name")?;
                let points = {
                    let v = m.require("points")?;
                    let pts = v
                        .as_array()
                        .ok_or_else(|| err(format!("`{mpath}.points` must be an array")))?;
                    pts.iter()
                        .enumerate()
                        .map(|(j, p)| {
                            let ppath = format!("{mpath}.points[{j}]");
                            let mut pr = Reader::new(&ppath, p)?;
                            let out = CurvePoint {
                                fraction: pr.f64_req("fraction")?,
                                nwc: pr.f64_req("nwc")?,
                                accuracy_mean: pr.f64_req("accuracy_mean")?,
                                accuracy_std: pr.f64_req("accuracy_std")?,
                                accuracy_min: pr.f64_req("accuracy_min")?,
                                accuracy_p05: pr.f64_req("accuracy_p05")?,
                            };
                            pr.finish()?;
                            Ok(out)
                        })
                        .collect::<Result<Vec<_>, SchemaError>>()?
                };
                m.finish()?;
                Ok(MethodCurveDoc { name, points })
            })
            .collect::<Result<Vec<_>, SchemaError>>()?
    };

    let insitu = match r.take("insitu") {
        None => Vec::new(),
        Some(v) => {
            let items =
                v.as_array().ok_or_else(|| err(format!("`{path}.insitu` must be an array")))?;
            items
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let ppath = format!("{path}.insitu[{i}]");
                    let mut pr = Reader::new(&ppath, p)?;
                    let out = InsituPoint {
                        nwc: pr.f64_req("nwc")?,
                        accuracy_mean: pr.f64_req("accuracy_mean")?,
                        accuracy_std: pr.f64_req("accuracy_std")?,
                    };
                    pr.finish()?;
                    Ok(out)
                })
                .collect::<Result<Vec<_>, SchemaError>>()?
        }
    };

    let raw = match r.take("raw") {
        None => None,
        Some(v) => Some(raw_from_value(&format!("{path}.raw"), v)?),
    };

    r.finish()?;
    Ok(SweepDoc { device_model, sigma, float_accuracy, quant_accuracy, methods, insitu, raw })
}

// ------------------------------------------------------------- tables

/// A printed [`Table`] as a results-document value (`{title, headers,
/// rows}`).
pub fn table_to_value(table: &Table) -> Value {
    let mut v = Value::table();
    v.set("title", Value::Str(table.title().to_string()));
    v.set("headers", Value::Array(table.headers().iter().map(|h| Value::Str(h.clone())).collect()));
    v.set(
        "rows",
        Value::Array(
            table
                .rows()
                .iter()
                .map(|row| Value::Array(row.iter().map(|c| Value::Str(c.clone())).collect()))
                .collect(),
        ),
    );
    v
}

/// Parses a `{title, headers, rows}` value back into a [`Table`],
/// checking that every row has exactly one cell per header.
pub fn table_from_value(path: &str, value: &Value) -> Result<Table, SchemaError> {
    let mut r = Reader::new(path, value)?;
    let title = r.string_req("title")?;
    let headers = r.string_list_or("headers", &[])?;
    if headers.is_empty() {
        return Err(err(format!("`{path}.headers` must be a non-empty string array")));
    }
    let rows = {
        let v = r.require("rows")?;
        let items = v.as_array().ok_or_else(|| err(format!("`{path}.rows` must be an array")))?;
        items
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let cells = row
                    .as_array()
                    .ok_or_else(|| err(format!("`{path}.rows[{i}]` must be an array")))?;
                if cells.len() != headers.len() {
                    return Err(err(format!(
                        "`{path}.rows[{i}]` has {} cells, table has {} columns",
                        cells.len(),
                        headers.len()
                    )));
                }
                cells
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(|s| s.to_string())
                            .ok_or_else(|| err(format!("`{path}.rows[{i}]` must contain strings")))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?
    };
    r.finish()?;
    let header_refs: Vec<&str> = headers.iter().map(|h| h.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    for row in rows {
        table.push_row_owned(row);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> ResultsDoc {
        let spec = swim_exp::preset("table1", true).unwrap();
        let mut doc = ResultsDoc::new(spec, 2.5);
        let mut table = Table::new("demo", &["method", "acc"]);
        table.push_row(&["SWIM", "98.50 ± 0.10"]);
        doc.tables.push(table);
        doc.sweeps.push(SweepDoc {
            device_model: "rram-gaussian".into(),
            sigma: 0.15,
            float_accuracy: 99.0,
            quant_accuracy: 98.5,
            methods: vec![MethodCurveDoc {
                name: "SWIM".into(),
                points: vec![
                    CurvePoint {
                        fraction: 0.0,
                        nwc: 0.0,
                        accuracy_mean: 90.0,
                        accuracy_std: 1.0,
                        accuracy_min: 88.0,
                        accuracy_p05: 88.4,
                    },
                    CurvePoint {
                        fraction: 1.0,
                        nwc: 1.0,
                        accuracy_mean: 98.0,
                        accuracy_std: 0.2,
                        accuracy_min: 97.5,
                        accuracy_p05: 97.6,
                    },
                ],
            }],
            insitu: vec![InsituPoint { nwc: 0.5, accuracy_mean: 95.0, accuracy_std: 0.4 }],
            raw: None,
        });
        doc
    }

    /// A shard-flavored document: `[run] shard` in the spec echo, shard
    /// provenance, a checkpoint `completed` list, raw matrices, and an
    /// isolated fault.
    fn shard_doc() -> ResultsDoc {
        let mut spec = swim_exp::preset("table1", true).unwrap();
        spec.run.shard = Some((1, 2));
        let mut doc = ResultsDoc::new(spec, 1.25);
        let mut sweep = sample_doc().sweeps[0].clone();
        sweep.raw = Some(RawSweepDoc {
            methods: vec![RawMethodDoc {
                name: "SWIM".into(),
                rows: vec![vec![(90.0, 0.0), (98.0, 1.0)], vec![(91.5, 0.0), (97.25, 1.0)]],
            }],
            insitu_runs: vec![vec![(0.5, 0.95)]],
        });
        doc.sweeps.push(sweep);
        doc.completed = Some(vec![BlockKey { device_model: "rram-gaussian".into(), sigma: 0.15 }]);
        doc.faults.push(FaultDoc {
            device_model: "rram-gaussian".into(),
            sigma: 0.15,
            method: "SWIM".into(),
            run: 3,
            seed: 1,
            message: "boom".into(),
        });
        doc
    }

    #[test]
    fn round_trips_through_json() {
        let doc = sample_doc();
        let back = ResultsDoc::parse_str(&doc.to_json()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.name(), "table1");
        assert_eq!(back.seed(), 1);
        assert_eq!(back.sweep_at(0.15).unwrap().method("SWIM").unwrap().points.len(), 2);
    }

    #[test]
    fn sweep_block_keys_on_model_and_sigma() {
        let mut doc = sample_doc();
        let mut other = doc.sweeps[0].clone();
        other.device_model = "mram-stochastic".into();
        other.float_accuracy = 42.0;
        doc.sweeps.push(other);
        let back = ResultsDoc::parse_str(&doc.to_json()).unwrap();
        assert_eq!(back.sweep_block("rram-gaussian", 0.15).unwrap().float_accuracy, 99.0);
        assert_eq!(back.sweep_block("mram-stochastic", 0.15).unwrap().float_accuracy, 42.0);
        assert!(back.sweep_block("sram-vt", 0.15).is_none());
    }

    #[test]
    fn rejects_points_missing_tail_columns() {
        // A version-1 document (no accuracy_min/p05) must fail loudly,
        // not silently default the tail statistics.
        let mut root = sample_doc().to_value();
        let Some(Value::Array(sweeps)) = root.get("sweeps").cloned() else { unreachable!() };
        let mut sweeps = sweeps;
        let Some(Value::Array(methods)) = sweeps[0].get("methods").cloned() else { unreachable!() };
        let mut methods = methods;
        let Some(Value::Array(points)) = methods[0].get("points").cloned() else { unreachable!() };
        let pruned: Vec<Value> = points
            .into_iter()
            .map(|p| {
                let Value::Table(entries) = p else { unreachable!() };
                Value::Table(entries.into_iter().filter(|(k, _)| k != "accuracy_min").collect())
            })
            .collect();
        methods[0].set("points", Value::Array(pruned));
        sweeps[0].set("methods", Value::Array(methods));
        root.set("sweeps", Value::Array(sweeps));
        let e = ResultsDoc::from_value(&root).unwrap_err();
        assert!(e.0.contains("accuracy_min"), "{e}");
    }

    #[test]
    fn correlations_round_trip() {
        let spec = swim_exp::preset("fig1", true).unwrap();
        let mut doc = ResultsDoc::new(spec, 0.1);
        doc.correlations = Some(Correlations { magnitude: 0.12, sensitivity: 0.83 });
        let back = ResultsDoc::parse_str(&doc.to_json()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn rejects_wrong_version() {
        let mut root = sample_doc().to_value();
        root.set("swim_results_version", Value::Int(99));
        let e = ResultsDoc::from_value(&root).unwrap_err();
        assert!(e.0.contains("unsupported results version 99"), "{e}");
    }

    #[test]
    fn rejects_unknown_keys_with_path() {
        let mut root = sample_doc().to_value();
        root.set("bogus", Value::Int(1));
        let e = ResultsDoc::from_value(&root).unwrap_err();
        assert!(e.0.contains("unknown key `bogus`"), "{e}");
    }

    #[test]
    fn rejects_missing_required_keys() {
        let doc = sample_doc();
        let Value::Table(entries) = doc.to_value() else { unreachable!() };
        let pruned: Vec<(String, Value)> =
            entries.into_iter().filter(|(k, _)| k != "wall_time_s").collect();
        let e = ResultsDoc::from_value(&Value::Table(pruned)).unwrap_err();
        assert!(e.0.contains("missing key `wall_time_s`"), "{e}");
    }

    #[test]
    fn rejects_header_contradicting_spec_echo() {
        let mut root = sample_doc().to_value();
        root.set("seed", Value::Int(777));
        let e = ResultsDoc::from_value(&root).unwrap_err();
        assert!(e.0.contains("contradicts its spec echo"), "{e}");
    }

    #[test]
    fn rejects_ragged_table_rows() {
        let mut root = sample_doc().to_value();
        // Break the first table's first row.
        let tables = root.get("tables").unwrap().clone();
        let Value::Array(mut tv) = tables else { unreachable!() };
        tv[0].set("rows", Value::Array(vec![Value::Array(vec![Value::Str("only-one".into())])]));
        root.set("tables", Value::Array(tv));
        let e = ResultsDoc::from_value(&root).unwrap_err();
        assert!(e.0.contains("has 1 cells, table has 2 columns"), "{e}");
    }

    #[test]
    fn shard_document_round_trips() {
        let doc = shard_doc();
        let runs = doc.spec.montecarlo.runs;
        assert_eq!(
            doc.shard,
            Some(ShardDoc { index: 1, count: 2, run_start: runs / 2, run_end: runs })
        );
        let back = ResultsDoc::parse_str(&doc.to_json()).unwrap();
        assert_eq!(back, doc);
        let raw = back.sweeps[0].raw.as_ref().unwrap();
        assert_eq!(raw.methods[0].rows[1][1], (97.25, 1.0));
        assert_eq!(raw.insitu_runs[0][0], (0.5, 0.95));
        assert_eq!(back.completed.as_ref().unwrap().len(), 1);
        assert_eq!(back.faults[0].run, 3);
    }

    #[test]
    fn rejects_shard_contradicting_spec_echo() {
        // Tamper with the denormalized shard block only; the spec echo
        // still says shard 1/2.
        let mut root = shard_doc().to_value();
        let mut sv = root.get("shard").unwrap().clone();
        sv.set("index", Value::Int(0));
        sv.set("run_start", Value::Int(0));
        sv.set("run_end", Value::Int(1500));
        root.set("shard", sv);
        let e = ResultsDoc::from_value(&root).unwrap_err();
        assert!(e.0.contains("contradicts its spec echo"), "{e}");
    }

    #[test]
    fn rejects_shard_block_missing_from_sharded_spec() {
        let Value::Table(entries) = shard_doc().to_value() else { unreachable!() };
        let pruned: Vec<(String, Value)> =
            entries.into_iter().filter(|(k, _)| k != "shard").collect();
        let e = ResultsDoc::from_value(&Value::Table(pruned)).unwrap_err();
        assert!(e.0.contains("contradicts its spec echo"), "{e}");
    }

    #[test]
    fn rejects_malformed_raw_pairs() {
        let mut root = shard_doc().to_value();
        root.set_path(
            "sweeps",
            Value::Array({
                let Some(Value::Array(sweeps)) = root.get("sweeps").cloned() else {
                    unreachable!()
                };
                let mut sweeps = sweeps;
                let mut raw = sweeps[0].get("raw").unwrap().clone();
                raw.set(
                    "insitu_runs",
                    Value::Array(vec![Value::Array(vec![Value::Array(vec![Value::Float(1.0)])])]),
                );
                sweeps[0].set("raw", raw);
                sweeps
            }),
        )
        .unwrap();
        let e = ResultsDoc::from_value(&root).unwrap_err();
        assert!(e.0.contains("2-element number array"), "{e}");
    }

    #[test]
    fn tuning_block_round_trips() {
        // An older document, written with the autotuner on, still reads
        // and writes back unchanged.
        let mut doc = sample_doc();
        doc.tuning = TuningDoc {
            mode: "on".into(),
            gemm_block_cols: 0,
            gemm_min_flops: 0,
            im2col_cap_elems: 1 << 20,
            choices: vec![TuningChoiceDoc {
                key: "gemm-mm:256x256x256:scalar:t1".into(),
                config: "block=128 workers=1".into(),
                source: "autotune".into(),
            }],
        };
        let back = ResultsDoc::parse_str(&doc.to_json()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.tuning.choices[0].source, "autotune");
    }

    #[test]
    fn capture_records_the_pins_under_mode_off() {
        use swim_tensor::tune::{with_tuning, KernelTuning};
        let t = KernelTuning {
            gemm_block_cols: 96,
            gemm_min_flops: 7,
            im2col_cap_elems: 5,
            ..Default::default()
        };
        let captured = with_tuning(&t, TuningDoc::capture);
        let want = TuningDoc { gemm_block_cols: 96, gemm_min_flops: 7, ..TuningDoc::default() };
        assert_eq!(captured, want);
        assert_eq!(want.mode, "off");
        assert_eq!(want.im2col_cap_elems, 0);
        assert!(want.choices.is_empty());
    }

    #[test]
    fn rejects_tuning_irregularities() {
        // Unknown mode.
        let mut doc = sample_doc();
        doc.tuning.mode = "sometimes".into();
        let e = ResultsDoc::parse_str(&doc.to_json()).unwrap_err();
        assert!(e.0.contains("unknown tuning mode `sometimes`"), "{e}");

        // Choices recorded under mode off.
        let mut doc = sample_doc();
        doc.tuning.choices.push(TuningChoiceDoc {
            key: "gemm-mm:8x8x8:scalar:t1".into(),
            config: "block=32 workers=1".into(),
            source: "autotune".into(),
        });
        let e = ResultsDoc::parse_str(&doc.to_json()).unwrap_err();
        assert!(e.0.contains("mode `off` but records 1 tuner choice"), "{e}");

        // Missing block entirely (a v4-shaped document).
        let Value::Table(entries) = sample_doc().to_value() else { unreachable!() };
        let pruned: Vec<(String, Value)> =
            entries.into_iter().filter(|(k, _)| k != "tuning").collect();
        let e = ResultsDoc::from_value(&Value::Table(pruned)).unwrap_err();
        assert!(e.0.contains("missing key `tuning`"), "{e}");
    }

    #[test]
    fn rejects_tuning_contradicting_spec_echo() {
        // The spec echo pins `tune.mode = "off"`, the document header
        // says the run executed with tuning on.
        let mut doc = sample_doc();
        doc.spec.tune.mode = Some("off".into());
        let good = ResultsDoc::parse_str(&doc.to_json()).unwrap();
        assert_eq!(good.tuning.mode, "off");

        doc.tuning.mode = "on".into();
        let e = ResultsDoc::parse_str(&doc.to_json()).unwrap_err();
        assert!(e.0.contains("contradicts its spec echo's `tune.mode`"), "{e}");
    }

    #[test]
    fn table_round_trip_preserves_structure() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(&["1", "2"]);
        t.push_row(&["x, y", "say \"hi\""]);
        let back = table_from_value("tables[0]", &table_to_value(&t)).unwrap();
        assert_eq!(back, t);
    }
}
