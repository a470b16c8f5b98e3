//! Method-by-method, point-by-point comparison of two results
//! documents — the engine behind `swim diff`.
//!
//! A diff separates three classes of difference:
//!
//! * **spec** — the two documents' spec echoes describe different
//!   experiments (different seed, budget, grid, …). Reported with the
//!   full dotted spec path; suppressible with
//!   [`DiffOptions::ignore_spec`] for deliberate cross-experiment
//!   comparisons.
//! * **structure** — the numeric payloads are not comparable: a sigma
//!   block, method, or curve point exists on one side only, or the
//!   grids disagree.
//! * **drift** — a comparable numeric value differs beyond the
//!   configured tolerance (`|a − b| > abs_tol + rel_tol · max(|a|,
//!   |b|)`).
//!
//! `wall_time_s` never participates (it differs between any two real
//! runs). The formatted `tables` are compared structurally (titles,
//! headers, row counts); their *cells* are additionally compared
//! byte-for-byte — but only when the documents carry no `sweeps` /
//! `correlations` payload (the `calibration` and `ablation` kinds,
//! where the tables ARE the results). When a numeric payload exists,
//! the cells are just a rendering of values already compared with
//! tolerance, and cell-exact comparison would defeat `--abs-tol`.

use crate::schema::ResultsDoc;
use swim_exp::value::Value;

/// Tolerances and scope switches for [`diff_docs`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Absolute tolerance on every numeric comparison.
    pub abs_tol: f64,
    /// Relative tolerance (scaled by the larger magnitude).
    pub rel_tol: f64,
    /// Skip the spec-echo comparison (deliberate cross-experiment
    /// diffs).
    pub ignore_spec: bool,
    /// Skip the kernel-tuning provenance comparison (deliberate
    /// comparisons across kernel pins; the pins are timing-only, so the
    /// numeric payload must still agree).
    pub ignore_tuning: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        // Bit-identical reproduction is the product contract, so the
        // default tolerance only forgives float-formatting noise.
        DiffOptions { abs_tol: 1e-9, rel_tol: 0.0, ignore_spec: false, ignore_tuning: false }
    }
}

/// One observed difference.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Where (a human-readable path naming sigma/method/point).
    pub path: String,
    /// The left document's value at `path`.
    pub left: String,
    /// The right document's value at `path`.
    pub right: String,
    /// `left − right` for numeric drift entries.
    pub delta: Option<f64>,
}

impl DiffEntry {
    fn new(path: impl Into<String>, left: impl Into<String>, right: impl Into<String>) -> Self {
        DiffEntry { path: path.into(), left: left.into(), right: right.into(), delta: None }
    }
}

/// The full outcome of comparing two documents.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Spec-echo differences (empty under `ignore_spec`).
    pub spec: Vec<DiffEntry>,
    /// Structural differences (payloads not comparable).
    pub structure: Vec<DiffEntry>,
    /// Numeric values that differ beyond tolerance.
    pub drift: Vec<DiffEntry>,
    /// Values compared, matching ones included (numeric payload, plus
    /// table cells when the tables are the only payload).
    pub values_compared: usize,
    /// Largest absolute numeric difference seen (drifting or not).
    pub max_delta: f64,
}

impl DiffReport {
    /// Whether the two documents agree (no spec, structure, or drift
    /// differences).
    pub fn clean(&self) -> bool {
        self.spec.is_empty() && self.structure.is_empty() && self.drift.is_empty()
    }

    /// Renders the human-readable comparison summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut section = |title: &str, entries: &[DiffEntry]| {
            if entries.is_empty() {
                return;
            }
            out.push_str(&format!("{title} ({}):\n", entries.len()));
            for e in entries {
                match e.delta {
                    Some(d) => out.push_str(&format!(
                        "  {}: {} vs {} (delta {:+.6})\n",
                        e.path, e.left, e.right, d
                    )),
                    None => out.push_str(&format!("  {}: {} vs {}\n", e.path, e.left, e.right)),
                }
            }
        };
        section("spec differences", &self.spec);
        section("structural differences", &self.structure);
        section("drift", &self.drift);
        if self.clean() {
            out.push_str(&format!(
                "no drift: {} values compared, max |delta| {:.3e}\n",
                self.values_compared, self.max_delta
            ));
        } else {
            out.push_str(&format!(
                "DRIFT: {} spec, {} structural, {} numeric difference(s) over {} compared \
                 values (max |delta| {:.6})\n",
                self.spec.len(),
                self.structure.len(),
                self.drift.len(),
                self.values_compared,
                self.max_delta
            ));
        }
        out
    }
}

/// State threaded through the numeric comparisons.
struct Cmp<'a> {
    opts: &'a DiffOptions,
    report: DiffReport,
}

impl Cmp<'_> {
    fn number(&mut self, path: &str, a: f64, b: f64) {
        self.report.values_compared += 1;
        let delta = a - b;
        if delta.abs() > self.report.max_delta {
            self.report.max_delta = delta.abs();
        }
        let tol = self.opts.abs_tol + self.opts.rel_tol * a.abs().max(b.abs());
        if delta.abs() > tol {
            self.report.drift.push(DiffEntry {
                path: path.to_string(),
                left: format!("{a}"),
                right: format!("{b}"),
                delta: Some(delta),
            });
        }
    }
}

/// Compares two results documents. See the module docs for what counts
/// as spec / structure / drift.
pub fn diff_docs(a: &ResultsDoc, b: &ResultsDoc, opts: &DiffOptions) -> DiffReport {
    let mut cmp = Cmp { opts, report: DiffReport::default() };

    if !opts.ignore_spec {
        diff_values("spec", &a.spec.to_value(), &b.spec.to_value(), &mut cmp.report.spec);
    }

    // Different SIMD backends are a different provenance, not drift —
    // GEMM results are only tolerance-equal across backends, so any
    // numeric deltas below should be read in that light.
    if a.simd != b.simd {
        cmp.report.structure.push(DiffEntry::new("simd", a.simd.clone(), b.simd.clone()));
    }

    // Different tuning configs are likewise provenance, not drift:
    // tuning is timing-only, so two runs that differ *only* here must
    // still produce identical payloads — but the config drift itself
    // is worth flagging structurally (suppressible for deliberate
    // comparisons across kernel pins).
    if !opts.ignore_tuning && a.tuning != b.tuning {
        cmp.report.structure.push(DiffEntry::new(
            "tuning",
            render_tuning(&a.tuning),
            render_tuning(&b.tuning),
        ));
    }

    // ------------------------------------------------- sweep blocks
    // Blocks are keyed by (device model, sigma): a model grid produces
    // several blocks per sigma, and comparing across models would be a
    // category error, not drift.
    for sa in &a.sweeps {
        let Some(sb) = b.sweep_block(&sa.device_model, sa.sigma) else {
            cmp.report.structure.push(DiffEntry::new(
                format!("sweeps[{}, sigma={}]", sa.device_model, sa.sigma),
                "present",
                "missing",
            ));
            continue;
        };
        let sp = format!("sweeps[{}, sigma={}]", sa.device_model, sa.sigma);
        cmp.number(&format!("{sp}.float_accuracy"), sa.float_accuracy, sb.float_accuracy);
        cmp.number(&format!("{sp}.quant_accuracy"), sa.quant_accuracy, sb.quant_accuracy);

        for ma in &sa.methods {
            let Some(mb) = sb.method(&ma.name) else {
                cmp.report.structure.push(DiffEntry::new(
                    format!("{sp}.{}", ma.name),
                    "present",
                    "missing",
                ));
                continue;
            };
            if ma.points.len() != mb.points.len() {
                cmp.report.structure.push(DiffEntry::new(
                    format!("{sp}.{}", ma.name),
                    format!("{} points", ma.points.len()),
                    format!("{} points", mb.points.len()),
                ));
                continue;
            }
            for (pa, pb) in ma.points.iter().zip(&mb.points) {
                if pa.fraction != pb.fraction {
                    cmp.report.structure.push(DiffEntry::new(
                        format!("{sp}.{}", ma.name),
                        format!("fraction {}", pa.fraction),
                        format!("fraction {}", pb.fraction),
                    ));
                    continue;
                }
                let pp = format!("{sp}.{} @ fraction {}", ma.name, pa.fraction);
                cmp.number(&format!("{pp}: nwc"), pa.nwc, pb.nwc);
                cmp.number(&format!("{pp}: accuracy_mean"), pa.accuracy_mean, pb.accuracy_mean);
                cmp.number(&format!("{pp}: accuracy_std"), pa.accuracy_std, pb.accuracy_std);
                cmp.number(&format!("{pp}: accuracy_min"), pa.accuracy_min, pb.accuracy_min);
                cmp.number(&format!("{pp}: accuracy_p05"), pa.accuracy_p05, pb.accuracy_p05);
            }
        }
        for mb in &sb.methods {
            if sa.method(&mb.name).is_none() {
                cmp.report.structure.push(DiffEntry::new(
                    format!("{sp}.{}", mb.name),
                    "missing",
                    "present",
                ));
            }
        }

        if sa.insitu.len() != sb.insitu.len() {
            cmp.report.structure.push(DiffEntry::new(
                format!("{sp}.In-situ"),
                format!("{} points", sa.insitu.len()),
                format!("{} points", sb.insitu.len()),
            ));
        } else {
            for (i, (pa, pb)) in sa.insitu.iter().zip(&sb.insitu).enumerate() {
                let pp = format!("{sp}.In-situ[{i}]");
                cmp.number(&format!("{pp}: nwc"), pa.nwc, pb.nwc);
                cmp.number(&format!("{pp}: accuracy_mean"), pa.accuracy_mean, pb.accuracy_mean);
                cmp.number(&format!("{pp}: accuracy_std"), pa.accuracy_std, pb.accuracy_std);
            }
        }
    }
    for sb in &b.sweeps {
        if a.sweep_block(&sb.device_model, sb.sigma).is_none() {
            cmp.report.structure.push(DiffEntry::new(
                format!("sweeps[{}, sigma={}]", sb.device_model, sb.sigma),
                "missing",
                "present",
            ));
        }
    }

    // ------------------------------------------------- correlations
    match (&a.correlations, &b.correlations) {
        (Some(ca), Some(cb)) => {
            cmp.number("correlations.magnitude", ca.magnitude, cb.magnitude);
            cmp.number("correlations.sensitivity", ca.sensitivity, cb.sensitivity);
        }
        (Some(_), None) => {
            cmp.report.structure.push(DiffEntry::new("correlations", "present", "missing"));
        }
        (None, Some(_)) => {
            cmp.report.structure.push(DiffEntry::new("correlations", "missing", "present"));
        }
        (None, None) => {}
    }

    // ------------------------------------- partial-document flavor
    // A shard document, a checkpoint journal, and a final document are
    // different *shapes*, not different numbers. The raw matrices are
    // not compared: every statistic derived from them already is.
    match (&a.shard, &b.shard) {
        (Some(sa), Some(sb)) if sa != sb => {
            cmp.report.structure.push(DiffEntry::new(
                "shard",
                format!("shard {}/{} (runs {}..{})", sa.index, sa.count, sa.run_start, sa.run_end),
                format!("shard {}/{} (runs {}..{})", sb.index, sb.count, sb.run_start, sb.run_end),
            ));
        }
        (Some(sa), None) => {
            cmp.report.structure.push(DiffEntry::new(
                "shard",
                format!("partial (shard {}/{})", sa.index, sa.count),
                "full document",
            ));
        }
        (None, Some(sb)) => {
            cmp.report.structure.push(DiffEntry::new(
                "shard",
                "full document",
                format!("partial (shard {}/{})", sb.index, sb.count),
            ));
        }
        _ => {}
    }
    match (&a.completed, &b.completed) {
        (Some(ca), Some(cb)) if ca != cb => {
            cmp.report.structure.push(DiffEntry::new(
                "completed",
                format!("{} checkpointed block(s)", ca.len()),
                format!("{} checkpointed block(s)", cb.len()),
            ));
        }
        (Some(ca), None) => {
            cmp.report.structure.push(DiffEntry::new(
                "completed",
                format!("checkpoint journal ({} block(s))", ca.len()),
                "final document",
            ));
        }
        (None, Some(cb)) => {
            cmp.report.structure.push(DiffEntry::new(
                "completed",
                "final document",
                format!("checkpoint journal ({} block(s))", cb.len()),
            ));
        }
        _ => {}
    }
    if a.faults != b.faults {
        cmp.report.structure.push(DiffEntry::new(
            "faults",
            format!("{} isolated fault(s)", a.faults.len()),
            format!("{} isolated fault(s)", b.faults.len()),
        ));
    }

    // ------------------------------------------------------- tables
    // For kinds whose only results are their tables (calibration,
    // ablation — no sweeps/correlations payload on either side), the
    // cells themselves must match byte-for-byte or the diff would be
    // vacuous. Otherwise the cells are presentation over the payload
    // compared above, and only the structure is checked.
    let tables_are_payload = a.sweeps.is_empty()
        && b.sweeps.is_empty()
        && a.correlations.is_none()
        && b.correlations.is_none();
    if a.tables.len() != b.tables.len() {
        cmp.report.structure.push(DiffEntry::new(
            "tables",
            format!("{} tables", a.tables.len()),
            format!("{} tables", b.tables.len()),
        ));
    } else {
        for (i, (ta, tb)) in a.tables.iter().zip(&b.tables).enumerate() {
            if ta.title() != tb.title() {
                cmp.report.structure.push(DiffEntry::new(
                    format!("tables[{i}].title"),
                    format!("`{}`", ta.title()),
                    format!("`{}`", tb.title()),
                ));
            } else if ta.headers() != tb.headers() {
                cmp.report.structure.push(DiffEntry::new(
                    format!("tables[{i}] (`{}`)", ta.title()),
                    format!("headers {:?}", ta.headers()),
                    format!("headers {:?}", tb.headers()),
                ));
            } else if ta.len() != tb.len() {
                cmp.report.structure.push(DiffEntry::new(
                    format!("tables[{i}] (`{}`)", ta.title()),
                    format!("{} rows", ta.len()),
                    format!("{} rows", tb.len()),
                ));
            } else if tables_are_payload {
                for (r, (ra, rb)) in ta.rows().iter().zip(tb.rows()).enumerate() {
                    for (c, (ca, cb)) in ra.iter().zip(rb).enumerate() {
                        cmp.report.values_compared += 1;
                        if ca != cb {
                            cmp.report.drift.push(DiffEntry::new(
                                format!(
                                    "tables[{i}] (`{}`) row {r} `{}`: {}",
                                    ta.title(),
                                    ra.first().map(String::as_str).unwrap_or(""),
                                    ta.headers()[c],
                                ),
                                format!("`{ca}`"),
                                format!("`{cb}`"),
                            ));
                        }
                    }
                }
            }
        }
    }

    cmp.report
}

/// One-line summary of a tuning block for the structural diff entry.
fn render_tuning(t: &crate::schema::TuningDoc) -> String {
    let mut out = format!("mode={}", t.mode);
    for (name, v) in [
        ("block", t.gemm_block_cols),
        ("min_flops", t.gemm_min_flops),
        ("im2col", t.im2col_cap_elems),
    ] {
        if v != 0 {
            out.push_str(&format!(" {name}={v}"));
        }
    }
    if !t.choices.is_empty() {
        out.push_str(&format!(" ({} choice(s))", t.choices.len()));
    }
    out
}

/// Recursively records differing leaves of two [`Value`] trees.
fn diff_values(path: &str, a: &Value, b: &Value, out: &mut Vec<DiffEntry>) {
    match (a, b) {
        (Value::Table(ea), Value::Table(eb)) => {
            for (k, va) in ea {
                match b.get(k) {
                    Some(vb) => diff_values(&format!("{path}.{k}"), va, vb, out),
                    None => {
                        out.push(DiffEntry::new(format!("{path}.{k}"), render_leaf(va), "missing"))
                    }
                }
            }
            for (k, vb) in eb {
                if a.get(k).is_none() {
                    out.push(DiffEntry::new(format!("{path}.{k}"), "missing", render_leaf(vb)));
                }
            }
        }
        (Value::Array(ia), Value::Array(ib)) if ia.len() == ib.len() => {
            for (i, (va, vb)) in ia.iter().zip(ib).enumerate() {
                diff_values(&format!("{path}[{i}]"), va, vb, out);
            }
        }
        _ if a == b => {}
        _ => out.push(DiffEntry::new(path, render_leaf(a), render_leaf(b))),
    }
}

fn render_leaf(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("`{s}`"),
        Value::Int(i) => format!("{i}"),
        Value::Float(f) => format!("{f}"),
        Value::Bool(b) => format!("{b}"),
        Value::Array(items) => format!("[{} items]", items.len()),
        Value::Table(entries) => format!("{{{} keys}}", entries.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{CurvePoint, InsituPoint, MethodCurveDoc, SweepDoc};

    fn doc() -> ResultsDoc {
        let spec = swim_exp::preset("table1", true).unwrap();
        let mut doc = ResultsDoc::new(spec, 1.0);
        doc.sweeps.push(SweepDoc {
            device_model: "rram-gaussian".into(),
            sigma: 0.15,
            float_accuracy: 99.0,
            quant_accuracy: 98.5,
            methods: vec![
                MethodCurveDoc {
                    name: "SWIM".into(),
                    points: vec![
                        CurvePoint {
                            fraction: 0.0,
                            nwc: 0.0,
                            accuracy_mean: 90.0,
                            accuracy_std: 1.0,
                            accuracy_min: 88.0,
                            accuracy_p05: 88.2,
                        },
                        CurvePoint {
                            fraction: 0.5,
                            nwc: 0.45,
                            accuracy_mean: 97.0,
                            accuracy_std: 0.3,
                            accuracy_min: 96.2,
                            accuracy_p05: 96.4,
                        },
                    ],
                },
                MethodCurveDoc {
                    name: "Random".into(),
                    points: vec![CurvePoint {
                        fraction: 0.0,
                        nwc: 0.0,
                        accuracy_mean: 90.0,
                        accuracy_std: 1.0,
                        accuracy_min: 88.0,
                        accuracy_p05: 88.2,
                    }],
                },
            ],
            insitu: vec![InsituPoint { nwc: 0.5, accuracy_mean: 95.0, accuracy_std: 0.4 }],
            raw: None,
        });
        doc
    }

    #[test]
    fn identical_docs_are_clean() {
        let a = doc();
        let report = diff_docs(&a, &a.clone(), &DiffOptions::default());
        assert!(report.clean(), "{}", report.render());
        assert!(report.values_compared > 5);
        assert!(report.render().contains("no drift"));
    }

    #[test]
    fn wall_time_never_drifts() {
        let a = doc();
        let mut b = doc();
        b.wall_time_s = 999.0;
        assert!(diff_docs(&a, &b, &DiffOptions::default()).clean());
    }

    #[test]
    fn perturbed_point_is_named() {
        let a = doc();
        let mut b = doc();
        b.sweeps[0].methods[0].points[1].accuracy_mean += 0.75;
        let report = diff_docs(&a, &b, &DiffOptions::default());
        assert!(!report.clean());
        assert_eq!(report.drift.len(), 1);
        let entry = &report.drift[0];
        assert!(entry.path.contains("SWIM"), "{}", entry.path);
        assert!(entry.path.contains("fraction 0.5"), "{}", entry.path);
        assert!(entry.path.contains("accuracy_mean"), "{}", entry.path);
        assert!((entry.delta.unwrap() + 0.75).abs() < 1e-12);
        // A loose tolerance forgives it again.
        let loose = DiffOptions { abs_tol: 1.0, ..Default::default() };
        assert!(diff_docs(&a, &b, &loose).clean());
    }

    #[test]
    fn tail_columns_participate_in_drift() {
        let a = doc();
        let mut b = doc();
        b.sweeps[0].methods[0].points[1].accuracy_p05 += 0.5;
        let report = diff_docs(&a, &b, &DiffOptions::default());
        assert_eq!(report.drift.len(), 1, "{}", report.render());
        assert!(report.drift[0].path.contains("accuracy_p05"), "{}", report.drift[0].path);
    }

    #[test]
    fn differing_device_model_is_structural() {
        let a = doc();
        let mut b = doc();
        b.sweeps[0].device_model = "mram-stochastic".into();
        let report = diff_docs(&a, &b, &DiffOptions::default());
        assert!(!report.clean());
        assert!(
            report.structure.iter().any(|e| e.path.contains("rram-gaussian")
                && e.path.contains("sigma=0.15")
                && e.left == "present"),
            "{}",
            report.render()
        );
        assert!(
            report
                .structure
                .iter()
                .any(|e| e.path.contains("mram-stochastic") && e.left == "missing"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn spec_difference_is_reported_and_suppressible() {
        let a = doc();
        let mut b = doc();
        b.spec.seed = 42;
        let report = diff_docs(&a, &b, &DiffOptions::default());
        assert!(!report.clean());
        assert!(report.spec.iter().any(|e| e.path == "spec.seed"), "{}", report.render());
        let opts = DiffOptions { ignore_spec: true, ..Default::default() };
        assert!(diff_docs(&a, &b, &opts).clean());
    }

    #[test]
    fn missing_method_is_structural() {
        let a = doc();
        let mut b = doc();
        b.sweeps[0].methods.pop();
        let report = diff_docs(&a, &b, &DiffOptions::default());
        assert!(report.structure.iter().any(|e| e.path.contains("Random")), "{}", report.render());
    }

    #[test]
    fn missing_sigma_block_is_structural() {
        let a = doc();
        let mut b = doc();
        b.sweeps.clear();
        let report = diff_docs(&a, &b, &DiffOptions::default());
        assert!(
            report.structure.iter().any(|e| e.path.contains("sigma=0.15")),
            "{}",
            report.render()
        );
    }

    /// Calibration/ablation-kind documents have no sweeps — their
    /// tables ARE the payload, so cell edits must count as drift (a
    /// structure-only table check would make `swim diff` vacuous for
    /// those kinds).
    #[test]
    fn table_cells_drift_when_tables_are_the_payload() {
        use swim_core::report::Table;
        let spec = swim_exp::preset("calibration", false).unwrap();
        let mut a = ResultsDoc::new(spec, 1.0);
        let mut t = Table::new("write-verify statistics", &["config", "avg cycles"]);
        t.push_row(&["RRAM", "9.77"]);
        a.tables.push(t);
        let clean = diff_docs(&a, &a.clone(), &DiffOptions::default());
        assert!(clean.clean());
        assert_eq!(clean.values_compared, 2, "cells are compared for table-only kinds");

        let mut b = a.clone();
        b.tables[0] = {
            let mut t = Table::new("write-verify statistics", &["config", "avg cycles"]);
            t.push_row(&["RRAM", "12.01"]);
            t
        };
        let report = diff_docs(&a, &b, &DiffOptions::default());
        assert_eq!(report.drift.len(), 1, "{}", report.render());
        assert!(report.drift[0].path.contains("avg cycles"), "{}", report.drift[0].path);

        // With a sweeps payload present, the same cell edit is treated
        // as presentation and does not drift.
        let mut a2 = doc();
        let mut t = Table::new("t", &["x"]);
        t.push_row(&["1"]);
        a2.tables.push(t);
        let mut b2 = a2.clone();
        b2.tables[0] = {
            let mut t = Table::new("t", &["x"]);
            t.push_row(&["2"]);
            t
        };
        assert!(diff_docs(&a2, &b2, &DiffOptions::default()).clean());
    }

    #[test]
    fn partial_document_flavor_is_structural() {
        use crate::schema::{BlockKey, FaultDoc};
        let a = doc();

        // Shard vs full.
        let mut b = doc();
        b.spec.run.shard = Some((0, 2));
        let b = ResultsDoc::new(b.spec, 1.0);
        let report = diff_docs(&a, &b, &DiffOptions { ignore_spec: true, ..Default::default() });
        assert!(
            report.structure.iter().any(|e| e.path == "shard" && e.right.contains("0/2")),
            "{}",
            report.render()
        );

        // Checkpoint journal vs final.
        let mut c = doc();
        c.completed = Some(vec![BlockKey { device_model: "rram-gaussian".into(), sigma: 0.15 }]);
        let report = diff_docs(&a, &c, &DiffOptions::default());
        assert!(
            report.structure.iter().any(|e| e.path == "completed" && e.left == "final document"),
            "{}",
            report.render()
        );

        // Isolated faults on one side only.
        let mut d = doc();
        d.faults.push(FaultDoc {
            device_model: "rram-gaussian".into(),
            sigma: 0.15,
            method: "SWIM".into(),
            run: 7,
            seed: 1,
            message: "boom".into(),
        });
        let report = diff_docs(&a, &d, &DiffOptions::default());
        assert!(
            report.structure.iter().any(|e| e.path == "faults" && e.right.contains("1")),
            "{}",
            report.render()
        );
    }

    /// A tuning-config difference is structural (never drift — tuning
    /// is timing-only) and suppressible with `--ignore-tuning`, also
    /// against an older document written with the autotuner on.
    #[test]
    fn tuning_difference_is_structural_and_suppressible() {
        use crate::schema::{TuningChoiceDoc, TuningDoc};
        let a = doc();
        let mut b = doc();
        b.tuning = TuningDoc {
            mode: "on".into(),
            choices: vec![TuningChoiceDoc {
                key: "gemm-mm:256x256x256:scalar:t1".into(),
                config: "block=128 workers=1".into(),
                source: "autotune".into(),
            }],
            ..TuningDoc::default()
        };
        let report = diff_docs(&a, &b, &DiffOptions::default());
        assert!(!report.clean());
        assert!(report.drift.is_empty(), "{}", report.render());
        let entry = report.structure.iter().find(|e| e.path == "tuning").unwrap();
        assert_eq!(entry.left, "mode=off");
        assert!(entry.right.contains("mode=on") && entry.right.contains("1 choice"), "{entry:?}");

        let opts = DiffOptions { ignore_tuning: true, ..Default::default() };
        assert!(diff_docs(&a, &b, &opts).clean());
    }

    #[test]
    fn relative_tolerance_scales() {
        let a = doc();
        let mut b = doc();
        // 0.5% relative change on a ~97 value.
        b.sweeps[0].methods[0].points[1].accuracy_mean *= 1.005;
        assert!(!diff_docs(&a, &b, &DiffOptions::default()).clean());
        let opts = DiffOptions { rel_tol: 0.01, ..Default::default() };
        assert!(diff_docs(&a, &b, &opts).clean());
    }
}
