//! `swim merge`: reassembles one unsharded results document from a
//! complete set of shard documents.
//!
//! A shard document carries the raw per-run matrices its aggregates
//! were computed from (see [`swim_report::schema::RawSweepDoc`]).
//! Because every Monte Carlo run draws from its own forked stream keyed
//! by the *global* run index, concatenating the shard matrices in shard
//! order reproduces the exact value sequence of the unsharded sweep —
//! re-aggregating and replaying the presentation layer then yields a
//! document that is **bit-identical** to a single-shot run (modulo wall
//! time, which records the sum of the shard times). The bit-identity is
//! pinned by `crates/bench/tests/merge_bitident.rs`.

use crate::driver::curves_from_raw;
use crate::experiment::{emit_block, model_sigma_grid, results_document, Block, Collector};
use swim_core::montecarlo::RunFault;
use swim_exp::spec::{ExperimentKind, ExperimentSpec};
use swim_report::schema::{ResultsDoc, SweepDoc};

/// One shard input: a label for error messages (usually the file path)
/// plus the parsed document.
pub type ShardInput = (String, ResultsDoc);

/// Merges a complete set of shard documents into the document the
/// unsharded run would have produced.
///
/// Validates that the inputs form exactly one shard `0..n` each of a
/// consistent partition of the same experiment, rebuilds every `(model,
/// sigma)` block's statistics from the concatenated raw matrices, and
/// replays the presentation layer (tables, speed-up summaries) exactly
/// as the live engine would. Wall time is the sum of the shard times.
pub fn merge_docs(shards: &[ShardInput]) -> Result<ResultsDoc, String> {
    if shards.is_empty() {
        return Err("`swim merge` expects at least one shard document".to_string());
    }
    for (label, doc) in shards {
        let Some(shard) = &doc.shard else {
            return Err(format!(
                "{label}: not a shard document (no `shard` section — merging a full document \
                 is a no-op, and mixing full and partial runs would double-count)"
            ));
        };
        if doc.completed.is_some() {
            return Err(format!(
                "{label}: this is a checkpoint journal, not a finished shard document \
                 (finish or resume the run first: `swim run <spec> --resume {label}`)"
            ));
        }
        if doc.spec.run.shard != Some((shard.index, shard.count)) {
            return Err(format!(
                "{label}: `shard` section ({}/{}) disagrees with the spec echo",
                shard.index, shard.count
            ));
        }
    }

    let count = shards[0].1.shard.as_ref().expect("validated above").count;
    if shards.len() != count {
        return Err(format!(
            "incomplete partition: got {} shard(s) of a {count}-way split",
            shards.len()
        ));
    }
    let mut ordered: Vec<&ShardInput> = Vec::with_capacity(count);
    for want in 0..count {
        let mut found = shards
            .iter()
            .filter(|(_, d)| d.shard.as_ref().map(|s| (s.index, s.count)) == Some((want, count)));
        let Some(first) = found.next() else {
            return Err(format!("missing shard {want}/{count}"));
        };
        if let Some((dup, _)) = found.next() {
            return Err(format!("shard {want}/{count} appears more than once ({dup})"));
        }
        ordered.push(first);
    }

    // Every shard must describe the same experiment once its own shard
    // assignment is stripped off.
    let mut spec = ordered[0].1.spec.clone();
    spec.run.shard = None;
    for (label, doc) in &ordered {
        let mut stripped = doc.spec.clone();
        stripped.run.shard = None;
        if stripped != spec {
            return Err(format!(
                "{label}: spec echo differs from {}'s — these shards are not from the same \
                 experiment",
                ordered[0].0
            ));
        }
    }
    // Elementwise kernels are bit-identical across SIMD backends but the
    // GEMM accumulation order is not; shards mixed across backends would
    // merge into a document no single-shot run could produce.
    let simd = &ordered[0].1.simd;
    for (label, doc) in &ordered {
        if doc.simd != *simd {
            return Err(format!(
                "{label}: shard ran under SIMD backend `{}` but {} ran under `{simd}` — \
                 re-run the shards under one backend (SWIM_SIMD={simd}) before merging",
                doc.simd, ordered[0].0
            ));
        }
    }
    if !matches!(spec.kind, ExperimentKind::Table1 | ExperimentKind::Fig2 | ExperimentKind::Sweep) {
        return Err(format!(
            "`swim merge` applies to block-structured kinds (table1, fig2, sweep), not `{}`",
            spec.kind.key()
        ));
    }
    for (label, doc) in &ordered {
        let expected = doc.spec.shard_run_range();
        let s = doc.shard.as_ref().expect("validated above");
        if (s.run_start, s.run_end) != expected {
            return Err(format!(
                "{label}: shard claims runs {}..{} but shard {}/{} of {} runs covers \
                 {}..{}",
                s.run_start,
                s.run_end,
                s.index,
                s.count,
                spec.montecarlo.runs,
                expected.0,
                expected.1
            ));
        }
    }

    let mut collector = Collector::quiet();
    for (model_name, sigma) in model_sigma_grid(&spec) {
        let block = merge_block(&spec, &ordered, &model_name, sigma)?;
        emit_block(&spec, false, &mut collector, &block);
    }
    let wall_time: f64 = ordered.iter().map(|(_, d)| d.wall_time_s).sum();
    let mut doc = results_document(&spec, collector, wall_time);
    // The merge itself computes nothing numeric — the document's
    // provenance is the backend the *shards* ran under, not whatever
    // this process happens to dispatch through.
    doc.simd = simd.clone();
    // Same for kernel tuning, except that tuning is timing-only, so
    // shards tuned differently still merge bit-exactly; when they do
    // disagree, no single configuration describes the document and the
    // merged block falls back to the default (off, nothing pinned).
    let tuning = &ordered[0].1.tuning;
    doc.tuning = if ordered.iter().all(|(_, d)| d.tuning == *tuning) {
        tuning.clone()
    } else {
        Default::default()
    };
    Ok(doc)
}

/// The shard's sweep record for one `(model, sigma)` block, or an error
/// naming what is missing.
fn block_of<'a>(
    label: &str,
    doc: &'a ResultsDoc,
    model_name: &str,
    sigma: f64,
) -> Result<&'a SweepDoc, String> {
    doc.sweeps
        .iter()
        .find(|s| s.device_model == model_name && s.sigma == sigma)
        .ok_or_else(|| format!("{label}: missing block ({model_name}, sigma={sigma})"))
}

/// Rebuilds one `(model, sigma)` block from the shard documents:
/// concatenates the raw per-run rows in shard order, re-attaches the
/// recorded faults at their global indices, and re-aggregates.
fn merge_block(
    spec: &ExperimentSpec,
    ordered: &[&ShardInput],
    model_name: &str,
    sigma: f64,
) -> Result<Block, String> {
    let (label0, doc0) = ordered[0];
    let first = block_of(label0, doc0, model_name, sigma)?;
    let method_names: Vec<&str> = first
        .raw
        .as_ref()
        .map_or(Vec::new(), |r| r.methods.iter().map(|m| m.name.as_str()).collect());

    let mut float_acc = first.float_accuracy;
    let mut quant_acc = first.quant_accuracy;
    let mut rows: Vec<Vec<(f64, f64)>> = vec![Vec::new(); method_names.len()];
    let mut insitu_raw: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut faults: Vec<Vec<RunFault>> = vec![Vec::new(); method_names.len()];

    for (label, doc) in ordered {
        let block = block_of(label, doc, model_name, sigma)?;
        // The deterministic preparation phase (training, quantization,
        // clean mapping) is identical in every shard; its accuracies
        // must match to the bit or the shards diverged before sweeping.
        if block.float_accuracy.to_bits() != float_acc.to_bits()
            || block.quant_accuracy.to_bits() != quant_acc.to_bits()
        {
            return Err(format!(
                "{label}: block ({model_name}, sigma={sigma}) has different float/quantized \
                 baseline accuracies than {label0} — the shards did not run the same \
                 deterministic preparation"
            ));
        }
        float_acc = block.float_accuracy;
        quant_acc = block.quant_accuracy;
        let Some(raw) = &block.raw else {
            return Err(format!(
                "{label}: block ({model_name}, sigma={sigma}) has no `raw` matrices — only \
                 shard documents (run with `--shard i/n`) are mergeable"
            ));
        };
        let names: Vec<&str> = raw.methods.iter().map(|m| m.name.as_str()).collect();
        if names != method_names {
            return Err(format!(
                "{label}: block ({model_name}, sigma={sigma}) sweeps methods {names:?} but \
                 {label0} sweeps {method_names:?}"
            ));
        }
        let (run_start, run_end) = doc.spec.shard_run_range();
        for (i, m) in raw.methods.iter().enumerate() {
            if m.rows.len() != run_end - run_start {
                return Err(format!(
                    "{label}: block ({model_name}, sigma={sigma}) method {} records {} raw \
                     row(s) for {} run(s)",
                    m.name,
                    m.rows.len(),
                    run_end - run_start
                ));
            }
            for row in &m.rows {
                rows[i].extend_from_slice(row);
            }
        }
        insitu_raw.extend(raw.insitu_runs.iter().cloned());
        for f in &doc.faults {
            if f.device_model == model_name && f.sigma == sigma {
                if let Some(i) = method_names.iter().position(|n| *n == f.method) {
                    faults[i].push(RunFault { run: f.run, message: f.message.clone() });
                }
            }
        }
    }

    let methods = method_names
        .iter()
        .zip(rows)
        .zip(faults)
        .map(|((name, raw), faults)| (name.to_string(), raw, faults))
        .collect();
    Ok(Block {
        model: model_name.to_string(),
        sigma,
        float_accuracy: float_acc,
        quant_accuracy: quant_acc,
        curves: curves_from_raw(&spec.sweep.fractions, methods, insitu_raw),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_pair() -> Vec<ShardInput> {
        let mut spec = swim_exp::preset("fig2a", true).unwrap();
        let mut docs = Vec::new();
        for i in 0..2 {
            spec.apply_set(&format!("shard={i}/2")).unwrap();
            let mut doc = ResultsDoc::new(spec.clone(), 1.0);
            let (run_start, run_end) = spec.shard_run_range();
            doc.shard =
                Some(swim_report::schema::ShardDoc { index: i, count: 2, run_start, run_end });
            docs.push((format!("shard{i}.json"), doc));
        }
        docs
    }

    #[test]
    fn rejects_incomplete_partitions() {
        let docs = shard_pair();
        let e = merge_docs(&docs[..1]).unwrap_err();
        assert!(e.contains("incomplete partition"), "{e}");
    }

    #[test]
    fn rejects_duplicate_shards() {
        let mut docs = shard_pair();
        docs[1] = docs[0].clone();
        let e = merge_docs(&docs).unwrap_err();
        assert!(e.contains("more than once") || e.contains("missing shard"), "{e}");
    }

    #[test]
    fn rejects_full_documents() {
        let spec = swim_exp::preset("fig2a", true).unwrap();
        let doc = ResultsDoc::new(spec, 1.0);
        let e = merge_docs(&[("full.json".into(), doc)]).unwrap_err();
        assert!(e.contains("not a shard document"), "{e}");
    }

    #[test]
    fn rejects_checkpoint_journals() {
        let mut docs = shard_pair();
        docs[0].1.completed = Some(Vec::new());
        let e = merge_docs(&docs).unwrap_err();
        assert!(e.contains("checkpoint journal"), "{e}");
    }

    #[test]
    fn rejects_mismatched_specs() {
        let mut docs = shard_pair();
        docs[1].1.spec.seed += 1;
        let e = merge_docs(&docs).unwrap_err();
        assert!(e.contains("spec echo differs"), "{e}");
    }

    #[test]
    fn rejects_blocks_without_raw_matrices() {
        let mut docs = shard_pair();
        for (_, doc) in &mut docs {
            doc.sweeps.push(swim_report::schema::SweepDoc {
                device_model: doc.spec.device.models[0].clone(),
                sigma: doc.spec.device.sigmas[0],
                float_accuracy: 99.0,
                quant_accuracy: 98.0,
                methods: Vec::new(),
                insitu: Vec::new(),
                raw: None,
            });
        }
        let e = merge_docs(&docs).unwrap_err();
        assert!(e.contains("no `raw` matrices"), "{e}");
    }
}
