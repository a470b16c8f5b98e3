//! The sharding acceptance contract: `swim merge` over a complete
//! partition must reproduce the unsharded results document **to the
//! byte** (wall time excepted — it records the sum of the shard times,
//! so both sides are normalized to zero before comparing).

use proptest::prelude::*;
use std::sync::OnceLock;

use swim_bench::experiment::{run_spec, RunOptions};
use swim_bench::merge::merge_docs;
use swim_exp::spec::ExperimentSpec;
use swim_report::schema::ResultsDoc;

const RUNS: usize = 6;

fn tiny_spec() -> ExperimentSpec {
    ExperimentSpec::parse_str(
        "name = \"shard-loop\"\nseed = 17\n\
         [training]\nsamples = 120\nepochs = 1\n\
         [selection]\nmethods = [\"swim\", \"magnitude\"]\ninsitu = true\n\
         [sweep]\nfractions = [0.0, 0.5, 1.0]\n\
         [montecarlo]\nruns = 6\nthreads = 1\n",
    )
    .unwrap()
}

/// Runs the tiny spec as shard `i/n` (or unsharded for `None`) and
/// normalizes the wall time, the one field that legitimately differs.
fn run_shard(shard: Option<(usize, usize)>) -> ResultsDoc {
    let mut spec = tiny_spec();
    spec.run.shard = shard;
    let opts = RunOptions {
        tuning: swim_tensor::tune::KernelTuning { gemm_threads: 1, ..Default::default() },
        ..Default::default()
    };
    let mut doc = run_spec(&spec, &opts).unwrap();
    doc.wall_time_s = 0.0;
    doc
}

/// The unsharded reference document, computed once for the whole file.
fn full_doc() -> &'static ResultsDoc {
    static FULL: OnceLock<ResultsDoc> = OnceLock::new();
    FULL.get_or_init(|| run_shard(None))
}

fn merge_partition(count: usize) -> ResultsDoc {
    let shards: Vec<(String, ResultsDoc)> =
        (0..count).map(|i| (format!("shard{i}.json"), run_shard(Some((i, count))))).collect();
    let mut merged = merge_docs(&shards).unwrap();
    merged.wall_time_s = 0.0;
    merged
}

#[test]
fn two_way_merge_is_bit_identical_to_the_unsharded_run() {
    let merged = merge_partition(2);
    let full = full_doc();
    assert_eq!(merged, *full);
    assert_eq!(merged.to_json(), full.to_json(), "serialized bytes must match too");
}

/// Shard documents are partial-flavored: they carry the `shard` section
/// and the raw per-run matrices; the merged document carries neither,
/// exactly like the unsharded run.
#[test]
fn shard_documents_carry_provenance_and_raw_matrices() {
    let shard = run_shard(Some((1, 2)));
    let s = shard.shard.as_ref().expect("shard section");
    assert_eq!((s.index, s.count), (1, 2));
    assert_eq!((s.run_start, s.run_end), (RUNS / 2, RUNS));
    let raw = shard.sweeps[0].raw.as_ref().expect("raw matrices");
    assert_eq!(raw.methods.len(), 2);
    assert_eq!(raw.methods[0].rows.len(), RUNS - RUNS / 2);
    assert_eq!(raw.insitu_runs.len(), RUNS - RUNS / 2);

    let full = full_doc();
    assert!(full.shard.is_none());
    assert!(full.sweeps[0].raw.is_none());

    // And the shard round-trips through its own serialization — the raw
    // matrices survive the float formatter bit-exactly.
    let back = ResultsDoc::parse_str(&shard.to_json()).unwrap();
    assert_eq!(back, shard);
}

fn fixture_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Golden contract: the committed shard fixtures merge to the committed
/// merged document, byte for byte. (The shard wall times are pinned in
/// the fixtures, so the merged sum is deterministic too.)
#[test]
fn golden_shard_fixtures_merge_to_the_committed_bytes() {
    let dir = fixture_dir();
    let shards: Vec<(String, ResultsDoc)> = (0..2)
        .map(|i| {
            let path = dir.join(format!("shard_{i}.json"));
            (path.display().to_string(), ResultsDoc::load(&path).unwrap())
        })
        .collect();
    let merged = merge_docs(&shards).unwrap();
    let expected = std::fs::read_to_string(dir.join("merged.json")).unwrap();
    assert_eq!(merged.to_json(), expected);
}

/// Regenerates the golden merge fixtures. Committed but ignored: run
/// explicitly (`cargo test -p swim-bench regenerate_merge_fixtures --
/// --ignored`) after a schema or engine change, then review the diff.
#[test]
#[ignore = "rewrites tests/fixtures; run explicitly after a schema change"]
fn regenerate_merge_fixtures() {
    let dir = fixture_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut shards = Vec::new();
    for i in 0..2 {
        let mut doc = run_shard(Some((i, 2)));
        // Pin the one nondeterministic field so regeneration is stable.
        doc.wall_time_s = 1.0 + i as f64;
        std::fs::write(dir.join(format!("shard_{i}.json")), doc.to_json()).unwrap();
        shards.push((format!("shard_{i}.json"), doc));
    }
    let merged = merge_docs(&shards).unwrap();
    std::fs::write(dir.join("merged.json"), merged.to_json()).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Any valid partition size (the spec rejects splits that would
    /// leave empty shards) reproduces the unsharded document bit for
    /// bit — including uneven splits like 6 runs over 4 or 5 shards.
    #[test]
    fn any_partition_merges_bit_identically(count in 1usize..=RUNS) {
        let merged = merge_partition(count);
        let full = full_doc();
        prop_assert_eq!(&merged, full);
        prop_assert_eq!(merged.to_json(), full.to_json());
    }
}

/// Shards written while the program still had an autotuner (tuning
/// mode `on`, one recorded choice) still merge: the merged document
/// carries their common tuning block and the committed payload bytes.
#[test]
fn autotuned_shard_documents_still_merge() {
    use swim_report::schema::{TuningChoiceDoc, TuningDoc};
    let tuning = TuningDoc {
        mode: "on".into(),
        choices: vec![TuningChoiceDoc {
            key: "gemm-mm:256x256x256:scalar:t1".into(),
            config: "block=128 workers=1".into(),
            source: "disk-cache".into(),
        }],
        ..TuningDoc::default()
    };
    let dir = fixture_dir();
    let shards: Vec<(String, ResultsDoc)> = (0..2)
        .map(|i| {
            let path = dir.join(format!("shard_{i}.json"));
            let mut doc = ResultsDoc::load(&path).unwrap();
            doc.tuning = tuning.clone();
            let doc = ResultsDoc::parse_str(&doc.to_json()).expect("an autotuned shard parses");
            (path.display().to_string(), doc)
        })
        .collect();
    let mut merged = merge_docs(&shards).unwrap();
    assert_eq!(merged.tuning, tuning);
    merged.tuning = TuningDoc::default();
    let expected = std::fs::read_to_string(dir.join("merged.json")).unwrap();
    assert_eq!(merged.to_json(), expected);
}
