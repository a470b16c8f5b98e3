//! End-to-end tests of the `swim` analysis subcommands (exit codes and
//! output contracts) plus the in-process run → echo → re-run → diff
//! reproducibility loop.

use std::process::Command;

use swim_bench::experiment::{run_spec, RunOptions};
use swim_exp::spec::ExperimentSpec;
use swim_report::diff::{diff_docs, DiffOptions};
use swim_report::schema::ResultsDoc;

fn fixture(name: &str) -> String {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../report/tests/fixtures")
        .join(name)
        .display()
        .to_string()
}

fn swim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_swim")).args(args).output().expect("swim binary runs")
}

/// A fresh per-test scratch directory under the cargo-managed tmpdir.
fn tempdir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The tiny two-block spec the crash/shard CLI tests run: two sigmas ×
/// one model, one Monte Carlo run each, single-threaded.
const TWO_BLOCK_SPEC: &str = "name = \"crash-loop\"\nkind = \"sweep\"\nseed = 19\n\
     [device]\nsigmas = [0.05, 0.1]\n\
     [training]\nsamples = 120\nepochs = 1\n\
     [selection]\nmethods = [\"swim\"]\ninsitu = false\n\
     [sweep]\nfractions = [0.0, 1.0]\n\
     [montecarlo]\nruns = 2\nthreads = 1\n";

/// Reads a results document and zeroes the one field that legitimately
/// differs between two runs of the same experiment.
fn load_normalized(path: &std::path::Path) -> ResultsDoc {
    let mut doc = ResultsDoc::load(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    doc.wall_time_s = 0.0;
    doc
}

#[test]
fn diff_identical_documents_exits_zero() {
    let a = fixture("run_a.json");
    let out = swim(&["diff", &a, &a]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("no drift"), "{stdout}");
}

#[test]
fn diff_perturbed_document_exits_one_and_names_the_point() {
    let out = swim(&["diff", &fixture("run_a.json"), &fixture("run_b_perturbed.json")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("SWIM"), "{stdout}");
    assert!(stdout.contains("fraction 0.5"), "{stdout}");
    assert!(stdout.contains("accuracy_mean"), "{stdout}");
    // A wide tolerance turns the same comparison clean again.
    let out = swim(&[
        "diff",
        &fixture("run_a.json"),
        &fixture("run_b_perturbed.json"),
        "--abs-tol",
        "1.0",
    ]);
    assert!(out.status.success());
}

#[test]
fn diff_usage_errors_exit_two() {
    let out = swim(&["diff", &fixture("run_a.json")]);
    assert_eq!(out.status.code(), Some(2));
    let out = swim(&["diff", &fixture("run_a.json"), "/nonexistent/x.json"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn report_prints_markdown_with_every_method_table() {
    let out = swim(&["report", &fixture("run_a.json")]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("# SWIM results — fixture"), "{stdout}");
    assert!(stdout.contains("| SWIM |"), "{stdout}");
    assert!(stdout.contains("| Magnitude |"), "{stdout}");
    assert!(stdout.contains("| In-situ |"), "{stdout}");
    assert!(stdout.contains("## sigma = 0.1"), "{stdout}");
    assert!(stdout.contains("## sigma = 0.15"), "{stdout}");
}

#[test]
fn report_baseline_annotates_deltas() {
    let out =
        swim(&["report", &fixture("run_b_perturbed.json"), "--baseline", &fixture("run_a.json")]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(Δ+0.75)"), "{stdout}");
}

#[test]
fn summarize_renders_cross_run_table() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../report/tests/fixtures");
    let out = swim(&["summarize", &dir.display().to_string()]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cross-run summary"), "{stdout}");
    assert!(stdout.contains("run_a"), "{stdout}");
    assert!(stdout.contains("run_b_perturbed"), "{stdout}");
    assert!(stdout.contains("LayerBalanced") || stdout.contains("SWIM"), "{stdout}");
}

/// The acceptance loop, in-process: run a tiny spec, feed the emitted
/// document's spec echo back through the engine, and require the two
/// documents to diff clean (bit-identical curves, zero drift).
#[test]
fn run_echo_rerun_diff_is_clean() {
    let spec = ExperimentSpec::parse_str(
        "name = \"echo-loop\"\nseed = 11\n\
         [training]\nsamples = 120\nepochs = 1\n\
         [selection]\nmethods = [\"swim\"]\ninsitu = false\n\
         [sweep]\nfractions = [0.0, 1.0]\n\
         [montecarlo]\nruns = 1\nthreads = 1\n",
    )
    .unwrap();
    let opts = RunOptions {
        tuning: swim_tensor::tune::KernelTuning { gemm_threads: 1, ..Default::default() },
        ..Default::default()
    };
    let first = run_spec(&spec, &opts).unwrap();

    // The echo is what `swim run first.json` would extract.
    let echoed = ResultsDoc::parse_str(&first.to_json()).unwrap().spec;
    assert_eq!(echoed, spec);
    let second = run_spec(&echoed, &opts).unwrap();

    let report = diff_docs(&first, &second, &DiffOptions::default());
    assert!(report.clean(), "{}", report.render());
    assert_eq!(report.max_delta, 0.0, "echo re-run must be bit-identical");
}

/// The same reproducibility loop with a non-default device model: the
/// `[device] model` choice must survive the spec echo, re-select the
/// same registry entry, and re-run bit-identically.
#[test]
fn non_default_model_echo_rerun_diff_is_clean() {
    let spec = ExperimentSpec::parse_str(
        "name = \"mram-echo-loop\"\nseed = 12\n\
         [device]\nmodel = \"mram-stochastic\"\n\
         [training]\nsamples = 120\nepochs = 1\n\
         [selection]\nmethods = [\"swim\"]\ninsitu = false\n\
         [sweep]\nfractions = [0.0, 1.0]\n\
         [montecarlo]\nruns = 2\nthreads = 1\n",
    )
    .unwrap();
    let opts = RunOptions {
        tuning: swim_tensor::tune::KernelTuning { gemm_threads: 1, ..Default::default() },
        ..Default::default()
    };
    let first = run_spec(&spec, &opts).unwrap();
    assert_eq!(first.sweeps.len(), 1);
    assert_eq!(first.sweeps[0].device_model, "mram-stochastic");

    let echoed = ResultsDoc::parse_str(&first.to_json()).unwrap().spec;
    assert_eq!(echoed.device.models, vec!["mram-stochastic".to_string()]);
    assert_eq!(echoed, spec);
    let second = run_spec(&echoed, &opts).unwrap();

    let report = diff_docs(&first, &second, &DiffOptions::default());
    assert!(report.clean(), "{}", report.render());
    assert_eq!(report.max_delta, 0.0, "echo re-run must be bit-identical");

    // The tail statistics are real data, not placeholders: with 2 runs
    // the minimum can sit below the mean, and both bound it from below.
    for p in &first.sweeps[0].methods[0].points {
        assert!(
            p.accuracy_min <= p.accuracy_p05 + 1e-12,
            "min {} p05 {}",
            p.accuracy_min,
            p.accuracy_p05
        );
        assert!(
            p.accuracy_p05 <= p.accuracy_mean + 1e-9,
            "p05 {} mean {}",
            p.accuracy_p05,
            p.accuracy_mean
        );
    }
}

/// Corrupt or truncated results JSON must exit 2 with a clear message —
/// never a panic — from every subcommand that parses documents.
#[test]
fn corrupt_documents_exit_two_without_panicking() {
    let dir = tempdir("swim-corrupt");
    let good = fixture("run_a.json");
    let truncated = dir.join("truncated.json");
    let text = std::fs::read_to_string(&good).unwrap();
    std::fs::write(&truncated, &text[..text.len() / 2]).unwrap();
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "{\"swim_results_version\": \"yes\"").unwrap();

    for bad in [&truncated, &garbage] {
        let bad = bad.display().to_string();
        for args in [
            vec!["diff", bad.as_str(), good.as_str()],
            vec!["diff", good.as_str(), bad.as_str()],
            vec!["report", bad.as_str()],
            vec!["merge", bad.as_str()],
        ] {
            let out = swim(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains("error:"), "{args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        }
    }
}

/// The shard → merge → verify loop through the actual binary:
/// two `--shard` runs merge into a document that diffs clean against
/// the single-shot run, and the merged bytes are identical modulo wall
/// time.
#[test]
fn shard_merge_cli_loop_matches_single_shot_run() {
    let dir = tempdir("swim-shard-merge");
    let spec = dir.join("spec.toml");
    std::fs::write(&spec, TWO_BLOCK_SPEC).unwrap();
    let spec = spec.display().to_string();
    let path = |name: &str| dir.join(name).display().to_string();

    let out = swim(&["run", &spec, "--out", &path("full.json")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for i in 0..2 {
        let out = swim(&[
            "run",
            &spec,
            "--shard",
            &format!("{i}/2"),
            "--out",
            &path(&format!("s{i}.json")),
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let out = swim(&["merge", &path("s0.json"), &path("s1.json"), "--out", &path("merged.json")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = swim(&["diff", &path("merged.json"), &path("full.json")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));

    let merged = load_normalized(&dir.join("merged.json"));
    let full = load_normalized(&dir.join("full.json"));
    assert_eq!(merged.to_json(), full.to_json(), "merge must be bit-identical");

    // An incomplete partition is a usage error, not a silent half-merge.
    let out = swim(&["merge", &path("s0.json"), "--out", &path("oops.json")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("incomplete partition"));
}

/// The crash-tolerance acceptance contract: a run killed mid-sweep
/// (after its first checkpointed block) resumes from the journal and
/// produces a document bit-identical to the uninterrupted run.
#[test]
fn killed_run_resumes_bit_identically() {
    let dir = tempdir("swim-kill-resume");
    let spec = dir.join("spec.toml");
    std::fs::write(&spec, TWO_BLOCK_SPEC).unwrap();
    let spec = spec.display().to_string();
    let path = |name: &str| dir.join(name).display().to_string();

    let out = swim(&["run", &spec, "--out", &path("uninterrupted.json")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Kill the process right after the first of the two blocks hits the
    // journal — from the engine's point of view this is a hard crash.
    let out = Command::new(env!("CARGO_BIN_EXE_swim"))
        .args(["run", &spec, "--checkpoint", &path("journal.json"), "--out", &path("dead.json")])
        .env("SWIM_TEST_ABORT_AFTER_BLOCKS", "1")
        .output()
        .expect("swim binary runs");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!dir.join("dead.json").exists(), "the killed run must not emit a final document");
    let journal = load_normalized(&dir.join("journal.json"));
    assert_eq!(journal.completed.as_deref().map(<[_]>::len), Some(1));
    assert_eq!(journal.sweeps.len(), 1);

    let out =
        swim(&["run", &spec, "--resume", &path("journal.json"), "--out", &path("resumed.json")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("resuming from"), "{stderr}");
    assert!(stderr.contains("1 of 2 block(s) already complete"), "{stderr}");

    let resumed = load_normalized(&dir.join("resumed.json"));
    let uninterrupted = load_normalized(&dir.join("uninterrupted.json"));
    assert_eq!(
        resumed.to_json(),
        uninterrupted.to_json(),
        "killed-then-resumed must be bit-identical to the uninterrupted run"
    );

    // Resuming a journal against a different experiment is rejected.
    let other = dir.join("other.toml");
    std::fs::write(&other, TWO_BLOCK_SPEC.replace("seed = 19", "seed = 20")).unwrap();
    let out = swim(&[
        "run",
        &other.display().to_string(),
        "--resume",
        &path("journal.json"),
        "--out",
        &path("x.json"),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("different experiment"));
}

/// A device-model grid in one spec produces one sweep block per
/// (model, sigma) pair — the acceptance shape for `kind = "sweep"`.
#[test]
fn model_grid_produces_one_block_per_model_sigma_pair() {
    let spec = ExperimentSpec::parse_str(
        "name = \"zoo-grid\"\nseed = 13\n\
         [device]\nmodel = [\"rram-gaussian\", \"sram-vt\"]\nsigmas = [0.05, 0.1]\n\
         [training]\nsamples = 120\nepochs = 1\n\
         [selection]\nmethods = [\"swim\"]\ninsitu = false\n\
         [sweep]\nfractions = [0.0, 1.0]\n\
         [montecarlo]\nruns = 1\nthreads = 1\n",
    )
    .unwrap();
    let opts = RunOptions {
        tuning: swim_tensor::tune::KernelTuning { gemm_threads: 1, ..Default::default() },
        ..Default::default()
    };
    let doc = run_spec(&spec, &opts).unwrap();
    assert_eq!(doc.sweeps.len(), 4);
    let keys: Vec<(String, f64)> =
        doc.sweeps.iter().map(|s| (s.device_model.clone(), s.sigma)).collect();
    assert_eq!(
        keys,
        vec![
            ("rram-gaussian".to_string(), 0.05),
            ("rram-gaussian".to_string(), 0.1),
            ("sram-vt".to_string(), 0.05),
            ("sram-vt".to_string(), 0.1),
        ]
    );
    // Same seed, same trained network — the clean accuracies agree
    // across models at a given sigma, but the noisy curves differ.
    let rram = doc.sweep_block("rram-gaussian", 0.1).unwrap();
    let sram = doc.sweep_block("sram-vt", 0.1).unwrap();
    assert_eq!(rram.float_accuracy, sram.float_accuracy);
    let differs = rram.methods[0]
        .points
        .iter()
        .zip(&sram.methods[0].points)
        .any(|(a, b)| a.accuracy_mean != b.accuracy_mean || a.nwc != b.nwc);
    assert!(differs, "device models must actually change the programmed curves");
}

/// One preparation serves every block: each block of a 2-model × 2-sigma
/// sweep (in-situ on) must be bit-identical to the document of the
/// matching one-block spec, which prepares for that block alone.
#[test]
fn grid_blocks_match_their_one_block_runs() {
    let grid = |models: &str, sigmas: &str| {
        ExperimentSpec::parse_str(&format!(
            "name = \"prep-reuse\"\nkind = \"sweep\"\nseed = 17\n\
             [device]\nmodel = {models}\nsigmas = {sigmas}\n\
             [training]\nsamples = 120\nepochs = 1\n\
             [selection]\nmethods = [\"swim\", \"magnitude\"]\ninsitu = true\n\
             [sweep]\nfractions = [0.0, 0.5, 1.0]\n\
             [montecarlo]\nruns = 2\nthreads = 1\n"
        ))
        .unwrap()
    };
    let opts = RunOptions {
        tuning: swim_tensor::tune::KernelTuning { gemm_threads: 1, ..Default::default() },
        ..Default::default()
    };
    let doc =
        run_spec(&grid("[\"rram-gaussian\", \"mram-stochastic\"]", "[0.1, 0.2]"), &opts).unwrap();
    assert_eq!(doc.sweeps.len(), 4);
    for block in &doc.sweeps {
        let single = run_spec(
            &grid(&format!("\"{}\"", block.device_model), &format!("[{}]", block.sigma)),
            &opts,
        )
        .unwrap();
        assert_eq!(single.sweeps.len(), 1);
        assert!(!block.insitu.is_empty(), "in-situ baseline must run");
        // `{:?}` prints every float with its shortest round-trip digits,
        // so equal strings mean equal bits.
        assert_eq!(
            format!("{block:?}"),
            format!("{:?}", single.sweeps[0]),
            "block ({}, sigma={}) differs from its one-block run",
            block.device_model,
            block.sigma
        );
    }
}

/// A 3-sigma Table 1 trains once and runs the second-derivative pass
/// once; the other blocks say they reuse both.
#[test]
fn three_sigma_table1_trains_once() {
    let out = swim(&[
        "preset",
        "table1",
        "--quick",
        "--set",
        "sigmas=0.1,0.15,0.2",
        "--set",
        "samples=120",
        "--set",
        "epochs=1",
        "--set",
        "runs=1",
        "--set",
        "threads=1",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let count = |needle: &str| stderr.lines().filter(|l| l.contains(needle)).count();
    assert_eq!(count("[prep] trained"), 1, "{stderr}");
    assert_eq!(count("[prep] computing sensitivities"), 1, "{stderr}");
    assert_eq!(count("[prep] reusing the trained model"), 2, "{stderr}");
    assert_eq!(count("[prep] reusing sensitivities"), 3, "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for sigma in ["0.1", "0.15", "0.2"] {
        assert!(stdout.contains(&format!("Table 1 block, sigma = {sigma}")), "{stdout}");
    }
}

/// The one grid loop prints a kind's header once, one block line per
/// grid block in grid order, then the kind's trailer once.
#[test]
fn two_sigma_table1_prints_header_blocks_and_trailer_in_order() {
    let out = swim(&[
        "preset",
        "table1",
        "--quick",
        "--set",
        "sigmas=0.15,0.1",
        "--set",
        "samples=120",
        "--set",
        "epochs=1",
        "--set",
        "runs=1",
        "--set",
        "threads=1",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    let at = |prefix: &str| -> Vec<usize> {
        lines.iter().enumerate().filter(|(_, l)| l.starts_with(prefix)).map(|(i, _)| i).collect()
    };
    let header = at("SWIM reproduction — Table 1: ");
    let runs = at("(runs = 1; the paper used 3000.");
    let blocks = at("sigma = ");
    let trailer = at("paper shape: ");
    assert_eq!((header.len(), runs.len(), trailer.len()), (1, 1, 1), "{stdout}");
    assert_eq!(blocks.len(), 2, "{stdout}");
    assert!(lines[blocks[0]].starts_with("sigma = 0.15: float accuracy"), "{stdout}");
    assert!(lines[blocks[1]].starts_with("sigma = 0.1: float accuracy"), "{stdout}");
    assert!(header[0] < runs[0] && runs[0] < blocks[0], "{stdout}");
    assert!(blocks[1] < trailer[0] && trailer[0] == lines.len() - 2, "{stdout}");
}

/// Runs `swim` with one environment variable set.
fn swim_with_env(var: &str, value: &str, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_swim"))
        .args(args)
        .env(var, value)
        .output()
        .expect("swim binary runs")
}

/// Asserts a usage error: exit 2, an `error:` line naming `needle`, and
/// no panic backtrace.
fn assert_usage_error(out: &std::process::Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("error:") && stderr.contains(needle), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn malformed_swim_simd_exits_two_without_panicking() {
    assert_usage_error(&swim_with_env("SWIM_SIMD", "bogus", &["list"]), "SWIM_SIMD=bogus");
}

#[test]
fn malformed_swim_tune_block_exits_two_without_panicking() {
    let out = swim_with_env("SWIM_TUNE_BLOCK", "abc", &["preset", "table1", "--quick"]);
    assert_usage_error(&out, "SWIM_TUNE_BLOCK");
}

#[test]
fn malformed_swim_tune_min_flops_exits_two_without_panicking() {
    let dir = tempdir("swim-bad-min-flops");
    let spec = dir.join("spec.toml");
    std::fs::write(&spec, TWO_BLOCK_SPEC).unwrap();
    let out = swim_with_env("SWIM_TUNE_MIN_FLOPS", "-1", &["run", spec.to_str().unwrap()]);
    assert_usage_error(&out, "SWIM_TUNE_MIN_FLOPS");
}

/// There is no autotuner to switch on: `--set tune=on` (and the former
/// `--tune on` flag, now a spec override like any other) is refused,
/// and the message points at the pins that remain.
#[test]
fn tune_on_is_refused_with_a_pointer_to_the_pins() {
    for flag in [["--set", "tune=on"], ["--tune", "on"]] {
        let out = swim(&["preset", "table1", "--quick", flag[0], flag[1]]);
        assert_usage_error(&out, "tune.gemm_block");
        assert!(String::from_utf8_lossy(&out.stderr).contains("tune.gemm_min_flops"));
    }
}

/// The pin precedence through the binary: the spec's `[tune]` pin beats
/// the environment, and a key the spec leaves unset falls through to it.
#[test]
fn spec_tune_pins_beat_the_cli_layer() {
    let dir = tempdir("swim-tune-precedence");
    let spec = dir.join("spec.toml");
    std::fs::write(&spec, TWO_BLOCK_SPEC).unwrap();
    let out_path = dir.join("out.json");
    let out = Command::new(env!("CARGO_BIN_EXE_swim"))
        .args(["run", spec.to_str().unwrap(), "--set", "tune.gemm_block=96"])
        .args(["--out", out_path.to_str().unwrap()])
        .env("SWIM_TUNE_BLOCK", "64")
        .env("SWIM_TUNE_MIN_FLOPS", "5")
        .output()
        .expect("swim binary runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = load_normalized(&out_path);
    assert_eq!(doc.tuning.gemm_block_cols, 96, "the spec pin beats SWIM_TUNE_BLOCK");
    assert_eq!(doc.tuning.gemm_min_flops, 5, "an unset spec key falls through to the env");
    assert_eq!(doc.tuning.mode, "off");
    assert!(doc.tuning.choices.is_empty());
}

/// The removed `--gemm-block` / `--gemm-min-flops` aliases are refused
/// with one `error:` line, never silently ignored.
#[test]
fn removed_gemm_alias_flags_exit_two() {
    for flag in ["--gemm-block", "--gemm-min-flops"] {
        for args in [&["preset", "table1", "--quick", flag, "96"][..], &["serve", flag, "96"]] {
            let out = swim(args);
            assert_usage_error(&out, &flag[2..]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            let errors = stderr.lines().filter(|l| l.starts_with("error:")).count();
            assert_eq!(errors, 1, "{args:?}: {stderr}");
        }
    }
}
