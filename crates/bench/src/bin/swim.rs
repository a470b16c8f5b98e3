//! The unified experiment CLI: one binary, declarative specs,
//! structured results, and the analysis loop over them.
//!
//! ```text
//! swim run <spec.toml|spec.json|results.json> [--set key=value]... [flags]
//! swim preset <name> [--set key=value]... [flags]
//! swim merge <shard.json>... --out merged.json
//! swim diff <a.json> <b.json> [--abs-tol X] [--rel-tol X] [--ignore-spec] [--ignore-tuning]
//! swim report <run.json> [--baseline b.json] [-o report.md]
//! swim plot <run.json> [-o plots.txt]
//! swim summarize <dir-or-file>... [--anchors 0,0.1,1] [-o summary.md]
//! swim serve [--addr 127.0.0.1:7878] [--workers N] [--queue-cap N]
//! swim list
//! swim help
//! ```
//!
//! `swim run` executes a spec file (TOML subset or JSON; see
//! `examples/specs/`) — or a results document, whose embedded spec echo
//! is extracted and re-run; `swim preset` resolves a named paper
//! artifact (`table1`, `fig2a`, …) to its spec and runs it. Both accept
//! `--set key=value` overrides, shorthand flags (`--runs 25 --quick
//! --csv`), and `--out FILE` to write the JSON results document.
//!
//! Long experiments survive crashes and spread across machines:
//! `--shard i/n` runs a deterministic seed-range slice (merge the slices
//! back with `swim merge` — the result is bit-identical to the
//! unsharded run), and `--checkpoint j.json` journals every completed
//! block so `--resume j.json` re-enters at the first incomplete one.
//!
//! `swim diff` compares two results documents method-by-method and
//! point-by-point (exit 1 on drift), `swim report` renders one document
//! as a self-contained Markdown report, `swim plot` draws just the
//! per-block ASCII curves, and `swim summarize` flattens many documents
//! into one cross-run table. See `docs/workflow.md` for the full loop.
//!
//! `swim serve` runs the experiment service: an HTTP endpoint that
//! accepts spec submissions, schedules their (model, sigma) blocks on a
//! shared worker pool, caches trained models across jobs, and serves
//! the same results documents `swim run` writes. See `docs/serve.md`.

use swim_bench::cli::Args;
use swim_bench::experiment::{apply_flag_overrides, options_from_args, run_spec};
use swim_bench::merge::merge_docs;
use swim_exp::spec::ExperimentSpec;
use swim_exp::{preset, preset_infos};
use swim_report::diff::{diff_docs, DiffOptions};
use swim_report::markdown::{render_report, sweep_plot, table_markdown};
use swim_report::schema::ResultsDoc;
use swim_report::summary::{load_runs, summarize_with, DEFAULT_ANCHORS};

fn usage() {
    println!("usage: swim <command> [args]");
    println!();
    println!("commands:");
    println!("  run <spec.toml|spec.json>  run a declarative experiment spec (also accepts a");
    println!("                             results document: its spec echo is re-run)");
    println!("  preset <name>              run a named paper-artifact preset");
    println!("  merge <shard.json>...      merge a complete set of shard documents into the");
    println!("                             document the unsharded run would have produced");
    println!("  diff <a.json> <b.json>     compare two results documents point-by-point;");
    println!("                             exit 1 on drift");
    println!("  report <run.json>          render a results document as a Markdown report");
    println!("  plot <run.json>            draw each block's accuracy-vs-NWC curves as an");
    println!("                             ASCII plot (the report's figures, stand-alone)");
    println!("  summarize <dir|file>...    aggregate many results documents into one table");
    println!("  serve                      run the HTTP experiment service (job queue,");
    println!("                             shared worker pool, prepared-model cache)");
    println!("  list                       list presets, selectors, and device models");
    println!("  help                       this message");
    println!();
    println!("run/preset flags:");
    println!("  --set key=value   override any spec field (dotted path or shorthand,");
    println!("                    e.g. --set runs=25 --set device.sigmas=0.1,0.2)");
    println!("  --out FILE        write the JSON results document to FILE");
    println!("  --csv             also print CSV blocks");
    println!("  --quick           preset smoke-test shape (presets only)");
    println!("  --runs N / --samples N / --epochs N / --seed N / --threads N");
    println!("                    shorthand spec overrides (same as --set)");
    println!("  --gemm-threads N  threads inside each matrix product (never in the spec;");
    println!("                    block width and threshold: the spec's [tune] section or");
    println!("                    SWIM_TUNE_BLOCK / SWIM_TUNE_MIN_FLOPS)");
    println!("  --simd BACKEND    pin the SIMD kernel backend (scalar, avx2, avx512, neon;");
    println!("                    shorthand for --set simd=BACKEND — recorded in the spec");
    println!("                    echo; `swim list` shows this host's backends)");
    println!("  --shard I/N       run seed-range shard I of an N-way split (shorthand for");
    println!("                    --set shard=I/N); reassemble with `swim merge`");
    println!("  --checkpoint FILE journal every completed (model, sigma) block to FILE");
    println!("  --resume FILE     resume from a checkpoint journal (validates it against");
    println!("                    the spec, re-enters at the first incomplete block)");
    println!();
    println!("merge flags:");
    println!("  --out FILE        write the merged document to FILE (required)");
    println!();
    println!("diff flags:");
    println!("  --abs-tol X       absolute tolerance per numeric value (default 1e-9)");
    println!("  --rel-tol X       relative tolerance (default 0)");
    println!("  --ignore-spec     compare curves across different experiments");
    println!("  --ignore-tuning   suppress the structural kernel-tuning entry (tuning");
    println!("                    never changes result bytes, only timing)");
    println!();
    println!("report/plot/summarize flags:");
    println!("  --baseline FILE   annotate per-point deltas against FILE (report only)");
    println!("  --anchors LIST    summarize at these fractions, e.g. 0,0.05,0.3,1");
    println!("                    (summarize only; default 0,0.1,1)");
    println!("  -o / --out FILE   write the output to FILE instead of stdout");
    println!();
    println!("serve flags:");
    println!("  --addr HOST:PORT  listen address (default 127.0.0.1:7878)");
    println!("  --workers N       pool workers (default 0 = one per CPU core)");
    println!("  --queue-cap N     pending-job cap before 429 (default 16)");
    println!("  --gemm-threads N  process-default GEMM threads (each job's own [tune]");
    println!("                    and [run] simd apply on top, for that job only)");
    println!();
    println!("The results document echoes the spec it ran; `swim run` accepts that");
    println!("echo back, so every result is reproducible from its own output.");
    println!(
        "Docs: docs/workflow.md, docs/spec-reference.md, docs/results-schema.md, \
         docs/device-models.md."
    );
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// Splits `--set k=v` pairs (which may repeat) from the raw argument
/// stream before the single-valued flag parser sees it.
fn extract_sets(raw: Vec<String>) -> (Vec<String>, Vec<String>) {
    let mut sets = Vec::new();
    let mut rest = Vec::new();
    let mut iter = raw.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--set" {
            match iter.next() {
                Some(pair) => sets.push(pair),
                None => fail("--set expects key=value"),
            }
        } else if let Some(pair) = arg.strip_prefix("--set=") {
            sets.push(pair.to_string());
        } else {
            rest.push(arg);
        }
    }
    (sets, rest)
}

/// Splits leading positionals from flags for the analysis subcommands.
///
/// `-o` is accepted as shorthand for `--out`. `bool_flags` and
/// `value_flags` together name every flag the subcommand understands —
/// anything else is rejected (a typo like `--ignore-sepc` must not
/// silently change what gets compared), and a value flag must be
/// followed by an actual value, not another flag.
fn split_positionals(
    raw: Vec<String>,
    bool_flags: &[&str],
    value_flags: &[&str],
) -> (Vec<String>, Vec<String>) {
    let mut positionals = Vec::new();
    let mut rest = Vec::new();
    let mut iter = raw.into_iter();
    while let Some(arg) = iter.next() {
        let arg = if arg == "-o" { "--out".to_string() } else { arg };
        if let Some(name) = arg.strip_prefix("--") {
            let bare = name.split_once('=').map(|(k, _)| k).unwrap_or(name);
            if !bool_flags.contains(&bare) && !value_flags.contains(&bare) {
                fail(&format!("unknown flag --{bare} (pass `swim help` for the reference)"));
            }
            rest.push(arg.clone());
            if !name.contains('=') && value_flags.contains(&bare) {
                match iter.next() {
                    Some(value) if !value.starts_with("--") => rest.push(value),
                    _ => fail(&format!("--{bare} expects a value")),
                }
            }
        } else {
            positionals.push(arg);
        }
    }
    (positionals, rest)
}

fn list() {
    println!("presets (swim preset <name>):");
    for info in preset_infos() {
        println!("  {:<12} {}", info.name, info.summary);
    }
    println!();
    println!("selectors (for [selection] methods / --set methods=...):");
    for selector in swim_core::select::registry() {
        println!("  {:<18} {:<22} {}", selector.key(), selector.name(), selector.describe());
    }
    println!();
    println!("device models (for [device] model / --set device-model=...):");
    for model in swim_cim::device_model_registry() {
        println!("  {:<18} {:<22} {}", model.key(), model.name(), model.describe());
    }
    println!();
    println!("SIMD backends (for [run] simd / --simd / SWIM_SIMD; see docs/simd.md):");
    use swim_tensor::simd;
    for backend in simd::Backend::ALL {
        let mut notes = Vec::new();
        if backend == simd::detected_backend() {
            notes.push("detected");
        }
        if backend == simd::backend() {
            notes.push("active");
        }
        let status = if backend.is_supported() {
            if notes.is_empty() {
                "available".to_string()
            } else {
                notes.join(", ")
            }
        } else {
            "unsupported on this host".to_string()
        };
        println!("  {:<18} {}", backend.name(), status);
    }
    println!();
    println!("kernel pins (for [tune] / SWIM_TUNE_BLOCK / SWIM_TUNE_MIN_FLOPS; 0 = built-in):");
    let t = swim_tensor::tune::current();
    println!("  gemm_block: {}", t.gemm_block_cols);
    println!("  gemm_min_flops: {}", t.gemm_min_flops);
    println!();
    println!("spec kinds: sweep, table1, fig2, fig1, calibration, ablation");
}

fn run_with(mut spec: ExperimentSpec, sets: &[String], args: &Args) -> ! {
    if args.has("help") {
        usage();
        std::process::exit(0);
    }
    for pair in sets {
        if let Err(e) = spec.apply_set(pair) {
            fail(&format!("--set {pair}: {e}"));
        }
    }
    if let Err(e) = apply_flag_overrides(&mut spec, args) {
        fail(&e);
    }
    let opts = match options_from_args(&spec, args) {
        Ok(opts) => opts,
        Err(e) => fail(&e),
    };
    match run_spec(&spec, &opts) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn load_doc(path: &str) -> ResultsDoc {
    match ResultsDoc::load(std::path::Path::new(path)) {
        Ok(doc) => doc,
        Err(e) => fail(&e.to_string()),
    }
}

/// `swim diff a.json b.json` — exit 0 on agreement, 1 on drift.
fn cmd_diff(raw: Vec<String>) -> ! {
    let (positionals, rest) =
        split_positionals(raw, &["ignore-spec", "ignore-tuning"], &["abs-tol", "rel-tol"]);
    let args = match Args::try_parse_from(rest.into_iter()) {
        Ok(args) => args,
        Err(e) => fail(&e),
    };
    if positionals.len() != 2 {
        fail("`swim diff` expects exactly two results-document paths");
    }
    let tol = |name: &str, default: f64| match args.get_f64(name, default) {
        Ok(v) => v,
        Err(e) => fail(&e),
    };
    let opts = DiffOptions {
        abs_tol: tol("abs-tol", DiffOptions::default().abs_tol),
        rel_tol: tol("rel-tol", DiffOptions::default().rel_tol),
        ignore_spec: args.has("ignore-spec"),
        ignore_tuning: args.has("ignore-tuning"),
    };
    let a = load_doc(&positionals[0]);
    let b = load_doc(&positionals[1]);
    let report = diff_docs(&a, &b, &opts);
    print!(
        "comparing {} ({}) vs {} ({})\n{}",
        positionals[0],
        a.name(),
        positionals[1],
        b.name(),
        report.render()
    );
    std::process::exit(if report.clean() { 0 } else { 1 });
}

/// Writes `text` to `--out` when given (atomically — a crash or full
/// disk never leaves a truncated artifact), else prints it.
fn emit(args: &Args, text: &str) {
    match args.get("out") {
        Some(path) => {
            if let Err(e) =
                swim_report::io::write_atomic(std::path::Path::new(path), text.as_bytes())
            {
                fail(&e);
            }
            eprintln!("[swim] wrote {path}");
        }
        None => print!("{text}"),
    }
}

/// `swim merge <shard.json>... --out merged.json` — reassemble the
/// unsharded results document from a complete set of shard documents.
fn cmd_merge(raw: Vec<String>) -> ! {
    let (positionals, rest) = split_positionals(raw, &[], &["out"]);
    let args = match Args::try_parse_from(rest.into_iter()) {
        Ok(args) => args,
        Err(e) => fail(&e),
    };
    if positionals.is_empty() {
        fail("`swim merge` expects one or more shard-document paths");
    }
    let shards: Vec<(String, ResultsDoc)> =
        positionals.iter().map(|p| (p.clone(), load_doc(p))).collect();
    let doc = match merge_docs(&shards) {
        Ok(doc) => doc,
        Err(e) => fail(&e),
    };
    match args.get("out") {
        Some(path) => {
            if let Err(e) =
                swim_report::io::write_atomic(std::path::Path::new(path), doc.to_json().as_bytes())
            {
                fail(&e);
            }
            eprintln!(
                "[swim] merged {} shard(s) into {path} ({} block(s))",
                shards.len(),
                doc.sweeps.len()
            );
        }
        None => print!("{}", doc.to_json()),
    }
    std::process::exit(0);
}

/// `swim report run.json [--baseline b.json] [-o report.md]`.
fn cmd_report(raw: Vec<String>) -> ! {
    let (positionals, rest) = split_positionals(raw, &[], &["baseline", "out"]);
    let args = match Args::try_parse_from(rest.into_iter()) {
        Ok(args) => args,
        Err(e) => fail(&e),
    };
    if positionals.len() != 1 {
        fail("`swim report` expects exactly one results-document path");
    }
    let doc = load_doc(&positionals[0]);
    let baseline = args.get("baseline").map(load_doc);
    let markdown = render_report(&doc, baseline.as_ref());
    emit(&args, &markdown);
    std::process::exit(0);
}

/// `swim plot run.json [-o plots.txt]` — each block's accuracy-vs-NWC
/// curves as a terminal ASCII plot, without the rest of the report.
fn cmd_plot(raw: Vec<String>) -> ! {
    let (positionals, rest) = split_positionals(raw, &[], &["out"]);
    let args = match Args::try_parse_from(rest.into_iter()) {
        Ok(args) => args,
        Err(e) => fail(&e),
    };
    if positionals.len() != 1 {
        fail("`swim plot` expects exactly one results-document path");
    }
    let doc = load_doc(&positionals[0]);
    if doc.sweeps.is_empty() {
        fail(&format!(
            "{} has no (model, sigma) blocks to plot (kind `{}`)",
            positionals[0],
            doc.spec.kind.key()
        ));
    }
    let mut text = String::new();
    for sweep in &doc.sweeps {
        text.push_str(&format!(
            "{} — {} @ sigma {}  (float {:.2}% / quantized {:.2}%)\n",
            doc.name(),
            sweep.device_model,
            sweep.sigma,
            sweep.float_accuracy,
            sweep.quant_accuracy
        ));
        text.push_str("accuracy (%) vs normalized write count\n");
        text.push_str(&sweep_plot(sweep));
        text.push('\n');
    }
    emit(&args, &text);
    std::process::exit(0);
}

/// Parses a comma-separated `--anchors` fraction list (e.g.
/// `0,0.05,0.3,1`). Every anchor must be a fraction in [0, 1].
fn parse_anchors(text: &str) -> Vec<f64> {
    let anchors: Vec<f64> = text
        .split(',')
        .map(|part| {
            let part = part.trim();
            match part.parse::<f64>() {
                Ok(a) if (0.0..=1.0).contains(&a) => a,
                Ok(a) => fail(&format!("--anchors: {a} is not a fraction in [0, 1]")),
                Err(_) => fail(&format!("--anchors: `{part}` is not a number")),
            }
        })
        .collect();
    if anchors.is_empty() {
        fail("--anchors expects at least one fraction");
    }
    anchors
}

/// `swim summarize <dir-or-file>... [--anchors 0,0.1,1] [-o summary.md]`.
fn cmd_summarize(raw: Vec<String>) -> ! {
    let (positionals, rest) = split_positionals(raw, &[], &["out", "anchors"]);
    let args = match Args::try_parse_from(rest.into_iter()) {
        Ok(args) => args,
        Err(e) => fail(&e),
    };
    let anchors = match args.get("anchors") {
        Some(text) => parse_anchors(text),
        None => DEFAULT_ANCHORS.to_vec(),
    };
    if positionals.is_empty() {
        fail("`swim summarize` expects one or more results-document files or directories");
    }
    let paths: Vec<std::path::PathBuf> = positionals.iter().map(std::path::PathBuf::from).collect();
    let (runs, warnings) = match load_runs(&paths) {
        Ok(out) => out,
        Err(e) => fail(&e),
    };
    for warning in &warnings {
        eprintln!("[swim] {warning}");
    }
    if runs.is_empty() {
        fail("no results documents found");
    }
    let table = summarize_with(&runs, &anchors);
    if args.get("out").is_some() {
        let mut md = format!("# {}\n\n", table.title());
        md.push_str(&table_markdown(&table));
        emit(&args, &md);
    } else {
        print!("{}", table.render());
    }
    std::process::exit(0);
}

/// Reads a spec file; a JSON results document is accepted too — its
/// embedded spec echo is extracted, closing the run → re-run loop.
fn read_spec(path: &str) -> ExperimentSpec {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => fail(&format!("reading {path}: {e}")),
    };
    if text.trim_start().starts_with('{') {
        // Parse the JSON once and dispatch on the version marker.
        let root = match swim_exp::value::parse_json(&text) {
            Ok(root) => root,
            Err(e) => fail(&format!("{path}: {e}")),
        };
        if root.get("swim_results_version").is_some() {
            match ResultsDoc::from_value(&root) {
                Ok(doc) => {
                    eprintln!("[swim] {path} is a results document; re-running its spec echo");
                    return doc.spec;
                }
                Err(e) => fail(&format!("{path}: {e}")),
            }
        }
        match ExperimentSpec::from_value(&root) {
            Ok(spec) => spec,
            Err(e) => fail(&format!("{path}: {e}")),
        }
    } else {
        match ExperimentSpec::parse_str(&text) {
            Ok(spec) => spec,
            Err(e) => fail(&format!("{path}: {e}")),
        }
    }
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage();
        std::process::exit(2);
    }
    let command = raw.remove(0);
    // A malformed SWIM_SIMD / SWIM_TUNE_* value is a usage error, not a
    // panic at the first kernel call.
    if !matches!(command.as_str(), "help" | "--help" | "-h") {
        if let Err(e) = swim_tensor::tune::init_from_env() {
            fail(&e);
        }
    }
    match command.as_str() {
        "help" | "--help" | "-h" => usage(),
        "list" => {
            let (sets, rest) = extract_sets(raw);
            if !sets.is_empty() || !rest.is_empty() {
                fail("`swim list` takes no arguments");
            }
            list();
        }
        "run" => {
            if raw.is_empty() || raw[0].starts_with("--") {
                fail("`swim run` expects a spec file path");
            }
            let path = raw.remove(0);
            let (sets, rest) = extract_sets(raw);
            let args = match Args::try_parse_from(rest.into_iter()) {
                Ok(args) => args,
                Err(e) => fail(&e),
            };
            if args.has("quick") {
                fail("--quick is a preset shape; edit the spec or use --set instead");
            }
            let spec = read_spec(&path);
            run_with(spec, &sets, &args);
        }
        "preset" => {
            if raw.is_empty() || raw[0].starts_with("--") {
                fail("`swim preset` expects a preset name (see `swim list`)");
            }
            let name = raw.remove(0);
            let (sets, rest) = extract_sets(raw);
            let args = match Args::try_parse_from(rest.into_iter()) {
                Ok(args) => args,
                Err(e) => fail(&e),
            };
            let Some(spec) = preset(&name, args.has("quick")) else {
                fail(&format!("unknown preset `{name}` (see `swim list`)"));
            };
            run_with(spec, &sets, &args);
        }
        "merge" => cmd_merge(raw),
        "diff" => cmd_diff(raw),
        "report" => cmd_report(raw),
        "plot" => cmd_plot(raw),
        "summarize" => cmd_summarize(raw),
        "serve" => {
            let (positionals, rest) =
                split_positionals(raw, &[], &["addr", "workers", "queue-cap", "gemm-threads"]);
            if !positionals.is_empty() {
                fail("`swim serve` takes flags only (see `swim help`)");
            }
            let args = match Args::try_parse_from(rest.into_iter()) {
                Ok(args) => args,
                Err(e) => fail(&e),
            };
            if let Err(e) = swim_bench::service::serve_main(&args) {
                fail(&e);
            }
        }
        other => {
            usage();
            fail(&format!("unknown command `{other}`"));
        }
    }
}
