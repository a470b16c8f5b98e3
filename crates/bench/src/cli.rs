//! Minimal `--flag value` / `--flag=value` argument parsing for the
//! experiment binaries.
//!
//! Hand-rolled (a few dozen lines) rather than pulling in an
//! argument-parsing dependency; every binary shares the same small flag
//! set. Stray positional arguments are an error — `swim`-style
//! subcommands consume their positionals *before* handing the rest to
//! [`Args::try_parse_from`].

use std::collections::BTreeMap;

/// Parsed command-line flags.
///
/// # Example
///
/// ```
/// use swim_bench::cli::Args;
///
/// let args = Args::try_parse_from(
///     ["--runs", "500", "--seed=7", "--quick"].iter().map(|s| s.to_string()),
/// ).unwrap();
/// assert_eq!(args.get_usize("runs", 100), Ok(500));
/// assert_eq!(args.get_u64("seed", 0), Ok(7)); // --flag=value form
/// assert!(args.has("quick"));
/// assert_eq!(args.get_f64("sigma", 0.1), Ok(0.1));
///
/// // Stray positional arguments are rejected, not silently ignored.
/// let err = Args::try_parse_from(["oops"].iter().map(|s| s.to_string()));
/// assert!(err.unwrap_err().contains("stray argument"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process arguments (skipping the binary name), exiting
    /// with status 2 on malformed input.
    pub fn parse() -> Self {
        match Self::try_parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("(pass --help for the flag reference)");
                std::process::exit(2);
            }
        }
    }

    /// Parses from an explicit iterator (testable entry point).
    ///
    /// Accepts both `--name value` and `--name=value`; a `--name` with
    /// no value is a boolean flag. Positional arguments are an error.
    pub fn try_parse_from(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut pending: Option<String> = None;
        for arg in args {
            if let Some(name) = arg.strip_prefix("--") {
                if let Some(flag) = pending.take() {
                    out.flags.push(flag);
                }
                if let Some((key, value)) = name.split_once('=') {
                    if key.is_empty() {
                        return Err(format!("malformed flag `{arg}`"));
                    }
                    out.values.insert(key.to_string(), value.to_string());
                } else {
                    pending = Some(name.to_string());
                }
            } else if let Some(name) = pending.take() {
                out.values.insert(name, arg);
            } else {
                return Err(format!(
                    "stray argument `{arg}` (flags look like `--name value` or `--name=value`)"
                ));
            }
        }
        if let Some(flag) = pending {
            out.flags.push(flag);
        }
        Ok(out)
    }

    /// Whether a bare `--name` flag was present.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The raw value of `--name value`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(|s| s.as_str())
    }

    /// Every `--name value` pair, in sorted order.
    pub fn values(&self) -> impl Iterator<Item = (&str, &str)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Every bare boolean flag, in the order given.
    pub fn flags(&self) -> impl Iterator<Item = &str> {
        self.flags.iter().map(|f| f.as_str())
    }

    /// `--name value` as `usize`, with default. Malformed values are an
    /// error (the binaries report it and exit 2), not a panic.
    pub fn get_usize(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.values.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name} expects an integer, got `{v}`")),
            None => Ok(default),
        }
    }

    /// `--name value` as `u64`, with default.
    pub fn get_u64(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.values.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name} expects an integer, got `{v}`")),
            None => Ok(default),
        }
    }

    /// `--name value` as `f64`, with default.
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, String> {
        match self.values.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name} expects a number, got `{v}`")),
            None => Ok(default),
        }
    }

    /// `--name value` as `f32`, with default.
    pub fn get_f32(&self, name: &str, default: f32) -> Result<f32, String> {
        self.get_f64(name, default as f64).map(|v| v as f32)
    }
}

/// The standard flag reference shared by the experiment binaries.
///
/// The printed `--gemm-min-flops` default is the *resolved* threshold
/// ([`swim_tensor::linalg::PARALLEL_MIN_FLOPS`]), the same value
/// [`tuning_from_flags`] resolves when nothing pins the knob.
pub fn common_help_text(binary: &str, extra: &[(&str, &str)]) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!("usage: cargo run --release -p swim-bench --bin {binary} [flags]"));
    line("  --runs N      Monte Carlo runs (default varies; paper used 3000)".into());
    line("  --threads N   Monte Carlo worker threads (default: all cores)".into());
    line("  --gemm-threads N  threads inside each matrix product (default: 1 when".into());
    line("                the Monte Carlo level is already parallel, else all cores)".into());
    line("  --gemm-block N    [deprecated: use [tune] / SWIM_TUNE_BLOCK] GEMM".into());
    line("                cache-block width in columns (default: auto)".into());
    line("  --gemm-min-flops N  [deprecated: use [tune] / SWIM_TUNE_MIN_FLOPS]".into());
    line("                multiply count above which a product goes".into());
    line(format!(
        "                multithreaded (default {} = 2^22; 1 = always)",
        swim_tensor::linalg::PARALLEL_MIN_FLOPS
    ));
    line("  --samples N   dataset size (train+test)".into());
    line("  --seed N      base RNG seed".into());
    line("  --csv         also print CSV blocks".into());
    line("  --out FILE    write a JSON results document".into());
    line("  --quick       tiny smoke-test configuration".into());
    for (flag, desc) in extra {
        line(format!("  {flag:<13} {desc}"));
    }
    out
}

/// Prints the standard flag reference shared by the experiment binaries.
pub fn print_common_help(binary: &str, extra: &[(&str, &str)]) {
    print!("{}", common_help_text(binary, extra));
}

/// Resolves the kernel pins from the environment and the command line —
/// the env and CLI layers of the precedence chain (spec `[tune]` > CLI
/// flags > environment > built-in default; the spec layer is overlaid
/// by the experiment engine, which runs inside the result).
///
/// The two parallelism levels compete for the same cores: when the
/// Monte Carlo harness already fans `mc_threads` workers out, nested
/// GEMM threading oversubscribes, so the default keeps each product
/// serial in that case and lets GEMM use every core otherwise
/// (single-run phases like training and sensitivity analysis). Every
/// knob here is a pure performance setting — results are bit-identical
/// for every value.
///
/// `--gemm-block` and `--gemm-min-flops` are deprecated aliases for
/// the corresponding [`swim_tensor::tune::KernelTuning`] pins and warn on stderr (still
/// honored — scripts keep working).
pub fn tuning_from_flags(
    args: &Args,
    mc_threads: usize,
) -> Result<swim_tensor::tune::KernelTuning, String> {
    let mut t = swim_tensor::tune::KernelTuning::from_env()?;
    t.gemm_threads = args.get_usize("gemm-threads", if mc_threads > 1 { 1 } else { 0 })?;
    if args.get("gemm-block").is_some() {
        eprintln!(
            "[swim] --gemm-block is deprecated (still honored); use `--set tune.gemm_block=N`, \
             the spec's [tune] section, or SWIM_TUNE_BLOCK"
        );
        t.gemm_block_cols = args.get_usize("gemm-block", 0)?;
    }
    if args.get("gemm-min-flops").is_some() {
        eprintln!(
            "[swim] --gemm-min-flops is deprecated (still honored); use \
             `--set tune.gemm_min_flops=N`, the spec's [tune] section, or SWIM_TUNE_MIN_FLOPS"
        );
        t.gemm_min_flops = args.get_usize("gemm-min-flops", 0)?;
    }
    Ok(t)
}

/// Resolves the env/CLI tuning layers and installs them as the process
/// default, returning the resolved `(gemm_threads, gemm_block)` pair —
/// the entry point of `swim serve`, whose jobs overlay their own
/// `[tune]` sections per job.
pub fn apply_gemm_flags(args: &Args, mc_threads: usize) -> Result<(usize, usize), String> {
    let t = tuning_from_flags(args, mc_threads)?;
    swim_tensor::tune::install(&t);
    Ok((t.gemm_threads, t.gemm_block_cols))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Args {
        Args::try_parse_from(list.iter().map(|s| s.to_string())).expect("valid flags")
    }

    #[test]
    fn values_and_flags() {
        let a = parse(&["--runs", "30", "--csv", "--sigma", "0.15"]);
        assert_eq!(a.get_usize("runs", 1), Ok(30));
        assert!(a.has("csv"));
        assert!(!a.has("quick"));
        assert!((a.get_f64("sigma", 0.0).unwrap() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn equals_syntax() {
        let a = parse(&["--runs=30", "--out=results.json", "--quick"]);
        assert_eq!(a.get_usize("runs", 1), Ok(30));
        assert_eq!(a.get("out"), Some("results.json"));
        assert!(a.has("quick"));
        // An explicit empty value is a value, not a flag.
        let a = parse(&["--label="]);
        assert_eq!(a.get("label"), Some(""));
        assert!(!a.has("label"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.get_usize("runs", 7), Ok(7));
        assert_eq!(a.get_f32("width", 0.25), Ok(0.25));
    }

    #[test]
    fn trailing_flag() {
        let a = parse(&["--quick"]);
        assert!(a.has("quick"));
    }

    #[test]
    fn stray_positionals_error() {
        let e = Args::try_parse_from(["table1".to_string()].into_iter()).unwrap_err();
        assert!(e.contains("stray argument `table1`"), "{e}");
        // A positional after a consumed value is also caught.
        let e = Args::try_parse_from(["--runs", "3", "oops"].iter().map(|s| s.to_string()))
            .unwrap_err();
        assert!(e.contains("stray argument `oops`"), "{e}");
        // `--=x` is malformed.
        let e = Args::try_parse_from(["--=x".to_string()].into_iter()).unwrap_err();
        assert!(e.contains("malformed"), "{e}");
    }

    #[test]
    fn bad_values_error_instead_of_panicking() {
        let e = parse(&["--runs", "abc"]).get_usize("runs", 1).unwrap_err();
        assert!(e.contains("--runs expects an integer"), "{e}");
        let e = parse(&["--abs-tol", "wide"]).get_f64("abs-tol", 0.0).unwrap_err();
        assert!(e.contains("--abs-tol expects a number"), "{e}");
    }

    #[test]
    fn help_advertises_resolved_gemm_min_flops_default() {
        let help = common_help_text("table1", &[]);
        let expect = format!("default {} = 2^22", swim_tensor::linalg::PARALLEL_MIN_FLOPS);
        assert!(help.contains(&expect), "help says: {help}");
    }

    #[test]
    fn tuning_flags_resolve_into_kernel_tuning() {
        let args = parse(&["--gemm-block", "128", "--gemm-threads", "3"]);
        let t = tuning_from_flags(&args, 1).unwrap();
        assert_eq!(t.gemm_block_cols, 128, "deprecated alias still honored");
        assert_eq!(t.gemm_threads, 3);
        // Defaults: serial GEMM under a parallel Monte Carlo level,
        // every core otherwise.
        assert_eq!(tuning_from_flags(&parse(&[]), 8).unwrap().gemm_threads, 1);
        assert_eq!(tuning_from_flags(&parse(&[]), 1).unwrap().gemm_threads, 0);
        // A malformed pin errors instead of silently falling back.
        let e = tuning_from_flags(&parse(&["--gemm-threads", "many"]), 1).unwrap_err();
        assert!(e.contains("--gemm-threads"), "{e}");
    }

    #[test]
    fn gemm_flag_default_matches_advertised_value() {
        use swim_tensor::tune::{gemm_min_flops, with_tuning};
        // With no flag given, the resolved threshold must equal the
        // value the help text advertises.
        let t = tuning_from_flags(&parse(&[]), 1).unwrap();
        assert_eq!(with_tuning(&t, gemm_min_flops), swim_tensor::linalg::PARALLEL_MIN_FLOPS);
        // And an explicit override sticks.
        let t = tuning_from_flags(&parse(&["--gemm-min-flops", "1"]), 1).unwrap();
        assert_eq!(t.gemm_min_flops, 1);
        assert_eq!(with_tuning(&t, gemm_min_flops), 1);
    }
}
