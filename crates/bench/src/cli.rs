//! Minimal `--flag value` / `--flag=value` argument parsing for the
//! `swim` CLI.
//!
//! Hand-rolled (a few dozen lines) rather than pulling in an
//! argument-parsing dependency; every subcommand shares the same small
//! flag set. Stray positional arguments are an error — `swim`-style
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
    /// Parses the flags in `args`.
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
    /// error (`swim` reports it and exits 2), not a panic.
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
/// for every value. The block width and threading threshold have no
/// flag: pin them in the spec's `[tune]` section or the `SWIM_TUNE_*`
/// variables.
pub fn tuning_from_flags(
    args: &Args,
    mc_threads: usize,
) -> Result<swim_tensor::tune::KernelTuning, String> {
    let mut t = swim_tensor::tune::KernelTuning::from_env()?;
    t.gemm_threads = args.get_usize("gemm-threads", if mc_threads > 1 { 1 } else { 0 })?;
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
    fn tuning_flags_resolve_into_kernel_tuning() {
        let args = parse(&["--gemm-block", "128", "--gemm-threads", "3"]);
        let t = tuning_from_flags(&args, 1).unwrap();
        assert_eq!(t.gemm_threads, 3);
        // The block width and threshold come from the environment layer
        // only: the removed `--gemm-block` alias is no pin here (the spec
        // layer rejects it as an unknown key).
        let env = swim_tensor::tune::KernelTuning::from_env().unwrap();
        assert_eq!(
            (t.gemm_block_cols, t.gemm_min_flops),
            (env.gemm_block_cols, env.gemm_min_flops)
        );
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
        use swim_tensor::tune::{gemm_min_flops, with_tuning, KernelTuning};
        // With no flag given, the resolved threshold is the documented
        // default, PARALLEL_MIN_FLOPS.
        let t = tuning_from_flags(&parse(&[]), 1).unwrap();
        assert_eq!(with_tuning(&t, gemm_min_flops), swim_tensor::linalg::PARALLEL_MIN_FLOPS);
        // And an explicit pin sticks.
        let t = KernelTuning { gemm_min_flops: 1, ..t };
        assert_eq!(with_tuning(&t, gemm_min_flops), 1);
    }
}
