//! The multi-method sweep driver behind Table 1 and Fig. 2.
//!
//! Runs any set of [`Selector`]s plus the in-situ training baseline
//! over the same NWC grid with the same Monte Carlo budget, and renders
//! the paper-shaped tables. Curves are keyed by selector name — table
//! row order is the selector order given by the caller, so the paper's
//! presentation (SWIM, Magnitude, Random, In-situ) is just the default
//! selector registry order.

use crate::prep::Prepared;
use swim_core::insitu::{insitu_training, InsituConfig};
use swim_core::montecarlo::{
    aggregate_sweep_rows, fill_rows, nwc_denominator, nwc_sweep_with_denominator, PanicPolicy,
    RunFault, SweepConfig, SweepPoint,
};
use swim_core::report::{fmt_mean_std, Table};
use swim_core::select::{default_selectors, Selector};
use swim_nn::loss::SoftmaxCrossEntropy;
use swim_tensor::stats::Running;
use swim_tensor::tune::{self, KernelTuning};
use swim_tensor::Prng;

/// Statistics of the in-situ baseline at one NWC checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct InsituStats {
    /// The checkpoint's normalized write cycles.
    pub nwc: f64,
    /// Accuracy statistics over runs (percent).
    pub accuracy: Running,
}

/// One selector's accuracy-vs-NWC curve.
#[derive(Debug, Clone)]
pub struct MethodCurve {
    /// Selector display name (table row label and results-document key).
    pub name: String,
    /// The swept points, one per NWC-grid fraction.
    pub points: Vec<SweepPoint>,
    /// Row-major `runs × fractions` matrix of `(accuracy %, nwc)` pairs
    /// the points were aggregated from — what a shard document records
    /// so `swim merge` can rebuild the unsharded statistics bit-exactly.
    pub raw: Vec<(f64, f64)>,
    /// Runs that panicked under the isolate policy (global indices).
    pub faults: Vec<RunFault>,
}

/// Accuracy-vs-NWC curves for every method, keyed by name.
#[derive(Debug, Clone)]
pub struct MethodCurves {
    /// One curve per selector, in the caller's selector order.
    pub methods: Vec<MethodCurve>,
    /// In-situ training baseline (empty when it was not run).
    pub insitu: Vec<InsituStats>,
    /// Per-run in-situ trajectories — `(nwc, accuracy fraction)` per
    /// checkpoint, exactly as [`insitu_training`] returned them (the
    /// mergeable form of `insitu`).
    pub insitu_raw: Vec<Vec<(f64, f64)>>,
}

/// Configuration of a full method comparison.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Write-verified weight fractions (≈ NWC grid).
    pub fractions: Vec<f64>,
    /// Monte Carlo runs per method/point.
    pub runs: usize,
    /// Monte Carlo worker threads.
    pub threads: usize,
    /// Threads inside each matrix product (0 = all cores). Keep at 1
    /// when `threads > 1`: the Monte Carlo level already saturates the
    /// machine, and nested GEMM threading would oversubscribe it.
    pub gemm_threads: usize,
    /// GEMM cache-block width in columns (0 = automatic).
    pub gemm_block: usize,
    /// Evaluation batch size.
    pub eval_batch: usize,
    /// Base seed.
    pub seed: u64,
    /// Whether to run the in-situ training baseline.
    pub insitu: bool,
    /// In-situ learning rate.
    pub insitu_lr: f32,
    /// In-situ mini-batch size.
    pub insitu_batch: usize,
    /// Global index of the first Monte Carlo run — non-zero for a
    /// seed-range shard, which then reproduces exactly rows
    /// `run_offset .. run_offset + runs` of the unsharded sweep.
    pub run_offset: usize,
    /// What happens when one Monte Carlo run panics.
    pub on_panic: PanicPolicy,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            fractions: vec![0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0],
            runs: 25,
            threads: swim_core::montecarlo::num_threads(),
            gemm_threads: if swim_core::montecarlo::num_threads() > 1 { 1 } else { 0 },
            gemm_block: 0,
            eval_batch: 256,
            seed: 0,
            insitu: true,
            // Small steps: each on-device update rewrites every weight
            // with fresh programming noise, so aggressive learning rates
            // hurt more than they help (visible as an accuracy dip at
            // low NWC).
            insitu_lr: 0.005,
            insitu_batch: 32,
            run_offset: 0,
            on_panic: PanicPolicy::FailFast,
        }
    }
}

impl DriverConfig {
    /// The driver view of an experiment spec. `gemm_threads` /
    /// `gemm_block` come from [`crate::cli::apply_gemm_flags`] so CLI
    /// overrides and the spec agree on one policy.
    pub fn from_spec(
        spec: &swim_exp::spec::ExperimentSpec,
        gemm_threads: usize,
        gemm_block: usize,
    ) -> Self {
        // A sharded spec covers only its seed range: local run `r` is
        // global run `run_offset + r`, so the shard fills exactly its
        // rows of the unsharded Monte Carlo matrix.
        let (run_start, run_end) = spec.shard_run_range();
        DriverConfig {
            fractions: spec.sweep.fractions.clone(),
            runs: run_end - run_start,
            threads: spec.threads(),
            gemm_threads,
            gemm_block,
            eval_batch: spec.montecarlo.eval_batch,
            seed: spec.seed,
            insitu: spec.selection.insitu,
            insitu_lr: spec.insitu.lr,
            insitu_batch: spec.insitu.batch,
            run_offset: run_start,
            on_panic: spec.montecarlo.on_panic,
        }
    }
}

/// Runs the given selectors (plus, when configured, the in-situ
/// baseline) on a prepared scenario.
///
/// Sensitivities come from the preparation's memo
/// ([`Prepared::sensitivities`]): the single second-derivative pass runs
/// only when no earlier block (or, under `swim serve`, no earlier job)
/// computed them at `cfg.eval_batch`. Every write-verify method starts
/// from the same Monte Carlo seeds, but variable-length write-verify
/// loops desynchronize the shared noise stream, so the comparison is
/// not truly paired (ROADMAP item 5). In-situ training runs its own
/// Monte Carlo with per-run RNG forks.
///
/// The sweep runs under the calling thread's kernel configuration with
/// `cfg.gemm_threads` and `cfg.gemm_block` scoped on top; the process
/// default is left alone.
pub fn run_methods(
    prepared: &mut Prepared,
    selectors: &[Box<dyn Selector>],
    cfg: &DriverConfig,
) -> MethodCurves {
    let tuning = KernelTuning {
        gemm_threads: cfg.gemm_threads,
        gemm_block_cols: cfg.gemm_block,
        ..tune::current()
    };
    tune::with_tuning(&tuning, || sweep_methods(prepared, selectors, cfg))
}

fn sweep_methods(
    prepared: &mut Prepared,
    selectors: &[Box<dyn Selector>],
    cfg: &DriverConfig,
) -> MethodCurves {
    let loss = SoftmaxCrossEntropy::new();
    let sens = prepared.sensitivities(cfg.eval_batch);
    let mags = prepared.model.magnitudes();

    let sweep_cfg = SweepConfig {
        fractions: cfg.fractions.clone(),
        runs: cfg.runs,
        threads: cfg.threads,
        eval_batch: cfg.eval_batch,
        seed: cfg.seed,
        run_offset: cfg.run_offset,
        on_panic: cfg.on_panic,
    };
    // The NWC = 1.0 denominator depends on the model and seed only: one
    // full write-verify simulation per block serves every selector.
    let denom = if selectors.is_empty() || cfg.fractions.is_empty() {
        0.0
    } else {
        nwc_denominator(&prepared.model, cfg.seed)
    };
    let mut methods = Vec::new();
    for selector in selectors {
        eprintln!("[driver] sweeping {} ({} runs)...", selector.name(), cfg.runs);
        let outcome = nwc_sweep_with_denominator(
            &prepared.model,
            selector.as_ref(),
            &sens,
            &mags,
            &prepared.test,
            &sweep_cfg,
            denom,
        );
        methods.push(MethodCurve {
            name: selector.name().to_string(),
            points: outcome.points,
            raw: outcome.raw,
            faults: outcome.faults,
        });
    }

    let insitu_raw = if cfg.insitu {
        eprintln!("[driver] in-situ training baseline ({} runs)...", cfg.runs);
        let record_at = cfg.fractions.clone();
        let insitu_cfg = InsituConfig {
            lr: cfg.insitu_lr,
            batch_size: cfg.insitu_batch,
            eval_batch: cfg.eval_batch,
            record_at,
        };
        let base = Prng::seed_from_u64(cfg.seed.wrapping_add(0x5157_494D));
        let model = &prepared.model;
        let train = &prepared.train;
        let test = &prepared.test;
        // One trajectory row per run, drawn from the global run's fork,
        // so a shard reproduces exactly its rows of the unsharded
        // baseline. Always fail-fast, whatever `on_panic` says: in-situ
        // rows have no fault record to isolate a run into.
        let mut rows = vec![Vec::new(); cfg.runs];
        fill_rows(
            cfg.runs,
            1,
            cfg.threads,
            &base,
            cfg.run_offset,
            PanicPolicy::FailFast,
            &mut rows,
            || (),
            |(), _, mut rng, row| {
                let mut local = model.clone();
                row[0] = insitu_training(&mut local, &loss, train, test, &insitu_cfg, &mut rng)
                    .into_iter()
                    .map(|p| (p.nwc, p.accuracy))
                    .collect();
            },
        );
        rows
    } else {
        Vec::new()
    };
    let insitu = insitu_stats_from_raw(cfg.fractions.len(), &insitu_raw);

    MethodCurves { methods, insitu, insitu_raw }
}

/// Aggregates per-run in-situ trajectories into per-checkpoint
/// statistics — the exact reduction `run_methods` has always applied,
/// factored out so `swim merge` reproduces it over concatenated rows.
pub fn insitu_stats_from_raw(checkpoints: usize, per_run: &[Vec<(f64, f64)>]) -> Vec<InsituStats> {
    if per_run.is_empty() {
        return Vec::new();
    }
    (0..checkpoints)
        .map(|i| {
            let mut accuracy = Running::new();
            let mut nwc = Running::new();
            for run in per_run {
                nwc.push(run[i].0);
                accuracy.push(100.0 * run[i].1);
            }
            InsituStats { nwc: nwc.mean(), accuracy }
        })
        .collect()
}

/// One method's input to [`curves_from_raw`]: display name, the
/// concatenated `runs × fractions` matrix of `(accuracy %, nwc)` pairs
/// in global run order, and the faults recorded at global run indices.
pub type RawMethodRows = (String, Vec<(f64, f64)>, Vec<RunFault>);

/// Rebuilds a [`MethodCurves`] from raw per-run matrices — the merge
/// path: shard rows concatenated in global run order reproduce the
/// unsharded aggregation bit-exactly, because the statistics see the
/// same values pushed in the same order.
pub fn curves_from_raw(
    fractions: &[f64],
    methods: Vec<RawMethodRows>,
    insitu_raw: Vec<Vec<(f64, f64)>>,
) -> MethodCurves {
    let methods = methods
        .into_iter()
        .map(|(name, raw, faults)| {
            // Faulted rows were recorded at their global index; the
            // concatenated matrix is globally indexed from 0.
            let skip: Vec<usize> = faults.iter().map(|f| f.run).collect();
            let points = aggregate_sweep_rows(fractions, &raw, &skip);
            MethodCurve { name, points, raw, faults }
        })
        .collect();
    let insitu = insitu_stats_from_raw(fractions.len(), &insitu_raw);
    MethodCurves { methods, insitu, insitu_raw }
}

/// Runs the paper's four-method comparison (SWIM, magnitude, random,
/// in-situ) — [`run_methods`] over the default selector registry.
pub fn run_all_methods(prepared: &mut Prepared, cfg: &DriverConfig) -> MethodCurves {
    run_methods(prepared, &default_selectors(), cfg)
}

impl MethodCurves {
    /// The curve of a method by display name.
    pub fn curve(&self, name: &str) -> Option<&[SweepPoint]> {
        self.methods.iter().find(|m| m.name == name).map(|m| m.points.as_slice())
    }

    /// The SWIM curve.
    ///
    /// # Panics
    ///
    /// Panics if no selector named "SWIM" was swept.
    pub fn swim(&self) -> &[SweepPoint] {
        self.curve("SWIM").expect("SWIM curve present")
    }

    /// The first method's curve — the reference for grid shape.
    ///
    /// # Panics
    ///
    /// Panics if no methods were swept.
    pub fn primary(&self) -> &[SweepPoint] {
        &self.methods.first().expect("at least one method").points
    }

    /// The in-situ baseline reshaped as sweep points (NWC doubles as
    /// the fraction axis), for the speed-up queries. The speed-up
    /// queries only read the mean, so the tail fields are filled with
    /// it — the in-situ harness does not retain per-run accuracies.
    pub fn insitu_points(&self) -> Vec<SweepPoint> {
        self.insitu
            .iter()
            .map(|p| SweepPoint {
                fraction: p.nwc,
                nwc: p.nwc,
                accuracy: p.accuracy,
                accuracy_min: p.accuracy.mean(),
                accuracy_p05: p.accuracy.mean(),
            })
            .collect()
    }

    /// Renders the Table-1-shaped block: one row per method, one column
    /// per NWC point, `mean ± std` cells.
    pub fn to_table(&self, title: &str) -> Table {
        let mut headers: Vec<String> = vec!["Method".to_string()];
        for p in self.primary() {
            headers.push(format!("NWC {:.1}", p.fraction));
        }
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut table = Table::new(title, &header_refs);
        for method in &self.methods {
            let mut row = vec![method.name.clone()];
            for p in &method.points {
                row.push(fmt_mean_std(&p.accuracy));
            }
            table.push_row_owned(row);
        }
        if !self.insitu.is_empty() {
            let mut row = vec!["In-situ".to_string()];
            for p in &self.insitu {
                row.push(fmt_mean_std(&p.accuracy));
            }
            table.push_row_owned(row);
        }
        table
    }

    /// Renders a CSV with one line per (method, NWC point) — the Fig. 2
    /// series format.
    pub fn to_csv(&self, label: &str) -> String {
        let mut t = Table::new(label, &["method", "nwc", "accuracy_mean", "accuracy_std"]);
        let mut push = |name: &str, nwc: f64, acc: &Running| {
            t.push_row_owned(vec![
                name.to_string(),
                format!("{nwc:.4}"),
                format!("{:.4}", acc.mean()),
                format!("{:.4}", acc.std()),
            ]);
        };
        for method in &self.methods {
            for p in &method.points {
                push(&method.name, p.nwc, &p.accuracy);
            }
        }
        for p in &self.insitu {
            push("In-situ", p.nwc, &p.accuracy);
        }
        t.to_csv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prep::{prepare, PrepConfig, Scenario};
    use swim_cim::DeviceConfig;
    use swim_core::select::Strategy;

    #[test]
    fn driver_smoke_test() {
        let prep_cfg = PrepConfig { samples: 400, epochs: 1, ..Default::default() };
        let mut prepared =
            prepare(Scenario::LenetMnist, DeviceConfig::rram().with_sigma(0.15), &prep_cfg);
        let cfg = DriverConfig {
            fractions: vec![0.0, 0.5, 1.0],
            runs: 3,
            threads: 4,
            eval_batch: 80,
            ..Default::default()
        };
        let curves = run_all_methods(&mut prepared, &cfg);
        assert_eq!(curves.swim().len(), 3);
        assert_eq!(curves.insitu.len(), 3);
        let table = curves.to_table("smoke");
        assert_eq!(table.len(), 4);
        let csv = curves.to_csv("smoke");
        assert!(csv.lines().count() > 10);
    }

    /// Regression pin for the pre-trait driver: the default comparison
    /// must keep the legacy `Strategy::all()` order — SWIM, Magnitude,
    /// Random, then In-situ — so every rendered table keeps its row
    /// order byte-for-byte.
    #[test]
    fn default_method_order_matches_legacy_strategy_order() {
        let prep_cfg = PrepConfig { samples: 300, epochs: 1, ..Default::default() };
        let mut prepared =
            prepare(Scenario::LenetMnist, DeviceConfig::rram().with_sigma(0.15), &prep_cfg);
        let cfg = DriverConfig {
            fractions: vec![0.0, 1.0],
            runs: 2,
            threads: 2,
            eval_batch: 60,
            ..Default::default()
        };
        let curves = run_all_methods(&mut prepared, &cfg);
        let names: Vec<&str> = curves.methods.iter().map(|m| m.name.as_str()).collect();
        let legacy: Vec<&str> = Strategy::all().iter().map(|s| s.name()).collect();
        assert_eq!(names, legacy, "table row order must not drift from the seed binaries");

        let table = curves.to_table("pin");
        assert_eq!(table.headers()[0], "Method");
        assert_eq!(table.headers()[1], "NWC 0.0");
        let rows: Vec<&str> = table.rows().iter().map(|r| r[0].as_str()).collect();
        assert_eq!(rows, vec!["SWIM", "Magnitude", "Random", "In-situ"]);
    }

    #[test]
    fn insitu_can_be_disabled() {
        let prep_cfg = PrepConfig { samples: 300, epochs: 1, ..Default::default() };
        let mut prepared =
            prepare(Scenario::LenetMnist, DeviceConfig::rram().with_sigma(0.15), &prep_cfg);
        let cfg = DriverConfig {
            fractions: vec![0.0, 1.0],
            runs: 2,
            threads: 2,
            eval_batch: 60,
            insitu: false,
            ..Default::default()
        };
        let selectors = swim_core::select::default_selectors();
        let curves = run_methods(&mut prepared, &selectors[..1], &cfg);
        assert!(curves.insitu.is_empty());
        assert_eq!(curves.methods.len(), 1);
        let table = curves.to_table("no-insitu");
        assert_eq!(table.len(), 1);
    }
}
