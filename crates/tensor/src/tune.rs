//! Kernel configuration: the SIMD backend plus the GEMM performance
//! knobs, resolved per thread.
//!
//! Every hot-path constant the kernels used to hard-code — the GEMM
//! worker-thread count, the packed-panel block width and the
//! [`crate::linalg::PARALLEL_MIN_FLOPS`] threading threshold — resolves
//! through this module. The kernels consult the calling thread's
//! configuration through [`gemm_plan`].
//!
//! # Configuration: a process default and a scoped override
//!
//! Every kernel entry resolves one [`KernelConfig`] (the SIMD backend
//! plus these knobs): the calling thread's scoped override if it has
//! one, else the process default. [`install`] writes the default and
//! nothing else; [`with_tuning`] and [`crate::simd::with_backend`] set
//! the calling thread's override and restore it on exit, panics
//! included. No override leaks into another thread, so concurrent runs
//! and tests cannot see each other's configuration. Work fans out to
//! threads only through [`crate::par::fan_out`], which captures
//! [`KernelConfig::current`] and enters it in every worker: the Monte
//! Carlo runs, the convolution image split and the GEMM row panels all
//! compute under their caller's configuration.
//!
//! # Policy: decided where work fans out
//!
//! Each knob is `0` unless a library caller pins it through a
//! [`KernelTuning`] ([`with_tuning`], [`install`]); the program itself
//! pins nothing. `0` means the built-in default: the cache-resident
//! block-width heuristic, [`crate::linalg::PARALLEL_MIN_FLOPS`], and
//! for the thread count the nesting rule of [`crate::par`] — one GEMM
//! thread on a parallel worker (a spawned [`crate::par::fan_out`]
//! thread or a worker-pool thread), one per core anywhere else.
//!
//! # Timing-only contract
//!
//! Every knob changes *speed*, never *bytes*. Block width, worker count
//! and threading threshold are all pinned byte-neutral by the
//! determinism tests in [`crate::linalg`] (per-element increasing-`k`
//! accumulation, thread-count independence), so a run's results
//! document is byte-identical under every configuration apart from wall
//! time and the `tuning` provenance section.

use crate::linalg::{NR, PARALLEL_MIN_FLOPS};
use crate::simd::{self, Backend};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{PoisonError, RwLock};

/// The tuning mode recorded in results provenance. Only [`TuneMode::Off`]
/// exists: kernel policy is the explicit pins over the built-in
/// heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TuneMode {
    /// Built-in defaults and explicit pins.
    #[default]
    Off,
}

impl TuneMode {
    /// The canonical spelling (`off`).
    pub fn name(self) -> &'static str {
        match self {
            TuneMode::Off => "off",
        }
    }
}

/// A kernel-tuning configuration for library callers.
///
/// Every numeric knob uses `0` for "the built-in default"; non-zero
/// values are explicit pins. `mode`, `im2col_cap_elems` and `cache_dir`
/// are inert: no kernel reads them, and [`current`] reports them at
/// their defaults.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KernelTuning {
    /// Inert; always [`TuneMode::Off`].
    pub mode: TuneMode,
    /// GEMM worker threads (`0` = one per available core, or one on a
    /// parallel worker thread; see [`crate::par`]).
    pub gemm_threads: usize,
    /// GEMM packed-panel block width (`0` = the cache-resident
    /// heuristic).
    pub gemm_block_cols: usize,
    /// Threading threshold in multiplies (`0` =
    /// [`PARALLEL_MIN_FLOPS`]).
    pub gemm_min_flops: usize,
    /// Inert: the former im2col scratch cap. Convolutions pack their
    /// GEMM panels straight from the image and hold no column matrix.
    pub im2col_cap_elems: usize,
    /// Inert: the former on-disk tuning cache directory.
    pub cache_dir: Option<PathBuf>,
}

// -------------------------------------------------------- configuration

/// The kernel configuration every kernel entry resolves: the SIMD
/// backend plus the knobs of a [`KernelTuning`].
///
/// A thread's configuration is its scoped override if it has one
/// ([`KernelConfig::scope`], [`crate::simd::with_backend`],
/// [`with_tuning`]), else the process default ([`install`]; its backend
/// is read from `SWIM_SIMD` on first use). An
/// override never reaches another thread on its own: [`crate::par::fan_out`]
/// captures [`KernelConfig::current`] and enters it in each worker.
///
/// The fields are crate-private, so every value outside this crate is
/// a copy of one [`KernelConfig::current`] returned, and its backend is
/// one the host supports: the `unsafe` vector kernels rely on that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// SIMD backend the kernels dispatch through; always one that
    /// passed runtime feature detection.
    pub(crate) backend: Backend,
    /// GEMM worker threads (`0` = automatic, see [`crate::par`]).
    pub(crate) gemm_threads: usize,
    /// GEMM packed-panel block width (`0` = heuristic).
    pub(crate) gemm_block_cols: usize,
    /// Threading threshold in multiplies (`0` = [`PARALLEL_MIN_FLOPS`]).
    pub(crate) gemm_min_flops: usize,
}

thread_local! {
    /// The calling thread's scoped override (`None` = the process
    /// default). Const-initialized, so reading it never allocates.
    static OVERRIDE: Cell<Option<KernelConfig>> = const { Cell::new(None) };
}

/// The process default; `None` until first use reads the environment.
static DEFAULT: RwLock<Option<KernelConfig>> = RwLock::new(None);

impl KernelConfig {
    fn new(backend: Backend, t: &KernelTuning) -> KernelConfig {
        KernelConfig {
            backend,
            gemm_threads: t.gemm_threads,
            gemm_block_cols: t.gemm_block_cols,
            gemm_min_flops: t.gemm_min_flops,
        }
    }

    /// The calling thread's configuration: its scoped override, else
    /// the process default.
    pub fn current() -> KernelConfig {
        OVERRIDE.with(Cell::get).unwrap_or_else(process_default)
    }

    /// Runs `f` with `self` as the calling thread's configuration and
    /// restores the previous one afterwards, also on panic.
    pub fn scope<R>(self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<KernelConfig>);
        impl Drop for Restore {
            fn drop(&mut self) {
                OVERRIDE.with(|o| o.set(self.0));
            }
        }
        let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(self))));
        f()
    }

    fn threads(self) -> usize {
        match self.gemm_threads {
            0 if crate::par::is_worker() => 1,
            0 => detected_parallelism(),
            n => n,
        }
    }

    fn min_flops(self) -> usize {
        match self.gemm_min_flops {
            0 => PARALLEL_MIN_FLOPS,
            n => n,
        }
    }

    fn block_cols(self, k: usize, n: usize) -> usize {
        let cols = match self.gemm_block_cols {
            0 => block_cols_heuristic(k),
            cols => cols,
        };
        clamp_block(cols, n)
    }
}

fn process_default() -> KernelConfig {
    let installed = *DEFAULT.read().unwrap_or_else(PoisonError::into_inner);
    installed.unwrap_or_else(|| update_default(|_| {}))
}

/// Reads the process default backend from `SWIM_SIMD`, unless
/// something already set the default.
///
/// Entry points call this first, so a malformed variable ends the
/// program with an error message rather than a panic at the first
/// kernel call. Idempotent: once the default exists it is kept.
pub fn init_from_env() -> Result<(), String> {
    let mut slot = DEFAULT.write().unwrap_or_else(PoisonError::into_inner);
    if slot.is_none() {
        *slot = Some(KernelConfig::new(simd::initial_backend()?, &KernelTuning::default()));
    }
    Ok(())
}

/// Applies `f` to the process default, reading the environment first
/// if nothing has yet, and returns the result.
///
/// # Panics
///
/// Panics on a malformed `SWIM_SIMD` value when no entry point resolved
/// the environment with [`init_from_env`] first.
pub(crate) fn update_default(f: impl FnOnce(&mut KernelConfig)) -> KernelConfig {
    init_from_env().unwrap_or_else(|e| panic!("{e}"));
    let mut slot = DEFAULT.write().unwrap_or_else(PoisonError::into_inner);
    let c = slot.as_mut().expect("init_from_env set the process default");
    f(c);
    *c
}

/// Installs `t` as the process default tuning, keeping the default
/// backend.
///
/// For library callers that configure the whole process. Threads inside
/// a [`with_tuning`] or [`KernelConfig::scope`] keep their override.
/// Timing-only: no configuration changes result bytes.
pub fn install(t: &KernelTuning) {
    update_default(|c| *c = KernelConfig::new(c.backend, t));
}

/// The calling thread's tuning: its scoped override, else the process
/// default. The inert fields are at their defaults.
pub fn current() -> KernelTuning {
    let c = KernelConfig::current();
    KernelTuning {
        gemm_threads: c.gemm_threads,
        gemm_block_cols: c.gemm_block_cols,
        gemm_min_flops: c.gemm_min_flops,
        ..KernelTuning::default()
    }
}

/// Runs `f` with `t` as the calling thread's tuning on its current
/// backend, restoring the previous configuration afterwards (also on
/// panic); other threads are unaffected.
pub fn with_tuning<R>(t: &KernelTuning, f: impl FnOnce() -> R) -> R {
    KernelConfig::new(KernelConfig::current().backend, t).scope(f)
}

/// `available_parallelism`, detected once and cached.
///
/// The std call is not free — on Linux it re-reads the cgroup CPU quota
/// files, allocating in the process — and the GEMM entry points consult
/// the thread count on *every* product; the cached value keeps the
/// steady-state eval loop allocation-free (enforced by `swim-core`'s
/// `tests/alloc_free.rs`).
pub fn detected_parallelism() -> usize {
    static DETECTED: AtomicUsize = AtomicUsize::new(0);
    match DETECTED.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            DETECTED.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// The worker-thread count large products on the calling thread will
/// use.
pub fn gemm_threads() -> usize {
    KernelConfig::current().threads()
}

/// The threading threshold large products currently use.
pub fn gemm_min_flops() -> usize {
    KernelConfig::current().min_flops()
}

/// The effective column-block width for an `m×k · k×n` product.
pub fn gemm_block_cols(k: usize, n: usize) -> usize {
    KernelConfig::current().block_cols(k, n)
}

/// The cache-resident block-width heuristic: keep the active packed
/// block near 128 KiB so it stays cache resident while a row panel
/// sweeps it. A shape-keyed autotuner measured against it at 256³
/// (0.51 ms tuned vs 0.50 ms with this heuristic) and on the quick
/// presets end to end, and never won by more than noise.
fn block_cols_heuristic(k: usize) -> usize {
    let budget = (128 * 1024) / (4 * k.max(1));
    budget.clamp(NR, 4096)
}

/// Rounds a block width up to a panel multiple and caps it at the
/// (rounded) output width.
fn clamp_block(cols: usize, n: usize) -> usize {
    cols.next_multiple_of(NR).min(n.next_multiple_of(NR).max(NR))
}

/// The per-product execution plan [`gemm_plan`] hands the kernel:
/// worker count and block width, both byte-neutral.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmPlan {
    /// Threads the row-panel split uses (`1` = serial).
    pub workers: usize,
    /// Packed-panel block width (multiple of [`NR`]).
    pub block_cols: usize,
}

/// Resolves the execution plan for one `m×k·k×n` product from the
/// calling thread's pins, the built-in heuristic and the nesting rule
/// of [`crate::par`].
///
/// `threads_req` is the caller's explicit thread count (`0` = the
/// configured setting). Products below the threading threshold run
/// serially.
pub fn gemm_plan(m: usize, k: usize, n: usize, threads_req: usize) -> GemmPlan {
    let c = KernelConfig::current();
    let threads = if threads_req == 0 { c.threads() } else { threads_req };
    let flops = m.saturating_mul(n).saturating_mul(k);
    GemmPlan {
        workers: if flops < c.min_flops() { 1 } else { threads.min(m).max(1) },
        block_cols: c.block_cols(k, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_current_round_trip() {
        let t = KernelTuning {
            gemm_threads: 3,
            gemm_block_cols: 64,
            gemm_min_flops: 1234,
            ..Default::default()
        };
        let before = KernelConfig::current();
        with_tuning(&t, || {
            assert_eq!(current(), t);
            assert_eq!(gemm_threads(), 3);
            assert_eq!(gemm_min_flops(), 1234);
            assert_eq!(KernelConfig::current().backend, before.backend);
        });
        // Restored afterwards.
        assert_eq!(KernelConfig::current(), before);
        // The inert fields never reach the configuration.
        let inert = KernelTuning {
            im2col_cap_elems: 99,
            cache_dir: Some(PathBuf::from("ignored")),
            ..t.clone()
        };
        with_tuning(&inert, || assert_eq!(current(), t));
    }

    #[test]
    fn plan_defaults_match_legacy_heuristic() {
        with_tuning(&KernelTuning::default(), || {
            let plan = gemm_plan(8, 70, 90, 1);
            assert_eq!(plan.workers, 1, "below the flops threshold");
            assert_eq!(plan.block_cols, gemm_block_cols(70, 90));
        });
    }

    #[test]
    fn pins_beat_the_heuristic() {
        let t = KernelTuning { gemm_block_cols: 96, gemm_min_flops: 1, ..Default::default() };
        with_tuning(&t, || {
            let plan = gemm_plan(8, 4096, 1024, 2);
            assert_eq!(plan.block_cols, 96);
            assert_eq!(plan.workers, 2, "a min-flops pin of 1 threads every product");
        });
        // Unpinned, the heuristic budget at k = 4096 is one panel.
        with_tuning(&KernelTuning::default(), || {
            assert_eq!(gemm_plan(8, 4096, 1024, 2).block_cols, NR);
        });
    }

    #[test]
    fn clamp_block_rounds_to_panels() {
        assert_eq!(clamp_block(1, 1024), NR);
        assert_eq!(clamp_block(100, 1024), 128);
        assert_eq!(clamp_block(4096, 64), 64);
    }
}
