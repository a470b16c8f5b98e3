//! Shape-keyed kernel autotuning behind the unified [`KernelTuning`]
//! configuration.
//!
//! Every hot-path constant the kernels used to hard-code — the GEMM
//! worker-thread count, the packed-panel block width and the
//! [`crate::linalg::PARALLEL_MIN_FLOPS`] threading threshold — now
//! resolves through this module. One [`KernelTuning`] value is resolved
//! per run (the experiment engine composes spec `[tune]` > CLI flags >
//! environment > built-in default) and installed process-wide with
//! [`install`]; the kernels then consult it through the cheap atomic
//! accessor [`gemm_plan`].
//!
//! # Autotune mode
//!
//! With [`TuneMode::On`], the first time a `(kernel, shape, backend,
//! thread-count)` key is seen, a small candidate set of configs is
//! benchmarked with a median-of-[`TUNE_REPS`] timing loop and the winner
//! is cached in-process; [`set_cache_dir`] additionally persists winners
//! to an on-disk cache keyed by a host fingerprint (CPU brand + SIMD
//! feature set + core count), so later processes on the same host skip
//! the timing loop. Chosen configs are exposed via [`choice_records`]
//! and recorded in the results-document provenance (`tuning` section).
//!
//! # Timing-only contract
//!
//! Tuning is **timing-only**: every candidate config changes *speed*,
//! never *bytes*. Block width, worker count and threading threshold
//! are all pinned byte-neutral by the determinism tests
//! in [`crate::linalg`] (per-element increasing-`k` accumulation,
//! thread-count independence), so an autotuned run's results document is
//! byte-identical to a default-config run apart from wall time and the
//! `tuning` provenance section.
//!
//! # Precedence
//!
//! `spec [tune]` > CLI flags > environment (`SWIM_TUNE`,
//! `SWIM_TUNE_CACHE`, `SWIM_TUNE_BLOCK`, `SWIM_TUNE_MIN_FLOPS`,
//! `SWIM_TUNE_IM2COL`) > on-disk cache > autotune > built-in default.
//! A pinned knob (non-zero) always wins over cache and autotune; `0`
//! means "auto" everywhere, exactly like the legacy setters.

use crate::linalg::{NR, PARALLEL_MIN_FLOPS};
use crate::simd::{self, Backend};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Timing repetitions per candidate; the median is compared, so one
/// scheduler hiccup cannot crown the wrong config.
pub const TUNE_REPS: usize = 3;

/// Products below this multiply count are never autotuned: the timing
/// loop would cost more than any block-width choice could recover, and
/// the built-in heuristic is already within noise at these sizes.
pub const TUNE_MIN_FLOPS: usize = 1 << 20;

/// Whether the shape-keyed autotuner is consulted at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TuneMode {
    /// Built-in defaults / explicit pins only (the legacy behavior).
    #[default]
    Off,
    /// Benchmark candidate configs per shape key and cache the winner.
    On,
}

impl TuneMode {
    /// The canonical spelling (`off` / `on`).
    pub fn name(self) -> &'static str {
        match self {
            TuneMode::Off => "off",
            TuneMode::On => "on",
        }
    }

    /// Parses a mode name (the inverse of [`TuneMode::name`]).
    pub fn parse(name: &str) -> Option<TuneMode> {
        match name {
            "off" => Some(TuneMode::Off),
            "on" => Some(TuneMode::On),
            _ => None,
        }
    }
}

impl std::fmt::Display for TuneMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The unified kernel-tuning configuration, resolved once per run.
///
/// Every numeric knob uses `0` for "auto": the built-in heuristic when
/// tuning is off, the autotuned winner when it is on. Non-zero values
/// are explicit pins that beat both the cache and the autotuner.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KernelTuning {
    /// Whether the shape-keyed autotuner runs (default off).
    pub mode: TuneMode,
    /// GEMM worker threads (`0` = one per available core).
    pub gemm_threads: usize,
    /// GEMM packed-panel block width (`0` = heuristic / autotuned).
    pub gemm_block_cols: usize,
    /// Threading threshold in multiplies (`0` =
    /// [`PARALLEL_MIN_FLOPS`]).
    pub gemm_min_flops: usize,
    /// The former im2col scratch cap in elements. Accepted and recorded
    /// in results provenance, but no longer consulted: convolutions pack
    /// their GEMM panels straight from the image and hold no column
    /// matrix to cap.
    pub im2col_cap_elems: usize,
    /// On-disk winner cache directory (`None` = in-process only).
    pub cache_dir: Option<PathBuf>,
}

impl KernelTuning {
    /// The built-in default configuration with the `SWIM_TUNE*`
    /// environment overrides applied on top.
    ///
    /// # Panics
    ///
    /// Panics on a malformed override (unknown `SWIM_TUNE` mode or a
    /// non-numeric knob) — a misspelled explicit request must not
    /// silently fall back, mirroring `SWIM_SIMD`.
    pub fn from_env() -> KernelTuning {
        let mut t = KernelTuning::default();
        if let Ok(v) = std::env::var("SWIM_TUNE") {
            t.mode = TuneMode::parse(v.trim())
                .unwrap_or_else(|| panic!("SWIM_TUNE: unknown tuning mode `{v}` (off, on)"));
        }
        if let Ok(v) = std::env::var("SWIM_TUNE_CACHE") {
            if !v.trim().is_empty() {
                t.cache_dir = Some(PathBuf::from(v.trim()));
            }
        }
        let knob = |name: &str| -> Option<usize> {
            std::env::var(name).ok().map(|v| {
                v.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("{name}: `{v}` is not a non-negative integer"))
            })
        };
        if let Some(v) = knob("SWIM_TUNE_BLOCK") {
            t.gemm_block_cols = v;
        }
        if let Some(v) = knob("SWIM_TUNE_MIN_FLOPS") {
            t.gemm_min_flops = v;
        }
        if let Some(v) = knob("SWIM_TUNE_IM2COL") {
            t.im2col_cap_elems = v;
        }
        t
    }
}

// ---------------------------------------------------------------- state

/// `MODE` holds `TuneMode as u8 + 1`; `0` means "not yet initialized
/// from the environment".
static MODE: AtomicU8 = AtomicU8::new(0);
static PIN_THREADS: AtomicUsize = AtomicUsize::new(0);
static PIN_BLOCK: AtomicUsize = AtomicUsize::new(0);
static PIN_MIN_FLOPS: AtomicUsize = AtomicUsize::new(0);
static PIN_IM2COL: AtomicUsize = AtomicUsize::new(0);

fn mode_to_u8(m: TuneMode) -> u8 {
    match m {
        TuneMode::Off => 1,
        TuneMode::On => 2,
    }
}

fn mode_from_u8(v: u8) -> TuneMode {
    match v {
        2 => TuneMode::On,
        _ => TuneMode::Off,
    }
}

fn init_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// First-use initialization from the environment (no-op afterwards).
fn ensure_init() {
    if MODE.load(Ordering::Acquire) != 0 {
        return;
    }
    let _guard = init_lock().lock().unwrap_or_else(|e| e.into_inner());
    if MODE.load(Ordering::Acquire) != 0 {
        return;
    }
    let t = KernelTuning::from_env();
    store(&t);
}

/// Writes `t` into the global knobs; `MODE` last, so concurrent
/// first-use readers never observe a half-written config.
fn store(t: &KernelTuning) {
    PIN_THREADS.store(t.gemm_threads, Ordering::Relaxed);
    PIN_BLOCK.store(t.gemm_block_cols, Ordering::Relaxed);
    PIN_MIN_FLOPS.store(t.gemm_min_flops, Ordering::Relaxed);
    PIN_IM2COL.store(t.im2col_cap_elems, Ordering::Relaxed);
    set_cache_dir(t.cache_dir.as_deref());
    MODE.store(mode_to_u8(t.mode), Ordering::Release);
}

/// Installs `t` as the process-wide kernel-tuning configuration.
///
/// The experiment engine calls this once per run after composing the
/// precedence chain (spec `[tune]` > flags > environment > default).
/// Timing-only: installing a different config never changes result
/// bytes, so a mid-process re-install is always safe.
pub fn install(t: &KernelTuning) {
    let _guard = init_lock().lock().unwrap_or_else(|e| e.into_inner());
    store(t);
}

/// A snapshot of the installed configuration (environment-initialized
/// on first use).
pub fn current() -> KernelTuning {
    ensure_init();
    KernelTuning {
        mode: mode(),
        gemm_threads: PIN_THREADS.load(Ordering::Relaxed),
        gemm_block_cols: PIN_BLOCK.load(Ordering::Relaxed),
        gemm_min_flops: PIN_MIN_FLOPS.load(Ordering::Relaxed),
        im2col_cap_elems: PIN_IM2COL.load(Ordering::Relaxed),
        cache_dir: disk().lock().unwrap_or_else(|e| e.into_inner()).dir.clone(),
    }
}

/// Runs `f` with `t` temporarily installed, restoring the previous
/// configuration afterwards (panic-safe, serialized across threads).
pub fn with_tuning<R>(t: &KernelTuning, f: impl FnOnce() -> R) -> R {
    static OVERRIDE_LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let _guard =
        OVERRIDE_LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner());
    let previous = current();
    struct Restore(KernelTuning);
    impl Drop for Restore {
        fn drop(&mut self) {
            install(&self.0);
        }
    }
    let _restore = Restore(previous);
    install(t);
    f()
}

/// The active tuning mode.
pub fn mode() -> TuneMode {
    ensure_init();
    mode_from_u8(MODE.load(Ordering::Relaxed))
}

/// Pins the GEMM worker-thread count (`0` = auto). Compatibility shim
/// behind [`crate::linalg::set_gemm_threads`].
pub fn pin_gemm_threads(threads: usize) {
    ensure_init();
    PIN_THREADS.store(threads, Ordering::Relaxed);
}

/// Pins the GEMM block width (`0` = auto). Compatibility shim behind
/// [`crate::linalg::set_gemm_block_cols`].
pub fn pin_gemm_block_cols(cols: usize) {
    ensure_init();
    PIN_BLOCK.store(cols, Ordering::Relaxed);
}

/// Pins the threading threshold (`0` = default). Compatibility shim
/// behind [`crate::linalg::set_gemm_parallel_min_flops`].
pub fn pin_gemm_min_flops(flops: usize) {
    ensure_init();
    PIN_MIN_FLOPS.store(flops, Ordering::Relaxed);
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

/// The worker-thread count large products will use.
pub fn gemm_threads() -> usize {
    ensure_init();
    match PIN_THREADS.load(Ordering::Relaxed) {
        0 => detected_parallelism(),
        n => n,
    }
}

/// The threading threshold large products currently use.
pub fn gemm_min_flops() -> usize {
    ensure_init();
    match PIN_MIN_FLOPS.load(Ordering::Relaxed) {
        0 => PARALLEL_MIN_FLOPS,
        n => n,
    }
}

/// The effective column-block width for an `m×k · k×n` product under
/// the *pin/heuristic* path (no shape-keyed lookup).
pub fn gemm_block_cols(k: usize, n: usize) -> usize {
    ensure_init();
    let requested = PIN_BLOCK.load(Ordering::Relaxed);
    let cols = if requested == 0 { block_cols_heuristic(k) } else { requested };
    clamp_block(cols, n)
}

/// The cache-resident block-width heuristic: keep the active packed
/// block near 128 KiB so it stays cache resident while a row panel
/// sweeps it. Re-measured on this repo's bench hosts (see
/// `BENCH_sweep.json`, `autotune` group): the 128 KiB budget remains
/// the best fixed choice at the acceptance shapes, which is why the
/// constant survived the autotuner's arrival as the mode-off default.
fn block_cols_heuristic(k: usize) -> usize {
    let budget = (128 * 1024) / (4 * k.max(1));
    budget.clamp(NR, 4096)
}

/// Rounds a block width up to a panel multiple and caps it at the
/// (rounded) output width.
fn clamp_block(cols: usize, n: usize) -> usize {
    cols.next_multiple_of(NR).min(n.next_multiple_of(NR).max(NR))
}

// ------------------------------------------------------- keys + choices

/// Which GEMM entry point a tuning key describes (the transposed
/// variants pack differently, so their winners are cached separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmKind {
    /// `matmul` (both operands row-major).
    MM,
    /// `matmul_at` (left operand read transposed).
    AT,
    /// `matmul_bt` (right operand read transposed).
    BT,
}

impl GemmKind {
    fn name(self) -> &'static str {
        match self {
            GemmKind::MM => "mm",
            GemmKind::AT => "at",
            GemmKind::BT => "bt",
        }
    }
}

/// A shape key the autotuner caches winners under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TuneKey {
    /// A GEMM product: kind, shape, SIMD backend, worker threads.
    Gemm {
        /// Entry-point flavor.
        kind: GemmKind,
        /// Output rows.
        m: usize,
        /// Reduction length.
        k: usize,
        /// Output columns.
        n: usize,
        /// SIMD backend the product dispatches through.
        backend: Backend,
        /// Resolved worker-thread budget.
        threads: usize,
    },
}

impl TuneKey {
    /// Renders the key in the stable textual form used by the on-disk
    /// cache and the results-document provenance.
    pub fn render(&self) -> String {
        match self {
            TuneKey::Gemm { kind, m, k, n, backend, threads } => {
                format!("gemm-{}:{m}x{k}x{n}:{}:t{threads}", kind.name(), backend.name())
            }
        }
    }
}

/// Where a cached winner came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChoiceSource {
    /// Benchmarked in this process.
    Autotune,
    /// Loaded from the host-fingerprinted on-disk cache.
    DiskCache,
}

impl ChoiceSource {
    /// The provenance spelling (`autotune` / `disk-cache`).
    pub fn name(self) -> &'static str {
        match self {
            ChoiceSource::Autotune => "autotune",
            ChoiceSource::DiskCache => "disk-cache",
        }
    }
}

/// A cached winning GEMM config: `value` is the block width and
/// `workers` the chosen worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Choice {
    /// Block width.
    pub value: usize,
    /// Chosen worker count.
    pub workers: usize,
    /// Provenance of the choice.
    pub source: ChoiceSource,
}

/// One provenance record for the results document: the rendered key,
/// the chosen config, and where it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoiceRecord {
    /// Rendered [`TuneKey`].
    pub key: String,
    /// Rendered winning config (e.g. `block=128 workers=1`).
    pub config: String,
    /// [`ChoiceSource`] name.
    pub source: String,
}

fn winners() -> &'static RwLock<HashMap<TuneKey, Choice>> {
    static WINNERS: OnceLock<RwLock<HashMap<TuneKey, Choice>>> = OnceLock::new();
    WINNERS.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Every winner chosen so far (in-process + adopted disk entries),
/// sorted by rendered key — the `tuning.choices` provenance section.
pub fn choice_records() -> Vec<ChoiceRecord> {
    let map = winners().read().unwrap_or_else(|e| e.into_inner());
    let mut records: Vec<ChoiceRecord> = map
        .iter()
        .map(|(key, choice)| ChoiceRecord {
            key: key.render(),
            config: format!("block={} workers={}", choice.value, choice.workers),
            source: choice.source.name().to_string(),
        })
        .collect();
    records.sort_by(|a, b| a.key.cmp(&b.key));
    records
}

/// Drops every cached winner (tests and `swim tune --reset`).
pub fn clear_winners() {
    winners().write().unwrap_or_else(|e| e.into_inner()).clear();
}

// ------------------------------------------------------------ gemm plan

/// The per-product execution plan [`gemm_plan`] hands the kernel:
/// worker count and block width, both byte-neutral.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmPlan {
    /// Threads the row-panel split uses (`1` = serial).
    pub workers: usize,
    /// Packed-panel block width (multiple of [`NR`]).
    pub block_cols: usize,
}

/// Resolves the execution plan for one `m×k·k×n` product.
///
/// `threads_req` is the caller's explicit thread count (`0` = the
/// installed/auto setting). With tuning off (or any explicit block
/// pin), this is the legacy heuristic; with tuning on, the shape key is
/// looked up in the winner cache, then the on-disk cache, and finally
/// autotuned with a median-of-[`TUNE_REPS`] timing loop.
pub fn gemm_plan(kind: GemmKind, m: usize, k: usize, n: usize, threads_req: usize) -> GemmPlan {
    ensure_init();
    let threads = if threads_req == 0 { gemm_threads() } else { threads_req };
    let flops = m.saturating_mul(n).saturating_mul(k);
    let default_workers = if flops < gemm_min_flops() { 1 } else { threads.min(m).max(1) };
    let pinned_block = PIN_BLOCK.load(Ordering::Relaxed);
    let default_plan = GemmPlan {
        workers: default_workers,
        block_cols: if pinned_block == 0 {
            clamp_block(block_cols_heuristic(k), n)
        } else {
            clamp_block(pinned_block, n)
        },
    };
    if mode() == TuneMode::Off || pinned_block != 0 || flops < TUNE_MIN_FLOPS {
        return default_plan;
    }

    let key = TuneKey::Gemm { kind, m, k, n, backend: simd::backend(), threads };
    if let Some(choice) = winners().read().unwrap_or_else(|e| e.into_inner()).get(&key) {
        return GemmPlan { workers: choice.workers.max(1), block_cols: choice.value };
    }
    if let Some(choice) = disk_lookup(&key) {
        adopt(key, choice);
        return GemmPlan { workers: choice.workers.max(1), block_cols: choice.value };
    }

    let plan = autotune_gemm(m, k, n, default_plan);
    adopt(
        key,
        Choice { value: plan.block_cols, workers: plan.workers, source: ChoiceSource::Autotune },
    );
    persist(&key, plan.block_cols, plan.workers);
    plan
}

/// Inserts a winner into the in-process cache.
fn adopt(key: TuneKey, choice: Choice) {
    winners().write().unwrap_or_else(|e| e.into_inner()).insert(key, choice);
}

/// Benchmarks the candidate grid for one GEMM shape on synthetic data
/// and returns the fastest plan. Candidates only ever change speed —
/// the kernel's accumulation order is identical for every block width
/// and worker count — so the winner can be cached and reused freely.
fn autotune_gemm(m: usize, k: usize, n: usize, default_plan: GemmPlan) -> GemmPlan {
    // Deterministic synthetic operands: the timing loop must not
    // perturb any caller-visible PRNG stream.
    let fill = |len: usize, salt: u32| -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                (h >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    };
    let a = fill(m * k, 0x9e37);
    let b = fill(k * n, 0x85eb);
    let mut out = vec![0.0f32; m * n];

    let mut block_candidates: Vec<usize> = [default_plan.block_cols, 64, 128, 256, 512, 1024]
        .iter()
        .map(|&c| clamp_block(c, n))
        .collect();
    block_candidates.sort_unstable();
    block_candidates.dedup();

    let mut worker_candidates = vec![default_plan.workers];
    if default_plan.workers > 1 {
        // Let the timing loop demote a borderline product back to the
        // serial path — the per-shape answer to the global
        // `PARALLEL_MIN_FLOPS` threshold.
        worker_candidates.push(1);
    }

    let mut best = default_plan;
    let mut best_time = Duration::MAX;
    for &workers in &worker_candidates {
        for &block_cols in &block_candidates {
            let plan = GemmPlan { workers, block_cols };
            let elapsed = median_time(TUNE_REPS, || {
                crate::linalg::gemm_forced(&a, &b, m, k, n, plan, &mut out);
            });
            if elapsed < best_time {
                best_time = elapsed;
                best = plan;
            }
        }
    }
    best
}

/// Times `f` `reps` times and returns the median.
fn median_time(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

// ---------------------------------------------------------- disk cache

/// On-disk cache format version; bumped on any layout change (old
/// files are then ignored and re-tuned, never misread).
const CACHE_FORMAT: &str = "swim-tune-cache v1";

struct DiskCache {
    dir: Option<PathBuf>,
    entries: HashMap<String, (usize, usize)>,
}

fn disk() -> &'static Mutex<DiskCache> {
    static DISK: OnceLock<Mutex<DiskCache>> = OnceLock::new();
    DISK.get_or_init(|| Mutex::new(DiskCache { dir: None, entries: HashMap::new() }))
}

/// The host fingerprint on-disk winners are keyed by: CPU brand, SIMD
/// feature set, and core count. A cache written on any other host is
/// ignored (and re-tuned) rather than trusted.
pub fn host_fingerprint() -> String {
    let brand = cpu_brand();
    let features: Vec<&str> = simd::available_backends().iter().map(|b| b.name()).collect();
    format!("{brand}|{}|{}cores", features.join("+"), detected_parallelism())
}

/// The first `model name` line of `/proc/cpuinfo`, squashed to
/// single-space tokens; the target architecture elsewhere.
fn cpu_brand() -> String {
    if let Ok(text) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in text.lines() {
            if let Some((key, value)) = line.split_once(':') {
                if key.trim() == "model name" {
                    return value.split_whitespace().collect::<Vec<_>>().join(" ");
                }
            }
        }
    }
    std::env::consts::ARCH.to_string()
}

/// FNV-1a 64-bit, the short stable hash used in cache file names.
fn fnv1a64(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// The cache file path for this host under `dir`.
pub fn cache_file(dir: &Path) -> PathBuf {
    dir.join(format!("swim-tune-{:016x}.cache", fnv1a64(&host_fingerprint())))
}

/// Points the on-disk winner cache at `dir` (`None` disables
/// persistence) and loads any existing entries for this host.
///
/// Loading is *tolerant*: a missing, truncated, corrupt, wrong-version,
/// or other-host file is ignored with a warning on stderr — the shapes
/// simply re-tune — never a panic or a failed run.
pub fn set_cache_dir(dir: Option<&Path>) {
    let mut cache = disk().lock().unwrap_or_else(|e| e.into_inner());
    cache.entries.clear();
    cache.dir = dir.map(Path::to_path_buf);
    let Some(dir) = dir else { return };
    let path = cache_file(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return,
        Err(e) => {
            eprintln!("[swim] tune cache {}: {e}; re-tuning", path.display());
            return;
        }
    };
    match parse_cache(&text) {
        Ok(entries) => cache.entries = entries,
        Err(reason) => {
            eprintln!("[swim] tune cache {}: {reason}; ignoring it and re-tuning", path.display());
        }
    }
}

/// Parses the line-based cache format; any irregularity rejects the
/// whole file (the autotuner re-measures — a winner is cheap to
/// rediscover, a misread one is not).
fn parse_cache(text: &str) -> Result<HashMap<String, (usize, usize)>, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(header) if header == CACHE_FORMAT => {}
        Some(header) => return Err(format!("unsupported header `{header}`")),
        None => return Err("empty file".to_string()),
    }
    match lines.next() {
        Some(host) if host.strip_prefix("host ") == Some(&host_fingerprint()) => {}
        Some(host) => {
            return Err(format!(
                "written on another host (`{}` vs this host `{}`)",
                host.strip_prefix("host ").unwrap_or(host),
                host_fingerprint()
            ))
        }
        None => return Err("truncated file (missing host line)".to_string()),
    }
    let mut entries = HashMap::new();
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parse_entry = || -> Option<(String, usize, usize)> {
            let (key, config) = line.split_once(' ')?;
            let (value, workers) = config.split_once(',')?;
            Some((key.to_string(), value.parse().ok()?, workers.parse().ok()?))
        };
        match parse_entry() {
            Some((key, value, workers)) => {
                entries.insert(key, (value, workers));
            }
            None => return Err(format!("corrupt entry on line {}", i + 3)),
        }
    }
    Ok(entries)
}

/// Looks a key up in the loaded on-disk entries.
fn disk_lookup(key: &TuneKey) -> Option<Choice> {
    let cache = disk().lock().unwrap_or_else(|e| e.into_inner());
    cache.dir.as_ref()?;
    cache.entries.get(&key.render()).map(|&(value, workers)| Choice {
        value,
        workers,
        source: ChoiceSource::DiskCache,
    })
}

/// Records a freshly-tuned winner in the on-disk cache (no-op without
/// a cache dir). Write failures only warn: tuning persistence is an
/// optimization, never a correctness requirement.
fn persist(key: &TuneKey, value: usize, workers: usize) {
    let mut cache = disk().lock().unwrap_or_else(|e| e.into_inner());
    let Some(dir) = cache.dir.clone() else { return };
    cache.entries.insert(key.render(), (value, workers));
    let mut body = format!("{CACHE_FORMAT}\nhost {}\n", host_fingerprint());
    let mut keys: Vec<&String> = cache.entries.keys().collect();
    keys.sort();
    for k in keys {
        let (v, w) = cache.entries[k];
        body.push_str(&format!("{k} {v},{w}\n"));
    }
    if let Err(e) = write_atomic(&cache_file(&dir), body.as_bytes()) {
        eprintln!("[swim] tune cache {}: {e} (winners stay in-process)", dir.display());
    }
}

/// Temp-file + rename write so a crash never leaves a truncated cache
/// (which the tolerant loader would then discard anyway).
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("cache.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// The number of on-disk entries loaded for this host (for `swim tune`
/// / `swim list` cache inspection).
pub fn disk_entry_count() -> usize {
    disk().lock().unwrap_or_else(|e| e.into_inner()).entries.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_round_trips_names() {
        for mode in [TuneMode::Off, TuneMode::On] {
            assert_eq!(TuneMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(TuneMode::parse("fast"), None);
    }

    #[test]
    fn install_and_current_round_trip() {
        let _kernel_state = crate::kernel_state_lock();
        let t = KernelTuning {
            mode: TuneMode::On,
            gemm_threads: 3,
            gemm_block_cols: 64,
            gemm_min_flops: 1234,
            im2col_cap_elems: 99,
            cache_dir: None,
        };
        let before = current();
        with_tuning(&t, || {
            assert_eq!(current(), t);
            assert_eq!(gemm_threads(), 3);
            assert_eq!(gemm_min_flops(), 1234);
        });
        // Restored afterwards.
        assert_eq!(current(), before);
    }

    #[test]
    fn plan_defaults_match_legacy_heuristic() {
        let _kernel_state = crate::kernel_state_lock();
        with_tuning(&KernelTuning::default(), || {
            let plan = gemm_plan(GemmKind::MM, 8, 70, 90, 1);
            assert_eq!(plan.workers, 1, "below the flops threshold");
            assert_eq!(plan.block_cols, gemm_block_cols(70, 90));
        });
    }

    #[test]
    fn autotune_caches_winner_per_key() {
        let _kernel_state = crate::kernel_state_lock();
        clear_winners();
        let t = KernelTuning { mode: TuneMode::On, ..Default::default() };
        with_tuning(&t, || {
            let plan1 = gemm_plan(GemmKind::MM, 128, 128, 128, 1);
            let records = choice_records();
            assert_eq!(records.len(), 1, "{records:?}");
            assert!(records[0].key.starts_with("gemm-mm:128x128x128:"), "{}", records[0].key);
            assert_eq!(records[0].source, "autotune");
            // Second call is a cache hit returning the same plan.
            let plan2 = gemm_plan(GemmKind::MM, 128, 128, 128, 1);
            assert_eq!(plan1, plan2);
            assert_eq!(choice_records().len(), 1);
        });
        clear_winners();
    }

    #[test]
    fn tiny_products_skip_the_timing_loop() {
        let _kernel_state = crate::kernel_state_lock();
        clear_winners();
        let t = KernelTuning { mode: TuneMode::On, ..Default::default() };
        with_tuning(&t, || {
            let _ = gemm_plan(GemmKind::MM, 4, 4, 4, 1);
            assert!(choice_records().is_empty(), "tiny shapes must not be tuned");
        });
    }

    #[test]
    fn disk_cache_round_trips_bit_exactly() {
        let _kernel_state = crate::kernel_state_lock();
        clear_winners();
        let dir = std::env::temp_dir().join(format!("swim-tune-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t =
            KernelTuning { mode: TuneMode::On, cache_dir: Some(dir.clone()), ..Default::default() };
        with_tuning(&t, || {
            let plan = gemm_plan(GemmKind::MM, 128, 128, 128, 1);
            let written = std::fs::read_to_string(cache_file(&dir)).unwrap();
            assert!(written.starts_with(CACHE_FORMAT));
            // A fresh process (simulated: clear in-memory winners,
            // reload the dir) must adopt the identical choice.
            clear_winners();
            set_cache_dir(Some(&dir));
            let reloaded = gemm_plan(GemmKind::MM, 128, 128, 128, 1);
            assert_eq!(reloaded, plan);
            let records = choice_records();
            assert_eq!(records[0].source, "disk-cache");
            // And the reloaded state re-persists byte-identically.
            let rewritten = std::fs::read_to_string(cache_file(&dir)).unwrap();
            assert_eq!(rewritten, written);
        });
        let _ = std::fs::remove_dir_all(&dir);
        clear_winners();
    }

    #[test]
    fn corrupt_truncated_and_foreign_caches_are_ignored() {
        let _kernel_state = crate::kernel_state_lock();
        let dir = std::env::temp_dir().join(format!("swim-tune-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = cache_file(&dir);
        for bad in [
            "",                                               // empty
            "swim-tune-cache v999\nhost x\n",                 // wrong version
            CACHE_FORMAT,                                     // truncated: no host line
            &format!("{CACHE_FORMAT}\nhost somebody-else\n"), // foreign host
            &format!(
                "{CACHE_FORMAT}\nhost {}\ngemm-mm:1x1x1:scalar:t1 not-a-number\n",
                host_fingerprint()
            ), // corrupt entry
            &format!("{CACHE_FORMAT}\nhost {}\nmissing-config-field\n", host_fingerprint()),
        ] {
            std::fs::write(&path, bad).unwrap();
            set_cache_dir(Some(&dir)); // must warn, never panic
            assert_eq!(disk_entry_count(), 0, "bad cache {bad:?} must load zero entries");
        }
        set_cache_dir(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_is_stable_and_cache_file_is_keyed_by_it() {
        assert_eq!(host_fingerprint(), host_fingerprint());
        assert!(host_fingerprint().contains("cores"));
        let f = cache_file(Path::new("/x"));
        assert!(f.to_string_lossy().contains("swim-tune-"));
    }

    #[test]
    fn clamp_block_rounds_to_panels() {
        assert_eq!(clamp_block(1, 1024), NR);
        assert_eq!(clamp_block(100, 1024), 128);
        assert_eq!(clamp_block(4096, 64), 64);
    }
}
