//! The workspace's one scoped fan-out: the thread executor behind the
//! Monte Carlo harness, the convolution image split and the threaded
//! GEMM.
//!
//! [`fan_out`] spawns scoped threads that pull items from one shared
//! iterator until it runs dry. Each thread builds its own state once and
//! runs every item it pulls under the caller's [`KernelConfig`], so a
//! [`crate::simd::with_backend`] or [`crate::tune::with_tuning`] scope
//! reaches the workers. Which thread takes which item is up to the
//! scheduler: callers give every item a disjoint output, so the split
//! never changes a byte.
//!
//! # Nesting: one parallel level
//!
//! The outermost fan-out owns the cores. Every thread [`fan_out`] spawns
//! runs [`as_worker`], and so does every thread of a persistent pool
//! (`swim_core::pool::WorkerPool`). On such a worker, a GEMM left at its
//! automatic thread count (`gemm_threads == 0`) runs serially, so a
//! Monte Carlo run or a served block never spawns threads of its own
//! beneath its siblings. On any other thread, automatic means one GEMM
//! thread per core. An explicit non-zero `gemm_threads` pin is always
//! honoured. The mark belongs to the thread, not to its
//! [`KernelConfig`]: entering a [`crate::tune::with_tuning`] or
//! [`crate::simd::with_backend`] scope keeps it.

use crate::tune::KernelConfig;
use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

thread_local! {
    /// Whether the calling thread is a parallel worker (see [`as_worker`]).
    static WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the calling thread marked as a parallel worker, and
/// restores the previous mark afterwards, also on panic.
///
/// [`fan_out`] calls this in each thread it spawns; a persistent worker
/// pool calls it around each worker's loop. On a marked thread, the
/// automatic GEMM thread count resolves to one (see the module docs).
pub fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            WORKER.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(WORKER.with(|w| w.replace(true)));
    f()
}

/// Whether the calling thread runs inside [`as_worker`].
pub(crate) fn is_worker() -> bool {
    WORKER.with(Cell::get)
}

/// Runs `job(&mut state, item)` for every item of `items`, on `workers`
/// scoped threads, or inline on the calling thread when `workers <= 1`.
///
/// Each spawned thread calls `init` once, then pulls items from the
/// shared iterator (one lock per pull; jobs run unlocked) and runs them
/// under the caller's [`KernelConfig::current`], marked as a worker
/// ([`as_worker`]). So `init` runs at most `workers` times, and exactly
/// once inline, where the calling thread keeps its own mark.
///
/// # Panics
///
/// A panic in `init` or `job` propagates to the caller: inline at once,
/// and on the threaded path after every worker has stopped, when the
/// scope ends.
pub fn fan_out<T, S>(
    workers: usize,
    items: impl Iterator<Item = T> + Send,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, T) + Sync,
) {
    if workers <= 1 {
        let mut state = init();
        items.for_each(|item| job(&mut state, item));
        return;
    }
    let queue = Mutex::new(items);
    let config = KernelConfig::current();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                as_worker(|| {
                    config.scope(|| {
                        let mut state = init();
                        loop {
                            // Poisoned only if another worker's `next`
                            // panicked; that panic reaches the caller when
                            // the scope ends.
                            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                            let Some(item) = next else { break };
                            job(&mut state, item);
                        }
                    })
                })
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{self, with_backend, Backend};
    use crate::tune::{self, with_tuning, KernelTuning};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_item_runs_exactly_once() {
        for workers in [0usize, 1, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
            fan_out(
                workers,
                0..50,
                || (),
                |(), i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                },
            );
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "workers = {workers}");
        }
    }

    #[test]
    fn init_runs_once_per_worker_and_once_inline() {
        let inits = AtomicUsize::new(0);
        let init = || inits.fetch_add(1, Ordering::Relaxed);
        fan_out(4, 0..32, init, |_, _| {});
        let threaded = inits.swap(0, Ordering::Relaxed);
        assert!((1..=4).contains(&threaded), "{threaded} inits");
        fan_out(1, 0..32, init, |_, _| {});
        assert_eq!(inits.swap(0, Ordering::Relaxed), 1);
        fan_out(1, 0..0, init, |_, _| {});
        assert_eq!(inits.load(Ordering::Relaxed), 1, "inline init runs even with no items");
    }

    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for workers in [0usize, 1] {
            let seen = Mutex::new(Vec::new());
            fan_out(
                workers,
                0..5,
                || std::thread::current().id(),
                |id, _| {
                    seen.lock().unwrap().push((*id, std::thread::current().id()));
                },
            );
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), 5);
            assert!(seen.iter().all(|&(a, b)| a == caller && b == caller), "workers = {workers}");
        }
    }

    #[test]
    fn workers_see_the_callers_scoped_configuration() {
        let pin = KernelTuning { gemm_block_cols: 96, gemm_min_flops: 7, ..Default::default() };
        let seen = with_backend(Backend::Scalar, || {
            with_tuning(&pin, || {
                let seen = Mutex::new(Vec::new());
                fan_out(
                    3,
                    0..12,
                    || (),
                    |(), _| {
                        let t = tune::current();
                        seen.lock().unwrap().push((
                            simd::backend(),
                            t.gemm_block_cols,
                            t.gemm_min_flops,
                            std::thread::current().id(),
                        ));
                    },
                );
                seen.into_inner().unwrap()
            })
        })
        .unwrap();
        assert_eq!(seen.len(), 12);
        let caller = std::thread::current().id();
        for (backend, block, min_flops, thread) in seen {
            assert_ne!(thread, caller, "threaded items run on workers");
            assert_eq!((backend, block, min_flops), (Backend::Scalar, 96, 7));
        }
    }

    #[test]
    fn auto_gemm_threads_go_serial_on_fan_out_workers_only() {
        let workers = || tune::gemm_plan(256, 256, 256, 0).workers;
        let auto = KernelTuning::default();
        let pinned = KernelTuning { gemm_threads: 3, ..Default::default() };
        with_tuning(&auto, || {
            let all_cores = tune::detected_parallelism().min(256);
            let seen = Mutex::new(Vec::new());
            fan_out(
                2,
                0..4,
                || (),
                |(), _| {
                    let rescoped = with_tuning(&auto, workers);
                    let backend = with_backend(Backend::Scalar, workers).unwrap();
                    let pin = with_tuning(&pinned, workers);
                    seen.lock().unwrap().push((workers(), rescoped, backend, pin));
                },
            );
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen, vec![(1, 1, 1, 3); 4], "auto is serial on a worker; a pin holds");
            fan_out(1, 0..1, || (), |(), _| assert_eq!(workers(), all_cores, "inline"));
            as_worker(|| assert_eq!(workers(), 1));
            assert_eq!(workers(), all_cores, "the mark is restored after as_worker");
        });
    }

    #[test]
    fn a_panicking_job_propagates_after_the_scope_ends() {
        let done = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(|| {
            fan_out(
                2,
                0..8,
                || (),
                |(), i| {
                    assert!(i != 3, "item {i} exploded");
                    done.fetch_add(1, Ordering::Relaxed);
                },
            )
        });
        assert!(result.is_err(), "the panic must reach the caller");
        // The surviving worker drained the queue before the scope ended.
        assert_eq!(done.load(Ordering::Relaxed), 7);
    }
}
