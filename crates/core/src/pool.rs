//! A persistent shared worker pool and a cooperative cancellation
//! token — the execution substrate of the experiment service.
//!
//! Inside one sweep, the Monte Carlo runs fan out on scoped threads
//! that live only as long as the sweep ([`crate::montecarlo::fill_rows`],
//! on [`swim_tensor::par::fan_out`]). A long-running service needs
//! something else: the blocks of *many* concurrent jobs multiplexed over
//! one fixed set of workers that outlive every request. [`WorkerPool`]
//! is that set: `n` named threads draining one shared FIFO of boxed
//! tasks. Tasks are `'static` closures; callers share state with them
//! through `Arc`. The pool is the parallel level: each worker runs
//! [`swim_tensor::par::as_worker`], so a task's matrix products stay
//! serial unless it pins a GEMM thread count itself.
//!
//! A panicking task is contained: the worker catches the unwind,
//! reports it on stderr, and keeps draining the queue, so one poisoned
//! job cannot take the service down (the same isolation stance as
//! `on_panic = "isolate"` in the Monte Carlo harness).
//!
//! [`CancelToken`] is the cooperative half: cheap to clone, checked by
//! long-running work at natural boundaries (the service checks it
//! between `(model, sigma)` blocks — the same seams the checkpoint
//! journal uses).
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::sync::Arc;
//! use swim_core::pool::WorkerPool;
//!
//! let pool = WorkerPool::new(2);
//! let done = Arc::new(AtomicUsize::new(0));
//! for _ in 0..8 {
//!     let done = Arc::clone(&done);
//!     pool.spawn(move || {
//!         done.fetch_add(1, Ordering::SeqCst);
//!     });
//! }
//! drop(pool); // joins the workers; all queued tasks have run
//! assert_eq!(done.load(Ordering::SeqCst), 8);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// The host's core count, detected once: the default size of a pool
/// and of a Monte Carlo fan-out.
pub use swim_tensor::tune::detected_parallelism;

/// A queued unit of work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of persistent worker threads draining one shared FIFO.
///
/// Dropping the pool closes the queue and joins every worker, so all
/// tasks spawned before the drop are guaranteed to have finished (or
/// panicked in isolation) when `drop` returns.
pub struct WorkerPool {
    sender: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one) named `swim-worker-{i}`.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let (sender, receiver) = channel::<Task>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("swim-worker-{i}"))
                    .spawn(move || swim_tensor::par::as_worker(|| worker_loop(&receiver)))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { sender: Some(sender), workers: handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a task. Tasks run in FIFO order per worker pick-up;
    /// there is no priority or stealing — fairness comes from blocks
    /// being comparably sized.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) {
        self.sender
            .as_ref()
            .expect("pool sender lives until drop")
            .send(Box::new(task))
            .expect("workers live until the sender is dropped");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel lets each worker drain the queue and exit.
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            // A worker never panics itself (tasks unwind inside
            // catch_unwind), so join only fails if the thread was
            // externally killed; nothing useful to do then.
            let _ = handle.join();
        }
    }
}

/// One worker: pull tasks until the queue closes, containing panics.
fn worker_loop(receiver: &Mutex<Receiver<Task>>) {
    loop {
        // Hold the lock only while receiving, never while running.
        let task = match receiver.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return, // a poisoned lock means a peer died mid-recv
        };
        match task {
            Ok(task) => {
                if catch_unwind(AssertUnwindSafe(task)).is_err() {
                    eprintln!(
                        "[pool] task panicked on {}; worker continues",
                        std::thread::current().name().unwrap_or("worker")
                    );
                }
            }
            Err(_) => return, // queue closed: pool is shutting down
        }
    }
}

/// A cooperative cancellation flag shared between a controller and the
/// work it may want to stop.
///
/// Cancellation is one-way and sticky: once [`CancelToken::cancel`] has
/// been called every clone observes [`CancelToken::is_cancelled`] as
/// `true` forever. Work is expected to poll at its natural boundaries;
/// nothing is interrupted pre-emptively.
///
/// # Example
///
/// ```
/// use swim_core::pool::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flips the token; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn runs_all_tasks_across_workers() {
        let pool = WorkerPool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn zero_workers_rounds_up_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || tx.send(7usize).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        pool.spawn(|| panic!("task boom"));
        let after = Arc::clone(&done);
        pool.spawn(move || {
            after.fetch_add(1, Ordering::SeqCst);
        });
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 1, "worker must survive the panic");
    }

    #[test]
    fn tasks_spawned_from_tasks_complete_before_drop() {
        let pool = Arc::new(WorkerPool::new(2));
        let done = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        {
            let done = Arc::clone(&done);
            let tx = tx.clone();
            pool.spawn(move || {
                done.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        rx.recv().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pool_tasks_run_auto_gemm_threads_serially() {
        use swim_tensor::simd::{with_backend, Backend};
        use swim_tensor::tune::{gemm_plan, with_tuning, KernelTuning};
        let workers = || gemm_plan(256, 256, 256, 0).workers;
        let pool = WorkerPool::new(2);
        let (tx, rx) = mpsc::channel();
        pool.spawn(move || {
            let auto = KernelTuning::default();
            let pinned = KernelTuning { gemm_threads: 3, ..Default::default() };
            tx.send((
                with_tuning(&auto, workers),
                with_backend(Backend::Scalar, || with_tuning(&auto, workers)).unwrap(),
                with_tuning(&pinned, workers),
            ))
            .unwrap();
        });
        assert_eq!(rx.recv().unwrap(), (1, 1, 3), "auto is serial on a pool worker; a pin holds");
        let all_cores = detected_parallelism().min(256);
        assert_eq!(with_tuning(&KernelTuning::default(), workers), all_cores, "off the pool");
    }

    #[test]
    fn cancel_token_is_sticky_and_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        token.cancel(); // idempotent
        assert!(clone.is_cancelled());
        assert!(token.is_cancelled());
    }
}
