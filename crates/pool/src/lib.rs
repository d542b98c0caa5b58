//! # swan-pool — the shared compute pool
//!
//! A **persistent, bounded worker pool** for the workspace's one source of
//! in-statement concurrency: the LLM layer fans prompt batches through it
//! (`swan_llm::parallel::complete_many`), so the model calls of one batch
//! overlap. The SQL executor's operator loops run on the statement thread
//! and never submit work here. The pool itself knows nothing about
//! prompts — it runs borrowed closures.
//!
//! Design points:
//!
//! * the pool is created lazily on first use and reused forever — no
//!   per-call (let alone per-item) thread spawning;
//! * a call submits at most `workers` jobs that *steal* item indices from
//!   a shared counter, so per-call concurrency stays capped while
//!   latency-skewed batches still balance across the whole set;
//! * claimed indices give a worker exclusive access to pre-sized result
//!   slots, which preserves input order without a reordering pass;
//! * `workers <= 1` runs inline on the caller thread (the sequential
//!   baseline for every parallelism ablation), and **reentrant** use from
//!   inside a pool worker also runs inline — a fixed pool that waited on
//!   itself could deadlock;
//! * a panicking job never kills a pool thread; the panic is re-raised on
//!   the submitting thread after every sibling job has finished.
//!
//! How many workers a batch uses is the caller's configuration (the
//! `workers` field of `HqdlConfig` / `UdfConfig`); nothing here reads the
//! environment.
//!
//! # Time and cancellation
//!
//! The crate also hosts the two primitives every long-running path in
//! the workspace shares (it is the one crate both the LLM layer and the
//! SQL executor depend on): the [`time`] module's [`Clock`] seam
//! (production [`RealClock`] vs the deterministic virtual-time
//! [`SimClock`] the LLM fault sweep runs on) and the [`cancel`]
//! module's [`CancelToken`] — the cooperative statement
//! deadline/cancellation handle operator loops, retry loops and
//! single-flight waiters check between units of work.
//!
//! # The hasher
//!
//! The [`hash`] module is the workspace's one fast hasher (`FxHasher` and
//! its map and set aliases): the executor's join, grouping and DISTINCT
//! tables and the simulated model's knowledge maps key through it.

pub mod cancel;
pub mod hash;
pub mod lockrank;
pub mod time;

pub use cancel::{CancelReason, CancelToken};
pub use time::{Clock, ClockHandle, RealClock, SimClock};

use parking_lot::{Condvar, Mutex};
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};

/// True while running on a pool worker thread. Callers that would submit
/// nested pool work should (and [`run_workers`] does) run it inline
/// instead — a fully-loaded fixed pool waiting on itself can deadlock.
pub fn is_pool_worker() -> bool {
    IS_POOL_WORKER.with(|w| w.get())
}

/// Run `job(worker_index)` on up to `workers` pool threads and wait for
/// all of them. `workers <= 1` — or a call from inside a pool worker —
/// runs `job(0)` inline on the caller thread. A panic in any job is
/// re-raised on the calling thread after every job has finished.
///
/// The jobs are expected to coordinate work-stealing among themselves
/// (typically via a shared [`AtomicUsize`] item counter); [`parallel_items`]
/// packages that pattern.
pub fn run_workers<F>(workers: usize, job: F)
where
    F: Fn(usize) + Sync,
{
    let workers = workers.max(1);
    if workers == 1 || is_pool_worker() {
        job(0);
        return;
    }
    // Everything that can panic *before* any job is submitted — lazy pool
    // creation (thread spawning can fail) and job boxing — happens before
    // the latch guard is armed: a panic here must propagate, not leave
    // the guard waiting on jobs that will never run.
    let p = pool();
    let job = &job;
    let jobs: Vec<Job<'_>> = (0..workers)
        .map(|w| {
            let j: Job<'_> = Box::new(move || job(w));
            j
        })
        .collect();
    let latch = Latch::new(workers);
    {
        // SAFETY-ordering: the guard is dropped (and thus waits for every
        // submitted job) before the borrows held by the jobs can die — on
        // the normal path *and* on any unwind out of this block.
        let _guard = WaitOnDrop(&latch);
        p.run_scoped(jobs, &latch);
    }
    latch.check_panic();
}

/// Map `f` over `0..count` on up to `workers` pool threads, returning the
/// results **in input order**. Items are claimed one at a time from a
/// shared counter (good for latency-skewed items such as model calls).
pub fn parallel_items<T, F>(count: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(count);
    if workers <= 1 || is_pool_worker() {
        return (0..count).map(f).collect();
    }
    let slots: Vec<Slot<T>> = (0..count).map(|_| Slot(UnsafeCell::new(None))).collect();
    let next = AtomicUsize::new(0);
    run_workers(workers, |_| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            break;
        }
        let out = f(i);
        // SAFETY: index `i` was claimed exactly once, so this worker has
        // exclusive access to slot `i`; the caller reads only after
        // `run_workers` has waited for every job.
        unsafe { *slots[i].0.get() = Some(out) };
    });
    slots.into_iter().map(|s| s.0.into_inner().expect("every item slot filled")).collect()
}

/// One result slot. `Sync` is sound because each index is claimed by
/// exactly one worker (via the shared counter) before being written, and
/// the caller only reads after the pool latch has settled.
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: each slot index is claimed by exactly one worker before being
// written (see the doc comment above), so no two threads ever touch the
// same cell concurrently, and readers are ordered after the latch wait.
unsafe impl<T: Send> Sync for Slot<T> {}

// ---- the worker pool -------------------------------------------------------

type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// A fixed set of worker threads fed from one shared queue.
struct WorkerPool {
    queue: mpsc::Sender<ScopedJob>,
    size: usize,
}

/// A job whose borrows have been erased; the submitting call guarantees it
/// completes (via its latch) before the borrowed data goes out of scope.
struct ScopedJob {
    job: Job<'static>,
    latch: Arc<LatchState>,
}

static POOL: OnceLock<WorkerPool> = OnceLock::new();

thread_local! {
    /// Set for the lifetime of a pool worker thread; used to detect
    /// reentrant pool use and run it inline instead of deadlocking a
    /// fully-loaded fixed pool.
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn pool() -> &'static WorkerPool {
    POOL.get_or_init(|| {
        // LLM calls are latency-bound, not CPU-bound, so the pool is allowed
        // to exceed the core count; it stays bounded regardless of how many
        // calls or items flow through it. The floor keeps headroom above the
        // §6 parallelism ablation's worker sweep even on small CI machines.
        WorkerPool::with_size(
            std::thread::available_parallelism().map_or(1, |n| n.get()).clamp(16, 64),
        )
    })
}

/// Number of threads in the shared pool (its global concurrency bound).
pub fn pool_size() -> usize {
    pool().size
}

impl WorkerPool {
    fn with_size(size: usize) -> Self {
        let (tx, rx) = mpsc::channel::<ScopedJob>();
        let rx = Arc::new(Mutex::with_rank("pool_queue", lockrank::POOL_QUEUE, rx));
        for i in 0..size {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("swan-pool-worker-{i}"))
                .spawn(move || {
                    IS_POOL_WORKER.with(|w| w.set(true));
                    loop {
                        let next = {
                            let guard = rx.lock();
                            guard.recv()
                        };
                        let Ok(scoped) = next else { break };
                        // Keep the worker alive across panicking jobs; the
                        // panic is re-raised on the submitting thread.
                        let panicked = catch_unwind(AssertUnwindSafe(scoped.job)).is_err();
                        scoped.latch.count_down(panicked);
                    }
                })
                .expect("spawn pool worker thread");
        }
        WorkerPool { queue: tx, size }
    }

    /// Submit scoped jobs. SAFETY contract: the caller must wait on `latch`
    /// before any data borrowed by the jobs is dropped — [`run_workers`]
    /// enforces this with a [`WaitOnDrop`] guard covering every exit path.
    fn run_scoped(&self, jobs: Vec<Job<'_>>, latch: &Latch) {
        for job in jobs {
            // SAFETY: erasing the borrow lifetime of a Box<dyn FnOnce> is
            // layout-sound (a fat pointer does not depend on the lifetime
            // parameter) and use-sound by this function's contract: the
            // caller waits on `latch` before any borrowed data dies.
            let job: Job<'static> = unsafe { std::mem::transmute(job) };
            let scoped = ScopedJob { job, latch: latch.state.clone() };
            if let Err(mpsc::SendError(scoped)) = self.queue.send(scoped) {
                // Queue closed (cannot happen while the pool is alive, but
                // never leave a latch slot dangling): run inline instead.
                let panicked = catch_unwind(AssertUnwindSafe(scoped.job)).is_err();
                scoped.latch.count_down(panicked);
            }
        }
    }
}

// ---- completion latch ------------------------------------------------------

struct LatchState {
    remaining: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
}

/// Counts outstanding jobs of one `run_workers` call.
struct Latch {
    state: Arc<LatchState>,
}

/// Drop guard: waits for every job of a call to finish before the stack
/// frame (and the borrows the jobs hold) can unwind away. Never panics
/// from `drop` — panic propagation happens separately via
/// [`Latch::check_panic`] on the normal path.
struct WaitOnDrop<'a>(&'a Latch);

impl Drop for WaitOnDrop<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            state: Arc::new(LatchState {
                remaining: Mutex::with_rank("pool_latch", lockrank::POOL_LATCH, count),
                all_done: Condvar::new(),
                panicked: AtomicBool::new(false),
            }),
        }
    }

    /// Block until every job has finished.
    fn wait(&self) {
        let mut remaining = self.state.remaining.lock();
        while *remaining > 0 {
            remaining = self.state.all_done.wait(remaining);
        }
    }

    /// Re-raise a worker-job panic on the calling thread.
    fn check_panic(&self) {
        if self.state.panicked.load(Ordering::SeqCst) {
            panic!("pool worker job panicked");
        }
    }
}

impl LatchState {
    fn count_down(&self, panicked: bool) {
        if panicked {
            self.panicked.store(true, Ordering::SeqCst);
        }
        let mut remaining = self.remaining.lock();
        *remaining -= 1;
        if *remaining == 0 {
            self.all_done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn parallel_items_preserves_order() {
        let out = parallel_items(100, 8, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        assert!(parallel_items(0, 4, |i| i).is_empty());
    }

    #[test]
    fn single_worker_runs_inline() {
        let id = std::thread::current().id();
        run_workers(1, |w| {
            assert_eq!(w, 0);
            assert_eq!(std::thread::current().id(), id, "inline on the caller");
        });
    }

    #[test]
    fn actually_runs_concurrently() {
        let in_flight = AtomicU64::new(0);
        let max_in_flight = AtomicU64::new(0);
        parallel_items(16, 8, |_| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            max_in_flight.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(5));
            in_flight.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(max_in_flight.load(Ordering::SeqCst) >= 2, "no concurrency observed");
    }

    /// Two adjacent slow items must land on different workers (index
    /// stealing), not in one worker's contiguous chunk.
    #[test]
    fn skewed_latencies_balance_across_workers() {
        let t = Instant::now();
        parallel_items(4, 2, |i| {
            if i < 2 {
                std::thread::sleep(Duration::from_millis(200));
            }
        });
        let elapsed = t.elapsed();
        // Static half/half chunking would serialize both slow items in one
        // chunk (~400ms); stealing runs them concurrently (~200ms).
        assert!(elapsed < Duration::from_millis(350), "slow items were not balanced: {elapsed:?}");
    }

    #[test]
    fn reentrant_use_runs_inline_without_deadlock() {
        // More outer items than pool threads would previously be able to
        // wedge every worker inside the nested wait.
        let out = parallel_items(80, 64, |i| {
            let inner = parallel_items(3, 4, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        assert_eq!(out.len(), 80);
        assert_eq!(out[7], 70 + 71 + 72);
    }

    #[test]
    fn worker_panic_propagates_without_killing_the_pool() {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_items(3, 3, |i| {
                if i == 1 {
                    panic!("simulated job crash");
                }
            });
        }));
        assert!(caught.is_err(), "panic must propagate to the caller");

        // The pool survives and keeps serving.
        let out = parallel_items(8, 4, |i| i);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn pool_size_is_fixed_across_calls() {
        let before = pool_size();
        for _ in 0..5 {
            parallel_items(6, 3, |i| i);
        }
        assert_eq!(pool_size(), before);
    }
}
