//! # swan-pool — the shared compute pool
//!
//! A **persistent, bounded worker pool** used by every parallel subsystem
//! in the workspace: the LLM layer fans prompt batches through it
//! (`swan_llm::parallel::complete_many`) and the SQL executor fans its
//! operator loops out over it (`swan_sqlengine::exec_parallel`).
//! It generalizes the order-preserving pool that previously lived inside
//! `swan_llm`: the pool itself knows nothing about prompts or rows — it
//! runs borrowed closures.
//!
//! Design points, unchanged from the LLM-local ancestor:
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
//! # Thread-count configuration
//!
//! [`configured_threads`] answers "how parallel should work be by
//! default": the `SWAN_THREADS` environment variable when set (clamped to
//! at least 1), otherwise [`std::thread::available_parallelism`].
//! `SWAN_THREADS=1` therefore reproduces fully serial execution across
//! the whole workspace.
//!
//! # Time and cancellation
//!
//! The crate also hosts the two primitives every long-running path in
//! the workspace shares (it is the one crate both the LLM layer and the
//! SQL executor depend on): the [`time`] module's [`Clock`] seam
//! (production [`RealClock`] vs the deterministic virtual-time
//! [`SimClock`] the LLM fault sweep runs on) and the [`cancel`]
//! module's [`CancelToken`] — the cooperative statement
//! deadline/cancellation handle morsel loops, retry loops and
//! single-flight waiters check between units of work.

pub mod cancel;
pub mod lockrank;
pub mod time;

pub use cancel::{CancelReason, CancelToken};
pub use time::{Clock, ClockHandle, RealClock, SimClock};

use parking_lot::{Condvar, Mutex};
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, OnceLock};

/// Default number of workers for parallel work: the `SWAN_THREADS`
/// environment variable when set and parseable (minimum 1), otherwise the
/// machine's available parallelism. The variable is read per call (tests
/// flip it between statements); the machine default — cgroup and affinity
/// reads, microseconds each — is resolved once per process.
pub fn configured_threads() -> usize {
    match std::env::var("SWAN_THREADS") {
        // An unparseable value falls back to the machine default (as the
        // unset case does) rather than silently forcing serial execution.
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => default_parallelism(),
        },
        Err(_) => default_parallelism(),
    }
}

fn default_parallelism() -> usize {
    static MACHINE: OnceLock<usize> = OnceLock::new();
    *MACHINE.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

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
/// (typically via a shared [`AtomicUsize`] item counter); helpers like
/// [`parallel_items`] and [`parallel_morsels`] package that pattern.
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

/// Like [`parallel_morsels`], but each worker first builds a private
/// context with `init` and every morsel it processes receives `&mut` to
/// it — so per-worker setup (a scratch buffer, a worker-local cache
/// clone) is paid once per *worker*, not once per morsel. `init` runs on
/// the worker thread; the context never crosses threads.
pub fn parallel_morsels_with<C, T, I, F>(
    count: usize,
    morsel: usize,
    workers: usize,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> C + Sync,
    F: Fn(&mut C, std::ops::Range<usize>) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let chunk = morsel.max(1);
    let n_chunks = count.div_ceil(chunk);
    let workers = workers.max(1).min(n_chunks);
    if workers == 1 || is_pool_worker() {
        let mut ctx = init();
        return (0..n_chunks)
            .map(|i| f(&mut ctx, i * chunk..((i + 1) * chunk).min(count)))
            .collect();
    }
    let slots: Vec<Slot<T>> = (0..n_chunks).map(|_| Slot(UnsafeCell::new(None))).collect();
    let next = AtomicUsize::new(0);
    {
        let slots = &slots;
        let next = &next;
        let init = &init;
        let f = &f;
        run_workers(workers, move |_| {
            let mut ctx = init();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let out = f(&mut ctx, i * chunk..((i + 1) * chunk).min(count));
                // SAFETY: index `i` was claimed exactly once, so this
                // worker has exclusive access to slot `i`; the caller
                // reads only after `run_workers` has waited for every job.
                unsafe { *slots[i].0.get() = Some(out) };
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.0.into_inner().expect("every chunk slot filled"))
        .collect()
}

/// Map `f` over `0..count` on up to `workers` pool threads, returning the
/// results **in input order**. Items are claimed one at a time from a
/// shared counter (good for latency-skewed items such as model calls).
pub fn parallel_items<T, F>(count: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_chunks(count, 1, workers, |range| f(range.start))
}

/// Split `0..count` into fixed-size morsels of `morsel` items, map `f`
/// over the morsels on up to `workers` pool threads, and return one result
/// per morsel **in morsel order**. Workers steal morsel indices from a
/// shared counter, so a skewed morsel does not serialize its neighbours.
///
/// This is the executor's building block: because outputs come back in
/// morsel (= input) order, concatenating them reproduces the serial
/// operator's row order exactly.
pub fn parallel_morsels<T, F>(count: usize, morsel: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> T + Sync,
{
    parallel_chunks(count, morsel.max(1), workers, f)
}

fn parallel_chunks<T, F>(count: usize, chunk: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(std::ops::Range<usize>) -> T + Sync,
{
    parallel_morsels_with(count, chunk, workers, || (), |(), range| f(range))
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
        WorkerPool::with_size(default_parallelism().clamp(16, 64))
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
    fn parallel_morsels_cover_exactly_once() {
        let ranges = parallel_morsels(1003, 64, 8, |r| r);
        let mut expect_start = 0;
        for r in &ranges {
            assert_eq!(r.start, expect_start, "morsels in order, no gaps");
            expect_start = r.end;
        }
        assert_eq!(expect_start, 1003);
    }

    #[test]
    fn empty_input() {
        assert!(parallel_items(0, 4, |i| i).is_empty());
        assert!(parallel_morsels(0, 16, 4, |r| r).is_empty());
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

    #[test]
    fn configured_threads_honours_env() {
        // Serialized via the env var name being test-unique is impossible;
        // just assert the parse contract on the current environment.
        let n = configured_threads();
        assert!(n >= 1);
    }

    #[test]
    fn unparseable_swan_threads_falls_back_to_machine_default() {
        // NOTE: process-global env; the only other reader in this binary
        // (`configured_threads_honours_env`) asserts `>= 1`, which both
        // the override and the fallback satisfy.
        std::env::set_var("SWAN_THREADS", "auto");
        let n = configured_threads();
        std::env::remove_var("SWAN_THREADS");
        assert_eq!(
            n,
            std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
            "a junk SWAN_THREADS value must not silently force serial execution"
        );
    }

    #[test]
    fn per_worker_init_runs_once_per_worker() {
        let inits = AtomicU64::new(0);
        let out = parallel_morsels_with(
            1000,
            10,
            4,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |local, range| {
                *local += range.len();
                range.len()
            },
        );
        assert_eq!(out.iter().sum::<usize>(), 1000);
        assert!(
            inits.load(Ordering::SeqCst) <= 4,
            "context init must be per worker, not per morsel (100 morsels here)"
        );
    }
}
