//! Morsel dispatch: how the one executor's loops are spread over threads.
//!
//! There is no parallel executor and no parallel plan node. Every operator
//! in [`crate::exec`] writes its loop body once, against a
//! `(row range, context)` pair, and hands it to [`try_morsels`] with the
//! number of items the loop covers. This module alone decides what happens
//! next, from what it can observe:
//!
//! * **the gate** — [`fan_out`]: a loop over fewer than
//!   [`OptimizerConfig::parallel_threshold`] items runs inline, and so does
//!   any loop on a pool worker or a worker context; only a loop that passes
//!   resolves a thread count ([`effective_threads`]: `threads`, or at `0`
//!   `SWAN_THREADS` / the machine default), and one thread is inline again.
//!   `ORDER BY … LIMIT k` ([`parallel_topk_candidates`]) asks the same gate;
//! * **morsel sizing** — [`MORSEL_ROWS`] and the few-morsels-per-worker
//!   split of a fan-out;
//! * **inline dispatch** ([`inline_morsels`]): the body runs on the calling
//!   thread, on the caller's own [`ExecCtx`], over [`MORSEL_ROWS`]-sized
//!   ranges in order, with a cancellation check between ranges — this *is*
//!   the serial engine;
//! * **fan-out**: workers from the shared [`swan_pool`] steal morsel
//!   indices from a counter, each against a worker-local context (below),
//!   and per-morsel outputs come back in morsel order — so an operator's
//!   row order, and therefore the whole query result, is **byte-identical
//!   at every thread count and threshold**.
//!
//! # Worker execution contexts
//!
//! [`ExecCtx`] holds a statement-scoped `RefCell` UDF-result store and is
//! therefore not shareable across threads. Under fan-out each worker runs
//! against a fresh worker-local context over the same catalog/UDF registry.
//! The statement's prefetched expensive-UDF results are **moved behind one
//! `Arc`** for the duration of the fan-out and every worker context reads
//! them there (`ExecCtx::udf_seed` — so an operator's vectorized prefetch
//! keeps paying off inside its workers, and fan-out copies nothing); what
//! a worker computes itself goes into its own, initially
//! empty, overlay (`ExecCtx::udf_results`), which drains back into the
//! statement's results when the worker retires — the statement thread then
//! unwraps the `Arc` again. A worker context never fans out itself: its
//! overlay is not the statement's store.
//! The statement's **subquery cache is shared** by every worker
//! (it is `Send + Sync`, see [`crate::exec::SubqueryCache`]): an
//! uncorrelated subquery still executes at most once per statement, and
//! correlated subqueries re-execute per row on whichever worker owns the
//! row — so subquery-bearing predicates fan out like any other expression.
//! Batching itself (every operator's prefetch of its own call sites: a
//! filter's expensive conjuncts over the cheap conjuncts' survivors, join
//! keys, a join residual's candidate replay, …) always runs on the thread
//! that executes the operator, never inside a fan-out.
//!
//! Errors are deterministic: a range stops at its first failing row, and
//! the caller surfaces the error of the earliest range — the row a single
//! in-order pass fails on. Inline dispatch runs no range after a failed
//! one; fan-out may have started later ranges already.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

use crate::error::Result;
use crate::exec::ExecCtx;
use crate::hash::FxHashMap;
use crate::optimizer::OptimizerConfig;

/// Upper bound on morsel size (rows). Small enough that a skewed morsel
/// cannot serialize the batch, large enough to amortize dispatch.
pub const MORSEL_ROWS: usize = 1024;

/// Resolve a config's thread count: an explicit value wins; `0` defers to
/// [`swan_pool::configured_threads`] (the `SWAN_THREADS` environment
/// variable, else the machine's available parallelism). `SWAN_THREADS=1`
/// therefore dispatches every loop inline.
fn effective_threads(config: &OptimizerConfig) -> usize {
    match config.threads {
        0 => swan_pool::configured_threads(),
        n => n,
    }
}

/// The one fan-out gate: how many pool workers a loop over `count` items
/// may use, or `None` to run it inline. The count is checked first, so a
/// statement whose loops are all below the threshold never resolves a
/// thread count (an environment read) at all.
fn fan_out(count: usize, ctx: &ExecCtx<'_>) -> Option<usize> {
    // A lone item has nothing to split; a fixed pool must not wait on
    // itself; a worker context's overlay is not the statement's store.
    if count < ctx.optimizer.parallel_threshold.max(2)
        || swan_pool::is_pool_worker()
        || ctx.udf_seed.is_some()
    {
        return None;
    }
    let threads = effective_threads(&ctx.optimizer);
    (threads > 1).then_some(threads)
}

/// Morsel size for `count` items across `workers` workers: aim for a
/// few morsels per worker (stealing headroom for skew), capped at
/// [`MORSEL_ROWS`].
fn morsel_size(count: usize, workers: usize) -> usize {
    count.div_ceil(workers * 4).clamp(1, MORSEL_ROWS)
}

/// Inline dispatch: `f` runs on the calling thread against `ctx` itself
/// over [`MORSEL_ROWS`]-sized ranges covering `0..count`, with a
/// cancellation check between ranges, and nothing runs after a failed
/// range. [`try_morsels`] below the gate — and the call for a loop that
/// must not fan out whatever its size.
pub(crate) fn inline_morsels<'a, T, F>(count: usize, ctx: &ExecCtx<'a>, f: F) -> Result<Vec<T>>
where
    F: Fn(Range<usize>, &ExecCtx<'a>) -> Result<T>,
{
    let mut out = Vec::with_capacity(count.div_ceil(MORSEL_ROWS));
    for start in (0..count).step_by(MORSEL_ROWS) {
        if start > 0 {
            ctx.check_cancel()?;
        }
        out.push(f(start..(start + MORSEL_ROWS).min(count), ctx)?);
    }
    Ok(out)
}

/// Run `f` over ranges covering `0..count` and return one result per range,
/// in range order; the first error (in range order) wins — the row a single
/// in-order pass fails on.
///
/// **Inline** ([`inline_morsels`]) — fewer than
/// [`OptimizerConfig::parallel_threshold`] items, a call from a pool worker
/// (a fixed pool must not wait on itself) or on a worker context, or one
/// resolved thread.
///
/// **Fan-out** — otherwise: up to `threads` pool workers steal morsels,
/// each against a fresh worker-local [`ExecCtx`] that reads the statement's
/// prefetched expensive-UDF results through one shared `Arc` and checks for
/// cancellation before every morsel. Expensive-UDF results a worker
/// computed itself (tuples the statement-level prefetch missed, e.g. after
/// a failed or short `invoke_batch`) land in the worker's overlay and are
/// **drained back** into the statement store when the worker retires, so
/// downstream operators of the same statement are served from the store
/// instead of re-invoking. Within one
/// operator such a missed tuple can still be invoked by more than one
/// worker concurrently (bounded by the thread count; stateful UDFs like
/// `llm_map` deduplicate further in their own single-flight layer) — the
/// statement-level prefetch keeps this path cold.
pub fn try_morsels<'a, T, F>(count: usize, ctx: &ExecCtx<'a>, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(Range<usize>, &ExecCtx<'a>) -> Result<T> + Sync,
{
    let Some(workers) = fan_out(count, ctx) else {
        return inline_morsels(count, ctx, f);
    };

    // The statement's results move behind an `Arc` for the fan-out: every
    // worker reads them there, and writes what it computes itself into its
    // own (initially empty) overlay.
    let seed = Arc::new(ctx.udf_results.take());
    let catalog = ctx.catalog;
    let udfs = ctx.udfs;
    let optimizer = ctx.optimizer;
    let subqueries = ctx.subqueries.clone();
    let cancel = ctx.cancel.clone();
    type Overlay = FxHashMap<String, crate::exec::UdfResults>;
    let merge_sink: parking_lot::Mutex<Vec<Overlay>> =
        parking_lot::Mutex::with_rank("merge_sink", swan_pool::lockrank::MERGE_SINK, Vec::new());

    /// Worker context wrapper: on drop (worker retirement — normal or
    /// unwinding) the worker's overlay drains into the shared sink for the
    /// statement thread to merge.
    struct WorkerCtx<'a, 'env> {
        wctx: ExecCtx<'a>,
        sink: &'env parking_lot::Mutex<Vec<Overlay>>,
    }
    impl Drop for WorkerCtx<'_, '_> {
        fn drop(&mut self) {
            let overlay = self.wctx.udf_results.take();
            if !overlay.is_empty() {
                self.sink.lock().push(overlay);
            }
        }
    }

    let out: Result<Vec<T>> = swan_pool::parallel_morsels_with(
        count,
        morsel_size(count, workers),
        workers,
        // One context per worker, not per morsel.
        || WorkerCtx {
            wctx: ExecCtx {
                catalog,
                udfs,
                optimizer,
                // One shared statement-wide subquery cache: uncorrelated
                // subqueries run once no matter which worker needs them.
                subqueries: subqueries.clone(),
                udf_results: RefCell::default(),
                udf_seed: Some(seed.clone()),
                // Workers share the statement's cancel token: a deadline
                // firing mid-statement stops every worker at its next
                // morsel boundary.
                cancel: cancel.clone(),
            },
            sink: &merge_sink,
        },
        |worker, range| {
            // Morsel-boundary cooperative checkpoint: each worker gives up
            // before starting its next morsel once the statement is done.
            worker.wctx.check_cancel()?;
            // Re-install the statement token as this pool thread's current
            // token so model calls made from inside the morsel observe the
            // statement deadline (pool threads don't inherit thread-locals).
            swan_pool::cancel::with_current(&worker.wctx.cancel, || f(range, &worker.wctx))
        },
    )
    .into_iter()
    .collect();

    // Every worker context is gone (a worker drops its own before its job
    // retires), so the statement takes its results back and drains the
    // overlays into them.
    let mut store = Arc::into_inner(seed).expect("worker contexts outlived the fan-out");
    for overlay in merge_sink.into_inner() {
        for (name, results) in overlay {
            store.entry(name).or_default().extend(results);
        }
    }
    ctx.udf_results.replace(store);
    out
}

/// Parallel top-k candidate selection for `ORDER BY … LIMIT k`: every
/// morsel selects its own k smallest indices under `cmp` (a **total**
/// order — the caller tie-breaks on row index), and the concatenated
/// candidates go through one final serial selection. Because the
/// comparator totally orders rows, the final k are exactly the serial
/// stable-sort prefix at every thread count.
///
/// Returns `None` when the gate ([`fan_out`]) keeps `count` rows inline, or
/// when `k` is not smaller than a morsel — per-morsel selection could not
/// prune anything, so the pass would be pure dispatch overhead on top of
/// the identical serial selection; the caller then runs the serial
/// selection over every row.
pub(crate) fn parallel_topk_candidates<F>(
    count: usize,
    k: usize,
    ctx: &ExecCtx<'_>,
    cmp: &F,
) -> Option<Vec<usize>>
where
    F: Fn(&usize, &usize) -> std::cmp::Ordering + Sync,
{
    let workers = fan_out(count, ctx)?;
    let morsel = morsel_size(count, workers);
    if k >= morsel {
        return None;
    }
    let chunks = swan_pool::parallel_morsels(count, morsel, workers, |range| {
        let mut idx: Vec<usize> = range.collect();
        if k < idx.len() {
            idx.select_nth_unstable_by(k - 1, |a, b| cmp(a, b));
            idx.truncate(k);
        }
        idx
    });
    Some(chunks.into_iter().flatten().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::UdfRegistry;
    use crate::storage::Catalog;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Top-k asks the same gate as every operator loop: the comparator
    /// (the only code a selection runs) is called on pool workers exactly
    /// when `try_morsels` would fan the same count out.
    #[test]
    fn topk_obeys_the_same_threshold() {
        let (catalog, udfs) = (Catalog::default(), UdfRegistry::new());
        let on_pool = AtomicUsize::new(0);
        let cmp = |a: &usize, b: &usize| {
            on_pool.fetch_add(swan_pool::is_pool_worker() as usize, Ordering::SeqCst);
            // Descending, so the selection has something to do.
            b.cmp(a)
        };
        let threshold = crate::optimizer::DEFAULT_PARALLEL_THRESHOLD;
        for (threads, count, fans_out) in [
            (8, threshold - 1, false),
            (8, threshold, true),
            (2, threshold, true),
            (1, 8 * threshold, false),
        ] {
            let config = OptimizerConfig { threads, ..Default::default() };
            let ctx = ExecCtx::new(&catalog, &udfs).with_optimizer(config);
            let candidates = parallel_topk_candidates(count, 3, &ctx, &cmp);
            assert_eq!(candidates.is_some(), fans_out, "{count} rows at {threads} threads");
            assert_eq!(on_pool.swap(0, Ordering::SeqCst) > 0, fans_out);
            if let Some(mut candidates) = candidates {
                candidates.sort_by(cmp);
                assert_eq!(candidates[..3], [count - 1, count - 2, count - 3]);
            }
        }
    }
}
