//! The dispatch contract of `exec_parallel::try_morsels`, and the
//! cancellation cadence every operator gets from it.
//!
//! Operators no longer count rows between cancellation checks: a loop
//! body covers one range, and the dispatcher checks the statement's token
//! at range boundaries — between ranges when it runs them inline, before
//! each morsel on every worker when it fans out. So a fired token is
//! observed within one morsel per worker, which this file pins **without
//! timing**: a cheap counting UDF cancels the statement's own token on its
//! k-th invocation, and the statement must fail with `Error::Cancelled`
//! after at most `k + MORSEL_ROWS × threads` invocations.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use swan_pool::CancelToken;
use swan_sqlengine::ast::{SelectStmt, Statement};
use swan_sqlengine::exec::{run_select, ExecCtx};
use swan_sqlengine::exec_parallel::{try_morsels, MORSEL_ROWS};
use swan_sqlengine::parser::parse_statement;
use swan_sqlengine::{Database, Error, OptimizerConfig, ScalarUdf, Value};

const ROWS: i64 = 8 * MORSEL_ROWS as i64;

/// `t(id PK, n = id % 7)` with 8 morsels of rows, `u(id PK, k)` with one
/// row per `n`, and a 4-row `small(k)`.
fn database() -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
    db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, k INTEGER)").unwrap();
    db.execute("CREATE TABLE small (k INTEGER PRIMARY KEY)").unwrap();
    let t = db.catalog_mut().get_mut("t").unwrap();
    for i in 0..ROWS {
        t.insert_row(vec![Value::Integer(i), Value::Integer(i % 7)]).unwrap();
    }
    let u = db.catalog_mut().get_mut("u").unwrap();
    for i in 0..7i64 {
        u.insert_row(vec![Value::Integer(i), Value::Integer(i)]).unwrap();
    }
    let small = db.catalog_mut().get_mut("small").unwrap();
    for k in 0..4i64 {
        small.insert_row(vec![Value::Integer(k)]).unwrap();
    }
    db
}

fn select(sql: &str) -> SelectStmt {
    match parse_statement(sql).unwrap() {
        Statement::Select(s) => s,
        other => panic!("not a SELECT: {other:?}"),
    }
}

/// A cheap (per-row, never batched) UDF that counts its invocations and
/// cancels the statement's token on the k-th.
struct CancelAt {
    calls: AtomicU64,
    k: u64,
    token: CancelToken,
}

impl ScalarUdf for CancelAt {
    fn name(&self) -> &str {
        "cancel_at"
    }
    fn invoke(&self, _args: &[Value]) -> swan_sqlengine::Result<Value> {
        if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.k {
            self.token.cancel();
        }
        Ok(Value::Integer(1))
    }
}

#[test]
fn every_operator_observes_a_fired_token_within_one_morsel_per_worker() {
    const K: u64 = 100;
    let cases = [
        ("filter", "SELECT id FROM t WHERE cancel_at(id) > 0"),
        ("general projection", "SELECT cancel_at(id) + n FROM t"),
        ("expression GROUP BY key", "SELECT COUNT(*) FROM t GROUP BY cancel_at(id) + n"),
        ("HAVING over many groups", "SELECT id FROM t GROUP BY id HAVING cancel_at(id) > 0"),
        (
            "hash join with a residual",
            "SELECT COUNT(*) FROM t JOIN u ON t.n = u.k AND cancel_at(t.id + u.id) > 0",
        ),
        // |right| is 8 morsels and |left| is 4 rows: the work per outer row
        // is unbounded by the morsel, so this is the nested loop's own
        // inner check.
        (
            "nested-loop join, |right| >> MORSEL_ROWS",
            "SELECT COUNT(*) FROM small s LEFT JOIN t ON s.k < t.id AND cancel_at(s.k + t.id) > 0",
        ),
    ];
    for threads in [1usize, 2] {
        for (operator, sql) in cases {
            let mut db = database();
            let token = CancelToken::unbounded();
            let udf =
                Arc::new(CancelAt { calls: AtomicU64::new(0), k: K, token: token.clone() });
            db.register_udf(udf.clone());
            let config = OptimizerConfig { threads, parallel_threshold: 1, ..Default::default() };
            let ctx =
                ExecCtx::new(db.catalog(), db.udfs()).with_optimizer(config).with_cancel(token);
            let err = run_select(&select(sql), &ctx, None).map(|rel| rel.rows.len()).unwrap_err();
            assert_eq!(err, Error::Cancelled, "{operator} at {threads} thread(s)");
            let calls = udf.calls.load(Ordering::SeqCst);
            let bound = K + (MORSEL_ROWS * threads) as u64;
            assert!(
                (K..=bound).contains(&calls),
                "{operator} at {threads} thread(s): {calls} invocations, bound {bound}"
            );
        }
    }
}

/// An expensive UDF: its results are kept in the context's statement store.
struct Pricey;

impl ScalarUdf for Pricey {
    fn name(&self) -> &str {
        "pricey"
    }
    fn invoke(&self, args: &[Value]) -> swan_sqlengine::Result<Value> {
        Ok(args[0].clone())
    }
    fn is_expensive(&self) -> bool {
        true
    }
}

fn addr(ctx: &ExecCtx<'_>) -> usize {
    ctx as *const ExecCtx<'_> as usize
}

const THRESHOLD: usize = swan_sqlengine::optimizer::DEFAULT_PARALLEL_THRESHOLD;

fn threads(threads: usize) -> OptimizerConfig {
    OptimizerConfig { threads, ..Default::default() }
}

/// Assert that `try_morsels(count, ctx, …)` runs inline: on the calling
/// thread, on the caller's own context, over in-order `MORSEL_ROWS` ranges.
fn assert_inline(count: usize, ctx: &ExecCtx<'_>) {
    let (caller, caller_ctx) = (std::thread::current().id(), addr(ctx));
    let ranges = try_morsels(count, ctx, |range, wctx| {
        assert!(!swan_pool::is_pool_worker());
        assert_eq!(std::thread::current().id(), caller);
        assert_eq!(addr(wctx), caller_ctx, "no worker context: the caller's own");
        Ok(range)
    })
    .unwrap();
    let mut next = 0;
    for range in &ranges {
        assert_eq!(range.start, next, "in order, no gaps");
        assert!(!range.is_empty() && range.len() <= MORSEL_ROWS);
        next = range.end;
    }
    assert_eq!(next, count);
}

/// The gate reads the count it is handed before anything else: below
/// `parallel_threshold` a loop is the serial engine, however many threads
/// are configured.
#[test]
fn a_count_below_the_threshold_runs_on_the_calling_thread_and_context() {
    let mut db = database();
    db.register_udf(Arc::new(Pricey));
    let ctx = ExecCtx::new(db.catalog(), db.udfs()).with_optimizer(threads(8));
    for count in [0, 1, 2 * MORSEL_ROWS + 452, THRESHOLD - 1] {
        assert_inline(count, &ctx);
    }
    // What an inline range computes lands in the caller's own store.
    let probe = select("SELECT pricey(7)");
    try_morsels(2, &ctx, |_, wctx| run_select(&probe, wctx, None)).unwrap();
    assert_eq!(ctx.udf_results.borrow().get("pricey").map(|m| m.len()), Some(1));
}

#[test]
fn a_count_at_the_threshold_reaches_the_pool_unless_one_thread_is_configured() {
    let db = database();
    for workers in [2usize, 8] {
        let ctx = ExecCtx::new(db.catalog(), db.udfs()).with_optimizer(threads(workers));
        let caller_ctx = addr(&ctx);
        let ranges = try_morsels(THRESHOLD, &ctx, |range, wctx| {
            assert!(swan_pool::is_pool_worker(), "{workers} threads: every morsel on a worker");
            assert_ne!(addr(wctx), caller_ctx, "a worker-local context");
            Ok(range)
        })
        .unwrap();
        // Per-morsel outputs come back in morsel order, whoever ran them.
        assert!(ranges.len() >= 2);
        assert_eq!(ranges.first().map(|r| r.start), Some(0));
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
        assert_eq!(ranges.last().map(|r| r.end), Some(THRESHOLD));
    }
    let ctx = ExecCtx::new(db.catalog(), db.udfs()).with_optimizer(threads(1));
    assert_inline(THRESHOLD, &ctx);
    assert_inline(8 * THRESHOLD, &ctx);
}

/// A cheap (per-row, never batched) UDF that records where it was invoked.
#[derive(Default)]
struct WhereAmI {
    on_pool: AtomicUsize,
    off_pool: AtomicUsize,
}

impl WhereAmI {
    /// `(invocations on a pool worker, invocations elsewhere)` since the
    /// last call.
    fn take(&self) -> (usize, usize) {
        (self.on_pool.swap(0, Ordering::SeqCst), self.off_pool.swap(0, Ordering::SeqCst))
    }
}

impl ScalarUdf for WhereAmI {
    fn name(&self) -> &str {
        "where_am_i"
    }
    fn invoke(&self, _args: &[Value]) -> swan_sqlengine::Result<Value> {
        let counter = if swan_pool::is_pool_worker() { &self.on_pool } else { &self.off_pool };
        counter.fetch_add(1, Ordering::SeqCst);
        Ok(Value::Integer(1))
    }
}

/// The gate is per loop, not per plan: the same statement over the same
/// 8-morsel table projects (or groups) inline when its filter leaves fewer
/// rows than the threshold, and fans out without the filter. A gate on the
/// plan's largest base table fanned out both.
#[test]
fn a_selective_filter_keeps_the_loops_above_it_inline() {
    let mut db = database();
    let udf = Arc::new(WhereAmI::default());
    db.register_udf(udf.clone());
    let ctx = ExecCtx::new(db.catalog(), db.udfs()).with_optimizer(threads(8));
    let statements = [
        ("projection", "SELECT where_am_i(id) + n FROM t {WHERE}"),
        ("expression GROUP BY key", "SELECT COUNT(*) FROM t {WHERE} GROUP BY where_am_i(id) + n"),
    ];
    // A PK range (served by the index) and a predicate only a scan answers.
    let filters = [("id < 100", 100), ("n * 2 = 6", (0..ROWS).filter(|i| i % 7 == 3).count())];
    for (operator, sql) in statements {
        for (filter, survivors) in filters {
            assert!(survivors < THRESHOLD);
            let filtered = sql.replace("{WHERE}", &format!("WHERE {filter}"));
            run_select(&select(&filtered), &ctx, None).unwrap();
            assert_eq!(udf.take(), (0, survivors), "{operator} over {filter}");
        }
        run_select(&select(&sql.replace("{WHERE}", "")), &ctx, None).unwrap();
        assert_eq!(udf.take(), (ROWS as usize, 0), "{operator} over the whole table");
    }
}

/// A join residual holding an expensive UDF is probed inline whatever the
/// threshold says (fanned out, workers would repeat each other's calls);
/// the same join without the expensive call fans out.
#[test]
fn a_join_with_an_expensive_residual_stays_inline() {
    let mut db = database();
    let udf = Arc::new(WhereAmI::default());
    db.register_udf(udf.clone());
    db.register_udf(Arc::new(Pricey));
    let config = OptimizerConfig { threads: 8, parallel_threshold: 1, ..Default::default() };
    let ctx = ExecCtx::new(db.catalog(), db.udfs()).with_optimizer(config);
    let joins = [
        ("hash join", "t JOIN u ON t.n = u.k AND where_am_i(t.id + u.id) > 0", "t.id + u.id"),
        (
            "nested-loop join",
            "small s JOIN u ON s.k < u.k AND where_am_i(s.k + u.id) > 0",
            "s.k + u.id",
        ),
    ];
    for (operator, cheap, arg) in joins {
        run_select(&select(&format!("SELECT COUNT(*) FROM {cheap}")), &ctx, None).unwrap();
        let (candidates, off_pool) = udf.take();
        assert!(candidates > 0 && off_pool == 0, "{operator}, cheap residual: fans out");
        let pricey = format!("SELECT COUNT(*) FROM {cheap} AND pricey({arg}) >= 0");
        run_select(&select(&pricey), &ctx, None).unwrap();
        assert_eq!(udf.take(), (0, candidates), "{operator}, expensive residual: inline");
    }
}

#[test]
fn inline_dispatch_stops_at_the_first_failing_range() {
    let db = database();
    let ctx = ExecCtx::new(db.catalog(), db.udfs());
    let calls = AtomicUsize::new(0);
    let out = try_morsels(3 * MORSEL_ROWS, &ctx, |range, _| {
        calls.fetch_add(1, Ordering::SeqCst);
        if range.start == MORSEL_ROWS {
            return Err(Error::Semantic("second range".into()));
        }
        Ok(())
    });
    assert_eq!(out.unwrap_err(), Error::Semantic("second range".into()));
    assert_eq!(calls.load(Ordering::SeqCst), 2, "no range runs after a failed one");

    // A token fired inside a range is seen before the next one starts.
    let token = CancelToken::unbounded();
    let ctx = ExecCtx::new(db.catalog(), db.udfs()).with_cancel(token.clone());
    let calls = AtomicUsize::new(0);
    let out = try_morsels(3 * MORSEL_ROWS, &ctx, |_, _| {
        calls.fetch_add(1, Ordering::SeqCst);
        token.cancel();
        Ok(())
    });
    assert_eq!(out.unwrap_err(), Error::Cancelled);
    assert_eq!(calls.load(Ordering::SeqCst), 1);
}

/// A fixed pool must not wait on itself: dispatch from inside a morsel
/// worker (a subquery's own SELECT, say) runs inline on that worker's
/// context whatever count it is handed.
#[test]
fn dispatch_from_a_pool_worker_runs_inline() {
    let db = database();
    let config = OptimizerConfig { threads: 2, parallel_threshold: 1, ..Default::default() };
    let ctx = ExecCtx::new(db.catalog(), db.udfs()).with_optimizer(config);
    let nested = try_morsels(2, &ctx, |_, wctx| {
        assert!(swan_pool::is_pool_worker(), "two items at two threads reach the pool");
        let (worker, worker_ctx) = (std::thread::current().id(), addr(wctx));
        try_morsels(3 * MORSEL_ROWS, wctx, |range, inner| {
            assert_eq!(std::thread::current().id(), worker);
            assert_eq!(addr(inner), worker_ctx);
            Ok(range.len())
        })
    })
    .unwrap();
    assert_eq!(nested, vec![vec![MORSEL_ROWS; 3]; 2], "inline ranges are MORSEL_ROWS-sized");
}
