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
//! after at most `k + MORSEL_ROWS × partitions` invocations.

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

#[test]
fn one_partition_runs_on_the_calling_thread_and_context() {
    let mut db = database();
    db.register_udf(Arc::new(Pricey));
    let ctx = ExecCtx::new(db.catalog(), db.udfs());
    let (caller, caller_ctx) = (std::thread::current().id(), addr(&ctx));
    let probe = select("SELECT pricey(7)");

    let count = 2 * MORSEL_ROWS + 452;
    for partitions in [0usize, 1] {
        let ranges = try_morsels(count, partitions, &ctx, |range, wctx| {
            assert!(!swan_pool::is_pool_worker());
            assert_eq!(std::thread::current().id(), caller);
            assert_eq!(addr(wctx), caller_ctx, "no worker context: the caller's own");
            run_select(&probe, wctx, None)?;
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
    // Computed inside the closure, found in the caller's store.
    assert_eq!(ctx.udf_results.borrow().get("pricey").map(|m| m.len()), Some(1));
    assert!(try_morsels(0, 1, &ctx, |range, _| Ok(range)).unwrap().is_empty());
}

#[test]
fn inline_dispatch_stops_at_the_first_failing_range() {
    let db = database();
    let ctx = ExecCtx::new(db.catalog(), db.udfs());
    let calls = AtomicUsize::new(0);
    let out = try_morsels(5 * MORSEL_ROWS, 1, &ctx, |range, _| {
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
    let out = try_morsels(5 * MORSEL_ROWS, 1, &ctx, |_, _| {
        calls.fetch_add(1, Ordering::SeqCst);
        token.cancel();
        Ok(())
    });
    assert_eq!(out.unwrap_err(), Error::Cancelled);
    assert_eq!(calls.load(Ordering::SeqCst), 1);
}

/// A fixed pool must not wait on itself: dispatch from inside a morsel
/// worker (a subquery's own SELECT, say) runs inline on that worker's
/// context whatever partition count it is handed.
#[test]
fn dispatch_from_a_pool_worker_runs_inline() {
    let db = database();
    let ctx = ExecCtx::new(db.catalog(), db.udfs());
    let nested = try_morsels(2, 2, &ctx, |_, wctx| {
        if !swan_pool::is_pool_worker() {
            return Ok(None);
        }
        let (worker, worker_ctx) = (std::thread::current().id(), addr(wctx));
        let ranges = try_morsels(3 * MORSEL_ROWS, 8, wctx, |range, inner| {
            assert_eq!(std::thread::current().id(), worker);
            assert_eq!(addr(inner), worker_ctx);
            Ok(range.len())
        })?;
        Ok(Some(ranges))
    })
    .unwrap();
    let on_workers: Vec<_> = nested.into_iter().flatten().collect();
    assert!(!on_workers.is_empty(), "two morsels at two partitions must reach the pool");
    for ranges in on_workers {
        assert_eq!(ranges, vec![MORSEL_ROWS; 3], "inline ranges are MORSEL_ROWS-sized");
    }
}
