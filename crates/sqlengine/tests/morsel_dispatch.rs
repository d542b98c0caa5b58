//! The contract of `exec::for_each_morsel`, the one loop every operator
//! runs its rows through, and the cancellation cadence it gives them.
//!
//! Operators do not count rows between cancellation checks: a loop body
//! covers one range, and the loop checks the statement's token between
//! ranges. So a fired token is observed within one morsel, which this file
//! pins **without timing**: a cheap counting UDF cancels the statement's
//! own token on its k-th invocation, and the statement must fail with
//! `Error::Cancelled` after at most `k + MORSEL_ROWS` invocations.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use swan_pool::CancelToken;
use swan_sqlengine::ast::{SelectStmt, Statement};
use swan_sqlengine::exec::{for_each_morsel, run_select, ExecCtx, MORSEL_ROWS};
use swan_sqlengine::parser::parse_statement;
use swan_sqlengine::{Database, Error, ScalarUdf, Value};

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
fn every_operator_observes_a_fired_token_within_one_morsel() {
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
    for (operator, sql) in cases {
        let mut db = database();
        let token = CancelToken::unbounded();
        let udf = Arc::new(CancelAt { calls: AtomicU64::new(0), k: K, token: token.clone() });
        db.register_udf(udf.clone());
        let ctx = ExecCtx::new(db.catalog(), db.udfs()).with_cancel(token);
        let err = run_select(&select(sql), &ctx, None).map(|rel| rel.rows.len()).unwrap_err();
        assert_eq!(err, Error::Cancelled, "{operator}");
        let calls = udf.calls.load(Ordering::SeqCst);
        let bound = K + MORSEL_ROWS as u64;
        assert!((K..=bound).contains(&calls), "{operator}: {calls} invocations, bound {bound}");
    }
}

/// An expensive UDF: its per-row results are kept in the context's
/// statement answer table.
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

/// The loop covers `0..count` in order, in ranges no larger than
/// `MORSEL_ROWS`, on the calling thread — and what a range computes lands
/// in the caller's own statement answer table.
#[test]
fn ranges_cover_the_count_in_order_on_the_calling_thread() {
    let mut db = database();
    db.register_udf(Arc::new(Pricey));
    let ctx = ExecCtx::new(db.catalog(), db.udfs());
    let caller = std::thread::current().id();
    for count in [0, 1, MORSEL_ROWS, 2 * MORSEL_ROWS + 452, 8 * MORSEL_ROWS] {
        let mut ranges = Vec::new();
        for_each_morsel(count, &ctx, |range| {
            assert_eq!(std::thread::current().id(), caller);
            ranges.push(range);
            Ok(())
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
    // A call in a CASE branch is evaluated per row, and its answer lands
    // once in the statement's answer table.
    let probe = select("SELECT CASE WHEN 1 = 1 THEN pricey(7) END");
    for_each_morsel(2, &ctx, |_| run_select(&probe, &ctx, None).map(drop)).unwrap();
    let seven = Value::Integer(7);
    assert_eq!(ctx.udf_table("pricey"), vec![(vec![seven.clone()], Some(seven))]);
}

#[test]
fn the_first_failing_range_stops_the_loop() {
    let db = database();
    let ctx = ExecCtx::new(db.catalog(), db.udfs());
    let calls = AtomicUsize::new(0);
    let out = for_each_morsel(3 * MORSEL_ROWS, &ctx, |range| {
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
    let out = for_each_morsel(3 * MORSEL_ROWS, &ctx, |_| {
        calls.fetch_add(1, Ordering::SeqCst);
        token.cancel();
        Ok(())
    });
    assert_eq!(out.unwrap_err(), Error::Cancelled);
    assert_eq!(calls.load(Ordering::SeqCst), 1);
}

/// A cheap (never batched, never cached) UDF that counts its invocations
/// and fails on arguments at or above a limit, naming the argument.
struct CountingUdf {
    calls: AtomicU64,
    fail_from: i64,
}

impl ScalarUdf for CountingUdf {
    fn name(&self) -> &str {
        "counted"
    }
    fn invoke(&self, args: &[Value]) -> swan_sqlengine::Result<Value> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let n = args[0].as_i64().unwrap_or(0);
        if n >= self.fail_from {
            return Err(Error::Udf { name: "counted".into(), message: format!("refused {n}") });
        }
        Ok(Value::Integer(1))
    }
}

/// Work-count parity: each operator evaluates its expression exactly once
/// per unit of its input — table rows for a scan filter, surviving rows for
/// the projection, input rows for a GROUP BY key, key-matching candidate
/// pairs for a hash-join residual. A failing row stops the statement on the
/// spot, and the error it reports is that row's.
#[test]
fn operators_evaluate_once_per_input_and_the_first_failing_row_wins() {
    const ROWS: i64 = 3000;
    let build = |fail_from: i64| {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, k INTEGER)").unwrap();
        {
            let t = db.catalog_mut().get_mut("t").unwrap();
            for i in 0..ROWS {
                t.insert_row(vec![Value::Integer(i), Value::Integer(i % 7)]).unwrap();
            }
            let u = db.catalog_mut().get_mut("u").unwrap();
            for i in 0..10i64 {
                u.insert_row(vec![Value::Integer(i), Value::Integer(i % 5)]).unwrap();
            }
        }
        let udf = Arc::new(CountingUdf { calls: AtomicU64::new(0), fail_from });
        db.register_udf(udf.clone());
        (db, udf)
    };
    let surviving = (0..ROWS).filter(|i| i % 7 < 3).count() as u64;
    // `u` holds every key 0..5 twice.
    let candidate_pairs = 2 * (0..ROWS).filter(|i| i % 7 < 5).count() as u64;
    let cases = [
        ("SELECT id FROM t WHERE counted(id) > 0", ROWS as u64),
        ("SELECT counted(id) FROM t WHERE n < 3", surviving),
        ("SELECT COUNT(*) FROM t GROUP BY n * counted(id)", ROWS as u64),
        (
            "SELECT COUNT(*) FROM t JOIN u ON t.n = u.k AND counted(t.id + u.id) > 0",
            candidate_pairs,
        ),
    ];
    for (sql, expected) in cases {
        let (db, udf) = build(i64::MAX);
        db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(udf.calls.load(Ordering::SeqCst), expected, "invocations for {sql}");
    }

    // Rows 0..1499 pass; every later row fails, naming itself.
    let (db, udf) = build(1500);
    let err = db.query("SELECT id FROM t WHERE counted(id) > 0").unwrap_err();
    assert!(err.to_string().contains("refused 1500"), "{err}");
    assert_eq!(udf.calls.load(Ordering::SeqCst), 1501, "the filter stops at the failing row");
}
