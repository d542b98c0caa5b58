//! The in-place write path: UPDATE/DELETE locate rows through the PK
//! access path, patch the table in place and carry its PK index, ordered
//! permutation and column vectors into the next version.
//!
//! * **patched ≡ rebuilt** — random DML sequences through auto-commit and
//!   `Session` transactions (some committing by rebase); after every
//!   commit the live table's derived structures answer exactly as ones
//!   rebuilt from its rows, and a full-scan, row-at-a-time reference
//!   database holds the same rows.
//! * **snapshots never see a patch** — copy-on-write, pinned by answers
//!   and by `Arc` identity of what a write must not copy.
//! * **O(change)** — pinned without a clock, by counting UDF calls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use swan_sqlengine::columnar::{ColumnData, ColumnSet};
use swan_sqlengine::value::Value;
use swan_sqlengine::{Error, OptimizerConfig, Result, ScalarUdf, Session, SharedDb, Table};

/// The scan-only, row-at-a-time engine: DML finds its rows by evaluating
/// WHERE on every row, reads never touch a column vector.
fn reference_config() -> OptimizerConfig {
    OptimizerConfig { index_scan: false, columnar: false, threads: 1, ..Default::default() }
}

/// One column per columnar class: `n` I64, `flag` Bool, `r` F64, `s` Text
/// (dictionary), `m` Mixed from the first rows on.
fn seeded(config: OptimizerConfig) -> SharedDb {
    let db = SharedDb::new();
    db.set_optimizer(config);
    db.execute(
        "CREATE TABLE w (id INTEGER PRIMARY KEY, n INTEGER, flag INTEGER, r REAL, s TEXT, m)",
    )
    .unwrap();
    let rows: Vec<String> = (0..24)
        .map(|i| {
            let m = if i % 2 == 0 { format!("{i}") } else { format!("'m{i}'") };
            format!("({i}, {}, {}, {}.5, 'rep-{}', {m})", i * 10, i % 2, i, i % 3)
        })
        .collect();
    db.execute(&format!("INSERT INTO w VALUES {}", rows.join(", "))).unwrap();
    db
}

/// Exact cell identity (`Value`'s own `==` is sort-order equality, under
/// which `Integer(1) == Real(1.0)`).
fn same_cell(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Integer(x), Value::Integer(y)) => x == y,
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        (Value::Text(x), Value::Text(y)) => x == y,
        _ => false,
    }
}

fn live(db: &SharedDb) -> Arc<Table> {
    db.snapshot().catalog().get("w").expect("table w").clone()
}

/// Every derived structure of `t` against one rebuilt from its rows.
/// Calling the accessors also leaves the caches built, so the next
/// statement has something to carry.
fn check_derived(t: &Table, context: &str) {
    // The rows are a valid table: re-inserting them one by one succeeds.
    let pk: Vec<String> = t.primary_key.iter().map(|&i| t.columns[i].name.clone()).collect();
    let mut rebuilt = Table::new(t.name.clone(), t.columns.clone(), &pk).unwrap();
    for row in t.rows() {
        rebuilt.insert_shared_row(row.clone()).unwrap_or_else(|e| panic!("{context}: {e}"));
    }
    assert_eq!(rebuilt.rows(), t.rows(), "{context}");

    // PK index: present keys map to their slot, absent keys to nothing.
    for (slot, row) in t.rows().iter().enumerate() {
        let key = t.pk_values_of(row);
        assert_eq!(t.pk_row_index(&key), Some(slot as u32), "{context}: key {key:?}");
    }
    for absent in -3i64..60 {
        let key = [Value::Integer(absent)];
        let linear = t.rows().iter().position(|r| r[0].group_key() == key[0].group_key());
        assert_eq!(t.pk_row_index(&key).map(|i| i as usize), linear, "{context}: probe {absent}");
    }

    // Ordered permutation: a fresh sort of the rebuilt table.
    assert_eq!(t.ordered_pk(), rebuilt.ordered_pk(), "{context}: ordered_pk");

    // Column set: cell for cell what a transpose of the rows answers.
    let (carried, fresh) = (t.column_set(), ColumnSet::from_rows(t.rows(), t.width()));
    assert_eq!((carried.len(), carried.width()), (fresh.len(), fresh.width()), "{context}");
    for j in 0..t.width() {
        let (c, f) = (&carried.columns[j], &fresh.columns[j]);
        for (i, row) in t.rows().iter().enumerate() {
            assert!(same_cell(&c.value_at(i), &row[j]), "{context}: value_at({i},{j})");
            assert_eq!(c.group_key_at(i), f.group_key_at(i), "{context}: group_key_at({i},{j})");
            assert_eq!(c.join_key_at(i), f.join_key_at(i), "{context}: join_key_at({i},{j})");
        }
    }
}

const PROBES: &[&str] = &[
    "SELECT * FROM w",
    "SELECT id, n FROM w WHERE id = 7",
    "SELECT id, s FROM w WHERE id >= 5 AND id < 15",
    "SELECT COUNT(*), SUM(n), MIN(n), MAX(n), AVG(r), TOTAL(r) FROM w",
    "SELECT flag, COUNT(*), SUM(n), MIN(s), MAX(s) FROM w GROUP BY flag ORDER BY flag",
    "SELECT s, COUNT(*), SUM(r) FROM w WHERE n >= 50 GROUP BY s ORDER BY s",
    "SELECT id FROM w WHERE flag AND n IS NOT NULL ORDER BY id",
    "SELECT id FROM w WHERE s = 'rep-1' OR r IS NULL ORDER BY id",
    "SELECT id, m FROM w WHERE m > 5 ORDER BY id",
    "SELECT id FROM w ORDER BY id DESC LIMIT 3",
];

/// The probe queries answer identically on every read path.
fn check_reads(db: &SharedDb, context: &str) {
    let mut snap = db.snapshot();
    let mut want: Option<Vec<Vec<Vec<Value>>>> = None;
    for (columnar, index_scan) in [(false, false), (true, false), (false, true), (true, true)] {
        snap.set_optimizer(OptimizerConfig { columnar, index_scan, ..Default::default() });
        let got: Vec<Vec<Vec<Value>>> = PROBES
            .iter()
            .map(|sql| {
                let r = snap.query(sql).unwrap_or_else(|e| panic!("{context}: {sql}: {e}"));
                r.rows.iter().map(|row| row.to_vec()).collect()
            })
            .collect();
        match &want {
            None => want = Some(got),
            Some(want) => {
                for ((sql, w), g) in PROBES.iter().zip(want).zip(&got) {
                    let equal = w.len() == g.len()
                        && w.iter().zip(g).all(|(a, b)| {
                            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_cell(x, y))
                        });
                    assert!(
                        equal,
                        "{context}: {sql} under columnar={columnar} index_scan={index_scan}:\n\
                         {g:?}\nvs reference\n{w:?}"
                    );
                }
            }
        }
    }
}

/// One generated statement. `fresh` numbers strings no earlier statement
/// used.
fn statement(kind: u8, a: i64, b: i64, c: i64, fresh: u64) -> String {
    match kind {
        0 => format!("INSERT INTO w VALUES ({a}, {b}, {}, {c}.25, 'rep-{}', {b})", b % 2, c % 3),
        1 => format!(
            "INSERT INTO w VALUES ({}, 1, 1, 1.0, 'fresh-{fresh}', 'x'), \
             ({}, NULL, NULL, NULL, NULL, NULL)",
            a + 100,
            a + 200
        ),
        2 => format!("UPDATE w SET n = {b} WHERE id = {a}"),
        3 => format!(
            "UPDATE w SET n = n + 1, s = 'fresh-{fresh}' WHERE id >= {a} AND id < {}",
            a + c
        ),
        4 => format!("UPDATE w SET flag = 1 - flag WHERE n % 3 = {}", c % 3),
        5 => "UPDATE w SET r = r + 0.5".to_string(),
        6 => format!("UPDATE w SET id = id + {} WHERE id >= {a}", c + 1),
        7 => "UPDATE w SET id = id + 1".to_string(),
        8 => format!("UPDATE w SET id = {b} WHERE id = {a}"),
        9 => format!("UPDATE w SET n = 'text-{b}' WHERE id = {a}"),
        10 => format!("UPDATE w SET flag = 2 WHERE id = {a}"),
        11 => format!("UPDATE w SET n = NULL, r = NULL, s = NULL WHERE id = {a}"),
        12 => format!("UPDATE w SET s = 'rep-{}', m = {b} WHERE id <= {a}", c % 3),
        13 => format!("UPDATE w SET r = {b} WHERE id = {a}"),
        14 => format!("DELETE FROM w WHERE id = {a}"),
        15 => format!("DELETE FROM w WHERE id BETWEEN {a} AND {}", a + c % 4),
        16 => format!("DELETE FROM w WHERE n % 7 = {}", c % 7),
        17 => format!("UPDATE w SET n = 1 WHERE id = {}", a + 1000),
        _ => format!("UPDATE w SET s = 'fresh-{fresh}' WHERE id = {a} OR id = {b}"),
    }
}
const KINDS: u8 = 19;

/// The same statement on both databases must agree on the outcome.
fn run_both(
    sql: &str,
    live_side: &mut dyn FnMut(&str) -> Result<usize>,
    reference_side: &mut dyn FnMut(&str) -> Result<usize>,
) {
    match (live_side(sql), reference_side(sql)) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{sql}: rows affected"),
        (Err(a), Err(b)) => assert_eq!(
            std::mem::discriminant(&a),
            std::mem::discriminant(&b),
            "{sql}: {a} vs {b}"
        ),
        (a, b) => panic!("{sql}: index path {a:?}, scan path {b:?}"),
    }
}

fn affected(r: Result<swan_sqlengine::QueryResult>) -> Result<usize> {
    r.map(|r| r.rows_affected)
}

fn check_all(db: &SharedDb, reference: &SharedDb, context: &str) {
    let (t, r) = (live(db), live(reference));
    assert_eq!(t.rows(), r.rows(), "{context}: index-located rows differ from full-scan rows");
    check_derived(&t, context);
    check_reads(db, context);
}

proptest! {
    /// Random DML, auto-committed: after every statement the carried
    /// structures equal rebuilt ones and every read path agrees.
    #[test]
    fn patched_equals_rebuilt_autocommit(
        ops in proptest::collection::vec((0u8..KINDS, 0i64..30, 0i64..30, 0i64..8), 1..24),
    ) {
        let (db, reference) = (seeded(OptimizerConfig::default()), seeded(reference_config()));
        check_all(&db, &reference, "seed");
        for (step, (kind, a, b, c)) in ops.into_iter().enumerate() {
            let sql = statement(kind, a, b, c, step as u64);
            run_both(
                &sql,
                &mut |s| affected(db.execute(s)),
                &mut |s| affected(reference.execute(s)),
            );
            check_all(&db, &reference, &format!("step {step}: {sql}"));
        }
    }

    /// The same through `Session` transactions of a few statements each.
    /// Every other transaction has a row committed under it by another
    /// session after its `BEGIN`, so its commit is a rebase onto a table
    /// version it never saw.
    #[test]
    fn patched_equals_rebuilt_in_transactions(
        ops in proptest::collection::vec((0u8..KINDS, 0i64..30, 0i64..30, 0i64..8), 3..24),
    ) {
        let (db, reference) = (seeded(OptimizerConfig::default()), seeded(reference_config()));
        let (mut s, mut rs): (Session, Session) = (db.session(), reference.session());
        for (round, chunk) in ops.chunks(3).enumerate() {
            run_both("BEGIN", &mut |q| affected(s.execute(q)), &mut |q| affected(rs.execute(q)));
            if round % 2 == 1 {
                let other =
                    format!("INSERT INTO w VALUES ({}, 0, 0, 0.0, 'other', 0)", 5000 + round);
                run_both(
                    &other,
                    &mut |q| affected(db.execute(q)),
                    &mut |q| affected(reference.execute(q)),
                );
            }
            for (i, (kind, a, b, c)) in chunk.iter().enumerate() {
                let sql = statement(*kind, *a, *b, *c, (round * 3 + i) as u64);
                // A failed statement leaves the transaction open and untouched.
                run_both(&sql, &mut |q| affected(s.execute(q)), &mut |q| affected(rs.execute(q)));
            }
            run_both("COMMIT", &mut |q| affected(s.execute(q)), &mut |q| affected(rs.execute(q)));
            check_all(&db, &reference, &format!("after transaction {round}: {chunk:?}"));
        }
    }
}

/// A transaction whose table changed under it commits by rebasing its
/// row patch onto the live version; the carried structures of the
/// rebased table are those of the live one, patched.
#[test]
fn rebase_patches_the_live_version() {
    let (db, reference) = (seeded(OptimizerConfig::default()), seeded(reference_config()));
    check_all(&db, &reference, "seed");
    for side in [&db, &reference] {
        let mut s = side.session();
        s.execute("BEGIN").unwrap();
        s.execute("UPDATE w SET n = -1, s = 'txn' WHERE id = 3").unwrap();
        s.execute("DELETE FROM w WHERE id = 4").unwrap();
        s.execute("INSERT INTO w VALUES (40, 4, 0, 4.0, 'txn', 4)").unwrap();
        side.execute("UPDATE w SET n = -2, s = 'auto' WHERE id = 5").unwrap();
        side.execute("INSERT INTO w VALUES (41, 4, 0, 4.0, 'auto', 4)").unwrap();
        s.execute("COMMIT").expect("row-disjoint commit rebases");
    }
    check_all(&db, &reference, "after rebase");
    let r = db.query("SELECT id, n FROM w WHERE id IN (3, 4, 5, 40, 41) ORDER BY id").unwrap();
    let got: Vec<(i64, i64)> =
        r.rows.iter().map(|row| (row[0].as_i64().unwrap(), row[1].as_i64().unwrap())).collect();
    assert_eq!(got, vec![(3, -1), (5, -2), (40, 4), (41, 4)]);
}

/// Copy-on-write: a snapshot taken — and scanned, so its column cache
/// exists — before a run of updates answers as it did, through the row
/// and the columnar path, while the live handle answers anew; and a
/// non-key update copies only what it changes.
#[test]
fn snapshots_never_observe_a_patch() {
    let db = seeded(OptimizerConfig::default());
    let scan = "SELECT flag, COUNT(*), SUM(n), MIN(s), MAX(s) FROM w GROUP BY flag ORDER BY flag";
    let point = "SELECT n, s FROM w WHERE id = 7";
    let mut snap = db.snapshot();
    let answers = |d: &swan_sqlengine::Database| -> Vec<Vec<Vec<Value>>> {
        [scan, point, "SELECT * FROM w"]
            .iter()
            .map(|q| d.query(q).unwrap().rows.iter().map(|r| r.to_vec()).collect())
            .collect()
    };
    let original = answers(&snap);
    let pinned = snap.catalog().get("w").unwrap().clone();
    let (pinned_cols, pinned_order) = (pinned.column_set(), pinned.ordered_pk().unwrap());

    let mut previous = pinned.clone();
    for k in 0..48i64 {
        db.execute(&format!("UPDATE w SET n = n + 1000, s = 'patched-{k}' WHERE id = {}", k % 24))
            .unwrap();
        let next = live(&db);
        // `n` and `s` were written; every other column vector, the PK
        // order and (unit-tested in storage.rs) the PK index are shared
        // with the version before, not copied.
        let (before, after) = (previous.column_set(), next.column_set());
        for j in [0, 2, 3, 5] {
            assert!(Arc::ptr_eq(&before.columns[j], &after.columns[j]), "update {k}: column {j}");
        }
        for j in [1, 4] {
            assert!(!Arc::ptr_eq(&before.columns[j], &after.columns[j]), "update {k}: column {j}");
        }
        assert!(Arc::ptr_eq(&previous.ordered_pk().unwrap(), &next.ordered_pk().unwrap()));
        previous = next;
    }

    for columnar in [true, false] {
        snap.set_optimizer(OptimizerConfig { columnar, ..Default::default() });
        assert_eq!(answers(&snap), original, "snapshot answers moved (columnar={columnar})");
    }
    assert!(Arc::ptr_eq(&pinned_cols, &pinned.column_set()), "the snapshot keeps its own vectors");
    assert!(Arc::ptr_eq(&pinned_order, &pinned.ordered_pk().unwrap()));
    check_derived(&pinned, "pinned snapshot");
    let now = answers(&db.snapshot());
    assert_ne!(now, original, "the live handle sees the updates");
    assert_eq!(now[1], vec![vec![Value::Integer(2070), Value::text("patched-31")]]);
    check_derived(&live(&db), "live after updates");
}

/// Fresh strings written in place leave dead dictionary entries behind;
/// their number is bounded, so a text column's scans stay O(rows).
#[test]
fn dictionary_dead_entries_are_bounded() {
    let db = seeded(OptimizerConfig::default());
    let n = live(&db).len();
    let mut largest = 0;
    for k in 0..10 * n {
        live(&db).column_set();
        db.execute(&format!("UPDATE w SET s = 'unique-{k}' WHERE id = {}", k % n)).unwrap();
        if let ColumnData::Text { dict, .. } = &live(&db).column_set().columns[4].data {
            largest = largest.max(dict.len());
        }
    }
    assert!(largest > n, "in-place writes do append to the dictionary ({largest})");
    assert!(largest <= 3 * n + 16, "dictionary grew to {largest} entries over {n} rows");
    check_derived(&live(&db), "after 10n fresh strings");
}

/// `counted(tag, v)` returns `v` and counts its calls per tag.
#[derive(Default)]
struct Counted {
    filter: AtomicU64,
    set: AtomicU64,
}

impl ScalarUdf for Counted {
    fn name(&self) -> &str {
        "counted"
    }

    fn arity(&self) -> Option<usize> {
        Some(2)
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        match args[0].as_str() {
            Some("filter") => self.filter.fetch_add(1, Ordering::Relaxed),
            Some("set") => self.set.fetch_add(1, Ordering::Relaxed),
            other => return Err(Error::Semantic(format!("counted: unknown tag {other:?}"))),
        };
        Ok(args[1].clone())
    }
}

impl Counted {
    fn take(&self) -> (u64, u64) {
        (self.filter.swap(0, Ordering::Relaxed), self.set.swap(0, Ordering::Relaxed))
    }
}

/// A statement that pins k rows by primary key evaluates WHERE and SET k
/// times on an n-row table; the scan-only reference evaluates WHERE n
/// times and ends with identical rows.
#[test]
fn dml_evaluates_only_the_rows_its_key_bounds_admit() {
    const N: u64 = 20_000;
    let build = |config: OptimizerConfig| {
        let db = SharedDb::new();
        db.set_optimizer(config);
        let udf = Arc::new(Counted::default());
        db.register_udf(udf.clone());
        db.execute("CREATE TABLE big (id INTEGER PRIMARY KEY, v INTEGER)").unwrap();
        for base in (0..N).step_by(2000) {
            let rows: Vec<String> = (base..base + 2000).map(|i| format!("({i}, 1)")).collect();
            db.execute(&format!("INSERT INTO big VALUES {}", rows.join(", "))).unwrap();
        }
        (db, udf)
    };
    let (db, calls) = build(OptimizerConfig::default());
    let (reference, reference_calls) = build(reference_config());

    // `counted('filter', v)` comes first in the conjunction, so AND's
    // short circuit cannot hide a visit: every visited row calls it.
    let statements: [(&str, u64); 4] = [
        ("UPDATE big SET v = counted('set', v) + 1 WHERE counted('filter', v) AND id = 4321", 1),
        ("DELETE FROM big WHERE counted('filter', v) AND id = 77", 1),
        (
            "UPDATE big SET v = counted('set', v) + 1 \
             WHERE counted('filter', v) AND id >= 100 AND id < 140",
            40,
        ),
        ("DELETE FROM big WHERE counted('filter', v) AND id BETWEEN 200 AND 209", 10),
    ];
    let mut rows_left = N;
    for (sql, k) in statements {
        assert_eq!(db.execute(sql).unwrap().rows_affected as u64, k, "{sql}");
        assert_eq!(reference.execute(sql).unwrap().rows_affected as u64, k, "{sql}");
        let set_calls = if sql.starts_with("UPDATE") { k } else { 0 };
        assert_eq!(calls.take(), (k, set_calls), "index path: {sql}");
        assert_eq!(reference_calls.take(), (rows_left, set_calls), "scan path: {sql}");
        if sql.starts_with("DELETE") {
            rows_left -= k;
        }
    }
    let all = "SELECT id, v FROM big";
    assert_eq!(db.query(all).unwrap().rows, reference.query(all).unwrap().rows);
    assert_eq!(db.row_count("big"), Some((N - 11) as usize));
}
