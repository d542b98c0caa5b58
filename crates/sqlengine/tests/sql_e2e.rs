//! End-to-end SQL execution tests for the engine: every operator the SWAN
//! benchmark queries rely on, exercised through the public `Database` API.

use std::sync::Arc;

use swan_sqlengine::value::Value;
use swan_sqlengine::{Database, Error, OptimizerConfig, ScalarUdf};

/// A small two-table fixture mirroring the paper's motivating example.
fn hero_db() -> Database {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE superhero (
             id INTEGER PRIMARY KEY,
             hero_name TEXT,
             full_name TEXT,
             publisher_id INTEGER,
             height_cm INTEGER
         );
         CREATE TABLE publisher (id INTEGER PRIMARY KEY, publisher_name TEXT);
         INSERT INTO publisher VALUES (1, 'Marvel Comics'), (2, 'DC Comics'), (3, 'Dark Horse Comics');
         INSERT INTO superhero VALUES
             (1, 'Spider-Man', 'Peter Parker', 1, 178),
             (2, 'Batman', 'Bruce Wayne', 2, 188),
             (3, 'Superman', 'Clark Kent', 2, 191),
             (4, 'Hellboy', 'Anung Un Rama', 3, 180),
             (5, 'Iron Man', 'Tony Stark', 1, 185),
             (6, 'Mystery', NULL, NULL, NULL);",
    )
    .unwrap();
    db
}

fn texts(db: &Database, sql: &str) -> Vec<String> {
    db.query(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.render()).collect::<Vec<_>>().join("|"))
        .collect()
}

#[test]
fn select_where_order_limit() {
    let db = hero_db();
    let rows = texts(
        &db,
        "SELECT hero_name FROM superhero WHERE height_cm > 180 ORDER BY height_cm DESC LIMIT 2",
    );
    assert_eq!(rows, vec!["Superman", "Batman"]);
}

#[test]
fn inner_join_with_alias() {
    let db = hero_db();
    let rows = texts(
        &db,
        "SELECT T1.hero_name FROM superhero AS T1 \
         JOIN publisher AS T2 ON T1.publisher_id = T2.id \
         WHERE T2.publisher_name = 'Marvel Comics' ORDER BY T1.hero_name",
    );
    assert_eq!(rows, vec!["Iron Man", "Spider-Man"]);
}

#[test]
fn left_join_pads_nulls() {
    let db = hero_db();
    let r = db
        .query(
            "SELECT s.hero_name, p.publisher_name FROM superhero s \
             LEFT JOIN publisher p ON s.publisher_id = p.id \
             WHERE p.publisher_name IS NULL",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0].render(), "Mystery");
    assert!(r.rows[0][1].is_null());
}

#[test]
fn group_by_having_count() {
    let db = hero_db();
    let rows = texts(
        &db,
        "SELECT p.publisher_name, COUNT(*) FROM superhero s \
         JOIN publisher p ON s.publisher_id = p.id \
         GROUP BY p.publisher_name HAVING COUNT(*) >= 2 \
         ORDER BY p.publisher_name",
    );
    assert_eq!(rows, vec!["DC Comics|2", "Marvel Comics|2"]);
}

#[test]
fn aggregates_over_whole_table() {
    let db = hero_db();
    let r = db
        .query(
            "SELECT COUNT(*), COUNT(height_cm), AVG(height_cm), MIN(height_cm), \
             MAX(height_cm), SUM(height_cm) FROM superhero",
        )
        .unwrap();
    let row = &r.rows[0];
    assert_eq!(row[0], Value::Integer(6));
    assert_eq!(row[1], Value::Integer(5), "COUNT(col) skips NULL");
    assert_eq!(row[2], Value::Real(184.4));
    assert_eq!(row[3], Value::Integer(178));
    assert_eq!(row[4], Value::Integer(191));
    assert_eq!(row[5], Value::Integer(922));
}

#[test]
fn aggregate_on_empty_input_yields_one_row() {
    let db = hero_db();
    let r = db.query("SELECT COUNT(*), MAX(height_cm) FROM superhero WHERE id > 100").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Integer(0));
    assert!(r.rows[0][1].is_null());
}

#[test]
fn count_distinct_and_group_concat() {
    let db = hero_db();
    let r = db.query("SELECT COUNT(DISTINCT publisher_id) FROM superhero").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(3));
    let r = db
        .query(
            "SELECT GROUP_CONCAT(hero_name, ', ') FROM superhero WHERE publisher_id = 1",
        )
        .unwrap();
    assert_eq!(r.rows[0][0].render(), "Spider-Man, Iron Man");
}

#[test]
fn distinct_dedupes() {
    let db = hero_db();
    let rows = texts(
        &db,
        "SELECT DISTINCT publisher_id FROM superhero WHERE publisher_id IS NOT NULL ORDER BY publisher_id",
    );
    assert_eq!(rows, vec!["1", "2", "3"]);
}

#[test]
fn order_by_alias_and_ordinal() {
    let db = hero_db();
    let rows = texts(&db, "SELECT hero_name AS h FROM superhero WHERE id <= 3 ORDER BY h");
    assert_eq!(rows, vec!["Batman", "Spider-Man", "Superman"]);
    let rows = texts(&db, "SELECT hero_name, height_cm FROM superhero WHERE id <= 3 ORDER BY 2 DESC");
    assert_eq!(rows[0], "Superman|191");
}

#[test]
fn order_by_expression_not_in_projection() {
    let db = hero_db();
    let rows = texts(
        &db,
        "SELECT hero_name FROM superhero WHERE height_cm IS NOT NULL ORDER BY height_cm LIMIT 1",
    );
    assert_eq!(rows, vec!["Spider-Man"]);
}

#[test]
fn limit_offset_both_forms() {
    let db = hero_db();
    let a = texts(&db, "SELECT id FROM superhero ORDER BY id LIMIT 2 OFFSET 1");
    let b = texts(&db, "SELECT id FROM superhero ORDER BY id LIMIT 1, 2");
    assert_eq!(a, vec!["2", "3"]);
    assert_eq!(a, b);
}

#[test]
fn in_subquery_and_scalar_subquery() {
    let db = hero_db();
    let rows = texts(
        &db,
        "SELECT hero_name FROM superhero WHERE publisher_id IN \
         (SELECT id FROM publisher WHERE publisher_name LIKE '%Marvel%') ORDER BY id",
    );
    assert_eq!(rows, vec!["Spider-Man", "Iron Man"]);
    let rows = texts(
        &db,
        "SELECT hero_name FROM superhero WHERE height_cm = \
         (SELECT MAX(height_cm) FROM superhero)",
    );
    assert_eq!(rows, vec!["Superman"]);
}

#[test]
fn correlated_subquery() {
    let db = hero_db();
    // Heroes taller than the average height of their own publisher.
    let rows = texts(
        &db,
        "SELECT s.hero_name FROM superhero s WHERE s.height_cm > \
         (SELECT AVG(h.height_cm) FROM superhero h WHERE h.publisher_id = s.publisher_id) \
         ORDER BY s.hero_name",
    );
    assert_eq!(rows, vec!["Iron Man", "Superman"]);
}

#[test]
fn exists_and_not_exists() {
    let db = hero_db();
    let rows = texts(
        &db,
        "SELECT p.publisher_name FROM publisher p WHERE EXISTS \
         (SELECT 1 FROM superhero s WHERE s.publisher_id = p.id AND s.height_cm > 190)",
    );
    assert_eq!(rows, vec!["DC Comics"]);
    let rows = texts(
        &db,
        "SELECT COUNT(*) FROM publisher p WHERE NOT EXISTS \
         (SELECT 1 FROM superhero s WHERE s.publisher_id = p.id)",
    );
    assert_eq!(rows, vec!["0"]);
}

#[test]
fn subquery_in_from() {
    let db = hero_db();
    let rows = texts(
        &db,
        "SELECT t.n FROM (SELECT publisher_id, COUNT(*) AS n FROM superhero \
         GROUP BY publisher_id) AS t WHERE t.publisher_id = 2",
    );
    assert_eq!(rows, vec!["2"]);
}

#[test]
fn compound_union_except_intersect() {
    let db = hero_db();
    let rows = texts(
        &db,
        "SELECT hero_name FROM superhero WHERE publisher_id = 1 \
         UNION SELECT hero_name FROM superhero WHERE height_cm > 184 ORDER BY 1",
    );
    assert_eq!(rows, vec!["Batman", "Iron Man", "Spider-Man", "Superman"]);
    let rows = texts(
        &db,
        "SELECT hero_name FROM superhero WHERE publisher_id = 2 \
         EXCEPT SELECT hero_name FROM superhero WHERE height_cm > 190",
    );
    assert_eq!(rows, vec!["Batman"]);
    let rows = texts(
        &db,
        "SELECT hero_name FROM superhero WHERE publisher_id = 2 \
         INTERSECT SELECT hero_name FROM superhero WHERE height_cm > 190",
    );
    assert_eq!(rows, vec!["Superman"]);
}

#[test]
fn case_when_in_projection() {
    let db = hero_db();
    let rows = texts(
        &db,
        "SELECT hero_name, CASE WHEN height_cm >= 185 THEN 'tall' \
         WHEN height_cm IS NULL THEN 'unknown' ELSE 'short' END FROM superhero ORDER BY id",
    );
    assert_eq!(rows[0], "Spider-Man|short");
    assert_eq!(rows[1], "Batman|tall");
    assert_eq!(rows[5], "Mystery|unknown");
}

#[test]
fn update_and_delete() {
    let mut db = hero_db();
    let r = db.execute("UPDATE superhero SET height_cm = height_cm + 1 WHERE publisher_id = 1").unwrap();
    assert_eq!(r.rows_affected, 2);
    assert_eq!(
        db.query("SELECT height_cm FROM superhero WHERE hero_name = 'Spider-Man'").unwrap().rows[0][0],
        Value::Integer(179)
    );
    let r = db.execute("DELETE FROM superhero WHERE publisher_id IS NULL").unwrap();
    assert_eq!(r.rows_affected, 1);
    assert_eq!(db.query("SELECT COUNT(*) FROM superhero").unwrap().rows[0][0], Value::Integer(5));
}

#[test]
fn insert_select_and_alter() {
    let mut db = hero_db();
    db.execute("CREATE TABLE tall (name TEXT)").unwrap();
    let r = db
        .execute("INSERT INTO tall SELECT hero_name FROM superhero WHERE height_cm > 184")
        .unwrap();
    assert_eq!(r.rows_affected, 3);
    db.execute("ALTER TABLE tall ADD COLUMN note TEXT").unwrap();
    let r = db.query("SELECT name, note FROM tall ORDER BY name").unwrap();
    assert_eq!(r.rows.len(), 3);
    assert!(r.rows[0][1].is_null());
}

#[test]
fn insert_named_columns_fills_null() {
    let mut db = hero_db();
    db.execute("INSERT INTO superhero (id, hero_name) VALUES (10, 'Flash')").unwrap();
    let r = db.query("SELECT full_name FROM superhero WHERE id = 10").unwrap();
    assert!(r.rows[0][0].is_null());
}

#[test]
fn pk_violation_reported() {
    let mut db = hero_db();
    let err = db.execute("INSERT INTO superhero VALUES (1, 'Dup', 'Dup', 1, 100)").unwrap_err();
    assert!(matches!(err, Error::Constraint(_)));
}

#[test]
fn udf_callable_from_sql() {
    struct Double;
    impl ScalarUdf for Double {
        fn name(&self) -> &str {
            "double_it"
        }
        fn invoke(&self, args: &[Value]) -> swan_sqlengine::Result<Value> {
            args[0].add(&args[0])
        }
        fn arity(&self) -> Option<usize> {
            Some(1)
        }
    }
    let mut db = hero_db();
    db.register_udf(Arc::new(Double));
    let r = db.query("SELECT double_it(height_cm) FROM superhero WHERE id = 1").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(356));
    assert!(db.query("SELECT double_it(1, 2)").is_err(), "arity enforced");
}

#[test]
fn optimizer_toggles_do_not_change_results() {
    let sql = "SELECT s.hero_name FROM superhero s \
               JOIN publisher p ON s.publisher_id = p.id \
               WHERE p.publisher_name LIKE '%Comics' AND s.height_cm > 180 \
               ORDER BY s.hero_name";
    let reference = texts(&hero_db(), sql);
    for pushdown in [false, true] {
        for fold in [false, true] {
            for reorder in [false, true] {
                let mut db = hero_db();
                db.set_optimizer(OptimizerConfig {
                    pushdown,
                    order_expensive_last: false,
                    fold_constants: fold,
                    reorder_joins: reorder,
                    prune_columns: fold,
                    batch_expensive_udfs: pushdown,
                    ..Default::default()
                });
                assert_eq!(
                    texts(&db, sql),
                    reference,
                    "pushdown={pushdown} fold={fold} reorder={reorder}"
                );
            }
        }
    }
}

/// Regression: a nested join chain in already-optimal written order (no
/// Permute masking column pruning) must compute its pruned emit indices
/// against the *post-prune* child schemas — the stale-index variant
/// panicked with index-out-of-bounds.
#[test]
fn pruned_nested_join_chain_projects_inner_column() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE a (x INTEGER, junk TEXT);
         CREATE TABLE b (y INTEGER);
         CREATE TABLE c (z INTEGER);
         INSERT INTO a VALUES (1, 'j');
         INSERT INTO b VALUES (1), (2);
         INSERT INTO c VALUES (1), (2), (3);",
    )
    .unwrap();
    let r = db
        .query("SELECT b.y FROM a JOIN b ON a.x = b.y JOIN c ON b.y = c.z")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Integer(1));
}

/// Regression: a correlated subquery inside a join's ON condition reads
/// combined-row columns the predicate tree itself never names; the
/// nested-loop scratch row must carry them.
#[test]
fn correlated_subquery_in_on_condition() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE a (x INTEGER);
         CREATE TABLE b (y INTEGER);
         CREATE TABLE t (k INTEGER);
         INSERT INTO a VALUES (1), (2);
         INSERT INTO b VALUES (10), (20);
         INSERT INTO t VALUES (10);",
    )
    .unwrap();
    let rows = texts(
        &db,
        "SELECT a.x, b.y FROM a LEFT JOIN b ON EXISTS \
         (SELECT 1 FROM t WHERE t.k = b.y) ORDER BY a.x",
    );
    assert_eq!(rows, vec!["1|10", "2|10"], "EXISTS must see b.y per pair");
}

/// Regression: an unqualified column that is ambiguous across the joined
/// tables must raise the same ambiguity error whether or not the optimizer
/// pushes/reorders predicates — it must never silently bind to one side.
#[test]
fn ambiguous_unqualified_column_errors_under_every_config() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE a (id INTEGER, x INTEGER);
         CREATE TABLE b (id INTEGER, y INTEGER);
         INSERT INTO a VALUES (5, 1);
         INSERT INTO b VALUES (9, 2);",
    )
    .unwrap();
    let sql = "SELECT x FROM a, b WHERE id > 3";
    for optimized in [false, true] {
        let mut db = db.clone();
        if !optimized {
            db.set_optimizer(OptimizerConfig {
                pushdown: false,
                order_expensive_last: false,
                fold_constants: false,
                reorder_joins: false,
                prune_columns: false,
                batch_expensive_udfs: false,
                ..Default::default()
            });
        }
        let err = db.query(sql).unwrap_err();
        assert!(
            matches!(&err, Error::Semantic(m) if m.contains("ambiguous")),
            "optimized={optimized}: expected ambiguity error, got {err:?}"
        );
    }
}

/// Regression: column pruning must compose with join reordering — a
/// worst-order COUNT(*) chain gets both a Permute (from reordering) and
/// pruned emission, and still counts correctly.
#[test]
fn count_star_over_reordered_chain() {
    let mut db = Database::new();
    db.execute_script(
        "CREATE TABLE big (id INTEGER PRIMARY KEY, grp INTEGER);
         CREATE TABLE mid (id INTEGER PRIMARY KEY);
         CREATE TABLE tiny (id INTEGER PRIMARY KEY);",
    )
    .unwrap();
    for i in 0..50 {
        db.execute(&format!("INSERT INTO big VALUES ({i}, {})", i % 5)).unwrap();
    }
    for i in 0..5 {
        db.execute(&format!("INSERT INTO mid VALUES ({i})")).unwrap();
    }
    db.execute("INSERT INTO tiny VALUES (0), (1)").unwrap();
    let sql = "SELECT COUNT(*) FROM big JOIN mid ON big.grp = mid.id \
               JOIN tiny ON mid.id = tiny.id";
    let on = db.query(sql).unwrap();
    let mut off_db = db.clone();
    off_db.set_optimizer(OptimizerConfig {
        pushdown: false,
        order_expensive_last: false,
        fold_constants: false,
        reorder_joins: false,
        prune_columns: false,
        batch_expensive_udfs: false,
        ..Default::default()
    });
    let off = off_db.query(sql).unwrap();
    assert_eq!(on.rows, off.rows);
    assert_eq!(on.rows[0][0], Value::Integer(20), "10 rows per matching grp x 2 tiny");
}

#[test]
fn select_without_from() {
    let db = Database::new();
    let r = db.query("SELECT 1 + 1, 'x' || 'y'").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(2));
    assert_eq!(r.rows[0][1].render(), "xy");
}

#[test]
fn three_table_join_chain() {
    let mut db = hero_db();
    db.execute_script(
        "CREATE TABLE power (hero_id INTEGER, power_name TEXT);
         INSERT INTO power VALUES (1, 'Wall Crawling'), (1, 'Spider Sense'),
             (3, 'Flight'), (5, 'Powered Armor');",
    )
    .unwrap();
    let rows = texts(
        &db,
        "SELECT s.hero_name, w.power_name, p.publisher_name \
         FROM superhero s JOIN power w ON w.hero_id = s.id \
         JOIN publisher p ON p.id = s.publisher_id \
         WHERE p.publisher_name = 'Marvel Comics' ORDER BY s.hero_name, w.power_name",
    );
    assert_eq!(
        rows,
        vec![
            "Iron Man|Powered Armor|Marvel Comics",
            "Spider-Man|Spider Sense|Marvel Comics",
            "Spider-Man|Wall Crawling|Marvel Comics",
        ]
    );
}

#[test]
fn cross_join_and_comma_join() {
    let db = hero_db();
    let r = db.query("SELECT COUNT(*) FROM publisher a CROSS JOIN publisher b").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(9));
    let r = db
        .query("SELECT COUNT(*) FROM publisher a, publisher b WHERE a.id = b.id")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(3));
}

#[test]
fn null_handling_in_where() {
    let db = hero_db();
    // NULL height: neither > 100 nor <= 100.
    let r = db.query("SELECT COUNT(*) FROM superhero WHERE height_cm > 100 OR height_cm <= 100").unwrap();
    assert_eq!(r.rows[0][0], Value::Integer(5));
}

#[test]
fn string_functions_in_queries() {
    let db = hero_db();
    let rows = texts(
        &db,
        "SELECT UPPER(SUBSTR(hero_name, 1, 3)) FROM superhero WHERE id = 1",
    );
    assert_eq!(rows, vec!["SPI"]);
}

#[test]
fn result_column_naming() {
    let db = hero_db();
    let r = db.query("SELECT hero_name, hero_name AS h, COUNT(*) FROM superhero").unwrap();
    assert_eq!(r.columns[0], "hero_name");
    assert_eq!(r.columns[1], "h");
    assert_eq!(r.columns[2], "COUNT(*)");
    // Function names are matched in any case; the header keeps the
    // user's spelling.
    let r = db.query("SELECT Upper(hero_name), lower(hero_name) FROM superhero WHERE id = 1").unwrap();
    assert_eq!(r.columns, vec!["Upper(hero_name)", "lower(hero_name)"]);
    assert_eq!(r.rows[0][0].render(), "SPIDER-MAN");
}

#[test]
fn union_all_keeps_duplicates() {
    let db = hero_db();
    let r = db
        .query("SELECT id FROM publisher UNION ALL SELECT id FROM publisher")
        .unwrap();
    assert_eq!(r.rows.len(), 6);
}

#[test]
fn qualified_wildcard_projection() {
    let db = hero_db();
    let r = db
        .query(
            "SELECT p.* FROM superhero s JOIN publisher p ON s.publisher_id = p.id WHERE s.id = 1",
        )
        .unwrap();
    assert_eq!(r.columns, vec!["id", "publisher_name"]);
    assert_eq!(r.rows[0][1].render(), "Marvel Comics");
}

#[test]
fn errors_are_reported_not_panics() {
    let mut db = hero_db();
    assert!(db.execute("SELECT nope FROM superhero").is_err());
    assert!(db.execute("SELECT * FROM missing_table").is_err());
    assert!(db.execute("CREATE TABLE superhero (x TEXT)").is_err());
    assert!(db.query("UPDATE superhero SET id = 1").is_err(), "query() rejects DML");
    assert!(db.execute("SELECT id FROM superhero ORDER BY 99").is_err());
}

/// A bare `Database` executes single statements; it cannot hold a
/// transaction. Transaction control is a typed error that names where
/// transactions live, and it leaves the catalog untouched — also in the
/// middle of a script, whose earlier statements stay applied.
#[test]
fn transaction_control_on_a_bare_database_is_a_typed_error() {
    let mut db = hero_db();
    let before = db.query("SELECT COUNT(*) FROM superhero").unwrap().scalar().cloned();
    for sql in ["BEGIN", "BEGIN TRANSACTION", "COMMIT", "ROLLBACK"] {
        let err = db.execute(sql).unwrap_err();
        assert!(
            matches!(&err, Error::Txn(m) if m.contains("session")),
            "{sql}: expected Error::Txn naming SharedDb::session(), got: {err}"
        );
    }
    let err = db.execute_script("CREATE TABLE side (x INTEGER); BEGIN; DROP TABLE side;");
    assert!(matches!(err, Err(Error::Txn(_))));
    assert!(db.catalog().contains("side"), "statements before the BEGIN already applied");
    assert_eq!(db.query("SELECT COUNT(*) FROM superhero").unwrap().scalar().cloned(), before);
}

// ---- batched expensive-UDF execution ---------------------------------------

/// An expensive UDF that records how it was driven: per-row `invoke`
/// tuples vs vectorized `invoke_batch` batches, and the tuples each batch
/// was handed. Deterministic per input.
struct CountingLlm {
    invokes: std::sync::atomic::AtomicU64,
    batches: std::sync::atomic::AtomicU64,
    batched_tuples: std::sync::atomic::AtomicU64,
    /// One entry per `invoke_batch`, its tuples rendered `a-b` in the
    /// order they arrived.
    received: std::sync::Mutex<Vec<Vec<String>>>,
}

impl CountingLlm {
    fn new() -> Arc<Self> {
        Arc::new(CountingLlm {
            invokes: Default::default(),
            batches: Default::default(),
            batched_tuples: Default::default(),
            received: Default::default(),
        })
    }

    fn tag(args: &[Value]) -> String {
        args.iter().map(Value::render).collect::<Vec<_>>().join("-")
    }
}

impl ScalarUdf for CountingLlm {
    fn name(&self) -> &str {
        "llm_tag"
    }
    fn invoke(&self, args: &[Value]) -> swan_sqlengine::Result<Value> {
        self.invokes.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(Value::text(format!("v:{}", Self::tag(args))))
    }
    fn invoke_batch(&self, rows: &[Vec<Value>]) -> swan_sqlengine::Result<Vec<Value>> {
        self.batches.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.batched_tuples
            .fetch_add(rows.len() as u64, std::sync::atomic::Ordering::SeqCst);
        let tags: Vec<String> = rows.iter().map(|args| Self::tag(args)).collect();
        let out = tags.iter().map(|tag| Value::text(format!("v:{tag}"))).collect();
        self.received.lock().unwrap().push(tags);
        Ok(out)
    }
    fn is_expensive(&self) -> bool {
        true
    }
}

/// A WHERE-clause expensive call is answered by ONE `invoke_batch` over
/// the distinct argument tuples of the rows surviving the cheap conjunct
/// — zero per-row invocations.
#[test]
fn where_clause_udf_is_batched() {
    let udf = CountingLlm::new();
    let mut db = hero_db();
    db.register_udf(udf.clone());
    let rows = texts(
        &db,
        "SELECT hero_name FROM superhero \
         WHERE height_cm > 180 AND llm_tag('p', publisher_id) = 'v:p-2' \
         ORDER BY hero_name",
    );
    assert_eq!(rows, vec!["Batman", "Superman"]);
    assert_eq!(udf.batches.load(std::sync::atomic::Ordering::SeqCst), 1);
    // Cheap conjunct first: only the 3 heroes above 180cm reach the batch
    // (publisher_ids 2, 2, 1), so 2 distinct tuples.
    assert_eq!(udf.batched_tuples.load(std::sync::atomic::Ordering::SeqCst), 2);
    assert_eq!(udf.invokes.load(std::sync::atomic::Ordering::SeqCst), 0);
}

/// The filter's batching contract: `WHERE cheap AND f(x)` hands
/// `invoke_batch` exactly the distinct `x` of the cheap conjuncts'
/// survivors, in first-seen order — whatever the filter sits on — and with
/// `batch_expensive_udfs: false` the same rows come back without a single
/// `invoke_batch`.
#[test]
fn filter_batches_exactly_the_cheap_survivors() {
    /// (sql, rows, the tuples of each `invoke_batch`, per-row invocations)
    type Case = (&'static str, &'static [&'static str], &'static [&'static [&'static str]], u64);
    let cases: [Case; 7] = [
        // Over a Scan (run below with the columnar kernels on and off):
        // heroes 2, 3, 5 are above 180cm, publisher_ids 2, 2, 1.
        (
            "SELECT hero_name FROM superhero \
             WHERE height_cm > 180 AND llm_tag('p', publisher_id) = 'v:p-2' ORDER BY id",
            &["Batman", "Superman"],
            &[&["p-2", "p-1"]],
            0,
        ),
        // Over an IndexScan: the PK range is re-checked as a cheap conjunct.
        (
            "SELECT hero_name FROM superhero \
             WHERE id BETWEEN 3 AND 5 AND llm_tag('p', publisher_id) = 'v:p-2' ORDER BY id",
            &["Superman"],
            &[&["p-2", "p-3", "p-1"]],
            0,
        ),
        // Over a join's output: predicates on the null-supplying side of a
        // LEFT JOIN stay above it.
        (
            "SELECT h.hero_name FROM superhero h LEFT JOIN publisher p ON h.publisher_id = p.id \
             WHERE p.id < 3 AND llm_tag('j', p.publisher_name) = 'v:j-DC Comics' ORDER BY h.id",
            &["Batman", "Superman"],
            &[&["j-Marvel Comics", "j-DC Comics"]],
            0,
        ),
        // Over a derived table.
        (
            "SELECT d.hero_name FROM (SELECT hero_name, publisher_id, height_cm FROM superhero) d \
             WHERE d.height_cm > 180 AND llm_tag('d', d.publisher_id) = 'v:d-2'",
            &["Batman", "Superman"],
            &[&["d-2", "d-1"]],
            0,
        ),
        // Inside a correlated subquery: one batch per outer row that has
        // survivors (publisher 3's only hero is not above 180cm).
        (
            "SELECT p.id, (SELECT COUNT(*) FROM superhero h WHERE h.publisher_id = p.id \
                 AND h.height_cm > 180 AND llm_tag('c', h.hero_name) LIKE 'v:c-%') \
             FROM publisher p ORDER BY p.id",
            &["1|1", "2|2", "3|0"],
            &[&["c-Iron Man"], &["c-Batman", "c-Superman"]],
            0,
        ),
        // Two expensive conjuncts are both prefetched over the same
        // survivors, although per-row AND would skip the second for Iron
        // Man.
        (
            "SELECT hero_name FROM superhero WHERE height_cm > 180 \
             AND llm_tag('a', publisher_id) = 'v:a-2' AND llm_tag('b', hero_name) LIKE 'v:b-S%'",
            &["Superman"],
            &[&["a-2", "a-1"], &["b-Batman", "b-Superman", "b-Iron Man"]],
            0,
        ),
        // A site on the right of OR is never collected: the cheap conjunct
        // still prunes first, and only Iron Man reaches the call.
        (
            "SELECT hero_name FROM superhero WHERE height_cm > 180 \
             AND (publisher_id = 2 OR llm_tag('o', hero_name) = 'v:o-Iron Man') ORDER BY id",
            &["Batman", "Superman", "Iron Man"],
            &[],
            1,
        ),
    ];
    for (sql, rows, batches, invokes) in cases {
        for columnar in [true, false] {
            let udf = CountingLlm::new();
            let mut db = hero_db();
            db.register_udf(udf.clone());
            db.set_optimizer(OptimizerConfig { columnar, ..Default::default() });
            assert_eq!(texts(&db, sql), rows, "{sql}");
            assert_eq!(*udf.received.lock().unwrap(), batches, "columnar {columnar}: {sql}");
            assert_eq!(udf.invokes.load(std::sync::atomic::Ordering::SeqCst), invokes, "{sql}");
        }
        let udf = CountingLlm::new();
        let mut db = hero_db();
        db.register_udf(udf.clone());
        db.set_optimizer(OptimizerConfig { batch_expensive_udfs: false, ..Default::default() });
        assert_eq!(texts(&db, sql), rows, "per row: {sql}");
        assert!(udf.received.lock().unwrap().is_empty(), "per row: {sql}");
    }
}

/// An expensive call in a JOIN ON key is batched over the side that
/// computes it — including over a subquery source.
#[test]
fn join_on_udf_over_subquery_source_is_batched() {
    let udf = CountingLlm::new();
    let mut db = hero_db();
    db.register_udf(udf.clone());
    let rows = texts(
        &db,
        "SELECT COUNT(*) FROM (SELECT hero_name, publisher_id FROM superhero) h \
         JOIN publisher p ON llm_tag('q', h.publisher_id) = 'v:q-' || p.id",
    );
    assert_eq!(rows, vec!["5"], "every non-NULL publisher_id matches its publisher");
    // 6 heroes, publisher_ids {1, 2, 3, NULL}: one batch of 4 tuples.
    assert_eq!(udf.batches.load(std::sync::atomic::Ordering::SeqCst), 1);
    assert_eq!(udf.batched_tuples.load(std::sync::atomic::Ordering::SeqCst), 4);
    assert_eq!(udf.invokes.load(std::sync::atomic::Ordering::SeqCst), 0);
}

/// Projection, HAVING, and nested-loop ON sites batch too, and disabling
/// the rule reproduces per-row execution with identical results.
#[test]
fn batched_and_per_row_execution_agree() {
    let queries = [
        "SELECT hero_name, llm_tag('proj', height_cm) FROM superhero ORDER BY hero_name",
        "SELECT publisher_id, COUNT(*) FROM superhero GROUP BY publisher_id \
         HAVING llm_tag('h', publisher_id) <> 'v:h-1' ORDER BY publisher_id",
        "SELECT h.hero_name FROM superhero h JOIN publisher p \
         ON llm_tag('o', h.publisher_id) = 'v:o-2' OR p.id = 1 \
         ORDER BY h.hero_name, p.id",
        "SELECT hero_name FROM superhero WHERE llm_tag('w', id) LIKE 'v:%' ORDER BY 1",
    ];
    for sql in queries {
        let batched_udf = CountingLlm::new();
        let mut batched = hero_db();
        batched.register_udf(batched_udf.clone());

        let per_row_udf = CountingLlm::new();
        let mut per_row = hero_db();
        per_row.register_udf(per_row_udf.clone());
        per_row.set_optimizer(OptimizerConfig {
            batch_expensive_udfs: false,
            ..Default::default()
        });

        assert_eq!(texts(&batched, sql), texts(&per_row, sql), "{sql}");
        let batched_calls = batched_udf.invokes.load(std::sync::atomic::Ordering::SeqCst)
            + batched_udf.batched_tuples.load(std::sync::atomic::Ordering::SeqCst);
        let per_row_calls = per_row_udf.invokes.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            batched_calls <= per_row_calls,
            "{sql}: batched {batched_calls} > per-row {per_row_calls}"
        );
    }
}

/// Sites in conditionally-evaluated positions are left to the per-row
/// path: batching must not pay for calls CASE would have skipped.
#[test]
fn case_guarded_udf_not_eagerly_batched() {
    let udf = CountingLlm::new();
    let mut db = hero_db();
    db.register_udf(udf.clone());
    let rows = texts(
        &db,
        "SELECT CASE WHEN height_cm > 185 THEN llm_tag('g', hero_name) ELSE 'skip' END \
         FROM superhero ORDER BY id",
    );
    assert_eq!(rows.len(), 6);
    // Only Batman (188) and Superman (191) pass the guard: two per-row
    // invocations, zero eagerly-batched tuples.
    assert_eq!(udf.batched_tuples.load(std::sync::atomic::Ordering::SeqCst), 0);
    assert_eq!(udf.invokes.load(std::sync::atomic::Ordering::SeqCst), 2);
}

/// The result store keys tuples by exact value identity: an Integer and a
/// Real that are SQL-equal still get their own invocations (their
/// rendered argument text differs, so a shared slot would serve one row
/// the other's answer).
#[test]
fn udf_result_store_distinguishes_integer_and_real() {
    let udf = CountingLlm::new();
    let mut db = Database::new();
    db.execute("CREATE TABLE v (x)").unwrap();
    db.execute("INSERT INTO v VALUES (1), (1.0)").unwrap();
    db.register_udf(udf.clone());
    let r = db.query("SELECT llm_tag('t', x) FROM v").unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(
        udf.batched_tuples.load(std::sync::atomic::Ordering::SeqCst),
        2,
        "Integer(1) and Real(1.0) are distinct argument tuples"
    );
}

/// HAVING-rejected groups never pay for projection or sort-key UDF calls:
/// the output-site prefetch runs only over the surviving groups.
#[test]
fn having_rejected_groups_pay_no_projection_calls() {
    let udf = CountingLlm::new();
    let mut db = hero_db();
    db.register_udf(udf.clone());
    let r = db
        .query(
            "SELECT publisher_id, llm_tag('p', publisher_id) FROM superhero \
             GROUP BY publisher_id HAVING COUNT(*) > 10",
        )
        .unwrap();
    assert!(r.rows.is_empty(), "no group has more than 10 heroes");
    assert_eq!(udf.batched_tuples.load(std::sync::atomic::Ordering::SeqCst), 0);
    assert_eq!(udf.invokes.load(std::sync::atomic::Ordering::SeqCst), 0);
}

/// Subqueries nested inside a *correlated* subquery keep their own cached
/// state for the whole statement. The cache is keyed by the subquery
/// node's address; when the per-row path deep-copied the predicate on
/// every execution, the allocator handed one nested node's freed address
/// to the other on the next outer row and `MAX(v)` answered with
/// `MIN(v)`'s cached result — every second outer row counted 0.
#[test]
fn subqueries_nested_in_a_correlated_subquery_keep_their_own_state() {
    for threads in [1usize, 2, 8] {
        let mut db = Database::new();
        db.set_optimizer(OptimizerConfig { threads, parallel_threshold: 1, ..Default::default() });
        db.execute("CREATE TABLE o (id INTEGER PRIMARY KEY, g INTEGER)").unwrap();
        db.execute("CREATE TABLE i (g INTEGER, v INTEGER)").unwrap();
        {
            let o = db.catalog_mut().get_mut("o").unwrap();
            for id in 0..50i64 {
                o.insert_row(vec![Value::Integer(id), Value::Integer(id % 5)]).unwrap();
            }
            let i = db.catalog_mut().get_mut("i").unwrap();
            for v in 0..100i64 {
                i.insert_row(vec![Value::Integer(v % 5), Value::Integer(v)]).unwrap();
            }
        }
        let nested = "SELECT COUNT(*) FROM i WHERE i.g = o.g \
                      AND i.v > (SELECT MIN(v) FROM i) AND i.v < (SELECT MAX(v) FROM i)";
        assert_eq!(
            texts(&db, &format!("SELECT COUNT(*) FROM o WHERE ({nested}) > 0")),
            vec!["50"],
            "at {threads} thread(s)"
        );
        // Groups 0 and 4 lose their MIN / MAX row: 19 members, the rest 20.
        let per_row = texts(&db, &format!("SELECT o.g, ({nested}) FROM o ORDER BY o.id"));
        for (id, row) in per_row.iter().enumerate() {
            let g = id % 5;
            let n = if g == 0 || g == 4 { 19 } else { 20 };
            assert_eq!(row, &format!("{g}|{n}"), "outer row {id} at {threads} thread(s)");
        }
    }
}
