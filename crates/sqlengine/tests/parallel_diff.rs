//! Serial ≡ parallel differential-test harness.
//!
//! Concurrency claims are only credible when backed by controlled
//! differential testing (cf. ZEUS), so this harness pins morsel fan-out
//! against inline dispatch. There is one executor and one loop per
//! operator; what differs between thread counts is the *dispatch* (morsel
//! order, worker contexts, merge-back, first-error order). A query
//! generator over the four SWAN domain shapes runs every statement inline
//! (`threads: 1` — the dispatcher never reaches the pool) and fanned out
//! at thread counts **2 and 8** (`parallel_threshold: 1`, so even the tiny
//! loops of generated tables fan out), and asserts equivalent results:
//!
//! * statements with `ORDER BY` must match **exactly** (including the
//!   tie-break contract: `LIMIT k` keeps the stable-sort prefix);
//! * statements without `ORDER BY` are compared order-insensitively
//!   (the SQL contract) **and** byte-exactly — the parallel executor
//!   promises morsel-order concatenation, making results identical to
//!   serial execution, and this harness is where that stronger promise
//!   is enforced.
//!
//! Coverage: filtered scans/projections, inner/LEFT/three-way joins,
//! GROUP BY + HAVING, DISTINCT, ORDER BY + LIMIT with deliberate ties,
//! compound UNION, subquery-bearing predicates (IN, correlated EXISTS,
//! scalar aggregates, equality-correlated scalar aggregates — the
//! statement-shared `Send + Sync` subquery cache lets these fan out
//! instead of falling back to inline dispatch), and
//! expensive-UDF batching (a counting UDF stands in for an LLM call; the
//! parallel engine must return the same rows and never evaluate more
//! distinct argument tuples than the serial engine).
//!
//! A second differential axis pins **columnar ≡ row** execution: every
//! generated query also runs with `OptimizerConfig::columnar` off (the
//! reference row path) and on, at 1 and 8 threads, under the same
//! equivalence contract — plus a NULL-heavy generator that stresses the
//! validity bitmaps, Kleene kernels and NULL-never-joins rules. The same
//! runs pin **index scan ≡ full scan**: the reference uses the scan-only
//! planner (`OptimizerConfig::index_scan` off), and so does one extra
//! 8-thread columnar run; the row path also runs with index scans on.
//! `index_scan` also gates the build-once subquery path (a correlated
//! scalar aggregate grouped once and hash-probed per outer row), so the
//! same axis pins **build-once ≡ per-row** — `eval.rs`'s in-crate tests
//! prove the matcher engages on these shapes.
//!
//! Reproducibility: case streams honour `SWAN_SEED` (see the proptest
//! shim); a failure prints the seed to replay it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use swan_sqlengine::value::Value;
use swan_sqlengine::{Database, OptimizerConfig, QueryResult, ScalarUdf};

/// The thread counts the parallel side runs at.
const THREAD_COUNTS: &[usize] = &[2, 8];

/// Schemas shaped like the four SWAN domains (a fact table, a dimension,
/// and a small lookup each), populated deterministically from the
/// generated rows so serial and parallel runs see identical data.
const DOMAINS: &[(&str, &str, &str, &str)] = &[
    (
        "superhero",
        "CREATE TABLE superhero (id INTEGER PRIMARY KEY, publisher_id INTEGER, height_cm INTEGER, hero_name TEXT)",
        "CREATE TABLE publisher (id INTEGER PRIMARY KEY, publisher_name TEXT)",
        "superhero s JOIN publisher p ON s.publisher_id = p.id",
    ),
    (
        "formula_1",
        "CREATE TABLE results (id INTEGER PRIMARY KEY, driver_id INTEGER, points INTEGER, status TEXT)",
        "CREATE TABLE drivers (id INTEGER PRIMARY KEY, surname TEXT)",
        "results s JOIN drivers p ON s.driver_id = p.id",
    ),
    (
        "california_schools",
        "CREATE TABLE satscores (id INTEGER PRIMARY KEY, school_id INTEGER, avg_scr_math INTEGER, rtype TEXT)",
        "CREATE TABLE schools (id INTEGER PRIMARY KEY, school_name TEXT)",
        "satscores s JOIN schools p ON s.school_id = p.id",
    ),
    (
        "european_football",
        "CREATE TABLE player_attributes (id INTEGER PRIMARY KEY, player_id INTEGER, overall_rating INTEGER, foot TEXT)",
        "CREATE TABLE player (id INTEGER PRIMARY KEY, player_name TEXT)",
        "player_attributes s JOIN player p ON s.player_id = p.id",
    ),
];

fn fact_table(domain: usize) -> &'static str {
    ["superhero", "results", "satscores", "player_attributes"][domain]
}

fn dim_table(domain: usize) -> &'static str {
    ["publisher", "drivers", "schools", "player"][domain]
}

fn fact_num(domain: usize) -> &'static str {
    ["height_cm", "points", "avg_scr_math", "overall_rating"][domain]
}

fn fact_fk(domain: usize) -> &'static str {
    ["publisher_id", "driver_id", "school_id", "player_id"][domain]
}

fn fact_text(domain: usize) -> &'static str {
    ["hero_name", "status", "rtype", "foot"][domain]
}

/// Build one SWAN-shaped domain database. Fact rows link into the
/// dimension (with some dangling/NULL keys so LEFT-join and NULL
/// semantics get exercised); `tiny` is a 4-row lookup.
fn domain_db(domain: usize, rows: &[(i64, i64, String)]) -> Database {
    let (_, fact_ddl, dim_ddl, _) = DOMAINS[domain];
    let mut db = Database::new();
    db.execute(fact_ddl).unwrap();
    db.execute(dim_ddl).unwrap();
    db.execute("CREATE TABLE tiny (k INTEGER PRIMARY KEY, tag TEXT)").unwrap();

    let dim_rows = (rows.len() / 3).max(2);
    {
        let dim = db.catalog_mut().get_mut(dim_table(domain)).unwrap();
        for i in 0..dim_rows {
            dim.insert_row(vec![Value::Integer(i as i64), Value::text(format!("name-{i}"))])
                .unwrap();
        }
    }
    {
        let fact = db.catalog_mut().get_mut(fact_table(domain)).unwrap();
        for (i, (raw, n, s)) in rows.iter().enumerate() {
            let fk = match raw.rem_euclid(10) {
                0 => Value::Null,
                _ => Value::Integer(raw.rem_euclid(dim_rows as i64 + 3)),
            };
            fact.insert_row(vec![
                Value::Integer(i as i64),
                fk,
                // Narrow numeric range on purpose: ORDER BY ties abound.
                Value::Integer(n.rem_euclid(7)),
                Value::text(s.clone()),
            ])
            .unwrap();
        }
    }
    {
        let tiny = db.catalog_mut().get_mut("tiny").unwrap();
        for k in 0..4i64 {
            tiny.insert_row(vec![Value::Integer(k), Value::text(format!("tag-{k}"))]).unwrap();
        }
    }
    db
}

/// A deterministic "expensive" UDF standing in for an LLM call; counts
/// evaluated argument tuples across `invoke` and `invoke_batch`.
#[derive(Default)]
struct TagUdf {
    tuples: AtomicU64,
}

impl ScalarUdf for TagUdf {
    fn name(&self) -> &str {
        "slow_tag"
    }
    fn invoke(&self, args: &[Value]) -> swan_sqlengine::Result<Value> {
        self.tuples.fetch_add(1, Ordering::SeqCst);
        let tag = args.iter().map(Value::render).collect::<Vec<_>>().join("-");
        Ok(Value::text(format!("v{tag}")))
    }
    fn is_expensive(&self) -> bool {
        true
    }
}

fn serial_config() -> OptimizerConfig {
    OptimizerConfig { threads: 1, ..Default::default() }
}

fn parallel_config(threads: usize) -> OptimizerConfig {
    // Threshold 1: even the smallest generated table goes parallel.
    OptimizerConfig { threads, parallel_threshold: 1, ..Default::default() }
}

/// Sorted row texts for order-insensitive comparison.
fn multiset(result: &QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = result
        .rows
        .iter()
        .map(|r| r.iter().map(Value::render).collect::<Vec<_>>().join("\u{1}"))
        .collect();
    rows.sort();
    rows
}

/// Assert the parallel result is equivalent to the serial one: exact for
/// ORDER BY; order-insensitive *and* byte-exact otherwise (the parallel
/// executor's morsel-order concatenation makes results identical).
fn assert_equivalent(sql: &str, threads: usize, serial: &QueryResult, parallel: &QueryResult) {
    assert_eq!(
        serial.columns, parallel.columns,
        "column names diverge at {threads} threads for {sql}"
    );
    let has_order_by = sql.to_ascii_uppercase().contains("ORDER BY");
    if !has_order_by {
        assert_eq!(
            multiset(serial),
            multiset(parallel),
            "row multiset diverges at {threads} threads for {sql}"
        );
    }
    assert_eq!(
        serial.rows, parallel.rows,
        "rows diverge at {threads} threads for {sql} (byte-identical contract)"
    );
}

/// Run `sql` serially and at every parallel thread count over fresh,
/// identically-populated databases; assert equivalence. Then run the
/// columnar ≡ row and index ≡ scan axes: the row path over the
/// scan-only planner (`columnar: false`, `index_scan: false`) is the
/// reference, and the columnar kernels — with and without primary-key
/// index scans — must agree byte-for-byte at 1 and 8 threads.
fn diff_query(domain: usize, rows: &[(i64, i64, String)], sql: &str) {
    diff_query_on(&|| domain_db(domain, rows), sql);
}

/// [`diff_query`] over any database `build` produces (the same one on
/// every call).
fn diff_query_on(build: &dyn Fn() -> Database, sql: &str) {
    let mut serial_db = build();
    serial_db.set_optimizer(serial_config());
    let serial = serial_db.query(sql).unwrap_or_else(|e| panic!("serial {sql}: {e}"));
    for &threads in THREAD_COUNTS {
        let mut par_db = build();
        par_db.set_optimizer(parallel_config(threads));
        let parallel =
            par_db.query(sql).unwrap_or_else(|e| panic!("{threads}-thread {sql}: {e}"));
        assert_equivalent(sql, threads, &serial, &parallel);
    }

    let run = |threads: usize, columnar: bool, index_scan: bool| -> QueryResult {
        let mut db = build();
        db.set_optimizer(OptimizerConfig {
            threads,
            parallel_threshold: 1,
            columnar,
            index_scan,
            ..Default::default()
        });
        db.query(sql).unwrap_or_else(|e| {
            panic!("columnar={columnar} index_scan={index_scan} {threads}-thread {sql}: {e}")
        })
    };
    let reference = run(1, false, false);
    for (threads, columnar, index_scan) in
        [(1, false, true), (1, true, true), (8, true, true), (8, true, false)]
    {
        assert_equivalent(sql, threads, &reference, &run(threads, columnar, index_scan));
    }
}

proptest! {
    /// The generated query family: joins, GROUP BY/HAVING, DISTINCT,
    /// LIMIT (with ties), LEFT joins, three-way chains and compounds,
    /// across the four SWAN domain shapes.
    #[test]
    fn parallel_execution_matches_serial(
        rows in proptest::collection::vec((any::<i64>(), -40i64..120, "[a-m]{0,5}"), 2..48),
        domain in 0usize..4,
        threshold in -40i64..120,
        k in 0usize..9,
        shape in 0usize..13,
    ) {
        let (_, _, _, join) = DOMAINS[domain];
        let fact = fact_table(domain);
        let dim = dim_table(domain);
        let num = fact_num(domain);
        let fk = fact_fk(domain);
        let text = fact_text(domain);
        let threshold = threshold.rem_euclid(7);
        let sql = match shape {
            // Filtered scan + projection (morsel filter + projection).
            0 => format!(
                "SELECT s.id, s.{num} + 1, UPPER(s.{text}) FROM {fact} s \
                 WHERE s.{num} > {threshold}"
            ),
            // Inner hash join (partitioned build/probe).
            1 => format!(
                "SELECT s.id, p.id FROM {join} WHERE s.{num} <= {threshold} ORDER BY s.id"
            ),
            // LEFT join with NULL-padded non-matches.
            2 => format!(
                "SELECT s.id, p.id FROM {fact} s LEFT JOIN {dim} p ON s.{fk} = p.id \
                 ORDER BY s.id"
            ),
            // Two-phase GROUP BY + HAVING over a join.
            3 => format!(
                "SELECT p.id, COUNT(*), SUM(s.{num}) FROM {join} \
                 GROUP BY p.id HAVING COUNT(*) > 1 ORDER BY p.id"
            ),
            // GROUP BY without ORDER BY: first-seen group order must
            // survive the parallel merge.
            4 => format!(
                "SELECT s.{num}, COUNT(*), MIN(s.{text}) FROM {fact} s GROUP BY s.{num}"
            ),
            // DISTINCT (first-occurrence dedupe over parallel input).
            5 => format!("SELECT DISTINCT s.{num}, s.{fk} FROM {fact} s"),
            // ORDER BY a low-cardinality key + LIMIT: the top-k
            // tie-break contract at every thread count.
            6 => format!(
                "SELECT s.id, s.{num} FROM {fact} s ORDER BY s.{num} LIMIT {k}"
            ),
            // Three-way chain (join reordering + Permute under Parallel).
            7 => format!(
                "SELECT COUNT(*) FROM {fact} s JOIN {dim} p ON s.{fk} = p.id \
                 JOIN tiny t ON p.id = t.k WHERE s.{num} > {threshold}"
            ),
            // Compound UNION over two parallel cores.
            8 => format!(
                "SELECT s.{num} FROM {fact} s WHERE s.{num} > {threshold} \
                 UNION SELECT k FROM tiny ORDER BY 1"
            ),
            // Uncorrelated IN-subquery predicate: runs morsel-parallel
            // against the statement-shared subquery cache (executes the
            // inner SELECT at most once across all workers).
            9 => format!(
                "SELECT s.id, s.{num} FROM {fact} s \
                 WHERE s.{fk} IN (SELECT p.id FROM {dim} p WHERE p.id > 1) \
                 ORDER BY s.id"
            ),
            // Correlated EXISTS: re-executes per row on whichever worker
            // owns the row; classification (correlated vs not) must agree
            // with the serial engine.
            10 => format!(
                "SELECT s.id FROM {fact} s \
                 WHERE EXISTS (SELECT 1 FROM {dim} p WHERE p.id = s.{fk} \
                               AND p.id > {threshold} - 3) \
                 ORDER BY s.id"
            ),
            // Scalar-aggregate subquery in a comparison (uncorrelated,
            // shared result) next to a cheap conjunct.
            11 => format!(
                "SELECT s.id, s.{num} FROM {fact} s \
                 WHERE s.{num} >= (SELECT AVG(s2.{num}) FROM {fact} s2) \
                 AND s.id >= 0 ORDER BY s.id"
            ),
            // Nested-loop LEFT join whose ON holds a correlated EXISTS
            // reading a column (the foreign key) the predicate does not
            // otherwise name: the probe must gather the whole combined row.
            _ => format!(
                "SELECT s.id, p.id FROM {fact} s LEFT JOIN {dim} p ON s.{num} < p.id \
                 AND EXISTS (SELECT 1 FROM tiny t WHERE t.k = s.{fk} AND t.k <= {threshold})"
            ),
        };
        diff_query(domain, &rows, &sql);
    }

    /// Equality-correlated scalar aggregates: built once as a hash index
    /// under `index_scan`, re-executed per row by `diff_query`'s
    /// reference. The domain data carries NULL and duplicate foreign
    /// keys and dimension ids no fact row links to (empty groups).
    #[test]
    fn keyed_scalar_aggregates_match_the_per_row_path(
        rows in proptest::collection::vec((any::<i64>(), -40i64..120, "[a-m]{0,5}"), 2..48),
        domain in 0usize..4,
        threshold in -40i64..120,
        shape in 0usize..4,
    ) {
        let (_, _, _, join) = DOMAINS[domain];
        let fact = fact_table(domain);
        let dim = dim_table(domain);
        let num = fact_num(domain);
        let fk = fact_fk(domain);
        let text = fact_text(domain);
        let threshold = threshold.rem_euclid(7);
        let sql = match shape {
            // Select-list position over the dimension: COUNT → 0 on an
            // empty group, a local conjunct beside the correlation.
            0 => format!(
                "SELECT p.id, (SELECT COUNT(*) FROM {fact} s WHERE s.{fk} = p.id \
                               AND s.{num} > {threshold}) FROM {dim} p ORDER BY p.id"
            ),
            // WHERE position over the fact table itself: NULL and
            // duplicate outer keys, NULL inner keys, SUM → NULL → COALESCE.
            1 => format!(
                "SELECT s.id FROM {fact} s \
                 WHERE (SELECT COALESCE(SUM(s2.{num}), 0) FROM {fact} s2 \
                        WHERE s2.{fk} = s.{fk}) > {threshold} ORDER BY s.id"
            ),
            // Two correlation keys (one an expression), a text aggregate,
            // no ORDER BY.
            2 => format!(
                "SELECT s.id, (SELECT MIN(s2.{text}) FROM {fact} s2 \
                               WHERE s2.{fk} = s.{fk} AND s.{num} = s2.{num} + 1) \
                 FROM {fact} s"
            ),
            // The hybrid form: the outer side is a join.
            _ => format!(
                "SELECT s.id, p.id FROM {join} \
                 WHERE (SELECT AVG(s2.{num}) FROM {fact} s2 WHERE s2.{fk} = p.id) \
                       >= {threshold} ORDER BY s.id"
            ),
        };
        diff_query(domain, &rows, &sql);
    }

    /// Expensive-UDF batching under parallel execution: same rows, and the
    /// parallel engine never evaluates more distinct argument tuples than
    /// the serial engine (the statement-level prefetch answers workers
    /// from their snapshot).
    #[test]
    fn parallel_udf_batching_matches_serial(
        rows in proptest::collection::vec((any::<i64>(), -40i64..120, "[a-m]{0,5}"), 2..40),
        domain in 0usize..4,
        threshold in -40i64..120,
        shape in 0usize..3,
    ) {
        let (_, _, _, join) = DOMAINS[domain];
        let fact = fact_table(domain);
        let num = fact_num(domain);
        let threshold = threshold.rem_euclid(7);
        let sql = match shape {
            // Expensive call in the projection.
            0 => format!("SELECT s.id, slow_tag('p', s.{num}) FROM {fact} s ORDER BY s.id"),
            // Expensive conjunct in WHERE next to a cheap one (the filter
            // runs the cheap conjunct, prefetches over its survivors, then
            // fans the expensive conjunct out).
            1 => format!(
                "SELECT s.id FROM {join} WHERE s.{num} > {threshold} \
                 AND slow_tag('w', p.id) LIKE 'vw%' ORDER BY s.id"
            ),
            // Expensive call in HAVING over grouped output.
            _ => format!(
                "SELECT p.id, COUNT(*) FROM {join} GROUP BY p.id \
                 HAVING slow_tag('h', p.id) LIKE 'vh%' ORDER BY p.id"
            ),
        };

        let serial_udf = Arc::new(TagUdf::default());
        let mut serial_db = domain_db(domain, &rows);
        serial_db.register_udf(serial_udf.clone());
        serial_db.set_optimizer(serial_config());
        let serial = serial_db.query(&sql).unwrap();
        let serial_tuples = serial_udf.tuples.load(Ordering::SeqCst);

        for &threads in THREAD_COUNTS {
            let par_udf = Arc::new(TagUdf::default());
            let mut par_db = domain_db(domain, &rows);
            par_db.register_udf(par_udf.clone());
            par_db.set_optimizer(parallel_config(threads));
            let parallel = par_db.query(&sql).unwrap();
            assert_equivalent(&sql, threads, &serial, &parallel);
            let par_tuples = par_udf.tuples.load(Ordering::SeqCst);
            prop_assert!(
                par_tuples <= serial_tuples,
                "{sql}: parallel evaluated {par_tuples} tuples at {threads} threads, \
                 serial {serial_tuples}"
            );
        }
    }

    /// INSERT … SELECT and UPDATE/DELETE write paths agree after a
    /// parallel read side produced the rows.
    #[test]
    fn parallel_write_paths_match_serial(
        rows in proptest::collection::vec((any::<i64>(), -40i64..120, "[a-m]{0,5}"), 2..32),
        domain in 0usize..4,
        threshold in -40i64..120,
    ) {
        let fact = fact_table(domain);
        let num = fact_num(domain);
        let threshold = threshold.rem_euclid(7);
        let script = [
            format!("CREATE TABLE sink (id INTEGER, v INTEGER)"),
            format!(
                "INSERT INTO sink SELECT s.id, s.{num} FROM {fact} s WHERE s.{num} > {threshold}"
            ),
            format!("UPDATE sink SET v = v * 2 WHERE v < 4"),
            format!("DELETE FROM sink WHERE v % 3 = 0"),
        ];
        let run = |config: OptimizerConfig| -> Vec<String> {
            let mut db = domain_db(domain, &rows);
            db.set_optimizer(config);
            for stmt in &script {
                db.execute(stmt).unwrap();
            }
            multiset(&db.query("SELECT id, v FROM sink").unwrap())
        };
        let serial = run(serial_config());
        for &threads in THREAD_COUNTS {
            prop_assert_eq!(&serial, &run(parallel_config(threads)), "threads {}", threads);
        }
    }

    /// Columnar ≡ row on NULL-heavy tables: every column type carries a
    /// validity bitmap, and the kernels' three-valued logic, aggregate
    /// NULL-skipping and join NULL-never-matches rules must agree with
    /// the row evaluator on tables where NULLs dominate — at 1 and 8
    /// threads.
    #[test]
    fn columnar_matches_row_on_null_heavy_tables(
        cells in proptest::collection::vec(
            (0u8..8, any::<i64>(), -8i64..8, 0usize..5), 4..60),
        shape in 0usize..9,
        threshold in -4i64..4,
    ) {
        // ~half of every nullable column is NULL; `t` mixes plain and
        // numeric strings (text→number coercion in kernels), `r` carries
        // -0.0 and fractions, `b` is 0/1 so it classifies as a Bool
        // column with a validity bitmap.
        const TEXTS: &[&str] = &["a", "b", "3", "-1.5", ""];
        let build = || {
            let mut db = Database::new();
            db.execute(
                "CREATE TABLE n (id INTEGER PRIMARY KEY, i INTEGER, r REAL, t TEXT, b INTEGER)",
            )
            .unwrap();
            let tbl = db.catalog_mut().get_mut("n").unwrap();
            for (row_id, (nulls, raw, small, ti)) in cells.iter().enumerate() {
                let i = if nulls & 1 == 0 { Value::Integer(raw % 5) } else { Value::Null };
                let r = if nulls & 2 == 0 {
                    let f = if *small == 0 { -0.0 } else { *small as f64 / 2.0 };
                    Value::Real(f)
                } else {
                    Value::Null
                };
                let t = if nulls & 4 == 0 { Value::text(TEXTS[*ti]) } else { Value::Null };
                let b = if raw % 3 == 0 { Value::Null } else { Value::Integer(raw.rem_euclid(2)) };
                tbl.insert_row(vec![Value::Integer(row_id as i64), i, r, t, b]).unwrap();
            }
            db
        };
        let sql = match shape {
            0 => format!("SELECT id, i FROM n WHERE i > {threshold}"),
            1 => "SELECT id FROM n WHERE t = 'a' OR i IS NULL".to_string(),
            2 => format!(
                "SELECT id FROM n WHERE i BETWEEN {threshold} AND {} ORDER BY id",
                threshold + 3
            ),
            3 => "SELECT COUNT(*), COUNT(i), SUM(i), AVG(r), MIN(t), MAX(t), SUM(t) FROM n"
                .to_string(),
            4 => "SELECT b, COUNT(*), SUM(r) FROM n GROUP BY b".to_string(),
            5 => "SELECT i, COUNT(r), AVG(i) FROM n GROUP BY i ORDER BY 1".to_string(),
            6 => "SELECT a.id, c.id FROM n a JOIN n c ON a.i = c.i ORDER BY a.id, c.id"
                .to_string(),
            7 => "SELECT id FROM n WHERE i IN (1, 2, NULL)".to_string(),
            _ => format!("SELECT id FROM n WHERE NOT (i > {threshold} AND b = 1)"),
        };
        let run = |threads: usize, columnar: bool| -> QueryResult {
            let mut db = build();
            db.set_optimizer(OptimizerConfig {
                threads,
                parallel_threshold: 1,
                columnar,
                ..Default::default()
            });
            db.query(&sql)
                .unwrap_or_else(|e| panic!("columnar={columnar} {threads}-thread {sql}: {e}"))
        };
        let row_ref = run(1, false);
        for &threads in &[1usize, 8] {
            let columnar = run(threads, true);
            assert_equivalent(&sql, threads, &row_ref, &columnar);
        }
    }

    /// Text→number coercion parity on adversarial spellings: the columnar
    /// truthiness and SUM/AVG kernels parse each dictionary entry once
    /// through `parse_text_f64` — the same helper `Value::as_f64` uses —
    /// and this generator throws every numeric-ish edge the `f64` grammar
    /// distinguishes (signs, bare dots, inf/NaN spellings, overflow to
    /// ±inf, underscores/hex/empty strings that must NOT parse) at both
    /// paths. Any parser divergence shows up as a row or aggregate diff.
    #[test]
    fn columnar_matches_row_on_adversarial_numeric_text(
        picks in proptest::collection::vec(
            (0usize..ADVERSARIAL_TEXTS.len(), 0i64..4, any::<bool>()), 3..48),
        shape in 0usize..6,
    ) {
        let build = || {
            let mut db = Database::new();
            db.execute("CREATE TABLE adv (id INTEGER PRIMARY KEY, g INTEGER, t TEXT)")
                .unwrap();
            let tbl = db.catalog_mut().get_mut("adv").unwrap();
            for (row_id, (ti, g, null)) in picks.iter().enumerate() {
                let t = if *null { Value::Null } else { Value::text(ADVERSARIAL_TEXTS[*ti]) };
                tbl.insert_row(vec![Value::Integer(row_id as i64), Value::Integer(*g), t])
                    .unwrap();
            }
            db
        };
        let sql = match shape {
            // Truthiness kernel: text is true iff it parses non-zero.
            0 => "SELECT id FROM adv WHERE t".to_string(),
            1 => "SELECT id FROM adv WHERE NOT t".to_string(),
            // SUM/AVG text kernel: non-numeric text counts as 0.0, and
            // inf/NaN must poison the accumulator identically.
            2 => "SELECT g, COUNT(*), SUM(t), AVG(t) FROM adv GROUP BY g ORDER BY g"
                .to_string(),
            3 => "SELECT COUNT(t), SUM(t), AVG(t), MIN(t), MAX(t) FROM adv".to_string(),
            // Comparison against a numeric literal (text→number affinity
            // in the compare kernel).
            4 => "SELECT id FROM adv WHERE t > 0 ORDER BY id".to_string(),
            _ => "SELECT t, COUNT(*) FROM adv GROUP BY t ORDER BY 2, 1".to_string(),
        };
        let run = |threads: usize, columnar: bool| -> QueryResult {
            let mut db = build();
            db.set_optimizer(OptimizerConfig {
                threads,
                parallel_threshold: 1,
                columnar,
                ..Default::default()
            });
            db.query(&sql)
                .unwrap_or_else(|e| panic!("columnar={columnar} {threads}-thread {sql}: {e}"))
        };
        let row_ref = run(1, false);
        for &threads in &[1usize, 8] {
            let columnar = run(threads, true);
            assert_equivalent(&sql, threads, &row_ref, &columnar);
        }
    }
}

/// Numeric-ish strings chosen to disagree under *almost*-equivalent
/// parsers: Rust's `f64` grammar accepts leading `+`, bare-dot forms,
/// case-insensitive `inf`/`infinity`/`NaN` and overflows `1e309` to
/// `inf`, while rejecting `1_000`, hex, lone exponents and whitespace-only
/// strings. A LUT that, say, trimmed differently or used `as_i64` first
/// would diverge on at least one of these.
const ADVERSARIAL_TEXTS: &[&str] = &[
    "+5", "-0.0", "0.0", ".5", "5.", "+.5", "-.5", " 42\t", "1e309", "-1e309", "1e-320",
    "9007199254740993", " inf ", "-inf", "Infinity", "NaN", "-nan", "1_000", "0x10", "", " ",
    "1e", "e1", "- 5", "++5", "5 .", "abc",
];

/// An expensive UDF whose `invoke_batch` always fails: the statement
/// prefetch answers nothing, so per-row invokes inside workers are the
/// only source of results. Counts every evaluated tuple.
#[derive(Default)]
struct BrokenBatchUdf {
    tuples: AtomicU64,
}

impl ScalarUdf for BrokenBatchUdf {
    fn name(&self) -> &str {
        "flaky_tag"
    }
    fn invoke(&self, args: &[Value]) -> swan_sqlengine::Result<Value> {
        self.tuples.fetch_add(1, Ordering::SeqCst);
        Ok(Value::text(format!(
            "v{}",
            args.iter().map(Value::render).collect::<Vec<_>>().join("-")
        )))
    }
    fn invoke_batch(&self, _rows: &[Vec<Value>]) -> swan_sqlengine::Result<Vec<Value>> {
        Err(swan_sqlengine::Error::Udf {
            name: "flaky_tag".into(),
            message: "simulated batch failure".into(),
        })
    }
    fn is_expensive(&self) -> bool {
        true
    }
}

/// When the vectorized prefetch fails, workers invoke per row against
/// their private stores — results a worker computes must merge back into
/// the statement store so a later operator (here: the projection reusing
/// the WHERE clause's call) is served without re-invoking. Rows stay
/// identical to serial, and the tuple count stays bounded by
/// threads × distinct tuples (not operators × threads × distinct).
#[test]
fn failed_invoke_batch_merges_worker_results_back() {
    const DISTINCT: u64 = 5;
    let build = |threads: usize| {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        {
            let t = db.catalog_mut().get_mut("t").unwrap();
            for i in 0..200i64 {
                t.insert_row(vec![Value::Integer(i), Value::Integer(i % DISTINCT as i64)])
                    .unwrap();
            }
        }
        let udf = Arc::new(BrokenBatchUdf::default());
        db.register_udf(udf.clone());
        db.set_optimizer(if threads == 1 {
            serial_config()
        } else {
            parallel_config(threads)
        });
        (db, udf)
    };
    let sql = "SELECT id, flaky_tag(n) FROM t WHERE flaky_tag(n) LIKE 'v%' ORDER BY id";

    let (serial_db, serial_udf) = build(1);
    let serial = serial_db.query(sql).unwrap();
    assert_eq!(serial.rows.len(), 200);
    assert_eq!(
        serial_udf.tuples.load(Ordering::SeqCst),
        DISTINCT,
        "serial: one invoke per distinct tuple, shared across WHERE and projection"
    );

    for &threads in THREAD_COUNTS {
        let (par_db, par_udf) = build(threads);
        let parallel = par_db.query(sql).unwrap();
        assert_eq!(parallel.rows, serial.rows, "rows diverge at {threads} threads");
        let tuples = par_udf.tuples.load(Ordering::SeqCst);
        assert!(
            tuples <= threads as u64 * DISTINCT,
            "at {threads} threads expected ≤ {} tuples (merge-back must serve the \
             projection from the WHERE phase's results), got {tuples}",
            threads as u64 * DISTINCT
        );
    }
}

/// A cheap (never batched) UDF that counts its invocations.
#[derive(Default)]
struct TickUdf {
    calls: AtomicU64,
}

impl ScalarUdf for TickUdf {
    fn name(&self) -> &str {
        "tick"
    }
    fn invoke(&self, _args: &[Value]) -> swan_sqlengine::Result<Value> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        Ok(Value::Integer(1))
    }
}

/// Subquery-bearing predicates fan out against the statement-shared
/// `Send + Sync` subquery cache. The observable
/// contract: an uncorrelated subquery's rows are evaluated exactly once
/// per statement at *every* thread count — with per-worker caches the
/// counting UDF inside the subquery would fire up to `threads ×` as
/// often. Rows must stay byte-identical to serial throughout.
///
/// The keyed build of an equality-correlated scalar aggregate is the same
/// single flight: a cheap counting UDF in its local conjunct fires at most
/// |inner| + 1 times (the build, plus the classifying trial run's first
/// row) whatever the number of outer rows and the thread count — the
/// per-row path fires once per outer row and matching inner row.
#[test]
fn uncorrelated_subquery_executes_once_at_every_thread_count() {
    let build = |threads: usize| {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        db.execute("CREATE TABLE lookup (k INTEGER PRIMARY KEY)").unwrap();
        {
            let t = db.catalog_mut().get_mut("t").unwrap();
            for i in 0..500i64 {
                t.insert_row(vec![Value::Integer(i), Value::Integer(i % 7)]).unwrap();
            }
            let l = db.catalog_mut().get_mut("lookup").unwrap();
            for k in 0..5i64 {
                l.insert_row(vec![Value::Integer(k)]).unwrap();
            }
        }
        let udf = Arc::new(TagUdf::default());
        db.register_udf(udf.clone());
        let tick = Arc::new(TickUdf::default());
        db.register_udf(tick.clone());
        db.set_optimizer(if threads == 1 {
            serial_config()
        } else {
            parallel_config(threads)
        });
        (db, udf, tick)
    };
    // slow_tag runs once per lookup row iff the subquery runs once.
    let sql = "SELECT id FROM t \
               WHERE n IN (SELECT k FROM lookup WHERE slow_tag('q', k) LIKE 'vq%') \
               ORDER BY id";
    // tick runs once per lookup row iff the keyed build runs once.
    let keyed = |outer_rows: usize| {
        format!(
            "SELECT id FROM t WHERE id < {outer_rows} AND \
             (SELECT COUNT(*) FROM lookup WHERE lookup.k = t.n AND tick(k) > 0) > 0 ORDER BY id"
        )
    };

    let (serial_db, serial_udf, per_row_tick) = build(1);
    let serial = serial_db.query(sql).unwrap();
    assert!(!serial.rows.is_empty());
    assert_eq!(serial_udf.tuples.load(Ordering::SeqCst), 5, "one call per lookup row");

    let mut per_row = serial_db.clone();
    per_row.set_optimizer(OptimizerConfig { index_scan: false, ..serial_config() });

    for threads in [1usize, 2, 8] {
        let (par_db, par_udf, tick) = build(threads);
        let parallel = par_db.query(sql).unwrap();
        assert_eq!(parallel.rows, serial.rows, "rows diverge at {threads} threads");
        assert_eq!(
            par_udf.tuples.load(Ordering::SeqCst),
            5,
            "shared subquery cache: the subquery must execute exactly once \
             at {threads} threads"
        );
        for outer_rows in [50, 500] {
            let before = tick.calls.load(Ordering::SeqCst);
            let rows = par_db.query(&keyed(outer_rows)).unwrap().rows;
            let calls = tick.calls.load(Ordering::SeqCst) - before;
            assert_eq!(rows, per_row.query(&keyed(outer_rows)).unwrap().rows);
            assert!(
                (5..=6).contains(&calls),
                "keyed build over 5 inner rows fired the local conjunct {calls} times \
                 for {outer_rows} outer rows at {threads} threads"
            );
        }
    }
    // The bound discriminates: the per-row reference paid per outer row.
    assert!(per_row_tick.calls.load(Ordering::SeqCst) > 6 * 100);
}

/// Correlated subqueries in a parallel filter: per-row re-execution on
/// worker threads agrees with serial row for row.
#[test]
fn correlated_subquery_filter_matches_serial() {
    let build = |threads: usize| {
        let mut db = Database::new();
        db.execute("CREATE TABLE o (id INTEGER PRIMARY KEY, grp INTEGER)").unwrap();
        db.execute("CREATE TABLE i (id INTEGER PRIMARY KEY, grp INTEGER)").unwrap();
        {
            let o = db.catalog_mut().get_mut("o").unwrap();
            for k in 0..300i64 {
                o.insert_row(vec![Value::Integer(k), Value::Integer(k % 11)]).unwrap();
            }
            let i = db.catalog_mut().get_mut("i").unwrap();
            for k in 0..40i64 {
                i.insert_row(vec![Value::Integer(k), Value::Integer(k % 5)]).unwrap();
            }
        }
        db.set_optimizer(if threads == 1 {
            serial_config()
        } else {
            parallel_config(threads)
        });
        db
    };
    let sql = "SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.grp = o.grp) ORDER BY id";
    let serial = build(1).query(sql).unwrap();
    assert!(!serial.rows.is_empty() && serial.rows.len() < 300, "filter must discriminate");
    for &threads in THREAD_COUNTS {
        let parallel = build(threads).query(sql).unwrap();
        assert_eq!(parallel.rows, serial.rows, "rows diverge at {threads} threads");
    }
}

/// A subquery inside a non-equi ON may read any column of the combined
/// row, including one the predicate does not otherwise name (`a.x` here),
/// so the nested loop gathers the whole row for it — at every thread
/// count. The second nested-loop join this engine used to carry did not,
/// and returned 20 rows (every `b` side NULL) at 2 threads.
#[test]
fn left_join_on_subquery_reads_any_combined_row_column() {
    let build = || {
        let mut db = Database::new();
        db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER)").unwrap();
        db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY, y INTEGER)").unwrap();
        db.execute("CREATE TABLE c (v INTEGER)").unwrap();
        db.execute("INSERT INTO c VALUES (1), (2)").unwrap();
        for i in 0..20i64 {
            let a = db.catalog_mut().get_mut("a").unwrap();
            a.insert_row(vec![Value::Integer(i), Value::Integer(i % 5)]).unwrap();
            let b = db.catalog_mut().get_mut("b").unwrap();
            b.insert_row(vec![Value::Integer(i), Value::Integer(i % 3)]).unwrap();
        }
        db
    };
    let sql = "SELECT a.id, b.id FROM a LEFT JOIN b ON a.id < b.id \
               AND b.y IN (SELECT v FROM c WHERE c.v = a.x)";
    diff_query_on(&build, sql);
    for threads in [1usize, 2, 8] {
        let mut db = build();
        db.set_optimizer(OptimizerConfig { threads, parallel_threshold: 1, ..Default::default() });
        assert_eq!(db.query(sql).unwrap().rows.len(), 39, "at {threads} thread(s)");
    }
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
            return Err(swan_sqlengine::Error::Udf {
                name: "counted".into(),
                message: format!("refused {n}"),
            });
        }
        Ok(Value::Integer(1))
    }
}

/// Work-count parity: each operator evaluates its expression exactly once
/// per unit of its input — table rows for a scan filter, surviving rows for
/// the projection, input rows for a GROUP BY key, key-matching candidate
/// pairs for a hash-join residual — whether its loop is dispatched inline
/// (`threads: 1`) or fanned out. A failing row stops an inline pass on the
/// spot, and at every thread count the statement reports the earliest
/// failing row in input order.
#[test]
fn work_counts_do_not_depend_on_the_dispatch() {
    const ROWS: i64 = 3000;
    let build = |threads: usize, fail_from: i64| {
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
        db.set_optimizer(if threads == 1 { serial_config() } else { parallel_config(threads) });
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
    for threads in [1usize, 2, 8] {
        for (sql, expected) in cases {
            let (db, udf) = build(threads, i64::MAX);
            db.query(sql).unwrap_or_else(|e| panic!("{threads}-thread {sql}: {e}"));
            assert_eq!(
                udf.calls.load(Ordering::SeqCst),
                expected,
                "invocations at {threads} thread(s) for {sql}"
            );
        }

        // Rows 0..1499 pass; every later row fails, naming itself.
        let (db, udf) = build(threads, 1500);
        let err = db.query("SELECT id FROM t WHERE counted(id) > 0").unwrap_err();
        assert!(err.to_string().contains("refused 1500"), "at {threads} thread(s): {err}");
        if threads == 1 {
            assert_eq!(udf.calls.load(Ordering::SeqCst), 1501, "inline stops at the failing row");
        }
    }
}

/// ORDER BY ties at the LIMIT boundary: the kept prefix must be exactly
/// the stable-sort prefix (first-come-first-kept) at every thread count —
/// the documented tie-break contract.
#[test]
fn topk_tie_break_is_stable_at_every_thread_count() {
    let build = |threads: usize| {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        {
            let t = db.catalog_mut().get_mut("t").unwrap();
            for i in 0..6000i64 {
                // Heavy ties: only 3 distinct sort keys.
                t.insert_row(vec![Value::Integer(i), Value::Integer(i % 3)]).unwrap();
            }
        }
        db.set_optimizer(if threads == 1 {
            serial_config()
        } else {
            parallel_config(threads)
        });
        db
    };
    // Stable expectation: among n == 0 ties, the lowest ids win, in order.
    let expect: Vec<i64> = (0..5).map(|i| i * 3).collect();
    for threads in [1usize, 2, 8] {
        let db = build(threads);
        let r = db.query("SELECT id FROM t ORDER BY n LIMIT 5").unwrap();
        let got: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(got, expect, "tie-break diverged at {threads} thread(s)");
        // And LIMIT k is a prefix of the full ordered result.
        let full = db.query("SELECT id FROM t ORDER BY n").unwrap();
        let prefix: Vec<i64> =
            full.rows[..5].iter().map(|row| row[0].as_i64().unwrap()).collect();
        assert_eq!(got, prefix, "LIMIT must be a stable-sort prefix at {threads} thread(s)");
    }
}
