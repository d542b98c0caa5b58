//! Cross-configuration differential-test harness.
//!
//! Equivalence claims are only credible when backed by controlled
//! differential testing (cf. ZEUS), so this harness runs every statement
//! under the engine's reference configurations and under its fast paths,
//! over the four SWAN domain shapes, and asserts byte-identical results:
//!
//! * **columnar ≡ row** — `OptimizerConfig::columnar` off is the
//!   row-at-a-time reference for the columnar kernels, including a
//!   NULL-heavy generator that stresses the validity bitmaps, Kleene
//!   kernels and NULL-never-joins rules, and adversarial numeric text;
//! * **index scan ≡ full scan** — `OptimizerConfig::index_scan` off is the
//!   scan-only planner. `index_scan` also gates the build-once subquery
//!   path (a correlated scalar aggregate grouped once and hash-probed per
//!   outer row), so the same axis pins **build-once ≡ per-row** —
//!   `eval.rs`'s in-crate tests prove the matcher engages on these shapes;
//! * **batched ≡ per-row** — `OptimizerConfig::batch_expensive_udfs` off
//!   is the per-row reference for expensive-UDF batching (a counting UDF
//!   stands in for an LLM call): the batched engine must return the same
//!   rows and never evaluate more argument tuples than the per-row one.
//!
//! Statements with `ORDER BY` must match exactly, including the tie-break
//! contract (`LIMIT k` keeps the stable-sort prefix); statements without
//! one are compared order-insensitively (the SQL contract) **and**
//! byte-exactly, the stronger promise every configuration keeps.
//!
//! Coverage: filtered scans/projections, inner/LEFT/three-way joins,
//! GROUP BY + HAVING, DISTINCT, ORDER BY + LIMIT with deliberate ties,
//! compound UNION, subquery-bearing predicates (IN, correlated EXISTS,
//! scalar aggregates, equality-correlated scalar aggregates) and the write
//! paths.
//!
//! Reproducibility: case streams honour `SWAN_SEED` (see the proptest
//! shim); a failure prints the seed to replay it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use swan_sqlengine::value::Value;
use swan_sqlengine::{Database, OptimizerConfig, QueryResult, ScalarUdf};

/// Schemas shaped like the four SWAN domains (a fact table, a dimension,
/// and a small lookup each), populated deterministically from the
/// generated rows so every configuration sees identical data.
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

/// The reference configuration: the row path over the scan-only planner.
fn reference_config() -> OptimizerConfig {
    OptimizerConfig { columnar: false, index_scan: false, ..Default::default() }
}

/// The configurations checked against [`reference_config`]: the row path
/// with index scans, the columnar kernels with and without them (the last
/// is the default).
const FAST_PATHS: [(bool, bool); 3] = [(false, true), (true, false), (true, true)];

/// Per-row expensive-UDF evaluation: the reference for batching.
fn per_row_config() -> OptimizerConfig {
    OptimizerConfig { batch_expensive_udfs: false, ..Default::default() }
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

/// Assert `got` (run under `config`) is equivalent to `want`: exact for
/// ORDER BY; order-insensitive *and* byte-exact otherwise.
fn assert_equivalent(sql: &str, config: &str, want: &QueryResult, got: &QueryResult) {
    assert_eq!(want.columns, got.columns, "column names diverge under {config} for {sql}");
    let has_order_by = sql.to_ascii_uppercase().contains("ORDER BY");
    if !has_order_by {
        assert_eq!(multiset(want), multiset(got), "row multiset diverges under {config} for {sql}");
    }
    assert_eq!(want.rows, got.rows, "rows diverge under {config} for {sql} (byte-identical contract)");
}

/// Run `sql` under the reference configuration and every fast path over
/// fresh, identically-populated databases; assert equivalence.
fn diff_query(domain: usize, rows: &[(i64, i64, String)], sql: &str) {
    diff_query_on(&|| domain_db(domain, rows), sql);
}

/// [`diff_query`] over any database `build` produces (the same one on
/// every call).
fn diff_query_on(build: &dyn Fn() -> Database, sql: &str) {
    let run = |config: OptimizerConfig| -> QueryResult {
        let mut db = build();
        db.set_optimizer(config);
        db.query(sql).unwrap_or_else(|e| panic!("{config:?} {sql}: {e}"))
    };
    let reference = run(reference_config());
    for (columnar, index_scan) in FAST_PATHS {
        let config = OptimizerConfig { columnar, index_scan, ..Default::default() };
        let label = format!("columnar={columnar} index_scan={index_scan}");
        assert_equivalent(sql, &label, &reference, &run(config));
    }
}

proptest! {
    /// The generated query family: joins, GROUP BY/HAVING, DISTINCT,
    /// LIMIT (with ties), LEFT joins, three-way chains and compounds,
    /// across the four SWAN domain shapes.
    #[test]
    fn generated_queries_match_the_reference(
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
            // Filtered scan + projection.
            0 => format!(
                "SELECT s.id, s.{num} + 1, UPPER(s.{text}) FROM {fact} s \
                 WHERE s.{num} > {threshold}"
            ),
            // Inner hash join.
            1 => format!(
                "SELECT s.id, p.id FROM {join} WHERE s.{num} <= {threshold} ORDER BY s.id"
            ),
            // LEFT join with NULL-padded non-matches.
            2 => format!(
                "SELECT s.id, p.id FROM {fact} s LEFT JOIN {dim} p ON s.{fk} = p.id \
                 ORDER BY s.id"
            ),
            // GROUP BY + HAVING over a join.
            3 => format!(
                "SELECT p.id, COUNT(*), SUM(s.{num}) FROM {join} \
                 GROUP BY p.id HAVING COUNT(*) > 1 ORDER BY p.id"
            ),
            // GROUP BY without ORDER BY: first-seen group order must be
            // the same on the columnar key path and the row path.
            4 => format!(
                "SELECT s.{num}, COUNT(*), MIN(s.{text}) FROM {fact} s GROUP BY s.{num}"
            ),
            // DISTINCT (first-occurrence dedupe).
            5 => format!("SELECT DISTINCT s.{num}, s.{fk} FROM {fact} s"),
            // ORDER BY a low-cardinality key + LIMIT: the top-k
            // tie-break contract.
            6 => format!(
                "SELECT s.id, s.{num} FROM {fact} s ORDER BY s.{num} LIMIT {k}"
            ),
            // Three-way chain (join reordering).
            7 => format!(
                "SELECT COUNT(*) FROM {fact} s JOIN {dim} p ON s.{fk} = p.id \
                 JOIN tiny t ON p.id = t.k WHERE s.{num} > {threshold}"
            ),
            // Compound UNION over two cores.
            8 => format!(
                "SELECT s.{num} FROM {fact} s WHERE s.{num} > {threshold} \
                 UNION SELECT k FROM tiny ORDER BY 1"
            ),
            // Uncorrelated IN-subquery predicate: the inner SELECT runs
            // once per statement and is probed as a hash set.
            9 => format!(
                "SELECT s.id, s.{num} FROM {fact} s \
                 WHERE s.{fk} IN (SELECT p.id FROM {dim} p WHERE p.id > 1) \
                 ORDER BY s.id"
            ),
            // Correlated EXISTS: re-executes per row; classification
            // (correlated vs not) must agree across configurations.
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

    /// Batched ≡ per-row: expensive-UDF batching returns the per-row
    /// engine's rows and never evaluates more argument tuples than it (the
    /// prefetch only collects tuples the per-row path would evaluate).
    #[test]
    fn batched_udfs_match_per_row(
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
            // evaluates the expensive conjunct against the results).
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
        let run = |config: OptimizerConfig| -> (QueryResult, u64) {
            let udf = Arc::new(TagUdf::default());
            let mut db = domain_db(domain, &rows);
            db.register_udf(udf.clone());
            db.set_optimizer(config);
            (db.query(&sql).unwrap(), udf.tuples.load(Ordering::SeqCst))
        };
        let (per_row, per_row_tuples) = run(per_row_config());
        let (batched, batched_tuples) = run(OptimizerConfig::default());
        assert_equivalent(&sql, "batched", &per_row, &batched);
        prop_assert!(
            batched_tuples <= per_row_tuples,
            "{sql}: batched evaluated {batched_tuples} tuples, per-row {per_row_tuples}"
        );
    }

    /// INSERT … SELECT and UPDATE/DELETE write paths agree under every
    /// configuration.
    #[test]
    fn write_paths_match_the_reference(
        rows in proptest::collection::vec((any::<i64>(), -40i64..120, "[a-m]{0,5}"), 2..32),
        domain in 0usize..4,
        threshold in -40i64..120,
    ) {
        let fact = fact_table(domain);
        let num = fact_num(domain);
        let threshold = threshold.rem_euclid(7);
        let script = [
            "CREATE TABLE sink (id INTEGER, v INTEGER)".to_string(),
            format!(
                "INSERT INTO sink SELECT s.id, s.{num} FROM {fact} s WHERE s.{num} > {threshold}"
            ),
            "UPDATE sink SET v = v * 2 WHERE v < 4".to_string(),
            "DELETE FROM sink WHERE v % 3 = 0".to_string(),
        ];
        let run = |config: OptimizerConfig| -> Vec<String> {
            let mut db = domain_db(domain, &rows);
            db.set_optimizer(config);
            for stmt in &script {
                db.execute(stmt).unwrap();
            }
            multiset(&db.query("SELECT id, v FROM sink").unwrap())
        };
        let reference = run(reference_config());
        for (columnar, index_scan) in FAST_PATHS {
            let config = OptimizerConfig { columnar, index_scan, ..Default::default() };
            prop_assert_eq!(&reference, &run(config), "columnar={} index_scan={}", columnar, index_scan);
        }
    }

    /// Columnar ≡ row on NULL-heavy tables: every column type carries a
    /// validity bitmap, and the kernels' three-valued logic, aggregate
    /// NULL-skipping and join NULL-never-matches rules must agree with
    /// the row evaluator on tables where NULLs dominate.
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
        assert_columnar_matches_row(&build, &sql);
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
        assert_columnar_matches_row(&build, &sql);
    }
}

/// Columnar ≡ row for one statement over the database `build` produces.
fn assert_columnar_matches_row(build: &dyn Fn() -> Database, sql: &str) {
    let run = |columnar: bool| -> QueryResult {
        let mut db = build();
        db.set_optimizer(OptimizerConfig { columnar, ..Default::default() });
        db.query(sql).unwrap_or_else(|e| panic!("columnar={columnar} {sql}: {e}"))
    };
    assert_equivalent(sql, "columnar", &run(false), &run(true));
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

/// An expensive UDF whose `invoke_batch` never answers in full: it fails,
/// or (`short`) answers one tuple short, which the engine discards alike.
/// The statement prefetch answers nothing, so per-row invokes are the only
/// source of results. Counts every invoked tuple.
#[derive(Default)]
struct BrokenBatchUdf {
    short: bool,
    tuples: AtomicU64,
}

fn flaky_tag(args: &[Value]) -> Value {
    Value::text(format!("v{}", args.iter().map(Value::render).collect::<Vec<_>>().join("-")))
}

impl ScalarUdf for BrokenBatchUdf {
    fn name(&self) -> &str {
        "flaky_tag"
    }
    fn invoke(&self, args: &[Value]) -> swan_sqlengine::Result<Value> {
        self.tuples.fetch_add(1, Ordering::SeqCst);
        Ok(flaky_tag(args))
    }
    fn invoke_batch(&self, rows: &[Vec<Value>]) -> swan_sqlengine::Result<Vec<Value>> {
        if self.short {
            return Ok(rows.iter().skip(1).map(|args| flaky_tag(args)).collect());
        }
        Err(swan_sqlengine::Error::Udf {
            name: "flaky_tag".into(),
            message: "simulated batch failure".into(),
        })
    }
    fn is_expensive(&self) -> bool {
        true
    }
}

/// When the vectorized prefetch fails or answers short, the batched
/// engine falls back to per-row invokes whose results land in the
/// statement's answer table, so the filter invokes each distinct tuple
/// once over a table of several morsels, and a later operator (here: the
/// projection reusing the WHERE clause's call) is served without re-invoking — one
/// invoke per distinct tuple per statement, and the per-row engine's rows.
#[test]
fn failed_invoke_batch_invokes_each_tuple_once() {
    const ROWS: i64 = 6000;
    const DISTINCT: u64 = 5;
    let run = |config: OptimizerConfig, short: bool| {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        {
            let t = db.catalog_mut().get_mut("t").unwrap();
            for i in 0..ROWS {
                t.insert_row(vec![Value::Integer(i), Value::Integer(i % DISTINCT as i64)])
                    .unwrap();
            }
        }
        let udf = Arc::new(BrokenBatchUdf { short, ..Default::default() });
        db.register_udf(udf.clone());
        db.set_optimizer(config);
        let sql = "SELECT id, flaky_tag(n) FROM t WHERE flaky_tag(n) LIKE 'v%' ORDER BY id";
        (db.query(sql).unwrap(), udf.tuples.load(Ordering::SeqCst))
    };
    for short in [false, true] {
        let (batched, tuples) = run(OptimizerConfig::default(), short);
        assert_eq!(batched.rows.len(), ROWS as usize);
        assert_eq!(batched.rows, run(per_row_config(), short).0.rows);
        assert_eq!(
            tuples, DISTINCT,
            "short={short}: one invoke per distinct tuple, shared across WHERE and projection"
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

/// An uncorrelated subquery's rows are evaluated exactly once per
/// statement: the counting UDF inside it fires once per lookup row.
///
/// The keyed build of an equality-correlated scalar aggregate is the same:
/// a cheap counting UDF in its local conjunct fires at most |inner| + 1
/// times (the build, plus the classifying trial run's first row) whatever
/// the number of outer rows — the per-row reference (`index_scan: false`)
/// fires once per outer row and matching inner row, and returns the same
/// rows.
#[test]
fn uncorrelated_subquery_and_keyed_build_execute_once() {
    let build = |config: OptimizerConfig| {
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
        db.set_optimizer(config);
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

    let (db, udf, tick) = build(OptimizerConfig::default());
    let (per_row, _, per_row_tick) = build(reference_config());
    let rows = db.query(sql).unwrap().rows;
    assert!(!rows.is_empty());
    assert_eq!(rows, per_row.query(sql).unwrap().rows);
    assert_eq!(udf.tuples.load(Ordering::SeqCst), 5, "the subquery executes exactly once");
    for outer_rows in [50, 500] {
        let before = tick.calls.load(Ordering::SeqCst);
        let rows = db.query(&keyed(outer_rows)).unwrap().rows;
        let calls = tick.calls.load(Ordering::SeqCst) - before;
        assert_eq!(rows, per_row.query(&keyed(outer_rows)).unwrap().rows);
        assert!(
            (5..=6).contains(&calls),
            "keyed build over 5 inner rows fired the local conjunct {calls} times \
             for {outer_rows} outer rows"
        );
    }
    // The bound discriminates: the per-row reference paid per outer row.
    assert!(per_row_tick.calls.load(Ordering::SeqCst) > 6 * 50);
}

/// Correlated subqueries in a filter re-execute per row and agree with the
/// reference row for row.
#[test]
fn correlated_subquery_filter_matches_the_reference() {
    let build = || {
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
        db
    };
    let sql = "SELECT id FROM o WHERE EXISTS (SELECT 1 FROM i WHERE i.grp = o.grp) ORDER BY id";
    let rows = build().query(sql).unwrap().rows;
    assert!(!rows.is_empty() && rows.len() < 300, "filter must discriminate");
    diff_query_on(&build, sql);
}

/// A subquery inside a non-equi ON may read any column of the combined
/// row, including one the predicate does not otherwise name (`a.x` here),
/// so the nested loop gathers the whole row for it. A second nested-loop
/// join this engine once carried did not, and returned 20 rows (every `b`
/// side NULL).
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
    assert_eq!(build().query(sql).unwrap().rows.len(), 39);
}

/// ORDER BY ties at the LIMIT boundary: the kept prefix must be exactly
/// the stable-sort prefix (first-come-first-kept) under every
/// configuration — the documented tie-break contract.
#[test]
fn topk_tie_break_is_stable_in_every_configuration() {
    let build = || {
        let mut db = Database::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        {
            let t = db.catalog_mut().get_mut("t").unwrap();
            for i in 0..6000i64 {
                // Heavy ties: only 3 distinct sort keys.
                t.insert_row(vec![Value::Integer(i), Value::Integer(i % 3)]).unwrap();
            }
        }
        db
    };
    // Stable expectation: among n == 0 ties, the lowest ids win, in order.
    let expect: Vec<i64> = (0..5).map(|i| i * 3).collect();
    let ids = |r: &QueryResult| -> Vec<i64> {
        r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect()
    };
    let db = build();
    let got = ids(&db.query("SELECT id FROM t ORDER BY n LIMIT 5").unwrap());
    assert_eq!(got, expect, "tie-break diverged");
    // And LIMIT k is a prefix of the full ordered result.
    let full = ids(&db.query("SELECT id FROM t ORDER BY n").unwrap());
    assert_eq!(got, full[..5], "LIMIT must be a stable-sort prefix");
    diff_query_on(&build, "SELECT id FROM t ORDER BY n LIMIT 5");
}
