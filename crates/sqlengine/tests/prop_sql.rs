//! Property-based tests for the SQL engine (proptest).
//!
//! Reproducibility: every property's case stream is deterministic per
//! test name, shifted by the `SWAN_SEED` environment variable (default
//! 0). A failing property prints the seed and case number; re-running
//! with that `SWAN_SEED` exported replays the identical stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use swan_sqlengine::optimizer::fold_expr;
use swan_sqlengine::parser::{parse_expression, parse_statement};
use swan_sqlengine::value::Value;
use swan_sqlengine::{Database, OptimizerConfig, QueryResult, ScalarUdf};

/// Every optimizer rule switched off: the reference executor.
fn all_rules_off() -> OptimizerConfig {
    OptimizerConfig {
        pushdown: false,
        order_expensive_last: false,
        fold_constants: false,
        reorder_joins: false,
        prune_columns: false,
        batch_expensive_udfs: false,
        ..Default::default()
    }
}

/// Schemas shaped like the four SWAN domains (a fact table, a dimension,
/// and a small lookup each), populated deterministically from a seed so
/// optimized-vs-unoptimized runs see identical data.
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

/// Build one SWAN-shaped domain database. `fact` rows link into `dim`
/// (including some dangling/NULL keys so LEFT-join and NULL semantics get
/// exercised), `tiny` is a 4-row lookup joined by modulus.
fn domain_db(domain: usize, rows: &[(i64, i64, String)]) -> Database {
    let (_, fact_ddl, dim_ddl, _) = DOMAINS[domain];
    let mut db = Database::new();
    db.execute(fact_ddl).unwrap();
    db.execute(dim_ddl).unwrap();
    db.execute("CREATE TABLE tiny (k INTEGER PRIMARY KEY, tag TEXT)").unwrap();

    let dim_name = dim_table(domain);
    let dim_rows = (rows.len() / 3).max(2);
    {
        let dim = db.catalog_mut().get_mut(dim_name).unwrap();
        for i in 0..dim_rows {
            dim.insert_row(vec![Value::Integer(i as i64), Value::text(format!("name-{i}"))])
                .unwrap();
        }
    }
    {
        let fact = db.catalog_mut().get_mut(fact_table(domain)).unwrap();
        for (i, (raw, n, s)) in rows.iter().enumerate() {
            // Some keys dangle past the dimension, some are NULL.
            let fk = match raw.rem_euclid(10) {
                0 => Value::Null,
                _ => Value::Integer(raw.rem_euclid(dim_rows as i64 + 3)),
            };
            fact.insert_row(vec![
                Value::Integer(i as i64),
                fk,
                Value::Integer(*n),
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

/// A deterministic "expensive" UDF standing in for an LLM call: the value
/// is a pure function of the arguments, and every evaluated tuple is
/// counted whether it arrives through per-row `invoke` or a vectorized
/// `invoke_batch`.
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

fn assert_same_results(sql: &str, opt: &QueryResult, off: &QueryResult) {
    assert_eq!(opt.columns, off.columns, "column names differ for {sql}");
    assert_eq!(opt.rows, off.rows, "rows differ for {sql}");
}

/// Build a small database with a deterministic content derived from the
/// proptest-generated rows.
fn db_with_rows(rows: &[(i64, i64, String)]) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER, s TEXT)").unwrap();
    let table = db.catalog_mut().get_mut("t").unwrap();
    for (i, (_, n, s)) in rows.iter().enumerate() {
        table
            .insert_row(vec![
                Value::Integer(i as i64),
                Value::Integer(*n),
                Value::text(s.clone()),
            ])
            .unwrap();
    }
    db
}

proptest! {
    /// The parser must never panic, on any input.
    #[test]
    fn parser_never_panics(input in ".{0,200}") {
        let _ = parse_statement(&input);
        let _ = parse_expression(&input);
    }

    /// Parse(expr) must never panic on structured SQL-ish strings either.
    #[test]
    fn parser_handles_sqlish_tokens(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("SELECT".to_string()),
                Just("FROM".to_string()),
                Just("WHERE".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just(",".to_string()),
                Just("*".to_string()),
                Just("'x'".to_string()),
                Just("1".to_string()),
                Just("t".to_string()),
                Just("=".to_string()),
                Just("AND".to_string()),
            ],
            0..24,
        )
    ) {
        let sql = parts.join(" ");
        let _ = parse_statement(&sql);
    }

    /// ORDER BY returns a permutation of the unordered result, sorted.
    #[test]
    fn order_by_is_a_sorted_permutation(
        rows in proptest::collection::vec((any::<i64>(), -100i64..100, "[a-z]{0,6}"), 0..40)
    ) {
        let db = db_with_rows(&rows);
        let unordered = db.query("SELECT n FROM t").unwrap();
        let ordered = db.query("SELECT n FROM t ORDER BY n").unwrap();
        prop_assert_eq!(unordered.rows.len(), ordered.rows.len());
        let mut expect: Vec<i64> = unordered.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        expect.sort();
        let got: Vec<i64> = ordered.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        prop_assert_eq!(expect, got);
    }

    /// LIMIT never yields more rows than asked, and is a prefix of the
    /// ordered result.
    #[test]
    fn limit_is_a_prefix(
        rows in proptest::collection::vec((any::<i64>(), -100i64..100, "[a-z]{0,6}"), 0..40),
        k in 0usize..10
    ) {
        let db = db_with_rows(&rows);
        let all = db.query("SELECT id FROM t ORDER BY n, id").unwrap();
        let limited = db.query(&format!("SELECT id FROM t ORDER BY n, id LIMIT {k}")).unwrap();
        prop_assert_eq!(limited.rows.len(), k.min(all.rows.len()));
        for (a, b) in all.rows.iter().zip(&limited.rows) {
            prop_assert_eq!(&a[0], &b[0]);
        }
    }

    /// The optimizer must not change query results (pushdown + folding
    /// vs nothing), across a family of filters.
    #[test]
    fn optimizer_preserves_semantics(
        rows in proptest::collection::vec((any::<i64>(), -50i64..50, "[a-z]{0,4}"), 0..30),
        threshold in -50i64..50
    ) {
        let sql = format!(
            "SELECT t1.id FROM t t1 JOIN t t2 ON t1.id = t2.id \
             WHERE t1.n > {threshold} AND t2.s LIKE 'a%' ORDER BY t1.id"
        );
        let mut on = db_with_rows(&rows);
        on.set_optimizer(OptimizerConfig::default());
        let mut off = db_with_rows(&rows);
        off.set_optimizer(all_rules_off());
        let a = on.query(&sql).unwrap();
        let b = off.query(&sql).unwrap();
        prop_assert_eq!(a.rows, b.rows);
    }

    /// COUNT(*) equals the number of inserted rows; WHERE partitions it.
    #[test]
    fn count_partitions(
        rows in proptest::collection::vec((any::<i64>(), -50i64..50, "[a-z]{0,4}"), 0..40),
        pivot in -50i64..50
    ) {
        let db = db_with_rows(&rows);
        let total = db.query("SELECT COUNT(*) FROM t").unwrap().rows[0][0].as_i64().unwrap();
        prop_assert_eq!(total as usize, rows.len());
        let above = db
            .query(&format!("SELECT COUNT(*) FROM t WHERE n > {pivot}"))
            .unwrap()
            .rows[0][0].as_i64().unwrap();
        let below_eq = db
            .query(&format!("SELECT COUNT(*) FROM t WHERE n <= {pivot}"))
            .unwrap()
            .rows[0][0].as_i64().unwrap();
        prop_assert_eq!(above + below_eq, total, "no NULLs, so the two halves partition");
    }

    /// DISTINCT yields unique rows and preserves membership.
    #[test]
    fn distinct_unique_and_complete(
        rows in proptest::collection::vec((any::<i64>(), -8i64..8, "[ab]{0,2}"), 0..40)
    ) {
        let db = db_with_rows(&rows);
        let d = db.query("SELECT DISTINCT n FROM t").unwrap();
        let mut seen = std::collections::HashSet::new();
        for r in &d.rows {
            prop_assert!(seen.insert(r[0].as_i64().unwrap()), "duplicate in DISTINCT");
        }
        let all: std::collections::HashSet<i64> =
            rows.iter().map(|(_, n, _)| *n).collect();
        prop_assert_eq!(seen, all);
    }

    /// Constant folding agrees with direct evaluation on literal trees.
    #[test]
    fn fold_agrees_with_eval(a in -1000i64..1000, b in -1000i64..1000, c in -1000i64..1000) {
        let sql = format!("({a} + {b}) * {c} - {a}");
        let folded = fold_expr(parse_expression(&sql).unwrap());
        let db = Database::new();
        let direct = db.query(&format!("SELECT {sql}")).unwrap();
        if let swan_sqlengine::ast::Expr::Literal(v) = folded {
            prop_assert_eq!(v, direct.rows[0][0].clone());
        } else {
            // Overflow prevented folding; direct evaluation must also be
            // checked (query would error) — nothing to compare.
        }
    }

    /// UNION is idempotent: `q UNION q` has the same rows as `SELECT DISTINCT q`.
    #[test]
    fn union_idempotent(
        rows in proptest::collection::vec((any::<i64>(), -10i64..10, "[a-z]{0,3}"), 0..30)
    ) {
        let db = db_with_rows(&rows);
        let twice = db
            .query("SELECT n FROM t UNION SELECT n FROM t ORDER BY 1")
            .unwrap();
        let once = db.query("SELECT DISTINCT n FROM t ORDER BY 1").unwrap();
        prop_assert_eq!(twice.rows, once.rows);
    }

    /// Full-pipeline optimizer equivalence over the four SWAN domains:
    /// every rule on (pushdown, join reordering, column pruning, constant
    /// folding) vs every rule off must produce identical `QueryResult`s on
    /// randomized join/filter/aggregate queries — including three-way
    /// chains written in a deliberately bad order and comma-joins whose
    /// WHERE conjuncts the optimizer folds into join conditions.
    #[test]
    fn optimizer_full_equivalence_on_swan_domains(
        rows in proptest::collection::vec((any::<i64>(), -40i64..120, "[a-m]{0,5}"), 2..40),
        domain in 0usize..4,
        threshold in -40i64..120,
        shape in 0usize..6,
    ) {
        let (_, _, _, join) = DOMAINS[domain];
        let fact = fact_table(domain);
        let dim = dim_table(domain);
        let num = fact_num(domain);
        let fk = fact_fk(domain);
        let sql = match shape {
            // Two-way equi-join, filtered, projected.
            0 => format!(
                "SELECT s.id, p.id FROM {join} WHERE s.{num} > {threshold} ORDER BY s.id"
            ),
            // COUNT(*) join: the column-pruning fast path.
            1 => format!("SELECT COUNT(*) FROM {join} WHERE s.{num} <= {threshold}"),
            // Three-way chain written worst-first (reorder target).
            2 => format!(
                "SELECT COUNT(*) FROM {fact} s JOIN {dim} p ON s.{fk} = p.id \
                 JOIN tiny t ON p.id = t.k"
            ),
            // Comma-join: WHERE equi-conjunct becomes a join condition.
            3 => format!(
                "SELECT s.id FROM {fact} s, {dim} p, tiny t \
                 WHERE s.{fk} = p.id AND p.id = t.k AND s.{num} > {threshold} \
                 ORDER BY s.id"
            ),
            // LEFT join (reorder boundary + NULL padding semantics).
            4 => format!(
                "SELECT s.id, p.id FROM {fact} s LEFT JOIN {dim} p ON s.{fk} = p.id \
                 WHERE s.{num} > {threshold} ORDER BY s.id"
            ),
            // Aggregation over a join.
            _ => format!(
                "SELECT p.id, COUNT(*), MAX(s.{num}) FROM {join} \
                 GROUP BY p.id ORDER BY p.id"
            ),
        };

        let mut on = domain_db(domain, &rows);
        on.set_optimizer(OptimizerConfig::default());
        let mut off = domain_db(domain, &rows);
        off.set_optimizer(all_rules_off());
        let a = on.query(&sql).unwrap();
        let b = off.query(&sql).unwrap();
        assert_same_results(&sql, &a, &b);
    }

    /// Interned-text representation equivalence: a table loaded through
    /// `Arc<str>` interning behaves exactly like one loaded from owned
    /// `String`s (the seed representation), the engine's text operations
    /// agree with `str` semantics, and value clones share storage.
    #[test]
    fn interned_values_match_seed_semantics(
        strings in proptest::collection::vec("[ -~]{0,12}", 1..24),
        needle in "[a-m]{1,2}",
    ) {
        let build = |interned: bool| {
            let mut db = Database::new();
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)").unwrap();
            let table = db.catalog_mut().get_mut("t").unwrap();
            for (i, s) in strings.iter().enumerate() {
                let v = if interned {
                    // Shared-allocation path: the same Arc<str> interned.
                    Value::text(std::sync::Arc::<str>::from(s.as_str()))
                } else {
                    // Seed-style construction from an owned String.
                    Value::from(s.clone())
                };
                table.insert_row(vec![Value::Integer(i as i64), v]).unwrap();
            }
            db
        };
        let a = build(true);
        let b = build(false);
        for sql in [
            "SELECT s FROM t ORDER BY s, id".to_string(),
            "SELECT COUNT(DISTINCT s) FROM t".to_string(),
            "SELECT UPPER(s), LENGTH(s) FROM t ORDER BY id".to_string(),
            format!("SELECT id FROM t WHERE s LIKE '%{needle}%' ORDER BY id"),
        ] {
            let ra = a.query(&sql).unwrap();
            let rb = b.query(&sql).unwrap();
            assert_same_results(&sql, &ra, &rb);
        }

        // Text clones are pointer bumps sharing one allocation.
        let v = Value::text(strings[0].clone());
        let w = v.clone();
        match (v.as_shared_str(), w.as_shared_str()) {
            (Some(x), Some(y)) => prop_assert!(std::sync::Arc::ptr_eq(x, y)),
            _ => prop_assert!(strings[0].is_empty() || v.as_str().is_some()),
        }
    }

    /// Batched expensive-UDF execution returns exactly the rows of
    /// per-row `invoke` across the four SWAN domain query shapes
    /// (projection, WHERE, JOIN ON, HAVING), and never evaluates more
    /// argument tuples than the per-row path.
    #[test]
    fn batched_udf_execution_matches_per_row(
        rows in proptest::collection::vec((any::<i64>(), -40i64..120, "[a-m]{0,5}"), 2..40),
        domain in 0usize..4,
        threshold in -40i64..120,
        shape in 0usize..4,
    ) {
        let (_, _, _, join) = DOMAINS[domain];
        let fact = fact_table(domain);
        let num = fact_num(domain);
        let fk = fact_fk(domain);
        let sql = match shape {
            // Expensive call in the projection.
            0 => format!(
                "SELECT s.id, slow_tag('p', s.{num}) FROM {fact} s ORDER BY s.id"
            ),
            // Expensive conjunct in WHERE next to a cheap one.
            1 => format!(
                "SELECT s.id FROM {join} WHERE s.{num} > {threshold} \
                 AND slow_tag('w', p.id) LIKE 'vw%' ORDER BY s.id"
            ),
            // Expensive call inside a JOIN ON condition.
            2 => format!(
                "SELECT s.id, t.tag FROM {fact} s JOIN tiny t \
                 ON slow_tag('j', s.{fk}) = slow_tag('j', t.k) \
                 ORDER BY s.id, t.tag"
            ),
            // Expensive call in HAVING over grouped output.
            _ => format!(
                "SELECT p.id, COUNT(*) FROM {join} GROUP BY p.id \
                 HAVING slow_tag('h', p.id) LIKE 'vh%' ORDER BY p.id"
            ),
        };

        let batched_udf = Arc::new(TagUdf::default());
        let mut batched = domain_db(domain, &rows);
        batched.register_udf(batched_udf.clone());
        batched.set_optimizer(OptimizerConfig::default());

        let per_row_udf = Arc::new(TagUdf::default());
        let mut per_row = domain_db(domain, &rows);
        per_row.register_udf(per_row_udf.clone());
        per_row.set_optimizer(OptimizerConfig {
            batch_expensive_udfs: false,
            ..Default::default()
        });

        let a = batched.query(&sql).unwrap();
        let b = per_row.query(&sql).unwrap();
        assert_same_results(&sql, &a, &b);
        let batched_tuples = batched_udf.tuples.load(Ordering::SeqCst);
        let per_row_tuples = per_row_udf.tuples.load(Ordering::SeqCst);
        prop_assert!(
            batched_tuples <= per_row_tuples,
            "{sql}: batched evaluated {batched_tuples} tuples, per-row {per_row_tuples}"
        );
    }

    /// LIKE with a literal substring pattern agrees with str::contains.
    #[test]
    fn like_contains_agreement(
        rows in proptest::collection::vec((any::<i64>(), 0i64..2, "[a-c]{0,5}"), 0..30),
        needle in "[a-c]{1,2}"
    ) {
        let db = db_with_rows(&rows);
        let got = db
            .query(&format!("SELECT s FROM t WHERE s LIKE '%{needle}%'"))
            .unwrap();
        let expect = rows.iter().filter(|(_, _, s)| s.contains(&needle)).count();
        prop_assert_eq!(got.rows.len(), expect);
    }
}
