//! Property-based tests for the SQL engine (proptest).
//!
//! Reproducibility: every property's case stream is deterministic per
//! test name, shifted by the `SWAN_SEED` environment variable (default
//! 0). A failing property prints the seed and case number; re-running
//! with that `SWAN_SEED` exported replays the identical stream.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use swan_sqlengine::parser::{parse_expression, parse_statement};
use swan_sqlengine::value::{ThinStr, UdfArgs, Value};
use swan_sqlengine::{Database, OptimizerConfig, QueryResult, ScalarUdf};

/// Every optimizer rule switched off: the reference executor.
fn all_rules_off() -> OptimizerConfig {
    OptimizerConfig {
        order_expensive_last: false,
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
/// is a pure function of the arguments' renderings, and every evaluated
/// tuple is counted whether it arrives through per-row `invoke` or a
/// vectorized `invoke_batch`, which also records the tuples it is handed.
#[derive(Default)]
struct TagUdf {
    tuples: AtomicU64,
    batched: std::sync::Mutex<Vec<Vec<Value>>>,
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
    fn invoke_batch(&self, rows: &[Vec<Value>]) -> swan_sqlengine::Result<Vec<Value>> {
        self.batched.lock().unwrap().extend(rows.iter().cloned());
        rows.iter().map(|args| self.invoke(args)).collect()
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

/// How many cells a [`join_key_cell`] pool draws from: NULL and five
/// values.
const KEY_PICKS: usize = 6;

/// One key cell of a generated join table, from its column's class:
/// integers, reals, text, or a mix of the three — so the column sets hold
/// typed, bool and mixed columns. Every class has NULLs, and the pools sit
/// on the edges of key equality: `-0.0 = 0.0`, `1 = 1.0`, `'1' <> 1`, and
/// the real and mixed pools hold NaN (`'NaN' + 0`), which equals nothing
/// under `=` and groups with itself.
fn join_key_cell(class: usize, pick: usize) -> Value {
    match (class, pick % KEY_PICKS) {
        (_, 0) => Value::Null,
        (0, p) => Value::Integer(p as i64 - 2),
        (1, p) => Value::Real([-0.0, 0.0, 1.0, 2.5, f64::NAN][p - 1]),
        (2, p) => Value::text(["1", "x", "", "0", "NaN"][p - 1]),
        (_, p) => [
            Value::Integer(1),
            Value::Real(1.0),
            Value::text("1"),
            Value::Real(-0.0),
            Value::Real(f64::NAN),
        ][p - 1]
            .clone(),
    }
}

/// `<name> (id, k1, k2, v)`: row `i` has id `i`, its two key cells drawn
/// in the column classes `classes`, and `v` from `picks`. Returns the rows
/// it inserted.
fn join_table(
    db: &mut Database,
    name: &str,
    classes: (usize, usize),
    picks: &[(usize, usize, i64)],
) -> Vec<Vec<Value>> {
    db.execute(&format!("CREATE TABLE {name} (id INTEGER, k1, k2, v INTEGER)")).unwrap();
    let table = db.catalog_mut().get_mut(name).unwrap();
    let mut rows = Vec::new();
    for (i, &(k1, k2, v)) in picks.iter().enumerate() {
        let (k1, k2) = (join_key_cell(classes.0, k1), join_key_cell(classes.1, k2));
        let row = vec![Value::Integer(i as i64), k1, k2, Value::Integer(v)];
        table.insert_row(row.clone()).unwrap();
        rows.push(row);
    }
    rows
}

/// The in-place key updates both keyed properties run between their two
/// rounds: key cells patched, a new string among them (the first round
/// built the column sets and their dictionary words). Applies them to
/// `model`, the rows of `a` and `b`, too.
fn update_keys(db: &mut Database, model: &mut [Vec<Vec<Value>>; 2]) {
    db.execute("UPDATE a SET k1 = k2, k2 = 'y' WHERE v = 1").unwrap();
    db.execute("UPDATE b SET k2 = k1, k1 = 'y' WHERE v = 2").unwrap();
    for (rows, (v, from, to)) in model.iter_mut().zip([(1, 2, 1), (2, 1, 2)]) {
        for row in rows.iter_mut().filter(|r| r[3] == Value::Integer(v)) {
            row[to] = row[from].clone();
            row[from] = Value::text("y");
        }
    }
}

/// Grouping equality, the reference for the keyed index's
/// `KeyMode::Group`: every cell equal under `sort_cmp` — all NULLs one
/// key, all NaNs one key, `-0.0 = 0.0`, `1 = 1.0`, `'1' <> 1`.
fn same_group(a: &[Value], b: &[Value]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.sort_cmp(y) == std::cmp::Ordering::Equal)
}

/// The first row of each group of `rows`, in first-seen order, with the
/// group's size: a pairwise scan, no hashing.
fn reference_groups(rows: &[Vec<Value>]) -> Vec<(Vec<Value>, usize)> {
    let mut groups: Vec<(Vec<Value>, usize)> = Vec::new();
    for row in rows {
        match groups.iter_mut().find(|(first, _)| same_group(first, row)) {
            Some((_, n)) => *n += 1,
            None => groups.push((row.clone(), 1)),
        }
    }
    groups
}

/// Three-valued `v IN (items)` under `sql_eq`, the reference for
/// `KeyMode::NeverMatch`: a match is TRUE, no match next to an unknown
/// comparison (a NULL item, or a NULL `v` and any item) is NULL, and
/// nothing is in no items.
fn reference_in(v: &Value, items: &[Value], negated: bool) -> Value {
    let cmp: Vec<Option<bool>> = items.iter().map(|item| v.sql_eq(item)).collect();
    if cmp.contains(&Some(true)) {
        Value::Integer(!negated as i64)
    } else if cmp.contains(&None) {
        Value::Null
    } else {
        Value::Integer(negated as i64)
    }
}

/// Result rows as exact cells (storage class and bits: `-0.0` is not
/// `0.0`, `1` is not `1.0`), so a group's first row is checked, not just
/// an equal one.
fn exact(rows: &[impl AsRef<[Value]>]) -> Vec<String> {
    rows.iter().map(|r| format!("{:?}", r.as_ref())).collect()
}

/// A cell of a `SELECT a.id, b.id` result row: the id, or `None` for a
/// LEFT join's padding.
fn id_at(row: &[Value], j: usize) -> Option<i64> {
    match row[j] {
        Value::Integer(i) => Some(i),
        _ => None,
    }
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

    /// The optimizer must not change query results (every rule vs
    /// nothing), across a family of filters.
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
    /// every rule on (join reordering with its conjunct placement, column
    /// pruning) vs every rule off must produce identical `QueryResult`s on
    /// randomized join/filter/aggregate queries — including three-way
    /// chains written in a deliberately bad order and comma-joins whose
    /// WHERE conjuncts the optimizer folds into join conditions.
    #[test]
    fn optimizer_full_equivalence_on_swan_domains(
        rows in proptest::collection::vec((any::<i64>(), -40i64..120, "[a-m]{0,5}"), 2..40),
        domain in 0usize..4,
        threshold in -40i64..120,
        shape in 0usize..7,
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

    /// Shared-text representation equivalence: a table loaded through
    /// already-shared `ThinStr`s behaves exactly like one loaded from owned
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
                    // Shared-allocation path: an already-shared ThinStr.
                    Value::text(ThinStr::from(s.as_str()))
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
            (Some(x), Some(y)) => prop_assert!(ThinStr::ptr_eq(x, y)),
            _ => prop_assert!(strings[0].is_empty() || v.as_str().is_some()),
        }
    }

    /// Batched expensive-UDF execution returns exactly the rows of
    /// per-row `invoke` across the four SWAN domain query shapes over a
    /// join whose fact rows hold NULL and dangling foreign keys
    /// (projection, WHERE and HAVING over the join's output, JOIN ON),
    /// plus a GROUP BY key repeated in the output, an expensive conjunct
    /// inside a correlated EXISTS (alone, and under an operator that asks
    /// the same tuples) and a call whose argument holds a subquery over
    /// the same UDF, and never evaluates more argument tuples than the
    /// per-row path. `invoke_batch` never receives a tuple twice in a
    /// statement: a tuple one operator, one re-execution, an enclosing
    /// operator or a nested one asked is not asked again.
    #[test]
    fn batched_udf_execution_matches_per_row_over_domain_joins(
        rows in proptest::collection::vec((any::<i64>(), -40i64..120, "[a-m]{0,5}"), 2..40),
        domain in 0usize..4,
        threshold in -40i64..120,
        shape in 0usize..8,
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
            3 => format!(
                "SELECT p.id, COUNT(*) FROM {join} GROUP BY p.id \
                 HAVING slow_tag('h', p.id) LIKE 'vh%' ORDER BY p.id"
            ),
            // An expensive GROUP BY key repeated in the output.
            4 => format!(
                "SELECT slow_tag('g', p.id), COUNT(*) FROM {join} \
                 GROUP BY slow_tag('g', p.id) ORDER BY 1"
            ),
            // An expensive conjunct in a subquery re-executed per row.
            5 => format!(
                "SELECT s.id FROM {fact} s WHERE EXISTS (SELECT 1 FROM tiny t \
                 WHERE t.k = s.{num} % 4 AND slow_tag('c', t.k) LIKE 'vc%') ORDER BY s.id"
            ),
            // The same, inside an operator that asked the subquery's
            // tuples already.
            6 => format!(
                "SELECT s.id, slow_tag('c', s.{num} % 4), (SELECT COUNT(*) FROM tiny t \
                 WHERE t.k <= s.{num} % 4 AND slow_tag('c', t.k) LIKE 'vc%') \
                 FROM {fact} s ORDER BY s.id"
            ),
            // A call whose argument holds a subquery over the same UDF:
            // the subquery asks its tuples while the call's rows are
            // walked.
            _ => format!(
                "SELECT s.id, slow_tag('c', (SELECT MIN(t.k) FROM tiny t \
                 WHERE slow_tag('c', t.k) LIKE 'vc%')) FROM {fact} s ORDER BY s.id"
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
        let received = batched_udf.batched.lock().unwrap();
        let distinct: std::collections::HashSet<UdfArgs> =
            received.iter().cloned().map(UdfArgs).collect();
        prop_assert_eq!(distinct.len(), received.len(), "{}: a tuple asked twice", sql);
    }

    /// Batched expensive-UDF execution returns exactly the rows of
    /// per-row `invoke` across the four SWAN query shapes (projection,
    /// WHERE, JOIN ON, HAVING), a GROUP BY key repeated in the output and
    /// a nested-loop ON whose two calls each read one side, over the
    /// [`join_key_cell`] pools — NULL, NaN, `-0.0`/`0.0`, `1`/`1.0`/`'1'` —
    /// with `columnar` on and off, and never evaluates more argument
    /// tuples than the per-row path. What `invoke_batch` receives is each
    /// distinct tuple once under exact identity (`UdfArgs`: `1`, `1.0` and
    /// `'1'` are three, `-0.0` and `0.0` two, every NaN one), in the order
    /// the operator's rows first show it; for the hash join, whose build
    /// side the planner picks, the distinct tuples of both sides' keys.
    #[test]
    fn batched_udf_execution_matches_per_row(
        a in proptest::collection::vec((0..KEY_PICKS, 0..KEY_PICKS, 0i64..3), 1..24),
        b in proptest::collection::vec((0..KEY_PICKS, 0..KEY_PICKS, 0i64..3), 0..24),
        classes in (0usize..4, 0usize..4),
        threshold in 0i64..3,
        shape in 0usize..6,
        columnar in any::<bool>(),
    ) {
        let sql = match shape {
            // Expensive call in the projection.
            0 => "SELECT a.id, slow_tag('p', a.k1, a.k2) FROM a ORDER BY a.id".to_string(),
            // Expensive conjunct in WHERE next to a cheap one.
            1 => format!(
                "SELECT a.id FROM a WHERE a.v >= {threshold} \
                 AND slow_tag('w', a.k1) LIKE 'vw%' ORDER BY a.id"
            ),
            // Expensive calls on both sides of a JOIN ON key.
            2 => "SELECT a.id, b.id FROM a JOIN b ON slow_tag('j', a.k1) = slow_tag('j', b.k1) \
                  ORDER BY a.id, b.id"
                .to_string(),
            // Expensive call in HAVING over grouped output.
            3 => "SELECT a.k1, COUNT(*) FROM a GROUP BY a.k1 \
                  HAVING slow_tag('h', a.k1) LIKE 'vh%'"
                .to_string(),
            // An expensive GROUP BY key repeated in the output: the output
            // asks nothing the key did not.
            4 => "SELECT slow_tag('g', a.k1), COUNT(*) FROM a GROUP BY slow_tag('g', a.k1)"
                .to_string(),
            // A nested loop whose two calls each read one side.
            _ => "SELECT a.id, b.id FROM a JOIN b ON slow_tag('n', a.k1) < slow_tag('m', b.k2) \
                  ORDER BY a.id, b.id"
                .to_string(),
        };
        let run = |config: OptimizerConfig| {
            let mut db = Database::new();
            let rows = [
                join_table(&mut db, "a", classes, &a),
                join_table(&mut db, "b", (classes.1, classes.0), &b),
            ];
            let udf = Arc::new(TagUdf::default());
            db.register_udf(udf.clone());
            db.set_optimizer(config);
            (db.query(&sql).unwrap(), udf, rows)
        };
        let (batched, batched_udf, [ra, rb]) =
            run(OptimizerConfig { columnar, ..Default::default() });
        let (per_row, per_row_udf, _) =
            run(OptimizerConfig { batch_expensive_udfs: false, ..Default::default() });
        assert_same_results(&sql, &batched, &per_row);
        let batched_tuples = batched_udf.tuples.load(Ordering::SeqCst);
        let per_row_tuples = per_row_udf.tuples.load(Ordering::SeqCst);
        prop_assert!(
            batched_tuples <= per_row_tuples,
            "{sql}: batched evaluated {batched_tuples} tuples, per-row {per_row_tuples}"
        );

        // The tuples the operator's rows show, in row order.
        let tagged = |tag: &str, rows: &mut dyn Iterator<Item = &Vec<Value>>, cols: &[usize]| {
            rows.map(|r| {
                let mut t = vec![Value::text(tag)];
                t.extend(cols.iter().map(|&c| r[c].clone()));
                t
            })
            .collect::<Vec<_>>()
        };
        let shown = match shape {
            0 => tagged("p", &mut ra.iter(), &[1, 2]),
            1 => tagged("w", &mut ra.iter().filter(|r| r[3].as_i64() >= Some(threshold)), &[1]),
            2 => tagged("j", &mut ra.iter().chain(&rb), &[1]),
            4 => tagged("g", &mut ra.iter(), &[1]),
            // No pair, no call.
            5 if rb.is_empty() => Vec::new(),
            5 => {
                let mut shown = tagged("n", &mut ra.iter(), &[1]);
                shown.extend(tagged("m", &mut rb.iter(), &[2]));
                shown
            }
            _ => {
                let keys: Vec<Vec<Value>> = ra.iter().map(|r| vec![r[1].clone()]).collect();
                let reps: Vec<Vec<Value>> =
                    reference_groups(&keys).into_iter().map(|(k, _)| k).collect();
                tagged("h", &mut reps.iter(), &[0])
            }
        };
        let mut distinct: Vec<UdfArgs> = Vec::new();
        for t in shown {
            let t = UdfArgs(t);
            if !distinct.contains(&t) {
                distinct.push(t);
            }
        }
        let mut received: Vec<UdfArgs> =
            batched_udf.batched.lock().unwrap().iter().cloned().map(UdfArgs).collect();
        if shape == 2 {
            // Each distinct tuple once, whichever side went first.
            prop_assert_eq!(received.len(), distinct.len(), "{}", sql);
            received.retain(|t| distinct.contains(t));
            prop_assert_eq!(received.len(), distinct.len(), "{}", sql);
        } else {
            prop_assert!(
                received == distinct,
                "{sql}: received {received:?}, first seen {distinct:?}"
            );
        }
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

    /// The hash join ≡ the nested loop. Random two-table joins on one or
    /// two key columns over the [`join_key_cell`] pools (NULL, NaN,
    /// `-0.0`/`0.0`, `1`/`1.0`/`'1'`) — inner, LEFT, each with and without a residual;
    /// over base-table scans, a derived table and expression keys; with
    /// `columnar` on and off; before and after in-place updates of the key
    /// columns — return the rows of the same join written
    /// `ON NOT (a.k <> b.k)`, which `split_equi_join` leaves to the nested
    /// loop, as a multiset. The hash join emits in probe order: probe rows
    /// in input order, each one's matches in build order.
    #[test]
    fn hash_join_matches_the_nested_loop(
        a in proptest::collection::vec((0..KEY_PICKS, 0..KEY_PICKS, 0i64..3), 0..24),
        b in proptest::collection::vec((0..KEY_PICKS, 0..KEY_PICKS, 0i64..3), 0..24),
        classes in (0usize..4, 0usize..4, 0usize..4, 0usize..4),
        two_keys in any::<bool>(),
        left in any::<bool>(),
        residual in any::<bool>(),
        source in 0usize..3,
        columnar in any::<bool>(),
    ) {
        let mut db = Database::new();
        let mut model = [
            join_table(&mut db, "a", (classes.0, classes.1), &a),
            join_table(&mut db, "b", (classes.2, classes.3), &b),
        ];
        db.set_optimizer(OptimizerConfig { columnar, reorder_joins: false, ..Default::default() });

        // source 0: scans; 1: b as a derived table; 2: expression keys.
        let keys: &[&str] = if two_keys { &["k1", "k2"] } else { &["k1"] };
        let bq = if source == 1 { "d" } else { "b" };
        let side = |t: &str, k: &str| {
            if source == 2 { format!("COALESCE({t}.{k})") } else { format!("{t}.{k}") }
        };
        let on = |eq: fn(String, String) -> String| {
            let mut on: Vec<String> = keys.iter().map(|k| eq(side("a", k), side(bq, k))).collect();
            if residual {
                on.push(format!("a.v < {bq}.v"));
            }
            on.join(" AND ")
        };
        let from_b = if source == 1 { "(SELECT id, k1, k2, v FROM b) AS d" } else { "b" };
        let join = if left { "LEFT JOIN" } else { "JOIN" };
        let sql = |on: String| format!("SELECT a.id, {bq}.id FROM a {join} {from_b} ON {on}");
        let hash_sql = sql(on(|l, r| format!("{l} = {r}")));
        let loop_sql = sql(on(|l, r| format!("NOT ({l} <> {r})")));

        for round in 0..2 {
            if round == 1 {
                update_keys(&mut db, &mut model);
            }
            let hashed = db.query(&hash_sql).unwrap_or_else(|e| panic!("{hash_sql}: {e}")).rows;
            let looped = db.query(&loop_sql).unwrap().rows;
            let sorted = |rows: &[swan_sqlengine::value::Row]| {
                let mut ids: Vec<_> = rows.iter().map(|r| (id_at(r, 0), id_at(r, 1))).collect();
                ids.sort();
                ids
            };
            prop_assert_eq!(sorted(&hashed), sorted(&looped), "{}", hash_sql);

            // Inner joins build on the smaller input and probe the other;
            // a LEFT join probes from the left.
            let probe_a = left || a.len() >= b.len();
            let order: Vec<(Option<i64>, Option<i64>)> = hashed
                .iter()
                .map(|r| {
                    let (ai, bi) = (id_at(r, 0), id_at(r, 1));
                    if probe_a { (ai, bi) } else { (bi, ai) }
                })
                .collect();
            prop_assert!(order.windows(2).all(|w| w[0] < w[1]), "{}: {:?}", hash_sql, order);
        }
    }
    /// Every grouping and membership operator ≡ a pairwise reference over
    /// the generated cells (`sort_cmp` for grouping, `sql_eq` for `IN`; no
    /// hashing, no engine). Over the [`join_key_cell`] pools, on one or
    /// two key columns read from scans, a derived table or expression
    /// keys, with `columnar` on and off, before and after in-place updates
    /// of the key columns:
    /// - GROUP BY with `COUNT(*)`: each group's first row and size, groups
    ///   in first-seen order;
    /// - DISTINCT: each first copy, in order;
    /// - `COUNT(DISTINCT)` per group of `v`: distinct non-NULL keys;
    /// - UNION / EXCEPT / INTERSECT: the first copies of the union, or of
    ///   the left rows the right side has / has not;
    /// - `IN` / `NOT IN (SELECT …)`, uncorrelated and correlated (a
    ///   subquery that is empty for some outer rows), three-valued.
    #[test]
    fn keyed_operators_match_a_pairwise_reference(
        a in proptest::collection::vec((0..KEY_PICKS, 0..KEY_PICKS, 0i64..3), 0..24),
        b in proptest::collection::vec((0..KEY_PICKS, 0..KEY_PICKS, 0i64..3), 0..24),
        classes in (0usize..4, 0usize..4, 0usize..4, 0usize..4),
        two_keys in any::<bool>(),
        source in 0usize..3,
        columnar in any::<bool>(),
    ) {
        let mut db = Database::new();
        let mut model = [
            join_table(&mut db, "a", (classes.0, classes.1), &a),
            join_table(&mut db, "b", (classes.2, classes.3), &b),
        ];
        db.set_optimizer(OptimizerConfig { columnar, ..Default::default() });

        // source 0: scans; 1: derived tables; 2: expression keys.
        let from = |t: &str| {
            let derived = format!("(SELECT id, k1, k2, v FROM {t}) AS {t}");
            if source == 1 { derived } else { t.to_string() }
        };
        let key = |k: &str| if source == 2 { format!("COALESCE({k})") } else { k.to_string() };
        let slots: &[usize] = if two_keys { &[1, 2] } else { &[1] };
        let keys = slots.iter().map(|&j| key(["", "k1", "k2"][j])).collect::<Vec<_>>().join(", ");
        let k1 = key("k1");
        let (fa, fb) = (from("a"), from("b"));

        for round in 0..2 {
            if round == 1 {
                update_keys(&mut db, &mut model);
            }
            let [ra, rb] = &model;
            let key_rows = |rows: &[Vec<Value>]| -> Vec<Vec<Value>> {
                rows.iter().map(|r| slots.iter().map(|&j| r[j].clone()).collect()).collect()
            };
            let (ka, kb) = (key_rows(ra), key_rows(rb));
            let run = |sql: &str| {
                db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).rows
            };
            let firsts = |rows: &[Vec<Value>]| -> Vec<Vec<Value>> {
                reference_groups(rows).into_iter().map(|(first, _)| first).collect()
            };

            let sql = format!("SELECT {keys}, COUNT(*) FROM {fa} GROUP BY {keys}");
            let want: Vec<Vec<Value>> = reference_groups(&ka)
                .into_iter()
                .map(|(mut first, n)| {
                    first.push(Value::Integer(n as i64));
                    first
                })
                .collect();
            prop_assert_eq!(exact(&run(&sql)), exact(&want), "{}", sql);

            let sql = format!("SELECT DISTINCT {keys} FROM {fa}");
            prop_assert_eq!(exact(&run(&sql)), exact(&firsts(&ka)), "{}", sql);

            let sql = format!("SELECT v, COUNT(DISTINCT {k1}) FROM {fa} GROUP BY v");
            let vs: Vec<Vec<Value>> = ra.iter().map(|r| vec![r[3].clone()]).collect();
            let want: Vec<Vec<Value>> = reference_groups(&vs)
                .into_iter()
                .map(|(v, _)| {
                    let cells: Vec<Vec<Value>> = ra
                        .iter()
                        .filter(|r| r[3] == v[0] && !r[1].is_null())
                        .map(|r| vec![r[1].clone()])
                        .collect();
                    vec![v[0].clone(), Value::Integer(reference_groups(&cells).len() as i64)]
                })
                .collect();
            prop_assert_eq!(exact(&run(&sql)), exact(&want), "{}", sql);

            let union: Vec<Vec<Value>> = ka.iter().chain(&kb).cloned().collect();
            let has = |row: &Vec<Value>| kb.iter().any(|r| same_group(r, row));
            for (op, want) in [
                ("UNION", firsts(&union)),
                ("EXCEPT", firsts(&ka).into_iter().filter(|r| !has(r)).collect()),
                ("INTERSECT", firsts(&ka).into_iter().filter(|r| has(r)).collect()),
            ] {
                let sql = format!("SELECT {keys} FROM {fa} {op} SELECT {keys} FROM {fb}");
                prop_assert_eq!(exact(&run(&sql)), exact(&want), "{}", sql);
            }

            let sql = format!(
                "SELECT id, {k1} IN (SELECT {k1} FROM {fb}), \
                 {k1} NOT IN (SELECT {k1} FROM {fb} WHERE v = 1), \
                 {k1} IN (SELECT b.k1 FROM {fb} WHERE b.v = a.v) FROM {fa}"
            );
            let b_k1 = |keep: &dyn Fn(&Vec<Value>) -> bool| -> Vec<Value> {
                rb.iter().filter(|r| keep(r)).map(|r| r[1].clone()).collect()
            };
            let want: Vec<Vec<Value>> = ra
                .iter()
                .map(|r| {
                    vec![
                        r[0].clone(),
                        reference_in(&r[1], &b_k1(&|_| true), false),
                        reference_in(&r[1], &b_k1(&|s| s[3] == Value::Integer(1)), true),
                        reference_in(&r[1], &b_k1(&|s| s[3] == r[3]), false),
                    ]
                })
                .collect();
            prop_assert_eq!(exact(&run(&sql)), exact(&want), "{}", sql);
        }
    }
}
