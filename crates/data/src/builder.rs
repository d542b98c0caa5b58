//! Helpers for constructing and curating the benchmark databases.

use swan_llm::KnownValue;
use swan_sqlengine::{Column, Database, Table, Value};

use crate::types::{CurationSpec, Fact};

/// Create a table with TEXT-typed metadata-free columns and an optional
/// primary key, panicking on invalid specs (generator bugs, not user
/// input).
pub fn create_table(db: &mut Database, name: &str, cols: &[&str], pk: &[&str]) {
    let columns: Vec<Column> = cols.iter().map(|c| Column::new(*c)).collect();
    let pk: Vec<String> = pk.iter().map(|s| s.to_string()).collect();
    let table = Table::new(name, columns, &pk).expect("valid generator schema");
    db.catalog_mut().create_table(table).expect("unique generator table name");
}

/// Bulk-insert rows into a table.
pub fn insert_rows(db: &mut Database, table: &str, rows: Vec<Vec<Value>>) {
    db.catalog_mut()
        .get_mut(table)
        .expect("table exists")
        .insert_rows(rows)
        .expect("generator rows satisfy constraints");
}

/// Apply a curation spec: clone the original and drop the listed columns
/// and tables. The result is the database a hybrid-querying system gets.
pub fn apply_curation(original: &Database, spec: &CurationSpec) -> Database {
    let mut curated = original.clone();
    for (table, column) in &spec.dropped_columns {
        curated
            .catalog_mut()
            .get_mut(table)
            .expect("curated table exists")
            .drop_column(column)
            .expect("curated column exists");
    }
    for (table, _) in &spec.dropped_tables {
        curated.catalog_mut().drop_table(table).expect("dropped table exists");
    }
    curated
}

/// Distinct text values of one column, sorted (value lists, §3.3).
pub fn distinct_texts(db: &Database, table: &str, column: &str) -> Vec<String> {
    let t = db.catalog().get(table).expect("table exists");
    let idx = t.column_index(column).expect("column exists");
    let mut out: Vec<String> = t
        .rows()
        .iter()
        .filter_map(|r| r[idx].as_str().map(str::to_string))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Popularity from a [0,1] prominence percentile, skewed so only genuinely
/// prominent entities get high values (LLM bias modelling, §5.3).
pub fn popularity_from_percentile(pct: f64) -> f64 {
    (0.15 + 0.80 * pct.clamp(0.0, 1.0)).clamp(0.0, 1.0)
}

/// Shorthand for a single-valued fact.
pub fn fact1(key: &[String], attribute: &str, value: impl Into<String>) -> Fact {
    Fact { key: key.to_vec(), attribute: attribute.to_string(), value: KnownValue::One(value.into()) }
}

/// Shorthand for a one-to-many fact.
pub fn fact_many(key: &[String], attribute: &str, values: Vec<String>) -> Fact {
    Fact { key: key.to_vec(), attribute: attribute.to_string(), value: KnownValue::Many(values) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CurationSpec;

    fn tiny_db() -> Database {
        let mut db = Database::new();
        create_table(&mut db, "t", &["a", "b", "c"], &["a"]);
        create_table(&mut db, "gone", &["x", "y"], &[]);
        insert_rows(&mut db, "t", vec![vec!["k".into(), 1.into(), 2.into()]]);
        db
    }

    #[test]
    fn curation_drops_columns_and_tables() {
        let original = tiny_db();
        let spec = CurationSpec {
            dropped_columns: vec![("t".into(), "b".into())],
            dropped_tables: vec![("gone".into(), 2)],
            expansions: vec![],
        };
        let curated = apply_curation(&original, &spec);
        assert!(curated.catalog().get("gone").is_none());
        let t = curated.catalog().get("t").unwrap();
        assert_eq!(t.column_names(), vec!["a", "c"]);
        // Original untouched.
        assert!(original.catalog().get("gone").is_some());
        assert_eq!(original.catalog().get("t").unwrap().width(), 3);
    }

    #[test]
    fn distinct_texts_sorted_deduped() {
        let mut db = Database::new();
        create_table(&mut db, "p", &["name"], &[]);
        insert_rows(
            &mut db,
            "p",
            vec![
                vec!["DC".into()],
                vec!["Marvel".into()],
                vec!["DC".into()],
                vec![Value::Null],
            ],
        );
        assert_eq!(distinct_texts(&db, "p", "name"), vec!["DC", "Marvel"]);
    }

    #[test]
    fn popularity_curve_shape() {
        assert!(popularity_from_percentile(0.0) <= 0.15);
        assert!(popularity_from_percentile(1.0) > 0.9);
        assert!(popularity_from_percentile(0.9) > popularity_from_percentile(0.5));
    }
}
