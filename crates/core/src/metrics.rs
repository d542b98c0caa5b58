//! Evaluation metrics (paper §5.1): execution accuracy (EX), data
//! factuality (cell-level F1), and token accounting lives in
//! [`swan_llm::usage`].

use std::borrow::Cow;

use swan_data::DomainData;
use swan_llm::KnownValue;
use swan_pool::hash::{map_with_capacity, FxHashMap, FxHashSet};
use swan_sqlengine::{Database, QueryResult, Value};

/// Compare two result cells. Numerics compare with a small relative
/// tolerance (AVG on both sides may differ in float representation);
/// everything else compares by rendered text.
pub fn cell_eq(a: &Value, b: &Value) -> bool {
    if a.is_null() || b.is_null() {
        return a.is_null() && b.is_null();
    }
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-9 * scale
        }
        _ => a.render() == b.render(),
    }
}

fn row_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| cell_eq(x, y))
}

/// Execution accuracy for one question: do the hybrid query's results
/// match the gold results? Ordered comparison when the gold SQL carries
/// an ORDER BY; multiset comparison otherwise (§5.1).
pub fn execution_match(gold: &QueryResult, hybrid: &QueryResult, ordered: bool) -> bool {
    if gold.rows.len() != hybrid.rows.len() {
        return false;
    }
    if ordered {
        return gold.rows.iter().zip(&hybrid.rows).all(|(a, b)| row_eq(a, b));
    }
    // Multiset comparison via canonical sorted rendering.
    let canon = |r: &QueryResult| -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = r
            .rows
            .iter()
            .map(|row| row.iter().map(canonical_cell).collect())
            .collect();
        rows.sort();
        rows
    };
    canon(gold) == canon(hybrid)
}

/// Canonical text for multiset comparison: numerics normalize through
/// f64 formatting so Integer 3 and Real 3.0 agree.
fn canonical_cell(v: &Value) -> String {
    if v.is_null() {
        return "\u{0}NULL".into();
    }
    match v.as_f64() {
        Some(x) if x.is_finite() => format!("{:.9e}", x),
        _ => v.render(),
    }
}

/// Does a SQL string contain an ORDER BY clause? (Decides ordered vs
/// multiset comparison.)
pub fn sql_is_ordered(sql: &str) -> bool {
    sql.to_ascii_uppercase().contains("ORDER BY")
}

/// Per-database execution-accuracy tally.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExTally {
    pub correct: usize,
    pub total: usize,
}

impl ExTally {
    pub fn record(&mut self, ok: bool) {
        self.correct += ok as usize;
        self.total += 1;
    }

    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }
}

/// Cell-level data-factuality report for one domain (Table 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct FactualityReport {
    /// Sum of per-cell F1 scores.
    pub f1_sum: f64,
    /// Number of cells scored.
    pub cells: usize,
}

impl FactualityReport {
    pub fn average_f1(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.f1_sum / self.cells as f64
        }
    }

    pub fn merge(&mut self, other: &FactualityReport) {
        self.f1_sum += other.f1_sum;
        self.cells += other.cells;
    }
}

/// Score the factuality of HQDL-materialized tables against ground truth
/// (§5.1): exact string match per cell; one-to-many cells score the F1 of
/// the generated set against the true set.
pub fn factuality(domain: &DomainData, materialized: &Database) -> FactualityReport {
    // Index the ground truth of the generated attributes (no other fact is
    // ever looked up) by entity, so a row probes once for all its cells. A
    // later fact for the same cell replaces an earlier one.
    let generated: FxHashSet<&str> = domain
        .curation
        .expansions
        .iter()
        .flat_map(|e| &e.generated)
        .map(|g| g.name.as_str())
        .collect();
    let mut truth: FxHashMap<&[String], Vec<(&str, &KnownValue)>> =
        map_with_capacity(domain.facts.len());
    for f in domain.facts.iter().filter(|f| generated.contains(f.attribute.as_str())) {
        let facts = truth.entry(f.key.as_slice()).or_default();
        match facts.iter_mut().find(|(a, _)| *a == f.attribute) {
            Some((_, value)) => *value = &f.value,
            None => facts.push((f.attribute.as_str(), &f.value)),
        }
    }

    let mut report = FactualityReport::default();
    for expansion in &domain.curation.expansions {
        let Some(table) = materialized.catalog().get(&expansion.table) else {
            continue;
        };
        let key_len = expansion.key_columns.len();
        for row in table.rows() {
            let key: Vec<String> = row[..key_len].iter().map(Value::render).collect();
            let Some(facts) = truth.get(key.as_slice()) else {
                continue;
            };
            for (gi, g) in expansion.generated.iter().enumerate() {
                // A cell with no truth is not scored, so it is not rendered.
                let Some((_, true_value)) = facts.iter().find(|(a, _)| *a == g.name) else {
                    continue;
                };
                let value = &row[key_len + gi];
                let cell =
                    value.as_str().map_or_else(|| Cow::Owned(value.render()), Cow::Borrowed);
                let multi = g.class == swan_llm::AttrClass::MultiValue;
                report.f1_sum += match true_value {
                    KnownValue::One(v) if !multi => (*cell == **v) as u8 as f64,
                    KnownValue::One(v) => set_f1(&split_list(&cell), &split_list(v)),
                    KnownValue::Many(vs) => set_f1(&split_list(&cell), vs),
                };
                report.cells += 1;
            }
        }
        // Rows dropped by extraction (format errors) score zero for each
        // of their generated cells. Materialization asks once per distinct
        // non-NULL key, not once per base row.
        let expected = crate::hqdl::expansion_keys(&domain.curated, expansion).len();
        if expected > table.len() {
            report.cells += (expected - table.len()) * expansion.generated.len();
        }
    }
    report
}

/// Split a condensed one-to-many cell back into its items.
pub fn split_list(s: &str) -> Vec<String> {
    s.split(',')
        .map(|x| x.trim().to_string())
        .filter(|x| !x.is_empty())
        .collect()
}

/// Set-F1 of two value lists (order-insensitive, duplicates collapsed).
pub fn set_f1(generated: &[String], truth: &[String]) -> f64 {
    use std::collections::HashSet;
    let g: HashSet<&String> = generated.iter().collect();
    let t: HashSet<&String> = truth.iter().collect();
    if g.is_empty() && t.is_empty() {
        return 1.0;
    }
    if g.is_empty() || t.is_empty() {
        return 0.0;
    }
    let overlap = g.intersection(&t).count() as f64;
    if overlap == 0.0 {
        return 0.0;
    }
    let precision = overlap / g.len() as f64;
    let recall = overlap / t.len() as f64;
    2.0 * precision * recall / (precision + recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn qr(rows: Vec<Vec<Value>>) -> QueryResult {
        QueryResult {
            columns: vec!["c".into()],
            rows: rows.into_iter().map(Into::into).collect(),
            rows_affected: 0,
        }
    }

    #[test]
    fn cell_eq_numeric_tolerance() {
        assert!(cell_eq(&Value::Integer(3), &Value::Real(3.0)));
        assert!(cell_eq(&Value::Real(0.1 + 0.2), &Value::Real(0.3)));
        assert!(!cell_eq(&Value::Integer(3), &Value::Integer(4)));
        assert!(cell_eq(&Value::Null, &Value::Null));
        assert!(!cell_eq(&Value::Null, &Value::Integer(0)));
        assert!(cell_eq(&Value::text("abc"), &Value::text("abc")));
        // Numeric-looking text matches numbers (materialized vs original).
        assert!(cell_eq(&Value::text("42"), &Value::Integer(42)));
    }

    #[test]
    fn execution_match_multiset() {
        let gold = qr(vec![vec![1.into()], vec![2.into()]]);
        let hyb = qr(vec![vec![2.into()], vec![1.into()]]);
        assert!(execution_match(&gold, &hyb, false), "unordered match");
        assert!(!execution_match(&gold, &hyb, true), "ordered mismatch");
        let short = qr(vec![vec![1.into()]]);
        assert!(!execution_match(&gold, &short, false));
    }

    #[test]
    fn execution_match_duplicates_matter() {
        let gold = qr(vec![vec![1.into()], vec![1.into()], vec![2.into()]]);
        let hyb = qr(vec![vec![1.into()], vec![2.into()], vec![2.into()]]);
        assert!(!execution_match(&gold, &hyb, false), "multiset, not set");
    }

    #[test]
    fn ordered_detection() {
        assert!(sql_is_ordered("SELECT a FROM t ORDER BY a"));
        assert!(sql_is_ordered("select a from t order by a limit 5"));
        assert!(!sql_is_ordered("SELECT a FROM t"));
    }

    #[test]
    fn set_f1_cases() {
        let v = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(set_f1(&v(&["a", "b"]), &v(&["a", "b"])), 1.0);
        assert_eq!(set_f1(&v(&[]), &v(&[])), 1.0);
        assert_eq!(set_f1(&v(&["a"]), &v(&[])), 0.0);
        assert_eq!(set_f1(&v(&["x"]), &v(&["a"])), 0.0);
        // Half precision, full recall: F1 = 2*0.5*1/(1.5) = 2/3.
        let f = set_f1(&v(&["a", "x"]), &v(&["a"]));
        assert!((f - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn split_list_trims() {
        assert_eq!(split_list("Agility, Super Strength , Stamina"), vec![
            "Agility",
            "Super Strength",
            "Stamina"
        ]);
        assert!(split_list("").is_empty());
    }

    #[test]
    fn ex_tally_accuracy() {
        let mut t = ExTally::default();
        t.record(true);
        t.record(false);
        t.record(true);
        assert_eq!(t.total, 3);
        assert!((t.accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ExTally::default().accuracy(), 0.0);
    }

    #[test]
    fn factuality_full_pipeline_smoke() {
        use swan_data::{GenConfig, SwanBenchmark};
        use swan_llm::{ModelKind, SimulatedModel};
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "superhero").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let model = SimulatedModel::new(ModelKind::Gpt4Turbo, kb);
        let run = crate::hqdl::materialize(
            &d,
            &model,
            &crate::hqdl::HqdlConfig { shots: 5, workers: 1 },
        );
        let report = factuality(&d, &run.database);
        let f1 = report.average_f1();
        assert!(report.cells > 0);
        assert!(
            (0.25..0.95).contains(&f1),
            "5-shot GPT-4 factuality should be substantial but imperfect: {f1}"
        );
    }

    #[test]
    fn factuality_perfect_when_truth_is_materialized() {
        use swan_data::{GenConfig, SwanBenchmark};
        // Materialize ground truth directly: F1 must be 1.0.
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "superhero").unwrap();
        let mut db = d.curated.clone();
        let e = &d.curation.expansions[0];
        let mut table = swan_sqlengine::Table::new(
            e.table.clone(),
            e.all_columns().into_iter().map(swan_sqlengine::Column::new).collect(),
            &[],
        )
        .unwrap();
        let mut truth: HashMap<(Vec<String>, String), String> = HashMap::new();
        for f in &d.facts {
            truth.insert((f.key.clone(), f.attribute.clone()), f.value.condensed());
        }
        for key in crate::hqdl::expansion_keys(&d.curated, e) {
            let mut row: Vec<Value> = key.iter().map(|k| Value::text(k.clone())).collect();
            for g in &e.generated {
                row.push(Value::text(
                    truth.get(&(key.clone(), g.name.clone())).cloned().unwrap_or_default(),
                ));
            }
            table.insert_row(row).unwrap();
        }
        db.catalog_mut().put_table(table);
        let report = factuality(&d, &db);
        assert!((report.average_f1() - 1.0).abs() < 1e-12);
    }

    /// Regression: a base table that repeats a key (or holds a NULL one)
    /// was charged one phantom zero-F1 row per extra base row, although
    /// materialization asks once per distinct non-NULL key.
    #[test]
    fn factuality_expects_one_row_per_distinct_key() {
        use swan_data::{CurationSpec, Expansion, Fact, GenColumn};
        let mut curated = Database::new();
        curated.execute("CREATE TABLE race (name TEXT, year TEXT, round INTEGER)").unwrap();
        curated
            .execute(
                "INSERT INTO race VALUES ('Monaco', '2020', 1), ('Monaco', '2020', 2), \
                 ('Spa', '2021', 1), (NULL, '2021', 2)",
            )
            .unwrap();
        let fact = |name: &str, year: &str, circuit: &str| Fact {
            key: vec![name.into(), year.into()],
            attribute: "circuit".into(),
            value: KnownValue::One(circuit.into()),
        };
        let domain = DomainData {
            name: "races".into(),
            display_name: "Races".into(),
            original: curated.clone(),
            curated,
            curation: CurationSpec {
                dropped_columns: vec![],
                dropped_tables: vec![],
                expansions: vec![Expansion {
                    table: "llm_race".into(),
                    base_table: "race".into(),
                    key_columns: vec!["name".into(), "year".into()],
                    generated: vec![GenColumn::free_form("circuit")],
                }],
            },
            facts: vec![fact("Monaco", "2020", "Monte Carlo"), fact("Spa", "2021", "Francorchamps")],
            popularity: vec![],
            phrases: vec![],
            questions: vec![],
        };
        let mut db = domain.curated.clone();
        db.execute("CREATE TABLE llm_race (name TEXT, year TEXT, circuit TEXT)").unwrap();
        db.execute(
            "INSERT INTO llm_race VALUES ('Monaco', '2020', 'Monte Carlo'), \
             ('Spa', '2021', 'Francorchamps')",
        )
        .unwrap();
        let report = factuality(&domain, &db);
        assert_eq!(report.cells, 2, "one cell per distinct non-NULL key");
        assert_eq!(report.average_f1(), 1.0);
    }

    /// `factuality` as it read when it indexed every fact with SipHash and
    /// rendered each generated cell before looking its truth up: the
    /// reference for the indexed, lookup-first body.
    fn reference_factuality(domain: &DomainData, materialized: &Database) -> FactualityReport {
        let mut truth: HashMap<(&[String], &str), &KnownValue> =
            HashMap::with_capacity(domain.facts.len());
        for f in &domain.facts {
            truth.insert((f.key.as_slice(), f.attribute.as_str()), &f.value);
        }
        let mut report = FactualityReport::default();
        for expansion in &domain.curation.expansions {
            let Some(table) = materialized.catalog().get(&expansion.table) else {
                continue;
            };
            let key_len = expansion.key_columns.len();
            let multi: Vec<bool> = expansion
                .generated
                .iter()
                .map(|g| g.class == swan_llm::AttrClass::MultiValue)
                .collect();
            for row in table.rows() {
                let key: Vec<String> = row[..key_len].iter().map(Value::render).collect();
                for (gi, g) in expansion.generated.iter().enumerate() {
                    let generated = row[key_len + gi].render();
                    let Some(true_value) = truth.get(&(key.as_slice(), g.name.as_str())) else {
                        continue;
                    };
                    let f1 = match true_value {
                        KnownValue::One(v) => {
                            if !multi[gi] {
                                (generated == *v) as u8 as f64
                            } else {
                                set_f1(&split_list(&generated), &split_list(v))
                            }
                        }
                        KnownValue::Many(vs) => set_f1(&split_list(&generated), vs),
                    };
                    report.f1_sum += f1;
                    report.cells += 1;
                }
            }
            let expected = crate::hqdl::expansion_keys(&domain.curated, expansion).len();
            if expected > table.len() {
                report.cells += (expected - table.len()) * expansion.generated.len();
            }
        }
        report
    }

    /// Cell text: ASCII and non-ASCII, list separators, the empty string.
    const TEXT: &str = "[ a-cA-C0-9,'é漢]{0,6}";

    /// A text column table named `name` holding `rows`.
    fn text_table(name: &str, columns: &[&str], rows: &[Vec<String>]) -> swan_sqlengine::Table {
        let mut table = swan_sqlengine::Table::new(
            name.to_string(),
            columns.iter().map(|c| swan_sqlengine::Column::new(c.to_string())).collect(),
            &[],
        )
        .unwrap();
        for row in rows {
            table.insert_row(row.iter().map(|v| Value::text(v.clone())).collect()).unwrap();
        }
        table
    }

    proptest::proptest! {
        /// Indexing the generated attributes' facts only, by entity and
        /// with Fx hashing, and rendering a cell only once it has a truth
        /// (a text cell not at all) scores every
        /// materialization as the full SipHash index did: two-part keys of
        /// ASCII and non-ASCII text (repeated and empty ones included),
        /// single, one-to-many and empty truths, facts of an attribute no
        /// expansion generates, cells equal to the truth or not, and rows
        /// the model never returned.
        #[test]
        fn factuality_scores_as_the_full_index_did(
            keys in proptest::collection::vec(proptest::collection::vec(TEXT, 2..3), 1..7),
            facts in proptest::collection::vec(
                (0usize..7, 0usize..4, 0usize..2, proptest::collection::vec(TEXT, 0..3)),
                0..20,
            ),
            rows in proptest::collection::vec(
                (0usize..7, proptest::collection::vec((0usize..3, TEXT), 3..4)),
                0..9,
            ),
        ) {
            use swan_data::{CurationSpec, Expansion, Fact, GenColumn};
            const ATTRIBUTES: [&str; 4] = ["plain", "listed", "many", "elsewhere"];
            let facts: Vec<Fact> = facts
                .into_iter()
                .map(|(entity, attribute, kind, values)| Fact {
                    key: keys[entity % keys.len()].clone(),
                    attribute: ATTRIBUTES[attribute].to_string(),
                    value: if kind == 0 {
                        KnownValue::One(values.join(", "))
                    } else {
                        KnownValue::Many(values)
                    },
                })
                .collect();
            let truth_of = |key: &[String], attribute: &str| {
                facts
                    .iter()
                    .rev()
                    .find(|f| f.key == key && f.attribute == attribute)
                    .map(|f| f.value.condensed())
            };
            let materialized_rows: Vec<Vec<String>> = rows
                .into_iter()
                .map(|(entity, cells)| {
                    let key = &keys[entity % keys.len()];
                    let mut row = key.clone();
                    for (attribute, (choice, text)) in ATTRIBUTES.iter().zip(cells) {
                        row.push(match (choice, truth_of(key, attribute)) {
                            (0, Some(truth)) => truth,
                            (2, _) => String::new(),
                            _ => text,
                        });
                    }
                    row
                })
                .collect();
            let mut curated = Database::new();
            curated.catalog_mut().put_table(text_table("base", &["k1", "k2"], &keys));
            let domain = DomainData {
                name: "d".into(),
                display_name: "D".into(),
                original: curated.clone(),
                curated,
                curation: CurationSpec {
                    dropped_columns: vec![],
                    dropped_tables: vec![],
                    expansions: vec![Expansion {
                        table: "llm_base".into(),
                        base_table: "base".into(),
                        key_columns: vec!["k1".into(), "k2".into()],
                        generated: vec![
                            GenColumn::free_form("plain"),
                            GenColumn::selection("listed", vec![]),
                            GenColumn::multi("many", vec![]),
                        ],
                    }],
                },
                facts,
                popularity: vec![],
                phrases: vec![],
                questions: vec![],
            };
            let mut materialized = domain.curated.clone();
            materialized.catalog_mut().put_table(text_table(
                "llm_base",
                &["k1", "k2", "plain", "listed", "many"],
                &materialized_rows,
            ));
            let new = factuality(&domain, &materialized);
            let old = reference_factuality(&domain, &materialized);
            proptest::prop_assert_eq!(
                (new.f1_sum.to_bits(), new.cells),
                (old.f1_sum.to_bits(), old.cells)
            );
        }
    }
}
