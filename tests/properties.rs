//! Cross-crate property tests: metric invariants, prompt round-trips,
//! tokenizer monotonicity, curation invariants.
//!
//! Reproducibility: every property's case stream is deterministic per
//! test name, shifted by the `SWAN_SEED` environment variable (default
//! 0). A failing property prints the seed and case number; re-running
//! with that `SWAN_SEED` exported replays the identical stream.

use proptest::prelude::*;
use swan::prelude::*;
use swan_core::metrics::{cell_eq, set_f1};
use swan_llm::prompt::{parse_row, render_value_row, row_values};
use swan_llm::{count_tokens, RowCompletionPrompt, RowExample};

proptest! {
    /// F1 is always in [0, 1]; it is 1 exactly when the sets agree.
    #[test]
    fn set_f1_bounds_and_identity(
        generated in proptest::collection::vec("[a-d]{1,3}", 0..6),
        truth in proptest::collection::vec("[a-d]{1,3}", 0..6),
    ) {
        let f1 = set_f1(&generated, &truth);
        prop_assert!((0.0..=1.0).contains(&f1));
        use std::collections::HashSet;
        let g: HashSet<&String> = generated.iter().collect();
        let t: HashSet<&String> = truth.iter().collect();
        if g == t {
            prop_assert_eq!(f1, 1.0);
        }
        if f1 == 1.0 {
            prop_assert_eq!(g, t);
        }
        // Symmetry.
        prop_assert_eq!(f1, set_f1(&truth, &generated));
    }

    /// Execution match is reflexive for any result set.
    #[test]
    fn execution_match_reflexive(
        cells in proptest::collection::vec(
            proptest::collection::vec(-100i64..100, 1..4),
            0..10,
        )
    ) {
        let rows: Vec<swan_sqlengine::Row> = cells
            .iter()
            .map(|r| r.iter().map(|&v| swan_sqlengine::Value::Integer(v)).collect::<Vec<_>>().into())
            .collect();
        let qr = QueryResult { columns: vec!["c".into()], rows, rows_affected: 0 };
        prop_assert!(execution_match(&qr, &qr, true));
        prop_assert!(execution_match(&qr, &qr, false));
    }

    /// cell_eq is symmetric.
    #[test]
    fn cell_eq_symmetric(a in -1000i64..1000, b in -1000i64..1000) {
        use swan_sqlengine::Value;
        let (x, y) = (Value::Integer(a), Value::Real(b as f64));
        prop_assert_eq!(cell_eq(&x, &y), cell_eq(&y, &x));
    }

    /// Quoted-row rendering round-trips arbitrary cell text.
    #[test]
    fn quoted_row_roundtrip(
        cells in proptest::collection::vec("[ -~]{0,12}", 1..6)
    ) {
        // Trim to mimic model output conventions: leading/trailing spaces
        // inside fields are not preserved by the tolerant parser.
        let cells: Vec<String> = cells.iter().map(|c| c.trim().to_string()).collect();
        let rendered = render_value_row(&cells);
        let back = row_values(&parse_row(&rendered));
        prop_assert_eq!(back, cells);
    }

    /// Row-completion prompts round-trip through render/parse for any
    /// printable key and column names.
    #[test]
    fn row_prompt_roundtrip(
        key in proptest::collection::vec("[A-Za-z0-9 .-]{1,12}", 1..3),
        n_cols in 1usize..5,
        shots in 0usize..3,
    ) {
        let key: Vec<String> = key.iter().map(|k| k.trim().to_string())
            .filter(|k| !k.is_empty()).collect();
        prop_assume!(!key.is_empty());
        let mut columns: Vec<String> = (0..key.len()).map(|i| format!("key{i}")).collect();
        columns.extend((0..n_cols).map(|i| format!("col{i}")));
        let examples = (0..shots)
            .map(|s| RowExample {
                key: key.iter().map(|k| format!("{k}{s}")).collect(),
                answer: columns.iter().map(|c| format!("v-{c}")).collect(),
            })
            .collect();
        let p = RowCompletionPrompt {
            db: "testdb".into(),
            columns,
            key_len: key.len(),
            value_lists: vec![("col0".into(), vec!["A".into(), "B".into()])],
            examples,
            target_key: key,
        };
        let back = RowCompletionPrompt::parse(&p.render()).unwrap();
        prop_assert_eq!(back, p);
    }

    /// Token counting is monotone under concatenation and zero only for
    /// whitespace.
    #[test]
    fn tokenizer_monotone(a in "[ -~]{0,60}", b in "[ -~]{0,60}") {
        let ta = count_tokens(&a);
        let tb = count_tokens(&b);
        let tab = count_tokens(&format!("{a} {b}"));
        prop_assert!(tab >= ta.max(tb));
        prop_assert!(tab <= ta + tb + 1);
    }
}

#[test]
fn curation_never_drops_key_columns() {
    // Every expansion's key columns must survive curation in the base
    // table — otherwise the PK-FK relationship of §3.4 breaks.
    let bench = SwanBenchmark::generate(&GenConfig::with_scale(0.01));
    for d in &bench.domains {
        for e in &d.curation.expansions {
            let base = d
                .curated
                .catalog()
                .get(&e.base_table)
                .unwrap_or_else(|| panic!("{}: base table {} missing", d.name, e.base_table));
            for k in &e.key_columns {
                assert!(
                    base.column_index(k).is_some(),
                    "{}: key column {}.{} dropped by curation",
                    d.name,
                    e.base_table,
                    k
                );
            }
        }
    }
}

#[test]
fn curated_is_a_projection_of_original() {
    // Every surviving column must exist in the original with identical
    // values row-by-row (curation only removes, never edits).
    let bench = SwanBenchmark::generate(&GenConfig::with_scale(0.01));
    for d in &bench.domains {
        for name in d.curated.catalog().table_names() {
            let cur = d.curated.catalog().get(&name).unwrap();
            let orig = d.original.catalog().get(&name).expect("table existed");
            assert_eq!(cur.len(), orig.len(), "{name}: row count preserved");
            for col in cur.column_names() {
                let ci = cur.column_index(&col).unwrap();
                let oi = orig.column_index(&col).expect("column existed");
                for (cr, or) in cur.rows().iter().zip(orig.rows()) {
                    assert_eq!(cr[ci], or[oi], "{name}.{col} value changed");
                }
            }
        }
    }
}
