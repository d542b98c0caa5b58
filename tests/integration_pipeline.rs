//! Cross-crate integration tests: the full paper pipeline at small scale.

use std::sync::Arc;

use swan::prelude::*;

fn harness() -> Harness {
    Harness::new(0.02)
}

#[test]
fn benchmark_shape_matches_table1_structure() {
    let h = harness();
    assert_eq!(h.benchmark.domains.len(), 4);
    assert_eq!(h.benchmark.question_count(), 120);
    let expect = [
        ("california_schools", 3, 12),
        ("superhero", 8, 11),
        ("formula_1", 13, 12),
        ("european_football", 6, 12),
    ];
    for (name, tables, dropped) in expect {
        let d = h.benchmark.domain(name).unwrap();
        assert_eq!(d.table_count(), tables, "{name} table count");
        assert_eq!(d.curation.dropped_count(), dropped, "{name} dropped");
    }
}

#[test]
fn every_gold_query_runs_and_most_are_nonempty() {
    let h = harness();
    let mut nonempty = 0;
    for d in &h.benchmark.domains {
        for q in &d.questions {
            let r = h.gold.get(&q.id);
            if !r.rows.is_empty() {
                nonempty += 1;
            }
        }
    }
    assert!(nonempty >= 100, "most gold answers non-empty, got {nonempty}/120");
}

#[test]
fn every_hybrid_query_runs_after_materialization() {
    let h = harness();
    for d in &h.benchmark.domains {
        let model = SimulatedModel::new(ModelKind::Gpt4Turbo, h.kb.clone());
        let run = materialize(d, &model, &HqdlConfig { shots: 5, workers: 2 });
        for q in &d.questions {
            run.database
                .query(&q.hybrid_sql)
                .unwrap_or_else(|e| panic!("{} hybrid failed: {e}\n{}", q.id, q.hybrid_sql));
        }
    }
}

#[test]
fn every_udf_query_runs() {
    let h = harness();
    for d in &h.benchmark.domains {
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt35Turbo, h.kb.clone()));
        let mut runner = UdfRunner::new(d, model, UdfConfig::default());
        for q in &d.questions {
            runner
                .run_sql(&q.udf_sql)
                .unwrap_or_else(|e| panic!("{} udf failed: {e}\n{}", q.id, q.udf_sql));
        }
    }
}

/// The engine's vectorized execution is the only place `llm_map` keys are
/// batched. These per-domain call counts were captured at the last commit
/// that also ran the AST pre-pass in front of it (PR 12): the pre-pass
/// fetched exactly the same chunks, so deleting it moved nothing.
#[test]
fn udf_model_calls_match_the_prepass_era() {
    let h = Harness::new(0.05);
    let expect = [
        ("california_schools", 3136),
        ("superhero", 412),
        ("formula_1", 115),
        ("european_football", 1427),
    ];
    for (name, calls) in expect {
        let d = h.benchmark.domain(name).unwrap();
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt35Turbo, h.kb.clone()));
        let mut runner = UdfRunner::new(d, model.clone(), UdfConfig::default());
        for q in &d.questions {
            runner.run_sql(&q.udf_sql).unwrap();
        }
        assert_eq!(model.usage().calls, calls, "{name} model calls");
        assert_eq!(runner.stats().fallback_calls, 0, "{name} single-key fallbacks");
    }
}

/// The paper's 360 statements do not move with the planner: all 120
/// `gold_sql`, all 120 `hybrid_sql` (after materialisation) and all 120
/// `udf_sql` return byte-identical rows under the default configuration
/// and under the reference planner — serial, row-at-a-time, scan-only,
/// where a correlated subquery re-executes per outer row and nothing
/// builds a hash index — and the UDF pass makes exactly as many model
/// calls in both.
#[test]
fn paper_statements_match_the_reference_planner() {
    let reference =
        OptimizerConfig { threads: 1, columnar: false, index_scan: false, ..Default::default() };
    let rendered = |r: QueryResult| -> Vec<Vec<String>> {
        r.rows.iter().map(|row| row.iter().map(Value::render).collect()).collect()
    };
    let h = Harness::new(0.05);
    for d in &h.benchmark.domains {
        let mut gold_ref = d.original.clone();
        gold_ref.set_optimizer(reference);
        let model = SimulatedModel::new(ModelKind::Gpt4Turbo, h.kb.clone());
        let hybrid = materialize(d, &model, &HqdlConfig { shots: 5, workers: 2 }).database;
        let mut hybrid_ref = hybrid.clone();
        hybrid_ref.set_optimizer(reference);
        for q in &d.questions {
            assert_eq!(
                rendered(d.original.query(&q.gold_sql).unwrap()),
                rendered(gold_ref.query(&q.gold_sql).unwrap()),
                "{} gold\n{}",
                q.id,
                q.gold_sql
            );
            assert_eq!(
                rendered(hybrid.query(&q.hybrid_sql).unwrap()),
                rendered(hybrid_ref.query(&q.hybrid_sql).unwrap()),
                "{} hybrid\n{}",
                q.id,
                q.hybrid_sql
            );
        }

        let udf_pass = |config: Option<OptimizerConfig>| {
            let model = Arc::new(SimulatedModel::new(ModelKind::Gpt35Turbo, h.kb.clone()));
            let mut runner = UdfRunner::new(d, model.clone(), UdfConfig::default());
            if let Some(config) = config {
                runner.database_mut().set_optimizer(config);
            }
            let rows: Vec<_> =
                d.questions.iter().map(|q| rendered(runner.run_sql(&q.udf_sql).unwrap())).collect();
            (rows, model.usage().calls)
        };
        let (rows, calls) = udf_pass(None);
        let (ref_rows, ref_calls) = udf_pass(Some(reference));
        for ((q, got), want) in d.questions.iter().zip(rows).zip(ref_rows) {
            assert_eq!(got, want, "{} udf\n{}", q.id, q.udf_sql);
        }
        assert_eq!(calls, ref_calls, "{} model calls", d.name);
    }
}

#[test]
fn perfect_model_means_perfect_execution_accuracy() {
    // With a zero-noise model (factuality forced to 1 via seed-free
    // shortcut: use the knowledge base directly), hybrid EX must be 100%.
    // We emulate "perfect" by materializing ground truth straight from
    // the domain facts.
    use std::collections::HashMap;
    use swan_sqlengine::{Column, Table, Value};

    let h = harness();
    for d in &h.benchmark.domains {
        let mut db = d.curated.clone();
        let mut truth: HashMap<(Vec<String>, String), String> = HashMap::new();
        for f in &d.facts {
            truth.insert((f.key.clone(), f.attribute.clone()), f.value.condensed());
        }
        for e in &d.curation.expansions {
            let mut table = Table::new(
                e.table.clone(),
                e.all_columns().into_iter().map(Column::new).collect(),
                &[],
            )
            .unwrap();
            for key in swan_core::hqdl::expansion_keys(&d.curated, e) {
                let mut row: Vec<Value> =
                    key.iter().map(|k| swan_core::hqdl::infer_value(k)).collect();
                for g in &e.generated {
                    let cell = truth
                        .get(&(key.clone(), g.name.clone()))
                        .cloned()
                        .unwrap_or_default();
                    row.push(swan_core::hqdl::infer_value(&cell));
                }
                table.insert_row(row).unwrap();
            }
            db.catalog_mut().put_table(table);
        }
        for q in &d.questions {
            let gold = h.gold.get(&q.id);
            let hybrid = db.query(&q.hybrid_sql).unwrap();
            assert!(
                execution_match(gold, &hybrid, sql_is_ordered(&q.gold_sql)),
                "{} should match with perfect data\ngold: {:?}\nhybrid: {:?}",
                q.id,
                gold.rows,
                hybrid.rows,
            );
        }
    }
}

#[test]
fn hqdl_beats_udf_on_execution_accuracy() {
    let h = harness();
    let hqdl = evaluate_hqdl(&h.benchmark, h.kb.clone(), &h.gold, ModelKind::Gpt35Turbo, 5, 2);
    let udf = evaluate_udf(
        &h.benchmark,
        h.kb.clone(),
        &h.gold,
        ModelKind::Gpt35Turbo,
        UdfConfig { shots: 5, ..Default::default() },
    );
    assert!(
        hqdl.overall.accuracy() >= udf.overall.accuracy(),
        "paper §5.4: HQDL ({:.3}) >= UDFs ({:.3})",
        hqdl.overall.accuracy(),
        udf.overall.accuracy()
    );
}

#[test]
fn few_shot_improves_factuality() {
    let h = harness();
    let zero = evaluate_hqdl(&h.benchmark, h.kb.clone(), &h.gold, ModelKind::Gpt4Turbo, 0, 2);
    let five = evaluate_hqdl(&h.benchmark, h.kb.clone(), &h.gold, ModelKind::Gpt4Turbo, 5, 2);
    assert!(five.average_f1() > zero.average_f1() + 0.05, "shots must help F1 substantially");
    assert!(five.overall.accuracy() >= zero.overall.accuracy(), "shots must not hurt EX");
}

#[test]
fn gpt4_sim_beats_gpt35_sim_on_factuality() {
    let h = harness();
    for shots in [0usize, 5] {
        let g35 = evaluate_hqdl(&h.benchmark, h.kb.clone(), &h.gold, ModelKind::Gpt35Turbo, shots, 2);
        let g4 = evaluate_hqdl(&h.benchmark, h.kb.clone(), &h.gold, ModelKind::Gpt4Turbo, shots, 2);
        assert!(
            g4.average_f1() > g35.average_f1(),
            "shots={shots}: GPT-4 F1 {:.3} vs GPT-3.5 {:.3}",
            g4.average_f1(),
            g35.average_f1()
        );
    }
}

#[test]
fn udf_solution_uses_more_tokens_than_hqdl() {
    let h = harness();
    let hqdl = evaluate_hqdl(&h.benchmark, h.kb.clone(), &h.gold, ModelKind::Gpt35Turbo, 0, 2);
    let udf = evaluate_udf(
        &h.benchmark,
        h.kb.clone(),
        &h.gold,
        ModelKind::Gpt35Turbo,
        UdfConfig::default(),
    );
    assert!(
        udf.usage.input_tokens > hqdl.usage.input_tokens,
        "Table 5 shape: UDFs ({}) > HQDL ({}) input tokens",
        udf.usage.input_tokens,
        hqdl.usage.input_tokens
    );
}

#[test]
fn runs_are_deterministic_end_to_end() {
    let a = {
        let h = harness();
        let e = evaluate_hqdl(&h.benchmark, h.kb.clone(), &h.gold, ModelKind::Gpt4Turbo, 3, 1);
        (e.overall.correct, e.usage.input_tokens)
    };
    let b = {
        let h = harness();
        let e = evaluate_hqdl(&h.benchmark, h.kb.clone(), &h.gold, ModelKind::Gpt4Turbo, 3, 4);
        (e.overall.correct, e.usage.input_tokens)
    };
    assert_eq!(a, b, "same seed + different worker count must agree");
}
