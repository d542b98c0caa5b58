//! Hybrid-query UDFs with predicate pushdown (paper §4.2).
//!
//! `llm_map('question', key...)` runs inline in SQL. The optimizer runs
//! cheap predicates first, and the engine batches the surviving rows' keys
//! (BlendSQL default 5) — instead of the paper's §5.5 pathology of
//! "generating heights for all players" when only a few rows qualify.
//! Switching both off (`OptimizerConfig`) shows the pathology.
//!
//! Run with: `cargo run --release --example udf_pushdown`

use std::sync::Arc;

use swan::prelude::*;

fn main() {
    let domain = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.1), "european_football")
        .expect("domain exists");
    let kb = build_knowledge(std::slice::from_ref(&domain));
    let players = domain.curated.catalog().get("player").unwrap().len();

    // q21 writes the `llm_map` birthday predicate before a cheap
    // top-rated-players filter.
    let q = &domain.questions[20];
    println!("question: {}", q.text);
    println!("udf SQL : {}\n", q.udf_sql);

    let cheap_first = OptimizerConfig::default();
    // Written order, one model call per row.
    let written_order = OptimizerConfig {
        order_expensive_last: false,
        batch_expensive_udfs: false,
        ..cheap_first
    };
    for (label, optimizer) in [("WITH pushdown", cheap_first), ("WITHOUT pushdown", written_order)] {
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb.clone()));
        let mut runner = UdfRunner::new(&domain, model.clone(), UdfConfig::default());
        runner.database_mut().set_optimizer(optimizer);
        runner.run_sql(&q.udf_sql).expect("query runs");
        let usage = model.usage();
        println!("== {label} ==");
        println!(
            "  keys generated: {} (of {} players)",
            runner.cached_answers(),
            players
        );
        println!(
            "  LLM calls: {}, input tokens: {}",
            usage.calls, usage.input_tokens
        );
    }

    println!();
    println!("`swan_sqlengine::optimizer` rules 3 and 5 do this: expensive conjuncts");
    println!("are ordered last inside a filter, and their calls are batched over the");
    println!("rows that survive the cheap ones.");
}
