//! Ablation A4 (paper §4.2) — predicate pushdown for UDF queries, on the
//! optimizer's own switches. By default cheap WHERE conjuncts run first
//! and only the surviving rows' keys reach the LLM. With expensive-last
//! ordering and call batching off, `llm_map` is evaluated in written
//! order, before the cheap predicate, and the system generates values for
//! every row (the §5.5 "generated heights for all players" failure).
//!
//! The off arm is per-row — one key per call — so "Keys generated" is the
//! comparable column; its calls and tokens also carry the loss of
//! batching.

use std::sync::Arc;

use swan_core::experiment::{render_table, Harness};
use swan_core::udf::{UdfConfig, UdfRunner};
use swan_llm::{LanguageModel, ModelKind, SimulatedModel};
use swan_sqlengine::OptimizerConfig;

fn main() {
    let h = Harness::from_env();
    let domain = h.domain("european_football");
    let players = domain.curated.catalog().get("player").unwrap().len();

    // q21/q22 write the `llm_map` birthday predicate before a cheap
    // top-rated-players filter.
    let filtered: Vec<_> = domain.questions[20..22].iter().collect();

    println!("Ablation A4: cheap predicates before llm_map on European Football filters");
    println!("({players} players; 2 birthday questions over top-rated players)");
    println!();

    let cheap_first = OptimizerConfig::default();
    let written_order = OptimizerConfig {
        order_expensive_last: false,
        batch_expensive_udfs: false,
        ..cheap_first
    };
    let mut rows = Vec::new();
    for (label, optimizer) in [("on (cheap first)", cheap_first), ("off (per row)", written_order)] {
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt35Turbo, h.kb.clone()));
        let mut runner = UdfRunner::new(domain, model.clone(), UdfConfig::default());
        runner.database_mut().set_optimizer(optimizer);
        for q in &filtered {
            runner.run_sql(&q.udf_sql).expect("question runs");
        }
        let usage = model.usage();
        rows.push(vec![
            label.to_string(),
            runner.cached_answers().to_string(),
            usage.calls.to_string(),
            format!("{:.1}k", usage.input_tokens as f64 / 1e3),
        ]);
    }

    println!(
        "{}",
        render_table(&["Pushdown", "Keys generated", "LLM calls", "Input tokens"], &rows)
    );
    println!("Expected shape: cheap-first generates only the top-rated players' keys;");
    println!("without it, every player is generated for every question.");
}
