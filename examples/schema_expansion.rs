//! HQDL schema expansion on California Schools (paper §4.1).
//!
//! Shows the full pipeline: curated schema → row-completion prompts →
//! data extraction → materialized `llm_schools` table → answering
//! beyond-database questions, including the free-form URL generation the
//! paper highlights ("often ends with edu") and a factuality report.
//!
//! Run with: `cargo run --release --example schema_expansion`

use swan::prelude::*;
use swan_llm::RowCompletionPrompt;

fn main() {
    let domain =
        SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "california_schools")
            .expect("domain exists");
    let expansion = &domain.curation.expansions[0];

    println!("== the expansion HQDL must fill in ==");
    println!("table: {}", expansion.table);
    println!("keys:  {:?}", expansion.key_columns);
    println!(
        "generated columns: {:?}",
        expansion.generated.iter().map(|g| g.name.as_str()).collect::<Vec<_>>()
    );

    // Show one actual prompt (the §4.1.1 format).
    let keys = swan_core::hqdl::expansion_keys(&domain.curated, expansion);
    let prompt = RowCompletionPrompt {
        db: domain.name.clone(),
        columns: expansion.all_columns(),
        key_len: expansion.key_columns.len(),
        value_lists: expansion
            .generated
            .iter()
            .filter_map(|g| g.value_list.as_ref().map(|v| (g.name.clone(), v.clone())))
            .collect(),
        examples: vec![],
        target_key: keys[0].clone(),
    };
    println!("\n== a zero-shot row-completion prompt ==\n{}\n", prompt.render());

    // Materialize with the simulated GPT-4 Turbo.
    let kb = build_knowledge(std::slice::from_ref(&domain));
    let model = SimulatedModel::new(ModelKind::Gpt4Turbo, kb);
    let run = materialize(&domain, &model, &HqdlConfig { shots: 5, workers: 4 });
    println!(
        "materialized {} rows ({} malformed responses dropped by extraction, {} calls failed)",
        run.database.catalog().get("llm_schools").unwrap().len(),
        run.malformed_rows,
        run.failed_calls
    );

    // Generated websites: free-form, but anchored to the school name.
    let sites = run
        .database
        .query("SELECT school_name, website FROM llm_schools LIMIT 5")
        .unwrap();
    println!("\ngenerated websites:");
    for row in &sites.rows {
        println!("  {:40} {}", row[0].render(), row[1].render());
    }

    // Answer a real benchmark question and compare with gold.
    let q = &domain.questions[0];
    println!("\nquestion: {}", q.text);
    let hybrid = run.database.query(&q.hybrid_sql).unwrap();
    let gold = domain.original.query(&q.gold_sql).unwrap();
    println!(
        "gold:   {:?}",
        gold.rows.iter().map(|r| r[0].render()).collect::<Vec<_>>()
    );
    println!(
        "hybrid: {:?}",
        hybrid.rows.iter().map(|r| r[0].render()).collect::<Vec<_>>()
    );
    println!(
        "execution match: {}",
        execution_match(&gold, &hybrid, sql_is_ordered(&q.gold_sql))
    );

    // Factuality of everything that was generated.
    let report = factuality(&domain, &run.database);
    println!(
        "\ndata factuality over {} cells: F1 = {:.1}%",
        report.cells,
        100.0 * report.average_f1()
    );
}
