//! Table 3 — hybrid-query-UDF (BlendSQL-style) execution accuracy on
//! SWAN with GPT-3.5 Turbo, 0-shot and 5-shot.

use swan_core::experiment::{
    evaluate_hqdl, evaluate_udf, pct, render_table, shape_line, Harness,
};
use swan_core::udf::UdfConfig;
use swan_llm::ModelKind;

/// Paper Table 3 (db order: CA Schools, Super Hero, Formula One,
/// European Football, Overall).
const PAPER: &[(usize, [f64; 5])] = &[
    (0, [0.100, 0.233, 0.300, 0.100, 0.183]),
    (5, [0.133, 0.233, 0.433, 0.033, 0.208]),
];

fn main() {
    let h = Harness::from_env();
    println!("Table 3: HQ UDFs execution accuracy on SWAN (measured vs paper)");
    println!();

    let mut rows = Vec::new();
    // Overall UDF EX per PAPER row, for the shape checks.
    let mut udf_overall = Vec::new();
    for (shots, paper) in PAPER {
        let config = UdfConfig { shots: *shots, ..Default::default() };
        let e = evaluate_udf(&h.benchmark, h.kb.clone(), &h.gold, ModelKind::Gpt35Turbo, config);
        let db_ex = |name: &str| {
            e.per_db
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, t)| t.accuracy())
                .unwrap_or(0.0)
        };
        rows.push(vec![
            "GPT-3.5 Turbo".to_string(),
            format!("{shots}-shot"),
            format!("{} ({})", pct(db_ex("California Schools")), pct(paper[0])),
            format!("{} ({})", pct(db_ex("Super Hero")), pct(paper[1])),
            format!("{} ({})", pct(db_ex("Formula One")), pct(paper[2])),
            format!("{} ({})", pct(db_ex("European Football")), pct(paper[3])),
            format!("{} ({})", pct(e.overall.accuracy()), pct(paper[4])),
        ]);
        udf_overall.push(e.overall.accuracy());
    }

    println!(
        "{}",
        render_table(
            &[
                "Model",
                "Demos",
                "CA Schools (paper)",
                "Super Hero (paper)",
                "Formula One (paper)",
                "Eur. Football (paper)",
                "Overall (paper)",
            ],
            &rows,
        )
    );
    // UDF EX below HQDL EX at the same settings (paper 5.4 — single-cell
    // prediction loses the whole-row chain-of-thought effect, and batch-5
    // prompts are more error-prone): evaluate the matching HQDL condition
    // and compare the overall figures.
    for ((shots, _), udf) in PAPER.iter().zip(udf_overall) {
        let hqdl =
            evaluate_hqdl(&h.benchmark, h.kb.clone(), &h.gold, ModelKind::Gpt35Turbo, *shots, 4)
                .overall
                .accuracy();
        println!(
            "{}",
            shape_line(
                &format!("udf_ex_below_hqdl_ex_{shots}shot"),
                udf <= hqdl,
                &format!("UDF {} vs HQDL {}", pct(udf), pct(hqdl)),
            )
        );
    }
}
