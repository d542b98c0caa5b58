//! Table 2 — HQDL execution accuracy on SWAN, model × {0,1,3,5}-shot ×
//! four databases, with the paper's values inline for comparison.

use swan_core::experiment::{evaluate_hqdl, pct, render_table, shape_line, Harness};
use swan_llm::ModelKind;

/// Paper Table 2 values, `[shots][db]` with db order
/// (California Schools, Super Hero, Formula One, European Football, Overall).
const PAPER: &[(ModelKind, usize, [f64; 5])] = &[
    (ModelKind::Gpt35Turbo, 0, [0.500, 0.133, 0.167, 0.167, 0.242]),
    (ModelKind::Gpt35Turbo, 1, [0.500, 0.233, 0.467, 0.267, 0.367]),
    (ModelKind::Gpt35Turbo, 3, [0.467, 0.200, 0.467, 0.333, 0.367]),
    (ModelKind::Gpt35Turbo, 5, [0.533, 0.200, 0.467, 0.333, 0.383]),
    (ModelKind::Gpt4Turbo, 0, [0.500, 0.233, 0.367, 0.167, 0.316]),
    (ModelKind::Gpt4Turbo, 1, [0.433, 0.233, 0.500, 0.233, 0.350]),
    (ModelKind::Gpt4Turbo, 3, [0.500, 0.267, 0.500, 0.267, 0.383]),
    (ModelKind::Gpt4Turbo, 5, [0.567, 0.233, 0.500, 0.300, 0.400]),
];

fn main() {
    let h = Harness::from_env();
    println!("Table 2: HQDL execution accuracy on SWAN (measured vs paper)");
    println!();

    let mut rows = Vec::new();
    // Measured EX per PAPER row, same column order as the paper's.
    let mut measured: Vec<[f64; 5]> = Vec::new();
    for (model, shots, paper) in PAPER {
        let e = evaluate_hqdl(&h.benchmark, h.kb.clone(), &h.gold, *model, *shots, 4);
        let db_ex = |name: &str| {
            e.per_db
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, t)| t.accuracy())
                .unwrap_or(0.0)
        };
        let ex = [
            db_ex("California Schools"),
            db_ex("Super Hero"),
            db_ex("Formula One"),
            db_ex("European Football"),
            e.overall.accuracy(),
        ];
        let mut row = vec![model.label().to_string(), format!("{shots}-shot")];
        row.extend(ex.iter().zip(paper).map(|(m, p)| format!("{} ({})", pct(*m), pct(*p))));
        rows.push(row);
        measured.push(ex);
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
    // The paper's qualitative findings, computed from the rows above (the
    // first four PAPER rows are GPT-3.5 at 0/1/3/5 shots, the last four
    // GPT-4).
    let overall =
        |rows: &[[f64; 5]]| rows.iter().map(|ex| pct(ex[4])).collect::<Vec<_>>().join(" ");
    let (gpt35, gpt4) = measured.split_at(4);
    for (name, model) in [("gpt35", gpt35), ("gpt4", gpt4)] {
        let rises = model.windows(2).all(|w| w[0][4] <= w[1][4]);
        println!("{}", shape_line(&format!("ex_rises_with_shots_{name}"), rises, &overall(model)));
    }
    println!(
        "{}",
        shape_line(
            "gpt4_ge_gpt35_overall",
            gpt35.iter().zip(gpt4).all(|(a, b)| b[4] >= a[4]),
            &format!("GPT-4 {} vs GPT-3.5 {}", overall(gpt4), overall(gpt35)),
        )
    );
    // LIMIT-clause effect (paper 5.3), on the headline row: GPT-4 5-shot.
    let dbs = &gpt4[3][..4];
    let (ca, hero) = (dbs[0], dbs[1]);
    println!(
        "{}",
        shape_line(
            "ca_schools_highest_super_hero_lowest",
            dbs.iter().all(|&ex| hero <= ex && ex <= ca),
            &format!(
                "GPT-4 5-shot CA {} Hero {} F1 {} Football {}",
                pct(ca),
                pct(hero),
                pct(dbs[2]),
                pct(dbs[3])
            ),
        )
    );
}
