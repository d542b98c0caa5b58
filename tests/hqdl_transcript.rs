//! HQDL materialization's transcript, pinned: every row-completion prompt
//! it renders (few-shot demonstrations included) and every completion it
//! receives, in call order, as one FNV-1a digest per configuration —
//! superhero at scale 0.05 (0- and 5-shot) and formula_1 at scale 1.0
//! (5-shot: the domain whose base table repeats keys). Which rows become
//! demonstrations, their order, a cell of one, or one moved byte of prompt
//! text changes it.
//!
//! The constants were computed at commit `d9a0dc6` (while `hqdl` still
//! picked its demonstrations through the `TruthIndex` map) and must hold on
//! every commit after it. A fourth test holds four workers to what one
//! worker says (the set of calls, the counts, the materialized rows).

mod common;

use common::Recording;
use swan::prelude::*;

/// (model transcript digest, model calls, generated cells, malformed rows).
fn transcript(domain: &str, scale: f64, shots: usize) -> (u64, u64, usize, usize) {
    let domain = SwanBenchmark::generate_domain(&GenConfig::with_scale(scale), domain).unwrap();
    let kb = build_knowledge(std::slice::from_ref(&domain));
    let model = Recording::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb));
    // One worker: call order is then a property of the pathway, not of
    // the host.
    let run = materialize(&domain, &model, &HqdlConfig { shots, workers: 1 });
    (model.digest(), model.usage().calls, run.generated_cells, run.malformed_rows)
}

#[test]
fn superhero_zero_shot_transcript_is_the_parents() {
    assert_eq!(transcript("superhero", 0.05, 0), (15665774404011584511, 60, 464, 2));
}

#[test]
fn superhero_five_shot_transcript_is_the_parents() {
    assert_eq!(transcript("superhero", 0.05, 5), (9145961699718301235, 60, 464, 2));
}

#[test]
fn formula_1_full_scale_five_shot_transcript_is_the_parents() {
    assert_eq!(
        transcript("formula_1", 1.0, 5),
        (5295605193969240098, 2174, 5940, 11)
    );
}

/// Fanning the calls out changes who builds and sends each prompt, not
/// what is sent or kept: the same set of (prompt, completion) pairs, the
/// same counts, the same materialized rows in the same order.
#[test]
fn four_workers_say_what_one_worker_says() {
    let domain =
        SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "superhero").unwrap();
    let kb = build_knowledge(std::slice::from_ref(&domain));
    let run_with = |workers| {
        let model = Recording::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb.clone()));
        let run = materialize(&domain, &model, &HqdlConfig { shots: 5, workers });
        let counts = (
            model.unordered_digest(),
            model.usage().calls,
            run.generated_cells,
            run.malformed_rows,
            run.failed_calls,
        );
        (counts, run.database)
    };
    let (one, one_db) = run_with(1);
    let (four, four_db) = run_with(4);
    assert_eq!(four, one);
    assert_eq!((one.1, one.2, one.3, one.4), (60, 464, 2, 0));
    for expansion in &domain.curation.expansions {
        let rows = |db: &Database| db.catalog().get(&expansion.table).unwrap().rows().to_vec();
        assert_eq!(rows(&four_db), rows(&one_db), "{}", expansion.table);
    }
}
