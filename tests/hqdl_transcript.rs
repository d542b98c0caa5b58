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
//! every commit after it.

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
