//! The UDF pathway's transcript, pinned: every prompt the runner sends and
//! every completion it receives, in call order, and every result row, for
//! the 30 superhero questions at scale 0.05 — as one FNV-1a digest per
//! configuration. Chunk order, key order within a chunk, a re-batch that
//! fires or does not, or one moved byte of prompt text changes it.
//!
//! The constants were computed at commit `d782b40` (before the answer
//! store and the prompt head were reworked) and must hold on every commit
//! after it: the pathway may get cheaper, it may not say anything else.

mod common;

use std::sync::Arc;

use common::{Fnv, Recording};
use swan::prelude::*;

/// (model transcript digest, result digest, model calls).
fn transcript(config: UdfConfig) -> (u64, u64, u64) {
    let domain = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "superhero").unwrap();
    let kb = build_knowledge(std::slice::from_ref(&domain));
    let model = Arc::new(Recording::new(SimulatedModel::new(ModelKind::Gpt35Turbo, kb)));
    let mut runner = UdfRunner::new(&domain, model.clone(), config);

    let mut results = Fnv::new();
    for q in &domain.questions {
        match runner.run_sql(&q.udf_sql) {
            Ok(out) => {
                for row in &out.rows {
                    for cell in row.iter() {
                        results.write(&cell.to_string());
                    }
                    results.write("\n");
                }
            }
            Err(e) => results.write(&e.to_string()),
        }
        results.write(&q.id);
    }
    (model.digest(), results.0, model.usage().calls)
}

#[test]
fn default_config_transcript_is_the_parents() {
    assert_eq!(
        transcript(UdfConfig::default()),
        (4094877272320305852, 10702973704741779007, 412)
    );
}

#[test]
fn five_shot_semantic_transcript_is_the_parents() {
    let config = UdfConfig { shots: 5, cache: CacheScope::Semantic, ..UdfConfig::default() };
    assert_eq!(transcript(config), (4493536609865750948, 9215896286738099541, 73));
}
