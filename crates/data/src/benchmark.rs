//! Assembling the full SWAN benchmark and its knowledge base.

use std::sync::Arc;

use swan_llm::StaticKnowledge;

use crate::types::{DomainData, GenConfig};
use crate::{football, formula1, schools, superhero};

/// The complete SWAN benchmark: four domains, 120 questions.
#[derive(Debug, Clone)]
pub struct SwanBenchmark {
    pub domains: Vec<DomainData>,
}

impl SwanBenchmark {
    /// Generate all four domains.
    pub fn generate(cfg: &GenConfig) -> Self {
        SwanBenchmark {
            domains: vec![
                schools::generate(cfg),
                superhero::generate(cfg),
                formula1::generate(cfg),
                football::generate(cfg),
            ],
        }
    }

    /// Generate a single domain by database name (cheaper for tests).
    pub fn generate_domain(cfg: &GenConfig, db: &str) -> Option<DomainData> {
        match db {
            schools::DB_NAME => Some(schools::generate(cfg)),
            superhero::DB_NAME => Some(superhero::generate(cfg)),
            formula1::DB_NAME => Some(formula1::generate(cfg)),
            football::DB_NAME => Some(football::generate(cfg)),
            _ => None,
        }
    }

    pub fn domain(&self, db: &str) -> Option<&DomainData> {
        self.domains.iter().find(|d| d.name == db)
    }

    /// Total question count (120 at any scale).
    pub fn question_count(&self) -> usize {
        self.domains.iter().map(|d| d.questions.len()).sum()
    }
}

/// Build the simulated model's knowledge base from domain ground truth:
/// facts, popularity, question phrasings, and attribute classes/candidate
/// pools from the expansion specs.
pub fn build_knowledge(domains: &[DomainData]) -> Arc<StaticKnowledge> {
    let mut kb = StaticKnowledge::new();
    for d in domains {
        for fact in &d.facts {
            kb.add_fact(&d.name, &fact.key, &fact.attribute, fact.value.clone());
        }
        for (key, pop) in &d.popularity {
            kb.set_popularity(&d.name, key, *pop);
        }
        for phrase in &d.phrases {
            kb.add_question(&d.name, &phrase.text, &phrase.attribute);
        }
        for exp in &d.curation.expansions {
            for col in &exp.generated {
                kb.set_class(&d.name, &col.name, col.class);
                if let Some(values) = &col.value_list {
                    kb.set_candidates(&d.name, &col.name, values.clone());
                } else {
                    // Free-form attributes get a hallucination pool of
                    // *plausible* wrong answers: other entities' real
                    // values (a wrong-but-real city, another school's
                    // website, a believable height).
                    let mut pool: Vec<String> = Vec::new();
                    let mut seen = std::collections::HashSet::new();
                    for f in d.facts.iter().filter(|f| f.attribute == col.name) {
                        let v = f.value.condensed();
                        if !v.is_empty() && seen.insert(v.clone()) {
                            pool.push(v);
                            if pool.len() >= 64 {
                                break;
                            }
                        }
                    }
                    kb.set_candidates(&d.name, &col.name, pool);
                }
            }
        }
    }
    Arc::new(kb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swan_llm::{KnowledgeBase, KnownValue};

    #[test]
    fn full_benchmark_has_120_questions() {
        let b = SwanBenchmark::generate(&GenConfig::with_scale(0.01));
        assert_eq!(b.domains.len(), 4);
        assert_eq!(b.question_count(), 120);
        for d in &b.domains {
            assert_eq!(d.questions.len(), 30, "{}", d.name);
        }
    }

    #[test]
    fn domain_lookup() {
        let b = SwanBenchmark::generate(&GenConfig::with_scale(0.01));
        assert!(b.domain("superhero").is_some());
        assert!(b.domain("nope").is_none());
        assert!(SwanBenchmark::generate_domain(&GenConfig::with_scale(0.01), "formula_1").is_some());
    }

    #[test]
    fn knowledge_answers_generated_attributes() {
        let cfg = GenConfig::with_scale(0.02);
        let d = SwanBenchmark::generate_domain(&cfg, "superhero").unwrap();
        let kb = build_knowledge(std::slice::from_ref(&d));
        // Every hero's publisher must be known and in the candidate pool.
        let candidates = kb.candidates("superhero", "publisher_name");
        assert!(!candidates.is_empty());
        for fact in d.facts.iter().filter(|f| f.attribute == "publisher_name").take(20) {
            match kb.lookup("superhero", &fact.key, "publisher_name") {
                Some(KnownValue::One(v)) => assert!(candidates.contains(v)),
                other => panic!("missing publisher fact: {other:?}"),
            }
        }
    }

    #[test]
    fn knowledge_resolves_all_udf_phrases() {
        let cfg = GenConfig::with_scale(0.01);
        let b = SwanBenchmark::generate(&cfg);
        let kb = build_knowledge(&b.domains);
        for d in &b.domains {
            for phrase in &d.phrases {
                assert_eq!(
                    kb.resolve_question(&d.name, &phrase.text).as_deref(),
                    Some(phrase.attribute.as_str()),
                    "{}: {}",
                    d.name,
                    phrase.text
                );
            }
        }
    }

    #[test]
    fn table1_shape_at_small_scale() {
        let b = SwanBenchmark::generate(&GenConfig::with_scale(0.01));
        let by_name = |n: &str| b.domain(n).unwrap();
        assert_eq!(by_name("california_schools").table_count(), 3);
        assert_eq!(by_name("superhero").table_count(), 8);
        assert_eq!(by_name("formula_1").table_count(), 13);
        assert_eq!(by_name("european_football").table_count(), 6);
        assert_eq!(by_name("california_schools").curation.dropped_count(), 12);
        assert_eq!(by_name("superhero").curation.dropped_count(), 11);
        assert_eq!(by_name("formula_1").curation.dropped_count(), 12);
        assert_eq!(by_name("european_football").curation.dropped_count(), 12);
    }
}
