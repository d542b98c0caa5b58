//! Experiment orchestration: everything needed to regenerate the paper's
//! evaluation tables (the bench targets in `swan-bench` are thin wrappers
//! around these functions).

use std::collections::HashMap;
use std::sync::Arc;

use swan_data::{build_knowledge, DomainData, SwanBenchmark};
use swan_llm::{LanguageModel, ModelKind, SimulatedModel, StaticKnowledge, UsageReport};
use swan_sqlengine::QueryResult;

use crate::hqdl::{materialize, HqdlConfig};
use crate::metrics::{
    execution_match, factuality, sql_is_ordered, ExTally, FactualityReport,
};
use crate::udf::{UdfConfig, UdfRunner, UdfStats};

/// Ground-truth answers: gold SQL executed on the original databases.
/// Computed once and shared across every (model, shots) condition.
pub struct GoldSet {
    answers: HashMap<String, QueryResult>,
}

impl GoldSet {
    pub fn compute(benchmark: &SwanBenchmark) -> Self {
        let mut answers = HashMap::new();
        for d in &benchmark.domains {
            for q in &d.questions {
                let r = d
                    .original
                    .query(&q.gold_sql)
                    .unwrap_or_else(|e| panic!("gold query {} failed: {e}", q.id));
                answers.insert(q.id.clone(), r);
            }
        }
        GoldSet { answers }
    }

    pub fn get(&self, question_id: &str) -> &QueryResult {
        &self.answers[question_id]
    }
}

/// One HQDL condition (model × shots) evaluated over all domains:
/// the data behind one row of Table 2 and Table 4.
#[derive(Debug)]
pub struct HqdlEvaluation {
    pub model: ModelKind,
    pub shots: usize,
    /// (db display name, EX tally), in benchmark order.
    pub per_db: Vec<(String, ExTally)>,
    pub overall: ExTally,
    /// (db display name, factuality), in benchmark order.
    pub factuality: Vec<(String, FactualityReport)>,
    /// LLM usage for the full materialization (Table 5).
    pub usage: UsageReport,
}

impl HqdlEvaluation {
    /// Mean of the per-database average F1s (Table 4's "Average").
    pub fn average_f1(&self) -> f64 {
        if self.factuality.is_empty() {
            return 0.0;
        }
        self.factuality.iter().map(|(_, f)| f.average_f1()).sum::<f64>()
            / self.factuality.len() as f64
    }
}

/// Evaluate HQDL at one (model, shots) condition.
pub fn evaluate_hqdl(
    benchmark: &SwanBenchmark,
    kb: Arc<StaticKnowledge>,
    gold: &GoldSet,
    model_kind: ModelKind,
    shots: usize,
    workers: usize,
) -> HqdlEvaluation {
    let model = SimulatedModel::new(model_kind, kb);
    let config = HqdlConfig { shots, workers };

    let mut per_db = Vec::new();
    let mut fact = Vec::new();
    let mut overall = ExTally::default();

    for domain in &benchmark.domains {
        let run = materialize(domain, &model, &config);
        let mut tally = ExTally::default();
        for q in &domain.questions {
            let ok = match run.database.query(&q.hybrid_sql) {
                Ok(result) => {
                    execution_match(gold.get(&q.id), &result, sql_is_ordered(&q.gold_sql))
                }
                Err(_) => false,
            };
            tally.record(ok);
            overall.record(ok);
        }
        per_db.push((domain.display_name.clone(), tally));
        fact.push((domain.display_name.clone(), factuality(domain, &run.database)));
    }

    HqdlEvaluation {
        model: model_kind,
        shots,
        per_db,
        overall,
        factuality: fact,
        usage: model.usage(),
    }
}

/// One UDF condition evaluated over all domains (Table 3 rows).
#[derive(Debug)]
pub struct UdfEvaluation {
    pub model: ModelKind,
    pub config: UdfConfig,
    pub per_db: Vec<(String, ExTally)>,
    pub overall: ExTally,
    pub usage: UsageReport,
    pub stats: UdfStats,
}

/// Evaluate the UDF solution at one condition.
pub fn evaluate_udf(
    benchmark: &SwanBenchmark,
    kb: Arc<StaticKnowledge>,
    gold: &GoldSet,
    model_kind: ModelKind,
    config: UdfConfig,
) -> UdfEvaluation {
    let model = Arc::new(SimulatedModel::new(model_kind, kb));

    let mut per_db = Vec::new();
    let mut overall = ExTally::default();
    let mut stats = UdfStats::default();

    for domain in &benchmark.domains {
        // One runner per domain: the cache persists across the domain's
        // 30 questions (BlendSQL behaviour).
        let mut runner = UdfRunner::new(domain, model.clone(), config);
        let mut tally = ExTally::default();
        for q in &domain.questions {
            let ok = match runner.run_sql(&q.udf_sql) {
                Ok(result) => {
                    execution_match(gold.get(&q.id), &result, sql_is_ordered(&q.gold_sql))
                }
                Err(_) => false,
            };
            tally.record(ok);
            overall.record(ok);
        }
        // Destructured so that a counter added to `UdfStats` cannot be
        // left out of the sum (the breaker state is per endpoint, not a
        // counter, and these runners have none).
        let UdfStats {
            prefetched_keys,
            cache_hits,
            exec_cache_hits,
            fallback_calls,
            degraded,
            breaker: _,
        } = runner.stats();
        stats.prefetched_keys += prefetched_keys;
        stats.cache_hits += cache_hits;
        stats.exec_cache_hits += exec_cache_hits;
        stats.fallback_calls += fallback_calls;
        stats.degraded += degraded;
        per_db.push((domain.display_name.clone(), tally));
    }

    UdfEvaluation {
        model: model_kind,
        config,
        per_db,
        overall,
        usage: model.usage(),
        stats,
    }
}

/// Shared setup for the bench targets: benchmark + knowledge + gold.
pub struct Harness {
    pub benchmark: SwanBenchmark,
    pub kb: Arc<StaticKnowledge>,
    pub gold: GoldSet,
}

impl Harness {
    /// Build at a given scale. Scale 1.0 reproduces Table 1; benches
    /// default to a smaller scale for wall-clock sanity (the shapes are
    /// scale-invariant; see EXPERIMENTS.md).
    pub fn new(scale: f64) -> Self {
        let benchmark = SwanBenchmark::generate(&swan_data::GenConfig::with_scale(scale));
        let kb = build_knowledge(&benchmark.domains);
        let gold = GoldSet::compute(&benchmark);
        Harness { benchmark, kb, gold }
    }

    /// Scale from the `SWAN_SCALE` environment variable (default 0.05).
    pub fn from_env() -> Self {
        let scale = std::env::var("SWAN_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.05);
        Self::new(scale)
    }

    pub fn domain(&self, name: &str) -> &DomainData {
        self.benchmark.domain(name).expect("known domain")
    }
}

/// Format a ratio as a percentage with one decimal, e.g. `40.0%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// One computed shape check of a bench table, as a line of bench output:
/// `shape PASS|FAIL <name>: <the numbers it was computed from>`.
pub fn shape_line(name: &str, holds: bool, numbers: &str) -> String {
    format!("shape {} {name}: {numbers}", if holds { "PASS" } else { "FAIL" })
}

/// Render an aligned text table (bench output).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let emit = |out: &mut String, cells: Vec<String>| {
        let line: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(line.join("  ").trim_end());
        out.push('\n');
    };
    emit(&mut out, headers.iter().map(|h| h.to_string()).collect());
    emit(&mut out, widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        emit(&mut out, row.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness() -> Harness {
        Harness::new(0.02)
    }

    #[test]
    fn gold_set_covers_all_questions() {
        let h = harness();
        for d in &h.benchmark.domains {
            for q in &d.questions {
                let _ = h.gold.get(&q.id); // would panic if missing
            }
        }
    }

    #[test]
    fn hqdl_evaluation_end_to_end() {
        let h = harness();
        let e = evaluate_hqdl(&h.benchmark, h.kb.clone(), &h.gold, ModelKind::Gpt4Turbo, 5, 2);
        assert_eq!(e.overall.total, 120);
        assert_eq!(e.per_db.len(), 4);
        assert!(e.overall.accuracy() > 0.05, "some questions must pass");
        assert!(e.average_f1() > 0.2, "5-shot GPT-4 F1 is substantial");
        assert!(e.usage.input_tokens > 0);
    }

    #[test]
    fn udf_evaluation_end_to_end() {
        let h = harness();
        let e = evaluate_udf(
            &h.benchmark,
            h.kb.clone(),
            &h.gold,
            ModelKind::Gpt35Turbo,
            UdfConfig::default(),
        );
        assert_eq!(e.overall.total, 120);
        assert!(e.usage.calls > 0);
        assert!(e.stats.prefetched_keys > 0);

        // Every per-domain counter reaches the summary, the per-row path's
        // included: a CASE-guarded call is never prefetched, so the first
        // of two identical statements pays one fallback call per hero and
        // the second is answered from the store.
        let mut benchmark = h.benchmark.clone();
        let domain = benchmark.domains.iter_mut().find(|d| d.name == "superhero").unwrap();
        let heroes = domain.curated.catalog().get("superhero").unwrap().len() as u64;
        for q in &mut domain.questions[..2] {
            q.udf_sql = "SELECT CASE WHEN T1.superhero_name IS NOT NULL THEN \
                         llm_map('What is the gender of the superhero?', \
                                 T1.superhero_name, T1.full_name) END FROM superhero T1"
                .into();
        }
        let e = evaluate_udf(
            &benchmark,
            h.kb.clone(),
            &h.gold,
            ModelKind::Gpt35Turbo,
            UdfConfig::default(),
        );
        assert_eq!((e.stats.fallback_calls, e.stats.exec_cache_hits), (heroes, heroes));
    }

    #[test]
    fn render_table_alignment() {
        let s = render_table(
            &["Model", "EX"],
            &[
                vec!["GPT-3.5 Turbo".into(), "24.2%".into()],
                vec!["GPT-4 Turbo".into(), "31.6%".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Model"));
        assert!(lines[2].contains("24.2%"));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.4), "40.0%");
        assert_eq!(pct(0.4823), "48.2%");
    }
}
