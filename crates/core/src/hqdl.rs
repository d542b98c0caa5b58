//! HQDL — Hybrid Query over Database and LLM (paper §4.1).
//!
//! The schema-expansion solution: for every expansion the benchmark
//! defines, HQDL prompts the language model once per entity with the
//! §4.1.1 row-completion prompt (zero- or few-shot), extracts the
//! returned row CSV-style, and materializes the rows into `llm_*` tables
//! inside the curated database. One-to-many values arrive condensed
//! ("Agility, Super Strength, Super Speed"). After materialization the
//! hybrid SQL of each question is an ordinary query.
//!
//! An expansion's prompts differ only in their target entry: the shared
//! head is rendered once per expansion and each prompt is completed by the
//! worker that sends it, so materialization holds `workers` prompts at a
//! time, not one per entity.

use swan_data::{DomainData, Expansion};
use swan_llm::prompt::{parse_row, Field};
use swan_llm::{parallel, LanguageModel, RowCompletionPrompt, RowExample};
use swan_pool::hash::FxHashSet;
use swan_sqlengine::{Column, Database, Table, Value};

/// HQDL configuration.
#[derive(Debug, Clone, Copy)]
pub struct HqdlConfig {
    /// Few-shot demonstration count (0, 1, 3, 5 in the paper).
    pub shots: usize,
    /// Worker threads for parallel LLM calls (§6 future work; 1 =
    /// sequential, the paper's setting).
    pub workers: usize,
}

impl Default for HqdlConfig {
    fn default() -> Self {
        HqdlConfig { shots: 0, workers: 1 }
    }
}

/// Outcome of materializing one domain.
#[derive(Debug)]
pub struct HqdlRun {
    /// Curated database plus the materialized `llm_*` tables.
    pub database: Database,
    /// Rows whose response could not be aligned to the schema (format
    /// errors, §5.3) — they are dropped by extraction.
    pub malformed_rows: usize,
    /// Calls that returned no completion at all (transport failure, open
    /// breaker, statement deadline): their entities have no row either,
    /// but nothing was wrong with a format.
    pub failed_calls: usize,
    /// Total cells generated (excluding keys).
    pub generated_cells: usize,
}

/// Materialize every expansion of `domain` using `model`.
///
/// This is the expensive step whose token usage Table 5 reports; read the
/// model's [`UsageMeter`](swan_llm::UsageMeter) before/after to account
/// for it.
pub fn materialize(
    domain: &DomainData,
    model: &dyn LanguageModel,
    config: &HqdlConfig,
) -> HqdlRun {
    let mut database = domain.curated.clone();
    let mut malformed = 0usize;
    let mut failed = 0usize;
    let mut cells = 0usize;

    for expansion in &domain.curation.expansions {
        let keys = expansion_key_rows(&domain.curated, expansion);
        let examples = few_shot_examples(domain, expansion, config.shots);
        let columns = expansion.all_columns();
        let width = columns.len();
        let key_len = expansion.key_columns.len();

        // What every entity's prompt shares is rendered once; each worker
        // appends its entity's target to a copy just before sending it.
        let head = RowCompletionPrompt::render_head(
            &domain.name,
            &columns,
            key_len,
            expansion
                .generated
                .iter()
                .filter_map(|g| Some((g.name.as_str(), g.value_list.as_deref()?))),
            &examples,
        );
        let completions = parallel::complete_many(model, keys.len(), config.workers, |i| {
            let mut prompt = String::with_capacity(head.len() + 256);
            prompt.push_str(&head);
            RowCompletionPrompt::push_target(&mut prompt, &keys[i].0, width);
            prompt
        });

        let mut table = Table::new(
            expansion.table.clone(),
            columns.into_iter().map(Column::new).collect(),
            &[],
        )
        .expect("expansion schema is valid");

        // Data extraction (§4.1): parse each response as a quoted row and
        // keep only rows with the right arity.
        for ((_, stored), completion) in keys.iter().zip(completions) {
            let Ok(completion) = completion else {
                failed += 1;
                continue;
            };
            let fields = parse_row(&completion.text);
            if fields.len() != width {
                malformed += 1;
                continue;
            }
            let mut row: Vec<Value> = Vec::with_capacity(width);
            // Trust the *database's* key values over the model's echo —
            // the echoed key fields are never compared, so joins stay sound
            // even when the model mangles the key — and keep their stored
            // storage class: re-inferring the type from the rendered text
            // would retype a text key that happens to parse as a number
            // ("007" → Integer(7)) and break the join against its Text base
            // column.
            row.extend(stored.iter().cloned());
            row.extend(fields[key_len..].iter().map(|field| match field {
                Field::Value(text) => infer_value(text),
                Field::Missing => Value::Null,
            }));
            cells += width - key_len;
            table.insert_row(row).expect("expansion rows are unconstrained");
        }
        database.catalog_mut().put_table(table);
    }

    HqdlRun { database, malformed_rows: malformed, failed_calls: failed, generated_cells: cells }
}

/// Distinct key tuples of an expansion's base table, in storage order.
pub fn expansion_keys(curated: &Database, expansion: &Expansion) -> Vec<Vec<String>> {
    expansion_key_rows(curated, expansion)
        .into_iter()
        .map(|(rendered, _)| rendered)
        .collect()
}

/// Distinct key tuples of an expansion's base table, in storage order,
/// as `(rendered, stored)` pairs: the rendered form feeds prompts, the
/// stored values keep the base column's storage class when the key is
/// re-inserted into the materialized table (so text keys that parse as
/// numbers still join).
pub fn expansion_key_rows(
    curated: &Database,
    expansion: &Expansion,
) -> Vec<(Vec<String>, Vec<Value>)> {
    let table = curated
        .catalog()
        .get(&expansion.base_table)
        .expect("expansion base table exists in curated db");
    let idx: Vec<usize> = expansion
        .key_columns
        .iter()
        .map(|c| table.column_index(c).expect("key column exists"))
        .collect();
    let mut seen = FxHashSet::default();
    let mut out = Vec::new();
    for row in table.rows() {
        let rendered: Vec<String> = idx.iter().map(|&i| row[i].render()).collect();
        if rendered.iter().any(String::is_empty) {
            continue; // NULL keys cannot anchor a PK-FK relationship (§3.4).
        }
        if seen.insert(rendered.clone()) {
            let stored: Vec<Value> = idx.iter().map(|&i| row[i].clone()).collect();
            out.push((rendered, stored));
        }
    }
    out
}

/// Parse a generated text cell into a typed value, so materialized
/// numerics (heights, years) join and compare against integer columns.
pub fn infer_value(s: &str) -> Value {
    let t = s.trim();
    if t.is_empty() {
        return Value::Null;
    }
    if let Ok(i) = t.parse::<i64>() {
        return Value::Integer(i);
    }
    // `f64`'s grammar also accepts "inf", "Infinity" and "NaN": a model
    // that answers one of those wrote a word, not a number.
    match t.parse::<f64>() {
        Ok(f) if f.is_finite() => Value::Real(f),
        _ => Value::text(t),
    }
}

/// `shots` fully-truthful example rows for `expansion` (§5.2: "static
/// examples randomly selected from the original database"), taken from
/// the tail of the key space: the greatest keys that have a fact for the
/// first generated attribute, descending — a deterministic "random" sample.
fn few_shot_examples(domain: &DomainData, expansion: &Expansion, shots: usize) -> Vec<RowExample> {
    let Some(first) = expansion.generated.first().filter(|_| shots > 0) else {
        return Vec::new();
    };
    let key_len = expansion.key_columns.len();
    // Pass 1: the `shots` greatest distinct keys, kept sorted descending.
    let mut keys: Vec<&Vec<String>> = Vec::with_capacity(shots + 1);
    for f in &domain.facts {
        if f.attribute != first.name || f.key.len() != key_len {
            continue;
        }
        let at = keys.partition_point(|k| **k > f.key);
        if at < shots && keys.get(at) != Some(&&f.key) {
            keys.insert(at, &f.key);
            keys.truncate(shots);
        }
    }
    let mut examples: Vec<RowExample> = keys
        .iter()
        .map(|key| {
            let mut answer = (*key).clone();
            answer.resize(key_len + expansion.generated.len(), String::new());
            RowExample { key: (*key).clone(), answer }
        })
        .collect();
    // Pass 2: their cells; the last fact wins on a repeated (key, attribute).
    for f in &domain.facts {
        let Some(row) = keys.iter().position(|k| **k == f.key) else { continue };
        if let Some(col) = expansion.generated.iter().position(|g| g.name == f.attribute) {
            examples[row].answer[key_len + col] = f.value.condensed();
        }
    }
    examples
}

#[cfg(test)]
mod tests {
    use super::*;
    use swan_data::{GenConfig, SwanBenchmark};
    use swan_llm::{ModelKind, SimulatedModel};

    fn domain() -> DomainData {
        SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "superhero").unwrap()
    }

    #[test]
    fn infer_value_types() {
        assert_eq!(infer_value("42"), Value::Integer(42));
        assert_eq!(infer_value("3.5"), Value::Real(3.5));
        assert_eq!(infer_value(" DC Comics "), Value::text("DC Comics"));
        assert!(infer_value("").is_null());
        assert!(infer_value("  ").is_null());
        assert_eq!(infer_value("-1e3"), Value::Real(-1000.0));
        for word in ["inf", "-inf", "Infinity", "NaN", "nan"] {
            assert_eq!(infer_value(word), Value::text(word), "non-finite stays text");
        }
    }

    #[test]
    fn expansion_keys_distinct_and_ordered() {
        let d = domain();
        let keys = expansion_keys(&d.curated, &d.curation.expansions[0]);
        let heroes = d.curated.catalog().get("superhero").unwrap().len();
        assert_eq!(keys.len(), heroes, "hero keys are unique");
        assert!(keys.iter().all(|k| k.len() == 2));
    }

    #[test]
    fn materialize_creates_llm_table() {
        let d = domain();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let model = SimulatedModel::new(ModelKind::Gpt4Turbo, kb);
        let run = materialize(&d, &model, &HqdlConfig { shots: 5, workers: 1 });
        let t = run.database.catalog().get("llm_superhero").expect("materialized");
        assert_eq!(t.width(), 10);
        let heroes = d.curated.catalog().get("superhero").unwrap().len();
        assert!(t.len() + run.malformed_rows >= heroes);
        assert!(run.generated_cells > 0);
        // Usage was recorded.
        assert!(model.usage().input_tokens > 0);
        assert_eq!(model.usage().calls as usize, heroes);
    }

    #[test]
    fn few_shot_examples_are_truthful_rows() {
        let d = domain();
        let ex = few_shot_examples(&d, &d.curation.expansions[0], 3);
        assert_eq!(ex.len(), 3);
        for e in &ex {
            assert_eq!(e.answer.len(), 10);
            assert_eq!(&e.answer[..2], &e.key[..]);
            // The publisher field is a real publisher.
            assert!(swan_data::superhero::PUBLISHERS.contains(&e.answer[5].as_str()));
        }
    }

    /// Regression: a text key that parses as a number ("007") must keep
    /// its Text storage class in the materialized table — re-inferring the
    /// type from the rendered key retyped it to Integer(7) and the llm_*
    /// row no longer joined against its base column.
    #[test]
    fn materialize_preserves_text_key_storage_class() {
        use swan_data::{CurationSpec, Expansion, GenColumn};
        use swan_llm::{Completion, LanguageModel, LlmResult, UsageMeter};
        use swan_sqlengine::Database;

        /// Echoes a well-formed completion row for every prompt.
        struct RowEcho(UsageMeter);
        impl LanguageModel for RowEcho {
            fn name(&self) -> &str {
                "row-echo"
            }
            fn complete(&self, _prompt: &str) -> LlmResult<Completion> {
                Ok(Completion { text: "'007', 'alias-x'".into(), tokens: Default::default() })
            }
            fn usage_meter(&self) -> &UsageMeter {
                &self.0
            }
        }

        let mut curated = Database::new();
        curated.execute("CREATE TABLE agent (code TEXT)").unwrap();
        curated.execute("INSERT INTO agent VALUES ('007'), ('8')").unwrap();
        let domain = DomainData {
            name: "agents".into(),
            display_name: "Agents".into(),
            original: curated.clone(),
            curated,
            curation: CurationSpec {
                dropped_columns: vec![],
                dropped_tables: vec![],
                expansions: vec![Expansion {
                    table: "llm_agent".into(),
                    base_table: "agent".into(),
                    key_columns: vec!["code".into()],
                    generated: vec![GenColumn::free_form("alias")],
                }],
            },
            facts: vec![],
            popularity: vec![],
            phrases: vec![],
            questions: vec![],
        };

        let run = materialize(&domain, &RowEcho(UsageMeter::new()), &HqdlConfig::default());
        let t = run.database.catalog().get("llm_agent").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[0][0], Value::text("007"), "key keeps Text storage class");
        assert_eq!(t.rows()[1][0], Value::text("8"));
        let joined = run
            .database
            .query("SELECT COUNT(*) FROM agent a JOIN llm_agent l ON a.code = l.code")
            .unwrap();
        assert_eq!(joined.rows[0][0], Value::Integer(2), "both keys join their base rows");
    }

    /// Regression: a call that returned no completion was counted as a
    /// §5.3 format error. It is a failed call; `malformed_rows` keeps only
    /// the wrong-arity rows among the calls that did answer.
    #[test]
    fn a_failed_call_is_not_a_format_error() {
        use std::sync::Mutex;
        use swan_llm::{Completion, LanguageModel, LlmError, LlmResult, UsageMeter};

        /// Fails every `fail_every`-th call (never, at 0) and notes for each
        /// call whether the simulator's row had the wrong arity.
        struct Flaky {
            inner: SimulatedModel,
            fail_every: usize,
            width: usize,
            /// One entry per call so far.
            wrong_arity: Mutex<Vec<bool>>,
        }
        impl LanguageModel for Flaky {
            fn name(&self) -> &str {
                "flaky"
            }
            fn complete(&self, prompt: &str) -> LlmResult<Completion> {
                let out = self.inner.complete(prompt)?;
                let mut wrong_arity = self.wrong_arity.lock().unwrap();
                wrong_arity.push(parse_row(&out.text).len() != self.width);
                if self.fail_every > 0 && wrong_arity.len().is_multiple_of(self.fail_every) {
                    return Err(LlmError::Backend("connection reset".into()));
                }
                Ok(out)
            }
            fn usage_meter(&self) -> &UsageMeter {
                self.inner.usage_meter()
            }
        }

        let d = domain();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let run_with = |fail_every| {
            let model = Flaky {
                inner: SimulatedModel::new(ModelKind::Gpt4Turbo, kb.clone()),
                fail_every,
                width: d.curation.expansions[0].all_columns().len(),
                wrong_arity: Mutex::new(Vec::new()),
            };
            // One worker: the i-th call is the i-th entity in both runs.
            let run = materialize(&d, &model, &HqdlConfig { shots: 5, workers: 1 });
            (run, model.wrong_arity.into_inner().unwrap())
        };
        let (clean, wrong_arity) = run_with(0);
        let n = wrong_arity.len();
        assert_eq!(clean.failed_calls, 0);
        assert_eq!(clean.malformed_rows, wrong_arity.iter().filter(|w| **w).count());
        assert!(clean.malformed_rows > 0, "the fixture has format errors to tell apart");

        let (flaky, _) = run_with(3);
        let answered_wrong = wrong_arity
            .iter()
            .enumerate()
            .filter(|(i, wrong)| **wrong && !(i + 1).is_multiple_of(3))
            .count();
        assert_eq!(flaky.failed_calls, n / 3);
        assert_eq!(flaky.malformed_rows, answered_wrong);
        let rows = flaky.database.catalog().get("llm_superhero").unwrap().len();
        assert_eq!(rows, n - flaky.failed_calls - flaky.malformed_rows);
    }

    #[test]
    fn parallel_materialization_same_rows_as_sequential() {
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.02), "superhero").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let m1 = SimulatedModel::new(ModelKind::Gpt35Turbo, kb.clone());
        let m2 = SimulatedModel::new(ModelKind::Gpt35Turbo, kb);
        let seq = materialize(&d, &m1, &HqdlConfig { shots: 1, workers: 1 });
        let par = materialize(&d, &m2, &HqdlConfig { shots: 1, workers: 4 });
        let a = seq.database.catalog().get("llm_superhero").unwrap();
        let b = par.database.catalog().get("llm_superhero").unwrap();
        assert_eq!(a.rows(), b.rows(), "parallelism must not change results");
    }
}
