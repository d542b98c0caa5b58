//! Hybrid-query UDFs (paper §4.2) — the BlendSQL-style solution.
//!
//! `llm_map('question', key...)` is registered as an *expensive* scalar
//! UDF on the curated database, and the engine does the rest: the
//! optimizer runs cheap predicates first (§4.2: "pushing down predicates
//! to avoid generating unnecessary data entries") and marks every
//! `llm_map` call site for vectorized execution, which hands the
//! surviving rows' distinct argument tuples to
//! [`ScalarUdf::invoke_batch`]. There, keys the answer store misses are
//! chunked per [`UdfConfig::batch_size`] (BlendSQL's default is 5, §5.4)
//! into [`UdfPrompt`]s and fanned out across [`UdfConfig::workers`].
//! Keys a short batch response leaves unanswered get one re-batch round,
//! then single-key model calls, which are single-flighted across
//! concurrent rows. The answer-store key policy implements the caching
//! spectrum of §4.3/§5.5 (see [`CacheScope`]).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

use parking_lot::Mutex;
use swan_data::DomainData;
use swan_llm::knowledge::normalize_question;
use swan_llm::prompt::parse_udf_response;
use swan_llm::{parallel, BreakerState, LanguageModel, LlmError, ResilientModel, UdfExample, UdfPrompt};
use swan_pool::lockrank;
use swan_sqlengine::{Database, Error, QueryResult, Result, ScalarUdf, Value};

use crate::hqdl::infer_value;

/// How the answer store keys cached LLM results across questions (§5.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheScope {
    /// No reuse at all: every [`UdfRunner::run_sql`] starts a new
    /// question epoch, and only answers of the current epoch are live.
    PerQuestion,
    /// BlendSQL's behaviour: reuse only when the prompt's question text
    /// is (modulo whitespace/case) identical. Paraphrases miss.
    ExactPrompt,
    /// §4.3's query-rewriting idea: resolve the question to a canonical
    /// attribute first, so paraphrases share entries.
    Semantic,
}

/// What a failed (post-retry) model call degrades to, instead of failing
/// the whole statement. A statement-deadline failure
/// ([`LlmError::Deadline`]) is **never** degraded — the statement aborts
/// with [`Error::Deadline`] under every policy, because the deadline
/// belongs to the statement, not the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OnModelFailure {
    /// Surface the model error; the statement fails (the default).
    #[default]
    Fail,
    /// The row's answer becomes NULL. Never cached: a later statement
    /// retries the key.
    Null,
    /// Serve the last known-good answer for this key — whichever
    /// question epoch wrote it, so it outlives [`CacheScope::PerQuestion`]
    /// — falling back to NULL when the key has never been answered. Never
    /// re-cached either.
    StaleCache,
}

/// UDF-solution configuration.
#[derive(Debug, Clone, Copy)]
pub struct UdfConfig {
    /// Few-shot demonstrations in each prompt (0 or 5 in Table 3).
    pub shots: usize,
    /// Keys per batched prompt (BlendSQL default: 5).
    pub batch_size: usize,
    /// Cross-question caching policy (ablation A2).
    pub cache: CacheScope,
    /// Parallel LLM workers for one batch's prompts.
    pub workers: usize,
    /// Degradation policy for model calls that still fail after the
    /// resilience layer's retries.
    pub on_model_failure: OnModelFailure,
}

impl Default for UdfConfig {
    fn default() -> Self {
        UdfConfig {
            shots: 0,
            batch_size: 5,
            cache: CacheScope::ExactPrompt,
            workers: 1,
            on_model_failure: OnModelFailure::Fail,
        }
    }
}

/// Execution statistics for cost analysis.
#[derive(Debug, Clone, Copy, Default)]
pub struct UdfStats {
    /// Keys answered through batched model calls.
    pub prefetched_keys: u64,
    /// Distinct key tuples already in the answer store when a batch was
    /// assembled — the §5.5 cross-question reuse number.
    pub cache_hits: u64,
    /// Answer-store hits on the per-row path (`invoke` and the single-key
    /// fallback), including reuse across concurrent rows coalesced by
    /// the single-flight fallback.
    pub exec_cache_hits: u64,
    /// Per-row fallback model calls during execution (attempts, whether
    /// or not the model answered).
    pub fallback_calls: u64,
    /// Failed model calls absorbed by [`UdfConfig::on_model_failure`]
    /// (degraded to NULL or a stale answer) instead of failing the
    /// statement.
    pub degraded: u64,
    /// The resilience layer's per-endpoint circuit-breaker state, when
    /// the runner was built with [`UdfRunner::with_resilient`].
    pub breaker: Option<BreakerState>,
}

/// Domain metadata the runner needs (question → attribute, value lists,
/// few-shot pools). This is the hybrid system's own metadata, provided by
/// the benchmark (§3.5), not the model's knowledge.
struct DomainMeta {
    db: String,
    question_attr: HashMap<String, String>,
    value_lists: HashMap<String, Vec<String>>,
    examples: HashMap<String, Vec<UdfExample>>,
}

impl DomainMeta {
    fn build(domain: &DomainData, max_examples: usize) -> Self {
        let mut question_attr = HashMap::new();
        for p in &domain.phrases {
            question_attr.insert(normalize_question(&p.text), p.attribute.clone());
        }
        let mut value_lists = HashMap::new();
        for e in &domain.curation.expansions {
            for g in &e.generated {
                if let Some(vs) = &g.value_list {
                    value_lists.insert(g.name.clone(), vs.clone());
                }
            }
        }
        let mut examples: HashMap<String, Vec<UdfExample>> = HashMap::new();
        for f in &domain.facts {
            let pool = examples.entry(f.attribute.clone()).or_default();
            if pool.len() < max_examples {
                pool.push(UdfExample { key: f.key.clone(), answer: f.value.condensed() });
            }
        }
        DomainMeta {
            db: domain.name.clone(),
            question_attr,
            value_lists,
            examples,
        }
    }

    fn attribute_of(&self, question: &str) -> Option<&String> {
        self.question_attr.get(&normalize_question(question))
    }
}

/// An answer-store key: the question's identity under the configured
/// [`CacheScope`] (shared by every key of a batch) and the key tuple.
type CacheKey = (Arc<str>, Vec<String>);

/// One in-flight model fetch for a cache key. The leader (the thread that
/// created the flight) publishes its outcome here; waiters receive it
/// directly — a leader's *error* is delivered to every waiter instead of
/// leaving them to retry as surprise leaders (or hang). The flight is
/// removed from the map once resolved, so *later* calls for the same key
/// start a fresh flight and may retry.
#[derive(Default)]
struct Flight {
    /// `None` while the fetch is in flight. `Ok(Some(v))` = answered;
    /// `Ok(None)` = the flight ended without answering this key (a short
    /// batch response) — the waiter retries with its own flight;
    /// `Err(e)` = the leader's failure, propagated to every waiter.
    outcome: StdMutex<Option<Result<Option<Value>>>>,
    done: Condvar,
}

impl Flight {
    /// Publish the leader's outcome and wake every waiter.
    fn resolve(&self, outcome: Result<Option<Value>>) {
        *self.outcome.lock().unwrap_or_else(|p| p.into_inner()) = Some(outcome);
        self.done.notify_all();
    }

    /// Wait for the leader's outcome, honoring the calling statement's
    /// cancel token: a waiter whose deadline fires while parked returns
    /// [`Error::Deadline`] instead of staying parked behind a slow flight.
    fn wait(&self) -> Result<Option<Value>> {
        let token = swan_pool::cancel::current();
        let mut outcome = self.outcome.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(r) = outcome.as_ref() {
                return r.clone();
            }
            if let Some(t) = &token {
                if let Err(reason) = t.check() {
                    return Err(Error::from(reason));
                }
            }
            let wait = self
                .done
                .wait_timeout(outcome, Duration::from_millis(10))
                .unwrap_or_else(|p| p.into_inner());
            outcome = wait.0;
        }
    }
}

/// Every answer the model has produced, tagged with the question epoch
/// that wrote it. Only successful answers are ever inserted.
#[derive(Default)]
struct AnswerStore {
    /// Bumped by [`UdfRunner::run_sql`] under [`CacheScope::PerQuestion`];
    /// constant otherwise, so every entry stays live.
    epoch: u64,
    entries: HashMap<CacheKey, (u64, Value)>,
}

impl AnswerStore {
    /// A cache hit: the answer, if the current epoch wrote it.
    fn live(&self, key: &CacheKey) -> Option<&Value> {
        self.entries.get(key).filter(|(epoch, _)| *epoch == self.epoch).map(|(_, v)| v)
    }

    /// The last answer for `key` from any epoch: the
    /// [`OnModelFailure::StaleCache`] degradation source.
    fn last_good(&self, key: &CacheKey) -> Option<&Value> {
        self.entries.get(key).map(|(_, v)| v)
    }

    fn insert(&mut self, key: CacheKey, value: Value) {
        self.entries.insert(key, (self.epoch, value));
    }

    fn live_len(&self) -> usize {
        self.entries.values().filter(|(epoch, _)| *epoch == self.epoch).count()
    }
}

/// The [`UdfStats`] counters. Statistics only: `Relaxed` throughout.
#[derive(Default)]
struct Counters {
    prefetched_keys: AtomicU64,
    cache_hits: AtomicU64,
    exec_cache_hits: AtomicU64,
    fallback_calls: AtomicU64,
    degraded: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Shared state between the runner and the registered `llm_map` UDF.
struct Shared {
    meta: DomainMeta,
    model: Arc<dyn LanguageModel>,
    /// The resilience wrapper's handle when the runner was built with
    /// [`UdfRunner::with_resilient`] — exposes breaker state in stats.
    resilient: Option<Arc<ResilientModel>>,
    config: UdfConfig,
    answers: Mutex<AnswerStore>,
    counters: Counters,
    /// Cache keys currently being fetched, mapped to their [`Flight`].
    /// Concurrent rows asking for the same key wait on the flight instead
    /// of issuing duplicate model calls (single-flight). Lock ordering
    /// (lockdep ranks `udf_flight` < `udf_answers`): `in_flight` may take
    /// `answers` briefly, never the reverse.
    in_flight: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

impl Shared {
    /// What identifies `question` in the answer store under the configured
    /// cache scope.
    fn cache_scope_of(&self, question: &str) -> Arc<str> {
        match self.config.cache {
            CacheScope::Semantic => self
                .meta
                .attribute_of(question)
                .cloned()
                .unwrap_or_else(|| normalize_question(question)),
            // Prompt-text identity (BlendSQL): the "[qNN]" tag marking
            // which question produced the prompt stays in the key, so
            // per-question phrasings never share entries (§5.5).
            _ => question.trim().to_ascii_lowercase(),
        }
        .into()
    }

    fn prompt_for(&self, question: &str, keys: Vec<Vec<String>>) -> UdfPrompt {
        let attr = self.meta.attribute_of(question);
        let value_list = attr.and_then(|a| self.meta.value_lists.get(a)).cloned();
        let examples = attr
            .and_then(|a| self.meta.examples.get(a))
            .map(|pool| pool.iter().take(self.config.shots).cloned().collect())
            .unwrap_or_default();
        UdfPrompt {
            db: self.meta.db.clone(),
            question: question.to_string(),
            value_list,
            examples,
            keys,
        }
    }

    /// Answer-store lookup under the configured scope.
    fn cached(&self, cache_key: &CacheKey) -> Option<Value> {
        self.answers.lock().live(cache_key).cloned()
    }

    /// Single-key fallback call (cache miss during execution),
    /// single-flighted: concurrent rows asking for the same key wait for
    /// the one in-flight model call instead of each paying their own, and
    /// receive the leader's outcome — error included.
    fn fetch_single(&self, question: &str, key: &[String]) -> Result<Value> {
        let cache_key = (self.cache_scope_of(question), key.to_vec());
        loop {
            if let Some(v) = self.cached(&cache_key) {
                bump(&self.counters.exec_cache_hits);
                return Ok(v);
            }
            // Join an existing flight, or register ourselves as leader.
            let joined = {
                let mut fl = self.in_flight.lock();
                match fl.get(&cache_key) {
                    Some(f) => Some(f.clone()),
                    None => {
                        // Re-check under the map lock: a completing flight
                        // caches its answer *before* removing itself.
                        if let Some(v) = self.cached(&cache_key) {
                            bump(&self.counters.exec_cache_hits);
                            return Ok(v);
                        }
                        fl.insert(cache_key.clone(), Arc::new(Flight::default()));
                        None
                    }
                }
            };
            let Some(flight) = joined else {
                // We lead: perform the call, publish the outcome to any
                // waiters, and retire the flight so later calls retry
                // rather than inherit a stale error.
                let result = self.fetch_uncoalesced(question, key, &cache_key);
                let flight = {
                    let mut fl = self.in_flight.lock();
                    fl.remove(&cache_key)
                };
                if let Some(f) = flight {
                    f.resolve(result.clone().map(Some));
                }
                return result;
            };
            match flight.wait()? {
                Some(v) => {
                    bump(&self.counters.exec_cache_hits);
                    return Ok(v);
                }
                // The flight (a batch) ended without this key: retry
                // with a fresh flight of our own.
                None => continue,
            }
        }
    }

    fn fetch_uncoalesced(
        &self,
        question: &str,
        key: &[String],
        cache_key: &CacheKey,
    ) -> Result<Value> {
        let prompt = self.prompt_for(question, vec![key.to_vec()]).render();
        bump(&self.counters.fallback_calls);
        match self.model.complete(&prompt) {
            Ok(completion) => {
                let answer = parse_udf_response(&completion.text)
                    .into_iter()
                    .next()
                    .unwrap_or_default();
                let value = infer_value(&answer);
                self.answers.lock().insert(cache_key.clone(), value.clone());
                Ok(value)
            }
            Err(e) => self.degrade(cache_key, e),
        }
    }

    /// Apply [`UdfConfig::on_model_failure`] to a model call that still
    /// failed after the resilience layer's retries. A statement-deadline
    /// failure always aborts the statement — degrading it would silently
    /// turn "too slow" into wrong answers.
    fn degrade(&self, cache_key: &CacheKey, e: LlmError) -> Result<Value> {
        if e == LlmError::Deadline {
            return Err(Error::Deadline);
        }
        let fail = || Error::Udf { name: "llm_map".into(), message: e.to_string() };
        match self.config.on_model_failure {
            OnModelFailure::Fail => Err(fail()),
            OnModelFailure::Null => {
                bump(&self.counters.degraded);
                Ok(Value::Null)
            }
            OnModelFailure::StaleCache => {
                bump(&self.counters.degraded);
                Ok(self.answers.lock().last_good(cache_key).cloned().unwrap_or(Value::Null))
            }
        }
    }

    /// Batched fetch for the engine's vectorized execution: chunk the
    /// uncached keys of `needed` per `batch_size` and fan the prompts out
    /// through the parallel worker pool.
    ///
    /// A response can be short (batch glitches, §5.4): answers are matched
    /// to keys by position, so only the lines before the completion's
    /// first interior blank line are accepted — past a dropped line no
    /// position can be trusted. Keys left unanswered (and the keys of
    /// failed chunks) are simply not cached; [`LlmMapUdf::invoke_batch`]
    /// hands them to one more `fetch_batch` round and then falls back to
    /// single-key calls.
    fn fetch_batch(&self, question: &str, needed: &[&CacheKey]) {
        // Reserve the keys in the single-flight map; keys another thread
        // is already fetching (per-row or in its own batch) are dropped
        // from this batch — their rows fall back to `fetch_single`, which
        // waits on that flight instead of paying a duplicate call.
        let mine: Vec<(&CacheKey, Arc<Flight>)> = {
            let mut fl = self.in_flight.lock();
            // Re-check the answer store under the map lock (the same
            // idiom as `fetch_single`): a flight that completed after the
            // caller's miss-scan cached its answers *before* retiring, so
            // a key that is neither in flight nor cached is genuinely
            // ours to fetch — without this, two sessions racing the same
            // batch each pay the full set of model calls.
            let answers = self.answers.lock();
            needed
                .iter()
                .filter_map(|&ck| {
                    if fl.contains_key(ck) || answers.live(ck).is_some() {
                        return None;
                    }
                    let f = Arc::new(Flight::default());
                    fl.insert(ck.clone(), f.clone());
                    Some((ck, f))
                })
                .collect()
        };
        if mine.is_empty() {
            return;
        }
        let chunks: Vec<&[(&CacheKey, Arc<Flight>)]> =
            mine.chunks(self.config.batch_size.max(1)).collect();
        let prompts: Vec<String> = chunks
            .iter()
            .map(|chunk| {
                let keys = chunk.iter().map(|((_, key), _)| key.clone()).collect();
                self.prompt_for(question, keys).render()
            })
            .collect();
        let completions =
            parallel::complete_many(self.model.as_ref(), &prompts, self.config.workers);

        // Cache the answers and retire the flights, delivering each key's
        // answer (or `None` for keys a failed/short chunk left unanswered
        // — waiters retry). An answer is cached before its flight goes.
        let mut fl = self.in_flight.lock();
        let mut answers = self.answers.lock();
        for (chunk, completion) in chunks.iter().zip(completions) {
            // Failed chunks answer nothing; their rows retry (and degrade
            // if configured) through `fetch_single`.
            let text = completion.map(|c| c.text).unwrap_or_default();
            let mut lines = parse_udf_response(aligned_prefix(&text)).into_iter();
            for (ck, flight) in *chunk {
                let value = lines.next().map(|line| infer_value(&line));
                if let Some(value) = &value {
                    answers.insert((*ck).clone(), value.clone());
                    bump(&self.counters.prefetched_keys);
                }
                fl.remove(ck);
                flight.resolve(Ok(value));
            }
        }
    }
}

/// The leading part of a batch completion whose lines still line up with
/// the prompt's keys: everything before the first interior blank line.
fn aligned_prefix(text: &str) -> &str {
    let text = text.trim();
    let aligned = text.split_inclusive('\n').take_while(|line| !line.trim().is_empty());
    &text[..aligned.map(str::len).sum()]
}

/// The argument tuples of one batch that ask the same question and that
/// the answer store missed.
struct Misses<'a> {
    question: &'a str,
    /// The question's [`Shared::cache_scope_of`], derived once.
    scope: Arc<str>,
    /// (batch slot, store key) per tuple.
    rows: Vec<(usize, CacheKey)>,
}

/// The `llm_map` scalar function.
struct LlmMapUdf {
    shared: Arc<Shared>,
}

impl ScalarUdf for LlmMapUdf {
    fn name(&self) -> &str {
        "llm_map"
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        let Some((question, key)) = parse_args(args)? else {
            return Ok(Value::Null); // NULL keys have no LLM answer.
        };
        self.shared.fetch_single(question, &key)
    }

    /// Vectorized execution: called by the engine once per operator batch
    /// with the distinct argument tuples of a call site. Uncached keys are
    /// grouped by question, chunked per `UdfConfig::batch_size` and fanned
    /// out through the parallel worker pool; keys a short or failed batch
    /// response leaves unanswered are re-batched once, and what is still
    /// missing then falls back to single-key calls.
    fn invoke_batch(&self, rows: &[Vec<Value>]) -> Result<Vec<Value>> {
        let shared = &self.shared;
        let mut out: Vec<Option<Value>> = vec![None; rows.len()];
        // One group per question, in first-seen order.
        let mut groups: Vec<Misses> = Vec::new();
        for (row, args) in rows.iter().enumerate() {
            let Some((question, key)) = parse_args(args)? else {
                out[row] = Some(Value::Null);
                continue;
            };
            let group = match groups.iter().position(|g| g.question == question) {
                Some(g) => &mut groups[g],
                None => {
                    let scope = shared.cache_scope_of(question);
                    groups.push(Misses { question, scope, rows: Vec::new() });
                    groups.last_mut().expect("just pushed")
                }
            };
            let cache_key = (group.scope.clone(), key);
            match shared.cached(&cache_key) {
                Some(v) => {
                    bump(&shared.counters.cache_hits);
                    out[row] = Some(v);
                }
                None => group.rows.push((row, cache_key)),
            }
        }

        for group in &groups {
            let mut seen = HashSet::new();
            let mut needed: Vec<&CacheKey> =
                group.rows.iter().map(|(_, ck)| ck).filter(|ck| seen.insert(*ck)).collect();
            shared.fetch_batch(group.question, &needed);
            needed.retain(|ck| shared.cached(ck).is_none());
            shared.fetch_batch(group.question, &needed);
        }

        for group in &groups {
            for (row, cache_key) in &group.rows {
                out[*row] = Some(match shared.cached(cache_key) {
                    Some(v) => v,
                    None => shared.fetch_single(group.question, &cache_key.1)?,
                });
            }
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("every batch slot filled"))
            .collect())
    }

    fn is_expensive(&self) -> bool {
        true
    }
}

/// Validate an `llm_map` argument tuple: `Ok(None)` marks a NULL key
/// (whose answer is NULL without any model call).
fn parse_args(args: &[Value]) -> Result<Option<(&str, Vec<String>)>> {
    if args.len() < 2 {
        return Err(Error::Udf {
            name: "llm_map".into(),
            message: "usage: llm_map(question, key, ...)".into(),
        });
    }
    let question = args[0]
        .as_str()
        .ok_or_else(|| Error::Udf {
            name: "llm_map".into(),
            message: "first argument must be the question text".into(),
        })?;
    if args[1..].iter().any(Value::is_null) {
        return Ok(None);
    }
    let key: Vec<String> = args[1..].iter().map(Value::render).collect();
    Ok(Some((question, key)))
}

/// Runs the benchmark's UDF-form hybrid queries over one domain.
pub struct UdfRunner {
    db: Database,
    shared: Arc<Shared>,
}

impl UdfRunner {
    pub fn new(domain: &DomainData, model: Arc<dyn LanguageModel>, config: UdfConfig) -> Self {
        Self::build(domain, model, None, config)
    }

    /// Build a runner whose model calls go through a [`ResilientModel`]
    /// (retries, per-call timeouts, circuit breaker). The breaker's state
    /// shows up in [`UdfRunner::stats`].
    pub fn with_resilient(
        domain: &DomainData,
        model: Arc<ResilientModel>,
        config: UdfConfig,
    ) -> Self {
        Self::build(domain, model.clone(), Some(model), config)
    }

    fn build(
        domain: &DomainData,
        model: Arc<dyn LanguageModel>,
        resilient: Option<Arc<ResilientModel>>,
        config: UdfConfig,
    ) -> Self {
        let shared = Arc::new(Shared {
            meta: DomainMeta::build(domain, config.shots.max(5)),
            model,
            resilient,
            config,
            answers: Mutex::with_rank("udf_answers", lockrank::UDF_ANSWERS, AnswerStore::default()),
            counters: Counters::default(),
            in_flight: Mutex::with_rank("udf_flight", lockrank::UDF_FLIGHT, HashMap::new()),
        });
        let mut db = domain.curated.clone();
        db.register_udf(Arc::new(LlmMapUdf { shared: shared.clone() }));
        UdfRunner { db, shared }
    }

    /// Execute one UDF-form hybrid query (or any other statement — useful
    /// in the interactive shell).
    pub fn run_sql(&mut self, udf_sql: &str) -> Result<QueryResult> {
        if self.shared.config.cache == CacheScope::PerQuestion {
            self.shared.answers.lock().epoch += 1;
        }
        self.db.execute(udf_sql)
    }

    /// The curated database this runner queries (with `llm_map` registered).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Mutable access (e.g. to overlay HQDL-materialized tables).
    pub fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> UdfStats {
        let c = &self.shared.counters;
        UdfStats {
            prefetched_keys: c.prefetched_keys.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            exec_cache_hits: c.exec_cache_hits.load(Ordering::Relaxed),
            fallback_calls: c.fallback_calls.load(Ordering::Relaxed),
            degraded: c.degraded.load(Ordering::Relaxed),
            breaker: self.shared.resilient.as_ref().map(|r| r.breaker_state()),
        }
    }

    /// Number of distinct live cached answers.
    pub fn cached_answers(&self) -> usize {
        self.shared.answers.lock().live_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swan_data::{GenConfig, SwanBenchmark};
    use swan_llm::{ModelKind, SimulatedModel};

    fn runner(scale: f64, config: UdfConfig) -> (swan_data::DomainData, UdfRunner) {
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(scale), "superhero").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb));
        let r = UdfRunner::new(&d, model, config);
        (d, r)
    }

    #[test]
    fn runs_a_simple_udf_question() {
        let (d, mut r) = runner(0.05, UdfConfig::default());
        let q = &d.questions[0]; // publisher membership
        let result = r.run_sql(&q.udf_sql).expect("udf query runs");
        assert!(!result.columns.is_empty());
        let stats = r.stats();
        assert!(stats.prefetched_keys > 0, "keys were fetched in batch");
    }

    #[test]
    fn batching_reduces_model_calls() {
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "superhero").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let heroes = d.curated.catalog().get("superhero").unwrap().len() as u64;

        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb.clone()));
        let mut r = UdfRunner::new(
            &d,
            model.clone(),
            UdfConfig { batch_size: 5, ..Default::default() },
        );
        r.run_sql(&d.questions[0].udf_sql).unwrap();
        let batched_calls = model.usage().calls;
        assert!(batched_calls >= heroes / 5, "at least ceil(n/5) calls");
        assert!(
            batched_calls < heroes,
            "batching must reduce calls: {batched_calls} vs {heroes} heroes"
        );
    }

    #[test]
    fn exact_cache_reuses_identical_prompts_only() {
        let (d, mut r) = runner(0.05, UdfConfig::default());
        // Re-running the same question hits the cache for every hero...
        r.run_sql(&d.questions[0].udf_sql).unwrap();
        let after_first = r.stats();
        assert_eq!(after_first.cache_hits, 0);
        r.run_sql(&d.questions[0].udf_sql).unwrap();
        let after_rerun = r.stats();
        assert!(after_rerun.cache_hits > 0, "identical prompt text reuses");
        // ...but a different question about the same attribute (different
        // "[qNN]" tag, i.e. different prompt text) misses entirely —
        // BlendSQL's weakness from paper §5.5.
        let hits_before_q2 = after_rerun.cache_hits;
        r.run_sql(&d.questions[1].udf_sql).unwrap();
        assert_eq!(
            r.stats().cache_hits,
            hits_before_q2,
            "per-question prompts cannot share cache entries"
        );
    }

    #[test]
    fn per_question_scope_never_reuses() {
        let (d, mut r) = runner(
            0.05,
            UdfConfig { cache: CacheScope::PerQuestion, ..Default::default() },
        );
        r.run_sql(&d.questions[0].udf_sql).unwrap();
        r.run_sql(&d.questions[1].udf_sql).unwrap();
        assert_eq!(r.stats().cache_hits, 0);
    }

    #[test]
    fn pushdown_restricts_point_lookups() {
        // Formula 1 q01 is a point lookup (WHERE forename/surname =
        // constants): the cheap predicates run first, so only 1 key is
        // ever sent to the model.
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "formula_1").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb));
        let mut r = UdfRunner::new(&d, model, UdfConfig::default());
        r.run_sql(&d.questions[0].udf_sql).unwrap();
        assert_eq!(r.stats().prefetched_keys, 1, "pushdown narrows to one driver");
    }

    #[test]
    fn semantic_scope_shares_paraphrases() {
        // Two football questions use different height phrasings; the
        // semantic scope resolves both to `height`.
        let d =
            SwanBenchmark::generate_domain(&GenConfig::with_scale(0.02), "european_football").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb));
        let mut r = UdfRunner::new(
            &d,
            model,
            UdfConfig { cache: CacheScope::Semantic, ..Default::default() },
        );
        let players = d.curated.catalog().get("player").unwrap().len() as u64;
        // q01 asks MAX height with one phrasing.
        r.run_sql(&d.questions[0].udf_sql).unwrap();
        assert_eq!(r.stats().prefetched_keys, players);
        // A paraphrased sweep over the same attribute: all hits.
        let paraphrase = "SELECT T1.player_name FROM player T1 \
             WHERE llm_map('How tall is the player in centimeters?', T1.player_name) > 180";
        r.run_sql(paraphrase).unwrap();
        assert_eq!(r.stats().cache_hits, players, "paraphrase fully reused");
    }

    #[test]
    fn literal_key_is_batched_not_single_fetched() {
        let (_, mut r) = runner(0.05, UdfConfig::default());
        // llm_map over a literal key, no table in sight: the engine's
        // vectorized execution still answers it through one batched call
        // — no per-row fallback.
        let out = r
            .run_sql(
                "SELECT llm_map('Which publisher published the superhero?', 'Nobody', 'No One')",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        let stats = r.stats();
        assert_eq!(stats.fallback_calls, 0, "batched execution, not fetch_single");
        assert_eq!(stats.prefetched_keys, 1, "the one key came through a batch");
    }

    #[test]
    fn fallback_single_call_when_engine_batching_disabled() {
        let (_, mut r) = runner(0.05, UdfConfig::default());
        r.database_mut().set_optimizer(swan_sqlengine::OptimizerConfig {
            batch_expensive_udfs: false,
            ..Default::default()
        });
        // With the engine rule ablated, the old per-row fallback remains.
        let out = r
            .run_sql(
                "SELECT llm_map('Which publisher published the superhero?', 'Nobody', 'No One')",
            )
            .unwrap();
        assert_eq!(out.rows.len(), 1);
        assert_eq!(r.stats().fallback_calls, 1);
    }

    /// `llm_map` in a JOIN ON over a subquery source issues
    /// ceil(distinct_keys / batch_size) model calls: batching follows the
    /// operator's input, whatever the statement's shape.
    #[test]
    fn join_on_over_subquery_source_is_batched() {
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "superhero").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let model = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb));
        let mut r = UdfRunner::new(&d, model.clone(), UdfConfig::default());
        let heroes = d.curated.catalog().get("superhero").unwrap().len() as u64;

        r.run_sql(
            "SELECT COUNT(*) FROM (SELECT superhero_name, full_name FROM superhero) h \
             JOIN alignment a \
             ON llm_map('What is the moral alignment of the superhero?', \
                        h.superhero_name, h.full_name) = a.alignment",
        )
        .unwrap();
        let calls = model.usage().calls;
        assert_eq!(
            calls,
            heroes.div_ceil(5),
            "one batched call per 5 distinct keys, not one per row"
        );
        assert_eq!(r.stats().fallback_calls, 0);
    }

    /// Concurrent rows asking for the same uncached key must coalesce into
    /// one model call (single-flight), not one call each.
    #[test]
    fn concurrent_same_key_fallbacks_single_flight() {
        use swan_llm::UsageMeter;

        /// Adds latency so concurrent fallbacks genuinely overlap.
        struct SlowModel {
            inner: Arc<SimulatedModel>,
        }
        impl swan_llm::LanguageModel for SlowModel {
            fn name(&self) -> &str {
                "slow-sim"
            }
            fn complete(&self, prompt: &str) -> swan_llm::LlmResult<swan_llm::Completion> {
                std::thread::sleep(std::time::Duration::from_millis(30));
                self.inner.complete(prompt)
            }
            fn usage_meter(&self) -> &UsageMeter {
                self.inner.usage_meter()
            }
        }

        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.05), "superhero").unwrap();
        let kb = swan_data::build_knowledge(std::slice::from_ref(&d));
        let inner = Arc::new(SimulatedModel::new(ModelKind::Gpt4Turbo, kb));
        let mut r = UdfRunner::new(&d, Arc::new(SlowModel { inner: inner.clone() }), UdfConfig::default());
        // Per-row path (engine batching off) so every row goes through
        // `fetch_single`.
        r.database_mut().set_optimizer(swan_sqlengine::OptimizerConfig {
            batch_expensive_udfs: false,
            ..Default::default()
        });
        let db = r.database();
        let sql = "SELECT llm_map('Which publisher published the superhero?', 'Solo', 'Key')";
        let results: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| db.query(sql).unwrap().rows[0][0].render()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.windows(2).all(|w| w[0] == w[1]), "one answer for all rows");
        assert_eq!(inner.usage().calls, 1, "concurrent identical keys coalesced");
        assert_eq!(r.stats().fallback_calls, 1);
        assert_eq!(r.stats().exec_cache_hits, 3, "the three waiters hit the store");
    }

    /// Answers every key with `'v:<key>'`, one line per key, after passing
    /// the lines through `glitch` — the scripted stand-in for short and
    /// misaligned batch responses.
    struct KeyEcho {
        meter: swan_llm::UsageMeter,
        glitch: fn(&mut Vec<String>),
    }

    impl LanguageModel for KeyEcho {
        fn name(&self) -> &str {
            "key-echo"
        }
        fn complete(&self, prompt: &str) -> swan_llm::LlmResult<swan_llm::Completion> {
            let keys = UdfPrompt::parse(prompt)?.keys;
            let mut lines = keys.iter().map(|k| format!("'v:{}'", k.join("/"))).collect();
            (self.glitch)(&mut lines);
            let text = lines.join("\n");
            let tokens = swan_llm::TokenCount::of(prompt, &text);
            self.meter.record(tokens);
            Ok(swan_llm::Completion { text, tokens })
        }
        fn usage_meter(&self) -> &swan_llm::UsageMeter {
            &self.meter
        }
    }

    const KEY_ECHO_SQL: &str = "SELECT k, llm_map('scripted probe', k) FROM keys ORDER BY k";

    /// A runner over a `keys(k)` table of `n` rows answered by [`KeyEcho`].
    fn key_echo_runner(n: usize, glitch: fn(&mut Vec<String>)) -> (Arc<KeyEcho>, UdfRunner) {
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.01), "superhero").unwrap();
        let model = Arc::new(KeyEcho { meter: swan_llm::UsageMeter::new(), glitch });
        let mut r = UdfRunner::new(&d, model.clone(), UdfConfig::default());
        r.run_sql("CREATE TABLE keys (k TEXT PRIMARY KEY)").unwrap();
        for i in 0..n {
            r.run_sql(&format!("INSERT INTO keys VALUES ('k{i:02}')")).unwrap();
        }
        (model, r)
    }

    fn assert_every_key_holds_its_own_answer(out: &QueryResult) {
        for row in &out.rows {
            assert_eq!(row[1].render(), format!("v:{}", row[0].render()));
        }
    }

    /// Keys a short batch response leaves unanswered are re-batched once
    /// before the single-key fallback: 10 keys in two chunks of 5 lose 2
    /// lines, the re-batch of those 2 loses 1, the last key goes alone.
    #[test]
    fn short_responses_get_one_rebatch_round() {
        let (model, mut r) = key_echo_runner(10, |lines| {
            if lines.len() > 1 {
                lines.pop();
            }
        });
        let out = r.run_sql(KEY_ECHO_SQL).unwrap();
        assert_eq!(out.rows.len(), 10);
        assert_every_key_holds_its_own_answer(&out);
        assert_eq!(model.usage().calls, 4, "2 batched + 1 re-batched + 1 single");
        assert_eq!(r.stats().fallback_calls, 1);
    }

    /// Regression: a blank line inside a batch completion used to shift
    /// every later answer onto the wrong key, and cache it. Only the lines
    /// before the blank are accepted; the rest are fetched again.
    #[test]
    fn interior_blank_line_never_shifts_answers() {
        let (model, mut r) = key_echo_runner(3, |lines| {
            if lines.len() == 3 {
                lines[1].clear();
            }
        });
        let out = r.run_sql(KEY_ECHO_SQL).unwrap();
        assert_every_key_holds_its_own_answer(&out);
        assert_eq!(model.usage().calls, 2, "the batch, then k01 and k02 re-batched");
        assert_eq!(r.stats().prefetched_keys, 3, "k00 from the first batch, two from the second");
        assert_eq!(r.stats().fallback_calls, 0);
        // The cached entries are the right ones too.
        assert_every_key_holds_its_own_answer(&r.run_sql(KEY_ECHO_SQL).unwrap());
        assert_eq!(model.usage().calls, 2);
    }

    #[test]
    fn null_keys_yield_null() {
        let (_, mut r) = runner(0.05, UdfConfig::default());
        let out = r
            .run_sql("SELECT llm_map('Which publisher published the superhero?', NULL, 'x')")
            .unwrap();
        assert!(out.rows[0][0].is_null());
        assert_eq!(r.stats().fallback_calls, 0, "no model call for NULL keys");
    }
}
