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
//!
//! # One store, one lock
//!
//! Answers and in-flight fetches live in one map behind one mutex
//! ([`Shared::store`]): question scope → key tuple → [`Entry`]. Everything
//! that decides who fetches a key happens in one critical section of it:
//!
//! * **Reserve.** A thread that wants to fetch a key re-checks, under the
//!   lock, that the key has neither a live answer nor a flight, and only
//!   then attaches its [`Flight`] — so a key that is neither answered nor
//!   in flight is genuinely its to fetch, and two sessions racing the same
//!   batch pay its model calls once.
//! * **Retire.** The fetching thread (and nobody else) publishes its
//!   answers and detaches its flight from every key it reserved *in the
//!   same critical section*, and resolves the flight after releasing the
//!   lock. Whoever finds a key without a flight therefore finds its answer
//!   too, if the round produced one. A [`Reservation`] guard does this on
//!   every exit, a panicking model call included.
//! * **Wait.** A thread that finds another's flight on its key waits on it
//!   outside the lock. A single-key leader hands its value — or its
//!   *error* — to every waiter directly (`Ok(Some(v))` / `Err(e)`), so a
//!   failed call is neither cached nor re-fetched by its waiters. A batch
//!   shares **one** flight among all the keys it reserved and resolves it
//!   `Ok(None)`, "the round is over": the waiter probes the store again,
//!   and if the round left its key unanswered it finds no flight there and
//!   fetches the key itself.
//!
//! The model is never called, and no flight is waited on, with the lock
//! held; a batch takes it once to scan its keys — reserving the misses in
//! the same pass — and once to retire.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard};
use swan_data::DomainData;
use swan_llm::knowledge::normalize_question;
use swan_llm::prompt::parse_udf_response;
use swan_llm::{parallel, BreakerState, LanguageModel, LlmError, ResilientModel, UdfExample, UdfPrompt};
use swan_pool::hash::{map_with_capacity, FxHashMap};
use swan_pool::lockrank;
use swan_sqlengine::{Database, Error, QueryResult, Result, ScalarUdf, ThinStr, Value};

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
    question_attr: FxHashMap<String, String>,
    value_lists: FxHashMap<String, Vec<String>>,
    examples: FxHashMap<String, Vec<UdfExample>>,
}

impl DomainMeta {
    fn build(domain: &DomainData, max_examples: usize) -> Self {
        let mut question_attr = FxHashMap::default();
        for p in &domain.phrases {
            question_attr.insert(normalize_question(&p.text), p.attribute.clone());
        }
        let mut value_lists = FxHashMap::default();
        for e in &domain.curation.expansions {
            for g in &e.generated {
                if let Some(vs) = &g.value_list {
                    value_lists.insert(g.name.clone(), vs.clone());
                }
            }
        }
        let mut examples: FxHashMap<String, Vec<UdfExample>> = FxHashMap::default();
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
}

/// The rendered key arguments of one `llm_map` call — a key's identity
/// within its question's scope. Text arguments share the engine's cell
/// allocation; only non-text arguments are rendered.
type KeyTuple = Box<[ThinStr]>;

/// One question as the store and the prompt see it, resolved once per
/// question per call instead of once per key or per chunk.
struct Asked<'a> {
    question: &'a str,
    /// What identifies the question in the store under the configured
    /// [`CacheScope`].
    scope: Arc<str>,
    value_list: Option<&'a [String]>,
    /// The first [`UdfConfig::shots`] demonstrations of its attribute.
    examples: &'a [UdfExample],
}

/// One in-flight model fetch. The thread that attached it to its keys
/// (see the module docs) publishes its outcome here once, after detaching
/// it; waiters receive that outcome. A detached flight is unreachable from
/// the store, so *later* calls for the same key start a fresh flight and
/// may retry.
#[derive(Default)]
struct Flight {
    /// `None` while the fetch is in flight. `Ok(Some(v))` = a single-key
    /// leader's value (fresh or degraded); `Ok(None)` = a batch round
    /// ended — the waiter probes the store again and fetches the key
    /// itself if the round left it unanswered; `Err(e)` = the leader's
    /// failure, propagated to every waiter.
    outcome: StdMutex<Option<Result<Option<Value>>>>,
    done: Condvar,
}

impl Flight {
    /// Publish the outcome and wake every waiter.
    fn resolve(&self, outcome: Result<Option<Value>>) {
        *self.outcome.lock().unwrap_or_else(|p| p.into_inner()) = Some(outcome);
        self.done.notify_all();
    }

    /// Wait for the outcome, honoring the calling statement's cancel
    /// token: a waiter whose deadline fires while parked returns
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

/// What the store holds for one key of one question scope. An entry with
/// neither field set is removed.
#[derive(Default)]
struct Entry {
    /// The model's last answer and the question epoch that wrote it. Only
    /// successful answers are ever stored.
    answer: Option<(u64, Value)>,
    /// The fetch that has reserved this key, while it runs. Concurrent
    /// rows asking for the key wait on it instead of issuing duplicate
    /// model calls (single-flight).
    flight: Option<Arc<Flight>>,
}

impl Entry {
    /// A cache hit: the answer, if the current epoch wrote it.
    fn live(&self, epoch: u64) -> Option<&Value> {
        self.answer.as_ref().filter(|(e, _)| *e == epoch).map(|(_, v)| v)
    }
}

/// Every answer the model has produced and every fetch in flight.
#[derive(Default)]
struct Store {
    /// Bumped by [`UdfRunner::run_sql`] under [`CacheScope::PerQuestion`];
    /// constant otherwise, so every entry stays live.
    epoch: u64,
    /// Question scope → key tuple → entry. The question is hashed once per
    /// question, a key by its tuple alone.
    scopes: FxHashMap<Arc<str>, FxHashMap<KeyTuple, Entry>>,
}

impl Store {
    fn live(&self, scope: &str, key: &[ThinStr]) -> Option<&Value> {
        self.scopes.get(scope)?.get(key)?.live(self.epoch)
    }

    /// The last answer for `key` from any epoch: the
    /// [`OnModelFailure::StaleCache`] degradation source.
    fn last_good(&self, scope: &str, key: &[ThinStr]) -> Option<&Value> {
        self.scopes.get(scope)?.get(key)?.answer.as_ref().map(|(_, v)| v)
    }

    /// The current epoch and the entries of `scope`, created if absent.
    fn scope_mut(&mut self, scope: &Arc<str>) -> (u64, &mut FxHashMap<KeyTuple, Entry>) {
        (self.epoch, self.scopes.entry(scope.clone()).or_default())
    }
}

/// Keys one thread has reserved under one [`Flight`], and the duty that
/// comes with them: publish what was fetched, detach the flight from every
/// key in the same critical section, then resolve it. [`retire`] does that
/// on the normal path; dropping the guard any other way — unwinding out of
/// a model call that panicked — detaches the keys and resolves the flight
/// with an error, so no waiter and no later statement parks behind a fetch
/// nobody is running.
///
/// [`retire`]: Reservation::retire
struct Reservation<'a> {
    shared: &'a Shared,
    scope: &'a Arc<str>,
    /// Emptied once settled.
    keys: Vec<&'a KeyTuple>,
    flight: Arc<Flight>,
}

impl Reservation<'_> {
    /// `answers` runs parallel to `keys`; `None` leaves a key unanswered.
    fn retire(mut self, answers: Vec<Option<Value>>, outcome: Result<Option<Value>>) {
        self.settle(answers, outcome);
    }

    fn settle(&mut self, answers: Vec<Option<Value>>, outcome: Result<Option<Value>>) {
        let keys = std::mem::take(&mut self.keys);
        if keys.is_empty() {
            return;
        }
        {
            let mut store = self.shared.store();
            let (epoch, entries) = store.scope_mut(self.scope);
            let mut answers = answers.into_iter();
            for key in keys {
                let answer = answers.next().flatten();
                let Some(entry) = entries.get_mut(key) else { continue };
                entry.flight = None;
                match answer {
                    Some(value) => entry.answer = Some((epoch, value)),
                    None if entry.answer.is_none() => {
                        entries.remove(key);
                    }
                    None => {}
                }
            }
        }
        self.flight.resolve(outcome);
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.settle(
            Vec::new(),
            Err(Error::Udf {
                name: "llm_map".into(),
                message: "the model call fetching this key panicked".into(),
            }),
        );
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
    /// Work counts the unit tests pin: store-lock acquisitions, key
    /// probes (lookups that decide a key's hit, wait or fetch; publishing
    /// a fetched answer is not one) and prompt heads rendered.
    #[cfg(test)]
    store_locks: AtomicU64,
    #[cfg(test)]
    probes: AtomicU64,
    #[cfg(test)]
    heads_rendered: AtomicU64,
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
    /// Answers and flights, under the pathway's only lock (see the module
    /// docs for the protocol). Taken through [`Shared::store`]; never held
    /// across a model call or a [`Flight::wait`].
    store: Mutex<Store>,
    counters: Counters,
}

impl Shared {
    fn store(&self) -> MutexGuard<'_, Store> {
        #[cfg(test)]
        bump(&self.counters.store_locks);
        self.store.lock()
    }

    /// Count one key probe.
    #[inline]
    fn probed(&self) {
        #[cfg(test)]
        bump(&self.counters.probes);
    }

    /// Resolve `question` to its store scope and its prompt material.
    fn ask<'a>(&'a self, question: &'a str) -> Asked<'a> {
        let normalized = normalize_question(question);
        let attr = self.meta.question_attr.get(&normalized);
        let scope = match self.config.cache {
            CacheScope::Semantic => attr.cloned().unwrap_or(normalized),
            // Prompt-text identity (BlendSQL): the "[qNN]" tag marking
            // which question produced the prompt stays in the key, so
            // per-question phrasings never share entries (§5.5).
            _ => question.trim().to_ascii_lowercase(),
        };
        let pool = attr.and_then(|a| self.meta.examples.get(a)).map_or(&[][..], Vec::as_slice);
        Asked {
            question,
            scope: scope.into(),
            value_list: attr.and_then(|a| self.meta.value_lists.get(a)).map(Vec::as_slice),
            examples: &pool[..pool.len().min(self.config.shots)],
        }
    }

    /// The prompt text every chunk of `asked`'s keys starts with.
    fn render_head(&self, asked: &Asked<'_>) -> String {
        #[cfg(test)]
        bump(&self.counters.heads_rendered);
        UdfPrompt::render_head(&self.meta.db, asked.question, asked.value_list, asked.examples)
    }

    /// Answer-store lookup under the configured scope.
    fn cached(&self, scope: &str, key: &[ThinStr]) -> Option<Value> {
        self.probed();
        self.store().live(scope, key).cloned()
    }

    /// Single-key fallback call (cache miss during execution),
    /// single-flighted: concurrent rows asking for the same key wait for
    /// the one in-flight model call instead of each paying their own, and
    /// receive the leader's outcome — error included.
    fn fetch_single(&self, asked: &Asked<'_>, key: &KeyTuple) -> Result<Value> {
        loop {
            // Hit, join the flight on the key, or reserve it — decided in
            // one critical section.
            let (flight, lead) = {
                let mut store = self.store();
                let (epoch, entries) = store.scope_mut(&asked.scope);
                self.probed();
                let entry = match entries.get_mut(key) {
                    Some(entry) => entry,
                    None => entries.entry(key.clone()).or_default(),
                };
                if let Some(v) = entry.live(epoch) {
                    bump(&self.counters.exec_cache_hits);
                    return Ok(v.clone());
                }
                let lead = entry.flight.is_none();
                (entry.flight.get_or_insert_with(Arc::default).clone(), lead)
            };
            if lead {
                // Perform the call, cache a success, and hand the outcome
                // to any waiters; the flight is detached either way, so
                // later calls retry rather than inherit a stale error.
                let reservation =
                    Reservation { shared: self, scope: &asked.scope, keys: vec![key], flight };
                let mut prompt = self.render_head(asked);
                UdfPrompt::push_keys(&mut prompt, [key]);
                bump(&self.counters.fallback_calls);
                return match self.model.complete(&prompt) {
                    Ok(completion) => {
                        let answer = parse_udf_response(&completion.text)
                            .into_iter()
                            .next()
                            .unwrap_or_default();
                        let value = infer_value(&answer);
                        reservation.retire(vec![Some(value.clone())], Ok(Some(value.clone())));
                        Ok(value)
                    }
                    Err(e) => {
                        let degraded = self.degrade(asked, key, e);
                        reservation.retire(vec![None], degraded.clone().map(Some));
                        degraded
                    }
                };
            }
            match flight.wait()? {
                Some(v) => {
                    bump(&self.counters.exec_cache_hits);
                    return Ok(v);
                }
                // A batch round ended: its answer is in the store by now,
                // or the round left the key to us.
                None => continue,
            }
        }
    }

    /// Apply [`UdfConfig::on_model_failure`] to a model call that still
    /// failed after the resilience layer's retries. A statement-deadline
    /// failure always aborts the statement — degrading it would silently
    /// turn "too slow" into wrong answers.
    fn degrade(&self, asked: &Asked<'_>, key: &KeyTuple, e: LlmError) -> Result<Value> {
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
                Ok(self.store().last_good(&asked.scope, key).cloned().unwrap_or(Value::Null))
            }
        }
    }

    /// The re-batch round: reserve the still-unanswered keys of `misses`
    /// (batch slot, key) and [`fetch`](Self::fetch) them.
    ///
    /// A key that has been answered since the caller's scan fills its slot
    /// without a call; a key another thread is already fetching (per-row
    /// or in its own batch) is left out of this round — its row falls back
    /// to `fetch_single`, which waits on that flight instead of paying a
    /// duplicate call.
    fn fetch_batch(
        &self,
        asked: &Asked<'_>,
        misses: &[(usize, KeyTuple)],
        out: &mut [Option<Value>],
    ) {
        if misses.iter().all(|(slot, _)| out[*slot].is_some()) {
            return;
        }
        let flight = Arc::new(Flight::default());
        let mut slots = Vec::new();
        let mut keys = Vec::new();
        {
            let mut store = self.store();
            let (epoch, entries) = store.scope_mut(&asked.scope);
            for (slot, key) in misses {
                if out[*slot].is_some() {
                    continue;
                }
                self.probed();
                let entry = entries.entry(key.clone()).or_default();
                if let Some(v) = entry.live(epoch) {
                    out[*slot] = Some(v.clone());
                } else if entry.flight.is_none() {
                    entry.flight = Some(flight.clone());
                    slots.push(*slot);
                    keys.push(key);
                }
            }
        }
        if keys.is_empty() {
            return;
        }
        let reservation = Reservation { shared: self, scope: &asked.scope, keys, flight };
        self.fetch(asked, reservation, slots, out);
    }

    /// One model round for the keys `reservation` holds (batch slots
    /// `slots`, in order): chunk them per `batch_size`, fan the prompts out
    /// through the parallel worker pool, and write each answer to its slot
    /// of `out` and to the store.
    ///
    /// A response can be short (batch glitches, §5.4): answers are matched
    /// to keys by position, so only the lines before the completion's
    /// first interior blank line are accepted — past a dropped line no
    /// position can be trusted. Keys left unanswered (and the keys of
    /// failed chunks) are simply not cached; [`LlmMapUdf::invoke_batch`]
    /// hands them to one more round and then falls back to single-key
    /// calls.
    fn fetch(
        &self,
        asked: &Asked<'_>,
        reservation: Reservation<'_>,
        slots: Vec<usize>,
        out: &mut [Option<Value>],
    ) {
        let head = self.render_head(asked);
        let batch_size = self.config.batch_size.max(1);
        let chunks: Vec<&[&KeyTuple]> = reservation.keys.chunks(batch_size).collect();
        let completions =
            parallel::complete_many(self.model.as_ref(), chunks.len(), self.config.workers, |i| {
                let mut prompt = String::with_capacity(head.len() + 32 * chunks[i].len());
                prompt.push_str(&head);
                UdfPrompt::push_keys(&mut prompt, chunks[i]);
                prompt
            });

        let mut answers: Vec<Option<Value>> = Vec::with_capacity(slots.len());
        for (chunk, completion) in chunks.iter().zip(completions) {
            // Failed chunks answer nothing; their rows retry (and degrade
            // if configured) through `fetch_single`.
            let text = completion.map(|c| c.text).unwrap_or_default();
            let mut lines = parse_udf_response(aligned_prefix(&text)).into_iter();
            answers.extend(chunk.iter().map(|_| lines.next().map(|line| infer_value(&line))));
        }
        let mut answered = 0;
        for (slot, answer) in slots.into_iter().zip(&answers) {
            if answer.is_some() {
                out[slot] = answer.clone();
                answered += 1;
            }
        }
        self.counters.prefetched_keys.fetch_add(answered, Ordering::Relaxed);
        // Waiters probe the store again (`Ok(None)`): its answers are
        // published before the flight is resolved.
        reservation.retire(answers, Ok(None));
    }
}

/// The leading part of a batch completion whose lines still line up with
/// the prompt's keys: everything before the first interior blank line.
fn aligned_prefix(text: &str) -> &str {
    let text = text.trim();
    let aligned = text.split_inclusive('\n').take_while(|line| !line.trim().is_empty());
    &text[..aligned.map(str::len).sum()]
}

/// The argument tuples of one batch that ask the same question.
struct Group<'a> {
    asked: Asked<'a>,
    /// (batch slot, key) per tuple; after the scan, the tuples the store
    /// missed.
    rows: Vec<(usize, KeyTuple)>,
    /// The misses the scan reserved for this batch's first round (indices
    /// into `rows`), and the flight they share.
    reserved: Vec<usize>,
    flight: Arc<Flight>,
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
        self.shared.fetch_single(&self.shared.ask(question), &key)
    }

    /// Vectorized execution: called by the engine once per operator batch
    /// with the distinct argument tuples of a call site. Uncached keys are
    /// grouped by question, chunked per `UdfConfig::batch_size` and fanned
    /// out through the parallel worker pool; keys a short or failed batch
    /// response leaves unanswered are re-batched once, and what is still
    /// missing then falls back to single-key calls.
    ///
    /// A tuple costs one key render, one compare of its question against
    /// the batch's distinct questions (text equality, which stops at a
    /// length mismatch), and one store probe; each distinct question is
    /// resolved once per batch. Three passes, none of which takes the store lock
    /// per key: scan (one acquisition: hits out, the other misses reserved
    /// for the first round), fetch (per question one acquisition to
    /// retire; again to reserve and retire when the first round left keys
    /// unanswered), and the per-key fallback for what neither round
    /// answered.
    fn invoke_batch(&self, rows: &[Vec<Value>]) -> Result<Vec<Value>> {
        let shared = &self.shared;
        let mut out: Vec<Option<Value>> = vec![None; rows.len()];
        // One group per question, in first-seen order.
        let mut groups: Vec<Group> = Vec::new();
        for (slot, args) in rows.iter().enumerate() {
            let Some((question, key)) = parse_args(args)? else {
                out[slot] = Some(Value::Null);
                continue;
            };
            let group = match groups.iter().position(|g| g.asked.question == question) {
                Some(g) => &mut groups[g],
                None => {
                    groups.push(Group {
                        asked: shared.ask(question),
                        rows: Vec::new(),
                        reserved: Vec::new(),
                        flight: Arc::default(),
                    });
                    groups.last_mut().expect("just pushed")
                }
            };
            group.rows.push((slot, key));
        }

        {
            let mut store = shared.store();
            let epoch = store.epoch;
            let mut hits = 0;
            for group in &mut groups {
                // A scope's map is sized for its first batch; a map that
                // exists already holds most keys a later batch asks for.
                let entries = store
                    .scopes
                    .entry(group.asked.scope.clone())
                    .or_insert_with(|| map_with_capacity(group.rows.len()));
                let mut misses = Vec::with_capacity(group.rows.len());
                for (slot, key) in group.rows.drain(..) {
                    shared.probed();
                    let flight = match entries.get_mut(&key) {
                        Some(entry) => {
                            if let Some(v) = entry.live(epoch) {
                                out[slot] = Some(v.clone());
                                hits += 1;
                                continue;
                            }
                            // In flight elsewhere: the fallback waits on it.
                            &mut entry.flight
                        }
                        None => &mut entries.entry(key.clone()).or_default().flight,
                    };
                    if flight.is_none() {
                        *flight = Some(group.flight.clone());
                        group.reserved.push(misses.len());
                    }
                    misses.push((slot, key));
                }
                group.rows = misses;
            }
            shared.counters.cache_hits.fetch_add(hits, Ordering::Relaxed);
        }

        // Every group's reservation is guarded before any model call, so a
        // panicking call strands none of them.
        let mut reservations: Vec<_> = groups
            .iter()
            .map(|g| {
                let keys = g.reserved.iter().map(|&i| &g.rows[i].1).collect();
                let slots = g.reserved.iter().map(|&i| g.rows[i].0).collect();
                let flight = g.flight.clone();
                (Reservation { shared, scope: &g.asked.scope, keys, flight }, slots)
            })
            .collect();
        for (group, (reservation, slots)) in groups.iter().zip(reservations.drain(..)) {
            if !reservation.keys.is_empty() {
                shared.fetch(&group.asked, reservation, slots, &mut out);
            }
            shared.fetch_batch(&group.asked, &group.rows, &mut out);
        }

        for group in &groups {
            for (slot, key) in &group.rows {
                if out[*slot].is_none() {
                    out[*slot] = Some(match shared.cached(&group.asked.scope, key) {
                        Some(v) => v,
                        None => shared.fetch_single(&group.asked, key)?,
                    });
                }
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
fn parse_args(args: &[Value]) -> Result<Option<(&str, KeyTuple)>> {
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
    // The store's identity is the *rendered* tuple: `1` and `'1'` read the
    // same in a prompt, so they share an entry.
    let key = args[1..]
        .iter()
        .map(|arg| match arg {
            Value::Text(text) => text.clone(),
            other => other.render().into(),
        })
        .collect();
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
            store: Mutex::with_rank("udf_store", lockrank::UDF_STORE, Store::default()),
            counters: Counters::default(),
        });
        let mut db = domain.curated.clone();
        db.register_udf(Arc::new(LlmMapUdf { shared: shared.clone() }));
        UdfRunner { db, shared }
    }

    /// Execute one UDF-form hybrid query (or any other statement — useful
    /// in the interactive shell).
    pub fn run_sql(&mut self, udf_sql: &str) -> Result<QueryResult> {
        if self.shared.config.cache == CacheScope::PerQuestion {
            self.shared.store().epoch += 1;
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
        let store = self.shared.store();
        store
            .scopes
            .values()
            .flat_map(FxHashMap::values)
            .filter(|entry| entry.live(store.epoch).is_some())
            .count()
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
        /// Key lines over every prompt so far.
        key_lines: AtomicU64,
    }

    impl LanguageModel for KeyEcho {
        fn name(&self) -> &str {
            "key-echo"
        }
        fn complete(&self, prompt: &str) -> swan_llm::LlmResult<swan_llm::Completion> {
            let keys = UdfPrompt::parse(prompt)?.keys;
            self.key_lines.fetch_add(keys.len() as u64, Ordering::Relaxed);
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
        let model = Arc::new(KeyEcho {
            meter: swan_llm::UsageMeter::new(),
            glitch,
            key_lines: AtomicU64::new(0),
        });
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

    const PROBE: &str = "scripted probe";

    fn llm_map(r: &UdfRunner) -> Arc<dyn ScalarUdf> {
        r.database().udfs().get("llm_map").expect("registered").clone()
    }

    fn probe_args(key: impl Into<Value>) -> Vec<Value> {
        vec![Value::text(PROBE), key.into()]
    }

    fn work(r: &UdfRunner) -> (u64, u64) {
        let c = &r.shared.counters;
        (c.store_locks.load(Ordering::Relaxed), c.heads_rendered.load(Ordering::Relaxed))
    }

    /// The pathway's work, counted instead of timed: a batch takes the
    /// store lock a constant number of times — not once per key per pass —
    /// and renders a question's prompt head once for all its chunks.
    /// (This drives `invoke_batch` directly, so it pins the runner alone.)
    #[test]
    fn a_batch_takes_the_lock_and_renders_the_head_a_constant_number_of_times() {
        let (model, r) = key_echo_runner(0, |_| {});
        let udf = llm_map(&r);
        let rows: Vec<Vec<Value>> = (0..1_000).map(|i| probe_args(format!("k{i:04}"))).collect();

        let (locks, heads) = work(&r);
        let cold = udf.invoke_batch(&rows).unwrap();
        let (cold_locks, cold_heads) = work(&r);
        assert_eq!(model.usage().calls, 200, "1,000 keys in chunks of 5");
        assert_eq!(cold_heads - heads, 1, "one head for the question's 200 chunks");
        assert_eq!(cold_locks - locks, 2, "a cold batch scans and reserves, then retires");
        assert_eq!(cold[7].render(), "v:k0007");

        let warm = udf.invoke_batch(&rows).unwrap();
        let (warm_locks, warm_heads) = work(&r);
        assert_eq!(warm, cold);
        assert_eq!(model.usage().calls, 200, "every answer came from the store");
        assert_eq!(warm_heads, cold_heads, "a warm batch renders no prompt");
        assert_eq!(warm_locks - cold_locks, 1, "a warm batch only scans");
        let stats = r.stats();
        assert_eq!((stats.prefetched_keys, stats.cache_hits), (1_000, 1_000));
        assert_eq!((stats.exec_cache_hits, stats.fallback_calls), (0, 0));
    }

    /// A tuple costs one store probe, cold or warm. Over a statement that
    /// holds every key twice, the engine hands the runner each distinct
    /// tuple once; the scan probes it once — and reserves it on the same
    /// probe when it misses — and the engine's per-row pass probes nothing.
    #[test]
    fn a_statement_probes_the_store_once_per_distinct_tuple() {
        let (model, mut r) = key_echo_runner(20, |_| {});
        let sql = "SELECT a.k, llm_map('scripted probe', a.k) \
                   FROM keys a, (SELECT 1 AS n UNION ALL SELECT 2) b";
        let probes = |r: &UdfRunner| r.shared.counters.probes.load(Ordering::Relaxed);
        let before = probes(&r);
        assert_eq!(r.run_sql(sql).unwrap().rows.len(), 40);
        assert_eq!(probes(&r) - before, 20, "cold: one probe per distinct tuple");
        assert_eq!(model.usage().calls, 4, "20 keys in chunks of 5");
        let cold = probes(&r);
        assert_eq!(r.run_sql(sql).unwrap().rows.len(), 40);
        assert_eq!(probes(&r) - cold, 20, "warm: one probe per distinct tuple");
        assert_eq!(model.usage().calls, 4, "every warm answer came from the store");
        assert_eq!(r.stats().cache_hits, 20);
    }

    /// Store identity is the rendered tuple: `1` and `'1'` read the same
    /// in a prompt, so they are one entry and one key line.
    #[test]
    fn arguments_that_render_alike_share_an_entry_and_a_model_line() {
        let (model, r) = key_echo_runner(0, |_| {});
        let out = llm_map(&r).invoke_batch(&[probe_args(1i64), probe_args("1")]).unwrap();
        assert_eq!(out[0].render(), "v:1");
        assert_eq!(out[0], out[1]);
        assert_eq!(model.usage().calls, 1);
        assert_eq!(model.key_lines.load(Ordering::Relaxed), 1, "one line for both tuples");
        assert_eq!(r.cached_answers(), 1);
        assert_eq!(r.stats().fallback_calls, 0);
    }

    /// Two sessions racing the same 40-key batch pay its 8 calls once:
    /// whichever reserves a key second finds it in flight or answered.
    #[test]
    fn sessions_racing_one_batch_pay_its_calls_once() {
        let (model, r) = key_echo_runner(0, |_| {});
        let udf = llm_map(&r);
        let rows: Vec<Vec<Value>> = (0..40).map(|i| probe_args(format!("k{i:02}"))).collect();
        let start = std::sync::Barrier::new(2);
        let outs: Vec<Vec<Value>> = std::thread::scope(|s| {
            let race = || {
                start.wait();
                udf.invoke_batch(&rows).unwrap()
            };
            let handles = [s.spawn(race), s.spawn(race)];
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(outs[0], outs[1]);
        assert_eq!(outs[0][39].render(), "v:k39");
        assert_eq!(model.usage().calls, 8, "8 calls, not 16");
        assert_eq!(r.cached_answers(), 40);
    }

    /// A model whose scripted calls stop at a gate before they return: a
    /// test holds a flight open until another thread has joined it.
    struct Gated {
        inner: KeyEcho,
        calls: AtomicU64,
        /// What the gated calls (by index) do once released.
        gated: fn(u64) -> Option<GateAction>,
        entered: std::sync::Barrier,
        release: std::sync::Barrier,
    }

    enum GateAction {
        Answer,
        Panic,
    }

    impl Gated {
        fn new(glitch: fn(&mut Vec<String>), gated: fn(u64) -> Option<GateAction>) -> Arc<Self> {
            Arc::new(Gated {
                inner: KeyEcho {
                    meter: swan_llm::UsageMeter::new(),
                    glitch,
                    key_lines: AtomicU64::new(0),
                },
                calls: AtomicU64::new(0),
                gated,
                entered: std::sync::Barrier::new(2),
                release: std::sync::Barrier::new(2),
            })
        }
    }

    impl LanguageModel for Gated {
        fn name(&self) -> &str {
            "gated"
        }
        fn complete(&self, prompt: &str) -> swan_llm::LlmResult<swan_llm::Completion> {
            let action = (self.gated)(self.calls.fetch_add(1, Ordering::SeqCst));
            if action.is_some() {
                self.entered.wait();
                self.release.wait();
            }
            match action {
                Some(GateAction::Panic) => panic!("scripted model panic"),
                _ => self.inner.complete(prompt),
            }
        }
        fn usage_meter(&self) -> &swan_llm::UsageMeter {
            self.inner.usage_meter()
        }
    }

    fn gated_runner(model: &Arc<Gated>) -> UdfRunner {
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.01), "superhero").unwrap();
        UdfRunner::new(&d, model.clone(), UdfConfig::default())
    }

    /// Spin until a second thread holds the flight reserved on `key`
    /// (store entry + reservation + the joiner): from then on that thread
    /// receives the flight's outcome whenever it is resolved.
    fn wait_for_a_joiner(r: &UdfRunner, key: &str) {
        let scope = r.shared.ask(PROBE).scope;
        let key: KeyTuple = Box::new([key.into()]);
        loop {
            let store = r.shared.store.lock();
            let flight = store.scopes.get(&scope).and_then(|e| e.get(&key)).and_then(|e| e.flight.as_ref());
            if flight.is_some_and(|f| Arc::strong_count(f) >= 3) {
                return;
            }
            drop(store);
            std::thread::yield_now();
        }
    }

    fn panics_first(call: u64) -> Option<GateAction> {
        (call == 0).then_some(GateAction::Panic)
    }

    /// Regression: a model call that panicked used to unwind past its
    /// flights without retiring them — the next statement asking for the
    /// key made no model call and parked behind the dead flight until its
    /// deadline (forever without one). On one runner, single-key and
    /// batched: the panic reaches the caller, nothing is cached from the
    /// failed round, and the next statement calls the model and succeeds.
    #[test]
    fn a_panicking_model_call_strands_no_key_on_its_runner() {
        for batch_expensive_udfs in [false, true] {
            let model = Gated::new(|_| {}, panics_first);
            let mut r = gated_runner(&model);
            r.database_mut().set_optimizer(swan_sqlengine::OptimizerConfig {
                batch_expensive_udfs,
                ..Default::default()
            });
            // A regression fails instead of hanging.
            r.database_mut().set_statement_timeout(Some(Duration::from_millis(500)));
            let sql = "SELECT llm_map('scripted probe', 'k1')";
            std::thread::scope(|s| {
                let failed = s.spawn(|| r.database().query(sql));
                model.entered.wait();
                model.release.wait();
                assert!(failed.join().is_err(), "the panic reaches its caller");
            });
            assert_eq!(r.cached_answers(), 0, "nothing cached from the failed round");
            let emptied = r.shared.store.lock().scopes.values().all(FxHashMap::is_empty);
            assert!(emptied, "no entry left");
            let out = r.run_sql(sql).expect("the next statement fetches the key itself");
            assert_eq!(out.rows[0][0].render(), "v:k1");
            assert_eq!(model.calls.load(Ordering::SeqCst), 2);
        }
    }

    /// The same across two `SharedDb` sessions, with the second session
    /// already parked on the flight when the call panics. Per row, the
    /// waiter's statement fails with an error naming the panic; batched,
    /// the engine's fallback retries the key and the waiter's statement
    /// succeeds. Either way nobody parks forever and the next statement is
    /// served.
    #[test]
    fn a_panicking_model_call_releases_the_sessions_parked_on_it() {
        for batch_expensive_udfs in [false, true] {
            let model = Gated::new(|_| {}, panics_first);
            let mut r = gated_runner(&model);
            r.database_mut().set_optimizer(swan_sqlengine::OptimizerConfig {
                batch_expensive_udfs,
                ..Default::default()
            });
            let shared = swan_sqlengine::SharedDb::from_database(r.database().clone());
            let sql = "SELECT llm_map('scripted probe', 'k1')";
            let waiter = std::thread::scope(|s| {
                let leader = s.spawn(|| shared.query(sql));
                model.entered.wait();
                let waiter = s.spawn(|| shared.query(sql));
                wait_for_a_joiner(&r, "k1");
                model.release.wait();
                assert!(leader.join().is_err(), "the panic reaches its caller");
                waiter.join().expect("the waiter does not panic")
            });
            if batch_expensive_udfs {
                assert_eq!(waiter.unwrap().rows[0][0].render(), "v:k1");
                assert_eq!(model.calls.load(Ordering::SeqCst), 2, "the waiter refetched the key");
            } else {
                let err = waiter.expect_err("the leader's failure reaches the waiter");
                assert!(err.to_string().contains("panicked"), "{err}");
                assert_eq!(r.cached_answers(), 0, "nothing cached from the failed round");
            }
            assert_eq!(shared.query(sql).unwrap().rows[0][0].render(), "v:k1");
            assert_eq!(model.calls.load(Ordering::SeqCst), 2);
        }
    }

    /// A row waiting on a batch's shared flight for a key the short
    /// response left unanswered is told "the round is over", finds the key
    /// neither answered nor in flight (or reserved again by the re-batch
    /// round) and ends with the key's own answer.
    #[test]
    fn a_waiter_on_a_batch_flight_gets_an_unanswered_key_fetched() {
        let drop_last = |lines: &mut Vec<String>| {
            if lines.len() > 1 {
                lines.pop();
            }
        };
        let model = Gated::new(drop_last, |call| (call == 0).then_some(GateAction::Answer));
        let r = gated_runner(&model);
        let udf = llm_map(&r);
        let (batch, row) = std::thread::scope(|s| {
            let batch = s.spawn(|| udf.invoke_batch(&[probe_args("k0"), probe_args("k1")]));
            model.entered.wait();
            let row = s.spawn(|| udf.invoke(&probe_args("k1")));
            wait_for_a_joiner(&r, "k1");
            model.release.wait();
            (batch.join().unwrap().unwrap(), row.join().unwrap().unwrap())
        });
        assert_eq!(row.render(), "v:k1");
        assert_eq!(batch.iter().map(Value::render).collect::<Vec<_>>(), ["v:k0", "v:k1"]);
        assert_eq!(model.calls.load(Ordering::SeqCst), 2, "the short batch, then k1 once");
        assert_eq!(r.cached_answers(), 2);
    }

    /// `PerQuestion` starts a new epoch per statement instead of clearing:
    /// the previous epoch's answer is no hit (`live` misses it, the model
    /// is asked again) yet still what `StaleCache` degrades to.
    #[test]
    fn a_stale_answer_is_kept_for_degradation_and_missed_by_lookups() {
        struct FailsOnDemand {
            inner: KeyEcho,
            fail: std::sync::atomic::AtomicBool,
        }
        impl LanguageModel for FailsOnDemand {
            fn name(&self) -> &str {
                "fails-on-demand"
            }
            fn complete(&self, prompt: &str) -> swan_llm::LlmResult<swan_llm::Completion> {
                if self.fail.load(Ordering::SeqCst) {
                    self.inner.meter.record(swan_llm::TokenCount::of(prompt, ""));
                    return Err(LlmError::Backend("scripted outage".into()));
                }
                self.inner.complete(prompt)
            }
            fn usage_meter(&self) -> &swan_llm::UsageMeter {
                self.inner.usage_meter()
            }
        }
        let d = SwanBenchmark::generate_domain(&GenConfig::with_scale(0.01), "superhero").unwrap();
        let model = Arc::new(FailsOnDemand {
            inner: KeyEcho {
                meter: swan_llm::UsageMeter::new(),
                glitch: |_| {},
                key_lines: AtomicU64::new(0),
            },
            fail: false.into(),
        });
        let config = UdfConfig {
            cache: CacheScope::PerQuestion,
            on_model_failure: OnModelFailure::StaleCache,
            ..Default::default()
        };
        let mut r = UdfRunner::new(&d, model.clone(), config);
        let sql = "SELECT llm_map('scripted probe', 'k1')";
        assert_eq!(r.run_sql(sql).unwrap().rows[0][0].render(), "v:k1");
        assert_eq!(r.cached_answers(), 1);

        model.fail.store(true, Ordering::SeqCst);
        let calls = model.usage().calls;
        assert_eq!(r.run_sql(sql).unwrap().rows[0][0].render(), "v:k1", "served stale");
        assert!(model.usage().calls > calls, "the new epoch missed the old answer");
        assert_eq!(r.cached_answers(), 0, "no live answer in the new epoch");
        let stats = r.stats();
        assert_eq!((stats.cache_hits, stats.degraded), (0, 1));
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
