//! The benchmark's wrapper around a `LanguageModel`: counts calls and
//! how many run at once, optionally sleeps like a network round trip,
//! records a span per call, and in the check round scores UDF answers
//! against ground truth or keeps the texts for replay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use swan::core::metrics::{set_f1, split_list};
use swan::llm::prompt::parse_udf_response;
use swan::llm::usage::UsageMeter;
use swan::llm::{
    AttrClass, Completion, KnowledgeBase, KnownValue, LanguageModel, LlmResult, StaticKnowledge,
    UdfPrompt,
};

use crate::trace::{self, Tracer};

/// Sum of per-cell F1 over UDF answers, scored like
/// `core::metrics::factuality` scores materialized cells: exact match
/// for single values, set-F1 for one-to-many.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnswerScore {
    pub f1_sum: f64,
    pub cells: u64,
}

impl AnswerScore {
    pub fn f1_pct(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            100.0 * self.f1_sum / self.cells as f64
        }
    }

    fn add(&mut self, kb: &StaticKnowledge, prompt: &str, completion: &str) {
        let Ok(p) = UdfPrompt::parse(prompt) else {
            return;
        };
        let Some(attr) = kb.resolve_question(&p.db, &p.question) else {
            return;
        };
        let multi = kb.attribute_class(&p.db, &attr) == AttrClass::MultiValue;
        let answers = parse_udf_response(completion);
        for (i, key) in p.keys.iter().enumerate() {
            let Some(truth) = kb.lookup(&p.db, key, &attr) else {
                continue;
            };
            let answer = answers.get(i).map(String::as_str).unwrap_or("");
            self.f1_sum += match &truth {
                KnownValue::One(v) if !multi => f64::from(answer == v),
                KnownValue::One(v) => set_f1(&split_list(answer), &split_list(v)),
                KnownValue::Many(vs) => set_f1(&split_list(answer), vs),
            };
            self.cells += 1;
        }
    }
}

/// What a [`Probe`] does besides counting.
#[derive(Default)]
pub struct ProbeOptions {
    /// Real sleep before each call reaches the model: the floor a network
    /// endpoint puts under every call.
    pub latency: Option<Duration>,
    pub tracer: Option<Arc<Tracer>>,
    /// Score UDF answers against this knowledge base.
    pub score: Option<Arc<StaticKnowledge>>,
    /// Keep every prompt and completion.
    pub record: bool,
}

pub struct Probe {
    inner: Arc<dyn LanguageModel>,
    opts: ProbeOptions,
    calls: AtomicU64,
    in_flight: AtomicU64,
    max_in_flight: AtomicU64,
    slept_ns: AtomicU64,
    score: Mutex<AnswerScore>,
    log: Mutex<Vec<(String, String)>>,
}

impl Probe {
    pub fn new(inner: Arc<dyn LanguageModel>, opts: ProbeOptions) -> Arc<Probe> {
        Arc::new(Probe {
            inner,
            opts,
            calls: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            max_in_flight: AtomicU64::new(0),
            slept_ns: AtomicU64::new(0),
            score: Mutex::new(AnswerScore::default()),
            log: Mutex::new(Vec::new()),
        })
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn max_in_flight(&self) -> u64 {
        self.max_in_flight.load(Ordering::Relaxed)
    }

    pub fn slept_s(&self) -> f64 {
        self.slept_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    pub fn score(&self) -> AnswerScore {
        *self
            .score
            .lock()
            .expect("score lock: a model call panicked")
    }

    pub fn take_log(&self) -> Vec<(String, String)> {
        std::mem::take(&mut *self.log.lock().expect("log lock: a model call panicked"))
    }
}

impl LanguageModel for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> LlmResult<Completion> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_in_flight.fetch_max(now, Ordering::Relaxed);
        let out = trace::leaf(self.opts.tracer.as_deref(), "llm.model.complete", || {
            if let Some(d) = self.opts.latency {
                let t = Instant::now();
                std::thread::sleep(d);
                self.slept_ns
                    .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            self.inner.complete(prompt)
        });
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        if let Ok(c) = &out {
            if let Some(kb) = &self.opts.score {
                self.score
                    .lock()
                    .expect("score lock: a model call panicked")
                    .add(kb, prompt, &c.text);
            }
            if self.opts.record {
                self.log
                    .lock()
                    .expect("log lock: a model call panicked")
                    .push((prompt.to_string(), c.text.clone()));
            }
        }
        out
    }

    fn usage_meter(&self) -> &UsageMeter {
        self.inner.usage_meter()
    }
}
