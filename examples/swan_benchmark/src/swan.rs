//! The three workloads that answer the 120 SWAN questions with a model:
//! `hqdl_swan` (schema expansion), `udf_swan` (`llm_map` UDFs) and
//! `latency_bound` (both, behind a model that really waits).
//!
//! A round starts from a fresh model and fresh runners — cold caches,
//! what a user pays — so every round of one run does identical work and
//! its counts, tokens and answers must repeat exactly.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use swan::core::experiment::GoldSet;
use swan::core::hqdl::{materialize, HqdlConfig};
use swan::core::metrics::{execution_match, factuality, sql_is_ordered};
use swan::core::udf::{UdfConfig, UdfRunner};
use swan::data::{build_knowledge, DomainData, GenConfig, Question, SwanBenchmark};
use swan::llm::prompt::{parse_row, parse_udf_response, row_values};
use swan::llm::{
    count_tokens, LanguageModel, ModelKind, NoiseModel, ResilienceStats, ResilientModel,
    RowCompletionPrompt, SimulatedModel, StaticKnowledge, UdfPrompt, UsageReport,
};
use swan::sqlengine::QueryResult;

use crate::metrics::Report;
use crate::probe::{Probe, ProbeOptions};
use crate::stats::{median, Fnv};
use crate::trace::{self, Layers, Tracer};
use crate::{host, measure, sqlx, Config, Rounds};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hqdl,
    Udf,
    Latency,
}

impl Kind {
    /// The largest scale that still gives several cold rounds in a
    /// fifteen-second window; `latency_bound` sleeps 1 ms per call, so it
    /// runs the scale the test suite pins.
    fn scale(self) -> f64 {
        match self {
            Kind::Hqdl | Kind::Udf => 0.25,
            Kind::Latency => 0.05,
        }
    }
}

/// The sleep `latency_bound` puts in front of every model call.
const MODEL_LATENCY: Duration = Duration::from_millis(1);

/// Model fan-out on `latency_bound`: enough to show overlap, never more
/// than the host has threads.
fn fan_out() -> usize {
    host::nproc().min(4)
}

pub struct Swan {
    pub bench: SwanBenchmark,
    pub kb: Arc<StaticKnowledge>,
    pub gold: GoldSet,
}

/// Generate the benchmark, the model's knowledge and the gold answers;
/// returns the three phase times alongside.
fn set_up(scale: f64, seed: u64, tracer: Option<&Tracer>) -> (Swan, [f64; 3]) {
    let (bench, gen_s) = trace::timed(tracer, "data.generate", || {
        SwanBenchmark::generate(&GenConfig { scale, seed })
    });
    let (kb, kb_s) = trace::timed(tracer, "data.build_knowledge", || {
        build_knowledge(&bench.domains)
    });
    let (gold, gold_s) = trace::timed(tracer, "core.experiment.gold", || GoldSet::compute(&bench));
    (Swan { bench, kb, gold }, [gen_s, kb_s, gold_s])
}

/// Set up several times — one set-up is too short to time steadily —
/// report the medians, and keep the last.
pub fn repeated_set_up(
    scale: f64,
    cfg: &Config,
    tracer: Option<&Tracer>,
    report: &mut Report,
) -> Swan {
    let (mut totals, mut parts) = (Vec::new(), [Vec::new(), Vec::new(), Vec::new()]);
    let mut last = None;
    while cfg.set_up_again(totals.len(), totals.iter().sum()) {
        drop(last.take());
        let (swan, times) = set_up(scale, cfg.seed, tracer);
        totals.push(times.iter().sum());
        for (p, t) in parts.iter_mut().zip(times) {
            p.push(t);
        }
        last = Some(swan);
    }
    report.set("setup_s", median(&totals));
    if cfg.trace {
        report.set("data.generate_s", median(&parts[0]));
        report.set("data.build_knowledge_s", median(&parts[1]));
        report.set("core.experiment.gold_s", median(&parts[2]));
    }
    last.expect("at least one set-up")
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Untimed first round: warms the process, scores answers, and in a
    /// traced run keeps the model's texts for replay.
    Check,
    Timed,
    Traced,
}

#[derive(Default)]
struct Round {
    wall_s: f64,
    op_ms: Vec<f64>,
    ex_correct: u64,
    attempted: u64,
    failed: u64,
    usage: UsageReport,
    probe_calls: u64,
    digest: u64,
    f1_pct: Option<f64>,
    generated_cells: u64,
    malformed_rows: u64,
    /// Model calls made while materializing (the rest serve UDFs).
    materialize_calls: u64,
    prefetched_keys: u64,
    cache_hits: u64,
    exec_cache_hits: u64,
    fallback_calls: u64,
    cached_answers: u64,
    rows_out: u64,
    warm_s: f64,
    warm_digest: Option<u64>,
    max_in_flight: u64,
    slept_s: f64,
    resilience: ResilienceStats,
    log: Vec<(String, String)>,
}

impl Round {
    /// What must repeat exactly from round to round.
    fn fingerprint(&self) -> (u64, u64, u64, u64, u64, u64) {
        let u = &self.usage;
        (
            self.ex_correct,
            u.calls,
            u.input_tokens,
            u.output_tokens,
            self.probe_calls,
            self.digest,
        )
    }

    fn ex_pct(&self) -> f64 {
        100.0 * self.ex_correct as f64 / self.attempted.max(1) as f64
    }
}

/// One question: run it, time it, fold its result into the round.
fn ask(
    round: &mut Round,
    digest: &mut Fnv,
    tracer: Option<&Tracer>,
    swan: &Swan,
    q: &Question,
    run: impl FnOnce() -> swan::sqlengine::Result<QueryResult>,
) {
    let t = Instant::now();
    round.attempted += 1;
    let ok = trace::op(tracer, round.attempted, "op.question", || match run() {
        Ok(result) => {
            sqlx::digest(&result, digest);
            round.rows_out += result.rows.len() as u64;
            trace::scope(tracer, "core.metrics.execution_match", || {
                execution_match(swan.gold.get(&q.id), &result, sql_is_ordered(&q.gold_sql))
            })
        }
        Err(_) => {
            round.failed += 1;
            false
        }
    });
    round.ex_correct += u64::from(ok);
    round.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
}

fn materialize_all(
    round: &mut Round,
    tracer: Option<&Tracer>,
    swan: &Swan,
    model: &dyn LanguageModel,
    workers: usize,
    mut each: impl FnMut(&mut Round, &DomainData, &swan::core::hqdl::HqdlRun),
) {
    for (i, d) in swan.bench.domains.iter().enumerate() {
        let run = trace::op(tracer, 1_000 + i as u64, "op.materialize", || {
            trace::scope(tracer, "core.hqdl.materialize", || {
                materialize(d, model, &HqdlConfig { shots: 5, workers })
            })
        });
        round.generated_cells += run.generated_cells as u64;
        round.malformed_rows += run.malformed_rows as u64;
        each(round, d, &run);
    }
}

fn f1_of(
    round: &mut Round,
    tracer: Option<&Tracer>,
    f1s: &mut Vec<f64>,
    d: &DomainData,
    run: &swan::core::hqdl::HqdlRun,
) {
    let op = 2_000 + f1s.len() as u64;
    let f = trace::op(tracer, op, "op.factuality", || {
        trace::scope(tracer, "core.metrics.factuality", || {
            factuality(d, &run.database)
        })
    });
    f1s.push(100.0 * f.average_f1());
    round.f1_pct = Some(f1s.iter().sum::<f64>() / f1s.len() as f64);
}

fn round(kind: Kind, mode: Mode, swan: &Swan, cfg: &Config, tracer: &Arc<Tracer>) -> Round {
    let tr = (mode == Mode::Traced).then_some(&**tracer);
    let model_kind = if kind == Kind::Udf {
        ModelKind::Gpt35Turbo
    } else {
        ModelKind::Gpt4Turbo
    };
    let sim = Arc::new(
        SimulatedModel::new(model_kind, swan.kb.clone()).with_noise(NoiseModel::new(cfg.seed)),
    );
    let probe = Probe::new(
        sim.clone(),
        ProbeOptions {
            latency: (kind == Kind::Latency).then_some(MODEL_LATENCY),
            tracer: (mode == Mode::Traced).then(|| tracer.clone()),
            score: (mode == Mode::Check && kind == Kind::Udf).then(|| swan.kb.clone()),
            record: mode == Mode::Check && cfg.trace,
        },
    );
    let mut r = Round::default();
    let mut digest = Fnv::default();
    let mut runners = Vec::new();
    let started = Instant::now();

    match kind {
        Kind::Hqdl => {
            let mut f1s = Vec::new();
            materialize_all(&mut r, tr, swan, &*probe, 1, |r, d, run| {
                for q in &d.questions {
                    ask(r, &mut digest, tr, swan, q, || {
                        trace::scope(tr, "core.hqdl.query", || {
                            sqlx::query(&run.database, &q.hybrid_sql, tr)
                        })
                    });
                }
                f1_of(r, tr, &mut f1s, d, run);
            });
        }
        Kind::Udf => {
            for d in &swan.bench.domains {
                // One runner per domain: its answer store persists across
                // the domain's 30 questions (BlendSQL behaviour).
                let mut runner = UdfRunner::new(d, probe.clone(), UdfConfig::default());
                for q in &d.questions {
                    ask(&mut r, &mut digest, tr, swan, q, || {
                        trace::scope(tr, "core.udf.run_sql", || runner.run_sql(&q.udf_sql))
                    });
                }
                runners.push(runner);
            }
        }
        Kind::Latency => {
            let resilient = ResilientModel::wrap(probe.clone());
            let workers = fan_out();
            let mut f1s = Vec::new();
            materialize_all(&mut r, tr, swan, &*resilient, workers, |r, d, run| {
                if mode == Mode::Check {
                    f1_of(r, None, &mut f1s, d, run);
                }
            });
            r.materialize_calls = sim.usage().calls;
            for d in &swan.bench.domains {
                let config = UdfConfig {
                    workers,
                    ..UdfConfig::default()
                };
                let mut runner = UdfRunner::with_resilient(d, resilient.clone(), config);
                for q in &d.questions {
                    ask(&mut r, &mut digest, tr, swan, q, || {
                        trace::scope(tr, "core.udf.run_sql", || runner.run_sql(&q.udf_sql))
                    });
                }
                runners.push(runner);
            }
            r.resilience = resilient.stats();
        }
    }
    r.wall_s = started.elapsed().as_secs_f64();
    r.digest = digest.0;
    for runner in &runners {
        let s = runner.stats();
        r.prefetched_keys += s.prefetched_keys;
        r.cache_hits += s.cache_hits;
        r.exec_cache_hits += s.exec_cache_hits;
        r.fallback_calls += s.fallback_calls;
        r.cached_answers += runner.cached_answers() as u64;
    }

    // Warm pass: the same questions again with every answer cached, so
    // what is left is SQL execution plus answer-store lookups.
    if mode == Mode::Traced && kind == Kind::Udf {
        let mut warm = Fnv::default();
        let t = Instant::now();
        for (d, runner) in swan.bench.domains.iter().zip(&mut runners) {
            for q in &d.questions {
                if let Ok(result) = runner.run_sql(&q.udf_sql) {
                    sqlx::digest(&result, &mut warm);
                }
            }
        }
        r.warm_s = t.elapsed().as_secs_f64();
        r.warm_digest = Some(warm.0);
    }
    if kind == Kind::Udf && mode == Mode::Check {
        r.f1_pct = Some(probe.score().f1_pct());
    }
    r.usage = sim.usage();
    r.probe_calls = probe.calls();
    r.max_in_flight = probe.max_in_flight();
    r.slept_s = probe.slept_s();
    r.log = probe.take_log();
    r
}

/// Times of the prompt and tokenizer layers, replayed over the texts one
/// round sent and received — the only way to time them from outside.
fn replay(log: &[(String, String)], report: &mut Report) -> f64 {
    enum Parsed {
        Row(RowCompletionPrompt),
        Udf(UdfPrompt),
    }
    let t = Instant::now();
    let parsed: Vec<Option<Parsed>> = log
        .iter()
        .map(|(p, _)| {
            if RowCompletionPrompt::matches(p) {
                RowCompletionPrompt::parse(p).ok().map(Parsed::Row)
            } else {
                UdfPrompt::parse(p).ok().map(Parsed::Udf)
            }
        })
        .collect();
    let parse_s = t.elapsed().as_secs_f64();
    report.check(parsed.iter().all(Option::is_some), || {
        "replay: a recorded prompt did not parse".into()
    });

    let t = Instant::now();
    for p in parsed.iter().flatten() {
        black_box(match p {
            Parsed::Row(p) => p.render(),
            Parsed::Udf(p) => p.render(),
        });
    }
    let render_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for (p, (_, completion)) in parsed.iter().zip(log) {
        match p {
            Some(Parsed::Row(_)) => {
                black_box(row_values(&parse_row(completion)));
            }
            _ => {
                black_box(parse_udf_response(completion));
            }
        }
    }
    let response_parse_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let tokens: u64 = log
        .iter()
        .map(|(p, c)| count_tokens(p) + count_tokens(c))
        .sum();
    let count_s = t.elapsed().as_secs_f64();

    report.set("llm.prompt.parse_s", parse_s);
    report.set("llm.prompt.render_s", render_s);
    report.set("llm.prompt.response_parse_s", response_parse_s);
    report.set(
        "llm.prompt.bytes",
        log.iter().map(|(p, _)| p.len()).sum::<usize>() as f64,
    );
    report.set("llm.tokenizer.count_s", count_s);
    report.set(
        "llm.tokenizer.tokens_per_s",
        tokens as f64 / count_s.max(1e-9),
    );
    // What the simulator spends inside these two layers on each call.
    parse_s + count_s
}

/// Per-round means of the traced rounds' layers, as metrics.
fn layer_metrics(
    kind: Kind,
    traced: &[Round],
    layers: &Layers,
    replayed_s: f64,
    report: &mut Report,
) {
    let n = traced.len().max(1) as f64;
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let mean = |f: &dyn Fn(&Round) -> f64| traced.iter().map(f).sum::<f64>() / n;

    sqlx::layer_metrics(layers, traced.len(), report);
    report.set("sqlengine.exec.rows_out", mean(&|r| r.rows_out as f64));

    let mat = get("core.hqdl.materialize");
    report.set("core.hqdl.materialize_s", mat.total_s() / n);
    report.set("core.hqdl.self_s", mat.self_s() / n);
    report.set("core.hqdl.query_s", get("core.hqdl.query").total_s() / n);
    report.set(
        "core.hqdl.generated_cells",
        mean(&|r| r.generated_cells as f64),
    );
    report.set(
        "core.hqdl.malformed_rows",
        mean(&|r| r.malformed_rows as f64),
    );
    report.set(
        "core.metrics.match_s",
        get("core.metrics.execution_match").total_s() / n,
    );
    report.set(
        "core.metrics.factuality_s",
        get("core.metrics.factuality").total_s() / n,
    );

    let calls = get("llm.model.complete");
    let slept_s = mean(&|r| r.slept_s);
    let busy_s = calls.total_s() / n - slept_s;
    report.set("llm.sim.calls", calls.count as f64 / n);
    report.set("llm.sim.busy_s", busy_s);
    report.set("llm.sim.self_s", (busy_s - replayed_s).max(0.0));
    report.set(
        "llm.parallel.overlap",
        calls.total_ns as f64 / calls.union_ns.max(1) as f64,
    );
    report.set(
        "llm.parallel.max_in_flight",
        mean(&|r| r.max_in_flight as f64),
    );
    report.set("llm.transport.wait_s", slept_s);
    report.set(
        "llm.resilience.attempts",
        mean(&|r| r.resilience.attempts as f64),
    );
    report.set(
        "llm.resilience.retries",
        mean(&|r| r.resilience.retries as f64),
    );
    report.set(
        "llm.resilience.failed_calls",
        mean(&|r| r.resilience.failed_calls as f64),
    );

    if kind != Kind::Hqdl {
        let udf = get("core.udf.run_sql");
        let cold_s = udf.total_s() / n;
        let warm_s = mean(&|r| r.warm_s);
        // Wall-clock the model held run_sql up for: the union of its
        // calls, which is their sum when they run one at a time.
        let model_s = calls.union_ns as f64 / 1e9 / n;
        let keys = mean(&|r| r.prefetched_keys as f64);
        report.set("core.udf.cold_s", cold_s);
        report.set("core.udf.warm_s", warm_s);
        if kind == Kind::Udf {
            report.set("core.udf.overhead_s", (cold_s - warm_s - model_s).max(0.0));
        }
        report.set("core.udf.prefetched_keys", keys);
        report.set("core.udf.cache_hits", mean(&|r| r.cache_hits as f64));
        report.set(
            "core.udf.exec_cache_hits",
            mean(&|r| r.exec_cache_hits as f64),
        );
        report.set(
            "core.udf.fallback_calls",
            mean(&|r| r.fallback_calls as f64),
        );
        report.set(
            "core.udf.cached_answers",
            mean(&|r| r.cached_answers as f64),
        );
        let udf_calls = mean(&|r| (r.usage.calls - r.materialize_calls) as f64);
        report.set("core.udf.keys_per_call", keys / udf_calls.max(1.0));
    }
}

pub fn run(kind: Kind, cfg: &Config) -> Report {
    let mut report = Report::default();
    let tracer = Arc::new(Tracer::default());
    let scale = cfg
        .scale
        .unwrap_or(if cfg.quick { 0.02 } else { kind.scale() });
    let swan = repeated_set_up(scale, cfg, cfg.trace.then_some(&*tracer), &mut report);
    let setup_spans = tracer.drain();
    report.check(swan.bench.question_count() == 120, || {
        format!(
            "the benchmark has {} questions, expected 120",
            swan.bench.question_count()
        )
    });

    let check = round(kind, Mode::Check, &swan, cfg, &tracer);
    let Rounds {
        timed,
        traced,
        layers,
        last_spans,
        peak_rss_mb,
    } = measure(cfg, &tracer, &mut report, |traced| {
        let mode = if traced { Mode::Traced } else { Mode::Timed };
        round(kind, mode, &swan, cfg, &tracer)
    });

    // Output checks: 120 questions a round, and every round the same.
    for r in std::iter::once(&check).chain(&timed).chain(&traced) {
        report.attempted += r.attempted;
        report.failed += r.failed;
        report.check(r.attempted == 120, || {
            format!("a round asked {} questions, expected 120", r.attempted)
        });
        report.check(r.fingerprint() == check.fingerprint(), || {
            format!(
                "rounds differ in (ex, calls, input tokens, output tokens, wrapper calls, digest): {:?} vs {:?}",
                r.fingerprint(),
                check.fingerprint()
            )
        });
        report.check(r.probe_calls == r.usage.calls, || {
            format!(
                "the wrapper counted {} calls, the model's meter {}",
                r.probe_calls, r.usage.calls
            )
        });
        if let Some(w) = r.warm_digest {
            report.check(w == r.digest, || {
                "udf: answers served from the store changed a result".into()
            });
        }
        if kind == Kind::Latency {
            report.check(
                r.resilience.attempts == r.usage.calls && r.resilience.failed_calls == 0,
                || {
                    format!(
                        "resilience layer: {:?} for {} model calls",
                        r.resilience, r.usage.calls
                    )
                },
            );
        }
    }

    let walls: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    let ops: Vec<Vec<f64>> = timed.iter().map(|r| r.op_ms.clone()).collect();
    report.note("scale", scale);
    report.note("rounds", timed.len());
    report.note("ex_pct", check.ex_pct());
    report.note("round_walls_s", crate::stats::join_3dp(&walls));
    if cfg.trace {
        let replayed_s = replay(&check.log, &mut report);
        layer_metrics(kind, &traced, &layers, replayed_s, &mut report);
        report.set("core.metrics.ex_pct", check.ex_pct());
        let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
        report.set_trace_overhead(&traced_walls, &walls);
        // trace.jsonl: set-up plus the latest traced round.
        crate::write_trace(cfg, &[setup_spans, last_spans].concat(), &mut report);
    } else {
        report.set_timings(&walls, &ops, peak_rss_mb);
        report.set("model_calls", check.usage.calls as f64);
        report.set("input_tokens", check.usage.input_tokens as f64);
        report.set("output_tokens", check.usage.output_tokens as f64);
        report.set("f1_pct", check.f1_pct.unwrap_or(0.0));
    }
    report
}
