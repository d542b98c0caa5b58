//! Deterministic LLM fault sweep over the resilient model-call layer —
//! the model boundary's answer to `crash_sim.rs`.
//!
//! Every model attempt flows through the [`SimTransport`] seam, which
//! can make any *call index* fail transiently, rate-limit, time out,
//! respond slowly (inside or past the per-call budget) or return
//! malformed output. This harness sweeps **every fault kind through
//! every call index** of a small `llm_map` workload under three
//! execution shapes — serial model calls, model calls fanned out over
//! eight workers, and eight concurrent [`SharedDb`] sessions coalescing
//! through the single-flight map — and checks the resilience contract:
//!
//! 1. **No hangs** — every statement completes; time is virtual
//!    ([`SimClock`]), so even a 60-second simulated hang finishes
//!    instantly, and a run that parked a waiter forever would deadlock
//!    the test;
//! 2. **Failed calls never populate the cache** — a terminally failing
//!    workload leaves the answer store empty, and recovery after the
//!    fault script clears serves real answers, not ghosts;
//! 3. **Retries respect the statement deadline** — with a statement
//!    timeout armed, retry loops stop at the deadline (never sleeping
//!    past it) and surface the engine's `statement timeout` error, which
//!    no degradation policy may swallow;
//! 4. **Breaker transitions match the fault script** — consecutive
//!    scripted failures open the breaker (observable through
//!    `UdfStats`), the cooldown admits a half-open probe, and a clean
//!    probe closes it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use swan::prelude::*;
use swan_core::OnModelFailure;
use swan_data::DomainData;
use swan_llm::{
    BreakerPolicy, BreakerState, Completion, LlmResult, ModelFault, ResilientModel,
    RetryPolicy, SimTransport, TokenCount, UsageMeter,
};
use swan_pool::{Clock as _, SimClock};
use swan_sqlengine::{Error, SharedDb};

/// A model that answers every UDF prompt with one `'ok'` line per key —
/// instantly (latency is the transport's job) — and counts completions.
struct EchoModel {
    meter: UsageMeter,
    calls: AtomicU64,
}

impl EchoModel {
    fn new() -> Self {
        EchoModel { meter: UsageMeter::new(), calls: AtomicU64::new(0) }
    }
}

impl LanguageModel for EchoModel {
    fn name(&self) -> &str {
        "echo"
    }

    fn complete(&self, prompt: &str) -> LlmResult<Completion> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        let mut in_keys = false;
        let mut answers = String::new();
        for line in prompt.lines() {
            let line = line.trim();
            if line == "Keys:" {
                in_keys = true;
                continue;
            }
            if line == "Answer:" {
                break;
            }
            if in_keys && !line.is_empty() {
                answers.push_str("'ok'\n");
            }
        }
        let tokens = TokenCount::of(prompt, &answers);
        self.meter.record(tokens);
        Ok(Completion { text: answers, tokens })
    }

    fn usage_meter(&self) -> &UsageMeter {
        &self.meter
    }
}

/// Every fault kind the sweep injects. The two `Slow` entries bracket
/// the per-call budget: one succeeds after its delay, one times out.
const FAULTS: [ModelFault; 6] = [
    ModelFault::Transient,
    ModelFault::RateLimited,
    ModelFault::Timeout,
    ModelFault::Slow(Duration::from_millis(50)),
    ModelFault::Slow(Duration::from_secs(30)),
    ModelFault::Malformed,
];

/// Fast retry policy: semantics identical to the default, milliseconds
/// instead of seconds so the virtual schedules stay tiny.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        call_timeout: Duration::from_millis(100),
        base_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(80),
    }
}

struct Rig {
    runner: UdfRunner,
    transport: SimTransport,
    resilient: Arc<ResilientModel>,
    clock: Arc<SimClock>,
}

fn rig(domain: &DomainData, config: UdfConfig, retry: RetryPolicy, breaker: BreakerPolicy) -> Rig {
    let clock = SimClock::handle();
    let transport = SimTransport::new(Arc::new(EchoModel::new()), clock.clone());
    let resilient = Arc::new(ResilientModel::new(
        Arc::new(transport.clone()),
        clock.clone(),
        retry,
        breaker,
    ));
    let mut runner = UdfRunner::with_resilient(domain, resilient.clone(), config);
    // The engine shares the virtual clock, so statement deadlines and
    // transport latency tick together.
    runner.database_mut().set_clock(clock.clone());
    Rig { runner, transport, resilient, clock }
}

fn domain() -> DomainData {
    SwanBenchmark::generate(&GenConfig::with_scale(0.01)).domains.remove(0)
}

/// Three single-key chunks (`batch_size: 1`) so the sweep has several
/// distinct call indices to attack.
fn sweep_config() -> UdfConfig {
    UdfConfig { batch_size: 1, workers: 1, ..UdfConfig::default() }
}

fn setup_keys(rig: &mut Rig) {
    let db = rig.runner.database_mut();
    db.execute("CREATE TABLE keys (k TEXT PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO keys VALUES ('a'), ('b'), ('c')").unwrap();
}

const SQL: &str = "SELECT k, llm_map('fault sweep probe', k) FROM keys ORDER BY k";

/// The core sweep: every fault kind at every call index, with the model
/// calls serial and fanned out over eight workers. A single injected
/// fault must always be
/// absorbed — retried to the baseline answer — without opening the
/// breaker, degrading a value, or failing the statement; `Malformed` is
/// the one exception (the transport cannot tell it failed), which must
/// still complete with one well-typed value per row.
#[test]
fn fault_sweep_serial_and_parallel() {
    let d = domain();
    for workers in [1, 8] {
        let config = UdfConfig { workers, ..sweep_config() };
        let mut base = rig(&d, config, fast_retry(), BreakerPolicy::default());
        setup_keys(&mut base);
        let baseline = base.runner.database_mut().query(SQL).unwrap();
        let total_calls = base.transport.calls();
        assert!(total_calls >= 3, "workers={workers}: sweep needs ≥3 call indices, got {total_calls}");
        assert_eq!(baseline.rows.len(), 3);

        for fault in FAULTS {
            for at in 0..total_calls {
                let ctx = format!("workers={workers} fault {fault:?} @call {at}");
                let mut r = rig(&d, config, fast_retry(), BreakerPolicy::default());
                setup_keys(&mut r);
                r.transport.set_fault(at, fault);
                let got = r
                    .runner
                    .database_mut()
                    .query(SQL)
                    .unwrap_or_else(|e| panic!("{ctx}: one fault must be absorbed: {e}"));
                if fault == ModelFault::Malformed {
                    assert_eq!(got.rows.len(), baseline.rows.len(), "{ctx}");
                } else {
                    assert_eq!(got.rows, baseline.rows, "{ctx}: retried run must match baseline");
                }
                let s = r.resilient.stats();
                assert_eq!(s.failed_calls, 0, "{ctx}: every logical call must recover");
                assert_eq!(r.runner.stats().degraded, 0, "{ctx}: nothing degraded");
                let u = r.runner.stats();
                assert_eq!(
                    (u.prefetched_keys, u.cache_hits, u.exec_cache_hits, u.fallback_calls),
                    (3, 0, 0, 0),
                    "{ctx}: an absorbed fault leaves the pathway's own work unchanged"
                );
                assert_eq!(
                    r.runner.stats().breaker,
                    Some(BreakerState::Closed),
                    "{ctx}: one fault must not open the breaker"
                );
                if !matches!(fault, ModelFault::Malformed | ModelFault::Slow(_)) {
                    assert!(s.retries >= 1, "{ctx}: the faulted attempt was retried");
                }
            }
        }
    }
}

/// The same sweep with eight concurrent sessions racing the same query
/// through one [`SharedDb`]: the single-flight map must coalesce every
/// key to one logical fetch, deliver the leader's outcome to its
/// waiters, and never strand a waiter when the leader's call fails —
/// all sessions complete and agree on every row.
#[test]
fn fault_sweep_concurrent_sessions_single_flight() {
    let d = domain();
    // Baseline sizes the sweep (3 coalesced fetches, one per key).
    let base = rig(&d, sweep_config(), fast_retry(), BreakerPolicy::default());
    let mut base = base;
    setup_keys(&mut base);
    let shared = SharedDb::from_database(base.runner.database().clone());
    let baseline = shared.query(SQL).unwrap();
    let total_calls = base.transport.calls();
    assert!(total_calls >= 3);

    for fault in FAULTS {
        for at in 0..total_calls {
            let ctx = format!("sessions fault {fault:?} @call {at}");
            let mut r = rig(&d, sweep_config(), fast_retry(), BreakerPolicy::default());
            setup_keys(&mut r);
            let shared = SharedDb::from_database(r.runner.database().clone());
            shared.set_clock(r.clock.clone());
            r.transport.set_fault(at, fault);

            let results: Vec<QueryResult> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..8)
                    .map(|_| {
                        let shared = shared.clone();
                        s.spawn(move || shared.query(SQL))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .expect("session thread must not panic")
                            .unwrap_or_else(|e| panic!("{ctx}: one fault must be absorbed: {e}"))
                    })
                    .collect()
            });
            for res in &results[1..] {
                assert_eq!(res.rows, results[0].rows, "{ctx}: sessions must agree");
            }
            assert_eq!(results[0].rows.len(), 3, "{ctx}");
            if fault != ModelFault::Malformed {
                assert_eq!(results[0].rows, baseline.rows, "{ctx}");
            }
            // Coalescing still holds under faults: at most one extra
            // round of per-key retries beyond the baseline fetches.
            let calls = r.transport.calls();
            assert!(
                calls <= total_calls + fast_retry().max_attempts as u64,
                "{ctx}: single-flight must bound the fan-out, saw {calls} attempts"
            );
        }
    }
}

/// Terminal failures (every attempt faulted) under each degradation
/// policy. `Fail` surfaces the error and caches nothing; `Null` yields
/// NULL per failed key and caches nothing; `StaleCache` re-serves the
/// last known good answer across a `PerQuestion` cache clear. Clearing
/// the fault script always restores real answers — failed calls left no
/// ghosts behind.
#[test]
fn terminal_failures_follow_the_degradation_policy() {
    let d = domain();

    // Fail: the statement errors, and the cache stays empty.
    let mut r = rig(&d, sweep_config(), fast_retry(), BreakerPolicy::default());
    setup_keys(&mut r);
    r.transport.add_fault_range(0..1_000, ModelFault::Transient);
    let err = r.runner.database_mut().query(SQL).unwrap_err();
    assert!(matches!(err, Error::Udf { .. }), "fail-policy surfaces the model error: {err}");
    assert_eq!(r.runner.cached_answers(), 0, "failed calls must never populate the cache");
    r.transport.clear_faults();
    // The failure storm tripped the breaker; sit out its cooldown.
    r.clock.advance(Duration::from_secs(60));
    let ok = r.runner.database_mut().query(SQL).unwrap();
    assert_eq!(ok.rows.len(), 3, "recovery after the fault script clears");
    assert_eq!(r.runner.cached_answers(), 3);

    // Null: the statement completes with NULLs, and the cache stays
    // empty so recovery serves real answers.
    let config = UdfConfig { on_model_failure: OnModelFailure::Null, ..sweep_config() };
    let mut r = rig(&d, config, fast_retry(), BreakerPolicy::default());
    setup_keys(&mut r);
    r.transport.add_fault_range(0..1_000, ModelFault::RateLimited);
    let got = r.runner.database_mut().query(SQL).unwrap();
    assert!(
        got.rows.iter().all(|row| row[1] == Value::Null),
        "null-policy degrades every failed key to NULL"
    );
    let u = r.runner.stats();
    assert_eq!((u.prefetched_keys, u.fallback_calls, u.degraded), (0, 3, 3));
    assert_eq!(r.runner.cached_answers(), 0, "degraded NULLs must never be cached");
    r.transport.clear_faults();
    r.clock.advance(Duration::from_secs(60));
    let ok = r.runner.database_mut().query(SQL).unwrap();
    assert!(ok.rows.iter().all(|row| row[1] != Value::Null), "real answers after recovery");

    // StaleCache: a clean run seeds the last-known-good store; after a
    // PerQuestion clear, a terminally failing rerun re-serves it.
    let config = UdfConfig {
        on_model_failure: OnModelFailure::StaleCache,
        cache: CacheScope::PerQuestion,
        ..sweep_config()
    };
    let mut r = rig(&d, config, fast_retry(), BreakerPolicy::default());
    setup_keys(&mut r);
    let fresh = r.runner.run_sql(SQL).unwrap();
    assert!(fresh.rows.iter().all(|row| row[1] != Value::Null));
    r.transport.add_fault_range(0..1_000, ModelFault::Transient);
    let stale = r.runner.run_sql(SQL).unwrap();
    assert_eq!(stale.rows, fresh.rows, "stale-cache re-serves the last known good answers");
    let u = r.runner.stats();
    assert_eq!((u.prefetched_keys, u.cache_hits, u.fallback_calls, u.degraded), (3, 0, 3, 3));
}

/// A statement timeout bounds the whole retry schedule: with every
/// attempt timing out, `run` fails with the engine's deadline error —
/// never hanging, never sleeping past the deadline (virtual time proves
/// it), and never degraded to NULL even under the most permissive
/// policy. Clearing the faults and the timeout fully recovers the
/// session.
fn assert_deadline_bounds_the_statement(run: fn(&mut UdfRunner) -> swan_sqlengine::Result<QueryResult>) {
    let d = domain();
    for policy in [OnModelFailure::Fail, OnModelFailure::Null, OnModelFailure::StaleCache] {
        let config = UdfConfig { on_model_failure: policy, ..sweep_config() };
        let mut r = rig(&d, config, fast_retry(), BreakerPolicy::default());
        setup_keys(&mut r);
        r.transport.add_fault_range(0..1_000, ModelFault::Timeout);
        r.runner.database_mut().set_statement_timeout(Some(Duration::from_millis(250)));
        let start = r.clock.now();
        let err = run(&mut r.runner).unwrap_err();
        assert!(
            matches!(err, Error::Deadline),
            "{policy:?}: a blown deadline must abort the statement, got {err}"
        );
        assert_eq!(err.to_string(), "statement timeout: deadline exceeded");
        let elapsed = r.clock.now() - start;
        assert!(
            elapsed <= Duration::from_millis(250),
            "{policy:?}: never sleeps past the deadline (virtual elapsed {elapsed:?})"
        );
        assert_eq!(r.runner.cached_answers(), 0, "{policy:?}: nothing cached on the way down");

        // The session is intact: lift the faults and the timeout and the
        // same statement succeeds — no leaked workers, no parked waiters.
        r.transport.clear_faults();
        r.runner.database_mut().set_statement_timeout(None);
        assert_eq!(run(&mut r.runner).unwrap().rows.len(), 3);
    }
}

#[test]
fn retries_respect_the_statement_deadline() {
    assert_deadline_bounds_the_statement(|runner| runner.database_mut().query(SQL));
}

/// Regression: the same bound through [`UdfRunner::run_sql`] on a
/// SWAN-shaped query (qualified key column). Its batched model calls
/// used to run before the statement token was armed, with no deadline.
#[test]
fn run_sql_deadline_covers_every_model_call() {
    assert_deadline_bounds_the_statement(|runner| {
        runner.run_sql("SELECT T1.k, llm_map('fault sweep probe', T1.k) FROM keys T1 ORDER BY T1.k")
    });
}

/// The deadline also cancels a statement whose model calls fan out over
/// eight pool workers promptly: every worker observes the statement token
/// it was handed, the batch fan-out aborts, and the pool survives to run
/// the next statement.
#[test]
fn deadline_cancels_parallel_statements_cleanly() {
    let d = domain();
    let config = UdfConfig { workers: 8, ..sweep_config() };
    let mut r = rig(&d, config, fast_retry(), BreakerPolicy::default());
    setup_keys(&mut r);
    r.transport.add_fault_range(0..1_000, ModelFault::Timeout);
    r.runner.database_mut().set_statement_timeout(Some(Duration::from_millis(250)));
    let err = r.runner.database_mut().query(SQL).unwrap_err();
    assert!(matches!(err, Error::Deadline), "parallel statement hits the deadline: {err}");

    r.transport.clear_faults();
    r.runner.database_mut().set_statement_timeout(None);
    let ok = r.runner.database_mut().query(SQL).unwrap();
    assert_eq!(ok.rows.len(), 3, "the pool is healthy after a cancelled parallel statement");
}

/// Breaker transitions, end to end through `UdfStats`: three scripted
/// consecutive failures open it (subsequent keys fail fast without
/// touching the endpoint), the cooldown admits a half-open probe, and a
/// clean probe closes it again.
#[test]
fn breaker_transitions_match_the_fault_script() {
    let d = domain();
    let config = UdfConfig { on_model_failure: OnModelFailure::Null, ..sweep_config() };
    let retry = RetryPolicy { max_attempts: 1, ..fast_retry() };
    let breaker = BreakerPolicy { failure_threshold: 3, cooldown: Duration::from_secs(5) };
    let mut r = rig(&d, config, retry, breaker);
    setup_keys(&mut r);
    assert_eq!(r.runner.stats().breaker, Some(BreakerState::Closed));

    // Three consecutive scripted failures: the batch phase burns exactly
    // the threshold, opening the breaker; the per-key fallbacks then
    // fail fast on the open breaker and degrade to NULL.
    r.transport.add_fault_range(0..3, ModelFault::Transient);
    let got = r.runner.database_mut().query(SQL).unwrap();
    assert!(got.rows.iter().all(|row| row[1] == Value::Null));
    assert_eq!(r.runner.stats().breaker, Some(BreakerState::Open), "threshold opens the breaker");
    let s = r.resilient.stats();
    assert_eq!(s.breaker_opens, 1);
    assert!(s.breaker_rejections >= 1, "open breaker rejects without calling the endpoint");
    assert_eq!(r.transport.calls(), 3, "rejected calls never reach the transport");

    // Inside the cooldown the breaker still rejects.
    let rejected_before = s.breaker_rejections;
    let got = r.runner.database_mut().query(SQL).unwrap();
    assert!(got.rows.iter().all(|row| row[1] == Value::Null));
    assert_eq!(r.transport.calls(), 3, "still nothing reaches the endpoint inside the cooldown");
    assert!(r.resilient.stats().breaker_rejections > rejected_before);

    // Cooldown elapses; the fault script is exhausted, so the half-open
    // probe succeeds and closes the breaker; every key resolves.
    r.clock.advance(Duration::from_secs(5));
    let got = r.runner.database_mut().query(SQL).unwrap();
    assert!(got.rows.iter().all(|row| row[1] != Value::Null), "probe success restores service");
    assert_eq!(r.runner.stats().breaker, Some(BreakerState::Closed), "clean probe closes");
    assert_eq!(r.resilient.stats().breaker_opens, 1, "no re-open on the healthy path");
}
