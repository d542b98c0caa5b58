//! Parallel LLM call execution.
//!
//! The paper's future-work list (§6) calls for "asynchronous and parallel
//! hybrid query execution". This module fans a batch of model calls across
//! the workspace-wide **persistent, bounded worker pool** ([`swan_pool`])
//! against one (thread-safe) model, preserving input order in the output.
//!
//! The pool is created lazily on first use and reused by every subsequent
//! call — no per-call (let alone per-prompt) thread spawning. These model
//! calls are the workspace's in-statement concurrency: the SQL executor's
//! operator loops run on the statement thread. Each
//! [`complete_many`] submits at most `workers` pool jobs that *steal*
//! item indices from a shared counter, so per-call concurrency stays
//! capped at `workers` while latency-skewed batches (one slow prompt next
//! to many fast ones — the norm for LLM traffic) still balance across the
//! whole set. A prompt is **built by the worker that sends it** and dropped
//! when its call returns, so at most `workers` prompts are alive at once,
//! however many items the batch has. `workers <= 1` runs inline on the
//! caller thread (the sequential baseline for the parallelism ablation),
//! and a call from *inside* a pool worker (a composite/router model) also
//! runs inline instead of re-entering — and potentially deadlocking — the
//! fixed pool;
//! both are [`swan_pool::parallel_items`]' own inline arm, not a loop here.

use swan_pool::cancel;

use crate::model::{Completion, LanguageModel, LlmError, LlmResult};

/// Send `count` prompts to `model` on up to `workers` pool threads;
/// `render(i)` builds the `i`-th prompt.
///
/// Results come back in item order. `render` runs on the thread that makes
/// the call, immediately before it, and the prompt is dropped when the call
/// returns: at most `workers` prompts exist at a time. With `workers <= 1`
/// the calls run inline. Effective concurrency is additionally bounded by
/// the shared pool size ([`swan_pool::pool_size`]: `max(cores, 16)`, capped
/// at 64 — comfortably above the §6 parallelism ablation's sweep).
///
/// The caller's **current cancel token** ([`swan_pool::cancel::current`])
/// is checked before each item and re-installed inside every worker (pool
/// threads do not inherit thread-locals), so a statement deadline firing
/// mid-batch makes the remaining items fail fast with
/// [`LlmError::Deadline`] — their prompts are never rendered, let alone
/// sent — and the model wrapper observes the same deadline.
pub fn complete_many(
    model: &dyn LanguageModel,
    count: usize,
    workers: usize,
    render: impl Fn(usize) -> String + Sync,
) -> Vec<LlmResult<Completion>> {
    let token = cancel::current();
    swan_pool::parallel_items(count, workers, |i| match &token {
        Some(token) => {
            if token.check().is_err() {
                return Err(LlmError::Deadline);
            }
            cancel::with_current(token, || model.complete(&render(i)))
        }
        None => model.complete(&render(i)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::TokenCount;
    use crate::usage::UsageMeter;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::{Duration, Instant};

    struct SlowEcho {
        meter: UsageMeter,
        max_in_flight: AtomicU64,
        in_flight: AtomicU64,
    }

    impl SlowEcho {
        fn new() -> Self {
            SlowEcho {
                meter: UsageMeter::new(),
                max_in_flight: AtomicU64::new(0),
                in_flight: AtomicU64::new(0),
            }
        }
    }

    impl LanguageModel for SlowEcho {
        fn name(&self) -> &str {
            "slow-echo"
        }
        fn complete(&self, prompt: &str) -> LlmResult<Completion> {
            let now = self.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_in_flight.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(5));
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            let tokens = TokenCount::of(prompt, prompt);
            self.meter.record(tokens);
            Ok(Completion { text: prompt.to_string(), tokens })
        }
        fn usage_meter(&self) -> &UsageMeter {
            &self.meter
        }
    }

    #[test]
    fn preserves_order() {
        let model = SlowEcho::new();
        let out = complete_many(&model, 20, 4, |i| format!("p{i}"));
        for (i, r) in out.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap().text, format!("p{i}"));
        }
        assert_eq!(model.usage().calls, 20);
    }

    #[test]
    fn actually_runs_concurrently() {
        let model = SlowEcho::new();
        complete_many(&model, 16, 8, |i| format!("p{i}"));
        assert!(
            model.max_in_flight.load(Ordering::SeqCst) >= 2,
            "no concurrency observed"
        );
    }

    #[test]
    fn sequential_path_for_one_worker() {
        let model = SlowEcho::new();
        complete_many(&model, 4, 1, |i| format!("p{i}"));
        assert_eq!(model.max_in_flight.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn empty_input() {
        let model = SlowEcho::new();
        assert!(complete_many(&model, 0, 4, |_| unreachable!("no item to render")).is_empty());
    }

    #[test]
    fn workers_capped_to_prompt_count() {
        let model = SlowEcho::new();
        let out = complete_many(&model, 1, 64, |_| "only".to_string());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn pool_is_reused_across_calls() {
        let model = SlowEcho::new();
        let before = swan_pool::pool_size();
        for _ in 0..5 {
            complete_many(&model, 6, 3, |i| format!("p{i}"));
        }
        assert_eq!(swan_pool::pool_size(), before, "pool size is fixed across calls");
    }

    /// Two adjacent slow prompts must land on different workers (index
    /// stealing), not in one worker's contiguous chunk.
    #[test]
    fn skewed_latencies_balance_across_workers() {
        struct Skewed(UsageMeter);
        impl LanguageModel for Skewed {
            fn name(&self) -> &str {
                "skewed"
            }
            fn complete(&self, prompt: &str) -> LlmResult<Completion> {
                if prompt.starts_with("slow") {
                    std::thread::sleep(Duration::from_millis(200));
                }
                Ok(Completion { text: prompt.into(), tokens: TokenCount::default() })
            }
            fn usage_meter(&self) -> &UsageMeter {
                &self.0
            }
        }
        let model = Skewed(UsageMeter::new());
        let prompts = ["slow1", "slow2", "f1", "f2"];
        let t = Instant::now();
        let out = complete_many(&model, prompts.len(), 2, |i| prompts[i].to_string());
        let elapsed = t.elapsed();
        assert_eq!(out.len(), 4);
        // Static half/half chunking would serialize both slow prompts in
        // one chunk (~400ms); stealing runs them concurrently (~200ms).
        assert!(
            elapsed < Duration::from_millis(350),
            "slow prompts were not balanced: {elapsed:?}"
        );
    }

    /// A composite model that fans out from inside `complete` must not
    /// deadlock the fixed pool: the inner batch runs inline on the worker.
    #[test]
    fn reentrant_complete_many_runs_inline_without_deadlock() {
        struct Router {
            inner: SlowEcho,
        }
        impl LanguageModel for Router {
            fn name(&self) -> &str {
                "router"
            }
            fn complete(&self, prompt: &str) -> LlmResult<Completion> {
                let parts = complete_many(&self.inner, 3, 4, |i| format!("{prompt}/{i}"));
                let text = parts
                    .into_iter()
                    .map(|r| r.unwrap().text)
                    .collect::<Vec<_>>()
                    .join("+");
                Ok(Completion { text, tokens: TokenCount::default() })
            }
            fn usage_meter(&self) -> &UsageMeter {
                self.inner.usage_meter()
            }
        }
        let router = Router { inner: SlowEcho::new() };
        // More outer prompts than pool threads would previously be able to
        // wedge every worker inside the nested wait.
        let out = complete_many(&router, 80, 64, |i| format!("p{i}"));
        assert_eq!(out.len(), 80);
        assert_eq!(out[7].as_ref().unwrap().text, "p7/0+p7/1+p7/2");
    }

    #[test]
    fn cancelled_token_fails_remaining_prompts_fast() {
        let model = SlowEcho::new();
        let token = swan_pool::CancelToken::unbounded();
        token.cancel();
        let rendered = AtomicU64::new(0);
        let t = Instant::now();
        let out = swan_pool::cancel::with_current(&token, || {
            complete_many(&model, 8, 4, |i| {
                rendered.fetch_add(1, Ordering::SeqCst);
                format!("p{i}")
            })
        });
        assert!(t.elapsed() < Duration::from_millis(100), "must abort promptly");
        assert!(out.iter().all(|r| *r == Err(LlmError::Deadline)));
        assert_eq!(model.usage().calls, 0, "no prompt attempted after cancellation");
        assert_eq!(rendered.load(Ordering::SeqCst), 0, "no prompt built after cancellation");
    }

    /// A token that fires mid-batch: the items past it fail with
    /// `Deadline` and their prompts are never built.
    #[test]
    fn no_prompt_is_rendered_past_a_fired_token() {
        /// Cancels `token` from inside its `k`-th call.
        struct CancelAfter {
            token: swan_pool::CancelToken,
            k: u64,
            calls: AtomicU64,
            meter: UsageMeter,
        }
        impl LanguageModel for CancelAfter {
            fn name(&self) -> &str {
                "cancel-after"
            }
            fn complete(&self, prompt: &str) -> LlmResult<Completion> {
                if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.k {
                    self.token.cancel();
                }
                Ok(Completion { text: prompt.into(), tokens: TokenCount::default() })
            }
            fn usage_meter(&self) -> &UsageMeter {
                &self.meter
            }
        }
        const COUNT: usize = 64;
        const K: u64 = 5;
        for workers in [1usize, 4] {
            let token = swan_pool::CancelToken::unbounded();
            let model = CancelAfter {
                token: token.clone(),
                k: K,
                calls: AtomicU64::new(0),
                meter: UsageMeter::new(),
            };
            let rendered = AtomicU64::new(0);
            let out = swan_pool::cancel::with_current(&token, || {
                complete_many(&model, COUNT, workers, |i| {
                    rendered.fetch_add(1, Ordering::SeqCst);
                    format!("p{i}")
                })
            });
            let rendered = rendered.load(Ordering::SeqCst);
            let answered = out.iter().filter(|r| r.is_ok()).count() as u64;
            assert_eq!(rendered, model.calls.load(Ordering::SeqCst), "built means sent");
            assert_eq!(answered, rendered);
            assert!(out.iter().all(|r| r.is_ok() || *r == Err(LlmError::Deadline)));
            // Only the calls already past their check when the token fired
            // still go out: at most one per other worker.
            assert!(
                (K..K + workers as u64).contains(&rendered),
                "{rendered} prompts rendered at {workers} workers"
            );
            if workers == 1 {
                let first_k = out.iter().take(K as usize).all(|r| r.is_ok());
                assert!(first_k && out[K as usize..].iter().all(|r| r.is_err()));
            }
        }
    }

    #[test]
    fn current_token_propagates_into_workers() {
        let model = SlowEcho::new();
        let token = swan_pool::CancelToken::unbounded();
        token.cancel();
        // complete_many picks the caller's current token up by itself.
        let out = swan_pool::cancel::with_current(&token, || {
            complete_many(&model, 4, 4, |i| format!("p{i}"))
        });
        assert!(out.iter().all(|r| *r == Err(LlmError::Deadline)));
    }

    #[test]
    fn worker_panic_propagates_without_killing_the_pool() {
        struct Bomb(UsageMeter);
        impl LanguageModel for Bomb {
            fn name(&self) -> &str {
                "bomb"
            }
            fn complete(&self, prompt: &str) -> LlmResult<Completion> {
                if prompt == "boom" {
                    panic!("simulated model crash");
                }
                Ok(Completion { text: prompt.into(), tokens: TokenCount::default() })
            }
            fn usage_meter(&self) -> &UsageMeter {
                &self.0
            }
        }
        let bomb = Bomb(UsageMeter::new());
        let prompts = ["ok", "boom", "ok2"];
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            complete_many(&bomb, prompts.len(), 3, |i| prompts[i].to_string());
        }));
        assert!(caught.is_err(), "panic must propagate to the caller");

        // The pool survives and keeps serving.
        let model = SlowEcho::new();
        let out = complete_many(&model, 8, 4, |i| format!("q{i}"));
        assert_eq!(out.len(), 8);
    }
}
