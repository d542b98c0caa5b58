//! # swan-llm
//!
//! The language-model layer of the SWAN / HQDL reproduction: a
//! [`LanguageModel`] trait (text prompt in, completion + token usage out),
//! the prompt templates both hybrid-querying solutions use, and a
//! **calibrated simulated model** standing in for the paper's GPT-3.5
//! Turbo / GPT-4 Turbo endpoints.
//!
//! ## The simulation substitution
//!
//! The paper calls OpenAI APIs; this repository cannot. Instead,
//! [`sim::SimulatedModel`] answers prompts from a [`knowledge::KnowledgeBase`]
//! (ground truth: the original, un-curated benchmark databases) passed
//! through the deterministic noise channel in [`noise`]. The channel is
//! calibrated so the paper's relative findings (GPT-4 above GPT-3.5,
//! few-shot above zero-shot, value-selection above free-form, popularity
//! bias, batching degradation, zero-shot format errors) *emerge from
//! execution*.
//! Determinism doubles as temperature-0 semantics: identical prompts give
//! identical completions.
//!
//! The simulator reads only the prompt text, as an endpoint would. Per
//! call it parses and tokenizes the prompt's new bytes: the prompts of one
//! HQDL expansion (or one UDF question's chunks) share a head, which it
//! parses and counts once and remembers by its exact bytes, so a call
//! reads only its target entry (or key lines). Completions and token
//! counts are those of the full [`prompt`] parse, which stays the oracle.
//!
//! ## Module map
//!
//! | module | role |
//! |---|---|
//! | [`model`] | `LanguageModel` trait, `ModelKind`, errors |
//! | [`prompt`] | HQDL row-completion and UDF batch prompts + parsers (whole, or head and tail) |
//! | [`tokenizer`] | approximate sub-word token counting |
//! | [`usage`] | usage meters, Table-5 style reports, pricing |
//! | [`knowledge`] | ground-truth oracle abstraction |
//! | [`noise`] | the calibrated error channel |
//! | [`sim`] | the simulated model, with its memo of prompt heads |
//! | [`parallel`] | multi-threaded prompt fan-out (§6), deadline-aware |
//! | [`transport`] | the model-call seam: real passthrough + deterministic fault-injecting `SimTransport` |
//! | [`resilience`] | retries, per-call timeouts, circuit breaker, statement-deadline observance (see RESILIENCE.md) |

pub mod knowledge;
pub mod model;
pub mod noise;
pub mod parallel;
pub mod prompt;
pub mod resilience;
pub mod sim;
pub mod tokenizer;
pub mod transport;
pub mod usage;

pub use knowledge::{AttrClass, KnowledgeBase, KnownValue, StaticKnowledge};
pub use model::{Completion, LanguageModel, LlmError, LlmResult, ModelHandle, ModelKind};
pub use noise::{CellContext, NoiseModel, Pathway};
pub use prompt::{RowCompletionPrompt, RowExample, UdfExample, UdfPrompt};
pub use resilience::{
    BreakerPolicy, BreakerState, ResilienceStats, ResilientModel, RetryPolicy,
};
pub use sim::SimulatedModel;
pub use tokenizer::{count_tokens, TokenCount};
pub use transport::{DirectTransport, ModelFault, ModelTransport, SimTransport};
pub use usage::{Pricing, UsageMeter, UsageReport};
