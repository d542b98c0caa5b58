//! # swan — hybrid querying over relational databases and large language models
//!
//! A complete, from-scratch reproduction of the SWAN benchmark and the
//! HQDL / hybrid-query-UDF solutions from *"Hybrid Querying Over
//! Relational Databases and Large Language Models"* (CIDR 2025).
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! * [`sqlengine`] — the embedded SQL engine standing in for SQLite:
//!   parser → planner → optimizer → columnar executor,
//!   a scalar-UDF registry with batched expensive-function calls,
//!   [`SharedDb`](sqlengine::SharedDb) sessions under snapshot isolation,
//!   and crash durability (write-ahead log, group commit, paged B-tree
//!   store) — all of it on `SharedDb`; [`Database`](sqlengine::Database)
//!   is the in-memory statement executor both solutions run on. Its crate docs list the features; the measurements are in
//!   `crates/sqlengine/PERF.md`.
//! * [`llm`] — the language-model layer: prompt templates, token and
//!   cost accounting, parallel model calls, the calibrated simulated
//!   GPT-3.5 / GPT-4 models, and the resilient transport seam (retries,
//!   timeouts, circuit breaker — `crates/llm/RESILIENCE.md`).
//! * [`data`] — the SWAN benchmark: four synthetic domain databases,
//!   schema curation, and 120 beyond-database questions with gold and
//!   hybrid SQL.
//! * [`core`] — the two solutions (HQDL schema expansion; BlendSQL-style
//!   UDFs, batched and pushed down by the engine, with answer caching)
//!   and the evaluation harness
//!   (execution accuracy, data-factuality F1, token reports).
//! * [`pool`] — the shared worker pool, the `Clock` seam, cancel tokens
//!   and the lock-rank table.
//!
//! The seams (filesystem, clock, model transport) and the lock hierarchy
//! are machine-checked; `ANALYSIS.md` at the workspace root has the rule
//! catalog and the rank table.
//!
//! ## Quick start
//!
//! ```
//! use swan::prelude::*;
//!
//! // A small benchmark instance (scale 1.0 = the paper's Table 1 sizes).
//! let harness = Harness::new(0.02);
//!
//! // Evaluate HQDL with the simulated GPT-4 Turbo at 5-shot.
//! let eval = evaluate_hqdl(
//!     &harness.benchmark,
//!     harness.kb.clone(),
//!     &harness.gold,
//!     ModelKind::Gpt4Turbo,
//!     5,
//!     4,
//! );
//! assert_eq!(eval.overall.total, 120);
//! println!("EX = {:.1}%, F1 = {:.1}%",
//!          100.0 * eval.overall.accuracy(), 100.0 * eval.average_f1());
//! ```

pub use swan_core as core;
pub use swan_data as data;
pub use swan_llm as llm;
pub use swan_pool as pool;
pub use swan_sqlengine as sqlengine;

/// The most commonly used items in one import.
pub mod prelude {
    pub use swan_core::experiment::{
        evaluate_hqdl, evaluate_udf, GoldSet, Harness, HqdlEvaluation, UdfEvaluation,
    };
    pub use swan_core::hqdl::{materialize, HqdlConfig, HqdlRun};
    pub use swan_core::metrics::{execution_match, factuality, sql_is_ordered, ExTally};
    pub use swan_core::udf::{CacheScope, OnModelFailure, UdfConfig, UdfRunner, UdfStats};
    pub use swan_data::{build_knowledge, GenConfig, SwanBenchmark};
    pub use swan_llm::{
        BreakerPolicy, BreakerState, LanguageModel, ModelKind, ResilientModel, RetryPolicy,
        SimulatedModel, UsageReport,
    };
    pub use swan_sqlengine::{
        Database, DurabilityConfig, OptimizerConfig, QueryResult, ScalarUdf, Session,
        SharedDb, Value,
    };
}
