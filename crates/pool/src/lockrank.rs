//! The workspace lock hierarchy.
//!
//! Every long-lived lock in the engine is constructed with
//! `parking_lot::Mutex::with_rank` / `RwLock::with_rank` using a rank from
//! this table. Ranks are a total order over lock *classes*: a thread may
//! only acquire a lock whose rank is **>=** every rank it already holds
//! (equal ranks are for classes whose members are taken in a deterministic
//! internal order, like the per-table writer locks, which are always taken
//! in sorted table-name order). The runtime validator in the vendored
//! `parking_lot` shim enforces this on every `cargo test` run and whenever
//! `SWAN_LOCKDEP=1`; `swan-analyze` statically requires every long-lived
//! lock to declare a rank.
//!
//! This module is the single source of truth for rank *numbers*; the
//! human-readable "who may hold what while taking what" table lives in
//! `ANALYSIS.md` and must be kept in sync. Lower rank = outer lock
//! (acquired first). Gaps are deliberate — new locks slot in without
//! renumbering.
//!
//! It lives in `swan_pool` because that is the one crate every lock-holding
//! crate already depends on; the shim itself stays policy-free.

/// Per-table writer mutexes (`SharedDb`). One class; multi-table commits
/// acquire members in sorted table-name order, which equal-rank
/// same-class tracking permits.
pub const TABLE_WRITER: u32 = 10;

/// Group-commit queue state (`CommitQueue.state`). Taken by committers
/// while holding their writer locks; the leader re-takes it after the
/// WAL fsync to hand out follower results.
pub const COMMIT_QUEUE: u32 = 20;

/// The write-ahead log (`Mutex<Wal>`). Held across the whole commit
/// sequence — append + fsync, tree apply, install, checkpoint; may take
/// the pager, catalog and VFS locks below it.
pub const WAL: u32 = 30;

/// The paged-storage core (`pager::Pager.inner`: page file handle, slot
/// map, free list, per-table tree roots). Taken under the WAL lock when
/// commits apply deltas to the B-trees and when checkpoints flush dirty
/// pages; takes the buffer pool and the VFS below it. Never taken while
/// holding `CATALOG` or `MVCC_HISTORY`.
pub const PAGER: u32 = 32;

/// The page buffer pool (`bufpool::BufferPool`): frame table, pin counts,
/// clock hand, eviction stats. Taken under `PAGER`; evicting a dirty
/// frame issues a page write, so the VFS lock sits below it.
pub const BUF_POOL: u32 = 34;

/// SimFs shared state (fault plan, file images). Leaf of the I/O stack:
/// taken by VFS operations issued under the WAL lock.
pub const VFS_SIM: u32 = 40;

/// The catalog (`RwLock<Catalog>`): snapshot reads and commit installs.
pub const CATALOG: u32 = 50;

/// `SharedDb` settings (`RwLock<Settings>`): UDF registry, optimizer
/// configuration, default statement timeout and the engine clock handle.
/// Read once per statement, never held while taking another lock.
pub const SETTINGS: u32 = 51;

/// MVCC commit history + snapshot pins (`shared::Shared.history`).
/// Above `CATALOG`: `BEGIN` pins the history sequence under the catalog
/// read lock and installs record their write sets under the catalog
/// write lock, so history is always the inner lock of the pair.
pub const MVCC_HISTORY: u32 = 56;

/// Per-query scalar-subquery memo cache (`exec::SubqueryCache`).
pub const SUBQUERY_CACHE: u32 = 60;

/// The UDF pathway's one lock (`udf::Shared.store`): answers and in-flight
/// fetches in one map. Taken from every session's statement thread; never
/// held across a model call or a flight wait.
pub const UDF_STORE: u32 = 71;

/// Circuit-breaker state (`ResilientModel`). Never held across a model
/// call.
pub const LLM_BREAKER: u32 = 81;

/// SimTransport fault plan.
pub const SIM_TRANSPORT: u32 = 82;

/// The simulated model's remembered prompt heads (`sim::HeadMemo`). A
/// leaf: a lookup or an insert, never held while parsing, counting
/// tokens or answering.
pub const SIM_HEADS: u32 = 83;

/// Pool job queue receiver. Held only while a worker blocks in `recv`,
/// never while running a job.
pub const POOL_QUEUE: u32 = 90;

/// Pool completion latch. Waited on by submitters that may hold writer
/// locks (rank 10) and by workers holding nothing.
pub const POOL_LATCH: u32 = 91;

/// The `SharedDb` table-lock map. A leaf: taken briefly under a writer
/// lock when pruning idle entries.
pub const TABLE_LOCK_MAP: u32 = 190;

/// Per-commit-request result slot (`CommitRequest.done`). The deepest
/// leaf: waiters take it under the queue lock, the leader takes it after
/// the fsync while still holding writer locks.
pub const COMMIT_DONE: u32 = 200;
