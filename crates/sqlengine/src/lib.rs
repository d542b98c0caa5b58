//! # swan-sqlengine
//!
//! An embedded, in-memory relational SQL engine built as the substrate for
//! *hybrid querying over relational databases and large language models*
//! (the SWAN benchmark / HQDL paper, CIDR 2025).
//!
//! The engine plays the role SQLite plays in the paper:
//!
//! * a SQLite-flavoured SQL dialect — dynamic typing, `LIKE`/`GLOB`,
//!   three-valued logic, joins, grouping, compound selects, subqueries;
//! * DDL/DML (`CREATE`/`DROP`/`ALTER TABLE`, `INSERT`, `UPDATE`, `DELETE`)
//!   so HQDL can *materialize* LLM-generated tables (schema expansion);
//! * a scalar-UDF registry with an *expensive-function* cost hint, so
//!   BlendSQL-style LLM functions participate in optimization — the
//!   optimizer pushes cheap predicates down and orders LLM predicates last
//!   to minimize calls (paper §4.2–4.3);
//! * a **zero-copy execution core**: text values are shared one-word
//!   strings (`Value::Text(ThinStr)`, a 16-byte cell), rows are shared
//!   (`Row = Arc<[Value]>`),
//!   hash joins build on the smaller side, and INNER-join chains are
//!   reordered by catalog row-count statistics — see `PERF.md` for the
//!   representation notes and measured numbers;
//! * **columnar execution** ([`columnar`], [`OptimizerConfig::columnar`],
//!   default on): each table lazily
//!   caches typed column vectors with validity bitmaps (dictionary-encoded
//!   text, raw `i64`/`f64`/bool), and supported scan predicates, GROUP BY
//!   keys, hash-join keys and plain-column aggregates run as
//!   word-at-a-time Kleene-logic / tight-loop kernels over the column
//!   slices, materializing `Row`s lazily only at the engine boundary.
//!   `columnar: false` is bit-for-bit the row path, and the `config_diff`
//!   differential harness pins columnar ≡ row (PERF.md, "Columnar
//!   execution", for the measured 1.7–2.2× scan/aggregate speedups);
//! * **operator loops on the statement thread** ([`exec`]): every loop
//!   runs in input order over morsel-sized ranges with a cancellation
//!   check between them. Concurrency lives where the paper's workload
//!   waits — the model calls of one batched UDF invocation overlap
//!   (`swan_llm::parallel`), and [`SharedDb`] sessions run side by side
//!   (PERF.md, "Concurrency", for why loops do not fan out);
//! * a **concurrently shareable database** ([`SharedDb`]): an
//!   `Arc`-cloneable handle whose sessions read O(tables) snapshots
//!   without blocking writers, while writers serialize per table and
//!   atomically install new `Arc<Table>` versions — no lost updates, no
//!   poisoned locks, and UDF single-flight/answer stores shared across
//!   sessions;
//! * **multi-statement transactions** (`BEGIN` / `COMMIT` / `ROLLBACK`):
//!   a [`SharedDb`] [`Session`] — the only holder of a transaction; a
//!   bare [`Database`] answers transaction control with a typed
//!   [`Error::Txn`] — runs whole statement spans under **snapshot
//!   isolation** — `BEGIN` pins an O(tables) snapshot, reads see the
//!   snapshot plus the session's own uncommitted writes, and `COMMIT` installs every written table
//!   atomically behind a **row-level first-committer-wins** check:
//!   every commit records its per-primary-key write set in a bounded
//!   history, validation intersects the committing transaction's write
//!   set with every commit since its snapshot, transactions that
//!   touched **disjoint rows** of the same table rebase and commit
//!   (no false conflicts), and only true row overlaps — or
//!   table-granular writes like DDL and writes to PK-less tables —
//!   abort with an [`Error::Conflict`] that names the overlapping rows
//!   (the caller retries). A watermark GC truncates the write-set
//!   history past the oldest live snapshot, so memory stays bounded
//!   under churn ([`SharedDb::mvcc_stats`] exposes
//!   [`MvccStats`] for the invariants);
//! * **crash durability** ([`SharedDb::open`], the one handle that can
//!   open a durable file; [`Database`] is the in-memory statement
//!   executor it runs each statement on): every commit appends a
//!   checksummed `Begin/Delta/Commit` record group to an append-only
//!   write-ahead log and fsyncs *before* installing; recovery
//!   replays the longest intact prefix, truncates torn tails, and
//!   auto-checkpoints compact the log past a configurable size
//!   ([`DurabilityConfig`]) — see [`wal`] and [`txn`];
//! * **paged on-disk storage** ([`pager`], [`btree`]): the recovery
//!   image lives in 4 KiB slotted pages (id/epoch/type/CRC header,
//!   double-slot shadow paging); tables with a primary key are B-trees
//!   keyed by the encoded pk. Only a checkpoint writes the pages: a
//!   commit just appends to the log, and a checkpoint folds the log's
//!   tail into the trees as upserts through a capped page set, writes
//!   only the pages it touched — O(changes), not O(database) — and
//!   commits the slot flip through an atomically renamed meta file.
//!   Queries never read a page: they run on the in-memory catalog,
//!   where the planner serves `WHERE pk = ?` as a hash-index point
//!   probe ([`OptimizerConfig::index_scan`]; off, it is the scan-only
//!   reference planner the `slt` and `config_diff` harnesses compare
//!   against), and `tests/paged_storage.rs` asserts the O(k·pages)
//!   checkpoint byte bound (PERF.md, "Paged storage", for the measured
//!   ~870× point-probe speedup on 1M rows). This is the only durable
//!   format: a log in the older whole-image format is refused with a
//!   typed error, never migrated or truncated;
//! * **group commit**: concurrent [`SharedDb`] committers enqueue their framed record
//!   groups and one leader appends the whole batch with a **single
//!   fsync**, installs every group atomically, and wakes the batch — the
//!   WAL mutex is held only by the leader, so the next batch accumulates
//!   during the fsync and commit throughput multiplies under contention
//!   ([`SharedDb::commit_stats`] reports the commits-per-fsync ratio).
//!   The leader is the only caller of the commit sequence,
//!   `Wal::commit`; a single session is a batch of one;
//! * a **virtual filesystem seam** ([`vfs`]): all WAL and checkpoint I/O
//!   goes through a [`Vfs`] — [`RealFs`] in production, and the
//!   fault-injecting [`SimFs`] in tests, which records every
//!   write/fsync/rename and can deterministically fail or *crash* (with
//!   a torn in-flight write) at any operation index. The `crash_sim`
//!   harness sweeps every fault through every operation index of
//!   commit, checkpoint, group-commit and recovery schedules and proves
//!   recovery is always a clean prefix of acknowledged commits
//!   ([`SharedDb::open_on`] accepts an explicit `Vfs`);
//! * **statement timeouts & cooperative cancellation**: a
//!   `statement_timeout` set on a [`Database`], a [`SharedDb`] (the
//!   shared default) or a single [`Session`] (override) arms every
//!   statement with a deadline-bearing `swan_pool::CancelToken`,
//!   installed as the thread's current token for the statement's whole
//!   span (one arming function, `db::statement_token`, serves all
//!   three). Every operator loop checks it between morsels,
//!   long-running UDFs cooperate via
//!   `swan_pool::cancel::check_current()`, and a caller-installed token
//!   scopes a whole batch (or cancels from another thread). A tripped
//!   deadline surfaces as [`Error::Deadline`] with pinned wording —
//!   `statement timeout: deadline exceeded` (`tests/slt/errors.slt`
//!   locks it in);
//! * **surfaced script transactions**: [`SharedDb::execute_script`]
//!   refuses to silently drop a transaction a script leaves open — it
//!   rolls back and errors; a script that wants its span committed ends
//!   it with `COMMIT`.
//!
//! ## Transactions quick start
//!
//! ```
//! use swan_sqlengine::SharedDb;
//!
//! let db = SharedDb::new();
//! db.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)").unwrap();
//! db.execute("INSERT INTO acct VALUES (1, 100), (2, 0)").unwrap();
//!
//! let mut session = db.session();
//! session.execute("BEGIN").unwrap();
//! session.execute("UPDATE acct SET bal = bal - 40 WHERE id = 1").unwrap();
//! session.execute("UPDATE acct SET bal = bal + 40 WHERE id = 2").unwrap();
//! // Nothing is visible to other sessions until ...
//! session.execute("COMMIT").unwrap();
//!
//! let r = db.query("SELECT bal FROM acct ORDER BY id").unwrap();
//! assert_eq!(r.rows[0][0].render(), "60");
//! assert_eq!(r.rows[1][0].render(), "40");
//! ```
//!
//! ## Quick start
//!
//! ```
//! use swan_sqlengine::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE superhero (hero_name TEXT PRIMARY KEY, full_name TEXT)").unwrap();
//! db.execute("INSERT INTO superhero VALUES ('Spider-Man', 'Peter Parker')").unwrap();
//! let r = db.query("SELECT full_name FROM superhero WHERE hero_name = 'Spider-Man'").unwrap();
//! assert_eq!(r.rows[0][0].render(), "Peter Parker");
//! ```
//!
//! ## Enforced seams
//!
//! The engine's locks are ranked (`swan_pool::lockrank`) and validated
//! at runtime by the lockdep layer in the `parking_lot` shim: a rank
//! inversion or lock-order cycle panics with the lock names involved,
//! in debug builds and whenever `SWAN_LOCKDEP=1`. Statically,
//! `swan-analyze` lints this crate for raw `std::fs`/clock/thread use
//! outside the [`vfs`]/`Clock`/pool seams, unranked locks, and
//! panic-family calls on the commit/recovery files. `ANALYSIS.md` at
//! the workspace root documents the rules, the allowlist syntax, and
//! the who-holds-what lock table.

pub mod ast;
pub mod btree;
mod chunked;
pub mod columnar;
pub mod db;
pub mod display;
pub mod error;
pub mod eval;
pub mod exec;
pub mod functions;
pub mod hash;
pub mod keyindex;
pub mod lexer;
pub mod optimizer;
pub mod pager;
pub mod parser;
pub mod plan;
pub mod shared;
pub mod storage;
mod thinstr;
pub mod txn;
pub mod value;
pub mod vfs;
pub mod wal;

pub use chunked::ChunkedVec;
pub use db::{Database, QueryResult};
pub use error::{Error, Result};
pub use functions::{ScalarUdf, UdfRegistry};
pub use optimizer::OptimizerConfig;
pub use pager::{PagerStats, PoolStats};
pub use shared::{CommitStats, Session, SharedDb};
pub use txn::MvccStats;
pub use storage::{Catalog, Column, Table, TableStats};
pub use value::{Row, ThinStr, Value};
pub use vfs::{FaultKind, RealFs, SimFs, Torn, Vfs, VfsFile};
pub use wal::DurabilityConfig;
