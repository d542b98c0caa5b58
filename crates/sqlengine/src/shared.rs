//! A concurrently shareable database.
//!
//! [`Database`] executes one statement at a time against a catalog it
//! owns. [`SharedDb`] is everything around that: many concurrent
//! sessions, `BEGIN … COMMIT` transactions, and — it is the only handle
//! that can open a durable file — the write-ahead log and checkpoints:
//!
//! * **`Arc`-cloneable handle** — cloning a `SharedDb` is a refcount
//!   bump; every clone is a session over the same data, safe to move to
//!   another thread.
//! * **Snapshot reads** — a SELECT briefly read-locks the catalog,
//!   clones it (O(tables): the row storage is shared `Arc<Table>`s, so
//!   no cell is copied), drops the lock, and executes against the
//!   immutable snapshot. Long queries never block writers, and a session
//!   sees a consistent database state for the whole statement.
//! * **Writers serialized per table** — an auto-commit DML/DDL statement
//!   takes its target table's write lock, executes against a snapshot
//!   taken *under* that lock, and installs the new table version with a
//!   brief catalog write lock. Writers to different tables run fully
//!   concurrently; writers to the same table observe each other's
//!   committed state (read-modify-write statements like
//!   `UPDATE t SET n = n + 1` never lose updates).
//! * **Multi-statement transactions** — a [`Session`] (from
//!   [`SharedDb::session`]) runs `BEGIN … COMMIT` spans under snapshot
//!   isolation: `BEGIN` pins an O(tables) snapshot, statements buffer
//!   writes in a private working catalog (reads see the snapshot plus the
//!   session's own writes and nothing newer), and `COMMIT` installs every
//!   written table atomically behind a **row-level** first-committer-wins
//!   check: each write statement reports the primary keys it touched, and
//!   commit-time validation intersects the transaction's per-table write
//!   sets against every commit recorded since its pinned snapshot.
//!   Transactions that wrote *different rows* of the same table both
//!   commit (the later one rebases its rows onto the live table); only a
//!   genuine overlap — the same row, or a table-granular write such as
//!   DDL or DML on a table without a primary key — aborts with
//!   [`Error::Conflict`](crate::error::Error::Conflict) (naming the rows)
//!   and the caller retries. Readers can never observe a half-installed
//!   commit.
//! * **Version-chain GC** — the commit history backing row-level
//!   validation is bounded by a watermark: `BEGIN` pins its snapshot
//!   sequence, and every commit and transaction end truncates entries at
//!   or below the oldest live pin, so history memory stays bounded under
//!   churn while a long-lived snapshot keeps exactly the window it needs
//!   ([`SharedDb::mvcc_stats`] exposes the chain length and watermark).
//! * **Durability** — [`SharedDb::open`] backs every commit with the
//!   write-ahead log: the `Begin/Delta/Commit` group is appended and
//!   fsynced *before* the tables are installed, and recovery replays
//!   exactly the committed prefix (see [`crate::wal`]). A single session
//!   is the one-committer case of the same path, not a separate one.
//! * **Group commit** — concurrent committers do not fsync one at a
//!   time. Each committer frames its record group off-lock, enqueues it,
//!   and one *leader* drains the queue, appends every group with a
//!   single write + a single fsync, installs all of them under one
//!   catalog write lock, and wakes the whole batch. While the leader is
//!   in its fsync the next batch accumulates, so under contention the
//!   fsync cost amortizes across committers
//!   ([`SharedDb::commit_stats`] reports commits per fsync).
//! * **No poisoned locks** — all locks are `parking_lot`-style
//!   panic-transparent: a session that panics mid-statement cannot wedge
//!   its siblings. A failed statement installs nothing (the snapshot is
//!   discarded), so errors cannot corrupt shared state either.
//!
//! UDFs are registered once and shared by every session (the registry
//! stores `Arc<dyn ScalarUdf>`); stateful UDFs such as `llm_map` keep
//! their single-flight / answer-store behaviour *across* sessions because
//! all sessions call the same object.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};
use swan_pool::lockrank;
use swan_pool::ClockHandle;

use crate::ast::Statement;
use crate::db::{statement_token, Database, QueryResult, Settings};
use crate::error::{Error, Result};
use crate::functions::ScalarUdf;
use crate::optimizer::OptimizerConfig;
use crate::parser::{parse_script, parse_statement};
use crate::storage::Catalog;
use crate::txn::{
    build_row_patch, catalog_deltas, commit_records, rebase_table, validate_table,
    CommitHistory, MvccStats, TableDelta, Txn, TxnManager, WriteSet,
};
use crate::vfs::{RealFs, Vfs};
use crate::wal::{frame_group, DurabilityConfig, Recovered, Wal, WalRecord};

/// An embedded SQL database shared by many concurrent sessions. Clone the
/// handle freely — all clones address the same data. In-memory by
/// default; WAL-durable when opened with [`SharedDb::open`].
#[derive(Clone, Default)]
pub struct SharedDb {
    inner: Arc<Shared>,
}

struct Shared {
    catalog: RwLock<Catalog>,
    /// UDF registry, optimizer configuration, the database-wide default
    /// statement deadline (sessions can override their own; see
    /// [`Session::set_statement_timeout`]) and the clock deadlines are
    /// armed against: everything a per-statement [`Database`] is built
    /// from besides the catalog, read with one lock.
    settings: RwLock<Settings>,
    /// One write lock per (lowercased) table name, created on first
    /// write. Holding a table's lock serializes every mutation of that
    /// table — DML and DDL alike — while leaving other tables free.
    /// Transaction commits take the locks of *all* written tables in
    /// sorted name order (single-lock auto-commit writers cannot form a
    /// cycle against that order, so the acquisition is deadlock-free).
    table_locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    /// Transaction-id allocation (ids resume above the WAL's high-water
    /// mark after recovery).
    txns: TxnManager,
    /// Write-ahead log; `None` for in-memory databases. Only the
    /// group-commit *leader* (and an explicit [`SharedDb::checkpoint`])
    /// holds this mutex, the leader across append **and** install
    /// ([`Wal::commit`]), so a checkpoint taken under it can never miss a
    /// commit that already reached the log — and a logged-but-uninstalled
    /// commit can never be erased by a concurrent checkpoint.
    wal: Option<Mutex<Wal>>,
    /// The group-commit queue: pending framed commit groups plus the
    /// leader flag and wakeup signalling.
    commits: CommitQueue,
    /// Commit history for row-level conflict validation plus the snapshot
    /// pins bounding it (see [`CommitHistory`]). Locked *after* the
    /// catalog (rank `MVCC_HISTORY` > `CATALOG`): `BEGIN` pins under the
    /// catalog read lock and installs record under the catalog write
    /// lock, so a snapshot's catalog and its history sequence can never
    /// disagree.
    history: Mutex<CommitHistory>,
}

impl Shared {
    /// `durable` is the recovered log and the first free transaction id.
    fn new(catalog: Catalog, settings: Settings, durable: Option<(Wal, u64)>) -> Self {
        let (wal, first_txn) = match durable {
            Some((wal, first_txn)) => (Some(wal), first_txn),
            None => (None, 1),
        };
        Shared {
            catalog: RwLock::with_rank("catalog", lockrank::CATALOG, catalog),
            settings: RwLock::with_rank("settings", lockrank::SETTINGS, settings),
            table_locks: Mutex::with_rank("table_lock_map", lockrank::TABLE_LOCK_MAP, HashMap::new()),
            txns: TxnManager::new(first_txn),
            wal: wal.map(|wal| Mutex::with_rank("wal", lockrank::WAL, wal)),
            commits: CommitQueue::default(),
            history: Mutex::with_rank(
                "mvcc_history",
                lockrank::MVCC_HISTORY,
                CommitHistory::default(),
            ),
        }
    }
}

impl Default for Shared {
    fn default() -> Self {
        Shared::new(Catalog::default(), Settings::default(), None)
    }
}

/// One committer's entry in the group-commit queue: its framed
/// `Begin·Delta*·Commit` bytes, the deltas (and history write sets)
/// installed once the batch is durable, and the slot the leader posts
/// the commit's outcome (durability *and* install) in.
struct CommitRequest {
    bytes: Vec<u8>,
    deltas: Vec<(String, TableDelta)>,
    writes: Vec<(String, WriteSet)>,
    done: Mutex<Option<Result<()>>>,
}

/// A fully planned commit: what to install, the pre-encoded WAL records
/// making it durable (empty for in-memory databases), and the write sets
/// to record in the commit history.
struct PreparedCommit {
    deltas: Vec<(String, TableDelta)>,
    records: Vec<WalRecord>,
    writes: Vec<(String, WriteSet)>,
}

#[derive(Default)]
struct QueueState {
    pending: Vec<Arc<CommitRequest>>,
    /// True while some committer is leading a batch through the log.
    leader: bool,
}

struct CommitQueue {
    state: Mutex<QueueState>,
    /// Signalled when a leader finishes its batch (results are posted
    /// and leadership is free again).
    cv: Condvar,
    commits: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
}

impl Default for CommitQueue {
    fn default() -> Self {
        CommitQueue {
            state: Mutex::with_rank("commit_queue", lockrank::COMMIT_QUEUE, QueueState::default()),
            cv: Condvar::new(),
            commits: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
        }
    }
}

impl CommitQueue {
    fn record_batch(&self, size: usize) {
        self.commits.fetch_add(size as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.max_batch.fetch_max(size as u64, Ordering::Relaxed);
    }
}

/// Commit-path statistics for a [`SharedDb`] (see
/// [`SharedDb::commit_stats`]). With `sync` on, every batch is exactly
/// one fsync, so `commits as f64 / batches as f64` is the mean
/// commits-per-fsync — the group-commit amortization factor (1.0 means
/// no batching happened; the ceiling is the number of concurrent
/// committers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStats {
    /// Durable commits acknowledged.
    pub commits: u64,
    /// Log appends (each at most one fsync) that carried those commits.
    pub batches: u64,
    /// Largest single batch.
    pub max_batch: u64,
}

impl CommitStats {
    /// Mean commits per log append (= per fsync when `sync` is on).
    pub fn commits_per_fsync(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.commits as f64 / self.batches as f64
        }
    }
}

impl SharedDb {
    /// A fresh, empty shared database.
    pub fn new() -> Self {
        SharedDb::default()
    }

    /// Open (or create) a WAL-durable shared database at `path`. Replays
    /// the longest intact prefix of the log — truncating a torn tail from
    /// a crash mid-append — so the recovered catalog is always exactly
    /// the state as of the last durable commit.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        SharedDb::open_with(path, DurabilityConfig::default())
    }

    /// [`SharedDb::open`] with explicit durability tuning (checkpoint
    /// threshold, fsync policy, a checkpoint's page-set cap).
    pub fn open_with(path: impl AsRef<Path>, config: DurabilityConfig) -> Result<Self> {
        SharedDb::open_on(Arc::new(RealFs), path, config)
    }

    /// [`SharedDb::open_with`] on an explicit [`Vfs`] — all WAL and
    /// checkpoint I/O goes through it (crash-simulation tests inject a
    /// fault-injecting [`SimFs`](crate::vfs::SimFs) here).
    pub fn open_on(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<Self> {
        let Recovered { wal, catalog, max_txn } = Wal::open_on(vfs, path, config)?;
        let durable = Some((wal, max_txn + 1));
        Ok(SharedDb { inner: Arc::new(Shared::new(catalog, Settings::default(), durable)) })
    }

    /// Share an in-memory database: its catalog (the row storage is
    /// re-shared, not copied) and its settings. The result is in-memory
    /// too; only [`SharedDb::open`] makes a durable database.
    pub fn from_database(db: Database) -> Self {
        let settings = db.settings().clone();
        SharedDb { inner: Arc::new(Shared::new(db.into_catalog(), settings, None)) }
    }

    /// Commit-path statistics: how many durable commits were carried by
    /// how many log appends (fsyncs). In-memory databases report zeros.
    pub fn commit_stats(&self) -> CommitStats {
        let q = &self.inner.commits;
        CommitStats {
            commits: q.commits.load(Ordering::Relaxed),
            batches: q.batches.load(Ordering::Relaxed),
            max_batch: q.max_batch.load(Ordering::Relaxed),
        }
    }

    /// Observable state of the MVCC commit history: commits sequenced,
    /// history entries a pinned snapshot is keeping alive, open snapshot
    /// pins, and the GC watermark. The GC invariant tests assert on this
    /// (history drains to empty once every snapshot is released).
    pub fn mvcc_stats(&self) -> MvccStats {
        self.inner.history.lock().stats()
    }

    /// Page-store counters: durable epoch, allocated pages, and the
    /// page traffic of checkpoints and recovery (page-set hits, page
    /// reads, early write-backs). `None` for an in-memory database.
    pub fn pager_stats(&self) -> Option<crate::pager::PagerStats> {
        self.inner.wal.as_ref().map(|w| w.lock().pager_stats())
    }

    /// Force a checkpoint now (no-op in memory). Folds the commits the
    /// log holds since its last checkpoint into the paged store and
    /// writes only the pages they touched — O(changes), not O(database) —
    /// then compacts the log. It reads nothing but the log's committed
    /// groups, under the WAL lock: open transactions live in their
    /// sessions and are out of reach.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(wal) = &self.inner.wal else { return Ok(()) };
        wal.lock().checkpoint()
    }

    /// Register a scalar UDF (e.g. an LLM function) for every session.
    pub fn register_udf(&self, udf: Arc<dyn ScalarUdf>) {
        self.inner.settings.write().udfs.register(udf);
    }

    /// Set the optimizer configuration for statements executed from now
    /// on (in-flight statements keep the config they snapshotted).
    pub fn set_optimizer(&self, config: OptimizerConfig) {
        self.inner.settings.write().optimizer = config;
    }

    pub fn optimizer(&self) -> OptimizerConfig {
        self.inner.settings.read().optimizer
    }

    /// Set (or clear) the database-wide default per-statement deadline.
    /// A statement running past it fails with
    /// [`Error::Deadline`](crate::error::Error::Deadline) at the next
    /// cooperative checkpoint; sessions may override their own (see
    /// [`Session::set_statement_timeout`]).
    pub fn set_statement_timeout(&self, timeout: Option<Duration>) {
        self.inner.settings.write().statement_timeout = timeout;
    }

    pub fn statement_timeout(&self) -> Option<Duration> {
        self.inner.settings.read().statement_timeout
    }

    /// Swap the clock statement deadlines are armed against (tests inject
    /// a [`SimClock`](swan_pool::SimClock) for deterministic expiry).
    pub fn set_clock(&self, clock: ClockHandle) {
        self.inner.settings.write().clock = clock;
    }

    pub fn clock(&self) -> ClockHandle {
        self.inner.settings.read().clock.clone()
    }

    /// A single-statement database over `catalog` with the current
    /// settings: what every statement — auto-commit, in-transaction or
    /// read-only — actually executes on.
    fn statement_db(&self, catalog: Catalog) -> Database {
        Database::from_parts(catalog, self.inner.settings.read().clone())
    }

    /// A consistent single-session snapshot of the current state: shares
    /// the `Arc<Table>` row storage (O(tables)), never blocks writers
    /// beyond the brief catalog read lock. Later writes through the
    /// shared handle are not visible to the snapshot, and mutating the
    /// snapshot (it is a plain [`Database`]) copy-on-writes privately.
    pub fn snapshot(&self) -> Database {
        self.statement_db(self.catalog_snapshot())
    }

    /// A consistent snapshot of the catalog alone (the `BEGIN` pin).
    fn catalog_snapshot(&self) -> Catalog {
        self.inner.catalog.read().clone()
    }

    /// The `BEGIN` pin: a catalog snapshot plus its commit-history
    /// sequence, registered as a live pin. Both are taken under the
    /// catalog read lock, so the sequence covers exactly the commits the
    /// snapshot contains — validation later checks exactly the rest.
    /// Every pin must be released with [`unpin_snapshot`]
    /// (SharedDb::unpin_snapshot) or the history GC stalls.
    fn begin_snapshot(&self) -> (Catalog, u64) {
        let catalog = self.inner.catalog.read();
        let seq = self.inner.history.lock().pin_snapshot();
        (catalog.clone(), seq)
    }

    /// Release a `BEGIN` pin, letting the watermark GC truncate history
    /// entries no remaining snapshot needs.
    fn unpin_snapshot(&self, seq: u64) {
        self.inner.history.lock().unpin_snapshot(seq);
    }

    /// An interactive session over this database: the handle through
    /// which multi-statement `BEGIN … COMMIT` transactions run.
    pub fn session(&self) -> Session {
        Session { db: self.clone(), txn: None, statement_timeout: None }
    }

    /// Execute a read-only query against a snapshot.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.snapshot().query(sql)
    }

    /// Execute one auto-commit statement. Reads run on a snapshot; writes
    /// serialize per target table and atomically install (and, on a
    /// durable database, log) the new table version. Transaction control
    /// needs a statement-spanning holder — use [`SharedDb::session`] or
    /// a `BEGIN … COMMIT` span inside [`SharedDb::execute_script`].
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        let stmt = parse_statement(sql)?;
        if stmt.is_txn_control() {
            return Err(Error::Txn(
                "transactions span statements; open one through SharedDb::session() \
                 (or run the BEGIN…COMMIT span inside execute_script)"
                    .into(),
            ));
        }
        self.execute_autocommit(&stmt)
    }

    /// Execute a semicolon-separated script on a temporary session;
    /// returns the last result.
    ///
    /// Outside an explicit transaction each statement commits (and
    /// becomes visible to other sessions) independently. A
    /// `BEGIN … COMMIT` span inside the script runs as one snapshot-
    /// isolation transaction: nothing becomes visible until the `COMMIT`,
    /// and an error anywhere inside the span rolls the whole transaction
    /// back ([`Session::execute_script`]). A transaction still open when
    /// the script ends is an **error** ([`Error::Txn`], after rolling it
    /// back): the script was the transaction's only holder, so falling
    /// off the end can never silently discard a span's writes — nor
    /// silently commit them. End the span with `COMMIT` or `ROLLBACK`.
    pub fn execute_script(&self, sql: &str) -> Result<QueryResult> {
        let mut session = self.session();
        let last = session.execute_script(sql)?;
        if session.in_transaction() {
            // Dropping the session below rolls the span back.
            return Err(Error::Txn(
                "script ended with an open transaction (its writes were rolled \
                 back); COMMIT or ROLLBACK inside the script"
                    .into(),
            ));
        }
        Ok(last)
    }

    /// One auto-commit statement: the per-table writer path.
    fn execute_autocommit(&self, stmt: &Statement) -> Result<QueryResult> {
        let Some(target) = stmt.write_target().map(str::to_string) else {
            // SELECT: snapshot execution, no locks held while running.
            return self.snapshot().execute_statement(stmt);
        };

        // Serialize writers on the target table for the whole
        // read-modify-write cycle: snapshot under the lock, execute
        // against the snapshot, log + install the new version.
        let lock = self.table_lock(&target);
        let _guard = lock.lock();

        let base = self.catalog_snapshot();
        let mut db = self.statement_db(base.clone());
        let result = db.execute_statement(stmt)?;
        let stmt_writes = db.take_stmt_writes();

        // Install only the target table's new version (or its removal):
        // concurrent writers to *other* tables committed after our
        // snapshot must not be clobbered, so the whole catalog is never
        // written back. The table lock covers the whole read-modify-write
        // cycle, so no conflict validation is needed — but the write set
        // still goes into the commit history for *transactions* to
        // validate against.
        let key = target.to_ascii_lowercase();
        let deltas = catalog_deltas(std::slice::from_ref(&key), &base, db.catalog());
        let dropped = matches!(deltas.first(), Some((_, TableDelta::Drop)));
        let mut prepared =
            PreparedCommit { deltas, records: Vec::new(), writes: Vec::new() };
        if !prepared.deltas.is_empty() {
            let mut write_sets = HashMap::with_capacity(1);
            write_sets.insert(key, WriteSet::from_stmt(stmt_writes));
            if self.inner.wal.is_some() {
                prepared.records = commit_records(
                    self.inner.txns.fresh_id(),
                    &base,
                    &prepared.deltas,
                    &write_sets,
                );
            }
            prepared.writes = write_sets.into_iter().collect();
        }
        self.log_and_install(prepared)?;
        if dropped {
            self.prune_table_lock(&target, &lock);
        }
        Ok(result)
    }

    /// Commit an open transaction: acquire every written table's lock in
    /// sorted order, run the row-level first-committer-wins validation
    /// against the commit history, rebase row-disjoint writes onto the
    /// live tables, then log + install all deltas atomically.
    fn commit_txn(&self, txn: &Txn, working: &Catalog) -> Result<()> {
        let deltas = catalog_deltas(txn.written(), &txn.snapshot, working);
        if deltas.is_empty() {
            return Ok(());
        }
        // Sorted acquisition order: no deadlock against other committers
        // (same order) or auto-commit writers (single lock each).
        let mut names: Vec<String> = deltas.iter().map(|(n, _)| n.clone()).collect();
        names.sort();
        let locks: Vec<Arc<Mutex<()>>> = names.iter().map(|n| self.table_lock(n)).collect();
        let _guards: Vec<_> = locks.iter().map(|l| l.lock()).collect();

        // Holding every written table's lock freezes their live versions:
        // any commit that could change them must take the same locks.
        let live: Vec<Option<Arc<crate::storage::Table>>> = {
            let catalog = self.inner.catalog.read();
            deltas.iter().map(|(n, _)| catalog.get(n).cloned()).collect()
        };

        // Row-level validation: per table, either the live version is
        // still the snapshot's (clean install), or every commit since the
        // pinned snapshot is row-disjoint from ours (rebase), or abort.
        let clean: Vec<bool> = {
            let history = self.inner.history.lock();
            deltas
                .iter()
                .zip(&live)
                .map(|((name, _), live_t)| {
                    validate_table(txn, name, live_t.as_ref(), &history)
                })
                .collect::<Result<_>>()?
        };

        // Plan the installs and WAL records (off every shared lock; we
        // only hold the table locks). Clean tables install the working
        // version as-is; dirty-but-disjoint tables rebase their row patch
        // onto the live table, and the WAL logs exactly that patch.
        let durable = self.inner.wal.is_some();
        let mut out_deltas = Vec::with_capacity(deltas.len());
        let mut records = Vec::new();
        let mut writes: Vec<(String, WriteSet)> = Vec::with_capacity(deltas.len());
        if durable {
            records.push(WalRecord::Begin { txn: txn.id() });
        }
        for (((name, delta), live_t), is_clean) in
            deltas.into_iter().zip(live).zip(clean)
        {
            let ws = txn.write_set(&name).cloned();
            if is_clean {
                if durable {
                    records.push(WalRecord::Delta {
                        txn: txn.id(),
                        delta: crate::txn::wal_delta(
                            &name,
                            live_t.as_ref(),
                            &delta,
                            ws.as_ref(),
                        ),
                    });
                }
                out_deltas.push((name.clone(), delta));
            } else {
                let live_t = live_t.ok_or_else(|| {
                    Error::Internal(format!("rebase of '{name}' without a live table"))
                })?;
                let working_t = working.get(&name).cloned().ok_or_else(|| {
                    Error::Internal(format!("rebase of '{name}' without a working table"))
                })?;
                let Some(WriteSet::Rows { keys, .. }) = &ws else {
                    return Err(Error::Internal(format!(
                        "rebase of '{name}' without a row write set"
                    )));
                };
                let (del_rows, upserts) = build_row_patch(&working_t, keys);
                let patched = rebase_table(&live_t, &working_t, &del_rows, upserts.clone())?;
                if durable {
                    records.push(WalRecord::Delta {
                        txn: txn.id(),
                        delta: crate::wal::WalDelta::RowPatch {
                            table: name.clone(),
                            deletes: del_rows,
                            upserts,
                            new_version: patched.version,
                        },
                    });
                }
                out_deltas.push((name.clone(), TableDelta::Put(patched)));
            }
            if let Some(ws) = ws {
                writes.push((name, ws));
            }
        }
        if durable {
            records.push(WalRecord::Commit { txn: txn.id() });
        }
        self.log_and_install(PreparedCommit { deltas: out_deltas, records, writes })
    }

    /// The commit point shared by auto-commit statements and transaction
    /// commits: make the `Begin·Delta*·Commit` group durable, then
    /// install every delta under one catalog write lock — readers see all
    /// of the commit or none of it.
    ///
    /// On a durable database the group goes through the **group-commit
    /// queue**: the committer frames its records off-lock, enqueues, and
    /// either becomes the batch leader or waits to be woken acknowledged. The
    /// caller must already hold the write locks of every table in
    /// `deltas` (auto-commit holds one; a transaction commit holds its
    /// sorted set), which is what makes the leader's batched install
    /// safe: no two queued groups can touch the same table.
    fn log_and_install(&self, prepared: PreparedCommit) -> Result<()> {
        let PreparedCommit { deltas, records, writes } = prepared;
        if deltas.is_empty() {
            return Ok(());
        }
        let Some(wal) = self.inner.wal.as_ref() else {
            // In-memory: no log, just the atomic install + history entry.
            self.install_and_record(&deltas, &writes);
            return Ok(());
        };
        // A key the paged store cannot hold is refused here, before the
        // append: logged, it would fail every later checkpoint.
        let pk_of = |name: &str| match deltas.iter().find(|(n, _)| n == name) {
            Some((_, TableDelta::Put(table))) => Some(table.primary_key.as_slice()),
            _ => None,
        };
        for rec in &records {
            if let WalRecord::Delta { delta, .. } = rec {
                crate::pager::check_key_sizes(delta, pk_of)?;
            }
        }
        let req = Arc::new(CommitRequest {
            bytes: frame_group(&records),
            deltas,
            writes,
            done: Mutex::with_rank("commit_done", lockrank::COMMIT_DONE, None),
        });
        let queue = &self.inner.commits;
        let mut state = queue.state.lock();
        state.pending.push(req.clone());
        loop {
            let outcome = req.done.lock().take();
            if let Some(result) = outcome {
                return result;
            }
            if state.leader {
                // A leader is in flight; it either took our group or will
                // be followed by one that does. Wait for its wakeup.
                state = queue.cv.wait(state);
                continue;
            }
            // Become the leader: drain everything queued so far (our own
            // group included) and drive it through the log as one batch.
            // The guard releases leadership (and fails any request left
            // without a result) even if the leader unwinds, so a panic
            // can never wedge queued or future committers — the
            // panic-transparency the module promises.
            state.leader = true;
            let batch = std::mem::take(&mut state.pending);
            drop(state);
            {
                let _guard = LeaderGuard { db: self, batch: &batch };
                self.lead_commit(wal, &batch);
            }
            state = queue.state.lock();
        }
    }

    /// Drive one batch through the log ([`Wal::commit`]): a single write +
    /// fsync for every queued group, the whole batch installed under one
    /// catalog write lock, a checkpoint if the log outgrew its budget —
    /// then post every outcome. The append is all-or-nothing (a failure
    /// rolls the file back to the last group boundary), so the whole
    /// batch shares one outcome.
    fn lead_commit(&self, wal: &Mutex<Wal>, batch: &[Arc<CommitRequest>]) {
        let mut frames = Vec::with_capacity(batch.iter().map(|r| r.bytes.len()).sum());
        for req in batch {
            frames.extend_from_slice(&req.bytes);
        }
        let result = wal.lock().commit(&frames, || {
            let mut catalog = self.inner.catalog.write();
            let mut history = self.inner.history.lock();
            for req in batch {
                install_into(&mut catalog, &req.deltas);
                history.record_commit(req.writes.clone());
            }
        });
        if result.is_ok() {
            self.inner.commits.record_batch(batch.len());
        }
        for req in batch {
            *req.done.lock() = Some(result.clone());
        }
    }

    /// Install one commit's deltas and record its write sets in the
    /// commit history, atomically with respect to snapshotters: the
    /// history entry is added under the catalog write lock, so a `BEGIN`
    /// (which pins under the catalog read lock) sees either both the
    /// commit's tables and its sequence or neither.
    fn install_and_record(
        &self,
        deltas: &[(String, TableDelta)],
        writes: &[(String, WriteSet)],
    ) {
        let mut catalog = self.inner.catalog.write();
        install_into(&mut catalog, deltas);
        self.inner.history.lock().record_commit(writes.to_vec());
    }

    /// Drop a dropped table's lock entry so create/drop-heavy workloads
    /// don't grow the lock map without bound. Safe only when nobody else
    /// holds the `Arc` (strong count 2 = our clone + the map's): a waiter
    /// blocked on this lock must keep resolving to the *same* mutex, or
    /// two writers could mutate a recreated table concurrently. New
    /// clones are only handed out under the map mutex we hold here, so
    /// the check cannot race.
    fn prune_table_lock(&self, name: &str, lock: &Arc<Mutex<()>>) {
        let key = name.to_ascii_lowercase();
        let mut locks = self.inner.table_locks.lock();
        if Arc::strong_count(lock) == 2 {
            locks.remove(&key);
        }
    }

    fn table_lock(&self, name: &str) -> Arc<Mutex<()>> {
        let key = name.to_ascii_lowercase();
        let mut locks = self.inner.table_locks.lock();
        locks
            .entry(key)
            .or_insert_with(|| {
                Arc::new(Mutex::with_rank("table_writer", lockrank::TABLE_WRITER, ()))
            })
            .clone()
    }

    /// Names of the current tables (snapshot).
    pub fn table_names(&self) -> Vec<String> {
        self.inner.catalog.read().table_names()
    }

    /// Current row count of a table, if it exists (snapshot statistic).
    pub fn row_count(&self, table: &str) -> Option<usize> {
        self.inner.catalog.read().row_count(table)
    }
}

/// Unwinding-safe leadership release: dropped when the group-commit
/// leader finishes its batch — normally after `lead_commit` posted every
/// result, or mid-unwind if the leader panicked. Either way leadership
/// clears and the condvar wakes everyone; on the panic path any request
/// still without a result is failed (its commit outcome is unknown — the
/// group may or may not have reached the log before the panic), so
/// followers surface an error instead of blocking forever.
struct LeaderGuard<'a> {
    db: &'a SharedDb,
    batch: &'a [Arc<CommitRequest>],
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        for req in self.batch {
            let mut done = req.done.lock();
            if done.is_none() {
                *done = Some(Err(Error::Io(
                    "group-commit leader panicked; commit outcome unknown — \
                     reopen the database to recover the durable state"
                        .into(),
                )));
            }
        }
        let queue = &self.db.inner.commits;
        let mut state = queue.state.lock();
        state.leader = false;
        drop(state);
        queue.cv.notify_all();
    }
}

/// Apply one commit's deltas to a catalog already locked for writing.
fn install_into(catalog: &mut Catalog, deltas: &[(String, TableDelta)]) {
    for (name, delta) in deltas {
        match delta {
            TableDelta::Put(table) => catalog.put_shared(table.clone()),
            TableDelta::Drop => {
                let _ = catalog.drop_table(name);
            }
        }
    }
}

/// One session over a [`SharedDb`]: the holder of at most one open
/// `BEGIN … COMMIT` transaction. Outside a transaction it behaves exactly
/// like the shared handle (per-statement auto-commit); inside one,
/// statements buffer in a private working catalog under snapshot
/// isolation until `COMMIT` publishes them atomically (or a conflicting
/// commit / `ROLLBACK` discards them).
///
/// Dropping a session with an open transaction rolls the transaction
/// back — nothing uncommitted can leak.
pub struct Session {
    db: SharedDb,
    /// The open transaction and its working catalog (pinned snapshot plus
    /// this session's own writes).
    txn: Option<(Txn, Catalog)>,
    /// This session's statement-timeout override: `None` inherits the
    /// shared default, `Some(t)` pins it (including `Some(None)` =
    /// explicitly unlimited).
    statement_timeout: Option<Option<Duration>>,
}

impl Session {
    /// True while a `BEGIN` is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Override the shared database's default statement timeout for this
    /// session only. `Some(d)` arms every subsequent statement with
    /// deadline `d`; `None` makes this session explicitly unlimited.
    pub fn set_statement_timeout(&mut self, timeout: Option<Duration>) {
        self.statement_timeout = Some(timeout);
    }

    pub fn statement_timeout(&self) -> Option<Duration> {
        self.statement_timeout.unwrap_or_else(|| self.db.statement_timeout())
    }

    /// The cancel token for one of this session's statements, armed
    /// from the effective timeout (see [`statement_token`]).
    fn statement_token(&self) -> swan_pool::CancelToken {
        let settings = self.db.inner.settings.read();
        let timeout = self.statement_timeout.unwrap_or(settings.statement_timeout);
        statement_token(timeout, &settings.clock)
    }

    /// Execute one statement (transaction control included).
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(&stmt)
    }

    /// Execute a semicolon-separated script; returns the last result.
    /// This is the one place script spans are tracked: an error inside a
    /// `BEGIN … COMMIT` span the script itself opened rolls that span
    /// back, while a transaction already open *before* the script keeps
    /// SQLite semantics — the failing statement has no effect and the
    /// transaction stays open. The session outlives the script, so a
    /// span the script opens and does not close stays open on it.
    pub fn execute_script(&mut self, sql: &str) -> Result<QueryResult> {
        let stmts = parse_script(sql)?;
        let mut last = QueryResult::default();
        let mut script_txn = false;
        for stmt in &stmts {
            match self.execute_statement(stmt) {
                Ok(r) => last = r,
                Err(e) => {
                    if script_txn && self.txn.is_some() {
                        self.rollback_open_txn(); // roll the script's span back
                    }
                    return Err(e);
                }
            }
            match stmt {
                Statement::Begin => script_txn = true,
                Statement::Commit | Statement::Rollback => script_txn = false,
                _ => {}
            }
        }
        Ok(last)
    }

    /// Execute a read-only query: against the transaction's working state
    /// when one is open (the session sees its own uncommitted writes),
    /// against a fresh snapshot otherwise.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let token = self.statement_token();
        swan_pool::cancel::with_current(&token, || match &self.txn {
            Some((_, working)) => self.db.statement_db(working.clone()).query(sql),
            None => self.db.query(sql),
        })
    }

    /// Discard an open transaction (if any), releasing its snapshot pin
    /// so the history GC can advance past it.
    fn rollback_open_txn(&mut self) {
        if let Some((txn, _)) = self.txn.take() {
            self.db.unpin_snapshot(txn.snapshot_seq);
        }
    }

    pub(crate) fn execute_statement(&mut self, stmt: &Statement) -> Result<QueryResult> {
        let token = self.statement_token();
        swan_pool::cancel::with_current(&token, || self.execute_statement_inner(stmt))
    }

    fn execute_statement_inner(&mut self, stmt: &Statement) -> Result<QueryResult> {
        match stmt {
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(Error::Txn("a transaction is already active".into()));
                }
                let (snapshot, seq) = self.db.begin_snapshot();
                let txn = self.db.inner.txns.begin(snapshot.clone(), seq);
                self.txn = Some((txn, snapshot));
                Ok(QueryResult::default())
            }
            Statement::Commit => {
                let (txn, working) = self
                    .txn
                    .take()
                    .ok_or_else(|| Error::Txn("COMMIT without an active transaction".into()))?;
                // On conflict the transaction is consumed either way:
                // first committer won, this session's buffered writes are
                // discarded, and the caller retries from a fresh BEGIN.
                let result = self.db.commit_txn(&txn, &working);
                self.db.unpin_snapshot(txn.snapshot_seq);
                result?;
                Ok(QueryResult::default())
            }
            Statement::Rollback => {
                let (txn, _) = self
                    .txn
                    .take()
                    .ok_or_else(|| Error::Txn("ROLLBACK without an active transaction".into()))?;
                self.db.unpin_snapshot(txn.snapshot_seq);
                Ok(QueryResult::default())
            }
            _ => match &mut self.txn {
                Some((txn, working)) => {
                    // Buffered execution against the working overlay. The
                    // working catalog round-trips by ownership (no clone):
                    // statements are atomic by construction, so a failure
                    // leaves the transaction's state untouched, and the
                    // overlay's tables keep unique `Arc`s — batch DML
                    // mutates in place instead of copy-on-write cloning.
                    let mut db = self.db.statement_db(std::mem::take(working));
                    let result = db.execute_statement(stmt);
                    let writes = db.take_stmt_writes();
                    *working = db.into_catalog();
                    let result = result?;
                    if let Some(target) = stmt.write_target() {
                        txn.record_write(target, writes);
                    }
                    Ok(result)
                }
                None => self.db.execute_autocommit(stmt),
            },
        }
    }
}

impl Drop for Session {
    /// Rolling back an abandoned transaction also releases its snapshot
    /// pin — a dropped session must never stall the history watermark.
    fn drop(&mut self) {
        self.rollback_open_txn();
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("in_transaction", &self.in_transaction())
            .field("db", &self.db)
            .finish()
    }
}

impl std::fmt::Debug for SharedDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedDb")
            .field("tables", &self.table_names())
            .field("sessions", &Arc::strong_count(&self.inner))
            .field("durable", &self.inner.wal.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::value::Value;

    fn seeded() -> SharedDb {
        let db = SharedDb::new();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        db
    }

    #[test]
    fn clones_share_state() {
        let a = seeded();
        let b = a.clone();
        b.execute("INSERT INTO t VALUES (3, 30)").unwrap();
        let r = a.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Integer(3)));
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let db = seeded();
        let snap = db.snapshot();
        db.execute("INSERT INTO t VALUES (3, 30)").unwrap();
        assert_eq!(
            snap.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Integer(2)),
            "snapshot pinned"
        );
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Integer(3))
        );
    }

    #[test]
    fn failed_statement_installs_nothing() {
        let db = seeded();
        // Duplicate PK: the snapshot's partial state must not leak.
        let err = db.execute("INSERT INTO t VALUES (1, 99)").unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        let r = db.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Integer(2)));
    }

    #[test]
    fn ddl_round_trip() {
        let db = seeded();
        db.execute("ALTER TABLE t ADD COLUMN tag TEXT").unwrap();
        db.execute("CREATE TABLE u (x INTEGER)").unwrap();
        assert_eq!(db.table_names(), vec!["t", "u"]);
        db.execute("DROP TABLE u").unwrap();
        assert_eq!(db.table_names(), vec!["t"]);
        db.execute("DROP TABLE IF EXISTS u").unwrap();
    }

    #[test]
    fn update_on_shared_handle() {
        let db = seeded();
        let r = db.execute("UPDATE t SET n = n + 1 WHERE id = 1").unwrap();
        assert_eq!(r.rows_affected, 1);
        let q = db.query("SELECT n FROM t WHERE id = 1").unwrap();
        assert_eq!(q.scalar(), Some(&Value::Integer(11)));
    }

    /// Regression: `UPDATE`/`DELETE` that matched no row (and an
    /// `INSERT … SELECT` of nothing) still copied the table, bumped its
    /// version, logged and fsynced a `Begin·Delta·Commit` group, counted
    /// as a commit and entered the history — so a concurrent DDL
    /// transaction aborted over a change that changed nothing.
    #[test]
    fn zero_row_statements_commit_nothing() {
        let fs = crate::vfs::SimFs::new();
        let db = SharedDb::open_on(Arc::new(fs.clone()), "/db/wal", DurabilityConfig::default())
            .unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
        let observe = || {
            let table = db.inner.catalog.read().get("t").unwrap().clone();
            let log_len = fs.file_bytes("/db/wal").map(|b| b.len());
            (table, fs.op_count(), log_len, db.commit_stats(), db.mvcc_stats())
        };

        // A DDL transaction is open across all of it.
        let mut ddl = db.session();
        ddl.execute("BEGIN").unwrap();
        ddl.execute("ALTER TABLE t ADD COLUMN w INTEGER").unwrap();

        let before = observe();
        for sql in [
            "UPDATE t SET n = 5 WHERE id = 99",
            "DELETE FROM t WHERE id = 99",
            "UPDATE t SET n = 5 WHERE n > 1000",
            "DELETE FROM t WHERE n > 1000",
            "INSERT INTO t SELECT id + 100, n FROM t WHERE id = 99",
        ] {
            assert_eq!(db.execute(sql).unwrap().rows_affected, 0, "{sql}");
            let after = observe();
            assert!(Arc::ptr_eq(&before.0, &after.0), "{sql}: the catalog holds the same table");
            assert_eq!(before.0.version, after.0.version, "{sql}");
            assert_eq!(
                (before.1, before.2, before.3, before.4),
                (after.1, after.2, after.3, after.4),
                "{sql}: no I/O, no log bytes, no commit, no history entry"
            );
        }

        // Inside a transaction: no write-set entry, and COMMIT is silent.
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        session.execute("UPDATE t SET n = 5 WHERE id = 99").unwrap();
        session.execute("DELETE FROM t WHERE n > 1000").unwrap();
        let (txn, working) = session.txn.as_ref().unwrap();
        assert!(txn.written().is_empty(), "nothing was written: {:?}", txn.written());
        assert!(Arc::ptr_eq(working.get("t").unwrap(), &before.0));
        session.execute("COMMIT").unwrap();
        let after = observe();
        assert_eq!((before.1, before.2, before.3), (after.1, after.2, after.3));

        ddl.execute("COMMIT").expect("nothing changed under the DDL transaction");
        assert_eq!(db.query("SELECT w FROM t WHERE id = 1").unwrap().scalar(), Some(&Value::Null));
    }

    #[test]
    fn dropped_table_locks_are_pruned() {
        let db = seeded();
        for i in 0..32 {
            db.execute(&format!("CREATE TABLE tmp{i} (x INTEGER)")).unwrap();
            db.execute(&format!("INSERT INTO tmp{i} VALUES ({i})")).unwrap();
            db.execute(&format!("DROP TABLE tmp{i}")).unwrap();
        }
        let live = db.inner.table_locks.lock().len();
        assert_eq!(live, 1, "only the surviving table 't' keeps a lock entry, got {live}");
        // The surviving table still works.
        db.execute("INSERT INTO t VALUES (3, 30)").unwrap();
    }

    #[test]
    fn from_database_shares_rows() {
        let mut single = Database::new();
        single.execute("CREATE TABLE s (a INTEGER)").unwrap();
        single.execute("INSERT INTO s VALUES (7)").unwrap();
        let shared = SharedDb::from_database(single);
        assert_eq!(
            shared.query("SELECT a FROM s").unwrap().scalar(),
            Some(&Value::Integer(7))
        );
    }

    #[test]
    fn bare_txn_control_on_shared_handle_is_rejected() {
        let db = seeded();
        assert!(matches!(db.execute("BEGIN"), Err(Error::Txn(_))));
        assert!(matches!(db.execute("COMMIT"), Err(Error::Txn(_))));
    }

    #[test]
    fn session_txn_buffers_until_commit() {
        let db = seeded();
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        session.execute("INSERT INTO t VALUES (3, 30)").unwrap();
        session.execute("UPDATE t SET n = n + 1 WHERE id = 1").unwrap();

        // The session sees its own writes ...
        assert_eq!(
            session.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Integer(3))
        );
        // ... other sessions do not.
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Integer(2)),
            "uncommitted writes must be invisible"
        );

        session.execute("COMMIT").unwrap();
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Integer(3))
        );
        assert_eq!(
            db.query("SELECT n FROM t WHERE id = 1").unwrap().scalar(),
            Some(&Value::Integer(11))
        );
    }

    #[test]
    fn session_rollback_discards_writes() {
        let db = seeded();
        let mut session = db.session();
        session.execute("BEGIN TRANSACTION").unwrap();
        session.execute("DELETE FROM t").unwrap();
        assert_eq!(
            session.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Integer(0))
        );
        session.execute("ROLLBACK").unwrap();
        assert!(!session.in_transaction());
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Integer(2))
        );
    }

    #[test]
    fn session_reads_are_snapshot_isolated() {
        let db = seeded();
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        // A concurrent commit to an unrelated table after BEGIN.
        db.execute("CREATE TABLE other (x INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (99, 0)").unwrap();
        // The transaction still sees its pinned snapshot.
        assert_eq!(
            session.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Integer(2)),
            "snapshot isolation: later commits are invisible"
        );
        session.execute("ROLLBACK").unwrap();
        // Outside the transaction the session sees the live state again.
        assert_eq!(
            session.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Integer(3))
        );
    }

    #[test]
    fn first_committer_wins_conflict() {
        let db = seeded();
        let mut a = db.session();
        let mut b = db.session();
        a.execute("BEGIN").unwrap();
        b.execute("BEGIN").unwrap();
        a.execute("UPDATE t SET n = n + 1 WHERE id = 1").unwrap();
        b.execute("UPDATE t SET n = n + 10 WHERE id = 1").unwrap();
        a.execute("COMMIT").unwrap();
        let err = b.execute("COMMIT").unwrap_err();
        assert!(matches!(err, Error::Conflict(_)), "second committer must abort: {err}");
        assert!(!b.in_transaction(), "aborted transaction is closed");
        assert_eq!(
            db.query("SELECT n FROM t WHERE id = 1").unwrap().scalar(),
            Some(&Value::Integer(11)),
            "only the first commit applied"
        );
    }

    #[test]
    fn disjoint_table_txns_do_not_conflict() {
        let db = seeded();
        db.execute("CREATE TABLE u (x INTEGER)").unwrap();
        let mut a = db.session();
        let mut b = db.session();
        a.execute("BEGIN").unwrap();
        b.execute("BEGIN").unwrap();
        a.execute("INSERT INTO t VALUES (3, 30)").unwrap();
        b.execute("INSERT INTO u VALUES (1)").unwrap();
        a.execute("COMMIT").unwrap();
        b.execute("COMMIT").unwrap();
        assert_eq!(db.row_count("t"), Some(3));
        assert_eq!(db.row_count("u"), Some(1));
    }

    #[test]
    fn script_txn_is_atomic_on_shared_handle() {
        let db = seeded();
        // The third INSERT violates the primary key: the whole span must
        // roll back, leaving the pre-script state.
        let err = db
            .execute_script(
                "BEGIN;
                 INSERT INTO t VALUES (3, 30);
                 INSERT INTO t VALUES (4, 40);
                 INSERT INTO t VALUES (1, 99);
                 COMMIT;",
            )
            .unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Integer(2)),
            "mid-script failure must roll the whole transaction back"
        );

        // The happy path commits atomically.
        db.execute_script(
            "BEGIN; INSERT INTO t VALUES (3, 30); INSERT INTO t VALUES (4, 40); COMMIT;",
        )
        .unwrap();
        assert_eq!(db.row_count("t"), Some(4));
    }

    #[test]
    fn script_without_txn_keeps_per_statement_commit() {
        let db = seeded();
        let err = db
            .execute_script(
                "INSERT INTO t VALUES (3, 30);
                 INSERT INTO t VALUES (1, 99);",
            )
            .unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Integer(3)),
            "statements before the failure already committed"
        );
    }

    #[test]
    fn script_with_open_txn_at_end_is_surfaced() {
        let db = seeded();
        // Default: falling off the end of a script with an open
        // transaction is an error, and the span's writes are rolled back
        // — never silently discarded, never silently committed.
        let err = db
            .execute_script("BEGIN; INSERT INTO t VALUES (3, 30);")
            .unwrap_err();
        assert!(matches!(err, Error::Txn(_)), "must surface the open span: {err}");
        assert_eq!(db.row_count("t"), Some(2), "the open span's writes roll back");

        // Commit-on-end is spelled COMMIT; a span the script closes
        // either way is not an error.
        db.execute_script("BEGIN; INSERT INTO t VALUES (3, 30); COMMIT;").unwrap();
        db.execute_script("BEGIN; DELETE FROM t; ROLLBACK;").unwrap();
        assert_eq!(db.row_count("t"), Some(3));
    }

    #[test]
    fn dropping_a_session_rolls_back() {
        let db = seeded();
        {
            let mut session = db.session();
            session.execute("BEGIN").unwrap();
            session.execute("INSERT INTO t VALUES (3, 30)").unwrap();
            // Dropped without COMMIT.
        }
        assert_eq!(db.row_count("t"), Some(2));
    }

    #[test]
    fn txn_ddl_commits_atomically() {
        let db = seeded();
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        session.execute("CREATE TABLE made (x INTEGER)").unwrap();
        session.execute("INSERT INTO made VALUES (1)").unwrap();
        session.execute("DROP TABLE t").unwrap();
        assert_eq!(db.table_names(), vec!["t"], "nothing visible before commit");
        session.execute("COMMIT").unwrap();
        assert_eq!(db.table_names(), vec!["made"]);
        assert_eq!(db.row_count("made"), Some(1));
    }
}
