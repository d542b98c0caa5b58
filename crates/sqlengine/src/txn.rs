//! Snapshot-isolation transactions over the versioned catalog, with
//! **row-level** conflict detection.
//!
//! A transaction pins an O(tables) catalog snapshot at `BEGIN` (the row
//! storage is shared `Arc<Table>`s, so nothing is copied). Statements
//! inside the transaction execute against a private *working* catalog
//! derived from that snapshot, so reads see the snapshot plus the
//! transaction's own uncommitted writes and never anybody else's. Each
//! write statement also reports *which rows* it touched ([`StmtWrites`]),
//! accumulated per table into the transaction's [`WriteSet`]s.
//!
//! Commit is **first-committer-wins at row granularity**: for every table
//! the transaction wrote, either the live catalog still holds the exact
//! `Arc<Table>` the snapshot pinned (the fast path — install as-is), or
//! the transaction's write set is intersected against the write sets of
//! every commit recorded in the [`CommitHistory`] since the pinned
//! snapshot sequence. Overlapping rows (or a table-granular write — DDL,
//! or DML on a table without a primary key) abort with
//! [`Error::Conflict`]; disjoint rows **rebase**: the transaction's row
//! patch is applied on top of the live table and installed, so two
//! transactions updating different rows of the same hot table both
//! commit. Tables the transaction only *read* are never checked (snapshot
//! isolation, not serializability — write skew is admitted, as in
//! PostgreSQL's REPEATABLE READ).
//!
//! The history is bounded by a watermark GC: `BEGIN` pins its snapshot
//! sequence, commits append entries, and entries at or below the oldest
//! live pin (or everything, when no snapshot is pinned) are truncated on
//! every commit and unpin — memory stays bounded under churn while any
//! long-lived snapshot can still validate against every commit since it
//! began.
//!
//! The module is deliberately storage-only: lock acquisition, WAL append
//! ordering and the atomic install live with the owner of those
//! resources, [`crate::shared::SharedDb`].

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::storage::{Catalog, Table};
use crate::value::{GroupKey, Row, Value};
use crate::wal::{WalDelta, WalRecord};

/// Hashable primary-key identity of one row (one [`GroupKey`] per PK
/// column, same equality as the table's PK index).
pub(crate) type PkKey = Vec<GroupKey>;

/// The rows one *statement* touched, reported by the DML executors in
/// [`crate::db`]. `keys` holds the primary-key cell values of every
/// touched row (for an UPDATE that moves a row to a new primary key,
/// both the old and the new key).
#[derive(Debug, Clone, Default)]
pub(crate) enum StmtWrites {
    /// Per-row writes on a table with a primary key.
    Rows {
        keys: Vec<Vec<Value>>,
        /// The keys are fresh INSERTs (used to detect delete-then-
        /// reinsert, which moves a row to the table's tail).
        inserted: bool,
        /// An UPDATE changed some row's primary key: the in-place row
        /// patch no longer reproduces the working table's row order, so
        /// the WAL falls back to a full image.
        reorder: bool,
    },
    /// Table-granular: DDL, or DML on a table without a primary key.
    #[default]
    Whole,
}

/// The accumulated rows a *transaction* wrote in one table, keyed by
/// primary-key identity; the values keep the PK cells for diagnostics
/// and for the WAL's row-patch delete encoding.
#[derive(Debug, Clone)]
pub(crate) enum WriteSet {
    Rows { keys: HashMap<PkKey, Vec<Value>>, reorder: bool },
    Whole,
}

impl WriteSet {
    pub(crate) fn from_stmt(writes: StmtWrites) -> WriteSet {
        match writes {
            StmtWrites::Whole => WriteSet::Whole,
            StmtWrites::Rows { keys, reorder, .. } => {
                let mut map = HashMap::with_capacity(keys.len());
                for values in keys {
                    map.insert(values.iter().map(Value::group_key).collect(), values);
                }
                WriteSet::Rows { keys: map, reorder }
            }
        }
    }

    fn merge(&mut self, writes: StmtWrites) {
        let WriteSet::Rows { keys, reorder } = self else {
            return; // Whole absorbs everything.
        };
        match writes {
            StmtWrites::Whole => *self = WriteSet::Whole,
            StmtWrites::Rows { keys: new_keys, inserted, reorder: stmt_reorder } => {
                *reorder |= stmt_reorder;
                for values in new_keys {
                    let key: PkKey = values.iter().map(Value::group_key).collect();
                    // Insert of a key this transaction already touched:
                    // the row was deleted then re-inserted, which appends
                    // it at the tail — an order the in-place patch cannot
                    // reproduce.
                    if inserted && keys.contains_key(&key) {
                        *reorder = true;
                    }
                    keys.insert(key, values);
                }
            }
        }
    }

    /// True when the set is row-granular and replaying its patch in
    /// place reproduces the working table's row order exactly.
    fn is_ordered_rows(&self) -> bool {
        matches!(self, WriteSet::Rows { reorder: false, .. })
    }
}

/// An open transaction: the pinned snapshot, its position in the commit
/// history, and the per-table write sets accumulated so far.
///
/// The *working* catalog — snapshot plus own writes — is owned by the
/// [`Session`](crate::shared::Session) driving the transaction, not by
/// `Txn` itself.
#[derive(Debug, Clone)]
pub struct Txn {
    id: u64,
    pub(crate) snapshot: Catalog,
    /// The [`CommitHistory`] sequence pinned together with the snapshot.
    /// Commit-time validation checks exactly the entries with a higher
    /// sequence.
    pub(crate) snapshot_seq: u64,
    written: Vec<String>,
    write_sets: HashMap<String, WriteSet>,
}

impl Txn {
    /// The transaction's id (unique per WAL lifetime; recovery resumes
    /// allocation above the highest id on disk).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The catalog state pinned at `BEGIN`.
    pub fn snapshot(&self) -> &Catalog {
        &self.snapshot
    }

    /// Record that a statement wrote `table`, merging the rows it
    /// touched into the table's write set. A statement that touched no
    /// row wrote nothing: it leaves no entry, so it can neither conflict
    /// nor commit.
    pub(crate) fn record_write(&mut self, table: &str, writes: StmtWrites) {
        if matches!(&writes, StmtWrites::Rows { keys, .. } if keys.is_empty()) {
            return;
        }
        let key = table.to_ascii_lowercase();
        match self.write_sets.get_mut(&key) {
            Some(set) => set.merge(writes),
            None => {
                self.written.push(key.clone());
                self.write_sets.insert(key, WriteSet::from_stmt(writes));
            }
        }
    }

    /// Lowercased names of all written tables, in first-write order.
    pub(crate) fn written(&self) -> &[String] {
        &self.written
    }

    /// The accumulated write set for a (lowercased) written table.
    pub(crate) fn write_set(&self, table: &str) -> Option<&WriteSet> {
        self.write_sets.get(table)
    }
}

/// Allocates transaction ids. One per database; ids seed above the
/// highest id recovered from the WAL so ids on disk never repeat across
/// restarts within one log generation.
#[derive(Debug)]
pub struct TxnManager {
    next_id: AtomicU64,
}

impl TxnManager {
    pub fn new(first_id: u64) -> Self {
        TxnManager { next_id: AtomicU64::new(first_id.max(1)) }
    }

    /// A fresh id for a single-statement (auto-commit) WAL group.
    pub fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a transaction over the given pinned snapshot and the commit
    /// history sequence pinned with it.
    pub fn begin(&self, snapshot: Catalog, snapshot_seq: u64) -> Txn {
        Txn {
            id: self.fresh_id(),
            snapshot,
            snapshot_seq,
            written: Vec::new(),
            write_sets: HashMap::new(),
        }
    }
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager::new(1)
    }
}

// ---------------------------------------------------------------------------
// Commit history: the version chain row-level validation walks
// ---------------------------------------------------------------------------

/// One committed transaction's write sets, kept until no live snapshot
/// could still need them for validation.
#[derive(Debug)]
struct CommitEntry {
    seq: u64,
    tables: Vec<(String, WriteSet)>,
}

/// The recent-commit log a [`SharedDb`](crate::shared::SharedDb) keeps
/// for row-level conflict validation, plus the snapshot registry that
/// bounds it.
///
/// * `BEGIN` calls [`pin_snapshot`](CommitHistory::pin_snapshot) under
///   the catalog read lock, so the pinned sequence is exactly consistent
///   with the cloned catalog.
/// * Every install calls [`record_commit`](CommitHistory::record_commit)
///   under the catalog **write** lock, so a commit's entry and its
///   catalog effect appear atomically to snapshotters.
/// * The watermark — the oldest pinned sequence, or the newest sequence
///   when nothing is pinned — truncates entries no live snapshot can
///   need, on every commit and every unpin. A long-lived snapshot
///   therefore pins history (its validation window stays complete) and
///   releasing it lets the chain drain to empty.
#[derive(Debug, Default)]
pub(crate) struct CommitHistory {
    /// Sequence of the most recent commit (0 = none yet).
    next_seq: u64,
    entries: VecDeque<CommitEntry>,
    /// Pinned snapshot sequences -> number of open transactions pinned
    /// at that sequence.
    pins: BTreeMap<u64, usize>,
}

/// What the history says about one table's rows since a snapshot.
#[derive(Debug)]
pub(crate) enum RowCheck {
    /// No commit since the snapshot touched any of the given rows.
    Disjoint,
    /// A commit rewrote the table wholesale (DDL, or a write to a table
    /// without a primary key).
    WholeTable,
    /// These rows (PK cell values) were written since the snapshot.
    Rows(Vec<Vec<Value>>),
    /// The table changed but no history entry covers it — an internal
    /// invariant breach; callers treat it as a whole-table conflict.
    Uncovered,
}

impl CommitHistory {
    /// Register a snapshot at the current sequence; returns the sequence
    /// to validate against (and to pass to
    /// [`unpin_snapshot`](CommitHistory::unpin_snapshot)).
    pub(crate) fn pin_snapshot(&mut self) -> u64 {
        let seq = self.next_seq;
        *self.pins.entry(seq).or_insert(0) += 1;
        seq
    }

    /// Release a pinned snapshot and truncate entries nobody needs.
    pub(crate) fn unpin_snapshot(&mut self, seq: u64) {
        if let Some(count) = self.pins.get_mut(&seq) {
            *count -= 1;
            if *count == 0 {
                self.pins.remove(&seq);
            }
        }
        self.gc();
    }

    /// Append one commit's write sets and advance the sequence. Runs the
    /// watermark GC, so with no pinned snapshot the entry is dropped
    /// immediately and the chain stays empty under churn.
    pub(crate) fn record_commit(&mut self, tables: Vec<(String, WriteSet)>) -> u64 {
        self.next_seq += 1;
        let seq = self.next_seq;
        if !tables.is_empty() {
            self.entries.push_back(CommitEntry { seq, tables });
        }
        self.gc();
        seq
    }

    /// The oldest sequence any live snapshot still needs entries after.
    pub(crate) fn watermark(&self) -> u64 {
        self.pins.keys().next().copied().unwrap_or(self.next_seq)
    }

    fn gc(&mut self) {
        let watermark = self.watermark();
        while self.entries.front().is_some_and(|e| e.seq <= watermark) {
            self.entries.pop_front();
        }
    }

    /// Intersect a transaction's write set for `table` against every
    /// commit recorded after `snapshot_seq`.
    pub(crate) fn check_rows(
        &self,
        snapshot_seq: u64,
        table: &str,
        ours: &WriteSet,
    ) -> RowCheck {
        let our_keys = match ours {
            WriteSet::Whole => return RowCheck::WholeTable,
            WriteSet::Rows { keys, .. } => keys,
        };
        let mut covered = false;
        let mut hits: Vec<Vec<Value>> = Vec::new();
        for entry in self.entries.iter().rev() {
            if entry.seq <= snapshot_seq {
                break;
            }
            for (name, theirs) in &entry.tables {
                if name != table {
                    continue;
                }
                covered = true;
                match theirs {
                    WriteSet::Whole => return RowCheck::WholeTable,
                    WriteSet::Rows { keys, .. } => {
                        for (key, values) in keys {
                            if our_keys.contains_key(key) {
                                hits.push(values.clone());
                            }
                        }
                    }
                }
            }
        }
        if !hits.is_empty() {
            RowCheck::Rows(hits)
        } else if covered {
            RowCheck::Disjoint
        } else {
            RowCheck::Uncovered
        }
    }

    pub(crate) fn stats(&self) -> MvccStats {
        MvccStats {
            committed_seq: self.next_seq,
            history_entries: self.entries.len(),
            pinned_snapshots: self.pins.values().sum(),
            watermark: self.watermark(),
        }
    }
}

/// Observable state of the MVCC commit history (see
/// [`SharedDb::mvcc_stats`](crate::shared::SharedDb::mvcc_stats)):
/// how many commits have been sequenced, how much of the version chain a
/// pinned snapshot is keeping alive, and where the GC watermark sits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MvccStats {
    /// Sequence number of the most recent commit (0 = none).
    pub committed_seq: u64,
    /// Commit entries currently retained for validation.
    pub history_entries: usize,
    /// Open transactions holding a pinned snapshot.
    pub pinned_snapshots: usize,
    /// Entries at or below this sequence have been (or will be) GC'd.
    pub watermark: u64,
}

// ---------------------------------------------------------------------------
// Commit-time validation
// ---------------------------------------------------------------------------

fn fmt_version(v: Option<u64>) -> String {
    match v {
        Some(n) => n.to_string(),
        None => "absent".to_string(),
    }
}

fn fmt_keys(keys: &[Vec<Value>]) -> String {
    const MAX: usize = 5;
    let mut parts: Vec<String> = keys
        .iter()
        .take(MAX)
        .map(|values| {
            if values.len() == 1 {
                values[0].to_string()
            } else {
                let cells: Vec<String> = values.iter().map(Value::to_string).collect();
                format!("({})", cells.join(", "))
            }
        })
        .collect();
    if keys.len() > MAX {
        parts.push(format!("and {} more", keys.len() - MAX));
    }
    format!("[{}]", parts.join(", "))
}

fn whole_table_conflict(name: &str, pinned: Option<u64>, live: Option<u64>) -> Error {
    Error::Conflict(format!(
        "table '{name}' changed since this transaction began \
         (snapshot version {}, committed version {}); \
         first committer wins — retry the transaction",
        fmt_version(pinned),
        fmt_version(live),
    ))
}

fn row_conflict(name: &str, rows: &[Vec<Value>], pinned: Option<u64>, live: Option<u64>) -> Error {
    Error::Conflict(format!(
        "rows {} of table '{name}' were written by a concurrent commit after \
         this transaction began (snapshot version {}, committed version {}); \
         first committer wins — retry the transaction",
        fmt_keys(rows),
        fmt_version(pinned),
        fmt_version(live),
    ))
}

/// Row-level first-committer-wins validation for one written table.
///
/// Returns `Ok(true)` when the live table is exactly the snapshot's (the
/// commit installs its working table as-is), `Ok(false)` when the table
/// changed but every intervening commit's write set is disjoint from the
/// transaction's (the commit must **rebase** its rows onto the live
/// table), and [`Error::Conflict`] — naming the overlapping rows — when
/// the write sets intersect, when either side is table-granular, or when
/// the table was dropped or recreated.
pub(crate) fn validate_table(
    txn: &Txn,
    name: &str,
    live: Option<&Arc<Table>>,
    history: &CommitHistory,
) -> Result<bool> {
    let pinned = txn.snapshot.get(name);
    let clean = match (pinned, live) {
        (None, None) => true,
        (Some(a), Some(b)) => Arc::ptr_eq(a, b),
        _ => false,
    };
    if clean {
        return Ok(true);
    }
    let pinned_v = pinned.map(|t| t.version);
    let live_v = live.map(|t| t.version);
    let ours = match txn.write_set(name) {
        Some(ws) => ws,
        None => return Err(whole_table_conflict(name, pinned_v, live_v)),
    };
    // Rebase needs a base on both sides: a dropped or freshly created
    // table cannot be patched row-by-row.
    if matches!(ours, WriteSet::Whole) || pinned.is_none() || live.is_none() {
        return Err(whole_table_conflict(name, pinned_v, live_v));
    }
    match history.check_rows(txn.snapshot_seq, name, ours) {
        RowCheck::Disjoint => Ok(false),
        RowCheck::WholeTable => Err(whole_table_conflict(name, pinned_v, live_v)),
        RowCheck::Rows(rows) => Err(row_conflict(name, &rows, pinned_v, live_v)),
        RowCheck::Uncovered => Err(Error::Conflict(format!(
            "table '{name}' changed since this transaction began but no commit \
             history covers the change (snapshot version {}, committed version {}); \
             first committer wins — retry the transaction",
            fmt_version(pinned_v),
            fmt_version(live_v),
        ))),
    }
}

/// A transaction's committed effect on one table.
#[derive(Debug, Clone)]
pub enum TableDelta {
    /// Install this table version (covers create, insert, update, DDL).
    Put(Arc<Table>),
    /// The table was dropped.
    Drop,
}

/// Diff the written tables of a transaction: for each name in `written`,
/// what must be installed to turn `base` into `working`. Unchanged
/// entries (same `Arc`) produce no delta.
pub(crate) fn catalog_deltas(
    written: &[String],
    base: &Catalog,
    working: &Catalog,
) -> Vec<(String, TableDelta)> {
    let mut out = Vec::new();
    for name in written {
        match (base.get(name), working.get(name)) {
            (None, None) => {}
            (Some(_), None) => out.push((name.clone(), TableDelta::Drop)),
            (b, Some(w)) => {
                if b.is_some_and(|b| Arc::ptr_eq(b, w)) {
                    continue;
                }
                out.push((name.clone(), TableDelta::Put(w.clone())));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Row patches: the shared rebase / WAL-delta planning
// ---------------------------------------------------------------------------

/// Derive the row patch that turns any base holding the untouched rows
/// into the write set's final state: `deletes` are the touched keys no
/// longer present in the working table (as PK cell tuples), `upserts`
/// are the working table's touched rows in working-table order. Each key
/// is one probe of the working table's PK index — the cost is the write
/// set's, never the table's.
///
/// Deletes are sorted by their encoded form so the WAL bytes for a given
/// logical commit are deterministic.
pub(crate) fn build_row_patch(
    working: &Table,
    keys: &HashMap<PkKey, Vec<Value>>,
) -> (Vec<Row>, Vec<Row>) {
    let mut deletes: Vec<Row> = Vec::new();
    let mut slots: Vec<usize> = Vec::with_capacity(keys.len());
    for (key, values) in keys {
        match working.pk_slot(key) {
            Some(slot) => slots.push(slot),
            None => deletes.push(Row::from(values.clone())),
        }
    }
    deletes.sort_by_cached_key(|row| {
        let mut encoded = Vec::new();
        crate::storage::encode_row(&mut encoded, row);
        encoded
    });
    slots.sort_unstable();
    let upserts = slots.into_iter().map(|slot| working.rows()[slot].clone()).collect();
    (deletes, upserts)
}

/// Rebase a transaction's rows onto the live table: apply the row patch
/// to a copy of `live` and stamp a version above both lineages, so the
/// versioned identity "(name, version) implies equal contents" survives
/// concurrent same-table commits.
pub(crate) fn rebase_table(
    live: &Arc<Table>,
    working: &Arc<Table>,
    deletes: &[Row],
    upserts: Vec<Row>,
) -> Result<Arc<Table>> {
    let mut patched = (**live).clone();
    patched.apply_row_patch(deletes, upserts)?;
    patched.version = live.version.max(working.version) + 1;
    Ok(Arc::new(patched))
}

/// Encode one delta for the WAL, preferring the compact forms: when the
/// new table version is the base plus appended rows (schema, primary key
/// and every base row `Arc`-identical), only the new rows are logged;
/// otherwise a row-granular write set logs a [`WalDelta::RowPatch`] of
/// just the touched rows. A full [`WalDelta::Put`] image is the fallback
/// (DDL, no primary key, or a patch that cannot reproduce row order).
pub(crate) fn wal_delta(
    name: &str,
    base: Option<&Arc<Table>>,
    delta: &TableDelta,
    writes: Option<&WriteSet>,
) -> WalDelta {
    match delta {
        TableDelta::Drop => WalDelta::Drop { name: name.to_string() },
        TableDelta::Put(new) => {
            if let Some(b) = base {
                if is_pure_append(b, new) {
                    return WalDelta::Append {
                        table: name.to_string(),
                        rows: new.rows()[b.len()..].to_vec(),
                        new_version: new.version,
                    };
                }
                if let Some(ws @ WriteSet::Rows { keys, .. }) = writes {
                    if ws.is_ordered_rows() && b.has_primary_key() {
                        let (deletes, upserts) = build_row_patch(new, keys);
                        return WalDelta::RowPatch {
                            table: name.to_string(),
                            deletes,
                            upserts,
                            new_version: new.version,
                        };
                    }
                }
            }
            WalDelta::Put { table: new.clone() }
        }
    }
}

fn is_pure_append(base: &Table, new: &Table) -> bool {
    new.columns == base.columns
        && new.primary_key == base.primary_key
        && new.len() >= base.len()
        && base.rows().iter().zip(new.rows()).all(|(a, b)| Arc::ptr_eq(a, b))
}

/// The WAL record group for one committed transaction:
/// `Begin · Delta* · Commit`, appended (and fsynced) as one write.
/// `writes` supplies the per-table write sets (lowercased names) used to
/// pick row-granular encodings.
pub(crate) fn commit_records(
    txn_id: u64,
    base: &Catalog,
    deltas: &[(String, TableDelta)],
    writes: &HashMap<String, WriteSet>,
) -> Vec<WalRecord> {
    let mut recs = Vec::with_capacity(deltas.len() + 2);
    recs.push(WalRecord::Begin { txn: txn_id });
    for (name, delta) in deltas {
        recs.push(WalRecord::Delta {
            txn: txn_id,
            delta: wal_delta(name, base.get(name), delta, writes.get(name)),
        });
    }
    recs.push(WalRecord::Commit { txn: txn_id });
    recs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Column;

    fn table(rows: usize) -> Table {
        let mut t =
            Table::new("t", vec![Column::new("id")], &["id".to_string()]).unwrap();
        for i in 0..rows {
            t.insert_row(vec![(i as i64).into()]).unwrap();
        }
        t
    }

    fn rows_writes(ids: &[i64]) -> StmtWrites {
        StmtWrites::Rows {
            keys: ids.iter().map(|&i| vec![Value::Integer(i)]).collect(),
            inserted: false,
            reorder: false,
        }
    }

    #[test]
    fn validation_passes_on_untouched_tables() {
        let mut cat = Catalog::new();
        cat.put_table(table(2));
        let mgr = TxnManager::default();
        let mut txn = mgr.begin(cat.clone(), 0);
        txn.record_write("t", rows_writes(&[0]));
        let history = CommitHistory::default();
        assert!(validate_table(&txn, "t", cat.get("t"), &history).unwrap());
    }

    #[test]
    fn whole_table_write_conflicts_on_intervening_commit() {
        let mut cat = Catalog::new();
        cat.put_table(table(2));
        let mut history = CommitHistory::default();
        let mgr = TxnManager::default();
        let mut txn = mgr.begin(cat.clone(), history.pin_snapshot());
        txn.record_write("t", StmtWrites::Whole);
        // Another session commits to t after the snapshot was pinned.
        cat.get_mut("t").unwrap().insert_row(vec![9.into()]).unwrap();
        history.record_commit(vec![(
            "t".into(),
            WriteSet::from_stmt(rows_writes(&[9])),
        )]);
        let err = validate_table(&txn, "t", cat.get("t"), &history).unwrap_err();
        assert!(matches!(err, Error::Conflict(_)));
    }

    #[test]
    fn disjoint_row_writes_rebase_instead_of_conflicting() {
        let mut cat = Catalog::new();
        cat.put_table(table(4));
        let mut history = CommitHistory::default();
        let mgr = TxnManager::default();
        let mut txn = mgr.begin(cat.clone(), history.pin_snapshot());
        txn.record_write("t", rows_writes(&[1]));
        // A concurrent commit touches a *different* row.
        cat.get_mut("t").unwrap().insert_row(vec![9.into()]).unwrap();
        history.record_commit(vec![(
            "t".into(),
            WriteSet::from_stmt(rows_writes(&[2])),
        )]);
        let clean = validate_table(&txn, "t", cat.get("t"), &history).unwrap();
        assert!(!clean, "disjoint rows must take the rebase path, not conflict");
    }

    #[test]
    fn overlapping_row_writes_conflict_and_name_the_rows() {
        let mut cat = Catalog::new();
        cat.put_table(table(4));
        let mut history = CommitHistory::default();
        let mgr = TxnManager::default();
        let mut txn = mgr.begin(cat.clone(), history.pin_snapshot());
        txn.record_write("t", rows_writes(&[1, 3]));
        cat.get_mut("t").unwrap();
        history.record_commit(vec![(
            "t".into(),
            WriteSet::from_stmt(rows_writes(&[3])),
        )]);
        let err = validate_table(&txn, "t", cat.get("t"), &history).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, Error::Conflict(_)));
        assert!(msg.contains("[3]"), "must name the conflicting row: {msg}");
        assert!(
            !msg.contains("Some(") && !msg.contains("None"),
            "versions must render as plain numbers / absent: {msg}"
        );
    }

    #[test]
    fn conflict_versions_render_plainly() {
        let mut cat = Catalog::new();
        cat.put_table(table(2));
        let mgr = TxnManager::default();
        let mut txn = mgr.begin(cat.clone(), 0);
        txn.record_write("t", StmtWrites::Whole);
        // Drop: committed version must read "absent", not "None".
        cat.drop_table("t").unwrap();
        let history = CommitHistory::default();
        let err = validate_table(&txn, "t", cat.get("t"), &history).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("snapshot version 0"), "{msg}");
        assert!(msg.contains("committed version absent"), "{msg}");
    }

    #[test]
    fn drop_and_recreate_conflicts_even_with_row_writes() {
        let mut cat = Catalog::new();
        cat.put_table(table(2));
        let mut history = CommitHistory::default();
        let mgr = TxnManager::default();
        let mut txn = mgr.begin(cat.clone(), history.pin_snapshot());
        txn.record_write("t", rows_writes(&[1]));
        // Same name, same fresh version number — but a different object.
        cat.drop_table("t").unwrap();
        cat.put_table(table(2));
        history.record_commit(vec![("t".into(), WriteSet::Whole)]);
        assert!(matches!(
            validate_table(&txn, "t", cat.get("t"), &history),
            Err(Error::Conflict(_))
        ));
    }

    #[test]
    fn history_gc_is_bounded_by_pins() {
        let mut history = CommitHistory::default();
        // No pins: entries are dropped immediately.
        for _ in 0..10 {
            history.record_commit(vec![("t".into(), WriteSet::Whole)]);
        }
        assert_eq!(history.stats().history_entries, 0);
        assert_eq!(history.stats().committed_seq, 10);

        // A pinned snapshot keeps every later entry alive.
        let pin = history.pin_snapshot();
        for _ in 0..5 {
            history.record_commit(vec![("t".into(), WriteSet::Whole)]);
        }
        assert_eq!(history.stats().history_entries, 5);
        assert_eq!(history.stats().pinned_snapshots, 1);
        assert_eq!(history.watermark(), pin);

        // Unpinning drains the chain.
        history.unpin_snapshot(pin);
        assert_eq!(history.stats().history_entries, 0);
        assert_eq!(history.stats().pinned_snapshots, 0);
    }

    #[test]
    fn check_rows_sees_only_commits_after_the_snapshot() {
        let mut history = CommitHistory::default();
        let early = history.pin_snapshot();
        history.record_commit(vec![("t".into(), WriteSet::from_stmt(rows_writes(&[1])))]);
        let late = history.pin_snapshot();
        history.record_commit(vec![("t".into(), WriteSet::from_stmt(rows_writes(&[2])))]);

        let ours = WriteSet::from_stmt(rows_writes(&[1]));
        assert!(matches!(history.check_rows(early, "t", &ours), RowCheck::Rows(_)));
        // The commit of row 1 predates the later snapshot.
        assert!(matches!(history.check_rows(late, "t", &ours), RowCheck::Disjoint));
        history.unpin_snapshot(early);
        history.unpin_snapshot(late);
    }

    #[test]
    fn deltas_skip_unwritten_and_unchanged() {
        let mut base = Catalog::new();
        base.put_table(table(2));
        let working = base.clone();
        // Written but untouched (same Arc): no delta.
        let deltas = catalog_deltas(&["t".to_string()], &base, &working);
        assert!(deltas.is_empty());
    }

    #[test]
    fn pure_insert_encodes_as_append() {
        let mut base_cat = Catalog::new();
        base_cat.put_table(table(3));
        let base = base_cat.get("t").unwrap().clone();
        let mut working = base_cat.clone();
        working.get_mut("t").unwrap().insert_row(vec![10.into()]).unwrap();
        let new = working.get("t").unwrap().clone();

        match wal_delta("t", Some(&base), &TableDelta::Put(new.clone()), None) {
            WalDelta::Append { rows, new_version, .. } => {
                assert_eq!(rows.len(), 1);
                assert_eq!(new_version, new.version);
            }
            other => panic!("expected append delta, got {other:?}"),
        }
    }

    #[test]
    fn row_writes_encode_as_row_patch() {
        let mut base_cat = Catalog::new();
        base_cat.put_table(table(4));
        let base = base_cat.get("t").unwrap().clone();

        // Delete row 0: an in-place patch of one delete.
        let mut working = base_cat.clone();
        working.get_mut("t").unwrap().remove_rows(&[0]).unwrap();
        let new = working.get("t").unwrap().clone();
        let ws = WriteSet::from_stmt(rows_writes(&[0]));
        match wal_delta("t", Some(&base), &TableDelta::Put(new.clone()), Some(&ws)) {
            WalDelta::RowPatch { deletes, upserts, new_version, .. } => {
                assert_eq!(deletes.len(), 1);
                assert!(upserts.is_empty());
                assert_eq!(new_version, new.version);
            }
            other => panic!("expected row patch, got {other:?}"),
        }

        // Without a write set the same delta falls back to a full image.
        assert!(matches!(
            wal_delta("t", Some(&base), &TableDelta::Put(new), None),
            WalDelta::Put { .. }
        ));
    }

    #[test]
    fn reordering_updates_fall_back_to_full_image() {
        let mut base_cat = Catalog::new();
        base_cat.put_table(table(3));
        let base = base_cat.get("t").unwrap().clone();
        let mut working = base_cat.clone();
        working.get_mut("t").unwrap().remove_rows(&[1]).unwrap();
        let new = working.get("t").unwrap().clone();
        let ws = WriteSet::Rows {
            keys: HashMap::from([(
                vec![Value::Integer(1).group_key()],
                vec![Value::Integer(1)],
            )]),
            reorder: true,
        };
        assert!(matches!(
            wal_delta("t", Some(&base), &TableDelta::Put(new), Some(&ws)),
            WalDelta::Put { .. }
        ));
    }

    #[test]
    fn row_patch_reproduces_the_working_table() {
        // Mixed insert + update + delete, then: patch(base) == working.
        let mut base_cat = Catalog::new();
        base_cat.put_table(table(4)); // ids 0..4
        let base = base_cat.get("t").unwrap().clone();

        let mut working_cat = base_cat.clone();
        {
            let t = working_cat.get_mut("t").unwrap();
            t.remove_rows(&[2]).unwrap(); // delete 2
            t.insert_row(vec![7.into()]).unwrap(); // insert 7
        }
        let working = working_cat.get("t").unwrap().clone();

        let mut txn = TxnManager::default().begin(base_cat.clone(), 0);
        txn.record_write("t", rows_writes(&[2]));
        txn.record_write(
            "t",
            StmtWrites::Rows { keys: vec![vec![7.into()]], inserted: true, reorder: false },
        );
        let Some(WriteSet::Rows { keys, .. }) = txn.write_set("t") else {
            panic!("expected row write set");
        };
        let (deletes, upserts) = build_row_patch(&working, keys);
        let mut patched = (*base).clone();
        patched.apply_row_patch(&deletes, upserts).unwrap();
        patched.version = working.version;
        assert_eq!(patched, *working, "patch(base) must equal the working table");
    }

    #[test]
    fn delete_then_reinsert_sets_reorder() {
        let cat = Catalog::new();
        let mut txn = TxnManager::default().begin(cat, 0);
        txn.record_write("t", rows_writes(&[1])); // delete touches key 1
        txn.record_write(
            "t",
            StmtWrites::Rows { keys: vec![vec![1.into()]], inserted: true, reorder: false },
        );
        match txn.write_set("t") {
            Some(WriteSet::Rows { reorder, .. }) => assert!(*reorder),
            other => panic!("expected row write set, got {other:?}"),
        }
    }

    #[test]
    fn whole_absorbs_row_writes() {
        let cat = Catalog::new();
        let mut txn = TxnManager::default().begin(cat, 0);
        txn.record_write("t", rows_writes(&[1]));
        txn.record_write("t", StmtWrites::Whole);
        txn.record_write("t", rows_writes(&[2]));
        assert!(matches!(txn.write_set("t"), Some(WriteSet::Whole)));
        assert_eq!(txn.written(), ["t"]);
    }

    #[test]
    fn txn_ids_are_unique_and_seeded() {
        let mgr = TxnManager::new(41);
        let a = mgr.begin(Catalog::new(), 0);
        let b = mgr.begin(Catalog::new(), 0);
        assert_eq!(a.id(), 41);
        assert_eq!(b.id(), 42);
    }
}
