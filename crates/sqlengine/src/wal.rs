//! Append-only write-ahead log: crash durability for the catalog.
//!
//! The WAL is the single source of durable truth. Every committed
//! transaction appends a `Begin` / per-table `Delta` / `Commit` record
//! group in one write; [`Wal::open`] replays the longest intact prefix and
//! truncates a torn tail, so after a crash the database is always exactly
//! the state as of some committed transaction boundary — never a torn mix.
//!
//! # Framing
//!
//! Each record is framed as `[len: u32 LE][crc32: u32 LE][payload]`, with
//! the CRC taken over the payload. Recovery walks frames from offset 0 and
//! stops at the first frame that is short, fails its checksum, or does not
//! decode; everything from that offset on is discarded (`set_len`) so the
//! next append starts at a clean boundary.
//!
//! # Deltas
//!
//! A transaction's effect on one table is logged as one [`WalDelta`]:
//!
//! * [`WalDelta::Append`] — the pure-INSERT fast path: only the new rows
//!   are encoded (detected by `Arc` pointer equality against the commit's
//!   base snapshot, see [`crate::txn::wal_delta`]);
//! * [`WalDelta::RowPatch`] — the row-level UPDATE/DELETE path: only the
//!   primary keys of deleted rows and the full images of touched rows are
//!   encoded; replay patches them into the table already recovered
//!   (deletes first, then in-place upserts — the same
//!   [`Table::apply_row_patch`] the commit rebase uses, so the installed
//!   and recovered tables agree by construction);
//! * [`WalDelta::Put`] — a full table image (DDL, tables without a
//!   primary key, or writes that reorder rows);
//! * [`WalDelta::Drop`] — the table was dropped.
//!
//! # Checkpoints
//!
//! Durable state older than the log lives in the paged store
//! ([`crate::pager`]): every commit applies its deltas to on-disk B-trees
//! right after its fsync. When the log grows past
//! [`DurabilityConfig::checkpoint_bytes`], the committer flushes the
//! dirty pages, flips the store's meta file to the next epoch, and swaps
//! the log for a single [`WalRecord::PagedCheckpoint`] marker (write to a
//! `.tmp` sibling, fsync, atomic rename) — O(dirty pages), bounding both
//! file size and recovery time. Recovery materializes the catalog from
//! the trees and replays only the records after the marker.
//!
//! # The commit sequence
//!
//! Every durable commit runs [`Wal::commit`], called from exactly one
//! place — the [`SharedDb`](crate::shared::SharedDb) group-commit leader:
//! append the framed groups, at most one fsync, apply them to the trees,
//! publish in memory, checkpoint if over budget.
//!
//! # Refused formats
//!
//! Logs written before the paged store held the whole database as one
//! tag-4 image record. [`Wal::open`] refuses such a file with a typed
//! error *before* touching it: reading the image as a torn tail would
//! truncate the only copy of the data.
//!
//! # The VFS seam
//!
//! Every byte the log touches — appends, fsyncs, torn-tail truncation,
//! the checkpoint's tmp + rename dance — goes through a
//! [`Vfs`](crate::vfs::Vfs): [`RealFs`](crate::vfs::RealFs) in
//! production, the fault-injecting [`SimFs`](crate::vfs::SimFs) under the
//! `crash_sim` harness, which sweeps a deterministic fail/crash through
//! every operation index and asserts recovery always lands on a clean
//! prefix of acknowledged commits.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::sync::OnceLock;

use crate::error::{Error, Result};
use crate::pager::Pager;
use crate::storage::{
    decode_row, decode_table, encode_row, encode_table, get_str, get_u64, get_u8, put_str,
    put_u32, put_u64, Catalog, Table, TextInterner,
};
use crate::value::Row;
use crate::vfs::{RealFs, Vfs, VfsFile};

/// Durability tuning for a WAL-backed database.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Checkpoint (flush dirty pages, swap the log for a marker) once
    /// the log grows past this many bytes.
    pub checkpoint_bytes: u64,
    /// `fsync` the log on every commit. Disabling trades the durability of
    /// the last few commits for throughput (the file is still written, so
    /// only an OS crash — not a process crash — can lose them).
    pub sync: bool,
    /// Buffer-pool capacity in pages for the paged store.
    pub pool_pages: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            checkpoint_bytes: 4 << 20,
            sync: true,
            pool_pages: crate::bufpool::DEFAULT_POOL_PAGES,
        }
    }
}

/// One WAL record. `Begin`/`Delta`/`Commit` carry the transaction id that
/// groups them; only transactions whose `Commit` made it to disk are
/// applied at recovery.
#[derive(Debug, Clone)]
pub enum WalRecord {
    Begin { txn: u64 },
    Delta { txn: u64, delta: WalDelta },
    Commit { txn: u64 },
    /// Checkpoint marker: durable state up to here lives in the page/meta
    /// files at this epoch ([`crate::pager`]); only records after the
    /// marker replay.
    PagedCheckpoint { epoch: u64 },
}

/// A committed transaction's effect on one table.
#[derive(Debug, Clone)]
pub enum WalDelta {
    /// Install this full table snapshot (UPDATE/DELETE/DDL path).
    Put { table: Arc<Table> },
    /// Append `rows` to the existing table and set its version — the
    /// compact pure-INSERT encoding.
    Append { table: String, rows: Vec<Row>, new_version: u64 },
    /// Remove the table.
    Drop { name: String },
    /// Row-level patch over the table as already recovered: `deletes`
    /// holds the primary-key cell tuples of removed rows, `upserts` the
    /// full images of touched rows (replaced in place when the key
    /// exists, appended otherwise). The compact UPDATE/DELETE encoding
    /// produced from a transaction's row write set.
    RowPatch { table: String, deletes: Vec<Row>, upserts: Vec<Row>, new_version: u64 },
}

// ---------------------------------------------------------------------------
// Record codec (payload only; framing is separate). The byte primitives
// are shared with the row codec in `crate::storage`.
// ---------------------------------------------------------------------------

fn bad(what: &str) -> Error {
    Error::Io(format!("wal: malformed {what}"))
}

fn encode_record(buf: &mut Vec<u8>, rec: &WalRecord) {
    match rec {
        WalRecord::Begin { txn } => {
            buf.push(1);
            put_u64(buf, *txn);
        }
        WalRecord::Delta { txn, delta } => {
            buf.push(2);
            put_u64(buf, *txn);
            match delta {
                WalDelta::Put { table } => {
                    buf.push(1);
                    encode_table(buf, table);
                }
                WalDelta::Append { table, rows, new_version } => {
                    buf.push(2);
                    put_str(buf, table);
                    put_u64(buf, *new_version);
                    put_u64(buf, rows.len() as u64);
                    for row in rows {
                        encode_row(buf, row);
                    }
                }
                WalDelta::Drop { name } => {
                    buf.push(3);
                    put_str(buf, name);
                }
                WalDelta::RowPatch { table, deletes, upserts, new_version } => {
                    buf.push(4);
                    put_str(buf, table);
                    put_u64(buf, *new_version);
                    put_u64(buf, deletes.len() as u64);
                    for row in deletes {
                        encode_row(buf, row);
                    }
                    put_u64(buf, upserts.len() as u64);
                    for row in upserts {
                        encode_row(buf, row);
                    }
                }
            }
        }
        WalRecord::Commit { txn } => {
            buf.push(3);
            put_u64(buf, *txn);
        }
        WalRecord::PagedCheckpoint { epoch } => {
            buf.push(5);
            put_u64(buf, *epoch);
        }
    }
}

fn decode_record(buf: &[u8], pos: &mut usize, interner: &mut TextInterner) -> Result<WalRecord> {
    match get_u8(buf, pos)? {
        1 => Ok(WalRecord::Begin { txn: get_u64(buf, pos)? }),
        2 => {
            let txn = get_u64(buf, pos)?;
            let delta = match get_u8(buf, pos)? {
                1 => WalDelta::Put { table: Arc::new(decode_table(buf, pos, interner)?) },
                2 => {
                    let table = get_str(buf, pos)?.to_string();
                    let new_version = get_u64(buf, pos)?;
                    let n = get_u64(buf, pos)? as usize;
                    let mut rows = Vec::with_capacity(n.min(1 << 20));
                    for _ in 0..n {
                        rows.push(decode_row(buf, pos, interner)?);
                    }
                    WalDelta::Append { table, rows, new_version }
                }
                3 => WalDelta::Drop { name: get_str(buf, pos)?.to_string() },
                4 => {
                    let table = get_str(buf, pos)?.to_string();
                    let new_version = get_u64(buf, pos)?;
                    let nd = get_u64(buf, pos)? as usize;
                    let mut deletes = Vec::with_capacity(nd.min(1 << 20));
                    for _ in 0..nd {
                        deletes.push(decode_row(buf, pos, interner)?);
                    }
                    let nu = get_u64(buf, pos)? as usize;
                    let mut upserts = Vec::with_capacity(nu.min(1 << 20));
                    for _ in 0..nu {
                        upserts.push(decode_row(buf, pos, interner)?);
                    }
                    WalDelta::RowPatch { table, deletes, upserts, new_version }
                }
                _ => return Err(bad("delta tag")),
            };
            Ok(WalRecord::Delta { txn, delta })
        }
        3 => Ok(WalRecord::Commit { txn: get_u64(buf, pos)? }),
        5 => Ok(WalRecord::PagedCheckpoint { epoch: get_u64(buf, pos)? }),
        _ => Err(bad("record tag")),
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE) — table-driven, built once
// ---------------------------------------------------------------------------

pub(crate) fn crc32(data: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut crc = u32::MAX;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Frame one record: `[len][crc][payload]`.
fn frame(rec: &WalRecord, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    encode_record(&mut payload, rec);
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
}

/// Frame a whole record group into one contiguous buffer — what a
/// committer hands the group-commit queue, so encoding happens off the
/// log mutex and the leader's append is a single `memcpy`-and-write.
pub fn frame_group(records: &[WalRecord]) -> Vec<u8> {
    let mut buf = Vec::new();
    for rec in records {
        frame(rec, &mut buf);
    }
    buf
}

/// Record tag of the pre-pager whole-database image. Nothing writes it
/// any more; it is recognised so a log in that format is refused rather
/// than read as a torn tail (and truncated).
const LEGACY_IMAGE_TAG: u8 = 4;

/// The checksummed payload of the frame at the head of `rest`; `None`
/// marks a torn/corrupt tail. Never panics on input shape: a header that
/// cannot be read is a torn tail too.
fn frame_payload(rest: &[u8]) -> Option<&[u8]> {
    let len = u32::from_le_bytes(rest.get(0..4)?.try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(rest.get(4..8)?.try_into().ok()?);
    let payload = rest.get(8..8usize.checked_add(len)?)?;
    (crc32(payload) == crc).then_some(payload)
}

/// Decode the frame starting at `start`; `Ok(None)` marks a torn/corrupt
/// tail. An intact frame holding a legacy whole-image record is an error:
/// the file is a real database in a format this engine no longer reads.
fn read_frame(
    bytes: &[u8],
    start: usize,
    interner: &mut TextInterner,
) -> Result<Option<(WalRecord, usize)>> {
    let Some(payload) = frame_payload(&bytes[start..]) else { return Ok(None) };
    if payload.first() == Some(&LEGACY_IMAGE_TAG) {
        return Err(Error::Io(format!(
            "wal: legacy whole-image checkpoint record at offset {start} — this log was \
             written in the pre-pager format, which is no longer read or migrated; the \
             file was left untouched"
        )));
    }
    let mut pos = 0;
    match decode_record(payload, &mut pos, interner) {
        Ok(rec) if pos == payload.len() => Ok(Some((rec, start + 8 + payload.len()))),
        _ => Ok(None),
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// Apply one committed delta to the recovering catalog. The catalog is
/// the tables' only holder, so `get_mut` hands out the table itself and
/// replaying a k-commit tail costs k patches, not k table copies; the
/// logged version is stamped over `get_mut`'s bump.
fn apply_delta(catalog: &mut Catalog, delta: WalDelta) -> Result<()> {
    match delta {
        WalDelta::Put { table } => catalog.put_shared(table),
        WalDelta::Append { table, rows, new_version } => {
            let t = catalog.get_mut(&table)?;
            for row in rows {
                t.insert_shared_row(row)?;
            }
            t.version = new_version;
        }
        WalDelta::Drop { name } => {
            let _ = catalog.drop_table(&name);
        }
        WalDelta::RowPatch { table, deletes, upserts, new_version } => {
            let t = catalog.get_mut(&table)?;
            t.apply_row_patch(&deletes, upserts)?;
            t.version = new_version;
        }
    }
    Ok(())
}

/// Recovery: reconcile the WAL's checkpoint marker with the durable meta
/// epoch, materialize the catalog from the trees, and replay only the
/// genuine tail (applying it to the trees too, so they stay current).
/// Returns the catalog and whether the log must be normalized (rewritten
/// to a bare marker) before accepting appends.
fn replay(records: Vec<WalRecord>, pager: &Pager) -> Result<(Catalog, bool)> {
    let meta_epoch = pager.epoch();
    // The *last* marker governs; anything before it is a stale prefix.
    let marker = records.iter().enumerate().rev().find_map(|(i, r)| match r {
        WalRecord::PagedCheckpoint { epoch } => Some((i, *epoch)),
        _ => None,
    });
    if let Some((_, epoch)) = marker {
        if epoch > meta_epoch {
            return Err(Error::Io(format!(
                "wal: checkpoint marker epoch {epoch} is ahead of the page-store \
                 meta epoch {meta_epoch} — the meta file was lost or rolled back"
            )));
        }
    }
    match marker {
        // Marker matches the meta: the records after it are the live tail.
        Some((i, epoch)) if epoch == meta_epoch => {
            let catalog = pager.materialize_catalog()?;
            let tail = records.into_iter().skip(i + 1).collect();
            Ok((replay_tail(tail, catalog, pager)?, false))
        }
        // Marker behind the meta (or none at all while a meta exists): a
        // crash hit between the meta flip and the WAL swap. The whole
        // checkpoint ran under the WAL lock, so every record in this log
        // was already folded into the trees the meta made durable — the
        // meta alone is the truth, and the stale log must be normalized.
        _ if meta_epoch > 0 => Ok((pager.materialize_catalog()?, true)),
        // No meta yet: a database that has not checkpointed. The whole
        // log is the tail; the trees are built as its deltas apply.
        _ => Ok((replay_tail(records, Catalog::new(), pager)?, false)),
    }
}

/// The committed-transaction replay loop over `records`, starting from
/// `catalog`: a transaction's deltas apply — to the catalog and to the
/// trees — only when its `Commit` record is present, so an uncommitted
/// trailing transaction is discarded, exactly the rollback a crash before
/// the commit record implies. Tree failures degrade to rebuild mode
/// rather than failing recovery (the commits are durable in the log —
/// they must not be lost).
fn replay_tail(records: Vec<WalRecord>, mut catalog: Catalog, pager: &Pager) -> Result<Catalog> {
    let mut pending: HashMap<u64, Vec<WalDelta>> = HashMap::new();
    for rec in records {
        match rec {
            WalRecord::Begin { txn } => {
                pending.insert(txn, Vec::new());
            }
            WalRecord::Delta { txn, delta } => {
                pending.entry(txn).or_default().push(delta);
            }
            WalRecord::Commit { txn } => {
                if let Some(deltas) = pending.remove(&txn) {
                    for d in deltas {
                        if pager.apply_delta(&d).is_err() {
                            pager.set_rebuild();
                        }
                        apply_delta(&mut catalog, d)?;
                    }
                }
            }
            WalRecord::PagedCheckpoint { .. } => {
                // `replay` already consumed the governing marker;
                // a stray one here cannot carry data — ignore it.
            }
        }
    }
    Ok(catalog)
}

/// Apply a just-appended (already durable) frame buffer's committed
/// deltas to the paged store. Never fails — the commit is acknowledged
/// territory, so any tree trouble flips the pager to rebuild mode and
/// the next checkpoint recaptures everything from the catalog.
fn apply_frames_to_pager(pager: &Pager, buf: &[u8]) {
    let mut interner = TextInterner::new();
    let mut pending: HashMap<u64, Vec<WalDelta>> = HashMap::new();
    let mut at = 0usize;
    while let Ok(Some((rec, next))) = read_frame(buf, at, &mut interner) {
        at = next;
        match rec {
            WalRecord::Begin { txn } => {
                pending.insert(txn, Vec::new());
            }
            WalRecord::Delta { txn, delta } => {
                pending.entry(txn).or_default().push(delta);
            }
            WalRecord::Commit { txn } => {
                if let Some(deltas) = pending.remove(&txn) {
                    for d in deltas {
                        if pager.apply_delta(&d).is_err() {
                            pager.set_rebuild();
                            return;
                        }
                    }
                }
            }
            WalRecord::PagedCheckpoint { .. } => {}
        }
    }
    if at != buf.len() {
        // A buffer this process just framed should decode in full; if it
        // somehow does not, degrade rather than diverge.
        pager.set_rebuild();
    }
}

// ---------------------------------------------------------------------------
// The log itself
// ---------------------------------------------------------------------------

/// An open write-ahead log positioned for appending. All I/O goes
/// through the [`Vfs`] the log was opened on.
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    path: PathBuf,
    len: u64,
    config: DurabilityConfig,
    /// The paged store. Lives under the WAL mutex: commits apply their
    /// deltas to the trees right after the fsync, checkpoints flush the
    /// dirty pages.
    pager: Pager,
    /// Set when an I/O failure left the handle in a state where further
    /// appends could silently lose acknowledged commits (a partial frame
    /// that could not be rolled back, a post-rename reopen failure that
    /// left `file` pointing at an unlinked inode, or a checkpoint whose
    /// rename never became durable). A poisoned log fails every append
    /// fast; reopen the database to recover.
    poisoned: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("path", &self.path)
            .field("len", &self.len)
            .field("config", &self.config)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

/// The result of opening a WAL: the log (positioned at its intact end),
/// the recovered catalog, and the highest transaction id seen (so id
/// allocation can resume above it).
#[derive(Debug)]
pub struct Recovered {
    pub wal: Wal,
    pub catalog: Catalog,
    pub max_txn: u64,
}

impl Wal {
    /// Open (or create) the log at `path` on the real filesystem, replay
    /// the longest intact record prefix, and truncate any torn tail so
    /// subsequent appends start at a clean frame boundary.
    pub fn open(path: impl AsRef<Path>, config: DurabilityConfig) -> Result<Recovered> {
        Wal::open_on(Arc::new(RealFs), path, config)
    }

    /// [`Wal::open`] on an explicit [`Vfs`] — the seam the crash-sim
    /// harness injects its [`SimFs`](crate::vfs::SimFs) through.
    pub fn open_on(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<Recovered> {
        let path = path.as_ref().to_path_buf();
        let mut file = vfs.open(&path)?;
        let bytes = vfs.read(&path)?;

        // A legacy-format log errors out of this loop — before the
        // truncation below, and before the pager creates its files.
        let mut records = Vec::new();
        let mut good = 0usize;
        let mut interner = TextInterner::new();
        while let Some((rec, next)) = read_frame(&bytes, good, &mut interner)? {
            records.push(rec);
            good = next;
        }
        if good < bytes.len() {
            // Torn tail: drop it now so a later crash cannot resurrect it.
            file.set_len(good as u64)?;
            file.sync_data()?;
        }

        let max_txn = records
            .iter()
            .map(|r| match r {
                WalRecord::Begin { txn }
                | WalRecord::Delta { txn, .. }
                | WalRecord::Commit { txn } => *txn,
                WalRecord::PagedCheckpoint { .. } => 0,
            })
            .max()
            .unwrap_or(0);
        let pager = Pager::open(vfs.clone(), &path, config.pool_pages)?;
        let (catalog, normalize) = replay(records, &pager)?;
        let mut wal = Wal {
            vfs,
            file,
            path,
            len: good as u64,
            config,
            pager,
            poisoned: false,
        };
        if normalize {
            // The log predates the durable meta (crash between the meta
            // flip and the WAL swap). Its records are already folded into
            // the trees, but appending after them would make the *next*
            // recovery replay that stale tail on top of the meta —
            // finish the interrupted swap before accepting appends.
            let epoch = wal.pager.epoch();
            wal.swap_log(&WalRecord::PagedCheckpoint { epoch })?;
        }
        Ok(Recovered { wal, catalog, max_txn })
    }

    /// Bytes currently in the log.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The one durable commit sequence, run under the WAL mutex by the
    /// group-commit leader: append `frames` (one or many framed `Begin·Delta*·Commit`
    /// groups) as one write and at most one fsync, apply them to the
    /// trees, `install` them in memory, and checkpoint if the log
    /// outgrew its budget — against `committed()`, the catalog holding
    /// every commit now in the log.
    ///
    /// An `Err` means nothing was committed (`install` did not run). Past
    /// the append the commit *is* durable, so a failed compaction is never
    /// reported as a failed commit — the caller would roll back in memory
    /// and a retry would double-apply. The log just stays long, the next
    /// commit retries the checkpoint, and a handle left unusable poisons
    /// itself and surfaces on the next append.
    pub(crate) fn commit(
        &mut self,
        frames: &[u8],
        install: impl FnOnce(),
        committed: impl FnOnce() -> Catalog,
    ) -> Result<()> {
        self.append(frames)?;
        install();
        if self.wants_checkpoint() {
            let _ = self.checkpoint(&committed());
        }
        Ok(())
    }

    /// Append an already-framed buffer as one write and, when configured,
    /// one fsync — the commit point — then apply its committed deltas to
    /// the trees.
    ///
    /// On failure the file is rolled back to the last good frame
    /// boundary, so a partial frame can never sit *between* acknowledged
    /// commits (recovery truncates at the first bad frame — garbage in
    /// the middle would silently discard every later commit). If the
    /// rollback itself fails, the log poisons: all further appends error
    /// until the database is reopened.
    fn append(&mut self, buf: &[u8]) -> Result<()> {
        if self.poisoned {
            return Err(Error::Io(
                "wal: poisoned by an earlier i/o failure; reopen the database".into(),
            ));
        }
        let wrote = self.file.write_all_at(self.len, buf).and_then(|()| {
            if self.config.sync {
                self.file.sync_data()?;
            }
            Ok(())
        });
        match wrote {
            Ok(()) => {
                self.len += buf.len() as u64;
                // The frames are durable — the commit is already
                // acknowledged territory, so tree maintenance must not
                // fail it. Any hiccup flips the pager to rebuild mode
                // (next checkpoint rebuilds from the catalog).
                apply_frames_to_pager(&self.pager, buf);
                Ok(())
            }
            Err(e) => {
                let rewound =
                    self.file.set_len(self.len).and_then(|()| self.file.sync_data());
                if rewound.is_err() {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// True once the log has reached the configured checkpoint budget.
    /// `>=`, not `>`: a log landing exactly on the budget checkpoints too
    /// (the strict form let it sit at the boundary forever).
    fn wants_checkpoint(&self) -> bool {
        self.len >= self.config.checkpoint_bytes
    }

    /// Page-store counters (pool hits/misses/evictions, epoch).
    pub fn pager_stats(&self) -> crate::pager::PagerStats {
        self.pager.stats()
    }

    /// Compact the log: flush the dirty pages and flip the meta
    /// (O(dirty pages)), then swap the log for a bare
    /// [`WalRecord::PagedCheckpoint`] marker via tmp + fsync + rename +
    /// dir-sync; on return the log holds exactly one record. `catalog`
    /// must hold every commit in the log — in degraded mode the trees are
    /// rebuilt from it.
    pub fn checkpoint(&mut self, catalog: &Catalog) -> Result<()> {
        // A retryable pager failure leaves durable state at the old
        // epoch with all retry state intact — no poison. But if the
        // meta rename landed and only its directory sync failed, the
        // new meta is ambiguously durable while this log still holds
        // pre-checkpoint records: a commit acknowledged now would be
        // silently discarded by a recovery that trusts the surviving
        // meta, so the log must poison (same contract as a failed
        // dir sync in [`Self::swap_log`]).
        let epoch = match self.pager.checkpoint(catalog) {
            Ok(epoch) => epoch,
            Err(e @ crate::pager::CheckpointError::Ambiguous(_)) => {
                self.poisoned = true;
                return Err(e.into_error());
            }
            Err(e) => return Err(e.into_error()),
        };
        self.swap_log(&WalRecord::PagedCheckpoint { epoch })
    }

    /// Atomically replace the log with a single record.
    fn swap_log(&mut self, record: &WalRecord) -> Result<()> {
        let mut buf = Vec::new();
        frame(record, &mut buf);

        let mut tmp_name = self.path.clone().into_os_string();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        {
            let mut f = self.vfs.create(&tmp)?;
            f.write_all_at(0, &buf)?;
            f.sync_data()?;
        }
        self.vfs.rename(&tmp, &self.path)?;
        // The rename must be durable before any post-checkpoint commit
        // can be acknowledged: until the directory entry reaches disk, a
        // crash resolves the log's name to the OLD inode, so every later
        // append — fsynced to the new inode and acknowledged — would
        // silently vanish. A failed directory sync therefore poisons the
        // log: no further append can be falsely acknowledged, and a
        // reopen recovers from whichever image survived (old log and new
        // image hold the same committed state).
        if let Err(e) = self.vfs.sync_parent_dir(&self.path) {
            self.poisoned = true;
            return Err(e);
        }
        // The rename unlinked the old inode `self.file` points at. If the
        // reopen fails we must poison: appending through the stale handle
        // would "durably" write into a deleted file.
        match self.vfs.open(&self.path) {
            Ok(file) => {
                self.file = file;
                self.len = buf.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::Column;
    use crate::value::Value;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "swan-wal-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&p);
        // The paged store keeps siblings next to the log; stale ones from
        // a previous run would be a different database.
        for suffix in [".pages", ".meta"] {
            let mut s = p.clone().into_os_string();
            s.push(suffix);
            let _ = std::fs::remove_file(PathBuf::from(s));
        }
        p
    }

    fn sample_table(rows: usize) -> Table {
        let mut t = Table::new(
            "t",
            vec![Column::new("id"), Column::new("name")],
            &["id".to_string()],
        )
        .unwrap();
        for i in 0..rows {
            t.insert_row(vec![(i as i64).into(), format!("row-{i}").into()]).unwrap();
        }
        t
    }

    /// A log landing *exactly* on `checkpoint_bytes` must checkpoint
    /// (`>=`): the old strict `>` let a log that hit the budget on the
    /// nose sit at the boundary forever, never reclaiming it.
    #[test]
    fn checkpoint_triggers_exactly_at_the_byte_budget() {
        let path = temp_path("ckpt-boundary");
        let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        rec.wal
            .append(&frame_group(&[WalRecord::Begin { txn: 1 }, WalRecord::Commit { txn: 1 }]))
            .unwrap();
        let len = rec.wal.len;
        assert!(len > 0);
        rec.wal.config.checkpoint_bytes = len + 1;
        assert!(!rec.wal.wants_checkpoint(), "one byte under budget: no checkpoint yet");
        rec.wal.config.checkpoint_bytes = len;
        assert!(rec.wal.wants_checkpoint(), "exactly at budget: must checkpoint");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_and_reopen_round_trips() {
        let path = temp_path("roundtrip");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            assert!(rec.catalog.is_empty());
            rec.wal
                .append(&frame_group(&[
                    WalRecord::Begin { txn: 1 },
                    WalRecord::Delta {
                        txn: 1,
                        delta: WalDelta::Put { table: Arc::new(sample_table(3)) },
                    },
                    WalRecord::Commit { txn: 1 },
                ]))
                .unwrap();
        }
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert_eq!(rec.max_txn, 1);
        assert_eq!(rec.catalog.row_count("t"), Some(3));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn uncommitted_transactions_are_discarded() {
        let path = temp_path("uncommitted");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            rec.wal
                .append(&frame_group(&[
                    WalRecord::Begin { txn: 7 },
                    WalRecord::Delta {
                        txn: 7,
                        delta: WalDelta::Put { table: Arc::new(sample_table(5)) },
                    },
                    // No commit: a crash happened before the commit record.
                ]))
                .unwrap();
        }
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert!(rec.catalog.is_empty(), "uncommitted delta must not apply");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_offset() {
        let path = temp_path("torn");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            rec.wal
                .append(&frame_group(&[
                    WalRecord::Begin { txn: 1 },
                    WalRecord::Delta {
                        txn: 1,
                        delta: WalDelta::Put { table: Arc::new(sample_table(2)) },
                    },
                    WalRecord::Commit { txn: 1 },
                ]))
                .unwrap();
        }
        let intact = std::fs::read(&path).unwrap();
        for cut in 0..intact.len() {
            std::fs::write(&path, &intact[..cut]).unwrap();
            let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            // Either nothing committed yet (torn inside the txn) or the
            // full commit survived; never a partial state.
            let n = rec.catalog.row_count("t");
            assert!(
                n.is_none() || n == Some(2),
                "cut at {cut}: unexpected state {n:?}"
            );
            drop(rec);
            // The torn tail is physically gone: reopening is idempotent.
            let reopened = std::fs::metadata(&path).unwrap().len();
            let again = Wal::open(&path, DurabilityConfig::default()).unwrap();
            assert_eq!(again.wal.len(), reopened);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bitflip_invalidates_the_frame() {
        let path = temp_path("bitflip");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            rec.wal
                .append(&frame_group(&[
                    WalRecord::Begin { txn: 1 },
                    WalRecord::Delta {
                        txn: 1,
                        delta: WalDelta::Put { table: Arc::new(sample_table(2)) },
                    },
                    WalRecord::Commit { txn: 1 },
                ]))
                .unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert!(
            rec.catalog.row_count("t").is_none(),
            "a corrupted delta frame must invalidate the whole transaction"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoint_compacts_and_replays() {
        let path = temp_path("checkpoint");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            let mut catalog = Catalog::new();
            catalog.put_table(sample_table(4));
            for txn in 1..=10u64 {
                rec.wal
                    .append(&frame_group(&[
                        WalRecord::Begin { txn },
                        WalRecord::Delta {
                            txn,
                            delta: WalDelta::Put { table: Arc::new(sample_table(4)) },
                        },
                        WalRecord::Commit { txn },
                    ]))
                    .unwrap();
            }
            let before = rec.wal.len();
            rec.wal.checkpoint(&catalog).unwrap();
            assert!(rec.wal.len() < before, "checkpoint must shrink the log");
        }
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert_eq!(rec.catalog.row_count("t"), Some(4));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_delta_extends_existing_table() {
        let path = temp_path("appendrows");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            let base = sample_table(2);
            let extra: Vec<Row> = vec![
                vec![Value::Integer(2), Value::text("row-2")].into(),
                vec![Value::Integer(3), Value::text("row-3")].into(),
            ];
            rec.wal
                .append(&frame_group(&[
                    WalRecord::Begin { txn: 1 },
                    WalRecord::Delta {
                        txn: 1,
                        delta: WalDelta::Put { table: Arc::new(base) },
                    },
                    WalRecord::Commit { txn: 1 },
                    WalRecord::Begin { txn: 2 },
                    WalRecord::Delta {
                        txn: 2,
                        delta: WalDelta::Append { table: "t".into(), rows: extra, new_version: 5 },
                    },
                    WalRecord::Commit { txn: 2 },
                ]))
                .unwrap();
        }
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert_eq!(rec.catalog.row_count("t"), Some(4));
        assert_eq!(rec.catalog.version("t"), Some(5));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn row_patch_delta_replays_updates_and_deletes() {
        let path = temp_path("rowpatch");
        {
            let mut rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
            // Base: ids 0..4. Patch: delete id 1, rewrite id 2, insert id 9.
            let deletes: Vec<Row> = vec![vec![Value::Integer(1)].into()];
            let upserts: Vec<Row> = vec![
                vec![Value::Integer(2), Value::text("rewritten")].into(),
                vec![Value::Integer(9), Value::text("fresh")].into(),
            ];
            rec.wal
                .append(&frame_group(&[
                    WalRecord::Begin { txn: 1 },
                    WalRecord::Delta {
                        txn: 1,
                        delta: WalDelta::Put { table: Arc::new(sample_table(4)) },
                    },
                    WalRecord::Commit { txn: 1 },
                    WalRecord::Begin { txn: 2 },
                    WalRecord::Delta {
                        txn: 2,
                        delta: WalDelta::RowPatch {
                            table: "t".into(),
                            deletes,
                            upserts,
                            new_version: 9,
                        },
                    },
                    WalRecord::Commit { txn: 2 },
                ]))
                .unwrap();
        }
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert_eq!(rec.catalog.row_count("t"), Some(4), "4 - 1 deleted + 1 inserted");
        assert_eq!(rec.catalog.version("t"), Some(9));
        let t = rec.catalog.get("t").unwrap();
        // The rewrite lands in place (row order preserved), the insert at
        // the tail, and the deleted key is gone.
        let ids: Vec<Option<i64>> = t.rows().iter().map(|r| r[0].as_i64()).collect();
        assert_eq!(ids, vec![Some(0), Some(2), Some(3), Some(9)]);
        assert_eq!(t.rows()[1][1], Value::text("rewritten"));
        let _ = std::fs::remove_file(&path);
    }

    /// A CRC-valid tag-4 frame is a database in the pre-pager image
    /// format. Failing to decode it must not read as a torn tail — that
    /// would `set_len` the only copy of the data away. The open is
    /// refused with a typed error and nothing on disk changes.
    #[test]
    fn legacy_image_record_is_refused_not_truncated() {
        fn framed(payload: &[u8]) -> Vec<u8> {
            let mut out = Vec::new();
            put_u32(&mut out, payload.len() as u32);
            put_u32(&mut out, crc32(payload));
            out.extend_from_slice(payload);
            out
        }
        let path = temp_path("legacy");
        let sibling = |suffix: &str| {
            let mut s = path.clone().into_os_string();
            s.push(suffix);
            PathBuf::from(s)
        };
        // An image of zero tables, as the removed writer framed it.
        let image = framed(&[LEGACY_IMAGE_TAG, 0, 0, 0, 0]);
        let commit = frame_group(&[WalRecord::Begin { txn: 1 }, WalRecord::Commit { txn: 1 }]);
        // First record, or anywhere in the intact prefix.
        for bytes in [[image.clone(), commit.clone()].concat(), [commit.clone(), image].concat()] {
            std::fs::write(&path, &bytes).unwrap();
            let err = Wal::open(&path, DurabilityConfig::default()).unwrap_err();
            assert!(
                matches!(&err, Error::Io(m) if m.contains("legacy whole-image")),
                "must name the format: {err}"
            );
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "the file must be untouched");
            assert!(!sibling(".pages").exists() && !sibling(".meta").exists());
        }
        // Tag 4 behind a failed checksum is an ordinary torn tail.
        let mut torn = framed(&[LEGACY_IMAGE_TAG, 0, 0, 0, 0]);
        torn[4] ^= 1;
        std::fs::write(&path, [commit.clone(), torn].concat()).unwrap();
        let rec = Wal::open(&path, DurabilityConfig::default()).unwrap();
        assert_eq!(rec.wal.len(), commit.len() as u64);
        let _ = std::fs::remove_file(&path);
    }

    /// A checkpoint hands the pager the *committed* catalog, and a
    /// degraded-mode checkpoint rebuilds the durable trees from what it is
    /// handed: a transaction still open on some session must not become
    /// durable through it. (The deleted single-session handle once passed
    /// its working catalog here; a `Session`'s working catalog is private
    /// to the session, so `SharedDb::checkpoint` cannot even reach it.)
    #[test]
    fn checkpoint_inside_a_transaction_sees_only_committed_rows() {
        use crate::shared::SharedDb;
        let path = temp_path("ckpt-in-txn");
        {
            let db = SharedDb::open(&path).unwrap();
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            let mut session = db.session();
            session.execute("BEGIN").unwrap();
            session.execute("INSERT INTO t VALUES (2)").unwrap();
            db.with_wal(|wal| wal.pager.set_rebuild());
            db.checkpoint().unwrap();
        }
        let db = SharedDb::open(&path).unwrap();
        assert_eq!(db.row_count("t"), Some(1), "the open transaction never committed");
        let _ = std::fs::remove_file(&path);
    }
}
