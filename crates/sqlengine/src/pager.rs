//! # Double-slot shadow-paged storage
//!
//! The durable page store behind the WAL ([`crate::wal`]): the recovery
//! image of the database, and only that. Queries read the in-memory
//! tables; a commit only appends to the log. The page file is read by
//! recovery and read and written by a checkpoint, which folds the log's
//! tail into the trees and flushes only the pages that fold touched —
//! O(changes), not O(database).
//!
//! ## Layout
//!
//! Two files live next to the WAL, both reached only through the
//! [`Vfs`] seam:
//!
//! * `<wal>.pages` — the page file. Each **logical** page id `p ≥ 1` owns
//!   two 4 KiB **physical slots** at offsets `(2(p-1) + s) · 4096`,
//!   `s ∈ {0, 1}`. Exactly one slot is *current* (named by the meta
//!   file); the other is the *shadow*. Every write — a checkpoint's flush
//!   and its early write-backs — goes to the shadow slot, so the durable
//!   current image is **never overwritten** and a torn write can never
//!   damage committed state. Page ids are stable forever, which keeps
//!   B-tree leaf links valid with no page relocation. The price is 2×
//!   page-file space.
//! * `<wal>.meta` — the atomically-replaced root of trust: epoch,
//!   current-slot bitmap, free list, and per-table tree roots + schema.
//!   Written via tmp file + fsync + rename + parent-dir sync (the same
//!   protocol the WAL swap uses), so it is always old-or-new.
//!
//! ## Checkpoint protocol (under the WAL mutex)
//!
//! 0. fold the tail: the committed deltas the log holds since its last
//!    marker replay, in log order, into a *copy* of the tree metadata,
//!    through a page set capped at
//!    [`DurabilityConfig::pool_pages`](crate::wal::DurabilityConfig::pool_pages)
//!    — a full set writes its dirty pages to their shadow slots and
//!    empties;
//! 1. write the set's remaining dirty pages to their shadow slots;
//!    `fsync` the page file;
//! 2. write meta for `epoch+1` with the slot bits of all shadow-written
//!    pages flipped; rename it into place (the atomic commit point);
//! 3. the caller ([`crate::wal::Wal::checkpoint`]) then rewrites the WAL
//!    to a single [`WalRecord::PagedCheckpoint`] marker.
//!
//! A folded row costs a descent of binary searches in place and one
//! spliced leaf copy ([`crate::btree`]), plus its share of eight-byte-step
//! CRCs: loading `durable_mixed`'s 20,000 rows through 40 checkpoints folds
//! at ≈6 µs a row, ≈3 µs of it the tree insert (2-core host, ext4).
//!
//! A crash before (2) recovers at the old epoch with the full WAL tail;
//! shadow writes are invisible because the old meta still names the old
//! slots. A crash between (2) and (3) leaves the WAL marker *behind* the
//! meta epoch — recovery trusts the meta and discards the stale tail,
//! which is sound because the whole checkpoint runs under the WAL lock:
//! every record in that tail was folded into the trees the meta made
//! durable. A WAL marker *ahead* of the meta epoch is loud corruption.
//! Any failure before (2) completes — a page read, a write-back, a tree
//! error — drops the copy and leaves the tail in place, so the next
//! checkpoint folds the same tail into the same durable trees again: a
//! retry, with nothing to degrade.
//!
//! Locks: the pager has none of its own. It is a plain field of the
//! [`Wal`](crate::wal::Wal), reached only under the WAL mutex; SimFs
//! state (40) sits below. See ANALYSIS.md.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::btree::{self, PageStore, MAX_KEY};
use crate::error::{Error, Result};
use crate::storage::{
    codec_err, decode_row, encode_row, get_str, get_u32, get_u64, get_u8, put_str, put_u32,
    put_u64, take, Catalog, Column, Table, TextInterner,
};
use crate::value::{Row, Value};
use crate::vfs::{Vfs, VfsFile};
use crate::wal::{crc32, for_each_committed, records_in, WalDelta};

/// Physical page size: header + payload, both slots of a page id.
pub const PAGE_SIZE: usize = 4096;
/// Page header: crc(4) + id(8) + epoch(8) + type(1) + pad(3) + len(4).
pub(crate) const PAGE_HDR: usize = 28;
/// Usable payload bytes per page.
pub(crate) const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_HDR;

/// Default page-set cap in pages (1 MiB of 4 KiB pages).
pub const DEFAULT_POOL_PAGES: usize = 256;

const META_MAGIC: u32 = 0x5357_4D31; // "SWM1"
const KIND_TREE: u8 = 1;
const KIND_HEAP: u8 = 2;

/// A decoded page: its type byte and payload. Shared immutably between
/// a checkpoint's page set and the tree code reading it; writers install
/// a fresh `PageBuf`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PageBuf {
    pub typ: u8,
    pub data: Vec<u8>,
}

fn encode_page_image(id: u64, epoch: u64, buf: &PageBuf) -> Result<Vec<u8>> {
    if buf.data.len() > PAGE_PAYLOAD {
        return Err(Error::Internal(format!(
            "pager: page {id} payload of {} bytes exceeds {PAGE_PAYLOAD}",
            buf.data.len()
        )));
    }
    let mut img = vec![0u8; PAGE_SIZE];
    img[4..12].copy_from_slice(&id.to_le_bytes());
    img[12..20].copy_from_slice(&epoch.to_le_bytes());
    img[20] = buf.typ;
    img[24..28].copy_from_slice(&(buf.data.len() as u32).to_le_bytes());
    img[28..28 + buf.data.len()].copy_from_slice(&buf.data);
    let crc = crc32(&img[4..28 + buf.data.len()]);
    img[0..4].copy_from_slice(&crc.to_le_bytes());
    Ok(img)
}

fn parse_page_image(img: &[u8], want_id: u64) -> Result<PageBuf> {
    if img.len() != PAGE_SIZE {
        return Err(Error::Io(format!("pager: short page image ({} bytes)", img.len())));
    }
    let stored_crc = u32::from_le_bytes([img[0], img[1], img[2], img[3]]);
    let id = u64::from_le_bytes([
        img[4], img[5], img[6], img[7], img[8], img[9], img[10], img[11],
    ]);
    let typ = img[20];
    let len = u32::from_le_bytes([img[24], img[25], img[26], img[27]]) as usize;
    if len > PAGE_PAYLOAD {
        return Err(Error::Io(format!("pager: page {want_id} claims {len} payload bytes")));
    }
    if crc32(&img[4..28 + len]) != stored_crc {
        return Err(Error::Io(format!("pager: CRC mismatch on page {want_id}")));
    }
    if id != want_id {
        return Err(Error::Io(format!("pager: page slot holds id {id}, expected {want_id}")));
    }
    Ok(PageBuf { typ, data: img[28..28 + len].to_vec() })
}

/// Durable per-table state recorded in the meta file.
#[derive(Debug, Clone)]
struct TableMeta {
    columns: Vec<Column>,
    pk: Vec<usize>,
    version: u64,
    row_count: u64,
    /// `KIND_TREE` (primary key) or `KIND_HEAP` (no primary key).
    kind: u8,
    /// Tree root or heap head (`0` = empty).
    root: u64,
    /// Heap tail (unused for trees).
    tail: u64,
    /// Next insertion stamp; sparse and monotone.
    next_seq: u64,
}

/// The tree metadata a meta file records. A checkpoint folds into a copy
/// and installs it only once the meta rename has landed.
#[derive(Debug, Clone, Default)]
struct Trees {
    /// First unallocated page id (ids start at 1).
    next_page: u64,
    /// Current-slot bit per page id (`slots[id-1]`).
    slots: Vec<u8>,
    free: Vec<u64>,
    tables: BTreeMap<String, TableMeta>,
}

/// Page counters, surfaced through [`PagerStats::pool`]. Pages are read
/// only by a checkpoint's fold and by recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Page reads served from the running checkpoint's page set.
    pub hits: u64,
    /// Page reads from the page file.
    pub misses: u64,
    /// Pages a full page set dropped mid-checkpoint.
    pub evictions: u64,
    /// Of those, the dirty ones: written back to their shadow slots early.
    pub dirty_evictions: u64,
}

/// Counters surfaced through [`crate::shared::SharedDb::pager_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagerStats {
    pub epoch: u64,
    pub pages: u64,
    pub pool: PoolStats,
}

/// How a failed [`Pager::checkpoint`] left the durable state.
#[derive(Debug)]
pub(crate) enum CheckpointError {
    /// The durable meta is unchanged (old epoch) and so is the pager: the
    /// fold's copy is dropped, and a later checkpoint folds the same tail
    /// again. No poison.
    Retryable(Error),
    /// The meta rename was issued but its parent-directory sync failed:
    /// the new meta is *ambiguously* durable while the log still holds
    /// pre-checkpoint records and no marker. If commits kept being
    /// acknowledged onto that log and the new meta then survived a
    /// crash, recovery would trust the meta and discard them. The caller
    /// must poison the log so nothing further is acknowledged.
    Ambiguous(Error),
}

impl CheckpointError {
    pub(crate) fn into_error(self) -> Error {
        match self {
            CheckpointError::Retryable(e) | CheckpointError::Ambiguous(e) => e,
        }
    }
}

pub(crate) struct Pager {
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    meta_path: PathBuf,
    /// Epoch of the durable meta file; `0` = never checkpointed.
    epoch: u64,
    /// The trees the durable meta names.
    trees: Trees,
    /// Page-set cap of a fold, in pages.
    cap: usize,
    stats: PoolStats,
}

/// One pass over the page file — a checkpoint's fold, or recovery's
/// read: a copy of the tree metadata plus the pages the pass has read or
/// written, at most `cap` of them. Handed to the tree layer as its
/// [`PageStore`].
struct Fold<'a> {
    file: &'a mut dyn VfsFile,
    stats: &'a mut PoolStats,
    cap: usize,
    /// The epoch this pass would commit; stamped into page images.
    epoch: u64,
    trees: Trees,
    /// Pages read or written by this pass (`true` = dirty). A BTreeMap so
    /// write-backs go out in page-id order, deterministic for the
    /// crash-sim sweep.
    pages: BTreeMap<u64, (Arc<PageBuf>, bool)>,
    /// Pages whose shadow slot holds this pass's image.
    shadow: BTreeSet<u64>,
}

impl Fold<'_> {
    fn page_offset(id: u64, slot: u8) -> u64 {
        (2 * (id - 1) + slot as u64) * PAGE_SIZE as u64
    }

    /// The durable current slot of `id`.
    fn current_slot(&self, id: u64) -> Result<u8> {
        if id == 0 || id >= self.trees.next_page {
            return Err(Error::Internal(format!("pager: page id {id} out of range")));
        }
        Ok(self.trees.slots[(id - 1) as usize] & 1)
    }

    /// Add a page to the set. A set that reaches its cap writes its dirty
    /// pages to their shadow slots and empties.
    fn hold(&mut self, id: u64, buf: Arc<PageBuf>, dirty: bool) -> Result<()> {
        self.pages.insert(id, (buf, dirty));
        if self.pages.len() < self.cap {
            return Ok(());
        }
        let evicted = self.pages.len() as u64;
        let written = self.write_back()?;
        self.stats.evictions += evicted;
        self.stats.dirty_evictions += written;
        Ok(())
    }

    /// Write every dirty page of the set to its shadow slot and empty the
    /// set; returns how many pages were written.
    fn write_back(&mut self) -> Result<u64> {
        let mut written = 0;
        for (id, (buf, dirty)) in std::mem::take(&mut self.pages) {
            if dirty {
                let slot = self.current_slot(id)? ^ 1;
                let img = encode_page_image(id, self.epoch, &buf)?;
                self.file.write_all_at(Self::page_offset(id, slot), &img)?;
                self.shadow.insert(id);
                written += 1;
            }
        }
        Ok(written)
    }

    /// Flush the set and flip the slot bit of every shadow-written page:
    /// the trees the next meta names.
    fn finish(mut self) -> Result<Trees> {
        self.write_back()?;
        for &id in &self.shadow {
            self.trees.slots[(id - 1) as usize] ^= 1;
        }
        Ok(self.trees)
    }

    /// Fold one committed delta into the trees.
    fn apply_delta(&mut self, delta: &WalDelta) -> Result<()> {
        match delta {
            WalDelta::Put { table } => {
                if let Some(tm) = self.trees.tables.remove(&table.name) {
                    free_table(self, &tm)?;
                }
                let tm = build_table(
                    self,
                    &table.columns,
                    &table.primary_key,
                    table.version,
                    table.rows(),
                )?;
                self.trees.tables.insert(table.name.clone(), tm);
            }
            WalDelta::Append { table, rows, new_version } => {
                let mut tm = self.table(table)?;
                for row in rows {
                    append_row(self, &mut tm, row)?;
                }
                tm.version = *new_version;
                self.trees.tables.insert(table.clone(), tm);
            }
            WalDelta::Drop { name } => {
                if let Some(tm) = self.trees.tables.remove(name) {
                    free_table(self, &tm)?;
                }
            }
            WalDelta::RowPatch { table, deletes, upserts, new_version } => {
                let mut tm = self.table(table)?;
                if tm.kind != KIND_TREE {
                    return Err(Error::Internal(format!(
                        "pager: row patch against heap table '{table}'"
                    )));
                }
                for tuple in deletes {
                    let key = encode_tuple_key(tuple);
                    if btree::tree_delete(self, tm.root, &key)? {
                        tm.row_count = tm.row_count.saturating_sub(1);
                    }
                }
                for row in upserts {
                    append_row(self, &mut tm, row)?;
                }
                tm.version = *new_version;
                self.trees.tables.insert(table.clone(), tm);
            }
        }
        Ok(())
    }

    fn table(&self, name: &str) -> Result<TableMeta> {
        self.trees.tables.get(name).cloned().ok_or_else(|| {
            Error::Internal(format!("pager: delta references unknown table '{name}'"))
        })
    }
}

impl PageStore for Fold<'_> {
    fn read(&mut self, id: u64) -> Result<Arc<PageBuf>> {
        if let Some((buf, _)) = self.pages.get(&id) {
            self.stats.hits += 1;
            return Ok(buf.clone());
        }
        self.stats.misses += 1;
        let cur = self.current_slot(id)?;
        let slot = if self.shadow.contains(&id) { cur ^ 1 } else { cur };
        let img = self.file.read_exact_at(Self::page_offset(id, slot), PAGE_SIZE)?;
        let buf = Arc::new(parse_page_image(&img, id)?);
        self.hold(id, buf.clone(), false)?;
        Ok(buf)
    }

    fn write(&mut self, id: u64, typ: u8, data: Vec<u8>) -> Result<()> {
        if data.len() > PAGE_PAYLOAD {
            return Err(Error::Internal(format!(
                "pager: write of {} payload bytes to page {id}",
                data.len()
            )));
        }
        self.hold(id, Arc::new(PageBuf { typ, data }), true)
    }

    fn alloc(&mut self) -> Result<u64> {
        if let Some(id) = self.trees.free.pop() {
            return Ok(id);
        }
        let id = self.trees.next_page;
        self.trees.next_page += 1;
        self.trees.slots.push(0);
        Ok(id)
    }

    fn free(&mut self, id: u64) -> Result<()> {
        self.pages.remove(&id);
        self.shadow.remove(&id);
        self.trees.free.push(id);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Key encoding
// ---------------------------------------------------------------------------

/// Encode the primary-key cells of `row` (by `pk` column indexes) as a
/// tree key: the `encode_row` image of just those values.
fn encode_pk_key(row: &[Value], pk: &[usize]) -> Result<Vec<u8>> {
    let mut buf = Vec::with_capacity(16);
    put_u32(&mut buf, pk.len() as u32);
    for &i in pk {
        let v = row
            .get(i)
            .ok_or_else(|| Error::Internal(format!("pager: pk column {i} out of row bounds")))?;
        crate::storage::encode_value(&mut buf, v);
    }
    Ok(buf)
}

/// Byte length of [`encode_pk_key`]'s image, computed without building it.
fn pk_key_len(row: &[Value], pk: &[usize]) -> usize {
    4 + pk
        .iter()
        .map(|&i| match row.get(i) {
            Some(Value::Integer(_) | Value::Real(_)) => 9,
            Some(Value::Text(s)) => 5 + s.len(),
            Some(Value::Null) | None => 1,
        })
        .sum::<usize>()
}

/// Refuse a delta, before it is logged, when one of its rows carries a
/// primary key no tree page can hold: once acknowledged, such a row would
/// fail every later checkpoint's fold. `pk_of` names a table's primary-key
/// columns (`None` or empty = a heap table, which has no keys).
pub(crate) fn check_key_sizes<'a>(
    delta: &WalDelta,
    pk_of: impl Fn(&str) -> Option<&'a [usize]>,
) -> Result<()> {
    let (table, rows): (&str, Box<dyn Iterator<Item = &Row>>) = match delta {
        WalDelta::Put { table } => (table.name.as_str(), Box::new(table.rows().iter())),
        WalDelta::Append { table, rows, .. } => (table.as_str(), Box::new(rows.iter())),
        WalDelta::RowPatch { table, upserts, .. } => (table.as_str(), Box::new(upserts.iter())),
        WalDelta::Drop { .. } => return Ok(()),
    };
    let Some(pk) = pk_of(table).filter(|pk| !pk.is_empty()) else { return Ok(()) };
    match rows.map(|row| pk_key_len(row, pk)).max() {
        Some(len) if len > MAX_KEY => Err(Error::Constraint(format!(
            "primary key of a row in table '{table}' encodes to {len} bytes; \
             the paged store holds keys of at most {MAX_KEY} bytes"
        ))),
        _ => Ok(()),
    }
}

/// Encode an already-projected pk tuple (a `RowPatch` delete row).
fn encode_tuple_key(tuple: &[Value]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16);
    put_u32(&mut buf, tuple.len() as u32);
    for v in tuple {
        crate::storage::encode_value(&mut buf, v);
    }
    buf
}

// ---------------------------------------------------------------------------
// Meta codec
// ---------------------------------------------------------------------------

fn encode_meta(epoch: u64, trees: &Trees) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 + trees.slots.len());
    put_u64(&mut p, epoch);
    put_u64(&mut p, trees.next_page);
    p.extend_from_slice(&trees.slots);
    put_u32(&mut p, trees.free.len() as u32);
    for &id in &trees.free {
        put_u64(&mut p, id);
    }
    put_u32(&mut p, trees.tables.len() as u32);
    for (name, tm) in &trees.tables {
        put_str(&mut p, name);
        p.push(tm.kind);
        put_u64(&mut p, tm.root);
        put_u64(&mut p, tm.tail);
        put_u64(&mut p, tm.next_seq);
        put_u64(&mut p, tm.version);
        put_u64(&mut p, tm.row_count);
        put_u32(&mut p, tm.columns.len() as u32);
        for c in &tm.columns {
            put_str(&mut p, &c.name);
            match &c.decl_type {
                Some(t) => {
                    p.push(1);
                    put_str(&mut p, t);
                }
                None => p.push(0),
            }
            p.push(c.not_null as u8);
        }
        put_u32(&mut p, tm.pk.len() as u32);
        for &i in &tm.pk {
            put_u32(&mut p, i as u32);
        }
    }
    let mut out = Vec::with_capacity(8 + p.len());
    put_u32(&mut out, META_MAGIC);
    put_u32(&mut out, crc32(&p));
    out.extend_from_slice(&p);
    out
}

/// Decode a meta file: its epoch and the trees it names.
fn parse_meta(bytes: &[u8]) -> Result<(u64, Trees)> {
    let mut pos = 0usize;
    if get_u32(bytes, &mut pos)? != META_MAGIC {
        return Err(Error::Io("pager: bad meta magic".into()));
    }
    let stored_crc = get_u32(bytes, &mut pos)?;
    if crc32(&bytes[pos..]) != stored_crc {
        return Err(Error::Io("pager: meta CRC mismatch".into()));
    }
    let epoch = get_u64(bytes, &mut pos)?;
    let next_page = get_u64(bytes, &mut pos)?;
    if epoch == 0 || next_page == 0 || next_page > 1 << 40 {
        return Err(Error::Io("pager: implausible meta header".into()));
    }
    let slots = take(bytes, &mut pos, (next_page - 1) as usize)?.to_vec();
    let nfree = get_u32(bytes, &mut pos)? as usize;
    let mut free = Vec::with_capacity(nfree.min(1 << 20));
    for _ in 0..nfree {
        free.push(get_u64(bytes, &mut pos)?);
    }
    let ntables = get_u32(bytes, &mut pos)? as usize;
    let mut tables = BTreeMap::new();
    for _ in 0..ntables {
        let name = get_str(bytes, &mut pos)?.to_string();
        let kind = get_u8(bytes, &mut pos)?;
        if kind != KIND_TREE && kind != KIND_HEAP {
            return Err(codec_err("pager meta table kind"));
        }
        let root = get_u64(bytes, &mut pos)?;
        let tail = get_u64(bytes, &mut pos)?;
        let next_seq = get_u64(bytes, &mut pos)?;
        let version = get_u64(bytes, &mut pos)?;
        let row_count = get_u64(bytes, &mut pos)?;
        let ncols = get_u32(bytes, &mut pos)? as usize;
        let mut columns = Vec::with_capacity(ncols.min(1 << 16));
        for _ in 0..ncols {
            let cname = get_str(bytes, &mut pos)?.to_string();
            let decl_type = match get_u8(bytes, &mut pos)? {
                0 => None,
                1 => Some(get_str(bytes, &mut pos)?.to_string()),
                _ => return Err(codec_err("pager meta decl tag")),
            };
            let not_null = get_u8(bytes, &mut pos)? != 0;
            columns.push(Column { name: cname, decl_type, not_null });
        }
        let npk = get_u32(bytes, &mut pos)? as usize;
        let mut pk = Vec::with_capacity(npk.min(1 << 16));
        for _ in 0..npk {
            let i = get_u32(bytes, &mut pos)? as usize;
            if i >= columns.len() {
                return Err(codec_err("pager meta pk index"));
            }
            pk.push(i);
        }
        if (kind == KIND_TREE) == pk.is_empty() {
            return Err(codec_err("pager meta kind/pk mismatch"));
        }
        tables.insert(name, TableMeta { columns, pk, version, row_count, kind, root, tail, next_seq });
    }
    Ok((epoch, Trees { next_page, slots, free, tables }))
}

// ---------------------------------------------------------------------------
// Pager
// ---------------------------------------------------------------------------

fn sibling_path(wal_path: &Path, suffix: &str) -> PathBuf {
    let mut s = wal_path.as_os_str().to_os_string();
    s.push(suffix);
    PathBuf::from(s)
}

impl Pager {
    /// Open (or create) the page store next to `wal_path`. Reads the meta
    /// file if present; a missing or unreadable meta yields a fresh pager
    /// at epoch 0 — [`crate::wal::Wal::open_on`] cross-checks the WAL's
    /// checkpoint marker against the meta epoch, so a lost meta with a
    /// durable marker is a loud error, not silent data loss.
    pub(crate) fn open(vfs: Arc<dyn Vfs>, wal_path: &Path, pool_pages: usize) -> Result<Pager> {
        let meta_path = sibling_path(wal_path, ".meta");
        let (epoch, trees) = match vfs.read(&meta_path) {
            Ok(bytes) if !bytes.is_empty() => parse_meta(&bytes)?,
            _ => (0, Trees { next_page: 1, ..Trees::default() }),
        };
        let file = vfs.open(&sibling_path(wal_path, ".pages"))?;
        Ok(Pager {
            vfs,
            file,
            meta_path,
            epoch,
            trees,
            cap: pool_pages,
            stats: PoolStats::default(),
        })
    }

    /// Epoch of the durable meta (`0` = never checkpointed).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    pub(crate) fn stats(&self) -> PagerStats {
        PagerStats { epoch: self.epoch, pages: self.trees.next_page - 1, pool: self.stats }
    }

    /// A pass over the durable trees, committing as epoch `epoch + 1`.
    fn fold(&mut self) -> Fold<'_> {
        Fold {
            file: &mut *self.file,
            stats: &mut self.stats,
            cap: self.cap,
            epoch: self.epoch + 1,
            trees: self.trees.clone(),
            pages: BTreeMap::new(),
            shadow: BTreeSet::new(),
        }
    }

    /// Rebuild the catalog from the durable trees (recovery with a
    /// current meta). Rows come back in `seq` order — byte-identical to
    /// the in-memory row order at checkpoint time.
    pub(crate) fn materialize_catalog(&mut self) -> Result<Catalog> {
        let mut io = self.fold();
        let metas = io.trees.tables.clone();
        let mut catalog = Catalog::new();
        let mut interner = TextInterner::new();
        for (name, tm) in metas {
            let mut cells: Vec<(u64, Vec<u8>)> = Vec::with_capacity(tm.row_count as usize);
            match tm.kind {
                KIND_TREE => btree::tree_scan_all(&mut io, tm.root, &mut cells)?,
                _ => btree::heap_scan(&mut io, tm.root, &mut cells)?,
            }
            cells.sort_by_key(|(seq, _)| *seq);
            let pk_names: Vec<String> =
                tm.pk.iter().map(|&i| tm.columns[i].name.clone()).collect();
            let mut table = Table::new(name, tm.columns.clone(), &pk_names)?;
            for (_, bytes) in &cells {
                let mut pos = 0usize;
                let row = decode_row(bytes, &mut pos, &mut interner)?;
                table.insert_shared_row(row)?;
            }
            table.version = tm.version;
            catalog.put_shared(Arc::new(table));
        }
        Ok(catalog)
    }

    /// Fold `tail` — the log's framed records since its last marker — into
    /// the trees, flush the pages it touched to their shadow slots, and
    /// commit the slot flip via the meta rename. Returns the new epoch for
    /// the WAL marker. A [`CheckpointError::Retryable`] failure leaves the
    /// pager and the durable state at the old epoch; only a failed
    /// parent-directory sync *after* the rename is
    /// [`CheckpointError::Ambiguous`] (see its docs).
    pub(crate) fn checkpoint(&mut self, tail: &[u8]) -> std::result::Result<u64, CheckpointError> {
        // Everything up to and including the rename is retryable: rename
        // is atomic, so a failure there leaves the old meta in place.
        let retry = CheckpointError::Retryable;
        let next_epoch = self.epoch + 1;
        let trees = {
            let mut fold = self.fold();
            for_each_committed(records_in(tail), |delta| fold.apply_delta(&delta))
                .map_err(retry)?;
            fold.finish().map_err(retry)?
        };
        self.file.sync_data().map_err(retry)?;
        let meta = encode_meta(next_epoch, &trees);
        let tmp = sibling_path(&self.meta_path, ".tmp");
        {
            let mut f = self.vfs.create(&tmp).map_err(retry)?;
            f.write_all_at(0, &meta).map_err(retry)?;
            f.sync_data().map_err(retry)?;
        }
        self.vfs.rename(&tmp, &self.meta_path).map_err(retry)?;
        self.vfs
            .sync_parent_dir(&self.meta_path)
            .map_err(CheckpointError::Ambiguous)?;
        // The rename is durable: the folded trees are the store now.
        self.epoch = next_epoch;
        self.trees = trees;
        Ok(next_epoch)
    }
}

fn free_table(io: &mut dyn PageStore, tm: &TableMeta) -> Result<()> {
    match tm.kind {
        KIND_TREE => btree::tree_free(io, tm.root),
        _ => btree::heap_free(io, tm.root),
    }
}

/// Insert one full row image into `tm`'s structure, advancing `next_seq`
/// and `row_count` only when a genuinely new key lands (tree upserts of
/// an existing key keep the old cell's position).
fn append_row(io: &mut dyn PageStore, tm: &mut TableMeta, row: &Row) -> Result<()> {
    let mut bytes = Vec::with_capacity(32);
    encode_row(&mut bytes, row);
    if tm.kind == KIND_TREE {
        let key = encode_pk_key(row, &tm.pk)?;
        let (root, replaced) = btree::tree_insert(io, tm.root, &key, tm.next_seq, &bytes)?;
        tm.root = root;
        if !replaced {
            tm.next_seq += 1;
            tm.row_count += 1;
        }
    } else {
        let (head, tail) = btree::heap_append(io, tm.root, tm.tail, tm.next_seq, &bytes)?;
        tm.root = head;
        tm.tail = tail;
        tm.next_seq += 1;
        tm.row_count += 1;
    }
    Ok(())
}

/// Build a table's pages from scratch from full row images.
fn build_table(
    io: &mut dyn PageStore,
    columns: &[Column],
    pk: &[usize],
    version: u64,
    rows: &crate::chunked::ChunkedVec<Row>,
) -> Result<TableMeta> {
    let kind = if pk.is_empty() { KIND_HEAP } else { KIND_TREE };
    let mut tm = TableMeta {
        columns: columns.to_vec(),
        pk: pk.to_vec(),
        version,
        row_count: 0,
        kind,
        root: 0,
        tail: 0,
        next_seq: 0,
    };
    for row in rows {
        append_row(io, &mut tm, row)?;
    }
    Ok(tm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use crate::vfs::{FaultKind, SimFs};
    use crate::wal::{frame_group, WalRecord};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn wal_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        PathBuf::from(format!("/sim/pager_{tag}_{n}.wal"))
    }

    fn table(rows: usize) -> Table {
        let mut t = Table::new(
            "t",
            vec![Column::typed("id", "INTEGER"), Column::new("name")],
            &["id".into()],
        )
        .expect("table");
        for i in 0..rows {
            t.insert_row(vec![Value::Integer(i as i64), Value::Text(format!("row{i}").into())])
                .expect("insert");
        }
        t.version = 7;
        t
    }

    fn open(vfs: &SimFs, path: &Path) -> Pager {
        let v: Arc<dyn Vfs> = Arc::new(vfs.clone());
        Pager::open(v, path, 8).expect("open pager")
    }

    /// A log tail holding one committed transaction per delta.
    fn tail(deltas: Vec<WalDelta>) -> Vec<u8> {
        let mut records = Vec::new();
        for (txn, delta) in (1..).zip(deltas) {
            records.push(WalRecord::Begin { txn });
            records.push(WalRecord::Delta { txn, delta });
            records.push(WalRecord::Commit { txn });
        }
        frame_group(&records)
    }

    fn put(rows: usize) -> Vec<u8> {
        tail(vec![WalDelta::Put { table: Arc::new(table(rows)) }])
    }

    #[test]
    fn page_image_round_trip_and_corruption() {
        let buf = PageBuf { typ: 3, data: vec![9u8; 100] };
        let img = encode_page_image(42, 5, &buf).expect("encode");
        assert_eq!(img.len(), PAGE_SIZE);
        assert_eq!(parse_page_image(&img, 42).expect("parse"), buf);
        assert!(parse_page_image(&img, 41).is_err(), "wrong id must fail");
        let mut torn = img.clone();
        torn[40] ^= 0xFF;
        assert!(parse_page_image(&torn, 42).is_err(), "bit flip must fail CRC");
    }

    #[test]
    fn pk_key_len_is_the_encoded_length() {
        let row = [
            Value::Integer(-3),
            Value::Text("ключ".into()),
            Value::Null,
            Value::Real(f64::NAN),
        ];
        for pk in [vec![], vec![0], vec![1], vec![2, 3], vec![3, 1, 0, 2]] {
            let key = encode_pk_key(&row, &pk).expect("encode");
            assert_eq!(pk_key_len(&row, &pk), key.len(), "pk {pk:?}");
        }
    }

    #[test]
    fn checkpoint_then_materialize_round_trips() {
        let vfs = SimFs::new();
        let path = wal_path("rt");
        let mut pager = open(&vfs, &path);
        pager.checkpoint(&put(500)).expect("checkpoint");
        assert_eq!(pager.epoch(), 1);

        // Reopen from disk and materialize.
        let mut pager2 = open(&vfs, &path);
        assert_eq!(pager2.epoch(), 1);
        let back = pager2.materialize_catalog().expect("materialize");
        let t = back.get("t").expect("table t");
        assert_eq!(**t, table(500));
    }

    fn deltas_after_put() -> Vec<WalDelta> {
        vec![
            WalDelta::Append {
                table: "t".into(),
                rows: vec![
                    Arc::from(vec![Value::Integer(100), Value::Text("x".into())]),
                    Arc::from(vec![Value::Integer(101), Value::Text("y".into())]),
                ],
                new_version: 8,
            },
            WalDelta::RowPatch {
                table: "t".into(),
                deletes: vec![Arc::from(vec![Value::Integer(3)])],
                upserts: vec![Arc::from(vec![Value::Integer(5), Value::Text("patched".into())])],
                new_version: 9,
            },
        ]
    }

    fn expected_after_put() -> Table {
        let mut t = table(10);
        t.insert_row(vec![Value::Integer(100), Value::Text("x".into())]).expect("i");
        t.insert_row(vec![Value::Integer(101), Value::Text("y".into())]).expect("i");
        t.apply_row_patch(
            &[Arc::from(vec![Value::Integer(3)])],
            vec![Arc::from(vec![Value::Integer(5), Value::Text("patched".into())])],
        )
        .expect("patch");
        t.version = 9;
        t
    }

    #[test]
    fn incremental_delta_application_survives_reopen() {
        let vfs = SimFs::new();
        let path = wal_path("delta");
        let mut pager = open(&vfs, &path);
        pager.checkpoint(&put(10)).expect("checkpoint");

        // Append two rows, patch one, delete one — then checkpoint.
        pager.checkpoint(&tail(deltas_after_put())).expect("checkpoint 2");

        let back = open(&vfs, &path).materialize_catalog().expect("materialize");
        assert_eq!(**back.get("t").expect("t"), expected_after_put());
    }

    /// An uncommitted trailing transaction in the tail is not folded —
    /// the same rollback recovery applies.
    #[test]
    fn fold_skips_uncommitted_groups() {
        let vfs = SimFs::new();
        let path = wal_path("uncommitted");
        let mut pager = open(&vfs, &path);
        let mut bytes = put(10);
        bytes.extend(frame_group(&[
            WalRecord::Begin { txn: 9 },
            WalRecord::Delta { txn: 9, delta: WalDelta::Drop { name: "t".into() } },
        ]));
        pager.checkpoint(&bytes).expect("checkpoint");
        let back = open(&vfs, &path).materialize_catalog().expect("materialize");
        assert_eq!(**back.get("t").expect("t survives"), table(10));
    }

    /// A fault at every VFS op index of one checkpoint — fold reads,
    /// early write-backs, the flush, the page-file sync and the meta
    /// write, sync and rename — fails it retryably: a retry of the same
    /// tail, and a reopen, equal the fault-free run.
    #[test]
    fn failed_checkpoint_is_retryable_without_data_loss() {
        // A pager over 400 checkpointed rows; the second checkpoint folds
        // an append of wide rows and a patch through an 8-page set, so it
        // reads, writes back early and flushes.
        let setup = |tag: &str| {
            let vfs = SimFs::new();
            let path = wal_path(tag);
            let mut pager = open(&vfs, &path);
            pager.checkpoint(&put(400)).expect("checkpoint 1");
            (vfs, path, pager)
        };
        let second = tail(vec![
            WalDelta::Append {
                table: "t".into(),
                rows: (1000..1300)
                    .map(|i| Arc::from(vec![Value::Integer(i), Value::text("z".repeat(100))]))
                    .collect(),
                new_version: 8,
            },
            WalDelta::RowPatch {
                table: "t".into(),
                deletes: vec![Arc::from(vec![Value::Integer(3)])],
                upserts: vec![Arc::from(vec![Value::Integer(250), Value::Text("p".into())])],
                new_version: 9,
            },
        ]);

        let (vfs, path, mut pager) = setup("retry_probe");
        let before = vfs.op_count();
        pager.checkpoint(&second).expect("fault-free checkpoint");
        let ops: Vec<String> = vfs.ops()[before as usize..].to_vec();
        let expected = open(&vfs, &path).materialize_catalog().expect("materialize");
        let expected = expected.get("t").expect("t").clone();
        let stats = pager.stats().pool;
        assert!(stats.misses > 0 && stats.dirty_evictions > 0, "{stats:?}");
        for kind in ["read ", "write ", "sync ", "create ", "rename ", "sync_dir "] {
            assert!(ops.iter().any(|op| op.starts_with(kind)), "no {kind}op in {ops:?}");
        }

        for at in 0..ops.len() as u64 {
            let (vfs, path, mut pager) = setup("retry");
            vfs.set_fault(vfs.op_count() + at, FaultKind::FailOp);
            let failed = pager.checkpoint(&second);
            let op = &ops[at as usize];
            if op.starts_with("sync_dir") {
                assert!(
                    matches!(failed, Err(CheckpointError::Ambiguous(_))),
                    "{op}: a failed meta dir sync is ambiguous"
                );
            } else {
                assert!(
                    matches!(failed, Err(CheckpointError::Retryable(_))),
                    "fault at {op}: {failed:?}"
                );
            }
            assert_eq!(pager.epoch(), 1, "{op}: epoch must not advance on failure");
            vfs.clear_fault();
            pager.checkpoint(&second).expect("retry succeeds");
            assert_eq!(pager.epoch(), 2);
            let back = open(&vfs, &path).materialize_catalog().expect("materialize");
            assert_eq!(**back.get("t").expect("t"), *expected, "fault at {op}");
        }
    }

    #[test]
    fn eviction_pressure_keeps_trees_correct() {
        // Page set of 8 pages, table far larger than that: the fold
        // writes pages back early and reads them back from their shadow
        // slots, and the result must still round-trip.
        let vfs = SimFs::new();
        let path = wal_path("evict");
        let mut pager = open(&vfs, &path);
        pager.checkpoint(&put(2000)).expect("checkpoint");
        pager.checkpoint(&tail(deltas_after_put().split_off(1))).expect("checkpoint 2");
        let stats = pager.stats();
        assert!(stats.pool.dirty_evictions > 0, "the tree must outgrow the set: {stats:?}");

        let mut want = table(2000);
        want.apply_row_patch(
            &[Arc::from(vec![Value::Integer(3)])],
            vec![Arc::from(vec![Value::Integer(5), Value::Text("patched".into())])],
        )
        .expect("patch");
        want.version = 9;
        let back = open(&vfs, &path).materialize_catalog().expect("materialize");
        assert_eq!(**back.get("t").expect("t"), want);
    }

    #[test]
    fn over_long_keys_are_refused_before_logging() {
        let long = "k".repeat(MAX_KEY);
        let pk = [0usize];
        let row = |s: &str| -> Row { Arc::from(vec![Value::text(s), Value::Null]) };
        let append = WalDelta::Append { table: "t".into(), rows: vec![row(&long)], new_version: 1 };
        let err = check_key_sizes(&append, |_| Some(&pk[..])).unwrap_err();
        assert!(
            matches!(&err, Error::Constraint(m) if m.contains("'t'") && m.contains(&format!("{}", MAX_KEY + 9))),
            "{err}"
        );
        // A heap table has no keys; a key exactly at the limit fits.
        assert!(check_key_sizes(&append, |_| None).is_ok());
        let fits = "k".repeat(MAX_KEY - 9);
        let at_limit = WalDelta::Append { table: "t".into(), rows: vec![row(&fits)], new_version: 1 };
        assert!(check_key_sizes(&at_limit, |_| Some(&pk[..])).is_ok());
    }
}
