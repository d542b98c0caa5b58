//! # Double-slot shadow-paged storage
//!
//! The durable page store behind the WAL ([`crate::wal`]): a checkpoint
//! flushes only the pages dirtied since the last one — O(dirty), not
//! O(database).
//!
//! ## Layout
//!
//! Two files live next to the WAL, both reached only through the
//! [`Vfs`] seam:
//!
//! * `<wal>.pages` — the page file. Each **logical** page id `p ≥ 1` owns
//!   two 4 KiB **physical slots** at offsets `(2(p-1) + s) · 4096`,
//!   `s ∈ {0, 1}`. Exactly one slot is *current* (named by the meta
//!   file); the other is the *shadow*. All writes — dirty-page flushes at
//!   checkpoint and buffer-pool evictions between checkpoints — go to the
//!   shadow slot, so the durable current image is **never overwritten**
//!   and a torn write can never damage committed state. Page ids are
//!   stable forever, which keeps B-tree leaf links valid with no page
//!   relocation. The price is 2× page-file space.
//! * `<wal>.meta` — the atomically-replaced root of trust: epoch,
//!   current-slot bitmap, free list, and per-table tree roots + schema.
//!   Written via tmp file + fsync + rename + parent-dir sync (the same
//!   protocol the WAL swap uses), so it is always old-or-new.
//!
//! ## Checkpoint protocol (under the WAL mutex)
//!
//! 1. flush every dirty pool page to its shadow slot; `fsync` the page
//!    file;
//! 2. write meta for `epoch+1` with the slot bits of all shadow-written
//!    pages flipped; rename it into place (the atomic commit point);
//! 3. the caller ([`crate::wal::Wal::checkpoint`]) then rewrites the WAL
//!    to a single [`WalRecord::PagedCheckpoint`] marker.
//!
//! A crash before (2) recovers at the old epoch with the full WAL tail;
//! shadow writes are invisible because the old meta still names the old
//! slots. A crash between (2) and (3) leaves the WAL marker *behind* the
//! meta epoch — recovery trusts the meta and discards the stale tail,
//! which is sound because the whole checkpoint runs under the WAL lock:
//! every record in that tail was already folded into the trees the meta
//! made durable. A WAL marker *ahead* of the meta epoch is loud
//! corruption. Write failures before (2) completes leave `shadow` and
//! the dirty flags untouched, so the next checkpoint simply retries
//! cumulatively — no poison needed until the WAL itself is rewritten.
//!
//! ## Degraded mode: the rebuild flag
//!
//! Commits apply their deltas to the trees *after* the WAL fsync — the
//! commit is already durable, so a tree-application failure must not fail
//! the commit. Instead the pager flips `rebuild`: delta application
//! becomes a no-op and the next checkpoint rebuilds every tree from the
//! in-memory catalog snapshot (sound because the checkpoint runs under
//! the WAL mutex, after the install: the catalog it is handed holds
//! every commit in the log — see [`crate::wal::Wal::commit`]).
//!
//! Locks: `Pager.inner` holds rank [`lockrank::PAGER`] (32), taken under
//! the WAL mutex (30); the buffer pool (34) and SimFs state (40) sit
//! below. See ANALYSIS.md.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use swan_pool::lockrank;

use crate::btree::{self, PageStore};
use crate::bufpool::{BufferPool, PageRef, PoolStats};
use crate::error::{Error, Result};
use crate::storage::{
    codec_err, decode_row, encode_row, get_str, get_u32, get_u64, get_u8, put_str, put_u32,
    put_u64, take, Catalog, Column, Table, TextInterner,
};
use crate::value::{Row, Value};
use crate::vfs::{Vfs, VfsFile};
use crate::wal::{crc32, WalDelta};

/// Physical page size: header + payload, both slots of a page id.
pub const PAGE_SIZE: usize = 4096;
/// Page header: crc(4) + id(8) + epoch(8) + type(1) + pad(3) + len(4).
pub(crate) const PAGE_HDR: usize = 28;
/// Usable payload bytes per page.
pub(crate) const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_HDR;

const META_MAGIC: u32 = 0x5357_4D31; // "SWM1"
const KIND_TREE: u8 = 1;
const KIND_HEAP: u8 = 2;

/// A decoded page: its type byte and payload. Shared immutably between
/// the buffer pool and readers; writers install a fresh `PageBuf`.
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

struct PagerState {
    file: Box<dyn VfsFile>,
    meta_path: PathBuf,
    /// Epoch of the durable meta file; `0` = never checkpointed.
    epoch: u64,
    /// First unallocated page id (ids start at 1).
    next_page: u64,
    /// Current-slot bit per page id (`slots[id-1]`), as named by the
    /// durable meta. Flipped in memory only after a meta rename lands.
    slots: Vec<u8>,
    /// Pages whose *shadow* slot holds the epoch+1 image (evicted or
    /// flushed since the last successful checkpoint). Cumulative across
    /// failed checkpoints; cleared by the meta flip. BTreeSet so flip and
    /// flush order is deterministic for the crash-sim sweep.
    shadow: BTreeSet<u64>,
    free: Vec<u64>,
    tables: BTreeMap<String, TableMeta>,
    rebuild: bool,
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
    /// The durable meta is unchanged (old epoch): every retry input —
    /// dirty flags, shadow set — is intact, so a later checkpoint simply
    /// tries again. No poison.
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
    pool: Arc<BufferPool>,
    inner: Mutex<PagerState>,
}

/// Buffer-pool-mediated page I/O handed to the tree layer. Evicted dirty
/// victims are written to their shadow slot on the way out — eviction
/// never blocks on the current slot and never loses data.
struct Io<'a> {
    st: &'a mut PagerState,
    pool: &'a Arc<BufferPool>,
}

impl PagerState {
    fn page_offset(&self, id: u64, slot: u8) -> u64 {
        (2 * (id - 1) + slot as u64) * PAGE_SIZE as u64
    }

    /// The slot currently holding `id`'s newest image: the shadow slot if
    /// we have written one this epoch, else the durable current slot.
    fn read_slot(&self, id: u64) -> Result<u8> {
        if id == 0 || id >= self.next_page {
            return Err(Error::Internal(format!("pager: page id {id} out of range")));
        }
        let cur = self.slots[(id - 1) as usize] & 1;
        Ok(if self.shadow.contains(&id) { cur ^ 1 } else { cur })
    }

    /// Write `buf` as `id`'s epoch+1 image into its shadow slot.
    fn write_shadow(&mut self, id: u64, buf: &PageBuf) -> Result<()> {
        if id == 0 || id >= self.next_page {
            return Err(Error::Internal(format!("pager: shadow write to bad page id {id}")));
        }
        let slot = (self.slots[(id - 1) as usize] & 1) ^ 1;
        let img = encode_page_image(id, self.epoch + 1, buf)?;
        let off = self.page_offset(id, slot);
        self.file.write_all_at(off, &img)?;
        self.shadow.insert(id);
        Ok(())
    }
}

impl PageStore for Io<'_> {
    fn read(&mut self, id: u64) -> Result<PageRef> {
        if let Some(page) = self.pool.lookup(id) {
            return Ok(page);
        }
        let slot = self.st.read_slot(id)?;
        let off = self.st.page_offset(id, slot);
        let img = self.st.file.read_exact_at(off, PAGE_SIZE)?;
        let buf = Arc::new(parse_page_image(&img, id)?);
        let (page, evicted) = self.pool.insert(id, buf, false);
        if let Some(ev) = evicted {
            self.st.write_shadow(ev.id, &ev.buf)?;
        }
        Ok(page)
    }

    fn write(&mut self, id: u64, typ: u8, data: Vec<u8>) -> Result<()> {
        if data.len() > PAGE_PAYLOAD {
            return Err(Error::Internal(format!(
                "pager: write of {} payload bytes to page {id}",
                data.len()
            )));
        }
        let evicted = self.pool.update(id, Arc::new(PageBuf { typ, data }));
        if let Some(ev) = evicted {
            self.st.write_shadow(ev.id, &ev.buf)?;
        }
        Ok(())
    }

    fn alloc(&mut self) -> Result<u64> {
        if let Some(id) = self.st.free.pop() {
            return Ok(id);
        }
        let id = self.st.next_page;
        self.st.next_page += 1;
        // A rebuild restarts allocation at id 1 while keeping the old slot
        // bits, so the vector may already cover this id. Growing it
        // unconditionally would desync `slots.len()` from `next_page - 1`
        // and shift every field after the slot array in the encoded meta.
        if self.st.slots.len() < id as usize {
            self.st.slots.push(0);
        }
        Ok(id)
    }

    fn free(&mut self, id: u64) -> Result<()> {
        self.pool.drop_page(id)?;
        self.st.shadow.remove(&id);
        self.st.free.push(id);
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

fn encode_meta(
    epoch: u64,
    next_page: u64,
    slots: &[u8],
    free: &[u64],
    tables: &BTreeMap<String, TableMeta>,
) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 + slots.len());
    put_u64(&mut p, epoch);
    put_u64(&mut p, next_page);
    p.extend_from_slice(slots);
    put_u32(&mut p, free.len() as u32);
    for &id in free {
        put_u64(&mut p, id);
    }
    put_u32(&mut p, tables.len() as u32);
    for (name, tm) in tables {
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

struct MetaImage {
    epoch: u64,
    next_page: u64,
    slots: Vec<u8>,
    free: Vec<u64>,
    tables: BTreeMap<String, TableMeta>,
}

fn parse_meta(bytes: &[u8]) -> Result<MetaImage> {
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
        if (kind == KIND_TREE) != !pk.is_empty() {
            return Err(codec_err("pager meta kind/pk mismatch"));
        }
        tables.insert(name, TableMeta { columns, pk, version, row_count, kind, root, tail, next_seq });
    }
    Ok(MetaImage { epoch, next_page, slots, free, tables })
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
    pub(crate) fn open(
        vfs: Arc<dyn Vfs>,
        wal_path: &Path,
        pool_pages: usize,
    ) -> Result<Pager> {
        let pages_path = sibling_path(wal_path, ".pages");
        let meta_path = sibling_path(wal_path, ".meta");
        let mut epoch = 0u64;
        let mut next_page = 1u64;
        let mut slots = Vec::new();
        let mut free = Vec::new();
        let mut tables = BTreeMap::new();
        if let Ok(bytes) = vfs.read(&meta_path) {
            if !bytes.is_empty() {
                let meta = parse_meta(&bytes)?;
                epoch = meta.epoch;
                next_page = meta.next_page;
                slots = meta.slots;
                free = meta.free;
                tables = meta.tables;
            }
        }
        let file = vfs.open(&pages_path)?;
        Ok(Pager {
            vfs,
            pool: BufferPool::new(pool_pages),
            inner: Mutex::with_rank(
                "pager",
                lockrank::PAGER,
                PagerState {
                    file,
                    meta_path,
                    epoch,
                    next_page,
                    slots,
                    shadow: BTreeSet::new(),
                    free,
                    tables,
                    rebuild: false,
                },
            ),
        })
    }

    /// Epoch of the durable meta (`0` = never checkpointed).
    pub(crate) fn epoch(&self) -> u64 {
        self.inner.lock().epoch
    }

    /// Enter degraded mode: delta application becomes a no-op and the
    /// next checkpoint rebuilds every tree from the catalog snapshot.
    pub(crate) fn set_rebuild(&self) {
        self.inner.lock().rebuild = true;
    }

    pub(crate) fn stats(&self) -> PagerStats {
        let st = self.inner.lock();
        PagerStats { epoch: st.epoch, pages: st.next_page - 1, pool: self.pool.stats() }
    }

    /// Rebuild the catalog from the durable trees (recovery with a
    /// current meta). Rows come back in `seq` order — byte-identical to
    /// the in-memory row order at checkpoint time.
    pub(crate) fn materialize_catalog(&self) -> Result<Catalog> {
        let mut st = self.inner.lock();
        let st = &mut *st;
        let metas: Vec<(String, TableMeta)> =
            st.tables.iter().map(|(n, t)| (n.clone(), t.clone())).collect();
        let mut catalog = Catalog::new();
        let mut interner = TextInterner::new();
        for (name, tm) in metas {
            let mut cells: Vec<(u64, Vec<u8>)> = Vec::with_capacity(tm.row_count as usize);
            {
                let mut io = Io { st, pool: &self.pool };
                match tm.kind {
                    KIND_TREE => btree::tree_scan_all(&mut io, tm.root, &mut cells)?,
                    _ => btree::heap_scan(&mut io, tm.root, &mut cells)?,
                }
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

    /// Apply one committed delta to the durable trees. Called by the WAL
    /// layer after the commit is on disk — errors here must not fail the
    /// commit, so the caller routes them to [`Pager::set_rebuild`]. In
    /// rebuild mode this is a no-op (the next checkpoint recaptures
    /// everything from the catalog).
    pub(crate) fn apply_delta(&self, delta: &WalDelta) -> Result<()> {
        let mut st = self.inner.lock();
        let st = &mut *st;
        if st.rebuild {
            return Ok(());
        }
        match delta {
            WalDelta::Put { table } => {
                if let Some(tm) = st.tables.remove(&table.name) {
                    let mut io = Io { st, pool: &self.pool };
                    free_table(&mut io, &tm)?;
                }
                let tm = {
                    let mut io = Io { st, pool: &self.pool };
                    build_table(
                        &mut io,
                        &table.columns,
                        &table.primary_key,
                        table.version,
                        table.rows(),
                    )?
                };
                st.tables.insert(table.name.clone(), tm);
            }
            WalDelta::Append { table, rows, new_version } => {
                let mut tm = st
                    .tables
                    .get(table)
                    .cloned()
                    .ok_or_else(|| missing_table(table))?;
                {
                    let mut io = Io { st, pool: &self.pool };
                    for row in rows {
                        append_row(&mut io, &mut tm, row)?;
                    }
                }
                tm.version = *new_version;
                st.tables.insert(table.clone(), tm);
            }
            WalDelta::Drop { name } => {
                if let Some(tm) = st.tables.remove(name) {
                    let mut io = Io { st, pool: &self.pool };
                    free_table(&mut io, &tm)?;
                }
            }
            WalDelta::RowPatch { table, deletes, upserts, new_version } => {
                let mut tm = st
                    .tables
                    .get(table)
                    .cloned()
                    .ok_or_else(|| missing_table(table))?;
                if tm.kind != KIND_TREE {
                    return Err(Error::Internal(format!(
                        "pager: row patch against heap table '{table}'"
                    )));
                }
                {
                    let mut io = Io { st, pool: &self.pool };
                    for tuple in deletes {
                        let key = encode_tuple_key(tuple);
                        if btree::tree_delete(&mut io, tm.root, &key)? {
                            tm.row_count = tm.row_count.saturating_sub(1);
                        }
                    }
                    for row in upserts {
                        append_row(&mut io, &mut tm, row)?;
                    }
                }
                tm.version = *new_version;
                st.tables.insert(table.clone(), tm);
            }
        }
        Ok(())
    }

    /// Flush dirty pages to shadow slots and commit the slot flip via the
    /// meta rename. Returns the new epoch for the WAL marker. A
    /// [`CheckpointError::Retryable`] failure leaves the durable state at
    /// the old epoch and all retry state (dirty flags, shadow set)
    /// intact; only a failed parent-directory sync *after* the rename is
    /// [`CheckpointError::Ambiguous`] (see its docs).
    pub(crate) fn checkpoint(
        &self,
        catalog: &Catalog,
    ) -> std::result::Result<u64, CheckpointError> {
        let mut st = self.inner.lock();
        let st = &mut *st;
        // Everything up to and including the rename is retryable: rename
        // is atomic, so a failure there leaves the old meta in place.
        let retry = CheckpointError::Retryable;
        if st.rebuild {
            self.rebuild_from(st, catalog).map_err(retry)?;
            st.rebuild = false;
        }
        for (id, buf) in self.pool.dirty_snapshot() {
            st.write_shadow(id, &buf).map_err(retry)?;
        }
        st.file.sync_data().map_err(retry)?;
        let next_epoch = st.epoch + 1;
        let mut new_slots = st.slots.clone();
        for &id in &st.shadow {
            new_slots[(id - 1) as usize] ^= 1;
        }
        let meta = encode_meta(next_epoch, st.next_page, &new_slots, &st.free, &st.tables);
        let tmp = sibling_path(&st.meta_path, ".tmp");
        {
            let mut f = self.vfs.create(&tmp).map_err(retry)?;
            f.write_all_at(0, &meta).map_err(retry)?;
            f.sync_data().map_err(retry)?;
        }
        self.vfs.rename(&tmp, &st.meta_path).map_err(retry)?;
        self.vfs
            .sync_parent_dir(&st.meta_path)
            .map_err(CheckpointError::Ambiguous)?;
        // The rename is durable: commit the flip in memory.
        st.epoch = next_epoch;
        st.slots = new_slots;
        st.shadow.clear();
        self.pool.clear_dirty();
        Ok(next_epoch)
    }

    /// Rebuild every tree from the catalog snapshot (the degraded-mode
    /// escape hatch). Existing pages are recycled
    /// wholesale: allocation restarts at id 1 — safe because every write
    /// targets a shadow slot, never the durable current image.
    fn rebuild_from(&self, st: &mut PagerState, catalog: &Catalog) -> Result<()> {
        self.pool.clear();
        st.shadow.clear();
        st.tables.clear();
        st.free.clear();
        let old_next = st.next_page;
        st.next_page = 1;
        for name in catalog.table_names() {
            let table = catalog
                .get(&name)
                .ok_or_else(|| Error::Internal(format!("pager: catalog lost table '{name}'")))?
                .clone();
            let tm = {
                let mut io = Io { st, pool: &self.pool };
                build_table(
                    &mut io,
                    &table.columns,
                    &table.primary_key,
                    table.version,
                    table.rows(),
                )?
            };
            st.tables.insert(table.name.clone(), tm);
        }
        // Ids the old state had allocated but the rebuild did not reuse.
        st.free.extend(st.next_page..old_next);
        st.next_page = st.next_page.max(old_next);
        Ok(())
    }
}

fn missing_table(name: &str) -> Error {
    Error::Internal(format!("pager: delta references unknown table '{name}'"))
}

fn free_table(io: &mut Io<'_>, tm: &TableMeta) -> Result<()> {
    match tm.kind {
        KIND_TREE => btree::tree_free(io, tm.root),
        _ => btree::heap_free(io, tm.root),
    }
}

/// Insert one full row image into `tm`'s structure, advancing `next_seq`
/// and `row_count` only when a genuinely new key lands (tree upserts of
/// an existing key keep the old cell's position).
fn append_row(io: &mut Io<'_>, tm: &mut TableMeta, row: &Row) -> Result<()> {
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
    io: &mut Io<'_>,
    columns: &[Column],
    pk: &[usize],
    version: u64,
    rows: &[Row],
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
    fn checkpoint_then_materialize_round_trips() {
        let vfs = SimFs::new();
        let path = wal_path("rt");
        let pager = open(&vfs, &path);
        let mut catalog = Catalog::new();
        catalog.put_shared(Arc::new(table(500)));
        pager.set_rebuild();
        pager.checkpoint(&catalog).expect("checkpoint");
        assert_eq!(pager.epoch(), 1);

        // Reopen from disk and materialize.
        let pager2 = open(&vfs, &path);
        assert_eq!(pager2.epoch(), 1);
        let back = pager2.materialize_catalog().expect("materialize");
        let t = back.get("t").expect("table t");
        assert_eq!(**t, table(500));
    }

    #[test]
    fn incremental_delta_application_survives_reopen() {
        let vfs = SimFs::new();
        let path = wal_path("delta");
        let pager = open(&vfs, &path);
        let mut catalog = Catalog::new();
        catalog.put_shared(Arc::new(table(10)));
        pager.set_rebuild();
        pager.checkpoint(&catalog).expect("checkpoint");

        // Append two rows, patch one, delete one — then checkpoint.
        pager
            .apply_delta(&WalDelta::Append {
                table: "t".into(),
                rows: vec![
                    Arc::from(vec![Value::Integer(100), Value::Text("x".into())]),
                    Arc::from(vec![Value::Integer(101), Value::Text("y".into())]),
                ],
                new_version: 8,
            })
            .expect("append");
        pager
            .apply_delta(&WalDelta::RowPatch {
                table: "t".into(),
                deletes: vec![Arc::from(vec![Value::Integer(3)])],
                upserts: vec![Arc::from(vec![Value::Integer(5), Value::Text("patched".into())])],
                new_version: 9,
            })
            .expect("patch");
        pager.checkpoint(&catalog).expect("checkpoint 2");

        let expected = {
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
        };
        let back = open(&vfs, &path).materialize_catalog().expect("materialize");
        assert_eq!(**back.get("t").expect("t"), expected);
    }

    fn retry_setup(tag: &str) -> (SimFs, PathBuf, Pager, Catalog) {
        let vfs = SimFs::new();
        let path = wal_path(tag);
        let pager = open(&vfs, &path);
        let mut catalog = Catalog::new();
        catalog.put_shared(Arc::new(table(50)));
        pager.set_rebuild();
        pager.checkpoint(&catalog).expect("checkpoint 1");
        pager
            .apply_delta(&WalDelta::Append {
                table: "t".into(),
                rows: vec![Arc::from(vec![Value::Integer(999), Value::Text("z".into())])],
                new_version: 8,
            })
            .expect("append");
        (vfs, path, pager, catalog)
    }

    #[test]
    fn failed_checkpoint_is_retryable_without_data_loss() {
        // Dry run on an identical instance to learn how many ops into the
        // second checkpoint the meta rename happens (SimFs is
        // deterministic, so the offset transfers).
        let rename_offset = {
            let (vfs, _, pager, catalog) = retry_setup("retry_probe");
            let before = vfs.op_count();
            pager.checkpoint(&catalog).expect("probe checkpoint");
            vfs.ops()[before as usize..]
                .iter()
                .position(|l| l.starts_with("rename"))
                .expect("checkpoint performs a rename") as u64
        };

        // Real run: fail exactly the meta rename. The checkpoint must
        // error, leave the durable epoch alone, and succeed on retry.
        let (vfs, path, pager, catalog) = retry_setup("retry");
        vfs.set_fault(vfs.op_count() + rename_offset, FaultKind::FailOp);
        assert!(pager.checkpoint(&catalog).is_err(), "injected rename fault");
        assert_eq!(pager.epoch(), 1, "epoch must not advance on failure");
        vfs.clear_fault();
        pager.checkpoint(&catalog).expect("retry succeeds");
        assert_eq!(pager.epoch(), 2);

        let back = open(&vfs, &path).materialize_catalog().expect("materialize");
        assert_eq!(back.get("t").expect("t").len(), 51);
    }

    /// Regression: a rebuild restarts allocation at page 1 over the
    /// existing slot vector. `alloc` must not grow the vector for reused
    /// ids — the encoded meta sizes its slot array as `next_page - 1`,
    /// so spurious entries shift every later field and the reopened meta
    /// fails to decode.
    #[test]
    fn rebuild_over_existing_pages_keeps_meta_decodable() {
        let vfs = SimFs::new();
        let path = wal_path("rebuild2");
        let pager = open(&vfs, &path);
        let mut catalog = Catalog::new();
        catalog.put_shared(Arc::new(table(200)));
        pager.set_rebuild();
        pager.checkpoint(&catalog).expect("checkpoint 1");

        // Degraded mode again, now with pages on disk: the second rebuild
        // reuses ids 1.. and must leave slots.len() == next_page - 1.
        pager.set_rebuild();
        pager.checkpoint(&catalog).expect("checkpoint 2");
        assert_eq!(pager.epoch(), 2);

        let back = open(&vfs, &path).materialize_catalog().expect("reopen + materialize");
        assert_eq!(**back.get("t").expect("t"), table(200));
    }

    #[test]
    fn eviction_pressure_keeps_trees_correct() {
        // Pool of 8 pages, table far larger than that: every operation
        // churns the pool, evicted dirty pages land in shadow slots, and
        // the result must still round-trip.
        let vfs = SimFs::new();
        let path = wal_path("evict");
        let pager = open(&vfs, &path);
        let mut catalog = Catalog::new();
        catalog.put_shared(Arc::new(table(2000)));
        pager.set_rebuild();
        pager.checkpoint(&catalog).expect("checkpoint");
        let stats = pager.stats();
        assert!(stats.pool.evictions > 0, "working set must exceed the pool");
        assert_eq!(stats.pool.evicted_pinned, 0, "pinned pages are never evicted");

        let back = open(&vfs, &path).materialize_catalog().expect("materialize");
        assert_eq!(**back.get("t").expect("t"), table(2000));
    }
}
