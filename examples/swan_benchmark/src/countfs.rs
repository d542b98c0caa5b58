//! A counting `Vfs` over `RealFs`, owned by the benchmark: every byte the
//! WAL, the pager and the checkpointer move is counted (and, in a traced
//! run, timed) at the device boundary without touching engine code.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use swan::sqlengine::{RealFs, Result, Vfs, VfsFile};

use crate::trace::{self, Tracer};

/// Which of the engine's files a path is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Wal,
    Pages,
    Other,
}

fn kind_of(path: &Path) -> Kind {
    match path.extension().and_then(|e| e.to_str()) {
        Some("wal") => Kind::Wal,
        Some("pages") => Kind::Pages,
        _ => Kind::Other,
    }
}

#[derive(Debug, Default)]
struct Counters {
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    write_calls: AtomicU64,
    write_bytes: AtomicU64,
    wal_write_bytes: AtomicU64,
    page_write_bytes: AtomicU64,
    read_calls: AtomicU64,
    read_bytes: AtomicU64,
    renames: AtomicU64,
    meta_renames: AtomicU64,
}

/// A point-in-time copy of the counters; subtract two to get a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsCounts {
    pub syncs: u64,
    pub sync_ns: u64,
    pub write_calls: u64,
    pub write_bytes: u64,
    pub wal_write_bytes: u64,
    pub page_write_bytes: u64,
    pub read_calls: u64,
    pub read_bytes: u64,
    pub renames: u64,
    /// Renames onto `*.meta`: one per completed checkpoint.
    pub meta_renames: u64,
}

impl FsCounts {
    pub fn since(&self, start: &FsCounts) -> FsCounts {
        FsCounts {
            syncs: self.syncs - start.syncs,
            sync_ns: self.sync_ns - start.sync_ns,
            write_calls: self.write_calls - start.write_calls,
            write_bytes: self.write_bytes - start.write_bytes,
            wal_write_bytes: self.wal_write_bytes - start.wal_write_bytes,
            page_write_bytes: self.page_write_bytes - start.page_write_bytes,
            read_calls: self.read_calls - start.read_calls,
            read_bytes: self.read_bytes - start.read_bytes,
            renames: self.renames - start.renames,
            meta_renames: self.meta_renames - start.meta_renames,
        }
    }
}

#[derive(Debug)]
pub struct CountingFs {
    inner: RealFs,
    counters: Arc<Counters>,
    tracer: Option<Arc<Tracer>>,
}

impl CountingFs {
    pub fn new(tracer: Option<Arc<Tracer>>) -> Arc<CountingFs> {
        Arc::new(CountingFs {
            inner: RealFs,
            counters: Arc::default(),
            tracer,
        })
    }

    pub fn counts(&self) -> FsCounts {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        FsCounts {
            syncs: get(&c.syncs),
            sync_ns: get(&c.sync_ns),
            write_calls: get(&c.write_calls),
            write_bytes: get(&c.write_bytes),
            wal_write_bytes: get(&c.wal_write_bytes),
            page_write_bytes: get(&c.page_write_bytes),
            read_calls: get(&c.read_calls),
            read_bytes: get(&c.read_bytes),
            renames: get(&c.renames),
            meta_renames: get(&c.meta_renames),
        }
    }

    fn wrap(&self, path: &Path, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(CountingFile {
            inner: file,
            kind: kind_of(path),
            counters: self.counters.clone(),
            tracer: self.tracer.clone(),
        })
    }
}

fn timed_sync<T>(c: &Counters, t: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = trace::leaf(t, name, f);
    c.syncs.fetch_add(1, Ordering::Relaxed);
    c.sync_ns
        .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    out
}

impl Vfs for CountingFs {
    fn open(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let f = trace::leaf(self.tracer.as_deref(), "sqlengine.vfs.open", || {
            self.inner.open(path)
        })?;
        Ok(self.wrap(path, f))
    }

    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let f = trace::leaf(self.tracer.as_deref(), "sqlengine.vfs.create", || {
            self.inner.create(path)
        })?;
        Ok(self.wrap(path, f))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let bytes = trace::leaf(self.tracer.as_deref(), "sqlengine.vfs.read", || {
            self.inner.read(path)
        })?;
        self.counters.read_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .read_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        trace::leaf(self.tracer.as_deref(), "sqlengine.vfs.rename", || {
            self.inner.rename(from, to)
        })?;
        self.counters.renames.fetch_add(1, Ordering::Relaxed);
        if to.extension().is_some_and(|e| e == "meta") {
            self.counters.meta_renames.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn sync_parent_dir(&self, path: &Path) -> Result<()> {
        timed_sync(
            &self.counters,
            self.tracer.as_deref(),
            "sqlengine.vfs.sync_parent_dir",
            || self.inner.sync_parent_dir(path),
        )
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    kind: Kind,
    counters: Arc<Counters>,
    tracer: Option<Arc<Tracer>>,
}

impl VfsFile for CountingFile {
    fn write_all_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        trace::leaf(self.tracer.as_deref(), "sqlengine.vfs.write_all_at", || {
            self.inner.write_all_at(offset, data)
        })?;
        let n = data.len() as u64;
        self.counters.write_calls.fetch_add(1, Ordering::Relaxed);
        self.counters.write_bytes.fetch_add(n, Ordering::Relaxed);
        match self.kind {
            Kind::Wal => self
                .counters
                .wal_write_bytes
                .fetch_add(n, Ordering::Relaxed),
            Kind::Pages => self
                .counters
                .page_write_bytes
                .fetch_add(n, Ordering::Relaxed),
            Kind::Other => 0,
        };
        Ok(())
    }

    fn read_exact_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let bytes = trace::leaf(
            self.tracer.as_deref(),
            "sqlengine.vfs.read_exact_at",
            || self.inner.read_exact_at(offset, len),
        )?;
        self.counters.read_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .read_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes)
    }

    fn set_len(&mut self, len: u64) -> Result<()> {
        trace::leaf(self.tracer.as_deref(), "sqlengine.vfs.set_len", || {
            self.inner.set_len(len)
        })
    }

    fn sync_data(&mut self) -> Result<()> {
        let inner = &mut self.inner;
        timed_sync(
            &self.counters,
            self.tracer.as_deref(),
            "sqlengine.vfs.sync_data",
            || inner.sync_data(),
        )
    }
}

/// Sum of the sizes of the regular files directly in `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

/// The path the database is opened at inside `dir` (the WAL; the page
/// and meta files are its siblings).
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join("bench.wal")
}
