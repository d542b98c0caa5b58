//! The virtual filesystem seam under the durability layer.
//!
//! Every byte the WAL and the checkpointer touch goes through a [`Vfs`]:
//! [`RealFs`] is the production passthrough to `std::fs`, and [`SimFs`] is
//! an in-memory filesystem that records every operation and can
//! deterministically *fail* or *crash* at any operation index — the
//! substrate the `crash_sim` harness sweeps to prove that recovery always
//! lands on a clean prefix of acknowledged commits.
//!
//! # Why a VFS
//!
//! The pre-existing recovery harness (`tests/wal_recovery.rs`) only
//! truncates a *finished* log file. Real durability bugs hide in
//! mid-write failures: a partial append the rollback path must erase, an
//! fsync that reports failure after the bytes left the process, a crash
//! between a checkpoint's rename and its directory sync. Those schedules
//! cannot be produced with `std::fs` on a healthy disk; they are one
//! `set_fault` call on a [`SimFs`].
//!
//! # SimFs crash model
//!
//! The simulated disk has real **inode semantics**: the namespace maps
//! paths to inodes, handles reference inodes (a handle kept across a
//! rename keeps writing the same storage, exactly like an fd), and two
//! images exist of everything:
//!
//! * the **volatile** image — what the running process observes (every
//!   write and namespace change lands here immediately);
//! * the **durable** image — what survives a crash: `sync_data` flushes
//!   an *inode's contents* (and, journaled-filesystem style, the
//!   still-pending directory entry that *created* the file), while a
//!   **rename over an existing name becomes durable only through
//!   `sync_parent_dir`** — until then a crash resolves the name to the
//!   old inode, which is how real filesystems lose renamed-over files
//!   and why checkpointers must fsync the directory.
//!
//! A [`FaultKind::Crash`] freezes the filesystem: the crashing operation
//! applies a configurable prefix of its effect ([`Torn`]), and every
//! later operation fails. [`SimFs::reboot`] then yields the disk a
//! restarted process would see — either the durable image alone
//! (`keep_unsynced = false`: the kernel lost everything unflushed) or the
//! full volatile image (`keep_unsynced = true`: everything written made
//! it down). A correct commit protocol must recover cleanly from *both*,
//! because it only acknowledged data after `sync_data` returned.
//!
//! [`FaultKind::FailOp`] models a transient I/O error instead: the one
//! operation fails (a write applies half its payload first — a short
//! write), everything after it succeeds, and the process keeps running —
//! exercising the WAL's rollback-and-poison paths.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use swan_pool::{lockrank, ClockHandle, RealClock};

use crate::error::{Error, Result};

/// An open file handle behind the VFS seam.
pub trait VfsFile: Send {
    /// Write the whole buffer at `offset`, extending the file as needed.
    fn write_all_at(&mut self, offset: u64, data: &[u8]) -> Result<()>;
    /// Read exactly `len` bytes at `offset`. A read past end-of-file is an
    /// error, not a short read: the paged store only ever reads page slots
    /// it has written, so a short read means corruption.
    fn read_exact_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>>;
    /// Truncate (or extend with zeros) to exactly `len` bytes.
    fn set_len(&mut self, len: u64) -> Result<()>;
    /// Flush file contents to durable storage — the acknowledgment point.
    fn sync_data(&mut self) -> Result<()>;
}

/// The filesystem operations the durability layer needs. Implementations
/// must be shareable across threads (the WAL handle moves between
/// committers and the checkpoint runs under the same seam).
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Open `path` read+write, creating it empty if absent.
    fn open(&self, path: &Path) -> Result<Box<dyn VfsFile>>;
    /// Create `path` truncated to zero length.
    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>>;
    /// Read the whole file.
    fn read(&self, path: &Path) -> Result<Vec<u8>>;
    /// Atomically rename `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> Result<()>;
    /// Make a completed rename of `path` durable (directory fsync).
    fn sync_parent_dir(&self, path: &Path) -> Result<()>;
}

fn io_err(e: std::io::Error) -> Error {
    Error::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// RealFs: the production passthrough
// ---------------------------------------------------------------------------

/// Passthrough [`Vfs`] over `std::fs` — what [`SharedDb::open`]
/// (crate::shared::SharedDb::open) uses.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

struct RealFile(File);

impl VfsFile for RealFile {
    fn write_all_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        self.0.seek(SeekFrom::Start(offset)).map_err(io_err)?;
        self.0.write_all(data).map_err(io_err)
    }

    fn read_exact_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.0.seek(SeekFrom::Start(offset)).map_err(io_err)?;
        let mut buf = vec![0u8; len];
        self.0.read_exact(&mut buf).map_err(io_err)?;
        Ok(buf)
    }

    fn set_len(&mut self, len: u64) -> Result<()> {
        self.0.set_len(len).map_err(io_err)
    }

    fn sync_data(&mut self) -> Result<()> {
        self.0.sync_data().map_err(io_err)
    }
}

impl Vfs for RealFs {
    fn open(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let f = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            // An existing log or page file is opened as it is, never
            // emptied.
            .truncate(false)
            .open(path)
            .map_err(io_err)?;
        Ok(Box::new(RealFile(f)))
    }

    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(File::create(path).map_err(io_err)?)))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let mut f = File::open(path).map_err(io_err)?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes).map_err(io_err)?;
        Ok(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        std::fs::rename(from, to).map_err(io_err)
    }

    fn sync_parent_dir(&self, path: &Path) -> Result<()> {
        // Failures must propagate: the checkpointer treats an un-synced
        // rename as fatal (it poisons the log), because until the
        // directory entry is durable the log's name still resolves to
        // the pre-checkpoint inode after a crash. Swallowing an EMFILE/
        // EACCES here would re-open exactly that hole.
        let Some(dir) = path.parent() else { return Ok(()) };
        let d = File::open(dir).map_err(io_err)?;
        d.sync_all().map_err(io_err)
    }
}

// ---------------------------------------------------------------------------
// SimFs: deterministic fault injection
// ---------------------------------------------------------------------------

/// How much of the faulting operation's effect reaches the volatile image
/// before a [`FaultKind::Crash`] freezes the filesystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Torn {
    /// Nothing: the operation had no effect at all.
    None,
    /// A write applies half its payload (a torn append); namespace
    /// operations (rename, create, set_len) behave like [`Torn::None`].
    Half,
    /// The full effect applied, but the acknowledgment (and everything
    /// after) was lost.
    Full,
}

/// The fault a [`SimFs`] injects at a configured operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The one operation fails (a write lands a short half-prefix first,
    /// simulating a short write); later operations succeed.
    FailOp,
    /// The operation tears per [`Torn`] and the filesystem freezes: every
    /// subsequent operation fails until [`SimFs::reboot`].
    Crash(Torn),
}

/// Simulated inode number.
type Ino = u64;

/// How a volatile namespace entry came to be — the distinction that
/// drives rename durability: `Created` entries persist with the file's
/// own `sync_data` (journaled-filesystem pragmatism: `creat` + `fsync`
/// makes a file findable), `Renamed` entries persist only through
/// `sync_parent_dir`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryKind {
    Created,
    Renamed,
}

struct SimState {
    /// Volatile namespace: what the running process resolves.
    namespace: HashMap<PathBuf, (Ino, EntryKind)>,
    /// Volatile inode contents (a handle writes here even after its
    /// name was renamed away — fd semantics).
    inodes: HashMap<Ino, Vec<u8>>,
    /// Durable namespace: the directory as a crash would find it.
    durable_ns: HashMap<PathBuf, Ino>,
    /// Durable inode contents (synced data only).
    durable_inodes: HashMap<Ino, Vec<u8>>,
    next_ino: Ino,
    /// Every operation, in order, for debugging and sweep sizing.
    ops: Vec<String>,
    faults: Vec<(u64, FaultKind)>,
    crashed: bool,
    sync_delay: Duration,
    /// Clock the sync delay sleeps on — the engine's `Clock` seam, so a
    /// `SimClock` sweep covers slow-disk modeling without wall time.
    clock: ClockHandle,
}

impl Default for SimState {
    fn default() -> Self {
        SimState {
            namespace: HashMap::new(),
            inodes: HashMap::new(),
            durable_ns: HashMap::new(),
            durable_inodes: HashMap::new(),
            next_ino: 0,
            ops: Vec::new(),
            faults: Vec::new(),
            crashed: false,
            sync_delay: Duration::ZERO,
            clock: RealClock::handle(),
        }
    }
}

/// What the fault gate decided for the current operation.
enum Gate {
    Proceed,
    Fail,
    Crash(Torn),
}

impl SimState {
    /// Count the operation, record its trace line, and decide its fate.
    fn gate(&mut self, desc: String) -> Result<Gate> {
        if self.crashed {
            return Err(Error::Io("simfs: crashed".into()));
        }
        let idx = self.ops.len() as u64;
        self.ops.push(desc);
        match self.faults.iter().find(|(at, _)| *at == idx) {
            Some((_, FaultKind::FailOp)) => Ok(Gate::Fail),
            Some((_, FaultKind::Crash(torn))) => {
                self.crashed = true;
                Ok(Gate::Crash(*torn))
            }
            None => Ok(Gate::Proceed),
        }
    }

    fn injected(&self, what: &str) -> Error {
        Error::Io(format!("simfs: injected fault at {what}"))
    }

    /// Allocate a fresh inode backed by empty content.
    fn alloc_ino(&mut self) -> Ino {
        let ino = self.next_ino;
        self.next_ino += 1;
        self.inodes.insert(ino, Vec::new());
        ino
    }

    /// Resolve a path in the volatile namespace.
    fn resolve(&self, path: &Path) -> Option<Ino> {
        self.namespace.get(path).map(|(ino, _)| *ino)
    }
}

/// The fault-injecting in-memory [`Vfs`]. Cloning shares the filesystem —
/// hand clones to [`SharedDb::open_on`](crate::shared::SharedDb::open_on)
/// and keep one for fault control and inspection.
#[derive(Clone)]
pub struct SimFs {
    state: Arc<Mutex<SimState>>,
}

impl Default for SimFs {
    fn default() -> Self {
        SimFs {
            state: Arc::new(Mutex::with_rank("sim_fs", lockrank::VFS_SIM, SimState::default())),
        }
    }
}

impl fmt::Debug for SimFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("SimFs")
            .field("files", &st.namespace.keys().collect::<Vec<_>>())
            .field("ops", &st.ops.len())
            .field("crashed", &st.crashed)
            .finish()
    }
}

impl SimFs {
    pub fn new() -> Self {
        SimFs::default()
    }

    /// Inject `kind` at operation index `at` (indices are 0-based in the
    /// order operations reach the filesystem; see [`SimFs::ops`]),
    /// replacing any previously configured faults.
    pub fn set_fault(&self, at: u64, kind: FaultKind) {
        self.state.lock().faults = vec![(at, kind)];
    }

    /// Add a fault without clearing the existing ones — multi-fault
    /// schedules model "transient error swallowed, then crash later"
    /// (e.g. a checkpoint's failed directory sync followed by a crash
    /// before the next one).
    pub fn add_fault(&self, at: u64, kind: FaultKind) {
        self.state.lock().faults.push((at, kind));
    }

    pub fn clear_fault(&self) {
        self.state.lock().faults.clear();
    }

    /// Sleep this long inside every `sync_data` — lets benches and stress
    /// tests model a disk whose fsync dominates commit latency. The sleep
    /// goes through the clock installed by [`SimFs::set_clock`] (real
    /// time by default).
    pub fn set_sync_delay(&self, delay: Duration) {
        self.state.lock().sync_delay = delay;
    }

    /// Route the sync delay's sleep through `clock` — with a
    /// [`SimClock`](swan_pool::SimClock) the slow-disk model runs in
    /// virtual time, so fault sweeps cover it deterministically.
    pub fn set_clock(&self, clock: ClockHandle) {
        self.state.lock().clock = clock;
    }

    /// Number of operations performed so far (the sweep bound).
    pub fn op_count(&self) -> u64 {
        self.state.lock().ops.len() as u64
    }

    /// The recorded operation trace (`"<kind> <path> ..."` per line).
    pub fn ops(&self) -> Vec<String> {
        self.state.lock().ops.clone()
    }

    /// True once a [`FaultKind::Crash`] has frozen the filesystem.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// The volatile image of a file, if it exists.
    pub fn file_bytes(&self, path: impl AsRef<Path>) -> Option<Vec<u8>> {
        let st = self.state.lock();
        st.resolve(path.as_ref()).and_then(|ino| st.inodes.get(&ino).cloned())
    }

    /// The durable image of a file: what a crash-then-reboot would find
    /// at this name (durable directory entry resolved through durable
    /// inode contents).
    pub fn durable_bytes(&self, path: impl AsRef<Path>) -> Option<Vec<u8>> {
        let st = self.state.lock();
        st.durable_ns
            .get(path.as_ref())
            .map(|ino| st.durable_inodes.get(ino).cloned().unwrap_or_default())
    }

    /// The disk a restarted process would mount. `keep_unsynced = false`
    /// is the adversarial kernel (only explicitly synced directory
    /// entries and inode contents survived); `true` is the lucky one
    /// (every volatile byte and namespace change made it down). The
    /// returned filesystem is fresh: fault cleared, op counter zeroed,
    /// both images seeded from the chosen view.
    pub fn reboot(&self, keep_unsynced: bool) -> SimFs {
        let st = self.state.lock();
        let image: HashMap<PathBuf, Vec<u8>> = if keep_unsynced {
            st.namespace
                .iter()
                .map(|(p, (ino, _))| {
                    (p.clone(), st.inodes.get(ino).cloned().unwrap_or_default())
                })
                .collect()
        } else {
            st.durable_ns
                .iter()
                .map(|(p, ino)| {
                    (p.clone(), st.durable_inodes.get(ino).cloned().unwrap_or_default())
                })
                .collect()
        };
        drop(st);
        let fresh = SimFs::new();
        for (path, bytes) in image {
            fresh.install_file(path, bytes);
        }
        fresh
    }

    /// Reboot with a *per-file* choice of which unsynced writes survived.
    ///
    /// Real kernels flush dirty pages per inode with no cross-file
    /// ordering: a crash can persist file B's unsynced writes while
    /// losing file A's, even if A was written first. `keep_unsynced`
    /// decides, per path, whether that file's volatile image (true) or
    /// only its durable image (false) made it to disk. `reboot(b)` is
    /// the uniform special case `reboot_mixed(|_| b)`. Paths are drawn
    /// from the union of both namespaces, so a file created-but-unsynced
    /// appears only when its closure returns true, and a file
    /// deleted-but-unsynced *survives the delete* when it returns false.
    pub fn reboot_mixed(&self, keep_unsynced: impl Fn(&Path) -> bool) -> SimFs {
        let st = self.state.lock();
        let mut paths: Vec<PathBuf> = st.namespace.keys().cloned().collect();
        for p in st.durable_ns.keys() {
            if !paths.contains(p) {
                paths.push(p.clone());
            }
        }
        let mut image: HashMap<PathBuf, Vec<u8>> = HashMap::new();
        for path in paths {
            if keep_unsynced(&path) {
                if let Some((ino, _)) = st.namespace.get(&path) {
                    image.insert(path, st.inodes.get(ino).cloned().unwrap_or_default());
                }
            } else if let Some(ino) = st.durable_ns.get(&path) {
                image.insert(path, st.durable_inodes.get(ino).cloned().unwrap_or_default());
            }
        }
        drop(st);
        let fresh = SimFs::new();
        for (path, bytes) in image {
            fresh.install_file(path, bytes);
        }
        fresh
    }

    /// Seed a file in both images (test setup helper).
    pub fn install_file(&self, path: impl Into<PathBuf>, bytes: Vec<u8>) {
        let path = path.into();
        let mut st = self.state.lock();
        let ino = st.alloc_ino();
        st.inodes.insert(ino, bytes.clone());
        st.durable_inodes.insert(ino, bytes);
        st.namespace.insert(path.clone(), (ino, EntryKind::Created));
        st.durable_ns.insert(path, ino);
    }
}

struct SimFile {
    /// Display name for the op trace (handles keep working across a
    /// rename of the name, exactly like a real fd).
    path: PathBuf,
    ino: Ino,
    state: Arc<Mutex<SimState>>,
}

impl SimFile {
    /// Run one mutating content operation through the gate. `apply`
    /// receives the inode buffer and the surviving fraction of the
    /// operation's effect.
    fn content_op(
        &mut self,
        desc: String,
        what: &str,
        apply: impl FnOnce(&mut Vec<u8>, Torn),
    ) -> Result<()> {
        let mut st = self.state.lock();
        let gate = st.gate(desc)?;
        let err = st.injected(what);
        let buf = st.inodes.entry(self.ino).or_default();
        match gate {
            Gate::Proceed => {
                apply(buf, Torn::Full);
                Ok(())
            }
            Gate::Fail => {
                apply(buf, Torn::Half);
                Err(err)
            }
            Gate::Crash(torn) => {
                apply(buf, torn);
                Err(err)
            }
        }
    }
}

impl VfsFile for SimFile {
    fn write_all_at(&mut self, offset: u64, data: &[u8]) -> Result<()> {
        let desc = format!("write {} @{offset} +{}", self.path.display(), data.len());
        self.content_op(desc, "write", |buf, torn| {
            let keep = match torn {
                Torn::None => 0,
                Torn::Half => data.len() / 2,
                Torn::Full => data.len(),
            };
            let offset = offset as usize;
            let end = offset + keep;
            if buf.len() < end {
                buf.resize(end, 0);
            }
            buf[offset..end].copy_from_slice(&data[..keep]);
        })
    }

    fn read_exact_at(&mut self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut st = self.state.lock();
        let desc = format!("read {} @{offset} +{len}", self.path.display());
        match st.gate(desc)? {
            Gate::Proceed => {}
            // A failed or crashed read returns nothing; reads have no
            // durable side effects to tear.
            Gate::Fail | Gate::Crash(_) => return Err(st.injected("read")),
        }
        let buf = st.inodes.get(&self.ino).map(Vec::as_slice).unwrap_or(&[]);
        let start = offset as usize;
        let end = start.checked_add(len).ok_or_else(|| Error::Io("read offset overflow".into()))?;
        if end > buf.len() {
            return Err(Error::Io(format!(
                "short read: {} @{offset} +{len} beyond EOF ({})",
                self.path.display(),
                buf.len()
            )));
        }
        Ok(buf[start..end].to_vec())
    }

    fn set_len(&mut self, len: u64) -> Result<()> {
        let desc = format!("set_len {} {len}", self.path.display());
        self.content_op(desc, "set_len", |buf, torn| {
            // Truncation is atomic: it either happened or it did not.
            if torn == Torn::Full {
                buf.resize(len as usize, 0);
            }
        })
    }

    fn sync_data(&mut self) -> Result<()> {
        let delay;
        let clock;
        {
            let mut st = self.state.lock();
            match st.gate(format!("sync {}", self.path.display()))? {
                Gate::Proceed => {}
                // A failed or crashed fsync durably flushed nothing.
                Gate::Fail | Gate::Crash(_) => return Err(st.injected("sync")),
            }
            // Flush the inode's contents ...
            let content = st.inodes.get(&self.ino).cloned().unwrap_or_default();
            st.durable_inodes.insert(self.ino, content);
            // ... and, journaled-filesystem style, the directory entry
            // that *created* this file (creat + fsync makes a new file
            // findable). A `Renamed` entry is deliberately NOT flushed:
            // only `sync_parent_dir` makes a rename durable — a crash
            // before it resolves the name to the old inode.
            let created: Vec<PathBuf> = st
                .namespace
                .iter()
                .filter(|(_, (ino, kind))| *ino == self.ino && *kind == EntryKind::Created)
                .map(|(p, _)| p.clone())
                .collect();
            for path in created {
                st.durable_ns.insert(path, self.ino);
            }
            delay = st.sync_delay;
            clock = st.clock.clone();
        }
        // Off-lock, through the Clock seam: a SimClock advances virtual
        // time instantly instead of stalling the fault sweep.
        if !delay.is_zero() {
            clock.sleep(delay);
        }
        Ok(())
    }
}

impl Vfs for SimFs {
    fn open(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let mut st = self.state.lock();
        let gate = st.gate(format!("open {}", path.display()))?;
        let ino = match gate {
            Gate::Proceed | Gate::Crash(Torn::Full) => match st.resolve(path) {
                Some(ino) => ino,
                None => {
                    let ino = st.alloc_ino();
                    st.namespace.insert(path.to_path_buf(), (ino, EntryKind::Created));
                    ino
                }
            },
            Gate::Fail | Gate::Crash(_) => return Err(st.injected("open")),
        };
        if st.crashed {
            return Err(st.injected("open"));
        }
        drop(st);
        Ok(Box::new(SimFile { path: path.to_path_buf(), ino, state: self.state.clone() }))
    }

    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>> {
        let mut st = self.state.lock();
        let gate = st.gate(format!("create {}", path.display()))?;
        let ino = match gate {
            Gate::Proceed | Gate::Crash(Torn::Full) => {
                // A truncating create is a fresh inode; a previous file
                // under this name is replaced in the volatile namespace.
                let ino = st.alloc_ino();
                st.namespace.insert(path.to_path_buf(), (ino, EntryKind::Created));
                ino
            }
            Gate::Fail | Gate::Crash(_) => return Err(st.injected("create")),
        };
        if st.crashed {
            return Err(st.injected("create"));
        }
        drop(st);
        Ok(Box::new(SimFile { path: path.to_path_buf(), ino, state: self.state.clone() }))
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>> {
        let mut st = self.state.lock();
        match st.gate(format!("read {}", path.display()))? {
            Gate::Proceed => {}
            Gate::Fail | Gate::Crash(_) => return Err(st.injected("read")),
        }
        st.resolve(path)
            .and_then(|ino| st.inodes.get(&ino).cloned())
            .ok_or_else(|| Error::Io(format!("simfs: no such file {}", path.display())))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<()> {
        let mut st = self.state.lock();
        let gate = st.gate(format!("rename {} -> {}", from.display(), to.display()))?;
        match gate {
            // Rename is atomic: all or nothing in the volatile
            // namespace. The durable namespace is untouched — only
            // `sync_parent_dir` persists it.
            Gate::Proceed | Gate::Crash(Torn::Full) => {
                let (ino, _) = st.namespace.remove(from).ok_or_else(|| {
                    Error::Io(format!("simfs: no such file {}", from.display()))
                })?;
                st.namespace.insert(to.to_path_buf(), (ino, EntryKind::Renamed));
            }
            Gate::Fail | Gate::Crash(_) => return Err(st.injected("rename")),
        }
        if st.crashed {
            return Err(st.injected("rename"));
        }
        Ok(())
    }

    fn sync_parent_dir(&self, path: &Path) -> Result<()> {
        let mut st = self.state.lock();
        match st.gate(format!("sync_dir {}", path.display()))? {
            Gate::Proceed => {}
            Gate::Fail | Gate::Crash(_) => return Err(st.injected("sync_dir")),
        }
        // Flush the directory: the durable namespace becomes exactly the
        // volatile one (renamed-over names now resolve to their new
        // inodes, unlinked names disappear), and every entry counts as
        // created from here on.
        st.durable_ns =
            st.namespace.iter().map(|(p, (ino, _))| (p.clone(), *ino)).collect();
        for entry in st.namespace.values_mut() {
            entry.1 = EntryKind::Created;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn write_sync_read_round_trip() {
        let fs = SimFs::new();
        let mut f = fs.open(&p("/a")).unwrap();
        f.write_all_at(0, b"hello").unwrap();
        f.write_all_at(5, b" world").unwrap();
        assert_eq!(fs.read(&p("/a")).unwrap(), b"hello world");
        // Nothing synced: the adversarial reboot loses it all.
        assert!(fs.reboot(false).read(&p("/a")).is_err());
        f.sync_data().unwrap();
        assert_eq!(fs.reboot(false).read(&p("/a")).unwrap(), b"hello world");
    }

    #[test]
    fn fail_op_is_transient_and_tears_the_write() {
        let fs = SimFs::new();
        let mut f = fs.open(&p("/a")).unwrap();
        f.write_all_at(0, b"base").unwrap();
        f.sync_data().unwrap();
        // Next op (index 3) fails: the write lands half its payload.
        fs.set_fault(3, FaultKind::FailOp);
        assert!(f.write_all_at(4, b"XXXX").is_err());
        assert_eq!(fs.file_bytes("/a").unwrap(), b"baseXX");
        // Later ops succeed: the rollback path can truncate and sync.
        f.set_len(4).unwrap();
        f.sync_data().unwrap();
        assert_eq!(fs.reboot(false).read(&p("/a")).unwrap(), b"base");
        assert!(!fs.crashed());
    }

    #[test]
    fn crash_freezes_everything_after() {
        let fs = SimFs::new();
        let mut f = fs.open(&p("/a")).unwrap();
        f.write_all_at(0, b"acked").unwrap();
        f.sync_data().unwrap();
        fs.set_fault(3, FaultKind::Crash(Torn::None));
        assert!(f.write_all_at(5, b"lost").is_err());
        assert!(f.sync_data().is_err(), "everything after the crash fails");
        assert!(fs.crashed());
        assert_eq!(fs.reboot(false).read(&p("/a")).unwrap(), b"acked");
        assert_eq!(fs.reboot(true).read(&p("/a")).unwrap(), b"acked");
    }

    #[test]
    fn torn_variants_control_the_crashing_write() {
        for (torn, expect) in [
            (Torn::None, &b"12345678"[..]),
            (Torn::Half, &b"12345678AB"[..]),
            (Torn::Full, &b"12345678ABCD"[..]),
        ] {
            let fs = SimFs::new();
            let mut f = fs.open(&p("/a")).unwrap();
            f.write_all_at(0, b"12345678").unwrap();
            f.sync_data().unwrap();
            fs.set_fault(3, FaultKind::Crash(torn));
            assert!(f.write_all_at(8, b"ABCD").is_err());
            // The lucky kernel flushed the torn tail; the adversarial one
            // only the synced prefix.
            assert_eq!(fs.reboot(true).read(&p("/a")).unwrap(), expect);
            assert_eq!(fs.reboot(false).read(&p("/a")).unwrap(), b"12345678");
        }
    }

    #[test]
    fn rename_durability_requires_dir_sync() {
        let fs = SimFs::new();
        let mut tmp = fs.create(&p("/wal.tmp")).unwrap();
        tmp.write_all_at(0, b"checkpoint").unwrap();
        tmp.sync_data().unwrap();
        fs.install_file("/wal", b"old-log".to_vec());
        fs.rename(&p("/wal.tmp"), &p("/wal")).unwrap();
        // Volatile view: renamed. Durable view: still the old inode.
        assert_eq!(fs.read(&p("/wal")).unwrap(), b"checkpoint");
        assert_eq!(fs.reboot(true).read(&p("/wal")).unwrap(), b"checkpoint");
        assert_eq!(fs.reboot(false).read(&p("/wal")).unwrap(), b"old-log");

        // Even fsyncing the renamed file's DATA (through a fresh handle
        // at the new name) must NOT make the rename durable: the data
        // reaches the new inode, but a crash still resolves the name to
        // the old one. This is exactly the trap a checkpointer that
        // skips the directory sync falls into.
        let mut renamed = fs.open(&p("/wal")).unwrap();
        renamed.write_all_at(10, b"+more").unwrap();
        renamed.sync_data().unwrap();
        assert_eq!(
            fs.reboot(false).read(&p("/wal")).unwrap(),
            b"old-log",
            "data fsync must not persist a rename"
        );

        fs.sync_parent_dir(&p("/wal")).unwrap();
        assert_eq!(fs.reboot(false).read(&p("/wal")).unwrap(), b"checkpoint+more");
        assert!(fs.reboot(false).read(&p("/wal.tmp")).is_err(), "tmp entry moved");
    }

    #[test]
    fn reboot_mixed_persists_unsynced_writes_per_file() {
        let fs = SimFs::new();
        fs.install_file("/wal", b"synced-wal".to_vec());
        fs.install_file("/db", b"synced-db".to_vec());
        let mut wal = fs.open(&p("/wal")).unwrap();
        wal.write_all_at(0, b"dirty--wal").unwrap();
        let mut db = fs.open(&p("/db")).unwrap();
        db.write_all_at(0, b"dirty--db").unwrap();
        // Neither file synced. The kernel flushed /db's dirty pages but
        // not /wal's — the write to /wal happened *first*, yet only the
        // later write survives: no cross-file ordering.
        let disk = fs.reboot_mixed(|path| path == p("/db"));
        assert_eq!(disk.read(&p("/wal")).unwrap(), b"synced-wal");
        assert_eq!(disk.read(&p("/db")).unwrap(), b"dirty--db");
        // Uniform closures reproduce plain reboot.
        assert_eq!(fs.reboot_mixed(|_| true).read(&p("/wal")).unwrap(), b"dirty--wal");
        assert_eq!(fs.reboot_mixed(|_| false).read(&p("/db")).unwrap(), b"synced-db");

        // Created-but-unsynced appears only for kept files; an unsynced
        // rename is undone for dropped files (source name comes back).
        let mut tmp = fs.create(&p("/tmp1")).unwrap();
        tmp.write_all_at(0, b"t").unwrap();
        drop(tmp);
        fs.rename(&p("/db"), &p("/db2")).unwrap();
        let disk = fs.reboot_mixed(|_| false);
        assert!(disk.read(&p("/tmp1")).is_err(), "unsynced create lost");
        assert_eq!(disk.read(&p("/db")).unwrap(), b"synced-db", "unsynced rename undone");
        assert!(disk.read(&p("/db2")).is_err());
        let disk = fs.reboot_mixed(|_| true);
        assert_eq!(disk.read(&p("/tmp1")).unwrap(), b"t");
        assert_eq!(disk.read(&p("/db2")).unwrap(), b"dirty--db", "kept rename stays");
        assert!(disk.read(&p("/db")).is_err());
    }

    #[test]
    fn handle_keeps_writing_its_inode_across_rename() {
        let fs = SimFs::new();
        let mut old = fs.open(&p("/wal")).unwrap();
        old.write_all_at(0, b"old").unwrap();
        old.sync_data().unwrap();
        let mut tmp = fs.create(&p("/wal.tmp")).unwrap();
        tmp.write_all_at(0, b"new").unwrap();
        tmp.sync_data().unwrap();
        fs.rename(&p("/wal.tmp"), &p("/wal")).unwrap();
        // The stale handle still addresses the unlinked old inode: its
        // writes never reach the file now living at /wal (the hazard the
        // WAL's post-checkpoint reopen-or-poison guards against).
        old.write_all_at(3, b"-stale").unwrap();
        old.sync_data().unwrap();
        assert_eq!(fs.read(&p("/wal")).unwrap(), b"new");
    }

    #[test]
    fn op_trace_is_recorded_in_order() {
        let fs = SimFs::new();
        let mut f = fs.open(&p("/a")).unwrap();
        f.write_all_at(0, b"x").unwrap();
        f.sync_data().unwrap();
        let ops = fs.ops();
        assert_eq!(ops.len(), 3);
        assert!(ops[0].starts_with("open"), "{ops:?}");
        assert!(ops[1].starts_with("write"), "{ops:?}");
        assert!(ops[2].starts_with("sync"), "{ops:?}");
        assert_eq!(fs.op_count(), 3);
    }

    #[test]
    fn reboot_resets_faults_and_counters() {
        let fs = SimFs::new();
        fs.set_fault(1, FaultKind::Crash(Torn::None));
        let mut f = fs.open(&p("/a")).unwrap();
        assert!(f.write_all_at(0, b"x").is_err());
        let fresh = fs.reboot(false);
        assert!(!fresh.crashed());
        assert_eq!(fresh.op_count(), 0);
        let mut f = fresh.open(&p("/a")).unwrap();
        f.write_all_at(0, b"ok").unwrap();
        f.sync_data().unwrap();
        assert_eq!(fresh.reboot(false).read(&p("/a")).unwrap(), b"ok");
    }

    #[test]
    fn real_fs_round_trips() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "swan-vfs-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let fs = RealFs;
        {
            let mut f = fs.open(&path).unwrap();
            f.write_all_at(0, b"hello world").unwrap();
            f.set_len(5).unwrap();
            f.sync_data().unwrap();
        }
        assert_eq!(fs.read(&path).unwrap(), b"hello");
        let mut renamed = path.clone();
        renamed.set_extension("renamed");
        fs.rename(&path, &renamed).unwrap();
        fs.sync_parent_dir(&renamed).unwrap();
        assert_eq!(fs.read(&renamed).unwrap(), b"hello");
        let _ = std::fs::remove_file(&renamed);
    }
}
