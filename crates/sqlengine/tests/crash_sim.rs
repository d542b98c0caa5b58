//! Deterministic crash-simulation harness over the fault-injecting VFS.
//!
//! Where `wal_recovery.rs` truncates a *finished* log file, this harness
//! attacks the durability path **while it runs**: it replays each
//! schedule with a fault injected at *every* [`SimFs`] operation index —
//! a transient I/O error ([`FaultKind::FailOp`]) and a crash that
//! freezes the filesystem with the in-flight operation torn to three
//! degrees ([`FaultKind::Crash`] × [`Torn`]) — then reboots both disk
//! images a real kernel could leave behind (everything-unsynced-lost and
//! everything-flushed) and checks the crash contract:
//!
//! 1. **Acknowledged commits are never lost** — a commit whose execute
//!    call returned `Ok` was fsynced first, so it must be present after
//!    every reboot;
//! 2. **Recovery is never torn** — the recovered state is byte-identical
//!    (canonical dump) to the state after some prefix of the
//!    acknowledged commit sequence, at most extended by the single
//!    commit that was in flight when the fault hit — never a partial
//!    transaction, never a reordering;
//! 3. **Recovery is idempotent** — reopening the recovered image again
//!    changes nothing.
//!
//! Four schedules cover the paths the ISSUE names: serial commits
//! (auto-commit + multi-statement transactions), the same schedule under
//! aggressive auto-checkpointing (tmp + rename + dir-sync dance),
//! concurrent group commit, and fault injection inside recovery itself.
//! All of them run on [`SharedDb`], the only handle that can open a log,
//! so the serial sweeps drive the same group-commit leader the
//! concurrent one does — as batches of one. A last schedule plants a log in the removed
//! whole-image format and checks it is refused without a byte changing.
//! Two more serial schedules load the checkpoint's fold: rows several
//! pages wide streamed through a two-page page set, and rows that spill
//! to overflow chains, are rewritten across the inline limit both ways
//! and are deleted.

use std::path::PathBuf;
use std::sync::Arc;

use swan_sqlengine::{DurabilityConfig, FaultKind, SharedDb, SimFs, Torn};

const WAL: &str = "/sim/db.wal";

fn wal_path() -> PathBuf {
    PathBuf::from(WAL)
}

/// Every fault the sweep injects at each operation index.
const FAULTS: [FaultKind; 4] = [
    FaultKind::FailOp,
    FaultKind::Crash(Torn::None),
    FaultKind::Crash(Torn::Half),
    FaultKind::Crash(Torn::Full),
];

/// Canonical dump: every table (sorted by name), its column names, and
/// every row rendered cell by cell. Byte-identical across equal states.
fn dump(db: &SharedDb) -> String {
    let db = db.snapshot();
    let mut out = String::new();
    for name in db.catalog().table_names() {
        let r = db.query(&format!("SELECT * FROM {name}")).unwrap();
        out.push_str(&format!("== {name} ({}) ==\n", r.columns.join(",")));
        for row in &r.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
            out.push_str(&cells.join("\u{1}"));
            out.push('\n');
        }
    }
    out
}

fn open_sim(fs: &SimFs, config: DurabilityConfig) -> swan_sqlengine::Result<SharedDb> {
    SharedDb::open_on(Arc::new(fs.clone()), wal_path(), config)
}

// ---------------------------------------------------------------------------
// Serial schedules: commits + checkpoints
// ---------------------------------------------------------------------------

/// One commit per step: auto-commit DDL/DML (Put, Append and Drop
/// deltas) and multi-statement `BEGIN … COMMIT` spans (single- and
/// multi-table).
fn commit_steps() -> Vec<&'static str> {
    vec![
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER, tag TEXT)",
        "INSERT INTO acct VALUES (1, 100, 'a'), (2, 50, 'b'), (3, 0, 'c')",
        "BEGIN;
         UPDATE acct SET bal = bal - 30 WHERE id = 1;
         UPDATE acct SET bal = bal + 30 WHERE id = 2;
         INSERT INTO acct VALUES (4, 1, 'd');
         COMMIT;",
        "CREATE TABLE audit (seq INTEGER PRIMARY KEY, note TEXT)",
        "INSERT INTO audit VALUES (1, 'opened')",
        "BEGIN;
         INSERT INTO audit VALUES (2, 'transfer');
         UPDATE acct SET tag = 'z' WHERE id = 3;
         COMMIT;",
        "DELETE FROM acct WHERE id = 2",
        "DROP TABLE audit",
    ]
}

/// Outcome of one faulted serial run.
struct SerialRun {
    fs: SimFs,
    /// Dump of the state holding exactly the acknowledged commits.
    acked_state: String,
    /// Dump including the commit in flight when the first failure hit
    /// (if that commit was applicable) — a crash may legally persist it.
    with_in_flight: Option<String>,
    any_failed: bool,
}

/// Run the serial schedule with an optional fault, mirroring every
/// *acknowledged* step onto an in-memory shadow database (same engine,
/// no log) — the ground truth for what recovery must reproduce.
fn run_serial(
    config: DurabilityConfig,
    steps: &[&str],
    faults: &[(u64, FaultKind)],
) -> SerialRun {
    let fs = SimFs::new();
    for &(at, kind) in faults {
        fs.add_fault(at, kind);
    }
    let shadow = SharedDb::new();
    let mut with_in_flight = None;
    let mut any_failed = false;
    if let Ok(db) = open_sim(&fs, config) {
        for step in steps {
            match db.execute_script(step) {
                Ok(_) => {
                    shadow.execute_script(step).expect("shadow mirrors the live schedule");
                }
                Err(_) => {
                    if !any_failed {
                        // The in-flight commit: a crash may have persisted
                        // its complete group even though it was never
                        // acknowledged.
                        let probe = SharedDb::from_database(shadow.snapshot());
                        if probe.execute_script(step).is_ok() {
                            with_in_flight = Some(dump(&probe));
                        }
                    }
                    any_failed = true;
                }
            }
        }
    } else {
        any_failed = true;
    }
    SerialRun { fs, acked_state: dump(&shadow), with_in_flight, any_failed }
}

/// Reboot both kernel images, recover each, and assert the crash
/// contract against the allowed states.
fn check_recovery(fs: &SimFs, config: DurabilityConfig, allowed: &[&String], ctx: &str) {
    for keep_unsynced in [false, true] {
        let image = fs.reboot(keep_unsynced);
        let db = open_sim(&image, config).unwrap_or_else(|e| {
            panic!("{ctx} keep_unsynced={keep_unsynced}: recovery must succeed on a clean reboot: {e}\nops:\n{}",
                fs.ops().join("\n"))
        });
        let recovered = dump(&db);
        assert!(
            allowed.iter().any(|a| **a == recovered),
            "{ctx} keep_unsynced={keep_unsynced}: torn recovery!\n-- recovered --\n{recovered}\n-- allowed --\n{}\nops:\n{}",
            allowed.iter().map(|a| a.as_str()).collect::<Vec<_>>().join("\n----\n"),
            fs.ops().join("\n"),
        );
        drop(db);
        // Idempotent: recovering the recovered image is a no-op.
        let again = open_sim(&image, config).unwrap();
        assert_eq!(dump(&again), recovered, "{ctx}: recovery must be idempotent");
    }
}

/// Sweep every fault kind through every operation index of the standard
/// commit schedule under `config`.
fn sweep_serial(config: DurabilityConfig, ctx: &str) {
    sweep_steps(config, &commit_steps(), ctx);
}

/// Sweep every fault kind through every operation index of `steps`.
fn sweep_steps(config: DurabilityConfig, steps: &[&str], ctx: &str) {
    // Baseline: no fault. Sizes the sweep and sanity-checks the end state.
    let baseline = run_serial(config, steps, &[]);
    assert!(!baseline.any_failed, "{ctx}: baseline must run clean");
    let total_ops = baseline.fs.op_count();
    assert!(total_ops > 10, "{ctx}: schedule too small to be interesting ({total_ops} ops)");
    check_recovery(&baseline.fs, config, &[&baseline.acked_state], &format!("{ctx} baseline"));

    for at in 0..total_ops {
        for kind in FAULTS {
            let run = run_serial(config, steps, &[(at, kind)]);
            let ctx = format!("{ctx} fault {kind:?} @op {at}");
            match kind {
                FaultKind::FailOp => {
                    // Transient error, no crash: the database must end
                    // holding exactly the acknowledged commits — a failed
                    // append can neither apply nor linger as tail garbage
                    // that would eat a later commit.
                    check_recovery(&run.fs, config, &[&run.acked_state], &ctx);
                }
                FaultKind::Crash(_) => {
                    let mut allowed: Vec<&String> = vec![&run.acked_state];
                    if let Some(extra) = run.with_in_flight.as_ref() {
                        allowed.push(extra);
                    }
                    check_recovery(&run.fs, config, &allowed, &ctx);
                }
            }
        }
    }
}

/// Commit schedule: every fault at every op index of plain commits.
#[test]
fn fault_sweep_over_commit_schedule() {
    let config = DurabilityConfig { checkpoint_bytes: u64::MAX, ..Default::default() };
    sweep_serial(config, "commit");
}

/// Checkpoint schedule: a tiny budget forces the log through repeated
/// checkpoint rewrites (tmp create/write/sync, rename, dir sync, reopen)
/// with the same fault sweep. A failed or crashed checkpoint must never
/// lose an acknowledged commit: the old log stays authoritative until
/// the rename is durable.
#[test]
fn fault_sweep_over_checkpoint_schedule() {
    let config = DurabilityConfig { checkpoint_bytes: 200, ..Default::default() };
    sweep_serial(config, "checkpoint");
}

/// A schedule whose rows span several pages: wide text bodies make the
/// B-tree working set larger than a checkpoint's page set, so the fold
/// writes dirty pages back to their shadow slots mid-checkpoint.
fn eviction_steps() -> Vec<String> {
    let mut steps =
        vec!["CREATE TABLE blob (id INTEGER PRIMARY KEY, body TEXT)".to_string()];
    for i in 0..10i64 {
        // ~1 KB per row: four rows overflow a 4 KiB page.
        steps.push(format!("INSERT INTO blob VALUES ({i}, '{:x>1000}')", i));
    }
    steps.push("UPDATE blob SET body = 'small' WHERE id = 3".to_string());
    steps.push("DELETE FROM blob WHERE id = 7".to_string());
    steps
}

/// Eviction-pressure schedule: a two-page page set under a working set
/// several pages wide. Every checkpoint streams tree pages through the
/// tiny set, so early write-backs and read-backs from shadow slots run
/// constantly while faults land on every operation — a dirty page whose
/// shadow write is lost, or a read of the wrong slot, shows up as a torn
/// recovery. The clean baseline then pins that evictions really happened.
#[test]
fn fault_sweep_under_eviction_pressure() {
    let config =
        DurabilityConfig { checkpoint_bytes: 2048, pool_pages: 2, ..Default::default() };
    let steps = eviction_steps();
    let steps: Vec<&str> = steps.iter().map(String::as_str).collect();
    sweep_steps(config, &steps, "eviction");

    let fs = SimFs::new();
    let db = open_sim(&fs, config).unwrap();
    for step in &steps {
        db.execute_script(step).unwrap();
    }
    let stats = db.pager_stats().expect("durable database");
    assert!(
        stats.pool.evictions > 0,
        "a 2-page set under a multi-page working set must evict: {stats:?}"
    );
}

/// A schedule whose rows spill to overflow chains: every row but one
/// encodes to more than 1 KiB, row 3 to more than one overflow page holds.
/// Updates turn an overflow row inline and an inline row into an overflow
/// row, and a delete frees a two-page chain that the last insert reuses.
fn overflow_steps() -> Vec<String> {
    vec![
        "CREATE TABLE big (id INTEGER PRIMARY KEY, body TEXT)".to_string(),
        format!("INSERT INTO big VALUES (1, '{:a>1500}')", 1),
        "INSERT INTO big VALUES (2, 'small')".to_string(),
        format!("INSERT INTO big VALUES (3, '{:b>5000}')", 3),
        "UPDATE big SET body = 'now-inline' WHERE id = 1".to_string(),
        format!("UPDATE big SET body = '{:c>2000}' WHERE id = 2", 2),
        "DELETE FROM big WHERE id = 3".to_string(),
        format!("INSERT INTO big VALUES (4, '{:d>1200}')", 4),
    ]
}

/// Page slots of the page file whose image is an overflow page (type 4
/// in the page header's type byte).
fn overflow_slots(fs: &SimFs) -> usize {
    fs.file_bytes(format!("{WAL}.pages"))
        .unwrap_or_default()
        .chunks(4096)
        .filter(|img| img.len() == 4096 && img[20] == 4)
        .count()
}

/// Overflow-chain schedule: a small log budget checkpoints after nearly
/// every statement and a two-page set evicts mid-fold, so faults land on
/// chain writes, chain frees and the reuse of freed chain pages. The
/// clean run then pins that the checkpoints really wrote overflow pages,
/// a two-page chain among them.
#[test]
fn fault_sweep_over_overflow_chains() {
    let config =
        DurabilityConfig { checkpoint_bytes: 1024, pool_pages: 2, ..Default::default() };
    let steps = overflow_steps();
    let steps: Vec<&str> = steps.iter().map(String::as_str).collect();
    sweep_steps(config, &steps, "overflow");

    let fs = SimFs::new();
    let db = open_sim(&fs, config).unwrap();
    let mut most = 0;
    for step in &steps {
        db.execute_script(step).unwrap();
        most = most.max(overflow_slots(&fs));
    }
    // Row 1's one-page chain beside row 3's two-page chain.
    assert!(most >= 3, "the checkpoints must write row 1's and row 3's overflow chains: {most}");
}

/// Two-fault schedule: a checkpoint's directory sync fails transiently
/// and a crash follows at every later operation index. Until the rename
/// is durable, the log's name still resolves to the pre-checkpoint
/// inode, so the WAL must refuse to acknowledge post-checkpoint commits
/// (it poisons) — otherwise the crash would silently erase
/// fsync-acknowledged commits written to the new inode. Single-fault
/// sweeps cannot reach this state; this schedule exists precisely to
/// falsify a checkpointer that shrugs off `sync_parent_dir` failures.
#[test]
fn dir_sync_failure_then_crash_never_loses_acked_commits() {
    let config = DurabilityConfig { checkpoint_bytes: 200, ..Default::default() };
    let steps = commit_steps();
    let baseline = run_serial(config, &steps, &[]);
    let dir_syncs: Vec<u64> = baseline
        .fs
        .ops()
        .iter()
        .enumerate()
        .filter(|(_, desc)| desc.starts_with("sync_dir"))
        .map(|(i, _)| i as u64)
        .collect();
    assert!(!dir_syncs.is_empty(), "the schedule must checkpoint at least once");
    let total_ops = baseline.fs.op_count();

    for &ds in &dir_syncs {
        for crash_at in ds + 1..total_ops {
            let run = run_serial(
                config,
                &steps,
                &[(ds, FaultKind::FailOp), (crash_at, FaultKind::Crash(Torn::None))],
            );
            let mut allowed: Vec<&String> = vec![&run.acked_state];
            if let Some(extra) = run.with_in_flight.as_ref() {
                allowed.push(extra);
            }
            check_recovery(
                &run.fs,
                config,
                &allowed,
                &format!("dir-sync fail @op {ds} + crash @op {crash_at}"),
            );
        }
    }
}

/// Mixed-reboot schedule: real kernels flush dirty pages per inode with
/// no cross-file ordering, so a crash during a checkpoint can persist
/// the tmp file's unsynced bytes while losing the log's — or the
/// reverse. Sweep a crash through every op index of the checkpoint
/// schedule and reboot with each *strictly mixed* per-file keep choice
/// over the log and its checkpoint tmp (the uniform choices are the
/// plain `reboot` images the other sweeps already cover). The crash
/// contract must hold on every such disk.
#[test]
fn fault_sweep_with_mixed_per_file_reboots() {
    let config = DurabilityConfig { checkpoint_bytes: 200, ..Default::default() };
    let steps = commit_steps();
    let baseline = run_serial(config, &steps, &[]);
    let total_ops = baseline.fs.op_count();
    let tmp = PathBuf::from(format!("{WAL}.tmp"));

    for at in 0..total_ops {
        for kind in FAULTS {
            let run = run_serial(config, &steps, &[(at, kind)]);
            let mut allowed: Vec<&String> = vec![&run.acked_state];
            if let Some(extra) = run.with_in_flight.as_ref() {
                allowed.push(extra);
            }
            for keep_wal in [false, true] {
                // Strictly mixed: the tmp file's fate differs from the log's.
                let image = run
                    .fs
                    .reboot_mixed(|path| if path == tmp { !keep_wal } else { keep_wal });
                let ctx = format!("mixed fault {kind:?} @op {at} keep_wal={keep_wal}");
                let db = open_sim(&image, config).unwrap_or_else(|e| {
                    panic!("{ctx}: recovery must succeed on a kernel-legal disk: {e}\nops:\n{}",
                        run.fs.ops().join("\n"))
                });
                let recovered = dump(&db);
                assert!(
                    allowed.iter().any(|a| **a == recovered),
                    "{ctx}: torn recovery!\n-- recovered --\n{recovered}\n-- allowed --\n{}\nops:\n{}",
                    allowed.iter().map(|a| a.as_str()).collect::<Vec<_>>().join("\n----\n"),
                    run.fs.ops().join("\n"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Group-commit schedule: concurrent committers
// ---------------------------------------------------------------------------

const GC_THREADS: usize = 4;
const GC_TXNS: usize = 4;

/// Run the concurrent schedule: each thread owns one table and commits
/// `GC_TXNS` two-row transactions through the group-commit queue.
/// Returns the filesystem and the per-(thread, txn) acknowledgment map.
fn run_group(fault: Option<(u64, FaultKind)>) -> (SimFs, Vec<Vec<bool>>) {
    let fs = SimFs::new();
    if let Some((at, kind)) = fault {
        fs.set_fault(at, kind);
    }
    let config = DurabilityConfig::default();
    let mut acked = vec![vec![false; GC_TXNS]; GC_THREADS];
    if let Ok(db) = open_sim(&fs, config) {
        let mut created = [false; GC_THREADS];
        for (t, ok) in created.iter_mut().enumerate() {
            *ok = db
                .execute(&format!("CREATE TABLE t{t} (id INTEGER PRIMARY KEY, v INTEGER)"))
                .is_ok();
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..GC_THREADS)
                .map(|t| {
                    let shared = db.clone();
                    let created = created[t];
                    s.spawn(move || {
                        let mut acks = vec![false; GC_TXNS];
                        if !created {
                            return acks;
                        }
                        for (seq, ack) in acks.iter_mut().enumerate() {
                            let mut session = shared.session();
                            let run = session
                                .execute("BEGIN")
                                .and_then(|_| {
                                    session.execute(&format!(
                                        "INSERT INTO t{t} VALUES ({}, {seq})",
                                        seq * 2
                                    ))
                                })
                                .and_then(|_| {
                                    session.execute(&format!(
                                        "INSERT INTO t{t} VALUES ({}, {seq})",
                                        seq * 2 + 1
                                    ))
                                })
                                .and_then(|_| session.execute("COMMIT"));
                            *ack = run.is_ok();
                        }
                        acks
                    })
                })
                .collect();
            for (t, h) in handles.into_iter().enumerate() {
                acked[t] = h.join().expect("committer thread must not panic");
            }
        });
    }
    (fs, acked)
}

/// Check the group-commit crash contract on one rebooted image.
///
/// `crashed` distinguishes the two legal shapes: after a **transient**
/// fault (or none) the run kept going, every failed commit was rolled
/// back off the log, and the recovered state holds *exactly* the
/// acknowledged commits. After a **crash** nothing past the crash point
/// reached disk, so the recovered state holds the acknowledged commits
/// plus at most the groups in flight when the crash hit — and each
/// thread's survivors form a prefix of its attempts.
fn check_group_image(
    fs: &SimFs,
    acked: &[Vec<bool>],
    crashed: bool,
    keep_unsynced: bool,
    ctx: &str,
) {
    let image = fs.reboot(keep_unsynced);
    let db = open_sim(&image, DurabilityConfig::default())
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    for (t, acks) in acked.iter().enumerate() {
        let table = format!("t{t}");
        let exists = db.row_count(&table).is_some();
        if !exists {
            assert!(
                acks.iter().all(|a| !a),
                "{ctx}: table {table} lost but some of its commits were acknowledged"
            );
            continue;
        }
        let mut present = Vec::new();
        for (seq, &ack) in acks.iter().enumerate() {
            let n = db
                .query(&format!("SELECT COUNT(*) FROM {table} WHERE v = {seq}"))
                .unwrap()
                .scalar()
                .unwrap()
                .render()
                .parse::<usize>()
                .unwrap();
            // Atomicity: a two-row transaction is all-or-nothing.
            assert!(
                n == 0 || n == 2,
                "{ctx}: torn transaction t{t}/{seq}: {n} of 2 rows survived"
            );
            // Durability: acknowledged means fsynced means present.
            if ack {
                assert_eq!(n, 2, "{ctx}: acknowledged commit t{t}/{seq} lost");
            }
            if !crashed {
                // A transient failure was reported to its committer and
                // rolled back off the log: it must not resurrect.
                assert_eq!(
                    n == 2,
                    ack,
                    "{ctx}: unacknowledged commit t{t}/{seq} survived a transient fault"
                );
            }
            present.push(n == 2);
        }
        if crashed {
            // Nothing after the crash point reached disk, so each
            // thread's surviving transactions are a prefix of its
            // attempts (the first post-ack failure may or may not have
            // persisted; everything later cannot have).
            for w in present.windows(2) {
                assert!(
                    w[1] <= w[0],
                    "{ctx}: t{t} kept a later transaction while losing an earlier one"
                );
            }
        }
    }
}

/// Group-commit schedule: every fault at every op index while 4 threads
/// commit concurrently through the batching leader.
#[test]
fn fault_sweep_over_group_commit_schedule() {
    // Baseline sizes the sweep. Interleaving differs run to run; the
    // invariants are schedule-independent, so the baseline count only
    // needs to be in the right ballpark to cover the whole run.
    let (fs, acked) = run_group(None);
    assert!(
        acked.iter().all(|t| t.iter().all(|&a| a)),
        "baseline group schedule must fully acknowledge"
    );
    let total_ops = fs.op_count();
    for keep in [false, true] {
        check_group_image(&fs, &acked, false, keep, "group baseline");
    }

    for at in 0..total_ops {
        for kind in FAULTS {
            let (fs, acked) = run_group(Some((at, kind)));
            let crashed = fs.crashed();
            let ctx = format!("group fault {kind:?} @op {at}");
            for keep in [false, true] {
                check_group_image(&fs, &acked, crashed, keep, &format!("{ctx} keep={keep}"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery schedule: faults inside recovery itself
// ---------------------------------------------------------------------------

/// Faults injected while `open` replays the log and truncates a torn
/// tail: recovery either completes to the clean committed prefix or
/// fails without making anything worse — a second, clean open always
/// lands on the same committed state.
#[test]
fn fault_sweep_over_recovery_schedule() {
    // Build a committed image with a torn tail: two durable commits plus
    // a third whose group is cut mid-frame.
    let fs = SimFs::new();
    let config = DurabilityConfig::default();
    {
        let db = open_sim(&fs, config).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')").unwrap();
    }
    let committed = {
        let db = open_sim(&fs.reboot(false), config).unwrap();
        dump(&db)
    };
    let mut torn_image = fs.reboot(false).file_bytes(WAL).unwrap();
    {
        // A third commit, then keep only part of its group.
        let fs2 = fs.reboot(false);
        let db = open_sim(&fs2, config).unwrap();
        db.execute("INSERT INTO t VALUES (3, 'three')").unwrap();
        let full = fs2.file_bytes(WAL).unwrap();
        assert!(full.len() > torn_image.len());
        let cut = torn_image.len() + (full.len() - torn_image.len()) / 2;
        torn_image = full[..cut].to_vec();
    }

    // Size the sweep: recovery of the torn image on a clean filesystem.
    let total_ops = {
        let clean = SimFs::new();
        clean.install_file(WAL, torn_image.clone());
        let db = open_sim(&clean, config).unwrap();
        assert_eq!(dump(&db), committed, "torn tail must be discarded");
        clean.op_count()
    };
    assert!(total_ops >= 4, "recovery must at least open, read, truncate, sync");

    for at in 0..total_ops {
        for kind in FAULTS {
            let fs = SimFs::new();
            fs.install_file(WAL, torn_image.clone());
            fs.set_fault(at, kind);
            let ctx = format!("recovery fault {kind:?} @op {at}");
            match open_sim(&fs, config) {
                Ok(db) => {
                    assert_eq!(dump(&db), committed, "{ctx}: recovered to a wrong state");
                }
                Err(_) => {
                    // Recovery failed cleanly. Both reboot images must
                    // still recover to the committed prefix.
                    for keep in [false, true] {
                        let image = fs.reboot(keep);
                        let db = open_sim(&image, config).unwrap_or_else(|e| {
                            panic!("{ctx} keep={keep}: clean retry failed: {e}")
                        });
                        assert_eq!(
                            dump(&db),
                            committed,
                            "{ctx} keep={keep}: retry landed on a wrong state"
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Refused formats: the pre-pager whole-image log
// ---------------------------------------------------------------------------

/// A log captured from the last commit that still wrote the whole-image
/// format (`paged: false`; the first two `commit_steps`, a checkpoint,
/// then `UPDATE acct SET bal = 70 WHERE id = 1` in the tail): one tag-4
/// image record followed by a commit group, and no `.meta` sibling.
const LEGACY_IMAGE_LOG: &[u8] = include_bytes!("fixtures/legacy_image.wal");

/// Opening a legacy-format database fails with a typed error and performs
/// no mutating operation at all. The hazard this pins: with the image
/// decoder gone, the record would fail to decode, read as a torn tail,
/// and recovery would truncate the user's only copy of the data to zero
/// bytes — or migrate it silently, which this version no longer does.
#[test]
fn legacy_image_log_is_refused_untouched() {
    let fs = SimFs::new();
    fs.install_file(WAL, LEGACY_IMAGE_LOG.to_vec());
    for attempt in 0..2 {
        let err = open_sim(&fs, DurabilityConfig::default())
            .expect_err("a legacy image log must not open");
        assert!(
            matches!(&err, swan_sqlengine::Error::Io(m) if m.contains("legacy whole-image")),
            "attempt {attempt}: expected the typed legacy-format error, got: {err}"
        );
    }
    let mutating: Vec<String> = fs
        .ops()
        .into_iter()
        .filter(|op| !(op.starts_with("open ") || op.starts_with("read ")))
        .collect();
    assert!(mutating.is_empty(), "a refused open must not write, truncate or sync: {mutating:?}");
    assert_eq!(fs.file_bytes(WAL).as_deref(), Some(LEGACY_IMAGE_LOG), "volatile image changed");
    assert_eq!(fs.durable_bytes(WAL).as_deref(), Some(LEGACY_IMAGE_LOG), "durable image changed");
    for sibling in [".pages", ".meta", ".tmp"] {
        assert!(fs.file_bytes(format!("{WAL}{sibling}")).is_none(), "created {WAL}{sibling}");
    }
}
