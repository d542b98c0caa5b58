//! WAL commit latency and checkpoint cost.
//!
//! What the "Durability" section of `crates/sqlengine/PERF.md` reports:
//!
//! * **commit latency vs batch size** — one `BEGIN … COMMIT` transaction
//!   inserting N rows, fsync on. The per-row cost should fall sharply
//!   with N: the fsync and the `Begin/Delta/Commit` framing amortize
//!   over the batch, and a pure-INSERT transaction logs only the
//!   appended rows (the `Append` delta), not the table;
//! * **no-sync commit** — the same shape with `sync: false`, isolating
//!   the fsync from the codec + install cost;
//! * **auto-commit** — a bare INSERT on a durable database (one
//!   single-statement transaction per row), the baseline batching beats;
//! * **checkpoint cost** — a commit that also checkpoints (dirty-page
//!   flush, meta flip, log swap) on a 10k-row table: the price paid
//!   (rarely) to bound log size and recovery time.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use swan_sqlengine::{DurabilityConfig, Session, SharedDb};

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("swan-wal-bench-{tag}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_ids(n: usize) -> std::ops::Range<u64> {
    let start = NEXT_ID.fetch_add(n as u64, Ordering::Relaxed);
    start..start + n as u64
}

/// One transaction inserting `batch` rows, committed (and fsynced when
/// `sync`) as a unit.
fn commit_batch(db: &mut Session, batch: usize) {
    db.execute("BEGIN").unwrap();
    for id in fresh_ids(batch) {
        db.execute(&format!("INSERT INTO t VALUES ({id}, 'payload-{id}', {id})")).unwrap();
    }
    db.execute("COMMIT").unwrap();
}

/// One session on a fresh durable database (the session keeps it open).
fn open(tag: &str, sync: bool) -> (Session, PathBuf) {
    let path = temp_path(tag);
    let config = DurabilityConfig { checkpoint_bytes: u64::MAX, sync, ..Default::default() };
    let mut db = SharedDb::open_with(&path, config).unwrap().session();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, v INTEGER)").unwrap();
    (db, path)
}

fn bench_wal_commit(c: &mut Criterion) {
    // Commit latency vs transaction batch size (fsync on).
    for batch in [1usize, 10, 100, 1000] {
        let (mut db, path) = open(&format!("sync-{batch}"), true);
        c.bench_function(&format!("wal_commit/sync/batch_{batch}"), |b| {
            b.iter(|| commit_batch(&mut db, batch))
        });
        drop(db);
        let _ = std::fs::remove_file(&path);
    }

    // The same batches without fsync: codec + append + install only.
    for batch in [1usize, 100] {
        let (mut db, path) = open(&format!("nosync-{batch}"), false);
        c.bench_function(&format!("wal_commit/nosync/batch_{batch}"), |b| {
            b.iter(|| commit_batch(&mut db, batch))
        });
        drop(db);
        let _ = std::fs::remove_file(&path);
    }

    // Auto-commit baseline: every INSERT is its own durable transaction.
    {
        let (mut db, path) = open("autocommit", true);
        c.bench_function("wal_commit/autocommit_insert", |b| {
            b.iter(|| {
                let id = fresh_ids(1).start;
                db.execute(&format!("INSERT INTO t VALUES ({id}, 'payload-{id}', {id})"))
                    .unwrap();
            })
        });
        drop(db);
        let _ = std::fs::remove_file(&path);
    }

    // Checkpoint cost at 10k rows: checkpoint_bytes = 1 forces every
    // commit to checkpoint, so each iteration pays commit + checkpoint.
    // The UPDATE keeps the table size fixed.
    {
        let path = temp_path("checkpoint");
        let config = DurabilityConfig { checkpoint_bytes: 1, ..Default::default() };
        let mut db = SharedDb::open_with(&path, config).unwrap().session();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, v INTEGER)").unwrap();
        db.execute("BEGIN").unwrap();
        for id in 0..10_000u64 {
            db.execute(&format!("INSERT INTO t VALUES ({id}, 'payload-{id}', {id})")).unwrap();
        }
        db.execute("COMMIT").unwrap();
        c.bench_function("wal_commit/commit_plus_checkpoint_10k_rows", |b| {
            b.iter(|| db.execute("UPDATE t SET v = v + 1 WHERE id = 17").unwrap())
        });
        drop(db);
        let _ = std::fs::remove_file(&path);
    }

    // Contended group commit: 8 threads auto-commit single-row inserts
    // (each its own table, so no conflicts), fsync on. One iteration =
    // 8 concurrent commits. The group-commit queue lets one leader carry
    // several committers per fsync; the printed commits-per-fsync ratio
    // is the amortization factor (1.0 = no batching).
    {
        let path = temp_path("contended");
        let db = SharedDb::open_with(&path, DurabilityConfig::default()).unwrap();
        for t in 0..8 {
            db.execute(&format!("CREATE TABLE t{t} (id INTEGER PRIMARY KEY, v INTEGER)"))
                .unwrap();
        }
        let before = db.commit_stats();
        c.bench_function("wal_commit/contended_8_committers", |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for t in 0..8u64 {
                        let session = db.clone();
                        s.spawn(move || {
                            let id = fresh_ids(1).start;
                            session
                                .execute(&format!("INSERT INTO t{t} VALUES ({id}, {t})"))
                                .unwrap();
                        });
                    }
                });
            })
        });
        let stats = db.commit_stats();
        let commits = stats.commits - before.commits;
        let batches = stats.batches - before.batches;
        println!(
            "wal_commit/contended_8_committers: {commits} commits / {batches} \
             fsyncs = {:.2} commits-per-fsync (max batch {})",
            commits as f64 / batches.max(1) as f64,
            stats.max_batch,
        );
        drop(db);
        let _ = std::fs::remove_file(&path);
    }

    // Recovery: reopen a log holding one 10k-row committed table.
    {
        let path = temp_path("recovery");
        let config = DurabilityConfig { checkpoint_bytes: u64::MAX, sync: false, ..Default::default() };
        {
            let mut db = SharedDb::open_with(&path, config).unwrap().session();
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, v INTEGER)")
                .unwrap();
            db.execute("BEGIN").unwrap();
            for id in 0..10_000u64 {
                db.execute(&format!("INSERT INTO t VALUES ({id}, 'payload-{id}', {id})"))
                    .unwrap();
            }
            db.execute("COMMIT").unwrap();
        }
        c.bench_function("wal_commit/recover_10k_rows", |b| {
            b.iter(|| {
                let db = SharedDb::open_with(&path, config).unwrap();
                assert_eq!(db.row_count("t"), Some(10_000));
            })
        });
        let _ = std::fs::remove_file(&path);
    }
}

criterion_group!(benches, bench_wal_commit);
criterion_main!(benches);
