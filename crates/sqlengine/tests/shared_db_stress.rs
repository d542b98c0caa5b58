//! Concurrency stress tests for [`SharedDb`]: N threads issue mixed
//! reads and writes against one shared database and the suite asserts
//! **no lost updates** (per-table writer serialization makes
//! read-modify-write statements atomic), **no poisoned locks** (a
//! session panicking mid-statement leaves the database fully usable),
//! and **snapshot consistency** (readers always observe a complete,
//! point-in-time state, never a torn one).
//!
//! The transaction section stresses multi-statement `BEGIN … COMMIT`
//! spans: write-write conflicts abort exactly one of two racing
//! committers (first committer wins), conflicted sessions make progress
//! by retrying, and snapshot readers can never observe a half-installed
//! multi-table commit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use swan_sqlengine::value::Value;
use swan_sqlengine::{Error, ScalarUdf, SharedDb};

const THREADS: usize = 8;
const ITERS: usize = 40;

#[test]
fn concurrent_counter_updates_are_never_lost() {
    let db = SharedDb::new();
    db.execute("CREATE TABLE counters (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
    db.execute("INSERT INTO counters VALUES (0, 0)").unwrap();

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let session = db.clone();
            s.spawn(move || {
                for _ in 0..ITERS {
                    // Classic lost-update shape: read-modify-write.
                    session.execute("UPDATE counters SET n = n + 1 WHERE id = 0").unwrap();
                }
            });
        }
    });

    let r = db.query("SELECT n FROM counters WHERE id = 0").unwrap();
    assert_eq!(
        r.scalar(),
        Some(&Value::Integer((THREADS * ITERS) as i64)),
        "every increment must be observed (no lost updates)"
    );
}

#[test]
fn mixed_readers_and_writers_stay_consistent() {
    let db = SharedDb::new();
    db.execute("CREATE TABLE log (id INTEGER PRIMARY KEY, thread INTEGER)").unwrap();

    std::thread::scope(|s| {
        // Writers insert disjoint key ranges concurrently.
        for t in 0..THREADS {
            let session = db.clone();
            s.spawn(move || {
                for i in 0..ITERS {
                    let id = (t * ITERS + i) as i64;
                    session
                        .execute(&format!("INSERT INTO log VALUES ({id}, {t})"))
                        .unwrap();
                }
            });
        }
        // Readers observe monotonically consistent snapshots: a count and
        // a grouped sum taken from one snapshot must agree with each other.
        for _ in 0..2 {
            let session = db.clone();
            s.spawn(move || {
                for _ in 0..ITERS {
                    let snap = session.snapshot();
                    let count =
                        snap.query("SELECT COUNT(*) FROM log").unwrap().scalar().unwrap().clone();
                    let summed = snap
                        .query("SELECT SUM(c) FROM (SELECT COUNT(*) AS c FROM log GROUP BY thread) g")
                        .unwrap();
                    let summed = match summed.scalar() {
                        Some(Value::Null) | None => Value::Integer(0),
                        Some(v) => match v.as_i64() {
                            Some(n) => Value::Integer(n),
                            None => Value::Integer(0),
                        },
                    };
                    assert_eq!(
                        count, summed,
                        "snapshot must be internally consistent (not torn)"
                    );
                }
            });
        }
    });

    let total = db.query("SELECT COUNT(*) FROM log").unwrap();
    assert_eq!(total.scalar(), Some(&Value::Integer((THREADS * ITERS) as i64)));
    // Per-thread partitions are complete.
    let per = db
        .query("SELECT thread, COUNT(*) FROM log GROUP BY thread ORDER BY thread")
        .unwrap();
    assert_eq!(per.rows.len(), THREADS);
    for row in &per.rows {
        assert_eq!(row[1], Value::Integer(ITERS as i64));
    }
}

#[test]
fn writers_to_different_tables_do_not_interfere() {
    let db = SharedDb::new();
    for t in 0..4 {
        db.execute(&format!("CREATE TABLE t{t} (id INTEGER PRIMARY KEY)")).unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..4 {
            let session = db.clone();
            s.spawn(move || {
                for i in 0..ITERS {
                    session.execute(&format!("INSERT INTO t{t} VALUES ({i})")).unwrap();
                }
            });
        }
    });
    for t in 0..4 {
        assert_eq!(db.row_count(&format!("t{t}")), Some(ITERS));
    }
}

/// A UDF that panics on demand — simulates a session crashing mid-write
/// while holding its table's write lock.
struct Grenade;

impl ScalarUdf for Grenade {
    fn name(&self) -> &str {
        "grenade"
    }
    fn invoke(&self, args: &[Value]) -> swan_sqlengine::Result<Value> {
        if args.first().and_then(Value::as_i64) == Some(13) {
            panic!("simulated session crash");
        }
        Ok(args.first().cloned().unwrap_or(Value::Null))
    }
}

#[test]
fn panicking_session_does_not_poison_the_database() {
    let db = SharedDb::new();
    db.register_udf(Arc::new(Grenade));
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 1)").unwrap();

    // The panic fires while the INSERT holds t's writer lock.
    let session = db.clone();
    let crashed = std::thread::spawn(move || {
        let _ = session.execute("INSERT INTO t VALUES (2, grenade(13))");
    })
    .join();
    assert!(crashed.is_err(), "the session must have panicked");

    // Every lock recovered; reads and writes keep working, and the
    // crashed statement installed nothing.
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
        Some(&Value::Integer(1)),
        "crashed statement must not commit"
    );
    db.execute("INSERT INTO t VALUES (3, 3)").unwrap();
    db.execute("UPDATE t SET v = v + 1 WHERE id = 1").unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
        Some(&Value::Integer(2))
    );
}

// ---------------------------------------------------------------------------
// Multi-statement transactions under concurrency
// ---------------------------------------------------------------------------

/// Two sessions race read-modify-write transactions on the same row:
/// exactly one of each racing pair commits (first committer wins) and
/// every conflicted session retries to completion, so no increment is
/// ever lost and no increment is ever double-applied.
#[test]
fn txn_write_write_conflicts_abort_and_retries_converge() {
    let db = SharedDb::new();
    db.execute("CREATE TABLE counters (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
    db.execute("INSERT INTO counters VALUES (0, 0)").unwrap();

    let conflicts = AtomicU64::new(0);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let handle = db.clone();
            let conflicts = &conflicts;
            s.spawn(move || {
                for _ in 0..ITERS {
                    // Retry loop: a conflicted transaction re-runs from a
                    // fresh snapshot until its commit wins.
                    loop {
                        let mut session = handle.session();
                        session.execute("BEGIN").unwrap();
                        session
                            .execute("UPDATE counters SET n = n + 1 WHERE id = 0")
                            .unwrap();
                        match session.execute("COMMIT") {
                            Ok(_) => break,
                            Err(Error::Conflict(_)) => {
                                conflicts.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("unexpected commit error: {e}"),
                        }
                    }
                }
            });
        }
    });

    let r = db.query("SELECT n FROM counters WHERE id = 0").unwrap();
    assert_eq!(
        r.scalar(),
        Some(&Value::Integer((THREADS * ITERS) as i64)),
        "retried transactions must neither lose nor duplicate increments \
         ({} conflicts observed)",
        conflicts.load(Ordering::Relaxed)
    );
}

/// A transaction spanning two tables commits atomically: concurrent
/// snapshot readers must always see the two tables advance in lockstep —
/// a reader observing table A's row i without table B's row i caught a
/// torn commit.
#[test]
fn txn_multi_table_commits_are_never_observed_partially() {
    let db = SharedDb::new();
    db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY)").unwrap();

    std::thread::scope(|s| {
        // One writer commits paired inserts transactionally.
        {
            let handle = db.clone();
            s.spawn(move || {
                for i in 0..(ITERS as i64) {
                    let mut session = handle.session();
                    session.execute("BEGIN").unwrap();
                    session.execute(&format!("INSERT INTO a VALUES ({i})")).unwrap();
                    session.execute(&format!("INSERT INTO b VALUES ({i})")).unwrap();
                    session.execute("COMMIT").unwrap();
                }
            });
        }
        // Readers race snapshots against the commits.
        for _ in 0..4 {
            let handle = db.clone();
            s.spawn(move || {
                for _ in 0..ITERS {
                    let snap = handle.snapshot();
                    let na = snap.query("SELECT COUNT(*) FROM a").unwrap();
                    let nb = snap.query("SELECT COUNT(*) FROM b").unwrap();
                    assert_eq!(
                        na.scalar(),
                        nb.scalar(),
                        "a and b must advance atomically (torn commit observed)"
                    );
                }
            });
        }
    });
    assert_eq!(db.row_count("a"), Some(ITERS));
    assert_eq!(db.row_count("b"), Some(ITERS));
}

/// A transaction's reads are repeatable: concurrent commits by other
/// sessions to *other* tables never change what an open transaction sees,
/// and its own writes stay visible to it alone until commit.
#[test]
fn txn_snapshot_reads_are_stable_under_concurrent_commits() {
    let db = SharedDb::new();
    db.execute("CREATE TABLE stable (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO stable VALUES (1), (2), (3)").unwrap();
    db.execute("CREATE TABLE churn (id INTEGER PRIMARY KEY)").unwrap();

    std::thread::scope(|s| {
        // Churn writers hammer an unrelated table.
        for t in 0..2 {
            let handle = db.clone();
            s.spawn(move || {
                for i in 0..ITERS {
                    let id = t * ITERS + i;
                    handle.execute(&format!("INSERT INTO churn VALUES ({id})")).unwrap();
                }
            });
        }
        // Transactions repeatedly read their pinned snapshot.
        for _ in 0..2 {
            let handle = db.clone();
            s.spawn(move || {
                for _ in 0..8 {
                    let mut session = handle.session();
                    session.execute("BEGIN").unwrap();
                    let first = session
                        .query("SELECT COUNT(*) FROM stable")
                        .unwrap()
                        .scalar()
                        .unwrap()
                        .clone();
                    let churn0 =
                        session.query("SELECT COUNT(*) FROM churn").unwrap().scalar().unwrap().clone();
                    session.execute("INSERT INTO stable VALUES (99)").unwrap();
                    for _ in 0..4 {
                        std::thread::yield_now();
                        let again = session
                            .query("SELECT COUNT(*) FROM stable")
                            .unwrap()
                            .scalar()
                            .unwrap()
                            .clone();
                        assert_eq!(
                            again.render(),
                            "4",
                            "own write + pinned snapshot ({first} + 1)"
                        );
                        let churn_now = session
                            .query("SELECT COUNT(*) FROM churn")
                            .unwrap()
                            .scalar()
                            .unwrap()
                            .clone();
                        assert_eq!(churn_now, churn0, "snapshot reads must be repeatable");
                    }
                    session.execute("ROLLBACK").unwrap();
                }
            });
        }
    });
    assert_eq!(db.row_count("stable"), Some(3), "rolled-back inserts leave no trace");
    assert_eq!(db.row_count("churn"), Some(2 * ITERS));
}

/// Sessions run queries concurrently, and a statement-scoped expensive
/// UDF is still batched per statement.
#[derive(Default)]
struct CountingTag {
    tuples: AtomicU64,
}

impl ScalarUdf for CountingTag {
    fn name(&self) -> &str {
        "ctag"
    }
    fn invoke(&self, args: &[Value]) -> swan_sqlengine::Result<Value> {
        self.tuples.fetch_add(1, Ordering::SeqCst);
        Ok(Value::text(format!("v{}", args[0].render())))
    }
    fn is_expensive(&self) -> bool {
        true
    }
}

#[test]
fn concurrent_parallel_queries_agree_and_batch() {
    let db = SharedDb::new();
    let tag = Arc::new(CountingTag::default());
    db.register_udf(tag.clone());
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
    {
        // Bulk-load through one session snapshot-install cycle.
        for chunk in 0..10 {
            let values: Vec<String> = (0..50)
                .map(|i| {
                    let id = chunk * 50 + i;
                    format!("({id}, {})", id % 7)
                })
                .collect();
            db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();
        }
    }

    let expected = db.query("SELECT id FROM t WHERE ctag(n) = 'v3' ORDER BY id").unwrap();
    let baseline = tag.tuples.load(Ordering::SeqCst);
    assert!(baseline <= 7, "statement batching: ≤ one call per distinct n, got {baseline}");

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let session = db.clone();
            let expected = &expected;
            s.spawn(move || {
                let r = session
                    .query("SELECT id FROM t WHERE ctag(n) = 'v3' ORDER BY id")
                    .unwrap();
                assert_eq!(r.rows, expected.rows, "concurrent sessions agree");
            });
        }
    });
    // Each statement pays at most the 7 distinct tuples; a UDF with its
    // own cross-statement store (llm_map) would coalesce further — that
    // guarantee is exercised in the workspace-level concurrency test.
    let total = tag.tuples.load(Ordering::SeqCst);
    assert!(
        total <= baseline + (THREADS as u64) * 7,
        "per-statement batching must hold under concurrency, got {total}"
    );
}

// ---------------------------------------------------------------------------
// Group commit: concurrent committers share fsyncs
// ---------------------------------------------------------------------------

/// 8 committers hammer a durable database whose (simulated) fsync takes
/// real time. The group-commit queue must amortize: strictly fewer log
/// appends (= fsyncs) than commits, no acknowledged commit lost across a
/// reopen, and every commit's effect intact.
#[test]
fn group_commit_amortizes_fsyncs_under_contention() {
    use std::path::PathBuf;
    use std::time::Duration;
    use swan_sqlengine::{DurabilityConfig, SimFs};

    const COMMITS_PER_THREAD: usize = 25;

    let fs = SimFs::new();
    fs.set_sync_delay(Duration::from_micros(300));
    let path = PathBuf::from("/sim/group.wal");
    let db =
        SharedDb::open_on(Arc::new(fs.clone()), &path, DurabilityConfig::default()).unwrap();
    for t in 0..THREADS {
        db.execute(&format!("CREATE TABLE t{t} (id INTEGER PRIMARY KEY, v INTEGER)"))
            .unwrap();
    }
    let setup = db.commit_stats();
    assert_eq!(setup.commits, THREADS as u64, "one commit per CREATE TABLE");

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let session = db.clone();
            s.spawn(move || {
                for i in 0..COMMITS_PER_THREAD {
                    session
                        .execute(&format!("INSERT INTO t{t} VALUES ({i}, {})", i * t))
                        .unwrap();
                }
            });
        }
    });

    let stats = db.commit_stats();
    let commits = (THREADS * COMMITS_PER_THREAD) as u64 + setup.commits;
    assert_eq!(stats.commits, commits, "every commit acknowledged exactly once");
    assert!(
        stats.batches < stats.commits,
        "contended committers must share at least one fsync: {stats:?}"
    );
    assert!(stats.max_batch >= 2, "some batch must carry multiple groups: {stats:?}");
    assert!(stats.commits_per_fsync() > 1.0, "{stats:?}");

    // Everything acknowledged is durable: reopen from the synced image
    // only (the adversarial crash) and recount.
    let db2 = SharedDb::open_on(
        Arc::new(fs.reboot(false)),
        &path,
        DurabilityConfig::default(),
    )
    .unwrap();
    for t in 0..THREADS {
        assert_eq!(db2.row_count(&format!("t{t}")), Some(COMMITS_PER_THREAD));
    }
}

/// Regression pin for a seam escape `swan-analyze` rule (2) caught:
/// SimFs's slow-disk model used to call `std::thread::sleep` directly, so
/// no virtual-clock sweep could cover it — a sync delay always burned
/// wall time. It now sleeps through the `Clock` seam: on a `SimClock`
/// an hour of simulated fsync latency advances virtual time instantly.
#[test]
fn sync_delay_routes_through_clock_seam() {
    use std::path::PathBuf;
    use std::time::{Duration, Instant};
    use swan_pool::{Clock as _, SimClock};
    use swan_sqlengine::{DurabilityConfig, SimFs};

    let fs = SimFs::new();
    let clock = SimClock::handle();
    fs.set_clock(clock.clone());
    // A full second per fsync: unmistakable if it ever hits the wall
    // clock again.
    fs.set_sync_delay(Duration::from_secs(1));
    let path = PathBuf::from("/sim/clocked.wal");
    let wall = Instant::now();
    let db =
        SharedDb::open_on(Arc::new(fs.clone()), &path, DurabilityConfig::default()).unwrap();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)").unwrap();
    for i in 0..5 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    assert!(
        clock.now() >= Duration::from_secs(6),
        "each commit's fsync must pay the simulated delay in virtual time, got {:?}",
        clock.now()
    );
    assert!(
        wall.elapsed() < Duration::from_secs(2),
        "simulated fsync latency must not consume wall time, took {:?}",
        wall.elapsed()
    );
    // The slow-disk model stayed a faithful disk: everything recovers.
    let db2 =
        SharedDb::open_on(Arc::new(fs.reboot(false)), &path, DurabilityConfig::default())
            .unwrap();
    assert_eq!(db2.row_count("t"), Some(5));
}

/// A transaction commit and auto-commits from other sessions batch
/// together without torn installs: the multi-table transaction appears
/// atomically even when its group shares a batch.
#[test]
fn txn_commits_batch_with_autocommits_atomically() {
    use std::path::PathBuf;
    use std::time::Duration;
    use swan_sqlengine::{DurabilityConfig, SimFs};

    let fs = SimFs::new();
    fs.set_sync_delay(Duration::from_micros(200));
    let path = PathBuf::from("/sim/mixed.wal");
    let db =
        SharedDb::open_on(Arc::new(fs.clone()), &path, DurabilityConfig::default()).unwrap();
    db.execute("CREATE TABLE a (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE b (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE side (id INTEGER PRIMARY KEY)").unwrap();

    std::thread::scope(|s| {
        // Transactional committers: a and b move in lockstep. Conflict
        // detection is row-granular (snapshot isolation, first committer
        // wins), so these disjoint-key inserts rebase rather than abort;
        // the retry loop stays as a guard for true overlaps.
        for t in 0..3usize {
            let shared = db.clone();
            s.spawn(move || {
                for i in 0..12 {
                    let id = t * 1000 + i;
                    loop {
                        let mut session = shared.session();
                        session.execute("BEGIN").unwrap();
                        session.execute(&format!("INSERT INTO a VALUES ({id})")).unwrap();
                        session.execute(&format!("INSERT INTO b VALUES ({id})")).unwrap();
                        match session.execute("COMMIT") {
                            Ok(_) => break,
                            Err(Error::Conflict(_)) => continue,
                            Err(e) => panic!("commit failed: {e}"),
                        }
                    }
                }
            });
        }
        // Auto-commit noise on a third table to fill batches.
        for t in 0..3usize {
            let shared = db.clone();
            s.spawn(move || {
                for i in 0..12 {
                    shared
                        .execute(&format!("INSERT INTO side VALUES ({})", t * 1000 + i))
                        .unwrap();
                }
            });
        }
    });

    assert_eq!(db.row_count("a"), Some(36));
    assert_eq!(db.row_count("b"), Some(36));
    assert_eq!(db.row_count("side"), Some(36));

    // Recovery sees the same atomic state.
    let db2 = SharedDb::open_on(
        Arc::new(fs.reboot(false)),
        &path,
        DurabilityConfig::default(),
    )
    .unwrap();
    assert_eq!(db2.row_count("a"), Some(36));
    assert_eq!(db2.row_count("b"), Some(36));
    assert_eq!(db2.row_count("side"), Some(36));
}

// ---------------------------------------------------------------------------
// MVCC version-chain GC: pins retain history, the watermark truncates it
// ---------------------------------------------------------------------------

/// A long-lived transaction pins the commit history: every commit that
/// lands while it is open stays retained (its snapshot reads remain
/// repeatable), and the moment the pin drops the watermark advances and
/// the whole chain is truncated.
#[test]
fn long_lived_snapshot_pins_history_until_it_closes() {
    let db = SharedDb::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
    db.execute("INSERT INTO t VALUES (0, 0)").unwrap();

    let mut reader = db.session();
    reader.execute("BEGIN").unwrap();
    let before = reader.query("SELECT n FROM t WHERE id = 0").unwrap().scalar().unwrap().clone();

    // Churn from other sessions while the reader's snapshot is pinned.
    for i in 1..=20 {
        db.execute(&format!("UPDATE t SET n = {i} WHERE id = 0")).unwrap();
    }
    let pinned = db.mvcc_stats();
    assert_eq!(pinned.pinned_snapshots, 1, "the open transaction holds one pin");
    assert_eq!(
        pinned.history_entries, 20,
        "every commit since the pinned snapshot is retained: {pinned:?}"
    );

    // Repeatable reads: the churn is invisible to the pinned snapshot.
    let after = reader.query("SELECT n FROM t WHERE id = 0").unwrap().scalar().unwrap().clone();
    assert_eq!(after, before, "pinned snapshot must not observe concurrent commits");
    reader.execute("ROLLBACK").unwrap();

    let unpinned = db.mvcc_stats();
    assert_eq!(unpinned.pinned_snapshots, 0);
    assert_eq!(
        unpinned.history_entries, 0,
        "dropping the last pin must truncate the version chain: {unpinned:?}"
    );
    assert_eq!(unpinned.watermark, unpinned.committed_seq, "watermark catches up");
}

/// With no open snapshots, commit history is garbage-collected inline:
/// memory stays bounded (empty, in fact) no matter how much write churn
/// the database absorbs.
#[test]
fn history_stays_empty_under_churn_without_pins() {
    let db = SharedDb::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
    let seed: Vec<String> = (0..THREADS).map(|t| format!("({t}, 0)")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", seed.join(", "))).unwrap();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let handle = db.clone();
            s.spawn(move || {
                for _ in 0..ITERS {
                    loop {
                        let mut session = handle.session();
                        session.execute("BEGIN").unwrap();
                        session
                            .execute(&format!("UPDATE t SET n = n + 1 WHERE id = {t}"))
                            .unwrap();
                        match session.execute("COMMIT") {
                            Ok(_) => break,
                            Err(Error::Conflict(_)) => continue,
                            Err(e) => panic!("unexpected commit error: {e}"),
                        }
                    }
                }
            });
        }
    });

    let stats = db.mvcc_stats();
    assert_eq!(stats.pinned_snapshots, 0, "no transaction left open: {stats:?}");
    assert_eq!(
        stats.history_entries, 0,
        "GC must truncate the chain as soon as commits are unpinned: {stats:?}"
    );
    assert!(
        stats.committed_seq >= (THREADS * ITERS) as u64,
        "every commit was sequenced: {stats:?}"
    );
    // And the workload itself was correct.
    let r = db.query("SELECT SUM(n) FROM t").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Integer((THREADS * ITERS) as i64)));
}

/// A session dropped mid-transaction (no COMMIT/ROLLBACK) must release
/// its snapshot pin, or the GC watermark would stall forever.
#[test]
fn dropped_session_releases_its_snapshot_pin() {
    let db = SharedDb::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)").unwrap();

    {
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        session.execute("INSERT INTO t VALUES (1)").unwrap();
        assert_eq!(db.mvcc_stats().pinned_snapshots, 1);
        // Dropped without ending the transaction.
    }
    assert_eq!(db.mvcc_stats().pinned_snapshots, 0, "Drop must unpin");

    db.execute("INSERT INTO t VALUES (2)").unwrap();
    assert_eq!(db.mvcc_stats().history_entries, 0, "watermark must not stall");
    assert_eq!(db.row_count("t"), Some(1), "the abandoned transaction installed nothing");
}
