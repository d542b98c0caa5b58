//! Crash-recovery harness for the write-ahead log.
//!
//! The central property (the ISSUE-4 acceptance bar): a database that
//! crashes mid-commit recovers to **either the pre-commit or the
//! post-commit state — never a torn mix**. The harness proves it
//! mechanically: it builds a durable database, runs one final
//! multi-statement transaction, then replays the crash at *every byte
//! offset* of the final commit's WAL record group — truncating the file
//! there, reopening, and diffing a canonical dump of every table against
//! the two legal states (byte-identical query results required).
//!
//! Alongside the torn-tail sweep: reopen round trips, single-session
//! `BEGIN`/`COMMIT`/`ROLLBACK` durability, auto-checkpoint compaction,
//! and the `execute_script` atomicity regression.

use std::path::PathBuf;

use swan_sqlengine::{Database, DurabilityConfig, Error, SharedDb};

/// A unique temp path per test (process + thread disambiguated).
fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "swan-recovery-{tag}-{}-{:?}.wal",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// Canonical dump: every table (sorted by name), its column names, and
/// every row rendered cell by cell. Byte-identical across equal states.
fn dump(db: &Database) -> String {
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

#[test]
fn reopen_recovers_committed_state() {
    let path = temp_path("reopen");
    let before = {
        let mut db = Database::open(&path).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score REAL)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'ada', 3.5), (2, 'bob', -0.0)").unwrap();
        db.execute("UPDATE t SET score = score + 1 WHERE id = 1").unwrap();
        db.execute("DELETE FROM t WHERE id = 2").unwrap();
        dump(&db)
    };
    let db = Database::open(&path).unwrap();
    assert_eq!(dump(&db), before, "recovered state must be byte-identical");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn single_session_txn_commit_and_rollback_are_durable() {
    let path = temp_path("dbtxn");
    {
        let mut db = Database::open(&path).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();

        db.execute("BEGIN").unwrap();
        assert!(db.in_transaction());
        db.execute("INSERT INTO t VALUES (2, 20)").unwrap();
        db.execute("UPDATE t SET n = n * 2 WHERE id = 1").unwrap();
        // The session reads its own uncommitted writes.
        assert_eq!(
            db.query("SELECT COUNT(*) FROM t").unwrap().scalar().unwrap().render(),
            "2"
        );
        db.execute("COMMIT").unwrap();

        db.execute("BEGIN TRANSACTION").unwrap();
        db.execute("DELETE FROM t").unwrap();
        db.execute("ROLLBACK").unwrap();
        assert!(!db.in_transaction());

        // Nested/dangling control is an error, not corruption.
        assert!(matches!(db.execute("COMMIT"), Err(Error::Txn(_))));
        assert!(matches!(db.execute("ROLLBACK"), Err(Error::Txn(_))));
    }
    let db = Database::open(&path).unwrap();
    assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap().scalar().unwrap().render(), "2");
    assert_eq!(
        db.query("SELECT n FROM t WHERE id = 1").unwrap().scalar().unwrap().render(),
        "20"
    );
    let _ = std::fs::remove_file(&path);
}

/// The torn-WAL sweep: truncate at every byte offset of the last commit's
/// record group and reopen. Recovery must always land on exactly the
/// pre-commit or the post-commit state.
#[test]
fn torn_commit_recovers_pre_or_post_state_at_every_offset() {
    let path = temp_path("torn-sweep");

    // Phase 1: the pre-commit state, fully durable.
    {
        let mut db = Database::open(&path).unwrap();
        db.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER, tag TEXT)")
            .unwrap();
        db.execute("INSERT INTO acct VALUES (1, 100, 'a'), (2, 50, 'b'), (3, 0, 'a')")
            .unwrap();
        db.execute("CREATE TABLE audit (seq INTEGER PRIMARY KEY, note TEXT)").unwrap();
        db.execute("INSERT INTO audit VALUES (1, 'opened')").unwrap();
    }
    let pre_bytes = std::fs::read(&path).unwrap();
    let pre_dump = dump(&Database::open(&path).unwrap());

    // Phase 2: one multi-statement transaction touching both tables —
    // a transfer plus its audit row, the classic all-or-nothing pair.
    {
        let mut db = Database::open(&path).unwrap();
        db.execute_script(
            "BEGIN;
             UPDATE acct SET bal = bal - 30 WHERE id = 1;
             UPDATE acct SET bal = bal + 30 WHERE id = 2;
             INSERT INTO audit VALUES (2, 'transfer 30: 1 -> 2');
             COMMIT;",
        )
        .unwrap();
    }
    let post_bytes = std::fs::read(&path).unwrap();
    let post_dump = dump(&Database::open(&path).unwrap());
    assert_ne!(pre_dump, post_dump);
    assert!(post_bytes.len() > pre_bytes.len());
    assert_eq!(&post_bytes[..pre_bytes.len()], &pre_bytes[..], "WAL is append-only");

    // Phase 3: crash at every byte offset of the final record group.
    let mut saw_pre = 0usize;
    let mut saw_post = 0usize;
    for cut in pre_bytes.len()..=post_bytes.len() {
        std::fs::write(&path, &post_bytes[..cut]).unwrap();
        let recovered = Database::open(&path).unwrap();
        let d = dump(&recovered);
        if d == pre_dump {
            saw_pre += 1;
        } else if d == post_dump {
            saw_post += 1;
        } else {
            panic!(
                "cut at byte {cut}: torn state!\n-- recovered --\n{d}\n-- pre --\n{pre_dump}\n-- post --\n{post_dump}"
            );
        }

        // Recovery truncated the torn tail: a second open is a no-op and
        // the database accepts new commits from the clean boundary.
        let mut again = Database::open(&path).unwrap();
        assert_eq!(dump(&again), d, "recovery must be idempotent at cut {cut}");
        again.execute("INSERT INTO audit VALUES (90, 'post-recovery write')").unwrap();
        let reread = Database::open(&path).unwrap();
        assert!(
            dump(&reread).contains("post-recovery write"),
            "cut {cut}: writes after recovery must be durable"
        );
    }
    assert!(saw_pre > 0, "some truncations must roll the commit back");
    assert_eq!(saw_post, 1, "only the intact file holds the post state");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn execute_script_txn_atomicity_on_database() {
    let path = temp_path("script-atomic");
    {
        let mut db = Database::open(&path).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10)").unwrap();

        // Mid-script failure inside BEGIN…COMMIT: whole span rolls back.
        let err = db
            .execute_script(
                "BEGIN;
                 INSERT INTO t VALUES (2, 20);
                 INSERT INTO t VALUES (1, 99);
                 COMMIT;",
            )
            .unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        assert!(!db.in_transaction(), "failed script span must close its transaction");
        assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap().scalar().unwrap().render(), "1");

        // Outside a transaction, per-statement commit is preserved.
        let err = db
            .execute_script("INSERT INTO t VALUES (2, 20); INSERT INTO t VALUES (1, 99);")
            .unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap().scalar().unwrap().render(), "2");

        // A transaction opened before the script survives a failing
        // statement inside the script (SQLite semantics).
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO t VALUES (3, 30)").unwrap();
        let err = db.execute_script("INSERT INTO t VALUES (1, 99);").unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        assert!(db.in_transaction(), "pre-existing transaction stays open");
        db.execute("COMMIT").unwrap();
        assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap().scalar().unwrap().render(), "3");
    }
    // Only the committed effects are durable.
    let db = Database::open(&path).unwrap();
    assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap().scalar().unwrap().render(), "3");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn auto_checkpoint_compacts_and_preserves_state() {
    let path = temp_path("auto-ckpt");
    let config = DurabilityConfig { checkpoint_bytes: 2048, ..Default::default() };
    let before = {
        let mut db = Database::open_with(&path, config).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, blob TEXT)").unwrap();
        for i in 0..200 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, '{}')", "x".repeat(64))).unwrap();
        }
        dump(&db)
    };
    let wal_size = std::fs::metadata(&path).unwrap().len();
    // 200 inserts × ~80 bytes each would exceed 16 KiB uncompacted; every
    // commit that reaches the budget swaps the log for a bare marker, so
    // the log never rests at or above it.
    assert!(
        wal_size < config.checkpoint_bytes,
        "auto-checkpoint must bound the log (got {wal_size} bytes)"
    );
    let db = Database::open_with(&path, config).unwrap();
    assert_eq!(dump(&db), before);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shared_db_commits_are_durable_across_reopen() {
    let path = temp_path("shared-durable");
    {
        let db = SharedDb::open(&path).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();

        // A session transaction: committed atomically, logged atomically.
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        session.execute("INSERT INTO t VALUES (3, 30)").unwrap();
        session.execute("UPDATE t SET n = 0 WHERE id = 1").unwrap();
        session.execute("COMMIT").unwrap();

        // A rolled-back transaction leaves no trace on disk.
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        session.execute("DELETE FROM t").unwrap();
        session.execute("ROLLBACK").unwrap();
    }
    let db = SharedDb::open(&path).unwrap();
    assert_eq!(db.row_count("t"), Some(3));
    assert_eq!(
        db.query("SELECT n FROM t WHERE id = 1").unwrap().scalar().unwrap().render(),
        "0"
    );
    let _ = std::fs::remove_file(&path);
}

/// Recovery replays interleaved auto-commits and transactions in commit
/// order: the recovered table equals the in-memory end state exactly.
#[test]
fn interleaved_autocommit_and_txn_replay_in_order() {
    let path = temp_path("interleave");
    let before = {
        let db = SharedDb::open(&path).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        for i in 0..10 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 0)")).unwrap();
        }
        let mut session = db.session();
        session.execute("BEGIN").unwrap();
        session.execute("UPDATE t SET n = n + 1").unwrap();
        // An auto-commit interleaves on a *different* table while the
        // transaction is open (same-table would conflict by design).
        db.execute("CREATE TABLE side (x INTEGER)").unwrap();
        db.execute("INSERT INTO side VALUES (42)").unwrap();
        session.execute("COMMIT").unwrap();
        db.execute("INSERT INTO t VALUES (10, 99)").unwrap();
        dump(&db.snapshot())
    };
    let db = SharedDb::open(&path).unwrap();
    assert_eq!(dump(&db.snapshot()), before);
    let _ = std::fs::remove_file(&path);
}
