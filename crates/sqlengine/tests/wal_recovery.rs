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
//! Alongside the torn-tail sweep: reopen round trips, session
//! `BEGIN`/`COMMIT`/`ROLLBACK` durability, auto-checkpoint compaction,
//! the `execute_script` atomicity regression, and a fixture written by
//! the removed `Database::open` handle that must keep opening.
//!
//! Everything durable goes through [`SharedDb`] — the only handle that
//! can open a log — so every case here commits through the group-commit
//! leader, as a batch of one.

use std::path::PathBuf;

use std::sync::Arc;

use swan_sqlengine::{DurabilityConfig, Error, SharedDb, SimFs};

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

#[test]
fn reopen_recovers_committed_state() {
    let path = temp_path("reopen");
    let before = {
        let db = SharedDb::open(&path).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, score REAL)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'ada', 3.5), (2, 'bob', -0.0)").unwrap();
        db.execute("UPDATE t SET score = score + 1 WHERE id = 1").unwrap();
        db.execute("DELETE FROM t WHERE id = 2").unwrap();
        dump(&db)
    };
    let db = SharedDb::open(&path).unwrap();
    assert_eq!(dump(&db), before, "recovered state must be byte-identical");
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
        let db = SharedDb::open(&path).unwrap();
        db.execute("CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER, tag TEXT)")
            .unwrap();
        db.execute("INSERT INTO acct VALUES (1, 100, 'a'), (2, 50, 'b'), (3, 0, 'a')")
            .unwrap();
        db.execute("CREATE TABLE audit (seq INTEGER PRIMARY KEY, note TEXT)").unwrap();
        db.execute("INSERT INTO audit VALUES (1, 'opened')").unwrap();
    }
    let pre_bytes = std::fs::read(&path).unwrap();
    let pre_dump = dump(&SharedDb::open(&path).unwrap());

    // Phase 2: one multi-statement transaction touching both tables —
    // a transfer plus its audit row, the classic all-or-nothing pair.
    {
        let db = SharedDb::open(&path).unwrap();
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
    let post_dump = dump(&SharedDb::open(&path).unwrap());
    assert_ne!(pre_dump, post_dump);
    assert!(post_bytes.len() > pre_bytes.len());
    assert_eq!(&post_bytes[..pre_bytes.len()], &pre_bytes[..], "WAL is append-only");

    // Phase 3: crash at every byte offset of the final record group.
    let mut saw_pre = 0usize;
    let mut saw_post = 0usize;
    for cut in pre_bytes.len()..=post_bytes.len() {
        std::fs::write(&path, &post_bytes[..cut]).unwrap();
        let recovered = SharedDb::open(&path).unwrap();
        let d = dump(&recovered);
        drop(recovered);
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
        let again = SharedDb::open(&path).unwrap();
        assert_eq!(dump(&again), d, "recovery must be idempotent at cut {cut}");
        again.execute("INSERT INTO audit VALUES (90, 'post-recovery write')").unwrap();
        drop(again);
        let reread = SharedDb::open(&path).unwrap();
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
fn execute_script_txn_atomicity_on_a_durable_session() {
    let path = temp_path("script-atomic");
    {
        let db = SharedDb::open(&path).unwrap();
        let mut session = db.session();
        session.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
        session.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        let count = |db: &SharedDb| db.row_count("t").unwrap();

        // Mid-script failure inside BEGIN…COMMIT: whole span rolls back.
        let err = session
            .execute_script(
                "BEGIN;
                 INSERT INTO t VALUES (2, 20);
                 INSERT INTO t VALUES (1, 99);
                 COMMIT;",
            )
            .unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        assert!(!session.in_transaction(), "failed script span must close its transaction");
        assert_eq!(count(&db), 1);

        // Outside a transaction, per-statement commit is preserved.
        let err = session
            .execute_script("INSERT INTO t VALUES (2, 20); INSERT INTO t VALUES (1, 99);")
            .unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        assert_eq!(count(&db), 2);

        // A transaction opened before the script survives a failing
        // statement inside the script (SQLite semantics).
        session.execute("BEGIN").unwrap();
        session.execute("INSERT INTO t VALUES (3, 30)").unwrap();
        let err = session.execute_script("INSERT INTO t VALUES (1, 99);").unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        assert!(session.in_transaction(), "pre-existing transaction stays open");
        session.execute("COMMIT").unwrap();
        assert_eq!(count(&db), 3);
    }
    // Only the committed effects are durable.
    let db = SharedDb::open(&path).unwrap();
    assert_eq!(db.row_count("t"), Some(3));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn auto_checkpoint_compacts_and_preserves_state() {
    let path = temp_path("auto-ckpt");
    let config = DurabilityConfig { checkpoint_bytes: 2048, ..Default::default() };
    let before = {
        let db = SharedDb::open_with(&path, config).unwrap();
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
    let db = SharedDb::open_with(&path, config).unwrap();
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
        assert!(session.in_transaction());
        session.execute("INSERT INTO t VALUES (3, 30)").unwrap();
        session.execute("UPDATE t SET n = 0 WHERE id = 1").unwrap();
        // The session reads its own uncommitted writes.
        assert_eq!(
            session.query("SELECT COUNT(*) FROM t").unwrap().scalar().unwrap().render(),
            "3"
        );
        session.execute("COMMIT").unwrap();

        // A rolled-back transaction leaves no trace on disk.
        session.execute("BEGIN TRANSACTION").unwrap();
        session.execute("DELETE FROM t").unwrap();
        session.execute("ROLLBACK").unwrap();
        assert!(!session.in_transaction());

        // Nested/dangling control is an error, not corruption.
        assert!(matches!(session.execute("COMMIT"), Err(Error::Txn(_))));
        assert!(matches!(session.execute("ROLLBACK"), Err(Error::Txn(_))));
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
        dump(&db)
    };
    let db = SharedDb::open(&path).unwrap();
    assert_eq!(dump(&db), before);
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------------
// Files written by the removed `Database::open` handle
// ---------------------------------------------------------------------------

/// A database written through `Database::open_on` at the last commit
/// that had it (b0abe28): CREATE ×2, a multi-row INSERT, UPDATE, DELETE,
/// a failed statement, a two-table `BEGIN … COMMIT`, a rolled-back span,
/// an explicit checkpoint, then two commits in the log's tail.
const FIXTURE: [(&str, &[u8]); 3] = [
    ("", include_bytes!("fixtures/database_handle.wal")),
    (".pages", include_bytes!("fixtures/database_handle.wal.pages")),
    (".meta", include_bytes!("fixtures/database_handle.wal.meta")),
];

/// The canonical dump that handle produced before it was closed.
const FIXTURE_DUMP: &str = "== acct (id,bal,tag) ==\n\
    Integer(1)\u{1}Integer(70)\u{1}Text(\"a\")\n\
    Integer(2)\u{1}Integer(80)\u{1}Text(\"z\")\n\
    Integer(3)\u{1}Integer(5)\u{1}Text(\"c\")\n\
    == audit (seq,note) ==\n\
    Integer(1)\u{1}Text(\"transfer 30: 1 -> 2\")\n\
    Integer(3)\u{1}Text(\"kept\")\n\
    Integer(4)\u{1}Text(\"after checkpoint\")\n";

/// Deleting the second durable handle must not strand the files it
/// wrote: they open under `SharedDb::open_on` with a byte-identical dump
/// (checkpointed trees *and* the replayed tail), and keep taking commits.
#[test]
fn files_written_by_the_database_handle_keep_opening() {
    let fs = SimFs::new();
    for (suffix, bytes) in FIXTURE {
        fs.install_file(format!("/sim/db.wal{suffix}"), bytes.to_vec());
    }
    let open = |fs: &SimFs| {
        SharedDb::open_on(Arc::new(fs.clone()), "/sim/db.wal", DurabilityConfig::default())
            .unwrap()
    };
    let db = open(&fs);
    assert_eq!(dump(&db), FIXTURE_DUMP);
    db.execute("INSERT INTO audit VALUES (5, 'written by SharedDb')").unwrap();
    db.checkpoint().unwrap();
    let after = dump(&db);
    drop(db);
    assert_eq!(dump(&open(&fs.reboot(false))), after);
}

/// A bulk load survives reopen. The removed handle had a hole here:
/// `Database::open(..)` + `catalog_mut()` loaded rows that were never
/// logged and silently vanished on reopen. `SharedDb` hands out no
/// mutable catalog — the only way in is a statement, and every statement
/// is a logged commit — so the hole is closed by construction.
#[test]
fn bulk_load_through_shared_db_survives_reopen() {
    let path = temp_path("bulk-load");
    let before = {
        let db = SharedDb::open(&path).unwrap();
        db.execute("CREATE TABLE bulk (id INTEGER PRIMARY KEY, body TEXT)").unwrap();
        let rows: Vec<String> = (0..500).map(|i| format!("({i}, 'row-{i}')")).collect();
        db.execute(&format!("INSERT INTO bulk VALUES {}", rows.join(", "))).unwrap();
        dump(&db)
    };
    let db = SharedDb::open(&path).unwrap();
    assert_eq!(db.row_count("bulk"), Some(500));
    assert_eq!(dump(&db), before);
    let _ = std::fs::remove_file(&path);
}
