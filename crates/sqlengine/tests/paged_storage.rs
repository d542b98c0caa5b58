//! Integration tests for the paged durable store: the checkpoint
//! write-amplification bound (the bug this store exists to fix), commits
//! that never touch the page file, keys the store cannot hold, and
//! recovery round-trips. (A pre-pager image log is refused, not migrated:
//! see `crash_sim::legacy_image_log_is_refused_untouched`.)
//!
//! The headline assertion is byte-counted, not vibes: after `k` point
//! updates, the next checkpoint may write O(k) pages to the page file —
//! never the whole database image.

use std::path::PathBuf;
use std::sync::Arc;

use swan_sqlengine::{DurabilityConfig, Error, SharedDb, SimFs};

const WAL: &str = "/sim/paged.wal";
const PAGE: u64 = 4096;

/// Huge checkpoint budget: checkpoints happen only when the test says so.
fn manual_checkpoints() -> DurabilityConfig {
    DurabilityConfig { checkpoint_bytes: u64::MAX, ..Default::default() }
}

fn open_sim(fs: &SimFs, config: DurabilityConfig) -> SharedDb {
    SharedDb::open_on(Arc::new(fs.clone()), PathBuf::from(WAL), config).unwrap()
}

/// Bytes written to the page file (`<wal>.pages`) by ops `[from..]` of the
/// SimFs trace. Log appends and meta renames go to other paths, so this
/// isolates exactly the slotted-page flush traffic.
fn page_file_bytes(fs: &SimFs, from: usize) -> u64 {
    let pages_path = format!("{WAL}.pages");
    fs.ops()[from..]
        .iter()
        .filter_map(|line| {
            let rest = line.strip_prefix("write ")?;
            let (path, tail) = rest.split_once(" @")?;
            if path != pages_path {
                return None;
            }
            tail.split_once('+')?.1.parse::<u64>().ok()
        })
        .sum()
}

/// Canonical dump used to compare database states byte for byte.
fn dump(db: &SharedDb) -> String {
    let mut out = String::new();
    for name in db.table_names() {
        let r = db.query(&format!("SELECT * FROM {name} ORDER BY 1")).unwrap();
        out.push_str(&format!("== {name} ({}) ==\n", r.columns.join(",")));
        for row in &r.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
            out.push_str(&cells.join("\u{1}"));
            out.push('\n');
        }
    }
    out
}

/// Page-file reads and writes among ops `[from..]` of the SimFs trace.
fn page_file_io(fs: &SimFs, from: usize) -> Vec<String> {
    let pages_path = format!("{WAL}.pages");
    fs.ops()[from..]
        .iter()
        .filter(|line| {
            let mut words = line.split(' ');
            matches!(words.next(), Some("read" | "write")) && words.next() == Some(&pages_path)
        })
        .cloned()
        .collect()
}

/// Load `n` rows of ~200 bytes each (≈ 50 KiB per 256 rows — the whole
/// working set stays far inside the default 256-page set, so a
/// checkpoint writes each page once, at its flush).
fn load_rows(db: &SharedDb, n: usize) {
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, body TEXT)")
        .unwrap();
    let mut i = 0usize;
    while i < n {
        let mut stmt = String::from("INSERT INTO t VALUES ");
        let end = (i + 128).min(n);
        for (j, id) in (i..end).enumerate() {
            if j > 0 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({id}, '{:x>180}')", id));
        }
        db.execute(&stmt).unwrap();
        i = end;
    }
}

#[test]
fn incremental_checkpoint_writes_o_of_k_pages() {
    let fs = SimFs::new();
    let db = open_sim(&fs, manual_checkpoints());
    load_rows(&db, 2000);

    // First checkpoint materialises the whole tree: O(database) writes,
    // paid once. Record its cost as the O(database) yardstick.
    let mark = fs.ops().len();
    db.checkpoint().unwrap();
    let full_bytes = page_file_bytes(&fs, mark);
    let stats = db.pager_stats().expect("durable database");
    assert!(
        stats.pages >= 50,
        "2000 rows × ~200 B must span many pages, got {}",
        stats.pages
    );
    assert!(
        full_bytes >= stats.pages / 2 * PAGE,
        "the first checkpoint writes the whole database: {full_bytes} bytes for {} pages",
        stats.pages
    );

    // k = 3 point updates dirty O(k) leaf pages (plus a bounded number of
    // interior/meta pages). The follow-up checkpoint must flush only those.
    let k = 3u64;
    let mark = fs.ops().len();
    for id in [17, 920, 1843] {
        db.execute(&format!("UPDATE t SET body = 'small-{id}' WHERE id = {id}"))
            .unwrap();
    }
    db.checkpoint().unwrap();
    let incr_bytes = page_file_bytes(&fs, mark);
    let incr_pages = incr_bytes / PAGE;
    assert!(incr_bytes > 0, "a dirty tree must flush something");
    // Generous O(k) slack: k leaves + the root spine + the table-meta page.
    assert!(
        incr_pages <= 4 * k + 6,
        "checkpoint after {k} updates wrote {incr_pages} pages — that is O(database), not O(k)"
    );
    assert!(
        incr_bytes * 4 < full_bytes,
        "incremental checkpoint ({incr_bytes} B) must be far below a full image ({full_bytes} B)"
    );

    // An empty checkpoint is free on the page file: nothing is dirty.
    let mark = fs.ops().len();
    db.checkpoint().unwrap();
    assert_eq!(
        page_file_bytes(&fs, mark),
        0,
        "a clean pager has nothing to flush"
    );

    // And the flushed state is the recovered state.
    let expected = dump(&db);
    drop(db);
    let db = open_sim(&fs, manual_checkpoints());
    assert_eq!(dump(&db), expected, "reboot must reproduce the checkpointed state");
}

#[test]
fn recovery_replays_tail_commits_over_the_checkpoint() {
    let fs = SimFs::new();
    let db = open_sim(&fs, manual_checkpoints());
    load_rows(&db, 300);
    db.checkpoint().unwrap();
    // Post-checkpoint commits live only in the log tail.
    db.execute("UPDATE t SET body = 'tail' WHERE id = 7").unwrap();
    db.execute("DELETE FROM t WHERE id = 8").unwrap();
    db.execute("INSERT INTO t VALUES (300, 'tail-insert')").unwrap();
    let expected = dump(&db);
    drop(db);

    let db = open_sim(&fs, manual_checkpoints());
    assert_eq!(dump(&db), expected, "checkpoint + tail replay must round-trip");
}

/// A commit appends to the log and does nothing else on disk: with a
/// two-page set and a tree far larger than it, five point updates after
/// a checkpoint read and write no page. The next checkpoint folds them,
/// and a reopen sees what the same statements give in memory.
#[test]
fn commits_perform_no_page_io() {
    let fs = SimFs::new();
    let config = DurabilityConfig { pool_pages: 2, ..manual_checkpoints() };
    let db = open_sim(&fs, config);
    let shadow = SharedDb::new();
    load_rows(&db, 2000);
    load_rows(&shadow, 2000);
    db.checkpoint().unwrap();

    let mark = fs.ops().len();
    for id in [3, 480, 999, 1500, 1998] {
        let update = format!("UPDATE t SET body = 'moved-{id}' WHERE id = {id}");
        db.execute(&update).unwrap();
        shadow.execute(&update).unwrap();
    }
    assert_eq!(page_file_io(&fs, mark), Vec::<String>::new(), "a commit touched the page file");

    db.checkpoint().unwrap();
    assert!(!page_file_io(&fs, mark).is_empty(), "the checkpoint folds the updates");
    drop(db);
    let db = open_sim(&fs, config);
    assert_eq!(dump(&db), dump(&shadow), "reopen must equal the fault-free run");
}

/// A primary key whose encoding exceeds what a tree page can hold is
/// refused at commit, before anything is logged: acknowledged, it would
/// fail every later checkpoint. The database keeps checkpointing, and a
/// reopen returns the rows committed before it.
#[test]
fn over_long_primary_key_is_refused_before_logging() {
    let fs = SimFs::new();
    let db = open_sim(&fs, manual_checkpoints());
    db.execute("CREATE TABLE k (name TEXT PRIMARY KEY, n INTEGER)").unwrap();
    db.execute("INSERT INTO k VALUES ('short', 1)").unwrap();
    let before = dump(&db);

    // 5,000 characters encode to 5,009 key bytes (count + tag + length).
    let long = "x".repeat(5000);
    let err = db.execute(&format!("INSERT INTO k VALUES ('{long}', 2)")).unwrap_err();
    assert!(
        matches!(&err, Error::Constraint(m) if m.contains("'k'") && m.contains("5009")),
        "typed error naming the table and the size: {err}"
    );
    assert_eq!(dump(&db), before, "nothing was installed");

    db.checkpoint().expect("the next checkpoint succeeds");
    db.execute("INSERT INTO k VALUES ('after', 3)").unwrap();
    let expected = dump(&db);
    drop(db);
    let db = open_sim(&fs, manual_checkpoints());
    assert_eq!(dump(&db), expected, "reopen returns the rows committed around the refusal");
}

/// Each commit is folded into the trees exactly once: a checkpoint
/// consumes the tail it folded. A table without a primary key shows a
/// second fold, because re-appending its rows duplicates them (tree
/// upserts would hide it).
#[test]
fn each_commit_is_folded_once() {
    let fs = SimFs::new();
    let db = open_sim(&fs, manual_checkpoints());
    db.execute("CREATE TABLE h (x INTEGER, note TEXT)").unwrap();
    db.execute("INSERT INTO h VALUES (1, 'a'), (2, 'b')").unwrap();
    db.checkpoint().unwrap();
    drop(db);

    let db = open_sim(&fs, manual_checkpoints());
    for x in 3..=5 {
        db.execute(&format!("INSERT INTO h VALUES ({x}, 'tail')")).unwrap();
        db.checkpoint().unwrap();
    }
    let expected = dump(&db);
    drop(db);
    let db = open_sim(&fs, manual_checkpoints());
    assert_eq!(db.row_count("h"), Some(5));
    assert_eq!(dump(&db), expected);
}

// ---------------------------------------------------------------------------
// Read-path checksums: a flipped bit on disk is caught where it is read
// ---------------------------------------------------------------------------

/// A database checkpointed twice, so the pages the second checkpoint
/// rewrote hold an image in both slots. Returns the files and the dump
/// the reopened database must show.
fn checkpointed_twice() -> (SimFs, String) {
    let fs = SimFs::new();
    let db = open_sim(&fs, manual_checkpoints());
    load_rows(&db, 300);
    db.checkpoint().unwrap();
    for id in [5, 150, 299] {
        db.execute(&format!("UPDATE t SET body = 'second-{id}' WHERE id = {id}")).unwrap();
    }
    db.checkpoint().unwrap();
    let expected = dump(&db);
    drop(db);
    (fs, expected)
}

/// The current slot of each page id `1..next_page`, read from the meta
/// file: magic, CRC, epoch, next page id, then one slot byte per page.
fn current_slots(fs: &SimFs) -> Vec<u8> {
    let meta = fs.file_bytes(format!("{WAL}.meta")).expect("meta file");
    let next_page = u64::from_le_bytes(meta[16..24].try_into().unwrap()) as usize;
    meta[24..24 + next_page - 1].iter().map(|s| s & 1).collect()
}

/// A fresh SimFs holding `fs`'s three files, with bit 4 of byte `at` of
/// the file named by `suffix` (`""`, `.pages` or `.meta`) flipped.
fn with_flipped_bits(fs: &SimFs, suffix: &str, at: &[usize]) -> SimFs {
    let copy = SimFs::new();
    for s in ["", ".pages", ".meta"] {
        let path = format!("{WAL}{s}");
        let mut bytes = fs.file_bytes(&path).expect("file exists");
        if s == suffix {
            for &i in at {
                bytes[i] ^= 0x10;
            }
        }
        copy.install_file(path, bytes);
    }
    copy
}

fn try_open(fs: &SimFs) -> swan_sqlengine::Result<SharedDb> {
    SharedDb::open_on(Arc::new(fs.clone()), PathBuf::from(WAL), manual_checkpoints())
}

/// A flipped bit inside the checksummed bytes of any page's current slot
/// fails the reopen with an I/O error naming that page — never a panic,
/// never a database with a wrong row.
#[test]
fn flipped_bit_in_a_current_page_slot_fails_reopen_naming_the_page() {
    let (fs, _) = checkpointed_twice();
    let pages = fs.file_bytes(format!("{WAL}.pages")).unwrap();
    let slots = current_slots(&fs);
    assert!(slots.len() >= 10, "300 rows span many pages: {}", slots.len());
    for (i, &slot) in slots.iter().enumerate() {
        let id = i + 1;
        let base = (2 * i + slot as usize) * PAGE as usize;
        let len = u32::from_le_bytes(pages[base + 24..base + 28].try_into().unwrap()) as usize;
        // The CRC field, the id field, the type byte and the payload.
        for at in [base + 1, base + 6, base + 20, base + 28 + len / 2, base + 27 + len] {
            match try_open(&with_flipped_bits(&fs, ".pages", &[at])) {
                Err(Error::Io(m)) => assert!(
                    m.ends_with(&format!("page {id}")) || m.contains(&format!("page {id} ")),
                    "page {id} byte {}: the error must name the page: {m}",
                    at - base
                ),
                Err(e) => panic!("page {id} byte {}: expected an I/O error, got {e}", at - base),
                Ok(_) => panic!("page {id} byte {}: a corrupt page reopened", at - base),
            }
        }
    }
}

/// The shadow slots hold the previous epoch's images, which nothing
/// reads: a flipped bit in every one of them leaves the reopened rows
/// identical.
#[test]
fn flipped_bits_in_shadow_slots_are_harmless() {
    let (fs, expected) = checkpointed_twice();
    let len = fs.file_bytes(format!("{WAL}.pages")).unwrap().len();
    let at: Vec<usize> = current_slots(&fs)
        .iter()
        .enumerate()
        .map(|(i, &slot)| (2 * i + (slot ^ 1) as usize) * PAGE as usize + 40)
        .filter(|&at| at < len)
        .collect();
    assert!(!at.is_empty(), "the second checkpoint left shadow images");
    let db = try_open(&with_flipped_bits(&fs, ".pages", &at)).expect("shadow slots are not read");
    assert_eq!(dump(&db), expected);
}

/// A flipped bit anywhere in the meta file — magic, CRC, epoch, slot
/// bytes or table records — fails the reopen with an I/O error.
#[test]
fn flipped_bit_in_the_meta_file_fails_reopen() {
    let (fs, _) = checkpointed_twice();
    let len = fs.file_bytes(format!("{WAL}.meta")).unwrap().len();
    for at in [0, 5, 9, 17, 24, len / 2, len - 1] {
        match try_open(&with_flipped_bits(&fs, ".meta", &[at])) {
            Err(Error::Io(_)) => {}
            Err(e) => panic!("meta byte {at}: expected an I/O error, got {e}"),
            Ok(_) => panic!("meta byte {at}: a corrupt meta file reopened"),
        }
    }
}
