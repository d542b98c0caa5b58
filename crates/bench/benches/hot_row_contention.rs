//! Transaction throughput under row contention.
//!
//! The false-conflict fix in one bench: 8 committers run `BEGIN … UPDATE
//! … COMMIT` transactions against **one** table, fsync on.
//!
//! * **disjoint_rows** — each committer updates its own primary key.
//!   Under the old table-granular validation every racing pair aborted
//!   one side; with row-level write sets the printed abort count must be
//!   **0** and throughput is bounded by the group-commit fsync, not by
//!   retries.
//! * **same_row** — all 8 committers update primary key 0: the true-
//!   conflict control. First committer wins, the rest retry, so the
//!   abort count is large and throughput pays for it. The gap between
//!   the two rows is the cost the bug used to impose on workloads that
//!   never actually conflicted.
//!
//! Each scenario prints committed transactions, conflict aborts and
//! commits-per-fsync.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use swan_sqlengine::{DurabilityConfig, Error, SharedDb};

const COMMITTERS: usize = 8;

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("swan-hotrow-bench-{tag}-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// One benchmark iteration: 8 threads each run one transactional
/// read-modify-write against the row `key(t)` selects, retrying on
/// conflict until the commit lands.
fn run_round(db: &SharedDb, aborts: &AtomicU64, key: impl Fn(usize) -> usize + Sync) {
    std::thread::scope(|s| {
        for t in 0..COMMITTERS {
            let handle = db.clone();
            let key = &key;
            s.spawn(move || {
                let id = key(t);
                loop {
                    let mut session = handle.session();
                    session.execute("BEGIN").unwrap();
                    session
                        .execute(&format!("UPDATE hot SET n = n + 1 WHERE id = {id}"))
                        .unwrap();
                    match session.execute("COMMIT") {
                        Ok(_) => break,
                        Err(Error::Conflict(_)) => {
                            aborts.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected commit error: {e}"),
                    }
                }
            });
        }
    });
}

fn bench_scenario(c: &mut Criterion, label: &str, key: impl Fn(usize) -> usize + Sync) {
    let path = temp_path(label);
    let db = SharedDb::open_with(&path, DurabilityConfig::default()).unwrap();
    db.execute("CREATE TABLE hot (id INTEGER PRIMARY KEY, n INTEGER)").unwrap();
    let seed: Vec<String> = (0..COMMITTERS).map(|t| format!("({t}, 0)")).collect();
    db.execute(&format!("INSERT INTO hot VALUES {}", seed.join(", "))).unwrap();

    let aborts = AtomicU64::new(0);
    let before = db.commit_stats();
    c.bench_function(&format!("hot_row_contention/{label}"), |b| {
        b.iter(|| run_round(&db, &aborts, &key))
    });
    let stats = db.commit_stats();
    let commits = stats.commits - before.commits;
    let batches = stats.batches - before.batches;
    println!(
        "hot_row_contention/{label}: {commits} commits, {} conflict aborts, \
         {:.2} commits-per-fsync (max batch {})",
        aborts.load(Ordering::Relaxed),
        commits as f64 / batches.max(1) as f64,
        stats.max_batch,
    );
    if label == "disjoint_rows" {
        assert_eq!(
            aborts.load(Ordering::Relaxed),
            0,
            "disjoint-row committers must never conflict"
        );
    }
    drop(db);
    let _ = std::fs::remove_file(&path);
}

fn bench_hot_row_contention(c: &mut Criterion) {
    // The fixed case: one table, 8 disjoint primary keys, zero aborts.
    bench_scenario(c, "disjoint_rows", |t| t);
    // The control: a genuinely hot row still aborts and retries.
    bench_scenario(c, "same_row", |_| 0);
}

criterion_group!(benches, bench_hot_row_contention);
criterion_main!(benches);
