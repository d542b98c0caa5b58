//! Primary-key serving on a 1M-row table: point probes, small ranges and
//! pk ORDER BY … LIMIT top-k, each run twice — `index` (the planner's
//! `IndexScan` / ordered-pk paths) and `scan` (`index_scan: false`, the
//! full-scan engine those rewrites replace) — so the speedup *is* the
//! pairwise ratio, measured interleaved in one process.
//!
//! Three non-criterion tables follow the timed runs:
//!
//! * **headline ratio** — wall-clock index-vs-scan ratio for the point
//!   probe; the bench asserts the ≥10× contract, so a planner regression
//!   that stops engaging the index fails the run instead of quietly
//!   printing slower numbers;
//! * **auto-threads ratio** — the same point probe at `threads: 0` (the
//!   default: resolve `SWAN_THREADS` / the machine) against an explicit
//!   `threads: 2`, alternating; asserted ≤ 1.5×, so a statement whose
//!   loops never reach `parallel_threshold` cannot start paying for a
//!   thread-count resolution again (it was 4.7× when the optimizer
//!   resolved one per statement);
//! * **checkpoint write amplification** — bytes written to the page file
//!   by a checkpoint after k point updates vs the full-image checkpoint,
//!   counted on SimFs. The incremental figure is O(k) pages; the ratio
//!   is the write amplification the paged store removed.
//!
//! Reference numbers live in crates/sqlengine/PERF.md ("Paged storage").

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use swan_sqlengine::{Database, DurabilityConfig, OptimizerConfig, SharedDb, SimFs, Value};

const ROWS: usize = 1_000_000;

const MODES: &[(&str, bool)] = &[("index", true), ("scan", false)];

/// `rows` rows of (pk, group, measure), served from memory (serving never
/// touches the pager; durability is benched separately below).
fn build_db(index_scan: bool, rows: usize) -> Database {
    let mut db = Database::new();
    db.set_optimizer(OptimizerConfig { index_scan, threads: 1, ..Default::default() });
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val REAL)").unwrap();
    let t = db.catalog_mut().get_mut("t").unwrap();
    for i in 0..rows {
        t.insert_row(vec![
            Value::Integer(i as i64),
            Value::Integer((i % 64) as i64),
            Value::Real((i % 10_000) as f64 / 100.0),
        ])
        .unwrap();
    }
    db
}

const POINT: &str = "SELECT val FROM t WHERE id = 987654";
const RANGE: &str = "SELECT id, val FROM t WHERE id BETWEEN 500000 AND 500063";
const TOPK: &str = "SELECT id, val FROM t ORDER BY id LIMIT 10";

fn bench_point_lookup(c: &mut Criterion) {
    for &(label, index_scan) in MODES {
        let db = build_db(index_scan, ROWS);
        c.bench_function(&format!("point_lookup/pk_eq_1m/{label}"), |b| {
            b.iter(|| black_box(db.query(POINT).unwrap()))
        });
        c.bench_function(&format!("point_lookup/pk_between_64_of_1m/{label}"), |b| {
            b.iter(|| black_box(db.query(RANGE).unwrap()))
        });
        c.bench_function(&format!("point_lookup/pk_order_limit_10_of_1m/{label}"), |b| {
            b.iter(|| black_box(db.query(TOPK).unwrap()))
        });
    }

    headline_ratio();
    auto_threads_ratio();
    checkpoint_write_amplification();
}

/// Wall-clock point-probe ratio with the ≥10× floor asserted.
fn headline_ratio() {
    let indexed = build_db(true, ROWS);
    let scanned = build_db(false, ROWS);
    let time = |db: &Database, iters: u32| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(db.query(POINT).unwrap());
        }
        start.elapsed().as_secs_f64() / iters as f64
    };
    // Warm both paths, then measure: many probe iterations, fewer scans.
    time(&indexed, 10);
    time(&scanned, 2);
    let probe = time(&indexed, 2000);
    let scan = time(&scanned, 20);
    let ratio = scan / probe;
    println!(
        "point_lookup/headline: pk probe {:.2}us vs full scan {:.0}us on {ROWS} rows = {ratio:.0}x",
        probe * 1e6,
        scan * 1e6,
    );
    assert!(
        ratio >= 10.0,
        "pk point lookup must beat the full scan by >=10x on 1M rows, got {ratio:.1}x \
         (index scan disengaged?)"
    );
}

/// A PK point `SELECT` on a 20k-row table at the default `threads: 0`
/// against an explicit `threads: 2`, in alternating rounds on one
/// database: every loop of the statement is far below
/// `parallel_threshold`, so neither side may resolve a thread count and
/// the two must cost the same.
fn auto_threads_ratio() {
    const SMALL: &str = "SELECT val FROM t WHERE id = 12345";
    const ROUNDS: usize = 5;
    const ITERS: u32 = 20_000;
    let mut db = build_db(true, 20_000);
    // Seconds spent at each setting, summed over the measured rounds.
    let mut cost = [(0usize, 0.0f64), (2, 0.0)];
    for round in 0..=ROUNDS {
        for (threads, total) in &mut cost {
            db.set_optimizer(OptimizerConfig { threads: *threads, ..Default::default() });
            let start = Instant::now();
            for _ in 0..ITERS {
                black_box(db.query(SMALL).unwrap());
            }
            // Round 0 warms both settings.
            if round > 0 {
                *total += start.elapsed().as_secs_f64();
            }
        }
    }
    let [(_, auto), (_, two)] = cost;
    let ratio = auto / two;
    let per_stmt_us = 1e6 / (ROUNDS as f64 * f64::from(ITERS));
    println!(
        "point_lookup/auto_threads: pk probe {:.2}us at threads:0 vs {:.2}us at threads:2 \
         = {ratio:.2}x",
        auto * per_stmt_us,
        two * per_stmt_us,
    );
    assert!(
        ratio <= 1.5,
        "a point SELECT at the default threads:0 must cost what it costs at threads:2, got \
         {ratio:.2}x (a thread count resolved before the row counts were looked at?)"
    );
}

/// Page-file bytes written by a checkpoint after k point updates vs the
/// full-image checkpoint, counted on SimFs.
fn checkpoint_write_amplification() {
    const WAL: &str = "/sim/bench.wal";
    const TABLE_ROWS: usize = 50_000;
    const K: usize = 3;

    let fs = SimFs::new();
    let config = DurabilityConfig { checkpoint_bytes: u64::MAX, ..Default::default() };
    let db = SharedDb::open_on(Arc::new(fs.clone()), PathBuf::from(WAL), config).unwrap();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val REAL)").unwrap();
    let mut i = 0usize;
    while i < TABLE_ROWS {
        let end = (i + 500).min(TABLE_ROWS);
        let mut stmt = String::from("INSERT INTO t VALUES ");
        for (j, id) in (i..end).enumerate() {
            if j > 0 {
                stmt.push(',');
            }
            stmt.push_str(&format!("({id}, {}, {}.25)", id % 64, id % 10_000));
        }
        db.execute(&stmt).unwrap();
        i = end;
    }

    let page_bytes = |from: usize| -> u64 {
        let pages_path = format!("{WAL}.pages");
        fs.ops()[from..]
            .iter()
            .filter_map(|line| {
                let rest = line.strip_prefix("write ")?;
                let (path, tail) = rest.split_once(" @")?;
                (path == pages_path)
                    .then(|| tail.split_once('+')?.1.parse::<u64>().ok())
                    .flatten()
            })
            .sum()
    };

    let mark = fs.ops().len();
    let start = Instant::now();
    db.checkpoint().unwrap();
    let full_time = start.elapsed();
    let full = page_bytes(mark);

    for id in [17usize, 25_000, 49_999] {
        db.execute(&format!("UPDATE t SET val = val + 1 WHERE id = {id}")).unwrap();
    }
    let mark = fs.ops().len();
    let start = Instant::now();
    db.checkpoint().unwrap();
    let incr_time = start.elapsed();
    let incr = page_bytes(mark);

    println!(
        "point_lookup/checkpoint_amplification: full image {full} B ({:.1}ms), \
         after {K} updates {incr} B ({:.1}ms) = {:.0}x write amplification removed",
        full_time.as_secs_f64() * 1e3,
        incr_time.as_secs_f64() * 1e3,
        full as f64 / incr.max(1) as f64,
    );
    assert!(
        incr * 4 < full,
        "incremental checkpoint ({incr} B) must stay far below the full image ({full} B)"
    );
}

criterion_group!(benches, bench_point_lookup);
criterion_main!(benches);
