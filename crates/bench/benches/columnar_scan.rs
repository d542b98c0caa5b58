//! Columnar vs row execution on the hot scan shapes: filter + project,
//! SUM/GROUP BY aggregation, the sf1 hash join from `join_scaling`, and
//! ORDER BY … LIMIT top-k. Every workload runs twice — `columnar: true`
//! (typed column kernels, selection bitmaps, vectorized join keys) and
//! `columnar: false` (the row path, bit-for-bit the pre-columnar
//! engine) — so the speedup *is* the pairwise ratio, measured
//! interleaved in one process.
//!
//! Reference numbers live in crates/sqlengine/PERF.md ("Columnar
//! execution"); if a columnar row of the pair stops beating its row
//! twin, the kernels have regressed (or stopped engaging — check
//! `OptimizerConfig::columnar` and the kernel's supported shapes first).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use swan_sqlengine::{Database, OptimizerConfig, Value};

const SCAN_ROWS: usize = 50_000;
const FACT_ROWS: usize = 20_000;
const DIM_ROWS: usize = 2_000;

const MODES: &[(&str, bool)] = &[("columnar", true), ("row", false)];

fn config(columnar: bool) -> OptimizerConfig {
    OptimizerConfig { columnar, ..Default::default() }
}

/// One wide scan table: an integer key, a low-cardinality group, a real
/// measure, a dictionary-friendly text column (997 distinct values) and
/// a 0/1 flag column, with a sprinkling of NULLs in the measure so the
/// validity bitmaps are live.
fn scan_db(columnar: bool) -> Database {
    let mut db = Database::new();
    db.execute(
        "CREATE TABLE scan (id INTEGER PRIMARY KEY, grp INTEGER, val REAL, name TEXT, flag INTEGER)",
    )
    .unwrap();

    let mut rng: u64 = 0x5EED;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let t = db.catalog_mut().get_mut("scan").unwrap();
    for i in 0..SCAN_ROWS {
        let v = next();
        t.insert_row(vec![
            Value::Integer(i as i64),
            Value::Integer((v % 64) as i64),
            if v % 13 == 0 {
                Value::Null
            } else {
                Value::Real((v % 10_000) as f64 / 100.0)
            },
            Value::text(format!("name-{}", v % 997)),
            Value::Integer((v % 2) as i64),
        ])
        .unwrap();
    }
    db.set_optimizer(config(columnar));
    db
}

/// The `join_scaling` sf1 shape: 20k fact rows into a 2k dimension.
fn join_db(columnar: bool) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE fact (id INTEGER PRIMARY KEY, grp INTEGER, name TEXT)").unwrap();
    db.execute("CREATE TABLE dim (id INTEGER PRIMARY KEY, label TEXT)").unwrap();
    let mut rng: u64 = 0x5EED;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let fact = db.catalog_mut().get_mut("fact").unwrap();
    for i in 0..FACT_ROWS {
        fact.insert_row(vec![
            Value::Integer(i as i64),
            Value::Integer((next() % DIM_ROWS as u64) as i64),
            Value::text(format!("name-{}", next() % 997)),
        ])
        .unwrap();
    }
    let dim = db.catalog_mut().get_mut("dim").unwrap();
    for i in 0..DIM_ROWS {
        dim.insert_row(vec![Value::Integer(i as i64), Value::text(format!("label-{i}"))])
            .unwrap();
    }
    db.set_optimizer(config(columnar));
    db
}

fn bench_filter_project(c: &mut Criterion) {
    for &(mode, columnar) in MODES {
        let db = scan_db(columnar);
        c.bench_function(&format!("filter_project_{mode}"), |b| {
            b.iter(|| {
                black_box(
                    db.query("SELECT id, val + 1.0 FROM scan WHERE val > 50.0 AND grp < 40")
                        .unwrap(),
                )
            })
        });
    }
}

fn bench_sum_group(c: &mut Criterion) {
    for &(mode, columnar) in MODES {
        let db = scan_db(columnar);
        c.bench_function(&format!("sum_group_{mode}"), |b| {
            b.iter(|| {
                black_box(
                    db.query(
                        "SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val) \
                         FROM scan GROUP BY grp",
                    )
                    .unwrap(),
                )
            })
        });
    }
}

fn bench_hash_join_sf1(c: &mut Criterion) {
    for &(mode, columnar) in MODES {
        let db = join_db(columnar);
        c.bench_function(&format!("hash_join_sf1_{mode}"), |b| {
            b.iter(|| {
                black_box(
                    db.query("SELECT COUNT(*) FROM fact t JOIN dim u ON t.grp = u.id").unwrap(),
                )
            })
        });
    }
}

fn bench_topk(c: &mut Criterion) {
    for &(mode, columnar) in MODES {
        let db = scan_db(columnar);
        c.bench_function(&format!("topk_filtered_{mode}"), |b| {
            b.iter(|| {
                black_box(
                    db.query(
                        "SELECT id, val FROM scan WHERE flag = 1 ORDER BY val LIMIT 10",
                    )
                    .unwrap(),
                )
            })
        });
    }
}

criterion_group!(
    benches,
    bench_filter_project,
    bench_sum_group,
    bench_hash_join_sf1,
    bench_topk
);
criterion_main!(benches);
