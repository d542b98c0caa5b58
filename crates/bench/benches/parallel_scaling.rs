//! Morsel-driven parallel execution scaling: the scale-1.0 join,
//! aggregation, filter/projection and top-k workloads at thread counts
//! {1, 2, 4, 8}, plus a latency-bound UDF filter where worker threads
//! overlap waits (the LLM-traffic shape) — the case that scales even
//! when cores are scarce.
//!
//! `t1` rows dispatch every operator loop inline; `tN` rows fan the same
//! loops out over N threads (`parallel_threshold: 1`, so every loop of
//! two items or more takes the fan-out — the bench measures what fan-out
//! costs, not where the gate puts it). Compare within a workload: CPU-bound speedup is bounded
//! by the machine's core count (`nproc`), latency-bound speedup by the
//! worker count. Numbers are recorded in `crates/sqlengine/PERF.md`
//! ("Parallel execution").
//!
//! Thread-count override: `SWAN_THREADS` changes nothing here — the
//! bench pins `OptimizerConfig::threads` explicitly per case.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use swan_sqlengine::{Database, OptimizerConfig, ScalarUdf, Value};

const FACT: usize = 20_000;
const DIM: usize = 2_000;
/// Rows for the latency-bound UDF case (50µs per row: ~100ms serial).
const UDF_ROWS: usize = 2_000;

const THREADS: &[usize] = &[1, 2, 4, 8];

fn setup_db(fact_rows: usize, dim_rows: usize) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE fact (id INTEGER PRIMARY KEY, grp INTEGER, n INTEGER, name TEXT)")
        .unwrap();
    db.execute("CREATE TABLE dim (id INTEGER PRIMARY KEY, label TEXT)").unwrap();

    let mut rng: u64 = 0x5EED;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    let fact = db.catalog_mut().get_mut("fact").unwrap();
    for i in 0..fact_rows {
        fact.insert_row(vec![
            Value::Integer(i as i64),
            Value::Integer((next() % dim_rows as u64) as i64),
            Value::Integer((next() % 1000) as i64),
            Value::text(format!("name-{}", next() % 997)),
        ])
        .unwrap();
    }
    let dim = db.catalog_mut().get_mut("dim").unwrap();
    for i in 0..dim_rows {
        dim.insert_row(vec![Value::Integer(i as i64), Value::text(format!("label-{i}"))])
            .unwrap();
    }
    db
}

fn with_threads(db: &Database, threads: usize) -> Database {
    let mut db = db.clone();
    db.set_optimizer(OptimizerConfig {
        threads,
        parallel_threshold: if threads == 1 { usize::MAX } else { 1 },
        ..Default::default()
    });
    db
}

/// A latency-bound row predicate: 50µs of simulated wait per call (a
/// remote lookup / model round-trip shape). Deliberately *not* marked
/// expensive, so it is evaluated per row inside the (parallel) filter
/// rather than batched — this isolates morsel fan-out itself.
struct SlowPredicate;

impl ScalarUdf for SlowPredicate {
    fn name(&self) -> &str {
        "slow_pred"
    }
    fn invoke(&self, args: &[Value]) -> swan_sqlengine::Result<Value> {
        std::thread::sleep(Duration::from_micros(50));
        Ok(Value::Integer((args[0].as_i64().unwrap_or(0) % 5 == 0) as i64))
    }
}

fn bench_join(c: &mut Criterion) {
    let base = setup_db(FACT, DIM);
    for &t in THREADS {
        let db = with_threads(&base, t);
        c.bench_function(&format!("par_join_20k_t{t}"), |b| {
            b.iter(|| {
                black_box(
                    db.query("SELECT COUNT(*) FROM fact f JOIN dim d ON f.grp = d.id").unwrap(),
                )
            })
        });
    }
}

fn bench_aggregate(c: &mut Criterion) {
    let base = setup_db(FACT, DIM);
    for &t in THREADS {
        let db = with_threads(&base, t);
        c.bench_function(&format!("par_group_by_20k_t{t}"), |b| {
            b.iter(|| {
                black_box(
                    db.query(
                        "SELECT d.label, COUNT(*), SUM(f.n) FROM fact f \
                         JOIN dim d ON f.grp = d.id GROUP BY d.label",
                    )
                    .unwrap(),
                )
            })
        });
    }
}

fn bench_filter_project(c: &mut Criterion) {
    let base = setup_db(FACT, DIM);
    for &t in THREADS {
        let db = with_threads(&base, t);
        c.bench_function(&format!("par_filter_project_20k_t{t}"), |b| {
            b.iter(|| {
                black_box(
                    db.query(
                        "SELECT f.id, UPPER(f.name), f.n * 2 + 1 FROM fact f \
                         WHERE f.n % 7 < 3 AND f.name LIKE 'name-1%'",
                    )
                    .unwrap(),
                )
            })
        });
    }
}

fn bench_topk(c: &mut Criterion) {
    let base = setup_db(FACT, DIM);
    for &t in THREADS {
        let db = with_threads(&base, t);
        c.bench_function(&format!("par_topk_20k_t{t}"), |b| {
            b.iter(|| {
                black_box(
                    db.query("SELECT id, n FROM fact ORDER BY n LIMIT 10").unwrap(),
                )
            })
        });
    }
}

/// The hybrid-query shape the paper targets: a join + aggregation whose
/// filter pays a per-row wait (model call / remote lookup). Worker
/// threads overlap the waits, so this scales with the thread count even
/// on a single core — the speedup regime SWAN queries actually live in.
fn bench_latency_bound_join_agg(c: &mut Criterion) {
    let mut base = setup_db(UDF_ROWS, DIM);
    base.register_udf(std::sync::Arc::new(SlowPredicate));
    for &t in THREADS {
        let db = with_threads(&base, t);
        c.bench_function(&format!("par_hybrid_join_agg_2k_t{t}"), |b| {
            b.iter(|| {
                black_box(
                    db.query(
                        "SELECT d.label, COUNT(*), SUM(f.n) FROM fact f \
                         JOIN dim d ON f.grp = d.id \
                         WHERE slow_pred(f.n) GROUP BY d.label",
                    )
                    .unwrap(),
                )
            })
        });
    }
}

criterion_group!(
    parallel_scaling,
    bench_join,
    bench_aggregate,
    bench_filter_project,
    bench_topk,
    bench_latency_bound_join_agg,
);
criterion_main!(parallel_scaling);
