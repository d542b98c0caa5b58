//! Join scaling: hash join vs nested-loop join across scale factors, plus a
//! three-table chain whose written order is deliberately bad (big ⋈ mid ⋈
//! tiny) so statistics-driven join reordering has something to fix.
//!
//! Scale factor 1.0 corresponds to a 20k-row fact table joining a 2k-row
//! dimension — the size regime the SWAN evaluation runs at production
//! scale. The nested-loop variant forces the executor off the equi-join
//! fast path with an `OR 0` residual, and only runs at the small scales
//! (it is quadratic by construction).
//!
//! After the timed rows, the bench asserts that `hash_join_sf1` costs
//! under 25× `hash_join_sf0.1` (10× the rows), so a join that turns
//! quadratic fails the run.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use swan_sqlengine::{Database, Value};

const BASE_FACT: usize = 20_000;
const BASE_DIM: usize = 2_000;
const TINY: usize = 20;

/// Scale factors mirroring the SWAN GenConfig sweep.
const SCALES: &[f64] = &[0.02, 0.1, 0.5, 1.0];

fn setup_db(scale: f64) -> Database {
    let fact_rows = ((BASE_FACT as f64 * scale) as usize).max(10);
    let dim_rows = ((BASE_DIM as f64 * scale) as usize).max(5);

    let mut db = Database::new();
    db.execute("CREATE TABLE fact (id INTEGER PRIMARY KEY, grp INTEGER, name TEXT)").unwrap();
    db.execute("CREATE TABLE dim (id INTEGER PRIMARY KEY, label TEXT)").unwrap();
    db.execute("CREATE TABLE tiny (id INTEGER PRIMARY KEY, tag TEXT)").unwrap();

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
            Value::text(format!("name-{}", next() % 997)),
        ])
        .unwrap();
    }
    let dim = db.catalog_mut().get_mut("dim").unwrap();
    for i in 0..dim_rows {
        dim.insert_row(vec![Value::Integer(i as i64), Value::text(format!("label-{i}"))])
            .unwrap();
    }
    let tiny = db.catalog_mut().get_mut("tiny").unwrap();
    for i in 0..TINY {
        tiny.insert_row(vec![Value::Integer(i as i64), Value::text(format!("tag-{i}"))])
            .unwrap();
    }
    db
}

const HASH_JOIN: &str = "SELECT COUNT(*) FROM fact t JOIN dim u ON t.grp = u.id";

fn bench_hash_join(c: &mut Criterion) {
    for &scale in SCALES {
        let db = setup_db(scale);
        c.bench_function(&format!("hash_join_sf{scale}"), |b| {
            b.iter(|| black_box(db.query(HASH_JOIN).unwrap()))
        });
    }
}

/// `hash_join_sf1` against `hash_join_sf0.1`, alternating rounds in one
/// process: ten times the rows must cost less than 25 times the time.
/// Integer join keys whose hashes share their low bits all start probing
/// at one bucket, and the join turns quadratic (30–42× when they did; 14×
/// since `FxHasher::finish` mixes), so a hash that stops spreading them
/// fails the run. Runs after every timed row: the databases it builds
/// would otherwise shift the heap under the rows that follow (the 32 µs
/// `join_chain_worst_order_sf0.02` read 36 µs behind it).
fn spread_floor(_: &mut Criterion) {
    const ROUNDS: usize = 5;
    let mut cost = [(setup_db(0.1), 50u32, 0.0f64), (setup_db(1.0), 5, 0.0)];
    for round in 0..=ROUNDS {
        for (db, iters, total) in &mut cost {
            let start = Instant::now();
            for _ in 0..*iters {
                black_box(db.query(HASH_JOIN).unwrap());
            }
            // Round 0 warms both scales.
            if round > 0 {
                *total += start.elapsed().as_secs_f64() / f64::from(*iters);
            }
        }
    }
    let [(_, _, small), (_, _, large)] = cost;
    let ratio = large / small;
    println!(
        "join_scaling/spread: hash_join_sf1 {:.0}us vs hash_join_sf0.1 {:.0}us = {ratio:.1}x \
         for 10x the rows",
        large * 1e6 / ROUNDS as f64,
        small * 1e6 / ROUNDS as f64,
    );
    assert!(
        ratio < 25.0,
        "hash_join_sf1 must cost under 25x hash_join_sf0.1 for 10x the rows, got {ratio:.1}x \
         (join keys sharing hash buckets?)"
    );
}

fn bench_nested_loop_join(c: &mut Criterion) {
    // Quadratic: only the small scales are tractable, which is exactly the
    // hash-vs-nested-loop story this bench exists to tell.
    for &scale in &SCALES[..2] {
        let db = setup_db(scale);
        c.bench_function(&format!("nested_loop_join_sf{scale}"), |b| {
            b.iter(|| {
                // `OR 0` defeats the equi-join splitter without changing
                // the result set.
                black_box(
                    db.query("SELECT COUNT(*) FROM fact t JOIN dim u ON (t.grp = u.id OR 0)")
                        .unwrap(),
                )
            })
        });
    }
}

fn bench_join_chain(c: &mut Criterion) {
    for &scale in SCALES {
        let db = setup_db(scale);
        c.bench_function(&format!("join_chain_worst_order_sf{scale}"), |b| {
            b.iter(|| {
                black_box(
                    db.query(
                        "SELECT COUNT(*) FROM fact f \
                         JOIN dim d ON f.grp = d.id \
                         JOIN tiny t ON d.id = t.id",
                    )
                    .unwrap(),
                )
            })
        });
    }
}

criterion_group!(
    benches,
    bench_hash_join,
    bench_nested_loop_join,
    bench_join_chain,
    spread_floor
);
criterion_main!(benches);
