//! Criterion microbenchmarks for the substrates: SQL parsing, hash joins,
//! aggregation, LIKE filtering, tokenization and prompt round-trips.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use swan_llm::count_tokens;
use swan_sqlengine::{Database, Value};

fn setup_db(rows: usize) -> Database {
    let mut db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, name TEXT, v REAL)")
        .unwrap();
    let mut rng: u64 = 0x12345;
    let mut next = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let table = db.catalog_mut().get_mut("t").unwrap();
    for i in 0..rows {
        table
            .insert_row(vec![
                Value::Integer(i as i64),
                Value::Integer((next() % 100) as i64),
                Value::text(format!("name-{}", next() % 1000)),
                Value::Real((next() % 10_000) as f64 / 100.0),
            ])
            .unwrap();
    }
    db.execute("CREATE TABLE u (id INTEGER PRIMARY KEY, label TEXT)").unwrap();
    let u = db.catalog_mut().get_mut("u").unwrap();
    for i in 0..rows / 10 {
        u.insert_row(vec![Value::Integer(i as i64), Value::text(format!("label-{i}"))])
            .unwrap();
    }
    db
}

fn bench_parser(c: &mut Criterion) {
    let sql = "SELECT T1.school_name, AVG(s.avg_scr_math) AS m FROM schools T1 \
               JOIN satscores s ON s.cds_code = T1.cds_code \
               WHERE T1.county = 'Los Angeles' AND s.num_tst_takr > 100 \
               GROUP BY T1.school_name HAVING COUNT(*) > 1 \
               ORDER BY m DESC, T1.school_name LIMIT 5";
    c.bench_function("parse_complex_select", |b| {
        b.iter(|| swan_sqlengine::parser::parse_statement(black_box(sql)).unwrap())
    });
}

fn bench_join(c: &mut Criterion) {
    let db = setup_db(10_000);
    c.bench_function("hash_join_10k_x_1k", |b| {
        b.iter(|| {
            db.query("SELECT COUNT(*) FROM t JOIN u ON t.grp = u.id").unwrap()
        })
    });
}

fn bench_aggregate(c: &mut Criterion) {
    let db = setup_db(10_000);
    c.bench_function("group_by_100_groups_10k_rows", |b| {
        b.iter(|| {
            db.query("SELECT grp, COUNT(*), AVG(v), MAX(v) FROM t GROUP BY grp").unwrap()
        })
    });
}

fn bench_filter(c: &mut Criterion) {
    let db = setup_db(10_000);
    c.bench_function("like_filter_10k_rows", |b| {
        b.iter(|| db.query("SELECT COUNT(*) FROM t WHERE name LIKE '%42%'").unwrap())
    });
}

fn bench_order_limit(c: &mut Criterion) {
    let db = setup_db(10_000);
    c.bench_function("order_by_limit_10k_rows", |b| {
        b.iter(|| db.query("SELECT id FROM t ORDER BY v DESC LIMIT 10").unwrap())
    });
}

fn bench_tokenizer(c: &mut Criterion) {
    let prompt = "Your task is to fill in the missing values in the target entry from the \
                  superhero database. Return a single row with no explanation. The columns \
                  are: superhero_name, full_name, eye_colour, hair_colour, publisher_name."
        .repeat(4);
    c.bench_function("tokenize_1kb_prompt", |b| {
        b.iter(|| count_tokens(black_box(&prompt)))
    });
}

fn bench_prompt_roundtrip(c: &mut Criterion) {
    let prompt = swan_llm::RowCompletionPrompt {
        db: "superhero".into(),
        columns: (0..10).map(|i| format!("col{i}")).collect(),
        key_len: 2,
        value_lists: vec![(
            "col5".into(),
            (0..12).map(|i| format!("Publisher {i}")).collect(),
        )],
        examples: vec![],
        target_key: vec!["Iron Falcon".into(), "Carlos Garcia".into()],
    };
    let text = prompt.render();
    c.bench_function("row_prompt_parse", |b| {
        b.iter(|| swan_llm::RowCompletionPrompt::parse(black_box(&text)).unwrap())
    });
}

criterion_group!(
    benches,
    bench_parser,
    bench_join,
    bench_aggregate,
    bench_filter,
    bench_order_limit,
    bench_tokenizer,
    bench_prompt_roundtrip
);
criterion_main!(benches);
