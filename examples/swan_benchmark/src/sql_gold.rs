//! `sql_gold`: the 120 gold SQL on the original databases, no model.
//! Pure parser / optimizer / executor / columnar / parallel work on
//! tables above `parallel_threshold`; every LLM layer is idle.

use std::sync::Arc;
use std::time::Instant;

use swan::data::{GenConfig, SwanBenchmark};
use swan::sqlengine::{Database, OptimizerConfig};

use crate::metrics::Report;
use crate::stats::{median, Fnv};
use crate::trace::{self, Tracer};
use crate::{measure, sqlx, Config, Rounds};

/// One pass over the 120 questions.
struct Pass {
    wall_s: f64,
    op_ms: Vec<f64>,
    /// One digest per question, in benchmark order.
    digests: Vec<u64>,
    rows_out: u64,
    failed: u64,
}

fn pass(bench: &SwanBenchmark, dbs: &[Database], tracer: Option<&Tracer>) -> Pass {
    let mut p = Pass {
        wall_s: 0.0,
        op_ms: Vec::new(),
        digests: Vec::new(),
        rows_out: 0,
        failed: 0,
    };
    let started = Instant::now();
    for (d, db) in bench.domains.iter().zip(dbs) {
        for q in &d.questions {
            let t = Instant::now();
            let op = p.digests.len() as u64 + 1;
            let result = trace::op(tracer, op, "op.statement", || {
                sqlx::query(db, &q.gold_sql, tracer)
            });
            p.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let mut h = Fnv::default();
            match result {
                Ok(r) => {
                    p.rows_out += r.rows.len() as u64;
                    sqlx::digest(&r, &mut h);
                }
                Err(_) => p.failed += 1,
            }
            p.digests.push(h.0);
        }
    }
    p.wall_s = started.elapsed().as_secs_f64();
    p
}

/// The original databases under another optimizer configuration. A clone
/// shares the tables (and their cached column sets) with the original.
fn with_optimizer(
    bench: &SwanBenchmark,
    f: impl Fn(OptimizerConfig) -> OptimizerConfig,
) -> Vec<Database> {
    bench
        .domains
        .iter()
        .map(|d| {
            let mut db = d.original.clone();
            db.set_optimizer(f(db.optimizer()));
            db
        })
        .collect()
}

pub fn run(cfg: &Config) -> Report {
    let mut report = Report::default();
    let tracer = Arc::new(Tracer::default());
    let tr = cfg.trace.then_some(&*tracer);
    let scale = cfg.scale.unwrap_or(if cfg.quick { 0.02 } else { 1.0 });

    // Set-up is generating the data; there is no model to give knowledge
    // to and the gold answers are the workload itself.
    let mut gen_s = Vec::new();
    let mut bench = None;
    while cfg.set_up_again(gen_s.len(), gen_s.iter().sum()) {
        drop(bench.take());
        let (b, s) = trace::timed(tr, "data.generate", || {
            SwanBenchmark::generate(&GenConfig {
                scale,
                seed: cfg.seed,
            })
        });
        gen_s.push(s);
        bench = Some(b);
    }
    let bench = bench.expect("at least one set-up");
    report.set("setup_s", median(&gen_s));
    report.check(bench.question_count() == 120, || {
        format!(
            "the benchmark has {} questions, expected 120",
            bench.question_count()
        )
    });

    if cfg.trace {
        report.set("data.generate_s", median(&gen_s));
        // First build of every table's column vectors, before any query
        // has cached them.
        let t = Instant::now();
        for d in &bench.domains {
            let catalog = d.original.catalog();
            for name in catalog.table_names() {
                if let Some(table) = catalog.get(&name) {
                    std::hint::black_box(table.column_set());
                }
            }
        }
        report.set("sqlengine.columnar.build_s", t.elapsed().as_secs_f64());
    }
    let setup_spans = tracer.drain();

    // Reference answers from the serial engine; this pass also fills the
    // column caches, which later passes share.
    let serial = with_optimizer(&bench, |o| OptimizerConfig { threads: 1, ..o });
    let reference = pass(&bench, &serial, None);
    let dbs = with_optimizer(&bench, |o| o);

    let Rounds {
        timed,
        traced,
        layers,
        last_spans,
        peak_rss_mb,
    } = measure(cfg, &tracer, &mut report, |traced| {
        pass(&bench, &dbs, traced.then_some(&*tracer))
    });

    let mut extra = Vec::new();
    if cfg.trace {
        let t1 = pass(&bench, &serial, None);
        let rows = pass(
            &bench,
            &with_optimizer(&bench, |o| OptimizerConfig {
                columnar: false,
                ..o
            }),
            None,
        );
        let wall = median(&timed.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        report.set("sqlengine.exec_parallel.t1_wall_s", t1.wall_s);
        report.set("sqlengine.exec_parallel.speedup", t1.wall_s / wall);
        report.set("sqlengine.columnar.row_wall_s", rows.wall_s);
        report.set("sqlengine.columnar.speedup", rows.wall_s / wall);
        extra = vec![t1, rows];
    }

    // Output checks: every pass, at every thread count and on both
    // representations, gives the serial engine's answers.
    let mut matching = 0usize;
    let mut total = 0usize;
    for p in std::iter::once(&reference)
        .chain(&timed)
        .chain(&traced)
        .chain(&extra)
    {
        report.attempted += p.digests.len() as u64;
        report.failed += p.failed;
        total += p.digests.len();
        matching += p
            .digests
            .iter()
            .zip(&reference.digests)
            .filter(|(a, b)| a == b)
            .count();
        report.check(p.digests.len() == 120, || {
            format!("a pass ran {} statements, expected 120", p.digests.len())
        });
    }
    report.check(matching == total, || {
        format!(
            "{} of {total} result digests differ from the threads:1 reference",
            total - matching
        )
    });

    let walls: Vec<f64> = timed.iter().map(|p| p.wall_s).collect();
    let ops: Vec<Vec<f64>> = timed.iter().map(|p| p.op_ms.clone()).collect();
    let ex_pct = 100.0 * matching as f64 / total.max(1) as f64;
    report.note("scale", scale);
    report.note("rounds", timed.len());
    report.note("ex_pct", ex_pct);
    report.note("round_walls_s", crate::stats::join_3dp(&walls));
    if cfg.trace {
        let n = traced.len() as f64;
        sqlx::layer_metrics(&layers, traced.len(), &mut report);
        report.set(
            "sqlengine.exec.rows_out",
            traced.iter().map(|p| p.rows_out as f64).sum::<f64>() / n,
        );
        report.set("core.metrics.ex_pct", ex_pct);
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        report.set_trace_overhead(&traced_walls, &walls);
        crate::write_trace(cfg, &[setup_spans, last_spans].concat(), &mut report);
    } else {
        report.set_timings(&walls, &ops, peak_rss_mb);
    }
    report
}
