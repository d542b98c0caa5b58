//! Running one SELECT: in one call when untraced, and call by call
//! through the engine's public parse → plan → optimize → execute
//! functions when traced, so each gets its own span.

use swan::sqlengine::ast::{SelectBody, Statement};
use swan::sqlengine::exec::{run_select, ExecCtx};
use swan::sqlengine::optimizer::optimize;
use swan::sqlengine::parser::parse_statement;
use swan::sqlengine::plan::plan_from;
use swan::sqlengine::{Database, Error, QueryResult, Result, Value};

use crate::metrics::Report;
use crate::stats::Fnv;
use crate::trace::{Layers, Tracer};

/// `db.query(sql)`; traced, the same work as four spans. `run_select`
/// plans and optimizes again inside itself, so a layer report takes its
/// self time as `run_select − plan_from − optimize`. Only the top-level
/// SELECT core is planned here (subqueries and compound arms are planned
/// inside `run_select`), with no column pruning: the pruning list is
/// private to the executor.
pub fn query(db: &Database, sql: &str, tracer: Option<&Tracer>) -> Result<QueryResult> {
    let Some(t) = tracer else {
        return db.query(sql);
    };
    let stmt = t.scope("sqlengine.parser.parse_statement", || parse_statement(sql))?;
    let Statement::Select(select) = &stmt else {
        return Err(Error::Semantic(
            "the benchmark only queries with SELECT".into(),
        ));
    };
    if let SelectBody::Simple(core) = &select.body {
        let plan = t.scope("sqlengine.plan.plan_from", || {
            plan_from(core.from.as_ref(), core.filter.as_ref())
        })?;
        let config = db.optimizer();
        t.scope("sqlengine.optimizer.optimize", || {
            optimize(plan, db.udfs(), &config, db.catalog(), None)
        })?;
    }
    let ctx = ExecCtx::new(db.catalog(), db.udfs()).with_optimizer(db.optimizer());
    let rel = t.scope("sqlengine.exec.run_select", || {
        run_select(select, &ctx, None)
    })?;
    Ok(QueryResult {
        columns: rel.column_names(),
        rows: rel.rows,
        rows_affected: 0,
    })
}

/// Fold a result set into `h`: column names, then every cell with its
/// storage class, in row order.
pub fn digest(result: &QueryResult, h: &mut Fnv) {
    for c in &result.columns {
        h.write(c.as_bytes());
        h.write(&[0xff]);
    }
    h.write(&(result.rows.len() as u64).to_le_bytes());
    for row in &result.rows {
        for v in row.iter() {
            match v {
                Value::Null => h.write(&[0]),
                Value::Integer(i) => {
                    h.write(&[1]);
                    h.write(&i.to_le_bytes());
                }
                Value::Real(r) => {
                    h.write(&[2]);
                    h.write(&r.to_bits().to_le_bytes());
                }
                Value::Text(s) => {
                    h.write(&[3]);
                    h.write(s.as_bytes());
                    h.write(&[0xff]);
                }
            }
        }
    }
}

/// The SQL layers' share of `rounds` traced rounds, as per-round means.
pub fn layer_metrics(layers: &Layers, rounds: usize, report: &mut Report) {
    let n = rounds.max(1) as f64;
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let (parse, plan, opt, exec) = (
        get("sqlengine.parser.parse_statement"),
        get("sqlengine.plan.plan_from"),
        get("sqlengine.optimizer.optimize"),
        get("sqlengine.exec.run_select"),
    );
    report.set("sqlengine.parser.parse_s", parse.total_s() / n);
    report.set("sqlengine.parser.statements", parse.count as f64 / n);
    report.set("sqlengine.plan.plan_s", plan.total_s() / n);
    report.set("sqlengine.optimizer.optimize_s", opt.total_s() / n);
    report.set(
        "sqlengine.exec.self_s",
        (exec.total_s() - plan.total_s() - opt.total_s()).max(0.0) / n,
    );
}
