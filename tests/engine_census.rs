//! Which optimizer rules the paper's workload engages: one line per SWAN
//! statement at scale 0.05 — the gold statement on the original database,
//! the hybrid statement on the HQDL-materialized database and the UDF
//! statement on the curated database with `llm_map` registered.
//!
//! Every SELECT core of a statement (derived tables, subqueries and
//! compound arms included) is planned with the public `plan_from` and
//! optimized twice per rule: once with the default configuration and
//! once with only that rule off. A rule column counts the cores whose
//! plan the rule changed; `nodes` counts the node kinds of the default
//! plans and `plan` pins each core's whole default plan (join order,
//! conjunct placement, pruning lists) as an FNV-1a-64 digest of its
//! `Debug` text, one per core. The lines are regenerated and diffed against the committed
//! `tests/fixtures/engine_census.tsv`, so a rule that starts or stops
//! engaging on SWAN shows up as a fixture change. A rule whose column is
//! zero everywhere engages on no SWAN statement.
//!
//! Regenerate the fixture after an intended change with
//! `BLESS=1 cargo test --test engine_census`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use swan::prelude::*;
use swan::sqlengine::ast::{
    Expr, OrderItem, SelectBody, SelectCore, SelectItem, SelectStmt, Statement, TableRef,
};
use swan::sqlengine::optimizer::{expr_columns, optimize, NeededCol};
use swan::sqlengine::parser::parse_statement;
use swan::sqlengine::plan::{plan_from, Plan};

const SCALE: f64 = 0.05;
const FIXTURE: &str = "tests/fixtures/engine_census.tsv";

/// Turns one rule off.
type SwitchOff = fn(&mut OptimizerConfig);

/// Each rule's switch, by the name the fixture's columns use.
const RULES: [(&str, SwitchOff); 4] = [
    ("reorder_joins", |c| c.reorder_joins = false),
    ("order_expensive_last", |c| c.order_expensive_last = false),
    ("index_scan", |c| c.index_scan = false),
    ("prune_columns", |c| c.prune_columns = false),
];

/// A SELECT core with the ORDER BY the executor plans it under: a simple
/// body carries its statement's, a compound arm none.
type Core = (SelectCore, Vec<OrderItem>);

/// Every SELECT core of `stmt`: its body's, then those of the derived
/// tables and subqueries it contains, depth first.
fn cores(stmt: &SelectStmt, out: &mut Vec<Core>) {
    fn body(b: &SelectBody, order_by: &[OrderItem], out: &mut Vec<Core>) {
        match b {
            SelectBody::Simple(core) => {
                out.push((SelectCore::clone(core), order_by.to_vec()));
                core_children(core, out);
            }
            SelectBody::Compound { left, right, .. } => {
                body(left, &[], out);
                body(right, &[], out);
            }
        }
    }
    body(&stmt.body, &stmt.order_by, out);
    for o in &stmt.order_by {
        expr_children(&o.expr, out);
    }
}

fn core_children(core: &SelectCore, out: &mut Vec<Core>) {
    fn from(t: &TableRef, out: &mut Vec<Core>) {
        match t {
            TableRef::Table { .. } => {}
            TableRef::Subquery { query, .. } => cores(query, out),
            TableRef::Join {
                left, right, on, ..
            } => {
                from(left, out);
                from(right, out);
                if let Some(on) = on {
                    expr_children(on, out);
                }
            }
        }
    }
    if let Some(t) = &core.from {
        from(t, out);
    }
    for item in &core.projection {
        if let SelectItem::Expr { expr, .. } = item {
            expr_children(expr, out);
        }
    }
    for e in core.filter.iter().chain(&core.group_by).chain(&core.having) {
        expr_children(e, out);
    }
}

/// The cores of the subqueries in `e` (`walk` stops at each subquery).
fn expr_children(e: &Expr, out: &mut Vec<Core>) {
    let mut subqueries: Vec<Arc<SelectStmt>> = Vec::new();
    e.walk(&mut |x| match x {
        Expr::ScalarSubquery(q)
        | Expr::Exists { query: q, .. }
        | Expr::InSubquery { query: q, .. } => subqueries.push(q.clone()),
        _ => {}
    });
    for q in subqueries {
        cores(&q, out);
    }
}

/// What the executor passes the optimizer as `needed`: every column the
/// core reads above its FROM, or `None` (keep everything) on a wildcard
/// or a subquery.
fn needed_columns(core: &SelectCore, order_by: &[OrderItem]) -> Option<Vec<NeededCol>> {
    let mut out = Vec::new();
    for item in &core.projection {
        match item {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => return None,
            SelectItem::Expr { expr, .. } => out.extend(expr_columns(expr)?),
        }
    }
    for e in core
        .group_by
        .iter()
        .chain(&core.having)
        .chain(order_by.iter().map(|o| &o.expr))
    {
        out.extend(expr_columns(e)?);
    }
    Some(out)
}

fn count_nodes(plan: &Plan, kinds: &mut BTreeMap<&'static str, usize>) {
    let (kind, children): (&'static str, Vec<&Plan>) = match plan {
        Plan::Scan { .. } => ("Scan", vec![]),
        Plan::IndexScan { .. } => ("IndexScan", vec![]),
        Plan::Derived { .. } => ("Derived", vec![]),
        Plan::Join { left, right, .. } => ("Join", vec![left, right]),
        Plan::Filter { input, .. } => ("Filter", vec![input]),
        Plan::Permute { input, .. } => ("Permute", vec![input]),
        Plan::Empty => ("Empty", vec![]),
    };
    *kinds.entry(kind).or_default() += 1;
    for c in children {
        count_nodes(c, kinds);
    }
}

/// FNV-1a-64 of a plan's `Debug` text, in hex.
fn plan_digest(plan: &Plan) -> String {
    let digest = format!("{plan:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    format!("{digest:016x}")
}

/// One fixture line for `sql` run on `db`.
fn census_line(pathway: &str, id: &str, sql: &str, db: &Database) -> String {
    let Statement::Select(stmt) =
        parse_statement(sql).unwrap_or_else(|e| panic!("{id}: {e}\n{sql}"))
    else {
        panic!("{id}: not a SELECT\n{sql}")
    };
    let mut all = Vec::new();
    cores(&stmt, &mut all);
    let base = db.optimizer();
    let plan = |core: &SelectCore, order_by: &[OrderItem], config: &OptimizerConfig| {
        let unoptimized = plan_from(core.from.as_ref(), core.filter.as_ref())
            .unwrap_or_else(|e| panic!("{id}: {e}"));
        let needed = needed_columns(core, order_by);
        optimize(
            unoptimized,
            db.udfs(),
            config,
            db.catalog(),
            needed.as_deref(),
        )
        .unwrap_or_else(|e| panic!("{id}: {e}"))
    };
    let mut engaged = [0usize; RULES.len()];
    let mut kinds = BTreeMap::new();
    let mut digests = Vec::with_capacity(all.len());
    for (core, order_by) in &all {
        let default = plan(core, order_by, &base);
        for (n, (_, switch_off)) in engaged.iter_mut().zip(&RULES) {
            let mut config = base;
            switch_off(&mut config);
            if plan(core, order_by, &config) != default {
                *n += 1;
            }
        }
        count_nodes(&default, &mut kinds);
        digests.push(plan_digest(&default));
    }
    let nodes: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}:{n}")).collect();
    let rules: Vec<String> = engaged.iter().map(usize::to_string).collect();
    format!(
        "{pathway}\t{id}\t{}\t{}\t{}\t{}",
        all.len(),
        rules.join("\t"),
        nodes.join(" "),
        digests.join(" ")
    )
}

fn census() -> String {
    let benchmark = SwanBenchmark::generate(&GenConfig::with_scale(SCALE));
    let kb = build_knowledge(&benchmark.domains);
    let rules: Vec<&str> = RULES.iter().map(|(name, _)| *name).collect();
    let mut out = format!(
        "pathway\tquestion\tcores\t{}\tnodes\tplan\n",
        rules.join("\t")
    );
    for d in &benchmark.domains {
        let model = SimulatedModel::new(ModelKind::Gpt4Turbo, kb.clone());
        let hqdl = materialize(
            d,
            &model,
            &HqdlConfig {
                shots: 5,
                workers: 1,
            },
        )
        .database;
        let udf_model = Arc::new(SimulatedModel::new(ModelKind::Gpt35Turbo, kb.clone()));
        let udf = UdfRunner::new(d, udf_model, UdfConfig::default());
        for q in &d.questions {
            for (pathway, sql, db) in [
                ("gold", &q.gold_sql, &d.original),
                ("hybrid", &q.hybrid_sql, &hqdl),
                ("udf", &q.udf_sql, udf.database()),
            ] {
                out.push_str(&census_line(pathway, &q.id, sql, db));
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn swan_engine_census_matches_the_fixture() {
    let got = census();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("writing {FIXTURE}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {FIXTURE}: {e}"));
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "{FIXTURE} line {}: census moved (BLESS=1 regenerates it)",
            n + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{FIXTURE}: line count moved"
    );
}
