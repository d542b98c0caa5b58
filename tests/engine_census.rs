//! Which optimizer rules the paper's workload engages: one line per SWAN
//! statement at scale 0.05 — the gold statement on the original database,
//! the hybrid statement on the HQDL-materialized database and the UDF
//! statement on the curated database with `llm_map` registered.
//!
//! Every statement — the line's own, and each derived table and subquery
//! in it — is planned with the public `plan_select`, once with the
//! default configuration and once per rule with only that rule off. A
//! rule column counts the SELECT cores whose FROM/WHERE tree the rule
//! changed; `nodes` counts the node kinds of the default trees and `plan`
//! pins each core's whole default tree (join order, conjunct placement,
//! pruning lists) as an FNV-1a-64 digest of its `Debug` text, one per
//! core; `stages` counts the nodes the planner puts above the trees
//! (projection, aggregation, DISTINCT, compounds, ORDER BY, LIMIT). The
//! lines are regenerated and diffed against the committed
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
    Expr, SelectBody, SelectCore, SelectItem, SelectStmt, Statement, TableRef,
};
use swan::sqlengine::parser::parse_statement;
use swan::sqlengine::plan::{plan_select, Plan};

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

/// Node kinds by name, with their counts.
type Kinds = BTreeMap<&'static str, usize>;

/// What one configuration plans for a statement: the FROM/WHERE tree of
/// every SELECT core, in order, and the stage kinds above them.
#[derive(Default)]
struct Planned {
    trees: Vec<Plan>,
    stages: Kinds,
}

/// Plan `stmt` and every statement it contains through the public
/// planner: the statement's cores in written order (compound arms left to
/// right), each followed by the derived tables and subqueries it
/// contains, depth first, then those of the statement's ORDER BY.
fn plan_all(stmt: &SelectStmt, db: &Database, config: &OptimizerConfig, out: &mut Planned) {
    let plan = plan_select(stmt, db.udfs(), config, db.catalog())
        .unwrap_or_else(|e| panic!("{e}\n{stmt:?}"));
    let mut trees = Vec::new();
    split(&plan, &mut trees, &mut out.stages);
    let mut trees = trees.into_iter();
    fn arms(
        b: &SelectBody,
        trees: &mut impl Iterator<Item = Plan>,
        db: &Database,
        config: &OptimizerConfig,
        out: &mut Planned,
    ) {
        match b {
            SelectBody::Simple(core) => {
                out.trees.push(trees.next().expect("one tree per core"));
                core_children(core, db, config, out);
            }
            SelectBody::Compound { left, right, .. } => {
                arms(left, trees, db, config, out);
                arms(right, trees, db, config, out);
            }
        }
    }
    arms(&stmt.body, &mut trees, db, config, out);
    for o in &stmt.order_by {
        expr_children(&o.expr, db, config, out);
    }
}

/// The stages of `plan` into `stages`, its FROM/WHERE trees into `trees`.
fn split(plan: &Plan, trees: &mut Vec<Plan>, stages: &mut Kinds) {
    let (kind, inputs): (&'static str, Vec<&Plan>) = match plan {
        Plan::Project { input, .. } => ("Project", vec![input]),
        Plan::Aggregate { input, .. } => ("Aggregate", vec![input]),
        Plan::Distinct { input } => ("Distinct", vec![input]),
        Plan::Sort { input, .. } => ("Sort", vec![input]),
        Plan::Limit { input, .. } => ("Limit", vec![input]),
        Plan::Compound { left, right, .. } => ("Compound", vec![left, right]),
        tree => return trees.push(tree.clone()),
    };
    *stages.entry(kind).or_default() += 1;
    for input in inputs {
        split(input, trees, stages);
    }
}

fn core_children(core: &SelectCore, db: &Database, config: &OptimizerConfig, out: &mut Planned) {
    fn from(t: &TableRef, db: &Database, config: &OptimizerConfig, out: &mut Planned) {
        match t {
            TableRef::Table { .. } => {}
            TableRef::Subquery { query, .. } => plan_all(query, db, config, out),
            TableRef::Join {
                left, right, on, ..
            } => {
                from(left, db, config, out);
                from(right, db, config, out);
                if let Some(on) = on {
                    expr_children(on, db, config, out);
                }
            }
        }
    }
    if let Some(t) = &core.from {
        from(t, db, config, out);
    }
    for item in &core.projection {
        if let SelectItem::Expr { expr, .. } = item {
            expr_children(expr, db, config, out);
        }
    }
    for e in core.filter.iter().chain(&core.group_by).chain(&core.having) {
        expr_children(e, db, config, out);
    }
}

/// Plan the subqueries in `e` (`walk` stops at each subquery).
fn expr_children(e: &Expr, db: &Database, config: &OptimizerConfig, out: &mut Planned) {
    let mut subqueries: Vec<Arc<SelectStmt>> = Vec::new();
    e.walk(&mut |x| match x {
        Expr::ScalarSubquery(q)
        | Expr::Exists { query: q, .. }
        | Expr::InSubquery { query: q, .. } => subqueries.push(q.clone()),
        _ => {}
    });
    for q in subqueries {
        plan_all(&q, db, config, out);
    }
}

fn count_nodes(plan: &Plan, kinds: &mut Kinds) {
    let (kind, children): (&'static str, Vec<&Plan>) = match plan {
        Plan::Scan { .. } => ("Scan", vec![]),
        Plan::IndexScan { .. } => ("IndexScan", vec![]),
        Plan::Derived { .. } => ("Derived", vec![]),
        Plan::Join { left, right, .. } => ("Join", vec![left, right]),
        Plan::Filter { input, .. } => ("Filter", vec![input]),
        Plan::Empty => ("Empty", vec![]),
        stage => panic!("a stage inside a FROM/WHERE tree: {stage:?}"),
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
    let base = db.optimizer();
    let mut default = Planned::default();
    plan_all(&stmt, db, &base, &mut default);
    let mut engaged = [0usize; RULES.len()];
    for (n, (_, switch_off)) in engaged.iter_mut().zip(&RULES) {
        let mut config = base;
        switch_off(&mut config);
        let mut off = Planned::default();
        plan_all(&stmt, db, &config, &mut off);
        *n = default.trees.iter().zip(&off.trees).filter(|(a, b)| a != b).count();
    }
    let mut kinds = BTreeMap::new();
    for tree in &default.trees {
        count_nodes(tree, &mut kinds);
    }
    let counts = |kinds: &Kinds| -> String {
        let kinds: Vec<String> = kinds.iter().map(|(k, n)| format!("{k}:{n}")).collect();
        kinds.join(" ")
    };
    let rules: Vec<String> = engaged.iter().map(usize::to_string).collect();
    let digests: Vec<String> = default.trees.iter().map(plan_digest).collect();
    format!(
        "{pathway}\t{id}\t{}\t{}\t{}\t{}\t{}",
        default.trees.len(),
        rules.join("\t"),
        counts(&kinds),
        digests.join(" "),
        counts(&default.stages)
    )
}

fn census() -> String {
    let benchmark = SwanBenchmark::generate(&GenConfig::with_scale(SCALE));
    let kb = build_knowledge(&benchmark.domains);
    let rules: Vec<&str> = RULES.iter().map(|(name, _)| *name).collect();
    let mut out = format!(
        "pathway\tquestion\tcores\t{}\tnodes\tplan\tstages\n",
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
