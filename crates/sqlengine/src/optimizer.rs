//! Rule-based plan optimizer.
//!
//! Three rules, the first two of which matter most for hybrid queries:
//!
//! 1. **Statistics-driven join reordering** — chains of INNER/CROSS joins
//!    are flattened and greedily re-ordered by catalog row counts, smallest
//!    (and connected) relations first, so intermediate results stay small.
//!    The stages above bind columns by name, so the reordered tree's
//!    column order is free. The same pass places every WHERE conjunct: one
//!    leaf's conjuncts filter that leaf (a LEFT join's preserved side
//!    included) and shrink its row estimate, and conjuncts over several
//!    leaves become join conditions. Comma-joins benefit doubly: their
//!    WHERE equi-conjuncts upgrade nested-loop cross products to hash
//!    joins.
//! 2. **Expensive-predicate ordering** — within a filter, conjuncts that
//!    call expensive UDFs (LLM functions) are evaluated *last*, so cheap
//!    database predicates prune rows before any LLM call happens. This is
//!    the §4.2 optimization ("pushing down predicates to avoid generating
//!    unnecessary data entries").
//! 3. **Primary-key point probes** — a filter that pins every column of a
//!    table's primary key to a literal reads its one candidate row through
//!    a [`Plan::IndexScan`] probe instead of a full scan.
//!
//! The plan describes the query, never the execution mode: whether
//! expensive calls are batched ([`OptimizerConfig::batch_expensive_udfs`])
//! is decided by each operator of [`crate::exec`], the filter included,
//! over its own call sites.

use crate::ast::{BinaryOp, Expr};
use crate::error::Result;
use crate::functions::UdfRegistry;
use crate::plan::{conjoin, split_conjuncts, Plan, PlanJoinKind, RelSchema, SchemaProvider};
use crate::value::Value;

/// Optimizer configuration; rules can be toggled for ablation benchmarks.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    pub order_expensive_last: bool,
    /// Reorder INNER/CROSS join chains by catalog row-count statistics and
    /// place each WHERE conjunct at the lowest join or leaf that covers
    /// it. `false` moves no conjunct and no join.
    pub reorder_joins: bool,
    /// Prune join output columns to what the SELECT level actually reads
    /// (a `COUNT(*)` join then emits zero-width shared rows).
    pub prune_columns: bool,
    /// Evaluate expensive UDF calls vectorized: each operator — WHERE,
    /// projection / sort keys, GROUP BY, HAVING, aggregate output, join
    /// keys and residuals — issues one
    /// [`ScalarUdf::invoke_batch`](crate::functions::ScalarUdf) per call
    /// site over the distinct argument tuples of its input batch that the
    /// statement has not asked yet instead of one call per row, and a
    /// filter runs its cheap conjuncts before its expensive ones. Purely an execution mode: [`optimize`] returns
    /// the same plan either way, and `false` is the per-row reference the
    /// differential suites compare against.
    pub batch_expensive_udfs: bool,
    /// Ignored: operator loops run on the statement thread. Kept only so
    /// callers that still set it compile; nothing in the engine reads it.
    pub threads: usize,
    /// Use the columnar execution path ([`crate::columnar`]): scans serve
    /// cached typed column vectors, filters over base tables run as
    /// vectorized three-valued-logic kernels, GROUP BY keys, hash-join
    /// keys and `COUNT`/`SUM`/`AVG`/`MIN`/`MAX` read columns directly,
    /// and rows materialize lazily at the engine boundary. `false`
    /// reproduces the row-at-a-time engine bit-for-bit (the differential
    /// oracle the `slt` and `config_diff` harnesses compare against).
    /// On by default.
    pub columnar: bool,
    /// Rewrite `Filter(Scan)` to `Filter(IndexScan)` when the predicate
    /// pins every primary-key column to a literal: `WHERE pk = ?` becomes
    /// an O(1) hash probe instead of a table scan (UPDATE and DELETE
    /// locate their rows the same way). The full predicate stays in the
    /// filter above, so the rewrite never changes results.
    ///
    /// The same switch gates the executor's statement-scoped hash index
    /// for subqueries ([`crate::exec::KeyedAggregate`]): an
    /// equality-correlated scalar aggregate — one ungrouped aggregate
    /// expression over one base table whose WHERE is `inner = outer`
    /// equalities plus local conjuncts — is grouped once by its
    /// correlation keys and probed per outer row instead of re-scanning
    /// the table per row. Every other correlated shape (`EXISTS`/`IN`
    /// consumers, `GROUP BY`/`HAVING`/`DISTINCT`/`ORDER BY`/`LIMIT`
    /// inside, joins or derived tables in FROM, nested subqueries,
    /// expensive UDFs, non-equality correlation) and any failed build keep
    /// the per-row path.
    ///
    /// "Probe instead of scan": on by default; `false` is the scan-only,
    /// per-row reference the `slt` and `config_diff` harnesses compare
    /// against.
    pub index_scan: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            order_expensive_last: true,
            reorder_joins: true,
            prune_columns: true,
            batch_expensive_udfs: true,
            threads: 0,
            columnar: true,
            index_scan: true,
        }
    }
}

/// A column the SELECT level reads: `(qualifier, name)`, matched
/// case-insensitively. `None` qualifier matches any column of that name.
pub type NeededCol = (Option<String>, String);

/// Optimize a plan. `provider` resolves table names to column lists (for
/// schema reasoning) and row counts (for join ordering). `needed` lists
/// the columns the enclosing SELECT reads from the plan's output — `None`
/// means "everything" (wildcards, subqueries in the projection) and
/// disables column pruning.
pub fn optimize(
    plan: Plan,
    udfs: &UdfRegistry,
    config: &OptimizerConfig,
    provider: &dyn SchemaProvider,
    needed: Option<&[NeededCol]>,
) -> Result<Plan> {
    let plan = if config.reorder_joins { reorder_joins(plan, provider)? } else { plan };
    let plan = if config.order_expensive_last { order_filters(plan, udfs) } else { plan };
    let plan = if config.index_scan { index_scans(plan, provider) } else { plan };
    match (config.prune_columns, needed) {
        (true, Some(needed)) => prune_columns(plan, Some(needed.to_vec()), provider),
        _ => Ok(plan),
    }
}

// ---- rule 1: statistics-driven join reordering --------------------------

fn wrap_filter(plan: Plan, conjuncts: Vec<Expr>) -> Plan {
    match conjoin(conjuncts) {
        Some(pred) => Plan::Filter { input: Box::new(plan), predicate: pred },
        None => plan,
    }
}

pub(crate) fn expr_has_subquery(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if matches!(
            x,
            Expr::ScalarSubquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. }
        ) {
            found = true;
        }
    });
    found
}

/// True iff no column reference in `expr` is *ambiguous* against `schema`
/// (unknown names are fine — they may resolve in an outer scope). A
/// predicate moved below a join must not let an ambiguous unqualified name
/// silently bind to one side.
fn unambiguous_in(expr: &Expr, schema: &RelSchema) -> bool {
    let mut ok = true;
    expr.walk(&mut |e| {
        if let Expr::Column { table, name } = e {
            if schema.resolve(table.as_deref(), name).is_err() {
                ok = false;
            }
        }
    });
    ok
}

/// Row-count estimate for leaves whose cardinality the catalog cannot
/// answer (derived tables, opaque subtrees). Large enough to sort after
/// every known table, small enough to leave arithmetic headroom.
const UNKNOWN_ROWS: f64 = 1e15;

/// Per-conjunct selectivity guess for filtered scans. The exact value is
/// uncritical: it only has to rank a filtered big table below the raw one.
const FILTER_SELECTIVITY: f64 = 0.3;

fn reorder_joins(plan: Plan, provider: &dyn SchemaProvider) -> Result<Plan> {
    match plan {
        Plan::Filter { input, predicate } => {
            reorder_filtered(*input, split_conjuncts(&predicate), provider)
        }
        join @ Plan::Join { .. } => reorder_chain(join, Vec::new(), provider),
        other => Ok(other),
    }
}

/// [`reorder_joins`] of `plan` under a filter of `pool`'s conjuncts: a join
/// chain takes them into its pool, anything else keeps them on top.
fn reorder_filtered(plan: Plan, pool: Vec<Expr>, provider: &dyn SchemaProvider) -> Result<Plan> {
    match plan {
        join @ Plan::Join { .. } => reorder_chain(join, pool, provider),
        other => Ok(wrap_filter(reorder_joins(other, provider)?, pool)),
    }
}

/// Flatten a chain of INNER/CROSS joins (plus any pooled filter conjuncts)
/// and greedily rebuild it smallest-and-connected-first. Each conjunct
/// lands on the one leaf it covers or at the lowest join that covers it.
fn reorder_chain(
    join: Plan,
    filter_pool: Vec<Expr>,
    provider: &dyn SchemaProvider,
) -> Result<Plan> {
    // Kept around in case the chain turns out not to be safely poolable.
    let original = join.clone();

    let mut leaves = Vec::new();
    let mut on_pool = Vec::new();
    flatten_chain(join, &mut leaves, &mut on_pool);

    let schemas: Vec<RelSchema> = leaves
        .iter()
        .map(|l| l.schema(provider))
        .collect::<Result<_>>()?;
    let full_schema = schemas
        .iter()
        .fold(RelSchema::default(), |acc, s| acc.join(s));

    // Filter conjuncts were always evaluated against the full row: an
    // ambiguous one must keep raising its runtime ambiguity error from a
    // filter on top rather than silently binding to one leaf. Subquery
    // conjuncts never move into join conditions either.
    let (mut stay, movable): (Vec<Expr>, Vec<Expr>) = filter_pool
        .into_iter()
        .partition(|c| expr_has_subquery(c) || !unambiguous_in(c, &full_schema));

    // An ON conjunct can be unambiguous at its own join level yet
    // ambiguous against the whole chain (another leaf reusing the name);
    // re-attaching it anywhere else would change which column it binds to.
    // Such chains are left in their written shape.
    if on_pool.iter().any(|c| !unambiguous_in(c, &full_schema)) {
        let j = reorder_inside_join(original, movable, provider)?;
        return Ok(wrap_filter(j, stay));
    }

    let (subq_preds, mut preds): (Vec<Expr>, Vec<Expr>) =
        on_pool.into_iter().partition(expr_has_subquery);
    stay.extend(subq_preds);
    // A filter conjunct one leaf covers filters that leaf (the first, if
    // several do), so the leaf's estimate below counts it; the rest join
    // leaves.
    let mut leaf_pools = vec![Vec::new(); leaves.len()];
    for c in movable {
        match schemas.iter().position(|s| s.covers(&c)) {
            Some(leaf) => leaf_pools[leaf].push(c),
            None => preds.push(c),
        }
    }

    // Recursively reorder inside each leaf (e.g. an inner chain under a
    // LEFT join subtree) and filter it by its own conjuncts.
    let leaves: Vec<Plan> = leaves
        .into_iter()
        .zip(leaf_pools)
        .map(|(leaf, pool)| match leaf {
            j @ Plan::Join { .. } => reorder_inside_join(j, pool, provider),
            other => reorder_filtered(other, pool, provider),
        })
        .collect::<Result<_>>()?;
    let estimates: Vec<f64> = leaves.iter().map(|l| estimate_rows(l, provider)).collect();

    // Only chains of three or more relations gain from reordering: for a
    // two-way join the executor already picks the smaller build side at
    // run time. And without at least one *genuinely known* cardinality (a
    // scan the catalog can count — a filtered derived table's discounted
    // sentinel does not count), the written order stands.
    let any_known = leaves.iter().any(|l| has_known_cardinality(l, provider));
    let order: Vec<usize> = if leaves.len() >= 3 && any_known {
        greedy_order(&schemas, &estimates, &preds)
    } else {
        (0..leaves.len()).collect()
    };

    // Rebuild left-deep in the chosen order, attaching each pooled
    // conjunct at the first join where its columns are all available.
    let mut iter = order.iter();
    let &first = iter.next().expect("chain has at least one leaf");
    let mut current_schema = schemas[first].clone();
    let mut indexed: Vec<(usize, Plan)> = leaves.into_iter().enumerate().collect();
    let take = |indexed: &mut Vec<(usize, Plan)>, want: usize| -> Plan {
        let pos = indexed.iter().position(|(i, _)| *i == want).expect("leaf present");
        indexed.remove(pos).1
    };
    let first_preds = drain_covered(&mut preds, &current_schema);
    let mut tree = wrap_filter(take(&mut indexed, first), first_preds);

    for &next in iter {
        let leaf_schema = &schemas[next];
        // Conjuncts answerable by the new leaf alone filter it before the
        // join; the rest of the newly-covered conjuncts become the ON.
        let leaf_only = drain_covered(&mut preds, leaf_schema);
        let leaf_plan = wrap_filter(take(&mut indexed, next), leaf_only);
        let combined = current_schema.join(leaf_schema);
        let on_parts = drain_covered(&mut preds, &combined);
        let kind = if on_parts.is_empty() { PlanJoinKind::Cross } else { PlanJoinKind::Inner };
        tree = Plan::Join {
            left: Box::new(tree),
            right: Box::new(leaf_plan),
            kind,
            on: conjoin(on_parts),
            emit: None,
        };
        current_schema = combined;
    }

    // Anything not attachable (correlated/outer references), ambiguous
    // names, and subquery predicates stay in a filter on top.
    preds.extend(stay);
    Ok(wrap_filter(tree, preds))
}

/// Recurse into a join subtree that is itself a chain boundary (a LEFT
/// join, or a chain kept in its written shape): reorder each side on its
/// own and leave the join alone. A `pool` conjunct sinks into the side that
/// covers it, except a LEFT join's null-supplying side (filtering before
/// the padding would change results); the rest stay in a filter above.
fn reorder_inside_join(
    plan: Plan,
    pool: Vec<Expr>,
    provider: &dyn SchemaProvider,
) -> Result<Plan> {
    let Plan::Join { left, right, kind, on, emit } = plan else {
        return reorder_filtered(plan, pool, provider);
    };
    let (left_schema, right_schema) = (left.schema(provider)?, right.schema(provider)?);
    let (mut to_left, mut to_right, mut stay) = (Vec::new(), Vec::new(), Vec::new());
    for c in pool {
        if left_schema.covers(&c) {
            to_left.push(c);
        } else if kind != PlanJoinKind::Left && right_schema.covers(&c) {
            to_right.push(c);
        } else {
            stay.push(c);
        }
    }
    let joined = Plan::Join {
        left: Box::new(reorder_filtered(*left, to_left, provider)?),
        right: Box::new(reorder_filtered(*right, to_right, provider)?),
        kind,
        on,
        emit,
    };
    Ok(wrap_filter(joined, stay))
}

/// Collect the maximal INNER/CROSS chain rooted at `plan` into `leaves`,
/// pooling every ON conjunct. LEFT joins are chain boundaries (reordering
/// across them changes NULL-padding semantics) and stay as leaves.
fn flatten_chain(plan: Plan, leaves: &mut Vec<Plan>, pool: &mut Vec<Expr>) {
    match plan {
        Plan::Join { left, right, kind, on, emit: None }
            if kind == PlanJoinKind::Inner || kind == PlanJoinKind::Cross =>
        {
            flatten_chain(*left, leaves, pool);
            flatten_chain(*right, leaves, pool);
            if let Some(on) = on {
                pool.extend(split_conjuncts(&on));
            }
        }
        other => leaves.push(other),
    }
}

/// Does this leaf bottom out in a table whose row count the catalog can
/// actually answer? (Filters only scale an estimate; they don't make an
/// unknown one known.)
fn has_known_cardinality(leaf: &Plan, provider: &dyn SchemaProvider) -> bool {
    match leaf {
        Plan::Scan { table, .. } => provider.table_rows(table).is_some(),
        Plan::Filter { input, .. } => has_known_cardinality(input, provider),
        _ => false,
    }
}

/// Cardinality estimate for a chain leaf.
fn estimate_rows(leaf: &Plan, provider: &dyn SchemaProvider) -> f64 {
    match leaf {
        Plan::Scan { table, .. } => provider
            .table_rows(table)
            .map(|r| r as f64)
            .unwrap_or(UNKNOWN_ROWS),
        Plan::Filter { input, predicate } => {
            let conjuncts = split_conjuncts(predicate).len() as i32;
            estimate_rows(input, provider) * FILTER_SELECTIVITY.powi(conjuncts)
        }
        _ => UNKNOWN_ROWS,
    }
}

/// Greedy ordering: start from the smallest leaf, then repeatedly add the
/// smallest leaf *connected* to the current set by a pooled predicate
/// (falling back to the overall smallest when nothing connects). Ties keep
/// written order, so the rewrite is a no-op on equal-size chains.
fn greedy_order(schemas: &[RelSchema], estimates: &[f64], preds: &[Expr]) -> Vec<usize> {
    let n = schemas.len();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);

    let start = *remaining
        .iter()
        .min_by(|&&a, &&b| estimates[a].total_cmp(&estimates[b]))
        .expect("non-empty chain");
    remaining.retain(|&i| i != start);
    order.push(start);
    let mut current = schemas[start].clone();

    while !remaining.is_empty() {
        let connected: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| {
                let combined = current.join(&schemas[i]);
                preds
                    .iter()
                    .any(|p| combined.covers(p) && !current.covers(p) && !schemas[i].covers(p))
            })
            .collect();
        let pick_from: &[usize] = if connected.is_empty() { &remaining } else { &connected };
        let pick = *pick_from
            .iter()
            .min_by(|&&a, &&b| estimates[a].total_cmp(&estimates[b]))
            .expect("non-empty candidate set");
        remaining.retain(|&i| i != pick);
        current = current.join(&schemas[pick]);
        order.push(pick);
    }
    order
}

/// Remove and return every conjunct fully covered by `schema`.
fn drain_covered(preds: &mut Vec<Expr>, schema: &RelSchema) -> Vec<Expr> {
    let mut covered = Vec::new();
    let mut rest = Vec::new();
    for p in preds.drain(..) {
        if schema.covers(&p) {
            covered.push(p);
        } else {
            rest.push(p);
        }
    }
    *preds = rest;
    covered
}

// ---- column pruning ------------------------------------------------------

/// Collect the columns an expression reads; `None` when the expression
/// contains a subquery (whose correlated references are invisible to
/// `Expr::walk`), which forces "keep everything".
pub fn expr_columns(e: &Expr) -> Option<Vec<NeededCol>> {
    if expr_has_subquery(e) {
        return None;
    }
    let mut out = Vec::new();
    e.walk(&mut |x| {
        if let Expr::Column { table, name } = x {
            out.push((table.clone(), name.clone()));
        }
    });
    Some(out)
}

fn col_needed(qualifier: Option<&str>, name: &str, needed: &[NeededCol]) -> bool {
    needed.iter().any(|(nq, nn)| {
        name.eq_ignore_ascii_case(nn)
            && match (qualifier, nq.as_deref()) {
                (_, None) | (None, _) => true,
                (Some(q), Some(n)) => q.eq_ignore_ascii_case(n),
            }
    })
}

/// Top-down column pruning: each join materializes only the columns the
/// operators above it read. `needed == None` keeps everything below this
/// point.
fn prune_columns(
    plan: Plan,
    needed: Option<Vec<NeededCol>>,
    provider: &dyn SchemaProvider,
) -> Result<Plan> {
    match plan {
        Plan::Filter { input, predicate } => {
            let needed = match (needed, expr_columns(&predicate)) {
                (Some(mut n), Some(mut cs)) => {
                    n.append(&mut cs);
                    Some(n)
                }
                _ => None,
            };
            Ok(Plan::Filter {
                input: Box::new(prune_columns(*input, needed, provider)?),
                predicate,
            })
        }
        Plan::Join { left, right, kind, on, emit: None } => {
            let Some(needed) = needed else {
                // Keep everything; still recurse so nested prunable joins
                // under an unprunable one are left intact (needed = None).
                return Ok(Plan::Join {
                    left: Box::new(prune_columns(*left, None, provider)?),
                    right: Box::new(prune_columns(*right, None, provider)?),
                    kind,
                    on,
                    emit: None,
                });
            };
            // The children must still provide the join keys; the join's own
            // output only carries what the operators above read.
            let on_cols = match on.as_ref().map(expr_columns) {
                Some(None) => None, // subquery in ON: give up below here
                Some(Some(cs)) => Some(cs),
                None => Some(Vec::new()),
            };
            let child_needed = on_cols.map(|mut cs| {
                cs.extend(needed.iter().cloned());
                cs
            });
            // Prune the children *first*: the emit indices below must be
            // computed against the children's post-prune output schemas,
            // or they would go stale the moment a nested join narrows.
            let left = prune_columns(*left, child_needed.clone(), provider)?;
            let right = prune_columns(*right, child_needed, provider)?;
            let full = left.schema(provider)?.join(&right.schema(provider)?);
            let emit: Vec<usize> = full
                .cols
                .iter()
                .enumerate()
                .filter(|(_, c)| col_needed(c.qualifier.as_deref(), &c.name, &needed))
                .map(|(i, _)| i)
                .collect();
            let emit = if emit.len() == full.len() { None } else { Some(emit) };
            Ok(Plan::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
                emit,
            })
        }
        other => Ok(other),
    }
}

// ---- rule 2: expensive predicates last ---------------------------------

fn order_filters(plan: Plan, udfs: &UdfRegistry) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => {
            let input = Box::new(order_filters(*input, udfs));
            let mut parts = split_conjuncts(&predicate);
            // Stable partition: cheap predicates first, expensive last,
            // preserving the relative order inside each class.
            parts.sort_by_key(|p| expr_cost(p, udfs));
            Plan::Filter { input, predicate: conjoin(parts).expect("non-empty") }
        }
        Plan::Join { left, right, kind, on, emit } => Plan::Join {
            left: Box::new(order_filters(*left, udfs)),
            right: Box::new(order_filters(*right, udfs)),
            kind,
            on,
            emit,
        },
        other => other,
    }
}

/// Cost class of a predicate: 0 = cheap, 1 = contains a subquery,
/// 2 = calls an expensive UDF.
pub fn expr_cost(e: &Expr, udfs: &UdfRegistry) -> u8 {
    let mut cost = 0u8;
    e.walk(&mut |x| match x {
        Expr::Function { name, .. } if udfs.is_expensive(name) => cost = cost.max(2),
        Expr::ScalarSubquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. } => {
            cost = cost.max(1)
        }
        _ => {}
    });
    cost
}

// ---- rule 3: primary-key point probes -----------------------------------

/// Rewrite `Filter(pred, Scan(t))` to `Filter(pred, IndexScan(t, key))`
/// when `pred`'s conjuncts pin every column of `t`'s primary key to a
/// non-NULL literal. Runs after join reordering and filter ordering (so
/// filters sit directly on their scans). The predicate is kept whole: the
/// probe only narrows the row set the filter inspects, so the rewrite is
/// unconditionally sound — group-key equality being coarser than SQL `=`
/// is re-checked row by row.
fn index_scans(plan: Plan, provider: &dyn SchemaProvider) -> Plan {
    match plan {
        Plan::Filter { input, predicate } => {
            let input = index_scans(*input, provider);
            if let Plan::Scan { table, qualifier } = &input {
                if let Some(key) = pk_point(&predicate, table, qualifier, provider) {
                    return Plan::Filter {
                        input: Box::new(Plan::IndexScan {
                            table: table.clone(),
                            qualifier: qualifier.clone(),
                            key,
                        }),
                        predicate,
                    };
                }
            }
            Plan::Filter { input: Box::new(input), predicate }
        }
        Plan::Join { left, right, kind, on, emit } => Plan::Join {
            left: Box::new(index_scans(*left, provider)),
            right: Box::new(index_scans(*right, provider)),
            kind,
            on,
            emit,
        },
        other => other,
    }
}

/// The primary-key tuple (in PK-column order) a predicate's top-level
/// conjuncts pin by equality, or `None` unless every PK column is pinned.
/// Only conjuncts of the shape `col = literal` / `literal = col` with a
/// non-NULL literal participate; everything else is left to the filter.
/// UPDATE and DELETE locate their rows with the same function
/// ([`crate::db`]), so DML and SELECT agree on what pins a key.
pub(crate) fn pk_point(
    predicate: &Expr,
    table: &str,
    qualifier: &str,
    provider: &dyn SchemaProvider,
) -> Option<Vec<Value>> {
    let pk = provider.table_primary_key(table)?;
    // Which PK position (if any) a column expression names on this scan.
    let pk_pos = |e: &Expr| -> Option<usize> {
        let Expr::Column { table: q, name } = e else { return None };
        if q.as_deref().is_some_and(|q| !q.eq_ignore_ascii_case(qualifier)) {
            return None;
        }
        pk.iter().position(|p| p.eq_ignore_ascii_case(name))
    };
    fn lit(e: &Expr) -> Option<&Value> {
        match e {
            Expr::Literal(v) if !v.is_null() => Some(v),
            _ => None,
        }
    }
    let mut key: Vec<Option<Value>> = vec![None; pk.len()];
    for c in split_conjuncts(predicate) {
        let Expr::Binary { op: BinaryOp::Eq, left, right } = &c else { continue };
        let pinned = match (pk_pos(left), lit(right)) {
            (Some(p), Some(v)) => Some((p, v)),
            _ => lit(left).zip(pk_pos(right)).map(|(v, p)| (p, v)),
        };
        if let Some((pos, v)) = pinned {
            key[pos].get_or_insert_with(|| v.clone());
        }
    }
    key.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{SelectBody, Statement};
    use crate::parser::{parse_expression, parse_statement};
    use crate::plan::{plan_from, ColRef};
    use std::sync::Arc;

    /// Two small tables (a: 1000 rows, b: 10 rows) plus a large `fact`
    /// (100k) and tiny `dim` (100) for reorder tests.
    struct Fixture;

    impl SchemaProvider for Fixture {
        fn table_columns(&self, name: &str) -> Result<Vec<String>> {
            match name {
                "a" => Ok(vec!["x".into(), "ax".into()]),
                "b" => Ok(vec!["y".into(), "bz".into()]),
                "fact" => Ok(vec!["id".into(), "grp".into()]),
                "dim" => Ok(vec!["id".into(), "label".into()]),
                "tiny" => Ok(vec!["id".into(), "tag".into()]),
                other => Err(crate::error::Error::NotFound(other.into())),
            }
        }

        fn table_rows(&self, name: &str) -> Option<usize> {
            match name {
                "a" => Some(1000),
                "b" => Some(10),
                "fact" => Some(100_000),
                "dim" => Some(100),
                "tiny" => Some(5),
                _ => None,
            }
        }
    }

    fn plan_of(sql: &str) -> Plan {
        let Statement::Select(s) = parse_statement(sql).unwrap() else { panic!() };
        let SelectBody::Simple(core) = s.body else { panic!() };
        plan_from(core.from.as_ref(), core.filter.as_ref()).unwrap()
    }

    fn opt(sql: &str) -> Plan {
        let config = OptimizerConfig::default();
        optimize(plan_of(sql), &UdfRegistry::new(), &config, &Fixture, None).unwrap()
    }

    #[test]
    fn where_conjuncts_split_across_join() {
        let opt = opt("SELECT * FROM a JOIN b ON a.x = b.y WHERE a.ax = 1 AND b.bz = 2");
        // Both conjuncts moved below the join: top node is the join itself.
        let Plan::Join { left, right, .. } = opt else { panic!("expected join on top, got filter") };
        assert!(matches!(*left, Plan::Filter { .. }));
        assert!(matches!(*right, Plan::Filter { .. }));
    }

    #[test]
    fn cross_side_predicate_stays_with_the_join() {
        let opt = opt("SELECT * FROM a JOIN b ON a.x = b.y WHERE a.ax = b.bz");
        // The two-sided conjunct either stays in a filter above the join or
        // (post join-reordering) is folded into the join condition; both
        // keep it out of the single-table inputs.
        match opt {
            Plan::Filter { input, .. } => assert!(matches!(*input, Plan::Join { .. })),
            Plan::Join { on, .. } => assert!(on.is_some()),
            other => panic!("unexpected top node: {other:?}"),
        }
    }

    #[test]
    fn left_join_right_side_predicate_not_pushed() {
        let opt = opt("SELECT * FROM a LEFT JOIN b ON a.x = b.y WHERE b.bz = 2");
        let Plan::Filter { input, .. } = opt else {
            panic!("predicate on null-supplying side must stay above the join")
        };
        assert!(matches!(*input, Plan::Join { .. }));
    }

    #[test]
    fn reorder_disabled_keeps_filter_on_top() {
        let p = plan_of("SELECT * FROM a JOIN b ON a.x = b.y WHERE a.ax = 1");
        let cfg = OptimizerConfig { reorder_joins: false, ..Default::default() };
        let opt = optimize(p, &UdfRegistry::new(), &cfg, &Fixture, None).unwrap();
        assert!(matches!(opt, Plan::Filter { .. }));
    }

    /// A conjunct over a LEFT join's preserved side filters that side
    /// below the join; one over the null-supplying side stays above it.
    #[test]
    fn left_join_left_side_predicate_sinks_below_the_join() {
        let opt = opt("SELECT * FROM a LEFT JOIN b ON a.x = b.y WHERE a.ax = 1 AND b.bz = 2");
        let Plan::Filter { input, predicate } = opt else { panic!("got {opt:?}") };
        assert_eq!(predicate, parse_expression("b.bz = 2").unwrap());
        let Plan::Join { left, right, kind, .. } = *input else { panic!("got {input:?}") };
        assert_eq!(kind, PlanJoinKind::Left);
        let Plan::Filter { input: scan, predicate } = *left else { panic!("got {left:?}") };
        assert_eq!(predicate, parse_expression("a.ax = 1").unwrap());
        assert!(matches!(*scan, Plan::Scan { ref table, .. } if table == "a"));
        assert!(matches!(*right, Plan::Scan { ref table, .. } if table == "b"));
    }

    struct Llm;
    impl crate::functions::ScalarUdf for Llm {
        fn name(&self) -> &str {
            "llm"
        }
        fn invoke(&self, _: &[Value]) -> Result<Value> {
            Ok(Value::Null)
        }
        fn is_expensive(&self) -> bool {
            true
        }
    }

    fn llm_registry() -> UdfRegistry {
        let mut udfs = UdfRegistry::new();
        udfs.register(Arc::new(Llm));
        udfs
    }

    #[test]
    fn expensive_udf_predicate_ordered_last() {
        let udfs = llm_registry();
        let p = plan_of("SELECT * FROM a WHERE llm(a.x) = 'Yes' AND a.ax = 1");
        let opt = optimize(p, &udfs, &OptimizerConfig::default(), &Fixture, None).unwrap();
        let Plan::Filter { predicate, .. } = opt else { panic!() };
        let parts = split_conjuncts(&predicate);
        assert_eq!(parts.len(), 2);
        assert_eq!(expr_cost(&parts[0], &udfs), 0, "cheap predicate first");
        assert_eq!(expr_cost(&parts[1], &udfs), 2, "LLM predicate last");
    }

    /// Batching is an execution mode, not a plan shape: the optimizer
    /// returns the same plan whether or not expensive calls are batched —
    /// one filter, cheap conjuncts first (rule 2) — and the executor's
    /// filter does the splitting.
    #[test]
    fn plan_does_not_depend_on_batching() {
        let udfs = llm_registry();
        let per_row = OptimizerConfig { batch_expensive_udfs: false, ..Default::default() };
        for sql in [
            "SELECT * FROM a WHERE llm(a.x) = 'Yes' AND a.ax = 1",
            "SELECT * FROM a WHERE llm(a.x) = 'Yes'",
            "SELECT * FROM a WHERE a.ax = 1",
            "SELECT * FROM a JOIN b ON a.x = b.y WHERE llm(b.bz) = 'Yes' AND a.ax = 1",
        ] {
            let batched =
                optimize(plan_of(sql), &udfs, &OptimizerConfig::default(), &Fixture, None).unwrap();
            let unbatched = optimize(plan_of(sql), &udfs, &per_row, &Fixture, None).unwrap();
            assert_eq!(batched, unbatched, "{sql}");
        }
    }

    #[test]
    fn subquery_predicates_are_not_pushed() {
        let opt = opt("SELECT * FROM a JOIN b ON a.x = b.y WHERE a.ax IN (SELECT y FROM b)");
        let Plan::Filter { input, .. } = opt else { panic!("subquery predicate must stay") };
        assert!(matches!(*input, Plan::Join { .. }));
    }

    #[test]
    fn schema_of_plan_tracks_join() {
        let p = plan_of("SELECT * FROM a JOIN b ON a.x = b.y");
        let schema = p.schema(&Fixture).unwrap();
        assert_eq!(schema.len(), 4);
        assert_eq!(schema.cols[0], ColRef::new(Some("a".into()), "x"));
    }

    // ---- join reordering ----------------------------------------------

    /// The chain `fact ⋈ dim ⋈ tiny` (100k, 100, 5 rows) must be rebuilt
    /// smallest-first.
    #[test]
    fn three_way_chain_reordered_smallest_first() {
        let opt = opt(
            "SELECT * FROM fact f JOIN dim d ON f.grp = d.id JOIN tiny t ON d.id = t.id",
        );
        // Left-deep: ((tiny ⋈ dim) ⋈ fact).
        let Plan::Join { left, right, kind, .. } = opt else { panic!("got {opt:?}") };
        assert_eq!(kind, PlanJoinKind::Inner);
        assert!(matches!(*right, Plan::Scan { ref table, .. } if table == "fact"));
        let Plan::Join { left: ll, right: lr, .. } = *left else { panic!() };
        assert!(matches!(*ll, Plan::Scan { ref table, .. } if table == "tiny"));
        assert!(matches!(*lr, Plan::Scan { ref table, .. } if table == "dim"));
    }

    /// `d` and `d2` are the same size; the WHERE conjunct on `d2` alone
    /// shrinks its estimate, so the chain starts from `d2`, not from the
    /// first-written `d`.
    #[test]
    fn filtered_leaf_starts_the_chain() {
        let opt = opt(
            "SELECT * FROM fact f JOIN dim d ON f.grp = d.id JOIN dim d2 ON d.id = d2.id \
             WHERE d2.label = 'x'",
        );
        let Plan::Join { left, .. } = opt else { panic!("got {opt:?}") };
        let Plan::Join { left: first, .. } = *left else { panic!() };
        let Plan::Filter { input: scan, .. } = *first else { panic!("got {first:?}") };
        assert!(matches!(*scan, Plan::Scan { ref qualifier, .. } if qualifier == "d2"));
    }

    #[test]
    fn two_way_join_left_alone() {
        let opt = opt("SELECT * FROM fact f JOIN dim d ON f.grp = d.id");
        // Two-way joins are not reordered (the executor picks the build
        // side at run time).
        let Plan::Join { left, .. } = opt else { panic!("got {opt:?}") };
        assert!(matches!(*left, Plan::Scan { ref table, .. } if table == "fact"));
    }

    #[test]
    fn comma_join_where_becomes_join_condition() {
        let opt = opt("SELECT * FROM fact f, dim d, tiny t WHERE f.grp = d.id AND d.id = t.id");
        // The WHERE equi-conjuncts must end up as INNER join conditions,
        // not a filter over a cross product.
        fn count_inner_with_on(p: &Plan) -> usize {
            match p {
                Plan::Join { left, right, kind, on, .. } => {
                    let here =
                        (*kind == PlanJoinKind::Inner && on.is_some()) as usize;
                    here + count_inner_with_on(left) + count_inner_with_on(right)
                }
                Plan::Filter { input, .. } => count_inner_with_on(input),
                _ => 0,
            }
        }
        assert_eq!(count_inner_with_on(&opt), 2, "both equi-conjuncts attached: {opt:?}");
    }

    #[test]
    fn left_join_is_a_reorder_boundary() {
        let opt = opt(
            "SELECT * FROM fact f LEFT JOIN dim d ON f.grp = d.id",
        );
        let Plan::Join { kind, left, right, .. } = opt else { panic!() };
        assert_eq!(kind, PlanJoinKind::Left);
        assert!(matches!(*left, Plan::Scan { ref table, .. } if table == "fact"));
        assert!(matches!(*right, Plan::Scan { ref table, .. } if table == "dim"));
    }

    #[test]
    fn reorder_disabled_keeps_written_order() {
        let p = plan_of(
            "SELECT * FROM fact f JOIN dim d ON f.grp = d.id JOIN tiny t ON d.id = t.id",
        );
        let cfg = OptimizerConfig { reorder_joins: false, ..Default::default() };
        let opt = optimize(p, &UdfRegistry::new(), &cfg, &Fixture, None).unwrap();
        let Plan::Join { left, .. } = opt else { panic!() };
        let Plan::Join { left: ll, .. } = *left else { panic!() };
        assert!(matches!(*ll, Plan::Scan { ref table, .. } if table == "fact"));
    }

    #[test]
    fn filtered_scan_estimate_shrinks() {
        let scan = Plan::Scan { table: "fact".into(), qualifier: "f".into() };
        let filtered = Plan::Filter {
            input: Box::new(scan.clone()),
            predicate: parse_expression("f.grp = 1").unwrap(),
        };
        assert!(estimate_rows(&filtered, &Fixture) < estimate_rows(&scan, &Fixture));
    }

    // ---- rule 3: primary-key point probes -----------------------------

    /// Fixture where `k` has a single-column PK (id) and `kk` a composite
    /// PK (a, b). `a`/`b` etc. stay PK-less so the other tests' plans are
    /// untouched by rule 3.
    struct PkFixture;

    impl SchemaProvider for PkFixture {
        fn table_columns(&self, name: &str) -> Result<Vec<String>> {
            match name {
                "k" => Ok(vec!["id".into(), "v".into()]),
                "kk" => Ok(vec!["a".into(), "b".into(), "v".into()]),
                other => Err(crate::error::Error::NotFound(other.into())),
            }
        }

        fn table_rows(&self, name: &str) -> Option<usize> {
            match name {
                "k" | "kk" => Some(1000),
                _ => None,
            }
        }

        fn table_primary_key(&self, table: &str) -> Option<Vec<String>> {
            match table {
                "k" => Some(vec!["id".into()]),
                "kk" => Some(vec!["a".into(), "b".into()]),
                _ => None,
            }
        }
    }

    fn pk_opt(sql: &str) -> Plan {
        let cfg = OptimizerConfig { index_scan: true, ..Default::default() };
        optimize(plan_of(sql), &UdfRegistry::new(), &cfg, &PkFixture, None).unwrap()
    }

    /// Unwrap `Filter(IndexScan)` — the rewrite must always keep the full
    /// predicate above the index scan.
    fn probe_key_of(plan: Plan) -> Vec<Value> {
        let Plan::Filter { input, .. } = plan else {
            panic!("predicate must stay above the index scan: {plan:?}")
        };
        let Plan::IndexScan { key, .. } = *input else {
            panic!("expected IndexScan under the filter: {input:?}")
        };
        key
    }

    /// Unwrap `Filter(Scan)`: the predicate pins no full key.
    fn assert_scans(plan: Plan) {
        let Plan::Filter { input, .. } = plan else { panic!("got {plan:?}") };
        assert!(matches!(*input, Plan::Scan { .. }), "got {input:?}");
    }

    #[test]
    fn pk_equality_becomes_point_probe() {
        assert_eq!(probe_key_of(pk_opt("SELECT * FROM k WHERE id = 42")), vec![Value::Integer(42)]);
    }

    #[test]
    fn flipped_literal_side_normalized() {
        // `5 = id` pins the key as `id = 5` does.
        assert_eq!(probe_key_of(pk_opt("SELECT * FROM k WHERE 5 = id")), vec![Value::Integer(5)]);
    }

    #[test]
    fn composite_pk_full_equality_is_point() {
        assert_eq!(
            probe_key_of(pk_opt("SELECT * FROM kk WHERE b = 2 AND a = 1")),
            vec![Value::Integer(1), Value::Integer(2)]
        );
    }

    /// Ranges and key prefixes pin no full key: they scan.
    #[test]
    fn ranges_and_key_prefixes_scan() {
        for sql in [
            "SELECT * FROM k WHERE id > 10 AND id <= 20",
            "SELECT * FROM k WHERE id BETWEEN 5 AND 9",
            "SELECT * FROM kk WHERE a = 7",
        ] {
            assert_scans(pk_opt(sql));
        }
    }

    #[test]
    fn non_pk_predicate_not_rewritten() {
        let opt = pk_opt("SELECT * FROM k WHERE v = 42");
        let Plan::Filter { input, .. } = opt else { panic!("got {opt:?}") };
        assert!(matches!(*input, Plan::Scan { .. }), "got {input:?}");
    }

    #[test]
    fn null_literal_never_bounds() {
        // `id = NULL` matches nothing at runtime, but the rewrite must not
        // turn it into a probe for a NULL key.
        let opt = pk_opt("SELECT * FROM k WHERE id = NULL");
        let Plan::Filter { input, .. } = opt else { panic!("got {opt:?}") };
        assert!(matches!(*input, Plan::Scan { .. }), "got {input:?}");
    }

    #[test]
    fn index_scan_disabled_reproduces_scan_plan() {
        let cfg = OptimizerConfig { index_scan: false, ..Default::default() };
        let p = plan_of("SELECT * FROM k WHERE id = 42");
        let opt = optimize(p, &UdfRegistry::new(), &cfg, &PkFixture, None).unwrap();
        let Plan::Filter { input, .. } = opt else { panic!("got {opt:?}") };
        assert!(matches!(*input, Plan::Scan { .. }), "got {input:?}");
    }

    #[test]
    fn qualified_alias_still_matches_pk() {
        assert_eq!(probe_key_of(pk_opt("SELECT * FROM k t WHERE t.id = 5")), vec![Value::Integer(5)]);
    }

    #[test]
    fn negated_between_not_rewritten() {
        let opt = pk_opt("SELECT * FROM k WHERE id NOT BETWEEN 5 AND 9");
        let Plan::Filter { input, .. } = opt else { panic!("got {opt:?}") };
        assert!(matches!(*input, Plan::Scan { .. }), "got {input:?}");
    }
}
