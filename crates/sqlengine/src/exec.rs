//! Query execution.
//!
//! `run_select` drives a SELECT end to end: the FROM/WHERE part is lowered
//! to a [`Plan`], optimized, and executed (with a hash-join fast path for
//! equi-joins); projection, aggregation, DISTINCT, compound operators,
//! ORDER BY and LIMIT are applied on top.
//!
//! # Zero-copy execution
//!
//! Rows flow through the executor as [`Row`] (`Arc<[Value]>`):
//!
//! * **scans** share the table's stored rows — one refcount bump per row;
//! * **filters** drop non-matching rows in place, never cloning survivors;
//! * **joins** allocate only the emitted combined rows; the build table is
//!   pre-sized, keyed without per-row `Vec` allocation for single-column
//!   equi-joins, and built on the smaller input for inner joins;
//! * **projection** detects column-only projections and shares or gathers
//!   cells directly instead of walking the expression evaluator;
//! * **DISTINCT, UNION/EXCEPT/INTERSECT and ORDER BY** move `Arc` handles,
//!   not cell vectors.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use swan_pool::lockrank;

use crate::ast::{
    BinaryOp, CompoundOp, Expr, OrderItem, SelectBody, SelectCore, SelectItem, SelectStmt,
};
use crate::columnar::{AggKernel, ColumnSet};
use crate::error::{Error, Result};
use crate::eval::{bind_columns, eval, BatchableCalls, RowCtx};
use crate::exec_parallel::{inline_morsels, try_morsels, MORSEL_ROWS};
use crate::functions::{is_aggregate, UdfRegistry};
use crate::hash::{map_with_capacity, set_with_capacity, FxHashMap, FxHashSet};
use crate::optimizer::{expr_cost, optimize, NeededCol, OptimizerConfig};
use crate::plan::{
    conjoin, plan_from, split_conjuncts, ColRef, Plan, PlanJoinKind, RelSchema,
};
use crate::storage::Catalog;
use crate::value::{GroupKey, Row, UdfArgs, Value};

/// Results of one expensive UDF's invocations within a statement, keyed
/// by argument tuple under exact value identity.
pub type UdfResults = FxHashMap<UdfArgs, Value>;

/// Result rows paired with per-row ORDER BY sort keys.
type RowsAndKeys = (Vec<Row>, Vec<Vec<Value>>);

/// A materialized intermediate or final relation.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    pub schema: RelSchema,
    pub rows: Vec<Row>,
}

impl Relation {
    /// Output column names (unqualified).
    pub fn column_names(&self) -> Vec<String> {
        self.schema.cols.iter().map(|c| c.name.clone()).collect()
    }
}

/// Cached execution state of one subquery within a statement.
pub enum SubqueryState {
    /// Uncorrelated: executed once, result shared. An `IN` consumer also
    /// gets `members`, the hash set it probes instead of walking `rel`.
    Uncorrelated { rel: Arc<Relation>, members: Option<Members> },
    /// An equality-correlated scalar aggregate: one grouped build, one
    /// hash probe per outer row (see [`KeyedAggregate`]).
    Keyed(KeyedAggregate),
    /// Correlated with the outer row: must re-execute per row. The only
    /// path for every shape [`KeyedAggregate::build`] declines and under
    /// `OptimizerConfig::index_scan: false`, the reference.
    Correlated,
}

/// Hash key of a value that can equal something under `sql_eq`; NULL and
/// NaN equal nothing, so they have none.
fn eq_key(v: &Value) -> Option<GroupKey> {
    match v {
        Value::Null => None,
        Value::Real(r) if r.is_nan() => None,
        v => Some(v.group_key()),
    }
}

/// The first column of an uncorrelated `IN (SELECT …)` result as a hash
/// set under SQL equality, built once in the subquery's cell.
pub struct Members {
    keys: FxHashSet<GroupKey>,
    has_null: bool,
}

impl Members {
    pub(crate) fn of(rel: &Relation) -> Members {
        let mut members = Members { keys: set_with_capacity(rel.rows.len()), has_null: false };
        for row in &rel.rows {
            match row.first() {
                None | Some(Value::Null) => members.has_null = true,
                Some(v) => members.keys.extend(eq_key(v)),
            }
        }
        members
    }

    /// Three-valued `v IN (members)` for a non-NULL `v`: no match but a
    /// NULL member is unknown.
    pub(crate) fn contains(&self, v: &Value) -> Option<bool> {
        if eq_key(v).is_some_and(|k| self.keys.contains(&k)) {
            Some(true)
        } else if self.has_null {
            None
        } else {
            Some(false)
        }
    }
}

/// A scalar subquery of the shape
/// `(SELECT <aggregate expr> FROM t WHERE <inner> = <outer> [AND …] [AND <local>])`
/// answered from a hash index instead of one execution per outer row:
/// `SELECT <inner keys>, <aggregate expr> FROM t WHERE <local> GROUP BY
/// <inner keys>` runs **once** through [`run_select`] (so it gets pushdown,
/// the columnar kernels, parallel GROUP BY and the statement's cancel
/// token like any other SELECT), and every outer row costs one key
/// evaluation and one probe. Key equality is the hash join's: NULL never
/// matches, and neither does NaN (as under `sql_eq`). A key with no group
/// reads what the same aggregate code yields over zero rows.
///
/// GROUP BY keeps each group's members in input order, which over one base
/// table is the order the per-row filter would have kept them in — so
/// order-sensitive aggregates (a REAL `SUM`, `GROUP_CONCAT`) are
/// bit-identical to the per-row path.
pub struct KeyedAggregate {
    /// Outer-side key expressions, one per correlation pair.
    outer_keys: Vec<Expr>,
    groups: FxHashMap<JoinKey, Value>,
    /// The aggregate over zero rows (`COUNT` → 0, `SUM` → NULL, …).
    empty: Value,
}

impl KeyedAggregate {
    /// Match `query` against the build-once shape and run the build;
    /// `Ok(None)` declines. Declined: anything but one `SelectBody::Simple`
    /// core over a single base table with a single aggregate-bearing
    /// projection that reads inner columns only and only inside aggregates;
    /// `GROUP BY`/`HAVING`/`DISTINCT`/`ORDER BY`/`LIMIT`/`OFFSET`; a nested
    /// subquery or expensive UDF anywhere; and any WHERE conjunct that is
    /// neither local (covered by the inner schema) nor an equality with one
    /// side covered by the inner schema and the other free of
    /// inner-resolvable columns. An unqualified name that resolves in the
    /// inner schema binds inner, exactly as [`RowCtx`] lookup does.
    pub(crate) fn build(query: &SelectStmt, ctx: &ExecCtx<'_>) -> Result<Option<KeyedAggregate>> {
        let SelectBody::Simple(core) = &query.body else { return Ok(None) };
        if !query.order_by.is_empty()
            || query.limit.is_some()
            || query.offset.is_some()
            || core.distinct
            || !core.group_by.is_empty()
            || core.having.is_some()
        {
            return Ok(None);
        }
        let ([SelectItem::Expr { expr: agg, .. }], Some(filter)) =
            (&core.projection[..], &core.filter)
        else {
            return Ok(None);
        };
        let plan = plan_from(core.from.as_ref(), None)?;
        if !matches!(plan, Plan::Scan { .. }) {
            return Ok(None);
        }
        let schema = plan.schema(ctx.catalog)?;
        let plain = |e: &Expr| expr_cost(e, ctx.udfs) == 0;
        if !agg.contains_aggregate() || !plain(agg) || !columns_only_in_aggregates(agg, &schema) {
            return Ok(None);
        }

        let (mut inner_keys, mut outer_keys, mut local) = (Vec::new(), Vec::new(), Vec::new());
        for c in split_conjuncts(filter) {
            if !plain(&c) {
                return Ok(None);
            }
            if schema.covers(&c) {
                local.push(c);
                continue;
            }
            let Expr::Binary { op: BinaryOp::Eq, left, right } = c else { return Ok(None) };
            let (inner, outer) = if schema.covers(&left) { (left, right) } else { (right, left) };
            let mut outer_only = true;
            outer.walk(&mut |e| {
                if let Expr::Column { table, name } = e {
                    outer_only &= matches!(schema.resolve(table.as_deref(), name), Ok(None));
                }
            });
            if !schema.covers(&inner) || !outer_only {
                return Ok(None);
            }
            inner_keys.push(*inner);
            outer_keys.push(*outer);
        }
        if inner_keys.is_empty() {
            return Ok(None);
        }

        let none = Relation { schema, rows: Vec::new() };
        let nulls = vec![Value::Null; none.schema.len()];
        let rep = RowCtx::new(&none.schema, &nulls);
        let empty = materialize_and_eval(agg, &[], &none, None, ctx, &rep)?;

        let width = inner_keys.len();
        let grouped = SelectStmt {
            body: SelectBody::Simple(Box::new(SelectCore {
                distinct: false,
                projection: inner_keys
                    .iter()
                    .chain([agg])
                    .map(|e| SelectItem::Expr { expr: e.clone(), alias: None })
                    .collect(),
                from: core.from.clone(),
                filter: conjoin(local),
                group_by: inner_keys,
                having: None,
            })),
            order_by: Vec::new(),
            limit: None,
            offset: None,
        };
        let rel = run_select(&grouped, ctx, None)?;
        let mut groups = map_with_capacity(rel.rows.len());
        for row in &rel.rows {
            let key = match &row[..width] {
                [only] => eq_key(only).map(JoinKey::One),
                many => many.iter().map(eq_key).collect::<Option<_>>().map(JoinKey::Many),
            };
            if let Some(key) = key {
                groups.insert(key, row[width].clone());
            }
        }
        Ok(Some(KeyedAggregate { outer_keys, groups, empty }))
    }

    /// The subquery's value for one outer row.
    pub(crate) fn probe(&self, ctx: &ExecCtx<'_>, outer: &RowCtx<'_>) -> Result<Value> {
        let key = join_key(&self.outer_keys, outer, ctx)?;
        Ok(key.and_then(|k| self.groups.get(&k)).unwrap_or(&self.empty).clone())
    }
}

/// True when every column `expr` reads resolves in `schema` and sits inside
/// an aggregate call (a bare column would read the group's representative
/// row, which the keyed build does not keep).
fn columns_only_in_aggregates(expr: &Expr, schema: &RelSchema) -> bool {
    let count = |e: &Expr| {
        let mut n = 0usize;
        e.walk(&mut |x| n += matches!(x, Expr::Column { .. }) as usize);
        n
    };
    let mut aggregated = 0;
    expr.walk(&mut |e| {
        if let Expr::Function { name, args, .. } = e {
            if is_aggregate(name) {
                aggregated += args.iter().map(&count).sum::<usize>();
            }
        }
    });
    schema.covers(expr) && count(expr) == aggregated
}

/// The statement-scoped subquery state cache, keyed by the address of the
/// subquery's `Arc<SelectStmt>` body — one node for the statement's
/// lifetime however often the expression around it is cloned or rebound.
/// `Send + Sync` (an `Arc<Mutex<..>>` map of shared cells) so morsel
/// workers share one cache with the statement thread, letting
/// subquery-bearing predicates fan out like any other expression instead
/// of running inline. Each entry is a [`std::sync::OnceLock`]
/// **single-flight cell**: the first arriver classifies the subquery (see
/// [`SubqueryState`]) — executing it when uncorrelated, building its hash
/// index when [`KeyedAggregate::build`] accepts it — while concurrent
/// arrivers block on the cell. An uncorrelated subquery, and a keyed
/// build, therefore execute *exactly once* per statement at every thread
/// count, never once per worker; the state is immutable once the cell is
/// set, so probes take no lock beyond the map lookup.
pub type SubqueryCache =
    Arc<Mutex<HashMap<usize, Arc<std::sync::OnceLock<Result<SubqueryState>>>>>>;

/// Per-statement execution context.
pub struct ExecCtx<'a> {
    pub catalog: &'a Catalog,
    pub udfs: &'a UdfRegistry,
    pub optimizer: OptimizerConfig,
    /// Subquery result cache, shared across this statement's morsel
    /// workers (see [`SubqueryCache`]).
    pub subqueries: SubqueryCache,
    /// Statement-scoped results of expensive-UDF invocations, keyed by
    /// lowercased function name, filled by the operators' vectorized
    /// prefetch ([`BatchableCalls`]) and by per-row evaluation; every
    /// later evaluation of the same argument tuple is a lookup instead
    /// of a call.
    pub udf_results: RefCell<FxHashMap<String, UdfResults>>,
    /// On a morsel worker: the statement's `udf_results` as they stood at
    /// fan-out, shared read-only by every worker of the operator, while
    /// `udf_results` holds only what this worker computed itself (see
    /// [`crate::exec_parallel`]). `None` on the statement thread.
    pub udf_seed: Option<Arc<FxHashMap<String, UdfResults>>>,
    /// The statement's cancellation/deadline token. Cloned into every
    /// morsel worker's context; long loops call
    /// [`ExecCtx::check_cancel`] at batch boundaries.
    pub cancel: swan_pool::CancelToken,
}

impl<'a> ExecCtx<'a> {
    pub fn new(catalog: &'a Catalog, udfs: &'a UdfRegistry) -> Self {
        ExecCtx {
            catalog,
            udfs,
            optimizer: OptimizerConfig::default(),
            subqueries: Arc::new(Mutex::with_rank(
                "subquery_cache",
                lockrank::SUBQUERY_CACHE,
                HashMap::new(),
            )),
            udf_results: RefCell::new(FxHashMap::default()),
            udf_seed: None,
            // Inherit the statement token the session installed on this
            // thread (see `Database::execute_statement`); a context built
            // outside any statement scope runs unbounded.
            cancel: swan_pool::cancel::current()
                .unwrap_or_else(swan_pool::CancelToken::unbounded),
        }
    }

    pub fn with_optimizer(mut self, config: OptimizerConfig) -> Self {
        self.optimizer = config;
        self
    }

    pub fn with_cancel(mut self, cancel: swan_pool::CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The stored result of the expensive UDF registered as `name` for
    /// `args`, if this statement has one.
    pub fn udf_result(&self, name: &str, args: &UdfArgs) -> Option<Value> {
        let find = |store: &FxHashMap<String, UdfResults>| store.get(name)?.get(args).cloned();
        self.udf_seed.as_deref().and_then(find).or_else(|| find(&self.udf_results.borrow()))
    }

    /// Record `name(args) = value` for the rest of the statement.
    pub fn store_udf_results(
        &self,
        name: &str,
        results: impl IntoIterator<Item = (UdfArgs, Value)>,
    ) {
        self.udf_results.borrow_mut().entry(name.to_string()).or_default().extend(results);
    }

    /// The cooperative cancellation checkpoint: cheap enough for morsel
    /// boundaries and periodic row-loop checks, fails the statement with
    /// [`Error::Deadline`] / [`Error::Cancelled`].
    #[inline]
    pub fn check_cancel(&self) -> Result<()> {
        self.cancel.check().map_err(Error::from)
    }
}

/// How many iterations a loop that is not dispatched through
/// [`try_morsels`] (the hash-join build, the columnar group-key pass, the
/// nested loop's inner side) runs between cancellation checks — one
/// morsel's worth, the granularity of every dispatched loop.
const CANCEL_CHECK_ROWS: usize = MORSEL_ROWS;

/// Concatenate per-range outputs in range order.
fn concat<T>(mut chunks: Vec<Vec<T>>) -> Vec<T> {
    if chunks.len() == 1 {
        return chunks.pop().unwrap_or_default();
    }
    let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Execute a full SELECT (body + ORDER BY + LIMIT/OFFSET).
pub fn run_select(
    stmt: &SelectStmt,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Relation> {
    let (mut rel, mut keys) = match &stmt.body {
        SelectBody::Simple(core) => {
            run_core(core, &stmt.order_by, topk_hint(stmt), ctx, outer)?
        }
        SelectBody::Compound { .. } => {
            let rel = run_body(&stmt.body, ctx, outer)?;
            let keys = compound_sort_keys(&rel, &stmt.order_by, ctx, outer)?;
            (rel, keys)
        }
    };

    if !stmt.order_by.is_empty() {
        sort_rows(&mut rel.rows, &mut keys, &stmt.order_by, topk_hint(stmt), ctx);
    }
    apply_limit_offset(&mut rel.rows, stmt, ctx)?;
    Ok(rel)
}

/// `ORDER BY ... LIMIT k` with literal bounds only needs the smallest
/// `offset + k` rows; the sort can then select instead of fully sorting.
fn topk_hint(stmt: &SelectStmt) -> Option<usize> {
    let lit = |e: &Expr| match e {
        Expr::Literal(Value::Integer(n)) if *n >= 0 => Some(*n as usize),
        _ => None,
    };
    let limit = lit(stmt.limit.as_ref()?)?;
    let offset = match &stmt.offset {
        None => 0,
        Some(e) => lit(e)?,
    };
    limit.checked_add(offset)
}

fn run_body(
    body: &SelectBody,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Relation> {
    match body {
        SelectBody::Simple(core) => Ok(run_core(core, &[], None, ctx, outer)?.0),
        SelectBody::Compound { op, left, right } => {
            let l = run_body(left, ctx, outer)?;
            let r = run_body(right, ctx, outer)?;
            if l.schema.len() != r.schema.len() {
                return Err(Error::Semantic(format!(
                    "compound SELECT column count mismatch: {} vs {}",
                    l.schema.len(),
                    r.schema.len()
                )));
            }
            let rows = match op {
                CompoundOp::UnionAll => {
                    let mut rows = l.rows;
                    rows.extend(r.rows);
                    rows
                }
                CompoundOp::Union => dedupe(l.rows.into_iter().chain(r.rows)),
                CompoundOp::Except => {
                    let exclude: FxHashSet<Vec<GroupKey>> =
                        r.rows.iter().map(|row| row_key(row)).collect();
                    dedupe(l.rows.into_iter().filter(|row| !exclude.contains(&row_key(row))))
                }
                CompoundOp::Intersect => {
                    let keep: FxHashSet<Vec<GroupKey>> =
                        r.rows.iter().map(|row| row_key(row)).collect();
                    dedupe(l.rows.into_iter().filter(|row| keep.contains(&row_key(row))))
                }
            };
            Ok(Relation { schema: l.schema, rows })
        }
    }
}

fn row_key(row: &[Value]) -> Vec<GroupKey> {
    row.iter().map(Value::group_key).collect()
}

fn dedupe(rows: impl IntoIterator<Item = Row>) -> Vec<Row> {
    let mut seen = FxHashSet::default();
    let mut out = Vec::new();
    for row in rows {
        if seen.insert(row_key(&row)) {
            out.push(row);
        }
    }
    out
}

/// ORDER BY keys for a compound SELECT: ordinals or output column names.
fn compound_sort_keys(
    rel: &Relation,
    order_by: &[OrderItem],
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Vec<Vec<Value>>> {
    if order_by.is_empty() {
        return Ok(Vec::new());
    }
    let mut keys = Vec::with_capacity(rel.rows.len());
    for row in &rel.rows {
        let rc = RowCtx { schema: &rel.schema, row, outer };
        let mut k = Vec::with_capacity(order_by.len());
        for item in order_by {
            if let Some(i) = ordinal_index(&item.expr, rel.schema.len())? {
                k.push(row[i].clone());
            } else {
                k.push(eval(&item.expr, ctx, Some(&rc))?);
            }
        }
        keys.push(k);
    }
    Ok(keys)
}

/// Build one output row's ORDER BY key vector: ordinals index into the
/// projected row `out`, every other expression evaluates through
/// `eval_expr`. One implementation serves the projection and
/// aggregation loops, so ordinal/alias resolution can never drift
/// between them.
fn output_sort_keys(
    order_exprs: &[Expr],
    width: usize,
    out: &[Value],
    eval_expr: &mut dyn FnMut(&Expr) -> Result<Value>,
) -> Result<Vec<Value>> {
    let mut k = Vec::with_capacity(order_exprs.len());
    for e in order_exprs {
        if let Some(i) = ordinal_index(e, width)? {
            k.push(out[i].clone());
        } else {
            k.push(eval_expr(e)?);
        }
    }
    Ok(k)
}

/// `ORDER BY 2` style ordinals. Errors when out of range.
fn ordinal_index(expr: &Expr, width: usize) -> Result<Option<usize>> {
    if let Expr::Literal(Value::Integer(n)) = expr {
        let n = *n;
        if n < 1 || n as usize > width {
            return Err(Error::Semantic(format!(
                "ORDER BY position {n} is out of range (1..{width})"
            )));
        }
        return Ok(Some(n as usize - 1));
    }
    Ok(None)
}

fn sort_rows(
    rows: &mut Vec<Row>,
    keys: &mut Vec<Vec<Value>>,
    order_by: &[OrderItem],
    top_k: Option<usize>,
    ctx: &ExecCtx<'_>,
) {
    // The input row index breaks every tie, making the comparator a
    // *total* order. This pins down what SQL leaves unspecified on
    // purpose: with ties at the LIMIT boundary, the selected prefix is
    // exactly the stable-full-sort prefix — first-come-first-kept — so
    // serial top-k, parallel per-morsel top-k, and a full sort all agree
    // on the same rows in the same order at every thread count.
    let cmp = |&a: &usize, &b: &usize| {
        for (k, item) in order_by.iter().enumerate() {
            let ord = keys[a][k].sort_cmp(&keys[b][k]);
            let ord = if item.desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        a.cmp(&b)
    };
    let mut idx: Vec<usize> = (0..rows.len()).collect();
    // Top-k: select the first k in O(n), then sort only those. The
    // unstable selection is safe because `cmp` is a total order (index
    // tie-break above) — the selected set is uniquely determined.
    if let Some(k) = top_k {
        if k > 0 && k < idx.len() {
            // Parallel top-k: every morsel selects its own smallest k
            // candidates, then one final selection over the (≤ k per
            // morsel) survivors. Because the comparator totally orders
            // rows, the merged result is identical to the serial path.
            // (None when the dispatcher keeps these rows inline or k is too
            // large for per-morsel pruning to help; fall through to the
            // serial selection.)
            if let Some(candidates) =
                crate::exec_parallel::parallel_topk_candidates(rows.len(), k, ctx, &cmp)
            {
                idx = candidates;
            }
            if k < idx.len() {
                idx.select_nth_unstable_by(k - 1, cmp);
                idx.truncate(k);
            }
        } else if k == 0 {
            idx.clear();
        }
    }
    idx.sort_by(cmp);
    // Rows are Arc handles and key cells are O(1) clones, so gathering into
    // the sorted order is pointer work.
    *rows = idx.iter().map(|&i| rows[i].clone()).collect();
    *keys = idx.iter().map(|&i| std::mem::take(&mut keys[i])).collect();
}

fn apply_limit_offset(
    rows: &mut Vec<Row>,
    stmt: &SelectStmt,
    ctx: &ExecCtx<'_>,
) -> Result<()> {
    let eval_count = |e: &Expr| -> Result<Option<i64>> {
        let v = eval(e, ctx, None)?;
        Ok(v.as_i64())
    };
    let offset = match &stmt.offset {
        Some(e) => eval_count(e)?.unwrap_or(0).max(0) as usize,
        None => 0,
    };
    if offset > 0 {
        if offset >= rows.len() {
            rows.clear();
        } else {
            rows.drain(..offset);
        }
    }
    if let Some(e) = &stmt.limit {
        if let Some(n) = eval_count(e)? {
            // Negative LIMIT means "no limit" in SQLite.
            if n >= 0 {
                rows.truncate(n as usize);
            }
        }
    }
    Ok(())
}

// ---- simple SELECT core --------------------------------------------------

/// Execute one SELECT core; returns the output relation plus one sort-key
/// vector per row for the given ORDER BY items (empty when no ORDER BY).
fn run_core(
    core: &SelectCore,
    order_by: &[OrderItem],
    scan_topk: Option<usize>,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<(Relation, Vec<Vec<Value>>)> {
    let plan = plan_from(core.from.as_ref(), core.filter.as_ref())?;
    let needed = needed_columns(core, order_by);
    let plan = &optimize(plan, ctx.udfs, &ctx.optimizer, ctx.catalog, needed.as_deref())?;
    let prefix = match scan_topk {
        Some(k) => pk_order_prefix(plan, order_by, core, ctx, k)?,
        None => None,
    };
    let (input, cols) = match prefix {
        Some(rel) => (rel, None),
        None => exec_plan_with_columns(plan, ctx, outer)?,
    };
    let cols = cols.as_ref();

    // Expand the projection into (expr, output column) pairs.
    let projection = expand_projection(&core.projection, &input.schema)?;

    let aggregated = !core.group_by.is_empty()
        || projection.iter().any(|(e, _)| e.contains_aggregate())
        || core.having.as_ref().is_some_and(|h| h.contains_aggregate());

    // ORDER BY / HAVING may reference projection aliases; rewrite them to
    // the underlying expressions (input columns win over aliases).
    let order_exprs: Vec<Expr> = order_by
        .iter()
        .map(|o| resolve_output_ref(&o.expr, &projection, &input.schema))
        .collect::<Result<_>>()?;
    let having = core
        .having
        .as_ref()
        .map(|h| resolve_output_ref(h, &projection, &input.schema))
        .transpose()?;

    if core.having.is_some() && !aggregated && core.group_by.is_empty() {
        return Err(Error::Semantic("HAVING requires GROUP BY or an aggregate".into()));
    }

    // Vectorize expensive calls in the projection / sort keys across the
    // whole input batch before the per-row loop runs (the aggregated path
    // batches inside `run_aggregate`, over groups).
    if !aggregated {
        let exprs = projection.iter().map(|(e, _)| e).chain(order_exprs.iter());
        if let Some(batch) = BatchableCalls::find(exprs, ctx) {
            batch.prefetch_rows(ctx, &input.schema, &input.rows, outer)?;
        }
    }

    let (mut rows, mut keys) = if aggregated {
        run_aggregate(core, &projection, having.as_ref(), &order_exprs, &input, cols, ctx, outer)?
    } else {
        project_rows(&projection, &order_exprs, &input, ctx, outer)?
    };

    if core.distinct {
        distinct_in_place(&mut rows, &mut keys);
    }

    let schema = RelSchema::new(projection.into_iter().map(|(_, c)| c).collect());
    Ok((Relation { schema, rows }, keys))
}

/// `ORDER BY <full pk, all ASC> LIMIT k` over a bare table scan only
/// needs the first `offset + k` rows in primary-key order.
/// [`Table::ordered_pk`] already knows that order — `sort_cmp` with a
/// row-index tie-break, the same total order [`sort_rows`] uses — so the
/// scan materializes just the prefix instead of the whole table and the
/// later sort touches `k` rows, not all of them. Returns `None` whenever
/// any condition fails; the caller then runs the normal
/// scan → sort → limit pipeline. The ORDER BY must name the *full*
/// primary key: on a key prefix, `ordered_pk` tie-breaks equal prefixes
/// by the remaining key columns while the stable sort tie-breaks by row
/// index, and the two could keep different rows at the LIMIT boundary.
fn pk_order_prefix(
    plan: &Plan,
    order_by: &[OrderItem],
    core: &SelectCore,
    ctx: &ExecCtx<'_>,
    k: usize,
) -> Result<Option<Relation>> {
    // Gated with the planner's index-scan rule: `index_scan: false` is the
    // full-scan reference.
    if !ctx.optimizer.index_scan || order_by.is_empty() {
        return Ok(None);
    }
    // A bare scan means no surviving predicate; anything else must see
    // every row.
    let Plan::Scan { table, qualifier } = plan else { return Ok(None) };
    // The prefix only matches the query when the output is a plain
    // projection of the sorted base rows.
    if !core.group_by.is_empty() || core.having.is_some() || core.distinct {
        return Ok(None);
    }
    let has_aggregate = core.projection.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
        _ => false,
    });
    if has_aggregate {
        return Ok(None);
    }
    let t = ctx.catalog.get_required(table)?;
    if t.primary_key.is_empty() || order_by.len() != t.primary_key.len() {
        return Ok(None);
    }
    for (item, &col) in order_by.iter().zip(&t.primary_key) {
        if item.desc {
            return Ok(None);
        }
        let Expr::Column { table: q, name } = &item.expr else { return Ok(None) };
        if q.as_deref().is_some_and(|q| !q.eq_ignore_ascii_case(qualifier)) {
            return Ok(None);
        }
        if !name.eq_ignore_ascii_case(&t.columns[col].name) {
            return Ok(None);
        }
    }
    let Some(ord) = t.ordered_pk() else { return Ok(None) };
    let rows: Vec<Row> = ord.iter().take(k).map(|&i| t.rows()[i as usize].clone()).collect();
    Ok(Some(Relation { schema: RelSchema::qualified(qualifier, t.column_names()), rows }))
}

/// The columns this SELECT reads from its FROM relation, for the
/// optimizer's join-output pruning. `None` — meaning "keep everything" —
/// on wildcards and on any subquery (whose correlated references
/// [`Expr::walk`] cannot see). Alias/ordinal ORDER BY references resolve
/// to projection expressions whose columns are already collected; raw
/// names are included as-is, which at worst over-keeps.
fn needed_columns(core: &SelectCore, order_by: &[OrderItem]) -> Option<Vec<NeededCol>> {
    let mut out = Vec::new();
    let mut add = |e: &Expr| -> Option<()> {
        let mut cols = crate::optimizer::expr_columns(e)?;
        out.append(&mut cols);
        Some(())
    };
    for item in &core.projection {
        match item {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => return None,
            SelectItem::Expr { expr, .. } => add(expr)?,
        }
    }
    for g in &core.group_by {
        add(g)?;
    }
    if let Some(h) = &core.having {
        add(h)?;
    }
    for o in order_by {
        add(&o.expr)?;
    }
    Some(out)
}

/// The non-aggregated projection loop.
///
/// Fast paths, checked in order:
/// 1. the projection is exactly the input schema → the input rows are
///    **shared** unchanged (zero work per row);
/// 2. every projected item is a plain input column → cells are gathered by
///    index (O(1) clones, no expression evaluation);
/// 3. otherwise each expression is evaluated per row against a reusable
///    [`RowCtx`].
fn project_rows(
    projection: &[(Expr, ColRef)],
    order_exprs: &[Expr],
    input: &Relation,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<RowsAndKeys> {
    let col_indices: Option<Vec<usize>> = projection
        .iter()
        .map(|(e, _)| match e {
            Expr::Column { table, name } => {
                input.schema.resolve(table.as_deref(), name).ok().flatten()
            }
            _ => None,
        })
        .collect();

    // Sort keys: either an ordinal into the projected row or an expression
    // over the input row (bound once, evaluated per row).
    let order_exprs: Vec<Expr> =
        order_exprs.iter().map(|e| bind_columns(e, &input.schema)).collect();
    let build_keys = |out: &[Value], rc: &RowCtx<'_>| -> Result<Vec<Value>> {
        output_sort_keys(&order_exprs, projection.len(), out, &mut |e| eval(e, ctx, Some(rc)))
    };

    let mut keys = Vec::with_capacity(if order_exprs.is_empty() { 0 } else { input.rows.len() });

    if let Some(idxs) = col_indices {
        let identity =
            idxs.len() == input.schema.len() && idxs.iter().enumerate().all(|(i, &j)| i == j);
        if identity {
            // SELECT * (or an exact column echo): share the rows wholesale.
            if !order_exprs.is_empty() {
                for row in &input.rows {
                    let rc = RowCtx { schema: &input.schema, row, outer };
                    keys.push(build_keys(row, &rc)?);
                }
            }
            return Ok((input.rows.clone(), keys));
        }
        // Column subset/permutation: gather cells by index, one shared
        // allocation per row.
        let mut rows: Vec<Row> = Vec::with_capacity(input.rows.len());
        for row in &input.rows {
            let out: Row = idxs.iter().map(|&i| row[i].clone()).collect();
            if !order_exprs.is_empty() {
                let rc = RowCtx { schema: &input.schema, row, outer };
                keys.push(build_keys(&out, &rc)?);
            }
            rows.push(out);
        }
        return Ok((rows, keys));
    }

    // General path: bind every projected expression to the input schema
    // once, then evaluate per row with direct index loads; range-order
    // concatenation keeps the output in input order at every thread
    // count.
    let bound: Vec<Expr> = projection
        .iter()
        .map(|(e, _)| bind_columns(e, &input.schema))
        .collect();
    let chunks = try_morsels(input.rows.len(), ctx, |range, wctx| {
        let mut rows: Vec<Row> = Vec::with_capacity(range.len());
        let mut keys = Vec::new();
        for row in &input.rows[range] {
            let rc = RowCtx { schema: &input.schema, row, outer };
            let mut out = Vec::with_capacity(projection.len());
            for e in &bound {
                out.push(eval(e, wctx, Some(&rc))?);
            }
            if !order_exprs.is_empty() {
                // `order_exprs` was bound to the input schema above.
                keys.push(output_sort_keys(&order_exprs, projection.len(), &out, &mut |e| {
                    eval(e, wctx, Some(&rc))
                })?);
            }
            rows.push(out.into());
        }
        Ok((rows, keys))
    })?;
    let (rows, keys): (Vec<_>, Vec<_>) = chunks.into_iter().unzip();
    Ok((concat(rows), concat(keys)))
}

/// Expand wildcards and name each projected column.
fn expand_projection(
    items: &[SelectItem],
    input: &RelSchema,
) -> Result<Vec<(Expr, ColRef)>> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        match item {
            SelectItem::Wildcard => {
                if input.is_empty() {
                    return Err(Error::Semantic("SELECT * with no FROM clause".into()));
                }
                for c in &input.cols {
                    out.push((
                        Expr::Column { table: c.qualifier.clone(), name: c.name.clone() },
                        c.clone(),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let mut any = false;
                for c in &input.cols {
                    if c.qualifier.as_deref().is_some_and(|x| x.eq_ignore_ascii_case(q)) {
                        out.push((
                            Expr::Column { table: c.qualifier.clone(), name: c.name.clone() },
                            c.clone(),
                        ));
                        any = true;
                    }
                }
                if !any {
                    return Err(Error::Unresolved(format!("{q}.*")));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = match alias {
                    Some(a) => a.clone(),
                    None => match expr {
                        Expr::Column { name, .. } => name.clone(),
                        other => crate::display::expr_to_sql(other),
                    },
                };
                let qualifier = match (alias, expr) {
                    (None, Expr::Column { table, .. }) => table.clone(),
                    _ => None,
                };
                out.push((expr.clone(), ColRef::new(qualifier, name)));
            }
        }
    }
    Ok(out)
}

/// Rewrite a reference to a projection alias or ordinal into the underlying
/// expression; leave genuine input-column references untouched.
fn resolve_output_ref(
    expr: &Expr,
    projection: &[(Expr, ColRef)],
    input: &RelSchema,
) -> Result<Expr> {
    if let Expr::Column { table: None, name } = expr {
        // Input columns shadow aliases (SQL standard).
        if input.resolve(None, name).unwrap_or(None).is_none() {
            if let Some((e, _)) = projection
                .iter()
                .find(|(_, c)| c.name.eq_ignore_ascii_case(name))
            {
                return Ok(e.clone());
            }
        }
    }
    Ok(expr.clone())
}

fn distinct_in_place(rows: &mut Vec<Row>, keys: &mut Vec<Vec<Value>>) {
    let mut seen = set_with_capacity(rows.len());
    let mut kept_rows = Vec::with_capacity(rows.len());
    let mut kept_keys = Vec::with_capacity(keys.len());
    for (i, row) in rows.drain(..).enumerate() {
        if seen.insert(row_key(&row)) {
            if !keys.is_empty() {
                kept_keys.push(std::mem::take(&mut keys[i]));
            }
            kept_rows.push(row);
        }
    }
    *rows = kept_rows;
    *keys = kept_keys;
}

// ---- aggregation ----------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn run_aggregate(
    core: &SelectCore,
    projection: &[(Expr, ColRef)],
    having: Option<&Expr>,
    order_exprs: &[Expr],
    input: &Relation,
    cols: Option<&ColInput>,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<RowsAndKeys> {
    // Partition input rows into groups, preserving first-seen order. The
    // grouping expressions are bound to the input schema once up front.
    //
    // Expression keys are **two-phase**: every row's grouping key is
    // evaluated range by range (fanned out when `try_morsels` says so),
    // then one merge pass partitions the rows using the precomputed keys.
    // The merge walks rows in input order, so group numbering (and thus
    // the unordered output order) is the same at every thread count.
    let mut group_index: FxHashMap<Vec<GroupKey>, usize> = FxHashMap::default();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    if core.group_by.is_empty() {
        groups.push((0..input.rows.len()).collect());
    } else {
        // Expensive calls in the grouping keys evaluate once per input
        // row: vectorize them before the key loop runs.
        if let Some(batch) = BatchableCalls::find(core.group_by.iter(), ctx) {
            batch.prefetch_rows(ctx, &input.schema, &input.rows, outer)?;
        }
        let bound_keys: Vec<Expr> =
            core.group_by.iter().map(|g| bind_columns(g, &input.schema)).collect();
        // Columnar key path: every grouping key is a plain column of a
        // scan-backed input — keys come straight from the typed columns
        // (no row deref, no eval), walking rows in order on the statement
        // thread, so first-seen group numbering does not depend on the
        // thread count.
        let columnar_keys: Option<Vec<&crate::columnar::ColumnVec>> = cols.and_then(|ci| {
            bound_keys
                .iter()
                .map(|g| match g {
                    Expr::BoundColumn(i) => ci.set.column(*i),
                    _ => None,
                })
                .collect()
        });
        if let (Some(kcols), Some(ci)) = (columnar_keys, cols) {
            for ri in 0..input.rows.len() {
                if ri % CANCEL_CHECK_ROWS == CANCEL_CHECK_ROWS - 1 {
                    ctx.check_cancel()?;
                }
                let src = match &ci.sel {
                    Some(sel) => sel[ri] as usize,
                    None => ri,
                };
                let key: Vec<GroupKey> = kcols.iter().map(|c| c.group_key_at(src)).collect();
                let gi = *group_index.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[gi].push(ri);
            }
        } else {
            // Phase 1: per-range key computation.
            let key_chunks = try_morsels(input.rows.len(), ctx, |range, wctx| {
                let mut keys = Vec::with_capacity(range.len());
                for row in &input.rows[range] {
                    let rc = RowCtx { schema: &input.schema, row, outer };
                    let mut key = Vec::with_capacity(bound_keys.len());
                    for g in &bound_keys {
                        key.push(eval(g, wctx, Some(&rc))?.group_key());
                    }
                    keys.push(key);
                }
                Ok(keys)
            })?;
            // Phase 2 (merge): first-seen group order == input order.
            for (ri, key) in key_chunks.into_iter().flatten().enumerate() {
                let gi = *group_index.entry(key).or_insert_with(|| {
                    groups.push(Vec::new());
                    groups.len() - 1
                });
                groups[gi].push(ri);
            }
        }
    }

    // A row of NULLs stands in for column references over an empty group
    // (only possible for the implicit single group of a table-less or
    // fully-filtered aggregate).
    let null_row: Vec<Value> = vec![Value::Null; input.schema.len()];

    // Vectorize the HAVING predicate's expensive calls: sites inside
    // aggregate arguments see every member row, sites outside see one
    // representative row per group.
    if let Some(batch) = BatchableCalls::find(having, ctx) {
        batch.prefetch_scope(true, ctx, &mut |collect| {
            for row in &input.rows {
                collect(&RowCtx { schema: &input.schema, row, outer })?;
            }
            Ok(())
        })?;
        batch.prefetch_scope(false, ctx, &mut |collect| {
            for members in &groups {
                if let Some(&i) = members.first() {
                    collect(&RowCtx { schema: &input.schema, row: &input.rows[i], outer })?;
                }
            }
            Ok(())
        })?;
    }

    // Apply HAVING before any output-site prefetch: batching must not pay
    // for projection/sort-key calls on groups HAVING rejects (the per-row
    // path skips their output expressions entirely). Groups are
    // independent, so the per-group predicate (aggregates included) is
    // dispatched over ranges of groups.
    let survivors: Vec<&Vec<usize>> = match having {
        None => groups.iter().collect(),
        Some(h) => {
            let verdicts = try_morsels(groups.len(), ctx, |range, wctx| {
                let mut keep = Vec::with_capacity(range.len());
                for members in &groups[range] {
                    let rep: &[Value] = match members.first() {
                        Some(&i) => &input.rows[i],
                        None => &null_row,
                    };
                    let rep_ctx = RowCtx { schema: &input.schema, row: rep, outer };
                    keep.push(
                        materialize_and_eval(h, members, input, cols, wctx, &rep_ctx)?
                            .truthiness()
                            == Some(true),
                    );
                }
                Ok(keep)
            })?;
            groups
                .iter()
                .zip(verdicts.into_iter().flatten())
                .filter(|(_, keep)| *keep)
                .map(|(g, _)| g)
                .collect()
        }
    };

    // Vectorize the output expressions over the surviving groups only.
    let exprs = projection.iter().map(|(e, _)| e).chain(order_exprs.iter());
    if let Some(batch) = BatchableCalls::find(exprs, ctx) {
        batch.prefetch_scope(true, ctx, &mut |collect| {
            for members in &survivors {
                for &ri in members.iter() {
                    collect(&RowCtx { schema: &input.schema, row: &input.rows[ri], outer })?;
                }
            }
            Ok(())
        })?;
        batch.prefetch_scope(false, ctx, &mut |collect| {
            for members in &survivors {
                if let Some(&i) = members.first() {
                    collect(&RowCtx { schema: &input.schema, row: &input.rows[i], outer })?;
                }
            }
            Ok(())
        })?;
    }

    // Per-group output: aggregates and the residual projection evaluate
    // per surviving group — independent work, dispatched over ranges of
    // groups.
    let chunks = try_morsels(survivors.len(), ctx, |range, wctx| {
        let mut rows: Vec<Row> = Vec::with_capacity(range.len());
        let mut keys = Vec::new();
        for members in &survivors[range] {
            let rep: &[Value] = match members.first() {
                Some(&i) => &input.rows[i],
                None => &null_row,
            };
            let rep_ctx = RowCtx { schema: &input.schema, row: rep, outer };
            let mut out = Vec::with_capacity(projection.len());
            for (e, _) in projection {
                out.push(materialize_and_eval(e, members, input, cols, wctx, &rep_ctx)?);
            }
            if !order_exprs.is_empty() {
                keys.push(output_sort_keys(order_exprs, projection.len(), &out, &mut |e| {
                    materialize_and_eval(e, members, input, cols, wctx, &rep_ctx)
                })?);
            }
            rows.push(out.into());
        }
        Ok((rows, keys))
    })?;
    let (rows, keys): (Vec<_>, Vec<_>) = chunks.into_iter().unzip();
    Ok((concat(rows), concat(keys)))
}

/// Replace aggregate calls in `expr` with their computed literals, then
/// evaluate the residual expression on the group's representative row.
fn materialize_and_eval(
    expr: &Expr,
    members: &[usize],
    input: &Relation,
    cols: Option<&ColInput>,
    ctx: &ExecCtx<'_>,
    rep_ctx: &RowCtx<'_>,
) -> Result<Value> {
    let rewritten = replace_aggregates(expr, members, input, cols, ctx, rep_ctx)?;
    eval(&rewritten, ctx, Some(rep_ctx))
}

fn replace_aggregates(
    expr: &Expr,
    members: &[usize],
    input: &Relation,
    cols: Option<&ColInput>,
    ctx: &ExecCtx<'_>,
    rep_ctx: &RowCtx<'_>,
) -> Result<Expr> {
    Ok(match expr {
        Expr::Function { name, args, distinct, star } if is_aggregate(name) => {
            Expr::Literal(compute_aggregate(
                name, args, *distinct, *star, members, input, cols, ctx, rep_ctx,
            )?)
        }
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(replace_aggregates(left, members, input, cols, ctx, rep_ctx)?),
            right: Box::new(replace_aggregates(right, members, input, cols, ctx, rep_ctx)?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(replace_aggregates(expr, members, input, cols, ctx, rep_ctx)?),
        },
        Expr::Function { name, args, distinct, star } => Expr::Function {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| replace_aggregates(a, members, input, cols, ctx, rep_ctx))
                .collect::<Result<_>>()?,
            distinct: *distinct,
            star: *star,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(replace_aggregates(expr, members, input, cols, ctx, rep_ctx)?),
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated, glob } => Expr::Like {
            expr: Box::new(replace_aggregates(expr, members, input, cols, ctx, rep_ctx)?),
            pattern: Box::new(replace_aggregates(pattern, members, input, cols, ctx, rep_ctx)?),
            negated: *negated,
            glob: *glob,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(replace_aggregates(expr, members, input, cols, ctx, rep_ctx)?),
            low: Box::new(replace_aggregates(low, members, input, cols, ctx, rep_ctx)?),
            high: Box::new(replace_aggregates(high, members, input, cols, ctx, rep_ctx)?),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(replace_aggregates(expr, members, input, cols, ctx, rep_ctx)?),
            list: list
                .iter()
                .map(|e| replace_aggregates(e, members, input, cols, ctx, rep_ctx))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Case { operand, branches, else_expr } => Expr::Case {
            operand: match operand {
                Some(o) => Some(Box::new(replace_aggregates(o, members, input, cols, ctx, rep_ctx)?)),
                None => None,
            },
            branches: branches
                .iter()
                .map(|(w, t)| {
                    Ok((
                        replace_aggregates(w, members, input, cols, ctx, rep_ctx)?,
                        replace_aggregates(t, members, input, cols, ctx, rep_ctx)?,
                    ))
                })
                .collect::<Result<_>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(replace_aggregates(e, members, input, cols, ctx, rep_ctx)?)),
                None => None,
            },
        },
        Expr::Cast { expr, type_name } => Expr::Cast {
            expr: Box::new(replace_aggregates(expr, members, input, cols, ctx, rep_ctx)?),
            type_name: type_name.clone(),
        },
        // Leaves and subqueries (own scope) pass through.
        other => other.clone(),
    })
}

#[allow(clippy::too_many_arguments)]
fn compute_aggregate(
    name: &str,
    args: &[Expr],
    distinct: bool,
    star: bool,
    members: &[usize],
    input: &Relation,
    cols: Option<&ColInput>,
    ctx: &ExecCtx<'_>,
    rep_ctx: &RowCtx<'_>,
) -> Result<Value> {
    let upper = name.to_ascii_uppercase();

    if star {
        if upper != "COUNT" {
            return Err(Error::Semantic(format!("{name}(*) is not valid")));
        }
        return Ok(Value::Integer(members.len() as i64));
    }

    // Gather the argument values per group row (NULLs excluded, per SQL).
    // The argument is bound to the input schema once per group.
    let arg = args
        .first()
        .ok_or_else(|| Error::Semantic(format!("{name}() requires an argument")))?;
    let arg = bind_columns(arg, &input.schema);
    // Columnar fast path: a plain column argument over a scan-backed
    // input runs as a typed loop over the column — no row deref, no
    // per-cell eval, no gather vector. DISTINCT, GROUP_CONCAT and
    // type-unstable (Mixed) columns take the row loop below.
    if !distinct {
        if let (Some(ci), Expr::BoundColumn(j), Some(kind)) =
            (cols, &arg, AggKernel::from_name(&upper))
        {
            if let Some(col) = ci.set.column(*j) {
                let result = match &ci.sel {
                    None => crate::columnar::eval_aggregate(kind, col, members),
                    Some(sel) => {
                        let mapped: Vec<usize> =
                            members.iter().map(|&ri| sel[ri] as usize).collect();
                        crate::columnar::eval_aggregate(kind, col, &mapped)
                    }
                };
                if let Some(v) = result {
                    return v;
                }
            }
        }
    }
    let mut vals = Vec::with_capacity(members.len());
    for &ri in members {
        let rc = RowCtx { schema: &input.schema, row: &input.rows[ri], outer: rep_ctx.outer };
        let v = eval(&arg, ctx, Some(&rc))?;
        if !v.is_null() {
            vals.push(v);
        }
    }
    if distinct {
        let mut seen = std::collections::HashSet::new();
        vals.retain(|v| seen.insert(v.group_key()));
    }

    match upper.as_str() {
        "COUNT" => Ok(Value::Integer(vals.len() as i64)),
        "SUM" | "TOTAL" => {
            if vals.is_empty() {
                return Ok(if upper == "TOTAL" { Value::Real(0.0) } else { Value::Null });
            }
            if upper == "SUM" && vals.iter().all(|v| matches!(v, Value::Integer(_))) {
                let mut acc: i64 = 0;
                for v in &vals {
                    if let Value::Integer(i) = v {
                        acc = acc
                            .checked_add(*i)
                            .ok_or_else(|| Error::Arithmetic("integer overflow in SUM".into()))?;
                    }
                }
                Ok(Value::Integer(acc))
            } else {
                let mut acc = 0.0;
                for v in &vals {
                    acc += v.as_f64().unwrap_or(0.0);
                }
                Ok(Value::Real(acc))
            }
        }
        "AVG" => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            // Accumulate from +0.0 like SUM and the columnar kernel;
            // `Iterator::sum` starts from -0.0, which an all-`-0.0` group
            // would keep.
            let sum = vals.iter().fold(0.0, |acc, v| acc + v.as_f64().unwrap_or(0.0));
            Ok(Value::Real(sum / vals.len() as f64))
        }
        "MIN" => Ok(vals
            .into_iter()
            .min_by(|a, b| a.sort_cmp(b))
            .unwrap_or(Value::Null)),
        "MAX" => Ok(vals
            .into_iter()
            .max_by(|a, b| a.sort_cmp(b))
            .unwrap_or(Value::Null)),
        "GROUP_CONCAT" => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let sep = match args.get(1) {
                Some(e) => eval(e, ctx, Some(rep_ctx))?.render(),
                None => ",".to_string(),
            };
            Ok(Value::text(
                vals.iter().map(Value::render).collect::<Vec<_>>().join(&sep),
            ))
        }
        other => Err(Error::Unresolved(format!("aggregate function {other}"))),
    }
}

// ---- plan execution --------------------------------------------------------

/// Materialize a plan into a relation. Each operator hands its loop to
/// [`try_morsels`], which alone decides whether it fans out.
pub fn exec_plan(
    plan: &Plan,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Relation> {
    // Per-plan-node cooperative checkpoint: a cancelled/expired statement
    // stops before materializing the next operator's output.
    ctx.check_cancel()?;
    match plan {
        Plan::Empty => Ok(Relation { schema: RelSchema::default(), rows: vec![Vec::new().into()] }),

        Plan::Scan { table, qualifier } => {
            let t = ctx.catalog.get_required(table)?;
            // The whole scan is refcount bumps: stored rows are shared, not
            // deep-copied.
            Ok(Relation {
                schema: RelSchema::qualified(qualifier, t.column_names()),
                rows: t.rows().to_vec(),
            })
        }

        Plan::IndexScan { table, qualifier, bounds } => {
            let t = ctx.catalog.get_required(table)?;
            // Emit rows in ascending row order so the output is
            // byte-identical to the full scan the filter above would
            // otherwise read (`pk_range` already sorts its matches).
            let rows: Vec<Row> = match t.pk_probe(bounds) {
                Some(sel) => sel.iter().map(|&i| t.rows()[i as usize].clone()).collect(),
                // No primary key (dropped since planning): fall back to
                // the full scan the filter expects.
                None => t.rows().to_vec(),
            };
            Ok(Relation { schema: RelSchema::qualified(qualifier, t.column_names()), rows })
        }

        Plan::Derived { query, qualifier } => {
            let inner = run_select(query, ctx, outer)?;
            // Re-qualify every output column with the derived-table alias.
            let cols = inner
                .schema
                .cols
                .into_iter()
                .map(|c| ColRef::new(Some(qualifier.clone()), c.name))
                .collect();
            Ok(Relation { schema: RelSchema::new(cols), rows: inner.rows })
        }

        // A filter batches its own call sites, like every other operator:
        // the cheap conjuncts prune first, the expensive conjuncts' calls
        // are vectorized across the survivors on the statement thread (the
        // one `invoke_batch` fans out through the same shared pool), and
        // the expensive conjuncts then evaluate per row against the
        // prefetched results. Each conjunct is collected on its own, so a
        // second expensive conjunct is not "the right-hand side of AND".
        Plan::Filter { input, predicate } => {
            if !batches_expensive(predicate, ctx) {
                return filter_input(input, predicate, ctx, outer);
            }
            let (expensive, cheap): (Vec<Expr>, Vec<Expr>) = split_conjuncts(predicate)
                .into_iter()
                .partition(|c| expr_cost(c, ctx.udfs) >= 2);
            let mut rel = match conjoin(cheap) {
                Some(cheap) => filter_input(input, &cheap, ctx, outer)?,
                None => exec_plan(input, ctx, outer)?,
            };
            if let Some(batch) = BatchableCalls::find(expensive.iter(), ctx) {
                batch.prefetch_rows(ctx, &rel.schema, &rel.rows, outer)?;
            }
            let expensive = conjoin(expensive).expect("an expensive conjunct");
            filter_relation(&mut rel, &expensive, ctx, outer)?;
            Ok(rel)
        }

        Plan::Permute { input, mapping } => {
            let rel = exec_plan(input, ctx, outer)?;
            let schema = RelSchema::new(
                mapping.iter().map(|&i| rel.schema.cols[i].clone()).collect(),
            );
            let chunks = try_morsels(rel.rows.len(), ctx, |range, _| {
                Ok(rel.rows[range]
                    .iter()
                    .map(|r| mapping.iter().map(|&i| r[i].clone()).collect::<Row>())
                    .collect::<Vec<Row>>())
            })?;
            Ok(Relation { schema, rows: concat(chunks) })
        }

        Plan::Join { left, right, kind, on, emit } => {
            let l = exec_source(left, ctx, outer)?;
            let r = exec_source(right, ctx, outer)?;
            exec_join(&l, &r, *kind, on.as_ref(), emit.as_deref(), ctx, outer)
        }
    }
}

/// Does `expr` call an expensive UDF that this statement evaluates batched?
fn batches_expensive(expr: &Expr, ctx: &ExecCtx<'_>) -> bool {
    ctx.optimizer.batch_expensive_udfs && expr_cost(expr, ctx.udfs) >= 2
}

/// `input`'s rows that pass `predicate`, nothing prefetched. Columnar
/// filters beat per-row evaluation on the predicate shapes the kernels
/// support: one pass over the key columns, no per-row dispatch, at any
/// thread count.
fn filter_input(
    input: &Plan,
    predicate: &Expr,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Relation> {
    if let Some((rel, _)) = columnar_filter(input, predicate, ctx)? {
        return Ok(rel);
    }
    let mut rel = exec_plan(input, ctx, outer)?;
    filter_relation(&mut rel, predicate, ctx, outer)?;
    Ok(rel)
}

/// Columnar scan state accompanying a [`Relation`] whose rows came
/// straight from a base-table scan, possibly filtered: the table's cached
/// column set plus the selection that produced the relation (`None` =
/// every row, in order). Relation row `k` is column-set row
/// `sel[k]` (or `k`), which lets aggregation read columns instead of rows.
struct ColInput {
    set: Arc<ColumnSet>,
    sel: Option<Vec<u32>>,
}

/// Try the vectorized filter path for a `Filter` directly over a base-table
/// `Scan`: reuse the table's cached column set, run the predicate kernels
/// over every row, and gather the surviving rows as shared-row clones —
/// byte-identical to the serial retain loop, in the same order. Returns
/// `None` when the shape or the predicate is outside kernel coverage; the
/// caller then runs the row path, which stays authoritative.
fn columnar_filter(
    input: &Plan,
    predicate: &Expr,
    ctx: &ExecCtx<'_>,
) -> Result<Option<(Relation, ColInput)>> {
    if !ctx.optimizer.columnar {
        return Ok(None);
    }
    let Plan::Scan { table, qualifier } = input else {
        return Ok(None);
    };
    let t = ctx.catalog.get_required(table)?;
    let schema = RelSchema::qualified(qualifier, t.column_names());
    let bound = bind_columns(predicate, &schema);
    let set = t.column_set();
    let Some(verdict) = crate::columnar::eval_predicate(&bound, &set) else {
        return Ok(None);
    };
    ctx.check_cancel()?;
    let sel = verdict.selected();
    let rows = sel.iter().map(|&i| t.rows()[i as usize].clone()).collect();
    Ok(Some((Relation { schema, rows }, ColInput { set, sel: Some(sel) })))
}

/// Execute a plan, also returning the columnar scan state when the plan is
/// a bare scan or a kernel-supported filter over one — the shapes whose
/// output rows map 1:1 onto a cached column set. `run_core` hands the state
/// to aggregation, which then evaluates GROUP BY keys and aggregate loops
/// over columns.
fn exec_plan_with_columns(
    plan: &Plan,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<(Relation, Option<ColInput>)> {
    if ctx.optimizer.columnar {
        match plan {
            Plan::Scan { table, qualifier } => {
                let t = ctx.catalog.get_required(table)?;
                let rel = Relation {
                    schema: RelSchema::qualified(qualifier, t.column_names()),
                    rows: t.rows().to_vec(),
                };
                return Ok((rel, Some(ColInput { set: t.column_set(), sel: None })));
            }
            // (A batched expensive filter never maps 1:1 onto the column
            // set: its expensive conjuncts have no kernel.)
            Plan::Filter { input, predicate } if !batches_expensive(predicate, ctx) => {
                if let Some((rel, ci)) = columnar_filter(input, predicate, ctx)? {
                    return Ok((rel, Some(ci)));
                }
            }
            _ => {}
        }
    }
    Ok((exec_plan(plan, ctx, outer)?, None))
}

/// The batch filter: the predicate's columns are bound to indices up
/// front, each range evaluates into a keep-bitmap, and one in-place
/// compaction drops the rejected rows — survivors are never cloned or moved
/// into a fresh vector, and input order is kept.
fn filter_relation(
    rel: &mut Relation,
    predicate: &Expr,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<()> {
    let predicate = bind_columns(predicate, &rel.schema);
    let (schema, rows) = (&rel.schema, &rel.rows);
    let keep = try_morsels(rows.len(), ctx, |range, wctx| {
        let mut keep = Vec::with_capacity(range.len());
        for (off, row) in rows[range.clone()].iter().enumerate() {
            prefetch_row(rows, range.start + off + PREFETCH_AHEAD);
            let rc = RowCtx { schema, row, outer };
            keep.push(eval(&predicate, wctx, Some(&rc))?.truthiness() == Some(true));
        }
        Ok(keep)
    })?;
    let mut keep = keep.iter().flatten();
    rel.rows.retain(|_| *keep.next().unwrap_or(&false));
    Ok(())
}

/// A join input: scans are *borrowed* straight out of the catalog (zero
/// refcount traffic — the join only reads them), everything else is
/// materialized through [`exec_plan`].
enum JoinInput<'a> {
    Borrowed { schema: RelSchema, rows: &'a [Row], cols: Option<Arc<ColumnSet>> },
    Owned(Relation),
}

impl JoinInput<'_> {
    fn schema(&self) -> &RelSchema {
        match self {
            JoinInput::Borrowed { schema, .. } => schema,
            JoinInput::Owned(rel) => &rel.schema,
        }
    }

    fn rows(&self) -> &[Row] {
        match self {
            JoinInput::Borrowed { rows, .. } => rows,
            JoinInput::Owned(rel) => &rel.rows,
        }
    }

    /// The table's cached column set, for scan inputs under the columnar
    /// toggle: join keys then come from the key column directly instead
    /// of dereferencing each row.
    fn cols(&self) -> Option<&Arc<ColumnSet>> {
        match self {
            JoinInput::Borrowed { cols, .. } => cols.as_ref(),
            JoinInput::Owned(_) => None,
        }
    }

    /// The single key column for vectorized key extraction, when this
    /// input is a scan with a cached column set and the key side is one
    /// direct column index.
    fn key_column(&self, key: &KeySide) -> Option<&crate::columnar::ColumnVec> {
        match (self.cols(), key) {
            (Some(set), KeySide::Direct(idxs)) => match idxs[..] {
                [i] => set.column(i),
                _ => None,
            },
            _ => None,
        }
    }
}

fn exec_source<'a>(
    plan: &Plan,
    ctx: &ExecCtx<'a>,
    outer: Option<&RowCtx<'_>>,
) -> Result<JoinInput<'a>> {
    match plan {
        Plan::Scan { table, qualifier } => {
            let t = ctx.catalog.get_required(table)?;
            Ok(JoinInput::Borrowed {
                schema: RelSchema::qualified(qualifier, t.column_names()),
                rows: t.rows(),
                cols: ctx.optimizer.columnar.then(|| t.column_set()),
            })
        }
        other => Ok(JoinInput::Owned(exec_plan(other, ctx, outer)?)),
    }
}

/// The emission shape of a join: either whole combined rows or a pruned
/// gather of `indices` from the conceptual (left + right) row. Width-zero
/// pruning re-shares a single empty row — no per-row allocation at all.
struct Emission {
    indices: Option<Vec<usize>>,
    left_width: usize,
    empty: Row,
}

impl Emission {
    fn new(indices: Option<&[usize]>, left_width: usize) -> Self {
        Emission {
            indices: indices.map(|i| i.to_vec()),
            left_width,
            empty: Vec::new().into(),
        }
    }

    /// Emit the (possibly pruned) combined row for a match.
    #[inline]
    fn matched(&self, lrow: &[Value], rrow: &[Value]) -> Row {
        match &self.indices {
            None => combine(lrow, rrow),
            Some(idx) if idx.is_empty() => self.empty.clone(),
            Some(idx) => idx
                .iter()
                .map(|&i| {
                    if i < self.left_width {
                        lrow[i].clone()
                    } else {
                        rrow[i - self.left_width].clone()
                    }
                })
                .collect(),
        }
    }

    /// Emit a LEFT-join non-match: left cells, NULL-padded right.
    #[inline]
    fn unmatched(&self, lrow: &[Value], right_width: usize) -> Row {
        match &self.indices {
            None => pad_right(lrow, right_width),
            Some(idx) if idx.is_empty() => self.empty.clone(),
            Some(idx) => idx
                .iter()
                .map(|&i| {
                    if i < self.left_width {
                        lrow[i].clone()
                    } else {
                        Value::Null
                    }
                })
                .collect(),
        }
    }
}

fn exec_join(
    left: &JoinInput<'_>,
    right: &JoinInput<'_>,
    kind: PlanJoinKind,
    on: Option<&Expr>,
    emit: Option<&[usize]>,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Relation> {
    // Residual predicates always evaluate against the full combined
    // schema; the output relation carries only the emitted columns.
    let full_schema = left.schema().join(right.schema());
    let out_schema = match emit {
        None => full_schema.clone(),
        Some(idx) => RelSchema::new(idx.iter().map(|&i| full_schema.cols[i].clone()).collect()),
    };
    let emission = Emission::new(emit, left.schema().len());

    // Try to split the ON predicate into hashable equi-pairs + residual.
    let (equi, residual) = match on {
        Some(pred) if kind != PlanJoinKind::Cross => {
            split_equi_join(pred, left.schema(), right.schema())
        }
        Some(pred) => (Vec::new(), Some(pred.clone())),
        None => (Vec::new(), None),
    };

    let residual = residual.as_ref();
    let rows = if equi.is_empty() {
        nested_loop_join(left, right, kind, residual, &full_schema, &emission, ctx, outer)?
    } else {
        hash_join(left, right, kind, &equi, residual, &full_schema, &emission, ctx, outer)?
    };
    Ok(Relation { schema: out_schema, rows })
}

/// Dispatch a join's probe loop whose candidate pairs go through
/// `residual`. Expensive UDF calls in the residual are answered by one
/// batched prefetch over the candidate pairs; whatever that prefetch
/// misses is invoked per candidate, and only an inline probe invokes each
/// such tuple once — fanned out, workers would repeat each other's calls.
fn residual_morsels<'a, T, F>(
    count: usize,
    residual: Option<&Expr>,
    ctx: &ExecCtx<'a>,
    f: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(std::ops::Range<usize>, &ExecCtx<'a>) -> Result<T> + Sync,
{
    if residual.is_some_and(|r| batches_expensive(r, ctx)) {
        inline_morsels(count, ctx, f)
    } else {
        try_morsels(count, ctx, f)
    }
}

/// Extract `l_expr = r_expr` conjuncts where each side is computable from
/// one input. Returns (pairs, residual predicate).
fn split_equi_join(
    pred: &Expr,
    left: &RelSchema,
    right: &RelSchema,
) -> (Vec<(Expr, Expr)>, Option<Expr>) {
    let mut pairs = Vec::new();
    let mut residual = Vec::new();
    for c in split_conjuncts(pred) {
        if let Expr::Binary { op: BinaryOp::Eq, left: a, right: b } = &c {
            if left.covers(a) && right.covers(b) {
                pairs.push(((**a).clone(), (**b).clone()));
                continue;
            }
            if left.covers(b) && right.covers(a) {
                pairs.push(((**b).clone(), (**a).clone()));
                continue;
            }
        }
        residual.push(c);
    }
    (pairs, conjoin(residual))
}

/// Hash-join key: the single-column case (the overwhelmingly common one)
/// avoids a per-row `Vec` allocation entirely.
#[derive(PartialEq, Eq, Hash)]
enum JoinKey {
    One(GroupKey),
    Many(Vec<GroupKey>),
}

/// Evaluate the key expressions of one side for one row; `None` marks a
/// NULL in any key column (NULL never joins).
fn join_key(
    exprs: &[Expr],
    rc: &RowCtx<'_>,
    ctx: &ExecCtx<'_>,
) -> Result<Option<JoinKey>> {
    if let [only] = exprs {
        let v = eval(only, ctx, Some(rc))?;
        if v.is_null() {
            return Ok(None);
        }
        return Ok(Some(JoinKey::One(v.group_key())));
    }
    let mut key = Vec::with_capacity(exprs.len());
    for e in exprs {
        let v = eval(e, ctx, Some(rc))?;
        if v.is_null() {
            return Ok(None);
        }
        key.push(v.group_key());
    }
    Ok(Some(JoinKey::Many(key)))
}

/// Emit one combined row (left cells then right cells, always in schema
/// order regardless of which side was the build side). The chained
/// iterator is `TrustedLen`, so `collect` writes straight into the shared
/// allocation — one malloc per emitted row, no intermediate `Vec`.
#[inline]
fn combine(lrow: &[Value], rrow: &[Value]) -> Row {
    lrow.iter().chain(rrow.iter()).cloned().collect()
}

/// A LEFT-join non-match: the left cells padded with NULLs on the right.
#[inline]
fn pad_right(lrow: &[Value], right_width: usize) -> Row {
    lrow.iter()
        .cloned()
        .chain(std::iter::repeat_n(Value::Null, right_width))
        .collect()
}

/// How one side of a hash join extracts its key per row: `Direct` column
/// indices (zero-eval, zero-clone) when every key expression is a bound
/// column — the overwhelmingly common `a.x = b.y` shape — or general bound
/// expressions otherwise.
enum KeySide {
    Direct(Vec<usize>),
    Exprs(Vec<Expr>),
}

impl KeySide {
    fn new(bound: Vec<Expr>) -> KeySide {
        let direct: Option<Vec<usize>> = bound
            .iter()
            .map(|e| match e {
                Expr::BoundColumn(i) => Some(*i),
                _ => None,
            })
            .collect();
        match direct {
            Some(idxs) => KeySide::Direct(idxs),
            None => KeySide::Exprs(bound),
        }
    }

    /// Key of one row; `None` marks a NULL in any key column (NULL never
    /// joins).
    #[inline]
    fn key(
        &self,
        row: &[Value],
        schema: &RelSchema,
        ctx: &ExecCtx<'_>,
        outer: Option<&RowCtx<'_>>,
    ) -> Result<Option<JoinKey>> {
        match self {
            KeySide::Direct(idxs) => {
                if let [i] = idxs[..] {
                    let v = &row[i];
                    if v.is_null() {
                        return Ok(None);
                    }
                    return Ok(Some(JoinKey::One(v.group_key())));
                }
                let mut key = Vec::with_capacity(idxs.len());
                for &i in idxs {
                    let v = &row[i];
                    if v.is_null() {
                        return Ok(None);
                    }
                    key.push(v.group_key());
                }
                Ok(Some(JoinKey::Many(key)))
            }
            KeySide::Exprs(exprs) => {
                let rc = RowCtx { schema, row, outer };
                join_key(exprs, &rc, ctx)
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn hash_join(
    left: &JoinInput<'_>,
    right: &JoinInput<'_>,
    kind: PlanJoinKind,
    equi: &[(Expr, Expr)],
    residual: Option<&Expr>,
    schema: &RelSchema,
    emission: &Emission,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Vec<Row>> {
    // Build on the smaller side — legal for inner joins only: a LEFT join
    // must probe from the left to emit its NULL-padded non-matches.
    let build_left = kind == PlanJoinKind::Inner && left.rows().len() < right.rows().len();
    let (build, probe) = if build_left { (left, right) } else { (right, left) };

    // Bind each side's key expressions to its schema once; plain-column
    // keys degrade further into direct index loads with no eval at all.
    let bind_side = |exprs: Vec<&Expr>, schema: &RelSchema| -> KeySide {
        KeySide::new(exprs.iter().map(|e| bind_columns(e, schema)).collect())
    };
    let left_raw: Vec<&Expr> = equi.iter().map(|(l, _)| l).collect();
    let right_raw: Vec<&Expr> = equi.iter().map(|(_, r)| r).collect();
    let (build_key, probe_key) = if build_left {
        (bind_side(left_raw, build.schema()), bind_side(right_raw, probe.schema()))
    } else {
        (bind_side(right_raw, build.schema()), bind_side(left_raw, probe.schema()))
    };
    let residual = residual.map(|r| bind_columns(r, schema));

    // Expensive calls in a join key (`ON llm_map(...) = x`) are evaluated
    // per row of *one* side: vectorize them over that side's batch before
    // the build/probe loops run.
    for (key, side) in [(&build_key, build), (&probe_key, probe)] {
        if let KeySide::Exprs(exprs) = key {
            if let Some(batch) = BatchableCalls::find(exprs.iter(), ctx) {
                batch.prefetch_rows(ctx, side.schema(), side.rows(), outer)?;
            }
        }
    }

    // Pre-sized build table: one reallocation-free pass on the statement
    // thread, shared read-only by every probe range. Buckets inline the
    // single-row case (the norm for key/foreign-key joins), so a unique-key
    // build performs zero per-bucket allocations; bucket contents are in
    // build-row order.
    let build_rows = build.rows();
    let build_col = build.key_column(&build_key);
    let mut table: FxHashMap<JoinKey, Bucket> = map_with_capacity(build_rows.len());
    for (ri, row) in build_rows.iter().enumerate() {
        if ri % CANCEL_CHECK_ROWS == CANCEL_CHECK_ROWS - 1 {
            ctx.check_cancel()?;
        }
        let key = match build_col {
            // Scan build side with a single direct-column key: read the key
            // straight out of the table's column vector — no row deref.
            Some(col) => col.join_key_at(ri).map(JoinKey::One),
            None => {
                prefetch_row(build_rows, ri + PREFETCH_AHEAD);
                build_key.key(row, build.schema(), ctx, outer)?
            }
        };
        let Some(key) = key else { continue };
        match table.entry(key) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Bucket::One(ri as u32));
            }
            std::collections::hash_map::Entry::Occupied(mut o) => o.get_mut().push(ri as u32),
        }
    }

    // Expensive calls in the residual evaluate over combined candidate
    // rows: replay the probe loop once collecting the distinct argument
    // tuples (cheap — no emission), batch them, then run the real loop
    // against the prefetched results.
    if let Some(batch) = BatchableCalls::find(residual.as_ref(), ctx) {
        let mut scratch: Vec<Value> = Vec::with_capacity(schema.len());
        batch.prefetch(ctx, &mut |collect| {
            for prow in probe.rows() {
                let Some(key) = probe_key.key(prow, probe.schema(), ctx, outer)? else {
                    continue;
                };
                let Some(cands) = table.get(&key) else { continue };
                for &ri in cands.as_slice() {
                    let brow = &build.rows()[ri as usize];
                    let (lrow, rrow): (&[Value], &[Value]) =
                        if build_left { (brow, prow) } else { (prow, brow) };
                    scratch.clear();
                    scratch.extend_from_slice(lrow);
                    scratch.extend_from_slice(rrow);
                    collect(&RowCtx { schema, row: &scratch, outer })?;
                }
            }
            Ok(())
        })?;
    }

    // The probe: three loop shapes, each dispatched over ranges of probe
    // rows against the read-only table. Emission order within a range is
    // probe order, and ranges concatenate in order.
    let probe_rows = probe.rows();

    // Tight loop for the dominant shape — single direct-column key, no
    // residual, inner join (`a JOIN b ON a.x = b.y`): no per-row enum
    // plumbing, just load → hash → emit.
    if kind == PlanJoinKind::Inner && residual.is_none() {
        // Columnar probe: keys come from the probe table's key column, so
        // the probe row is only dereferenced on an actual match.
        if let Some(col) = probe.key_column(&probe_key) {
            return Ok(concat(try_morsels(probe_rows.len(), ctx, |range, _| {
                let mut out = Vec::with_capacity(range.len());
                for pi in range {
                    let Some(gk) = col.join_key_at(pi) else { continue };
                    if let Some(cands) = table.get(&JoinKey::One(gk)) {
                        let prow = &probe_rows[pi];
                        for &ri in cands.as_slice() {
                            let brow = &build_rows[ri as usize];
                            let (lrow, rrow): (&[Value], &[Value]) =
                                if build_left { (brow, prow) } else { (prow, brow) };
                            out.push(emission.matched(lrow, rrow));
                        }
                    }
                }
                Ok(out)
            })?));
        }
        if let KeySide::Direct(idxs) = &probe_key {
            if let [pk] = idxs[..] {
                return Ok(concat(try_morsels(probe_rows.len(), ctx, |range, _| {
                    let mut out = Vec::with_capacity(range.len());
                    for pi in range {
                        prefetch_row(probe_rows, pi + PREFETCH_AHEAD);
                        let prow = &probe_rows[pi];
                        let v = &prow[pk];
                        if v.is_null() {
                            continue;
                        }
                        if let Some(cands) = table.get(&JoinKey::One(v.group_key())) {
                            for &ri in cands.as_slice() {
                                let brow = &build_rows[ri as usize];
                                let (lrow, rrow): (&[Value], &[Value]) =
                                    if build_left { (brow, prow) } else { (prow, brow) };
                                out.push(emission.matched(lrow, rrow));
                            }
                        }
                    }
                    Ok(out)
                })?));
            }
        }
    }

    let right_width = right.schema().len();
    Ok(concat(residual_morsels(probe_rows.len(), residual.as_ref(), ctx, |range, wctx| {
        let mut out = Vec::with_capacity(range.len());
        // Scratch buffer for residual evaluation over the full combined
        // row; only allocated contents, never a fresh Vec per candidate.
        let mut scratch: Vec<Value> = Vec::with_capacity(schema.len());
        for pi in range {
            prefetch_row(probe_rows, pi + PREFETCH_AHEAD);
            let prow = &probe_rows[pi];
            let key = probe_key.key(prow, probe.schema(), wctx, outer)?;
            let mut matched = false;
            if let Some(key) = key {
                if let Some(cands) = table.get(&key) {
                    for &ri in cands.as_slice() {
                        let brow = &build_rows[ri as usize];
                        let (lrow, rrow): (&[Value], &[Value]) =
                            if build_left { (brow, prow) } else { (prow, brow) };
                        if let Some(res) = &residual {
                            scratch.clear();
                            scratch.extend_from_slice(lrow);
                            scratch.extend_from_slice(rrow);
                            let cc = RowCtx { schema, row: &scratch, outer };
                            if eval(res, wctx, Some(&cc))?.truthiness() != Some(true) {
                                continue;
                            }
                        }
                        matched = true;
                        out.push(emission.matched(lrow, rrow));
                    }
                }
            }
            if !matched && kind == PlanJoinKind::Left {
                // probe == left here (build_left is false for LEFT joins).
                out.push(emission.unmatched(prow, right_width));
            }
        }
        Ok(out)
    })?))
}

/// Distance (in rows) to prefetch ahead in streaming row loops. Rows are
/// individually heap-allocated `Arc<[Value]>`s, so without a hint every
/// row read is a dependent load that stalls on L3 once tables outgrow L2;
/// prefetching a handful of iterations ahead overlaps those misses.
const PREFETCH_AHEAD: usize = 8;

#[inline(always)]
fn prefetch_row(rows: &[Row], i: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(r) = rows.get(i) {
        // SAFETY: prefetch has no memory effects; any pointer is fine.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                r.as_ptr() as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            )
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (rows, i);
}

/// A hash-join bucket: row indices of the build side sharing one key,
/// with the single-row case stored inline (no allocation).
enum Bucket {
    One(u32),
    Many(Vec<u32>),
}

impl Bucket {
    fn push(&mut self, ri: u32) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, ri]),
            Bucket::Many(v) => v.push(ri),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            Bucket::One(i) => std::slice::from_ref(i),
            Bucket::Many(v) => v,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn nested_loop_join(
    left: &JoinInput<'_>,
    right: &JoinInput<'_>,
    kind: PlanJoinKind,
    on: Option<&Expr>,
    schema: &RelSchema,
    emission: &Emission,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Vec<Row>> {
    let on = on.map(|p| bind_columns(p, schema));
    // The predicate only reads its bound columns: gather exactly those into
    // a reused full-width scratch row (the rest stay NULL), so each of the
    // O(n·m) probes copies a couple of cells instead of whole rows. A
    // subquery inside ON can correlate with *any* combined-row column
    // (`Expr::walk` cannot see inside it), so that case gathers everything.
    let used: Vec<usize> = match &on {
        None => Vec::new(),
        Some(p) if crate::optimizer::expr_has_subquery(p) => (0..schema.len()).collect(),
        Some(p) => {
            let mut used = Vec::new();
            p.walk(&mut |e| {
                if let Expr::BoundColumn(i) = e {
                    if !used.contains(i) {
                        used.push(*i);
                    }
                }
            });
            used
        }
    };
    let lw = left.schema().len();
    let (lrows, rrows) = (left.rows(), right.rows());
    let gather = |scratch: &mut [Value], lrow: &[Value], rrow: &[Value]| {
        for &i in &used {
            scratch[i] = if i < lw { lrow[i].clone() } else { rrow[i - lw].clone() };
        }
    };

    // Vectorize expensive calls in the ON predicate over the candidate
    // pairs: the argument-tuple dedupe collapses the cross product to the
    // distinct tuples, so one batched call replaces O(n·m) row calls.
    if let Some(batch) = BatchableCalls::find(on.as_ref(), ctx) {
        let mut scratch: Vec<Value> = vec![Value::Null; schema.len()];
        batch.prefetch(ctx, &mut |collect| {
            for lrow in lrows {
                for rrow in rrows {
                    gather(&mut scratch, lrow, rrow);
                    collect(&RowCtx { schema, row: &scratch, outer })?;
                }
            }
            Ok(())
        })?;
    }

    // Ranges of the outer (left) side. The work per outer row is |right|,
    // unbounded by the range, so the inner loop keeps its own cancellation
    // check.
    Ok(concat(residual_morsels(lrows.len(), on.as_ref(), ctx, |range, wctx| {
        let mut out = Vec::new();
        let mut scratch: Vec<Value> = vec![Value::Null; schema.len()];
        let mut since_check = 0usize;
        for lrow in &lrows[range] {
            let mut matched = false;
            for rrow in rrows {
                since_check += 1;
                if since_check >= CANCEL_CHECK_ROWS {
                    since_check = 0;
                    wctx.check_cancel()?;
                }
                if let Some(pred) = &on {
                    gather(&mut scratch, lrow, rrow);
                    let cc = RowCtx { schema, row: &scratch, outer };
                    if eval(pred, wctx, Some(&cc))?.truthiness() != Some(true) {
                        continue;
                    }
                }
                matched = true;
                out.push(emission.matched(lrow, rrow));
            }
            if !matched && kind == PlanJoinKind::Left {
                out.push(emission.unmatched(lrow, right.schema().len()));
            }
        }
        Ok(out)
    })?))
}
