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
//! * **joins** allocate only the emitted combined rows and build on the
//!   smaller input of an inner join;
//! * **projection** detects column-only projections and shares or gathers
//!   cells directly instead of walking the expression evaluator;
//! * **DISTINCT, UNION/EXCEPT/INTERSECT and ORDER BY** move `Arc` handles,
//!   not cell vectors.
//!
//! Every operator that keys on cells — the hash join, GROUP BY, DISTINCT,
//! the set operations, `COUNT(DISTINCT)`, `IN (SELECT …)` and the keyed
//! subquery — goes through the one `KeyIndex` (`keyindex.rs`), which reads a scan's
//! cached columns where it can and clones no cell.
//!
//! # Operator loops
//!
//! Every operator loop runs on the statement thread, in input order, over
//! [`MORSEL_ROWS`]-sized ranges ([`for_each_morsel`]) with a cancellation
//! check between ranges. The workspace's concurrency is elsewhere: model
//! calls overlap inside one batched `invoke_batch`
//! (`swan_llm::parallel::complete_many`), and sessions run side by side
//! on a `SharedDb`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;
use swan_pool::lockrank;

use crate::ast::{
    BinaryOp, CompoundOp, Expr, OrderItem, SelectBody, SelectCore, SelectItem, SelectStmt,
};
use crate::chunked::ChunkedVec;
use crate::columnar::{AggKernel, ColumnSet};
use crate::error::{Error, Result};
use crate::eval::{bind_columns, eval, Batch, BatchableCalls, RowCtx};
use crate::functions::{is_aggregate, UdfRegistry};
use crate::hash::FxHashMap;
use crate::keyindex::{KeyIndex, KeyMode, KeyedRows, Keys};
use crate::optimizer::{expr_cost, optimize, NeededCol, OptimizerConfig};
use crate::plan::{
    conjoin, plan_from, split_conjuncts, ColRef, Plan, PlanJoinKind, RelSchema,
};
use crate::storage::Catalog;
use crate::value::{Row, UdfArgs, Value};

/// Results of one expensive UDF's per-row invocations within a statement,
/// keyed by argument tuple under exact value identity. Batched answers are
/// not here: they are in the statement's batches ([`ExecCtx::udf_batches`]).
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
    /// gets `members`, the keyed index it probes instead of walking `rel`.
    Uncorrelated { rel: Arc<Relation>, members: Option<Members> },
    /// An equality-correlated scalar aggregate: one grouped build, one
    /// hash probe per outer row (see [`KeyedAggregate`]).
    Keyed(KeyedAggregate),
    /// Correlated with the outer row: must re-execute per row. The only
    /// path for every shape [`KeyedAggregate::build`] declines and under
    /// `OptimizerConfig::index_scan: false`, the reference.
    Correlated,
}

/// The first column of an uncorrelated `IN (SELECT …)` result, keyed
/// under SQL equality, built once in the subquery's cell.
pub struct Members {
    rows: KeyedRows,
    has_null: bool,
    empty: bool,
}

impl Members {
    pub(crate) fn of(rel: &Arc<Relation>) -> Members {
        let (has_null, empty) = (rel.rows.iter().any(|row| row[0].is_null()), rel.rows.is_empty());
        Members { rows: KeyedRows::new(rel.clone(), 1), has_null, empty }
    }

    /// Three-valued `v IN (members)`: a match is true; no match is
    /// unknown next to a NULL member or for a NULL `v`, and false
    /// otherwise — always false against no members.
    pub(crate) fn contains(&self, v: &Value) -> Option<bool> {
        let found = self.rows.find(std::slice::from_ref(v)).is_some();
        let unknown = self.has_null || (v.is_null() && !self.empty);
        (found || !unknown).then_some(found)
    }
}

/// A scalar subquery of the shape
/// `(SELECT <aggregate expr> FROM t WHERE <inner> = <outer> [AND …] [AND <local>])`
/// answered from a hash index instead of one execution per outer row:
/// `SELECT <inner keys>, <aggregate expr> FROM t WHERE <local> GROUP BY
/// <inner keys>` runs **once** through [`run_select`] (so it gets the
/// optimizer's rules, the columnar kernels and the statement's cancel token like any other
/// SELECT), and every outer row costs one key
/// evaluation and one probe of a `KeyIndex` under
/// [`KeyMode::NeverMatch`], the hash join's equality: NULL and NaN match
/// nothing, as under `sql_eq`. A key with no group reads what the same
/// aggregate code yields over zero rows.
///
/// GROUP BY keeps each group's members in input order, which over one base
/// table is the order the per-row filter would have kept them in — so
/// order-sensitive aggregates (a REAL `SUM`, `GROUP_CONCAT`) are
/// bit-identical to the per-row path.
pub struct KeyedAggregate {
    /// Outer-side key expressions, one per correlation pair.
    outer_keys: Vec<Expr>,
    /// One row per group, keyed on its inner key cells, then the
    /// aggregate.
    groups: KeyedRows,
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
        let groups = KeyedRows::new(Arc::new(run_select(&grouped, ctx, None)?), width);
        Ok(Some(KeyedAggregate { outer_keys, groups, empty }))
    }

    /// The subquery's value for one outer row.
    pub(crate) fn probe(&self, ctx: &ExecCtx<'_>, outer: &RowCtx<'_>) -> Result<Value> {
        let key = |e: &Expr| eval(e, ctx, Some(outer));
        let group = match &self.outer_keys[..] {
            [only] => self.groups.find(std::slice::from_ref(&key(only)?)),
            keys => self.groups.find(&keys.iter().map(key).collect::<Result<Vec<_>>>()?),
        };
        Ok(group.map_or(&self.empty, |row| &row[self.outer_keys.len()]).clone())
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
/// Each entry is a [`std::sync::OnceLock`] cell: the first evaluation
/// classifies the subquery (see [`SubqueryState`]) — executing it when
/// uncorrelated, building its hash index when [`KeyedAggregate::build`]
/// accepts it — so an uncorrelated subquery, and a keyed build, execute
/// *exactly once* per statement; the state is immutable once the cell is
/// set, so probes take no lock beyond the map lookup.
pub type SubqueryCache =
    Arc<Mutex<HashMap<usize, Arc<std::sync::OnceLock<Result<SubqueryState>>>>>>;

/// Per-statement execution context.
pub struct ExecCtx<'a> {
    pub catalog: &'a Catalog,
    pub udfs: &'a UdfRegistry,
    pub optimizer: OptimizerConfig,
    /// The statement's subquery result cache (see [`SubqueryCache`]).
    pub subqueries: SubqueryCache,
    /// Statement-scoped results of the expensive-UDF calls that batched
    /// execution evaluates per row, keyed by lowercased function name: a
    /// call in a conditional position, and a row its operator's prefetch
    /// ([`BatchableCalls`]) could not evaluate or answer. A later per-row
    /// evaluation of the same argument tuple is a lookup instead of a
    /// call.
    pub udf_results: RefCell<FxHashMap<String, UdfResults>>,
    /// What the statement's batched call sites asked each expensive UDF,
    /// and the answers, while no operator holds them
    /// ([`BatchableCalls`](crate::eval::BatchableCalls) takes a UDF's
    /// batch for its run): a tuple one operator asked is not asked again.
    pub(crate) udf_batches: RefCell<Vec<Batch>>,
    /// The statement's cancellation/deadline token; long loops call
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
            udf_batches: RefCell::new(Vec::new()),
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
        self.udf_results.borrow().get(name)?.get(args).cloned()
    }

    /// Record `name(args) = value` for the rest of the statement.
    pub fn store_udf_result(&self, name: &str, args: UdfArgs, value: Value) {
        self.udf_results.borrow_mut().entry(name.to_string()).or_default().insert(args, value);
    }

    /// The cooperative cancellation checkpoint: cheap enough for morsel
    /// boundaries and periodic row-loop checks, fails the statement with
    /// [`Error::Deadline`] / [`Error::Cancelled`].
    #[inline]
    pub fn check_cancel(&self) -> Result<()> {
        self.cancel.check().map_err(Error::from)
    }
}

/// Rows (or groups) an operator loop covers between two cancellation
/// checks.
pub const MORSEL_ROWS: usize = 1024;

/// The operator loop: `f` runs over [`MORSEL_ROWS`]-sized ranges covering
/// `0..count`, in order, on the calling thread, with a cancellation check
/// between ranges. The first error stops the loop, so a statement fails
/// on the row a single in-order pass fails on and runs nothing after it.
pub fn for_each_morsel(
    count: usize,
    ctx: &ExecCtx<'_>,
    mut f: impl FnMut(Range<usize>) -> Result<()>,
) -> Result<()> {
    for start in (0..count).step_by(MORSEL_ROWS) {
        if start > 0 {
            ctx.check_cancel()?;
        }
        f(start..(start + MORSEL_ROWS).min(count))?;
    }
    Ok(())
}

/// Execute a full SELECT (body + ORDER BY + LIMIT/OFFSET).
pub fn run_select(
    stmt: &SelectStmt,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Relation> {
    let (mut rel, mut keys) = match &stmt.body {
        SelectBody::Simple(core) => run_core(core, &stmt.order_by, ctx, outer)?,
        SelectBody::Compound { .. } => {
            let rel = run_body(&stmt.body, ctx, outer)?;
            let keys = compound_sort_keys(&rel, &stmt.order_by, ctx, outer)?;
            (rel, keys)
        }
    };

    if !stmt.order_by.is_empty() {
        sort_rows(&mut rel.rows, &mut keys, &stmt.order_by, topk_hint(stmt));
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
        SelectBody::Simple(core) => Ok(run_core(core, &[], ctx, outer)?.0),
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
            let (width, mut rows) = (l.schema.len(), l.rows);
            match op {
                CompoundOp::UnionAll | CompoundOp::Union => rows.extend(r.rows),
                CompoundOp::Except | CompoundOp::Intersect => {
                    let slots: Vec<usize> = (0..width).collect();
                    let right = Keys::slots(&r.rows[..], &slots[..], KeyMode::Group);
                    let index = KeyIndex::build(&right, r.rows.len(), ctx)?;
                    let left = Keys::slots(&rows[..], &slots[..], KeyMode::Group);
                    let found = |&i: &usize| index.matches(&right, &left, i).next().is_some();
                    let intersect = *op == CompoundOp::Intersect;
                    let keep: Vec<usize> =
                        (0..rows.len()).filter(|i| found(i) == intersect).collect();
                    retain_at(&mut rows, &keep);
                }
            }
            if *op != CompoundOp::UnionAll {
                distinct_in_place(&mut rows, &mut Vec::new(), width);
            }
            Ok(Relation { schema: l.schema, rows })
        }
    }
}

/// Keep the elements of `v` at the ascending indices `at`.
fn retain_at<T>(v: &mut Vec<T>, at: &[usize]) {
    let (mut at, mut i) = (at.iter().peekable(), 0);
    v.retain(|_| {
        i += 1;
        at.next_if(|&&j| j == i - 1).is_some()
    });
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
    let scope = RowCtx::scope(&rel.schema, outer, None);
    for (pos, row) in rel.rows.iter().enumerate() {
        let rc = scope.at(row, pos);
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
) {
    // The input row index breaks every tie, making the comparator a
    // *total* order. This pins down what SQL leaves unspecified on
    // purpose: with ties at the LIMIT boundary, the selected prefix is
    // exactly the stable-full-sort prefix — first-come-first-kept — so
    // top-k selection and a full sort agree on the same rows in the same
    // order.
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
            idx.select_nth_unstable_by(k - 1, cmp);
            idx.truncate(k);
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
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<(Relation, Vec<Vec<Value>>)> {
    let plan = plan_from(core.from.as_ref(), core.filter.as_ref())?;
    let needed = needed_columns(core, order_by);
    let plan = &optimize(plan, ctx.udfs, &ctx.optimizer, ctx.catalog, needed.as_deref())?;
    let (input, cols) = exec_plan_with_columns(plan, ctx, outer)?;
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

    let (mut rows, mut keys) = if aggregated {
        run_aggregate(core, &projection, having.as_ref(), &order_exprs, &input, cols, ctx, outer)?
    } else {
        project_rows(&projection, &order_exprs, &input, ctx, outer)?
    };

    if core.distinct {
        distinct_in_place(&mut rows, &mut keys, projection.len());
    }

    let schema = RelSchema::new(projection.into_iter().map(|(_, c)| c).collect());
    Ok((Relation { schema, rows }, keys))
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

/// The non-aggregated projection loop. The projected and sort-key
/// expressions are bound to the input schema once, and their expensive
/// calls prefetched across the whole input before the loop runs (the
/// aggregated path batches inside `run_aggregate`, over groups).
///
/// Fast paths, checked in order:
/// 1. the projection is exactly the input schema → the input rows are
///    **shared** unchanged (zero work per row);
/// 2. every projected item is a plain input column → cells are gathered by
///    index (O(1) clones, no expression evaluation);
/// 3. otherwise each expression is evaluated per row.
fn project_rows(
    projection: &[(Expr, ColRef)],
    order_exprs: &[Expr],
    input: &Relation,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<RowsAndKeys> {
    let width = projection.len();
    let mut exprs: Vec<Expr> = projection
        .iter()
        .map(|(e, _)| e)
        .chain(order_exprs)
        .map(|e| bind_columns(e, &input.schema))
        .collect();
    let mut calls = BatchableCalls::default();
    calls.find(exprs.iter_mut(), ctx);
    calls.prefetch_rows(ctx, &input.schema, &input.rows, outer)?;
    let (bound, order_exprs) = exprs.split_at(width);
    let scope = RowCtx::scope(&input.schema, outer, Some(&calls));

    // Sort keys: either an ordinal into the projected row or an expression
    // over the input row.
    let build_keys = |out: &[Value], rc: &RowCtx<'_>| -> Result<Vec<Value>> {
        output_sort_keys(order_exprs, width, out, &mut |e| eval(e, ctx, Some(rc)))
    };

    let mut keys = Vec::with_capacity(if order_exprs.is_empty() { 0 } else { input.rows.len() });

    let col_indices: Option<Vec<usize>> = bound
        .iter()
        .map(|e| if let Expr::BoundColumn(i) = e { Some(*i) } else { None })
        .collect();
    if let Some(idxs) = col_indices {
        let identity =
            idxs.len() == input.schema.len() && idxs.iter().enumerate().all(|(i, &j)| i == j);
        if identity {
            // SELECT * (or an exact column echo): share the rows wholesale.
            if !order_exprs.is_empty() {
                for (pos, row) in input.rows.iter().enumerate() {
                    keys.push(build_keys(row, &scope.at(row, pos))?);
                }
            }
            return Ok((input.rows.clone(), keys));
        }
        // Column subset/permutation: gather cells by index, one shared
        // allocation per row.
        let mut rows: Vec<Row> = Vec::with_capacity(input.rows.len());
        for (pos, row) in input.rows.iter().enumerate() {
            let out: Row = idxs.iter().map(|&i| row[i].clone()).collect();
            if !order_exprs.is_empty() {
                keys.push(build_keys(&out, &scope.at(row, pos))?);
            }
            rows.push(out);
        }
        return Ok((rows, keys));
    }

    // General path: evaluate per row with direct index loads.
    let mut rows: Vec<Row> = Vec::with_capacity(input.rows.len());
    for_each_morsel(input.rows.len(), ctx, |range| {
        for pos in range {
            let rc = scope.at(&input.rows[pos], pos);
            let mut out = Vec::with_capacity(width);
            for e in bound {
                out.push(eval(e, ctx, Some(&rc))?);
            }
            if !order_exprs.is_empty() {
                keys.push(build_keys(&out, &rc)?);
            }
            rows.push(out.into());
        }
        Ok(())
    })?;
    Ok((rows, keys))
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

/// DISTINCT over `width`-cell rows: the first copy of each, in order, with
/// its sort keys.
fn distinct_in_place(rows: &mut Vec<Row>, keys: &mut Vec<Vec<Value>>, width: usize) {
    let slots: Vec<usize> = (0..width).collect();
    let cells = Keys::slots(&rows[..], slots, KeyMode::Group);
    let firsts = KeyIndex::grouped(&cells, 0..rows.len()).firsts;
    retain_at(rows, &firsts);
    retain_at(keys, &firsts);
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
    let mut groups: Vec<Vec<usize>> = Vec::new();
    if core.group_by.is_empty() {
        groups.push((0..input.rows.len()).collect());
    } else {
        // Expensive calls in the grouping keys evaluate once per input
        // row: vectorize them before the key loop runs.
        let mut bound_keys: Vec<Expr> =
            core.group_by.iter().map(|g| bind_columns(g, &input.schema)).collect();
        let mut calls = BatchableCalls::default();
        calls.find(bound_keys.iter_mut(), ctx);
        calls.prefetch_rows(ctx, &input.schema, &input.rows, outer)?;
        // Plain-column keys of a scan-backed input read its columns.
        let cols = cols.map(|ci| (&*ci.set, ci.sel.as_deref()));
        let n = input.rows.len();
        let scope = RowCtx::scope(&input.schema, outer, Some(&calls));
        let keys =
            Keys::of_exprs(&bound_keys, &input.rows[..], n, cols, KeyMode::Group, ctx, &scope)?;
        let mut index = KeyIndex::default();
        for_each_morsel(n, ctx, |range| {
            for ri in range {
                // Every row has a key under `KeyMode::Group`.
                let Some((gi, new)) = index.group(&keys, ri) else { continue };
                if new {
                    groups.push(Vec::new());
                }
                groups[gi].push(ri);
            }
            Ok(())
        })?;
    }

    // A row of NULLs stands in for column references over an empty group
    // (only possible for the implicit single group of a table-less or
    // fully-filtered aggregate).
    let null_row: Vec<Value> = vec![Value::Null; input.schema.len()];

    // Vectorize the HAVING predicate's expensive calls: sites inside
    // aggregate arguments see every member row (at its input position),
    // sites outside see one representative row per group (at the group's).
    let base = RowCtx::scope(&input.schema, outer, None);
    let mut having = having.map(|h| bind_columns(h, &input.schema));
    let mut having_calls = BatchableCalls::default();
    having_calls.find(having.as_mut(), ctx);
    having_calls.prefetch(Some(true), ctx, &mut |collect| {
        for (ri, row) in input.rows.iter().enumerate() {
            collect(&base.at(row, ri))?;
        }
        Ok(())
    })?;
    having_calls.prefetch(Some(false), ctx, &mut |collect| {
        for (gi, members) in groups.iter().enumerate() {
            if let Some(&i) = members.first() {
                collect(&base.at(&input.rows[i], gi))?;
            }
        }
        Ok(())
    })?;

    // Apply HAVING before any output-site prefetch: batching must not pay
    // for projection/sort-key calls on groups HAVING rejects (the per-row
    // path skips their output expressions entirely).
    let survivors: Vec<&Vec<usize>> = match &having {
        None => groups.iter().collect(),
        Some(h) => {
            let scope = RowCtx::scope(&input.schema, outer, Some(&having_calls));
            let mut survivors = Vec::new();
            for_each_morsel(groups.len(), ctx, |range| {
                for gi in range {
                    let members = &groups[gi];
                    let rep: &[Value] = match members.first() {
                        Some(&i) => &input.rows[i],
                        None => &null_row,
                    };
                    let rep_ctx = scope.at(rep, gi);
                    let verdict = materialize_and_eval(h, members, input, cols, ctx, &rep_ctx)?;
                    if verdict.truthiness() == Some(true) {
                        survivors.push(members);
                    }
                }
                Ok(())
            })?;
            survivors
        }
    };
    // HAVING's batches go back to the statement: the output sites ask
    // only what the keys and HAVING did not.
    drop(having_calls);

    // Vectorize the output expressions over the surviving groups only.
    let width = projection.len();
    let mut exprs: Vec<Expr> = projection
        .iter()
        .map(|(e, _)| e)
        .chain(order_exprs)
        .map(|e| bind_columns(e, &input.schema))
        .collect();
    let mut calls = BatchableCalls::default();
    calls.find(exprs.iter_mut(), ctx);
    calls.prefetch(Some(true), ctx, &mut |collect| {
        for members in &survivors {
            for &ri in members.iter() {
                collect(&base.at(&input.rows[ri], ri))?;
            }
        }
        Ok(())
    })?;
    calls.prefetch(Some(false), ctx, &mut |collect| {
        for (s, members) in survivors.iter().enumerate() {
            if let Some(&i) = members.first() {
                collect(&base.at(&input.rows[i], s))?;
            }
        }
        Ok(())
    })?;
    let (bound, order_exprs) = exprs.split_at(width);

    // Per-group output: aggregates and the residual projection evaluate
    // per surviving group.
    let scope = RowCtx::scope(&input.schema, outer, Some(&calls));
    let mut rows: Vec<Row> = Vec::with_capacity(survivors.len());
    let mut keys = Vec::new();
    for_each_morsel(survivors.len(), ctx, |range| {
        for s in range {
            let members = survivors[s];
            let rep: &[Value] = match members.first() {
                Some(&i) => &input.rows[i],
                None => &null_row,
            };
            let rep_ctx = scope.at(rep, s);
            let mut out = Vec::with_capacity(width);
            for e in bound {
                out.push(materialize_and_eval(e, members, input, cols, ctx, &rep_ctx)?);
            }
            if !order_exprs.is_empty() {
                keys.push(output_sort_keys(order_exprs, width, &out, &mut |e| {
                    materialize_and_eval(e, members, input, cols, ctx, &rep_ctx)
                })?);
            }
            rows.push(out.into());
        }
        Ok(())
    })?;
    Ok((rows, keys))
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
    // per-cell eval, no gather vector; `COUNT(DISTINCT)` groups the
    // column's cells in a `KeyIndex`. Other DISTINCT aggregates,
    // GROUP_CONCAT and the other kernels over type-unstable (Mixed)
    // columns take the row loop below.
    let kernel = AggKernel::from_name(&upper).filter(|&k| !distinct || k == AggKernel::Count);
    if let (Some(ci), Expr::BoundColumn(j), Some(kind)) = (cols, &arg, kernel) {
        if let Some(col) = ci.set.column(*j) {
            let mapped: Vec<usize>;
            let rows = match &ci.sel {
                None => members,
                Some(sel) => {
                    mapped = members.iter().map(|&ri| sel[ri] as usize).collect();
                    &mapped
                }
            };
            let result = if distinct {
                Some(Ok(crate::columnar::count_distinct(col, rows)))
            } else {
                crate::columnar::eval_aggregate(kind, col, rows)
            };
            if let Some(v) = result {
                return v;
            }
        }
    }
    let mut vals = Vec::with_capacity(members.len());
    for &ri in members {
        let v = eval(&arg, ctx, Some(&rep_ctx.at(&input.rows[ri], ri)))?;
        if !v.is_null() {
            vals.push(v);
        }
    }
    if distinct {
        let keys: Keys = Keys::cells(&vals[..], 1, KeyMode::Group);
        let firsts = KeyIndex::grouped(&keys, 0..vals.len()).firsts;
        retain_at(&mut vals, &firsts);
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

/// Materialize a plan into a relation.
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

        Plan::IndexScan { table, qualifier, key } => {
            let t = ctx.catalog.get_required(table)?;
            let rows: Vec<Row> = if t.has_primary_key() {
                t.pk_row_index(key).map(|i| t.rows()[i as usize].clone()).into_iter().collect()
            } else {
                // No primary key (dropped since planning): fall back to
                // the full scan the filter expects.
                t.rows().to_vec()
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
        // are vectorized across the survivors (one `invoke_batch` per call
        // site, whose model calls overlap), and
        // the expensive conjuncts then evaluate per row against the
        // prefetched results. Each conjunct is collected on its own, so a
        // second expensive conjunct is not "the right-hand side of AND":
        // its calls are issued for every cheap survivor, also for rows an
        // earlier expensive conjunct rejects.
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
            let mut expensive: Vec<Expr> =
                expensive.iter().map(|c| bind_columns(c, &rel.schema)).collect();
            let mut calls = BatchableCalls::default();
            calls.find(expensive.iter_mut(), ctx);
            calls.prefetch_rows(ctx, &rel.schema, &rel.rows, outer)?;
            let expensive = conjoin(expensive).expect("an expensive conjunct");
            filter_relation(&mut rel, &expensive, &calls, ctx, outer)?;
            Ok(rel)
        }

        Plan::Permute { input, mapping } => {
            let rel = exec_plan(input, ctx, outer)?;
            let schema = RelSchema::new(
                mapping.iter().map(|&i| rel.schema.cols[i].clone()).collect(),
            );
            let mut rows: Vec<Row> = Vec::with_capacity(rel.rows.len());
            for_each_morsel(rel.rows.len(), ctx, |range| {
                for r in &rel.rows[range] {
                    rows.push(mapping.iter().map(|&i| r[i].clone()).collect());
                }
                Ok(())
            })?;
            Ok(Relation { schema, rows })
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
/// support: one pass over the key columns, no per-row dispatch.
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
    let predicate = bind_columns(predicate, &rel.schema);
    filter_relation(&mut rel, &predicate, &BatchableCalls::default(), ctx, outer)?;
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

/// The batch filter: the rows evaluate the `predicate`, bound to their
/// schema (its prefetched calls answered by `calls`), into a keep-bitmap,
/// and one in-place compaction drops the rejected rows — survivors are
/// never cloned or moved into a fresh vector, and input order is kept.
fn filter_relation(
    rel: &mut Relation,
    predicate: &Expr,
    calls: &BatchableCalls<'_>,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<()> {
    let rows = &rel.rows;
    let scope = RowCtx::scope(&rel.schema, outer, Some(calls));
    let mut keep = Vec::with_capacity(rows.len());
    for_each_morsel(rows.len(), ctx, |range| {
        for ri in range {
            prefetch_row(rows.get(ri + PREFETCH_AHEAD));
            let rc = scope.at(&rows[ri], ri);
            keep.push(eval(predicate, ctx, Some(&rc))?.truthiness() == Some(true));
        }
        Ok(())
    })?;
    let mut keep = keep.into_iter();
    rel.rows.retain(|_| keep.next().unwrap_or(false));
    Ok(())
}

/// A join input: a scan shares the table's row chunks (one refcount bump
/// per chunk, none per row — the join only reads them), everything else is
/// materialized through [`exec_plan`] and its rows moved into chunks.
struct JoinInput {
    schema: RelSchema,
    rows: ChunkedVec<Row>,
    /// The table's cached column set, for scan inputs under the columnar
    /// toggle: plain-column join keys then come from the key columns
    /// instead of dereferencing each row.
    cols: Option<Arc<ColumnSet>>,
}

impl JoinInput {
    /// The join keys `exprs` (bound to this input, their prefetched calls
    /// answered by `calls`) give its rows.
    fn keys(
        &self,
        exprs: &[Expr],
        calls: &BatchableCalls<'_>,
        ctx: &ExecCtx<'_>,
        outer: Option<&RowCtx<'_>>,
    ) -> Result<Keys<'_, ChunkedVec<Row>>> {
        let (rows, n, cols) = (&self.rows, self.rows.len(), self.cols.as_deref());
        let cols = cols.map(|set| (set, None));
        let scope = RowCtx::scope(&self.schema, outer, Some(calls));
        Keys::of_exprs(exprs, rows, n, cols, KeyMode::NeverMatch, ctx, &scope)
    }
}

fn exec_source(plan: &Plan, ctx: &ExecCtx<'_>, outer: Option<&RowCtx<'_>>) -> Result<JoinInput> {
    match plan {
        Plan::Scan { table, qualifier } => {
            let t = ctx.catalog.get_required(table)?;
            Ok(JoinInput {
                schema: RelSchema::qualified(qualifier, t.column_names()),
                rows: t.rows().clone(),
                cols: ctx.optimizer.columnar.then(|| t.column_set()),
            })
        }
        other => {
            let rel = exec_plan(other, ctx, outer)?;
            Ok(JoinInput { schema: rel.schema, rows: rel.rows.into(), cols: None })
        }
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
    left: &JoinInput,
    right: &JoinInput,
    kind: PlanJoinKind,
    on: Option<&Expr>,
    emit: Option<&[usize]>,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Relation> {
    // Residual predicates always evaluate against the full combined
    // schema; the output relation carries only the emitted columns.
    let full_schema = left.schema.join(&right.schema);
    let out_schema = match emit {
        None => full_schema.clone(),
        Some(idx) => RelSchema::new(idx.iter().map(|&i| full_schema.cols[i].clone()).collect()),
    };
    let emission = Emission::new(emit, left.schema.len());

    // Try to split the ON predicate into hashable equi-pairs + residual.
    let (equi, residual) = match on {
        Some(pred) if kind != PlanJoinKind::Cross => {
            split_equi_join(pred, &left.schema, &right.schema)
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

/// The hash join: a [`KeyIndex`] over the build rows' keys, then one
/// probe loop that walks the probe rows in order and emits, per row, the
/// build rows (in build order) whose key equals its own under
/// [`KeyMode::NeverMatch`] — SQL `=`: `1 = 1.0`, `-0.0 = 0.0`, `'1' <> 1`,
/// and a NULL or NaN key matches nothing. The residual, if any, then
/// decides; a LEFT join pads a probe row nothing matched.
#[allow(clippy::too_many_arguments)]
fn hash_join(
    left: &JoinInput,
    right: &JoinInput,
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
    let build_left = kind == PlanJoinKind::Inner && left.rows.len() < right.rows.len();
    let (build, probe) = if build_left { (left, right) } else { (right, left) };
    let bind = |pick: fn(&(Expr, Expr)) -> &Expr, side: &JoinInput| -> Vec<Expr> {
        equi.iter().map(|pair| bind_columns(pick(pair), &side.schema)).collect()
    };
    let (left_exprs, right_exprs) = (bind(|p| &p.0, left), bind(|p| &p.1, right));
    let (mut build_exprs, mut probe_exprs) =
        if build_left { (left_exprs, right_exprs) } else { (right_exprs, left_exprs) };
    let mut residual = residual.map(|r| bind_columns(r, schema));

    // Expensive calls in a join key (`ON llm_map(...) = x`) are evaluated
    // per row of *one* side: vectorize them over that side's rows first.
    let mut calls = BatchableCalls::default();
    for (exprs, side) in [(&mut build_exprs, build), (&mut probe_exprs, probe)] {
        calls.find(exprs.iter_mut(), ctx);
        calls.prefetch_rows(ctx, &side.schema, &side.rows, outer)?;
    }
    // The residual's sites, found now, are prefetched below.
    calls.find(residual.as_mut(), ctx);
    let build_keys = build.keys(&build_exprs, &calls, ctx, outer)?;
    let probe_keys = probe.keys(&probe_exprs, &calls, ctx, outer)?;
    let index = KeyIndex::build(&build_keys, build.rows.len(), ctx)?;
    let (index, build_keys, probe_keys) = (&index, &build_keys, &probe_keys);
    let matches = move |pi: usize| index.matches(build_keys, probe_keys, pi);
    let build_rows = &build.rows;

    // Expensive calls in the residual evaluate over combined candidate
    // rows: replay the matches once collecting the argument tuples (no
    // emission), batch them, then run the probe loop against the
    // prefetched results. A candidate's position is its place in that
    // order, which the probe loop repeats.
    let mut scratch: Vec<Value> = Vec::with_capacity(schema.len());
    let combined = RowCtx::scope(schema, outer, None);
    calls.prefetch(None, ctx, &mut |collect| {
        let mut pos = 0;
        for (pi, prow) in probe.rows.iter().enumerate() {
            for ri in matches(pi) {
                let brow = &build_rows[ri];
                let (lrow, rrow): (&[Value], &[Value]) =
                    if build_left { (brow, prow) } else { (prow, brow) };
                scratch.clear();
                scratch.extend_from_slice(lrow);
                scratch.extend_from_slice(rrow);
                collect(&combined.at(&scratch, pos))?;
                pos += 1;
            }
        }
        Ok(())
    })?;

    // The probe, in probe order.
    let right_width = right.schema.len();
    let combined = RowCtx::scope(schema, outer, Some(&calls));
    let mut pos = 0;
    let mut out: Vec<Row> = Vec::with_capacity(probe.rows.len());
    for_each_morsel(probe.rows.len(), ctx, |range| {
        let chunk = probe.rows.morsel(range.clone());
        for (pi, prow) in range.zip(chunk) {
            let mut matched = false;
            for ri in matches(pi) {
                let brow = &build_rows[ri];
                let (lrow, rrow): (&[Value], &[Value]) =
                    if build_left { (brow, prow) } else { (prow, brow) };
                if let Some(res) = &residual {
                    scratch.clear();
                    scratch.extend_from_slice(lrow);
                    scratch.extend_from_slice(rrow);
                    pos += 1;
                    let cc = combined.at(&scratch, pos - 1);
                    if eval(res, ctx, Some(&cc))?.truthiness() != Some(true) {
                        continue;
                    }
                }
                matched = true;
                out.push(emission.matched(lrow, rrow));
            }
            if !matched && kind == PlanJoinKind::Left {
                // probe == left here (build_left is false for LEFT joins).
                out.push(emission.unmatched(prow, right_width));
            }
        }
        Ok(())
    })?;
    Ok(out)
}


/// Distance (in rows) to prefetch ahead in streaming row loops. Rows are
/// individually heap-allocated `Arc<[Value]>`s, so without a hint every
/// row read is a dependent load that stalls on L3 once tables outgrow L2;
/// prefetching a handful of iterations ahead overlaps those misses.
const PREFETCH_AHEAD: usize = 8;

#[inline(always)]
fn prefetch_row(row: Option<&Row>) {
    #[cfg(target_arch = "x86_64")]
    if let Some(r) = row {
        // SAFETY: prefetch has no memory effects; any pointer is fine.
        unsafe {
            core::arch::x86_64::_mm_prefetch(
                r.as_ptr() as *const i8,
                core::arch::x86_64::_MM_HINT_T0,
            )
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

#[allow(clippy::too_many_arguments)]
fn nested_loop_join(
    left: &JoinInput,
    right: &JoinInput,
    kind: PlanJoinKind,
    on: Option<&Expr>,
    schema: &RelSchema,
    emission: &Emission,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Vec<Row>> {
    let mut on = on.map(|p| bind_columns(p, schema));
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
    let lw = left.schema.len();
    let (lrows, rrows) = (&left.rows, &right.rows);
    let gather = |scratch: &mut [Value], lrow: &[Value], rrow: &[Value]| {
        for &i in &used {
            scratch[i] = if i < lw { lrow[i].clone() } else { rrow[i - lw].clone() };
        }
    };

    // Vectorize expensive calls in the ON predicate over the candidate
    // pairs: the argument-tuple dedupe collapses the cross product to the
    // distinct tuples, so one batched call replaces O(n·m) row calls. Pair
    // (l, r) is position `l·|right| + r`; a call that reads one side keeps
    // an answer slot per row of that side, one that reads both none.
    let mut calls = BatchableCalls::default();
    calls.find(on.as_mut(), ctx);
    calls.slot_pairs(lw, rrows.len());
    let mut scratch: Vec<Value> = vec![Value::Null; schema.len()];
    let combined = RowCtx::scope(schema, outer, None);
    calls.prefetch(None, ctx, &mut |collect| {
        for (li, lrow) in lrows.iter().enumerate() {
            for (ri, rrow) in rrows.iter().enumerate() {
                gather(&mut scratch, lrow, rrow);
                collect(&combined.at(&scratch, li * rrows.len() + ri))?;
            }
        }
        Ok(())
    })?;

    // Ranges of the outer (left) side. The work per outer row is |right|,
    // unbounded by the range, so the inner loop keeps its own cancellation
    // check.
    let combined = RowCtx::scope(schema, outer, Some(&calls));
    let mut out = Vec::new();
    let mut since_check = 0usize;
    for_each_morsel(lrows.len(), ctx, |range| {
        for (li, lrow) in range.clone().zip(lrows.morsel(range)) {
            let mut matched = false;
            for (ri, rrow) in rrows.iter().enumerate() {
                since_check += 1;
                if since_check >= MORSEL_ROWS {
                    since_check = 0;
                    ctx.check_cancel()?;
                }
                if let Some(pred) = &on {
                    gather(&mut scratch, lrow, rrow);
                    let cc = combined.at(&scratch, li * rrows.len() + ri);
                    if eval(pred, ctx, Some(&cc))?.truthiness() != Some(true) {
                        continue;
                    }
                }
                matched = true;
                out.push(emission.matched(lrow, rrow));
            }
            if !matched && kind == PlanJoinKind::Left {
                out.push(emission.unmatched(lrow, right.schema.len()));
            }
        }
        Ok(())
    })?;
    Ok(out)
}
