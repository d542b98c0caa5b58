//! Query execution.
//!
//! `run_select` drives a SELECT end to end: [`plan_select`] plans the
//! whole statement, and [`exec_plan`], the one interpreter, runs every
//! node — scans, filters and joins (with a hash-join fast path for
//! equi-joins), then projection or aggregation, DISTINCT, compound
//! operators, ORDER BY and LIMIT.
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

use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use crate::ast::{BinaryOp, CompoundOp, Expr, SelectBody, SelectItem, SelectStmt};
use crate::chunked::ChunkedVec;
use crate::columnar::{AggKernel, ColumnSet};
use crate::display::expr_to_sql;
use crate::error::{Error, Result};
use crate::eval::{bind_columns, eval, AnswerTable, BatchableCalls, RowCtx};
use crate::functions::{is_aggregate, UdfRegistry};
use crate::keyindex::{KeyIndex, KeyMode, KeyedRows, Keys};
use crate::optimizer::{expr_cost, optimize, OptimizerConfig};
use crate::plan::{
    conjoin, plan_from, plan_select, split_conjuncts, ColRef, Plan, PlanJoinKind, RelSchema,
};
use crate::storage::Catalog;
use crate::value::{Row, Value};

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
    /// Correlated with the outer row: its plan runs again per row. The
    /// only path for every shape [`KeyedAggregate::build`] declines and
    /// under `OptimizerConfig::index_scan: false`, the reference.
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
/// <inner keys>` runs **once** as a [`Plan::Aggregate`] (so it gets the
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
        let input = plan_from(core.from.as_ref(), conjoin(local).as_ref())?;
        let input = Box::new(optimize(input, ctx.udfs, &ctx.optimizer, ctx.catalog, None)?);
        let exprs: Vec<Expr> = inner_keys.iter().chain([agg]).cloned().collect();
        let names = exprs.iter().map(|e| ColRef::new(None, expr_to_sql(e))).collect();
        let grouped = Plan::Aggregate { input, group_by: inner_keys, having: None, exprs, names };
        let groups = KeyedRows::new(Arc::new(exec_plan(&grouped, ctx, None)?), width);
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

/// The statement-scoped subquery cache, keyed by the address of the
/// subquery's `Arc<SelectStmt>` body — one node for the statement's
/// lifetime however often the expression around it is cloned or rebound.
/// Each entry is a cell set by the subquery's first evaluation: its plan
/// and its classification (see [`SubqueryState`]) — executed when
/// uncorrelated, its hash index built when [`KeyedAggregate::build`]
/// accepts it — so a subquery is planned once per statement, and an
/// uncorrelated one, or a keyed build, executes *exactly once*. The map
/// and its cells live on the statement thread, like every operator loop.
pub type SubqueryCache = RefCell<HashMap<usize, SubqueryCell>>;

/// One subquery's plan and state, set by its first evaluation.
pub type SubqueryCell = Rc<OnceCell<Result<(Plan, SubqueryState)>>>;

/// Per-statement execution context.
pub struct ExecCtx<'a> {
    pub catalog: &'a Catalog,
    pub udfs: &'a UdfRegistry,
    pub optimizer: OptimizerConfig,
    /// The statement's subquery result cache (see [`SubqueryCache`]).
    pub subqueries: SubqueryCache,
    /// What the statement asked each expensive UDF under batched
    /// execution, one append-only [`AnswerTable`] per UDF: the prefetches
    /// of the operators' call sites ([`BatchableCalls`]) and the per-row
    /// calls they leave all probe it, so a tuple is asked once per
    /// statement.
    pub(crate) udf_answers: RefCell<Vec<AnswerTable>>,
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
            subqueries: RefCell::new(HashMap::new()),
            udf_answers: RefCell::new(Vec::new()),
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

    /// The statement's answer table of the expensive UDF registered as
    /// `name`: each tuple asked, in first-seen order, with its answer if
    /// it has one. Read-only; for tests.
    #[doc(hidden)]
    pub fn udf_table(&self, name: &str) -> Vec<(Vec<Value>, Option<Value>)> {
        let Some(udf) = self.udfs.get(name) else { return Vec::new() };
        let tables = self.udf_answers.borrow();
        tables.iter().find(|t| t.of(udf)).map_or_else(Vec::new, AnswerTable::entries)
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

/// Execute a full SELECT: plan it ([`plan_select`]), then run the plan.
pub fn run_select(
    stmt: &SelectStmt,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Relation> {
    exec_plan(&plan_select(stmt, ctx.udfs, &ctx.optimizer, ctx.catalog)?, ctx, outer)
}

/// Keep the elements of `v` at the ascending indices `at`.
fn retain_at<T>(v: &mut Vec<T>, at: &[usize]) {
    let (mut at, mut i) = (at.iter().peekable(), 0);
    v.retain(|_| {
        i += 1;
        at.next_if(|&&j| j == i - 1).is_some()
    });
}

/// The rows of a compound's two arms, combined by `op`.
fn compound(op: CompoundOp, l: Relation, r: Relation, ctx: &ExecCtx<'_>) -> Result<Relation> {
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
            let intersect = op == CompoundOp::Intersect;
            let keep: Vec<usize> = (0..rows.len()).filter(|i| found(i) == intersect).collect();
            retain_at(&mut rows, &keep);
        }
    }
    if op != CompoundOp::UnionAll {
        distinct_in_place(&mut rows, width);
    }
    Ok(Relation { schema: l.schema, rows })
}

/// Order `rows` by the cells `keys` name (descending where flagged),
/// keep the first `top_k` if given, and drop the cells past `width`.
fn sort_rows(rows: &mut Vec<Row>, keys: &[(usize, bool)], top_k: Option<usize>, width: usize) {
    // The input row index breaks every tie, making the comparator a
    // *total* order. This pins down what SQL leaves unspecified on
    // purpose: with ties at the LIMIT boundary, the selected prefix is
    // exactly the stable-full-sort prefix — first-come-first-kept — so
    // top-k selection and a full sort agree on the same rows in the same
    // order.
    let cmp = |&a: &usize, &b: &usize| {
        for &(k, desc) in keys {
            let ord = rows[a][k].sort_cmp(&rows[b][k]);
            let ord = if desc { ord.reverse() } else { ord };
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
    // Rows are Arc handles, so gathering into the sorted order is pointer
    // work; only rows carrying sort cells are copied, to their output.
    let sorted: Vec<Row> = idx
        .iter()
        .map(|&i| if rows[i].len() > width { rows[i][..width].into() } else { rows[i].clone() })
        .collect();
    *rows = sorted;
}

fn apply_limit_offset(
    rows: &mut Vec<Row>,
    limit: Option<&Expr>,
    offset: Option<&Expr>,
    ctx: &ExecCtx<'_>,
) -> Result<()> {
    let eval_count = |e: &Expr| -> Result<Option<i64>> {
        let v = eval(e, ctx, None)?;
        Ok(v.as_i64())
    };
    let offset = match offset {
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
    if let Some(e) = limit {
        if let Some(n) = eval_count(e)? {
            // Negative LIMIT means "no limit" in SQLite.
            if n >= 0 {
                rows.truncate(n as usize);
            }
        }
    }
    Ok(())
}

/// The projection loop. The expressions are bound to the input schema
/// once, and their expensive calls prefetched across the whole input
/// before the loop runs.
///
/// Fast paths, checked in order:
/// 1. the projection is exactly the input schema → the input rows are
///    **shared** unchanged (zero work per row);
/// 2. every projected item is a plain input column → cells are gathered by
///    index (O(1) clones, no expression evaluation);
/// 3. otherwise each expression is evaluated per row.
fn project_rows(
    exprs: &[Expr],
    input: &Relation,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Vec<Row>> {
    let mut bound: Vec<Expr> = exprs.iter().map(|e| bind_columns(e, &input.schema)).collect();
    let mut calls = BatchableCalls::default();
    calls.find(bound.iter_mut(), ctx);
    calls.prefetch_rows(ctx, &input.schema, &input.rows, outer)?;
    let scope = RowCtx::scope(&input.schema, outer, Some(&calls));

    let col_indices: Option<Vec<usize>> = bound
        .iter()
        .map(|e| if let Expr::BoundColumn(i) = e { Some(*i) } else { None })
        .collect();
    if let Some(idxs) = col_indices {
        let identity =
            idxs.len() == input.schema.len() && idxs.iter().enumerate().all(|(i, &j)| i == j);
        if identity {
            // SELECT * (or an exact column echo): share the rows wholesale.
            return Ok(input.rows.clone());
        }
        // Column subset/permutation: gather cells by index, one shared
        // allocation per row.
        let gather = |row: &Row| idxs.iter().map(|&i| row[i].clone()).collect();
        return Ok(input.rows.iter().map(gather).collect());
    }

    // General path: evaluate per row with direct index loads.
    let mut rows: Vec<Row> = Vec::with_capacity(input.rows.len());
    for_each_morsel(input.rows.len(), ctx, |range| {
        for pos in range {
            let rc = scope.at(&input.rows[pos], pos);
            rows.push(bound.iter().map(|e| eval(e, ctx, Some(&rc))).collect::<Result<Row>>()?);
        }
        Ok(())
    })?;
    Ok(rows)
}

/// DISTINCT over the first `width` cells of each row: the first row of
/// each tuple, in order.
fn distinct_in_place(rows: &mut Vec<Row>, width: usize) {
    let slots: Vec<usize> = (0..width).collect();
    let cells = Keys::slots(&rows[..], slots, KeyMode::Group);
    let firsts = KeyIndex::grouped(&cells, 0..rows.len()).firsts;
    retain_at(rows, &firsts);
}

// ---- aggregation ----------------------------------------------------------

fn run_aggregate(
    group_by: &[Expr],
    having: Option<&Expr>,
    exprs: &[Expr],
    input: &Relation,
    cols: Option<&ColInput>,
    ctx: &ExecCtx<'_>,
    outer: Option<&RowCtx<'_>>,
) -> Result<Vec<Row>> {
    // Partition input rows into groups, preserving first-seen order. The
    // grouping expressions are bound to the input schema once up front.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    if group_by.is_empty() {
        groups.push((0..input.rows.len()).collect());
    } else {
        // Expensive calls in the grouping keys evaluate once per input
        // row: vectorize them before the key loop runs.
        let mut bound_keys: Vec<Expr> =
            group_by.iter().map(|g| bind_columns(g, &input.schema)).collect();
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
    let mut bound: Vec<Expr> = exprs.iter().map(|e| bind_columns(e, &input.schema)).collect();
    let mut calls = BatchableCalls::default();
    calls.find(bound.iter_mut(), ctx);
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

    // Per-group output: aggregates and the residual projection evaluate
    // per surviving group.
    let scope = RowCtx::scope(&input.schema, outer, Some(&calls));
    let mut rows: Vec<Row> = Vec::with_capacity(survivors.len());
    for_each_morsel(survivors.len(), ctx, |range| {
        for s in range {
            let members = survivors[s];
            let rep: &[Value] = match members.first() {
                Some(&i) => &input.rows[i],
                None => &null_row,
            };
            let rep_ctx = scope.at(rep, s);
            let out = |e| materialize_and_eval(e, members, input, cols, ctx, &rep_ctx);
            rows.push(bound.iter().map(out).collect::<Result<Row>>()?);
        }
        Ok(())
    })?;
    Ok(rows)
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

        Plan::Join { left, right, kind, on, emit } => {
            let l = exec_source(left, ctx, outer)?;
            let r = exec_source(right, ctx, outer)?;
            exec_join(&l, &r, *kind, on.as_ref(), emit.as_deref(), ctx, outer)
        }

        Plan::Project { input, exprs, names } => {
            let rel = exec_plan(input, ctx, outer)?;
            let rows = project_rows(exprs, &rel, ctx, outer)?;
            Ok(Relation { schema: RelSchema::new(names.clone()), rows })
        }

        // Plain-column keys and aggregate arguments of a scan-backed input
        // read its cached columns.
        Plan::Aggregate { input, group_by, having, exprs, names } => {
            let (rel, cols) = match columnar_input(input, ctx)? {
                Some((rel, cols)) => (rel, Some(cols)),
                None => (exec_plan(input, ctx, outer)?, None),
            };
            let having = having.as_ref();
            let rows = run_aggregate(group_by, having, exprs, &rel, cols.as_ref(), ctx, outer)?;
            Ok(Relation { schema: RelSchema::new(names.clone()), rows })
        }

        Plan::Distinct { input } => {
            let mut rel = exec_plan(input, ctx, outer)?;
            distinct_in_place(&mut rel.rows, rel.schema.len());
            Ok(rel)
        }

        Plan::Sort { input, keys, top_k } => {
            let mut rel = exec_plan(input, ctx, outer)?;
            sort_rows(&mut rel.rows, keys, *top_k, rel.schema.len());
            Ok(rel)
        }

        Plan::Limit { input, limit, offset } => {
            let mut rel = exec_plan(input, ctx, outer)?;
            apply_limit_offset(&mut rel.rows, limit.as_ref(), offset.as_ref(), ctx)?;
            Ok(rel)
        }

        Plan::Compound { op, left, right } => {
            let l = exec_plan(left, ctx, outer)?;
            compound(*op, l, exec_plan(right, ctx, outer)?, ctx)
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
    if let Some((rel, _)) = columnar_scan(input, Some(predicate), ctx)? {
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

/// The columnar state of a bare scan, or of a kernel-supported filter
/// directly over one, with its rows: the shapes whose output rows map 1:1
/// onto the table's cached column set. `None` for any other shape — a
/// batched expensive filter included: its expensive conjuncts have no
/// kernel.
fn columnar_input(plan: &Plan, ctx: &ExecCtx<'_>) -> Result<Option<(Relation, ColInput)>> {
    match plan {
        Plan::Scan { .. } => columnar_scan(plan, None, ctx),
        Plan::Filter { input, predicate } if !batches_expensive(predicate, ctx) => {
            columnar_scan(input, Some(predicate), ctx)
        }
        _ => Ok(None),
    }
}

/// The vectorized path for a base-table `Scan`, filtered by `predicate`
/// if given: reuse the table's cached column set, run the predicate
/// kernels over every row, and gather the surviving rows as shared-row
/// clones — byte-identical to the serial retain loop, in the same order.
/// Returns `None` outside the columnar mode, for any other input and when
/// the predicate is outside kernel coverage; the caller then runs the row
/// path, which stays authoritative.
fn columnar_scan(
    input: &Plan,
    predicate: Option<&Expr>,
    ctx: &ExecCtx<'_>,
) -> Result<Option<(Relation, ColInput)>> {
    let (Plan::Scan { table, qualifier }, true) = (input, ctx.optimizer.columnar) else {
        return Ok(None);
    };
    let t = ctx.catalog.get_required(table)?;
    let schema = RelSchema::qualified(qualifier, t.column_names());
    let set = t.column_set();
    let Some(predicate) = predicate else {
        let rel = Relation { schema, rows: t.rows().to_vec() };
        return Ok(Some((rel, ColInput { set, sel: None })));
    };
    let Some(verdict) = crate::columnar::eval_predicate(&bind_columns(predicate, &schema), &set)
    else {
        return Ok(None);
    };
    ctx.check_cancel()?;
    let sel = verdict.selected();
    let rows = sel.iter().map(|&i| t.rows()[i as usize].clone()).collect();
    Ok(Some((Relation { schema, rows }, ColInput { set, sel: Some(sel) })))
}

/// The batch filter: the rows evaluate the `predicate`, bound to their
/// schema (its prefetched calls answered by `calls`), into a keep-bitmap,
/// and one in-place compaction drops the rejected rows — survivors are
/// never cloned or moved into a fresh vector, and input order is kept.
fn filter_relation(
    rel: &mut Relation,
    predicate: &Expr,
    calls: &BatchableCalls,
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
        calls: &BatchableCalls,
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
