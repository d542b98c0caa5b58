//! Row-level expression evaluation with SQL three-valued logic.
//!
//! Evaluation happens against a [`RowCtx`] chain: the innermost scope is the
//! current row; outer scopes (for correlated subqueries) are linked via
//! `outer`. Subqueries are executed through [`crate::exec::run_select`] and
//! classified once per statement into one of three
//! [`SubqueryState`]s, cached in the [`ExecCtx`](crate::exec::ExecCtx):
//!
//! * **uncorrelated** — executed once, the result shared by every row; an
//!   `IN (SELECT …)` probes a keyed index of it instead of walking it;
//! * **keyed** — an equality-correlated scalar aggregate
//!   (`(SELECT COUNT(*) FROM r WHERE r.k = outer.k AND r.x = 1)`) is grouped
//!   once by its correlation keys and hash-probed per outer row
//!   ([`KeyedAggregate`]; gated by `OptimizerConfig::index_scan`);
//! * **correlated** — re-executed per outer row: every other shape
//!   (correlated `EXISTS`/`IN`, `LIMIT`/`ORDER BY`/`GROUP BY`/`DISTINCT`
//!   inside, a join or derived table in FROM, nested subqueries, expensive
//!   UDFs, non-equality correlation), and the reference the other two are
//!   tested against.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::sync::Arc;

use crate::ast::{BinaryOp, Expr, SelectStmt, UnaryOp};
use crate::error::{Error, Result};
use crate::exec::{run_select, ExecCtx, KeyedAggregate, Members, Relation, SubqueryState};
use crate::functions::{eval_builtin, glob_match, is_aggregate, like_match, ScalarUdf, UdfRegistry};
use crate::hash::FxHashMap;
use crate::plan::RelSchema;
use crate::value::{UdfArgs, Value};

/// One scope of row bindings. `outer` points at the enclosing query's scope
/// for correlated subqueries.
#[derive(Clone, Copy)]
pub struct RowCtx<'a> {
    pub schema: &'a RelSchema,
    pub row: &'a [Value],
    pub outer: Option<&'a RowCtx<'a>>,
}

impl<'a> RowCtx<'a> {
    pub fn new(schema: &'a RelSchema, row: &'a [Value]) -> Self {
        RowCtx { schema, row, outer: None }
    }

    pub fn with_outer(schema: &'a RelSchema, row: &'a [Value], outer: &'a RowCtx<'a>) -> Self {
        RowCtx { schema, row, outer: Some(outer) }
    }

    /// Resolve a column through the scope chain, innermost first.
    fn lookup(&self, qual: Option<&str>, name: &str) -> Result<Option<&Value>> {
        if let Some(i) = self.schema.resolve(qual, name)? {
            return Ok(Some(&self.row[i]));
        }
        match self.outer {
            Some(o) => o.lookup(qual, name),
            None => Ok(None),
        }
    }
}

/// Evaluate `expr` for the given row scope (or no row, for constants).
pub fn eval(expr: &Expr, ctx: &ExecCtx<'_>, row: Option<&RowCtx<'_>>) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),

        Expr::Column { table, name } => {
            let full = || match table {
                Some(t) => format!("{t}.{name}"),
                None => name.clone(),
            };
            match row {
                None => Err(Error::Unresolved(full())),
                Some(r) => r
                    .lookup(table.as_deref(), name)?
                    .cloned()
                    .ok_or_else(|| Error::Unresolved(full())),
            }
        }

        // Bound by the executor against the innermost schema; a direct
        // index load with no name resolution (see [`bind_columns`]).
        Expr::BoundColumn(i) => match row {
            Some(r) => Ok(r.row[*i].clone()),
            None => Err(Error::Unresolved(format!("bound column #{i} without a row"))),
        },

        Expr::Unary { op, expr } => match op {
            UnaryOp::Neg => eval(expr, ctx, row)?.neg(),
            UnaryOp::Not => Ok(match eval(expr, ctx, row)?.truthiness() {
                Some(b) => Value::Integer(!b as i64),
                None => Value::Null,
            }),
        },

        Expr::Binary { op, left, right } => eval_binary(*op, left, right, ctx, row),

        Expr::Function { name, args, distinct: _, star: _ } => {
            if is_aggregate(name) {
                return Err(Error::Semantic(format!(
                    "misuse of aggregate function {name}() outside GROUP BY context"
                )));
            }
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, ctx, row)?);
            }
            if let Some(res) = eval_builtin(name, &vals) {
                return res;
            }
            match ctx.udfs.get_registered(name) {
                Some((registered, udf)) => {
                    if let Some(n) = udf.arity() {
                        if vals.len() != n {
                            return Err(Error::Semantic(format!(
                                "{name} expects {n} argument(s), got {}",
                                vals.len()
                            )));
                        }
                    }
                    if udf.is_expensive() && ctx.optimizer.batch_expensive_udfs {
                        // Batched execution: an operator-level prefetch
                        // ([`BatchableCalls`]) has usually answered this
                        // argument tuple already; per-row invocations fill
                        // (and reuse) the same statement-scoped store, so
                        // repeated tuples pay one call even off the
                        // batched path. Tuples are keyed by exact value
                        // identity ([`UdfArgs`]), matching the
                        // determinism contract on [`ScalarUdf::invoke`].
                        let args = UdfArgs(vals);
                        if let Some(v) = ctx.udf_result(registered, &args) {
                            return Ok(v);
                        }
                        let v = udf.invoke(&args.0)?;
                        ctx.store_udf_results(registered, [(args, v.clone())]);
                        return Ok(v);
                    }
                    udf.invoke(&vals)
                }
                None => Err(Error::Unresolved(format!("function {name}"))),
            }
        }

        Expr::IsNull { expr, negated } => {
            let v = eval(expr, ctx, row)?;
            Ok(Value::Integer((v.is_null() != *negated) as i64))
        }

        Expr::Like { expr, pattern, negated, glob } => {
            let v = eval(expr, ctx, row)?;
            let p = eval(pattern, ctx, row)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            // Borrow text cells directly: no per-row String allocation on
            // the common text-LIKE-text path.
            let vs = text_view(&v);
            let ps = text_view(&p);
            let hit = if *glob { glob_match(&vs, &ps) } else { like_match(&vs, &ps) };
            Ok(Value::Integer((hit != *negated) as i64))
        }

        Expr::Between { expr, low, high, negated } => {
            let v = eval(expr, ctx, row)?;
            let lo = eval(low, ctx, row)?;
            let hi = eval(high, ctx, row)?;
            let ge = v.sql_cmp(&lo).map(|o| o != Ordering::Less);
            let le = v.sql_cmp(&hi).map(|o| o != Ordering::Greater);
            Ok(match and3(ge, le) {
                Some(b) => Value::Integer((b != *negated) as i64),
                None => Value::Null,
            })
        }

        Expr::InList { expr, list, negated } => {
            let v = eval(expr, ctx, row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval(item, ctx, row)?;
                match v.sql_eq(&iv) {
                    Some(true) => return Ok(Value::Integer(!*negated as i64)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Integer(*negated as i64))
            }
        }

        Expr::InSubquery { expr, query, negated } => {
            // A NULL `v` is unknown against any member, and not in an
            // empty set: the subquery runs before NULL is the answer.
            let v = eval(expr, ctx, row)?;
            let cell = subquery_cell(query, ctx);
            let found = match subquery_state(&cell, query, ctx, row, Consumer::In)? {
                SubqueryState::Uncorrelated { members: Some(members), .. } => members.contains(&v),
                // Correlated: key this outer row's own result.
                state => Members::of(&subquery_rows(state, query, ctx, row)?).contains(&v),
            };
            Ok(match found {
                Some(hit) => Value::Integer((hit != *negated) as i64),
                None => Value::Null,
            })
        }

        Expr::Exists { query, negated } => {
            let cell = subquery_cell(query, ctx);
            let state = subquery_state(&cell, query, ctx, row, Consumer::Exists)?;
            let rel = subquery_rows(state, query, ctx, row)?;
            Ok(Value::Integer((rel.rows.is_empty() == *negated) as i64))
        }

        Expr::ScalarSubquery(query) => {
            let cell = subquery_cell(query, ctx);
            let state = subquery_state(&cell, query, ctx, row, Consumer::Scalar)?;
            if let (SubqueryState::Keyed(keyed), Some(outer)) = (state, row) {
                // An outer key this row cannot evaluate is left to the
                // per-row path, which raises what it always raised.
                if let Ok(v) = keyed.probe(ctx, outer) {
                    return Ok(v);
                }
            }
            let rel = subquery_rows(state, query, ctx, row)?;
            Ok(match rel.rows.first() {
                Some(r) => r.first().cloned().unwrap_or(Value::Null),
                None => Value::Null,
            })
        }

        Expr::Case { operand, branches, else_expr } => {
            match operand {
                Some(op_expr) => {
                    let op_val = eval(op_expr, ctx, row)?;
                    for (when, then) in branches {
                        let w = eval(when, ctx, row)?;
                        if op_val.sql_eq(&w) == Some(true) {
                            return eval(then, ctx, row);
                        }
                    }
                }
                None => {
                    for (when, then) in branches {
                        if eval(when, ctx, row)?.truthiness() == Some(true) {
                            return eval(then, ctx, row);
                        }
                    }
                }
            }
            match else_expr {
                Some(e) => eval(e, ctx, row),
                None => Ok(Value::Null),
            }
        }

        Expr::Cast { expr, type_name } => Ok(cast_value(eval(expr, ctx, row)?, type_name)),
    }
}

/// Text view of a value without copying interned text; other storage
/// classes render (allocate) as before.
fn text_view(v: &Value) -> std::borrow::Cow<'_, str> {
    match v.as_str() {
        Some(s) => std::borrow::Cow::Borrowed(s),
        None => std::borrow::Cow::Owned(v.render()),
    }
}

/// Bind an expression to a schema: every column reference that resolves in
/// `schema` is rewritten to [`Expr::BoundColumn`], so a per-row loop pays
/// name resolution once instead of once per row. Unresolvable references
/// (outer-scope correlations) stay symbolic, and subqueries are left
/// untouched — they execute in their own scope.
pub fn bind_columns(expr: &Expr, schema: &RelSchema) -> Expr {
    match expr {
        Expr::Column { table, name } => {
            match schema.resolve(table.as_deref(), name) {
                Ok(Some(i)) => Expr::BoundColumn(i),
                _ => expr.clone(),
            }
        }
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(bind_columns(expr, schema)),
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(bind_columns(left, schema)),
            right: Box::new(bind_columns(right, schema)),
        },
        Expr::Function { name, args, distinct, star } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| bind_columns(a, schema)).collect(),
            distinct: *distinct,
            star: *star,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(bind_columns(expr, schema)),
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated, glob } => Expr::Like {
            expr: Box::new(bind_columns(expr, schema)),
            pattern: Box::new(bind_columns(pattern, schema)),
            negated: *negated,
            glob: *glob,
        },
        Expr::Between { expr, low, high, negated } => Expr::Between {
            expr: Box::new(bind_columns(expr, schema)),
            low: Box::new(bind_columns(low, schema)),
            high: Box::new(bind_columns(high, schema)),
            negated: *negated,
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(bind_columns(expr, schema)),
            list: list.iter().map(|e| bind_columns(e, schema)).collect(),
            negated: *negated,
        },
        // The probe expression binds; the subquery keeps its own scope.
        Expr::InSubquery { expr, query, negated } => Expr::InSubquery {
            expr: Box::new(bind_columns(expr, schema)),
            query: query.clone(),
            negated: *negated,
        },
        Expr::Case { operand, branches, else_expr } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(bind_columns(o, schema))),
            branches: branches
                .iter()
                .map(|(w, t)| (bind_columns(w, schema), bind_columns(t, schema)))
                .collect(),
            else_expr: else_expr.as_ref().map(|e| Box::new(bind_columns(e, schema))),
        },
        Expr::Cast { expr, type_name } => Expr::Cast {
            expr: Box::new(bind_columns(expr, schema)),
            type_name: type_name.clone(),
        },
        // Leaves and whole subqueries pass through unchanged.
        other => other.clone(),
    }
}

// ---- batched expensive-UDF evaluation --------------------------------------

/// A row source that can be replayed once per call site: the callback is
/// handed a per-row collector and must invoke it for every row of the
/// operator's input batch.
pub type RowSource<'a> = dyn FnMut(&mut dyn FnMut(&RowCtx<'_>) -> Result<()>) -> Result<()> + 'a;

/// One expensive scalar-UDF call site found in an operator's expressions.
struct CallSite<'e> {
    /// Lowercased function name (the result-store key prefix).
    name: String,
    args: &'e [Expr],
    udf: Arc<dyn ScalarUdf>,
    /// Whether the call sits inside an aggregate's argument (evaluated per
    /// member row) rather than over the group representative.
    in_aggregate: bool,
}

/// The expensive scalar-UDF call sites of one operator, ready for
/// vectorized evaluation.
///
/// For each site (innermost first, so nested calls resolve bottom-up) the
/// prefetch evaluates the argument expressions across the operator's input
/// batch, dedupes the tuples by exact value identity, issues **one**
/// [`ScalarUdf::invoke_batch`] for the tuples not already answered, and
/// stores the results in the statement-scoped
/// [`ExecCtx::udf_results`](crate::exec::ExecCtx) store where the per-row
/// evaluator finds them. Rows whose arguments fail to evaluate here (outer
/// correlations the batch schema cannot see, latent type errors) are left
/// to the per-row path, which raises exactly what the unbatched engine
/// raised, and a failing `invoke_batch` likewise falls back instead of
/// erroring. Sites in *conditionally evaluated* positions of one expression
/// (CASE branches, right-hand sides of AND/OR, IN-list tails) are never
/// collected. An operator that hands over several expressions has each
/// collected on its own, though, and the WHERE filter hands over each
/// expensive conjunct alone: every one is prefetched over all the rows the
/// cheap conjuncts kept. In `A = 'Yes' AND B = 'LA'` with both expensive,
/// B is asked even for rows where A is false, which per-row short-circuit
/// evaluation would have skipped — so batching can raise a statement's
/// call count as well as lower it.
pub struct BatchableCalls<'e> {
    sites: Vec<CallSite<'e>>,
}

impl<'e> BatchableCalls<'e> {
    /// Find the expensive call sites in `exprs`; `None` when there are
    /// none (the overwhelmingly common case — one cheap walk per operator)
    /// or when the statement evaluates per row
    /// (`OptimizerConfig::batch_expensive_udfs` off): the one place an
    /// operator's batching is switched.
    pub fn find(
        exprs: impl IntoIterator<Item = &'e Expr>,
        ctx: &ExecCtx<'_>,
    ) -> Option<BatchableCalls<'e>> {
        if !ctx.optimizer.batch_expensive_udfs {
            return None;
        }
        let mut sites = Vec::new();
        for e in exprs {
            let sc = SiteCtx { in_aggregate: false, conditional: false };
            collect_sites(e, ctx.udfs, sc, &mut sites);
        }
        if sites.is_empty() {
            None
        } else {
            Some(BatchableCalls { sites })
        }
    }

    /// Prefetch every site across a materialized row batch.
    pub fn prefetch_rows<'r>(
        &self,
        ctx: &ExecCtx<'_>,
        schema: &RelSchema,
        rows: impl IntoIterator<Item = &'r crate::value::Row> + Copy,
        outer: Option<&RowCtx<'_>>,
    ) -> Result<()> {
        self.prefetch(ctx, &mut |collect| {
            for row in rows {
                collect(&RowCtx { schema, row, outer })?;
            }
            Ok(())
        })
    }

    /// Prefetch every site over a replayable row source.
    pub fn prefetch(&self, ctx: &ExecCtx<'_>, rows: &mut RowSource<'_>) -> Result<()> {
        for site in &self.sites {
            prefetch_site(site, ctx, rows)?;
        }
        Ok(())
    }

    /// Prefetch only the sites inside (or outside) aggregate arguments —
    /// the aggregation operator batches the two classes over different row
    /// sets (member rows vs group representatives).
    pub fn prefetch_scope(
        &self,
        in_aggregate: bool,
        ctx: &ExecCtx<'_>,
        rows: &mut RowSource<'_>,
    ) -> Result<()> {
        for site in self.sites.iter().filter(|s| s.in_aggregate == in_aggregate) {
            prefetch_site(site, ctx, rows)?;
        }
        Ok(())
    }
}

/// Traversal state for call-site collection.
#[derive(Clone, Copy)]
struct SiteCtx {
    in_aggregate: bool,
    /// Inside a subtree per-row evaluation may skip (CASE branches, the
    /// right-hand side of AND/OR, IN-list tails). Such sites are not
    /// collected: batching must never pay for a call short-circuiting
    /// would have avoided.
    conditional: bool,
}

impl SiteCtx {
    fn conditional(self) -> SiteCtx {
        SiteCtx { conditional: true, ..self }
    }
}

/// Post-order call-site collection (arguments before the call itself, so
/// nested expensive calls batch innermost-first). Subqueries are skipped —
/// they execute in their own scope and batch there; aggregate calls mark
/// their argument subtrees but are never sites themselves.
fn collect_sites<'e>(
    e: &'e Expr,
    udfs: &UdfRegistry,
    sc: SiteCtx,
    out: &mut Vec<CallSite<'e>>,
) {
    match e {
        Expr::Function { name, args, .. } => {
            let agg = is_aggregate(name);
            let inner = SiteCtx { in_aggregate: sc.in_aggregate || agg, ..sc };
            for a in args {
                collect_sites(a, udfs, inner, out);
            }
            if agg || sc.conditional {
                return;
            }
            if let Some(udf) = udfs.get(name) {
                // Arity mismatches are left to the per-row path's error.
                if udf.is_expensive() && udf.arity().is_none_or(|n| n == args.len()) {
                    out.push(CallSite {
                        name: name.to_ascii_lowercase(),
                        args,
                        udf: udf.clone(),
                        in_aggregate: sc.in_aggregate,
                    });
                }
            }
        }
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            collect_sites(expr, udfs, sc, out)
        }
        Expr::Binary { op, left, right } => {
            collect_sites(left, udfs, sc, out);
            // AND/OR short-circuit: the right operand may never run.
            let rc = match op {
                BinaryOp::And | BinaryOp::Or => sc.conditional(),
                _ => sc,
            };
            collect_sites(right, udfs, rc, out);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_sites(expr, udfs, sc, out);
            collect_sites(pattern, udfs, sc, out);
        }
        Expr::Between { expr, low, high, .. } => {
            collect_sites(expr, udfs, sc, out);
            collect_sites(low, udfs, sc, out);
            collect_sites(high, udfs, sc, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_sites(expr, udfs, sc, out);
            // A NULL tested expression skips the whole list, and
            // membership testing stops at the first match: every list
            // item is conditionally evaluated.
            for item in list {
                collect_sites(item, udfs, sc.conditional(), out);
            }
        }
        Expr::InSubquery { expr, .. } => collect_sites(expr, udfs, sc, out),
        Expr::Case { operand, branches, else_expr } => {
            // The operand and the first WHEN always evaluate; every later
            // WHEN, every THEN, and the ELSE may be skipped.
            if let Some(op) = operand {
                collect_sites(op, udfs, sc, out);
            }
            for (i, (w, t)) in branches.iter().enumerate() {
                let wc = if i == 0 { sc } else { sc.conditional() };
                collect_sites(w, udfs, wc, out);
                collect_sites(t, udfs, sc.conditional(), out);
            }
            if let Some(el) = else_expr {
                collect_sites(el, udfs, sc.conditional(), out);
            }
        }
        Expr::Literal(_)
        | Expr::Column { .. }
        | Expr::BoundColumn(_)
        | Expr::Exists { .. }
        | Expr::ScalarSubquery(_) => {}
    }
}

fn prefetch_site(
    site: &CallSite<'_>,
    ctx: &ExecCtx<'_>,
    rows: &mut RowSource<'_>,
) -> Result<()> {
    // Tuples this pass has already queued. The statement store is probed
    // only after a row's arguments are evaluated: a nested expensive call
    // among them reads and fills that store itself.
    let mut queued: FxHashMap<UdfArgs, ()> = FxHashMap::default();
    let mut pending_args: Vec<Vec<Value>> = Vec::new();
    // The arguments bound to the schema of the rows at hand: once per row
    // source, not a name lookup per column per row.
    let mut bound: Option<(*const RelSchema, Vec<Expr>)> = None;
    rows(&mut |rc| {
        let args = match &bound {
            Some((schema, args)) if std::ptr::eq(*schema, rc.schema) => args,
            _ => {
                let args = site.args.iter().map(|a| bind_columns(a, rc.schema)).collect();
                &bound.insert((rc.schema as *const _, args)).1
            }
        };
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            match eval(a, ctx, Some(rc)) {
                Ok(v) => vals.push(v),
                // Unevaluable in batch context: leave this row to the
                // per-row path.
                Err(_) => return Ok(()),
            }
        }
        let args = UdfArgs(vals);
        if ctx.udf_result(&site.name, &args).is_some() {
            return Ok(());
        }
        if let Entry::Vacant(slot) = queued.entry(args) {
            pending_args.push(slot.key().0.clone());
            slot.insert(());
        }
        Ok(())
    })?;
    if pending_args.is_empty() {
        return Ok(());
    }
    // One vectorized call for the whole batch; the UDF chunks internally.
    // A failed or short batch leaves tuples unanswered and the per-row
    // path surfaces (or retries) them.
    let Ok(results) = site.udf.invoke_batch(&pending_args) else {
        return Ok(());
    };
    if results.len() != pending_args.len() {
        return Ok(());
    }
    ctx.store_udf_results(&site.name, pending_args.into_iter().map(UdfArgs).zip(results));
    Ok(())
}

fn eval_binary(
    op: BinaryOp,
    left: &Expr,
    right: &Expr,
    ctx: &ExecCtx<'_>,
    row: Option<&RowCtx<'_>>,
) -> Result<Value> {
    // AND/OR get Kleene short-circuit treatment.
    match op {
        BinaryOp::And => {
            let l = eval(left, ctx, row)?.truthiness();
            if l == Some(false) {
                return Ok(Value::Integer(0));
            }
            let r = eval(right, ctx, row)?.truthiness();
            return Ok(match and3(l, r) {
                Some(b) => Value::Integer(b as i64),
                None => Value::Null,
            });
        }
        BinaryOp::Or => {
            let l = eval(left, ctx, row)?.truthiness();
            if l == Some(true) {
                return Ok(Value::Integer(1));
            }
            let r = eval(right, ctx, row)?.truthiness();
            return Ok(match or3(l, r) {
                Some(b) => Value::Integer(b as i64),
                None => Value::Null,
            });
        }
        _ => {}
    }
    let a = eval(left, ctx, row)?;
    let b = eval(right, ctx, row)?;
    let as_bool = |o: Option<bool>| match o {
        Some(t) => Value::Integer(t as i64),
        None => Value::Null,
    };
    match op {
        BinaryOp::Add => a.add(&b),
        BinaryOp::Sub => a.sub(&b),
        BinaryOp::Mul => a.mul(&b),
        BinaryOp::Div => a.div(&b),
        BinaryOp::Rem => a.rem(&b),
        BinaryOp::Eq => Ok(as_bool(a.sql_eq(&b))),
        BinaryOp::NotEq => Ok(as_bool(a.sql_eq(&b).map(|t| !t))),
        BinaryOp::Lt => Ok(as_bool(a.sql_cmp(&b).map(|o| o == Ordering::Less))),
        BinaryOp::LtEq => Ok(as_bool(a.sql_cmp(&b).map(|o| o != Ordering::Greater))),
        BinaryOp::Gt => Ok(as_bool(a.sql_cmp(&b).map(|o| o == Ordering::Greater))),
        BinaryOp::GtEq => Ok(as_bool(a.sql_cmp(&b).map(|o| o != Ordering::Less))),
        BinaryOp::Concat => {
            if a.is_null() || b.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::text(format!("{}{}", a.render(), b.render())))
            }
        }
        BinaryOp::And | BinaryOp::Or => unreachable!("handled above"),
    }
}

/// Kleene AND over `Option<bool>` (None = unknown).
fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Kleene OR.
fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// `CAST` semantics, SQLite-flavoured: unconvertible text casts to 0 /
/// 0.0 rather than erroring; NULL stays NULL.
pub fn cast_value(v: Value, type_name: &str) -> Value {
    if v.is_null() {
        return Value::Null;
    }
    let t = type_name.to_ascii_uppercase();
    if t.contains("INT") {
        Value::Integer(match &v {
            Value::Integer(i) => *i,
            Value::Real(r) => *r as i64,
            Value::Text(s) => leading_number(s) as i64,
            Value::Null => unreachable!(),
        })
    } else if t.contains("REAL") || t.contains("FLOA") || t.contains("DOUB") || t.contains("NUM")
        || t.contains("DEC")
    {
        Value::Real(match &v {
            Value::Integer(i) => *i as f64,
            Value::Real(r) => *r,
            Value::Text(s) => leading_number(s),
            Value::Null => unreachable!(),
        })
    } else {
        // TEXT, VARCHAR, CHAR, anything else: render to text.
        Value::text(v.render())
    }
}

/// Parse the longest numeric prefix of `s` (SQLite CAST behaviour); 0.0 if
/// none.
fn leading_number(s: &str) -> f64 {
    let t = s.trim_start();
    let bytes = t.as_bytes();
    let mut end = 0;
    let mut seen_digit = false;
    let mut seen_dot = false;
    let mut seen_exp = false;
    while end < bytes.len() {
        let c = bytes[end] as char;
        match c {
            '+' | '-' if end == 0 => {}
            '0'..='9' => seen_digit = true,
            '.' if !seen_dot && !seen_exp => seen_dot = true,
            'e' | 'E' if seen_digit && !seen_exp => {
                // Only accept the exponent if digits follow.
                let mut j = end + 1;
                if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                    j += 1;
                }
                if j < bytes.len() && bytes[j].is_ascii_digit() {
                    seen_exp = true;
                    end = j;
                } else {
                    break;
                }
            }
            _ => break,
        }
        end += 1;
    }
    if !seen_digit {
        return 0.0;
    }
    t[..end].parse::<f64>().unwrap_or(0.0)
}

/// Which expression reads a subquery's result: it decides what the
/// subquery's cell is worth building beyond the plain relation.
#[derive(Clone, Copy, PartialEq)]
enum Consumer {
    Scalar,
    In,
    Exists,
}

type SubqueryCell = Arc<std::sync::OnceLock<Result<SubqueryState>>>;

/// Grab (or create) this subquery's single-flight cell. The map lock is
/// held only for the lookup — never while a subquery executes (run_select
/// can be arbitrarily expensive and recursively re-enter this cache for
/// nested subqueries).
fn subquery_cell(query: &Arc<SelectStmt>, ctx: &ExecCtx<'_>) -> SubqueryCell {
    let key = Arc::as_ptr(query) as usize;
    ctx.subqueries.lock().entry(key).or_default().clone()
}

/// Classify a subquery (once per statement; see the module docs for the
/// three outcomes) and return its state.
///
/// The first arriver executes the subquery without the outer scope;
/// concurrent arrivers block on the cell instead of racing a duplicate
/// execution. Nested subqueries use their own cells, so initialization
/// cannot cycle. A keyed build that fails with anything but a deadline or
/// cancellation declines to [`SubqueryState::Correlated`], so errors keep
/// surfacing from the per-row path.
fn subquery_state<'c>(
    cell: &'c SubqueryCell,
    query: &SelectStmt,
    ctx: &ExecCtx<'_>,
    row: Option<&RowCtx<'_>>,
    consumer: Consumer,
) -> Result<&'c SubqueryState> {
    let state = cell.get_or_init(|| match run_select(query, ctx, None) {
        Ok(rel) => {
            let rel = Arc::new(rel);
            let members = (consumer == Consumer::In).then(|| Members::of(&rel));
            Ok(SubqueryState::Uncorrelated { rel, members })
        }
        Err(Error::Unresolved(_)) if row.is_some() => {
            if consumer == Consumer::Scalar && ctx.optimizer.index_scan {
                match KeyedAggregate::build(query, ctx) {
                    Ok(Some(keyed)) => return Ok(SubqueryState::Keyed(keyed)),
                    Err(e @ (Error::Deadline | Error::Cancelled)) => return Err(e),
                    Ok(None) | Err(_) => {}
                }
            }
            Ok(SubqueryState::Correlated)
        }
        Err(e) => Err(e),
    });
    // The cache is statement-scoped, so a pinned error only
    // short-circuits re-evaluations within the failing statement.
    state.as_ref().map_err(Error::clone)
}

/// The subquery's rows for this outer row: the shared result when
/// uncorrelated, a fresh execution (no caching of rows) otherwise.
fn subquery_rows(
    state: &SubqueryState,
    query: &SelectStmt,
    ctx: &ExecCtx<'_>,
    row: Option<&RowCtx<'_>>,
) -> Result<Arc<Relation>> {
    match state {
        SubqueryState::Uncorrelated { rel, .. } => Ok(rel.clone()),
        _ => run_select(query, ctx, row).map(Arc::new),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::UdfRegistry;
    use crate::parser::parse_expression;
    use crate::storage::Catalog;

    fn const_eval(sql: &str) -> Result<Value> {
        let catalog = Catalog::new();
        let udfs = UdfRegistry::new();
        let ctx = ExecCtx::new(&catalog, &udfs);
        let e = parse_expression(sql)?;
        eval(&e, &ctx, None)
    }

    fn v(sql: &str) -> Value {
        const_eval(sql).unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(v("1 + 2 * 3"), Value::Integer(7));
        assert_eq!(v("(1 + 2) * 3"), Value::Integer(9));
        assert_eq!(v("7 / 2"), Value::Integer(3));
        assert_eq!(v("7.0 / 2"), Value::Real(3.5));
        assert_eq!(v("7 % 3"), Value::Integer(1));
        assert_eq!(v("-(3 + 4)"), Value::Integer(-7));
    }

    #[test]
    fn three_valued_and_or() {
        assert_eq!(v("NULL AND 0"), Value::Integer(0), "unknown AND false = false");
        assert!(v("NULL AND 1").is_null());
        assert_eq!(v("NULL OR 1"), Value::Integer(1), "unknown OR true = true");
        assert!(v("NULL OR 0").is_null());
        assert!(v("NOT NULL").is_null());
    }

    #[test]
    fn comparisons() {
        assert_eq!(v("1 < 2"), Value::Integer(1));
        assert_eq!(v("2 <= 2"), Value::Integer(1));
        assert_eq!(v("'abc' = 'abc'"), Value::Integer(1));
        assert_eq!(v("'abc' <> 'abd'"), Value::Integer(1));
        assert!(v("NULL = NULL").is_null(), "NULL never equals anything");
        assert_eq!(v("1 = 1.0"), Value::Integer(1));
    }

    #[test]
    fn is_null_and_between_and_in() {
        assert_eq!(v("NULL IS NULL"), Value::Integer(1));
        assert_eq!(v("3 IS NOT NULL"), Value::Integer(1));
        assert_eq!(v("5 BETWEEN 1 AND 10"), Value::Integer(1));
        assert_eq!(v("5 NOT BETWEEN 6 AND 10"), Value::Integer(1));
        assert_eq!(v("2 IN (1, 2, 3)"), Value::Integer(1));
        assert_eq!(v("9 NOT IN (1, 2, 3)"), Value::Integer(1));
        assert!(v("9 IN (1, NULL)").is_null(), "unknown membership");
        assert_eq!(v("1 IN (1, NULL)"), Value::Integer(1));
    }

    #[test]
    fn like_and_concat() {
        assert_eq!(v("'Marvel Comics' LIKE 'marvel%'"), Value::Integer(1));
        assert_eq!(v("'a' || 'b' || 'c'"), Value::text("abc"));
        assert!(v("'a' || NULL").is_null());
        assert!(v("NULL LIKE '%'").is_null());
    }

    #[test]
    fn case_expressions() {
        assert_eq!(v("CASE WHEN 1 > 0 THEN 'yes' ELSE 'no' END"), Value::text("yes"));
        assert_eq!(v("CASE 3 WHEN 1 THEN 'a' WHEN 3 THEN 'c' END"), Value::text("c"));
        assert!(v("CASE 9 WHEN 1 THEN 'a' END").is_null());
        assert_eq!(v("CASE WHEN NULL THEN 'x' ELSE 'y' END"), Value::text("y"));
    }

    #[test]
    fn casts() {
        assert_eq!(v("CAST('42abc' AS INTEGER)"), Value::Integer(42));
        assert_eq!(v("CAST('abc' AS INTEGER)"), Value::Integer(0));
        assert_eq!(v("CAST(3.9 AS INTEGER)"), Value::Integer(3));
        assert_eq!(v("CAST(5 AS TEXT)"), Value::text("5"));
        assert_eq!(v("CAST('3.5e2' AS REAL)"), Value::Real(350.0));
        assert!(v("CAST(NULL AS INTEGER)").is_null());
    }

    #[test]
    fn builtins_dispatch() {
        assert_eq!(v("UPPER('abc')"), Value::text("ABC"));
        assert_eq!(v("COALESCE(NULL, 2)"), Value::Integer(2));
        assert_eq!(v("LENGTH('hero')"), Value::Integer(4));
    }

    #[test]
    fn unknown_function_is_unresolved() {
        assert!(matches!(const_eval("nope(1)"), Err(Error::Unresolved(_))));
    }

    #[test]
    fn aggregate_outside_group_context_errors() {
        assert!(matches!(const_eval("COUNT(1)"), Err(Error::Semantic(_))));
    }

    #[test]
    fn column_without_row_is_unresolved() {
        assert!(matches!(const_eval("some_col + 1"), Err(Error::Unresolved(_))));
    }

    #[test]
    fn leading_number_parses_prefixes() {
        assert_eq!(leading_number("42abc"), 42.0);
        assert_eq!(leading_number("-3.5xyz"), -3.5);
        assert_eq!(leading_number("  7e2!"), 700.0);
        assert_eq!(leading_number("e5"), 0.0);
        assert_eq!(leading_number("abc"), 0.0);
        assert_eq!(leading_number("1e"), 1.0, "bare exponent marker is ignored");
    }

    // ---- subquery cell states ---------------------------------------------

    /// A test UDF from a closure: `(name, is_expensive, body)`.
    struct FnUdf<F>(&'static str, bool, F);

    impl<F: Fn(&[Value]) -> Result<Value> + Send + Sync> ScalarUdf for FnUdf<F> {
        fn name(&self) -> &str {
            self.0
        }
        fn invoke(&self, args: &[Value]) -> Result<Value> {
            (self.2)(args)
        }
        fn is_expensive(&self) -> bool {
            self.1
        }
    }

    /// formula_1 q22's tables in miniature: 6 drivers, 1,100 results
    /// (above one cancellation-check stride), driver 5 has no result,
    /// driver_id 1000 matches no driver, `llm_drivers` is the hybrid
    /// form's materialised side table.
    fn f1_db() -> crate::db::Database {
        let mut db = crate::db::Database::new();
        db.execute_script(
            "CREATE TABLE drivers (id INTEGER PRIMARY KEY, code TEXT);
             CREATE TABLE llm_drivers (id INTEGER PRIMARY KEY, code TEXT);
             CREATE TABLE results (id INTEGER PRIMARY KEY, driver_id INTEGER, position INTEGER);",
        )
        .unwrap();
        for t in ["drivers", "llm_drivers"] {
            let t = db.catalog_mut().get_mut(t).unwrap();
            for id in 0..6i64 {
                t.insert_row(vec![Value::Integer(id), Value::text(format!("D{id}"))]).unwrap();
            }
        }
        let r = db.catalog_mut().get_mut("results").unwrap();
        for id in 0..1100i64 {
            let driver = if id == 7 { 1000 } else { id % 5 };
            r.insert_row(vec![Value::Integer(id), Value::Integer(driver), Value::Integer(id % 3)])
                .unwrap();
        }
        db
    }

    /// Run `sql` and report what every subquery cell of the statement holds
    /// afterwards (sorted), next to the statement's outcome.
    fn run_states(
        db: &crate::db::Database,
        sql: &str,
        config: crate::optimizer::OptimizerConfig,
        cancel: swan_pool::CancelToken,
    ) -> (Result<Relation>, Vec<&'static str>) {
        let ctx = ExecCtx::new(db.catalog(), db.udfs()).with_optimizer(config).with_cancel(cancel);
        let crate::ast::Statement::Select(stmt) = crate::parser::parse_statement(sql).unwrap()
        else {
            panic!("not a SELECT: {sql}")
        };
        let out = run_select(&stmt, &ctx, None);
        let mut states: Vec<&'static str> = ctx
            .subqueries
            .lock()
            .values()
            .map(|cell| match cell.get() {
                Some(Ok(SubqueryState::Uncorrelated { .. })) => "uncorrelated",
                Some(Ok(SubqueryState::Keyed(_))) => "keyed",
                Some(Ok(SubqueryState::Correlated)) => "correlated",
                Some(Err(_)) => "error",
                None => "unset",
            })
            .collect();
        states.sort_unstable();
        (out, states)
    }

    /// Cell states under the default configuration, after checking that the
    /// rows equal the per-row reference's (`index_scan: false`, which must
    /// never build).
    fn states(db: &crate::db::Database, sql: &str) -> Vec<&'static str> {
        use crate::optimizer::OptimizerConfig;
        let token = swan_pool::CancelToken::unbounded;
        let reference = OptimizerConfig { index_scan: false, ..Default::default() };
        let (want, ref_states) = run_states(db, sql, reference, token());
        assert!(!ref_states.contains(&"keyed"), "index_scan: false built an index for {sql}");
        let want = want.unwrap_or_else(|e| panic!("{sql}: {e}")).rows;
        let (got, states) = run_states(db, sql, OptimizerConfig::default(), token());
        assert_eq!(got.unwrap().rows, want, "{sql}");
        states
    }

    const WINS: &str =
        "SELECT COUNT(*) FROM results r WHERE r.driver_id = T1.id AND r.position = 1";

    #[test]
    fn keyed_build_engages_for_the_paper_shapes() {
        let db = f1_db();
        // formula_1 q22 (gold / udf form) and its hybrid form, whose outer
        // side is a join; then the select-list position, flipped equality
        // sides, an expression key, two keys, and an unqualified inner name.
        for sql in [
            format!("SELECT T1.code FROM drivers T1 WHERE ({WINS}) > 70"),
            format!(
                "SELECT L.code FROM drivers T1 JOIN llm_drivers L ON L.id = T1.id \
                 WHERE ({WINS}) > 70"
            ),
            format!("SELECT T1.code, ({WINS}) FROM drivers T1"),
            "SELECT T1.id, (SELECT COUNT(*) FROM results r WHERE T1.id = 2 AND r.position = 1) \
             FROM drivers T1"
                .to_string(),
            "SELECT T1.id, (SELECT COALESCE(SUM(position), 0) FROM results \
             WHERE T1.id + 1 = driver_id + 1) FROM drivers T1"
                .to_string(),
            "SELECT T1.id, (SELECT MAX(r.id) FROM results r \
             WHERE r.driver_id = T1.id AND r.position = T1.id % 3) FROM drivers T1"
                .to_string(),
        ] {
            assert_eq!(states(&db, &sql), ["keyed"], "{sql}");
        }
    }

    #[test]
    fn keyed_build_declines_every_excluded_shape() {
        let mut db = f1_db();
        db.register_udf(Arc::new(FnUdf("pricey", true, |a: &[Value]| Ok(a[0].clone()))));
        let per_row = |inner: &str| format!("SELECT T1.id, ({inner}) FROM drivers T1");
        let corr = "r.driver_id = T1.id";
        for inner in [
            // ORDER BY / LIMIT / OFFSET / GROUP BY / HAVING / DISTINCT inside.
            format!("SELECT COUNT(*) FROM results r WHERE {corr} ORDER BY 1"),
            format!("SELECT COUNT(*) FROM results r WHERE {corr} LIMIT 1"),
            format!("SELECT COUNT(*) FROM results r WHERE {corr} LIMIT 1 OFFSET 0"),
            format!("SELECT COUNT(*) FROM results r WHERE {corr} GROUP BY r.driver_id"),
            format!("SELECT COUNT(*) FROM results r WHERE {corr} HAVING COUNT(*) > 0"),
            format!("SELECT DISTINCT COUNT(*) FROM results r WHERE {corr}"),
            // Not one aggregate-bearing projection over inner columns only.
            format!("SELECT r.position FROM results r WHERE {corr} AND r.id < 5"),
            format!("SELECT COUNT(*), 1 FROM results r WHERE {corr}"),
            format!("SELECT MIN(r.id) + r.position FROM results r WHERE {corr}"),
            format!("SELECT COUNT(*) + T1.id FROM results r WHERE {corr}"),
            format!("SELECT SUM(r.position * T1.id) FROM results r WHERE {corr}"),
            // Compound body, join / derived table / nothing in FROM.
            format!(
                "SELECT COUNT(*) FROM results r WHERE {corr} \
                 UNION ALL SELECT COUNT(*) FROM results r WHERE {corr} AND r.position = 1"
            ),
            format!(
                "SELECT COUNT(*) FROM results r JOIN llm_drivers L ON L.id = r.driver_id \
                 WHERE {corr}"
            ),
            format!("SELECT COUNT(*) FROM (SELECT * FROM results) r WHERE {corr}"),
            "SELECT COUNT(*) WHERE T1.id = 1".to_string(),
            // An expensive UDF anywhere.
            format!("SELECT COUNT(*) FROM results r WHERE {corr} AND pricey(r.position) = 1"),
            format!("SELECT COUNT(pricey(r.position)) FROM results r WHERE {corr}"),
            // Correlated conjuncts that are not clean equalities: another
            // operator, under OR, or a side mixing scopes — `position`
            // resolves in the inner schema, so it binds inner.
            "SELECT COUNT(*) FROM results r WHERE r.driver_id >= T1.id".to_string(),
            format!("SELECT COUNT(*) FROM results r WHERE {corr} OR r.position = 1"),
            "SELECT COUNT(*) FROM results r WHERE r.driver_id = T1.id + position".to_string(),
            "SELECT COUNT(*) FROM results r WHERE r.driver_id + T1.id = 4".to_string(),
        ] {
            assert_eq!(states(&db, &per_row(&inner)), ["correlated"], "{inner}");
        }
        // A nested subquery declines the outer one and keeps its own cell.
        let nested = format!(
            "SELECT COUNT(*) FROM results r WHERE {corr} \
             AND r.id > (SELECT MIN(id) FROM results)"
        );
        assert_eq!(states(&db, &per_row(&nested)), ["correlated", "uncorrelated"]);
        // Correlated EXISTS / IN consumers never build, whatever the shape.
        assert_eq!(
            states(&db, &format!("SELECT T1.id FROM drivers T1 WHERE EXISTS ({WINS})")),
            ["correlated"]
        );
        assert_eq!(
            states(&db, &format!("SELECT T1.id FROM drivers T1 WHERE 73 IN ({WINS})")),
            ["correlated"]
        );
        // A name that resolves in the inner schema is not a correlation:
        // `id` is `results.id`, the subquery is uncorrelated.
        assert_eq!(
            states(&db, &per_row("SELECT COUNT(*) FROM results WHERE driver_id = id")),
            ["uncorrelated"]
        );
    }

    #[test]
    fn failed_build_declines_and_cancellation_propagates() {
        let config = crate::optimizer::OptimizerConfig::default();
        // `boom` fails on the one row the per-row path never reaches (its
        // driver matches no outer row, so AND short-circuits first): the
        // build fails, declines, and the statement succeeds per row.
        let mut db = f1_db();
        db.register_udf(Arc::new(FnUdf("boom", false, |a: &[Value]| match a[0] {
            Value::Integer(7) => Err(Error::Udf { name: "boom".into(), message: "row 7".into() }),
            _ => Ok(Value::Integer(1)),
        })));
        let sql = "SELECT T1.id, (SELECT COUNT(*) FROM results r \
                   WHERE r.driver_id = T1.id AND boom(r.id)) FROM drivers T1";
        let (out, states) = run_states(&db, sql, config, swan_pool::CancelToken::unbounded());
        assert_eq!(states, ["correlated"]);
        assert_eq!(out.unwrap().rows[0][1], Value::Integer(220));

        // A statement cancelled while the build runs fails as cancelled: the
        // error is pinned in the cell, not swallowed into a per-row retry.
        let token = swan_pool::CancelToken::unbounded();
        let trip = token.clone();
        let mut db = f1_db();
        db.register_udf(Arc::new(FnUdf("trip", false, move |_: &[Value]| {
            trip.cancel();
            Ok(Value::Integer(1))
        })));
        let sql = "SELECT T1.id, (SELECT COUNT(*) FROM results r \
                   WHERE r.driver_id = T1.id AND trip(r.id)) FROM drivers T1";
        let (out, states) = run_states(&db, sql, config, token);
        assert_eq!(out.unwrap_err(), Error::Cancelled);
        assert_eq!(states, ["error"]);
    }

    /// An outer key the probe cannot evaluate is left to the per-row path:
    /// the statement fails (or not) exactly as under the reference.
    #[test]
    fn unevaluable_outer_key_raises_what_the_per_row_path_raises() {
        use crate::optimizer::OptimizerConfig;
        let db = f1_db();
        let token = swan_pool::CancelToken::unbounded;
        // `code` is ambiguous between the two outer tables; `T1.nope`
        // resolves nowhere.
        for key in ["code", "T1.nope"] {
            let sql = format!(
                "SELECT T1.id FROM drivers T1 JOIN llm_drivers L ON L.id = T1.id \
                 WHERE (SELECT COUNT(*) FROM results r WHERE r.driver_id = {key}) > 0"
            );
            let keyed = OptimizerConfig::default();
            let reference = OptimizerConfig { index_scan: false, ..keyed };
            let (want, _) = run_states(&db, &sql, reference, token());
            let (got, states) = run_states(&db, &sql, keyed, token());
            assert_eq!(states, ["keyed"], "{sql}");
            assert_eq!(got.unwrap_err(), want.unwrap_err(), "{sql}");
        }
    }

    /// Three-valued `v IN (items)` by linear `sql_eq` walk: a match wins,
    /// no match next to a NULL item (or for a NULL `v`, next to any item)
    /// is unknown, and nothing is in no items.
    fn in_walk(v: &Value, items: &[Value]) -> Option<bool> {
        let mut found = Some(false);
        for item in items {
            match v.sql_eq(item) {
                Some(true) => return Some(true),
                Some(false) => {}
                None => found = None,
            }
        }
        found
    }

    /// The `IN` index answers exactly what the linear `sql_eq` walk
    /// answers, including NaN (equals nothing), `-0.0`, integers past
    /// 2^53, `1 = 1.0`, text-vs-number, a NULL probe and no members.
    #[test]
    fn in_members_match_the_sql_eq_walk() {
        let values = [
            Value::Integer(1),
            Value::Real(1.0),
            Value::Real(-0.0),
            Value::Integer(0),
            Value::Integer((1 << 53) + 1),
            Value::Real((1u64 << 53) as f64),
            Value::text("1"),
            Value::text("a"),
            Value::Real(f64::NAN),
            Value::Real(2.5),
            Value::Null,
        ];
        // Every non-NULL value but one, and no values; each with and
        // without a NULL member.
        let cells = &values[..values.len() - 1];
        let sets = (0..cells.len())
            .map(|skip| [&cells[..skip], &cells[skip + 1..]].concat())
            .chain([Vec::new()]);
        for set in sets {
            for with_null in [false, true] {
                let mut items = set.clone();
                if with_null {
                    items.push(Value::Null);
                }
                let rel = Arc::new(Relation {
                    schema: RelSchema::default(),
                    rows: items.iter().map(|v| vec![v.clone()].into()).collect(),
                });
                let members = Members::of(&rel);
                for v in &values {
                    assert_eq!(members.contains(v), in_walk(v, &items), "{v:?} IN {items:?}");
                }
            }
        }
    }

    #[test]
    fn row_ctx_scope_chain() {
        let outer_schema = RelSchema::qualified("o", vec!["x".to_string()]);
        let outer_row = vec![Value::Integer(99)];
        let outer = RowCtx::new(&outer_schema, &outer_row);
        let inner_schema = RelSchema::qualified("i", vec!["y".to_string()]);
        let inner_row = vec![Value::Integer(1)];
        let inner = RowCtx::with_outer(&inner_schema, &inner_row, &outer);

        let catalog = Catalog::new();
        let udfs = UdfRegistry::new();
        let ctx = ExecCtx::new(&catalog, &udfs);
        let e = parse_expression("o.x + i.y").unwrap();
        assert_eq!(eval(&e, &ctx, Some(&inner)).unwrap(), Value::Integer(100));
    }
}
