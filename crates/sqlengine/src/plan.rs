//! Logical plans for whole SELECT statements.
//!
//! [`plan_select`] plans a statement: each SELECT core's FROM/WHERE part
//! is lowered by [`plan_from`] and passed through the optimizer (see
//! [`crate::optimizer`]: join order and conjunct placement, expensive
//! predicates last, primary-key probes, column pruning), and the stages
//! above it — [`Plan::Project`] or [`Plan::Aggregate`], then
//! [`Plan::Distinct`], [`Plan::Compound`], [`Plan::Sort`] and
//! [`Plan::Limit`] — are settled from the schema alone: wildcard
//! expansion and output names, ORDER BY / HAVING aliases and ordinals,
//! whether a core aggregates, the pruning list and the top-k bound.
//! [`crate::exec::exec_plan`] is the one interpreter of the result.
//! Expressions still bind to rows when they run, so a name that resolves
//! nowhere fails only when a row reaches it. Batching of expensive calls
//! is no node either: every operator (the filter included) vectorizes
//! the call sites of its own expressions.

use std::cell::OnceCell;

use crate::ast::{
    CompoundOp, Expr, JoinKind, OrderItem, SelectBody, SelectCore, SelectItem, SelectStmt,
    TableRef,
};
use crate::error::{Error, Result};
use crate::functions::UdfRegistry;
use crate::optimizer::{expr_columns, optimize, NeededCol, OptimizerConfig};
use crate::value::Value;

/// What the planner/optimizer needs to know about base tables: their
/// column lists (for schema reasoning) and their row counts (the
/// statistics behind join ordering). Implemented by
/// [`Catalog`](crate::storage::Catalog).
pub trait SchemaProvider {
    fn table_columns(&self, table: &str) -> Result<Vec<String>>;
    /// `None` when the table (or its cardinality) is unknown.
    fn table_rows(&self, table: &str) -> Option<usize>;
    /// Primary-key column names in key order; `None` when the table is
    /// unknown or has no primary key. Drives the optimizer's
    /// [`Plan::IndexScan`] rewrite; the default (no keys) simply
    /// disables it.
    fn table_primary_key(&self, _table: &str) -> Option<Vec<String>> {
        None
    }
}

/// A column of a relation schema: optional qualifier (table alias) + name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColRef {
    pub qualifier: Option<String>,
    pub name: String,
}

impl ColRef {
    pub fn new(qualifier: Option<String>, name: impl Into<String>) -> Self {
        ColRef { qualifier, name: name.into() }
    }

    /// Does this column answer to `(qual, name)`?
    pub fn matches(&self, qual: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qual {
            None => true,
            Some(q) => self
                .qualifier
                .as_deref()
                .is_some_and(|mine| mine.eq_ignore_ascii_case(q)),
        }
    }
}

/// Schema of an intermediate relation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelSchema {
    pub cols: Vec<ColRef>,
}

impl RelSchema {
    pub fn new(cols: Vec<ColRef>) -> Self {
        RelSchema { cols }
    }

    /// All columns qualified with one alias (scan / derived-table output).
    pub fn qualified(qualifier: &str, names: impl IntoIterator<Item = String>) -> Self {
        RelSchema {
            cols: names
                .into_iter()
                .map(|n| ColRef::new(Some(qualifier.to_string()), n))
                .collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.cols.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Concatenate two schemas (join output).
    pub fn join(&self, right: &RelSchema) -> RelSchema {
        let mut cols = Vec::with_capacity(self.cols.len() + right.cols.len());
        cols.extend(self.cols.iter().cloned());
        cols.extend(right.cols.iter().cloned());
        RelSchema { cols }
    }

    /// Resolve `(qual, name)` to a column index. Ambiguous unqualified
    /// references are an error; unknown names return `Ok(None)` so the
    /// caller can consult an outer scope.
    pub fn resolve(&self, qual: Option<&str>, name: &str) -> Result<Option<usize>> {
        let mut found = None;
        for (i, c) in self.cols.iter().enumerate() {
            if c.matches(qual, name) {
                if found.is_some() {
                    let full = match qual {
                        Some(q) => format!("{q}.{name}"),
                        None => name.to_string(),
                    };
                    return Err(Error::Semantic(format!("ambiguous column reference '{full}'")));
                }
                found = Some(i);
            }
        }
        Ok(found)
    }

    /// Can every column reference in `expr` (ignoring subqueries) be
    /// resolved against this schema alone? Used to decide which join side
    /// a predicate belongs to.
    pub fn covers(&self, expr: &Expr) -> bool {
        let mut ok = true;
        expr.walk(&mut |e| {
            if let Expr::Column { table, name } = e {
                match self.resolve(table.as_deref(), name) {
                    Ok(Some(_)) => {}
                    _ => ok = false,
                }
            }
        });
        ok
    }
}

/// Logical plan nodes of a SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Base-table scan. `qualifier` is the alias (or table name).
    Scan { table: String, qualifier: String },
    /// Primary-key point probe: emit the row whose primary key is `key`
    /// (in PK-column order), if any — one O(1) hash probe on the unique PK
    /// index ([`Table::pk_row_index`]). Rewritten from `Filter(Scan)` by
    /// the optimizer when the predicate pins every PK column to a
    /// literal; the full predicate is **kept** in a Filter above — key
    /// identity is a superset of SQL equality, and re-filtering makes the
    /// rewrite unconditionally sound.
    ///
    /// [`Table::pk_row_index`]: crate::storage::Table::pk_row_index
    IndexScan { table: String, qualifier: String, key: Vec<crate::value::Value> },
    /// Derived table: a subquery in FROM, re-qualified by its alias. Its
    /// statement is planned when it runs, and its schema is that plan's
    /// output schema.
    Derived { query: Box<SelectStmt>, qualifier: String },
    /// Join of two plans. RIGHT joins have been normalized to LEFT.
    ///
    /// `emit` is the column-pruning list: when set, only those indices of
    /// the concatenated (left + right) schema are materialized per output
    /// row — an empty list means the join emits zero-width rows (shared,
    /// allocation-free), which is what `SELECT COUNT(*)` joins execute.
    Join {
        left: Box<Plan>,
        right: Box<Plan>,
        kind: PlanJoinKind,
        on: Option<Expr>,
        emit: Option<Vec<usize>>,
    },
    /// Row filter. Whether its expensive-UDF conjuncts run per row or
    /// batched over the cheap conjuncts' survivors is the executor's mode
    /// (`OptimizerConfig::batch_expensive_udfs`), not a different plan.
    Filter { input: Box<Plan>, predicate: Expr },
    /// Zero-column, one-row relation (SELECT without FROM).
    Empty,
    /// One output row per input row: cell `i` is `exprs[i]` over the row,
    /// bound to the input's columns by name. The output columns are
    /// `names`; the cells past them are the sort keys of the
    /// [`Plan::Sort`] above, which drops them.
    Project { input: Box<Plan>, exprs: Vec<Expr>, names: Vec<ColRef> },
    /// One output row per group of `group_by` (one group when it is
    /// empty) that `having` keeps: aggregate calls in `having` and `exprs`
    /// read the group's rows, other columns its first row. Names and sort
    /// cells as in [`Plan::Project`].
    Aggregate {
        input: Box<Plan>,
        group_by: Vec<Expr>,
        having: Option<Expr>,
        exprs: Vec<Expr>,
        names: Vec<ColRef>,
    },
    /// The first row of each distinct tuple of output columns, in order.
    Distinct { input: Box<Plan> },
    /// The rows ordered by `keys` (cell index, descending), ties in input
    /// order; with `top_k`, only the first that many. Drops the cells past
    /// the output columns.
    Sort { input: Box<Plan>, keys: Vec<(usize, bool)>, top_k: Option<usize> },
    /// OFFSET, then LIMIT, each evaluated once when the node runs.
    Limit { input: Box<Plan>, limit: Option<Expr>, offset: Option<Expr> },
    /// UNION [ALL] / EXCEPT / INTERSECT; `left` names the columns.
    Compound { op: CompoundOp, left: Box<Plan>, right: Box<Plan> },
}

/// Join kinds after normalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanJoinKind {
    Inner,
    Left,
    Cross,
}

impl Plan {
    /// The output schema of this plan, resolved against `provider`.
    pub fn schema(&self, provider: &dyn SchemaProvider) -> Result<RelSchema> {
        match self {
            Plan::Scan { table, qualifier } | Plan::IndexScan { table, qualifier, .. } => {
                Ok(RelSchema::qualified(qualifier, provider.table_columns(table)?))
            }
            Plan::Derived { query, qualifier } => {
                let inner = plan_statement(query, provider, &mut |plan, _| Ok(plan))?;
                let names = inner.schema(provider)?.cols.into_iter().map(|c| c.name);
                Ok(RelSchema::qualified(qualifier, names))
            }
            Plan::Join { left, right, emit, .. } => {
                let full = left.schema(provider)?.join(&right.schema(provider)?);
                Ok(match emit {
                    None => full,
                    Some(idx) => RelSchema::new(
                        idx.iter().map(|&i| full.cols[i].clone()).collect(),
                    ),
                })
            }
            Plan::Project { names, .. } | Plan::Aggregate { names, .. } => {
                Ok(RelSchema::new(names.clone()))
            }
            Plan::Filter { input, .. }
            | Plan::Distinct { input }
            | Plan::Sort { input, .. }
            | Plan::Limit { input, .. }
            | Plan::Compound { left: input, .. } => input.schema(provider),
            Plan::Empty => Ok(RelSchema::default()),
        }
    }
}

/// Plan a whole SELECT: every core's FROM/WHERE tree optimized under
/// `config`, with the stages above it. Subqueries in expressions are
/// planned when they first run, once per statement.
pub fn plan_select(
    stmt: &SelectStmt,
    udfs: &UdfRegistry,
    config: &OptimizerConfig,
    provider: &dyn SchemaProvider,
) -> Result<Plan> {
    plan_statement(stmt, provider, &mut |plan, needed| {
        optimize(plan, udfs, config, provider, needed)
    })
}

/// What becomes of each core's FROM/WHERE tree: optimized, given the
/// columns the core reads above it (`None`: all of them).
type FromPass<'a> = dyn FnMut(Plan, Option<&[NeededCol]>) -> Result<Plan> + 'a;

fn plan_statement(
    stmt: &SelectStmt,
    provider: &dyn SchemaProvider,
    from: &mut FromPass,
) -> Result<Plan> {
    let (mut plan, keys) = match &stmt.body {
        SelectBody::Simple(core) => plan_core(core, &stmt.order_by, provider, from)?,
        body => {
            // A compound's keys read its output columns.
            let plan = plan_body(body, provider, from)?;
            let names = plan.schema(provider)?.cols;
            let mut exprs: Vec<Expr> = (0..names.len()).map(Expr::BoundColumn).collect();
            let keys = sort_keys(&stmt.order_by, &mut exprs, |e, exprs| {
                exprs.push(e.clone());
                Ok(exprs.len() - 1)
            })?;
            if exprs.len() > names.len() {
                (Plan::Project { input: Box::new(plan), exprs, names }, keys)
            } else {
                (plan, keys)
            }
        }
    };
    if !keys.is_empty() {
        plan = Plan::Sort { input: Box::new(plan), keys, top_k: top_k(stmt) };
    }
    if stmt.limit.is_some() || stmt.offset.is_some() {
        let (limit, offset) = (stmt.limit.clone(), stmt.offset.clone());
        plan = Plan::Limit { input: Box::new(plan), limit, offset };
    }
    Ok(plan)
}

fn plan_body(
    body: &SelectBody,
    provider: &dyn SchemaProvider,
    from: &mut FromPass,
) -> Result<Plan> {
    Ok(match body {
        SelectBody::Simple(core) => plan_core(core, &[], provider, from)?.0,
        SelectBody::Compound { op, left, right } => Plan::Compound {
            op: *op,
            left: Box::new(plan_body(left, provider, from)?),
            right: Box::new(plan_body(right, provider, from)?),
        },
    })
}

/// One SELECT core: its projection or aggregation over its optimized
/// FROM/WHERE tree, then DISTINCT, and the sort keys of `order_by`.
fn plan_core(
    core: &SelectCore,
    order_by: &[OrderItem],
    provider: &dyn SchemaProvider,
    from: &mut FromPass,
) -> Result<(Plan, Vec<(usize, bool)>)> {
    // The FROM schema in written order, computed when first asked for.
    let written = OnceCell::new();
    let schema = || -> Result<&RelSchema> {
        if written.get().is_none() {
            let _ = written.set(plan_from(core.from.as_ref(), None)?.schema(provider)?);
        }
        Ok(written.get().expect("set above"))
    };

    let (mut exprs, mut names) = (Vec::new(), Vec::new());
    for item in &core.projection {
        let q = match item {
            SelectItem::Expr { expr, alias } => {
                names.push(match (alias, expr) {
                    (Some(a), _) => ColRef::new(None, a.clone()),
                    (None, Expr::Column { table, name }) => ColRef::new(table.clone(), name),
                    (None, other) => ColRef::new(None, crate::display::expr_to_sql(other)),
                });
                exprs.push(expr.clone());
                continue;
            }
            SelectItem::Wildcard if schema()?.is_empty() => {
                return Err(Error::Semantic("SELECT * with no FROM clause".into()));
            }
            SelectItem::Wildcard => None,
            SelectItem::QualifiedWildcard(q) => Some(q.as_str()),
        };
        let before = names.len();
        for c in &schema()?.cols {
            if q.is_none_or(|q| c.qualifier.as_deref().is_some_and(|x| x.eq_ignore_ascii_case(q))) {
                exprs.push(Expr::Column { table: c.qualifier.clone(), name: c.name.clone() });
                names.push(c.clone());
            }
        }
        if let (Some(q), true) = (q, names.len() == before) {
            return Err(Error::Unresolved(format!("{q}.*")));
        }
    }
    let width = names.len();

    // ORDER BY and HAVING may name an output column by its alias; a FROM
    // column of the same name wins.
    let resolve = |e: &Expr, exprs: &[Expr]| -> Result<Expr> {
        if let Expr::Column { table: None, name } = e {
            if let Some(i) = names.iter().position(|c| c.name.eq_ignore_ascii_case(name)) {
                if schema()?.resolve(None, name).unwrap_or(None).is_none() {
                    return Ok(exprs[i].clone());
                }
            }
        }
        Ok(e.clone())
    };
    let having = core.having.as_ref().map(|h| resolve(h, &exprs)).transpose()?;
    let aggregated = !core.group_by.is_empty()
        || exprs.iter().chain(&core.having).any(Expr::contains_aggregate);
    if having.is_some() && !aggregated {
        return Err(Error::Semantic("HAVING requires GROUP BY or an aggregate".into()));
    }
    // A key that reads the same FROM column as an output column sorts on
    // that column; any other key is a cell of its own past the output.
    let keys = sort_keys(order_by, &mut exprs, |e, exprs| {
        let e = resolve(e, exprs)?;
        let column = |e: &Expr| -> Result<Option<usize>> {
            let Expr::Column { table, name } = e else { return Ok(None) };
            Ok(schema()?.resolve(table.as_deref(), name).unwrap_or(None))
        };
        if let Some(c) = column(&e)? {
            for (i, out) in exprs[..width].iter().enumerate() {
                if column(out)? == Some(c) {
                    return Ok(i);
                }
            }
        }
        exprs.push(e);
        Ok(exprs.len() - 1)
    })?;

    let input = plan_from(core.from.as_ref(), core.filter.as_ref())?;
    let input = Box::new(from(input, needed_columns(core, order_by).as_deref())?);
    let plan = if aggregated {
        Plan::Aggregate { input, group_by: core.group_by.clone(), having, exprs, names }
    } else {
        Plan::Project { input, exprs, names }
    };
    if core.distinct {
        return Ok((Plan::Distinct { input: Box::new(plan) }, keys));
    }
    Ok((plan, keys))
}

/// One `(cell, descending)` key per ORDER BY item: an ordinal names an
/// output column of `exprs` and must be one, any other expression is
/// given its cell by `place`.
fn sort_keys(
    order_by: &[OrderItem],
    exprs: &mut Vec<Expr>,
    mut place: impl FnMut(&Expr, &mut Vec<Expr>) -> Result<usize>,
) -> Result<Vec<(usize, bool)>> {
    let width = exprs.len();
    let mut keys = Vec::with_capacity(order_by.len());
    for item in order_by {
        let cell = match item.expr {
            Expr::Literal(Value::Integer(n)) if n < 1 || n as usize > width => {
                return Err(Error::Semantic(format!(
                    "ORDER BY position {n} is out of range (1..{width})"
                )));
            }
            Expr::Literal(Value::Integer(n)) => n as usize - 1,
            ref e => place(e, exprs)?,
        };
        keys.push((cell, item.desc));
    }
    Ok(keys)
}

/// `ORDER BY … LIMIT k [OFFSET m]` with literal bounds needs only the
/// first `k + m` rows, which the sort can select instead of sorting all.
fn top_k(stmt: &SelectStmt) -> Option<usize> {
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

/// The columns a core reads above its FROM/WHERE tree, for the
/// optimizer's join-output pruning: `None` — keep everything — on a
/// wildcard or a subquery (whose correlated references [`Expr::walk`]
/// cannot see). ORDER BY and HAVING names are taken as written, which at
/// worst keeps a column an alias stood for.
fn needed_columns(core: &SelectCore, order_by: &[OrderItem]) -> Option<Vec<NeededCol>> {
    let mut out = Vec::new();
    for item in &core.projection {
        match item {
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => return None,
            SelectItem::Expr { expr, .. } => out.extend(expr_columns(expr)?),
        }
    }
    for e in core.group_by.iter().chain(&core.having).chain(order_by.iter().map(|o| &o.expr)) {
        out.extend(expr_columns(e)?);
    }
    Some(out)
}

/// Lower a FROM clause + WHERE predicate to a plan.
///
/// RIGHT joins are normalized to LEFT joins by swapping inputs (column
/// order of the join output changes, but downstream resolution is by name,
/// and wildcard projection order for RIGHT joins is rarely relied on).
pub fn plan_from(from: Option<&TableRef>, filter: Option<&Expr>) -> Result<Plan> {
    let base = match from {
        None => Plan::Empty,
        Some(t) => plan_table_ref(t)?,
    };
    Ok(match filter {
        Some(pred) => Plan::Filter { input: Box::new(base), predicate: pred.clone() },
        None => base,
    })
}

fn plan_table_ref(t: &TableRef) -> Result<Plan> {
    match t {
        TableRef::Table { name, alias } => Ok(Plan::Scan {
            table: name.clone(),
            qualifier: alias.clone().unwrap_or_else(|| name.clone()),
        }),
        TableRef::Subquery { query, alias } => {
            Ok(Plan::Derived { query: query.clone(), qualifier: alias.clone() })
        }
        TableRef::Join { left, right, kind, on } => {
            let (l, r, k) = match kind {
                JoinKind::Inner => (left, right, PlanJoinKind::Inner),
                JoinKind::Left => (left, right, PlanJoinKind::Left),
                // RIGHT JOIN a b == LEFT JOIN b a.
                JoinKind::Right => (right, left, PlanJoinKind::Left),
                JoinKind::Cross => (left, right, PlanJoinKind::Cross),
            };
            Ok(Plan::Join {
                left: Box::new(plan_table_ref(l)?),
                right: Box::new(plan_table_ref(r)?),
                kind: k,
                on: on.clone(),
                emit: None,
            })
        }
    }
}

/// Split a predicate into its top-level AND conjuncts.
pub fn split_conjuncts(expr: &Expr) -> Vec<Expr> {
    let mut out = Vec::new();
    fn rec(e: &Expr, out: &mut Vec<Expr>) {
        if let Expr::Binary { op: crate::ast::BinaryOp::And, left, right } = e {
            rec(left, out);
            rec(right, out);
        } else {
            out.push(e.clone());
        }
    }
    rec(expr, &mut out);
    out
}

/// Rebuild a conjunction from parts (`None` if empty).
pub fn conjoin(parts: Vec<Expr>) -> Option<Expr> {
    let mut it = parts.into_iter();
    let first = it.next()?;
    Some(it.fold(first, |acc, e| Expr::Binary {
        op: crate::ast::BinaryOp::And,
        left: Box::new(acc),
        right: Box::new(e),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expression, parse_statement};

    fn from_of(sql: &str) -> (Option<TableRef>, Option<Expr>) {
        let crate::ast::Statement::Select(s) = parse_statement(sql).unwrap() else { panic!() };
        let crate::ast::SelectBody::Simple(core) = s.body else { panic!() };
        (core.from, core.filter)
    }

    #[test]
    fn scan_uses_alias_as_qualifier() {
        let (from, _) = from_of("SELECT * FROM superhero AS T1");
        let p = plan_from(from.as_ref(), None).unwrap();
        assert_eq!(p, Plan::Scan { table: "superhero".into(), qualifier: "T1".into() });
    }

    #[test]
    fn right_join_normalizes_to_left() {
        let (from, _) = from_of("SELECT * FROM a RIGHT JOIN b ON a.x = b.y");
        let p = plan_from(from.as_ref(), None).unwrap();
        let Plan::Join { left, right, kind, .. } = p else { panic!() };
        assert_eq!(kind, PlanJoinKind::Left);
        assert_eq!(*left, Plan::Scan { table: "b".into(), qualifier: "b".into() });
        assert_eq!(*right, Plan::Scan { table: "a".into(), qualifier: "a".into() });
    }

    #[test]
    fn where_becomes_filter() {
        let (from, filter) = from_of("SELECT * FROM t WHERE x > 3");
        let p = plan_from(from.as_ref(), filter.as_ref()).unwrap();
        assert!(matches!(p, Plan::Filter { .. }));
    }

    #[test]
    fn split_and_rejoin_conjuncts() {
        let e = parse_expression("a = 1 AND b = 2 AND (c = 3 OR d = 4)").unwrap();
        let parts = split_conjuncts(&e);
        assert_eq!(parts.len(), 3);
        let rebuilt = conjoin(parts.clone()).unwrap();
        assert_eq!(split_conjuncts(&rebuilt), parts);
        assert!(conjoin(vec![]).is_none());
    }

    #[test]
    fn schema_resolution_and_ambiguity() {
        let schema = RelSchema::new(vec![
            ColRef::new(Some("t1".into()), "id"),
            ColRef::new(Some("t2".into()), "id"),
            ColRef::new(Some("t2".into()), "name"),
        ]);
        assert_eq!(schema.resolve(Some("t1"), "id").unwrap(), Some(0));
        assert_eq!(schema.resolve(Some("T2"), "ID").unwrap(), Some(1));
        assert_eq!(schema.resolve(None, "name").unwrap(), Some(2));
        assert!(schema.resolve(None, "id").is_err(), "ambiguous");
        assert_eq!(schema.resolve(None, "missing").unwrap(), None);
    }

    #[test]
    fn covers_checks_all_columns() {
        let schema = RelSchema::qualified("t", vec!["a".to_string(), "b".to_string()]);
        assert!(schema.covers(&parse_expression("t.a + b").unwrap()));
        assert!(!schema.covers(&parse_expression("t.a + u.c").unwrap()));
    }

    #[test]
    fn join_schema_concatenates() {
        let l = RelSchema::qualified("a", vec!["x".to_string()]);
        let r = RelSchema::qualified("b", vec!["y".to_string()]);
        let j = l.join(&r);
        assert_eq!(j.len(), 2);
        assert_eq!(j.resolve(Some("b"), "y").unwrap(), Some(1));
    }
}
