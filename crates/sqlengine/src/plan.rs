//! Logical plan for the FROM/WHERE part of a query.
//!
//! The planner lowers a [`TableRef`] tree plus the WHERE clause into a
//! [`Plan`]; the optimizer (see [`crate::optimizer`]) then pushes filters
//! toward scans and orders predicates so that expensive UDFs (LLM calls)
//! run on as few rows as possible. Projection, aggregation, ordering and
//! compounds are handled downstream by the executor — and so is the
//! batching of expensive calls: no node marks it, every operator (the
//! filter included) vectorizes the call sites of its own expressions.

use crate::ast::{Expr, JoinKind, SelectStmt, TableRef};
use crate::error::{Error, Result};

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

/// Logical plan nodes for the data-producing part of a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Base-table scan. `qualifier` is the alias (or table name).
    Scan { table: String, qualifier: String },
    /// Primary-key index scan: emit only the rows the `bounds` select,
    /// in base-table row order (so the output is byte-identical to a
    /// filtered full scan). Rewritten from `Filter(Scan)` by the
    /// optimizer when the predicate pins the primary key to literals;
    /// the full predicate is **kept** in a Filter above — the index
    /// probe may be a superset of SQL equality (`Point`) or include
    /// NULLs under a sole upper bound (`Range`), and re-filtering makes
    /// the rewrite unconditionally sound.
    IndexScan { table: String, qualifier: String, bounds: IndexBounds },
    /// Derived table: a subquery in FROM, re-qualified by its alias.
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
    /// Column permutation: output column `i` is input column `mapping[i]`.
    /// Emitted by join reordering to restore the query's written column
    /// order after the join tree has been rearranged.
    Permute { input: Box<Plan>, mapping: Vec<usize> },
    /// Zero-column, one-row relation (SELECT without FROM).
    Empty,
}

/// How a [`Plan::IndexScan`] probes the primary key.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexBounds {
    /// Every PK column pinned to a literal: one O(1) hash probe on the
    /// unique PK index ([`Table::pk_row_index`]). `key` is in PK-column
    /// order.
    ///
    /// [`Table::pk_row_index`]: crate::storage::Table::pk_row_index
    Point { key: Vec<crate::value::Value> },
    /// A range over the **first** PK column: binary search on the
    /// PK-sorted row permutation ([`Table::pk_range`]). Each bound is
    /// `(literal, inclusive)`; `None` means unbounded on that side.
    ///
    /// [`Table::pk_range`]: crate::storage::Table::pk_range
    Range {
        lower: Option<(crate::value::Value, bool)>,
        upper: Option<(crate::value::Value, bool)>,
    },
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
                let names = derived_output_names(query);
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
            Plan::Filter { input, .. } => input.schema(provider),
            Plan::Permute { input, mapping } => {
                let inner = input.schema(provider)?;
                Ok(RelSchema::new(
                    mapping.iter().map(|&i| inner.cols[i].clone()).collect(),
                ))
            }
            Plan::Empty => Ok(RelSchema::default()),
        }
    }
}

/// Column names a derived table exposes, best-effort (aliases, column
/// names, or positional fallbacks). The executor computes the authoritative
/// names; this is only used for static schema reasoning in the optimizer.
pub fn derived_output_names(query: &SelectStmt) -> Vec<String> {
    use crate::ast::{SelectBody, SelectItem};
    fn body_names(body: &SelectBody) -> Vec<String> {
        match body {
            SelectBody::Simple(core) => core
                .projection
                .iter()
                .enumerate()
                .map(|(i, item)| match item {
                    SelectItem::Expr { alias: Some(a), .. } => a.clone(),
                    SelectItem::Expr { expr: Expr::Column { name, .. }, .. } => name.clone(),
                    SelectItem::Expr { .. } => format!("column{}", i + 1),
                    SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                        // Unknown statically; executor will fill in.
                        format!("column{}", i + 1)
                    }
                })
                .collect(),
            SelectBody::Compound { left, .. } => body_names(left),
        }
    }
    body_names(&query.body)
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
