//! Abstract syntax tree for the supported SQL dialect.
//!
//! The dialect is the subset of SQLite needed by the SWAN benchmark plus
//! hybrid-query UDFs: SELECT with joins / grouping / ordering / compound
//! operators, scalar and IN/EXISTS subqueries, CASE, CAST, LIKE and the
//! usual DDL/DML (CREATE/DROP/ALTER TABLE, INSERT, UPDATE, DELETE).

use std::sync::Arc;

use crate::value::Value;

/// A full statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStmt),
    CreateTable(CreateTable),
    DropTable { name: String, if_exists: bool },
    AlterTableAddColumn { table: String, column: ColumnDef },
    Insert(Insert),
    Update(Update),
    Delete(Delete),
    /// `BEGIN [TRANSACTION]` — open a snapshot-isolation transaction.
    Begin,
    /// `COMMIT [TRANSACTION]` — atomically publish the open transaction.
    Commit,
    /// `ROLLBACK [TRANSACTION]` — discard the open transaction.
    Rollback,
}

impl Statement {
    /// The table this statement mutates; `None` for read-only statements
    /// and transaction control. Drives writer lock acquisition and the
    /// transaction layer's written-set tracking.
    pub fn write_target(&self) -> Option<&str> {
        match self {
            Statement::Select(_)
            | Statement::Begin
            | Statement::Commit
            | Statement::Rollback => None,
            Statement::CreateTable(ct) => Some(&ct.name),
            Statement::DropTable { name, .. } => Some(name),
            Statement::AlterTableAddColumn { table, .. } => Some(table),
            Statement::Insert(ins) => Some(&ins.table),
            Statement::Update(upd) => Some(&upd.table),
            Statement::Delete(del) => Some(&del.table),
        }
    }

    /// True for `BEGIN`/`COMMIT`/`ROLLBACK`.
    pub fn is_txn_control(&self) -> bool {
        matches!(self, Statement::Begin | Statement::Commit | Statement::Rollback)
    }
}

/// `CREATE TABLE` with optional PRIMARY KEY column list.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub name: String,
    pub if_not_exists: bool,
    pub columns: Vec<ColumnDef>,
    /// Table-level PRIMARY KEY (col, ...) constraint, if any.
    pub primary_key: Vec<String>,
}

/// A column definition. Declared types are advisory (SQLite-style).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub decl_type: Option<String>,
    pub not_null: bool,
    pub primary_key: bool,
    pub unique: bool,
}

/// `INSERT INTO t (cols) VALUES (...), (...)` or `INSERT INTO t SELECT ...`.
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    pub columns: Vec<String>,
    pub source: InsertSource,
}

#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Select(Box<SelectStmt>),
}

/// `UPDATE t SET a = e, ... WHERE p`.
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: String,
    pub assignments: Vec<(String, Expr)>,
    pub filter: Option<Expr>,
}

/// `DELETE FROM t WHERE p`.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: String,
    pub filter: Option<Expr>,
}

/// A (possibly compound) SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub body: SelectBody,
    /// ORDER BY applies to the whole compound.
    pub order_by: Vec<OrderItem>,
    pub limit: Option<Expr>,
    pub offset: Option<Expr>,
}

/// Either a simple SELECT core or a compound of two bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectBody {
    Simple(Box<SelectCore>),
    Compound { op: CompoundOp, left: Box<SelectBody>, right: Box<SelectBody> },
}

/// UNION / UNION ALL / EXCEPT / INTERSECT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompoundOp {
    Union,
    UnionAll,
    Except,
    Intersect,
}

/// The core of a simple SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectCore {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Option<TableRef>,
    pub filter: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `t.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A FROM-clause item (table, subquery, or join tree).
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Table { name: String, alias: Option<String> },
    Subquery { query: Box<SelectStmt>, alias: String },
    Join { left: Box<TableRef>, right: Box<TableRef>, kind: JoinKind, on: Option<Expr> },
}

/// Supported join kinds. RIGHT joins are rewritten to LEFT by the planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Cross,
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Literal(Value),
    /// Possibly-qualified column reference: `(qualifier, name)`.
    Column { table: Option<String>, name: String },
    /// A column pre-resolved to its index in the executing relation's
    /// schema. Never produced by the parser: the executor *binds* an
    /// expression to a schema once before a per-row loop
    /// ([`crate::eval::bind_columns`]), turning per-row name resolution
    /// into a direct index load. Valid only against the schema it was
    /// bound to.
    BoundColumn(usize),
    /// Unary operator application.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Binary operator application.
    Binary { op: BinaryOp, left: Box<Expr>, right: Box<Expr> },
    /// Function call, possibly an aggregate, possibly `COUNT(*)`.
    Function { name: String, args: Vec<Expr>, distinct: bool, star: bool },
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
    /// `expr [NOT] LIKE pattern` (also GLOB with `glob: true`).
    Like { expr: Box<Expr>, pattern: Box<Expr>, negated: bool, glob: bool },
    /// `expr [NOT] BETWEEN low AND high`.
    Between { expr: Box<Expr>, low: Box<Expr>, high: Box<Expr>, negated: bool },
    /// `expr [NOT] IN (list)`.
    InList { expr: Box<Expr>, list: Vec<Expr>, negated: bool },
    /// `expr [NOT] IN (SELECT ...)`.
    ///
    /// Subquery bodies (here, in `Exists` and in `ScalarSubquery`) are
    /// `Arc`-shared: the executor keys a subquery's statement-scoped state
    /// by the body's address ([`crate::exec::SubqueryCache`]), so every
    /// clone or rebind of the expression must stay the *same* node for the
    /// statement's lifetime.
    InSubquery { expr: Box<Expr>, query: Arc<SelectStmt>, negated: bool },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists { query: Arc<SelectStmt>, negated: bool },
    /// Scalar subquery returning a single value.
    ScalarSubquery(Arc<SelectStmt>),
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`.
    Cast { expr: Box<Expr>, type_name: String },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Concat,
}

impl Expr {
    /// Convenience: an unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column { table: None, name: name.into() }
    }

    /// Convenience: a qualified column reference.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column { table: Some(table.into()), name: name.into() }
    }

    /// Convenience: a literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// True if this expression subtree contains an aggregate function call.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::Function { name, .. } = e {
                if crate::functions::is_aggregate(name) {
                    found = true;
                }
            }
        });
        found
    }

    /// Depth-first pre-order traversal over this expression (not descending
    /// into subqueries, which have their own scopes).
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Literal(_) | Expr::Column { .. } | Expr::BoundColumn(_) => {}
            Expr::Unary { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Between { expr, low, high, .. } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
            Expr::Case { operand, branches, else_expr } => {
                if let Some(op) = operand {
                    op.walk(f);
                }
                for (w, t) in branches {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Cast { expr, .. } => expr.walk(f),
        }
    }

    /// Collect the tables referenced by qualified column names in this
    /// expression (used by join-predicate pushdown).
    pub fn referenced_qualifiers(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column { table: Some(t), .. } = e {
                if !out.iter().any(|x: &String| x.eq_ignore_ascii_case(t)) {
                    out.push(t.clone());
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_visits_every_node() {
        // 1 + (2 * col) has 5 nodes.
        let e = Expr::Binary {
            op: BinaryOp::Add,
            left: Box::new(Expr::lit(1)),
            right: Box::new(Expr::Binary {
                op: BinaryOp::Mul,
                left: Box::new(Expr::lit(2)),
                right: Box::new(Expr::col("x")),
            }),
        };
        let mut n = 0;
        e.walk(&mut |_| n += 1);
        assert_eq!(n, 5);
    }

    #[test]
    fn contains_aggregate_detects_count() {
        let e = Expr::Function { name: "COUNT".into(), args: vec![], distinct: false, star: true };
        assert!(e.contains_aggregate());
        let plain = Expr::Function {
            name: "upper".into(),
            args: vec![Expr::col("x")],
            distinct: false,
            star: false,
        };
        assert!(!plain.contains_aggregate());
    }

    #[test]
    fn referenced_qualifiers_dedupes_case_insensitively() {
        let e = Expr::Binary {
            op: BinaryOp::Eq,
            left: Box::new(Expr::qcol("T1", "a")),
            right: Box::new(Expr::qcol("t1", "b")),
        };
        assert_eq!(e.referenced_qualifiers(), vec!["T1".to_string()]);
    }
}
