//! The public database facade.
//!
//! A [`Database`] owns a catalog and a UDF registry and executes SQL text.
//! This is the substrate both hybrid-query solutions build on: HQDL
//! materializes LLM-generated tables into it, and hybrid-query UDFs
//! register LLM functions on it.
//!
//! # Atomicity, transactions and durability
//!
//! A `Database` executes **one statement at a time** against a catalog it
//! owns, and every statement is atomic: a failing statement rolls its own
//! partial effects back. That is the whole contract. `BEGIN … COMMIT`
//! spans, the write-ahead log and checkpoints belong to
//! [`SharedDb`](crate::shared::SharedDb) and its
//! [`Session`](crate::shared::Session)s, which build a throwaway
//! `Database` over a snapshot (or a transaction's working catalog) for
//! each statement; transaction control on a bare `Database` is a typed
//! [`Error::Txn`].
//!
//! Every write statement additionally reports *which rows* it touched
//! (the primary keys of inserted/updated/deleted rows, see
//! [`crate::txn::StmtWrites`]): a `SharedDb` turns those write sets into
//! compact row-level WAL encodings and row-level first-committer-wins
//! conflict detection.

use std::sync::Arc;
use std::time::Duration;

use swan_pool::{CancelToken, ClockHandle, RealClock};

use crate::ast::{Expr, InsertSource, Statement};
use crate::error::{Error, Result};
use crate::eval::{bind_columns, eval, RowCtx};
use crate::exec::{run_select, ExecCtx, Relation};
use crate::functions::{ScalarUdf, UdfRegistry};
use crate::optimizer::{pk_bounds, OptimizerConfig};
use crate::parser::{parse_script, parse_statement};
use crate::plan::RelSchema;
use crate::storage::{Catalog, Column, Table};
use crate::txn::StmtWrites;
use crate::value::{Row, Value};

/// Result of executing one statement.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output column names (empty for DDL/DML).
    pub columns: Vec<String>,
    /// Result rows (empty for DDL/DML), shared with the engine: cloning a
    /// result (or a row) is O(rows), not O(cells).
    pub rows: Vec<Row>,
    /// Rows inserted / updated / deleted for DML.
    pub rows_affected: usize,
}

impl QueryResult {
    fn from_relation(rel: Relation) -> Self {
        QueryResult {
            columns: rel.column_names(),
            rows: rel.rows,
            rows_affected: 0,
        }
    }

    /// The single scalar of a one-row, one-column result.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// What a statement runs with besides the catalog. A `Database` holds
/// one by value; a [`SharedDb`](crate::shared::SharedDb) holds the same
/// struct behind one lock and clones it into each per-statement
/// `Database`.
#[derive(Clone)]
pub(crate) struct Settings {
    pub(crate) udfs: UdfRegistry,
    pub(crate) optimizer: OptimizerConfig,
    /// Per-statement deadline; `None` disables it. Each statement arms a
    /// fresh [`CancelToken`] on entry; the executor checks it at plan-node
    /// and morsel boundaries and fails with [`Error::Deadline`].
    pub(crate) statement_timeout: Option<Duration>,
    /// Clock the deadlines are armed against — [`RealClock`] normally, a
    /// [`SimClock`](swan_pool::SimClock) in deterministic tests.
    pub(crate) clock: ClockHandle,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            udfs: UdfRegistry::new(),
            optimizer: OptimizerConfig::default(),
            statement_timeout: None,
            clock: RealClock::handle(),
        }
    }
}

/// The cancel token for one statement: an already-installed caller token
/// wins (a caller that scoped a whole batch under one deadline, or
/// cancels from another thread, stays authoritative); otherwise arm a
/// fresh token from `timeout` against `clock`.
pub(crate) fn statement_token(timeout: Option<Duration>, clock: &ClockHandle) -> CancelToken {
    if let Some(outer) = swan_pool::cancel::current() {
        return outer;
    }
    match timeout {
        Some(d) => CancelToken::with_timeout(clock.clone(), d),
        None => CancelToken::unbounded(),
    }
}

/// An embedded in-memory SQL database: a catalog plus the settings
/// statements run with. Cloning shares the row storage (`Arc<Table>`
/// copy-on-write, O(tables)). For concurrent sessions, transactions and
/// durability see [`SharedDb`](crate::shared::SharedDb).
#[derive(Clone, Default)]
pub struct Database {
    catalog: Catalog,
    settings: Settings,
    /// The rows the most recent write statement touched, reported by the
    /// DML executors and consumed (via [`Database::take_stmt_writes`]) by
    /// the `SharedDb` path that turns the statement into a commit.
    stmt_writes: StmtWrites,
}

impl Database {
    /// A fresh, empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Assemble a database from parts. This is how a
    /// [`SharedDb`](crate::shared::SharedDb) session materializes a
    /// consistent snapshot: the catalog shares the `Arc<Table>` storage,
    /// so the construction is O(tables), not O(rows).
    pub(crate) fn from_parts(catalog: Catalog, settings: Settings) -> Self {
        Database { catalog, settings, stmt_writes: StmtWrites::Whole }
    }

    /// The settings statements run with (cloned into a
    /// [`SharedDb`](crate::shared::SharedDb) on sharing).
    pub(crate) fn settings(&self) -> &Settings {
        &self.settings
    }

    /// Register a scalar UDF (e.g. an LLM function).
    pub fn register_udf(&mut self, udf: Arc<dyn ScalarUdf>) {
        self.settings.udfs.register(udf);
    }

    /// Toggle optimizer rules (used by the ablation benchmarks).
    pub fn set_optimizer(&mut self, config: OptimizerConfig) {
        self.settings.optimizer = config;
    }

    /// Set (or clear) the per-statement deadline. Every subsequent
    /// statement arms a fresh cancel token with this timeout; a statement
    /// that runs past it fails with [`Error::Deadline`] at the next
    /// cooperative checkpoint, leaving no partial effects (statement
    /// atomicity rolls write statements back like any other error).
    pub fn set_statement_timeout(&mut self, timeout: Option<Duration>) {
        self.settings.statement_timeout = timeout;
    }

    /// Swap the clock statement deadlines are armed against. Tests inject
    /// a [`SimClock`](swan_pool::SimClock) for deterministic expiry.
    pub fn set_clock(&mut self, clock: ClockHandle) {
        self.settings.clock = clock;
    }

    pub fn optimizer(&self) -> OptimizerConfig {
        self.settings.optimizer
    }

    /// Read access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog (bulk loading bypasses SQL).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Decompose into the catalog. A [`Session`](crate::shared::Session)
    /// transaction hands its working catalog to a throwaway `Database`
    /// for each statement and takes it back here — ownership round-trips,
    /// so the working tables keep unique `Arc`s and batch DML stays
    /// in-place instead of copy-on-write cloning per statement.
    pub(crate) fn into_catalog(self) -> Catalog {
        self.catalog
    }

    /// Take the row write set the last write statement reported,
    /// resetting to the conservative table-granular default.
    pub(crate) fn take_stmt_writes(&mut self) -> StmtWrites {
        std::mem::take(&mut self.stmt_writes)
    }

    pub fn udfs(&self) -> &UdfRegistry {
        &self.settings.udfs
    }

    /// The context `SELECT`s and DML source expressions evaluate in.
    fn exec_ctx(&self) -> ExecCtx<'_> {
        ExecCtx::new(&self.catalog, &self.settings.udfs).with_optimizer(self.settings.optimizer)
    }

    /// Execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(&stmt)
    }

    /// Execute a semicolon-separated script, one atomic statement after
    /// another, stopping at the first error; returns the last result.
    pub fn execute_script(&mut self, sql: &str) -> Result<QueryResult> {
        let mut last = QueryResult::default();
        for stmt in &parse_script(sql)? {
            last = self.execute_statement(stmt)?;
        }
        Ok(last)
    }

    /// Execute a read-only query without `&mut self`.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let stmt = parse_statement(sql)?;
        match &stmt {
            Statement::Select(s) => {
                let token = statement_token(self.settings.statement_timeout, &self.settings.clock);
                swan_pool::cancel::with_current(&token, || {
                    Ok(QueryResult::from_relation(run_select(s, &self.exec_ctx(), None)?))
                })
            }
            _ => Err(Error::Semantic("query() only accepts SELECT statements".into())),
        }
    }

    /// Arm the statement's deadline token, install it as the thread's
    /// current token (so every [`ExecCtx`] built below — including the
    /// throwaway contexts of DML source evaluation — and every model call
    /// observes it), and run the statement.
    pub(crate) fn execute_statement(&mut self, stmt: &Statement) -> Result<QueryResult> {
        let token = statement_token(self.settings.statement_timeout, &self.settings.clock);
        swan_pool::cancel::with_current(&token, || self.apply_statement(stmt))
    }

    /// The single-statement executor: exactly the statement's effect on
    /// this catalog, all of it or (on error) none of it.
    fn apply_statement(&mut self, stmt: &Statement) -> Result<QueryResult> {
        // Conservative default: a write that does not report per-row keys
        // (DDL, tables without a primary key) counts as touching the
        // whole table. The DML executors overwrite this on success.
        self.stmt_writes = StmtWrites::Whole;
        match stmt {
            Statement::Begin | Statement::Commit | Statement::Rollback => Err(Error::Txn(
                "a bare Database executes single statements and cannot hold a transaction; \
                 run BEGIN/COMMIT/ROLLBACK through SharedDb::session()"
                    .into(),
            )),
            Statement::Select(s) => {
                Ok(QueryResult::from_relation(run_select(s, &self.exec_ctx(), None)?))
            }
            Statement::CreateTable(ct) => {
                if self.catalog.contains(&ct.name) {
                    if ct.if_not_exists {
                        return Ok(QueryResult::default());
                    }
                    return Err(Error::AlreadyExists(ct.name.clone()));
                }
                let mut pk: Vec<String> = ct.primary_key.clone();
                let columns: Vec<Column> = ct
                    .columns
                    .iter()
                    .map(|c| {
                        if c.primary_key && !pk.iter().any(|p| p.eq_ignore_ascii_case(&c.name)) {
                            pk.push(c.name.clone());
                        }
                        Column {
                            name: c.name.clone(),
                            decl_type: c.decl_type.clone(),
                            not_null: c.not_null,
                        }
                    })
                    .collect();
                self.catalog.create_table(Table::new(ct.name.clone(), columns, &pk)?)?;
                Ok(QueryResult::default())
            }
            Statement::DropTable { name, if_exists } => {
                match self.catalog.drop_table(name) {
                    Ok(()) => Ok(QueryResult::default()),
                    Err(Error::NotFound(_)) if *if_exists => Ok(QueryResult::default()),
                    Err(e) => Err(e),
                }
            }
            Statement::AlterTableAddColumn { table, column } => {
                let col = Column {
                    name: column.name.clone(),
                    decl_type: column.decl_type.clone(),
                    not_null: column.not_null,
                };
                self.catalog.get_mut(table)?.add_column(col)?;
                Ok(QueryResult::default())
            }
            Statement::Insert(ins) => self.execute_insert(ins),
            Statement::Update(upd) => self.execute_update(upd),
            Statement::Delete(del) => self.execute_delete(del),
        }
    }

    fn execute_insert(&mut self, ins: &crate::ast::Insert) -> Result<QueryResult> {
        // Compute the source rows first (they may SELECT from the target).
        // INSERT ... SELECT re-shares the SELECT's rows without copying.
        let source_rows: Vec<Row> = match &ins.source {
            InsertSource::Values(rows) => {
                let ctx = self.exec_ctx();
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        vals.push(eval(e, &ctx, None)?);
                    }
                    out.push(vals.into());
                }
                out
            }
            InsertSource::Select(sel) => {
                let ctx = self.exec_ctx();
                run_select(sel, &ctx, None)?.rows
            }
        };

        // Map the provided column list onto the table's full width.
        let (width, col_map, pk_cols) = {
            let table = self.catalog.get_required(&ins.table)?;
            let width = table.width();
            let col_map: Option<Vec<usize>> = if ins.columns.is_empty() {
                None
            } else {
                let mut map = Vec::with_capacity(ins.columns.len());
                for c in &ins.columns {
                    map.push(table.column_index(c).ok_or_else(|| {
                        Error::Unresolved(format!("{}.{}", ins.table, c))
                    })?);
                }
                Some(map)
            };
            (width, col_map, table.primary_key.clone())
        };
        if source_rows.is_empty() {
            return Ok(self.no_rows_written());
        }

        // Statement atomicity: a failure part-way through the batch rolls
        // the appended prefix back — no partial INSERT is ever visible,
        // inside or outside a transaction.
        let table = self.catalog.get_mut(&ins.table)?;
        let start_len = table.len();
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let insert_all = || -> Result<usize> {
            let mut n = 0;
            for vals in source_rows {
                let row: Row = match &col_map {
                    None => {
                        if vals.len() != width {
                            return Err(Error::Semantic(format!(
                                "INSERT has {} values but table '{}' has {width} columns",
                                vals.len(),
                                ins.table
                            )));
                        }
                        vals
                    }
                    Some(map) => {
                        if vals.len() != map.len() {
                            return Err(Error::Semantic(format!(
                                "INSERT has {} values for {} named columns",
                                vals.len(),
                                map.len()
                            )));
                        }
                        let mut row = vec![Value::Null; width];
                        for (v, &i) in vals.iter().zip(map.iter()) {
                            row[i] = v.clone();
                        }
                        row.into()
                    }
                };
                if !pk_cols.is_empty() {
                    keys.push(pk_cols.iter().map(|&i| row[i].clone()).collect());
                }
                table.insert_shared_row(row)?;
                n += 1;
            }
            Ok(n)
        };
        match insert_all() {
            Ok(n) => {
                self.stmt_writes = if pk_cols.is_empty() {
                    StmtWrites::Whole
                } else {
                    StmtWrites::Rows { keys, inserted: true, reorder: false }
                };
                Ok(QueryResult { rows_affected: n, ..Default::default() })
            }
            Err(e) => {
                self.catalog.get_mut(&ins.table)?.truncate_rows(start_len);
                Err(e)
            }
        }
    }

    /// The slots of `table` whose rows satisfy `filter`, ascending —
    /// where UPDATE and DELETE find their rows. The planner's own
    /// [`pk_bounds`] turns a filter that pins the primary key into the
    /// index probe a SELECT would use ([`Table::pk_probe`] answers in
    /// ascending slot order, so the statement's row order, its write set
    /// and its WAL bytes are the full scan's); the whole filter — bound once, not
    /// name-resolved per row — is then evaluated on those candidates
    /// only. A filter that pins no key, and `index_scan: false` (the
    /// differential reference, as for SELECT), visit every row.
    fn matching_slots(
        &self,
        table: &Table,
        schema: &RelSchema,
        filter: Option<&Expr>,
    ) -> Result<Vec<usize>> {
        let Some(filter) = filter else { return Ok((0..table.len()).collect()) };
        let candidates = if self.settings.optimizer.index_scan {
            pk_bounds(filter, &table.name, &table.name, &self.catalog)
                .and_then(|bounds| table.pk_probe(&bounds))
        } else {
            None
        };
        let filter = bind_columns(filter, schema);
        let ctx = self.exec_ctx();
        let mut hits = Vec::new();
        let mut visit = |slot: usize| -> Result<()> {
            let rc = RowCtx::new(schema, &table.rows()[slot]);
            if eval(&filter, &ctx, Some(&rc))?.truthiness() == Some(true) {
                hits.push(slot);
            }
            Ok(())
        };
        match candidates {
            Some(slots) => slots.into_iter().try_for_each(|i| visit(i as usize))?,
            None => (0..table.len()).try_for_each(&mut visit)?,
        }
        Ok(hits)
    }

    /// A write statement that matched no row: the catalog is untouched
    /// (no copy, no version bump), so nothing is installed or logged, and
    /// the empty write set records nothing in a transaction.
    fn no_rows_written(&mut self) -> QueryResult {
        self.stmt_writes = StmtWrites::Rows { keys: Vec::new(), inserted: false, reorder: false };
        QueryResult::default()
    }

    fn execute_update(&mut self, upd: &crate::ast::Update) -> Result<QueryResult> {
        // Compute the new rows against the pre-statement table (so SET
        // and WHERE subqueries reading it see none of this statement's
        // writes), then patch them in. The borrow — not an `Arc` clone —
        // ends before `get_mut`, so a table only this catalog holds is
        // patched in place rather than copied.
        let table = self.catalog.get_required(&upd.table)?;
        let schema = RelSchema::qualified(&table.name, table.column_names());
        let mut assignments = Vec::with_capacity(upd.assignments.len());
        for (col, e) in &upd.assignments {
            let idx = table
                .column_index(col)
                .ok_or_else(|| Error::Unresolved(format!("{}.{}", upd.table, col)))?;
            assignments.push((idx, bind_columns(e, &schema)));
        }
        let slots = self.matching_slots(table, &schema, upd.filter.as_ref())?;
        let pk_cols = &table.primary_key;
        let ctx = self.exec_ctx();
        let mut patch: Vec<(usize, Row)> = Vec::with_capacity(slots.len());
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut reorder = false;
        for slot in slots {
            let row = &table.rows()[slot];
            let rc = RowCtx::new(&schema, row);
            let mut updated = row.to_vec();
            for (i, e) in &assignments {
                updated[*i] = eval(e, &ctx, Some(&rc))?;
            }
            if !pk_cols.is_empty() {
                keys.push(pk_cols.iter().map(|&i| row[i].clone()).collect());
                let moved = pk_cols
                    .iter()
                    .any(|&i| row[i].group_key() != updated[i].group_key());
                if moved {
                    // The row leaves its primary key: both keys are part
                    // of the write set, and the in-place WAL patch can no
                    // longer reproduce row order.
                    keys.push(pk_cols.iter().map(|&i| updated[i].clone()).collect());
                    reorder = true;
                }
            }
            patch.push((slot, updated.into()));
        }
        drop(ctx);
        if patch.is_empty() {
            return Ok(self.no_rows_written());
        }
        let (n, has_pk) = (patch.len(), !pk_cols.is_empty());
        self.catalog.get_mut(&upd.table)?.replace_rows(patch)?;
        self.stmt_writes = if has_pk {
            StmtWrites::Rows { keys, inserted: false, reorder }
        } else {
            StmtWrites::Whole
        };
        Ok(QueryResult { rows_affected: n, ..Default::default() })
    }

    fn execute_delete(&mut self, del: &crate::ast::Delete) -> Result<QueryResult> {
        let table = self.catalog.get_required(&del.table)?;
        let schema = RelSchema::qualified(&table.name, table.column_names());
        let slots = self.matching_slots(table, &schema, del.filter.as_ref())?;
        if slots.is_empty() {
            return Ok(self.no_rows_written());
        }
        let writes = if table.has_primary_key() {
            let keys = slots.iter().map(|&s| table.pk_values_of(&table.rows()[s])).collect();
            StmtWrites::Rows { keys, inserted: false, reorder: false }
        } else {
            StmtWrites::Whole
        };
        self.catalog.get_mut(&del.table)?.remove_rows(&slots)?;
        self.stmt_writes = writes;
        Ok(QueryResult { rows_affected: slots.len(), ..Default::default() })
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.catalog.table_names())
            .field("udfs", &self.settings.udfs)
            .finish()
    }
}
