//! In-memory row storage and the catalog.
//!
//! Tables are row-oriented over shared rows (`Arc<[Value]>`), held in a
//! [`ChunkedVec`] of 1024-row chunks, with a column-name index for O(1)
//! resolution and an optional unique-key hash index used both for
//! constraint enforcement and as a join fast path. Because rows are
//! `Arc`-shared, a table scan hands the executor the whole row set with
//! one refcount bump per row — no cell is ever deep-copied on the read
//! path. The catalog also exposes per-table row counts as the
//! statistics feed for the optimizer's join ordering.
//!
//! # Versioned identity
//!
//! Every table carries a monotonically increasing [`Table::version`],
//! bumped on each copy-on-write mutation. Two `Arc<Table>` handles with the
//! same name and version are guaranteed to hold identical contents, which
//! is what the transaction layer's first-committer-wins conflict check
//! compares at commit time (see [`crate::txn`]).
//!
//! # What a write costs
//!
//! A table is a [`ChunkedVec`] of rows plus two structures derived from
//! it: the primary-key hash index and the column-major
//! [`ColumnSet`](crate::columnar::ColumnSet). Both sit behind `Arc`s, and
//! the row store is a list of `Arc`-shared 1024-row chunks, so the copy
//! [`Catalog::get_mut`] makes when a snapshot still holds the previous
//! version is one refcount bump per row chunk plus two (about 20 for a
//! 20k-row table), not one per row. A write then copies only the chunks
//! it lands in: a one-row UPDATE copies one row chunk (1,024 row
//! pointers), the typed vectors of each column it changes (flat `i64` /
//! `f64` / `u32` ids / validity bits and a text column's reverse index: a
//! memcpy) and, when it adds a string, a text dictionary's tail chunk —
//! another `ChunkedVec`. Freeing the old version releases the same few
//! chunks. The PK index is the one structure still copied whole: an
//! INSERT, a DELETE or a key-moving UPDATE that another version shares
//! it with deep-copies the map. From there every mutator **maintains or
//! drops exactly what it affects** — `get_mut` itself invalidates
//! nothing:
//!
//! * [`Table::replace_rows`] (UPDATE, a row patch's upserts): the PK index
//!   is touched only when a key moves, and the column set has the changed
//!   cells patched in place — or is dropped when a column's class does not
//!   admit a new cell.
//! * [`Table::insert_shared_row`]: the row lands in the tail chunk; the
//!   key is added; the column set has the row appended under the same
//!   admission rule.
//! * [`Table::insert_rows`] (bulk load): the PK index is reserved once for
//!   the batch's size hint, then each row is appended by
//!   `insert_shared_row`, every check included.
//! * [`Table::remove_rows`] (DELETE, a row patch's deletes): keys are
//!   removed and later slots renumbered in the index (O(rows), no key
//!   re-encoded or re-hashed); the row chunks from the first removed
//!   row's on are rebuilt; the column set is dropped.
//! * [`Table::truncate_rows`] (INSERT rollback): keys removed, the column
//!   set dropped.
//! * [`Table::add_column`]: index kept, column set dropped.
//! * [`Table::drop_columns`] (curation): one pass over the rows however
//!   many columns go. The PK index is kept, since no row changes slot,
//!   unless a PK column goes, which clears the key. Column set dropped.
//!
//! A dropped column set is rebuilt lazily by its accessor, exactly as a
//! freshly loaded table builds it. Every in-place change goes through
//! [`Arc::make_mut`]: a structure still shared with another table version
//! (or with an executor mid-scan) is copied first, so **a reader holding
//! the previous `Arc<Table>`, `Arc<ColumnSet>` or column vector can never
//! observe a patch**. That discipline is why [`Table::rows`] is read-only
//! outside this module: every row mutation has to come through a mutator
//! that keeps the derived structures in step.
//!
//! # Row codec
//!
//! [`encode_table`]/[`decode_table`] (plus the row/value helpers they are
//! built from) serialize a table snapshot to a compact little-endian binary
//! form for the write-ahead log ([`crate::wal`]). Decoding re-interns text
//! through a [`TextInterner`], so repeated strings in the file come back as
//! one shared [`ThinStr`] allocation — the on-disk form round-trips into the
//! same zero-copy representation the engine runs on.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::chunked::ChunkedVec;
use crate::error::{Error, Result};
use crate::value::{GroupKey, Row, ThinStr, Value};

/// Schema + data for one table.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
    /// Lowercased column name -> index.
    col_index: HashMap<String, usize>,
    /// Read through [`Table::rows`]; written only by this module's
    /// mutators, which keep the derived structures below in step.
    rows: ChunkedVec<Row>,
    /// Column indexes forming the primary key (may be empty).
    pub primary_key: Vec<usize>,
    /// Unique index over the primary key columns: key -> row slot. Shared
    /// by successive table versions; copied (`Arc::make_mut`) only when a
    /// key is added, removed or moved while another version holds it.
    pk_index: Arc<HashMap<Vec<GroupKey>, usize>>,
    /// Monotonic modification counter: bumped every time a writer obtains
    /// copy-on-write access through [`Catalog::get_mut`] and on every
    /// transaction-commit install. Equal (name, version) pairs imply equal
    /// contents — the identity the commit-time conflict check relies on.
    pub version: u64,
    /// Lazily-built column-major view of `rows`
    /// ([`crate::columnar::ColumnSet`]), shared with every executor that
    /// scans this table version and carried into the next one: an UPDATE
    /// patches the cells it changed and an INSERT appends, copy-on-write
    /// per column, as long as each column's class admits the new cell.
    /// Dropped (and rebuilt on next use) otherwise, and by DELETE, INSERT
    /// rollback and schema changes.
    columnar: std::sync::OnceLock<Arc<crate::columnar::ColumnSet>>,
}

/// Structural equality: same name, schema, primary key, version and
/// cell-for-cell identical rows (`Value`'s equality treats equal NaN bit
/// patterns as equal, so encoded tables compare reliably). The derived
/// indexes are excluded — they are functions of the compared fields.
/// This is what the codec round-trip property (`decode(encode(t)) == t`)
/// checks.
impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.columns == other.columns
            && self.primary_key == other.primary_key
            && self.version == other.version
            && self.rows == other.rows
    }
}

/// One column's metadata. Declared types are advisory, SQLite-style.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub decl_type: Option<String>,
    pub not_null: bool,
}

impl Column {
    pub fn new(name: impl Into<String>) -> Self {
        Column { name: name.into(), decl_type: None, not_null: false }
    }

    pub fn typed(name: impl Into<String>, ty: impl Into<String>) -> Self {
        Column { name: name.into(), decl_type: Some(ty.into()), not_null: false }
    }
}

impl Table {
    /// Create an empty table. Fails on duplicate column names or a primary
    /// key referencing an unknown column.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<Column>,
        primary_key_cols: &[String],
    ) -> Result<Self> {
        let name = name.into();
        let mut col_index = HashMap::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            if col_index.insert(c.name.to_ascii_lowercase(), i).is_some() {
                return Err(Error::Semantic(format!(
                    "duplicate column '{}' in table '{}'",
                    c.name, name
                )));
            }
        }
        let mut primary_key = Vec::with_capacity(primary_key_cols.len());
        for pk in primary_key_cols {
            let idx = col_index
                .get(&pk.to_ascii_lowercase())
                .copied()
                .ok_or_else(|| Error::Unresolved(format!("primary key column '{pk}'")))?;
            primary_key.push(idx);
        }
        Ok(Table {
            name,
            columns,
            col_index,
            rows: ChunkedVec::new(),
            primary_key,
            pk_index: Arc::default(),
            version: 0,
            columnar: std::sync::OnceLock::new(),
        })
    }

    /// The rows, in insertion order. Read-only: rows change through the
    /// mutators below, which maintain the derived structures.
    pub fn rows(&self) -> &ChunkedVec<Row> {
        &self.rows
    }

    /// The column-major view of this table version, built on first use and
    /// then maintained by the row mutators. Executors hold the returned
    /// `Arc` for the duration of a scan; a later write copies what it
    /// changes, so it never alters a view mid-query.
    pub fn column_set(&self) -> Arc<crate::columnar::ColumnSet> {
        self.columnar
            .get_or_init(|| {
                Arc::new(crate::columnar::ColumnSet::from_rows(&self.rows, self.columns.len()))
            })
            .clone()
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Resolve a column name (case-insensitive) to its index.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.col_index.get(&name.to_ascii_lowercase()).copied()
    }

    /// Column names in declaration order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Append an owned row, enforcing arity, NOT NULL, and primary-key
    /// uniqueness.
    pub fn insert_row(&mut self, row: Vec<Value>) -> Result<()> {
        self.insert_shared_row(row.into())
    }

    /// Arity and NOT NULL checks for one incoming row.
    fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::Semantic(format!(
                "table '{}' expects {} values, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (col, v) in self.columns.iter().zip(row) {
            if col.not_null && v.is_null() {
                return Err(Error::Constraint(format!(
                    "NOT NULL violated for {}.{}",
                    self.name, col.name
                )));
            }
        }
        Ok(())
    }

    fn duplicate_key(&self) -> Error {
        Error::Constraint(format!("duplicate primary key in table '{}'", self.name))
    }

    /// The primary-key identity of a full row (empty without a PK).
    fn key_of(&self, row: &[Value]) -> Vec<GroupKey> {
        self.primary_key.iter().map(|&i| row[i].group_key()).collect()
    }

    /// Append an already-shared row (the zero-copy bulk-load path: e.g.
    /// `INSERT INTO t SELECT ...` re-shares the SELECT's output rows).
    pub fn insert_shared_row(&mut self, row: Row) -> Result<()> {
        self.check_row(&row)?;
        let slot = self.rows.len();
        if !self.primary_key.is_empty() {
            let key = self.key_of(&row);
            if self.pk_index.contains_key(&key) {
                return Err(self.duplicate_key());
            }
            Arc::make_mut(&mut self.pk_index).insert(key, slot);
        }
        if let Some(set) = self.columnar.get_mut() {
            if !Arc::make_mut(set).push_row(&row) {
                self.columnar.take();
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Bulk insert of shared rows (the generators' load path). On a keyed
    /// table the PK index is reserved up front by the iterator's lower
    /// size bound; every row then goes through
    /// [`Self::insert_shared_row`] and its checks. Stops at the first
    /// violation, keeping the rows before it.
    pub fn insert_rows(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let rows = rows.into_iter();
        let reserve = rows.size_hint().0;
        if !self.primary_key.is_empty() && reserve > 0 {
            Arc::make_mut(&mut self.pk_index).reserve(reserve);
        }
        let mut n = 0;
        for row in rows {
            self.insert_shared_row(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Look up a row by primary-key values (for point queries and tests).
    pub fn find_by_pk(&self, key_values: &[Value]) -> Option<&Row> {
        self.pk_row_index(key_values).map(|i| &self.rows[i as usize])
    }

    /// The row index holding the given primary-key tuple, via the unique
    /// hash index — the `Plan::IndexScan` point probe. Key identity is
    /// [`Value::group_key`], a superset of SQL equality, so a probe hit
    /// still passes through the predicate filter above the scan.
    pub fn pk_row_index(&self, key_values: &[Value]) -> Option<u32> {
        if self.primary_key.is_empty() || key_values.len() != self.primary_key.len() {
            return None;
        }
        let key: Vec<GroupKey> = key_values.iter().map(Value::group_key).collect();
        self.pk_index.get(&key).map(|&i| i as u32)
    }

    /// Add a column to the schema, filling existing rows with NULL
    /// (ALTER TABLE ADD COLUMN).
    pub fn add_column(&mut self, column: Column) -> Result<()> {
        if self.column_index(&column.name).is_some() {
            return Err(Error::AlreadyExists(format!("{}.{}", self.name, column.name)));
        }
        if column.not_null && !self.rows.is_empty() {
            return Err(Error::Constraint(
                "cannot add NOT NULL column to a non-empty table".into(),
            ));
        }
        self.columnar.take();
        self.col_index.insert(column.name.to_ascii_lowercase(), self.columns.len());
        self.columns.push(column);
        self.rows = self
            .rows
            .iter()
            .map(|row| row.iter().cloned().chain([Value::Null]).collect())
            .collect();
        Ok(())
    }

    /// Drop columns (benchmark schema curation) in one pass. Every name is
    /// resolved first: an unknown or repeated one is [`Error::NotFound`]
    /// and leaves the table as it was. Each row is rebuilt once with the
    /// surviving columns in order. Dropping a PK column clears the PK and
    /// its index; otherwise the PK positions are remapped and the index
    /// kept, since no row changes slot.
    pub fn drop_columns(&mut self, names: &[&str]) -> Result<()> {
        let mut dropped = vec![false; self.columns.len()];
        for name in names {
            match self.column_index(name) {
                Some(i) if !dropped[i] => dropped[i] = true,
                _ => return Err(Error::NotFound(format!("{}.{}", self.name, name))),
            }
        }
        let kept: Vec<usize> = (0..dropped.len()).filter(|&i| !dropped[i]).collect();
        self.columnar.take();
        self.rows =
            self.rows.iter().map(|row| kept.iter().map(|&i| row[i].clone()).collect()).collect();
        self.columns = kept.iter().map(|&i| self.columns[i].clone()).collect();
        if self.primary_key.iter().any(|&k| dropped[k]) {
            self.primary_key.clear();
            self.pk_index = Arc::default();
        } else {
            for k in &mut self.primary_key {
                *k -= dropped[..*k].iter().filter(|&&d| d).count();
            }
        }
        self.col_index.clear();
        for (i, c) in self.columns.iter().enumerate() {
            self.col_index.insert(c.name.to_ascii_lowercase(), i);
        }
        Ok(())
    }

    /// Roll freshly appended rows back: drop everything from `keep_len`
    /// on and remove those rows' PK index entries. Used for statement
    /// atomicity — a multi-row INSERT that fails part-way truncates back
    /// to its start instead of leaving a partial batch.
    pub fn truncate_rows(&mut self, keep_len: usize) {
        if keep_len >= self.rows.len() {
            return;
        }
        if !self.primary_key.is_empty() {
            let keys: Vec<_> = self.rows.iter().skip(keep_len).map(|r| self.key_of(r)).collect();
            let index = Arc::make_mut(&mut self.pk_index);
            for key in &keys {
                index.remove(key);
            }
        }
        self.columnar.take();
        self.rows.truncate(keep_len);
    }

    /// Replace the rows at the given slots: the one in-place write
    /// primitive, shared by UPDATE and by [`Self::apply_row_patch`]'s
    /// upsert half. Work is proportional to the patch, not the table:
    /// arity and NOT NULL are checked on the incoming rows only, the PK
    /// index is touched only for rows whose key moves, and a present column
    /// set is patched cell by cell (dropped when a column's class does not
    /// admit a new cell).
    ///
    /// Uniqueness is judged on the **final** state, so a statement may
    /// shift or swap keys among its own rows (`SET id = id + 1`); a
    /// collision — with an untouched row or between two incoming rows —
    /// is [`Error::Constraint`]. Everything is validated before anything
    /// changes: on any error the table is exactly as it was.
    pub fn replace_rows(&mut self, patch: Vec<(usize, Row)>) -> Result<()> {
        for (slot, row) in &patch {
            if *slot >= self.rows.len() {
                return Err(Error::Internal(format!(
                    "row patch for table '{}' names slot {slot} of {}",
                    self.name,
                    self.rows.len()
                )));
            }
            self.check_row(row)?;
        }
        let mut moves: Vec<(Vec<GroupKey>, Vec<GroupKey>, usize)> = Vec::new();
        if !self.primary_key.is_empty() {
            for (slot, row) in &patch {
                let (old, new) = (self.key_of(&self.rows[*slot]), self.key_of(row));
                if old != new {
                    moves.push((old, new, *slot));
                }
            }
        }
        if !moves.is_empty() {
            if !patch.windows(2).all(|w| w[0].0 < w[1].0) {
                // Two moves of one slot would leave two keys on it.
                return Err(Error::Internal(format!(
                    "key-moving row patch for table '{}' is not in ascending slot order",
                    self.name
                )));
            }
            let vacated: HashSet<&Vec<GroupKey>> = moves.iter().map(|m| &m.0).collect();
            let mut taken: HashSet<&Vec<GroupKey>> = HashSet::with_capacity(moves.len());
            for (_, new, _) in &moves {
                let occupied = self.pk_index.contains_key(new) && !vacated.contains(new);
                if occupied || !taken.insert(new) {
                    return Err(self.duplicate_key());
                }
            }
            let index = Arc::make_mut(&mut self.pk_index);
            for (old, _, _) in &moves {
                index.remove(old);
            }
            for (_, new, slot) in moves {
                index.insert(new, slot);
            }
        }
        let mut columnar = self.columnar.take();
        for (slot, row) in patch {
            let old = self.rows.set(slot, row);
            if let Some(set) = &mut columnar {
                if !Arc::make_mut(set).patch_row(slot, &old, &self.rows[slot]) {
                    columnar = None;
                }
            }
        }
        if let Some(set) = columnar {
            self.columnar = set.into();
        }
        Ok(())
    }

    /// Remove the rows at `slots` (strictly ascending). Rows after the
    /// first removed one shift down, so the PK index is renumbered —
    /// O(rows), but no key is re-encoded or re-hashed — the row chunks
    /// from the first removed row's on are rebuilt, and the column set is
    /// dropped.
    pub fn remove_rows(&mut self, slots: &[usize]) -> Result<()> {
        let in_order = slots.windows(2).all(|w| w[0] < w[1]);
        if !in_order || slots.last().is_some_and(|&s| s >= self.rows.len()) {
            return Err(Error::Internal(format!(
                "row removal for table '{}' is not an ascending list of its slots",
                self.name
            )));
        }
        if slots.is_empty() {
            return Ok(());
        }
        let shifted = |slot: usize| slot - slots.partition_point(|&r| r < slot);
        if !self.primary_key.is_empty() {
            let keys: Vec<_> = slots.iter().map(|&s| self.key_of(&self.rows[s])).collect();
            let index = Arc::make_mut(&mut self.pk_index);
            for key in &keys {
                index.remove(key);
            }
            for slot in index.values_mut() {
                *slot = shifted(*slot);
            }
        }
        self.columnar.take();
        self.rows.remove_sorted(slots);
        Ok(())
    }

    /// True when the table has a primary key — the precondition for
    /// row-level write sets; tables without one fall back to
    /// table-granular conflict detection.
    pub fn has_primary_key(&self) -> bool {
        !self.primary_key.is_empty()
    }

    /// The primary-key cells of a full row (for diagnostics and the WAL's
    /// row-patch delete encoding). Empty when the table has no PK.
    pub fn pk_values_of(&self, row: &[Value]) -> Vec<Value> {
        self.primary_key.iter().map(|&i| row[i].clone()).collect()
    }

    /// The slot of the row with this primary-key identity, if any.
    pub fn pk_slot(&self, key: &[GroupKey]) -> Option<usize> {
        self.pk_index.get(key).copied()
    }

    /// Apply a row-level patch: remove every row whose PK is in
    /// `deletes` (each a tuple of PK cell values), then upsert each row in
    /// `upserts` in order — replacing in place when the key exists
    /// ([`Self::replace_rows`], the primitive UPDATE uses), appending
    /// otherwise. O(patch) unless it deletes.
    ///
    /// This is the **one** definition of patch application: the commit
    /// path uses it to rebase a transaction's rows onto the live table,
    /// and WAL replay uses it to apply
    /// [`RowPatch`](crate::wal::WalDelta::RowPatch) deltas — so the
    /// installed table and
    /// the recovered table are byte-identical by construction, row order
    /// included.
    pub fn apply_row_patch(&mut self, deletes: &[Row], upserts: Vec<Row>) -> Result<()> {
        if self.primary_key.is_empty() {
            return Err(Error::Internal(format!(
                "row patch applied to table '{}' without a primary key",
                self.name
            )));
        }
        let mut gone: Vec<usize> =
            deletes.iter().filter_map(|key| self.pk_row_index(key)).map(|i| i as usize).collect();
        gone.sort_unstable();
        gone.dedup();
        self.remove_rows(&gone)?;
        // Appends land at once; replacements commute with them (their keys
        // already exist), so they go through `replace_rows` as one batch.
        let mut replaced: Vec<(usize, Row)> = Vec::new();
        for row in upserts {
            if row.len() != self.columns.len() {
                return Err(Error::Internal(format!(
                    "row patch for table '{}' carries a {}-cell row over {} columns",
                    self.name,
                    row.len(),
                    self.columns.len()
                )));
            }
            match self.pk_slot(&self.key_of(&row)) {
                Some(slot) => replaced.push((slot, row)),
                None => self.insert_shared_row(row)?,
            }
        }
        self.replace_rows(replaced)
    }
}

/// The catalog: a name -> table map. Tables are stored behind `Arc` so
/// query execution can snapshot them without copying data; mutation uses
/// copy-on-write via [`Arc::make_mut`].
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a table. Errors if a table with this name exists.
    pub fn create_table(&mut self, table: Table) -> Result<()> {
        let key = table.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(Error::AlreadyExists(table.name));
        }
        self.tables.insert(key, Arc::new(table));
        Ok(())
    }

    /// Replace or insert a table unconditionally.
    pub fn put_table(&mut self, table: Table) {
        self.put_shared(Arc::new(table));
    }

    /// Replace or insert an already-shared table — a refcount bump, no
    /// row copying. This is how [`SharedDb`](crate::shared::SharedDb)
    /// installs a writer's new table version into the live catalog.
    pub fn put_shared(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name.to_ascii_lowercase(), table);
    }

    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(&name.to_ascii_lowercase())
            .map(|_| ())
            .ok_or_else(|| Error::NotFound(name.to_string()))
    }

    pub fn get(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    pub fn get_required(&self, name: &str) -> Result<&Arc<Table>> {
        self.get(name).ok_or_else(|| Error::NotFound(name.to_string()))
    }

    /// Mutable access with copy-on-write semantics. Bumps the table's
    /// [`version`](Table::version): callers take this handle precisely to
    /// mutate, so the versioned identity stays conservative — a bumped
    /// version never lies about contents being possibly different. The
    /// copy (made only while a snapshot shares the table) bumps one
    /// refcount per row chunk; the PK index and column set come along by
    /// `Arc` and each [`Table`] mutator maintains or drops what it
    /// affects.
    pub fn get_mut(&mut self, name: &str) -> Result<&mut Table> {
        let arc = self
            .tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(name.to_string()))?;
        let table = Arc::make_mut(arc);
        table.version += 1;
        Ok(table)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Table names, sorted for deterministic iteration.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.tables.values().map(|t| t.name.clone()).collect();
        names.sort();
        names
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Current row count of a table — the per-table statistic the
    /// optimizer's join ordering consumes. Exact (not an estimate): the
    /// catalog is the storage engine, so the count is free.
    pub fn row_count(&self, name: &str) -> Option<usize> {
        self.get(name).map(|t| t.len())
    }

    /// Schema + cardinality statistics for one table.
    pub fn stats(&self, name: &str) -> Option<TableStats> {
        self.get(name).map(|t| TableStats { rows: t.len(), columns: t.width() })
    }

    /// The version of a table, if it exists — the per-table identity the
    /// transaction layer's commit conflict check compares.
    pub fn version(&self, name: &str) -> Option<u64> {
        self.get(name).map(|t| t.version)
    }
}

/// Per-table statistics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    pub rows: usize,
    pub columns: usize,
}

impl crate::plan::SchemaProvider for Catalog {
    fn table_columns(&self, table: &str) -> Result<Vec<String>> {
        Ok(self.get_required(table)?.column_names())
    }

    fn table_rows(&self, table: &str) -> Option<usize> {
        self.row_count(table)
    }

    fn table_primary_key(&self, table: &str) -> Option<Vec<String>> {
        let t = self.get(table)?;
        if t.primary_key.is_empty() {
            return None;
        }
        Some(t.primary_key.iter().map(|&i| t.columns[i].name.clone()).collect())
    }
}

// ---------------------------------------------------------------------------
// Binary row codec
// ---------------------------------------------------------------------------
//
// Little-endian, length-prefixed, no self-description: the WAL frames every
// record with its own length + checksum, so the codec only needs to be
// unambiguous, compact and lossless (NaN bit patterns, -0.0 and text all
// round-trip exactly).

/// Interns decoded text so repeated strings in one decode session share a
/// single [`ThinStr`] allocation — the same zero-copy representation the
/// engine builds at parse/load time.
#[derive(Debug, Default)]
pub struct TextInterner {
    strings: HashSet<ThinStr>,
}

impl TextInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared handle for `s`, reusing a previous allocation when one exists.
    pub fn intern(&mut self, s: &str) -> ThinStr {
        match self.strings.get(s) {
            Some(shared) => shared.clone(),
            None => {
                let shared = ThinStr::new(s);
                self.strings.insert(shared.clone());
                shared
            }
        }
    }
}

/// Codec error helper: the byte stream ended or a tag was invalid.
pub(crate) fn codec_err(what: &str) -> Error {
    Error::Io(format!("codec: malformed {what}"))
}

// Shared little-endian primitives — the WAL's record framing
// (`crate::wal`) builds on the same helpers.

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8]> {
    let end = pos.checked_add(n).ok_or_else(|| codec_err("length"))?;
    if end > buf.len() {
        return Err(codec_err("truncated field"));
    }
    let out = &buf[*pos..end];
    *pos = end;
    Ok(out)
}

pub(crate) fn get_u8(buf: &[u8], pos: &mut usize) -> Result<u8> {
    Ok(take(buf, pos, 1)?[0])
}

/// `take` an exact-size field into an array. `take` already bounds-checked
/// the slice; the copy keeps decode paths free of panicking casts — a WAL
/// replay or checkpoint load must answer corruption with `Err`, not abort.
pub(crate) fn take_array<const N: usize>(buf: &[u8], pos: &mut usize) -> Result<[u8; N]> {
    let field = take(buf, pos, N)?;
    let mut out = [0u8; N];
    out.copy_from_slice(field);
    Ok(out)
}

pub(crate) fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32> {
    Ok(u32::from_le_bytes(take_array(buf, pos)?))
}

pub(crate) fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
    Ok(u64::from_le_bytes(take_array(buf, pos)?))
}

pub(crate) fn get_str<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a str> {
    let len = get_u32(buf, pos)? as usize;
    std::str::from_utf8(take(buf, pos, len)?).map_err(|_| codec_err("utf-8 text"))
}

/// Append one value: a storage-class tag byte plus the exact payload.
pub fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Integer(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Real(r) => {
            buf.push(2);
            // Raw bits: NaN payloads and -0.0 survive the round trip.
            buf.extend_from_slice(&r.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            buf.push(3);
            put_str(buf, s);
        }
    }
}

/// Decode one value, interning text through `interner`.
pub fn decode_value(buf: &[u8], pos: &mut usize, interner: &mut TextInterner) -> Result<Value> {
    match get_u8(buf, pos)? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Integer(i64::from_le_bytes(take_array(buf, pos)?))),
        2 => Ok(Value::Real(f64::from_bits(get_u64(buf, pos)?))),
        3 => Ok(Value::Text(interner.intern(get_str(buf, pos)?))),
        _ => Err(codec_err("value tag")),
    }
}

/// Append one shared row: cell count then each value.
pub fn encode_row(buf: &mut Vec<u8>, row: &Row) {
    put_u32(buf, row.len() as u32);
    for v in row.iter() {
        encode_value(buf, v);
    }
}

/// Decode one row into the shared representation.
pub fn decode_row(buf: &[u8], pos: &mut usize, interner: &mut TextInterner) -> Result<Row> {
    let n = get_u32(buf, pos)? as usize;
    let mut cells = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        cells.push(decode_value(buf, pos, interner)?);
    }
    Ok(cells.into())
}

/// Serialize a full table snapshot: name, schema, primary key, version and
/// every row. The output is deterministic for a given table state.
pub fn encode_table(buf: &mut Vec<u8>, table: &Table) {
    put_str(buf, &table.name);
    put_u32(buf, table.columns.len() as u32);
    for col in &table.columns {
        put_str(buf, &col.name);
        match &col.decl_type {
            None => buf.push(0),
            Some(t) => {
                buf.push(1);
                put_str(buf, t);
            }
        }
        buf.push(col.not_null as u8);
    }
    put_u32(buf, table.primary_key.len() as u32);
    for &pk in &table.primary_key {
        put_u32(buf, pk as u32);
    }
    put_u64(buf, table.version);
    put_u64(buf, table.rows.len() as u64);
    for row in &table.rows {
        encode_row(buf, row);
    }
}

/// Reconstruct a table from its encoded snapshot, rebuilding the column
/// and primary-key indexes and re-interning text through `interner`.
pub fn decode_table(buf: &[u8], pos: &mut usize, interner: &mut TextInterner) -> Result<Table> {
    let name = get_str(buf, pos)?.to_string();
    let ncols = get_u32(buf, pos)? as usize;
    let mut columns = Vec::with_capacity(ncols.min(1 << 12));
    for _ in 0..ncols {
        let cname = get_str(buf, pos)?.to_string();
        let decl_type = match get_u8(buf, pos)? {
            0 => None,
            1 => Some(get_str(buf, pos)?.to_string()),
            _ => return Err(codec_err("decl-type tag")),
        };
        let not_null = get_u8(buf, pos)? != 0;
        columns.push(Column { name: cname, decl_type, not_null });
    }
    let npk = get_u32(buf, pos)? as usize;
    let mut pk_names = Vec::with_capacity(npk.min(1 << 12));
    for _ in 0..npk {
        let idx = get_u32(buf, pos)? as usize;
        let col =
            columns.get(idx).ok_or_else(|| codec_err("primary-key column index"))?;
        pk_names.push(col.name.clone());
    }
    let version = get_u64(buf, pos)?;
    let nrows = get_u64(buf, pos)? as usize;
    let mut table = Table::new(name, columns, &pk_names)?;
    for _ in 0..nrows {
        let row = decode_row(buf, pos, interner)?;
        table.insert_shared_row(row)?;
    }
    table.version = version;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hero_table() -> Table {
        let mut t = Table::new(
            "superhero",
            vec![Column::new("hero_name"), Column::new("full_name")],
            &["hero_name".to_string()],
        )
        .unwrap();
        t.insert_row(vec!["Spider-Man".into(), "Peter Parker".into()]).unwrap();
        t.insert_row(vec!["Batman".into(), "Bruce Wayne".into()]).unwrap();
        t
    }

    #[test]
    fn column_resolution_is_case_insensitive() {
        let t = hero_table();
        assert_eq!(t.column_index("HERO_NAME"), Some(0));
        assert_eq!(t.column_index("Full_Name"), Some(1));
        assert_eq!(t.column_index("nope"), None);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = hero_table();
        let err = t.insert_row(vec!["Batman".into(), "Someone Else".into()]).unwrap_err();
        assert!(matches!(err, Error::Constraint(_)));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn pk_lookup() {
        let t = hero_table();
        let row = t.find_by_pk(&["Batman".into()]).unwrap();
        assert_eq!(row[1], Value::text("Bruce Wayne"));
        assert!(t.find_by_pk(&["Nobody".into()]).is_none());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = hero_table();
        assert!(t.insert_row(vec!["X".into()]).is_err());
    }

    #[test]
    fn not_null_enforced() {
        let mut cols = vec![Column::new("a")];
        cols[0].not_null = true;
        let mut t = Table::new("t", cols, &[]).unwrap();
        assert!(t.insert_row(vec![Value::Null]).is_err());
        assert!(t.insert_row(vec![1.into()]).is_ok());
    }

    #[test]
    fn add_column_backfills_null() {
        let mut t = hero_table();
        t.add_column(Column::new("publisher")).unwrap();
        assert_eq!(t.width(), 3);
        assert!(t.rows[0][2].is_null());
        assert!(t.add_column(Column::new("publisher")).is_err(), "duplicate");
    }

    #[test]
    fn drop_column_shifts_pk_and_reindexes() {
        let mut t = Table::new(
            "t",
            vec![Column::new("a"), Column::new("b"), Column::new("c")],
            &["c".to_string()],
        )
        .unwrap();
        t.insert_row(vec![1.into(), 2.into(), 3.into()]).unwrap();
        t.drop_columns(&["a"]).unwrap();
        assert_eq!(t.column_names(), vec!["b", "c"]);
        assert_eq!(t.primary_key, vec![1]);
        assert!(t.find_by_pk(&[3.into()]).is_some());
    }

    #[test]
    fn drop_pk_column_clears_pk() {
        let mut t = hero_table();
        t.drop_columns(&["hero_name"]).unwrap();
        assert!(t.primary_key.is_empty());
        // Inserting a former duplicate now succeeds.
        t.insert_row(vec!["Peter Parker".into()]).unwrap();
    }

    /// The single-column drop [`Table::drop_columns`] replaced, kept as
    /// the reference for `drop_columns_matches_dropping_one_at_a_time`.
    fn drop_column_reference(t: &mut Table, name: &str) -> Result<()> {
        let idx = t
            .column_index(name)
            .ok_or_else(|| Error::NotFound(format!("{}.{}", t.name, name)))?;
        t.columnar.take();
        t.columns.remove(idx);
        t.rows = t
            .rows
            .iter()
            .map(|row| {
                let mut narrowed = row.to_vec();
                narrowed.remove(idx);
                narrowed.into()
            })
            .collect();
        if t.primary_key.contains(&idx) {
            t.primary_key.clear();
            t.pk_index = Arc::default();
        } else {
            for pk in &mut t.primary_key {
                if *pk > idx {
                    *pk -= 1;
                }
            }
        }
        t.col_index.clear();
        for (i, c) in t.columns.iter().enumerate() {
            t.col_index.insert(c.name.to_ascii_lowercase(), i);
        }
        Ok(())
    }

    /// Every row of `t` probes back to its own slot, and the index holds
    /// nothing else.
    fn assert_pk_probes(t: &Table) {
        if !t.has_primary_key() {
            assert!(t.pk_index.is_empty());
            return;
        }
        assert_eq!(t.pk_index.len(), t.len());
        for (slot, row) in t.rows.iter().enumerate() {
            assert_eq!(t.pk_row_index(&t.pk_values_of(row)), Some(slot as u32));
        }
    }

    /// A random table for the `drop_columns` property, and a list of
    /// column names to drop, drawn from `words`: width 1-8, no key, a
    /// one-column key or a composite one, NULL / integer / real / text
    /// cells from small domains (so some rows collide on the key and are
    /// refused), and a shuffled subset of the columns in mixed case.
    fn random_table_and_drops(words: &[u64]) -> (Table, Vec<String>) {
        let mut words = words.iter().cycle();
        let mut next = |n: u64| words.next().unwrap() % n;
        let width = 1 + next(8) as usize;
        let names: Vec<String> = (0..width).map(|i| format!("C{i}")).collect();
        let pk: Vec<String> = match next(3) {
            0 => vec![],
            1 => vec![names[next(width as u64) as usize].clone()],
            _ => names.iter().filter(|_| next(2) == 0).cloned().collect(),
        };
        let columns = names.iter().map(Column::new).collect();
        let mut t = Table::new("t", columns, &pk).unwrap();
        for _ in 0..next(40) {
            let row: Vec<Value> = (0..width)
                .map(|_| match next(4) {
                    0 => Value::Null,
                    1 => Value::Integer(next(6) as i64 - 2),
                    2 => Value::Real(next(6) as f64 * 0.5),
                    _ => Value::text(format!("s{}", next(6))),
                })
                .collect();
            let _ = t.insert_row(row);
        }
        if next(2) == 0 {
            t.column_set();
        }
        let mut drops: Vec<String> = names
            .iter()
            .filter_map(|n| match next(4) {
                0 => Some(n.to_ascii_lowercase()),
                1 => Some(n.clone()),
                _ => None,
            })
            .collect();
        for i in (1..drops.len()).rev() {
            drops.swap(i, next(i as u64 + 1) as usize);
        }
        (t, drops)
    }

    proptest::proptest! {
        /// One `drop_columns` call against dropping the same columns one
        /// at a time through the reference: the same columns and name
        /// index, primary key and probes, rows, and a column set equal to
        /// a fresh transpose. A list with an unknown or a repeated name is
        /// refused whole, with the table untouched.
        #[test]
        fn drop_columns_matches_dropping_one_at_a_time(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..64),
        ) {
            let (table, drops) = random_table_and_drops(&words);
            let drops: Vec<&str> = drops.iter().map(String::as_str).collect();
            let mut got = table.clone();
            got.drop_columns(&drops).unwrap();
            let mut want = table.clone();
            for name in &drops {
                drop_column_reference(&mut want, name).unwrap();
            }
            // Columns, primary key and rows (and name and version).
            assert!(got == want, "{table:?} minus {drops:?}");
            for c in table.column_names() {
                assert_eq!(got.column_index(&c), want.column_index(&c), "{c}");
            }
            assert_eq!(*got.pk_index, *want.pk_index);
            assert_pk_probes(&got);
            let fresh = crate::columnar::ColumnSet::from_rows(&got.rows, got.width());
            assert_eq!(format!("{:?}", got.column_set()), format!("{fresh:?}"));

            let bad = words[0] as usize % (drops.len() + 1);
            for extra in ["nope", drops.first().copied().unwrap_or("nope")] {
                let mut list = drops.clone();
                list.insert(bad, extra);
                let mut refused = table.clone();
                let err = refused.drop_columns(&list).unwrap_err();
                assert!(matches!(err, Error::NotFound(_)), "{list:?}: {err:?}");
                assert!(refused == table && refused.col_index == table.col_index);
                assert!(Arc::ptr_eq(&refused.pk_index, &table.pk_index));
                assert_eq!(refused.columnar.get().is_some(), table.columnar.get().is_some());
            }
        }
    }

    #[test]
    fn insert_rows_keeps_the_rows_before_a_repeated_key() {
        let mut t = numbers(2);
        let batch: Vec<Row> = [10, 11, 12, 11, 13]
            .iter()
            .map(|&id: &i64| Row::from([id.into(), 0.into(), "x".into()]))
            .collect();
        let err = t.insert_rows(batch).unwrap_err();
        assert!(matches!(err, Error::Constraint(_)), "{err:?}");
        assert_eq!(t.len(), 5, "rows 0..3 of the batch stay, nothing from the repeat on");
        for (slot, id) in [(2u32, 10i64), (3, 11), (4, 12)] {
            assert_eq!(t.pk_row_index(&[id.into()]), Some(slot));
        }
        assert_eq!(t.pk_row_index(&[13.into()]), None);
        assert_pk_probes(&t);
    }

    #[test]
    fn insert_rows_refuses_a_wrong_arity_row() {
        let mut t = numbers(1);
        let batch = vec![Row::from([5.into(), 0.into(), "x".into()]), Row::from([6.into()])];
        assert!(matches!(t.insert_rows(batch), Err(Error::Semantic(_))));
        assert_eq!(t.len(), 2);
        assert_eq!(t.pk_row_index(&[6.into()]), None);
        assert_pk_probes(&t);
    }

    #[test]
    fn insert_rows_into_a_clone_leaves_the_shared_index_alone() {
        let original = numbers(3);
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.pk_index, &copy.pk_index));
        let batch: Vec<Row> =
            (3..6i64).map(|id| Row::from([id.into(), 0.into(), "x".into()])).collect();
        assert_eq!(copy.insert_rows(batch).unwrap(), 3);
        assert_eq!((original.len(), original.pk_index.len()), (3, 3));
        assert_eq!(original.pk_row_index(&[4.into()]), None);
        assert_pk_probes(&original);
        assert_eq!(copy.len(), 6);
        assert_pk_probes(&copy);
    }

    #[test]
    fn remove_rows_renumbers_index() {
        let mut t = hero_table();
        t.insert_row(vec!["Hulk".into(), "Bruce Banner".into()]).unwrap();
        t.remove_rows(&[1]).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.find_by_pk(&["Batman".into()]).is_none());
        assert_eq!(t.pk_row_index(&["Spider-Man".into()]), Some(0));
        assert_eq!(t.pk_row_index(&["Hulk".into()]), Some(1));
        assert!(t.remove_rows(&[1, 0]).is_err(), "slots must ascend");
        assert!(t.remove_rows(&[2]).is_err(), "slots must exist");
        assert_eq!(t.len(), 2, "a refused removal changes nothing");
    }

    fn numbers(rows: i64) -> Table {
        let cols = vec![Column::new("id"), Column::new("v"), Column::new("s")];
        let mut t = Table::new("t", cols, &["id".to_string()]).unwrap();
        for i in 0..rows {
            t.insert_row(vec![i.into(), (i * 10).into(), format!("s{}", i % 2).into()]).unwrap();
        }
        t
    }

    #[test]
    fn replace_rows_judges_uniqueness_on_the_final_state() {
        let mut t = numbers(4);
        let shifted = |t: &Table, by: i64| -> Vec<(usize, Row)> {
            t.rows()
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let id = r[0].as_i64().unwrap() + by;
                    (i, Row::from(vec![id.into(), r[1].clone(), r[2].clone()]))
                })
                .collect()
        };
        // Every key shifts onto its neighbour's old key: fine as a whole.
        t.replace_rows(shifted(&t, 1)).unwrap();
        assert_eq!(t.pk_row_index(&[1.into()]), Some(0));
        assert_eq!(t.pk_row_index(&[4.into()]), Some(3));
        assert_eq!(t.pk_row_index(&[0.into()]), None);

        // A collision with an untouched row, and one between two incoming
        // rows, each leave rows, order and index exactly as they were.
        let before = t.clone();
        let onto_untouched = vec![(0, Row::from(vec![2.into(), 0.into(), "x".into()]))];
        assert!(matches!(t.replace_rows(onto_untouched), Err(Error::Constraint(_))));
        let onto_each_other = vec![
            (0, Row::from(vec![9.into(), 0.into(), "x".into()])),
            (1, Row::from(vec![9.into(), 0.into(), "x".into()])),
        ];
        assert!(matches!(t.replace_rows(onto_each_other), Err(Error::Constraint(_))));
        let too_narrow = vec![(0, Row::from(vec![1.into()]))];
        assert!(t.replace_rows(too_narrow).is_err());
        assert!(t == before);
        assert!(Arc::ptr_eq(&t.pk_index, &before.pk_index), "a refused patch copies nothing");
    }

    #[test]
    fn a_non_key_update_shares_the_pk_index_and_columns_with_its_predecessor() {
        let mut cat = Catalog::new();
        cat.create_table(numbers(8)).unwrap();
        let old = cat.get("t").unwrap().clone();
        let old_cols = old.column_set();
        let row = Row::from(vec![3.into(), 99.into(), "s1".into()]);
        cat.get_mut("t").unwrap().replace_rows(vec![(3, row)]).unwrap();
        let new = cat.get("t").unwrap();
        assert!(Arc::ptr_eq(&old.pk_index, &new.pk_index));
        // Only `v` changed: its vector is the one column copied, and the
        // predecessor still reads its own.
        let new_cols = new.column_set();
        assert!(Arc::ptr_eq(&old_cols.columns[0], &new_cols.columns[0]));
        assert!(!Arc::ptr_eq(&old_cols.columns[1], &new_cols.columns[1]));
        assert!(Arc::ptr_eq(&old_cols.columns[2], &new_cols.columns[2]));
        assert_eq!(old_cols.columns[1].value_at(3), Value::Integer(30));
        assert_eq!(new_cols.columns[1].value_at(3), Value::Integer(99));

        // Appends copy the index they add to.
        let t = cat.get_mut("t").unwrap();
        t.insert_row(vec![100.into(), 0.into(), "s0".into()]).unwrap();
        t.insert_row(vec![50.into(), 0.into(), "s0".into()]).unwrap();
        assert_eq!(t.pk_row_index(&[50.into()]), Some(9));
        assert_eq!(old.pk_index.len(), 8);
    }

    /// A one-row UPDATE of a version a snapshot still holds copies one row
    /// chunk, not the table, and the text column it writes keeps every
    /// full dictionary chunk: the new string lands in the tail.
    #[test]
    fn a_one_row_update_copies_one_row_chunk_and_no_full_dictionary_chunk() {
        use crate::chunked::CHUNK;
        use crate::columnar::{ColumnData, ColumnSet};

        let cols = vec![Column::new("id"), Column::new("val"), Column::new("tag")];
        let mut t = Table::new("kv", cols, &["id".to_string()]).unwrap();
        let n = 3 * CHUNK as i64 + 100;
        let row = |i: i64| Row::from([i.into(), (i * 10).into(), format!("t{i}").into()]);
        t.insert_rows((0..n).map(row)).unwrap();
        let mut cat = Catalog::new();
        cat.create_table(t).unwrap();
        let old = cat.get("kv").unwrap().clone();
        let old_cols = old.column_set();
        let slot = CHUNK + 5;
        let row = Row::from([(slot as i64).into(), 7.into(), "fresh".into()]);
        cat.get_mut("kv").unwrap().replace_rows(vec![(slot, row)]).unwrap();
        let new = cat.get("kv").unwrap();

        let shared: Vec<bool> = (old.rows().chunks().zip(new.rows().chunks()))
            .map(|(a, b)| std::ptr::eq(a.as_ptr(), b.as_ptr()))
            .collect();
        assert_eq!(shared, [true, false, true, true], "row chunks shared with the old version");
        assert_eq!(old.rows()[slot][1], Value::Integer(slot as i64 * 10), "the old version's row");
        assert_eq!(new.rows()[slot][1], Value::Integer(7));

        let new_cols = new.column_set();
        let dict = |set: &ColumnSet| match &set.columns[2].data {
            ColumnData::Text { dict, .. } => dict.clone(),
            other => panic!("tag is a text column, not {other:?}"),
        };
        let (old_dict, new_dict) = (dict(&old_cols), dict(&new_cols));
        assert_eq!((old_dict.len(), new_dict.len()), (n as usize, n as usize + 1));
        assert_eq!(&*new_dict[n as usize], "fresh");
        let full = old_dict.len() / CHUNK;
        assert_eq!(full, 3);
        for (k, (a, b)) in old_dict.chunks().zip(new_dict.chunks()).take(full).enumerate() {
            assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()), "dictionary chunk {k} was copied");
        }
    }

    /// `build_row_patch` probes the slot of each write-set key; it never
    /// walks the table. The other rows here are too short to hold a key —
    /// visiting any of them panics.
    #[test]
    fn row_patch_for_one_key_visits_one_row() {
        let mut t = numbers(1);
        let index = Arc::make_mut(&mut t.pk_index);
        for i in 1..50usize {
            t.rows.push(Row::from(Vec::new()));
            index.insert(vec![Value::Integer(i as i64).group_key()], i);
        }
        let key = vec![Value::Integer(0)];
        let gone = vec![Value::Integer(777)];
        let keys = HashMap::from([
            (key.iter().map(Value::group_key).collect(), key),
            (gone.iter().map(Value::group_key).collect(), gone.clone()),
        ]);
        let (deletes, upserts) = crate::txn::build_row_patch(&t, &keys);
        assert_eq!(deletes, vec![Row::from(gone)]);
        assert_eq!(upserts, vec![t.rows[0].clone()]);
    }

    #[test]
    fn catalog_create_drop() {
        let mut cat = Catalog::new();
        cat.create_table(hero_table()).unwrap();
        assert!(cat.contains("SUPERHERO"), "case-insensitive");
        assert!(cat.create_table(hero_table()).is_err());
        cat.drop_table("superhero").unwrap();
        assert!(cat.drop_table("superhero").is_err());
    }

    #[test]
    fn catalog_cow_mutation_does_not_affect_snapshots() {
        let mut cat = Catalog::new();
        cat.create_table(hero_table()).unwrap();
        let snapshot = cat.get("superhero").unwrap().clone();
        cat.get_mut("superhero")
            .unwrap()
            .insert_row(vec!["Hulk".into(), "Bruce Banner".into()])
            .unwrap();
        assert_eq!(snapshot.len(), 2, "snapshot unchanged");
        assert_eq!(cat.get("superhero").unwrap().len(), 3);
    }

    #[test]
    fn get_mut_bumps_version_monotonically() {
        let mut cat = Catalog::new();
        cat.create_table(hero_table()).unwrap();
        assert_eq!(cat.version("superhero"), Some(0));
        cat.get_mut("superhero").unwrap();
        cat.get_mut("SUPERHERO").unwrap();
        assert_eq!(cat.version("superhero"), Some(2));
        // A snapshot taken before a bump keeps its own version.
        let snap = cat.get("superhero").unwrap().clone();
        cat.get_mut("superhero").unwrap();
        assert_eq!(snap.version, 2);
        assert_eq!(cat.version("superhero"), Some(3));
    }

    #[test]
    fn table_codec_round_trips_losslessly() {
        let mut t = Table::new(
            "mixed",
            vec![
                Column::new("a"),
                Column::typed("b", "INTEGER"),
                Column { name: "c".into(), decl_type: None, not_null: true },
            ],
            &["a".to_string()],
        )
        .unwrap();
        t.insert_row(vec![1.into(), Value::Null, "shared".into()]).unwrap();
        t.insert_row(vec![2.into(), Value::Real(-0.0), "shared".into()]).unwrap();
        t.insert_row(vec![3.into(), Value::Real(f64::NAN), "unique".into()]).unwrap();
        t.version = 41;

        let mut buf = Vec::new();
        encode_table(&mut buf, &t);
        let mut pos = 0;
        let mut interner = TextInterner::new();
        let back = decode_table(&buf, &mut pos, &mut interner).unwrap();
        assert_eq!(pos, buf.len(), "decode must consume the whole encoding");

        assert_eq!(back.name, "mixed");
        assert_eq!(back.columns, t.columns);
        assert_eq!(back.primary_key, t.primary_key);
        assert_eq!(back.version, 41);
        assert_eq!(back.rows.len(), 3);
        assert_eq!(back.rows[0], t.rows[0]);
        // NaN bits round-trip (Value's PartialEq treats NaN == NaN via sort_cmp).
        match &back.rows[2][1] {
            Value::Real(r) => assert!(r.is_nan()),
            other => panic!("expected NaN real, got {other:?}"),
        }
        // -0.0 keeps its sign bit.
        match &back.rows[1][1] {
            Value::Real(r) => assert!(r.to_bits() == (-0.0f64).to_bits()),
            other => panic!("expected -0.0, got {other:?}"),
        }
        // Repeated text decodes to one interned allocation.
        match (&back.rows[0][2], &back.rows[1][2]) {
            (Value::Text(x), Value::Text(y)) => {
                assert!(ThinStr::ptr_eq(x, y), "decode must intern repeated text")
            }
            _ => panic!("expected text cells"),
        }
        // The PK index was rebuilt.
        assert!(back.find_by_pk(&[2.into()]).is_some());
    }

    #[test]
    fn decode_rejects_truncated_and_garbage_input() {
        let mut t = hero_table();
        t.version = 7;
        let mut buf = Vec::new();
        encode_table(&mut buf, &t);
        for cut in 0..buf.len() {
            let mut pos = 0;
            let mut interner = TextInterner::new();
            assert!(
                decode_table(&buf[..cut], &mut pos, &mut interner).is_err(),
                "decoding a {cut}-byte prefix must fail"
            );
        }
        let mut pos = 0;
        let mut interner = TextInterner::new();
        assert!(decode_value(&[9], &mut pos, &mut interner).is_err(), "bad tag");
    }

    #[test]
    fn table_names_sorted() {
        let mut cat = Catalog::new();
        cat.create_table(Table::new("zeta", vec![Column::new("a")], &[]).unwrap()).unwrap();
        cat.create_table(Table::new("alpha", vec![Column::new("a")], &[]).unwrap()).unwrap();
        assert_eq!(cat.table_names(), vec!["alpha", "zeta"]);
    }

    /// In-place writes can leave one string under two dictionary ids (a
    /// reverse-map hash collision appends it again). GROUP BY and
    /// `COUNT(DISTINCT)` over the columns still go by string: one group
    /// for `'x'`, counted once — what the row path (`columnar: false`)
    /// answers.
    #[test]
    fn a_string_under_two_dictionary_ids_groups_and_counts_once() {
        use crate::columnar::{ColumnData, ColumnSet};
        use crate::db::Database;
        use crate::optimizer::OptimizerConfig;

        let mut db = Database::new();
        db.execute("CREATE TABLE d (id INTEGER PRIMARY KEY, t TEXT)").unwrap();
        db.execute("INSERT INTO d VALUES (1, 'x'), (2, 'y'), (3, 'x'), (4, 'x'), (5, NULL)")
            .unwrap();
        let table = db.catalog_mut().get_mut("d").unwrap();
        let mut set = ColumnSet::from_rows(table.rows(), table.width());
        let ColumnData::Text { dict, ids, index, .. } = &mut Arc::make_mut(&mut set.columns[1]).data
        else {
            panic!("t is a text column");
        };
        assert_eq!((dict.to_vec(), &ids[..]), (vec!["x".into(), "y".into()], &[0, 1, 0, 0, 0][..]));
        // Rows 3 and 4 read 'x' from a second id; a dead entry sits after it.
        dict.extend(["x".into(), "gone".into()]);
        ids[2..4].copy_from_slice(&[2, 2]);
        *index = Some(HashMap::new());
        table.columnar = std::sync::OnceLock::from(Arc::new(set));

        let rows = |db: &Database, sql: &str| -> Vec<String> {
            let result = db.query(sql).unwrap();
            let render = |r: &Row| r.iter().map(Value::render).collect::<Vec<_>>().join("|");
            result.rows.iter().map(render).collect()
        };
        let cases: [(&str, &[&str]); 4] = [
            (
                "SELECT t, COUNT(*), COUNT(DISTINCT t) FROM d GROUP BY t",
                &["x|3|1", "y|1|1", "|1|0"],
            ),
            ("SELECT COUNT(DISTINCT t) FROM d", &["2"]),
            ("SELECT COUNT(DISTINCT t) FROM d WHERE t <> 'y'", &["1"]),
            ("SELECT id % 2, COUNT(DISTINCT t) FROM d GROUP BY id % 2", &["1|1", "0|2"]),
        ];
        for (sql, want) in cases {
            assert_eq!(rows(&db, sql), want, "columnar: {sql}");
        }
        db.set_optimizer(OptimizerConfig { columnar: false, ..db.optimizer() });
        for (sql, want) in cases {
            assert_eq!(rows(&db, sql), want, "row path: {sql}");
        }
    }
}
