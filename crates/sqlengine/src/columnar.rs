//! Columnar storage and vectorized execution kernels.
//!
//! The row engine stores a table as `Vec<Row>` where `Row = Arc<[Value]>`:
//! every cell access pays an `Arc` pointer chase plus a `Value` enum match,
//! and a scan touches memory row-major — exactly the access pattern PERF.md
//! measured as L3-latency bound on `hash_join_sf1`. This module is the
//! column-major alternative:
//!
//! * [`ColumnData`] — typed vectors: `I64(Vec<i64>)`, `F64(Vec<f64>)`,
//!   `Bool` (bit-packed), `Text` (a dictionary of interned `Arc<str>` plus
//!   per-row `u32` ids), and `Mixed(Vec<Value>)` as the escape hatch for
//!   columns that are not type-stable.
//! * [`ColumnVec`] — a column plus its validity [`Bitmap`] (`1` = non-NULL).
//! * [`ColumnSet`] — all columns of one table, built once from the row
//!   store by [`ColumnSet::from_rows`], cached on [`crate::storage::Table`]
//!   and from then on *maintained* by its writers: an UPDATE overwrites the
//!   cells it changed, an INSERT appends, each column copy-on-write behind
//!   its own `Arc`.
//!
//! On top of the layout sit the kernels:
//!
//! * [`eval_predicate`] compiles a *bound* filter expression
//!   (comparisons, `AND`/`OR`/`NOT`, `IS [NOT] NULL`, `BETWEEN`, literal
//!   `IN`-lists over `Expr::BoundColumn` / `Expr::Literal` leaves) into a
//!   [`Verdict`]: a pair of `u64`-word bitmaps (`truth`, `known`)
//!   implementing SQL three-valued logic word-at-a-time. Selection
//!   bitmaps survive across conjuncts — an `AND` is two word-ops, not a
//!   re-scan. Unsupported expression shapes return `None` and the caller
//!   falls back to the row path, which stays the semantic oracle.
//! * [`eval_aggregate`] runs `COUNT`/`SUM`/`TOTAL`/`AVG`/`MIN`/`MAX` as
//!   tight typed loops over the member indices of one group, and
//!   [`count_distinct`] `COUNT(DISTINCT)` over its grouping codes.
//! * [`ColumnVec::key_codes`] reads GROUP BY keys as `u64` codes and
//!   [`ColumnVec::join_key_at`] join keys, straight from a column without
//!   touching rows.
//!
//! Every kernel reproduces the row path bit-for-bit — the comparison,
//! truthiness, tie-break and overflow semantics are copied from
//! [`crate::value::Value`] (`sql_eq` uses IEEE `==` so `NaN != NaN`;
//! `sort_cmp` is the total order with NaN after reals; `MIN` keeps the
//! first of equals, `MAX` the last; integer `SUM` overflow is
//! `Error::Arithmetic`). The `config_diff` harness diffs
//! `columnar: true` against `columnar: false` on every generated query.
//!
//! Rows are materialized from columns only at the engine boundary
//! ([`ColumnSet::materialize_row`]); the `no-row-materialize` lint in
//! `swan-analyze` keeps row construction out of the kernels in this file.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

use crate::ast::{BinaryOp, Expr, UnaryOp};
use crate::error::{Error, Result};
use crate::hash::{map_with_capacity, set_with_capacity, FxHashMap, FxHashSet};
use crate::value::{real_key_bits, GroupKey, Row, Value};

// ---- bitmaps ---------------------------------------------------------------

/// A fixed-length bit vector packed into `u64` words, little-endian within
/// each word (bit `i` lives at `words[i / 64] >> (i % 64)`). Tail bits past
/// `len` are always zero — word-wise operations rely on that invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zero bitmap of `len` bits.
    pub fn new_false(len: usize) -> Self {
        Bitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// All-one bitmap of `len` bits (tail bits zeroed).
    pub fn new_true(len: usize) -> Self {
        let mut b = Bitmap { words: vec![u64::MAX; len.div_ceil(64)], len };
        b.mask_tail();
        b
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn set(&mut self, i: usize, v: bool) {
        let (w, b) = (i / 64, i % 64);
        if v {
            self.words[w] |= 1u64 << b;
        } else {
            self.words[w] &= !(1u64 << b);
        }
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Append one bit.
    pub fn push(&mut self, v: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if v {
            self.set(self.len - 1, true);
        }
    }
}

// ---- typed columns ---------------------------------------------------------

/// The typed payload of one column. Slots where the validity bitmap is zero
/// hold an arbitrary placeholder (`0`, `0.0`, id `0`) and must never be
/// read as data.
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Every non-NULL cell is `Value::Integer`.
    I64(Vec<i64>),
    /// Every non-NULL cell is `Value::Real`. Bit patterns (NaN payloads,
    /// `-0.0`) are preserved exactly.
    F64(Vec<f64>),
    /// Every non-NULL cell is `Value::Integer(0 | 1)` — bit-packed.
    Bool(Bitmap),
    /// Every non-NULL cell is `Value::Text`. `dict` holds one shared
    /// `Arc<str>` per distinct string (re-sharing the first row's `Arc`);
    /// `ids[i]` indexes into it. `index` is the reverse map, keyed by
    /// `text_hash` so that copying it with the column is a flat copy
    /// (a probe is confirmed against `dict`): absent on a freshly
    /// transposed column — a table that is only read never pays for it —
    /// built by the first in-place write and carried from then on.
    /// In-place writes may leave entries no row references, and (after a
    /// `text_hash` collision) a second id for a string a row still
    /// references — so a column with an `index` can hold one string under
    /// two ids, and kernels that compare cells by id canonicalize first
    /// (`key_codes`, `count_distinct`). Dead entries are harmless to every
    /// kernel (each works per referenced id) and bounded by
    /// `DICT_DEAD_FACTOR`.
    Text { dict: Vec<Arc<str>>, ids: Vec<u32>, index: Option<HashMap<u64, u32>> },
    /// Type-unstable column: the row values verbatim. Kernels decline
    /// mixed columns and the caller falls back to the row path.
    Mixed(Vec<Value>),
}

/// A text dictionary may grow to this many times its column's length
/// (plus a small constant) through in-place writes before the writer
/// declines and the column set is rebuilt, compact, on next use.
const DICT_DEAD_FACTOR: usize = 2;

/// The key of a text column's reverse dictionary map. Two strings that
/// collide merely share a slot: the later one owns it and the earlier is
/// appended again if it is ever written again — a second id for it.
fn text_hash(s: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// Exact cell identity — reals by bit pattern, `Integer(1)` never equal to
/// `Real(1.0)` (unlike `Value`'s sort-order `PartialEq`): whether an
/// UPDATE changed a cell as far as a typed column can tell.
fn value_bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Integer(x), Value::Integer(y)) => x == y,
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        (Value::Text(x), Value::Text(y)) => x == y,
        _ => false,
    }
}

/// One column: typed payload plus validity bitmap (`1` = non-NULL).
#[derive(Debug, Clone)]
pub struct ColumnVec {
    pub data: ColumnData,
    pub validity: Bitmap,
}

/// All columns of one table, column-major. Built from the row store by
/// [`ColumnSet::from_rows`], cached on `Table` and carried from one table
/// version to the next: `ColumnSet::patch_row` and
/// `ColumnSet::push_row` keep it equal — cell for cell, under
/// `value_at` / `join_key_at` and every kernel — to a
/// fresh transpose of the new rows, though not always structurally (an
/// `I64` column stays `I64` where a rebuild would now say `Bool`). Each
/// column sits behind its own `Arc` and is written through
/// [`Arc::make_mut`]: a write copies only the columns it changes, and
/// only while another table version or a running scan still holds them,
/// so no reader ever observes a patch. A write a column's class cannot
/// represent is declined, and the owner drops the whole set to be rebuilt
/// on next use.
#[derive(Debug, Clone)]
pub struct ColumnSet {
    pub columns: Vec<Arc<ColumnVec>>,
    len: usize,
}

impl ColumnSet {
    /// Transpose a row store into typed columns. Each column is classified
    /// by scanning its non-NULL cells: all-`Integer` becomes `I64` (or
    /// bit-packed `Bool` when every value is 0/1), all-`Real` becomes
    /// `F64`, all-`Text` becomes a dictionary column whose entries
    /// re-share the rows' interned `Arc<str>`s, anything else stays
    /// `Mixed`. Empty and all-NULL columns classify as `I64` with an
    /// all-zero validity bitmap.
    pub fn from_rows(rows: &[Row], width: usize) -> ColumnSet {
        let len = rows.len();
        let columns = (0..width).map(|j| Arc::new(build_column(rows, j, len))).collect();
        ColumnSet { columns, len }
    }

    /// Overwrite row `i`: every cell that differs between `old` and `new`
    /// is written into its column. Returns `false` when some column
    /// declines (see [`ColumnVec::set`]); the set is then stale and the
    /// caller must drop it.
    pub(crate) fn patch_row(&mut self, i: usize, old: &[Value], new: &[Value]) -> bool {
        if i >= self.len || old.len() != self.columns.len() || new.len() != old.len() {
            return false;
        }
        self.columns.iter_mut().zip(old.iter().zip(new)).all(|(col, (old, new))| {
            value_bits_eq(old, new) || Arc::make_mut(col).set(i, new)
        })
    }

    /// Append one row, under the same contract as [`Self::patch_row`].
    pub(crate) fn push_row(&mut self, row: &[Value]) -> bool {
        if row.len() != self.columns.len() {
            return false;
        }
        self.len += 1;
        self.columns.iter_mut().zip(row).all(|(col, v)| Arc::make_mut(col).push(v))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column `j`, if the set has one.
    pub fn column(&self, j: usize) -> Option<&ColumnVec> {
        self.columns.get(j).map(|c| &**c)
    }

    /// Rebuild row `i` as a shared row — the lazy view at the engine
    /// boundary. Reconstructed values are bit-identical to the originals,
    /// and text cells share the dictionary's `Arc<str>`.
    pub fn materialize_row(&self, i: usize) -> Row {
        let vals: Vec<Value> = self.columns.iter().map(|c| c.value_at(i)).collect();
        vals.into()
    }
}

fn build_column(rows: &[Row], j: usize, len: usize) -> ColumnVec {
    let (mut ints, mut reals, mut texts) = (0usize, 0usize, 0usize);
    let mut all01 = true;
    for row in rows {
        match row.get(j) {
            Some(Value::Integer(i)) => {
                ints += 1;
                if *i != 0 && *i != 1 {
                    all01 = false;
                }
            }
            Some(Value::Real(_)) => reals += 1,
            Some(Value::Text(_)) => texts += 1,
            // NULL cells — and, defensively, rows narrower than the
            // schema — count toward no class.
            _ => {}
        }
    }

    let mut validity = Bitmap::new_false(len);

    if ints + reals + texts == 0 {
        // Empty or all-NULL: representation is arbitrary, pick I64.
        return ColumnVec { data: ColumnData::I64(vec![0; len]), validity };
    }

    if reals == 0 && texts == 0 {
        if all01 {
            let mut bits = Bitmap::new_false(len);
            for (i, row) in rows.iter().enumerate() {
                if let Some(Value::Integer(v)) = row.get(j) {
                    validity.set(i, true);
                    if *v == 1 {
                        bits.set(i, true);
                    }
                }
            }
            return ColumnVec { data: ColumnData::Bool(bits), validity };
        }
        let mut vals = vec![0i64; len];
        for (i, row) in rows.iter().enumerate() {
            if let Some(Value::Integer(v)) = row.get(j) {
                validity.set(i, true);
                vals[i] = *v;
            }
        }
        return ColumnVec { data: ColumnData::I64(vals), validity };
    }

    if ints == 0 && texts == 0 {
        let mut vals = vec![0f64; len];
        for (i, row) in rows.iter().enumerate() {
            if let Some(Value::Real(v)) = row.get(j) {
                validity.set(i, true);
                vals[i] = *v;
            }
        }
        return ColumnVec { data: ColumnData::F64(vals), validity };
    }

    if ints == 0 && reals == 0 {
        let mut dict: Vec<Arc<str>> = Vec::new();
        let mut index: HashMap<Arc<str>, u32> = HashMap::new();
        let mut ids = vec![0u32; len];
        for (i, row) in rows.iter().enumerate() {
            if let Some(Value::Text(s)) = row.get(j) {
                validity.set(i, true);
                let id = match index.get(s.as_ref()) {
                    Some(id) => *id,
                    None => {
                        let id = dict.len() as u32;
                        // Re-share the row's interned Arc: one allocation
                        // per distinct string, shared with the row store.
                        dict.push(s.clone());
                        index.insert(s.clone(), id);
                        id
                    }
                };
                ids[i] = id;
            }
        }
        return ColumnVec { data: ColumnData::Text { dict, ids, index: None }, validity };
    }

    let mut vals = vec![Value::Null; len];
    for (i, row) in rows.iter().enumerate() {
        match row.get(j) {
            Some(v @ (Value::Integer(_) | Value::Real(_) | Value::Text(_))) => {
                validity.set(i, true);
                vals[i] = v.clone();
            }
            _ => {}
        }
    }
    ColumnVec { data: ColumnData::Mixed(vals), validity }
}

impl ColumnVec {
    /// Overwrite cell `i` in place when this column's class can hold `v`:
    /// `I64` and `F64` take their own type, `Bool` takes 0/1, `Text` takes
    /// text (through the dictionary: one hash probe, a fresh string
    /// appended), `Mixed` takes anything, and every class takes NULL.
    /// Returns `false`, having changed nothing that matters, when it
    /// cannot — or when a text dictionary has outgrown its bound.
    fn set(&mut self, i: usize, v: &Value) -> bool {
        match (&mut self.data, v) {
            (ColumnData::Mixed(vals), _) => vals[i] = v.clone(),
            (_, Value::Null) => {}
            (ColumnData::I64(vals), Value::Integer(x)) => vals[i] = *x,
            (ColumnData::F64(vals), Value::Real(x)) => vals[i] = *x,
            (ColumnData::Bool(bits), Value::Integer(x @ (0 | 1))) => bits.set(i, *x == 1),
            (ColumnData::Text { dict, ids, index }, Value::Text(s)) => {
                let index = index.get_or_insert_with(|| {
                    dict.iter().enumerate().map(|(id, s)| (text_hash(s), id as u32)).collect()
                });
                let hash = text_hash(s);
                ids[i] = match index.get(&hash) {
                    Some(&id) if dict[id as usize] == *s => id,
                    _ if dict.len() >= DICT_DEAD_FACTOR * ids.len() + 16 => return false,
                    _ => {
                        let id = dict.len() as u32;
                        dict.push(s.clone());
                        index.insert(hash, id);
                        id
                    }
                };
            }
            _ => return false,
        }
        self.validity.set(i, !v.is_null());
        true
    }

    /// Append one cell: a placeholder slot, then [`Self::set`].
    fn push(&mut self, v: &Value) -> bool {
        self.validity.push(false);
        match &mut self.data {
            ColumnData::I64(vals) => vals.push(0),
            ColumnData::F64(vals) => vals.push(0.0),
            ColumnData::Bool(bits) => bits.push(false),
            ColumnData::Text { ids, .. } => ids.push(0),
            ColumnData::Mixed(vals) => vals.push(Value::Null),
        }
        self.set(self.validity.len() - 1, v)
    }

    /// The cell at row `i` as a `Value` (bit-identical to the source row).
    pub fn value_at(&self, i: usize) -> Value {
        if !self.validity.get(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::I64(v) => Value::Integer(v[i]),
            ColumnData::F64(v) => Value::Real(v[i]),
            ColumnData::Bool(b) => Value::Integer(b.get(i) as i64),
            ColumnData::Text { dict, ids, .. } => Value::Text(dict[ids[i] as usize].clone()),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// Hash-join key for row `i`: `None` for NULL (NULL never joins),
    /// otherwise `Value::group_key` of the cell — identical to the row path's
    /// `KeySide::key`. One validity lookup; the typed arms stay small so
    /// the probe loop inlines them.
    #[inline]
    pub fn join_key_at(&self, i: usize) -> Option<GroupKey> {
        if !self.validity.get(i) {
            return None;
        }
        Some(match &self.data {
            ColumnData::I64(v) => GroupKey::Num((v[i] as f64).to_bits()),
            ColumnData::F64(v) => GroupKey::Num(real_key_bits(v[i])),
            ColumnData::Bool(b) => GroupKey::Num((b.get(i) as i64 as f64).to_bits()),
            ColumnData::Text { dict, ids, .. } => GroupKey::Text(dict[ids[i] as usize].clone()),
            ColumnData::Mixed(v) => match v[i].group_key() {
                GroupKey::Null => return None,
                k => k,
            },
        })
    }

    /// This column's grouping codes; `None` for a `Mixed` column, which
    /// groups on the row path. A text column whose dictionary has taken
    /// in-place writes pays one pass over the dictionary here.
    pub(crate) fn key_codes(&self) -> Option<KeyCodes<'_>> {
        let codes = match &self.data {
            ColumnData::I64(v) => Codes::I64(v),
            ColumnData::F64(v) => Codes::F64(v),
            ColumnData::Bool(b) => Codes::Bool(b),
            ColumnData::Text { ids, index: None, .. } => Codes::Text(ids, None),
            ColumnData::Text { dict, ids, index: Some(_) } => {
                let mut first: FxHashMap<&str, u32> = map_with_capacity(dict.len());
                let canon = (0..dict.len() as u32)
                    .map(|id| *first.entry(&*dict[id as usize]).or_insert(id))
                    .collect();
                Codes::Text(ids, Some(canon))
            }
            ColumnData::Mixed(_) => return None,
        };
        Some(KeyCodes { validity: &self.validity, codes })
    }
}

/// One column's cells as `u64` grouping codes: two cells of the column
/// share a code exactly when their `Value::group_key`s are equal (GROUP BY
/// and DISTINCT equality). Integer, real and bool cells code as the key's
/// `GroupKey::Num` bits (`-0.0` is `0.0`, every NaN one pattern), a text
/// cell as its dictionary id, NULL as `KeyCodes::NULL`. Reading a code
/// is a load — no `Arc` clone, no allocation — so a GROUP BY over columns
/// groups on tuples of codes.
pub(crate) struct KeyCodes<'a> {
    validity: &'a Bitmap,
    codes: Codes<'a>,
}

enum Codes<'a> {
    I64(&'a [i64]),
    F64(&'a [f64]),
    Bool(&'a Bitmap),
    /// Ids, and — for a dictionary in-place writes may have given one
    /// string under two ids — each id's canonical id: the first that
    /// holds the same string. A freshly transposed dictionary (no reverse
    /// index yet) holds every string once and needs no map.
    Text(&'a [u32], Option<Vec<u32>>),
}

impl KeyCodes<'_> {
    /// The code of a NULL cell: a NaN pattern `real_key_bits` never
    /// produces, and wider than any dictionary id.
    const NULL: u64 = u64::MAX;

    /// The code of row `i`.
    #[inline]
    pub fn at(&self, i: usize) -> u64 {
        if !self.validity.get(i) {
            return Self::NULL;
        }
        match &self.codes {
            Codes::I64(v) => (v[i] as f64).to_bits(),
            Codes::F64(v) => real_key_bits(v[i]),
            Codes::Bool(b) => (b.get(i) as i64 as f64).to_bits(),
            Codes::Text(ids, None) => ids[i] as u64,
            Codes::Text(ids, Some(canon)) => canon[ids[i] as usize] as u64,
        }
    }
}

// ---- three-valued predicate verdicts ---------------------------------------

/// The vectorized result of a predicate over every row: SQL three-valued
/// logic as two bitmaps. `known.get(i)` is false when the predicate is
/// NULL/unknown for row `i`; `truth.get(i)` is meaningful only where
/// known, and `truth ⊆ known` is an invariant (a row the filter keeps is
/// exactly a set `truth` bit — unknown rows are dropped, matching
/// `truthiness() == Some(true)` on the row path).
#[derive(Debug, Clone)]
pub struct Verdict {
    truth: Vec<u64>,
    known: Vec<u64>,
    len: usize,
}

impl Verdict {
    fn new(len: usize) -> Verdict {
        let words = len.div_ceil(64);
        Verdict { truth: vec![0; words], known: vec![0; words], len }
    }

    /// Every row known with the same truth value.
    fn broadcast(len: usize, truth: bool) -> Verdict {
        let mut v = Verdict::new(len);
        for w in v.known.iter_mut() {
            *w = u64::MAX;
        }
        if truth {
            v.truth.clone_from(&v.known);
        }
        v.mask_tail();
        v
    }

    /// Every row unknown (NULL).
    fn unknown(len: usize) -> Verdict {
        Verdict::new(len)
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            let mask = (1u64 << tail) - 1;
            if let Some(w) = self.truth.last_mut() {
                *w &= mask;
            }
            if let Some(w) = self.known.last_mut() {
                *w &= mask;
            }
        }
    }

    #[inline]
    fn set_true(&mut self, i: usize) {
        let (w, b) = (i / 64, i % 64);
        self.truth[w] |= 1u64 << b;
        self.known[w] |= 1u64 << b;
    }

    #[inline]
    fn set_false(&mut self, i: usize) {
        self.known[i / 64] |= 1u64 << (i % 64);
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is the predicate TRUE for row `i` (the filter-keep test)?
    #[inline]
    pub fn is_true(&self, i: usize) -> bool {
        (self.truth[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Is the predicate known (non-NULL) for row `i`?
    #[inline]
    pub fn is_known(&self, i: usize) -> bool {
        (self.known[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of TRUE rows — the selection cardinality.
    pub fn count_true(&self) -> usize {
        self.truth.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Row indices where the predicate is TRUE, ascending — the selection
    /// vector handed to downstream operators.
    pub fn selected(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count_true());
        for (wi, &word) in self.truth.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let b = w.trailing_zeros();
                out.push((wi as u32) * 64 + b);
                w &= w - 1;
            }
        }
        out
    }

    /// Kleene AND, word-at-a-time: TRUE iff both true; FALSE if either is
    /// known-false; otherwise unknown. Matches `eval`'s `and3`.
    fn and(mut self, other: &Verdict) -> Verdict {
        for i in 0..self.truth.len() {
            let t = self.truth[i] & other.truth[i];
            let f1 = self.known[i] & !self.truth[i];
            let f2 = other.known[i] & !other.truth[i];
            self.truth[i] = t;
            self.known[i] = t | f1 | f2;
        }
        self
    }

    /// Kleene OR: TRUE if either true; FALSE iff both known-false.
    /// Matches `eval`'s `or3`.
    fn or(mut self, other: &Verdict) -> Verdict {
        for i in 0..self.truth.len() {
            let t = self.truth[i] | other.truth[i];
            let f = (self.known[i] & !self.truth[i]) & (other.known[i] & !other.truth[i]);
            self.truth[i] = t;
            self.known[i] = t | f;
        }
        self
    }

    /// Kleene NOT: flips truth where known, unknown stays unknown.
    fn not(mut self) -> Verdict {
        for i in 0..self.truth.len() {
            self.truth[i] = self.known[i] & !self.truth[i];
        }
        self
    }
}

// ---- predicate kernels -----------------------------------------------------

/// A scalar cell view used by the comparison kernels. Exact because every
/// numeric comparison in `Value` (`sql_eq`, `sort_cmp`) goes through
/// `raw_num() -> f64` — integers and reals collapse to `f64` before any
/// comparison, so the kernel can too.
#[derive(Clone, Copy)]
enum Cell<'a> {
    Null,
    Num(f64),
    Text(&'a str),
}

/// A comparison operand after shape-checking: a whole column or a literal.
enum Operand<'a> {
    Col(&'a ColumnVec),
    Lit(&'a Value),
}

impl<'a> Operand<'a> {
    #[inline]
    fn cell(&self, i: usize) -> Cell<'a> {
        match self {
            Operand::Col(c) => {
                if !c.validity.get(i) {
                    return Cell::Null;
                }
                match &c.data {
                    ColumnData::I64(v) => Cell::Num(v[i] as f64),
                    ColumnData::F64(v) => Cell::Num(v[i]),
                    ColumnData::Bool(b) => Cell::Num(b.get(i) as i64 as f64),
                    ColumnData::Text { dict, ids, .. } => Cell::Text(&dict[ids[i] as usize]),
                    ColumnData::Mixed(v) => value_cell(&v[i]),
                }
            }
            Operand::Lit(v) => value_cell(v),
        }
    }
}

#[inline]
fn value_cell(v: &Value) -> Cell<'_> {
    match v {
        Value::Null => Cell::Null,
        Value::Integer(i) => Cell::Num(*i as f64),
        Value::Real(r) => Cell::Num(*r),
        Value::Text(s) => Cell::Text(s),
    }
}

/// The three primitive comparisons; `!=`, `<=`, `>=` are Kleene NOTs of
/// these, mirroring `eval_binary`'s lowering through `sql_eq`/`sql_cmp`.
#[derive(Clone, Copy, PartialEq)]
enum CmpOp {
    Eq,
    Lt,
    Gt,
}

/// `sort_cmp` for non-NULL cells: text after numerics, text by bytes,
/// numerics by `partial_cmp` with the NaN fallback (NaN equal to NaN,
/// greater than any real).
#[inline]
fn cell_cmp(a: Cell<'_>, b: Cell<'_>) -> Ordering {
    match (a, b) {
        (Cell::Num(x), Cell::Num(y)) => num_cmp(x, y),
        (Cell::Text(x), Cell::Text(y)) => x.cmp(y),
        (Cell::Text(_), _) => Ordering::Greater,
        (_, Cell::Text(_)) => Ordering::Less,
        // Unreachable: callers test for Null before comparing.
        (Cell::Null, _) | (_, Cell::Null) => Ordering::Equal,
    }
}

#[inline]
fn num_cmp(x: f64, y: f64) -> Ordering {
    x.partial_cmp(&y).unwrap_or_else(|| match (x.is_nan(), y.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        _ => Ordering::Less,
    })
}

/// `sql_eq` for non-NULL cells: text equals only equal text, text never
/// equals a number, numerics by IEEE `==` (so `NaN != NaN`, unlike
/// `cell_cmp`).
#[inline]
fn cell_eq(a: Cell<'_>, b: Cell<'_>) -> bool {
    match (a, b) {
        (Cell::Num(x), Cell::Num(y)) => x == y,
        (Cell::Text(x), Cell::Text(y)) => x == y,
        _ => false,
    }
}

#[inline]
fn cell_test(op: CmpOp, a: Cell<'_>, b: Cell<'_>) -> bool {
    match op {
        CmpOp::Eq => cell_eq(a, b),
        CmpOp::Lt => cell_cmp(a, b) == Ordering::Less,
        CmpOp::Gt => cell_cmp(a, b) == Ordering::Greater,
    }
}

fn cmp_verdict(op: CmpOp, left: &Operand<'_>, right: &Operand<'_>, len: usize) -> Verdict {
    // Literal-vs-column: mirror so the column drives the loop.
    if let (Operand::Lit(_), Operand::Col(_)) = (left, right) {
        let mirrored = match op {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Lt,
        };
        return cmp_verdict(mirrored, right, left, len);
    }

    let mut out = Verdict::new(len);

    // Fast paths: typed column against a literal.
    if let (Operand::Col(c), Operand::Lit(lit)) = (left, right) {
        match (&c.data, value_cell(lit)) {
            (_, Cell::Null) => return Verdict::unknown(len),
            (ColumnData::I64(vals), Cell::Num(b)) => {
                for (i, &v) in vals.iter().enumerate() {
                    if c.validity.get(i) {
                        if cell_test(op, Cell::Num(v as f64), Cell::Num(b)) {
                            out.set_true(i);
                        } else {
                            out.set_false(i);
                        }
                    }
                }
                return out;
            }
            (ColumnData::F64(vals), Cell::Num(b)) => {
                for (i, &v) in vals.iter().enumerate() {
                    if c.validity.get(i) {
                        if cell_test(op, Cell::Num(v), Cell::Num(b)) {
                            out.set_true(i);
                        } else {
                            out.set_false(i);
                        }
                    }
                }
                return out;
            }
            (ColumnData::Text { dict, ids, .. }, lit_cell) => {
                // Dictionary LUT: one comparison per distinct string, then
                // a gather over the ids.
                let lut: Vec<bool> = dict
                    .iter()
                    .map(|s| cell_test(op, Cell::Text(s), lit_cell))
                    .collect();
                for (i, &id) in ids.iter().enumerate() {
                    if c.validity.get(i) {
                        if lut[id as usize] {
                            out.set_true(i);
                        } else {
                            out.set_false(i);
                        }
                    }
                }
                return out;
            }
            _ => {}
        }
    }

    // General path: Cell-at-a-time (column-vs-column, Bool, Mixed).
    for i in 0..len {
        let (a, b) = (left.cell(i), right.cell(i));
        if matches!(a, Cell::Null) || matches!(b, Cell::Null) {
            continue;
        }
        if cell_test(op, a, b) {
            out.set_true(i);
        } else {
            out.set_false(i);
        }
    }
    out
}

/// Compile a *bound* predicate into a per-row [`Verdict`] over the whole
/// column set. Returns `None` when the expression contains any shape the
/// kernels don't cover (arithmetic, functions, subqueries, `LIKE`,
/// unresolved columns, ...) — the caller then runs the row path, which
/// remains the semantic oracle. Every supported shape is total (never
/// errors), so skipping the row path's short-circuiting is unobservable.
pub fn eval_predicate(expr: &Expr, set: &ColumnSet) -> Option<Verdict> {
    let len = set.len();
    match expr {
        Expr::Literal(v) => Some(match v.truthiness() {
            Some(t) => Verdict::broadcast(len, t),
            None => Verdict::unknown(len),
        }),
        Expr::BoundColumn(i) => Some(col_truthiness(set.column(*i)?, len)),
        Expr::Unary { op: UnaryOp::Not, expr } => Some(eval_predicate(expr, set)?.not()),
        Expr::Binary { op, left, right } => match op {
            BinaryOp::And => {
                let l = eval_predicate(left, set)?;
                let r = eval_predicate(right, set)?;
                Some(l.and(&r))
            }
            BinaryOp::Or => {
                let l = eval_predicate(left, set)?;
                let r = eval_predicate(right, set)?;
                Some(l.or(&r))
            }
            BinaryOp::Eq | BinaryOp::NotEq | BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt
            | BinaryOp::GtEq => {
                let l = operand(left, set)?;
                let r = operand(right, set)?;
                Some(match op {
                    BinaryOp::Eq => cmp_verdict(CmpOp::Eq, &l, &r, len),
                    BinaryOp::NotEq => cmp_verdict(CmpOp::Eq, &l, &r, len).not(),
                    BinaryOp::Lt => cmp_verdict(CmpOp::Lt, &l, &r, len),
                    BinaryOp::GtEq => cmp_verdict(CmpOp::Lt, &l, &r, len).not(),
                    BinaryOp::Gt => cmp_verdict(CmpOp::Gt, &l, &r, len),
                    _ => cmp_verdict(CmpOp::Gt, &l, &r, len).not(),
                })
            }
            _ => None,
        },
        Expr::IsNull { expr, negated } => {
            let op = operand(expr, set)?;
            let mut v = Verdict::new(len);
            for w in v.known.iter_mut() {
                *w = u64::MAX;
            }
            match op {
                Operand::Col(c) => {
                    for (wi, &valid) in c.validity.words().iter().enumerate() {
                        v.truth[wi] = if *negated { valid } else { !valid };
                    }
                }
                Operand::Lit(val) => {
                    if val.is_null() != *negated {
                        v.truth.clone_from(&v.known);
                    }
                }
            }
            v.mask_tail();
            Some(v)
        }
        Expr::Between { expr, low, high, negated } => {
            let e = operand(expr, set)?;
            let lo = operand(low, set)?;
            let hi = operand(high, set)?;
            // `v >= lo AND v <= hi`, as eval lowers it through sql_cmp.
            let ge = cmp_verdict(CmpOp::Lt, &e, &lo, len).not();
            let le = cmp_verdict(CmpOp::Gt, &e, &hi, len).not();
            let v = ge.and(&le);
            Some(if *negated { v.not() } else { v })
        }
        Expr::InList { expr, list, negated } => {
            let e = operand(expr, set)?;
            let mut items = Vec::with_capacity(list.len());
            for item in list {
                match item {
                    Expr::Literal(v) => items.push(v),
                    _ => return None,
                }
            }
            Some(in_list_verdict(&e, &items, *negated, len))
        }
        _ => None,
    }
}

/// Truthiness of a bare column in boolean position: non-zero numerics are
/// TRUE, text parses through `as_f64` (non-numeric text is unknown, like
/// the row path), NULL is unknown.
fn col_truthiness(col: &ColumnVec, len: usize) -> Verdict {
    let mut out = Verdict::new(len);
    match &col.data {
        ColumnData::I64(vals) => {
            for (i, &v) in vals.iter().enumerate() {
                if col.validity.get(i) {
                    if v != 0 {
                        out.set_true(i);
                    } else {
                        out.set_false(i);
                    }
                }
            }
        }
        ColumnData::F64(vals) => {
            for (i, &v) in vals.iter().enumerate() {
                if col.validity.get(i) {
                    if v != 0.0 {
                        out.set_true(i);
                    } else {
                        out.set_false(i);
                    }
                }
            }
        }
        ColumnData::Bool(bits) => {
            // truth = value, known = validity: a 0/1 column's truthiness
            // is the bit itself.
            for (wi, &valid) in col.validity.words().iter().enumerate() {
                out.truth[wi] = bits.words()[wi] & valid;
                out.known[wi] = valid;
            }
        }
        ColumnData::Text { dict, ids, .. } => {
            let lut: Vec<Option<bool>> = dict
                .iter()
                .map(|s| crate::value::parse_text_f64(s).map(|v| v != 0.0))
                .collect();
            for (i, &id) in ids.iter().enumerate() {
                if col.validity.get(i) {
                    match lut[id as usize] {
                        Some(true) => out.set_true(i),
                        Some(false) => out.set_false(i),
                        None => {}
                    }
                }
            }
        }
        ColumnData::Mixed(vals) => {
            for (i, v) in vals.iter().enumerate() {
                if col.validity.get(i) {
                    match v.truthiness() {
                        Some(true) => out.set_true(i),
                        Some(false) => out.set_false(i),
                        None => {}
                    }
                }
            }
        }
    }
    out
}

/// `expr [NOT] IN (literals...)`, reproducing eval's loop exactly: a NULL
/// probe is unknown; a hit answers immediately; a NULL list item makes a
/// miss unknown instead of false.
fn in_list_verdict(e: &Operand<'_>, items: &[&Value], negated: bool, len: usize) -> Verdict {
    let cells: Vec<Cell<'_>> = items.iter().map(|v| value_cell(v)).collect();
    let has_null_item = cells.iter().any(|c| matches!(c, Cell::Null));
    let mut out = Verdict::new(len);
    for i in 0..len {
        let v = e.cell(i);
        if matches!(v, Cell::Null) {
            continue;
        }
        let hit = cells
            .iter()
            .any(|c| !matches!(c, Cell::Null) && cell_eq(v, *c));
        if hit {
            if negated {
                out.set_false(i);
            } else {
                out.set_true(i);
            }
        } else if !has_null_item {
            if negated {
                out.set_true(i);
            } else {
                out.set_false(i);
            }
        }
        // miss with a NULL item: unknown — leave both bits clear.
    }
    out
}

fn operand<'a>(expr: &'a Expr, set: &'a ColumnSet) -> Option<Operand<'a>> {
    match expr {
        Expr::Literal(v) => Some(Operand::Lit(v)),
        Expr::BoundColumn(i) => set.column(*i).map(Operand::Col),
        _ => None,
    }
}

// ---- aggregate kernels -----------------------------------------------------

/// The aggregates with typed-loop kernels. `COUNT(DISTINCT)` has its own
/// ([`count_distinct`]); other `DISTINCT` aggregates, `GROUP_CONCAT` and
/// mixed columns stay on the row path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKernel {
    Count,
    Sum,
    Total,
    Avg,
    Min,
    Max,
}

impl AggKernel {
    /// Map an (uppercased) aggregate name to its kernel.
    pub fn from_name(upper: &str) -> Option<AggKernel> {
        match upper {
            "COUNT" => Some(AggKernel::Count),
            "SUM" => Some(AggKernel::Sum),
            "TOTAL" => Some(AggKernel::Total),
            "AVG" => Some(AggKernel::Avg),
            "MIN" => Some(AggKernel::Min),
            "MAX" => Some(AggKernel::Max),
            _ => None,
        }
    }
}

/// Run one aggregate over the non-NULL cells of `col` at the member row
/// indices of a group, in member order. Returns `None` for `Mixed`
/// columns — the caller falls back to `compute_aggregate`, whose
/// semantics every kernel reproduces exactly: integer `SUM` uses checked
/// addition (`Error::Arithmetic` on overflow), real accumulation happens
/// in member order (float addition is not associative), text cells sum
/// through `as_f64().unwrap_or(0.0)`, `MIN` keeps the first of
/// `sort_cmp`-equal values and `MAX` the last (visible for `0.0`/`-0.0`),
/// and empty inputs yield NULL (`TOTAL`: `0.0`).
pub fn eval_aggregate(
    kind: AggKernel,
    col: &ColumnVec,
    members: &[usize],
) -> Option<Result<Value>> {
    match &col.data {
        ColumnData::Mixed(_) => None,
        ColumnData::I64(vals) => Some(agg_i64(kind, vals, &col.validity, members)),
        ColumnData::Bool(bits) => {
            // Bool columns hold Integer 0/1 cells; reuse the i64 kernel
            // through a per-member load.
            Some(agg_i64_by(kind, |i| bits.get(i) as i64, &col.validity, members))
        }
        ColumnData::F64(vals) => Some(agg_f64(kind, vals, &col.validity, members)),
        ColumnData::Text { dict, ids, .. } => Some(agg_text(kind, dict, ids, &col.validity, members)),
    }
}

/// `COUNT(DISTINCT col)` over the member row indices of a group: the
/// number of distinct grouping codes among the non-NULL cells — the row
/// path's `group_key` dedupe. `None` for `Mixed` columns.
pub(crate) fn count_distinct(col: &ColumnVec, members: &[usize]) -> Option<Value> {
    let n = match &col.data {
        // A dictionary that has taken in-place writes may hold one string
        // under two ids: count the strings behind the distinct ids rather
        // than build `key_codes`' canonical map once per group.
        ColumnData::Text { dict, ids, index: Some(_) } => {
            distinct_codes(&col.validity, members, |i| ids[i] as u64)
                .into_iter()
                .map(|id| &*dict[id as usize])
                .collect::<FxHashSet<&str>>()
                .len()
        }
        _ => {
            let codes = col.key_codes()?;
            distinct_codes(&col.validity, members, |i| codes.at(i)).len()
        }
    };
    Some(Value::Integer(n as i64))
}

fn distinct_codes(
    validity: &Bitmap,
    members: &[usize],
    code: impl Fn(usize) -> u64,
) -> FxHashSet<u64> {
    let mut seen = set_with_capacity(members.len());
    seen.extend(members.iter().filter(|&&i| validity.get(i)).map(|&i| code(i)));
    seen
}

fn agg_i64(kind: AggKernel, vals: &[i64], validity: &Bitmap, members: &[usize]) -> Result<Value> {
    agg_i64_by(kind, |i| vals[i], validity, members)
}

fn agg_i64_by(
    kind: AggKernel,
    load: impl Fn(usize) -> i64,
    validity: &Bitmap,
    members: &[usize],
) -> Result<Value> {
    match kind {
        AggKernel::Count => {
            let n = members.iter().filter(|&&i| validity.get(i)).count();
            Ok(Value::Integer(n as i64))
        }
        AggKernel::Sum => {
            let mut acc: i64 = 0;
            let mut any = false;
            for &i in members {
                if validity.get(i) {
                    any = true;
                    acc = acc
                        .checked_add(load(i))
                        .ok_or_else(|| Error::Arithmetic("integer overflow in SUM".into()))?;
                }
            }
            Ok(if any { Value::Integer(acc) } else { Value::Null })
        }
        AggKernel::Total => {
            let mut acc = 0.0;
            for &i in members {
                if validity.get(i) {
                    acc += load(i) as f64;
                }
            }
            Ok(Value::Real(acc))
        }
        AggKernel::Avg => {
            let (mut acc, mut n) = (0.0, 0usize);
            for &i in members {
                if validity.get(i) {
                    acc += load(i) as f64;
                    n += 1;
                }
            }
            Ok(if n == 0 { Value::Null } else { Value::Real(acc / n as f64) })
        }
        AggKernel::Min => {
            let mut best: Option<i64> = None;
            for &i in members {
                if validity.get(i) {
                    let v = load(i);
                    best = Some(match best {
                        Some(b) if b <= v => b,
                        _ => v,
                    });
                }
            }
            Ok(best.map(Value::Integer).unwrap_or(Value::Null))
        }
        AggKernel::Max => {
            let mut best: Option<i64> = None;
            for &i in members {
                if validity.get(i) {
                    let v = load(i);
                    best = Some(match best {
                        Some(b) if b > v => b,
                        _ => v,
                    });
                }
            }
            Ok(best.map(Value::Integer).unwrap_or(Value::Null))
        }
    }
}

fn agg_f64(kind: AggKernel, vals: &[f64], validity: &Bitmap, members: &[usize]) -> Result<Value> {
    match kind {
        AggKernel::Count => {
            let n = members.iter().filter(|&&i| validity.get(i)).count();
            Ok(Value::Integer(n as i64))
        }
        AggKernel::Sum | AggKernel::Total | AggKernel::Avg => {
            let (mut acc, mut n) = (0.0, 0usize);
            for &i in members {
                if validity.get(i) {
                    acc += vals[i];
                    n += 1;
                }
            }
            Ok(match kind {
                AggKernel::Total => Value::Real(acc),
                _ if n == 0 => Value::Null,
                AggKernel::Avg => Value::Real(acc / n as f64),
                _ => Value::Real(acc),
            })
        }
        AggKernel::Min => {
            // min_by semantics: keep the current value on sort_cmp ties,
            // so the *first* of equals wins (0.0 vs -0.0, equal NaNs).
            let mut best: Option<f64> = None;
            for &i in members {
                if validity.get(i) {
                    let v = vals[i];
                    best = Some(match best {
                        Some(b) if num_cmp(v, b) != Ordering::Less => b,
                        _ => v,
                    });
                }
            }
            Ok(best.map(Value::Real).unwrap_or(Value::Null))
        }
        AggKernel::Max => {
            // max_by semantics: replace on Greater *or* Equal, so the
            // *last* of equals wins.
            let mut best: Option<f64> = None;
            for &i in members {
                if validity.get(i) {
                    let v = vals[i];
                    best = Some(match best {
                        Some(b) if num_cmp(v, b) == Ordering::Less => b,
                        _ => v,
                    });
                }
            }
            Ok(best.map(Value::Real).unwrap_or(Value::Null))
        }
    }
}

fn agg_text(
    kind: AggKernel,
    dict: &[Arc<str>],
    ids: &[u32],
    validity: &Bitmap,
    members: &[usize],
) -> Result<Value> {
    match kind {
        AggKernel::Count => {
            let n = members.iter().filter(|&&i| validity.get(i)).count();
            Ok(Value::Integer(n as i64))
        }
        AggKernel::Sum | AggKernel::Total | AggKernel::Avg => {
            // Text cells are never all-Integer, so SUM takes the float
            // path: `as_f64().unwrap_or(0.0)` per cell. One parse per
            // distinct string via the dictionary.
            let lut: Vec<f64> = dict
                .iter()
                .map(|s| crate::value::parse_text_f64(s).unwrap_or(0.0))
                .collect();
            let (mut acc, mut n) = (0.0, 0usize);
            for &i in members {
                if validity.get(i) {
                    acc += lut[ids[i] as usize];
                    n += 1;
                }
            }
            Ok(match kind {
                AggKernel::Total => Value::Real(acc),
                _ if n == 0 => Value::Null,
                AggKernel::Avg => Value::Real(acc / n as f64),
                _ => Value::Real(acc),
            })
        }
        AggKernel::Min => {
            let mut best: Option<u32> = None;
            for &i in members {
                if validity.get(i) {
                    let id = ids[i];
                    best = Some(match best {
                        Some(b) if dict[b as usize].as_ref() <= dict[id as usize].as_ref() => b,
                        _ => id,
                    });
                }
            }
            Ok(best
                .map(|id| Value::Text(dict[id as usize].clone()))
                .unwrap_or(Value::Null))
        }
        AggKernel::Max => {
            let mut best: Option<u32> = None;
            for &i in members {
                if validity.get(i) {
                    let id = ids[i];
                    best = Some(match best {
                        Some(b) if dict[id as usize].as_ref() < dict[b as usize].as_ref() => b,
                        _ => id,
                    });
                }
            }
            Ok(best
                .map(|id| Value::Text(dict[id as usize].clone()))
                .unwrap_or(Value::Null))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr;

    /// A deliberately nasty value pool: NULLs, 0/1, negative ints, NaN
    /// with a payload, -0.0, infinities, numeric and non-numeric text.
    fn pool() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Integer(0),
            Value::Integer(1),
            Value::Integer(-7),
            Value::Integer(42),
            Value::Real(0.0),
            Value::Real(-0.0),
            Value::Real(2.5),
            Value::Real(f64::from_bits(0x7FF8_0000_DEAD_BEEF)),
            Value::Real(f64::NEG_INFINITY),
            Value::text("alpha"),
            Value::text("42"),
            Value::text("  3.5 "),
            Value::text(""),
        ]
    }

    /// Rows cycling through the pool with different offsets per column,
    /// so each column is type-mixed.
    fn mixed_rows(n: usize, width: usize) -> Vec<Row> {
        let p = pool();
        (0..n)
            .map(|i| {
                let vals: Vec<Value> =
                    (0..width).map(|j| p[(i * 3 + j * 5) % p.len()].clone()).collect();
                vals.into()
            })
            .collect()
    }

    /// Rows where each column is type-stable (exercises the typed
    /// representations): col0 I64 w/ NULLs, col1 F64 w/ specials, col2
    /// Text w/ dups, col3 Bool.
    fn typed_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                let c0 = if i % 5 == 0 { Value::Null } else { Value::Integer(i as i64 - 3) };
                let c1 = match i % 6 {
                    0 => Value::Real(-0.0),
                    1 => Value::Real(f64::from_bits(0x7FF8_0000_DEAD_BEEF)),
                    2 => Value::Null,
                    k => Value::Real(k as f64 * 1.5 - 2.0),
                };
                let c2 = if i % 7 == 3 {
                    Value::Null
                } else {
                    Value::text(["red", "green", "blue", "42"][i % 4])
                };
                let c3 = if i % 4 == 1 { Value::Null } else { Value::Integer((i % 2) as i64) };
                vec![c0, c1, c2, c3].into()
            })
            .collect()
    }

    #[test]
    fn bitmap_tail_bits_stay_zero() {
        let mut b = Bitmap::new_true(67);
        assert_eq!(b.count_ones(), 67);
        assert_eq!(b.words().len(), 2);
        assert_eq!(b.words()[1] >> 3, 0);
        b.set(66, false);
        assert_eq!(b.count_ones(), 66);
        assert!(!b.get(66));
        assert!(b.get(65));
    }

    #[test]
    fn from_rows_round_trips_every_cell() {
        for rows in [mixed_rows(50, 4), typed_rows(64), Vec::new()] {
            let set = ColumnSet::from_rows(&rows, 4);
            assert_eq!(set.len(), rows.len());
            for (i, row) in rows.iter().enumerate() {
                let back = set.materialize_row(i);
                assert_eq!(back.len(), row.len());
                for (a, b) in row.iter().zip(back.iter()) {
                    assert!(value_bits_eq(a, b), "row {i}: {a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn typed_rows_classify_typed() {
        let rows = typed_rows(48);
        let set = ColumnSet::from_rows(&rows, 4);
        assert!(matches!(set.columns[0].data, ColumnData::I64(_)));
        assert!(matches!(set.columns[1].data, ColumnData::F64(_)));
        assert!(matches!(set.columns[2].data, ColumnData::Text { .. }));
        assert!(matches!(set.columns[3].data, ColumnData::Bool(_)));
        let mixed = ColumnSet::from_rows(&mixed_rows(30, 2), 2);
        assert!(matches!(mixed.columns[0].data, ColumnData::Mixed(_)));
    }

    #[test]
    fn text_dictionary_reshares_row_arcs() {
        let rows = typed_rows(40);
        let set = ColumnSet::from_rows(&rows, 4);
        let ColumnData::Text { dict, .. } = &set.columns[2].data else {
            panic!("expected text column");
        };
        assert_eq!(dict.len(), 4);
        // The dictionary entry is the same allocation as the first row
        // that used the string.
        for (i, row) in rows.iter().enumerate() {
            if let Value::Text(s) = &row[2] {
                let v = set.columns[2].value_at(i);
                let Value::Text(back) = v else { panic!("expected text") };
                assert!(Arc::ptr_eq(dict.iter().find(|d| *d == s).unwrap(), &back));
            }
        }
    }

    #[test]
    fn group_and_join_keys_match_value_group_key() {
        for rows in [mixed_rows(40, 3), typed_rows(64)] {
            let w = rows.first().map(|r| r.len()).unwrap_or(0);
            let set = ColumnSet::from_rows(&rows, w);
            for (i, row) in rows.iter().enumerate() {
                for j in 0..w {
                    let want = if row[j].is_null() { None } else { Some(row[j].group_key()) };
                    assert_eq!(set.columns[j].join_key_at(i), want, "({i},{j})");
                    // Key codes: equal exactly where the group keys are.
                    let Some(codes) = set.columns[j].key_codes() else {
                        assert!(matches!(set.columns[j].data, ColumnData::Mixed(_)));
                        continue;
                    };
                    for (k, other) in rows.iter().enumerate() {
                        let same = row[j].group_key() == other[j].group_key();
                        assert_eq!(codes.at(i) == codes.at(k), same, "({i},{j}) vs ({k},{j})");
                    }
                }
            }
        }
    }

    /// Reference evaluation of the kernel-supported predicate subset,
    /// straight through the row-path `Value` methods.
    fn reference_truth(expr: &Expr, row: &Row) -> Option<bool> {
        fn value_of(e: &Expr, row: &Row) -> Value {
            match e {
                Expr::Literal(v) => v.clone(),
                Expr::BoundColumn(i) => row[*i].clone(),
                _ => unreachable!("reference covers operands only"),
            }
        }
        fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
            match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            }
        }
        fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
            match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            }
        }
        match expr {
            Expr::Literal(v) => v.truthiness(),
            Expr::BoundColumn(i) => row[*i].truthiness(),
            Expr::Unary { op: UnaryOp::Not, expr } => reference_truth(expr, row).map(|b| !b),
            Expr::Binary { op: BinaryOp::And, left, right } => {
                and3(reference_truth(left, row), reference_truth(right, row))
            }
            Expr::Binary { op: BinaryOp::Or, left, right } => {
                or3(reference_truth(left, row), reference_truth(right, row))
            }
            Expr::Binary { op, left, right } => {
                let (a, b) = (value_of(left, row), value_of(right, row));
                match op {
                    BinaryOp::Eq => a.sql_eq(&b),
                    BinaryOp::NotEq => a.sql_eq(&b).map(|t| !t),
                    BinaryOp::Lt => a.sql_cmp(&b).map(|o| o == Ordering::Less),
                    BinaryOp::LtEq => a.sql_cmp(&b).map(|o| o != Ordering::Greater),
                    BinaryOp::Gt => a.sql_cmp(&b).map(|o| o == Ordering::Greater),
                    BinaryOp::GtEq => a.sql_cmp(&b).map(|o| o != Ordering::Less),
                    _ => unreachable!(),
                }
            }
            Expr::IsNull { expr, negated } => {
                Some(value_of(expr, row).is_null() != *negated)
            }
            Expr::Between { expr, low, high, negated } => {
                let v = value_of(expr, row);
                let ge = v.sql_cmp(&value_of(low, row)).map(|o| o != Ordering::Less);
                let le = v.sql_cmp(&value_of(high, row)).map(|o| o != Ordering::Greater);
                and3(ge, le).map(|b| b != *negated)
            }
            Expr::InList { expr, list, negated } => {
                let v = value_of(expr, row);
                if v.is_null() {
                    return None;
                }
                let mut saw_null = false;
                for item in list {
                    match v.sql_eq(&value_of(item, row)) {
                        Some(true) => return Some(!*negated),
                        Some(false) => {}
                        None => saw_null = true,
                    }
                }
                if saw_null {
                    None
                } else {
                    Some(*negated)
                }
            }
            _ => unreachable!("unsupported in reference"),
        }
    }

    fn check_predicate(expr: &Expr, rows: &[Row], set: &ColumnSet) {
        let verdict = eval_predicate(expr, set)
            .unwrap_or_else(|| panic!("kernel declined {expr:?}"));
        for (i, row) in rows.iter().enumerate() {
            let want = reference_truth(expr, row);
            assert_eq!(
                verdict.is_known(i),
                want.is_some(),
                "known mismatch at row {i} for {expr:?}"
            );
            assert_eq!(
                verdict.is_true(i),
                want == Some(true),
                "truth mismatch at row {i} for {expr:?}"
            );
        }
        let sel = verdict.selected();
        assert_eq!(sel.len(), verdict.count_true());
        assert!(sel.iter().all(|&i| verdict.is_true(i as usize)));
    }

    #[test]
    fn predicate_kernels_match_row_semantics() {
        let cases: Vec<(Vec<Row>, usize)> =
            vec![(mixed_rows(100, 4), 4), (typed_rows(130), 4), (Vec::new(), 4)];
        let lits = [
            Value::Integer(1),
            Value::Integer(-7),
            Value::Real(0.0),
            Value::Real(f64::NAN),
            Value::text("green"),
            Value::text("42"),
            Value::Null,
        ];
        for (rows, width) in cases {
            let set = ColumnSet::from_rows(&rows, width);
            for j in 0..width {
                let col = Box::new(Expr::BoundColumn(j));
                check_predicate(&Expr::BoundColumn(j), &rows, &set);
                check_predicate(
                    &Expr::Unary { op: UnaryOp::Not, expr: col.clone() },
                    &rows,
                    &set,
                );
                check_predicate(
                    &Expr::IsNull { expr: col.clone(), negated: j % 2 == 0 },
                    &rows,
                    &set,
                );
                for lit in &lits {
                    for op in [
                        BinaryOp::Eq,
                        BinaryOp::NotEq,
                        BinaryOp::Lt,
                        BinaryOp::LtEq,
                        BinaryOp::Gt,
                        BinaryOp::GtEq,
                    ] {
                        check_predicate(
                            &Expr::Binary {
                                op,
                                left: col.clone(),
                                right: Box::new(Expr::Literal(lit.clone())),
                            },
                            &rows,
                            &set,
                        );
                        // literal on the left exercises the mirrored path
                        check_predicate(
                            &Expr::Binary {
                                op,
                                left: Box::new(Expr::Literal(lit.clone())),
                                right: col.clone(),
                            },
                            &rows,
                            &set,
                        );
                    }
                }
                // column-vs-column
                for k in 0..width {
                    check_predicate(
                        &Expr::Binary {
                            op: BinaryOp::Eq,
                            left: col.clone(),
                            right: Box::new(Expr::BoundColumn(k)),
                        },
                        &rows,
                        &set,
                    );
                }
                for negated in [false, true] {
                    check_predicate(
                        &Expr::Between {
                            expr: col.clone(),
                            low: Box::new(Expr::Literal(Value::Integer(-2))),
                            high: Box::new(Expr::Literal(Value::Real(3.0))),
                            negated,
                        },
                        &rows,
                        &set,
                    );
                    check_predicate(
                        &Expr::InList {
                            expr: col.clone(),
                            list: vec![
                                Expr::Literal(Value::Integer(1)),
                                Expr::Literal(Value::text("blue")),
                                Expr::Literal(Value::Real(2.5)),
                            ],
                            negated,
                        },
                        &rows,
                        &set,
                    );
                    // NULL in the list makes misses unknown
                    check_predicate(
                        &Expr::InList {
                            expr: col.clone(),
                            list: vec![
                                Expr::Literal(Value::Integer(1)),
                                Expr::Literal(Value::Null),
                            ],
                            negated,
                        },
                        &rows,
                        &set,
                    );
                }
            }
            // compound AND/OR over two columns
            let p = |j: usize, lit: Value| {
                Box::new(Expr::Binary {
                    op: BinaryOp::Gt,
                    left: Box::new(Expr::BoundColumn(j)),
                    right: Box::new(Expr::Literal(lit)),
                })
            };
            for op in [BinaryOp::And, BinaryOp::Or] {
                check_predicate(
                    &Expr::Binary {
                        op,
                        left: p(0, Value::Integer(0)),
                        right: p(1, Value::Real(0.5)),
                    },
                    &rows,
                    &set,
                );
            }
        }
    }

    #[test]
    fn kernel_declines_unsupported_shapes() {
        let rows = typed_rows(8);
        let set = ColumnSet::from_rows(&rows, 4);
        let unsupported = [
            Expr::Column { table: None, name: "outer_ref".into() },
            Expr::Binary {
                op: BinaryOp::Add,
                left: Box::new(Expr::BoundColumn(0)),
                right: Box::new(Expr::Literal(Value::Integer(1))),
            },
            Expr::Function { name: "abs".into(), args: vec![], distinct: false, star: false },
        ];
        for e in &unsupported {
            assert!(eval_predicate(e, &set).is_none(), "{e:?}");
        }
        // ... and anywhere inside a conjunction
        let nested = Expr::Binary {
            op: BinaryOp::And,
            left: Box::new(Expr::BoundColumn(0)),
            right: Box::new(unsupported[1].clone()),
        };
        assert!(eval_predicate(&nested, &set).is_none());
    }

    /// Row-path aggregate reference: gather non-NULL values in member
    /// order, then reproduce compute_aggregate's arms.
    fn reference_aggregate(kind: AggKernel, col: &[Value], members: &[usize]) -> Result<Value> {
        let vals: Vec<Value> = members
            .iter()
            .map(|&i| col[i].clone())
            .filter(|v| !v.is_null())
            .collect();
        Ok(match kind {
            AggKernel::Count => Value::Integer(vals.len() as i64),
            AggKernel::Sum | AggKernel::Total => {
                if vals.is_empty() {
                    return Ok(if kind == AggKernel::Total {
                        Value::Real(0.0)
                    } else {
                        Value::Null
                    });
                }
                if kind == AggKernel::Sum && vals.iter().all(|v| matches!(v, Value::Integer(_))) {
                    let mut acc: i64 = 0;
                    for v in &vals {
                        if let Value::Integer(i) = v {
                            acc = acc
                                .checked_add(*i)
                                .ok_or_else(|| Error::Arithmetic("integer overflow in SUM".into()))?;
                        }
                    }
                    Value::Integer(acc)
                } else {
                    let mut acc = 0.0;
                    for v in &vals {
                        acc += v.as_f64().unwrap_or(0.0);
                    }
                    Value::Real(acc)
                }
            }
            AggKernel::Avg => {
                if vals.is_empty() {
                    return Ok(Value::Null);
                }
                let sum: f64 = vals.iter().map(|v| v.as_f64().unwrap_or(0.0)).sum();
                Value::Real(sum / vals.len() as f64)
            }
            AggKernel::Min => vals
                .into_iter()
                .min_by(|a, b| a.sort_cmp(b))
                .unwrap_or(Value::Null),
            AggKernel::Max => vals
                .into_iter()
                .max_by(|a, b| a.sort_cmp(b))
                .unwrap_or(Value::Null),
        })
    }

    #[test]
    fn aggregate_kernels_match_row_semantics() {
        let rows = typed_rows(90);
        let set = ColumnSet::from_rows(&rows, 4);
        let member_sets: Vec<Vec<usize>> = vec![
            (0..90).collect(),
            (0..90).step_by(3).collect(),
            vec![5, 4, 3, 2, 1],
            vec![2], // the NULL real row
            vec![],
        ];
        let kinds = [
            AggKernel::Count,
            AggKernel::Sum,
            AggKernel::Total,
            AggKernel::Avg,
            AggKernel::Min,
            AggKernel::Max,
        ];
        for j in 0..4 {
            let cells: Vec<Value> = (0..90).map(|i| set.columns[j].value_at(i)).collect();
            for members in &member_sets {
                let distinct: FxHashSet<GroupKey> = members
                    .iter()
                    .filter(|&&i| !cells[i].is_null())
                    .map(|&i| cells[i].group_key())
                    .collect();
                assert_eq!(
                    count_distinct(&set.columns[j], members),
                    Some(Value::Integer(distinct.len() as i64)),
                    "COUNT(DISTINCT) col {j}"
                );
                for kind in kinds {
                    let got = eval_aggregate(kind, &set.columns[j], members)
                        .expect("typed column has a kernel");
                    let want = reference_aggregate(kind, &cells, members);
                    match (got, want) {
                        (Ok(a), Ok(b)) => {
                            assert!(value_bits_eq(&a, &b), "{kind:?} col {j}: {a:?} vs {b:?}")
                        }
                        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                        (a, b) => panic!("{kind:?} col {j}: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn integer_sum_overflow_is_an_arithmetic_error() {
        let rows: Vec<Row> = vec![
            vec![Value::Integer(i64::MAX)].into(),
            vec![Value::Integer(1)].into(),
        ];
        let set = ColumnSet::from_rows(&rows, 1);
        let got = eval_aggregate(AggKernel::Sum, &set.columns[0], &[0, 1]).unwrap();
        match got {
            Err(Error::Arithmetic(msg)) => assert_eq!(msg, "integer overflow in SUM"),
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn min_max_tie_break_matches_min_by_max_by() {
        // 0.0 and -0.0 are sort_cmp-equal: MIN keeps the first, MAX the
        // last — bit-for-bit what min_by/max_by do on the row path.
        let rows: Vec<Row> = vec![
            vec![Value::Real(-0.0)].into(),
            vec![Value::Real(0.0)].into(),
        ];
        let set = ColumnSet::from_rows(&rows, 1);
        let min = eval_aggregate(AggKernel::Min, &set.columns[0], &[0, 1]).unwrap().unwrap();
        let max = eval_aggregate(AggKernel::Max, &set.columns[0], &[0, 1]).unwrap().unwrap();
        assert!(value_bits_eq(&min, &Value::Real(-0.0)), "{min:?}");
        assert!(value_bits_eq(&max, &Value::Real(0.0)), "{max:?}");
    }
}
