//! One keyed index for every executor operator that keys on cells: the
//! hash join, GROUP BY, DISTINCT, UNION / EXCEPT / INTERSECT,
//! `COUNT(DISTINCT)`, `IN (SELECT …)` and the keyed scalar subquery
//! ([`crate::exec::KeyedAggregate`]).
//!
//! A row's key is `width` cells (`Keys`), read from a scan's cached
//! columns, from slots of its rows, or from cells evaluated beforehand.
//! A row with a key has one `u64` word: its cells' words (a number's
//! `f64` bits, a text cell's hash — cached per dictionary entry on a
//! column) mixed left to right. `KeyIndex` maps a word to its entries;
//! words collide, so a candidate counts only once its cells compare equal.
//! Cell equality is [`Value::group_key`]'s: `1 = 1.0`, `-0.0 = 0.0`,
//! `'1' <> 1`. What NULL and NaN are is the [`KeyMode`]'s.
//!
//! Two users outside the operators bring their own word and equality
//! ([`KeyIndex::find`] / [`KeyIndex::find_or_insert`]): the batched UDF
//! prefetch (`eval::AnswerTable`) dedupes argument tuples under exact
//! identity, not `=`, and the UDF runner's answer store (`swan_core::udf`)
//! finds a key's entry by its argument cells' rendered text.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::ops::Index;
use std::sync::Arc;

use crate::ast::Expr;
use crate::columnar::{ColumnData, ColumnSet, ColumnVec};
use crate::error::Result;
use crate::eval::{eval, RowCtx};
use crate::exec::{for_each_morsel, ExecCtx, Relation};
use crate::hash::{map_with_capacity, FxHashMap};
use crate::value::{KeyRef, Row, Value};

/// What NULL and NaN key cells are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyMode {
    /// SQL `=`: a NULL or NaN cell has no word, so its row has no key and
    /// matches nothing. The hash join, `IN (SELECT …)` and the keyed
    /// scalar subquery.
    NeverMatch,
    /// Grouping: all NULLs are one key and all NaNs are one key. GROUP BY,
    /// DISTINCT, UNION / EXCEPT / INTERSECT and `COUNT(DISTINCT)`.
    Group,
}

impl KeyMode {
    /// The word of one key cell (`None` is NULL) under this mode; `None`
    /// when the cell has no key. A NULL's word under [`KeyMode::Group`] is
    /// a NaN pattern `real_key_bits` never produces.
    #[inline]
    pub(crate) fn word(self, cell: Option<KeyRef<'_>>) -> Option<u64> {
        let never = self == KeyMode::NeverMatch;
        match cell {
            Some(KeyRef::Num(bits)) if never && f64::from_bits(bits).is_nan() => None,
            Some(key) => Some(key.word()),
            None => (!never).then_some(u64::MAX),
        }
    }
}

/// Rows a key can read the slots of: a slice of rows, or a table's
/// chunked row store.
pub(crate) trait Rows: Index<usize, Output = Row> {}

impl<T: Index<usize, Output = Row> + ?Sized> Rows for T {}

/// The keys of the rows of one input: `width` cells a row, and where to
/// read them.
pub(crate) struct Keys<'a, R: ?Sized = [Row]> {
    cells: Cells<'a, R>,
    width: usize,
    mode: KeyMode,
    /// Equal words are equal keys: one typed numeric column, whose word
    /// is a cell's canonical bits (a NULL's, no number's), so a
    /// candidate needs no cell compare.
    exact: bool,
}

enum Cells<'a, R: ?Sized> {
    /// A scan's cached columns; row `i` is column row `sel[i]` when the
    /// input is a selection of the table.
    Columns(Vec<&'a ColumnVec>, Option<&'a [u32]>),
    /// Slots of the input's rows.
    Slots(&'a R, Cow<'a, [usize]>),
    /// `width` cells a row, evaluated beforehand.
    Evaluated(Cow<'a, [Value]>),
}

impl<'a, R: Rows + ?Sized> Keys<'a, R> {
    /// Row `i`'s key is `rows[i]` at `slots`.
    pub(crate) fn slots(rows: &'a R, slots: impl Into<Cow<'a, [usize]>>, mode: KeyMode) -> Self {
        let slots = slots.into();
        Keys { width: slots.len(), cells: Cells::Slots(rows, slots), mode, exact: false }
    }

    /// Row `i`'s key is `cells[i * width..][..width]`.
    pub(crate) fn cells(cells: impl Into<Cow<'a, [Value]>>, width: usize, mode: KeyMode) -> Self {
        Keys { cells: Cells::Evaluated(cells.into()), width, mode, exact: false }
    }

    /// Row `i`'s key is `cols`' cells `i` (`sel[i]` when given).
    pub(crate) fn columns(cols: Vec<&'a ColumnVec>, sel: Option<&'a [u32]>, mode: KeyMode) -> Self {
        let numeric = |c: &ColumnVec| {
            matches!(c.data, ColumnData::I64(_) | ColumnData::F64(_) | ColumnData::Bool(_))
        };
        let exact = matches!(&cols[..], [col] if numeric(col));
        Keys { width: cols.len(), cells: Cells::Columns(cols, sel), mode, exact }
    }

    /// The keys `exprs` (bound to `scope`'s schema) give rows `0..n` of
    /// `rows`: when every key is a plain column, read from `cols` (the
    /// input's column set, and which table row each input row is) if the
    /// input has one, else from the rows' slots; evaluated here otherwise,
    /// row `i` at position `i` of `scope`'s prefetched calls. Under
    /// [`KeyMode::NeverMatch`] the keys after a cell with no key are not
    /// evaluated: the row matches nothing, and they could raise an error.
    pub(crate) fn of_exprs(
        exprs: &[Expr],
        rows: &'a R,
        n: usize,
        cols: Option<(&'a ColumnSet, Option<&'a [u32]>)>,
        mode: KeyMode,
        ctx: &ExecCtx<'_>,
        scope: &RowCtx<'_>,
    ) -> Result<Self> {
        let slot = |e: &Expr| if let Expr::BoundColumn(i) = e { Some(*i) } else { None };
        if let Some(slots) = exprs.iter().map(slot).collect::<Option<Vec<usize>>>() {
            let columns = cols.and_then(|(set, sel)| {
                let columns: Option<Vec<_>> = slots.iter().map(|&i| set.column(i)).collect();
                Some(Keys::columns(columns?, sel, mode))
            });
            return Ok(columns.unwrap_or_else(|| Keys::slots(rows, slots, mode)));
        }
        let mut vals = Vec::with_capacity(n * exprs.len());
        for_each_morsel(n, ctx, |range| {
            for i in range {
                let rc = scope.at(&rows[i], i);
                let mut keyed = true;
                for e in exprs {
                    let v = if keyed { eval(e, ctx, Some(&rc))? } else { Value::Null };
                    keyed = mode.word(v.key_ref()).is_some();
                    vals.push(v);
                }
            }
            Ok(())
        })?;
        Ok(Keys::cells(vals, exprs.len(), mode))
    }

    /// Key cell `k` of row `i`; `None` for NULL.
    #[inline]
    fn cell(&self, i: usize, k: usize) -> Option<KeyRef<'_>> {
        match &self.cells {
            Cells::Columns(cols, sel) => cols[k].key_ref_at(at(*sel, i)),
            Cells::Slots(rows, slots) => rows[i][slots[k]].key_ref(),
            Cells::Evaluated(vals) => vals[i * self.width + k].key_ref(),
        }
    }

    /// The word of row `i`: its cells' words mixed left to right; `None`
    /// when a cell has no key under the mode, and so the row has none.
    #[inline]
    fn word(&self, i: usize) -> Option<u64> {
        fn mix(mut words: impl Iterator<Item = Option<u64>>) -> Option<u64> {
            let first = words.next().unwrap_or(Some(0))?;
            words.try_fold(first, |acc, word| Some(mix_key_words(acc, word?)))
        }
        match &self.cells {
            Cells::Columns(cols, sel) => {
                let row = at(*sel, i);
                mix(cols.iter().map(|col| col.key_word_at(row, self.mode)))
            }
            _ => mix((0..self.width).map(|k| self.mode.word(self.cell(i, k)))),
        }
    }

    /// Whether row `i` here and row `j` of `other` have equal keys.
    #[inline]
    fn same<P: Rows + ?Sized>(&self, i: usize, other: &Keys<'_, P>, j: usize) -> bool {
        (0..self.width).all(|k| self.cell(i, k) == other.cell(j, k))
    }
}

#[inline]
fn at(sel: Option<&[u32]>, i: usize) -> usize {
    sel.map_or(i, |sel| sel[i] as usize)
}

/// A multi-column key word: `acc`, the word of the columns before, with
/// the next column's `word` folded in by the workspace hasher.
#[inline]
pub(crate) fn mix_key_words(acc: u64, word: u64) -> u64 {
    use std::hash::Hasher;
    let mut h = crate::hash::FxHasher::default();
    h.write_u64(acc);
    h.write_u64(word);
    h.finish()
}

/// Words to entries, each word's in insertion order. After
/// [`KeyIndex::build`] an entry is a row of the keys it was built from;
/// after [`KeyIndex::group`] it is a group, which keeps its first row.
#[derive(Default)]
pub struct KeyIndex {
    /// Each word's first and last entry.
    table: FxHashMap<u64, (u32, u32)>,
    /// Each entry's next entry of the same word, or [`END`].
    next: Vec<u32>,
    /// The first row of each group, in first-seen order.
    pub(crate) firsts: Vec<usize>,
}

/// The end of a word's entries.
const END: u32 = u32::MAX;

impl KeyIndex {
    /// An empty index with room for `n` words and entries.
    pub fn with_capacity(n: usize) -> Self {
        KeyIndex { table: map_with_capacity(n), next: Vec::with_capacity(n), firsts: Vec::new() }
    }

    /// Every row of `keys`' `0..n` that has a key, as its own entry.
    pub(crate) fn build<R: Rows + ?Sized>(
        keys: &Keys<'_, R>,
        n: usize,
        ctx: &ExecCtx<'_>,
    ) -> Result<Self> {
        let (table, next) = (map_with_capacity(n), vec![END; n]);
        let mut index = KeyIndex { table, next, firsts: Vec::new() };
        for_each_morsel(n, ctx, |range| {
            for (i, word) in range.filter_map(|i| Some((i, keys.word(i)?))) {
                index.link(word, i as u32);
            }
            Ok(())
        })?;
        Ok(index)
    }

    /// The rows `rows` of `keys` in groups (see [`KeyIndex::group`]). The
    /// table grows with the groups: sized for every row, it would be as
    /// large as a build's however few groups there are.
    pub(crate) fn grouped<R: Rows + ?Sized>(
        keys: &Keys<'_, R>,
        rows: impl Iterator<Item = usize>,
    ) -> Self {
        let mut index = KeyIndex::default();
        for i in rows {
            index.group(keys, i);
        }
        index
    }

    /// Append entry `e`, whose `next` slot is [`END`], to `word`'s.
    fn link(&mut self, word: u64, e: u32) {
        match self.table.entry(word) {
            Entry::Occupied(mut o) => {
                let last = std::mem::replace(&mut o.get_mut().1, e);
                self.next[last as usize] = e;
            }
            Entry::Vacant(v) => {
                v.insert((e, e));
            }
        }
    }

    /// The entries of `word`, in insertion order.
    fn entries(&self, word: Option<u64>) -> impl Iterator<Item = usize> + '_ {
        let mut e = word.and_then(|w| self.table.get(&w)).map_or(END, |&(first, _)| first);
        std::iter::from_fn(move || {
            let entry = (e != END).then_some(e as usize)?;
            e = self.next[entry];
            Some(entry)
        })
    }

    /// The rows of `keys`, which this index was made from, whose key
    /// equals row `j` of `probe`'s, in row order: each one after a build,
    /// each group's first after grouping.
    pub(crate) fn matches<'s, R: Rows + ?Sized, P: Rows + ?Sized>(
        &'s self,
        keys: &'s Keys<'s, R>,
        probe: &'s Keys<'s, P>,
        j: usize,
    ) -> impl Iterator<Item = usize> + 's {
        let rows = self.entries(probe.word(j)).map(|e| self.firsts.get(e).copied().unwrap_or(e));
        let exact = keys.exact && probe.exact;
        rows.filter(move |&i| exact || keys.same(i, probe, j))
    }

    /// The first entry of `word` that `same` accepts.
    #[inline]
    pub fn find(&self, word: u64, mut same: impl FnMut(usize) -> bool) -> Option<usize> {
        self.entries(Some(word)).find(|&e| same(e))
    }

    /// A new entry of `word`; entries are numbered in insertion order.
    pub fn insert(&mut self, word: u64) -> usize {
        let e = self.next.len();
        self.next.push(END);
        self.link(word, e as u32);
        e
    }

    /// [`find`](Self::find), else [`insert`](Self::insert) (the flag), on
    /// one lookup of `word`.
    pub fn find_or_insert(
        &mut self,
        word: u64,
        mut same: impl FnMut(usize) -> bool,
    ) -> (usize, bool) {
        let e = self.next.len() as u32;
        match self.table.entry(word) {
            Entry::Occupied(mut o) => {
                let (mut at, last) = *o.get();
                while at != END {
                    if same(at as usize) {
                        return (at as usize, false);
                    }
                    at = self.next[at as usize];
                }
                self.next[last as usize] = e;
                o.get_mut().1 = e;
            }
            Entry::Vacant(v) => {
                v.insert((e, e));
            }
        }
        self.next.push(END);
        (e as usize, true)
    }

    /// The group of row `i` of `keys`: the group of the first row with an
    /// equal key, or a new one (the flag). Groups are numbered in
    /// first-seen order. A row without a key (a NULL or NaN cell under
    /// [`KeyMode::NeverMatch`]) has none.
    pub(crate) fn group<R: Rows + ?Sized>(
        &mut self,
        keys: &Keys<'_, R>,
        i: usize,
    ) -> Option<(usize, bool)> {
        let word = keys.word(i)?;
        let firsts = &self.firsts;
        if let Some(g) = self.find(word, |g| keys.exact || keys.same(firsts[g], keys, i)) {
            return Some((g, false));
        }
        let g = self.insert(word);
        self.firsts.push(i);
        Some((g, true))
    }
}

/// A relation's rows keyed on their first `width` cells under
/// [`KeyMode::NeverMatch`] and grouped (a key's first row stands for
/// it), probed with cells evaluated elsewhere.
pub(crate) struct KeyedRows {
    rel: Arc<Relation>,
    slots: Vec<usize>,
    index: KeyIndex,
}

impl KeyedRows {
    pub(crate) fn new(rel: Arc<Relation>, width: usize) -> Self {
        let slots: Vec<usize> = (0..width).collect();
        let keys = Keys::slots(&rel.rows[..], &slots[..], KeyMode::NeverMatch);
        let index = KeyIndex::grouped(&keys, 0..rel.rows.len());
        KeyedRows { rel, slots, index }
    }

    /// The first row whose key equals `cells`.
    pub(crate) fn find(&self, cells: &[Value]) -> Option<&Row> {
        let keys = Keys::slots(&self.rel.rows[..], &self.slots[..], KeyMode::NeverMatch);
        let probe: Keys = Keys::cells(cells, cells.len(), KeyMode::NeverMatch);
        let first = self.index.matches(&keys, &probe, 0).next();
        first.map(|i| &self.rel.rows[i])
    }
}
