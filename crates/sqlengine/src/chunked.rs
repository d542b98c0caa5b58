//! The chunked copy-on-write vector behind a table's row store and a text
//! column's dictionary.
//!
//! A [`ChunkedVec`] is a `Vec` of `Arc`-shared chunks of [`CHUNK`]
//! entries; every chunk but the last is full, so entry `i` sits at
//! `i / CHUNK`, `i % CHUNK`. Cloning one bumps one refcount per chunk, not
//! one per entry, and a write copies at most the one chunk it lands in:
//! [`ChunkedVec::set`] the chunk of its slot, [`ChunkedVec::push`] the
//! tail. Both go through [`Arc::make_mut`], so a chunk another version
//! still holds is copied before it is written and **a reader holding an
//! older version never sees a patch**. This is the structural sharing of
//! persistent vectors (Bagwell & Rompf, *RRB-Trees: Efficient Immutable
//! Vectors*, 2011) one level deep: entries only ever append at the end,
//! so no relaxed radix is needed.
//!
//! The chunk length is the executor's morsel ([`crate::exec::MORSEL_ROWS`]),
//! so each range `exec::for_each_morsel` hands a loop is exactly one chunk
//! ([`ChunkedVec::morsel`]).

use std::fmt;
use std::ops::{Index, Range};
use std::sync::Arc;

/// Entries per chunk: a constant, one morsel.
pub const CHUNK: usize = crate::exec::MORSEL_ROWS;

/// A vector of `Arc`-shared [`CHUNK`]-entry chunks (see the module doc).
pub struct ChunkedVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> ChunkedVec<T> {
    pub const fn new() -> Self {
        ChunkedVec { chunks: Vec::new(), len: 0 }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i < self.len {
            Some(&self.chunks[i / CHUNK][i % CHUNK])
        } else {
            None
        }
    }

    pub fn iter(&self) -> Iter<'_, T> {
        Iter { chunks: self.chunks.iter(), cur: [].iter(), left: self.len }
    }

    /// The chunks as slices, in order: every one [`CHUNK`] long but the
    /// last, which is never empty.
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = &[T]> + '_ {
        self.chunks.iter().map(|c| c.as_slice())
    }

    /// The entries of `range`, which must lie within one chunk — as every
    /// range `exec::for_each_morsel` produces does.
    #[inline]
    pub fn morsel(&self, range: Range<usize>) -> &[T] {
        if range.is_empty() {
            return &[];
        }
        &self.chunks[range.start / CHUNK][range.start % CHUNK..][..range.len()]
    }

    /// Whether `self` begins with every entry of `prefix`. A chunk the two
    /// share is equal without a look inside; any other pair of entries is
    /// compared by `eq`.
    pub fn starts_with_by(&self, prefix: &Self, eq: impl Fn(&T, &T) -> bool) -> bool {
        prefix.len <= self.len
            && prefix.chunks.iter().zip(&self.chunks).all(|(p, s)| {
                Arc::ptr_eq(p, s) || p.iter().zip(s.iter()).all(|(a, b)| eq(a, b))
            })
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Append one entry, copying the tail chunk first if it is shared.
    pub fn push(&mut self, v: T) {
        match self.chunks.last_mut() {
            Some(tail) if tail.len() < CHUNK => Arc::make_mut(tail).push(v),
            // The first chunk grows as a `Vec` does, so a short vector
            // stays small; later ones are sized whole up front.
            _ => {
                let mut chunk = Vec::with_capacity(if self.len == 0 { 1 } else { CHUNK });
                chunk.push(v);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.len += 1;
    }

    /// Overwrite entry `i`, copying its chunk first if it is shared, and
    /// return the old entry. Panics when `i` is out of bounds.
    pub fn set(&mut self, i: usize, v: T) -> T {
        std::mem::replace(&mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK], v)
    }

    /// Keep the first `len` entries. Whole chunks past the cut are
    /// released; a shared chunk the cut falls inside is copied up to it.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.len {
            return;
        }
        self.chunks.truncate(len.div_ceil(CHUNK));
        let keep = len % CHUNK;
        if let (Some(tail), true) = (self.chunks.last_mut(), keep != 0) {
            match Arc::get_mut(tail) {
                Some(tail) => tail.truncate(keep),
                None => *tail = Arc::new(tail[..keep].to_vec()),
            }
        }
        self.len = len;
    }

    /// Remove the entries at `slots` (strictly ascending, each in bounds).
    /// Chunks before the first removed slot's chunk are kept as they are;
    /// the rest are rebuilt, since every later entry shifts.
    pub fn remove_sorted(&mut self, slots: &[usize]) {
        let Some(&first) = slots.first() else { return };
        let start = first / CHUNK * CHUNK;
        let mut gone = slots.iter().peekable();
        let rest: Vec<T> = (start..self.len)
            .zip(self.iter().skip(start))
            .filter(|(i, _)| gone.next_if_eq(&i).is_none())
            .map(|(_, v)| v.clone())
            .collect();
        self.truncate(start);
        self.extend(rest);
    }

    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len);
        for chunk in &self.chunks {
            out.extend_from_slice(chunk);
        }
        out
    }
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Clone for ChunkedVec<T> {
    /// One refcount bump per chunk.
    fn clone(&self) -> Self {
        ChunkedVec { chunks: self.chunks.clone(), len: self.len }
    }
}

impl<T: Clone> Extend<T> for ChunkedVec<T> {
    /// Fill the tail chunk, then build each further chunk whole before it
    /// is shared.
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let mut iter = iter.into_iter();
        if let Some(tail) = self.chunks.last_mut().filter(|t| t.len() < CHUNK) {
            let before = tail.len();
            let tail = Arc::make_mut(tail);
            tail.extend(iter.by_ref().take(CHUNK - before));
            self.len += tail.len() - before;
        }
        loop {
            let chunk: Vec<T> = iter.by_ref().take(CHUNK).collect();
            if chunk.is_empty() {
                return;
            }
            self.len += chunk.len();
            self.chunks.push(Arc::new(chunk));
        }
    }
}

impl<T: Clone> FromIterator<T> for ChunkedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Self::new();
        out.extend(iter);
        out
    }
}

impl<T: Clone> From<Vec<T>> for ChunkedVec<T> {
    fn from(v: Vec<T>) -> Self {
        v.into_iter().collect()
    }
}

impl<T> Index<usize> for ChunkedVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<T: PartialEq> PartialEq for ChunkedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: fmt::Debug> fmt::Debug for ChunkedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a, T> IntoIterator for &'a ChunkedVec<T> {
    type Item = &'a T;
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

/// The entries of a [`ChunkedVec`] in order, chunk by chunk.
pub struct Iter<'a, T> {
    chunks: std::slice::Iter<'a, Arc<Vec<T>>>,
    cur: std::slice::Iter<'a, T>,
    left: usize,
}

impl<T> Clone for Iter<'_, T> {
    fn clone(&self) -> Self {
        Iter { chunks: self.chunks.clone(), cur: self.cur.clone(), left: self.left }
    }
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    #[inline]
    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(v) = self.cur.next() {
                self.left -= 1;
                return Some(v);
            }
            self.cur = self.chunks.next()?.iter();
        }
    }

    /// Skips whole chunks without visiting their entries, so
    /// `iter().skip(n)` costs O(n / CHUNK).
    fn nth(&mut self, mut n: usize) -> Option<&'a T> {
        loop {
            let here = self.cur.len();
            if n < here {
                self.left -= n + 1;
                return self.cur.nth(n);
            }
            n -= here;
            self.left -= here;
            // Drained first, so running off the end leaves nothing behind.
            self.cur = [].iter();
            self.cur = self.chunks.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every chunk is [`CHUNK`] long but a non-empty last one, and `len`
    /// adds up.
    fn assert_shape<T>(v: &ChunkedVec<T>) {
        let n = v.chunks.len();
        for (k, c) in v.chunks.iter().enumerate() {
            if k + 1 < n {
                assert_eq!(c.len(), CHUNK, "chunk {k} of {n}");
            } else {
                assert!((1..=CHUNK).contains(&c.len()), "tail chunk of {}", c.len());
            }
        }
        assert_eq!(v.chunks.iter().map(|c| c.len()).sum::<usize>(), v.len);
    }

    /// `v` holds exactly `model`, through every read path.
    fn assert_matches(v: &ChunkedVec<u32>, model: &[u32]) {
        assert_shape(v);
        assert_eq!(v.len(), model.len());
        assert_eq!(v.is_empty(), model.is_empty());
        assert_eq!(v.iter().len(), model.len());
        assert!(v.iter().eq(model.iter()));
        assert_eq!(v.to_vec(), model);
        let mut at = 0;
        for chunk in v.chunks() {
            assert_eq!(chunk, &model[at..at + chunk.len()]);
            assert_eq!(v.morsel(at..at + chunk.len()), chunk);
            at += chunk.len();
        }
        assert_eq!(at, model.len());
        for i in [0, CHUNK - 1, CHUNK, model.len() / 2, model.len().saturating_sub(1)] {
            if i < model.len() {
                assert_eq!((v[i], v.get(i)), (model[i], Some(&model[i])));
            }
        }
        assert_eq!(v.get(model.len()), None);
        for k in [0, 1, CHUNK - 1, CHUNK, model.len() / 3, model.len()] {
            let mut it = v.iter();
            assert_eq!(it.nth(k), model.get(k));
            assert_eq!(it.len(), model.len().saturating_sub(k + 1));
            assert!(it.eq(model.iter().skip(k + 1)));
        }
    }

    /// The chunks of `after` that a write reported as untouched are the
    /// very `Arc`s of `before`: positions `0..shared` and, for a `set`,
    /// every position but the written one.
    fn assert_shared(before: &ChunkedVec<u32>, after: &ChunkedVec<u32>, untouched: &[usize]) {
        for &k in untouched {
            assert!(Arc::ptr_eq(&before.chunks[k], &after.chunks[k]), "chunk {k} was copied");
        }
    }

    proptest::proptest! {
        /// Random writes through a few clones of one vector against a `Vec`
        /// model each, across 0-5 chunk boundaries: after every operation
        /// every clone still reads exactly its model (so a write through
        /// one never shows in another), and every chunk the operation did
        /// not touch is still the same `Arc` as before it.
        #[test]
        fn chunked_vec_matches_a_vec_model_and_shares_untouched_chunks(
            start in 0..5 * CHUNK + CHUNK,
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..24),
        ) {
            let first: Vec<u32> = (0..start as u32).collect();
            let mut versions = vec![(ChunkedVec::from(first.clone()), first)];
            assert_matches(&versions[0].0, &versions[0].1);
            let mut fresh = start as u32;
            for (step, &w) in words.iter().enumerate() {
                let pick = (w >> 8) as usize % versions.len();
                let (before, before_model) = versions[pick].clone();
                let (v, model) = &mut versions[pick];
                let len = model.len();
                let arg = (w >> 16) as usize;
                let untouched: Vec<usize> = match w % 6 {
                    0 => {
                        fresh += 1;
                        v.push(fresh);
                        model.push(fresh);
                        (0..len / CHUNK).collect()
                    }
                    1 => {
                        let n = arg % (2 * CHUNK);
                        let more: Vec<u32> = (fresh..fresh + n as u32).collect();
                        fresh += n as u32;
                        v.extend(more.iter().copied());
                        model.extend(&more);
                        (0..len / CHUNK).collect()
                    }
                    2 if len > 0 => {
                        let i = arg % len;
                        fresh += 1;
                        assert_eq!(v.set(i, fresh), model[i]);
                        model[i] = fresh;
                        (0..len.div_ceil(CHUNK)).filter(|&k| k != i / CHUNK).collect()
                    }
                    3 => {
                        let keep = arg % (len + 1);
                        v.truncate(keep);
                        model.truncate(keep);
                        (0..keep / CHUNK).collect()
                    }
                    4 if len > 0 => {
                        // A run of slots from a random point, each kept
                        // or removed by a bit of the word.
                        let from = arg % len;
                        let slots: Vec<usize> = (from..len.min(from + 40))
                            .filter(|&i| i == from || (w >> (i - from)) & 1 == 1)
                            .collect();
                        v.remove_sorted(&slots);
                        for &s in slots.iter().rev() {
                            model.remove(s);
                        }
                        (0..from / CHUNK).collect()
                    }
                    _ => {
                        if versions.len() < 4 {
                            versions.push(versions[pick].clone());
                        }
                        continue;
                    }
                };
                let (after, model) = &versions[pick];
                assert_shared(&before, after, &untouched);
                assert_eq!(
                    after.starts_with_by(&before, |a, b| a == b),
                    model.starts_with(&before_model),
                    "step {step}"
                );
                for (v, model) in &versions {
                    assert_matches(v, model);
                }
            }
        }
    }

    #[test]
    fn starts_with_by_compares_only_unshared_chunks() {
        let base: ChunkedVec<u32> = (0..3 * CHUNK as u32 + 7).collect();
        let mut grown = base.clone();
        grown.extend(0..CHUNK as u32);
        // Shared chunks are never looked into: an `eq` that refuses every
        // pair still passes them.
        assert!(!grown.starts_with_by(&base, |_, _| false), "the copied tail is compared");
        let mut full = base.clone();
        full.truncate(3 * CHUNK);
        let mut longer = full.clone();
        longer.push(1);
        assert!(longer.starts_with_by(&full, |_, _| false));
        assert!(grown.starts_with_by(&base, |a, b| a == b));
        let mut patched = grown.clone();
        patched.set(5, 99);
        assert!(!patched.starts_with_by(&base, |a, b| a == b));
        assert!(!base.starts_with_by(&grown, |a, b| a == b), "longer than the vector");
    }
}
