//! [`ThinStr`]: a one-word, reference-counted, immutable UTF-8 string —
//! the text of every cell.
//!
//! `Arc<str>` is a fat pointer (address + length), which made every
//! [`Value`](crate::Value) 24 bytes. A `ThinStr` keeps the length in its
//! allocation instead, beside the count — `{refcount, len, bytes}` behind
//! one `NonNull` — so a `Value` is 16 bytes and `Option<ThinStr>` is one
//! word. The same one-word string reference keeps Umbra's value slots at
//! 16 bytes (Neumann & Freitag, CIDR 2020).
//!
//! It behaves as the `str` it holds: `Deref`, `Borrow<str>`, `Hash`, `Eq`,
//! `Ord`, `Debug` and `Display` all delegate to it, so a `ThinStr` hashes,
//! compares and prints exactly as `Arc<str>` did. Cloning is a count bump;
//! the count follows `std::sync::Arc` (a Relaxed increment that aborts past
//! `isize::MAX`, a Release decrement and an Acquire fence before the free).

use std::alloc::{self, Layout};
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::ptr::NonNull;
use std::sync::atomic::{self, AtomicUsize, Ordering};

/// What a `ThinStr` points at; the string's bytes follow it.
#[repr(C)]
struct Header {
    count: AtomicUsize,
    len: usize,
}

/// A shared, immutable UTF-8 string in one word. See the module docs.
pub struct ThinStr {
    ptr: NonNull<Header>,
}

// One word, and `None` costs nothing: `Value` stays 16 bytes on it.
const _: () = assert!(std::mem::size_of::<ThinStr>() == 8);
const _: () = assert!(std::mem::size_of::<Option<ThinStr>>() == 8);

// SAFETY: the pointee is immutable but for its atomic count, and the
// count is kept with `Arc`'s orderings, so handles may move to and be
// shared between threads exactly as `Arc<str>` may.
unsafe impl Send for ThinStr {}
// SAFETY: as for `Send`: `&ThinStr` only reads the immutable bytes and
// bumps the atomic count.
unsafe impl Sync for ThinStr {}

impl ThinStr {
    /// A new allocation holding a copy of `s`, with a count of one.
    pub fn new(s: &str) -> ThinStr {
        let layout = layout(s.len());
        // SAFETY: `layout` is never zero-sized: it holds a `Header`.
        let raw = unsafe { alloc::alloc(layout) }.cast::<Header>();
        let Some(ptr) = NonNull::new(raw) else { alloc::handle_alloc_error(layout) };
        // SAFETY: `ptr` is a fresh allocation of `layout`, aligned for
        // `Header` and `s.len()` bytes longer than one, so both writes
        // are in bounds and overlap nothing.
        unsafe {
            ptr.as_ptr().write(Header { count: AtomicUsize::new(1), len: s.len() });
            std::ptr::copy_nonoverlapping(s.as_ptr(), ptr.as_ptr().add(1).cast::<u8>(), s.len());
        }
        ThinStr { ptr }
    }

    /// The string.
    #[inline]
    pub fn as_str(&self) -> &str {
        // SAFETY: the allocation lives while `self` holds a count; its
        // `len` bytes after the header were copied from a `str` in `new`
        // and are never written again.
        unsafe {
            let bytes = std::slice::from_raw_parts(self.ptr.as_ptr().add(1).cast::<u8>(), self.header().len);
            std::str::from_utf8_unchecked(bytes)
        }
    }

    /// True iff `a` and `b` share one allocation.
    #[inline]
    pub fn ptr_eq(a: &ThinStr, b: &ThinStr) -> bool {
        a.ptr == b.ptr
    }

    /// The number of handles sharing this allocation.
    #[cfg(test)]
    fn strong_count(this: &ThinStr) -> usize {
        this.header().count.load(Ordering::Acquire)
    }

    #[inline]
    fn header(&self) -> &Header {
        // SAFETY: the header stays allocated and initialised while `self`
        // holds a count; it is only ever read, its count atomically.
        unsafe { self.ptr.as_ref() }
    }
}

/// The allocation of a `len`-byte string: the header, then the bytes.
fn layout(len: usize) -> Layout {
    let size = std::mem::size_of::<Header>().checked_add(len).expect("ThinStr length overflow");
    Layout::from_size_align(size, std::mem::align_of::<Header>()).expect("ThinStr length overflow")
}

impl Clone for ThinStr {
    #[inline]
    fn clone(&self) -> Self {
        // Relaxed, as in `Arc::clone`: a new handle is made from an
        // existing one, which already orders the allocation's contents.
        if self.header().count.fetch_add(1, Ordering::Relaxed) > isize::MAX as usize {
            std::process::abort();
        }
        ThinStr { ptr: self.ptr }
    }
}

impl Drop for ThinStr {
    fn drop(&mut self) {
        if self.header().count.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        atomic::fence(Ordering::Acquire);
        let layout = layout(self.header().len);
        // SAFETY: the count reached zero, so this was the last handle, and
        // the fence orders every other handle's reads before the free; the
        // allocation was made in `new` with this same layout.
        unsafe { alloc::dealloc(self.ptr.as_ptr().cast::<u8>(), layout) }
    }
}

impl Deref for ThinStr {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for ThinStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for ThinStr {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for ThinStr {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        Self::ptr_eq(self, other) || self.as_str() == other.as_str()
    }
}

impl Eq for ThinStr {}

impl PartialOrd for ThinStr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ThinStr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for ThinStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for ThinStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for ThinStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl From<&str> for ThinStr {
    fn from(s: &str) -> Self {
        ThinStr::new(s)
    }
}

impl From<String> for ThinStr {
    fn from(s: String) -> Self {
        ThinStr::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FxHasher;
    use proptest::prelude::any;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Pieces a generated string is made of: empty, ASCII, NUL, and
    /// two-, three- and four-byte UTF-8.
    const PIECES: [&str; 8] = ["", "a", "Z", "\0", "é", "漢字", "🦀", " "];

    /// A string of `words`' pieces; one in four is padded out to a
    /// length up to 4 KiB.
    fn string_from(words: &[u64], long: u64) -> String {
        let mut s: String = words.iter().map(|&w| PIECES[(w % 8) as usize]).collect();
        if long.is_multiple_of(4) {
            let target = (long >> 2) as usize % 4097;
            let mut k = long >> 16;
            while s.len() < target {
                s.push_str(PIECES[(k % 8) as usize]);
                k = k.rotate_right(3) ^ 0x9e37_79b9;
            }
        }
        s
    }

    fn hash_with<H: Hasher + Default, T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = H::default();
        v.hash(&mut h);
        h.finish()
    }

    proptest::proptest! {
        /// A `ThinStr` is indistinguishable from an `Arc<str>` of the same
        /// text through every trait the engine uses, and its count follows
        /// every clone and drop.
        #[test]
        fn thin_str_matches_arc_str_and_counts_its_handles(
            words in proptest::collection::vec(any::<u64>(), 0..48),
            others in proptest::collection::vec(any::<u64>(), 0..48),
            long in any::<u64>(),
        ) {
            let a_text = string_from(&words, long);
            // One case in four compares two equal strings.
            let b_text = if long & 0x30 == 0 { a_text.clone() } else { string_from(&others, long >> 7) };
            let (a, b) = (ThinStr::from(a_text.as_str()), ThinStr::from(b_text.clone()));
            let (ra, rb): (Arc<str>, Arc<str>) = (a_text.as_str().into(), b_text.as_str().into());

            assert_eq!(a.as_str(), &*ra);
            assert_eq!(a.len(), ra.len());
            assert_eq!(a == b, ra == rb);
            assert_eq!(a.cmp(&b), ra.cmp(&rb));
            assert_eq!(a.partial_cmp(&b), ra.partial_cmp(&rb));
            assert_eq!(b.cmp(&a), rb.cmp(&ra));
            assert_eq!(hash_with::<FxHasher, _>(&a), hash_with::<FxHasher, _>(&ra));
            assert_eq!(hash_with::<DefaultHasher, _>(&b), hash_with::<DefaultHasher, _>(&rb));
            assert_eq!(hash_with::<FxHasher, _>(&[a.clone(), b.clone()][..]), hash_with::<FxHasher, _>(&[ra.clone(), rb.clone()][..]));
            assert_eq!(format!("{a:?}"), format!("{ra:?}"));
            assert_eq!(format!("{b}"), format!("{rb}"));

            let set: HashSet<ThinStr> = [a.clone(), b.clone()].into_iter().collect();
            let reference: HashSet<Arc<str>> = [ra.clone(), rb.clone()].into_iter().collect();
            assert_eq!(set.len(), reference.len());
            for probe in [a_text.as_str(), b_text.as_str(), "", "\0", "absent"] {
                assert_eq!(set.get(probe).map(ThinStr::as_str), reference.get(probe).map(|s| &**s));
            }
            drop(set);

            // Equal text in a second allocation is equal but not shared.
            let again = ThinStr::new(&a_text);
            assert!(again == a && !ThinStr::ptr_eq(&again, &a));
            assert_eq!(ThinStr::strong_count(&a), 1);
            let clones: Vec<ThinStr> = words.iter().map(|_| a.clone()).collect();
            assert_eq!(ThinStr::strong_count(&a), clones.len() + 1);
            assert!(clones.iter().all(|c| ThinStr::ptr_eq(c, &a) && c.as_str() == a_text));
            let (kept, dropped) = clones.split_at(clones.len() / 2);
            let kept = kept.to_vec();
            drop(dropped.to_vec());
            assert_eq!(ThinStr::strong_count(&a), clones.len() + kept.len() + 1);
            drop(clones);
            assert_eq!(ThinStr::strong_count(&a), kept.len() + 1);
            drop(kept);
            assert_eq!(ThinStr::strong_count(&a), 1);
            assert_eq!(ThinStr::strong_count(&again), 1);
        }
    }

    /// Eight threads clone and drop handles of a few shared strings, hand
    /// clones to each other through a channel, and the last handle of
    /// each string is dropped on whichever thread lets go last: every
    /// read sees the whole string, and every count ends where it began.
    #[test]
    fn eight_threads_clone_and_drop_shared_strings() {
        let shared: Vec<ThinStr> = (0..16).map(|i| ThinStr::from(format!("shared-{i}-{}", "é".repeat(i)))).collect();
        let texts: Vec<String> = shared.iter().map(|s| s.to_string()).collect();
        // Handles that only the threads hold: freed by the last of them.
        let orphans: Vec<ThinStr> = (0..16).map(|i| ThinStr::from(format!("orphan-{i}"))).collect();
        let (tx, rx) = std::sync::mpsc::channel::<ThinStr>();
        let rx = std::sync::Mutex::new(rx);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let (shared, texts, orphans, tx, rx) = (&shared, &texts, orphans.clone(), tx.clone(), &rx);
                scope.spawn(move || {
                    let mut held = orphans;
                    let mut k = t.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                    for step in 0..20_000u64 {
                        k ^= k << 13;
                        k ^= k >> 7;
                        k ^= k << 17;
                        let i = (k % 16) as usize;
                        let s = shared[i].clone();
                        assert_eq!(s.as_str(), texts[i]);
                        match step % 4 {
                            0 => held.push(s),
                            1 => tx.send(s).unwrap(),
                            2 => {
                                if let Ok(got) = rx.lock().unwrap().try_recv() {
                                    assert!(got.starts_with("shared-"));
                                    held.push(got);
                                }
                            }
                            _ => {
                                if !held.is_empty() {
                                    held.swap_remove((k as usize / 16) % held.len());
                                }
                            }
                        }
                    }
                });
            }
            drop(orphans);
        });
        drop(tx);
        drop(rx);
        for (s, text) in shared.iter().zip(&texts) {
            assert_eq!(ThinStr::strong_count(s), 1, "{text}");
            assert_eq!(s.as_str(), text);
        }
    }
}
