//! The workspace's one fast, non-cryptographic hasher: the executor's hot
//! hash maps (join build tables, GROUP BY partitions, DISTINCT/compound
//! sets) and the simulated model's knowledge maps all key through it.
//!
//! The standard library's SipHash is DoS-resistant but costs real time per
//! key; every key hashed here is workspace-internal (never an
//! attacker-controlled bucket that outlives a run), so an FxHash-style
//! multiply-xor hash is the right trade. The word mixing mirrors the
//! widely-used `rustc-hash` algorithm; `finish` adds murmur3's `fmix64`
//! finalizer on top.
//!
//! The finalizer is not optional. `hashbrown` picks a key's first bucket
//! from the *low* bits of its hash, and the low bits of a product depend
//! only on the low bits of its factors. The engine hashes integer keys as
//! the bits of `(i as f64)`, whose low bits are zero (the low 38 for every
//! id below 16,384), so a bare multiply sends all of them to one start
//! bucket and every probe walks one chain. `fmix64` makes every input bit
//! reach every output bit; a bare `rotate_left` does not (small integers
//! still share their low bits after it).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Pre-sized [`FxHashMap`].
pub fn map_with_capacity<K, V>(capacity: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

/// Pre-sized [`FxHashSet`].
pub fn set_with_capacity<T>(capacity: usize) -> FxHashSet<T> {
    FxHashSet::with_capacity_and_hasher(capacity, BuildHasherDefault::default())
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash: for each word, `state = (state rotl 5 ^ word) * SEED`; the
/// result is `fmix64(state)`.
#[derive(Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // Tag the remainder length into the always-zero high byte so a
            // short zero-filled tail cannot collide with no tail at all.
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(tail) | ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    // Derived `Hash` impls route signed discriminants through the signed
    // writers; without these overrides they fall back to the generic
    // byte-chunking path.
    #[inline]
    fn write_i8(&mut self, v: i8) {
        self.add(v as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, v: i16) {
        self.add(v as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add(v as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn write_isize(&mut self, v: isize) {
        self.add(v as u64);
    }
}
