//! The executor keys cells through one `keyindex::KeyIndex`: a
//! table from each row's `u64` key word to its entries, hashed by the
//! workspace's one hasher, [`swan_pool::hash`], re-exported here under the
//! engine's path. Why it is an FxHash with an `fmix64` finalizer, and why
//! the finalizer is not optional, is documented there; the tests below pin
//! what the index's words need of it.

pub use swan_pool::hash::{map_with_capacity, set_with_capacity, FxHashMap, FxHashSet, FxHasher};

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    #[test]
    fn deterministic_and_spreading() {
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"superhero"), hash(b"superhero"));
        assert_ne!(hash(b"superhero"), hash(b"superherp"));
        assert_ne!(hash(b""), hash(b"\0"));

        // Low collision rate over a small integer domain.
        let mut seen = FxHashSet::default();
        for i in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000, "no collisions on sequential u64s");
    }

    /// How many of a `buckets`-slot table's start buckets (the low bits of
    /// the hash, where `hashbrown` begins probing) `keys` land on.
    fn distinct_starts<K: Hash>(keys: impl Iterator<Item = K>, buckets: usize) -> usize {
        let mut hit = vec![false; buckets];
        for k in keys {
            let mut h = FxHasher::default();
            k.hash(&mut h);
            hit[h.finish() as usize & (buckets - 1)] = true;
        }
        hit.into_iter().filter(|&b| b).count()
    }

    /// Distinct hashes are not enough: a table probes from the low bits,
    /// and the index's numeric words are `f64` bit patterns whose low bits
    /// are all zero. Each word family must reach at least half of the
    /// start buckets of a table it fills to 78 % (a random hash reaches
    /// ≈ 54 %).
    #[test]
    fn numeric_keys_spread_over_start_buckets() {
        use crate::keyindex::mix_key_words;
        let word = |x: f64| x.to_bits();
        for shift in 8..=17 {
            let buckets = 1usize << shift;
            let n = buckets * 78 / 100;
            let families = [
                ("integers", distinct_starts((1..=n).map(|i| word(i as f64)), buckets)),
                ("halves", distinct_starts((1..=n).map(|i| word(i as f64 * 0.5)), buckets)),
                (
                    "two-column words",
                    distinct_starts(
                        (1..=n).map(|i| mix_key_words(word((i / 8) as f64), word((i % 8) as f64))),
                        buckets,
                    ),
                ),
            ];
            for (family, starts) in families {
                assert!(
                    starts * 2 >= buckets,
                    "{family}: {n} keys start at {starts} of {buckets} buckets"
                );
            }
        }
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FxHashMap<String, i32> = map_with_capacity(4);
        m.insert("a".into(), 1);
        assert_eq!(m.get("a"), Some(&1));
        let mut s: FxHashSet<u64> = set_with_capacity(4);
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }
}
