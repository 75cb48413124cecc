//! A fast hasher for the simulator's integer-keyed maps.
//!
//! `std`'s default `HashMap` hashes with SipHash-1-3 under a random
//! per-process key. That buys resistance to keys chosen by an attacker,
//! which maps keyed by the simulation's own tags, sequence numbers and
//! addresses do not need, at several times the cost of a multiply. The
//! [`FxHasher`] here is the word-at-a-time rotate-xor-multiply hash of
//! rustc's `FxHash`: one rotate, one xor and one multiply per integer.
//! Its output does not depend on the process, so neither does a map's
//! iteration order (nothing in the simulation relies on that order).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// The multiplier of rustc's `FxHash` (64-bit).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Rotate-xor-multiply hasher for small integer keys (see the module
/// docs). Not resistant to adversarial keys.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn small_keys_hash_apart_and_repeatably() {
        let hashes: FxHashSet<u64> = (0..10_000u64).map(hash).collect();
        assert_eq!(hashes.len(), 10_000, "distinct small integers must not collide");
        assert_eq!(hash((3usize, 4u64)), hash((3usize, 4u64)));
        assert_ne!(hash((3usize, 4u64)), hash((4usize, 3u64)));
        // Byte strings fold whole words, then the tail byte by byte.
        assert_ne!(hash([1u8; 9]), hash([1u8; 8]));
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for k in 0..1_000 {
            m.insert(k * 16, k);
        }
        assert!((0..1_000).all(|k| m.get(&(k * 16)) == Some(&k)));
        assert_eq!(m.remove(&32), Some(2));
        assert_eq!(m.len(), 999);
    }
}
