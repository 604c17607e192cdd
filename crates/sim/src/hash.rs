//! A fixed multiply-rotate hasher for the per-packet maps.
//!
//! The maps on the frame and backhaul paths are keyed by small integers
//! (node ids, source addresses, 48-bit dedup keys) and hashed on every
//! packet. `std`'s SipHash is built to resist adversarial keys, which a
//! simulation never sees; this hasher folds each word in with one
//! rotate, xor and multiply, and rotates the product's mixed high bits
//! down for the table's bucket index. It has no seed, but no output may
//! read a map's iteration order either way: `std`'s `RandomState` already
//! varied it from run to run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiply-rotate hasher. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher(u64);

/// An odd multiplier with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(K);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` under [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn fixed_and_key_sensitive() {
        assert_eq!(hash(7u32), hash(7u32));
        assert_ne!(hash(7u32), hash(8u32));
        // Consecutive small keys land in distinct low bits (bucket index)
        // and distinct top seven bits (the table's tag byte).
        let low: std::collections::HashSet<u64> = (0u32..64).map(|k| hash(k) & 63).collect();
        assert!(low.len() > 32, "{} distinct buckets of 64", low.len());
        let top: std::collections::HashSet<u64> = (0u32..64).map(|k| hash(k) >> 57).collect();
        assert!(top.len() > 32, "{} distinct tags of 64", top.len());
    }

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for k in 0..1000u64 {
            m.insert(k << 16, k);
        }
        assert!((0..1000u64).all(|k| m[&(k << 16)] == k));
    }
}
