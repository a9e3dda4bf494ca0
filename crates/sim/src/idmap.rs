//! A fixed hasher for tables keyed by internal integer ids.
//!
//! Op ids, call ids, node ids and interned name ids are minted by the
//! runtime itself — the ids a peer stamps into a frame too, since every
//! peer is a node of the same simulated deployment — so they cannot be
//! chosen by an adversary to flood a table; the DoS-resistant (and
//! comparatively slow) SipHash behind `std`'s `RandomState` buys nothing
//! for them. [`IdMap`] uses the multiply-rotate hash popularised by
//! Firefox and rustc instead: a couple of instructions per word, and —
//! having no random key — the same table layout in every process, so
//! allocation counts replay exactly for a given seed. Keys that come from
//! outside the program, such as user-chosen names, keep `RandomState`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by internal ids, hashed with [`IdHasher`].
///
/// Construct it with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate word hasher (the "Fx" hash). Fast and deterministic;
/// not resistant to chosen keys, so use it for internal ids only.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

/// Odd multiplier with well-mixed high bits (from the Fx hash).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &byte in chunks.remainder() {
            self.add(u64::from(byte));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    #[test]
    fn hashing_is_fixed_across_builders() {
        let a = BuildHasherDefault::<IdHasher>::default();
        let b = BuildHasherDefault::<IdHasher>::default();
        assert_eq!(a.hash_one(42u64), b.hash_one(42u64));
        assert_ne!(a.hash_one(42u64), a.hash_one(43u64));
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let build = BuildHasherDefault::<IdHasher>::default();
        assert_ne!(
            build.hash_one([0u8; 9].as_slice()),
            build.hash_one([0u8, 0, 0, 0, 0, 0, 0, 0, 1].as_slice())
        );
    }

    #[test]
    fn map_round_trips_tuple_keys() {
        let mut map: IdMap<(u32, u64), &str> = IdMap::default();
        for i in 0..1_000u64 {
            map.insert((i as u32 % 7, i), "v");
        }
        assert_eq!(map.len(), 1_000);
        assert!(map.contains_key(&(3, 997)));
        assert!(!map.contains_key(&(4, 997)));
    }
}
