//! One multiply-hash step and the map hasher built on it.
//!
//! The hot maps of the workspace are keyed by small integers the process
//! generates itself (page, scan and table ids, group-key values), where
//! std's randomly seeded SipHash costs more than the lookup around it.
//! [`mix`] is one Fx-style step, and [`IdHasher`] folds every word written
//! to it through that step. Neither resists adversarial keys: use them only
//! for keys no client chooses.
//!
//! Users: the id-keyed maps of `scanshare-core` (pool, policies, OPT,
//! backends, ABM) and `scanshare-sim`, and the grouped fold's key hash.
//! `ReplacementPolicy::choose_victims`'s `exclude` set, and the pool buffer
//! that feeds it, stay std `HashSet`s: policies outside the workspace
//! implement that signature. `PolicyRegistry`'s names are chosen by callers.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// One step of a multiplicative (Fx-style) hash: folds `word` into `hash`.
/// The high bits of the result are the well-mixed ones.
#[inline]
pub fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// A [`Hasher`] that folds each written integer into its state with
/// [`mix`]: one multiply per id.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix(self.0, u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.0 = mix(self.0, u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0, n);
    }
}

/// A `HashMap` hashed with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` hashed with [`IdHasher`].
pub type IdHashSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: T) -> u64 {
        let mut hasher = IdHasher::default();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn an_id_costs_one_step() {
        assert_eq!(hash_of(7u64), mix(0, 7));
        assert_eq!(hash_of(7u32), mix(0, 7));
        assert_eq!(hash_of(crate::PageId::new(7)), mix(0, 7));
        assert_ne!(hash_of(7u64), hash_of(8u64));
    }

    #[test]
    fn byte_writes_fold_eight_bytes_at_a_time() {
        let mut hasher = IdHasher::default();
        hasher.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        assert_eq!(hasher.finish(), mix(mix(0, 1), 2));
    }

    #[test]
    fn maps_work_with_id_keys() {
        let mut map: IdHashMap<crate::ScanId, usize> = IdHashMap::default();
        for i in 0..1000 {
            map.insert(crate::ScanId::new(i), i as usize);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map[&crate::ScanId::new(321)], 321);
    }
}
