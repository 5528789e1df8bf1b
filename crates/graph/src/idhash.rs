//! A fast, zero-dependency hasher for node-id keyed maps and sets.
//!
//! `std`'s default SipHash resists hash flooding, which id maps built from
//! the pipeline's own tables do not need, and costs several times more per
//! probe than one folded multiply. [`IdHasher`] mixes each written word
//! with a 64×64→128-bit multiply by an odd constant and folds the halves,
//! so both the low bits (bucket index) and the high bits (control bytes)
//! of the hash depend on every input bit.
//!
//! Use it only for maps that are probed, or whose iteration order never
//! reaches an output: the order of a hashed container is no contract. Its
//! keys are ids from the pipeline's own node and edge tables, never from a
//! network client: a table whose ids are crafted to collide can only slow
//! the job that reads it.

use crate::tables::NodeId;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2⁶⁴ / φ, rounded to odd.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folded-multiply hasher for integer keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.hash ^ x) * u128::from(K);
        self.hash = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`IdHasher`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A map keyed by node id, hashed with [`IdHasher`].
pub type IdMap<V> = HashMap<NodeId, V, IdBuildHasher>;

/// A set of node ids, hashed with [`IdHasher`].
pub type IdSet = HashSet<NodeId, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash_of(id: u64) -> u64 {
        IdBuildHasher::default().hash_one(NodeId(id))
    }

    #[test]
    fn distinct_ids_hash_apart_in_low_and_high_bits() {
        // Strided ids (multiples of 1024) must still spread over buckets.
        let low: std::collections::HashSet<u64> = (0..256u64).map(|i| hash_of(i << 10) & 0xFF).collect();
        let high: std::collections::HashSet<u64> = (0..256u64).map(|i| hash_of(i << 10) >> 57).collect();
        assert!(low.len() > 128, "low bits collapse: {} distinct", low.len());
        assert!(high.len() > 64, "high bits collapse: {} distinct", high.len());
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: IdMap<u32> = IdMap::default();
        let mut s = IdSet::default();
        for i in 0..1000u64 {
            m.insert(NodeId(i * 7), i as u32);
            s.insert(NodeId(i * 7));
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&NodeId(70)), Some(&10));
        assert!(s.contains(&NodeId(7 * 999)) && !s.contains(&NodeId(1)));
    }

    #[test]
    fn byte_writes_match_word_writes() {
        let mut a = IdHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = IdHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }
}
