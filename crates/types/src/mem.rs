//! Heap-size arithmetic for the memory account.
//!
//! `std` collections do not say what they allocated, so every
//! `heap_bytes()` in the workspace computes it from the collection's
//! layout: exact for `Vec`, exact for the table behind a `HashMap` given
//! its capacity, an estimate at a stated leaf fill for B-trees.
//! `tests/memory_account.rs` holds the sum of the account to a counting
//! allocator, so a wrong formula here fails there.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::mem::size_of;

/// Bytes of a `Vec`'s buffer (its capacity, not its length).
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Bytes of a `HashMap`'s table (not of what its keys and values own):
/// a power-of-two number of buckets at a 7/8 load limit, one control
/// byte per bucket plus one trailing group of 16. This is hashbrown's
/// layout as this toolchain's `std` builds it on x86-64 (SSE2 groups;
/// the group is 8 bytes on aarch64 and the generic fallback);
/// `tests/memory_account.rs` holds it to what the allocator handed out
/// for one map, so a layout change fails there by name.
pub fn hash_map_bytes<K, V, S>(m: &HashMap<K, V, S>) -> usize {
    let buckets = match m.capacity() {
        0 => return 0,
        small @ 1..=7 => small + 1,
        capacity => capacity / 7 * 8,
    };
    (buckets * size_of::<(K, V)>()).next_multiple_of(16) + buckets + 16
}

/// Estimated bytes of a B-tree of `len` entries of `entry` bytes. Nodes
/// hold up to 11 entries; a leaf is its entries plus a 12-byte header,
/// an internal node twelve child pointers more. A tree of at most 11
/// entries is one leaf whatever its fill; past that, leaves are taken
/// as 6½ of 11 full — an ascending insert splits a leaf 6 / 5 and leaves
/// the left half at 6 for good, uniformly random inserts settle near
/// 7.6, and both the window index (timestamps arrive nearly in order)
/// and the entity postings (snippet ids ascend) sit between the two.
fn btree_bytes(len: usize, entry: usize) -> usize {
    if len == 0 {
        return 0;
    }
    let leaf = (11 * entry + 12).next_multiple_of(8);
    let leaves = if len <= 11 { 1 } else { (2 * len).div_ceil(13) };
    let (mut internal, mut level) = (0, leaves);
    while level > 1 {
        level = (2 * level).div_ceil(13);
        internal += level;
    }
    leaves * leaf + internal * (leaf + 12 * size_of::<usize>())
}

/// Estimated bytes of a `BTreeMap`'s nodes.
pub fn btree_map_bytes<K, V>(m: &BTreeMap<K, V>) -> usize {
    btree_bytes(m.len(), size_of::<K>() + size_of::<V>())
}

/// Estimated bytes of a `BTreeSet`'s nodes.
pub fn btree_set_bytes<T>(s: &BTreeSet<T>) -> usize {
    btree_bytes(s.len(), size_of::<T>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_follow_capacity_and_small_trees_are_one_leaf() {
        assert_eq!(hash_map_bytes(&HashMap::<u32, u32>::new()), 0);
        let mut m: HashMap<u32, u64> = HashMap::with_capacity(100);
        // 100 → 128 buckets of 16 B, 128 control bytes, one group.
        assert_eq!(hash_map_bytes(&m), 128 * 16 + 128 + 16);
        m.insert(1, 1);
        assert_eq!(hash_map_bytes(&m), 128 * 16 + 128 + 16);

        assert_eq!(btree_set_bytes(&BTreeSet::<u32>::new()), 0);
        let eleven: BTreeSet<u32> = (0..11).collect();
        assert_eq!(btree_set_bytes(&eleven), 11 * 4 + 12);
        let twelve: BTreeSet<u32> = (0..12).collect();
        assert!(btree_set_bytes(&twelve) > 2 * btree_set_bytes(&eleven));
    }
}
