//! Heap-size arithmetic for the memory account.
//!
//! `std` collections do not say what they allocated, so every
//! `heap_bytes()` in the workspace computes it from the collection's
//! layout: exact for `Vec`, and exact for the table behind a `HashMap`
//! or `HashSet` given its capacity. Every formula is exact: nothing the
//! account counts is a B-tree, whose node fill could only be guessed.
//! `tests/memory_account.rs` holds the sum of the account to a counting
//! allocator, so a wrong formula here fails there.

use std::collections::{HashMap, HashSet};
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
    table_bytes(m.capacity(), size_of::<(K, V)>())
}

/// Bytes of a `HashSet`'s table: a `HashMap` with `()` values.
pub fn hash_set_bytes<T, S>(s: &HashSet<T, S>) -> usize {
    table_bytes(s.capacity(), size_of::<T>())
}

fn table_bytes(capacity: usize, entry: usize) -> usize {
    let buckets = match capacity {
        0 => return 0,
        small @ 1..=7 => small + 1,
        capacity => capacity / 7 * 8,
    };
    (buckets * entry).next_multiple_of(16) + buckets + 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_follow_capacity() {
        assert_eq!(hash_map_bytes(&HashMap::<u32, u32>::new()), 0);
        let mut m: HashMap<u32, u64> = HashMap::with_capacity(100);
        // 100 → 128 buckets of 16 B, 128 control bytes, one group.
        assert_eq!(hash_map_bytes(&m), 128 * 16 + 128 + 16);
        m.insert(1, 1);
        assert_eq!(hash_map_bytes(&m), 128 * 16 + 128 + 16);
    }
}
