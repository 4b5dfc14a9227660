//! Sorted-`Vec` map and set for tables that usually hold a handful of
//! entries, and a fixed-hash map for the few that hold a population.
//!
//! A population-scale world is made of tens of thousands of nodes that
//! each own several tables of one to three entries: a host's sockets, a
//! NAT's mappings, a peer's sessions and armed timers. `BTreeMap`
//! allocates a full 11-slot leaf on the first insert and `HashMap` a
//! hasher state plus a bucket array, so such a table costs several times
//! what it holds. [`FlatMap`] and [`FlatSet`] keep their entries in one
//! `Vec` sorted by key: an empty one allocates nothing, one of up to four
//! entries allocates exactly those, and lookups are a binary search, so a
//! table that does grow (a flooded NAT, a busy server's sockets) still
//! finds a key in `O(log n)`; only insertion and removal in the middle
//! are `O(n)` moves.
//!
//! Iteration is in ascending key order, exactly as `BTreeMap` and
//! `BTreeSet` iterate, which is what lets these replace them (and the
//! order-insensitive `HashMap` uses) without moving any pinned artifact.
//! The API is the subset of the standard maps the call sites use, with
//! the same signatures and return values; `tests/proptest_flat.rs` checks
//! both against the standard collections over arbitrary op sequences.
//!
//! A table that holds a whole population and is only ever looked up is
//! a [`KeyMap`]: the rendezvous server's registrations, 100 000 entries
//! each in the benchmark's `server_storm`, where a `BTreeMap` search is
//! a cache miss per level and a hash probe is one. Its hasher is fixed,
//! so its iteration order depends only on what was inserted and removed,
//! never on the process; what the server emits never depends on that
//! order anyway. Other large tables stay `BTreeMap`: the router's host
//! table (sequential addresses keep its search paths cache-hot), the
//! metrics registry and the server's connections (both iterated in key
//! order).

use crate::seed::mix;
use std::hash::{BuildHasherDefault, Hasher};

/// Inserts `item` at `i`. The first four entries each grow the buffer by
/// exactly one slot: `Vec`'s own first growth is to four, which a table
/// that stops at one entry (most of them) would pay for ever. From the
/// fifth entry on, growth is `Vec`'s amortized doubling.
fn insert_at<T>(entries: &mut Vec<T>, i: usize, item: T) {
    if entries.len() == entries.capacity() && entries.len() < 4 {
        entries.reserve_exact(1);
    }
    entries.insert(i, item);
}

/// Appends `item` by the same growth rule, for per-node buffers that are
/// not tables but are as numerous and as short: a host's outboxes, a
/// peer's undelivered events.
pub fn push<T>(entries: &mut Vec<T>, item: T) {
    insert_at(entries, entries.len(), item);
}

/// A map kept as a `Vec<(K, V)>` sorted by key; see the
/// [module docs](self).
#[derive(Clone, Debug)]
pub struct FlatMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> FlatMap<K, V> {
    /// Creates an empty map; allocates nothing.
    pub const fn new() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates over the values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Keeps only the entries for which `keep` returns true, visiting
    /// them in ascending key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }
}

impl<K: Ord, V> FlatMap<K, V> {
    fn search(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Returns true if `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.search(key).is_ok()
    }

    /// The value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.search(key).ok().map(|i| &self.entries[i].1)
    }

    /// Mutable access to the value stored under `key`, if any.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.search(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Stores `value` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                insert_at(&mut self.entries, i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.search(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// The slot for `key`, for insert-if-absent.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let slot = self.search(&key);
        Entry {
            map: self,
            key,
            slot,
        }
    }
}

/// A [`FlatMap`] slot located by [`FlatMap::entry`].
pub struct Entry<'a, K, V> {
    map: &'a mut FlatMap<K, V>,
    key: K,
    /// `Ok(i)`: present at `i`; `Err(i)`: absent, belongs at `i`.
    slot: Result<usize, usize>,
}

impl<'a, K, V> Entry<'a, K, V> {
    /// The value under the key, inserting `value` first if it is absent.
    pub fn or_insert(self, value: V) -> &'a mut V {
        self.or_insert_with(|| value)
    }

    /// The value under the key, inserting `make()` first if it is absent.
    pub fn or_insert_with(self, make: impl FnOnce() -> V) -> &'a mut V {
        let i = match self.slot {
            Ok(i) => i,
            Err(i) => {
                insert_at(&mut self.map.entries, i, (self.key, make()));
                i
            }
        };
        &mut self.map.entries[i].1
    }
}

/// A set kept as a sorted `Vec<K>`; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct FlatSet<K> {
    keys: Vec<K>,
}

impl<K> Default for FlatSet<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K> FlatSet<K> {
    /// Creates an empty set; allocates nothing.
    pub const fn new() -> Self {
        FlatSet { keys: Vec::new() }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns true if the set holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over the keys in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = &K> {
        self.keys.iter()
    }
}

impl<K: Ord> FlatSet<K> {
    /// Returns true if `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.keys.binary_search(key).is_ok()
    }

    /// Adds `key`; returns true if it was not already present.
    pub fn insert(&mut self, key: K) -> bool {
        match self.keys.binary_search(&key) {
            Ok(_) => false,
            Err(i) => {
                insert_at(&mut self.keys, i, key);
                true
            }
        }
    }

    /// Removes `key`; returns true if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.keys.binary_search(key) {
            Ok(i) => {
                self.keys.remove(i);
                true
            }
            Err(_) => false,
        }
    }
}

/// A hash map with a fixed hasher, for large tables that are looked up
/// and never iterated on an output path; see the [module docs](self).
/// A fixed hasher lets whoever picks the keys pick ones that share a
/// probe sequence, so a `KeyMap` holding client-chosen keys needs a cap
/// on its size (the server's is `max_clients`).
// punch-lint: allow(D002) fixed `MixHasher`, no `RandomState`: iteration order is a function of the insert/remove history, and the tables are only looked up or reduced to a unique-key minimum
pub type KeyMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// The [`KeyMap`] hasher: folds each integer written into it through
/// [`mix`]. Every key type in a `KeyMap` writes one `u64`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = mix(self.0 ^ n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_tables_allocate_exactly_what_they_hold() {
        let mut m = FlatMap::new();
        assert_eq!(m.entries.capacity(), 0);
        for n in 1..=4u32 {
            m.insert(n, n);
            assert_eq!(m.entries.capacity(), n as usize);
        }
        // Past four, `Vec` doubles: a table that keeps growing does not
        // reallocate per insert.
        m.insert(5, 5);
        assert!(m.entries.capacity() >= 8);

        let mut s = FlatSet::new();
        s.insert(7u32);
        assert_eq!(s.keys.capacity(), 1);
    }
}
