//! Sorted-`Vec` map and set for tables that usually hold a handful of
//! entries, an in-place store for the tables and lists that almost never
//! hold more than two or three, and a fixed-hash map for the few tables
//! that hold a population.
//!
//! A population-scale world is made of tens of thousands of nodes that
//! each own several tables of one to three entries: a host's sockets, a
//! NAT's mappings, a peer's sessions and armed timers. `BTreeMap`
//! allocates a full 11-slot leaf on the first insert and `HashMap` a
//! hasher state plus a bucket array, so such a table costs several times
//! what it holds. [`FlatMap`] and [`FlatSet`] keep their entries sorted
//! by key in one [`Store`]. The default store is a `Vec`: an empty one
//! allocates nothing, one of up to four entries allocates exactly those.
//! A table of `Copy` entries that is known to stay tiny (a NAT mapping's
//! filter holes, a host's UDP ports) names an [`Inline`] store instead,
//! whose first `N` entries sit in the table itself, so it allocates
//! nothing until it outgrows them. Either way lookups are a binary
//! search, so a table that does grow (a flooded NAT, a busy server's
//! sockets) still finds a key in `O(log n)`; only insertion and removal
//! in the middle are `O(n)` moves.
//!
//! Iteration is in ascending key order, exactly as `BTreeMap` and
//! `BTreeSet` iterate, which is what lets these replace them (and the
//! order-insensitive `HashMap` uses) without moving any pinned artifact.
//! The API is the subset of the standard maps the call sites use, with
//! the same signatures and return values; `tests/proptest_flat.rs` checks
//! both, on both stores, against the standard collections over arbitrary
//! op sequences.
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
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

/// Where a [`FlatMap`] or [`FlatSet`] keeps its sorted entries: a
/// `Vec` (the default) or an [`Inline`] store. Both deref to the entries
/// as a slice, which is what lookups binary-search.
pub trait Store<T>: Default + DerefMut<Target = [T]> {
    /// Inserts `item` at `i`, shifting the entries after it.
    fn insert_at(&mut self, i: usize, item: T);
    /// Removes and returns the entry at `i`, shifting the entries after it.
    fn remove_at(&mut self, i: usize) -> T;
    /// Keeps only the entries for which `keep` returns true, in order.
    fn retain_mut(&mut self, keep: impl FnMut(&mut T) -> bool);
}

/// The first four entries each grow the buffer by exactly one slot:
/// `Vec`'s own first growth is to four, which a table that stops at one
/// entry (most of them) would pay for ever. From the fifth entry on,
/// growth is `Vec`'s amortized doubling.
impl<T> Store<T> for Vec<T> {
    fn insert_at(&mut self, i: usize, item: T) {
        if self.len() == self.capacity() && self.len() < 4 {
            self.reserve_exact(1);
        }
        self.insert(i, item);
    }

    fn remove_at(&mut self, i: usize) -> T {
        self.remove(i)
    }

    fn retain_mut(&mut self, keep: impl FnMut(&mut T) -> bool) {
        Vec::retain_mut(self, keep);
    }
}

/// Appends `item` by the store's growth rule, for per-node lists that
/// are not tables but are as numerous and as short: a host's outboxes, a
/// peer's undelivered events and home servers, a race's candidates, a
/// node's interfaces.
pub fn push<T>(entries: &mut impl Store<T>, item: T) {
    entries.insert_at(entries.len(), item);
}

/// A list of `Copy` entries whose first `N` sit in place: a per-node
/// table or list that almost always holds one to three entries costs no
/// allocation, no allocator header and no pointer chase. Past `N` the
/// entries spill to a `Vec` that grows as [`push`] grows one, and stay
/// there until the list is emptied; an emptied list's next entry moves
/// it back in place. `N` is at most 255.
///
/// Used directly as a small vector (through [`push`] and the slice it
/// derefs to), and as the store of a [`FlatMap`] or [`FlatSet`].
#[derive(Clone)]
pub struct Inline<T, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// The first `len` of `items` are the entries; the rest are stale
    /// copies, never read.
    Local { len: u8, items: [T; N] },
    /// Past `N` entries, or none yet: an empty `Vec` holds no buffer.
    Heap(Vec<T>),
}

impl<T, const N: usize> Inline<T, N> {
    /// Creates an empty list; allocates nothing.
    pub const fn new() -> Self {
        Inline(Repr::Heap(Vec::new()))
    }
}

impl<T, const N: usize> Default for Inline<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Deref for Inline<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Local { len, items } => &items[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl<T, const N: usize> DerefMut for Inline<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Local { len, items } => &mut items[..usize::from(*len)],
            Repr::Heap(v) => v,
        }
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for Inline<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy, const N: usize> Store<T> for Inline<T, N> {
    fn insert_at(&mut self, i: usize, item: T) {
        const {
            assert!(
                N > 0 && N <= u8::MAX as usize,
                "Inline holds 1 to 255 entries in place"
            )
        };
        match &mut self.0 {
            Repr::Heap(v) if v.is_empty() => {
                self.0 = Repr::Local {
                    len: 1,
                    items: [item; N],
                }
            }
            Repr::Heap(v) => v.insert_at(i, item),
            Repr::Local { len, items } if usize::from(*len) < N => {
                let n = usize::from(*len);
                items.copy_within(i..n, i + 1);
                items[i] = item;
                *len += 1;
            }
            Repr::Local { items, .. } => {
                let mut v = Vec::with_capacity(N + 1);
                v.extend_from_slice(&items[..i]);
                v.push(item);
                v.extend_from_slice(&items[i..]);
                self.0 = Repr::Heap(v);
            }
        }
    }

    fn remove_at(&mut self, i: usize) -> T {
        match &mut self.0 {
            Repr::Local { len, items } => {
                let n = usize::from(*len);
                let item = items[..n][i];
                items.copy_within(i + 1..n, i);
                *len -= 1;
                item
            }
            Repr::Heap(v) => v.remove(i),
        }
    }

    fn retain_mut(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        match &mut self.0 {
            Repr::Local { len, items } => {
                let mut kept = 0;
                for i in 0..usize::from(*len) {
                    if keep(&mut items[i]) {
                        items[kept] = items[i];
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Repr::Heap(v) => v.retain_mut(keep),
        }
    }
}

/// A map kept as `(K, V)` entries sorted by key, in a `Vec` or, for a
/// table that usually holds a handful of `Copy` entries, an [`Inline`]
/// store; see the [module docs](self).
#[derive(Clone, Debug)]
pub struct FlatMap<K, V, S = Vec<(K, V)>> {
    entries: S,
    marker: PhantomData<(K, V)>,
}

impl<K, V, S: Default> Default for FlatMap<K, V, S> {
    fn default() -> Self {
        FlatMap {
            entries: S::default(),
            marker: PhantomData,
        }
    }
}

impl<K, V> FlatMap<K, V> {
    /// Creates an empty `Vec`-backed map; allocates nothing. A map on
    /// another store is made with `default()`.
    pub const fn new() -> Self {
        FlatMap {
            entries: Vec::new(),
            marker: PhantomData,
        }
    }
}

impl<K, V, S: Store<(K, V)>> FlatMap<K, V, S> {
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

impl<K: Ord, V, S: Store<(K, V)>> FlatMap<K, V, S> {
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
                self.entries.insert_at(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.search(key).ok().map(|i| self.entries.remove_at(i).1)
    }

    /// The slot for `key`, for insert-if-absent.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V, S> {
        let slot = self.search(&key);
        Entry {
            map: self,
            key,
            slot,
        }
    }
}

/// A [`FlatMap`] slot located by [`FlatMap::entry`].
pub struct Entry<'a, K, V, S = Vec<(K, V)>> {
    map: &'a mut FlatMap<K, V, S>,
    key: K,
    /// `Ok(i)`: present at `i`; `Err(i)`: absent, belongs at `i`.
    slot: Result<usize, usize>,
}

impl<'a, K, V, S: Store<(K, V)>> Entry<'a, K, V, S> {
    /// The value under the key, inserting `value` first if it is absent.
    pub fn or_insert(self, value: V) -> &'a mut V {
        self.or_insert_with(|| value)
    }

    /// The value under the key, inserting `make()` first if it is absent.
    pub fn or_insert_with(self, make: impl FnOnce() -> V) -> &'a mut V {
        let i = match self.slot {
            Ok(i) => i,
            Err(i) => {
                self.map.entries.insert_at(i, (self.key, make()));
                i
            }
        };
        &mut self.map.entries[i].1
    }
}

/// A set kept as sorted keys, in a `Vec` or an [`Inline`] store; see
/// the [module docs](self).
#[derive(Clone, Debug)]
pub struct FlatSet<K, S = Vec<K>> {
    keys: S,
    marker: PhantomData<K>,
}

impl<K, S: Default> Default for FlatSet<K, S> {
    fn default() -> Self {
        FlatSet {
            keys: S::default(),
            marker: PhantomData,
        }
    }
}

impl<K> FlatSet<K> {
    /// Creates an empty `Vec`-backed set; allocates nothing. A set on
    /// another store is made with `default()`.
    pub const fn new() -> Self {
        FlatSet {
            keys: Vec::new(),
            marker: PhantomData,
        }
    }
}

impl<K, S: Store<K>> FlatSet<K, S> {
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

impl<K: Ord, S: Store<K>> FlatSet<K, S> {
    /// Returns true if `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.keys.binary_search(key).is_ok()
    }

    /// Adds `key`; returns true if it was not already present.
    pub fn insert(&mut self, key: K) -> bool {
        match self.keys.binary_search(&key) {
            Ok(_) => false,
            Err(i) => {
                self.keys.insert_at(i, key);
                true
            }
        }
    }

    /// Removes `key`; returns true if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.keys.binary_search(key) {
            Ok(i) => {
                self.keys.remove_at(i);
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
#[expect(clippy::disallowed_types, reason = "fixed `MixHasher`, no `RandomState`: iteration order is a function of the insert/remove history, and the tables are only looked up or reduced to a unique-key minimum")]
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

    /// The heap buffer an `Inline` holds, if any.
    fn heap_capacity<T, const N: usize>(list: &Inline<T, N>) -> Option<usize> {
        match &list.0 {
            Repr::Local { .. } => None,
            Repr::Heap(v) => Some(v.capacity()),
        }
    }

    #[test]
    fn inline_entries_stay_in_place_until_they_outgrow_it() {
        // Two `u32`s and a length fit beside a `Vec`'s capacity niche.
        assert_eq!(std::mem::size_of::<Inline<u32, 2>>(), 24);

        let mut list: Inline<u32, 2> = Inline::new();
        assert_eq!(heap_capacity(&list), Some(0));
        push(&mut list, 1);
        push(&mut list, 2);
        assert_eq!(heap_capacity(&list), None);
        assert_eq!(&*list, &[1, 2]);
        // The third spills, to exactly what it holds.
        push(&mut list, 3);
        assert_eq!(heap_capacity(&list), Some(3));
        assert_eq!(&*list, &[1, 2, 3]);

        let mut m: FlatMap<u16, u32, Inline<(u16, u32), 2>> = FlatMap::default();
        m.insert(9, 0);
        m.insert(4, 1);
        assert_eq!(heap_capacity(&m.entries), None);
        m.insert(6, 2);
        assert!(m.iter().map(|(k, _)| *k).eq([4, 6, 9]));
        // Emptied, it gives the buffer back at its next entry.
        m.retain(|_, _| false);
        m.insert(1, 1);
        assert_eq!(heap_capacity(&m.entries), None);
        assert_eq!(m.get(&1), Some(&1));
    }
}
