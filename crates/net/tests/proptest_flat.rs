//! Property test: `FlatMap` and `FlatSet` behave exactly like the
//! `BTreeMap` and `BTreeSet` they replaced.
//!
//! The per-node tables that became sorted vectors (a host's sockets, a
//! NAT's mappings, a peer's sessions and timers) are iterated on paths
//! that feed eviction order, reports and pinned artifacts, so "same
//! return values, same length, same key-order iteration" over arbitrary
//! operation sequences is the whole contract.
//!
//! Each contract runs on both stores: the default `Vec` over keys that
//! grow the table into the dozens, and an `Inline` store of three over
//! keys that keep crossing three, so entries spill to the heap and the
//! table empties back in place.

use proptest::prelude::*;
use punch_net::flat::{FlatMap, FlatSet, Inline, Store};
use std::collections::{BTreeMap, BTreeSet};

/// One scripted operation against both maps. Keys come from a small
/// range so sequences revisit them.
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u32),
    Remove(u8),
    Get(u8),
    /// `get_mut` and overwrite if present.
    Set(u8, u32),
    OrInsert(u8, u32),
    OrInsertWith(u8, u32),
    /// `retain` the entries whose value is not a multiple of the argument.
    RetainNotMultipleOf(u32),
}

/// Ops over keys `0..keys`.
fn arb_op(keys: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..keys, any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0..keys).prop_map(Op::Remove),
        (0..keys).prop_map(Op::Get),
        (0..keys, any::<u32>()).prop_map(|(k, v)| Op::Set(k, v)),
        (0..keys, any::<u32>()).prop_map(|(k, v)| Op::OrInsert(k, v)),
        (0..keys, any::<u32>()).prop_map(|(k, v)| Op::OrInsertWith(k, v)),
        (2u32..5).prop_map(Op::RetainNotMultipleOf),
    ]
}

/// Runs `ops` against `flat` and a `BTreeMap`, comparing every return
/// value and the whole map after each op.
fn check_map<S: Store<(u8, u32)>>(mut flat: FlatMap<u8, u32, S>, ops: Vec<Op>) {
    let mut model: BTreeMap<u8, u32> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Insert(k, v) => prop_assert_eq!(flat.insert(k, v), model.insert(k, v)),
            Op::Remove(k) => prop_assert_eq!(flat.remove(&k), model.remove(&k)),
            Op::Get(k) => {
                prop_assert_eq!(flat.get(&k), model.get(&k));
                prop_assert_eq!(flat.contains_key(&k), model.contains_key(&k));
            }
            Op::Set(k, v) => {
                let (f, m) = (flat.get_mut(&k), model.get_mut(&k));
                prop_assert_eq!(f.is_some(), m.is_some());
                if let (Some(f), Some(m)) = (f, m) {
                    *f = v;
                    *m = v;
                }
            }
            Op::OrInsert(k, v) => {
                prop_assert_eq!(*flat.entry(k).or_insert(v), *model.entry(k).or_insert(v));
            }
            Op::OrInsertWith(k, v) => {
                let (mut made_flat, mut made_model) = (false, false);
                let f = *flat.entry(k).or_insert_with(|| {
                    made_flat = true;
                    v
                });
                let m = *model.entry(k).or_insert_with(|| {
                    made_model = true;
                    v
                });
                prop_assert_eq!(f, m);
                prop_assert_eq!(made_flat, made_model);
            }
            Op::RetainNotMultipleOf(n) => {
                // Both visit in key order; record it.
                let (mut seen_flat, mut seen_model) = (Vec::new(), Vec::new());
                flat.retain(|k, v| {
                    seen_flat.push(*k);
                    *v % n != 0
                });
                model.retain(|k, v| {
                    seen_model.push(*k);
                    *v % n != 0
                });
                prop_assert_eq!(seen_flat, seen_model);
            }
        }
        prop_assert_eq!(flat.len(), model.len());
        prop_assert_eq!(flat.is_empty(), model.is_empty());
        prop_assert!(flat.iter().eq(model.iter()));
        prop_assert!(flat.values().eq(model.values()));
    }
}

/// Runs `(op, key)` pairs (0 insert, 1 remove, 2 contains) against
/// `flat` and a `BTreeSet`.
fn check_set<S: Store<u8>>(mut flat: FlatSet<u8, S>, ops: Vec<(u8, u8)>) {
    let mut model: BTreeSet<u8> = BTreeSet::new();
    for (op, k) in ops {
        match op {
            0 => prop_assert_eq!(flat.insert(k), model.insert(k)),
            1 => prop_assert_eq!(flat.remove(&k), model.remove(&k)),
            _ => prop_assert_eq!(flat.contains(&k), model.contains(&k)),
        }
        prop_assert_eq!(flat.len(), model.len());
        prop_assert_eq!(flat.is_empty(), model.is_empty());
        prop_assert!(flat.iter().eq(model.iter()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_map_matches_btree_map(ops in proptest::collection::vec(arb_op(24), 0..200)) {
        check_map(FlatMap::new(), ops);
    }

    #[test]
    fn inline_flat_map_matches_btree_map(ops in proptest::collection::vec(arb_op(6), 0..200)) {
        check_map(FlatMap::<u8, u32, Inline<(u8, u32), 3>>::default(), ops);
    }

    #[test]
    fn flat_set_matches_btree_set(ops in proptest::collection::vec((0u8..3, 0u8..24), 0..200)) {
        check_set(FlatSet::new(), ops);
    }

    #[test]
    fn inline_flat_set_matches_btree_set(ops in proptest::collection::vec((0u8..3, 0u8..6), 0..200)) {
        check_set(FlatSet::<u8, Inline<u8, 3>>::default(), ops);
    }
}
