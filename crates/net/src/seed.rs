//! Seed derivation shared by the engine and the experiment harnesses.
//!
//! Everything random in this workspace flows from one `u64` master seed,
//! and every independent actor — a simulated node, a surveyed NAT
//! device, a mutation stream — needs its own RNG stream that is (a)
//! reproducible from `(master seed, identity)` alone and (b) distinct
//! from every other actor's stream. These helpers centralize that
//! derivation so harness crates stop inventing ad-hoc XOR schemes
//! (which is how seed collisions happen: `a ^ b == b ^ a`).

/// SplitMix64 finalizer: a cheap bijective scrambler on `u64`.
///
/// Because it is a bijection, distinct inputs give distinct outputs —
/// mixing cannot *introduce* collisions, only destroy the arithmetic
/// structure (`seed + 1`, `seed ^ index`, ...) that would otherwise
/// correlate the derived RNG streams.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a hash of a string, for folding textual labels (vendor names,
/// node names) into seed material.
pub fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Derives an independent seed for actor `(label, index)` under `base`.
///
/// The three components are combined through nested [`mix`] calls
/// rather than plain XOR so that swapping label and index material, or
/// shifting an index between two adjacent labels, cannot produce the
/// same stream. Used for per-device survey seeds and per-device
/// mutation RNGs; `punch-net` derives per-node RNGs the same way with
/// the node id as `index`.
pub fn derive_seed(base: u64, label: &str, index: u64) -> u64 {
    mix(mix(base ^ hash_str(label)) ^ mix(index.wrapping_add(1)))
}

#[cfg(test)]
#[expect(clippy::disallowed_types, reason = "the tests only count distinct values; no order is read")]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mix_is_injective_on_a_sample() {
        let mut seen = HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix(i)));
        }
    }

    #[test]
    fn hash_str_separates_similar_labels() {
        let labels = ["Linksys", "Linksys ", "linksys", "D-Link", "DLink", ""];
        let mut seen = HashSet::new();
        for l in labels {
            assert!(seen.insert(hash_str(l)), "collision on {l:?}");
        }
    }

    #[test]
    fn derive_seed_is_stable() {
        assert_eq!(
            derive_seed(2005, "Linksys", 3),
            derive_seed(2005, "Linksys", 3)
        );
    }

    #[test]
    fn derive_seed_distinguishes_label_index_and_base() {
        let a = derive_seed(1, "x", 0);
        assert_ne!(a, derive_seed(2, "x", 0), "base must matter");
        assert_ne!(a, derive_seed(1, "y", 0), "label must matter");
        assert_ne!(a, derive_seed(1, "x", 1), "index must matter");
    }

    #[test]
    fn derive_seed_has_no_collisions_over_a_grid() {
        // A much denser grid than any survey uses: 40 labels x 256
        // indices x 4 bases.
        let mut seen = HashSet::new();
        for base in 0..4u64 {
            for l in 0..40u32 {
                let label = format!("vendor-{l}");
                for i in 0..256u64 {
                    assert!(
                        seen.insert(derive_seed(base, &label, i)),
                        "collision at base={base} label={label} i={i}"
                    );
                }
            }
        }
    }
}
