//! Rendezvous-fleet ownership ring: highest-random-weight (HRW,
//! a.k.a. rendezvous) hashing over the fleet's endpoints.
//!
//! Every server and every client derives the same owner list for a
//! peer id from nothing but the fleet endpoint list — no coordination
//! traffic, no ring state to replicate, and membership changes move
//! only the keys whose owner actually changed. The weight function is
//! built on the workspace's own deterministic mixers
//! ([`punch_net::seed::mix`], a SplitMix64 finalizer), so the mapping
//! is stable across processes, platforms and worker counts.

use punch_net::seed;
use punch_net::Endpoint;

use crate::peer::PeerId;

/// Deterministic HRW weight of `server` for `peer`.
///
/// Mixes the server's full endpoint (ip and port — two fleet members
/// may share an ip) with the peer id through two rounds of the
/// SplitMix64 finalizer. Pure and allocation-free.
#[must_use]
fn weight(server: Endpoint, peer: PeerId) -> u64 {
    let ep = (u64::from(u32::from(server.ip)) << 16) | u64::from(server.port);
    seed::mix(seed::mix(ep) ^ seed::mix(peer.0))
}

/// The `k` fleet members that own `peer`'s registration, ordered by
/// descending HRW weight (ties broken by endpoint order so the list
/// is a unique function of its inputs).
///
/// The first entry is the *primary* owner; clients register with all
/// `k` and servers forward introductions to the owner chain in this
/// order. `k` is clamped to `1..=fleet.len()`; an empty fleet yields
/// an empty list.
#[must_use]
pub fn owners(fleet: &[Endpoint], peer: PeerId, k: usize) -> Vec<Endpoint> {
    let mut ranked: Vec<Endpoint> = fleet.to_vec();
    ranked.sort_by(|a, b| {
        weight(*b, peer)
            .cmp(&weight(*a, peer))
            .then_with(|| a.cmp(b))
    });
    ranked.truncate(k.max(1));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn fleet(n: u16) -> Vec<Endpoint> {
        (0..n)
            .map(|j| {
                Endpoint::new(Ipv4Addr::new(18, 181, 0, 31 + j as u8), 1234)
            })
            .collect()
    }

    #[test]
    fn owners_are_deterministic_and_distinct() {
        let f = fleet(8);
        for id in 0..200u64 {
            let a = owners(&f, PeerId(id), 3);
            let b = owners(&f, PeerId(id), 3);
            assert_eq!(a, b);
            assert_eq!(a.len(), 3);
            let mut dedup = a.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "owners must be distinct servers");
        }
    }

    #[test]
    fn k_is_clamped_to_fleet_bounds() {
        let f = fleet(4);
        assert_eq!(owners(&f, PeerId(7), 0).len(), 1);
        assert_eq!(owners(&f, PeerId(7), 99).len(), 4);
        assert!(owners(&[], PeerId(7), 2).is_empty());
    }

    #[test]
    fn single_server_fleet_always_owns() {
        let f = fleet(1);
        for id in 0..50u64 {
            assert_eq!(owners(&f, PeerId(id), 2), f);
            assert!(owners(&f, PeerId(id), 2).contains(&f[0]));
        }
    }

    #[test]
    fn removing_a_server_only_moves_its_own_keys() {
        // The HRW property: keys not owned by the removed server keep
        // their primary owner.
        let full = fleet(8);
        let removed = full[3];
        let shrunk: Vec<Endpoint> = full.iter().copied().filter(|e| *e != removed).collect();
        for id in 0..500u64 {
            let before = owners(&full, PeerId(id), 1)[0];
            if before != removed {
                assert_eq!(owners(&shrunk, PeerId(id), 1)[0], before);
            }
        }
    }

    #[test]
    fn load_spreads_across_the_fleet() {
        let f = fleet(8);
        let mut counts = vec![0usize; f.len()];
        for id in 0..4000u64 {
            let primary = owners(&f, PeerId(id), 1)[0];
            let idx = f.iter().position(|e| *e == primary).unwrap();
            counts[idx] += 1;
        }
        // 4000 keys over 8 servers: expect 500 each; allow wide slack.
        for (i, c) in counts.iter().enumerate() {
            assert!(
                (250..=750).contains(c),
                "server {i} owns {c} of 4000 keys — distribution badly skewed"
            );
        }
    }

    #[test]
    fn weight_depends_on_port_as_well_as_ip() {
        let a = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 1000);
        let b = Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 1001);
        assert_ne!(weight(a, PeerId(42)), weight(b, PeerId(42)));
    }
}
