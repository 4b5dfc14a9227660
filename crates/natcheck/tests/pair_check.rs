//! The §6.3 paired contention check: detecting NATs that break only when
//! two clients share a private port.

use punch_nat::NatBehavior;
use punch_natcheck::{check_nat, check_nat_pair};

#[test]
fn well_behaved_nat_is_consistent_under_contention() {
    let pair = check_nat_pair(NatBehavior::well_behaved(), 1);
    // Both clients see consistent translation: the NAT stays a cone
    // under private-port contention.
    assert_eq!((pair.first.udp_consistent, pair.second.udp_consistent), (Some(true), Some(true)));
    assert!(!pair.hidden_contention_failure());
}

#[test]
fn contention_breaking_nat_fools_single_client_check_but_not_the_pair() {
    let mut behavior = NatBehavior::well_behaved();
    behavior.contention_breaks_consistency = true;
    // Single-client NAT Check (what Table 1 ran): looks perfectly fine.
    let single = check_nat(behavior.clone(), 2);
    assert_eq!(
        single.udp_hole_punching(),
        Some(true),
        "the §6.3 blind spot"
    );
    // The paired check exposes it.
    let pair = check_nat_pair(behavior, 2);
    assert_eq!(
        pair.first.udp_consistent,
        Some(true),
        "first client still fine"
    );
    assert_eq!(
        pair.second.udp_consistent,
        Some(false),
        "second client degraded to symmetric"
    );
    assert!(pair.hidden_contention_failure());
}

#[test]
fn symmetric_nat_fails_both_clients() {
    let pair = check_nat_pair(NatBehavior::symmetric(), 3);
    assert_eq!(pair.first.udp_consistent, Some(false));
    assert_eq!(pair.second.udp_consistent, Some(false));
    assert!(
        !pair.hidden_contention_failure(),
        "nothing hidden: plainly symmetric"
    );
}

#[test]
fn preserving_allocator_gives_second_client_a_different_port() {
    // Port preservation under contention: the second client cannot get
    // its private port preserved (taken), but translation stays
    // consistent — this must NOT be flagged as contention breakage.
    let behavior =
        NatBehavior::well_behaved().with_port_alloc(punch_nat::PortAllocation::Preserving);
    let pair = check_nat_pair(behavior, 4);
    // Both clients see consistent translation: the NAT stays a cone
    // under private-port contention.
    assert_eq!((pair.first.udp_consistent, pair.second.udp_consistent), (Some(true), Some(true)));
    let (f, _) = pair.first.udp_public.unwrap();
    let (s, _) = pair.second.udp_public.unwrap();
    assert_ne!(f.port, s.port, "distinct public ports for the two clients");
}
