//! E14: NAT Check self-validation — run the tool against NATs with
//! *known* configurations and confirm its verdicts; E15: the §6.3
//! hairpin-pessimism caveat.

use punch_nat::{
    FilteringPolicy, Hairpin, MappingPolicy, NatBehavior, PortAllocation, TcpUnsolicited,
};
use punch_natcheck::check_nat;

/// Seeds the mapping and stride cases are measured at.
const SEEDS: [u64; 5] = [2, 3, 4, 5, 9];

#[test]
fn well_behaved_nat_passes_everything() {
    // Every cone NAT maps one private endpoint to one public endpoint,
    // whatever the seed: consistent, with a zero stride.
    for behavior in [
        NatBehavior::well_behaved(),
        NatBehavior::full_cone(),
        NatBehavior::restricted_cone(),
    ] {
        for seed in SEEDS {
            let report = check_nat(behavior.clone(), seed);
            assert_eq!(
                report.udp_consistent,
                Some(true),
                "{behavior:?} seed {seed}"
            );
            assert_eq!(report.udp_alloc_delta, Some(0), "{behavior:?} seed {seed}");
        }
    }
    let report = check_nat(NatBehavior::well_behaved(), 1);
    assert_eq!(report.udp_hole_punching(), Some(true));
    assert_eq!(
        report.udp_alloc_delta,
        Some(0),
        "cone mapping: one port for both servers"
    );
    assert_eq!(
        report.udp_unsolicited_filtered,
        Some(true),
        "port-restricted filter blocks server 3"
    );
    assert_eq!(report.udp_hairpin, Some(true));
    assert_eq!(report.tcp_hole_punching(), Some(true));
    assert_eq!(
        report.tcp_inbound_syn_passed,
        Some(false),
        "SYN silently dropped"
    );
    assert_eq!(report.tcp_hairpin, Some(true));
}

#[test]
fn symmetric_nat_fails_consistency_checks() {
    let report = check_nat(NatBehavior::symmetric(), 2);
    assert_eq!(report.udp_hole_punching(), Some(false));
    assert_eq!(report.tcp_hole_punching(), Some(false));
    let (o1, o2) = report.udp_public.unwrap();
    assert_ne!(o1, o2, "distinct mappings per server");
    // The default symmetric NAT allocates sequentially, so the measured
    // stride is usable as-is to seed a prediction strategy.
    assert_eq!(
        report.udp_alloc_delta,
        Some(o2.port as i32 - o1.port as i32)
    );
    assert_ne!(report.udp_alloc_delta, Some(0), "symmetric stride is nonzero");

    // A new mapping per server IP or per server endpoint: both are
    // inconsistent, and a sequential allocator shows the §5.1 stride +1
    // at every seed.
    let address_dependent = NatBehavior {
        mapping: MappingPolicy::AddressDependent,
        ..NatBehavior::well_behaved()
    };
    let sequential = NatBehavior::symmetric().with_port_alloc(PortAllocation::Sequential);
    for behavior in [sequential, address_dependent] {
        for seed in SEEDS {
            let report = check_nat(behavior.clone(), seed);
            assert_eq!(
                report.udp_consistent,
                Some(false),
                "{behavior:?} seed {seed}"
            );
            assert_eq!(report.udp_alloc_delta, Some(1), "{behavior:?} seed {seed}");
        }
    }

    // A random allocator is just as inconsistent, but its stride is a
    // different nonzero number at each seed: nothing to predict from.
    let random = NatBehavior::symmetric().with_port_alloc(PortAllocation::Random);
    let mut strides: Vec<i32> = SEEDS
        .iter()
        .map(|&seed| {
            let report = check_nat(random.clone(), seed);
            assert_eq!(report.udp_consistent, Some(false), "random seed {seed}");
            let stride = report.udp_alloc_delta.expect("both servers answered");
            assert_ne!(stride, 0, "random seed {seed}");
            stride
        })
        .collect();
    strides.sort_unstable();
    strides.dedup();
    assert_eq!(
        strides.len(),
        SEEDS.len(),
        "one stride per seed: {strides:?}"
    );
}

#[test]
fn full_cone_shows_no_filtering() {
    let report = check_nat(NatBehavior::full_cone(), 3);
    assert_eq!(report.udp_hole_punching(), Some(true));
    assert_eq!(
        report.udp_unsolicited_filtered,
        Some(false),
        "server 3's reply got through"
    );
    assert_eq!(
        report.tcp_inbound_syn_passed,
        Some(true),
        "unsolicited SYN admitted"
    );
    assert_eq!(report.tcp_hole_punching(), Some(true));
}

#[test]
fn rst_nat_fails_tcp_but_not_udp() {
    let behavior = NatBehavior::well_behaved().with_tcp_unsolicited(TcpUnsolicited::Rst);
    let report = check_nat(behavior, 4);
    assert_eq!(report.udp_hole_punching(), Some(true));
    assert_eq!(report.tcp_consistent, Some(true));
    assert_eq!(
        report.tcp_s3_connect_ok,
        Some(false),
        "server 3 gave up after the RST"
    );
    assert_eq!(report.tcp_hole_punching(), Some(false));
}

#[test]
fn icmp_rejecting_nat_also_fails_tcp_verdict() {
    let behavior = NatBehavior::well_behaved().with_tcp_unsolicited(TcpUnsolicited::IcmpError);
    let report = check_nat(behavior, 5);
    assert_eq!(report.tcp_hole_punching(), Some(false));
}

#[test]
fn no_hairpin_nat_reports_no_hairpin() {
    let behavior = NatBehavior::well_behaved().with_hairpin(Hairpin::None);
    let report = check_nat(behavior, 6);
    assert_eq!(report.udp_hairpin, Some(false));
    assert_eq!(report.tcp_hairpin, Some(false));
    assert_eq!(
        report.udp_hole_punching(),
        Some(true),
        "hairpin does not affect basic punching"
    );
}

#[test]
fn hairpin_filtering_nat_reproduces_the_section_6_3_pessimism() {
    // E15: a NAT that hairpins but treats hairpinned traffic as
    // untrusted. NAT Check's one-sided hairpin test reports "no
    // hairpin", although a full two-way punch (both sides sending) would
    // open the filters and work.
    let behavior = NatBehavior {
        hairpin_filters: true,
        ..NatBehavior::well_behaved()
    };
    assert_eq!(
        behavior.hairpin_udp,
        Hairpin::Full,
        "the NAT genuinely hairpins"
    );
    let report = check_nat(behavior, 7);
    assert_eq!(
        report.udp_hairpin,
        Some(false),
        "NAT Check under-reports hairpin support (§6.3)"
    );
    assert_eq!(report.tcp_hairpin, Some(false));
}

#[test]
fn mangling_nat_corrupts_nat_check_observations() {
    // §6.3's first limitation: NAT Check does not obfuscate payloads, so
    // a payload-mangling NAT rewrites the echoed public address on the
    // way in. Consistency still measures correctly (both echoes are
    // rewritten identically) but the hairpin probe is aimed at a
    // corrupted address and the test under-reports.
    let mut behavior = NatBehavior::well_behaved();
    behavior.mangle_payloads = true;
    let report = check_nat(behavior, 8);
    assert_eq!(report.udp_hole_punching(), Some(true));
    let (o1, _) = report.udp_public.unwrap();
    assert_eq!(
        o1.ip,
        "10.0.0.1".parse::<std::net::Ipv4Addr>().unwrap(),
        "the echoed public address was mangled back into the private one"
    );
    assert_eq!(
        report.udp_hairpin,
        Some(false),
        "hairpin under-reported due to mangling"
    );
}

#[test]
fn address_dependent_filtering_still_reports_filtered() {
    // Restricted cone: server 3's IP was never contacted, so its reply
    // is blocked, same as port-restricted.
    let behavior = NatBehavior {
        filtering: FilteringPolicy::AddressDependent,
        ..NatBehavior::well_behaved()
    };
    let report = check_nat(behavior, 9);
    assert_eq!(report.udp_unsolicited_filtered, Some(true));
    assert_eq!(report.udp_hole_punching(), Some(true));
}

#[test]
fn reports_are_deterministic_per_seed() {
    let a = check_nat(NatBehavior::well_behaved(), 42);
    let b = check_nat(NatBehavior::well_behaved(), 42);
    assert_eq!(a, b);
}
