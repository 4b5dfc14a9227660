//! Adversarial NAT-table workloads: one private host floods a capped
//! mapping table (the ReDAN mapping-exhaustion attack) and we check who
//! pays — the victim (oldest-first eviction, the pinned "attack succeeds
//! when defenses are off" baseline) or the flooder (the defended NAT's
//! per-source quota of 8 and fair eviction).

use punch_nat::{NatBehavior, NatDevice};
use punch_net::{Duration, Endpoint, LinkSpec, Packet, Sim, SimTime};
use punch_transport::{App, HostDevice, Os, SockEvent, StackConfig};

fn ep(s: &str) -> Endpoint {
    s.parse().unwrap()
}

/// Does nothing: public-side sink so outbound packets have a route.
struct Sink;

impl App for Sink {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        os.udp_bind(9000).unwrap();
    }

    fn on_event(&mut self, _os: &mut Os<'_, '_>, _ev: SockEvent) {}
}

/// nat(iface 0 → sink, iface 1 = private side) with the given behaviour.
fn capped_topology(behavior: NatBehavior) -> (Sim, punch_net::NodeId) {
    let mut sim = Sim::new(41);
    let nat = sim.add_node(
        "nat",
        Box::new(NatDevice::new(
            behavior,
            vec!["155.99.25.11".parse().unwrap()],
        )),
    );
    let sink = sim.add_node(
        "sink",
        Box::new(HostDevice::new(
            [18, 181, 0, 31].into(),
            StackConfig::default(),
            Sink,
        )),
    );
    sim.connect(nat, sink, LinkSpec::wan()); // NAT iface 0 = public
    let victim_host = sim.add_node(
        "victim",
        Box::new(HostDevice::new(
            [10, 0, 0, 1].into(),
            StackConfig::default(),
            Sink,
        )),
    );
    sim.connect(nat, victim_host, LinkSpec::lan()); // NAT iface 1 = private
    (sim, nat)
}

/// The victim (10.0.0.1) opens one mapping, then the flooder (10.0.0.99)
/// opens `flood` mappings from distinct source ports.
fn run_flood(sim: &mut Sim, nat: punch_net::NodeId, flood: u16) {
    sim.inject(
        nat,
        1,
        Packet::udp(ep("10.0.0.1:4321"), ep("18.181.0.31:9000"), b"v".as_ref()),
    );
    sim.run_for(Duration::from_millis(100));
    for i in 0..flood {
        sim.inject(
            nat,
            1,
            Packet::udp(
                Endpoint::new([10, 0, 0, 99].into(), 5000 + i),
                ep("18.181.0.31:9000"),
                b"f".as_ref(),
            ),
        );
    }
    sim.run_for(Duration::from_millis(100));
}

fn victim_mapping_live(sim: &Sim, nat: punch_net::NodeId, now: SimTime) -> bool {
    sim.device::<NatDevice>(nat)
        .tables()
        .iter()
        .any(|e| e.private == ep("10.0.0.1:4321") && e.expires_at > now)
}

/// Satellite regression (the "attack succeeds" baseline): with only a
/// table cap and the default oldest-first eviction, a single flooding
/// source starves the victim — its mapping is the oldest, so the flood's
/// fresh allocations push it out, and inbound replies go dark.
#[test]
fn oldest_first_eviction_lets_one_source_starve_the_victim() {
    let (mut sim, nat) = capped_topology(NatBehavior::well_behaved().with_max_mappings(8));
    run_flood(&mut sim, nat, 8);
    let now = sim.now();
    assert!(
        !victim_mapping_live(&sim, nat, now),
        "flood must evict the victim's older mapping under oldest-first"
    );
    let stats = sim.device::<NatDevice>(nat).stats();
    assert!(stats.mappings_evicted >= 1, "cap must have evicted");
    assert_eq!(stats.quota_refused, 0, "no defense engaged");
    // The reply to the victim's session is now unsolicited traffic.
    let blocked_before = stats.inbound_blocked;
    sim.inject(
        nat,
        0,
        Packet::udp(ep("18.181.0.31:9000"), ep("155.99.25.11:62000"), b"r".as_ref()),
    );
    sim.run_for(Duration::from_millis(100));
    assert_eq!(
        sim.device::<NatDevice>(nat).stats().inbound_blocked,
        blocked_before + 1,
        "victim's inbound reply must be dropped after eviction"
    );
}

/// Defense 1: the per-source quota refuses the flood before it fills the
/// table, so the victim's mapping (and its inbound path) survive. The
/// 9-slot table holds exactly the victim and the quota of 8, so without
/// the quota the flood's 9th port would force an eviction.
#[test]
fn per_source_quota_protects_the_victim() {
    let (mut sim, nat) = capped_topology(
        NatBehavior::well_behaved()
            .with_max_mappings(9)
            .defended(),
    );
    run_flood(&mut sim, nat, 12);
    let now = sim.now();
    assert!(victim_mapping_live(&sim, nat, now), "victim keeps its slot");
    let stats = sim.device::<NatDevice>(nat).stats();
    assert!(
        stats.quota_refused >= 4,
        "over-quota allocations must be refused, got {}",
        stats.quota_refused
    );
    assert_eq!(stats.mappings_evicted, 0, "table never filled");
    let passed_before = stats.inbound_passed;
    sim.inject(
        nat,
        0,
        Packet::udp(ep("18.181.0.31:9000"), ep("155.99.25.11:62000"), b"r".as_ref()),
    );
    sim.run_for(Duration::from_millis(100));
    assert_eq!(
        sim.device::<NatDevice>(nat).stats().inbound_passed,
        passed_before + 1,
        "victim's inbound reply must still be delivered"
    );
}

/// Defense 2: fair eviction makes a full table evict the heaviest
/// source's own oldest mapping, so the flood cannibalises itself. The
/// 8-slot table fills before the flooder reaches its quota of 8.
#[test]
fn fair_eviction_makes_the_flood_cannibalise_itself() {
    let (mut sim, nat) = capped_topology(
        NatBehavior::well_behaved()
            .with_max_mappings(8)
            .defended(),
    );
    run_flood(&mut sim, nat, 12);
    let now = sim.now();
    assert!(
        victim_mapping_live(&sim, nat, now),
        "fair eviction must never pick the one-mapping victim"
    );
    let stats = sim.device::<NatDevice>(nat).stats();
    assert!(stats.mappings_evicted >= 4, "flood evicts its own entries");
    sim.inject(
        nat,
        0,
        Packet::udp(ep("18.181.0.31:9000"), ep("155.99.25.11:62000"), b"r".as_ref()),
    );
    sim.run_for(Duration::from_millis(100));
    assert_eq!(
        sim.device::<NatDevice>(nat).stats().inbound_passed,
        stats.inbound_passed + 1,
        "victim's public endpoint still routes"
    );
}
