//! Wiring tests for the topology builders.

use crate::world::{addrs, fig4, fig5, fig6, PeerSetup, WorldBuilder};
use punch_nat::{NatBehavior, NatDevice, FAULT_WELL_BEHAVED};
use punch_net::testutil::SinkDevice;
use punch_net::{Duration, Endpoint, FaultPlan, Packet, SimTime};
use punch_rendezvous::{RendezvousServer, ServerConfig};
use punch_transport::{App, Os, SockEvent};
use std::sync::Arc;

/// Sends one datagram to the rendezvous port at start-up.
struct Pinger;

impl App for Pinger {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        let sock = os.udp_bind(4321).expect("bind");
        let msg = punch_rendezvous::Message::Ping.encode(true);
        os.udp_send(sock, Endpoint::new(addrs::SERVER, 1234), msg)
            .expect("send");
    }

    fn on_event(&mut self, _os: &mut Os<'_, '_>, _ev: SockEvent) {}
}

#[test]
fn fig5_wires_clients_behind_their_nats() {
    let mut sc = fig5(
        1,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        PeerSetup::new(Pinger),
        PeerSetup::new(Pinger),
    );
    sc.world.sim.run_for(Duration::from_secs(1));
    // Each NAT created exactly one mapping (its client's ping).
    for &nat in &sc.world.nats {
        assert_eq!(sc.world.nat(nat).stats().mappings_created, 1);
    }
    // And the server answered both pings (traffic flowed both ways).
    let sent = sc.world.sim.stats().packets_sent;
    assert!(sent >= 4, "pings and pongs crossed the topology: {sent}");
}

#[test]
fn fig4_clients_share_one_nat() {
    let sc = fig4(
        2,
        NatBehavior::well_behaved(),
        PeerSetup::new(Pinger),
        PeerSetup::new(Pinger),
    );
    assert_eq!(sc.world.nats.len(), 1);
    assert_eq!(sc.world.clients.len(), 2);
}

#[test]
fn fig6_nests_nats() {
    let mut sc = fig6(
        3,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        PeerSetup::new(Pinger),
        PeerSetup::new(Pinger),
    );
    assert_eq!(sc.world.nats.len(), 3, "ISP NAT + two consumer NATs");
    sc.world.sim.run_for(Duration::from_secs(1));
    // The ISP NAT translates both consumer NATs' realm addresses.
    let isp = sc.world.nat(sc.world.nats[0]);
    assert_eq!(isp.stats().mappings_created, 2);
    // Consumer NATs each translate their single client.
    assert_eq!(sc.world.nat(sc.world.nats[1]).stats().mappings_created, 1);
    assert_eq!(sc.world.nat(sc.world.nats[2]).stats().mappings_created, 1);
}

#[test]
fn builder_routes_public_clients_and_servers() {
    let mut wb = WorldBuilder::new(4);
    wb.server(
        addrs::SERVER,
        RendezvousServer::new(ServerConfig::default()),
    );
    wb.public_client("99.1.1.1".parse().unwrap(), PeerSetup::new(Pinger));
    let mut world = wb.build();
    world.sim.run_for(Duration::from_secs(1));
    // The ping reached the server and the pong came back: 2 packets each
    // crossing 2 links.
    assert!(world.sim.stats().packets_delivered >= 4);
}

#[test]
fn nat_iface_zero_faces_upstream() {
    // Inject a packet on the NAT's public iface addressed to its public
    // IP: with no mapping it must be counted as blocked — proof iface 0
    // is the public side.
    let mut wb = WorldBuilder::new(5);
    wb.server(
        addrs::SERVER,
        RendezvousServer::new(ServerConfig::default()),
    );
    let n = wb.nat(NatBehavior::well_behaved(), addrs::NAT_A);
    wb.client(addrs::CLIENT_A, n, PeerSetup::new(Pinger));
    let mut world = wb.build();
    let nat = world.nats[0];
    world.sim.run_for(Duration::from_millis(1));
    world.sim.inject(
        nat,
        0,
        Packet::udp(
            "9.9.9.9:9".parse().unwrap(),
            Endpoint::new(addrs::NAT_A, 50000),
            b"x".as_ref(),
        ),
    );
    world.sim.run_for(Duration::from_millis(10));
    assert_eq!(
        world.sim.device::<NatDevice>(nat).stats().inbound_blocked,
        1
    );
}

/// Several NATs built from one shared behaviour: reconfiguring one of
/// them ([`FAULT_WELL_BEHAVED`]) replaces that NAT's profile and never
/// writes through the shared one, so the others keep it.
#[test]
fn a_well_behaved_fault_changes_only_the_nat_it_hits() {
    let profile = Arc::new(NatBehavior::symmetric());
    let mut wb = WorldBuilder::new(9);
    for ip in [addrs::NAT_A, addrs::NAT_B, addrs::ISP_NAT_A] {
        wb.nat(Arc::clone(&profile), ip);
    }
    let mut world = wb.build();
    let nats = world.nats.clone();
    assert_eq!(Arc::strong_count(&profile), 4, "the NATs share one profile");
    let fix = FaultPlan::new().device_fault(SimTime::ZERO, nats[1], FAULT_WELL_BEHAVED);
    world.apply_faults(&fix);
    world.sim.run_for(Duration::from_millis(1));
    assert_eq!(*world.nat(nats[1]).behavior(), NatBehavior::well_behaved());
    for n in [nats[0], nats[2]] {
        assert!(std::ptr::eq(world.nat(n).behavior(), &*profile));
    }
    assert_eq!(*profile, NatBehavior::symmetric());
    assert_eq!(Arc::strong_count(&profile), 3);
}

#[test]
#[should_panic(expected = "parent NAT must be declared first")]
fn nat_behind_requires_existing_parent() {
    let mut wb = WorldBuilder::new(6);
    wb.nat_behind(NatBehavior::well_behaved(), addrs::ISP_NAT_A, 0);
}

#[test]
fn world_accessors_panic_helpfully_on_wrong_type() {
    let mut wb = WorldBuilder::new(7);
    wb.server(
        addrs::SERVER,
        RendezvousServer::new(ServerConfig::default()),
    );
    let world = wb.build();
    let server = world.servers[0];
    // Downcasting the server app to the wrong type panics (not UB).
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = world.app::<Pinger>(server);
    }));
    assert!(result.is_err());
}

#[test]
fn sink_devices_compose_with_builder_nodes() {
    // The builder interoperates with raw punch-net devices added directly
    // to the sim afterwards.
    let mut wb = WorldBuilder::new(8);
    wb.server(
        addrs::SERVER,
        RendezvousServer::new(ServerConfig::default()),
    );
    let mut world = wb.build();
    let extra = world
        .sim
        .add_node("raw-sink", Box::new(SinkDevice::default()));
    world
        .sim
        .connect(world.internet, extra, punch_net::LinkSpec::lan());
    world.sim.run_for(Duration::from_millis(10));
    assert_eq!(world.sim.device::<SinkDevice>(extra).packets.len(), 0);
}

// ---------------------------------------------------------------------
// Chaos shrinker: the pair-removal pass (delta debugging beyond the
// single-removal fixed point).
// ---------------------------------------------------------------------

mod shrinker {
    use crate::chaos::{shrink_with, ChaosFault};

    fn reboots(n: usize) -> Vec<ChaosFault> {
        (0..n)
            .map(|i| ChaosFault::RebootNatA {
                at_ms: 1_000 + i as u64,
            })
            .collect()
    }

    /// A synthetic failure that only reproduces with an *even, nonzero*
    /// number of faults: removing any single fault makes it pass, so
    /// the single-removal pass is stuck at the full schedule; removing
    /// pairs walks it down to the minimal failing pair.
    #[test]
    fn pair_removal_shrinks_past_the_single_removal_fixed_point() {
        let schedule = reboots(6);
        let shrunk = shrink_with(&schedule, |c| c.len() % 2 == 0 && !c.is_empty());
        assert_eq!(shrunk.len(), 2, "pairs must fall 6 -> 4 -> 2: {shrunk:?}");
    }

    /// Single-removal shrinking still works and runs first: a failure
    /// pinned to one specific fault shrinks to exactly that fault.
    #[test]
    fn single_removal_still_reaches_singletons() {
        let schedule = reboots(5);
        let keep = schedule[3];
        let shrunk = shrink_with(&schedule, |c| c.contains(&keep));
        assert_eq!(shrunk, vec![keep]);
    }

    /// A passing schedule comes back untouched.
    #[test]
    fn passing_schedules_are_not_shrunk() {
        let schedule = reboots(4);
        assert_eq!(shrink_with(&schedule, |_| false), schedule);
    }

    /// Coupled decoys: the repro needs fault 0, and faults 1+2 only
    /// cancel each other out jointly — the single pass removes neither,
    /// the pair pass removes both.
    #[test]
    fn coupled_decoys_are_removed_jointly() {
        let schedule = reboots(3);
        let shrunk = shrink_with(&schedule, |c| {
            let has_anchor = c.contains(&schedule[0]);
            let d1 = c.contains(&schedule[1]);
            let d2 = c.contains(&schedule[2]);
            has_anchor && (d1 == d2)
        });
        assert_eq!(shrunk, vec![schedule[0]]);
    }
}
