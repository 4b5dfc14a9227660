//! End-to-end UDP hole punching across the paper's scenarios
//! (experiments E2, E3, E4, E5, E11 and parts of E9).

use bytes::Bytes;
use holepunch::{
    CandidatePlan, CandidateSource, PeerEvent, PeerId, PredictionStrategy, UdpPeer,
    UdpPeerConfig, Via,
};
use punch_lab::{addrs, fig4, fig5, fig6, PeerSetup, Scenario};
use punch_nat::{Hairpin, MappingPolicy, NatBehavior, PortAllocation, FAULT_WELL_BEHAVED};
use punch_net::{Duration, FaultPlan, SimTime};

const A: PeerId = PeerId(1);
const B: PeerId = PeerId(2);

fn udp_setup(id: PeerId) -> PeerSetup {
    PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(
        id,
        Scenario::server_endpoint(),
    )))
}

/// The §5.1 plan: the paper's spray plus a sequential-delta window.
fn predict_plan(window: u16) -> CandidatePlan {
    CandidatePlan::basic().with_source(CandidateSource::SelfPredicted(
        PredictionStrategy::SequentialDelta { window },
    ))
}

fn udp_setup_cfg(cfg: UdpPeerConfig) -> PeerSetup {
    PeerSetup::new(UdpPeer::new(cfg))
}

/// Registers both clients, starts a punch from A, and runs until both
/// sides establish or `deadline` passes. Returns success.
fn run_punch(sc: &mut Scenario, deadline: SimTime) -> bool {
    let (a, b) = (sc.a, sc.b);
    sc.world.sim.run_for(Duration::from_secs(2)); // registration settles
    sc.world.with_app::<UdpPeer, _>(a, |p, os| p.connect(os, B));
    sc.world
        .run_until_app::<UdpPeer>(a, deadline, |p| p.is_established(B))
        && sc
            .world
            .run_until_app::<UdpPeer>(b, deadline, |p| p.is_established(A))
}

/// Exchanges one payload in each direction and asserts delivery.
fn exchange_data(sc: &mut Scenario, expect_via: Via) {
    let (a, b) = (sc.a, sc.b);
    sc.world
        .with_app::<UdpPeer, _>(a, |p, os| p.send(os, B, Bytes::from_static(b"from-a")));
    sc.world
        .with_app::<UdpPeer, _>(b, |p, os| p.send(os, A, Bytes::from_static(b"from-b")));
    sc.world.sim.run_for(Duration::from_secs(2));
    let evs_a = sc.world.with_app::<UdpPeer, _>(a, |p, _| p.take_events());
    let evs_b = sc.world.with_app::<UdpPeer, _>(b, |p, _| p.take_events());
    assert!(
        evs_a.iter().any(|e| matches!(e, PeerEvent::Data { peer, data, via } if *peer == B && data.as_ref() == b"from-b" && *via == expect_via)),
        "A events: {evs_a:?}"
    );
    assert!(
        evs_b.iter().any(|e| matches!(e, PeerEvent::Data { peer, data, via } if *peer == A && data.as_ref() == b"from-a" && *via == expect_via)),
        "B events: {evs_b:?}"
    );
}

#[test]
fn fig5_different_nats_punches_via_public_endpoints() {
    let mut sc = fig5(
        1,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        udp_setup(A),
        udp_setup(B),
    );
    assert!(run_punch(&mut sc, SimTime::from_secs(30)));
    // Locked-in remotes must be the NAT public endpoints, not private.
    let remote_a = sc.world.app::<UdpPeer>(sc.a).session_remote(B).unwrap();
    let remote_b = sc.world.app::<UdpPeer>(sc.b).session_remote(A).unwrap();
    assert_eq!(remote_a.ip, addrs::NAT_B, "A talks to B's public mapping");
    assert_eq!(remote_b.ip, addrs::NAT_A);
    exchange_data(&mut sc, Via::Direct);
}

#[test]
fn fig5_survives_packet_loss() {
    // 15% loss on every link (≈39% per 3-hop path): registration retries,
    // re-requested introductions, and probe volleys must still converge
    // given a realistic volley budget.
    let cfg = |id| {
        let mut c = UdpPeerConfig::new(id, Scenario::server_endpoint());
        c.punch.max_attempts = 30;
        c
    };
    let mut wb = punch_lab::WorldBuilder::new(7)
        .wan(punch_net::LinkSpec::wan().with_loss(0.15))
        .lan(punch_net::LinkSpec::lan().with_loss(0.15));
    wb.server(
        addrs::SERVER,
        punch_rendezvous::RendezvousServer::new(Default::default()),
    );
    let na = wb.nat(NatBehavior::well_behaved(), addrs::NAT_A);
    let nb = wb.nat(NatBehavior::well_behaved(), addrs::NAT_B);
    wb.client(addrs::CLIENT_A, na, udp_setup_cfg(cfg(A)));
    wb.client(addrs::CLIENT_B, nb, udp_setup_cfg(cfg(B)));
    let world = wb.build();
    let mut sc = Scenario {
        server: world.servers[0],
        a: world.clients[0],
        b: world.clients[1],
        world,
    };
    assert!(
        run_punch(&mut sc, SimTime::from_secs(120)),
        "punch must survive 15% loss"
    );
}

#[test]
fn fig4_common_nat_locks_in_private_endpoints() {
    let mut sc = fig4(2, NatBehavior::well_behaved(), udp_setup(A), udp_setup(B));
    assert!(run_punch(&mut sc, SimTime::from_secs(30)));
    // §3.3: the direct private route is faster, so it wins the race.
    let remote_a = sc.world.app::<UdpPeer>(sc.a).session_remote(B).unwrap();
    assert!(
        remote_a.ip.is_private(),
        "expected private endpoint, got {remote_a}"
    );
    exchange_data(&mut sc, Via::Direct);
}

#[test]
fn fig4_without_private_candidates_needs_hairpin() {
    let cfg = |id| {
        let mut c = UdpPeerConfig::new(id, Scenario::server_endpoint());
        c.punch = c
            .punch
            .clone()
            .with_plan(CandidatePlan::new().with_source(CandidateSource::PeerPublic));
        c
    };
    // With hairpin: public endpoints loop back through the NAT.
    let mut sc = fig4(
        3,
        NatBehavior::well_behaved(),
        udp_setup_cfg(cfg(A)),
        udp_setup_cfg(cfg(B)),
    );
    assert!(run_punch(&mut sc, SimTime::from_secs(30)));
    let remote_a = sc.world.app::<UdpPeer>(sc.a).session_remote(B).unwrap();
    assert_eq!(
        remote_a.ip,
        addrs::NAT_A,
        "hairpin path uses the public mapping"
    );

    // Without hairpin: the punch cannot complete; relay fallback kicks in.
    let nat = NatBehavior::well_behaved().with_hairpin(Hairpin::None);
    let mut sc2 = fig4(3, nat, udp_setup_cfg(cfg(A)), udp_setup_cfg(cfg(B)));
    sc2.world.sim.run_for(Duration::from_secs(2));
    sc2.world
        .with_app::<UdpPeer, _>(sc2.a, |p, os| p.connect(os, B));
    let ok = sc2
        .world
        .run_until_app::<UdpPeer>(sc2.a, SimTime::from_secs(30), |p| p.is_established(B));
    assert!(
        !ok,
        "no hairpin, no private candidates: direct punch must fail"
    );
    assert!(
        sc2.world
            .run_until_app::<UdpPeer>(sc2.a, SimTime::from_secs(40), |p| p.is_relaying(B)),
        "relay fallback engages"
    );
    exchange_data(&mut sc2, Via::Relay);
}

#[test]
fn fig6_multilevel_requires_hairpin_on_isp_nat() {
    // Consumer NATs never hairpin here; everything rides on NAT C.
    let consumer = NatBehavior::well_behaved().with_hairpin(Hairpin::None);

    // NAT C hairpins: punching works through the loop (§3.5).
    let isp_full = NatBehavior::well_behaved();
    let mut sc = fig6(
        4,
        isp_full,
        consumer.clone(),
        consumer.clone(),
        udp_setup(A),
        udp_setup(B),
    );
    assert!(
        run_punch(&mut sc, SimTime::from_secs(30)),
        "hairpin on NAT C enables the punch"
    );
    let remote_a = sc.world.app::<UdpPeer>(sc.a).session_remote(B).unwrap();
    assert_eq!(
        remote_a.ip,
        addrs::NAT_A,
        "peers use the global public endpoints (NAT C's address)"
    );
    exchange_data(&mut sc, Via::Direct);

    // NAT C without hairpin: the paper predicts failure.
    let isp_none = NatBehavior::well_behaved().with_hairpin(Hairpin::None);
    let mut sc2 = fig6(
        4,
        isp_none,
        consumer.clone(),
        consumer,
        udp_setup(A),
        udp_setup(B),
    );
    sc2.world.sim.run_for(Duration::from_secs(2));
    sc2.world
        .with_app::<UdpPeer, _>(sc2.a, |p, os| p.connect(os, B));
    let ok = sc2
        .world
        .run_until_app::<UdpPeer>(sc2.a, SimTime::from_secs(30), |p| p.is_established(B));
    assert!(!ok, "no hairpin on NAT C: punch must fail");
}

#[test]
fn symmetric_nat_breaks_punching_and_relay_rescues() {
    let mut sc = fig5(
        5,
        NatBehavior::symmetric(),
        NatBehavior::well_behaved(),
        udp_setup(A),
        udp_setup(B),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let ok = sc
        .world
        .run_until_app::<UdpPeer>(sc.a, SimTime::from_secs(20), |p| p.is_established(B));
    assert!(!ok, "§5.1: symmetric NAT defeats plain hole punching");
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(sc.a, SimTime::from_secs(30), |p| p.is_relaying(B)));
    exchange_data(&mut sc, Via::Relay);
}

#[test]
fn port_prediction_recovers_symmetric_nat_with_sequential_allocation() {
    let mut symmetric = NatBehavior::well_behaved();
    symmetric.mapping = MappingPolicy::AddressAndPortDependent;
    symmetric.port_alloc = PortAllocation::Sequential;
    let cfg = |id| {
        let mut c = UdpPeerConfig::new(id, Scenario::server_endpoint());
        c.punch = c.punch.clone().with_plan(predict_plan(5));
        c.punch.relay_fallback = false;
        c
    };
    let mut sc = fig5(
        6,
        symmetric,
        NatBehavior::well_behaved(),
        udp_setup_cfg(cfg(A)),
        udp_setup_cfg(cfg(B)),
    );
    assert!(
        run_punch(&mut sc, SimTime::from_secs(40)),
        "§5.1: prediction should work against a sequential-allocating symmetric NAT"
    );
    exchange_data(&mut sc, Via::Direct);
}

#[test]
fn port_prediction_usually_fails_against_random_allocation() {
    let mut symmetric = NatBehavior::well_behaved();
    symmetric.mapping = MappingPolicy::AddressAndPortDependent;
    symmetric.port_alloc = PortAllocation::Random;
    let cfg = |id| {
        let mut c = UdpPeerConfig::new(id, Scenario::server_endpoint());
        c.punch = c.punch.clone().with_plan(predict_plan(5));
        c.punch.relay_fallback = false;
        c
    };
    let mut wins = 0;
    for seed in 0..5 {
        let mut sc = fig5(
            100 + seed,
            symmetric.clone(),
            NatBehavior::well_behaved(),
            udp_setup_cfg(cfg(A)),
            udp_setup_cfg(cfg(B)),
        );
        if run_punch(&mut sc, SimTime::from_secs(30)) {
            wins += 1;
        }
    }
    assert!(
        wins <= 1,
        "random allocation defeats prediction (won {wins}/5)"
    );
}

#[test]
fn keepalives_sustain_session_across_short_nat_timeout() {
    // §3.6: 20-second UDP timers vs 15-second keepalives.
    let nat = NatBehavior::well_behaved().with_udp_timeout(Duration::from_secs(20));
    let mut sc = fig5(8, nat.clone(), nat, udp_setup(A), udp_setup(B));
    assert!(run_punch(&mut sc, SimTime::from_secs(30)));
    // Idle (at the application level) for two minutes; keepalives flow.
    sc.world.sim.run_for(Duration::from_secs(120));
    exchange_data(&mut sc, Via::Direct);
    assert!(
        sc.world.app::<UdpPeer>(sc.a).is_established(B),
        "session survived"
    );
    assert_eq!(sc.world.app::<UdpPeer>(sc.a).stats().repunches, 0);
}

#[test]
fn dead_session_repunches_on_demand() {
    // Keepalives too slow for the NAT timer: the session dies, and the
    // next send re-runs the punch (§3.6).
    let nat = NatBehavior::well_behaved().with_udp_timeout(Duration::from_secs(20));
    let cfg = |id| {
        let mut c = UdpPeerConfig::new(id, Scenario::server_endpoint());
        c.punch.keepalive_interval = Duration::from_secs(300);
        c.punch.session_timeout = Duration::from_secs(60);
        c
    };
    let mut sc = fig5(
        9,
        nat.clone(),
        nat,
        udp_setup_cfg(cfg(A)),
        udp_setup_cfg(cfg(B)),
    );
    assert!(run_punch(&mut sc, SimTime::from_secs(30)));
    sc.world.sim.run_for(Duration::from_secs(200)); // both NAT holes expire
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.send(os, B, Bytes::from_static(b"wake")));
    let deadline = sc.world.sim.now() + Duration::from_secs(30);
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(sc.a, deadline, |p| p.is_established(B)));
    let evs = sc
        .world
        .with_app::<UdpPeer, _>(sc.a, |p, _| p.take_events());
    assert!(
        evs.iter()
            .any(|e| matches!(e, PeerEvent::SessionDied { peer } if *peer == B)),
        "{evs:?}"
    );
    assert!(sc.world.app::<UdpPeer>(sc.a).stats().repunches >= 1);
    // The queued payload arrives after the re-punch.
    sc.world.sim.run_for(Duration::from_secs(5));
    let evs_b = sc
        .world
        .with_app::<UdpPeer, _>(sc.b, |p, _| p.take_events());
    assert!(
        evs_b
            .iter()
            .any(|e| matches!(e, PeerEvent::Data { data, .. } if data.as_ref() == b"wake")),
        "{evs_b:?}"
    );
}

/// E11. Common NAT, no hairpin: only the private path can work. A
/// mangling NAT corrupts a cleartext private endpoint in the
/// registration; the peer always obfuscates addresses (§3.1), so the
/// punch survives it. The cleartext hazard itself (§5.3) is shown by
/// the mangled-payload NAT Check leg in `results/ablations.txt`, whose
/// probes carry addresses in the clear.
#[test]
fn payload_mangling_nat_breaks_private_path_unless_obfuscated() {
    let mut nat = NatBehavior::well_behaved().with_hairpin(Hairpin::None);
    nat.mangle_payloads = true;
    let cfg = |id| {
        let mut c = UdpPeerConfig::new(id, Scenario::server_endpoint());
        c.punch.relay_fallback = false;
        c
    };
    let mut sc = fig4(10, nat, udp_setup_cfg(cfg(A)), udp_setup_cfg(cfg(B)));
    assert!(
        run_punch(&mut sc, SimTime::from_secs(30)),
        "obfuscation defeats the mangler"
    );
}

#[test]
fn stray_traffic_with_wrong_nonce_is_rejected() {
    // §3.4: messages must be authenticated; a host that happens to share
    // the peer's private address must not hijack the session. Simulate by
    // a third client behind A's NAT with B's private address.
    let mut wb = punch_lab::WorldBuilder::new(11);
    wb.server(
        addrs::SERVER,
        punch_rendezvous::RendezvousServer::new(Default::default()),
    );
    let na = wb.nat(NatBehavior::well_behaved(), addrs::NAT_A);
    let nb = wb.nat(NatBehavior::well_behaved(), addrs::NAT_B);
    wb.client(addrs::CLIENT_A, na, udp_setup(A));
    wb.client(addrs::CLIENT_B, nb, udp_setup(B));
    // The impostor shares B's private address but lives behind NAT A.
    // It runs its own UdpPeer registered under a different id.
    wb.client(addrs::CLIENT_B, na, udp_setup(PeerId(66)));
    let world = wb.build();
    let mut sc = Scenario {
        server: world.servers[0],
        a: world.clients[0],
        b: world.clients[1],
        world,
    };
    assert!(run_punch(&mut sc, SimTime::from_secs(30)));
    // A's session locked on the real B (public endpoint), not on the
    // impostor's private address.
    let remote = sc.world.app::<UdpPeer>(sc.a).session_remote(B).unwrap();
    assert_eq!(remote.ip, addrs::NAT_B);
    exchange_data(&mut sc, Via::Direct);
}

#[test]
fn restricted_cone_and_full_cone_also_punch() {
    for (seed, nat) in [
        (12, NatBehavior::full_cone()),
        (13, NatBehavior::restricted_cone()),
    ] {
        let mut sc = fig5(seed, nat.clone(), nat, udp_setup(A), udp_setup(B));
        assert!(run_punch(&mut sc, SimTime::from_secs(30)));
    }
}

#[test]
fn registered_event_reports_nat_mapping() {
    let mut sc = fig5(
        14,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        udp_setup(A),
        udp_setup(B),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    let evs = sc
        .world
        .with_app::<UdpPeer, _>(sc.a, |p, _| p.take_events());
    let reg = evs.iter().find_map(|e| match e {
        PeerEvent::Registered { public } => Some(*public),
        _ => None,
    });
    let public = reg.expect("registered");
    assert_eq!(public.ip, addrs::NAT_A);
    assert_eq!(public.port, 62000, "first sequential allocation");
    assert_eq!(
        sc.world.app::<UdpPeer>(sc.a).public_endpoint(),
        Some(public)
    );
}

#[test]
fn no_nat_peers_still_interoperate() {
    // One public client, one NATted client: punching degenerates to a
    // plain exchange but must still work.
    let mut wb = punch_lab::WorldBuilder::new(15);
    wb.server(
        addrs::SERVER,
        punch_rendezvous::RendezvousServer::new(Default::default()),
    );
    let nb = wb.nat(NatBehavior::well_behaved(), addrs::NAT_B);
    wb.public_client("99.1.1.1".parse().unwrap(), udp_setup(A));
    wb.client(addrs::CLIENT_B, nb, udp_setup(B));
    let world = wb.build();
    let mut sc = Scenario {
        server: world.servers[0],
        a: world.clients[0],
        b: world.clients[1],
        world,
    };
    assert!(run_punch(&mut sc, SimTime::from_secs(30)));
    exchange_data(&mut sc, Via::Direct);
    // The public client's registration shows no translation.
    let pub_a = sc.world.app::<UdpPeer>(sc.a).public_endpoint().unwrap();
    assert_eq!(pub_a.ip, "99.1.1.1".parse::<std::net::Ipv4Addr>().unwrap());
}

#[test]
fn punch_config_max_attempts_bounds_probe_volleys() {
    // Unknown peer: the server can never introduce; the punch fails after
    // max_attempts volleys without relaying (relay also can't help).
    let cfg = |id| {
        let mut cfg = UdpPeerConfig::new(id, Scenario::server_endpoint());
        cfg.punch.relay_fallback = false;
        cfg.punch.max_attempts = 3;
        cfg
    };
    let mut sc = fig5(
        16,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        udp_setup_cfg(cfg(A)),
        udp_setup_cfg(cfg(B)),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, PeerId(99)));
    sc.world.sim.run_for(Duration::from_secs(30));
    let evs = sc
        .world
        .with_app::<UdpPeer, _>(sc.a, |p, _| p.take_events());
    assert!(
        evs.iter()
            .any(|e| matches!(e, PeerEvent::PunchFailed { peer } if *peer == PeerId(99))),
        "{evs:?}"
    );
}

#[test]
fn send_before_registration_connects_once_and_delivers_the_payload() {
    let mut sc = fig5(
        12,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        udp_setup(A),
        udp_setup(B),
    );
    // Nothing has run yet: A is unregistered and has no session with B.
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.send(os, B, Bytes::from_static(b"early")));
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(sc.a, SimTime::from_secs(30), |p| p.is_established(B)));
    sc.world.sim.run_for(Duration::from_secs(2));
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
        .with_app::<UdpPeer, _>(sc.b, |p, _| p.take_events());
    assert!(
        evs.iter()
            .any(|e| matches!(e, PeerEvent::Data { peer, data, via }
            if *peer == A && data.as_ref() == b"early" && *via == Via::Direct)),
        "the queued payload arrives over the punched path: {evs:?}"
    );
}

/// A raw host that sends scripted datagrams — the off-path attacker who
/// knows a peer's public mapping, or a registered peer that never
/// answers — and counts what comes back.
struct RawSender {
    /// `(milliseconds after start, destination, message)`.
    sends: Vec<(u64, punch_net::Endpoint, punch_rendezvous::Message)>,
    sock: Option<punch_transport::SocketId>,
    received: u32,
}

impl punch_transport::App for RawSender {
    fn on_start(&mut self, os: &mut punch_transport::Os<'_, '_>) {
        self.sock = Some(os.udp_bind(RAW_PORT).expect("port free"));
        for (i, (at, _, _)) in self.sends.iter().enumerate() {
            os.set_timer(Duration::from_millis(*at), i as u64);
        }
    }

    fn on_timer(&mut self, os: &mut punch_transport::Os<'_, '_>, token: u64) {
        let (_, to, msg) = &self.sends[token as usize];
        let sock = self.sock.expect("bound in on_start");
        os.udp_send(sock, *to, msg.encode(true)).expect("datagram sent");
    }

    fn on_event(&mut self, _os: &mut punch_transport::Os<'_, '_>, ev: punch_transport::SockEvent) {
        if matches!(ev, punch_transport::SockEvent::UdpReceived { .. }) {
            self.received += 1;
        }
    }
}

const VICTIM_IP: std::net::Ipv4Addr = std::net::Ipv4Addr::new(99, 1, 1, 1);
const FORGER_IP: std::net::Ipv4Addr = std::net::Ipv4Addr::new(99, 1, 1, 9);
const RAW_PORT: u16 = 4000;
/// How far into the run [`world_with_forger`] hands the world over: A
/// has registered, so S knows the endpoint the forgeries are aimed at.
const REGISTERED_MS: u64 = 500;

/// Public client A, `b` behind NAT B, and a third public host that
/// fires each of `forged` at A's endpoint every 2 ms from just before
/// A's `connect` (2 s after the world is handed over) until 400 ms after
/// it — across the introduction wait and the start of the race.
fn world_with_forger(
    seed: u64,
    b: PeerSetup,
    forged: Vec<punch_rendezvous::Message>,
) -> (Scenario, punch_net::NodeId) {
    let sends = (0..200u64)
        .flat_map(|i| {
            let at = REGISTERED_MS + 1996 + 2 * i;
            forged.iter().map(move |m| (at, punch_net::Endpoint::UNSPECIFIED, m.clone()))
        })
        .collect();
    let mut wb = punch_lab::WorldBuilder::new(seed);
    wb.server(
        addrs::SERVER,
        punch_rendezvous::RendezvousServer::new(Default::default()),
    );
    let nb = wb.nat(NatBehavior::well_behaved(), addrs::NAT_B);
    wb.public_client(VICTIM_IP, udp_setup(A));
    wb.client(addrs::CLIENT_B, nb, b);
    wb.public_client(
        FORGER_IP,
        PeerSetup::new(RawSender {
            sends,
            sock: None,
            received: 0,
        }),
    );
    let mut world = wb.build();
    let forger = world.clients[2];
    world.sim.run_for(Duration::from_millis(REGISTERED_MS));
    let server = world.app::<punch_rendezvous::RendezvousServer>(world.servers[0]);
    let (victim, _) = server.udp_registration(A).expect("A registered");
    world.with_app::<RawSender, _>(forger, |r, _| {
        for send in &mut r.sends {
            send.1 = victim;
        }
    });
    let sc = Scenario {
        server: world.servers[0],
        a: world.clients[0],
        b: world.clients[1],
        world,
    };
    (sc, forger)
}

#[test]
fn forged_error_reply_does_not_fail_a_waiting_session() {
    // Only a home server's rejection counts: a 3-byte datagram from a
    // stranger must not turn the introduction wait into "server-rejected".
    let forged = punch_rendezvous::Message::ErrorReply {
        code: punch_rendezvous::ERR_UNKNOWN_PEER,
    };
    let (mut sc, _) = world_with_forger(31, udp_setup(B), vec![forged]);
    assert!(run_punch(&mut sc, SimTime::from_secs(30)));
    let evs = sc.world.with_app::<UdpPeer, _>(sc.a, |p, _| p.take_events());
    assert!(
        !evs.iter().any(|e| matches!(
            e,
            PeerEvent::PunchFailed { .. } | PeerEvent::RelayActive { .. }
        )),
        "{evs:?}"
    );
    exchange_data(&mut sc, Via::Direct);
}

#[test]
fn forged_relayed_data_adds_no_candidate_and_delivers_no_data() {
    // B registers and then never answers, so A's race runs its full
    // course with the forgeries arriving throughout: relayed "control"
    // naming the forger's own endpoint as a candidate for B, and relayed
    // "app" data under B's id.
    let forger_ep = punch_net::Endpoint::new(FORGER_IP, RAW_PORT);
    let mut control = vec![0u8]; // relay kind: control
    control.extend_from_slice(&FORGER_IP.octets());
    control.push(1);
    control.extend_from_slice(&RAW_PORT.to_be_bytes());
    let relayed = |data: Vec<u8>| punch_rendezvous::Message::RelayedData {
        from: B,
        data: Bytes::from(data),
    };
    let mute_b = PeerSetup::new(RawSender {
        sends: vec![(
            100,
            Scenario::server_endpoint(),
            punch_rendezvous::Message::Register {
                peer_id: B,
                private: punch_net::Endpoint::new(addrs::CLIENT_B, RAW_PORT),
            },
        )],
        sock: None,
        received: 0,
    });
    let (mut sc, forger) = world_with_forger(
        32,
        mute_b,
        vec![relayed(control), relayed(b"\x01evil".to_vec())], // 1 = relay kind: app
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    sc.world.sim.run_for(Duration::from_secs(21));
    let evs = sc.world.with_app::<UdpPeer, _>(sc.a, |p, _| p.take_events());
    let raced: Vec<_> = evs
        .iter()
        .filter_map(|e| match e {
            PeerEvent::RaceSettled {
                peer, candidates, ..
            } if *peer == B => Some(candidates),
            _ => None,
        })
        .flatten()
        .collect();
    assert!(!raced.is_empty(), "the race ran and settled: {evs:?}");
    assert!(raced.iter().all(|c| c.endpoint != forger_ep), "{raced:?}");
    assert!(
        !evs.iter().any(|e| matches!(e, PeerEvent::Data { .. })),
        "{evs:?}"
    );
    assert_eq!(
        sc.world.app::<RawSender>(forger).received,
        0,
        "no probe was steered at the forger"
    );
}

/// The punch latency a session reports: from the connect request (or,
/// on the responder, S's introduction) to the winning answer.
fn latency(sc: &Scenario, node: punch_net::NodeId, peer: PeerId) -> Option<Duration> {
    sc.world.app::<UdpPeer>(node).punch_latency(peer)
}

/// Every way a UDP session arrives at its latency, pinned to the
/// simulated nanosecond: both sides of a punch, a re-punch (which
/// restarts the clock), a relay → direct upgrade (which does not), and
/// a responder whose own `connect` lands mid-race (which restarts it).
#[test]
fn punch_latency_is_pinned_on_every_path() {
    let ns = |n: u64| Some(Duration::from_nanos(n));

    // Initiator and responder of one Figure 5 punch.
    let mut sc = fig5(
        1,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        udp_setup(A),
        udp_setup(B),
    );
    assert_eq!(latency(&sc, sc.a, B), None, "no session yet");
    assert!(run_punch(&mut sc, SimTime::from_secs(30)));
    assert_eq!(
        latency(&sc, sc.a, B),
        ns(189_993_678),
        "initiator: from the request"
    );
    assert_eq!(
        latency(&sc, sc.b, A),
        ns(61_921_611),
        "responder: from the introduction"
    );

    // A re-punch after both NAT holes expired measures the new cycle.
    let nat = NatBehavior::well_behaved().with_udp_timeout(Duration::from_secs(20));
    let cfg = |id| {
        let mut c = UdpPeerConfig::new(id, Scenario::server_endpoint());
        c.punch.keepalive_interval = Duration::from_secs(300);
        c.punch.session_timeout = Duration::from_secs(60);
        c
    };
    let mut sc = fig5(
        9,
        nat.clone(),
        nat,
        udp_setup_cfg(cfg(A)),
        udp_setup_cfg(cfg(B)),
    );
    assert!(run_punch(&mut sc, SimTime::from_secs(30)));
    assert_eq!(latency(&sc, sc.a, B), ns(188_898_089), "first cycle");
    sc.world.sim.run_for(Duration::from_secs(200));
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.send(os, B, Bytes::from_static(b"wake")));
    let deadline = sc.world.sim.now() + Duration::from_secs(30);
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(sc.a, deadline, |p| p.is_established(B)));
    assert_eq!(latency(&sc, sc.a, B), ns(188_929_438), "re-punch cycle");

    // Relay → direct: A's symmetric NAT forces the relay, then is fixed
    // and the resilient profile's relay probe punches through. The
    // latency runs from the original request.
    let resilient = |id| {
        PeerSetup::new(UdpPeer::new(UdpPeerConfig::resilient(
            id,
            Scenario::server_endpoint(),
        )))
    };
    let mut sc = fig5(
        60,
        NatBehavior::symmetric(),
        NatBehavior::well_behaved(),
        resilient(A),
        resilient(B),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let relaying = |p: &UdpPeer| p.is_relaying(B);
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(sc.a, SimTime::from_secs(120), relaying));
    assert_eq!(latency(&sc, sc.a, B), None, "relaying has no latency");
    let now = sc.world.sim.now();
    sc.world
        .apply_faults(&FaultPlan::new().device_fault(now, sc.world.nats[0], FAULT_WELL_BEHAVED));
    let deadline = sc.world.sim.now() + Duration::from_secs(6);
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(sc.a, deadline, |p| p.is_established(B)));
    assert_eq!(latency(&sc, sc.a, B), ns(70_962_863_648), "upgrade");

    // The responder connects 10 ms after S's introduction set it
    // spraying: its latency runs from its own request.
    let mut sc = fig5(
        1,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        udp_setup(A),
        udp_setup(B),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let introduced = |p: &UdpPeer| p.stats().probes_sent > 0;
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(sc.b, SimTime::from_secs(30), introduced));
    sc.world.sim.run_for(Duration::from_millis(10));
    assert!(!sc.world.app::<UdpPeer>(sc.b).is_established(A));
    sc.world
        .with_app::<UdpPeer, _>(sc.b, |p, os| p.connect(os, A));
    let established = |p: &UdpPeer| p.is_established(A);
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(sc.b, SimTime::from_secs(30), established));
    assert_eq!(
        latency(&sc, sc.b, A),
        ns(51_921_611),
        "responder that connects"
    );
}
