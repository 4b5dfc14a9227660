//! What an application may rely on from a punching endpoint whatever
//! carries its probes: §3.2 and §4.2 are one procedure — register with
//! S, be introduced, race the candidates, lock in the first
//! *authenticated* answer, fall back to S (§2.2) — so every case here
//! runs over [`UdpPeer`] and over [`TcpPeer`] through one small harness
//! and expects the same outcome. Where the two differ on purpose (the
//! order of a failed punch's events) the difference is written down in
//! [`Peer::FAILED_THEN_RELAY`], not averaged away. What only a UDP peer
//! can be configured to do — punch with relaying off, register with a
//! server fleet — is run over UDP alone.

use bytes::Bytes;
use holepunch::{
    PeerEvent, PeerId, TcpPath, TcpPeer, TcpPeerConfig, UdpPeer, UdpPeerConfig, Via,
};
use punch_lab::{addrs, fig4, fig5, PeerSetup, Scenario, World, WorldBuilder};
use punch_nat::NatBehavior;
use punch_net::{Duration, Endpoint, FaultPlan, LinkAction, LinkSpec, NodeId, SimTime};
use punch_rendezvous::{encode_frame, ring, Message, RendezvousServer, MAX_PAYLOAD};
use punch_transport::{App, ConnectOpts, Os, SockEvent, SocketId};
use std::net::Ipv4Addr;

const A: PeerId = PeerId(1);
const B: PeerId = PeerId(2);
const NOBODY: PeerId = PeerId(99);
/// A public host: where forgeries are aimed.
const VICTIM_IP: Ipv4Addr = Ipv4Addr::new(99, 1, 1, 1);
const STRANGER_IP: Ipv4Addr = Ipv4Addr::new(99, 1, 1, 9);

/// A peer event with a race's stamps dropped; what no case compares
/// is `Other`.
#[derive(Clone, Debug, PartialEq)]
enum Ev {
    Established(PeerId, Endpoint),
    PunchFailed(PeerId),
    RelayActive(PeerId),
    RaceSettled(PeerId, Option<Endpoint>),
    Data(PeerId, Bytes, Via),
    TooLarge(PeerId, usize),
    Other,
}

/// The carrier-independent surface of a punching endpoint.
trait Peer: App + Sized {
    /// Whether raw hosts in the same world speak framed TCP or datagrams.
    const TCP: bool;
    /// The terminal events of a failed punch with relaying on, in the
    /// order this carrier emits them today.
    const FAILED_THEN_RELAY: &'static [fn(PeerId) -> Ev];
    fn setup(id: PeerId) -> PeerSetup;
    fn connect(&mut self, os: &mut Os<'_, '_>, peer: PeerId);
    fn send(&mut self, os: &mut Os<'_, '_>, peer: PeerId, data: Bytes);
    fn take_events(&mut self) -> Vec<PeerEvent>;
    /// The drained events, read the same way whichever carrier made them.
    fn events(&mut self) -> Vec<Ev> {
        let ev = |e| match e {
            PeerEvent::Established { peer, remote } => Ev::Established(peer, remote),
            PeerEvent::PunchFailed { peer } => Ev::PunchFailed(peer),
            PeerEvent::RelayActive { peer } => Ev::RelayActive(peer),
            PeerEvent::RaceSettled { peer, winner, .. } => Ev::RaceSettled(peer, winner),
            PeerEvent::Data { peer, data, via } => Ev::Data(peer, data, via),
            PeerEvent::PayloadTooLarge { peer, len } => Ev::TooLarge(peer, len),
            _ => Ev::Other,
        };
        self.take_events().into_iter().map(ev).collect()
    }
    fn is_established(&self, peer: PeerId) -> bool;
    fn is_relaying(&self, peer: PeerId) -> bool;
    /// The public endpoint server `s` registered for `id` on this carrier.
    fn registration(s: &RendezvousServer, id: PeerId) -> Option<Endpoint>;
}

impl Peer for UdpPeer {
    const TCP: bool = false;
    const FAILED_THEN_RELAY: &'static [fn(PeerId) -> Ev] =
        &[Ev::RelayActive, |p| Ev::RaceSettled(p, None)];
    fn setup(id: PeerId) -> PeerSetup {
        udp(id, |_| {})
    }
    fn connect(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        UdpPeer::connect(self, os, peer)
    }
    fn send(&mut self, os: &mut Os<'_, '_>, peer: PeerId, data: Bytes) {
        UdpPeer::send(self, os, peer, data)
    }
    fn take_events(&mut self) -> Vec<PeerEvent> {
        UdpPeer::take_events(self)
    }
    fn is_established(&self, peer: PeerId) -> bool {
        UdpPeer::is_established(self, peer)
    }
    fn is_relaying(&self, peer: PeerId) -> bool {
        UdpPeer::is_relaying(self, peer)
    }
    fn registration(s: &RendezvousServer, id: PeerId) -> Option<Endpoint> {
        s.udp_registration(id).map(|(public, _)| public)
    }
}

impl Peer for TcpPeer {
    const TCP: bool = true;
    const FAILED_THEN_RELAY: &'static [fn(PeerId) -> Ev] = &[
        Ev::PunchFailed,
        |p| Ev::RaceSettled(p, None),
        Ev::RelayActive,
    ];
    fn setup(id: PeerId) -> PeerSetup {
        PeerSetup::new(TcpPeer::new(TcpPeerConfig::new(id, Scenario::server_endpoint())))
    }
    fn connect(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        TcpPeer::connect(self, os, peer)
    }
    fn send(&mut self, os: &mut Os<'_, '_>, peer: PeerId, data: Bytes) {
        TcpPeer::send(self, os, peer, data)
    }
    fn take_events(&mut self) -> Vec<PeerEvent> {
        TcpPeer::take_events(self)
    }
    fn is_established(&self, peer: PeerId) -> bool {
        TcpPeer::is_established(self, peer)
    }
    fn is_relaying(&self, peer: PeerId) -> bool {
        TcpPeer::is_relaying(self, peer)
    }
    fn registration(s: &RendezvousServer, id: PeerId) -> Option<Endpoint> {
        s.tcp_registration(id).map(|(public, _)| public)
    }
}

/// A UDP peer with `edit` applied to its default configuration.
fn udp(id: PeerId, edit: impl FnOnce(&mut UdpPeerConfig)) -> PeerSetup {
    let mut c = UdpPeerConfig::new(id, Scenario::server_endpoint());
    edit(&mut c);
    PeerSetup::new(UdpPeer::new(c))
}

/// A UDP peer that gives up instead of relaying when its punch fails.
fn udp_no_relay(id: PeerId) -> PeerSetup {
    udp(id, |c| c.punch.relay_fallback = false)
}

/// A raw host: at each scripted time it delivers one message to one
/// endpoint — a datagram, or a fresh TCP connection carrying one frame —
/// and never answers anything. The off-path stranger of §3.4, or a
/// registered peer that went silent.
struct Raw {
    tcp: bool,
    /// `(milliseconds after start, destination, message)`.
    script: Vec<(u64, Endpoint, Message)>,
    udp: Option<SocketId>,
    conns: Vec<(SocketId, usize)>,
}

fn raw<P: Peer>(script: Vec<(u64, Endpoint, Message)>) -> PeerSetup {
    PeerSetup::new(Raw {
        tcp: P::TCP,
        script,
        udp: None,
        conns: Vec::new(),
    })
}

impl App for Raw {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        if !self.tcp {
            self.udp = Some(os.udp_bind(4000).expect("port free"));
        }
        for (i, (at, _, _)) in self.script.iter().enumerate() {
            os.set_timer(Duration::from_millis(*at), i as u64);
        }
    }

    fn on_timer(&mut self, os: &mut Os<'_, '_>, token: u64) {
        let (_, to, msg) = &self.script[token as usize];
        match self.udp {
            Some(sock) => os
                .udp_send(sock, *to, msg.encode(true))
                .expect("datagram sent"),
            None => {
                let sock = os
                    .tcp_connect(*to, ConnectOpts::default())
                    .expect("connect starts");
                self.conns.push((sock, token as usize));
            }
        }
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        if let SockEvent::TcpConnected { sock } = ev {
            let (_, i) = self
                .conns
                .iter()
                .find(|(s, _)| *s == sock)
                .expect("our connect");
            os.tcp_send(sock, encode_frame(&self.script[*i].2, true))
                .expect("frame sent");
        }
    }
}

/// Registers `id` with S at 100 ms and then never says another word.
fn mute<P: Peer>(id: PeerId) -> PeerSetup {
    let register = Message::Register {
        peer_id: id,
        private: Endpoint::new(addrs::CLIENT_B, 4000),
    };
    raw::<P>(vec![(100, Scenario::server_endpoint(), register)])
}

fn well_behaved_pair<P: Peer>(seed: u64) -> Scenario {
    let nat = NatBehavior::well_behaved;
    fig5(seed, nat(), nat(), P::setup(A), P::setup(B))
}

/// One server, the clients in order: `(ip, Some(nat behaviour) | public, app)`.
fn world(seed: u64, clients: Vec<(Ipv4Addr, Option<NatBehavior>, PeerSetup)>) -> World {
    let mut wb = WorldBuilder::new(seed);
    wb.server(addrs::SERVER, RendezvousServer::new(Default::default()));
    for (i, (ip, nat, app)) in clients.into_iter().enumerate() {
        match nat {
            Some(behavior) => {
                let n = wb.nat(behavior, Ipv4Addr::new(138, 76, 29, 7 + i as u8));
                wb.client(ip, n, app);
            }
            None => {
                wb.public_client(ip, app);
            }
        }
    }
    wb.build()
}

fn events<P: Peer>(w: &mut World, node: NodeId) -> Vec<Ev> {
    w.with_app::<P, _>(node, |p, _| p.events())
}

fn established<P: Peer>(w: &mut World, node: NodeId, peer: PeerId, by_secs: u64) -> bool {
    w.run_until_app::<P>(node, SimTime::from_secs(by_secs), |p| {
        p.is_established(peer)
    })
}

/// The payloads `from` delivered, in arrival order, with their path.
fn data_from(evs: &[Ev], from: PeerId) -> Vec<(&[u8], Via)> {
    evs.iter()
        .filter_map(|e| match e {
            Ev::Data(peer, data, via) if *peer == from => Some((data.as_ref(), *via)),
            _ => None,
        })
        .collect()
}

// (1) D1: what is asked before `RegisterAck` happens after it, once
// each, in the order it was asked.
fn early_calls_replay_once_each_in_call_order<P: Peer>() {
    let mut sc = well_behaved_pair::<P>(12);
    sc.world.with_app::<P, _>(sc.a, |p, os| {
        p.connect(os, B);
        p.send(os, B, Bytes::from_static(b"early"));
        p.connect(os, B);
    });
    assert!(established::<P>(&mut sc.world, sc.a, B, 30));
    sc.world.sim.run_for(Duration::from_secs(3));
    let s = sc.world.app::<RendezvousServer>(sc.server).stats();
    assert_eq!(
        (s.introductions, s.errors),
        (2, 0),
        "one ConnectRequest per connect, none for the send"
    );
    let evs = events::<P>(&mut sc.world, sc.b);
    assert_eq!(
        data_from(&evs, A),
        [(&b"early"[..], Via::Direct)],
        "{evs:?}"
    );
}

#[test]
fn early_calls_replay_once_each_in_call_order_over_both() {
    early_calls_replay_once_each_in_call_order::<UdpPeer>();
    early_calls_replay_once_each_in_call_order::<TcpPeer>();
}

// (2) D5: a hello or an ack under the peer's id but the wrong nonce is
// a stranger's (§3.4).
fn wrong_nonce_establishes_nothing<P: Peer>() {
    let hello = Message::PeerHello {
        from: B,
        nonce: 0xBAD,
    };
    let ack = Message::PeerHelloAck {
        from: B,
        nonce: 0xBAD,
    };
    let to = Endpoint::UNSPECIFIED; // A's endpoint, once S has it
    let mut w = world(
        21,
        vec![
            (VICTIM_IP, None, P::setup(A)),
            (
                addrs::CLIENT_B,
                Some(NatBehavior::well_behaved()),
                mute::<P>(B),
            ),
            (
                STRANGER_IP,
                None,
                raw::<P>(vec![(2500, to, hello), (2600, to, ack)]),
            ),
        ],
    );
    let (a, stranger) = (w.clients[0], w.clients[2]);
    w.sim.run_for(Duration::from_secs(2));
    let victim = P::registration(w.app::<RendezvousServer>(w.servers[0]), A).expect("A registered");
    w.with_app::<Raw, _>(stranger, |r, _| {
        for step in &mut r.script {
            step.1 = victim;
        }
    });
    w.with_app::<P, _>(a, |p, os| p.connect(os, B));
    assert!(
        !established::<P>(&mut w, a, B, 5),
        "the race is on and nobody authentic answered"
    );
    let evs = events::<P>(&mut w, a);
    assert!(
        !evs.iter()
            .any(|e| matches!(e, Ev::Established(..) | Ev::RaceSettled(..))),
        "{evs:?}"
    );
}

#[test]
fn wrong_nonce_establishes_nothing_over_both() {
    wrong_nonce_establishes_nothing::<UdpPeer>();
    wrong_nonce_establishes_nothing::<TcpPeer>();
}

// (3) D6: behind one hairpinning NAT both the private and the public
// candidate answer; the first authenticated answer settles the race and
// the second changes nothing.
fn race_settles_exactly_once<P: Peer>() {
    let mut sc = fig4(
        23,
        NatBehavior::well_behaved(),
        P::setup(A),
        P::setup(B),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<P, _>(sc.a, |p, os| p.connect(os, B));
    assert!(established::<P>(&mut sc.world, sc.a, B, 30));
    assert!(established::<P>(&mut sc.world, sc.b, A, 30));
    sc.world.sim.run_for(Duration::from_secs(10));
    for (node, peer) in [(sc.a, B), (sc.b, A)] {
        let evs = events::<P>(&mut sc.world, node);
        let terminal: Vec<&Ev> = evs
            .iter()
            .filter(|e| matches!(e, Ev::Established(..) | Ev::RaceSettled(..)))
            .collect();
        let [Ev::Established(p1, remote), Ev::RaceSettled(p2, Some(winner))] = terminal[..] else {
            panic!("one Established then one RaceSettled: {evs:?}");
        };
        assert_eq!((*p1, *p2, remote), (peer, peer, winner), "{evs:?}");
    }
}

#[test]
fn race_settles_exactly_once_over_both() {
    race_settles_exactly_once::<UdpPeer>();
    race_settles_exactly_once::<TcpPeer>();
}

// (4) D6/D2: what was queued while punching leaves in order — over the
// hole when the punch wins, through S when it loses.
fn queued_payloads_arrive_in_order<P: Peer>(nat_a: NatBehavior, via: Via) {
    let mut sc = fig5(
        24,
        nat_a,
        NatBehavior::well_behaved(),
        P::setup(A),
        P::setup(B),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<P, _>(sc.a, |p, os| {
        for payload in [&b"one"[..], b"two", b"three"] {
            p.send(os, B, Bytes::from_static(payload));
        }
    });
    let settled = |p: &P| p.is_established(B) || p.is_relaying(B);
    assert!(sc
        .world
        .run_until_app::<P>(sc.a, SimTime::from_secs(40), settled));
    assert_eq!(sc.world.app::<P>(sc.a).is_relaying(B), via == Via::Relay);
    sc.world.sim.run_for(Duration::from_secs(3));
    let evs = events::<P>(&mut sc.world, sc.b);
    assert_eq!(
        data_from(&evs, A),
        [(&b"one"[..], via), (b"two", via), (b"three", via)],
        "{evs:?}"
    );
}

#[test]
fn queued_payloads_arrive_in_order_over_both() {
    for (nat_a, via) in [
        (
            NatBehavior::well_behaved as fn() -> NatBehavior,
            Via::Direct,
        ),
        (NatBehavior::symmetric, Via::Relay),
    ] {
        queued_payloads_arrive_in_order::<UdpPeer>(nat_a(), via);
        queued_payloads_arrive_in_order::<TcpPeer>(nat_a(), via);
    }
}

// (5) D4/D6 on the losing side: a failed punch settles once with no
// winner, then relays or, with relaying off, gives up. Each carrier's
// event order is pinned as it is, not harmonised.
fn failed_punch_settles<P: Peer>(a: PeerSetup, b: PeerSetup, expected: &[fn(PeerId) -> Ev]) {
    let mut sc = fig5(25, NatBehavior::symmetric(), NatBehavior::well_behaved(), a, b);
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<P, _>(sc.a, |p, os| p.connect(os, B));
    sc.world.sim.run_for(Duration::from_secs(40));
    let evs: Vec<Ev> = events::<P>(&mut sc.world, sc.a)
        .into_iter()
        .filter(|e| *e != Ev::Other)
        .collect();
    let expected: Vec<Ev> = expected.iter().map(|e| e(B)).collect();
    assert_eq!(evs, expected);
    let relays = expected.contains(&Ev::RelayActive(B));
    let p = sc.world.app::<P>(sc.a);
    assert_eq!((p.is_relaying(B), p.is_established(B)), (relays, false));
}

#[test]
fn failed_punch_relays_or_gives_up_over_both() {
    failed_punch_settles::<UdpPeer>(UdpPeer::setup(A), UdpPeer::setup(B), UdpPeer::FAILED_THEN_RELAY);
    failed_punch_settles::<TcpPeer>(TcpPeer::setup(A), TcpPeer::setup(B), TcpPeer::FAILED_THEN_RELAY);
    // Only a UDP punch can give up: a TCP punch always relays.
    let gave_up: &[fn(PeerId) -> Ev] = &[Ev::PunchFailed, |p| Ev::RaceSettled(p, None)];
    failed_punch_settles::<UdpPeer>(udp_no_relay(A), udp_no_relay(B), gave_up);
}

// (6) S's refusal names no peer, so it can only be about a session
// still waiting to be introduced; one that is already racing stays.
fn error_reply_fails_only_sessions_awaiting_introduction<P: Peer>() {
    let mut w = world(
        26,
        vec![
            (
                addrs::CLIENT_A,
                Some(NatBehavior::well_behaved()),
                P::setup(A),
            ),
            (
                addrs::CLIENT_B,
                Some(NatBehavior::well_behaved()),
                mute::<P>(B),
            ),
        ],
    );
    let a = w.clients[0];
    w.sim.run_for(Duration::from_secs(2));
    w.with_app::<P, _>(a, |p, os| p.connect(os, B));
    w.sim.run_for(Duration::from_millis(500));
    w.with_app::<P, _>(a, |p, os| p.connect(os, NOBODY));
    w.sim.run_for(Duration::from_secs(1));
    let s = w.app::<RendezvousServer>(w.servers[0]).stats();
    assert_eq!((s.introductions, s.errors), (1, 1));
    let evs: Vec<Ev> = events::<P>(&mut w, a)
        .into_iter()
        .filter(|e| *e != Ev::Other)
        .collect();
    let expected: Vec<Ev> = P::FAILED_THEN_RELAY.iter().map(|e| e(NOBODY)).collect();
    assert_eq!(evs, expected);
}

#[test]
fn error_reply_fails_only_sessions_awaiting_introduction_over_both() {
    error_reply_fails_only_sessions_awaiting_introduction::<UdpPeer>();
    error_reply_fails_only_sessions_awaiting_introduction::<TcpPeer>();
}

// (7) D3, over UDP (a TCP peer has the one server): with a fleet, a
// client's servers are the ring owners of its id, all of them at once,
// and no other member ever hears from it, not even while an owner
// restarts.
#[test]
fn fleet_homes_are_the_ring_owners_over_udp() {
    let fleet: Vec<Endpoint> = (0..4u8)
        .map(|j| Endpoint::new(Ipv4Addr::new(18, 181, 0, 31 + j), 1234))
        .collect();
    let owners = ring::owners(&fleet, A, 2);
    let mut wb = WorldBuilder::new(27);
    for ep in &fleet {
        wb.server(ep.ip, RendezvousServer::new(Default::default()));
    }
    wb.public_client(VICTIM_IP, udp(A, |c| c.fleet = fleet.clone()));
    let mut w = wb.build();
    let holders = |w: &World| -> Vec<Endpoint> {
        let held = |j: &usize| UdpPeer::registration(w.app::<RendezvousServer>(w.servers[*j]), A);
        (0..4).filter(|j| held(j).is_some()).map(|j| fleet[j]).collect()
    };
    w.sim.run_for(Duration::from_secs(2));
    let mut seen = holders(&w);
    let first = w.servers[fleet
        .iter()
        .position(|ep| *ep == owners[0])
        .expect("owner is a member")];
    let now = w.sim.now();
    w.apply_faults(&FaultPlan::new().restart(now, first));
    w.sim.run_for(Duration::from_secs(5));
    seen.extend(holders(&w));
    seen.sort();
    seen.dedup();
    let mut expected = owners.clone();
    expected.sort();
    assert_eq!(seen, expected, "owners {owners:?}");
}

// D7, regression, over UDP (a TCP punch always relays): a punch that
// failed with relaying off is a dead end,
// and what the application keeps sending into it goes nowhere — it is
// not kept, to be delivered by the thousand should the peer turn up
// later. B's access link loses everything from the start, so S refuses
// A's request; when the link heals B registers and asks for A itself.
#[test]
fn sends_into_a_dead_end_session_are_not_kept_over_udp() {
    let mut wb = WorldBuilder::new(28);
    wb.server(addrs::SERVER, RendezvousServer::new(Default::default()));
    let nb = wb.nat(NatBehavior::well_behaved(), addrs::NAT_B);
    wb.public_client(VICTIM_IP, udp_no_relay(A));
    let mut cut_off = udp_no_relay(B);
    cut_off.link = Some(LinkSpec::lan().with_loss(1.0));
    wb.client(addrs::CLIENT_B, nb, cut_off);
    let mut w = wb.build();
    let (a, b) = (w.clients[0], w.clients[1]);
    let b_uplink = w.uplink(b);
    w.sim.schedule_link_fault(SimTime::from_secs(10), b_uplink, LinkAction::Set(LinkSpec::lan()));
    w.sim.run_for(Duration::from_secs(2));
    w.with_app::<UdpPeer, _>(a, |p, os| p.connect(os, B));
    w.sim.run_for(Duration::from_secs(1));
    assert!(
        events::<UdpPeer>(&mut w, a).contains(&Ev::PunchFailed(B)),
        "S does not know B yet"
    );
    w.with_app::<UdpPeer, _>(a, |p, os| {
        for _ in 0..10_000 {
            p.send(os, B, Bytes::from_static(b"into the void"));
        }
    });
    w.sim.run_for(Duration::from_secs(27));
    w.with_app::<UdpPeer, _>(b, |p, os| p.connect(os, A));
    assert!(
        established::<UdpPeer>(&mut w, b, A, 60),
        "B reaches the public A once it is back"
    );
    assert!(established::<UdpPeer>(&mut w, a, B, 60));
    w.with_app::<UdpPeer, _>(a, |p, os| p.send(os, B, Bytes::from_static(b"hello again")));
    w.sim.run_for(Duration::from_secs(3));
    let evs = events::<UdpPeer>(&mut w, b);
    let got = data_from(&evs, A);
    assert_eq!(
        (got.len(), got.last()),
        (1, Some(&(&b"hello again"[..], Via::Direct)))
    );
}

// Regression: the application chooses a payload's length, so no length
// may panic the encoder (70 000 does not fit the wire's `u16`) or make
// the receiver abort the stream (`MAX_PAYLOAD + 1` is a frame too large).
// A payload over `MAX_PAYLOAD` is refused at `send` and the session —
// punched or relayed — carries on; `MAX_PAYLOAD` itself is delivered.
fn oversize_payloads_are_refused_and_the_session_carries_on<P: Peer>(nat_a: NatBehavior, via: Via) {
    let mut sc = fig5(
        29,
        nat_a,
        NatBehavior::well_behaved(),
        P::setup(A),
        P::setup(B),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<P, _>(sc.a, |p, os| p.connect(os, B));
    let settled = |p: &P| p.is_established(B) || p.is_relaying(B);
    assert!(sc
        .world
        .run_until_app::<P>(sc.a, SimTime::from_secs(40), settled));
    assert_eq!(sc.world.app::<P>(sc.a).is_relaying(B), via == Via::Relay);
    events::<P>(&mut sc.world, sc.a);
    let full = Bytes::from(vec![0x5A; MAX_PAYLOAD]);
    sc.world.with_app::<P, _>(sc.a, |p, os| {
        for len in [MAX_PAYLOAD + 1, 70_000] {
            p.send(os, B, Bytes::from(vec![0xA5; len]));
        }
        p.send(os, B, full.clone());
        p.send(os, B, Bytes::from_static(b"small"));
    });
    assert_eq!(
        events::<P>(&mut sc.world, sc.a),
        [Ev::TooLarge(B, MAX_PAYLOAD + 1), Ev::TooLarge(B, 70_000)]
    );
    sc.world.sim.run_for(Duration::from_secs(5));
    let evs = events::<P>(&mut sc.world, sc.b);
    let got = data_from(&evs, A);
    let lens: Vec<(usize, Via)> = got.iter().map(|(d, v)| (d.len(), *v)).collect();
    assert_eq!(lens, [(MAX_PAYLOAD, via), (5, via)]);
    assert!(got[0].0 == &full[..] && got[1].0 == b"small");
    assert!(settled(sc.world.app::<P>(sc.a)), "the session survived");
    assert_eq!(
        events::<P>(&mut sc.world, sc.a),
        [],
        "and nothing else happened to it"
    );
}

#[test]
fn oversize_payloads_are_refused_and_the_session_carries_on_over_both() {
    for (nat_a, via) in [
        (
            NatBehavior::well_behaved as fn() -> NatBehavior,
            Via::Direct,
        ),
        (NatBehavior::symmetric, Via::Relay),
    ] {
        oversize_payloads_are_refused_and_the_session_carries_on::<UdpPeer>(nat_a(), via);
        oversize_payloads_are_refused_and_the_session_carries_on::<TcpPeer>(nat_a(), via);
    }
}

// D1, regression (TCP only: UDP has no reversal): a reversal asked for
// before registration is still a reversal afterwards (§2.3) — S gets a
// `ReversalRequest`, so only the NATted side connects. The world is
// `tcp_punch.rs`'s `connection_reversal_when_requester_is_public`.
#[test]
fn reversal_requested_before_registration_stays_a_reversal() {
    let mut w = world(
        38,
        vec![
            (
                addrs::CLIENT_A,
                Some(NatBehavior::well_behaved()),
                TcpPeer::setup(A),
            ),
            (VICTIM_IP, None, TcpPeer::setup(B)),
        ],
    );
    let (a, b) = (w.clients[0], w.clients[1]);
    w.with_app::<TcpPeer, _>(b, |p, os| p.request_reversal(os, A));
    assert!(established::<TcpPeer>(&mut w, b, A, 30));
    assert!(established::<TcpPeer>(&mut w, a, B, 30));
    let requester = w.app::<TcpPeer>(b);
    assert_eq!(
        requester.stats().connects_started,
        0,
        "the requester only listens"
    );
    assert_eq!(requester.established_path(A), Some(TcpPath::Accept));
    assert_eq!(
        w.app::<TcpPeer>(a).established_path(B),
        Some(TcpPath::Connect)
    );
}

// The whole event stream an application sees on fig5's three common
// paths, pinned per carrier: a direct punch and a message each way, a
// punch that falls back to the relay (NAT A symmetric) and a message
// each way, and an oversize payload on a punched session. Both carriers
// are read through `Ev`, so where they differ the expected streams say
// so (`FAILED_THEN_RELAY`).
fn event_sequences<P: Peer>(nat_a: NatBehavior, oversize: bool) -> (Vec<Ev>, Vec<Ev>) {
    let mut sc = fig5(
        30,
        nat_a,
        NatBehavior::well_behaved(),
        P::setup(A),
        P::setup(B),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<P, _>(sc.a, |p, os| p.connect(os, B));
    sc.world.sim.run_for(Duration::from_secs(40));
    sc.world.with_app::<P, _>(sc.a, |p, os| {
        if oversize {
            p.send(os, B, Bytes::from(vec![0xA5; MAX_PAYLOAD + 1]));
        }
        p.send(os, B, Bytes::from_static(b"ping"));
    });
    sc.world
        .with_app::<P, _>(sc.b, |p, os| p.send(os, A, Bytes::from_static(b"pong")));
    sc.world.sim.run_for(Duration::from_secs(3));
    (events::<P>(&mut sc.world, sc.a), events::<P>(&mut sc.world, sc.b))
}

fn full_event_sequences_are_pinned<P: Peer>() {
    let (b_pub, a_pub): (Endpoint, Endpoint) = (
        "138.76.29.7:62000".parse().unwrap(),
        "155.99.25.11:62000".parse().unwrap(),
    );
    let direct = |peer, remote, data: &'static [u8]| {
        vec![
            Ev::Other,
            Ev::Established(peer, remote),
            Ev::RaceSettled(peer, Some(remote)),
            Ev::Data(peer, Bytes::from_static(data), Via::Direct),
        ]
    };
    let (a, b) = event_sequences::<P>(NatBehavior::well_behaved(), false);
    assert_eq!((a, b), (direct(B, b_pub, b"pong"), direct(A, a_pub, b"ping")));

    let relayed = |peer, data: &'static [u8]| {
        let mut evs = vec![Ev::Other];
        evs.extend(P::FAILED_THEN_RELAY.iter().map(|e| e(peer)));
        evs.push(Ev::Data(peer, Bytes::from_static(data), Via::Relay));
        evs
    };
    let (a, b) = event_sequences::<P>(NatBehavior::symmetric(), false);
    assert_eq!((a, b), (relayed(B, b"pong"), relayed(A, b"ping")));

    let mut refused = direct(B, b_pub, b"pong");
    refused.insert(3, Ev::TooLarge(B, MAX_PAYLOAD + 1));
    let (a, b) = event_sequences::<P>(NatBehavior::well_behaved(), true);
    assert_eq!((a, b), (refused, direct(A, a_pub, b"ping")));
}

#[test]
fn full_event_sequences_are_pinned_over_both() {
    full_event_sequences_are_pinned::<UdpPeer>();
    full_event_sequences_are_pinned::<TcpPeer>();
}
