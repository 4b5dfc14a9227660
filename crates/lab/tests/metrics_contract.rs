//! Metrics contract: the whole `metrics_snapshot()` JSON of six worlds,
//! pinned by FNV-1a. Between them the worlds reach every counter a layer
//! also keeps in its always-on `*Stats`: the engine's link verdicts, the
//! NAT's translations and rejections, the rendezvous server's defenses,
//! fleet forwards and restarts, the UDP peer's probes and re-punches, and
//! the transport's retransmissions, RSTs and checksum drops. Each world
//! also names the counters it exists to reach, so a world that stops
//! reaching one fails by name rather than by hash.
//!
//! Four more worlds run the recovery timers at their default values and
//! assert when they fire: a TCP punch that runs out its 30 s deadline
//! and relays, a data retransmission whose RTO backs off to its 60 s
//! cap, a resilient UDP session that dies after three missed keepalives
//! and re-punches without being asked, and a relayed session that the
//! resilient profile's 5 s relay probe upgrades.
//!
//! The first six constants were captured while every such event was
//! still written to the registry inline, next to its `*Stats` field; the
//! last four while each of those timers was still a settable field. They
//! must hold however the snapshot comes to read those counts and however
//! the timers come to be configured.

use bytes::Bytes;
use holepunch::{PeerId, TcpPeer, TcpPeerConfig, UdpPeer, UdpPeerConfig};
use punch_lab::adversary::FloodBot;
use punch_lab::{addrs, fig5, PeerSetup, Scenario, ShardConfig, ShardedWorld, WorldBuilder};
use punch_nat::{NatBehavior, TcpUnsolicited, FAULT_WELL_BEHAVED};
use punch_net::{
    Duration, Endpoint, FaultPlan, LinkAction, LinkSpec, MetricsSnapshot, Packet, SimTime,
    TcpFlags, TcpSegment, FAULT_RESTART,
};
use punch_rendezvous::{Message, RendezvousServer, ServerConfig};
use punch_transport::{App, ConnectOpts, Os, SockEvent, SocketId, StackConfig};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

const A: PeerId = PeerId(1);
const B: PeerId = PeerId(2);
const C: PeerId = PeerId(3);

/// Every counter the worlds below must reach between them, as
/// `name` or `name/label`.
const REACHED: [&str; 33] = [
    "net.drop.link_down",
    "net.drop.loss",
    "net.corrupt",
    "net.truncate",
    "defense.nat.quota_refused",
    "nat.mapping.created",
    "nat.hairpinned",
    "nat.inbound.passed",
    "nat.inbound.blocked",
    "nat.rst_sent",
    "nat.icmp_sent",
    "nat.switched_local",
    "nat.reboot",
    "defense.rendezvous.rate_limited",
    "defense.rendezvous.reg_refused",
    "rendezvous.error",
    "defense.rendezvous.auth_rejected",
    "rendezvous.forward/served",
    "rendezvous.reversal",
    "rendezvous.restart",
    "punch.repunch",
    "punch.probes",
    "transport.retransmit",
    "transport.rto",
    "transport.rst_sent",
    "transport.checksum_drop",
    "transport.rst_accepted",
    "transport.rst_rejected",
    "nat.mapping.flushed",
    "punch.tcp.failed",
    "punch.tcp.relay_fallback",
    "punch.session_died/keepalive-timeout",
    "punch.relay_fallback/max-attempts",
];

/// FNV-1a, 64-bit, over the snapshot's JSON.
fn fingerprint(snap: &MetricsSnapshot) -> u64 {
    snap.to_json().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Asserts that every counter in `names` is nonzero in `snap`.
fn assert_reached(world: &str, snap: &MetricsSnapshot, names: &[&str]) {
    for name in names {
        let (family, label) = name.split_once('/').unwrap_or((name, ""));
        assert!(
            snap.counter(family, label) > 0,
            "{world}: {name} not reached\n{}",
            snap.to_json()
        );
    }
}

fn udp_peer(id: PeerId) -> PeerSetup {
    PeerSetup::new(UdpPeer::new(UdpPeerConfig::resilient(id, Scenario::server_endpoint())))
}

fn tcp_peer(id: PeerId) -> PeerSetup {
    let mut cfg = TcpPeerConfig::new(id, Scenario::server_endpoint());
    cfg.local_port = 5000 + id.0 as u16;
    PeerSetup::new(TcpPeer::new(cfg))
}

/// One scripted socket action of a [`Raw`] host.
#[derive(Clone)]
enum Act {
    /// A UDP datagram from local port 4000.
    Datagram(Endpoint, Bytes),
    /// A TCP listener on this port.
    Listen(u16),
    /// A TCP connect from this local port, sending this many bytes once
    /// it is up.
    Dial(Endpoint, u16, usize),
    /// Aborts every connection this host dialed.
    AbortAll,
    /// Sends this many bytes on every connection this host dialed.
    Send(usize),
}

/// A host that runs a socket script: one action at each scripted
/// millisecond, accepting whatever connects.
struct Raw {
    script: Vec<(u64, Act)>,
    udp: Option<SocketId>,
    dialed: Vec<(SocketId, usize)>,
    /// When each of this host's connections aborted.
    aborted: Vec<SimTime>,
}

fn raw(script: Vec<(u64, Act)>) -> PeerSetup {
    PeerSetup::new(Raw { script, udp: None, dialed: Vec::new(), aborted: Vec::new() })
}

impl App for Raw {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        self.udp = os.udp_bind(4000).ok();
        for (i, (at, _)) in self.script.iter().enumerate() {
            os.set_timer(Duration::from_millis(*at), i as u64);
        }
    }

    fn on_timer(&mut self, os: &mut Os<'_, '_>, token: u64) {
        match self.script[token as usize].1.clone() {
            Act::Datagram(to, data) => {
                let _ = os.udp_send(self.udp.expect("bound at start"), to, data);
            }
            Act::Listen(port) => {
                let _ = os.tcp_listen(port, false);
            }
            Act::Dial(to, port, len) => {
                let opts = ConnectOpts { local_port: Some(port), reuse: false };
                if let Ok(sock) = os.tcp_connect(to, opts) {
                    self.dialed.push((sock, len));
                }
            }
            Act::AbortAll => {
                for (sock, _) in self.dialed.drain(..) {
                    let _ = os.tcp_abort(sock);
                }
            }
            Act::Send(len) => {
                for &(sock, _) in &self.dialed {
                    let _ = os.tcp_send(sock, [vec![7u8; len]]);
                }
            }
        }
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        match ev {
            SockEvent::TcpConnected { sock } => {
                if let Some(&(_, len)) = self.dialed.iter().find(|(s, _)| *s == sock) {
                    let _ = os.tcp_send(sock, [vec![7u8; len]]);
                }
            }
            SockEvent::TcpIncoming { listener } => {
                while let Ok(Some(_)) = os.tcp_accept(listener) {}
            }
            SockEvent::TcpAborted { .. } => self.aborted.push(os.now()),
            _ => {}
        }
    }
}

/// Figure 5 with resilient peers: A's access link loses, corrupts and
/// truncates for 6 s while A chatters, and NAT B's uplink goes down for
/// 5 s, long enough for the session to die and re-punch.
fn link_faults() -> MetricsSnapshot {
    let nat = NatBehavior::well_behaved;
    let mut sc = fig5(51, nat(), nat(), udp_peer(A), udp_peer(B));
    sc.world.sim.enable_metrics();
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let t = sc.world.sim.now();
    let faulty = LinkSpec::lan().with_loss(0.2).with_corrupt(0.2).with_truncate(0.2);
    let a_link = sc.world.uplink(sc.a);
    let b_nat_link = sc.world.uplink(sc.world.nats[1]);
    let plan = FaultPlan::new()
        .degrade(t + Duration::from_secs(1), Duration::from_secs(6), a_link, faulty, LinkSpec::lan())
        .outage(t + Duration::from_secs(8), Duration::from_secs(5), b_nat_link);
    sc.world.apply_faults(&plan);
    for _ in 0..120 {
        sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| {
            p.send(os, B, Bytes::from_static(&[0x5a; 200]));
        });
        sc.world.sim.run_for(Duration::from_millis(250));
    }
    let snap = sc.world.sim.metrics_snapshot();
    assert_reached(
        "link_faults",
        &snap,
        &[
            "net.drop.link_down",
            "net.drop.loss",
            "net.corrupt",
            "net.truncate",
            "transport.checksum_drop",
            "punch.probes",
            "punch.repunch",
            "nat.inbound.passed",
            "nat.mapping.created",
        ],
    );
    snap
}

/// Two peers behind one NAT (Figure 4's realm) with a per-source quota,
/// a flooding neighbour that runs into it, and a reboot once the pair
/// has punched.
fn one_realm() -> MetricsSnapshot {
    let mut wb = WorldBuilder::new(52).metrics();
    wb.server(addrs::SERVER, RendezvousServer::new(ServerConfig::default()));
    let n = wb.nat(NatBehavior::well_behaved().with_per_source_quota(4), addrs::NAT_A);
    wb.client(addrs::CLIENT_A, n, udp_peer(A));
    wb.client(Ipv4Addr::new(10, 0, 0, 2), n, udp_peer(B));
    let flood = vec![(Duration::from_secs(3), 12)];
    let sink = Scenario::server_endpoint();
    wb.client(Ipv4Addr::new(10, 0, 0, 9), n, PeerSetup::new(FloodBot::new(sink, flood)));
    let mut sc = Scenario::new(wb.build());
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    sc.world.sim.run_for(Duration::from_secs(6));
    let nat = sc.world.nats[0];
    sc.world.sim.schedule_device_fault(sc.world.sim.now(), nat, FAULT_RESTART);
    sc.world.sim.run_for(Duration::from_secs(10));
    let snap = sc.world.sim.metrics_snapshot();
    assert_reached(
        "one_realm",
        &snap,
        &[
            "defense.nat.quota_refused",
            "nat.hairpinned",
            "nat.switched_local",
            "nat.reboot",
            "nat.mapping.flushed",
            "nat.mapping.created",
        ],
    );
    snap
}

/// TCP peers behind NATs that reject unsolicited SYNs: A asks B for a
/// §2.3 reversal, so B's SYNs meet NAT A's RSTs; C connects to B, whose
/// slow access link lets C's SYN reach NAT B's ICMP rejection first.
fn tcp_rejections() -> MetricsSnapshot {
    let mut wb = WorldBuilder::new(53).metrics();
    wb.server(addrs::SERVER, RendezvousServer::new(ServerConfig::default()));
    let na = wb.nat(NatBehavior::well_behaved().with_tcp_unsolicited(TcpUnsolicited::Rst), addrs::NAT_A);
    let nb = wb.nat(
        NatBehavior::well_behaved().with_tcp_unsolicited(TcpUnsolicited::IcmpError),
        addrs::NAT_B,
    );
    let nc = wb.nat(NatBehavior::well_behaved(), Ipv4Addr::new(120, 1, 1, 1));
    wb.client(addrs::CLIENT_A, na, tcp_peer(A));
    let mut slow = tcp_peer(B);
    slow.link = Some(LinkSpec::new(Duration::from_millis(80)));
    wb.client(addrs::CLIENT_B, nb, slow);
    wb.client(Ipv4Addr::new(10, 2, 2, 2), nc, tcp_peer(C));
    let world = wb.build();
    let (a, c) = (world.clients[0], world.clients[2]);
    let mut sc = Scenario::new(world);
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<TcpPeer, _>(a, |p, os| p.request_reversal(os, B));
    sc.world.with_app::<TcpPeer, _>(c, |p, os| p.connect(os, B));
    sc.world.sim.run_for(Duration::from_secs(12));
    let snap = sc.world.sim.metrics_snapshot();
    assert_reached(
        "tcp_rejections",
        &snap,
        &["nat.rst_sent", "nat.icmp_sent", "nat.inbound.blocked", "rendezvous.reversal"],
    );
    snap
}

/// Raw clients against two servers: a burst past S0's rate limit, a
/// registration S0's protected table refuses, an unparsable datagram, a
/// bad fleet tag at S1, and then S0 restarts.
fn server_defenses() -> MetricsSnapshot {
    let s0 = Scenario::server_endpoint();
    let s1 = Endpoint::new(Ipv4Addr::new(18, 181, 0, 32), 1234);
    let register = |id: u64| Message::Register {
        peer_id: PeerId(id),
        private: Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 4321),
    };
    let mut forged = register(9).encode(true).to_vec();
    forged.extend_from_slice(&[0xA5; 8]);
    let mut wb = WorldBuilder::new(54).metrics();
    let cfg0 = ServerConfig::default()
        .with_max_clients(1)
        .with_protect_active(Duration::from_secs(10))
        .with_rate_limit(2);
    wb.server(s0.ip, RendezvousServer::new(cfg0));
    wb.server(s1.ip, RendezvousServer::new(ServerConfig::default().with_fleet_secret(0xFEED)));
    let burst = (0..8).map(|i| (100 + 5 * i, Act::Datagram(s0, register(1).encode(true)))).collect();
    wb.public_client(Ipv4Addr::new(99, 1, 1, 1), raw(burst));
    wb.public_client(
        Ipv4Addr::new(99, 1, 1, 2),
        raw(vec![
            (500, Act::Datagram(s0, register(2).encode(true))),
            (700, Act::Datagram(s0, Bytes::from_static(&[0xFF; 5]))),
            (900, Act::Datagram(s1, Bytes::from(forged))),
        ]),
    );
    let mut world = wb.build();
    let server = world.servers[0];
    world.sim.schedule_device_fault(punch_net::SimTime::from_millis(1500), server, FAULT_RESTART);
    world.sim.run_for(Duration::from_secs(3));
    let snap = world.sim.metrics_snapshot();
    assert_reached(
        "server_defenses",
        &snap,
        &[
            "defense.rendezvous.rate_limited",
            "defense.rendezvous.reg_refused",
            "rendezvous.error",
            "defense.rendezvous.auth_rejected",
            "rendezvous.restart",
        ],
    );
    snap
}

/// A four-server fleet over two shards whose member 1 restarts as the
/// connect wave lands: introductions cross servers and are served.
fn fleet() -> MetricsSnapshot {
    let mut cfg = ShardConfig::new(55, 16);
    cfg.servers = 4;
    cfg.replication = 2;
    cfg.shards = 2;
    cfg.resilient_clients = true;
    cfg.server_restart = Some((1, Duration::from_millis(2500)));
    cfg.metrics = true;
    cfg.workers = Some(1);
    let mut w = ShardedWorld::build(&cfg);
    w.run();
    let snap = w.merged_metrics();
    assert_reached("fleet", &snap, &["rendezvous.forward/served", "rendezvous.restart"]);
    snap
}

/// Raw TCP over a lossy, corrupting backbone: Y streams to X, aborts,
/// dials a closed port, and streams to X2, whose RFC 5961 stack then
/// meets a forged RST.
fn transport() -> MetricsSnapshot {
    let x = Endpoint::new(Ipv4Addr::new(99, 2, 2, 1), 80);
    let x2 = Endpoint::new(Ipv4Addr::new(99, 2, 2, 2), 80);
    let y = Ipv4Addr::new(99, 2, 2, 3);
    let mut wb = WorldBuilder::new(56)
        .metrics()
        .wan(LinkSpec::wan().with_loss(0.1).with_corrupt(0.05));
    wb.public_client(x.ip, raw(vec![(0, Act::Listen(80))]));
    let validating = StackConfig::default().with_rst_validation();
    wb.public_client(x2.ip, raw(vec![(0, Act::Listen(80))]).with_stack(validating));
    wb.public_client(
        y,
        raw(vec![
            (100, Act::Dial(x, 5001, 48 * 1024)),
            (6000, Act::AbortAll),
            (6500, Act::Dial(Endpoint::new(x.ip, 81), 5002, 0)),
            (7000, Act::Dial(x, 5004, 0)),
            (8000, Act::AbortAll),
            (8500, Act::Dial(x2, 5003, 2 * 1024)),
        ]),
    );
    let mut world = wb.build();
    let x2_node = world.clients[1];
    world.sim.run_for(Duration::from_secs(12));
    let forged = TcpSegment::control(TcpFlags::RST, 0x4242_4242, 0);
    world.sim.inject(x2_node, 0, Packet::tcp(Endpoint::new(y, 5003), x2, forged));
    world.sim.run_for(Duration::from_secs(1));
    let snap = world.sim.metrics_snapshot();
    assert_reached(
        "transport",
        &snap,
        &[
            "transport.retransmit",
            "transport.rto",
            "transport.rst_sent",
            "transport.checksum_drop",
            "transport.rst_accepted",
            "transport.rst_rejected",
        ],
    );
    snap
}

/// TCP peers with the default configuration behind a symmetric NAT A
/// and a well-behaved NAT B: no SYN gets through, none is refused, and
/// the punch runs out its 30 s deadline, then relays (§2.2).
fn tcp_deadline() -> MetricsSnapshot {
    let nat = NatBehavior::well_behaved();
    let mut sc = fig5(57, NatBehavior::symmetric(), nat, tcp_peer(A), tcp_peer(B));
    sc.world.sim.enable_metrics();
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<TcpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let relaying = |p: &TcpPeer| p.is_relaying(B);
    assert!(sc.world.run_until_app::<TcpPeer>(sc.a, SimTime::from_secs(60), relaying));
    assert_eq!(sc.world.sim.now(), SimTime::from_secs(32), "2 s + the 30 s deadline");
    sc.world.with_app::<TcpPeer, _>(sc.a, |p, os| p.send(os, B, Bytes::from_static(b"relayed")));
    sc.world.sim.run_for(Duration::from_secs(2));
    let snap = sc.world.sim.metrics_snapshot();
    assert_reached("tcp_deadline", &snap, &["punch.tcp.failed", "punch.tcp.relay_fallback"]);
    snap
}

/// Raw TCP with a host's usual stack ([`StackConfig::fast`]): Y's
/// stream to X is up when X's link dies, and Y's next segment is
/// retransmitted until the connection aborts. The RTO starts at 0.5 s
/// and doubles to its 60 s cap; the ninth expiry exceeds the eight data
/// retries.
fn rto_cap() -> MetricsSnapshot {
    let x = Endpoint::new(Ipv4Addr::new(99, 2, 2, 1), 80);
    let mut wb = WorldBuilder::new(58).metrics();
    wb.public_client(x.ip, raw(vec![(0, Act::Listen(80))]));
    wb.public_client(
        Ipv4Addr::new(99, 2, 2, 3),
        raw(vec![(100, Act::Dial(x, 5001, 0)), (2000, Act::Send(1000))]),
    );
    let mut world = wb.build();
    let (x_node, y_node) = (world.clients[0], world.clients[1]);
    let x_link = world.uplink(x_node);
    world.sim.schedule_link_fault(SimTime::from_secs(1), x_link, LinkAction::Down);
    world.sim.run_for(Duration::from_secs(300));
    let backoff: u64 = [500, 1000, 2000, 4000, 8000, 16_000, 32_000, 60_000, 60_000].iter().sum();
    assert_eq!(
        world.app::<Raw>(y_node).aborted,
        [SimTime::from_millis(2000 + backoff)],
        "the RTO doubles from 0.5 s and stops at 60 s"
    );
    let snap = world.sim.metrics_snapshot();
    assert_reached("rto_cap", &snap, &["transport.retransmit", "transport.rto"]);
    snap
}

/// Resilient UDP peers punch, then NAT B's uplink goes down for 25 s
/// while nobody sends. A's session dies after three silent 1 s
/// keepalive intervals and A re-punches on its own, its volley interval
/// backing off to the 8 s cap, until the outage ends and the session is
/// direct again.
fn repunch() -> MetricsSnapshot {
    let nat = NatBehavior::well_behaved;
    let mut sc = fig5(59, nat(), nat(), udp_peer(A), udp_peer(B));
    sc.world.sim.enable_metrics();
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    sc.world.sim.run_for(Duration::from_secs(3));
    assert!(sc.world.app::<UdpPeer>(sc.a).is_established(B));
    let b_nat_link = sc.world.uplink(sc.world.nats[1]);
    let plan = FaultPlan::new().outage(SimTime::from_secs(5), Duration::from_secs(25), b_nat_link);
    sc.world.apply_faults(&plan);
    sc.world.sim.run_for(Duration::from_secs(5));
    let died = |p: &UdpPeer| !p.is_established(B);
    assert!(sc.world.app::<UdpPeer>(sc.a).stats().repunches > 0, "re-punching within 5 s");
    assert!(died(sc.world.app::<UdpPeer>(sc.a)));
    let established = |p: &UdpPeer| p.is_established(B);
    assert!(sc.world.run_until_app::<UdpPeer>(sc.a, SimTime::from_secs(70), established));
    sc.world.sim.run_for(Duration::from_secs(2));
    let snap = sc.world.sim.metrics_snapshot();
    assert_reached(
        "repunch",
        &snap,
        &["punch.session_died/keepalive-timeout", "punch.repunch", "punch.probes"],
    );
    snap
}

/// Resilient UDP peers with A behind a symmetric NAT: the punch fails
/// and the pair relays. A's NAT is then fixed, and the next 5 s relay
/// probe punches and upgrades the session to direct.
fn relay_probe() -> MetricsSnapshot {
    let nat = NatBehavior::well_behaved;
    let mut sc = fig5(60, NatBehavior::symmetric(), nat(), udp_peer(A), udp_peer(B));
    sc.world.sim.enable_metrics();
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let relaying = |p: &UdpPeer| p.is_relaying(B);
    assert!(sc.world.run_until_app::<UdpPeer>(sc.a, SimTime::from_secs(120), relaying));
    let relayed_at = sc.world.sim.now();
    let fix = FaultPlan::new().device_fault(relayed_at, sc.world.nats[0], FAULT_WELL_BEHAVED);
    sc.world.apply_faults(&fix);
    let established = |p: &UdpPeer| p.is_established(B);
    assert!(sc.world.run_until_app::<UdpPeer>(sc.a, relayed_at + Duration::from_secs(6), established));
    assert!(sc.world.sim.now() > relayed_at + Duration::from_secs(5), "not before the first probe");
    sc.world.sim.run_for(Duration::from_secs(2));
    let snap = sc.world.sim.metrics_snapshot();
    assert_reached("relay_probe", &snap, &["punch.relay_fallback/max-attempts", "punch.established"]);
    snap
}

#[test]
fn metrics_snapshots_keep_their_fingerprints() {
    let worlds = [
        ("link_faults", link_faults as fn() -> MetricsSnapshot, LINK_FAULTS),
        ("one_realm", one_realm, ONE_REALM),
        ("tcp_rejections", tcp_rejections, TCP_REJECTIONS),
        ("server_defenses", server_defenses, SERVER_DEFENSES),
        ("fleet", fleet, FLEET),
        ("transport", transport, TRANSPORT),
        ("tcp_deadline", tcp_deadline, TCP_DEADLINE),
        ("rto_cap", rto_cap, RTO_CAP),
        ("repunch", repunch, REPUNCH),
        ("relay_probe", relay_probe, RELAY_PROBE),
    ];
    let mut reached = BTreeSet::new();
    let mut moved = Vec::new();
    for (name, world, pinned) in worlds {
        let snap = world();
        reached.extend(snap.counters.keys().map(|k| k.to_string()));
        let got = fingerprint(&snap);
        if got != pinned {
            moved.push(format!("{name}: {got:#018x}\n{}", snap.to_json()));
        }
    }
    let missed: Vec<&str> = REACHED.iter().copied().filter(|n| !reached.contains(*n)).collect();
    assert!(missed.is_empty(), "no world reaches {missed:?}");
    assert!(moved.is_empty(), "fingerprints moved:\n{}", moved.join("\n"));
}

// Captured at commit 15466ec, where each of these counts was written to
// the registry inline, beside its `*Stats` field.
const LINK_FAULTS: u64 = 0x18b1_b0c8_0d39_13a6;
const ONE_REALM: u64 = 0xa068_b4b3_572a_312d;
const TCP_REJECTIONS: u64 = 0xd803_ce06_102d_827a;
const SERVER_DEFENSES: u64 = 0x843a_3ad4_4948_da86;
const FLEET: u64 = 0x3c57_c3fc_1f6b_f395;
const TRANSPORT: u64 = 0x32d9_0e84_955b_bc0d;
// Captured at commit b57f62f, where each default these worlds run was
// still a settable configuration field.
const TCP_DEADLINE: u64 = 0x5673_9fbc_0cf1_6414;
const RTO_CAP: u64 = 0x524b_f471_176f_8964;
const REPUNCH: u64 = 0x03a3_555a_edc9_5b10;
const RELAY_PROBE: u64 = 0x54db_600e_fe37_86ac;
