//! Off-path packets against a punch in progress (the packets ReDAN aims
//! at NATs): a Figure-5 world registers, A starts punching to B, and
//! arbitrary UDP, TCP and ICMP packets arrive on the public iface of
//! both NATs and of the rendezvous server, from arbitrary sources. A
//! second property injects the same packets inside the network: at the
//! backbone router, on any of its links, and on both NATs' private
//! sides, from hosts spoofed inside each realm.
//! Spoofed sources are drawn from the endpoints that matter (the
//! server, its probe port, the NATs' live mappings) as well as from
//! anywhere, and UDP payloads are raw bytes or well-formed rendezvous
//! and peer messages with forged fields.
//!
//! Whatever arrives: nothing panics, by 60 s after the connect A's
//! session with B has settled (direct, relayed or failed) instead of
//! punching forever, and the world has gone back to keepalive traffic.
//! A public-side packet also never creates a NAT mapping (a private-side
//! one may: that is what a NAT is for).

use bytes::Bytes;
use holepunch::{UdpPeer, UdpPeerConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use punch_lab::{addrs, fig5, PeerSetup, Scenario, World, WorldBuilder};
use punch_nat::NatBehavior;
use punch_net::{
    Duration, Endpoint, IcmpKind, IcmpMessage, NodeId, Packet, Proto, SimTime, TcpFlags, TcpSegment,
};
use punch_rendezvous::{Message, PeerId, RendezvousServer, ServerConfig, SERVER_PORT};
use std::net::Ipv4Addr;

const A: PeerId = PeerId(1);
const B: PeerId = PeerId(2);
const CONNECT_AT: Duration = Duration::from_secs(2);
/// Most packets a settled world sends from 30 s to 60 s after the
/// connect: keepalives and refreshes come to at most 44; a packet that
/// set two endpoints answering each other would add about 1 000.
const SETTLED_TRAFFIC: u64 = 100;

/// One injected packet: where it lands, how long after the previous one,
/// its protocol, the raw words its endpoints and fields are drawn from,
/// and its payload bytes.
#[derive(Debug)]
struct Shot {
    target: usize,
    gap_ms: u64,
    proto: u8,
    words: [u64; 3],
    payload: Vec<u8>,
}

fn shot() -> impl Strategy<Value = Shot> {
    (
        0..3usize,
        0..40u64,
        0..3u8,
        any::<[u64; 3]>(),
        vec(any::<u8>(), 0..1401),
    )
        .prop_map(|(target, gap_ms, proto, words, payload)| Shot {
            target,
            gap_ms,
            proto,
            words,
            payload,
        })
}

fn behavior(pick: u8) -> NatBehavior {
    match pick % 4 {
        0 => NatBehavior::full_cone(),
        1 => NatBehavior::restricted_cone(),
        2 => NatBehavior::port_restricted_cone(),
        _ => NatBehavior::symmetric(),
    }
}

/// The public endpoints of every live mapping on either NAT, in node order.
fn mapped(world: &World) -> Vec<Endpoint> {
    world
        .nats
        .iter()
        .flat_map(|&nat| world.nat(nat).tables().iter().map(|e| e.public))
        .collect()
}

/// An endpoint drawn from `word`: the server, its probe port, a live
/// mapping, a NAT's address at any port, or anywhere at all.
fn endpoint(word: u64, mapped: &[Endpoint]) -> Endpoint {
    let port = (word >> 8) as u16;
    let ip = Ipv4Addr::from((word >> 24) as u32);
    match word % 5 {
        0 => Endpoint::new(addrs::SERVER, SERVER_PORT),
        1 => Endpoint::new(addrs::SERVER, SERVER_PORT + 1),
        2 if !mapped.is_empty() => mapped[usize::from(port) % mapped.len()],
        3 => Endpoint::new(
            if word & 0x10 == 0 {
                addrs::NAT_A
            } else {
                addrs::NAT_B
            },
            port,
        ),
        _ => Endpoint::new(ip, port),
    }
}

fn peer_id(word: u64) -> PeerId {
    match word % 3 {
        0 => A,
        1 => B,
        _ => PeerId(word >> 2),
    }
}

/// A UDP payload: the raw bytes, or a well-formed message with forged
/// fields (the server obfuscates, so half of them are obfuscated).
fn udp_payload(word: u64, mapped: &[Endpoint], payload: Vec<u8>) -> Bytes {
    let ep = |shift: u32| endpoint(word.rotate_left(shift), mapped);
    let (id, nonce) = (peer_id(word >> 4), word.rotate_left(17));
    let data = Bytes::from(payload);
    let msg = match (word >> 1) % 16 {
        0 => Message::Register {
            peer_id: id,
            private: ep(5),
        },
        1 => Message::RegisterAck { public: ep(7) },
        2 => Message::ConnectRequest {
            peer_id: id,
            target: peer_id(word >> 9),
            nonce,
        },
        3 => Message::Introduce {
            peer: id,
            public: ep(11),
            private: ep(13),
            nonce,
            initiator: word & 1 == 0,
        },
        4 => Message::RelayedData { from: id, data },
        5 => Message::ReversalRequested {
            from: id,
            public: ep(19),
            private: ep(23),
            nonce,
        },
        6 => Message::PeerHello { from: id, nonce },
        7 => Message::PeerHelloAck { from: id, nonce },
        8 => Message::PeerData { data },
        9 => Message::ErrorReply {
            code: (word >> 32) as u8,
        },
        10 => Message::Ping,
        11 => Message::Pong,
        12 => Message::KeepAlive,
        _ => return data,
    };
    msg.encode(word & 1 == 0)
}

fn packet(shot: Shot, src: Endpoint, dst: Endpoint, mapped: &[Endpoint]) -> Packet {
    let [_, field_word, extra] = shot.words;
    match shot.proto {
        0 => Packet::udp(src, dst, udp_payload(field_word, mapped, shot.payload)),
        1 => {
            let flags = [TcpFlags::SYN, TcpFlags::ACK, TcpFlags::FIN, TcpFlags::RST]
                .into_iter()
                .enumerate()
                .filter(|&(bit, _)| field_word & (1 << bit) != 0)
                .fold(TcpFlags::NONE, |all, (_, flag)| all | flag);
            let mut seg =
                TcpSegment::control(flags, (field_word >> 4) as u32, (extra >> 32) as u32);
            seg.window = extra as u16;
            seg.payload = Bytes::from(shot.payload);
            Packet::tcp(src, dst, seg)
        }
        _ => {
            let kind = if field_word & 1 == 0 {
                IcmpKind::DestinationUnreachable
            } else {
                IcmpKind::TtlExceeded
            };
            let original_proto =
                [Proto::Udp, Proto::Tcp, Proto::Icmp][(field_word >> 1) as usize % 3];
            let msg = IcmpMessage {
                kind,
                original_proto,
                original_src: endpoint(field_word >> 3, mapped),
                original_dst: endpoint(extra, mapped),
            };
            Packet::icmp(src, dst, msg)
        }
    }
}

/// Where a shot lands and what it is addressed to: one of the node's own
/// live mappings (for a NAT) or well-known ports (for the server), or
/// any port on the node's address.
fn aim(world: &World, target: usize, word: u64) -> (NodeId, Endpoint) {
    let port = (word >> 40) as u16;
    if target == 2 {
        let port = [SERVER_PORT, SERVER_PORT + 1, port][(word >> 56) as usize % 3];
        return (world.servers[0], Endpoint::new(addrs::SERVER, port));
    }
    let nat = world.nats[target];
    let own: Vec<Endpoint> = world.nat(nat).tables().iter().map(|e| e.public).collect();
    let dst = if word >> 63 == 0 && !own.is_empty() {
        own[usize::from(port) % own.len()]
    } else {
        Endpoint::new(world.nat(nat).public_ip(), port)
    };
    (nat, dst)
}

/// Where a shot from inside lands, `(node, iface, src, dst)`: the
/// backbone router on one of its three links, from anywhere, or NAT A's
/// or NAT B's private side, from its own client's address or another
/// host in its realm. Either way it is addressed like a public shot.
fn aim_inside(world: &World, target: usize, [src_word, _, word]: [u64; 3]) -> (NodeId, usize, Endpoint, Endpoint) {
    let mapped = mapped(world);
    let dst = endpoint(word, &mapped);
    if target == 0 {
        let iface = (word >> 40) as usize % 3;
        return (world.internet, iface, endpoint(src_word, &mapped), dst);
    }
    let (nat, client) = [(world.nats[0], addrs::CLIENT_A), (world.nats[1], addrs::CLIENT_B)][target - 1];
    let port = (src_word >> 8) as u16;
    let host = if src_word & 1 == 0 {
        client
    } else {
        let [a, b, c, _] = client.octets();
        Ipv4Addr::new(a, b, c, (src_word >> 24) as u8)
    };
    // Iface 1: the NAT's first private link, its client's.
    (nat, 1, Endpoint::new(host, port), dst)
}

/// Every mapping on each NAT belongs to that NAT's own client.
fn assert_mappings_are_inside(world: &World) {
    for (&nat, client) in world.nats.iter().zip([addrs::CLIENT_A, addrs::CLIENT_B]) {
        for entry in world.nat(nat).tables().iter() {
            assert_eq!(
                entry.private.ip, client,
                "a public-side packet created {entry:?}"
            );
        }
    }
}

fn settled(peer: &UdpPeer) -> bool {
    peer.is_established(B) || peer.is_relaying(B) || peer.is_failed(B)
}

fn udp_peer(id: PeerId) -> PeerSetup {
    PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(
        id,
        Scenario::server_endpoint(),
    )))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn off_path_packets_never_panic_map_or_wedge_a_punch(
        (seed, nats) in (any::<u64>(), any::<[u8; 2]>()),
        lead_ms in 0..200u64,
        shots in vec(shot(), 1..48),
    ) {
        let mut sc = fig5(seed, behavior(nats[0]), behavior(nats[1]), udp_peer(A), udp_peer(B));
        sc.world.sim.run_for(CONNECT_AT);
        sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
        sc.world.sim.run_for(Duration::from_millis(lead_ms));

        for shot in shots {
            sc.world.sim.run_for(Duration::from_millis(shot.gap_ms));
            let mapped = mapped(&sc.world);
            let (node, dst) = aim(&sc.world, shot.target, shot.words[2]);
            let src = endpoint(shot.words[0], &mapped);
            let pkt = packet(shot, src, dst, &mapped);
            // Iface 0: a NAT's public side, the server's one link.
            sc.world.sim.inject(node, 0, pkt);
            assert_mappings_are_inside(&sc.world);
        }

        sc.world.sim.run_until(SimTime::ZERO + CONNECT_AT + Duration::from_secs(30));
        let quiet_from = sc.world.sim.stats().packets_sent;
        sc.world.sim.run_until(SimTime::ZERO + CONNECT_AT + Duration::from_secs(60));
        assert_mappings_are_inside(&sc.world);
        prop_assert!(settled(sc.world.app(sc.a)), "A's session with B is still punching");
        let late = sc.world.sim.stats().packets_sent - quiet_from;
        prop_assert!(late <= SETTLED_TRAFFIC, "{late} packets sent in the last 30 s");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn packets_injected_inside_never_panic_or_wedge_a_punch(
        (seed, nats) in (any::<u64>(), any::<[u8; 2]>()),
        lead_ms in 0..200u64,
        shots in vec(shot(), 1..48),
    ) {
        let mut sc = fig5(seed, behavior(nats[0]), behavior(nats[1]), udp_peer(A), udp_peer(B));
        sc.world.sim.run_for(CONNECT_AT);
        sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
        sc.world.sim.run_for(Duration::from_millis(lead_ms));

        for shot in shots {
            sc.world.sim.run_for(Duration::from_millis(shot.gap_ms));
            let mapped = mapped(&sc.world);
            let (node, iface, src, dst) = aim_inside(&sc.world, shot.target, shot.words);
            let pkt = packet(shot, src, dst, &mapped);
            sc.world.sim.inject(node, iface, pkt);
        }

        sc.world.sim.run_until(SimTime::ZERO + CONNECT_AT + Duration::from_secs(30));
        let quiet_from = sc.world.sim.stats().packets_sent;
        sc.world.sim.run_until(SimTime::ZERO + CONNECT_AT + Duration::from_secs(60));
        prop_assert!(settled(sc.world.app(sc.a)), "A's session with B is still punching");
        let late = sc.world.sim.stats().packets_sent - quiet_from;
        prop_assert!(late <= SETTLED_TRAFFIC, "{late} packets sent in the last 30 s");
    }
}

/// Found by the fuzz above (its traffic bound): the probe port answered
/// any datagram, so one datagram spoofed from a probe port (its own, or
/// another server's) to a probe port set the probes echoing each other
/// forever — about 32 datagrams a second for the rest of the run. A
/// probe now answers only a `Ping`, and its answer is not a `Ping`.
#[test]
fn a_spoofed_probe_to_probe_datagram_is_answered_once() {
    let other = Ipv4Addr::new(18, 181, 0, 32);
    let probe = |ip| Endpoint::new(ip, SERVER_PORT + 1);
    for from in [probe(addrs::SERVER), probe(other)] {
        let mut wb = WorldBuilder::new(5);
        wb.server(
            addrs::SERVER,
            RendezvousServer::new(ServerConfig::default()),
        );
        wb.server(other, RendezvousServer::new(ServerConfig::default()));
        let mut world = wb.build();
        world.sim.run_for(Duration::from_secs(1));
        let ping = Packet::udp(from, probe(addrs::SERVER), Message::Ping.encode(false));
        world.sim.inject(world.servers[0], 0, ping);
        world.sim.run_for(Duration::from_secs(1));
        let answered = world.sim.stats().packets_sent;
        assert!(answered > 0, "the Ping spoofed from {from} went unanswered");
        world.sim.run_for(Duration::from_secs(10));
        assert_eq!(
            world.sim.stats().packets_sent,
            answered,
            "spoofed from {from}"
        );
    }
}
