//! The rendezvous server's client protocol as reply transcripts, each
//! case run over UDP datagrams and over framed TCP with the same
//! expectations: §3.1–3.2 and §4.1–4.2 describe one server job, so the
//! two transports must answer a script identically.
//!
//! Every client sits on its own public host and uses local port
//! [`PORT`] on either transport, so the endpoints the server observes —
//! and therefore the expected messages — do not depend on the transport.
//!
//! The last case holds the registration tables to a reference model:
//! seeded datagram sequences injected into one capped server, every
//! reply, counter and table slot compared after each.

use bytes::Bytes;
use punch_net::testutil::SinkDevice;
use punch_net::{
    Body, Cidr, Duration, Endpoint, LinkSpec, NodeId, Packet, Router, Sim, SimTime, FAULT_RESTART,
};
use punch_rendezvous::{
    encode_frame, ring, FrameBuf, Message, PeerId, RendezvousServer, ServerConfig, ServerStats,
    ERR_TABLE_FULL, ERR_UNKNOWN_PEER,
};
use punch_transport::{App, ConnectOpts, HostDevice, Os, SockEvent, SocketId, StackConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

const PORT: u16 = 4000;
const BOTH: [Transport; 2] = [Transport::Udp, Transport::Tcp];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Transport {
    Udp,
    Tcp,
}

impl Transport {
    /// The label the server's per-transport metrics carry.
    fn label(self) -> &'static str {
        match self {
            Transport::Udp => "udp",
            Transport::Tcp => "tcp",
        }
    }
}

fn server_ep(i: u8) -> Endpoint {
    Endpoint::new(Ipv4Addr::new(18, 181, 0, 31 + i), 1234)
}

/// Client `i`'s endpoint as the server observes it.
fn public(i: u8) -> Endpoint {
    Endpoint::new(Ipv4Addr::new(99, 1, 1, 1 + i), PORT)
}

/// The private endpoint client `i` reports (opaque to the server).
fn private(i: u8) -> Endpoint {
    Endpoint::new(Ipv4Addr::new(10, 0, 0, 1 + i), 4321)
}

/// A raw client: sends each scripted request at its time (milliseconds
/// after start) and records every reply in arrival order.
struct Client {
    transport: Transport,
    server: Endpoint,
    script: Vec<(u64, Message)>,
    sock: Option<SocketId>,
    frames: FrameBuf,
    got: Vec<Message>,
}

/// Client of server 0.
fn client(transport: Transport, script: Vec<(u64, Message)>) -> Client {
    client_of(0, transport, script)
}

fn client_of(server: u8, transport: Transport, script: Vec<(u64, Message)>) -> Client {
    Client {
        transport,
        server: server_ep(server),
        script,
        sock: None,
        frames: FrameBuf::new(),
        got: Vec::new(),
    }
}

impl App for Client {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        self.sock = Some(match self.transport {
            Transport::Udp => os.udp_bind(PORT).expect("port free"),
            Transport::Tcp => {
                let opts = ConnectOpts {
                    local_port: Some(PORT),
                    reuse: false,
                };
                os.tcp_connect(self.server, opts).expect("connect starts")
            }
        });
        for (i, (at, _)) in self.script.iter().enumerate() {
            os.set_timer(Duration::from_millis(*at), i as u64);
        }
    }

    fn on_timer(&mut self, os: &mut Os<'_, '_>, token: u64) {
        let msg = &self.script[token as usize].1;
        let sock = self.sock.expect("opened in on_start");
        match self.transport {
            Transport::Udp => os.udp_send(sock, self.server, msg.encode(true)),
            Transport::Tcp => os.tcp_send(sock, encode_frame(msg, true)),
        }
        .expect("request sent");
    }

    fn on_event(&mut self, _os: &mut Os<'_, '_>, ev: SockEvent) {
        match ev {
            SockEvent::UdpReceived { data, .. } => {
                self.got.push(Message::decode(&data).expect("server reply decodes"));
            }
            SockEvent::TcpReceived { data, .. } => {
                self.frames.push(&data);
                while let Some(msg) = self.frames.next_message() {
                    self.got.push(msg.expect("server reply decodes"));
                }
            }
            _ => {}
        }
    }
}

/// Servers and clients, each a public host hanging off one router.
struct Lab {
    sim: Sim,
    servers: Vec<NodeId>,
    clients: Vec<NodeId>,
}

impl Lab {
    /// Builds the world and runs every script to completion.
    fn run(servers: Vec<ServerConfig>, clients: Vec<Client>) -> Lab {
        let mut sim = Sim::new(14);
        sim.enable_metrics();
        let internet = sim.add_node("internet", Box::new(Router::new()));
        let attach = |sim: &mut Sim, name: String, ip: Ipv4Addr, app: Box<dyn App>| {
            let host = HostDevice::new(ip, StackConfig::default(), app);
            let node = sim.add_node(name, Box::new(host));
            let (iface, _) = sim.connect(internet, node, LinkSpec::new(Duration::from_millis(1)));
            sim.device_mut::<Router>(internet)
                .add_route(Cidr::new(ip, 32), iface);
            node
        };
        let servers = (0u8..)
            .zip(servers)
            .map(|(i, cfg)| {
                let app = Box::new(RendezvousServer::new(cfg));
                attach(&mut sim, format!("s{i}"), server_ep(i).ip, app)
            })
            .collect();
        let clients = (0u8..)
            .zip(clients)
            .map(|(i, c)| attach(&mut sim, format!("c{i}"), public(i).ip, Box::new(c)))
            .collect();
        sim.run_for(Duration::from_secs(3));
        Lab {
            sim,
            servers,
            clients,
        }
    }

    /// Client `i`'s reply transcript.
    fn got(&self, i: usize) -> &[Message] {
        &self.sim.device::<HostDevice>(self.clients[i]).app::<Client>().got
    }

    fn server(&self, i: usize) -> &RendezvousServer {
        self.sim.device::<HostDevice>(self.servers[i]).app()
    }

    fn stats(&self, i: usize) -> ServerStats {
        self.server(i).stats()
    }

    /// Whether `id` holds a slot in server 0's table for `transport`.
    fn registered(&self, transport: Transport, id: u64) -> bool {
        let s = self.server(0);
        match transport {
            Transport::Udp => s.udp_registration(PeerId(id)),
            Transport::Tcp => s.tcp_registration(PeerId(id)),
        }
        .is_some()
    }

    fn metric(&self, name: &str, label: &str) -> u64 {
        self.sim.metrics_snapshot().counter(name, label)
    }
}

fn register(id: u64, client: u8) -> Message {
    Message::Register {
        peer_id: PeerId(id),
        private: private(client),
    }
}

fn connect(id: u64, target: u64, nonce: u64) -> Message {
    Message::ConnectRequest {
        peer_id: PeerId(id),
        target: PeerId(target),
        nonce,
    }
}

fn relay(from: u64, target: u64, data: &'static [u8]) -> Message {
    Message::RelayData {
        from: PeerId(from),
        target: PeerId(target),
        data: Bytes::from_static(data),
    }
}

fn reversal(id: u64, target: u64, nonce: u64) -> Message {
    Message::ReversalRequest {
        peer_id: PeerId(id),
        target: PeerId(target),
        nonce,
    }
}

fn ack(client: u8) -> Message {
    Message::RegisterAck {
        public: public(client),
    }
}

/// The introduction of the peer `id` registered by client `client`.
fn introduce(id: u64, client: u8, nonce: u64, initiator: bool) -> Message {
    Message::Introduce {
        peer: PeerId(id),
        public: public(client),
        private: private(client),
        nonce,
        initiator,
    }
}

fn relayed(from: u64, data: &'static [u8]) -> Message {
    Message::RelayedData {
        from: PeerId(from),
        data: Bytes::from_static(data),
    }
}

const UNKNOWN: Message = Message::ErrorReply {
    code: ERR_UNKNOWN_PEER,
};

#[test]
fn register_is_acked_with_the_observed_endpoint() {
    for t in BOTH {
        let lab = Lab::run(
            vec![ServerConfig::default()],
            vec![client(t, vec![(100, register(1, 0))])],
        );
        assert_eq!(lab.got(0), [ack(0)], "{t:?}");
        let s = lab.server(0);
        let (mine, other) = match t {
            Transport::Udp => (s.udp_registration(PeerId(1)), s.tcp_registration(PeerId(1))),
            Transport::Tcp => (s.tcp_registration(PeerId(1)), s.udp_registration(PeerId(1))),
        };
        assert_eq!(mine, Some((public(0), private(0))), "{t:?}");
        assert_eq!(other, None, "{t:?}: tables are per transport");
        assert_eq!((lab.stats(0).registrations, lab.stats(0).errors), (1, 0), "{t:?}");
        assert_eq!(lab.metric("rendezvous.register", t.label()), 1, "{t:?}");
    }
}

#[test]
fn connect_introduces_both_sides() {
    for t in BOTH {
        let lab = Lab::run(
            vec![ServerConfig::default()],
            vec![
                client(t, vec![(100, register(1, 0)), (300, connect(1, 2, 7))]),
                client(t, vec![(200, register(2, 1))]),
            ],
        );
        assert_eq!(lab.got(0), [ack(0), introduce(2, 1, 7, true)], "{t:?}");
        assert_eq!(lab.got(1), [ack(1), introduce(1, 0, 7, false)], "{t:?}");
        assert_eq!((lab.stats(0).introductions, lab.stats(0).errors), (1, 0), "{t:?}");
        assert_eq!(lab.metric("rendezvous.introduce", t.label()), 1, "{t:?}");
    }
}

#[test]
fn introductions_go_to_the_registered_route_not_the_arrival_route() {
    // Client 2 never registers; it asks on behalf of peer 1. Both halves
    // of the pair go where peers 1 and 2 registered from.
    for t in BOTH {
        let lab = Lab::run(
            vec![ServerConfig::default()],
            vec![
                client(t, vec![(100, register(1, 0))]),
                client(t, vec![(200, register(2, 1))]),
                client(t, vec![(300, connect(1, 2, 7))]),
            ],
        );
        assert_eq!(lab.got(0), [ack(0), introduce(2, 1, 7, true)], "{t:?}");
        assert_eq!(lab.got(1), [ack(1), introduce(1, 0, 7, false)], "{t:?}");
        assert_eq!(lab.got(2), [], "{t:?}");
    }
}

#[test]
fn unknown_peers_are_refused_at_the_arrival_route() {
    for t in BOTH {
        let lab = Lab::run(
            vec![ServerConfig::default()],
            vec![
                // Registered requester, unknown target.
                client(t, vec![(100, register(1, 0)), (300, connect(1, 77, 5))]),
                // Unknown requester; then peer 1's id with an unknown
                // target — the refusal still comes back here.
                client(t, vec![(200, connect(99, 1, 6)), (400, connect(1, 77, 8))]),
            ],
        );
        assert_eq!(lab.got(0), [ack(0), UNKNOWN], "{t:?}");
        assert_eq!(lab.got(1), [UNKNOWN, UNKNOWN], "{t:?}");
        assert_eq!((lab.stats(0).errors, lab.stats(0).introductions), (3, 0), "{t:?}");
        assert_eq!(lab.metric("rendezvous.error", ""), 3, "{t:?}");
    }
}

#[test]
fn relay_delivers_to_the_target_or_refuses() {
    for t in BOTH {
        let lab = Lab::run(
            vec![ServerConfig::default()],
            vec![
                client(
                    t,
                    vec![
                        (100, register(1, 0)),
                        (300, relay(1, 2, b"hello")),
                        (400, relay(1, 77, b"lost")),
                    ],
                ),
                client(t, vec![(200, register(2, 1))]),
            ],
        );
        assert_eq!(lab.got(0), [ack(0), UNKNOWN], "{t:?}");
        assert_eq!(lab.got(1), [ack(1), relayed(1, b"hello")], "{t:?}");
        let s = lab.stats(0);
        assert_eq!((s.relayed_msgs, s.relayed_bytes, s.errors), (1, 5, 1), "{t:?}");
        assert_eq!(lab.metric("rendezvous.relay.msgs", t.label()), 1, "{t:?}");
    }
}

#[test]
fn reversal_reaches_the_target_or_refuses() {
    for t in BOTH {
        let lab = Lab::run(
            vec![ServerConfig::default()],
            vec![
                client(
                    t,
                    vec![
                        (100, register(1, 0)),
                        (300, reversal(1, 2, 9)),
                        (400, reversal(1, 77, 9)),
                    ],
                ),
                client(t, vec![(200, register(2, 1)), (500, reversal(99, 1, 9))]),
            ],
        );
        let requested = Message::ReversalRequested {
            from: PeerId(1),
            public: public(0),
            private: private(0),
            nonce: 9,
        };
        assert_eq!(lab.got(0), [ack(0), UNKNOWN], "{t:?}");
        assert_eq!(lab.got(1), [ack(1), requested, UNKNOWN], "{t:?}");
        assert_eq!((lab.stats(0).reversals, lab.stats(0).errors), (1, 2), "{t:?}");
    }
}

#[test]
fn server_to_server_messages_from_clients_are_errors() {
    // Not a fleet member (UDP) / not a datagram at all (TCP): counted,
    // never answered, never delivered.
    for t in BOTH {
        let forged = Message::SrvRelay {
            from: PeerId(1),
            target: PeerId(2),
            data: Bytes::from_static(b"x"),
        };
        let lab = Lab::run(
            vec![ServerConfig::default()],
            vec![
                client(t, vec![(100, register(1, 0)), (300, forged)]),
                client(t, vec![(200, register(2, 1))]),
            ],
        );
        assert_eq!(lab.got(0), [ack(0)], "{t:?}");
        assert_eq!(lab.got(1), [ack(1)], "{t:?}");
        assert_eq!((lab.stats(0).errors, lab.stats(0).relayed_msgs), (1, 0), "{t:?}");
    }
}

#[test]
fn re_registration_refreshes_the_stamp_and_the_victim_keeps_its_route() {
    for t in BOTH {
        let lab = Lab::run(
            vec![ServerConfig::default().with_max_clients(2)],
            vec![
                // Oldest registration, but re-registering makes peer 2
                // the least recently active when peer 3 needs a slot.
                client(t, vec![(100, register(1, 0)), (300, register(1, 0))]),
                // Evicted at 400; still served at 500 (a TCP victim's
                // connection stays open) and free to re-register, which
                // now costs peer 1 (stamped 300) its slot, not peer 3.
                client(
                    t,
                    vec![(200, register(2, 1)), (500, Message::Ping), (600, register(2, 1))],
                ),
                client(t, vec![(400, register(3, 2))]),
            ],
        );
        assert_eq!(lab.got(0), [ack(0), ack(0)], "{t:?}");
        assert_eq!(lab.got(1), [ack(1), Message::Pong, ack(1)], "{t:?}");
        assert_eq!(lab.got(2), [ack(2)], "{t:?}");
        let held: Vec<bool> = (1..=3).map(|id| lab.registered(t, id)).collect();
        assert_eq!(held, [false, true, true], "{t:?}");
        let s = lab.stats(0);
        assert_eq!((s.registrations, s.evictions, s.errors), (5, 2, 0), "{t:?}");
        assert_eq!(lab.metric("rendezvous.evict", t.label()), 2, "{t:?}");
    }
}

#[test]
fn a_ping_is_answered_and_refreshes_nothing() {
    // S keeps no state for a ping: peer 1 pinged at 300, but its stamp
    // is still its registration at 100, so it is the victim at 400.
    for t in BOTH {
        let lab = Lab::run(
            vec![ServerConfig::default().with_max_clients(2)],
            vec![
                client(t, vec![(100, register(1, 0)), (300, Message::Ping)]),
                client(t, vec![(200, register(2, 1))]),
                client(t, vec![(400, register(3, 2))]),
            ],
        );
        assert_eq!(lab.got(0), [ack(0), Message::Pong], "{t:?}");
        let held: Vec<bool> = (1..=3).map(|id| lab.registered(t, id)).collect();
        assert_eq!(held, [false, true, true], "{t:?}");
        let s = lab.stats(0);
        assert_eq!((s.registrations, s.evictions, s.errors), (3, 1, 0), "{t:?}");
    }
}

#[test]
fn full_table_of_active_clients_refuses_the_newcomer() {
    for t in BOTH {
        let mut cfg = ServerConfig::default().with_max_clients(2);
        cfg.protect_active = Some(Duration::from_secs(1));
        let lab = Lab::run(
            vec![cfg],
            vec![
                client(t, vec![(100, register(1, 0))]),
                client(t, vec![(200, register(2, 1)), (1000, register(2, 1))]),
                // Refused while both holders are inside the window;
                // admitted once peer 1 (silent since 100) falls out of it.
                client(t, vec![(300, register(3, 2)), (1500, register(3, 2))]),
            ],
        );
        let full = Message::ErrorReply {
            code: ERR_TABLE_FULL,
        };
        assert_eq!(lab.got(2), [full, ack(2)], "{t:?}");
        let held: Vec<bool> = (1..=3).map(|id| lab.registered(t, id)).collect();
        assert_eq!(held, [false, true, true], "{t:?}");
        let s = lab.stats(0);
        assert_eq!(
            (s.registrations, s.reg_refused, s.evictions, s.errors),
            (4, 1, 1, 0),
            "{t:?}"
        );
    }
}

#[test]
fn each_table_evicts_its_own_oldest_under_interleaved_transports() {
    // One server, both transports at once, activity stamps drawn from
    // the one shared counter in arrival order. UDP ids 1–3, TCP ids 11–13.
    let (u, t) = (Transport::Udp, Transport::Tcp);
    let lab = Lab::run(
        vec![ServerConfig::default().with_max_clients(2)],
        vec![
            client(u, vec![(100, register(1, 0))]),
            client(t, vec![(150, register(11, 1)), (300, register(11, 1))]),
            client(t, vec![(200, register(12, 2))]),
            client(u, vec![(250, register(2, 3))]),
            client(u, vec![(350, register(3, 4))]),
            client(t, vec![(400, register(13, 5))]),
        ],
    );
    let udp: Vec<bool> = (1..=3).map(|id| lab.registered(u, id)).collect();
    let tcp: Vec<bool> = (11..=13).map(|id| lab.registered(t, id)).collect();
    assert_eq!(udp, [false, true, true]);
    assert_eq!(tcp, [true, false, true], "the re-registered TCP peer outlives the silent one");
    assert!(!lab.registered(t, 1) && !lab.registered(u, 11));
    assert_eq!((lab.stats(0).registrations, lab.stats(0).evictions), (7, 2));
    assert_eq!(lab.metric("rendezvous.evict", "udp"), 1);
    assert_eq!(lab.metric("rendezvous.evict", "tcp"), 1);
}

/// An `n`-server fleet's configurations.
fn fleet(n: u8, replication: usize) -> (Vec<Endpoint>, Vec<ServerConfig>) {
    let members: Vec<Endpoint> = (0..n).map(server_ep).collect();
    let cfgs = (0..usize::from(n))
        .map(|i| {
            ServerConfig::default()
                .with_fleet(members.clone(), i)
                .with_replication(replication)
        })
        .collect();
    (members, cfgs)
}

/// The smallest peer id ≥ 2 whose `k` ring owners do not include server 0.
fn id_not_owned_by_server_0(members: &[Endpoint], k: usize) -> u64 {
    (2..)
        .find(|&id| !ring::owners(members, PeerId(id), k).contains(&members[0]))
        .expect("some id hashes elsewhere")
}

// The fleet forwards UDP requests only: the cases below run over UDP,
// and the last one holds a TCP request to the standalone answer.

#[test]
fn fleet_introduces_across_shards() {
    let t = Transport::Udp;
    let (members, cfgs) = fleet(2, 1);
    let b = id_not_owned_by_server_0(&members, 1);
    let lab = Lab::run(
        cfgs,
        vec![
            client_of(0, t, vec![(100, register(1, 0)), (300, connect(1, b, 7))]),
            client_of(1, t, vec![(200, register(b, 1))]),
        ],
    );
    assert_eq!(lab.got(0), [ack(0), introduce(b, 1, 7, true)]);
    assert_eq!(lab.got(1), [ack(1), introduce(1, 0, 7, false)]);
    let (s0, s1) = (lab.stats(0), lab.stats(1));
    assert_eq!((s0.forwards, s0.introductions, s0.errors), (1, 1, 0));
    assert_eq!((s1.forwards_served, s1.introductions, s1.errors), (1, 0, 0));
    assert_eq!(lab.metric("rendezvous.introduce", "udp"), 1);
    assert_eq!(lab.metric("rendezvous.forward", "served"), 1);
}

#[test]
fn fleet_retries_the_owner_chain_then_refuses() {
    let (members, cfgs) = fleet(3, 2);
    // Registered nowhere; both of its owners are other shards.
    let x = id_not_owned_by_server_0(&members, 2);
    let lab = Lab::run(
        cfgs,
        vec![client(Transport::Udp, vec![(100, register(1, 0)), (300, connect(1, x, 7))])],
    );
    assert_eq!(lab.got(0), [ack(0), UNKNOWN]);
    let s0 = lab.stats(0);
    assert_eq!(
        (s0.forwards, s0.forward_errors, s0.errors, s0.introductions),
        (2, 1, 1, 0)
    );
    assert_eq!(lab.metric("rendezvous.forward", "retry"), 1);
    assert_eq!(lab.metric("rendezvous.forward", "miss"), 2);
}

#[test]
fn fleet_forwards_relay_to_the_owner() {
    let t = Transport::Udp;
    let (members, cfgs) = fleet(2, 1);
    let b = id_not_owned_by_server_0(&members, 1);
    let lab = Lab::run(
        cfgs,
        vec![
            client_of(0, t, vec![(100, register(1, 0)), (300, relay(1, b, b"hello"))]),
            client_of(1, t, vec![(200, register(b, 1))]),
        ],
    );
    assert_eq!(lab.got(0), [ack(0)]);
    assert_eq!(lab.got(1), [ack(1), relayed(1, b"hello")]);
    let (s0, s1) = (lab.stats(0), lab.stats(1));
    assert_eq!((s0.relayed_msgs, s0.errors), (0, 0));
    assert_eq!((s1.relayed_msgs, s1.relayed_bytes, s1.errors), (1, 5, 0));
    assert_eq!(lab.metric("rendezvous.forward", "relay"), 1);
    assert_eq!(lab.metric("rendezvous.relay.msgs", "udp"), 1);
}

#[test]
fn a_fleet_member_refuses_tcp_requests_for_a_peer_another_member_holds() {
    // Peer b registered over TCP with its owner, server 1. Server 0
    // answers a TCP connect or relay for b as a standalone server would,
    // and sends server 1 nothing.
    let t = Transport::Tcp;
    let (members, cfgs) = fleet(2, 1);
    let b = id_not_owned_by_server_0(&members, 1);
    let lab = Lab::run(
        cfgs,
        vec![
            client_of(
                0,
                t,
                vec![(100, register(1, 0)), (300, connect(1, b, 7)), (400, relay(1, b, b"hello"))],
            ),
            client_of(1, t, vec![(200, register(b, 1))]),
        ],
    );
    assert_eq!(lab.got(0), [ack(0), UNKNOWN, UNKNOWN]);
    assert_eq!(lab.got(1), [ack(1)]);
    let (s0, s1) = (lab.stats(0), lab.stats(1));
    assert_eq!((s0.forwards, s0.introductions, s0.errors), (0, 0, 2));
    assert_eq!((s1.forwards_served, s1.relayed_msgs, s1.errors), (0, 0, 0));
    assert_eq!(lab.metric("rendezvous.forward", "sent"), 0);
    assert_eq!(lab.metric("rendezvous.forward", "relay"), 0);
}

/// The registration rules of one capped, standalone server, restated
/// over plain `BTreeMap`s: what every reply, every counter and every
/// table slot must be after each datagram, whatever the server keeps
/// its tables in.
struct Model {
    max: usize,
    window: Option<Duration>,
    /// Peer id → (public, private, activity stamp, last activity).
    regs: BTreeMap<u64, (Endpoint, Endpoint, u64, SimTime)>,
    seq: u64,
    stats: ServerStats,
    /// How often each of [`CASES`] was reached.
    seen: BTreeMap<&'static str, u64>,
}

/// What the seeded sequences must reach between them.
const CASES: [&str; 7] = [
    "refresh",
    "move to a new endpoint",
    "connect to a known target",
    "connect to an unknown target",
    "eviction",
    "refusal",
    "restart",
];

impl Model {
    fn new(max: usize, window: Option<Duration>) -> Self {
        Model {
            max,
            window,
            regs: BTreeMap::new(),
            seq: 0,
            stats: ServerStats::default(),
            seen: BTreeMap::new(),
        }
    }

    fn saw(&mut self, case: &'static str) {
        *self.seen.entry(case).or_default() += 1;
    }

    fn touch(&mut self, id: u64, now: SimTime) -> Option<(Endpoint, Endpoint)> {
        let reg = self.regs.get_mut(&id)?;
        (reg.2, reg.3) = (self.seq, now);
        self.seq += 1;
        Some((reg.0, reg.1))
    }

    /// The replies to one request from `from` at `now`, in send order.
    fn serve(&mut self, now: SimTime, from: Endpoint, msg: &Message) -> Vec<(Endpoint, Message)> {
        let unknown = (from, UNKNOWN);
        match *msg {
            Message::Register { peer_id, private } => {
                let id = peer_id.0;
                let old = self.regs.get(&id).map(|r| r.0);
                if old.is_none() && self.regs.len() >= self.max {
                    let window = self.window;
                    let victim = self
                        .regs
                        .iter()
                        .filter(|(_, r)| window.is_none_or(|w| now.saturating_since(r.3) >= w))
                        .min_by_key(|(id, r)| (r.2, **id))
                        .map(|(&id, _)| id);
                    let Some(victim) = victim else {
                        self.stats.reg_refused += 1;
                        self.saw("refusal");
                        return vec![(from, Message::ErrorReply { code: ERR_TABLE_FULL })];
                    };
                    self.regs.remove(&victim);
                    self.stats.evictions += 1;
                    self.saw("eviction");
                }
                self.regs.insert(id, (from, private, self.seq, now));
                self.seq += 1;
                match old {
                    Some(old) if old != from => self.saw("move to a new endpoint"),
                    Some(_) => self.saw("refresh"),
                    None => {}
                }
                self.stats.registrations += 1;
                vec![(from, Message::RegisterAck { public: from })]
            }
            Message::ConnectRequest { peer_id, target, nonce } => {
                let Some((req_public, req_private)) = self.touch(peer_id.0, now) else {
                    self.stats.errors += 1;
                    return vec![unknown];
                };
                let Some(&(tgt_public, tgt_private, ..)) = self.regs.get(&target.0) else {
                    self.stats.errors += 1;
                    self.saw("connect to an unknown target");
                    return vec![unknown];
                };
                self.stats.introductions += 1;
                self.saw("connect to a known target");
                let half = |peer, public, private, initiator| Message::Introduce {
                    peer,
                    public,
                    private,
                    nonce,
                    initiator,
                };
                vec![
                    (req_public, half(target, tgt_public, tgt_private, true)),
                    (tgt_public, half(peer_id, req_public, req_private, false)),
                ]
            }
            Message::Ping => vec![(from, Message::Pong)],
            _ => unreachable!("the sequences send only these three requests"),
        }
    }

    fn restart(&mut self) {
        self.regs.clear();
        self.stats.restarts += 1;
        self.saw("restart");
    }
}

/// Drives one server capped at `max` registrations through `steps`
/// seeded UDP requests (and the odd `FAULT_RESTART`), injected straight
/// into its host, and checks every reply, every `ServerStats` field and
/// every table slot against [`Model`] after each one.
fn run_against_model(seed: u64, max: usize, window: Option<Duration>, steps: u64) -> Model {
    const IDS: u64 = 8;
    let mut rng = StdRng::seed_from_u64(seed);
    // Three addresses with two ports each: endpoints that share an
    // address but not a port must stay distinct keys.
    let pool: Vec<Endpoint> = (0..6u8)
        .map(|i| Endpoint::new(Ipv4Addr::new(99, 1, 1, 1 + i / 2), 4000 + u16::from(i % 2)))
        .collect();
    let mut cfg = ServerConfig::default().with_max_clients(max);
    cfg.protect_active = window;
    let s = server_ep(0);
    let mut sim = Sim::new(seed);
    let host = HostDevice::new(s.ip, StackConfig::default(), RendezvousServer::new(cfg));
    let server = sim.add_node("server", Box::new(host));
    let sink = sim.add_node("sink", Box::new(SinkDevice::default()));
    let (iface, _) = sim.connect(server, sink, LinkSpec::new(Duration::from_millis(1)));
    sim.run_for(Duration::from_millis(1));
    let mut model = Model::new(max, window);
    let mut replies = 0;
    for step in 0..steps {
        let now = sim.now();
        let from = pool[rng.gen_range(0..pool.len())];
        let peer_id = PeerId(rng.gen_range(1..=IDS));
        let roll = rng.gen_range(0..100u32);
        let expected = if roll < 2 {
            sim.schedule_device_fault(now, server, FAULT_RESTART);
            model.restart();
            Vec::new()
        } else {
            let msg = match roll {
                2..=44 => Message::Register {
                    peer_id,
                    private: Endpoint::new(Ipv4Addr::new(10, 0, 0, rng.gen_range(1..=3)), 4321),
                },
                45..=79 => Message::ConnectRequest {
                    peer_id,
                    // Ids past IDS are never registered.
                    target: PeerId(rng.gen_range(1..=IDS + 2)),
                    nonce: step,
                },
                _ => Message::Ping,
            };
            sim.inject(server, iface, Packet::udp(from, s, msg.encode(true)));
            model.serve(now, from, &msg)
        };
        sim.run_for(Duration::from_millis(rng.gen_range(2..=20)));
        let got: Vec<(Endpoint, Message)> = sim.device::<SinkDevice>(sink).packets[replies..]
            .iter()
            .map(|(_, pkt)| {
                let Body::Udp(data) = &pkt.body else {
                    panic!("seed {seed} step {step}: a reply that is not a datagram");
                };
                (pkt.dst, Message::decode(data).expect("server reply decodes"))
            })
            .collect();
        replies += got.len();
        assert_eq!(got, expected, "seed {seed} step {step}");
        let app: &RendezvousServer = sim.device::<HostDevice<RendezvousServer>>(server).app();
        assert_eq!(
            format!("{:?}", app.stats()),
            format!("{:?}", model.stats),
            "seed {seed} step {step}"
        );
        for id in 1..=IDS + 2 {
            let slot = model.regs.get(&id).map(|r| (r.0, r.1));
            assert_eq!(app.udp_registration(PeerId(id)), slot, "seed {seed} step {step} peer{id}");
            assert_eq!(app.tcp_registration(PeerId(id)), None);
        }
    }
    model
}

#[test]
fn a_capped_server_answers_seeded_requests_as_the_reference_model_does() {
    let mut seen = BTreeMap::new();
    for seed in 0..24 {
        for window in [None, Some(Duration::from_millis(50))] {
            seen.extend(run_against_model(seed, 4, window, 240).seen);
        }
    }
    let unreached: Vec<&str> = CASES.into_iter().filter(|c| !seen.contains_key(c)).collect();
    assert!(unreached.is_empty(), "unreached: {unreached:?}");
}
