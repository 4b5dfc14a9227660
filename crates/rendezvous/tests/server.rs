//! The rendezvous server's client protocol as reply transcripts, each
//! case run over UDP datagrams and over framed TCP with the same
//! expectations: §3.1–3.2 and §4.1–4.2 describe one server job, so the
//! two transports must answer a script identically.
//!
//! Every client sits on its own public host and uses local port
//! [`PORT`] on either transport, so the endpoints the server observes —
//! and therefore the expected messages — do not depend on the transport.

use bytes::Bytes;
use punch_net::{Cidr, Duration, Endpoint, LinkSpec, NodeId, Router, Sim};
use punch_rendezvous::{
    encode_frame, ring, FrameBuf, Message, PeerId, RendezvousServer, ServerConfig, ServerStats,
    ERR_TABLE_FULL, ERR_UNKNOWN_PEER,
};
use punch_transport::{App, ConnectOpts, HostDevice, Os, SockEvent, SocketId, StackConfig};
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
            tcp: t == Transport::Tcp,
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
fn ping_refreshes_the_stamp_and_the_victim_keeps_its_route() {
    for t in BOTH {
        let lab = Lab::run(
            vec![ServerConfig::default().with_max_clients(2)],
            vec![
                // Oldest registration, but its ping makes peer 2 the
                // least recently active when peer 3 needs a slot.
                client(t, vec![(100, register(1, 0)), (300, Message::Ping)]),
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
        assert_eq!(lab.got(0), [ack(0), Message::Pong], "{t:?}");
        assert_eq!(lab.got(1), [ack(1), Message::Pong, ack(1)], "{t:?}");
        assert_eq!(lab.got(2), [ack(2)], "{t:?}");
        let held: Vec<bool> = (1..=3).map(|id| lab.registered(t, id)).collect();
        assert_eq!(held, [false, true, true], "{t:?}");
        let s = lab.stats(0);
        assert_eq!((s.registrations, s.evictions, s.errors), (4, 2, 0), "{t:?}");
        assert_eq!(lab.metric("rendezvous.evict", t.label()), 2, "{t:?}");
    }
}

#[test]
fn full_table_of_active_clients_refuses_the_newcomer() {
    for t in BOTH {
        let cfg = ServerConfig::default()
            .with_max_clients(2)
            .with_protect_active(Duration::from_secs(1));
        let lab = Lab::run(
            vec![cfg],
            vec![
                client(t, vec![(100, register(1, 0))]),
                client(t, vec![(200, register(2, 1)), (1000, Message::Ping)]),
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
            (3, 1, 1, 0),
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
            client(t, vec![(150, register(11, 1)), (300, Message::Ping)]),
            client(t, vec![(200, register(12, 2))]),
            client(u, vec![(250, register(2, 3))]),
            client(u, vec![(350, register(3, 4))]),
            client(t, vec![(400, register(13, 5))]),
        ],
    );
    let udp: Vec<bool> = (1..=3).map(|id| lab.registered(u, id)).collect();
    let tcp: Vec<bool> = (11..=13).map(|id| lab.registered(t, id)).collect();
    assert_eq!(udp, [false, true, true]);
    assert_eq!(tcp, [true, false, true], "the pinged TCP peer outlives the silent one");
    assert!(!lab.registered(t, 1) && !lab.registered(u, 11));
    assert_eq!((lab.stats(0).registrations, lab.stats(0).evictions), (6, 2));
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

#[test]
fn fleet_introduces_across_shards() {
    for t in BOTH {
        let (members, cfgs) = fleet(2, 1);
        let b = id_not_owned_by_server_0(&members, 1);
        let lab = Lab::run(
            cfgs,
            vec![
                client_of(0, t, vec![(100, register(1, 0)), (300, connect(1, b, 7))]),
                client_of(1, t, vec![(200, register(b, 1))]),
            ],
        );
        assert_eq!(lab.got(0), [ack(0), introduce(b, 1, 7, true)], "{t:?}");
        assert_eq!(lab.got(1), [ack(1), introduce(1, 0, 7, false)], "{t:?}");
        let (s0, s1) = (lab.stats(0), lab.stats(1));
        assert_eq!((s0.forwards, s0.introductions, s0.errors), (1, 1, 0), "{t:?}");
        assert_eq!((s1.forwards_served, s1.introductions, s1.errors), (1, 0, 0), "{t:?}");
        assert_eq!(lab.metric("rendezvous.introduce", t.label()), 1, "{t:?}");
        assert_eq!(lab.metric("rendezvous.forward", "served"), 1, "{t:?}");
    }
}

#[test]
fn fleet_retries_the_owner_chain_then_refuses() {
    for t in BOTH {
        let (members, cfgs) = fleet(3, 2);
        // Registered nowhere; both of its owners are other shards.
        let x = id_not_owned_by_server_0(&members, 2);
        let lab = Lab::run(
            cfgs,
            vec![client(t, vec![(100, register(1, 0)), (300, connect(1, x, 7))])],
        );
        assert_eq!(lab.got(0), [ack(0), UNKNOWN], "{t:?}");
        let s0 = lab.stats(0);
        assert_eq!(
            (s0.forwards, s0.forward_errors, s0.errors, s0.introductions),
            (2, 1, 1, 0),
            "{t:?}"
        );
        assert_eq!(lab.metric("rendezvous.forward", "retry"), 1, "{t:?}");
        assert_eq!(lab.metric("rendezvous.forward", "miss"), 2, "{t:?}");
    }
}

#[test]
fn fleet_forwards_relay_to_the_owner() {
    for t in BOTH {
        let (members, cfgs) = fleet(2, 1);
        let b = id_not_owned_by_server_0(&members, 1);
        let lab = Lab::run(
            cfgs,
            vec![
                client_of(0, t, vec![(100, register(1, 0)), (300, relay(1, b, b"hello"))]),
                client_of(1, t, vec![(200, register(b, 1))]),
            ],
        );
        assert_eq!(lab.got(0), [ack(0)], "{t:?}");
        assert_eq!(lab.got(1), [ack(1), relayed(1, b"hello")], "{t:?}");
        let (s0, s1) = (lab.stats(0), lab.stats(1));
        assert_eq!((s0.relayed_msgs, s0.errors), (0, 0), "{t:?}");
        assert_eq!((s1.relayed_msgs, s1.relayed_bytes, s1.errors), (1, 5, 0), "{t:?}");
        assert_eq!(lab.metric("rendezvous.forward", "relay"), 1, "{t:?}");
        assert_eq!(lab.metric("rendezvous.relay.msgs", t.label()), 1, "{t:?}");
    }
}
