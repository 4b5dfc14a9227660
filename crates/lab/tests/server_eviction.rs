//! Deterministic eviction of the rendezvous registration table.
//!
//! The server caps its per-transport registration tables at
//! [`ServerConfig::max_clients`]; when a new peer registers into a full
//! table the oldest registration (lowest sequence stamp, ties broken by
//! peer id) is evicted. Re-registration refreshes a peer's stamp, so
//! live clients that keep refreshing are never the victim.

use punch_lab::{PeerSetup, WorldBuilder};
use punch_net::Endpoint;
use punch_rendezvous::{Message, PeerId, RendezvousServer, ServerConfig};
use punch_transport::{App, Os, SockEvent, SocketId};
use std::net::Ipv4Addr;
use std::time::Duration;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(18, 181, 0, 31);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(99, 1, 1, 1);

/// Registers a scripted sequence of peer ids from a single socket.
struct RegFlood {
    ids: Vec<u64>,
}

impl App for RegFlood {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        let sock = os.udp_bind(4000).expect("local UDP port free");
        let private = os.local_endpoint(sock).expect("socket bound");
        let server = Endpoint::new(SERVER_IP, 1234);
        for &id in &self.ids {
            let msg = Message::Register {
                peer_id: PeerId(id),
                private,
            };
            os.udp_send(sock, server, msg.encode(false))
                .expect("datagram sent");
        }
    }

    fn on_event(&mut self, _os: &mut Os<'_, '_>, _ev: SockEvent) {}
}

/// Builds a server with a `cap`-sized table and one public client that
/// registers `ids` in order; returns the server after the dust settles.
fn run_flood(cap: usize, ids: Vec<u64>) -> (ServerStatsView, Vec<u64>) {
    let mut wb = WorldBuilder::new(7);
    let s = wb.server(
        SERVER_IP,
        RendezvousServer::new(ServerConfig::default().with_max_clients(cap)),
    );
    wb.public_client(CLIENT_IP, PeerSetup::new(RegFlood { ids: ids.clone() }));
    let mut world = wb.build();
    world.sim.run_until_idle();
    let server = world.app::<RendezvousServer>(world.servers[s]);
    let mut registered: Vec<u64> = ids
        .iter()
        .copied()
        .filter(|&id| server.udp_registration(PeerId(id)).is_some())
        .collect();
    registered.sort_unstable();
    registered.dedup();
    (
        ServerStatsView {
            evictions: server.stats().evictions,
        },
        registered,
    )
}

struct ServerStatsView {
    evictions: u64,
}

#[test]
fn oldest_registration_is_evicted_first() {
    // Five peers into a three-slot table: 1 and 2 (the two oldest) go.
    let (stats, survivors) = run_flood(3, vec![1, 2, 3, 4, 5]);
    assert_eq!(stats.evictions, 2);
    assert_eq!(survivors, vec![3, 4, 5]);
}

#[test]
fn re_registration_refreshes_the_eviction_clock() {
    // Peer 1 re-registers before the table overflows, so the stale
    // peer 2 — not the refreshed 1 — is the victim when 4 arrives.
    let (stats, survivors) = run_flood(3, vec![1, 2, 3, 1, 4]);
    assert_eq!(stats.evictions, 1);
    assert_eq!(survivors, vec![1, 3, 4]);
}

#[test]
fn table_below_the_cap_never_evicts() {
    let (stats, survivors) = run_flood(8, vec![1, 2, 3, 4, 5]);
    assert_eq!(stats.evictions, 0);
    assert_eq!(survivors, vec![1, 2, 3, 4, 5]);
}

/// Registers, then keeps its slot alive by re-registering every
/// `interval`, as a live `UdpPeer` does (§3.6).
struct ActiveClient {
    id: u64,
    interval: Duration,
    refreshes: u32,
    sent: u32,
    sock: Option<SocketId>,
}

impl ActiveClient {
    fn register(&self, os: &mut Os<'_, '_>) {
        let sock = self.sock.expect("bound in on_start");
        let private = os.local_endpoint(sock).expect("socket bound");
        let msg = Message::Register {
            peer_id: PeerId(self.id),
            private,
        };
        let _ = os.udp_send(sock, Endpoint::new(SERVER_IP, 1234), msg.encode(false));
    }
}

impl App for ActiveClient {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        self.sock = Some(os.udp_bind(4001).expect("local UDP port free"));
        self.register(os);
        os.set_timer(self.interval, 1);
    }

    fn on_event(&mut self, _os: &mut Os<'_, '_>, _ev: SockEvent) {}

    fn on_timer(&mut self, os: &mut Os<'_, '_>, _token: u64) {
        if self.sent >= self.refreshes {
            return;
        }
        self.sent += 1;
        self.register(os);
        os.set_timer(self.interval, 1);
    }
}

/// Registers a fresh one-shot peer id per timer tick — the churn of
/// short-lived clients that once aged out long-lived ones.
struct SlowFlood {
    ids: Vec<u64>,
    next: usize,
    interval: Duration,
    sock: Option<SocketId>,
}

impl App for SlowFlood {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        let sock = os.udp_bind(4000).expect("local UDP port free");
        self.sock = Some(sock);
        os.set_timer(self.interval, 1);
    }

    fn on_event(&mut self, _os: &mut Os<'_, '_>, _ev: SockEvent) {}

    fn on_timer(&mut self, os: &mut Os<'_, '_>, _token: u64) {
        let Some(&id) = self.ids.get(self.next) else {
            return;
        };
        self.next += 1;
        let sock = self.sock.expect("bound in on_start");
        let private = os.local_endpoint(sock).expect("socket bound");
        let server = Endpoint::new(SERVER_IP, 1234);
        let msg = Message::Register {
            peer_id: PeerId(id),
            private,
        };
        let _ = os.udp_send(sock, server, msg.encode(false));
        os.set_timer(self.interval, 1);
    }
}

#[test]
fn active_client_survives_a_storm_of_one_shot_registrations() {
    // Regression: eviction once ranked by *first* registration order, so
    // a client that registered first and then stayed active was always
    // the next victim. Every refresh restamps it, so the churn evicts
    // only stale one-shots.
    let mut wb = WorldBuilder::new(7);
    let s = wb.server(
        SERVER_IP,
        RendezvousServer::new(ServerConfig::default().with_max_clients(3)),
    );
    wb.public_client(
        CLIENT_IP,
        PeerSetup::new(ActiveClient {
            id: 100,
            interval: Duration::from_millis(73),
            refreshes: 20,
            sent: 0,
            sock: None,
        }),
    );
    wb.public_client(
        Ipv4Addr::new(99, 1, 1, 2),
        PeerSetup::new(SlowFlood {
            ids: (1..=12).collect(),
            next: 0,
            interval: Duration::from_millis(100),
            sock: None,
        }),
    );
    let mut world = wb.build();
    world.sim.run_until_idle();
    let server = world.app::<RendezvousServer>(world.servers[s]);
    assert!(
        server.udp_registration(PeerId(100)).is_some(),
        "the refreshing client must never be the eviction victim"
    );
    // 13 inserts into 3 slots: every overflow evicted a stale one-shot.
    // Had the client lost its slot, its next refresh would have been a
    // 14th insert and an 11th eviction.
    assert_eq!(server.stats().evictions, 10);
    assert!(server.udp_registration(PeerId(12)).is_some());
}
