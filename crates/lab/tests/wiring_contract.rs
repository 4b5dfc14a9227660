//! Wiring contract: what `WorldBuilder`, `fig4`/`fig5`/`fig6` and
//! `ShardedWorld::build` wire is pinned by outcome fingerprints — one
//! FNV-1a over every deterministic engine counter, the final clock, the
//! queue counters and the whole metrics registry after a fixed punch
//! script. A node id, node name, link order, route or RNG draw that
//! moves changes a fingerprint; the constants were captured before the
//! two builders shared one wiring helper and must never need re-pinning
//! by a refactor.

use holepunch::{UdpPeer, UdpPeerConfig};
use punch_lab::{addrs, fig4, fig5, fig6, PeerSetup, Scenario, ShardConfig, ShardedWorld, WorldBuilder};
use punch_nat::NatBehavior;
use punch_net::{Duration, LinkSpec, MetricsSnapshot, QueueStats, SimStats, SimTime};
use punch_rendezvous::{PeerId, RendezvousServer, ServerConfig};
use std::net::Ipv4Addr;

const A: PeerId = PeerId(1);
const B: PeerId = PeerId(2);

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn nums(&mut self, nums: &[u64]) {
        for n in nums {
            self.bytes(&n.to_le_bytes());
        }
    }

    fn outcome(&mut self, stats: SimStats, now: SimTime, queue: QueueStats, metrics: &MetricsSnapshot) {
        self.nums(&[
            stats.events,
            stats.packets_sent,
            stats.packets_delivered,
            stats.packets_lost,
            stats.device_drops,
            stats.link_down_drops,
            stats.packets_duplicated,
            stats.packets_reordered,
            stats.packets_corrupted,
            stats.packets_truncated,
            stats.faults_injected,
            now.as_nanos(),
            queue.depth_high_water,
            queue.pool_slots,
            queue.pool_recycled,
            queue.batches_coalesced,
        ]);
        self.bytes(metrics.to_json().as_bytes());
    }
}

fn peer(id: PeerId) -> PeerSetup {
    PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(id, Scenario::server_endpoint())))
}

/// The fixed punch script: register for 2 s, A connects to B, run 12 s
/// more, A sends one payload, run 1 s.
fn punch_and_fingerprint(mut sc: Scenario) -> u64 {
    sc.world.sim.enable_metrics();
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    sc.world.sim.run_for(Duration::from_secs(12));
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| {
        p.send(os, B, bytes::Bytes::from_static(b"wired"));
    });
    sc.world.sim.run_for(Duration::from_secs(1));
    let a = sc.world.app::<UdpPeer>(sc.a);
    assert!(a.is_established(B) || a.is_relaying(B), "the script left A without a path to B");
    let sim = &sc.world.sim;
    let mut h = Fnv::new();
    h.nums(&[sim.node_count() as u64]);
    h.outcome(sim.stats(), sim.now(), sim.queue_stats(), &sim.metrics_snapshot());
    h.0
}

#[test]
fn figure_worlds_keep_their_fingerprints() {
    let nat = NatBehavior::well_behaved;
    assert_eq!(
        punch_and_fingerprint(fig4(41, nat(), peer(A), peer(B))),
        FIG4,
        "fig4"
    );
    assert_eq!(
        punch_and_fingerprint(fig5(42, nat(), NatBehavior::symmetric(), peer(A), peer(B))),
        FIG5,
        "fig5"
    );
    assert_eq!(
        punch_and_fingerprint(fig6(43, nat(), nat(), nat(), peer(A), peer(B))),
        FIG6,
        "fig6"
    );
}

/// Every `WorldBuilder` method in one world, NAT and client declarations
/// interleaved, on jittered links so the id-seeded per-link draws count.
#[test]
fn builder_world_keeps_its_fingerprint() {
    let mut wb = WorldBuilder::new(44)
        .metrics()
        .wan(LinkSpec { jitter: Duration::from_millis(3), ..LinkSpec::wan() })
        .lan(LinkSpec { jitter: Duration::from_micros(150), ..LinkSpec::lan() });
    let s2_ip = Ipv4Addr::new(18, 181, 0, 32);
    let fleet = vec![Scenario::server_endpoint(), punch_net::Endpoint::new(s2_ip, 1234)];
    wb.server(
        addrs::SERVER,
        RendezvousServer::new(ServerConfig::default().with_fleet(fleet.clone(), 0)),
    );
    wb.server(s2_ip, RendezvousServer::new(ServerConfig::default().with_fleet(fleet, 1)));
    let isp = wb.nat(NatBehavior::well_behaved(), addrs::NAT_A);
    let mut jittery = peer(A);
    jittery.link = Some(LinkSpec { jitter: Duration::from_millis(1), ..LinkSpec::access() });
    let a = wb.client(addrs::CLIENT_A, isp, jittery);
    let home = wb.nat_behind(NatBehavior::full_cone(), addrs::ISP_NAT_B, isp);
    let b = wb.client(addrs::CLIENT_B, home, peer(B));
    let far = wb.nat(NatBehavior::port_restricted_cone(), addrs::NAT_B);
    wb.public_client(Ipv4Addr::new(99, 1, 1, 1), peer(PeerId(3)));
    wb.client(Ipv4Addr::new(10, 2, 2, 2), far, peer(PeerId(4)));
    let world = wb.build();
    assert_eq!((world.servers.len(), world.nats.len(), world.clients.len()), (2, 3, 4));
    let (third, fourth) = (world.clients[2], world.clients[3]);
    let mut sc = Scenario {
        server: world.servers[0],
        a: world.clients[a],
        b: world.clients[b],
        world,
    };
    // The public and far-side clients punch too, so every wired link
    // carries traffic before the shared script takes over.
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(third, |p, os| p.connect(os, PeerId(4)));
    sc.world.with_app::<UdpPeer, _>(fourth, |p, os| p.connect(os, A));
    assert_eq!(punch_and_fingerprint(sc), BUILDER, "builder world");
}

fn sharded_fingerprint(shards: usize, servers: usize) -> u64 {
    let mut cfg = ShardConfig::new(45, 12);
    cfg.shards = shards;
    cfg.servers = servers;
    cfg.metrics = true;
    cfg.symmetric_every = 4;
    cfg.workers = Some(1);
    let mut w = ShardedWorld::build(&cfg);
    w.run();
    let mut h = Fnv::new();
    h.bytes(w.report().as_bytes());
    h.nums(&[w.node_count() as u64, w.epochs()]);
    h.outcome(w.merged_stats(), w.now(), w.merged_queue_stats(), &w.merged_metrics());
    h.0
}

#[test]
fn sharded_worlds_keep_their_fingerprints() {
    for (shards, servers, pinned) in [
        (1, 1, SHARDED_1X1),
        (3, 1, SHARDED_3X1),
        (1, 3, SHARDED_1X3),
        (3, 3, SHARDED_3X3),
    ] {
        assert_eq!(
            sharded_fingerprint(shards, servers),
            pinned,
            "12 sessions, {shards} shard(s), {servers} server(s)"
        );
    }
}

// Captured at commit a8f46bf (PR 23), before `Backbone` existed.
const FIG4: u64 = 0xf99c_8948_f690_8739;
const FIG5: u64 = 0x1ca6_9110_0c0e_b1ee;
const FIG6: u64 = 0xd268_198c_c7b3_4aaa;
const BUILDER: u64 = 0xa51a_d99a_c3e1_6e20;
const SHARDED_1X1: u64 = 0xe192_6d1c_e130_1cc1;
const SHARDED_3X1: u64 = 0x4e33_26a1_77ad_1892;
const SHARDED_1X3: u64 = 0x2b21_d29f_4e50_c82a;
const SHARDED_3X3: u64 = 0x5c21_052e_9f75_c600;
