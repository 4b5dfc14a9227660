//! File transfer over a hole-punched TCP stream (§4).
//!
//! Client A punches a TCP connection to client B through two NATs — one
//! of which actively RSTs unsolicited SYNs (§5.2), forcing the step-4
//! retry — then streams a 256 KiB "file" over the authenticated stream
//! and reports throughput and which socket-API path each side saw (§4.3).
//!
//! Run with: `cargo run --example file_transfer`

use bytes::Bytes;
use p2p_punch::prelude::*;

const FILE_SIZE: usize = 256 * 1024;
const CHUNK: usize = 8 * 1024;

fn main() {
    let a_id = PeerId(1);
    let b_id = PeerId(2);
    let server = Scenario::server_endpoint();

    // B's NAT rejects unsolicited SYNs with RST — not fatal, just slower.
    let rst_nat = NatBehavior::well_behaved().with_tcp_unsolicited(TcpUnsolicited::Rst);
    println!("NAT A: well-behaved (drops unsolicited SYNs)");
    println!("NAT B: RSTs unsolicited SYNs (§5.2) — expect a retry");
    println!();

    // B sits behind a slow access link, so A's first SYN reaches B's NAT
    // before B's own SYN has opened the hole — and meets the RST.
    let mut wb = WorldBuilder::new(7);
    wb.server(
        addrs::SERVER,
        RendezvousServer::new(ServerConfig::default()),
    );
    let na = wb.nat(NatBehavior::well_behaved(), addrs::NAT_A);
    let nb = wb.nat(rst_nat, addrs::NAT_B);
    wb.client(
        addrs::CLIENT_A,
        na,
        PeerSetup::new(TcpPeer::new(TcpPeerConfig::new(a_id, server)))
            .with_stack(StackConfig::fast().with_flavor(TcpFlavor::LinuxWindows)),
    );
    let mut b = PeerSetup::new(TcpPeer::new(TcpPeerConfig::new(b_id, server)))
        .with_stack(StackConfig::fast().with_flavor(TcpFlavor::Bsd));
    b.link = Some(LinkSpec::new(Duration::from_millis(120)));
    wb.client(addrs::CLIENT_B, nb, b);
    let world = wb.build();
    let mut sc = Scenario {
        server: world.servers[0],
        a: world.clients[0],
        b: world.clients[1],
        world,
    };

    sc.world.sim.run_for(Duration::from_secs(2));
    let started = sc.world.sim.now();
    sc.world
        .with_app::<TcpPeer, _>(sc.a, |p, os| p.connect(os, b_id));
    let ok = sc
        .world
        .run_until_app::<TcpPeer>(sc.a, SimTime::from_secs(40), |p| p.is_established(b_id));
    assert!(ok, "TCP punch failed");
    sc.world
        .run_until_app::<TcpPeer>(sc.b, SimTime::from_secs(40), |p| p.is_established(a_id));
    let punch_ms = (sc.world.sim.now() - started).as_secs_f64() * 1e3;

    let path_a = sc
        .world
        .app::<TcpPeer>(sc.a)
        .established_path(b_id)
        .expect("established");
    let path_b = sc
        .world
        .app::<TcpPeer>(sc.b)
        .established_path(a_id)
        .expect("established");
    let retries = sc.world.app::<TcpPeer>(sc.a).stats().retries;
    println!("TCP stream punched in {punch_ms:.1} ms (simulated), {retries} retried connect(s)");
    println!("A's stream surfaced via {path_a:?} (Linux/Windows-flavour stack)");
    println!("B's stream surfaced via {path_b:?} (BSD-flavour stack)");
    println!();

    // Stream the file A → B in chunks.
    let transfer_started = sc.world.sim.now();
    let payload = vec![0xabu8; CHUNK];
    let chunks = FILE_SIZE / CHUNK;
    for _ in 0..chunks {
        sc.world
            .with_app::<TcpPeer, _>(sc.a, |p, os| p.send(os, b_id, Bytes::from(payload.clone())));
    }
    // Run until B has received everything.
    let mut received = 0usize;
    let deadline = sc.world.sim.now() + Duration::from_secs(120);
    while received < FILE_SIZE && sc.world.sim.now() < deadline {
        sc.world.sim.run_for(Duration::from_millis(100));
        let events = sc
            .world
            .with_app::<TcpPeer, _>(sc.b, |p, _| p.take_events());
        for ev in events {
            if let PeerEvent::Data { data, .. } = ev {
                received += data.len();
            }
        }
    }
    let secs = (sc.world.sim.now() - transfer_started).as_secs_f64();
    assert_eq!(received, FILE_SIZE, "incomplete transfer");
    println!(
        "transferred {} KiB in {:.2} s (simulated) = {:.1} KiB/s through both NATs",
        received / 1024,
        secs,
        received as f64 / 1024.0 / secs
    );
}
