//! Quickstart: UDP hole punching across two NATs (the paper's Figure 5).
//!
//! Two clients on different private networks, each behind its own
//! well-behaved NAT, establish a direct UDP session with the help of the
//! rendezvous server S and exchange datagrams — no relaying involved.
//!
//! Run with: `cargo run --example quickstart`

use bytes::Bytes;
use p2p_punch::prelude::*;

fn main() {
    let a_id = PeerId(1);
    let b_id = PeerId(2);
    let server = Scenario::server_endpoint();

    println!("== Topology (paper Figure 5) ==");
    println!("  server S       {server}");
    println!("  NAT A          {} (well-behaved cone NAT)", addrs::NAT_A);
    println!("  NAT B          {} (well-behaved cone NAT)", addrs::NAT_B);
    println!("  client A       {} (private)", addrs::CLIENT_A);
    println!("  client B       {} (private)", addrs::CLIENT_B);
    println!();

    let mut sc = fig5(
        42,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(a_id, server))),
        PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(b_id, server))),
    );

    // Let both clients register with S.
    sc.world.sim.run_for(Duration::from_secs(2));
    let pub_a = sc
        .world
        .app::<UdpPeer>(sc.a)
        .public_endpoint()
        .expect("A registered");
    let pub_b = sc
        .world
        .app::<UdpPeer>(sc.b)
        .public_endpoint()
        .expect("B registered");
    println!("A registered; S observes it at {pub_a}");
    println!("B registered; S observes it at {pub_b}");

    // A asks S to introduce it to B, then both sides punch (§3.2).
    let punch_started = sc.world.sim.now();
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, b_id));
    let ok = sc
        .world
        .run_until_app::<UdpPeer>(sc.a, SimTime::from_secs(30), |p| p.is_established(b_id));
    assert!(ok, "punch failed");
    let elapsed = sc.world.sim.now() - punch_started;
    let remote = sc
        .world
        .app::<UdpPeer>(sc.a)
        .session_remote(b_id)
        .expect("established");
    println!();
    println!(
        "hole punched in {:.1} ms (simulated)",
        elapsed.as_secs_f64() * 1e3
    );
    println!("A locked in B's endpoint: {remote} (B's public NAT mapping)");

    // Exchange application data directly.
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| {
        p.send(os, b_id, Bytes::from_static(b"hello from A"))
    });
    sc.world.with_app::<UdpPeer, _>(sc.b, |p, os| {
        p.send(os, a_id, Bytes::from_static(b"hello from B"))
    });
    sc.world.sim.run_for(Duration::from_secs(1));

    for (node, name) in [(sc.a, "A"), (sc.b, "B")] {
        let events = sc
            .world
            .with_app::<UdpPeer, _>(node, |p, _| p.take_events());
        for ev in events {
            if let PeerEvent::Data { peer, data, via } = ev {
                println!(
                    "{name} received {:?} from {peer} via {via:?}",
                    String::from_utf8_lossy(&data)
                );
            }
        }
    }

    let stats = sc.world.app::<UdpPeer>(sc.a).stats();
    println!();
    println!(
        "A's endpoint stats: {} punch probes, {} direct messages, {} relayed",
        stats.probes_sent, stats.direct_msgs, stats.relay_msgs
    );
}
