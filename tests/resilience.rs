//! Failure injection and scale tests across the whole stack.

use bytes::Bytes;
use p2p_punch::prelude::*;
use p2p_punch::punch::{TcpPeer, TcpPeerConfig, UdpPeer, UdpPeerConfig};
use punch_lab::{addrs, PeerSetup, World, WorldBuilder};

/// A full mesh of four clients behind four distinct NATs: every pair
/// punches, every pair exchanges data, sessions coexist on one socket.
#[test]
fn four_way_udp_mesh() {
    let server = Scenario::server_endpoint();
    let mut wb = WorldBuilder::new(1);
    wb.server(
        addrs::SERVER,
        RendezvousServer::new(ServerConfig::default()),
    );
    let ips = ["20.0.0.1", "21.0.0.1", "22.0.0.1", "23.0.0.1"];
    let mut nodes = Vec::new();
    for (i, pub_ip) in ips.iter().enumerate() {
        let nat = wb.nat(NatBehavior::well_behaved(), pub_ip.parse().unwrap());
        let idx = wb.client(
            format!("10.0.{i}.1").parse().unwrap(),
            nat,
            PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(
                PeerId(i as u64 + 1),
                server,
            ))),
        );
        nodes.push(idx);
    }
    let world = wb.build();
    let clients: Vec<_> = nodes.iter().map(|&i| world.clients[i]).collect();
    let mut world = world;
    world.sim.run_for(Duration::from_secs(2));

    // Everyone connects to everyone with a higher id.
    for (i, &node) in clients.iter().enumerate() {
        for j in (i + 1)..4 {
            let target = PeerId(j as u64 + 1);
            world.with_app::<UdpPeer, _>(node, |p, os| p.connect(os, target));
        }
    }
    world.sim.run_for(Duration::from_secs(15));
    for (i, &node) in clients.iter().enumerate() {
        for j in 0..4 {
            if i == j {
                continue;
            }
            assert!(
                world
                    .app::<UdpPeer>(node)
                    .is_established(PeerId(j as u64 + 1)),
                "client {i} should reach client {j}"
            );
        }
    }
    // Data across every pair.
    for (i, &node) in clients.iter().enumerate() {
        for j in 0..4 {
            if i == j {
                continue;
            }
            let target = PeerId(j as u64 + 1);
            let msg = Bytes::from(format!("{i}->{j}"));
            world.with_app::<UdpPeer, _>(node, |p, os| p.send(os, target, msg));
        }
    }
    world.sim.run_for(Duration::from_secs(3));
    for (j, &node) in clients.iter().enumerate() {
        let events = world.with_app::<UdpPeer, _>(node, |p, _| p.take_events());
        let got = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    PeerEvent::Data {
                        via: Via::Direct,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(got, 3, "client {j} hears from all three peers");
    }
}

/// The rendezvous server restarts (drops every connection and forgets all
/// registrations); TCP peers must reconnect, re-register, and still punch.
#[test]
fn tcp_peers_survive_rendezvous_restart() {
    let server = Scenario::server_endpoint();
    let mk = |id| {
        PeerSetup::new(TcpPeer::new(TcpPeerConfig::new(id, server))).with_stack(StackConfig::fast())
    };
    let mut wb = WorldBuilder::new(2);
    wb.server(
        addrs::SERVER,
        RendezvousServer::new(ServerConfig::default()),
    );
    let na = wb.nat(NatBehavior::well_behaved(), addrs::NAT_A);
    let nb = wb.nat(NatBehavior::well_behaved(), addrs::NAT_B);
    wb.client(addrs::CLIENT_A, na, mk(PeerId(1)));
    wb.client(addrs::CLIENT_B, nb, mk(PeerId(2)));
    let mut world = wb.build();
    let (s, a, b) = (world.servers[0], world.clients[0], world.clients[1]);
    let registered = |world: &mut World| {
        world.with_app::<TcpPeer, _>(a, |p, _| p.take_events())
            .iter()
            .any(|e| matches!(e, PeerEvent::Registered { .. }))
    };
    world.sim.run_for(Duration::from_secs(2));
    assert!(registered(&mut world), "registered before restart");

    // Server "restarts".
    world.restart(s);
    world.sim.run_for(Duration::from_secs(5));
    assert!(registered(&mut world), "client re-registered after the restart");

    // And punching still works end to end.
    world.with_app::<TcpPeer, _>(a, |p, os| p.connect(os, PeerId(2)));
    let deadline = world.sim.now() + Duration::from_secs(40);
    assert!(world.run_until_app::<TcpPeer>(a, deadline, |p| p.is_established(PeerId(2))));
    assert!(world.run_until_app::<TcpPeer>(b, deadline, |p| p.is_established(PeerId(1))));
}

/// A UDP peer talking to two different peers at once keeps independent
/// sessions (one socket, many holes — §4.2's contrast with TCP).
#[test]
fn one_socket_many_sessions() {
    let server = Scenario::server_endpoint();
    let mut wb = WorldBuilder::new(3);
    wb.server(
        addrs::SERVER,
        RendezvousServer::new(ServerConfig::default()),
    );
    let hub_nat = wb.nat(NatBehavior::well_behaved(), addrs::NAT_A);
    let hub = wb.client(
        addrs::CLIENT_A,
        hub_nat,
        PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(PeerId(1), server))),
    );
    let nb = wb.nat(NatBehavior::well_behaved(), addrs::NAT_B);
    let b = wb.client(
        addrs::CLIENT_B,
        nb,
        PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(PeerId(2), server))),
    );
    let nc = wb.nat(NatBehavior::symmetric(), "99.9.9.9".parse().unwrap());
    let c = wb.client(
        "10.2.2.2".parse().unwrap(),
        nc,
        PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(PeerId(3), server))),
    );
    let world = wb.build();
    let (hub, b, c) = (world.clients[hub], world.clients[b], world.clients[c]);
    let mut world = world;
    world.sim.run_for(Duration::from_secs(2));
    world.with_app::<UdpPeer, _>(hub, |p, os| {
        p.connect(os, PeerId(2));
        p.connect(os, PeerId(3));
    });
    world.sim.run_for(Duration::from_secs(20));
    let app = world.app::<UdpPeer>(hub);
    assert!(app.is_established(PeerId(2)), "cone peer: direct");
    assert!(app.is_relaying(PeerId(3)), "symmetric peer: relayed");
    // The two outcomes coexist on one socket; data routes per session.
    world.with_app::<UdpPeer, _>(hub, |p, os| {
        p.send(os, PeerId(2), Bytes::from_static(b"to-b"));
        p.send(os, PeerId(3), Bytes::from_static(b"to-c"));
    });
    world.sim.run_for(Duration::from_secs(2));
    let evs_b = world.with_app::<UdpPeer, _>(b, |p, _| p.take_events());
    let evs_c = world.with_app::<UdpPeer, _>(c, |p, _| p.take_events());
    assert!(evs_b
        .iter()
        .any(|e| matches!(e, PeerEvent::Data { data, via: Via::Direct, .. } if data.as_ref() == b"to-b")));
    assert!(evs_c
        .iter()
        .any(|e| matches!(e, PeerEvent::Data { data, via: Via::Relay, .. } if data.as_ref() == b"to-c")));
}
