//! A "voice call" over a punched UDP session, surviving an aggressive
//! NAT idle timer (§3.6).
//!
//! Both NATs expire idle UDP mappings after 20 seconds — the paper's
//! worst observed case. The call sends a 50 ms frame cadence for ten
//! seconds, goes silent for half a minute (keepalives hold the mapping),
//! resumes, then the clients stop keepalives entirely and demonstrate
//! on-demand re-punching when the next frame is sent.
//!
//! Run with: `cargo run --example voice_call`

use bytes::Bytes;
use p2p_punch::prelude::*;

fn main() {
    let a_id = PeerId(1);
    let b_id = PeerId(2);
    let server = Scenario::server_endpoint();
    let nat = NatBehavior::well_behaved().with_udp_timeout(Duration::from_secs(20));

    let cfg = |id| {
        let mut c = UdpPeerConfig::new(id, server);
        c.punch.keepalive_interval = Duration::from_secs(15); // < NAT timer
        c.punch.session_timeout = Duration::from_secs(45);
        c
    };
    let mut sc = fig5(
        11,
        nat.clone(),
        nat,
        PeerSetup::new(UdpPeer::new(cfg(a_id))),
        PeerSetup::new(UdpPeer::new(cfg(b_id))),
    );

    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, b_id));
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(sc.a, SimTime::from_secs(30), |p| p.is_established(b_id)));
    println!("call connected (direct, hole-punched)");

    // Ten seconds of 50 ms voice frames.
    let mut frames_b = 0usize;
    for i in 0..200u32 {
        sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| {
            p.send(os, b_id, Bytes::from(i.to_be_bytes().to_vec()))
        });
        sc.world.sim.run_for(Duration::from_millis(50));
        let events = sc
            .world
            .with_app::<UdpPeer, _>(sc.b, |p, _| p.take_events());
        frames_b += events
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
    }
    println!("talk phase: B played {frames_b}/200 frames, all direct");

    // Thirty silent seconds: the NAT timer is 20 s, but 15 s keepalives
    // hold the hole open.
    sc.world.sim.run_for(Duration::from_secs(30));
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| {
        p.send(os, b_id, Bytes::from_static(b"still there?"))
    });
    sc.world.sim.run_for(Duration::from_secs(1));
    let events = sc
        .world
        .with_app::<UdpPeer, _>(sc.b, |p, _| p.take_events());
    let direct = events.iter().any(|e| {
        matches!(
            e,
            PeerEvent::Data {
                via: Via::Direct,
                ..
            }
        )
    });
    println!(
        "after 30 s of silence: frame delivered directly = {direct} (keepalives held the mapping)"
    );
    assert!(direct);
    assert_eq!(sc.world.app::<UdpPeer>(sc.a).stats().repunches, 0);

    // Simulate a long suspend: sessions with slow keepalives die, and the
    // next send re-punches on demand (§3.6's recommended strategy).
    println!();
    println!("reconfiguring: keepalives effectively off; sleeping 120 s...");
    let mut sc2 = {
        let cfg2 = |id| {
            let mut c = UdpPeerConfig::new(id, server);
            c.punch.keepalive_interval = Duration::from_secs(600);
            c.punch.session_timeout = Duration::from_secs(60);
            c
        };
        let nat = NatBehavior::well_behaved().with_udp_timeout(Duration::from_secs(20));
        fig5(
            12,
            nat.clone(),
            nat,
            PeerSetup::new(UdpPeer::new(cfg2(a_id))),
            PeerSetup::new(UdpPeer::new(cfg2(b_id))),
        )
    };
    sc2.world.sim.run_for(Duration::from_secs(2));
    sc2.world
        .with_app::<UdpPeer, _>(sc2.a, |p, os| p.connect(os, b_id));
    sc2.world
        .run_until_app::<UdpPeer>(sc2.a, SimTime::from_secs(30), |p| p.is_established(b_id));
    sc2.world.sim.run_for(Duration::from_secs(120)); // both holes close

    sc2.world.with_app::<UdpPeer, _>(sc2.a, |p, os| {
        p.send(os, b_id, Bytes::from_static(b"wake up"))
    });
    let deadline = sc2.world.sim.now() + Duration::from_secs(30);
    let ok = sc2
        .world
        .run_until_app::<UdpPeer>(sc2.a, deadline, |p| p.is_established(b_id));
    assert!(ok);
    sc2.world.sim.run_for(Duration::from_secs(2));
    let events = sc2
        .world
        .with_app::<UdpPeer, _>(sc2.b, |p, _| p.take_events());
    let woke = events
        .iter()
        .any(|e| matches!(e, PeerEvent::Data { data, .. } if data.as_ref() == b"wake up"));
    let repunches = sc2.world.app::<UdpPeer>(sc2.a).stats().repunches;
    println!(
        "session died and re-punched on demand: {repunches} re-punch, frame delivered = {woke}"
    );
    assert!(woke && repunches >= 1);
}
