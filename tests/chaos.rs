//! Chaos tests: scripted faults (NAT reboots, rendezvous restarts, link
//! outages, behaviour flips) against the recovery machinery — liveness
//! detection, automatic re-punching, re-registration, and relay-to-direct
//! upgrades. Every scenario is deterministic under its seed.

use bytes::Bytes;
use p2p_punch::nat::FAULT_WELL_BEHAVED;
use p2p_punch::net::NodeId;
use p2p_punch::prelude::*;

const A: PeerId = PeerId(1);
const B: PeerId = PeerId(2);

/// A chaos-hardened peer config: fast liveness detection (1 s keepalives,
/// 3-miss limit), automatic re-punch with jittered backoff, a 2 s server
/// keepalive so registration loss is noticed quickly, and periodic
/// relay-to-direct probing.
fn resilient_cfg(id: PeerId) -> UdpPeerConfig {
    UdpPeerConfig::resilient(id, Scenario::server_endpoint())
}

fn resilient_peer(id: PeerId) -> PeerSetup {
    PeerSetup::new(UdpPeer::new(resilient_cfg(id)))
}

/// Figure-5 topology with two resilient peers, run to an established
/// direct session both ways.
fn established_pair(seed: u64) -> Scenario {
    established_pair_opts(seed, false)
}

/// [`established_pair`], optionally with the metrics registry enabled
/// before any traffic flows (so baseline counters are captured too).
fn established_pair_opts(seed: u64, metrics: bool) -> Scenario {
    let mut sc = fig5(
        seed,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        resilient_peer(A),
        resilient_peer(B),
    );
    if metrics {
        sc.world.sim.enable_metrics();
    }
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let deadline = sc.world.sim.now() + Duration::from_secs(20);
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(sc.a, deadline, |p| p.is_established(B)),
        "baseline punch succeeds"
    );
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(sc.b, deadline, |p| p.is_established(A)),
        "baseline punch succeeds on both sides"
    );
    sc
}

/// Restarts the devices on `nodes` at the current instant.
fn restart(sc: &mut Scenario, nodes: &[NodeId]) {
    let now = sc.world.sim.now();
    let plan = nodes.iter().fold(FaultPlan::new(), |plan, &n| plan.restart(now, n));
    sc.world.apply_faults(&plan);
}

/// Sends `payload` a→b and asserts it arrives directly.
fn assert_direct_data(sc: &mut Scenario, payload: &'static [u8]) {
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.send(os, B, Bytes::from_static(payload)));
    sc.world.sim.run_for(Duration::from_secs(2));
    let evs = sc.world.with_app::<UdpPeer, _>(sc.b, |p, _| p.take_events());
    assert!(
        evs.iter().any(|e| matches!(
            e,
            PeerEvent::Data { via: Via::Direct, data, .. } if data.as_ref() == payload
        )),
        "direct data should arrive, got {evs:?}"
    );
}

/// (a) A NAT reboot flushes every mapping and moves the port pool; the
/// peers' liveness detection notices the dead session and the automatic
/// re-punch re-establishes it on fresh mappings.
#[test]
fn udp_session_survives_nat_reboot() {
    let mut sc = established_pair(7);
    let old_remote_of_a = sc.world.app::<UdpPeer>(sc.b).session_remote(A).unwrap();
    // Drop the pre-fault event backlog.
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, _| p.take_events());
    sc.world.with_app::<UdpPeer, _>(sc.b, |p, _| p.take_events());

    let nat_a = sc.world.nats[0];
    restart(&mut sc, &[nat_a]);

    // The session dies (miss-based liveness) and then recovers.
    let deadline = sc.world.sim.now() + Duration::from_secs(30);
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(sc.b, deadline, |p| !p.is_established(A)),
        "B should notice the dead session"
    );
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(sc.b, deadline, |p| p.is_established(A)),
        "auto re-punch should re-establish the session"
    );
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(sc.a, deadline, |p| p.is_established(B)),
        "both sides recover"
    );

    let evs_b = sc.world.with_app::<UdpPeer, _>(sc.b, |p, _| p.take_events());
    assert!(
        evs_b
            .iter()
            .any(|e| matches!(e, PeerEvent::SessionDied { peer } if *peer == A)),
        "B should report the death, got {evs_b:?}"
    );
    let new_remote_of_a = sc.world.app::<UdpPeer>(sc.b).session_remote(A).unwrap();
    assert_ne!(
        old_remote_of_a, new_remote_of_a,
        "the rebooted NAT allocates from a shifted port pool, so the \
         recovered session must use a fresh mapping"
    );
    assert!(
        sc.world.nat(nat_a).stats().reboots >= 1,
        "the fault actually hit the NAT"
    );
    assert_direct_data(&mut sc, b"after-reboot");
}

/// The metrics registry attributes every failure to its reason: re-running
/// fault (a) with metrics enabled must leave the expected counter trail —
/// the reboot itself, the flushed mappings, the keepalive-timeout session
/// deaths, the automatic re-punch, and the recovered establishments (which
/// the punch-latency histogram also observed).
#[test]
fn fault_runs_record_failure_reason_counters() {
    let mut sc = established_pair_opts(7, true);
    let nat_a = sc.world.nats[0];
    restart(&mut sc, &[nat_a]);

    let deadline = sc.world.sim.now() + Duration::from_secs(30);
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(sc.b, deadline, |p| !p.is_established(A)),
        "B should notice the dead session"
    );
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(sc.b, deadline, |p| p.is_established(A)),
        "auto re-punch should re-establish the session"
    );
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(sc.a, deadline, |p| p.is_established(B)),
        "both sides recover"
    );

    let snap = sc.world.sim.metrics_snapshot();
    assert!(snap.counter("nat.reboot", "") >= 1, "reboot not counted");
    assert!(
        snap.counter("nat.mapping.flushed", "") >= 1,
        "the reboot flushed live mappings"
    );
    assert!(
        snap.counter("punch.session_died", "keepalive-timeout") >= 1,
        "liveness death must carry the keepalive-timeout reason, got {}",
        snap.to_json()
    );
    assert!(snap.counter("punch.repunch", "") >= 1, "no re-punch counted");
    // The baseline punch establishes both directions; recovery adds more.
    assert!(
        snap.counter("punch.established", "") >= 3,
        "expected baseline + recovery establishments"
    );
    let lat = snap.histogram("punch.latency").expect("latency histogram");
    assert_eq!(
        lat.count(),
        snap.counter("punch.established", ""),
        "every establishment observes the latency histogram"
    );
    assert_eq!(
        snap.counter_family("punch.failed"),
        0,
        "no punch gave up outright in this scenario"
    );
}

/// (b) The rendezvous server restarts with empty tables while its uplink
/// is down: both peers notice the lost registration (ServerLost), fall
/// back to the registration loop, and re-register once S returns; the
/// direct session is unaffected throughout. A double NAT reboot then
/// proves the restarted server's fresh tables still serve introductions.
#[test]
fn peers_reregister_and_reconnect_after_server_restart() {
    let mut sc = established_pair(11);
    let s = sc.server;
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, _| p.take_events());
    sc.world.with_app::<UdpPeer, _>(sc.b, |p, _| p.take_events());

    // S restarts (tables flushed) and stays unreachable for 8 s.
    let link = sc.world.uplink(s);
    let now = sc.world.sim.now();
    let plan = FaultPlan::new()
        .restart(now, s)
        .outage(now, Duration::from_secs(8), link);
    sc.world.apply_faults(&plan);

    sc.world.sim.run_for(Duration::from_secs(7));
    assert!(
        !sc.world.app::<UdpPeer>(sc.a).is_registered(),
        "A should notice S stopped acknowledging registrations"
    );
    assert!(
        sc.world.app::<UdpPeer>(sc.a).is_established(B),
        "the direct session does not depend on S"
    );
    let evs_a = sc.world.with_app::<UdpPeer, _>(sc.a, |p, _| p.take_events());
    assert!(
        evs_a.iter().any(|e| matches!(e, PeerEvent::ServerLost)),
        "A should surface the lost server, got {evs_a:?}"
    );

    sc.world.sim.run_for(Duration::from_secs(8));
    assert!(
        sc.world.app::<UdpPeer>(sc.a).is_registered(),
        "A re-registers once S is reachable again"
    );
    assert!(
        sc.world.app::<UdpPeer>(sc.b).is_registered(),
        "B re-registers once S is reachable again"
    );
    let evs_a = sc.world.with_app::<UdpPeer, _>(sc.a, |p, _| p.take_events());
    assert!(
        evs_a
            .iter()
            .any(|e| matches!(e, PeerEvent::Registered { .. })),
        "re-registration surfaces a fresh Registered event, got {evs_a:?}"
    );
    assert!(
        sc.world
            .with_app::<RendezvousServer, _>(s, |srv, _| srv.stats().restarts)
            >= 1,
        "the restart actually hit the server"
    );

    // The restarted S must serve introductions from its fresh tables:
    // kill the session outright by rebooting both NATs and recover.
    let (nat_a, nat_b) = (sc.world.nats[0], sc.world.nats[1]);
    restart(&mut sc, &[nat_a, nat_b]);
    let deadline = sc.world.sim.now() + Duration::from_secs(30);
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(sc.b, deadline, |p| !p.is_established(A)),
        "double reboot kills the session"
    );
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(sc.b, deadline, |p| p.is_established(A)),
        "re-punch through the restarted server succeeds"
    );
    assert_direct_data(&mut sc, b"after-restart");
}

/// (c) A persistently blocked pair (A behind a symmetric NAT) degrades
/// to relaying; once the blocking condition clears, the periodic relay
/// probe upgrades the session back to a direct path.
#[test]
fn relayed_pair_upgrades_to_direct_once_fault_clears() {
    let mk = |id: PeerId| {
        let mut cfg = resilient_cfg(id);
        // Keep the failure phase short: constant volley cadence and a
        // small budget, so the pair reaches the relay quickly.
        cfg.punch.backoff = 1.0;
        cfg.punch.backoff_jitter = 0.0;
        cfg.punch.max_attempts = 4;
        PeerSetup::new(UdpPeer::new(cfg))
    };
    let mut sc = fig5(
        13,
        NatBehavior::symmetric(),
        NatBehavior::well_behaved(),
        mk(A),
        mk(B),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let deadline = sc.world.sim.now() + Duration::from_secs(30);
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(sc.a, deadline, |p| p.is_relaying(B)),
        "symmetric NAT blocks the punch; the pair falls back to the relay"
    );

    // Relayed data flows.
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.send(os, B, Bytes::from_static(b"via-relay")));
    sc.world.sim.run_for(Duration::from_secs(2));
    let evs_b = sc.world.with_app::<UdpPeer, _>(sc.b, |p, _| p.take_events());
    assert!(
        evs_b.iter().any(|e| matches!(
            e,
            PeerEvent::Data { via: Via::Relay, data, .. } if data.as_ref() == b"via-relay"
        )),
        "relay carries traffic while blocked, got {evs_b:?}"
    );

    // The blocking condition clears: A's NAT becomes well-behaved.
    let nat_a = sc.world.nats[0];
    let now = sc.world.sim.now();
    sc.world
        .apply_faults(&FaultPlan::new().device_fault(now, nat_a, FAULT_WELL_BEHAVED));

    // The periodic relay probe discovers the now-punchable path.
    let deadline = sc.world.sim.now() + Duration::from_secs(30);
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(sc.a, deadline, |p| p.is_established(B)),
        "relay probe upgrades the session to a direct path"
    );
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(sc.b, deadline, |p| p.is_established(A)),
        "the upgrade lands on both sides"
    );
    assert_direct_data(&mut sc, b"direct-again");
}

/// §3.6 refinement: application traffic refreshes the NAT mapping, so
/// the keepalive timer suppresses its redundant datagram and reschedules
/// off the last packet actually sent; idle sessions still keep the
/// paper's cadence.
#[test]
fn app_traffic_suppresses_redundant_keepalives() {
    // Chatty pair: data every 400 ms, well under the 1 s keepalive
    // interval — the sender never needs a peer keepalive of its own.
    let mut sc = established_pair(31);
    for _ in 0..25 {
        sc.world
            .with_app::<UdpPeer, _>(sc.a, |p, os| p.send(os, B, Bytes::from_static(b"tick")));
        sc.world.sim.run_for(Duration::from_millis(400));
    }
    let stats = sc.world.app::<UdpPeer>(sc.a).stats();
    assert_eq!(
        stats.keepalives_sent, 0,
        "app traffic kept the mapping fresh: {stats:?}"
    );
    assert!(
        stats.keepalives_suppressed > 0,
        "the timer kept checking: {stats:?}"
    );
    assert!(
        sc.world.app::<UdpPeer>(sc.a).is_established(B),
        "suppression must not let the session rot"
    );

    // Idle pair: keepalives flow at the configured cadence.
    let mut idle = established_pair(32);
    idle.world.sim.run_for(Duration::from_secs(10));
    let stats = idle.world.app::<UdpPeer>(idle.a).stats();
    assert!(
        stats.keepalives_sent >= 8,
        "idle sessions keep the hole open: {stats:?}"
    );
    assert_eq!(stats.keepalives_suppressed, 0, "nothing to suppress: {stats:?}");
}

/// The NAT-reboot chaos scenario is byte-identical across reruns of the
/// same seed: identical event sequences, stats, and recovery timestamps.
#[test]
fn chaos_recovery_is_deterministic() {
    let fingerprint = |seed: u64| {
        let mut sc = established_pair(seed);
        let nat_a = sc.world.nats[0];
        restart(&mut sc, &[nat_a]);
        let deadline = sc.world.sim.now() + Duration::from_secs(30);
        sc.world
            .run_until_app::<UdpPeer>(sc.b, deadline, |p| !p.is_established(A));
        let died_at = sc.world.sim.now();
        sc.world
            .run_until_app::<UdpPeer>(sc.b, deadline, |p| p.is_established(A));
        let recovered_at = sc.world.sim.now();
        let evs_a = sc.world.with_app::<UdpPeer, _>(sc.a, |p, _| p.take_events());
        let evs_b = sc.world.with_app::<UdpPeer, _>(sc.b, |p, _| p.take_events());
        let stats_a = sc.world.app::<UdpPeer>(sc.a).stats();
        let stats_b = sc.world.app::<UdpPeer>(sc.b).stats();
        let sim_stats = sc.world.sim.stats();
        (
            format!("{died_at:?} {recovered_at:?} {evs_a:?} {evs_b:?} {stats_a:?} {stats_b:?}"),
            sim_stats,
        )
    };
    let (first, first_stats) = fingerprint(21);
    let (second, second_stats) = fingerprint(21);
    assert_eq!(first, second, "same seed, same chaos, same recovery");
    // SimStats equality ignores the wall-clock diagnostic field.
    assert_eq!(first_stats, second_stats, "identical engine trajectories");
    let (other, _) = fingerprint(22);
    assert_ne!(
        first, other,
        "a different seed should explore a different trajectory"
    );
}
