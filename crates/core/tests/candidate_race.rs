//! The candidate racing engine's end-to-end contracts: every plan the
//! tree builds races in a pinned order, the explicit {private, public}
//! plan replays the legacy `Basic` transcript byte-for-byte, races report
//! per-candidate outcomes, and a re-punch regenerates its candidate set
//! instead of clearing it.

use bytes::Bytes;
use holepunch::{
    CandidatePlan, CandidateSource, CandidateStamp, PeerId, PredictionStrategy, TcpPeer,
    TcpPeerConfig, TcpPeerEvent, UdpPeer, UdpPeerConfig, UdpPeerEvent, Via,
};
use punch_lab::{fig4, fig5, PeerSetup, Scenario};
use punch_nat::NatBehavior;
use punch_net::{Duration, SimTime};
use punch_transport::StackConfig;
use std::fmt::Write;

const A: PeerId = PeerId(1);
const B: PeerId = PeerId(2);

/// The paper's pair plus one self-predicted window.
fn predicting(strategy: PredictionStrategy) -> CandidatePlan {
    CandidatePlan::basic().with_source(CandidateSource::SelfPredicted(strategy))
}

/// The peer's public endpoint alone.
fn public_only() -> CandidatePlan {
    CandidatePlan::new().with_source(CandidateSource::PeerPublic)
}

/// One settled race as the order contract pins it: every stamp's
/// `(endpoint, kind, first_probe, first_response, won)`, in race order.
fn race_line(
    out: &mut String,
    who: &str,
    winner: Option<punch_net::Endpoint>,
    stamps: &[CandidateStamp],
) {
    let _ = write!(out, "{who} winner={winner:?}:");
    for s in stamps {
        let _ = write!(
            out,
            " ({}, {:?}, {:?}, {:?}, {})",
            s.endpoint, s.kind, s.first_probe, s.first_response, s.won
        );
    }
    out.push('\n');
}

/// Every race a UDP peer settled since the last drain, as `race_line`s.
fn udp_races(sc: &mut Scenario, out: &mut String) {
    for (who, node, peer) in [("A", sc.a, B), ("B", sc.b, A)] {
        for e in sc
            .world
            .with_app::<UdpPeer, _>(node, |p, _| p.take_events())
        {
            if let UdpPeerEvent::RaceSettled {
                peer: p,
                winner,
                candidates,
            } = e
            {
                if p == peer {
                    race_line(out, who, winner, &candidates);
                }
            }
        }
    }
}

/// Punches A → B under `plan` on fig5 behind `nat_a` and `nat_b`, then
/// lets both holes expire and sends from both ends so each peer
/// re-punches from its stored introduction. Returns every settled race.
fn udp_plan_races(
    seed: u64,
    nat_a: NatBehavior,
    nat_b: NatBehavior,
    plan: CandidatePlan,
) -> String {
    let expiring = |nat: NatBehavior| nat.with_udp_timeout(Duration::from_secs(20));
    let cfg = |id| {
        let mut c = UdpPeerConfig::new(id, Scenario::server_endpoint());
        c.punch = c.punch.clone().with_plan(plan.clone());
        c.punch.keepalive_interval = Duration::from_secs(300);
        c.punch.session_timeout = Duration::from_secs(60);
        PeerSetup::new(UdpPeer::new(c))
    };
    let mut sc = fig5(seed, expiring(nat_a), expiring(nat_b), cfg(A), cfg(B));
    let mut out = String::new();
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    sc.world.sim.run_for(Duration::from_secs(40));
    udp_races(&mut sc, &mut out);
    sc.world.sim.run_for(Duration::from_secs(200));
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.send(os, B, Bytes::from_static(b"wake")));
    sc.world
        .with_app::<UdpPeer, _>(sc.b, |p, os| p.send(os, A, Bytes::from_static(b"wake-b")));
    sc.world.sim.run_for(Duration::from_secs(60));
    out.push_str("-- re-punch\n");
    udp_races(&mut sc, &mut out);
    out
}

/// The race-order contract: every plan the tree builds races its
/// candidates in plan order, appends the peer's announced ports after
/// them, and probes every candidate on every volley. Pinned per stamp,
/// for the paper's pair, the public endpoint alone, the pair plus each
/// of the three prediction strategies against a symmetric pair (with a
/// re-punch that regenerates the set), and TCP's public-then-private
/// connect order.
#[test]
fn every_plan_races_in_plan_order() {
    let (cone, symmetric) = (NatBehavior::well_behaved, NatBehavior::symmetric);
    let mut got = String::new();
    let udp_cases = [
        ("basic", cone(), cone(), CandidatePlan::basic()),
        ("public_only", cone(), cone(), public_only()),
        (
            "sequential_delta",
            symmetric(),
            symmetric(),
            predicting(PredictionStrategy::SequentialDelta { window: 8 }),
        ),
        (
            "stride_multiple",
            symmetric(),
            cone(),
            predicting(PredictionStrategy::StrideMultiple { window: 8 }),
        ),
        (
            "window_around_observed",
            symmetric(),
            cone(),
            predicting(PredictionStrategy::WindowAroundObserved { radius: 8 }),
        ),
    ];
    for (name, nat_a, nat_b, plan) in udp_cases {
        let _ = writeln!(got, "== udp {name}");
        got.push_str(&udp_plan_races(41, nat_a, nat_b, plan));
    }

    let tcp = |id| {
        PeerSetup::new(TcpPeer::new(TcpPeerConfig::new(
            id,
            Scenario::server_endpoint(),
        )))
        .with_stack(StackConfig::fast())
    };
    let mut sc = fig5(
        43,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        tcp(A),
        tcp(B),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<TcpPeer, _>(sc.a, |p, os| p.connect(os, B));
    sc.world.sim.run_for(Duration::from_secs(40));
    got.push_str("== tcp basic\n");
    for (who, node, peer) in [("A", sc.a, B), ("B", sc.b, A)] {
        for e in sc
            .world
            .with_app::<TcpPeer, _>(node, |p, _| p.take_events())
        {
            if let TcpPeerEvent::RaceSettled {
                peer: p,
                winner,
                candidates,
            } = e
            {
                if p == peer {
                    race_line(&mut got, who, winner, &candidates);
                }
            }
        }
    }
    assert_eq!(got, RACES, "race order moved; got:\n{got}");
}

/// The pinned races, one `race_line` per settled race.
const RACES: &str = include_str!("candidate_race_order.txt");

/// Runs one fig5 punch + data exchange with `cfg_mod` applied to both
/// peers and returns every observable the transcript comparison cares
/// about: both peers' full event streams (`RaceSettled` included), both
/// punch latencies, and both locked-in remotes, Debug-rendered.
fn transcript(seed: u64, common_nat: bool, cfg_mod: impl Fn(&mut UdpPeerConfig)) -> String {
    let setup = |id| {
        let mut c = UdpPeerConfig::new(id, Scenario::server_endpoint());
        cfg_mod(&mut c);
        PeerSetup::new(UdpPeer::new(c))
    };
    let mut sc = if common_nat {
        fig4(seed, NatBehavior::well_behaved(), setup(A), setup(B))
    } else {
        fig5(
            seed,
            NatBehavior::well_behaved(),
            NatBehavior::well_behaved(),
            setup(A),
            setup(B),
        )
    };
    let (a, b) = (sc.a, sc.b);
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(a, |p, os| p.connect(os, B));
    let deadline = SimTime::from_secs(30);
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(a, deadline, |p| p.is_established(B)));
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(b, deadline, |p| p.is_established(A)));
    sc.world
        .with_app::<UdpPeer, _>(a, |p, os| p.send(os, B, Bytes::from_static(b"ping")));
    sc.world.sim.run_for(Duration::from_secs(2));

    let evs_a = sc.world.with_app::<UdpPeer, _>(a, |p, _| p.take_events());
    let evs_b = sc.world.with_app::<UdpPeer, _>(b, |p, _| p.take_events());
    format!(
        "clock={:?}\nA events: {evs_a:?}\nB events: {evs_b:?}\nA latency: {:?}\nB latency: {:?}\nA remote: {:?}\nB remote: {:?}\n",
        sc.world.sim.now(),
        sc.world.app::<UdpPeer>(a).punch_latency(B),
        sc.world.app::<UdpPeer>(b).punch_latency(A),
        sc.world.app::<UdpPeer>(a).session_remote(B),
        sc.world.app::<UdpPeer>(b).session_remote(A),
    )
}

/// The api_redesign degeneracy contract: a hand-built plan of exactly
/// {private, public} is the legacy `Basic` strategy, and the default
/// config (whose plan is that same pair) replays its transcript
/// byte-for-byte — events, latencies, remotes, and the final clock.
#[test]
fn explicit_private_public_plan_replays_the_legacy_transcript() {
    for (seed, common_nat) in [(1, false), (2, true), (7, false)] {
        let legacy = transcript(seed, common_nat, |_| {});
        let explicit = transcript(seed, common_nat, |c| {
            c.punch = c.punch.clone().with_plan(
                CandidatePlan::new()
                    .with_source(CandidateSource::PeerPrivate)
                    .with_source(CandidateSource::PeerPublic),
            );
        });
        assert_eq!(
            legacy, explicit,
            "explicit {{private, public}} plan diverged from the default (seed {seed})"
        );
    }
}

/// Satellite: per-candidate observability. A settled race reports every
/// candidate it tried, stamps the winner, and agrees with the locked-in
/// session remote.
#[test]
fn race_settled_reports_per_candidate_outcomes() {
    let mut sc = fig5(
        3,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(A, Scenario::server_endpoint()))),
        PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(B, Scenario::server_endpoint()))),
    );
    let (a, _b) = (sc.a, sc.b);
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(a, |p, os| p.connect(os, B));
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(a, SimTime::from_secs(30), |p| p.is_established(B)));

    let remote = sc.world.app::<UdpPeer>(a).session_remote(B).unwrap();
    let evs = sc.world.with_app::<UdpPeer, _>(a, |p, _| p.take_events());
    let (winner, candidates) = evs
        .iter()
        .find_map(|e| match e {
            UdpPeerEvent::RaceSettled {
                peer,
                winner,
                candidates,
            } if *peer == B => Some((*winner, candidates.clone())),
            _ => None,
        })
        .expect("a settled punch emits RaceSettled");
    assert_eq!(winner, Some(remote), "RaceSettled winner is the session remote");
    assert!(
        candidates.len() >= 2,
        "basic plan races private + public: {candidates:?}"
    );
    let won: Vec<_> = candidates.iter().filter(|s| s.won).collect();
    assert_eq!(won.len(), 1, "exactly one winning stamp: {candidates:?}");
    assert_eq!(won[0].endpoint, remote);
    assert!(
        won[0].first_probe.is_some() && won[0].first_response.is_some(),
        "the winner was probed and answered: {:?}",
        won[0]
    );
}

/// Satellite: re-punch regenerates the candidate set from the stored
/// introduction rather than clearing it — the second race is a real
/// race again (fresh stamps, a fresh winner), not an empty spray.
#[test]
fn repunch_regenerates_candidates_instead_of_clearing() {
    let nat = NatBehavior::well_behaved().with_udp_timeout(Duration::from_secs(20));
    let cfg = |id| {
        let mut c = UdpPeerConfig::new(id, Scenario::server_endpoint());
        c.punch.keepalive_interval = Duration::from_secs(300);
        c.punch.session_timeout = Duration::from_secs(60);
        PeerSetup::new(UdpPeer::new(c))
    };
    let mut sc = fig5(9, nat.clone(), nat, cfg(A), cfg(B));
    let (a, _b) = (sc.a, sc.b);
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(a, |p, os| p.connect(os, B));
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(a, SimTime::from_secs(30), |p| p.is_established(B)));
    // Drain the first race's events, then let both NAT holes expire.
    sc.world.with_app::<UdpPeer, _>(a, |p, _| p.take_events());
    sc.world.sim.run_for(Duration::from_secs(200));

    // The next send notices the dead session and re-punches.
    sc.world
        .with_app::<UdpPeer, _>(a, |p, os| p.send(os, B, Bytes::from_static(b"wake")));
    let deadline = sc.world.sim.now() + Duration::from_secs(30);
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(a, deadline, |p| p.is_established(B)));
    assert!(sc.world.app::<UdpPeer>(a).stats().repunches >= 1);

    let evs = sc.world.with_app::<UdpPeer, _>(a, |p, _| p.take_events());
    let settled: Vec<_> = evs
        .iter()
        .filter_map(|e| match e {
            UdpPeerEvent::RaceSettled {
                peer,
                winner,
                candidates,
            } if *peer == B => Some((winner, candidates)),
            _ => None,
        })
        .collect();
    assert!(!settled.is_empty(), "the re-punch settles a new race: {evs:?}");
    let (winner, candidates) = settled.last().unwrap();
    assert!(winner.is_some(), "re-punch re-established directly");
    assert!(
        !candidates.is_empty(),
        "regenerated candidate set is non-empty"
    );
    assert!(
        candidates.iter().any(|s| s.first_probe.is_some()),
        "regenerated candidates were actually sprayed: {candidates:?}"
    );
    // The re-established path still carries data directly.
    sc.world.sim.run_for(Duration::from_secs(5));
    let evs_b = sc.world.with_app::<UdpPeer, _>(sc.b, |p, _| p.take_events());
    assert!(
        evs_b
            .iter()
            .any(|e| matches!(e, UdpPeerEvent::Data { peer, data, via } if *peer == A && data.as_ref() == b"wake" && *via == Via::Direct)),
        "B events: {evs_b:?}"
    );
}

/// Re-punch must work with prediction sources in the plan too: the
/// regenerated set re-derives the predicted window from the stored
/// introduction and wins against a pair of symmetric NATs.
#[test]
fn repunch_regenerates_predicted_candidates_for_symmetric_nats() {
    let nat = NatBehavior::symmetric().with_udp_timeout(Duration::from_secs(20));
    let cfg = |id| {
        let mut c = UdpPeerConfig::new(id, Scenario::server_endpoint());
        c.punch = c
            .punch
            .clone()
            .with_plan(
                CandidatePlan::basic().with_source(CandidateSource::SelfPredicted(
                    PredictionStrategy::SequentialDelta { window: 5 },
                )),
            );
        c.punch.relay_fallback = false;
        c.punch.keepalive_interval = Duration::from_secs(300);
        c.punch.session_timeout = Duration::from_secs(60);
        PeerSetup::new(UdpPeer::new(c))
    };
    let mut sc = fig5(11, nat.clone(), nat, cfg(A), cfg(B));
    let (a, _b) = (sc.a, sc.b);
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(a, |p, os| p.connect(os, B));
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(a, SimTime::from_secs(30), |p| p.is_established(B)),
        "prediction beats the symmetric pair the first time"
    );
    let first_remote = sc.world.app::<UdpPeer>(a).session_remote(B);
    sc.world.with_app::<UdpPeer, _>(a, |p, _| p.take_events());
    sc.world.sim.run_for(Duration::from_secs(200));

    // Both sides must notice the death and re-race: a symmetric pair
    // only reconnects when both NATs punch fresh mappings.
    sc.world
        .with_app::<UdpPeer, _>(a, |p, os| p.send(os, B, Bytes::from_static(b"wake")));
    sc.world
        .with_app::<UdpPeer, _>(sc.b, |p, os| p.send(os, A, Bytes::from_static(b"wake-b")));
    let deadline = sc.world.sim.now() + Duration::from_secs(60);
    assert!(
        sc.world
            .run_until_app::<UdpPeer>(a, deadline, |p| p.is_established(B)),
        "the re-punch re-predicts and wins again (first remote {first_remote:?})"
    );
    assert!(sc.world.app::<UdpPeer>(a).stats().repunches >= 1);
    let evs = sc.world.with_app::<UdpPeer, _>(a, |p, _| p.take_events());
    let has_predicted_winner = evs.iter().any(|e| {
        matches!(
            e,
            UdpPeerEvent::RaceSettled { peer, winner: Some(_), candidates }
                if *peer == B && !candidates.is_empty()
        )
    });
    assert!(has_predicted_winner, "{evs:?}");
}

/// Fig-4 smoke for the racing engine: with private candidates in the
/// plan, the race's winner on a common NAT is the private endpoint.
#[test]
fn common_nat_race_winner_is_private() {
    let mut sc = fig4(
        5,
        NatBehavior::well_behaved(),
        PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(A, Scenario::server_endpoint()))),
        PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(B, Scenario::server_endpoint()))),
    );
    let (a, _b) = (sc.a, sc.b);
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(a, |p, os| p.connect(os, B));
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(a, SimTime::from_secs(30), |p| p.is_established(B)));
    let evs = sc.world.with_app::<UdpPeer, _>(a, |p, _| p.take_events());
    let winner = evs
        .iter()
        .find_map(|e| match e {
            UdpPeerEvent::RaceSettled { peer, winner, .. } if *peer == B => *winner,
            _ => None,
        })
        .expect("race settled");
    assert!(winner.ip.is_private(), "{winner}");
    assert_eq!(
        winner,
        sc.world.app::<UdpPeer>(a).session_remote(B).unwrap(),
        "RaceSettled winner is the locked-in remote"
    );
}
