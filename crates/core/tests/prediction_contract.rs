//! §5.1 port prediction, end to end: the ports a predicting client
//! announces, the ports it announces again after its NAT reboots (the
//! path that retires a dead race's allocations), what a client that
//! does not predict sends to S's probe port (nothing), and a probe that
//! is lost the first time.
//!
//! The announced ports are read where they land: as the `Predicted`
//! stamps in the other peer's `RaceSettled`.

use holepunch::{
    CandidateKind, CandidatePlan, CandidateSource, PeerEvent, PeerId, PredictionStrategy, UdpPeer,
    UdpPeerConfig,
};
use punch_lab::{fig5, PeerSetup, Scenario};
use punch_nat::NatBehavior;
use punch_net::{Duration, Endpoint, FaultPlan};
use punch_rendezvous::PROBE_PORT;

const A: PeerId = PeerId(1);
const B: PeerId = PeerId(2);

/// A resilient client (it re-punches on its own after a NAT reboot),
/// predicting with `SequentialDelta` when `predicts`.
fn client(id: PeerId, predicts: bool) -> PeerSetup {
    let mut cfg = UdpPeerConfig::resilient(id, Scenario::server_endpoint());
    if predicts {
        let plan = CandidatePlan::basic().with_source(CandidateSource::SelfPredicted(
            PredictionStrategy::SequentialDelta { window: 4 },
        ));
        cfg.punch = cfg.punch.clone().with_plan(plan);
    }
    PeerSetup::new(UdpPeer::new(cfg))
}

/// A predicts behind a sequential symmetric NAT; B races from behind a
/// cone NAT and predicts nothing.
fn predicting_pair(seed: u64) -> Scenario {
    fig5(
        seed,
        NatBehavior::symmetric(),
        NatBehavior::well_behaved(),
        client(A, true),
        client(B, false),
    )
}

/// The `Predicted` endpoints of every race `node` settled with `peer`
/// since the last drain, one list per race.
fn announced(sc: &mut Scenario, node: punch_net::NodeId, peer: PeerId) -> Vec<Vec<Endpoint>> {
    sc.world
        .with_app::<UdpPeer, _>(node, |p, _| p.take_events())
        .into_iter()
        .filter_map(|e| match e {
            PeerEvent::RaceSettled {
                peer: p,
                candidates,
                ..
            } if p == peer => Some(
                candidates
                    .iter()
                    .filter(|s| s.kind == CandidateKind::Predicted)
                    .map(|s| s.endpoint)
                    .collect(),
            ),
            _ => None,
        })
        .collect()
}

fn eps(ip: &str, ports: &[u16]) -> Vec<Endpoint> {
    ports
        .iter()
        .map(|p| format!("{ip}:{p}").parse().expect("endpoint literal"))
        .collect()
}

/// The first cycle announces the four ports after the probe's (A has
/// spent no allocation since the probe). After A's NAT reboots, A's
/// re-registration shows a new public endpoint (62512, the moved pool),
/// so A probes again (62513). Both ends re-punch; A's announcement then
/// counts the dead race's two destinations as spent (they are retired,
/// not forgotten) on top of the two the regenerated race sprays before
/// the fresh introduction, so it starts four ports above the new probe.
/// The race still ends on the relay: A's mapping toward B (62514) was
/// opened before the announcement, below its window. The pin holds the
/// anchor and the allocation count, not a working prediction.
#[test]
fn a_sequential_delta_client_announces_pinned_ports_before_and_after_its_nat_reboots() {
    let mut sc = predicting_pair(53);
    let (a, b) = (sc.a, sc.b);
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(a, |p, os| p.connect(os, B));
    sc.world.sim.run_for(Duration::from_secs(20));
    assert!(sc.world.app::<UdpPeer>(a).is_established(B));
    assert_eq!(
        announced(&mut sc, b, A),
        vec![eps("155.99.25.11", &[62002, 62003, 62004, 62005])],
        "first cycle"
    );

    let now = sc.world.sim.now();
    sc.world
        .apply_faults(&FaultPlan::new().restart(now, sc.world.nats[0]));
    sc.world.sim.run_for(Duration::from_secs(80));
    assert_eq!(sc.world.app::<UdpPeer>(a).stats().repunches, 1);
    assert_eq!(
        announced(&mut sc, b, A),
        vec![eps("155.99.25.11", &[62518, 62519, 62520, 62521])],
        "re-punch after the reboot"
    );
}

/// Every destination a NAT's mappings have exchanged traffic with.
fn destinations(sc: &Scenario, nat: usize) -> Vec<Endpoint> {
    let tables = sc.world.nat(sc.world.nats[nat]).tables();
    tables
        .iter()
        .flat_map(|m| m.allowed.iter().map(|(e, _)| *e))
        .collect()
}

/// A NAT reboot flushes the mapping the stride was measured against and
/// moves the port pool. The predicting client sees its re-registration
/// observed at a new public endpoint, sends S's probe port a `Ping`
/// again through the rebooted NAT, and anchors its next announcement
/// in the new pool (the rebooted NAT allocates from 62512).
#[test]
fn a_predicting_client_probes_again_after_its_nat_reboots() {
    let mut sc = predicting_pair(56);
    let (a, b) = (sc.a, sc.b);
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(a, |p, os| p.connect(os, B));
    sc.world.sim.run_for(Duration::from_secs(20));
    assert!(sc.world.app::<UdpPeer>(a).is_established(B));
    announced(&mut sc, b, A);

    let now = sc.world.sim.now();
    sc.world
        .apply_faults(&FaultPlan::new().restart(now, sc.world.nats[0]));
    sc.world.sim.run_for(Duration::from_secs(10));
    let probe = Endpoint::new(Scenario::server_endpoint().ip, PROBE_PORT);
    let to_a = destinations(&sc, 0);
    assert!(to_a.contains(&probe), "no probe since the reboot: {to_a:?}");
    // B settles the re-punched race (on the relay) within 80 s.
    sc.world.sim.run_for(Duration::from_secs(70));
    let races = announced(&mut sc, b, A);
    let ports: Vec<u16> = races.iter().flatten().map(|e| e.port).collect();
    assert!(
        !ports.is_empty() && ports.iter().all(|&p| p > 62512),
        "announced outside the moved pool: {races:?}"
    );
}

/// Only a client whose plan measures a stride talks to the probe port:
/// A (basic plan) never does, B (sequential delta) does.
#[test]
fn a_basic_plan_client_never_addresses_the_probe_port() {
    let mut sc = fig5(
        54,
        NatBehavior::symmetric(),
        NatBehavior::symmetric(),
        client(A, false),
        client(B, true),
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    sc.world.sim.run_for(Duration::from_secs(10));
    let probe = Endpoint::new(Scenario::server_endpoint().ip, PROBE_PORT);
    let (to_a, to_b) = (destinations(&sc, 0), destinations(&sc, 1));
    assert!(to_a.contains(&Scenario::server_endpoint()), "{to_a:?}");
    assert!(!to_a.contains(&probe), "basic client probed: {to_a:?}");
    assert!(
        to_b.contains(&probe),
        "predicting client never probed: {to_b:?}"
    );
}

/// A probe lost on its way out is sent again: the client's uplink is
/// cut right after its first registration is acknowledged, which drops
/// the one probe the first acknowledgement sends; a later punch still
/// announces predicted ports.
#[test]
fn a_lost_probe_is_sent_again() {
    let mut sc = predicting_pair(55);
    let (a, b) = (sc.a, sc.b);
    let deadline = sc.world.sim.now() + Duration::from_secs(5);
    assert!(sc
        .world
        .run_until_app::<UdpPeer>(a, deadline, |p| p.is_registered()));
    let uplink = sc.world.uplink(sc.world.nats[0]);
    let now = sc.world.sim.now();
    sc.world
        .apply_faults(&FaultPlan::new().outage(now, Duration::from_millis(500), uplink));
    sc.world.sim.run_for(Duration::from_secs(5));
    sc.world.with_app::<UdpPeer, _>(a, |p, os| p.connect(os, B));
    // Long enough for a race without predictions to give up on the
    // direct path, so either way B settles one.
    sc.world.sim.run_for(Duration::from_secs(80));
    let races = announced(&mut sc, b, A);
    assert_eq!(races.len(), 1, "{races:?}");
    assert!(
        !races[0].is_empty(),
        "no predicted ports after a lost probe: {races:?}"
    );
}

