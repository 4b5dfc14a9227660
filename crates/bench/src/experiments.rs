//! Reusable experiment harnesses (see DESIGN.md's experiment index).

use bytes::Bytes;
use holepunch::{
    CandidatePlan, CandidateSource, PeerEvent, PeerId, PredictionStrategy, TcpPeer,
    TcpPeerConfig, TcpPunchMode, UdpPeer, UdpPeerConfig, Via,
};
use punch_lab::{addrs, fig4, fig5, fig5_builder, fig6, PeerSetup, Scenario, WorldBuilder};
use punch_nat::{NatBehavior, PortAllocation};
use punch_net::{Duration, Endpoint, Json, LinkSpec, MetricsSnapshot, SimTime};
use punch_rendezvous::{RendezvousServer, ServerConfig};
use punch_transport::{App, Os, SockEvent, SocketId, StackConfig, TcpFlavor};

/// The two peer identities used throughout.
pub const A: PeerId = PeerId(1);
/// Peer B.
pub const B: PeerId = PeerId(2);

/// How a connection attempt ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Direct (hole-punched) connectivity, with the punch latency.
    Direct(Duration),
    /// Fell back to relaying through S.
    Relay,
    /// No connectivity at all.
    Failed,
}

impl Outcome {
    /// Short cell label for matrices.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Direct(_) => "direct",
            Outcome::Relay => "relay",
            Outcome::Failed => "FAILED",
        }
    }
}

/// Which topology an experiment runs on.
#[derive(Clone, Debug)]
pub enum Topology {
    /// Figure 4: both peers behind one common NAT.
    CommonNat(NatBehavior),
    /// Figure 5: peers behind different NATs. `None` = publicly attached.
    TwoNats(Option<NatBehavior>, Option<NatBehavior>),
    /// Figure 6: consumer NATs behind an ISP NAT.
    MultiLevel {
        /// The ISP NAT (hairpin support is what matters).
        isp: NatBehavior,
        /// The consumer NATs.
        consumer: NatBehavior,
    },
}

fn build_udp(
    topo: &Topology,
    seed: u64,
    cfg_mod: &dyn Fn(&mut UdpPeerConfig),
    wan: LinkSpec,
) -> Scenario {
    let server = Scenario::server_endpoint();
    let mk = |id: PeerId| {
        let mut c = UdpPeerConfig::new(id, server);
        cfg_mod(&mut c);
        PeerSetup::new(UdpPeer::new(c))
    };
    match topo {
        Topology::CommonNat(nat) => fig4(seed, nat.clone(), mk(A), mk(B)),
        Topology::TwoNats(Some(na), Some(nb)) => {
            let (na, nb) = (na.clone(), nb.clone());
            let wb = fig5_builder(seed, ServerConfig::default(), na, nb, mk(A), mk(B));
            Scenario::new(wb.wan(wan).build())
        }
        // A peer on the public Internet: not Figure 5.
        Topology::TwoNats(na, nb) => {
            let mut wb = WorldBuilder::new(seed).wan(wan);
            wb.server(addrs::SERVER, RendezvousServer::new(ServerConfig::default()));
            for (id, nat, nat_ip, client_ip, public_ip) in [
                (A, na, addrs::NAT_A, addrs::CLIENT_A, [99, 1, 1, 1]),
                (B, nb, addrs::NAT_B, addrs::CLIENT_B, [99, 2, 2, 2]),
            ] {
                match nat {
                    Some(nat) => {
                        let n = wb.nat(nat.clone(), nat_ip);
                        wb.client(client_ip, n, mk(id))
                    }
                    None => wb.public_client(public_ip.into(), mk(id)),
                };
            }
            Scenario::new(wb.build())
        }
        Topology::MultiLevel { isp, consumer } => fig6(
            seed,
            isp.clone(),
            consumer.clone(),
            consumer.clone(),
            mk(A),
            mk(B),
        ),
    }
}

/// Lets both registrations settle (2 s), has A connect to B, and runs
/// until `done` holds on A or `deadline` passes.
fn udp_connect(sc: &mut Scenario, deadline: SimTime, done: impl Fn(&UdpPeer) -> bool) -> bool {
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    sc.world.run_until_app::<UdpPeer>(sc.a, deadline, done)
}

/// Runs a UDP punch on `topo` and reports the outcome (E2/E3/E4/E16).
pub fn udp_punch(topo: Topology, seed: u64, cfg_mod: impl Fn(&mut UdpPeerConfig)) -> Outcome {
    udp_punch_on(topo, seed, cfg_mod, LinkSpec::wan(), false).0
}

/// [`udp_punch`] with a custom WAN link profile (latency/loss sweeps).
/// With `metrics` the registry is enabled — which never changes the
/// outcome — and the returned [`MetricsSnapshot`] carries the `punch.*`
/// counters, per-layer drop counters and the `punch.latency` histogram;
/// without, it is empty.
pub fn udp_punch_on(
    topo: Topology,
    seed: u64,
    cfg_mod: impl Fn(&mut UdpPeerConfig),
    wan: LinkSpec,
    metrics: bool,
) -> (Outcome, MetricsSnapshot) {
    let mut sc = build_udp(&topo, seed, &cfg_mod, wan);
    if metrics {
        sc.world.sim.enable_metrics();
    }
    let started = SimTime::from_secs(2);
    let deadline = started + Duration::from_secs(60);
    udp_connect(&mut sc, deadline, |p| p.is_established(B) || p.is_relaying(B));
    let app = sc.world.app::<UdpPeer>(sc.a);
    let outcome = if app.is_established(B) {
        Outcome::Direct(sc.world.sim.now() - started)
    } else if app.is_relaying(B) {
        Outcome::Relay
    } else {
        Outcome::Failed
    };
    (outcome, sc.world.sim.metrics_snapshot())
}

/// Figure 5 with [`TcpPeer`]s on the given OS flavours, B optionally
/// behind a slow access link to skew SYN timing.
fn tcp_scenario(
    seed: u64,
    [nat_a, nat_b]: [NatBehavior; 2],
    [flavor_a, flavor_b]: [TcpFlavor; 2],
    b_link: Option<LinkSpec>,
    cfg_mod: impl Fn(&mut TcpPeerConfig),
) -> Scenario {
    let mk = |id: PeerId, flavor: TcpFlavor| {
        let mut c = TcpPeerConfig::new(id, Scenario::server_endpoint());
        cfg_mod(&mut c);
        PeerSetup::new(TcpPeer::new(c)).with_stack(StackConfig::fast().with_flavor(flavor))
    };
    let a = mk(A, flavor_a);
    let mut b = mk(B, flavor_b);
    b.link = b_link;
    Scenario::new(fig5_builder(seed, ServerConfig::default(), nat_a, nat_b, a, b).build())
}

/// Runs a TCP punch between two NATs (with an optional slow access link
/// for B to skew SYN timing) and returns the punch latency (E6/E8/E10).
pub fn tcp_punch_latency(
    seed: u64,
    nat_a: NatBehavior,
    nat_b: NatBehavior,
    b_link: Option<LinkSpec>,
    cfg_mod: impl Fn(&mut TcpPeerConfig),
) -> Option<Duration> {
    let flavors = [TcpFlavor::LinuxWindows; 2];
    let mut sc = tcp_scenario(seed, [nat_a, nat_b], flavors, b_link, cfg_mod);
    sc.world.sim.run_for(Duration::from_secs(2));
    let started = sc.world.sim.now();
    sc.world
        .with_app::<TcpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let ok = sc
        .world
        .run_until_app::<TcpPeer>(sc.a, started + Duration::from_secs(60), |p| {
            p.is_established(B)
        });
    ok.then(|| sc.world.sim.now() - started)
}

/// Background traffic behind a NAT: opens a new outbound destination
/// every `interval`, consuming one symmetric-NAT port allocation each
/// time — the §5.1 "another client behind the same NAT might initiate an
/// unrelated session at the wrong time" hazard.
pub struct Chatterer {
    /// Interval between new destinations.
    pub interval: Duration,
    sock: Option<SocketId>,
    next_port: u16,
}

impl Chatterer {
    /// Creates a chatterer opening a new flow every `interval`.
    pub fn new(interval: Duration) -> Self {
        Chatterer {
            interval,
            sock: None,
            next_port: 20000,
        }
    }
}

impl App for Chatterer {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        #[expect(clippy::expect_used, reason = "fresh sim host always has a free ephemeral port")]
        let sock = os.udp_bind(0).expect("port");
        self.sock = Some(sock);
        os.set_timer(self.interval, 1);
    }

    fn on_event(&mut self, _os: &mut Os<'_, '_>, _ev: SockEvent) {}

    fn on_timer(&mut self, os: &mut Os<'_, '_>, _token: u64) {
        if let Some(sock) = self.sock {
            let dst = Endpoint::new(addrs::SERVER, self.next_port);
            self.next_port = self.next_port.wrapping_add(1).max(20000);
            let _ = os.udp_send(sock, dst, b"noise".as_ref());
        }
        os.set_timer(self.interval, 1);
    }
}

/// One E9 trial: symmetric NAT on A's side with the given allocator;
/// port-prediction punch with `window` (0: the basic plan, no
/// prediction); optional competing traffic behind A's NAT. Returns
/// whether a direct session formed.
fn prediction_trial(
    seed: u64,
    alloc: PortAllocation,
    window: u16,
    chatter: Option<Duration>,
) -> bool {
    let server = Scenario::server_endpoint();
    let plan = if window == 0 {
        CandidatePlan::basic()
    } else {
        CandidatePlan::basic().with_source(CandidateSource::SelfPredicted(
            PredictionStrategy::SequentialDelta { window },
        ))
    };
    let mk = |id: PeerId| {
        let mut c = UdpPeerConfig::new(id, server);
        c.punch = c.punch.clone().with_plan(plan.clone());
        c.punch.relay_fallback = false;
        PeerSetup::new(UdpPeer::new(c))
    };
    let symmetric = NatBehavior {
        mapping: punch_nat::MappingPolicy::AddressAndPortDependent,
        port_alloc: alloc,
        ..NatBehavior::well_behaved()
    };
    let well = NatBehavior::well_behaved();
    let mut wb = fig5_builder(seed, ServerConfig::default(), symmetric, well, mk(A), mk(B));
    if let Some(interval) = chatter {
        // Behind NAT A (index 0), sharing its allocator with A.
        wb.client([10, 0, 0, 9].into(), 0, PeerSetup::new(Chatterer::new(interval)));
    }
    let mut sc = Scenario::new(wb.build());
    udp_connect(&mut sc, SimTime::from_secs(40), |p| p.is_established(B))
}

/// Success rate of `prediction_trial` over `n` seeds. Trials are
/// independent simulations, so they fan out on the [`punch_lab::par`]
/// pool.
pub fn prediction_rate(
    base_seed: u64,
    n: u64,
    alloc: PortAllocation,
    window: u16,
    chatter: Option<Duration>,
) -> f64 {
    let wins = punch_lab::par::run_n(n as usize, |i| {
        prediction_trial(base_seed + i as u64 * 7919, alloc, window, chatter)
    })
    .into_iter()
    .filter(|&won| won)
    .count();
    wins as f64 / n as f64
}

/// E12: round-trip time of an application message over the punched direct
/// path vs. over the relay, plus the server's relayed-byte count.
pub fn relay_vs_direct(seed: u64, payload: usize) -> (Duration, Duration, u64) {
    let server = Scenario::server_endpoint();
    // Direct: normal punch.
    let direct_rtt = {
        let mk = |id| PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(id, server)));
        let nat = NatBehavior::well_behaved();
        let mut sc = fig5(seed, nat.clone(), nat, mk(A), mk(B));
        udp_connect(&mut sc, SimTime::from_secs(30), |p| p.is_established(B));
        measure_rtt(&mut sc, payload)
    };
    // Relay: punching disabled entirely (candidates can't work: private
    // disabled and both NATs symmetric).
    let (relay_rtt, relayed_bytes) = {
        let mk = |id| {
            let mut c = UdpPeerConfig::new(id, server);
            c.punch.max_attempts = 1;
            c.punch.spray_interval = Duration::from_millis(100);
            PeerSetup::new(UdpPeer::new(c))
        };
        let nat = NatBehavior::symmetric();
        let mut sc = fig5(seed, nat.clone(), nat, mk(A), mk(B));
        udp_connect(&mut sc, SimTime::from_secs(30), |p| p.is_relaying(B));
        let rtt = measure_rtt(&mut sc, payload);
        let stats = sc.world.app::<RendezvousServer>(sc.server).stats();
        (rtt, stats.relayed_bytes)
    };
    (direct_rtt, relay_rtt, relayed_bytes)
}

/// Sends one payload A→B, auto-replies from B, and measures the
/// application-level round trip (capped at 20 s).
fn measure_rtt(sc: &mut Scenario, payload: usize) -> Duration {
    let started = sc.world.sim.now();
    let (a, b) = (sc.a, sc.b);
    let mut exchange = |from, to_id, to, fill: u8| {
        sc.world.with_app::<UdpPeer, _>(from, |p, os| {
            p.send(os, to_id, Bytes::from(vec![fill; payload]))
        });
        // Poll the receiver every simulated millisecond for the payload.
        loop {
            sc.world.sim.run_for(Duration::from_millis(1));
            let got = sc.world.with_app::<UdpPeer, _>(to, |p, _| p.take_events());
            if got.iter().any(|e| matches!(e, PeerEvent::Data { .. })) {
                return Some(sc.world.sim.now() - started);
            }
            if sc.world.sim.now() > started + Duration::from_secs(20) {
                return None;
            }
        }
    };
    exchange(a, B, b, 1)
        .and_then(|_| exchange(b, A, a, 2))
        .unwrap_or(Duration::from_secs(20))
}

/// E5: does a punched session survive `idle` of application silence with
/// the given keepalive interval and NAT timer? Returns `(survived,
/// repunches_needed_to_recover)`.
pub fn keepalive_trial(
    seed: u64,
    nat_timeout: Duration,
    keepalive: Duration,
    idle: Duration,
) -> (bool, u64) {
    let nat = NatBehavior::well_behaved().with_udp_timeout(nat_timeout);
    let mk = |id| {
        let mut c = UdpPeerConfig::new(id, Scenario::server_endpoint());
        c.punch.keepalive_interval = keepalive;
        c.punch.session_timeout = idle + Duration::from_secs(60);
        PeerSetup::new(UdpPeer::new(c))
    };
    let mut sc = fig5(seed, nat.clone(), nat, mk(A), mk(B));
    udp_connect(&mut sc, SimTime::from_secs(30), |p| p.is_established(B));
    sc.world.sim.run_for(idle);
    // Probe the session.
    sc.world
        .with_app::<UdpPeer, _>(sc.a, |p, os| p.send(os, B, Bytes::from_static(b"probe")));
    sc.world.sim.run_for(Duration::from_secs(2));
    let got: Vec<PeerEvent> = sc
        .world
        .with_app::<UdpPeer, _>(sc.b, |p, _| p.take_events());
    let survived = got.iter().any(|e| {
        matches!(
            e,
            PeerEvent::Data {
                via: Via::Direct,
                ..
            }
        )
    });
    (survived, sc.world.app::<UdpPeer>(sc.a).stats().repunches)
}

/// E8: sequential (§4.5) vs parallel (§4.2) TCP punch latency for one
/// seed, as `(parallel, sequential)`; `None` where the punch failed.
pub fn seq_vs_par(seed: u64, doomed_wait: Duration) -> (Option<Duration>, Option<Duration>) {
    let par = tcp_punch_latency(
        seed,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        None,
        |_| {},
    );
    let seq = tcp_punch_latency(
        seed,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        None,
        |c| c.mode = TcpPunchMode::Sequential { doomed_wait },
    );
    (par, seq)
}

/// E6: runs a TCP punch with the given OS flavours (B behind a slow link
/// so A's SYN always loses the race) and reports how the stream surfaced
/// on each side (§4.3's observable matrix).
pub fn tcp_flavor_paths(
    seed: u64,
    flavor_a: TcpFlavor,
    flavor_b: TcpFlavor,
) -> Option<(holepunch::TcpPath, holepunch::TcpPath)> {
    let mut sc = tcp_scenario(
        seed,
        [NatBehavior::well_behaved(), NatBehavior::well_behaved()],
        [flavor_a, flavor_b],
        Some(LinkSpec::new(Duration::from_millis(120))),
        |_| {},
    );
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world
        .with_app::<TcpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let deadline = SimTime::from_secs(60);
    let w = &mut sc.world;
    if !w.run_until_app::<TcpPeer>(sc.a, deadline, |p| p.is_established(B))
        || !w.run_until_app::<TcpPeer>(sc.b, deadline, |p| p.is_established(A))
    {
        return None;
    }
    Some((
        w.app::<TcpPeer>(sc.a).established_path(B)?,
        w.app::<TcpPeer>(sc.b).established_path(A)?,
    ))
}

/// Renders named [`MetricsSnapshot`] sections as one JSON document,
/// `{"<name>": <snapshot>, ...}`, in the order given — the
/// `metrics_*.json` artifacts.
pub fn metrics_report(sections: &[(&str, MetricsSnapshot)]) -> String {
    Json::obj(sections.iter().map(|(name, snap)| (*name, snap.json()))).render()
}

/// Formats a duration in milliseconds for reports.
pub fn ms(d: Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}

/// Median of a duration sample (panics on empty).
pub fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}
