//! Chaos search: seeded random fault schedules against hole-punching
//! scenarios, liveness invariants, replay-determinism checks, and
//! delta-debugging shrinking of failing schedules.
//!
//! The harness samples a random [`ChaosFault`] schedule per seed
//! (outages, degradation, corruption, truncation, NAT reboots, server
//! restarts), applies it to the Figure-5 topology while a resilient
//! pair punches, and checks one end-to-end liveness invariant: after
//! the schedule's horizon, either peer B receives application data from
//! peer A within a bounded probe window, or A reports a terminal punch
//! failure. A session that is neither delivering nor failed is *stuck*
//! — the class of bug §3.6's recovery machinery must not have.
//!
//! Every trial is run twice; any divergence in simulator statistics,
//! final clock, metrics snapshot, or verdict is itself a violation
//! (the whole stack promises bit-replayable runs). On violation the
//! schedule is minimized by greedy delta debugging ([`shrink`]) and
//! reported as a replayable seed + fault-plan JSON ([`ChaosPlan`]).
//!
//! [`ChaosProfile::Adversarial`] turns the same search on attack
//! schedules: scripted attacker nodes (mapping floods, registration
//! squatting, introduction floods — see [`crate::adversary`]) mix with
//! classic faults on a capped-table topology, hunting schedules that
//! wedge a resilient pair permanently.

use crate::adversary::{AbuseAction, AbuseBot, FloodBot};
use crate::world::{addrs, fig5, PeerSetup, Scenario, WorldBuilder};
use holepunch::{
    CandidatePlan, PredictionStrategy, PunchConfig, SourceSpec, UdpPeer, UdpPeerConfig,
    UdpPeerEvent,
};
use punch_nat::NatBehavior;
use punch_net::{Duration, Endpoint, FaultPlan, Json, LinkId, LinkSpec, SimStats, SimTime};
use punch_rendezvous::{PeerId, RendezvousServer, ServerConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Peer A's identity in chaos trials.
const A: PeerId = PeerId(1);
/// Peer B's identity in chaos trials.
const B: PeerId = PeerId(2);

/// Latest schedule offset for a sampled fault, in milliseconds.
const MAX_AT_MS: u64 = 15_000;
/// Shortest sampled fault duration, in milliseconds.
const MIN_DUR_MS: u64 = 200;
/// Longest sampled fault duration, in milliseconds.
const MAX_DUR_MS: u64 = 8_000;
/// Probe window after the schedule horizon before a session is
/// declared stuck.
const PROBE_BUDGET: Duration = Duration::from_secs(60);
/// Cadence at which A re-sends the liveness probe.
const PROBE_TICK: Duration = Duration::from_millis(500);

/// A link in the Figure-5 topology a sampled fault can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosLink {
    /// The rendezvous server's backbone uplink.
    ServerUplink,
    /// NAT A's public uplink.
    NatAUplink,
    /// NAT B's public uplink.
    NatBUplink,
    /// Client A's private access link.
    ClientAAccess,
    /// Client B's private access link.
    ClientBAccess,
}

/// Every targetable link, in sampling order.
const LINKS: [ChaosLink; 5] = [
    ChaosLink::ServerUplink,
    ChaosLink::NatAUplink,
    ChaosLink::NatBUplink,
    ChaosLink::ClientAAccess,
    ChaosLink::ClientBAccess,
];

impl ChaosLink {
    /// Stable identifier used in plan JSON.
    pub fn json_name(self) -> &'static str {
        match self {
            ChaosLink::ServerUplink => "server_uplink",
            ChaosLink::NatAUplink => "nat_a_uplink",
            ChaosLink::NatBUplink => "nat_b_uplink",
            ChaosLink::ClientAAccess => "client_a_access",
            ChaosLink::ClientBAccess => "client_b_access",
        }
    }

    /// The healthy spec degradation faults restore afterwards (matching
    /// what [`fig5`] wired the link with).
    fn normal_spec(self) -> LinkSpec {
        match self {
            ChaosLink::ServerUplink | ChaosLink::NatAUplink | ChaosLink::NatBUplink => {
                LinkSpec::wan()
            }
            ChaosLink::ClientAAccess | ChaosLink::ClientBAccess => LinkSpec::lan(),
        }
    }

    /// Resolves the link id inside a built scenario.
    fn link_id(self, sc: &Scenario) -> LinkId {
        match self {
            ChaosLink::ServerUplink => sc.world.uplink(sc.server),
            ChaosLink::NatAUplink => sc.world.uplink(sc.world.nats[0]),
            ChaosLink::NatBUplink => sc.world.uplink(sc.world.nats[1]),
            ChaosLink::ClientAAccess => sc.world.uplink(sc.a),
            ChaosLink::ClientBAccess => sc.world.uplink(sc.b),
        }
    }
}

/// One sampled fault. Times are integral milliseconds relative to the
/// moment A starts punching, so plans serialize exactly and replay
/// from JSON without float drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosFault {
    /// Link goes administratively down, restoring after `dur_ms`.
    Outage {
        /// Targeted link.
        link: ChaosLink,
        /// Offset from the punch start, milliseconds.
        at_ms: u64,
        /// Fault duration, milliseconds.
        dur_ms: u64,
    },
    /// Link drops `loss_pct`% of packets for `dur_ms`.
    Lossy {
        /// Targeted link.
        link: ChaosLink,
        /// Offset from the punch start, milliseconds.
        at_ms: u64,
        /// Fault duration, milliseconds.
        dur_ms: u64,
        /// Packet loss probability, percent.
        loss_pct: u8,
    },
    /// Link flips a payload bit in `prob_pct`% of packets for `dur_ms`
    /// (delivered corrupted; hardened receivers drop on checksum).
    Corrupt {
        /// Targeted link.
        link: ChaosLink,
        /// Offset from the punch start, milliseconds.
        at_ms: u64,
        /// Fault duration, milliseconds.
        dur_ms: u64,
        /// Corruption probability, percent.
        prob_pct: u8,
    },
    /// Link truncates the payload of `prob_pct`% of packets for
    /// `dur_ms`.
    Truncate {
        /// Targeted link.
        link: ChaosLink,
        /// Offset from the punch start, milliseconds.
        at_ms: u64,
        /// Fault duration, milliseconds.
        dur_ms: u64,
        /// Truncation probability, percent.
        prob_pct: u8,
    },
    /// NAT A reboots: mappings flushed, port pool moved.
    RebootNatA {
        /// Offset from the punch start, milliseconds.
        at_ms: u64,
    },
    /// NAT B reboots.
    RebootNatB {
        /// Offset from the punch start, milliseconds.
        at_ms: u64,
    },
    /// The rendezvous server restarts with empty tables.
    RestartServer {
        /// Offset from the punch start, milliseconds.
        at_ms: u64,
    },
    /// Adversarial ([`ChaosProfile::Adversarial`] only): a host behind
    /// NAT A bursts `ports` fresh-port mappings against the capped
    /// translation table.
    MappingFlood {
        /// Offset from the punch start, milliseconds.
        at_ms: u64,
        /// Fresh source ports opened in the burst.
        ports: u16,
    },
    /// Adversarial: a public client bursts `count` throwaway
    /// registrations against the capped rendezvous table.
    SquatStorm {
        /// Offset from the punch start, milliseconds.
        at_ms: u64,
        /// Squatted ids in the burst.
        count: u32,
    },
    /// Adversarial: a public client bursts `count` introduction
    /// requests for unknown targets at the rendezvous server.
    IntroFlood {
        /// Offset from the punch start, milliseconds.
        at_ms: u64,
        /// Requests in the burst.
        count: u32,
    },
}

impl ChaosFault {
    /// Millisecond offset at which this fault's effects have ended
    /// (links restored; instantaneous device faults fired).
    pub fn end_ms(&self) -> u64 {
        match *self {
            ChaosFault::Outage { at_ms, dur_ms, .. }
            | ChaosFault::Lossy { at_ms, dur_ms, .. }
            | ChaosFault::Corrupt { at_ms, dur_ms, .. }
            | ChaosFault::Truncate { at_ms, dur_ms, .. } => at_ms + dur_ms,
            ChaosFault::RebootNatA { at_ms }
            | ChaosFault::RebootNatB { at_ms }
            | ChaosFault::RestartServer { at_ms }
            | ChaosFault::MappingFlood { at_ms, .. }
            | ChaosFault::SquatStorm { at_ms, .. }
            | ChaosFault::IntroFlood { at_ms, .. } => at_ms,
        }
    }

    /// Renders the fault as one inline JSON record: `kind`, `link` (link
    /// faults), `at_ms`, `dur_ms` (link faults), then the variant's own
    /// field.
    pub fn to_json(&self) -> Json {
        let own = |field: &'static str, v: u64| Some((field, v));
        let (kind, link, at_ms, own) = match *self {
            ChaosFault::Outage { link, at_ms, dur_ms } => ("outage", Some((link, dur_ms)), at_ms, None),
            ChaosFault::Lossy { link, at_ms, dur_ms, loss_pct } => {
                ("lossy", Some((link, dur_ms)), at_ms, own("loss_pct", loss_pct.into()))
            }
            ChaosFault::Corrupt { link, at_ms, dur_ms, prob_pct } => {
                ("corrupt", Some((link, dur_ms)), at_ms, own("prob_pct", prob_pct.into()))
            }
            ChaosFault::Truncate { link, at_ms, dur_ms, prob_pct } => {
                ("truncate", Some((link, dur_ms)), at_ms, own("prob_pct", prob_pct.into()))
            }
            ChaosFault::RebootNatA { at_ms } => ("reboot_nat_a", None, at_ms, None),
            ChaosFault::RebootNatB { at_ms } => ("reboot_nat_b", None, at_ms, None),
            ChaosFault::RestartServer { at_ms } => ("restart_server", None, at_ms, None),
            ChaosFault::MappingFlood { at_ms, ports } => {
                ("mapping_flood", None, at_ms, own("ports", ports.into()))
            }
            ChaosFault::SquatStorm { at_ms, count } => {
                ("squat_storm", None, at_ms, own("count", count.into()))
            }
            ChaosFault::IntroFlood { at_ms, count } => {
                ("intro_flood", None, at_ms, own("count", count.into()))
            }
        };
        let mut record = vec![("kind", Json::str(kind))];
        record.extend(link.map(|(link, _)| ("link", Json::str(link.json_name()))));
        record.push(("at_ms", Json::num(at_ms)));
        record.extend(link.map(|(_, dur_ms)| ("dur_ms", Json::num(dur_ms))));
        record.extend(own.map(|(field, v)| (field, Json::num(v))));
        Json::obj(record).inline()
    }
}

/// A replayable failing schedule: the topology seed plus the (possibly
/// minimized) fault list. [`ChaosPlan::to_json`] emits everything
/// needed to reproduce the run with [`run_plan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed the topology and schedule were built from.
    pub seed: u64,
    /// The fault schedule.
    pub faults: Vec<ChaosFault>,
}

impl ChaosPlan {
    /// Renders the plan as a JSON document.
    pub fn to_json(&self) -> String {
        Json::obj([
            ("seed", Json::num(self.seed)),
            ("faults", Json::Arr(self.faults.iter().map(ChaosFault::to_json).collect())),
        ])
        .render()
    }
}

/// Which peer profile a trial runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosProfile {
    /// [`PunchConfig::resilient`] with 1 s keepalives — the hardened
    /// profile the search must find no violations against.
    Resilient,
    /// A deliberately broken test-only profile: liveness detection and
    /// on-demand repair are disabled (hour-long session timeout, no
    /// keepalive miss limit), so any fault that silently kills an
    /// established path leaves a zombie session. Exists to prove the
    /// search catches and shrinks real liveness bugs.
    Fragile,
    /// The resilient profile with a window-around-observed prediction
    /// source added to the candidate plan, so every punch cycle races a
    /// genuine multi-candidate set. Exists so fault schedules can strike
    /// while a race (not just a two-candidate spray) is in flight.
    Racing,
    /// The resilient profile on an attacker-augmented Figure-5 world: a
    /// flood host shares NAT A's realm and an abuse client sits on the
    /// public side, the NAT table and the rendezvous table are capped,
    /// and schedules mix classic faults with scripted attack bursts
    /// ([`ChaosFault::MappingFlood`], [`ChaosFault::SquatStorm`],
    /// [`ChaosFault::IntroFlood`]). Defenses stay paper-faithful OFF;
    /// the hunt is for attack schedules that wedge a resilient pair
    /// *permanently* (transient degradation is the expected outcome).
    Adversarial,
}

fn chaos_peer(id: PeerId, profile: ChaosProfile) -> PeerSetup {
    let mut c = UdpPeerConfig::resilient(id, Scenario::server_endpoint());
    match profile {
        ChaosProfile::Resilient | ChaosProfile::Adversarial => {}
        ChaosProfile::Fragile => {
            c.punch = PunchConfig::default();
            // The injected bug: a dead session is never noticed (no
            // keepalive misses, hour-long staleness horizon), so it can
            // neither recover nor reach terminal failure.
            c.punch.keepalive_interval = Duration::from_secs(3600);
            c.punch.session_timeout = Duration::from_secs(3600);
        }
        ChaosProfile::Racing => {
            c.punch.plan = CandidatePlan::basic().with_source(SourceSpec::predicted(
                PredictionStrategy::WindowAroundObserved { radius: 4 },
            ));
        }
    }
    PeerSetup::new(UdpPeer::new(c))
}

/// Samples a fault schedule for `seed`: 1..=`max_faults` faults with
/// offsets in `[0, 15 s)` and durations in `[0.2 s, 8 s]`. Identical
/// seeds always produce identical schedules.
pub fn generate_faults(seed: u64, max_faults: usize) -> Vec<ChaosFault> {
    // Decorrelated from the topology seed so the schedule stream never
    // aliases the simulator's own per-node streams.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let count = rng.gen_range(1..=max_faults.max(1));
    let mut faults = Vec::with_capacity(count);
    for _ in 0..count {
        let at_ms = rng.gen_range(0..MAX_AT_MS);
        let dur_ms = rng.gen_range(MIN_DUR_MS..=MAX_DUR_MS);
        let link = LINKS[rng.gen_range(0..LINKS.len())];
        faults.push(match rng.gen_range(0..7u64) {
            0 => ChaosFault::Outage { link, at_ms, dur_ms },
            1 => ChaosFault::Lossy {
                link,
                at_ms,
                dur_ms,
                loss_pct: rng.gen_range(10..=60u64) as u8,
            },
            2 => ChaosFault::Corrupt {
                link,
                at_ms,
                dur_ms,
                prob_pct: rng.gen_range(5..=40u64) as u8,
            },
            3 => ChaosFault::Truncate {
                link,
                at_ms,
                dur_ms,
                prob_pct: rng.gen_range(5..=30u64) as u8,
            },
            4 => ChaosFault::RebootNatA { at_ms },
            5 => ChaosFault::RebootNatB { at_ms },
            _ => ChaosFault::RestartServer { at_ms },
        });
    }
    faults
}

/// Samples an adversarial schedule for `seed`: the classic fault mix
/// plus scripted attack bursts (mapping floods, squat storms,
/// introduction floods). Identical seeds always produce identical
/// schedules; the stream is distinct from [`generate_faults`]'s so the
/// two profiles explore independent schedule spaces.
pub fn generate_adversarial_faults(seed: u64, max_faults: usize) -> Vec<ChaosFault> {
    // A different decorrelation constant than generate_faults, so the
    // adversarial stream is not the classic stream plus a suffix.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6a09_e667_f3bc_c908);
    let count = rng.gen_range(1..=max_faults.max(1));
    let mut faults = Vec::with_capacity(count);
    for _ in 0..count {
        let at_ms = rng.gen_range(0..MAX_AT_MS);
        let dur_ms = rng.gen_range(MIN_DUR_MS..=MAX_DUR_MS);
        let link = LINKS[rng.gen_range(0..LINKS.len())];
        faults.push(match rng.gen_range(0..10u64) {
            0 => ChaosFault::Outage { link, at_ms, dur_ms },
            1 => ChaosFault::Lossy {
                link,
                at_ms,
                dur_ms,
                loss_pct: rng.gen_range(10..=60u64) as u8,
            },
            2 => ChaosFault::Corrupt {
                link,
                at_ms,
                dur_ms,
                prob_pct: rng.gen_range(5..=40u64) as u8,
            },
            3 => ChaosFault::Truncate {
                link,
                at_ms,
                dur_ms,
                prob_pct: rng.gen_range(5..=30u64) as u8,
            },
            4 => ChaosFault::RebootNatA { at_ms },
            5 => ChaosFault::RebootNatB { at_ms },
            6 => ChaosFault::RestartServer { at_ms },
            7 => ChaosFault::MappingFlood {
                at_ms,
                ports: rng.gen_range(32..=96u64) as u16,
            },
            8 => ChaosFault::SquatStorm {
                at_ms,
                count: rng.gen_range(24..=64u64) as u32,
            },
            _ => ChaosFault::IntroFlood {
                at_ms,
                count: rng.gen_range(8..=32u64) as u32,
            },
        });
    }
    faults
}

/// The schedule generator matching `profile`: adversarial schedules
/// mix in attack bursts, every other profile samples the classic
/// fault-only stream.
pub fn generate_profile_faults(
    seed: u64,
    max_faults: usize,
    profile: ChaosProfile,
) -> Vec<ChaosFault> {
    match profile {
        ChaosProfile::Adversarial => generate_adversarial_faults(seed, max_faults),
        _ => generate_faults(seed, max_faults),
    }
}

/// Everything one chaos trial observed, for verdicts and replay
/// comparison.
#[derive(Clone, Debug)]
pub struct TrialOutcome {
    /// `Some(reason)` if a liveness invariant was violated (or the
    /// trial panicked).
    pub violation: Option<String>,
    /// Final simulator counters (excluding wall-clock time).
    pub stats: SimStats,
    /// The simulated clock when the trial ended.
    pub end: SimTime,
    /// The run's metrics registry snapshot as JSON.
    pub metrics_json: String,
}

fn peer_state(p: &UdpPeer, peer: PeerId) -> &'static str {
    if p.is_established(peer) {
        "established"
    } else if p.is_relaying(peer) {
        "relaying"
    } else if p.is_failed(peer) {
        "failed"
    } else {
        "in-flight"
    }
}

fn build_fault_plan(sc: &Scenario, t0: SimTime, faults: &[ChaosFault]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for f in faults {
        plan = match *f {
            ChaosFault::Outage { link, at_ms, dur_ms } => plan.outage(
                t0 + Duration::from_millis(at_ms),
                Duration::from_millis(dur_ms),
                link.link_id(sc),
            ),
            ChaosFault::Lossy {
                link,
                at_ms,
                dur_ms,
                loss_pct,
            } => {
                let normal = link.normal_spec();
                plan.degrade(
                    t0 + Duration::from_millis(at_ms),
                    Duration::from_millis(dur_ms),
                    link.link_id(sc),
                    normal.with_loss(f64::from(loss_pct) / 100.0),
                    normal,
                )
            }
            ChaosFault::Corrupt {
                link,
                at_ms,
                dur_ms,
                prob_pct,
            } => plan.corrupt(
                t0 + Duration::from_millis(at_ms),
                Duration::from_millis(dur_ms),
                link.link_id(sc),
                f64::from(prob_pct) / 100.0,
                link.normal_spec(),
            ),
            ChaosFault::Truncate {
                link,
                at_ms,
                dur_ms,
                prob_pct,
            } => plan.truncate(
                t0 + Duration::from_millis(at_ms),
                Duration::from_millis(dur_ms),
                link.link_id(sc),
                f64::from(prob_pct) / 100.0,
                link.normal_spec(),
            ),
            ChaosFault::RebootNatA { at_ms } => {
                plan.restart(t0 + Duration::from_millis(at_ms), sc.world.nats[0])
            }
            ChaosFault::RebootNatB { at_ms } => {
                plan.restart(t0 + Duration::from_millis(at_ms), sc.world.nats[1])
            }
            ChaosFault::RestartServer { at_ms } => {
                plan.restart(t0 + Duration::from_millis(at_ms), sc.server)
            }
            // Attack bursts are carried out by attacker nodes scripted
            // at build time, not by the link-fault machinery.
            ChaosFault::MappingFlood { .. }
            | ChaosFault::SquatStorm { .. }
            | ChaosFault::IntroFlood { .. } => plan,
        };
    }
    plan
}

/// The Figure-5 world with attacker nodes and capped victim tables:
/// NAT A holds at most 64 mappings, the rendezvous server 32 clients
/// (both with the defenses OFF), a [`FloodBot`] shares client A's
/// realm, and an [`AbuseBot`] sits on the public Internet. Attack
/// bursts in `faults` become the bots' scripts; the bots exist (idle)
/// even for all-classic schedules so shrinking an attack away never
/// changes the topology itself.
fn adversarial_scenario(seed: u64, faults: &[ChaosFault], profile: ChaosProfile) -> Scenario {
    // The schedule goes live at t0 = 2 s after boot (the registration
    // warm-up run below is exact), so bot scripts are offset by it.
    let t0 = Duration::from_secs(2);
    let server_ep = Endpoint::new(addrs::SERVER, 1234);
    let flood: Vec<(Duration, u16)> = faults
        .iter()
        .filter_map(|f| match *f {
            ChaosFault::MappingFlood { at_ms, ports } => {
                Some((t0 + Duration::from_millis(at_ms), ports))
            }
            _ => None,
        })
        .collect();
    let abuse: Vec<(Duration, AbuseAction)> = faults
        .iter()
        .filter_map(|f| match *f {
            ChaosFault::SquatStorm { at_ms, count } => Some((
                t0 + Duration::from_millis(at_ms),
                AbuseAction::Squat {
                    base_id: 50_000 + at_ms,
                    count,
                },
            )),
            ChaosFault::IntroFlood { at_ms, count } => Some((
                t0 + Duration::from_millis(at_ms),
                AbuseAction::IntroFlood {
                    base_id: 90_000,
                    count,
                },
            )),
            _ => None,
        })
        .collect();

    let mut wb = WorldBuilder::new(seed);
    let s = wb.server(
        addrs::SERVER,
        RendezvousServer::new(ServerConfig::default().with_max_clients(32)),
    );
    let na = wb.nat(
        NatBehavior::well_behaved().with_max_mappings(64),
        addrs::NAT_A,
    );
    let nb = wb.nat(NatBehavior::well_behaved(), addrs::NAT_B);
    let a = wb.client(addrs::CLIENT_A, na, chaos_peer(A, profile));
    let b = wb.client(addrs::CLIENT_B, nb, chaos_peer(B, profile));
    wb.client(
        std::net::Ipv4Addr::new(10, 0, 0, 66),
        na,
        PeerSetup::new(FloodBot::new(server_ep, flood)),
    );
    wb.public_client(
        std::net::Ipv4Addr::new(99, 9, 9, 9),
        PeerSetup::new(AbuseBot::new(server_ep, abuse)),
    );
    let world = wb.build();
    Scenario {
        server: world.servers[s],
        a: world.clients[a],
        b: world.clients[b],
        world,
    }
}

fn run_trial_inner(seed: u64, faults: &[ChaosFault], profile: ChaosProfile) -> TrialOutcome {
    let mut sc = if profile == ChaosProfile::Adversarial {
        adversarial_scenario(seed, faults, profile)
    } else {
        fig5(
            seed,
            NatBehavior::well_behaved(),
            NatBehavior::well_behaved(),
            chaos_peer(A, profile),
            chaos_peer(B, profile),
        )
    };
    sc.world.sim.enable_metrics();

    // Let both peers register, then start punching with the schedule
    // live from t0 — faults can land mid-punch, not just on settled
    // sessions.
    sc.world.sim.run_for(Duration::from_secs(2));
    let t0 = sc.world.sim.now();
    let plan = build_fault_plan(&sc, t0, faults);
    sc.world.apply_faults(&plan);
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));

    // Run the schedule out.
    let horizon_ms = faults.iter().map(ChaosFault::end_ms).max().unwrap_or(0);
    let horizon = t0 + Duration::from_millis(horizon_ms);
    sc.world.sim.run_until(horizon);

    // Liveness probe: A keeps sending until B hears it, A terminally
    // fails, or the window closes. Stale deliveries from before the
    // probe phase must not count, so drain B's queue first.
    sc.world
        .with_app::<UdpPeer, _>(sc.b, |p, _| p.take_events());
    let deadline = sc.world.sim.now() + PROBE_BUDGET;
    let mut violation = None;
    loop {
        let failed = sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| {
            if p.is_failed(B) {
                true
            } else {
                p.send(os, B, bytes::Bytes::from_static(b"liveness-probe"));
                false
            }
        });
        if failed {
            // Terminal failure is a legitimate outcome: the session is
            // not stuck, it gave up and said so.
            break;
        }
        sc.world.sim.run_for(PROBE_TICK);
        let heard = sc.world.with_app::<UdpPeer, _>(sc.b, |p, _| {
            p.take_events()
                .iter()
                .any(|e| matches!(e, UdpPeerEvent::Data { peer, .. } if *peer == A))
        });
        if heard {
            break;
        }
        if sc.world.sim.now() >= deadline {
            let state = peer_state(sc.world.app::<UdpPeer>(sc.a), B);
            violation = Some(format!(
                "liveness violation: B received no data from A within {}s after the \
                 fault horizon and A never reported failure (A session: {state})",
                PROBE_BUDGET.as_secs(),
            ));
            break;
        }
    }

    TrialOutcome {
        violation,
        stats: sc.world.sim.stats(),
        end: sc.world.sim.now(),
        metrics_json: sc.world.sim.metrics_snapshot().to_json(),
    }
}

/// Runs one chaos trial: topology seed `seed`, schedule `faults`,
/// peers configured per `profile`. Panics inside the trial are caught
/// and reported as violations.
pub fn run_trial(seed: u64, faults: &[ChaosFault], profile: ChaosProfile) -> TrialOutcome {
    let faults = faults.to_vec();
    match catch_unwind(AssertUnwindSafe(move || {
        run_trial_inner(seed, &faults, profile)
    })) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            TrialOutcome {
                violation: Some(format!("panic: {msg}")),
                stats: SimStats::default(),
                end: SimTime::ZERO,
                metrics_json: String::new(),
            }
        }
    }
}

/// Replays a (typically minimized) plan against `profile`.
pub fn run_plan(plan: &ChaosPlan, profile: ChaosProfile) -> TrialOutcome {
    run_trial(plan.seed, &plan.faults, profile)
}

fn outcomes_match(a: &TrialOutcome, b: &TrialOutcome) -> bool {
    a.violation == b.violation
        && a.stats == b.stats
        && a.end == b.end
        && a.metrics_json == b.metrics_json
}

/// Greedy delta debugging: drops any single fault whose removal keeps
/// the trial failing until no single fault can go, then tries removing
/// *pairs* — coupled faults (an attack burst plus the outage masking
/// its recovery, say) are often individually load-bearing for the
/// repro yet jointly removable — and returns to the single pass after
/// any pair goes. Returns the schedule unchanged if it does not fail
/// to begin with.
pub fn shrink(seed: u64, faults: &[ChaosFault], profile: ChaosProfile) -> Vec<ChaosFault> {
    shrink_with(faults, |cand| {
        run_trial(seed, cand, profile).violation.is_some()
    })
}

/// The shrinking loop over an arbitrary failure predicate (the trial
/// runner in production, synthetic predicates in tests).
pub(crate) fn shrink_with(
    faults: &[ChaosFault],
    mut fails: impl FnMut(&[ChaosFault]) -> bool,
) -> Vec<ChaosFault> {
    let mut cur = faults.to_vec();
    if !fails(&cur) {
        return cur;
    }
    loop {
        // Single-removal pass to a fixed point.
        let mut progressed = false;
        let mut i = 0;
        while i < cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if fails(&cand) {
                cur = cand;
                progressed = true;
            } else {
                i += 1;
            }
        }
        if progressed {
            continue;
        }
        // Pair-removal pass: one success re-opens the single pass.
        let mut removed_pair = false;
        'pairs: for i in 0..cur.len() {
            for j in (i + 1)..cur.len() {
                let mut cand = cur.clone();
                cand.remove(j);
                cand.remove(i);
                if fails(&cand) {
                    cur = cand;
                    removed_pair = true;
                    break 'pairs;
                }
            }
        }
        if !removed_pair {
            return cur;
        }
    }
}

/// A shrunk, replayable invariant violation.
#[derive(Clone, Debug)]
pub struct ShrunkViolation {
    /// Why the schedule failed (first run's verdict).
    pub verdict: String,
    /// How many faults the sampled schedule had before shrinking.
    pub original_faults: usize,
    /// The minimized replayable plan.
    pub plan: ChaosPlan,
}

/// The result of sampling, checking, and (on failure) shrinking one
/// schedule.
#[derive(Clone, Debug)]
pub struct ScheduleReport {
    /// The schedule's seed.
    pub seed: u64,
    /// How many faults were sampled.
    pub sampled: usize,
    /// The shrunk violation, if any invariant broke.
    pub violation: Option<ShrunkViolation>,
}

/// Samples the schedule for `seed`, runs it twice (replay check),
/// and shrinks it if any invariant — liveness, no-panic, or replay
/// byte-identity — was violated.
pub fn run_schedule(seed: u64, profile: ChaosProfile, max_faults: usize) -> ScheduleReport {
    let faults = generate_profile_faults(seed, max_faults, profile);
    let first = run_trial(seed, &faults, profile);
    let second = run_trial(seed, &faults, profile);
    let verdict = if !outcomes_match(&first, &second) {
        Some("replay divergence: two runs of the same seed and schedule differ".to_string())
    } else {
        first.violation
    };
    let violation = verdict.map(|verdict| {
        let minimized = shrink(seed, &faults, profile);
        ShrunkViolation {
            verdict,
            original_faults: faults.len(),
            plan: ChaosPlan {
                seed,
                faults: minimized,
            },
        }
    });
    ScheduleReport {
        seed,
        sampled: faults.len(),
        violation,
    }
}
