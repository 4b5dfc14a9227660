//! The fault harness: EC's scripted fault schedules, and chaos search —
//! seeded random fault schedules against hole-punching scenarios,
//! liveness invariants, replay-determinism checks, and delta-debugging
//! shrinking of failing schedules.
//!
//! EC ([`SCRIPTED`], [`run_scripted`]) injects one fixed schedule into
//! a Figure-5 pair that has settled and times its recovery, each class
//! by its own recovery condition. Chaos search (EC2) samples schedules
//! from the same vocabulary and applies them while the pair punches.
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
//!
//! The module owns the fault vocabulary ([`ChaosFault`], [`ChaosLink`]),
//! the peer profiles ([`ChaosProfile`]), EC's schedules and runner, the
//! two samplers, the trial and the shrinker. Everything after
//! sampling — a fault's end, its JSON, its steps in the
//! [`FaultPlan`], the bench's per-kind counts — reads a fault through
//! one private table (`ChaosFault::parts`, one row per kind), and a
//! link through another (`ChaosLink::row`). The samplers
//! ([`generate_faults`], [`generate_adversarial_faults`]) stay two
//! functions on purpose: `results/LINT_rng_inventory.json` pins each
//! one's draw sites by file and `fn`.

use crate::adversary::{AbuseAction, AbuseBot, FloodBot, ABUSE_IP, FLOOD_IP};
use crate::world::{fig5, fig5_builder, PeerSetup, Scenario};
use holepunch::{
    CandidatePlan, CandidateSource, PeerEvent, PredictionStrategy, PunchConfig, UdpPeer,
    UdpPeerConfig,
};
use punch_nat::{NatBehavior, FAULT_WELL_BEHAVED};
use punch_net::{
    Duration, FaultPlan, Json, LinkSpec, MetricsSnapshot, NodeId, SimStats, SimTime,
    FAULT_RESTART,
};
use punch_rendezvous::{PeerId, ServerConfig};
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
    /// One row per link: its plan-JSON name, the healthy spec degradation
    /// faults restore afterwards (what [`fig5`] wired the link with), and
    /// the node whose uplink it is.
    fn row(self) -> (&'static str, LinkSpec, fn(&Scenario) -> NodeId) {
        match self {
            ChaosLink::ServerUplink => ("server_uplink", LinkSpec::wan(), |sc| sc.server),
            ChaosLink::NatAUplink => ("nat_a_uplink", LinkSpec::wan(), |sc| sc.world.nats[0]),
            ChaosLink::NatBUplink => ("nat_b_uplink", LinkSpec::wan(), |sc| sc.world.nats[1]),
            ChaosLink::ClientAAccess => ("client_a_access", LinkSpec::lan(), |sc| sc.a),
            ChaosLink::ClientBAccess => ("client_b_access", LinkSpec::lan(), |sc| sc.b),
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
    /// NAT A is reconfigured to well-behaved ([`FAULT_WELL_BEHAVED`]):
    /// a symmetric NAT A that blocked the pair stops blocking. EC's
    /// relay-upgrade class; the samplers never draw it.
    HealNatA {
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

/// What a fault does when its offset comes up.
#[derive(Clone, Copy)]
enum Effect {
    /// The link is faulty for `dur_ms`: down (`None`), or degraded to
    /// `with(its normal spec, the fault's own percentage / 100)`.
    Link(ChaosLink, u64, Option<fn(LinkSpec, f64) -> LinkSpec>),
    /// The device on the node this is the uplink of gets the fault code.
    Device(ChaosLink, u64),
    /// Nothing in the fault plan: the burst is on an attacker bot's
    /// script, written when the topology is built.
    Scripted,
}

/// A fault read as data — `(kind, at_ms, own field, effect)`: its
/// plan-JSON kind, its offset from the punch start, the variant's own
/// field as `(JSON name, value)`, and what it does.
type Parts = (&'static str, u64, Option<(&'static str, u64)>, Effect);

impl ChaosFault {
    /// The one decomposition everything downstream of sampling reads a
    /// fault through, so a new kind is one row here.
    fn parts(&self) -> Parts {
        use Effect::{Device, Link, Scripted};
        let own = |field, v: u64| Some((field, v));
        match *self {
            ChaosFault::Outage { link, at_ms, dur_ms } => {
                ("outage", at_ms, None, Link(link, dur_ms, None))
            }
            ChaosFault::Lossy { link, at_ms, dur_ms, loss_pct } => {
                let effect = Link(link, dur_ms, Some(LinkSpec::with_loss));
                ("lossy", at_ms, own("loss_pct", loss_pct.into()), effect)
            }
            ChaosFault::Corrupt { link, at_ms, dur_ms, prob_pct } => {
                let effect = Link(link, dur_ms, Some(LinkSpec::with_corrupt));
                ("corrupt", at_ms, own("prob_pct", prob_pct.into()), effect)
            }
            ChaosFault::Truncate { link, at_ms, dur_ms, prob_pct } => {
                let effect = Link(link, dur_ms, Some(LinkSpec::with_truncate));
                ("truncate", at_ms, own("prob_pct", prob_pct.into()), effect)
            }
            ChaosFault::RebootNatA { at_ms } => {
                ("reboot_nat_a", at_ms, None, Device(ChaosLink::NatAUplink, FAULT_RESTART))
            }
            ChaosFault::RebootNatB { at_ms } => {
                ("reboot_nat_b", at_ms, None, Device(ChaosLink::NatBUplink, FAULT_RESTART))
            }
            ChaosFault::RestartServer { at_ms } => {
                ("restart_server", at_ms, None, Device(ChaosLink::ServerUplink, FAULT_RESTART))
            }
            ChaosFault::HealNatA { at_ms } => {
                ("heal_nat_a", at_ms, None, Device(ChaosLink::NatAUplink, FAULT_WELL_BEHAVED))
            }
            ChaosFault::MappingFlood { at_ms, ports } => {
                ("mapping_flood", at_ms, own("ports", ports.into()), Scripted)
            }
            ChaosFault::SquatStorm { at_ms, count } => {
                ("squat_storm", at_ms, own("count", count.into()), Scripted)
            }
            ChaosFault::IntroFlood { at_ms, count } => {
                ("intro_flood", at_ms, own("count", count.into()), Scripted)
            }
        }
    }

    /// Stable identifier of the fault's kind, as in plan JSON.
    pub fn kind(&self) -> &'static str {
        self.parts().0
    }

    /// Millisecond offset at which this fault's effects have ended
    /// (links restored; instantaneous device faults fired).
    fn end_ms(&self) -> u64 {
        match self.parts() {
            (_, at_ms, _, Effect::Link(_, dur_ms, _)) => at_ms + dur_ms,
            (_, at_ms, ..) => at_ms,
        }
    }

    /// Renders the fault as one inline JSON record: `kind`, `link` (link
    /// faults), `at_ms`, `dur_ms` (link faults), then the variant's own
    /// field.
    pub fn to_json(&self) -> Json {
        let (kind, at_ms, own, effect) = self.parts();
        let link = match effect {
            Effect::Link(link, dur_ms, _) => Some((link, dur_ms)),
            Effect::Device(..) | Effect::Scripted => None,
        };
        let mut record = vec![("kind", Json::str(kind))];
        record.extend(link.map(|(link, _)| ("link", Json::str(link.row().0))));
        record.push(("at_ms", Json::num(at_ms)));
        record.extend(link.map(|(_, dur_ms)| ("dur_ms", Json::num(dur_ms))));
        record.extend(own.map(|(field, v)| (field, Json::num(v))));
        Json::obj(record).inline()
    }
}

/// A replayable failing schedule: the topology seed plus the (possibly
/// minimized) fault list. [`ChaosPlan::to_json`] emits everything
/// needed to reproduce the run with [`run_trial`].
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
    /// The resilient profile with a constant volley cadence and a
    /// 4-volley budget, so a blocked pair reaches the relay quickly.
    /// EC's relay-upgrade class runs it.
    QuickRelay,
}

/// The peer every chaos trial, EC class and attack leg runs,
/// configured per `profile`.
pub(crate) fn chaos_peer(id: PeerId, profile: ChaosProfile) -> PeerSetup {
    let mut c = UdpPeerConfig::resilient(id, Scenario::server_endpoint());
    match profile {
        ChaosProfile::Resilient | ChaosProfile::Adversarial => {}
        ChaosProfile::QuickRelay => {
            c.punch.backoff = 1.0;
            c.punch.backoff_jitter = 0.0;
            c.punch.max_attempts = 4;
        }
        ChaosProfile::Fragile => {
            c.punch = PunchConfig::default();
            // The injected bug: a dead session is never noticed (no
            // keepalive misses, hour-long staleness horizon), so it can
            // neither recover nor reach terminal failure.
            c.punch.keepalive_interval = Duration::from_secs(3600);
            c.punch.session_timeout = Duration::from_secs(3600);
        }
        ChaosProfile::Racing => {
            c.punch.plan = CandidatePlan::basic().with_source(CandidateSource::SelfPredicted(
                PredictionStrategy::WindowAroundObserved { radius: 4 },
            ));
        }
    }
    PeerSetup::new(UdpPeer::new(c))
}

/// Samples a fault schedule for `seed`: 1..=`max_faults` faults with
/// offsets in `[0, 15 s)` and durations in `[0.2 s, 8 s]`. Identical
/// seeds always produce identical schedules.
// punch-lint: allow(S005) lab/tests/chaos_search.rs pins the classic sampler's schedules over 256 seeds
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
// punch-lint: allow(S005) lab/tests/chaos_search.rs pins the adversarial sampler's schedules over 256 seeds
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
/// comparison (`==` is the replay check: [`SimStats`] equality leaves
/// out host time).
#[derive(Clone, Debug, PartialEq)]
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
    let ms = Duration::from_millis;
    faults.iter().fold(FaultPlan::new(), |plan, f| {
        let (_, at_ms, own, effect) = f.parts();
        let at = t0 + ms(at_ms);
        match effect {
            Effect::Link(link, dur_ms, degrade) => {
                let (_, normal, node) = link.row();
                let link = sc.world.uplink(node(sc));
                match degrade {
                    None => plan.outage(at, ms(dur_ms), link),
                    Some(with) => {
                        let pct = own.map_or(0, |(_, pct)| pct);
                        let faulty = with(normal, pct as f64 / 100.0);
                        plan.degrade(at, ms(dur_ms), link, faulty, normal)
                    }
                }
            }
            Effect::Device(uplink, code) => {
                let (_, _, node) = uplink.row();
                plan.device_fault(at, node(sc), code)
            }
            Effect::Scripted => plan,
        }
    })
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
    let at = |at_ms: u64| Duration::from_secs(2) + Duration::from_millis(at_ms);
    let mut flood: Vec<(Duration, u16)> = Vec::new();
    let mut abuse: Vec<(Duration, AbuseAction)> = Vec::new();
    for f in faults {
        match *f {
            ChaosFault::MappingFlood { at_ms, ports } => flood.push((at(at_ms), ports)),
            ChaosFault::SquatStorm { at_ms, count } => {
                let base_id = 50_000 + at_ms;
                abuse.push((at(at_ms), AbuseAction::Squat { base_id, count }));
            }
            ChaosFault::IntroFlood { at_ms, count } => {
                let base_id = 90_000;
                abuse.push((at(at_ms), AbuseAction::IntroFlood { base_id, count }));
            }
            _ => {}
        }
    }

    let server_ep = Scenario::server_endpoint();
    let mut wb = fig5_builder(
        seed,
        ServerConfig::default().with_max_clients(32),
        NatBehavior::well_behaved().with_max_mappings(64),
        NatBehavior::well_behaved(),
        chaos_peer(A, profile),
        chaos_peer(B, profile),
    );
    wb.client(
        FLOOD_IP,
        0,
        PeerSetup::new(FloodBot::new(server_ep, flood)),
    );
    wb.public_client(
        ABUSE_IP,
        PeerSetup::new(AbuseBot::new(server_ep, abuse)),
    );
    Scenario::new(wb.build())
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
                .any(|e| matches!(e, PeerEvent::Data { peer, .. } if *peer == A))
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
// punch-lint: allow(S005) lab/tests/chaos_search.rs pins trial outcomes for hand-written schedules of all ten sampled fault kinds
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

/// Greedy delta debugging: drops any single fault whose removal keeps
/// the trial failing until no single fault can go, then tries removing
/// *pairs* — coupled faults (an attack burst plus the outage masking
/// its recovery, say) are often individually load-bearing for the
/// repro yet jointly removable — and returns to the single pass after
/// any pair goes. Returns the schedule unchanged if it does not fail
/// to begin with.
// punch-lint: allow(S005) lab/tests/chaos_search.rs shrinks an injected liveness bug to its minimal plan
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
    let verdict = if first != second {
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

/// EC's scripted fault classes, `(name, what happens, schedule)`, in
/// report order. Each schedule's offsets count from the instant the
/// pair has settled; [`run_scripted`] runs one.
pub const SCRIPTED: [(&str, &str, &[ChaosFault]); 4] = [
    (
        "nat-reboot",
        "NAT A reboots: tables flushed, port pool moved",
        &[ChaosFault::RebootNatA { at_ms: 0 }],
    ),
    (
        "server-restart",
        "S restarts behind an 8 s uplink outage (recovery = re-registration)",
        &[
            ChaosFault::RestartServer { at_ms: 0 },
            ChaosFault::Outage { link: ChaosLink::ServerUplink, at_ms: 0, dur_ms: 8_000 },
        ],
    ),
    (
        "link-outage",
        "client A's access link down for 5 s",
        &[ChaosFault::Outage { link: ChaosLink::ClientAAccess, at_ms: 0, dur_ms: 5_000 }],
    ),
    (
        "relay-upgrade",
        "blocked pair relays, block clears (recovery = direct upgrade)",
        &[ChaosFault::HealNatA { at_ms: 0 }],
    ),
];

/// Conditions a scripted trial waits for in turn: `(whose peer, what
/// must hold)`.
type Waits = &'static [(PeerId, fn(&UdpPeer) -> bool)];

/// Both ends hold the direct session.
const DIRECT: Waits = &[(A, |p| p.is_established(B)), (B, |p| p.is_established(A))];

/// EC: runs one [`SCRIPTED`] schedule against a resilient Figure-5
/// pair and returns the time from injection to recovery; `None` if the
/// pair did not settle within 30 s or missed the 60 s recovery
/// deadline. The pair settles first: direct both ways, or — when the
/// schedule heals NAT A, which then starts symmetric and the peers run
/// [`ChaosProfile::QuickRelay`] — A relaying. Recovery follows from the
/// schedule: after a heal, the session is direct both ways; after a
/// server restart, A lost its registration and both peers hold one
/// again; after anything else, B saw the session die and both ends
/// re-punched it. Runs with the metrics registry enabled — which never
/// changes the recovery time — and also returns the run's
/// [`MetricsSnapshot`].
pub fn run_scripted(seed: u64, faults: &[ChaosFault]) -> (Option<Duration>, MetricsSnapshot) {
    let has = |kind: fn(&ChaosFault) -> bool| faults.iter().any(kind);
    let well = NatBehavior::well_behaved;
    let (nat_a, profile, settled, recovered): (_, _, Waits, Waits) =
        if has(|f| matches!(f, ChaosFault::HealNatA { .. })) {
            let relaying: Waits = &[(A, |p| p.is_relaying(B))];
            (NatBehavior::symmetric(), ChaosProfile::QuickRelay, relaying, DIRECT)
        } else if has(|f| matches!(f, ChaosFault::RestartServer { .. })) {
            let reregistered: Waits =
                &[(A, |p| !p.is_registered()), (A, |p| p.is_registered()), (B, |p| p.is_registered())];
            (well(), ChaosProfile::Resilient, DIRECT, reregistered)
        } else {
            let repunched: Waits =
                &[(B, |p| !p.is_established(A)), (B, |p| p.is_established(A)), (A, |p| p.is_established(B))];
            (well(), ChaosProfile::Resilient, DIRECT, repunched)
        };
    let mut sc = fig5(seed, nat_a, well(), chaos_peer(A, profile), chaos_peer(B, profile));
    sc.world.sim.enable_metrics();
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let settle = sc.world.sim.now() + Duration::from_secs(30);
    let mut recovery = None;
    if wait(&mut sc, settle, settled) {
        let t0 = sc.world.sim.now();
        let plan = build_fault_plan(&sc, t0, faults);
        sc.world.apply_faults(&plan);
        if wait(&mut sc, t0 + Duration::from_secs(60), recovered) {
            recovery = Some(sc.world.sim.now() - t0);
        }
    }
    (recovery, sc.world.sim.metrics_snapshot())
}

/// Runs until each of `waits` holds in turn; false once `deadline`
/// passes.
fn wait(sc: &mut Scenario, deadline: SimTime, waits: Waits) -> bool {
    waits.iter().all(|&(id, holds)| {
        let node = if id == A { sc.a } else { sc.b };
        sc.world.run_until_app::<UdpPeer>(node, deadline, holds)
    })
}
