//! Adversarial nodes and attack scenarios: the ReDAN-style threat
//! model the paper's protocols face in the wild.
//!
//! Three attacker archetypes run *inside* the deterministic simulation,
//! scripted or searched, never special-cased by the engine:
//!
//! - [`FloodBot`] — a compromised host behind the victim's NAT opening
//!   mappings from fresh source ports in scripted bursts, exhausting a
//!   capped translation table (§3.4's mappings are a finite resource).
//! - [`SpoofBot`] — an off-path public node emitting packets with
//!   forged source headers on a script: blind TCP RSTs against punched
//!   §4 sessions, and rogue server-to-server frames against a fleet.
//! - [`AbuseBot`] — a public client abusing the §3.1 rendezvous
//!   control plane: registration squatting storms and introduction
//!   floods against the server's capped tables.
//!
//! Each attack pairs with its layer's defense, paper-faithful **off**
//! by default and turned on by one `defended()` profile per layer:
//! [`NatBehavior::defended`] (per-source quota and fair eviction),
//! [`StackConfig::defended`] (RFC 5961-style RST validation) and
//! [`ServerConfig::defended`] (protect-active eviction and token-bucket
//! rate limiting); the fleet's defense is its shared secret
//! ([`ServerConfig::with_fleet_secret`]). The [`run_mapping_flood`],
//! [`run_rst_inject`], [`run_reg_squat`] and [`run_intro_forgery`]
//! scenario runners measure the victim's view — punch success, session
//! deaths, recovery latency — with the defense off and on, and feed
//! the `attacks` bench bin and CI's defense-flip gate.
//!
//! The two UDP legs run on the chaos harness's attacker world, their
//! bursts written as [`ChaosFault`] schedules, and their defended arms
//! turn on the NAT and server profiles together; each keeps its own
//! measurement loop, since the legs time and judge recovery
//! differently. The TCP
//! leg and the two-server forgery leg build their own worlds: the
//! harness is UDP-only and single-server.

use crate::chaos::{adversarial_scenario, chaos_peer, Caps, ChaosFault, ChaosProfile};
use crate::world::{addrs, fig5_builder, PeerSetup, Scenario, World, WorldBuilder};
use bytes::Bytes;
use holepunch::{PeerEvent, TcpPeer, TcpPeerConfig, UdpPeer};
use punch_nat::NatBehavior;
use punch_net::{
    Ctx, Device, Duration, Endpoint, IfaceId, LinkSpec, NodeId, Packet, SimTime, TcpFlags,
    TcpSegment,
};
use punch_rendezvous::{Message, PeerId, RendezvousServer, ServerConfig, SERVER_PORT};
use punch_transport::{App, Os, SockEvent, SocketId, StackConfig};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Victim peer A in attack scenarios.
const A: PeerId = PeerId(1);
/// Victim peer B in attack scenarios.
const B: PeerId = PeerId(2);
/// The flooding host's private address (same realm as client A).
pub(crate) const FLOOD_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 66);
/// The public abuse/attacker host's address.
pub(crate) const ABUSE_IP: Ipv4Addr = Ipv4Addr::new(99, 9, 9, 9);
/// The port the abuse host listens (and is impersonated) on.
const ABUSE_PORT: u16 = 4321;
/// The second fleet server's address in the forgery scenario.
const SERVER2_IP: Ipv4Addr = Ipv4Addr::new(18, 181, 0, 32);

// ---------------------------------------------------------------------
// Attacker nodes
// ---------------------------------------------------------------------

/// A bot's script: `(at, burst)` entries at absolute sim times and the
/// cursor over them. One timer is armed at a time, for the next entry
/// not yet run.
struct Script<T> {
    bursts: Vec<(Duration, T)>,
    next: usize,
}

impl<T: Copy> Script<T> {
    /// Sorts the script by time, same-instant bursts by `key`, and arms
    /// the first timer. Call from `on_start`.
    fn start<K: Ord>(&mut self, os: &mut Os<'_, '_>, key: impl Fn(T) -> K) {
        self.bursts.sort_by_key(|&(at, burst)| (at, key(burst)));
        self.arm_next(os);
    }

    /// Runs every burst due by now, in order, then arms the timer for
    /// the one after. Call from `on_timer`.
    fn run_due(&mut self, os: &mut Os<'_, '_>, mut run: impl FnMut(&mut Os<'_, '_>, T)) {
        let elapsed = os.now().saturating_since(SimTime::ZERO);
        while let Some(&(at, burst)) = self.bursts.get(self.next) {
            if at > elapsed {
                break;
            }
            self.next += 1;
            run(os, burst);
        }
        self.arm_next(os);
    }

    fn arm_next(&self, os: &mut Os<'_, '_>) {
        if let Some(&(at, _)) = self.bursts.get(self.next) {
            let delta = at.saturating_sub(os.now().saturating_since(SimTime::ZERO));
            os.set_timer(delta, 1);
        }
    }
}

/// A private-side host that opens NAT mappings from fresh source ports
/// in scripted bursts — the mapping-exhaustion attacker.
///
/// Each schedule entry `(at, ports)` binds `ports` new local UDP ports
/// at absolute sim time `at` and sends one datagram from each to
/// `sink`, so every port claims a fresh translation-table slot. Ports
/// count up from 30 000; a schedule that runs past 65 534 opens no more.
pub struct FloodBot {
    /// Where the flood datagrams are aimed (any public endpoint).
    sink: Endpoint,
    /// `(at, ports)` bursts.
    script: Script<u16>,
    next_port: u16,
    socks: Vec<SocketId>,
}

impl FloodBot {
    /// A flood bot aiming at `sink` with the given burst schedule.
    pub fn new(sink: Endpoint, schedule: Vec<(Duration, u16)>) -> Self {
        FloodBot {
            sink,
            script: Script { bursts: schedule, next: 0 },
            next_port: 30_000,
            socks: Vec::new(),
        }
    }
}

impl App for FloodBot {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        self.script.start(os, |ports| ports);
    }

    fn on_event(&mut self, _os: &mut Os<'_, '_>, _ev: SockEvent) {}

    fn on_timer(&mut self, os: &mut Os<'_, '_>, _token: u64) {
        self.script.run_due(os, |os, ports| {
            // Ports run out below `u16::MAX`: a longer script opens what is left.
            let ports = ports.min(u16::MAX - self.next_port);
            for _ in 0..ports {
                let port = self.next_port;
                self.next_port += 1;
                if let Ok(sock) = os.udp_bind(port) {
                    let _ = os.udp_send(sock, self.sink, Message::Ping.encode(false));
                    self.socks.push(sock);
                }
            }
            os.metric_inc_by("attack.flood.ports_opened", u64::from(ports));
        });
    }
}

/// One scripted rendezvous-abuse burst.
#[derive(Clone, Copy, Debug)]
pub enum AbuseAction {
    /// Register `count` throwaway ids (`base_id..base_id + count`) in
    /// one burst — registration squatting against a capped table.
    Squat {
        /// First squatted id.
        base_id: u64,
        /// Ids in the burst.
        count: u32,
    },
    /// Fire `count` introduction requests for unknown targets — a
    /// control-plane flood that burns server work and error replies.
    IntroFlood {
        /// First requested (unregistered) target id.
        base_id: u64,
        /// Requests in the burst.
        count: u32,
    },
}

/// A public client abusing the rendezvous control plane on a script,
/// and counting any unsolicited traffic it receives (a successful
/// introduction hijack delivers the victim's punch probes here).
pub struct AbuseBot {
    server: Endpoint,
    /// `(at, action)` bursts.
    script: Script<AbuseAction>,
    /// The socket bound in `on_start` and the endpoint it bound.
    bound: Option<(SocketId, Endpoint)>,
    /// Datagrams received from anyone — hijacked victims land here.
    received: u64,
}

impl AbuseBot {
    /// An abuse bot aimed at `server` with the given burst schedule.
    pub fn new(server: Endpoint, schedule: Vec<(Duration, AbuseAction)>) -> Self {
        AbuseBot {
            server,
            script: Script { bursts: schedule, next: 0 },
            bound: None,
            received: 0,
        }
    }

    /// Datagrams this bot has received (victim probes after a hijack).
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl App for AbuseBot {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        #[expect(clippy::expect_used, reason = "fixed scenario port, bound once")]
        let sock = os.udp_bind(ABUSE_PORT).expect("abuse port free");
        self.bound = os.local_endpoint(sock).ok().map(|ep| (sock, ep));
        self.script.start(os, |action| match action {
            AbuseAction::Squat { base_id, .. } | AbuseAction::IntroFlood { base_id, .. } => base_id,
        });
    }

    fn on_event(&mut self, _os: &mut Os<'_, '_>, ev: SockEvent) {
        if matches!(ev, SockEvent::UdpReceived { .. }) {
            self.received += 1;
        }
    }

    fn on_timer(&mut self, os: &mut Os<'_, '_>, _token: u64) {
        let Some((sock, private)) = self.bound else {
            return;
        };
        self.script.run_due(os, |os, action| match action {
            AbuseAction::Squat { base_id, count } => {
                for i in 0..u64::from(count) {
                    let msg = Message::Register {
                        peer_id: PeerId(base_id + i),
                        private,
                    };
                    let _ = os.udp_send(sock, self.server, msg.encode(false));
                }
                os.metric_inc_by("attack.abuse.squats", u64::from(count));
            }
            AbuseAction::IntroFlood { base_id, count } => {
                for i in 0..u64::from(count) {
                    let msg = Message::ConnectRequest {
                        peer_id: PeerId(base_id),
                        target: PeerId(base_id + 1 + i),
                        nonce: 0xBEEF ^ i,
                    };
                    let _ = os.udp_send(sock, self.server, msg.encode(false));
                }
                os.metric_inc_by("attack.abuse.intro_floods", u64::from(count));
            }
        });
    }
}

/// An off-path attacker node: a raw device on the backbone that emits
/// scripted packets with forged headers (spoofed source addresses) and
/// ignores everything it receives.
///
/// The attack runners attach one with `add_spoofer`, then load forged
/// packets mid-run with `spoof_at` once the victim's endpoints are
/// observable.
pub struct SpoofBot {
    queue: BTreeMap<u64, Packet>,
    next_token: u64,
}

impl SpoofBot {
    /// An idle spoofer; packets are loaded via `spoof_at`.
    pub fn new() -> Self {
        SpoofBot {
            queue: BTreeMap::new(),
            next_token: 0,
        }
    }

    /// Queues `pkt` for emission `after` from now.
    fn schedule(&mut self, ctx: &mut Ctx<'_>, after: Duration, pkt: Packet) {
        let token = self.next_token;
        self.next_token += 1;
        self.queue.insert(token, pkt);
        ctx.set_timer(after, token);
    }
}

impl Default for SpoofBot {
    fn default() -> Self {
        Self::new()
    }
}

impl Device for SpoofBot {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, _pkt: Packet) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(pkt) = self.queue.remove(&token) {
            ctx.metric_inc("attack.spoof.injected");
            ctx.send(0, pkt);
        }
    }
}

/// Attaches a [`SpoofBot`] to the backbone router of a built world.
/// Call before the first `run_*`, so the node starts with the sim.
fn add_spoofer(world: &mut World) -> NodeId {
    let node = world.sim.add_node("spoof", Box::new(SpoofBot::new()));
    world.sim.connect(node, world.internet, LinkSpec::wan());
    node
}

/// Queues a forged packet on `spoofer` for emission `after` from now.
fn spoof_at(world: &mut World, spoofer: NodeId, after: Duration, pkt: Packet) {
    world.sim.with_node(spoofer, |dev, ctx| {
        #[expect(clippy::expect_used, reason = "typed-accessor contract: caller passes the node add_spoofer returned")]
        dev.downcast_mut::<SpoofBot>()
            .expect("node is a SpoofBot")
            .schedule(ctx, after, pkt);
    });
}

// ---------------------------------------------------------------------
// Scenario runners
// ---------------------------------------------------------------------

/// What one attack trial did to the victim.
#[derive(Clone, Copy, Debug, Default)]
pub struct AttackReport {
    /// The victim pair established before (or despite) the attack.
    pub established: bool,
    /// Established sessions the attack killed (`SessionDied`,
    /// `PeerClosed`, terminal punch failures) as seen by victim A.
    pub deaths: u64,
    /// The attack had its victim-visible effect (sessions killed,
    /// punches stalled past 2 s, or hijacked probes delivered).
    pub disrupted: bool,
    /// The victim was healthy once the attack schedule drained (for the
    /// forgery leg: no probes leaked at all).
    pub recovered: bool,
    /// Milliseconds from attack start until the victim was healthy
    /// again; 0 when the attack never bit.
    pub recovery_ms: u64,
    /// Defense-side interventions (quota refusals, rejected RSTs,
    /// refused registrations, rejected forgeries). 0 with defenses off.
    pub defense_events: u64,
}

/// The caps EC3's two UDP legs run the attacker world with: a
/// 48-mapping NAT A, so every 64-port burst can roll its whole table,
/// and a 24-client server.
const LEG_CAPS: Caps = (48, 24);

/// One beat of a UDP leg's traffic: A sends `data` to B, the world runs
/// 250 ms. Returns the established sessions A saw die meanwhile, and
/// whether B heard data from A.
fn beat(sc: &mut Scenario, data: &'static [u8]) -> (u64, bool) {
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.send(os, B, Bytes::from_static(data)));
    sc.world.sim.run_for(Duration::from_millis(250));
    let deaths = sc.world.with_app::<UdpPeer, _>(sc.a, |p, _| {
        let died = |e: &&PeerEvent| {
            matches!(e, PeerEvent::SessionDied { .. } | PeerEvent::PunchFailed { .. })
        };
        p.take_events().iter().filter(died).count() as u64
    });
    let heard = sc.world.with_app::<UdpPeer, _>(sc.b, |p, _| {
        p.take_events()
            .iter()
            .any(|e| matches!(e, PeerEvent::Data { peer, .. } if *peer == A))
    });
    (deaths, heard)
}

/// ATK1 — mapping exhaustion. A flooding host behind the victim's NAT
/// bursts fresh-port traffic against a capped translation table; with
/// oldest-first eviction the victim's punched mapping is collateral.
/// Defense (`defended`): [`NatBehavior::defended`]'s per-source quota
/// and flood-resistant eviction. The defended arm runs the shared
/// attacker world defended, so [`ServerConfig::defended`] is on too.
pub fn run_mapping_flood(seed: u64, defended: bool) -> AttackReport {
    const ATTACK_START: Duration = Duration::from_secs(6);
    const ATTACK_END: Duration = Duration::from_millis(11_000);
    // From ATTACK_START, 4 s after t0: 12 bursts, 400 ms apart, 64
    // fresh ports each.
    let faults: Vec<ChaosFault> = (0..12)
        .map(|k| ChaosFault::MappingFlood { at_ms: 4_000 + 400 * k, ports: 64 })
        .collect();

    let mut sc = adversarial_scenario(seed, &faults, LEG_CAPS, defended);
    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let start = SimTime::ZERO + ATTACK_START;
    let established = sc.world.run_until_app::<UdpPeer>(sc.a, start, |p| p.is_established(B));

    // Chatter through the attack window so on-demand repair (§3.6) has
    // traffic to ride on; count kills as they land.
    let mut deaths = 0;
    while sc.world.sim.now().saturating_since(SimTime::ZERO) < ATTACK_END {
        deaths += beat(&mut sc, b"chatter").0;
    }

    // Recovery probe: from the attack's end, how long until B hears
    // fresh data again?
    let attack_end = sc.world.sim.now();
    let deadline = attack_end + Duration::from_secs(30);
    let mut recovered = false;
    while !recovered && sc.world.sim.now() < deadline {
        let (died, heard) = beat(&mut sc, b"recovery-probe");
        deaths += died;
        recovered = heard;
    }
    let recovery_ms = if recovered && deaths > 0 {
        sc.world.sim.now().saturating_since(attack_end).as_millis() as u64
    } else {
        0
    };

    AttackReport {
        established,
        deaths,
        disrupted: deaths > 0,
        recovered,
        recovery_ms,
        defense_events: sc.world.nat(sc.world.nats[0]).stats().quota_refused,
    }
}

/// A TCP victim on local port 5001 (A) or 5002 (B).
fn tcp_peer_setup(id: PeerId, defended: bool) -> PeerSetup {
    let server = Endpoint::new(addrs::SERVER, SERVER_PORT);
    let mut c = TcpPeerConfig::new(id, server);
    c.local_port = 5000 + id.0 as u16;
    let mut stack = StackConfig::fast();
    if defended {
        stack = stack.defended();
    }
    PeerSetup::new(TcpPeer::new(c)).with_stack(stack)
}

/// ATK2 — off-path RST injection. Once a punched §4 TCP session is up,
/// a [`SpoofBot`] sends a volley of RSTs forged from the peer's public
/// endpoint (the 4-tuple is what a rendezvous eavesdropper learns;
/// the sequence numbers are blind guesses). The classic stack accepts
/// any in-connection RST and the session dies; the RFC 5961-style gate
/// ([`StackConfig::defended`]) drops or challenges every blind guess.
pub fn run_rst_inject(seed: u64, defended: bool) -> AttackReport {
    let well = NatBehavior::well_behaved;
    let (a, b) = (tcp_peer_setup(A, defended), tcp_peer_setup(B, defended));
    let wb = fig5_builder(seed, ServerConfig::default(), well(), well(), a, b).metrics();
    let Scenario { mut world, a, b, .. } = Scenario::new(wb.build());
    let spoofer = add_spoofer(&mut world);

    world.sim.run_for(Duration::from_secs(2));
    world.with_app::<TcpPeer, _>(a, |p, os| p.connect(os, B));
    let deadline = world.sim.now() + Duration::from_secs(20);
    let established = world.run_until_app::<TcpPeer>(a, deadline, |p| p.is_established(B))
        && world.run_until_app::<TcpPeer>(b, deadline, |p| p.is_established(A));
    world.sim.run_for(Duration::from_secs(1));

    // The winning 4-tuple, as each side observed it: A's remote is B's
    // public endpoint and vice versa — everything an off-path attacker
    // who watched the introduction knows.
    let remote_of = |world: &mut World, node| {
        world.with_app::<TcpPeer, _>(node, |p, _| {
            p.take_events().iter().find_map(|e| match e {
                PeerEvent::Established { remote, .. } => Some(*remote),
                _ => None,
            })
        })
    };
    let b_pub = remote_of(&mut world, a);
    let a_pub = remote_of(&mut world, b);

    let attack_start = world.sim.now();
    if let (Some(b_pub), Some(a_pub)) = (b_pub, a_pub) {
        for k in 0..4u32 {
            let seq = 0x4242_0000 ^ (k * 0x0101_0101);
            let rst = TcpSegment::control(TcpFlags::RST, seq, 0);
            spoof_at(
                &mut world,
                spoofer,
                Duration::from_millis(200 + 100 * u64::from(k)),
                Packet::tcp(b_pub, a_pub, rst),
            );
        }
    }
    world.sim.run_for(Duration::from_secs(2));

    let deaths = world.with_app::<TcpPeer, _>(a, |p, _| {
        p.take_events()
            .iter()
            .filter(|e| matches!(e, PeerEvent::PeerClosed { peer } if *peer == B))
            .count() as u64
    });

    let recovered;
    let mut recovery_ms = 0;
    if deaths > 0 {
        // The embedding application reconnects on PeerClosed; measure
        // how long the victim was down from the volley's start.
        world.with_app::<TcpPeer, _>(a, |p, os| p.connect(os, B));
        let deadline = world.sim.now() + Duration::from_secs(30);
        recovered = world.run_until_app::<TcpPeer>(a, deadline, |p| p.is_established(B));
        if recovered {
            recovery_ms = world.sim.now().saturating_since(attack_start).as_millis() as u64;
        }
    } else {
        // Session survived the volley; confirm it still carries data.
        world.with_app::<TcpPeer, _>(a, |p, os| {
            p.send(os, B, Bytes::from_static(b"post-volley"));
        });
        world.sim.run_for(Duration::from_secs(1));
        recovered = world.with_app::<TcpPeer, _>(b, |p, _| {
            p.take_events()
                .iter()
                .any(|e| matches!(e, PeerEvent::Data { peer, .. } if *peer == A))
        });
    }

    AttackReport {
        established,
        deaths,
        disrupted: deaths > 0,
        recovered,
        recovery_ms,
        defense_events: world
            .sim
            .metrics_snapshot()
            .counter_family("transport.rst_rejected"),
    }
}

/// ATK3 — registration squatting. A public client floods a capped
/// rendezvous table with throwaway registrations (plus an introduction
/// flood for good measure) while the victim pair tries to punch; with
/// oldest-first eviction the victims' registrations are churned out
/// faster than their keepalives restore them, and the introduction
/// stalls until the storm drains. Defense: [`ServerConfig::defended`]'s
/// protect-active eviction and per-source rate limiting. The defended
/// arm runs the shared attacker world defended, so
/// [`NatBehavior::defended`] is on too.
pub fn run_reg_squat(seed: u64, defended: bool) -> AttackReport {
    // The victim connects 1 s after t0 (2 s after boot), 800 ms into
    // the storm.
    const CONNECT_AT: Duration = Duration::from_secs(3);
    // From 200 ms after t0: 24 bursts, 250 ms apart, 40 fresh squat ids
    // each, and an introduction flood with every fourth — the 24-slot
    // table never stays legitimate for a full round trip.
    let mut faults = Vec::new();
    for k in 0..24 {
        let at_ms = 200 + 250 * k;
        faults.push(ChaosFault::SquatStorm { at_ms, count: 40 });
        if k % 4 == 0 {
            faults.push(ChaosFault::IntroFlood { at_ms, count: 12 });
        }
    }

    let mut sc = adversarial_scenario(seed, &faults, LEG_CAPS, defended);
    let connect_at = SimTime::ZERO + CONNECT_AT;
    sc.world.sim.run_until(connect_at);
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, B));
    let deadline = SimTime::ZERO + Duration::from_secs(60);
    let established = sc.world.run_until_app::<UdpPeer>(sc.a, deadline, |p| p.is_established(B));
    let delay_ms = sc.world.sim.now().saturating_since(connect_at).as_millis() as u64;

    // Data must actually flow; an introduction alone is not recovery.
    let deadline = sc.world.sim.now() + Duration::from_secs(10);
    let mut recovered = false;
    while established && !recovered && sc.world.sim.now() < deadline {
        recovered = beat(&mut sc, b"post-storm").1;
    }

    let stats = sc.world.app::<RendezvousServer>(sc.server).stats();
    let disrupted = delay_ms > 2_000;
    AttackReport {
        established,
        deaths: 0,
        disrupted,
        recovered,
        recovery_ms: if disrupted { delay_ms } else { 0 },
        defense_events: stats.reg_refused + stats.rate_limited,
    }
}

/// ATK4 — rogue `SrvIntroduce` forgery. Against a two-server fleet, an
/// off-path attacker forges a server-to-server introduction (source
/// spoofed to the second fleet member) naming its own endpoint as the
/// "requester"; an unauthenticated fleet dutifully introduces the
/// victim, whose punch probes then hammer the attacker — endpoint
/// disclosure plus reflected traffic. With a shared fleet secret
/// ([`ServerConfig::with_fleet_secret`]) the unsigned forgery is
/// rejected at the door.
pub fn run_intro_forgery(seed: u64, defended: bool) -> AttackReport {
    let s1_ep = Endpoint::new(addrs::SERVER, SERVER_PORT);
    let s2_ep = Endpoint::new(SERVER2_IP, SERVER_PORT);
    let fleet = vec![s1_ep, s2_ep];
    let mut cfg1 = ServerConfig::default().with_fleet(fleet.clone(), 0);
    let mut cfg2 = ServerConfig::default().with_fleet(fleet, 1);
    if defended {
        cfg1 = cfg1.with_fleet_secret(0xFEED_F00D);
        cfg2 = cfg2.with_fleet_secret(0xFEED_F00D);
    }

    let mut wb = WorldBuilder::new(seed).metrics();
    let s1 = wb.server(addrs::SERVER, RendezvousServer::new(cfg1));
    wb.server(SERVER2_IP, RendezvousServer::new(cfg2));
    let na = wb.nat(NatBehavior::well_behaved(), addrs::NAT_A);
    let v = wb.client(addrs::CLIENT_A, na, chaos_peer(A, ChaosProfile::Resilient));
    let bot = wb.public_client(ABUSE_IP, PeerSetup::new(AbuseBot::new(s1_ep, Vec::new())));
    let mut world = wb.build();
    let (s1, v, bot) = (world.servers[s1], world.clients[v], world.clients[bot]);
    let spoofer = add_spoofer(&mut world);

    // Let the victim register with its shard, then forge.
    world.sim.run_for(Duration::from_secs(2));
    let established = world.app::<UdpPeer>(v).is_registered();
    let attacker_ep = Endpoint::new(ABUSE_IP, ABUSE_PORT);
    let forged = Message::SrvIntroduce {
        requester: PeerId(666),
        requester_public: attacker_ep,
        requester_private: attacker_ep,
        target: A,
        nonce: 0xABCD,
    };
    spoof_at(
        &mut world,
        spoofer,
        Duration::from_millis(100),
        Packet::udp(s2_ep, s1_ep, forged.encode(false)),
    );
    world.sim.run_for(Duration::from_secs(5));

    let hijack_probes = world.app::<AbuseBot>(bot).received();
    AttackReport {
        established,
        deaths: 0,
        disrupted: hijack_probes > 0,
        recovered: hijack_probes == 0,
        recovery_ms: 0,
        defense_events: world.app::<RendezvousServer>(s1).stats().auth_rejected,
    }
}
