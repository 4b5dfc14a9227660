//! UDP hole punching (paper §3).
//!
//! [`UdpPeer`] is a complete client endpoint: it registers with the
//! rendezvous server *S*, answers introductions, races the candidate set
//! its [`crate::CandidatePlan`] generates (the peer's private and public
//! endpoints plus announced predicted-port windows, §3.2/§5.1), locks in
//! the first endpoint that authenticates, maintains keepalives and
//! re-punches dead sessions on demand (§3.6), and optionally falls back
//! to relaying (§2.2).
//!
//! One UDP socket carries everything — the session with S and every peer
//! session — exactly as the paper notes ("each client only needs one
//! socket").
//!
//! The decisions this endpoint shares with [`crate::TcpPeer`] live in
//! `session.rs` and `relay.rs`. What this file owns is the
//! carrier — the one socket, the spray, k-of-n registration — and what
//! only datagrams need: keepalives, on-demand and automatic re-punching
//! with backoff and jitter, the relay-to-direct probe, and when §5.1 port
//! prediction runs (its state is one `Predictor`, which only a client
//! whose plan predicts holds); plus its own metric names, events and RNG
//! draws.

use crate::candidates::{CandidateKind, CandidateSet, Predictor};
use crate::config::UdpPeerConfig;
use crate::events::{PeerEvent, Via};
use crate::relay::{self, RelayKind};
use crate::session::{self, Asked, Backlog, Phase, Race, Timers};
use bytes::Bytes;
use punch_net::flat::{self, FlatMap, Inline};
use punch_net::{Counters, Endpoint, MetricKey, SimTime};
use punch_rendezvous::{Message, PeerId, MAX_PAYLOAD};
use punch_transport::{App, Os, SockEvent, SocketId};
use rand::Rng;
use std::sync::Arc;

#[derive(Debug)]
struct Session {
    /// Locked in on the remote endpoint once established (§3.2 step 3).
    race: Race<Endpoint>,
    /// When the locked-in remote was last heard from. A field of its own
    /// rather than part of the link: inside the enum it would cost every
    /// session 8 bytes of padding.
    last_recv: SimTime,
    /// Nonce of the punch cycle whose first authenticated answer locked
    /// in the current `Established` remote. When a *later* cycle (a
    /// re-punch after the peer's NAT mapping changed) authenticates from
    /// a different address, the remote is re-locked to it; duplicate
    /// answers within one cycle still keep the first winner (§3.3).
    established_nonce: Option<u64>,
    /// The last introduction's (public, private) endpoints, kept so a
    /// re-punch can regenerate the race from the plan before a fresh
    /// introduction arrives.
    intro: Option<(Endpoint, Endpoint)>,
    attempts: u32,
    /// When we last sent anything on the direct path; keepalives are
    /// suppressed while application traffic keeps the mapping fresh.
    last_sent: SimTime,
    /// When this cycle was requested of S (§3.2 step 1) and when S
    /// first introduced it (step 2): the punch latency runs from the
    /// request, or from the introduction on a responder that never
    /// called `connect`. A re-punch resets both.
    requested: Option<SimTime>,
    introduced: Option<SimTime>,
    /// When this cycle's race was won.
    established: Option<SimTime>,
}

impl Session {
    fn new(nonce: u64) -> Self {
        Session {
            race: Race::new(nonce),
            last_recv: SimTime::ZERO,
            established_nonce: None,
            intro: None,
            attempts: 0,
            last_sent: SimTime::ZERO,
            requested: None,
            introduced: None,
            established: None,
        }
    }

    /// Time from the start of this cycle to its winning answer, once
    /// the race is won.
    fn latency(&self) -> Option<std::time::Duration> {
        let start = self.requested.or(self.introduced)?;
        Some(self.established?.saturating_since(start))
    }
}

// One `Session` per peer session, inline in its client's table (40 000
// live in the benchmark's `crowd_udp`): sharing `Race` with `TcpPeer`
// must not make it fatter.
const _: () = assert!(std::mem::size_of::<Session>() <= 176);

/// One of the client's k-of-n home rendezvous servers (the ring
/// owners of its own id), with per-server registration liveness.
#[derive(Clone, Copy)]
struct ServerSlot {
    ep: Endpoint,
    /// True while this server is acknowledging our registrations.
    registered: bool,
    /// When this server last acknowledged a registration.
    last_ack: SimTime,
}

/// What a timer token means. Which purposes are pending is asked of
/// [`Timers::is_armed`], the one record of it (D8).
#[derive(PartialEq)]
enum TimerPurpose {
    RegisterRetry,
    ServerKeepalive,
    PunchTick(PeerId),
    Keepalive(PeerId),
    RelayProbe(PeerId),
}

/// Counters exposed for experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct UdpPeerStats {
    /// Hole-punch probe datagrams sent.
    pub probes_sent: u64,
    /// Messages sent directly to peers.
    pub direct_msgs: u64,
    /// Messages sent through the relay.
    pub relay_msgs: u64,
    /// Sessions that re-punched on demand after dying (§3.6).
    pub repunches: u64,
    /// Peer keepalive datagrams actually sent.
    pub keepalives_sent: u64,
    /// Keepalives skipped because application traffic had already
    /// refreshed the mapping within the interval.
    pub keepalives_suppressed: u64,
}

/// A UDP hole-punching client endpoint (an [`App`]).
///
/// Drive it with [`punch_net::Sim::with_node`] +
/// [`punch_transport::HostDevice::with_app`]; consume results via
/// [`UdpPeer::take_events`] and the state accessors.
pub struct UdpPeer {
    /// This client's identity: the one per-client part of its
    /// configuration. The profile's own `id` is never read.
    id: PeerId,
    /// Everything else, shared with every client built from the same
    /// profile and never written through.
    profile: Arc<UdpPeerConfig>,
    sock: Option<SocketId>,
    local: Option<Endpoint>,
    public: Option<Endpoint>,
    /// The k-of-n home servers this client registers with: the ring
    /// owners of its own id, or just the profile's `server` without a
    /// fleet. One without a fleet, held in place.
    homes: Inline<ServerSlot, 1>,
    /// §5.1 port-prediction state: `Some` exactly when the plan
    /// predicts, so a client racing the paper's pair holds none of it.
    predictor: Option<Box<Predictor>>,
    /// Per-peer punch state. A client holds one to three sessions, so
    /// the table is a sorted vector that costs what it holds, with each
    /// session inline: the rare second session moves the first, and no
    /// session costs an allocation and a pointer chase of its own.
    sessions: FlatMap<PeerId, Session>,
    backlog: Backlog,
    events: Vec<PeerEvent>,
    timers: Timers<TimerPurpose>,
    stats: UdpPeerStats,
}

// One per client, inline in its host: a `ShardedWorld` client is one
// `HostDevice<UdpPeer>` allocation (40 000 of them in `crowd_udp`).
const _: () = assert!(std::mem::size_of::<UdpPeer>() <= 232);
const _: () = assert!(std::mem::size_of::<punch_transport::HostDevice<UdpPeer>>() <= 392);

impl UdpPeer {
    /// Creates the endpoint; it registers with S (every home server,
    /// with a fleet) when the host starts.
    pub fn new(cfg: UdpPeerConfig) -> Self {
        UdpPeer::from_profile(cfg.id, Arc::new(cfg))
    }

    /// Creates the endpoint `id` from a profile that many clients share:
    /// a world of clients that differ only in their ids holds one
    /// [`UdpPeerConfig`], not one per client. The profile's own `id` is
    /// ignored.
    pub fn from_profile(id: PeerId, profile: Arc<UdpPeerConfig>) -> Self {
        let cfg = &*profile;
        let mut homes = Inline::new();
        for ep in session::homes(cfg.server, &cfg.fleet, id, cfg.replication) {
            flat::push(
                &mut homes,
                ServerSlot {
                    ep,
                    registered: false,
                    last_ack: SimTime::ZERO,
                },
            );
        }
        // The probe port is on the first home server's address.
        let predictor = cfg.punch.plan.has_predictions().then(|| {
            let server = homes.first().map_or(cfg.server, |s| s.ep);
            Box::new(Predictor::new(&cfg.punch.plan, server.ip))
        });
        UdpPeer {
            id,
            profile,
            sock: None,
            local: None,
            public: None,
            homes,
            predictor,
            sessions: FlatMap::new(),
            backlog: Backlog::new(),
            events: Vec::new(),
            timers: Timers::new(),
            stats: UdpPeerStats::default(),
        }
    }

    /// Drains accumulated events, buffer and all: a peer nobody has
    /// polled since holds no event memory.
    pub fn take_events(&mut self) -> Vec<PeerEvent> {
        std::mem::take(&mut self.events)
    }

    /// Our public endpoint as observed by S, once registered.
    pub fn public_endpoint(&self) -> Option<Endpoint> {
        self.public
    }

    /// True while S is acknowledging our registrations: with a fleet,
    /// while at least one home server is.
    pub fn is_registered(&self) -> bool {
        self.homes.iter().any(|s| s.registered)
    }

    /// True once a direct session with `peer` is established.
    pub fn is_established(&self, peer: PeerId) -> bool {
        matches!(self.phase(peer), Some(Phase::Established(_)))
    }

    /// True if traffic to `peer` flows through the relay.
    pub fn is_relaying(&self, peer: PeerId) -> bool {
        matches!(self.phase(peer), Some(Phase::Relaying))
    }

    /// True if the session with `peer` has terminally failed (every
    /// punch attempt and fallback exhausted). A failed session is a
    /// legitimate terminal outcome for liveness checks: the peer is not
    /// stuck, it has given up and reported why.
    pub fn is_failed(&self, peer: PeerId) -> bool {
        matches!(self.phase(peer), Some(Phase::Failed))
    }

    /// The locked-in remote endpoint for `peer`, if established.
    pub fn session_remote(&self, peer: PeerId) -> Option<Endpoint> {
        self.sessions.get(&peer)?.race.link().copied()
    }

    fn phase(&self, peer: PeerId) -> Option<&Phase<Endpoint>> {
        self.sessions.get(&peer).map(|s| &s.race.phase)
    }

    /// Counters.
    pub fn stats(&self) -> UdpPeerStats {
        self.stats
    }

    /// How long the current punch cycle with `peer` took: from our
    /// connect request (or, on a responder that never asked, from S's
    /// introduction) to the winning answer. `None` until the race is
    /// won; a re-punch starts a new cycle. The race itself is reported
    /// by [`PeerEvent::RaceSettled`].
    pub fn punch_latency(&self, peer: PeerId) -> Option<std::time::Duration> {
        self.sessions.get(&peer)?.latency()
    }

    // ------------------------------------------------------------------
    // Public operations (call through `HostDevice::with_app`)
    // ------------------------------------------------------------------

    /// Requests a hole-punched session with `peer` (§3.2 step 1).
    pub fn connect(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        if !self.is_registered() {
            self.backlog.push((peer, Asked::Connect));
            return;
        }
        let now = os.now();
        let nonce: u64 = os.rng().gen();
        let session = self.sessions.entry(peer).or_insert_with(|| Session::new(nonce));
        session.requested.get_or_insert(now);
        self.request_introduction(os, peer, nonce);
        self.arm_punch_tick(os, peer);
    }

    /// Sends application data to `peer`: directly when punched, via the
    /// relay otherwise; queued while punching. A send on a session whose
    /// inbound traffic went stale triggers an on-demand re-punch (§3.6),
    /// and so does a send on a failed one — whose earlier queue was
    /// dropped when it failed with nowhere to go (relaying off).
    ///
    /// A payload over [`MAX_PAYLOAD`] is dropped and reported as
    /// [`PeerEvent::PayloadTooLarge`].
    pub fn send(&mut self, os: &mut Os<'_, '_>, peer: PeerId, data: Bytes) {
        if data.len() > MAX_PAYLOAD {
            let len = data.len();
            flat::push(&mut self.events, PeerEvent::PayloadTooLarge { peer, len });
            return;
        }
        let now = os.now();
        let timeout = self.profile.punch.session_timeout;
        let Some(session) = self.sessions.get_mut(&peer) else {
            if !self.is_registered() {
                self.backlog.push((peer, Asked::Send(data)));
                return;
            }
            // No session yet: start one and queue.
            self.connect(os, peer);
            if let Some(s) = self.sessions.get_mut(&peer) {
                s.race.queue(data);
            }
            return;
        };
        match session.race.phase {
            Phase::Established(remote) => {
                if now.saturating_since(session.last_recv) > timeout {
                    // The hole evidently closed; re-run the procedure.
                    session.race.queue(data);
                    os.metric_inc_labeled("punch.session_died", "stale-on-send");
                    flat::push(&mut self.events, PeerEvent::SessionDied { peer });
                    self.start_repunch(os, peer);
                    return;
                }
                session.last_sent = now;
                self.stats.direct_msgs += 1;
                self.send_to(os, remote, &Message::PeerData { data });
            }
            Phase::Relaying => self.relay_app(os, peer, &data),
            Phase::Punching => session.race.queue(data),
            Phase::Failed => {
                session.race.queue(data);
                self.start_repunch(os, peer);
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Restarts the §3.2 procedure for a session that died or failed:
    /// reset the volley budget, ask S for a fresh introduction (the
    /// peer's public endpoint may have changed, e.g. after a NAT
    /// reboot), and resume spraying.
    fn start_repunch(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        let now = os.now();
        // A fresh cycle gets a fresh nonce. Reusing the old one would let
        // the peer mistake this cycle's hellos for duplicates of the old
        // cycle and keep its (now dead) locked-in remote instead of
        // re-locking to the address our re-punch arrives from.
        let nonce: u64 = os.rng().gen();
        // The dead race's sprayed destinations lost their NAT holes
        // (that is what killed the session), so retire them: the next
        // contact with any of them consumes a fresh allocation, and the
        // §5.1 consumed-allocation estimate must keep counting the old
        // ones. Without this, re-punch predictions anchor one expiry
        // epoch behind the NAT's real allocator cursor.
        if let (Some(predictor), Some(session)) =
            (self.predictor.as_deref_mut(), self.sessions.get(&peer))
        {
            for dest in session.race.candidates.probed() {
                predictor.retire(dest);
            }
        }
        // The profile and the session table are disjoint fields, so the
        // plan is borrowed, not cloned, while the session is written.
        let plan = &self.profile.punch.plan;
        let Some(session) = self.sessions.get_mut(&peer) else {
            return;
        };
        session.race.phase = Phase::Punching;
        session.attempts = 0;
        session.race.nonce = nonce;
        // Regenerate the race from the plan and the last introduction —
        // do not merely clear it. When *our* NAT rebooted, the peer's
        // endpoints are often still valid, so the ticks keep racing them
        // (opening our fresh mapping) while the stale flag makes every
        // tick also re-request the introduction; a fresh one rebuilds
        // the set with current endpoints. Nothing is sprayed here: if
        // S's introduction arrives before the first tick (the clean-path
        // case), the regenerated set is replaced before it is ever used.
        session.race.candidates = match session.intro {
            Some((public, private)) => {
                let mut set = CandidateSet::from_sources(&plan.sources, public, private);
                set.mark_stale();
                set
            }
            None => CandidateSet::default(),
        };
        // A re-punch is a fresh §3.2 cycle; the latency measures it,
        // not the original punch.
        session.requested = Some(now);
        session.introduced = None;
        session.established = None;
        self.stats.repunches += 1;
        self.request_introduction(os, peer, nonce);
        self.arm_punch_tick(os, peer);
    }

    /// Asks S to introduce us to `peer` under `nonce` (§3.2 step 1). The
    /// request or the introduction may be lost (UDP), so punch ticks and
    /// relay probes ask again.
    fn request_introduction(&mut self, os: &mut Os<'_, '_>, peer: PeerId, nonce: u64) {
        let request = Message::ConnectRequest {
            peer_id: self.id,
            target: peer,
            nonce,
        };
        self.send_server(os, &request);
    }

    /// Forwards one application payload through S (§2.2).
    fn relay_app(&mut self, os: &mut Os<'_, '_>, peer: PeerId, data: &[u8]) {
        self.stats.relay_msgs += 1;
        let msg = relay::wrap(RelayKind::App, self.id, peer, data);
        self.send_server(os, &msg);
    }

    /// Arms the per-session punch tick unless one is already pending.
    ///
    /// With `backoff > 1.0` the interval grows exponentially with the
    /// attempt count (capped at `backoff_max`), and `backoff_jitter`
    /// adds a seeded random fraction to de-synchronise retry storms
    /// after an outage. The defaults (1.0 / 0.0) reproduce the paper's
    /// constant cadence exactly, with no extra RNG draws.
    fn arm_punch_tick(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        let Some(attempts) = self.sessions.get(&peer).map(|s| s.attempts) else {
            return;
        };
        if self.timers.is_armed(&TimerPurpose::PunchTick(peer)) {
            return;
        }
        let cfg = &self.profile.punch;
        let mut interval = cfg.spray_interval;
        if cfg.backoff > 1.0 {
            interval = interval
                .mul_f64(cfg.backoff.powi(attempts as i32))
                .min(cfg.backoff_max);
        }
        if cfg.backoff_jitter > 0.0 {
            let jitter = cfg.backoff_jitter;
            interval = interval.mul_f64(1.0 + os.rng().gen_range(0.0..jitter));
        }
        self.arm(os, interval, TimerPurpose::PunchTick(peer));
    }

    fn arm(&mut self, os: &mut Os<'_, '_>, after: std::time::Duration, purpose: TimerPurpose) {
        let token = self.timers.arm(purpose);
        os.set_timer(after, token);
    }

    fn send_to(&mut self, os: &mut Os<'_, '_>, to: Endpoint, msg: &Message) {
        if let Some(sock) = self.sock {
            // A new destination consumes one allocation on a symmetric
            // NAT; prediction accounts for these.
            if let Some(predictor) = self.predictor.as_deref_mut() {
                if !self.homes.iter().any(|s| s.ep == to) {
                    predictor.sent(to);
                }
            }
            // §3.1: endpoint addresses in message bodies are obfuscated.
            let _ = os.udp_send(sock, to, msg.encode(true));
        }
    }

    /// The server currently fielding our requests: the first home slot
    /// still acknowledging registrations, else the first home (requests
    /// keep flowing toward it while the registration loop recovers).
    fn primary(&self) -> Endpoint {
        self.homes
            .iter()
            .find(|s| s.registered)
            .or(self.homes.first())
            .map(|s| s.ep)
            .unwrap_or(self.profile.server)
    }

    /// Index of `ep` in the home-server list.
    fn home_index(&self, ep: Endpoint) -> Option<usize> {
        self.homes.iter().position(|s| s.ep == ep)
    }

    /// True when `ep` is one of our home servers — the only senders
    /// whose introductions and acks are honored.
    fn is_home(&self, ep: Endpoint) -> bool {
        self.home_index(ep).is_some()
    }

    fn send_server(&mut self, os: &mut Os<'_, '_>, msg: &Message) {
        let server = self.primary();
        self.send_to(os, server, msg);
    }

    /// Registers our socket's endpoint with every home server (k-of-n
    /// with a fleet; exactly one Register standalone).
    fn register_all(&mut self, os: &mut Os<'_, '_>) {
        let Some(private) = self.local else {
            return;
        };
        let register = Message::Register {
            peer_id: self.id,
            private,
        };
        for i in 0..self.homes.len() {
            let ep = self.homes[i].ep;
            self.send_to(os, ep, &register);
        }
    }

    /// Sends S's probe port the `Ping` whose answer measures our NAT's
    /// allocation stride (§5.1), if the plan needs the stride.
    fn probe_stride(&mut self, os: &mut Os<'_, '_>) {
        if let Some(probe) = self.predictor.as_ref().and_then(|p| p.probe) {
            self.send_to(os, probe, &Message::Ping);
        }
    }

    fn start_punch(
        &mut self,
        os: &mut Os<'_, '_>,
        peer: PeerId,
        public: Endpoint,
        private: Endpoint,
        nonce: u64,
    ) {
        // Materialize the plan against this introduction: in the default
        // plan the private (host) candidate races first — the direct
        // route inside a shared private network is preferred when it
        // answers (§3.3), as in ICE's candidate prioritization.
        let candidates =
            CandidateSet::from_sources(&self.profile.punch.plan.sources, public, private);
        let now = os.now();
        let session = self.sessions.entry(peer).or_insert_with(|| Session::new(nonce));
        session.race.nonce = nonce;
        session.race.candidates = candidates;
        session.intro = Some((public, private));
        session.introduced.get_or_insert(now);
        // A re-introduction (our periodic re-request under loss) must not
        // reset the volley budget, or a failing punch would retry forever.
        if !matches!(session.race.phase, Phase::Punching | Phase::Established(_)) {
            session.attempts = 0;
        }
        // A relayed session keeps flowing through S while we probe for a
        // direct upgrade; demoting it to `Punching` here would black-hole
        // traffic until the probe succeeds.
        if !matches!(session.race.phase, Phase::Established(_) | Phase::Relaying) {
            session.race.phase = Phase::Punching;
        }
        // §5.1 prediction, generalized: tell the peer which ports our
        // NAT is predicted to allocate next, via the relay (it cannot
        // reach us directly yet, by definition).
        if let Some(predictor) = self.predictor.as_deref() {
            let own = self.public.map(|p| p.port);
            let ports = self.profile.punch.plan.predicted_ports(predictor, own);
            if !ports.is_empty() {
                let public_ip = self.public.map(|p| p.ip).unwrap_or(public.ip);
                let msg = relay::announce(self.id, peer, public_ip, &ports);
                self.send_server(os, &msg);
            }
        }
        self.spray(os, peer);
        self.arm_punch_tick(os, peer);
    }

    fn spray(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        let now = os.now();
        let Some(session) = self.sessions.get_mut(&peer) else {
            return;
        };
        let nonce = session.race.nonce;
        // One volley of the race: every candidate, in race order (the
        // paper's full spray each volley).
        for cand in session.race.candidates.next_volley(now) {
            self.stats.probes_sent += 1;
            self.send_to(
                os,
                cand,
                &Message::PeerHello {
                    from: self.id,
                    nonce,
                },
            );
        }
    }

    /// Handles control payloads received over the relay (predicted
    /// candidate announcements).
    fn handle_control(&mut self, peer: PeerId, payload: &[u8]) {
        let Some((ip, ports)) = relay::announced(payload) else {
            return;
        };
        if let Some(session) = self.sessions.get_mut(&peer) {
            session.race.candidates.merge_announced(ip, ports);
        }
    }

    fn establish(&mut self, os: &mut Os<'_, '_>, peer: PeerId, remote: Endpoint) {
        let now = os.now();
        let keepalive = self.profile.punch.keepalive_interval;
        let race_metrics = self.predictor.is_some();
        let Some(session) = self.sessions.get_mut(&peer) else {
            return;
        };
        let cycle = session.race.nonce;
        let same_cycle = session.established_nonce.replace(cycle) == Some(cycle);
        // The first authenticated responder wins and the per-candidate
        // record freezes (§3.3 first-response lock-in, generalized over
        // the plan).
        let won = session.race.win(remote, remote, now);
        session.last_recv = now;
        if let Some(won) = &won {
            // The hello/ack volley that produced this establishment
            // just refreshed the mapping. (A pending relay-probe
            // timer finds us upgraded and is not re-armed.)
            session.last_sent = now;
            session.established = Some(now);
            os.metric_inc("punch.established");
            if race_metrics {
                os.metric_inc_by("punch.candidates_tried", won.probed as u64);
                let label = won
                    .winner_kind
                    .map(CandidateKind::label)
                    .unwrap_or("observed");
                os.metric_inc_labeled("punch.winner_kind", label);
            }
            if let Some(latency) = session.latency() {
                os.metric_observe("punch.latency", latency);
            }
        } else if let Phase::Established(current) = &mut session.race.phase {
            if same_cycle || *current == remote {
                // Same punch cycle (a duplicate answer from another
                // candidate — first winner keeps the lock, §3.3), or
                // the current path re-confirmed itself under a new
                // cycle's nonce.
                return;
            }
            // A *new* punch cycle authenticated from a different
            // address: the peer re-punched because the old path died
            // on its side (its NAT rebooted, §3.6). Keeping the stale
            // lock would black-hole every datagram it now sends from
            // the new mapping, so re-lock to the observed source.
            *current = remote;
            session.last_sent = now;
            os.metric_inc("punch.relocked");
        }
        flat::push(&mut self.events, PeerEvent::Established { peer, remote });
        if let Some(won) = won {
            flat::push(
                &mut self.events,
                PeerEvent::RaceSettled {
                    peer,
                    winner: Some(remote),
                    candidates: won.stamps,
                },
            );
            // Flush anything queued while punching.
            for data in won.queued {
                self.stats.direct_msgs += 1;
                self.send_to(os, remote, &Message::PeerData { data });
            }
        }
        if !self.timers.is_armed(&TimerPurpose::Keepalive(peer)) {
            self.arm(os, keepalive, TimerPurpose::Keepalive(peer));
        }
    }

    /// Whether `nonce` is the one S introduced `peer` under.
    fn authentic(&self, peer: PeerId, nonce: u64) -> bool {
        self.sessions
            .get(&peer)
            .is_some_and(|s| s.race.authenticates(nonce))
    }

    /// Finds the established session owning remote endpoint `from`.
    fn session_by_remote(&self, from: Endpoint) -> Option<PeerId> {
        self.sessions
            .iter()
            .find(|(_, s)| s.race.link() == Some(&from))
            .map(|(id, _)| *id)
    }

    fn touch(&mut self, peer: PeerId, now: SimTime) {
        if let Some(session) = self.sessions.get_mut(&peer) {
            session.last_recv = now;
        }
    }

    fn handle_message(&mut self, os: &mut Os<'_, '_>, from: Endpoint, msg: Message) {
        let now = os.now();
        match msg {
            Message::RegisterAck { public } if self.is_home(from) => {
                let first = !self.is_registered();
                if let Some(idx) = self.home_index(from) {
                    self.homes[idx].registered = true;
                    self.homes[idx].last_ack = now;
                }
                // Our public endpoint is the mapping the server fielding
                // our requests observes (other homes may sit behind
                // different mappings on a symmetric NAT). When it moves
                // (a NAT reboot moves the port pool), the stride was
                // measured against a mapping that is gone: measure again.
                if from == self.primary() {
                    let moved = self.public.replace(public).is_some_and(|old| old != public);
                    if let Some(p) = self.predictor.as_deref_mut().filter(|_| moved) {
                        p.stride = None;
                        // A first registration probes below.
                        if !first {
                            self.probe_stride(os);
                        }
                    }
                }
                if first {
                    os.metric_inc("punch.registered");
                    flat::push(&mut self.events, PeerEvent::Registered { public });
                    if !self.timers.is_armed(&TimerPurpose::ServerKeepalive) {
                        let ka = self.profile.server_keepalive;
                        self.arm(os, ka, TimerPurpose::ServerKeepalive);
                    }
                    // (Re-)measure the allocation stride: a fresh
                    // registration may sit on a fresh mapping.
                    self.probe_stride(os);
                    for (peer, asked) in std::mem::take(&mut self.backlog) {
                        match asked {
                            Asked::Connect => self.connect(os, peer),
                            Asked::Send(data) => self.send(os, peer, data),
                            Asked::Reversal => {} // §2.3 needs a listener: never asked of us
                        }
                    }
                }
            }
            // The probe port's answer: the mapping it observed.
            Message::RegisterAck { public: probed } => {
                if let Some(p) = self
                    .predictor
                    .as_deref_mut()
                    .filter(|p| p.probe == Some(from))
                {
                    p.measured(probed, self.public);
                }
            }
            Message::Introduce {
                peer,
                public,
                private,
                nonce,
                initiator: _,
            } if self.is_home(from) => {
                self.start_punch(os, peer, public, private, nonce);
            }
            // Like an introduction, relayed data and rejections are the
            // server's word: a stranger who learns our public mapping
            // must not be able to inject candidates, forge relayed app
            // data under any peer id, or fail a waiting session.
            Message::RelayedData { from: peer, data } if self.is_home(from) => {
                match relay::unwrap(&data) {
                    Some((RelayKind::Control, body)) => self.handle_control(peer, &body),
                    Some((RelayKind::App, data)) => flat::push(
                        &mut self.events,
                        PeerEvent::Data {
                            peer,
                            data,
                            via: Via::Relay,
                        },
                    ),
                    None => {}
                }
            }
            Message::ErrorReply { .. } if self.is_home(from) => {
                // S rejected a request (unknown peer): fail any sessions
                // still waiting for an introduction.
                let waiting: Vec<PeerId> = self
                    .sessions
                    .iter()
                    .filter(|(_, s)| s.race.awaits_introduction())
                    .map(|(id, _)| *id)
                    .collect();
                for peer in waiting {
                    self.fail_punch(os, peer, "server-rejected");
                }
            }
            // Stray traffic (§3.4): no session with that peer, or the
            // wrong nonce — possibly a same-address stranger.
            Message::PeerHello { from: peer, nonce } if self.authentic(peer, nonce) => {
                // Answer to the *observed* source, and lock in: an
                // authenticated hello proves this path works inbound, and
                // our ack will traverse the hole our own sprays opened.
                self.send_to(
                    os,
                    from,
                    &Message::PeerHelloAck {
                        from: self.id,
                        nonce,
                    },
                );
                self.establish(os, peer, from);
            }
            Message::PeerHelloAck { from: peer, nonce } if self.authentic(peer, nonce) => {
                self.establish(os, peer, from);
            }
            Message::PeerData { data } => {
                if let Some(peer) = self.session_by_remote(from) {
                    self.touch(peer, now);
                    flat::push(
                        &mut self.events,
                        PeerEvent::Data {
                            peer,
                            data,
                            via: Via::Direct,
                        },
                    );
                }
                // Unknown source: stray traffic, dropped (§3.4).
            }
            Message::KeepAlive => {
                if let Some(peer) = self.session_by_remote(from) {
                    self.touch(peer, now);
                }
            }
            _ => {}
        }
    }

    fn fail_punch(&mut self, os: &mut Os<'_, '_>, peer: PeerId, reason: &'static str) {
        let relay = self.profile.punch.relay_fallback;
        let probe_interval = self.profile.punch.relay_probe_interval;
        let race_metrics = self.predictor.is_some();
        let Some(session) = self.sessions.get_mut(&peer) else {
            return;
        };
        let Some(lost) = session.race.lose(relay) else {
            return;
        };
        if race_metrics {
            os.metric_inc_by("punch.candidates_tried", lost.probed as u64);
            os.metric_inc_labeled("punch.winner_kind", "none");
        }
        if relay {
            os.metric_inc_labeled("punch.relay_fallback", reason);
            flat::push(&mut self.events, PeerEvent::RelayActive { peer });
            let probe = TimerPurpose::RelayProbe(peer);
            if let Some(interval) = probe_interval.filter(|_| !self.timers.is_armed(&probe)) {
                self.arm(os, interval, probe);
            }
            for data in lost.queued {
                self.relay_app(os, peer, &data);
            }
        } else {
            os.metric_inc_labeled("punch.failed", reason);
            flat::push(&mut self.events, PeerEvent::PunchFailed { peer });
        }
        flat::push(
            &mut self.events,
            PeerEvent::RaceSettled {
                peer,
                winner: None,
                candidates: lost.stamps,
            },
        );
    }
}

impl App for UdpPeer {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        #[expect(clippy::expect_used, reason = "the first ephemeral port of a fresh host is free")]
        let sock = os.udp_bind(0).expect("ephemeral UDP port free");
        self.sock = Some(sock);
        self.local = os.local_endpoint(sock).ok();
        self.register_all(os);
        self.arm(os, self.profile.register_retry, TimerPurpose::RegisterRetry);
    }

    fn counters(&self, c: &mut Counters<'_>) {
        c.inc_by(MetricKey::plain("punch.probes"), self.stats.probes_sent);
        c.inc_by(MetricKey::plain("punch.repunch"), self.stats.repunches);
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        if let SockEvent::UdpReceived { sock, from, data } = ev {
            if Some(sock) != self.sock {
                return;
            }
            match Message::decode(&data) {
                Ok(msg) => self.handle_message(os, from, msg),
                Err(_) => { /* Stray or corrupted datagram: drop (§3.4). */ }
            }
        }
    }

    fn on_timer(&mut self, os: &mut Os<'_, '_>, token: u64) {
        let Some(purpose) = self.timers.fired(token) else {
            return;
        };
        match purpose {
            TimerPurpose::RegisterRetry => {
                if !self.is_registered() {
                    self.register_all(os);
                    self.arm(os, self.profile.register_retry, TimerPurpose::RegisterRetry);
                }
            }
            TimerPurpose::ServerKeepalive => {
                let now = os.now();
                let ka = self.profile.server_keepalive;
                // Two missed keepalive acks (plus a retry's grace) mean a
                // server is gone — most likely restarted with empty
                // tables. Each home slot is judged on its own acks.
                let lost_after = ka * 2 + self.profile.register_retry;
                let was_registered = self.is_registered();
                let mut lost = 0u64;
                for slot in self.homes.iter_mut() {
                    if slot.registered && now.saturating_since(slot.last_ack) > lost_after {
                        slot.registered = false;
                        lost += 1;
                    }
                }
                if was_registered && !self.is_registered() {
                    // Every home went silent: drop to the registration
                    // loop so peers can find us again once one returns.
                    os.metric_inc("punch.server_lost");
                    flat::push(&mut self.events, PeerEvent::ServerLost);
                    self.register_all(os);
                    self.arm(os, self.profile.register_retry, TimerPurpose::RegisterRetry);
                    return;
                }
                if lost > 0 {
                    // A subset of the fleet died; surviving homes keep
                    // serving while re-registration below courts the
                    // replacement.
                    os.metric_inc_by("punch.server_failover", lost);
                }
                // Refresh every home's registration record and the NAT
                // mappings toward them (§3.6 applies to the rendezvous
                // sessions as much as to peer sessions), and probe again
                // while the first probe or its answer is lost.
                self.register_all(os);
                if self.predictor.as_ref().is_some_and(|p| p.stride.is_none()) {
                    self.probe_stride(os);
                }
                self.arm(os, ka, TimerPurpose::ServerKeepalive);
            }
            TimerPurpose::PunchTick(peer) => {
                let max = self.profile.punch.max_attempts;
                let Some(session) = self.sessions.get_mut(&peer) else {
                    return;
                };
                if !session.race.is_punching() {
                    return; // Established or relaying; volley no longer needed.
                }
                session.attempts += 1;
                if session.attempts > max {
                    self.fail_punch(os, peer, "max-attempts");
                    return;
                }
                let nonce = session.race.nonce;
                if session.race.awaits_introduction() || session.attempts % 4 == 0 {
                    self.request_introduction(os, peer, nonce);
                }
                self.spray(os, peer);
                self.arm_punch_tick(os, peer);
            }
            TimerPurpose::Keepalive(peer) => {
                let interval = self.profile.punch.keepalive_interval;
                let timeout = self.profile.punch.session_timeout;
                let miss_limit = self.profile.punch.keepalive_miss_limit;
                let auto_repunch = self.profile.punch.auto_repunch;
                let now = os.now();
                let Some(session) = self.sessions.get_mut(&peer) else {
                    return;
                };
                if let Phase::Established(remote) = session.race.phase {
                    let quiet = now.saturating_since(session.last_recv);
                    // Miss-based liveness: several silent keepalive
                    // intervals condemn the session without waiting for
                    // the full timeout (opt-in; 0 disables).
                    let missed = miss_limit > 0 && quiet > interval * miss_limit;
                    if quiet > timeout || missed {
                        session.race.phase = Phase::Failed;
                        os.metric_inc_labeled("punch.session_died", "keepalive-timeout");
                        flat::push(&mut self.events, PeerEvent::SessionDied { peer });
                        if auto_repunch {
                            self.start_repunch(os, peer);
                        }
                        return;
                    }
                    // §3.6 refinement: application traffic already
                    // refreshed the NAT mapping — skip the redundant
                    // keepalive and re-arm for the remainder.
                    let since_sent = now.saturating_since(session.last_sent);
                    if since_sent < interval {
                        self.stats.keepalives_suppressed += 1;
                        self.arm(os, interval - since_sent, TimerPurpose::Keepalive(peer));
                        return;
                    }
                    session.last_sent = now;
                    self.stats.keepalives_sent += 1;
                    self.send_to(os, remote, &Message::KeepAlive);
                    self.arm(os, interval, TimerPurpose::Keepalive(peer));
                }
            }
            TimerPurpose::RelayProbe(peer) => {
                // While relaying, periodically re-run the §3.2 procedure
                // and upgrade to the direct path if it now works (the
                // blocking condition — a restrictive NAT, an outage —
                // may have cleared).
                let Some(interval) = self.profile.punch.relay_probe_interval else {
                    return;
                };
                let Some(session) = self.sessions.get_mut(&peer) else {
                    return;
                };
                if !matches!(session.race.phase, Phase::Relaying) {
                    return;
                }
                session.attempts = 0;
                let nonce = session.race.nonce;
                self.request_introduction(os, peer, nonce);
                self.spray(os, peer);
                self.arm(os, interval, TimerPurpose::RelayProbe(peer));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_payload_extends_candidates() {
        let mut peer = UdpPeer::new(UdpPeerConfig::new(
            PeerId(1),
            "18.181.0.31:1234".parse().unwrap(),
        ));
        let mut session = Session::new(1);
        session
            .race
            .candidates
            .insert("138.76.29.7:31000".parse().unwrap(), CandidateKind::Public);
        peer.sessions.insert(PeerId(2), session);
        let mut payload = vec![138, 76, 29, 7, 2];
        payload.extend_from_slice(&31001u16.to_be_bytes());
        payload.extend_from_slice(&31002u16.to_be_bytes());
        peer.handle_control(PeerId(2), &payload);
        let cands = peer.sessions.get(&PeerId(2)).unwrap().race.candidates.stamps();
        assert_eq!(cands.len(), 3);
        assert!(cands.iter().any(|c| c.endpoint == "138.76.29.7:31002".parse().unwrap()));
        // Duplicate announcements do not duplicate candidates.
        peer.handle_control(PeerId(2), &payload);
        assert_eq!(
            peer.sessions.get(&PeerId(2)).unwrap().race.candidates.stamps().len(),
            3
        );
    }

    #[test]
    fn malformed_control_payload_ignored() {
        let mut peer = UdpPeer::new(UdpPeerConfig::new(
            PeerId(1),
            "18.181.0.31:1234".parse().unwrap(),
        ));
        peer.sessions.insert(PeerId(2), Session::new(1));
        peer.handle_control(PeerId(2), &[1, 2, 3]); // too short
        peer.handle_control(PeerId(2), &[1, 2, 3, 4, 9, 0, 1]); // count says 9, data for 1
        assert!(peer.sessions.get(&PeerId(2)).unwrap().race.candidates.is_empty());
    }

    #[test]
    fn fleet_homes_are_the_ring_owners() {
        let fleet: Vec<Endpoint> = (0..4u8)
            .map(|j| format!("18.181.0.{}:1234", 31 + j).parse().unwrap())
            .collect();
        let cfg = UdpPeerConfig::new(PeerId(7), fleet[0]).with_fleet(fleet.clone(), 2);
        let peer = UdpPeer::new(cfg);
        let owners = punch_rendezvous::ring::owners(&fleet, PeerId(7), 2);
        assert_eq!(
            peer.homes.iter().map(|h| h.ep).collect::<Vec<_>>(),
            owners,
            "client registers with exactly its k ring owners"
        );
        assert_eq!(peer.primary(), owners[0]);
    }

    #[test]
    fn peers_built_from_one_profile_share_it_and_keep_their_own_ids() {
        let fleet: Vec<Endpoint> = (0..4u8)
            .map(|j| format!("18.181.0.{}:1234", 31 + j).parse().unwrap())
            .collect();
        let profile =
            Arc::new(UdpPeerConfig::new(PeerId(99), fleet[0]).with_fleet(fleet.clone(), 2));
        let a = UdpPeer::from_profile(PeerId(1), Arc::clone(&profile));
        let b = UdpPeer::from_profile(PeerId(2), Arc::clone(&profile));
        assert_eq!(Arc::strong_count(&profile), 3, "no peer copied the profile");
        assert!(Arc::ptr_eq(&a.profile, &b.profile));
        for (peer, id) in [(&a, PeerId(1)), (&b, PeerId(2))] {
            assert_eq!(peer.id, id);
            let homes: Vec<Endpoint> = peer.homes.iter().map(|h| h.ep).collect();
            assert_eq!(homes, punch_rendezvous::ring::owners(&fleet, id, 2));
        }
    }

    #[test]
    fn empty_fleet_degenerates_to_the_single_server() {
        let peer = UdpPeer::new(UdpPeerConfig::new(
            PeerId(1),
            "18.181.0.31:1234".parse().unwrap(),
        ));
        assert_eq!(peer.homes.len(), 1);
        assert_eq!(peer.homes[0].ep, "18.181.0.31:1234".parse().unwrap());
        assert_eq!(peer.primary(), "18.181.0.31:1234".parse().unwrap());
    }
}
