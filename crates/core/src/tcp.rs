//! TCP hole punching (paper §4).
//!
//! [`TcpPeer`] implements the §4.2 procedure: one local TCP port is shared
//! (via the `SO_REUSEADDR`/`SO_REUSEPORT` semantics of §4.1) by the control
//! connection to *S*, a listen socket, and simultaneous outgoing connects
//! to the peer's public, then private endpoint (the same racing engine
//! the UDP path uses). Failed connects are
//! re-tried after a short delay (step 4), surviving RST-happy NATs
//! (§5.2); the first *authenticated* stream wins (step 5), whether it
//! surfaced via `connect()` or `accept()` (§4.3). Connection reversal
//! (§2.3) rides the same machinery.
//!
//! The decisions this endpoint shares with [`crate::UdpPeer`] live in
//! `session.rs` and `relay.rs`. What this file owns is the
//! carrier — the sockets on the one shared port, the control connection
//! to S and its reconnection — and what only streams
//! need: connect retry, the punch deadline, the §4.5 sequential mode,
//! §2.3 reversal, fallback streams; plus its own metric names, events
//! and RNG draws.

use crate::candidates::{CandidateKind, CandidateSet, CandidateSource};
use crate::config::{TcpPeerConfig, TcpPunchMode};
use crate::events::{PeerEvent, TcpPath, Via};
use crate::relay::{self, RelayKind};
use crate::session::{Asked, Backlog, Phase, Race, Timers};
use bytes::Bytes;
use punch_net::flat::{self, FlatMap};
use punch_net::{Endpoint, SimTime};
use punch_rendezvous::{encode_frame, FrameBuf, Message, PeerId, MAX_PAYLOAD};
use punch_transport::{App, ConnectOpts, Os, SockEvent, SocketError, SocketId};
use rand::Rng;
use std::time::Duration;

/// §4.2 step 4: the delay before re-trying a connect that failed with a
/// network error ("e.g., one second"); also the delay before
/// reconnecting a lost control connection to S.
const RETRY_DELAY: Duration = Duration::from_secs(1);
/// Re-tries per candidate endpoint.
const MAX_RETRIES: u32 = 8;
/// How long a punch may run before it falls back to relaying through S
/// (§2.2).
const PUNCH_DEADLINE: Duration = Duration::from_secs(30);
/// The §4.2 connect order: peer public, then peer private. TCP has no
/// relay control channel, so it predicts and announces nothing.
const CONNECT_ORDER: [CandidateSource; 2] =
    [CandidateSource::PeerPublic, CandidateSource::PeerPrivate];

/// Counters exposed for experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpPeerStats {
    /// `connect()` attempts issued (including retries).
    pub connects_started: u64,
    /// Attempts that failed with a network error and were re-tried.
    pub retries: u64,
    /// Streams that authenticated successfully.
    pub streams_authenticated: u64,
}

#[derive(Debug)]
struct TcpSession {
    /// Locked in on the winning stream's socket once established.
    race: Race<SocketId>,
    retries: FlatMap<Endpoint, u32>,
    started_at: SimTime,
    /// This cycle's deadline was armed, and may already have fired: not
    /// a restatement of the timer table (D8), which forgets a fired one.
    deadline_armed: bool,
    /// §4.5: after the doomed connect, the responder only listens.
    passive: bool,
}

impl TcpSession {
    fn new(nonce: u64, now: SimTime) -> Self {
        TcpSession {
            race: Race::new(nonce),
            retries: FlatMap::new(),
            started_at: now,
            deadline_armed: false,
            passive: false,
        }
    }

    /// Joins the punch cycle under `nonce`. A new nonce starts a fresh
    /// cycle: a reconnect after a lost stream must not inherit the last
    /// one's start time, retry counts, deadline or §4.5 passive flag.
    fn join_cycle(&mut self, nonce: u64, now: SimTime) {
        if self.race.nonce != nonce {
            self.race.nonce = nonce;
            self.retries = FlatMap::new();
            self.started_at = now;
            self.deadline_armed = false;
            self.passive = false;
        }
    }
}

/// One TCP connection to or from a peer, from SYN to close.
struct Conn {
    /// Stream reassembly.
    frames: FrameBuf,
    /// Our own `connect()`: the session it races for and the candidate
    /// it targets. `None` for a stream that arrived via `accept()`.
    attempt: Option<(PeerId, Endpoint)>,
    /// The peer this stream authenticated as (§4.2 step 5).
    stream: Option<PeerId>,
}

enum TimerPurpose {
    ServerReconnect,
    Retry {
        peer: PeerId,
        remote: Endpoint,
    },
    /// The punch deadline of the cycle with this nonce.
    Deadline(PeerId, u64),
    /// §4.5: the responder's doomed connect has had time to punch its
    /// hole; signal the initiator to go.
    DoomedDone(PeerId),
}

/// A TCP hole-punching client endpoint (an [`App`]).
pub struct TcpPeer {
    cfg: TcpPeerConfig,
    local_port: u16,
    server_sock: Option<SocketId>,
    server_frames: FrameBuf,
    registered: bool,
    sessions: FlatMap<PeerId, TcpSession>,
    /// Every peer connection: attempts in flight, accepted streams,
    /// authenticated streams.
    conns: FlatMap<SocketId, Conn>,
    backlog: Backlog,
    events: Vec<PeerEvent>,
    timers: Timers<TimerPurpose>,
    stats: TcpPeerStats,
}

impl TcpPeer {
    /// Creates the endpoint; it connects and registers when the host
    /// starts.
    pub fn new(cfg: TcpPeerConfig) -> Self {
        TcpPeer {
            cfg,
            local_port: 0,
            server_sock: None,
            server_frames: FrameBuf::new(),
            registered: false,
            sessions: FlatMap::new(),
            conns: FlatMap::new(),
            backlog: Backlog::new(),
            events: Vec::new(),
            timers: Timers::new(),
            stats: TcpPeerStats::default(),
        }
    }

    /// Drains accumulated events, buffer and all, as
    /// [`crate::UdpPeer::take_events`] does.
    pub fn take_events(&mut self) -> Vec<PeerEvent> {
        std::mem::take(&mut self.events)
    }

    /// True once an authenticated stream to `peer` exists.
    pub fn is_established(&self, peer: PeerId) -> bool {
        self.winner(peer).is_some()
    }

    /// Whether the winning stream surfaced via `connect()` or `accept()`.
    pub fn established_path(&self, peer: PeerId) -> Option<TcpPath> {
        Some(self.conns.get(&self.winner(peer)?)?.path())
    }

    /// True if traffic to `peer` flows through the relay.
    pub fn is_relaying(&self, peer: PeerId) -> bool {
        self.sessions
            .get(&peer)
            .is_some_and(|s| matches!(s.race.phase, Phase::Relaying))
    }

    /// Counters.
    pub fn stats(&self) -> TcpPeerStats {
        self.stats
    }

    fn winner(&self, peer: PeerId) -> Option<SocketId> {
        self.sessions.get(&peer)?.race.link().copied()
    }

    // ------------------------------------------------------------------
    // Public operations
    // ------------------------------------------------------------------

    /// Requests a hole-punched TCP stream to `peer` (§4.2 step 1).
    pub fn connect(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        if !self.registered {
            self.backlog.push((peer, Asked::Connect));
            return;
        }
        let nonce: u64 = os.rng().gen();
        let request = Message::ConnectRequest {
            peer_id: self.cfg.id,
            target: peer,
            nonce,
        };
        self.open_session(os, peer, nonce, &request);
    }

    /// Asks `peer` (via S) to open a connection back to us — §2.3
    /// connection reversal, for when our own NAT admits nothing inbound
    /// but the peer is directly reachable... or vice versa.
    // punch-lint: allow(S005) §2.3 connection reversal, exercised only by core/tests/tcp_punch.rs and core/tests/peer_contract.rs
    pub fn request_reversal(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        if !self.registered {
            self.backlog.push((peer, Asked::Reversal));
            return;
        }
        let nonce: u64 = os.rng().gen();
        let request = self.reversal_request(peer, nonce);
        self.open_session(os, peer, nonce, &request);
    }

    /// Sends application data over the established stream, or through S
    /// when relaying; queued until the punch settles. A payload over
    /// [`MAX_PAYLOAD`] is dropped, and reported as
    /// [`PeerEvent::PayloadTooLarge`].
    pub fn send(&mut self, os: &mut Os<'_, '_>, peer: PeerId, data: Bytes) {
        if data.len() > MAX_PAYLOAD {
            let len = data.len();
            flat::push(&mut self.events, PeerEvent::PayloadTooLarge { peer, len });
            return;
        }
        let Some(session) = self.sessions.get_mut(&peer) else {
            if !self.registered {
                self.backlog.push((peer, Asked::Send(data)));
                return;
            }
            self.connect(os, peer);
            if let Some(s) = self.sessions.get_mut(&peer) {
                s.race.queue(data);
            }
            return;
        };
        match session.race.phase {
            Phase::Established(sock) => self.send_data(os, sock, data),
            Phase::Relaying => self.relay_app(os, peer, &data),
            Phase::Punching => session.race.queue(data),
            Phase::Failed => {}
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Sends `request` to S for a session with `peer` under `nonce`,
    /// creating the session if this is its first punch cycle.
    fn open_session(&mut self, os: &mut Os<'_, '_>, peer: PeerId, nonce: u64, request: &Message) {
        let now = os.now();
        self.sessions
            .entry(peer)
            .or_insert_with(|| TcpSession::new(nonce, now))
            .join_cycle(nonce, now);
        self.send_server(os, request);
        self.arm_deadline(os, peer);
    }

    fn reversal_request(&self, peer: PeerId, nonce: u64) -> Message {
        Message::ReversalRequest {
            peer_id: self.cfg.id,
            target: peer,
            nonce,
        }
    }

    fn send_frame(&self, os: &mut Os<'_, '_>, sock: SocketId, msg: &Message) {
        // §3.1: endpoint addresses in message bodies are obfuscated.
        let _ = os.tcp_send(sock, encode_frame(msg, true));
    }

    fn send_data(&self, os: &mut Os<'_, '_>, sock: SocketId, data: Bytes) {
        self.send_frame(os, sock, &Message::PeerData { data });
    }

    /// Forwards one application payload through S (§2.2).
    fn relay_app(&mut self, os: &mut Os<'_, '_>, peer: PeerId, data: &[u8]) {
        let msg = relay::wrap(RelayKind::App, self.cfg.id, peer, data);
        self.send_server(os, &msg);
    }

    fn arm(&mut self, os: &mut Os<'_, '_>, after: Duration, purpose: TimerPurpose) {
        let token = self.timers.arm(purpose);
        os.set_timer(after, token);
    }

    fn arm_deadline(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        if let Some(s) = self.sessions.get_mut(&peer) {
            if !s.deadline_armed {
                s.deadline_armed = true;
                let nonce = s.race.nonce;
                self.arm(os, PUNCH_DEADLINE, TimerPurpose::Deadline(peer, nonce));
            }
        }
    }

    fn send_server(&mut self, os: &mut Os<'_, '_>, msg: &Message) {
        if let Some(sock) = self.server_sock {
            self.send_frame(os, sock, msg);
        }
    }

    fn connect_opts(&self) -> ConnectOpts {
        ConnectOpts {
            local_port: Some(self.local_port),
            reuse: true,
        }
    }

    /// (Re)connects the control connection to S; retried after
    /// `RETRY_DELAY`, the paper's fixed §4.2 cadence.
    fn connect_server(&mut self, os: &mut Os<'_, '_>) {
        match os.tcp_connect(self.cfg.server, self.connect_opts()) {
            Ok(sock) => self.server_sock = Some(sock),
            Err(_) => self.arm(os, RETRY_DELAY, TimerPurpose::ServerReconnect),
        }
    }

    /// The control connection failed or closed: forget the registration
    /// and reconnect after `RETRY_DELAY`.
    fn server_lost(&mut self, os: &mut Os<'_, '_>) {
        self.server_sock = None;
        self.registered = false;
        self.arm(os, RETRY_DELAY, TimerPurpose::ServerReconnect);
    }

    /// Records the peer's candidates on the session without connecting:
    /// its public endpoint first, then its private one (§4.2's order).
    fn prepare_session(
        &mut self,
        os: &mut Os<'_, '_>,
        peer: PeerId,
        public: Endpoint,
        private: Endpoint,
        nonce: u64,
    ) {
        let candidates = CandidateSet::from_sources(&CONNECT_ORDER, public, private);
        let now = os.now();
        let session = self
            .sessions
            .entry(peer)
            .or_insert_with(|| TcpSession::new(nonce, now));
        session.join_cycle(nonce, now);
        session.race.candidates = candidates;
        self.arm_deadline(os, peer);
    }

    /// Starts simultaneous outgoing connection attempts to every
    /// candidate (§4.2 step 3) — one volley of the race, in connect
    /// order.
    fn start_punch(
        &mut self,
        os: &mut Os<'_, '_>,
        peer: PeerId,
        public: Endpoint,
        private: Endpoint,
        nonce: u64,
    ) {
        self.prepare_session(os, peer, public, private, nonce);
        let now = os.now();
        let due = self
            .sessions
            .get_mut(&peer)
            .map(|s| s.race.candidates.next_volley(now))
            .unwrap_or_default();
        for cand in due {
            self.spawn_attempt(os, peer, cand);
        }
    }

    fn spawn_attempt(&mut self, os: &mut Os<'_, '_>, peer: PeerId, remote: Endpoint) {
        let racing = |s: &TcpSession| s.race.is_punching() && !s.passive;
        if !self.sessions.get(&peer).is_some_and(racing) {
            return;
        }
        // A refusal is final for now. The usual one is `AddrInUse`: the
        // 4-tuple is busy — either an attempt is already in flight or
        // the listener owns an accepted stream to that endpoint; both
        // mean we need not (and cannot) try again now.
        if let Ok(sock) = os.tcp_connect(remote, self.connect_opts()) {
            self.stats.connects_started += 1;
            self.conns.insert(sock, Conn::new(Some((peer, remote))));
        }
    }

    /// Aborts `peer`'s connect attempts that have not authenticated;
    /// they can no longer win.
    fn abort_attempts(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        let doomed: Vec<SocketId> = self
            .conns
            .iter()
            .filter(|(_, c)| c.stream.is_none() && c.attempt.is_some_and(|(p, _)| p == peer))
            .map(|(s, _)| *s)
            .collect();
        for s in doomed {
            self.conns.remove(&s);
            let _ = os.tcp_abort(s);
        }
    }

    fn send_hello(&mut self, os: &mut Os<'_, '_>, sock: SocketId, peer: PeerId) {
        let Some(session) = self.sessions.get(&peer) else {
            return;
        };
        let msg = Message::PeerHello {
            from: self.cfg.id,
            nonce: session.race.nonce,
        };
        self.send_frame(os, sock, &msg);
    }

    /// §4.2 step 5: the first authenticated stream becomes the session
    /// stream. Later authenticated duplicates are kept as live fallbacks
    /// (data on them is still delivered) but not used for sending; this
    /// avoids the split-brain of both sides aborting each other's pick.
    fn authenticated(&mut self, os: &mut Os<'_, '_>, sock: SocketId, peer: PeerId) {
        self.stats.streams_authenticated += 1;
        let Some(conn) = self.conns.get_mut(&sock) else {
            return;
        };
        conn.stream = Some(peer);
        let path = conn.path();
        let remote = os.remote_endpoint(sock).unwrap_or(Endpoint::UNSPECIFIED);
        let now = os.now();
        let Some(won) = self
            .sessions
            .get_mut(&peer)
            .and_then(|s| s.race.win(sock, remote, now))
        else {
            return; // Keep as fallback stream.
        };
        os.metric_inc_labeled(
            "punch.tcp.established",
            match path {
                TcpPath::Connect => "connect",
                TcpPath::Accept => "accept",
            },
        );
        os.metric_inc_by("punch.tcp.candidates_tried", won.probed as u64);
        os.metric_inc_labeled(
            "punch.tcp.winner_kind",
            won.winner_kind
                .map(CandidateKind::label)
                .unwrap_or("observed"),
        );
        flat::push(&mut self.events, PeerEvent::Established { peer, remote });
        flat::push(
            &mut self.events,
            PeerEvent::RaceSettled {
                peer,
                winner: Some(remote),
                candidates: won.stamps,
            },
        );
        for data in won.queued {
            self.send_data(os, sock, data);
        }
        self.abort_attempts(os, peer);
    }

    fn handle_peer_frame(&mut self, os: &mut Os<'_, '_>, sock: SocketId, msg: Message) {
        let (from, nonce, is_hello) = match msg {
            Message::PeerHello { from, nonce } => (from, nonce, true),
            Message::PeerHelloAck { from, nonce } => (from, nonce, false),
            Message::PeerData { data } => {
                if let Some(peer) = self.conns.get(&sock).and_then(|c| c.stream) {
                    flat::push(
                        &mut self.events,
                        PeerEvent::Data {
                            peer,
                            data,
                            via: Via::Direct,
                        },
                    );
                }
                return;
            }
            _ => return,
        };
        let authentic = |s: &TcpSession| s.race.authenticates(nonce);
        if !self.sessions.get(&from).is_some_and(authentic) {
            // Authentication failure: close and keep waiting (§4.2
            // step 5).
            self.drop_sock(os, sock, true);
            return;
        }
        if is_hello {
            let reply = Message::PeerHelloAck {
                from: self.cfg.id,
                nonce,
            };
            self.send_frame(os, sock, &reply);
        }
        self.authenticated(os, sock, from);
    }

    fn drop_sock(&mut self, os: &mut Os<'_, '_>, sock: SocketId, abort: bool) {
        let conn = self.conns.remove(&sock);
        if let Some(peer) = conn.and_then(|c| c.stream) {
            if let Some(session) = self.sessions.get_mut(&peer) {
                if session.race.link() == Some(&sock) {
                    // Promote a fallback stream if one authenticated;
                    // else the session waits for the application's next
                    // `connect`.
                    let fallback = self
                        .conns
                        .iter()
                        .find(|(_, c)| c.stream == Some(peer))
                        .map(|(s, _)| *s);
                    session.race.phase = match fallback {
                        Some(s) => Phase::Established(s),
                        None => Phase::Punching,
                    };
                    if fallback.is_none() {
                        flat::push(&mut self.events, PeerEvent::PeerClosed { peer });
                    }
                }
            }
        }
        if abort {
            let _ = os.tcp_abort(sock);
        }
    }

    fn handle_connect_failed(&mut self, os: &mut Os<'_, '_>, sock: SocketId, err: SocketError) {
        let Some((peer, remote)) = self.conns.remove(&sock).and_then(|c| c.attempt) else {
            return;
        };
        let now = os.now();
        let Some(session) = self.sessions.get_mut(&peer) else {
            return;
        };
        if !session.race.is_punching() {
            return;
        }
        match err {
            // §4.2 step 4: "connection reset" or "host unreachable" →
            // re-try after a short delay.
            SocketError::ConnectionRefused
            | SocketError::ConnectionReset
            | SocketError::HostUnreachable => {
                let tries = session.retries.entry(remote).or_insert(0);
                *tries += 1;
                if *tries <= MAX_RETRIES
                    && now.saturating_since(session.started_at) < PUNCH_DEADLINE
                {
                    self.stats.retries += 1;
                    self.arm(os, RETRY_DELAY, TimerPurpose::Retry { peer, remote });
                }
            }
            // `AddrInUse` is §4.3's second behaviour: the listener claimed
            // our 4-tuple and a stream will surface via accept(). After
            // `TimedOut` the stack already spent its SYN retransmissions;
            // the path is silently dropping us and only the peer's SYN
            // can open it. Nothing to do for either.
            _ => {}
        }
    }

    fn handle_server_msg(&mut self, os: &mut Os<'_, '_>, msg: Message) {
        match msg {
            Message::RegisterAck { public } => {
                let first = !self.registered;
                self.registered = true;
                if first {
                    flat::push(&mut self.events, PeerEvent::Registered { public });
                    for (peer, asked) in std::mem::take(&mut self.backlog) {
                        match asked {
                            Asked::Connect => self.connect(os, peer),
                            Asked::Reversal => self.request_reversal(os, peer),
                            Asked::Send(data) => self.send(os, peer, data),
                        }
                    }
                }
            }
            Message::Introduce {
                peer,
                public,
                private,
                nonce,
                initiator,
            } => {
                match (self.cfg.mode, initiator) {
                    (TcpPunchMode::Parallel, _) => {
                        self.start_punch(os, peer, public, private, nonce)
                    }
                    // §4.5 step 1: the initiator does not connect (or
                    // even arm its attempts) until the responder signals
                    // readiness.
                    (TcpPunchMode::Sequential { .. }, true) => {
                        self.prepare_session(os, peer, public, private, nonce);
                    }
                    // §4.5 step 2: the responder makes a doomed connect
                    // to the initiator's public endpoint to open its own
                    // NAT hole, then signals after `doomed_wait`.
                    (TcpPunchMode::Sequential { doomed_wait }, false) => {
                        self.prepare_session(os, peer, public, private, nonce);
                        self.spawn_attempt(os, peer, public);
                        self.arm(os, doomed_wait, TimerPurpose::DoomedDone(peer));
                    }
                }
            }
            Message::ReversalRequested {
                from,
                public,
                private,
                nonce,
            } => {
                // §2.3: the peer cannot reach us; open the connection
                // ourselves. Same punching machinery, with the roles of
                // the candidates unchanged.
                self.start_punch(os, from, public, private, nonce);
            }
            // TCP has no control payloads yet: anything but application
            // data is ignored.
            Message::RelayedData { from, data } => {
                if let Some((RelayKind::App, data)) = relay::unwrap(&data) {
                    flat::push(
                        &mut self.events,
                        PeerEvent::Data {
                            peer: from,
                            data,
                            via: Via::Relay,
                        },
                    );
                }
            }
            Message::ErrorReply { .. } => {
                let waiting: Vec<PeerId> = self
                    .sessions
                    .iter()
                    .filter(|(_, s)| s.race.awaits_introduction())
                    .map(|(id, _)| *id)
                    .collect();
                for peer in waiting {
                    self.fail_session(os, peer);
                }
            }
            _ => {}
        }
    }

    /// The punch failed: tell the application, then carry the session
    /// through S (§2.2).
    fn fail_session(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        let Some(lost) = self.sessions.get_mut(&peer).and_then(|s| s.race.lose(true)) else {
            return;
        };
        os.metric_inc("punch.tcp.failed");
        os.metric_inc_by("punch.tcp.candidates_tried", lost.probed as u64);
        os.metric_inc_labeled("punch.tcp.winner_kind", "none");
        flat::push(&mut self.events, PeerEvent::PunchFailed { peer });
        flat::push(
            &mut self.events,
            PeerEvent::RaceSettled {
                peer,
                winner: None,
                candidates: lost.stamps,
            },
        );
        os.metric_inc("punch.tcp.relay_fallback");
        flat::push(&mut self.events, PeerEvent::RelayActive { peer });
        for data in lost.queued {
            self.relay_app(os, peer, &data);
        }
        self.abort_attempts(os, peer);
    }

    /// Matches a freshly accepted connection to a punching session by its
    /// remote endpoint (exact candidate match first, then candidate IP).
    fn match_accept(&self, remote: Endpoint) -> Option<PeerId> {
        let punching = || self.sessions.iter().filter(|(_, s)| s.race.is_punching());
        punching()
            .find(|(_, s)| s.race.candidates.contains(remote))
            .or_else(|| punching().find(|(_, s)| s.race.candidates.any_ip(remote.ip)))
            .map(|(id, _)| *id)
    }
}

impl Conn {
    fn new(attempt: Option<(PeerId, Endpoint)>) -> Self {
        Conn {
            frames: FrameBuf::new(),
            attempt,
            stream: None,
        }
    }

    /// How this stream surfaced in the socket API (§4.3).
    fn path(&self) -> TcpPath {
        match self.attempt {
            Some(_) => TcpPath::Connect,
            None => TcpPath::Accept,
        }
    }
}

impl App for TcpPeer {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        // §4.2: one local port for everything. Bind the listener first
        // (possibly ephemeral), then connect to S from the same port.
        #[expect(clippy::expect_used, reason = "harness-chosen local port on a fresh host; collision is a setup bug, and a listener has its endpoint")]
        let local = os
            .tcp_listen(self.cfg.local_port, true)
            .and_then(|l| os.local_endpoint(l))
            .expect("local TCP port free");
        self.local_port = local.port;
        self.connect_server(os);
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        match ev {
            SockEvent::TcpConnected { sock } => {
                if Some(sock) == self.server_sock {
                    let private = Endpoint::new(os.host_ip(), self.local_port);
                    self.send_server(
                        os,
                        &Message::Register {
                            peer_id: self.cfg.id,
                            private,
                        },
                    );
                } else if let Some((peer, _)) = self.conns.get(&sock).and_then(|c| c.attempt) {
                    // Our connect() won a path; authenticate (step 5).
                    self.send_hello(os, sock, peer);
                }
            }
            SockEvent::TcpConnectFailed { sock, err } => {
                if Some(sock) == self.server_sock {
                    self.server_lost(os);
                } else {
                    self.handle_connect_failed(os, sock, err);
                }
            }
            SockEvent::TcpIncoming { listener } => {
                while let Ok(Some((sock, remote))) = os.tcp_accept(listener) {
                    self.conns.insert(sock, Conn::new(None));
                    // If we can tell which session this belongs to, speak
                    // first — this resolves the both-sides-accept case of
                    // §4.4 without waiting games.
                    if let Some(peer) = self.match_accept(remote) {
                        self.send_hello(os, sock, peer);
                    }
                }
            }
            SockEvent::TcpReceived { sock, data } => {
                if Some(sock) == self.server_sock {
                    self.server_frames.push(&data);
                    loop {
                        match self.server_frames.next_message() {
                            Some(Ok(msg)) => self.handle_server_msg(os, msg),
                            Some(Err(_)) => break,
                            None => break,
                        }
                    }
                } else if let Some(conn) = self.conns.get_mut(&sock) {
                    conn.frames.push(&data);
                    loop {
                        // Looked up each time: handling a frame may drop
                        // the connection.
                        let next = self
                            .conns
                            .get_mut(&sock)
                            .and_then(|c| c.frames.next_message());
                        match next {
                            Some(Ok(msg)) => self.handle_peer_frame(os, sock, msg),
                            Some(Err(_)) => {
                                self.drop_sock(os, sock, true);
                                break;
                            }
                            None => break,
                        }
                    }
                }
            }
            SockEvent::TcpPeerClosed { sock } => {
                if Some(sock) == self.server_sock {
                    let _ = os.close(sock);
                    self.server_lost(os);
                } else {
                    let _ = os.close(sock);
                    self.drop_sock(os, sock, false);
                }
            }
            SockEvent::TcpAborted { sock, .. } => {
                if Some(sock) == self.server_sock {
                    self.server_lost(os);
                } else {
                    self.drop_sock(os, sock, false);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, os: &mut Os<'_, '_>, token: u64) {
        let Some(purpose) = self.timers.fired(token) else {
            return;
        };
        match purpose {
            TimerPurpose::ServerReconnect => {
                if self.server_sock.is_none() {
                    self.connect_server(os);
                }
            }
            TimerPurpose::Retry { peer, remote } => self.spawn_attempt(os, peer, remote),
            // A deadline an earlier cycle armed does not end this one.
            TimerPurpose::Deadline(peer, nonce) => {
                if self.sessions.get(&peer).is_some_and(|s| s.race.nonce == nonce) {
                    self.fail_session(os, peer);
                }
            }
            TimerPurpose::DoomedDone(peer) => {
                // §4.5 steps 3-4: abort the doomed attempt, go passive,
                // and signal the initiator (through S) to connect now.
                let Some(session) = self.sessions.get_mut(&peer) else {
                    return;
                };
                if !session.race.is_punching() {
                    return; // The "doomed" connect actually worked.
                }
                session.passive = true;
                let nonce = session.race.nonce;
                let go = self.reversal_request(peer, nonce);
                self.abort_attempts(os, peer);
                self.send_server(os, &go);
            }
        }
    }
}
