//! TCP hole punching (paper §4).
//!
//! [`TcpPeer`] implements the §4.2 procedure: one local TCP port is shared
//! (via the `SO_REUSEADDR`/`SO_REUSEPORT` semantics of §4.1) by the control
//! connection to *S*, a listen socket, and simultaneous outgoing connects
//! to every candidate the session's [`crate::CandidatePlan`] generates
//! (the same racing engine the UDP path uses). Failed connects are
//! re-tried after a short delay (step 4), surviving RST-happy NATs
//! (§5.2); the first *authenticated* stream wins (step 5), whether it
//! surfaced via `connect()` or `accept()` (§4.3). Connection reversal
//! (§2.3) rides the same machinery.

use crate::candidates::{CandidateKind, CandidateSet};
use crate::config::{TcpPeerConfig, TcpPunchMode};
use crate::events::{TcpPath, TcpPeerEvent, Via};
use crate::relay::{RELAY_KIND_APP, RELAY_KIND_CONTROL};
use bytes::Bytes;
use bytes::{BufMut, BytesMut};
use punch_net::{Endpoint, SimTime};
use punch_rendezvous::{encode_frame, FrameBuf, Message, PeerId};
use punch_transport::{App, ConnectOpts, Os, SockEvent, SocketError, SocketId};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Counters exposed for experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpPeerStats {
    /// `connect()` attempts issued (including retries).
    pub connects_started: u64,
    /// Attempts that failed with a network error and were re-tried.
    pub retries: u64,
    /// Streams that arrived via the listen socket.
    pub accepts: u64,
    /// Streams that authenticated successfully.
    pub streams_authenticated: u64,
}

#[derive(Debug)]
struct TcpSession {
    nonce: u64,
    /// The materialized candidate race for this punch (same engine as
    /// the UDP path).
    candidates: CandidateSet,
    winner: Option<SocketId>,
    retries: BTreeMap<Endpoint, u32>,
    started_at: SimTime,
    pending: VecDeque<Bytes>,
    failed: bool,
    deadline_armed: bool,
    /// §4.5: after the doomed connect, the responder only listens.
    passive: bool,
    /// §2.2: punch failed, data flows through S.
    relaying: bool,
}

impl TcpSession {
    fn new(nonce: u64, now: SimTime) -> Self {
        TcpSession {
            nonce,
            candidates: CandidateSet::default(),
            winner: None,
            retries: BTreeMap::new(),
            started_at: now,
            pending: VecDeque::new(),
            failed: false,
            deadline_armed: false,
            passive: false,
            relaying: false,
        }
    }
}

enum TimerPurpose {
    ServerReconnect,
    Retry {
        peer: PeerId,
        remote: Endpoint,
    },
    Deadline(PeerId),
    /// §4.5: the responder's doomed connect has had time to punch its
    /// hole; signal the initiator to go.
    DoomedDone(PeerId),
}

/// A TCP hole-punching client endpoint (an [`App`]).
pub struct TcpPeer {
    cfg: TcpPeerConfig,
    /// The failover chain of rendezvous servers: this peer's k ring
    /// owners when `cfg.fleet` is set, else just `cfg.server`.
    homes: Vec<Endpoint>,
    /// Which entry of `homes` the control connection currently targets.
    server_cursor: usize,
    local_port: u16,
    listener: Option<SocketId>,
    server_sock: Option<SocketId>,
    server_frames: FrameBuf,
    registered: bool,
    public: Option<Endpoint>,
    sessions: BTreeMap<PeerId, TcpSession>,
    /// Outstanding connect attempts: socket → (peer, candidate).
    attempts: BTreeMap<SocketId, (PeerId, Endpoint)>,
    /// Sockets that arrived via `accept()`.
    accepted: BTreeSet<SocketId>,
    /// Per-socket stream reassembly for peer connections.
    conn_frames: BTreeMap<SocketId, FrameBuf>,
    /// Authenticated streams: socket → peer.
    streams: BTreeMap<SocketId, PeerId>,
    /// `connect`s (`None`) and `send`s (`Some(payload)`) made before
    /// registration, replayed in call order on the first `RegisterAck`.
    pending_connects: Vec<(PeerId, Option<Bytes>)>,
    events: VecDeque<TcpPeerEvent>,
    next_token: u64,
    timers: BTreeMap<u64, TimerPurpose>,
    stats: TcpPeerStats,
    /// Consecutive failed reconnections to S; drives the reconnect
    /// backoff and resets once S acknowledges a registration.
    reconnect_fails: u32,
}

impl TcpPeer {
    /// Creates the endpoint; it connects and registers when the host
    /// starts.
    pub fn new(cfg: TcpPeerConfig) -> Self {
        let homes = if cfg.fleet.is_empty() {
            vec![cfg.server]
        } else {
            punch_rendezvous::ring::owners(&cfg.fleet, cfg.id, cfg.replication.max(1))
        };
        TcpPeer {
            cfg,
            homes,
            server_cursor: 0,
            local_port: 0,
            listener: None,
            server_sock: None,
            server_frames: FrameBuf::new(),
            registered: false,
            public: None,
            sessions: BTreeMap::new(),
            attempts: BTreeMap::new(),
            accepted: BTreeSet::new(),
            conn_frames: BTreeMap::new(),
            streams: BTreeMap::new(),
            pending_connects: Vec::new(),
            events: VecDeque::new(),
            next_token: 1,
            timers: BTreeMap::new(),
            stats: TcpPeerStats::default(),
            reconnect_fails: 0,
        }
    }

    /// Drains accumulated events.
    pub fn take_events(&mut self) -> Vec<TcpPeerEvent> {
        self.events.drain(..).collect()
    }

    /// Our public endpoint as observed by S over the control connection.
    pub fn public_endpoint(&self) -> Option<Endpoint> {
        self.public
    }

    /// The local port shared by all of this endpoint's sockets (§4.2).
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// True once an authenticated stream to `peer` exists.
    pub fn is_established(&self, peer: PeerId) -> bool {
        self.sessions
            .get(&peer)
            .map(|s| s.winner.is_some())
            .unwrap_or(false)
    }

    /// Whether the winning stream surfaced via `connect()` or `accept()`.
    pub fn established_path(&self, peer: PeerId) -> Option<TcpPath> {
        let sock = self.sessions.get(&peer)?.winner?;
        Some(if self.accepted.contains(&sock) {
            TcpPath::Accept
        } else {
            TcpPath::Connect
        })
    }

    /// True if traffic to `peer` flows through the relay.
    pub fn is_relaying(&self, peer: PeerId) -> bool {
        self.sessions
            .get(&peer)
            .map(|s| s.relaying)
            .unwrap_or(false)
    }

    /// Counters.
    pub fn stats(&self) -> TcpPeerStats {
        self.stats
    }

    // ------------------------------------------------------------------
    // Public operations
    // ------------------------------------------------------------------

    /// Requests a hole-punched TCP stream to `peer` (§4.2 step 1).
    pub fn connect(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        if !self.registered {
            self.pending_connects.push((peer, None));
            return;
        }
        let nonce: u64 = os.rng().gen();
        let now = os.now();
        self.sessions
            .entry(peer)
            .or_insert_with(|| TcpSession::new(nonce, now));
        self.send_server(
            os,
            &Message::ConnectRequest {
                peer_id: self.cfg.id,
                target: peer,
                nonce,
            },
        );
        self.arm_deadline(os, peer);
    }

    /// Asks `peer` (via S) to open a connection back to us — §2.3
    /// connection reversal, for when our own NAT admits nothing inbound
    /// but the peer is directly reachable... or vice versa.
    pub fn request_reversal(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        if !self.registered {
            self.pending_connects.push((peer, None));
            return;
        }
        let nonce: u64 = os.rng().gen();
        let now = os.now();
        self.sessions
            .entry(peer)
            .or_insert_with(|| TcpSession::new(nonce, now));
        self.send_server(
            os,
            &Message::ReversalRequest {
                peer_id: self.cfg.id,
                target: peer,
                nonce,
            },
        );
        self.arm_deadline(os, peer);
    }

    /// Sends application data over the established stream (queued until
    /// the punch completes).
    pub fn send(&mut self, os: &mut Os<'_, '_>, peer: PeerId, data: Bytes) {
        let obf = self.cfg.obfuscate;
        match self.sessions.get_mut(&peer) {
            Some(session) => match session.winner {
                Some(sock) => {
                    let _ = os.tcp_send(sock, &encode_frame(&Message::PeerData { data }, obf));
                }
                None if session.relaying => self.relay_app_data(os, peer, data),
                None => session.pending.push_back(data),
            },
            // Replayed through `send` once registered.
            None if !self.registered => self.pending_connects.push((peer, Some(data))),
            None => {
                self.connect(os, peer);
                if let Some(s) = self.sessions.get_mut(&peer) {
                    s.pending.push_back(data);
                }
            }
        }
    }

    /// Forwards one application payload through S (§2.2).
    fn relay_app_data(&mut self, os: &mut Os<'_, '_>, peer: PeerId, data: Bytes) {
        let mut buf = BytesMut::with_capacity(data.len() + 1);
        buf.put_u8(RELAY_KIND_APP);
        buf.put_slice(&data);
        let msg = Message::RelayData {
            from: self.cfg.id,
            target: peer,
            data: buf.freeze(),
        };
        self.send_server(os, &msg);
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn arm(&mut self, os: &mut Os<'_, '_>, after: std::time::Duration, purpose: TimerPurpose) {
        let token = self.next_token;
        self.next_token += 1;
        self.timers.insert(token, purpose);
        os.set_timer(after, token);
    }

    fn arm_deadline(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        let deadline = self.cfg.punch_deadline;
        if let Some(s) = self.sessions.get_mut(&peer) {
            if !s.deadline_armed {
                s.deadline_armed = true;
                self.arm(os, deadline, TimerPurpose::Deadline(peer));
            }
        }
    }

    fn send_server(&mut self, os: &mut Os<'_, '_>, msg: &Message) {
        if let Some(sock) = self.server_sock {
            let _ = os.tcp_send(sock, &encode_frame(msg, self.cfg.obfuscate));
        }
    }

    /// The fleet member the control connection currently targets.
    fn current_server(&self) -> Endpoint {
        self.homes[self.server_cursor % self.homes.len()]
    }

    /// Rotates the control connection to the next ring owner after a
    /// server loss. A no-op with a single home, preserving the
    /// single-server reconnect sequence byte for byte.
    fn advance_server(&mut self, os: &mut Os<'_, '_>) {
        if self.homes.len() > 1 {
            self.server_cursor = (self.server_cursor + 1) % self.homes.len();
            os.metric_inc("punch.server_failover");
        }
    }

    fn connect_server(&mut self, os: &mut Os<'_, '_>) {
        let opts = ConnectOpts {
            local_port: Some(self.local_port),
            reuse: true,
        };
        match os.tcp_connect(self.current_server(), opts) {
            Ok(sock) => self.server_sock = Some(sock),
            Err(_) => self.arm_server_reconnect(os),
        }
    }

    /// Arms the server-reconnect timer. Consecutive failures inflate the
    /// delay by `reconnect_backoff` per failure (capped at
    /// `reconnect_max_delay`); the default `1.0` multiplier keeps the
    /// paper's fixed §4.2 cadence, and the first retry always waits
    /// exactly `retry_delay`.
    fn arm_server_reconnect(&mut self, os: &mut Os<'_, '_>) {
        let mut delay = self.cfg.retry_delay;
        if self.cfg.reconnect_backoff > 1.0 && self.reconnect_fails > 0 {
            delay = delay
                .mul_f64(self.cfg.reconnect_backoff.powi(self.reconnect_fails as i32))
                .min(self.cfg.reconnect_max_delay);
        }
        self.reconnect_fails = self.reconnect_fails.saturating_add(1);
        self.arm(os, delay, TimerPurpose::ServerReconnect);
    }

    /// Records the peer's candidates on the session without connecting:
    /// the configured [`crate::CandidatePlan`] is materialized against
    /// this introduction (the default TCP plan races the public endpoint
    /// first, then the private — §4.2's order).
    fn prepare_session(
        &mut self,
        os: &mut Os<'_, '_>,
        peer: PeerId,
        public: Endpoint,
        private: Endpoint,
        nonce: u64,
    ) {
        let candidates = CandidateSet::from_plan(&self.cfg.plan, public, private);
        let now = os.now();
        let session = self
            .sessions
            .entry(peer)
            .or_insert_with(|| TcpSession::new(nonce, now));
        session.nonce = nonce;
        session.candidates = candidates;
        self.arm_deadline(os, peer);
    }

    /// Starts simultaneous outgoing connection attempts to every
    /// candidate (§4.2 step 3) — one volley of the race, in the plan's
    /// priority order.
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
            .map(|s| s.candidates.next_volley(now))
            .unwrap_or_default();
        for cand in due {
            self.spawn_attempt(os, peer, cand);
        }
    }

    fn spawn_attempt(&mut self, os: &mut Os<'_, '_>, peer: PeerId, remote: Endpoint) {
        if self
            .sessions
            .get(&peer)
            .map(|s| s.winner.is_some() || s.failed || s.passive)
            .unwrap_or(true)
        {
            return;
        }
        let opts = ConnectOpts {
            local_port: Some(self.local_port),
            reuse: true,
        };
        match os.tcp_connect(remote, opts) {
            Ok(sock) => {
                self.stats.connects_started += 1;
                self.attempts.insert(sock, (peer, remote));
                self.conn_frames.insert(sock, FrameBuf::new());
            }
            // The 4-tuple is busy — either an attempt is already in
            // flight or the listener owns an accepted stream to that
            // endpoint; both mean we need not (and cannot) try again now.
            Err(SocketError::AddrInUse) => {}
            Err(_) => {}
        }
    }

    fn send_hello(&mut self, os: &mut Os<'_, '_>, sock: SocketId, peer: PeerId) {
        let Some(session) = self.sessions.get(&peer) else {
            return;
        };
        let msg = Message::PeerHello {
            from: self.cfg.id,
            nonce: session.nonce,
        };
        let _ = os.tcp_send(sock, &encode_frame(&msg, self.cfg.obfuscate));
    }

    /// §4.2 step 5: the first authenticated stream becomes the session
    /// stream. Later authenticated duplicates are kept as live fallbacks
    /// (data on them is still delivered) but not used for sending; this
    /// avoids the split-brain of both sides aborting each other's pick.
    fn authenticated(&mut self, os: &mut Os<'_, '_>, sock: SocketId, peer: PeerId) {
        self.stats.streams_authenticated += 1;
        self.streams.insert(sock, peer);
        let path = if self.accepted.contains(&sock) {
            TcpPath::Accept
        } else {
            TcpPath::Connect
        };
        let remote = os.remote_endpoint(sock).unwrap_or(Endpoint::UNSPECIFIED);
        let obf = self.cfg.obfuscate;
        let now = os.now();
        let Some(session) = self.sessions.get_mut(&peer) else {
            return;
        };
        session.candidates.mark_response(remote, now);
        if session.winner.is_some() {
            return; // Keep as fallback stream.
        }
        session.winner = Some(sock);
        // Settle the race: first authenticated stream wins (§4.2 step 5).
        let winner_kind = session.candidates.mark_winner(remote);
        let race = session.candidates.stamps();
        let pending: Vec<Bytes> = session.pending.drain(..).collect();
        os.metric_inc_labeled(
            "punch.tcp.established",
            match path {
                TcpPath::Connect => "connect",
                TcpPath::Accept => "accept",
            },
        );
        os.metric_inc_by(
            "punch.tcp.candidates_tried",
            race.iter().filter(|s| s.first_probe.is_some()).count() as u64,
        );
        os.metric_inc_labeled(
            "punch.tcp.winner_kind",
            winner_kind.map(CandidateKind::label).unwrap_or("observed"),
        );
        self.events.push_back(TcpPeerEvent::Established {
            peer,
            sock,
            path,
            remote,
        });
        self.events.push_back(TcpPeerEvent::RaceSettled {
            peer,
            winner: Some(remote),
            candidates: race,
        });
        for data in pending {
            let _ = os.tcp_send(sock, &encode_frame(&Message::PeerData { data }, obf));
        }
        // Abort attempts that have not even connected yet; they can no
        // longer win.
        let losers: Vec<SocketId> = self
            .attempts
            .iter()
            .filter(|(s, (p, _))| *p == peer && **s != sock && !self.streams.contains_key(s))
            .map(|(s, _)| *s)
            .collect();
        for s in losers {
            self.attempts.remove(&s);
            self.conn_frames.remove(&s);
            let _ = os.tcp_abort(s);
        }
    }

    fn handle_peer_frame(&mut self, os: &mut Os<'_, '_>, sock: SocketId, msg: Message) {
        match msg {
            Message::PeerHello { from, nonce } => {
                let ok = self
                    .sessions
                    .get(&from)
                    .map(|s| s.nonce == nonce)
                    .unwrap_or(false);
                if !ok {
                    // Authentication failure: close and keep waiting
                    // (§4.2 step 5).
                    self.drop_sock(os, sock, true);
                    return;
                }
                let reply = Message::PeerHelloAck {
                    from: self.cfg.id,
                    nonce,
                };
                let _ = os.tcp_send(sock, &encode_frame(&reply, self.cfg.obfuscate));
                self.authenticated(os, sock, from);
            }
            Message::PeerHelloAck { from, nonce } => {
                let ok = self
                    .sessions
                    .get(&from)
                    .map(|s| s.nonce == nonce)
                    .unwrap_or(false);
                if !ok {
                    self.drop_sock(os, sock, true);
                    return;
                }
                self.authenticated(os, sock, from);
            }
            Message::PeerData { data } => {
                if let Some(&peer) = self.streams.get(&sock) {
                    self.events.push_back(TcpPeerEvent::Data {
                        peer,
                        data,
                        via: Via::Direct,
                    });
                }
            }
            _ => {}
        }
    }

    fn drop_sock(&mut self, os: &mut Os<'_, '_>, sock: SocketId, abort: bool) {
        self.attempts.remove(&sock);
        self.accepted.remove(&sock);
        self.conn_frames.remove(&sock);
        if let Some(peer) = self.streams.remove(&sock) {
            if let Some(session) = self.sessions.get_mut(&peer) {
                if session.winner == Some(sock) {
                    // Promote a fallback stream if one authenticated.
                    let fallback = self
                        .streams
                        .iter()
                        .find(|(_, p)| **p == peer)
                        .map(|(s, _)| *s);
                    session.winner = fallback;
                    if fallback.is_none() {
                        self.events.push_back(TcpPeerEvent::PeerClosed { peer });
                    }
                }
            }
        }
        if abort {
            let _ = os.tcp_abort(sock);
        }
    }

    fn handle_connect_failed(&mut self, os: &mut Os<'_, '_>, sock: SocketId, err: SocketError) {
        let Some((peer, remote)) = self.attempts.remove(&sock) else {
            return;
        };
        self.conn_frames.remove(&sock);
        let retry_delay = self.cfg.retry_delay;
        let max_retries = self.cfg.max_retries;
        let deadline = self.cfg.punch_deadline;
        let now = os.now();
        let Some(session) = self.sessions.get_mut(&peer) else {
            return;
        };
        if session.winner.is_some() || session.failed {
            return;
        }
        match err {
            // §4.3 second behaviour: the listener claimed our 4-tuple; a
            // stream will surface via accept(). Nothing to do.
            SocketError::AddrInUse => {}
            // §4.2 step 4: "connection reset" or "host unreachable" →
            // re-try after a short delay.
            SocketError::ConnectionRefused
            | SocketError::ConnectionReset
            | SocketError::HostUnreachable => {
                let tries = session.retries.entry(remote).or_insert(0);
                *tries += 1;
                if *tries <= max_retries && now.saturating_since(session.started_at) < deadline {
                    self.stats.retries += 1;
                    self.arm(os, retry_delay, TimerPurpose::Retry { peer, remote });
                }
            }
            // The stack already spent its SYN retransmissions; the path
            // is silently dropping us and only the peer's SYN can open it.
            SocketError::TimedOut => {}
            _ => {}
        }
    }

    fn handle_server_msg(&mut self, os: &mut Os<'_, '_>, msg: Message) {
        match msg {
            Message::RegisterAck { public } => {
                let first = !self.registered;
                self.registered = true;
                self.reconnect_fails = 0;
                self.public = Some(public);
                if first {
                    self.events.push_back(TcpPeerEvent::Registered { public });
                    for (peer, data) in std::mem::take(&mut self.pending_connects) {
                        match data {
                            Some(data) => self.send(os, peer, data),
                            None => self.connect(os, peer),
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
            Message::RelayedData { from, data } => {
                if data.first() == Some(&RELAY_KIND_APP) {
                    self.events.push_back(TcpPeerEvent::Data {
                        peer: from,
                        data: data.slice(1..),
                        via: Via::Relay,
                    });
                }
                let _ = RELAY_KIND_CONTROL; // no TCP control payloads yet
            }
            Message::ErrorReply { .. } => {
                let waiting: Vec<PeerId> = self
                    .sessions
                    .iter()
                    .filter(|(_, s)| s.winner.is_none() && s.candidates.is_empty() && !s.failed)
                    .map(|(id, _)| *id)
                    .collect();
                for peer in waiting {
                    self.fail_session(os, peer);
                }
            }
            _ => {}
        }
    }

    fn fail_session(&mut self, os: &mut Os<'_, '_>, peer: PeerId) {
        let relay = self.cfg.relay_fallback;
        let Some(session) = self.sessions.get_mut(&peer) else {
            return;
        };
        if session.winner.is_some() || session.failed {
            return;
        }
        session.failed = true;
        let race = session.candidates.stamps();
        os.metric_inc("punch.tcp.failed");
        os.metric_inc_by(
            "punch.tcp.candidates_tried",
            session.candidates.probed_count() as u64,
        );
        os.metric_inc_labeled("punch.tcp.winner_kind", "none");
        self.events.push_back(TcpPeerEvent::PunchFailed { peer });
        self.events.push_back(TcpPeerEvent::RaceSettled {
            peer,
            winner: None,
            candidates: race,
        });
        if relay {
            session.relaying = true;
            os.metric_inc("punch.tcp.relay_fallback");
            let pending: Vec<Bytes> = session.pending.drain(..).collect();
            self.events.push_back(TcpPeerEvent::RelayActive { peer });
            for data in pending {
                self.relay_app_data(os, peer, data);
            }
        }
        let dead: Vec<SocketId> = self
            .attempts
            .iter()
            .filter(|(_, (p, _))| *p == peer)
            .map(|(s, _)| *s)
            .collect();
        for s in dead {
            self.attempts.remove(&s);
            self.conn_frames.remove(&s);
            let _ = os.tcp_abort(s);
        }
    }

    /// Matches a freshly accepted connection to a punching session by its
    /// remote endpoint (exact candidate match first, then candidate IP).
    fn match_accept(&self, remote: Endpoint) -> Option<PeerId> {
        for (id, s) in &self.sessions {
            if s.winner.is_none() && !s.failed && s.candidates.contains(remote) {
                return Some(*id);
            }
        }
        for (id, s) in &self.sessions {
            if s.winner.is_none() && !s.failed && s.candidates.any_ip(remote.ip) {
                return Some(*id);
            }
        }
        None
    }
}

impl App for TcpPeer {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        // §4.2: one local port for everything. Bind the listener first
        // (possibly ephemeral), then connect to S from the same port.
        let listener = os
            .tcp_listen(self.cfg.local_port, true)
            .expect("local TCP port free"); // punch-lint: allow(P001) harness-chosen local port on a fresh host; collision is a setup bug
        self.local_port = os.local_endpoint(listener).expect("listener bound").port; // punch-lint: allow(P001) listener bound on the previous line
        self.listener = Some(listener);
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
                } else if let Some(&(peer, _)) = self.attempts.get(&sock) {
                    // Our connect() won a path; authenticate (step 5).
                    self.send_hello(os, sock, peer);
                }
            }
            SockEvent::TcpConnectFailed { sock, err } => {
                if Some(sock) == self.server_sock {
                    self.server_sock = None;
                    self.advance_server(os);
                    self.arm_server_reconnect(os);
                } else {
                    self.handle_connect_failed(os, sock, err);
                }
            }
            SockEvent::TcpIncoming { listener } => {
                while let Ok(Some((sock, remote))) = os.tcp_accept(listener) {
                    self.stats.accepts += 1;
                    self.accepted.insert(sock);
                    self.conn_frames.insert(sock, FrameBuf::new());
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
                } else if self.conn_frames.contains_key(&sock) {
                    self.conn_frames
                        .get_mut(&sock)
                        .expect("checked") // punch-lint: allow(P001) membership checked by the else-if guard above
                        .push(&data);
                    loop {
                        let next = self
                            .conn_frames
                            .get_mut(&sock)
                            .and_then(|f| f.next_message());
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
                    self.server_sock = None;
                    self.registered = false;
                    self.advance_server(os);
                    self.arm_server_reconnect(os);
                } else {
                    let _ = os.close(sock);
                    self.drop_sock(os, sock, false);
                }
            }
            SockEvent::TcpAborted { sock, .. } => {
                if Some(sock) == self.server_sock {
                    self.server_sock = None;
                    self.registered = false;
                    self.advance_server(os);
                    self.arm_server_reconnect(os);
                } else {
                    self.drop_sock(os, sock, false);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, os: &mut Os<'_, '_>, token: u64) {
        let Some(purpose) = self.timers.remove(&token) else {
            return;
        };
        match purpose {
            TimerPurpose::ServerReconnect => {
                if self.server_sock.is_none() {
                    self.connect_server(os);
                }
            }
            TimerPurpose::Retry { peer, remote } => {
                let live = self
                    .sessions
                    .get(&peer)
                    .map(|s| s.winner.is_none() && !s.failed)
                    .unwrap_or(false);
                if live {
                    self.spawn_attempt(os, peer, remote);
                }
            }
            TimerPurpose::Deadline(peer) => {
                let still_punching = self
                    .sessions
                    .get(&peer)
                    .map(|s| s.winner.is_none() && !s.failed)
                    .unwrap_or(false);
                if still_punching {
                    self.fail_session(os, peer);
                }
            }
            TimerPurpose::DoomedDone(peer) => {
                // §4.5 steps 3-4: abort the doomed attempt, go passive,
                // and signal the initiator (through S) to connect now.
                let Some(session) = self.sessions.get_mut(&peer) else {
                    return;
                };
                if session.winner.is_some() || session.failed {
                    return; // The "doomed" connect actually worked.
                }
                session.passive = true;
                let nonce = session.nonce;
                let doomed: Vec<SocketId> = self
                    .attempts
                    .iter()
                    .filter(|(_, (p, _))| *p == peer)
                    .map(|(s, _)| *s)
                    .collect();
                for s in doomed {
                    self.attempts.remove(&s);
                    self.conn_frames.remove(&s);
                    let _ = os.tcp_abort(s);
                }
                self.send_server(
                    os,
                    &Message::ReversalRequest {
                        peer_id: self.cfg.id,
                        target: peer,
                        nonce,
                    },
                );
            }
        }
    }
}
