//! The NAT Check client (§6.1): a phased prober producing a
//! [`NatCheckReport`].

use crate::servers::{CHECK_PORT, S3_PROBE_PORT};
use crate::wire::{CheckFrames, CheckMsg};
use punch_net::flat::FlatMap;
use punch_net::{Endpoint, SimTime};
use punch_transport::{App, ConnectOpts, Os, SockEvent, SocketId};
use rand::Rng;
use std::net::Ipv4Addr;
use std::time::Duration;

/// What NAT Check measured (every field `None` until that sub-test ran).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NatCheckReport {
    /// Public UDP endpoints observed by servers 1 and 2.
    pub udp_public: Option<(Endpoint, Endpoint)>,
    /// Servers 1 and 2 observed the same endpoint (§5.1 precondition).
    pub udp_consistent: Option<bool>,
    /// The NAT's UDP allocation stride: server 2's observed port minus
    /// server 1's. `Some(0)` for a consistent (cone) translation; a
    /// nonzero value is the §5.1 delta a sequential-allocation symmetric
    /// NAT exposes, directly usable to seed a prediction strategy's
    /// port window. `None` until both observations arrive.
    pub udp_alloc_delta: Option<i32>,
    /// Server 3's never-solicited reply was *blocked* (per-session
    /// filtering; does not affect punching, §6.1.1).
    pub udp_unsolicited_filtered: Option<bool>,
    /// The hairpin probe from a second local socket reached the first.
    pub udp_hairpin: Option<bool>,
    /// Public TCP endpoints observed by servers 1 and 2 match.
    pub tcp_consistent: Option<bool>,
    /// Server 3's unsolicited SYN produced an inbound connection at the
    /// client before server 2's delayed reply (NAT admits inbound SYNs).
    pub tcp_inbound_syn_passed: Option<bool>,
    /// The client's subsequent connect to server 3 succeeded
    /// (simultaneous open through the hole; fails if the NAT RSTs).
    pub tcp_s3_connect_ok: Option<bool>,
    /// TCP hairpin: a secondary-port connect to our own public TCP
    /// endpoint completed.
    pub tcp_hairpin: Option<bool>,
}

impl NatCheckReport {
    /// NAT Check's UDP hole-punching compatibility verdict.
    pub fn udp_hole_punching(&self) -> Option<bool> {
        self.udp_consistent
    }

    /// NAT Check's TCP hole-punching compatibility verdict: consistent
    /// translation *and* no active rejection of unsolicited SYNs.
    pub fn tcp_hole_punching(&self) -> Option<bool> {
        match (self.tcp_consistent, self.tcp_s3_connect_ok) {
            (Some(c), Some(ok)) => Some(c && ok),
            _ => None,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    UdpProbing { started: SimTime },
    UdpSettling { since: SimTime },
    TcpProbing { started: SimTime },
    TcpHairpin { since: SimTime },
    Done,
}

/// Timer token for the driving tick.
const TICK: u64 = 1;
const TICK_EVERY: Duration = Duration::from_millis(500);
/// How long each settling window lasts.
const SETTLE: Duration = Duration::from_secs(5);
/// Give-up bound for the probing phases.
const PHASE_DEADLINE: Duration = Duration::from_secs(12);
/// Give-up bound for the TCP phase (covers the 5 s go-ahead delay).
const TCP_DEADLINE: Duration = Duration::from_secs(25);

/// The NAT Check client application.
///
/// Runs the UDP test, then the TCP test, then finishes; poll
/// [`NatCheckClient::report`] for results and [`NatCheckClient::done`]
/// for completion.
pub struct NatCheckClient {
    s1: Ipv4Addr,
    s2: Ipv4Addr,
    s3: Ipv4Addr,
    /// Fixed local UDP port for the primary socket (0 = ephemeral). The
    /// §6.3 paired contention check runs two clients on the *same* port.
    udp_port: u16,
    phase: Phase,
    token: u64,
    // UDP state.
    sock1: Option<SocketId>,
    sock2: Option<SocketId>,
    udp_obs1: Option<Endpoint>,
    udp_obs2: Option<Endpoint>,
    udp_from3: bool,
    udp_hairpin_echoed: bool,
    hairpin_probe_sent: bool,
    // TCP state.
    local_tcp_port: u16,
    conn1: Option<SocketId>,
    conn2: Option<SocketId>,
    frames: FlatMap<SocketId, CheckFrames>,
    tcp_obs1: Option<Endpoint>,
    tcp_obs2: Option<Endpoint>,
    inbound_from_s3: bool,
    s3_conn: Option<SocketId>,
    s3_ok: Option<bool>,
    hairpin_conn: Option<SocketId>,
    tcp_hairpin_ok: bool,
    report: NatCheckReport,
}

impl NatCheckClient {
    /// Creates a client probing the three given server addresses.
    pub fn new(s1: Ipv4Addr, s2: Ipv4Addr, s3: Ipv4Addr) -> Self {
        NatCheckClient {
            s1,
            s2,
            s3,
            udp_port: 0,
            phase: Phase::UdpProbing {
                started: SimTime::ZERO,
            },
            token: 0,
            sock1: None,
            sock2: None,
            udp_obs1: None,
            udp_obs2: None,
            udp_from3: false,
            udp_hairpin_echoed: false,
            hairpin_probe_sent: false,
            local_tcp_port: 0,
            conn1: None,
            conn2: None,
            frames: FlatMap::new(),
            tcp_obs1: None,
            tcp_obs2: None,
            inbound_from_s3: false,
            s3_conn: None,
            s3_ok: None,
            hairpin_conn: None,
            tcp_hairpin_ok: false,
            report: NatCheckReport::default(),
        }
    }

    /// Fixes the primary UDP socket's local port (for the §6.3 paired
    /// contention check).
    pub fn with_udp_port(mut self, port: u16) -> Self {
        self.udp_port = port;
        self
    }

    /// The report so far (final once [`NatCheckClient::done`]).
    pub fn report(&self) -> NatCheckReport {
        self.report
    }

    /// True once all tests finished.
    pub fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    fn send_udp_probes(&mut self, os: &mut Os<'_, '_>) {
        // `on_start` binds `sock1` before its first probe and before it
        // arms the tick that repeats them.
        let Some(sock) = self.sock1 else {
            return;
        };
        if self.udp_obs1.is_none() {
            let _ = os.udp_send(
                sock,
                Endpoint::new(self.s1, CHECK_PORT),
                CheckMsg::UdpProbe { token: self.token }.encode(),
            );
        }
        if self.udp_obs2.is_none() {
            let _ = os.udp_send(
                sock,
                Endpoint::new(self.s2, CHECK_PORT),
                CheckMsg::UdpProbe { token: self.token }.encode(),
            );
        }
    }

    fn maybe_send_hairpin_probe(&mut self, os: &mut Os<'_, '_>) {
        if self.hairpin_probe_sent {
            return;
        }
        let (Some(target), Some(sock2)) = (self.udp_obs2, self.sock2) else {
            return;
        };
        self.hairpin_probe_sent = true;
        let _ = os.udp_send(
            sock2,
            target,
            CheckMsg::HairpinProbe { token: self.token }.encode(),
        );
    }

    fn finalize_udp(&mut self) {
        if let (Some(o1), Some(o2)) = (self.udp_obs1, self.udp_obs2) {
            self.report.udp_public = Some((o1, o2));
            self.report.udp_consistent = Some(o1 == o2);
            self.report.udp_alloc_delta = Some(o2.port as i32 - o1.port as i32);
            self.report.udp_unsolicited_filtered = Some(!self.udp_from3);
            self.report.udp_hairpin = Some(self.udp_hairpin_echoed);
        }
    }

    fn start_tcp(&mut self, os: &mut Os<'_, '_>) {
        #[expect(clippy::expect_used, reason = "fresh sim host always has a free ephemeral port, and a listener has its endpoint")]
        let local = os
            .tcp_listen(0, true)
            .and_then(|l| os.local_endpoint(l))
            .expect("ephemeral tcp port");
        self.local_tcp_port = local.port;
        let opts = ConnectOpts {
            local_port: Some(self.local_tcp_port),
            reuse: true,
        };
        self.conn1 = os
            .tcp_connect(Endpoint::new(self.s1, CHECK_PORT), opts)
            .ok();
        self.conn2 = os
            .tcp_connect(Endpoint::new(self.s2, CHECK_PORT), opts)
            .ok();
        if let Some(c) = self.conn1 {
            self.frames.insert(c, CheckFrames::default());
        }
        if let Some(c) = self.conn2 {
            self.frames.insert(c, CheckFrames::default());
        }
    }

    fn start_s3_connect(&mut self, os: &mut Os<'_, '_>) {
        if self.s3_conn.is_some() || self.s3_ok.is_some() {
            return;
        }
        if self.inbound_from_s3 {
            // The NAT admitted server 3's SYN outright: the connection
            // already exists (it owns our 4-tuple to server 3), which is
            // "fine for hole punching but not ideal for security"
            // (§6.1.2).
            self.s3_ok = Some(true);
            return;
        }
        // §6.1.2: connect to server 3's probe endpoint — a simultaneous
        // open with its pending attempt if our NAT silently dropped it.
        let opts = ConnectOpts {
            local_port: Some(self.local_tcp_port),
            reuse: true,
        };
        match os.tcp_connect(Endpoint::new(self.s3, S3_PROBE_PORT), opts) {
            Ok(sock) => self.s3_conn = Some(sock),
            Err(_) => self.s3_ok = Some(self.inbound_from_s3),
        }
    }

    fn start_tcp_hairpin(&mut self, os: &mut Os<'_, '_>) {
        if self.hairpin_conn.is_some() {
            return;
        }
        let Some(target) = self.tcp_obs1 else {
            return;
        };
        // Secondary local port (ephemeral) to our own public endpoint.
        if let Ok(sock) = os.tcp_connect(target, ConnectOpts::default()) {
            self.hairpin_conn = Some(sock)
        }
    }

    fn finalize_tcp(&mut self) {
        if let (Some(o1), Some(o2)) = (self.tcp_obs1, self.tcp_obs2) {
            self.report.tcp_consistent = Some(o1 == o2);
        }
        if self.report.tcp_consistent.is_some() {
            self.report.tcp_inbound_syn_passed = Some(self.inbound_from_s3);
            self.report.tcp_s3_connect_ok = Some(self.s3_ok.unwrap_or(false));
            self.report.tcp_hairpin = Some(self.tcp_hairpin_ok);
        }
        self.phase = Phase::Done;
    }
}

impl App for NatCheckClient {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        self.token = os.rng().gen();
        #[expect(clippy::expect_used, reason = "harness-chosen port on a fresh host; collision is a setup bug")]
        let sock1 = os.udp_bind(self.udp_port).expect("udp port");
        #[expect(clippy::expect_used, reason = "fresh sim host always has a free ephemeral port")]
        let sock2 = os.udp_bind(0).expect("udp port");
        self.sock1 = Some(sock1);
        self.sock2 = Some(sock2);
        self.phase = Phase::UdpProbing { started: os.now() };
        self.send_udp_probes(os);
        os.set_timer(TICK_EVERY, TICK);
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        match ev {
            SockEvent::UdpReceived { sock, data, .. } => {
                if Some(sock) != self.sock1 {
                    return;
                }
                match CheckMsg::decode(&data) {
                    Some(CheckMsg::UdpEcho {
                        token,
                        observed,
                        server,
                    }) if token == self.token => {
                        match server {
                            1 => self.udp_obs1 = Some(observed),
                            2 => self.udp_obs2 = Some(observed),
                            3 => self.udp_from3 = true,
                            _ => {}
                        }
                        self.maybe_send_hairpin_probe(os);
                    }
                    Some(CheckMsg::HairpinProbe { token }) if token == self.token => {
                        self.udp_hairpin_echoed = true;
                    }
                    _ => {}
                }
            }
            SockEvent::TcpConnected { sock } => {
                if Some(sock) == self.conn1 || Some(sock) == self.conn2 {
                    let _ = os.tcp_send(
                        sock,
                        [CheckMsg::TcpProbe { token: self.token }.encode_frame()],
                    );
                } else if Some(sock) == self.s3_conn {
                    self.s3_ok = Some(true);
                } else if Some(sock) == self.hairpin_conn {
                    self.tcp_hairpin_ok = true;
                }
            }
            SockEvent::TcpConnectFailed { sock, .. } if Some(sock) == self.s3_conn => {
                self.s3_ok = Some(false);
            }
            // conn1/conn2/hairpin failures leave their fields None/false.
            SockEvent::TcpIncoming { listener } => {
                while let Ok(Some((sock, remote))) = os.tcp_accept(listener) {
                    if remote.ip == self.s3 {
                        self.inbound_from_s3 = true;
                    }
                    // Hairpinned loop-backs arrive from our own public
                    // address; either way we do not speak on them.
                    let _ = os.close(sock);
                }
            }
            SockEvent::TcpReceived { sock, data } => {
                if let Some(frames) = self.frames.get_mut(&sock) {
                    frames.push(&data);
                    while let Some(msg) = self.frames.get_mut(&sock).and_then(|f| f.next_message())
                    {
                        if let CheckMsg::TcpEcho {
                            token,
                            observed,
                            server,
                        } = msg
                        {
                            if token != self.token {
                                continue;
                            }
                            match server {
                                1 => self.tcp_obs1 = Some(observed),
                                2 => {
                                    self.tcp_obs2 = Some(observed);
                                    // Server 2's reply means server 3 has
                                    // been trying for ~5 s: connect now.
                                    self.start_s3_connect(os);
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, os: &mut Os<'_, '_>, token: u64) {
        if token != TICK {
            return;
        }
        let now = os.now();
        match self.phase {
            Phase::UdpProbing { started } => {
                if self.udp_obs1.is_some() && self.udp_obs2.is_some() {
                    self.maybe_send_hairpin_probe(os);
                    self.phase = Phase::UdpSettling { since: now };
                } else if now.saturating_since(started) > PHASE_DEADLINE {
                    self.phase = Phase::UdpSettling { since: now };
                } else {
                    self.send_udp_probes(os);
                }
            }
            Phase::UdpSettling { since } => {
                if now.saturating_since(since) > SETTLE {
                    self.finalize_udp();
                    self.start_tcp(os);
                    self.phase = Phase::TcpProbing { started: now };
                }
            }
            Phase::TcpProbing { started } => {
                let ready =
                    self.tcp_obs1.is_some() && self.tcp_obs2.is_some() && self.s3_ok.is_some();
                if ready || now.saturating_since(started) > TCP_DEADLINE {
                    self.start_tcp_hairpin(os);
                    self.phase = Phase::TcpHairpin { since: now };
                }
            }
            Phase::TcpHairpin { since } => {
                if now.saturating_since(since) > SETTLE {
                    self.finalize_tcp();
                }
            }
            Phase::Done => {}
        }
        if !self.done() {
            os.set_timer(TICK_EVERY, TICK);
        }
    }
}
