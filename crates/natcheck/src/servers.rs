//! The three NAT Check servers (§6.1, Figure 8).
//!
//! All three serve UDP and TCP on a well-known port. Server 2 forwards
//! requests to server 3; server 3 originates the "unsolicited" traffic —
//! a UDP reply from a never-contacted address, and an inbound TCP
//! connection attempt from its probe port (which deliberately has **no
//! listener**, so a client's later outbound connect to it succeeds only
//! via simultaneous open with a still-pending attempt).

use crate::wire::{CheckFrames, CheckMsg, InboundStatus};
use punch_net::flat::FlatMap;
use punch_net::Endpoint;
use punch_transport::{App, ConnectOpts, Os, SockEvent, SocketError, SocketId};
use std::net::Ipv4Addr;
use std::time::Duration;

/// Well-known NAT Check service port.
pub const CHECK_PORT: u16 = 7000;
/// Server 3's TCP probe source port (never listening).
pub const S3_PROBE_PORT: u16 = 7002;
/// Server 3 waits this long before sending an "in progress" go-ahead.
pub const GO_AHEAD_WAIT: Duration = Duration::from_secs(5);

/// Which of the three servers this instance is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerRole {
    /// Plain reflector.
    One,
    /// Reflector that also triggers server 3.
    Two {
        /// Server 3's address.
        s3: Ipv4Addr,
    },
    /// The unsolicited-traffic originator.
    Three,
}

struct PendingReply {
    sock: SocketId,
    observed: Endpoint,
}

struct InboundAttempt {
    sock: Option<SocketId>,
    requester: Endpoint,
    reported: bool,
}

/// One NAT Check server instance.
pub struct CheckServer {
    role: ServerRole,
    udp: Option<SocketId>,
    conns: FlatMap<SocketId, CheckFrames>,
    /// Server 2: replies deferred until server 3's go-ahead, by token.
    pending: FlatMap<u64, PendingReply>,
    /// Server 3: inbound attempts by token.
    attempts: FlatMap<u64, InboundAttempt>,
    next_timer: u64,
    timer_tokens: FlatMap<u64, u64>,
}

impl CheckServer {
    /// Creates a server of the given role.
    pub fn new(role: ServerRole) -> Self {
        CheckServer {
            role,
            udp: None,
            conns: FlatMap::new(),
            pending: FlatMap::new(),
            attempts: FlatMap::new(),
            next_timer: 1,
            timer_tokens: FlatMap::new(),
        }
    }

    fn server_no(&self) -> u8 {
        match self.role {
            ServerRole::One => 1,
            ServerRole::Two { .. } => 2,
            ServerRole::Three => 3,
        }
    }

    fn udp_send(&self, os: &mut Os<'_, '_>, to: Endpoint, msg: &CheckMsg) {
        if let Some(sock) = self.udp {
            let _ = os.udp_send(sock, to, msg.encode());
        }
    }

    fn handle_udp(&mut self, os: &mut Os<'_, '_>, from: Endpoint, msg: CheckMsg) {
        match msg {
            CheckMsg::UdpProbe { token } => {
                let echo = CheckMsg::UdpEcho {
                    token,
                    observed: from,
                    server: self.server_no(),
                };
                self.udp_send(os, from, &echo);
                if let ServerRole::Two { s3 } = self.role {
                    self.udp_send(
                        os,
                        Endpoint::new(s3, CHECK_PORT),
                        &CheckMsg::ForwardUdp {
                            client: from,
                            token,
                        },
                    );
                }
            }
            CheckMsg::ForwardUdp { client, token } if self.role == ServerRole::Three => {
                // The reply the client never solicited from us.
                let echo = CheckMsg::UdpEcho {
                    token,
                    observed: client,
                    server: 3,
                };
                self.udp_send(os, client, &echo);
            }
            CheckMsg::TcpInboundReq { client, token } => {
                if self.role != ServerRole::Three {
                    return;
                }
                // §6.1.2: connect from our fixed probe port to the
                // client's public TCP endpoint and wait up to 5 s before
                // the go-ahead.
                let opts = ConnectOpts {
                    local_port: Some(S3_PROBE_PORT),
                    reuse: true,
                };
                let sock = os.tcp_connect(client, opts).ok();
                self.attempts.insert(
                    token,
                    InboundAttempt {
                        sock,
                        requester: from,
                        reported: false,
                    },
                );
                let t = self.next_timer;
                self.next_timer += 1;
                self.timer_tokens.insert(t, token);
                os.set_timer(GO_AHEAD_WAIT, t);
            }
            CheckMsg::TcpGoAhead { token, status } => {
                if let ServerRole::Two { .. } = self.role {
                    let _ = status;
                    if let Some(p) = self.pending.remove(&token) {
                        let echo = CheckMsg::TcpEcho {
                            token,
                            observed: p.observed,
                            server: 2,
                        };
                        let _ = os.tcp_send(p.sock, echo.encode_frame());
                    }
                }
            }
            _ => {}
        }
    }

    fn handle_tcp(&mut self, os: &mut Os<'_, '_>, sock: SocketId, msg: CheckMsg) {
        if let CheckMsg::TcpProbe { token } = msg {
            let Ok(observed) = os.remote_endpoint(sock) else {
                return;
            };
            match self.role {
                ServerRole::Two { s3 } => {
                    // Defer the reply until server 3 gives the go-ahead.
                    self.pending.insert(token, PendingReply { sock, observed });
                    self.udp_send(
                        os,
                        Endpoint::new(s3, CHECK_PORT),
                        &CheckMsg::TcpInboundReq {
                            client: observed,
                            token,
                        },
                    );
                }
                _ => {
                    let echo = CheckMsg::TcpEcho {
                        token,
                        observed,
                        server: self.server_no(),
                    };
                    let _ = os.tcp_send(sock, echo.encode_frame());
                }
            }
        }
    }

    /// Reports the inbound attempt's status to server 2 (at most once).
    fn report(&mut self, os: &mut Os<'_, '_>, token: u64, status: InboundStatus) {
        let Some(attempt) = self.attempts.get_mut(&token) else {
            return;
        };
        if attempt.reported {
            return;
        }
        attempt.reported = true;
        let requester = attempt.requester;
        self.udp_send(os, requester, &CheckMsg::TcpGoAhead { token, status });
    }
}

impl App for CheckServer {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        #[expect(clippy::expect_used, reason = "well-known check port on a fresh server host")]
        let udp = os.udp_bind(CHECK_PORT).expect("check port free");
        self.udp = Some(udp);
        #[expect(clippy::expect_used, reason = "well-known check port on a fresh server host")]
        os.tcp_listen(CHECK_PORT, false).expect("check port free");
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        match ev {
            SockEvent::UdpReceived { from, data, .. } => {
                if let Some(msg) = CheckMsg::decode(&data) {
                    self.handle_udp(os, from, msg);
                }
            }
            SockEvent::TcpIncoming { listener } => {
                while let Ok(Some((sock, _))) = os.tcp_accept(listener) {
                    self.conns.insert(sock, CheckFrames::default());
                }
            }
            SockEvent::TcpReceived { sock, data } => {
                if let Some(frames) = self.conns.get_mut(&sock) {
                    frames.push(&data);
                    while let Some(msg) = self.conns.get_mut(&sock).and_then(|f| f.next_message()) {
                        self.handle_tcp(os, sock, msg);
                    }
                }
            }
            SockEvent::TcpConnected { sock } => {
                // Server 3: the "unsolicited" connect went through — the
                // NAT does not filter (or actively admits) inbound SYNs.
                let token = self
                    .attempts
                    .iter()
                    .find(|(_, a)| a.sock == Some(sock))
                    .map(|(t, _)| *t);
                if let Some(token) = token {
                    self.report(os, token, InboundStatus::Connected);
                }
            }
            SockEvent::TcpConnectFailed { sock, err } => {
                let token = self
                    .attempts
                    .iter()
                    .find(|(_, a)| a.sock == Some(sock))
                    .map(|(t, _)| *t);
                if let Some(token) = token {
                    let status = match err {
                        SocketError::ConnectionRefused
                        | SocketError::ConnectionReset
                        | SocketError::HostUnreachable => InboundStatus::Refused,
                        _ => InboundStatus::InProgress,
                    };
                    self.report(os, token, status);
                    if let Some(a) = self.attempts.get_mut(&token) {
                        a.sock = None;
                    }
                }
            }
            SockEvent::TcpPeerClosed { sock } => {
                let _ = os.close(sock);
                self.conns.remove(&sock);
            }
            SockEvent::TcpAborted { sock, .. } => {
                self.conns.remove(&sock);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, os: &mut Os<'_, '_>, token: u64) {
        if let Some(attempt_token) = self.timer_tokens.remove(&token) {
            // The 5-second grace elapsed with the attempt still pending.
            self.report(os, attempt_token, InboundStatus::InProgress);
        }
    }
}
