//! The per-host protocol stack: socket table, port allocation, and
//! TCP/UDP/ICMP demultiplexing.
//!
//! This is where the paper's §4.1 API semantics live: `SO_REUSEADDR` /
//! `SO_REUSEPORT` binding rules, the one-listener-per-port rule, and the
//! §4.3 demux ambiguity between an in-progress `connect()` and a listening
//! socket on the same port (resolved according to the configured
//! [`TcpFlavor`]).

#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_lossless)]

use crate::config::{StackConfig, TcpFlavor, EPHEMERAL_PORTS};
use crate::error::{SockResult, SocketError};
use crate::event::SockEvent;
use crate::socket::{decode_timer, SocketId, TimerKind};
use crate::tcb::{StackStats, Tcb, TcbOutcome, TcpIo, TcpState};
use bytes::Bytes;
use punch_net::flat::{self, FlatMap, Inline};
use punch_net::{Body, Endpoint, IcmpKind, Packet, Proto, TcpFlags, TcpSegment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

/// Maximum connections queued on a listener awaiting `accept`.
const LISTEN_BACKLOG: usize = 128;

/// Options for an active TCP open.
#[derive(Clone, Copy, Debug, Default)]
pub struct ConnectOpts {
    /// Bind to this local port (0 or `None` = ephemeral).
    pub local_port: Option<u16>,
    /// Set the address-reuse socket options, allowing this socket to share
    /// its local port with a listener and with other outgoing connections —
    /// the §4.1 prerequisite for TCP hole punching.
    pub reuse: bool,
}

#[derive(Debug)]
struct UdpSock {
    local: Endpoint,
}

#[derive(Debug)]
struct ListenSock {
    local: Endpoint,
    reuse: bool,
    queue: VecDeque<SocketId>,
}

#[derive(Debug)]
enum Socket {
    Udp(UdpSock),
    Listener(ListenSock),
    Tcp(Box<Tcb>),
}

/// True for a connection `listener` spawned that has yet to finish its
/// handshake.
fn half_open_child(s: &Socket, listener: SocketId) -> bool {
    matches!(s, Socket::Tcp(t) if t.from_listener == Some(listener) && t.state == TcpState::SynReceived)
}

/// The TCP connections and listeners a host holds, by what a segment
/// is demultiplexed on: made with the host's first TCP socket, so a
/// host that only ever binds UDP holds none.
#[derive(Debug, Default)]
struct TcpTables {
    /// Connections by (local, remote).
    conns: FlatMap<(Endpoint, Endpoint), SocketId>,
    /// Listeners by local port.
    listeners: FlatMap<u16, SocketId>,
}

/// The stack's three outboxes, as one set: the one a callback writes to,
/// or the spare a thread keeps between callbacks for
/// [`crate::HostDevice`] to lend.
#[derive(Debug, Default)]
pub(crate) struct Outboxes {
    pub(crate) out: Vec<Packet>,
    pub(crate) events: Vec<SockEvent>,
    pub(crate) timers: Vec<(Duration, u64)>,
}

impl Outboxes {
    fn is_empty(&self) -> bool {
        self.out.is_empty() && self.events.is_empty() && self.timers.is_empty()
    }
}

/// A host's transport stack.
///
/// The stack is synchronous and side-effect-buffered: API calls and packet
/// handling append to internal outboxes, which the embedding
/// [`crate::HostDevice`] drains in place into the simulator and the
/// application. A caller driving a bare stack empties them with
/// [`HostStack::take_packets`], [`HostStack::take_events`] and
/// [`HostStack::take_timers`], which keeps the stack directly
/// unit-testable.
#[derive(Debug)]
pub struct HostStack {
    ip: Ipv4Addr,
    /// Shared with every host built from the same profile.
    cfg: Arc<StackConfig>,
    /// The port generator, as its seed and the number of words drawn
    /// from it: [`HostStack::alloc_ephemeral`] rebuilds it for each
    /// ephemeral port, so a host holds 16 B for a generator it draws
    /// from once or twice. The seed also keys the ISS ([`ISS_KEY`]).
    seed: u64,
    drawn: u64,
    next_sock: u32,
    /// A client holds one to three sockets; only a busy server's table
    /// grows, and its ids arrive in ascending order (appends).
    socks: FlatMap<SocketId, Socket>,
    /// `None` until the host's first TCP socket; a lookup reads `None`
    /// as empty tables.
    tcp: Option<Box<TcpTables>>,
    /// UDP sockets by local port: a client's one or two, in place.
    udp_index: FlatMap<u16, SocketId, Inline<(u16, SocketId), 2>>,
    /// The outboxes. [`crate::HostDevice`] lends a host its thread's
    /// spare set for each callback and drains it in place before taking
    /// it back ([`HostStack::swap_outboxes`]), so between callbacks a
    /// host holds `None`. A bare stack makes its own set at its first
    /// push. `out` and `events` rarely hold more than an entry or two at
    /// once and first grow a slot at a time ([`flat::push`]).
    pub(crate) outboxes: Option<Box<Outboxes>>,
    stats: StackStats,
}

// One per host, inline in its `HostDevice`: 40 004 of them in the
// benchmark's `crowd_udp`.
const _: () = assert!(std::mem::size_of::<HostStack>() <= 152);

/// Folded into the seed to key RFC 6528-style ISS generation.
const ISS_KEY: u64 = 0x1505_1505_1505_1505;

impl HostStack {
    /// Creates a stack for a host with address `ip`. `cfg` is a value
    /// or an `Arc` that many stacks share.
    pub fn new(ip: Ipv4Addr, cfg: impl Into<Arc<StackConfig>>, seed: u64) -> Self {
        HostStack {
            ip,
            cfg: cfg.into(),
            seed,
            drawn: 0,
            next_sock: 1,
            socks: FlatMap::new(),
            tcp: None,
            udp_index: FlatMap::default(),
            outboxes: None,
            stats: StackStats::default(),
        }
    }

    /// Returns the host's IP address.
    pub fn ip(&self) -> Ipv4Addr {
        self.ip
    }

    /// Replaces the stack's seed and restarts its port draws from it
    /// (used at node start-up to tie the stack's port/ISS draws to the
    /// simulation seed).
    pub fn reseed(&mut self, seed: u64) {
        self.seed = seed;
        self.drawn = 0;
    }

    /// Initial send sequence for a connection, RFC 6528 style: a keyed
    /// function of the 4-tuple. Crucially, a SYN-ACK generated for a
    /// 4-tuple we already SYNed (the §4.3 listener-steal) replays the
    /// same sequence number, which is what lets two crossed
    /// listener-steals converge into one wire connection (§4.4).
    fn iss_for(&self, local: Endpoint, remote: Endpoint) -> u32 {
        let mut z = (self.seed ^ ISS_KEY)
            ^ (u64::from(u32::from(local.ip)) << 32 | u64::from(u32::from(remote.ip)))
            ^ (u64::from(local.port) << 16 | u64::from(remote.port)).wrapping_mul(0x9e37_79b9);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        #[expect(clippy::cast_possible_truncation, reason = "deliberate truncation of a 64-bit hash into the 32-bit ISS space")]
        let iss = (z ^ (z >> 31)) as u32;
        iss
    }

    /// Returns the stack configuration.
    pub fn config(&self) -> &StackConfig {
        &self.cfg
    }

    /// Drains packets queued for transmission.
    // punch-lint: allow(S005) harness seam: transport/tests/proptest_tcp.rs drives a bare stack
    pub fn take_packets(&mut self) -> Vec<Packet> {
        self.outboxes.as_mut().map(|o| std::mem::take(&mut o.out)).unwrap_or_default()
    }

    /// Drains pending application events.
    pub fn take_events(&mut self) -> Vec<SockEvent> {
        self.outboxes.as_mut().map(|o| std::mem::take(&mut o.events)).unwrap_or_default()
    }

    /// Drains pending timer requests (`(delay, token)`).
    // punch-lint: allow(S005) harness seam: transport/tests/proptest_tcp.rs drives a bare stack
    pub fn take_timers(&mut self) -> Vec<(Duration, u64)> {
        self.outboxes.as_mut().map(|o| std::mem::take(&mut o.timers)).unwrap_or_default()
    }

    /// Exchanges the stack's outbox set with `spare`, either of them
    /// `None`. Both must be empty: a set changes hands only between
    /// callbacks, once `drive` has drained what the last one queued.
    pub(crate) fn swap_outboxes(&mut self, spare: &mut Option<Box<Outboxes>>) {
        debug_assert!(
            [&*spare, &self.outboxes].iter().all(|o| o.as_ref().is_none_or(|o| o.is_empty())),
            "outboxes change hands only while empty"
        );
        std::mem::swap(&mut self.outboxes, spare);
    }

    /// The outbox set to push to, made here if the stack holds none.
    pub(crate) fn outboxes(&mut self) -> &mut Outboxes {
        self.outboxes.get_or_insert_with(Box::default)
    }

    /// The connection `key` names, if any.
    fn conn(&self, key: &(Endpoint, Endpoint)) -> Option<SocketId> {
        self.tcp.as_ref()?.conns.get(key).copied()
    }

    /// The listener on `port`, if any.
    fn listener(&self, port: u16) -> Option<SocketId> {
        self.tcp.as_ref()?.listeners.get(&port).copied()
    }

    /// The TCP tables to insert into, made with the first TCP socket.
    fn tcp_tables(&mut self) -> &mut TcpTables {
        self.tcp.get_or_insert_with(Box::default)
    }

    /// Returns the transport counters (retransmits, RTO fires, RSTs).
    pub fn stats(&self) -> StackStats {
        self.stats
    }

    fn alloc_id(&mut self) -> SocketId {
        let id = SocketId(self.next_sock);
        self.next_sock += 1;
        id
    }

    /// The outboxes as a TCB writes to them, and the socket table beside
    /// them: the one place that splits the stack's borrow this way.
    fn io(&mut self) -> (TcpIo<'_>, &mut FlatMap<SocketId, Socket>) {
        let outboxes = self.outboxes.get_or_insert_with(Box::default);
        let io = TcpIo {
            cfg: &self.cfg,
            out: &mut outboxes.out,
            events: &mut outboxes.events,
            timers: &mut outboxes.timers,
            stats: &mut self.stats,
        };
        (io, &mut self.socks)
    }

    /// The connection behind `sock` with the outboxes for it to write to;
    /// `None` if `sock` is not a TCP connection.
    fn tcb_io(&mut self, sock: SocketId) -> Option<(&mut Tcb, TcpIo<'_>)> {
        let (io, socks) = self.io();
        match socks.get_mut(&sock)? {
            Socket::Tcp(tcb) => Some((tcb, io)),
            _ => None,
        }
    }

    /// Runs `f` on the connection behind `sock`, if there is one, and
    /// applies its outcome. An establishment notification goes before
    /// whatever events `f` itself produced: establishment logically
    /// precedes what the establishing segment also carried (e.g.
    /// piggybacked data), so `TcpIncoming` must reach the application
    /// before that data's `TcpReceived`.
    fn drive(&mut self, sock: SocketId, f: impl FnOnce(&mut Tcb, &mut TcpIo<'_>) -> TcbOutcome) {
        let Some((tcb, mut io)) = self.tcb_io(sock) else {
            return;
        };
        let at = io.events.len();
        let outcome = f(tcb, &mut io);
        let from_listener = tcb.from_listener;
        self.apply_outcome(sock, from_listener, outcome, at);
    }

    // ------------------------------------------------------------------
    // Port allocation and binding rules
    // ------------------------------------------------------------------

    fn udp_port_in_use(&self, port: u16) -> bool {
        self.udp_index.contains_key(&port)
    }

    fn tcp_port_users(&self, port: u16) -> impl Iterator<Item = &Socket> {
        self.socks.values().filter(move |s| match s {
            Socket::Listener(l) => l.local.port == port,
            Socket::Tcp(t) => t.local.port == port,
            Socket::Udp(_) => false,
        })
    }

    /// Draws ports until one is free for `proto`. The generator is
    /// rebuilt from the seed and moved to where the last search left it
    /// (one ChaCha block, not a replay), then its position is stored
    /// back: a search draws one word per port tried.
    fn alloc_ephemeral(&mut self, proto: Proto) -> SockResult<u16> {
        let (lo, hi) = EPHEMERAL_PORTS;
        let span = u32::from(hi - lo) + 1;
        let mut rng = StdRng::seed_from_u64(self.seed);
        rng.set_word_pos(self.drawn);
        let mut found = Err(SocketError::PortsExhausted);
        for _ in 0..span.min(4096) {
            #[expect(clippy::cast_possible_truncation, reason = "the draw is < span <= 0x1_0000, so it fits u16 by construction")]
            let port = lo + (rng.gen::<u32>() % span) as u16;
            let busy = match proto {
                Proto::Udp => self.udp_port_in_use(port),
                _ => self.tcp_port_users(port).next().is_some(),
            };
            if !busy {
                found = Ok(port);
                break;
            }
        }
        self.drawn = rng.get_word_pos();
        found
    }

    // ------------------------------------------------------------------
    // UDP API
    // ------------------------------------------------------------------

    /// Binds a UDP socket to `port` (0 = ephemeral).
    pub fn udp_bind(&mut self, port: u16) -> SockResult<SocketId> {
        let port = if port == 0 {
            self.alloc_ephemeral(Proto::Udp)?
        } else {
            port
        };
        if self.udp_port_in_use(port) {
            return Err(SocketError::AddrInUse);
        }
        let id = self.alloc_id();
        let local = Endpoint::new(self.ip, port);
        self.socks.insert(id, Socket::Udp(UdpSock { local }));
        self.udp_index.insert(port, id);
        Ok(id)
    }

    /// Sends a UDP datagram from `sock` to `to`.
    pub fn udp_send(
        &mut self,
        sock: SocketId,
        to: Endpoint,
        data: impl Into<Bytes>,
    ) -> SockResult<()> {
        let local = match self.socks.get(&sock) {
            Some(Socket::Udp(u)) => u.local,
            Some(_) => return Err(SocketError::InvalidState),
            None => return Err(SocketError::BadSocket),
        };
        flat::push(&mut self.outboxes().out, Packet::udp(local, to, data));
        Ok(())
    }

    // ------------------------------------------------------------------
    // TCP API
    // ------------------------------------------------------------------

    /// Creates a listening socket on `port` (0 = ephemeral).
    ///
    /// At most one listener may exist per port. With `reuse`, outgoing
    /// connections may share the port (and a listener may bind a port
    /// already used by reuse-bound connections) — the §4.1 pattern.
    pub fn tcp_listen(&mut self, port: u16, reuse: bool) -> SockResult<SocketId> {
        let port = if port == 0 {
            self.alloc_ephemeral(Proto::Tcp)?
        } else {
            port
        };
        for s in self.tcp_port_users(port) {
            match s {
                Socket::Listener(_) => return Err(SocketError::AddrInUse),
                Socket::Tcp(t) => {
                    if !(reuse && t.reuse) {
                        return Err(SocketError::AddrInUse);
                    }
                }
                Socket::Udp(_) => {}
            }
        }
        let id = self.alloc_id();
        let local = Endpoint::new(self.ip, port);
        self.socks.insert(
            id,
            Socket::Listener(ListenSock {
                local,
                reuse,
                queue: VecDeque::new(),
            }),
        );
        self.tcp_tables().listeners.insert(port, id);
        Ok(id)
    }

    /// Starts an asynchronous TCP connection to `remote`.
    ///
    /// Completion is reported via [`SockEvent::TcpConnected`] or
    /// [`SockEvent::TcpConnectFailed`].
    pub fn tcp_connect(&mut self, remote: Endpoint, opts: ConnectOpts) -> SockResult<SocketId> {
        let port = match opts.local_port {
            Some(p) if p != 0 => p,
            _ => self.alloc_ephemeral(Proto::Tcp)?,
        };
        let local = Endpoint::new(self.ip, port);
        if self.conn(&(local, remote)).is_some() {
            return Err(SocketError::AddrInUse);
        }
        if opts.local_port.is_some() {
            for s in self.tcp_port_users(port) {
                match s {
                    Socket::Listener(l) => {
                        if !(opts.reuse && l.reuse) {
                            return Err(SocketError::AddrInUse);
                        }
                    }
                    Socket::Tcp(t) => {
                        if !(opts.reuse && t.reuse) {
                            return Err(SocketError::AddrInUse);
                        }
                    }
                    Socket::Udp(_) => {}
                }
            }
        }
        let id = self.alloc_id();
        let iss = self.iss_for(local, remote);
        let mut tcb = Tcb::open_active(id, local, remote, iss, opts.reuse, &self.cfg);
        tcb.send_syn(&mut self.io().0);
        self.tcp_tables().conns.insert((local, remote), id);
        self.socks.insert(id, Socket::Tcp(Box::new(tcb)));
        Ok(id)
    }

    /// Accepts a queued connection from a listener, if one is ready.
    pub fn tcp_accept(&mut self, listener: SocketId) -> SockResult<Option<(SocketId, Endpoint)>> {
        let conn = match self.socks.get_mut(&listener) {
            Some(Socket::Listener(l)) => l.queue.pop_front(),
            Some(_) => return Err(SocketError::InvalidState),
            None => return Err(SocketError::BadSocket),
        };
        let Some(conn) = conn else {
            return Ok(None);
        };
        match self.socks.get(&conn) {
            Some(Socket::Tcp(t)) => Ok(Some((conn, t.remote))),
            // The connection died while queued; try the next one.
            _ => self.tcp_accept(listener),
        }
    }

    /// Queues stream data on an established connection: every part of
    /// `parts`, in order, as one write (`[data]` for a single buffer). A
    /// `Bytes` part is queued without a copy (see [`Tcb::send`]).
    pub fn tcp_send(
        &mut self,
        sock: SocketId,
        parts: impl IntoIterator<Item = impl Into<Bytes>>,
    ) -> SockResult<()> {
        if let Some((tcb, mut io)) = self.tcb_io(sock) {
            return tcb.send(parts, &mut io);
        }
        Err(if self.socks.contains_key(&sock) {
            SocketError::InvalidState
        } else {
            SocketError::BadSocket
        })
    }

    /// Returns the local endpoint of any socket.
    pub fn local_endpoint(&self, sock: SocketId) -> SockResult<Endpoint> {
        match self.socks.get(&sock) {
            Some(Socket::Udp(u)) => Ok(u.local),
            Some(Socket::Listener(l)) => Ok(l.local),
            Some(Socket::Tcp(t)) => Ok(t.local),
            None => Err(SocketError::BadSocket),
        }
    }

    /// Returns the remote endpoint of a TCP connection.
    pub fn remote_endpoint(&self, sock: SocketId) -> SockResult<Endpoint> {
        match self.socks.get(&sock) {
            Some(Socket::Tcp(t)) => Ok(t.remote),
            Some(_) => Err(SocketError::InvalidState),
            None => Err(SocketError::BadSocket),
        }
    }

    /// Closes any socket. TCP connections close gracefully (FIN);
    /// listeners abort queued un-accepted connections.
    pub fn close(&mut self, sock: SocketId) -> SockResult<()> {
        if let Some((tcb, mut io)) = self.tcb_io(sock) {
            if tcb.close(&mut io) {
                self.remove_conn(sock);
            }
            return Ok(());
        }
        match self.socks.remove(&sock) {
            None => return Err(SocketError::BadSocket),
            Some(Socket::Udp(u)) => {
                self.udp_index.remove(&u.local.port);
            }
            Some(Socket::Listener(l)) => {
                self.tcp_tables().listeners.remove(&l.local.port);
                // Abort its un-accepted connections, queued and half-open.
                let half_open = self
                    .socks
                    .iter()
                    .filter_map(|(id, s)| half_open_child(s, sock).then_some(*id));
                let orphans: Vec<SocketId> = l.queue.into_iter().chain(half_open).collect();
                for conn in orphans {
                    let _ = self.tcp_abort(conn);
                }
            }
            Some(Socket::Tcp(_)) => {} // taken above
        }
        Ok(())
    }

    /// Aborts a TCP connection with a RST.
    pub fn tcp_abort(&mut self, sock: SocketId) -> SockResult<()> {
        let Some((tcb, mut io)) = self.tcb_io(sock) else {
            return Err(SocketError::BadSocket);
        };
        tcb.abort(&mut io);
        self.remove_conn(sock);
        Ok(())
    }

    fn remove_conn(&mut self, sock: SocketId) {
        if let Some(Socket::Tcp(tcb)) = self.socks.remove(&sock) {
            // Only remove the index entry if it still points at us (it may
            // have been overwritten by a LinuxWindows-flavor steal).
            let key = (tcb.local, tcb.remote);
            if self.conn(&key) == Some(sock) {
                self.tcp_tables().conns.remove(&key);
            }
            // Drop from any listener queue.
            if let Some(listener) = tcb.from_listener {
                if let Some(Socket::Listener(l)) = self.socks.get_mut(&listener) {
                    l.queue.retain(|&c| c != sock);
                }
            }
        }
    }

    /// Applies the outcome of a callback on connection `sock` (accepted
    /// from `from_listener`, if any), inserting an establishment
    /// notification at event position `at`.
    fn apply_outcome(
        &mut self,
        sock: SocketId,
        from_listener: Option<SocketId>,
        outcome: TcbOutcome,
        at: usize,
    ) {
        if outcome.became_established {
            match from_listener {
                Some(listener) => match self.socks.get_mut(&listener) {
                    Some(Socket::Listener(l)) => {
                        l.queue.push_back(sock);
                        let events = &mut self.outboxes().events;
                        events.insert(at.min(events.len()), SockEvent::TcpIncoming { listener });
                    }
                    // Listener vanished while we were completing: abort.
                    _ => {
                        let _ = self.tcp_abort(sock);
                        return;
                    }
                },
                None => {
                    let events = &mut self.outboxes().events;
                    events.insert(at.min(events.len()), SockEvent::TcpConnected { sock });
                }
            }
        }
        if outcome.delete {
            if let (Some(err), None) = (outcome.failed, from_listener) {
                flat::push(&mut self.outboxes().events, SockEvent::TcpConnectFailed { sock, err });
            }
            self.remove_conn(sock);
        }
    }

    // ------------------------------------------------------------------
    // Inbound packet handling
    // ------------------------------------------------------------------

    /// Handles a packet arriving from the network.
    pub fn handle_packet(&mut self, pkt: Packet) {
        if pkt.dst.ip != self.ip {
            // Not ours; hosts are not routers.
            return;
        }
        if !pkt.checksum_ok() {
            // Verify before demux, like a real kernel: corrupted or
            // truncated segments are counted and discarded, never
            // delivered. Reliability is the sender's problem (TCP
            // retransmits; UDP protocols carry their own timers).
            self.stats.checksum_drops += 1;
            return;
        }
        match pkt.body {
            Body::Udp(data) => {
                if let Some(&sock) = self.udp_index.get(&pkt.dst.port) {
                    let received = SockEvent::UdpReceived {
                        sock,
                        from: pkt.src,
                        data,
                    };
                    flat::push(&mut self.outboxes().events, received);
                }
                // No ICMP port-unreachable for UDP: hole-punching probes to
                // stale endpoints should die silently, as on most consumer
                // OS + firewall combinations.
            }
            Body::Tcp(seg) => self.handle_tcp(pkt.src, pkt.dst, seg),
            Body::Icmp(msg) => {
                if msg.kind == IcmpKind::DestinationUnreachable && msg.original_proto == Proto::Tcp
                {
                    if let Some(sock) = self.conn(&(msg.original_src, msg.original_dst)) {
                        self.drive(sock, |tcb, _| tcb.on_icmp_unreachable());
                    }
                }
            }
        }
    }

    fn handle_tcp(&mut self, src: Endpoint, dst: Endpoint, seg: TcpSegment) {
        let key = (dst, src);
        if let Some(sock) = self.conn(&key) {
            // §4.3 demux ambiguity: a pure SYN matching an in-progress
            // connect while a listener shares the port.
            let is_pure_syn = seg.flags.contains(TcpFlags::SYN)
                && !seg.flags.intersects(TcpFlags::ACK | TcpFlags::RST);
            let steal = self.cfg.tcp_flavor == TcpFlavor::LinuxWindows
                && is_pure_syn
                && matches!(self.socks.get(&sock), Some(Socket::Tcp(t)) if t.state == TcpState::SynSent);
            if let Some(listener) = steal.then(|| self.listener(dst.port)).flatten() {
                self.steal_to_listener(sock, listener, src, dst, &seg);
                return;
            }
            self.drive(sock, |tcb, io| tcb.on_segment(&seg, io));
            return;
        }
        // No connection: maybe a listener.
        if seg.flags.contains(TcpFlags::SYN) && !seg.flags.intersects(TcpFlags::ACK | TcpFlags::RST)
        {
            if let Some(listener) = self.listener(dst.port) {
                self.passive_open(listener, src, dst, &seg);
                return;
            }
        }
        // No socket wants it: refuse (hosts actively RST, unlike
        // well-behaved NATs which silently drop — §5.2 contrasts these).
        if !seg.flags.contains(TcpFlags::RST) {
            let rst = if seg.flags.contains(TcpFlags::ACK) {
                TcpSegment::control(TcpFlags::RST, seg.ack, 0)
            } else {
                TcpSegment::control(
                    TcpFlags::RST | TcpFlags::ACK,
                    0,
                    seg.seq.wrapping_add(seg.seq_len()),
                )
            };
            self.stats.rsts_sent += 1;
            flat::push(&mut self.outboxes().out, Packet::tcp(dst, src, rst));
        }
    }

    fn backlog_full(&self, listener: SocketId) -> bool {
        let queued = match self.socks.get(&listener) {
            Some(Socket::Listener(l)) => l.queue.len(),
            _ => return true,
        };
        let half_open = self
            .socks
            .values()
            .filter(|s| half_open_child(s, listener))
            .count();
        queued + half_open >= LISTEN_BACKLOG
    }

    fn passive_open(&mut self, listener: SocketId, src: Endpoint, dst: Endpoint, seg: &TcpSegment) {
        if self.backlog_full(listener) {
            return; // Silently drop the SYN; the peer will retransmit.
        }
        let id = self.alloc_id();
        let iss = self.iss_for(dst, src);
        let tcb = Tcb::open_passive(id, dst, src, listener, iss, seg, &mut self.io().0);
        self.tcp_tables().conns.insert((dst, src), id);
        self.socks.insert(id, Socket::Tcp(Box::new(tcb)));
    }

    /// Implements the LinuxWindows half of §4.3: the listener claims the
    /// incoming SYN's 4-tuple; the outstanding `connect()` on the same
    /// tuple fails with "address in use".
    fn steal_to_listener(
        &mut self,
        old: SocketId,
        listener: SocketId,
        src: Endpoint,
        dst: Endpoint,
        seg: &TcpSegment,
    ) {
        if self.backlog_full(listener) {
            return;
        }
        // The old connect fails; remove it first so the index slot frees.
        self.remove_conn(old);
        let failed = SockEvent::TcpConnectFailed {
            sock: old,
            err: SocketError::AddrInUse,
        };
        flat::push(&mut self.outboxes().events, failed);
        self.passive_open(listener, src, dst, seg);
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Handles a timer token. Returns `true` if the token was a
    /// stack-internal timer (consumed), `false` if it belongs to the
    /// application.
    pub fn handle_timer(&mut self, token: u64) -> bool {
        let Some((kind, sock, gen)) = decode_timer(token) else {
            return false;
        };
        // A token whose socket is gone, or from an earlier generation of
        // its timer, is stale: consumed, and nothing happens.
        self.drive(sock, |tcb, io| match kind {
            _ if tcb.timer_gen != gen => TcbOutcome::default(), // stale
            TimerKind::Rto => tcb.on_rto(io),
            TimerKind::TimeWait => tcb.on_time_wait(),
        });
        true
    }
}

#[cfg(test)]
#[expect(clippy::cast_sign_loss, reason = "a count of fired timers is never negative")]
mod tests {
    use super::*;

    /// The TCP state of a connection, if it exists.
    fn tcp_state(stack: &HostStack, sock: SocketId) -> Option<TcpState> {
        match stack.socks.get(&sock) {
            Some(Socket::Tcp(t)) => Some(t.state),
            _ => None,
        }
    }

    fn ep(s: &str) -> Endpoint {
        s.parse().unwrap()
    }

    fn stack(ip: [u8; 4]) -> HostStack {
        HostStack::new(Ipv4Addr::from(ip), StackConfig::default(), 7)
    }

    /// Shuttles packets between two stacks until both are quiescent.
    fn pump(a: &mut HostStack, b: &mut HostStack) {
        loop {
            let pa = a.take_packets();
            let pb = b.take_packets();
            if pa.is_empty() && pb.is_empty() {
                break;
            }
            for p in pa {
                b.handle_packet(p);
            }
            for p in pb {
                a.handle_packet(p);
            }
        }
    }

    #[test]
    fn udp_bind_and_send() {
        let mut s = stack([10, 0, 0, 1]);
        let sock = s.udp_bind(4321).unwrap();
        assert_eq!(s.local_endpoint(sock).unwrap(), ep("10.0.0.1:4321"));
        s.udp_send(sock, ep("9.9.9.9:53"), b"q".as_ref()).unwrap();
        let pkts = s.take_packets();
        assert_eq!(pkts.len(), 1);
        assert_eq!(pkts[0].src, ep("10.0.0.1:4321"));
    }

    #[test]
    fn udp_double_bind_fails() {
        let mut s = stack([10, 0, 0, 1]);
        s.udp_bind(4321).unwrap();
        assert_eq!(s.udp_bind(4321), Err(SocketError::AddrInUse));
    }

    #[test]
    fn udp_ephemeral_ports_are_distinct() {
        let mut s = stack([10, 0, 0, 1]);
        let a = s.udp_bind(0).unwrap();
        let b = s.udp_bind(0).unwrap();
        assert_ne!(
            s.local_endpoint(a).unwrap().port,
            s.local_endpoint(b).unwrap().port
        );
    }

    #[test]
    fn udp_delivery_and_no_rst_for_unbound() {
        let mut s = stack([10, 0, 0, 1]);
        let sock = s.udp_bind(5000).unwrap();
        s.handle_packet(Packet::udp(
            ep("9.9.9.9:53"),
            ep("10.0.0.1:5000"),
            b"hi".as_ref(),
        ));
        let evs = s.take_events();
        assert_eq!(evs.len(), 1);
        assert!(
            matches!(&evs[0], SockEvent::UdpReceived { sock: got, from, data }
            if *got == sock && *from == ep("9.9.9.9:53") && data.as_ref() == b"hi")
        );
        // Unbound port: silence.
        s.handle_packet(Packet::udp(
            ep("9.9.9.9:53"),
            ep("10.0.0.1:1"),
            b"x".as_ref(),
        ));
        assert!(s.take_events().is_empty());
        assert!(s.take_packets().is_empty());
    }

    #[test]
    fn corrupted_udp_is_dropped_and_counted() {
        let mut s = stack([10, 0, 0, 1]);
        s.udp_bind(5000).unwrap();
        let mut pkt = Packet::udp(ep("9.9.9.9:53"), ep("10.0.0.1:5000"), b"payload".as_ref());
        pkt.corrupt_bit(11);
        s.handle_packet(pkt);
        assert!(s.take_events().is_empty(), "damaged bytes must not surface");
        assert_eq!(s.stats().checksum_drops, 1);
        // A clean packet still flows.
        s.handle_packet(Packet::udp(
            ep("9.9.9.9:53"),
            ep("10.0.0.1:5000"),
            b"payload".as_ref(),
        ));
        assert_eq!(s.take_events().len(), 1);
        assert_eq!(s.stats().checksum_drops, 1);
    }

    #[test]
    fn truncated_udp_is_dropped_and_counted() {
        let mut s = stack([10, 0, 0, 1]);
        s.udp_bind(5000).unwrap();
        let mut pkt = Packet::udp(ep("9.9.9.9:53"), ep("10.0.0.1:5000"), vec![0u8; 16]);
        pkt.truncate_payload(5);
        s.handle_packet(pkt);
        assert!(s.take_events().is_empty());
        assert_eq!(s.stats().checksum_drops, 1);
    }

    #[test]
    fn corrupted_tcp_segment_is_dropped_before_demux() {
        let mut s = stack([10, 0, 0, 1]);
        s.tcp_listen(80, false).unwrap();
        // A corrupted SYN must neither create state nor elicit a reply
        // (a real stack discards bad-checksum segments silently).
        let mut syn = Packet::tcp(
            ep("9.9.9.9:1000"),
            ep("10.0.0.1:80"),
            TcpSegment::control(TcpFlags::SYN, 0, 0),
        );
        syn.corrupt_bit(3);
        s.handle_packet(syn);
        assert!(s.take_packets().is_empty(), "no SYN-ACK, no RST");
        assert!(s.take_events().is_empty());
        assert_eq!(s.stats().checksum_drops, 1);
    }

    #[test]
    fn wrong_destination_ip_ignored() {
        let mut s = stack([10, 0, 0, 1]);
        s.udp_bind(5000).unwrap();
        s.handle_packet(Packet::udp(
            ep("9.9.9.9:53"),
            ep("10.0.0.2:5000"),
            b"hi".as_ref(),
        ));
        assert!(s.take_events().is_empty());
    }

    #[test]
    fn tcp_client_server_handshake_and_data() {
        let mut c = stack([10, 0, 0, 1]);
        let mut srv = stack([5, 5, 5, 5]);
        let l = srv.tcp_listen(80, false).unwrap();
        let conn = c
            .tcp_connect(ep("5.5.5.5:80"), ConnectOpts::default())
            .unwrap();
        pump(&mut c, &mut srv);

        assert!(c
            .take_events()
            .contains(&SockEvent::TcpConnected { sock: conn }));
        let evs = srv.take_events();
        assert!(evs.contains(&SockEvent::TcpIncoming { listener: l }));
        let (child, peer) = srv.tcp_accept(l).unwrap().unwrap();
        assert_eq!(peer.ip, Ipv4Addr::from([10, 0, 0, 1]));

        // Data both ways.
        c.tcp_send(conn, [b"ping"]).unwrap();
        pump(&mut c, &mut srv);
        let evs = srv.take_events();
        assert!(evs.iter().any(|e| matches!(e, SockEvent::TcpReceived { sock, data } if *sock == child && data.as_ref() == b"ping")));
        srv.tcp_send(child, [b"pong"]).unwrap();
        pump(&mut c, &mut srv);
        let evs = c.take_events();
        assert!(evs.iter().any(|e| matches!(e, SockEvent::TcpReceived { sock, data } if *sock == conn && data.as_ref() == b"pong")));
    }

    #[test]
    fn tcp_connect_to_closed_port_is_refused() {
        let mut c = stack([10, 0, 0, 1]);
        let mut srv = stack([5, 5, 5, 5]);
        let conn = c
            .tcp_connect(ep("5.5.5.5:81"), ConnectOpts::default())
            .unwrap();
        pump(&mut c, &mut srv);
        let evs = c.take_events();
        assert!(evs.contains(&SockEvent::TcpConnectFailed {
            sock: conn,
            err: SocketError::ConnectionRefused
        }));
        assert_eq!(c.socks.len(), 0);
    }

    #[test]
    fn reuse_allows_listener_plus_connect_on_same_port() {
        let mut s = stack([10, 0, 0, 1]);
        let _l = s.tcp_listen(4321, true).unwrap();
        let c1 = s.tcp_connect(
            ep("5.5.5.5:80"),
            ConnectOpts {
                local_port: Some(4321),
                reuse: true,
            },
        );
        assert!(c1.is_ok());
        let c2 = s.tcp_connect(
            ep("6.6.6.6:80"),
            ConnectOpts {
                local_port: Some(4321),
                reuse: true,
            },
        );
        assert!(c2.is_ok(), "multiple outgoing connections share the port");
    }

    #[test]
    fn no_reuse_conflicts() {
        let mut s = stack([10, 0, 0, 1]);
        let _l = s.tcp_listen(4321, false).unwrap();
        let c = s.tcp_connect(
            ep("5.5.5.5:80"),
            ConnectOpts {
                local_port: Some(4321),
                reuse: true,
            },
        );
        assert_eq!(c.unwrap_err(), SocketError::AddrInUse);

        let mut s2 = stack([10, 0, 0, 2]);
        let _c = s2
            .tcp_connect(
                ep("5.5.5.5:80"),
                ConnectOpts {
                    local_port: Some(4321),
                    reuse: false,
                },
            )
            .unwrap();
        let l = s2.tcp_listen(4321, true);
        assert_eq!(l.unwrap_err(), SocketError::AddrInUse);
    }

    #[test]
    fn identical_four_tuple_rejected_even_with_reuse() {
        let mut s = stack([10, 0, 0, 1]);
        let _c1 = s
            .tcp_connect(
                ep("5.5.5.5:80"),
                ConnectOpts {
                    local_port: Some(4321),
                    reuse: true,
                },
            )
            .unwrap();
        let c2 = s.tcp_connect(
            ep("5.5.5.5:80"),
            ConnectOpts {
                local_port: Some(4321),
                reuse: true,
            },
        );
        assert_eq!(c2.unwrap_err(), SocketError::AddrInUse);
    }

    #[test]
    fn second_listener_on_port_rejected() {
        let mut s = stack([10, 0, 0, 1]);
        s.tcp_listen(4321, true).unwrap();
        assert_eq!(s.tcp_listen(4321, true), Err(SocketError::AddrInUse));
    }

    #[test]
    fn graceful_close_tears_down_both_tcbs() {
        let mut c = stack([10, 0, 0, 1]);
        let mut srv = stack([5, 5, 5, 5]);
        let l = srv.tcp_listen(80, false).unwrap();
        let conn = c
            .tcp_connect(ep("5.5.5.5:80"), ConnectOpts::default())
            .unwrap();
        pump(&mut c, &mut srv);
        c.take_events();
        srv.take_events();
        let (child, _) = srv.tcp_accept(l).unwrap().unwrap();

        c.close(conn).unwrap();
        pump(&mut c, &mut srv);
        assert!(srv
            .take_events()
            .contains(&SockEvent::TcpPeerClosed { sock: child }));
        srv.close(child).unwrap();
        pump(&mut c, &mut srv);
        assert!(c
            .take_events()
            .contains(&SockEvent::TcpPeerClosed { sock: conn }));
        // Client TCB lingers in TIME-WAIT; server child is gone.
        assert_eq!(tcp_state(&srv, child), None);
        assert_eq!(tcp_state(&c, conn), Some(TcpState::TimeWait));
    }

    #[test]
    fn time_wait_expiry_frees_socket() {
        let mut c = stack([10, 0, 0, 1]);
        let mut srv = stack([5, 5, 5, 5]);
        let l = srv.tcp_listen(80, false).unwrap();
        let conn = c
            .tcp_connect(ep("5.5.5.5:80"), ConnectOpts::default())
            .unwrap();
        pump(&mut c, &mut srv);
        let (child, _) = srv.tcp_accept(l).unwrap().unwrap();
        c.close(conn).unwrap();
        pump(&mut c, &mut srv);
        srv.close(child).unwrap();
        pump(&mut c, &mut srv);
        assert_eq!(tcp_state(&c, conn), Some(TcpState::TimeWait));
        // Fire the TIME-WAIT timer.
        let timers = c.take_timers();
        let (_, token) = timers.into_iter().last().expect("time-wait timer armed");
        assert!(c.handle_timer(token));
        assert_eq!(tcp_state(&c, conn), None);
    }

    #[test]
    fn abort_sends_rst_and_peer_sees_reset() {
        let mut c = stack([10, 0, 0, 1]);
        let mut srv = stack([5, 5, 5, 5]);
        let l = srv.tcp_listen(80, false).unwrap();
        let conn = c
            .tcp_connect(ep("5.5.5.5:80"), ConnectOpts::default())
            .unwrap();
        pump(&mut c, &mut srv);
        let (child, _) = srv.tcp_accept(l).unwrap().unwrap();
        srv.take_events();
        c.tcp_abort(conn).unwrap();
        pump(&mut c, &mut srv);
        assert!(srv.take_events().contains(&SockEvent::TcpAborted {
            sock: child,
            err: SocketError::ConnectionReset
        }));
    }

    #[test]
    fn simultaneous_open_between_stacks() {
        // Both sides connect to each other from bound ports, no listeners:
        // RFC 793 simultaneous open must establish both.
        let mut a = stack([1, 1, 1, 1]);
        let mut b = stack([2, 2, 2, 2]);
        let ca = a
            .tcp_connect(
                ep("2.2.2.2:4000"),
                ConnectOpts {
                    local_port: Some(3000),
                    reuse: true,
                },
            )
            .unwrap();
        let cb = b
            .tcp_connect(
                ep("1.1.1.1:3000"),
                ConnectOpts {
                    local_port: Some(4000),
                    reuse: true,
                },
            )
            .unwrap();
        // Exchange SYNs simultaneously: take both outboxes before delivery.
        let pa = a.take_packets();
        let pb = b.take_packets();
        for p in pa {
            b.handle_packet(p);
        }
        for p in pb {
            a.handle_packet(p);
        }
        pump(&mut a, &mut b);
        assert!(a
            .take_events()
            .contains(&SockEvent::TcpConnected { sock: ca }));
        assert!(b
            .take_events()
            .contains(&SockEvent::TcpConnected { sock: cb }));
        assert_eq!(tcp_state(&a, ca), Some(TcpState::Established));
        assert_eq!(tcp_state(&b, cb), Some(TcpState::Established));
    }

    #[test]
    fn flavor_bsd_connect_succeeds_with_listener_present() {
        // A SYN arrives matching an in-progress connect AND a listener on
        // the same port: BSD completes the connect.
        let mut a = HostStack::new(
            Ipv4Addr::from([1, 1, 1, 1]),
            StackConfig::default().with_flavor(TcpFlavor::Bsd),
            7,
        );
        let mut b = stack([2, 2, 2, 2]);
        let _l = a.tcp_listen(3000, true).unwrap();
        let ca = a
            .tcp_connect(
                ep("2.2.2.2:4000"),
                ConnectOpts {
                    local_port: Some(3000),
                    reuse: true,
                },
            )
            .unwrap();
        a.take_packets(); // A's SYN is lost (simulates NAT drop).
        let cb = b
            .tcp_connect(
                ep("1.1.1.1:3000"),
                ConnectOpts {
                    local_port: Some(4000),
                    reuse: true,
                },
            )
            .unwrap();
        pump(&mut a, &mut b);
        let evs = a.take_events();
        assert!(
            evs.contains(&SockEvent::TcpConnected { sock: ca }),
            "{evs:?}"
        );
        assert!(!evs
            .iter()
            .any(|e| matches!(e, SockEvent::TcpIncoming { .. })));
        assert!(b
            .take_events()
            .contains(&SockEvent::TcpConnected { sock: cb }));
    }

    #[test]
    fn flavor_linux_listener_steals_and_connect_fails_addr_in_use() {
        let mut a = HostStack::new(
            Ipv4Addr::from([1, 1, 1, 1]),
            StackConfig::default().with_flavor(TcpFlavor::LinuxWindows),
            7,
        );
        let mut b = stack([2, 2, 2, 2]);
        let l = a.tcp_listen(3000, true).unwrap();
        let ca = a
            .tcp_connect(
                ep("2.2.2.2:4000"),
                ConnectOpts {
                    local_port: Some(3000),
                    reuse: true,
                },
            )
            .unwrap();
        a.take_packets(); // A's SYN is lost.
        let cb = b
            .tcp_connect(
                ep("1.1.1.1:3000"),
                ConnectOpts {
                    local_port: Some(4000),
                    reuse: true,
                },
            )
            .unwrap();
        pump(&mut a, &mut b);
        let evs = a.take_events();
        assert!(
            evs.contains(&SockEvent::TcpConnectFailed {
                sock: ca,
                err: SocketError::AddrInUse
            }),
            "connect must fail with address-in-use: {evs:?}"
        );
        assert!(evs.contains(&SockEvent::TcpIncoming { listener: l }));
        let (child, peer) = a.tcp_accept(l).unwrap().unwrap();
        assert_eq!(peer, ep("2.2.2.2:4000"));
        assert_eq!(tcp_state(&a, child), Some(TcpState::Established));
        assert!(b
            .take_events()
            .contains(&SockEvent::TcpConnected { sock: cb }));
    }

    #[test]
    fn linux_flavor_without_listener_still_does_simultaneous_open() {
        let mut a = HostStack::new(
            Ipv4Addr::from([1, 1, 1, 1]),
            StackConfig::default().with_flavor(TcpFlavor::LinuxWindows),
            7,
        );
        let mut b = stack([2, 2, 2, 2]);
        let ca = a
            .tcp_connect(
                ep("2.2.2.2:4000"),
                ConnectOpts {
                    local_port: Some(3000),
                    reuse: true,
                },
            )
            .unwrap();
        a.take_packets(); // Lose A's SYN.
        let _cb = b
            .tcp_connect(
                ep("1.1.1.1:3000"),
                ConnectOpts {
                    local_port: Some(4000),
                    reuse: true,
                },
            )
            .unwrap();
        pump(&mut a, &mut b);
        assert!(a
            .take_events()
            .contains(&SockEvent::TcpConnected { sock: ca }));
    }

    #[test]
    fn icmp_unreachable_fails_pending_connect() {
        let mut c = stack([10, 0, 0, 1]);
        let conn = c
            .tcp_connect(ep("5.5.5.5:80"), ConnectOpts::default())
            .unwrap();
        let local = c.local_endpoint(conn).unwrap();
        c.take_packets();
        c.handle_packet(Packet::icmp(
            ep("7.7.7.7:0"),
            Endpoint::new(local.ip, 0),
            punch_net::IcmpMessage {
                kind: IcmpKind::DestinationUnreachable,
                original_proto: Proto::Tcp,
                original_src: local,
                original_dst: ep("5.5.5.5:80"),
            },
        ));
        assert!(c.take_events().contains(&SockEvent::TcpConnectFailed {
            sock: conn,
            err: SocketError::HostUnreachable
        }));
    }

    #[test]
    fn rst_sent_for_segment_to_dead_port() {
        let mut s = stack([10, 0, 0, 1]);
        let syn = TcpSegment::control(TcpFlags::SYN, 100, 0);
        s.handle_packet(Packet::tcp(ep("9.9.9.9:1000"), ep("10.0.0.1:80"), syn));
        let out = s.take_packets();
        assert_eq!(out.len(), 1);
        let Body::Tcp(rst) = &out[0].body else {
            panic!("not tcp: {:?}", out[0]);
        };
        assert!(rst.flags.contains(TcpFlags::RST));
        assert_eq!(rst.ack, 101);
    }

    #[test]
    fn rst_not_answered_with_rst() {
        let mut s = stack([10, 0, 0, 1]);
        let rst = TcpSegment::control(TcpFlags::RST, 100, 0);
        s.handle_packet(Packet::tcp(ep("9.9.9.9:1000"), ep("10.0.0.1:80"), rst));
        assert!(s.take_packets().is_empty(), "no RST war");
    }

    #[test]
    fn close_listener_aborts_queued_connections() {
        let mut c = stack([10, 0, 0, 1]);
        let mut srv = stack([5, 5, 5, 5]);
        let l = srv.tcp_listen(80, false).unwrap();
        let _conn = c
            .tcp_connect(ep("5.5.5.5:80"), ConnectOpts::default())
            .unwrap();
        pump(&mut c, &mut srv);
        srv.take_events();
        srv.close(l).unwrap();
        assert_eq!(
            srv.socks.len(),
            0,
            "queued child aborted with the listener"
        );
    }

    #[test]
    fn stale_timer_generations_are_ignored() {
        let mut c = stack([10, 0, 0, 1]);
        let _conn = c
            .tcp_connect(ep("5.5.5.5:80"), ConnectOpts::default())
            .unwrap();
        let timers = c.take_timers();
        assert_eq!(timers.len(), 1);
        // Deliver the same token twice; the second must be a no-op
        // because on_rto re-armed with a new generation.
        let token = timers[0].1;
        let sent_before = c.take_packets().len();
        assert!(c.handle_timer(token));
        let retransmits = c.take_packets().len();
        assert!(c.handle_timer(token));
        assert_eq!(c.take_packets().len(), 0, "stale token retransmitted");
        assert_eq!(sent_before, 1);
        assert_eq!(retransmits, 1);
    }

    #[test]
    fn connect_timeout_after_syn_retries() {
        let mut c = stack([10, 0, 0, 1]);
        let conn = c
            .tcp_connect(ep("5.5.5.5:80"), ConnectOpts::default())
            .unwrap();
        // Keep firing whatever RTO timer is armed until the connect dies.
        let mut fired = 0;
        loop {
            let timers = c.take_timers();
            let evs = c.take_events();
            if evs.iter().any(|e| {
                matches!(
                    e,
                    SockEvent::TcpConnectFailed {
                        err: SocketError::TimedOut,
                        ..
                    }
                )
            }) {
                break;
            }
            let Some((_, token)) = timers.into_iter().next() else {
                panic!("connect {conn:?} neither timed out nor re-armed after {fired} firings");
            };
            c.handle_timer(token);
            fired += 1;
            assert!(fired < 20);
        }
        assert_eq!(fired as u32, crate::config::SYN_RETRIES + 1);
    }
}
