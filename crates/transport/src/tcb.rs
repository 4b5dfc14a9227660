//! The TCP control block: a per-connection RFC 793 state machine.
//!
//! This is deliberately a *real* (if compact) TCP: simultaneous open,
//! SYN-ACK replay, RSTs, go-back-N retransmission with exponential
//! backoff, FIN handshakes and TIME-WAIT all behave per the RFC, because
//! the paper's §4.3–§4.4 observations are consequences of exactly these
//! transitions. Congestion control and SACK are omitted — they do not
//! affect connection establishment, which is what hole punching is about —
//! but a fixed-window reliable byte stream is implemented so relay and
//! throughput experiments carry real data.
//!
//! Stream bytes are not copied on the way out: the send queue holds the
//! caller's buffers as they were passed to [`Tcb::send`] (a framed
//! message as its parts: an inline head, then the payload it shares), and
//! each segment's payload is a slice of the front buffer. Only a segment
//! that straddles two buffers is copied, once, into a buffer of its own.
//! Retransmission resends the `Bytes` the segment first went out with.

#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_lossless)]

use crate::config::{StackConfig, MSS, RTO_MAX, SYN_RETRIES};
use crate::error::SocketError;
use crate::event::SockEvent;
use crate::seq;
use crate::socket::{encode_timer, SocketId, TimerKind};
use bytes::{Bytes, BytesMut};
use punch_net::{Endpoint, Packet, TcpFlags, TcpSegment};
use std::collections::VecDeque;
use std::time::Duration;

/// RFC 793 connection states (LISTEN and CLOSED live outside the TCB).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpState {
    /// Active open sent a SYN, awaiting SYN-ACK (or SYN: simultaneous open).
    SynSent,
    /// SYN received and SYN-ACK sent, awaiting ACK of our SYN.
    SynReceived,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, awaiting its ACK.
    FinWait1,
    /// Our FIN is acked; awaiting the peer's FIN.
    FinWait2,
    /// Peer closed first; we may still send.
    CloseWait,
    /// Both sides sent FINs simultaneously; awaiting ACK of ours.
    Closing,
    /// We closed after the peer; FIN sent, awaiting its ACK.
    LastAck,
    /// Connection done; lingering to absorb stray segments.
    TimeWait,
}

/// Widens an in-flight byte count into 32-bit sequence space.
///
/// Payload and window sizes are MTU/window-bounded, orders of magnitude
/// below `u32::MAX`, so the conversion is checked rather than truncating
/// (`clippy::cast_possible_truncation` is denied in this module).
fn seq_width(n: usize) -> u32 {
    #[expect(clippy::expect_used, reason = "byte counts are MTU/window-bounded, far below 2^32")]
    let width = u32::try_from(n).expect("byte count exceeds 32-bit sequence space");
    width
}

/// A retransmittable in-flight item: a data segment or the FIN.
#[derive(Debug)]
struct Inflight {
    seq: u32,
    data: Bytes,
    fin: bool,
}

impl Inflight {
    fn seq_len(&self) -> u32 {
        seq_width(self.data.len()) + u32::from(self.fin)
    }
}

/// Side effects produced while handling a segment or timer; the stack
/// drains these into the network and the application.
pub struct TcpIo<'a> {
    /// Stack configuration.
    pub cfg: &'a StackConfig,
    /// Packets to transmit.
    pub out: &'a mut Vec<Packet>,
    /// Events for the application.
    pub events: &'a mut Vec<SockEvent>,
    /// Timers to arm: `(delay, token)`.
    pub timers: &'a mut Vec<(Duration, u64)>,
    /// Transport counters, bumped as segments go out.
    pub stats: &'a mut StackStats,
}

/// Transport-layer counters kept by the stack itself.
///
/// These are plain integers (always on, no allocation); a metrics
/// snapshot copies them in through `HostDevice`'s `Device::counters`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StackStats {
    /// Segments retransmitted (RTO-driven and fast retransmits).
    pub retransmits: u64,
    /// Retransmission-timeout firings (including the final one that
    /// gives up on the connection).
    pub rto_fires: u64,
    /// RST segments sent (aborts, refused connections, dead-port
    /// responses).
    pub rsts_sent: u64,
    /// Inbound packets discarded because their Internet checksum did
    /// not verify (link-level corruption or truncation). Dropped before
    /// demux — damaged bytes never reach sockets or applications.
    pub checksum_drops: u64,
    /// Inbound RSTs that tore a synchronized connection down.
    pub rsts_accepted: u64,
    /// Inbound RSTs discarded by RFC 5961 sequence validation (a
    /// challenge ACK answers the in-window ones).
    pub rsts_rejected: u64,
}

/// What the stack should do with the TCB after a callback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcbOutcome {
    /// Remove the TCB (and its socket id) from the stack.
    pub delete: bool,
    /// The connection just reached ESTABLISHED.
    pub became_established: bool,
    /// The connection failed before establishing, with this error.
    pub failed: Option<SocketError>,
}

impl TcbOutcome {
    fn deleted(failed: Option<SocketError>) -> Self {
        TcbOutcome {
            delete: true,
            became_established: false,
            failed,
        }
    }
}

/// A TCP connection endpoint.
#[derive(Debug)]
pub struct Tcb {
    /// Socket id this TCB is registered under.
    pub id: SocketId,
    /// Local (private) endpoint.
    pub local: Endpoint,
    /// Remote endpoint as this host sees it.
    pub remote: Endpoint,
    /// Current RFC 793 state.
    pub state: TcpState,
    /// The listener that spawned this TCB via a passive open, if any.
    pub from_listener: Option<SocketId>,
    /// Whether this TCB was bound with the address-reuse options set.
    pub reuse: bool,

    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    irs: u32,
    rcv_nxt: u32,
    peer_wnd: u32,

    /// Unsent stream bytes: the caller's buffers in order, none empty.
    send_q: VecDeque<Bytes>,
    /// Bytes in `send_q`.
    queued: usize,
    inflight: VecDeque<Inflight>,
    fin_queued: bool,
    fin_sent: bool,
    /// Emit [`SockEvent::TcpSendDrained`] when the pipeline empties.
    drain_watch: bool,

    rto_cur: Duration,
    retries: u32,
    /// Consecutive duplicate ACKs (fast-retransmit trigger).
    dup_acks: u32,
    /// Timer generation; firings carrying an older generation are stale.
    pub timer_gen: u32,
}

impl Tcb {
    /// Creates a TCB for an active open. The caller must follow up with
    /// [`Tcb::send_syn`].
    pub fn open_active(
        id: SocketId,
        local: Endpoint,
        remote: Endpoint,
        iss: u32,
        reuse: bool,
        cfg: &StackConfig,
    ) -> Self {
        Tcb {
            id,
            local,
            remote,
            state: TcpState::SynSent,
            from_listener: None,
            reuse,
            iss,
            snd_una: iss,
            snd_nxt: iss.wrapping_add(1),
            irs: 0,
            rcv_nxt: 0,
            peer_wnd: u32::from(u16::MAX),
            send_q: VecDeque::new(),
            queued: 0,
            inflight: VecDeque::new(),
            fin_queued: false,
            fin_sent: false,
            drain_watch: false,
            rto_cur: cfg.rto_initial,
            retries: 0,
            dup_acks: 0,
            timer_gen: 0,
        }
    }

    /// Creates a TCB for a passive open triggered by an incoming SYN, and
    /// emits the SYN-ACK.
    pub fn open_passive(
        id: SocketId,
        local: Endpoint,
        remote: Endpoint,
        listener: SocketId,
        iss: u32,
        syn: &TcpSegment,
        io: &mut TcpIo<'_>,
    ) -> Self {
        let mut tcb = Tcb::open_active(id, local, remote, iss, true, io.cfg);
        tcb.from_listener = Some(listener);
        tcb.state = TcpState::SynReceived;
        tcb.irs = syn.seq;
        tcb.rcv_nxt = syn.seq.wrapping_add(1);
        tcb.peer_wnd = u32::from(syn.window);
        tcb.emit_synack(io);
        tcb.arm_rto(io);
        tcb
    }

    /// Sends the initial SYN and arms the retransmission timer.
    pub fn send_syn(&mut self, io: &mut TcpIo<'_>) {
        debug_assert_eq!(self.state, TcpState::SynSent);
        let seg = TcpSegment::control(TcpFlags::SYN, self.iss, 0);
        io.out.push(Packet::tcp(self.local, self.remote, seg));
        self.arm_rto(io);
    }

    fn emit_synack(&mut self, io: &mut TcpIo<'_>) {
        // The SYN part replays the original sequence number (§4.3/§4.4).
        let seg = TcpSegment::control(TcpFlags::SYN | TcpFlags::ACK, self.iss, self.rcv_nxt);
        io.out.push(Packet::tcp(self.local, self.remote, seg));
    }

    fn emit_ack(&mut self, io: &mut TcpIo<'_>) {
        let seg = TcpSegment::control(TcpFlags::ACK, self.snd_nxt, self.rcv_nxt);
        io.out.push(Packet::tcp(self.local, self.remote, seg));
    }

    fn emit_rst(&self, io: &mut TcpIo<'_>) {
        let seg = TcpSegment::control(TcpFlags::RST, self.snd_nxt, 0);
        io.stats.rsts_sent += 1;
        io.out.push(Packet::tcp(self.local, self.remote, seg));
    }

    fn arm_rto(&mut self, io: &mut TcpIo<'_>) {
        self.timer_gen = self.timer_gen.wrapping_add(1);
        io.timers.push((
            self.rto_cur,
            encode_timer(TimerKind::Rto, self.id, self.timer_gen),
        ));
    }

    fn cancel_timer(&mut self) {
        self.timer_gen = self.timer_gen.wrapping_add(1);
    }

    fn arm_time_wait(&mut self, io: &mut TcpIo<'_>) {
        self.timer_gen = self.timer_gen.wrapping_add(1);
        io.timers.push((
            io.cfg.time_wait,
            encode_timer(TimerKind::TimeWait, self.id, self.timer_gen),
        ));
    }

    /// Bytes in flight (sequence space, including a sent FIN).
    fn flight_size(&self) -> u32 {
        self.snd_nxt.wrapping_sub(self.snd_una)
    }

    /// Queues application data for transmission: every part of `parts`,
    /// in order, before any of it goes out, so segmentation sees one
    /// write however many parts it came in. A single buffer is the
    /// one-part case (`[data]`). A `Bytes` part is queued as it is,
    /// without a copy; segments are sliced out of it, and only a segment
    /// that straddles two parts is copied.
    pub fn send(
        &mut self,
        parts: impl IntoIterator<Item = impl Into<Bytes>>,
        io: &mut TcpIo<'_>,
    ) -> Result<(), SocketError> {
        match self.state {
            TcpState::SynSent
            | TcpState::SynReceived
            | TcpState::Established
            | TcpState::CloseWait => {}
            _ => return Err(SocketError::InvalidState),
        }
        if self.fin_queued {
            return Err(SocketError::InvalidState);
        }
        for part in parts {
            let part = part.into();
            if !part.is_empty() {
                self.queued += part.len();
                self.send_q.push_back(part);
            }
        }
        self.drain_watch = true;
        self.try_send(io);
        Ok(())
    }

    /// Attempts to move queued data (and a queued FIN) onto the wire,
    /// respecting MSS and the send window.
    fn try_send(&mut self, io: &mut TcpIo<'_>) {
        if !matches!(
            self.state,
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::Closing
                | TcpState::LastAck
        ) {
            return;
        }
        let budget = seq_width(io.cfg.send_window).min(self.peer_wnd.max(1));
        let mut sent_any = false;
        while self.queued > 0 && self.flight_size() < budget {
            let room = (budget - self.flight_size()) as usize;
            let n = self.queued.min(MSS).min(room);
            let data = self.carve(n);
            let seg = TcpSegment {
                flags: TcpFlags::ACK,
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                window: u16::MAX,
                payload: data.clone(),
            };
            io.out.push(Packet::tcp(self.local, self.remote, seg));
            self.inflight.push_back(Inflight {
                seq: self.snd_nxt,
                data,
                fin: false,
            });
            self.snd_nxt = self.snd_nxt.wrapping_add(seq_width(n));
            sent_any = true;
        }
        if self.queued == 0
            && self.fin_queued
            && !self.fin_sent
            && self.flight_size() < budget.max(1)
        {
            let seg =
                TcpSegment::control(TcpFlags::FIN | TcpFlags::ACK, self.snd_nxt, self.rcv_nxt);
            io.out.push(Packet::tcp(self.local, self.remote, seg));
            self.inflight.push_back(Inflight {
                seq: self.snd_nxt,
                data: Bytes::new(),
                fin: true,
            });
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.fin_sent = true;
            sent_any = true;
        }
        if sent_any {
            self.arm_rto(io);
        }
    }

    /// Takes the next `n` queued bytes (`0 < n <= queued`): a slice of
    /// the front buffer, or one copy where they straddle buffers.
    fn carve(&mut self, n: usize) -> Bytes {
        self.queued -= n;
        if let Some(front) = self.send_q.front_mut() {
            if front.len() > n {
                return front.split_to(n);
            }
            if front.len() == n {
                return self.send_q.pop_front().unwrap_or_default();
            }
        }
        let mut buf = BytesMut::with_capacity(n);
        while buf.len() < n {
            let Some(front) = self.send_q.front_mut() else {
                break;
            };
            buf.extend_from_slice(&front.split_to(front.len().min(n - buf.len())));
            if front.is_empty() {
                self.send_q.pop_front();
            }
        }
        buf.freeze()
    }

    /// Initiates a graceful close. Returns `true` if the TCB should be
    /// deleted immediately (close before any handshake completion).
    pub fn close(&mut self, io: &mut TcpIo<'_>) -> bool {
        match self.state {
            TcpState::SynSent => true,
            TcpState::SynReceived | TcpState::Established => {
                self.state = TcpState::FinWait1;
                self.fin_queued = true;
                self.try_send(io);
                false
            }
            TcpState::CloseWait => {
                self.state = TcpState::LastAck;
                self.fin_queued = true;
                self.try_send(io);
                false
            }
            // Already closing; idempotent.
            _ => false,
        }
    }

    /// Aborts the connection with a RST. The TCB must be deleted.
    pub fn abort(&mut self, io: &mut TcpIo<'_>) {
        if !matches!(self.state, TcpState::SynSent | TcpState::TimeWait) {
            self.emit_rst(io);
        }
        self.cancel_timer();
    }

    /// Handles a retransmission timeout.
    pub fn on_rto(&mut self, io: &mut TcpIo<'_>) -> TcbOutcome {
        io.stats.rto_fires += 1;
        self.retries += 1;
        let max = match self.state {
            TcpState::SynSent | TcpState::SynReceived => SYN_RETRIES,
            _ => io.cfg.data_retries,
        };
        if self.retries > max {
            self.cancel_timer();
            return match self.state {
                TcpState::SynSent | TcpState::SynReceived => {
                    TcbOutcome::deleted(Some(SocketError::TimedOut))
                }
                _ => {
                    io.events.push(SockEvent::TcpAborted {
                        sock: self.id,
                        err: SocketError::TimedOut,
                    });
                    TcbOutcome::deleted(None)
                }
            };
        }
        match self.state {
            TcpState::SynSent => {
                let seg = TcpSegment::control(TcpFlags::SYN, self.iss, 0);
                io.stats.retransmits += 1;
                io.out.push(Packet::tcp(self.local, self.remote, seg));
            }
            TcpState::SynReceived => {
                io.stats.retransmits += 1;
                self.emit_synack(io);
            }
            // Go-back-N: resend the earliest unacknowledged segment.
            _ => self.retransmit_front(io),
        }
        self.rto_cur = (self.rto_cur * 2).min(RTO_MAX);
        self.arm_rto(io);
        TcbOutcome::default()
    }

    /// Handles TIME-WAIT expiry.
    pub fn on_time_wait(&mut self) -> TcbOutcome {
        debug_assert_eq!(self.state, TcpState::TimeWait);
        TcbOutcome::deleted(None)
    }

    /// Handles an inbound ICMP destination-unreachable for this
    /// connection.
    pub fn on_icmp_unreachable(&mut self) -> TcbOutcome {
        match self.state {
            // A connect in progress fails hard (§4.2 step 4 retries at the
            // application level).
            TcpState::SynSent | TcpState::SynReceived => {
                self.cancel_timer();
                TcbOutcome::deleted(Some(SocketError::HostUnreachable))
            }
            // RFC 1122: soft error once established; ignore.
            _ => TcbOutcome::default(),
        }
    }

    /// Handles an inbound segment addressed to this connection.
    pub fn on_segment(&mut self, seg: &TcpSegment, io: &mut TcpIo<'_>) -> TcbOutcome {
        match self.state {
            TcpState::SynSent => self.segment_in_syn_sent(seg, io),
            TcpState::SynReceived => self.segment_in_syn_received(seg, io),
            _ => self.segment_in_synchronized(seg, io),
        }
    }

    fn segment_in_syn_sent(&mut self, seg: &TcpSegment, io: &mut TcpIo<'_>) -> TcbOutcome {
        let ack_ok = seg.flags.contains(TcpFlags::ACK) && seg.ack == self.iss.wrapping_add(1);
        if seg.flags.contains(TcpFlags::ACK) && !ack_ok {
            // Unacceptable ACK: RST it (unless it is itself a RST) and stay.
            if !seg.flags.contains(TcpFlags::RST) {
                let rst = TcpSegment::control(TcpFlags::RST, seg.ack, 0);
                io.out.push(Packet::tcp(self.local, self.remote, rst));
            }
            return TcbOutcome::default();
        }
        if seg.flags.contains(TcpFlags::RST) {
            // A RST in SYN-SENT is only acceptable with an acceptable ACK
            // (otherwise it could be stale); without ACK we ignore it.
            if ack_ok {
                self.cancel_timer();
                return TcbOutcome::deleted(Some(SocketError::ConnectionRefused));
            }
            return TcbOutcome::default();
        }
        if seg.flags.contains(TcpFlags::SYN) {
            self.irs = seg.seq;
            self.rcv_nxt = seg.seq.wrapping_add(1);
            self.peer_wnd = u32::from(seg.window);
            if ack_ok {
                // Normal three-way handshake completion.
                self.snd_una = seg.ack;
                self.state = TcpState::Established;
                self.cancel_timer();
                self.emit_ack(io);
                self.try_send(io);
                return TcbOutcome {
                    became_established: true,
                    ..TcbOutcome::default()
                };
            }
            // Simultaneous open (§4.4): raw SYN while waiting for SYN-ACK.
            // Reply with a SYN-ACK whose SYN part replays our original SYN.
            self.state = TcpState::SynReceived;
            self.retries = 0;
            self.rto_cur = io.cfg.rto_initial;
            self.emit_synack(io);
            self.arm_rto(io);
        }
        TcbOutcome::default()
    }

    fn segment_in_syn_received(&mut self, seg: &TcpSegment, io: &mut TcpIo<'_>) -> TcbOutcome {
        if seg.flags.contains(TcpFlags::RST) {
            if !self.rst_acceptable(seg, io) {
                return TcbOutcome::default();
            }
            io.stats.rsts_accepted += 1;
            self.cancel_timer();
            return TcbOutcome::deleted(Some(SocketError::ConnectionReset));
        }
        if seg.flags.contains(TcpFlags::SYN) && !seg.flags.contains(TcpFlags::ACK) {
            // Duplicate SYN from the peer: re-answer.
            self.emit_synack(io);
            return TcbOutcome::default();
        }
        if seg.flags.contains(TcpFlags::ACK) {
            if seg.ack == self.iss.wrapping_add(1) {
                self.snd_una = seg.ack;
                self.peer_wnd = u32::from(seg.window);
                self.state = TcpState::Established;
                self.cancel_timer();
                // A SYN-ACK here means both sides replayed (simultaneous
                // open on both ends); acknowledge it.
                if seg.flags.contains(TcpFlags::SYN) {
                    self.emit_ack(io);
                }
                let mut outcome = TcbOutcome {
                    became_established: true,
                    ..TcbOutcome::default()
                };
                // The establishing segment may carry data.
                if !seg.flags.contains(TcpFlags::SYN) {
                    self.process_payload(seg, io, &mut outcome);
                }
                self.try_send(io);
                return outcome;
            }
            // ACK of something we never sent.
            let rst = TcpSegment::control(TcpFlags::RST, seg.ack, 0);
            io.out.push(Packet::tcp(self.local, self.remote, rst));
        }
        TcbOutcome::default()
    }

    /// RFC 5961 §3.2 gate: with validation off every RST is acceptable
    /// (classic RFC 793); with it on, only an exact `rcv_nxt` match is.
    /// An in-window near-miss draws a challenge ACK — a genuine peer
    /// whose connection is really dead answers that with an exact-match
    /// RST — and anything else is dropped silently. Off-path injectors
    /// must now guess the exact 32-bit sequence, not merely land in the
    /// receive window.
    fn rst_acceptable(&mut self, seg: &TcpSegment, io: &mut TcpIo<'_>) -> bool {
        if !io.cfg.rst_validation || seg.seq == self.rcv_nxt {
            return true;
        }
        io.stats.rsts_rejected += 1;
        let in_window = seq::le(self.rcv_nxt, seg.seq)
            && seq::lt(seg.seq, self.rcv_nxt.wrapping_add(u32::from(u16::MAX)));
        if in_window {
            self.emit_ack(io);
        }
        false
    }

    fn segment_in_synchronized(&mut self, seg: &TcpSegment, io: &mut TcpIo<'_>) -> TcbOutcome {
        if seg.flags.contains(TcpFlags::RST) {
            if !self.rst_acceptable(seg, io) {
                return TcbOutcome::default();
            }
            io.stats.rsts_accepted += 1;
            self.cancel_timer();
            if self.state != TcpState::TimeWait {
                io.events.push(SockEvent::TcpAborted {
                    sock: self.id,
                    err: SocketError::ConnectionReset,
                });
            }
            return TcbOutcome::deleted(None);
        }
        if seg.flags.contains(TcpFlags::SYN) {
            // Retransmitted SYN or SYN-ACK (our ACK was lost): re-ACK.
            self.emit_ack(io);
            return TcbOutcome::default();
        }
        let mut outcome = TcbOutcome::default();
        if seg.flags.contains(TcpFlags::ACK) {
            self.process_ack(seg.ack, seg.window, io, &mut outcome);
            if outcome.delete {
                return outcome;
            }
        }
        self.process_payload(seg, io, &mut outcome);
        outcome
    }

    /// Retransmits the earliest unacknowledged segment immediately.
    fn retransmit_front(&mut self, io: &mut TcpIo<'_>) {
        if let Some(front) = self.inflight.front() {
            let flags = if front.fin {
                TcpFlags::FIN | TcpFlags::ACK
            } else {
                TcpFlags::ACK
            };
            let seg = TcpSegment {
                flags,
                seq: front.seq,
                ack: self.rcv_nxt,
                window: u16::MAX,
                payload: front.data.clone(),
            };
            io.stats.retransmits += 1;
            io.out.push(Packet::tcp(self.local, self.remote, seg));
        }
    }

    fn process_ack(&mut self, ack: u32, window: u16, io: &mut TcpIo<'_>, outcome: &mut TcbOutcome) {
        if seq::gt(ack, self.snd_nxt) {
            // Acks data we have not sent: re-synchronize.
            self.emit_ack(io);
            return;
        }
        self.peer_wnd = u32::from(window);
        if ack == self.snd_una && !self.inflight.is_empty() {
            // Duplicate ACK; the third triggers fast retransmit
            // (RFC 5681-style, sans congestion window bookkeeping).
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                self.retransmit_front(io);
                self.arm_rto(io);
                // Reno: restart the count so a later loss in the same
                // window can fast-retransmit again instead of stalling
                // until the full RTO.
                self.dup_acks = 0;
            }
        }
        if seq::gt(ack, self.snd_una) {
            self.dup_acks = 0;
            self.snd_una = ack;
            while let Some(front) = self.inflight.front() {
                if seq::le(front.seq.wrapping_add(front.seq_len()), ack) {
                    self.inflight.pop_front();
                } else {
                    break;
                }
            }
            // Partial ack of the front segment: trim the acked prefix.
            if let Some(front) = self.inflight.front_mut() {
                if seq::lt(front.seq, ack) {
                    let eaten = ack.wrapping_sub(front.seq) as usize;
                    front.data = front.data.slice(eaten..);
                    front.seq = ack;
                }
            }
            self.retries = 0;
            self.rto_cur = io.cfg.rto_initial;
            if self.inflight.is_empty() {
                self.cancel_timer();
            } else {
                self.arm_rto(io);
            }
            self.try_send(io);
            if self.fin_sent && self.snd_una == self.snd_nxt {
                // Our FIN is acknowledged.
                match self.state {
                    TcpState::FinWait1 => self.state = TcpState::FinWait2,
                    TcpState::Closing => {
                        self.state = TcpState::TimeWait;
                        self.arm_time_wait(io);
                    }
                    TcpState::LastAck => {
                        outcome.delete = true;
                        return;
                    }
                    _ => {}
                }
            }
            if self.drain_watch && self.queued == 0 && self.inflight.front().is_none_or(|s| s.fin) {
                self.drain_watch = false;
                io.events.push(SockEvent::TcpSendDrained { sock: self.id });
            }
        }
    }

    fn process_payload(&mut self, seg: &TcpSegment, io: &mut TcpIo<'_>, _outcome: &mut TcbOutcome) {
        let payload_len = seq_width(seg.payload.len());
        let has_fin = seg.flags.contains(TcpFlags::FIN);
        if payload_len == 0 && !has_fin {
            return;
        }
        let mut seq_start = seg.seq;
        let mut data = seg.payload.clone();
        // Trim any prefix we have already received.
        if seq::lt(seq_start, self.rcv_nxt) {
            let skip = self.rcv_nxt.wrapping_sub(seq_start);
            if skip >= payload_len + u32::from(has_fin) {
                // Entirely old: re-ACK so the peer advances.
                self.emit_ack(io);
                return;
            }
            let skip_bytes = (skip as usize).min(data.len());
            data = data.slice(skip_bytes..);
            seq_start = seq_start.wrapping_add(seq_width(skip_bytes));
        }
        if seq_start != self.rcv_nxt {
            // Out of order (future): we keep no reassembly queue; a
            // duplicate ACK triggers go-back-N at the sender.
            self.emit_ack(io);
            return;
        }
        if !data.is_empty() {
            self.rcv_nxt = self.rcv_nxt.wrapping_add(seq_width(data.len()));
            io.events.push(SockEvent::TcpReceived {
                sock: self.id,
                data,
            });
        }
        if has_fin {
            self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
            io.events.push(SockEvent::TcpPeerClosed { sock: self.id });
            match self.state {
                TcpState::Established => self.state = TcpState::CloseWait,
                TcpState::FinWait1 => {
                    // Our FIN not yet acked: simultaneous close.
                    if self.fin_sent && self.snd_una == self.snd_nxt {
                        self.state = TcpState::TimeWait;
                        self.arm_time_wait(io);
                    } else {
                        self.state = TcpState::Closing;
                    }
                }
                TcpState::FinWait2 => {
                    self.state = TcpState::TimeWait;
                    self.arm_time_wait(io);
                }
                TcpState::TimeWait => {
                    // Retransmitted FIN: restart the 2MSL timer.
                    self.arm_time_wait(io);
                }
                _ => {}
            }
        }
        self.emit_ack(io);
    }
}

#[cfg(test)]
#[expect(clippy::cast_possible_truncation, reason = "test streams are a few KiB, so their byte offsets fit sequence space")]
mod tests {
    use super::*;
    use punch_net::Body;

    /// The segment a packet carries, if it is TCP.
    fn tcp_of(p: &Packet) -> Option<&TcpSegment> {
        match &p.body {
            Body::Tcp(seg) => Some(seg),
            _ => None,
        }
    }

    fn cfg() -> StackConfig {
        StackConfig::default()
    }

    struct Harness {
        cfg: StackConfig,
        out: Vec<Packet>,
        events: Vec<SockEvent>,
        timers: Vec<(Duration, u64)>,
        stats: StackStats,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                cfg: cfg(),
                out: Vec::new(),
                events: Vec::new(),
                timers: Vec::new(),
                stats: StackStats::default(),
            }
        }

        fn io(&mut self) -> TcpIo<'_> {
            TcpIo {
                cfg: &self.cfg,
                out: &mut self.out,
                events: &mut self.events,
                timers: &mut self.timers,
                stats: &mut self.stats,
            }
        }

        fn last_seg(&self) -> &TcpSegment {
            tcp_of(self.out.last().expect("no packet emitted")).expect("not tcp")
        }
    }

    fn ep(s: &str) -> Endpoint {
        s.parse().unwrap()
    }

    fn active() -> (Harness, Tcb) {
        let mut h = Harness::new();
        let mut tcb = Tcb::open_active(
            SocketId(1),
            ep("10.0.0.1:4321"),
            ep("9.9.9.9:80"),
            1000,
            false,
            &h.cfg,
        );
        tcb.send_syn(&mut h.io());
        (h, tcb)
    }

    #[test]
    fn active_open_emits_syn() {
        let (h, tcb) = active();
        assert_eq!(tcb.state, TcpState::SynSent);
        let seg = h.last_seg();
        assert_eq!(seg.flags, TcpFlags::SYN);
        assert_eq!(seg.seq, 1000);
        assert_eq!(h.timers.len(), 1);
    }

    #[test]
    fn three_way_handshake_client_side() {
        let (mut h, mut tcb) = active();
        let synack = TcpSegment::control(TcpFlags::SYN | TcpFlags::ACK, 5000, 1001);
        let outcome = tcb.on_segment(&synack, &mut h.io());
        assert!(outcome.became_established);
        assert_eq!(tcb.state, TcpState::Established);
        let ack = h.last_seg();
        assert_eq!(ack.flags, TcpFlags::ACK);
        assert_eq!(ack.seq, 1001);
        assert_eq!(ack.ack, 5001);
    }

    #[test]
    fn simultaneous_open_replays_syn_in_synack() {
        let (mut h, mut tcb) = active();
        // Raw SYN (no ACK) arrives while in SYN-SENT.
        let syn = TcpSegment::control(TcpFlags::SYN, 7000, 0);
        let outcome = tcb.on_segment(&syn, &mut h.io());
        assert!(!outcome.became_established);
        assert_eq!(tcb.state, TcpState::SynReceived);
        let synack = h.last_seg();
        assert!(synack.flags.contains(TcpFlags::SYN | TcpFlags::ACK));
        // The SYN part replays the original ISS.
        assert_eq!(synack.seq, 1000);
        assert_eq!(synack.ack, 7001);

        // Peer's SYN-ACK (it too replays) completes the handshake.
        let peer_synack = TcpSegment::control(TcpFlags::SYN | TcpFlags::ACK, 7000, 1001);
        let outcome = tcb.on_segment(&peer_synack, &mut h.io());
        assert!(outcome.became_established);
        assert_eq!(tcb.state, TcpState::Established);
        assert_eq!(h.last_seg().flags, TcpFlags::ACK);
    }

    #[test]
    fn rst_with_acceptable_ack_refuses_connect() {
        let (mut h, mut tcb) = active();
        let rst = TcpSegment::control(TcpFlags::RST | TcpFlags::ACK, 0, 1001);
        let outcome = tcb.on_segment(&rst, &mut h.io());
        assert!(outcome.delete);
        assert_eq!(outcome.failed, Some(SocketError::ConnectionRefused));
    }

    #[test]
    fn stale_rst_without_ack_is_ignored_in_syn_sent() {
        let (mut h, mut tcb) = active();
        let rst = TcpSegment::control(TcpFlags::RST, 0, 0);
        let outcome = tcb.on_segment(&rst, &mut h.io());
        assert!(!outcome.delete);
        assert_eq!(tcb.state, TcpState::SynSent);
    }

    #[test]
    fn unacceptable_ack_in_syn_sent_gets_rst() {
        let (mut h, mut tcb) = active();
        let bad = TcpSegment::control(TcpFlags::ACK, 0, 999);
        let before = h.out.len();
        tcb.on_segment(&bad, &mut h.io());
        assert_eq!(tcb.state, TcpState::SynSent);
        let rst = tcp_of(&h.out[before]).unwrap();
        assert!(rst.flags.contains(TcpFlags::RST));
        assert_eq!(rst.seq, 999);
    }

    #[test]
    fn syn_retransmission_and_timeout() {
        let (mut h, mut tcb) = active();
        for i in 0..SYN_RETRIES {
            let outcome = tcb.on_rto(&mut h.io());
            assert!(!outcome.delete, "retry {i} should not delete");
            assert_eq!(h.last_seg().flags, TcpFlags::SYN);
        }
        let outcome = tcb.on_rto(&mut h.io());
        assert!(outcome.delete);
        assert_eq!(outcome.failed, Some(SocketError::TimedOut));
    }

    #[test]
    fn rto_backoff_doubles_and_caps() {
        let mut h = Harness::new();
        h.cfg.rto_initial = Duration::from_secs(16);
        let (local, remote) = (ep("10.0.0.1:4321"), ep("9.9.9.9:80"));
        let mut tcb = Tcb::open_active(SocketId(1), local, remote, 1000, false, &h.cfg);
        tcb.send_syn(&mut h.io());
        let mut delays = Vec::new();
        for _ in 0..4 {
            h.timers.clear();
            tcb.on_rto(&mut h.io());
            delays.push(h.timers[0].0.as_secs());
        }
        assert_eq!(delays, [32, 60, 60, 60]);
    }

    fn established_pair() -> (Harness, Tcb) {
        let (mut h, mut tcb) = active();
        let synack = TcpSegment::control(TcpFlags::SYN | TcpFlags::ACK, 5000, 1001);
        tcb.on_segment(&synack, &mut h.io());
        h.out.clear();
        h.events.clear();
        (h, tcb)
    }

    #[test]
    fn data_transfer_and_ack() {
        let (mut h, mut tcb) = established_pair();
        tcb.send([b"hello"], &mut h.io()).unwrap();
        let seg = h.last_seg().clone();
        assert_eq!(seg.seq, 1001);
        assert_eq!(seg.payload.as_ref(), b"hello");

        // Receive the ACK; the send-drained event fires.
        let ack = TcpSegment::control(TcpFlags::ACK, 5001, 1006);
        tcb.on_segment(&ack, &mut h.io());
        assert!(h
            .events
            .contains(&SockEvent::TcpSendDrained { sock: SocketId(1) }));
    }

    #[test]
    fn mss_segmentation() {
        let (mut h, mut tcb) = established_pair();
        let data = vec![7u8; 3000];
        tcb.send([data], &mut h.io()).unwrap();
        let lens: Vec<usize> = h
            .out
            .iter()
            .map(|p| tcp_of(p).unwrap().payload.len())
            .collect();
        assert_eq!(lens, vec![1400, 1400, 200]);
    }

    #[test]
    fn send_window_limits_flight() {
        let (mut h, mut tcb) = established_pair();
        h.cfg.send_window = 2800;
        let data = vec![7u8; 10_000];
        tcb.send([data], &mut h.io()).unwrap();
        assert_eq!(h.out.len(), 2, "only two MSS fit the window");
        // Ack the first segment; one more flows.
        let n_before = h.out.len();
        let ack = TcpSegment::control(TcpFlags::ACK, 5001, 1001 + 1400);
        tcb.on_segment(&ack, &mut h.io());
        assert_eq!(h.out.len(), n_before + 1);
    }

    /// The data segments `h` emitted since the last drain, as
    /// `(seq, payload)`.
    fn data_segments(h: &mut Harness) -> Vec<(u32, Vec<u8>)> {
        h.out
            .drain(..)
            .filter_map(|p| {
                let seg = tcp_of(&p)?;
                (!seg.payload.is_empty()).then(|| (seg.seq, seg.payload.to_vec()))
            })
            .collect()
    }

    /// Does stream range `[start, end)` cross the end of a write?
    fn straddles(write_ends: &[usize], start: usize, end: usize) -> bool {
        write_ends.iter().any(|&b| start < b && b < end)
    }

    /// `n` stream bytes, continuing `byte`'s sequence.
    fn write_of(n: usize, byte: &mut u8) -> Vec<u8> {
        (0..n)
            .map(|_| {
                *byte = byte.wrapping_mul(31).wrapping_add(7);
                *byte
            })
            .collect()
    }

    /// Queues `write` as one `Bytes` the TCB slices segments from (`mode`
    /// 0), as a `&[u8]` it copies first (1), or as two parts the way a
    /// frame goes: a head of at most six bytes, then the rest (2).
    fn send_as(mode: usize, tcb: &mut Tcb, write: Vec<u8>, h: &mut Harness) {
        let sent = match mode {
            0 => tcb.send([Bytes::from(write)], &mut h.io()),
            1 => tcb.send([&write[..]], &mut h.io()),
            _ => {
                let mut tail = Bytes::from(write);
                let head = tail.split_to(tail.len().min(6));
                tcb.send([head, tail], &mut h.io())
            }
        };
        sent.unwrap();
    }

    /// Feeds `sizes` as separate writes, acking cumulatively `acks[i]`
    /// more bytes after write `i`, and checks that the data segments on
    /// the wire are exactly what "concatenate every write, cut at
    /// `min(queued, mss, window room)`" produces over a flat copy of the
    /// stream. Returns whether some segment straddled two writes.
    fn segments_match_flat_reference(sizes: &[usize], acks: &[usize], window: usize) -> bool {
        let (mut h, mut tcb) = established_pair();
        h.cfg.send_window = window;
        let mss = MSS;

        // The reference: one flat stream and two cursors.
        let mut stream: Vec<u8> = Vec::new();
        let mut write_ends: Vec<usize> = Vec::new();
        let (mut sent, mut acked) = (0usize, 0usize);
        let mut straddled = false;
        let mut check =
            |h: &mut Harness, sent: &mut usize, acked: usize, stream: &[u8], ends: &[usize]| {
                let mut expected = Vec::new();
                while *sent < stream.len() && *sent - acked < window {
                    let n = (stream.len() - *sent)
                        .min(mss)
                        .min(window - (*sent - acked));
                    expected.push((1001 + *sent as u32, stream[*sent..*sent + n].to_vec()));
                    straddled |= straddles(ends, *sent, *sent + n);
                    *sent += n;
                }
                assert_eq!(data_segments(h), expected, "writes {sizes:?}");
            };

        let mut byte = 0u8;
        for (i, &size) in sizes.iter().enumerate() {
            let write = write_of(size, &mut byte);
            stream.extend_from_slice(&write);
            write_ends.push(stream.len());
            send_as(i % 3, &mut tcb, write, &mut h);
            check(&mut h, &mut sent, acked, &stream, &write_ends);

            // A step of 0 sends no ACK: a repeated one is a duplicate.
            if acks[i % acks.len()] > 0 {
                acked = (acked + acks[i % acks.len()]).min(sent);
                let ack = TcpSegment::control(TcpFlags::ACK, 5001, 1001 + acked as u32);
                tcb.on_segment(&ack, &mut h.io());
                check(&mut h, &mut sent, acked, &stream, &write_ends);
            }
        }
        // Drain: ACK everything in flight until the whole stream is out.
        while acked < stream.len() {
            acked = sent;
            let ack = TcpSegment::control(TcpFlags::ACK, 5001, 1001 + acked as u32);
            tcb.on_segment(&ack, &mut h.io());
            check(&mut h, &mut sent, acked, &stream, &write_ends);
        }
        assert_eq!(sent, stream.len());
        assert!(h
            .events
            .contains(&SockEvent::TcpSendDrained { sock: SocketId(1) }));
        straddled
    }

    /// Segmentation golden: whatever the write sizes and however ACKs
    /// open the window, the segments are the flat stream's.
    #[test]
    fn segmentation_matches_flat_stream_reference() {
        const SIZES: [usize; 9] = [0, 1, 63, 64, 65, 1399, 1400, 1401, 8194];
        // Cumulative-ACK steps taken after each write: whole segments
        // and partial ones (700 lands inside a 1400 B segment).
        const ACKS: [usize; 5] = [700, 1400, 2100, 65, 4200];
        let sizes: Vec<usize> = SIZES
            .iter()
            .cycle()
            .take(4 * SIZES.len())
            .copied()
            .collect();
        assert!(
            segments_match_flat_reference(&sizes, &ACKS, 4096),
            "no segment straddled two writes; the test lost its point"
        );
        // Every three writes around one and two MSS, acked as they go or
        // only once all three are queued behind a one-MSS window: segments
        // that end one byte before, at, and one byte after a write's end.
        const EDGES: [usize; 11] = [1, 2, 699, 700, 701, 1399, 1400, 1401, 2799, 2800, 2801];
        for a in EDGES {
            for b in EDGES {
                for c in EDGES {
                    segments_match_flat_reference(&[a, b, c], &[700, 1400, 65], 2800);
                    segments_match_flat_reference(&[a, b, c], &[0], 1400);
                }
            }
        }
    }

    /// Go-back-N over queued writes: whatever an RTO resends — a whole
    /// segment, one that straddled two writes, or the unacked tail of a
    /// partly acked one — is byte-identical to what first went out at
    /// those sequence numbers.
    #[test]
    fn retransmissions_repeat_the_original_bytes() {
        let (mut h, mut tcb) = established_pair();
        h.cfg.send_window = 2000;
        let mut byte = 0u8;
        let (mut stream, mut write_ends) = (Vec::new(), Vec::new());
        let mut originals = Vec::new();
        for (i, size) in [700, 2000, 65, 1401].into_iter().enumerate() {
            let write = write_of(size, &mut byte);
            stream.extend_from_slice(&write);
            write_ends.push(stream.len());
            send_as(i % 3, &mut tcb, write, &mut h);
            originals.extend(data_segments(&mut h));
        }
        let mut straddled = false;
        for acked in [0usize, 300, 700, 1500, 2700, 3000, 4000] {
            if acked > 0 {
                let ack = TcpSegment::control(TcpFlags::ACK, 5001, 1001 + acked as u32);
                tcb.on_segment(&ack, &mut h.io());
                originals.extend(data_segments(&mut h));
            }
            tcb.on_rto(&mut h.io());
            let resent = data_segments(&mut h);
            let (seq, payload) = resent.last().expect("an RTO resends the front");
            assert_eq!(resent.len(), 1);
            assert_eq!(
                *seq,
                1001 + acked as u32,
                "go-back-N resends the earliest unacked byte"
            );
            let (first_seq, first) = originals
                .iter()
                .find(|(s, p)| {
                    (s - 1001) as usize <= acked && acked < (s - 1001) as usize + p.len()
                })
                .expect("the resent byte went out once before");
            let skip = acked - (first_seq - 1001) as usize;
            assert_eq!(
                payload[..],
                first[skip..],
                "resent bytes differ from the original at {acked}"
            );
            assert_eq!(payload[..], stream[acked..acked + payload.len()]);
            straddled |= straddles(&write_ends, acked, acked + payload.len());
        }
        assert!(straddled, "no retransmission straddled two writes");
    }

    #[test]
    fn receive_in_order_data() {
        let (mut h, mut tcb) = established_pair();
        let seg = TcpSegment {
            flags: TcpFlags::ACK,
            seq: 5001,
            ack: 1001,
            window: u16::MAX,
            payload: Bytes::from_static(b"abc"),
        };
        tcb.on_segment(&seg, &mut h.io());
        assert!(matches!(
            &h.events[0],
            SockEvent::TcpReceived { data, .. } if data.as_ref() == b"abc"
        ));
        assert_eq!(h.last_seg().ack, 5004);
    }

    #[test]
    fn duplicate_data_is_reacked_not_redelivered() {
        let (mut h, mut tcb) = established_pair();
        let seg = TcpSegment {
            flags: TcpFlags::ACK,
            seq: 5001,
            ack: 1001,
            window: u16::MAX,
            payload: Bytes::from_static(b"abc"),
        };
        tcb.on_segment(&seg, &mut h.io());
        h.events.clear();
        tcb.on_segment(&seg, &mut h.io());
        assert!(h.events.is_empty(), "no duplicate delivery");
        assert_eq!(h.last_seg().ack, 5004);
    }

    #[test]
    fn partially_old_segment_is_trimmed() {
        let (mut h, mut tcb) = established_pair();
        let s1 = TcpSegment {
            flags: TcpFlags::ACK,
            seq: 5001,
            ack: 1001,
            window: u16::MAX,
            payload: Bytes::from_static(b"ab"),
        };
        tcb.on_segment(&s1, &mut h.io());
        h.events.clear();
        // Overlapping retransmission covering old + new bytes.
        let s2 = TcpSegment {
            flags: TcpFlags::ACK,
            seq: 5001,
            ack: 1001,
            window: u16::MAX,
            payload: Bytes::from_static(b"abcd"),
        };
        tcb.on_segment(&s2, &mut h.io());
        assert!(matches!(
            &h.events[0],
            SockEvent::TcpReceived { data, .. } if data.as_ref() == b"cd"
        ));
    }

    #[test]
    fn out_of_order_segment_triggers_dup_ack() {
        let (mut h, mut tcb) = established_pair();
        let future = TcpSegment {
            flags: TcpFlags::ACK,
            seq: 6001,
            ack: 1001,
            window: u16::MAX,
            payload: Bytes::from_static(b"zz"),
        };
        tcb.on_segment(&future, &mut h.io());
        assert!(h.events.is_empty());
        assert_eq!(h.last_seg().ack, 5001, "dup ack re-asserts rcv_nxt");
    }

    #[test]
    fn graceful_close_both_directions() {
        let (mut h, mut tcb) = established_pair();
        assert!(!tcb.close(&mut h.io()));
        assert_eq!(tcb.state, TcpState::FinWait1);
        assert!(h.last_seg().flags.contains(TcpFlags::FIN));

        // Peer acks our FIN.
        let ack = TcpSegment::control(TcpFlags::ACK, 5001, 1002);
        tcb.on_segment(&ack, &mut h.io());
        assert_eq!(tcb.state, TcpState::FinWait2);

        // Peer's FIN arrives.
        let fin = TcpSegment::control(TcpFlags::FIN | TcpFlags::ACK, 5001, 1002);
        tcb.on_segment(&fin, &mut h.io());
        assert_eq!(tcb.state, TcpState::TimeWait);
        assert!(h
            .events
            .contains(&SockEvent::TcpPeerClosed { sock: SocketId(1) }));
        // TIME-WAIT expiry deletes.
        assert!(tcb.on_time_wait().delete);
    }

    #[test]
    fn passive_close() {
        let (mut h, mut tcb) = established_pair();
        let fin = TcpSegment::control(TcpFlags::FIN | TcpFlags::ACK, 5001, 1001);
        tcb.on_segment(&fin, &mut h.io());
        assert_eq!(tcb.state, TcpState::CloseWait);
        assert!(!tcb.close(&mut h.io()));
        assert_eq!(tcb.state, TcpState::LastAck);
        // Final ACK deletes the TCB.
        let ack = TcpSegment::control(TcpFlags::ACK, 5002, 1002);
        let outcome = tcb.on_segment(&ack, &mut h.io());
        assert!(outcome.delete);
    }

    #[test]
    fn simultaneous_close() {
        let (mut h, mut tcb) = established_pair();
        tcb.close(&mut h.io());
        assert_eq!(tcb.state, TcpState::FinWait1);
        // Peer's FIN arrives before the ACK of ours.
        let fin = TcpSegment::control(TcpFlags::FIN | TcpFlags::ACK, 5001, 1001);
        tcb.on_segment(&fin, &mut h.io());
        assert_eq!(tcb.state, TcpState::Closing);
        // Now the ACK of our FIN.
        let ack = TcpSegment::control(TcpFlags::ACK, 5002, 1002);
        tcb.on_segment(&ack, &mut h.io());
        assert_eq!(tcb.state, TcpState::TimeWait);
    }

    #[test]
    fn rst_in_established_aborts() {
        let (mut h, mut tcb) = established_pair();
        let rst = TcpSegment::control(TcpFlags::RST, 5001, 0);
        let outcome = tcb.on_segment(&rst, &mut h.io());
        assert!(outcome.delete);
        assert!(h.events.contains(&SockEvent::TcpAborted {
            sock: SocketId(1),
            err: SocketError::ConnectionReset
        }));
        assert_eq!(h.stats.rsts_accepted, 1);
        assert_eq!(h.stats.rsts_rejected, 0);
    }

    #[test]
    fn rst_with_any_seq_kills_unvalidated_connection() {
        // The attack baseline: classic RFC 793 accepts a RST regardless
        // of its sequence number, so a blind injector wins every time.
        let (mut h, mut tcb) = established_pair();
        let rst = TcpSegment::control(TcpFlags::RST, 0xdead_beef, 0);
        let outcome = tcb.on_segment(&rst, &mut h.io());
        assert!(outcome.delete);
        assert_eq!(h.stats.rsts_accepted, 1);
    }

    #[test]
    fn rst_validation_rejects_out_of_window_silently() {
        let (mut h, mut tcb) = established_pair();
        h.cfg.rst_validation = true;
        // rcv_nxt is 5001; an out-of-window guess is dropped without a
        // challenge (no feedback to the attacker).
        let rst = TcpSegment::control(TcpFlags::RST, 5001 + 100_000, 0);
        let n = h.out.len();
        let outcome = tcb.on_segment(&rst, &mut h.io());
        assert!(!outcome.delete);
        assert_eq!(tcb.state, TcpState::Established);
        assert_eq!(h.out.len(), n, "no challenge for out-of-window");
        assert_eq!(h.stats.rsts_rejected, 1);
        assert_eq!(h.stats.rsts_accepted, 0);
    }

    #[test]
    fn rst_validation_challenges_in_window_near_miss() {
        let (mut h, mut tcb) = established_pair();
        h.cfg.rst_validation = true;
        let rst = TcpSegment::control(TcpFlags::RST, 5001 + 10, 0);
        let outcome = tcb.on_segment(&rst, &mut h.io());
        assert!(!outcome.delete, "in-window but inexact: survive");
        let challenge = h.last_seg();
        assert_eq!(challenge.flags, TcpFlags::ACK);
        assert_eq!(challenge.ack, 5001, "challenge ACK re-asserts rcv_nxt");
        assert_eq!(h.stats.rsts_rejected, 1);
        // A genuine peer answers the challenge with an exact-match RST,
        // which is accepted.
        let exact = TcpSegment::control(TcpFlags::RST, 5001, 0);
        let outcome = tcb.on_segment(&exact, &mut h.io());
        assert!(outcome.delete);
        assert_eq!(h.stats.rsts_accepted, 1);
    }

    #[test]
    fn rst_validation_guards_syn_received_too() {
        let mut h = Harness::new();
        h.cfg.rst_validation = true;
        let syn = TcpSegment::control(TcpFlags::SYN, 9000, 0);
        let mut tcb = Tcb::open_passive(
            SocketId(2),
            ep("5.5.5.5:80"),
            ep("6.6.6.6:1234"),
            SocketId(1),
            4000,
            &syn,
            &mut h.io(),
        );
        let spoofed = TcpSegment::control(TcpFlags::RST, 123, 0);
        let outcome = tcb.on_segment(&spoofed, &mut h.io());
        assert!(!outcome.delete);
        assert_eq!(tcb.state, TcpState::SynReceived);
        let exact = TcpSegment::control(TcpFlags::RST, 9001, 0);
        assert!(tcb.on_segment(&exact, &mut h.io()).delete);
    }

    #[test]
    fn passive_open_sends_synack() {
        let mut h = Harness::new();
        let syn = TcpSegment::control(TcpFlags::SYN, 9000, 0);
        let tcb = Tcb::open_passive(
            SocketId(2),
            ep("5.5.5.5:80"),
            ep("6.6.6.6:1234"),
            SocketId(1),
            4000,
            &syn,
            &mut h.io(),
        );
        assert_eq!(tcb.state, TcpState::SynReceived);
        assert_eq!(tcb.from_listener, Some(SocketId(1)));
        let synack = h.last_seg();
        assert!(synack.flags.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert_eq!(synack.ack, 9001);
    }

    #[test]
    fn passive_open_completes_on_ack() {
        let mut h = Harness::new();
        let syn = TcpSegment::control(TcpFlags::SYN, 9000, 0);
        let mut tcb = Tcb::open_passive(
            SocketId(2),
            ep("5.5.5.5:80"),
            ep("6.6.6.6:1234"),
            SocketId(1),
            4000,
            &syn,
            &mut h.io(),
        );
        let ack = TcpSegment::control(TcpFlags::ACK, 9001, 4001);
        let outcome = tcb.on_segment(&ack, &mut h.io());
        assert!(outcome.became_established);
        assert_eq!(tcb.state, TcpState::Established);
    }

    #[test]
    fn dup_syn_in_syn_received_reanswers() {
        let mut h = Harness::new();
        let syn = TcpSegment::control(TcpFlags::SYN, 9000, 0);
        let mut tcb = Tcb::open_passive(
            SocketId(2),
            ep("5.5.5.5:80"),
            ep("6.6.6.6:1234"),
            SocketId(1),
            4000,
            &syn,
            &mut h.io(),
        );
        let n = h.out.len();
        tcb.on_segment(&syn, &mut h.io());
        assert_eq!(h.out.len(), n + 1);
        assert!(h.last_seg().flags.contains(TcpFlags::SYN | TcpFlags::ACK));
    }

    #[test]
    fn icmp_unreachable_kills_connect_only() {
        let (_, mut tcb) = active();
        let outcome = tcb.on_icmp_unreachable();
        assert!(outcome.delete);
        assert_eq!(outcome.failed, Some(SocketError::HostUnreachable));

        let (_, mut tcb2) = established_pair();
        let outcome2 = tcb2.on_icmp_unreachable();
        assert!(!outcome2.delete, "soft error once established");
    }

    #[test]
    fn send_after_close_rejected() {
        let (mut h, mut tcb) = established_pair();
        tcb.close(&mut h.io());
        assert_eq!(
            tcb.send([b"x"], &mut h.io()),
            Err(SocketError::InvalidState)
        );
    }

    #[test]
    fn data_queued_before_establishment_flows_after() {
        let (mut h, mut tcb) = active();
        tcb.send([b"early"], &mut h.io()).unwrap();
        assert_eq!(h.out.len(), 1, "only the SYN so far");
        let synack = TcpSegment::control(TcpFlags::SYN | TcpFlags::ACK, 5000, 1001);
        tcb.on_segment(&synack, &mut h.io());
        let data_seg = tcp_of(h.out.last().unwrap()).unwrap();
        assert_eq!(data_seg.payload.as_ref(), b"early");
    }

    #[test]
    fn go_back_n_retransmits_earliest_unacked() {
        let (mut h, mut tcb) = established_pair();
        tcb.send([vec![1u8; 2800]], &mut h.io()).unwrap();
        assert_eq!(h.out.len(), 2);
        h.out.clear();
        tcb.on_rto(&mut h.io());
        let seg = h.last_seg();
        assert_eq!(seg.seq, 1001, "earliest unacked");
        assert_eq!(seg.payload.len(), 1400);
    }

    #[test]
    fn fast_retransmit_fires_on_third_dup_ack() {
        let (mut h, mut tcb) = established_pair();
        tcb.send([vec![1u8; 2800]], &mut h.io()).unwrap();
        h.out.clear();
        let dup = TcpSegment::control(TcpFlags::ACK, 5001, 1001);
        tcb.on_segment(&dup, &mut h.io());
        tcb.on_segment(&dup, &mut h.io());
        assert!(h.out.is_empty(), "two dup acks are not enough");
        tcb.on_segment(&dup, &mut h.io());
        let seg = h.last_seg();
        assert_eq!(seg.seq, 1001, "third dup ack retransmits earliest unacked");
        assert_eq!(seg.payload.len(), 1400);
    }

    #[test]
    fn fast_retransmit_rearms_after_firing() {
        // Reno regression: if the fast-retransmitted segment is lost too,
        // three *further* dup acks must trigger another fast retransmit
        // rather than counting past 3 forever and stalling until RTO.
        let (mut h, mut tcb) = established_pair();
        tcb.send([vec![1u8; 2800]], &mut h.io()).unwrap();
        h.out.clear();
        let dup = TcpSegment::control(TcpFlags::ACK, 5001, 1001);
        for _ in 0..3 {
            tcb.on_segment(&dup, &mut h.io());
        }
        assert_eq!(h.out.len(), 1, "first fast retransmit");
        h.out.clear();
        for _ in 0..3 {
            tcb.on_segment(&dup, &mut h.io());
        }
        assert_eq!(h.out.len(), 1, "counter reset: second fast retransmit");
        assert_eq!(h.last_seg().seq, 1001);
    }

    #[test]
    fn fin_retransmission() {
        let (mut h, mut tcb) = established_pair();
        tcb.close(&mut h.io());
        h.out.clear();
        tcb.on_rto(&mut h.io());
        assert!(h.last_seg().flags.contains(TcpFlags::FIN));
    }

    #[test]
    fn abort_sends_rst() {
        let (mut h, mut tcb) = established_pair();
        tcb.abort(&mut h.io());
        assert!(h.last_seg().flags.contains(TcpFlags::RST));
    }

    #[test]
    fn abort_in_syn_sent_is_silent() {
        let (mut h, mut tcb) = active();
        let n = h.out.len();
        tcb.abort(&mut h.io());
        assert_eq!(h.out.len(), n, "no RST needed before synchronization");
    }
}
