//! Packets: the unit of exchange between simulated devices.
//!
//! A [`Packet`] carries the fields NAT devices and host stacks actually
//! inspect: source and destination [`Endpoint`]s, a TTL, and a transport
//! body — a UDP datagram payload, a [`TcpSegment`], or an ICMP error.
//!
//! Payloads are raw [`Bytes`], which matters for fidelity: the §5.3
//! "payload mangling" NAT misbehaviour scans the byte stream for values
//! that look like IP addresses, so payloads must be opaque bytes rather
//! than structured Rust values.
//!
//! Every packet carries an RFC 1071 checksum of its transport body,
//! filled in at construction and verified by host stacks before demux.
//! It is computed word-wide — header fields as integers; a payload of at
//! most 64 bytes four bytes per step, a longer one in 32-byte blocks of
//! four 8-byte lanes with its tail four bytes per step — and never
//! covers the endpoints NATs rewrite; see [`Packet::checksum`].
//! A payload is often a slice of a larger buffer (a TCP segment is one
//! of the frame it was carved from), at any byte offset.

#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_lossless)]

use crate::addr::Endpoint;
use bytes::Bytes;
use std::fmt;

/// Transport protocol selector.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Proto {
    /// User Datagram Protocol.
    Udp,
    /// Transmission Control Protocol.
    Tcp,
    /// Internet Control Message Protocol (errors only).
    Icmp,
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Proto::Udp => write!(f, "udp"),
            Proto::Tcp => write!(f, "tcp"),
            Proto::Icmp => write!(f, "icmp"),
        }
    }
}

/// TCP header flags, stored as a compact bit set.
///
/// Only the flags the RFC 793 connection machinery uses are modelled.
///
/// # Examples
///
/// ```
/// use punch_net::TcpFlags;
///
/// let synack = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(synack.contains(TcpFlags::SYN));
/// assert_eq!(format!("{synack}"), "SYN|ACK");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// No flags set.
    pub const NONE: TcpFlags = TcpFlags(0);
    /// Synchronize sequence numbers (connection setup).
    pub const SYN: TcpFlags = TcpFlags(1 << 0);
    /// Acknowledgment field significant.
    pub const ACK: TcpFlags = TcpFlags(1 << 1);
    /// No more data from sender (connection teardown).
    pub const FIN: TcpFlags = TcpFlags(1 << 2);
    /// Reset the connection.
    pub const RST: TcpFlags = TcpFlags(1 << 3);

    /// Returns true if every flag in `other` is set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns true if any flag in `other` is set in `self`.
    pub const fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }

    /// Returns true if no flags are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;

    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (bit, name) in [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
        ] {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

impl fmt::Debug for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A TCP segment: flags, sequence/acknowledgment numbers, window, payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TcpSegment {
    /// Header flags.
    pub flags: TcpFlags,
    /// Sequence number of the first payload byte (or of the SYN/FIN).
    pub seq: u32,
    /// Acknowledgment number (valid when `flags` contains [`TcpFlags::ACK`]).
    pub ack: u32,
    /// Receive window advertisement.
    pub window: u16,
    /// Segment payload.
    pub payload: Bytes,
}

impl TcpSegment {
    /// Creates a payload-less control segment.
    pub fn control(flags: TcpFlags, seq: u32, ack: u32) -> Self {
        TcpSegment {
            flags,
            seq,
            ack,
            window: u16::MAX,
            payload: Bytes::new(),
        }
    }

    /// Returns the sequence-number space this segment occupies: payload
    /// length plus one for SYN and one for FIN.
    pub fn seq_len(&self) -> u32 {
        #[expect(clippy::expect_used, reason = "simulated payloads are MTU-bounded, far below 2^32")]
        let mut len = u32::try_from(self.payload.len()).expect("payload exceeds sequence space");
        if self.flags.contains(TcpFlags::SYN) {
            len += 1;
        }
        if self.flags.contains(TcpFlags::FIN) {
            len += 1;
        }
        len
    }
}

/// The kind of ICMP error carried by an [`IcmpMessage`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IcmpKind {
    /// Destination unreachable (host, port, or administratively filtered).
    ///
    /// Some NATs respond to unsolicited inbound TCP SYNs with an ICMP
    /// error instead of silently dropping them (§5.2); hosts translate
    /// this to a "host unreachable" socket error.
    DestinationUnreachable,
    /// TTL exceeded in transit (routing loops).
    TtlExceeded,
}

/// An ICMP error message referring to a triggering packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IcmpMessage {
    /// Error kind.
    pub kind: IcmpKind,
    /// Protocol of the packet that triggered the error.
    pub original_proto: Proto,
    /// Source endpoint of the packet that triggered the error.
    pub original_src: Endpoint,
    /// Destination endpoint of the packet that triggered the error.
    pub original_dst: Endpoint,
}

/// Transport body of a [`Packet`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Body {
    /// A UDP datagram payload.
    Udp(Bytes),
    /// A TCP segment.
    Tcp(TcpSegment),
    /// An ICMP error.
    Icmp(IcmpMessage),
}

/// A simulated IPv4 packet.
///
/// # Examples
///
/// ```
/// use punch_net::{Endpoint, Packet, Proto};
///
/// let pkt = Packet::udp(
///     "10.0.0.1:4321".parse().unwrap(),
///     "18.181.0.31:1234".parse().unwrap(),
///     b"register".as_ref(),
/// );
/// assert_eq!(pkt.proto(), Proto::Udp);
/// assert!(pkt.checksum_ok());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Source endpoint (IP header source address + transport source port).
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Remaining hop count; routers decrement and drop at zero.
    pub ttl: u8,
    /// Transport body.
    pub body: Body,
    /// RFC 1071 Internet checksum over the transport body (see
    /// `Packet::compute_checksum`). The constructors fill it in;
    /// link-level corruption faults damage the body without refreshing
    /// it, and host stacks verify it on ingest.
    pub checksum: u16,
}

// Every queued delivery, arena slot and host outbox entry is one of
// these; a fatter `Packet` is paid for in every world's resident set.
const _: () = assert!(std::mem::size_of::<Packet>() <= 104);

/// Default initial TTL for packets originated by hosts.
pub const DEFAULT_TTL: u8 = 64;

/// Payloads up to this many bytes — every control message — are summed
/// by the four-byte loop alone; longer ones go through [`sum_blocks`].
const NARROW_MAX: usize = 64;

/// Bytes per step of [`sum_blocks`]: four 8-byte lanes.
const BLOCK: usize = 32;

/// A value congruent (mod 0xFFFF) to the one's-complement sum of `bytes`
/// read as big-endian 16-bit words (odd trailing byte padded with zero),
/// not yet folded to 16 bits. It is positive whenever the sum is, so
/// [`fold`] lands on the same `u16` as a pair-by-pair walk would.
///
/// A payload of more than [`NARROW_MAX`] bytes sends its whole 32-byte
/// blocks to [`sum_blocks`] and only its tail through the loop below.
/// That loop walks four bytes at a time: 2^16 ≡ 1 (mod 0xFFFF), so a
/// big-endian `u32` is congruent to the sum of its two 16-bit halves. The
/// `u64` accumulator has room for 2^32 such words — 16 GiB of payload.
fn sum_words(bytes: &[u8]) -> u64 {
    let wide = if bytes.len() > NARROW_MAX {
        bytes.len() - bytes.len() % BLOCK
    } else {
        0
    };
    let (blocks, bytes) = bytes.split_at(wide);
    let mut words = bytes.chunks_exact(4);
    let sum: u64 = words
        .by_ref()
        .map(|w| u64::from(u32::from_be_bytes([w[0], w[1], w[2], w[3]])))
        .sum();
    let rest = words.remainder();
    let mut tail = [0u8; 4];
    tail[..rest.len()].copy_from_slice(rest);
    let sum = sum + u64::from(u32::from_be_bytes(tail));
    if wide == 0 {
        sum
    } else {
        sum + sum_blocks(blocks)
    }
}

/// A [`sum_words`] value for `blocks`, a whole number of [`BLOCK`]s,
/// read eight bytes per lane and four lanes per step; at most 0xFFFF.
///
/// Each lane adds both 32-bit halves of a little-endian 8-byte load —
/// room for 2^31 loads, 16 GiB per lane. Little-endian loads sum the
/// byte-swapped 16-bit words, and the one's-complement sum is byte-order
/// independent up to one final swap (RFC 1071 §2(B)), so the lanes are
/// folded to 16 bits and swapped back once.
#[inline(never)]
fn sum_blocks(blocks: &[u8]) -> u64 {
    let mut lanes = [0u64; BLOCK / 8];
    for block in blocks.as_chunks::<BLOCK>().0 {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            let w = u64::from_le_bytes(*word);
            *lane += (w & 0xFFFF_FFFF) + (w >> 32);
        }
    }
    let mut sum: u64 = lanes.iter().map(|l| (l & 0xFFFF_FFFF) + (l >> 32)).sum();
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    ((sum & 0xFF) << 8) | (sum >> 8)
}

/// Folds the carries of a one's-complement sum back in and complements it.
fn fold(mut sum: u64) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    #[expect(clippy::cast_possible_truncation, reason = "the fold loop above leaves sum <= 0xFFFF, so the cast is lossless")]
    let folded = sum as u16;
    !folded
}

impl Packet {
    /// Creates a UDP packet with the default TTL.
    pub fn udp(src: Endpoint, dst: Endpoint, payload: impl Into<Bytes>) -> Self {
        let mut pkt = Packet {
            src,
            dst,
            ttl: DEFAULT_TTL,
            body: Body::Udp(payload.into()),
            checksum: 0,
        };
        pkt.refresh_checksum();
        pkt
    }

    /// Creates a TCP packet with the default TTL.
    pub fn tcp(src: Endpoint, dst: Endpoint, segment: TcpSegment) -> Self {
        let mut pkt = Packet {
            src,
            dst,
            ttl: DEFAULT_TTL,
            body: Body::Tcp(segment),
            checksum: 0,
        };
        pkt.refresh_checksum();
        pkt
    }

    /// Creates an ICMP error packet with the default TTL.
    pub fn icmp(src: Endpoint, dst: Endpoint, msg: IcmpMessage) -> Self {
        let mut pkt = Packet {
            src,
            dst,
            ttl: DEFAULT_TTL,
            body: Body::Icmp(msg),
            checksum: 0,
        };
        pkt.refresh_checksum();
        pkt
    }

    /// Computes the RFC 1071 Internet checksum of the transport body:
    /// the one's-complement of the one's-complement sum of 16-bit words
    /// over a protocol tag, the payload length, the TCP header fields
    /// (seq/ack/flags/window) where present, and the payload bytes.
    /// Header fields are added as integers (each is a whole number of
    /// 16-bit words) and the payload goes through `sum_words`, so the
    /// result is bit-identical to a byte-pair walk over the same layout.
    ///
    /// The source and destination endpoints are deliberately *not*
    /// covered — address-translating middleboxes rewrite them in flight,
    /// and real NATs incrementally fix up the checksum to match, which
    /// this model folds into "addresses are outside the sum". A NAT
    /// that rewrites *payload* bytes (§5.3 mangling) must call
    /// [`Packet::refresh_checksum`] like a real ALG does.
    fn compute_checksum(&self) -> u16 {
        let (header, payload): (u64, &[u8]) = match &self.body {
            Body::Udp(p) => (0x1100, p), // protocol tag: UDP
            Body::Tcp(seg) => (
                0x0600 // protocol tag: TCP
                    + u64::from(seg.seq)
                    + u64::from(seg.ack)
                    + (u64::from(seg.flags.0) << 8)
                    + u64::from(seg.window),
                &seg.payload,
            ),
            Body::Icmp(msg) => {
                let kind: u64 = match msg.kind {
                    IcmpKind::DestinationUnreachable => 3,
                    IcmpKind::TtlExceeded => 11,
                };
                let proto: u64 = match msg.original_proto {
                    Proto::Udp => 0x11,
                    Proto::Tcp => 0x06,
                    Proto::Icmp => 0x01,
                };
                (0x0100 + (kind << 8) + proto, &[]) // protocol tag: ICMP
            }
        };
        // The length is covered mod 2^16, mirroring the real 16-bit header field.
        let len = payload.len() as u64 & 0xFFFF;
        fold(header + len + sum_words(payload))
    }

    /// Recomputes and stores the body checksum. Anything that rewrites
    /// checksummed fields in place (e.g. the §5.3 payload-mangling NAT)
    /// must call this afterwards or receivers will discard the packet.
    pub fn refresh_checksum(&mut self) {
        self.checksum = self.compute_checksum();
    }

    /// Returns true if the stored checksum matches the body. Host
    /// stacks verify this on ingest and drop (and count) mismatches,
    /// so link-level corruption is never delivered to applications.
    pub fn checksum_ok(&self) -> bool {
        self.checksum == self.compute_checksum()
    }

    /// Damages the packet in flight: flips payload bit `bit` (modulo
    /// the payload size in bits), or mangles the stored checksum when
    /// the body has no payload bytes to flip. The checksum is *not*
    /// refreshed — that is the point.
    pub fn corrupt_bit(&mut self, bit: u64) {
        let payload = match &mut self.body {
            Body::Udp(p) => p,
            Body::Tcp(seg) => &mut seg.payload,
            Body::Icmp(_) => {
                self.checksum ^= 1 << (bit % 16);
                return;
            }
        };
        if payload.is_empty() {
            self.checksum ^= 1 << (bit % 16);
            return;
        }
        let bit = bit % (payload.len() as u64 * 8);
        let mut bytes = payload.to_vec();
        bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        *payload = Bytes::from(bytes);
    }

    /// Truncates the transport payload to `len` bytes (a no-op when the
    /// payload is already that short), leaving the checksum stale so
    /// receivers can detect the damage. ICMP bodies are untouched.
    pub fn truncate_payload(&mut self, len: usize) {
        let payload = match &mut self.body {
            Body::Udp(p) => p,
            Body::Tcp(seg) => &mut seg.payload,
            Body::Icmp(_) => return,
        };
        if len < payload.len() {
            *payload = payload.slice(..len);
        }
    }

    /// Returns the transport protocol of this packet.
    pub fn proto(&self) -> Proto {
        match &self.body {
            Body::Udp(_) => Proto::Udp,
            Body::Tcp(_) => Proto::Tcp,
            Body::Icmp(_) => Proto::Icmp,
        }
    }

    /// Returns the transport payload length in bytes (zero for ICMP,
    /// whose body carries no mutable payload).
    pub fn payload_len(&self) -> usize {
        match &self.body {
            Body::Udp(p) => p.len(),
            Body::Tcp(seg) => seg.payload.len(),
            Body::Icmp(_) => 0,
        }
    }
}

#[cfg(test)]
#[expect(clippy::cast_possible_truncation, reason = "the reference checksum and the hand-built headers truncate on purpose; the deny above is for the codec")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ep(s: &str) -> Endpoint {
        s.parse().unwrap()
    }

    #[test]
    fn flags_ops() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::SYN | TcpFlags::FIN));
        assert!(f.intersects(TcpFlags::SYN | TcpFlags::FIN));
        assert!(!f.intersects(TcpFlags::RST));
        assert!(TcpFlags::NONE.is_empty());
        assert_eq!(format!("{}", TcpFlags::NONE), "-");
        assert_eq!(format!("{}", TcpFlags::RST | TcpFlags::ACK), "ACK|RST");
    }

    #[test]
    fn seq_len_counts_syn_fin_and_payload() {
        let mut seg = TcpSegment::control(TcpFlags::SYN, 100, 0);
        assert_eq!(seg.seq_len(), 1);
        seg.flags = TcpFlags::SYN | TcpFlags::FIN;
        assert_eq!(seg.seq_len(), 2);
        seg.flags = TcpFlags::ACK;
        seg.payload = Bytes::from_static(b"abc");
        assert_eq!(seg.seq_len(), 3);
    }

    #[test]
    fn accessors() {
        let u = Packet::udp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), b"xyz".as_ref());
        assert_eq!(u.proto(), Proto::Udp);
        assert!(matches!(&u.body, Body::Udp(p) if p.as_ref() == b"xyz"));

        let t = Packet::tcp(
            ep("1.1.1.1:1"),
            ep("2.2.2.2:2"),
            TcpSegment::control(TcpFlags::SYN, 7, 0),
        );
        assert_eq!(t.proto(), Proto::Tcp);
        assert!(matches!(&t.body, Body::Tcp(seg) if seg.seq == 7));
    }

    #[test]
    fn constructors_produce_valid_checksums() {
        let u = Packet::udp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), b"payload".as_ref());
        assert!(u.checksum_ok());
        let mut seg = TcpSegment::control(TcpFlags::SYN | TcpFlags::ACK, 42, 7);
        seg.payload = Bytes::from_static(b"hello");
        let t = Packet::tcp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), seg);
        assert!(t.checksum_ok());
        let i = Packet::icmp(
            ep("1.1.1.1:1"),
            ep("2.2.2.2:2"),
            IcmpMessage {
                kind: IcmpKind::TtlExceeded,
                original_proto: Proto::Udp,
                original_src: ep("2.2.2.2:2"),
                original_dst: ep("1.1.1.1:1"),
            },
        );
        assert!(i.checksum_ok());
    }

    #[test]
    fn checksum_survives_address_rewriting() {
        // NATs rewrite src/dst without touching the checksum; the sum
        // must deliberately not cover the endpoints.
        let mut p = Packet::udp(ep("10.0.0.1:4321"), ep("18.181.0.31:1234"), b"x".as_ref());
        p.src = ep("155.99.25.11:62000");
        p.dst = ep("138.76.29.7:31000");
        assert!(p.checksum_ok());
    }

    #[test]
    fn corrupt_bit_is_detected_for_any_bit() {
        let base = Packet::udp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), vec![0xAAu8; 5]);
        for bit in 0..(5 * 8 + 3) {
            let mut p = base.clone();
            p.corrupt_bit(bit);
            assert!(!p.checksum_ok(), "bit {bit} flip went undetected");
        }
    }

    #[test]
    fn corrupt_bit_on_empty_payload_mangles_checksum() {
        let mut p = Packet::udp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), Bytes::new());
        p.corrupt_bit(9);
        assert!(!p.checksum_ok());
        let mut i = Packet::icmp(
            ep("1.1.1.1:1"),
            ep("2.2.2.2:2"),
            IcmpMessage {
                kind: IcmpKind::DestinationUnreachable,
                original_proto: Proto::Tcp,
                original_src: ep("2.2.2.2:2"),
                original_dst: ep("1.1.1.1:1"),
            },
        );
        i.corrupt_bit(0);
        assert!(!i.checksum_ok());
    }

    #[test]
    fn truncation_is_detected_even_for_zero_payloads() {
        // The length is inside the sum, so chopping trailing zeros —
        // invisible to a pure byte sum — still fails verification.
        let mut p = Packet::udp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), vec![0u8; 8]);
        p.truncate_payload(3);
        assert_eq!(p.payload_len(), 3);
        assert!(!p.checksum_ok());
        // Truncating to the current length or longer is a no-op.
        let mut q = Packet::udp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), vec![7u8; 4]);
        q.truncate_payload(4);
        q.truncate_payload(100);
        assert!(q.checksum_ok());
    }

    #[test]
    fn refresh_checksum_repairs_a_rewritten_body() {
        let mut p = Packet::udp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), b"10.0.0.1".as_ref());
        p.body = Body::Udp(Bytes::from_static(b"155.99.25.11"));
        assert!(!p.checksum_ok());
        p.refresh_checksum();
        assert!(p.checksum_ok());
    }

    #[test]
    fn tcp_header_fields_are_covered() {
        let t = Packet::tcp(
            ep("1.1.1.1:1"),
            ep("2.2.2.2:2"),
            TcpSegment::control(TcpFlags::SYN, 7, 0),
        );
        let mut seq = t.clone();
        match &mut seq.body {
            Body::Tcp(s) => s.seq = 8,
            _ => unreachable!(),
        }
        assert!(!seq.checksum_ok());
        let mut flags = t.clone();
        match &mut flags.body {
            Body::Tcp(s) => s.flags = TcpFlags::RST,
            _ => unreachable!(),
        }
        assert!(!flags.checksum_ok());
    }

    /// RFC 1071 read literally, for the tests to compare against: the
    /// covered bytes laid out in order, summed as big-endian byte pairs
    /// (odd tail zero-padded), carries folded back in, complemented.
    fn reference_checksum(header: &[u8], payload: &[u8]) -> u16 {
        let bytes = [header, payload].concat();
        let mut sum: u64 = 0;
        for pair in bytes.chunks(2) {
            sum += u64::from(pair[0]) << 8 | u64::from(*pair.get(1).unwrap_or(&0));
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    fn udp_reference(payload: &[u8]) -> u16 {
        let len = (payload.len() as u16).to_be_bytes();
        reference_checksum(&[0x11, 0x00, len[0], len[1]], payload)
    }

    fn tcp_reference(seg: &TcpSegment) -> u16 {
        let mut header = vec![0x06, 0x00];
        header.extend_from_slice(&(seg.payload.len() as u16).to_be_bytes());
        header.extend_from_slice(&seg.seq.to_be_bytes());
        header.extend_from_slice(&seg.ack.to_be_bytes());
        header.extend_from_slice(&[seg.flags.0, 0x00]);
        header.extend_from_slice(&seg.window.to_be_bytes());
        reference_checksum(&header, &seg.payload)
    }

    #[test]
    fn icmp_checksum_matches_the_reference() {
        for (kind, k) in [
            (IcmpKind::DestinationUnreachable, 3u8),
            (IcmpKind::TtlExceeded, 11u8),
        ] {
            for (original_proto, p) in [
                (Proto::Udp, 0x11u8),
                (Proto::Tcp, 0x06u8),
                (Proto::Icmp, 0x01u8),
            ] {
                let msg = IcmpMessage {
                    kind,
                    original_proto,
                    original_src: ep("2.2.2.2:2"),
                    original_dst: ep("1.1.1.1:1"),
                };
                let i = Packet::icmp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), msg);
                assert_eq!(i.checksum, reference_checksum(&[0x01, 0x00, k, p], &[]));
            }
        }
    }

    #[test]
    fn megabyte_of_ones_does_not_overflow_the_sum() {
        // 2^19 words of 0xffff exceed a 32-bit accumulator.
        let payload = vec![0xffu8; 1 << 20];
        let p = Packet::udp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), payload.clone());
        assert!(p.checksum_ok());
        assert_eq!(p.checksum, udp_reference(&payload));
    }

    /// `len` bytes at byte offset `offset` of a larger shared buffer, the
    /// way a TCP segment is a slice of the frame it was carved from.
    fn slice_at(data: &[u8], offset: usize) -> Bytes {
        let mut backing = vec![0x5au8; offset];
        backing.extend_from_slice(data);
        backing.extend_from_slice(&[0xa5; 7]);
        Bytes::from(backing).slice(offset..offset + data.len())
    }

    /// Payloads of every length 0..=4096 (odd ones included), random or
    /// a constant fill, all-ones and all-zero among them, with lengths
    /// within 32 bytes of 0, 64, 1400 and 4096 drawn as often as the
    /// rest; each starts at byte offset 0-7 of a larger buffer.
    fn payloads() -> impl Strategy<Value = Bytes> {
        let fill = prop_oneof![Just(0xffu8), Just(0u8), any::<u8>()];
        let near_edge = (0usize..4, 0usize..64)
            .prop_map(|(edge, delta)| ([0, 64, 1400, 4096][edge] + delta).saturating_sub(32));
        let bytes = prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..4097),
            (0usize..4097, fill).prop_map(|(n, fill)| vec![fill; n]),
            near_edge.prop_flat_map(|n| proptest::collection::vec(any::<u8>(), n)),
        ];
        (bytes, 0usize..8).prop_map(|(data, offset): (Vec<u8>, _)| slice_at(&data, offset))
    }

    /// Every length within 32 bytes of 0, 64 (the inline limit), 1400
    /// (an MSS) and 4096 — so every residue mod 32 on both sides of each
    /// — at every byte offset 0-7, filled with a pattern, all-ones (the
    /// carry-heaviest input) and all-zero.
    #[test]
    fn every_residue_mod_32_matches_the_reference() {
        let pattern: Vec<u8> = (0..4096 + 32)
            .map(|i: u32| (i.wrapping_mul(167) ^ (i >> 3)) as u8)
            .collect();
        let fills = [pattern, vec![0xff; 4096 + 32], vec![0; 4096 + 32]];
        for base in [0usize, 64, 1400, 4096] {
            for len in base.saturating_sub(32)..base + 32 {
                for offset in 0..8 {
                    for data in fills.iter().map(|fill| &fill[..len]) {
                        let payload = slice_at(data, offset);
                        let u = Packet::udp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), payload.clone());
                        assert_eq!(
                            u.checksum,
                            udp_reference(data),
                            "udp len {len} offset {offset}"
                        );
                        let seg = TcpSegment {
                            flags: TcpFlags::ACK,
                            seq: 0xfedc_ba98,
                            ack: 0x0123_4567,
                            window: 0xffff,
                            payload,
                        };
                        let t = Packet::tcp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), seg.clone());
                        assert_eq!(
                            t.checksum,
                            tcp_reference(&seg),
                            "tcp len {len} offset {offset}"
                        );
                    }
                }
            }
        }
    }

    /// Link damage must still fail verification: any one-bit flip, and
    /// any strictly shorter payload.
    fn assert_damage_is_detected(p: &Packet, bit: u64) {
        let mut flipped = p.clone();
        flipped.corrupt_bit(bit);
        assert!(!flipped.checksum_ok(), "bit {bit} flip went undetected");
        if p.payload_len() > 0 {
            let mut cut = p.clone();
            cut.truncate_payload(bit as usize % p.payload_len());
            assert!(!cut.checksum_ok(), "truncation went undetected");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn udp_checksum_matches_the_reference(payload in payloads(), bit in any::<u64>()) {
            let p = Packet::udp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), payload.clone());
            prop_assert_eq!(p.checksum, udp_reference(&payload));
            prop_assert!(p.checksum_ok());
            assert_damage_is_detected(&p, bit);
        }

        #[test]
        fn tcp_checksum_matches_the_reference(
            payload in payloads(),
            fields in (any::<u8>(), any::<u32>(), any::<u32>(), any::<u16>()),
            bit in any::<u64>(),
        ) {
            let (flags, seq, ack, window) = fields;
            let seg = TcpSegment { flags: TcpFlags(flags), seq, ack, window, payload };
            let p = Packet::tcp(ep("1.1.1.1:1"), ep("2.2.2.2:2"), seg.clone());
            prop_assert_eq!(p.checksum, tcp_reference(&seg));
            prop_assert!(p.checksum_ok());
            assert_damage_is_detected(&p, bit);
        }
    }
}
