//! NAT Check's own little protocol (§6.1).
//!
//! Faithful to the original in one important way: endpoints in payloads
//! are transmitted **in the clear** — the paper's §6.3 admits NAT Check
//! "currently does not protect itself" against payload-mangling NATs, and
//! reproducing that limitation lets E11/E15 demonstrate its effect.

#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_lossless)]

use bytes::{Buf, BufMut, Bytes, BytesMut};
use punch_net::Endpoint;
use punch_rendezvous::wire::{frame_head, get_u64, get_u8, FrameBuf, WireError};
use std::net::Ipv4Addr;

/// Which server an echo came from.
pub type ServerNo = u8;

/// Result status of server 3's inbound connection attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InboundStatus {
    /// Still in SYN-SENT after the 5-second grace (NAT silently drops).
    InProgress,
    /// The attempt completed (NAT let it through).
    Connected,
    /// The attempt was refused (NAT sent RST or ICMP).
    Refused,
}

/// NAT Check protocol messages (UDP datagrams, or 16-bit-length-prefixed
/// frames over TCP).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckMsg {
    /// Client → server 1/2: observe me.
    UdpProbe {
        /// Correlation token.
        token: u64,
    },
    /// Server → client: your observed endpoint.
    UdpEcho {
        /// Correlation token.
        token: u64,
        /// Source endpoint observed by the server.
        observed: Endpoint,
        /// Which server answered (1, 2, or 3).
        server: ServerNo,
    },
    /// Server 2 → server 3 (UDP control): reply to this client from your
    /// own address (the unsolicited-traffic test).
    ForwardUdp {
        /// The client's public UDP endpoint.
        client: Endpoint,
        /// Correlation token.
        token: u64,
    },
    /// Client → server 1/2 over TCP: observe me.
    TcpProbe {
        /// Correlation token.
        token: u64,
    },
    /// Server → client over TCP: your observed endpoint.
    TcpEcho {
        /// Correlation token.
        token: u64,
        /// Source endpoint observed by the server.
        observed: Endpoint,
        /// Which server answered.
        server: ServerNo,
    },
    /// Server 2 → server 3 (UDP control): attempt an inbound TCP
    /// connection to this client, answer with a go-ahead.
    TcpInboundReq {
        /// The client's public TCP endpoint.
        client: Endpoint,
        /// Correlation token.
        token: u64,
    },
    /// Server 3 → server 2 (UDP control): go-ahead, with the attempt's
    /// status so far.
    TcpGoAhead {
        /// Correlation token.
        token: u64,
        /// Status of the inbound attempt.
        status: InboundStatus,
    },
    /// Client (second socket) → its own public endpoint: hairpin probe.
    HairpinProbe {
        /// Correlation token.
        token: u64,
    },
}

const T_UDP_PROBE: u8 = 1;
const T_UDP_ECHO: u8 = 2;
const T_FORWARD_UDP: u8 = 3;
const T_TCP_PROBE: u8 = 4;
const T_TCP_ECHO: u8 = 5;
const T_TCP_INBOUND_REQ: u8 = 6;
const T_TCP_GO_AHEAD: u8 = 7;
const T_HAIRPIN_PROBE: u8 = 8;

fn put_ep(buf: &mut BytesMut, ep: Endpoint) {
    buf.put_slice(&ep.ip.octets());
    buf.put_u16(ep.port);
}

/// Reads a cleartext endpoint (no flag byte, unlike the rendezvous
/// codec's — see the module docs).
fn get_ep(buf: &mut &[u8]) -> Result<Endpoint, WireError> {
    if buf.len() < 6 {
        return Err(WireError::Truncated);
    }
    let mut o = [0u8; 4];
    buf.copy_to_slice(&mut o);
    let port = buf.get_u16();
    Ok(Endpoint::new(Ipv4Addr::from(o), port))
}

impl CheckMsg {
    /// Encodes the message.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(24);
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the message's encoding to `buf`.
    fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            CheckMsg::UdpProbe { token } => {
                buf.put_u8(T_UDP_PROBE);
                buf.put_u64(*token);
            }
            CheckMsg::UdpEcho {
                token,
                observed,
                server,
            } => {
                buf.put_u8(T_UDP_ECHO);
                buf.put_u64(*token);
                put_ep(buf, *observed);
                buf.put_u8(*server);
            }
            CheckMsg::ForwardUdp { client, token } => {
                buf.put_u8(T_FORWARD_UDP);
                put_ep(buf, *client);
                buf.put_u64(*token);
            }
            CheckMsg::TcpProbe { token } => {
                buf.put_u8(T_TCP_PROBE);
                buf.put_u64(*token);
            }
            CheckMsg::TcpEcho {
                token,
                observed,
                server,
            } => {
                buf.put_u8(T_TCP_ECHO);
                buf.put_u64(*token);
                put_ep(buf, *observed);
                buf.put_u8(*server);
            }
            CheckMsg::TcpInboundReq { client, token } => {
                buf.put_u8(T_TCP_INBOUND_REQ);
                put_ep(buf, *client);
                buf.put_u64(*token);
            }
            CheckMsg::TcpGoAhead { token, status } => {
                buf.put_u8(T_TCP_GO_AHEAD);
                buf.put_u64(*token);
                buf.put_u8(match status {
                    InboundStatus::InProgress => 0,
                    InboundStatus::Connected => 1,
                    InboundStatus::Refused => 2,
                });
            }
            CheckMsg::HairpinProbe { token } => {
                buf.put_u8(T_HAIRPIN_PROBE);
                buf.put_u64(*token);
            }
        }
    }

    /// Decodes one message; `None` for anything malformed, including a
    /// valid message followed by trailing bytes (strict framing — a
    /// padded datagram is treated as hostile, not trimmed).
    pub fn decode(data: &[u8]) -> Option<CheckMsg> {
        Self::try_decode(data).ok()
    }

    fn try_decode(data: &[u8]) -> Result<CheckMsg, WireError> {
        let mut buf = data;
        let msg = match get_u8(&mut buf)? {
            T_UDP_PROBE => CheckMsg::UdpProbe {
                token: get_u64(&mut buf)?,
            },
            T_UDP_ECHO => CheckMsg::UdpEcho {
                token: get_u64(&mut buf)?,
                observed: get_ep(&mut buf)?,
                server: get_u8(&mut buf)?,
            },
            T_FORWARD_UDP => CheckMsg::ForwardUdp {
                client: get_ep(&mut buf)?,
                token: get_u64(&mut buf)?,
            },
            T_TCP_PROBE => CheckMsg::TcpProbe {
                token: get_u64(&mut buf)?,
            },
            T_TCP_ECHO => CheckMsg::TcpEcho {
                token: get_u64(&mut buf)?,
                observed: get_ep(&mut buf)?,
                server: get_u8(&mut buf)?,
            },
            T_TCP_INBOUND_REQ => CheckMsg::TcpInboundReq {
                client: get_ep(&mut buf)?,
                token: get_u64(&mut buf)?,
            },
            T_TCP_GO_AHEAD => CheckMsg::TcpGoAhead {
                token: get_u64(&mut buf)?,
                status: match get_u8(&mut buf)? {
                    0 => InboundStatus::InProgress,
                    1 => InboundStatus::Connected,
                    2 => InboundStatus::Refused,
                    other => return Err(WireError::BadTag(other)),
                },
            },
            T_HAIRPIN_PROBE => CheckMsg::HairpinProbe {
                token: get_u64(&mut buf)?,
            },
            other => return Err(WireError::BadTag(other)),
        };
        if !buf.is_empty() {
            return Err(WireError::TrailingBytes(buf.len()));
        }
        Ok(msg)
    }

    /// Encodes as a 16-bit-length-prefixed TCP frame: one part, inline.
    pub fn encode_frame(&self) -> Bytes {
        frame_head(0, |buf| self.encode_into(buf))
    }
}

/// Maximum bytes a [`CheckFrames`] reassembler will hold. NAT Check
/// messages are tiny (≤ 24 bytes), so a handful of frames' worth of
/// slack is generous; a hostile stream that outruns the cap is
/// discarded rather than buffered without bound.
pub const MAX_CHECK_BUFFER: usize = 1024;

/// Incremental reassembler for framed [`CheckMsg`]s on a TCP stream:
/// the rendezvous codec's [`FrameBuf`] (same framing) with NAT Check's
/// cap and decoder.
///
/// Buffering is bounded by [`MAX_CHECK_BUFFER`]: overflowing input
/// poisons the reassembler, which then drops everything (NAT Check
/// probes are fire-and-forget, so the peer simply looks unresponsive —
/// the same outcome §6.3 reports for misbehaving middleboxes).
#[derive(Debug)]
pub struct CheckFrames(FrameBuf);

impl Default for CheckFrames {
    fn default() -> Self {
        CheckFrames(FrameBuf::with_cap(MAX_CHECK_BUFFER))
    }
}

impl CheckFrames {
    /// Appends stream bytes. Exceeding [`MAX_CHECK_BUFFER`] poisons the
    /// reassembler: buffered bytes are dropped and further pushes are
    /// ignored.
    pub fn push(&mut self, chunk: &[u8]) {
        self.0.push(chunk);
    }

    /// Pops the next complete message. Malformed frames are skipped; a
    /// stream that lost framing (poisoned, or a length prefix no
    /// reassembler accepts) yields nothing.
    pub fn next_message(&mut self) -> Option<CheckMsg> {
        loop {
            let body = self.0.next_frame()?.ok()?;
            if let Some(msg) = CheckMsg::decode(&body) {
                return Some(msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> Vec<CheckMsg> {
        let ep: Endpoint = "155.99.25.11:62000".parse().unwrap();
        vec![
            CheckMsg::UdpProbe { token: 7 },
            CheckMsg::UdpEcho {
                token: 7,
                observed: ep,
                server: 2,
            },
            CheckMsg::ForwardUdp {
                client: ep,
                token: 7,
            },
            CheckMsg::TcpProbe { token: 8 },
            CheckMsg::TcpEcho {
                token: 8,
                observed: ep,
                server: 1,
            },
            CheckMsg::TcpInboundReq {
                client: ep,
                token: 8,
            },
            CheckMsg::TcpGoAhead {
                token: 8,
                status: InboundStatus::InProgress,
            },
            CheckMsg::TcpGoAhead {
                token: 8,
                status: InboundStatus::Refused,
            },
            CheckMsg::HairpinProbe { token: 9 },
        ]
    }

    /// Every message, framed or not, fits the stand-in's inline capacity
    /// (`bytes::INLINE_CAP`), so encoding one allocates nothing. Every
    /// field is fixed-width, so any value is a variant at its longest.
    #[test]
    fn every_message_encodes_within_the_inline_capacity() {
        for m in all() {
            let (body, frame) = (m.encode(), m.encode_frame());
            assert_eq!(frame.len(), 2 + body.len(), "{m:?}");
            assert!(frame.len() <= bytes::INLINE_CAP, "{m:?}: {} B framed", frame.len());
        }
    }

    #[test]
    fn roundtrip() {
        for m in all() {
            assert_eq!(CheckMsg::decode(&m.encode()), Some(m));
        }
    }

    #[test]
    fn truncation_is_none() {
        for m in all() {
            let enc = m.encode();
            for cut in 0..enc.len() {
                // Shorter prefixes either fail or (never) succeed.
                if let Some(d) = CheckMsg::decode(&enc[..cut]) {
                    panic!("prefix decoded to {d:?}");
                }
            }
        }
        assert_eq!(CheckMsg::decode(&[]), None);
        assert_eq!(CheckMsg::decode(&[99]), None);
    }

    #[test]
    fn trailing_bytes_now_rejected() {
        // Regression pin: decode used to accept these padded inputs and
        // silently drop the tail. Strict framing returns None for every
        // one of them.
        for m in all() {
            let mut padded = m.encode().to_vec();
            padded.push(0);
            assert_eq!(CheckMsg::decode(&padded), None, "{m:?} + 1 byte");
            padded.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
            assert_eq!(CheckMsg::decode(&padded), None, "{m:?} + 5 bytes");
        }
        // Exact-length encodings still decode (strictness must not break
        // the happy path).
        for m in all() {
            assert_eq!(CheckMsg::decode(&m.encode()), Some(m));
        }
    }

    #[test]
    fn overflow_poisons_the_reassembler() {
        let mut fr = CheckFrames::default();
        // An incomplete frame that never finishes, streamed past the cap.
        fr.push(&u16::MAX.to_be_bytes());
        let junk = vec![0u8; 128];
        for _ in 0..(MAX_CHECK_BUFFER / junk.len() + 2) {
            fr.push(&junk);
        }
        assert_eq!(fr.next_message(), None);
        // Later valid frames are ignored: the stream is dead.
        fr.push(&CheckMsg::UdpProbe { token: 1 }.encode_frame());
        assert_eq!(fr.next_message(), None);
    }

    #[test]
    fn bursts_below_the_cap_reassemble() {
        let mut fr = CheckFrames::default();
        let m = CheckMsg::UdpProbe { token: 42 };
        for _ in 0..20 {
            fr.push(&m.encode_frame());
        }
        for _ in 0..20 {
            assert_eq!(fr.next_message(), Some(m.clone()));
        }
        assert_eq!(fr.next_message(), None);
    }

    #[test]
    fn malformed_frames_are_skipped() {
        let mut fr = CheckFrames::default();
        let m = CheckMsg::TcpProbe { token: 3 };
        fr.push(&[0, 1, 99]); // one-byte frame, unknown tag
        fr.push(&[0, 0]); // empty frame
        fr.push(&m.encode_frame());
        assert_eq!(fr.next_message(), Some(m));
        assert_eq!(fr.next_message(), None);
    }

    #[test]
    fn frames_reassemble() {
        let msgs = all();
        let mut stream = BytesMut::new();
        for m in &msgs {
            stream.extend_from_slice(&m.encode_frame());
        }
        let mut fr = CheckFrames::default();
        let mut out = Vec::new();
        for chunk in stream.chunks(5) {
            fr.push(chunk);
            while let Some(m) = fr.next_message() {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
    }
}
