//! Wire protocol between clients, the rendezvous server, and peers.
//!
//! A compact hand-rolled binary codec (version byte, type byte, fixed-
//! width big-endian fields, length-prefixed blobs). Endpoints carried in
//! message *bodies* may be obfuscated by one's-complementing the address
//! octets (§3.1/§5.3) so payload-mangling NATs cannot corrupt them; the
//! flag byte preceding each endpoint records the representation, so
//! decoding is unambiguous either way.
//!
//! Over TCP the same messages are carried in 16-bit length-prefixed
//! frames ([`encode_frame`] / [`FrameBuf`]).

#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_lossless)]

use crate::peer::PeerId;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use punch_net::Endpoint;
use std::fmt;
use std::net::Ipv4Addr;

/// Protocol version understood by this implementation.
pub const VERSION: u8 = 1;

/// Error code: the requested peer is not registered.
pub const ERR_UNKNOWN_PEER: u8 = 1;

/// Error code: the registration table is full of clients whose
/// activity protects them from eviction; the newcomer is refused.
pub const ERR_TABLE_FULL: u8 = 2;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message did.
    Truncated,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown message tag.
    BadTag(u8),
    /// A frame length exceeded [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// The message decoded but left unconsumed trailing bytes — a
    /// hostile padding trick or framing desync; strict decoders reject
    /// it rather than silently ignoring the tail.
    TrailingBytes(usize),
    /// A reassembly buffer exceeded its cap ([`MAX_BUFFER`] unless the
    /// [`FrameBuf`] was built with another); the stream is poisoned and
    /// the connection should be torn down.
    Oversize(usize),
    /// A signed message's authentication tag did not verify — the
    /// sender does not hold the fleet secret (or the body was altered
    /// in flight).
    BadAuth,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::Oversize(n) => write!(f, "reassembly buffer overflow at {n} bytes"),
            WireError::BadAuth => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum frame body accepted from a TCP stream.
pub const MAX_FRAME: usize = 16 * 1024;

/// Largest application payload a peer will send: a [`MAX_FRAME`] frame
/// less the longest header a data-carrying message puts before it
/// ([`Message::RelayData`] and [`Message::SrvRelay`]: version, tag, two
/// peer ids, the payload's length prefix, and the one-byte relay kind the
/// punching peers put in front of a relayed payload). A payload this size
/// fits one frame — and its `u16` length field — on every hop, direct or
/// relayed; the peers refuse a longer one at `send`.
pub const MAX_PAYLOAD: usize = MAX_FRAME - (1 + 1 + 8 + 8 + 2 + 1);

/// Maximum bytes a [`FrameBuf`] will hold before declaring the stream
/// hostile: four maximal frames (with their length prefixes) of
/// lawfully bursty traffic, but never unbounded growth.
pub const MAX_BUFFER: usize = 4 * (MAX_FRAME + 2);

/// All protocol messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Client → S: register under `peer_id`, reporting the private
    /// endpoint the client believes it is using (§3.1).
    Register {
        /// Registering client.
        peer_id: PeerId,
        /// The client's own view of its endpoint.
        private: Endpoint,
    },
    /// S → client: registration accepted; `public` is the endpoint S
    /// observed in the packet headers.
    RegisterAck {
        /// The client's public endpoint as seen by S.
        public: Endpoint,
    },
    /// Client → S: please introduce me to `target` (§3.2 step 1).
    ConnectRequest {
        /// Requesting client.
        peer_id: PeerId,
        /// Peer to connect to.
        target: PeerId,
        /// Nonce echoed in the peer-to-peer authentication handshake.
        nonce: u64,
    },
    /// S → both clients: the other side's endpoints (§3.2 step 2).
    Introduce {
        /// The peer being introduced.
        peer: PeerId,
        /// Its public endpoint as observed by S.
        public: Endpoint,
        /// Its self-reported private endpoint.
        private: Endpoint,
        /// Session nonce (same on both sides).
        nonce: u64,
        /// True for the requesting side.
        initiator: bool,
    },
    /// Client → S: forward `data` to `target` over S (§2.2 relaying).
    RelayData {
        /// Sending client.
        from: PeerId,
        /// Receiving client.
        target: PeerId,
        /// Opaque payload.
        data: Bytes,
    },
    /// S → client: relayed payload from `from`.
    RelayedData {
        /// Original sender.
        from: PeerId,
        /// Opaque payload.
        data: Bytes,
    },
    /// Client → S: ask `target` to open a connection back to me
    /// (§2.3 connection reversal).
    ReversalRequest {
        /// Requesting client (the one behind no NAT, or unreachable).
        peer_id: PeerId,
        /// Peer asked to connect back.
        target: PeerId,
        /// Nonce for authenticating the reversed connection.
        nonce: u64,
    },
    /// S → client: `from` asks you to connect back to it.
    ReversalRequested {
        /// The peer that wants to be connected to.
        from: PeerId,
        /// Its public endpoint.
        public: Endpoint,
        /// Its private endpoint.
        private: Endpoint,
        /// Nonce for authenticating the reversed connection.
        nonce: u64,
    },
    /// Client → S liveness echo. S answers [`Message::Pong`] and keeps
    /// no state for it: a client stays registered by re-sending
    /// [`Message::Register`].
    Ping,
    /// S → client: the answer to [`Message::Ping`].
    Pong,
    /// Peer → peer: authentication probe (§3.2 step 3 / §4.2 step 5).
    PeerHello {
        /// Sender's id.
        from: PeerId,
        /// The introduction nonce.
        nonce: u64,
    },
    /// Peer → peer: authentication acknowledgment.
    PeerHelloAck {
        /// Sender's id.
        from: PeerId,
        /// The introduction nonce.
        nonce: u64,
    },
    /// Peer → peer application payload.
    PeerData {
        /// Opaque payload.
        data: Bytes,
    },
    /// Peer → peer NAT keepalive (§3.6).
    KeepAlive,
    /// S → client: request failed.
    ErrorReply {
        /// One of the `ERR_*` codes.
        code: u8,
    },
    /// Server → server (fleet routing): a shard that received a
    /// connect/reversal request but does not hold the target's
    /// registration forwards it to the shard the ownership ring says
    /// owns the target. Carries everything the owner needs to
    /// introduce the *requester* to the target directly.
    SrvIntroduce {
        /// Requesting client.
        requester: PeerId,
        /// Requester's public endpoint as observed by the forwarding server.
        requester_public: Endpoint,
        /// Requester's self-reported private endpoint.
        requester_private: Endpoint,
        /// Peer the requester wants to reach.
        target: PeerId,
        /// Session nonce (same on both sides of the introduction).
        nonce: u64,
    },
    /// Server → server (fleet routing): the owning shard found the
    /// target, introduced it to the requester directly, and returns
    /// the target's endpoints so the forwarding shard can complete the
    /// requester's half of the introduction.
    SrvIntroduceReply {
        /// Requesting client (correlates with [`Message::SrvIntroduce`]).
        requester: PeerId,
        /// The introduced peer.
        target: PeerId,
        /// Target's public endpoint as observed by its owning server.
        target_public: Endpoint,
        /// Target's self-reported private endpoint.
        target_private: Endpoint,
        /// Session nonce echoed from the forward.
        nonce: u64,
    },
    /// Server → server (fleet routing): the forwarded target is not
    /// registered on the queried shard either; the forwarding shard
    /// tries the next ring owner or reports `ERR_UNKNOWN_PEER`.
    SrvIntroduceErr {
        /// Requesting client (correlates with [`Message::SrvIntroduce`]).
        requester: PeerId,
        /// The peer that could not be found.
        target: PeerId,
        /// Session nonce echoed from the forward.
        nonce: u64,
    },
    /// Server → server (fleet routing): best-effort forward of a relay
    /// payload to the shard owning `target`'s registration.
    SrvRelay {
        /// Original sending client.
        from: PeerId,
        /// Receiving client (registered on the destination shard).
        target: PeerId,
        /// Opaque payload.
        data: Bytes,
    },
}

const TAG_REGISTER: u8 = 1;
const TAG_REGISTER_ACK: u8 = 2;
const TAG_CONNECT_REQUEST: u8 = 3;
const TAG_INTRODUCE: u8 = 4;
const TAG_RELAY_DATA: u8 = 5;
const TAG_RELAYED_DATA: u8 = 6;
const TAG_REVERSAL_REQUEST: u8 = 7;
const TAG_REVERSAL_REQUESTED: u8 = 8;
const TAG_PING: u8 = 9;
const TAG_PONG: u8 = 10;
const TAG_PEER_HELLO: u8 = 11;
const TAG_PEER_HELLO_ACK: u8 = 12;
const TAG_PEER_DATA: u8 = 13;
const TAG_KEEP_ALIVE: u8 = 14;
const TAG_ERROR: u8 = 15;
const TAG_SRV_INTRODUCE: u8 = 16;
const TAG_SRV_INTRODUCE_REPLY: u8 = 17;
const TAG_SRV_INTRODUCE_ERR: u8 = 18;
const TAG_SRV_RELAY: u8 = 19;

fn put_endpoint(buf: &mut BytesMut, ep: Endpoint, obfuscate: bool) {
    buf.put_u8(u8::from(obfuscate));
    let octets = ep.ip.octets();
    if obfuscate {
        buf.put_slice(&[!octets[0], !octets[1], !octets[2], !octets[3]]);
    } else {
        buf.put_slice(&octets);
    }
    buf.put_u16(ep.port);
}

fn get_endpoint(buf: &mut &[u8]) -> Result<Endpoint, WireError> {
    if buf.len() < 7 {
        return Err(WireError::Truncated);
    }
    let obf = buf.get_u8() != 0;
    let mut o = [0u8; 4];
    buf.copy_to_slice(&mut o);
    if obf {
        o = [!o[0], !o[1], !o[2], !o[3]];
    }
    let port = buf.get_u16();
    Ok(Endpoint::new(Ipv4Addr::from(o), port))
}

/// A length as the `u16` the wire carries: a payload's length field, or a
/// frame's prefix. The one place either is checked.
fn wire_len(n: usize) -> u16 {
    #[expect(clippy::expect_used, reason = "peers cap what they send at MAX_PAYLOAD, a forwarded payload was decoded from a u16 length, and control bodies are tens of bytes; checked so oversize can never truncate")]
    let len = u16::try_from(n).expect("length too large for wire format");
    len
}

fn get_bytes(buf: &mut &[u8]) -> Result<Bytes, WireError> {
    if buf.len() < 2 {
        return Err(WireError::Truncated);
    }
    let len = buf.get_u16() as usize;
    if buf.len() < len {
        return Err(WireError::Truncated);
    }
    let out = Bytes::copy_from_slice(&buf[..len]);
    buf.advance(len);
    Ok(out)
}

/// Reads a big-endian `u64`, or [`WireError::Truncated`] if fewer than
/// eight bytes remain.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, WireError> {
    if buf.len() < 8 {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u64())
}

/// Reads one byte, or [`WireError::Truncated`] if none remain.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, WireError> {
    if buf.is_empty() {
        return Err(WireError::Truncated);
    }
    Ok(buf.get_u8())
}

impl Message {
    /// Encodes the message. When `obfuscate` is set, endpoint addresses in
    /// the body are one's-complemented to survive payload-mangling NATs.
    pub fn encode(&self, obfuscate: bool) -> Bytes {
        let mut buf = BytesMut::with_capacity(32);
        self.encode_head(&mut buf, obfuscate);
        if let Some(data) = self.payload() {
            buf.put_slice(data);
        }
        buf.freeze()
    }

    /// The opaque payload a data-carrying message ends with.
    fn payload(&self) -> Option<&Bytes> {
        match self {
            Message::RelayData { data, .. }
            | Message::RelayedData { data, .. }
            | Message::PeerData { data }
            | Message::SrvRelay { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Appends the message's encoding to `buf`, all but the bytes of its
    /// [`Message::payload`] (see [`Message::encode`]).
    fn encode_head(&self, buf: &mut BytesMut, obfuscate: bool) {
        buf.put_u8(VERSION);
        match self {
            Message::Register { peer_id, private } => {
                buf.put_u8(TAG_REGISTER);
                buf.put_u64(peer_id.0);
                put_endpoint(buf, *private, obfuscate);
            }
            Message::RegisterAck { public } => {
                buf.put_u8(TAG_REGISTER_ACK);
                put_endpoint(buf, *public, obfuscate);
            }
            Message::ConnectRequest {
                peer_id,
                target,
                nonce,
            } => {
                buf.put_u8(TAG_CONNECT_REQUEST);
                buf.put_u64(peer_id.0);
                buf.put_u64(target.0);
                buf.put_u64(*nonce);
            }
            Message::Introduce {
                peer,
                public,
                private,
                nonce,
                initiator,
            } => {
                buf.put_u8(TAG_INTRODUCE);
                buf.put_u64(peer.0);
                put_endpoint(buf, *public, obfuscate);
                put_endpoint(buf, *private, obfuscate);
                buf.put_u64(*nonce);
                buf.put_u8(u8::from(*initiator));
            }
            Message::RelayData { from, target, data } => {
                buf.put_u8(TAG_RELAY_DATA);
                buf.put_u64(from.0);
                buf.put_u64(target.0);
                buf.put_u16(wire_len(data.len()));
            }
            Message::RelayedData { from, data } => {
                buf.put_u8(TAG_RELAYED_DATA);
                buf.put_u64(from.0);
                buf.put_u16(wire_len(data.len()));
            }
            Message::ReversalRequest {
                peer_id,
                target,
                nonce,
            } => {
                buf.put_u8(TAG_REVERSAL_REQUEST);
                buf.put_u64(peer_id.0);
                buf.put_u64(target.0);
                buf.put_u64(*nonce);
            }
            Message::ReversalRequested {
                from,
                public,
                private,
                nonce,
            } => {
                buf.put_u8(TAG_REVERSAL_REQUESTED);
                buf.put_u64(from.0);
                put_endpoint(buf, *public, obfuscate);
                put_endpoint(buf, *private, obfuscate);
                buf.put_u64(*nonce);
            }
            Message::Ping => buf.put_u8(TAG_PING),
            Message::Pong => buf.put_u8(TAG_PONG),
            Message::PeerHello { from, nonce } => {
                buf.put_u8(TAG_PEER_HELLO);
                buf.put_u64(from.0);
                buf.put_u64(*nonce);
            }
            Message::PeerHelloAck { from, nonce } => {
                buf.put_u8(TAG_PEER_HELLO_ACK);
                buf.put_u64(from.0);
                buf.put_u64(*nonce);
            }
            Message::PeerData { data } => {
                buf.put_u8(TAG_PEER_DATA);
                buf.put_u16(wire_len(data.len()));
            }
            Message::KeepAlive => buf.put_u8(TAG_KEEP_ALIVE),
            Message::ErrorReply { code } => {
                buf.put_u8(TAG_ERROR);
                buf.put_u8(*code);
            }
            Message::SrvIntroduce {
                requester,
                requester_public,
                requester_private,
                target,
                nonce,
            } => {
                buf.put_u8(TAG_SRV_INTRODUCE);
                buf.put_u64(requester.0);
                put_endpoint(buf, *requester_public, obfuscate);
                put_endpoint(buf, *requester_private, obfuscate);
                buf.put_u64(target.0);
                buf.put_u64(*nonce);
            }
            Message::SrvIntroduceReply {
                requester,
                target,
                target_public,
                target_private,
                nonce,
            } => {
                buf.put_u8(TAG_SRV_INTRODUCE_REPLY);
                buf.put_u64(requester.0);
                buf.put_u64(target.0);
                put_endpoint(buf, *target_public, obfuscate);
                put_endpoint(buf, *target_private, obfuscate);
                buf.put_u64(*nonce);
            }
            Message::SrvIntroduceErr {
                requester,
                target,
                nonce,
            } => {
                buf.put_u8(TAG_SRV_INTRODUCE_ERR);
                buf.put_u64(requester.0);
                buf.put_u64(target.0);
                buf.put_u64(*nonce);
            }
            Message::SrvRelay {
                from,
                target,
                data,
            } => {
                buf.put_u8(TAG_SRV_RELAY);
                buf.put_u64(from.0);
                buf.put_u64(target.0);
                buf.put_u16(wire_len(data.len()));
            }
        }
    }

    /// Decodes one message from `data`.
    pub fn decode(data: &[u8]) -> Result<Message, WireError> {
        let mut buf = data;
        let version = get_u8(&mut buf)?;
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let tag = get_u8(&mut buf)?;
        let msg = match tag {
            TAG_REGISTER => Message::Register {
                peer_id: PeerId(get_u64(&mut buf)?),
                private: get_endpoint(&mut buf)?,
            },
            TAG_REGISTER_ACK => Message::RegisterAck {
                public: get_endpoint(&mut buf)?,
            },
            TAG_CONNECT_REQUEST => Message::ConnectRequest {
                peer_id: PeerId(get_u64(&mut buf)?),
                target: PeerId(get_u64(&mut buf)?),
                nonce: get_u64(&mut buf)?,
            },
            TAG_INTRODUCE => Message::Introduce {
                peer: PeerId(get_u64(&mut buf)?),
                public: get_endpoint(&mut buf)?,
                private: get_endpoint(&mut buf)?,
                nonce: get_u64(&mut buf)?,
                initiator: get_u8(&mut buf)? != 0,
            },
            TAG_RELAY_DATA => Message::RelayData {
                from: PeerId(get_u64(&mut buf)?),
                target: PeerId(get_u64(&mut buf)?),
                data: get_bytes(&mut buf)?,
            },
            TAG_RELAYED_DATA => Message::RelayedData {
                from: PeerId(get_u64(&mut buf)?),
                data: get_bytes(&mut buf)?,
            },
            TAG_REVERSAL_REQUEST => Message::ReversalRequest {
                peer_id: PeerId(get_u64(&mut buf)?),
                target: PeerId(get_u64(&mut buf)?),
                nonce: get_u64(&mut buf)?,
            },
            TAG_REVERSAL_REQUESTED => Message::ReversalRequested {
                from: PeerId(get_u64(&mut buf)?),
                public: get_endpoint(&mut buf)?,
                private: get_endpoint(&mut buf)?,
                nonce: get_u64(&mut buf)?,
            },
            TAG_PING => Message::Ping,
            TAG_PONG => Message::Pong,
            TAG_PEER_HELLO => Message::PeerHello {
                from: PeerId(get_u64(&mut buf)?),
                nonce: get_u64(&mut buf)?,
            },
            TAG_PEER_HELLO_ACK => Message::PeerHelloAck {
                from: PeerId(get_u64(&mut buf)?),
                nonce: get_u64(&mut buf)?,
            },
            TAG_PEER_DATA => Message::PeerData {
                data: get_bytes(&mut buf)?,
            },
            TAG_KEEP_ALIVE => Message::KeepAlive,
            TAG_ERROR => Message::ErrorReply {
                code: get_u8(&mut buf)?,
            },
            TAG_SRV_INTRODUCE => Message::SrvIntroduce {
                requester: PeerId(get_u64(&mut buf)?),
                requester_public: get_endpoint(&mut buf)?,
                requester_private: get_endpoint(&mut buf)?,
                target: PeerId(get_u64(&mut buf)?),
                nonce: get_u64(&mut buf)?,
            },
            TAG_SRV_INTRODUCE_REPLY => Message::SrvIntroduceReply {
                requester: PeerId(get_u64(&mut buf)?),
                target: PeerId(get_u64(&mut buf)?),
                target_public: get_endpoint(&mut buf)?,
                target_private: get_endpoint(&mut buf)?,
                nonce: get_u64(&mut buf)?,
            },
            TAG_SRV_INTRODUCE_ERR => Message::SrvIntroduceErr {
                requester: PeerId(get_u64(&mut buf)?),
                target: PeerId(get_u64(&mut buf)?),
                nonce: get_u64(&mut buf)?,
            },
            TAG_SRV_RELAY => Message::SrvRelay {
                from: PeerId(get_u64(&mut buf)?),
                target: PeerId(get_u64(&mut buf)?),
                data: get_bytes(&mut buf)?,
            },
            other => return Err(WireError::BadTag(other)),
        };
        if !buf.is_empty() {
            // Strict: a valid message followed by garbage is not a valid
            // message. Lenient trailing-byte acceptance would let one
            // datagram smuggle a second, unparsed payload past the codec.
            return Err(WireError::TrailingBytes(buf.len()));
        }
        Ok(msg)
    }
}

/// Size of the authentication tag appended by [`encode_signed`].
pub const AUTH_TAG_LEN: usize = 8;

/// Keyed tag over a message body: FNV-1a over the bytes, folded with the
/// shared secret. Not cryptography — the simulation models *possession
/// of a shared secret*, and an off-path forger without it cannot produce
/// a verifying tag; collision resistance beyond that is out of scope.
fn auth_tag(body: &[u8], secret: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ secret;
    for &b in body {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= secret.rotate_left(17);
    h.wrapping_mul(0x0000_0100_0000_01b3)
}

/// Encodes a message and appends an [`AUTH_TAG_LEN`]-byte keyed tag, for
/// server-to-server traffic inside a fleet that shares `secret`.
pub fn encode_signed(msg: &Message, obfuscate: bool, secret: u64) -> Bytes {
    let body = msg.encode(obfuscate);
    let mut buf = BytesMut::with_capacity(body.len() + AUTH_TAG_LEN);
    buf.put_slice(&body);
    buf.put_u64(auth_tag(&body, secret));
    buf.freeze()
}

/// Decodes a message produced by [`encode_signed`], verifying its tag
/// against `secret`. A datagram without the trailing tag, or whose tag
/// does not verify, is rejected with [`WireError::BadAuth`].
pub fn decode_signed(data: &[u8], secret: u64) -> Result<Message, WireError> {
    let Some(split) = data.len().checked_sub(AUTH_TAG_LEN) else {
        return Err(WireError::BadAuth);
    };
    let (body, tag) = data.split_at(split);
    let mut tag_bytes = tag;
    if tag_bytes.get_u64() != auth_tag(body, secret) {
        return Err(WireError::BadAuth);
    }
    Message::decode(body)
}

/// Encodes a message as a length-prefixed TCP frame, in the two parts
/// `tcp_send` queues as one write: the head (the `u16` length, then all
/// of [`Message::encode`] but a carried payload's bytes), inline for
/// every message a client or server sends on a stream, and the payload
/// itself, shared with `msg` rather than copied (empty for a control
/// message). On the stream the two read as the prefix followed by
/// [`Message::encode`]'s bytes.
pub fn encode_frame(msg: &Message, obfuscate: bool) -> [Bytes; 2] {
    let payload = msg.payload().cloned().unwrap_or_default();
    let head = frame_head(payload.len(), |buf| msg.encode_head(buf, obfuscate));
    [head, payload]
}

/// A frame's head: the `u16` length prefix, then what `write` appends,
/// for a frame whose body goes on for `tail` more bytes sent as a part of
/// their own. Every frame on a TCP stream, rendezvous or NAT Check, gets
/// its length here.
pub fn frame_head(tail: usize, write: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut buf = BytesMut::with_capacity(32);
    buf.put_u16(0);
    write(&mut buf);
    let len = wire_len(buf.len() - 2 + tail);
    buf[..2].copy_from_slice(&len.to_be_bytes());
    buf.freeze()
}

/// Incremental TCP frame reassembler.
///
/// Feed stream chunks with [`FrameBuf::push`], then drain complete
/// messages with [`FrameBuf::next_message`] (or, for another protocol
/// in the same framing, raw frame bodies with [`FrameBuf::next_frame`]).
/// `push` copies a chunk in once; `next_message` decodes a frame where
/// it lies in the buffer, then steps past it.
/// Buffering is bounded by a cap fixed at construction: a sender that
/// streams bytes faster than frames complete poisons the reassembler
/// instead of growing host memory, and every subsequent
/// [`FrameBuf::next_frame`] reports [`WireError::Oversize`] (framing
/// sync is unrecoverable, so callers should drop the connection).
#[derive(Debug)]
pub struct FrameBuf {
    buf: BytesMut,
    cap: usize,
    /// Set when the cap was breached; the buffered bytes are discarded
    /// and the stream permanently errors.
    overflowed: bool,
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf::new()
    }
}

impl FrameBuf {
    /// Creates an empty reassembler holding at most [`MAX_BUFFER`] bytes.
    pub fn new() -> Self {
        FrameBuf::with_cap(MAX_BUFFER)
    }

    /// Creates an empty reassembler holding at most `cap` bytes.
    pub fn with_cap(cap: usize) -> Self {
        FrameBuf {
            buf: BytesMut::new(),
            cap,
            overflowed: false,
        }
    }

    /// Appends stream bytes. Exceeding the cap poisons the
    /// reassembler: buffered bytes are dropped and further pushes are
    /// ignored.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.overflowed {
            return;
        }
        if self.buf.len() + chunk.len() > self.cap {
            self.overflowed = true;
            self.buf = BytesMut::new();
            return;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete message, if any. A poisoned reassembler
    /// (see [`FrameBuf::push`]) yields [`WireError::Oversize`] forever.
    /// The same result as [`FrameBuf::next_frame`] then
    /// [`Message::decode`], without copying the body out first.
    pub fn next_message(&mut self) -> Option<Result<Message, WireError>> {
        Some(self.front_frame()?.and_then(|len| {
            let msg = Message::decode(&self.buf[2..2 + len]);
            self.buf.advance(2 + len);
            msg
        }))
    }

    /// Pops the body of the next complete frame, undecoded. Errors are
    /// the stream's, not a message's, and persist: a poisoned
    /// reassembler, or a length prefix above [`MAX_FRAME`].
    pub fn next_frame(&mut self) -> Option<Result<BytesMut, WireError>> {
        Some(self.front_frame()?.map(|len| {
            self.buf.advance(2);
            self.buf.split_to(len)
        }))
    }

    /// The framing rules, for both pops: the body length of the complete
    /// frame at the front of the buffer, `None` while it is incomplete, or
    /// the stream's error.
    fn front_frame(&self) -> Option<Result<usize, WireError>> {
        if self.overflowed {
            return Some(Err(WireError::Oversize(self.cap)));
        }
        if self.buf.len() < 2 {
            return None;
        }
        let len = u16::from_be_bytes([self.buf[0], self.buf[1]]) as usize;
        if len > MAX_FRAME {
            return Some(Err(WireError::FrameTooLarge(len)));
        }
        (self.buf.len() >= 2 + len).then_some(Ok(len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(s: &str) -> Endpoint {
        s.parse().unwrap()
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Register {
                peer_id: PeerId(7),
                private: ep("10.0.0.1:4321"),
            },
            Message::RegisterAck {
                public: ep("155.99.25.11:62000"),
            },
            Message::ConnectRequest {
                peer_id: PeerId(7),
                target: PeerId(9),
                nonce: 0xdead,
            },
            Message::Introduce {
                peer: PeerId(9),
                public: ep("138.76.29.7:31000"),
                private: ep("10.1.1.3:4321"),
                nonce: 0xdead,
                initiator: true,
            },
            Message::RelayData {
                from: PeerId(7),
                target: PeerId(9),
                data: Bytes::from_static(b"hi"),
            },
            Message::RelayedData {
                from: PeerId(7),
                data: Bytes::from_static(b"hi"),
            },
            Message::ReversalRequest {
                peer_id: PeerId(7),
                target: PeerId(9),
                nonce: 5,
            },
            Message::ReversalRequested {
                from: PeerId(7),
                public: ep("1.2.3.4:5"),
                private: ep("10.0.0.9:5"),
                nonce: 5,
            },
            Message::Ping,
            Message::Pong,
            Message::PeerHello {
                from: PeerId(7),
                nonce: 1,
            },
            Message::PeerHelloAck {
                from: PeerId(9),
                nonce: 1,
            },
            Message::PeerData {
                data: Bytes::from_static(b"payload"),
            },
            Message::KeepAlive,
            Message::ErrorReply {
                code: ERR_UNKNOWN_PEER,
            },
            Message::SrvIntroduce {
                requester: PeerId(7),
                requester_public: ep("155.99.25.11:62000"),
                requester_private: ep("10.0.0.1:4321"),
                target: PeerId(9),
                nonce: 0xdead,
            },
            Message::SrvIntroduceReply {
                requester: PeerId(7),
                target: PeerId(9),
                target_public: ep("138.76.29.7:31000"),
                target_private: ep("10.1.1.3:4321"),
                nonce: 0xdead,
            },
            Message::SrvIntroduceErr {
                requester: PeerId(7),
                target: PeerId(9),
                nonce: 0xdead,
            },
            Message::SrvRelay {
                from: PeerId(7),
                target: PeerId(9),
                data: Bytes::from_static(b"hi"),
            },
        ]
    }

    /// Every message at its longest encodes within the stand-in's inline
    /// capacity (`bytes::INLINE_CAP`), so encoding one allocates nothing:
    /// a control message whole, a data-carrying one up to its payload,
    /// which a TCP frame sends as a part of its own, shared with the
    /// message. The longest, the fleet's 40 B introductions, fill the
    /// capacity exactly; a field added to any message fails here.
    /// `encode_signed` tags such a body, so the longest signed datagram,
    /// 48 B, is over the capacity and is allocated (only a fleet that
    /// shares a secret signs).
    #[test]
    fn every_message_encodes_within_the_inline_capacity() {
        let big = Bytes::from(vec![0x42u8; MAX_PAYLOAD + 1]);
        let mut longest = 0;
        for msg in all_messages() {
            let msg = match msg {
                Message::RelayData { from, target, .. } => Message::RelayData {
                    from,
                    target,
                    data: big.clone(),
                },
                Message::RelayedData { from, .. } => Message::RelayedData {
                    from,
                    data: big.clone(),
                },
                Message::PeerData { .. } => Message::PeerData {
                    data: big.slice(1..),
                },
                Message::SrvRelay { from, target, .. } => Message::SrvRelay {
                    from,
                    target,
                    data: big.clone(),
                },
                m => m,
            };
            let server_to_server = matches!(
                msg,
                Message::SrvIntroduce { .. }
                    | Message::SrvIntroduceReply { .. }
                    | Message::SrvIntroduceErr { .. }
                    | Message::SrvRelay { .. }
            );
            for obf in [false, true] {
                let carried = msg.payload().map_or(0, Bytes::len);
                let head = msg.encode(obf).len() - carried;
                assert!(
                    head <= bytes::INLINE_CAP,
                    "{msg:?}: {head} B before its payload"
                );
                longest = longest.max(head);
                let signed = encode_signed(&msg, obf, 7).len() - carried;
                assert_eq!(signed, head + AUTH_TAG_LEN, "{msg:?}: signed");

                // Only server-to-server messages, which travel as
                // datagrams, have a frame head over the capacity.
                let [frame_head, payload] = encode_frame(&msg, obf);
                assert_eq!(frame_head.len(), 2 + head);
                assert!(
                    server_to_server || frame_head.len() <= bytes::INLINE_CAP,
                    "{msg:?}: frame head"
                );
                assert_eq!(payload.len(), carried);
                if let Some(data) = msg.payload() {
                    assert_eq!(
                        payload.as_ptr(),
                        data.as_ptr(),
                        "{msg:?}: a frame shares its payload"
                    );
                }
            }
        }
        assert_eq!(
            longest,
            bytes::INLINE_CAP,
            "the longest control message fills the capacity"
        );
    }

    #[test]
    fn roundtrip_plain_and_obfuscated() {
        for msg in all_messages() {
            for obf in [false, true] {
                let enc = msg.encode(obf);
                let dec = Message::decode(&enc).unwrap_or_else(|e| panic!("{msg:?} ({obf}): {e}"));
                assert_eq!(dec, msg, "obfuscate={obf}");
            }
        }
    }

    #[test]
    fn obfuscation_hides_address_octets() {
        let msg = Message::Register {
            peer_id: PeerId(1),
            private: ep("10.0.0.1:4321"),
        };
        let plain = msg.encode(false);
        let obf = msg.encode(true);
        let octets = [10u8, 0, 0, 1];
        let contains = |hay: &[u8], needle: &[u8]| hay.windows(needle.len()).any(|w| w == needle);
        assert!(contains(&plain, &octets));
        assert!(!contains(&obf, &octets));
    }

    #[test]
    fn truncated_inputs_error_not_panic() {
        for msg in all_messages() {
            let enc = msg.encode(false);
            for cut in 0..enc.len() {
                if let Ok(m) = Message::decode(&enc[..cut]) {
                    // Prefix-decoding may succeed only for messages whose
                    // tail is a suffix of another valid encoding; none of
                    // ours are, except exact length.
                    assert_eq!(cut, enc.len(), "short decode produced {m:?}");
                }
            }
        }
    }

    #[test]
    fn bad_version_and_tag() {
        assert_eq!(
            Message::decode(&[9, TAG_PING]),
            Err(WireError::BadVersion(9))
        );
        assert_eq!(
            Message::decode(&[VERSION, 200]),
            Err(WireError::BadTag(200))
        );
        assert_eq!(Message::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for msg in all_messages() {
            for obf in [false, true] {
                let mut enc = msg.encode(obf).to_vec();
                enc.push(0x00);
                assert_eq!(
                    Message::decode(&enc),
                    Err(WireError::TrailingBytes(1)),
                    "{msg:?} obfuscate={obf}"
                );
                enc.extend_from_slice(b"junk");
                assert_eq!(Message::decode(&enc), Err(WireError::TrailingBytes(5)));
            }
        }
    }

    #[test]
    fn signed_roundtrip_and_forgery_rejection() {
        let secret = 0x5eed_f1ee_7001_u64;
        for msg in all_messages() {
            for obf in [false, true] {
                let enc = encode_signed(&msg, obf, secret);
                assert_eq!(enc.len(), msg.encode(obf).len() + AUTH_TAG_LEN);
                assert_eq!(decode_signed(&enc, secret), Ok(msg.clone()));
                // Wrong secret: the forger guessed the format but not the key.
                assert_eq!(
                    decode_signed(&enc, secret ^ 1),
                    Err(WireError::BadAuth),
                    "{msg:?}"
                );
                // Unsigned bytes fail verification (no valid tag suffix).
                assert_eq!(
                    decode_signed(&msg.encode(obf), secret),
                    Err(WireError::BadAuth),
                    "{msg:?}"
                );
                // The strict plain decoder still rejects the signed form,
                // seeing the tag as trailing garbage.
                assert_eq!(
                    Message::decode(&enc),
                    Err(WireError::TrailingBytes(AUTH_TAG_LEN))
                );
            }
        }
    }

    #[test]
    fn auth_tag_covers_every_body_byte() {
        let secret = 42_u64;
        let msg = Message::SrvIntroduceErr {
            requester: PeerId(7),
            target: PeerId(9),
            nonce: 0xdead,
        };
        let enc = encode_signed(&msg, false, secret);
        for i in 0..enc.len() - AUTH_TAG_LEN {
            let mut bent = enc.to_vec();
            bent[i] ^= 0x80;
            assert!(
                decode_signed(&bent, secret).is_err(),
                "flipping body byte {i} must not verify"
            );
        }
    }

    #[test]
    fn framebuf_overflow_poisons_the_stream() {
        let mut fb = FrameBuf::new();
        // Declare a lawful MAX_FRAME frame so the reassembler must
        // buffer, then keep streaming bytes past the cap.
        fb.push(&u16::try_from(MAX_FRAME).unwrap().to_be_bytes());
        let chunk = vec![0u8; 4096];
        for _ in 0..(MAX_BUFFER / chunk.len() + 2) {
            fb.push(&chunk);
        }
        assert_eq!(fb.next_message(), Some(Err(WireError::Oversize(MAX_BUFFER))));
        // Poisoned: further input is ignored, the error persists.
        fb.push(&encode_frame(&Message::Ping, false).concat());
        assert_eq!(fb.next_message(), Some(Err(WireError::Oversize(MAX_BUFFER))));
    }

    #[test]
    fn framebuf_accepts_bursts_below_the_cap() {
        // Four maximal frames back to back exactly fill the cap and
        // decode (body = version + tag + u16 length + data).
        let big = Message::PeerData {
            data: Bytes::from(vec![0x42u8; MAX_FRAME - 4]),
        };
        let frame = encode_frame(&big, false).concat();
        let mut fb = FrameBuf::new();
        for _ in 0..4 {
            fb.push(&frame);
        }
        for _ in 0..4 {
            assert_eq!(fb.next_message(), Some(Ok(big.clone())));
        }
        assert_eq!(fb.next_message(), None);
    }

    #[test]
    fn a_max_payload_fits_one_frame_under_every_data_message() {
        let (from, target) = (PeerId(1), PeerId(2));
        let data = Bytes::from(vec![0x42u8; MAX_PAYLOAD]);
        // A relayed payload travels behind its one-byte relay kind.
        let relayed = Bytes::from(vec![0x42u8; MAX_PAYLOAD + 1]);
        let carriers = [
            Message::PeerData { data },
            Message::RelayData { from, target, data: relayed.clone() },
            Message::RelayedData { from, data: relayed.clone() },
            Message::SrvRelay { from, target, data: relayed },
        ];
        let mut longest = 0;
        for msg in carriers {
            let mut fb = FrameBuf::new();
            fb.push(&encode_frame(&msg, true).concat());
            longest = longest.max(msg.encode(true).len());
            assert_eq!(fb.next_message(), Some(Ok(msg)));
        }
        assert_eq!(longest, MAX_FRAME, "MAX_PAYLOAD is the most the longest header leaves");
    }

    #[test]
    fn frame_reassembly_across_arbitrary_chunks() {
        let msgs = all_messages();
        let mut stream = BytesMut::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m, false).concat());
        }
        // Feed in 3-byte chunks.
        let mut fb = FrameBuf::new();
        let mut decoded = Vec::new();
        for chunk in stream.chunks(3) {
            fb.push(chunk);
            while let Some(m) = fb.next_message() {
                decoded.push(m.unwrap());
            }
        }
        assert_eq!(decoded, msgs);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut fb = FrameBuf::new();
        fb.push(&(u16::MAX).to_be_bytes());
        assert_eq!(
            fb.next_message(),
            Some(Err(WireError::FrameTooLarge(u16::MAX as usize)))
        );
    }

    #[test]
    fn empty_and_partial_frames_wait_for_more() {
        let mut fb = FrameBuf::new();
        assert!(fb.next_message().is_none());
        fb.push(&[0]);
        assert!(fb.next_message().is_none());
        let frame = encode_frame(&Message::Ping, false).concat();
        fb.push(&frame[1..]); // complete the length byte + body
        assert_eq!(fb.next_message(), Some(Ok(Message::Ping)));
    }
}
