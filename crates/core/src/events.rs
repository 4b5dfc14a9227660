//! Events surfaced by the hole-punching endpoints to their embedding
//! application.

use crate::candidates::CandidateStamp;
use bytes::Bytes;
use punch_net::Endpoint;
use punch_rendezvous::PeerId;
use punch_transport::SocketId;

/// How peer traffic travels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Via {
    /// A punched direct path.
    Direct,
    /// Relayed through the rendezvous server (§2.2 fallback).
    Relay,
}

/// How an established TCP stream surfaced in the socket API — the
/// observable §4.3 distinction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TcpPath {
    /// The asynchronous `connect()` completed.
    Connect,
    /// The stream arrived via `accept()` on the listen socket.
    Accept,
}

/// Events from a [`crate::UdpPeer`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum UdpPeerEvent {
    /// Registration with S completed; this is our public endpoint.
    Registered {
        /// Public endpoint as observed by S.
        public: Endpoint,
    },
    /// A hole-punched session with `peer` is up.
    Established {
        /// The peer.
        peer: PeerId,
        /// The remote endpoint the session locked in (§3.2 step 3) —
        /// private behind a common NAT, public across NATs.
        remote: Endpoint,
    },
    /// Punching `peer` failed (all volleys exhausted).
    PunchFailed {
        /// The peer.
        peer: PeerId,
    },
    /// Traffic to `peer` now flows through the relay.
    RelayActive {
        /// The peer.
        peer: PeerId,
    },
    /// Application data from `peer`.
    Data {
        /// The sending peer.
        peer: PeerId,
        /// Payload.
        data: Bytes,
        /// Path it arrived by.
        via: Via,
    },
    /// An established session stopped answering and was torn down; a
    /// subsequent send will re-punch on demand (§3.6).
    SessionDied {
        /// The peer.
        peer: PeerId,
    },
    /// A `send` to `peer` was refused and its payload dropped: `len`
    /// exceeds [`punch_rendezvous::MAX_PAYLOAD`], the most one message
    /// carries. The session is untouched.
    PayloadTooLarge {
        /// The peer the payload was for.
        peer: PeerId,
        /// The refused payload's length.
        len: usize,
    },
    /// The rendezvous server stopped acknowledging our periodic
    /// registrations (e.g. it restarted and lost its tables); the peer
    /// is re-registering. A fresh [`UdpPeerEvent::Registered`] follows
    /// once S answers again.
    ServerLost,
    /// The candidate race for `peer` settled: the per-candidate stamps
    /// record which endpoints were raced, when each was first probed and
    /// first answered, and which one won (`None` when the punch failed
    /// or fell back to the relay). Emitted alongside the terminal
    /// [`UdpPeerEvent::Established`] / [`UdpPeerEvent::RelayActive`] /
    /// [`UdpPeerEvent::PunchFailed`] event of the cycle.
    RaceSettled {
        /// The peer.
        peer: PeerId,
        /// The winning endpoint, if the race produced a direct path.
        winner: Option<Endpoint>,
        /// Final per-candidate stamps, in race order.
        candidates: Vec<CandidateStamp>,
    },
}

/// Events from a [`crate::TcpPeer`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TcpPeerEvent {
    /// Registration with S completed (over the TCP control connection).
    Registered {
        /// Public endpoint of the control connection as observed by S.
        public: Endpoint,
    },
    /// A peer-to-peer TCP stream is up and authenticated.
    Established {
        /// The peer.
        peer: PeerId,
        /// The stream socket.
        sock: SocketId,
        /// Whether it surfaced via `connect()` or `accept()` (§4.3).
        path: TcpPath,
        /// The remote endpoint of the winning stream.
        remote: Endpoint,
    },
    /// Punching `peer` failed before the deadline.
    PunchFailed {
        /// The peer.
        peer: PeerId,
    },
    /// Traffic to `peer` now flows through the relay (§2.2 fallback).
    RelayActive {
        /// The peer.
        peer: PeerId,
    },
    /// Stream data from a peer session.
    Data {
        /// The peer.
        peer: PeerId,
        /// Payload bytes.
        data: Bytes,
        /// Whether it arrived directly or via the relay.
        via: Via,
    },
    /// A `send` to `peer` was refused and its payload dropped: `len`
    /// exceeds [`punch_rendezvous::MAX_PAYLOAD`], the most one frame
    /// carries (a longer one would make the receiver abort the stream).
    /// The session is untouched.
    PayloadTooLarge {
        /// The peer the payload was for.
        peer: PeerId,
        /// The refused payload's length.
        len: usize,
    },
    /// The established stream to `peer` closed or reset.
    PeerClosed {
        /// The peer.
        peer: PeerId,
    },
    /// The candidate race for `peer` settled: per-candidate stamps for
    /// every raced endpoint and the winner (`None` when every connect
    /// and accept failed). Emitted alongside the terminal
    /// [`TcpPeerEvent::Established`] / [`TcpPeerEvent::RelayActive`] /
    /// [`TcpPeerEvent::PunchFailed`] event of the cycle.
    RaceSettled {
        /// The peer.
        peer: PeerId,
        /// The remote endpoint of the winning stream, if any.
        winner: Option<Endpoint>,
        /// Final per-candidate stamps, in race order.
        candidates: Vec<CandidateStamp>,
    },
}
