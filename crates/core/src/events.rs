//! Events surfaced by the hole-punching endpoints to their embedding
//! application.

use crate::candidates::CandidateStamp;
use bytes::Bytes;
use punch_net::Endpoint;
use punch_rendezvous::PeerId;

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

/// What a punching endpoint tells its application. Both carriers
/// speak it: §3.2 and §4.2 are one procedure, so an outcome is the same
/// event whichever of [`crate::UdpPeer`] and [`crate::TcpPeer`] carried
/// it. A variant only one of them emits says so.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PeerEvent {
    /// Registration with S completed (for a TCP peer, over its control
    /// connection).
    Registered {
        /// Public endpoint as observed by S.
        public: Endpoint,
    },
    /// A hole-punched session with `peer` is up and authenticated. A
    /// TCP peer tells whether the stream surfaced via `connect()` or
    /// `accept()` through [`crate::TcpPeer::established_path`] (§4.3).
    Established {
        /// The peer.
        peer: PeerId,
        /// The remote endpoint the session locked in (§3.2 step 3, §4.2
        /// step 5) — private behind a common NAT, public across NATs.
        remote: Endpoint,
    },
    /// Punching `peer` failed: every volley exhausted (UDP) or the
    /// deadline passed (TCP).
    PunchFailed {
        /// The peer.
        peer: PeerId,
    },
    /// Traffic to `peer` now flows through the relay (§2.2 fallback).
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
    /// A `send` to `peer` was refused and its payload dropped: `len`
    /// exceeds [`punch_rendezvous::MAX_PAYLOAD`], the most one message
    /// carries (over TCP a longer frame would make the receiver abort
    /// the stream). The session is untouched.
    PayloadTooLarge {
        /// The peer the payload was for.
        peer: PeerId,
        /// The refused payload's length.
        len: usize,
    },
    /// The candidate race for `peer` settled: the per-candidate stamps
    /// record which endpoints were raced, when each was first probed and
    /// first answered, and which one won (`None` when the punch failed
    /// or fell back to the relay). Emitted alongside the terminal
    /// [`PeerEvent::Established`] / [`PeerEvent::RelayActive`] /
    /// [`PeerEvent::PunchFailed`] event of the cycle.
    RaceSettled {
        /// The peer.
        peer: PeerId,
        /// The winning endpoint, if the race produced a direct path.
        winner: Option<Endpoint>,
        /// Final per-candidate stamps, in race order.
        candidates: Vec<CandidateStamp>,
    },
    /// UDP only: an established session stopped answering and was torn
    /// down; a subsequent send will re-punch on demand (§3.6).
    SessionDied {
        /// The peer.
        peer: PeerId,
    },
    /// UDP only: the rendezvous server stopped acknowledging our
    /// periodic registrations (e.g. it restarted and lost its tables);
    /// the peer is re-registering. A fresh [`PeerEvent::Registered`]
    /// follows once S answers again.
    ServerLost,
    /// TCP only: the established stream to `peer` closed or reset.
    PeerClosed {
        /// The peer.
        peer: PeerId,
    },
}

/// [`PeerEvent`] under a second name, kept only because the benchmark's
/// stream workload names it; it goes with ROADMAP item 1, as
/// `NatDevice::new`'s `Vec` does.
pub type TcpPeerEvent = PeerEvent;
