//! # holepunch — peer-to-peer communication across NATs
//!
//! The primary contribution of *Peer-to-Peer Communication Across Network
//! Address Translators* (Ford, Srisuresh & Kegel, USENIX 2005),
//! implemented as embeddable event-driven endpoints over the
//! `punch-net`/`punch-transport` substrate:
//!
//! - [`UdpPeer`] — UDP hole punching (§3): rendezvous registration,
//!   public+private candidate spraying with nonce authentication,
//!   lock-in of the first responsive endpoint, keepalives and on-demand
//!   re-punching (§3.6), relay fallback (§2.2), and the §5.1
//!   port-prediction variant for symmetric NATs.
//! - [`TcpPeer`] — TCP hole punching (§4): one reused local port for the
//!   control connection, listener, and simultaneous connects (§4.1–4.2);
//!   retry-on-error (step 4, surviving §5.2 RST-ing NATs); first
//!   authenticated stream wins (step 5), via `connect()` or `accept()`
//!   (§4.3); simultaneous-open handling (§4.4); the §4.5 sequential
//!   variant ([`TcpPunchMode::Sequential`]); and connection reversal
//!   (§2.3).
//! - [`CandidatePlan`] — the composable candidate-set racing engine both
//!   endpoints share: which endpoints to race (private, public,
//!   predicted-port windows from pluggable [`PredictionStrategy`]
//!   choices), in plan order.
//!
//! See the repository examples for complete programs.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types)]

pub mod candidates;
pub mod config;
pub mod events;
pub(crate) mod relay;
pub(crate) mod session;
pub mod tcp;
pub mod udp;

pub use candidates::{
    CandidateKind, CandidatePlan, CandidateSource, CandidateStamp, PredictionStrategy,
};
pub use config::{PunchConfig, TcpPeerConfig, TcpPunchMode, UdpPeerConfig};
pub use events::{PeerEvent, TcpPath, TcpPeerEvent, Via};
pub use tcp::{TcpPeer, TcpPeerStats};
pub use udp::{UdpPeer, UdpPeerStats};

/// Re-export: peer identity used across the rendezvous protocol.
pub use punch_rendezvous::PeerId;
