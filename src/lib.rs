//! # p2p-punch — Peer-to-Peer Communication Across NATs
//!
//! A complete, simulator-backed reproduction of *Peer-to-Peer
//! Communication Across Network Address Translators* (Bryan Ford, Pyda
//! Srisuresh, Dan Kegel — USENIX ATC 2005): UDP and TCP hole punching,
//! the NAT behaviour taxonomy that decides their fate, and the NAT Check
//! survey behind the paper's Table 1.
//!
//! This façade crate re-exports the whole stack:
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | [`net`] | `punch-net` | deterministic discrete-event IPv4 network |
//! | [`transport`] | `punch-transport` | userspace UDP + RFC 793 TCP with Berkeley-socket semantics |
//! | [`nat`] | `punch-nat` | configurable NAT middleboxes + Table 1 vendor populations |
//! | [`rendezvous`] | `punch-rendezvous` | the well-known server *S*, relaying, reversal |
//! | [`punch`] | `holepunch` | **the paper's contribution**: the punching endpoints |
//! | [`natcheck`] | `punch-natcheck` | the §6 measurement tool and survey |
//! | [`lab`] | `punch-lab` | Figure 4/5/6 topology builders |
//!
//! # Examples
//!
//! A complete UDP hole punch across two NATs (the paper's Figure 5,
//! including its example addresses):
//!
//! ```
//! use p2p_punch::lab::{fig5, PeerSetup, Scenario};
//! use p2p_punch::nat::NatBehavior;
//! use p2p_punch::net::{Duration, SimTime};
//! use p2p_punch::punch::{PeerId, UdpPeer, UdpPeerConfig};
//!
//! let a_id = PeerId(1);
//! let b_id = PeerId(2);
//! let server = Scenario::server_endpoint();
//! let mut sc = fig5(
//!     42,
//!     NatBehavior::well_behaved(),
//!     NatBehavior::well_behaved(),
//!     PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(a_id, server))),
//!     PeerSetup::new(UdpPeer::new(UdpPeerConfig::new(b_id, server))),
//! );
//! sc.world.sim.run_for(Duration::from_secs(2)); // registration
//! sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, b_id));
//! let ok = sc.world.run_until_app::<UdpPeer>(sc.a, SimTime::from_secs(30), |p| {
//!     p.is_established(b_id)
//! });
//! assert!(ok, "punched through both NATs");
//!
//! // Every session keeps its punch latency: from the connect request to
//! // the winning answer (kept whether or not metrics are enabled).
//! let latency = sc.world.app::<UdpPeer>(sc.a).punch_latency(b_id).unwrap();
//! println!("punch took {latency:?}");
//! ```
//!
//! See `examples/` for full programs and `DESIGN.md`/`EXPERIMENTS.md` for
//! the experiment index.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types)]

/// The discrete-event network simulator (`punch-net`).
pub use punch_net as net;

/// Host transport stacks (`punch-transport`).
pub use punch_transport as transport;

/// NAT middlebox models (`punch-nat`).
pub use punch_nat as nat;

/// Rendezvous server and wire protocol (`punch-rendezvous`).
pub use punch_rendezvous as rendezvous;

/// The hole-punching endpoints (`holepunch`).
pub use holepunch as punch;

/// The NAT Check tool and Table 1 survey (`punch-natcheck`).
pub use punch_natcheck as natcheck;

/// Experiment topology builders (`punch-lab`).
pub use punch_lab as lab;

/// Frequently used items, for `use p2p_punch::prelude::*`.
pub mod prelude {
    pub use holepunch::{
        CandidateKind, CandidatePlan, CandidateSource, CandidateStamp, PeerEvent, PeerId,
        PredictionStrategy, PunchConfig, TcpPath, TcpPeer, TcpPeerConfig, TcpPunchMode, UdpPeer,
        UdpPeerConfig, Via,
    };
    pub use punch_lab::{addrs, fig4, fig5, fig6, PeerSetup, Scenario, World, WorldBuilder};
    pub use punch_nat::{
        FilteringPolicy, Hairpin, MappingPolicy, NatBehavior, NatDevice, PortAllocation,
        TcpUnsolicited,
    };
    pub use punch_net::{
        Duration, Endpoint, FaultPlan, LinkAction, LinkId, LinkSpec, MetricsSnapshot,
        Sim, SimTime, FAULT_RESTART,
    };
    pub use punch_rendezvous::{RendezvousServer, ServerConfig};
    pub use punch_transport::{App, HostDevice, Os, SockEvent, StackConfig, TcpFlavor};
}
