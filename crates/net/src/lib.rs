//! # punch-net — deterministic discrete-event IPv4 network simulator
//!
//! This crate is the "Internet" substrate for the hole-punching
//! reproduction of *Peer-to-Peer Communication Across Network Address
//! Translators* (Ford, Srisuresh & Kegel, USENIX 2005).
//!
//! Everything the paper's techniques depend on — packet ordering races,
//! middlebox state, latency asymmetry, loss — is modelled here as a
//! single-threaded, seeded, discrete-event simulation:
//!
//! - [`Sim`] owns a set of nodes connected by point-to-point [`LinkSpec`]
//!   links with latency, jitter and loss (bandwidth is infinite).
//! - Each node hosts a [`Device`]: a router, a NAT (in `punch-nat`), or a
//!   host protocol stack (in `punch-transport`).
//! - Devices receive [`Packet`]s and timer callbacks through a [`Ctx`]
//!   handle, and send packets out of numbered interfaces.
//!
//! Determinism: every source of randomness derives from the single `u64`
//! seed passed to [`Sim::new`]. Two runs with the same seed and the same
//! sequence of API calls produce byte-identical runs.
//!
//! # Examples
//!
//! ```
//! use punch_net::{Endpoint, LinkSpec, Packet, Sim};
//! use punch_net::testutil::{EchoDevice, SinkDevice};
//!
//! let mut sim = Sim::new(42);
//! let a = sim.add_node("a", Box::new(SinkDevice::default()));
//! let b = sim.add_node("b", Box::new(EchoDevice::default()));
//! sim.connect(a, b, LinkSpec::lan());
//! let pkt = Packet::udp(
//!     Endpoint::new([10, 0, 0, 1].into(), 1000),
//!     Endpoint::new([10, 0, 0, 2].into(), 2000),
//!     b"hello".as_ref(),
//! );
//! // Hand the packet to `a`'s device, then let it bounce off the echo at `b`.
//! sim.with_node(a, |_, ctx| ctx.send(0, pkt));
//! sim.run_until_idle();
//! assert_eq!(sim.device::<EchoDevice>(b).received, 1);
//! assert_eq!(sim.device::<SinkDevice>(a).packets.len(), 1);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types)]

pub mod addr;
pub mod calendar;
pub mod fault;
pub mod flat;
pub mod json;
pub mod link;
pub mod metrics;
pub mod node;
pub mod packet;
mod pool;
pub mod router;
pub mod seed;
pub mod sim;
pub mod testutil;
pub mod time;

pub use addr::{Cidr, Endpoint};
pub use fault::{FaultPlan, LinkAction, FAULT_RESTART};
pub use json::Json;
pub use link::LinkSpec;
pub use metrics::{Counters, Histogram, MetricKey, MetricsSnapshot};
pub use node::{Ctx, Device, IfaceId, NodeId};
pub use packet::{Body, IcmpKind, IcmpMessage, Packet, Proto, TcpFlags, TcpSegment};
pub use router::Router;
pub use sim::{LinkId, QueueStats, Sim, SimStats};
pub use time::SimTime;

/// Re-export of [`std::time::Duration`], used for all time intervals.
pub use std::time::Duration;
