//! # punch-transport — userspace UDP + TCP over the simulator
//!
//! A host protocol stack with Berkeley-socket semantics, built for the
//! hole-punching reproduction of Ford, Srisuresh & Kegel (USENIX 2005):
//!
//! - UDP sockets with per-port demux.
//! - A compact but real RFC 793 TCP: three-way handshake, **simultaneous
//!   open** with SYN-ACK replay (§4.4 of the paper), RSTs, go-back-N
//!   retransmission with exponential backoff, FIN teardown, TIME-WAIT.
//! - `SO_REUSEADDR`/`SO_REUSEPORT` binding semantics (§4.1): one local TCP
//!   port shared by a listener and multiple outgoing connections.
//! - Both OS flavours of the §4.3 demux ambiguity, selected by
//!   [`TcpFlavor`]: BSD (the `connect()` succeeds) and Linux/Windows
//!   (`accept()` delivers; the `connect()` fails with "address in use").
//!
//! Applications implement [`App`] and run on a [`HostDevice`] node inside
//! a [`punch_net::Sim`]: `HostDevice<A>` holds its app inline, and the
//! default `HostDevice` (`HostDevice<Box<dyn App>>`) holds a boxed one,
//! for a world whose hosts run different apps. See the crate-level
//! example below.
//!
//! # Examples
//!
//! ```
//! use punch_net::{LinkSpec, Sim};
//! use punch_transport::{App, HostDevice, Os, SockEvent, StackConfig};
//!
//! /// Replies "pong" to every datagram.
//! struct PongServer;
//! impl App for PongServer {
//!     fn on_start(&mut self, os: &mut Os<'_, '_>) {
//!         os.udp_bind(1234).unwrap();
//!     }
//!     fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
//!         if let SockEvent::UdpReceived { sock, from, .. } = ev {
//!             os.udp_send(sock, from, b"pong".as_ref()).unwrap();
//!         }
//!     }
//! }
//!
//! /// Sends one ping and records the reply.
//! #[derive(Default)]
//! struct Pinger { got_pong: bool }
//! impl App for Pinger {
//!     fn on_start(&mut self, os: &mut Os<'_, '_>) {
//!         let sock = os.udp_bind(0).unwrap();
//!         os.udp_send(sock, "18.181.0.31:1234".parse().unwrap(), b"ping".as_ref()).unwrap();
//!     }
//!     fn on_event(&mut self, _os: &mut Os<'_, '_>, ev: SockEvent) {
//!         if matches!(ev, SockEvent::UdpReceived { .. }) {
//!             self.got_pong = true;
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(1);
//! let server = sim.add_node(
//!     "s",
//!     Box::new(HostDevice::new([18, 181, 0, 31].into(), StackConfig::default(), PongServer)),
//! );
//! let client = sim.add_node(
//!     "c",
//!     Box::new(HostDevice::new([10, 0, 0, 1].into(), StackConfig::default(), Pinger::default())),
//! );
//! sim.connect(client, server, LinkSpec::wan());
//! sim.run_until_idle();
//! assert!(sim.device::<HostDevice<Pinger>>(client).app::<Pinger>().got_pong);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types)]

pub mod config;
pub mod device;
pub mod error;
pub mod event;
pub mod seq;
pub mod socket;
pub mod stack;
pub mod tcb;

pub use config::{StackConfig, TcpFlavor};
pub use device::{App, HostDevice, Os};
pub use error::{SockResult, SocketError};
pub use event::SockEvent;
pub use socket::SocketId;
pub use stack::{ConnectOpts, HostStack};
pub use tcb::{StackStats, TcpState};
