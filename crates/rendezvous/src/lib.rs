//! # punch-rendezvous — the well-known server *S* and its protocol
//!
//! The rendezvous infrastructure every technique in the paper leans on:
//!
//! - [`wire`]: a compact binary protocol for registration, introduction
//!   (§3.2 steps 1–2), relaying (§2.2), connection reversal (§2.3) and
//!   peer-to-peer authentication, with optional one's-complement
//!   obfuscation of endpoint addresses (§3.1) to survive payload-mangling
//!   NATs (§5.3).
//! - [`RendezvousServer`]: the server application, speaking the protocol
//!   over UDP and TCP on the same well-known port, with per-transport
//!   registration tables and TURN-style relay accounting.
//! - [`ring`]: highest-random-weight (rendezvous) hashing that maps each
//!   peer id to its k-of-n owning servers in a fleet, used identically by
//!   clients (where to register) and servers (where to forward an
//!   introduction whose target is registered elsewhere).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types)]

pub mod peer;
pub mod ring;
pub mod server;
pub mod wire;

pub use peer::PeerId;
pub use server::{RendezvousServer, ServerConfig, ServerStats, PROBE_PORT, SERVER_PORT};
pub use wire::{
    decode_signed, encode_frame, encode_signed, FrameBuf, Message, WireError,
    AUTH_TAG_LEN, ERR_TABLE_FULL, ERR_UNKNOWN_PEER, MAX_BUFFER, MAX_FRAME, MAX_PAYLOAD, VERSION,
};
