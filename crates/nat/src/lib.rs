//! # punch-nat — configurable NAT middlebox models
//!
//! Simulated NAT devices for the hole-punching reproduction of Ford,
//! Srisuresh & Kegel (USENIX 2005). Every behaviour the paper identifies
//! as decisive for P2P traversal is an explicit configuration axis on
//! [`NatBehavior`]:
//!
//! - **Mapping** (§5.1): endpoint-independent ("cone") vs address(-and-
//!   port)-dependent ("symmetric") endpoint translation.
//! - **Filtering**: full-cone / restricted / port-restricted inbound rules.
//! - **Unsolicited TCP handling** (§5.2): silent drop vs RST vs ICMP.
//! - **Hairpin translation** (§3.5, §5.4): none / broken / full.
//! - **Payload mangling** (§5.3): blind rewriting of address-like bytes.
//! - **Timers** (§3.6): UDP idle timeouts, TCP state-aware lifetimes.
//! - **Port allocation**: preserving / sequential / random (the substrate
//!   for §5.1 port-prediction experiments).
//!
//! Every device is a NAPT (§2.1): its private hosts share its one public
//! address, and session endpoints are rewritten. [`NatDevice`] plugs
//! into a [`punch_net::Sim`] node: interface 0 is the public side, later
//! interfaces are private links. [`vendors`] provides
//! per-vendor behaviour distributions calibrated against the paper's
//! Table 1 for the survey reproduction.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::disallowed_types)]

pub mod behavior;
pub mod device;
pub mod mangle;
pub mod table;
pub mod vendors;

pub use behavior::{
    FilteringPolicy, Hairpin, MappingPolicy, NatBehavior, PortAllocation, TcpUnsolicited,
};
pub use device::{NatDevice, NatStats, PUBLIC_IFACE};
pub use mangle::rewrite_addr;
pub use table::{MapEntry, MapId, MapKey, NatTables, TcpTrack};
pub use vendors::{SampledNat, VendorProfile, VendorSpec, VENDORS};
