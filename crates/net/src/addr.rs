//! Addressing: transport endpoints and CIDR prefixes.
//!
//! The paper's *session endpoint* (§2.1) is an (IP address, port) pair;
//! [`Endpoint`] models exactly that. [`Cidr`] is used by routing tables and
//! by NAT devices to decide which realm a packet belongs to.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// A transport session endpoint: an (IPv4 address, port number) pair.
///
/// This is the paper's §2.1 notion of endpoint — a TCP or UDP session is
/// identified by its two endpoints.
///
/// # Examples
///
/// ```
/// use punch_net::Endpoint;
///
/// let ep: Endpoint = "155.99.25.11:62000".parse().unwrap();
/// assert_eq!(ep.port, 62000);
/// assert_eq!(format!("{ep}"), "155.99.25.11:62000");
/// ```
///
/// Endpoints order by address octets, then port.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    /// IPv4 address.
    pub ip: Ipv4Addr,
    /// TCP or UDP port number.
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint from an address and port.
    pub const fn new(ip: Ipv4Addr, port: u16) -> Self {
        Endpoint { ip, port }
    }

    /// The all-zero endpoint, used as a wildcard bind address.
    pub const UNSPECIFIED: Endpoint = Endpoint::new(Ipv4Addr::UNSPECIFIED, 0);

    /// The address (big-endian, so compared as its octets) above the
    /// port: one integer that orders like `(ip.octets(), port)`.
    fn key(self) -> u64 {
        (u64::from(u32::from(self.ip)) << 16) | u64::from(self.port)
    }
}

// Every `FlatMap` / `BTreeMap` keyed by endpoints searches through this
// compare, so it is one integer compare.
impl Ord for Endpoint {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for Endpoint {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

// Every `KeyMap` keyed by endpoints hashes the same one integer.
impl std::hash::Hash for Endpoint {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.key());
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<(Ipv4Addr, u16)> for Endpoint {
    fn from((ip, port): (Ipv4Addr, u16)) -> Self {
        Endpoint::new(ip, port)
    }
}

impl From<([u8; 4], u16)> for Endpoint {
    fn from((octets, port): ([u8; 4], u16)) -> Self {
        Endpoint::new(Ipv4Addr::from(octets), port)
    }
}

/// Error returned when parsing an [`Endpoint`] or [`Cidr`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrParseError(String);

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address syntax: {}", self.0)
    }
}

impl std::error::Error for AddrParseError {}

impl FromStr for Endpoint {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ip, port) = s.rsplit_once(':').ok_or_else(|| AddrParseError(s.into()))?;
        let ip: Ipv4Addr = ip.parse().map_err(|_| AddrParseError(s.into()))?;
        let port: u16 = port.parse().map_err(|_| AddrParseError(s.into()))?;
        Ok(Endpoint::new(ip, port))
    }
}

/// An IPv4 prefix in CIDR notation, e.g. `10.0.0.0/8`.
///
/// # Examples
///
/// ```
/// use punch_net::Cidr;
///
/// let lan: Cidr = "10.0.0.0/24".parse().unwrap();
/// assert!(lan.contains("10.0.0.7".parse().unwrap()));
/// assert!(!lan.contains("10.0.1.7".parse().unwrap()));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cidr {
    addr: Ipv4Addr,
    prefix_len: u8,
}

impl Cidr {
    /// The default route, `0.0.0.0/0`.
    pub const DEFAULT: Cidr = Cidr {
        addr: Ipv4Addr::UNSPECIFIED,
        prefix_len: 0,
    };

    /// Creates a prefix, masking `addr` down to `prefix_len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length {prefix_len} > 32");
        let masked = u32::from(addr) & Self::mask(prefix_len);
        Cidr {
            addr: Ipv4Addr::from(masked),
            prefix_len,
        }
    }

    /// A host route (`/32`) for a single address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Cidr::new(addr, 32)
    }

    /// Returns the network mask for a prefix length.
    fn mask(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len)
        }
    }

    /// Returns the prefix length in bits.
    pub const fn prefix_len(self) -> u8 {
        self.prefix_len
    }

    /// Returns the (masked) network address.
    pub const fn network(self) -> Ipv4Addr {
        self.addr
    }

    /// Returns true if `addr` falls within this prefix.
    pub fn contains(self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & Self::mask(self.prefix_len) == u32::from(self.addr)
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix_len)
    }
}

impl fmt::Debug for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl FromStr for Cidr {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| AddrParseError(s.into()))?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| AddrParseError(s.into()))?;
        let len: u8 = len.parse().map_err(|_| AddrParseError(s.into()))?;
        if len > 32 {
            return Err(AddrParseError(s.into()));
        }
        Ok(Cidr::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn endpoint_roundtrip() {
        let ep: Endpoint = "138.76.29.7:31000".parse().unwrap();
        assert_eq!(ep, Endpoint::from(([138, 76, 29, 7], 31000)));
        assert_eq!(ep.to_string().parse::<Endpoint>().unwrap(), ep);
    }

    #[test]
    fn endpoint_parse_rejects_garbage() {
        assert!("".parse::<Endpoint>().is_err());
        assert!("1.2.3.4".parse::<Endpoint>().is_err());
        assert!("1.2.3.4:99999".parse::<Endpoint>().is_err());
        assert!("1.2.3:80".parse::<Endpoint>().is_err());
    }

    proptest! {
        /// Endpoints order as `(octets, port)`: every `FlatMap` and
        /// `BTreeMap` keyed by them iterates in that order, and pinned
        /// artifacts list their entries in it.
        #[test]
        fn endpoints_order_by_octets_then_port(
            a in (any::<[u8; 4]>(), any::<u16>()),
            b in (any::<[u8; 4]>(), any::<u16>()),
            share in 0u8..3,
        ) {
            // A third of the pairs share the address and a third differ
            // only in its last octet, so the port decides often.
            let b_octets = match share {
                0 => a.0,
                1 => [a.0[0], a.0[1], a.0[2], b.0[3]],
                _ => b.0,
            };
            let (x, y) = (Endpoint::from(a), Endpoint::from((b_octets, b.1)));
            let expected = (a.0, a.1).cmp(&(b_octets, b.1));
            prop_assert_eq!(x.cmp(&y), expected);
            prop_assert_eq!(x.partial_cmp(&y), Some(expected));
            prop_assert_eq!(x == y, expected.is_eq());
        }

        /// A `KeyMap` keyed by endpoints finds a key exactly where `==`
        /// would: two endpoints hash equal when, and only when, they
        /// compare equal.
        #[test]
        fn endpoints_hash_equal_exactly_when_equal(
            a in (any::<[u8; 4]>(), any::<u16>()),
            b in (any::<[u8; 4]>(), any::<u16>()),
            share in 0u8..4,
        ) {
            // Equal endpoints, the same address on another port, the
            // same port on another address, and two unrelated ones.
            let (b_octets, b_port) = match share {
                0 => a,
                1 => (a.0, b.1),
                2 => (b.0, a.1),
                _ => b,
            };
            let (x, y) = (Endpoint::from(a), Endpoint::from((b_octets, b_port)));
            let hasher = BuildHasherDefault::<crate::flat::MixHasher>::default();
            prop_assert_eq!(hasher.hash_one(x) == hasher.hash_one(y), x == y);
        }
    }

    #[test]
    fn cidr_masks_host_bits() {
        let c = Cidr::new([10, 0, 0, 77].into(), 24);
        assert_eq!(c.network(), Ipv4Addr::new(10, 0, 0, 0));
        assert_eq!(c.to_string(), "10.0.0.0/24");
    }

    #[test]
    fn cidr_contains() {
        let c: Cidr = "155.99.25.0/24".parse().unwrap();
        assert!(c.contains([155, 99, 25, 11].into()));
        assert!(!c.contains([155, 99, 26, 11].into()));
        assert!(Cidr::DEFAULT.contains([8, 8, 8, 8].into()));
    }

    #[test]
    fn cidr_host_route() {
        let c = Cidr::host([18, 181, 0, 31].into());
        assert!(c.contains([18, 181, 0, 31].into()));
        assert!(!c.contains([18, 181, 0, 32].into()));
        assert_eq!(c.prefix_len(), 32);
    }

    #[test]
    fn cidr_zero_prefix_mask() {
        // A /0 must not shift by 32 (UB in naive code).
        let c = Cidr::new([1, 2, 3, 4].into(), 0);
        assert_eq!(c.network(), Ipv4Addr::UNSPECIFIED);
    }

    #[test]
    fn cidr_parse_rejects_bad_len() {
        assert!("10.0.0.0/33".parse::<Cidr>().is_err());
        assert!("10.0.0.0".parse::<Cidr>().is_err());
    }

    #[test]
    #[should_panic(expected = "> 32")]
    fn cidr_new_panics_on_bad_len() {
        let _ = Cidr::new([0, 0, 0, 0].into(), 40);
    }
}
