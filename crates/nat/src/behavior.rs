//! The NAT behaviour matrix.
//!
//! Every NAT property the paper identifies as relevant to hole punching
//! (§5.1–§5.4) is an explicit, orthogonal configuration axis here, using
//! the BEHAVE/RFC 4787 vocabulary. The RFC 3489 "cone"/"symmetric" names
//! the paper uses are provided as presets. The TCP idle timers and
//! refresh on traffic in both directions are fixed (see
//! [`NatBehavior::udp_timeout`]): no experiment varies them.

use std::time::Duration;

/// How the NAT chooses a public endpoint for outbound sessions from a
/// given private endpoint (RFC 4787 "mapping behaviour", paper §5.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MappingPolicy {
    /// One public endpoint per private endpoint, regardless of
    /// destination — the *cone NAT* property that makes hole punching
    /// work ("consistent endpoint translation").
    EndpointIndependent,
    /// A new public endpoint per (private endpoint, remote IP).
    AddressDependent,
    /// A new public endpoint per (private endpoint, remote IP+port) —
    /// the RFC 3489 *symmetric NAT*, which breaks plain hole punching.
    AddressAndPortDependent,
}

/// Which inbound packets may use an established mapping (RFC 4787
/// "filtering behaviour").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FilteringPolicy {
    /// Anyone may send to the public endpoint (*full cone*).
    EndpointIndependent,
    /// Only remote IPs previously contacted (*restricted cone*).
    AddressDependent,
    /// Only remote endpoints previously contacted (*port-restricted
    /// cone*). Combined with endpoint-independent mapping this is the
    /// most common P2P-friendly configuration.
    AddressAndPortDependent,
}

/// How public ports are chosen for new mappings.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PortAllocation {
    /// Try to reuse the private source port; fall back to scanning
    /// upward on collision.
    Preserving,
    /// Allocate sequentially from a base (the paper's examples — 62000,
    /// 62005 — show this common scheme; it is what makes §5.1 port
    /// prediction feasible against symmetric NATs).
    Sequential,
    /// Allocate uniformly at random from the pool (defeats prediction).
    Random,
}

/// What the NAT does with an unsolicited (or filtered) inbound TCP SYN
/// (paper §5.2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TcpUnsolicited {
    /// Silently drop — the P2P-friendly behaviour.
    Drop,
    /// Actively reject with a TCP RST, which aborts the peer's connect
    /// and forces the application-level retry of §4.2 step 4.
    Rst,
    /// Reject with an ICMP destination-unreachable error.
    IcmpError,
}

/// Hairpin (loopback) translation support (paper §3.5, §5.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Hairpin {
    /// Packets from the private side addressed to the NAT's own public
    /// endpoints are dropped.
    None,
    /// The destination is translated but the source is left as the
    /// private endpoint — a broken variant seen in the wild; replies
    /// bypass the NAT and peers see an unexpected source address.
    NoSourceRewrite,
    /// Both source and destination are translated ("well-behaved").
    Full,
}

/// Full behavioural configuration of a NAT device.
///
/// Set fields by assignment or with the `with_*` helpers, before the
/// device is built. It is a profile: NATs that behave alike share one
/// behind an `Arc` ([`crate::NatDevice::new`] takes either), and a
/// device's profile is never written through.
/// [`crate::FAULT_WELL_BEHAVED`] gives that one device a new profile
/// and leaves the others on the old one.
///
/// # Examples
///
/// ```
/// use punch_nat::{NatBehavior, MappingPolicy};
/// use std::time::Duration;
///
/// let nat = NatBehavior::well_behaved()
///     .with_udp_timeout(Duration::from_secs(20)); // §3.6's worst case
/// assert_eq!(nat.mapping, MappingPolicy::EndpointIndependent);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct NatBehavior {
    /// Mapping (endpoint translation) policy.
    pub mapping: MappingPolicy,
    /// Optional distinct mapping policy for TCP sessions; `None` means TCP
    /// uses [`NatBehavior::mapping`]. Real devices track UDP and TCP
    /// translation separately, and Table 1 shows vendors whose TCP
    /// consistency differs from their UDP consistency.
    pub tcp_mapping: Option<MappingPolicy>,
    /// Inbound filtering policy.
    pub filtering: FilteringPolicy,
    /// Public port selection strategy.
    pub port_alloc: PortAllocation,
    /// First port tried by the sequential allocator.
    pub port_base: u16,
    /// Response to unsolicited inbound TCP SYNs.
    pub tcp_unsolicited: TcpUnsolicited,
    /// Hairpin behaviour for UDP.
    pub hairpin_udp: Hairpin,
    /// Hairpin behaviour for TCP.
    pub hairpin_tcp: Hairpin,
    /// Whether hairpinned packets are subjected to inbound filtering as
    /// if they had arrived at the public side (the §6.3 caveat).
    pub hairpin_filters: bool,
    /// Idle timeout for UDP mappings (§3.6: as short as 20 s in the wild).
    /// TCP mappings idle out after an hour once established, after 60 s
    /// while half-open and after 10 s while closing. Traffic in either
    /// direction refreshes a mapping's idle timer.
    pub udp_timeout: Duration,
    /// Whether idle timers apply to individual sessions (endpoint pairs)
    /// rather than whole mappings. §3.6: "many NATs associate UDP idle
    /// timers with individual UDP sessions..., so sending keep-alives on
    /// one session will not keep other sessions active even if all the
    /// sessions originate from the same private endpoint."
    pub per_session_timers: bool,
    /// Whether the NAT blindly rewrites 4-byte IP-address-like values it
    /// finds in packet payloads (the §5.3 misbehaviour).
    pub mangle_payloads: bool,
    /// The §6.3 contention misbehaviour: the NAT translates consistently
    /// while only one client uses a given private port, but "switches to
    /// symmetric NAT or even worse behaviors" once two clients with
    /// different private IPs share that port number. Single-client NAT
    /// Check cannot see this; the paired check (`punch-natcheck::pair`)
    /// can.
    pub contention_breaks_consistency: bool,
    /// Hard cap on live mappings. When full, a new allocation evicts an
    /// existing mapping (see [`NatBehavior::fair_eviction`]) — the
    /// consumer-router table limit that ReDAN-style exhaustion floods
    /// target. `None` (the default) models an unbounded table.
    pub max_mappings: Option<usize>,
    /// Defense knob: maximum live mappings any single private source IP
    /// may hold. Allocations beyond the quota are refused, so one
    /// flooding host cannot monopolise a capped table. `None` (default)
    /// disables the quota.
    pub per_source_quota: Option<usize>,
    /// Defense knob: when the capped table is full, evict the oldest
    /// mapping *of the heaviest source* instead of the globally oldest
    /// mapping. Off (default), a flooder's fresh mappings push out every
    /// other host's older ones; on, the flood cannibalises itself.
    pub fair_eviction: bool,
}

impl NatBehavior {
    /// The paper's "well-behaved" P2P-friendly NAT: endpoint-independent
    /// mapping, port-restricted-cone filtering, silently dropped
    /// unsolicited SYNs, full hairpin, sane timers.
    pub fn well_behaved() -> Self {
        NatBehavior {
            mapping: MappingPolicy::EndpointIndependent,
            tcp_mapping: None,
            filtering: FilteringPolicy::AddressAndPortDependent,
            port_alloc: PortAllocation::Sequential,
            port_base: 62000,
            tcp_unsolicited: TcpUnsolicited::Drop,
            hairpin_udp: Hairpin::Full,
            hairpin_tcp: Hairpin::Full,
            hairpin_filters: false,
            udp_timeout: Duration::from_secs(120),
            per_session_timers: true,
            mangle_payloads: false,
            contention_breaks_consistency: false,
            max_mappings: None,
            per_source_quota: None,
            fair_eviction: false,
        }
    }

    /// RFC 3489 *full cone*: endpoint-independent mapping and filtering.
    pub fn full_cone() -> Self {
        NatBehavior {
            filtering: FilteringPolicy::EndpointIndependent,
            ..Self::well_behaved()
        }
    }

    /// RFC 3489 *restricted cone*: address-dependent filtering.
    pub fn restricted_cone() -> Self {
        NatBehavior {
            filtering: FilteringPolicy::AddressDependent,
            ..Self::well_behaved()
        }
    }

    /// RFC 3489 *port-restricted cone* (same as [`NatBehavior::well_behaved`]
    /// but without hairpin, matching the common consumer router).
    pub fn port_restricted_cone() -> Self {
        NatBehavior {
            hairpin_udp: Hairpin::None,
            hairpin_tcp: Hairpin::None,
            ..Self::well_behaved()
        }
    }

    /// RFC 3489 *symmetric NAT*: a fresh public endpoint per destination;
    /// plain hole punching fails (§5.1).
    pub fn symmetric() -> Self {
        NatBehavior {
            mapping: MappingPolicy::AddressAndPortDependent,
            hairpin_udp: Hairpin::None,
            hairpin_tcp: Hairpin::None,
            ..Self::well_behaved()
        }
    }

    /// Sets the UDP idle timeout.
    pub fn with_udp_timeout(mut self, t: Duration) -> Self {
        self.udp_timeout = t;
        self
    }

    /// Sets the port allocation strategy.
    pub fn with_port_alloc(mut self, p: PortAllocation) -> Self {
        self.port_alloc = p;
        self
    }

    /// Sets both hairpin axes at once.
    pub fn with_hairpin(mut self, h: Hairpin) -> Self {
        self.hairpin_udp = h;
        self.hairpin_tcp = h;
        self
    }

    /// Sets the response to unsolicited TCP SYNs.
    pub fn with_tcp_unsolicited(mut self, t: TcpUnsolicited) -> Self {
        self.tcp_unsolicited = t;
        self
    }

    /// Caps the mapping table at `n` live entries (eviction on overflow).
    pub fn with_max_mappings(mut self, n: usize) -> Self {
        self.max_mappings = Some(n);
        self
    }

    /// Enables the per-source allocation quota defense.
    pub fn with_per_source_quota(mut self, n: usize) -> Self {
        self.per_source_quota = Some(n);
        self
    }

    /// Enables the flood-resistant (heaviest-source-first) eviction
    /// policy for capped tables.
    pub fn with_fair_eviction(mut self) -> Self {
        self.fair_eviction = true;
        self
    }

    /// The mapping policy effective for `tcp` (true) or UDP (false).
    pub fn mapping_for_tcp(&self, tcp: bool) -> MappingPolicy {
        if tcp {
            self.tcp_mapping.unwrap_or(self.mapping)
        } else {
            self.mapping
        }
    }

    /// Returns true if this configuration supports UDP hole punching in
    /// the single-level two-NAT scenario (the §5.1 precondition).
    pub fn supports_udp_hole_punching(&self) -> bool {
        self.mapping == MappingPolicy::EndpointIndependent
    }

    /// Returns true if this configuration supports TCP hole punching:
    /// consistent mapping and no active RST/ICMP rejection of unsolicited
    /// SYNs (§5.1 + §5.2; rejection is "not necessarily fatal" but NAT
    /// Check counts it as incompatible, and so do we).
    // punch-lint: allow(S005) §5.1–5.2 TCP precondition: the nat vendors suite checks Table 1's TCP column (33 of 38) against it
    pub fn supports_tcp_hole_punching(&self) -> bool {
        self.mapping_for_tcp(true) == MappingPolicy::EndpointIndependent
            && self.tcp_unsolicited == TcpUnsolicited::Drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_rfc3489_taxonomy() {
        assert_eq!(
            NatBehavior::full_cone().filtering,
            FilteringPolicy::EndpointIndependent
        );
        assert_eq!(
            NatBehavior::restricted_cone().filtering,
            FilteringPolicy::AddressDependent
        );
        assert_eq!(
            NatBehavior::port_restricted_cone().filtering,
            FilteringPolicy::AddressAndPortDependent
        );
        assert_eq!(
            NatBehavior::symmetric().mapping,
            MappingPolicy::AddressAndPortDependent
        );
    }

    #[test]
    fn punching_support_predicates() {
        assert!(NatBehavior::well_behaved().supports_udp_hole_punching());
        assert!(NatBehavior::well_behaved().supports_tcp_hole_punching());
        assert!(!NatBehavior::symmetric().supports_udp_hole_punching());
        let rst = NatBehavior::well_behaved().with_tcp_unsolicited(TcpUnsolicited::Rst);
        assert!(rst.supports_udp_hole_punching());
        assert!(!rst.supports_tcp_hole_punching());
    }

    #[test]
    fn builders_compose() {
        let b = NatBehavior::full_cone()
            .with_udp_timeout(Duration::from_secs(20))
            .with_port_alloc(PortAllocation::Random)
            .with_hairpin(Hairpin::NoSourceRewrite);
        assert_eq!(b.udp_timeout, Duration::from_secs(20));
        assert_eq!(b.port_alloc, PortAllocation::Random);
        assert_eq!(b.hairpin_udp, Hairpin::NoSourceRewrite);
        assert_eq!(b.hairpin_tcp, Hairpin::NoSourceRewrite);
    }
}
