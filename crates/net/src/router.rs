//! A plain IPv4 router device.
//!
//! Routers model the "main, global address realm" of Figure 1 and the
//! interior of ISP networks in the multi-level scenario of Figure 6: they
//! forward packets by longest-prefix match, decrement TTL, and (optionally)
//! emit ICMP TTL-exceeded errors.

use crate::addr::Cidr;
use crate::node::{Ctx, Device, IfaceId};
use crate::packet::{IcmpKind, IcmpMessage, Packet};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// A static-routing IPv4 router.
///
/// Routes are installed with [`Router::add_route`]; lookups use longest
/// prefix match with ties broken by insertion order. Packets without a
/// matching route are dropped (and recorded in the trace as
/// `DROP(no-route)`).
///
/// # Examples
///
/// ```
/// use punch_net::{Router, Sim, LinkSpec};
/// use punch_net::testutil::SinkDevice;
///
/// let mut sim = Sim::new(0);
/// let r = sim.add_node("r", Box::new(Router::new()));
/// let a = sim.add_node("a", Box::new(SinkDevice::default()));
/// let (r_iface, _) = sim.connect(r, a, LinkSpec::lan());
/// sim.device_mut::<Router>(r).add_route("10.0.0.0/8".parse().unwrap(), r_iface);
/// ```
pub struct Router {
    /// `/32` host routes, split out of the linear table: a sharded-world
    /// router carries two host routes per punch session (one per NAT
    /// public address), so the common exact-match case must not pay a
    /// scan over the whole table.
    host: BTreeMap<Ipv4Addr, IfaceId>,
    /// All shorter-than-`/32` prefixes, matched linearly (such tables
    /// stay small — a handful of realm prefixes — even at scale).
    prefixes: Vec<(Cidr, IfaceId)>,
    /// Whether to send ICMP TTL-exceeded on expiry (default true).
    pub icmp_ttl_exceeded: bool,
    /// Address used as the source of ICMP errors this router originates.
    pub router_addr: Ipv4Addr,
}

impl Default for Router {
    fn default() -> Self {
        Router::new()
    }
}

impl Router {
    /// Creates a router with no routes.
    pub fn new() -> Self {
        Router {
            host: BTreeMap::new(),
            prefixes: Vec::new(),
            icmp_ttl_exceeded: true,
            router_addr: Ipv4Addr::UNSPECIFIED,
        }
    }

    /// Installs a route: packets whose destination matches `prefix` are
    /// forwarded out `iface`.
    pub fn add_route(&mut self, prefix: Cidr, iface: IfaceId) -> &mut Self {
        if prefix.prefix_len() == 32 {
            // Last insert wins on duplicates, matching what the linear
            // table's longest-prefix tie-break (last maximum) did.
            self.host.insert(prefix.network(), iface);
        } else {
            self.prefixes.push((prefix, iface));
        }
        self
    }

    /// Looks up the output interface for `dst` (longest prefix wins).
    fn lookup(&self, dst: Ipv4Addr) -> Option<IfaceId> {
        // A `/32` is the longest possible match, and only one host route
        // can cover `dst`, so a hit here is always the answer.
        if let Some(&iface) = self.host.get(&dst) {
            return Some(iface);
        }
        self.prefixes
            .iter()
            .filter(|(p, _)| p.contains(dst))
            .max_by_key(|(p, _)| p.prefix_len())
            .map(|&(_, iface)| iface)
    }
}

impl Device for Router {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, mut pkt: Packet) {
        if pkt.ttl <= 1 {
            ctx.note_drop("ttl-exceeded");
            if self.icmp_ttl_exceeded {
                let err = Packet::icmp(
                    crate::addr::Endpoint::new(self.router_addr, 0),
                    pkt.src,
                    IcmpMessage {
                        kind: IcmpKind::TtlExceeded,
                        original_proto: pkt.proto(),
                        original_src: pkt.src,
                        original_dst: pkt.dst,
                    },
                );
                if let Some(back) = self.lookup(pkt.src.ip) {
                    ctx.send(back, err);
                }
            }
            return;
        }
        pkt.ttl -= 1;
        match self.lookup(pkt.dst.ip) {
            Some(out) => ctx.send(out, pkt),
            None => ctx.note_drop("no-route"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Endpoint;
    use crate::link::LinkSpec;
    use crate::packet::Body;
    use crate::sim::Sim;
    use crate::testutil::SinkDevice;

    fn ep(s: &str) -> Endpoint {
        s.parse().unwrap()
    }

    fn topo() -> (Sim, crate::NodeId, crate::NodeId, crate::NodeId) {
        // a --- r --- b
        let mut sim = Sim::new(0);
        let r = sim.add_node("r", Box::new(Router::new()));
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        let (ra, _) = sim.connect(r, a, LinkSpec::lan());
        let (rb, _) = sim.connect(r, b, LinkSpec::lan());
        let router = sim.device_mut::<Router>(r);
        router.add_route("10.1.0.0/16".parse().unwrap(), ra);
        router.add_route("10.2.0.0/16".parse().unwrap(), rb);
        (sim, r, a, b)
    }

    #[test]
    fn forwards_by_prefix() {
        let (mut sim, r, a, b) = topo();
        sim.inject(
            r,
            0,
            Packet::udp(ep("10.1.0.1:1"), ep("10.2.0.1:1"), b"x".as_ref()),
        );
        sim.run_until_idle();
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 1);
        assert_eq!(sim.device::<SinkDevice>(a).packets.len(), 0);
    }

    #[test]
    fn longest_prefix_wins_regardless_of_order() {
        let mut router = Router::new();
        router.add_route("10.0.0.0/8".parse().unwrap(), 0);
        router.add_route("10.2.0.0/16".parse().unwrap(), 1);
        assert_eq!(router.lookup("10.2.3.4".parse().unwrap()), Some(1));
        assert_eq!(router.lookup("10.3.3.4".parse().unwrap()), Some(0));

        let mut router2 = Router::new();
        router2.add_route("10.2.0.0/16".parse().unwrap(), 1);
        router2.add_route("10.0.0.0/8".parse().unwrap(), 0);
        assert_eq!(router2.lookup("10.2.3.4".parse().unwrap()), Some(1));
    }

    #[test]
    fn host_routes_beat_prefixes_and_last_duplicate_wins() {
        let mut router = Router::new();
        router.add_route("10.0.0.0/8".parse().unwrap(), 0);
        router.add_route("10.2.3.4/32".parse().unwrap(), 1);
        assert_eq!(router.lookup("10.2.3.4".parse().unwrap()), Some(1));
        assert_eq!(router.lookup("10.2.3.5".parse().unwrap()), Some(0));
        // Re-installing a host route replaces it, exactly as the linear
        // table's tie-break (last of the equal-length matches) behaved.
        router.add_route("10.2.3.4/32".parse().unwrap(), 2);
        assert_eq!(router.lookup("10.2.3.4".parse().unwrap()), Some(2));
        // And a host route with no covering prefix still resolves.
        router.add_route("99.9.9.9/32".parse().unwrap(), 3);
        assert_eq!(router.lookup("99.9.9.9".parse().unwrap()), Some(3));
        assert_eq!(router.lookup("99.9.9.8".parse().unwrap()), None);
    }

    #[test]
    fn no_route_drops() {
        let (mut sim, r, a, b) = topo();
        sim.inject(
            r,
            0,
            Packet::udp(ep("10.1.0.1:1"), ep("99.9.9.9:1"), b"x".as_ref()),
        );
        sim.run_until_idle();
        assert_eq!(sim.device::<SinkDevice>(a).packets.len(), 0);
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 0);
        assert_eq!(sim.stats().device_drops, 1);
    }

    #[test]
    fn ttl_decrements_and_expires_with_icmp() {
        let (mut sim, r, a, _b) = topo();
        let mut pkt = Packet::udp(ep("10.1.0.1:1"), ep("10.2.0.1:1"), b"x".as_ref());
        pkt.ttl = 1;
        sim.inject(r, 0, pkt);
        sim.run_until_idle();
        // The ICMP error is routed back toward 10.1.0.1, i.e. to a.
        let sink = sim.device::<SinkDevice>(a);
        assert_eq!(sink.packets.len(), 1);
        match &sink.packets[0].1.body {
            Body::Icmp(m) => assert_eq!(m.kind, IcmpKind::TtlExceeded),
            other => panic!("expected ICMP, got {other:?}"),
        }
    }

    #[test]
    fn ttl_expiry_without_icmp_is_silent() {
        let (mut sim, r, a, _b) = topo();
        sim.device_mut::<Router>(r).icmp_ttl_exceeded = false;
        let mut pkt = Packet::udp(ep("10.1.0.1:1"), ep("10.2.0.1:1"), b"x".as_ref());
        pkt.ttl = 1;
        sim.inject(r, 0, pkt);
        sim.run_until_idle();
        assert_eq!(sim.device::<SinkDevice>(a).packets.len(), 0);
    }

    #[test]
    fn forwarded_packet_has_decremented_ttl() {
        let (mut sim, r, _a, b) = topo();
        sim.inject(
            r,
            0,
            Packet::udp(ep("10.1.0.1:1"), ep("10.2.0.1:1"), b"x".as_ref()),
        );
        sim.run_until_idle();
        assert_eq!(
            sim.device::<SinkDevice>(b).packets[0].1.ttl,
            crate::packet::DEFAULT_TTL - 1
        );
    }
}
