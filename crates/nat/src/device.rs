//! The NAT device: translation, filtering, hairpinning, and local
//! private-side switching.
//!
//! Interface convention: **interface 0 faces the public network** (connect
//! the NAT to its upstream first); every later interface is a private-side
//! link. The device learns which private host lives behind which interface
//! from outbound traffic, like a switch learning MAC addresses.
//!
//! Each packet is translated with its mapping in hand: one search of
//! [`NatTables`] yields the entry, every verdict that can drop the packet
//! (filter, unknown host, TTL) is reached before the entry is written
//! to, and only a packet that is going to be forwarded refreshes a timer,
//! opens a filter hole, advances TCP tracking or pins a reverse binding.
//! Nothing holds a mapping across a call that can evict it; the one path
//! where that can happen (a hairpin whose sender needs room) looks its
//! target up again afterwards.

use crate::behavior::{
    Hairpin, MappingPolicy, NatBehavior, NatKind, PortAllocation, TcpUnsolicited,
};
use crate::mangle::rewrite_addr;
use crate::table::{MapEntry, MapId, NatTables};
use punch_net::flat::FlatMap;
use punch_net::{
    Body, Ctx, Device, Endpoint, IcmpKind, IcmpMessage, IfaceId, Packet, Proto, SimTime, TcpFlags,
    FAULT_RESTART,
};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::Ipv4Addr;
use std::time::Duration;

/// The public-facing interface index.
pub const PUBLIC_IFACE: IfaceId = 0;

/// Counters for assertions and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NatStats {
    /// New mappings created.
    pub mappings_created: u64,
    /// Inbound packets translated and delivered.
    pub inbound_passed: u64,
    /// Inbound packets dropped by filtering (or lacking any mapping).
    pub inbound_blocked: u64,
    /// TCP RSTs actively sent in response to unsolicited SYNs.
    pub rst_sent: u64,
    /// ICMP errors actively sent in response to unsolicited SYNs.
    pub icmp_sent: u64,
    /// Packets hairpinned back into the private network.
    pub hairpinned: u64,
    /// Packets switched locally between private hosts.
    pub switched_local: u64,
    /// Payloads rewritten by the §5.3 mangler.
    pub payloads_mangled: u64,
    /// Times the device rebooted, flushing all state.
    pub reboots: u64,
    /// Live mappings evicted to make room under a `max_mappings` cap.
    pub mappings_evicted: u64,
    /// Allocations refused by the per-source quota defense.
    pub quota_refused: u64,
}

/// A configurable NAT/NAPT middlebox.
///
/// # Examples
///
/// ```
/// use punch_nat::{NatBehavior, NatDevice};
///
/// let nat = NatDevice::new(NatBehavior::well_behaved(), vec!["155.99.25.11".parse().unwrap()]);
/// assert_eq!(nat.behavior().port_base, 62000);
/// ```
pub struct NatDevice {
    behavior: NatBehavior,
    public_ips: Vec<Ipv4Addr>,
    tables: NatTables,
    /// Learned private hosts; a home NAT has one to three.
    private_iface: FlatMap<Ipv4Addr, IfaceId>,
    /// Basic NAT: private IP → pool IP assignment.
    basic_assign: FlatMap<Ipv4Addr, Ipv4Addr>,
    next_seq_port: u16,
    stats: NatStats,
}

// One per NAT, boxed into the sim's device table: 40 000 of them in
// the benchmark's `crowd_udp`.
const _: () = assert!(std::mem::size_of::<NatDevice>() <= 320);

impl NatDevice {
    /// Creates a NAT owning the given public address(es). NAPT uses the
    /// first address; Basic NAT assigns one pool address per private host.
    ///
    /// # Panics
    ///
    /// Panics if `public_ips` is empty.
    pub fn new(behavior: NatBehavior, public_ips: Vec<Ipv4Addr>) -> Self {
        assert!(!public_ips.is_empty(), "a NAT needs at least one public IP");
        let next_seq_port = behavior.port_base;
        NatDevice {
            behavior,
            public_ips,
            tables: NatTables::new(),
            private_iface: FlatMap::new(),
            basic_assign: FlatMap::new(),
            next_seq_port,
            stats: NatStats::default(),
        }
    }

    /// Returns the behaviour configuration.
    pub fn behavior(&self) -> &NatBehavior {
        &self.behavior
    }

    /// Returns the primary public IP.
    pub fn public_ip(&self) -> Ipv4Addr {
        self.public_ips[0]
    }

    /// Returns the device counters.
    pub fn stats(&self) -> NatStats {
        self.stats
    }

    /// Returns the live translation tables (diagnostics/tests).
    // punch-lint: allow(S005) nat/tests/{nat_device,adversarial}.rs inspect the live tables under caps and floods
    pub fn tables(&self) -> &NatTables {
        &self.tables
    }

    /// Pre-registers a private host on an interface (normally learned
    /// from outbound traffic; useful to stage §3.4 "wrong host" tests).
    // punch-lint: allow(S005) nat/tests/nat_device.rs stages Figure 4's local switching before either host has sent
    pub fn add_private_host(&mut self, ip: Ipv4Addr, iface: IfaceId) {
        self.private_iface.insert(ip, iface);
    }

    /// Reboots the device: every translation, learned host, and pool
    /// assignment is lost, and the sequential port allocator resumes
    /// from a shifted base — so sessions that survived in the endpoints'
    /// memory now point at mappings that no longer exist, and fresh
    /// outbound traffic receives *different* public endpoints. This is
    /// the middlebox failure mode that forces peers to re-run hole
    /// punching (§3.5's rationale for keepalives and on-demand repair).
    fn reboot(&mut self) {
        self.stats.reboots += 1;
        self.tables = NatTables::new();
        self.private_iface = FlatMap::new();
        self.basic_assign = FlatMap::new();
        // Shift the pool per reboot; a reboot that handed out identical
        // ports again would heal sessions transparently and hide the
        // fault from recovery logic.
        self.next_seq_port = self
            .behavior
            .port_base
            .wrapping_add((self.stats.reboots as u16).wrapping_mul(512))
            .max(1024);
    }

    /// Replaces the behaviour configuration in place, keeping existing
    /// mappings. Models a reconfigured middlebox (e.g. a firmware update
    /// fixing a symmetric NAT); new mappings follow the new policy.
    pub fn set_behavior(&mut self, behavior: NatBehavior) {
        self.behavior = behavior;
    }

    /// Allocates a public endpoint per the configured policy, or assigns
    /// a Basic-NAT pool address. `None` when the pool is exhausted.
    fn alloc_public(
        &mut self,
        rng: &mut StdRng,
        proto: Proto,
        private: Endpoint,
    ) -> Option<Endpoint> {
        let (behavior, tables) = (&self.behavior, &self.tables);
        if behavior.kind == NatKind::Basic {
            let ip = match self.basic_assign.get(&private.ip) {
                Some(ip) => *ip,
                None => {
                    let used = |ip: &&Ipv4Addr| self.basic_assign.values().any(|u| u == *ip);
                    let ip = *self.public_ips.iter().find(|ip| !used(ip))?;
                    self.basic_assign.insert(private.ip, ip);
                    ip
                }
            };
            let ep = Endpoint::new(ip, private.port);
            return (!tables.public_in_use(proto, ep)).then_some(ep);
        }
        let ip = self.public_ips[0];
        let free = |p: u16| !tables.public_in_use(proto, Endpoint::new(ip, p));
        let scan_from = |start: u16| -> Option<u16> {
            let mut p = start;
            for _ in 0..=u16::MAX {
                if p >= 1024 && free(p) {
                    return Some(p);
                }
                p = p.wrapping_add(1);
            }
            None
        };
        let port = match behavior.port_alloc {
            PortAllocation::Preserving => scan_from(private.port.max(1024))?,
            PortAllocation::Sequential => {
                let p = scan_from(self.next_seq_port)?;
                self.next_seq_port = if p == u16::MAX {
                    behavior.port_base
                } else {
                    p + 1
                };
                p
            }
            PortAllocation::Random => {
                let mut found = None;
                for _ in 0..64 {
                    let p: u16 = rng.gen_range(49152..=65535);
                    if free(p) {
                        found = Some(p);
                        break;
                    }
                }
                match found {
                    Some(p) => p,
                    None => scan_from(49152)?,
                }
            }
        };
        Some(Endpoint::new(ip, port))
    }

    /// Finds or creates the outbound mapping for (`private` → `remote`),
    /// updating filters, TCP tracking and the idle timer, and returns its
    /// public endpoint. When no mapping can be made the packet is noted
    /// as dropped, with the reason, and `None` returned.
    fn outbound_mapping(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> Option<Endpoint> {
        let now = ctx.now();
        let proto = pkt.proto();
        let private = pkt.src;
        let mut policy = self.behavior.mapping_for_tcp(proto == Proto::Tcp);
        if self.behavior.contention_breaks_consistency
            && policy == MappingPolicy::EndpointIndependent
            && self.tables.iter().any(|e| {
                e.proto == proto && e.private.port == private.port && e.private.ip != private.ip
            })
        {
            // §6.3: a second client on the same private port degrades the
            // translation to symmetric.
            policy = MappingPolicy::AddressAndPortDependent;
        }
        if let Some(entry) = self
            .tables
            .lookup_outbound(policy, proto, private, pkt.dst, now)
        {
            carry(&self.behavior, entry, pkt, true, now);
            return Some(entry.public);
        }
        // A fresh mapping is needed. Purge every expired one first, then
        // enforce capacity: the per-source quota refuses over-quota
        // sources outright, and a full capped table evicts per the
        // configured policy before the allocator runs.
        self.tables.sweep(now);
        if let Some(quota) = self.behavior.per_source_quota {
            if self.tables.live_count_for_source(private.ip, now) >= quota {
                self.stats.quota_refused += 1;
                ctx.metric_inc("defense.nat.quota_refused");
                ctx.note_drop("nat-quota-refused");
                return None;
            }
        }
        if let Some(cap) = self.behavior.max_mappings {
            let fair = self.behavior.fair_eviction;
            while self.tables.len(now) >= cap {
                let Some(victim) = self.tables.eviction_victim(now, fair) else {
                    break;
                };
                self.tables.remove(victim);
                self.stats.mappings_evicted += 1;
                ctx.metric_inc_labeled("nat.mapping.evicted", if fair { "fair" } else { "oldest" });
            }
        }
        let Some(public) = self.alloc_public(ctx.rng(), proto, private) else {
            ctx.note_drop("nat-ports-exhausted");
            return None;
        };
        let entry = self
            .tables
            .insert(policy, proto, private, pkt.dst, public, now);
        carry(&self.behavior, entry, pkt, true, now);
        self.stats.mappings_created += 1;
        ctx.metric_inc("nat.mapping.created");
        // The live count rises nowhere but here, so its maximum is
        // reached here.
        if ctx.metrics_enabled() {
            ctx.metric_gauge_max("nat.mapping.live.max", self.tables.len(now) as i64);
        }
        Some(public)
    }

    fn mangle(&mut self, pkt: &mut Packet, from: Ipv4Addr, to: Ipv4Addr) {
        if !self.behavior.mangle_payloads {
            return;
        }
        let rewritten = match &pkt.body {
            Body::Udp(p) => rewrite_addr(p, from, to).map(Body::Udp),
            Body::Tcp(seg) => rewrite_addr(&seg.payload, from, to).map(|p| {
                let mut s = seg.clone();
                s.payload = p;
                Body::Tcp(s)
            }),
            Body::Icmp(_) => None,
        };
        if let Some(body) = rewritten {
            pkt.body = body;
            // A payload-rewriting NAT acts as an ALG: it fixes the
            // transport checksum to match the new bytes, so mangled
            // packets still pass the receiving stack's verification.
            pkt.refresh_checksum();
            self.stats.payloads_mangled += 1;
        }
    }

    fn handle_outbound(&mut self, ctx: &mut Ctx<'_>, mut pkt: Packet) {
        if matches!(pkt.body, Body::Icmp(_)) {
            ctx.note_drop("nat-outbound-icmp");
            return;
        }
        if pkt.ttl <= 1 {
            ctx.note_drop("ttl-exceeded");
            return;
        }
        let Some(public) = self.outbound_mapping(ctx, &pkt) else {
            return;
        };
        let private_ip = pkt.src.ip;
        pkt.ttl -= 1;
        pkt.src = public;
        self.mangle(&mut pkt, private_ip, public.ip);
        ctx.send(PUBLIC_IFACE, pkt);
    }

    fn handle_inbound(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if let Body::Icmp(msg) = &pkt.body {
            self.handle_inbound_icmp(ctx, pkt.src, msg.clone());
            return;
        }
        self.deliver_inbound(ctx, PUBLIC_IFACE, pkt, None);
    }

    /// Filters, translates and delivers a packet addressed to one of the
    /// NAT's public endpoints, from the public side or, with `hairpin`
    /// set, from private interface `from`. `hairpin` is the target
    /// mapping's creation stamp (the packet is for that mapping, not for
    /// one that has since taken over its endpoint) and the source as the
    /// target will see it. Anything without a live mapping that admits it
    /// is refused back out of `from`.
    fn deliver_inbound(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: IfaceId,
        mut pkt: Packet,
        hairpin: Option<(MapId, Endpoint)>,
    ) {
        let now = ctx.now();
        let proto = pkt.proto();
        let b = &self.behavior;
        let src = hairpin.map_or(pkt.src, |(_, src)| src);
        let admitted = self.tables.lookup_public(proto, pkt.dst, now).filter(|e| {
            let (is_target, filtered) = match hairpin {
                None => (true, true),
                // The §6.3 caveat: treat hairpinned traffic as untrusted.
                Some((stamp, _)) => (e.id == stamp, b.hairpin_filters),
            };
            is_target && (!filtered || e.filter_allows(b.filtering, src, now, b.per_session_timers))
        });
        let Some(entry) = admitted else {
            self.reject_unsolicited(ctx, from, pkt);
            return;
        };
        if hairpin.is_some() {
            self.stats.hairpinned += 1;
            ctx.metric_inc("nat.hairpinned");
        }
        pkt.src = src;
        // Every verdict before any touch: a packet the NAT drops leaves
        // the mapping exactly as it found it.
        let Some(&iface) = self.private_iface.get(&entry.private.ip) else {
            ctx.note_drop("nat-unknown-private-host");
            return;
        };
        if pkt.ttl <= 1 {
            ctx.note_drop("ttl-exceeded");
            return;
        }
        carry(b, entry, &pkt, false, now);
        let (private, public) = (entry.private, entry.public);
        // Conntrack-style flow pinning: the private host's replies to
        // this packet's source must reuse this mapping (see
        // `NatTables::bind_reverse`).
        let policy = b.mapping_for_tcp(proto == Proto::Tcp);
        self.tables
            .bind_reverse(policy, proto, private, src, public);
        pkt.ttl -= 1;
        pkt.dst = private;
        self.mangle(&mut pkt, public.ip, private.ip);
        self.stats.inbound_passed += 1;
        ctx.metric_inc("nat.inbound.passed");
        ctx.send(iface, pkt);
    }

    /// Applies the §5.2 policy to an unsolicited (or filtered) inbound
    /// packet; `reply_iface` is where any active rejection goes back.
    fn reject_unsolicited(&mut self, ctx: &mut Ctx<'_>, reply_iface: IfaceId, pkt: Packet) {
        self.stats.inbound_blocked += 1;
        ctx.metric_inc("nat.inbound.blocked");
        let is_tcp_syn = matches!(&pkt.body, Body::Tcp(seg)
            if seg.flags.contains(TcpFlags::SYN) && !seg.flags.contains(TcpFlags::RST));
        if !is_tcp_syn {
            ctx.note_drop("nat-unsolicited");
            return;
        }
        match self.behavior.tcp_unsolicited {
            TcpUnsolicited::Drop => ctx.note_drop("nat-unsolicited-syn"),
            TcpUnsolicited::Rst => {
                let seg = pkt.tcp_segment().expect("checked tcp"); // punch-lint: allow(P001) proto matched as TCP by the surrounding dispatch
                let rst = punch_net::TcpSegment::control(
                    TcpFlags::RST | TcpFlags::ACK,
                    0,
                    seg.seq.wrapping_add(seg.seq_len()),
                );
                self.stats.rst_sent += 1;
                ctx.metric_inc("nat.rst_sent");
                ctx.send(reply_iface, Packet::tcp(pkt.dst, pkt.src, rst));
            }
            TcpUnsolicited::IcmpError => {
                let msg = IcmpMessage {
                    kind: IcmpKind::DestinationUnreachable,
                    original_proto: Proto::Tcp,
                    original_src: pkt.src,
                    original_dst: pkt.dst,
                };
                self.stats.icmp_sent += 1;
                ctx.metric_inc("nat.icmp_sent");
                ctx.send(
                    reply_iface,
                    Packet::icmp(Endpoint::new(self.public_ip(), 0), pkt.src, msg),
                );
            }
        }
    }

    /// Translates an inbound ICMP error about one of our outbound packets
    /// (e.g. a remote NAT's ICMP rejection of a SYN): the embedded
    /// original source is our public mapping, which must be rewritten to
    /// the private endpoint before delivery.
    fn handle_inbound_icmp(
        &mut self,
        ctx: &mut Ctx<'_>,
        outer_src: Endpoint,
        mut msg: IcmpMessage,
    ) {
        let now = ctx.now();
        let Some(entry) = self
            .tables
            .lookup_public(msg.original_proto, msg.original_src, now)
        else {
            ctx.note_drop("nat-unsolicited-icmp");
            return;
        };
        let private = entry.private;
        let Some(&iface) = self.private_iface.get(&private.ip) else {
            return;
        };
        msg.original_src = private;
        let pkt = Packet::icmp(outer_src, Endpoint::new(private.ip, 0), msg);
        self.stats.inbound_passed += 1;
        ctx.metric_inc("nat.inbound.passed");
        ctx.send(iface, pkt);
    }

    /// Handles a private-side packet addressed to one of the NAT's own
    /// public IPs (§3.5 hairpin).
    fn handle_hairpin(&mut self, ctx: &mut Ctx<'_>, in_iface: IfaceId, pkt: Packet) {
        let mode = match pkt.proto() {
            Proto::Udp => self.behavior.hairpin_udp,
            Proto::Tcp => self.behavior.hairpin_tcp,
            Proto::Icmp => Hairpin::None,
        };
        let target = match mode {
            Hairpin::None => None,
            _ => self.tables.lookup_public(pkt.proto(), pkt.dst, ctx.now()),
        };
        let Some(target) = target.map(|e| e.id) else {
            self.reject_unsolicited(ctx, in_iface, pkt);
            return;
        };
        let hairpin_src = match mode {
            // Translate the source exactly as if the packet had left for
            // the public Internet. Making room for the sender's mapping
            // may evict the target's: `deliver_inbound` looks it up again
            // and refuses the packet if it is gone.
            Hairpin::Full => match self.outbound_mapping(ctx, &pkt) {
                Some(public) => public,
                None => return,
            },
            _ => pkt.src,
        };
        self.deliver_inbound(ctx, in_iface, pkt, Some((target, hairpin_src)));
    }
}

/// Time-to-live for a mapping in its current protocol/TCP state.
fn ttl_for(behavior: &NatBehavior, entry: &MapEntry) -> Duration {
    if entry.proto != Proto::Tcp {
        behavior.udp_timeout
    } else if entry.tcp.closing() {
        // Closing connections linger briefly.
        behavior.tcp_transitory_timeout.min(Duration::from_secs(10))
    } else if entry.tcp.established() {
        behavior.tcp_established_timeout
    } else {
        behavior.tcp_transitory_timeout
    }
}

/// What a packet the NAT forwards does to the mapping that carries it:
/// TCP flags are tracked by direction, then (always outbound, inbound
/// only if the NAT refreshes on inbound traffic) the hole toward the far
/// end and the idle timer are extended by the TTL of the state the
/// mapping is now in.
fn carry(behavior: &NatBehavior, entry: &mut MapEntry, pkt: &Packet, outbound: bool, now: SimTime) {
    if let Body::Tcp(seg) = &pkt.body {
        entry.tcp.note(seg.flags, outbound);
    }
    if outbound || behavior.inbound_refreshes {
        let remote = if outbound { pkt.dst } else { pkt.src };
        entry.touch(remote, now, ttl_for(behavior, entry));
    }
}

impl Device for NatDevice {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        if iface == PUBLIC_IFACE {
            self.handle_inbound(ctx, pkt);
            return;
        }
        // Learn which private host lives behind this interface.
        self.private_iface.insert(pkt.src.ip, iface);
        if self.public_ips.contains(&pkt.dst.ip) {
            self.handle_hairpin(ctx, iface, pkt);
        } else if let Some(&out) = self.private_iface.get(&pkt.dst.ip) {
            // Same-realm traffic: switch locally without translation
            // (Figure 4's private-endpoint path, and §3.4's stray traffic
            // to a coincidentally-shared private address).
            self.stats.switched_local += 1;
            ctx.metric_inc("nat.switched_local");
            ctx.send(out, pkt);
        } else {
            self.handle_outbound(ctx, pkt);
        }
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: u64) {
        if fault == FAULT_RESTART {
            // Mapping-lifecycle accounting: everything live is lost.
            ctx.metric_inc("nat.reboot");
            ctx.metric_inc_by("nat.mapping.flushed", self.tables.total_len() as u64);
            self.reboot();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punch_net::{LinkSpec, NodeId, Router, Sim, TcpSegment};

    fn ep(s: &str) -> Endpoint {
        s.parse().unwrap()
    }

    /// A symmetric NAT (so a reverse binding would be a new index slot)
    /// on which 10.0.0.1:4321 has sent one SYN to `18.181.0.31:9000`
    /// half a second ago.
    fn nat_with_one_tcp_mapping() -> (Sim, NodeId) {
        let mut behavior = NatBehavior::well_behaved();
        behavior.mapping = MappingPolicy::AddressAndPortDependent;
        let mut sim = Sim::new(22);
        let nat = sim.add_node(
            "nat",
            Box::new(NatDevice::new(behavior, vec![[155, 99, 25, 11].into()])),
        );
        // Interface 0 and 1: route-less routers, so every packet the NAT
        // emits has a wire to die on.
        for (name, link) in [("internet", LinkSpec::wan()), ("lan", LinkSpec::lan())] {
            let hop = sim.add_node(name, Box::new(Router::new()));
            sim.connect(nat, hop, link);
        }
        let syn = TcpSegment::control(TcpFlags::SYN, 1, 0);
        sim.inject(
            nat,
            1,
            Packet::tcp(ep("10.0.0.1:4321"), ep("18.181.0.31:9000"), syn),
        );
        sim.run_for(Duration::from_millis(500));
        (sim, nat)
    }

    /// Everything the NAT remembers about its mappings, entry by entry.
    fn mappings(sim: &Sim, nat: NodeId) -> String {
        format!("{:?}", sim.device::<NatDevice>(nat).tables())
    }

    /// The peer's SYN+FIN from a port the mapping has no hole for yet
    /// (the NAT filters by address only): delivered, it would mark the
    /// mapping established and closing, open a hole, pin a reverse
    /// binding and move the expiry. Dropped, it must do none of that.
    fn inbound_that_would_touch_everything(sim: &mut Sim, nat: NodeId, ttl: u8) {
        let public = sim
            .device::<NatDevice>(nat)
            .tables()
            .iter()
            .next()
            .expect("mapping")
            .public;
        let seg = TcpSegment::control(TcpFlags::SYN | TcpFlags::FIN, 7, 0);
        let mut pkt = Packet::tcp(ep("18.181.0.31:9001"), public, seg);
        pkt.ttl = ttl;
        sim.inject(nat, PUBLIC_IFACE, pkt);
        sim.run_for(Duration::from_millis(500));
    }

    #[test]
    fn inbound_dropped_for_ttl_leaves_the_mapping_as_it_was() {
        let (mut sim, nat) = nat_with_one_tcp_mapping();
        sim.device_mut::<NatDevice>(nat).behavior.filtering =
            crate::behavior::FilteringPolicy::AddressDependent;
        let before = mappings(&sim, nat);
        inbound_that_would_touch_everything(&mut sim, nat, 1);
        assert_eq!(sim.device::<NatDevice>(nat).stats().inbound_passed, 0);
        assert_eq!(mappings(&sim, nat), before);
        // The same packet with hops to spare is delivered and does touch.
        inbound_that_would_touch_everything(&mut sim, nat, 64);
        assert_eq!(sim.device::<NatDevice>(nat).stats().inbound_passed, 1);
        assert_ne!(mappings(&sim, nat), before);
    }

    #[test]
    fn inbound_dropped_for_unknown_private_host_leaves_the_mapping_as_it_was() {
        let (mut sim, nat) = nat_with_one_tcp_mapping();
        let dev = sim.device_mut::<NatDevice>(nat);
        dev.behavior.filtering = crate::behavior::FilteringPolicy::AddressDependent;
        // The NAT forgot which interface the host is behind, not the mapping.
        dev.private_iface = FlatMap::new();
        let before = mappings(&sim, nat);
        inbound_that_would_touch_everything(&mut sim, nat, 64);
        assert_eq!(sim.device::<NatDevice>(nat).stats().inbound_passed, 0);
        assert_eq!(mappings(&sim, nat), before);
    }

    /// A Basic NAT with a one-address pool: the second host finds no
    /// address left, its packet is dropped and nothing is stored for it.
    #[test]
    fn alloc_failure_propagates() {
        let mut behavior = NatBehavior::well_behaved();
        behavior.kind = NatKind::Basic;
        let mut sim = Sim::new(22);
        let nat = sim.add_node(
            "nat",
            Box::new(NatDevice::new(behavior, vec![[155, 99, 25, 11].into()])),
        );
        let internet = sim.add_node("internet", Box::new(Router::new()));
        sim.connect(nat, internet, LinkSpec::wan());
        for src in ["10.0.0.1:4321", "10.0.0.2:4321"] {
            sim.inject(
                nat,
                1,
                Packet::udp(ep(src), ep("18.181.0.31:9000"), b"x".as_ref()),
            );
        }
        sim.run_for(Duration::from_millis(500));
        let nat = sim.device::<NatDevice>(nat);
        assert_eq!(nat.stats().mappings_created, 1);
        assert_eq!(nat.tables().total_len(), 1);
        assert!(nat
            .tables()
            .iter()
            .all(|e| e.private == ep("10.0.0.1:4321")));
    }
}
