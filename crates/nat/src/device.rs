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

use crate::behavior::{Hairpin, MappingPolicy, NatBehavior, PortAllocation, TcpUnsolicited};
use crate::mangle::rewrite_addr;
use crate::table::{MapEntry, MapId, NatTables};
use punch_net::flat::{FlatMap, Inline};
use punch_net::{
    Body, Counters, Ctx, Device, Endpoint, IcmpKind, IcmpMessage, IfaceId, MetricKey, Packet,
    Proto, SimTime, TcpFlags, FAULT_RESTART,
};
use rand::Rng;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

/// Device-fault code a NAT answers by becoming
/// [`NatBehavior::well_behaved`]: a reconfigured middlebox (a firmware
/// update fixing a symmetric NAT, say). Existing mappings survive; new
/// ones follow the new policy. Only this device changes: other NATs
/// built from the old profile keep it.
pub const FAULT_WELL_BEHAVED: u64 = 2;

/// The public-facing interface index.
pub const PUBLIC_IFACE: IfaceId = 0;

/// The NAT's counters: read by assertions and reports, and copied into
/// metrics snapshots by `Device::counters`.
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

/// A configurable NAPT middlebox: every private host shares its one
/// public address (§2.1).
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
    /// Shared with every NAT built from the same profile; never written
    /// through ([`FAULT_WELL_BEHAVED`] replaces it).
    behavior: Arc<NatBehavior>,
    public_ip: Ipv4Addr,
    tables: NatTables,
    /// Learned private hosts; a home NAT has one, held in place, and
    /// rarely up to three.
    private_iface: FlatMap<Ipv4Addr, IfaceId, Inline<(Ipv4Addr, IfaceId), 1>>,
    next_seq_port: u16,
    stats: NatStats,
}

// One per NAT, boxed into the sim's device table: 40 000 of them in
// the benchmark's `crowd_udp`.
const _: () = assert!(std::mem::size_of::<NatDevice>() <= 200);

impl NatDevice {
    /// Creates a NAT owning the one public address in `public_ips`.
    /// `behavior` is a value or an `Arc` that many NATs share.
    ///
    /// # Panics
    ///
    /// Panics unless `public_ips` holds exactly one address.
    pub fn new(behavior: impl Into<Arc<NatBehavior>>, public_ips: Vec<Ipv4Addr>) -> Self {
        assert!(public_ips.len() == 1, "a NAT needs exactly one public IP");
        let public_ip = public_ips[0];
        let behavior = behavior.into();
        let next_seq_port = behavior.port_base;
        NatDevice {
            behavior,
            public_ip,
            tables: NatTables::new(),
            private_iface: FlatMap::default(),
            next_seq_port,
            stats: NatStats::default(),
        }
    }

    /// Returns the behaviour configuration.
    pub fn behavior(&self) -> &NatBehavior {
        &self.behavior
    }

    /// Returns the public IP.
    pub fn public_ip(&self) -> Ipv4Addr {
        self.public_ip
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

    /// Reboots the device: every translation and learned host is lost,
    /// and the sequential port allocator resumes from a shifted base —
    /// so sessions that survived in the endpoints'
    /// memory now point at mappings that no longer exist, and fresh
    /// outbound traffic receives *different* public endpoints. This is
    /// the middlebox failure mode that forces peers to re-run hole
    /// punching (§3.5's rationale for keepalives and on-demand repair).
    fn reboot(&mut self) {
        self.stats.reboots += 1;
        self.tables = NatTables::new();
        self.private_iface = FlatMap::default();
        // Shift the pool per reboot; a reboot that handed out identical
        // ports again would heal sessions transparently and hide the
        // fault from recovery logic.
        self.next_seq_port = self
            .behavior
            .port_base
            .wrapping_add((self.stats.reboots as u16).wrapping_mul(512))
            .max(1024);
    }

    /// Allocates a public port per the configured policy. `None` when
    /// every port of the public address is in use. Only `Random` draws,
    /// and only it asks for the node's generator, since asking makes one.
    fn alloc_public(
        &mut self,
        ctx: &mut Ctx<'_>,
        proto: Proto,
        private: Endpoint,
    ) -> Option<Endpoint> {
        let (behavior, tables) = (&self.behavior, &self.tables);
        let ip = self.public_ip;
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
                    let p: u16 = ctx.rng().gen_range(49152..=65535);
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
        let Some(public) = self.alloc_public(ctx, proto, private) else {
            ctx.note_drop("nat-ports-exhausted");
            return None;
        };
        let entry = self
            .tables
            .insert(policy, proto, private, pkt.dst, public, now);
        carry(&self.behavior, entry, pkt, true, now);
        self.stats.mappings_created += 1;
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
        ctx.send(iface, pkt);
    }

    /// Applies the §5.2 policy to an unsolicited (or filtered) inbound
    /// packet; `reply_iface` is where any active rejection goes back.
    fn reject_unsolicited(&mut self, ctx: &mut Ctx<'_>, reply_iface: IfaceId, pkt: Packet) {
        self.stats.inbound_blocked += 1;
        let syn = match &pkt.body {
            Body::Tcp(seg)
                if seg.flags.contains(TcpFlags::SYN) && !seg.flags.contains(TcpFlags::RST) =>
            {
                seg
            }
            _ => {
                ctx.note_drop("nat-unsolicited");
                return;
            }
        };
        match self.behavior.tcp_unsolicited {
            TcpUnsolicited::Drop => ctx.note_drop("nat-unsolicited-syn"),
            TcpUnsolicited::Rst => {
                let rst = punch_net::TcpSegment::control(
                    TcpFlags::RST | TcpFlags::ACK,
                    0,
                    syn.seq.wrapping_add(syn.seq_len()),
                );
                self.stats.rst_sent += 1;
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
        ctx.send(iface, pkt);
    }

    /// Handles a private-side packet addressed to the NAT's own public
    /// IP (§3.5 hairpin).
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

/// Idle timeout for a TCP mapping observed in the established state.
const TCP_ESTABLISHED_TIMEOUT: Duration = Duration::from_secs(3600);
/// Idle timeout for a half-open TCP mapping.
const TCP_TRANSITORY_TIMEOUT: Duration = Duration::from_secs(60);
/// Closing TCP connections linger briefly.
const TCP_CLOSING_TIMEOUT: Duration = Duration::from_secs(10);

/// Time-to-live for a mapping in its current protocol/TCP state.
fn ttl_for(behavior: &NatBehavior, entry: &MapEntry) -> Duration {
    if entry.proto != Proto::Tcp {
        behavior.udp_timeout
    } else if entry.tcp.closing() {
        TCP_CLOSING_TIMEOUT
    } else if entry.tcp.established() {
        TCP_ESTABLISHED_TIMEOUT
    } else {
        TCP_TRANSITORY_TIMEOUT
    }
}

/// What a packet the NAT forwards, in either direction, does to the
/// mapping that carries it: TCP flags are tracked by direction, then the
/// hole toward the far end and the idle timer are extended by the TTL of
/// the state the mapping is now in.
fn carry(behavior: &NatBehavior, entry: &mut MapEntry, pkt: &Packet, outbound: bool, now: SimTime) {
    if let Body::Tcp(seg) = &pkt.body {
        entry.tcp.note(seg.flags, outbound);
    }
    let remote = if outbound { pkt.dst } else { pkt.src };
    entry.touch(remote, now, ttl_for(behavior, entry));
}

impl Device for NatDevice {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        if iface == PUBLIC_IFACE {
            self.handle_inbound(ctx, pkt);
            return;
        }
        // Learn which private host lives behind this interface.
        self.private_iface.insert(pkt.src.ip, iface);
        if pkt.dst.ip == self.public_ip {
            self.handle_hairpin(ctx, iface, pkt);
        } else if let Some(&out) = self.private_iface.get(&pkt.dst.ip) {
            // Same-realm traffic: switch locally without translation
            // (Figure 4's private-endpoint path, and §3.4's stray traffic
            // to a coincidentally-shared private address).
            self.stats.switched_local += 1;
            ctx.send(out, pkt);
        } else {
            self.handle_outbound(ctx, pkt);
        }
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: u64) {
        if fault == FAULT_RESTART {
            // Mapping-lifecycle accounting: everything live is lost.
            ctx.metric_inc_by("nat.mapping.flushed", self.tables.total_len() as u64);
            self.reboot();
        } else if fault == FAULT_WELL_BEHAVED {
            self.behavior = Arc::new(NatBehavior::well_behaved());
        }
    }

    fn counters(&self, c: &mut Counters<'_>) {
        let s = &self.stats;
        c.inc_by(MetricKey::plain("defense.nat.quota_refused"), s.quota_refused);
        c.inc_by(MetricKey::plain("nat.mapping.created"), s.mappings_created);
        c.inc_by(MetricKey::plain("nat.hairpinned"), s.hairpinned);
        c.inc_by(MetricKey::plain("nat.inbound.passed"), s.inbound_passed);
        c.inc_by(MetricKey::plain("nat.inbound.blocked"), s.inbound_blocked);
        c.inc_by(MetricKey::plain("nat.rst_sent"), s.rst_sent);
        c.inc_by(MetricKey::plain("nat.icmp_sent"), s.icmp_sent);
        c.inc_by(MetricKey::plain("nat.switched_local"), s.switched_local);
        c.inc_by(MetricKey::plain("nat.reboot"), s.reboots);
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
        Arc::make_mut(&mut sim.device_mut::<NatDevice>(nat).behavior).filtering =
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
        Arc::make_mut(&mut dev.behavior).filtering =
            crate::behavior::FilteringPolicy::AddressDependent;
        // The NAT forgot which interface the host is behind, not the mapping.
        dev.private_iface = FlatMap::default();
        let before = mappings(&sim, nat);
        inbound_that_would_touch_everything(&mut sim, nat, 64);
        assert_eq!(sim.device::<NatDevice>(nat).stats().inbound_passed, 0);
        assert_eq!(mappings(&sim, nat), before);
    }

    #[test]
    #[should_panic(expected = "exactly one public IP")]
    fn a_pool_of_addresses_is_refused() {
        let pool = vec![Ipv4Addr::new(155, 99, 25, 11), Ipv4Addr::new(155, 99, 25, 12)];
        let _ = NatDevice::new(NatBehavior::well_behaved(), pool);
    }

    /// A NAPT whose one public address has every port mapped already:
    /// a new host's packet is dropped with a reason and nothing is
    /// stored for it.
    #[test]
    fn alloc_failure_propagates() {
        let mut sim = Sim::new(22);
        sim.enable_metrics();
        let public_ip = Ipv4Addr::new(155, 99, 25, 11);
        let mut dev = NatDevice::new(NatBehavior::well_behaved(), vec![public_ip]);
        let remote = ep("18.181.0.31:9000");
        for port in 1024..=u16::MAX {
            let private = Endpoint::new(Ipv4Addr::new(10, 0, 1, 1), port);
            let public = Endpoint::new(public_ip, port);
            let policy = MappingPolicy::EndpointIndependent;
            let entry = dev.tables.insert(policy, Proto::Udp, private, remote, public, SimTime::ZERO);
            entry.refresh(SimTime::ZERO, Duration::from_secs(3600));
        }
        let full = dev.tables.total_len();
        let nat = sim.add_node("nat", Box::new(dev));
        let internet = sim.add_node("internet", Box::new(Router::new()));
        sim.connect(nat, internet, LinkSpec::wan());
        sim.inject(nat, 1, Packet::udp(ep("10.0.0.1:4321"), remote, b"x".as_ref()));
        sim.run_for(Duration::from_millis(500));
        let snap = sim.metrics_snapshot();
        assert_eq!(snap.counter("net.drop.device", "nat-ports-exhausted"), 1);
        let nat = sim.device::<NatDevice>(nat);
        assert_eq!(nat.stats().mappings_created, 0);
        assert_eq!(nat.tables().total_len(), full);
        assert!(nat.tables().iter().all(|e| e.private.ip != Ipv4Addr::new(10, 0, 0, 1)));
    }
}
