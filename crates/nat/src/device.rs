//! The NAT device: translation, filtering, hairpinning, and local
//! private-side switching.
//!
//! Interface convention: **interface 0 faces the public network** (connect
//! the NAT to its upstream first); every later interface is a private-side
//! link. The device learns which private host lives behind which interface
//! from outbound traffic, like a switch learning MAC addresses.

use crate::behavior::{
    Hairpin, MappingPolicy, NatBehavior, NatKind, PortAllocation, TcpUnsolicited,
};
use crate::mangle::rewrite_addr;
use crate::table::{MapId, NatTables};
use punch_net::flat::FlatMap;
use punch_net::{
    Body, Ctx, Device, Endpoint, IcmpKind, IcmpMessage, IfaceId, Packet, Proto, TcpFlags,
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
const _: () = assert!(std::mem::size_of::<NatDevice>() <= 344);

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
    pub fn tables(&self) -> &NatTables {
        &self.tables
    }

    /// Pre-registers a private host on an interface (normally learned
    /// from outbound traffic; useful to stage §3.4 "wrong host" tests).
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
    pub fn reboot(&mut self) {
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

    fn is_public_ip(&self, ip: Ipv4Addr) -> bool {
        self.public_ips.contains(&ip)
    }

    /// Time-to-live for a mapping in its current protocol/TCP state.
    fn ttl_for(&self, id: MapId) -> Duration {
        match self.tables.get(id) {
            Some(e) if e.proto == Proto::Tcp => {
                if e.tcp.closing() {
                    // Closing connections linger briefly.
                    self.behavior
                        .tcp_transitory_timeout
                        .min(Duration::from_secs(10))
                } else if e.tcp.established() {
                    self.behavior.tcp_established_timeout
                } else {
                    self.behavior.tcp_transitory_timeout
                }
            }
            _ => self.behavior.udp_timeout,
        }
    }

    /// Allocates a public endpoint per the configured policy, or assigns
    /// a Basic-NAT pool address.
    ///
    /// Free function over split-off fields (rather than `&mut self`)
    /// because it runs inside the tables' `outbound` closure.
    #[allow(clippy::too_many_arguments)]
    fn alloc_public(
        behavior: &NatBehavior,
        public_ips: &[Ipv4Addr],
        basic_assign: &mut FlatMap<Ipv4Addr, Ipv4Addr>,
        next_seq_port: &mut u16,
        rng: &mut StdRng,
        tables: &NatTables,
        proto: Proto,
        private: Endpoint,
    ) -> Option<Endpoint> {
        if behavior.kind == NatKind::Basic {
            let used: Vec<Ipv4Addr> = basic_assign.values().copied().collect();
            let ip = match basic_assign.get(&private.ip) {
                Some(ip) => *ip,
                None => {
                    let ip = *public_ips.iter().find(|ip| !used.contains(ip))?;
                    basic_assign.insert(private.ip, ip);
                    ip
                }
            };
            let ep = Endpoint::new(ip, private.port);
            return (!tables.public_in_use(proto, ep)).then_some(ep);
        }
        let ip = public_ips[0];
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
                let p = scan_from(*next_seq_port)?;
                *next_seq_port = if p == u16::MAX {
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
    /// updating filters, TCP tracking and the idle timer. `Err` carries
    /// the drop reason when no mapping can be made.
    fn outbound_mapping(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> Result<MapId, &'static str> {
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
        // Capacity enforcement, only on the path that would create a
        // fresh mapping: the per-source quota refuses over-quota sources
        // outright, and a full capped table evicts per the configured
        // policy before the allocator runs.
        if (self.behavior.max_mappings.is_some() || self.behavior.per_source_quota.is_some())
            && self
                .tables
                .lookup_outbound(policy, proto, private, pkt.dst, now)
                .is_none()
        {
            self.tables.sweep(now);
            if let Some(quota) = self.behavior.per_source_quota {
                if self.tables.live_count_for_source(private.ip, now) >= quota {
                    self.stats.quota_refused += 1;
                    ctx.metric_inc("defense.nat.quota_refused");
                    return Err("nat-quota-refused");
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
                    ctx.metric_inc_labeled(
                        "nat.mapping.evicted",
                        if fair { "fair" } else { "oldest" },
                    );
                }
            }
        }
        let behavior = &self.behavior;
        let public_ips = &self.public_ips;
        let basic_assign = &mut self.basic_assign;
        let next_seq_port = &mut self.next_seq_port;
        let rng = ctx.rng();
        let (id, created) = self
            .tables
            .outbound(policy, proto, private, pkt.dst, now, |tables| {
                Self::alloc_public(
                    behavior,
                    public_ips,
                    basic_assign,
                    next_seq_port,
                    rng,
                    tables,
                    proto,
                    private,
                )
            })
            .ok_or("nat-ports-exhausted")?;
        if created {
            self.stats.mappings_created += 1;
            ctx.metric_inc("nat.mapping.created");
        }
        {
            let entry = self.tables.get_mut(id).expect("just created or found"); // punch-lint: allow(P001) id was inserted or found by the lookup just above
            if let Body::Tcp(seg) = &pkt.body {
                entry.tcp.out_syn |= seg.flags.contains(TcpFlags::SYN);
                entry.tcp.out_fin |= seg.flags.contains(TcpFlags::FIN);
                entry.tcp.rst |= seg.flags.contains(TcpFlags::RST);
            }
        }
        let ttl = self.ttl_for(id);
        if let Some(entry) = self.tables.get_mut(id) {
            entry.touch_session(pkt.dst, now + ttl);
        }
        self.tables.refresh(id, now, ttl);
        if ctx.metrics_enabled() {
            ctx.metric_gauge_max("nat.mapping.live.max", self.tables.len(now) as i64);
        }
        Ok(id)
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
            ctx.note_drop("nat-outbound-icmp", &pkt);
            return;
        }
        if pkt.ttl <= 1 {
            ctx.note_drop("ttl-exceeded", &pkt);
            return;
        }
        let id = match self.outbound_mapping(ctx, &pkt) {
            Ok(id) => id,
            Err(reason) => {
                ctx.note_drop(reason, &pkt);
                return;
            }
        };
        let entry = self.tables.get(id).expect("live mapping"); // punch-lint: allow(P001) id comes from the live-mapping lookup just above; sweeps run between packets
        let (private_ip, public) = (entry.private.ip, entry.public);
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
        let now = ctx.now();
        let Some(id) = self.tables.lookup_public(pkt.proto(), pkt.dst, now) else {
            self.reject_unsolicited(ctx, PUBLIC_IFACE, pkt);
            return;
        };
        let allowed = {
            let entry = self.tables.get(id).expect("live mapping"); // punch-lint: allow(P001) id comes from the live-mapping lookup just above; sweeps run between packets
            entry.filter_allows(
                self.behavior.filtering,
                pkt.src,
                now,
                self.behavior.per_session_timers,
            )
        };
        if !allowed {
            self.reject_unsolicited(ctx, PUBLIC_IFACE, pkt);
            return;
        }
        self.deliver_inbound(ctx, id, pkt);
    }

    /// Translates and delivers a filtered-in packet to the private host
    /// behind mapping `id`.
    fn deliver_inbound(&mut self, ctx: &mut Ctx<'_>, id: MapId, mut pkt: Packet) {
        let now = ctx.now();
        {
            let entry = self.tables.get_mut(id).expect("live mapping"); // punch-lint: allow(P001) id comes from the live-mapping lookup just above; sweeps run between packets
            if let Body::Tcp(seg) = &pkt.body {
                entry.tcp.in_syn |= seg.flags.contains(TcpFlags::SYN);
                entry.tcp.in_fin |= seg.flags.contains(TcpFlags::FIN);
                entry.tcp.rst |= seg.flags.contains(TcpFlags::RST);
            }
        }
        // Conntrack-style flow pinning: the private host's replies to
        // this packet's source must reuse this mapping (see
        // `NatTables::bind_reverse`).
        {
            let proto = pkt.proto();
            let policy = self.behavior.mapping_for_tcp(proto == Proto::Tcp);
            let entry_private = self.tables.get(id).expect("live mapping").private; // punch-lint: allow(P001) id comes from the live-mapping lookup just above; sweeps run between packets
            self.tables
                .bind_reverse(policy, proto, entry_private, pkt.src, id);
        }
        if self.behavior.inbound_refreshes {
            let ttl = self.ttl_for(id);
            if let Some(entry) = self.tables.get_mut(id) {
                entry.touch_session(pkt.src, now + ttl);
            }
            self.tables.refresh(id, now, ttl);
        }
        let entry = self.tables.get(id).expect("live mapping"); // punch-lint: allow(P001) id comes from the live-mapping lookup just above; sweeps run between packets
        let (private, public_ip) = (entry.private, entry.public.ip);
        let Some(&iface) = self.private_iface.get(&private.ip) else {
            ctx.note_drop("nat-unknown-private-host", &pkt);
            return;
        };
        if pkt.ttl <= 1 {
            ctx.note_drop("ttl-exceeded", &pkt);
            return;
        }
        pkt.ttl -= 1;
        pkt.dst = private;
        self.mangle(&mut pkt, public_ip, private.ip);
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
            ctx.note_drop("nat-unsolicited", &pkt);
            return;
        }
        match self.behavior.tcp_unsolicited {
            TcpUnsolicited::Drop => ctx.note_drop("nat-unsolicited-syn", &pkt),
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
        let Some(id) = self
            .tables
            .lookup_public(msg.original_proto, msg.original_src, now)
        else {
            ctx.note_drop(
                "nat-unsolicited-icmp",
                &Packet::icmp(outer_src, Endpoint::new(self.public_ip(), 0), msg),
            );
            return;
        };
        let entry = self.tables.get(id).expect("live mapping"); // punch-lint: allow(P001) id comes from the live-mapping lookup just above; sweeps run between packets
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
    fn handle_hairpin(&mut self, ctx: &mut Ctx<'_>, in_iface: IfaceId, mut pkt: Packet) {
        let mode = match pkt.proto() {
            Proto::Udp => self.behavior.hairpin_udp,
            Proto::Tcp => self.behavior.hairpin_tcp,
            Proto::Icmp => Hairpin::None,
        };
        if mode == Hairpin::None {
            self.reject_unsolicited(ctx, in_iface, pkt);
            return;
        }
        let now = ctx.now();
        let Some(target) = self.tables.lookup_public(pkt.proto(), pkt.dst, now) else {
            self.reject_unsolicited(ctx, in_iface, pkt);
            return;
        };
        let hairpin_src = match mode {
            Hairpin::Full => {
                // Translate the source exactly as if the packet had left
                // for the public Internet.
                let sender = match self.outbound_mapping(ctx, &pkt) {
                    Ok(id) => id,
                    Err(reason) => {
                        ctx.note_drop(reason, &pkt);
                        return;
                    }
                };
                self.tables.get(sender).expect("live mapping").public // punch-lint: allow(P001) sender id comes from the live-mapping lookup just above
            }
            Hairpin::NoSourceRewrite => pkt.src,
            Hairpin::None => unreachable!("handled above"),
        };
        if self.behavior.hairpin_filters {
            // The §6.3 caveat: treat hairpinned traffic as untrusted.
            let entry = self.tables.get(target).expect("live mapping"); // punch-lint: allow(P001) target id comes from the live-mapping lookup just above
            if !entry.filter_allows(
                self.behavior.filtering,
                hairpin_src,
                now,
                self.behavior.per_session_timers,
            ) {
                self.reject_unsolicited(ctx, in_iface, pkt);
                return;
            }
        }
        pkt.src = hairpin_src;
        self.stats.hairpinned += 1;
        ctx.metric_inc("nat.hairpinned");
        self.deliver_inbound(ctx, target, pkt);
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
        if self.is_public_ip(pkt.dst.ip) {
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
