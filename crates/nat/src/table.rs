//! NAT translation state: mappings, filters, and timers.
//!
//! Pure data structures, independent of the simulator, so the binding
//! between behaviour policies and table outcomes is unit-testable.
//!
//! A mapping is stored under the one thing that makes it unique and
//! that every inbound, hairpinned and ICMP-quoted packet arrives
//! carrying: its protocol and public endpoint ([`MapKey`]). A second
//! table, the outbound index, says which public endpoint a private
//! flow leaves through. Lookups hand back the entry itself, so a
//! caller searches once per table and then works on what it holds;
//! nothing is ever fetched again by id. [`MapId`] is only the order
//! mappings were created in, which eviction breaks ties on.

use crate::behavior::{FilteringPolicy, MappingPolicy};
use punch_net::flat::{FlatMap, Inline};
use punch_net::{Endpoint, Proto, SimTime, TcpFlags};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Duration;

/// Creation stamp of a mapping within one NAT: a stamp, not a handle.
pub type MapId = u64;

/// What a mapping is stored and found under: protocol and public
/// endpoint.
pub type MapKey = (Proto, Endpoint);

/// Observed TCP handshake/teardown signals for timeout classification.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TcpTrack {
    /// SYN seen leaving the private network.
    pub out_syn: bool,
    /// SYN seen arriving from the public network.
    pub in_syn: bool,
    /// FIN seen leaving.
    pub out_fin: bool,
    /// FIN seen arriving.
    pub in_fin: bool,
    /// RST seen in either direction.
    pub rst: bool,
}

impl TcpTrack {
    /// True once both directions have exchanged SYNs (the mapping is
    /// carrying an established connection).
    pub fn established(&self) -> bool {
        self.out_syn && self.in_syn
    }

    /// True when the connection is closing or dead.
    pub fn closing(&self) -> bool {
        self.rst || (self.out_fin && self.in_fin)
    }

    /// Records the flags of a segment crossing the NAT, `outbound` or
    /// inbound.
    pub fn note(&mut self, flags: TcpFlags, outbound: bool) {
        let (syn, fin) = if outbound {
            (&mut self.out_syn, &mut self.out_fin)
        } else {
            (&mut self.in_syn, &mut self.in_fin)
        };
        *syn |= flags.contains(TcpFlags::SYN);
        *fin |= flags.contains(TcpFlags::FIN);
        self.rst |= flags.contains(TcpFlags::RST);
    }
}

/// One translation entry.
#[derive(Clone, Debug)]
pub struct MapEntry {
    /// Creation stamp.
    pub id: MapId,
    /// Transport protocol.
    pub proto: Proto,
    /// The private (inside) session endpoint.
    pub private: Endpoint,
    /// The public endpoint the NAT allocated.
    pub public: Endpoint,
    /// Remote endpoints this private endpoint has exchanged traffic with
    /// (the filter's "holes"), each with its own session expiry (§3.6:
    /// many NATs time out individual sessions, not whole mappings).
    /// A client's mapping has one to three (the server, a peer's public
    /// and private endpoints), held in place.
    pub allowed: FlatMap<Endpoint, SimTime, Inline<(Endpoint, SimTime), 3>>,
    /// Absolute expiry time; refreshed by traffic.
    pub expires_at: SimTime,
    /// TCP signal tracking (TCP mappings only).
    pub tcp: TcpTrack,
}

// One per mapping, inline in its NAT's table with its filter holes:
// 40 000 of them in the benchmark's `crowd_udp`.
const _: () = assert!(std::mem::size_of::<MapEntry>() <= 96);

impl MapEntry {
    /// Returns true if inbound traffic from `src` passes this mapping's
    /// filter under `policy`. When `per_session` is set, only filter
    /// holes whose own session timer is still running count.
    pub fn filter_allows(
        &self,
        policy: FilteringPolicy,
        src: Endpoint,
        now: SimTime,
        per_session: bool,
    ) -> bool {
        let live = |exp: &SimTime| !per_session || *exp > now;
        match policy {
            FilteringPolicy::EndpointIndependent => true,
            FilteringPolicy::AddressDependent => self
                .allowed
                .iter()
                .any(|(e, exp)| e.ip == src.ip && live(exp)),
            FilteringPolicy::AddressAndPortDependent => {
                self.allowed.get(&src).map(live).unwrap_or(false)
            }
        }
    }

    /// Opens or refreshes the filter hole toward `remote` until
    /// `expires`.
    fn touch_session(&mut self, remote: Endpoint, expires: SimTime) {
        let slot = self.allowed.entry(remote).or_insert(expires);
        if expires > *slot {
            *slot = expires;
        }
    }

    /// Extends the mapping's lifetime to `now + ttl`; never shortens it.
    // punch-lint: allow(S005) nat/tests/proptest_tables.rs refreshes the tables in step with its two-map model
    pub fn refresh(&mut self, now: SimTime, ttl: Duration) {
        self.expires_at = self.expires_at.max(now + ttl);
    }

    /// What a packet exchanged with `remote` does to the timers: the
    /// hole toward `remote` and the mapping itself both live to
    /// `now + ttl` at least.
    pub fn touch(&mut self, remote: Endpoint, now: SimTime, ttl: Duration) {
        self.touch_session(remote, now + ttl);
        self.refresh(now, ttl);
    }
}

/// Key identifying the mapping an outbound packet should use, shaped by
/// the mapping policy: endpoint-independent keys ignore the destination,
/// symmetric keys include it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct OutKey {
    proto: Proto,
    private: Endpoint,
    remote_ip: Option<Ipv4Addr>,
    remote_port: Option<u16>,
}

fn out_key(policy: MappingPolicy, proto: Proto, private: Endpoint, remote: Endpoint) -> OutKey {
    let (remote_ip, remote_port) = match policy {
        MappingPolicy::EndpointIndependent => (None, None),
        MappingPolicy::AddressDependent => (Some(remote.ip), None),
        MappingPolicy::AddressAndPortDependent => (Some(remote.ip), Some(remote.port)),
    };
    OutKey {
        proto,
        private,
        remote_ip,
        remote_port,
    }
}

/// The mappings of one NAT, live or expired and not yet swept.
#[derive(Debug, Default)]
pub struct NatTables {
    next_id: MapId,
    /// A home NAT holds one to three mappings, so the table is a sorted
    /// vector that costs what it holds, with each entry inline; a
    /// flooded or exhausted NAT's thousands are still found by binary
    /// search, and a sequential allocator's next port appends. Nothing
    /// observable depends on the iteration order.
    entries: FlatMap<MapKey, MapEntry>,
    /// Outbound flow → the public endpoint of its mapping (the
    /// protocol is the flow's). Every slot names a stored entry: slots
    /// are dropped with the entry they point at. A cone NAT's client
    /// has one flow, held in place.
    out_index: FlatMap<OutKey, Endpoint, Inline<(OutKey, Endpoint), 1>>,
}

impl NatTables {
    /// Creates empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries still live at `now`. Expired entries awaiting
    /// their purge (which happens on the next allocation, or an explicit
    /// [`NatTables::sweep`]) are not counted.
    pub fn len(&self, now: SimTime) -> usize {
        self.entries.values().filter(|e| e.expires_at > now).count()
    }

    /// Number of stored entries, live or expired (diagnostics).
    pub fn total_len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true if no entries exist, live or expired.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The live mapping an outbound packet from `private` to `remote`
    /// uses, if there is one. The caller refreshes it.
    pub fn lookup_outbound(
        &mut self,
        policy: MappingPolicy,
        proto: Proto,
        private: Endpoint,
        remote: Endpoint,
        now: SimTime,
    ) -> Option<&mut MapEntry> {
        let public = *self
            .out_index
            .get(&out_key(policy, proto, private, remote))?;
        self.lookup_public(proto, public, now)
    }

    /// Stores a new mapping on `public` for an outbound flow that
    /// [`NatTables::lookup_outbound`] found none for. `public` is fresh:
    /// the caller sweeps, then picks an endpoint not
    /// [in use](NatTables::public_in_use). The entry expires at `now`
    /// until the caller refreshes it and records the destination in
    /// `allowed`.
    pub fn insert(
        &mut self,
        policy: MappingPolicy,
        proto: Proto,
        private: Endpoint,
        remote: Endpoint,
        public: Endpoint,
        now: SimTime,
    ) -> &mut MapEntry {
        let entry = MapEntry {
            id: self.next_id,
            proto,
            private,
            public,
            allowed: FlatMap::default(),
            expires_at: now,
            tcp: TcpTrack::default(),
        };
        self.next_id += 1;
        self.out_index
            .insert(out_key(policy, proto, private, remote), public);
        self.entries.entry((proto, public)).or_insert(entry)
    }

    /// Binds the reverse direction of an accepted inbound flow to an
    /// existing mapping, conntrack-style: after a packet from `remote`
    /// is delivered to `private` through the mapping at `public`,
    /// replies from `private` to `remote` must translate through the
    /// same mapping — even under address(-and-port)-dependent mapping
    /// policies, where a plain outbound lookup would otherwise allocate
    /// a fresh public endpoint. Without this, symmetric NATs could never
    /// carry a conversation opened from outside (including hairpinned
    /// ones).
    pub fn bind_reverse(
        &mut self,
        policy: MappingPolicy,
        proto: Proto,
        private: Endpoint,
        remote: Endpoint,
        public: Endpoint,
    ) {
        let key = out_key(policy, proto, private, remote);
        self.out_index.entry(key).or_insert(public);
    }

    /// The live mapping owning public endpoint `public`: the one search
    /// an inbound, hairpinned or ICMP-quoted packet costs.
    pub fn lookup_public(
        &mut self,
        proto: Proto,
        public: Endpoint,
        now: SimTime,
    ) -> Option<&mut MapEntry> {
        let e = self.entries.get_mut(&(proto, public))?;
        (e.expires_at > now).then_some(e)
    }

    /// Returns true if `public` is currently allocated for `proto`.
    pub fn public_in_use(&self, proto: Proto, public: Endpoint) -> bool {
        self.entries.contains_key(&(proto, public))
    }

    /// Removes an entry and its index slots.
    pub fn remove(&mut self, key: MapKey) {
        if self.entries.remove(&key).is_some() {
            self.out_index.retain(|k, public| (k.proto, *public) != key);
        }
    }

    /// Drops every entry that expired at or before `now`; returns how
    /// many were removed. The device sweeps before it allocates, so dead
    /// mappings cannot hold public ports hostage and exhaust the
    /// allocator under churn; packets on live mappings never pay for it.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.expires_at > now);
        let removed = before - self.entries.len();
        if removed > 0 {
            // One pass over the index however many entries died (a
            // flood's mappings expire together), not one per dead entry.
            let entries = &self.entries;
            self.out_index
                .retain(|k, public| entries.contains_key(&(k.proto, *public)));
        }
        removed
    }

    /// Iterates over all entries (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &MapEntry> {
        self.entries.values()
    }

    /// Number of live mappings owned by private source IP `ip` (the
    /// per-source quota's accounting).
    pub fn live_count_for_source(&self, ip: Ipv4Addr, now: SimTime) -> usize {
        self.entries
            .values()
            .filter(|e| e.private.ip == ip && e.expires_at > now)
            .count()
    }

    /// Picks the live mapping a full table should evict. With `fair` off,
    /// the globally least-recently-refreshed entry (oldest `expires_at`,
    /// oldest creation stamp as the deterministic tie-break) — the policy
    /// a flooder exploits, since its own mappings are always the
    /// freshest. With `fair` on, the oldest entry *of the source owning
    /// the most live mappings* (ties: lower IP), so the heaviest talker
    /// pays for its own overflow.
    pub fn eviction_victim(&self, now: SimTime, fair: bool) -> Option<MapKey> {
        let live = || self.entries.values().filter(|e| e.expires_at > now);
        let mut heaviest = None;
        if fair {
            let mut counts: BTreeMap<Ipv4Addr, usize> = BTreeMap::new();
            for e in live() {
                *counts.entry(e.private.ip).or_insert(0) += 1;
            }
            let by_load = |(ip, n): &(&Ipv4Addr, &usize)| (**n, std::cmp::Reverse(**ip));
            heaviest = Some(*counts.iter().max_by_key(by_load)?.0);
        }
        live()
            .filter(|e| heaviest.is_none_or(|ip| e.private.ip == ip))
            .min_by_key(|e| (e.expires_at, e.id))
            .map(|e| (e.proto, e.public))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EIM: MappingPolicy = MappingPolicy::EndpointIndependent;

    fn ep(s: &str) -> Endpoint {
        s.parse().unwrap()
    }

    fn public(port: u16) -> Endpoint {
        Endpoint::new([155, 99, 25, 11].into(), port)
    }

    /// One outbound packet, as the device handles it: the flow's live
    /// mapping if it has one, else a sweep and a new one on `port`; either
    /// way its timer is armed for `secs` from `now`. Returns the
    /// mapping's creation stamp and public endpoint.
    #[expect(clippy::too_many_arguments, reason = "one argument per input the device hands the tables for one outbound packet")]
    fn send(
        t: &mut NatTables,
        policy: MappingPolicy,
        proto: Proto,
        private: &str,
        remote: &str,
        now: SimTime,
        secs: u64,
        port: u16,
    ) -> (MapId, Endpoint) {
        let (private, remote) = (ep(private), ep(remote));
        if let Some(e) = t.lookup_outbound(policy, proto, private, remote, now) {
            e.refresh(now, Duration::from_secs(secs));
            return (e.id, e.public);
        }
        t.sweep(now);
        let e = t.insert(policy, proto, private, remote, public(port), now);
        e.refresh(now, Duration::from_secs(secs));
        (e.id, e.public)
    }

    #[test]
    fn endpoint_independent_reuses_mapping_across_destinations() {
        let mut t = NatTables::new();
        let now = SimTime::ZERO;
        let a = send(
            &mut t,
            EIM,
            Proto::Udp,
            "10.0.0.1:4321",
            "18.181.0.31:1234",
            now,
            60,
            62000,
        );
        let b = send(
            &mut t,
            EIM,
            Proto::Udp,
            "10.0.0.1:4321",
            "138.76.29.7:31000",
            now,
            60,
            99,
        );
        assert_eq!(a, b, "cone NAT must preserve the public endpoint (§5.1)");
        assert_eq!(a.1, ep("155.99.25.11:62000"));
        assert_eq!(t.len(now), 1);
    }

    #[test]
    fn symmetric_allocates_per_destination() {
        let policy = MappingPolicy::AddressAndPortDependent;
        let mut t = NatTables::new();
        let now = SimTime::ZERO;
        let a = send(
            &mut t,
            policy,
            Proto::Udp,
            "10.0.0.1:4321",
            "18.181.0.31:1234",
            now,
            60,
            62000,
        );
        // A just-created entry is live only once the caller arms its
        // timer.
        let (private, remote) = (ep("10.0.0.1:4321"), ep("138.76.29.7:31000"));
        let b = t.insert(policy, Proto::Udp, private, remote, public(62001), now);
        assert_ne!(a.0, b.id);
        b.refresh(now, Duration::from_secs(60));
        let b = b.id;
        assert_eq!(t.len(now), 2);
        // Same destination, different port → also a fresh mapping.
        let c = send(
            &mut t,
            policy,
            Proto::Udp,
            "10.0.0.1:4321",
            "138.76.29.7:31001",
            now,
            60,
            62002,
        );
        assert_ne!(b, c.0);
    }

    #[test]
    fn address_dependent_mapping_keys_on_remote_ip_only() {
        let policy = MappingPolicy::AddressDependent;
        let mut t = NatTables::new();
        let now = SimTime::ZERO;
        let a = send(
            &mut t,
            policy,
            Proto::Udp,
            "10.0.0.1:4321",
            "18.181.0.31:1234",
            now,
            60,
            62000,
        );
        let b = send(
            &mut t,
            policy,
            Proto::Udp,
            "10.0.0.1:4321",
            "18.181.0.31:9999",
            now,
            60,
            62001,
        );
        assert_eq!(a, b, "same remote IP reuses the mapping");
        let c = send(
            &mut t,
            policy,
            Proto::Udp,
            "10.0.0.1:4321",
            "19.0.0.1:1234",
            now,
            60,
            62001,
        );
        assert_ne!(a, c);
    }

    #[test]
    fn filtering_policies() {
        let mut e = MapEntry {
            id: 0,
            proto: Proto::Udp,
            private: ep("10.0.0.1:4321"),
            public: ep("155.99.25.11:62000"),
            allowed: FlatMap::default(),
            expires_at: SimTime::MAX,
            tcp: TcpTrack::default(),
        };
        e.touch_session(ep("18.181.0.31:1234"), SimTime::from_secs(60));
        let now = SimTime::from_secs(10);
        // Full cone: anyone.
        assert!(e.filter_allows(
            FilteringPolicy::EndpointIndependent,
            ep("99.9.9.9:9"),
            now,
            true
        ));
        // Restricted cone: same IP, any port.
        assert!(e.filter_allows(
            FilteringPolicy::AddressDependent,
            ep("18.181.0.31:999"),
            now,
            true
        ));
        assert!(!e.filter_allows(
            FilteringPolicy::AddressDependent,
            ep("99.9.9.9:1234"),
            now,
            true
        ));
        // Port-restricted: exact endpoint.
        assert!(e.filter_allows(
            FilteringPolicy::AddressAndPortDependent,
            ep("18.181.0.31:1234"),
            now,
            true
        ));
        assert!(!e.filter_allows(
            FilteringPolicy::AddressAndPortDependent,
            ep("18.181.0.31:999"),
            now,
            true
        ));
    }

    #[test]
    fn per_session_timers_close_individual_holes() {
        let mut e = MapEntry {
            id: 0,
            proto: Proto::Udp,
            private: ep("10.0.0.1:4321"),
            public: ep("155.99.25.11:62000"),
            allowed: FlatMap::default(),
            expires_at: SimTime::MAX,
            tcp: TcpTrack::default(),
        };
        e.touch_session(ep("18.181.0.31:1234"), SimTime::from_secs(20));
        e.touch_session(ep("138.76.29.7:31000"), SimTime::from_secs(100));
        let late = SimTime::from_secs(50);
        // §3.6: the idle session's hole is gone, the active one is open.
        assert!(!e.filter_allows(
            FilteringPolicy::AddressAndPortDependent,
            ep("18.181.0.31:1234"),
            late,
            true
        ));
        assert!(e.filter_allows(
            FilteringPolicy::AddressAndPortDependent,
            ep("138.76.29.7:31000"),
            late,
            true
        ));
        // A mapping-level NAT (per_session = false) keeps both open.
        assert!(e.filter_allows(
            FilteringPolicy::AddressAndPortDependent,
            ep("18.181.0.31:1234"),
            late,
            false
        ));
        // touch_session never shortens an expiry.
        e.touch_session(ep("138.76.29.7:31000"), SimTime::from_secs(90));
        assert_eq!(
            e.allowed.get(&ep("138.76.29.7:31000")),
            Some(&SimTime::from_secs(100))
        );
    }

    #[test]
    fn expiry_and_refresh() {
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        let (_, public) = send(
            &mut t,
            EIM,
            Proto::Udp,
            "10.0.0.1:1",
            "2.2.2.2:2",
            t0,
            20,
            62000,
        );
        let t1 = SimTime::from_secs(10);
        t.lookup_public(Proto::Udp, public, t1)
            .expect("live at t=10")
            .refresh(t1, Duration::from_secs(20));
        // Without the refresh it would have expired at t=20.
        let t2 = SimTime::from_secs(25);
        assert!(t.lookup_public(Proto::Udp, public, t2).is_some());
        let t3 = SimTime::from_secs(31);
        assert!(t.lookup_public(Proto::Udp, public, t3).is_none());
    }

    #[test]
    fn expired_mapping_is_replaced_with_fresh_port() {
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        let old = send(
            &mut t,
            EIM,
            Proto::Udp,
            "10.0.0.1:1",
            "2.2.2.2:2",
            t0,
            20,
            62000,
        );
        let later = SimTime::from_secs(60);
        let new = send(
            &mut t,
            EIM,
            Proto::Udp,
            "10.0.0.1:1",
            "2.2.2.2:2",
            later,
            20,
            62001,
        );
        assert_ne!(old.0, new.0);
        assert_eq!(new.1.port, 62001);
        assert_eq!(t.total_len(), 1, "expired entry removed");
    }

    #[test]
    fn refresh_never_shortens() {
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        let (_, public) = send(
            &mut t,
            EIM,
            Proto::Udp,
            "10.0.0.1:1",
            "2.2.2.2:2",
            t0,
            100,
            62000,
        );
        let e = t.lookup_public(Proto::Udp, public, t0).unwrap();
        e.refresh(t0, Duration::from_secs(10));
        assert_eq!(e.expires_at, SimTime::from_secs(100));
        // Nor does the packet-shaped form, for the mapping or the hole.
        e.touch(ep("2.2.2.2:2"), t0, Duration::from_secs(50));
        e.touch(ep("2.2.2.2:2"), t0, Duration::from_secs(10));
        assert_eq!(e.expires_at, SimTime::from_secs(100));
        assert_eq!(
            e.allowed.get(&ep("2.2.2.2:2")),
            Some(&SimTime::from_secs(50))
        );
    }

    #[test]
    fn sweep_removes_expired() {
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        for (i, port) in [(1u16, 62000u16), (2, 62001), (3, 62002)] {
            let private = format!("10.0.0.1:{i}");
            send(
                &mut t,
                EIM,
                Proto::Udp,
                &private,
                "2.2.2.2:2",
                t0,
                i as u64 * 10,
                port,
            );
        }
        assert_eq!(t.sweep(SimTime::from_secs(15)), 1);
        assert_eq!(t.len(SimTime::from_secs(15)), 2);
        assert_eq!(t.sweep(SimTime::from_secs(100)), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn sweep_of_a_flood_leaves_both_tables_agreeing() {
        // The ATK1 shape: thousands of mappings created together expire
        // together, and the next allocation sweeps them all at once.
        let policy = MappingPolicy::AddressAndPortDependent;
        let private = ep("10.0.0.1:4321");
        let remote = |i: u16| Endpoint::new([99, 0, (i >> 8) as u8, i as u8].into(), 80);
        let public = |i: u16| public(2000 + i);
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        for i in 0..2_010u16 {
            assert!(t
                .lookup_outbound(policy, Proto::Udp, private, remote(i), t0)
                .is_none());
            let e = t.insert(policy, Proto::Udp, private, remote(i), public(i), t0);
            // The last ten outlive the flood.
            let ttl = if i < 2_000 { 30 } else { 300 };
            e.refresh(t0, Duration::from_secs(ttl));
        }
        assert_eq!(t.total_len(), 2_010);
        let later = SimTime::from_secs(60);
        assert_eq!(t.sweep(later), 2_000);
        assert_eq!(t.total_len(), 10);
        assert_eq!(t.out_index.len(), 10);
        for i in 0..2_010u16 {
            let live = i >= 2_000;
            assert_eq!(t.public_in_use(Proto::Udp, public(i)), live, "public {i}");
            assert_eq!(
                t.lookup_outbound(policy, Proto::Udp, private, remote(i), later)
                    .is_some(),
                live,
                "outbound {i}"
            );
            assert_eq!(
                t.lookup_public(Proto::Udp, public(i), later).is_some(),
                live
            );
        }
    }

    #[test]
    fn len_counts_live_entries_only() {
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        for (i, port, secs) in [(1u16, 62000u16, 10u64), (2, 62001, 100)] {
            let private = format!("10.0.0.{i}:1");
            send(
                &mut t,
                EIM,
                Proto::Udp,
                &private,
                "2.2.2.2:2",
                t0,
                secs,
                port,
            );
        }
        let mid = SimTime::from_secs(50);
        assert_eq!(t.len(t0), 2);
        assert_eq!(t.len(mid), 1, "expired entry must not be counted");
        assert_eq!(t.total_len(), 2, "...but it still occupies a slot");
    }

    #[test]
    fn allocation_purges_expired_entries_to_free_their_ports() {
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        let old = send(
            &mut t,
            EIM,
            Proto::Udp,
            "10.0.0.1:1",
            "2.2.2.2:2",
            t0,
            20,
            62000,
        );
        // A *different* private host allocates long after the first
        // mapping expired, and the pool's only remaining port is the one
        // the dead entry holds. Without the purge, the allocator sees the
        // port in use and the NAT refuses the new session.
        let later = SimTime::from_secs(60);
        let port = ep("155.99.25.11:62000");
        assert!(t.public_in_use(Proto::Udp, port), "held by the dead entry");
        assert!(t
            .lookup_outbound(EIM, Proto::Udp, ep("10.0.0.2:1"), ep("2.2.2.2:2"), later)
            .is_none());
        assert_eq!(t.sweep(later), 1);
        assert!(
            !t.public_in_use(Proto::Udp, port),
            "expired entry must release its port"
        );
        let new = t.insert(
            EIM,
            Proto::Udp,
            ep("10.0.0.2:1"),
            ep("2.2.2.2:2"),
            port,
            later,
        );
        assert_ne!(old.0, new.id);
        assert_eq!(new.public, port);
        assert_eq!(t.total_len(), 1, "dead entry purged, new entry stored");
    }

    #[test]
    fn tcp_track_transitions() {
        let mut tr = TcpTrack::default();
        assert!(!tr.established());
        tr.out_syn = true;
        assert!(!tr.established());
        tr.in_syn = true;
        assert!(tr.established());
        assert!(!tr.closing());
        tr.out_fin = true;
        assert!(!tr.closing());
        tr.in_fin = true;
        assert!(tr.closing());
        let rst = TcpTrack {
            rst: true,
            ..TcpTrack::default()
        };
        assert!(rst.closing());
    }

    #[test]
    fn tcp_track_notes_flags_by_direction() {
        let mut tr = TcpTrack::default();
        tr.note(TcpFlags::SYN, true);
        tr.note(TcpFlags::FIN | TcpFlags::ACK, false);
        let seen = TcpTrack {
            out_syn: true,
            in_fin: true,
            ..TcpTrack::default()
        };
        assert_eq!(tr, seen);
        // A flag once seen stays seen; RST has no direction.
        tr.note(TcpFlags::RST, false);
        assert_eq!(tr, TcpTrack { rst: true, ..seen });
    }

    #[test]
    fn eviction_victim_policies() {
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        // Victim allocates first (oldest), flooder 10.0.0.99 owns three
        // fresher mappings.
        let mut mk = |src: &str, port: u16, secs: u64| {
            (
                Proto::Udp,
                send(&mut t, EIM, Proto::Udp, src, "2.2.2.2:2", t0, secs, port).1,
            )
        };
        let victim = mk("10.0.0.1:4321", 62000, 100);
        let flood0 = mk("10.0.0.99:5000", 62001, 110);
        mk("10.0.0.99:5001", 62002, 120);
        mk("10.0.0.99:5002", 62003, 130);
        let now = SimTime::from_secs(1);
        assert_eq!(
            t.eviction_victim(now, false),
            Some(victim),
            "oldest-first picks the victim"
        );
        assert_eq!(
            t.eviction_victim(now, true),
            Some(flood0),
            "fair eviction picks the heaviest source's oldest entry"
        );
        assert_eq!(
            t.live_count_for_source("10.0.0.99".parse().unwrap(), now),
            3
        );
        assert_eq!(t.live_count_for_source("10.0.0.1".parse().unwrap(), now), 1);
        // Expired entries count for neither accounting nor eviction.
        let late = SimTime::from_secs(105);
        assert_eq!(
            t.live_count_for_source("10.0.0.1".parse().unwrap(), late),
            0
        );
        assert_ne!(t.eviction_victim(late, false), Some(victim));
    }

    #[test]
    fn eviction_ties_break_on_the_creation_stamp_not_the_table_order() {
        // Created in descending port order, so the table (sorted by
        // public endpoint) holds them in the reverse of creation order;
        // all four expire together.
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        for (i, port) in [62003u16, 62002, 62001, 62000].into_iter().enumerate() {
            let private = format!("10.0.0.{}:1", i + 1);
            send(&mut t, EIM, Proto::Udp, &private, "2.2.2.2:2", t0, 60, port);
        }
        assert_eq!(
            t.eviction_victim(t0, false),
            Some((Proto::Udp, public(62003)))
        );
        assert_eq!(
            t.eviction_victim(t0, true),
            Some((Proto::Udp, public(62003)))
        );
        // Removal takes the entry's index slots with it.
        t.remove((Proto::Udp, public(62003)));
        assert!(t
            .lookup_outbound(EIM, Proto::Udp, ep("10.0.0.1:1"), ep("2.2.2.2:2"), t0)
            .is_none());
        assert_eq!(t.out_index.len(), 3);
        assert_eq!(
            t.eviction_victim(t0, false),
            Some((Proto::Udp, public(62002)))
        );
    }

    #[test]
    fn udp_and_tcp_share_port_numbers_without_conflict() {
        let mut t = NatTables::new();
        let now = SimTime::ZERO;
        let u = send(
            &mut t,
            EIM,
            Proto::Udp,
            "10.0.0.1:1",
            "2.2.2.2:2",
            now,
            60,
            62000,
        );
        let tc = send(
            &mut t,
            EIM,
            Proto::Tcp,
            "10.0.0.1:1",
            "2.2.2.2:2",
            now,
            60,
            62000,
        );
        assert_ne!(u.0, tc.0);
        let soon = now + Duration::from_secs(1);
        let mut owner = |proto| {
            t.lookup_public(proto, ep("155.99.25.11:62000"), soon)
                .map(|e| e.id)
        };
        assert_eq!(owner(Proto::Udp), Some(u.0));
        assert_eq!(owner(Proto::Tcp), Some(tc.0));
    }
}
