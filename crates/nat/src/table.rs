//! NAT translation state: mappings, filters, and timers.
//!
//! Pure data structures, independent of the simulator, so the binding
//! between behaviour policies and table outcomes is unit-testable.

use crate::behavior::{FilteringPolicy, MappingPolicy};
use punch_net::flat::FlatMap;
use punch_net::{Endpoint, Proto, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Duration;

/// Identifier of a mapping within one NAT.
pub type MapId = u64;

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
}

/// One translation entry.
#[derive(Clone, Debug)]
pub struct MapEntry {
    /// Stable id.
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
    pub allowed: FlatMap<Endpoint, SimTime>,
    /// Absolute expiry time; refreshed by traffic.
    pub expires_at: SimTime,
    /// TCP signal tracking (TCP mappings only).
    pub tcp: TcpTrack,
}

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
    pub fn touch_session(&mut self, remote: Endpoint, expires: SimTime) {
        let slot = self.allowed.entry(remote).or_insert(expires);
        if expires > *slot {
            *slot = expires;
        }
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
    match policy {
        MappingPolicy::EndpointIndependent => OutKey {
            proto,
            private,
            remote_ip: None,
            remote_port: None,
        },
        MappingPolicy::AddressDependent => OutKey {
            proto,
            private,
            remote_ip: Some(remote.ip),
            remote_port: None,
        },
        MappingPolicy::AddressAndPortDependent => OutKey {
            proto,
            private,
            remote_ip: Some(remote.ip),
            remote_port: Some(remote.port),
        },
    }
}

/// The set of live mappings of one NAT.
#[derive(Debug, Default)]
pub struct NatTables {
    next_id: MapId,
    /// Ordered so [`NatTables::iter`], [`NatTables::sweep`] and
    /// [`NatTables::len`] walk entries in id (creation) order.
    /// A home NAT holds one to three mappings, so all three tables are
    /// sorted vectors that cost what they hold; a flooded or exhausted
    /// NAT's thousands are still found by binary search, and new ids
    /// append. Boxed so that growing the table, or removing a low id
    /// from a large one, moves pointers and not entries.
    entries: FlatMap<MapId, Box<MapEntry>>,
    out_index: FlatMap<OutKey, MapId>,
    pub_index: FlatMap<(Proto, Endpoint), MapId>,
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

    /// Looks up (without refreshing) the mapping an outbound packet from
    /// `private` to `remote` would use, if it exists and is live.
    pub fn lookup_outbound(
        &self,
        policy: MappingPolicy,
        proto: Proto,
        private: Endpoint,
        remote: Endpoint,
        now: SimTime,
    ) -> Option<&MapEntry> {
        let key = out_key(policy, proto, private, remote);
        let id = *self.out_index.get(&key)?;
        let e = self.entries.get(&id)?;
        (e.expires_at > now).then_some(e.as_ref())
    }

    /// Finds or creates the mapping for an outbound packet. `alloc`
    /// provides a fresh public endpoint when a new mapping is needed
    /// (returning `None` when the pool is exhausted). The boolean is
    /// `true` when a new mapping was created (including replacement of an
    /// expired one).
    ///
    /// The caller is responsible for refreshing the entry and recording
    /// the destination in `allowed`.
    pub fn outbound(
        &mut self,
        policy: MappingPolicy,
        proto: Proto,
        private: Endpoint,
        remote: Endpoint,
        now: SimTime,
        alloc: impl FnOnce(&NatTables) -> Option<Endpoint>,
    ) -> Option<(MapId, bool)> {
        let key = out_key(policy, proto, private, remote);
        if let Some(&id) = self.out_index.get(&key) {
            let expired = self
                .entries
                .get(&id)
                .map(|e| e.expires_at <= now)
                .unwrap_or(true);
            if !expired {
                return Some((id, false));
            }
            self.remove(id);
        }
        // About to allocate: purge every expired entry first, so dead
        // mappings cannot hold public ports hostage and exhaust the
        // allocator under churn. Only the (rare) allocation path pays
        // for the sweep; packets on live mappings never reach here.
        self.sweep(now);
        let public = alloc(self)?;
        let id = self.next_id;
        self.next_id += 1;
        let entry = MapEntry {
            id,
            proto,
            private,
            public,
            allowed: FlatMap::new(),
            expires_at: now, // caller refreshes immediately
            tcp: TcpTrack::default(),
        };
        self.entries.insert(id, Box::new(entry));
        self.out_index.insert(key, id);
        self.pub_index.insert((proto, public), id);
        Some((id, true))
    }

    /// Binds the reverse direction of an accepted inbound flow to an
    /// existing mapping, conntrack-style: after a packet from `remote`
    /// is delivered to `private` through mapping `id`, replies from
    /// `private` to `remote` must translate through the same mapping —
    /// even under address(-and-port)-dependent mapping policies, where a
    /// plain outbound lookup would otherwise allocate a fresh public
    /// endpoint. Without this, symmetric NATs could never carry a
    /// conversation opened from outside (including hairpinned ones).
    pub fn bind_reverse(
        &mut self,
        policy: MappingPolicy,
        proto: Proto,
        private: Endpoint,
        remote: Endpoint,
        id: MapId,
    ) {
        let key = out_key(policy, proto, private, remote);
        self.out_index.entry(key).or_insert(id);
    }

    /// Looks up the live mapping owning public endpoint `public`.
    pub fn lookup_public(&self, proto: Proto, public: Endpoint, now: SimTime) -> Option<MapId> {
        let id = *self.pub_index.get(&(proto, public))?;
        let e = self.entries.get(&id)?;
        (e.expires_at > now).then_some(id)
    }

    /// Returns a live entry by id.
    pub fn get(&self, id: MapId) -> Option<&MapEntry> {
        self.entries.get(&id).map(Box::as_ref)
    }

    /// Returns a mutable live entry by id.
    pub fn get_mut(&mut self, id: MapId) -> Option<&mut MapEntry> {
        self.entries.get_mut(&id).map(Box::as_mut)
    }

    /// Returns true if `public` is currently allocated for `proto`.
    pub fn public_in_use(&self, proto: Proto, public: Endpoint) -> bool {
        self.pub_index.contains_key(&(proto, public))
    }

    /// Removes an entry and its index slots.
    pub fn remove(&mut self, id: MapId) {
        if let Some(e) = self.entries.remove(&id) {
            self.pub_index.remove(&(e.proto, e.public));
            self.out_index.retain(|_, v| *v != id);
        }
    }

    /// Drops every entry that expired at or before `now`; returns how
    /// many were removed.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, e| e.expires_at > now);
        let removed = before - self.entries.len();
        if removed > 0 {
            // One pass per index however many entries died (a flood's
            // mappings expire together), not one pass per dead entry.
            let entries = &self.entries;
            self.pub_index.retain(|_, id| entries.contains_key(id));
            self.out_index.retain(|_, id| entries.contains_key(id));
        }
        removed
    }

    /// Extends an entry's lifetime to `now + ttl`.
    pub fn refresh(&mut self, id: MapId, now: SimTime, ttl: Duration) {
        if let Some(e) = self.entries.get_mut(&id) {
            let new = now + ttl;
            if new > e.expires_at {
                e.expires_at = new;
            }
        }
    }

    /// Iterates over all entries (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &MapEntry> {
        self.entries.values().map(Box::as_ref)
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
    /// lowest id as the deterministic tie-break) — the policy a flooder
    /// exploits, since its own mappings are always the freshest. With
    /// `fair` on, the oldest entry *of the source owning the most live
    /// mappings* (ties: lower IP), so the heaviest talker pays for its
    /// own overflow.
    pub fn eviction_victim(&self, now: SimTime, fair: bool) -> Option<MapId> {
        let live = self.entries.values().filter(|e| e.expires_at > now);
        if !fair {
            return live.min_by_key(|e| (e.expires_at, e.id)).map(|e| e.id);
        }
        let mut counts: BTreeMap<Ipv4Addr, usize> = BTreeMap::new();
        for e in self.entries.values().filter(|e| e.expires_at > now) {
            *counts.entry(e.private.ip).or_insert(0) += 1;
        }
        let (&heaviest, _) = counts.iter().max_by_key(|(ip, n)| (**n, std::cmp::Reverse(**ip)))?;
        self.entries
            .values()
            .filter(|e| e.expires_at > now && e.private.ip == heaviest)
            .min_by_key(|e| (e.expires_at, e.id))
            .map(|e| e.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(s: &str) -> Endpoint {
        s.parse().unwrap()
    }

    fn fixed_alloc(port: u16) -> impl FnOnce(&NatTables) -> Option<Endpoint> {
        move |_| Some(Endpoint::new([155, 99, 25, 11].into(), port))
    }

    #[test]
    fn endpoint_independent_reuses_mapping_across_destinations() {
        let mut t = NatTables::new();
        let now = SimTime::ZERO;
        let a = t
            .outbound(
                MappingPolicy::EndpointIndependent,
                Proto::Udp,
                ep("10.0.0.1:4321"),
                ep("18.181.0.31:1234"),
                now,
                fixed_alloc(62000),
            )
            .unwrap()
            .0;
        t.refresh(a, now, Duration::from_secs(60));
        let b = t
            .outbound(
                MappingPolicy::EndpointIndependent,
                Proto::Udp,
                ep("10.0.0.1:4321"),
                ep("138.76.29.7:31000"),
                now,
                fixed_alloc(99),
            )
            .unwrap()
            .0;
        assert_eq!(a, b, "cone NAT must preserve the public endpoint (§5.1)");
        assert_eq!(t.get(a).unwrap().public, ep("155.99.25.11:62000"));
        assert_eq!(t.len(now), 1);
    }

    #[test]
    fn symmetric_allocates_per_destination() {
        let mut t = NatTables::new();
        let now = SimTime::ZERO;
        let a = t
            .outbound(
                MappingPolicy::AddressAndPortDependent,
                Proto::Udp,
                ep("10.0.0.1:4321"),
                ep("18.181.0.31:1234"),
                now,
                fixed_alloc(62000),
            )
            .unwrap()
            .0;
        t.refresh(a, now, Duration::from_secs(60));
        let b = t
            .outbound(
                MappingPolicy::AddressAndPortDependent,
                Proto::Udp,
                ep("10.0.0.1:4321"),
                ep("138.76.29.7:31000"),
                now,
                fixed_alloc(62001),
            )
            .unwrap()
            .0;
        assert_ne!(a, b);
        // Refresh first: a just-created entry is live only once the
        // caller arms its timer.
        t.refresh(b, now, Duration::from_secs(60));
        assert_eq!(t.len(now), 2);
        // Same destination, different port → also a fresh mapping.
        let c = t
            .outbound(
                MappingPolicy::AddressAndPortDependent,
                Proto::Udp,
                ep("10.0.0.1:4321"),
                ep("138.76.29.7:31001"),
                now,
                fixed_alloc(62002),
            )
            .unwrap()
            .0;
        assert_ne!(b, c);
    }

    #[test]
    fn address_dependent_mapping_keys_on_remote_ip_only() {
        let mut t = NatTables::new();
        let now = SimTime::ZERO;
        let a = t
            .outbound(
                MappingPolicy::AddressDependent,
                Proto::Udp,
                ep("10.0.0.1:4321"),
                ep("18.181.0.31:1234"),
                now,
                fixed_alloc(62000),
            )
            .unwrap()
            .0;
        t.refresh(a, now, Duration::from_secs(60));
        let b = t
            .outbound(
                MappingPolicy::AddressDependent,
                Proto::Udp,
                ep("10.0.0.1:4321"),
                ep("18.181.0.31:9999"),
                now,
                fixed_alloc(62001),
            )
            .unwrap()
            .0;
        assert_eq!(a, b, "same remote IP reuses the mapping");
        let c = t
            .outbound(
                MappingPolicy::AddressDependent,
                Proto::Udp,
                ep("10.0.0.1:4321"),
                ep("19.0.0.1:1234"),
                now,
                fixed_alloc(62001),
            )
            .unwrap()
            .0;
        assert_ne!(a, c);
    }

    #[test]
    fn filtering_policies() {
        let mut e = MapEntry {
            id: 0,
            proto: Proto::Udp,
            private: ep("10.0.0.1:4321"),
            public: ep("155.99.25.11:62000"),
            allowed: FlatMap::new(),
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
            allowed: FlatMap::new(),
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
        let id = t
            .outbound(
                MappingPolicy::EndpointIndependent,
                Proto::Udp,
                ep("10.0.0.1:1"),
                ep("2.2.2.2:2"),
                t0,
                fixed_alloc(62000),
            )
            .unwrap()
            .0;
        t.refresh(id, t0, Duration::from_secs(20));
        let t1 = SimTime::from_secs(10);
        assert!(t
            .lookup_public(Proto::Udp, ep("155.99.25.11:62000"), t1)
            .is_some());
        t.refresh(id, t1, Duration::from_secs(20));
        // Without the refresh it would have expired at t=20.
        let t2 = SimTime::from_secs(25);
        assert!(t
            .lookup_public(Proto::Udp, ep("155.99.25.11:62000"), t2)
            .is_some());
        let t3 = SimTime::from_secs(31);
        assert!(t
            .lookup_public(Proto::Udp, ep("155.99.25.11:62000"), t3)
            .is_none());
    }

    #[test]
    fn expired_mapping_is_replaced_with_fresh_port() {
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        let id = t
            .outbound(
                MappingPolicy::EndpointIndependent,
                Proto::Udp,
                ep("10.0.0.1:1"),
                ep("2.2.2.2:2"),
                t0,
                fixed_alloc(62000),
            )
            .unwrap()
            .0;
        t.refresh(id, t0, Duration::from_secs(20));
        let later = SimTime::from_secs(60);
        let id2 = t
            .outbound(
                MappingPolicy::EndpointIndependent,
                Proto::Udp,
                ep("10.0.0.1:1"),
                ep("2.2.2.2:2"),
                later,
                fixed_alloc(62001),
            )
            .unwrap()
            .0;
        assert_ne!(id, id2);
        assert_eq!(t.get(id2).unwrap().public.port, 62001);
        assert_eq!(t.total_len(), 1, "expired entry removed");
    }

    #[test]
    fn refresh_never_shortens() {
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        let id = t
            .outbound(
                MappingPolicy::EndpointIndependent,
                Proto::Udp,
                ep("10.0.0.1:1"),
                ep("2.2.2.2:2"),
                t0,
                fixed_alloc(62000),
            )
            .unwrap()
            .0;
        t.refresh(id, t0, Duration::from_secs(100));
        t.refresh(id, t0, Duration::from_secs(10));
        assert_eq!(t.get(id).unwrap().expires_at, SimTime::from_secs(100));
    }

    #[test]
    fn sweep_removes_expired() {
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        for (i, port) in [(1u16, 62000u16), (2, 62001), (3, 62002)] {
            let id = t
                .outbound(
                    MappingPolicy::EndpointIndependent,
                    Proto::Udp,
                    ep(&format!("10.0.0.1:{i}")),
                    ep("2.2.2.2:2"),
                    t0,
                    fixed_alloc(port),
                )
                .unwrap()
                .0;
            t.refresh(id, t0, Duration::from_secs(i as u64 * 10));
        }
        assert_eq!(t.sweep(SimTime::from_secs(15)), 1);
        assert_eq!(t.len(SimTime::from_secs(15)), 2);
        assert_eq!(t.sweep(SimTime::from_secs(100)), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn sweep_of_a_flood_leaves_the_three_tables_agreeing() {
        // The ATK1 shape: thousands of mappings created together expire
        // together, and the next allocation sweeps them all at once.
        let policy = MappingPolicy::AddressAndPortDependent;
        let private = ep("10.0.0.1:4321");
        let remote = |i: u16| Endpoint::new([99, 0, (i >> 8) as u8, i as u8].into(), 80);
        let public = |i: u16| Endpoint::new([155, 99, 25, 11].into(), 2000 + i);
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        for i in 0..2_010u16 {
            let (id, created) = t
                .outbound(policy, Proto::Udp, private, remote(i), t0, |_| Some(public(i)))
                .unwrap();
            assert!(created);
            // The last ten outlive the flood.
            let ttl = if i < 2_000 { 30 } else { 300 };
            t.refresh(id, t0, Duration::from_secs(ttl));
        }
        assert_eq!(t.total_len(), 2_010);
        let later = SimTime::from_secs(60);
        assert_eq!(t.sweep(later), 2_000);
        assert_eq!(t.total_len(), 10);
        assert_eq!(t.out_index.len(), 10);
        assert_eq!(t.pub_index.len(), 10);
        for i in 0..2_010u16 {
            let live = i >= 2_000;
            assert_eq!(t.public_in_use(Proto::Udp, public(i)), live, "public {i}");
            assert_eq!(
                t.lookup_outbound(policy, Proto::Udp, private, remote(i), later).is_some(),
                live,
                "outbound {i}"
            );
            assert_eq!(t.lookup_public(Proto::Udp, public(i), later).is_some(), live);
        }
    }

    #[test]
    fn len_counts_live_entries_only() {
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        for (i, port, secs) in [(1u16, 62000u16, 10u64), (2, 62001, 100)] {
            let id = t
                .outbound(
                    MappingPolicy::EndpointIndependent,
                    Proto::Udp,
                    ep(&format!("10.0.0.{i}:1")),
                    ep("2.2.2.2:2"),
                    t0,
                    fixed_alloc(port),
                )
                .unwrap()
                .0;
            t.refresh(id, t0, Duration::from_secs(secs));
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
        let id = t
            .outbound(
                MappingPolicy::EndpointIndependent,
                Proto::Udp,
                ep("10.0.0.1:1"),
                ep("2.2.2.2:2"),
                t0,
                fixed_alloc(62000),
            )
            .unwrap()
            .0;
        t.refresh(id, t0, Duration::from_secs(20));
        // A *different* private host allocates long after the first
        // mapping expired, and the pool's only remaining port is the one
        // the dead entry holds. Without the purge, the allocator sees the
        // port in use and the NAT refuses the new session.
        let later = SimTime::from_secs(60);
        let scavenge = |tables: &NatTables| {
            (!tables.public_in_use(Proto::Udp, ep("155.99.25.11:62000")))
                .then(|| ep("155.99.25.11:62000"))
        };
        let id2 = t
            .outbound(
                MappingPolicy::EndpointIndependent,
                Proto::Udp,
                ep("10.0.0.2:1"),
                ep("2.2.2.2:2"),
                later,
                scavenge,
            )
            .expect("expired entry must release its port")
            .0;
        assert_ne!(id, id2);
        assert_eq!(t.total_len(), 1, "dead entry purged, new entry stored");
        assert_eq!(t.get(id2).unwrap().public, ep("155.99.25.11:62000"));
    }

    #[test]
    fn alloc_failure_propagates() {
        let mut t = NatTables::new();
        let r = t.outbound(
            MappingPolicy::EndpointIndependent,
            Proto::Udp,
            ep("10.0.0.1:1"),
            ep("2.2.2.2:2"),
            SimTime::ZERO,
            |_| None,
        );
        assert!(r.is_none());
        assert!(t.is_empty());
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
    fn eviction_victim_policies() {
        let mut t = NatTables::new();
        let t0 = SimTime::ZERO;
        // Victim allocates first (oldest), flooder 10.0.0.99 owns three
        // fresher mappings.
        let mut mk = |src: &str, port: u16, secs: u64| {
            let id = t
                .outbound(
                    MappingPolicy::EndpointIndependent,
                    Proto::Udp,
                    ep(src),
                    ep("2.2.2.2:2"),
                    t0,
                    fixed_alloc(port),
                )
                .unwrap()
                .0;
            t.refresh(id, t0, Duration::from_secs(secs));
            id
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
        assert_eq!(t.live_count_for_source("10.0.0.99".parse().unwrap(), now), 3);
        assert_eq!(t.live_count_for_source("10.0.0.1".parse().unwrap(), now), 1);
        // Expired entries count for neither accounting nor eviction.
        let late = SimTime::from_secs(105);
        assert_eq!(t.live_count_for_source("10.0.0.1".parse().unwrap(), late), 0);
        assert_ne!(t.eviction_victim(late, false), Some(victim));
    }

    #[test]
    fn udp_and_tcp_share_port_numbers_without_conflict() {
        let mut t = NatTables::new();
        let now = SimTime::ZERO;
        let u = t
            .outbound(
                MappingPolicy::EndpointIndependent,
                Proto::Udp,
                ep("10.0.0.1:1"),
                ep("2.2.2.2:2"),
                now,
                fixed_alloc(62000),
            )
            .unwrap()
            .0;
        t.refresh(u, now, Duration::from_secs(60));
        let tc = t
            .outbound(
                MappingPolicy::EndpointIndependent,
                Proto::Tcp,
                ep("10.0.0.1:1"),
                ep("2.2.2.2:2"),
                now,
                fixed_alloc(62000),
            )
            .unwrap()
            .0;
        t.refresh(tc, now, Duration::from_secs(60));
        assert_ne!(u, tc);
        assert!(t
            .lookup_public(
                Proto::Udp,
                ep("155.99.25.11:62000"),
                now + Duration::from_secs(1)
            )
            .is_some());
        assert!(t
            .lookup_public(
                Proto::Tcp,
                ep("155.99.25.11:62000"),
                now + Duration::from_secs(1)
            )
            .is_some());
    }
}
