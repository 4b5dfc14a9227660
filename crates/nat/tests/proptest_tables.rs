//! Property tests on the NAT translation tables: index consistency under
//! arbitrary operation sequences, and policy-derived mapping identities.

use proptest::prelude::*;
use punch_nat::{MappingPolicy, NatTables};
use punch_net::{Duration, Endpoint, Proto, SimTime};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

#[derive(Debug, Clone)]
enum Op {
    Outbound {
        host: u8,
        port: u16,
        remote_ip: u8,
        remote_port: u16,
        at_secs: u32,
    },
    Sweep {
        at_secs: u32,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 1024u16..1030, 0u8..3, 80u16..83, 0u32..300).prop_map(
            |(host, port, remote_ip, remote_port, at_secs)| Op::Outbound {
                host,
                port,
                remote_ip,
                remote_port,
                at_secs,
            }
        ),
        (0u32..300).prop_map(|at_secs| Op::Sweep { at_secs }),
    ]
}

/// Both tables agree: an entry is found under its own protocol and
/// public endpoint (and nothing else is), live or not as its timer says.
fn check_invariants(t: &mut NatTables, now: SimTime) {
    let stored: Vec<_> = t
        .iter()
        .map(|e| (e.proto, e.public, e.id, e.expires_at))
        .collect();
    let mut publics = std::collections::HashSet::new();
    for (proto, public, id, expires_at) in stored {
        // Public endpoints are unique per proto.
        assert!(publics.insert((proto, public)), "duplicate public {public}");
        assert!(t.public_in_use(proto, public));
        let found = t.lookup_public(proto, public, now).map(|f| f.id);
        assert_eq!(found, (expires_at > now).then_some(id));
    }
}

/// Everything in the model test is UDP behind one public IP.
const PUBLIC_IP: [u8; 4] = [155, 99, 25, 11];

fn public(port: u16) -> Endpoint {
    Endpoint::new(PUBLIC_IP.into(), port)
}

/// The allocator both sides use: the lowest free port from 62000.
fn lowest_free(in_use: impl Fn(Endpoint) -> bool) -> Option<Endpoint> {
    (62000..=u16::MAX).map(public).find(|p| !in_use(*p))
}

type OutKey = (Endpoint, Option<Ipv4Addr>, Option<u16>);

fn out_key(policy: MappingPolicy, private: Endpoint, remote: Endpoint) -> OutKey {
    match policy {
        MappingPolicy::EndpointIndependent => (private, None, None),
        MappingPolicy::AddressDependent => (private, Some(remote.ip), None),
        MappingPolicy::AddressAndPortDependent => (private, Some(remote.ip), Some(remote.port)),
    }
}

/// Reference model of `NatTables`: what §5.1 says a mapping is, in two
/// `BTreeMap`s and no cleverness. A mapping is (creation stamp, private
/// endpoint, expiry) under its public endpoint; `out` says which mapping
/// an outbound flow uses.
#[derive(Default)]
struct Model {
    next_stamp: u64,
    maps: BTreeMap<Endpoint, (u64, Endpoint, SimTime)>,
    out: BTreeMap<OutKey, Endpoint>,
}

impl Model {
    fn live(&self, public: Endpoint, now: SimTime) -> Option<Endpoint> {
        self.maps.get(&public).filter(|m| m.2 > now).map(|m| m.1)
    }

    fn refresh(&mut self, public: Endpoint, until: SimTime) {
        let m = self
            .maps
            .get_mut(&public)
            .expect("model refreshes what it holds");
        m.2 = m.2.max(until);
    }

    fn outbound(&mut self, key: OutKey, now: SimTime, ttl: Duration) -> (Endpoint, bool) {
        let hit = self
            .out
            .get(&key)
            .copied()
            .filter(|p| self.live(*p, now).is_some());
        let public = hit.unwrap_or_else(|| {
            self.sweep(now);
            let public = lowest_free(|p| self.maps.contains_key(&p)).expect("65k ports");
            self.maps.insert(public, (self.next_stamp, key.0, now));
            self.next_stamp += 1;
            self.out.insert(key, public);
            public
        });
        self.refresh(public, now + ttl);
        (public, hit.is_none())
    }

    fn remove(&mut self, public: Endpoint) {
        self.maps.remove(&public);
        self.out.retain(|_, p| *p != public);
    }

    fn sweep(&mut self, now: SimTime) -> usize {
        let before = self.maps.len();
        self.maps.retain(|_, m| m.2 > now);
        let maps = &self.maps;
        self.out.retain(|_, p| maps.contains_key(p));
        before - self.maps.len()
    }

    /// Least recently refreshed live mapping (ties: older stamp); with
    /// `fair`, of the source holding the most (ties: lower IP).
    fn victim(&self, now: SimTime, fair: bool) -> Option<Endpoint> {
        let live = || self.maps.iter().filter(move |(_, m)| m.2 > now);
        let held = |ip: Ipv4Addr| live().filter(|(_, m)| m.1.ip == ip).count();
        let heaviest = live()
            .map(|(_, m)| m.1.ip)
            .max_by_key(|ip| (held(*ip), Reverse(*ip)));
        live()
            .filter(|(_, m)| !fair || Some(m.1.ip) == heaviest)
            .min_by_key(|(_, m)| (m.2, m.0))
            .map(|(p, _)| *p)
    }
}

#[derive(Debug, Clone)]
enum ModelOp {
    Outbound {
        host: u8,
        port: u16,
        remote: (u8, u16),
        ttl: u8,
    },
    Inbound {
        slot: u16,
    },
    BindReverse {
        slot: u16,
        remote: (u8, u16),
    },
    Refresh {
        slot: u16,
        ttl: u8,
    },
    Evict {
        fair: bool,
    },
    Sweep,
}

fn arb_model_op() -> impl Strategy<Value = ModelOp> {
    let remote = || (0u8..3, 80u16..82);
    // Twice, so that outbound packets are two ops in seven.
    let outbound = || {
        (0u8..3, 1024u16..1027, remote(), 1u8..60).prop_map(|(host, port, remote, ttl)| {
            ModelOp::Outbound {
                host,
                port,
                remote,
                ttl,
            }
        })
    };
    prop_oneof![
        outbound(),
        outbound(),
        (0u16..10).prop_map(|slot| ModelOp::Inbound { slot }),
        (0u16..10, remote()).prop_map(|(slot, remote)| ModelOp::BindReverse { slot, remote }),
        (0u16..10, 1u8..60).prop_map(|(slot, ttl)| ModelOp::Refresh { slot, ttl }),
        any::<bool>().prop_map(|fair| ModelOp::Evict { fair }),
        Just(ModelOp::Sweep),
    ]
}

// The table's side of each op, spelt in the table's API. These five
// functions are the only part of the model test that knows it.

fn sut_outbound(
    t: &mut NatTables,
    policy: MappingPolicy,
    private: Endpoint,
    remote: Endpoint,
    now: SimTime,
    ttl: Duration,
    alloc: impl FnOnce(&NatTables) -> Option<Endpoint>,
) -> Option<(Endpoint, bool)> {
    if let Some(e) = t.lookup_outbound(policy, Proto::Udp, private, remote, now) {
        e.refresh(now, ttl);
        return Some((e.public, false));
    }
    t.sweep(now);
    let public = alloc(t)?;
    let e = t.insert(policy, Proto::Udp, private, remote, public, now);
    e.refresh(now, ttl);
    Some((e.public, true))
}

fn sut_live(t: &mut NatTables, public: Endpoint, now: SimTime) -> Option<Endpoint> {
    Some(t.lookup_public(Proto::Udp, public, now)?.private)
}

fn sut_bind_reverse(
    t: &mut NatTables,
    policy: MappingPolicy,
    public: Endpoint,
    remote: Endpoint,
    now: SimTime,
) {
    if let Some(private) = sut_live(t, public, now) {
        t.bind_reverse(policy, Proto::Udp, private, remote, public);
    }
}

fn sut_refresh(t: &mut NatTables, public: Endpoint, now: SimTime, ttl: Duration) {
    if let Some(e) = t.lookup_public(Proto::Udp, public, now) {
        e.refresh(now, ttl);
    }
}

fn sut_evict(t: &mut NatTables, now: SimTime, fair: bool) -> Option<Endpoint> {
    let victim = t.eviction_victim(now, fair)?;
    t.remove(victim);
    Some(victim.1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary op sequences against the `BTreeMap` reference model:
    /// same public endpoint and created-flag for every outbound packet
    /// under each mapping policy, same inbound owner, same eviction
    /// victim fair and unfair, same sweep count, and after every op the
    /// same stored mappings (stamp, endpoints, expiry) and live count.
    #[test]
    fn tables_agree_with_reference_model(
        ops in proptest::collection::vec((arb_model_op(), 0u64..20), 0..120),
        policy_idx in 0u8..3,
    ) {
        let policy = [
            MappingPolicy::EndpointIndependent,
            MappingPolicy::AddressDependent,
            MappingPolicy::AddressAndPortDependent,
        ][policy_idx as usize];
        let remote_ep = |(ip, port): (u8, u16)| Endpoint::new([99, 0, 0, ip].into(), port);
        let mut t = NatTables::new();
        let mut m = Model::default();
        let mut now = SimTime::ZERO;
        for (op, dt) in ops {
            now += Duration::from_secs(dt);
            match op {
                ModelOp::Outbound { host, port, remote, ttl } => {
                    let private = Endpoint::new([10, 0, 0, host].into(), port);
                    let ttl = Duration::from_secs(ttl as u64);
                    let alloc = |t: &NatTables| lowest_free(|p| t.public_in_use(Proto::Udp, p));
                    let got = sut_outbound(&mut t, policy, private, remote_ep(remote), now, ttl, alloc);
                    let want = m.outbound(out_key(policy, private, remote_ep(remote)), now, ttl);
                    prop_assert_eq!(got, Some(want));
                }
                ModelOp::Inbound { slot } => {
                    prop_assert_eq!(sut_live(&mut t, public(62000 + slot), now), m.live(public(62000 + slot), now));
                }
                ModelOp::BindReverse { slot, remote } => {
                    let public = public(62000 + slot);
                    sut_bind_reverse(&mut t, policy, public, remote_ep(remote), now);
                    if let Some(private) = m.live(public, now) {
                        m.out.entry(out_key(policy, private, remote_ep(remote))).or_insert(public);
                    }
                }
                ModelOp::Refresh { slot, ttl } => {
                    let (public, ttl) = (public(62000 + slot), Duration::from_secs(ttl as u64));
                    sut_refresh(&mut t, public, now, ttl);
                    if m.live(public, now).is_some() {
                        m.refresh(public, now + ttl);
                    }
                }
                ModelOp::Evict { fair } => {
                    let want = m.victim(now, fair);
                    prop_assert_eq!(sut_evict(&mut t, now, fair), want);
                    if let Some(public) = want {
                        m.remove(public);
                    }
                }
                ModelOp::Sweep => prop_assert_eq!(t.sweep(now), m.sweep(now)),
            }
            let stored: BTreeSet<_> = t.iter().map(|e| (e.public, e.id, e.private, e.expires_at)).collect();
            let modelled: BTreeSet<_> = m.maps.iter().map(|(p, m)| (*p, m.0, m.1, m.2)).collect();
            prop_assert_eq!(stored, modelled);
            prop_assert_eq!(t.len(now), m.maps.values().filter(|m| m.2 > now).count());
            check_invariants(&mut t, now);
        }
    }

    #[test]
    fn table_invariants_hold_under_arbitrary_ops(
        ops in proptest::collection::vec(arb_op(), 0..80),
        policy_idx in 0u8..3,
    ) {
        let policy = match policy_idx {
            0 => MappingPolicy::EndpointIndependent,
            1 => MappingPolicy::AddressDependent,
            _ => MappingPolicy::AddressAndPortDependent,
        };
        let mut t = NatTables::new();
        let mut next_port = 62000u16;
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Outbound { host, port, remote_ip, remote_port, at_secs } => {
                    now = now.max(SimTime::from_secs(at_secs as u64));
                    let private = Endpoint::new([10, 0, 0, host].into(), port);
                    let remote = Endpoint::new([99, 0, 0, remote_ip].into(), remote_port);
                    let alloc = |tabs: &NatTables| {
                        let mut p = next_port;
                        for _ in 0..1000 {
                            if !tabs.public_in_use(Proto::Udp, public(p)) {
                                return Some(public(p));
                            }
                            p = p.wrapping_add(1).max(1024);
                        }
                        None
                    };
                    let ttl = Duration::from_secs(30);
                    if let Some((public, created)) = sut_outbound(&mut t, policy, private, remote, now, ttl, alloc) {
                        if created {
                            next_port = next_port.wrapping_add(1).max(1024);
                        }
                        let e = t.lookup_public(Proto::Udp, public, now).expect("entry exists");
                        prop_assert_eq!(e.private, private);
                        prop_assert!(e.expires_at > now);
                    }
                }
                Op::Sweep { at_secs } => {
                    now = now.max(SimTime::from_secs(at_secs as u64));
                    t.sweep(now);
                }
            }
            check_invariants(&mut t, now);
        }
    }

    /// Endpoint-independent mapping gives the same mapping (one public
    /// endpoint) for any two destinations; address-and-port-dependent
    /// gives distinct mappings for distinct destinations.
    #[test]
    fn mapping_identity_matches_policy(
        port in 1024u16..60000,
        r1 in (0u8..8, 1u16..1000),
        r2 in (0u8..8, 1u16..1000),
    ) {
        let private = Endpoint::new([10, 0, 0, 1].into(), port);
        let rem1 = Endpoint::new([99, 0, 0, r1.0].into(), r1.1);
        let rem2 = Endpoint::new([99, 0, 0, r2.0].into(), r2.1);
        let now = SimTime::ZERO;
        let alloc_seq = |base: &mut u16| {
            let p = *base;
            *base += 1;
            move |_: &NatTables| Some(Endpoint::new([155, 99, 25, 11].into(), p))
        };

        for policy in [
            MappingPolicy::EndpointIndependent,
            MappingPolicy::AddressDependent,
            MappingPolicy::AddressAndPortDependent,
        ] {
            let mut t = NatTables::new();
            let mut base = 62000u16;
            let ttl = Duration::from_secs(60);
            let (a, _) = sut_outbound(&mut t, policy, private, rem1, now, ttl, alloc_seq(&mut base)).expect("alloc");
            let (b, _) = sut_outbound(&mut t, policy, private, rem2, now, ttl, alloc_seq(&mut base)).expect("alloc");
            let same = a == b;
            let expected_same = match policy {
                MappingPolicy::EndpointIndependent => true,
                MappingPolicy::AddressDependent => rem1.ip == rem2.ip,
                MappingPolicy::AddressAndPortDependent => rem1 == rem2,
            };
            prop_assert_eq!(same, expected_same, "policy {:?} rem1={} rem2={}", policy, rem1, rem2);
        }
    }
}
