//! Vendor behaviour populations calibrated to the paper's Table 1.
//!
//! The paper's survey covers 380 user-submitted data points across 68
//! vendors. We cannot re-run volunteers' routers, so each vendor is
//! modelled as a *population* of [`NatBehavior`] configurations whose
//! per-axis quotas equal the paper's observed counts: e.g. exactly 45 of
//! the 46 sampled Linksys devices get endpoint-independent UDP mapping.
//! The survey harness (`punch-natcheck`) then *measures* each sampled
//! device end-to-end with the NAT Check procedure — so a bug in either
//! the NAT model or the measurement shows up as a Table 1 mismatch.
//!
//! Column denominators differ (hairpin and TCP testing were added in
//! later NAT Check versions); we reproduce that by marking a random
//! subset of each vendor's devices as having reported those columns.
//!
//! Note: the printed Table 1 is internally inconsistent for TCP hairpin —
//! the listed vendors alone sum to 40 positives yet the "All Vendors" row
//! says 37/286. We reproduce the per-vendor rows as printed and let the
//! total land where it lands (≈14%); EXPERIMENTS.md discusses this.

use crate::behavior::{
    FilteringPolicy, Hairpin, MappingPolicy, NatBehavior, PortAllocation, TcpUnsolicited,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::time::Duration;

/// Observed per-vendor counts from Table 1: `(compatible, tested)`.
#[derive(Clone, Copy, Debug)]
pub struct VendorSpec {
    /// Vendor name as printed in the paper.
    pub name: &'static str,
    /// UDP hole punching (consistent endpoint translation).
    pub udp: (u32, u32),
    /// UDP hairpin translation.
    pub udp_hairpin: (u32, u32),
    /// TCP hole punching (consistent translation + no RST rejection).
    pub tcp: (u32, u32),
    /// TCP hairpin translation.
    pub tcp_hairpin: (u32, u32),
}

/// The twelve vendors Table 1 lists individually, plus an aggregate
/// `(other)` row synthesized so that column totals match the paper's
/// "All Vendors" row (380/335/286 data points).
pub const VENDORS: &[VendorSpec] = &[
    VendorSpec {
        name: "Linksys",
        udp: (45, 46),
        udp_hairpin: (5, 42),
        tcp: (33, 38),
        tcp_hairpin: (3, 38),
    },
    VendorSpec {
        name: "Netgear",
        udp: (31, 37),
        udp_hairpin: (3, 35),
        tcp: (19, 30),
        tcp_hairpin: (0, 30),
    },
    VendorSpec {
        name: "D-Link",
        udp: (16, 21),
        udp_hairpin: (11, 21),
        tcp: (9, 19),
        tcp_hairpin: (2, 19),
    },
    VendorSpec {
        name: "Draytek",
        udp: (2, 17),
        udp_hairpin: (3, 12),
        tcp: (2, 7),
        tcp_hairpin: (0, 7),
    },
    VendorSpec {
        name: "Belkin",
        udp: (14, 14),
        udp_hairpin: (1, 14),
        tcp: (11, 11),
        tcp_hairpin: (0, 11),
    },
    VendorSpec {
        name: "Cisco",
        udp: (12, 12),
        udp_hairpin: (3, 9),
        tcp: (6, 7),
        tcp_hairpin: (2, 7),
    },
    VendorSpec {
        name: "SMC",
        udp: (12, 12),
        udp_hairpin: (3, 10),
        tcp: (8, 9),
        tcp_hairpin: (2, 9),
    },
    VendorSpec {
        name: "ZyXEL",
        udp: (7, 9),
        udp_hairpin: (1, 8),
        tcp: (0, 7),
        tcp_hairpin: (0, 7),
    },
    VendorSpec {
        name: "3Com",
        udp: (7, 7),
        udp_hairpin: (1, 7),
        tcp: (5, 6),
        tcp_hairpin: (0, 6),
    },
    VendorSpec {
        name: "Windows",
        udp: (31, 33),
        udp_hairpin: (11, 32),
        tcp: (16, 31),
        tcp_hairpin: (28, 31),
    },
    VendorSpec {
        name: "Linux",
        udp: (26, 32),
        udp_hairpin: (3, 25),
        tcp: (16, 24),
        tcp_hairpin: (2, 24),
    },
    VendorSpec {
        name: "FreeBSD",
        udp: (7, 9),
        udp_hairpin: (3, 6),
        tcp: (2, 3),
        tcp_hairpin: (1, 1),
    },
    // Vendors with <5 data points, aggregated so the All-Vendors totals
    // (310/380, 80/335, 184/286, ~37/286) come out right.
    VendorSpec {
        name: "(other)",
        udp: (100, 131),
        udp_hairpin: (32, 114),
        tcp: (57, 94),
        tcp_hairpin: (0, 94),
    },
];

/// One sampled NAT device within a vendor population.
#[derive(Clone, Debug)]
pub struct SampledNat {
    /// Vendor name.
    pub vendor: &'static str,
    /// The device's behaviour configuration.
    pub behavior: NatBehavior,
    /// Whether this data point reported UDP hairpin results (later NAT
    /// Check versions only).
    pub in_hairpin_sample: bool,
    /// Whether this data point reported TCP results.
    pub in_tcp_sample: bool,
}

/// A generative model of one vendor's device population.
#[derive(Clone, Copy, Debug)]
pub struct VendorProfile {
    /// The Table 1 counts driving the quotas.
    pub spec: VendorSpec,
}

/// Returns a boolean vector of length `n` with exactly `k` trues, in
/// random positions.
fn quota_flags(n: u32, k: u32, rng: &mut StdRng) -> Vec<bool> {
    assert!(k <= n, "quota {k} exceeds population {n}");
    let mut v: Vec<bool> = (0..n).map(|i| i < k).collect();
    v.shuffle(rng);
    v
}

impl VendorProfile {
    /// Wraps a Table 1 row.
    pub fn new(spec: VendorSpec) -> Self {
        VendorProfile { spec }
    }

    /// Samples the vendor's full device population: one device per UDP
    /// data point, with per-axis quotas matching the paper's counts
    /// inside each reporting subset and the vendor's observed rates
    /// outside it.
    pub fn sample_population(&self, rng: &mut StdRng) -> Vec<SampledNat> {
        self.sample_population_capped(rng, None)
    }

    /// [`VendorProfile::sample_population`], but only materializing the
    /// first `cap` devices. The per-axis quota/subset assignments are
    /// still drawn over the full population (so the prefix is exactly
    /// the first `cap` devices of the full sample), but per-device
    /// behaviour construction — the expensive part — stops at the cap.
    /// Smoke surveys use this to avoid paying full sampling cost.
    pub fn sample_population_capped(
        &self,
        rng: &mut StdRng,
        cap: Option<u32>,
    ) -> Vec<SampledNat> {
        let s = self.spec;
        let n = s.udp.1;
        assert!(
            s.udp_hairpin.1 <= n && s.tcp.1 <= n,
            "{}: subsets exceed population",
            s.name
        );

        let udp_ok = quota_flags(n, s.udp.0, rng);
        // Which devices belong to each column's reporting subset.
        let in_hp = quota_flags(n, s.udp_hairpin.1, rng);
        let in_tcp = quota_flags(n, s.tcp.1, rng);
        // Assign hairpin/tcp outcomes: exact quota inside the reporting
        // subset, rate-sampled outside it (those devices exist but were
        // not measured for that column).
        let hp_in = quota_flags(s.udp_hairpin.1, s.udp_hairpin.0, rng);
        let tcp_in = quota_flags(s.tcp.1, s.tcp.0, rng);
        let tcp_hp_in = quota_flags(s.tcp_hairpin.1, s.tcp_hairpin.0, rng);

        let hp_rate = s.udp_hairpin.0 as f64 / s.udp_hairpin.1.max(1) as f64;
        let tcp_rate = s.tcp.0 as f64 / s.tcp.1.max(1) as f64;
        let tcp_hp_rate = s.tcp_hairpin.0 as f64 / s.tcp_hairpin.1.max(1) as f64;

        let limit = cap.map_or(n, |c| c.min(n));
        let (mut hp_idx, mut tcp_idx, mut tcp_hp_idx) = (0usize, 0usize, 0usize);
        let mut out = Vec::with_capacity(limit as usize);
        for i in 0..limit as usize {
            let udp_hp = udp_ok[i];
            let hairpin_udp = if in_hp[i] {
                let v = hp_in[hp_idx];
                hp_idx += 1;
                v
            } else {
                rng.gen_bool(hp_rate)
            };
            let (tcp_hp, tcp_hairpin) = if in_tcp[i] {
                let ok = tcp_in[tcp_idx];
                tcp_idx += 1;
                // The TCP-hairpin column may have a smaller denominator
                // than the TCP column (FreeBSD in Table 1); devices past
                // the quota sample at the vendor rate.
                let hp = if tcp_hp_idx < tcp_hp_in.len() {
                    let v = tcp_hp_in[tcp_hp_idx];
                    tcp_hp_idx += 1;
                    v
                } else {
                    rng.gen_bool(tcp_hp_rate)
                };
                (ok, hp)
            } else {
                (rng.gen_bool(tcp_rate), rng.gen_bool(tcp_hp_rate))
            };
            out.push(SampledNat {
                vendor: s.name,
                behavior: Self::build_behavior(rng, udp_hp, hairpin_udp, tcp_hp, tcp_hairpin),
                in_hairpin_sample: in_hp[i],
                in_tcp_sample: in_tcp[i],
            });
        }
        out
    }

    /// Builds a concrete behaviour from the four measured outcomes plus
    /// sampled nuisance axes (filtering flavour, timers, port allocation)
    /// that Table 1 does not constrain.
    fn build_behavior(
        rng: &mut StdRng,
        udp_hp: bool,
        hairpin_udp: bool,
        tcp_hp: bool,
        tcp_hairpin: bool,
    ) -> NatBehavior {
        let mut b = NatBehavior::well_behaved();
        b.mapping = if udp_hp {
            MappingPolicy::EndpointIndependent
        } else {
            // Inconsistent translation: symmetric, occasionally the rarer
            // address-dependent variant.
            if rng.gen_bool(0.85) {
                MappingPolicy::AddressAndPortDependent
            } else {
                MappingPolicy::AddressDependent
            }
        };
        let mut rejects = false;
        if tcp_hp {
            b.tcp_mapping = Some(MappingPolicy::EndpointIndependent);
            b.tcp_unsolicited = TcpUnsolicited::Drop;
        } else {
            // TCP incompatibility is either inconsistent translation or
            // active rejection of unsolicited SYNs (§5.2); both occur in
            // the wild, so split them.
            if rng.gen_bool(0.5) {
                b.tcp_mapping = Some(MappingPolicy::AddressAndPortDependent);
                b.tcp_unsolicited = TcpUnsolicited::Drop;
            } else {
                b.tcp_mapping = Some(MappingPolicy::EndpointIndependent);
                b.tcp_unsolicited = if rng.gen_bool(0.8) {
                    TcpUnsolicited::Rst
                } else {
                    TcpUnsolicited::IcmpError
                };
                rejects = true;
            }
        }
        b.hairpin_udp = if hairpin_udp {
            Hairpin::Full
        } else {
            Hairpin::None
        };
        b.hairpin_tcp = if tcp_hairpin {
            Hairpin::Full
        } else {
            Hairpin::None
        };
        b.filtering = match rng.gen_range(0..100) {
            0..=59 => FilteringPolicy::AddressAndPortDependent,
            60..=84 => FilteringPolicy::AddressDependent,
            _ => FilteringPolicy::EndpointIndependent,
        };
        if rejects && b.filtering == FilteringPolicy::EndpointIndependent {
            // A rejecting NAT with endpoint-independent filtering never
            // actually rejects anything (all inbound SYNs are admitted),
            // so it would measure TCP-compatible; keep the failure real.
            b.filtering = FilteringPolicy::AddressAndPortDependent;
        }
        b.port_alloc = match rng.gen_range(0..100) {
            0..=59 => PortAllocation::Sequential,
            60..=84 => PortAllocation::Preserving,
            _ => PortAllocation::Random,
        };
        b.port_base = 61000 + rng.gen_range(0..4000);
        #[expect(clippy::expect_used, reason = "choosing from a non-empty literal array")]
        let secs = *[20u64, 30, 60, 120, 180].choose(rng).expect("non-empty");
        b.udp_timeout = Duration::from_secs(secs);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn table1_totals_match_all_vendors_row() {
        let udp_n: u32 = VENDORS.iter().map(|v| v.udp.1).sum();
        let udp_k: u32 = VENDORS.iter().map(|v| v.udp.0).sum();
        let hp_n: u32 = VENDORS.iter().map(|v| v.udp_hairpin.1).sum();
        let hp_k: u32 = VENDORS.iter().map(|v| v.udp_hairpin.0).sum();
        let tcp_n: u32 = VENDORS.iter().map(|v| v.tcp.1).sum();
        let tcp_k: u32 = VENDORS.iter().map(|v| v.tcp.0).sum();
        assert_eq!((udp_k, udp_n), (310, 380));
        assert_eq!((hp_k, hp_n), (80, 335));
        assert_eq!((tcp_k, tcp_n), (184, 286));
        // TCP hairpin: the paper's own rows sum to 40/284, not the
        // printed 37/286 (FreeBSD's denominator is 1, and the positives
        // over-count) — see the module docs; we keep the per-vendor rows
        // as printed.
        let thp_n: u32 = VENDORS.iter().map(|v| v.tcp_hairpin.1).sum();
        let thp_k: u32 = VENDORS.iter().map(|v| v.tcp_hairpin.0).sum();
        assert_eq!(thp_n, 284);
        assert_eq!(thp_k, 40);
    }

    #[test]
    fn quota_flags_exact() {
        let mut rng = StdRng::seed_from_u64(3);
        for (n, k) in [(46u32, 45u32), (10, 0), (10, 10), (1, 1)] {
            let v = quota_flags(n, k, &mut rng);
            assert_eq!(v.len(), n as usize);
            assert_eq!(v.iter().filter(|&&b| b).count() as u32, k);
        }
    }

    #[test]
    fn population_respects_quotas() {
        let mut rng = StdRng::seed_from_u64(9);
        let spec = VENDORS[0]; // Linksys
        let pop = VendorProfile::new(spec).sample_population(&mut rng);
        assert_eq!(pop.len(), 46);
        let udp_ok = pop
            .iter()
            .filter(|d| d.behavior.supports_udp_hole_punching())
            .count();
        assert_eq!(udp_ok, 45);
        let in_hp = pop.iter().filter(|d| d.in_hairpin_sample).count();
        assert_eq!(in_hp, 42);
        let hp_ok = pop
            .iter()
            .filter(|d| d.in_hairpin_sample && d.behavior.hairpin_udp == Hairpin::Full)
            .count();
        assert_eq!(hp_ok, 5);
        let in_tcp = pop.iter().filter(|d| d.in_tcp_sample).count();
        assert_eq!(in_tcp, 38);
        let tcp_ok = pop
            .iter()
            .filter(|d| d.in_tcp_sample && d.behavior.supports_tcp_hole_punching())
            .count();
        assert_eq!(tcp_ok, 33);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let sample = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            VendorProfile::new(VENDORS[2]).sample_population(&mut rng)
        };
        let a = sample(5);
        let b = sample(5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.behavior, y.behavior);
        }
        let c = sample(6);
        assert!(a.iter().zip(&c).any(|(x, y)| x.behavior != y.behavior));
    }

    #[test]
    fn capped_sampling_is_a_prefix_of_the_full_sample() {
        let profile = VendorProfile::new(VENDORS[0]); // Linksys, n=46
        let full = profile.sample_population(&mut StdRng::seed_from_u64(11));
        for cap in [0u32, 1, 5, 46, 100] {
            let capped =
                profile.sample_population_capped(&mut StdRng::seed_from_u64(11), Some(cap));
            assert_eq!(capped.len(), (cap.min(46)) as usize);
            for (a, b) in capped.iter().zip(&full) {
                assert_eq!(a.behavior, b.behavior);
                assert_eq!(a.in_hairpin_sample, b.in_hairpin_sample);
                assert_eq!(a.in_tcp_sample, b.in_tcp_sample);
            }
        }
    }

    #[test]
    fn zyxel_never_supports_tcp() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = VENDORS.iter().find(|v| v.name == "ZyXEL").unwrap();
        let pop = VendorProfile::new(*spec).sample_population(&mut rng);
        assert!(pop
            .iter()
            .filter(|d| d.in_tcp_sample)
            .all(|d| !d.behavior.supports_tcp_hole_punching()));
    }
}
