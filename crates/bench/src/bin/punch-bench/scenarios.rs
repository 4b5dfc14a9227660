//! E2/E3/E4/E6/E10/E16: scenario outcomes.
//!
//! Run: `cargo run --release -p punch-bench -- scenarios`

use crate::{Flags, Run};
use holepunch::{CandidatePlan, CandidateSource};
use punch_bench::{median, ms, tcp_flavor_paths, tcp_punch_latency, udp_punch, Outcome, Topology};
use punch_lab::par;
use punch_nat::{Hairpin, NatBehavior, TcpUnsolicited};
use punch_net::{Duration, LinkSpec};
use punch_transport::TcpFlavor;

pub fn run(_: &Flags) -> Result<Run, String> {
    let mut out = String::new();
    out += "== E2: Figure 4 — peers behind a common NAT (§3.3) ==\n";
    for (hairpin, nat) in [
        ("hairpin NAT", NatBehavior::well_behaved()),
        (
            "no hairpin",
            NatBehavior::well_behaved().with_hairpin(Hairpin::None),
        ),
    ] {
        for (sources, plan) in [
            ("private candidates", CandidatePlan::basic()),
            (
                "public only",
                CandidatePlan::new().with_source(CandidateSource::PeerPublic),
            ),
        ] {
            let outcome = udp_punch(Topology::CommonNat(nat.clone()), 1, |c| {
                c.punch = c.punch.clone().with_plan(plan.clone());
            });
            let label = format!("{hairpin}, {sources}");
            out += &format!("  {label:<35} -> {}\n", describe(outcome));
        }
    }

    out += "\n== E3: Figure 5 — peers behind different NATs (§3.4) ==\n";
    for (label, na, nb) in [
        (
            "well-behaved / well-behaved",
            NatBehavior::well_behaved(),
            NatBehavior::well_behaved(),
        ),
        (
            "full cone    / full cone",
            NatBehavior::full_cone(),
            NatBehavior::full_cone(),
        ),
        (
            "restricted   / port-restricted",
            NatBehavior::restricted_cone(),
            NatBehavior::port_restricted_cone(),
        ),
        (
            "symmetric    / well-behaved",
            NatBehavior::symmetric(),
            NatBehavior::well_behaved(),
        ),
    ] {
        let outcome = udp_punch(Topology::TwoNats(Some(na), Some(nb)), 2, |_| {});
        out += &format!("  {label:<35} -> {}\n", describe(outcome));
    }

    out += "\n== E4: Figure 6 — multi-level NAT (§3.5) ==\n";
    let consumer = NatBehavior::well_behaved().with_hairpin(Hairpin::None);
    for (label, isp) in [
        ("ISP NAT hairpins", NatBehavior::well_behaved()),
        (
            "ISP NAT: no hairpin",
            NatBehavior::well_behaved().with_hairpin(Hairpin::None),
        ),
        (
            "ISP NAT: hairpin w/o src rewrite",
            NatBehavior::well_behaved().with_hairpin(Hairpin::NoSourceRewrite),
        ),
    ] {
        let outcome = udp_punch(
            Topology::MultiLevel {
                isp,
                consumer: consumer.clone(),
            },
            3,
            |_| {},
        );
        out += &format!("  {label:<35} -> {}\n", describe(outcome));
    }

    out += "\n== E6: §4.3 — how the punched stream surfaces per OS flavour ==\n";
    out += "   (A's SYN loses the race; cells are A's view / B's view)\n";
    for fa in [TcpFlavor::Bsd, TcpFlavor::LinuxWindows] {
        for fb in [TcpFlavor::Bsd, TcpFlavor::LinuxWindows] {
            match tcp_flavor_paths(42, fa, fb) {
                Some((pa, pb)) => {
                    out += &format!("  A={fa:<13?} B={fb:<13?} -> A sees {pa:?}, B sees {pb:?}\n")
                }
                None => out += &format!("  A={fa:<13?} B={fb:<13?} -> FAILED\n"),
            }
        }
    }

    let slow_link = LinkSpec::new(Duration::from_millis(120));
    for (title, base_seed, n, b_link) in [
        (
            "\n== E10: §5.2 — unsolicited-SYN policy vs TCP punch latency ==\n   \
             (B behind a 120 ms access link so A's first SYN always arrives early)\n",
            100,
            7,
            slow_link,
        ),
        (
            "\n== E10b: same sweep, 25% loss on B's access link ==\n   \
             (B's first SYN often dies before opening its hole; the peer's\n    \
             recovery is stack retransmission under drop vs the 1 s\n    \
             application retry of §4.2 step 4 under RST)\n",
            200,
            15,
            slow_link.with_loss(0.25),
        ),
    ] {
        out += title;
        for (label, policy) in [
            ("drop (well-behaved)", TcpUnsolicited::Drop),
            ("RST", TcpUnsolicited::Rst),
            ("ICMP error", TcpUnsolicited::IcmpError),
        ] {
            let lat: Vec<Duration> = par::run_n(n, |seed| {
                tcp_punch_latency(
                    base_seed + seed as u64,
                    NatBehavior::well_behaved(),
                    NatBehavior::well_behaved().with_tcp_unsolicited(policy),
                    Some(b_link),
                    |_| {},
                )
            })
            .into_iter()
            .flatten()
            .collect();
            out += &match lat.len() {
                0 => format!("  {label:<22} -> all failed\n"),
                k => format!(
                    "  {label:<22} -> {k}/{n} punched, median {}\n",
                    ms(median(lat))
                ),
            };
        }
    }

    out += "\n== E16: UDP connectivity matrix (direct / relay) ==\n";
    let kinds: Vec<(&str, Option<NatBehavior>)> = vec![
        ("public", None),
        ("fullcone", Some(NatBehavior::full_cone())),
        ("restrict", Some(NatBehavior::restricted_cone())),
        ("portrstr", Some(NatBehavior::port_restricted_cone())),
        ("symmetric", Some(NatBehavior::symmetric())),
    ];
    let header: String = kinds
        .iter()
        .map(|(name, _)| format!("{name:>10}"))
        .collect();
    out += &format!("  {:<10}{header}\n", "");
    // All 25 cells are independent simulations: fan out on the pool,
    // then print in row order.
    let cells: Vec<(usize, usize)> = (0..kinds.len())
        .flat_map(|r| (0..kinds.len()).map(move |c| (r, c)))
        .collect();
    let outcomes = par::run(&cells, |_, &(r, c)| {
        udp_punch(
            Topology::TwoNats(kinds[r].1.clone(), kinds[c].1.clone()),
            50 + c as u64,
            |_| {},
        )
    });
    for (r, (ra, _)) in kinds.iter().enumerate() {
        let row: String = (0..kinds.len())
            .map(|c| format!("{:>10}", outcomes[r * kinds.len() + c].label()))
            .collect();
        out += &format!("  {ra:<10}{row}\n");
    }
    out += "\n  (symmetric×symmetric relays; everything else punches — §5.1)\n";
    Ok(Run::text("scenarios.txt", out))
}

fn describe(out: Outcome) -> String {
    match out {
        Outcome::Direct(d) => format!("direct in {}", ms(d)),
        Outcome::Relay => "relay fallback".into(),
        Outcome::Failed => "FAILED".into(),
    }
}
