//! Classify a NAT's mapping behaviour from behind it with NAT Check
//! (§6.1), and decide whether §5.1 port prediction is viable against it.
//! A stride is predictable only when two runs at different seeds measure
//! the same nonzero stride.
//!
//! Run with: `cargo run --example classify_nat`

use p2p_punch::natcheck::check_nat;
use p2p_punch::prelude::*;

/// The two NAT Check runs whose strides must agree.
const SEEDS: [u64; 2] = [9, 10];

fn classify(label: &str, nat: NatBehavior) {
    let reports = SEEDS.map(|seed| check_nat(nat.clone(), seed));
    let [a, b] = reports;
    let verdict = match (a.udp_consistent, a.udp_alloc_delta, b.udp_alloc_delta) {
        (Some(true), ..) => "cone NAT — hole punching will work (§5.1)".to_string(),
        (Some(false), Some(d), Some(e)) if d == e && d != 0 => {
            format!("symmetric NAT, port delta {d:+} — predictable, prediction viable")
        }
        (Some(false), ..) => "symmetric NAT, no stable delta — prediction hopeless".into(),
        (None, ..) => "unknown (NAT Check did not finish)".into(),
    };
    println!("{label:<42} -> {verdict}");
    for (seed, report) in SEEDS.iter().zip(reports) {
        if let Some((s1, s2)) = report.udp_public {
            println!("    seed {seed:<2}  server 1 observed {s1:<20} server 2 observed {s2}");
        }
    }
}

fn main() {
    println!("NAT Check's UDP consistency test, twice per NAT:\n");
    classify("well-behaved cone NAT", NatBehavior::well_behaved());
    classify("full-cone NAT", NatBehavior::full_cone());
    classify(
        "symmetric NAT, sequential ports",
        NatBehavior::symmetric().with_port_alloc(PortAllocation::Sequential),
    );
    classify(
        "symmetric NAT, random ports",
        NatBehavior::symmetric().with_port_alloc(PortAllocation::Random),
    );
}
