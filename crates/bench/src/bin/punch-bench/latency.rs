//! E3 (latency/loss sweeps), E8 (sequential vs parallel), E12 (relay vs
//! direct).
//!
//! Run: `cargo run --release -p punch-bench -- latency`
//!
//! The E3a sweep runs with the metrics registry enabled and exports its
//! merged punch-latency histograms per WAN setting as
//! `metrics_latency.json`. Metrics never change the simulated outcomes.

use crate::{Flags, Run};
use punch_bench::{
    median, metrics_report, ms, relay_vs_direct, seq_vs_par, udp_punch_on, Outcome, Topology,
};
use punch_lab::par;
use punch_nat::NatBehavior;
use punch_net::{Duration, LinkSpec, MetricsSnapshot};

/// A sample's median for a table cell, `-` when nothing got through.
fn median_cell(xs: &[Duration]) -> String {
    match xs {
        [] => "-".into(),
        _ => ms(median(xs.to_vec())),
    }
}

fn two_cone_nats() -> Topology {
    let nat = NatBehavior::well_behaved();
    Topology::TwoNats(Some(nat.clone()), Some(nat))
}

pub fn run(_: &Flags) -> Result<Run, String> {
    let mut out = String::new();
    let mut sections: Vec<(&str, MetricsSnapshot)> = Vec::new();
    out += "== E3a: UDP punch latency vs WAN one-way latency ==\n";
    for (wan_ms, section) in [
        (10u64, "e3a_wan_10ms"),
        (30, "e3a_wan_30ms"),
        (60, "e3a_wan_60ms"),
        (100, "e3a_wan_100ms"),
        (200, "e3a_wan_200ms"),
    ] {
        let seeds: Vec<u64> = (0..5).collect();
        let (outcomes, merged) = par::run_merge_metrics(&seeds, |_, &seed| {
            udp_punch_on(
                two_cone_nats(),
                seed,
                |_| {},
                LinkSpec::new(Duration::from_millis(wan_ms)),
                true,
            )
        });
        sections.push((section, merged));
        let lats: Vec<Duration> = outcomes
            .into_iter()
            .filter_map(|o| match o {
                Outcome::Direct(d) => Some(d),
                _ => None,
            })
            .collect();
        out += &format!(
            "  wan {wan_ms:>4} ms  -> {}/5 direct, median punch {}\n",
            lats.len(),
            median_cell(&lats)
        );
    }

    out += "\n== E3b: UDP punch success vs loss rate (30 volleys budget) ==\n";
    for loss in [0.0f64, 0.05, 0.10, 0.20, 0.30] {
        let n = 10usize;
        let direct = par::run_n(n, |seed| {
            let (outcome, _) = udp_punch_on(
                two_cone_nats(),
                300 + seed as u64,
                |c| c.punch.max_attempts = 30,
                LinkSpec::wan().with_loss(loss),
                false,
            );
            matches!(outcome, Outcome::Direct(_))
        })
        .into_iter()
        .filter(|&d| d)
        .count();
        out += &format!("  loss {:>3.0}% -> {direct}/{n} direct\n", loss * 100.0);
    }

    out += "\n== E8: parallel (§4.2) vs sequential (§4.5) TCP punch ==\n";
    for wait_ms in [100u64, 400, 700, 1500] {
        let trials = par::run_n(5, |seed| {
            seq_vs_par(400 + seed as u64, Duration::from_millis(wait_ms))
        });
        let par_wins: Vec<Duration> = trials.iter().filter_map(|(p, _)| *p).collect();
        let seq_wins: Vec<Duration> = trials.iter().filter_map(|(_, s)| *s).collect();
        out += &format!(
            "  doomed_wait {wait_ms:>5} ms -> parallel {} ({}/5), sequential {} ({}/5)\n",
            median_cell(&par_wins),
            par_wins.len(),
            median_cell(&seq_wins),
            seq_wins.len()
        );
    }
    out += "  (parallel completes ~as soon as both connects launch; sequential adds\n";
    out += "   the doomed-connect wait and a server round trip — §4.5's prediction)\n";

    out += "\n== E12: relay (§2.2) vs punched direct path ==\n";
    for payload in [64usize, 1024] {
        let (direct, relay, relayed_bytes) = relay_vs_direct(7, payload);
        out += &format!("  {payload:>5}-byte message: direct RTT {}, relayed RTT {}  (relay {:.1}x slower; server carried {relayed_bytes} B)\n",
            ms(direct),
            ms(relay),
            relay.as_secs_f64() / direct.as_secs_f64());
    }

    let mut run = Run::text("latency.txt", out);
    run.artifacts.push((
        "metrics_latency.json".to_string(),
        metrics_report(&sections),
    ));
    Ok(run)
}
