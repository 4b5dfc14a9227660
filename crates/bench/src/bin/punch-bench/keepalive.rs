//! E5: §3.6 — UDP idle timers, keepalive cadence, and on-demand
//! re-punching.
//!
//! Run: `cargo run --release -p punch-bench -- keepalive`

use crate::{Flags, Run};
use punch_bench::keepalive_trial;
use punch_lab::par;
use punch_net::Duration;

pub fn run(_: &Flags) -> Result<Run, String> {
    let mut out = String::new();
    out += "== E5: session survival after 120 s of application silence ==\n";
    out += "   NAT idle timer 20 s (the paper's worst observed case)\n\n";
    out += "   keepalive   survived   re-punches to recover\n";
    let ka_sweep = [10u64, 15, 19, 25, 40, 600];
    let ka_results = par::run(&ka_sweep, |_, &ka_secs| {
        keepalive_trial(
            1,
            Duration::from_secs(20),
            Duration::from_secs(ka_secs),
            Duration::from_secs(120),
        )
    });
    for (ka_secs, (survived, repunches)) in ka_sweep.iter().zip(ka_results) {
        out += &format!(
            "   {:>6} s    {:<9} {}\n",
            ka_secs,
            if survived { "yes" } else { "no" },
            repunches
        );
    }
    out.push('\n');
    out += "== NAT timer sweep (keepalive fixed at 15 s) ==\n";
    let timer_sweep = [10u64, 20, 30, 60, 120];
    let timer_results = par::run(&timer_sweep, |_, &timer| {
        keepalive_trial(
            2,
            Duration::from_secs(timer),
            Duration::from_secs(15),
            Duration::from_secs(120),
        )
    });
    for (timer, (survived, repunches)) in timer_sweep.iter().zip(timer_results) {
        out += &format!(
            "   NAT timer {:>4} s -> survived: {:<5} re-punches: {}\n",
            timer, survived, repunches
        );
    }
    out.push('\n');
    out += "(keepalives shorter than the NAT timer keep the hole open; longer\n";
    out += " ones let it close, and the next send re-runs hole punching on\n";
    out += " demand — §3.6's recommended strategy)\n";
    Ok(Run::text("keepalive.txt", out))
}
