//! E9: §5.1 port prediction against symmetric NATs — success-rate curves
//! over allocator policy, prediction window, and competing traffic.
//!
//! Run: `cargo run --release -p punch-bench -- prediction`

use crate::{Flags, Run};
use punch_bench::prediction_rate;
use punch_nat::PortAllocation;
use punch_net::Duration;

pub fn run(_: &Flags) -> Result<Run, String> {
    let mut out = String::new();
    let n = 20;
    out += "== E9: port prediction vs a symmetric NAT (A symmetric, B cone) ==\n";
    out += &format!("   success rate over {n} seeds\n\n");

    out += "  window sweep (sequential allocator, quiet NAT):\n";
    for window in [0u16, 1, 2, 5, 10] {
        // Window 0 is the basic plan, measured on seeds of its own.
        let (label, base_seed) = if window == 0 {
            ("basic (no prediction)", 9000)
        } else {
            ("predict", 1000)
        };
        let rate = prediction_rate(base_seed, n, PortAllocation::Sequential, window, None);
        out += &format!(
            "    {label:<22} window {window:>2} -> {:>5.0}%\n",
            rate * 100.0
        );
    }

    out += "\n  allocator sweep (window 5, quiet NAT):\n";
    for (name, alloc) in [
        ("sequential", PortAllocation::Sequential),
        ("preserving", PortAllocation::Preserving),
        ("random", PortAllocation::Random),
    ] {
        let rate = prediction_rate(2000, n, alloc, 5, None);
        out += &format!("    {name:<12} -> {:>5.0}%\n", rate * 100.0);
    }

    out += "\n  competing traffic behind A's NAT (sequential, window 5):\n";
    for (name, chatter) in [
        ("quiet", None),
        ("1 new flow / 2 s", Some(Duration::from_secs(2))),
        ("1 new flow / 500 ms", Some(Duration::from_millis(500))),
        ("1 new flow / 100 ms", Some(Duration::from_millis(100))),
    ] {
        let rate = prediction_rate(3000, n, PortAllocation::Sequential, 5, chatter);
        out += &format!("    {name:<20} -> {:>5.0}%\n", rate * 100.0);
    }
    out += "\n  (the §5.1 claim: prediction works \"much of the time\" against\n";
    out += "   predictable allocators, and is a moving target under competing\n";
    out += "   allocations or randomized ports)\n";
    Ok(Run::text("prediction.txt", out))
}
