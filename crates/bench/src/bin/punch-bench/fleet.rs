//! Rendezvous-fleet run: a flash crowd of registrations against
//! sharded server fleets of increasing size, with a fleet member
//! restarting mid-crowd.
//!
//! For each fleet size *n*, the same population of punch sessions
//! registers k-of-n (consistent-hash ring owners), introductions route
//! across shards server-to-server, and one member restarts while the
//! crowd is connecting. `BENCH_fleet.json` (also printed) records introduction
//! throughput and punch-latency percentiles per fleet size, all in sim
//! time. The gate: every leg resolves every session and no forwarded
//! introduction exhausts its owner chain.
//!
//! Run: `cargo run --release -p punch-bench -- fleet`
//!
//! Flags (all optional):
//!   --sessions N     punch sessions per fleet size (default 50000 —
//!                    100k clients, each registering with k owners)
//!   --fleets A,B,C   fleet sizes to sweep (default 1,4,16)
//!   --replication K  ring owners per client (default 2)
//!   --shards N       per-shard sims (default 16)
//!   --restart-ms N   restart fleet member 1 at this sim time (default
//!                    2500; 0 disables)
//!   --seed N         master seed (default 2005)

use crate::{Flags, Run};
use punch_lab::{OutcomeCounts, ShardConfig, ShardedWorld};
use punch_net::{Duration, Json, SimTime};
use punch_rendezvous::ServerStats;

/// One fleet size's run.
pub struct Leg {
    pub servers: usize,
    pub sim_now: SimTime,
    pub counts: OutcomeCounts,
    pub stats: ServerStats,
    /// Punch latencies of the sessions that went direct, sorted.
    pub latencies: Vec<Duration>,
}

impl Leg {
    fn sim_secs(&self) -> f64 {
        self.sim_now.saturating_since(SimTime::ZERO).as_secs_f64()
    }

    fn intro_rate(&self) -> f64 {
        self.stats.introductions as f64 / self.sim_secs().max(f64::MIN_POSITIVE)
    }

    /// Nearest-rank percentile in milliseconds (integer arithmetic).
    fn percentile_ms(&self, q: usize) -> Option<String> {
        let n = self.latencies.len();
        let idx = (n * q).div_ceil(100).max(1) - 1;
        let d = self.latencies.get(idx.min(n.checked_sub(1)?))?;
        Some(format!("{:.3}", d.as_secs_f64() * 1e3))
    }
}

pub struct Report {
    pub cfg: ShardConfig,
    pub legs: Vec<Leg>,
}

/// `cfg` describes every leg except its fleet size.
pub fn measure(cfg: ShardConfig, fleets: &[usize]) -> Report {
    let legs = fleets
        .iter()
        .map(|&servers| {
            let mut world = ShardedWorld::build(&ShardConfig {
                servers,
                ..cfg.clone()
            });
            world.run();
            let mut latencies = world.latencies();
            latencies.sort_unstable();
            let leg = Leg {
                servers,
                sim_now: world.now(),
                counts: world.outcome_counts(),
                stats: world.fleet_stats(),
                latencies,
            };
            // Legs take minutes at full scale: report each as it lands.
            let c = &leg.counts;
            println!(
                "n={servers}: sim {}, direct {} relay {} failed {} pending {}, {} forward errors",
                leg.sim_now, c.direct, c.relay, c.failed, c.pending, leg.stats.forward_errors
            );
            leg
        })
        .collect();
    Report { cfg, legs }
}

pub fn gate(r: &Report) -> Result<(), String> {
    for leg in &r.legs {
        let n = leg.servers;
        if leg.counts.failed + leg.counts.pending > 0 {
            return Err(format!(
                "n={n}: {} sessions failed, {} pending",
                leg.counts.failed, leg.counts.pending
            ));
        }
        if leg.stats.forward_errors > 0 {
            return Err(format!(
                "n={n}: {} forward errors",
                leg.stats.forward_errors
            ));
        }
    }
    Ok(())
}

fn json(r: &Report) -> Json {
    let leg = |leg: &Leg| {
        Json::obj([
            ("servers", Json::num(leg.servers)),
            ("direct", Json::num(leg.counts.direct)),
            ("relay", Json::num(leg.counts.relay)),
            ("failed", Json::num(leg.counts.failed)),
            ("pending", Json::num(leg.counts.pending)),
            ("registrations", Json::num(leg.stats.registrations)),
            ("introductions", Json::num(leg.stats.introductions)),
            ("forwards", Json::num(leg.stats.forwards)),
            ("forwards_served", Json::num(leg.stats.forwards_served)),
            ("forward_errors", Json::num(leg.stats.forward_errors)),
            ("evictions", Json::num(leg.stats.evictions)),
            ("restarts", Json::num(leg.stats.restarts)),
            ("sim_ms", Json::num(format!("{:.1}", leg.sim_secs() * 1e3))),
            (
                "introductions_per_sim_sec",
                Json::num(format!("{:.1}", leg.intro_rate())),
            ),
            ("punch_p50_ms", Json::opt(leg.percentile_ms(50))),
            ("punch_p99_ms", Json::opt(leg.percentile_ms(99))),
        ])
    };
    let restart = r.cfg.server_restart;
    Json::obj([
        ("experiment", Json::str("rendezvous_fleet")),
        ("seed", Json::num(r.cfg.seed)),
        ("sessions", Json::num(r.cfg.sessions)),
        ("clients", Json::num(2 * r.cfg.sessions)),
        ("replication", Json::num(r.cfg.replication)),
        ("shards", Json::num(r.cfg.shards)),
        (
            "restart_member",
            Json::opt(restart.map(|(member, _)| member)),
        ),
        (
            "restart_at_ms",
            Json::num(restart.map_or(0, |(_, at)| at.as_millis())),
        ),
        ("fleets", Json::Arr(r.legs.iter().map(leg).collect())),
    ])
}

/// The flash-crowd profile every leg runs: resilient clients, and time
/// enough to ride out a member restart.
fn crowd(seed: u64, sessions: usize, shards: usize, replication: usize) -> ShardConfig {
    let mut cfg = ShardConfig::new(seed, sessions);
    cfg.shards = shards;
    cfg.replication = replication;
    cfg.resilient_clients = true;
    cfg.deadline = Duration::from_secs(120);
    cfg
}

pub fn run(flags: &Flags) -> Result<Run, String> {
    let mut cfg = crowd(
        flags.get("--seed", 2005)?,
        flags.get("--sessions", 50_000)?,
        flags.get("--shards", 16)?,
        flags.get("--replication", 2)?,
    );
    let restart_ms: u64 = flags.get("--restart-ms", 2_500)?;
    if restart_ms > 0 {
        cfg.server_restart = Some((1, Duration::from_millis(restart_ms)));
    }
    let fleets = flags
        .get("--fleets", "1,4,16".to_string())?
        .split(',')
        .map(|n| {
            n.trim()
                .parse()
                .map_err(|_| format!("--fleets: cannot parse `{n}`"))
        })
        .collect::<Result<Vec<usize>, String>>()?;
    let report = measure(cfg, &fleets);
    Ok(Run::json("BENCH_fleet.json", &json(&report), gate(&report)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_a_real_run_and_fails_on_its_seeded_violations() {
        let mut report = measure(crowd(2005, 40, 2, 2), &[4]);
        assert_eq!(gate(&report), Ok(()));
        report.legs[0].stats.forward_errors = 1;
        assert!(gate(&report).unwrap_err().contains("1 forward errors"));
        report.legs[0].stats.forward_errors = 0;
        report.legs[0].counts.pending = 1;
        assert!(gate(&report).unwrap_err().contains("1 pending"));
    }

    /// Re-rendering the pinned n=1 leg reproduces `results/BENCH_fleet.json`
    /// byte for byte up to the end of that leg: nested pretty objects in
    /// an array, caller-formatted `{:.1}` / `{:.3}` numbers, and (with no
    /// latencies) `null`.
    #[test]
    fn json_reproduces_the_pinned_bytes() {
        let mut cfg = crowd(2005, 50_000, 16, 2);
        cfg.server_restart = Some((1, Duration::from_millis(2_500)));
        let mut report = Report {
            cfg,
            legs: vec![Leg {
                servers: 1,
                sim_now: SimTime::ZERO + Duration::from_millis(70_750),
                counts: OutcomeCounts {
                    direct: 45_000,
                    relay: 5_000,
                    failed: 0,
                    pending: 0,
                },
                stats: ServerStats {
                    registrations: 3_600_000,
                    introductions: 70_000,
                    restarts: 16,
                    ..ServerStats::default()
                },
                latencies: vec![Duration::from_micros(50_800)],
            }],
        };
        let pinned = include_str!("../../../../../results/BENCH_fleet.json");
        let rendered = json(&report).render();
        let through_first_leg = rendered.strip_suffix("\n  ]\n}\n").unwrap();
        assert!(pinned.starts_with(through_first_leg), "{rendered}");

        report.legs[0].latencies.clear();
        assert!(json(&report)
            .render()
            .contains("\"punch_p50_ms\": null,\n      \"punch_p99_ms\": null\n"));
    }
}
