//! Scale run: a sharded world of 10^5–10^6 endpoints punching
//! concurrently, exercising the calendar event queue, the packet arena,
//! and batched link delivery at population scale.
//!
//! Writes (and prints) `BENCH_million.json`: outcome totals, engine and
//! queue counters, and `report_digest` — a hash of the per-session outcome
//! report, so two runs agree on every session iff their files are
//! byte-identical. The gate is that every session resolves. How fast
//! the host ran it is `benchmark/`'s `crowd_udp` workload, not this
//! file's business.
//!
//! Run: `cargo run --release -p punch-bench -- million`
//!
//! Flags (all optional):
//!   --sessions N     punch sessions (default 100000; 4 nodes each)
//!   --shards N       per-shard sims (default 16)
//!   --waves N        connect waves (default 1 = fully concurrent)
//!   --epoch-ms N     cross-shard sync quantum (default 250)
//!   --seed N         master seed (default 2005)

use crate::{Flags, Run};
use punch_lab::{OutcomeCounts, ShardConfig, ShardedWorld};
use punch_net::{seed::hash_str, Duration, Json, QueueStats, SimStats, SimTime};

pub struct Report {
    pub cfg: ShardConfig,
    pub shards: usize,
    pub nodes: usize,
    pub epochs: u64,
    pub sim_now: SimTime,
    pub counts: OutcomeCounts,
    pub stats: SimStats,
    pub queue: QueueStats,
    pub report_digest: u64,
}

pub fn measure(cfg: ShardConfig) -> Report {
    let mut world = ShardedWorld::build(&cfg);
    // The run takes minutes at full scale: say where it is.
    println!(
        "built {} sessions across {} shards ({} nodes); running",
        cfg.sessions,
        world.shard_count(),
        world.node_count()
    );
    world.run();
    println!("ran to {} in {} epochs", world.now(), world.epochs());
    Report {
        shards: world.shard_count(),
        nodes: world.node_count(),
        epochs: world.epochs(),
        sim_now: world.now(),
        counts: world.outcome_counts(),
        stats: world.merged_stats(),
        queue: world.merged_queue_stats(),
        report_digest: hash_str(&world.report()),
        cfg,
    }
}

pub fn gate(r: &Report) -> Result<(), String> {
    match (r.counts.failed, r.counts.pending) {
        (0, 0) => Ok(()),
        (failed, pending) => Err(format!(
            "sessions left unresolved: {failed} failed, {pending} pending"
        )),
    }
}

fn json(r: &Report) -> Json {
    Json::obj([
        ("experiment", Json::str("million_scale")),
        ("seed", Json::num(r.cfg.seed)),
        ("sessions", Json::num(r.cfg.sessions)),
        ("shards", Json::num(r.shards)),
        ("waves", Json::num(r.cfg.waves)),
        ("nodes", Json::num(r.nodes)),
        ("epochs", Json::num(r.epochs)),
        ("sim_now", Json::str(r.sim_now.to_string())),
        ("direct", Json::num(r.counts.direct)),
        ("relay", Json::num(r.counts.relay)),
        ("failed", Json::num(r.counts.failed)),
        ("pending", Json::num(r.counts.pending)),
        ("sim_events", Json::num(r.stats.events)),
        ("packets_delivered", Json::num(r.stats.packets_delivered)),
        (
            "queue_depth_high_water",
            Json::num(r.queue.depth_high_water),
        ),
        ("pool_slots", Json::num(r.queue.pool_slots)),
        ("pool_recycled", Json::num(r.queue.pool_recycled)),
        ("batches_coalesced", Json::num(r.queue.batches_coalesced)),
        (
            "report_digest",
            Json::str(format!("{:016x}", r.report_digest)),
        ),
    ])
}

pub fn run(flags: &Flags) -> Result<Run, String> {
    let mut cfg = ShardConfig::new(
        flags.get("--seed", 2005)?,
        flags.get("--sessions", 100_000)?,
    );
    cfg.shards = flags.get("--shards", 16)?;
    cfg.waves = flags.get("--waves", 1)?;
    cfg.epoch = Duration::from_millis(flags.get("--epoch-ms", 250)?);
    let report = measure(cfg);
    Ok(Run::json(
        "BENCH_million.json",
        &json(&report),
        gate(&report),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_a_real_run_and_fails_on_one_pending_session() {
        let mut cfg = ShardConfig::new(2005, 40);
        cfg.shards = 2;
        let mut report = measure(cfg);
        assert_eq!(gate(&report), Ok(()));
        report.counts.pending = 1;
        assert!(gate(&report).unwrap_err().contains("1 pending"));
        report.counts.pending = 0;
        report.counts.failed = 1;
        assert!(gate(&report).is_err());
    }
}
