//! One rep: a fresh child process that sets one workload up, runs it
//! once, and reports what it saw as `@ key value` lines on stdout.
//!
//! A process per rep makes cold-start cost and `VmHWM` per-rep
//! quantities, and keeps one rep's heap from shaping the next one's.

use crate::host;
use crate::json::Json;
use crate::spec::Workload;
use crate::spy::{Plain, Spied};
use crate::trace::{self, Traced};
use crate::{clock, shard, storm, stream, survey};
use punch_net::{QueueStats, SimStats};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::Command;
use std::time::Instant;

/// Input sizes are fixed; `div` shrinks them all for `smoke.sh`.
#[derive(Clone, Copy)]
pub struct Size {
    pub div: u32,
}

impl Size {
    pub fn scaled(self, full: usize) -> usize {
        (full / self.div as usize).max(1)
    }
}

/// How a child runs its workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Through the program's real entry points; the only source of
    /// end-to-end numbers.
    Untraced,
    /// The spied replica.
    Traced,
    /// `crowd_udp` with one worker per detected core, for
    /// `lab.par_speedup`.
    Parallel,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
            Mode::Parallel => "parallel",
        }
    }

    pub fn from_name(s: &str) -> Option<Mode> {
        [Mode::Untraced, Mode::Traced, Mode::Parallel]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

/// The simulated result of one rep and the counters that must repeat
/// exactly on every rep of the same workload and seed.
pub struct Outcome {
    pub ops: u64,
    /// Ops not resolved: failed or pending sessions, devices with no UDP
    /// verdict, chunks undelivered by the sim deadline, requests with an
    /// error or no reply.
    pub failed: u64,
    /// `sim_success_share` as (numerator, denominator).
    pub success: (u64, u64),
    pub stats: SimStats,
    pub queue: QueueStats,
    pub nodes: u64,
    pub digest: u64,
    pub summary: String,
    /// Invariants of the tree this rep broke; empty on a correct rep.
    pub problems: Vec<String>,
}

pub fn add_stats(total: &mut SimStats, s: &SimStats) {
    total.events += s.events;
    total.packets_sent += s.packets_sent;
    total.packets_delivered += s.packets_delivered;
    total.packets_lost += s.packets_lost;
    total.device_drops += s.device_drops;
    total.link_down_drops += s.link_down_drops;
    total.packets_duplicated += s.packets_duplicated;
    total.packets_reordered += s.packets_reordered;
    total.packets_corrupted += s.packets_corrupted;
    total.packets_truncated += s.packets_truncated;
    total.faults_injected += s.faults_injected;
    total.busy_nanos += s.busy_nanos;
}

pub fn add_queue(total: &mut QueueStats, q: &QueueStats) {
    total.depth_high_water = total.depth_high_water.max(q.depth_high_water);
    total.pool_slots += q.pool_slots;
    total.pool_recycled += q.pool_recycled;
    total.batches_coalesced += q.batches_coalesced;
}

/// What every workload's rep returns: `setup_s`, `run_s`, the outcome,
/// and the spans if it was traced.
pub type RepRun = (f64, f64, Outcome, Option<Traced>);

fn emit(key: &str, value: impl Display) {
    println!("@ {key} {value}");
}

/// The child side: runs one rep and prints it. `t0` is process start.
pub fn child(workload: Workload, seed: u64, mode: Mode, size: Size, t0: Instant) {
    let scale = clock::TickScale::start();
    let workers = if mode == Mode::Parallel {
        punch_lab::par::detected_cores()
    } else {
        1
    };
    let (setup_s, run_s, out, traced) = match (workload, mode) {
        (Workload::CrowdUdp, Mode::Traced) => {
            shard::traced(&shard::crowd_config(seed, size, 1), t0)
        }
        (Workload::FleetChurn, Mode::Traced) => shard::traced(&shard::fleet_config(seed, size), t0),
        (Workload::CrowdUdp, _) => shard::untraced(&shard::crowd_config(seed, size, workers), t0),
        (Workload::FleetChurn, _) => shard::untraced(&shard::fleet_config(seed, size), t0),
        (Workload::SurveyTcp, Mode::Traced) => survey::traced(seed, size, t0),
        (Workload::SurveyTcp, _) => survey::untraced(seed, size, t0),
        (Workload::StreamTcp, Mode::Traced) => stream::traced(seed, size, t0),
        (Workload::StreamTcp, _) => stream::untraced(seed, size, t0),
        (Workload::ServerStorm, Mode::Traced) => storm::run(Spied, seed, size, t0),
        (Workload::ServerStorm, _) => storm::run(Plain, seed, size, t0),
    };
    // Before anything below allocates: the rep's own high-water mark.
    let rss_kib = host::peak_rss_kib();
    let wall_ns = clock::ns_since(t0);
    let cpu_ns = host::on_cpu_ns();

    emit("setup_s", setup_s);
    emit("run_s", run_s);
    emit("ops", out.ops);
    emit("failed", out.failed);
    emit("success_num", out.success.0);
    emit("success_den", out.success.1);
    emit("events", out.stats.events);
    emit("packets_sent", out.stats.packets_sent);
    emit("packets_delivered", out.stats.packets_delivered);
    emit("device_drops", out.stats.device_drops);
    emit("busy_ns", out.stats.busy_nanos);
    emit("nodes", out.nodes);
    emit("digest", format!("{:016x}", out.digest));
    emit("summary", &out.summary);
    emit("problems", out.problems.join("; "));
    emit("rss_kib", rss_kib);
    emit("wall_ns", wall_ns);
    emit("cpu_ns", cpu_ns);

    if let Some(t) = traced {
        let ns_per_tick = scale.ns_per_tick();
        let pair_ns = clock::pair_cost_ticks() * ns_per_tick;
        let reduced = trace::reduce((run_s * 1e9) as u64, &t, &out, ns_per_tick, pair_ns);
        for (name, value) in &reduced.metrics {
            emit(&format!("m.{name}"), value);
        }
        let mut file = vec![
            ("workload", Json::str(workload.name())),
            ("seed", Json::Int(seed)),
        ];
        file.extend(reduced.file);
        Json::obj(file).write_out(&format!("trace-{}.json", workload.name()));
    }
    // Tearing an 80k-node world down node by node is not part of any
    // metric; leave it to the kernel.
    std::process::exit(0);
}

/// What the parent keeps of one child.
pub struct Rep {
    fields: BTreeMap<String, String>,
}

impl Rep {
    pub fn num(&self, key: &str) -> f64 {
        self.fields
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    }

    pub fn text(&self, key: &str) -> &str {
        self.fields.get(key).map_or("", String::as_str)
    }

    /// Per-layer metrics a traced child computed (`m.<name>` keys).
    pub fn metrics(&self) -> impl Iterator<Item = (&str, f64)> {
        self.fields
            .iter()
            .filter_map(|(k, v)| Some((k.strip_prefix("m.")?, v.parse().ok()?)))
    }

    /// Share of the rep's wall time its process was not on a CPU.
    pub fn steal_share(&self) -> f64 {
        let (wall, cpu) = (self.num("wall_ns"), self.num("cpu_ns"));
        if cpu > 0.0 && wall > 0.0 {
            (1.0 - cpu / wall).max(0.0)
        } else {
            0.0
        }
    }

    /// The simulated result: what must be identical across reps.
    pub fn sim_identity(&self) -> String {
        [
            "digest",
            "ops",
            "failed",
            "success_num",
            "success_den",
            "events",
            "packets_sent",
            "packets_delivered",
            "device_drops",
            "summary",
        ]
        .iter()
        .map(|k| format!("{k}={}", self.text(k)))
        .collect::<Vec<_>>()
        .join(" ")
    }
}

/// The parent side: spawns one child, waits for it, parses its report.
pub fn spawn(workload: Workload, seed: u64, mode: Mode, size: Size) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["rep", "--workload", workload.name(), "--mode", mode.name()])
        .args(["--seed", &seed.to_string(), "--div", &size.div.to_string()])
        .output()
        .map_err(|e| format!("spawning a rep: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} {} rep exited with {}: {}",
            workload.name(),
            mode.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let fields: BTreeMap<String, String> = String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|l| l.strip_prefix("@ "))
        .map(|l| match l.split_once(' ') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (l.to_string(), String::new()),
        })
        .collect();
    if !fields.contains_key("digest") {
        return Err(format!(
            "{} {} rep printed no report",
            workload.name(),
            mode.name()
        ));
    }
    Ok(Rep { fields })
}
