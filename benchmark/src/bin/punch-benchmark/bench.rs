//! The parent side: reps in, metrics and a verdict out.
//!
//! A [`Collector`] gathers one workload's reps in one of two modes.
//! End to end (`--trace 0`): a discarded warm-up rep — which also
//! touches the memory the timed reps will use — then untraced reps
//! through the program's real entry points until the run's seconds are
//! spent. Per layer (`--trace 1`): the same warm-up, then rounds of one
//! untraced and one traced rep (and, on `crowd_udp`, one parallel rep),
//! plus the micro-probes. Input sizes never depend on the time budget;
//! only the rep count does.

use crate::json::Json;
use crate::rep::{self, Mode, Rep, Size};
use crate::spec::{MetricDef, Stat, Workload, END_TO_END, PER_LAYER};
use crate::{clock, probes};
use std::collections::BTreeMap;

/// Fewest timed reps (or rounds) a run reports on.
const MIN_REPS: usize = 3;
/// A rep that spent more than this share of its wall time off-CPU was
/// disturbed by the host.
const STEAL_LIMIT: f64 = 0.1;

/// Median and quartiles of one metric over a run's reps.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => {
            return Summary {
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                n,
            }
        }
        1 => {
            return Summary {
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            }
        }
        _ => {}
    }
    let quartile = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        median: quartile(2),
        q1: quartile(1),
        q3: quartile(3),
        n,
    }
}

/// One metric of a finished run: its definition, the value the run
/// reports for it (the definition's [`Stat`] of the reps), the summary
/// over the reps, and the per-rep values both were taken from.
pub struct Measured {
    pub def: &'static MetricDef,
    pub value: f64,
    pub summary: Summary,
    pub samples: Vec<f64>,
}

/// One workload's finished run.
pub struct RunResult {
    pub workload: Workload,
    pub traced: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// In `BENCHMARK.json` order.
    pub metrics: Vec<Measured>,
    pub sim_identity: String,
    pub problems: Vec<String>,
    pub reps: usize,
    pub disturbed_reps: usize,
}

impl RunResult {
    /// The line the driver reads.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.def.name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.def.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .line()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("op", Json::str(self.workload.op())),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("reps", Json::Int(self.reps as u64)),
            ("disturbed_reps", Json::Int(self.disturbed_reps as u64)),
            ("sim_identity", Json::str(self.sim_identity.clone())),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.def.name,
                        Json::obj([
                            ("unit", Json::str(m.def.unit)),
                            ("value", Json::Num(m.value)),
                            ("median", Json::Num(m.summary.median)),
                            ("q1", Json::Num(m.summary.q1)),
                            ("q3", Json::Num(m.summary.q3)),
                            ("n", Json::Int(m.summary.n as u64)),
                            (
                                "samples",
                                Json::Arr(m.samples.iter().map(|&x| Json::Num(x)).collect()),
                            ),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn print_table(&self) {
        println!(
            "{} ({}; {} reps, {} disturbed){}",
            self.workload.name(),
            if self.traced {
                "per layer"
            } else {
                "end to end"
            },
            self.reps,
            self.disturbed_reps,
            if self.correct {
                ""
            } else {
                "  ** INCORRECT **"
            },
        );
        for m in &self.metrics {
            let s = &m.summary;
            let stat = match m.def.stat {
                Stat::Median => "median",
                Stat::Fastest => "fastest",
            };
            println!(
                "  {:<36} {:>14.6} {:<6} [{stat} of {}; q1 {:.6}, median {:.6}, q3 {:.6}]",
                m.def.name, m.value, m.def.unit, s.n, s.q1, s.median, s.q3
            );
        }
        println!("  sim: {}", self.sim_identity);
        for p in &self.problems {
            println!("  problem: {p}");
        }
    }
}

/// Gathers one workload's reps, one [`Collector::step`] at a time, so
/// that `all` can interleave workloads.
pub struct Collector {
    workload: Workload,
    seed: u64,
    size: Size,
    seconds: f64,
    traced: bool,
    /// Seconds this collector's timed steps have taken.
    spent: f64,
    untraced: Vec<Rep>,
    traced_reps: Vec<Rep>,
    parallel: Vec<Rep>,
    /// The warm-up rep's simulated result: it must match the timed ones.
    warm_identity: Option<String>,
    errors: Vec<String>,
}

impl Collector {
    pub fn new(workload: Workload, seed: u64, size: Size, seconds: f64, traced: bool) -> Self {
        Collector {
            workload,
            seed,
            size,
            seconds,
            traced,
            spent: 0.0,
            untraced: Vec::new(),
            traced_reps: Vec::new(),
            parallel: Vec::new(),
            warm_identity: None,
            errors: Vec::new(),
        }
    }

    pub fn done(&self) -> bool {
        !self.errors.is_empty() || (self.spent >= self.seconds && self.untraced.len() >= MIN_REPS)
    }

    fn spawn(&mut self, mode: Mode) -> Option<Rep> {
        match rep::spawn(self.workload, self.seed, mode, self.size) {
            Ok(rep) => Some(rep),
            Err(e) => {
                self.errors.push(e);
                None
            }
        }
    }

    /// The warm-up rep, or one timed rep (one round when tracing).
    pub fn step(&mut self) {
        if self.warm_identity.is_none() {
            // A failed warm-up lands in `errors`, which ends the run.
            self.warm_identity = self.spawn(Mode::Untraced).map(|r| r.sim_identity());
            return;
        }
        let t = clock::now();
        if let Some(rep) = self.spawn(Mode::Untraced) {
            self.untraced.push(rep);
        }
        if self.traced {
            if let Some(rep) = self.spawn(Mode::Traced) {
                self.traced_reps.push(rep);
            }
            if self.workload == Workload::CrowdUdp {
                if let Some(rep) = self.spawn(Mode::Parallel) {
                    self.parallel.push(rep);
                }
            }
        }
        self.spent += clock::secs_since(t);
    }

    pub fn finish(self) -> RunResult {
        let mut problems = self.errors.clone();
        let all_reps = || {
            self.untraced
                .iter()
                .chain(&self.traced_reps)
                .chain(&self.parallel)
        };
        for rep in all_reps() {
            if !rep.text("problems").is_empty() {
                problems.push(rep.text("problems").to_string());
            }
        }
        // The simulated result must repeat exactly, rep after rep.
        let sim_identity = self
            .untraced
            .first()
            .map(Rep::sim_identity)
            .unwrap_or_default();
        let untraced_ids = self
            .untraced
            .iter()
            .chain(&self.parallel)
            .map(Rep::sim_identity);
        for id in self.warm_identity.iter().cloned().chain(untraced_ids) {
            if id != sim_identity {
                problems.push(format!(
                    "reps disagree on the simulated result: `{id}` vs `{sim_identity}`"
                ));
            }
        }
        if let Some(first) = self.traced_reps.first() {
            let id = first.sim_identity();
            if self.traced_reps.iter().any(|r| r.sim_identity() != id) {
                problems.push("traced reps disagree on the simulated result".to_string());
            }
        }
        let attempted: u64 = self.untraced.iter().map(|r| r.num("ops") as u64).sum();
        let failed: u64 = all_reps().map(|r| r.num("failed") as u64).sum();
        if failed != 0 {
            problems.push(format!("{failed} operations failed"));
        }
        problems.sort();
        problems.dedup();

        let mut values = if self.traced {
            self.per_layer_values()
        } else {
            self.end_to_end_values()
        };
        let defs = if self.traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(defs.len());
        for def in defs {
            let samples = values.0.remove(def.name).unwrap_or_default();
            if samples.is_empty() {
                problems.push(format!("no rep reported {}", def.name));
            }
            let summary = summarize(&samples);
            let value = match def.stat {
                Stat::Median => summary.median,
                Stat::Fastest => samples.iter().copied().fold(f64::INFINITY, f64::min),
            };
            if !value.is_finite() {
                problems.push(format!("{} is not a number", def.name));
            }
            metrics.push(Measured {
                def,
                value,
                summary,
                samples,
            });
        }
        RunResult {
            workload: self.workload,
            traced: self.traced,
            correct: problems.is_empty(),
            attempted,
            failed,
            metrics,
            sim_identity,
            problems,
            reps: self.untraced.len(),
            disturbed_reps: all_reps().filter(|r| r.steal_share() > STEAL_LIMIT).count(),
        }
    }

    /// Per-rep values of each end-to-end metric, untraced reps only.
    fn end_to_end_values(&self) -> Samples {
        let mut v = Samples::default();
        for r in &self.untraced {
            let ops = r.num("ops");
            v.push("setup_s", r.num("setup_s"));
            v.push("host_us_per_op", r.num("run_s") * 1e6 / ops);
            v.push("peak_rss_mib", r.num("rss_kib") / 1024.0);
            v.push("resolved_share", 1.0 - r.num("failed") / ops);
            v.push(
                "sim_success_share",
                r.num("success_num") / r.num("success_den"),
            );
        }
        v
    }

    /// Per-rep (or per-round) values of each per-layer metric; runs the
    /// micro-probes.
    fn per_layer_values(&self) -> Samples {
        let mut v = Samples::default();
        let sharded = matches!(self.workload, Workload::CrowdUdp | Workload::FleetChurn);
        for r in &self.untraced {
            let run_s = r.num("run_s");
            v.push("net.ns_per_event", run_s * 1e9 / r.num("events"));
            v.push(
                "lab.poll_release_share",
                (1.0 - r.num("busy_ns") / 1e9 / run_s).max(0.0),
            );
            // Only the sharded worlds' set-up is a world build.
            let build_us = if sharded {
                r.num("setup_s") * 1e6 / r.num("nodes")
            } else {
                0.0
            };
            v.push("lab.build_us_per_node", build_us);
        }
        for r in &self.traced_reps {
            for (name, value) in r.metrics() {
                v.push(name, value);
            }
        }
        for r in self.untraced.iter().chain(&self.traced_reps) {
            v.push("host.steal_share", r.steal_share());
        }
        for (plain, spied) in self.untraced.iter().zip(&self.traced_reps) {
            v.push(
                "trace.overhead_share",
                spied.num("run_s") / plain.num("run_s") - 1.0,
            );
            let matches = spied.text("digest") == plain.text("digest");
            v.push("trace.replica_matches", f64::from(u8::from(matches)));
        }
        for (one, many) in self.untraced.iter().zip(&self.parallel) {
            v.push("lab.par_speedup", one.num("run_s") / many.num("run_s"));
        }
        if self.workload != Workload::CrowdUdp {
            v.push("lab.par_speedup", 0.0);
        }
        v.push("net.calendar_ns_per_op", probes::calendar_ns_per_op());
        v.push("net.checksum_ns_per_kib", probes::checksum_ns_per_kib());
        v.push("rendezvous.codec_ns_per_msg", probes::codec_ns_per_msg());
        v
    }
}

/// Metric name → the values a run's reps gave it.
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }
}

/// Runs `workloads` in one mode, a rep of each in turn, so that a slow
/// stretch of host time lands on all of them alike.
pub fn run(
    workloads: &[Workload],
    seed: u64,
    size: Size,
    seconds: f64,
    traced: bool,
) -> Vec<RunResult> {
    let mut collectors: Vec<Collector> = workloads
        .iter()
        .map(|&w| Collector::new(w, seed, size, seconds, traced))
        .collect();
    while collectors.iter().any(|c| !c.done()) {
        for c in collectors.iter_mut().filter(|c| !c.done()) {
            c.step();
        }
    }
    collectors.into_iter().map(Collector::finish).collect()
}
