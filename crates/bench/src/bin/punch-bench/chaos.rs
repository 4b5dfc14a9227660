//! EC: chaos — scripted faults (NAT reboots, rendezvous restarts, link
//! outages, behaviour flips) against the recovery machinery, reporting
//! recovery-time distributions per fault class. The classes are
//! `punch_lab::chaos::SCRIPTED`'s fixed schedules, run by
//! `punch_lab::chaos::run_scripted`.
//!
//! Run: `cargo run --release -p punch-bench -- chaos [--trials N]`
//!
//! Besides the recovery-time table (`chaos.txt`), each run exports the
//! merged metrics snapshots per fault class (failure-reason counters,
//! per-layer drop counters) as `metrics_chaos.json`. The gate is that
//! every trial of every class recovers.

use crate::{Flags, Run};
use punch_bench::{metrics_report, ms};
use punch_lab::chaos::{run_scripted, SCRIPTED};
use punch_lab::par;
use punch_net::{Duration, MetricsSnapshot};

/// One fault class's trials.
pub struct ClassResult {
    pub name: &'static str,
    pub desc: &'static str,
    /// Recovery times of the trials that recovered, sorted.
    pub times: Vec<Duration>,
    pub failures: usize,
    pub metrics: MetricsSnapshot,
}

pub struct Report {
    pub trials: u64,
    pub classes: Vec<ClassResult>,
}

pub fn measure(trials: u64) -> Report {
    let seeds: Vec<u64> = (1..=trials).collect();
    let classes = SCRIPTED
        .iter()
        .map(|&(name, desc, faults)| {
            let (results, metrics) =
                par::run_merge_metrics(&seeds, |_, &seed| run_scripted(seed, faults));
            let mut times: Vec<Duration> = results.into_iter().flatten().collect();
            times.sort();
            ClassResult {
                name,
                desc,
                failures: seeds.len() - times.len(),
                times,
                metrics,
            }
        })
        .collect();
    Report { trials, classes }
}

pub fn gate(r: &Report) -> Result<(), String> {
    match r.classes.iter().find(|c| c.failures > 0) {
        Some(c) => Err(format!(
            "{}: {}/{} trials never recovered",
            c.name, c.failures, r.trials
        )),
        None => Ok(()),
    }
}

fn narrate(r: &Report) -> String {
    let mut out = String::new();
    out += "== EC: recovery times under scripted faults ==\n";
    out += "   resilient profile: 1 s keepalives, 3-miss liveness, auto re-punch,\n";
    out += &format!(
        "   jittered exponential backoff, 2 s server keepalive; {} seeds per class\n\n",
        r.trials
    );
    out += &format!(
        "   {:<15} {:>10} {:>10} {:>10} {:>10}   failures\n",
        "fault", "min", "median", "p90", "max"
    );
    for c in &r.classes {
        let pick = |q_num: usize, q_den: usize| match c.times.len() {
            0 => "-".to_string(),
            n => ms(c.times[(n - 1) * q_num / q_den]),
        };
        out += &format!(
            "   {:<15} {:>10} {:>10} {:>10} {:>10}   {}/{}\n",
            c.name,
            pick(0, 1),
            pick(1, 2),
            pick(9, 10),
            pick(1, 1),
            c.failures,
            r.trials
        );
        out += &format!("     ({})\n", c.desc);
    }
    out.push('\n');
    out += "(liveness detection costs a few keepalive intervals; the punch itself\n";
    out += " re-runs in well under a second once both sides hold fresh mappings)\n";
    out
}

pub fn run(flags: &Flags) -> Result<Run, String> {
    let trials = flags.get("--trials", 20u64)?;
    let report = measure(trials);
    let mut run = Run::text("chaos.txt", narrate(&report));
    run.gate = gate(&report);
    let sections: Vec<(&str, MetricsSnapshot)> = report
        .classes
        .into_iter()
        .map(|c| (c.name, c.metrics))
        .collect();
    run.artifacts
        .push(("metrics_chaos.json".to_string(), metrics_report(&sections)));
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use punch_net::{MetricKey, MetricsSnapshot};

    #[test]
    fn gate_passes_a_real_run_and_fails_on_one_unrecovered_trial() {
        let mut report = measure(1);
        assert_eq!(gate(&report), Ok(()));
        report.classes[2].failures = 1;
        assert!(gate(&report).unwrap_err().contains("link-outage"));
    }

    /// A hand-built section renders in `metrics_chaos.json`'s layout:
    /// sections nest pretty, `name/label` keys, one inline record per
    /// histogram. (`scripts/ci.sh` diffs the full default run's bytes.)
    #[test]
    fn metrics_report_lays_sections_out_as_pinned() {
        let mut m = MetricsSnapshot::default();
        m.inc_by(MetricKey::labeled("net.drop.device", "no-route"), 120);
        m.gauge_max(MetricKey::plain("net.queue.depth.max"), 12);
        m.observe(MetricKey::plain("punch.latency"), Duration::from_millis(3));
        let expected = r#"{
  "nat-reboot": {
    "counters": {
      "net.drop.device/no-route": 120
    },
    "gauges": {
      "net.queue.depth.max": 12
    },
    "histograms": {
      "punch.latency": {"count": 1, "sum_ns": 3000000, "min_ns": 3000000, "max_ns": 3000000, "buckets_le_ms": [[1, 0], [2, 0], [4, 1], [8, 0], [16, 0], [32, 0], [64, 0], [128, 0], [256, 0], [512, 0], [1024, 0], [2048, 0], [4096, 0], [8192, 0], [16384, 0], [32768, 0], [65536, 0], ["inf", 0]]}
    }
  }
}
"#;
        assert_eq!(metrics_report(&[("nat-reboot", m)]), expected);
    }
}
