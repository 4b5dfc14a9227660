//! EC3: the adversary suite — scripted attacker nodes against the
//! paper's protocols, with each paired defense off and on.
//!
//! Four attack legs (see `punch_lab::adversary`):
//!
//! - `mapping_flood` — mapping exhaustion from inside the victim's NAT
//!   realm vs per-source quotas + flood-resistant eviction
//! - `rst_inject`   — off-path blind RST volleys against punched TCP
//!   sessions vs RFC 5961-style sequence validation
//! - `reg_squat`    — registration-squatting + introduction-flood
//!   storms vs protect-active eviction + per-source rate limiting
//! - `intro_forgery`— rogue server-to-server introduction forgeries vs
//!   fleet authentication
//!
//! Every trial reports the victim's view: whether the pair punched,
//! sessions the attack killed, whether the attack had its intended
//! effect (`disrupted`), whether the victim was healthy once the
//! attack drained (`recovered`), and the recovery latency. With the
//! defense off the attack must visibly degrade the victim; with it on
//! the victim must ride through untouched.
//!
//! Run: `cargo run --release -p punch-bench -- attacks [--trials N]`
//!
//! Writes (and prints) `BENCH_attacks.json`. The gate is the sentence above, per leg:
//! every off arm disrupted with zero defense events, every on arm
//! undisrupted, recovered in every trial, and its defense firing.

use crate::{Flags, Run};
use punch_lab::{
    par, run_intro_forgery, run_mapping_flood, run_reg_squat, run_rst_inject, AttackReport,
};
use punch_net::Json;

/// Base world seed; trial `t` of every leg uses `SEED + t`.
const SEED: u64 = 11;

type Leg = fn(u64, bool) -> AttackReport;

const LEGS: [(&str, Leg); 4] = [
    ("mapping_flood", run_mapping_flood),
    ("rst_inject", run_rst_inject),
    ("reg_squat", run_reg_squat),
    ("intro_forgery", run_intro_forgery),
];

/// Aggregated counters for one (leg, defended) arm.
#[derive(Default)]
pub struct Arm {
    pub established: u64,
    pub deaths: u64,
    pub disrupted: u64,
    pub recovered: u64,
    pub recovery_ms_total: u64,
    pub defense_events: u64,
}

impl Arm {
    fn add(&mut self, r: &AttackReport) {
        self.established += u64::from(r.established);
        self.deaths += r.deaths;
        self.disrupted += u64::from(r.disrupted);
        self.recovered += u64::from(r.recovered);
        self.recovery_ms_total += r.recovery_ms;
        self.defense_events += r.defense_events;
    }

    fn json(&self, trials: u64) -> Json {
        Json::obj([
            ("established", Json::num(self.established)),
            ("deaths", Json::num(self.deaths)),
            ("disrupted", Json::num(self.disrupted)),
            ("recovered", Json::num(self.recovered)),
            (
                "mean_recovery_ms",
                Json::num(self.recovery_ms_total / trials.max(1)),
            ),
            ("defense_events", Json::num(self.defense_events)),
        ])
        .inline()
    }
}

pub struct Report {
    pub trials: u64,
    /// Per leg, in `LEGS` order: `[defense off, defense on]`.
    pub arms: Vec<[Arm; 2]>,
}

pub fn measure(trials: u64) -> Report {
    // One flat task list: leg-major, then defended, then trial — par
    // fans the whole suite out and aggregation reads back positionally.
    let mut tasks: Vec<(usize, bool, u64)> = Vec::new();
    for leg in 0..LEGS.len() {
        for defended in [false, true] {
            tasks.extend((0..trials).map(|t| (leg, defended, SEED + t)));
        }
    }
    let reports = par::run(&tasks, |_, &(leg, defended, seed)| {
        LEGS[leg].1(seed, defended)
    });
    let mut arms: Vec<[Arm; 2]> = LEGS.iter().map(|_| Default::default()).collect();
    for (&(leg, defended, _), report) in tasks.iter().zip(&reports) {
        arms[leg][usize::from(defended)].add(report);
    }
    Report { trials, arms }
}

pub fn gate(r: &Report) -> Result<(), String> {
    for ((leg, _), [off, on]) in LEGS.iter().zip(&r.arms) {
        let broken = if off.disrupted == 0 {
            "never disrupted the victim with defenses off"
        } else if off.defense_events != 0 {
            "counted defense events with defenses off"
        } else if on.disrupted != 0 {
            "disrupted the victim despite its defense"
        } else if on.recovered != r.trials {
            "left the victim unhealthy in a defended trial"
        } else if on.defense_events == 0 {
            "never made its defense fire"
        } else {
            continue;
        };
        return Err(format!("{leg} {broken}"));
    }
    Ok(())
}

fn json(r: &Report) -> Json {
    let legs = LEGS.iter().zip(&r.arms).map(|((leg, _), [off, on])| {
        (
            *leg,
            Json::obj([("off", off.json(r.trials)), ("on", on.json(r.trials))]),
        )
    });
    Json::obj([
        ("bench", Json::str("adversary-suite")),
        ("seed", Json::num(SEED)),
        ("trials", Json::num(r.trials)),
        ("attacks", Json::obj(legs)),
    ])
}

pub fn run(flags: &Flags) -> Result<Run, String> {
    let trials = flags.get("--trials", 4u64)?;
    let report = measure(trials);
    Ok(Run::json(
        "BENCH_attacks.json",
        &json(&report),
        gate(&report),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_a_real_run_and_fails_on_each_seeded_violation() {
        let mut report = measure(1);
        assert_eq!(gate(&report), Ok(()));

        report.arms[1][1].defense_events = 0;
        let err = gate(&report).unwrap_err();
        assert_eq!(err, "rst_inject never made its defense fire");
        report.arms[1][1].defense_events = 1;

        report.arms[3][1].disrupted = 1;
        assert!(gate(&report).is_err());
        report.arms[3][1].disrupted = 0;

        report.arms[0][0].disrupted = 0;
        let err = gate(&report).unwrap_err();
        assert_eq!(
            err,
            "mapping_flood never disrupted the victim with defenses off"
        );
    }
}
