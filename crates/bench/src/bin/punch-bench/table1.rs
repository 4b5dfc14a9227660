//! E1: regenerate the paper's Table 1 by running NAT Check against the
//! full sampled vendor populations (380 devices, measured end-to-end).
//!
//! The survey runs twice — on one worker and on a pool — and the gate is
//! that the two tables are byte-identical. `BENCH_survey.json` records
//! the run's size (devices, engine events) and that verdict.
//!
//! Run: `cargo run --release -p punch-bench -- table1`

use crate::{Flags, Run};
use punch_lab::par;
use punch_natcheck::run_survey_mutated_with_workers;
use punch_net::Json;

const SEED: u64 = 2005;

pub struct Report {
    pub table: String,
    pub devices: u64,
    pub sim_events: u64,
    pub outputs_byte_identical: bool,
}

pub fn measure() -> Report {
    let survey = |workers| run_survey_mutated_with_workers(SEED, None, Some(workers), |_, _| {});
    let sequential = survey(1);
    // A real pool even where `PUNCH_JOBS` or the host offers one worker:
    // this leg exists to compare pooled against sequential execution.
    let pooled = survey(par::jobs().max(2));
    let table = pooled.format();
    Report {
        outputs_byte_identical: sequential.format() == table,
        table,
        devices: pooled.devices,
        sim_events: pooled.sim_events,
    }
}

pub fn gate(r: &Report) -> Result<(), String> {
    if r.outputs_byte_identical {
        Ok(())
    } else {
        Err("the pooled survey table differs from the sequential one".to_string())
    }
}

pub fn run(_: &Flags) -> Result<Run, String> {
    let report = measure();
    let mut out = String::new();
    out += "Reproduced Table 1 (NAT Check over sampled vendor populations)\n\n";
    out += &format!("{}\n", report.table);
    out += "Paper:      UDP 310/380 (82%)   hairpin 80/335 (24%)   TCP 184/286 (64%)   tcp-hairpin 37/286 (13%)*\n";
    out += "* the paper's own per-vendor TCP-hairpin cells sum to 40/284; see EXPERIMENTS.md.\n";
    out.push('\n');
    let json = Json::obj([
        ("experiment", Json::str("table1_survey")),
        ("seed", Json::num(SEED)),
        ("devices", Json::num(report.devices)),
        ("sim_events", Json::num(report.sim_events)),
        (
            "outputs_byte_identical",
            Json::num(report.outputs_byte_identical),
        ),
    ]);
    let mut run = Run::text("table1.txt", out);
    run.artifacts
        .push(("BENCH_survey.json".to_string(), json.render()));
    run.gate = gate(&report);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fails_when_the_pooled_table_differs() {
        let mut report = Report {
            table: String::new(),
            devices: 380,
            sim_events: 1,
            outputs_byte_identical: true,
        };
        assert_eq!(gate(&report), Ok(()));
        report.outputs_byte_identical = false;
        assert!(gate(&report).is_err());
    }
}
