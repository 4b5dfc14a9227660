//! Chaos search: seeded random fault schedules (outages, degradation,
//! corruption, truncation, NAT reboots, server restarts) against the
//! resilient punch profile on the Figure-5 topology, checking liveness
//! and replay-determinism invariants and shrinking any failing
//! schedule to a minimal replayable fault plan.
//!
//! Run: `cargo run --release -p punch-bench -- chaos_search
//! [--schedules N] [--seed S] [--max-faults M]
//! [--profile resilient|racing|adversarial]`
//!
//! `--profile adversarial` hunts *attack* schedules: scripted attacker
//! nodes (mapping floods, registration squatting, introduction floods)
//! mixed with classic faults on a capped-table topology, defenses off.
//!
//! The default (resilient) run's narration is the pinned
//! `chaos_search.txt`; other profiles write `chaos_search_<profile>.txt`.
//! The gate is zero violations.

use crate::{Flags, Run};
use punch_lab::chaos::{
    generate_profile_faults, run_schedule, ChaosProfile, ScheduleReport,
};
use punch_lab::par;

pub struct Report {
    pub profile_name: String,
    pub profile: ChaosProfile,
    pub base_seed: u64,
    pub max_faults: usize,
    pub schedules: Vec<ScheduleReport>,
}

pub fn measure(
    profile_name: &str,
    base_seed: u64,
    schedules: u64,
    max_faults: usize,
) -> Result<Report, String> {
    let profile = match profile_name {
        "resilient" => ChaosProfile::Resilient,
        "racing" => ChaosProfile::Racing,
        "adversarial" => ChaosProfile::Adversarial,
        other => {
            return Err(format!(
                "unknown --profile {other} (resilient|racing|adversarial)"
            ))
        }
    };
    let seeds: Vec<u64> = (base_seed..base_seed + schedules).collect();
    Ok(Report {
        profile_name: profile_name.to_string(),
        profile,
        base_seed,
        max_faults,
        schedules: par::run(&seeds, |_, &seed| run_schedule(seed, profile, max_faults)),
    })
}

pub fn gate(r: &Report) -> Result<(), String> {
    match r.schedules.iter().filter(|s| s.violation.is_some()).count() {
        0 => Ok(()),
        n => Err(format!(
            "{n} schedules violated an invariant (plans in the narration)"
        )),
    }
}

fn narrate(r: &Report) -> String {
    // The schedule generator is deterministic, so the fault mix can be
    // recomputed here without re-running any simulation.
    let kinds: Vec<&str> = (r.schedules.iter())
        .flat_map(|s| generate_profile_faults(s.seed, r.max_faults, r.profile))
        .map(|f| f.kind())
        .collect();
    let mix = |kind: &str| kinds.iter().filter(|&&k| k == kind).count();
    let sampled = kinds.len();
    let violations: Vec<_> = r
        .schedules
        .iter()
        .filter(|s| s.violation.is_some())
        .collect();

    let mut out = String::new();
    out += &format!(
        "== chaos search: random fault schedules vs the {} profile ==\n",
        r.profile_name
    );
    out += &format!(
        "   seeds {}..={}, <= {} faults per schedule, offsets within 15 s of punch start\n",
        r.base_seed,
        r.base_seed + r.schedules.len() as u64 - 1,
        r.max_faults
    );
    out += "   invariants: post-horizon liveness probe (data delivered or terminal\n";
    out += "   failure reported), no panic, byte-identical replay per schedule\n\n";
    out += &format!(
        "   schedules: {}   faults sampled: {sampled}   violations: {}\n",
        r.schedules.len(),
        violations.len()
    );
    out += &format!(
        "   fault mix: outage {}, lossy {}, corrupt {}, truncate {}, NAT-A reboot {},\n",
        mix("outage"),
        mix("lossy"),
        mix("corrupt"),
        mix("truncate"),
        mix("reboot_nat_a")
    );
    out += &format!(
        "              NAT-B reboot {}, server restart {}\n",
        mix("reboot_nat_b"),
        mix("restart_server")
    );
    if r.profile == ChaosProfile::Adversarial {
        out += &format!(
            "   attack mix: mapping flood {}, squat storm {}, intro flood {}\n",
            mix("mapping_flood"),
            mix("squat_storm"),
            mix("intro_flood")
        );
    }
    for s in &violations {
        let Some(v) = &s.violation else { continue };
        out.push('\n');
        out += &format!(
            "   VIOLATION seed {}: {} ({} faults sampled, {} after shrinking)\n",
            s.seed,
            v.verdict,
            v.original_faults,
            v.plan.faults.len()
        );
        for line in v.plan.to_json().lines() {
            out += &format!("     {line}\n");
        }
    }
    out.push('\n');
    if violations.is_empty() {
        out += "(no stuck sessions: every schedule ended delivering, relaying, or\n";
        out += " terminally failed, and every run replayed byte-identically)\n";
    } else {
        out += "(each violation above is replayable from its seed + fault plan JSON)\n";
    }
    out
}

pub fn run(flags: &Flags) -> Result<Run, String> {
    let schedules = flags.get("--schedules", 200u64)?;
    let base_seed = flags.get("--seed", 1u64)?;
    let max_faults = flags.get("--max-faults", 5usize)?;
    let profile = flags.get("--profile", "resilient".to_string())?;
    let report = measure(&profile, base_seed, schedules, max_faults)?;
    // Only the default profile owns the pinned artifact's name.
    let file = match report.profile {
        ChaosProfile::Resilient => "chaos_search.txt".to_string(),
        _ => format!("chaos_search_{profile}.txt"),
    };
    let mut run = Run::text(&file, narrate(&report));
    run.gate = gate(&report);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use punch_lab::chaos::{ChaosFault, ChaosPlan, ShrunkViolation};

    #[test]
    fn gate_passes_a_real_run_and_fails_on_one_violation() {
        let mut report = measure("resilient", 1, 3, 5).unwrap();
        assert_eq!(gate(&report), Ok(()));
        report.schedules[1].violation = Some(ShrunkViolation {
            verdict: "stuck".to_string(),
            original_faults: 1,
            plan: ChaosPlan {
                seed: 2,
                faults: vec![ChaosFault::RebootNatA { at_ms: 10_000 }],
            },
        });
        assert!(gate(&report).is_err());
        assert!(narrate(&report).contains("{\"kind\": \"reboot_nat_a\", \"at_ms\": 10000}"));
    }

    #[test]
    fn unknown_profile_is_a_usage_error() {
        assert!(measure("fragile", 1, 1, 5).is_err());
    }
}
