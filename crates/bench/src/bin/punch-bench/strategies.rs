//! ES: the candidate-racing strategy matrix — a DCUtR-style success-rate
//! table of prediction strategy × NAT behavior class, measured over the
//! Table 1 vendor populations.
//!
//! Every sampled vendor device is bucketed by the behaviour pair that
//! decides a punch's fate: its mapping policy (cone vs symmetric) and,
//! for symmetric mappings, its port allocator (preserving, sequential,
//! random). Each matrix cell then races one sampled device class against
//! another, both peers running the same [`CandidatePlan`], with relaying
//! disabled so the outcome is purely the race's: direct or failed.
//!
//! Seeds are paired across strategies — cell (i, trial t) uses the same
//! world seed and the same sampled devices under every strategy — so a
//! strategy's column differs from `basic` only by what it adds to the
//! candidate set. The paper's claim (§5.1) and DCUtR's observation both
//! land in the same cells: on symmetric↔symmetric pairs `basic` gets
//! through only the minority of devices whose filtering is loose enough
//! to accept traffic on the server-facing mapping, while a prediction
//! strategy matched to the allocator carries the rest.
//!
//! Run: `cargo run --release -p punch-bench -- strategies [--trials N]`
//!
//! Writes (and prints) `BENCH_strategies.json`. The gate is §5.1's claim in its
//! sharpest cell: `predict_seq` must beat `basic` on `sym_seq×sym_seq`.

use crate::{Flags, Run};
use holepunch::{CandidatePlan, CandidateSource, PredictionStrategy};
use punch_bench::{udp_punch, Outcome, Topology};
use punch_lab::par;
use punch_nat::{MappingPolicy, NatBehavior, PortAllocation, VendorProfile, VENDORS};
use punch_net::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Population sampling seed (the Table 1 survey's).
const SEED: u64 = 2005;
/// Prediction window / radius for every strategy.
const WINDOW: u16 = 8;

/// NAT behaviour classes that decide a punch's fate.
const CLASSES: [&str; 4] = ["cone", "sym_pres", "sym_seq", "sym_rand"];
const CELLS: usize = CLASSES.len() * CLASSES.len();

fn class_of(b: &NatBehavior) -> usize {
    if b.mapping == MappingPolicy::EndpointIndependent {
        0
    } else {
        match b.port_alloc {
            PortAllocation::Preserving => 1,
            PortAllocation::Sequential => 2,
            PortAllocation::Random => 3,
        }
    }
}

fn predicting(strategy: PredictionStrategy) -> CandidatePlan {
    CandidatePlan::basic().with_source(CandidateSource::SelfPredicted(strategy))
}

fn strategies() -> [(&'static str, CandidatePlan); 4] {
    [
        ("basic", CandidatePlan::basic()),
        (
            "predict_seq",
            predicting(PredictionStrategy::SequentialDelta { window: WINDOW }),
        ),
        (
            "stride_mult",
            predicting(PredictionStrategy::StrideMultiple { window: WINDOW }),
        ),
        (
            "window_obs",
            predicting(PredictionStrategy::WindowAroundObserved { radius: WINDOW }),
        ),
    ]
}

#[derive(Clone, Copy, Default)]
pub struct Cell {
    pub direct: u64,
    pub relay: u64,
    pub failed: u64,
}

pub struct Report {
    pub trials: u64,
    /// Sampled devices per class, in `CLASSES` order.
    pub class_sizes: [usize; 4],
    /// Per strategy, in `strategies()` order: one cell per (class a,
    /// class b), row-major.
    pub matrix: Vec<[Cell; CELLS]>,
}

pub fn measure(trials: u64) -> Report {
    // Sample the Table 1 vendor populations once and bucket every device
    // by its behaviour class. The sampling RNG is seeded, so the buckets
    // are identical on every run and at every worker count.
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut class_devices: [Vec<NatBehavior>; 4] = Default::default();
    for spec in VENDORS {
        for dev in VendorProfile::new(*spec).sample_population(&mut rng) {
            class_devices[class_of(&dev.behavior)].push(dev.behavior);
        }
    }

    // One flat task list across every strategy and cell, so par can fan
    // the whole matrix out; order is deterministic and the aggregation
    // below reads results back positionally.
    struct Task {
        strategy: usize,
        cell: usize,
        seed: u64,
        nat_a: NatBehavior,
        nat_b: NatBehavior,
    }
    let strategies = strategies();
    let mut tasks: Vec<Task> = Vec::new();
    for strategy in 0..strategies.len() {
        for ca in 0..CLASSES.len() {
            for cb in 0..CLASSES.len() {
                let cell = ca * CLASSES.len() + cb;
                for t in 0..trials {
                    // Paired across strategies: seed and devices depend
                    // only on (cell, trial).
                    let pick = |devs: &[NatBehavior], salt: u64| {
                        devs[((t * 31 + salt) % devs.len() as u64) as usize].clone()
                    };
                    tasks.push(Task {
                        strategy,
                        cell,
                        seed: 40_000 + cell as u64 * 10_007 + t * 7919,
                        nat_a: pick(&class_devices[ca], 0),
                        nat_b: pick(&class_devices[cb], 17),
                    });
                }
            }
        }
    }

    let outcomes = par::run(&tasks, |_, task| {
        let plan = &strategies[task.strategy].1;
        udp_punch(
            Topology::TwoNats(Some(task.nat_a.clone()), Some(task.nat_b.clone())),
            task.seed,
            |c| {
                c.punch = c.punch.clone().with_plan(plan.clone());
                c.punch.relay_fallback = false;
            },
        )
    });

    let mut matrix = vec![[Cell::default(); CELLS]; strategies.len()];
    for (task, outcome) in tasks.iter().zip(&outcomes) {
        let cell = &mut matrix[task.strategy][task.cell];
        match outcome {
            Outcome::Direct(_) => cell.direct += 1,
            Outcome::Relay => cell.relay += 1,
            Outcome::Failed => cell.failed += 1,
        }
    }
    Report {
        trials,
        class_sizes: class_devices.map(|devs| devs.len()),
        matrix,
    }
}

pub fn gate(r: &Report) -> Result<(), String> {
    let sym_seq = 2 * CLASSES.len() + 2;
    let (basic, predict) = (r.matrix[0][sym_seq].direct, r.matrix[1][sym_seq].direct);
    if predict > basic {
        Ok(())
    } else {
        Err(format!(
            "sequential-delta prediction must beat basic on sym_seq x sym_seq: \
             predict_seq={predict} vs basic={basic}"
        ))
    }
}

fn json(r: &Report) -> Json {
    let matrix = strategies()
        .into_iter()
        .zip(&r.matrix)
        .map(|((strategy, _), cells)| {
            let cells = cells.iter().enumerate().map(|(i, c)| {
                let record = Json::obj([
                    ("direct", Json::num(c.direct)),
                    ("relay", Json::num(c.relay)),
                    ("failed", Json::num(c.failed)),
                ]);
                let (ca, cb) = (CLASSES[i / CLASSES.len()], CLASSES[i % CLASSES.len()]);
                (format!("{ca}x{cb}"), record.inline())
            });
            (strategy, Json::obj(cells))
        });
    Json::obj([
        ("bench", Json::str("strategy-matrix")),
        ("population_seed", Json::num(SEED)),
        ("devices", Json::num(r.class_sizes.iter().sum::<usize>())),
        ("trials_per_cell", Json::num(r.trials)),
        ("window", Json::num(WINDOW)),
        (
            "classes",
            Json::obj(CLASSES.into_iter().zip(r.class_sizes.map(Json::num))),
        ),
        ("matrix", Json::obj(matrix)),
    ])
}

pub fn run(flags: &Flags) -> Result<Run, String> {
    let trials = flags.get("--trials", 10u64)?;
    let report = measure(trials);
    Ok(Run::json(
        "BENCH_strategies.json",
        &json(&report),
        gate(&report),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_passes_a_real_run_and_fails_when_prediction_only_ties_basic() {
        let mut report = measure(4);
        assert_eq!(gate(&report), Ok(()));
        let sym_seq = 2 * CLASSES.len() + 2;
        report.matrix[1][sym_seq] = report.matrix[0][sym_seq];
        assert!(gate(&report).is_err());
    }
}
