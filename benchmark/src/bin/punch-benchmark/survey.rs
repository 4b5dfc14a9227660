//! `survey_tcp`: the paper's Table 1, 64 times over.
//!
//! The untraced rep calls `run_survey_mutated_with_workers`. The traced
//! rep is a copy of that function in which each device's world — the one
//! `check_nat_instrumented` gets from `WorldBuilder` — is rebuilt from
//! the same public constructors with every device inside a spy; same
//! per-device seeds, same node order (node RNG streams are id-derived
//! here), same `run_while` predicate.

use crate::clock;
use crate::digest::Fnv;
use crate::rep::{Outcome, RepRun, Size};
use crate::spy::{self, Layer, Spied, Wrap};
use crate::trace::{Harvest, Timeline, Traced};
use punch_nat::{NatBehavior, NatDevice, SampledNat, VendorProfile, VENDORS};
use punch_natcheck::survey::{S1, S2, S3};
use punch_natcheck::{
    run_survey_mutated_with_workers, CheckServer, NatCheckClient, NatCheckReport, ServerRole,
    SurveyResult, SurveyRow,
};
use punch_net::seed::derive_seed;
use punch_net::{Cidr, LinkSpec, QueueStats, Router, Sim, SimStats, SimTime};
use punch_transport::{HostDevice, StackConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Surveys per rep at full size.
const ROUNDS: usize = 64;
/// The seed `results/table1.txt` was produced with.
const PINNED_SEED: u64 = 2005;

fn round_seed(seed: u64, k: usize) -> u64 {
    derive_seed(seed, "survey_tcp", k as u64)
}

/// The `All` row of `results/table1.txt`, as the tree pins it.
fn pinned_all_row() -> Result<String, String> {
    let text = std::fs::read_to_string("results/table1.txt")
        .map_err(|e| format!("results/table1.txt: {e} (run from the repository root)"))?;
    text.lines()
        .find(|l| l.starts_with("All "))
        .map(str::to_string)
        .ok_or_else(|| "results/table1.txt has no All row".to_string())
}

/// Sums a rep's rounds.
#[derive(Default)]
struct Tally {
    devices: u64,
    udp_ok: u64,
    udp_tested: u64,
    stats: SimStats,
    queue: QueueStats,
    hash: Fnv,
}

impl Tally {
    fn add(&mut self, r: &SurveyResult) {
        self.devices += r.devices;
        self.udp_ok += u64::from(r.total.udp.0);
        self.udp_tested += u64::from(r.total.udp.1);
        self.hash.write(r.format().as_bytes());
    }

    fn outcome(mut self, reference: &SurveyResult) -> Outcome {
        let mut problems = Vec::new();
        match pinned_all_row() {
            Ok(row) if row == reference.total.format() => {}
            Ok(row) => problems.push(format!(
                "seed {PINNED_SEED} survey `{}` != results/table1.txt `{row}`",
                reference.total.format()
            )),
            Err(e) => problems.push(e),
        }
        self.hash.write_u64(self.stats.events);
        Outcome {
            ops: self.devices,
            failed: self.devices - self.udp_tested,
            success: (self.udp_ok, self.udp_tested),
            stats: self.stats,
            queue: self.queue,
            nodes: 6,
            digest: self.hash.finish(),
            summary: format!(
                "udp={}/{} devices={}",
                self.udp_ok, self.udp_tested, self.devices
            ),
            problems,
        }
    }
}

/// One untraced rep. Set-up is the pinned-seed reference survey: it is
/// the correctness check against `results/table1.txt`, and it leaves
/// the allocator in the state the timed rounds run in.
pub fn untraced(seed: u64, size: Size, t0: Instant) -> RepRun {
    let noop = |_: &mut NatBehavior, _: &mut StdRng| {};
    let reference = run_survey_mutated_with_workers(PINNED_SEED, None, Some(1), noop);
    let setup_s = clock::secs_since(t0);

    let t1 = clock::now();
    let mut tally = Tally::default();
    for k in 0..size.scaled(ROUNDS) {
        let r = run_survey_mutated_with_workers(round_seed(seed, k), None, Some(1), noop);
        tally.stats.events += r.sim_events;
        tally.stats.busy_nanos += r.sim_busy_nanos;
        tally.add(&r);
    }
    let run_s = clock::secs_since(t1);
    (setup_s, run_s, tally.outcome(&reference), None)
}

/// What a traced rep accumulates over its device worlds.
#[derive(Default)]
struct TracedRounds {
    timeline: Timeline,
    harvest: Harvest,
    tally: Tally,
}

/// One traced rep on spied per-device worlds.
pub fn traced(seed: u64, size: Size, t0: Instant) -> RepRun {
    let reference = survey_round(PINNED_SEED, &mut TracedRounds::default());
    let setup_s = clock::secs_since(t0);

    let mut rounds = TracedRounds::default();
    spy::start_recording();
    let t1 = clock::now();
    for k in 0..size.scaled(ROUNDS) {
        let r = survey_round(round_seed(seed, k), &mut rounds);
        rounds.tally.add(&r);
    }
    let TracedRounds {
        timeline,
        harvest,
        tally,
    } = rounds;
    let run_s = clock::secs_since(t1) - timeline.excluded_ns as f64 / 1e9;
    let out = tally.outcome(&reference);
    let traced = Traced {
        harvest,
        timeline,
        // NAT Check punches nothing: no probes to be useful.
        useful_per_attempt: (0, 0),
    };
    (setup_s, run_s, out, Some(traced))
}

/// `run_survey_mutated_with_workers(seed, None, Some(1), noop)`.
fn survey_round(seed: u64, rounds: &mut TracedRounds) -> SurveyResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tasks: Vec<(usize, u64, SampledNat)> = Vec::new();
    for (v, spec) in VENDORS.iter().enumerate() {
        let population = VendorProfile::new(*spec).sample_population_capped(&mut rng, None);
        for (i, device) in population.into_iter().enumerate() {
            tasks.push((v, i as u64, device));
        }
    }

    let mut result = SurveyResult::default();
    result.total.vendor = "All".into();
    result.rows = VENDORS
        .iter()
        .map(|spec| SurveyRow {
            vendor: spec.name.to_string(),
            ..SurveyRow::default()
        })
        .collect();
    for (v, i, device) in &tasks {
        let device_seed = derive_seed(seed, VENDORS[*v].name, *i);
        let (report, events) = check_nat(device.behavior.clone(), device_seed, rounds);
        add_row(&mut result.rows[*v], device, &report);
        add_row(&mut result.total, device, &report);
        result.devices += 1;
        result.sim_events += events;
    }
    result
}

/// `check_nat_instrumented`, on a world laid out as `WorldBuilder::build`
/// lays it out: router, servers, NAT, client. Returns the report and the
/// world's event count; everything else goes into `rounds`.
fn check_nat(behavior: NatBehavior, seed: u64, rounds: &mut TracedRounds) -> (NatCheckReport, u64) {
    let TracedRounds {
        timeline,
        harvest,
        tally,
    } = rounds;
    let w = Spied;
    let (wan, lan) = (LinkSpec::wan(), LinkSpec::lan());
    let nat_ip = Ipv4Addr::new(155, 99, 25, 11);
    let (mut sim, [internet, s1, s2, s3, nat, client]) = timeline.build(|| {
        let mut sim = Sim::new(seed);
        let internet = sim.add_node("internet", w.device(Layer::Router, Router::new()));
        let mut servers = Vec::new();
        let mut routes: Vec<(Cidr, usize)> = Vec::new();
        let roles = [
            (S1, ServerRole::One),
            (S2, ServerRole::Two { s3: S3 }),
            (S3, ServerRole::Three),
        ];
        for (i, (ip, role)) in roles.into_iter().enumerate() {
            let host = HostDevice::new(
                ip,
                StackConfig::default(),
                w.app(Layer::Natcheck, CheckServer::new(role)),
            );
            let node = sim.add_node(format!("s{i}"), w.device(Layer::ServerStack, host));
            let (riface, _) = sim.connect(internet, node, wan);
            routes.push((Cidr::host(ip), riface));
            servers.push(node);
        }
        let nat = sim.add_node(
            "nat0",
            w.device(Layer::Nat, NatDevice::new(behavior, vec![nat_ip])),
        );
        let (_, riface) = sim.connect(nat, internet, wan);
        routes.push((Cidr::host(nat_ip), riface));
        let host = HostDevice::new(
            Ipv4Addr::new(10, 0, 0, 1),
            StackConfig::fast(),
            w.app(Layer::Natcheck, NatCheckClient::new(S1, S2, S3)),
        );
        let client = sim.add_node("c0", w.device(Layer::ClientStack, host));
        sim.connect(nat, client, lan);
        let router = Spied::device_mut::<Router>(&mut sim, internet);
        for (cidr, iface) in routes {
            router.add_route(cidr, iface);
        }
        (
            sim,
            [internet, servers[0], servers[1], servers[2], nat, client],
        )
    });

    timeline.run_sim(&mut sim, |sim| {
        sim.run_while(SimTime::from_secs(120), |sim| {
            w.app_of::<NatCheckClient>(sim, client).done()
        })
    });
    let report = w.app_of::<NatCheckClient>(&sim, client).report();
    // Reading 24 320 worlds' spans back is the benchmark's work, not the
    // workload's: keep it off the run clock.
    timeline.exclude(|| {
        harvest.router(&sim, internet);
        for server in [s1, s2, s3] {
            harvest.host::<CheckServer>(&sim, server);
        }
        harvest.nat(&sim, nat);
        harvest.host::<NatCheckClient>(&sim, client);
    });
    crate::rep::add_stats(&mut tally.stats, &sim.stats());
    crate::rep::add_queue(&mut tally.queue, &sim.queue_stats());
    (report, sim.stats().events)
}

/// `punch_natcheck::survey::tally`.
fn add_row(row: &mut SurveyRow, device: &SampledNat, report: &NatCheckReport) {
    if let Some(ok) = report.udp_hole_punching() {
        row.udp.1 += 1;
        row.udp.0 += u32::from(ok);
    }
    if device.in_hairpin_sample {
        if let Some(hp) = report.udp_hairpin {
            row.udp_hairpin.1 += 1;
            row.udp_hairpin.0 += u32::from(hp);
        }
    }
    if device.in_tcp_sample {
        if let Some(ok) = report.tcp_hole_punching() {
            row.tcp.1 += 1;
            row.tcp.0 += u32::from(ok);
        }
        if let Some(hp) = report.tcp_hairpin {
            row.tcp_hairpin.1 += 1;
            row.tcp_hairpin.0 += u32::from(hp);
        }
    }
}
