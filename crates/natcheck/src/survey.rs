//! The §6.2 survey: NAT Check over sampled vendor populations,
//! regenerating Table 1.

use crate::client::{NatCheckClient, NatCheckReport};
use crate::servers::{CheckServer, ServerRole};
use punch_lab::{addrs, par, WorldBuilder};
use punch_nat::{NatBehavior, SampledNat, VendorProfile, VENDORS};
use punch_net::seed::{derive_seed, mix};
use punch_net::{SimStats, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::Ipv4Addr;

/// NAT Check server addresses used by the harness.
pub const S1: Ipv4Addr = Ipv4Addr::new(18, 181, 0, 31);
/// Second server.
pub const S2: Ipv4Addr = Ipv4Addr::new(64, 15, 12, 2);
/// Third server.
pub const S3: Ipv4Addr = Ipv4Addr::new(128, 8, 126, 9);

/// Runs the full NAT Check procedure against one NAT configuration and
/// returns the measured report.
pub fn check_nat(behavior: NatBehavior, seed: u64) -> NatCheckReport {
    check_nat_instrumented(behavior, seed).0
}

/// [`check_nat`], also returning the engine counters of the underlying
/// simulation — the survey aggregates these into its throughput figures.
fn check_nat_instrumented(behavior: NatBehavior, seed: u64) -> (NatCheckReport, SimStats) {
    let mut wb = WorldBuilder::new(seed);
    wb.server(S1, CheckServer::new(ServerRole::One));
    wb.server(S2, CheckServer::new(ServerRole::Two { s3: S3 }));
    wb.server(S3, CheckServer::new(ServerRole::Three));
    let nat = wb.nat(behavior, addrs::NAT_A);
    wb.client(
        addrs::CLIENT_A,
        nat,
        punch_lab::PeerSetup::new(NatCheckClient::new(S1, S2, S3)),
    );
    let mut world = wb.build();
    let client = world.clients[0];
    world.run_until_app::<NatCheckClient>(client, SimTime::from_secs(120), |c| c.done());
    let report = world.app::<NatCheckClient>(client).report();
    (report, world.sim.stats())
}

/// One reproduced Table 1 row: `(compatible, tested)` per column.
#[derive(Clone, Debug, Default)]
pub struct SurveyRow {
    /// Vendor name.
    pub vendor: String,
    /// UDP hole punching.
    pub udp: (u32, u32),
    /// UDP hairpin.
    pub udp_hairpin: (u32, u32),
    /// TCP hole punching.
    pub tcp: (u32, u32),
    /// TCP hairpin.
    pub tcp_hairpin: (u32, u32),
}

impl SurveyRow {
    fn pct(k: u32, n: u32) -> f64 {
        if n == 0 {
            0.0
        } else {
            100.0 * k as f64 / n as f64
        }
    }

    /// Formats the row like the paper's table.
    pub fn format(&self) -> String {
        format!(
            "{:<10} {:>3}/{:<3} ({:>3.0}%)  {:>3}/{:<3} ({:>3.0}%)  {:>3}/{:<3} ({:>3.0}%)  {:>3}/{:<3} ({:>3.0}%)",
            self.vendor,
            self.udp.0,
            self.udp.1,
            Self::pct(self.udp.0, self.udp.1),
            self.udp_hairpin.0,
            self.udp_hairpin.1,
            Self::pct(self.udp_hairpin.0, self.udp_hairpin.1),
            self.tcp.0,
            self.tcp.1,
            Self::pct(self.tcp.0, self.tcp.1),
            self.tcp_hairpin.0,
            self.tcp_hairpin.1,
            Self::pct(self.tcp_hairpin.0, self.tcp_hairpin.1),
        )
    }
}

/// The reproduced Table 1.
#[derive(Clone, Debug, Default)]
pub struct SurveyResult {
    /// Per-vendor rows (in the paper's order), then `(other)`.
    pub rows: Vec<SurveyRow>,
    /// The "All Vendors" totals row.
    pub total: SurveyRow,
    /// Devices measured end-to-end.
    pub devices: u64,
    /// Engine events dispatched, summed over every device simulation
    /// (deterministic per seed).
    pub sim_events: u64,
    /// Wall-clock nanoseconds the engines spent in their run loops,
    /// summed over devices. Under parallel execution this exceeds the
    /// survey's elapsed time (it is CPU time, not latency); not
    /// deterministic.
    pub sim_busy_nanos: u64,
}

impl SurveyResult {
    /// Renders the whole table.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "                 UDP punch      UDP hairpin     TCP punch       TCP hairpin\n",
        );
        for row in &self.rows {
            out.push_str(&row.format());
            out.push('\n');
        }
        out.push_str(&self.total.format());
        out.push('\n');
        out
    }
}

/// Runs NAT Check across every vendor population from Table 1's quotas
/// and measures each sampled device end-to-end.
///
/// `per_device_budget` bounds devices per vendor (use `None` for the
/// paper's full sample sizes; smaller values give a fast smoke survey).
pub fn run_survey(seed: u64, per_vendor_cap: Option<u32>) -> SurveyResult {
    run_survey_mutated(seed, per_vendor_cap, |_, _| {})
}

/// [`run_survey`] with a hook that may mutate each sampled device's
/// behaviour before measurement — the substrate for ablation studies
/// (force payload mangling, hairpin filtering, contention breakage, ...).
///
/// Devices are measured on the [`par`] worker pool. Each device's task
/// is self-contained: its simulation seed and its mutation RNG both
/// derive from `(seed, vendor, index)` via [`derive_seed`], never from
/// a stream shared across devices — so the result is identical for any
/// worker count (see [`run_survey_mutated_with_workers`] and the
/// determinism regression tests).
pub fn run_survey_mutated(
    seed: u64,
    per_vendor_cap: Option<u32>,
    mutate: impl Fn(&mut NatBehavior, &mut StdRng) + Sync,
) -> SurveyResult {
    run_survey_mutated_with_workers(seed, per_vendor_cap, None, mutate)
}

/// Salt folded into a device's seed to decouple its mutation RNG stream
/// from its simulation RNG stream (b"mutate" as an integer).
const MUTATE_SALT: u64 = 0x6d75_7461_7465;

/// [`run_survey_mutated`] with an explicit worker count (`None` = the
/// [`par::jobs`] default). Output is byte-identical across worker
/// counts; the explicit form exists so tests can prove that.
pub fn run_survey_mutated_with_workers(
    seed: u64,
    per_vendor_cap: Option<u32>,
    workers: Option<usize>,
    mutate: impl Fn(&mut NatBehavior, &mut StdRng) + Sync,
) -> SurveyResult {
    // Phase 1 — sequential: sample every vendor population from one RNG
    // stream in vendor order (quota assignment is inherently a
    // whole-population draw, and it is cheap next to measurement).
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tasks: Vec<(usize, u64, SampledNat)> = Vec::new();
    for (v, spec) in VENDORS.iter().enumerate() {
        let population =
            VendorProfile::new(*spec).sample_population_capped(&mut rng, per_vendor_cap);
        for (i, device) in population.into_iter().enumerate() {
            tasks.push((v, i as u64, device));
        }
    }

    // Phase 2 — parallel: run NAT Check end-to-end on every device.
    // Each task derives its own seeds from its identity alone.
    let measure = |_: usize, (v, i, device): &(usize, u64, SampledNat)| {
        let vendor = VENDORS[*v].name;
        let device_seed = derive_seed(seed, vendor, *i);
        let mut behavior = device.behavior.clone();
        let mut mutation_rng = StdRng::seed_from_u64(mix(device_seed ^ MUTATE_SALT));
        mutate(&mut behavior, &mut mutation_rng);
        check_nat_instrumented(behavior, device_seed)
    };
    let reports = match workers {
        Some(w) => par::run_with_workers(&tasks, w, measure),
        None => par::run(&tasks, measure),
    };

    // Phase 3 — sequential: tally in task order, so the table is
    // independent of which worker measured which device.
    let mut result = SurveyResult::default();
    result.total.vendor = "All".into();
    result.rows = VENDORS
        .iter()
        .map(|spec| SurveyRow {
            vendor: spec.name.to_string(),
            ..SurveyRow::default()
        })
        .collect();
    for ((v, _, device), (report, stats)) in tasks.iter().zip(&reports) {
        tally(
            &mut result.rows[*v],
            device.in_hairpin_sample,
            device.in_tcp_sample,
            report,
        );
        tally(
            &mut result.total,
            device.in_hairpin_sample,
            device.in_tcp_sample,
            report,
        );
        result.devices += 1;
        result.sim_events += stats.events;
        result.sim_busy_nanos += stats.busy_nanos;
    }
    result
}

/// Adds one device's measurements to a row, honouring the reporting
/// subsets (hairpin and TCP columns were only collected by later NAT
/// Check versions).
fn tally(row: &mut SurveyRow, in_hairpin: bool, in_tcp: bool, report: &NatCheckReport) {
    if let Some(ok) = report.udp_hole_punching() {
        row.udp.1 += 1;
        row.udp.0 += u32::from(ok);
    }
    if in_hairpin {
        if let Some(hp) = report.udp_hairpin {
            row.udp_hairpin.1 += 1;
            row.udp_hairpin.0 += u32::from(hp);
        }
    }
    if in_tcp {
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
