//! Determinism under parallelism: the survey's claim is that per-task
//! seeding — not execution order — carries all the randomness, so the
//! worker count must never show up in the output. These tests are the
//! regression fence for `punch_lab::par` + the survey refactor.

use holepunch::{PeerId, UdpPeer, UdpPeerConfig};
use proptest::prelude::*;
use punch_lab::{fig5, par, PeerSetup, Scenario};
use punch_nat::{NatBehavior, VENDORS};
use punch_natcheck::run_survey_mutated_with_workers;
use punch_net::seed::derive_seed;
use punch_net::{Duration, FaultPlan, LinkAction, LinkSpec, MetricsSnapshot, SimTime};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashSet;

/// A mutation that actually consumes RNG draws, so the test also proves
/// the per-device mutation streams are independent of scheduling.
fn jitter_timeouts(
    b: &mut punch_nat::NatBehavior,
    rng: &mut rand::rngs::StdRng,
) {
    let extra: u64 = rng.gen_range(0..30);
    b.udp_timeout += std::time::Duration::from_secs(extra);
}

#[test]
fn survey_is_byte_identical_for_1_2_and_8_workers() {
    let table: Vec<String> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            run_survey_mutated_with_workers(2005, Some(2), Some(w), jitter_timeouts).format()
        })
        .collect();
    assert_eq!(table[0], table[1], "1 vs 2 workers");
    assert_eq!(table[0], table[2], "1 vs 8 workers");
    assert!(table[0].contains("Linksys"));
}

#[test]
fn survey_is_identical_across_repeated_runs_on_the_pool() {
    let run = || run_survey_mutated_with_workers(7, Some(2), None, jitter_timeouts).format();
    assert_eq!(run(), run());
}

/// A chaos-hardened peer so the fault plan exercises the full recovery
/// machinery (liveness timers, re-punch backoff, re-registration).
fn resilient_peer(id: u64) -> PeerSetup {
    let cfg = UdpPeerConfig::resilient(PeerId(id), Scenario::server_endpoint());
    PeerSetup::new(UdpPeer::new(cfg))
}

/// Builds a Figure-5 world, derives a random `FaultPlan` entirely from
/// `seed` (link outages, loss/dup/reorder degradation, NAT and server
/// restarts), runs a punch attempt through the carnage, and fingerprints
/// the run: the engine's deterministic counters plus both peers' event
/// streams and punch latencies. The fingerprint must depend only on `seed`.
fn faulted_run_fingerprint(seed: u64) -> String {
    faulted_run(seed, false).0
}

/// [`faulted_run_fingerprint`] with optional metrics collection; returns
/// the fingerprint plus the run's metrics snapshot (empty when metrics
/// are off). Enabling metrics must never change the fingerprint.
fn faulted_run(seed: u64, metrics: bool) -> (String, MetricsSnapshot) {
    let mut sc = fig5(
        seed,
        NatBehavior::well_behaved(),
        NatBehavior::well_behaved(),
        resilient_peer(1),
        resilient_peer(2),
    );
    if metrics {
        sc.world.sim.enable_metrics();
    }

    let links = [
        sc.world.uplink(sc.server),
        sc.world.uplink(sc.world.nats[0]),
        sc.world.uplink(sc.world.nats[1]),
        sc.world.uplink(sc.a),
        sc.world.uplink(sc.b),
    ];
    let nodes = [sc.server, sc.world.nats[0], sc.world.nats[1]];

    // The plan's own RNG stream is derived from the master seed, so the
    // plan shape varies per task but never per run.
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, "fault-plan", 0));
    let mut plan = FaultPlan::new();
    for _ in 0..rng.gen_range(2..6) {
        let at = SimTime::from_millis(rng.gen_range(2_500..10_000));
        let link = links[rng.gen_range(0..links.len())];
        match rng.gen_range(0..4u32) {
            0 => {
                let dur = Duration::from_millis(rng.gen_range(200..2_500));
                plan = plan.outage(at, dur, link);
            }
            1 => {
                let spec = LinkSpec {
                    duplicate: 0.2,
                    reorder: 0.2,
                    ..LinkSpec::wan().with_loss(0.3)
                };
                sc.world.sim.schedule_link_fault(at, link, LinkAction::Set(spec));
            }
            2 => {
                let node = nodes[rng.gen_range(0..nodes.len())];
                plan = plan.restart(at, node);
            }
            _ => {
                let dur = Duration::from_millis(rng.gen_range(300..2_000));
                plan = plan.outage(at, dur, link);
            }
        }
    }
    sc.world.apply_faults(&plan);

    sc.world.sim.run_for(Duration::from_secs(2));
    sc.world.with_app::<UdpPeer, _>(sc.a, |p, os| p.connect(os, PeerId(2)));
    sc.world.sim.run_for(Duration::from_secs(14));

    let mut stats = sc.world.sim.stats();
    stats.busy_nanos = 0; // host time, which `Debug` would print
    let mut fp = format!("{stats:?}\n");
    for (node, peer) in [(sc.a, PeerId(2)), (sc.b, PeerId(1))] {
        let (evs, latency) = sc
            .world
            .with_app::<UdpPeer, _>(node, |p, _| (p.take_events(), p.punch_latency(peer)));
        fp.push_str(&format!("{evs:?}\n{latency:?}\n"));
    }
    let snap = sc.world.sim.metrics_snapshot();
    (fp, snap)
}

#[test]
fn faulted_runs_are_identical_across_worker_counts() {
    let seeds: Vec<u64> = (0..6).collect();
    let runs: Vec<Vec<String>> = [1usize, 2, 8]
        .iter()
        .map(|&w| par::run_with_workers(&seeds, w, |_, &s| faulted_run_fingerprint(s)))
        .collect();
    assert_eq!(runs[0], runs[1], "1 vs 2 workers");
    assert_eq!(runs[0], runs[2], "1 vs 8 workers");
    // Different seeds must produce different carnage, or the comparison
    // above proves nothing.
    assert_ne!(runs[0][0], runs[0][1]);
}

#[test]
fn metrics_collection_never_changes_the_simulation() {
    for seed in [0u64, 3, 11] {
        let (plain, empty) = faulted_run(seed, false);
        let (observed, snap) = faulted_run(seed, true);
        assert_eq!(
            plain, observed,
            "enabling metrics perturbed the run at seed {seed}"
        );
        assert_eq!(empty, MetricsSnapshot::default(), "metrics recorded while disabled");
        assert_ne!(snap, MetricsSnapshot::default(), "metrics missing while enabled");
    }
}

#[test]
fn merged_metrics_exports_identical_across_worker_counts() {
    let seeds: Vec<u64> = (0..6).collect();
    let run = |w: usize| par::run_merge_metrics_with_workers(&seeds, w, |_, &s| faulted_run(s, true));
    let (fps1, merged1) = run(1);
    for w in [2usize, 8] {
        let (fps, merged) = run(w);
        assert_eq!(fps, fps1, "fingerprints differ at {w} workers");
        assert_eq!(merged, merged1, "merged snapshot differs at {w} workers");
        assert_eq!(
            merged.to_json(),
            merged1.to_json(),
            "JSON export differs at {w} workers"
        );
    }
    // Same-seed rerun on the same pool: byte-identical export.
    let (_, merged_again) = run(1);
    assert_eq!(merged1.to_json(), merged_again.to_json());
    assert_ne!(merged1, MetricsSnapshot::default());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any seeded `FaultPlan` replays byte-identically: same seed, same
    /// engine counters, peer events and latencies, run after run.
    #[test]
    fn fault_plans_replay_byte_identically(seed in any::<u64>()) {
        prop_assert_eq!(faulted_run_fingerprint(seed), faulted_run_fingerprint(seed));
    }

    /// Metrics snapshots (and their JSON export) replay byte-identically
    /// for the same seed, and collecting them never perturbs the engine
    /// counters or the peers' event streams.
    #[test]
    fn metrics_snapshots_replay_byte_identically(seed in any::<u64>()) {
        let (fp_a, snap_a) = faulted_run(seed, true);
        let (fp_b, snap_b) = faulted_run(seed, true);
        prop_assert_eq!(&fp_a, &fp_b);
        prop_assert_eq!(&snap_a, &snap_b);
        prop_assert_eq!(snap_a.to_json(), snap_b.to_json());
        let (fp_plain, _) = faulted_run(seed, false);
        prop_assert_eq!(fp_plain, fp_b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-device seeds never collide across vendors and indices: every
    /// device in the full 380-point survey gets a distinct simulation
    /// seed and a distinct mutation seed, for any master seed.
    #[test]
    fn per_device_seeds_never_collide(master in any::<u64>()) {
        let mut seen = HashSet::new();
        for spec in VENDORS {
            for i in 0..spec.udp.1 as u64 {
                let device_seed = derive_seed(master, spec.name, i);
                prop_assert!(
                    seen.insert(device_seed),
                    "collision at {} #{i}", spec.name
                );
            }
        }
        prop_assert_eq!(seen.len() as u32, VENDORS.iter().map(|v| v.udp.1).sum::<u32>());
    }
}
