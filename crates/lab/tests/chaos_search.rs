//! Chaos-search harness acceptance: the resilient profile survives
//! sampled schedules, schedules replay deterministically, and an
//! injected liveness bug is caught and shrunk to a minimal plan.

use punch_lab::chaos::{
    generate_adversarial_faults, generate_faults, run_schedule, run_trial, shrink, ChaosFault,
    ChaosLink, ChaosPlan, ChaosProfile, SCRIPTED,
};

#[test]
fn sampled_schedules_are_deterministic() {
    for seed in [1u64, 7, 42, 1000] {
        assert_eq!(generate_faults(seed, 5), generate_faults(seed, 5));
        assert!(!generate_faults(seed, 5).is_empty());
        assert!(generate_faults(seed, 5).len() <= 5);
    }
    // Different seeds explore different schedules.
    assert_ne!(generate_faults(1, 5), generate_faults(2, 5));
}

#[test]
fn resilient_profile_survives_sampled_schedules() {
    for seed in 1..=6u64 {
        let report = run_schedule(seed, ChaosProfile::Resilient, 5);
        assert!(
            report.violation.is_none(),
            "seed {seed} violated: {:?}",
            report.violation.map(|v| v.verdict)
        );
    }
}

/// Regression: these schedules (found by the search itself) once left
/// the resilient profile in a mutual zombie — A flapping
/// died/re-established against B's stale public endpoint forever after
/// a NAT-A reboot, because re-punches reused the old cycle's nonce and
/// the peer never re-locked its remote. Must stay green.
#[test]
fn nat_reboot_under_rapid_sends_recovers() {
    for (seed, faults) in [
        (53, vec![ChaosFault::RebootNatA { at_ms: 10_460 }]),
        (
            74,
            vec![
                ChaosFault::RebootNatA { at_ms: 11_665 },
                ChaosFault::RebootNatB { at_ms: 7_732 },
            ],
        ),
    ] {
        let outcome = run_trial(seed, &faults, ChaosProfile::Resilient);
        assert_eq!(outcome.violation, None, "seed {seed} regressed");
    }
}

/// A server restart while registrations and punches are in flight (the
/// single-session slice of a flash crowd hitting a restarting fleet
/// member) must not strand the session: clients re-register and the
/// punch completes. Paired with the fleet-scale case in
/// `fleet_identity::server_restart_during_flash_crowd_recovers`.
#[test]
fn server_restart_mid_punch_recovers() {
    for (seed, at_ms) in [(5u64, 150), (21, 900), (33, 2_500)] {
        let outcome = run_trial(
            seed,
            &[ChaosFault::RestartServer { at_ms }],
            ChaosProfile::Resilient,
        );
        assert_eq!(
            outcome.violation, None,
            "seed {seed}, restart at {at_ms} ms stranded the session"
        );
    }
}

/// Faults that strike while the candidate race itself is still in
/// flight (the schedule goes live at t0 = the moment A starts
/// punching). The racing profile adds a window-around-observed
/// prediction source, so the set being raced has real predicted
/// candidates in it, and the fault lands between the first volley and
/// lock-in — the session must still settle or terminally fail, never
/// hang.
#[test]
fn faults_striking_mid_race_never_strand_the_session() {
    let cases: &[(u64, Vec<ChaosFault>)] = &[
        // The server vanishes right as the introductions go out.
        (11, vec![ChaosFault::RestartServer { at_ms: 30 }]),
        // B's NAT reboots mid-volley: every candidate A is racing
        // (public, predicted window) dies at once.
        (12, vec![ChaosFault::RebootNatB { at_ms: 60 }]),
        // A's access link goes dark for a second spanning the race.
        (
            13,
            vec![ChaosFault::Outage {
                link: ChaosLink::ClientAAccess,
                at_ms: 20,
                dur_ms: 1_000,
            }],
        ),
        // Heavy loss on the server uplink while candidates are still
        // being announced.
        (
            14,
            vec![ChaosFault::Lossy {
                link: ChaosLink::ServerUplink,
                at_ms: 0,
                dur_ms: 2_000,
                loss_pct: 50,
            }],
        ),
    ];
    for (seed, faults) in cases {
        for profile in [ChaosProfile::Resilient, ChaosProfile::Racing] {
            let outcome = run_trial(*seed, faults, profile);
            assert_eq!(
                outcome.violation, None,
                "seed {seed}, {profile:?}: mid-race fault stranded the session"
            );
        }
    }
}

/// Mid-race chaos trials replay byte-identically: same verdict, same
/// simulator counters, same metrics — the racing engine introduces no
/// nondeterminism under faults.
#[test]
fn mid_race_trials_replay_deterministically() {
    let faults = vec![ChaosFault::RebootNatB { at_ms: 60 }];
    let a = run_trial(12, &faults, ChaosProfile::Racing);
    let b = run_trial(12, &faults, ChaosProfile::Racing);
    assert_eq!(a.violation, b.violation);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.end, b.end);
    assert_eq!(a.metrics_json, b.metrics_json);
}

#[test]
fn injected_liveness_bug_is_caught_shrunk_and_replayable() {
    // A schedule with two benign decoys around the killer fault: a NAT
    // reboot long after the session established. The fragile profile
    // (liveness detection disabled) leaves a zombie session.
    let faults = vec![
        ChaosFault::Lossy {
            link: ChaosLink::ServerUplink,
            at_ms: 1_000,
            dur_ms: 1_000,
            loss_pct: 20,
        },
        ChaosFault::RebootNatA { at_ms: 10_000 },
        ChaosFault::Corrupt {
            link: ChaosLink::ClientBAccess,
            at_ms: 12_000,
            dur_ms: 1_000,
            prob_pct: 10,
        },
    ];
    let seed = 99;

    // The hardened profile recovers from the very same schedule.
    assert_eq!(run_trial(seed, &faults, ChaosProfile::Resilient).violation, None);

    // The fragile profile gets stuck and the verdict says so.
    let broken = run_trial(seed, &faults, ChaosProfile::Fragile);
    let verdict = broken.violation.expect("fragile profile must violate liveness");
    assert!(verdict.contains("liveness violation"), "verdict: {verdict}");

    // Shrinking strips the decoys down to the lone killer fault.
    let minimized = shrink(seed, &faults, ChaosProfile::Fragile);
    assert_eq!(minimized, vec![ChaosFault::RebootNatA { at_ms: 10_000 }]);

    // The minimized plan replays byte-identically: same verdict, same
    // simulator counters, same clock, same metrics snapshot.
    let plan = ChaosPlan {
        seed,
        faults: minimized,
    };
    let r1 = run_trial(plan.seed, &plan.faults, ChaosProfile::Fragile);
    let r2 = run_trial(plan.seed, &plan.faults, ChaosProfile::Fragile);
    assert!(r1.violation.is_some());
    assert_eq!(r1.violation, r2.violation);
    assert_eq!(r1.stats, r2.stats);
    assert_eq!(r1.end, r2.end);
    assert_eq!(r1.metrics_json, r2.metrics_json);

    // And the plan serializes with the seed and the surviving fault.
    let json = plan.to_json();
    assert!(json.contains("\"seed\": 99"), "json: {json}");
    assert!(json.contains("{\"kind\": \"reboot_nat_a\", \"at_ms\": 10000}"), "json: {json}");
}

/// FNV-1a, 64-bit.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Both samplers' draw order and every kind's JSON shape, pinned over
/// 256 seeds each: a moved `gen_range`, a renamed field or a reordered
/// record key changes the hash.
#[test]
fn sampled_plans_serialize_to_pinned_bytes() {
    let hash = |sample: fn(u64, usize) -> Vec<ChaosFault>| {
        (0..256u64).fold(FNV_SEED, |h, seed| {
            let plan = ChaosPlan {
                seed,
                faults: sample(seed, 6),
            };
            fnv(h, plan.to_json().as_bytes())
        })
    };
    assert_eq!(hash(generate_faults), 0x608f_7249_1caa_b624, "classic sampler");
    assert_eq!(
        hash(generate_adversarial_faults),
        0x13e4_df4b_ffd9_7050,
        "adversarial sampler"
    );
}

/// Hand-written schedules that together contain all ten sampled kinds
/// (EC's `HealNatA` is covered below), run
/// end to end: pins what each kind does to the fault plan and to the
/// attacker bots' scripts (same-instant bursts included, so the bots'
/// sort keys count).
#[test]
fn every_fault_kind_keeps_its_trial_outcome() {
    use ChaosLink::*;
    let link_faults = vec![
        ChaosFault::Outage { link: NatAUplink, at_ms: 300, dur_ms: 1_500 },
        ChaosFault::Lossy { link: ServerUplink, at_ms: 0, dur_ms: 4_000, loss_pct: 40 },
        ChaosFault::Corrupt { link: ClientBAccess, at_ms: 2_000, dur_ms: 3_000, prob_pct: 35 },
        ChaosFault::Truncate { link: NatBUplink, at_ms: 2_500, dur_ms: 3_000, prob_pct: 30 },
        ChaosFault::Truncate { link: ClientAAccess, at_ms: 6_000, dur_ms: 500, prob_pct: 25 },
    ];
    let device_faults = vec![
        ChaosFault::RebootNatA { at_ms: 4_000 },
        ChaosFault::RestartServer { at_ms: 4_100 },
        ChaosFault::RebootNatB { at_ms: 9_000 },
    ];
    let attacks = vec![
        ChaosFault::IntroFlood { at_ms: 700, count: 16 },
        ChaosFault::SquatStorm { at_ms: 700, count: 48 },
        ChaosFault::MappingFlood { at_ms: 1_200, ports: 80 },
        ChaosFault::MappingFlood { at_ms: 1_200, ports: 40 },
        ChaosFault::SquatStorm { at_ms: 100, count: 30 },
        ChaosFault::Corrupt { link: ServerUplink, at_ms: 900, dur_ms: 2_000, prob_pct: 20 },
        ChaosFault::RebootNatA { at_ms: 5_000 },
    ];
    let everything: Vec<ChaosFault> =
        [&link_faults[..], &device_faults[..], &attacks[..]].concat();
    let cases: [(&str, u64, &[ChaosFault], ChaosProfile, u64); 5] = [
        ("link faults", 201, &link_faults, ChaosProfile::Resilient, 0x77aa_0e49_51cf_a7b1),
        ("device faults", 202, &device_faults, ChaosProfile::Racing, 0x9f89_2e31_d22b_d630),
        ("attacks", 203, &attacks, ChaosProfile::Adversarial, 0x3b4f_7e43_a310_c07a),
        ("all ten kinds", 204, &everything, ChaosProfile::Adversarial, 0x4bba_b2d8_61ec_4328),
        ("all ten kinds, no bots", 205, &everything, ChaosProfile::Resilient, 0x99d7_27c3_93ec_03ac),
    ];
    for (name, seed, faults, profile, pinned) in cases {
        let out = run_trial(seed, faults, profile);
        assert_eq!(out.violation, None, "{name}");
        let s = out.stats;
        let mut h = FNV_SEED;
        for n in [
            s.events,
            s.packets_sent,
            s.packets_delivered,
            s.packets_lost,
            s.device_drops,
            s.link_down_drops,
            s.packets_duplicated,
            s.packets_reordered,
            s.packets_corrupted,
            s.packets_truncated,
            s.faults_injected,
            out.end.as_nanos(),
        ] {
            h = fnv(h, &n.to_le_bytes());
        }
        assert_eq!(fnv(h, out.metrics_json.as_bytes()), pinned, "{name}");
    }
}

/// The attacker world with no attack in its schedule is Figure 5 with
/// two idle bots: a classic schedule runs there exactly as on the plain
/// pair — same verdict, clock, metrics and engine counters — but for
/// the bots' two start events. So shrinking an attack away never
/// changes what the rest of a schedule does.
#[test]
fn an_idle_attacker_world_is_invisible() {
    for seed in 0..8u64 {
        let faults = generate_faults(seed, 5);
        let plain = run_trial(seed, &faults, ChaosProfile::Resilient);
        let attacked = run_trial(seed, &faults, ChaosProfile::Adversarial);
        assert_eq!(attacked.violation, plain.violation, "seed {seed}");
        assert_eq!(attacked.end, plain.end, "seed {seed}");
        assert_eq!(attacked.metrics_json, plain.metrics_json, "seed {seed}");
        let mut stats = attacked.stats;
        assert_eq!(stats.events, plain.stats.events + 2, "seed {seed}");
        stats.events = plain.stats.events;
        assert_eq!(stats, plain.stats, "seed {seed}");
    }
}

/// The relay-upgrade flip EC runs is a plan-JSON kind of its own, so a
/// schedule holding it replays from its JSON like any other. (That each
/// of EC's schedules recovers is `punch-bench chaos`'s gate.)
#[test]
fn the_relay_upgrade_flip_is_a_plan_json_kind() {
    let (_, _, faults) = SCRIPTED[3];
    let plan = ChaosPlan { seed: 3, faults: faults.to_vec() };
    assert!(plan.to_json().contains(r#"{"kind": "heal_nat_a", "at_ms": 0}"#), "{}", plan.to_json());
}
