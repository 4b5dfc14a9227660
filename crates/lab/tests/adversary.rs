//! Off/on defense flips for every adversary leg: with the defense off
//! the attack must visibly bite, with it on the victim must ride
//! through untouched and the defense counters must show it fired.

use punch_lab::{
    run_intro_forgery, run_mapping_flood, run_reg_squat, run_rst_inject, FloodBot, PeerSetup,
    WorldBuilder,
};
use punch_net::{Duration, Endpoint};
use std::net::Ipv4Addr;

const SEED: u64 = 11;

#[test]
fn mapping_flood_kills_sessions_until_quotas_are_on() {
    let off = run_mapping_flood(SEED, false);
    assert!(off.established, "victim pair must punch before the flood");
    assert!(off.disrupted, "undefended flood must kill the session");
    assert!(off.deaths > 0);
    assert_eq!(off.defense_events, 0, "defenses are off");
    assert!(off.recovered, "victim must re-punch once the flood drains");

    let on = run_mapping_flood(SEED, true);
    assert!(on.established);
    assert!(!on.disrupted, "quota + fair eviction must absorb the flood");
    assert_eq!(on.deaths, 0);
    assert!(on.recovered);
    assert!(on.defense_events > 0, "quota must have refused flood ports");
}

#[test]
fn blind_rst_volley_tears_down_tcp_until_validation_is_on() {
    let off = run_rst_inject(SEED, false);
    assert!(off.established, "TCP pair must punch before the volley");
    assert!(off.disrupted, "unvalidated RST must tear the session down");
    assert!(off.deaths > 0);
    assert_eq!(off.defense_events, 0);
    assert!(off.recovered, "victim must reconnect after the teardown");

    let on = run_rst_inject(SEED, true);
    assert!(on.established);
    assert!(!on.disrupted, "sequence validation must drop forged RSTs");
    assert_eq!(on.deaths, 0);
    assert!(on.recovered);
    assert!(on.defense_events > 0, "forged RSTs must be counted rejected");
}

#[test]
fn squat_storm_stalls_registration_until_protection_is_on() {
    let off = run_reg_squat(SEED, false);
    assert!(off.established, "pair must eventually get through");
    assert!(off.disrupted, "squat storm must stall the punch visibly");
    assert_eq!(off.defense_events, 0);

    let on = run_reg_squat(SEED, true);
    assert!(on.established);
    assert!(!on.disrupted, "protect-active + rate limit must keep the punch fast");
    assert!(on.recovered);
    assert!(on.defense_events > 0, "squats must be refused or rate-limited");
}

#[test]
fn forged_introductions_hijack_probes_until_fleet_auth_is_on() {
    let off = run_intro_forgery(SEED, false);
    assert!(off.established);
    assert!(off.disrupted, "forged SrvIntroduce must steer probes at the attacker");
    assert!(!off.recovered, "undefended victim leaks probes to the attacker");
    assert_eq!(off.defense_events, 0);

    let on = run_intro_forgery(SEED, true);
    assert!(on.established);
    assert!(!on.disrupted, "unauthenticated fleet frames must be dropped");
    assert!(on.recovered, "no probe may reach the attacker");
    assert!(on.defense_events > 0, "forgery must be counted auth_rejected");
}

/// A caller-supplied schedule can ask for more ports than lie between
/// the bot's first (30 000) and `u16::MAX`: the bot opens the 35 535 it
/// can reach — one datagram each — and no more, instead of overflowing
/// its port counter (a debug panic, a wrap to `udp_bind(0)` in release).
#[test]
fn flood_schedule_past_the_last_port_stops_opening_ports() {
    let nowhere = Endpoint::new(Ipv4Addr::new(203, 0, 113, 1), 9);
    let schedule = vec![
        (Duration::from_millis(10), 20_000),
        (Duration::from_millis(20), 20_000),
        (Duration::from_millis(30), 5),
    ];
    let mut wb = WorldBuilder::new(SEED);
    wb.public_client(
        Ipv4Addr::new(99, 9, 9, 9),
        PeerSetup::new(FloodBot::new(nowhere, schedule)),
    );
    let mut world = wb.build();
    world.sim.run_for(Duration::from_secs(1));
    assert_eq!(world.sim.stats().packets_sent, u64::from(u16::MAX - 30_000));
}
