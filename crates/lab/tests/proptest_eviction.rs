//! Protect-active eviction under a squatting storm (satellite of the
//! adversary suite).
//!
//! `server_eviction.rs` shows a *slow* one-shot storm cannot evict a
//! client that keeps re-registering, because each refresh restamps it.
//! The remaining hole: a *burst* of squats between two refreshes all
//! carry fresher stamps than the client, so seq-only eviction still
//! picks it. [`ServerConfig::protect_active`] closes that hole with a
//! wall-clock window; the property here is that no squat schedule at
//! all — any ids, any timing — can evict a client that keeps refreshing
//! within the window. A refresh re-registers an evicted client, so
//! survival means holding the slot at every event, not at the end.

use proptest::prelude::*;
use punch_lab::{PeerSetup, WorldBuilder};
use punch_net::{Endpoint, Sim, SimTime};
use punch_rendezvous::{Message, PeerId, RendezvousServer, ServerConfig};
use punch_transport::{App, HostDevice, Os, SockEvent, SocketId};
use std::net::Ipv4Addr;
use std::time::Duration;

const SERVER_IP: Ipv4Addr = Ipv4Addr::new(18, 181, 0, 31);
const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(99, 1, 1, 1);
const SQUAT_IP: Ipv4Addr = Ipv4Addr::new(99, 1, 1, 2);

/// The id space of squat schedules; the protected client lives outside.
const CLIENT_ID: u64 = 1_000_000;

/// Registers, then keeps its slot alive by re-registering every
/// `interval`, as a live `UdpPeer` does (§3.6).
struct Refresher {
    id: u64,
    interval: Duration,
    refreshes: u32,
    sent: u32,
    sock: Option<SocketId>,
}

impl Refresher {
    fn register(&self, os: &mut Os<'_, '_>) {
        let sock = self.sock.expect("bound in on_start");
        let private = os.local_endpoint(sock).expect("socket bound");
        let msg = Message::Register {
            peer_id: PeerId(self.id),
            private,
        };
        let _ = os.udp_send(sock, Endpoint::new(SERVER_IP, 1234), msg.encode(false));
    }
}

impl App for Refresher {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        self.sock = Some(os.udp_bind(4001).expect("local UDP port free"));
        self.register(os);
        os.set_timer(self.interval, 1);
    }

    fn on_event(&mut self, _os: &mut Os<'_, '_>, _ev: SockEvent) {}

    fn on_timer(&mut self, os: &mut Os<'_, '_>, _token: u64) {
        if self.sent >= self.refreshes {
            return;
        }
        self.sent += 1;
        self.register(os);
        os.set_timer(self.interval, 1);
    }
}

/// Fires one-shot registrations at scripted instants (bursts allowed:
/// entries may share a timestamp).
struct TimedSquat {
    /// `(at, peer id)`, sorted by `at` in `on_start`.
    schedule: Vec<(Duration, u64)>,
    next: usize,
    sock: Option<SocketId>,
}

impl TimedSquat {
    fn arm_next(&self, os: &mut Os<'_, '_>) {
        if let Some(&(at, _)) = self.schedule.get(self.next) {
            let delta = at.saturating_sub(os.now().saturating_since(punch_net::SimTime::ZERO));
            os.set_timer(delta, 1);
        }
    }
}

impl App for TimedSquat {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        self.schedule.sort();
        self.sock = Some(os.udp_bind(4000).expect("local UDP port free"));
        self.arm_next(os);
    }

    fn on_event(&mut self, _os: &mut Os<'_, '_>, _ev: SockEvent) {}

    fn on_timer(&mut self, os: &mut Os<'_, '_>, _token: u64) {
        let sock = self.sock.expect("bound in on_start");
        let private = os.local_endpoint(sock).expect("socket bound");
        let server = Endpoint::new(SERVER_IP, 1234);
        let elapsed = os.now().saturating_since(punch_net::SimTime::ZERO);
        while let Some(&(at, id)) = self.schedule.get(self.next) {
            if at > elapsed {
                break;
            }
            self.next += 1;
            let msg = Message::Register {
                peer_id: PeerId(id),
                private,
            };
            let _ = os.udp_send(sock, server, msg.encode(false));
        }
        self.arm_next(os);
    }
}

/// Runs a world with one refreshing client and one squat schedule;
/// returns whether the client kept its slot from its first registration
/// on (the run stops at the event that takes it), plus the server's
/// counters.
fn run_storm(
    seed: u64,
    cap: usize,
    refresh: Duration,
    protect: Option<Duration>,
    schedule: Vec<(Duration, u64)>,
) -> (bool, punch_rendezvous::ServerStats) {
    let horizon = schedule
        .iter()
        .map(|&(at, _)| at)
        .max()
        .unwrap_or(Duration::ZERO);
    // Refresh past the end of the storm so the client is "refreshing
    // within its keepalive interval" for the storm's whole lifetime.
    let refreshes = (horizon.as_millis() / refresh.as_millis().max(1) + 5) as u32;
    let mut cfg = ServerConfig::default().with_max_clients(cap);
    cfg.protect_active = protect;
    let mut wb = WorldBuilder::new(seed);
    let s = wb.server(SERVER_IP, RendezvousServer::new(cfg));
    wb.public_client(
        CLIENT_IP,
        PeerSetup::new(Refresher {
            id: CLIENT_ID,
            interval: refresh,
            refreshes,
            sent: 0,
            sock: None,
        }),
    );
    wb.public_client(
        SQUAT_IP,
        PeerSetup::new(TimedSquat {
            schedule,
            next: 0,
            sock: None,
        }),
    );
    let mut world = wb.build();
    let node = world.servers[s];
    let holds = |sim: &Sim| {
        let server = sim.device::<HostDevice>(node).app::<RendezvousServer>();
        server.udp_registration(PeerId(CLIENT_ID)).is_some()
    };
    let mut held = false;
    let lost = world.sim.run_while(SimTime::MAX, |sim| {
        let holds = holds(sim);
        std::mem::replace(&mut held, holds) && !holds
    });
    (!lost, world.app::<RendezvousServer>(node).stats())
}

/// The pinned "attack succeeds when the defense is off" baseline: a
/// burst of `cap` squats lands between two refreshes; every burst stamp
/// is fresher than the client's last refresh, so seq-only eviction picks
/// the client. The identical schedule with protect-active on refuses the
/// overflowing squat instead.
#[test]
fn burst_storm_between_refreshes_evicts_only_without_protection() {
    let burst: Vec<(Duration, u64)> = (0..3)
        .map(|i| (Duration::from_millis(510), 10 + i))
        .collect();
    let refresh = Duration::from_millis(200);

    let (alive, stats) = run_storm(7, 3, refresh, None, burst.clone());
    assert!(!alive, "seq-only eviction must lose the client to the burst");
    assert!(stats.evictions >= 1);
    assert_eq!(stats.reg_refused, 0, "no defense engaged");

    let window = Duration::from_millis(350);
    let (alive, stats) = run_storm(7, 3, refresh, Some(window), burst);
    assert!(alive, "protect-active must keep the refreshing client");
    assert!(
        stats.reg_refused >= 1,
        "the overflowing squat is refused, not the client evicted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No squat schedule evicts a client that refreshes within the
    /// protect-active window — bursts, repeats, and slow drips alike.
    #[test]
    fn refreshed_client_survives_any_squat_storm(
        seed in 0u64..1_000,
        cap in 2usize..5,
        refresh_ms in 60u64..250,
        storm in proptest::collection::vec((10u64..2_000, 1u64..200), 5..40),
    ) {
        let refresh = Duration::from_millis(refresh_ms);
        // The client's staleness at the server never exceeds one refresh
        // interval plus delivery jitter; 2× interval + margin covers it.
        let window = refresh * 2 + Duration::from_millis(100);
        let schedule: Vec<(Duration, u64)> = storm
            .into_iter()
            .map(|(at, id)| (Duration::from_millis(at), id))
            .collect();
        let (alive, _) = run_storm(seed, cap, refresh, Some(window), schedule);
        prop_assert!(alive, "squat storm evicted a protected-active client");
    }
}
