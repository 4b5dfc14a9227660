//! Sharded million-endpoint worlds.
//!
//! A [`ShardedWorld`] partitions a large population of hole-punching
//! sessions (each one a Figure-5 topology: two clients behind two NATs,
//! plus a rendezvous server) across many independent per-shard [`Sim`]s,
//! so the population can be advanced by a worker pool while keeping the
//! determinism contract the rest of the repo is built on:
//!
//! - **Layout invariance.** Every shard sim is created with the *same*
//!   seed and [`Sim::use_named_rng_streams`], and every node carries a
//!   globally unique name (`m17.a`, `m17.na`, ...). A node's randomness
//!   therefore depends only on `(seed, name)` — not on which shard it
//!   landed in — and per-session outcomes are byte-identical whether the
//!   world runs as 1 shard or 64.
//! - **Worker invariance.** Shards only interact at epoch boundaries:
//!   each epoch runs every shard to the same sim-time deadline in
//!   parallel (the [`crate::par`] pool), then polls outcomes and releases
//!   connect waves *sequentially in shard order*. No result ever depends
//!   on which worker advanced which shard, so `PUNCH_JOBS=1` and
//!   `PUNCH_JOBS=16` produce identical reports.
//!
//! Cross-session coupling inside a shard is limited to the shared
//! rendezvous server, which reacts to each datagram independently and at
//! the instant it arrives; all links are jitter-free, so arrival times
//! never depend on unrelated traffic. That is what makes the per-session
//! outcome stream independent of the shard layout.
//!
//! What this module owns is the population: which session lands in which
//! shard, the node names, addresses and link profiles, the clients'
//! configs, the epoch loop and the merged reports. How a server, a NAT
//! or a client behind it is wired is `crate::world::Backbone`'s; `build`
//! calls it per shard as server(s), then per session `m{i}.na`, `m{i}.a`,
//! `m{i}.nb`, `m{i}.b`.

use crate::par;
use crate::world::{addrs, with_host_app, Backbone};
use holepunch::{
    CandidatePlan, CandidateSource, PeerId, PredictionStrategy, UdpPeer, UdpPeerConfig,
};
use punch_nat::NatBehavior;
use punch_net::{
    Duration, Endpoint, FaultPlan, LinkSpec, MetricsSnapshot, NodeId, QueueStats, Sim, SimStats,
    SimTime,
};
use punch_rendezvous::{RendezvousServer, ServerConfig, ServerStats};
use punch_transport::{HostDevice, StackConfig};
use std::net::Ipv4Addr;
use std::sync::Mutex;

/// Configuration for a [`ShardedWorld`].
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Master seed; shared by every shard (names disambiguate streams).
    pub seed: u64,
    /// Total number of punch sessions (2 clients + 2 NATs each).
    pub sessions: usize,
    /// Number of per-shard sims. Session `i` lands in shard `i % shards`.
    pub shards: usize,
    /// Sim-time length of one epoch (the cross-shard synchronization
    /// quantum: outcome polling and wave release happen on this grid).
    pub epoch: Duration,
    /// Sim time at which the first connect wave is released (clients
    /// need to have registered with their shard's server by then).
    pub connect_at: Duration,
    /// Give-up horizon (sim time past `connect_at`); sessions still
    /// unresolved at the deadline stay [`SessionOutcome::Pending`].
    pub deadline: Duration,
    /// Number of connect waves. Wave `w+1` is released once 90% of the
    /// already-released sessions have resolved — a deterministic
    /// cross-shard feedback loop evaluated at epoch boundaries.
    pub waves: usize,
    /// Every `symmetric_every`-th session runs both NATs as symmetric
    /// (harder to punch); 0 disables.
    pub symmetric_every: usize,
    /// Enable the per-shard metrics registries (merged on demand).
    pub metrics: bool,
    /// Worker-pool size override; `None` uses [`par::jobs`] (the
    /// `PUNCH_JOBS` environment variable, then detected parallelism).
    pub workers: Option<usize>,
    /// Rendezvous fleet size *n* (servers per shard sim). `1` (the
    /// default) builds the classic single-server world, byte for byte;
    /// larger fleets register every client with its `replication` ring
    /// owners and route introductions across shards server-to-server.
    pub servers: usize,
    /// k of [`ShardConfig::servers`]: how many ring owners each client
    /// registers with. Ignored when `servers == 1`.
    pub replication: usize,
    /// Restart fleet member `j` (losing its tables) at the given sim
    /// time, in every shard sim — the flash-crowd survival fault.
    pub server_restart: Option<(usize, Duration)>,
    /// Harden the clients ([`holepunch::PunchConfig::resilient`], 2 s
    /// server keepalives) so they detect a lost owner and re-register
    /// instead of idling until the default 15 s keepalive.
    pub resilient_clients: bool,
    /// Give the symmetric sessions a sequential-delta prediction source
    /// in their candidate plan, so those pairs race a predicted-port
    /// window instead of falling straight back to the relay. Off by
    /// default: the classic world is byte-for-byte unchanged.
    pub predict_symmetric: bool,
}

impl ShardConfig {
    /// A config with the defaults used by the million-endpoint bench.
    pub fn new(seed: u64, sessions: usize) -> Self {
        ShardConfig {
            seed,
            sessions,
            shards: 8,
            epoch: Duration::from_millis(250),
            connect_at: Duration::from_secs(2),
            deadline: Duration::from_secs(60),
            waves: 1,
            symmetric_every: 10,
            metrics: false,
            workers: None,
            servers: 1,
            replication: 2,
            server_restart: None,
            resilient_clients: false,
            predict_symmetric: false,
        }
    }
}

/// How one session ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionOutcome {
    /// Not yet resolved (or never released before the deadline).
    Pending,
    /// Direct (hole-punched) connectivity.
    Direct,
    /// Fell back to relaying through the shard's server.
    Relay,
    /// No connectivity at all.
    Failed,
}

impl SessionOutcome {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SessionOutcome::Pending => "pending",
            SessionOutcome::Direct => "direct",
            SessionOutcome::Relay => "relay",
            SessionOutcome::Failed => "failed",
        }
    }
}

/// Resolved/released totals, by outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Sessions that established a direct path.
    pub direct: usize,
    /// Sessions that fell back to the relay.
    pub relay: usize,
    /// Sessions that failed outright.
    pub failed: usize,
    /// Sessions still unresolved (deadline hit, or never released).
    pub pending: usize,
}

/// One punch session inside a shard.
struct Session {
    /// Global session index (stable across shard layouts).
    global: usize,
    /// Client A's node in the shard sim.
    a: NodeId,
    /// Client B's node.
    b: NodeId,
    /// Peer id of client B (A connects to B).
    peer_b: PeerId,
    released: bool,
    outcome: SessionOutcome,
    resolved_at: Option<SimTime>,
    /// A's hole-punch latency (first PayloadAck minus punch start),
    /// captured the epoch the session resolves [`SessionOutcome::Direct`].
    latency: Option<Duration>,
}

/// One shard: an independent sim plus its resident sessions.
struct Shard {
    sim: Sim,
    sessions: Vec<Session>,
    /// The shard's rendezvous servers, in fleet order.
    servers: Vec<NodeId>,
}

/// A population of punch sessions partitioned across per-shard sims.
///
/// # Examples
///
/// ```
/// use punch_lab::shard::{ShardConfig, ShardedWorld};
///
/// let mut cfg = ShardConfig::new(7, 8);
/// cfg.shards = 2;
/// let mut world = ShardedWorld::build(&cfg);
/// world.run();
/// let counts = world.outcome_counts();
/// assert_eq!(counts.pending, 0);
/// ```
pub struct ShardedWorld {
    cfg: ShardConfig,
    shards: Vec<Mutex<Shard>>,
    released: usize,
    resolved: usize,
    next_wave: usize,
    epochs: u64,
    now: SimTime,
    nodes: usize,
}

impl ShardedWorld {
    /// Builds all shard sims and their resident sessions. Heavy for
    /// large populations (four nodes and three links per session).
    ///
    /// # Panics
    ///
    /// Panics if [`ShardConfig::epoch`] is zero ([`ShardedWorld::run`]
    /// would never reach its deadline) or [`ShardConfig::servers`]
    /// exceeds the 128-address fleet plan.
    pub fn build(cfg: &ShardConfig) -> Self {
        assert!(
            cfg.epoch > Duration::ZERO,
            "ShardConfig::epoch must be positive: `run` advances one epoch per round"
        );
        let shard_count = cfg.shards.max(1);
        let per_shard = cfg.sessions.div_ceil(shard_count.max(1)).max(1);
        let server_ep = Endpoint::new(addrs::SERVER, 1234);
        let lan = LinkSpec::new(Duration::from_micros(200));
        let nat_wan = LinkSpec::new(Duration::from_millis(10));
        let server_wan = LinkSpec::new(Duration::from_millis(5));

        // Server addresses: 18.181.0.31 (the classic single server) and
        // upwards. A lone server is told of no fleet (`fleet` stays empty)
        // and keeps the classic node name.
        assert!(cfg.servers <= 128, "fleet larger than the address plan");
        let server_ips: Vec<Ipv4Addr> = (0..cfg.servers.max(1))
            .map(|j| Ipv4Addr::new(18, 181, 0, 31 + j as u8))
            .collect();
        let fleet: Vec<Endpoint> = if cfg.servers > 1 {
            server_ips.iter().map(|&ip| Endpoint::new(ip, 1234)).collect()
        } else {
            Vec::new()
        };
        let replication = cfg.replication.clamp(1, cfg.servers.max(1));

        let mut shards = Vec::with_capacity(shard_count);
        let mut nodes = 0usize;
        for s in 0..shard_count {
            // Same seed everywhere: named streams make node randomness a
            // function of the global node name, not the shard layout.
            let mut sim = Sim::new(cfg.seed);
            sim.use_named_rng_streams();
            if cfg.metrics {
                sim.enable_metrics();
            }
            let mut net = Backbone::new(sim);

            let mut server_nodes = Vec::with_capacity(server_ips.len());
            for (j, &ip) in server_ips.iter().enumerate() {
                let mut server_cfg = ServerConfig::default().with_max_clients(2 * per_shard + 16);
                let mut name = "server".to_string();
                if !fleet.is_empty() {
                    server_cfg = server_cfg.with_fleet(fleet.clone(), j).with_replication(replication);
                    name = format!("server{j}");
                }
                let app = RendezvousServer::new(server_cfg);
                server_nodes.push(net.host(name, ip, StackConfig::default(), app, None, server_wan));
            }

            let mut sessions = Vec::with_capacity(per_shard);
            for i in (s..cfg.sessions).step_by(shard_count) {
                let symmetric = cfg.symmetric_every > 0
                    && i % cfg.symmetric_every == cfg.symmetric_every - 1;
                let behavior = if symmetric {
                    NatBehavior::symmetric()
                } else {
                    NatBehavior::port_restricted_cone()
                };
                // Globally unique public addresses: 30.x for A-side NATs,
                // 31.x for B-side (realm-private client addresses repeat).
                let nat_a_ip = Ipv4Addr::from(0x1E00_0000u32 + i as u32);
                let nat_b_ip = Ipv4Addr::from(0x1F00_0000u32 + i as u32);
                let peer_a = PeerId(2 * i as u64 + 1);
                let peer_b = PeerId(2 * i as u64 + 2);

                // One side of the session: its NAT, then its client.
                let mut side = |tag: &str, nat_ip: Ipv4Addr, client_ip: Ipv4Addr, id: PeerId| {
                    let nat = net.nat(format!("m{i}.n{tag}"), behavior.clone(), nat_ip, None, nat_wan);
                    let mut ucfg = if cfg.resilient_clients {
                        UdpPeerConfig::resilient(id, server_ep)
                    } else {
                        UdpPeerConfig::new(id, server_ep)
                    };
                    if !fleet.is_empty() {
                        ucfg = ucfg.with_fleet(fleet.clone(), replication);
                    }
                    if cfg.predict_symmetric && symmetric {
                        ucfg.punch.plan =
                            CandidatePlan::basic().with_source(CandidateSource::SelfPredicted(
                                PredictionStrategy::SequentialDelta { window: 8 },
                            ));
                    }
                    let app = UdpPeer::new(ucfg);
                    net.host(format!("m{i}.{tag}"), client_ip, StackConfig::fast(), app, Some(nat), lan)
                };
                let a = side("a", nat_a_ip, addrs::CLIENT_A, peer_a);
                let b = side("b", nat_b_ip, addrs::CLIENT_B, peer_b);

                sessions.push(Session {
                    global: i,
                    a,
                    b,
                    peer_b,
                    released: false,
                    outcome: SessionOutcome::Pending,
                    resolved_at: None,
                    latency: None,
                });
            }

            let (mut sim, _) = net.finish();
            if let Some((j, at)) = cfg.server_restart {
                let node = server_nodes[j % server_nodes.len()];
                FaultPlan::new().restart(SimTime::ZERO + at, node).apply(&mut sim);
            }
            nodes += sim.node_count();
            shards.push(Mutex::new(Shard {
                sim,
                sessions,
                servers: server_nodes,
            }));
        }

        ShardedWorld {
            cfg: cfg.clone(),
            shards,
            released: 0,
            resolved: 0,
            next_wave: 0,
            epochs: 0,
            now: SimTime::ZERO,
            nodes,
        }
    }

    /// Runs the population to completion (all sessions resolved) or to
    /// the configured deadline, whichever comes first.
    ///
    /// Each epoch: advance every shard to the epoch boundary in parallel,
    /// then — sequentially, in shard order — poll outcomes and release
    /// any wave that has come due. Both sequential phases see every shard
    /// at exactly the boundary time, so their effects are identical
    /// under any worker count or shard layout.
    pub fn run(&mut self) {
        if self.cfg.sessions == 0 {
            return;
        }
        let waves = self.cfg.waves.max(1);
        let workers = self.cfg.workers.unwrap_or_else(par::jobs);
        let hard_deadline = SimTime::ZERO + self.cfg.connect_at + self.cfg.deadline;
        let mut boundary = SimTime::ZERO + self.cfg.connect_at;
        loop {
            par::run_with_workers(&self.shards, workers, |_, m| {
                lock(m).sim.run_until(boundary);
            });
            self.now = boundary;
            self.epochs += 1;

            // Poll released-but-unresolved sessions, in shard order.
            let mut newly = 0usize;
            for m in &self.shards {
                let shard = &mut *lock(m);
                for sess in &mut shard.sessions {
                    if !sess.released || sess.outcome != SessionOutcome::Pending {
                        continue;
                    }
                    let app = shard
                        .sim
                        .device::<HostDevice<UdpPeer>>(sess.a)
                        .app::<UdpPeer>();
                    let outcome = if app.is_established(sess.peer_b) {
                        SessionOutcome::Direct
                    } else if app.is_relaying(sess.peer_b) {
                        SessionOutcome::Relay
                    } else if app.is_failed(sess.peer_b) {
                        SessionOutcome::Failed
                    } else {
                        continue;
                    };
                    sess.outcome = outcome;
                    sess.resolved_at = Some(boundary);
                    if outcome == SessionOutcome::Direct {
                        sess.latency = app.punch_latency(sess.peer_b);
                    }
                    // The world reads state accessors, never events: drop
                    // what both peers queued on the way here instead of
                    // carrying every session's history to the end.
                    for node in [sess.a, sess.b] {
                        with_host_app::<UdpPeer, UdpPeer, _>(&mut shard.sim, node, |app, _| {
                            drop(app.take_events());
                        });
                    }
                    newly += 1;
                }
            }
            self.resolved += newly;

            // Release the next wave once 90% of released sessions have
            // resolved (wave 0 goes out unconditionally at connect_at).
            while self.next_wave < waves
                && (self.next_wave == 0 || self.resolved * 10 >= self.released * 9)
            {
                let w = self.next_wave;
                let lo = w * self.cfg.sessions / waves;
                let hi = (w + 1) * self.cfg.sessions / waves;
                for i in lo..hi {
                    let m = &self.shards[i % self.shards.len()];
                    let shard = &mut *lock(m);
                    let sess = &mut shard.sessions[i / self.shards.len()];
                    debug_assert_eq!(sess.global, i);
                    let (a, peer_b) = (sess.a, sess.peer_b);
                    with_host_app::<UdpPeer, UdpPeer, _>(&mut shard.sim, a, |app, os| {
                        app.connect(os, peer_b)
                    });
                    sess.released = true;
                }
                self.released += hi - lo;
                self.next_wave += 1;
            }

            if (self.released == self.cfg.sessions && self.resolved == self.released)
                || boundary >= hard_deadline
            {
                break;
            }
            boundary += self.cfg.epoch;
        }
    }

    /// Total nodes across all shards (routers and servers included).
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Epoch boundaries crossed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The common sim time all shards have reached.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Outcome totals across the population.
    pub fn outcome_counts(&self) -> OutcomeCounts {
        let mut c = OutcomeCounts::default();
        for m in &self.shards {
            for sess in &lock(m).sessions {
                match sess.outcome {
                    SessionOutcome::Pending => c.pending += 1,
                    SessionOutcome::Direct => c.direct += 1,
                    SessionOutcome::Relay => c.relay += 1,
                    SessionOutcome::Failed => c.failed += 1,
                }
            }
        }
        c
    }

    /// Engine counters summed across shards.
    pub fn merged_stats(&self) -> SimStats {
        let mut total = SimStats::default();
        for m in &self.shards {
            total += lock(m).sim.stats();
        }
        total
    }

    /// Event-queue/pool counters across shards: high-water marks take the
    /// max, volume counters sum.
    pub fn merged_queue_stats(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for m in &self.shards {
            let q = lock(m).sim.queue_stats();
            total.depth_high_water = total.depth_high_water.max(q.depth_high_water);
            total.pool_slots += q.pool_slots;
            total.pool_recycled += q.pool_recycled;
            total.batches_coalesced += q.batches_coalesced;
        }
        total
    }

    /// Direct-punch latencies in global session order (sessions that
    /// resolved [`SessionOutcome::Direct`] and recorded a latency).
    pub fn latencies(&self) -> Vec<Duration> {
        let mut v: Vec<(usize, Duration)> = Vec::new();
        for m in &self.shards {
            for sess in &lock(m).sessions {
                if let Some(l) = sess.latency {
                    v.push((sess.global, l));
                }
            }
        }
        v.sort_by_key(|&(g, _)| g);
        v.into_iter().map(|(_, l)| l).collect()
    }

    /// Rendezvous counters summed over every shard's whole fleet.
    pub fn fleet_stats(&self) -> ServerStats {
        let mut total = ServerStats::default();
        for m in &self.shards {
            let shard = lock(m);
            for &node in &shard.servers {
                let s = shard
                    .sim
                    .device::<HostDevice<RendezvousServer>>(node)
                    .app::<RendezvousServer>()
                    .stats();
                total.add(&s);
            }
        }
        total
    }

    /// Metrics registries merged in shard order (empty when metrics were
    /// not enabled in the config).
    // punch-lint: allow(S005) lab/tests/{shard_identity,wiring_contract,fleet_identity}.rs compare merged metrics across shard layouts
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::default();
        for m in &self.shards {
            total.merge(&lock(m).sim.metrics_snapshot());
        }
        total
    }

    /// One line per session in global order — the byte-identity artifact
    /// for determinism checks across shard layouts and worker counts.
    pub fn report(&self) -> String {
        let mut lines: Vec<(usize, String)> = Vec::with_capacity(self.cfg.sessions);
        for m in &self.shards {
            for sess in &lock(m).sessions {
                let when = match sess.resolved_at {
                    Some(at) => format!("{at}"),
                    None => "-".to_string(),
                };
                lines.push((
                    sess.global,
                    format!("m{} {} @{}", sess.global, sess.outcome.label(), when),
                ));
            }
        }
        lines.sort_by_key(|&(g, _)| g);
        let mut out = String::new();
        for (_, line) in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// Locks a shard, treating poisoning (a prior worker panic) as fatal.
fn lock(m: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
    #[expect(clippy::expect_used, reason = "poisoned lock only follows a worker panic, which is already fatal")]
    let guard = m.lock().expect("shard worker panicked");
    guard
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_world(sessions: usize, shards: usize) -> ShardedWorld {
        let mut cfg = ShardConfig::new(42, sessions);
        cfg.shards = shards;
        let mut w = ShardedWorld::build(&cfg);
        w.run();
        w
    }

    #[test]
    fn small_population_resolves_with_expected_mix() {
        let w = run_world(10, 2);
        let c = w.outcome_counts();
        assert_eq!(c.pending, 0);
        assert_eq!(c.direct + c.relay + c.failed, 10);
        // Nine port-restricted pairs punch directly; whatever the tenth
        // (symmetric) pair does, it must resolve somehow.
        assert!(c.direct >= 9, "direct={c:?}");
    }

    #[test]
    fn report_is_identical_across_shard_layouts() {
        let one = run_world(12, 1);
        let four = run_world(12, 4);
        assert_eq!(one.report(), four.report());
        assert_eq!(one.outcome_counts(), four.outcome_counts());
    }

    #[test]
    #[should_panic(expected = "ShardConfig::epoch must be positive")]
    fn zero_epoch_is_rejected_at_build() {
        let mut cfg = ShardConfig::new(7, 4);
        cfg.epoch = Duration::ZERO;
        ShardedWorld::build(&cfg);
    }

    #[test]
    fn waves_release_everyone() {
        let mut cfg = ShardConfig::new(7, 9);
        cfg.shards = 3;
        cfg.waves = 3;
        let mut w = ShardedWorld::build(&cfg);
        w.run();
        let c = w.outcome_counts();
        assert_eq!(c.pending, 0);
        assert_eq!(c.direct + c.relay + c.failed, 9);
    }
}
