//! `crowd_udp` and `fleet_churn`: sharded populations of Figure-5 punch
//! sessions.
//!
//! The untraced rep goes through the program's own entry points,
//! `ShardedWorld::build` and `ShardedWorld::run`. `ShardedWorld`
//! constructs its devices internally, so the traced rep cannot hand it
//! spies: [`Replica`] rebuilds the same topology from the same public
//! constructors — same seed, same node names (so the named RNG streams
//! match), same add/connect order, same epoch/poll/release loop — with
//! every device wrapped. It is a copy of `punch_lab::shard` and has to
//! follow it if that builder changes shape; the benchmark notices, since
//! every traced rep compares the replica's digest with the real world's.

use crate::clock;
use crate::digest::Fnv;
use crate::rep::{Outcome, RepRun, Size};
use crate::spy::{self, Layer, Spied, Wrap};
use crate::trace::{Harvest, Timeline, Traced};
use holepunch::{PeerId, PunchConfig, UdpPeer, UdpPeerConfig};
use punch_lab::{addrs, ShardConfig, ShardedWorld};
use punch_nat::{NatBehavior, NatDevice};
use punch_net::{
    Cidr, Duration, Endpoint, FaultPlan, LinkSpec, NodeId, QueueStats, Router, Sim, SimStats,
    SimTime,
};
use punch_rendezvous::{RendezvousServer, ServerConfig};
use punch_transport::{HostDevice, StackConfig};
use std::net::Ipv4Addr;
use std::time::Instant;

/// `crowd_udp`: `BENCH_million`'s world at one fifth of its pinned size.
pub fn crowd_config(seed: u64, size: Size, workers: usize) -> ShardConfig {
    let mut cfg = ShardConfig::new(seed, size.scaled(20_000));
    cfg.shards = 4;
    cfg.workers = Some(workers);
    cfg
}

/// `fleet_churn`: `BENCH_fleet`'s n = 4 leg, small enough that the 70
/// simulated seconds of keepalives dominate the connect burst.
pub fn fleet_config(seed: u64, size: Size) -> ShardConfig {
    let mut cfg = ShardConfig::new(seed, size.scaled(2_000));
    cfg.shards = 4;
    cfg.workers = Some(1);
    cfg.servers = 4;
    cfg.replication = 2;
    cfg.resilient_clients = true;
    cfg.deadline = Duration::from_secs(120);
    cfg.server_restart = Some((1, Duration::from_millis(2_500)));
    cfg
}

fn digest(report: &str, stats: &SimStats) -> u64 {
    let mut h = Fnv::default();
    h.write(report.as_bytes());
    h.write_stats(stats);
    h.finish()
}

fn outcome(
    cfg: &ShardConfig,
    (direct, relay, failed, pending): (usize, usize, usize, usize),
    stats: SimStats,
    queue: QueueStats,
    nodes: usize,
    report: &str,
) -> Outcome {
    let mut problems = Vec::new();
    if pending != 0 || failed != 0 {
        problems.push(format!("{failed} failed and {pending} pending sessions"));
    }
    if direct + relay != cfg.sessions {
        problems.push(format!(
            "direct {direct} + relay {relay} != sessions {}",
            cfg.sessions
        ));
    }
    Outcome {
        ops: cfg.sessions as u64,
        failed: (failed + pending) as u64,
        success: (direct as u64, cfg.sessions as u64),
        stats,
        queue,
        nodes: nodes as u64,
        digest: digest(report, &stats),
        summary: format!("direct={direct} relay={relay} failed={failed} pending={pending}"),
        problems,
    }
}

/// One untraced rep through `ShardedWorld`; `t0` is process start.
pub fn untraced(cfg: &ShardConfig, t0: Instant) -> RepRun {
    let mut world = ShardedWorld::build(cfg);
    let setup_s = clock::secs_since(t0);
    let t1 = clock::now();
    world.run();
    let run_s = clock::secs_since(t1);
    let c = world.outcome_counts();
    let out = outcome(
        cfg,
        (c.direct, c.relay, c.failed, c.pending),
        world.merged_stats(),
        world.merged_queue_stats(),
        world.node_count(),
        &world.report(),
    );
    (setup_s, run_s, out, None)
}

/// One traced rep on the spied [`Replica`].
pub fn traced(cfg: &ShardConfig, t0: Instant) -> RepRun {
    let mut world = Replica::build(cfg);
    let setup_s = clock::secs_since(t0);
    let mut timeline = Timeline::default();
    spy::start_recording();
    let t1 = clock::now();
    world.run(&mut timeline);
    let run_s = clock::secs_since(t1);
    let out = world.outcome();
    let mut harvest = Harvest::default();
    for shard in &world.shards {
        harvest.router(&shard.sim, shard.router);
        for &n in &shard.servers {
            harvest.host::<RendezvousServer>(&shard.sim, n);
        }
        for &n in &shard.nats {
            harvest.nat(&shard.sim, n);
        }
        for &n in &shard.clients {
            harvest.host::<UdpPeer>(&shard.sim, n);
        }
    }
    let useful_per_attempt = (out.success.0, harvest.udp.probes_sent);
    let traced = Traced {
        harvest,
        timeline,
        useful_per_attempt,
    };
    (setup_s, run_s, out, Some(traced))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Resolved {
    Pending,
    Direct,
    Relay,
    Failed,
}

impl Resolved {
    fn label(self) -> &'static str {
        match self {
            Resolved::Pending => "pending",
            Resolved::Direct => "direct",
            Resolved::Relay => "relay",
            Resolved::Failed => "failed",
        }
    }
}

struct Session {
    global: usize,
    a: NodeId,
    peer_b: PeerId,
    released: bool,
    outcome: Resolved,
    resolved_at: Option<SimTime>,
}

struct Shard {
    sim: Sim,
    sessions: Vec<Session>,
    /// For the span harvest.
    router: NodeId,
    servers: Vec<NodeId>,
    nats: Vec<NodeId>,
    clients: Vec<NodeId>,
}

/// `ShardedWorld`, rebuilt device by device with each inside a spy.
struct Replica {
    cfg: ShardConfig,
    shards: Vec<Shard>,
    nodes: usize,
}

impl Replica {
    /// Mirrors `ShardedWorld::build` statement for statement.
    fn build(cfg: &ShardConfig) -> Self {
        let w = Spied;
        assert!(
            !cfg.predict_symmetric && !cfg.metrics && cfg.waves == 1,
            "the replica covers only the knobs the benchmark's worlds set"
        );
        let shard_count = cfg.shards.max(1);
        let per_shard = cfg.sessions.div_ceil(shard_count).max(1);
        let server_ep = Endpoint::new(addrs::SERVER, 1234);
        let lan = LinkSpec::new(Duration::from_micros(200));
        let nat_wan = LinkSpec::new(Duration::from_millis(10));
        let server_wan = LinkSpec::new(Duration::from_millis(5));

        let fleet: Vec<Endpoint> = if cfg.servers > 1 {
            (0..cfg.servers)
                .map(|j| Endpoint::new(Ipv4Addr::new(18, 181, 0, 31 + j as u8), 1234))
                .collect()
        } else {
            Vec::new()
        };
        let replication = cfg.replication.clamp(1, cfg.servers.max(1));

        let mut shards = Vec::with_capacity(shard_count);
        let mut nodes = 0usize;
        for s in 0..shard_count {
            let mut sim = Sim::new(cfg.seed);
            sim.use_named_rng_streams();
            let (mut nats, mut clients) = (Vec::new(), Vec::new());

            let internet = sim.add_node("internet", w.device(Layer::Router, Router::new()));
            let server_cap = 2 * per_shard + 16;
            let mut server_nodes = Vec::new();
            let mut routes: Vec<(Cidr, usize)> = Vec::new();
            let mut add_server = |sim: &mut Sim, name: String, ip: Ipv4Addr, scfg: ServerConfig| {
                let server = sim.add_node(
                    name,
                    w.device(
                        Layer::ServerStack,
                        HostDevice::new(
                            ip,
                            StackConfig::default(),
                            w.app(Layer::Rendezvous, RendezvousServer::new(scfg)),
                        ),
                    ),
                );
                let (r_srv, _) = sim.connect(internet, server, server_wan);
                routes.push((Cidr::host(ip), r_srv));
                server_nodes.push(server);
            };
            if fleet.is_empty() {
                let scfg = ServerConfig::default().with_max_clients(server_cap);
                add_server(&mut sim, "server".to_string(), addrs::SERVER, scfg);
            } else {
                for (j, ep) in fleet.iter().enumerate() {
                    let scfg = ServerConfig::default()
                        .with_max_clients(server_cap)
                        .with_fleet(fleet.clone(), j)
                        .with_replication(replication);
                    add_server(&mut sim, format!("server{j}"), ep.ip, scfg);
                }
            }
            let mut sessions = Vec::with_capacity(per_shard);
            for i in (s..cfg.sessions).step_by(shard_count) {
                let symmetric =
                    cfg.symmetric_every > 0 && i % cfg.symmetric_every == cfg.symmetric_every - 1;
                let behavior = if symmetric {
                    NatBehavior::symmetric()
                } else {
                    NatBehavior::port_restricted_cone()
                };
                let nat_a_ip = Ipv4Addr::from(0x1E00_0000u32 + i as u32);
                let nat_b_ip = Ipv4Addr::from(0x1F00_0000u32 + i as u32);
                let peer_a = PeerId(2 * i as u64 + 1);
                let peer_b = PeerId(2 * i as u64 + 2);

                let mut side = |tag: &str, nat_ip: Ipv4Addr, client_ip: Ipv4Addr, id: PeerId| {
                    let nat = sim.add_node(
                        format!("m{i}.n{tag}"),
                        w.device(Layer::Nat, NatDevice::new(behavior.clone(), vec![nat_ip])),
                    );
                    let (_, r_iface) = sim.connect(nat, internet, nat_wan);
                    routes.push((Cidr::host(nat_ip), r_iface));
                    let mut ucfg = UdpPeerConfig::new(id, server_ep);
                    if !fleet.is_empty() {
                        ucfg = ucfg.with_fleet(fleet.clone(), replication);
                    }
                    if cfg.resilient_clients {
                        ucfg.server_keepalive = Duration::from_secs(2);
                        ucfg.register_retry = Duration::from_secs(1);
                        let mut p = PunchConfig::resilient();
                        p.keepalive_interval = Duration::from_secs(1);
                        ucfg.punch = p;
                    }
                    let client = sim.add_node(
                        format!("m{i}.{tag}"),
                        w.device(
                            Layer::ClientStack,
                            HostDevice::new(
                                client_ip,
                                StackConfig::fast(),
                                w.app(Layer::Peer, UdpPeer::new(ucfg)),
                            ),
                        ),
                    );
                    sim.connect(nat, client, lan);
                    nats.push(nat);
                    clients.push(client);
                    client
                };
                let a = side("a", nat_a_ip, addrs::CLIENT_A, peer_a);
                let _b = side("b", nat_b_ip, addrs::CLIENT_B, peer_b);
                sessions.push(Session {
                    global: i,
                    a,
                    peer_b,
                    released: false,
                    outcome: Resolved::Pending,
                    resolved_at: None,
                });
            }

            let router = Spied::device_mut::<Router>(&mut sim, internet);
            for (prefix, iface) in routes {
                router.add_route(prefix, iface);
            }
            if let Some((j, at)) = cfg.server_restart {
                let node = server_nodes[j % server_nodes.len()];
                FaultPlan::new()
                    .restart(SimTime::ZERO + at, node)
                    .apply(&mut sim);
            }
            nodes += sim.node_count();
            shards.push(Shard {
                sim,
                sessions,
                router: internet,
                servers: server_nodes,
                nats,
                clients,
            });
        }
        Replica {
            cfg: cfg.clone(),
            shards,
            nodes,
        }
    }

    /// Mirrors `ShardedWorld::run` at one worker and one wave, timing
    /// each `Sim::run_until` into `timeline`.
    fn run(&mut self, timeline: &mut Timeline) {
        let w = Spied;
        let hard_deadline = SimTime::ZERO + self.cfg.connect_at + self.cfg.deadline;
        let mut boundary = SimTime::ZERO + self.cfg.connect_at;
        let (mut released, mut resolved, mut wave_out) = (0usize, 0usize, false);
        loop {
            for shard in &mut self.shards {
                timeline.run_sim(&mut shard.sim, |sim| sim.run_until(boundary));
            }

            for shard in &mut self.shards {
                for sess in &mut shard.sessions {
                    if !sess.released || sess.outcome != Resolved::Pending {
                        continue;
                    }
                    let app = w.app_of::<UdpPeer>(&shard.sim, sess.a);
                    sess.outcome = if app.is_established(sess.peer_b) {
                        Resolved::Direct
                    } else if app.is_relaying(sess.peer_b) {
                        Resolved::Relay
                    } else if app.is_failed(sess.peer_b) {
                        Resolved::Failed
                    } else {
                        continue;
                    };
                    sess.resolved_at = Some(boundary);
                    resolved += 1;
                }
            }

            if !wave_out {
                let shard_count = self.shards.len();
                for i in 0..self.cfg.sessions {
                    let shard = &mut self.shards[i % shard_count];
                    let sess = &mut shard.sessions[i / shard_count];
                    debug_assert_eq!(sess.global, i);
                    let (a, peer_b) = (sess.a, sess.peer_b);
                    w.with_app::<UdpPeer, _>(&mut shard.sim, a, |app, os| app.connect(os, peer_b));
                    sess.released = true;
                }
                released = self.cfg.sessions;
                wave_out = true;
            }

            if (released == self.cfg.sessions && resolved == released) || boundary >= hard_deadline
            {
                break;
            }
            boundary += self.cfg.epoch;
        }
    }

    /// `ShardedWorld::report`, byte for byte.
    fn report(&self) -> String {
        let mut lines: Vec<(usize, String)> = Vec::with_capacity(self.cfg.sessions);
        for shard in &self.shards {
            for sess in &shard.sessions {
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

    fn outcome(&self) -> Outcome {
        let mut counts = (0, 0, 0, 0);
        let mut stats = SimStats::default();
        let mut queue = QueueStats::default();
        for shard in &self.shards {
            for sess in &shard.sessions {
                match sess.outcome {
                    Resolved::Direct => counts.0 += 1,
                    Resolved::Relay => counts.1 += 1,
                    Resolved::Failed => counts.2 += 1,
                    Resolved::Pending => counts.3 += 1,
                }
            }
            crate::rep::add_stats(&mut stats, &shard.sim.stats());
            crate::rep::add_queue(&mut queue, &shard.sim.queue_stats());
        }
        outcome(&self.cfg, counts, stats, queue, self.nodes, &self.report())
    }
}
