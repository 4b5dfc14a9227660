//! `stream_tcp`: one punched TCP stream carrying 64 MiB.
//!
//! Set-up builds Figure 5, registers both `TcpPeer`s and punches the
//! stream; the run phase offers 8 KiB chunks A→B with at most 1 MiB
//! outstanding until B has the lot. The untraced rep builds through
//! `punch_lab::fig5`; the traced rep lays the same six nodes out by hand
//! (`WorldBuilder::build`'s order: router, server, NATs, clients) with
//! each inside a spy. Both are driven by the one [`drive`].

use crate::clock;
use crate::digest::Fnv;
use crate::rep::{Outcome, RepRun, Size};
use crate::spy::{self, Layer, Plain, Spied, Wrap};
use crate::trace::{Harvest, Timeline, Traced};
use bytes::Bytes;
use holepunch::{PeerId, TcpPeer, TcpPeerConfig, TcpPeerEvent};
use punch_lab::{addrs, fig5, PeerSetup, Scenario};
use punch_nat::{NatBehavior, NatDevice};
use punch_net::{Cidr, Duration, LinkSpec, NodeId, Router, Sim, SimTime};
use punch_rendezvous::{RendezvousServer, ServerConfig};
use punch_transport::{HostDevice, StackConfig};
use std::time::Instant;

const CHUNK: usize = 8 * 1024;
/// Chunks per rep at full size: 64 MiB.
const CHUNKS: usize = 8 * 1024;
/// Most bytes offered but not yet delivered.
const OUTSTANDING: usize = 1024 * 1024;
const A: PeerId = PeerId(1);
const B: PeerId = PeerId(2);

fn peer(id: PeerId) -> TcpPeer {
    TcpPeer::new(TcpPeerConfig::new(id, Scenario::server_endpoint()))
}

/// Registers both peers and punches the stream; returns what went wrong.
fn punch<W: Wrap>(w: W, sim: &mut Sim, a: NodeId, b: NodeId) -> Vec<String> {
    sim.run_for(Duration::from_secs(2));
    w.with_app::<TcpPeer, _>(sim, a, |p, os| p.connect(os, B));
    let up = sim.run_while(SimTime::from_secs(40), |sim| {
        w.app_of::<TcpPeer>(sim, a).is_established(B)
            && w.app_of::<TcpPeer>(sim, b).is_established(A)
    });
    if up {
        Vec::new()
    } else {
        vec!["TCP punch did not establish within 40 sim-s".to_string()]
    }
}

/// The run phase. Returns bytes offered and received.
fn drive<W: Wrap>(
    w: W,
    sim: &mut Sim,
    a: NodeId,
    b: NodeId,
    total: usize,
    timeline: &mut Timeline,
) -> usize {
    // `From<Vec>` bytes are shared, so each offer clones a handle.
    let payload = Bytes::from(vec![0xabu8; CHUNK]);
    let (mut sent, mut received) = (0usize, 0usize);
    let deadline = sim.now() + Duration::from_secs(900);
    while received < total && sim.now() < deadline {
        while sent < total && sent - received + CHUNK <= OUTSTANDING {
            w.with_app::<TcpPeer, _>(sim, a, |p, os| p.send(os, B, payload.clone()));
            sent += CHUNK;
        }
        timeline.run_sim(sim, |sim| sim.run_for(Duration::from_millis(50)));
        for ev in w.with_app::<TcpPeer, _>(sim, b, |p, _| p.take_events()) {
            if let TcpPeerEvent::Data { data, .. } = ev {
                received += data.len();
            }
        }
    }
    received
}

fn outcome(sim: &Sim, total: usize, received: usize, mut problems: Vec<String>) -> Outcome {
    let stats = sim.stats();
    let mut h = Fnv::default();
    h.write_u64(received as u64);
    h.write_stats(&stats);
    let undelivered = total.saturating_sub(received).div_ceil(CHUNK);
    if received != total {
        problems.push(format!("received {received} of {total} bytes"));
    }
    Outcome {
        ops: (total / CHUNK) as u64,
        failed: undelivered as u64,
        success: (received as u64, total as u64),
        stats,
        queue: sim.queue_stats(),
        nodes: sim.node_count() as u64,
        digest: h.finish(),
        summary: format!("received={received} offered={total} sim_end={}", sim.now()),
        problems,
    }
}

pub fn untraced(seed: u64, size: Size, t0: Instant) -> RepRun {
    let total = size.scaled(CHUNKS) * CHUNK;
    let nat = NatBehavior::well_behaved;
    let mut sc = fig5(
        seed,
        nat(),
        nat(),
        PeerSetup::new(peer(A)),
        PeerSetup::new(peer(B)),
    );
    let sim = &mut sc.world.sim;
    let problems = punch(Plain, sim, sc.a, sc.b);
    let setup_s = clock::secs_since(t0);

    let t1 = clock::now();
    let received = drive(Plain, sim, sc.a, sc.b, total, &mut Timeline::default());
    let run_s = clock::secs_since(t1);
    (
        setup_s,
        run_s,
        outcome(sim, total, received, problems),
        None,
    )
}

pub fn traced(seed: u64, size: Size, t0: Instant) -> RepRun {
    let total = size.scaled(CHUNKS) * CHUNK;
    let w = Spied;
    let (wan, lan) = (LinkSpec::wan(), LinkSpec::lan());
    let mut sim = Sim::new(seed);
    let internet = sim.add_node("internet", w.device(Layer::Router, Router::new()));
    let mut routes: Vec<(Cidr, usize)> = Vec::new();
    let server = sim.add_node(
        "s0",
        w.device(
            Layer::ServerStack,
            HostDevice::new(
                addrs::SERVER,
                StackConfig::default(),
                w.app(
                    Layer::Rendezvous,
                    RendezvousServer::new(ServerConfig::default()),
                ),
            ),
        ),
    );
    let (riface, _) = sim.connect(internet, server, wan);
    routes.push((Cidr::host(addrs::SERVER), riface));
    let mut nats = Vec::new();
    for (i, ip) in [addrs::NAT_A, addrs::NAT_B].into_iter().enumerate() {
        let nat = sim.add_node(
            format!("nat{i}"),
            w.device(
                Layer::Nat,
                NatDevice::new(NatBehavior::well_behaved(), vec![ip]),
            ),
        );
        let (_, riface) = sim.connect(nat, internet, wan);
        routes.push((Cidr::host(ip), riface));
        nats.push(nat);
    }
    let mut clients = Vec::new();
    for (i, (ip, id)) in [(addrs::CLIENT_A, A), (addrs::CLIENT_B, B)]
        .into_iter()
        .enumerate()
    {
        let host = HostDevice::new(ip, StackConfig::fast(), w.app(Layer::Peer, peer(id)));
        let client = sim.add_node(format!("c{i}"), w.device(Layer::ClientStack, host));
        sim.connect(nats[i], client, lan);
        clients.push(client);
    }
    let router = Spied::device_mut::<Router>(&mut sim, internet);
    for (cidr, iface) in routes {
        router.add_route(cidr, iface);
    }
    let (a, b) = (clients[0], clients[1]);
    let problems = punch(w, &mut sim, a, b);
    spy::start_recording();
    let setup_s = clock::secs_since(t0);

    let mut timeline = Timeline::default();
    let t1 = clock::now();
    let received = drive(w, &mut sim, a, b, total, &mut timeline);
    let run_s = clock::secs_since(t1);

    let out = outcome(&sim, total, received, problems);
    let mut harvest = Harvest::default();
    harvest.router(&sim, internet);
    harvest.host::<RendezvousServer>(&sim, server);
    harvest.nat(&sim, nats[0]);
    harvest.nat(&sim, nats[1]);
    harvest.host::<TcpPeer>(&sim, a);
    harvest.host::<TcpPeer>(&sim, b);
    let useful_per_attempt = (
        harvest.tcp.streams_authenticated,
        harvest.tcp.connects_started,
    );
    let traced = Traced {
        harvest,
        timeline,
        useful_per_attempt,
    };
    (setup_s, run_s, out, Some(traced))
}
