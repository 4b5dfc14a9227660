//! `server_storm`: one rendezvous server under a storm of datagrams.
//!
//! One `Sim`: a `RendezvousServer` host linked to a sink. Set-up
//! pre-encodes one round of datagrams — a `Register` from each of 100 000
//! peers at distinct source endpoints, then 50 000 `ConnectRequest`s
//! between seed-chosen pairs of them; the run phase injects the round
//! eight times, each followed by `run_for`. Round one inserts every
//! registration, rounds two to eight refresh them. No library entry
//! point builds this world, so traced and untraced reps share [`run`].

use crate::clock;
use crate::digest::Fnv;
use crate::rep::{Outcome, RepRun, Size};
use crate::spy::{self, Layer, Wrap};
use crate::trace::{Harvest, Timeline, Traced};
use holepunch::PeerId;
use punch_lab::addrs;
use punch_net::seed::derive_seed;
use punch_net::{Ctx, Device, Duration, Endpoint, IfaceId, LinkSpec, Packet, Sim};
use punch_rendezvous::wire::Message;
use punch_rendezvous::{RendezvousServer, ServerConfig};
use punch_transport::{HostDevice, StackConfig};
use std::net::Ipv4Addr;
use std::time::Instant;

const REGISTERS: usize = 100_000;
const CONNECTS: usize = 50_000;
const ROUNDS: u64 = 8;

/// Counts the server's replies and drops them. The benchmark's own
/// device: its (trivial) callback is engine-side time in the trace.
#[derive(Default)]
struct CountSink {
    packets: u64,
    bytes: u64,
}

impl Device for CountSink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
        self.packets += 1;
        self.bytes += pkt.payload_len() as u64;
    }
}

/// One round of requests, generated from the seed.
fn datagrams(seed: u64, registers: usize, connects: usize) -> Vec<Packet> {
    let server = Endpoint::new(addrs::SERVER, 1234);
    let public = |i: usize| {
        let port = 1024 + (derive_seed(seed, "storm.port", i as u64) % 60_000) as u16;
        Endpoint::new(Ipv4Addr::from(0x1E00_0000u32 + i as u32), port)
    };
    let id = |i: usize| PeerId(i as u64 + 1);
    let mut out = Vec::with_capacity(registers + connects);
    for i in 0..registers {
        let msg = Message::Register {
            peer_id: id(i),
            private: Endpoint::new(addrs::CLIENT_A, 4321),
        };
        out.push(Packet::udp(public(i), server, msg.encode(true)));
    }
    for k in 0..connects {
        let from = (derive_seed(seed, "storm.from", k as u64) % registers as u64) as usize;
        let hop = 1 + derive_seed(seed, "storm.to", k as u64) % (registers as u64 - 1).max(1);
        let to = (from + hop as usize) % registers;
        let msg = Message::ConnectRequest {
            peer_id: id(from),
            target: id(to),
            nonce: derive_seed(seed, "storm.nonce", k as u64),
        };
        out.push(Packet::udp(public(from), server, msg.encode(true)));
    }
    out
}

pub fn run<W: Wrap>(w: W, seed: u64, size: Size, t0: Instant) -> RepRun {
    let (registers, connects) = (size.scaled(REGISTERS).max(2), size.scaled(CONNECTS));
    let mut sim = Sim::new(seed);
    let cfg = ServerConfig::default().with_max_clients(registers + 16);
    let server = sim.add_node(
        "server",
        w.device(
            Layer::ServerStack,
            HostDevice::new(
                addrs::SERVER,
                StackConfig::default(),
                w.app(Layer::Rendezvous, RendezvousServer::new(cfg)),
            ),
        ),
    );
    let sink = sim.add_node("sink", Box::new(CountSink::default()));
    sim.connect(server, sink, LinkSpec::new(Duration::from_millis(1)));
    // Let the server bind its sockets.
    sim.run_for(Duration::from_millis(10));
    let round = datagrams(seed, registers, connects);
    spy::start_recording();
    let setup_s = clock::secs_since(t0);

    let mut timeline = Timeline::default();
    let t1 = clock::now();
    for _ in 0..ROUNDS {
        for pkt in &round {
            sim.inject(server, 0, pkt.clone());
        }
        timeline.run_sim(&mut sim, |sim| sim.run_for(Duration::from_millis(100)));
    }
    let run_s = clock::secs_since(t1);

    let s = w.app_of::<RendezvousServer>(&sim, server).stats();
    let replies = sim.device::<CountSink>(sink);
    let requests = ROUNDS * (registers + connects) as u64;
    let served = s.registrations + s.introductions;
    // An ack per registration, an `Introduce` to each side of a pair.
    let expected_replies = s.registrations + 2 * s.introductions;
    let mut problems = Vec::new();
    if s.errors != 0 || served != requests || replies.packets != expected_replies {
        problems.push(format!(
            "{requests} requests: {served} served, {} errors, {} of {expected_replies} replies",
            s.errors, replies.packets
        ));
    }
    let stats = sim.stats();
    let mut h = Fnv::default();
    for v in [
        s.registrations,
        s.introductions,
        s.errors,
        replies.packets,
        replies.bytes,
    ] {
        h.write_u64(v);
    }
    h.write_stats(&stats);
    let out = Outcome {
        ops: requests,
        failed: requests.saturating_sub(served).max(s.errors)
            + expected_replies.saturating_sub(replies.packets),
        success: (served, requests),
        stats,
        queue: sim.queue_stats(),
        nodes: sim.node_count() as u64,
        digest: h.finish(),
        summary: format!(
            "registrations={} introductions={} errors={} replies={}",
            s.registrations, s.introductions, s.errors, replies.packets
        ),
        problems,
    };
    let traced = W::TRACED.then(|| {
        let mut harvest = Harvest::default();
        harvest.host::<RendezvousServer>(&sim, server);
        Traced {
            harvest,
            timeline,
            // No peer, no probes.
            useful_per_attempt: (0, 0),
        }
    });
    (setup_s, run_s, out, traced)
}
