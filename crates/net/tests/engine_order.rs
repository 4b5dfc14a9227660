//! The engine's ordering contract, stated against a reference that
//! schedules one `BinaryHeap` entry per packet.
//!
//! Three recording devices sit on a ring — a plain link, a link that
//! duplicates every packet, and a zero-latency link, so forwarded traffic
//! cascades inside one instant — and an arbitrary script interleaves
//! same-instant `ctx.send` bursts, `Sim::inject`, timers (armed from the
//! harness and from callbacks), link faults and device faults with
//! `run_for` / `run_while` / `step`. Whatever the engine batches
//! internally, the callback sequence, the counters and the pending-event
//! high-water mark must be exactly the reference's.
//!
//! Every case runs twice: as written, where the queue stays small, and
//! with [`build_wheel`]'s idle node holding it above 64 entries from the
//! start, so both of the event queue's tiers are held to the reference.

use proptest::prelude::*;
use punch_net::testutil::CounterDevice;
use punch_net::{
    Body, Ctx, Device, Duration, Endpoint, IfaceId, LinkAction, LinkSpec, NodeId, Packet, Sim,
    SimStats, SimTime,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Start,
    Packet,
    Timer,
    Fault,
}

/// One device callback: `(time, kind, node, iface or token, packet id)`.
type Rec = (SimTime, Kind, usize, u64, u32);

/// The ring, in `connect` order: link `i` joins node `i` to node
/// `(i + 1) % 3`.
fn links() -> [LinkSpec; 3] {
    [
        LinkSpec::new(Duration::from_millis(5)),
        LinkSpec { duplicate: 1.0, ..LinkSpec::new(Duration::from_millis(2)) },
        LinkSpec::new(Duration::ZERO),
    ]
}

/// `WIRING[node][iface]` is `(link, peer node, peer iface)`: what
/// `Sim::connect` hands out for that ring.
const WIRING: [[(usize, usize, usize); 2]; 3] = [
    [(0, 1, 0), (2, 2, 1)],
    [(0, 0, 0), (1, 2, 0)],
    [(1, 1, 1), (2, 0, 1)],
];

/// The idle node [`build_wheel`] adds after the ring: it has no links,
/// records nothing, and its timers fire an hour out, after any script.
const IDLE: usize = 3;
const IDLE_TIMERS: u64 = 64;
const IDLE_AFTER: Duration = Duration::from_secs(3600);

/// Adds an idle node and arms [`IDLE_TIMERS`] timers for it, so the queue
/// holds more than 64 entries before the first event runs and builds its
/// calendar wheel.
fn build_wheel(sim: &mut Sim) {
    let idle = sim.add_node("idle", Box::new(CounterDevice::default()));
    for token in 0..IDLE_TIMERS {
        sim.with_node(idle, |_, ctx| ctx.set_timer(IDLE_AFTER, token));
    }
}

/// What a device may do from a callback; the engine and the reference
/// each implement it, so both run the same [`react`].
trait Io {
    fn record(&mut self, kind: Kind, arg: u64, id: u32);
    fn fresh_id(&mut self) -> u32;
    fn send(&mut self, iface: usize, id: u32, ttl: u8);
    fn timer(&mut self, after: Duration, token: u64);
}

enum Call {
    Start,
    Packet { iface: usize, id: u32, ttl: u8 },
    Timer(u64),
    Fault(u64),
}

/// The device: records the callback; forwards a packet around the ring
/// while its ttl lasts; a timer's token spells out a same-instant burst
/// and, from 24 up, a follow-up timer; a fault sends one packet.
fn react(io: &mut impl Io, call: Call) {
    match call {
        Call::Start => io.record(Kind::Start, 0, 0),
        Call::Packet { iface, id, ttl } => {
            io.record(Kind::Packet, iface as u64, id);
            if ttl > 0 {
                io.send(1 - iface, id, ttl - 1);
            }
        }
        Call::Timer(token) => {
            io.record(Kind::Timer, token, 0);
            for _ in 0..token % 4 {
                let id = io.fresh_id();
                io.send((token / 4 % 2) as usize, id, (token / 8 % 3) as u8);
            }
            if token >= 24 {
                io.timer(Duration::from_millis(token / 24 % 3), token % 24);
            }
        }
        Call::Fault(code) => {
            io.record(Kind::Fault, code, 0);
            let id = io.fresh_id();
            io.send((code % 2) as usize, id, 1);
        }
    }
}

fn packet(id: u32, ttl: u8) -> Packet {
    let ep = Endpoint::new([10, 0, 0, 1].into(), 1);
    let mut payload = id.to_be_bytes().to_vec();
    payload.push(ttl);
    Packet::udp(ep, ep, payload)
}

#[derive(Default)]
struct Shared {
    log: Vec<Rec>,
    next_id: u32,
}

struct Recorder {
    node: usize,
    shared: Arc<Mutex<Shared>>,
}

struct RealIo<'a, 'b> {
    node: usize,
    ctx: &'a mut Ctx<'b>,
    shared: &'a mut Shared,
}

impl Io for RealIo<'_, '_> {
    fn record(&mut self, kind: Kind, arg: u64, id: u32) {
        self.shared
            .log
            .push((self.ctx.now(), kind, self.node, arg, id));
    }
    fn fresh_id(&mut self) -> u32 {
        self.shared.next_id += 1;
        self.shared.next_id
    }
    fn send(&mut self, iface: usize, id: u32, ttl: u8) {
        self.ctx.send(iface, packet(id, ttl));
    }
    fn timer(&mut self, after: Duration, token: u64) {
        self.ctx.set_timer(after, token);
    }
}

impl Recorder {
    fn call(&mut self, ctx: &mut Ctx<'_>, call: Call) {
        let mut shared = self.shared.lock().unwrap();
        react(
            &mut RealIo {
                node: self.node,
                ctx,
                shared: &mut shared,
            },
            call,
        );
    }
}

impl Device for Recorder {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.call(ctx, Call::Start);
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        let Body::Udp(p) = &pkt.body else { unreachable!("scripts send UDP") };
        let id = u32::from_be_bytes([p[0], p[1], p[2], p[3]]);
        self.call(
            ctx,
            Call::Packet {
                iface,
                id,
                ttl: p[4],
            },
        );
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.call(ctx, Call::Timer(token));
    }
    fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: u64) {
        self.call(ctx, Call::Fault(fault));
    }
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Start(usize),
    Packet {
        node: usize,
        iface: usize,
        id: u32,
        ttl: u8,
    },
    Timer {
        node: usize,
        token: u64,
    },
    LinkFault {
        link: usize,
        up: bool,
    },
    DeviceFault {
        node: usize,
        code: u64,
    },
}

/// The reference engine: every packet is its own heap entry, ordered by
/// `(time, insertion sequence)`.
struct Model {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
    up: [bool; 3],
    node: usize,
    log: Vec<Rec>,
    next_id: u32,
    stats: SimStats,
    depth_high_water: u64,
}

impl Model {
    /// The ring's three nodes, and with `wheel` [`build_wheel`]'s idle one.
    fn new(wheel: bool) -> Self {
        let mut m = Model {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            up: [true; 3],
            node: 0,
            log: Vec::new(),
            next_id: 0,
            stats: SimStats::default(),
            depth_high_water: 0,
        };
        (0..3).for_each(|n| m.push(SimTime::ZERO, Ev::Start(n)));
        if wheel {
            m.push(SimTime::ZERO, Ev::Start(IDLE));
            for token in 0..IDLE_TIMERS {
                m.push(SimTime::ZERO + IDLE_AFTER, Ev::Timer { node: IDLE, token });
            }
        }
        m
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        self.heap.push(Reverse((at, self.seq, ev)));
        self.seq += 1;
        self.depth_high_water = self.depth_high_water.max(self.heap.len() as u64);
    }

    fn step(&mut self) -> bool {
        let Some(Reverse((at, _, ev))) = self.heap.pop() else {
            return false;
        };
        self.now = at;
        self.stats.events += 1;
        match ev {
            Ev::Start(node) => self.call(node, Call::Start),
            Ev::Packet {
                node,
                iface,
                id,
                ttl,
            } => {
                self.stats.packets_delivered += 1;
                self.call(node, Call::Packet { iface, id, ttl });
            }
            Ev::Timer { node, token } => self.call(node, Call::Timer(token)),
            Ev::LinkFault { link, up } => {
                self.stats.faults_injected += 1;
                self.up[link] = up;
            }
            Ev::DeviceFault { node, code } => {
                self.stats.faults_injected += 1;
                self.call(node, Call::Fault(code));
            }
        }
        true
    }

    fn call(&mut self, node: usize, call: Call) {
        if node == IDLE {
            return;
        }
        self.node = node;
        react(self, call);
    }

    fn due(&self, deadline: SimTime) -> bool {
        self.heap
            .peek()
            .is_some_and(|Reverse((at, ..))| *at <= deadline)
    }
}

impl Io for Model {
    fn record(&mut self, kind: Kind, arg: u64, id: u32) {
        self.log.push((self.now, kind, self.node, arg, id));
    }
    fn fresh_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }
    fn send(&mut self, iface: usize, id: u32, ttl: u8) {
        let (link, node, iface) = WIRING[self.node][iface];
        self.stats.packets_sent += 1;
        if !self.up[link] {
            self.stats.link_down_drops += 1;
            return;
        }
        let spec = links()[link];
        let at = self.now + spec.latency;
        self.push(
            at,
            Ev::Packet {
                node,
                iface,
                id,
                ttl,
            },
        );
        if spec.duplicate > 0.0 {
            self.stats.packets_duplicated += 1;
            self.push(
                at + spec.reorder_window(),
                Ev::Packet {
                    node,
                    iface,
                    id,
                    ttl,
                },
            );
        }
    }
    fn timer(&mut self, after: Duration, token: u64) {
        self.push(
            self.now + after,
            Ev::Timer {
                node: self.node,
                token,
            },
        );
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// `n` `ctx.send`s onto one iface in one instant, from the harness.
    Burst {
        node: usize,
        iface: usize,
        n: u8,
        ttl: u8,
    },
    /// `n` `Sim::inject`s into one iface in one instant.
    Inject {
        node: usize,
        iface: usize,
        n: u8,
        ttl: u8,
    },
    Wake {
        node: usize,
        after_ms: u64,
        token: u64,
    },
    LinkFault {
        after_ms: u64,
        link: usize,
        up: bool,
    },
    DeviceFault {
        after_ms: u64,
        node: usize,
        code: u64,
    },
    RunFor {
        us: u64,
    },
    /// `run_while` until `more` further callbacks have been recorded.
    RunWhile {
        us: u64,
        more: usize,
    },
    Step,
}

fn op() -> impl Strategy<Value = Op> {
    let burst = (0usize..3, 0usize..2, 1u8..6, 0u8..4);
    prop_oneof![
        burst.clone().prop_map(|(node, iface, n, ttl)| Op::Burst {
            node,
            iface,
            n,
            ttl
        }),
        burst.prop_map(|(node, iface, n, ttl)| Op::Inject {
            node,
            iface,
            n,
            ttl
        }),
        (0usize..3, 0u64..8, 0u64..72).prop_map(|(node, after_ms, token)| Op::Wake {
            node,
            after_ms,
            token
        }),
        (0u64..8, 0usize..3, any::<bool>()).prop_map(|(after_ms, link, up)| Op::LinkFault {
            after_ms,
            link,
            up
        }),
        (0u64..8, 0usize..3, 0u64..4).prop_map(|(after_ms, node, code)| Op::DeviceFault {
            after_ms,
            node,
            code
        }),
        (0u64..6000).prop_map(|us| Op::RunFor { us }),
        (0u64..6000, 0usize..12).prop_map(|(us, more)| Op::RunWhile { us, more }),
        Just(Op::Step),
    ]
}

/// Runs `script` through the engine and the reference in lock step, on a
/// small queue and on one that has built its wheel.
fn check(script: &[Op]) {
    run(script, false);
    run(script, true);
}

/// One [`check`] run; with `wheel`, [`build_wheel`] goes first.
fn run(script: &[Op], wheel: bool) {
    let shared = Arc::new(Mutex::new(Shared::default()));
    let mut sim = Sim::new(7);
    let nodes: Vec<NodeId> = (0..3)
        .map(|node| {
            sim.add_node(
                format!("n{node}"),
                Box::new(Recorder {
                    node,
                    shared: Arc::clone(&shared),
                }),
            )
        })
        .collect();
    for (i, spec) in links().into_iter().enumerate() {
        let (near, far) = sim.connect(nodes[i], nodes[(i + 1) % 3], spec);
        assert_eq!(WIRING[i][near], (i, (i + 1) % 3, far), "ring wiring");
    }
    if wheel {
        build_wheel(&mut sim);
    }
    let mut model = Model::new(wheel);
    let ms = Duration::from_millis;

    for op in script {
        match *op {
            Op::Burst {
                node,
                iface,
                n,
                ttl,
            } => {
                let ids: Vec<u32> = (0..n).map(|_| model.fresh_id()).collect();
                shared.lock().unwrap().next_id = model.next_id;
                sim.with_node(nodes[node], |_, ctx| {
                    ids.iter().for_each(|&id| ctx.send(iface, packet(id, ttl)))
                });
                model.node = node;
                ids.iter().for_each(|&id| model.send(iface, id, ttl));
            }
            Op::Inject {
                node,
                iface,
                n,
                ttl,
            } => {
                for _ in 0..n {
                    let id = model.fresh_id();
                    sim.inject(nodes[node], iface, packet(id, ttl));
                    model.push(
                        model.now,
                        Ev::Packet {
                            node,
                            iface,
                            id,
                            ttl,
                        },
                    );
                }
                shared.lock().unwrap().next_id = model.next_id;
            }
            Op::Wake {
                node,
                after_ms,
                token,
            } => {
                sim.with_node(nodes[node], |_, ctx| ctx.set_timer(ms(after_ms), token));
                model.push(model.now + ms(after_ms), Ev::Timer { node, token });
            }
            Op::LinkFault { after_ms, link, up } => {
                let action = if up { LinkAction::Up } else { LinkAction::Down };
                sim.schedule_link_fault(sim.now() + ms(after_ms), link, action);
                model.push(model.now + ms(after_ms), Ev::LinkFault { link, up });
            }
            Op::DeviceFault {
                after_ms,
                node,
                code,
            } => {
                sim.schedule_device_fault(sim.now() + ms(after_ms), nodes[node], code);
                model.push(model.now + ms(after_ms), Ev::DeviceFault { node, code });
            }
            Op::RunFor { us } => {
                sim.run_for(Duration::from_micros(us));
                let deadline = model.now + Duration::from_micros(us);
                while model.due(deadline) {
                    model.step();
                }
                model.now = deadline;
            }
            Op::RunWhile { us, more } => {
                let deadline = sim.now() + Duration::from_micros(us);
                let target = model.log.len() + more;
                // The predicate must be asked after every event — one
                // packet of a burst is one event.
                let mut asked = Vec::new();
                let hit = sim.run_while(deadline, |s| {
                    asked.push(s.stats().events);
                    shared.lock().unwrap().log.len() >= target
                });
                let first = model.stats.events;
                let mut model_hit = model.log.len() >= target;
                while !model_hit && model.due(deadline) {
                    model.step();
                    model_hit = model.log.len() >= target;
                }
                if !model_hit {
                    model.now = deadline;
                }
                assert_eq!(hit, model_hit, "run_while verdict");
                assert_eq!(
                    asked,
                    (first..=model.stats.events).collect::<Vec<_>>(),
                    "predicate calls"
                );
            }
            Op::Step => assert_eq!(sim.step(), model.step(), "step found an event"),
        }
        assert_eq!(sim.now(), model.now, "clock after {op:?} (wheel {wheel})");
        assert_eq!(
            shared.lock().unwrap().log,
            model.log,
            "callbacks after {op:?} (wheel {wheel})"
        );
    }

    let mut idle_events = 0;
    while model.step() {
        idle_events += 1;
    }
    assert_eq!(sim.run_until_idle(), idle_events, "wheel {wheel}");
    assert_eq!(sim.now(), model.now, "wheel {wheel}");
    assert_eq!(shared.lock().unwrap().log, model.log, "wheel {wheel}");
    assert_eq!(sim.stats(), model.stats, "wheel {wheel}");
    assert_eq!(
        sim.queue_stats().depth_high_water,
        model.depth_high_water,
        "wheel {wheel}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_dispatches_in_the_order_of_one_heap_entry_per_packet(
        script in proptest::collection::vec(op(), 0..40),
    ) {
        check(&script);
    }
}

/// The shapes the batching has to get right, spelled out: a burst that is
/// still being consumed while its forwards pile up behind it in the same
/// instant, an inject burst cut by a zero-delay timer, a duplicating link
/// taken down mid-flight, and `run_while` stopping inside a burst.
#[test]
fn same_instant_cascade_by_hand() {
    check(&[
        Op::Burst {
            node: 1,
            iface: 1,
            n: 5,
            ttl: 3,
        },
        Op::RunWhile { us: 5_000, more: 5 },
        Op::Inject {
            node: 0,
            iface: 0,
            n: 3,
            ttl: 2,
        },
        Op::Wake {
            node: 0,
            after_ms: 0,
            token: 24 + 7,
        },
        Op::Inject {
            node: 0,
            iface: 0,
            n: 2,
            ttl: 1,
        },
        Op::Step,
        Op::LinkFault {
            after_ms: 1,
            link: 1,
            up: false,
        },
        Op::DeviceFault {
            after_ms: 1,
            node: 2,
            code: 1,
        },
        Op::RunWhile { us: 3_000, more: 4 },
        Op::LinkFault {
            after_ms: 2,
            link: 1,
            up: true,
        },
        Op::Burst {
            node: 2,
            iface: 1,
            n: 4,
            ttl: 2,
        },
        Op::RunFor { us: 1_500 },
    ]);
}

/// A packet's slot is free the moment its callback runs, so a send from
/// that callback that lands on the same `(instant, node, iface)` reuses
/// it at once. Mid-burst, the new packet joins the burst behind its
/// tail; after the burst's last packet, it starts a burst of its own. On
/// a zero-latency self-link every forward lands where its packet came
/// in, and the callbacks must follow plain FIFO order at one instant.
#[test]
fn a_packet_sent_into_its_own_burst_reuses_its_slot_in_order() {
    for wheel in [false, true] {
        let mut sim = Sim::new(1);
        let shared = Arc::new(Mutex::new(Shared::default()));
        let node = sim.add_node(
            "n0",
            Box::new(Recorder {
                node: 0,
                shared: Arc::clone(&shared),
            }),
        );
        // Out of iface 0, into iface 1 of the same node, no delay.
        assert_eq!(
            sim.connect(node, node, LinkSpec::new(Duration::ZERO)),
            (0, 1)
        );
        if wheel {
            build_wheel(&mut sim);
        }
        sim.run_until(SimTime::ZERO);
        // The first packet is forwarded mid-burst, the last one after the
        // burst's other packets are gone.
        let ttls = [1u8, 0, 0, 2];
        for (id, &ttl) in (1u32..).zip(&ttls) {
            sim.inject(node, 1, packet(id, ttl));
        }
        sim.run_until_idle();
        let mut fifo: std::collections::VecDeque<(u32, u8)> = (1u32..).zip(ttls).collect();
        let mut want = Vec::new();
        while let Some((id, ttl)) = fifo.pop_front() {
            want.push((SimTime::ZERO, Kind::Packet, 0, 1, id));
            if ttl > 0 {
                fifo.push_back((id, ttl - 1));
            }
        }
        assert_eq!(shared.lock().unwrap().log[1..], want[..], "wheel {wheel}");
        assert_eq!(sim.stats().packets_delivered, want.len() as u64);
        assert_eq!(sim.queue_stats().pool_slots, ttls.len() as u64);
    }
}

/// An `inject` burst is a burst like any other: `n` packets into one
/// `(node, iface)` in one instant occupy one queue entry.
#[test]
fn inject_burst_coalesces_into_one_queue_entry() {
    let mut sim = Sim::new(1);
    let shared = Arc::new(Mutex::new(Shared::default()));
    let node = sim.add_node(
        "n0",
        Box::new(Recorder {
            node: 0,
            shared: Arc::clone(&shared),
        }),
    );
    sim.run_until_idle();
    let before = sim.queue_stats().batches_coalesced;
    let n = 100;
    for id in 0..n {
        sim.inject(node, 0, packet(id, 0));
    }
    assert_eq!(
        sim.queue_stats().batches_coalesced - before,
        u64::from(n) - 1
    );
    assert_eq!(sim.queue_stats().depth_high_water, u64::from(n));
    assert_eq!(sim.run_until_idle(), u64::from(n));
    let ids: Vec<u32> = shared.lock().unwrap().log[1..]
        .iter()
        .map(|r| r.4)
        .collect();
    assert_eq!(ids, (0..n).collect::<Vec<_>>());
}
