//! From spy spans to per-layer metrics and `out/trace-<workload>.json`.
//!
//! The span tree of a traced rep is
//!
//! ```text
//! run ─┬─ Sim::run_until ── device(kind) ── app(kind)
//!      └─ driver ────────── device(driver_call) ── app(driver_call)
//! ```
//!
//! where `run` is the rep's run phase, `Sim::run_until` every run-loop
//! call the driver made, and `driver` everything else the benchmark did
//! between them (polling, wave release, world build inside an op,
//! tallying). A span's self time is its duration minus its children's,
//! so the self times of one rep sum to its run wall, and the `*_share`
//! metrics sum to 1.

use crate::clock;
use crate::json::Json;
use crate::rep::Outcome;
use crate::spy::{Kind, Layer, Spans, Spy, SpyApp};
use holepunch::{TcpPeer, TcpPeerStats, UdpPeer, UdpPeerStats};
use punch_nat::{NatDevice, NatStats};
use punch_natcheck::{CheckServer, NatCheckClient};
use punch_net::{NodeId, Router, Sim};
use punch_rendezvous::{RendezvousServer, ServerStats};
use punch_transport::{App, HostDevice, StackStats};

/// Host time the driver spent inside the engine's run loops, and
/// building worlds inside an op.
#[derive(Default)]
pub struct Timeline {
    pub run_loop_ns: u64,
    pub run_loop_calls: u64,
    pub build_ns: u64,
    /// Harvesting done inside the run phase, to be taken off its wall.
    pub excluded_ns: u64,
}

impl Timeline {
    /// Times one `Sim::run_until` / `run_for` / `run_while` call.
    pub fn run_sim<R>(&mut self, sim: &mut Sim, f: impl FnOnce(&mut Sim) -> R) -> R {
        let t = clock::now();
        let r = f(sim);
        self.run_loop_ns += clock::ns_since(t);
        self.run_loop_calls += 1;
        r
    }

    /// Times benchmark bookkeeping that must not count as run time.
    pub fn exclude(&mut self, f: impl FnOnce()) {
        let t = clock::now();
        f();
        self.excluded_ns += clock::ns_since(t);
    }

    /// Times building one world inside an op (`survey_tcp`).
    pub fn build<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = clock::now();
        let r = f();
        self.build_ns += clock::ns_since(t);
        r
    }
}

/// Spans of every instance of one layer, summed.
#[derive(Clone, Default)]
pub struct LayerSpans {
    pub instances: u64,
    pub calls: [u64; 5],
    pub ticks: [u64; 5],
}

impl LayerSpans {
    fn add(&mut self, s: &Spans) {
        self.instances += 1;
        for k in 0..5 {
            self.calls[k] += s.calls[k];
            self.ticks[k] += s.ticks[k];
        }
    }

    fn calls_where(&self, driver: bool) -> u64 {
        Kind::ALL
            .iter()
            .filter(|&&k| (k == Kind::Driver) == driver)
            .map(|&k| self.calls[k as usize])
            .sum()
    }

    fn ticks_where(&self, driver: bool) -> u64 {
        Kind::ALL
            .iter()
            .filter(|&&k| (k == Kind::Driver) == driver)
            .map(|&k| self.ticks[k as usize])
            .sum()
    }

    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }
}

/// Everything read back out of a traced world after its run: the spans,
/// and the program's own counters where the layers keep them.
#[derive(Default)]
pub struct Harvest {
    /// Indexed by [`Layer::index`].
    pub layers: [LayerSpans; 7],
    /// App spans by the host layer they ran under (client, server).
    nested: [LayerSpans; 2],
    pub nat: NatStats,
    pub stack: StackStats,
    pub server: ServerStats,
    pub udp: UdpPeerStats,
    pub tcp: TcpPeerStats,
}

/// An app whose own counters the harvest reads.
pub trait Counted: App {
    fn count(&self, _h: &mut Harvest) {}
}

impl Counted for NatCheckClient {}
impl Counted for CheckServer {}

impl Counted for UdpPeer {
    fn count(&self, h: &mut Harvest) {
        let s = self.stats();
        h.udp.probes_sent += s.probes_sent;
        h.udp.repunches += s.repunches;
        h.udp.keepalives_sent += s.keepalives_sent;
    }
}

impl Counted for TcpPeer {
    fn count(&self, h: &mut Harvest) {
        let s = self.stats();
        h.tcp.connects_started += s.connects_started;
        h.tcp.retries += s.retries;
        h.tcp.streams_authenticated += s.streams_authenticated;
    }
}

impl Counted for RendezvousServer {
    fn count(&self, h: &mut Harvest) {
        h.server.add(&self.stats());
    }
}

impl Harvest {
    pub fn router(&mut self, sim: &Sim, node: NodeId) {
        let spy = sim.device::<Spy<Router>>(node);
        self.layers[spy.layer.index()].add(&spy.spans);
    }

    pub fn nat(&mut self, sim: &Sim, node: NodeId) {
        let spy = sim.device::<Spy<NatDevice>>(node);
        self.layers[spy.layer.index()].add(&spy.spans);
        let s = spy.inner.stats();
        self.nat.mappings_created += s.mappings_created;
        self.nat.inbound_passed += s.inbound_passed;
        self.nat.inbound_blocked += s.inbound_blocked;
    }

    /// A host running an `A`.
    pub fn host<A: Counted>(&mut self, sim: &Sim, node: NodeId) {
        let spy = sim.device::<Spy<HostDevice>>(node);
        self.layers[spy.layer.index()].add(&spy.spans);
        let s = spy.inner.stack().stats();
        self.stack.retransmits += s.retransmits;
        self.stack.checksum_drops += s.checksum_drops;
        let app = spy.inner.app::<SpyApp<A>>();
        self.layers[app.layer.index()].add(&app.spans);
        self.nested[usize::from(spy.layer == Layer::ServerStack)].add(&app.spans);
        app.inner.count(self);
    }
}

/// A traced world after its run: the harvest, what the driver timed, and
/// `core.direct_per_probe` as (useful, attempts).
pub struct Traced {
    pub harvest: Harvest,
    pub timeline: Timeline,
    pub useful_per_attempt: (u64, u64),
}

/// One traced rep, reduced.
pub struct Trace {
    /// Every per-layer metric a traced rep can compute on its own.
    pub metrics: Vec<(&'static str, f64)>,
    /// The body of `out/trace-<workload>.json`.
    pub file: Vec<(&'static str, Json)>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

const DEVICE_LAYERS: [Layer; 4] = [
    Layer::Router,
    Layer::Nat,
    Layer::ClientStack,
    Layer::ServerStack,
];

/// Nanoseconds of the span tree's nodes, with the spans' own cost
/// removed.
///
/// A span reads the tick counter twice: about half of that pair lands
/// inside the interval it measures and half outside, in its parent. So a
/// span loses half a pair per call of its own and a whole pair per call
/// nested inside it — a 100 ns router call is then not reported as
/// 130 ns, and the layer shares predict the *untraced* run.
struct SelfTimes {
    /// The run phase.
    run: f64,
    /// Time inside `Sim::run_until` and friends, minus the device spans
    /// the engine dispatched.
    engine: f64,
    /// Time outside them, minus the device spans the driver entered.
    driver: f64,
    /// Indexed by [`Layer::index`]: span minus children.
    layers: [f64; 7],
}

fn self_times(run_ns: u64, t: &Traced, ns_per_tick: f64, pair_ns: f64) -> SelfTimes {
    let h = &t.harvest;
    // Corrected span time of a layer, split by who entered it.
    let own = |l: &LayerSpans, driver: bool| {
        l.ticks_where(driver) as f64 * ns_per_tick - pair_ns / 2.0 * l.calls_where(driver) as f64
    };
    let nested_of = |layer: Layer| match layer {
        Layer::ClientStack => Some(&h.nested[0]),
        Layer::ServerStack => Some(&h.nested[1]),
        _ => None,
    };
    // A device span also contains the whole pair of each app span in it.
    let device = |layer: Layer, driver: bool| {
        let inner = nested_of(layer).map_or(0.0, |n| pair_ns * n.calls_where(driver) as f64);
        (own(&h.layers[layer.index()], driver) - inner).max(0.0)
    };
    let layers = Layer::ALL.map(|layer| {
        let ns = if DEVICE_LAYERS.contains(&layer) {
            let apps = nested_of(layer).map_or(0.0, |n| own(n, false) + own(n, true));
            device(layer, false) + device(layer, true) - apps
        } else {
            let l = &h.layers[layer.index()];
            own(l, false) + own(l, true)
        };
        ns.max(0.0)
    });
    let calls =
        |driver: bool| -> f64 { h.layers.iter().map(|l| l.calls_where(driver) as f64).sum() };
    let devices = |driver: bool| -> f64 { DEVICE_LAYERS.iter().map(|&l| device(l, driver)).sum() };
    let run = (run_ns as f64 - pair_ns * (calls(false) + calls(true))).max(1.0);
    let run_loop = (t.timeline.run_loop_ns as f64 - pair_ns * calls(false)).max(0.0);
    SelfTimes {
        run,
        engine: (run_loop - devices(false)).max(0.0),
        driver: (run - run_loop - devices(true)).max(0.0),
        layers,
    }
}

fn metrics(st: &SelfTimes, t: &Traced, out: &Outcome) -> Vec<(&'static str, f64)> {
    let h = &t.harvest;
    let ops = out.ops as f64;
    let events = out.stats.events as f64;
    let self_ns = |layer: Layer| st.layers[layer.index()];
    let share = |layer: Layer| st.layers[layer.index()] / st.run;
    let per_call =
        |layer: Layer| ratio(self_ns(layer), h.layers[layer.index()].total_calls() as f64);
    let per_op = |count: u64| ratio(count as f64, ops);
    let (stats, queue) = (&out.stats, &out.queue);
    vec![
        ("net.engine_self_share", st.engine / st.run),
        ("net.engine_self_ns_per_event", ratio(st.engine, events)),
        ("net.router_share", share(Layer::Router)),
        ("net.router_ns_per_call", per_call(Layer::Router)),
        ("net.events_per_op", per_op(stats.events)),
        ("net.packets_per_op", per_op(stats.packets_sent)),
        ("net.device_drops_per_op", per_op(stats.device_drops)),
        ("net.queue_depth_hi", queue.depth_high_water as f64),
        (
            "net.pool_recycle_share",
            ratio(
                queue.pool_recycled as f64,
                (queue.pool_recycled + queue.pool_slots) as f64,
            ),
        ),
        (
            "net.batch_coalesce_share",
            ratio(
                queue.batches_coalesced as f64,
                stats.packets_delivered as f64,
            ),
        ),
        ("nat.share", share(Layer::Nat)),
        ("nat.ns_per_call", per_call(Layer::Nat)),
        (
            "nat.calls_per_op",
            per_op(h.layers[Layer::Nat.index()].total_calls()),
        ),
        ("nat.mappings_per_op", per_op(h.nat.mappings_created)),
        (
            "nat.inbound_blocked_share",
            ratio(
                h.nat.inbound_blocked as f64,
                (h.nat.inbound_passed + h.nat.inbound_blocked) as f64,
            ),
        ),
        ("transport.client_self_share", share(Layer::ClientStack)),
        (
            "transport.client_self_ns_per_call",
            per_call(Layer::ClientStack),
        ),
        ("transport.server_self_share", share(Layer::ServerStack)),
        (
            "transport.server_self_ns_per_call",
            per_call(Layer::ServerStack),
        ),
        ("transport.retransmits_per_op", per_op(h.stack.retransmits)),
        ("transport.checksum_drops", h.stack.checksum_drops as f64),
        ("rendezvous.server_share", share(Layer::Rendezvous)),
        ("rendezvous.server_ns_per_call", per_call(Layer::Rendezvous)),
        (
            "rendezvous.registrations_per_op",
            per_op(h.server.registrations),
        ),
        (
            "rendezvous.introductions_per_op",
            per_op(h.server.introductions),
        ),
        ("rendezvous.forwards_per_op", per_op(h.server.forwards)),
        (
            "rendezvous.errors",
            (h.server.errors + h.server.forward_errors) as f64,
        ),
        ("core.peer_share", share(Layer::Peer)),
        ("core.peer_ns_per_call", per_call(Layer::Peer)),
        ("core.probes_per_op", per_op(h.udp.probes_sent)),
        ("core.keepalives_per_op", per_op(h.udp.keepalives_sent)),
        ("core.repunches_per_op", per_op(h.udp.repunches)),
        (
            "core.direct_per_probe",
            ratio(t.useful_per_attempt.0 as f64, t.useful_per_attempt.1 as f64),
        ),
        ("core.tcp_retries_per_op", per_op(h.tcp.retries)),
        ("natcheck.app_share", share(Layer::Natcheck)),
        ("natcheck.app_ns_per_call", per_call(Layer::Natcheck)),
        ("lab.driver_share", st.driver / st.run),
        ("lab.world_build_share", t.timeline.build_ns as f64 / st.run),
    ]
}

/// The aggregated span tree: one entry per node, raw and corrected.
fn spans(run_ns: u64, st: &SelfTimes, t: &Traced, ns_per_tick: f64) -> Vec<Json> {
    let node = |name: &str, parent: &str, calls: u64, raw_ns: f64, self_ns: f64| {
        vec![
            ("name", Json::str(name)),
            ("parent", Json::str(parent)),
            ("calls", Json::Int(calls)),
            ("raw_ns", Json::Num(raw_ns.round())),
            ("self_ns", Json::Num(self_ns.round())),
        ]
    };
    let tl = &t.timeline;
    let outside = run_ns.saturating_sub(tl.run_loop_ns) as f64;
    let mut driver = node("driver", "run", 1, outside, st.driver);
    driver.push(("world_build_ns", Json::Int(tl.build_ns)));
    let mut spans = vec![
        Json::obj(node("run", "", 1, run_ns as f64, 0.0)),
        Json::obj(node(
            "Sim::run_until",
            "run",
            tl.run_loop_calls,
            tl.run_loop_ns as f64,
            st.engine,
        )),
        Json::obj(driver),
    ];
    for layer in Layer::ALL {
        let l = &t.harvest.layers[layer.index()];
        if l.instances == 0 {
            continue;
        }
        let parent = if DEVICE_LAYERS.contains(&layer) {
            "Sim::run_until | driver (driver_call)"
        } else {
            "transport.client_host | transport.server_host"
        };
        let raw_ns = l.ticks.iter().sum::<u64>() as f64 * ns_per_tick;
        let mut fields = node(
            layer.name(),
            parent,
            l.total_calls(),
            raw_ns,
            st.layers[layer.index()],
        );
        fields.push(("instances", Json::Int(l.instances)));
        fields.push((
            "by_kind",
            Json::obj(Kind::ALL.iter().map(|&k| {
                let raw_ns = (l.ticks[k as usize] as f64 * ns_per_tick).round();
                (
                    k.name(),
                    Json::obj([
                        ("calls", Json::Int(l.calls[k as usize])),
                        ("raw_ns", Json::Num(raw_ns)),
                    ]),
                )
            })),
        ));
        spans.push(Json::obj(fields));
    }
    spans
}

/// Raw span time (children included) by sim epoch and layer.
fn epochs(ns_per_tick: f64) -> Vec<Json> {
    let table = crate::spy::take_epochs();
    let busy = table
        .iter()
        .enumerate()
        .filter(|(_, row)| row.iter().any(|&(calls, _)| calls > 0));
    busy.map(|(e, row)| {
        let layers = Layer::ALL
            .iter()
            .zip(row)
            .filter(|(_, &(calls, _))| calls > 0);
        Json::obj([
            (
                "sim_ms",
                Json::Int(e as u64 * crate::spy::EPOCH_NS / 1_000_000),
            ),
            (
                "layers",
                Json::obj(layers.map(|(l, &(calls, ticks))| {
                    let raw_ns = (ticks as f64 * ns_per_tick).round();
                    (
                        l.name(),
                        Json::obj([("calls", Json::Int(calls)), ("raw_ns", Json::Num(raw_ns))]),
                    )
                })),
            ),
        ])
    })
    .collect()
}

/// Reduces a traced rep to its metrics and its trace file. `ns_per_tick`
/// converts span ticks; `pair_ns` is what one span costs
/// (`clock::pair_cost_ticks`, converted).
pub fn reduce(run_ns: u64, t: &Traced, out: &Outcome, ns_per_tick: f64, pair_ns: f64) -> Trace {
    let st = self_times(run_ns, t, ns_per_tick, pair_ns);
    let metrics = metrics(&st, t, out);
    let file = vec![
        ("ops", Json::Int(out.ops)),
        ("sim_digest", Json::str(format!("{:016x}", out.digest))),
        ("outcome", Json::str(out.summary.clone())),
        ("span_cost_ns", Json::Num(pair_ns)),
        ("ns_per_tick", Json::Num(ns_per_tick)),
        ("spans", Json::Arr(spans(run_ns, &st, t, ns_per_tick))),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(k, v)| (k, Json::Num(v)))),
        ),
        ("epochs", Json::Arr(epochs(ns_per_tick))),
    ];
    Trace { metrics, file }
}
