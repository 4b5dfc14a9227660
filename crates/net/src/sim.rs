//! The discrete-event engine.
//!
//! [`Sim`] owns every node, link, and pending event. Execution is
//! single-threaded: events are processed in `(time, insertion sequence)`
//! order, so any two runs with the same seed and same setup calls are
//! identical — the property the whole test and survey methodology rests on.
//!
//! A packet reaches a device one way: `SimCore::deliver_packet` queues
//! it (from a link, a duplication fault or [`Sim::inject`]) and
//! [`Sim::step`] hands it to `on_packet`; every run loop is a caller of
//! `step`.

use crate::calendar::CalendarQueue;
use crate::fault::LinkAction;
use crate::link::LinkSpec;
use crate::metrics::{Counters, MetricKey, MetricsSnapshot};
use crate::node::{Ctx, Device, IfaceId, NodeId};
use crate::packet::Packet;
use crate::pool::PacketArena;
use crate::seed::{derive_seed, mix};
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Counters maintained by the engine.
///
/// All counters are deterministic functions of the seed and the API
/// call sequence, except `busy_nanos`, which measures host wall-clock
/// time and therefore varies run to run. Equality deliberately ignores
/// `busy_nanos` so determinism tests can compare whole `SimStats`
/// values.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    /// Events dispatched.
    pub events: u64,
    /// Packets transmitted by devices.
    pub packets_sent: u64,
    /// Packets delivered to devices.
    pub packets_delivered: u64,
    /// Packets dropped by link loss.
    pub packets_lost: u64,
    /// Packets dropped by devices (NAT filtering, no route, ...).
    pub device_drops: u64,
    /// Packets dropped because the link was administratively down.
    pub link_down_drops: u64,
    /// Extra deliveries created by link duplication faults.
    pub packets_duplicated: u64,
    /// Packets exempted from FIFO ordering by link reordering faults.
    pub packets_reordered: u64,
    /// Packets damaged in flight by link corruption faults (delivered
    /// with a bad checksum, not dropped).
    pub packets_corrupted: u64,
    /// Packets whose payload was cut short by link truncation faults.
    pub packets_truncated: u64,
    /// Scripted fault events (link and device) that have fired.
    pub faults_injected: u64,
    /// Host wall-clock nanoseconds spent inside the run loops
    /// ([`Sim::run_until`], [`Sim::run_until_idle`], [`Sim::run_while`]).
    /// Not deterministic; excluded from equality.
    pub busy_nanos: u64,
}

impl SimStats {
    /// The deterministic counters — every field but `busy_nanos` — named
    /// once, for `==` and `+=`.
    fn counters(&mut self) -> [&mut u64; 11] {
        [
            &mut self.events,
            &mut self.packets_sent,
            &mut self.packets_delivered,
            &mut self.packets_lost,
            &mut self.device_drops,
            &mut self.link_down_drops,
            &mut self.packets_duplicated,
            &mut self.packets_reordered,
            &mut self.packets_corrupted,
            &mut self.packets_truncated,
            &mut self.faults_injected,
        ]
    }
}

impl PartialEq for SimStats {
    fn eq(&self, other: &Self) -> bool {
        // busy_nanos is wall-clock measurement metadata, not simulation
        // state — see the struct docs.
        let (mut a, mut b) = (*self, *other);
        a.counters() == b.counters()
    }
}

impl Eq for SimStats {}

/// Sums every counter, `busy_nanos` included: how the shards of a world
/// add up to one set of engine counters.
impl std::ops::AddAssign for SimStats {
    fn add_assign(&mut self, mut other: Self) {
        for (mine, theirs) in self.counters().into_iter().zip(other.counters()) {
            *mine += *theirs;
        }
        self.busy_nanos += other.busy_nanos;
    }
}

/// Identifies a link, as returned by [`Sim::connect`] order (the first
/// `connect` call creates link 0, the second link 1, ...). Stable for
/// the lifetime of the simulation; links are never removed, only taken
/// down.
pub type LinkId = usize;

/// Queue and buffer-pool health counters, separate from [`SimStats`] so
/// the simulation-outcome struct (and everything printed from it) is
/// untouched by engine-internals instrumentation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Most events pending at once (the old `heap.len()` high-water mark).
    pub depth_high_water: u64,
    /// Packet-arena slots ever allocated (peak in-flight packets).
    pub pool_slots: u64,
    /// Packet inserts that recycled a freed slot instead of allocating.
    pub pool_recycled: u64,
    /// Deliveries that rode an existing batch instead of a fresh queue
    /// entry — each one is a saved queue operation.
    pub batches_coalesced: u64,
}

enum EventKind {
    Start(NodeId),
    /// Packet delivery, the only kind: a burst of same-instant deliveries
    /// into one interface (usually a burst of one) is one queue entry
    /// carrying the arena handle of its first packet, whose slot links to
    /// the next; consumed one packet per [`Sim::step`].
    Deliver {
        node: NodeId,
        iface: IfaceId,
        head: u32,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    /// Scripted link fault from a [`crate::fault::FaultPlan`]. Boxed:
    /// `LinkAction::Set` carries a whole `LinkSpec`, which would
    /// otherwise dominate the size of every queued event.
    LinkFault { link: LinkId, action: Box<LinkAction> },
    /// Scripted device fault from a [`crate::fault::FaultPlan`].
    DeviceFault { node: NodeId, fault: u64 },
}

/// The burst currently accepting same-instant deliveries, by the arena
/// handle of its last packet.
///
/// `next_seq` is the engine sequence the next coalesced delivery must
/// take; any unrelated event pushed in between advances `seq` past it,
/// which closes the batch automatically and keeps the `(time, seq)`
/// event order exactly what per-packet scheduling would have produced.
struct OpenBatch {
    at: SimTime,
    node: NodeId,
    iface: IfaceId,
    tail: u32,
    next_seq: u64,
}

/// A node's interfaces in `connect` order, each packed as
/// `link << 1 | side`. A host or a NAT has one or two and keeps them
/// inline; a third (in practice, a router's) moves the list to the heap.
enum Ifaces {
    Inline(u8, [u32; 2]),
    Spilled(Vec<u32>),
}

impl Ifaces {
    fn as_slice(&self) -> &[u32] {
        match self {
            Ifaces::Inline(n, refs) => &refs[..usize::from(*n)],
            Ifaces::Spilled(refs) => refs,
        }
    }

    /// The `(link, side)` behind interface `iface`.
    fn get(&self, iface: IfaceId) -> Option<(LinkId, usize)> {
        let packed = *self.as_slice().get(iface)?;
        Some(((packed >> 1) as LinkId, (packed & 1) as usize))
    }

    fn push(&mut self, link: LinkId, side: usize) {
        assert!(link < 1 << 31, "too many links");
        let packed = (link as u32) << 1 | side as u32;
        match self {
            Ifaces::Inline(n @ 0..=1, refs) => {
                refs[usize::from(*n)] = packed;
                *n += 1;
            }
            Ifaces::Inline(_, [first, second]) => {
                *self = Ifaces::Spilled(vec![*first, *second, packed]);
            }
            Ifaces::Spilled(refs) => refs.push(packed),
        }
    }
}

/// What the engine keeps for every node: its interfaces and where its
/// RNG stream comes from. The stream itself is made at the node's first
/// draw (`SimCore::node_rng`), so a node that never draws (in a sharded
/// world, every NAT and router) costs no generator.
struct NodeMeta {
    ifaces: Ifaces,
    /// The seed of the node's stream, derived at `add_node`.
    seed: u64,
    /// The node's generator in `SimCore::rngs`, once it has drawn.
    rng: Option<u32>,
}

/// What the engine keeps for every link. Its transmission properties
/// are an index into `SimCore::specs`, which nearly every link shares.
struct LinkState {
    spec: u32,
    ends: [(NodeId, u32); 2],
    /// Links are FIFO per direction: jitter may not reorder packets.
    last_arrival: [SimTime; 2],
    /// Administrative state: a down link drops everything offered to it.
    up: bool,
}

// One per node and one per link: 80 008 of each in the benchmark's
// `crowd_udp`.
const _: () = assert!(std::mem::size_of::<NodeMeta>() <= 40);
const _: () = assert!(std::mem::size_of::<LinkState>() <= 40);

/// The generator of `meta`'s node, made from its seed on first use. It
/// takes only the two fields so a caller keeps the rest of `SimCore`.
fn lazy_rng<'a>(rngs: &'a mut Vec<StdRng>, meta: &mut NodeMeta) -> &'a mut StdRng {
    let slot = *meta.rng.get_or_insert_with(|| {
        rngs.push(StdRng::seed_from_u64(meta.seed));
        (rngs.len() - 1) as u32
    });
    &mut rngs[slot as usize]
}

/// Whether sending over `spec` draws from the sender's RNG: any nonzero
/// loss, jitter or fault knob.
fn draws(spec: &LinkSpec) -> bool {
    let knobs = [
        spec.loss,
        spec.reorder,
        spec.duplicate,
        spec.corrupt,
        spec.truncate,
    ];
    !spec.jitter.is_zero() || knobs.iter().any(|&p| p > 0.0)
}

/// Engine internals shared with device callbacks through [`Ctx`].
pub(crate) struct SimCore {
    pub(crate) time: SimTime,
    queue: CalendarQueue<EventKind>,
    seq: u64,
    arena: PacketArena,
    open_batch: Option<OpenBatch>,
    /// Logical events pending: every scheduled delivery counts, whether
    /// it occupies its own queue entry or rides a batch. Matches what
    /// `heap.len()` measured before batching existed.
    pending: usize,
    depth_high_water: u64,
    coalesced: u64,
    links: Vec<LinkState>,
    /// Every distinct `LinkSpec` a link has used; a world has a handful.
    specs: Vec<LinkSpec>,
    nodes: Vec<NodeMeta>,
    /// The generators of the nodes that have drawn, in first-draw order.
    rngs: Vec<StdRng>,
    /// The metrics registry, when enabled; [`Ctx`]'s `metric_*` methods
    /// write through it. `None` costs a caller one branch — no
    /// allocation, no RNG draw.
    pub(crate) metrics: Option<MetricsSnapshot>,
    stats: SimStats,
}

impl SimCore {
    fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, kind);
        self.pending += 1;
        self.note_queue_depth();
    }

    /// Tracks the logical queue depth: an always-on high-water mark (one
    /// compare) plus the metrics gauge when metrics are enabled. The
    /// gauge value is the pending-event count, exactly what the
    /// pre-calendar engine exported from `heap.len()`.
    #[inline]
    fn note_queue_depth(&mut self) {
        let depth = self.pending as u64;
        if depth > self.depth_high_water {
            self.depth_high_water = depth;
        }
        if let Some(m) = &mut self.metrics {
            m.gauge_max(MetricKey::plain("net.queue.depth.max"), self.pending as i64);
        }
    }

    /// Schedules one packet delivery — the only way a packet is queued —
    /// coalescing into the open batch when this delivery lands on the same
    /// `(instant, node, iface)` with no intervening event. Either way the
    /// delivery consumes exactly one engine sequence number, so the
    /// `(time, seq)` dispatch order — and therefore every callback and pinned
    /// artifact — is identical to per-packet queue entries.
    fn deliver_packet(&mut self, at: SimTime, node: NodeId, iface: IfaceId, pkt: Packet) {
        let (h, reused) = self.arena.insert(pkt);
        if let Some(m) = &mut self.metrics {
            if reused {
                m.inc_by(MetricKey::plain("net.pool.recycled"), 1);
            }
            let slots = self.arena.slot_count() as i64;
            m.gauge_max(MetricKey::plain("net.pool.slots.max"), slots);
        }
        match &mut self.open_batch {
            Some(ob) if (ob.at, ob.node, ob.iface, ob.next_seq) == (at, node, iface, self.seq) => {
                self.arena.link(ob.tail, h);
                ob.tail = h;
                self.seq += 1;
                ob.next_seq = self.seq;
                self.pending += 1;
                self.coalesced += 1;
                self.note_queue_depth();
            }
            _ => {
                self.push(at, EventKind::Deliver { node, iface, head: h });
                let next_seq = self.seq;
                self.open_batch = Some(OpenBatch { at, node, iface, tail: h, next_seq });
            }
        }
    }

    pub(crate) fn schedule_timer(&mut self, node: NodeId, after: Duration, token: u64) {
        let at = self.time + after;
        self.push(at, EventKind::Timer { node, token });
    }

    pub(crate) fn iface_count(&self, node: NodeId) -> usize {
        self.nodes[node.index()].ifaces.as_slice().len()
    }

    /// The node's generator, made at its first draw: nothing drew from
    /// the stream before, so it is the stream an eagerly made one gives.
    pub(crate) fn node_rng(&mut self, node: NodeId) -> &mut StdRng {
        lazy_rng(&mut self.rngs, &mut self.nodes[node.index()])
    }

    /// The index of `spec` in `specs`, added if no equal spec is there.
    /// A linear scan: worlds have a handful of distinct specs.
    fn intern(&mut self, spec: LinkSpec) -> u32 {
        let at = self
            .specs
            .iter()
            .position(|s| *s == spec)
            .unwrap_or_else(|| {
                self.specs.push(spec);
                self.specs.len() - 1
            });
        at as u32
    }

    pub(crate) fn note_device_drop(&mut self, reason: &'static str) {
        self.stats.device_drops += 1;
        // `SimStats` has one total; the registry keeps it per reason.
        if let Some(m) = &mut self.metrics {
            m.inc_by(MetricKey::labeled("net.drop.device", reason), 1);
        }
    }

    pub(crate) fn transmit(&mut self, node: NodeId, iface: IfaceId, pkt: Packet) {
        #[expect(clippy::panic, reason = "sim API contract: naming a missing iface is a harness bug, reported loudly")]
        let (link_idx, side) = self.nodes[node.index()]
            .ifaces
            .get(iface)
            .unwrap_or_else(|| panic!("node {node} sent on unconnected iface {iface}"));
        self.stats.packets_sent += 1;

        let link = &self.links[link_idx];
        if !link.up {
            self.stats.link_down_drops += 1;
            return;
        }
        let spec = self.specs[link.spec as usize];
        // Every draw comes from the sender's RNG stream so each node's
        // draws are independent of unrelated traffic elsewhere. A link
        // with nothing random asks for no generator, so a node that only
        // sends over such links never has one made.
        let (jitter, hold, duplicated, corrupt_bit, truncate_raw) = if !draws(&spec) {
            (Duration::ZERO, None, false, None, None)
        } else {
            let rng = lazy_rng(&mut self.rngs, &mut self.nodes[node.index()]);
            if spec.loss > 0.0 {
                let roll: f64 = rng.gen();
                if roll < spec.loss {
                    self.stats.packets_lost += 1;
                    return;
                }
            }
            let jitter = if spec.jitter.is_zero() {
                Duration::ZERO
            } else {
                let bound = spec.jitter.as_nanos() as u64;
                Duration::from_nanos(rng.gen_range(0..=bound))
            };
            // Fault knobs draw only when enabled, in a fixed order
            // (reorder, duplicate, corrupt, truncate), so links without
            // them keep byte-identical RNG streams.
            let hold = if spec.reorder > 0.0 && rng.gen::<f64>() < spec.reorder {
                let bound = spec.reorder_window().as_nanos() as u64;
                Some(Duration::from_nanos(rng.gen_range(1..=bound.max(1))))
            } else {
                None
            };
            let duplicated = spec.duplicate > 0.0 && rng.gen::<f64>() < spec.duplicate;
            // Damage draws: the bit/length choice is a second raw draw so
            // the stream shape is independent of the payload size.
            let corrupt_bit =
                (spec.corrupt > 0.0 && rng.gen::<f64>() < spec.corrupt).then(|| rng.gen::<u64>());
            let truncate_raw =
                (spec.truncate > 0.0 && rng.gen::<f64>() < spec.truncate).then(|| rng.gen::<u64>());
            (jitter, hold, duplicated, corrupt_bit, truncate_raw)
        };

        let mut pkt = pkt;
        if let Some(bit) = corrupt_bit {
            pkt.corrupt_bit(bit);
            self.stats.packets_corrupted += 1;
        }
        if let Some(raw) = truncate_raw {
            let len = pkt.payload_len();
            if len > 0 {
                // Cut to a strictly shorter length; the stale checksum
                // (which covers the length) makes even zero-byte tails
                // detectable.
                pkt.truncate_payload((raw % len as u64) as usize);
                self.stats.packets_truncated += 1;
            }
        }

        let link = &mut self.links[link_idx];
        let base = self.time + spec.latency + jitter;
        let arrive = match hold {
            // A reordered packet is held past the FIFO clamp and does not
            // advance it, so in-order traffic behind it overtakes.
            Some(extra) => base + extra,
            None => {
                // Physical links deliver in order; jitter shifts delay but
                // must not reorder (TCP over a reordering path degrades
                // unrealistically).
                let a = base.max(link.last_arrival[side]);
                link.last_arrival[side] = a;
                a
            }
        };
        let (peer, peer_iface) = link.ends[1 - side];
        let peer_iface = peer_iface as IfaceId;
        if hold.is_some() {
            self.stats.packets_reordered += 1;
        }
        // The duplicate trails the original by the reorder window and is
        // likewise exempt from the FIFO clamp (it is a fault, not traffic).
        let dup = duplicated.then(|| (arrive + spec.reorder_window(), pkt.clone()));
        self.deliver_packet(arrive, peer, peer_iface, pkt);
        if let Some((dup_at, dup_pkt)) = dup {
            self.stats.packets_duplicated += 1;
            self.deliver_packet(dup_at, peer, peer_iface, dup_pkt);
        }
    }
}

/// The simulation: nodes, links, clock, and event queue.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Sim {
    core: SimCore,
    devices: Vec<Box<dyn Device>>,
    seed: u64,
    named_rng: bool,
}

/// Safety valve for [`Sim::run_until_idle`]: panic after this many events,
/// which in practice means a device is re-arming timers forever.
const IDLE_EVENT_CAP: u64 = 50_000_000;

impl Sim {
    /// Creates an empty simulation. All randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            core: SimCore {
                time: SimTime::ZERO,
                // The calendar queue's wheel is sized from the node
                // population (see `add_node`) and the links, so a
                // three-node test and a million-endpoint shard both get a
                // right-sized queue instead of one fixed pre-size.
                queue: CalendarQueue::new(),
                seq: 0,
                arena: PacketArena::new(),
                open_batch: None,
                pending: 0,
                depth_high_water: 0,
                coalesced: 0,
                links: Vec::new(),
                specs: Vec::new(),
                nodes: Vec::new(),
                rngs: Vec::new(),
                metrics: None,
                stats: SimStats::default(),
            },
            devices: Vec::new(),
            seed,
            named_rng: false,
        }
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.time
    }

    /// Returns engine counters.
    pub fn stats(&self) -> SimStats {
        self.core.stats
    }

    /// Returns queue and buffer-pool health counters.
    pub fn queue_stats(&self) -> QueueStats {
        QueueStats {
            depth_high_water: self.core.depth_high_water,
            pool_slots: self.core.arena.slot_count() as u64,
            pool_recycled: self.core.arena.recycled(),
            batches_coalesced: self.core.coalesced,
        }
    }

    /// Switches node RNG streams from id-derived to name-derived seeds.
    ///
    /// By default a node's stream is a function of `(sim seed, NodeId)`,
    /// so inserting a node shifts the streams of every node added after
    /// it. With named streams, a node's randomness depends only on the
    /// sim seed and its name — the property sharded worlds rely on to
    /// keep behaviour byte-identical however the population is split
    /// across shards. Nodes sharing a name share a stream; give nodes
    /// globally unique names under this mode.
    ///
    /// Either way the seed is fixed at [`Sim::add_node`] and the stream
    /// is made at the node's first draw, starting from its first value
    /// however late that draw comes.
    ///
    /// # Panics
    ///
    /// Panics if any node has already been added (its seed was already
    /// derived from the id-based scheme).
    pub fn use_named_rng_streams(&mut self) {
        assert!(
            self.devices.is_empty(),
            "use_named_rng_streams must be called before add_node"
        );
        self.named_rng = true;
    }

    /// Adds a node running `device`; its `on_start` runs when the
    /// simulation next executes. The name matters only under [`Sim::use_named_rng_streams`], where
    /// it seeds the node's RNG stream.
    pub fn add_node(&mut self, name: impl AsRef<str>, device: Box<dyn Device>) -> NodeId {
        #[expect(clippy::expect_used, reason = "node count is harness-bounded, nowhere near 2^32")]
        let id = NodeId(u32::try_from(self.devices.len()).expect("too many nodes"));
        let seed = if self.named_rng {
            derive_seed(self.seed, name.as_ref(), 0)
        } else {
            mix(self.seed ^ mix(id.0 as u64 + 1))
        };
        self.core.nodes.push(NodeMeta {
            ifaces: Ifaces::Inline(0, [0; 2]),
            seed,
            rng: None,
        });
        self.devices.push(device);
        self.core.queue.ensure_capacity_for(self.devices.len());
        self.core.push(self.core.time, EventKind::Start(id));
        id
    }

    /// Returns the number of nodes.
    pub fn node_count(&self) -> usize {
        self.devices.len()
    }

    /// Connects two nodes with a bidirectional link, allocating the next
    /// interface number on each; returns `(iface_on_a, iface_on_b)`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (IfaceId, IfaceId) {
        let link = self.core.links.len();
        let ia = self.core.iface_count(a);
        let ib = if a == b {
            ia + 1
        } else {
            self.core.iface_count(b)
        };
        self.core.nodes[a.index()].ifaces.push(link, 0);
        self.core.nodes[b.index()].ifaces.push(link, 1);
        self.core.queue.ensure_horizon(spec.latency + spec.jitter);
        let spec = self.core.intern(spec);
        self.core.links.push(LinkState {
            spec,
            ends: [(a, ia as u32), (b, ib as u32)],
            last_arrival: [SimTime::ZERO; 2],
            up: true,
        });
        (ia, ib)
    }

    /// Returns the link attached to `node`'s interface `iface`.
    ///
    /// # Panics
    ///
    /// Panics if the interface is not connected.
    pub fn link_of(&self, node: NodeId, iface: IfaceId) -> LinkId {
        #[expect(clippy::panic, reason = "sim API contract: naming a missing iface is a harness bug, reported loudly")]
        let (link, _) = self.core.nodes[node.index()]
            .ifaces
            .get(iface)
            .unwrap_or_else(|| panic!("node {node} has no iface {iface}"));
        link
    }

    /// Schedules a scripted link fault to fire at `at` (absolute
    /// simulated time). Usually driven through
    /// [`crate::fault::FaultPlan`] rather than directly.
    pub fn schedule_link_fault(&mut self, at: SimTime, link: LinkId, action: LinkAction) {
        assert!(link < self.core.links.len(), "unknown link {link}");
        let at = at.max(self.core.time);
        self.core.push(
            at,
            EventKind::LinkFault {
                link,
                action: Box::new(action),
            },
        );
    }

    /// Schedules a scripted device fault: at `at`, the device on `node`
    /// gets [`Device::on_fault`] with the given fault code.
    pub fn schedule_device_fault(&mut self, at: SimTime, node: NodeId, fault: u64) {
        let at = at.max(self.core.time);
        self.core.push(at, EventKind::DeviceFault { node, fault });
    }

    /// Delivers `pkt` to `node` on `iface` at the current time, as if it
    /// had arrived from the wire. Intended for harness code and tests.
    pub fn inject(&mut self, node: NodeId, iface: IfaceId, pkt: Packet) {
        self.core.deliver_packet(self.core.time, node, iface, pkt);
    }

    /// Enables the typed metrics registry (see [`crate::metrics`]).
    ///
    /// Off by default. Enabling metrics never changes simulated behaviour:
    /// instrumentation draws no randomness and schedules nothing, so events
    /// and stats are byte-identical with metrics on or off.
    ///
    /// Call it before the first event: the counts a snapshot copies from
    /// the engine's and the devices' stats run from the start of the
    /// simulation, while labelled counters, gauges and histograms record
    /// only what happens once the registry exists. Every caller in this
    /// workspace enables metrics before the simulation first runs.
    pub fn enable_metrics(&mut self) {
        if self.core.metrics.is_none() {
            self.core.metrics = Some(MetricsSnapshot::default());
        }
    }

    /// Takes a snapshot of the metrics registry (empty if disabled): the
    /// live registry plus every nonzero count the engine and the devices
    /// keep in their always-on stats (see [`Device::counters`]). Taken
    /// between engine steps, so every device's counts are final.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let Some(live) = &self.core.metrics else {
            return MetricsSnapshot::default();
        };
        let mut snap = live.clone();
        let mut c = Counters(&mut snap);
        let s = &self.core.stats;
        c.inc_by(MetricKey::plain("net.drop.link_down"), s.link_down_drops);
        c.inc_by(MetricKey::plain("net.drop.loss"), s.packets_lost);
        c.inc_by(MetricKey::plain("net.corrupt"), s.packets_corrupted);
        c.inc_by(MetricKey::plain("net.truncate"), s.packets_truncated);
        for device in &self.devices {
            device.counters(&mut c);
        }
        snap
    }

    /// Returns a shared reference to the device on `node`, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics if the device is not a `T`.
    pub fn device<T: Device>(&self, node: NodeId) -> &T {
        #[expect(clippy::panic, reason = "typed-accessor contract: caller names the device type it installed")]
        let dev = self.devices[node.index()]
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {node} is not a {}", std::any::type_name::<T>()));
        dev
    }

    /// Returns a mutable reference to the device on `node`, downcast to `T`.
    ///
    /// Use [`Sim::with_node`] instead when the device needs to send
    /// packets or arm timers.
    ///
    /// # Panics
    ///
    /// Panics if the device is not a `T`.
    pub fn device_mut<T: Device>(&mut self, node: NodeId) -> &mut T {
        #[expect(clippy::panic, reason = "typed-accessor contract: caller names the device type it installed")]
        let dev = self.devices[node.index()]
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {node} is not a {}", std::any::type_name::<T>()));
        dev
    }

    /// Runs `f` with the device on `node` and a live [`Ctx`], so harness
    /// code can invoke device operations that send packets or arm timers
    /// between engine steps. [`Sim::step`] runs every callback through it.
    ///
    /// The device and the engine core are disjoint fields and a [`Ctx`]
    /// reaches only the core, so a callback cannot re-enter its own or
    /// any other device.
    pub fn with_node<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn Device, &mut Ctx<'_>) -> R,
    ) -> R {
        let mut ctx = Ctx {
            core: &mut self.core,
            node,
        };
        f(self.devices[node.index()].as_mut(), &mut ctx)
    }

    /// Processes the next event, if any. Returns `false` when the queue is
    /// empty.
    ///
    /// A delivery burst counts as one event *per packet*: each `step`
    /// consumes a single packet from the burst at the queue front, so
    /// event counts, [`Sim::run_while`] predicate granularity, and callback
    /// order are identical to per-packet scheduling — only the queue
    /// traffic is batched.
    pub fn step(&mut self) -> bool {
        let core = &mut self.core;
        let Some(at) = core.queue.next_at() else {
            return false;
        };
        // A burst with packets behind its head keeps its queue entry:
        // this step takes the head and leaves the next packet at the front.
        let burst = match core.queue.front_item_mut() {
            Some(EventKind::Deliver { node, iface, head }) => core.arena.next(*head).map(|next| {
                let head = std::mem::replace(head, next);
                EventKind::Deliver { node: *node, iface: *iface, head }
            }),
            _ => None,
        };
        let kind = match burst {
            Some(kind) => kind,
            None => match core.queue.pop_front() {
                Some(entry) => entry.item,
                None => return false,
            },
        };
        debug_assert!(at >= core.time, "event in the past");
        core.time = at;
        core.stats.events += 1;
        core.pending -= 1;
        match kind {
            EventKind::Start(node) => self.with_node(node, |dev, ctx| dev.on_start(ctx)),
            // The one place a packet leaves the arena for a device.
            EventKind::Deliver { node, iface, head } => {
                // A burst whose last packet is taken can never be extended:
                // its slot is free, and the next insert may reuse it.
                if core.open_batch.as_ref().is_some_and(|ob| ob.tail == head) {
                    core.open_batch = None;
                }
                let pkt = core.arena.take(head);
                core.stats.packets_delivered += 1;
                self.with_node(node, |dev, ctx| dev.on_packet(ctx, iface, pkt));
            }
            EventKind::Timer { node, token } => {
                self.with_node(node, |dev, ctx| dev.on_timer(ctx, token));
            }
            EventKind::LinkFault { link, action } => {
                core.stats.faults_injected += 1;
                match *action {
                    LinkAction::Up => core.links[link].up = true,
                    LinkAction::Down => core.links[link].up = false,
                    LinkAction::Set(spec) => {
                        core.queue.ensure_horizon(spec.latency + spec.jitter);
                        core.links[link].spec = core.intern(spec);
                    }
                }
            }
            EventKind::DeviceFault { node, fault } => {
                core.stats.faults_injected += 1;
                self.with_node(node, |dev, ctx| dev.on_fault(ctx, fault));
            }
        }
        true
    }

    /// The one run loop: [`Sim::step`]s through every event due by
    /// `deadline`, asking `stop` after each, and returns whether `stop`
    /// ended the run. Host time is sampled once per call (not per event)
    /// so the hot loop pays nothing for [`SimStats::busy_nanos`].
    fn run_loop(&mut self, deadline: SimTime, mut stop: impl FnMut(&Sim) -> bool) -> bool {
        // punch-lint: allow(D001) wall-clock perf counter (SimStats::busy_nanos); never feeds sim behavior or pinned output
        let started = Instant::now();
        let mut stopped = false;
        while !stopped && self.core.queue.next_at().is_some_and(|at| at <= deadline) {
            self.step();
            stopped = stop(self);
        }
        let busy = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.core.stats.busy_nanos += busy;
        stopped
    }

    /// Runs until the clock reaches `deadline`; events at exactly
    /// `deadline` are processed. The clock ends at `deadline` even if the
    /// queue drains early.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_while(deadline, |_| false);
    }

    /// Runs for `d` of simulated time from now.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.core.time + d);
    }

    /// Runs until no events remain. Returns the number of events
    /// processed.
    ///
    /// # Panics
    ///
    /// Panics after 50 million events, which indicates a device re-arming
    /// timers unboundedly; use [`Sim::run_until`] for such workloads.
    // punch-lint: allow(S005) harness seam: how the net and lab suites (engine_order, proptest_sim, server_eviction, proptest_eviction) drain a world
    pub fn run_until_idle(&mut self) -> u64 {
        let mut n = 0u64;
        self.run_loop(SimTime::MAX, |_| {
            n += 1;
            assert!(
                n < IDLE_EVENT_CAP,
                "run_until_idle exceeded {IDLE_EVENT_CAP} events"
            );
            false
        });
        n
    }

    /// Runs until `pred` returns true (checked after every event) or the
    /// clock passes `deadline`. Returns whether `pred` was satisfied.
    pub fn run_while(&mut self, deadline: SimTime, mut pred: impl FnMut(&Sim) -> bool) -> bool {
        let hit = pred(self) || self.run_loop(deadline, pred);
        if !hit {
            self.core.time = self.core.time.max(deadline);
        }
        hit
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::addr::Endpoint;
    use crate::packet::Body;
    use crate::testutil::{CounterDevice, EchoDevice, SinkDevice};

    /// Arms a timer on `node` from outside any device callback.
    fn wake(sim: &mut Sim, node: NodeId, after: Duration, token: u64) {
        sim.with_node(node, |_, ctx| ctx.set_timer(after, token));
    }

    /// A link's current transmission properties.
    pub(crate) fn link_spec(sim: &Sim, link: LinkId) -> LinkSpec {
        sim.core.specs[sim.core.links[link].spec as usize]
    }

    fn ep(s: &str) -> Endpoint {
        s.parse().unwrap()
    }

    fn udp() -> Packet {
        Packet::udp(ep("10.0.0.1:1"), ep("10.0.0.2:2"), b"x".as_ref())
    }

    #[test]
    fn delivery_respects_latency() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::new(Duration::from_millis(25)));
        sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        sim.run_until_idle();
        let sink: &SinkDevice = sim.device(b);
        assert_eq!(sink.packets.len(), 1);
        assert_eq!(sim.now(), SimTime::from_millis(25));
    }

    #[test]
    fn echo_round_trip() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(EchoDevice::default()));
        sim.connect(a, b, LinkSpec::new(Duration::from_millis(10)));
        sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        sim.run_until_idle();
        assert_eq!(sim.device::<EchoDevice>(b).received, 1);
        assert_eq!(sim.device::<SinkDevice>(a).packets.len(), 1);
        assert_eq!(sim.now(), SimTime::from_millis(20));
    }

    #[test]
    fn loss_one_drops_everything() {
        let mut sim = Sim::new(7);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::lan().with_loss(1.0));
        for _ in 0..10 {
            sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        }
        sim.run_until_idle();
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 0);
        assert_eq!(sim.stats().packets_lost, 10);
    }

    #[test]
    fn partial_loss_is_deterministic_per_seed() {
        let count = |seed| {
            let mut sim = Sim::new(seed);
            let a = sim.add_node("a", Box::new(SinkDevice::default()));
            let b = sim.add_node("b", Box::new(SinkDevice::default()));
            sim.connect(a, b, LinkSpec::lan().with_loss(0.5));
            for _ in 0..100 {
                sim.with_node(a, |_, ctx| ctx.send(0, udp()));
            }
            sim.run_until_idle();
            sim.device::<SinkDevice>(b).packets.len()
        };
        let c1 = count(42);
        assert_eq!(c1, count(42), "same seed, same outcome");
        assert!(c1 > 20 && c1 < 80, "loss=0.5 delivered {c1}/100");
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(CounterDevice::default()));
        wake(&mut sim, a, Duration::from_millis(5), 2);
        wake(&mut sim, a, Duration::from_millis(1), 1);
        wake(&mut sim, a, Duration::from_millis(9), 3);
        sim.run_until_idle();
        assert_eq!(sim.device::<CounterDevice>(a).tokens, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_keep_insertion_order() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(CounterDevice::default()));
        for t in 0..20 {
            wake(&mut sim, a, Duration::from_millis(5), t);
        }
        sim.run_until_idle();
        assert_eq!(
            sim.device::<CounterDevice>(a).tokens,
            (0..20).collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim = Sim::new(1);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn run_until_does_not_process_later_events() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(CounterDevice::default()));
        wake(&mut sim, a, Duration::from_millis(10), 1);
        wake(&mut sim, a, Duration::from_millis(20), 2);
        sim.run_until(SimTime::from_millis(15));
        assert_eq!(sim.device::<CounterDevice>(a).tokens, vec![1]);
        assert_eq!(sim.now(), SimTime::from_millis(15));
    }

    #[test]
    fn run_while_stops_at_predicate() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(CounterDevice::default()));
        for i in 0..10 {
            wake(&mut sim, a, Duration::from_millis(i), i);
        }
        let hit = sim.run_while(SimTime::from_secs(1), |s| {
            s.device::<CounterDevice>(a).tokens.len() >= 3
        });
        assert!(hit);
        assert_eq!(sim.device::<CounterDevice>(a).tokens.len(), 3);
    }

    #[test]
    fn run_while_times_out() {
        let mut sim = Sim::new(1);
        let _a = sim.add_node("a", Box::new(CounterDevice::default()));
        let hit = sim.run_while(SimTime::from_millis(50), |_| false);
        assert!(!hit);
        assert_eq!(sim.now(), SimTime::from_millis(50));
    }

    #[test]
    fn stats_count_flows() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::lan());
        sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        sim.run_until_idle();
        let st = sim.stats();
        assert_eq!(st.packets_sent, 1);
        assert_eq!(st.packets_delivered, 1);
        assert_eq!(st.packets_lost, 0);
    }

    #[test]
    #[should_panic(expected = "unconnected iface")]
    fn send_on_unconnected_iface_panics() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        sim.with_node(a, |_, ctx| ctx.send(0, udp()));
    }

    #[test]
    fn multiple_links_get_distinct_ifaces() {
        let mut sim = Sim::new(1);
        let hub = sim.add_node("hub", Box::new(SinkDevice::default()));
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        let (h0, a0) = sim.connect(hub, a, LinkSpec::lan());
        let (h1, b0) = sim.connect(hub, b, LinkSpec::lan());
        assert_eq!((h0, a0), (0, 0));
        assert_eq!((h1, b0), (1, 0));
        // Send out each hub iface; each peer gets exactly one.
        sim.with_node(hub, |_, ctx| {
            ctx.send(0, udp());
            ctx.send(1, udp());
        });
        sim.run_until_idle();
        assert_eq!(sim.device::<SinkDevice>(a).packets.len(), 1);
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 1);
    }

    #[test]
    fn busy_time_accumulates_but_does_not_affect_equality() {
        let run = || {
            let mut sim = Sim::new(3);
            let a = sim.add_node("a", Box::new(SinkDevice::default()));
            let b = sim.add_node("b", Box::new(EchoDevice::default()));
            sim.connect(a, b, LinkSpec::lan());
            for _ in 0..50 {
                sim.with_node(a, |_, ctx| ctx.send(0, udp()));
            }
            sim.run_until_idle();
            sim.stats()
        };
        let s1 = run();
        let s2 = run();
        assert!(s1.busy_nanos > 0, "run loop must record wall time");
        // Deterministic counters match even though wall time differs.
        assert_eq!(s1, s2);
        assert_eq!(SimStats { busy_nanos: s1.busy_nanos + 1, ..s1 }, s1);
        assert_ne!(SimStats { faults_injected: 1, ..s1 }, s1);
        // Shards add up field by field, wall time included.
        let mut sum = s1;
        sum += s2;
        assert_eq!(sum.events, 2 * s1.events);
        assert_eq!(sum.packets_delivered, 2 * s1.packets_delivered);
        assert_eq!(sum.busy_nanos, s1.busy_nanos + s2.busy_nanos);
    }

    #[test]
    fn down_link_drops_everything() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::lan());
        let link = sim.link_of(a, 0);
        sim.schedule_link_fault(sim.now(), link, LinkAction::Down);
        sim.run_until_idle();
        for _ in 0..5 {
            sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        }
        sim.run_until_idle();
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 0);
        assert_eq!(sim.stats().link_down_drops, 5);
        sim.schedule_link_fault(sim.now(), link, LinkAction::Up);
        sim.run_until_idle();
        sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        sim.run_until_idle();
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 1);
    }

    #[test]
    fn link_set_changes_conditions_mid_run() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::new(Duration::from_millis(1)));
        let link = sim.link_of(a, 0);
        sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        sim.run_until_idle();
        let slow = LinkSpec::new(Duration::from_millis(50));
        sim.schedule_link_fault(sim.now(), link, LinkAction::Set(slow));
        sim.run_until_idle();
        assert_eq!(link_spec(&sim, link), slow);
        sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        let before = sim.now();
        sim.run_until_idle();
        assert_eq!(sim.now(), before + Duration::from_millis(50));
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 2);
    }

    #[test]
    fn link_set_changes_only_its_own_link() {
        // Two links built from one spec: re-setting one leaves the other's
        // spec and delivery time as they were.
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        let c = sim.add_node("c", Box::new(SinkDevice::default()));
        let fast = LinkSpec::new(Duration::from_millis(1));
        sim.connect(a, b, fast);
        sim.connect(a, c, fast);
        let (ab, ac) = (sim.link_of(a, 0), sim.link_of(a, 1));
        let slow = LinkSpec::new(Duration::from_millis(50));
        sim.schedule_link_fault(sim.now(), ab, LinkAction::Set(slow));
        sim.run_until_idle();
        assert_eq!(link_spec(&sim, ab), slow);
        assert_eq!(link_spec(&sim, ac), fast);
        let sent = sim.now();
        sim.with_node(a, |_, ctx| ctx.send(1, udp()));
        sim.run_until_idle();
        assert_eq!(sim.now(), sent + Duration::from_millis(1));
        assert_eq!(sim.device::<SinkDevice>(c).packets.len(), 1);
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 0);
    }

    #[test]
    fn self_loop_delivers_on_the_other_side() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        assert_eq!(sim.connect(a, a, LinkSpec::lan()), (0, 1));
        assert_eq!(sim.link_of(a, 0), sim.link_of(a, 1));
        sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        sim.run_until_idle();
        sim.with_node(a, |_, ctx| ctx.send(1, udp()));
        sim.run_until_idle();
        let ifaces: Vec<IfaceId> = sim
            .device::<SinkDevice>(a)
            .packets
            .iter()
            .map(|(i, _)| *i)
            .collect();
        assert_eq!(ifaces, vec![1, 0]);
    }

    #[test]
    fn a_node_with_many_ifaces_reaches_every_link() {
        let mut sim = Sim::new(1);
        let hub = sim.add_node("hub", Box::new(SinkDevice::default()));
        let spokes: Vec<NodeId> = (0..5)
            .map(|i| sim.add_node(format!("s{i}"), Box::new(SinkDevice::default())))
            .collect();
        for (i, &s) in spokes.iter().enumerate() {
            assert_eq!(sim.connect(hub, s, LinkSpec::lan()), (i, 0));
            assert_eq!(sim.link_of(hub, i), i);
        }
        assert_eq!(sim.with_node(hub, |_, ctx| ctx.iface_count()), 5);
        sim.with_node(hub, |_, ctx| (0..5).for_each(|i| ctx.send(i, udp())));
        for &s in &spokes {
            sim.with_node(s, |_, ctx| ctx.send(0, udp()));
        }
        sim.run_until_idle();
        for &s in &spokes {
            assert_eq!(sim.device::<SinkDevice>(s).packets.len(), 1);
        }
        let mut got: Vec<IfaceId> = sim
            .device::<SinkDevice>(hub)
            .packets
            .iter()
            .map(|(i, _)| *i)
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_late_first_draw_sees_the_named_stream_from_its_start() {
        // "a" sends over a lossless, jitter-free link and "b" draws before
        // "a" ever does: a's first draws are still its stream's first.
        let mut sim = Sim::new(31);
        sim.use_named_rng_streams();
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::new(Duration::from_millis(3)));
        for _ in 0..4 {
            sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        }
        sim.run_until_idle();
        sim.with_node(b, |_, ctx| ctx.rng().gen::<u64>());
        let got: Vec<u64> = sim.with_node(a, |_, ctx| (0..40).map(|_| ctx.rng().gen()).collect());
        let mut want = StdRng::seed_from_u64(derive_seed(31, "a", 0));
        assert_eq!(got, (0..40).map(|_| want.gen::<u64>()).collect::<Vec<_>>());
    }

    #[test]
    fn a_node_that_never_draws_holds_no_rng() {
        // "a" sends over an exact link, "b" only receives, "c" sends over
        // a jittered one: only "c" has a generator made.
        let mut sim = Sim::new(3);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        let c = sim.add_node("c", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::lan());
        sim.connect(c, b, LinkSpec::access());
        sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        sim.with_node(c, |_, ctx| ctx.send(0, udp()));
        sim.run_until_idle();
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 2);
        let slots: Vec<Option<u32>> = sim.core.nodes.iter().map(|n| n.rng).collect();
        assert_eq!(slots, vec![None, None, Some(0)]);
        assert_eq!(sim.core.rngs.len(), 1);
    }

    #[test]
    fn scheduled_outage_fires_at_its_time() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::lan());
        let link = sim.link_of(a, 0);
        sim.schedule_link_fault(SimTime::from_secs(1), link, LinkAction::Down);
        sim.schedule_link_fault(SimTime::from_secs(2), link, LinkAction::Up);
        // One packet before, one during, one after the outage window.
        for at_ms in [500u64, 1500, 2500] {
            sim.run_until(SimTime::from_millis(at_ms));
            sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        }
        sim.run_until_idle();
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 2);
        assert_eq!(sim.stats().link_down_drops, 1);
        assert_eq!(sim.stats().faults_injected, 2);
    }

    #[test]
    fn a_link_set_mid_run_keeps_its_deliveries_in_the_wheel() {
        use crate::calendar::tests::overflow_len;
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::lan());
        let link = sim.link_of(a, 0);
        let slow = LinkSpec::new(Duration::from_millis(200));
        sim.schedule_link_fault(SimTime::from_millis(1), link, LinkAction::Set(slow));
        sim.run_until(SimTime::from_millis(2));
        // 65 timers pending through the sends: the queue builds its wheel.
        for token in 0..65 {
            wake(&mut sim, b, Duration::from_millis(250), token);
        }
        for _ in 0..5 {
            sim.with_node(a, |_, ctx| ctx.send(0, udp()));
            let overflow = overflow_len(&sim.core.queue);
            assert_eq!(overflow, Some(0), "a 200 ms delivery overflowed");
            sim.run_for(Duration::from_millis(30));
        }
        sim.run_until_idle();
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 5);
        assert_eq!(sim.now(), SimTime::from_millis(2 + 4 * 30 + 200));
    }

    #[test]
    fn duplication_delivers_extra_copies() {
        let mut sim = Sim::new(11);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec { duplicate: 1.0, ..LinkSpec::lan() });
        for _ in 0..10 {
            sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        }
        sim.run_until_idle();
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 20);
        assert_eq!(sim.stats().packets_duplicated, 10);
        assert_eq!(sim.stats().packets_sent, 10);
    }

    #[test]
    fn corruption_delivers_damaged_but_detectable_packets() {
        let mut sim = Sim::new(13);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::lan().with_corrupt(1.0));
        for _ in 0..10 {
            sim.with_node(a, |_, ctx| ctx.send(0, udp()));
        }
        sim.run_until_idle();
        let sink = sim.device::<SinkDevice>(b);
        assert_eq!(sink.packets.len(), 10, "corruption must not drop");
        for (_, p) in &sink.packets {
            assert!(!p.checksum_ok(), "delivered copy must fail verification");
        }
        assert_eq!(sim.stats().packets_corrupted, 10);
    }

    #[test]
    fn truncation_shortens_payload_and_keeps_stale_checksum() {
        let mut sim = Sim::new(17);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::lan().with_truncate(1.0));
        let big = || Packet::udp(ep("10.0.0.1:1"), ep("10.0.0.2:2"), vec![0x5Au8; 64]);
        for _ in 0..10 {
            sim.with_node(a, |_, ctx| ctx.send(0, big()));
        }
        sim.run_until_idle();
        let sink = sim.device::<SinkDevice>(b);
        assert_eq!(sink.packets.len(), 10);
        for (_, p) in &sink.packets {
            assert!(p.payload_len() < 64);
            assert!(!p.checksum_ok());
        }
        assert_eq!(sim.stats().packets_truncated, 10);
    }

    #[test]
    fn corruption_knobs_off_leave_rng_streams_untouched() {
        // A lossy+jittery run must be byte-identical whether the corrupt
        // and truncate fields exist at 0.0 or the spec predates them:
        // the knobs may not draw when disabled.
        let run = |spec: LinkSpec| {
            let mut sim = Sim::new(23);
            let a = sim.add_node("a", Box::new(SinkDevice::default()));
            let b = sim.add_node("b", Box::new(SinkDevice::default()));
            sim.connect(a, b, spec);
            for _ in 0..50 {
                sim.with_node(a, |_, ctx| ctx.send(0, udp()));
            }
            sim.run_until_idle();
            let delivered: Vec<Packet> =
                sim.device::<SinkDevice>(b).packets.iter().map(|(_, p)| p.clone()).collect();
            (sim.stats(), sim.now(), delivered)
        };
        let spec = LinkSpec {
            jitter: Duration::from_millis(5),
            ..LinkSpec::access().with_loss(0.3)
        };
        let baseline = run(spec);
        assert_eq!(run(spec.with_corrupt(0.0).with_truncate(0.0)), baseline);
    }

    #[test]
    fn reordering_lets_later_traffic_overtake() {
        // First packet reordered (held ≥1 ns past its latency), the rest
        // sent after the knob is turned off again: with a deterministic
        // latency the held packet arrives behind a later one.
        let mut sim = Sim::new(5);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        let spec = LinkSpec::new(Duration::from_millis(10));
        sim.connect(a, b, LinkSpec { reorder: 1.0, ..spec });
        let link = sim.link_of(a, 0);
        let tagged = |tag: u8| {
            Packet::udp(ep("10.0.0.1:1"), ep("10.0.0.2:2"), vec![tag])
        };
        sim.with_node(a, |_, ctx| ctx.send(0, tagged(0)));
        sim.schedule_link_fault(sim.now(), link, LinkAction::Set(spec));
        sim.run_until(sim.now());
        // The reorder window is max(4*jitter, latency, 1ms) = 10 ms, so a
        // packet sent 11 ms later would always lose the race; one sent
        // immediately can win it whenever the held delay exceeds 0.
        sim.with_node(a, |_, ctx| ctx.send(0, tagged(1)));
        sim.run_until_idle();
        let got: Vec<u8> = sim.device::<SinkDevice>(b)
            .packets
            .iter()
            .map(|(_, p)| match &p.body {
                Body::Udp(payload) => payload[0],
                _ => unreachable!("the test sends UDP"),
            })
            .collect();
        assert_eq!(sim.stats().packets_reordered, 1);
        assert_eq!(got, vec![1, 0], "held packet must arrive second");
    }

    #[test]
    fn node_rngs_are_independent_of_each_other() {
        // Draw from node 0's RNG in one sim but not the other; node 1's
        // stream must be unaffected.
        let draw = |touch_a: bool| {
            let mut sim = Sim::new(9);
            let a = sim.add_node("a", Box::new(SinkDevice::default()));
            let b = sim.add_node("b", Box::new(SinkDevice::default()));
            if touch_a {
                sim.with_node(a, |_, ctx| {
                    let _: u64 = ctx.rng().gen();
                });
            }
            sim.with_node(b, |_, ctx| ctx.rng().gen::<u64>())
        };
        assert_eq!(draw(false), draw(true));
    }

    #[test]
    fn seeds_change_node_rng_streams() {
        let draw = |seed| {
            let mut sim = Sim::new(seed);
            let a = sim.add_node("a", Box::new(SinkDevice::default()));
            sim.with_node(a, |_, ctx| ctx.rng().gen::<u64>())
        };
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn named_rng_streams_ignore_node_order() {
        // With named streams, "b" draws the same values whether it is
        // node 0 or node 5 — the property sharding relies on.
        let draw = |padding: usize| {
            let mut sim = Sim::new(9);
            sim.use_named_rng_streams();
            for i in 0..padding {
                sim.add_node(format!("pad{i}"), Box::new(SinkDevice::default()));
            }
            let b = sim.add_node("b", Box::new(SinkDevice::default()));
            sim.with_node(b, |_, ctx| ctx.rng().gen::<u64>())
        };
        assert_eq!(draw(0), draw(5));
    }

    #[test]
    fn named_rng_differs_from_id_rng_but_both_are_seeded() {
        let draw = |named: bool| {
            let mut sim = Sim::new(9);
            if named {
                sim.use_named_rng_streams();
            }
            let a = sim.add_node("a", Box::new(SinkDevice::default()));
            sim.with_node(a, |_, ctx| ctx.rng().gen::<u64>())
        };
        // Not a contract, but a sanity check that the two schemes are
        // genuinely distinct derivations.
        assert_ne!(draw(false), draw(true));
    }

    #[test]
    #[should_panic(expected = "before add_node")]
    fn named_rng_after_add_node_panics() {
        let mut sim = Sim::new(1);
        sim.add_node("a", Box::new(SinkDevice::default()));
        sim.use_named_rng_streams();
    }

    #[test]
    fn burst_coalesces_into_batches_and_recycles_buffers() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::new(Duration::from_millis(1)));
        // 50 sends in one instant on a deterministic link: one batch
        // entry, 49 coalesced deliveries.
        sim.with_node(a, |_, ctx| {
            for _ in 0..50 {
                ctx.send(0, udp());
            }
        });
        sim.run_until_idle();
        let qs = sim.queue_stats();
        assert_eq!(qs.batches_coalesced, 49);
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 50);
        // A second burst reuses the arena slots freed by the first.
        sim.with_node(a, |_, ctx| {
            for _ in 0..50 {
                ctx.send(0, udp());
            }
        });
        sim.run_until_idle();
        let qs = sim.queue_stats();
        assert_eq!(qs.pool_recycled, 50);
        assert_eq!(qs.pool_slots, 50);
        assert!(qs.depth_high_water >= 50);
    }

    #[test]
    fn batched_delivery_matches_run_while_granularity() {
        // A batch must still surface one packet per step so run_while
        // can stop mid-burst.
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::lan());
        sim.with_node(a, |_, ctx| {
            for _ in 0..10 {
                ctx.send(0, udp());
            }
        });
        let hit = sim.run_while(SimTime::from_secs(1), |s| {
            s.device::<SinkDevice>(b).packets.len() >= 4
        });
        assert!(hit);
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 4);
        // The rest of the batch still arrives afterwards.
        sim.run_until_idle();
        assert_eq!(sim.device::<SinkDevice>(b).packets.len(), 10);
    }

    #[test]
    fn queue_depth_metric_counts_logical_events() {
        let mut sim = Sim::new(1);
        sim.enable_metrics();
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::lan());
        sim.run_until_idle();
        sim.with_node(a, |_, ctx| {
            for _ in 0..20 {
                ctx.send(0, udp());
            }
        });
        // All 20 deliveries ride one batch, but the depth gauge counts
        // pending logical events exactly as the pre-batching engine did.
        let snap = sim.metrics_snapshot();
        assert_eq!(snap.gauges.get(&MetricKey::plain("net.queue.depth.max")), Some(&20));
    }
}
