//! Devices and their interface to the simulation.
//!
//! A [`Device`] is anything attached to a node: a host stack, a NAT, a
//! router. Devices are event-driven: the engine calls [`Device::on_packet`]
//! when a packet arrives on one of the node's interfaces and
//! [`Device::on_timer`] when a previously armed timer fires. All
//! interaction with the world goes through the [`Ctx`] handle.

use crate::metrics::{MetricKey, Metrics};
use crate::packet::Packet;
use crate::sim::SimCore;
use crate::time::SimTime;
use rand::rngs::StdRng;
use std::any::Any;
use std::fmt;
use std::time::Duration;

/// Identifier of a node in the simulation, assigned by [`crate::Sim::add_node`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Returns the node's index in creation order.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Index of an interface on a node. Interfaces are numbered in the order
/// the node was passed to [`crate::Sim::connect`], starting at 0.
pub type IfaceId = usize;

/// A device attached to a simulation node.
///
/// Implementors receive packets and timers and may send packets, arm
/// timers, and draw deterministic randomness through the [`Ctx`].
///
/// The trait requires [`Any`] so harness code can downcast a node back to
/// its concrete device type via [`crate::Sim::device`], and [`Send`] so a
/// whole [`crate::Sim`] can be handed to a worker thread (sharded worlds
/// advance many independent sims from a thread pool).
pub trait Device: Any + Send {
    /// Called once, when the simulation first runs after the node is added.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called when a packet arrives on interface `iface`.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet);

    /// Called when a timer armed with [`Ctx::set_timer`] fires.
    ///
    /// Timers cannot be cancelled; devices that re-arm timers should carry
    /// a generation number in `token` and ignore stale firings.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Called when a scripted device fault fires (see [`crate::fault`]).
    /// `fault` identifies the fault kind; [`crate::fault::FAULT_RESTART`]
    /// is the conventional "restart, losing volatile state" code. The
    /// default ignores faults.
    fn on_fault(&mut self, _ctx: &mut Ctx<'_>, _fault: u64) {}
}

impl dyn Device {
    /// Downcasts a device reference to its concrete type.
    pub fn downcast_ref<T: Device>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref::<T>()
    }

    /// Downcasts a mutable device reference to its concrete type.
    pub fn downcast_mut<T: Device>(&mut self) -> Option<&mut T> {
        (self as &mut dyn Any).downcast_mut::<T>()
    }
}

/// Handle through which a [`Device`] interacts with the simulation.
///
/// A `Ctx` is only valid for the duration of one callback; it borrows the
/// engine core exclusively, which is what makes device logic race-free by
/// construction.
pub struct Ctx<'a> {
    pub(crate) core: &'a mut SimCore,
    pub(crate) node: NodeId,
}

impl Ctx<'_> {
    /// Returns the current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.time
    }

    /// Returns the number of interfaces currently attached to this node.
    pub fn iface_count(&self) -> usize {
        self.core.iface_count(self.node)
    }

    /// Sends a packet out of interface `iface`.
    ///
    /// The packet is subject to the link's loss, latency, jitter and
    /// bandwidth. Sending on an unconnected interface is a device bug.
    ///
    /// # Panics
    ///
    /// Panics if `iface` has no link attached.
    pub fn send(&mut self, iface: IfaceId, pkt: Packet) {
        self.core.transmit(self.node, iface, pkt);
    }

    /// Arms a one-shot timer that fires `after` from now, delivering
    /// `token` to [`Device::on_timer`].
    pub fn set_timer(&mut self, after: Duration, token: u64) {
        self.core.schedule_timer(self.node, after, token);
    }

    /// Returns this node's private deterministic RNG.
    ///
    /// Each node's RNG stream is derived from the simulation seed and the
    /// node index, so one node's draws do not perturb another's.
    pub fn rng(&mut self) -> &mut StdRng {
        self.core.node_rng(self.node)
    }

    /// Records a device-level drop (e.g. a NAT filtering an unsolicited
    /// packet) in the statistics.
    pub fn note_drop(&mut self, reason: &'static str) {
        self.core.note_device_drop(reason);
    }

    /// Returns true if the simulation's metrics registry is enabled.
    pub fn metrics_enabled(&self) -> bool {
        self.core.metrics.is_some()
    }

    /// Runs `write` on the metrics registry if it is enabled; otherwise
    /// one branch and nothing else.
    #[inline]
    fn metric(&mut self, write: impl FnOnce(&mut Metrics)) {
        if let Some(m) = &mut self.core.metrics {
            write(m);
        }
    }

    /// Increments an unlabelled metrics counter by one. No-op when
    /// metrics are disabled (see [`crate::Sim::enable_metrics`]).
    pub fn metric_inc(&mut self, name: &'static str) {
        self.metric(|m| m.inc_by(MetricKey::plain(name), 1));
    }

    /// Adds `by` to an unlabelled metrics counter. No-op when disabled.
    pub fn metric_inc_by(&mut self, name: &'static str, by: u64) {
        self.metric(|m| m.inc_by(MetricKey::plain(name), by));
    }

    /// Increments a labelled metrics counter (e.g. a reason sub-series)
    /// by one. No-op when disabled.
    pub fn metric_inc_labeled(&mut self, name: &'static str, label: &'static str) {
        self.metric(|m| m.inc_by(MetricKey::labeled(name, label), 1));
    }

    /// Raises a high-water-mark gauge to `value` if it is below it.
    /// No-op when disabled.
    pub fn metric_gauge_max(&mut self, name: &'static str, value: i64) {
        self.metric(|m| m.gauge_max(MetricKey::plain(name), value));
    }

    /// Records a sim-time observation into a metrics histogram. No-op
    /// when disabled.
    pub fn metric_observe(&mut self, name: &'static str, d: Duration) {
        self.metric(|m| m.observe(MetricKey::plain(name), d));
    }
}
