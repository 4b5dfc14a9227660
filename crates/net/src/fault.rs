//! Scripted fault injection.
//!
//! A [`FaultPlan`] is an ordered script of link and device faults,
//! applied to a [`Sim`] up front and executed by the engine as ordinary
//! events — so a plan is part of the deterministic event sequence, and
//! the same seed plus the same plan always yields byte-identical runs.
//!
//! Link faults flip a link's administrative state or rewrite its
//! [`LinkSpec`] mid-run. Device faults call [`Device::on_fault`] with a
//! `u64` fault code; [`FAULT_RESTART`] is the conventional "lose all
//! volatile state" code, which the NAT device answers by flushing its
//! translation tables and the rendezvous server by dropping every
//! registration.
//!
//! [`Device::on_fault`]: crate::node::Device::on_fault
//!
//! ```
//! use punch_net::{FaultPlan, LinkSpec, Sim, SimTime};
//! use punch_net::testutil::SinkDevice;
//! use std::time::Duration;
//!
//! let mut sim = Sim::new(7);
//! let a = sim.add_node("a", Box::new(SinkDevice::default()));
//! let b = sim.add_node("b", Box::new(SinkDevice::default()));
//! sim.connect(a, b, LinkSpec::wan());
//! let link = sim.link_of(a, 0);
//!
//! FaultPlan::new()
//!     .outage(SimTime::from_secs(10), Duration::from_secs(5), link)
//!     .restart(SimTime::from_secs(30), b)
//!     .apply(&mut sim);
//! ```

use crate::link::LinkSpec;
use crate::node::NodeId;
use crate::sim::{LinkId, Sim};
use crate::time::SimTime;
use std::time::Duration;

/// Conventional device-fault code: restart the device, losing all
/// volatile state (NAT translation tables, server registrations).
pub const FAULT_RESTART: u64 = 1;

/// What a scripted link fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkAction {
    /// Bring the link (back) up.
    Up,
    /// Take the link down: every packet offered to it is dropped.
    Down,
    /// Replace the link's transmission properties.
    Set(LinkSpec),
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    Link(LinkId, LinkAction),
    Device(NodeId, u64),
}

/// An ordered script of faults to inject at absolute simulated times.
///
/// Built with the chaining methods below and handed to
/// [`FaultPlan::apply`]; applying schedules every step as an engine
/// event, so a plan can only be applied to times at or after the
/// simulation's current clock (earlier steps fire immediately).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    steps: Vec<(SimTime, Step)>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Number of scheduled steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Takes `link` down at `at`.
    fn link_down(mut self, at: SimTime, link: LinkId) -> Self {
        self.steps.push((at, Step::Link(link, LinkAction::Down)));
        self
    }

    /// Brings `link` back up at `at`.
    fn link_up(mut self, at: SimTime, link: LinkId) -> Self {
        self.steps.push((at, Step::Link(link, LinkAction::Up)));
        self
    }

    /// Takes `link` down at `at` and restores it `dur` later.
    pub fn outage(self, at: SimTime, dur: Duration, link: LinkId) -> Self {
        self.link_down(at, link).link_up(at + dur, link)
    }

    /// Rewrites `link`'s transmission properties at `at`.
    fn link_set(mut self, at: SimTime, link: LinkId, spec: LinkSpec) -> Self {
        self.steps.push((at, Step::Link(link, LinkAction::Set(spec))));
        self
    }

    /// Degrades `link` to `faulty` at `at`, restoring `normal` after
    /// `dur`.
    pub fn degrade(
        self,
        at: SimTime,
        dur: Duration,
        link: LinkId,
        faulty: LinkSpec,
        normal: LinkSpec,
    ) -> Self {
        self.link_set(at, link, faulty).link_set(at + dur, link, normal)
    }

    /// Restarts the device on `node` at `at` ([`FAULT_RESTART`]).
    pub fn restart(self, at: SimTime, node: NodeId) -> Self {
        self.device_fault(at, node, FAULT_RESTART)
    }

    /// Delivers an arbitrary fault code to the device on `node` at `at`.
    fn device_fault(mut self, at: SimTime, node: NodeId, fault: u64) -> Self {
        self.steps.push((at, Step::Device(node, fault)));
        self
    }

    /// Schedules every step of the plan on `sim`. Steps dated before the
    /// simulation's current time fire at the current time instead. The
    /// plan itself is not consumed; applying the same plan twice injects
    /// every fault twice.
    pub fn apply(&self, sim: &mut Sim) {
        for &(at, step) in &self.steps {
            match step {
                Step::Link(link, action) => sim.schedule_link_fault(at, link, action),
                Step::Device(node, fault) => sim.schedule_device_fault(at, node, fault),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Ctx, Device};
    use crate::packet::Packet;
    use crate::sim::tests::link_spec;
    use crate::testutil::SinkDevice;

    /// Records every fault code it receives.
    #[derive(Default)]
    struct FaultRecorder {
        faults: Vec<(SimTime, u64)>,
    }

    impl Device for FaultRecorder {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _iface: usize, _pkt: Packet) {}

        fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: u64) {
            self.faults.push((ctx.now(), fault));
        }
    }

    #[test]
    fn builder_accumulates_steps_in_order() {
        let plan = FaultPlan::new()
            .outage(SimTime::from_secs(1), Duration::from_secs(2), 0)
            .restart(SimTime::from_secs(5), NodeId(0));
        assert_eq!(plan.len(), 3);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn device_faults_reach_on_fault_at_the_scripted_time() {
        let mut sim = Sim::new(1);
        let n = sim.add_node("n", Box::new(FaultRecorder::default()));
        FaultPlan::new()
            .restart(SimTime::from_secs(3), n)
            .device_fault(SimTime::from_secs(7), n, 42)
            .apply(&mut sim);
        sim.run_until_idle();
        assert_eq!(
            sim.device::<FaultRecorder>(n).faults,
            vec![(SimTime::from_secs(3), FAULT_RESTART), (SimTime::from_secs(7), 42)]
        );
        assert_eq!(sim.stats().faults_injected, 2);
    }

    #[test]
    fn default_on_fault_is_a_no_op() {
        let mut sim = Sim::new(1);
        let n = sim.add_node("n", Box::new(SinkDevice::default()));
        FaultPlan::new().restart(SimTime::from_secs(1), n).apply(&mut sim);
        sim.run_until_idle();
        assert_eq!(sim.stats().faults_injected, 1);
    }

    #[test]
    fn past_steps_fire_immediately_not_in_the_past() {
        let mut sim = Sim::new(1);
        let n = sim.add_node("n", Box::new(FaultRecorder::default()));
        sim.run_until(SimTime::from_secs(10));
        FaultPlan::new().restart(SimTime::from_secs(2), n).apply(&mut sim);
        sim.run_until_idle();
        assert_eq!(
            sim.device::<FaultRecorder>(n).faults,
            vec![(SimTime::from_secs(10), FAULT_RESTART)]
        );
    }

    #[test]
    fn degrade_swaps_spec_and_restores() {
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", Box::new(SinkDevice::default()));
        let b = sim.add_node("b", Box::new(SinkDevice::default()));
        sim.connect(a, b, LinkSpec::lan());
        let link = sim.link_of(a, 0);
        let bad = LinkSpec::lan().with_loss(0.9);
        FaultPlan::new()
            .degrade(SimTime::from_secs(1), Duration::from_secs(1), link, bad, LinkSpec::lan())
            .apply(&mut sim);
        sim.run_until(SimTime::from_millis(1500));
        assert_eq!(link_spec(&sim, link), bad);
        sim.run_until(SimTime::from_millis(2500));
        assert_eq!(link_spec(&sim, link), LinkSpec::lan());
    }
}
