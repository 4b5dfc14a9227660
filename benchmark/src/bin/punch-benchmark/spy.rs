//! Timing spies around the program's two public extension traits.
//!
//! A [`Spy`] wraps any [`Device`] and a [`SpyApp`] any [`App`]; each
//! forwards every callback unchanged and records how long the call took
//! into plain per-instance fields, harvested after the run (see
//! `trace`). Nothing here is visible to the wrapped code: a spied world
//! draws the same random numbers, sends the same packets and reaches the
//! same outcomes as a plain one, which the benchmark checks on every
//! traced rep (`trace.replica_matches`).
//!
//! Worlds are written once, generic over [`Wrap`]: [`Plain`] installs the
//! devices as the program would, [`Spied`] installs them inside spies.

use crate::clock;
use punch_net::{Ctx, Device, IfaceId, NodeId, Packet, Sim, SimTime};
use punch_transport::{App, HostDevice, Os, SockEvent};
use std::cell::{Cell, RefCell};

/// The program layer a spied device or app belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `punch_net::Router` (layer `net`).
    Router,
    /// `punch_nat::NatDevice`.
    Nat,
    /// A client's `HostDevice`: stack self time is layer `transport`.
    ClientStack,
    /// A server's `HostDevice`.
    ServerStack,
    /// `holepunch::UdpPeer` / `TcpPeer` (layer `core`).
    Peer,
    /// `punch_rendezvous::RendezvousServer`.
    Rendezvous,
    /// `punch_natcheck::NatCheckClient` / `CheckServer`.
    Natcheck,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Router,
        Layer::Nat,
        Layer::ClientStack,
        Layer::ServerStack,
        Layer::Peer,
        Layer::Rendezvous,
        Layer::Natcheck,
    ];

    pub fn index(self) -> usize {
        self as usize
    }

    /// Span name in `trace-*.json`.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Router => "net.router",
            Layer::Nat => "nat.device",
            Layer::ClientStack => "transport.client_host",
            Layer::ServerStack => "transport.server_host",
            Layer::Peer => "core.peer",
            Layer::Rendezvous => "rendezvous.server",
            Layer::Natcheck => "natcheck.app",
        }
    }
}

/// Which callback a span timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Start,
    /// `Device::on_packet` / `App::on_event`.
    Input,
    Timer,
    Fault,
    /// Entered by the benchmark's driver between engine steps
    /// (`Sim::with_node`), not by `Sim::run_until`.
    Driver,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Start,
        Kind::Input,
        Kind::Timer,
        Kind::Fault,
        Kind::Driver,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Start => "on_start",
            Kind::Input => "on_input",
            Kind::Timer => "on_timer",
            Kind::Fault => "on_fault",
            Kind::Driver => "driver_call",
        }
    }
}

/// Sim-time width of one trace bucket: the sharded worlds' epoch.
pub const EPOCH_NS: u64 = 250_000_000;

/// Per layer: `(calls, host ticks)` in one sim-time epoch.
pub type EpochRow = [(u64, u64); Layer::ALL.len()];

thread_local! {
    /// Whether spans are being recorded. Off during set-up, so that
    /// spans cover the run phase only.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    /// Span time by sim epoch and layer, so that "which layer ate this
    /// epoch" is answerable. Per thread, not per instance: 80 000 spies
    /// each keeping their own epochs would cost the traced run its
    /// cache. Traced reps run on one worker, so one thread sees it all.
    static EPOCHS: RefCell<Vec<EpochRow>> = const { RefCell::new(Vec::new()) };
}

/// Starts recording spans on this thread (the run phase begins).
pub fn start_recording() {
    RECORDING.with(|r| r.set(true));
}

/// Takes this thread's per-epoch table, indexed by sim epoch.
pub fn take_epochs() -> Vec<EpochRow> {
    EPOCHS.with(|e| std::mem::take(&mut *e.borrow_mut()))
}

/// What one spy instance recorded.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    /// Calls per [`Kind`].
    pub calls: [u64; 5],
    /// Host time per [`Kind`], in `clock::ticks`.
    pub ticks: [u64; 5],
}

impl Spans {
    /// Runs `f`, timing it as one span of `layer` if recording is on.
    #[inline]
    fn timed<R>(&mut self, layer: Layer, kind: Kind, at: SimTime, f: impl FnOnce() -> R) -> R {
        if !RECORDING.with(Cell::get) {
            return f();
        }
        let t = clock::ticks();
        let r = f();
        let ticks = clock::ticks().wrapping_sub(t);
        self.calls[kind as usize] += 1;
        self.ticks[kind as usize] += ticks;
        let epoch = (at.as_nanos() / EPOCH_NS) as usize;
        EPOCHS.with(|e| {
            let mut table = e.borrow_mut();
            if table.len() <= epoch {
                table.resize(epoch + 1, EpochRow::default());
            }
            let cell = &mut table[epoch][layer.index()];
            cell.0 += 1;
            cell.1 += ticks;
        });
        r
    }
}

/// A [`Device`] that times every callback of the device inside it.
pub struct Spy<D: Device> {
    pub inner: D,
    pub layer: Layer,
    pub spans: Spans,
}

impl<D: Device> Device for Spy<D> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let (d, at) = (&mut self.inner, ctx.now());
        self.spans
            .timed(self.layer, Kind::Start, at, || d.on_start(ctx));
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        let (d, at) = (&mut self.inner, ctx.now());
        self.spans
            .timed(self.layer, Kind::Input, at, || d.on_packet(ctx, iface, pkt));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let (d, at) = (&mut self.inner, ctx.now());
        self.spans
            .timed(self.layer, Kind::Timer, at, || d.on_timer(ctx, token));
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: u64) {
        let (d, at) = (&mut self.inner, ctx.now());
        self.spans
            .timed(self.layer, Kind::Fault, at, || d.on_fault(ctx, fault));
    }
}

/// An [`App`] that times every callback of the app inside it.
pub struct SpyApp<A: App> {
    pub inner: A,
    pub layer: Layer,
    pub spans: Spans,
}

impl<A: App> App for SpyApp<A> {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        let (a, at) = (&mut self.inner, os.now());
        self.spans
            .timed(self.layer, Kind::Start, at, || a.on_start(os));
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        let (a, at) = (&mut self.inner, os.now());
        self.spans
            .timed(self.layer, Kind::Input, at, || a.on_event(os, ev));
    }

    fn on_timer(&mut self, os: &mut Os<'_, '_>, token: u64) {
        let (a, at) = (&mut self.inner, os.now());
        self.spans
            .timed(self.layer, Kind::Timer, at, || a.on_timer(os, token));
    }

    fn on_fault(&mut self, os: &mut Os<'_, '_>, fault: u64) {
        let (a, at) = (&mut self.inner, os.now());
        self.spans
            .timed(self.layer, Kind::Fault, at, || a.on_fault(os, fault));
    }
}

/// How a world installs its devices and reaches back into them.
pub trait Wrap: Copy {
    /// Whether devices end up inside spies.
    const TRACED: bool;
    fn device<D: Device>(self, layer: Layer, d: D) -> Box<dyn Device>;
    fn app<A: App>(self, layer: Layer, a: A) -> Box<dyn App>;
    /// The app on host `node`, which the world installed as an `A`.
    fn app_of<A: App>(self, sim: &Sim, node: NodeId) -> &A;
    /// Runs `f` against the app on host `node` with a live [`Os`], as
    /// `punch_lab::World::with_app` does.
    fn with_app<A: App, R>(
        self,
        sim: &mut Sim,
        node: NodeId,
        f: impl FnOnce(&mut A, &mut Os<'_, '_>) -> R,
    ) -> R;
}

/// Devices installed bare, exactly as the program's own builders do.
#[derive(Clone, Copy)]
pub struct Plain;

impl Wrap for Plain {
    const TRACED: bool = false;

    fn device<D: Device>(self, _: Layer, d: D) -> Box<dyn Device> {
        Box::new(d)
    }

    fn app<A: App>(self, _: Layer, a: A) -> Box<dyn App> {
        Box::new(a)
    }

    fn app_of<A: App>(self, sim: &Sim, node: NodeId) -> &A {
        sim.device::<HostDevice>(node).app::<A>()
    }

    fn with_app<A: App, R>(
        self,
        sim: &mut Sim,
        node: NodeId,
        f: impl FnOnce(&mut A, &mut Os<'_, '_>) -> R,
    ) -> R {
        sim.with_node(node, |dev, ctx| {
            let host = dev.downcast_mut::<HostDevice>().expect("node is a host");
            host.with_app::<A, R>(ctx, f)
        })
    }
}

/// Every device inside a [`Spy`], every app inside a [`SpyApp`].
#[derive(Clone, Copy)]
pub struct Spied;

impl Spied {
    /// The spied device on `node`, which the world installed as a `D`
    /// (the replicas add routes to their routers after building).
    pub fn device_mut<D: Device>(sim: &mut Sim, node: NodeId) -> &mut D {
        &mut sim.device_mut::<Spy<D>>(node).inner
    }
}

impl Wrap for Spied {
    const TRACED: bool = true;

    fn device<D: Device>(self, layer: Layer, d: D) -> Box<dyn Device> {
        Box::new(Spy {
            inner: d,
            layer,
            spans: Spans::default(),
        })
    }

    fn app<A: App>(self, layer: Layer, a: A) -> Box<dyn App> {
        Box::new(SpyApp {
            inner: a,
            layer,
            spans: Spans::default(),
        })
    }

    fn app_of<A: App>(self, sim: &Sim, node: NodeId) -> &A {
        let host = &sim.device::<Spy<HostDevice>>(node).inner;
        &host.app::<SpyApp<A>>().inner
    }

    fn with_app<A: App, R>(
        self,
        sim: &mut Sim,
        node: NodeId,
        f: impl FnOnce(&mut A, &mut Os<'_, '_>) -> R,
    ) -> R {
        sim.with_node(node, |dev, ctx| {
            let spy = dev
                .downcast_mut::<Spy<HostDevice>>()
                .expect("node is a spied host");
            let (host, at) = (&mut spy.inner, ctx.now());
            // The host's work on the driver's behalf (encode, TCB send,
            // link transmit) is program work: time it as a span of its
            // own kind so it is charged to the layer, not to the driver.
            spy.spans.timed(spy.layer, Kind::Driver, at, || {
                host.with_app::<SpyApp<A>, R>(ctx, |app, os| {
                    let inner = &mut app.inner;
                    app.spans
                        .timed(app.layer, Kind::Driver, at, || f(inner, os))
                })
            })
        })
    }
}
