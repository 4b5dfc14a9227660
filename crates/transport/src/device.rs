//! Embedding a host stack into the simulator, and the application model.
//!
//! A [`HostDevice`] is a simulator node that runs a [`HostStack`] plus one
//! [`App`]. Applications are event-driven state machines, the same shape
//! as epoll/kqueue code: they react to [`SockEvent`]s and timers, and call
//! into the socket API through the [`Os`] handle.
//!
//! The stack counts its transport events in [`crate::StackStats`] only; a
//! metrics snapshot gets them as `transport.*` counters from the host,
//! which then lets its app write its own ([`App::counters`]).

use crate::config::StackConfig;
use crate::error::SockResult;
use crate::event::SockEvent;
use crate::socket::{SocketId, INTERNAL_TIMER_BIT};
use crate::stack::{ConnectOpts, HostStack};
use bytes::Bytes;
use punch_net::{Counters, Ctx, Device, Endpoint, IfaceId, MetricKey, Packet, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::any::Any;
use std::net::Ipv4Addr;
use std::time::Duration;

/// The socket-facing system interface handed to application callbacks.
///
/// `Os` borrows the host's stack and the simulation context for the
/// duration of one callback. All methods are non-blocking; completions
/// arrive as [`SockEvent`]s.
pub struct Os<'a, 'b> {
    stack: &'a mut HostStack,
    ctx: &'a mut Ctx<'b>,
}

impl Os<'_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This host's IP address.
    pub fn host_ip(&self) -> Ipv4Addr {
        self.stack.ip()
    }

    /// Deterministic per-node RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.ctx.rng()
    }

    /// Arms an application timer delivering `token` to [`App::on_timer`].
    ///
    /// # Panics
    ///
    /// Panics if bit 63 of `token` is set (reserved for the stack).
    pub fn set_timer(&mut self, after: Duration, token: u64) {
        assert!(
            token & INTERNAL_TIMER_BIT == 0,
            "token bit 63 is reserved for the stack"
        );
        self.ctx.set_timer(after, token);
    }

    /// Binds a UDP socket. See [`HostStack::udp_bind`].
    pub fn udp_bind(&mut self, port: u16) -> SockResult<SocketId> {
        self.stack.udp_bind(port)
    }

    /// Sends a UDP datagram. See [`HostStack::udp_send`].
    pub fn udp_send(
        &mut self,
        sock: SocketId,
        to: Endpoint,
        data: impl Into<Bytes>,
    ) -> SockResult<()> {
        self.stack.udp_send(sock, to, data)
    }

    /// Opens a TCP listener. See [`HostStack::tcp_listen`].
    pub fn tcp_listen(&mut self, port: u16, reuse: bool) -> SockResult<SocketId> {
        self.stack.tcp_listen(port, reuse)
    }

    /// Starts an asynchronous TCP connect. See [`HostStack::tcp_connect`].
    pub fn tcp_connect(&mut self, remote: Endpoint, opts: ConnectOpts) -> SockResult<SocketId> {
        self.stack.tcp_connect(remote, opts)
    }

    /// Accepts a ready connection. See [`HostStack::tcp_accept`].
    pub fn tcp_accept(&mut self, listener: SocketId) -> SockResult<Option<(SocketId, Endpoint)>> {
        self.stack.tcp_accept(listener)
    }

    /// Queues stream data. See [`HostStack::tcp_send`].
    pub fn tcp_send(&mut self, sock: SocketId, data: impl Into<Bytes>) -> SockResult<()> {
        self.stack.tcp_send(sock, data)
    }

    /// Gracefully closes any socket. See [`HostStack::close`].
    pub fn close(&mut self, sock: SocketId) -> SockResult<()> {
        self.stack.close(sock)
    }

    /// Aborts a TCP connection with a RST. See [`HostStack::tcp_abort`].
    pub fn tcp_abort(&mut self, sock: SocketId) -> SockResult<()> {
        self.stack.tcp_abort(sock)
    }

    /// Local endpoint of a socket.
    pub fn local_endpoint(&self, sock: SocketId) -> SockResult<Endpoint> {
        self.stack.local_endpoint(sock)
    }

    /// Remote endpoint of a TCP connection.
    pub fn remote_endpoint(&self, sock: SocketId) -> SockResult<Endpoint> {
        self.stack.remote_endpoint(sock)
    }

    /// Increments an unlabelled metrics counter. See [`Ctx::metric_inc`].
    pub fn metric_inc(&mut self, name: &'static str) {
        self.ctx.metric_inc(name);
    }

    /// Adds `by` to an unlabelled metrics counter.
    pub fn metric_inc_by(&mut self, name: &'static str, by: u64) {
        self.ctx.metric_inc_by(name, by);
    }

    /// Increments a labelled metrics counter (e.g. a failure reason).
    pub fn metric_inc_labeled(&mut self, name: &'static str, label: &'static str) {
        self.ctx.metric_inc_labeled(name, label);
    }

    /// Records a sim-time observation into a metrics histogram.
    pub fn metric_observe(&mut self, name: &'static str, d: Duration) {
        self.ctx.metric_observe(name, d);
    }
}

/// An event-driven application running on a [`HostDevice`].
///
/// `Send` is required (as on [`punch_net::Device`]) so sims hosting apps
/// can be advanced from worker threads in sharded worlds.
pub trait App: Any + Send {
    /// Called once when the host starts.
    fn on_start(&mut self, _os: &mut Os<'_, '_>) {}

    /// Called for each socket event.
    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent);

    /// Called when an application timer armed via [`Os::set_timer`] fires.
    fn on_timer(&mut self, _os: &mut Os<'_, '_>, _token: u64) {}

    /// Called when a scripted device fault (see [`punch_net::fault`])
    /// hits this host. `punch_net::FAULT_RESTART` means "restart the
    /// process, losing volatile state". The default ignores faults.
    fn on_fault(&mut self, _os: &mut Os<'_, '_>, _fault: u64) {}

    /// Writes the counts this application keeps in its always-on stats
    /// into a metrics snapshot, as [`Device::counters`] does for a
    /// device. The default writes nothing.
    fn counters(&self, _c: &mut Counters<'_>) {}
}

impl dyn App {
    /// Downcasts an application reference to its concrete type.
    pub fn downcast_ref<T: App>(&self) -> Option<&T> {
        (self as &dyn Any).downcast_ref::<T>()
    }

    /// Downcasts a mutable application reference.
    pub fn downcast_mut<T: App>(&mut self) -> Option<&mut T> {
        (self as &mut dyn Any).downcast_mut::<T>()
    }
}

/// A simulator node hosting a protocol stack and an application.
///
/// The host has exactly one network interface (iface 0) and one IP
/// address; routing beyond the first hop is the network's concern.
pub struct HostDevice {
    stack: HostStack,
    app: Box<dyn App>,
    started: bool,
}

// One per host, boxed into the sim's device table: 40 000 of them in
// the benchmark's `crowd_udp`.
const _: () = assert!(std::mem::size_of::<HostDevice>() <= 416);

impl HostDevice {
    /// Creates a host with address `ip` running `app`.
    pub fn new(ip: Ipv4Addr, cfg: StackConfig, app: Box<dyn App>) -> Self {
        // The stack RNG is reseeded from the node's deterministic stream
        // in `on_start`; the placeholder seed only covers direct
        // stack manipulation before the simulation first runs.
        HostDevice {
            stack: HostStack::new(ip, cfg, 0),
            app,
            started: false,
        }
    }

    /// Shared access to the application, downcast to `T`.
    ///
    /// # Panics
    ///
    /// Panics if the application is not a `T`.
    pub fn app<T: App>(&self) -> &T {
        self.app
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("app is not a {}", std::any::type_name::<T>())) // punch-lint: allow(P001) typed-accessor contract: caller names the app type it installed
    }

    /// Read-only access to the host stack.
    pub fn stack(&self) -> &HostStack {
        &self.stack
    }

    /// Runs `f` against the application with a live [`Os`], then drains
    /// the stack's side effects into the network. This is how harness
    /// code kicks off application actions between engine steps (pair it
    /// with [`punch_net::Sim::with_node`]).
    pub fn with_app<T: App, R>(
        &mut self,
        ctx: &mut Ctx<'_>,
        f: impl FnOnce(&mut T, &mut Os<'_, '_>) -> R,
    ) -> R {
        let app = self
            .app
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("app is not a {}", std::any::type_name::<T>())); // punch-lint: allow(P001) typed-accessor contract: caller names the app type it installed
        let mut os = Os {
            stack: &mut self.stack,
            ctx,
        };
        let r = f(app, &mut os);
        Self::drive(&mut self.stack, self.app.as_mut(), ctx);
        r
    }

    /// Flushes stack side effects and dispatches pending events to the
    /// app, repeating until quiescent (app callbacks may generate more).
    /// The stack's outboxes are drained in place and keep their buffers,
    /// so the per-packet dispatch loop never allocates and a host holds
    /// one buffer per kind.
    fn drive(stack: &mut HostStack, app: &mut dyn App, ctx: &mut Ctx<'_>) {
        loop {
            for pkt in stack.out.drain(..) {
                ctx.send(0, pkt);
            }
            for (after, token) in stack.timers.drain(..) {
                ctx.set_timer(after, token);
            }
            if stack.events.is_empty() {
                return;
            }
            // Callbacks push to `stack.events` while this batch is being
            // delivered, so the batch moves out; its emptied buffer goes
            // back underneath whatever they queued.
            let mut batch = std::mem::take(&mut stack.events);
            for ev in batch.drain(..) {
                let mut os = Os { stack, ctx };
                app.on_event(&mut os, ev);
            }
            batch.append(&mut stack.events);
            stack.events = batch;
        }
    }
}

impl Device for HostDevice {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if !self.started {
            self.started = true;
            let seed = ctx.rng().gen();
            self.stack.reseed(seed);
        }
        let mut os = Os {
            stack: &mut self.stack,
            ctx,
        };
        self.app.on_start(&mut os);
        Self::drive(&mut self.stack, self.app.as_mut(), ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
        self.stack.handle_packet(pkt);
        Self::drive(&mut self.stack, self.app.as_mut(), ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if !self.stack.handle_timer(token) {
            let mut os = Os {
                stack: &mut self.stack,
                ctx,
            };
            self.app.on_timer(&mut os, token);
        }
        Self::drive(&mut self.stack, self.app.as_mut(), ctx);
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: u64) {
        let mut os = Os {
            stack: &mut self.stack,
            ctx,
        };
        self.app.on_fault(&mut os, fault);
        Self::drive(&mut self.stack, self.app.as_mut(), ctx);
    }

    /// The stack's transport counters, then the application's.
    fn counters(&self, c: &mut Counters<'_>) {
        let s = self.stack.stats();
        c.inc_by(MetricKey::plain("transport.retransmit"), s.retransmits);
        c.inc_by(MetricKey::plain("transport.rto"), s.rto_fires);
        c.inc_by(MetricKey::plain("transport.rst_sent"), s.rsts_sent);
        c.inc_by(MetricKey::plain("transport.checksum_drop"), s.checksum_drops);
        c.inc_by(MetricKey::plain("transport.rst_accepted"), s.rsts_accepted);
        c.inc_by(MetricKey::plain("transport.rst_rejected"), s.rsts_rejected);
        self.app.counters(c);
    }
}
