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
use crate::stack::{ConnectOpts, HostStack, Outboxes};
use bytes::Bytes;
use punch_net::{Counters, Ctx, Device, Endpoint, IfaceId, MetricKey, Packet, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::any::Any;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::sync::Arc;
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

    /// Queues stream data, every part as one write. See
    /// [`HostStack::tcp_send`].
    pub fn tcp_send(
        &mut self,
        sock: SocketId,
        parts: impl IntoIterator<Item = impl Into<Bytes>>,
    ) -> SockResult<()> {
        self.stack.tcp_send(sock, parts)
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

/// A boxed application is an application: this is what a host of the
/// default type, `HostDevice<Box<dyn App>>`, runs.
impl App for Box<dyn App> {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        (**self).on_start(os);
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        (**self).on_event(os, ev);
    }

    fn on_timer(&mut self, os: &mut Os<'_, '_>, token: u64) {
        (**self).on_timer(os, token);
    }

    fn on_fault(&mut self, os: &mut Os<'_, '_>, fault: u64) {
        (**self).on_fault(os, fault);
    }

    fn counters(&self, c: &mut Counters<'_>) {
        (**self).counters(c);
    }
}

/// `app` as a `T`: a typed host's own field, or what a boxed host's
/// box holds.
fn downcast_ref<A: App, T: App>(app: &A) -> Option<&T> {
    let any: &dyn Any = app;
    match any.downcast_ref::<Box<dyn App>>() {
        Some(boxed) => boxed.downcast_ref::<T>(),
        None => any.downcast_ref::<T>(),
    }
}

/// [`downcast_ref`], mutably.
fn downcast_mut<A: App, T: App>(app: &mut A) -> Option<&mut T> {
    let any: &mut dyn Any = app;
    if any.is::<Box<dyn App>>() {
        any.downcast_mut::<Box<dyn App>>()?.downcast_mut::<T>()
    } else {
        any.downcast_mut::<T>()
    }
}

thread_local! {
    /// The outboxes this thread lends to the host running a callback.
    /// A host's own are empty whenever no callback runs (`drive` drains
    /// them before returning), so one set per thread serves every host
    /// the thread runs and a host holds no buffer between callbacks.
    static SPARE: RefCell<Outboxes> = const {
        RefCell::new(Outboxes {
            out: Vec::new(),
            events: Vec::new(),
            timers: Vec::new(),
        })
    };
}

/// Swaps this thread's spare outboxes with `stack`'s: every callback
/// begins by borrowing the set and ends, once `drive` has drained it, by
/// handing it back ([`HostDevice::finish`]).
fn swap_spare(stack: &mut HostStack) {
    SPARE.with_borrow_mut(|spare| stack.swap_outboxes(spare));
}

/// A simulator node hosting a protocol stack and an application.
///
/// The host has exactly one network interface (iface 0) and one IP
/// address; routing beyond the first hop is the network's concern.
///
/// `A` is the application type. A builder whose hosts all run one app
/// names it, so the app sits inline and is called statically; the
/// default, `Box<dyn App>`, is for worlds that mix applications.
/// [`HostDevice::app`] and [`HostDevice::with_app`] work on either.
pub struct HostDevice<A: App = Box<dyn App>> {
    stack: HostStack,
    app: A,
    started: bool,
}

// One per host, boxed into the sim's device table.
const _: () = assert!(std::mem::size_of::<HostDevice>() <= 384);

impl<A: App> HostDevice<A> {
    /// Creates a host with address `ip` running `app`. `cfg` is a value
    /// or an `Arc` that many hosts share.
    pub fn new(ip: Ipv4Addr, cfg: impl Into<Arc<StackConfig>>, app: A) -> Self {
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
        #[expect(clippy::panic, reason = "typed-accessor contract: caller names the app type it installed")]
        let app = downcast_ref::<A, T>(&self.app)
            .unwrap_or_else(|| panic!("app is not a {}", std::any::type_name::<T>()));
        app
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
        #[expect(clippy::panic, reason = "typed-accessor contract: caller names the app type it installed")]
        let app = downcast_mut::<A, T>(&mut self.app)
            .unwrap_or_else(|| panic!("app is not a {}", std::any::type_name::<T>()));
        swap_spare(&mut self.stack);
        let mut os = Os {
            stack: &mut self.stack,
            ctx,
        };
        let r = f(app, &mut os);
        self.finish(ctx);
        r
    }

    /// Ends a callback that began with [`swap_spare`]: drives what it
    /// queued, then hands the emptied outboxes back to the thread.
    fn finish(&mut self, ctx: &mut Ctx<'_>) {
        Self::drive(&mut self.stack, &mut self.app, ctx);
        swap_spare(&mut self.stack);
    }

    /// Flushes stack side effects and dispatches pending events to the
    /// app, repeating until quiescent (app callbacks may generate more).
    /// The outboxes are drained in place and keep their buffers, so the
    /// per-packet dispatch loop never allocates once the thread's spare
    /// set has grown.
    fn drive(stack: &mut HostStack, app: &mut A, ctx: &mut Ctx<'_>) {
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

impl<A: App> Device for HostDevice<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if !self.started {
            self.started = true;
            let seed = ctx.rng().gen();
            self.stack.reseed(seed);
        }
        swap_spare(&mut self.stack);
        let mut os = Os {
            stack: &mut self.stack,
            ctx,
        };
        self.app.on_start(&mut os);
        self.finish(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _iface: IfaceId, pkt: Packet) {
        swap_spare(&mut self.stack);
        self.stack.handle_packet(pkt);
        self.finish(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        swap_spare(&mut self.stack);
        if !self.stack.handle_timer(token) {
            let mut os = Os {
                stack: &mut self.stack,
                ctx,
            };
            self.app.on_timer(&mut os, token);
        }
        self.finish(ctx);
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: u64) {
        swap_spare(&mut self.stack);
        let mut os = Os {
            stack: &mut self.stack,
            ctx,
        };
        self.app.on_fault(&mut os, fault);
        self.finish(ctx);
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

#[cfg(test)]
mod tests {
    use super::*;
    use punch_net::{LinkSpec, NodeId, Sim};

    const SERVER: Endpoint = Endpoint::new(Ipv4Addr::new(18, 181, 0, 31), 80);

    /// Echoes datagrams and accepts streams on port 80.
    struct Server;

    impl App for Server {
        fn on_start(&mut self, os: &mut Os<'_, '_>) {
            os.udp_bind(SERVER.port).expect("bind");
            os.tcp_listen(SERVER.port, false).expect("listen");
        }

        fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
            match ev {
                SockEvent::UdpReceived { sock, from, data } => {
                    os.udp_send(sock, from, data).expect("echo");
                }
                SockEvent::TcpIncoming { listener } => {
                    while let Ok(Some(_)) = os.tcp_accept(listener) {}
                }
                _ => {}
            }
        }
    }

    /// Sends a datagram and opens a stream at start (a packet out and a
    /// SYN retransmission timer armed by the stack), then counts the
    /// events the stack dispatches back.
    #[derive(Default)]
    struct Client {
        events: usize,
    }

    impl App for Client {
        fn on_start(&mut self, os: &mut Os<'_, '_>) {
            let sock = os.udp_bind(0).expect("bind");
            os.udp_send(sock, SERVER, b"ping".as_ref()).expect("send");
            os.tcp_connect(SERVER, ConnectOpts::default())
                .expect("connect");
        }

        fn on_event(&mut self, _os: &mut Os<'_, '_>, _ev: SockEvent) {
            self.events += 1;
        }
    }

    fn capacities<A: App>(sim: &Sim, node: NodeId) -> [usize; 3] {
        let stack = &sim.device::<HostDevice<A>>(node).stack;
        [
            stack.out.capacity(),
            stack.events.capacity(),
            stack.timers.capacity(),
        ]
    }

    #[test]
    fn outboxes_hold_no_buffer_between_callbacks() {
        let mut sim = Sim::new(1);
        let server = sim.add_node(
            "s",
            Box::new(HostDevice::new(SERVER.ip, StackConfig::default(), Server)),
        );
        let client = HostDevice::new(
            [10, 0, 0, 1].into(),
            StackConfig::default(),
            Client::default(),
        );
        let client = sim.add_node("c", Box::new(client));
        sim.connect(client, server, LinkSpec::wan());
        sim.run_until_idle();
        // The echo and `TcpConnected` reached the app.
        let app = sim.device::<HostDevice<Client>>(client).app::<Client>();
        assert_eq!(app.events, 2);
        assert_eq!(capacities::<Client>(&sim, client), [0; 3]);
        assert_eq!(capacities::<Server>(&sim, server), [0; 3]);
    }
}
