//! Topology construction.
//!
//! This module owns how a node joins a topology and nothing else about
//! an experiment: `Backbone` is the only code in the crate that creates
//! a host or a NAT and links it in; [`WorldBuilder`] collects
//! declarations and replays them through it (servers, then NATs, then
//! clients); [`fig4`]/[`fig5`]/[`fig6`] are declarations of the paper's
//! three figures; [`World`] and [`Scenario`] are what comes out, with
//! typed access to the applications and the fault hooks.

use punch_nat::{NatBehavior, NatDevice};
use punch_net::{Cidr, Endpoint, FaultPlan, LinkId, LinkSpec, NodeId, Router, Sim, SimTime};
use punch_rendezvous::{RendezvousServer, ServerConfig, SERVER_PORT};
use punch_transport::{App, HostDevice, Os, StackConfig};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// The paper's example addresses (Figure 5 / Figure 6).
pub mod addrs {
    use std::net::Ipv4Addr;

    /// Rendezvous server S.
    pub const SERVER: Ipv4Addr = Ipv4Addr::new(18, 181, 0, 31);
    /// NAT A's public address.
    pub const NAT_A: Ipv4Addr = Ipv4Addr::new(155, 99, 25, 11);
    /// NAT B's public address.
    pub const NAT_B: Ipv4Addr = Ipv4Addr::new(138, 76, 29, 7);
    /// Client A's private address.
    pub const CLIENT_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    /// Client B's private address (a different private realm in Fig. 5,
    /// the same realm in Fig. 4 — contexts differ, the octets match the
    /// paper).
    pub const CLIENT_B: Ipv4Addr = Ipv4Addr::new(10, 1, 1, 3);
    /// NAT A's "semi-public" address inside the ISP realm (Fig. 6).
    pub const ISP_NAT_A: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 1);
    /// NAT B's "semi-public" address inside the ISP realm (Fig. 6).
    pub const ISP_NAT_B: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
}

/// The one place in this crate that wires a host or a NAT into a
/// topology: a simulation, its backbone router, and the host routes the
/// router gets once every node exists. [`WorldBuilder::build`] and
/// [`crate::shard::ShardedWorld::build`] both drive it, each in its own
/// order — node ids (and with them id-seeded RNG streams), interface
/// numbers and link ids all follow call order, so the order of calls is
/// part of what a builder promises.
pub(crate) struct Backbone {
    sim: Sim,
    internet: NodeId,
    /// Host routes for the backbone router, installed by [`Backbone::finish`].
    routes: Vec<(Cidr, usize)>,
}

impl Backbone {
    /// Adds the backbone router (`internet`) to `sim`.
    pub(crate) fn new(mut sim: Sim) -> Self {
        let internet = sim.add_node("internet", Box::new(Router::new()));
        Backbone {
            sim,
            internet,
            routes: Vec::new(),
        }
    }

    /// Adds a host running `app` on the private side of the NAT
    /// `behind`, or — `None` — on the backbone with a route to `ip`. A
    /// builder whose hosts all run one app type passes it by value and
    /// gets a `HostDevice<A>`; [`WorldBuilder`] passes `Box<dyn App>`.
    pub(crate) fn host<A: App>(
        &mut self,
        name: impl AsRef<str>,
        ip: Ipv4Addr,
        stack: impl Into<Arc<StackConfig>>,
        app: A,
        behind: Option<NodeId>,
        link: LinkSpec,
    ) -> NodeId {
        let node = self.sim.add_node(name, Box::new(HostDevice::new(ip, stack, app)));
        let (up_iface, _) = self.sim.connect(behind.unwrap_or(self.internet), node, link);
        if behind.is_none() {
            self.routes.push((Cidr::host(ip), up_iface));
        }
        node
    }

    /// Adds a NAT whose public side is on the backbone with a route to
    /// `public_ip`, or — `behind: Some(parent)` — inside `parent`'s
    /// private realm (Figure 6), where the parent learns the child's
    /// realm address from the child's outbound traffic.
    pub(crate) fn nat(
        &mut self,
        name: impl AsRef<str>,
        behavior: Arc<NatBehavior>,
        public_ip: Ipv4Addr,
        behind: Option<NodeId>,
        link: LinkSpec,
    ) -> NodeId {
        let node = self.sim.add_node(name, Box::new(NatDevice::new(behavior, vec![public_ip])));
        // A NAT's first link is its public side.
        let (nat_iface, up_iface) = self.sim.connect(node, behind.unwrap_or(self.internet), link);
        debug_assert_eq!(nat_iface, 0, "NAT public side must be iface 0");
        if behind.is_none() {
            self.routes.push((Cidr::host(public_ip), up_iface));
        }
        node
    }

    /// Installs the routes and hands back the simulation and its router.
    pub(crate) fn finish(mut self) -> (Sim, NodeId) {
        let router = self.sim.device_mut::<Router>(self.internet);
        for (cidr, iface) in self.routes {
            router.add_route(cidr, iface);
        }
        (self.sim, self.internet)
    }
}

/// Runs `f` against the application of the `HostDevice<A>` on `node`
/// with a live [`Os`].
pub(crate) fn with_host_app<A: App, T: App, R>(
    sim: &mut Sim,
    node: NodeId,
    f: impl FnOnce(&mut T, &mut Os<'_, '_>) -> R,
) -> R {
    sim.with_node(node, |dev, ctx| {
        #[expect(clippy::expect_used, reason = "typed-accessor contract: caller names a node it created as a host")]
        let host = dev.downcast_mut::<HostDevice<A>>().expect("node is a host");
        host.with_app::<T, R>(ctx, f)
    })
}

/// A declared host: a server (always public) or a client.
struct HostSpec {
    ip: Ipv4Addr,
    /// Index of the NAT it sits behind; `None` attaches it to the backbone.
    behind: Option<usize>,
    app: Box<dyn App>,
    stack: StackConfig,
    /// Access link; `None` takes the builder's LAN or WAN profile.
    link: Option<LinkSpec>,
}

struct NatSpec {
    behavior: Arc<NatBehavior>,
    public_ip: Ipv4Addr,
    parent: Option<usize>,
}

/// An application plus the stack configuration and access link of its
/// host.
pub struct PeerSetup {
    /// The application to run.
    pub app: Box<dyn App>,
    /// Host stack configuration (defaults to [`StackConfig::fast`]).
    pub stack: StackConfig,
    /// The host's access link, e.g. a slow one to skew punch timing for
    /// §4.3/§5.2 experiments; `None` (the default) takes the builder's
    /// LAN or WAN profile.
    pub link: Option<LinkSpec>,
}

impl PeerSetup {
    /// Wraps an app with the fast stack configuration.
    pub fn new(app: impl App + 'static) -> Self {
        PeerSetup {
            app: Box::new(app),
            stack: StackConfig::fast(),
            link: None,
        }
    }

    /// Overrides the host stack configuration.
    pub fn with_stack(mut self, stack: StackConfig) -> Self {
        self.stack = stack;
        self
    }
}

/// A built topology.
pub struct World {
    /// The simulation.
    pub sim: Sim,
    /// The backbone router.
    pub internet: NodeId,
    /// Server nodes, in declaration order.
    pub servers: Vec<NodeId>,
    /// NAT nodes, in declaration order.
    pub nats: Vec<NodeId>,
    /// Client nodes, in declaration order.
    pub clients: Vec<NodeId>,
}

impl World {
    /// Immutable access to a host's application, downcast to `T`.
    pub fn app<T: App>(&self, node: NodeId) -> &T {
        self.sim.device::<HostDevice>(node).app::<T>()
    }

    /// Runs `f` against a host's application with a live [`Os`].
    pub fn with_app<T: App, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut Os<'_, '_>) -> R,
    ) -> R {
        with_host_app::<Box<dyn App>, T, R>(&mut self.sim, node, f)
    }

    /// Runs until `pred` over the app on `node` holds, or `deadline`
    /// passes; returns whether the predicate was met.
    pub fn run_until_app<T: App>(
        &mut self,
        node: NodeId,
        deadline: SimTime,
        mut pred: impl FnMut(&T) -> bool,
    ) -> bool {
        self.sim.run_while(deadline, |sim| {
            pred(sim.device::<HostDevice>(node).app::<T>())
        })
    }

    /// The NAT device on `node` (must be one of `self.nats`).
    pub fn nat(&self, node: NodeId) -> &NatDevice {
        self.sim.device::<NatDevice>(node)
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// The link connecting `node` to the rest of the topology (its
    /// iface-0 uplink: a client's access link, a NAT's public link, a
    /// server's backbone link). Pass it to [`FaultPlan`] builders or
    /// [`Sim::schedule_link_fault`].
    pub fn uplink(&self, node: NodeId) -> LinkId {
        self.sim.link_of(node, 0)
    }

    /// Schedules every step of a fault plan onto the simulation.
    pub fn apply_faults(&mut self, plan: &FaultPlan) {
        plan.apply(&mut self.sim);
    }
}

/// Builds arbitrary experiment topologies.
///
/// Declaration order matters only for nesting: a NAT's parent must be
/// declared before it.
pub struct WorldBuilder {
    seed: u64,
    wan: LinkSpec,
    lan: LinkSpec,
    servers: Vec<HostSpec>,
    nats: Vec<NatSpec>,
    clients: Vec<HostSpec>,
    metrics: bool,
}

impl WorldBuilder {
    /// Starts a topology with the given determinism seed.
    pub fn new(seed: u64) -> Self {
        WorldBuilder {
            seed,
            wan: LinkSpec::wan(),
            lan: LinkSpec::lan(),
            servers: Vec::new(),
            nats: Vec::new(),
            clients: Vec::new(),
            metrics: false,
        }
    }

    /// Enables the simulation's metrics registry (see
    /// [`punch_net::Sim::enable_metrics`]). Off by default; enabling it
    /// never changes simulation behaviour, only records it.
    pub fn metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Sets the backbone link profile (server/NAT to router).
    pub fn wan(mut self, spec: LinkSpec) -> Self {
        self.wan = spec;
        self
    }

    /// Sets the private-side link profile (client to NAT).
    pub fn lan(mut self, spec: LinkSpec) -> Self {
        self.lan = spec;
        self
    }

    /// Adds a public server host; returns its index.
    pub fn server(&mut self, ip: Ipv4Addr, app: impl App + 'static) -> usize {
        self.servers.push(HostSpec {
            ip,
            behind: None,
            app: Box::new(app),
            stack: StackConfig::default(),
            link: None,
        });
        self.servers.len() - 1
    }

    /// Adds a top-level NAT; returns its index. `behavior` is a value or
    /// an `Arc` that several NATs share.
    pub fn nat(&mut self, behavior: impl Into<Arc<NatBehavior>>, public_ip: Ipv4Addr) -> usize {
        self.push_nat(behavior, public_ip, None)
    }

    /// Adds a NAT whose public side lives inside `parent`'s private realm
    /// (multi-level NAT, Figure 6).
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not an earlier NAT index.
    // punch-lint: allow(S005) §3.5 nested NATs outside Figure 6: lab/tests/wiring_contract.rs builds one into its every-method world
    pub fn nat_behind(
        &mut self,
        behavior: NatBehavior,
        realm_ip: Ipv4Addr,
        parent: usize,
    ) -> usize {
        self.push_nat(behavior, realm_ip, Some(parent))
    }

    fn push_nat(
        &mut self,
        behavior: impl Into<Arc<NatBehavior>>,
        public_ip: Ipv4Addr,
        parent: Option<usize>,
    ) -> usize {
        assert!(
            parent.is_none_or(|p| p < self.nats.len()),
            "parent NAT must be declared first"
        );
        self.nats.push(NatSpec {
            behavior: behavior.into(),
            public_ip,
            parent,
        });
        self.nats.len() - 1
    }

    /// Adds a client behind NAT `nat`; returns its index.
    pub fn client(&mut self, ip: Ipv4Addr, nat: usize, setup: PeerSetup) -> usize {
        self.push_client(ip, Some(nat), setup)
    }

    /// Adds a client attached directly to the public Internet.
    pub fn public_client(&mut self, ip: Ipv4Addr, setup: PeerSetup) -> usize {
        self.push_client(ip, None, setup)
    }

    fn push_client(&mut self, ip: Ipv4Addr, behind: Option<usize>, setup: PeerSetup) -> usize {
        assert!(
            behind.is_none_or(|nat| nat < self.nats.len()),
            "client's NAT must be declared first"
        );
        self.clients.push(HostSpec {
            ip,
            behind,
            app: setup.app,
            stack: setup.stack,
            link: setup.link,
        });
        self.clients.len() - 1
    }

    /// Materializes the topology: servers, then NATs, then clients, each
    /// in declaration order — however the declarations were interleaved —
    /// so node ids and link ids depend only on the three lists.
    pub fn build(self) -> World {
        let mut sim = Sim::new(self.seed);
        if self.metrics {
            sim.enable_metrics();
        }
        let mut net = Backbone::new(sim);
        // Whatever hangs off a NAT's private side gets the LAN profile.
        let link_behind = |nat: Option<NodeId>| if nat.is_some() { self.lan } else { self.wan };
        let host = |net: &mut Backbone, nats: &[NodeId], name: String, h: HostSpec| {
            let behind = h.behind.map(|n| nats[n]);
            let link = h.link.unwrap_or(link_behind(behind));
            net.host(name, h.ip, h.stack, h.app, behind, link)
        };

        let servers = (self.servers.into_iter().enumerate())
            .map(|(i, s)| host(&mut net, &[], format!("s{i}"), s))
            .collect();
        let mut nats = Vec::new();
        for (i, n) in self.nats.into_iter().enumerate() {
            let parent = n.parent.map(|p| nats[p]);
            let link = link_behind(parent);
            nats.push(net.nat(format!("nat{i}"), n.behavior, n.public_ip, parent, link));
        }
        let clients = (self.clients.into_iter().enumerate())
            .map(|(i, c)| host(&mut net, &nats, format!("c{i}"), c))
            .collect();

        let (sim, internet) = net.finish();
        World {
            sim,
            internet,
            servers,
            nats,
            clients,
        }
    }
}

/// A canonical two-client scenario with one rendezvous server.
pub struct Scenario {
    /// The topology.
    pub world: World,
    /// The rendezvous server node.
    pub server: NodeId,
    /// Client A's node.
    pub a: NodeId,
    /// Client B's node.
    pub b: NodeId,
}

impl Scenario {
    /// Names the first server and the first two clients of `world`.
    ///
    /// # Panics
    ///
    /// Panics if `world` has no server or fewer than two clients.
    pub fn new(world: World) -> Self {
        Scenario {
            server: world.servers[0],
            a: world.clients[0],
            b: world.clients[1],
            world,
        }
    }

    /// The rendezvous server's well-known endpoint.
    pub fn server_endpoint() -> Endpoint {
        Endpoint::new(addrs::SERVER, SERVER_PORT)
    }
}

/// Builds Figure 4 (§3.3): clients A and B behind one **common NAT**.
pub fn fig4(seed: u64, nat: NatBehavior, a: PeerSetup, b: PeerSetup) -> Scenario {
    let mut wb = WorldBuilder::new(seed);
    wb.server(
        addrs::SERVER,
        RendezvousServer::new(ServerConfig::default()),
    );
    let n = wb.nat(nat, addrs::NAT_A);
    wb.client(addrs::CLIENT_A, n, a);
    wb.client(Ipv4Addr::new(10, 0, 0, 2), n, b);
    Scenario::new(wb.build())
}

/// Figure 5 declared but not yet built: S running `server`, NAT A
/// (index 0), NAT B (index 1) and clients A and B behind them. Callers
/// add to it before building — a WAN profile, or further clients such
/// as attack bots or a chatterer behind NAT A; [`WorldBuilder::build`]
/// materialises servers, then NATs, then clients, so whatever is added
/// leaves the figure's node and link ids as they are.
pub fn fig5_builder(
    seed: u64,
    server: ServerConfig,
    nat_a: NatBehavior,
    nat_b: NatBehavior,
    a: PeerSetup,
    b: PeerSetup,
) -> WorldBuilder {
    let mut wb = WorldBuilder::new(seed);
    wb.server(addrs::SERVER, RendezvousServer::new(server));
    let na = wb.nat(nat_a, addrs::NAT_A);
    let nb = wb.nat(nat_b, addrs::NAT_B);
    wb.client(addrs::CLIENT_A, na, a);
    wb.client(addrs::CLIENT_B, nb, b);
    wb
}

/// Builds Figure 5 (§3.4): clients A and B behind **different NATs**,
/// using the paper's example addresses (155.99.25.11 / 138.76.29.7).
pub fn fig5(
    seed: u64,
    nat_a: NatBehavior,
    nat_b: NatBehavior,
    a: PeerSetup,
    b: PeerSetup,
) -> Scenario {
    Scenario::new(fig5_builder(seed, ServerConfig::default(), nat_a, nat_b, a, b).build())
}

/// Builds Figure 6 (§3.5): consumer NATs A and B behind a common **ISP
/// NAT C**; only C has a globally routable address, so punching requires
/// C's hairpin support.
pub fn fig6(
    seed: u64,
    nat_c: NatBehavior,
    nat_a: NatBehavior,
    nat_b: NatBehavior,
    a: PeerSetup,
    b: PeerSetup,
) -> Scenario {
    let mut wb = WorldBuilder::new(seed);
    wb.server(
        addrs::SERVER,
        RendezvousServer::new(ServerConfig::default()),
    );
    let nc = wb.nat(nat_c, addrs::NAT_A);
    let na = wb.nat_behind(nat_a, addrs::ISP_NAT_A, nc);
    let nb = wb.nat_behind(nat_b, addrs::ISP_NAT_B, nc);
    wb.client(addrs::CLIENT_A, na, a);
    wb.client(addrs::CLIENT_B, nb, b);
    Scenario::new(wb.build())
}
