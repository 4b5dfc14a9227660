//! End-to-end NAT device tests: hosts with real stacks on both sides of a
//! [`NatDevice`], verifying translation, filtering, hairpin, timers,
//! rejection policies and ICMP handling.

use bytes::Bytes;
use punch_nat::{Hairpin, NatBehavior, NatDevice, PortAllocation, TcpUnsolicited};
use punch_net::{Duration, Endpoint, LinkSpec, Router, Sim, SimTime};
use punch_transport::{
    App, ConnectOpts, HostDevice, Os, SockEvent, SocketError, SocketId, StackConfig,
};

fn ep(s: &str) -> Endpoint {
    s.parse().unwrap()
}

/// Binds a UDP port and sends one probe to each target; collects replies.
#[derive(Default)]
struct UdpProbe {
    port: u16,
    targets: Vec<Endpoint>,
    replies: Vec<(Endpoint, Bytes)>,
    sock: Option<SocketId>,
}

impl UdpProbe {
    fn new(port: u16, targets: Vec<Endpoint>) -> Self {
        UdpProbe {
            port,
            targets,
            ..Default::default()
        }
    }
}

impl App for UdpProbe {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        let sock = os.udp_bind(self.port).unwrap();
        self.sock = Some(sock);
        for t in &self.targets {
            os.udp_send(sock, *t, b"probe".as_ref()).unwrap();
        }
    }

    fn on_event(&mut self, _os: &mut Os<'_, '_>, ev: SockEvent) {
        if let SockEvent::UdpReceived { from, data, .. } = ev {
            self.replies.push((from, data));
        }
    }
}

/// Replies to each datagram with the observed source endpoint, printed.
struct Reflector {
    port: u16,
}

impl App for Reflector {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        os.udp_bind(self.port).unwrap();
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        if let SockEvent::UdpReceived { sock, from, .. } = ev {
            os.udp_send(sock, from, from.to_string().into_bytes())
                .unwrap();
        }
    }
}

/// Issues one TCP connect at start-up and records how it ends.
struct TcpProbe {
    remote: Endpoint,
    result: Option<Result<(), SocketError>>,
}

impl App for TcpProbe {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        os.tcp_connect(self.remote, ConnectOpts::default()).unwrap();
    }

    fn on_event(&mut self, _os: &mut Os<'_, '_>, ev: SockEvent) {
        match ev {
            SockEvent::TcpConnected { .. } => self.result = Some(Ok(())),
            SockEvent::TcpConnectFailed { err, .. } => self.result = Some(Err(err)),
            _ => {}
        }
    }
}

/// client — NAT — server1/server2 topology.
///
/// Returns `(sim, client, nat, s1, s2)`. Servers run [`Reflector`]s on
/// port 9000; the client probes both from local port 4321.
fn reflector_topology(
    behavior: NatBehavior,
    seed: u64,
) -> (Sim, punch_net::NodeId, punch_net::NodeId) {
    let mut sim = Sim::new(seed);
    let s1 = sim.add_node(
        "s1",
        Box::new(HostDevice::new(
            [18, 181, 0, 31].into(),
            StackConfig::default(),
            Reflector { port: 9000 },
        )),
    );
    let s2 = sim.add_node(
        "s2",
        Box::new(HostDevice::new(
            [18, 181, 0, 32].into(),
            StackConfig::default(),
            Reflector { port: 9000 },
        )),
    );
    let internet = sim.add_node("internet", Box::new(Router::new()));
    let nat = sim.add_node(
        "nat",
        Box::new(NatDevice::new(
            behavior,
            vec!["155.99.25.11".parse().unwrap()],
        )),
    );
    let client = sim.add_node(
        "client",
        Box::new(HostDevice::new(
            [10, 0, 0, 1].into(),
            StackConfig::default(),
            UdpProbe::new(4321, vec![ep("18.181.0.31:9000"), ep("18.181.0.32:9000")]),
        )),
    );
    let (r_nat, _) = sim.connect(internet, nat, LinkSpec::wan()); // NAT iface 0 = public
    let (r_s1, _) = sim.connect(internet, s1, LinkSpec::wan());
    let (r_s2, _) = sim.connect(internet, s2, LinkSpec::wan());
    sim.connect(nat, client, LinkSpec::lan()); // NAT iface 1 = private
    {
        let router = sim.device_mut::<Router>(internet);
        router.add_route("155.99.25.11/32".parse().unwrap(), r_nat);
        router.add_route("18.181.0.31/32".parse().unwrap(), r_s1);
        router.add_route("18.181.0.32/32".parse().unwrap(), r_s2);
    }
    (sim, client, nat)
}

#[test]
fn cone_nat_presents_consistent_public_endpoint() {
    let (mut sim, client, nat) = reflector_topology(NatBehavior::well_behaved(), 1);
    sim.run_for(Duration::from_secs(2));
    let probe = sim.device::<HostDevice<UdpProbe>>(client).app::<UdpProbe>();
    assert_eq!(probe.replies.len(), 2);
    let seen1 = String::from_utf8(probe.replies[0].1.to_vec()).unwrap();
    let seen2 = String::from_utf8(probe.replies[1].1.to_vec()).unwrap();
    assert_eq!(
        seen1, seen2,
        "both servers must observe the same mapping (§5.1)"
    );
    let public: Endpoint = seen1.parse().unwrap();
    assert_eq!(
        public.ip,
        "155.99.25.11".parse::<std::net::Ipv4Addr>().unwrap()
    );
    assert_eq!(
        public.port, 62000,
        "sequential allocation starts at the paper's example base"
    );
    let stats = sim.device::<NatDevice>(nat).stats();
    assert_eq!(stats.mappings_created, 1);
}

#[test]
fn symmetric_nat_presents_different_endpoints_per_destination() {
    let (mut sim, client, nat) = reflector_topology(NatBehavior::symmetric(), 1);
    sim.run_for(Duration::from_secs(2));
    let probe = sim.device::<HostDevice<UdpProbe>>(client).app::<UdpProbe>();
    assert_eq!(probe.replies.len(), 2);
    assert_ne!(
        probe.replies[0].1, probe.replies[1].1,
        "symmetric NAT allocates per destination"
    );
    assert_eq!(sim.device::<NatDevice>(nat).stats().mappings_created, 2);
}

#[test]
fn preserving_allocation_keeps_private_port() {
    let behavior =
        NatBehavior::well_behaved().with_port_alloc(punch_nat::PortAllocation::Preserving);
    let (mut sim, client, _nat) = reflector_topology(behavior, 1);
    sim.run_for(Duration::from_secs(2));
    let probe = sim.device::<HostDevice<UdpProbe>>(client).app::<UdpProbe>();
    let seen: Endpoint = String::from_utf8(probe.replies[0].1.to_vec())
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(seen.port, 4321);
}

/// Third-party topology: client behind NAT talks to s1; s3 (never
/// contacted) then sends to the client's public endpoint.
fn filtering_topology(
    behavior: NatBehavior,
) -> (Sim, punch_net::NodeId, punch_net::NodeId, punch_net::NodeId) {
    let mut sim = Sim::new(2);
    let s1 = sim.add_node(
        "s1",
        Box::new(HostDevice::new(
            [18, 181, 0, 31].into(),
            StackConfig::default(),
            Reflector { port: 9000 },
        )),
    );
    let s3 = sim.add_node(
        "s3",
        Box::new(HostDevice::new(
            [18, 181, 0, 33].into(),
            StackConfig::default(),
            UdpProbe::new(7000, vec![]),
        )),
    );
    let internet = sim.add_node("internet", Box::new(Router::new()));
    let nat = sim.add_node(
        "nat",
        Box::new(NatDevice::new(
            behavior,
            vec!["155.99.25.11".parse().unwrap()],
        )),
    );
    let client = sim.add_node(
        "client",
        Box::new(HostDevice::new(
            [10, 0, 0, 1].into(),
            StackConfig::default(),
            UdpProbe::new(4321, vec![ep("18.181.0.31:9000")]),
        )),
    );
    let (r_nat, _) = sim.connect(internet, nat, LinkSpec::wan());
    let (r_s1, _) = sim.connect(internet, s1, LinkSpec::wan());
    let (r_s3, _) = sim.connect(internet, s3, LinkSpec::wan());
    sim.connect(nat, client, LinkSpec::lan());
    {
        let router = sim.device_mut::<Router>(internet);
        router.add_route("155.99.25.11/32".parse().unwrap(), r_nat);
        router.add_route("18.181.0.31/32".parse().unwrap(), r_s1);
        router.add_route("18.181.0.33/32".parse().unwrap(), r_s3);
    }
    (sim, client, s3, nat)
}

fn run_filtering(behavior: NatBehavior) -> usize {
    let (mut sim, client, s3, _nat) = filtering_topology(behavior);
    sim.run_for(Duration::from_secs(1));
    // s3 sends unsolicited traffic at the client's public endpoint.
    sim.with_node(s3, |dev, ctx| {
        let host = dev.downcast_mut::<HostDevice<UdpProbe>>().unwrap();
        host.with_app::<UdpProbe, _>(ctx, |app, os| {
            let sock = app.sock.unwrap();
            os.udp_send(sock, ep("155.99.25.11:62000"), b"unsolicited".as_ref())
                .unwrap();
        });
    });
    sim.run_for(Duration::from_secs(1));
    let probe = sim.device::<HostDevice<UdpProbe>>(client).app::<UdpProbe>();
    probe
        .replies
        .iter()
        .filter(|(_, d)| d.as_ref() == b"unsolicited")
        .count()
}

#[test]
fn port_restricted_filtering_blocks_third_parties() {
    assert_eq!(run_filtering(NatBehavior::well_behaved()), 0);
}

#[test]
fn full_cone_admits_third_parties() {
    assert_eq!(run_filtering(NatBehavior::full_cone()), 1);
}

#[test]
fn restricted_cone_blocks_other_ips_but_not_other_ports() {
    // Address-dependent filtering: s3 (different IP) blocked.
    assert_eq!(run_filtering(NatBehavior::restricted_cone()), 0);
    // But a different port on s1's IP is admitted.
    let (mut sim, client, _s3, nat) = filtering_topology(NatBehavior::restricted_cone());
    sim.run_for(Duration::from_secs(1));
    // Inject a packet from s1's IP but a different source port directly at
    // the NAT's public side.
    sim.inject(
        nat,
        0,
        punch_net::Packet::udp(
            ep("18.181.0.31:12345"),
            ep("155.99.25.11:62000"),
            b"other-port".as_ref(),
        ),
    );
    sim.run_for(Duration::from_secs(1));
    let probe = sim.device::<HostDevice<UdpProbe>>(client).app::<UdpProbe>();
    assert!(probe
        .replies
        .iter()
        .any(|(_, d)| d.as_ref() == b"other-port"));
}

fn tcp_unsolicited_outcome(policy: TcpUnsolicited) -> Option<Result<(), SocketError>> {
    // A public host tries to connect to an address owned by the NAT with
    // an active UDP mapping but no TCP mapping: unambiguously unsolicited.
    let mut sim = Sim::new(3);
    let nat_behavior = NatBehavior::well_behaved().with_tcp_unsolicited(policy);
    let nat = sim.add_node(
        "nat",
        Box::new(NatDevice::new(
            nat_behavior,
            vec!["155.99.25.11".parse().unwrap()],
        )),
    );
    let prober = sim.add_node(
        "prober",
        Box::new(HostDevice::new(
            [18, 181, 0, 33].into(),
            StackConfig::fast(),
            TcpProbe {
                remote: ep("155.99.25.11:62000"),
                result: None,
            },
        )),
    );
    sim.connect(nat, prober, LinkSpec::wan()); // NAT iface 0 = public side
    sim.run_for(Duration::from_secs(60));
    sim.device::<HostDevice<TcpProbe>>(prober)
        .app::<TcpProbe>()
        .result
}

#[test]
fn unsolicited_syn_drop_times_out() {
    assert_eq!(
        tcp_unsolicited_outcome(TcpUnsolicited::Drop),
        Some(Err(SocketError::TimedOut))
    );
}

#[test]
fn unsolicited_syn_rst_refuses_quickly() {
    assert_eq!(
        tcp_unsolicited_outcome(TcpUnsolicited::Rst),
        Some(Err(SocketError::ConnectionRefused))
    );
}

#[test]
fn unsolicited_syn_icmp_reports_unreachable() {
    assert_eq!(
        tcp_unsolicited_outcome(TcpUnsolicited::IcmpError),
        Some(Err(SocketError::HostUnreachable))
    );
}

#[test]
fn udp_mapping_expires_and_reallocates() {
    let behavior = NatBehavior::well_behaved().with_udp_timeout(Duration::from_secs(20));
    let (mut sim, client, nat) = reflector_topology(behavior, 4);
    sim.run_for(Duration::from_secs(2));
    assert_eq!(sim.device::<NatDevice>(nat).stats().mappings_created, 1);
    // Stay idle past the timeout, then probe again from the same socket.
    sim.run_until(SimTime::from_secs(60));
    sim.with_node(client, |dev, ctx| {
        let host = dev.downcast_mut::<HostDevice<UdpProbe>>().unwrap();
        host.with_app::<UdpProbe, _>(ctx, |app, os| {
            let sock = app.sock.unwrap();
            os.udp_send(sock, ep("18.181.0.31:9000"), b"probe".as_ref())
                .unwrap();
        });
    });
    sim.run_for(Duration::from_secs(2));
    let nat_dev = sim.device::<NatDevice>(nat);
    assert_eq!(
        nat_dev.stats().mappings_created,
        2,
        "expired mapping must be re-created"
    );
    let probe = sim.device::<HostDevice<UdpProbe>>(client).app::<UdpProbe>();
    let last = String::from_utf8(probe.replies.last().unwrap().1.to_vec()).unwrap();
    let first = String::from_utf8(probe.replies[0].1.to_vec()).unwrap();
    assert_ne!(
        last, first,
        "sequential allocator must hand out a fresh public port"
    );
}

#[test]
fn keepalives_hold_the_mapping_open() {
    let behavior = NatBehavior::well_behaved().with_udp_timeout(Duration::from_secs(20));
    let (mut sim, client, nat) = reflector_topology(behavior, 4);
    sim.run_for(Duration::from_secs(2));
    // Send a keepalive every 15 s for a minute.
    for _ in 0..4 {
        sim.run_for(Duration::from_secs(15));
        sim.with_node(client, |dev, ctx| {
            let host = dev.downcast_mut::<HostDevice<UdpProbe>>().unwrap();
            host.with_app::<UdpProbe, _>(ctx, |app, os| {
                let sock = app.sock.unwrap();
                os.udp_send(sock, ep("18.181.0.31:9000"), b"probe".as_ref())
                    .unwrap();
            });
        });
    }
    sim.run_for(Duration::from_secs(2));
    assert_eq!(
        sim.device::<NatDevice>(nat).stats().mappings_created,
        1,
        "mapping never expired"
    );
}

#[test]
fn hairpin_full_loops_with_translated_source() {
    // The client probes s1 (establishing mapping 62000), then a second
    // local socket sends to that public endpoint.
    let (mut sim, client, nat) = reflector_topology(NatBehavior::well_behaved(), 5);
    sim.run_for(Duration::from_secs(2));
    sim.with_node(client, |dev, ctx| {
        let host = dev.downcast_mut::<HostDevice<UdpProbe>>().unwrap();
        host.with_app::<UdpProbe, _>(ctx, |_, os| {
            let second = os.udp_bind(5555).unwrap();
            os.udp_send(second, ep("155.99.25.11:62000"), b"hairpin".as_ref())
                .unwrap();
        });
    });
    sim.run_for(Duration::from_secs(2));
    let probe = sim.device::<HostDevice<UdpProbe>>(client).app::<UdpProbe>();
    let hp = probe
        .replies
        .iter()
        .find(|(_, d)| d.as_ref() == b"hairpin")
        .expect("hairpinned datagram delivered");
    assert_eq!(
        hp.0.ip,
        "155.99.25.11".parse::<std::net::Ipv4Addr>().unwrap(),
        "source must be rewritten to public"
    );
    assert_eq!(sim.device::<NatDevice>(nat).stats().hairpinned, 1);
}

#[test]
fn hairpin_none_drops() {
    let behavior = NatBehavior::well_behaved().with_hairpin(Hairpin::None);
    let (mut sim, client, nat) = reflector_topology(behavior, 5);
    sim.run_for(Duration::from_secs(2));
    sim.with_node(client, |dev, ctx| {
        let host = dev.downcast_mut::<HostDevice<UdpProbe>>().unwrap();
        host.with_app::<UdpProbe, _>(ctx, |_, os| {
            let second = os.udp_bind(5555).unwrap();
            os.udp_send(second, ep("155.99.25.11:62000"), b"hairpin".as_ref())
                .unwrap();
        });
    });
    sim.run_for(Duration::from_secs(2));
    let probe = sim.device::<HostDevice<UdpProbe>>(client).app::<UdpProbe>();
    assert!(!probe.replies.iter().any(|(_, d)| d.as_ref() == b"hairpin"));
    assert_eq!(sim.device::<NatDevice>(nat).stats().hairpinned, 0);
}

#[test]
fn hairpin_no_source_rewrite_exposes_private_endpoint() {
    let behavior = NatBehavior::well_behaved().with_hairpin(Hairpin::NoSourceRewrite);
    let (mut sim, client, _nat) = reflector_topology(behavior, 5);
    sim.run_for(Duration::from_secs(2));
    sim.with_node(client, |dev, ctx| {
        let host = dev.downcast_mut::<HostDevice<UdpProbe>>().unwrap();
        host.with_app::<UdpProbe, _>(ctx, |_, os| {
            let second = os.udp_bind(5555).unwrap();
            os.udp_send(second, ep("155.99.25.11:62000"), b"hairpin".as_ref())
                .unwrap();
        });
    });
    sim.run_for(Duration::from_secs(2));
    let probe = sim.device::<HostDevice<UdpProbe>>(client).app::<UdpProbe>();
    let hp = probe
        .replies
        .iter()
        .find(|(_, d)| d.as_ref() == b"hairpin")
        .expect("delivered");
    assert_eq!(
        hp.0,
        ep("10.0.0.1:5555"),
        "broken hairpin leaks the private source"
    );
}

#[test]
fn payload_mangler_rewrites_private_address_and_obfuscation_defeats_it() {
    let mut behavior = NatBehavior::well_behaved();
    behavior.mangle_payloads = true;
    let mut sim = Sim::new(6);
    let nat = sim.add_node(
        "nat",
        Box::new(NatDevice::new(
            behavior,
            vec!["155.99.25.11".parse().unwrap()],
        )),
    );
    let sink = sim.add_node(
        "sink",
        Box::new(HostDevice::new(
            [18, 181, 0, 31].into(),
            StackConfig::default(),
            UdpProbe::new(9000, vec![]),
        )),
    );
    sim.connect(nat, sink, LinkSpec::wan()); // iface 0 public
    let client_ip: std::net::Ipv4Addr = "10.0.0.1".parse().unwrap();
    let payload_plain = client_ip.octets().to_vec();
    // §3.1's one's-complement obfuscation.
    let payload_obf = (!u32::from(client_ip)).to_be_bytes().to_vec();
    let client = sim.add_node(
        "client",
        Box::new(HostDevice::new(
            client_ip,
            StackConfig::default(),
            UdpProbe::new(4321, vec![]),
        )),
    );
    sim.connect(nat, client, LinkSpec::lan());
    sim.run_for(Duration::from_millis(10));
    sim.with_node(client, |dev, ctx| {
        let host = dev.downcast_mut::<HostDevice<UdpProbe>>().unwrap();
        host.with_app::<UdpProbe, _>(ctx, |app, os| {
            let sock = app.sock.unwrap();
            os.udp_send(sock, ep("18.181.0.31:9000"), payload_plain.clone())
                .unwrap();
            os.udp_send(sock, ep("18.181.0.31:9000"), payload_obf.clone())
                .unwrap();
        });
    });
    sim.run_for(Duration::from_secs(1));
    let got = &sim
        .device::<HostDevice<UdpProbe>>(sink)
        .app::<UdpProbe>()
        .replies;
    assert_eq!(got.len(), 2);
    // First payload was mangled to the public IP.
    assert_eq!(
        got[0].1.as_ref(),
        "155.99.25.11"
            .parse::<std::net::Ipv4Addr>()
            .unwrap()
            .octets()
    );
    // Obfuscated payload passed through untouched.
    assert_eq!(got[1].1.as_ref(), payload_obf.as_slice());
    assert_eq!(sim.device::<NatDevice>(nat).stats().payloads_mangled, 1);
}

#[test]
fn local_switching_between_private_hosts() {
    // Two hosts behind one NAT exchange datagrams by private address
    // without any translation (Figure 4's private-endpoint path).
    let mut sim = Sim::new(8);
    let nat = sim.add_node(
        "nat",
        Box::new(NatDevice::new(
            NatBehavior::well_behaved(),
            vec!["155.99.25.11".parse().unwrap()],
        )),
    );
    let up = sim.add_node(
        "up",
        Box::new(HostDevice::new(
            [18, 181, 0, 31].into(),
            StackConfig::default(),
            UdpProbe::new(1, vec![]),
        )),
    );
    sim.connect(nat, up, LinkSpec::wan());
    let a = sim.add_node(
        "a",
        Box::new(HostDevice::new(
            [10, 0, 0, 1].into(),
            StackConfig::default(),
            UdpProbe::new(4321, vec![ep("10.0.0.2:4321")]),
        )),
    );
    let b = sim.add_node(
        "b",
        Box::new(HostDevice::new(
            [10, 0, 0, 2].into(),
            StackConfig::default(),
            UdpProbe::new(4321, vec![ep("10.0.0.1:4321")]),
        )),
    );
    let (_, _) = sim.connect(nat, a, LinkSpec::lan());
    let (nat_if_b, _) = sim.connect(nat, b, LinkSpec::lan());
    // Pre-register b so a's very first packet (sent before b transmits)
    // can be switched.
    sim.device_mut::<NatDevice>(nat)
        .add_private_host([10, 0, 0, 2].into(), nat_if_b);
    sim.run_for(Duration::from_secs(1));
    assert_eq!(
        sim.device::<HostDevice<UdpProbe>>(a)
            .app::<UdpProbe>()
            .replies
            .len(),
        1
    );
    assert_eq!(
        sim.device::<HostDevice<UdpProbe>>(b)
            .app::<UdpProbe>()
            .replies
            .len(),
        1
    );
    let st = sim.device::<NatDevice>(nat).stats();
    assert_eq!(st.switched_local, 2);
    assert_eq!(
        st.mappings_created, 0,
        "no translation state for local traffic"
    );
}

#[test]
fn ttl_decrements_through_nat() {
    let mut sim = Sim::new(9);
    let nat = sim.add_node(
        "nat",
        Box::new(NatDevice::new(
            NatBehavior::well_behaved(),
            vec!["155.99.25.11".parse().unwrap()],
        )),
    );
    let sink = sim.add_node(
        "sink",
        Box::new(HostDevice::new(
            [18, 181, 0, 31].into(),
            StackConfig::default(),
            UdpProbe::new(9000, vec![]),
        )),
    );
    sim.connect(nat, sink, LinkSpec::wan());
    sim.inject(nat, 1, {
        let mut p =
            punch_net::Packet::udp(ep("10.0.0.1:4321"), ep("18.181.0.31:9000"), b"x".as_ref());
        p.ttl = 2;
        p
    });
    sim.run_for(Duration::from_secs(1));
    // Delivered with ttl 1.
    assert_eq!(
        sim.device::<HostDevice<UdpProbe>>(sink)
            .app::<UdpProbe>()
            .replies
            .len(),
        1
    );
    // A ttl=1 packet dies at the NAT.
    sim.inject(nat, 1, {
        let mut p =
            punch_net::Packet::udp(ep("10.0.0.1:4321"), ep("18.181.0.31:9000"), b"x".as_ref());
        p.ttl = 1;
        p
    });
    sim.run_for(Duration::from_secs(1));
    assert_eq!(
        sim.device::<HostDevice<UdpProbe>>(sink)
            .app::<UdpProbe>()
            .replies
            .len(),
        1
    );
}

/// A one-mapping NAT in front of a sink: Y (10.0.0.2) opens the only
/// mapping, then X's (10.0.0.1) *first* packet is a hairpin to Y's public
/// endpoint, so making room for X's own mapping evicts the hairpin's
/// target mid-packet. Returns the NAT's counters afterwards.
fn hairpin_that_evicts_its_own_target(behavior: NatBehavior, x: &str) -> punch_nat::NatStats {
    use punch_net::Packet;
    let mut sim = Sim::new(22);
    let nat = sim.add_node(
        "nat",
        Box::new(NatDevice::new(
            behavior.with_max_mappings(1),
            vec!["155.99.25.11".parse().unwrap()],
        )),
    );
    let sink = sim.add_node(
        "sink",
        Box::new(HostDevice::new(
            [18, 181, 0, 31].into(),
            StackConfig::default(),
            UdpProbe::new(9000, vec![]),
        )),
    );
    sim.connect(nat, sink, LinkSpec::wan());
    sim.inject(
        nat,
        1,
        Packet::udp(ep("10.0.0.2:4321"), ep("18.181.0.31:9000"), b"y".as_ref()),
    );
    sim.run_for(Duration::from_millis(100));
    let y_public = sim
        .device::<NatDevice>(nat)
        .tables()
        .iter()
        .next()
        .expect("Y's mapping")
        .public;
    sim.inject(nat, 2, Packet::udp(ep(x), y_public, b"x".as_ref()));
    sim.run_for(Duration::from_millis(100));
    let nat = sim.device::<NatDevice>(nat);
    assert_eq!(nat.tables().len(sim.now()), 1, "the cap holds");
    assert!(
        nat.tables().iter().all(|e| e.private == ep(x)),
        "the survivor is the sender's mapping"
    );
    nat.stats()
}

/// The packet is then one to an unmapped public endpoint: refused like
/// any other, never a panic on a mapping the NAT no longer holds.
#[test]
fn hairpin_whose_sender_evicts_the_target_is_unsolicited() {
    let st = hairpin_that_evicts_its_own_target(NatBehavior::well_behaved(), "10.0.0.1:5555");
    assert_eq!(
        (st.mappings_created, st.mappings_evicted),
        (2, 1),
        "X's mapping replaced Y's"
    );
    assert_eq!(
        (st.hairpinned, st.inbound_passed, st.inbound_blocked),
        (0, 0, 1)
    );
}

/// Same two packets when hairpinned traffic is filtered (§6.3): the
/// filter check is the first thing that wants the evicted target.
#[test]
fn filtered_hairpin_whose_sender_evicts_the_target_is_unsolicited() {
    let mut behavior = NatBehavior::well_behaved();
    behavior.hairpin_filters = true;
    let st = hairpin_that_evicts_its_own_target(behavior, "10.0.0.1:5555");
    assert_eq!(
        (st.hairpinned, st.inbound_passed, st.inbound_blocked),
        (0, 0, 1)
    );
}

/// A port-preserving NAT hands the evicted target's public endpoint
/// straight to the sender (same private port): the packet must not come
/// back to its own sender through the sender's new mapping.
#[test]
fn hairpin_is_not_delivered_through_the_mapping_that_replaced_its_target() {
    let behavior = NatBehavior::well_behaved().with_port_alloc(PortAllocation::Preserving);
    let st = hairpin_that_evicts_its_own_target(behavior, "10.0.0.1:4321");
    assert_eq!(
        (st.hairpinned, st.inbound_passed, st.inbound_blocked),
        (0, 0, 1)
    );
}
