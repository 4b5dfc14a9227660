//! What a bare `HostStack` draws and answers, pinned: the ephemeral
//! ports and initial sequence numbers a fixed seed gives, through busy
//! ports and a `reseed`, and the replies of a host that holds no TCP
//! socket to a stray segment. A change to how the stack keeps its port
//! generator or its TCP tables must leave every value here as it is.

use punch_net::{Body, Endpoint, Packet, TcpFlags, TcpSegment};
use punch_transport::stack::ConnectOpts;
use punch_transport::{HostStack, SocketId, StackConfig};
use std::net::Ipv4Addr;

const HOST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const PEER: Endpoint = Endpoint::new(Ipv4Addr::new(5, 5, 5, 5), 80);

fn stack(seed: u64) -> HostStack {
    HostStack::new(HOST, StackConfig::default(), seed)
}

fn port(s: &HostStack, sock: SocketId) -> u16 {
    s.local_endpoint(sock).expect("bound").port
}

/// A UDP bind to an ephemeral port: the port drawn.
fn bind0(s: &mut HostStack) -> u16 {
    let sock = s.udp_bind(0).expect("bind");
    port(s, sock)
}

/// The one TCP segment `s` queued, with its endpoints.
fn only_segment(s: &mut HostStack) -> (Endpoint, Endpoint, TcpSegment) {
    let out = s.take_packets();
    assert_eq!(out.len(), 1, "{out:?}");
    let Packet { src, dst, body, .. } = out.into_iter().next().expect("one packet");
    let Body::Tcp(seg) = body else {
        panic!("not a segment");
    };
    (src, dst, seg)
}

/// A TCP connect from an ephemeral port: the port drawn and the SYN's
/// ISS.
fn connect(s: &mut HostStack, remote: Endpoint) -> (u16, u32) {
    let sock = s
        .tcp_connect(remote, ConnectOpts::default())
        .expect("connect");
    let (src, dst, seg) = only_segment(s);
    assert_eq!((src.port, dst), (port(s, sock), remote));
    assert_eq!(seg.flags, TcpFlags::SYN);
    (src.port, seg.seq)
}

#[test]
fn twenty_udp_binds_draw_the_pinned_ports() {
    let mut s = stack(0x5eed);
    let ports: Vec<u16> = (0..20).map(|_| bind0(&mut s)).collect();
    assert_eq!(
        ports,
        [
            54897, 52406, 55183, 61685, 59847, 65043, 55557, 64773, 50466, 55729, 60597, 60867,
            49391, 59188, 50135, 51096, 53222, 59427, 62582, 63726
        ]
    );
}

#[test]
fn tcp_connects_draw_the_pinned_ports_and_iss() {
    let mut s = stack(0x5eed);
    let udp = bind0(&mut s);
    let conns: Vec<(u16, u32)> = (0..4)
        .map(|k| connect(&mut s, Endpoint::new(PEER.ip, 80 + k)))
        .collect();
    assert_eq!(udp, 54897);
    assert_eq!(
        conns,
        [
            (52406, 988640280),
            (55183, 538204340),
            (61685, 2209223403),
            (59847, 609652219)
        ]
    );
}

/// A bind whose first draw lands on a busy port draws again, and the
/// retry moves every later draw one along.
#[test]
fn a_draw_onto_a_busy_port_is_retried() {
    let first = bind0(&mut stack(0x5eed));
    let mut s = stack(0x5eed);
    s.udp_bind(first)
        .expect("bind the port the first draw gives");
    let retried = bind0(&mut s);
    let next = bind0(&mut s);
    assert_eq!((first, retried, next), (54897, 52406, 55183));

    // The same for a TCP connect past a busy listener port.
    let mut t = stack(0x5eed);
    t.tcp_listen(first, false).expect("listen");
    assert_eq!(connect(&mut t, PEER), (52406, 988640280));
}

/// `reseed` restarts the draws from the new seed, whatever the old
/// stream had reached, and re-keys the ISS.
#[test]
fn reseed_restarts_the_draws() {
    let mut s = stack(0x5eed);
    for _ in 0..5 {
        s.udp_bind(0).expect("bind");
    }
    let before = connect(&mut s, PEER);
    s.reseed(77);
    let after: Vec<u16> = (0..3).map(|_| bind0(&mut s)).collect();
    let conn = connect(&mut s, PEER);
    assert_eq!(before, (65043, 2048641628));
    assert_eq!(after, [51425, 52161, 53900]);
    assert_eq!(conn, (52170, 1756607895));

    // A fresh stack on the new seed draws the same.
    let mut fresh = stack(77);
    let again: Vec<u16> = (0..3).map(|_| bind0(&mut fresh)).collect();
    assert_eq!(again, after);
}

/// A stray segment to a host with one UDP socket and no TCP socket.
fn stray(flags: TcpFlags, seq: u32, ack: u32) -> Vec<Packet> {
    let mut s = stack(3);
    s.udp_bind(4321).expect("bind");
    let from = Endpoint::new(Ipv4Addr::new(9, 9, 9, 9), 1000);
    let to = Endpoint::new(HOST, 4321);
    s.handle_packet(Packet::tcp(from, to, TcpSegment::control(flags, seq, ack)));
    assert!(s.take_events().is_empty());
    assert!(s.take_timers().is_empty());
    let out = s.take_packets();
    let rsts = u64::try_from(out.len()).expect("a few packets");
    assert_eq!(s.stats().rsts_sent, rsts);
    out
}

fn answer(out: &[Packet]) -> Vec<(Endpoint, Endpoint, TcpFlags, u32, u32)> {
    out.iter()
        .map(|p| match &p.body {
            Body::Tcp(seg) => (p.src, p.dst, seg.flags, seg.seq, seg.ack),
            other => panic!("not a segment: {other:?}"),
        })
        .collect()
}

#[test]
fn a_udp_only_host_refuses_a_stray_syn_ack_and_rst_as_pinned() {
    let me = Endpoint::new(HOST, 4321);
    let them = Endpoint::new(Ipv4Addr::new(9, 9, 9, 9), 1000);
    assert_eq!(
        answer(&stray(TcpFlags::SYN, 100, 0)),
        [(me, them, TcpFlags::RST | TcpFlags::ACK, 0, 101)]
    );
    assert_eq!(
        answer(&stray(TcpFlags::ACK, 100, 555)),
        [(me, them, TcpFlags::RST, 555, 0)]
    );
    assert!(stray(TcpFlags::RST, 100, 0).is_empty(), "no RST war");
    assert!(stray(TcpFlags::RST | TcpFlags::ACK, 100, 555).is_empty());
}
