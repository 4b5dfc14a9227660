//! What a punched TCP stream puts on the wire for a run of `PeerData`
//! frames: every data segment's `(seq, len, checksum)` is pinned, and a
//! segment that lies wholly inside one caller payload must be a slice of
//! that payload's buffer, not of a copy of it.
//!
//! Figure 5 is laid out by hand (the order `WorldBuilder::build` uses)
//! so that NAT A can sit inside a tap that records what client A sends
//! before the NAT sees it.

use bytes::Bytes;
use holepunch::{PeerEvent, PeerId, TcpPeer, TcpPeerConfig};
use punch_lab::{addrs, Scenario};
use punch_nat::{NatBehavior, NatDevice};
use punch_net::{
    Body, Cidr, Counters, Ctx, Device, Duration, IfaceId, LinkSpec, NodeId, Packet, Router, Sim,
    SimTime,
};
use punch_rendezvous::{RendezvousServer, ServerConfig, MAX_PAYLOAD};
use punch_transport::{HostDevice, StackConfig};

const A: PeerId = PeerId(1);
const B: PeerId = PeerId(2);
/// `PeerData`'s frame head: length prefix, version, tag, payload length.
const HEAD: usize = 6;

/// One data segment client A sent toward B.
struct Seg {
    seq: u32,
    checksum: u16,
    payload: Bytes,
}

/// A device that records client A's data segments to anyone but S,
/// then hands every packet on unchanged.
struct Tap<D> {
    inner: D,
    segs: Vec<Seg>,
}

impl<D: Device> Device for Tap<D> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, iface: IfaceId, pkt: Packet) {
        if let Body::Tcp(seg) = &pkt.body {
            if pkt.src.ip == addrs::CLIENT_A
                && pkt.dst.ip != addrs::SERVER
                && !seg.payload.is_empty()
            {
                self.segs.push(Seg {
                    seq: seg.seq,
                    checksum: pkt.checksum,
                    payload: seg.payload.clone(),
                });
            }
        }
        self.inner.on_packet(ctx, iface, pkt);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.inner.on_timer(ctx, token);
    }

    fn on_fault(&mut self, ctx: &mut Ctx<'_>, fault: u64) {
        self.inner.on_fault(ctx, fault);
    }

    fn counters(&self, c: &mut Counters<'_>) {
        self.inner.counters(c);
    }
}

fn peer(id: PeerId) -> HostDevice<TcpPeer> {
    let ip = if id == A {
        addrs::CLIENT_A
    } else {
        addrs::CLIENT_B
    };
    let cfg = TcpPeerConfig::new(id, Scenario::server_endpoint());
    HostDevice::new(ip, StackConfig::fast(), TcpPeer::new(cfg))
}

/// Figure 5 with NAT A tapped; returns the sim, NAT A's node and the
/// two clients'.
fn fig5_tapped(seed: u64) -> (Sim, NodeId, NodeId, NodeId) {
    let (wan, lan) = (LinkSpec::wan(), LinkSpec::lan());
    let mut sim = Sim::new(seed);
    let internet = sim.add_node("internet", Box::new(Router::new()));
    let server = HostDevice::new(
        addrs::SERVER,
        StackConfig::default(),
        RendezvousServer::new(ServerConfig::default()),
    );
    let s0 = sim.add_node("s0", Box::new(server));
    let mut routes = vec![(Cidr::host(addrs::SERVER), sim.connect(internet, s0, wan).0)];
    let nat = |ip| NatDevice::new(NatBehavior::well_behaved(), vec![ip]);
    let tap = Tap {
        inner: nat(addrs::NAT_A),
        segs: Vec::new(),
    };
    let nat_a = sim.add_node("nat0", Box::new(tap));
    let nat_b = sim.add_node("nat1", Box::new(nat(addrs::NAT_B)));
    for (node, ip) in [(nat_a, addrs::NAT_A), (nat_b, addrs::NAT_B)] {
        routes.push((Cidr::host(ip), sim.connect(node, internet, wan).1));
    }
    let a = sim.add_node("c0", Box::new(peer(A)));
    sim.connect(nat_a, a, lan);
    let b = sim.add_node("c1", Box::new(peer(B)));
    sim.connect(nat_b, b, lan);
    let router = sim.device_mut::<Router>(internet);
    for (cidr, iface) in routes {
        router.add_route(cidr, iface);
    }
    (sim, nat_a, a, b)
}

fn with_peer<R>(
    sim: &mut Sim,
    node: NodeId,
    f: impl FnOnce(&mut TcpPeer, &mut punch_transport::Os<'_, '_>) -> R,
) -> R {
    sim.with_node(node, |dev, ctx| {
        let host = dev
            .downcast_mut::<HostDevice<TcpPeer>>()
            .expect("a client host");
        host.with_app::<TcpPeer, R>(ctx, f)
    })
}

fn established(sim: &Sim, node: NodeId, peer: PeerId) -> bool {
    sim.device::<HostDevice<TcpPeer>>(node)
        .app::<TcpPeer>()
        .is_established(peer)
}

/// Every data segment A sent after the hellos, `(seq, len, checksum)`,
/// at seed 56: one segment per frame up to the 1 394 B payload (whose
/// frame is one MSS), then MSS-sized runs ending at each frame's end.
#[rustfmt::skip]
const PINNED: &[(u32, u32, u16)] = &[
    (1611885504, 6, 24763),
    (1611885510, 7, 24498),
    (1611885517, 46, 51988),
    (1611885563, 1400, 715),
    (1611886963, 1400, 3201),
    (1611888363, 1400, 44907),
    (1611889763, 1400, 51218),
    (1611891163, 1400, 57528),
    (1611892563, 1400, 65379),
    (1611893963, 1198, 2440),
    (1611895161, 1400, 63208),
    (1611896561, 1400, 54694),
    (1611897961, 1400, 61005),
    (1611899361, 1400, 2036),
    (1611900761, 1400, 9631),
    (1611902161, 1400, 16198),
    (1611903561, 1400, 22509),
    (1611904961, 1400, 29588),
    (1611906361, 1400, 36671),
    (1611907761, 1400, 43237),
    (1611909161, 1400, 49547),
    (1611910561, 969, 602),
];

#[test]
fn a_frame_run_is_segmented_as_pinned_and_payload_segments_share_the_callers_buffer() {
    let (mut sim, nat_a, a, b) = fig5_tapped(56);
    sim.run_for(Duration::from_secs(2));
    with_peer(&mut sim, a, |p, os| p.connect(os, B));
    assert!(sim.run_while(SimTime::from_secs(40), |sim| {
        established(sim, a, B) && established(sim, b, A)
    }));
    sim.run_for(Duration::from_secs(1));
    with_peer(&mut sim, b, |p, _| p.take_events());
    let hellos = sim.device::<Tap<NatDevice>>(nat_a).segs.len();
    let last = &sim.device::<Tap<NatDevice>>(nat_a).segs[hellos - 1];
    let base = last.seq.wrapping_add(last.payload.len() as u32);

    let payloads: Vec<Bytes> = [0, 1, 40, 1394, 8192, MAX_PAYLOAD]
        .into_iter()
        .enumerate()
        .map(|(i, len)| Bytes::from((0..len).map(|k| (k * 7 + i) as u8).collect::<Vec<u8>>()))
        .collect();
    with_peer(&mut sim, a, |p, os| {
        for data in &payloads {
            p.send(os, B, data.clone());
        }
    });
    sim.run_for(Duration::from_secs(5));

    let got: Vec<Bytes> = with_peer(&mut sim, b, |p, _| p.take_events())
        .into_iter()
        .filter_map(|e| match e {
            PeerEvent::Data { peer, data, .. } if peer == A => Some(data),
            _ => None,
        })
        .collect();
    assert_eq!(got, payloads, "B receives every payload, in order");

    let segs = &sim.device::<Tap<NatDevice>>(nat_a).segs[hellos..];
    let wire: Vec<(u32, u32, u16)> = segs
        .iter()
        .map(|s| (s.seq, s.payload.len() as u32, s.checksum))
        .collect();
    assert_eq!(wire, PINNED, "data segments (seq, len, checksum)");

    // Where each caller payload lies in the stream, relative to `base`.
    let mut at = 0;
    let spans: Vec<(usize, &Bytes)> = payloads
        .iter()
        .map(|p| {
            let start = at + HEAD;
            at = start + p.len();
            (start, p)
        })
        .collect();
    let mut inside = 0;
    for s in segs {
        let off = s.seq.wrapping_sub(base) as usize;
        let end = off + s.payload.len();
        let Some((start, p)) = spans
            .iter()
            .find(|(start, p)| *start <= off && end <= start + p.len())
        else {
            continue;
        };
        inside += 1;
        let from = p.as_ptr() as usize;
        let ptr = s.payload.as_ptr() as usize;
        assert!(
            from <= ptr && ptr + s.payload.len() <= from + p.len(),
            "segment at stream offset {off} ({} B) lies inside the {} B payload at {start} but is a copy",
            s.payload.len(),
            p.len()
        );
    }
    assert!(inside >= 10, "only {inside} segments lie inside a payload");
}
