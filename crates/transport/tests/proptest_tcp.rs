//! Property tests for the TCP machinery.
//!
//! The crown jewel is stream integrity: arbitrary application writes over
//! a lossy path must arrive complete, in order, and unduplicated.

use bytes::Bytes;
use proptest::prelude::*;
use punch_net::{Duration, LinkSpec, Sim};
use punch_transport::{
    App, ConnectOpts, HostDevice, HostStack, Os, SockEvent, SocketId, StackConfig,
};

/// Server app: accepts one stream, accumulates everything received.
#[derive(Default)]
struct Collector {
    got: Vec<u8>,
    peer_closed: bool,
}

impl App for Collector {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        os.tcp_listen(80, false).expect("listen");
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        match ev {
            SockEvent::TcpIncoming { listener } => {
                while let Ok(Some(_)) = os.tcp_accept(listener) {}
            }
            SockEvent::TcpReceived { data, .. } => self.got.extend_from_slice(&data),
            SockEvent::TcpPeerClosed { sock } => {
                self.peer_closed = true;
                let _ = os.close(sock);
            }
            _ => {}
        }
    }
}

/// Client app: connects, writes all chunks, then closes. Every other
/// chunk, starting with the first when `shared_first`, goes in as a
/// `Bytes` the stack slices segments from; the rest as a `&[u8]` it
/// copies.
struct Writer {
    chunks: Vec<Vec<u8>>,
    shared_first: bool,
    conn: Option<SocketId>,
    done: bool,
}

impl App for Writer {
    fn on_start(&mut self, os: &mut Os<'_, '_>) {
        self.conn = os
            .tcp_connect("5.5.5.5:80".parse().expect("ep"), ConnectOpts::default())
            .ok();
    }

    fn on_event(&mut self, os: &mut Os<'_, '_>, ev: SockEvent) {
        match ev {
            SockEvent::TcpConnected { sock } => {
                for (i, chunk) in self.chunks.iter().enumerate() {
                    let sent = if (i % 2 == 0) == self.shared_first {
                        os.tcp_send(sock, Bytes::from(chunk.clone()))
                    } else {
                        os.tcp_send(sock, chunk.as_slice())
                    };
                    sent.expect("send");
                }
                os.close(sock).expect("close");
                self.done = true;
            }
            SockEvent::TcpConnectFailed { .. } => panic!("connect failed on lossless control path"),
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Stream integrity over a lossy link: every byte arrives exactly
    /// once, in order, for arbitrary write patterns.
    #[test]
    fn stream_integrity_over_loss(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..20_000), 1..12),
        loss in 0.0f64..0.25,
        seed in any::<u64>(),
        shared_first in any::<bool>(),
    ) {
        let expected: Vec<u8> = chunks.iter().flatten().copied().collect();
        // The property is integrity, not liveness: at 23 % loss a stream of
        // ~75 segments can lose one segment 9 times running, and a sender
        // on the default budget of 8 retries then (correctly) gives up.
        let mut cfg = StackConfig::fast();
        cfg.data_retries = 30;
        let mut sim = Sim::new(seed);
        let server = sim.add_node(
            "srv",
            Box::new(HostDevice::new([5, 5, 5, 5].into(), cfg.clone(), Box::new(Collector::default()))),
        );
        let client = sim.add_node(
            "cli",
            Box::new(HostDevice::new(
                [10, 0, 0, 1].into(),
                cfg,
                Box::new(Writer { chunks, shared_first, conn: None, done: false }),
            )),
        );
        sim.connect(client, server, LinkSpec::access().with_loss(loss));
        sim.run_for(Duration::from_secs(3600));
        let got = &sim.device::<HostDevice>(server).app::<Collector>().got;
        prop_assert_eq!(got, &expected, "stream corrupted under loss={}", loss);
        prop_assert!(sim.device::<HostDevice>(server).app::<Collector>().peer_closed);
    }

    /// Arbitrary TCP segment storms against a listening stack never
    /// panic, and socket accounting survives.
    #[test]
    fn segment_storm_never_panics(
        segments in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), any::<u32>(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..16)),
            0..64,
        ),
        src_port in 1u16..u16::MAX,
    ) {
        use punch_net::{Packet, TcpFlags, TcpSegment};
        let mut stack = HostStack::new([5, 5, 5, 5].into(), StackConfig::default(), 1);
        stack.tcp_listen(80, true).expect("listen");
        let src = punch_net::Endpoint::new([9, 9, 9, 9].into(), src_port);
        let dst = punch_net::Endpoint::new([5, 5, 5, 5].into(), 80);
        for (flag_bits, seq, ack, window, payload) in segments {
            let mut flags = TcpFlags::NONE;
            if flag_bits & 1 != 0 { flags = flags | TcpFlags::SYN; }
            if flag_bits & 2 != 0 { flags = flags | TcpFlags::ACK; }
            if flag_bits & 4 != 0 { flags = flags | TcpFlags::FIN; }
            if flag_bits & 8 != 0 { flags = flags | TcpFlags::RST; }
            let seg = TcpSegment { flags, seq, ack, window, payload: payload.into() };
            stack.handle_packet(Packet::tcp(src, dst, seg));
            let _ = stack.take_packets();
            let _ = stack.take_events();
            let _ = stack.take_timers();
        }
    }

    /// Link-level damage is caught by the checksum before demux:
    /// corrupted or truncated datagrams and segments never surface as
    /// events, never elicit a reply, and every one is counted.
    #[test]
    fn corrupted_packets_are_never_delivered(
        packets in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec(any::<u8>(), 1..64), any::<u64>(), any::<bool>()),
            1..32,
        ),
    ) {
        use punch_net::{Packet, TcpFlags, TcpSegment};
        let mut stack = HostStack::new([5, 5, 5, 5].into(), StackConfig::default(), 1);
        stack.udp_bind(4000).expect("bind");
        stack.tcp_listen(80, true).expect("listen");
        let src = punch_net::Endpoint::new([9, 9, 9, 9].into(), 1000);
        for (i, (tcp, payload, damage, truncate)) in packets.iter().enumerate() {
            let mut pkt = if *tcp {
                let seg = TcpSegment {
                    flags: TcpFlags::SYN,
                    seq: i as u32,
                    ack: 0,
                    window: 100,
                    payload: payload.clone().into(),
                };
                Packet::tcp(src, punch_net::Endpoint::new([5, 5, 5, 5].into(), 80), seg)
            } else {
                Packet::udp(
                    src,
                    punch_net::Endpoint::new([5, 5, 5, 5].into(), 4000),
                    payload.clone(),
                )
            };
            if *truncate && payload.len() > 1 {
                // Strictly shorter: the checksummed length no longer matches.
                pkt.truncate_payload(*damage as usize % (payload.len() - 1));
            } else {
                pkt.corrupt_bit(*damage);
            }
            stack.handle_packet(pkt);
            prop_assert!(stack.take_events().is_empty(), "damaged bytes surfaced");
            prop_assert!(stack.take_packets().is_empty(), "damaged packet answered");
            let _ = stack.take_timers();
        }
        prop_assert_eq!(stack.stats().checksum_drops, packets.len() as u64);
    }

    /// Ephemeral allocation honours the configured range and never
    /// double-allocates.
    #[test]
    fn ephemeral_ports_unique_and_in_range(n in 1usize..200, seed in any::<u64>()) {
        let mut stack = HostStack::new([10, 0, 0, 1].into(), StackConfig::default(), seed);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..n {
            let sock = stack.udp_bind(0).expect("bind");
            let port = stack.local_endpoint(sock).expect("ep").port;
            prop_assert!((49152..=65535).contains(&port));
            prop_assert!(seen.insert(port), "port {} reused", port);
        }
    }
}
