//! Three micro-probes for what the spies cannot separate.
//!
//! A sender's `Ctx::send` and `set_timer` run inside the sender's own
//! span, so link, pool and queue-push time is charged to the sending
//! layer, and checksum and codec time sit deep inside the stack and
//! server spans. Each probe times one of those primitives alone, through
//! its public API, at the shape the workload it serves gives it.

use crate::clock;
use bytes::Bytes;
use holepunch::PeerId;
use punch_net::calendar::CalendarQueue;
use punch_net::{Duration, Endpoint, Packet, SimTime, TcpFlags, TcpSegment};
use punch_rendezvous::wire::Message;
use std::hint::black_box;

/// Median over `BATCHES` of one batch's nanoseconds per `per_batch` ops.
fn median_ns(per_batch: u64, mut batch: impl FnMut()) -> f64 {
    const BATCHES: usize = 21;
    batch();
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = clock::now();
            batch();
            clock::ns_since(t) as f64 / per_batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// `net.calendar_ns_per_op`: one `pop_front` plus one `push`, holding the
/// queue at 50 000 pending entries — `crowd_udp`'s per-shard high-water —
/// with the delays that world schedules (LAN and WAN hops, punch and
/// keepalive timers).
pub fn calendar_ns_per_op() -> f64 {
    const DEPTH: u64 = 50_000;
    const OPS: u64 = 200_000;
    let delays = [
        Duration::from_micros(200),
        Duration::from_millis(10),
        Duration::from_millis(5),
        Duration::from_millis(10),
        Duration::from_micros(200),
        Duration::from_millis(250),
        Duration::from_secs(1),
    ];
    let mut queue: CalendarQueue<u64> = CalendarQueue::new();
    // As `Sim::add_node` sizes it for one `crowd_udp` shard.
    queue.ensure_capacity_for(20_002);
    let mut seq = 0u64;
    for i in 0..DEPTH {
        queue.push(SimTime::from_nanos(i * 997), seq, seq);
        seq += 1;
    }
    median_ns(OPS, || {
        for _ in 0..OPS {
            let e = queue.pop_front().expect("queue holds DEPTH entries");
            let at = e.at + delays[(seq % delays.len() as u64) as usize];
            queue.push(at, seq, black_box(e.item));
            seq += 1;
        }
    })
}

/// `net.checksum_ns_per_kib`: `Packet::checksum_ok` over `stream_tcp`'s
/// 1400-byte segments, per KiB of payload.
pub fn checksum_ns_per_kib() -> f64 {
    const PACKETS: u64 = 20_000;
    const PAYLOAD: usize = 1400;
    let src = Endpoint::new([10, 0, 0, 1].into(), 4000);
    let dst = Endpoint::new([10, 1, 1, 3].into(), 4001);
    let seg = TcpSegment {
        flags: TcpFlags::ACK,
        seq: 1,
        ack: 1,
        window: u16::MAX,
        payload: Bytes::from(vec![0xabu8; PAYLOAD]),
    };
    let pkt = Packet::tcp(src, dst, seg);
    let per_packet = median_ns(PACKETS, || {
        for _ in 0..PACKETS {
            assert!(black_box(&pkt).checksum_ok());
        }
    });
    per_packet * 1024.0 / PAYLOAD as f64
}

/// `rendezvous.codec_ns_per_msg`: one `Message::encode` plus one
/// `Message::decode`, alternating `server_storm`'s most common request
/// (`Register`) and reply (`Introduce`).
pub fn codec_ns_per_msg() -> f64 {
    const MSGS: u64 = 50_000;
    let ep = |port| Endpoint::new([155, 99, 25, 11].into(), port);
    let msgs = [
        Message::Register {
            peer_id: PeerId(7),
            private: ep(4321),
        },
        Message::Introduce {
            peer: PeerId(8),
            public: ep(62000),
            private: ep(4321),
            nonce: 0x1234_5678_9abc_def0,
            initiator: true,
        },
    ];
    median_ns(MSGS, || {
        for i in 0..MSGS {
            let wire = black_box(&msgs[(i % 2) as usize]).encode(true);
            let back = Message::decode(black_box(&wire)).expect("own encoding decodes");
            black_box(back);
        }
    })
}
