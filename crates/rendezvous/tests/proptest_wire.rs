//! Property tests for the wire codec: round-trips for arbitrary
//! messages, no panics on arbitrary byte soup, and the frame reassembler
//! at any cap — the one NAT Check's `CheckFrames` is built on too.

use bytes::Bytes;
use proptest::prelude::*;
use punch_net::Endpoint;
use punch_rendezvous::{
    encode_frame, FrameBuf, Message, PeerId, WireError, MAX_BUFFER, MAX_FRAME, MAX_PAYLOAD,
};

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    (any::<[u8; 4]>(), any::<u16>()).prop_map(|(o, p)| Endpoint::new(o.into(), p))
}

fn arb_payload() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..512).prop_map(Bytes::from)
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u64>(), arb_endpoint()).prop_map(|(id, private)| Message::Register {
            peer_id: PeerId(id),
            private
        }),
        arb_endpoint().prop_map(|public| Message::RegisterAck { public }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, n)| Message::ConnectRequest {
            peer_id: PeerId(a),
            target: PeerId(b),
            nonce: n,
        }),
        (
            any::<u64>(),
            arb_endpoint(),
            arb_endpoint(),
            any::<u64>(),
            any::<bool>()
        )
            .prop_map(|(p, pb, pv, n, i)| Message::Introduce {
                peer: PeerId(p),
                public: pb,
                private: pv,
                nonce: n,
                initiator: i,
            }),
        (any::<u64>(), any::<u64>(), arb_payload()).prop_map(|(f, t, d)| Message::RelayData {
            from: PeerId(f),
            target: PeerId(t),
            data: d,
        }),
        (any::<u64>(), arb_payload()).prop_map(|(f, d)| Message::RelayedData {
            from: PeerId(f),
            data: d
        }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, n)| Message::ReversalRequest {
            peer_id: PeerId(a),
            target: PeerId(b),
            nonce: n,
        }),
        (any::<u64>(), arb_endpoint(), arb_endpoint(), any::<u64>()).prop_map(|(f, pb, pv, n)| {
            Message::ReversalRequested {
                from: PeerId(f),
                public: pb,
                private: pv,
                nonce: n,
            }
        }),
        Just(Message::Ping),
        Just(Message::Pong),
        (any::<u64>(), any::<u64>()).prop_map(|(f, n)| Message::PeerHello {
            from: PeerId(f),
            nonce: n
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(f, n)| Message::PeerHelloAck {
            from: PeerId(f),
            nonce: n
        }),
        arb_payload().prop_map(|d| Message::PeerData { data: d }),
        Just(Message::KeepAlive),
        any::<u8>().prop_map(|c| Message::ErrorReply { code: c }),
        (any::<[u64; 3]>(), arb_endpoint(), arb_endpoint()).prop_map(|([r, t, n], rp, rv)| {
            Message::SrvIntroduce {
                requester: PeerId(r),
                requester_public: rp,
                requester_private: rv,
                target: PeerId(t),
                nonce: n,
            }
        }),
        (any::<[u64; 3]>(), arb_endpoint(), arb_endpoint()).prop_map(|([r, t, n], tp, tv)| {
            Message::SrvIntroduceReply {
                requester: PeerId(r),
                target: PeerId(t),
                target_public: tp,
                target_private: tv,
                nonce: n,
            }
        }),
        any::<[u64; 3]>().prop_map(|[r, t, n]| Message::SrvIntroduceErr {
            requester: PeerId(r),
            target: PeerId(t),
            nonce: n,
        }),
        (any::<u64>(), any::<u64>(), arb_payload()).prop_map(|(f, t, d)| Message::SrvRelay {
            from: PeerId(f),
            target: PeerId(t),
            data: d,
        }),
    ]
}

/// What a TCP stream may carry: well-formed frames, frames whose bodies
/// are byte soup (most fail to decode), and a length prefix above
/// `MAX_FRAME`, which stalls the stream for good.
fn arb_stream_piece() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (arb_message(), any::<bool>()).prop_map(|(m, obf)| encode_frame(&m, obf).concat()),
        (arb_message(), any::<bool>()).prop_map(|(m, obf)| encode_frame(&m, obf).concat()),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(|body| {
            let mut frame = (body.len() as u16).to_be_bytes().to_vec();
            frame.extend_from_slice(&body);
            frame
        }),
        (MAX_FRAME as u16 + 1..=u16::MAX).prop_map(|len| len.to_be_bytes().to_vec()),
    ]
}

/// Up to eight results from `next`, stopping at the first `None` (a
/// stream error repeats, so it fills all eight).
fn drain<T>(mut next: impl FnMut() -> Option<T>) -> Vec<T> {
    (0..8).map_while(|_| next()).collect()
}

/// The four messages that carry a payload, each at `MAX_PAYLOAD`.
fn carriers_at_max_payload() -> Vec<Message> {
    let (from, target) = (PeerId(1), PeerId(2));
    let data = Bytes::from(vec![0x42u8; MAX_PAYLOAD]);
    vec![
        Message::PeerData { data: data.clone() },
        Message::RelayData {
            from,
            target,
            data: data.clone(),
        },
        Message::RelayedData {
            from,
            data: data.clone(),
        },
        Message::SrvRelay { from, target, data },
    ]
}

#[test]
fn a_frame_is_the_length_then_the_message_even_at_max_payload() {
    for msg in carriers_at_max_payload() {
        for obf in [false, true] {
            let body = msg.encode(obf);
            let frame = encode_frame(&msg, obf).concat();
            assert_eq!(frame[..2], (body.len() as u16).to_be_bytes());
            assert_eq!(frame[2..], body[..]);
        }
    }
}

/// The two caps in use (this codec's and NAT Check's 1 KiB), and small
/// ones that overflow early.
fn arb_cap() -> impl Strategy<Value = usize> {
    prop_oneof![Just(MAX_BUFFER), Just(1024usize), 1usize..256]
}

proptest! {
    #[test]
    fn roundtrip_any_message(msg in arb_message(), obf in any::<bool>()) {
        let enc = msg.encode(obf);
        let dec = Message::decode(&enc).expect("own encoding must decode");
        prop_assert_eq!(dec, msg);
    }

    /// A frame is the body's big-endian `u16` length, then the body.
    #[test]
    fn a_frame_is_the_length_then_the_message(msg in arb_message(), obf in any::<bool>()) {
        let body = msg.encode(obf);
        let frame = encode_frame(&msg, obf).concat();
        prop_assert_eq!(&frame[..2], &(body.len() as u16).to_be_bytes()[..]);
        prop_assert_eq!(&frame[2..], &body[..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `next_message` is `next_frame` then `Message::decode`, over any
    /// chunking and cap: the same messages, the same decode errors, the
    /// same `FrameTooLarge` and `Oversize`, in the same order.
    #[test]
    fn next_message_is_next_frame_then_decode(
        pieces in proptest::collection::vec(arb_stream_piece(), 1..8),
        chunk in 1usize..64,
        cap in arb_cap(),
    ) {
        let stream = pieces.concat();
        let (mut direct, mut raw) = (FrameBuf::with_cap(cap), FrameBuf::with_cap(cap));
        for c in stream.chunks(chunk) {
            direct.push(c);
            raw.push(c);
            let got = drain(|| direct.next_message());
            let want = drain(|| raw.next_frame().map(|f| f.and_then(|body| Message::decode(&body))));
            prop_assert_eq!(got, want);
        }
    }
}

proptest! {
    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn frame_reassembly_is_chunking_invariant(
        msgs in proptest::collection::vec(arb_message(), 1..8),
        chunk in 1usize..32,
        obf in any::<bool>(),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(m, obf).concat());
        }
        let mut fb = FrameBuf::new();
        let mut out = Vec::new();
        for c in stream.chunks(chunk) {
            fb.push(c);
            while let Some(m) = fb.next_message() {
                out.push(m.expect("valid frame"));
            }
        }
        prop_assert_eq!(out, msgs);
    }

    /// The framing itself, under any decoder: whatever the bodies, the
    /// chunking, and the cap (as long as it admits the stream), the same
    /// bodies come out in order.
    #[test]
    fn raw_frames_are_chunking_invariant(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..8),
        chunk in 1usize..16,
        slack in 0usize..8,
    ) {
        let mut stream = Vec::new();
        for b in &bodies {
            stream.extend_from_slice(&(b.len() as u16).to_be_bytes());
            stream.extend_from_slice(b);
        }
        let mut fb = FrameBuf::with_cap(stream.len() + slack);
        let mut out = Vec::new();
        for c in stream.chunks(chunk) {
            fb.push(c);
            while let Some(frame) = fb.next_frame() {
                out.push(frame.expect("within the cap").to_vec());
            }
        }
        prop_assert_eq!(out, bodies);
    }

    #[test]
    fn framebuf_survives_garbage(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..8),
        cap in arb_cap(),
    ) {
        // Arbitrary bytes may produce errors but never panic or loop.
        let mut fb = FrameBuf::with_cap(cap);
        for c in &chunks {
            fb.push(c);
            for _ in 0..64 {
                if fb.next_message().is_none() {
                    break;
                }
            }
        }
    }

    /// Strict framing: any valid message with bytes appended is
    /// rejected with `TrailingBytes`, never silently trimmed.
    #[test]
    fn trailing_bytes_are_rejected(
        msg in arb_message(),
        obf in any::<bool>(),
        pad in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut enc = msg.encode(obf).to_vec();
        enc.extend_from_slice(&pad);
        prop_assert_eq!(
            Message::decode(&enc),
            Err(WireError::TrailingBytes(pad.len()))
        );
    }

    /// Outrunning the reassembly cap poisons the buffer: it reports
    /// `Oversize` persistently and never yields messages pushed after
    /// the overflow, rather than buffering without bound.
    #[test]
    fn overflow_poisons_the_reassembler(
        cap in arb_cap(),
        extra in 1usize..64,
        later in proptest::collection::vec(any::<u8>(), 0..32),
        obf in any::<bool>(),
    ) {
        let mut fb = FrameBuf::with_cap(cap);
        fb.push(&vec![0u8; cap + extra]);
        prop_assert_eq!(fb.next_message(), Some(Err(WireError::Oversize(cap))));
        fb.push(&later);
        fb.push(&encode_frame(&Message::Ping, obf).concat());
        prop_assert_eq!(fb.next_frame(), Some(Err(WireError::Oversize(cap))));
    }

    #[test]
    fn obfuscation_never_changes_decoded_value(ep in arb_endpoint(), id in any::<u64>()) {
        let msg = Message::Register { peer_id: PeerId(id), private: ep };
        let plain = Message::decode(&msg.encode(false)).expect("decodes");
        let obf = Message::decode(&msg.encode(true)).expect("decodes");
        prop_assert_eq!(plain, obf);
    }
}
