//! Property tests for the NAT Check wire codec: round-trips for
//! arbitrary messages, strict rejection of padded datagrams, no panics
//! on byte soup, and what `CheckFrames` adds to the shared reassembler.

use proptest::prelude::*;
use punch_natcheck::{CheckFrames, CheckMsg, InboundStatus, MAX_CHECK_BUFFER};
use punch_net::Endpoint;

fn arb_endpoint() -> impl Strategy<Value = Endpoint> {
    (any::<[u8; 4]>(), any::<u16>()).prop_map(|(o, p)| Endpoint::new(o.into(), p))
}

fn arb_status() -> impl Strategy<Value = InboundStatus> {
    prop_oneof![
        Just(InboundStatus::InProgress),
        Just(InboundStatus::Connected),
        Just(InboundStatus::Refused),
    ]
}

fn arb_check_msg() -> impl Strategy<Value = CheckMsg> {
    prop_oneof![
        any::<u64>().prop_map(|token| CheckMsg::UdpProbe { token }),
        (any::<u64>(), arb_endpoint(), any::<u8>()).prop_map(|(token, observed, server)| {
            CheckMsg::UdpEcho {
                token,
                observed,
                server,
            }
        }),
        (arb_endpoint(), any::<u64>())
            .prop_map(|(client, token)| CheckMsg::ForwardUdp { client, token }),
        any::<u64>().prop_map(|token| CheckMsg::TcpProbe { token }),
        (any::<u64>(), arb_endpoint(), any::<u8>()).prop_map(|(token, observed, server)| {
            CheckMsg::TcpEcho {
                token,
                observed,
                server,
            }
        }),
        (arb_endpoint(), any::<u64>())
            .prop_map(|(client, token)| CheckMsg::TcpInboundReq { client, token }),
        (any::<u64>(), arb_status())
            .prop_map(|(token, status)| CheckMsg::TcpGoAhead { token, status }),
        any::<u64>().prop_map(|token| CheckMsg::HairpinProbe { token }),
    ]
}

proptest! {
    #[test]
    fn roundtrip_any_check_msg(msg in arb_check_msg()) {
        let enc = msg.encode();
        prop_assert_eq!(CheckMsg::decode(&enc), Some(msg));
    }

    /// Strict framing: a valid message with anything appended is
    /// hostile, not trimmed.
    #[test]
    fn trailing_bytes_are_rejected(
        msg in arb_check_msg(),
        pad in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut enc = msg.encode().to_vec();
        enc.extend_from_slice(&pad);
        prop_assert_eq!(CheckMsg::decode(&enc), None);
    }

    #[test]
    fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = CheckMsg::decode(&bytes);
    }

    /// `CheckFrames` is the rendezvous codec's `FrameBuf` (whose own
    /// suite covers chunking, caps and poisoning) plus this decoder and
    /// a skip-malformed policy: garbage frames between valid ones vanish,
    /// however the stream is sliced.
    #[test]
    fn malformed_frames_are_skipped_under_any_chunking(
        msgs in proptest::collection::vec(arb_check_msg(), 1..8),
        junk in proptest::collection::vec(any::<u8>(), 0..16),
        chunk in 1usize..16,
    ) {
        let mut junk_frame = (junk.len() as u16).to_be_bytes().to_vec();
        junk_frame.extend_from_slice(&junk);
        let mut stream = Vec::new();
        for m in &msgs {
            if CheckMsg::decode(&junk).is_none() {
                stream.extend_from_slice(&junk_frame);
            }
            stream.extend_from_slice(&m.encode_frame());
        }
        let mut frames = CheckFrames::default();
        let mut out = Vec::new();
        for c in stream.chunks(chunk) {
            frames.push(c);
            while let Some(m) = frames.next_message() {
                out.push(m);
            }
        }
        prop_assert_eq!(out, msgs);
    }

    /// Outrunning [`MAX_CHECK_BUFFER`] shuts the stream for good.
    #[test]
    fn overflow_yields_nothing_ever_after(extra in 1usize..64) {
        let mut frames = CheckFrames::default();
        frames.push(&vec![0u8; MAX_CHECK_BUFFER + extra]);
        frames.push(&CheckMsg::UdpProbe { token: 1 }.encode_frame());
        prop_assert_eq!(frames.next_message(), None);
    }
}
