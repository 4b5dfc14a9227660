//! The §5.3 payload-mangling misbehaviour.
//!
//! A few real NATs scan packet payloads for 4-byte values that look like
//! IP addresses and rewrite them as they would the IP header. This module
//! implements that rewrite so applications' obfuscation defences
//! (transmitting the one's complement of addresses) can be tested.

use bytes::Bytes;
use std::net::Ipv4Addr;

/// Replaces every aligned-or-unaligned occurrence of `from`'s four octets
/// in `payload` with `to`'s octets. Returns `None` when nothing matched
/// (so callers can keep the original `Bytes` without copying).
pub fn rewrite_addr(payload: &[u8], from: Ipv4Addr, to: Ipv4Addr) -> Option<Bytes> {
    let needle = from.octets();
    let replacement = to.octets();
    if payload.len() < 4 {
        return None;
    }
    let mut out: Option<Vec<u8>> = None;
    let mut i = 0;
    while i + 4 <= payload.len() {
        if payload[i..i + 4] == needle {
            let buf = out.get_or_insert_with(|| payload.to_vec());
            buf[i..i + 4].copy_from_slice(&replacement);
            i += 4;
        } else {
            i += 1;
        }
    }
    out.map(Bytes::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrites_all_occurrences() {
        let from = Ipv4Addr::new(10, 0, 0, 1);
        let to = Ipv4Addr::new(155, 99, 25, 11);
        let payload = [b"xx".as_ref(), &from.octets(), b"yy", &from.octets()].concat();
        let out = rewrite_addr(&payload, from, to).unwrap();
        assert_eq!(&out[2..6], &to.octets());
        assert_eq!(&out[8..12], &to.octets());
        assert_eq!(&out[0..2], b"xx");
    }

    #[test]
    fn unaligned_match() {
        let from = Ipv4Addr::new(1, 2, 3, 4);
        let to = Ipv4Addr::new(9, 9, 9, 9);
        let payload = [b"z".as_ref(), &from.octets()].concat();
        let out = rewrite_addr(&payload, from, to).unwrap();
        assert_eq!(&out[1..5], &to.octets());
    }

    #[test]
    fn no_match_returns_none() {
        assert!(rewrite_addr(
            b"hello world",
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(9, 9, 9, 9)
        )
        .is_none());
        assert!(
            rewrite_addr(b"ab", Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(9, 9, 9, 9)).is_none()
        );
    }

    #[test]
    fn overlapping_candidates_do_not_rescan_replacement() {
        // from = 1.1.1.1 and a run of six 1-bytes: one match at offset 0,
        // then scanning resumes at offset 4.
        let from = Ipv4Addr::new(1, 1, 1, 1);
        let to = Ipv4Addr::new(2, 2, 2, 2);
        let payload = [1u8; 6];
        let out = rewrite_addr(&payload, from, to).unwrap();
        assert_eq!(out.as_ref(), &[2, 2, 2, 2, 1, 1]);
    }
}
