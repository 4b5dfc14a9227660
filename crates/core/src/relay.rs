//! Relay payload framing shared by the UDP and TCP endpoints (D2).
//!
//! Payloads relayed through S (§2.2) carry a one-byte kind prefix so the
//! receiving endpoint can separate application data from internal control
//! messages (currently: §5.1 predicted-candidate announcements, whose
//! body is `ip(4) ‖ n(1) ‖ n × port(2)`).

use bytes::{BufMut, Bytes, BytesMut};
use punch_rendezvous::{Message, PeerId};
use std::net::Ipv4Addr;

/// Control payload (internal to the punching endpoints).
const RELAY_KIND_CONTROL: u8 = 0;
/// Application payload.
const RELAY_KIND_APP: u8 = 1;

/// What a relayed payload carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RelayKind {
    Control,
    App,
}

/// The request asking S to forward `body` from `from` to `target`.
pub(crate) fn wrap(kind: RelayKind, from: PeerId, target: PeerId, body: &[u8]) -> Message {
    relay(kind, from, target, body.len(), |buf| buf.put_slice(body))
}

/// The request asking S to forward the `len`-byte body `write` appends,
/// which it writes straight into the payload after the kind byte.
fn relay(
    kind: RelayKind,
    from: PeerId,
    target: PeerId,
    len: usize,
    write: impl FnOnce(&mut BytesMut),
) -> Message {
    let mut buf = BytesMut::with_capacity(len + 1);
    buf.put_u8(match kind {
        RelayKind::Control => RELAY_KIND_CONTROL,
        RelayKind::App => RELAY_KIND_APP,
    });
    write(&mut buf);
    Message::RelayData {
        from,
        target,
        data: buf.freeze(),
    }
}

/// Splits a `RelayedData` payload into its kind and body; `None` for an
/// empty payload or a kind this endpoint does not know.
pub(crate) fn unwrap(data: &Bytes) -> Option<(RelayKind, Bytes)> {
    let kind = match *data.first()? {
        RELAY_KIND_CONTROL => RelayKind::Control,
        RELAY_KIND_APP => RelayKind::App,
        _ => return None,
    };
    Some((kind, data.slice(1..)))
}

/// The request asking S to tell `target` that `from`'s NAT is predicted
/// to allocate `ports` on `ip` next (§5.1); the one-byte count sends at
/// most the first 255.
pub(crate) fn announce(from: PeerId, target: PeerId, ip: Ipv4Addr, ports: &[u16]) -> Message {
    let ports = &ports[..ports.len().min(255)];
    relay(RelayKind::Control, from, target, 5 + 2 * ports.len(), |buf| {
        buf.put_slice(&ip.octets());
        buf.put_u8(ports.len() as u8);
        for &p in ports {
            buf.put_u16(p);
        }
    })
}

/// Parses an announcement's body into its IP and ports; `None` when it
/// is shorter than its count says. Bytes past the last port are ignored.
pub(crate) fn announced(body: &[u8]) -> Option<(Ipv4Addr, impl Iterator<Item = u16> + '_)> {
    let (&[a, b, c, d, n], ports) = body.split_first_chunk::<5>()?;
    let ports = ports.get(..2 * usize::from(n))?.chunks_exact(2);
    Some((
        Ipv4Addr::new(a, b, c, d),
        ports.map(|p| u16::from_be_bytes([p[0], p[1]])),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_then_unwrap_is_the_identity_and_junk_is_refused() {
        for kind in [RelayKind::Control, RelayKind::App] {
            let Message::RelayData { data, .. } = wrap(kind, PeerId(1), PeerId(2), b"body") else {
                panic!("wrap builds a RelayData");
            };
            assert_eq!(unwrap(&data), Some((kind, Bytes::from_static(b"body"))));
        }
        assert_eq!(unwrap(&Bytes::new()), None);
        assert_eq!(unwrap(&Bytes::from_static(b"\x07body")), None);
    }

    /// A relay control payload fits the stand-in's inline capacity
    /// (`bytes::INLINE_CAP`) up to the widest window the tree predicts
    /// with (8 ports, 22 B), so building one allocates nothing. The
    /// `RelayData` around it adds 20 B, so an announcement of more than
    /// seven ports is a datagram over the capacity.
    #[test]
    fn a_relay_control_payload_fits_the_inline_capacity() {
        let ip = Ipv4Addr::new(138, 76, 29, 7);
        for n in 0..=8u16 {
            let ports: Vec<u16> = (0..n).map(|k| 31000 + k).collect();
            let msg = announce(PeerId(1), PeerId(2), ip, &ports);
            let Message::RelayData { data, .. } = &msg else {
                panic!("announce builds a RelayData");
            };
            assert!(
                data.len() <= bytes::INLINE_CAP,
                "{n} ports: {} B",
                data.len()
            );
            assert_eq!(msg.encode(false).len(), 20 + data.len());
        }
    }

    #[test]
    fn an_announcement_parses_back_to_its_ip_and_ports() {
        let ip = Ipv4Addr::new(138, 76, 29, 7);
        let Message::RelayData { data, .. } = announce(PeerId(1), PeerId(2), ip, &[31001, 31002])
        else {
            panic!("announce builds a RelayData");
        };
        let (kind, body) = unwrap(&data).expect("a control payload");
        assert_eq!(kind, RelayKind::Control);
        assert_eq!(body.as_ref(), [138, 76, 29, 7, 2, 0x79, 0x19, 0x79, 0x1a]);
        let (got, ports) = announced(&body).expect("well formed");
        assert_eq!((got, ports.collect::<Vec<_>>()), (ip, vec![31001, 31002]));
        // Too short for the header, or for the count it names.
        assert!(announced(&[1, 2, 3]).is_none());
        assert!(announced(&[1, 2, 3, 4, 9, 0, 1]).is_none());
    }
}
