//! Relay payload framing shared by the UDP and TCP endpoints (D2).
//!
//! Payloads relayed through S (§2.2) carry a one-byte kind prefix so the
//! receiving endpoint can separate application data from internal control
//! messages (currently: §5.1 predicted-candidate announcements).

use bytes::{BufMut, Bytes, BytesMut};
use punch_rendezvous::{Message, PeerId};

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
    let mut buf = BytesMut::with_capacity(body.len() + 1);
    buf.put_u8(match kind {
        RelayKind::Control => RELAY_KIND_CONTROL,
        RelayKind::App => RELAY_KIND_APP,
    });
    buf.put_slice(body);
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
}
