//! Socket identifiers and internal timer-token encoding.

#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_lossless)]

use std::fmt;

/// Handle to a socket on one host, analogous to a file descriptor.
///
/// Socket ids are unique within their host stack and never reused during
/// a simulation, which removes an entire class of stale-handle bugs from
/// application code.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub(crate) u32);

impl SocketId {
    /// Returns the raw id (diagnostics only).
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sock{}", self.0)
    }
}

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sock{}", self.0)
    }
}

/// Kinds of stack-internal timers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerKind {
    /// Retransmission timeout.
    Rto,
    /// TIME-WAIT expiry.
    TimeWait,
}

/// Bit marking a timer token as stack-internal rather than
/// application-owned.
pub(crate) const INTERNAL_TIMER_BIT: u64 = 1 << 63;

/// Encodes a stack-internal timer token.
///
/// Layout: bit 63 = internal flag, bits 56..58 = kind, bits 24..55 =
/// socket id, bits 0..23 = generation (stale-timer suppression).
pub(crate) fn encode_timer(kind: TimerKind, sock: SocketId, gen: u32) -> u64 {
    let kind_bits = match kind {
        TimerKind::Rto => 1u64,
        TimerKind::TimeWait => 2u64,
    };
    INTERNAL_TIMER_BIT | (kind_bits << 56) | (u64::from(sock.0) << 24) | (u64::from(gen) & 0xff_ffff)
}

/// Decodes a stack-internal timer token; returns `None` for application
/// tokens.
pub(crate) fn decode_timer(token: u64) -> Option<(TimerKind, SocketId, u32)> {
    if token & INTERNAL_TIMER_BIT == 0 {
        return None;
    }
    let kind = match (token >> 56) & 0x7 {
        1 => TimerKind::Rto,
        2 => TimerKind::TimeWait,
        _ => return None,
    };
    let sock = SocketId(((token >> 24) & 0xffff_ffff) as u32);
    let gen = (token & 0xff_ffff) as u32;
    Some((kind, sock, gen))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_token_roundtrip() {
        for kind in [TimerKind::Rto, TimerKind::TimeWait] {
            for sock in [0u32, 7, 0xffff_ffff] {
                for gen in [0u32, 1, 0xff_ffff] {
                    let tok = encode_timer(kind, SocketId(sock), gen);
                    assert_eq!(decode_timer(tok), Some((kind, SocketId(sock), gen)));
                }
            }
        }
    }

    #[test]
    fn generation_truncates_to_24_bits() {
        let tok = encode_timer(TimerKind::Rto, SocketId(1), 0x0100_0001);
        assert_eq!(decode_timer(tok).unwrap().2, 1);
    }

    #[test]
    fn app_tokens_are_not_internal() {
        assert_eq!(decode_timer(0), None);
        assert_eq!(decode_timer(u64::MAX >> 1), None);
    }
}
