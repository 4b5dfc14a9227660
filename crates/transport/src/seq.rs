//! TCP sequence-number arithmetic (RFC 793 §3.3).
//!
//! Sequence numbers live on a 32-bit circle; comparisons are modular.
//! `a < b` means "a is earlier than b" when the distance is less than
//! half the circle.

/// Returns true if `a` is strictly earlier than `b` on the circle.
pub fn lt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) < 0
}

/// Returns true if `a` is earlier than or equal to `b`.
pub fn le(a: u32, b: u32) -> bool {
    a == b || lt(a, b)
}

/// Returns true if `a` is strictly later than `b`.
pub fn gt(a: u32, b: u32) -> bool {
    lt(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_ordering() {
        assert!(lt(1, 2));
        assert!(!lt(2, 1));
        assert!(!lt(5, 5));
        assert!(le(5, 5));
        assert!(gt(7, 3));
    }

    #[test]
    fn wraparound_ordering() {
        assert!(lt(u32::MAX, 0));
        assert!(lt(u32::MAX - 10, 5));
        assert!(gt(5, u32::MAX - 10));
        assert!(le(u32::MAX, 0));
    }
}
