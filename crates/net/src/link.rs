//! Point-to-point link properties.

use std::time::Duration;

/// Transmission properties of a point-to-point link.
///
/// A link connects exactly two node interfaces, in both directions with
/// the same parameters. Delivery time for a packet sent at time `t` is
///
/// ```text
/// depart = max(t, link_busy_until)            (if bandwidth is finite)
/// arrive = depart + serialization + latency + jitter
/// ```
///
/// where `jitter` is drawn uniformly from `[0, jitter]` using the
/// simulation's seeded RNG, and the packet is dropped with probability
/// `loss` instead of being delivered.
///
/// Four fault knobs model misbehaving paths: with probability
/// `duplicate` a second copy of the packet is delivered shortly after
/// the first, with probability `reorder` the packet is exempted
/// from the link's FIFO ordering and held for an extra random delay so
/// later traffic can overtake it, with probability `corrupt` a random
/// payload bit is flipped in flight, and with probability `truncate`
/// the payload is cut short at a random offset. All default to zero,
/// and a link with all four at zero consumes no extra RNG draws —
/// traces of existing configurations are unchanged.
///
/// # Examples
///
/// ```
/// use punch_net::LinkSpec;
/// use std::time::Duration;
///
/// let dsl = LinkSpec {
///     jitter: Duration::from_millis(2),
///     bandwidth: Some(1_000_000), // 1 MB/s
///     ..LinkSpec::new(Duration::from_millis(15)).with_loss(0.01)
/// };
/// assert_eq!(dsl.latency, Duration::from_millis(15));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// One-way propagation delay.
    pub latency: Duration,
    /// Maximum additional random delay, uniform in `[0, jitter]`.
    pub jitter: Duration,
    /// Independent per-packet drop probability in `[0, 1]`.
    pub loss: f64,
    /// Independent per-packet duplication probability in `[0, 1]`: the
    /// duplicate copy arrives shortly after the original.
    pub duplicate: f64,
    /// Independent per-packet reordering probability in `[0, 1]`: a
    /// reordered packet skips the FIFO clamp and is held for an extra
    /// uniform delay up to `max(4 * jitter, latency, 1 ms)`.
    pub reorder: f64,
    /// Independent per-packet corruption probability in `[0, 1]`: a
    /// corrupted packet has one random payload bit flipped (or, for an
    /// empty payload, its checksum mangled) and is still delivered —
    /// receivers must detect the damage themselves.
    pub corrupt: f64,
    /// Independent per-packet truncation probability in `[0, 1]`: a
    /// truncated packet has its payload cut short at a random offset
    /// without the checksum being recomputed.
    pub truncate: f64,
    /// Bytes per second, or `None` for infinite bandwidth (no
    /// serialization delay or queueing).
    pub bandwidth: Option<u64>,
}

impl LinkSpec {
    /// Creates a lossless, jitter-free, infinite-bandwidth link with the
    /// given one-way latency.
    pub fn new(latency: Duration) -> Self {
        LinkSpec {
            latency,
            jitter: Duration::ZERO,
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            truncate: 0.0,
            bandwidth: None,
        }
    }

    /// A local-area link: 0.2 ms latency, no loss.
    pub fn lan() -> Self {
        LinkSpec::new(Duration::from_micros(200))
    }

    /// A typical residential access link: 10 ms, 2 ms jitter.
    // punch-lint: allow(S005) the access link of transport/tests/proptest_tcp.rs, lab/tests/{chaos_search,wiring_contract}.rs and core/tests/{peer_contract,tcp_punch}.rs
    pub fn access() -> Self {
        LinkSpec::new(Duration::from_millis(10)).with_jitter(Duration::from_millis(2))
    }

    /// A wide-area backbone path: 30 ms, 3 ms jitter.
    pub fn wan() -> Self {
        LinkSpec::new(Duration::from_millis(30)).with_jitter(Duration::from_millis(3))
    }

    /// Sets the random jitter bound.
    fn with_jitter(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the per-packet loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not within `[0, 1]`.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss),
            "loss probability {loss} outside [0,1]"
        );
        self.loss = loss;
        self
    }

    /// Sets the per-packet corruption probability.
    ///
    /// # Panics
    ///
    /// Panics if `corrupt` is not within `[0, 1]`.
    pub fn with_corrupt(mut self, corrupt: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&corrupt),
            "corrupt probability {corrupt} outside [0,1]"
        );
        self.corrupt = corrupt;
        self
    }

    /// Sets the per-packet truncation probability.
    ///
    /// # Panics
    ///
    /// Panics if `truncate` is not within `[0, 1]`.
    pub fn with_truncate(mut self, truncate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&truncate),
            "truncate probability {truncate} outside [0,1]"
        );
        self.truncate = truncate;
        self
    }

    /// Extra hold window for a reordered packet: wide enough that
    /// in-order traffic behind it actually overtakes.
    pub fn reorder_window(&self) -> Duration {
        (self.jitter * 4)
            .max(self.latency)
            .max(Duration::from_millis(1))
    }

    /// Serialization delay for a packet of `bytes` bytes, zero when the
    /// link has infinite bandwidth.
    pub fn serialization_delay(&self, bytes: usize) -> Duration {
        match self.bandwidth {
            None => Duration::ZERO,
            Some(bw) => {
                let nanos = (bytes as u128).saturating_mul(1_000_000_000) / bw as u128;
                Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
            }
        }
    }
}

impl Default for LinkSpec {
    /// The default link is [`LinkSpec::lan`].
    fn default() -> Self {
        LinkSpec::lan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let l = LinkSpec::new(Duration::from_millis(5))
            .with_jitter(Duration::from_millis(1))
            .with_loss(0.5)
            .with_corrupt(0.0625)
            .with_truncate(0.03125);
        assert_eq!(l.latency, Duration::from_millis(5));
        assert_eq!(l.jitter, Duration::from_millis(1));
        assert_eq!(l.loss, 0.5);
        assert_eq!(l.corrupt, 0.0625);
        assert_eq!(l.truncate, 0.03125);
    }

    #[test]
    fn fault_knobs_default_to_zero() {
        let l = LinkSpec::default();
        assert_eq!(l.duplicate, 0.0);
        assert_eq!(l.reorder, 0.0);
        assert_eq!(l.corrupt, 0.0);
        assert_eq!(l.truncate, 0.0);
    }

    #[test]
    fn reorder_window_scales_with_jitter_and_latency() {
        let quiet = LinkSpec::new(Duration::ZERO);
        assert_eq!(quiet.reorder_window(), Duration::from_millis(1));
        let wan = LinkSpec::wan(); // 30 ms latency, 3 ms jitter
        assert_eq!(wan.reorder_window(), Duration::from_millis(30));
        let jittery = LinkSpec::new(Duration::from_millis(2))
            .with_jitter(Duration::from_millis(10));
        assert_eq!(jittery.reorder_window(), Duration::from_millis(40));
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn corrupt_out_of_range_panics() {
        let _ = LinkSpec::lan().with_corrupt(1.01);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn truncate_out_of_range_panics() {
        let _ = LinkSpec::lan().with_truncate(-0.5);
    }

    #[test]
    fn serialization_delay_infinite_bw() {
        assert_eq!(
            LinkSpec::lan().serialization_delay(1_000_000),
            Duration::ZERO
        );
    }

    #[test]
    fn serialization_delay_finite_bw() {
        let l = LinkSpec { bandwidth: Some(1000), ..LinkSpec::lan() }; // 1000 B/s
        assert_eq!(l.serialization_delay(500), Duration::from_millis(500));
        assert_eq!(l.serialization_delay(0), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn loss_out_of_range_panics() {
        let _ = LinkSpec::lan().with_loss(1.5);
    }
}
