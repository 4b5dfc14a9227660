//! Host stack configuration.

use std::time::Duration;

/// Which operating-system behaviour the TCP stack exhibits when a SYN
/// arrives matching both an in-progress outbound `connect()` and a
/// listening socket on the same port (paper §4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TcpFlavor {
    /// BSD-style: the SYN is matched to the connecting socket, whose
    /// asynchronous `connect()` then succeeds; the listener is untouched.
    Bsd,
    /// Linux/Windows-style: the listener wins; a fresh socket is delivered
    /// via `accept()` and the outstanding `connect()` on the same 4-tuple
    /// fails with "address in use".
    #[default]
    LinuxWindows,
}

/// Tunables for a host protocol stack.
///
/// Defaults model a contemporary general-purpose OS
/// ([`StackConfig::fast`] shrinks the timers for short simulations);
/// tests assign individual fields to force specific orderings.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct StackConfig {
    /// OS flavour for the §4.3 SYN-demux ambiguity.
    pub tcp_flavor: TcpFlavor,
    /// Initial retransmission timeout for both SYNs and data.
    pub rto_initial: Duration,
    /// Upper bound on the backed-off retransmission timeout.
    pub rto_max: Duration,
    /// SYN retransmissions before a connect fails with `TimedOut`.
    pub syn_retries: u32,
    /// Data/FIN retransmissions before the connection aborts.
    pub data_retries: u32,
    /// Maximum segment size for stream data.
    pub mss: usize,
    /// Cap on unacknowledged in-flight bytes (simple fixed window).
    pub send_window: usize,
    /// How long a closed connection lingers in TIME-WAIT (2×MSL).
    pub time_wait: Duration,
    /// Inclusive range from which ephemeral ports are drawn.
    pub ephemeral_ports: (u16, u16),
    /// RFC 5961-style RST validation: only a RST whose sequence number
    /// exactly matches `rcv_nxt` tears the connection down; an in-window
    /// RST elicits a challenge ACK and is otherwise ignored. Off by
    /// default (classic RFC 793 behaviour, which accepts any RST and is
    /// what an off-path injector exploits).
    pub rst_validation: bool,
    /// RFC 5927-style ICMP hardening: treat destination-unreachable
    /// errors as soft even during connection establishment, so spoofed
    /// ICMP cannot abort an in-progress connect. Off by default (a
    /// genuine unreachable then fails the connect fast, as real stacks
    /// do).
    pub icmp_strict: bool,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            tcp_flavor: TcpFlavor::default(),
            rto_initial: Duration::from_secs(1),
            rto_max: Duration::from_secs(60),
            syn_retries: 5,
            data_retries: 8,
            mss: 1400,
            send_window: 64 * 1024,
            time_wait: Duration::from_secs(30),
            ephemeral_ports: (49152, 65535),
            rst_validation: false,
            icmp_strict: false,
        }
    }
}

impl StackConfig {
    /// A configuration with fast timeouts, convenient for short
    /// simulations (SYN RTO 500 ms, TIME-WAIT 2 s).
    pub fn fast() -> Self {
        StackConfig {
            rto_initial: Duration::from_millis(500),
            time_wait: Duration::from_secs(2),
            ..StackConfig::default()
        }
    }

    /// Same configuration with a different TCP flavour.
    pub fn with_flavor(mut self, flavor: TcpFlavor) -> Self {
        self.tcp_flavor = flavor;
        self
    }

    /// Same configuration with RFC 5961 RST sequence validation enabled.
    pub fn with_rst_validation(mut self) -> Self {
        self.rst_validation = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_flavor_is_linux_windows() {
        // The paper observes this is the more common behaviour.
        assert_eq!(TcpFlavor::default(), TcpFlavor::LinuxWindows);
    }

    #[test]
    fn fast_config_shrinks_timers() {
        let c = StackConfig::fast();
        assert!(c.rto_initial < StackConfig::default().rto_initial);
        assert!(c.time_wait < StackConfig::default().time_wait);
    }

    #[test]
    fn with_flavor_overrides() {
        let c = StackConfig::fast().with_flavor(TcpFlavor::Bsd);
        assert_eq!(c.tcp_flavor, TcpFlavor::Bsd);
    }
}
